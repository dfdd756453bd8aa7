#!/usr/bin/env python3
"""Union-sampling benchmark: build the program, run one workload in one JVM.

    python3 unionbench/run.py --workload uq1-hist-ew --seed 1 --seconds 1 --trace 0

Run from the repository root. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1). Spark's log goes to stderr.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)
import build  # noqa: E402

WORKLOADS = ["uq1-hist-ew", "uq2-rw-eo", "uq3-online"]
HEAP = "3g"
RUN_LIMIT_S = 170  # the JVM is killed after this many seconds


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    try:
        jar, source_hash = build.ensure_built(ROOT)
    except build.BuildError as e:
        print(f"unionbench: build failed: {e}", file=sys.stderr)
        return 2

    tmp = os.path.join(build.build_dir(ROOT), "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Class-data sharing: the first run in a build dumps the loaded classes,
    # later runs map them, which shortens JVM and Spark start-up.
    cds = os.path.join(build.build_dir(ROOT), "classes.jsa")
    cds_flag = (f"-XX:SharedArchiveFile={cds}" if os.path.exists(cds)
                else f"-XX:ArchiveClassesAtExit={cds}")
    cmd = ["java", f"-Xmx{HEAP}", cds_flag, "-Xlog:cds=off", "-Xlog:cds+dynamic=off",
           f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
           f"-Dspark.local.dir={tmp}", f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.sql.warehouse.dir={os.path.join(tmp, 'warehouse')}",
           f"-Dunionbench.commit={git_commit()}", f"-Dunionbench.sources={source_hash}",
           "-cp", ":".join([jar] + build.spark_jars()),
           "unionbench.Main", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    sys.stdout.flush()
    env = dict(os.environ)
    env.pop("SPARK_LOCAL_DIRS", None)  # keep Spark's scratch files in the build dir
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except (subprocess.TimeoutExpired, KeyboardInterrupt):
        proc.kill()
        proc.wait()
        print("unionbench: run stopped before it finished", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
