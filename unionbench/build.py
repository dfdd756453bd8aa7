"""Build file of the union-sampling benchmark.

Compiles the program (``src/main/scala`` and ``jobs``) together with the
benchmark's own sources (``unionbench/src``) with the Scala compiler that
ships in the Spark distribution, into ``<build dir>/unionbench/unionbench.jar``.
The build is skipped when a hash of every source file matches the stamp of
the last build. The build dir is ``$CARGO_TARGET_DIR`` if set, else
``.bench_build``, relative to the repository root.
"""
import glob
import hashlib
import os
import shutil
import subprocess

PROGRAM_SRC = ["src/main/scala", "jobs"]
BENCH_SRC = "unionbench/src"


class BuildError(Exception):
    pass


def spark_jars():
    """The jars of the Spark distribution at $SPARK_HOME."""
    home = os.environ.get("SPARK_HOME")
    jars = sorted(glob.glob(os.path.join(home, "jars", "*.jar"))) if home else []
    if not jars:
        raise BuildError("no Spark jars under $SPARK_HOME/jars; set SPARK_HOME")
    return jars


def duckdb_jar():
    """The program's one non-Spark compile dependency, from the coursier cache."""
    cache = os.environ.get("COURSIER_CACHE", os.path.expanduser("~/.cache/coursier"))
    found = sorted(glob.glob(os.path.join(cache, "**", "org", "duckdb", "duckdb_jdbc",
                                          "*", "duckdb_jdbc-*.jar"), recursive=True))
    if not found:
        raise BuildError(f"duckdb_jdbc jar not found under {cache}")
    return found[-1]


def sources(root):
    files = []
    for d in PROGRAM_SRC + [BENCH_SRC]:
        path = os.path.join(root, d)
        if not os.path.isdir(path):
            raise BuildError(f"missing source directory {d}: run from the repository root")
        files += glob.glob(os.path.join(path, "**", "*.scala"), recursive=True)
    return sorted(files)


def build_dir(root):
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "unionbench")


def jar_path(root):
    return os.path.join(build_dir(root), "unionbench.jar")


def ensure_built(root):
    """Compile if the sources changed since the last build; return the jar."""
    files = sources(root)
    digest = hashlib.sha256()
    for f in files + [os.path.abspath(__file__)]:
        digest.update(os.path.relpath(f, root).encode())
        with open(f, "rb") as fh:
            digest.update(fh.read())
    stamp_value = digest.hexdigest()
    out = build_dir(root)
    classes = os.path.join(out, "classes")
    stamp = os.path.join(out, "stamp")
    if (os.path.exists(stamp) and open(stamp).read() == stamp_value
            and os.path.exists(jar_path(root))):
        return jar_path(root), stamp_value

    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(classes)
    jars = spark_jars()
    compiler = [j for j in jars if os.path.basename(j).startswith(
        ("scala-compiler-", "scala-library-", "scala-reflect-"))]
    argfile = os.path.join(out, "sources.txt")
    with open(argfile, "w") as fh:
        fh.write("\n".join(files) + "\n")
    cmd = ["java", "-Xmx2g", "-Xss8m", "-cp", ":".join(compiler), "scala.tools.nsc.Main",
           "-nowarn", "-d", classes, "-classpath", ":".join(jars + [duckdb_jar()]),
           "@" + argfile]
    if subprocess.run(cmd, cwd=root).returncode != 0:
        raise BuildError("scalac failed")
    # A jar, not a directory: class-data sharing only archives jars.
    shutil.make_archive(os.path.join(out, "unionbench"), "zip", classes)
    os.replace(os.path.join(out, "unionbench.zip"), jar_path(root))
    with open(stamp, "w") as fh:
        fh.write(stamp_value)
    return jar_path(root), stamp_value
