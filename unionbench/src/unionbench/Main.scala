package unionbench

import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}

import org.apache.spark.sql.SparkSession
import repro.core.union.UnionSample
import repro.workloads.UnionWorkload

/** One benchmark run of one workload at one seed, in one JVM:
  *
  *  1. set-up: build the workload and force every relation's cache and
  *     count, `SetupReps` times from a cleared cache (traced runs: once);
  *  2. warm-up: parameter estimation plus sampler construction and prepare;
  *  3. rounds of N samples until `--seconds` of sampling have passed, at
  *     least one; each round after the first uses a fresh sampler seed
  *     over the same warm-up (traced runs: exactly two rounds);
  *  4. untimed: every returned tuple is checked against the base relations.
  *
  * Prints the end-to-end metrics (`--trace 0`) or the per-layer metrics
  * (`--trace 1`), and last one JSON line with both the result and them.
  */
object Main {
  val SetupReps = 3

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean)

  def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, m.getOrElse("trace", "0") == "1")
  }

  def main(argv: Array[String]): Unit = {
    val code = Try {
      val a = parse(argv)
      val spec = Spec.byName(a.workload)
      // Call sites deep enough to reach the sampler layers; trace runs only.
      if (a.trace) System.setProperty("spark.callstack.depth", "64")
      val spark = repro.jobs.JobUtil.session(s"unionbench-${spec.name}")
      try println(run(spark, spec, a)) finally spark.stop()
    } match {
      case Success(_) => 0
      case Failure(e) => e.printStackTrace(); 1
    }
    System.out.flush()
    sys.exit(code)
  }

  private def timeS[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def run(spark: SparkSession, spec: Spec, a: Args): String = {
    val tr = new Tracer(spark.sparkContext, a.trace)
    val seeds = new Seeds(a.seed)
    println("env " + Json.obj(environment(spark, spec, a)))

    var w: UnionWorkload = null
    val setupS = (1 to (if (a.trace) 1 else SetupReps)).map { _ =>
      spark.catalog.clearCache()
      timeS(tr.phase("setup") {
        w = tr.span("UnionWorkloads.build")(spec.build(spark, a.seed))
        tr.span("Rel.df+count")(w.joins.flatMap(_.relations).foreach { r => r.df; r.count })
      })._2
    }
    val (prep, warmupS) = timeS(tr.phase("warmup")(WarmUpPhase.run(spec, w, seeds, tr)))
    val heapMb = heapAfterGc()

    // Sampling: rounds until `--seconds` of sampling have passed, at least
    // one; traced runs make exactly two so that their counts repeat.
    val rounds = mutable.ArrayBuffer.empty[(Try[UnionSample], Double)]
    def round(k: Int): Unit = rounds += timeS(tr.phase(s"round$k")(Try(prep.run(k))))
    round(0)
    if (a.trace) round(1)
    else while (rounds.map(_._2).sum < a.seconds) round(rounds.size)
    val firstS = rounds.head._2
    val sampleS = median(rounds.map(_._2).toSeq)
    val queryS = warmupS + firstS
    tr.stop()

    // Tracing overhead: repeat round 1 with the listener and sampler gone.
    val overhead = if (a.trace) rounds(1)._2 / timeS(prep.run(1))._2 else 1.0

    // Output check, outside every timed phase.
    val truth = new Truth(w)
    val ok = rounds.map { case (s, _) =>
      s.toOption.exists(u => u.tuples.size == spec.n && truth.invalid(u.tuples) == 0)
    }
    val selfCheck = rounds.collectFirst { case (Success(u), _) if u.tuples.nonEmpty => u.tuples.head }
      .exists { case (t, j) => truth.inJoin(j, t.values) && truth.flagsAlteredValues(t, j) }
    val failed = ok.count(!_)
    val failedFrac = failed.toDouble / rounds.size

    val endToEnd = Seq(
      ("setup_s", median(setupS), "s"),
      ("warmup_s", warmupS, "s"),
      ("first_sample_s", firstS, "s"),
      ("sample_s", sampleS, "s"),
      ("query_s", queryS, "s"),
      ("heap_mb", heapMb, "MB"))
    val metrics =
      if (!a.trace) endToEnd
      else PerLayer(spec, tr, prep, rounds.flatMap(_._1.toOption).toSeq, truth, overhead)
    (if (a.trace) metrics else endToEnd :+ (("failed_frac", failedFrac, "fraction"))).foreach {
      case (k, v, u) => println(f"metric $k%-26s $v%14.6f $u")
    }
    if (a.trace) Attribution.lines(tr).foreach(println)
    println(s"check rounds=${rounds.size} failed=$failed self_check=$selfCheck " +
      s"setup_reps_s=${setupS.map(x => f"$x%.3f").mkString(",")} " +
      s"rounds_s=${rounds.map(r => f"${r._2}%.3f").mkString(",")}")
    Json.result(correct = failed == 0 && selfCheck, attempted = rounds.size, failed = failed, metrics)
  }

  private def heapAfterGc(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  private def environment(spark: SparkSession, spec: Spec, a: Args): Seq[(String, Any)] = {
    val xmx = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
      .find(_.startsWith("-Xmx")).map(_.drop(4)).getOrElse(s"${Runtime.getRuntime.maxMemory >> 20}m")
    Seq(
      "workload" -> spec.name, "method" -> spec.method, "seed" -> a.seed, "sf" -> spec.sf,
      "overlap" -> spec.overlap.getOrElse(-1.0), "n" -> spec.n, "walks_per_join" -> spec.walks,
      "seconds" -> a.seconds, "trace" -> a.trace, "setup_reps" -> (if (a.trace) 1 else SetupReps),
      "commit" -> sys.props.getOrElse("unionbench.commit", "none"),
      "sources_sha256" -> sys.props.getOrElse("unionbench.sources", "none"),
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "spark_master" -> spark.sparkContext.master,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "aqe" -> spark.conf.get("spark.sql.adaptive.enabled"),
      "spark" -> spark.version, "java" -> sys.props("java.version"),
      "scala" -> scala.util.Properties.versionNumberString, "xmx" -> xmx)
  }
}

/** Minimal JSON output. */
object Json {
  def value(v: Any): String = v match {
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, s"metric value $d")
      d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case b: Boolean => b.toString
    case s => "\"" + s.toString.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"; case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
    } + "\""
  }

  def obj(kv: Seq[(String, Any)]): String = kv.map { case (k, v) => value(k) + ": " + value(v) }
    .mkString("{", ", ", "}")

  def result(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (k, v, u) => value(k) + ": " + obj(Seq("value" -> v, "unit" -> u)) }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": ${ms.mkString("{", ", ", "}")}}"""
  }
}
