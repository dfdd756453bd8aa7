package unionbench

import org.apache.spark.sql.SparkSession
import repro.core.UnionParams
import repro.core.join.{ExactWeightSampler, JoinTupleSampler, OlkenSampler}
import repro.core.union._
import repro.core.walk.JTuple
import repro.workloads.{UnionWorkload, UnionWorkloads}

/** A benchmark workload: one method on one dataset (see README.md for why
  * each was chosen). `n` samples are drawn per round; `walks` is the
  * RANDOM-WALK warm-up's walks per join.
  */
final case class Spec(name: String, sf: Double, overlap: Option[Double], n: Int, walks: Int,
                      method: String) {

  /** Build the workload; the benchmark seed goes straight to the generator. */
  def build(spark: SparkSession, seed: Long): UnionWorkload = name match {
    case "uq1-hist-ew" => UnionWorkloads.uq1(spark, sf, overlap.get, nJoins = 3, seed = seed)
    case "uq2-rw-eo" => UnionWorkloads.uq2(spark, sf, seed = seed)
    case "uq3-online" => UnionWorkloads.uq3(spark, sf, overlap.get, seed = seed)
  }
}

object Spec {
  val all: Seq[Spec] = Seq(
    Spec("uq1-hist-ew", 0.04, Some(0.3), 1000, 0, "HIST+EW"),
    Spec("uq2-rw-eo", 0.04, None, 1000, 600, "RW+EO"),
    Spec("uq3-online", 0.04, Some(0.3), 3000, 600, "HIST+RW+Online"))

  def byName(name: String): Spec = all.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(s"unknown workload $name; one of ${all.map(_.name).mkString(", ")}"))
}

/** Every sampler seed derives from the benchmark seed. */
final class Seeds(seed: Long) {
  val warmup: Long = seed * 1000003L + 1
  def round(k: Int): Long = seed * 1000003L + 100 + k
}

/** What the warm-up leaves behind: the parameters the sampler starts from
  * and a way to run round k (round 0 uses the sampler built in warm-up,
  * later rounds a fresh sampler with a fresh seed over the same warm-up).
  */
final class Prepared(val params: UnionParams, val warmupWalks: Option[RandomWalkWarmup],
                     val usesWalks: Boolean, val run: Int => UnionSample)

/** Delegates to a single-join sampler, timing each call as a span. */
final class TracedSampler(inner: JoinTupleSampler, tr: Tracer, label: String) extends JoinTupleSampler {
  def join = inner.join
  def sample(n: Int, seed: Long): (IndexedSeq[JTuple], repro.core.join.DrawStats) =
    tr.span(s"$label.sample")(inner.sample(n, seed))
  def prepare(): Unit = tr.span(s"$label.prepare")(inner.prepare())
}

object WarmUpPhase {

  /** Parameter estimation plus sampler construction and `prepare()`. */
  def run(spec: Spec, w: UnionWorkload, seeds: Seeds, tr: Tracer): Prepared = spec.name match {
    case "uq1-hist-ew" =>
      val params = tr.span("WarmUp.histogram")(WarmUp.histogram(w.joins))
      val samplers = w.joins.map(j => tr.span("ew.construct")(new ExactWeightSampler(j)))
      algorithm1(spec, w, params, None, samplers, "ew", seeds, tr)
    case "uq2-rw-eo" =>
      val rw = tr.span("WarmUp.randomWalk")(WarmUp.randomWalk(w.joins, spec.walks, seeds.warmup))
      val samplers = w.joins.map(j => tr.span("eo.construct")(new OlkenSampler(j)))
      algorithm1(spec, w, rw.params, Some(rw), samplers, "eo", seeds, tr)
    case "uq3-online" =>
      val params = tr.span("WarmUp.histogram")(WarmUp.histogram(w.joins))
      val rw = tr.span("WarmUp.randomWalk")(WarmUp.randomWalk(w.joins, spec.walks, seeds.warmup))
      def sampler(k: Int) = tr.span("OnlineUnionSampler.new")(
        new OnlineUnionSampler(w.joins, params, Some(rw), seeds.round(k), phi = 256, reuse = true))
      val first = sampler(0)
      new Prepared(params, Some(rw), usesWalks = true, k =>
        tr.span("OnlineUnionSampler.sample")((if (k == 0) first else sampler(k)).sample(spec.n)))
  }

  private def algorithm1(spec: Spec, w: UnionWorkload, params: UnionParams,
                         rw: Option[RandomWalkWarmup], samplers: Seq[JoinTupleSampler],
                         label: String, seeds: Seeds, tr: Tracer): Prepared = {
    val wrapped = samplers.map(s => if (tr.enabled) new TracedSampler(s, tr, label) else s).toIndexedSeq
    def sampler(k: Int) = new UnionSampler(w.joins, params, wrapped, seeds.round(k))
    val first = sampler(0)
    tr.span("UnionSampler.prepare")(first.prepare())
    new Prepared(params, rw, usesWalks = label == "eo", k =>
      tr.span("UnionSampler.sample")((if (k == 0) first else sampler(k)).sample(spec.n)))
  }
}
