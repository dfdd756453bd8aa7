package unionbench

import repro.core.union.{OnlineUnionSampler, UnionSample}

/** Counters read from the samplers' stats objects, summed over rounds
  * (their millisecond timers are not read: they truncate every event).
  */
final class Counts {
  var draws, accepted, dupRejected, revisions, revisionRemoved = 0L
  var walkAttempts, walkFailures = 0L
  var poolHits, poolRejected, backtracks, backtrackRemoved = 0L

  def add(s: UnionSample): Unit = {
    val st = s.stats
    draws += st.joinDraws; accepted += st.accepted; dupRejected += st.rejectedDup
    revisions += st.revisions; revisionRemoved += st.revisionRemoved
    walkAttempts += st.walkAttempts; walkFailures += st.walkFailures
    st match {
      case o: OnlineUnionSampler#OnlineStats =>
        poolHits += o.poolHits; poolRejected += o.poolRejected
        backtracks += o.backtracks; backtrackRemoved += o.backtrackRemoved
      case _ =>
    }
  }
}

/** The traced run's per-layer metrics (definitions in README.md).
  *
  * Spark jobs count for every layer on their call site's stack, so a walk
  * started by an EO refill counts for both `walk` and `eo`. `*.busy_s` is
  * the sampled driver time with the layer on the stack, `*.self_s` with it
  * innermost. Only the measured phases count: set-up, warm-up and rounds.
  */
object PerLayer {
  private def sampling(phase: String) = phase.startsWith("round")
  private def measured(phase: String) = phase == "setup" || phase == "warmup" || sampling(phase)

  def apply(spec: Spec, tr: Tracer, prep: Prepared, samples: Seq[UnionSample], truth: Truth,
            overhead: Double): Seq[(String, Double, String)] = {
    val all = tr.listener.resolve()
    val jobs = all.filter(j => measured(j.phase))
    def of(layer: String) = jobs.filter(_.layers.contains(layer))
    def innermost(layer: String) = jobs.filter(_.layers.headOption.contains(layer))
    def calls(js: Seq[JobRec]) = js.flatMap(_.execId).distinct.size.toDouble
    def mb(js: Seq[JobRec]) = js.map(_.shuffleBytes).sum / 1048576.0
    def ratio(a: Double, b: Double) = if (b == 0) 0.0 else a / b

    val c = new Counts
    samples.foreach(c.add)
    // EW reports each draw as a "walk attempt"; only EO and Online walk.
    val (eoAttempts, eoFailures) = if (prep.usesWalks) (c.walkAttempts, c.walkFailures) else (0L, 0L)
    val rw = prep.warmupWalks
    val warmWalks = rw.map(_.batches.map(_.requested.toLong).sum).getOrElse(0L)
    val warmOk = rw.map(_.batches.map(_.samples.size.toLong).sum).getOrElse(0L)
    val walks = warmWalks + eoAttempts
    val onlineSampler = spec.method.endsWith("Online")

    // Quality, outside every span: exact α by enumeration, realized mix.
    val cover = truth.exactCoverSizes()
    val exactAlpha = cover.map(_.toDouble / cover.sum)
    val alpha = prep.params.alphas
    def tv(p: Seq[Double], q: Seq[Double]) = p.zip(q).map { case (x, y) => math.abs(x - y) }.sum / 2
    val tagged = samples.flatMap(_.tuples.map(_._2))
    val mix = alpha.indices.map(j => ratio(tagged.count(_ == j), tagged.size))

    val sampled = samples.map(_.tuples.size).sum.toDouble
    val phases = tr.phases.filter(p => measured(p._1))
    val jobIntervals = jobs.filter(_.endMs >= 0).map(j => (j.startMs, j.endMs))
    val driverSelf = phases.map { case (_, s, e) =>
      (e - s) - Intervals.covered(jobIntervals.map { case (a, b) => (math.max(a, s), math.min(b, e)) })
    }.sum / 1000.0

    Seq(
      ("workloads.busy_s", tr.inclusiveS("workloads"), "s"),
      ("workloads.spark_jobs", of("workloads").size.toDouble, "count"),
      ("rel.index_s", tr.inclusiveS("rel"), "s"),
      ("rel.index_jobs", of("rel").size.toDouble, "count"),
      ("stats.busy_s", tr.inclusiveS("stats"), "s"),
      ("stats.spark_jobs", of("stats").size.toDouble, "count"),
      ("histogram.busy_s", tr.inclusiveS("histogram"), "s"),
      ("histogram.spark_jobs", of("histogram").size.toDouble, "count"),
      ("histogram.shuffle_mb", mb(of("histogram")), "MB"),
      ("walk.busy_s", tr.inclusiveS("walk"), "s"),
      ("walk.spark_jobs", of("walk").size.toDouble, "count"),
      ("walk.calls", calls(innermost("walk")), "count"),
      ("walk.walks", walks.toDouble, "count"),
      ("walk.success_ratio", ratio(warmOk + eoAttempts - eoFailures, walks), "ratio"),
      ("membership.busy_s", tr.inclusiveS("membership"), "s"),
      ("membership.spark_jobs", of("membership").size.toDouble, "count"),
      ("membership.calls", calls(innermost("membership")), "count"),
      ("ew.dp_s", (tr.spanNs("ew.construct") + tr.spanNs("ew.prepare")) / 1e9, "s"),
      ("ew.pick_s", tr.spanNs("ew.sample") / 1e9, "s"),
      ("ew.spark_jobs", of("ew").size.toDouble, "count"),
      ("ew.refills", tr.spanCalls("ew.sample").toDouble, "count"),
      ("eo.busy_s", tr.inclusiveS("eo"), "s"),
      ("eo.spark_jobs", of("eo").size.toDouble, "count"),
      ("eo.refills", calls(innermost("walk").filter(_.layers.contains("eo"))), "count"),
      ("eo.walks_per_draw", if (prep.usesWalks) ratio(c.walkAttempts, c.draws) else 0.0, "ratio"),
      ("eo.accept_ratio", if (prep.usesWalks) ratio(c.draws, eoAttempts - eoFailures) else 0.0, "ratio"),
      ("union.self_s", tr.exclusiveS("union"), "s"),
      ("union.draws", c.draws.toDouble, "count"),
      ("union.accept_ratio", ratio(c.accepted, c.accepted + c.dupRejected), "ratio"),
      ("union.dup_rejected", c.dupRejected.toDouble, "count"),
      ("union.revisions", c.revisions.toDouble, "count"),
      ("union.revision_removed", c.revisionRemoved.toDouble, "count"),
      ("union.mix_tv", tv(mix, alpha), "tv"),
      ("online.self_s", tr.exclusiveS("online") + tr.exclusiveS("online.reestimate"), "s"),
      ("online.pool_hits", c.poolHits.toDouble, "count"),
      ("online.pool_hit_ratio", ratio(c.poolHits, c.poolHits + c.poolRejected), "ratio"),
      ("online.walks", if (onlineSampler) c.walkAttempts.toDouble else 0.0, "count"),
      ("online.backtracks", c.backtracks.toDouble, "count"),
      ("online.backtrack_removed", c.backtrackRemoved.toDouble, "count"),
      ("online.reestimate_s", tr.inclusiveS("online.reestimate"), "s"),
      ("warmup.self_s", tr.exclusiveS("warmup"), "s"),
      ("warmup.alpha_tv", tv(alpha, exactAlpha), "tv"),
      ("spark.jobs", jobs.size.toDouble, "count"),
      ("spark.jobs_per_sample", ratio(jobs.count(j => sampling(j.phase)), sampled), "ratio"),
      ("spark.stages", jobs.map(_.stages).sum.toDouble, "count"),
      ("spark.tasks", jobs.map(_.tasks).sum.toDouble, "count"),
      ("spark.job_s", jobs.filter(_.endMs >= 0).map(j => j.endMs - j.startMs).sum / 1000.0, "s"),
      ("spark.shuffle_mb", mb(jobs), "MB"),
      ("spark.unattributed_jobs", jobs.count(_.layers.isEmpty).toDouble, "count"),
      ("driver.self_s", driverSelf, "s"),
      ("trace.overhead", overhead, "ratio"))
  }
}

/** Human-readable job attribution of a traced run, both ways: by the
  * innermost open span, and by the innermost layer of the call site.
  */
object Attribution {
  def lines(tr: Tracer): Seq[String] = {
    val jobs = tr.listener.resolve().filter(j => j.phase != Tracer.Marker)
    def summary(js: Seq[JobRec]) =
      f"jobs=${js.size} job_s=${js.filter(_.endMs >= 0).map(j => j.endMs - j.startMs).sum / 1000.0}%.3f " +
        f"stages=${js.map(_.stages).sum} tasks=${js.map(_.tasks).sum} " +
        f"shuffle_mb=${js.map(_.shuffleBytes).sum / 1048576.0}%.3f"
    val bySpan = tr.spanNs.keys.toSeq.sorted.map { s =>
      f"span $s%-28s calls=${tr.spanCalls(s)} wall_s=${tr.spanNs(s) / 1e9}%.3f " +
        summary(jobs.filter(_.span == s))
    }
    val bySite = jobs.groupBy(j => s"${j.phase}/${j.layers.headOption.getOrElse("none")}").toSeq.sortBy(_._1)
      .map { case (k, js) => f"site $k%-28s ${summary(js)}" }
    bySpan ++ bySite
  }
}

object Intervals {
  /** Total length covered by the union of half-open intervals. */
  def covered(xs: Seq[(Long, Long)]): Long = {
    var total = 0L
    var end = Long.MinValue
    xs.filter { case (a, b) => b > a }.sortBy(_._1).foreach { case (a, b) =>
      if (a >= end) { total += b - a; end = b }
      else if (b > end) { total += b - end; end = b }
    }
    total
  }
}
