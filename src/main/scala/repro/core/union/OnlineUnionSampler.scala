package repro.core.union

import scala.collection.mutable

import repro.core._
import repro.core.join.OlkenSampler
import repro.core.walk._

/** Algorithm 2 — online set-union sampling with sample *reuse* and
  * *backtracking* (§7).
  *
  * Parameters start from a cheap instantiation (HISTOGRAM-BASED by default;
  * callers may seed them from a RANDOM-WALK warm-up, in which case the
  * warm-up's walk tuples seed the reuse pools). The main loop is
  * Algorithm 1's [[UnionLoop]] over EO draws, plus:
  *
  *  - **Reuse** (lines 7–10): if join j's pool of previously walked tuples
  *    is non-empty, pop a random pooled tuple t and accept it with ratio
  *    R = 1/(p(t)·|J_j|); R may exceed 1, in which case ⌊R⌋ + Bern(R−⌊R⌋)
  *    instances are emitted (the paper's r_i system, realized in
  *    expectation). A pool rejection falls through to a real walk-based
  *    draw (Alg. 2 line 9) — whose Olken-rejected tuples refill the pool.
  *  - **Backtracking** (line 18): every φ recorded walk probabilities, the
  *    parameters are re-estimated with the RANDOM-WALK method from all
  *    walks so far, and every tuple already in T is re-accepted with
  *    probability min(1, α'_j/α_j) so the sample follows the refreshed
  *    |J'_j|/|U|. Updates stop once the size estimates reach the target
  *    confidence level γ = 0.9.
  */
final class OnlineUnionSampler(joins: Seq[JoinSpec],
                               initParams: UnionParams,
                               warmup: Option[RandomWalkWarmup],
                               seed: Long,
                               phi: Int = 256,
                               reuse: Boolean = true) {
  private final val MaxCopies = 16 // most copies one pooled tuple may emit
  private final val Gamma = 0.9    // confidence level at which backtracking stops
  private val n = joins.size
  private val rng = new java.util.Random(seed)
  private val samplers = joins.map(new OlkenSampler(_)).toIndexedSeq

  private def warmSamples(j: Int) = warmup.fold(IndexedSeq.empty[JTuple])(_.batches(j).samples)

  /** Reuse pools: walk tuples with known p(t), drawn without replacement. */
  private val pools: IndexedSeq[mutable.ArrayBuffer[JTuple]] =
    IndexedSeq.tabulate(n)(j => mutable.ArrayBuffer.from(if (reuse) warmSamples(j) else Nil))

  /** Online walk statistics per join (seeded from the warm-up if given). */
  private val walkStats: IndexedSeq[WalkStats] =
    IndexedSeq.tabulate(n)(j => warmup.fold(new WalkStats)(w => WalkStats.of(w.batches(j))))

  /** All successful walk tuples per join — the RW overlap estimator input. */
  private val walked: IndexedSeq[mutable.ArrayBuffer[JTuple]] =
    IndexedSeq.tabulate(n)(j => mutable.ArrayBuffer.from(warmSamples(j)))

  final class OnlineStats extends UnionStats {
    var poolHits: Int = 0         // tuples served from the reuse pool
    var poolRejected: Int = 0
    var copyCapHits: Int = 0      // pool draws whose R asked for more than MaxCopies copies
    var backtracks: Int = 0
    var backtrackRemoved: Int = 0
    var poolNs: Long = 0          // time spent serving from the pool
  }

  private def record(j: Int, t: JTuple): Unit = { walkStats(j).add(1.0 / t.p); walked(j) += t }

  def sample(count: Int): UnionSample = {
    var params = initParams
    val stats = new OnlineStats
    var recordedP = 0
    var confident = false
    // Each refill's walks enter the estimator; its rejected tuples also
    // refill the pool.
    val buffers = samplers.indices.map { j =>
      new DrawBuffer(samplers(j), stats, seed + 1, ds => {
        ds.rejectedTuples.foreach(record(j, _))
        (0 until ds.walkFailures).foreach(_ => walkStats(j).add(0.0))
        recordedP += ds.walkAttempts
        if (reuse) pools(j) ++= ds.rejectedTuples
      })
    }

    new UnionLoop(count, rng, stats, params.alphas) {
      protected def draw(j: Int, want: Int): JTuple = {
        // Pools serve most draws; size walk refills by the observed pool
        // fall-through rate so refills stay few *and* amortized.
        val fallRate = (stats.poolRejected + 1.0) / (stats.poolHits + stats.poolRejected + 2.0)
        val t = buffers(j).pop(
          if (reuse && pools(j).nonEmpty) chunk(math.ceil(want * fallRate).toInt, floor = 8) else chunk(want))
        record(j, t)
        t
      }

      // R-rejection retries the pool: the pool is an i.i.d. collection, so
      // rejection sampling over it is exactly uniform over J_j and saves a
      // walk (Alg. 2 as written falls through on the first rejection; the
      // pool retry is equally uniform and avoids Spark round-trips — see
      // DESIGN.md). Cover-rejected pool tuples also redraw from the pool.
      // Only a drained pool falls through to real walks.
      override protected def fromPool(j: Int): Boolean = {
        var served = false
        while (!served && reuse && pools(j).nonEmpty) {
          val t0 = System.nanoTime()
          val t = pools(j).remove(rng.nextInt(pools(j).size))
          val r = 1.0 / (t.p * math.max(params.joinSizes(j), 1e-9))
          val copies = r.toInt + (if (rng.nextDouble() < r - r.toInt) 1 else 0)
          // the cap guards against degenerate size underestimates
          if (copies > MaxCopies) stats.copyCapHits += 1
          if (copies == 0) stats.poolRejected += 1
          else {
            stats.poolHits += 1
            var anyAccepted = false
            (0 until math.min(copies, MaxCopies)).foreach(_ => anyAccepted |= book.offer(t, j))
            served = anyAccepted
          }
          stats.poolNs += System.nanoTime() - t0
        }
        served
      }

      override protected def endIteration(): Unit = if (recordedP >= phi && !confident) {
        recordedP = 0
        val newParams = reestimate()
        stats.backtracks += 1
        stats.backtrackRemoved += book.retain { case (_, tj) =>
          val ratioOld = params.alphas(tj)
          val ratioNew = newParams.alphas(tj)
          val keep = if (ratioOld <= 0) 1.0 else math.min(1.0, ratioNew / ratioOld)
          rng.nextDouble() < keep
        }
        params = newParams
        selector = new JoinSelector(params.alphas)
        confident = confidence() >= Gamma
      }
    }.run()
  }

  /** Re-run the RANDOM-WALK parameter estimation over all walks so far. */
  private def reestimate(): UnionParams = {
    val batches = IndexedSeq.tabulate(n)(j => WalkBatch(walked(j).toIndexedSeq, walkStats(j).n))
    WarmUp.paramsFrom(joins, walkStats.map(_.mean), batches)
  }

  /** Confidence that the size estimates are settled: 1 − relative CI
    * half-width, worst join.
    */
  private def confidence(z: Double = 1.96): Double =
    (0 until n).map { j =>
      val s = walkStats(j)
      if (s.mean <= 0) 0.0 else math.max(0.0, 1.0 - s.ciHalfWidth(z) / s.mean)
    }.min
}
