package repro.core.union

import scala.collection.mutable

import repro.core._
import repro.core.join._
import repro.core.walk.JTuple

/** Counters and timers of one union-sampling run, feeding the paper's
  * runtime-breakdown experiment (Fig. 5f–h): how much work went into
  * parameters, accepted answers and rejected answers. Timers are in ns.
  */
class UnionStats {
  var drawNs: Long = 0            // time inside single-join samplers
  var bookNs: Long = 0            // accept/reject/revision bookkeeping
  var joinDraws: Int = 0          // ψ — tuples obtained from join subroutines
  var accepted: Int = 0
  var rejectedDup: Int = 0        // duplicates owned by an earlier join (line 8)
  var revisions: Int = 0          // line 10-12 revisions
  var revisionRemoved: Int = 0    // tuples dropped from T by revisions
  var redrawCapHits: Int = 0      // iterations that gave up after 10,000 redraws
  var walkAttempts: Int = 0
  var walkFailures: Int = 0
  var eoRejected: Int = 0         // walk tuples rejected by the Olken test

  def drawMs: Long = drawNs / 1000000
  def bookMs: Long = bookNs / 1000000

  /** Sampling-phase time attributed to rejected work, proportionally to
    * the rejected share of draw attempts.
    */
  def rejectedMs: Long = {
    val att = math.max(1, walkAttempts + rejectedDup)
    val rej = walkFailures + eoRejected + rejectedDup
    (drawMs + bookMs) * rej / att
  }
  def acceptedMs: Long = drawMs + bookMs - rejectedMs
}

/** The sample: tuples with the join that produced them, plus run stats. */
final case class UnionSample(tuples: IndexedSeq[(JTuple, Int)], stats: UnionStats)

/** Per-join buffer of pre-drawn i.i.d. tuples: popping sequentially is
  * distributionally identical to drawing one-at-a-time, so the union
  * sampler can consume single draws while Spark works in batches.
  * `onRefill` sees each refill's draw statistics, rejected tuples included
  * (Algorithm 2 records and reuses them).
  */
final class DrawBuffer(sampler: JoinTupleSampler, stats: UnionStats, seed: Long,
                       onRefill: DrawStats => Unit = _ => ()) {
  private val buf = mutable.Queue.empty[JTuple]
  private var round = 0

  def pop(chunk: Int): JTuple = {
    if (buf.isEmpty) {
      val t0 = System.nanoTime()
      val (ts, ds) = sampler.sample(chunk, seed + 7907L * round)
      stats.drawNs += System.nanoTime() - t0
      stats.joinDraws += ts.size
      stats.walkAttempts += ds.walkAttempts
      stats.walkFailures += ds.walkFailures
      stats.eoRejected += ds.rejected
      onRefill(ds)
      buf ++= ts
      round += 1
    }
    buf.dequeue()
  }
}

/** Picks join j with probability `weights(j)` by inverse CDF of a uniform
  * `u` in [0, 1).
  */
final class JoinSelector(val weights: IndexedSeq[Double]) {
  private val cum = weights.scanLeft(0.0)(_ + _).tail

  def pick(u: Double): Int = cum.indexWhere(u < _) match { case -1 => weights.size - 1; case i => i }
}

/** Algorithm 1's cover bookkeeping: the target sample T and `orig_join`,
  * the join that owns each value. A value first seen from join j is owned
  * by j; re-drawing it from a *later* join rejects the draw (line 8);
  * re-drawing it from an *earlier* join triggers a revision — ownership
  * moves to the earlier join and all copies accepted under the later owner
  * are removed from T (lines 10–12).
  */
final class CoverBook(stats: UnionStats) {
  private val target = mutable.ArrayBuffer.empty[(JTuple, Int)]
  private val origJoin = mutable.HashMap.empty[String, Int]

  def size: Int = target.size

  /** Book draw `t` of join `j`; true iff it was accepted into T. */
  def offer(t: JTuple, j: Int): Boolean = {
    val owner = origJoin.getOrElseUpdate(t.key, j)
    if (owner < j) stats.rejectedDup += 1
    else {
      if (owner > j) {
        stats.revisions += 1
        stats.revisionRemoved += retain(_._1.key != t.key)
        origJoin(t.key) = j
      }
      target += ((t, j))
      stats.accepted += 1
    }
    owner >= j
  }

  /** Drop the entries of T that fail `keep`, keeping their owners; returns how many went. */
  def retain(keep: ((JTuple, Int)) => Boolean): Int = {
    val before = target.size
    target.filterInPlace(keep)
    before - target.size
  }

  def take(count: Int): IndexedSeq[(JTuple, Int)] = target.take(count).toIndexedSeq
}

/** Algorithm 1's main loop, shared by both union samplers. Each iteration
  * selects join j with probability α_j = |J'_j|/|U| and draws i.i.d. tuples
  * from J_j *until the cover book accepts one*, which makes the accepted
  * tuple uniform over the not-yet-owned part of J_j — the sampled
  * realization of the cover J'_j. After 10,000 redraws the iteration gives
  * up (an estimated-positive cover can be truly empty) and the next one
  * reselects a join. Algorithm 2 adds a pool step before the redraws and a
  * backtracking step after each iteration.
  */
private[union] abstract class UnionLoop(count: Int, rng: java.util.Random, stats: UnionStats,
                                        alphas: IndexedSeq[Double]) {
  private final val MaxRedraws = 10000
  protected val book = new CoverBook(stats)
  protected var selector = new JoinSelector(alphas)

  /** Refill size for `want` expected draws: big enough to amortize a
    * Spark job, small enough not to overdraw.
    */
  protected def chunk(want: Int, floor: Int = 32): Int = math.max(floor, math.min(512, want))

  /** The next i.i.d. draw of join `j`, expected to be drawn `want` more times. */
  protected def draw(j: Int, want: Int): JTuple

  /** Serve the iteration without a draw; true iff a tuple was accepted. */
  protected def fromPool(j: Int): Boolean = false

  protected def endIteration(): Unit = ()

  final def run(): UnionSample = {
    while (book.size < count) {
      val j = selector.pick(rng.nextDouble())
      var accepted = fromPool(j)
      var redraws = 0
      while (!accepted && redraws < MaxRedraws) {
        redraws += 1
        val t = draw(j, math.ceil((count - book.size + 1) * selector.weights(j) * 1.5).toInt)
        val t0 = System.nanoTime()
        accepted = book.offer(t, j)
        stats.bookNs += System.nanoTime() - t0
      }
      if (!accepted) stats.redrawCapHits += 1
      endIteration()
    }
    UnionSample(book.take(count), stats)
  }
}

/** Algorithm 1 — set-union sampling with non-Bernoulli join selection:
  * [[UnionLoop]] over one [[DrawBuffer]] per join.
  */
final class UnionSampler(joins: Seq[JoinSpec], params: UnionParams,
                         samplers: IndexedSeq[JoinTupleSampler], seed: Long) {
  require(joins.size == params.n && samplers.size == params.n)

  /** Precompute per-join weights/bounds (warm-up-phase work). */
  def prepare(): Unit = samplers.foreach(_.prepare())

  def sample(count: Int): UnionSample = {
    val stats = new UnionStats
    val buffers = samplers.map(new DrawBuffer(_, stats, seed))
    new UnionLoop(count, new java.util.Random(seed), stats, params.alphas) {
      protected def draw(j: Int, want: Int): JTuple = buffers(j).pop(chunk(want))
    }.run()
  }
}

object UnionSampler {

  /** Build the sampler with a choice of single-join subroutine. */
  def apply(joins: Seq[JoinSpec], params: UnionParams, kind: String, seed: Long): UnionSampler = {
    val samplers: IndexedSeq[JoinTupleSampler] = kind match {
      case "EW" => joins.map(new ExactWeightSampler(_)).toIndexedSeq
      case "EO" => joins.map(new OlkenSampler(_)).toIndexedSeq
      case other => throw new IllegalArgumentException(s"unknown join sampler kind: $other")
    }
    new UnionSampler(joins, params, samplers, seed)
  }
}
