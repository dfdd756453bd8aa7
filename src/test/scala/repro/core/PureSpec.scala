package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers
import repro.core.histogram.HistogramOverlap
import repro.core.union.{CoverBook, UnionStats}
import repro.core.walk.{JTuple, WalkBatch, WalkStats}

/** Spark-free properties: JTuple identity, WalkBatch estimators, cover
  * bookkeeping, UnionParams algebra, monotonize.
  */
class PureSpec extends AnyFunSuite with PropHelpers {

  test("JTuple key is injective on values and stable") {
    val a = JTuple(IndexedSeq(1L, "x", 2.0), 0.1)
    val b = JTuple(IndexedSeq(1L, "x", 2.0), 0.9) // p does not affect identity
    val c = JTuple(IndexedSeq(1L, "y", 2.0), 0.1)
    assert(a.key == b.key)
    assert(a.key != c.key)
  }

  test("JTuple key distinguishes adjacent-field ambiguity") {
    val a = JTuple(IndexedSeq("ab", "c"), 0.1)
    val b = JTuple(IndexedSeq("a", "bc"), 0.1)
    assert(a.key != b.key)
  }

  test("WalkBatch HT estimate: all failures → 0; no failures → mean of 1/p") {
    assert(WalkBatch(IndexedSeq.empty, 100).sizeEstimate == 0.0)
    val ts = IndexedSeq(JTuple(IndexedSeq(1L), 0.25), JTuple(IndexedSeq(2L), 0.5))
    assert(WalkBatch(ts, 2).sizeEstimate == 3.0) // (4 + 2)/2
    assert(WalkBatch(ts, 4).sizeEstimate == 1.5) // two failures dilute
  }

  test("WalkStats matches WalkBatch on the same data") {
    val ts = IndexedSeq(0.25, 0.5, 0.125).map(p => JTuple(IndexedSeq(1L), p))
    val wb = WalkBatch(ts, 5)
    val s = WalkStats.of(wb)
    assert(s.n == 5)
    assert(math.abs(s.mean - wb.sizeEstimate) < 1e-12)
  }

  test("EW size guard: rows × columns against a quarter of the heap") {
    import repro.core.join.ExactWeightSampler.{BytesPerValue, checkFits}
    val heap = 4 * BytesPerValue * 1000 // a budget of 1000 values
    checkFits("J", Seq(("r", 100L, 4), ("s", 300L, 2)), heap)
    val e = intercept[IllegalArgumentException](
      checkFits("J", Seq(("r", 100L, 4), ("s", 301L, 2)), heap))
    assert(e.getMessage.contains("s, has 301 rows"), e.getMessage)
    assert(e.getMessage.contains("Use EO"), e.getMessage)
  }

  test("CoverBook: accept, reject from a later join, revise from an earlier one") {
    val stats = new UnionStats
    val book = new CoverBook(stats)
    val a = JTuple(IndexedSeq(1L), 0.1)
    val b = JTuple(IndexedSeq(2L), 0.1)
    assert(book.offer(a, 1), "first sighting is accepted")
    assert(book.offer(b, 0))
    assert(!book.offer(b, 1), "a duplicate from a later join is rejected")
    assert(stats.rejectedDup == 1)
    assert(book.offer(a, 1), "a duplicate from the owning join is accepted")
    assert(book.size == 3)
    assert(book.offer(a, 0), "a duplicate from an earlier join revises")
    assert(stats.revisions == 1 && stats.revisionRemoved == 2)
    assert(book.take(10) == IndexedSeq((b, 0), (a, 0)))
    assert(!book.offer(a, 1), "after revision the earlier join owns the value")
    assert(stats.accepted == 4 && stats.rejectedDup == 2)
  }

  private val paramGen: Gen[UnionParams] = for {
    n <- Gen.choose(1, 4)
    sets <- Gen.listOfN(n, Gen.nonEmptyListOf(Gen.choose(0, 40)).map(_.toSet))
  } yield {
    val o = (d: Set[Int]) => d.map(sets).reduceLeft(_ intersect _).size.toDouble
    UnionParams(n, (1 to n).flatMap(k =>
      (0 until n).combinations(k).map(ix => ix.toSet -> o(ix.toSet))).toMap)
  }

  test("UnionParams: alphas are a probability distribution") {
    forAllN(paramGen) { p =>
      assert(math.abs(p.alphas.sum - 1.0) < 1e-9)
      assert(p.alphas.forall(a => a >= -1e-12 && a <= 1 + 1e-12))
    }
  }

  test("UnionParams: both union sizes agree on exact set systems") {
    forAllN(paramGen) { p =>
      assert(math.abs(p.unionSize - p.unionSizeByK) < 1e-9)
    }
  }

  test("UnionParams: ratios dominate alphas (|J_j| ≥ |J'_j|)") {
    forAllN(paramGen) { p =>
      p.ratios.zip(p.alphas).foreach { case (r, a) => assert(r >= a - 1e-12) }
    }
  }

  test("monotonize is idempotent") {
    forAllN(paramGen) { p =>
      val once = HistogramOverlap.monotonize(p.n, p.overlaps)
      val twice = HistogramOverlap.monotonize(p.n, once)
      assert(once == twice)
    }
  }

  test("monotonize never increases any overlap") {
    forAllN(paramGen) { p =>
      val inflated = p.overlaps.map { case (k, v) =>
        k -> (if (k.size > 1) v * 10 + 5 else v)
      }
      val m = HistogramOverlap.monotonize(p.n, inflated)
      m.foreach { case (k, v) => assert(v <= inflated(k) + 1e-9) }
      // supersets never exceed subset minima
      for ((k, v) <- m if k.size > 1; sub <- k.subsets(k.size - 1))
        assert(v <= m(sub) + 1e-9)
    }
  }
}
