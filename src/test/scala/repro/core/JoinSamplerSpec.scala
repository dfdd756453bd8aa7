package repro.core

import repro.{SparkSpec, ToyData}
import repro.core.join._
import repro.core.union.FullJoinUnion
import repro.core.walk.WanderJoin
import repro.workloads.UnionWorkloads

/** §3.2 single-join i.i.d. samplers: EW (exact weights, zero rejection)
  * and EO (extended Olken accept/reject). Correctness = exact total
  * weights, bound dominance, support containment and uniformity
  * (chi-square) against the materialized join.
  */
class JoinSamplerSpec extends SparkSpec {

  private lazy val toy = ToyData.toyUnion(spark)
  private lazy val uq1 = UnionWorkloads.uq1(spark, sf = 0.004, overlap = 0.3)
  private lazy val uq3 = UnionWorkloads.uq3(spark, sf = 0.004)

  /** Pearson chi-square statistic of observed counts vs uniform. */
  private def chiSquare(counts: Map[String, Int], support: Int, total: Int): Double = {
    val exp = total.toDouble / support
    val observedStat = counts.values.map(c => (c - exp) * (c - exp) / exp).sum
    val unseen = support - counts.size
    observedStat + unseen * exp
  }

  test("EW total weight equals |J| exactly (toy + UQ1 + star)") {
    assert(new ExactWeightSampler(toy.joins(0)).totalWeight == 12.0)
    assert(new ExactWeightSampler(toy.joins(1)).totalWeight == 12.0)
    val j = uq1.joins.head
    val exact = new FullJoinUnion(Seq(j)).sizes.head
    assert(new ExactWeightSampler(j).totalWeight == exact.toDouble)
    val star = ToyData.toyStar(spark)
    val starExact = star.fullJoin.count()
    assert(new ExactWeightSampler(star).totalWeight == starExact.toDouble)
  }

  test("EW samples lie in the join and arrive with zero rejection") {
    val j = toy.joins.head
    val keys = new FullJoinUnion(Seq(j)).unionKeys
    val (ts, ds) = new ExactWeightSampler(j).sample(500, seed = 1)
    assert(ts.size == 500)
    assert(ds.rejected == 0 && ds.walkFailures == 0)
    assert(ts.forall(t => keys.contains(t.key)))
  }

  test("EW sampling is uniform over the join (chi-square)") {
    val j = toy.joins.head // |J| = 12
    val n = 3000
    val (ts, _) = new ExactWeightSampler(j).sample(n, seed = 2)
    val counts = ts.groupBy(_.key).map { case (k, v) => k -> v.size }
    val chi = chiSquare(counts, 12, n)
    // df = 11; χ²_{0.999,11} ≈ 31.3 — generous but catches systematic bias
    assert(chi < 35.0, s"chi-square $chi over counts $counts")
  }

  test("EW sampling is uniform over a star join (chi-square)") {
    val star = ToyData.toyStar(spark)
    val size = star.fullJoin.count().toInt
    val n = 4000
    val (ts, _) = new ExactWeightSampler(star).sample(n, seed = 3)
    val counts = ts.groupBy(_.key).map { case (k, v) => k -> v.size }
    assert(counts.size <= size)
    val chi = chiSquare(counts, size, n)
    val dfree = size - 1
    assert(chi < dfree + 5 * math.sqrt(2.0 * dfree) + 10, s"chi-square $chi, support $size")
  }

  test("EW handles dangling tuples (weight 0) without sampling them") {
    // toy A keys 13..20 never join B0; they must never be drawn.
    val j = toy.joins.head
    val kIdx = WanderJoin.canonCols(j).indexOf("k")
    val (ts, _) = new ExactWeightSampler(j).sample(400, seed = 4)
    assert(ts.forall(_.values(kIdx).asInstanceOf[Long] <= 12))
  }

  test("EW is uniform over a UQ1 chain whose inner relations dangle (chi-square)") {
    val j = uq1.joins.head // nation ⋈ supplier ⋈ customer ⋈ orders ⋈ lineitem
    val Seq(_, _, customer, orders, lineitem) = j.relations
    // customers without orders and orders without lineitems: a wrong group
    // key hands their weight to rows of another key
    assert(customer.df.join(orders.df, Seq("custkey"), "left_anti").count() > 0)
    assert(orders.df.join(lineitem.df, Seq("orderkey"), "left_anti").count() > 0)
    val fju = new FullJoinUnion(Seq(j))
    val size = fju.sizes.head.toInt
    val n = 10 * size
    val (ts, _) = new ExactWeightSampler(j).sample(n, seed = 10)
    assert(ts.forall(t => fju.unionKeys.contains(t.key)))
    val counts = ts.groupBy(_.key).map { case (k, v) => k -> v.size }
    val chi = chiSquare(counts, size, n)
    val dfree = size - 1
    assert(chi < dfree + 5 * math.sqrt(2.0 * dfree), s"chi-square $chi, support $size")
  }

  test("EW: a null join value never matches") {
    val sp = spark
    import sp.implicits._
    // nulls in a root key, in a child's own key, and in a key towards a child
    val a = Rel("null_a", Seq((Some(1L), "a1"), (Some(2L), "a2"), (None, "a3")).toDF("k", "atag"))
    val b = Rel("null_b", Seq((Some(1L), Some(5L)), (Some(1L), None), (None, Some(5L)),
      (Some(2L), Some(6L))).toDF("k", "m"))
    val c = Rel("null_c", Seq((Some(5L), "c5"), (None, "cn"), (Some(6L), "c6a"),
      (Some(6L), "c6b")).toDF("m", "ctag"))
    val j = ChainJoin("null_J", Seq(a, b, c), Seq("k", "m"))
    val s = new ExactWeightSampler(j)
    assert(s.totalWeight == j.fullJoin.count().toDouble)
    assert(s.totalWeight == 3.0)
    val keys = new FullJoinUnion(Seq(j)).unionKeys
    val cols = WanderJoin.canonCols(j)
    val (ts, _) = s.sample(300, seed = 11)
    assert(ts.forall(t => keys.contains(t.key)))
    assert(ts.forall(t => Seq("k", "m").forall(c => t.values(cols.indexOf(c)) != null)))
  }

  test("EW draws are a function of the seed") {
    val j = uq1.joins.head
    val s = new ExactWeightSampler(j)
    def keys(seed: Long) = s.sample(200, seed)._1.map(_.key)
    assert(keys(12) == keys(12))
    assert(keys(12) != keys(13))
    assert(new ExactWeightSampler(j).sample(200, 12)._1.map(_.key) == keys(12))
  }

  test("EW sampling starts no Spark job once the sampler is built") {
    val j = uq1.joins.head
    val (s, built) = jobsDuring(new ExactWeightSampler(j))
    assert(built >= j.relations.size, "each relation is collected once")
    val ((ts, _), drawn) = jobsDuring(s.sample(1000, seed = 14))
    assert(ts.size == 1000)
    assert(drawn == 0)
  }

  test("EW rejects trees derived from cyclic joins") {
    val tri = ToyData.toyTriangle(spark)
    assertThrows[IllegalArgumentException](new ExactWeightSampler(tri))
  }

  test("EO bound dominates |J| and matches the Olken formula") {
    val j = toy.joins.head
    val s = new OlkenSampler(j)
    // |A| = 20, max degree of k in B0 = 2 → bound = 40 ≥ 12
    assert(s.bound == 40.0)
    assert(s.bound >= new FullJoinUnion(Seq(j)).sizes.head.toDouble)
    val uq1s = new OlkenSampler(uq1.joins.head)
    assert(uq1s.bound >= new FullJoinUnion(Seq(uq1.joins.head)).sizes.head.toDouble)
  }

  test("EO samples lie in the join; rejections carry valid p(t)") {
    val j = toy.joins.head
    val keys = new FullJoinUnion(Seq(j)).unionKeys
    val (ts, ds) = new OlkenSampler(j).sample(300, seed = 5)
    assert(ts.size == 300)
    assert(ts.forall(t => keys.contains(t.key)))
    assert(ds.walkAttempts >= 300)
    assert(ds.rejectedTuples.forall(t => t.p > 0 && keys.contains(t.key)))
  }

  test("EO sampling is uniform over the join (chi-square)") {
    val j = toy.joins.head
    val n = 3000
    val (ts, _) = new OlkenSampler(j).sample(n, seed = 6)
    val counts = ts.groupBy(_.key).map { case (k, v) => k -> v.size }
    val chi = chiSquare(counts, 12, n)
    assert(chi < 35.0, s"chi-square $chi over counts $counts")
  }

  test("EO samples the cyclic triangle uniformly") {
    val tri = ToyData.toyTriangle(spark)
    val size = tri.fullJoin.count().toInt
    val n = 2500
    val (ts, _) = new OlkenSampler(tri).sample(n, seed = 7)
    val keys = new FullJoinUnion(Seq(tri)).unionKeys
    assert(ts.forall(t => keys.contains(t.key)))
    val counts = ts.groupBy(_.key).map { case (k, v) => k -> v.size }
    val chi = chiSquare(counts, size, n)
    val dfree = size - 1
    assert(chi < dfree + 5 * math.sqrt(2.0 * dfree) + 10, s"chi-square $chi, support $size")
  }

  test("EW on the UQ3 acyclic join agrees with its exact size") {
    val j0 = uq3.joins.head // the star join
    val exact = j0.fullJoin.count()
    assert(new ExactWeightSampler(j0).totalWeight == exact.toDouble)
  }

  test("zero-draw requests are free") {
    val s = new ExactWeightSampler(toy.joins.head)
    val (ts, ds) = s.sample(0, seed = 8)
    assert(ts.isEmpty && ds.walkAttempts == 0)
    val (ts2, _) = new OlkenSampler(toy.joins.head).sample(0, seed = 9)
    assert(ts2.isEmpty)
  }
}
