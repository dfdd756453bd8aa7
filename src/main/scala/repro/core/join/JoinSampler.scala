package repro.core.join

import scala.collection.mutable

import org.apache.spark.sql.Row
import repro.core._
import repro.core.stats.DegreeStats
import repro.core.walk.{JTuple, WalkBatch, WanderJoin}

/** Per-draw accounting of a single-join sampler, consumed by the union
  * sampler's time-breakdown experiment and by the reuse pools: how many
  * walks were attempted, how many died on dangling tuples, how many
  * successful walks were rejected by the accept/reject test — and the
  * rejected tuples themselves (they carry a valid p(t) and can be reused
  * by Algorithm 2).
  */
final case class DrawStats(walkAttempts: Int, walkFailures: Int, rejected: Int,
                           rejectedTuples: IndexedSeq[JTuple] = IndexedSeq.empty) {
  def +(o: DrawStats): DrawStats =
    DrawStats(walkAttempts + o.walkAttempts, walkFailures + o.walkFailures,
      rejected + o.rejected, rejectedTuples ++ o.rejectedTuples)
}

/** i.i.d. uniform sampling from a single join (§3.2). */
trait JoinTupleSampler {
  def join: JoinSpec

  /** Draw `n` i.i.d. uniform tuples of the join (with replacement). */
  def sample(n: Int, seed: Long): (IndexedSeq[JTuple], DrawStats)

  /** Force weight/bound precomputation now (so experiment harnesses can
    * attribute it to the parameter-estimation phase, as the paper does).
    */
  def prepare(): Unit
}

/** EW — exact weights (Zhao et al.'s ground-truth instantiation).
  *
  * The constructor collects every relation of the join tree into the
  * driver once and runs the bottom-up weight DP there: a leaf row weighs
  * 1; an inner row weighs the product, over its child edges, of the
  * summed weights of the child rows that share its key on the edge
  * attributes (0 if there are none). A null in an edge attribute never
  * matches, as in a SQL join. The root weights sum to |J| exactly.
  *
  * Each node keeps only its rows with weight > 0, grouped by the key of
  * the edge to its parent (key → row range, with the cumulative weights
  * of that range). A draw picks a root row by its weight and then, per
  * edge in pre-order, a row of the child's group keyed by the chosen
  * parent row: uniform join tuples, zero rejection, and no Spark job once
  * the sampler is built.
  *
  * Collecting is size-guarded ([[ExactWeightSampler.checkFits]]): a join
  * whose relations would not fit a quarter of the driver heap is refused;
  * use [[OlkenSampler]] (EO) for it.
  */
final class ExactWeightSampler(val join: JoinSpec) extends JoinTupleSampler {
  import ExactWeightSampler._

  /** The tree's nodes in pre-order, the order the edges are drawn in. */
  private val shape: IndexedSeq[Node] = {
    val out = mutable.ArrayBuffer.empty[Node]
    def visit(t: JoinTree, parent: Int, parentCols: Seq[String], attrs: Seq[String]): Unit = {
      val parentKey = attrs.map(parentCols.indexOf(_)).toArray
      require(!parentKey.contains(-1),
        s"EW needs every edge attr in the direct parent (join ${join.name}); " +
          "trees derived from cyclic joins must use the EO/walk sampler")
      val me = out.size
      out += Node(t, parent, parentKey, attrs.map(t.rel.cols.indexOf(_)).toArray)
      t.children.foreach(e => visit(e.child, me, t.rel.cols, e.attrs))
    }
    visit(join.root, -1, Nil, Nil)
    out.toIndexedSeq
  }

  checkFits(join.name, join.relations.map(r => (r.name, r.count, r.cols.size)),
    Runtime.getRuntime.maxMemory)

  /** Weighed rows of each node, aligned with `shape`. Reverse pre-order
    * weighs every child before its parent.
    */
  private val groups: IndexedSeq[Groups] = {
    val done = new Array[Groups](shape.size)
    shape.indices.reverse.foreach { i =>
      val kids = shape.indices.filter(shape(_).parent == i).map(c => (shape(c).parentKey, done(c)))
      val rows = shape(i).tree.rel.df.collect()
      val w = rows.map(r =>
        kids.foldLeft(1.0) { case (acc, (key, kid)) => acc * kid.weightOf(keyOf(r, key)) })
      done(i) = Groups(rows, w, shape(i).ownKey)
    }
    done.toIndexedSeq
  }

  /** Where each canonical output column is read: (node, column). */
  private val canon: IndexedSeq[(Int, Int)] =
    WanderJoin.canonCols(join).toIndexedSeq.map { c =>
      val i = shape.indexWhere(_.tree.rel.cols.contains(c))
      (i, shape(i).tree.rel.cols.indexOf(c))
    }

  /** Σ root weights — exactly |J|. */
  val totalWeight: Double = groups(0).weightOf(Some(Nil))

  /** p(t) of every returned tuple: uniform 1/|J|. */
  def tupleProbability: Double = if (totalWeight == 0) 0.0 else 1.0 / totalWeight

  /** The DP runs in the constructor; nothing is left to prepare. */
  def prepare(): Unit = ()

  def sample(n: Int, seed: Long): (IndexedSeq[JTuple], DrawStats) = {
    if (n == 0 || totalWeight == 0) return (IndexedSeq.empty, DrawStats(0, 0, 0))
    val rng = new java.util.Random(seed)
    val p = tupleProbability
    val picked = new Array[Row](shape.size)
    val out = IndexedSeq.fill(n) {
      picked(0) = groups(0).pick(Nil, rng)
      var i = 1
      while (i < shape.size) {
        val node = shape(i)
        // the parent row weighs > 0, so its group in every child exists
        picked(i) = groups(i).pick(keyOf(picked(node.parent), node.parentKey).get, rng)
        i += 1
      }
      JTuple(canon.map { case (node, c) => picked(node).get(c) }, p)
    }
    (out, DrawStats(n, 0, 0))
  }
}

object ExactWeightSampler {

  /** Driver bytes one collected value is taken to need: the boxed value,
    * its slot in the `Row`, and the row and group arrays spread over it.
    */
  val BytesPerValue: Long = 64L

  /** Size guard for collecting a join: refuse if its relations, given as
    * (name, rows, columns), would take more than a quarter of `maxMemory`
    * at [[BytesPerValue]] a value. The message names the largest relation.
    */
  def checkFits(joinName: String, rels: Seq[(String, Long, Int)], maxMemory: Long): Unit = {
    val values = rels.map { case (_, rows, cols) => rows * cols }.sum
    val budget = maxMemory / 4 / BytesPerValue
    require(values <= budget, {
      val (name, rows, _) = rels.maxBy { case (_, r, c) => r * c }
      s"EW collects join $joinName into the driver: $values values, over its budget of " +
        s"$budget (a quarter of the ${maxMemory >> 20} MB heap); the largest relation, " +
        s"$name, has $rows rows. Use EO (OlkenSampler) for this join"
    })
  }

  /** A node of the join tree: its parent's index in pre-order (-1 at the
    * root) and the key columns of the edge from the parent, in the
    * parent's rows and in its own. The root's key is empty.
    */
  private final case class Node(tree: JoinTree, parent: Int, parentKey: Array[Int],
                                ownKey: Array[Int])

  /** A row's key on `cols`, or None if any of them is null. */
  private def keyOf(r: Row, cols: Array[Int]): Option[Seq[Any]] =
    if (cols.exists(r.isNullAt)) None else Some(cols.toSeq.map(r.get))

  /** The rows of one node with weight > 0, grouped by their key on the
    * edge to the parent: group g is `rows(start(g) until start(g + 1))`,
    * `cum` holds the running weight within each group.
    */
  private final class Groups(rows: Array[Row], cum: Array[Double], start: Array[Int],
                             index: Map[Seq[Any], Int]) {

    /** Summed weight of the rows with this key (0 if there are none). */
    def weightOf(key: Option[Seq[Any]]): Double =
      key.flatMap(index.get).fold(0.0)(g => cum(start(g + 1) - 1))

    /** A row of the group keyed `key`, drawn with probability ∝ weight. */
    def pick(key: Seq[Any], rng: java.util.Random): Row = {
      val g = index(key)
      var lo = start(g)
      var hi = start(g + 1) - 1
      val u = rng.nextDouble() * cum(hi)
      // first row whose running weight exceeds u; the last one if rounding
      // puts u at the group total
      while (lo < hi) { val mid = (lo + hi) >>> 1; if (cum(mid) > u) hi = mid else lo = mid + 1 }
      rows(lo)
    }
  }

  private object Groups {
    def apply(rows: Array[Row], w: Array[Double], keyCols: Array[Int]): Groups = {
      val byKey = mutable.LinkedHashMap.empty[Seq[Any], mutable.ArrayBuffer[Int]]
      rows.indices.foreach { i =>
        if (w(i) > 0) keyOf(rows(i), keyCols).foreach(k =>
          byKey.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += i)
      }
      val order = byKey.valuesIterator.flatten.toArray
      val cum = new Array[Double](order.length)
      val start = new Array[Int](byKey.size + 1)
      var at = 0
      byKey.valuesIterator.zipWithIndex.foreach { case (members, g) =>
        start(g) = at
        var acc = 0.0
        members.foreach { i => acc += w(i); cum(at) = acc; at += 1 }
      }
      start(byKey.size) = at
      new Groups(order.map(rows), cum, start, byKey.keysIterator.zipWithIndex.toMap)
    }
  }
}

/** EO — extended Olken's: walk + accept/reject against the Olken size
  * bound W = |R_root| · Π_edges M_attrs(child) (§3.2). A successful walk
  * with probability p(t) is accepted with probability 1/(p(t)·W), which
  * makes every accepted tuple uniform (1/W per attempt). Dangling tuples
  * get weight 0 for free: their walks die at the inner join.
  *
  * `predicate` enforces a selection during sampling (§8.3, second
  * alternative): non-matching walk tuples are rejected, so accepted
  * tuples are uniform over σ_pred(J) — appropriate for predicates that
  * are not very selective.
  */
final class OlkenSampler(val join: JoinSpec,
                         predicate: Option[JTuple => Boolean] = None)
    extends JoinTupleSampler {

  /** The extended-Olken upper bound on |J|. */
  lazy val bound: Double =
    join.root.edgesPreOrder.foldLeft(join.root.rel.count.toDouble) { (acc, e) =>
      acc * DegreeStats.maxDegreeMulti(e.child.rel.df, e.attrs)
    }

  def prepare(): Unit = { bound; () }

  def sample(n: Int, seed: Long): (IndexedSeq[JTuple], DrawStats) = {
    if (n == 0) return (IndexedSeq.empty, DrawStats(0, 0, 0))
    val rng = new java.util.Random(seed)
    val got = mutable.ArrayBuffer.empty[JTuple]
    var stats = DrawStats(0, 0, 0)
    var round = 0
    var rateEst = 0.2 // updated from observed acceptance
    while (got.size < n) {
      require(round < 1000, s"EO sampler: acceptance rate ~0 for join ${join.name}")
      val want = n - got.size
      val batch = math.min(65536, math.max(64, math.ceil(want / math.max(rateEst, 1e-4)).toInt))
      val wb = WanderJoin.walkBatch(join, batch, seed + 104729L * round + rng.nextInt(1 << 20))
      val rejected = mutable.ArrayBuffer.empty[JTuple]
      var predDropped = 0
      wb.samples.foreach { t =>
        val pAcc = 1.0 / (t.p * bound)
        if (!predicate.forall(_(t))) predDropped += 1
        // predicate-rejected tuples are dropped entirely: they are not in
        // σ_pred(J) and must not enter reuse pools either
        else if (rng.nextDouble() < pAcc) {
          if (got.size < n) got += t else rejected += t
        }
        else rejected += t
      }
      stats += DrawStats(batch, wb.failures, rejected.size + predDropped,
        rejected.toIndexedSeq)
      val acc = stats.walkAttempts - stats.walkFailures - stats.rejected
      rateEst = math.max(1e-3, acc.toDouble / math.max(1, stats.walkAttempts))
      round += 1
    }
    (got.toIndexedSeq, stats)
  }
}
