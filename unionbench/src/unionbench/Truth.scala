package unionbench

import repro.core.{JoinSpec, Rel}
import repro.core.walk.JTuple
import repro.workloads.UnionWorkload

/** The benchmark's own view of the workload's data, independent of the
  * samplers: every base relation collected once into a hash set of its
  * rows. A tuple is in join j iff its projection onto every relation of j
  * is a row of that relation (every attribute of every relation is in the
  * output), i.e. a semi-join per relation done in the driver.
  *
  * It also enumerates each join from hash indexes to get the exact cover
  * sizes |J'_j| = |J_j \ ∪_{i<j} J_i|, hence the exact α.
  */
final class Truth(w: UnionWorkload) {
  private val cols: IndexedSeq[String] = w.canonCols.toIndexedSeq
  private val colIdx: Map[String, Int] = cols.zipWithIndex.toMap
  private val rels: IndexedSeq[Rel] = w.joins.flatMap(_.relations).foldLeft(Vector.empty[Rel]) {
    (acc, r) => if (acc.exists(_ eq r)) acc else acc :+ r
  }
  private def relId(r: Rel): Int = rels.indexWhere(_ eq r)
  private val relCols: IndexedSeq[Array[Int]] = rels.map(_.cols.map(colIdx).toArray)
  private val rows: IndexedSeq[Array[Array[Any]]] =
    rels.map(r => r.df.select(r.cols.map(org.apache.spark.sql.functions.col): _*).collect()
      .map(row => Array.tabulate[Any](row.length)(row.get)))
  private val rowSets: IndexedSeq[Set[Seq[Any]]] = rows.map(_.iterator.map(_.toSeq).toSet)
  private val joinRels: IndexedSeq[Array[Int]] = w.joins.map(_.relations.map(relId).toArray).toIndexedSeq

  private def inRel(r: Int, t: IndexedSeq[Any]): Boolean = {
    val ix = relCols(r)
    rowSets(r).contains(ix.toSeq.map(t))
  }

  def inJoin(j: Int, t: IndexedSeq[Any]): Boolean = joinRels(j).forall(inRel(_, t))

  /** Tuples of the sample that are not in the join they are tagged with. */
  def invalid(sample: Seq[(JTuple, Int)]): Int =
    sample.count { case (t, j) => t.values.size != cols.size || !inJoin(j, t.values) }

  /** Does `invalid` flag `t` (a valid tuple of join j) once any one of its
    * values is altered? Checks every column.
    */
  def flagsAlteredValues(t: JTuple, j: Int): Boolean = cols.indices.forall { c =>
    val altered = t.values(c) match {
      case v: java.lang.Long => v + 1000000007L
      case v: java.lang.Integer => v + 1000000007
      case v: java.lang.Double => v + 1.5
      case v: String => v + "#"
      case v => throw new IllegalStateException(s"no alteration for ${v.getClass}")
    }
    invalid(Seq((JTuple(t.values.updated(c, altered), t.p), j))) == 1
  }

  /** Exact |J'_j| for every join, by enumerating J_j and probing the
    * relations of each earlier join that J_j does not share.
    */
  def exactCoverSizes(): IndexedSeq[Long] = w.joins.indices.map { j =>
    val checks = (0 until j).map(i => joinRels(i).filterNot(joinRels(j).contains))
    var owned = 0L
    enumerate(w.joins(j)) { t =>
      if (!checks.exists(_.forall(inRel(_, t)))) owned += 1
    }
    owned
  }

  private def enumerate(join: JoinSpec)(emit: IndexedSeq[Any] => Unit): Unit = {
    val steps = join.root.edgesPreOrder.map { e =>
      val r = relId(e.child.rel)
      val keyIdx = e.attrs.map(a => e.child.rel.cols.indexOf(a)).toArray
      val index = rows(r).groupBy(row => keyIdx.toSeq.map(row))
      (e.attrs.map(colIdx).toArray, r, index)
    }.toIndexedSeq
    val acc = new Array[Any](cols.size)
    def put(r: Int, row: Array[Any]): Unit = {
      val ix = relCols(r)
      var i = 0
      while (i < ix.length) { acc(ix(i)) = row(i); i += 1 }
    }
    def go(k: Int): Unit =
      if (k == steps.size) emit(acc.toIndexedSeq)
      else {
        val (attrIdx, r, index) = steps(k)
        index.getOrElse(attrIdx.toSeq.map(acc), Array.empty[Array[Any]]).foreach { row =>
          put(r, row); go(k + 1)
        }
      }
    val root = relId(join.root.rel)
    rows(root).foreach { row => put(root, row); go(0) }
  }
}
