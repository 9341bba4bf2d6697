package queryerbench

import org.apache.spark.sql.Row

import scala.collection.mutable

/** Pair counts of answer groups against the generator's ground truth. */
final case class PairCounts(tp: Long, fp: Long, fn: Long) {
  def +(o: PairCounts): PairCounts = PairCounts(tp + o.tp, fp + o.fp, fn + o.fn)

  /** Pair F1; 1 when there is no pair to find and none was reported. */
  def f1: Double = if (tp + fp + fn == 0) 1.0 else 2.0 * tp / (2.0 * tp + fp + fn)
}

object PairCounts { val zero: PairCounts = PairCounts(0, 0, 0) }

/** Invariants every dedupe answer must satisfy, and its pair quality.
  * `sat` is the set of entities that satisfy a side's predicate, computed
  * by the benchmark from the parsed predicate; each error names the
  * broken invariant.
  */
object AnswerCheck {

  /** `groups` distinct answer groups holding `links` duplicate links
    * (members minus one, summed over groups).
    */
  final case class Verdict(errors: Seq[String], pairs: PairCounts, groups: Seq[Seq[Long]]) {
    def links: Long = groups.map(_.size - 1L).sum
  }

  def members(s: String): Array[Long] =
    if (s == null || s.isEmpty) Array.empty else s.split(',').map(_.trim.toLong)

  /** SP answer: rows with a `members` column. */
  def select(rows: Array[Row], sat: Set[Long], table: GenTable): Verdict = {
    val groups = rows.map(r => members(r.getAs[String]("members")))
    val errors = mutable.ArrayBuffer.empty[String]
    errors ++= disjoint(groups, "")
    val seen = groups.iterator.flatten.toSet
    val missing = sat.filterNot(seen.contains)
    if (missing.nonEmpty)
      errors += s"${missing.size} QE entities in no group (e.g. ${missing.take(3).mkString(",")})"
    val orphan = groups.count(g => !g.exists(sat.contains))
    if (orphan > 0) errors += s"$orphan groups without a QE member"
    Verdict(errors.toSeq, pairCounts(groups, sat, table), groups.map(_.toSeq).toSeq)
  }

  /** SPJ answer: one row per joined pair of groups, with `<table>_members`
    * columns. Each side's distinct groups must be disjoint and hold a
    * member satisfying that side's predicate, and every row must hold a
    * left and a right member with equal join values.
    */
  def join(rows: Array[Row], left: GenTable, lSat: Set[Long], lAttr: String,
           right: GenTable, rSat: Set[Long], rAttr: String): Verdict = {
    val errors = mutable.ArrayBuffer.empty[String]
    val lVals  = left.valuesOf(lAttr)
    val rVals  = right.valuesOf(rAttr)
    val pairs = rows.map(r =>
      (members(r.getAs[String](s"${left.name}_members")), members(r.getAs[String](s"${right.name}_members"))))
    val lGroups = pairs.map(_._1).distinctBy(_.toSeq)
    val rGroups = pairs.map(_._2).distinctBy(_.toSeq)
    errors ++= disjoint(lGroups, s"${left.name} ")
    errors ++= disjoint(rGroups, s"${right.name} ")
    val lOrphan = lGroups.count(g => !g.exists(lSat.contains))
    val rOrphan = rGroups.count(g => !g.exists(rSat.contains))
    if (lOrphan > 0) errors += s"$lOrphan ${left.name} groups without a member satisfying its predicate"
    if (rOrphan > 0) errors += s"$rOrphan ${right.name} groups without a member satisfying its predicate"
    def joinable(v: String) = v != null && v.trim.nonEmpty
    val unjoined = pairs.count { case (lg, rg) =>
      val lv = lg.iterator.map(lVals.getOrElse(_, null)).filter(joinable).toSet
      !rg.exists(id => lv.contains(rVals.getOrElse(id, null)))
    }
    if (unjoined > 0) errors += s"$unjoined rows without a member pair of equal join values"
    val quality =
      pairCounts(lGroups, lGroups.iterator.flatten.filter(lSat.contains).toSet, left) +
        pairCounts(rGroups, rGroups.iterator.flatten.filter(rSat.contains).toSet, right)
    Verdict(errors.toSeq, quality, (lGroups ++ rGroups).map(_.toSeq).toSeq)
  }

  private def disjoint(groups: Array[Array[Long]], what: String): Seq[String] = {
    val all = groups.iterator.flatten.toSeq
    val dup = all.size - all.distinct.size
    if (dup > 0) Seq(s"${what}groups overlap ($dup repeated entities)") else Nil
  }

  /** Pairs inside answer groups against ground-truth pairs, both
    * restricted to pairs that touch `scope`.
    */
  private def pairCounts(groups: Array[Array[Long]], scope: Set[Long], table: GenTable): PairCounts = {
    val found = mutable.HashSet.empty[(Long, Long)]
    for (g <- groups; i <- g.indices; j <- i + 1 until g.length) {
      val (a, b) = (math.min(g(i), g(j)), math.max(g(i), g(j)))
      if (scope.contains(a) || scope.contains(b)) found += ((a, b))
    }
    val truth = mutable.HashSet.empty[(Long, Long)]
    for (e <- scope; c <- table.truth.get(e); m <- table.clusters(c) if m != e)
      truth += ((math.min(e, m), math.max(e, m)))
    val tp = found.count(truth.contains).toLong
    PairCounts(tp, found.size - tp, truth.size - tp)
  }
}
