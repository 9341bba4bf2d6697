package repro.metrics

import org.apache.spark.sql.{DataFrame, functions => F}
import repro.core.TableContext

/** Evaluation measures (paper §9.1): Pair Completeness, wall-clock timing.
  * Executed comparisons are counted inside Comparison-Execution.
  */
object Measures {

  /** Run `f`, returning its value and the elapsed wall-clock millis. */
  def timed[T](f: => T): (T, Long) = {
    val t0  = System.nanoTime()
    val out = f
    (out, (System.nanoTime() - t0) / 1000000L)
  }

  /** Pair Completeness of the post-meta-blocking candidate set: the share
    * of ground-truth duplicate pairs touching the (unresolved) QE that
    * still co-occur in the surviving candidate pairs. PC = 1 when the
    * query has no ground-truth duplicates to find.
    *
    * @param candidatePairs `(aid, bid, …)` with aid < bid
    */
  def pairCompleteness(ctx: TableContext, qe: Set[Long], candidatePairs: DataFrame): Double = {
    val truth = ctx.truth.getOrElse(
      throw new IllegalStateException(s"no ground truth registered for ${ctx.name}"))
    val a = truth.select(F.col("eid").as("aid"), F.col("cluster"))
    val b = truth.select(F.col("eid").as("bid"), F.col("cluster"))
    val gtPairs = a.join(b, "cluster")
      .where(F.col("aid") < F.col("bid"))
      .where(TableContext.idIn(F.col("aid"), qe) || TableContext.idIn(F.col("bid"), qe))
      .select("aid", "bid")
      .cache()
    val gt = gtPairs.count()
    if (gt == 0L) { gtPairs.unpersist(); return 1.0 }
    val hit = gtPairs.join(candidatePairs.select("aid", "bid"), Seq("aid", "bid")).count()
    gtPairs.unpersist()
    hit.toDouble / gt
  }
}
