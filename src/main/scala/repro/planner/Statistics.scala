package repro.planner

import org.apache.spark.sql.{functions => F}
import repro.core._

/** ER-specific planner statistics (paper §7.2.1.i): the estimated
  * comparisons of a branch. Literals in the WHERE clause define blocking
  * keys; the selected set S_E is approximated from the TBI blocks of those
  * keys (AND = intersection, OR = union), the candidate block collection
  * SB is built from the ITBI, Block Purging and Block Filtering are
  * simulated, and C = Σ_b |q_b|·(|S_b| − (|q_b|+1)/2). The estimation
  * stops before Edge Pruning, as the paper does, because the inequality
  * between branches is already decided there. The paper's other two
  * statistics (duplication factor, join percentage) are not needed: the
  * AES placement compares the branches' estimated comparisons only.
  */
object Statistics {
  import Tokenizer.EidCol

  /** Entities selected by the predicate, derived from blocking keys where
    * the predicate carries literals and by evaluating the filter otherwise
    * (ranges/MOD — cheap at registration time; the paper's estimator only
    * covers literal conditions).
    */
  def selectedSet(ctx: TableContext, pred: Pred): Set[Long] = {
    val spark = ctx.spark
    import spark.implicits._
    def byTokens(tokens: Seq[String]): Set[Long] =
      if (tokens.isEmpty) Set.empty
      else {
        // an equality literal's tokens must ALL block the entity
        val sets = tokens.map { t =>
          ctx.tbi.where(F.col("token") === t).select(EidCol).as[Long].collect().toSet
        }
        sets.reduce(_ intersect _)
      }
    pred match {
      case EqPred(_, v)    => byTokens(Tokenizer.tokensOf(v))
      case InPred(_, vs)   => vs.map(v => byTokens(Tokenizer.tokensOf(v))).foldLeft(Set.empty[Long])(_ union _)
      case AndPred(l, r)   => selectedSet(ctx, l) intersect selectedSet(ctx, r)
      case OrPred(l, r)    => selectedSet(ctx, l) union selectedSet(ctx, r)
      case other           => ctx.idsWhere(other.toColumn)
    }
  }

  /** Estimated number of comparisons the Deduplicate operator would
    * execute for this predicate (post BP+BF, pre EP).
    */
  def estimateComparisons(ctx: TableContext, pred: Pred, mb: MbConfig = MbConfig.All): Long = {
    val selected = selectedSet(ctx, pred).filterNot(ctx.li.isResolved)
    estimateComparisonsFor(ctx, selected, mb)
  }

  private def estimateComparisonsFor(ctx: TableContext, selected: Set[Long], mb: MbConfig): Long = {
    if (selected.isEmpty) return 0L
    val isQ = TableContext.idIn(F.col(EidCol), selected)
    val qbiKeys = ctx.tbi.where(isQ).select("token").distinct()
    // the refined TBI already carries BP/BF (same index the Deduplicate
    // operator joins against), so the estimate mirrors the execution
    val sb = ctx.retainedTbi(mb)
      .join(qbiKeys, "token")
      .withColumn("isQuery", isQ)
    val est = sb.groupBy("token")
      .agg(F.count("*").as("n"), F.sum(F.col("isQuery").cast("long")).as("q"))
      .where(F.col("q") > 0)
      .agg(F.sum(F.col("q") * (F.col("n") - (F.col("q") + 1) / 2.0)).as("c"))
      .collect()(0)
    if (est.isNullAt(0)) 0L else math.max(0L, math.round(est.getDouble(0)))
  }
}
