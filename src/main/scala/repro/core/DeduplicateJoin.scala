package repro.core

import org.apache.spark.sql.{Column, DataFrame, functions => F}

/** Deduplicate-Join operator (paper §6.2, Algorithms 1–2).
  *
  * One branch arrives already resolved (a DR_E); the dirty branch is first
  * reduced to the entities that join with *any* value variant of the
  * resolved side (Alg. 1 line 4), then resolved with the Deduplicate
  * operator, and finally the two DR sets are joined at duplicate-cluster
  * granularity so every variant of an entity's values can satisfy the join
  * predicate (Alg. 2).
  */
object DeduplicateJoin {
  import Tokenizer.EidCol

  /** Resolve the dirty branch of a join against the already resolved one
    * (DIRTY-RIGHT when the resolved branch is the left one, DIRTY-LEFT
    * otherwise): QE' of the dirty side is its filtered entities that
    * equi-join with any join-attribute variant present in the resolved
    * side's DR (Alg. 1), and QE' is then deduplicated.
    */
  def resolveDirty(
      resolved: DedupOutcome,
      resolvedAttr: String,
      dirtyCtx: TableContext,
      dirtyPred: Column,
      dirtyAttr: String,
      cfg: DedupConfig,
  ): DedupOutcome = {
    val vals = resolved.drRows
      .select(F.col(resolvedAttr).cast("string").as("__jv"))
      .where(F.col("__jv").isNotNull && F.length(F.trim(F.col("__jv"))) > 0)
      .distinct()
    val qe = dirtyCtx.idsWhere(dirtyPred && F.col(dirtyAttr).cast("string").isin(vals))
    Deduplicate.run(dirtyCtx, qe, cfg)
  }

  /** Alg. 2 at cluster granularity: the joined DR is the set of
    * (left-cluster, right-cluster) pairs where some pair of member
    * entities equi-joins; the output row is the cartesian of the two
    * groups folded by Group-Entities, i.e. the grouped left record next
    * to the grouped right record. Columns are prefixed `<table>_`.
    */
  def joinOperation(
      left: DedupOutcome,
      right: DedupOutcome,
      leftAttr: String,
      rightAttr: String,
  ): DataFrame = {
    val lName = left.ctx.name
    val rName = right.ctx.name
    // bind the maps locally — the UDF closure must not capture the
    // DedupOutcome (its TableContext is not serializable)
    val lMap = left.clusterOf
    val rMap = right.clusterOf
    val lCl  = F.udf((id: Long) => lMap.getOrElse(id, id))
    val rCl  = F.udf((id: Long) => rMap.getOrElse(id, id))

    val joinPairs = left.drRows
      .select(lCl(F.col(EidCol)).as("lcluster"), F.col(leftAttr).cast("string").as("__lv"))
      .where(F.col("__lv").isNotNull && F.length(F.trim(F.col("__lv"))) > 0)
      .join(
        right.drRows.select(rCl(F.col(EidCol)).as("rcluster"),
          F.col(rightAttr).cast("string").as("__rv"))
          .where(F.col("__rv").isNotNull && F.length(F.trim(F.col("__rv"))) > 0),
        F.col("__lv") === F.col("__rv"))
      .select("lcluster", "rcluster")
      .distinct()

    val lGrouped = prefix(GroupEntities.group(left.drRows, left.clusterOf, left.ctx.attrs), lName)
      .withColumnRenamed(s"${lName}_cluster", "lcluster")
    val rGrouped = prefix(GroupEntities.group(right.drRows, right.clusterOf, right.ctx.attrs), rName)
      .withColumnRenamed(s"${rName}_cluster", "rcluster")

    joinPairs.join(lGrouped, "lcluster").join(rGrouped, "rcluster")
  }

  /** Prefix every column of a grouped DataFrame with the table name. */
  def prefix(df: DataFrame, table: String): DataFrame =
    df.columns.foldLeft(df)((d, c) => d.withColumnRenamed(c, s"${table}_$c"))
}
