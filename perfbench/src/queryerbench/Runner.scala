package queryerbench

import org.apache.spark.sql.SparkSession
import repro.core.{TableContext, Tokenizer}
import repro.planner._
import repro.sql.{DedupSqlParser, QueryEr}

import scala.collection.mutable
import scala.util.control.NonFatal

/** Times of one set-up repetition, in seconds, summed over the tables. */
final case class SetupRecord(totalS: Double, steps: Map[String, Double], tbiRows: Long, refinedRows: Long)

/** One executed query. `latencyS` runs from SQL text in to all rows
  * collected; everything else is measured outside it.
  */
final case class QueryRecord(
    round: Int,
    query: BenchQuery,
    trace: String,
    latencyS: Double,
    error: Option[String],
    stats: Option[ExecStats],
    verdict: Option[AnswerCheck.Verdict],
    parseMs: Double,
    liSkipped: Long,
    plan: Option[(Double, Long)], // (planning ms, estimated comparisons)
    select: Option[SelectSpec], // the parsed query when it is SP
) {
  def ok: Boolean = error.isEmpty
}

/** Drives one workload through the public front end: register the tables
  * (`QueryEr.register`), then issue its queries one after another
  * (`QueryEr.sqlWithStats` on SQL text, then collect the rows) and check
  * every answer.
  */
final class Runner(spark: SparkSession, val wl: Workload, seed: Long) {
  val tables: Seq[GenTable]              = Main.timedProgress("generate")(wl.generate(spark, seed))
  private val byName                     = tables.map(t => t.name -> t).toMap
  var ctxs: Map[String, TableContext]    = Map.empty
  val roundQueries: Seq[BenchQuery]      = wl.round(seed)

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Register every table from scratch and build its once-off indices:
    * TBI, refined TBI, value frequencies, then one warm-up query per table
    * with a non-empty QE and the Link Index off.
    */
  def setup(tr: Tracer, rep: Int): SetupRecord = {
    spark.catalog.clearCache()
    val trace = s"setup$rep"
    val steps = mutable.LinkedHashMap.empty[String, Double].withDefaultValue(0.0)
    def step[T](table: String, name: String)(body: => T): T = {
      val t0 = System.nanoTime()
      val out = tr.span(trace, s"$table.$name", "setup", group = s"$trace/$table/$name")(body)
      steps(name) += secondsSince(t0)
      out
    }
    val t0 = System.nanoTime()
    ctxs = tables.map { t =>
      val ctx = step(t.name, "register") {
        val df    = spark.createDataFrame(java.util.Arrays.asList(t.rows: _*), t.schema)
        val truth = spark.createDataFrame(t.truth.toSeq.sorted).toDF(Tokenizer.EidCol, "cluster")
        QueryEr.register(spark, t.name, df, Some(truth))
      }
      step(t.name, "tbi") { ctx.tbi; ctx.size }
      step(t.name, "refine") { ctx.retainedTbi(wl.cfg.mb) }
      step(t.name, "value_freq") { ctx.valueFreq }
      t.name -> ctx
    }.toMap
    for ((sql, i) <- wl.warmups(seed).zipWithIndex) step(s"warmup$i", "warmup") {
      val (df, st) = QueryEr.sqlWithStats(spark, sql, AdvancedPlanner, wl.cfg.copy(useLinkIndex = false))
      df.collect()
      require(st.qeSize > 0, s"warm-up query selects nothing: $sql")
    }
    val total = secondsSince(t0)
    Main.progress(f"set-up $rep: $total%.2f s " + steps.map { case (k, v) => f"$k=$v%.2f" }.mkString(" "))
    val (tbiRows, refinedRows) =
      if (!tr.enabled) (0L, 0L)
      else (ctxs.values.map(_.tbi.count()).sum, ctxs.values.map(_.retainedTbi(wl.cfg.mb).count()).sum)
    SetupRecord(total, steps.toMap, tbiRows, refinedRows)
  }

  /** Run whole rounds of the workload's queries until `seconds` have
    * passed (at least one round). Each round starts with an empty Link
    * Index. `afterFirstRound` runs once, between the first and second round.
    */
  def measure(tr: Tracer, seconds: Double, tag: String, afterFirstRound: () => Unit = () => ())
      : Seq[QueryRecord] = {
    val out      = mutable.ArrayBuffer.empty[QueryRecord]
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var round    = 0
    while (round == 0 || System.nanoTime() < deadline) {
      ctxs.values.foreach(_.resetLinkIndex())
      val it = roundQueries.iterator
      while (it.hasNext && (round == 0 || System.nanoTime() < deadline))
        out += runQuery(tr, round, it.next(), s"$tag.r$round")
      if (round == 0) afterFirstRound()
      Main.progress(s"$tag round $round: " +
        out.filter(_.round == round).map(r => f"${r.query.id}=${r.latencyS}%.2f").mkString(" "))
      round += 1
    }
    out.toSeq
  }

  private def sidesOf(p: DedupSqlParser.Parsed): Seq[SelectSpec] = p match {
    case DedupSqlParser.ParsedSelect(s) => Seq(s)
    case DedupSqlParser.ParsedJoin(j)   => Seq(j.left, j.right)
  }

  /** Entities satisfying a side's predicate, from the parsed predicate's
    * Catalyst column (plain SQL would fail on dirty values under ANSI mode).
    */
  private def satisfying(spec: SelectSpec): Set[Long] =
    ctxs(spec.table.toLowerCase).rows.where(spec.pred.toColumn)
      .select(Tokenizer.EidCol).collect().map(_.getAs[Number](0).longValue).toSet

  def runQuery(tr: Tracer, round: Int, q: BenchQuery, prefix: String): QueryRecord = {
    val trace = s"$prefix.${q.id}"
    tr.span(trace, "query", "query") {
      try attempt(tr, round, q, trace)
      catch {
        case NonFatal(e) =>
          QueryRecord(round, q, trace, Double.NaN, Some(e.toString), None, None, 0.0, 0L, None, None)
      }
    }
  }

  private def attempt(tr: Tracer, round: Int, q: BenchQuery, trace: String): QueryRecord = {
    val tParse  = System.nanoTime()
    val parsed  = tr.span(trace, "parse", "sql")(DedupSqlParser.parse(spark, q.sql))
    val parseMs = secondsSince(tParse) * 1000
    val sides   = sidesOf(parsed)
    val sat     = tr.span(trace, "qe", "check", group = s"$trace/qe")(sides.map(satisfying))
    val skipped =
      if (!wl.cfg.useLinkIndex) 0L
      else sides.zip(sat).map { case (s, ids) => ids.count(ctxs(s.table.toLowerCase).li.isResolved).toLong }.sum
    val plan =
      if (tr.enabled) Some(tr.span(trace, "plan", "planner", group = s"$trace/plan")(planOf(parsed)))
      else None

    val t0 = System.nanoTime()
    val (df, stats) = tr.span(trace, "execute", "core", group = s"$trace/execute")(
      QueryEr.sqlWithStats(spark, q.sql, AdvancedPlanner, wl.cfg))
    val rows    = tr.span(trace, "collect", "collect", group = s"$trace/collect")(df.collect())
    val latency = secondsSince(t0)

    val verdict = tr.span(trace, "check", "check") {
      (parsed, sat) match {
        case (DedupSqlParser.ParsedSelect(s), Seq(qe)) =>
          AnswerCheck.select(rows, qe, byName(s.table.toLowerCase))
        case (DedupSqlParser.ParsedJoin(j), Seq(lSat, rSat)) =>
          AnswerCheck.join(rows, byName(j.left.table.toLowerCase), lSat, j.leftAttr,
            byName(j.right.table.toLowerCase), rSat, j.rightAttr)
        case other => throw new IllegalStateException(s"unexpected query shape $other")
      }
    }
    val error = if (verdict.errors.isEmpty) None else Some("wrong answer: " + verdict.errors.mkString("; "))
    val select = parsed match { case DedupSqlParser.ParsedSelect(s) => Some(s); case _ => None }
    QueryRecord(round, q, trace, latency, error, Some(stats), Some(verdict), parseMs, skipped, plan, select)
  }

  /** The planner's cost estimate for the query, timed: `Planner.planJoin`
    * for joins; for SP queries the per-branch estimator it is built on.
    */
  private def planOf(p: DedupSqlParser.Parsed): (Double, Long) = {
    val t0 = System.nanoTime()
    val est = p match {
      case DedupSqlParser.ParsedSelect(s) =>
        Statistics.estimateComparisons(ctxs(s.table.toLowerCase), s.pred, wl.cfg.mb)
      case DedupSqlParser.ParsedJoin(j) =>
        val jp = Planner.planJoin(ctxs(j.left.table.toLowerCase), j.left.pred,
          ctxs(j.right.table.toLowerCase), j.right.pred, wl.cfg.mb)
        jp.estLeftComparisons + jp.estRightComparisons
    }
    (secondsSince(t0) * 1000, est)
  }
}
