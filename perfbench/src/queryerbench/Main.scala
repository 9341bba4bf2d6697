package queryerbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory

import org.apache.spark.queryerbench.ListenerBusDrain
import org.apache.spark.sql.SparkSession

import scala.collection.immutable.ListMap

/** Entry point of the QueryER benchmark (see perfbench/run.py).
  *
  * `--trace 0` measures the end-to-end metrics: set-up is repeated
  * `SetupReps` times, then rounds of the workload's queries run in a closed
  * loop with one client for `--seconds` (at least one round). `--trace 1`
  * repeats set-up with spans, runs half the time untraced and half traced
  * (with a Spark listener), then the kernel microbenchmark and the Batch
  * Approach reference, and reports the per-layer metrics.
  */
object Main {
  val MaxCores          = 4
  // two set-ups (one cold, one warm): a set-up costs 8-20 s, and a whole
  // run should stay near a minute
  val SetupReps         = 2
  val ShufflePartitions = 4
  val BroadcastBytes    = 10L * 1024 * 1024

  private val started = System.nanoTime()

  /** A progress line on standard error, stamped with seconds since start. */
  def progress(msg: String): Unit =
    System.err.println(f"[queryer-bench ${(System.nanoTime() - started) / 1e9}%7.2f s] $msg")

  def timedProgress[T](what: String)(body: => T): T = {
    val t0 = System.nanoTime()
    try body finally progress(f"$what: ${(System.nanoTime() - t0) / 1e9}%.2f s")
  }

  final case class Metric(name: String, value: Double, unit: String, samples: Int)

  def main(argv: Array[String]): Unit = {
    val args = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val wl      = Workloads.byName(args.getOrElse("workload", ""))
    val seed    = args("seed").toLong
    val seconds = args("seconds").toDouble
    val trace   = args.getOrElse("trace", "0") == "1"
    val outDir  = new File(sys.props.getOrElse("queryerbench.outDir", ".bench_build"))
    val workDir = new File(outDir, "work")

    val cores = math.min(MaxCores, Runtime.getRuntime.availableProcessors)
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("queryer-bench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", BroadcastBytes)
      .config("spark.sql.adaptive.enabled", value = true)
      .config("spark.ui.enabled", value = false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(workDir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(workDir, "warehouse").getAbsolutePath)
      .getOrCreate()
    val code =
      try {
        val settings = settingsOf(spark, wl, seed, seconds, trace, cores)
        val runner   = new Runner(spark, wl, seed)
        val (metrics, records) =
          if (trace) traced(spark, runner, seconds, seed, outDir) else untraced(spark, runner, seconds)
        report(wl, seed, trace, settings, metrics, records, outDir)
        0
      } catch {
        case e: Throwable =>
          System.err.println(s"queryer-bench: run aborted: $e")
          e.printStackTrace()
          1
      } finally spark.stop()
    sys.exit(code)
  }

  // ------------------------------------------------------------------ untraced

  private def untraced(spark: SparkSession, runner: Runner, seconds: Double): (Seq[Metric], Seq[QueryRecord]) = {
    val off     = new Tracer(false, spark.sparkContext)
    val setups  = (0 until SetupReps).map(runner.setup(off, _))
    // heap after the first round, a fixed amount of work: a faster program
    // runs more rounds and caches more results, and is not charged for it
    var heapMb  = Double.NaN
    val records = runner.measure(off, seconds, "m", () => heapMb = heapAfterGcMb())
    val ok      = records.filter(_.ok)
    val lat     = ok.map(_.latencyS)
    val first   = records.filter(_.round == 0)
    val f1      = first.flatMap(_.verdict).map(_.pairs).foldLeft(PairCounts.zero)(_ + _).f1
    val metrics = Seq(
      Metric("setup_s", Stats.median(setups.map(_.totalS)), "s", setups.size),
      Metric("query_p50_s", Stats.median(lat), "s", lat.size),
      // per minute of query time; the answer checks between queries are excluded
      Metric("queries_per_min", if (lat.isEmpty) 0.0 else 60.0 * lat.size / lat.sum, "1/min", lat.size),
      Metric("heap_mb", heapMb, "MB", 1),
      Metric("answer_f1", f1, "ratio", first.size),
      Metric("error_rate", (records.size - ok.size).toDouble / records.size, "ratio", records.size),
    )
    (metrics, records)
  }

  /** Driver heap in use after a full collection, in MiB: the least of three
    * readings, each after a collection and a pause in which Spark's context
    * cleaner drops the blocks whose driver references were collected.
    */
  private def heapAfterGcMb(): Double =
    (1 to 3).map { _ =>
      System.gc()
      Thread.sleep(500)
      ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
    }.min

  // ------------------------------------------------------------------ traced

  private def traced(spark: SparkSession, runner: Runner, seconds: Double, seed: Long, outDir: File)
      : (Seq[Metric], Seq[QueryRecord]) = {
    val sc       = spark.sparkContext
    val listener = new JobListener
    val tr       = new Tracer(true, sc)
    val off      = new Tracer(false, sc)
    sc.addSparkListener(listener)
    val setups = (0 until SetupReps).map(runner.setup(tr, _))
    ListenerBusDrain(sc)
    sc.removeSparkListener(listener)
    val plain = runner.measure(off, seconds / 2, "u")
    sc.addSparkListener(listener)
    val records = runner.measure(tr, seconds / 2, "t")

    val wl       = runner.wl
    val main     = runner.tables.head
    val mainCtx  = runner.ctxs(main.name)
    val kernel   = tr.span("reference", "kernel", "reference")(
      KernelBench.run(main, mainCtx, seed, wl.cfg.simThreshold))
    val spAnswers = records.filter(r => r.ok && r.round == 0).flatMap(r =>
      r.select.filter(_.table.equalsIgnoreCase(main.name)).map(s => (s.pred, r.verdict.get.groups)))
    val batch = tr.span("reference", "batch", "reference", group = "reference/batch")(
      BatchReference.run(mainCtx, wl.cfg, spAnswers))
    ListenerBusDrain(sc)
    sc.removeSparkListener(listener)
    tr.addJobs(listener)

    val spans = tr.all
    writeSpans(spans, new File(outDir, s"traces/${wl.name}-seed$seed.jsonl"))
    val ok   = records.filter(_.ok)
    val n    = ok.size
    val jobs = listener.jobs.groupBy(_.group)
    def jobsOf(r: QueryRecord) = Seq("execute", "collect").flatMap(s => jobs.getOrElse(s"${r.trace}/$s", Nil))
    def spanOf(r: QueryRecord, name: String) = spans.find(s => s.trace == r.trace && s.name == name)
    def perQuery(f: QueryRecord => Double) = Stats.mean(ok.map(f))
    def st(f: repro.planner.ExecStats => Double) = perQuery(r => f(r.stats.get))

    val driverOnly = ok.map { r =>
      val (s, e) = (spanOf(r, "execute").get.startUs, spanOf(r, "collect").get.endUs)
      val busy   = Tracer.covered(jobsOf(r).map(j => (math.max(j.startMs * 1000, s), math.min(j.endMs * 1000, e)))
        .filter { case (a, b) => b > a })
      math.max(0.0, r.latencyS - busy / 1e6)
    }
    val busyS   = ok.map(r => jobsOf(r).map(_.busyMs).sum / 1000.0)
    val cores   = sc.defaultParallelism
    val planned = ok.filter(_.plan.isDefined)
    val comps   = ok.map(_.stats.get.comparisons).sum
    val links   = ok.map(_.verdict.get.links).sum
    val setupStep = (k: String) => Stats.median(setups.map(_.steps.getOrElse(k, 0.0)))
    val self    = Tracer.selfSeconds(spans)
    val mb      = 1024.0 * 1024.0
    val p50     = (rs: Seq[QueryRecord]) => Stats.median(rs.filter(_.ok).map(_.latencyS))

    val metrics = Seq(
      Metric("spark.jobs", perQuery(jobsOf(_).size), "count", n),
      Metric("spark.stages", perQuery(jobsOf(_).map(_.stages).sum), "count", n),
      Metric("spark.tasks", perQuery(jobsOf(_).map(_.tasks).sum), "count", n),
      Metric("spark.driver_only_s", Stats.mean(driverOnly), "s", n),
      Metric("spark.task_busy_s", Stats.mean(busyS), "s", n),
      Metric("spark.core_utilisation", busyS.sum / (ok.map(_.latencyS).sum * cores), "ratio", n),
      Metric("spark.shuffle_write_mb", perQuery(jobsOf(_).map(_.shuffleWrite).sum / mb), "MB", n),
      Metric("spark.spill_mb", perQuery(jobsOf(_).map(_.spill).sum / mb), "MB", n),
      Metric("spark.failed_tasks", perQuery(jobsOf(_).map(_.failedTasks).sum), "count", n),
      Metric("core.query_blocking_ms", st(_.times.blockingMs), "ms", n),
      Metric("core.block_join_ms", st(_.times.blockJoinMs), "ms", n),
      Metric("core.meta_blocking_ms", st(_.times.metaBlockingMs), "ms", n),
      Metric("core.comparison_ms", st(_.times.comparisonMs), "ms", n),
      Metric("core.group_ms", st(_.times.groupMs), "ms", n),
      Metric("core.other_ms", st(_.times.otherMs), "ms", n),
      Metric("core.qe_entities", st(_.qeSize), "count", n),
      Metric("core.dr_entities", st(_.drSize), "count", n),
      Metric("core.comparisons", st(_.comparisons), "count", n),
      Metric("core.result_groups", perQuery(_.verdict.get.groups.size), "count", n),
      Metric("core.links_per_comparison", if (comps == 0) 0.0 else links.toDouble / comps, "ratio", n),
      Metric("core.li.skipped_entities", perQuery(_.liSkipped), "count", n),
      Metric("core.li.resolved_entities", runner.ctxs.values.map(_.li.resolvedCount.toDouble).sum, "count", 1),
      Metric("core.li.links", runner.ctxs.values.map(_.li.linkCount.toDouble).sum, "count", 1),
      Metric("core.similarity.pairs_per_s", kernel.pairsPerS, "1/s", KernelBench.TimedReps),
      Metric("core.similarity.matches", kernel.matches, "count", KernelBench.Pairs),
      Metric("core.register.tbi_s", setupStep("tbi"), "s", setups.size),
      Metric("core.register.refine_s", setupStep("refine"), "s", setups.size),
      Metric("core.register.value_freq_s", setupStep("value_freq"), "s", setups.size),
      Metric("core.register.warmup_s", setupStep("warmup"), "s", setups.size),
      Metric("core.register.tbi_rows", setups.last.tbiRows, "count", 1),
      Metric("core.register.refined_tbi_rows", setups.last.refinedRows, "count", 1),
      Metric("planner.plan_ms", Stats.mean(planned.map(_.plan.get._1)), "ms", planned.size),
      Metric("planner.est_comparisons", Stats.mean(planned.map(_.plan.get._2.toDouble)), "count", planned.size),
      Metric("planner.actual_comparisons", Stats.mean(planned.map(_.stats.get.comparisons.toDouble)), "count",
        planned.size),
      Metric("sql.parse_ms", perQuery(_.parseMs), "ms", n),
      Metric("core.batch.er_s", batch.erS, "s", 1),
      Metric("core.batch.comparisons", batch.comparisons, "count", 1),
      Metric("check.dq_ba_equal_share", batch.equalShare, "ratio", batch.compared),
      Metric("check.dq_ba_group_share", batch.groupShare, "ratio", batch.compared),
      // the traced round runs second, on a warmer JVM: a negative overhead
      // means warming saved more than tracing cost
      Metric("trace.overhead_p50_s", p50(records) - p50(plain), "s", n + plain.count(_.ok)),
      Metric("trace.spans", spans.size, "count", 1),
    ) ++ Seq("setup", "query", "sql", "check", "planner", "core", "collect", "spark", "reference").map { l =>
      Metric(s"trace.self.${l}_s", self.getOrElse(l, 0.0), "s", spans.count(_.layer == l))
    }
    (metrics, plain ++ records)
  }

  private def writeSpans(spans: Seq[Span], file: File): Unit = {
    file.getParentFile.mkdirs()
    val pw = new PrintWriter(file, "UTF-8")
    try spans.foreach(s => pw.println(Tracer.toJson(s))) finally pw.close()
  }

  // ------------------------------------------------------------------ output

  private def settingsOf(spark: SparkSession, wl: Workload, seed: Long, seconds: Double, trace: Boolean,
                         cores: Int): Seq[(String, Any)] = {
    val conf = spark.conf
    Seq(
      "workload" -> wl.name, "seed" -> seed, "seconds" -> seconds, "trace" -> trace,
      "machine_cores" -> Runtime.getRuntime.availableProcessors, "spark_cores" -> cores,
      "heap_max_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
      "master" -> spark.sparkContext.master,
      "shuffle_partitions" -> conf.get("spark.sql.shuffle.partitions"),
      "broadcast_threshold" -> conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "aqe" -> conf.get("spark.sql.adaptive.enabled"),
      "ansi" -> conf.get("spark.sql.ansi.enabled"),
      "spark_version" -> spark.version,
      "java_version" -> sys.props.getOrElse("java.version", "?"),
      "os_arch" -> sys.props.getOrElse("os.arch", "?"),
      "git_sha" -> sys.props.getOrElse("queryerbench.gitSha", "none"),
      "src_sha256" -> sys.props.getOrElse("queryerbench.srcSha256", "none"),
    )
  }

  private def report(wl: Workload, seed: Long, trace: Boolean, settings: Seq[(String, Any)],
                     metrics: Seq[Metric], records: Seq[QueryRecord], outDir: File): Unit = {
    val failed = records.filterNot(_.ok)
    println(s"# queryer-bench settings ${Json.obj(settings)}")
    for (m <- metrics) println(f"# ${m.name}%-32s ${m.value}%14.6f ${m.unit}%-6s n=${m.samples}")
    for (r <- failed) println(s"# FAILED ${r.trace} ${r.query.sql} :: ${r.error.get}")
    // error_rate is printed above but left out of the result line: it is
    // 0 on a healthy run, and failures are counted in `failed` already
    val gated = metrics.filterNot(_.name == "error_rate")
    def finite(v: Double) = if (v.isNaN || v.isInfinite) 0.0 else v
    val line = Json.obj(Seq(
      "correct" -> failed.isEmpty,
      "attempted" -> records.size,
      "failed" -> failed.size,
      "metrics" -> ListMap(gated.map(m => m.name -> ListMap("value" -> finite(m.value), "unit" -> m.unit)): _*),
    ))
    val dir = new File(outDir, "results"); dir.mkdirs()
    val pw  = new PrintWriter(new File(dir, s"${wl.name}-seed$seed-trace${if (trace) 1 else 0}.json"), "UTF-8")
    try pw.println(Json.obj(Seq(
      "settings" -> ListMap(settings: _*),
      "metrics" -> metrics.map(m =>
        ListMap("name" -> m.name, "value" -> finite(m.value), "unit" -> m.unit, "samples" -> m.samples)),
      "queries" -> records.map(r => ListMap("trace" -> r.trace, "sql" -> r.query.sql,
        "latency_s" -> finite(r.latencyS), "error" -> r.error.orNull)),
    )))
    finally pw.close()
    println(line)
  }
}
