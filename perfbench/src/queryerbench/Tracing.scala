package queryerbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

import scala.collection.mutable

/** One timed step. `trace` is shared by every span of one request (a
  * query id, or `setup`); `parent` is 0 for a root span.
  */
final case class Span(id: Int, parent: Int, trace: String, name: String, layer: String,
                      startUs: Long, endUs: Long) {
  def durUs: Long = endUs - startUs
}

/** Span recorder around the benchmark's own calls into each layer. Spans
  * stay in memory until the run ends. When disabled, `span` only runs its
  * body: the untraced run takes the same code path.
  *
  * A span opened with a `group` also sets that Spark job group, so the
  * jobs the step launches can be attached to it as children afterwards.
  */
final class Tracer(val enabled: Boolean, sc: SparkContext) {
  private val spans   = mutable.ArrayBuffer.empty[Span]
  private val byGroup = mutable.HashMap.empty[String, Int]
  private var open    = List.empty[Int]
  private var nextId  = 1
  private val baseNs  = System.nanoTime()
  private val baseUs  = System.currentTimeMillis() * 1000L

  def nowUs: Long = baseUs + (System.nanoTime() - baseNs) / 1000L

  def span[T](trace: String, name: String, layer: String, group: String = null)(body: => T): T =
    if (!enabled) body
    else {
      val id = nextId; nextId += 1
      val parent = open.headOption.getOrElse(0)
      open = id :: open
      if (group != null) { sc.setJobGroup(group, s"$trace $name"); byGroup(group) = id }
      val start = nowUs
      try body
      finally {
        open = open.tail
        if (group != null) sc.clearJobGroup()
        spans += Span(id, parent, trace, name, layer, start, nowUs)
      }
    }

  /** Attach the Spark jobs `jobs` saw as children of the spans that set their group. */
  def addJobs(jobs: JobListener): Unit = if (enabled) {
    val byId = spans.map(s => s.id -> s).toMap
    for (j <- jobs.jobs if j.group != null; parent <- byGroup.get(j.group)) {
      spans += Span(nextId, parent, byId(parent).trace, s"job ${j.id}", "spark",
        j.startMs * 1000L, math.max(j.startMs, j.endMs) * 1000L)
      nextId += 1
    }
  }

  def all: Seq[Span] = spans.toSeq.sortBy(s => (s.startUs, s.id))
}

object Tracer {

  /** Total length of the union of `[start, end)` intervals. */
  def covered(intervals: Seq[(Long, Long)]): Long = {
    var total = 0L
    var curS, curE = Long.MinValue
    for ((s, e) <- intervals.sortBy(_._1)) {
      if (s > curE) { total += curE - curS; curS = s; curE = e }
      else if (e > curE) curE = e
    }
    total + (curE - curS)
  }

  /** Self time per layer in seconds: each span's duration minus the part
    * of its interval that its children cover.
    */
  def selfSeconds(spans: Seq[Span]): Map[String, Double] = {
    val kids = spans.groupBy(_.parent)
    spans.groupBy(_.layer).map { case (layer, ss) =>
      layer -> ss.map { s =>
        val inside = kids.getOrElse(s.id, Nil)
          .map(k => (math.max(k.startUs, s.startUs), math.min(k.endUs, s.endUs)))
          .filter { case (a, b) => b > a }
        s.durUs - covered(inside)
      }.sum / 1e6
    }
  }

  def toJson(s: Span): String =
    Json.obj(Seq("id" -> s.id, "parent" -> s.parent, "trace" -> s.trace, "name" -> s.name,
      "layer" -> s.layer, "start_us" -> s.startUs, "end_us" -> s.endUs))
}

/** Spark engine counters per job, keyed by the job group the benchmark
  * sets per query step. Registered for the traced run only.
  */
final class JobListener extends SparkListener {
  final class Job(val id: Int, val group: String, val startMs: Long) {
    var endMs: Long       = -1L
    var stages: Int       = 0
    var tasks: Int        = 0
    var failedTasks: Int  = 0
    var busyMs: Long      = 0L
    var shuffleWrite: Long = 0L
    var spill: Long       = 0L
  }

  private val byId      = mutable.LinkedHashMap.empty[Int, Job]
  private val stageJobs = mutable.HashMap.empty[Int, Job]

  def jobs: Seq[Job] = synchronized(byId.values.toSeq)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull
    val job   = new Job(e.jobId, group, e.time)
    byId(e.jobId) = job
    e.stageIds.foreach(stageJobs(_) = job)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    byId.get(e.jobId).foreach(_.endMs = e.time)
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    stageJobs.get(e.stageInfo.stageId).foreach(_.stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageJobs.get(e.stageId).foreach { j =>
      j.tasks += 1
      j.busyMs += e.taskInfo.duration
      if (e.taskInfo.failed) j.failedTasks += 1
      val m = e.taskMetrics
      if (m != null) {
        j.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
        j.spill += m.memoryBytesSpilled + m.diskBytesSpilled
      }
    }
  }
}
