package queryerbench

import org.apache.spark.sql.functions.col
import repro.core.{BatchER, DedupConfig, Similarity, TableContext, Tokenizer}
import repro.planner.Pred

import scala.collection.immutable.ArraySeq
import scala.util.Random

/** Single-thread microbenchmark of the resolution kernel
  * `Similarity.profileSimilarity` on candidate-like pairs: pairs of
  * entities that share a blocking token, drawn with a fixed seed from
  * blocks of 2 to `MaxBlock` entities (purging removes larger ones).
  */
object KernelBench {
  val Pairs     = 5000
  val MaxBlock  = 64
  val WarmReps  = 2
  val TimedReps = 3

  final case class Result(pairsPerS: Double, matches: Long)

  def samplePairs(t: GenTable, seed: Long): Array[(ArraySeq[String], ArraySeq[String])] = {
    val profiles = t.rows.map(r => ArraySeq.from(t.attrIdx.map(i => Option(r.get(i)).map(_.toString).orNull)))
    val blocks = profiles.indices
      .flatMap(i => profiles(i).iterator.flatMap(Tokenizer.tokensOf).toSeq.distinct.map(_ -> i))
      .groupMap(_._1)(_._2)
      .collect { case (tok, ms) if ms.size >= 2 && ms.size <= MaxBlock => (tok, ms.toArray) }
      .toArray.sortBy(_._1).map(_._2)
    require(blocks.nonEmpty, s"no candidate blocks in ${t.name}")
    val rng = new Random(seed)
    Array.fill(Pairs) {
      val b = blocks(rng.nextInt(blocks.length))
      val i = rng.nextInt(b.length)
      val j = (i + 1 + rng.nextInt(b.length - 1)) % b.length
      (profiles(b(i)), profiles(b(j)))
    }
  }

  def run(t: GenTable, ctx: TableContext, seed: Long, threshold: Double): Result = {
    val pairs = samplePairs(t, seed)
    val freq  = ctx.valueFreq
    val lookup: String => Long = v => if (v == null) 1L else freq.getOrElse(v.toLowerCase, 1L)
    def pass(): (Double, Long) = {
      val t0 = System.nanoTime()
      var m  = 0L
      for ((a, b) <- pairs) if (Similarity.profileSimilarity(a, b, lookup) >= threshold) m += 1
      (pairs.length / ((System.nanoTime() - t0) / 1e9), m)
    }
    (1 to WarmReps).foreach(_ => pass())
    val timed = (1 to TimedReps).map(_ => pass())
    require(timed.map(_._2).distinct.size == 1, "kernel match count differs between repetitions")
    Result(Stats.median(timed.map(_._1)), timed.head._2)
  }
}

/** The Batch Approach reference (the paper's BA): full-table ER with
  * `BatchER.run`, and how far each dedupe answer agrees with the answer
  * of the same SP query over the batch-cleaned table: the share of
  * answers that are equal, and the share of answer groups found in BA.
  */
object BatchReference {
  final case class Result(erS: Double, comparisons: Long, equalShare: Double, groupShare: Double, compared: Int)

  def run(ctx: TableContext, cfg: DedupConfig, answers: Seq[(Pred, Seq[Seq[Long]])]): Result = {
    val batch = BatchER.run(ctx, cfg)
    val agreement = answers.map { case (pred, groups) =>
      val ba = batch.select(pred.toColumn).select(col("members")).collect()
        .map(r => AnswerCheck.members(r.getString(0)).toSeq).toSet
      (ba == groups.toSet, groups.count(ba.contains), groups.size)
    }
    Result(batch.elapsedMs / 1000.0, batch.comparisons,
      if (answers.isEmpty) 0.0 else agreement.count(_._1).toDouble / answers.size,
      agreement.map(_._2).sum.toDouble / math.max(1, agreement.map(_._3).sum), answers.size)
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolation quantile; NaN for an empty sample. */
  def quantile(xs: Seq[Double], q: Double): Double = if (xs.isEmpty) Double.NaN else {
    val s   = xs.sorted
    val pos = q * (s.size - 1)
    val lo  = math.floor(pos).toInt
    val hi  = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size
}
