package queryerbench

import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.types.StructType
import repro.core.{DedupConfig, Tokenizer}
import repro.data.{DirtyDataset, DirtyGen, Workload => PaperWorkload}

import scala.util.Random

/** A generated dirty table held on the driver, so every set-up repetition
  * registers the same rows from scratch. Rows are sorted by entity id.
  */
final case class GenTable(name: String, schema: StructType, rows: Array[Row], truth: Map[Long, Long]) {
  private val eidIdx = schema.fieldIndex(Tokenizer.EidCol)

  def eid(r: Row): Long = r.getAs[Number](eidIdx).longValue

  /** Attribute values as strings, in schema order (entity id excluded). */
  lazy val attrIdx: Seq[Int] = schema.fieldNames.indices.filter(_ != eidIdx)

  /** `eid → value` of one attribute, as the join compares it (cast to string). */
  def valuesOf(attr: String): Map[Long, String] = {
    val i = schema.fieldIndex(attr)
    rows.iterator.map(r => eid(r) -> Option(r.get(i)).map(_.toString).orNull).toMap
  }

  /** Ground-truth cluster → its members. */
  lazy val clusters: Map[Long, Array[Long]] =
    truth.toArray.groupBy(_._2).map { case (c, ms) => c -> ms.map(_._1).sorted }
}

object GenTable {
  def of(ds: DirtyDataset): GenTable = {
    val rows  = ds.df.collect()
    val idx   = ds.df.schema.fieldIndex(Tokenizer.EidCol)
    val truth = ds.truth.collect().map(r => r.getAs[Number](0).longValue -> r.getAs[Number](1).longValue)
    GenTable(ds.name, ds.df.schema, rows.sortBy(_.getAs[Number](idx).longValue), truth.toMap)
  }
}

final case class BenchQuery(id: String, sql: String)

/** One benchmark workload: its tables (main table first), the dedupe
  * configuration, one warm-up query per table and the query sequence of
  * one round. Everything is a function of the seed.
  */
sealed trait Workload {
  def name: String
  def cfg: DedupConfig
  def generate(spark: SparkSession, seed: Long): Seq[GenTable]
  def warmups(seed: Long): Seq[String]
  def round(seed: Long): Seq[BenchQuery]
}

object Workloads {
  val all: Seq[Workload] = Seq(NarrowDsd, WidePpl, SessionOagp)

  def byName(n: String): Workload =
    all.find(_.name == n).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$n' (known: ${all.map(_.name).mkString(", ")})"))

  private def rng(seed: Long, salt: Int) = new Random(seed * 1000003L + salt)

  /** The `[lo, hi]` window of `len` consecutive years from `min + start`. */
  private def window(min: Int, len: Int, start: Int): (Int, Int) = (min + start, min + start + len - 1)

  /** `dsd` (4 attributes, 8% duplicates), default config (LI on);
    * pairwise-disjoint selective SP queries on the year, cycling through
    * `=` (one of its 50 values, 2% of the table), `IN` and `BETWEEN` (two
    * values, 4%). ER work is tiny, so this measures the fixed per-query
    * orchestration cost.
    */
  object NarrowDsd extends Workload {
    val name            = "narrow_dsd"
    val rows            = 2000L
    val queriesPerRound = 4
    val cfg             = DedupConfig()
    private val (minYear, years) = (1970, 50)

    def generate(spark: SparkSession, seed: Long): Seq[GenTable] =
      Seq(GenTable.of(DirtyGen.biblio(spark, rows, name = "dsd", seed = seed)))

    def warmups(seed: Long): Seq[String] =
      Seq(s"SELECT DEDUP * FROM dsd WHERE year = '${minYear + rng(seed, 1).nextInt(years)}'")

    def round(seed: Long): Seq[BenchQuery] = {
      // distinct two-year blocks keep the queries disjoint
      val blocks = rng(seed, 2).shuffle((0 until years by 2).toList).take(queriesPerRound)
      blocks.zipWithIndex.map { case (start, i) =>
        val (lo, hi) = window(minYear, 2, start)
        val where = i % 3 match {
          case 0 => s"year = '$lo'"
          case 1 => s"year IN ('$lo', '$hi')"
          case _ => s"year BETWEEN $lo AND $hi"
        }
        BenchQuery(f"q$i%02d", s"SELECT DEDUP * FROM dsd WHERE $where")
      }
    }
  }

  /** `ppl` (12 attributes, 40% duplicates) without the Link Index (the
    * setting of the paper's Fig. 9); broad `byear` ranges selecting 45–80%
    * at seeded offsets. ER work dominates: comparison execution and
    * meta-blocking.
    */
  object WidePpl extends Workload {
    val name  = "wide_ppl"
    val rows  = 5000L
    val cfg   = DedupConfig(useLinkIndex = false)
    val fracs = Seq(0.45, 0.55, 0.65, 0.80)
    private val (minYear, years) = (1900, 100)

    def generate(spark: SparkSession, seed: Long): Seq[GenTable] = {
      val orgForms = DirtyGen.orgs(spark, seed = seed).df.select("orgname").collect().map(_.getString(0))
      Seq(GenTable.of(DirtyGen.people(spark, rows, orgForms, name = "ppl", seed = seed)))
    }

    def warmups(seed: Long): Seq[String] = {
      val (lo, hi) = window(minYear, 5, rng(seed, 1).nextInt(years - 5))
      Seq(s"SELECT DEDUP * FROM ppl WHERE byear BETWEEN $lo AND $hi")
    }

    def round(seed: Long): Seq[BenchQuery] = {
      val r = rng(seed, 2)
      r.shuffle(fracs).zipWithIndex.map { case (f, i) =>
        val len      = math.ceil(years * f).toInt
        val (lo, hi) = window(minYear, len, r.nextInt(years - len + 1))
        BenchQuery(f"q$i%02d", s"SELECT DEDUP * FROM ppl WHERE byear BETWEEN $lo AND $hi")
      }
    }
  }

  /** `oagp` (18 attributes) and `oagv` (1,300 venues), default config with
    * a fresh Link Index per round: growing nested `year` ranges of 38%,
    * 49%, 64% and 84% (the paper's Q10–Q13) with AES joins
    * `oagp ⋈ oagv ON venue = title` of left selectivity 15% and 77% (the
    * Q8b and Q6b patterns) after the 38% and 84% ranges. The LI is written
    * by early queries and read by later ones and by the planner's
    * estimates. Each join's range lies inside the range before it, so how
    * much the LI saves does not depend on where the seed puts the ranges.
    */
  object SessionOagp extends Workload {
    val name      = "session_oagp"
    val rows      = 3000L
    val venueRows = 1300
    val cfg       = DedupConfig()
    val joinFracs = Seq(0.15, 0.77)
    private val (minYear, years) = (1920, 100)

    def generate(spark: SparkSession, seed: Long): Seq[GenTable] = {
      val venues = DirtyGen.venues(spark, venueRows, name = "oagv", seed = seed)
      val forms  = venues.df.select("title").collect().map(_.getString(0))
      Seq(GenTable.of(DirtyGen.papers(spark, rows, forms, name = "oagp", seed = seed)),
        GenTable.of(venues))
    }

    def warmups(seed: Long): Seq[String] = {
      val r = rng(seed, 1)
      val (lo, hi)   = window(minYear, 3, r.nextInt(years - 3))
      val (elo, ehi) = window(1960, 3, r.nextInt(57))
      Seq(s"SELECT DEDUP * FROM oagp WHERE year BETWEEN $lo AND $hi",
        s"SELECT DEDUP * FROM oagv WHERE est BETWEEN $elo AND $ehi")
    }

    def round(seed: Long): Seq[BenchQuery] = {
      val r = rng(seed, 2)
      val lens   = PaperWorkload.LiSelectivities.map(f => math.ceil(years * f).toInt)
      val starts = lens.zip(lens.tail).scanLeft(r.nextInt(years - lens.head + 1)) { case (s, (prev, next)) =>
        // the longer window must still contain [s, s + prev)
        val lo = math.max(0, s + prev - next)
        val hi = math.min(s, years - next)
        lo + r.nextInt(hi - lo + 1)
      }
      val ranges = lens.zip(starts).map { case (len, s) => window(minYear, len, s) }
      // the 15% join inside the 38% range, the 77% join inside the 84% range
      val joins = Seq(0 -> joinFracs(0), 3 -> joinFracs(1)).map { case (k, f) =>
        val len = math.ceil(years * f).toInt
        window(minYear, len, starts(k) + r.nextInt(lens(k) - len + 1))
      }
      def sp(w: (Int, Int))  = s"SELECT DEDUP * FROM oagp WHERE year BETWEEN ${w._1} AND ${w._2}"
      def spj(w: (Int, Int)) =
        s"SELECT DEDUP * FROM oagp JOIN oagv ON oagp.venue = oagv.title WHERE oagp.year BETWEEN ${w._1} AND ${w._2}"
      Seq(sp(ranges(0)), spj(joins(0)), sp(ranges(1)), sp(ranges(2)), sp(ranges(3)), spj(joins(1)))
        .zipWithIndex.map { case (s, i) => BenchQuery(f"q$i%02d", s) }
    }
  }
}
