package repro.core

import java.time.LocalDate
import org.apache.spark.sql.DataFrame

/** How a DataFrame column is encoded into a 64-bit engine column.
  *
  * Both engines (Typer and Tectorwise) operate on `Long` columns, mirroring
  * the paper's fixed-point arithmetic ("Q1: fixed-point arithmetic") and
  * dictionary-encoded strings. Encodings are reversible so engine output can
  * be compared exactly against SQL engines.
  */
sealed trait Enc
object Enc {
  /** Integral value taken as-is (keys, counts, priorities, `*_c` cents). */
  case object Id extends Enc
  /** Date stored as days since 1970-01-01. */
  case object Days extends Enc
  /** String dictionary-encoded to a dense code; dictionary kept for decode. */
  case object Dict extends Enc
}

/** A single engine column: 64-bit values plus an optional string dictionary.
  *
  * `addr` is the column's synthetic base address in the simulated address
  * space; the cache simulator sees `addr + 8*i` for element `i`.
  */
final class LongCol(val data: Array[Long], val dict: Array[String], val enc: Enc) {
  val addr: Long = Addr.alloc(8L * data.length)
  def size: Int = data.length

  /** Decode element `i` back to the external value used in SQL results. */
  def decode(i: Int): Any = decodeValue(data(i))

  def decodeValue(v: Long): Any = enc match {
    case Enc.Id    => v
    case Enc.Days  => LocalDate.ofEpochDay(v).toString
    case Enc.Dict  => dict(v.toInt)
  }
}

object LongCol {
  def apply(data: Array[Long], enc: Enc = Enc.Id, dict: Array[String] = null): LongCol =
    new LongCol(data, dict, enc)
}

/** An in-memory columnar table shared by all engines. */
final class ColTable(val name: String, val numRows: Int, val cols: Map[String, LongCol]) {
  def apply(col: String): LongCol =
    cols.getOrElse(col, throw new NoSuchElementException(s"$name has no column '$col'; has ${cols.keys.mkString(",")}"))
  def columnNames: Seq[String] = cols.keys.toSeq.sorted
}

/** Extraction of Spark DataFrames into [[ColTable]]s.
  *
  * Collects to the driver (local mode, lite scale factors) and encodes each
  * requested column per its [[Enc]]. Collection order is preserved so the
  * engines, Spark SQL, and the DuckDB oracle all see the same multiset.
  */
object Columnar {

  def fromDF(df: DataFrame, name: String, spec: (String, Enc)*): ColTable = {
    val rows  = df.select(spec.map(_._1).map(org.apache.spark.sql.functions.col): _*).collect()
    val n     = rows.length
    val built = spec.zipWithIndex.map { case ((colName, enc), ci) =>
      enc match {
        case Enc.Dict =>
          val codes = new Array[Long](n)
          val dict  = scala.collection.mutable.LinkedHashMap.empty[String, Int]
          var i = 0
          while (i < n) {
            val s = rows(i).get(ci) match { case null => "∅"; case x => x.toString }
            codes(i) = dict.getOrElseUpdate(s, dict.size).toLong
            i += 1
          }
          colName -> LongCol(codes, Enc.Dict, dict.keys.toArray)
        case e =>
          val vals = new Array[Long](n)
          var i = 0
          while (i < n) {
            vals(i) = encodeRaw(rows(i).get(ci), e)
            i += 1
          }
          colName -> LongCol(vals, e)
      }
    }
    new ColTable(name, n, built.toMap)
  }

  private def encodeRaw(v: Any, enc: Enc): Long = (v, enc) match {
    case (null, _)                    => Long.MinValue
    case (x: java.lang.Long, Enc.Id)    => x.longValue
    case (x: java.lang.Integer, Enc.Id) => x.longValue
    case (d: java.sql.Date, Enc.Days)   => d.toLocalDate.toEpochDay
    case (d: LocalDate, Enc.Days)       => d.toEpochDay
    case (x, e) => throw new IllegalArgumentException(s"cannot encode $x (${x.getClass}) as $e")
  }

  /** Epoch-day of a date literal, for predicate constants. */
  def day(iso: String): Long = LocalDate.parse(iso).toEpochDay
}
