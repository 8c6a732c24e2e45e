package qbench

import java.io.{File, FileInputStream, FileOutputStream, ObjectInputStream, ObjectOutputStream}
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, StandardCopyOption}
import java.util.concurrent.{Callable, Executors}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{HwProfile, Prof}
import repro.queries.{QueryOut, TpchSql}
import repro.ssb.SsbSql
import scala.jdk.CollectionConverters._

/** Order-independent digest of a result's rows: row count plus two sums of
  * per-row hashes. Values hash as `QueryOut.canon` compares them — integers
  * by value, everything else by its text — so an engine result and a Spark
  * row set have equal digests exactly when their canonical forms agree
  * (up to 128-bit hash collisions).
  */
final case class Digest(rows: Int, sum: Long, sum2: Long)

object Digest {
  private def mix(x0: Long): Long = {
    var x = x0 * 0xBF58476D1CE4E5B9L; x ^= x >>> 31
    x *= 0x94D049BB133111EBL; x ^ (x >>> 29)
  }

  private def value(v: Any): Long = v match {
    case null                 => 0x2545F4914F6CDD1DL
    case n: java.lang.Long    => mix(n)
    case n: java.lang.Integer => mix(n.longValue)
    case s: String            => s.foldLeft(0xCBF29CE484222325L)((h, c) => (h ^ c) * 0x100000001B3L)
    case other                => value(other.toString)
  }

  def of(rows: Iterable[Iterable[Any]]): Digest = {
    var n = 0; var sum, sum2 = 0L
    for (r <- rows) {
      val h = mix(r.foldLeft(17L)((h, v) => mix(h * 31 + value(v))))
      n += 1; sum += h; sum2 += mix(h ^ 0x5DEECE66DL)
    }
    Digest(n, sum, sum2)
  }

  def of(out: QueryOut): Digest = of(out.rows.map(_.toSeq))
}

/** The Spark SQL reference result of one query. */
final case class Expected(canon: Vector[String], digest: Digest)

object Reference {

  /** Expected results per query name, computed outside the timed window.
    *
    * A reference depends only on the data, the SQL texts and Spark, so it is
    * kept in `dir` under a key of those three and computed by Spark SQL only
    * when no earlier run of this build made it. The three workloads share
    * one dataset per seed, so most runs reuse one.
    *
    * @return the results and whether Spark SQL computed them in this run
    */
  def load(spark: SparkSession, d: Data, fingerprint: String, dir: File): (Map[String, Expected], Boolean) = {
    val sql = (TpchSql.all ++ SsbSql.all).toSeq.sorted.mkString("\n")
    val key = java.security.MessageDigest.getInstance("SHA-256")
      .digest(s"$fingerprint\n${spark.version}\n$sql".getBytes(UTF_8)).map(b => f"$b%02x").mkString
    val f = new File(dir, s"reference-$key.bin")
    if (f.exists) {
      val in = new ObjectInputStream(new FileInputStream(f))
      try (in.readObject().asInstanceOf[Map[String, Expected]], false) finally in.close()
    } else {
      val expected = compute(spark, d)
      val tmp = File.createTempFile("reference-", ".tmp", dir)
      val out = new ObjectOutputStream(new FileOutputStream(tmp))
      try out.writeObject(expected) finally out.close()
      Files.move(tmp.toPath, f.toPath, StandardCopyOption.ATOMIC_MOVE)
      (expected, true)
    }
  }

  private def expected(df: DataFrame): Expected = {
    val rows = df.collect().toVector.map(_.toSeq)
    Expected(rows.map(_.map(v => if (v == null) "∅" else v.toString).mkString("|")).sorted, Digest.of(rows))
  }

  /** Run the nine queries on Spark SQL.
    *
    * TPC-H-lite and SSB-lite both define `customer`, `part` and `supplier`,
    * and each load registers its tables as session-wide temp views, so the
    * last load wins. Each suite's views are therefore registered from its
    * own DataFrames just before its queries are analyzed (analysis binds the
    * views); the nine queries then run concurrently.
    */
  private def compute(spark: SparkSession, d: Data): Map[String, Expected] = {
    def analyze(dfs: Map[String, DataFrame], sql: Map[String, String]): Seq[(String, DataFrame)] = {
      dfs.foreach { case (n, df) => df.createOrReplaceTempView(n) }
      sql.toSeq.map { case (q, text) => q -> spark.sql(text) }
    }
    val plans = analyze(d.tpch.dfs, TpchSql.all) ++ analyze(d.ssb.dfs, SsbSql.all)
    val pool = Executors.newFixedThreadPool(4)
    try plans.map { case (q, df) => q -> pool.submit(new Callable[Expected] { def call() = expected(df) }) }
      .map { case (q, f) => q -> f.get() }.toMap
    finally pool.shutdownNow()
  }
}

/** One (engine, query) row of the modeled counters, kept as exact text. */
final case class CounterRow(engine: String, query: String, tuples: Long, instr: Long,
                            loads: Long, stores: Long, l1Miss: Long, llcMiss: Long,
                            branchMiss: Long, memStall: Double, cycles: Double) {
  def key: (String, String) = (engine, query)
  def fields: Seq[String] = Seq(engine, query, tuples.toString, instr.toString, loads.toString,
    stores.toString, l1Miss.toString, llcMiss.toString, branchMiss.toString,
    java.lang.Double.toString(memStall), java.lang.Double.toString(cycles))
}

/** The `Prof`-modeled pass (Table 1 and §4.4 counters) and the check of its
  * counters against the values recorded in the benchmark's directory.
  *
  * `Addr.alloc` hands out one process-wide cursor that the cache model's
  * set mapping sees, so the pass runs at one fixed point of every run —
  * right after the first data load — and its counters then repeat exactly.
  */
object Modeled {
  /** Table 1's LLC scaling: 14 MB × SF, as the paper ran SF 1 on 14 MB. */
  val hw: HwProfile = HwProfile.skylake.withLlcBytes(math.max(64L * 16 * 64, (14L << 20) * Data.SF).toLong)

  val header: Seq[String] = Seq("partitions", "engine", "query", "tuples", "instr", "loads", "stores",
    "l1_miss", "llc_miss", "branch_miss", "mem_stall_cycles", "cycles")

  def pass(d: Data, trace: Trace): Seq[CounterRow] = {
    val qs = Passes.engines.map(e => e -> Passes.queries(d, e)).toMap
    for { q <- Passes.queryNames.indices; e <- Passes.engines } yield {
      val query = qs(e)(q)
      val p = new Prof(hw)
      Trace.span(trace, s"prof.$e.${query.name}")(query.run(1, p))
      CounterRow(e, query.name, query.tuples, p.instr, p.loads, p.stores, p.l1Misses,
                 p.llcMisses, p.branchMisses, p.memStallCycles, p.cycles)
    }
  }

  private def read(f: File): Seq[Seq[String]] =
    if (!f.exists) Nil
    else Files.readAllLines(f.toPath, UTF_8).asScala.toSeq.drop(1).filter(_.nonEmpty).map(_.split("\t").toSeq)

  /** Mismatches between `rows` and the counters recorded for `partitions`
    * (empty when every counter is identical).
    */
  def check(f: File, partitions: Int, rows: Seq[CounterRow]): Seq[String] = {
    val recorded = read(f).filter(_.head == partitions.toString).map(r => (r(1), r(2)) -> r.drop(1)).toMap
    if (recorded.isEmpty) return Seq(s"no counters recorded for partitions=$partitions in $f")
    val measured = rows.map(r => r.key -> r.fields).toMap
    (recorded.keySet ++ measured.keySet).toSeq.sorted.flatMap { k =>
      (recorded.get(k), measured.get(k)) match {
        case (Some(a), Some(b)) if a == b => None
        case (a, b) => Some(s"counters differ for $k: recorded=${a.map(_.mkString(" "))} " +
                            s"measured=${b.map(_.mkString(" "))}")
      }
    }
  }

  /** Replace the recorded counters for `partitions` with `rows`. */
  def record(f: File, partitions: Int, rows: Seq[CounterRow]): Unit = {
    val kept = read(f).filterNot(_.head == partitions.toString)
    val all = kept ++ rows.map(r => partitions.toString +: r.fields)
    val lines = header.mkString("\t") +: all.sortBy(r => (r.head.toInt, r(1), r(2))).map(_.mkString("\t"))
    Files.write(f.toPath, (lines.mkString("\n") + "\n").getBytes(UTF_8))
  }
}
