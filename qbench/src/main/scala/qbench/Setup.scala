package qbench

import org.apache.spark.sql.SparkSession
import repro.core.{ColTable, Morsel, Throttle}
import repro.queries.{TpchData, TpchSchema}
import repro.ssb.{SsbDataSet, SsbSchema}

/** One benchmark workload: how many workers each query gets and whether
  * base-table scans are charged to an emulated storage device.
  *
  * @param bytesPerSec bandwidth of the emulated device (0 = memory-resident)
  * @param modeled     run the single-threaded `Prof` pass after data load
  */
final case class Workload(name: String, threads: Int, bytesPerSec: Double, modeled: Boolean) {

  /** Run `body` with a fresh scan throttle installed (if this workload has
    * one), always clearing the global again; returns the bytes charged.
    */
  def throttled(body: => Unit): Long =
    if (bytesPerSec <= 0) { body; 0L }
    else {
      val t = new Throttle(bytesPerSec)
      Morsel.ioThrottle = t
      try body finally Morsel.ioThrottle = null
      t.totalBytes
    }
}

object Workload {
  /** Emulated scan bandwidth. At SF 0.05 a pass reads ~102 MB of base-table
    * columns, so the floor is ~170 ms per pass: about three times the compute
    * time of either engine at 4 workers, so that compute stays hidden while
    * other load on the host slows it (at a 113 ms floor it did not, in 2 of
    * 10 runs).
    */
  val EmulatedBytesPerSec = 6e8

  // `parallel` runs on half the cores, but on at least two: with a worker on
  // every core, any other runnable thread on the host stalls a worker and,
  // through the barriers, the whole query (over ten runs its pass times
  // spread by 21-27%); with one worker it would skip the thread spawn, the
  // barriers and the aggregation merge it exists to time.

  def apply(name: String, cpus: Int): Workload = name match {
    case "parallel" =>
      require(cpus >= 2, s"the parallel workload needs at least 2 CPUs, found $cpus")
      Workload(name, math.min(cpus, math.max(2, cpus / 2)), 0, modeled = false)
    case "emulated" => Workload(name, cpus, EmulatedBytesPerSec, modeled = true)
  }
}

/** Facts about the host and the generated data, printed with every result. */
object Host {
  /** Worker count for the multi-threaded workloads. */
  val cpus: Int = sys.env.get("SPARK_GRAFT_CPUS").flatMap(_.trim.toIntOption).filter(_ > 0)
    .getOrElse(Runtime.getRuntime.availableProcessors)

  def jvm: String = s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}"
}

/** Both lite datasets, as the engines see them. */
final case class Data(tpch: TpchData, ssb: SsbDataSet) {

  /** Order-sensitive hash of every encoded column: equal fingerprints mean
    * the engines (and the modeled counters) saw identical inputs.
    */
  def fingerprint: String = {
    var h = 0x9E3779B97F4A7C15L
    def mix(v: Long): Unit = { h = (h ^ v) * 0xBF58476D1CE4E5B9L; h ^= h >>> 31 }
    def table(t: ColTable): Unit = {
      mix(t.numRows.toLong)
      for (c <- t.columnNames) {
        c.foreach(ch => mix(ch.toLong))
        val col = t(c)
        col.data.foreach(mix)
        if (col.dict != null) col.dict.foreach(s => mix(s.hashCode.toLong))
      }
    }
    Seq(tpch.lineitem, tpch.orders, tpch.customer, tpch.supplier, tpch.nation,
        tpch.partsupp, tpch.part, ssb.lineorder, ssb.date, ssb.part, ssb.supplier,
        ssb.customer).foreach(table)
    f"$h%016x"
  }
}

object Data {
  /** Scale factor of both datasets: lineitem and lineorder have 300k rows. */
  val SF = 0.05

  /** Spark settings that fix the generated data. `spark.range` splits rows
    * into `leafNodeDefaultParallelism` partitions and `rand(seed)` is seeded
    * per partition, so the partition count is the data seed; it is pinned
    * from the workload seed instead of following the host's core count.
    * Adaptive execution is off so no plan depends on runtime statistics.
    */
  def partitions(seed: Long): Int = 4 + java.lang.Math.floorMod(seed, 8L).toInt

  def session(seed: Long, threads: Int, outDir: java.io.File): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$threads]")
      .appName("qbench")
      .config("spark.sql.leafNodeDefaultParallelism", partitions(seed).toLong)
      .config("spark.default.parallelism", partitions(seed).toLong)
      .config("spark.sql.shuffle.partitions", 4L)
      .config("spark.sql.adaptive.enabled", false)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", new java.io.File(outDir, "spark-warehouse").getPath)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** Time both loads; returns the data and (TPC-H seconds, SSB seconds). */
  def load(spark: SparkSession, trace: Trace): (Data, Double, Double) = {
    val t0 = System.nanoTime()
    val tpch = Trace.span(trace, "data.tpch_load")(TpchSchema.load(spark, SF))
    val t1 = System.nanoTime()
    val ssb = Trace.span(trace, "data.ssb_load")(SsbSchema.load(spark, SF))
    val t2 = System.nanoTime()
    (Data(tpch, ssb), (t1 - t0) / 1e9, (t2 - t1) / 1e9)
  }
}
