package repro.harness

import org.apache.spark.sql.SparkSession
import repro.core.{HwProfile, Prof}
import repro.queries.{Engines, TpchSchema}

/** Table 1 — "CPU Counters, TPC-H SF=1, 1 thread, normalized by tuples".
  *
  * Runs both engines single-threaded under the micro-architecture model and
  * reports cycles, IPC, instructions, L1/LLC misses, and branch misses per
  * tuple scanned. The simulated LLC is scaled with the scale factor
  * (14 MB × sf, since the paper ran SF=1 on a 14 MB LLC) so working-set :
  * cache ratios match the paper's — see DESIGN.md. §4.4's SSB table
  * ([[SsbCountersExp]]) is the same experiment over SSB-lite.
  */
object Table1Exp {

  def counters(spark: SparkSession, sf: Double = 0.1): Seq[(String, String, Prof.Counters)] = {
    val d = TpchSchema.load(spark, sf)
    modeled(sf, Engines.queryNames, Engines.typer, Engines.tw(), d, d.tuplesScanned)
  }

  def run(spark: SparkSession, sf: Double = 0.1): String =
    render(s"Table 1: CPU counters (modeled), TPC-H-lite SF=$sf, 1 thread, per tuple", counters(spark, sf))

  /** Each query on Typer then TW, 1 thread, under a fresh [[Prof]] with a
    * 14 MB × sf LLC; counters per tuple scanned.
    */
  private[harness] def modeled[D](sf: Double, queries: Seq[String],
                                  typer: String => (D, Int, Prof) => Any, tw: String => (D, Int, Prof) => Any,
                                  d: D, tuples: String => Long): Seq[(String, String, Prof.Counters)] = {
    val hw = HwProfile.skylake.withLlcBytes(math.max(64L * 16 * 64, (14L << 20) * sf).toLong)
    for {
      q <- queries
      (engine, fn) <- Seq("Typer" -> typer(q), "TW" -> tw(q))
    } yield {
      val p = new Prof(hw)
      fn(d, 1, p)
      (q, engine, p.perTuple(tuples(q)))
    }
  }

  private[harness] def render(title: String, counters: Seq[(String, String, Prof.Counters)]): String = {
    import AsciiTable._
    val rows = counters.map { case (q, e, c) =>
      Seq(s"$q $e", f0(c.cycles), f1(c.ipc), f0(c.instr), f1(c.l1Miss),
          f2(c.llcMiss), f2(c.branchMiss), f1(c.memStall))
    }
    AsciiTable.format(title,
      Seq("query", "cycles", "IPC", "instr", "L1miss", "LLCmiss", "brMiss", "memStall"),
      rows)
  }
}
