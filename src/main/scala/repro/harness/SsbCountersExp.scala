package repro.harness

import org.apache.spark.sql.SparkSession
import repro.core.Prof
import repro.ssb.{SsbSchema, SsbTw, SsbTyper}

/** §4.4's (unnumbered) counter table — SSB Q1.1/Q2.1/Q3.1/Q4.1, 1 thread,
  * per-tuple counters including memory-stall cycles. The paper ran SF=30 on
  * a 14 MB LLC; the simulated LLC is scaled to our lite SF accordingly
  * (14 MB × sf/30 would underflow, so the same data:cache rule as Table 1 is
  * applied against the paper's SSB working set: LLC = 14 MB × sf).
  */
object SsbCountersExp {
  val queries = Seq("q1.1", "q2.1", "q3.1", "q4.1")

  def counters(spark: SparkSession, sf: Double = 0.1): Seq[(String, String, Prof.Counters)] = {
    val d = SsbSchema.load(spark, sf)
    Table1Exp.modeled(sf, queries, SsbTyper.all, SsbTw.all(), d, d.tuplesScanned)
  }

  def run(spark: SparkSession, sf: Double = 0.1): String =
    Table1Exp.render(s"SSB counters (modeled, paper 4.4), SSB-lite SF=$sf, 1 thread, per tuple", counters(spark, sf))
}
