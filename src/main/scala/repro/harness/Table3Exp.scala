package repro.harness

import org.apache.spark.sql.SparkSession
import repro.queries.{Engines, TpchSchema}

/** Table 3 — "Multi-Threaded Execution": morsel-driven scaling of both
  * engines. The paper runs SF=100 with 1/10/20 threads on 10 cores + SMT;
  * here SF defaults to 0.2 with [[Bench.threadLadder]] threads (1, half the
  * host's cores, all of them).
  * Reports runtime, speedup over 1 thread, and the TW-vs-Typer ratio
  * (paper's "Ratio" column = Typer ms / TW ms).
  */
object Table3Exp {

  def run(spark: SparkSession, sf: Double = 0.2): String = {
    val threadCounts = Bench.threadLadder
    val d = TpchSchema.load(spark, sf)
    val tw = Engines.tw()
    val base = collection.mutable.Map.empty[(String, String), Double]

    val rows = for {
      q <- Engines.queryNames
      t <- threadCounts
    } yield {
      val typerMs = Bench.timeMs(2, 5) { Engines.typer(q)(d, t, null); () }
      val twMs    = Bench.timeMs(2, 5) { tw(q)(d, t, null); () }
      if (t == threadCounts.min) {
        base((q, "typer")) = typerMs
        base((q, "tw")) = twMs
      }
      Seq(q, t.toString,
        AsciiTable.f1(typerMs), AsciiTable.f1(base((q, "typer")) / typerMs),
        AsciiTable.f1(twMs), AsciiTable.f1(base((q, "tw")) / twMs),
        AsciiTable.f2(typerMs / twMs))
    }
    AsciiTable.format(
      s"Table 3: multi-threaded morsel-driven execution, TPC-H-lite SF=$sf",
      Seq("query", "thr", "Typer ms", "Typer spd", "TW ms", "TW spd", "Ratio(Typer/TW)"),
      rows)
  }
}
