package repro.bench

import repro.SparkSpec
import repro.harness.{Bench, Table3Exp}
import repro.queries.{Engines, TpchSchema}

/** Reproduces paper Table 3 (morsel-driven multi-core scaling). */
class Table3ScalingBench extends SparkSpec {
  test("print Table 3") {
    val out = Table3Exp.run(spark, sf = 0.2)
    println(out)
    assert(out.linesIterator.size >= 3 + Engines.queryNames.size * Bench.threadLadder.size)
  }

  test("both engines scale: all host cores beat 1 thread on Q9") {
    val cores = Bench.hostCores
    assume(cores > 1, "needs more than one core")
    val d = TpchSchema.load(spark, 0.2)
    val tw = Engines.tw()
    val t1 = Bench.timeMs(2, 5) { Engines.typer("q9")(d, 1, null); () }
    val tN = Bench.timeMs(2, 5) { Engines.typer("q9")(d, cores, null); () }
    val v1 = Bench.timeMs(2, 5) { tw("q9")(d, 1, null); () }
    val vN = Bench.timeMs(2, 5) { tw("q9")(d, cores, null); () }
    assert(tN < t1, s"Typer q9: $cores threads $tN ms vs 1 thread $t1 ms")
    assert(vN < v1, s"TW q9: $cores threads $vN ms vs 1 thread $v1 ms")
  }
}
