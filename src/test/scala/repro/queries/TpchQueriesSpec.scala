package repro.queries

import repro.{Oracle, SparkSpec}
import repro.core.{HwProfile, Prof}
import repro.queries.QueryRuns.{scanBytes, workerCounts}
import repro.ssb.{SsbSchema, SsbSql}

/** End-to-end correctness of the five TPC-H-lite queries: every engine is
  * checked against the DuckDB oracle, against Spark SQL, against the other
  * engine (bit-exact), across thread counts, vector sizes, and under the
  * counter-model profiler.
  */
class TpchQueriesSpec extends SparkSpec {
  private lazy val d = TpchSchema.load(spark, 0.005)
  private lazy val tw = Engines.tw()

  for (q <- Engines.queryNames) {
    def oracleTables = d.tablesFor(TpchSql.tables(q): _*)

    test(s"$q: Spark SQL matches DuckDB oracle (validates shared SQL text)") {
      Oracle.assertEquivalent(d.sql(spark, TpchSql.all(q)), TpchSql.all(q), oracleTables: _*)
    }

    test(s"$q: Typer matches DuckDB oracle") {
      Oracle.assertEquivalent(Engines.typer(q)(d, 1, null).toDF(spark), TpchSql.all(q), oracleTables: _*)
    }

    test(s"$q: Tectorwise matches DuckDB oracle") {
      Oracle.assertEquivalent(tw(q)(d, 1, null).toDF(spark), TpchSql.all(q), oracleTables: _*)
    }

    test(s"$q: Tectorwise equals Typer bit-exactly") {
      assert(tw(q)(d, 1, null).canon == Engines.typer(q)(d, 1, null).canon)
    }

    test(s"$q: 4-thread morsel-parallel run equals single-threaded (both engines)") {
      val typerRef = Engines.typer(q)(d, 1, null).canon
      val twRef = tw(q)(d, 1, null).canon
      for (t <- workerCounts) {
        assert(Engines.typer(q)(d, t, null).canon == typerRef, s"Typer, $t workers")
        assert(tw(q)(d, t, null).canon == twRef, s"TW, $t workers")
      }
    }

    test(s"$q: Tectorwise result is vector-size invariant (64, 4096)") {
      val ref = tw(q)(d, 1, null).canon
      assert(Engines.tw(64)(q)(d, 1, null).canon == ref)
      assert(Engines.tw(4096)(q)(d, 1, null).canon == ref)
    }

    test(s"$q: Tectorwise result is vector-size invariant (1, 7, 65536)") {
      val ref = tw(q)(d, 1, null).canon
      for (v <- Seq(1, 7, 65536)) assert(Engines.tw(v)(q)(d, 1, null).canon == ref, s"vector size $v")
    }

    test(s"$q: counter-model (Prof) run leaves results unchanged, counts > 0") {
      val ref = Engines.typer(q)(d, 1, null).canon
      val pT = new Prof(HwProfile.skylake)
      assert(Engines.typer(q)(d, 1, pT).canon == ref)
      val pV = new Prof(HwProfile.skylake)
      assert(tw(q)(d, 1, pV).canon == ref)
      assert(pT.instr > 0 && pV.instr > 0)
      assert(pT.cycles > 0 && pV.cycles > 0)
    }

    test(s"$q: result is non-trivial at SF 0.005") {
      val out = Engines.typer(q)(d, 1, null)
      assert(out.numRows > 0)
      if (q == "q6") assert(out.rows.head.head != null, "Q6 revenue should be non-NULL at this SF")
    }
  }

  test("both engines charge the scan throttle the same bytes for every query") {
    for (q <- Engines.queryNames) {
      val typer = scanBytes(Engines.typer(q)(d, 2, null))
      val vec = scanBytes(tw(q)(d, 2, null))
      assert(typer > 0 && typer == vec, s"$q: Typer $typer B, TW $vec B")
    }
  }

  test("TPC-H q3 and q9 SQL stay correct after SSB-lite takes the shared view names") {
    val ssb = SsbSchema.load(spark, d.sf)
    ssb.sql(spark, SsbSql.q21).collect() // SSB's customer, part and supplier views
    for (q <- Seq("q3", "q9")) {
      val rows = d.sql(spark, TpchSql.all(q)).collect().toVector.map(_.toSeq.toArray[Any])
      assert(QueryOut(Vector.empty, rows).canon == Engines.typer(q)(d, 1, null).canon, q)
    }
  }

  test("volcano q1 equals Typer q1") {
    assert(repro.volcano.VolcanoTpch.q1(d, null).canon == Engines.typer("q1")(d, 1, null).canon)
  }

  test("volcano q6 equals Typer q6") {
    assert(repro.volcano.VolcanoTpch.q6(d, null).canon == Engines.typer("q6")(d, 1, null).canon)
  }

  test("volcano q1 under profiler is unchanged and costs more instructions per tuple than TW") {
    val pVol = new Prof(HwProfile.skylake)
    assert(repro.volcano.VolcanoTpch.q1(d, pVol).canon == Engines.typer("q1")(d, 1, null).canon)
    val pTw = new Prof(HwProfile.skylake)
    tw("q1")(d, 1, pTw)
    assert(pVol.instr > pTw.instr, s"volcano=${pVol.instr} tw=${pTw.instr}")
  }
}
