package repro.ssb

import repro.{Oracle, SparkSpec}
import repro.core.{HwProfile, Prof}
import repro.queries.QueryRuns.{scanBytes, workerCounts}

/** End-to-end correctness of the four SSB-lite queries (§4.4) across both
  * engines, the DuckDB oracle, Spark SQL, threads, and the counter model.
  */
class SsbQueriesSpec extends SparkSpec {
  private lazy val d = SsbSchema.load(spark, 0.005)
  private lazy val tw = SsbTw.all()

  for (q <- Seq("q1.1", "q2.1", "q3.1", "q4.1")) {
    def oracleTables = d.tablesFor(SsbSql.tables(q): _*)

    test(s"ssb $q: Spark SQL matches DuckDB oracle") {
      Oracle.assertEquivalent(d.sql(spark, SsbSql.all(q)), SsbSql.all(q), oracleTables: _*)
    }

    test(s"ssb $q: Typer matches DuckDB oracle") {
      Oracle.assertEquivalent(SsbTyper.all(q)(d, 1, null).toDF(spark), SsbSql.all(q), oracleTables: _*)
    }

    test(s"ssb $q: Tectorwise matches DuckDB oracle") {
      Oracle.assertEquivalent(tw(q)(d, 1, null).toDF(spark), SsbSql.all(q), oracleTables: _*)
    }

    test(s"ssb $q: Tectorwise equals Typer bit-exactly") {
      assert(tw(q)(d, 1, null).canon == SsbTyper.all(q)(d, 1, null).canon)
    }

    test(s"ssb $q: 4-thread run equals single-threaded (both engines)") {
      val typerRef = SsbTyper.all(q)(d, 1, null).canon
      val twRef = tw(q)(d, 1, null).canon
      for (t <- workerCounts) {
        assert(SsbTyper.all(q)(d, t, null).canon == typerRef, s"Typer, $t workers")
        assert(tw(q)(d, t, null).canon == twRef, s"TW, $t workers")
      }
    }

    test(s"ssb $q: Tectorwise result is vector-size invariant (1, 7, 64, 4096, 65536)") {
      val ref = tw(q)(d, 1, null).canon
      for (v <- Seq(1, 7, 64, 4096, 65536)) assert(SsbTw.all(v)(q)(d, 1, null).canon == ref, s"vector size $v")
    }

    test(s"ssb $q: counter-model run leaves results unchanged") {
      val ref = SsbTyper.all(q)(d, 1, null).canon
      val pT = new Prof(HwProfile.skylake)
      assert(SsbTyper.all(q)(d, 1, pT).canon == ref)
      val pV = new Prof(HwProfile.skylake)
      assert(tw(q)(d, 1, pV).canon == ref)
      assert(pT.instr > 0 && pV.instr > 0)
    }

    test(s"ssb $q: non-trivial result") {
      assert(SsbTyper.all(q)(d, 1, null).numRows > 0)
    }
  }

  test("both engines charge the scan throttle the same bytes for every query") {
    for (q <- SsbSql.all.keys.toSeq.sorted) {
      val typer = scanBytes(SsbTyper.all(q)(d, 2, null))
      val vec = scanBytes(tw(q)(d, 2, null))
      assert(typer > 0 && typer == vec, s"ssb $q: Typer $typer B, TW $vec B")
    }
  }
}
