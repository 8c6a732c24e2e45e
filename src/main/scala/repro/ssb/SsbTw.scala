package repro.ssb

import repro.core._
import repro.queries.QueryOut
import repro.tw._

/** Tectorwise (vectorized) implementations of SSB Q1.1/Q2.1/Q3.1/Q4.1:
  * primitive-based dimension builds, then probe cascades over lineorder with
  * selection-vector composition (same operator shapes as the TPC-H TW
  * queries).
  */
object SsbTw {

  /** Vectorized dimension build: optional single/range/two-value filter on
    * one column, then gather + hash + insert primitives per batch.
    */
  private def buildDimVec(ht: HashTable, disp: Morsel.Dispenser, vecSize: Int,
                          key: LongCol, payload: Array[LongCol],
                          filterCol: LongCol, lo: Long, hi: Long, p: Prof): Unit = {
    val sel = new Sel(vecSize); val sel2 = new Sel(vecSize)
    val kV = new Vec(vecSize); val hV = new Vec(vecSize)
    val pV = payload.map(_ => new Vec(vecSize))
    disp.batches(vecSize) { (base, n) =>
      var k = n
      var useSel = false
      if (filterCol ne null) {
        if (lo == hi) k = Prim.selEqC(filterCol, base, n, lo, sel, p)
        else {
          k = Prim.selGeC(filterCol, base, n, lo, sel2, p)
          if (k > 0) k = Prim.selLeCSel(filterCol, base, sel2, hi, sel, p)
          else sel.n = 0
        }
        useSel = true
      }
      if (k > 0) {
        if (useSel) Prim.gather(key, base, sel, kV, p)
        else Prim.gatherDense(key, base, n, kV, p)
        var s = 0
        while (s < payload.length) {
          if (useSel) Prim.gather(payload(s), base, sel, pV(s), p)
          else Prim.gatherDense(payload(s), base, n, pV(s), p)
          s += 1
        }
        Prim.hashMurmur(kV, k, hV, p)
        TWJoin.buildInsert(ht, hV, kV +: pV, k, p)
      }
    }
  }

  def q11(d: SsbDataSet, threads: Int, p: Prof, vecSize: Int = 1024): QueryOut = {
    val pl = new Q11Plan(d); import pl._

    Morsel.run(threads) { ctx =>
      buildDimVec(htD, dispD, vecSize, dd("d_datekey"), Array.empty, dd("d_year"), 1993, 1993, p)
      ctx.barrier()
      val s1 = new Sel(vecSize); val s2 = new Sel(vecSize); val s3 = new Sel(vecSize)
      val dkV = new Vec(vecSize); val hV = new Vec(vecSize)
      val epV = new Vec(vecSize); val dcV = new Vec(vecSize); val revV = new Vec(vecSize)
      val mepV = new Vec(vecSize); val mdcV = new Vec(vecSize)
      val probeD = new TWProbe(htD, 1, vecSize)
      var sum = 0L; var hits = 0L
      dispL.batches(vecSize) { (base, n) =>
        var k = Prim.selGeC(loDisc, base, n, 1L, s1, p)
        if (k > 0) k = Prim.selLeCSel(loDisc, base, s1, 3L, s2, p)
        if (k > 0) k = Prim.selLtCSel(loQty, base, s2, 25L, s3, p)
        if (k > 0) {
          Prim.gather(loDate, base, s3, dkV, p)
          Prim.gather(loEp, base, s3, epV, p)
          Prim.gather(loDisc, base, s3, dcV, p)
          Prim.hashMurmur(dkV, k, hV, p)
          val nm = probeD.probe(hV, Array(dkV), k, p)
          if (nm > 0) {
            probeD.gatherProbe(epV, mepV, p)
            probeD.gatherProbe(dcV, mdcV, p)
            Prim.mapMul(mepV, mdcV, nm, revV, p)
            sum += Prim.sum(revV, nm, p)
            hits += nm
          }
        }
      }
      total.add(sum); matched.addAndGet(hits)
      ()
    }
    result
  }

  def q21(d: SsbDataSet, threads: Int, p: Prof, vecSize: Int = 1024): QueryOut = {
    val pl = new Q21Plan(d, threads); import pl._

    Morsel.run(threads) { ctx =>
      buildDimVec(htD, dispD, vecSize, dd("d_datekey"), Array(dd("d_year")), null, 0, 0, p)
      buildDimVec(htP, dispP, vecSize, pt("p_partkey"), Array(pt("p_brand1")),
                  pt("p_category"), catCode, catCode, p)
      buildDimVec(htS, dispS, vecSize, su("s_suppkey"), Array.empty,
                  su("s_region"), regCode, regCode, p)
      ctx.barrier()
      val agg = new TWAgg(shared.local(ctx.workerId), vecSize)
      val probeP = new TWProbe(htP, 1, vecSize)
      val probeS = new TWProbe(htS, 1, vecSize)
      val probeD = new TWProbe(htD, 1, vecSize)
      val selA = new Sel(vecSize); val selB = new Sel(vecSize); val selC = new Sel(vecSize)
      val pkV = new Vec(vecSize); val skV = new Vec(vecSize); val dkV = new Vec(vecSize)
      val hV = new Vec(vecSize); val brandV = new Vec(vecSize); val brandV2 = new Vec(vecSize)
      val brandV3 = new Vec(vecSize); val yearV = new Vec(vecSize)
      val revV = new Vec(vecSize); val hgV = new Vec(vecSize)
      dispL.batches(vecSize) { (base, n) =>
        Prim.gatherDense(loPart, base, n, pkV, p)
        Prim.hashMurmur(pkV, n, hV, p)
        val m1 = probeP.probe(hV, Array(pkV), n, p)
        if (m1 > 0) {
          probeP.gatherBuild(1, brandV, p)
          selA.n = m1; System.arraycopy(probeP.matchSel.a, 0, selA.a, 0, m1)
          Prim.gather(loSupp, base, selA, skV, p)
          Prim.hashMurmur(skV, m1, hV, p)
          val m2 = probeS.probe(hV, Array(skV), m1, p)
          if (m2 > 0) {
            probeS.gatherProbe(brandV, brandV2, p)
            Prim.composeSel(selA, probeS.matchSel, selB, p)
            Prim.gather(loDate, base, selB, dkV, p)
            Prim.hashMurmur(dkV, m2, hV, p)
            val m3 = probeD.probe(hV, Array(dkV), m2, p)
            if (m3 > 0) {
              probeD.gatherBuild(1, yearV, p)
              probeD.gatherProbe(brandV2, brandV3, p)
              Prim.composeSel(selB, probeD.matchSel, selC, p)
              Prim.gather(loRev, base, selC, revV, p)
              Prim.hashMurmur(yearV, m3, hgV, p)
              Prim.hashCombine(hgV, brandV3, m3, p)
              agg.findGroups(hgV, Array(yearV, brandV3), m3, p)
              agg.sumInto(0, revV, m3, p)
            }
          }
        }
      }
      finish(ctx, p)
    }
    result
  }

  def q31(d: SsbDataSet, threads: Int, p: Prof, vecSize: Int = 1024): QueryOut = {
    val pl = new Q31Plan(d, threads); import pl._

    Morsel.run(threads) { ctx =>
      buildDimVec(htD, dispD, vecSize, dd("d_datekey"), Array(dd("d_year")), dd("d_year"), 1992, 1997, p)
      buildDimVec(htS, dispS, vecSize, su("s_suppkey"), Array(su("s_nation")), su("s_region"), sAsia, sAsia, p)
      buildDimVec(htC, dispC, vecSize, cu("c_custkey"), Array(cu("c_nation")), cu("c_region"), cAsia, cAsia, p)
      ctx.barrier()
      val agg = new TWAgg(shared.local(ctx.workerId), vecSize)
      val probeC = new TWProbe(htC, 1, vecSize)
      val probeS = new TWProbe(htS, 1, vecSize)
      val probeD = new TWProbe(htD, 1, vecSize)
      val selA = new Sel(vecSize); val selB = new Sel(vecSize); val selC = new Sel(vecSize)
      val ckV = new Vec(vecSize); val skV = new Vec(vecSize); val dkV = new Vec(vecSize)
      val hV = new Vec(vecSize)
      val cnV = new Vec(vecSize); val cnV2 = new Vec(vecSize); val cnV3 = new Vec(vecSize)
      val snV = new Vec(vecSize); val snV2 = new Vec(vecSize)
      val yearV = new Vec(vecSize)
      val revV = new Vec(vecSize); val hgV = new Vec(vecSize)
      dispL.batches(vecSize) { (base, n) =>
        Prim.gatherDense(loCust, base, n, ckV, p)
        Prim.hashMurmur(ckV, n, hV, p)
        val m1 = probeC.probe(hV, Array(ckV), n, p)
        if (m1 > 0) {
          probeC.gatherBuild(1, cnV, p)
          selA.n = m1; System.arraycopy(probeC.matchSel.a, 0, selA.a, 0, m1)
          Prim.gather(loSupp, base, selA, skV, p)
          Prim.hashMurmur(skV, m1, hV, p)
          val m2 = probeS.probe(hV, Array(skV), m1, p)
          if (m2 > 0) {
            probeS.gatherBuild(1, snV, p)
            probeS.gatherProbe(cnV, cnV2, p)
            Prim.composeSel(selA, probeS.matchSel, selB, p)
            Prim.gather(loDate, base, selB, dkV, p)
            Prim.hashMurmur(dkV, m2, hV, p)
            val m3 = probeD.probe(hV, Array(dkV), m2, p)
            if (m3 > 0) {
              probeD.gatherBuild(1, yearV, p)
              probeD.gatherProbe(cnV2, cnV3, p)
              probeD.gatherProbe(snV, snV2, p)
              Prim.composeSel(selB, probeD.matchSel, selC, p)
              Prim.gather(loRev, base, selC, revV, p)
              Prim.hashMurmur(cnV3, m3, hgV, p)
              Prim.hashCombine(hgV, snV2, m3, p)
              Prim.hashCombine(hgV, yearV, m3, p)
              agg.findGroups(hgV, Array(cnV3, snV2, yearV), m3, p)
              agg.sumInto(0, revV, m3, p)
            }
          }
        }
      }
      finish(ctx, p)
    }
    result
  }

  def q41(d: SsbDataSet, threads: Int, p: Prof, vecSize: Int = 1024): QueryOut = {
    val pl = new Q41Plan(d, threads); import pl._

    Morsel.run(threads) { ctx =>
      buildDimVec(htD, dispD, vecSize, dd("d_datekey"), Array(dd("d_year")), null, 0, 0, p)
      // part: two-constant IN primitive
      val partSel = new Sel(vecSize); val partKV = new Vec(vecSize); val partHV = new Vec(vecSize)
      val key = pt("p_partkey"); val mf = pt("p_mfgr")
      dispP.batches(vecSize) { (base, n) =>
        val k = Prim.selEq2C(mf, base, n, mfgr1, mfgr2, partSel, p)
        if (k > 0) {
          Prim.gather(key, base, partSel, partKV, p)
          Prim.hashMurmur(partKV, k, partHV, p)
          TWJoin.buildInsert(htP, partHV, Array(partKV), k, p)
        }
      }
      buildDimVec(htS, dispS, vecSize, su("s_suppkey"), Array.empty, su("s_region"), sAm, sAm, p)
      buildDimVec(htC, dispC, vecSize, cu("c_custkey"), Array(cu("c_nation")), cu("c_region"), cAm, cAm, p)
      ctx.barrier()
      val agg = new TWAgg(shared.local(ctx.workerId), vecSize)
      val probeC = new TWProbe(htC, 1, vecSize)
      val probeS = new TWProbe(htS, 1, vecSize)
      val probeP = new TWProbe(htP, 1, vecSize)
      val probeD = new TWProbe(htD, 1, vecSize)
      val selA = new Sel(vecSize); val selB = new Sel(vecSize)
      val selC = new Sel(vecSize); val selD = new Sel(vecSize)
      val ckV = new Vec(vecSize); val skV = new Vec(vecSize)
      val pkV = new Vec(vecSize); val dkV = new Vec(vecSize)
      val hV = new Vec(vecSize)
      val cnV = new Vec(vecSize); val cnV2 = new Vec(vecSize)
      val cnV3 = new Vec(vecSize); val cnV4 = new Vec(vecSize)
      val yearV = new Vec(vecSize)
      val revV = new Vec(vecSize); val costV = new Vec(vecSize)
      val profV = new Vec(vecSize); val hgV = new Vec(vecSize)
      dispL.batches(vecSize) { (base, n) =>
        Prim.gatherDense(loCust, base, n, ckV, p)
        Prim.hashMurmur(ckV, n, hV, p)
        val k1 = probeC.probe(hV, Array(ckV), n, p)
        if (k1 > 0) {
          probeC.gatherBuild(1, cnV, p)
          selA.n = k1; System.arraycopy(probeC.matchSel.a, 0, selA.a, 0, k1)
          Prim.gather(loSupp, base, selA, skV, p)
          Prim.hashMurmur(skV, k1, hV, p)
          val k2 = probeS.probe(hV, Array(skV), k1, p)
          if (k2 > 0) {
            probeS.gatherProbe(cnV, cnV2, p)
            Prim.composeSel(selA, probeS.matchSel, selB, p)
            Prim.gather(loPart, base, selB, pkV, p)
            Prim.hashMurmur(pkV, k2, hV, p)
            val k3 = probeP.probe(hV, Array(pkV), k2, p)
            if (k3 > 0) {
              probeP.gatherProbe(cnV2, cnV3, p)
              Prim.composeSel(selB, probeP.matchSel, selC, p)
              Prim.gather(loDate, base, selC, dkV, p)
              Prim.hashMurmur(dkV, k3, hV, p)
              val k4 = probeD.probe(hV, Array(dkV), k3, p)
              if (k4 > 0) {
                probeD.gatherBuild(1, yearV, p)
                probeD.gatherProbe(cnV3, cnV4, p)
                Prim.composeSel(selC, probeD.matchSel, selD, p)
                Prim.gather(loRev, base, selD, revV, p)
                Prim.gather(loCost, base, selD, costV, p)
                Prim.mapSub(revV, costV, k4, profV, p)
                Prim.hashMurmur(yearV, k4, hgV, p)
                Prim.hashCombine(hgV, cnV4, k4, p)
                agg.findGroups(hgV, Array(yearV, cnV4), k4, p)
                agg.sumInto(0, profV, k4, p)
              }
            }
          }
        }
      }
      finish(ctx, p)
    }
    result
  }

  def all(vecSize: Int = 1024): Map[String, (SsbDataSet, Int, Prof) => QueryOut] = Map(
    "q1.1" -> (q11(_, _, _, vecSize)), "q2.1" -> (q21(_, _, _, vecSize)),
    "q3.1" -> (q31(_, _, _, vecSize)), "q4.1" -> (q41(_, _, _, vecSize)))
}
