package repro.tw.queries

import repro.core._
import repro.queries.{Q9Plan, QueryOut, TpchData}
import repro.tw._

/** Tectorwise TPC-H Q9 (lite): vectorized builds of five hash tables, then a
  * cascade of five probe operators over lineitem with selection-vector
  * composition and re-gathering between each — the join-heavy case where
  * vectorization's simple probe loops hide memory latency best (§4.1).
  */
object TwQ9 {

  def run(d: TpchData, threads: Int, p: Prof, vecSize: Int = 1024): QueryOut = {
    val pl = new Q9Plan(d, threads); import pl._

    Morsel.run(threads) { ctx =>
      val sel = new Sel(vecSize)
      val v1 = new Vec(vecSize); val v2 = new Vec(vecSize); val v3 = new Vec(vecSize)
      val hV = new Vec(vecSize)

      // build: part (color filter)
      dispP.batches(vecSize) { (base, n) =>
        val k = Prim.selEqC(pColor, base, n, colorCode, sel, p)
        if (k > 0) {
          Prim.gather(pKey, base, sel, v1, p)
          Prim.hashMurmur(v1, k, hV, p)
          TWJoin.buildInsert(htP, hV, Array(v1), k, p)
        }
      }
      // build: supplier
      dispS.batches(vecSize) { (base, n) =>
        Prim.gatherDense(sKey, base, n, v1, p)
        Prim.gatherDense(sNat, base, n, v2, p)
        Prim.hashMurmur(v1, n, hV, p)
        TWJoin.buildInsert(htS, hV, Array(v1, v2), n, p)
      }
      // build: partsupp (composite key — one hash primitive per column)
      dispPs.batches(vecSize) { (base, n) =>
        Prim.gatherDense(psP, base, n, v1, p)
        Prim.gatherDense(psS, base, n, v2, p)
        Prim.gatherDense(psC, base, n, v3, p)
        Prim.hashMurmur(v1, n, hV, p)
        Prim.hashCombine(hV, v2, n, p)
        TWJoin.buildInsert(htPs, hV, Array(v1, v2, v3), n, p)
      }
      // build: orders (payload year via map primitive)
      dispO.batches(vecSize) { (base, n) =>
        Prim.gatherDense(oKey, base, n, v1, p)
        Prim.gatherDense(oDate, base, n, v2, p)
        Prim.mapYear(v2, n, v3, p)
        Prim.hashMurmur(v1, n, hV, p)
        TWJoin.buildInsert(htO, hV, Array(v1, v3), n, p)
      }
      // build: nation
      dispN.batches(vecSize) { (base, n) =>
        Prim.gatherDense(nKey, base, n, v1, p)
        Prim.gatherDense(nName, base, n, v2, p)
        Prim.hashMurmur(v1, n, hV, p)
        TWJoin.buildInsert(htN, hV, Array(v1, v2), n, p)
      }
      ctx.barrier()

      // probe cascade over lineitem
      val agg = new TWAgg(shared.local(ctx.workerId), vecSize)
      val probeP = new TWProbe(htP, 1, vecSize)
      val probeS = new TWProbe(htS, 1, vecSize)
      val probePs = new TWProbe(htPs, 2, vecSize)
      val probeO = new TWProbe(htO, 1, vecSize)
      val probeN = new TWProbe(htN, 1, vecSize)
      val selA = new Sel(vecSize); val selB = new Sel(vecSize)
      val selC = new Sel(vecSize); val selD = new Sel(vecSize); val selE = new Sel(vecSize)
      val pkV = new Vec(vecSize); val skV = new Vec(vecSize)
      val pk2V = new Vec(vecSize); val sk2V = new Vec(vecSize)
      val okV = new Vec(vecSize)
      val natV = new Vec(vecSize); val natV2 = new Vec(vecSize); val natV3 = new Vec(vecSize)
      val costV = new Vec(vecSize); val costV2 = new Vec(vecSize); val costV3 = new Vec(vecSize)
      val yearV = new Vec(vecSize); val yearV2 = new Vec(vecSize)
      val nameV = new Vec(vecSize)
      val epV = new Vec(vecSize); val discV = new Vec(vecSize); val qtyV = new Vec(vecSize)
      val t1 = new Vec(vecSize); val revV = new Vec(vecSize)
      val costAmtV = new Vec(vecSize); val amtV = new Vec(vecSize); val hgV = new Vec(vecSize)

      dispL.batches(vecSize) { (base, n) =>
        // 1. ⋈ part — dense probe; matchSel positions are batch positions
        Prim.gatherDense(lPart, base, n, pkV, p)
        Prim.hashMurmur(pkV, n, hV, p)
        val m1 = probeP.probe(hV, Array(pkV), n, p)
        if (m1 > 0) {
          selA.n = probeP.matchSel.n
          System.arraycopy(probeP.matchSel.a, 0, selA.a, 0, m1)
          // 2. ⋈ supplier
          Prim.gather(lSupp, base, selA, skV, p)
          Prim.hashMurmur(skV, m1, hV, p)
          val m2 = probeS.probe(hV, Array(skV), m1, p)
          if (m2 > 0) {
            probeS.gatherBuild(1, natV, p)
            Prim.composeSel(selA, probeS.matchSel, selB, p)
            // 3. ⋈ partsupp (composite)
            Prim.gather(lPart, base, selB, pk2V, p)
            Prim.gather(lSupp, base, selB, sk2V, p)
            Prim.hashMurmur(pk2V, m2, hV, p)
            Prim.hashCombine(hV, sk2V, m2, p)
            val m3 = probePs.probe(hV, Array(pk2V, sk2V), m2, p)
            if (m3 > 0) {
              probePs.gatherBuild(2, costV, p)
              probePs.gatherProbe(natV, natV2, p)
              Prim.composeSel(selB, probePs.matchSel, selC, p)
              // 4. ⋈ orders
              Prim.gather(lOrd, base, selC, okV, p)
              Prim.hashMurmur(okV, m3, hV, p)
              val m4 = probeO.probe(hV, Array(okV), m3, p)
              if (m4 > 0) {
                probeO.gatherBuild(1, yearV, p)
                probeO.gatherProbe(natV2, natV3, p)
                probeO.gatherProbe(costV, costV2, p)
                Prim.composeSel(selC, probeO.matchSel, selD, p)
                // 5. ⋈ nation
                Prim.hashMurmur(natV3, m4, hV, p)
                val m5 = probeN.probe(hV, Array(natV3), m4, p)
                if (m5 > 0) {
                  probeN.gatherBuild(1, nameV, p)
                  probeN.gatherProbe(yearV, yearV2, p)
                  probeN.gatherProbe(costV2, costV3, p)
                  Prim.composeSel(selD, probeN.matchSel, selE, p)
                  // arithmetic + group-by
                  Prim.gather(lEp, base, selE, epV, p)
                  Prim.gather(lDisc, base, selE, discV, p)
                  Prim.gather(lQty, base, selE, qtyV, p)
                  Prim.mapRsubC(discV, 100L, m5, t1, p)
                  Prim.mapMul(epV, t1, m5, revV, p)
                  Prim.mapMul(costV3, qtyV, m5, costAmtV, p)
                  Prim.mapSub(revV, costAmtV, m5, amtV, p)
                  Prim.hashMurmur(nameV, m5, hgV, p)
                  Prim.hashCombine(hgV, yearV2, m5, p)
                  agg.findGroups(hgV, Array(nameV, yearV2), m5, p)
                  agg.sumInto(0, amtV, m5, p)
                }
              }
            }
          }
        }
      }
      finish(ctx, p)
    }
    result
  }
}
