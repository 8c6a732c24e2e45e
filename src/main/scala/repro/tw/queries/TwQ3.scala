package repro.tw.queries

import repro.core._
import repro.queries.{Q3Plan, QueryOut, TpchData}
import repro.tw._

/** Tectorwise TPC-H Q3: vectorized build of HT(custkey) and
  * HT(orderkey → date, prio), then the Fig. 2b probe loop over lineitem and
  * a vectorized group-by on (orderkey, orderdate, shippriority).
  */
object TwQ3 {

  def run(d: TpchData, threads: Int, p: Prof, vecSize: Int = 1024): QueryOut = {
    val pl = new Q3Plan(d, threads); import pl._

    Morsel.run(threads) { ctx =>
      val sel = new Sel(vecSize)
      val kV = new Vec(vecSize); val hV = new Vec(vecSize)

      // Pipeline 1: customer → HT_c
      dispC.batches(vecSize) { (base, n) =>
        val k = Prim.selEqC(cSeg, base, n, segCode, sel, p)
        if (k > 0) {
          Prim.gather(cKey, base, sel, kV, p)
          Prim.hashMurmur(kV, k, hV, p)
          TWJoin.buildInsert(htC, hV, Array(kV), k, p)
        }
      }
      ctx.barrier()

      // Pipeline 2: orders ⋈ HT_c → HT_o
      val probeC = new TWProbe(htC, 1, vecSize)
      val ocV = new Vec(vecSize); val okV = new Vec(vecSize)
      val odV = new Vec(vecSize); val opV = new Vec(vecSize)
      val mokV = new Vec(vecSize); val modV = new Vec(vecSize); val mopV = new Vec(vecSize)
      val h2V = new Vec(vecSize)
      dispO.batches(vecSize) { (base, n) =>
        val k = Prim.selLtC(oDate, base, n, cutoff, sel, p)
        if (k > 0) {
          Prim.gather(oCust, base, sel, ocV, p)
          Prim.gather(oKey, base, sel, okV, p)
          Prim.gather(oDate, base, sel, odV, p)
          Prim.gather(oPrio, base, sel, opV, p)
          Prim.hashMurmur(ocV, k, hV, p)
          val nm = probeC.probe(hV, Array(ocV), k, p)
          if (nm > 0) {
            probeC.gatherProbe(okV, mokV, p)
            probeC.gatherProbe(odV, modV, p)
            probeC.gatherProbe(opV, mopV, p)
            Prim.hashMurmur(mokV, nm, h2V, p)
            TWJoin.buildInsert(htO, h2V, Array(mokV, modV, mopV), nm, p)
          }
        }
      }
      ctx.barrier()

      // Pipeline 3: lineitem ⋈ HT_o → vectorized group-by
      val agg = new TWAgg(shared.local(ctx.workerId), vecSize)
      val probeO = new TWProbe(htO, 1, vecSize)
      val lkV = new Vec(vecSize); val epV = new Vec(vecSize); val discV = new Vec(vecSize)
      val mlkV = new Vec(vecSize); val mepV = new Vec(vecSize); val mdiscV = new Vec(vecSize)
      val bdateV = new Vec(vecSize); val bprioV = new Vec(vecSize)
      val t1 = new Vec(vecSize); val revV = new Vec(vecSize); val hgV = new Vec(vecSize)
      dispL.batches(vecSize) { (base, n) =>
        val k = Prim.selGtC(lDate, base, n, cutoff, sel, p)
        if (k > 0) {
          Prim.gather(lKey, base, sel, lkV, p)
          Prim.gather(lEp, base, sel, epV, p)
          Prim.gather(lDisc, base, sel, discV, p)
          Prim.hashMurmur(lkV, k, hV, p)
          val nm = probeO.probe(hV, Array(lkV), k, p)
          if (nm > 0) {
            probeO.gatherProbe(lkV, mlkV, p)
            probeO.gatherProbe(epV, mepV, p)
            probeO.gatherProbe(discV, mdiscV, p)
            probeO.gatherBuild(1, bdateV, p)
            probeO.gatherBuild(2, bprioV, p)
            Prim.hashMurmur(mlkV, nm, hgV, p)
            Prim.hashCombine(hgV, bdateV, nm, p)
            Prim.hashCombine(hgV, bprioV, nm, p)
            agg.findGroups(hgV, Array(mlkV, bdateV, bprioV), nm, p)
            Prim.mapRsubC(mdiscV, 100L, nm, t1, p)
            Prim.mapMul(mepV, t1, nm, revV, p)
            agg.sumInto(0, revV, nm, p)
          }
        }
      }
      finish(ctx, p)
    }
    result
  }
}
