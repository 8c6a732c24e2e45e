package repro.tw.queries

import repro.core._
import repro.queries.{Q18Plan, QueryOut, TpchData}
import repro.tw._

/** Tectorwise TPC-H Q18 (lite): vectorized high-cardinality aggregation of
  * lineitem by orderkey (the §4.1 bottleneck), HAVING filter re-vectorized
  * into the qualifying-orders hash table, then probes from orders.
  */
object TwQ18 {

  def run(d: TpchData, threads: Int, p: Prof, vecSize: Int = 1024): QueryOut = {
    val pl = new Q18Plan(d, threads); import pl._

    Morsel.run(threads) { ctx =>
      val kV = new Vec(vecSize); val qV = new Vec(vecSize); val hV = new Vec(vecSize)
      // 1. lineitem → per-worker aggregation by orderkey
      val agg = new TWAgg(shared.local(ctx.workerId), vecSize)
      dispL.batches(vecSize) { (base, n) =>
        Prim.gatherDense(lOrd, base, n, kV, p)
        Prim.gatherDense(lQty, base, n, qV, p)
        Prim.hashMurmur(kV, n, hV, p)
        agg.findGroups(hV, Array(kV), n, p)
        agg.sumInto(0, qV, n, p)
      }
      ctx.barrier()
      // 2. merge; HAVING-filter survivors into the qualifying-orders HT
      //    (vector-at-a-time over the merged groups)
      val fin = shared.mergePartition(ctx.workerId, p)
      val sV = new Vec(vecSize)
      var e = 0
      if (p ne null) p.enterLoop(8)
      while (e < fin.size) {
        var k = 0
        while (e < fin.size && k < vecSize) {
          val s = fin.value(e, 0)
          val keep = s > threshold
          if (p ne null) { p.ops(2) }
          if (keep) { kV.a(k) = fin.key(e, 0); sV.a(k) = s; k += 1 }
          e += 1
        }
        if (k > 0) {
          Prim.hashMurmur(kV, k, hV, p)
          TWJoin.buildInsert(htQual, hV, Array(kV, sV), k, p)
        }
      }
      if (p ne null) p.exitLoop()
      // 3. customer → HT_c
      dispC.batches(vecSize) { (base, n) =>
        Prim.gatherDense(cKey, base, n, kV, p)
        Prim.hashMurmur(kV, n, hV, p)
        TWJoin.buildInsert(htC, hV, Array(kV), n, p)
      }
      ctx.barrier()
      // 4. orders probes
      val probeQ = new TWProbe(htQual, 1, vecSize)
      val probeC = new TWProbe(htC, 1, vecSize)
      val okV = new Vec(vecSize); val sumV = new Vec(vecSize)
      val ocV = new Vec(vecSize); val selA = new Sel(vecSize); val selB = new Sel(vecSize)
      val mokV = new Vec(vecSize); val sumV2 = new Vec(vecSize)
      val odV = new Vec(vecSize); val otV = new Vec(vecSize); val mocV = new Vec(vecSize)
      dispO.batches(vecSize) { (base, n) =>
        Prim.gatherDense(oKey, base, n, okV, p)
        Prim.hashMurmur(okV, n, hV, p)
        val m1 = probeQ.probe(hV, Array(okV), n, p)
        if (m1 > 0) {
          probeQ.gatherBuild(1, sumV, p)
          selA.n = m1
          System.arraycopy(probeQ.matchSel.a, 0, selA.a, 0, m1)
          Prim.gather(oCust, base, selA, ocV, p)
          Prim.hashMurmur(ocV, m1, hV, p)
          val m2 = probeC.probe(hV, Array(ocV), m1, p)
          if (m2 > 0) {
            probeC.gatherProbe(sumV, sumV2, p)
            probeC.gatherProbe(ocV, mocV, p)
            Prim.composeSel(selA, probeC.matchSel, selB, p)
            Prim.gather(oKey, base, selB, mokV, p)
            Prim.gather(oDate, base, selB, odV, p)
            Prim.gather(oTotal, base, selB, otV, p)
            var i = 0
            while (i < m2) {
              out.add(row(mocV.a(i), mokV.a(i), odV.a(i), otV.a(i), sumV2.a(i)))
              i += 1
            }
          }
        }
      }
    }
    result
  }
}
