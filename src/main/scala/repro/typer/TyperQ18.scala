package repro.typer

import repro.core._
import repro.queries.{Q18Plan, QueryOut, TpchData}

/** Typer TPC-H Q18 (lite): the high-cardinality-aggregation stress test.
  *  1. scan lineitem → two-phase parallel aggregation by l_orderkey
  *     (~|orders| groups — the paper's 1.5M-groups-at-SF1 bottleneck);
  *  2. filter groups on HAVING sum(qty) > τ, publish survivors into a shared
  *     join HT (orderkey → sum);
  *  3. scan customer → HT(custkey);
  *  4. scan orders, probe both HTs, emit result rows.
  */
object TyperQ18 {
  private val sHaving = BranchSim.site()
  private val sOHit = BranchSim.site(); private val sCHit = BranchSim.site()

  def run(d: TpchData, threads: Int, p: Prof): QueryOut = {
    val pl = new Q18Plan(d, threads); import pl._

    Morsel.run(threads) { ctx =>
      // 1. lineitem → per-worker pre-aggregation by orderkey
      val agg = shared.local(ctx.workerId)
      val keyRow = new Array[Long](1)
      if (p ne null) p.enterLoop(40)
      dispL.morsels { (start, end) =>
        var i = start
        while (i < end) {
          val k = lOrd.data(i)
          keyRow(0) = k
          if (p ne null) { p.load(lOrd.addr + 8L * i); p.load(lQty.addr + 8L * i); p.ops(Hash.crcCost) }
          val g = agg.findOrInsert(Hash.crc(k), keyRow, 0, p)
          agg.addToValue(g, 0, lQty.data(i), p)
          i += 1
        }
      }
      if (p ne null) { p.loop(li.numRows); p.exitLoop() }
      ctx.barrier()
      // 2. merge partitions, HAVING filter, publish into shared join HT
      val fin = shared.mergePartition(ctx.workerId, p)
      if (p ne null) p.enterLoop(30)
      var e = 0
      while (e < fin.size) {
        val keep = fin.value(e, 0) > threshold
        if (p ne null) { p.ops(1); p.branch(sHaving, keep) }
        if (keep) {
          val k = fin.key(e, 0)
          if (p ne null) p.ops(Hash.crcCost)
          val ne = htQual.reserve(p)
          htQual.setSlot(ne, 0, k, p); htQual.setSlot(ne, 1, fin.value(e, 0), p)
          htQual.publish(ne, Hash.crc(k), p)
        }
        e += 1
      }
      if (p ne null) { p.loop(fin.size); p.exitLoop() }
      // 3. customer → HT_c
      if (p ne null) p.enterLoop(18)
      dispC.morsels { (start, end) =>
        var i = start
        while (i < end) {
          val k = cKey.data(i)
          if (p ne null) { p.load(cKey.addr + 8L * i); p.ops(Hash.crcCost) }
          val ne = htC.reserve(p); htC.setSlot(ne, 0, k, p); htC.publish(ne, Hash.crc(k), p)
          i += 1
        }
      }
      if (p ne null) { p.loop(cu.numRows); p.exitLoop() }
      ctx.barrier()
      // 4. orders probe both HTs, emit
      if (p ne null) p.enterLoop(55)
      dispO.morsels { (start, end) =>
        var i = start
        while (i < end) {
          val ok = oKey.data(i)
          if (p ne null) { p.load(oKey.addr + 8L * i); p.ops(Hash.crcCost) }
          val eQ = TyperOps.probe1(htQual, Hash.crc(ok), ok, p)
          if (p ne null) p.branch(sOHit, eQ >= 0)
          if (eQ >= 0) {
            val ck = oCust.data(i)
            if (p ne null) { p.load(oCust.addr + 8L * i); p.ops(Hash.crcCost) }
            val eC = TyperOps.probe1(htC, Hash.crc(ck), ck, p)
            if (p ne null) p.branch(sCHit, eC >= 0)
            if (eC >= 0) {
              if (p ne null) { p.load(oDate.addr + 8L * i); p.load(oTotal.addr + 8L * i) }
              out.add(row(ck, ok, oDate.data(i), oTotal.data(i), htQual.getSlot(eQ, 1, p)))
            }
          }
          i += 1
        }
      }
      if (p ne null) { p.loop(or.numRows); p.exitLoop() }
    }
    result
  }
}
