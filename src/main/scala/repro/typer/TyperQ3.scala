package repro.typer

import repro.core._
import repro.queries.{Q3Plan, QueryOut, TpchData}

/** Typer TPC-H Q3: three fused pipelines —
  *  1. scan customer, segment filter, build HT(custkey);
  *  2. scan orders, date filter, probe HT_c, build HT(orderkey → date, prio);
  *  3. scan lineitem, date filter, probe HT_o, aggregate revenue by
  *     (orderkey, orderdate, shippriority).
  * Barriers between pipelines; hash tables shared across workers (§6.1).
  */
object TyperQ3 {
  private val sSeg = BranchSim.site(); private val sODate = BranchSim.site()
  private val sCHit = BranchSim.site(); private val sLDate = BranchSim.site()
  private val sOHit = BranchSim.site()

  def run(d: TpchData, threads: Int, p: Prof): QueryOut = {
    val pl = new Q3Plan(d, threads); import pl._

    Morsel.run(threads) { ctx =>
      // Pipeline 1: customer → HT_c
      if (p ne null) p.enterLoop(24)
      dispC.morsels { (start, end) =>
        var i = start
        while (i < end) {
          if (p ne null) p.load(cSeg.addr + 8L * i)
          val keep = cSeg.data(i) == segCode
          if (p ne null) p.branch(sSeg, keep)
          if (keep) {
            val k = cKey.data(i)
            if (p ne null) { p.load(cKey.addr + 8L * i); p.ops(Hash.crcCost) }
            val e = htC.reserve(p)
            htC.setSlot(e, 0, k, p)
            htC.publish(e, Hash.crc(k), p)
          }
          i += 1
        }
      }
      if (p ne null) { p.loop(cu.numRows); p.exitLoop() }
      ctx.barrier()

      // Pipeline 2: orders ⋈ HT_c → HT_o
      if (p ne null) p.enterLoop(40)
      dispO.morsels { (start, end) =>
        var i = start
        while (i < end) {
          if (p ne null) p.load(oDate.addr + 8L * i)
          val keep = oDate.data(i) < cutoff
          if (p ne null) p.branch(sODate, keep)
          if (keep) {
            val ck = oCust.data(i)
            if (p ne null) { p.load(oCust.addr + 8L * i); p.ops(Hash.crcCost) }
            val hit = TyperOps.probe1(htC, Hash.crc(ck), ck, p)
            if (p ne null) p.branch(sCHit, hit >= 0)
            if (hit >= 0) {
              val ok = oKey.data(i)
              if (p ne null) {
                p.load(oKey.addr + 8L * i); p.load(oPrio.addr + 8L * i)
                p.ops(Hash.crcCost)
              }
              val e = htO.reserve(p)
              htO.setSlot(e, 0, ok, p)
              htO.setSlot(e, 1, oDate.data(i), p)
              htO.setSlot(e, 2, oPrio.data(i), p)
              htO.publish(e, Hash.crc(ok), p)
            }
          }
          i += 1
        }
      }
      if (p ne null) { p.loop(or.numRows); p.exitLoop() }
      ctx.barrier()

      // Pipeline 3: lineitem ⋈ HT_o → group-by aggregation
      val agg = shared.local(ctx.workerId)
      val keyRow = new Array[Long](3)
      if (p ne null) p.enterLoop(64)
      dispL.morsels { (start, end) =>
        var i = start
        while (i < end) {
          if (p ne null) p.load(lDate.addr + 8L * i)
          val keep = lDate.data(i) > cutoff
          if (p ne null) p.branch(sLDate, keep)
          if (keep) {
            val ok = lKey.data(i)
            if (p ne null) { p.load(lKey.addr + 8L * i); p.ops(Hash.crcCost) }
            val hit = TyperOps.probe1(htO, Hash.crc(ok), ok, p)
            if (p ne null) p.branch(sOHit, hit >= 0)
            if (hit >= 0) {
              val odate = htO.getSlot(hit, 1, p)
              val oprio = htO.getSlot(hit, 2, p)
              keyRow(0) = ok; keyRow(1) = odate; keyRow(2) = oprio
              if (p ne null) {
                p.load(lEp.addr + 8L * i); p.load(lDisc.addr + 8L * i)
                p.ops(2 + Hash.crc2Cost)
              }
              val rev = lEp.data(i) * (100L - lDisc.data(i))
              val g = agg.findOrInsert(Hash.crc2(Hash.crc2(ok, odate), oprio), keyRow, 0, p)
              agg.addToValue(g, 0, rev, p)
            }
          }
          i += 1
        }
      }
      if (p ne null) { p.loop(li.numRows); p.exitLoop() }
      finish(ctx, p)
    }
    result
  }
}
