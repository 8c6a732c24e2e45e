package repro.typer

import repro.core._
import repro.queries.{Q1Plan, QueryOut, TpchData}

/** Typer TPC-H Q1: one fused loop — scan lineitem, date filter, fixed-point
  * arithmetic, in-cache aggregation by (returnflag, linestatus). The
  * paper's computational showcase (§4.1): intermediates never leave locals.
  */
object TyperQ1 {
  private val sDate = BranchSim.site()

  def run(d: TpchData, threads: Int, p: Prof): QueryOut = {
    val pl = new Q1Plan(d, threads); import pl._

    Morsel.run(threads) { ctx =>
      val agg = shared.local(ctx.workerId)
      val keyRow = new Array[Long](2)
      if (p ne null) p.enterLoop(48) // scan+filter+hash+agg fused body
      disp.morsels { (start, end) =>
        var i = start
        while (i < end) {
          if (p ne null) p.load(sd.addr + 8L * i)
          val keep = sd.data(i) <= cutoff
          if (p ne null) p.branch(sDate, keep)
          if (keep) {
            val k0 = rf.data(i); val k1 = ls.data(i)
            keyRow(0) = k0; keyRow(1) = k1
            if (p ne null) { p.load(rf.addr + 8L * i); p.load(ls.addr + 8L * i); p.ops(Hash.crc2Cost) }
            val e = agg.findOrInsert(Hash.crc2(k0, k1), keyRow, 0, p)
            val q = qty.data(i); val e0 = ep.data(i); val dc = disc.data(i); val tx = tax.data(i)
            if (p ne null) {
              p.load(qty.addr + 8L * i); p.load(ep.addr + 8L * i)
              p.load(disc.addr + 8L * i); p.load(tax.addr + 8L * i)
              p.ops(4) // (100-d), *(e), (100+t), *
            }
            val discPrice = e0 * (100L - dc)
            val charge = discPrice * (100L + tx)
            agg.addToValue(e, 0, q, p)
            agg.addToValue(e, 1, e0, p)
            agg.addToValue(e, 2, discPrice, p)
            agg.addToValue(e, 3, charge, p)
            agg.addToValue(e, 4, 1L, p)
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
