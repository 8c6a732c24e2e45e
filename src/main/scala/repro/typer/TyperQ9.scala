package repro.typer

import repro.core._
import repro.queries.{Q9Plan, QueryOut, TpchData}

/** Typer TPC-H Q9 (lite): five build pipelines then one big fused probe
  * pipeline over lineitem — part (color filter), supplier, partsupp
  * (composite key!), orders (year payload), nation; aggregate profit by
  * (nation, year). The paper's join-heavy stress test.
  */
object TyperQ9 {
  private val sColor = BranchSim.site()
  private val sPHit = BranchSim.site(); private val sSHit = BranchSim.site()
  private val sPsHit = BranchSim.site(); private val sOHit = BranchSim.site()

  def run(d: TpchData, threads: Int, p: Prof): QueryOut = {
    val pl = new Q9Plan(d, threads); import pl._

    Morsel.run(threads) { ctx =>
      // part (filtered)
      if (p ne null) p.enterLoop(22)
      dispP.morsels { (start, end) =>
        var i = start
        while (i < end) {
          if (p ne null) p.load(pColor.addr + 8L * i)
          val keep = pColor.data(i) == colorCode
          if (p ne null) p.branch(sColor, keep)
          if (keep) {
            val k = pKey.data(i)
            if (p ne null) { p.load(pKey.addr + 8L * i); p.ops(Hash.crcCost) }
            val e = htP.reserve(p); htP.setSlot(e, 0, k, p); htP.publish(e, Hash.crc(k), p)
          }
          i += 1
        }
      }
      if (p ne null) { p.loop(pt.numRows); p.exitLoop() }
      // supplier
      if (p ne null) p.enterLoop(20)
      dispS.morsels { (start, end) =>
        var i = start
        while (i < end) {
          val k = sKey.data(i)
          if (p ne null) { p.load(sKey.addr + 8L * i); p.load(sNat.addr + 8L * i); p.ops(Hash.crcCost) }
          val e = htS.reserve(p)
          htS.setSlot(e, 0, k, p); htS.setSlot(e, 1, sNat.data(i), p)
          htS.publish(e, Hash.crc(k), p)
          i += 1
        }
      }
      if (p ne null) { p.loop(su.numRows); p.exitLoop() }
      // partsupp (composite key)
      if (p ne null) p.enterLoop(24)
      dispPs.morsels { (start, end) =>
        var i = start
        while (i < end) {
          val k0 = psP.data(i); val k1 = psS.data(i)
          if (p ne null) {
            p.load(psP.addr + 8L * i); p.load(psS.addr + 8L * i)
            p.load(psC.addr + 8L * i); p.ops(Hash.crc2Cost)
          }
          val e = htPs.reserve(p)
          htPs.setSlot(e, 0, k0, p); htPs.setSlot(e, 1, k1, p)
          htPs.setSlot(e, 2, psC.data(i), p)
          htPs.publish(e, Hash.crc2(k0, k1), p)
          i += 1
        }
      }
      if (p ne null) { p.loop(ps.numRows); p.exitLoop() }
      // orders (payload: year)
      if (p ne null) p.enterLoop(26)
      dispO.morsels { (start, end) =>
        var i = start
        while (i < end) {
          val k = oKey.data(i)
          if (p ne null) { p.load(oKey.addr + 8L * i); p.load(oDate.addr + 8L * i); p.ops(Hash.crcCost + 5) }
          val e = htO.reserve(p)
          htO.setSlot(e, 0, k, p)
          htO.setSlot(e, 1, DateUtil.yearOf(oDate.data(i)).toLong, p)
          htO.publish(e, Hash.crc(k), p)
          i += 1
        }
      }
      if (p ne null) { p.loop(or.numRows); p.exitLoop() }
      // nation
      if (p ne null) p.enterLoop(20)
      dispN.morsels { (start, end) =>
        var i = start
        while (i < end) {
          val k = nKey.data(i)
          if (p ne null) { p.load(nKey.addr + 8L * i); p.load(nName.addr + 8L * i); p.ops(Hash.crcCost) }
          val e = htN.reserve(p)
          htN.setSlot(e, 0, k, p); htN.setSlot(e, 1, nName.data(i), p)
          htN.publish(e, Hash.crc(k), p)
          i += 1
        }
      }
      if (p ne null) { p.loop(na.numRows); p.exitLoop() }
      ctx.barrier()

      // the one big fused probe pipeline over lineitem
      val agg = shared.local(ctx.workerId)
      val keyRow = new Array[Long](2)
      if (p ne null) p.enterLoop(130)
      dispL.morsels { (start, end) =>
        var i = start
        while (i < end) {
          val pk = lPart.data(i)
          if (p ne null) { p.load(lPart.addr + 8L * i); p.ops(Hash.crcCost) }
          val eP = TyperOps.probe1(htP, Hash.crc(pk), pk, p)
          if (p ne null) p.branch(sPHit, eP >= 0)
          if (eP >= 0) {
            val sk = lSupp.data(i)
            if (p ne null) { p.load(lSupp.addr + 8L * i); p.ops(Hash.crcCost) }
            val eS = TyperOps.probe1(htS, Hash.crc(sk), sk, p)
            if (p ne null) p.branch(sSHit, eS >= 0)
            if (eS >= 0) {
              if (p ne null) p.ops(Hash.crc2Cost)
              val ePs = TyperOps.probe2(htPs, Hash.crc2(pk, sk), pk, sk, p)
              if (p ne null) p.branch(sPsHit, ePs >= 0)
              if (ePs >= 0) {
                val ok = lOrd.data(i)
                if (p ne null) { p.load(lOrd.addr + 8L * i); p.ops(Hash.crcCost) }
                val eO = TyperOps.probe1(htO, Hash.crc(ok), ok, p)
                if (p ne null) p.branch(sOHit, eO >= 0)
                if (eO >= 0) {
                  val natKey = htS.getSlot(eS, 1, p)
                  if (p ne null) p.ops(Hash.crcCost)
                  val eN = TyperOps.probe1(htN, Hash.crc(natKey), natKey, p)
                  // nation always hits (FK complete); still guard
                  if (eN >= 0) {
                    val year = htO.getSlot(eO, 1, p)
                    val nameCode = htN.getSlot(eN, 1, p)
                    if (p ne null) {
                      p.load(lEp.addr + 8L * i); p.load(lDisc.addr + 8L * i)
                      p.load(lQty.addr + 8L * i); p.ops(4 + Hash.crc2Cost)
                    }
                    val amount = lEp.data(i) * (100L - lDisc.data(i)) -
                                 htPs.getSlot(ePs, 2, p) * lQty.data(i)
                    keyRow(0) = nameCode; keyRow(1) = year
                    val g = agg.findOrInsert(Hash.crc2(nameCode, year), keyRow, 0, p)
                    agg.addToValue(g, 0, amount, p)
                  }
                }
              }
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
