package repro.ssb

import repro.core._
import repro.queries.QueryOut
import repro.typer.TyperOps

/** Typer (fused data-centric) implementations of SSB Q1.1/Q2.1/Q3.1/Q4.1
  * (§4.4): filtered dimension builds, then one fused probe loop over
  * lineorder per query.
  */
object SsbTyper {
  private val sYear = BranchSim.site(); private val sDisc1 = BranchSim.site()
  private val sDisc2 = BranchSim.site(); private val sQty = BranchSim.site()
  private val sDHit = BranchSim.site(); private val sPHit = BranchSim.site()
  private val sSHit = BranchSim.site(); private val sCHit = BranchSim.site()
  private val sCat = BranchSim.site(); private val sReg = BranchSim.site()
  private val sMfgr = BranchSim.site()

  /** Build a (key → payload…) HT from dimension columns with an optional
    * equality/range filter on one column; fused single loop.
    */
  private def buildDim(ht: HashTable, disp: Morsel.Dispenser, key: LongCol,
                       payload: Array[LongCol], filterCol: LongCol, lo: Long, hi: Long,
                       site: Int, p: Prof): Unit = {
    if (p ne null) p.enterLoop(22 + 2 * payload.length)
    disp.morsels { (start, end) =>
      var i = start
      while (i < end) {
        var keep = true
        if (filterCol ne null) {
          if (p ne null) p.load(filterCol.addr + 8L * i)
          val v = filterCol.data(i)
          keep = v >= lo && v <= hi
          if (p ne null) { p.ops(1); p.branch(site, keep) }
        }
        if (keep) {
          val k = key.data(i)
          if (p ne null) { p.load(key.addr + 8L * i); p.ops(Hash.crcCost) }
          val e = ht.reserve(p)
          ht.setSlot(e, 0, k, p)
          var s = 0
          while (s < payload.length) {
            if (p ne null) p.load(payload(s).addr + 8L * i)
            ht.setSlot(e, 1 + s, payload(s).data(i), p)
            s += 1
          }
          ht.publish(e, Hash.crc(k), p)
        }
        i += 1
      }
    }
    if (p ne null) { p.loop(key.size); p.exitLoop() }
  }

  def q11(d: SsbDataSet, threads: Int, p: Prof): QueryOut = {
    val pl = new Q11Plan(d); import pl._

    Morsel.run(threads) { ctx =>
      buildDim(htD, dispD, dd("d_datekey"), Array.empty, dd("d_year"), 1993, 1993, sYear, p)
      ctx.barrier()
      if (p ne null) p.enterLoop(40)
      dispL.morsels { (start, end) =>
        var sum = 0L; var hits = 0L
        var i = start
        while (i < end) {
          if (p ne null) p.load(loDisc.addr + 8L * i)
          val dc = loDisc.data(i)
          val c1 = dc >= 1
          if (p ne null) p.branch(sDisc1, c1)
          if (c1) {
            val c2 = dc <= 3
            if (p ne null) { p.ops(1); p.branch(sDisc2, c2) }
            if (c2) {
              if (p ne null) p.load(loQty.addr + 8L * i)
              val c3 = loQty.data(i) < 25
              if (p ne null) p.branch(sQty, c3)
              if (c3) {
                val dk = loDate.data(i)
                if (p ne null) { p.load(loDate.addr + 8L * i); p.ops(Hash.crcCost) }
                val hit = TyperOps.probe1(htD, Hash.crc(dk), dk, p)
                if (p ne null) p.branch(sDHit, hit >= 0)
                if (hit >= 0) {
                  if (p ne null) { p.load(loEp.addr + 8L * i); p.ops(2) }
                  sum += loEp.data(i) * dc
                  hits += 1
                }
              }
            }
          }
          i += 1
        }
        total.add(sum); matched.addAndGet(hits)
      }
      if (p ne null) { p.loop(lo.numRows); p.exitLoop() }
    }
    result
  }

  def q21(d: SsbDataSet, threads: Int, p: Prof): QueryOut = {
    val pl = new Q21Plan(d, threads); import pl._

    Morsel.run(threads) { ctx =>
      buildDim(htD, dispD, dd("d_datekey"), Array(dd("d_year")), null, 0, 0, 0, p)
      buildDim(htP, dispP, pt("p_partkey"), Array(pt("p_brand1")),
               pt("p_category"), catCode, catCode, sCat, p)
      buildDim(htS, dispS, su("s_suppkey"), Array.empty,
               su("s_region"), regCode, regCode, sReg, p)
      ctx.barrier()
      val agg = shared.local(ctx.workerId)
      val keyRow = new Array[Long](2)
      if (p ne null) p.enterLoop(90)
      dispL.morsels { (start, end) =>
        var i = start
        while (i < end) {
          val pk = loPart.data(i)
          if (p ne null) { p.load(loPart.addr + 8L * i); p.ops(Hash.crcCost) }
          val eP = TyperOps.probe1(htP, Hash.crc(pk), pk, p)
          if (p ne null) p.branch(sPHit, eP >= 0)
          if (eP >= 0) {
            val sk = loSupp.data(i)
            if (p ne null) { p.load(loSupp.addr + 8L * i); p.ops(Hash.crcCost) }
            val eS = TyperOps.probe1(htS, Hash.crc(sk), sk, p)
            if (p ne null) p.branch(sSHit, eS >= 0)
            if (eS >= 0) {
              val dk = loDate.data(i)
              if (p ne null) { p.load(loDate.addr + 8L * i); p.ops(Hash.crcCost) }
              val eD = TyperOps.probe1(htD, Hash.crc(dk), dk, p)
              if (p ne null) p.branch(sDHit, eD >= 0)
              if (eD >= 0) {
                keyRow(0) = htD.getSlot(eD, 1, p) // year
                keyRow(1) = htP.getSlot(eP, 1, p) // brand1 code
                if (p ne null) { p.load(loRev.addr + 8L * i); p.ops(Hash.crc2Cost) }
                val g = agg.findOrInsert(Hash.crc2(keyRow(0), keyRow(1)), keyRow, 0, p)
                agg.addToValue(g, 0, loRev.data(i), p)
              }
            }
          }
          i += 1
        }
      }
      if (p ne null) { p.loop(lo.numRows); p.exitLoop() }
      finish(ctx, p)
    }
    result
  }

  def q31(d: SsbDataSet, threads: Int, p: Prof): QueryOut = {
    val pl = new Q31Plan(d, threads); import pl._

    Morsel.run(threads) { ctx =>
      buildDim(htD, dispD, dd("d_datekey"), Array(dd("d_year")), dd("d_year"), 1992, 1997, sYear, p)
      buildDim(htS, dispS, su("s_suppkey"), Array(su("s_nation")), su("s_region"), sAsia, sAsia, sReg, p)
      buildDim(htC, dispC, cu("c_custkey"), Array(cu("c_nation")), cu("c_region"), cAsia, cAsia, sReg, p)
      ctx.barrier()
      val agg = shared.local(ctx.workerId)
      val keyRow = new Array[Long](3)
      if (p ne null) p.enterLoop(95)
      dispL.morsels { (start, end) =>
        var i = start
        while (i < end) {
          val ck = loCust.data(i)
          if (p ne null) { p.load(loCust.addr + 8L * i); p.ops(Hash.crcCost) }
          val eC = TyperOps.probe1(htC, Hash.crc(ck), ck, p)
          if (p ne null) p.branch(sCHit, eC >= 0)
          if (eC >= 0) {
            val sk = loSupp.data(i)
            if (p ne null) { p.load(loSupp.addr + 8L * i); p.ops(Hash.crcCost) }
            val eS = TyperOps.probe1(htS, Hash.crc(sk), sk, p)
            if (p ne null) p.branch(sSHit, eS >= 0)
            if (eS >= 0) {
              val dk = loDate.data(i)
              if (p ne null) { p.load(loDate.addr + 8L * i); p.ops(Hash.crcCost) }
              val eD = TyperOps.probe1(htD, Hash.crc(dk), dk, p)
              if (p ne null) p.branch(sDHit, eD >= 0)
              if (eD >= 0) {
                keyRow(0) = htC.getSlot(eC, 1, p)
                keyRow(1) = htS.getSlot(eS, 1, p)
                keyRow(2) = htD.getSlot(eD, 1, p)
                if (p ne null) { p.load(loRev.addr + 8L * i); p.ops(2 * Hash.crc2Cost) }
                val g = agg.findOrInsert(
                  Hash.crc2(Hash.crc2(keyRow(0), keyRow(1)), keyRow(2)), keyRow, 0, p)
                agg.addToValue(g, 0, loRev.data(i), p)
              }
            }
          }
          i += 1
        }
      }
      if (p ne null) { p.loop(lo.numRows); p.exitLoop() }
      finish(ctx, p)
    }
    result
  }

  def q41(d: SsbDataSet, threads: Int, p: Prof): QueryOut = {
    val pl = new Q41Plan(d, threads); import pl._

    Morsel.run(threads) { ctx =>
      buildDim(htD, dispD, dd("d_datekey"), Array(dd("d_year")), null, 0, 0, 0, p)
      // part: mfgr IN (m1, m2) — fused loop with a two-way equality
      val key = pt("p_partkey"); val mf = pt("p_mfgr")
      if (p ne null) p.enterLoop(24)
      dispP.morsels { (start, end) =>
        var i = start
        while (i < end) {
          if (p ne null) p.load(mf.addr + 8L * i)
          val v = mf.data(i)
          val keep = v == mfgr1 || v == mfgr2
          if (p ne null) { p.ops(1); p.branch(sMfgr, keep) }
          if (keep) {
            val k = key.data(i)
            if (p ne null) { p.load(key.addr + 8L * i); p.ops(Hash.crcCost) }
            val e = htP.reserve(p); htP.setSlot(e, 0, k, p); htP.publish(e, Hash.crc(k), p)
          }
          i += 1
        }
      }
      if (p ne null) { p.loop(pt.numRows); p.exitLoop() }
      buildDim(htS, dispS, su("s_suppkey"), Array.empty, su("s_region"), sAm, sAm, sReg, p)
      buildDim(htC, dispC, cu("c_custkey"), Array(cu("c_nation")), cu("c_region"), cAm, cAm, sReg, p)
      ctx.barrier()
      val agg = shared.local(ctx.workerId)
      val keyRow = new Array[Long](2)
      if (p ne null) p.enterLoop(110)
      dispL.morsels { (start, end) =>
        var i = start
        while (i < end) {
          val ck = loCust.data(i)
          if (p ne null) { p.load(loCust.addr + 8L * i); p.ops(Hash.crcCost) }
          val eC = TyperOps.probe1(htC, Hash.crc(ck), ck, p)
          if (p ne null) p.branch(sCHit, eC >= 0)
          if (eC >= 0) {
            val sk = loSupp.data(i)
            if (p ne null) { p.load(loSupp.addr + 8L * i); p.ops(Hash.crcCost) }
            val eS = TyperOps.probe1(htS, Hash.crc(sk), sk, p)
            if (p ne null) p.branch(sSHit, eS >= 0)
            if (eS >= 0) {
              val pk = loPart.data(i)
              if (p ne null) { p.load(loPart.addr + 8L * i); p.ops(Hash.crcCost) }
              val eP = TyperOps.probe1(htP, Hash.crc(pk), pk, p)
              if (p ne null) p.branch(sPHit, eP >= 0)
              if (eP >= 0) {
                val dk = loDate.data(i)
                if (p ne null) { p.load(loDate.addr + 8L * i); p.ops(Hash.crcCost) }
                val eD = TyperOps.probe1(htD, Hash.crc(dk), dk, p)
                if (eD >= 0) {
                  keyRow(0) = htD.getSlot(eD, 1, p)
                  keyRow(1) = htC.getSlot(eC, 1, p)
                  if (p ne null) {
                    p.load(loRev.addr + 8L * i); p.load(loCost.addr + 8L * i)
                    p.ops(1 + Hash.crc2Cost)
                  }
                  val g = agg.findOrInsert(Hash.crc2(keyRow(0), keyRow(1)), keyRow, 0, p)
                  agg.addToValue(g, 0, loRev.data(i) - loCost.data(i), p)
                }
              }
            }
          }
          i += 1
        }
      }
      if (p ne null) { p.loop(lo.numRows); p.exitLoop() }
      finish(ctx, p)
    }
    result
  }

  val all: Map[String, (SsbDataSet, Int, Prof) => QueryOut] = Map(
    "q1.1" -> (q11(_, _, _)), "q2.1" -> (q21(_, _, _)),
    "q3.1" -> (q31(_, _, _)), "q4.1" -> (q41(_, _, _)))
}
