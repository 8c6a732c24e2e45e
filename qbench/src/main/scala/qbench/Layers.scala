package qbench

import java.util.concurrent.atomic.AtomicLongArray
import repro.core.{AggOp, ColTable, Hash, HashTable, Morsel, SharedAgg}
import repro.queries.TpchConsts
import repro.tw.{Prim, Sel, Vec}
import scala.collection.mutable

/** Replays of single layers, called from outside the program through their
  * public functions, for the traced run's per-layer metrics. Each replay
  * repeats its calls and reports medians.
  */
object Layers {
  type Metrics = mutable.LinkedHashMap[String, (Double, String)]

  private def ms(ns: Long): Double = ns / 1e6

  private def medianOf(reps: Int)(f: => Double): Double = Stats.median(Seq.fill(reps)(f))

  /** `core.morsel.spawn_ms`: one empty `Morsel.run` on the workload's workers. */
  def morsel(threads: Int, out: Metrics, trace: Trace): Unit = trace.span("core.morsel") {
    out("core.morsel.spawn_ms") = (medianOf(101) {
      val t0 = System.nanoTime(); Morsel.run(threads)(_ => ()); ms(System.nanoTime() - t0)
    }, "ms")
  }

  /** `core.agg.*`: Q18's `l_orderkey` aggregation (sum of quantity) through
    * `SharedAgg.local`/`findOrInsert` (phase 1) and `mergePartition` (phase
    * 2) under `Morsel.run`, sized as TyperQ18 sizes it.
    */
  def agg(li: ColTable, orders: Int, threads: Int, out: Metrics, trace: Trace): Unit = trace.span("core.agg") {
    val key = li("l_orderkey").data; val qty = li("l_quantity_c").data
    val runs = Seq.fill(7) {
      val shared = new SharedAgg(1, 1, Array(AggOp.Sum), threads, orders / threads + 16)
      val disp = Morsel.scanDispenser(li, 2)
      val local, wait, merge = new AtomicLongArray(threads)
      Morsel.run(threads) { ctx =>
        val w = ctx.workerId
        val t0 = System.nanoTime()
        val ht = shared.local(w)
        val row = new Array[Long](1)
        var m = disp.next()
        while (m != null) {
          var i = m.startI
          while (i < m.endI) {
            row(0) = key(i)
            val g = ht.findOrInsert(Hash.crc(key(i)), row, 0, null)
            ht.addToValue(g, 0, qty(i), null)
            i += 1
          }
          m = disp.next()
        }
        val t1 = System.nanoTime()
        ctx.barrier()
        val t2 = System.nanoTime()
        shared.mergePartition(w, null)
        val t3 = System.nanoTime()
        local.set(w, t1 - t0); wait.set(w, t2 - t1); merge.set(w, t3 - t2)
      }
      def all(a: AtomicLongArray) = (0 until threads).map(a.get)
      (ms(all(local).max), ms(all(merge).max), ms(all(merge).sum), ms(all(wait).sum),
       shared.results.map(_.size).sum.toDouble)
    }
    out("core.agg.local_ms") = (Stats.median(runs.map(_._1)), "ms")
    out("core.agg.merge_ms") = (Stats.median(runs.map(_._2)), "ms")
    out("core.agg.merge_cpu_ms") = (Stats.median(runs.map(_._3)), "ms")
    out("core.agg.barrier_wait_ms") = (Stats.median(runs.map(_._4)), "ms")
    out("core.agg.groups") = (Stats.median(runs.map(_._5)), "count")
  }

  /** `core.ht.*`: Q3's orders → lineitem join. Orders before the Q3 cutoff
    * are built with `reserve`/`setSlot`/`publish`; lineitems after it probe
    * with `first`/`next`/`getSlot`. A `first` of -1 is a probe the bucket
    * tag rejected without touching an entry.
    */
  def hashTable(or: ColTable, li: ColTable, threads: Int, out: Metrics, trace: Trace): Unit = trace.span("core.ht") {
    val oKey = or("o_orderkey").data; val oDate = or("o_orderdate").data
    val oPrio = or("o_shippriority").data
    val lKey = li("l_orderkey").data; val lDate = li("l_shipdate").data
    val cutoff = TpchConsts.q3Date
    val runs = Seq.fill(7) {
      val ht = new HashTable(3, or.numRows, or.numRows / 2)
      val build = Morsel.scanDispenser(or, 3)
      val probe = Morsel.scanDispenser(li, 2)
      // per worker: probes, hits, tag rejects, entries visited
      val counts = new AtomicLongArray(4 * threads)
      var tBuild, tProbe = 0L
      val t0 = System.nanoTime()
      Morsel.run(threads) { ctx =>
        var m = build.next()
        while (m != null) {
          var i = m.startI
          while (i < m.endI) {
            if (oDate(i) < cutoff) {
              val e = ht.reserve(null)
              ht.setSlot(e, 0, oKey(i), null); ht.setSlot(e, 1, oDate(i), null); ht.setSlot(e, 2, oPrio(i), null)
              ht.publish(e, Hash.crc(oKey(i)), null)
            }
            i += 1
          }
          m = build.next()
        }
        ctx.barrier()
        if (ctx.workerId == 0) tBuild = System.nanoTime() - t0
        var probes, hits, rejects, visited = 0L
        m = probe.next()
        while (m != null) {
          var i = m.startI
          while (i < m.endI) {
            if (lDate(i) > cutoff) {
              probes += 1
              val k = lKey(i)
              var e = ht.first(Hash.crc(k), null)
              if (e < 0) rejects += 1
              var hit = false
              while (e >= 0 && !hit) {
                visited += 1
                hit = ht.getSlot(e, 0, null) == k
                e = ht.next(e, null)
              }
              if (hit) hits += 1
            }
            i += 1
          }
          m = probe.next()
        }
        val w = 4 * ctx.workerId
        counts.set(w, probes); counts.set(w + 1, hits); counts.set(w + 2, rejects); counts.set(w + 3, visited)
      }
      tProbe = System.nanoTime() - t0 - tBuild
      def total(k: Int) = (0 until threads).map(w => counts.get(4 * w + k)).sum.toDouble
      val probes = total(0); val rejects = total(2)
      (ms(tBuild), ms(tProbe), total(1) / probes, rejects / probes, total(3) / (probes - rejects))
    }
    out("core.ht.build_ms") = (Stats.median(runs.map(_._1)), "ms")
    out("core.ht.probe_ms") = (Stats.median(runs.map(_._2)), "ms")
    out("core.ht.hit_share") = (runs.head._3, "share")
    out("core.ht.tag_reject_share") = (runs.head._4, "share")
    out("core.ht.chain_len_mean") = (runs.head._5, "entries")
  }

  /** `tw.prim.*`: Tectorwise primitives over lineitem columns, one vector
    * (1024 values) at a time — the same calls the TW queries make.
    */
  def prims(li: ColTable, out: Metrics, trace: Trace): Unit = trace.span("tw.prim") {
    val vs = 1024
    val qty = li("l_quantity_c"); val price = li("l_extendedprice_c")
    val disc = li("l_discount_c"); val okey = li("l_orderkey")
    val n = li.numRows
    val batches = (0 until n by vs).map(b => (b, math.min(vs, n - b)))
    val sels = batches.map { case (b, k) =>
      val s = new Sel(vs); Prim.selLtC(qty, b, k, TpchConsts.q6QtyMax, s, null); s
    }
    val va, vb, vk, vc = new Vec(vs)
    Prim.gatherDense(price, 0, vs, va, null); Prim.gatherDense(disc, 0, vs, vb, null)
    Prim.gatherDense(okey, 0, vs, vk, null)
    val selOut = new Sel(vs)
    var sink = 0L
    def kernel(name: String)(body: => Unit): Unit = {
      val nsPerTuple = Seq.fill(31) {
        val t0 = System.nanoTime(); body; (System.nanoTime() - t0).toDouble / n
      }.drop(10) // the replay loop itself warms up first
      out(s"tw.prim.${name}_ns_per_tuple") = (Stats.median(nsPerTuple), "ns/tuple")
    }
    kernel("selLtC") { batches.foreach { case (b, k) => sink += Prim.selLtC(qty, b, k, TpchConsts.q6QtyMax, selOut, null) } }
    kernel("gather") { var i = 0; while (i < sels.size) { Prim.gather(price, batches(i)._1, sels(i), vc, null); i += 1 } }
    kernel("mapMul") { batches.foreach { case (_, k) => Prim.mapMul(va, vb, k, vc, null) } }
    kernel("hashMurmur") { batches.foreach { case (_, k) => Prim.hashMurmur(vk, k, vc, null) } }
    kernel("sum") { batches.foreach { case (_, k) => sink += Prim.sum(vb, k, null) } }
    if (sink == 42) println() // keep the results live
  }
}
