package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class SharedAggSpec extends AnyFunSuite {

  /** Reference: aggregate `data` (key, value) with `w` workers through the
    * two-phase scheme and return key → (sum, count, max).
    */
  private def runShared(data: IndexedSeq[(Long, Long)], w: Int): Map[Long, (Long, Long, Long)] = {
    val shared = new SharedAgg(1, 3, Array(AggOp.Sum, AggOp.Sum, AggOp.Max), w, 64)
    val disp = new Morsel.Dispenser(data.size, 113)
    Morsel.run(w) { ctx =>
      val local = shared.local(ctx.workerId)
      val keyRow = new Array[Long](1)
      disp.morsels { (start, end) =>
        for (i <- start until end) {
          val (k, v) = data(i)
          keyRow(0) = k
          val e = local.findOrInsert(Hash.murmur(k), keyRow, 0, null)
          if (local.wasNew) local.setValue(e, 2, Long.MinValue)
          local.addToValue(e, 0, v, null)
          local.addToValue(e, 1, 1, null)
          local.maxValue(e, 2, v, null)
        }
      }
      ctx.barrier()
      shared.mergePartition(ctx.workerId, null)
      ()
    }
    shared.results.flatMap { t =>
      (0 until t.size).map(e => t.key(e, 0) -> (t.value(e, 0), t.value(e, 1), t.value(e, 2)))
    }.toMap
  }

  private val rnd = new Random(99)
  private val data = IndexedSeq.fill(30000)((rnd.nextInt(777).toLong, rnd.nextInt(1000).toLong))
  private val ref = data.groupBy(_._1).view
    .mapValues(l => (l.map(_._2).sum, l.size.toLong, l.map(_._2).max)).toMap

  for (w <- Seq(1, 2, 7, 16)) {
    test(s"two-phase aggregation with $w workers matches reference groupBy") {
      assert(runShared(data, w) == ref)
    }
  }

  test("final partitions are disjoint across workers") {
    val shared = new SharedAgg(1, 1, Array(AggOp.Sum), 4, 64)
    val disp = new Morsel.Dispenser(data.size, 113)
    Morsel.run(4) { ctx =>
      val local = shared.local(ctx.workerId)
      val keyRow = new Array[Long](1)
      disp.morsels { (start, end) =>
        for (i <- start until end) {
          keyRow(0) = data(i)._1
          val e = local.findOrInsert(Hash.murmur(keyRow(0)), keyRow, 0, null)
          local.addToValue(e, 0, 1, null)
        }
      }
      ctx.barrier()
      shared.mergePartition(ctx.workerId, null)
      ()
    }
    val keyLists = shared.results.map(t => (0 until t.size).map(e => t.key(e, 0)).toSet)
    for (a <- keyLists.indices; b <- keyLists.indices if a < b)
      assert(keyLists(a).intersect(keyLists(b)).isEmpty)
    assert(keyLists.map(_.size).sum == ref.size)
  }
}
