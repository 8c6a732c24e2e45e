package repro.core

import java.util.concurrent.atomic.AtomicLongArray
import org.scalatest.funsuite.AnyFunSuite

class MorselSpec extends AnyFunSuite {

  private val rows = 100000
  private val morselRows = 1234 // divides neither `rows` nor most vector sizes
  private val vecSizes = Seq(1, 7, morselRows, 65536)

  /** How often each of `rows` rows is covered when 8 workers run `scan` on
    * one dispenser; `scan` passes each (start, length) it visits to `cover`.
    */
  private def coverage(scan: (Morsel.Dispenser, (Int, Int) => Unit) => Unit): AtomicLongArray = {
    val disp = new Morsel.Dispenser(rows, morselRows)
    val seen = new AtomicLongArray(rows)
    Morsel.run(8) { _ =>
      scan(disp, (start, n) => for (i <- start until start + n) seen.incrementAndGet(i))
    }
    seen
  }

  /** Bytes a 24-byte-per-row dispenser charges the throttle while `scan` runs. */
  private def throttleBytes(scan: Morsel.Dispenser => Unit): Long = {
    val throttle = new Throttle(1e12) // effectively unlimited; just count bytes
    Morsel.ioThrottle = throttle
    try scan(new Morsel.Dispenser(rows, morselRows, 24)) finally Morsel.ioThrottle = null
    throttle.totalBytes
  }

  test("dispenser covers the range exactly once") {
    val seen = coverage { (disp, cover) =>
      disp.morsels { (start, end) =>
        assert(start % morselRows == 0 && end - start <= morselRows, s"morsel [$start, $end)")
        cover(start, end - start)
      }
    }
    for (i <- 0 until rows) assert(seen.get(i) == 1, s"row $i")
  }

  test("batches cover every row once, inside one morsel, with at most vecSize rows") {
    for (vecSize <- vecSizes) {
      val seen = coverage { (disp, cover) =>
        disp.batches(vecSize) { (base, n) =>
          assert(n >= 1 && n <= vecSize, s"vecSize $vecSize: batch of $n rows")
          assert(base / morselRows == (base + n - 1) / morselRows,
                 s"vecSize $vecSize: batch [$base, ${base + n}) crosses a morsel boundary")
          cover(base, n)
        }
      }
      for (i <- 0 until rows) assert(seen.get(i) == 1, s"vecSize $vecSize, row $i")
    }
  }

  test("an empty dispenser never calls the scan drivers' bodies") {
    new Morsel.Dispenser(0, morselRows).morsels((_, _) => fail("morsels called f"))
    for (vecSize <- vecSizes)
      new Morsel.Dispenser(0, morselRows).batches(vecSize)((_, _) => fail(s"batches($vecSize) called f"))
  }

  test("the scan drivers charge the throttle the same bytes as a next() loop") {
    val ref = throttleBytes { disp => var m = disp.next(); while (m != null) m = disp.next() }
    assert(ref == rows * 24L)
    assert(throttleBytes(_.morsels((_, _) => ())) == ref)
    for (vecSize <- vecSizes)
      assert(throttleBytes(_.batches(vecSize)((_, _) => ())) == ref, s"vecSize $vecSize")
  }

  test("dispenser handles n smaller than one morsel") {
    val disp = new Morsel.Dispenser(5, 1000)
    val m = disp.next()
    assert(m.startI == 0 && m.endI == 5)
    assert(disp.next() == null)
  }

  test("dispenser handles n == 0") {
    assert(new Morsel.Dispenser(0).next() == null)
  }

  test("single-threaded run executes on the calling thread") {
    val t = Thread.currentThread()
    var ran: Thread = null
    Morsel.run(1) { ctx => ran = Thread.currentThread(); assert(ctx.numWorkers == 1) }
    assert(ran eq t)
  }

  test("worker ids are distinct and complete") {
    val ids = java.util.concurrent.ConcurrentHashMap.newKeySet[Int]()
    Morsel.run(6) { ctx => ids.add(ctx.workerId); () }
    assert(ids.size == 6)
  }

  test("barrier separates phases: all phase-1 writes visible after barrier") {
    val n = 8
    val marks = new Array[Int](n)
    Morsel.run(n) { ctx =>
      marks(ctx.workerId) = 1
      ctx.barrier()
      for (i <- 0 until n) assert(marks(i) == 1, s"worker ${ctx.workerId} saw unfinished peer $i")
    }
  }

  test("worker exception propagates to the caller") {
    val ex = intercept[RuntimeException] {
      Morsel.run(4) { ctx =>
        if (ctx.workerId == 2) throw new IllegalStateException("boom")
        ctx.barrier() // peers must not hang
      }
    }
    assert(ex.getMessage.contains("boom"))
  }

  test("scanDispenser charges the io throttle per morsel") {
    val t = new ColTable("t", 10000, Map("a" -> LongCol(new Array[Long](10000))))
    val throttle = new Throttle(1e12) // effectively unlimited; just count bytes
    Morsel.ioThrottle = throttle
    try {
      Morsel.scanDispenser(t, 3).morsels((_, _) => ())
      assert(throttle.totalBytes == 10000L * 24)
    } finally Morsel.ioThrottle = null
  }

  test("scanDispenser with no throttle installed consumes nothing") {
    val t = new ColTable("t", 100, Map("a" -> LongCol(new Array[Long](100))))
    Morsel.scanDispenser(t, 2).morsels((_, _) => ()) // must not NPE
  }
}
