package repro.core

import java.util.concurrent.CyclicBarrier
import java.util.concurrent.atomic.{AtomicLong, AtomicReference}

/** Morsel-driven parallelism (§6.1), as implemented in both engines.
  *
  * A query runs as a set of workers that pull fixed-size morsels (row ranges)
  * from atomic [[Morsel.Dispenser]]s through its scan drivers (`morsels`,
  * `batches`), share per-operator state (e.g. the build-side [[HashTable]]),
  * and synchronize at pipeline boundaries with a barrier — "first all
  * workers consume the build side ... only after that, the probe phase can
  * start". Each query starts its own `threads` workers ([[Morsel.run]]).
  */
object Morsel {

  val DefaultMorselRows = 16384

  /** Global scan-I/O throttle (Table 5 out-of-memory experiments): when set,
    * every base-table morsel "fetch" consumes its byte volume from the
    * shared-bandwidth device before processing — emulating morsel-wise
    * streaming from an SSD whose sequential bandwidth all workers share.
    * `null` (default) = tables are memory-resident.
    */
  @volatile var ioThrottle: Throttle = null

  /** Dispenser for a base-table scan reading `colsRead` columns (8 B each);
    * the byte volume is what the I/O throttle charges per morsel.
    */
  def scanDispenser(t: ColTable, colsRead: Int): Dispenser =
    new Dispenser(t.numRows, DefaultMorselRows, 8 * colsRead)

  /** Per-worker context. */
  final class Ctx(val workerId: Int, val numWorkers: Int, b: CyclicBarrier) {
    /** Pipeline-breaking barrier: all workers arrive before any proceeds. */
    def barrier(): Unit = { b.await(); () }
  }

  /** Atomic work dispenser over `[0, n)` in `morselRows` chunks. */
  final class Dispenser(val n: Long, val morselRows: Int = DefaultMorselRows,
                        val rowBytes: Int = 0) {
    private val cursor = new AtomicLong(0)
    /** Next morsel as (start, endExclusive), or null when exhausted. */
    def next(): Range = {
      val s = cursor.getAndAdd(morselRows)
      if (s >= n) return null
      val r = new Range(s, math.min(n, s + morselRows))
      val t = ioThrottle
      if ((t ne null) && rowBytes > 0) t.consume((r.end - r.start) * rowBytes)
      r
    }

    /** The scan driver of every pipeline: calls `f(start, end)` once per
      * morsel this worker takes, until the dispenser is exhausted. Each
      * pipeline body is thereby a method called per morsel, the shape of
      * HyPer's generated code, which HotSpot compiles as a whole method
      * rather than by on-stack replacement of a long-running loop.
      */
    def morsels(f: (Int, Int) => Unit): Unit = {
      var m = next()
      while (m != null) { f(m.startI, m.endI); m = next() }
    }

    /** [[morsels]] cut into vectors: calls `f(base, n)` once per batch of
      * `n <= vecSize` rows; no batch crosses a morsel boundary.
      */
    def batches(vecSize: Int)(f: (Int, Int) => Unit): Unit = {
      require(vecSize >= 1, s"vecSize=$vecSize")
      morsels { (start, end) =>
        var base = start
        while (base < end) {
          val n = math.min(vecSize, end - base)
          f(base, n)
          base += n
        }
      }
    }
  }

  final class Range(val start: Long, val end: Long) {
    def startI: Int = start.toInt
    def endI: Int = end.toInt
  }

  /** Run `task` on `threads` workers; propagates the first worker failure.
    *
    * With `threads == 1` the task runs on the calling thread — this is the
    * mode used for counter ([[Prof]]) experiments, which are single-threaded
    * like the paper's Table 1.
    */
  def run(threads: Int)(task: Ctx => Unit): Unit = {
    require(threads >= 1, s"threads=$threads")
    val barrier = new CyclicBarrier(threads)
    if (threads == 1) { task(new Ctx(0, 1, barrier)); return }
    val failure = new AtomicReference[Throwable](null)
    val workers = (0 until threads).map { id =>
      new Thread(() => {
        try task(new Ctx(id, threads, barrier))
        catch { case t: Throwable => failure.compareAndSet(null, t); () }
      }, s"morsel-$id")
    }
    workers.foreach(_.start())
    // Supervise: once any worker fails, peers parked at the barrier (or
    // arriving later) can never complete the generation — interrupt them
    // until everyone is down. (Resetting the barrier instead would race:
    // a peer arriving after the reset waits on a fresh generation forever.)
    var alive = true
    while (alive) {
      alive = false
      workers.foreach { w => w.join(50); if (w.isAlive) alive = true }
      if (alive && failure.get != null) workers.foreach(_.interrupt())
    }
    val t = failure.get
    if (t ne null) throw new RuntimeException(s"morsel worker failed: ${t.getMessage}", t)
  }
}
