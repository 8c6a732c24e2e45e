package repro.queries

import repro.core.{Morsel, Throttle}
import repro.harness.Bench

/** Shared pieces of the TPC-H-lite and SSB-lite query specs. */
object QueryRuns {
  /** Worker counts the multi-threaded runs are checked at: 2 up to the
    * host's cores, and at least up to 4 (3 gives an odd partition count).
    */
  val workerCounts: Seq[Int] = 2 to math.max(4, Bench.hostCores)

  /** Bytes that `run` charges to a scan throttle (one that never waits). */
  def scanBytes(run: => QueryOut): Long = {
    val t = new Throttle(1e15)
    Morsel.ioThrottle = t
    try run finally Morsel.ioThrottle = null
    t.totalBytes
  }
}
