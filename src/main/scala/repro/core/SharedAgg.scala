package repro.core

/** Per-value-slot merge semantics for the parallel aggregation merge. */
sealed trait AggOp
object AggOp {
  /** SUM / COUNT — partials add. */
  case object Sum extends AggOp
  /** MAX — partials take the maximum. */
  case object Max extends AggOp
}

/** The shared state of the two-phase parallel group-by used by both engines
  * (§3.2: "a pre-aggregation handles heavy hitters and spills groups into
  * partitions; afterwards, a final step aggregates the groups in each
  * partition").
  *
  * Phase 1: every worker aggregates its morsels into a private
  * [[AggHashTable]] (via Typer's fused loop or Tectorwise's `TWAgg`).
  * Phase 2 (after a barrier): worker `w` scans *all* local tables and merges
  * exactly the groups whose hash falls in its partition, so final groups are
  * disjoint across workers and no locking is needed.
  */
final class SharedAgg(val keySlots: Int, val valSlots: Int, valOps: Array[AggOp],
                      numWorkers: Int, expected: Int = 1024) {
  require(valOps.length == valSlots)
  private val locals = new Array[AggHashTable](numWorkers)
  private val finals = new Array[AggHashTable](numWorkers)

  /** Worker `w`'s phase-1 pre-aggregation table (created on first call). */
  def local(w: Int): AggHashTable = {
    if (locals(w) == null) locals(w) = new AggHashTable(keySlots, valSlots, expected)
    locals(w)
  }

  private def partitionOf(hash: Long): Int =
    (((hash >>> 32) % numWorkers).toInt + numWorkers) % numWorkers

  /** Phase 2 for worker `w`; call only after all workers passed the barrier.
    * With a single worker the pre-aggregation already holds the final groups
    * (HyPer-style morsel-driven aggregation does not re-partition in the
    * single-threaded case), so the merge copy is skipped.
    */
  def mergePartition(w: Int, p: Prof): AggHashTable = {
    if (numWorkers == 1) {
      val only = local(0)
      finals(0) = only
      return only
    }
    val out = new AggHashTable(keySlots, valSlots, expected / math.max(1, numWorkers) + 16)
    val keyRow = new Array[Long](keySlots)
    var t = 0
    while (t < numWorkers) {
      val src = locals(t)
      if (src != null) {
        var e = 0
        while (e < src.size) {
          val h = src.entryHash(e)
          if (partitionOf(h) == w) {
            var s = 0
            while (s < keySlots) { keyRow(s) = src.key(e, s); s += 1 }
            val d = out.findOrInsert(h, keyRow, 0, p)
            var v = 0
            while (v < valSlots) {
              valOps(v) match {
                case AggOp.Sum => out.addToValue(d, v, src.value(e, v), p)
                case AggOp.Max => out.maxValue(d, v, src.value(e, v), p)
              }
              v += 1
            }
          }
          e += 1
        }
      }
      t += 1
    }
    finals(w) = out
    out
  }

  /** Phase 2 as the tail of worker `ctx.workerId`'s last pipeline: wait for
    * every worker's phase 1, merge this worker's partition, and add one
    * decoded `row(table, entry)` per final group to `out`.
    */
  def finish(ctx: Morsel.Ctx, p: Prof, out: java.util.Queue[Array[Any]])
            (row: (AggHashTable, Int) => Array[Any]): Unit = {
    ctx.barrier()
    val fin = mergePartition(ctx.workerId, p)
    var e = 0
    while (e < fin.size) { out.add(row(fin, e)); e += 1 }
  }

  /** All final tables (after every worker completed phase 2). */
  def results: Seq[AggHashTable] = finals.toSeq.filter(_ != null)
}
