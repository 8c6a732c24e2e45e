package repro.queries

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.{AtomicLong, LongAdder}
import repro.core.{AggHashTable, Morsel, Prof, SharedAgg}
import repro.queries.QueryOut.L
import scala.jdk.CollectionConverters._

/** The state one query's Typer and Tectorwise pipelines share (paper §3:
  * the engines differ only in execution model). A query's plan subclass
  * builds, in one fixed order, the columns and constants both engines read,
  * the dictionary codes, the shared [[repro.core.HashTable]]s and
  * [[SharedAgg]], the scan dispensers (whose widths set the bytes the scan
  * throttle charges), and the result decoding. Each engine's `run` creates
  * the plan, imports its members and adds only its own pipelines.
  *
  * A plan allocates no branch sites and no engine-private vectors, so the
  * modeled counters see the same allocations in the same order as before.
  */
abstract class Plan(val schema: Vector[OutCol]) {
  /** Result rows, added by every worker. */
  val out = new ConcurrentLinkedQueue[Array[Any]]()

  def result: QueryOut = QueryOut(schema, out.asScala.toVector)
}

/** A plan whose result is the decoded final groups of one [[SharedAgg]]. */
abstract class AggPlan(schema: Vector[OutCol]) extends Plan(schema) {
  val shared: SharedAgg

  /** The output row of final group `e` of `fin`. */
  def row(fin: AggHashTable, e: Int): Array[Any]

  /** Barrier, merge of this worker's partition, decoding of its groups. */
  def finish(ctx: Morsel.Ctx, p: Prof): Unit = shared.finish(ctx, p, out)(row)
}

/** A plan whose result is one scalar SUM, NULL when no row qualified. */
abstract class SumPlan(schema: Vector[OutCol]) {
  val total = new LongAdder
  val matched = new AtomicLong(0)

  def result: QueryOut =
    QueryOut(schema, Vector(Array[Any](if (matched.get == 0) null else L(total.sum))))
}
