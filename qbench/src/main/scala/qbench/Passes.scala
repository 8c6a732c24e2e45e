package qbench

import repro.core.Prof
import repro.harness.SsbCountersExp
import repro.queries.{Engines, QueryOut}
import repro.ssb.{SsbTw, SsbTyper}
import scala.collection.mutable.ArrayBuffer

/** One query of a pass, bound to its data: `(threads, prof-or-null) → out`. */
final case class Query(name: String, tuples: Long, run: (Int, Prof) => QueryOut)

/** One executed query of a timed pass: its result's digest, or what it threw. */
final case class Exec(engine: String, query: String, result: Either[Throwable, Digest])

/** A pass is the nine queries — TPC-H-lite q1, q6, q3, q9, q18 and SSB-lite
  * q1.1, q2.1, q3.1, q4.1 — run back to back on one engine.
  */
object Passes {
  val engines: Seq[String] = Seq("typer", "tw")
  val queryNames: Seq[String] = Engines.queryNames ++ SsbCountersExp.queries

  def queries(d: Data, engine: String): Seq[Query] = {
    val tpch = engine match {
      case "typer" => Engines.typer
      case "tw"    => Engines.tw()
    }
    val ssb = engine match {
      case "typer" => SsbTyper.all
      case "tw"    => SsbTw.all()
    }
    Engines.queryNames.map(q => Query(q, d.tpch.tuplesScanned(q), tpch(q)(d.tpch, _, _))) ++
      SsbCountersExp.queries.map(q => Query(q, d.ssb.tuplesScanned(q), ssb(q)(d.ssb, _, _)))
  }

  /** Run one pass. Returns the pass wall time in ms, the bytes charged to
    * the workload's scan throttle, and each query's result or failure.
    */
  def run(qs: Seq[Query], engine: String, wl: Workload, trace: Trace,
          pass: Int): (Double, Long, Seq[Either[Throwable, QueryOut]]) = {
    val outs = new Array[Either[Throwable, QueryOut]](qs.size)
    val t0 = System.nanoTime()
    val bytes = wl.throttled {
      var i = 0
      while (i < qs.size) {
        val q = qs(i)
        outs(i) =
          try Right(if (trace eq null) q.run(wl.threads, null)
                    else trace.span(s"$engine.${q.name}", pass)(q.run(wl.threads, null)))
          catch { case e: Exception => Left(e) }
        i += 1
      }
    }
    ((System.nanoTime() - t0) / 1e6, bytes, outs.toSeq)
  }
}

/** Pass-time samples of one engine. */
final class Samples {
  private val ms = ArrayBuffer.empty[Double]
  def +=(v: Double): Unit = ms += v
  def size: Int = ms.size
  def p50: Double = Stats.median(ms.toSeq)
  def tail: Double = Stats.tail(ms.toSeq)
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted; val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Percentile that [[tail]] reports. */
  val TailPercentile = 90

  /** Fewest samples for which [[tail]] has at least two samples above it;
    * a run with fewer passes of an engine flags its tail as unsupported.
    */
  val MinTailSamples = 20

  /** Nearest-rank [[TailPercentile]]th percentile: the smallest sample with
    * at least that share of all samples at or below it.
    */
  def tail(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "no samples")
    xs.sorted.apply(math.ceil(xs.size * TailPercentile / 100.0).toInt - 1)
  }
}
