package qbench

import java.io.File
import java.lang.management.ManagementFactory
import repro.core.Morsel
import repro.queries.QueryOut
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Command-line arguments; see `run.py` for how they are passed. */
final case class Args(workload: String = "", seed: Long = 0, seconds: Int = 10, trace: Boolean = false,
                      outDir: File = new File("."), counters: File = new File("counters.tsv"),
                      record: Boolean = false)

object Args {
  def parse(argv: List[String], a: Args = Args()): Args = argv match {
    case "--workload" :: v :: t => parse(t, a.copy(workload = v))
    case "--seed" :: v :: t     => parse(t, a.copy(seed = v.toLong))
    case "--seconds" :: v :: t  => parse(t, a.copy(seconds = v.toInt))
    case "--trace" :: v :: t    => parse(t, a.copy(trace = v == "1"))
    case "--out" :: v :: t      => parse(t, a.copy(outDir = new File(v)))
    case "--counters" :: v :: t => parse(t, a.copy(counters = new File(v)))
    case "--record" :: t        => parse(t, a.copy(record = true))
    case Nil => a
    case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
  }
}

/** The benchmark: one JVM, one client thread running a closed loop of
  * passes that alternate Typer and Tectorwise, on the workload's workers.
  *
  *  1. Set-up: Spark session, TPC-H-lite + SSB-lite generation and
  *     encoding, the modeled pass (right after the load), and JIT warm-up
  *     passes.
  *  2. Timed window of `--seconds`: passes until the deadline; then the
  *     live heap.
  *  3. Checks: the Spark SQL reference (or the copy an earlier run made of
  *     it) against every result, Typer ≡ TW, modeled counters ≡ recorded.
  *
  * With `--trace 1` the window is split: the first half runs untraced, the
  * second half records a span per query, then each layer is replayed. The
  * per-layer metrics come from that run; the difference between its two
  * halves' pass medians is the tracing overhead.
  */
object Main {
  val WarmupPasses = 15

  def main(argv: Array[String]): Unit = {
    val code =
      try run(Args.parse(argv.toList))
      catch { case e: Throwable => e.printStackTrace(); 2 }
    System.exit(code) // Spark leaves non-daemon threads behind
  }

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def run(a: Args): Int = {
    val wl = Workload(a.workload, Host.cpus)
    val trace = if (a.trace) new Trace else null
    val partitions = Data.partitions(a.seed)
    val problems = ArrayBuffer.empty[String]

    // ---- set-up -------------------------------------------------------------
    val t0 = System.nanoTime()
    val spark = Trace.span(trace, "data.session")(Data.session(a.seed, Host.cpus, a.outDir))
    val sessionS = secondsSince(t0)
    val (d, tpchS, ssbS) = Data.load(spark, trace)

    var modelS = 0.0
    var counters = Seq.empty[CounterRow]
    if (wl.modeled || a.trace || a.record) {
      val tm = System.nanoTime()
      counters = Trace.span(trace, "prof.model")(Modeled.pass(d, trace))
      modelS = secondsSince(tm)
      if (a.record) Modeled.record(a.counters, partitions, counters)
      problems ++= Modeled.check(a.counters, partitions, counters)
    }

    val fingerprint = d.fingerprint

    val qs = Passes.engines.map(e => e -> Passes.queries(d, e)).toMap
    val tWarm = System.nanoTime()
    Trace.span(trace, "data.warmup") {
      val warm = Workload(wl.name, wl.threads, 0, modeled = false) // JIT warm-up needs no throttle
      for (_ <- 0 until WarmupPasses; e <- Passes.engines) Passes.run(qs(e), e, warm, null, -1)
    }
    val warmupS = secondsSince(tWarm)
    val setupS = sessionS + tpchS + ssbS + warmupS

    // ---- timed window(s) -------------------------------------------------------
    // Results are reduced to digests between passes, outside the timed
    // interval, so that no pass pays for keeping earlier results alive. The
    // first result of each (engine, query) is also kept whole for the exact
    // checks.
    val execs = ArrayBuffer.empty[Exec]
    val firsts = mutable.LinkedHashMap.empty[(String, String), QueryOut]
    def window(seconds: Double, tr: Trace, firstPass: Int): (Map[String, Samples], ArrayBuffer[(Double, Long)]) = {
      val samples = Passes.engines.map(_ -> new Samples).toMap
      val passes = ArrayBuffer.empty[(Double, Long)]
      System.gc()
      val deadline = System.nanoTime() + (seconds * 1e9).toLong
      var pass = firstPass
      while (System.nanoTime() < deadline) for (e <- Passes.engines) {
        val (ms, bytes, outs) = Passes.run(qs(e), e, wl, tr, pass)
        samples(e) += ms
        passes += ((ms, bytes))
        pass += 1
        for ((q, out) <- qs(e).zip(outs)) {
          execs += Exec(e, q.name, out.map(Digest.of))
          out.foreach(o => firsts.getOrElseUpdate((e, q.name), o))
        }
      }
      (samples, passes)
    }

    val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
    val info = mutable.LinkedHashMap.empty[String, Any]
    if (!a.trace) {
      val (samples, _) = window(a.seconds, null, 0)
      metrics("setup_s") = (setupS, "s")
      for (e <- Passes.engines) {
        metrics(s"${e}_pass_p50_ms") = (samples(e).p50, "ms")
        metrics(s"${e}_pass_tail_ms") = (samples(e).tail, "ms")
        info(s"${e}_passes") = samples(e).size
        if (samples(e).size < Stats.MinTailSamples) {
          info(s"${e}_tail_unsupported") = true
          Console.err.println(s"qbench: WARNING: only ${samples(e).size} $e passes; " +
            s"the p${Stats.TailPercentile} tail needs ${Stats.MinTailSamples}")
        }
      }
    } else {
      val (plain, _) = window(a.seconds / 2.0, null, 0)
      val gcBefore = gcTotals
      val (traced, passes) = window(a.seconds / 2.0, trace, 1000000)
      val gcAfter = gcTotals
      metrics("data.session_s") = (sessionS, "s")
      metrics("data.tpch_load_s") = (tpchS, "s")
      metrics("data.ssb_load_s") = (ssbS, "s")
      metrics("data.warmup_s") = (warmupS, "s")
      for (e <- Passes.engines; q <- Passes.queryNames)
        metrics(s"$e.${q}_ms") = (Stats.median(trace.named(s"$e.$q").map(_.ms)), "ms")
      metrics("jvm.gc_ms_per_pass") = ((gcAfter._1 - gcBefore._1).toDouble / passes.size, "ms")
      metrics("jvm.gc_count_per_pass") = ((gcAfter._2 - gcBefore._2).toDouble / passes.size, "count")
      Layers.morsel(wl.threads, metrics, trace)
      Layers.agg(d.tpch.lineitem, d.tpch.orders.numRows, wl.threads, metrics, trace)
      Layers.hashTable(d.tpch.orders, d.tpch.lineitem, wl.threads, metrics, trace)
      Layers.prims(d.tpch.lineitem, metrics, trace)
      val floors = passes.map { case (_, bytes) => if (wl.bytesPerSec > 0) bytes / wl.bytesPerSec * 1e3 else 0.0 }
      metrics("core.throttle.bytes_per_pass") = (Stats.median(passes.map(_._2.toDouble).toSeq), "B")
      metrics("core.throttle.floor_ms") = (Stats.median(floors.toSeq), "ms")
      metrics("core.throttle.slack_ms") = (Stats.median(passes.zip(floors).map { case ((ms, _), f) => ms - f }.toSeq), "ms")
      metrics("prof.model_s") = (modelS, "s")
      for (c <- counters) {
        metrics(s"prof.${c.engine}.${c.query}.instr_per_tuple") = (c.instr.toDouble / c.tuples, "instr/tuple")
        metrics(s"prof.${c.engine}.${c.query}.cycles_per_tuple") = (c.cycles / c.tuples, "cycles/tuple")
      }
      metrics("trace.overhead_ms") = (Passes.engines.map(e => traced(e).p50 - plain(e).p50).sum / 2, "ms")
    }
    if (Morsel.ioThrottle != null) problems += "the scan throttle leaked out of a pass"

    // The heap is measured before the reference, which leaves Spark state
    // behind only in the runs that compute it.
    System.gc(); System.gc()
    val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
    if (!a.trace) metrics("live_heap_mb") = (heapMb, "MB")

    // ---- checks outside the timed window -------------------------------------------
    val tr = System.nanoTime()
    val (expected, referenceComputed) =
      Trace.span(trace, "spark.reference")(Reference.load(spark, d, fingerprint, a.outDir))
    val referenceS = secondsSince(tr)
    val failed = execs.count { x =>
      val bad = x.result != Right(expected(x.query).digest)
      if (bad && problems.size < 20) problems += s"${x.engine} ${x.query}: " +
        x.result.fold(e => s"threw $e", _ => "result differs from Spark SQL")
      bad
    }
    for (((e, q), out) <- firsts if out.canon != expected(q).canon)
      problems += s"$e $q: canonical result differs from Spark SQL"
    for (q <- Passes.queryNames) {
      val outs = Passes.engines.flatMap(e => firsts.get((e, q)))
      if (outs.size == 2 && outs(0).canon != outs(1).canon) problems += s"$q: Typer and TW differ"
    }
    val attempted = execs.size

    if (a.trace) trace.write(new File(a.outDir, s"trace-${wl.name}-${a.seed}.jsonl"))
    info ++= Seq("workload" -> wl.name, "seed" -> a.seed, "threads" -> wl.threads,
      "nproc" -> Runtime.getRuntime.availableProcessors, "cpus" -> Host.cpus, "jvm" -> Host.jvm,
      "spark" -> spark.version, "sf" -> Data.SF, "partitions" -> partitions,
      "data_fingerprint" -> fingerprint, "session_s" -> sessionS, "warmup_s" -> warmupS,
      "reference_s" -> referenceS, "reference_computed" -> referenceComputed, "model_s" -> modelS, "elapsed_s" -> secondsSince(t0))
    problems.foreach(p => Console.err.println(s"qbench: FAILED CHECK: $p"))
    println("qbench: run " + Json.obj(info.toSeq))
    val correct = failed == 0 && problems.isEmpty && attempted > 0
    println(Json.obj(Seq(
      "correct" -> correct, "attempted" -> attempted, "failed" -> failed,
      "metrics" -> Json.Raw(Json.obj(metrics.toSeq.map { case (k, (v, u)) =>
        k -> Json.Raw(Json.obj(Seq("value" -> v, "unit" -> u))) })))))
    0
  }

  /** (total collection ms, total collections) over all GC MXBeans. */
  private def gcTotals: (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionTime).sum, beans.map(_.getCollectionCount).sum)
  }
}

/** Minimal JSON rendering for the result lines. */
object Json {
  final case class Raw(s: String)

  def value(v: Any): String = v match {
    case Raw(s)              => s
    case b: Boolean          => b.toString
    case i: Int              => i.toString
    case l: Long             => l.toString
    case d: Double           => if (d.isNaN || d.isInfinite) "null" else java.lang.Double.toString(d)
    case s                   => "\"" + s.toString.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
  }

  def obj(kvs: Seq[(String, Any)]): String =
    kvs.map { case (k, v) => value(k) + ": " + value(v) }.mkString("{", ", ", "}")
}
