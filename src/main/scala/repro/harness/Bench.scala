package repro.harness

/** Wall-clock measurement helpers for the benchmark tables. */
object Bench {

  /** Cores the harness may use: `SPARK_GRAFT_CPUS` when set, else the
    * JVM's processor count.
    */
  val hostCores: Int = sys.env.get("SPARK_GRAFT_CPUS").flatMap(_.trim.toIntOption).filter(_ > 0)
    .getOrElse(Runtime.getRuntime.availableProcessors)

  /** Worker counts of the scaling tables: 1, half the cores, all cores. */
  val threadLadder: Seq[Int] = Seq(1, hostCores / 2, hostCores).filter(_ >= 1).distinct

  /** Median wall time in ms over `iters` runs after `warmup` JIT runs.
    * Warmup doubles as the "compilation excluded" methodology of the paper
    * (§3: code generation/compile time is not measured): HotSpot has
    * compiled both engines' loops before the timed runs.
    */
  def timeMs(warmup: Int, iters: Int)(body: => Unit): Double = {
    var i = 0
    while (i < warmup) { body; i += 1 }
    System.gc() // drain warm-up garbage so a collection doesn't land mid-measurement
    val ts = new Array[Double](iters)
    i = 0
    while (i < iters) {
      val t0 = System.nanoTime()
      body
      ts(i) = (System.nanoTime() - t0) / 1e6
      i += 1
    }
    java.util.Arrays.sort(ts)
    ts(iters / 2)
  }
}

/** Fixed-width ASCII table rendering for the reproduced paper tables. */
object AsciiTable {
  def format(title: String, headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = headers +: rows
    val widths = headers.indices.map(i => all.map(r => r(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    val sep = widths.map("-" * _).mkString("  ")
    (s"== $title ==" +: line(headers) +: sep +: rows.map(line)).mkString("\n")
  }

  def f1(v: Double): String = f"$v%.1f"
  def f2(v: Double): String = f"$v%.2f"
  def f0(v: Double): String = f"$v%.0f"
}
