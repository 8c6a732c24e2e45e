package repro.tw

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Enc, Hash, HashTable, HwProfile, LongCol, Prof}
import scala.util.Random

/** Every Tectorwise primitive vs a naive reference, with and without the
  * profiler (results must be identical; the profiler must count work).
  */
class PrimSpec extends AnyFunSuite {
  private val rnd = new Random(2024)
  private val N = 1000
  private val data = Array.fill(N)(rnd.nextInt(200).toLong - 100)
  private val col = LongCol(data, Enc.Id)
  private def sel(cap: Int = N) = new Sel(cap)
  private def vec(cap: Int = N) = new Vec(cap)
  private def prof() = new Prof(HwProfile.skylake)

  private def refSel(base: Int, n: Int, pred: Long => Boolean): Seq[Int] =
    (0 until n).filter(i => pred(data(base + i)))

  // ---- first-selection primitives, profiled and unprofiled --------------
  for ((name, run, pred) <- Seq[(String, (Int, Int, Long, Sel, Prof) => Int, Long => Boolean)](
    ("selLeC", (b, n, c, s, p) => Prim.selLeC(col, b, n, c, s, p), _ <= 13L),
    ("selLtC", (b, n, c, s, p) => Prim.selLtC(col, b, n, c, s, p), _ < 13L),
    ("selGeC", (b, n, c, s, p) => Prim.selGeC(col, b, n, c, s, p), _ >= 13L),
    ("selGtC", (b, n, c, s, p) => Prim.selGtC(col, b, n, c, s, p), _ > 13L),
    ("selEqC", (b, n, c, s, p) => Prim.selEqC(col, b, n, c, s, p), _ == 13L))) {
    test(s"$name matches reference on full batch") {
      val s = sel()
      val k = run(0, N, 13L, s, null)
      assert(s.a.take(k).toSeq == refSel(0, N, pred))
    }
    test(s"$name with offset base and profiler gives identical output and counts loads") {
      val s1 = sel(); val s2 = sel()
      val p = prof()
      val k1 = run(100, 500, 13L, s1, null)
      val k2 = run(100, 500, 13L, s2, p)
      assert(k1 == k2 && s1.a.take(k1).toSeq == s2.a.take(k2).toSeq)
      assert(p.loads >= 500)
    }
  }

  test("selEq2C implements a two-constant IN") {
    val s = sel()
    val k = Prim.selEq2C(col, 0, N, 5L, -7L, s, null)
    assert(s.a.take(k).toSeq == refSel(0, N, v => v == 5L || v == -7L))
  }

  // ---- secondary (selection-vector) primitives --------------------------
  test("secondary selections compose as a predicate cascade") {
    val s1 = sel(); val s2 = sel(); val s3 = sel()
    Prim.selGeC(col, 0, N, -50L, s1, null)
    Prim.selLeCSel(col, 0, s1, 50L, s2, null)
    Prim.selLtCSel(col, 0, s2, 10L, s3, null)
    val expect = refSel(0, N, v => v >= -50 && v <= 50 && v < 10)
    assert(s3.a.take(s3.n).toSeq == expect)
  }

  test("secondary selection with profiler matches unprofiled") {
    val s1 = sel(); val s2 = sel(); val s2p = sel()
    Prim.selGeC(col, 0, N, 0L, s1, null)
    Prim.selLeCSel(col, 0, s1, 30L, s2, null)
    val p = prof()
    Prim.selLeCSel(col, 0, s1, 30L, s2p, p)
    assert(s2.a.take(s2.n).toSeq == s2p.a.take(s2p.n).toSeq)
    assert(p.instr > 0)
  }

  // ---- gather / map ------------------------------------------------------
  test("gather materializes through a selection vector") {
    val s1 = sel(); val out = vec()
    Prim.selGtC(col, 0, N, 0L, s1, null)
    Prim.gather(col, 0, s1, out, null)
    assert(out.a.take(s1.n).toSeq == s1.a.take(s1.n).map(i => data(i)).toSeq)
  }

  test("gatherDense copies a window") {
    val out = vec()
    Prim.gatherDense(col, 17, 100, out, null)
    assert(out.a.take(100).toSeq == data.slice(17, 117).toSeq)
  }

  test("map primitives compute elementwise") {
    val a = vec(); val b = vec(); val out = vec()
    Prim.gatherDense(col, 0, N, a, null)
    Prim.gatherDense(col, 1, N - 1, b, null)
    Prim.mapRsubC(a, 100L, N, out, null)
    assert(out.a.take(5).toSeq == a.a.take(5).map(100L - _).toSeq)
    Prim.mapAddC(a, 7L, N, out, null)
    assert(out.a.take(5).toSeq == a.a.take(5).map(_ + 7L).toSeq)
    Prim.mapMul(a, b, N - 1, out, null)
    assert(out.a.take(5).toSeq == (0 until 5).map(i => a.a(i) * b.a(i)))
    Prim.mapSub(a, b, N - 1, out, null)
    assert(out.a.take(5).toSeq == (0 until 5).map(i => a.a(i) - b.a(i)))
  }

  test("mapYear converts epoch days") {
    val in = vec(); val out = vec()
    in.a(0) = repro.core.Columnar.day("1997-07-01")
    in.a(1) = repro.core.Columnar.day("1992-12-31")
    Prim.mapYear(in, 2, out, null)
    assert(out.a(0) == 1997 && out.a(1) == 1992)
  }

  test("hashMurmur matches Hash.murmur; hashCombine matches Hash.combine") {
    val in = vec(); val out = vec()
    Prim.gatherDense(col, 0, N, in, null)
    Prim.hashMurmur(in, N, out, null)
    assert((0 until N).forall(i => out.a(i) == Hash.murmur(in.a(i))))
    val pre = out.a.take(N).toSeq
    Prim.hashCombine(out, in, N, null)
    assert((0 until N).forall(i => out.a(i) == Hash.combine(pre(i), in.a(i))))
  }

  test("composeSel maps match positions back to original positions") {
    val cur = sel(); val matches = sel(); val out = sel()
    cur.n = 4; cur.a(0) = 10; cur.a(1) = 20; cur.a(2) = 30; cur.a(3) = 40
    matches.n = 2; matches.a(0) = 1; matches.a(1) = 3
    Prim.composeSel(cur, matches, out, null)
    assert(out.n == 2 && out.a(0) == 20 && out.a(1) == 40)
  }

  test("sum reduces a vector") {
    val in = vec()
    Prim.gatherDense(col, 0, N, in, null)
    assert(Prim.sum(in, N, null) == data.sum)
    assert(Prim.sum(in, 0, null) == 0)
  }

  test("profiled primitives account materialization stores") {
    val s1 = sel(); val out = vec()
    Prim.selGtC(col, 0, N, Long.MinValue, s1, null) // select all
    val p = prof()
    Prim.gather(col, 0, s1, out, p)
    assert(p.stores == N, s"gather must store one vector element per row, got ${p.stores}")
    assert(p.loads == 2 * N) // sel entry + column value
  }

  test("empty inputs are no-ops") {
    val s = sel(); val out = vec()
    assert(Prim.selLeC(col, 0, 0, 0L, s, null) == 0)
    Prim.gather(col, 0, s, out, null) // n = 0
    assert(Prim.sum(out, 0, null) == 0)
  }

  // ---- pinned modeled cost ----------------------------------------------
  // instr/loads/stores that each primitive charges a fresh Prof, for three
  // inputs: a 200-row batch its predicate partly selects, an empty batch, and
  // a sparse selection vector over that batch. These counts do not depend on
  // synthetic addresses (cache and stall counters do; qbench pins those).

  private val B = 200
  private val pinBase = 100
  private val inputs: Seq[(String, Sel)] = {
    val all = sel(); all.n = B; (0 until B).foreach(i => all.a(i) = i)
    val sparse = sel(); Prim.selGtC(col, pinBase, B, 0L, sparse, null)
    Seq("partial" -> all, "empty" -> sel(), "sparse" -> sparse)
  }

  /** `in` positions that the probe side keys with their own value; the build
    * side holds the even keys, so about half the probes match.
    */
  private def probed(in: Sel): (HashTable, TWProbe) = {
    val ht = new HashTable(2, B)
    val kV = vec(); val pV = vec(); val hV = vec()
    (0 until B / 2).foreach { i => kV.a(i) = 2L * i; pV.a(i) = 10L * i }
    Prim.hashMurmur(kV, B / 2, hV, null)
    TWJoin.buildInsert(ht, hV, Array(kV, pV), B / 2, null)
    val probe = new TWProbe(ht, 1, N)
    val keys = vec(); val hashes = vec()
    (0 until in.n).foreach(i => keys.a(i) = in.a(i).toLong)
    Prim.hashMurmur(keys, in.n, hashes, null)
    probe.probe(hashes, Array(keys), in.n, null)
    (ht, probe)
  }

  private val pinned: Seq[(String, (Sel, Prof) => Unit)] = {
    val va = vec(); val vb = vec(); val out = vec(); val so = sel()
    Prim.gatherDense(col, 0, N, va, null); Prim.gatherDense(col, 1, N - 1, vb, null)
    val cur = sel(); cur.n = B; (0 until B).foreach(i => cur.a(i) = 3 * i)
    Seq[(String, (Sel, Prof) => Unit)](
      "selLeC" -> ((in, p) => Prim.selLeC(col, pinBase, in.n, 13L, so, p)),
      "selLtC" -> ((in, p) => Prim.selLtC(col, pinBase, in.n, 13L, so, p)),
      "selGeC" -> ((in, p) => Prim.selGeC(col, pinBase, in.n, 13L, so, p)),
      "selGtC" -> ((in, p) => Prim.selGtC(col, pinBase, in.n, 13L, so, p)),
      "selEqC" -> ((in, p) => Prim.selEqC(col, pinBase, in.n, 13L, so, p)),
      "selEq2C" -> ((in, p) => Prim.selEq2C(col, pinBase, in.n, 13L, -7L, so, p)),
      "selLeCSel" -> ((in, p) => Prim.selLeCSel(col, pinBase, in, 13L, so, p)),
      "selLtCSel" -> ((in, p) => Prim.selLtCSel(col, pinBase, in, 13L, so, p)),
      "selGeCSel" -> ((in, p) => Prim.selGeCSel(col, pinBase, in, 13L, so, p)),
      "gather" -> ((in, p) => Prim.gather(col, pinBase, in, out, p)),
      "gatherDense" -> ((in, p) => Prim.gatherDense(col, pinBase, in.n, out, p)),
      "mapRsubC" -> ((in, p) => Prim.mapRsubC(va, 100L, in.n, out, p)),
      "mapAddC" -> ((in, p) => Prim.mapAddC(va, 7L, in.n, out, p)),
      "mapMul" -> ((in, p) => Prim.mapMul(va, vb, in.n, out, p)),
      "mapSub" -> ((in, p) => Prim.mapSub(va, vb, in.n, out, p)),
      "hashMurmur" -> ((in, p) => Prim.hashMurmur(va, in.n, out, p)),
      "hashCombine" -> ((in, p) => Prim.hashCombine(out, va, in.n, p)),
      "composeSel" -> ((in, p) => Prim.composeSel(cur, in, so, p)),
      "mapYear" -> ((in, p) => Prim.mapYear(va, in.n, out, p)),
      "sum" -> ((in, p) => Prim.sum(va, in.n, p)),
      "gatherBuild" -> ((in, p) => probed(in)._2.gatherBuild(1, out, p)),
      "gatherProbe" -> ((in, p) => probed(in)._2.gatherProbe(va, out, p)))
  }

  /** (instr, loads, stores) per input of [[inputs]]. A change here is a
    * change to the cost model and moves Table 1's and §4.4's counters.
    */
  private val pinnedCost = Map[String, Seq[(Long, Long, Long)]](
    "selLeC" -> Seq((1200L, 200L, 200L), (0L, 0L, 0L), (636L, 106L, 106L)),
    "selLtC" -> Seq((1200L, 200L, 200L), (0L, 0L, 0L), (636L, 106L, 106L)),
    "selGeC" -> Seq((1200L, 200L, 200L), (0L, 0L, 0L), (636L, 106L, 106L)),
    "selGtC" -> Seq((1200L, 200L, 200L), (0L, 0L, 0L), (636L, 106L, 106L)),
    "selEqC" -> Seq((1200L, 200L, 200L), (0L, 0L, 0L), (636L, 106L, 106L)),
    "selEq2C" -> Seq((1400L, 200L, 200L), (0L, 0L, 0L), (742L, 106L, 106L)),
    "selLeCSel" -> Seq((1400L, 400L, 200L), (0L, 0L, 0L), (742L, 212L, 106L)),
    "selLtCSel" -> Seq((1400L, 400L, 200L), (0L, 0L, 0L), (742L, 212L, 106L)),
    "selGeCSel" -> Seq((1400L, 400L, 200L), (0L, 0L, 0L), (742L, 212L, 106L)),
    "gather" -> Seq((1000L, 400L, 200L), (0L, 0L, 0L), (530L, 212L, 106L)),
    "gatherDense" -> Seq((800L, 200L, 200L), (0L, 0L, 0L), (424L, 106L, 106L)),
    "mapRsubC" -> Seq((1000L, 200L, 200L), (0L, 0L, 0L), (530L, 106L, 106L)),
    "mapAddC" -> Seq((1000L, 200L, 200L), (0L, 0L, 0L), (530L, 106L, 106L)),
    "mapMul" -> Seq((1200L, 400L, 200L), (0L, 0L, 0L), (636L, 212L, 106L)),
    "mapSub" -> Seq((1200L, 400L, 200L), (0L, 0L, 0L), (636L, 212L, 106L)),
    "hashMurmur" -> Seq((2400L, 200L, 200L), (0L, 0L, 0L), (1272L, 106L, 106L)),
    "hashCombine" -> Seq((3000L, 400L, 200L), (0L, 0L, 0L), (1590L, 212L, 106L)),
    "composeSel" -> Seq((1000L, 400L, 200L), (0L, 0L, 0L), (530L, 212L, 106L)),
    "mapYear" -> Seq((1800L, 200L, 200L), (0L, 0L, 0L), (954L, 106L, 106L)),
    "sum" -> Seq((800L, 200L, 0L), (0L, 0L, 0L), (424L, 106L, 0L)),
    "gatherBuild" -> Seq((500L, 200L, 100L), (0L, 0L, 0L), (275L, 110L, 55L)),
    "gatherProbe" -> Seq((500L, 200L, 100L), (0L, 0L, 0L), (275L, 110L, 55L))
  )

  for ((name, run) <- pinned) test(s"$name charges its pinned instructions, loads and stores") {
    val got = inputs.map { case (_, in) => val p = prof(); run(in, p); (p.instr, p.loads, p.stores) }
    assert(got == pinnedCost(name), s"$name, inputs ${inputs.map(_._1)}")
  }

  test("selection cost replay matches the predicated loop's accesses for unsorted, repeated positions") {
    val in = sel(); in.n = N
    (0 until N).foreach(i => in.a(i) = rnd.nextInt(N / 4))
    val out = sel(); val p = prof()
    val k = Prim.selLeCSel(col, 0, in, -20L, out, p)
    assert(k > 0 && k < N)
    // the access trace of the predicated loop itself, charged to a second fresh Prof
    val r = prof(); var kk = 0
    r.enterLoop(6)
    (0 until N).foreach { i =>
      val pos = in.a(i)
      r.load(in.addr + 4L * i); r.load(col.addr + 8L * pos); r.store(out.addr + 4L * kk); r.ops(2)
      if (data(pos) <= -20L) kk += 1
    }
    r.loop(N); r.exitLoop()
    assert(kk == k)
    assert((p.instr, p.loads, p.stores, p.l1Misses, p.llcMisses) == (r.instr, r.loads, r.stores, r.l1Misses, r.llcMisses))
    assert(p.memStallCycles == r.memStallCycles && p.cycles == r.cycles)
  }

  test("gatherBuild's cost replay reads the matched entries' payload slots") {
    val (ht, probe) = probed(inputs.head._2)
    val out = vec(); val p = prof()
    probe.gatherBuild(1, out, p)
    val n = probe.matchSel.n
    assert(n == B / 2 && (0 until n).forall(i => out.a(i) == 5L * probe.matchSel.a(i)))
    val r = prof()
    r.enterLoop(4)
    (0 until n).foreach { i =>
      r.load(probe.matchEntry.addr + 4L * i)
      r.load(ht.slotAddr(probe.matchEntry.a(i), 1))
      r.store(out.addr + 8L * i)
    }
    r.loop(n); r.exitLoop()
    assert((p.instr, p.loads, p.stores, p.l1Misses, p.memStallCycles) == (r.instr, r.loads, r.stores, r.l1Misses, r.memStallCycles))
  }

  test("a profiled in-place selection is refused") {
    val s = sel(); Prim.selGtC(col, 0, N, 0L, s, null)
    intercept[IllegalArgumentException] { Prim.selLeCSel(col, 0, s, 50L, s, prof()) }
  }
}
