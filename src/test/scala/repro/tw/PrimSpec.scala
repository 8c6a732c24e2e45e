package repro.tw

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Enc, Hash, HwProfile, LongCol, Prof}
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
}
