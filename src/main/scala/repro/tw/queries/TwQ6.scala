package repro.tw.queries

import repro.core._
import repro.queries.{Q6Plan, QueryOut, TpchData}
import repro.tw._

/** Tectorwise TPC-H Q6: a cascade of five selection primitives — the first
  * scans the full batch, the rest consume the shrinking selection vector
  * (the paper's §5.1 "sparse data loading" pattern) — then gather + multiply
  * + sum primitives.
  */
object TwQ6 {

  def run(d: TpchData, threads: Int, p: Prof, vecSize: Int = 1024): QueryOut = {
    val pl = new Q6Plan(d); import pl._

    Morsel.run(threads) { ctx =>
      val s1 = new Sel(vecSize); val s2 = new Sel(vecSize); val s3 = new Sel(vecSize)
      val s4 = new Sel(vecSize); val s5 = new Sel(vecSize)
      val epV = new Vec(vecSize); val discV = new Vec(vecSize); val revV = new Vec(vecSize)
      var sum = 0L; var hits = 0L

      disp.batches(vecSize) { (base, n) =>
        var k = Prim.selGeC(sd, base, n, dateLo, s1, p)
        if (k > 0) k = Prim.selLtCSel(sd, base, s1, dateHi, s2, p)
        if (k > 0) k = Prim.selGeCSel(disc, base, s2, discLo, s3, p)
        if (k > 0) k = Prim.selLeCSel(disc, base, s3, discHi, s4, p)
        if (k > 0) k = Prim.selLtCSel(qty, base, s4, qtyMax, s5, p)
        if (k > 0) {
          Prim.gather(ep, base, s5, epV, p)
          Prim.gather(disc, base, s5, discV, p)
          Prim.mapMul(epV, discV, k, revV, p)
          sum += Prim.sum(revV, k, p)
          hits += k
        }
      }
      total.add(sum)
      matched.addAndGet(hits)
      ()
    }
    result
  }
}
