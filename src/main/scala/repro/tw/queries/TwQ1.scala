package repro.tw.queries

import repro.core._
import repro.queries.{Q1Plan, QueryOut, TpchData}
import repro.tw._

/** Tectorwise TPC-H Q1: per batch — date selection primitive, six gathers,
  * hash primitives, group lookup, four arithmetic map primitives, five
  * aggregation primitives. Every intermediate is materialized into a vector
  * (the paper's §4.1 explanation of why TW runs ~2.4× the instructions of
  * Typer on this query).
  */
object TwQ1 {

  def run(d: TpchData, threads: Int, p: Prof, vecSize: Int = 1024): QueryOut = {
    val pl = new Q1Plan(d, threads); import pl._

    Morsel.run(threads) { ctx =>
      val agg = new TWAgg(shared.local(ctx.workerId), vecSize)
      val sel = new Sel(vecSize)
      val rfV = new Vec(vecSize); val lsV = new Vec(vecSize)
      val qtyV = new Vec(vecSize); val epV = new Vec(vecSize)
      val discV = new Vec(vecSize); val taxV = new Vec(vecSize)
      val hV = new Vec(vecSize)
      val t1 = new Vec(vecSize); val t2 = new Vec(vecSize)
      val discPriceV = new Vec(vecSize); val chargeV = new Vec(vecSize)

      disp.batches(vecSize) { (base, n) =>
        val k = Prim.selLeC(sd, base, n, cutoff, sel, p)
        if (k > 0) {
          Prim.gather(rf, base, sel, rfV, p)
          Prim.gather(ls, base, sel, lsV, p)
          Prim.gather(qty, base, sel, qtyV, p)
          Prim.gather(ep, base, sel, epV, p)
          Prim.gather(disc, base, sel, discV, p)
          Prim.gather(tax, base, sel, taxV, p)
          Prim.hashMurmur(rfV, k, hV, p)
          Prim.hashCombine(hV, lsV, k, p)
          agg.findGroups(hV, Array(rfV, lsV), k, p)
          Prim.mapRsubC(discV, 100L, k, t1, p)        // 100 - disc
          Prim.mapMul(epV, t1, k, discPriceV, p)      // ep * (100 - disc)
          Prim.mapAddC(taxV, 100L, k, t2, p)          // 100 + tax
          Prim.mapMul(discPriceV, t2, k, chargeV, p)  // charge
          agg.sumInto(0, qtyV, k, p)
          agg.sumInto(1, epV, k, p)
          agg.sumInto(2, discPriceV, k, p)
          agg.sumInto(3, chargeV, k, p)
          agg.countInto(4, k, p)
        }
      }
      finish(ctx, p)
    }
    result
  }
}
