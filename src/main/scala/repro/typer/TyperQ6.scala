package repro.typer

import repro.core._
import repro.queries.{Q6Plan, QueryOut, TpchData}

/** Typer TPC-H Q6: fused selective scan with *branch-free* predication —
  * the paper's Typer evaluates Q6's selection without branches (footnote 8:
  * "Typer's branch-free selection implementation consumes more memory
  * bandwidth"), so every predicate column is loaded unconditionally and the
  * qualifying row's revenue is accumulated under a 0/1 mask.
  */
object TyperQ6 {

  def run(d: TpchData, threads: Int, p: Prof): QueryOut = {
    val pl = new Q6Plan(d); import pl._

    Morsel.run(threads) { _ =>
      if (p ne null) p.enterLoop(16)
      disp.morsels { (start, end) =>
        var sum = 0L
        var hits = 0L
        var i = start
        while (i < end) {
          val s = sd.data(i)
          val dc = disc.data(i)
          val q = qty.data(i)
          val e = ep.data(i)
          if (p ne null) {
            p.load(sd.addr + 8L * i); p.load(disc.addr + 8L * i)
            p.load(qty.addr + 8L * i); p.load(ep.addr + 8L * i)
            p.ops(8) // five compares folded to a mask + mul + masked add
          }
          val mask =
            (if (s >= dateLo && s < dateHi &&
                 dc >= discLo && dc <= discHi && q < qtyMax) 1L else 0L)
          sum += mask * (e * dc)
          hits += mask
          i += 1
        }
        total.add(sum)
        matched.addAndGet(hits)
      }
      if (p ne null) { p.loop(li.numRows); p.exitLoop() }
    }
    result
  }
}
