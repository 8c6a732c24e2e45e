package repro.tw

import repro.core.{Hash, LongCol, Prof}

/** Tectorwise primitives (§2.1): type-specialized tight loops that each do
  * one simple operation over a vector and materialize the result.
  *
  * Conventions:
  *  - `base` is the batch's starting row within the scanned column, so a
  *    column access reads `col.data(base + pos)` where `pos` is a position
  *    within the batch (0 ≤ pos < batch size).
  *  - "first" selection primitives scan the whole batch; "`Sel`" variants
  *    take an input selection vector (sparse access — §5.1's "sparse data
  *    loading") and emit a filtered selection vector.
  *  - value vectors produced by `gather`/`map*` are *dense*: element `i`
  *    corresponds to selection-vector entry `i`.
  *
  * Selections are *predicated* ("`*res=i; res+=cond`", §2.1): the candidate
  * position is always stored and the cursor advances conditionally, so
  * selection primitives expose no data-dependent branches to the branch
  * predictor — matching the paper's branch-free vectorized selection and its
  * near-zero TW branch-miss counts.
  *
  * Every primitive is one plain data loop that never refers to [[Prof]].
  * Given a (non-null) `Prof`, it then replays that loop's modeled cost with
  * one of three helpers — `costSelect`, `costGather` or `costDense`:
  * `enterLoop(body)`, per element the loads and stores at the vectors'
  * synthetic addresses plus its ALU ops, in loop order, then `loop(n)` and
  * `exitLoop()`. Modeled runs thus share no JIT branch profile with the
  * real-time loops. Every primitive is hand-specialized per comparison
  * operator — a lambda-generic loop would be megamorphic under the JIT and
  * distort real-time runs.
  */
object Prim {

  // ---- selection: full-batch input, predicated --------------------------

  /** sel ← { pos | col[base+pos] ≤ c }; returns count. */
  def selLeC(col: LongCol, base: Int, n: Int, c: Long, out: Sel, p: Prof): Int = {
    var k = 0; var i = 0
    while (i < n) { out.a(k) = i; if (col.data(base + i) <= c) k += 1; i += 1 }
    out.n = k
    if (p ne null) costSelect(4, null, n, col.addr + 8L * base, out, 2, p)
    k
  }

  /** sel ← { pos | col[base+pos] < c }. */
  def selLtC(col: LongCol, base: Int, n: Int, c: Long, out: Sel, p: Prof): Int = {
    var k = 0; var i = 0
    while (i < n) { out.a(k) = i; if (col.data(base + i) < c) k += 1; i += 1 }
    out.n = k
    if (p ne null) costSelect(4, null, n, col.addr + 8L * base, out, 2, p)
    k
  }

  /** sel ← { pos | col[base+pos] ≥ c }. */
  def selGeC(col: LongCol, base: Int, n: Int, c: Long, out: Sel, p: Prof): Int = {
    var k = 0; var i = 0
    while (i < n) { out.a(k) = i; if (col.data(base + i) >= c) k += 1; i += 1 }
    out.n = k
    if (p ne null) costSelect(4, null, n, col.addr + 8L * base, out, 2, p)
    k
  }

  /** sel ← { pos | col[base+pos] > c }. */
  def selGtC(col: LongCol, base: Int, n: Int, c: Long, out: Sel, p: Prof): Int = {
    var k = 0; var i = 0
    while (i < n) { out.a(k) = i; if (col.data(base + i) > c) k += 1; i += 1 }
    out.n = k
    if (p ne null) costSelect(4, null, n, col.addr + 8L * base, out, 2, p)
    k
  }

  /** sel ← { pos | col[base+pos] = c } (e.g. dictionary-code equality). */
  def selEqC(col: LongCol, base: Int, n: Int, c: Long, out: Sel, p: Prof): Int = {
    var k = 0; var i = 0
    while (i < n) { out.a(k) = i; if (col.data(base + i) == c) k += 1; i += 1 }
    out.n = k
    if (p ne null) costSelect(4, null, n, col.addr + 8L * base, out, 2, p)
    k
  }

  /** sel ← { pos | col[base+pos] ∈ {c1, c2} } (two-constant IN list). */
  def selEq2C(col: LongCol, base: Int, n: Int, c1: Long, c2: Long, out: Sel, p: Prof): Int = {
    var k = 0; var i = 0
    while (i < n) { out.a(k) = i; val v = col.data(base + i); if (v == c1 || v == c2) k += 1; i += 1 }
    out.n = k
    if (p ne null) costSelect(5, null, n, col.addr + 8L * base, out, 3, p)
    k
  }

  // ---- selection: selection-vector input (sparse loads, §5.1) -----------

  /** sel ← { pos ∈ in | col[base+pos] ≤ c }. */
  def selLeCSel(col: LongCol, base: Int, in: Sel, c: Long, out: Sel, p: Prof): Int = {
    var k = 0; var i = 0
    while (i < in.n) { val pos = in.a(i); out.a(k) = pos; if (col.data(base + pos) <= c) k += 1; i += 1 }
    out.n = k
    if (p ne null) costSelect(6, in, in.n, col.addr + 8L * base, out, 2, p)
    k
  }

  /** sel ← { pos ∈ in | col[base+pos] < c }. */
  def selLtCSel(col: LongCol, base: Int, in: Sel, c: Long, out: Sel, p: Prof): Int = {
    var k = 0; var i = 0
    while (i < in.n) { val pos = in.a(i); out.a(k) = pos; if (col.data(base + pos) < c) k += 1; i += 1 }
    out.n = k
    if (p ne null) costSelect(6, in, in.n, col.addr + 8L * base, out, 2, p)
    k
  }

  /** sel ← { pos ∈ in | col[base+pos] ≥ c }. */
  def selGeCSel(col: LongCol, base: Int, in: Sel, c: Long, out: Sel, p: Prof): Int = {
    var k = 0; var i = 0
    while (i < in.n) { val pos = in.a(i); out.a(k) = pos; if (col.data(base + pos) >= c) k += 1; i += 1 }
    out.n = k
    if (p ne null) costSelect(6, in, in.n, col.addr + 8L * base, out, 2, p)
    k
  }

  // ---- gather / map ------------------------------------------------------

  /** out[i] ← col[base + sel[i]] — materialize a column through a selection. */
  def gather(col: LongCol, base: Int, sel: Sel, out: Vec, p: Prof): Unit = {
    var i = 0
    while (i < sel.n) { out.a(i) = col.data(base + sel.a(i)); i += 1 }
    if (p ne null) costGather(sel.a, sel.addr, sel.n, col.addr + 8L * base, 8L, out.addr, 8L, p)
  }

  /** out[i] ← col[base + i] for a dense batch (no selection vector). */
  def gatherDense(col: LongCol, base: Int, n: Int, out: Vec, p: Prof): Unit = {
    var i = 0
    while (i < n) { out.a(i) = col.data(base + i); i += 1 }
    if (p ne null) costDense(3, n, col.addr + 8L * base, NoAddr, 0, out.addr, p)
  }

  /** out[i] ← c - in[i]. */
  def mapRsubC(in: Vec, c: Long, n: Int, out: Vec, p: Prof): Unit = {
    var i = 0
    while (i < n) { out.a(i) = c - in.a(i); i += 1 }
    if (p ne null) costDense(4, n, in.addr, NoAddr, 1, out.addr, p)
  }

  /** out[i] ← c + in[i]. */
  def mapAddC(in: Vec, c: Long, n: Int, out: Vec, p: Prof): Unit = {
    var i = 0
    while (i < n) { out.a(i) = c + in.a(i); i += 1 }
    if (p ne null) costDense(4, n, in.addr, NoAddr, 1, out.addr, p)
  }

  /** out[i] ← a[i] * b[i]. */
  def mapMul(va: Vec, vb: Vec, n: Int, out: Vec, p: Prof): Unit = {
    var i = 0
    while (i < n) { out.a(i) = va.a(i) * vb.a(i); i += 1 }
    if (p ne null) costDense(5, n, va.addr, vb.addr, 1, out.addr, p)
  }

  /** out[i] ← a[i] - b[i]. */
  def mapSub(va: Vec, vb: Vec, n: Int, out: Vec, p: Prof): Unit = {
    var i = 0
    while (i < n) { out.a(i) = va.a(i) - vb.a(i); i += 1 }
    if (p ne null) costDense(5, n, va.addr, vb.addr, 1, out.addr, p)
  }

  // ---- hashing (Murmur2 — the TW choice, §4.1) --------------------------

  /** out[i] ← murmur(in[i]). */
  def hashMurmur(in: Vec, n: Int, out: Vec, p: Prof): Unit = {
    var i = 0
    while (i < n) { out.a(i) = Hash.murmur(in.a(i)); i += 1 }
    if (p ne null) costDense(3 + Hash.murmurCost, n, in.addr, NoAddr, Hash.murmurCost, out.addr, p)
  }

  /** hashes[i] ← combine(hashes[i], in[i]) — composite keys, one column. */
  def hashCombine(hashes: Vec, in: Vec, n: Int, p: Prof): Unit = {
    var i = 0
    while (i < n) { hashes.a(i) = Hash.combine(hashes.a(i), in.a(i)); i += 1 }
    if (p ne null) costDense(4 + Hash.combineCost, n, hashes.addr, in.addr, Hash.combineCost, hashes.addr, p)
  }

  // ---- selection-vector composition / misc ------------------------------

  /** out[i] ← cur[matches[i]] — map match positions (which index a dense
    * intermediate space) back to original batch positions after a probe.
    */
  def composeSel(cur: Sel, matches: Sel, out: Sel, p: Prof): Int = {
    var i = 0
    while (i < matches.n) { out.a(i) = cur.a(matches.a(i)); i += 1 }
    out.n = matches.n
    if (p ne null) costGather(matches.a, matches.addr, matches.n, cur.addr, 4L, out.addr, 4L, p)
    out.n
  }

  /** out[i] ← year(in[i]) for epoch-day vectors. */
  def mapYear(in: Vec, n: Int, out: Vec, p: Prof): Unit = {
    var i = 0
    while (i < n) { out.a(i) = repro.core.DateUtil.yearOf(in.a(i)).toLong; i += 1 }
    if (p ne null) costDense(8, n, in.addr, NoAddr, 5, out.addr, p)
  }

  // ---- reductions --------------------------------------------------------

  /** Σ in[i] for i < n (ungrouped aggregation, e.g. Q6's revenue). */
  def sum(in: Vec, n: Int, p: Prof): Long = {
    var s = 0L; var i = 0
    while (i < n) { s += in.a(i); i += 1 }
    if (p ne null) costDense(3, n, in.addr, NoAddr, 1, NoAddr, p)
    s
  }

  // ---- modeled cost: replays of the loops above ---------------------------

  /** No second input / no output vector, for `costDense`. */
  private final val NoAddr = -1L

  /** A predicated selection over `n` elements: per element the `in` entry
    * (when `in` is a selection vector; `null` means position `i`), the
    * column value at `col + 8·pos`, `ops` ALU instructions, and the
    * candidate store at output cursor `k`. `k` is rebuilt from the result:
    * element `pos` was selected iff it is `out`'s next entry. That is exact
    * even for repeated positions, since the predicate depends on `pos` alone.
    */
  private def costSelect(body: Int, in: Sel, n: Int, col: Long, out: Sel, ops: Int, p: Prof): Unit = {
    require(in ne out, "costSelect replays the input, which an in-place selection has overwritten")
    p.enterLoop(body)
    var k = 0; var i = 0
    while (i < n) {
      val pos = if (in eq null) i else { p.load(in.addr + 4L * i); in.a(i) }
      p.load(col + 8L * pos); p.store(out.addr + 4L * k); p.ops(ops)
      if (k < out.n && out.a(k) == pos) k += 1
      i += 1
    }
    p.loop(n); p.exitLoop()
  }

  /** A gather `out[i] ← src[idx[i]]` over `n` elements: per element the
    * index entry at `idxAddr + 4·i`, the source value at
    * `src + srcStride·idx[i]` and the store at `out + outStride·i`. Serves
    * `Sel` and [[EntryVec]] indexes alike (see [[TWProbe]]).
    */
  private[tw] def costGather(idx: Array[Int], idxAddr: Long, n: Int, src: Long, srcStride: Long,
                             out: Long, outStride: Long, p: Prof): Unit = {
    require(out != idxAddr, "costGather replays the index vector, which an in-place gather has overwritten")
    p.enterLoop(4)
    var i = 0
    while (i < n) {
      p.load(idxAddr + 4L * i); p.load(src + srcStride * idx(i)); p.store(out + outStride * i)
      i += 1
    }
    p.loop(n); p.exitLoop()
  }

  /** An element-wise loop over `n` dense 8-byte positions: per element a
    * load from `a`, one from `b` and a store to `out` (each unless
    * `NoAddr`), and `ops` ALU instructions.
    */
  private def costDense(body: Int, n: Int, a: Long, b: Long, ops: Int, out: Long, p: Prof): Unit = {
    p.enterLoop(body)
    var i = 0
    while (i < n) {
      p.load(a + 8L * i)
      if (b != NoAddr) p.load(b + 8L * i)
      p.ops(ops)
      if (out != NoAddr) p.store(out + 8L * i)
      i += 1
    }
    p.loop(n); p.exitLoop()
  }
}
