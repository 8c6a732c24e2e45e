package repro.tw

import repro.core.{BranchSim, HashTable, Prof}

/** Vectorized hash-join operators (paper Fig. 2b).
  *
  * [[TWJoin.buildInsert]] consumes a batch of build-side key/payload vectors
  * into the shared [[HashTable]] (thread-safe — multiple workers insert, per
  * §6.1). [[TWProbe]] implements the probe loop verbatim from the paper:
  * findCandidates from the hash vector, then iterate {compareKeys primitive
  * per key column → extractHits → advance survivors down their chains} until
  * the candidate vector is empty, then buildGather to materialize build-side
  * payloads for the matches.
  *
  * Build keys are unique in all reproduced queries (FK→PK joins), so a key
  * match terminates that probe position's chain walk.
  */
object TWJoin {

  /** Insert batch rows into `ht`. `vecs` holds the key columns first, then
    * payload columns, matching the table's slot layout; `hashes` is the
    * precomputed hash vector.
    */
  def buildInsert(ht: HashTable, hashes: Vec, vecs: Array[Vec], n: Int, p: Prof): Unit = {
    if (p ne null) p.enterLoop(8 + 2 * vecs.length)
    var i = 0
    while (i < n) {
      val e = ht.reserve(p)
      var s = 0
      while (s < vecs.length) {
        if (p ne null) p.load(vecs(s).addr + 8L * i)
        ht.setSlot(e, s, vecs(s).a(i), p)
        s += 1
      }
      if (p ne null) p.load(hashes.addr + 8L * i)
      ht.publish(e, hashes.a(i), p)
      i += 1
    }
    if (p ne null) { p.loop(n); p.exitLoop() }
  }
}

/** Probe-side state for one vectorized hash join (one instance per worker —
  * vectors are worker-private; only the [[HashTable]] is shared).
  *
  * After [[probe]]: `matchSel` holds the batch positions that found a match
  * (a sub-selection of the input positions) and `matchEntry.a(i)` the
  * corresponding hash-table entry, for i < `matchSel.n`.
  */
final class TWProbe(ht: HashTable, keySlots: Int, vecSize: Int) {
  val matchSel = new Sel(vecSize)
  val matchEntry = new EntryVec(vecSize)

  private val cand = new EntryVec(vecSize)     // candidate entry per batch position
  private val active = new Sel(vecSize)        // positions still walking chains
  private val survivors = new Sel(vecSize)
  private val eq = new Array[Boolean](vecSize)
  private val eqAddr = repro.core.Addr.alloc(vecSize.toLong)

  private val sCand = BranchSim.site()
  private val sEq = BranchSim.site()
  private val sChain = BranchSim.site()

  /** Probe `n` positions; `keys(s)` are dense key vectors aligned with
    * positions; `hashes` likewise. Returns the number of matches.
    */
  def probe(hashes: Vec, keys: Array[Vec], n: Int, p: Prof): Int = {
    require(keys.length == keySlots)
    // findCandidates: simple loop over the hash vector — tiny body, high MLP
    var i = 0
    if (p ne null) p.enterLoop(6)
    active.n = 0
    while (i < n) {
      if (p ne null) p.load(hashes.addr + 8L * i)
      val e = ht.first(hashes.a(i), p)
      cand.a(i) = e
      val hit = e >= 0
      if (p ne null) { p.branch(sCand, hit); p.store(cand.addr + 4L * i) }
      if (hit) { active.a(active.n) = i; active.n += 1 }
      i += 1
    }
    if (p ne null) { p.loop(n); p.exitLoop() }

    matchSel.n = 0
    while (active.n > 0) {
      // compareKeys: one primitive invocation per key column (constraint (i))
      var s = 0
      while (s < keySlots) {
        var j = 0
        if (p ne null) p.enterLoop(7)
        while (j < active.n) {
          val pos = active.a(j)
          if (p ne null) p.load(active.addr + 4L * j)
          val ev = ht.getSlot(cand.a(pos), s, p)
          if (p ne null) p.load(keys(s).addr + 8L * pos)
          val same = ev == keys(s).a(pos)
          val acc = if (s == 0) same else eq(pos) && same
          eq(pos) = acc
          if (p ne null) { p.ops(2); p.store(eqAddr + pos) }
          j += 1
        }
        if (p ne null) { p.loop(active.n); p.exitLoop() }
        s += 1
      }
      // extractHits + advance non-hits down their chains
      survivors.n = 0
      var j = 0
      if (p ne null) p.enterLoop(8)
      while (j < active.n) {
        val pos = active.a(j)
        if (p ne null) { p.load(active.addr + 4L * j); p.load(eqAddr + pos) }
        val isEq = eq(pos)
        if (p ne null) p.branch(sEq, isEq)
        if (isEq) {
          matchSel.a(matchSel.n) = pos
          matchEntry.a(matchSel.n) = cand.a(pos)
          if (p ne null) { p.store(matchSel.addr + 4L * matchSel.n); p.store(matchEntry.addr + 4L * matchSel.n) }
          matchSel.n += 1
        } else {
          val nx = ht.next(cand.a(pos), p)
          cand.a(pos) = nx
          val more = nx >= 0
          if (p ne null) { p.branch(sChain, more); p.store(cand.addr + 4L * pos) }
          if (more) { survivors.a(survivors.n) = pos; survivors.n += 1 }
        }
        j += 1
      }
      if (p ne null) { p.loop(active.n); p.exitLoop() }
      // swap survivors into active
      System.arraycopy(survivors.a, 0, active.a, 0, survivors.n)
      active.n = survivors.n
    }
    matchSel.n
  }

  /** buildGather: out[i] ← slot `s` of matched entry i (build payloads). */
  def gatherBuild(s: Int, out: Vec, p: Prof): Unit = {
    var i = 0
    while (i < matchSel.n) { out.a(i) = ht.getSlot(matchEntry.a(i), s, null); i += 1 }
    if (p ne null) // entry e's slot s lies at slotAddr(0, s) + 8·stride·e
      Prim.costGather(matchEntry.a, matchEntry.addr, matchSel.n, ht.slotAddr(0, s), 8L * ht.stride, out.addr, 8L, p)
  }

  /** out[i] ← probeVec[matchSel[i]] — realign a dense probe-side vector to
    * the matched positions (for feeding the next operator).
    */
  def gatherProbe(in: Vec, out: Vec, p: Prof): Unit = {
    var i = 0
    while (i < matchSel.n) { out.a(i) = in.a(matchSel.a(i)); i += 1 }
    if (p ne null) Prim.costGather(matchSel.a, matchSel.addr, matchSel.n, in.addr, 8L, out.addr, 8L, p)
  }
}
