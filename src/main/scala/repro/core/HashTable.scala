package repro.core

import java.util.concurrent.atomic.{AtomicInteger, AtomicLongArray}

/** Hash functions used by the two engines (§4.1).
  *
  * The paper settles on Murmur2 for Tectorwise (higher throughput, more
  * instructions) and a CRC-based combine for Typer (fewer instructions,
  * lower latency — helps speculative execution of fused loops). We model the
  * same split: `murmur` costs ~8 modeled instructions per long, `crc` ~3
  * (implemented as a multiply–xorshift with CRC-like cost, since JVMs lack a
  * guaranteed CRC32 instruction — substitution documented in DESIGN.md).
  */
object Hash {
  /** 64-bit Murmur2 one-value hash (Tectorwise). ~8 instructions. */
  def murmur(k: Long): Long = {
    val m = 0xC6A4A7935BD1E995L
    var h = 0x8445D61A4E774912L ^ (8 * m)
    var x = k * m
    x ^= x >>> 47
    x *= m
    h ^= x
    h *= m
    h ^= h >>> 47
    h
  }
  val murmurCost = 8

  /** CRC-style cheap hash (Typer). ~3 instructions. */
  def crc(k: Long): Long = {
    var h = k * 0x2545F4914F6CDD1DL
    h ^= h >>> 29
    h
  }
  val crcCost = 3

  /** Combine an existing hash with another key column (composite keys). */
  def combine(h: Long, k: Long): Long = murmur(k) ^ (h * 0x9E3779B97F4A7C15L)
  val combineCost = 10

  /** Typer's composite hash: one fused CRC over both keys ("combines two
    * 32-bit CRC results into a single 64-bit hash") — cheaper than hashing
    * each column separately, which vectorized code cannot avoid.
    */
  def crc2(k0: Long, k1: Long): Long = crc(k0 + k1 * 0x9E3779B97F4A7C15L)
  val crc2Cost = 5
}

/** The chaining join hash table shared by Typer and Tectorwise (§3.2).
  *
  * Row-format entries live in one flat `Array[Long]` heap:
  * `[next, hash, slot0, slot1, ...]` per entry (`next` is entryIdx+1, 0 ends
  * the chain). The bucket directory packs a 16-bit Bloom-filter-like tag in
  * the upper bits of each word ("using 16 (unused) bits of each pointer"), so
  * a probe miss usually skips the chain without touching any entry.
  *
  * Inserts are lock-free: bump-allocate the entry, write its slots, then
  * CAS-publish onto the bucket head — this is the morsel-parallel shared
  * build of §6.1. Capacity is fixed up front from the build-side cardinality
  * bound (both engines size it the same way).
  *
  * All methods take a [[Prof]] (nullable) and account their own loads,
  * stores, ALU ops, and data-dependent branches.
  */
/** @param expectedEntries hard upper bound on inserts (sizes the entry heap)
  * @param bucketHint expected *actual* build cardinality (sizes the bucket
  *   directory; -1 ⇒ use `expectedEntries`). Production engines size the
  *   directory from the materialized build side (VectorWise) or optimizer
  *   estimates (HyPer); an upper-bound-sized directory for a selective build
  *   would scatter probes over unused buckets and fabricate cache misses.
  *   Underestimates only lengthen chains — correctness is unaffected.
  */
final class HashTable(val slots: Int, expectedEntries: Int, bucketHint: Int = -1) {
  val stride: Int = 2 + slots
  // Workers reserve entry-index chunks, not single entries: a per-insert
  // getAndIncrement on one AtomicInteger serializes 16-way parallel builds
  // (§6.2's scaling depends on this). Chunk size scales with the table so
  // tiny tables keep exact capacity semantics; the heap carries slack for
  // the partially-used chunk tail of each worker.
  private val chunk = math.max(1, math.min(256, expectedEntries / 512))
  private val cap = math.max(1, expectedEntries) + (if (chunk > 1) 64 * chunk else 0)
  private val heap = new Array[Long](cap * stride)
  private val heapAddr = Addr.alloc(8L * heap.length)
  private val counter = new AtomicInteger(0)
  private val localRange = ThreadLocal.withInitial[Array[Int]](() => Array(0, 0))

  val numBuckets: Int = {
    val target = math.max(16, if (bucketHint >= 0) bucketHint else cap) * 2L
    var b = 1
    while (b < target) b <<= 1
    b
  }
  private val mask = numBuckets - 1
  private val buckets = new AtomicLongArray(numBuckets)
  private val bucketAddr = Addr.alloc(8L * numBuckets)

  private val idxMask = 0xFFFFFFFFFFFFL

  private val tagOf: Long => Long = h => 1L << (48 + ((h >>> 59) & 15).toInt)

  /** Upper bound on reserved entries (includes unused chunk tails). */
  def size: Int = counter.get

  /** Reserve an entry; write keys/values with [[setSlot]], then [[publish]]. */
  def reserve(p: Prof): Int = {
    if (p ne null) p.ops(2)
    val r = localRange.get()
    if (r(0) < r(1)) { val e = r(0); r(0) = e + 1; return e }
    val start = counter.getAndAdd(chunk)
    if (start >= cap) throw new IllegalStateException(s"HashTable over capacity $cap")
    r(0) = start + 1
    r(1) = math.min(cap, start + chunk)
    start
  }

  def setSlot(e: Int, i: Int, v: Long, p: Prof): Unit = {
    heap(e * stride + 2 + i) = v
    if (p ne null) p.store(heapAddr + 8L * (e * stride + 2 + i))
  }

  /** Link the fully-written entry into its bucket (lock-free CAS). */
  def publish(e: Int, hash: Long, p: Prof): Unit = {
    val base = e * stride
    heap(base + 1) = hash
    val b = (hash & mask).toInt
    val tag = tagOf(hash)
    var done = false
    while (!done) {
      val old = buckets.get(b)
      heap(base) = old & idxMask // next := previous head (idx+1 encoding)
      val neu = (old & ~idxMask) | tag | (e + 1).toLong
      done = buckets.compareAndSet(b, old, neu)
    }
    if (p ne null) { p.store(heapAddr + 8L * base); p.store(bucketAddr + 8L * b); p.ops(4) }
  }

  /** Head of the chain for `hash`, or -1. Tag check filters most misses. */
  def first(hash: Long, p: Prof): Int = {
    val b = (hash & mask).toInt
    val word = buckets.get(b)
    if (p ne null) { p.load(bucketAddr + 8L * b); p.ops(3) }
    if ((word & tagOf(hash)) == 0) -1 else (word & idxMask).toInt - 1
  }

  /** Next entry in the chain after `e`, or -1. */
  def next(e: Int, p: Prof): Int = {
    if (p ne null) p.load(heapAddr + 8L * (e * stride))
    heap(e * stride).toInt - 1
  }

  def getSlot(e: Int, i: Int, p: Prof): Long = {
    if (p ne null) p.load(heapAddr + 8L * (e * stride + 2 + i))
    heap(e * stride + 2 + i)
  }

  /** Synthetic address of an entry slot (for caller-side accounting). */
  def slotAddr(e: Int, i: Int): Long = heapAddr + 8L * (e * stride + 2 + i)
}
