package repro.core

/** Single-writer aggregation hash table with in-place update and growth.
  *
  * Used by both engines for group-by (§2.2, §3.2): each worker pre-aggregates
  * into a private instance, spills/partitions by hash, and a final phase
  * merges each partition in another private instance. Entries are row-format
  * in a flat heap `[next, hash, key0..key(k-1), val0..val(v-1)]`; buckets are
  * a plain `Array[Long]` with the same 16-bit tag trick as [[HashTable]].
  *
  * Not thread-safe by design — parallelism comes from partitioning, exactly
  * as in the paper's two-phase aggregation.
  */
final class AggHashTable(val keySlots: Int, val valSlots: Int, initialCapacity: Int = 1024) {
  val stride: Int = 2 + keySlots + valSlots
  private var cap = math.max(16, Integer.highestOneBit(initialCapacity - 1) * 2)
  private var heap = new Array[Long](cap * stride)
  private var heapAddr = Addr.alloc(8L * heap.length)
  private var count = 0

  private var numBuckets = cap * 2
  private var mask = numBuckets - 1
  private var buckets = new Array[Long](numBuckets)
  private var bucketAddr = Addr.alloc(8L * numBuckets)

  private val idxMask = 0xFFFFFFFFFFFFL

  private var lastNew = false

  def size: Int = count
  /** Whether the most recent [[findOrInsert]] created the group. */
  def wasNew: Boolean = lastNew

  /** Find the group for `hash`/`keys`, or -1 (keys read from `keys(keyOff+i)`). */
  def find(hash: Long, keys: Array[Long], keyOff: Int, p: Prof): Int = {
    val b = (hash & mask).toInt
    val word = buckets(b)
    if (p ne null) { p.load(bucketAddr + 8L * b); p.ops(3) }
    if ((word & Hash.tag(hash)) == 0) return -1
    var e = (word & idxMask).toInt - 1
    while (e >= 0) {
      val base = e * stride
      if (p ne null) p.load(heapAddr + 8L * base)
      var eq = heap(base + 1) == hash
      var i = 0
      while (eq && i < keySlots) {
        if (p ne null) { p.load(heapAddr + 8L * (base + 2 + i)); p.ops(1) }
        eq = heap(base + 2 + i) == keys(keyOff + i)
        i += 1
      }
      if (p ne null) p.branch(AggHashTable.eqSite, eq)
      if (eq) return e
      e = heap(base).toInt - 1
    }
    -1
  }

  /** Insert a new group (caller must know it is absent); values zero-init. */
  def insert(hash: Long, keys: Array[Long], keyOff: Int, p: Prof): Int = {
    if (count == cap) growHeap()
    if (count * 4 >= numBuckets * 3) growBuckets() // load factor 0.75
    val e = count; count += 1
    val base = e * stride
    heap(base + 1) = hash
    var i = 0
    while (i < keySlots) { heap(base + 2 + i) = keys(keyOff + i); i += 1 }
    val b = (hash & mask).toInt
    val old = buckets(b)
    heap(base) = old & idxMask
    buckets(b) = (old & ~idxMask) | Hash.tag(hash) | (e + 1).toLong
    if (p ne null) {
      p.store(heapAddr + 8L * base); p.store(bucketAddr + 8L * b)
      var j = 0
      while (j < keySlots) { p.store(heapAddr + 8L * (base + 2 + j)); j += 1 }
      p.ops(5)
    }
    e
  }

  def findOrInsert(hash: Long, keys: Array[Long], keyOff: Int, p: Prof): Int = {
    val e = find(hash, keys, keyOff, p)
    if (e >= 0) { lastNew = false; e }
    else { lastNew = true; insert(hash, keys, keyOff, p) }
  }

  def entryHash(e: Int): Long = heap(e * stride + 1)
  def key(e: Int, i: Int): Long = heap(e * stride + 2 + i)
  def value(e: Int, i: Int): Long = heap(e * stride + 2 + keySlots + i)

  /** In-place aggregate update: `value(i) += delta`. */
  def addToValue(e: Int, i: Int, delta: Long, p: Prof): Unit = {
    val off = e * stride + 2 + keySlots + i
    heap(off) += delta
    if (p ne null) { p.load(heapAddr + 8L * off); p.store(heapAddr + 8L * off); p.ops(1) }
  }

  /** `value(i) = max(value(i), v)` — for MIN/MAX aggregates. */
  def maxValue(e: Int, i: Int, v: Long, p: Prof): Unit = {
    val off = e * stride + 2 + keySlots + i
    if (v > heap(off)) heap(off) = v
    if (p ne null) { p.load(heapAddr + 8L * off); p.ops(2) }
  }

  def setValue(e: Int, i: Int, v: Long): Unit = heap(e * stride + 2 + keySlots + i) = v

  private def growHeap(): Unit = {
    cap *= 2
    heap = java.util.Arrays.copyOf(heap, cap * stride)
    heapAddr = Addr.alloc(8L * heap.length)
  }

  private def growBuckets(): Unit = {
    numBuckets *= 2
    mask = numBuckets - 1
    buckets = new Array[Long](numBuckets)
    bucketAddr = Addr.alloc(8L * numBuckets)
    var e = 0
    while (e < count) {
      val base = e * stride
      val h = heap(base + 1)
      val b = (h & mask).toInt
      val old = buckets(b)
      heap(base) = old & idxMask
      buckets(b) = (old & ~idxMask) | Hash.tag(h) | (e + 1).toLong
      e += 1
    }
  }
}

object AggHashTable {
  private val eqSite = BranchSim.site()
}
