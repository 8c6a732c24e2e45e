package repro.ssb

import repro.core._
import repro.queries.{AggPlan, OutCol, SumPlan}
import repro.queries.QueryOut.L

/** SSB Q1.1: date (year 1993) → HT(datekey); lineorder filtered on discount
  * and quantity probes it, summing revenue.
  */
final class Q11Plan(d: SsbDataSet) extends SumPlan(Vector(OutCol("revenue"))) {
  val lo = d.lineorder; val dd = d.date
  val loDate = lo("lo_orderdate"); val loDisc = lo("lo_discount")
  val loQty = lo("lo_quantity"); val loEp = lo("lo_extendedprice_c")
  val htD = new HashTable(1, dd.numRows)
  val dispD = Morsel.scanDispenser(dd, 2)
  val dispL = Morsel.scanDispenser(lo, 4)
}

/** SSB Q2.1: date → HT(datekey → year), part (category MFGR#12) →
  * HT(partkey → brand1), supplier (region AMERICA) → HT(suppkey); revenue
  * grouped by (year, brand1).
  */
final class Q21Plan(d: SsbDataSet, threads: Int) extends AggPlan(Vector(
    OutCol("d_year"), OutCol("p_brand1", isString = true), OutCol("revenue"))) {
  val lo = d.lineorder; val dd = d.date; val pt = d.part; val su = d.supplier
  val loDate = lo("lo_orderdate"); val loPart = lo("lo_partkey")
  val loSupp = lo("lo_suppkey"); val loRev = lo("lo_revenue_c")
  val catCode = d.code(pt, "p_category", "MFGR#12")
  val regCode = d.code(su, "s_region", "AMERICA")
  val htD = new HashTable(2, dd.numRows)   // datekey → year
  val htP = new HashTable(2, pt.numRows, pt.numRows / 16)   // partkey → brand1
  val htS = new HashTable(1, su.numRows, su.numRows / 4)
  val dispD = Morsel.scanDispenser(dd, 2)
  val dispP = Morsel.scanDispenser(pt, 3)
  val dispS = Morsel.scanDispenser(su, 3)
  val dispL = Morsel.scanDispenser(lo, 4)
  val shared = new SharedAgg(2, 1, Array(AggOp.Sum), threads, 1024)

  def row(fin: AggHashTable, e: Int): Array[Any] =
    Array[Any](L(fin.key(e, 0)), pt("p_brand1").dict(fin.key(e, 1).toInt), L(fin.value(e, 0)))
}

/** SSB Q3.1: date (1992–1997) → HT(datekey → year), supplier and customer
  * (region ASIA) → HT(key → nation); revenue grouped by (c_nation,
  * s_nation, year).
  */
final class Q31Plan(d: SsbDataSet, threads: Int) extends AggPlan(Vector(
    OutCol("c_nation", isString = true), OutCol("s_nation", isString = true),
    OutCol("d_year"), OutCol("revenue"))) {
  val lo = d.lineorder; val dd = d.date; val su = d.supplier; val cu = d.customer
  val loDate = lo("lo_orderdate"); val loSupp = lo("lo_suppkey")
  val loCust = lo("lo_custkey"); val loRev = lo("lo_revenue_c")
  val sAsia = d.code(su, "s_region", "ASIA")
  val cAsia = d.code(cu, "c_region", "ASIA")
  val htD = new HashTable(2, dd.numRows)   // datekey → year (filtered 92..97)
  val htS = new HashTable(2, su.numRows, su.numRows / 4)   // suppkey → nation
  val htC = new HashTable(2, cu.numRows, cu.numRows / 4)   // custkey → nation
  val dispD = Morsel.scanDispenser(dd, 2)
  val dispS = Morsel.scanDispenser(su, 3)
  val dispC = Morsel.scanDispenser(cu, 3)
  val dispL = Morsel.scanDispenser(lo, 4)
  val shared = new SharedAgg(3, 1, Array(AggOp.Sum), threads, 1024)

  def row(fin: AggHashTable, e: Int): Array[Any] =
    Array[Any](cu("c_nation").dict(fin.key(e, 0).toInt), su("s_nation").dict(fin.key(e, 1).toInt),
               L(fin.key(e, 2)), L(fin.value(e, 0)))
}

/** SSB Q4.1: date → HT(datekey → year), part (mfgr MFGR#1 or #2) →
  * HT(partkey), supplier (region AMERICA) → HT(suppkey), customer (region
  * AMERICA) → HT(custkey → nation); profit grouped by (year, c_nation).
  */
final class Q41Plan(d: SsbDataSet, threads: Int) extends AggPlan(Vector(
    OutCol("d_year"), OutCol("c_nation", isString = true), OutCol("profit"))) {
  val lo = d.lineorder; val dd = d.date; val pt = d.part
  val su = d.supplier; val cu = d.customer
  val loDate = lo("lo_orderdate"); val loPart = lo("lo_partkey")
  val loSupp = lo("lo_suppkey"); val loCust = lo("lo_custkey")
  val loRev = lo("lo_revenue_c"); val loCost = lo("lo_supplycost_c")
  val mfgr1 = d.code(pt, "p_mfgr", "MFGR#1"); val mfgr2 = d.code(pt, "p_mfgr", "MFGR#2")
  val sAm = d.code(su, "s_region", "AMERICA")
  val cAm = d.code(cu, "c_region", "AMERICA")
  val htD = new HashTable(2, dd.numRows)
  val htP = new HashTable(1, pt.numRows, pt.numRows / 2)
  val htS = new HashTable(1, su.numRows, su.numRows / 4)
  val htC = new HashTable(2, cu.numRows, cu.numRows / 4)
  val dispD = Morsel.scanDispenser(dd, 2)
  val dispP = Morsel.scanDispenser(pt, 3)
  val dispS = Morsel.scanDispenser(su, 3)
  val dispC = Morsel.scanDispenser(cu, 3)
  val dispL = Morsel.scanDispenser(lo, 4)
  val shared = new SharedAgg(2, 1, Array(AggOp.Sum), threads, 1024)

  def row(fin: AggHashTable, e: Int): Array[Any] =
    Array[Any](L(fin.key(e, 0)), cu("c_nation").dict(fin.key(e, 1).toInt), L(fin.value(e, 0)))
}
