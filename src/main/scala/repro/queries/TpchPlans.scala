package repro.queries

import repro.core._
import repro.queries.QueryOut.L

/** Q1: lineitem scan below the ship-date cutoff, five sums grouped by
  * (returnflag, linestatus).
  */
final class Q1Plan(d: TpchData, threads: Int) extends AggPlan(Q1Plan.schema) {
  val li = d.lineitem
  val sd = li("l_shipdate"); val rf = li("l_returnflag"); val ls = li("l_linestatus")
  val qty = li("l_quantity_c"); val ep = li("l_extendedprice_c")
  val disc = li("l_discount_c"); val tax = li("l_tax_c")
  val cutoff = TpchConsts.q1Cutoff

  val shared = new SharedAgg(2, 5,
    Array(AggOp.Sum, AggOp.Sum, AggOp.Sum, AggOp.Sum, AggOp.Sum), threads, 16)
  val disp = Morsel.scanDispenser(li, 7)

  def row(fin: AggHashTable, e: Int): Array[Any] = Array[Any](
    rf.dict(fin.key(e, 0).toInt), ls.dict(fin.key(e, 1).toInt),
    L(fin.value(e, 0)), L(fin.value(e, 1)), L(fin.value(e, 2)),
    L(fin.value(e, 3)), L(fin.value(e, 4)))
}

object Q1Plan {
  val schema: Vector[OutCol] = Vector(
    OutCol("l_returnflag", isString = true), OutCol("l_linestatus", isString = true),
    OutCol("sum_qty"), OutCol("sum_base"), OutCol("sum_disc_price"),
    OutCol("sum_charge"), OutCol("count_order"))
}

/** Q6: selective lineitem scan summing revenue. */
final class Q6Plan(d: TpchData) extends SumPlan(Q6Plan.schema) {
  val li = d.lineitem
  val sd = li("l_shipdate"); val disc = li("l_discount_c")
  val qty = li("l_quantity_c"); val ep = li("l_extendedprice_c")
  val dateLo = TpchConsts.q6DateLo; val dateHi = TpchConsts.q6DateHi
  val discLo = TpchConsts.q6DiscLo; val discHi = TpchConsts.q6DiscHi
  val qtyMax = TpchConsts.q6QtyMax

  val disp = Morsel.scanDispenser(li, 4)
}

object Q6Plan {
  val schema: Vector[OutCol] = Vector(OutCol("revenue"))
}

/** Q3: customer (segment filter) → HT(custkey); orders (date filter) ⋈
  * HT_c → HT(orderkey → date, prio); lineitem (date filter) ⋈ HT_o, revenue
  * grouped by (orderkey, orderdate, shippriority).
  */
final class Q3Plan(d: TpchData, threads: Int) extends AggPlan(Q3Plan.schema) {
  val cu = d.customer; val or = d.orders; val li = d.lineitem
  val cKey = cu("c_custkey"); val cSeg = cu("c_mktsegment")
  val oKey = or("o_orderkey"); val oCust = or("o_custkey")
  val oDate = or("o_orderdate"); val oPrio = or("o_shippriority")
  val lKey = li("l_orderkey"); val lDate = li("l_shipdate")
  val lEp = li("l_extendedprice_c"); val lDisc = li("l_discount_c")
  val segCode = d.code(cu, "c_mktsegment", TpchConsts.q3Segment)
  val cutoff = TpchConsts.q3Date

  val htC = new HashTable(1, cu.numRows, cu.numRows / 4)            // custkey
  val htO = new HashTable(3, or.numRows, or.numRows / 2)            // orderkey, date, prio
  val shared = new SharedAgg(3, 1, Array(AggOp.Sum), threads, 1024)
  val dispC = Morsel.scanDispenser(cu, 2)
  val dispO = Morsel.scanDispenser(or, 4)
  val dispL = Morsel.scanDispenser(li, 4)

  def row(fin: AggHashTable, e: Int): Array[Any] = Array[Any](
    L(fin.key(e, 0)), oDate.decodeValue(fin.key(e, 1)),
    L(fin.key(e, 2)), L(fin.value(e, 0)))
}

object Q3Plan {
  val schema: Vector[OutCol] = Vector(
    OutCol("l_orderkey"), OutCol("o_orderdate", isString = true),
    OutCol("o_shippriority"), OutCol("revenue"))
}

/** Q9: five builds — part (color filter), supplier, partsupp (composite
  * key), orders (year payload), nation — then one probe pipeline over
  * lineitem, profit grouped by (nation, year).
  */
final class Q9Plan(d: TpchData, threads: Int) extends AggPlan(Q9Plan.schema) {
  val pt = d.part; val su = d.supplier; val na = d.nation
  val ps = d.partsupp; val or = d.orders; val li = d.lineitem
  val pKey = pt("p_partkey"); val pColor = pt("p_color")
  val sKey = su("s_suppkey"); val sNat = su("s_nationkey")
  val nKey = na("n_nationkey"); val nName = na("n_name")
  val psP = ps("ps_partkey"); val psS = ps("ps_suppkey"); val psC = ps("ps_supplycost_c")
  val oKey = or("o_orderkey"); val oDate = or("o_orderdate")
  val lOrd = li("l_orderkey"); val lPart = li("l_partkey"); val lSupp = li("l_suppkey")
  val lQty = li("l_quantity_c"); val lEp = li("l_extendedprice_c"); val lDisc = li("l_discount_c")
  val colorCode = d.code(pt, "p_color", TpchConsts.q9Color)

  val htP = new HashTable(1, pt.numRows, pt.numRows / 8)
  val htS = new HashTable(2, su.numRows)       // suppkey → nationkey
  val htPs = new HashTable(3, ps.numRows)      // (partkey, suppkey) → cost
  val htO = new HashTable(2, or.numRows)       // orderkey → year
  val htN = new HashTable(2, na.numRows)       // nationkey → name code
  val shared = new SharedAgg(2, 1, Array(AggOp.Sum), threads, 256)
  val dispP = Morsel.scanDispenser(pt, 2)
  val dispS = Morsel.scanDispenser(su, 2)
  val dispPs = Morsel.scanDispenser(ps, 3)
  val dispO = Morsel.scanDispenser(or, 2)
  val dispN = Morsel.scanDispenser(na, 2)
  val dispL = Morsel.scanDispenser(li, 6)

  def row(fin: AggHashTable, e: Int): Array[Any] = Array[Any](
    nName.dict(fin.key(e, 0).toInt), L(fin.key(e, 1)), L(fin.value(e, 0)))
}

object Q9Plan {
  val schema: Vector[OutCol] = Vector(
    OutCol("nation", isString = true), OutCol("o_year"), OutCol("amount"))
}

/** Q18: lineitem sum(quantity) grouped by orderkey; the groups above the
  * HAVING threshold go into HT(orderkey → sum); customer → HT(custkey);
  * orders probes both. The post-merge HAVING filter and the probes stay in
  * each engine, which emit rows through [[row]].
  */
final class Q18Plan(d: TpchData, threads: Int) extends Plan(Q18Plan.schema) {
  val cu = d.customer; val or = d.orders; val li = d.lineitem
  val cKey = cu("c_custkey")
  val oKey = or("o_orderkey"); val oCust = or("o_custkey")
  val oDate = or("o_orderdate"); val oTotal = or("o_totalprice_c")
  val lOrd = li("l_orderkey"); val lQty = li("l_quantity_c")
  val threshold = TpchConsts.q18Threshold

  val shared = new SharedAgg(1, 1, Array(AggOp.Sum), threads, or.numRows / math.max(1, threads) + 16)
  val htQual = new HashTable(2, or.numRows, or.numRows / 32 + 16)     // qualifying orderkey → sum_qty
  val htC = new HashTable(1, cu.numRows)
  val dispL = Morsel.scanDispenser(li, 2)
  val dispC = Morsel.scanDispenser(cu, 1)
  val dispO = Morsel.scanDispenser(or, 4)

  def row(custKey: Long, orderKey: Long, orderDate: Long, totalPrice: Long,
          sumQty: Long): Array[Any] =
    Array[Any](L(custKey), L(orderKey), oDate.decodeValue(orderDate), L(totalPrice), L(sumQty))
}

object Q18Plan {
  val schema: Vector[OutCol] = Vector(
    OutCol("c_custkey"), OutCol("o_orderkey"), OutCol("o_orderdate", isString = true),
    OutCol("o_totalprice_c"), OutCol("sum_qty"))
}
