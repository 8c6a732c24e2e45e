package repro.queries

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType
import repro.SynthData
import repro.core.{ColTable, Columnar, Enc}
import scala.collection.concurrent.TrieMap

/** TPC-H-lite dataset: the provided `SynthData` tables extended with the
  * columns the five paper queries need, in both DataFrame form (for Spark
  * SQL and the DuckDB oracle) and columnar engine form ([[ColTable]]).
  *
  * Monetary/quantity columns get fixed-point integer shadow columns (`*_c`,
  * cents) so Typer, Tectorwise, Volcano, Spark SQL, and DuckDB all compute
  * the *same exact integers* — faithful to the paper's fixed-point
  * arithmetic (Q1) and giving bit-exact cross-engine comparison.
  */
final case class TpchData(
    sf: Double,
    lineitem: ColTable, orders: ColTable, customer: ColTable,
    supplier: ColTable, nation: ColTable, partsupp: ColTable, part: ColTable,
    dfs: Map[String, DataFrame]) {

  def tablesFor(names: String*): Seq[(String, DataFrame)] = names.map(n => n -> dfs(n))

  /** Spark SQL `text` over these tables. Registers them as the session's
    * temp views first: other datasets (SSB-lite) use some of the same names.
    */
  def sql(spark: SparkSession, text: String): DataFrame = {
    dfs.foreach { case (n, df) => df.createOrReplaceTempView(n) }
    spark.sql(text)
  }

  /** Dictionary code of string `v` in column `col` of `t`, or -1 if absent
    * from the data (predicates must then select nothing).
    */
  def code(t: ColTable, col: String, v: String): Long = {
    val d = t(col).dict
    val i = d.indexOf(v)
    i.toLong // -1 never equals any stored code
  }

  /** Tuples scanned per query (paper §3.4 normalization for counters). */
  def tuplesScanned(query: String): Long = query match {
    case "q1" | "q6" => lineitem.numRows.toLong
    case "q3"  => customer.numRows.toLong + orders.numRows + lineitem.numRows
    case "q18" => customer.numRows.toLong + orders.numRows + lineitem.numRows
    case "q9"  => part.numRows.toLong + supplier.numRows + nation.numRows +
                  partsupp.numRows + orders.numRows + lineitem.numRows
    case q => throw new IllegalArgumentException(s"unknown query $q")
  }
}

object TpchSchema {
  private val cache = TrieMap.empty[Double, TpchData]

  /** Engine-facing DataFrames (deterministic in sf; cached per session). */
  def load(spark: SparkSession, sf: Double): TpchData =
    cache.getOrElseUpdate(sf, build(spark, sf))

  private def cents(c: String): org.apache.spark.sql.Column =
    round(col(c) * 100).cast(LongType)

  private def build(spark: SparkSession, sf: Double): TpchData = {
    val nSupp = SynthData.numSuppliers(sf)

    val lineitemDF = SynthData.lineitem(spark, sf)
      .withColumn("l_suppkey",
        SynthData.suppOfPart(col("l_partkey"),
          pmod(col("l_orderkey") * 7 + col("l_linenumber"), lit(SynthData.SuppliersPerPart)), nSupp))
      .withColumn("l_quantity_c", cents("l_quantity"))
      .withColumn("l_extendedprice_c", cents("l_extendedprice"))
      .withColumn("l_discount_c", cents("l_discount"))
      .withColumn("l_tax_c", cents("l_tax"))
      .select("l_orderkey", "l_partkey", "l_suppkey", "l_quantity_c", "l_extendedprice_c",
              "l_discount_c", "l_tax_c", "l_returnflag", "l_linestatus", "l_shipdate")
      // dbgen emits lineitem clustered by orderkey; Q18's aggregation (and
      // Q3's orderkey probe) depend on that locality — see EXPERIMENTS.md.
      .orderBy("l_orderkey")
      .persist()

    val ordersDF = SynthData.orders(spark, sf)
      .withColumn("o_shippriority", pmod(col("o_orderkey") * 13, lit(2)).cast("int"))
      .withColumn("o_totalprice_c", cents("o_totalprice"))
      .select("o_orderkey", "o_custkey", "o_orderdate", "o_shippriority", "o_totalprice_c")
      .persist()

    val customerDF = SynthData.customer(spark, sf)
      .select("c_custkey", "c_nationkey", "c_mktsegment")
      .persist()

    val colors = Array("green", "red", "blue", "ivory", "navy",
                       "plum", "puff", "rose", "snow", "tan")
    val partDF = SynthData.part(spark, sf)
      .withColumn("p_color",
        element_at(array(colors.map(lit).toIndexedSeq: _*), (pmod(col("p_partkey") * 31, lit(10)) + 1).cast("int")))
      .select("p_partkey", "p_color", "p_type", "p_size")
      .persist()

    val supplierDF = SynthData.supplier(spark, sf).persist()
    val nationDF   = SynthData.nation(spark).persist()
    val partsuppDF = SynthData.partsupp(spark, sf)
      .withColumn("ps_supplycost_c", cents("ps_supplycost"))
      .select("ps_partkey", "ps_suppkey", "ps_supplycost_c")
      .persist()

    val dfs = Map(
      "lineitem" -> lineitemDF, "orders" -> ordersDF, "customer" -> customerDF,
      "supplier" -> supplierDF, "nation" -> nationDF, "partsupp" -> partsuppDF,
      "part" -> partDF)
    TpchData(
      sf = sf,
      lineitem = Columnar.fromDF(lineitemDF, "lineitem",
        "l_orderkey" -> Enc.Id, "l_partkey" -> Enc.Id, "l_suppkey" -> Enc.Id,
        "l_quantity_c" -> Enc.Id, "l_extendedprice_c" -> Enc.Id,
        "l_discount_c" -> Enc.Id, "l_tax_c" -> Enc.Id,
        "l_returnflag" -> Enc.Dict, "l_linestatus" -> Enc.Dict, "l_shipdate" -> Enc.Days),
      orders = Columnar.fromDF(ordersDF, "orders",
        "o_orderkey" -> Enc.Id, "o_custkey" -> Enc.Id, "o_orderdate" -> Enc.Days,
        "o_shippriority" -> Enc.Id, "o_totalprice_c" -> Enc.Id),
      customer = Columnar.fromDF(customerDF, "customer",
        "c_custkey" -> Enc.Id, "c_nationkey" -> Enc.Id, "c_mktsegment" -> Enc.Dict),
      supplier = Columnar.fromDF(supplierDF, "supplier",
        "s_suppkey" -> Enc.Id, "s_nationkey" -> Enc.Id),
      nation = Columnar.fromDF(nationDF, "nation",
        "n_nationkey" -> Enc.Id, "n_name" -> Enc.Dict),
      partsupp = Columnar.fromDF(partsuppDF, "partsupp",
        "ps_partkey" -> Enc.Id, "ps_suppkey" -> Enc.Id, "ps_supplycost_c" -> Enc.Id),
      part = Columnar.fromDF(partDF, "part",
        "p_partkey" -> Enc.Id, "p_color" -> Enc.Dict),
      dfs = dfs)
  }
}
