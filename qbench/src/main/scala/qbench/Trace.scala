package qbench

import java.io.PrintWriter
import scala.collection.mutable.ArrayBuffer

/** In-memory span recorder for the traced run.
  *
  * A span is one call from the benchmark into a layer of the program: a
  * query execution, a data load, or a layer replay. Spans carry the pass
  * they belong to (-1 outside passes) and their parent, so a span's self
  * time is its duration minus the time its children cover. Nothing is
  * written until [[write]] at the end of the run.
  */
final class Trace {
  final case class Span(id: Int, parent: Int, name: String, pass: Int,
                        startNs: Long, endNs: Long) {
    def ms: Double = (endNs - startNs) / 1e6
  }

  private val spans = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0

  /** Run `body` inside a span named `name`; nested calls become children. */
  def span[A](name: String, pass: Int = -1)(body: => A): A = {
    val id = nextId; nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val t0 = System.nanoTime()
    try body
    finally {
      spans += Span(id, parent, name, pass, t0, System.nanoTime())
      open = open.tail
    }
  }

  def named(name: String): Seq[Span] = spans.iterator.filter(_.name == name).toSeq

  def write(path: java.io.File): Unit = {
    path.getParentFile.mkdirs()
    val w = new PrintWriter(path, "UTF-8")
    try spans.sortBy(_.id).foreach { s =>
      w.println(s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","pass":${s.pass},""" +
                s""""start_ns":${s.startNs},"end_ns":${s.endNs}}""")
    } finally w.close()
  }
}

object Trace {
  /** Run `body` in a span of `t`, or untraced when `t` is null. */
  def span[A](t: Trace, name: String, pass: Int = -1)(body: => A): A =
    if (t eq null) body else t.span(name, pass)(body)
}
