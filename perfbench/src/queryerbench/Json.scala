package queryerbench

/** Minimal JSON writer for the benchmark's result line and trace files. */
object Json {
  def value(v: Any): String = v match {
    case null                => "null"
    case s: String           => quote(s)
    case b: Boolean          => b.toString
    case d: Double           =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number $d")
      d.toString
    case i: Int              => i.toString
    case l: Long             => l.toString
    case m: Map[_, _]        => obj(m.toSeq.map { case (k, x) => k.toString -> x })
    case xs: Seq[_]          => xs.map(value).mkString("[", ", ", "]")
    case other               => quote(other.toString)
  }

  def obj(fields: Seq[(String, Any)]): String =
    fields.map { case (k, v) => s"${quote(k)}: ${value(v)}" }.mkString("{", ", ", "}")

  def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'            => b ++= "\\\""
      case '\\'           => b ++= "\\\\"
      case '\n'           => b ++= "\\n"
      case '\r'           => b ++= "\\r"
      case '\t'           => b ++= "\\t"
      case c if c < ' '   => b ++= f"\\u${c.toInt}%04x"
      case c              => b += c
    }
    b += '"'
    b.toString
  }
}
