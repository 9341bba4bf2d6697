package org.apache.spark.queryerbench

import org.apache.spark.SparkContext

/** Waits until every listener event posted so far has been delivered, so
  * counters read after a query include all of its jobs and tasks. Lives
  * under `org.apache.spark` because the listener bus is package-private.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
