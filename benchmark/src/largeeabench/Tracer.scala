package largeeabench

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.{SparkContext, Success}
import org.apache.spark.scheduler._

/** Spark task totals for one job group. */
final class GroupTotals {
  var tasks = 0L
  var failedTasks = 0L
  var busyMs = 0L
  var shuffleWriteBytes = 0L
  var maxTaskMs = 0L
}

/** Sums task metrics per job group (`sc.setJobGroup`). Registered only for
  * traced runs, so untraced timings carry no listener cost.
  */
final class GroupListener extends SparkListener {
  private val stageGroup = new ConcurrentHashMap[Int, String]()
  private val jobGroup = new ConcurrentHashMap[Int, String]()
  private val totals = mutable.Map.empty[String, GroupTotals]
  @volatile private var fencesSeen = 0

  private def groupOf(props: java.util.Properties): String =
    Option(props).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val g = groupOf(e.properties)
    jobGroup.put(e.jobId, g)
    e.stageIds.foreach(s => stageGroup.put(s, g))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    if (jobGroup.get(e.jobId) == Tracer.FenceGroup) fencesSeen += 1

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val t = totals.getOrElseUpdate(Option(stageGroup.get(e.stageId)).getOrElse(""), new GroupTotals)
    t.tasks += 1
    if (e.reason != Success) t.failedTasks += 1
    val m = e.taskMetrics
    if (m != null) {
      t.busyMs += m.executorRunTime
      t.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
    }
    t.maxTaskMs = math.max(t.maxTaskMs, e.taskInfo.duration)
  }

  def fences: Int = fencesSeen

  /** Totals per group, taken and cleared. */
  def drain(): Map[String, GroupTotals] = synchronized {
    val out = totals.toMap
    totals.clear()
    out
  }
}

/** One traced stage: driver wall time and JVM GC time (local mode runs
  * driver and executor threads in one JVM, so this is the whole process).
  */
final case class StageSpan(name: String, wallS: Double, gcS: Double)

/** Times calls into the program's layers and tags their Spark jobs. */
final class Tracer(sc: SparkContext) {
  val listener = new GroupListener
  sc.addSparkListener(listener)
  private var fencesIssued = 0
  private val spans = mutable.ArrayBuffer.empty[StageSpan]

  def stage[T](name: String)(f: => T): T = {
    sc.setJobGroup(name, name, interruptOnCancel = false)
    val gc0 = Tracer.gcMillis()
    val t0 = System.nanoTime()
    try f
    finally {
      spans += StageSpan(name, (System.nanoTime() - t0) / 1e9, (Tracer.gcMillis() - gc0) / 1e3)
      sc.clearJobGroup()
    }
  }

  /** Spans and per-group task totals of everything traced since the last
    * call. A one-task fence job is run first: the listener bus delivers
    * events in order, so once the fence's end is seen, every task of every
    * earlier job has been counted.
    */
  def collect(): (Seq[StageSpan], Map[String, GroupTotals]) = {
    sc.setJobGroup(Tracer.FenceGroup, "listener fence", interruptOnCancel = false)
    sc.parallelize(Seq(1), 1).count()
    sc.clearJobGroup()
    fencesIssued += 1
    val deadline = System.nanoTime() + 30e9.toLong
    while (listener.fences < fencesIssued && System.nanoTime() < deadline) Thread.sleep(5)
    require(listener.fences >= fencesIssued, "Spark listener bus did not drain within 30 s")
    val out = (spans.toList, listener.drain())
    spans.clear()
    out
  }

  def close(): Unit = sc.removeSparkListener(listener)
}

object Tracer {
  val FenceGroup = "bench.fence"

  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum
}
