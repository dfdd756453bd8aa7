package unionbench

import java.util.concurrent.ConcurrentHashMap

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart

/** Maps a stack frame of the program to the layer (module) it belongs to.
  * Frames of other code (Spark, Scala, this benchmark) map to None, so the
  * innermost program frame decides.
  */
object Layers {
  def of(cls: String, method: String): Option[String] = {
    def in(prefixes: String*) = prefixes.exists(cls.startsWith)
    if (!cls.startsWith("repro.")) None
    else if (in("repro.core.Rel")) Some(if (method.contains("indexed")) "rel" else "workloads")
    else if (in("repro.workloads.")) Some("workloads")
    else if (in("repro.core.stats.")) Some("stats")
    else if (in("repro.core.histogram.")) Some("histogram")
    else if (in("repro.core.walk.WanderJoin")) {
      if (method.contains("walkBatch")) Some("walk")
      else if (method.contains("membership")) Some("membership")
      else None
    }
    else if (in("repro.core.join.ExactWeightSampler")) Some("ew")
    else if (in("repro.core.join.OlkenSampler")) Some("eo")
    else if (in("repro.core.union.OnlineUnionSampler"))
      Some(if (method.contains("reestimate")) "online.reestimate" else "online")
    else if (in("repro.core.union.UnionSampler", "repro.core.union.DrawBuffer")) Some("union")
    else if (in("repro.core.union.WarmUp", "repro.core.KOverlap", "repro.core.UnionParams",
      "repro.core.walk.RandomWalkOverlap")) Some("warmup")
    else None
  }

  /** Layers on a stack, innermost first, each once. */
  def onStack(frames: Iterator[(String, String)]): List[String] =
    frames.flatMap { case (c, m) => of(c, m) }.toList.distinct

  /** Layers of a Spark call site (`SparkListenerSQLExecutionStart.details`):
    * one `class.method(File.scala:line)` frame per line, innermost first.
    */
  def ofCallSite(details: String): List[String] =
    onStack(details.linesIterator.map(_.trim.takeWhile(_ != '(')).filter(_.contains('.')).map { f =>
      val i = f.lastIndexOf('.')
      (f.substring(0, i), f.substring(i + 1))
    })
}

/** One Spark job as the listener saw it. */
final class JobRec(val id: Int, val startMs: Long, val execId: Option[Long], val phase: String,
                   val span: String, val stageDetails: String) {
  @volatile var endMs: Long = -1
  @volatile var stages: Int = 0
  @volatile var tasks: Long = 0
  @volatile var shuffleBytes: Long = 0
  @volatile var layers: List[String] = Nil // resolved after the run
}

/** Records every Spark job with its phase and innermost open span (local
  * properties the benchmark sets), its SQL execution's call site, and its
  * stages, tasks and shuffle bytes.
  */
final class JobListener extends SparkListener {
  val execDetails = new ConcurrentHashMap[Long, String]()
  val jobs = new ConcurrentHashMap[Int, JobRec]()
  private val stageJob = new ConcurrentHashMap[Int, JobRec]()

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case s: SparkListenerSQLExecutionStart => execDetails.put(s.executionId, s.details)
    case _ =>
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val props = Option(e.properties)
    def prop(k: String) = props.flatMap(p => Option(p.getProperty(k)))
    val rec = new JobRec(e.jobId, e.time, prop("spark.sql.execution.id").map(_.toLong),
      prop(Tracer.PhaseKey).getOrElse(""), prop(Tracer.SpanKey).getOrElse(""),
      e.stageInfos.headOption.map(_.details).getOrElse(""))
    jobs.put(e.jobId, rec)
    e.stageIds.foreach(s => stageJob.putIfAbsent(s, rec))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    Option(jobs.get(e.jobId)).foreach(_.endMs = e.time)

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    Option(stageJob.get(e.stageInfo.stageId)).foreach { j =>
      j.synchronized {
        j.stages += 1
        j.tasks += e.stageInfo.numTasks
        j.shuffleBytes += e.stageInfo.taskMetrics.shuffleWriteMetrics.bytesWritten
      }
    }

  /** Resolve each job's layers: first by its SQL execution's call site,
    * else by its first stage's call site.
    */
  def resolve(): Seq[JobRec] = {
    val all = jobs.values.asScala.toSeq.sortBy(_.id)
    all.foreach { j =>
      val site = j.execId.flatMap(id => Option(execDetails.get(id))).getOrElse(j.stageDetails)
      j.layers = Layers.ofCallSite(site)
    }
    all
  }
}

/** Samples the driver's main thread every `periodMs` while `active` and
  * accumulates wall time per layer: inclusive (layer anywhere on the stack)
  * and exclusive (innermost layer).
  */
final class StackSampler(target: Thread, periodMs: Long) extends Thread("unionbench-sampler") {
  setDaemon(true)
  @volatile var active = false
  @volatile private var stopped = false
  val inclusiveNs = mutable.HashMap.empty[String, Long].withDefaultValue(0L)
  val exclusiveNs = mutable.HashMap.empty[String, Long].withDefaultValue(0L)

  override def run(): Unit = {
    var last = System.nanoTime()
    while (!stopped) {
      Thread.sleep(periodMs)
      val now = System.nanoTime()
      if (active) {
        val layers = Layers.onStack(target.getStackTrace.iterator.map(f => (f.getClassName, f.getMethodName)))
        val dt = now - last
        synchronized {
          layers.foreach(l => inclusiveNs(l) += dt)
          exclusiveNs(layers.headOption.getOrElse("driver")) += dt
        }
      }
      last = now
    }
  }

  def finish(): Unit = { stopped = true; join() }
}

/** The benchmark's tracing: phases (the end-to-end timing units), spans
  * around calls into the program's public API, the job listener and the
  * stack sampler. With `enabled` false only phase names are kept, and no
  * listener, sampler or local property touches the run.
  */
final class Tracer(sc: SparkContext, traced: Boolean) {
  import Tracer._

  /** True from construction of a traced run until `stop()`. */
  @volatile var enabled: Boolean = traced

  val listener = new JobListener
  private val sampler = new StackSampler(Thread.currentThread(), 10)
  /** (name, startMs, endMs) of every phase, in order. */
  val phases = mutable.ArrayBuffer.empty[(String, Long, Long)]
  val spanNs = mutable.HashMap.empty[String, Long].withDefaultValue(0L)
  val spanCalls = mutable.HashMap.empty[String, Int].withDefaultValue(0)

  if (enabled) { sc.addSparkListener(listener); sampler.start() }

  /** Run a phase. Jobs started inside carry the phase name; the sampler
    * records only while a phase runs.
    */
  def phase[T](name: String)(body: => T): T = {
    if (enabled) { sc.setLocalProperty(PhaseKey, name); sampler.active = true }
    val t0 = System.currentTimeMillis()
    try body
    finally {
      phases += ((name, t0, System.currentTimeMillis()))
      if (enabled) { sampler.active = false; sc.setLocalProperty(PhaseKey, null) }
    }
  }

  /** Time a call into the program under `name`; jobs started inside carry
    * the innermost open span's name.
    */
  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val outer = sc.getLocalProperty(SpanKey)
      sc.setLocalProperty(SpanKey, name)
      val t0 = System.nanoTime()
      try body
      finally {
        spanNs(name) += System.nanoTime() - t0; spanCalls(name) += 1
        sc.setLocalProperty(SpanKey, outer)
      }
    }

  /** Stop tracing: wait until the listener has seen every job so far (a
    * marker job's end arrives after all earlier events), then detach.
    */
  def stop(): Unit = if (enabled) {
    enabled = false
    sampler.finish()
    sc.setLocalProperty(PhaseKey, Marker)
    sc.parallelize(Seq(1), 1).count()
    sc.setLocalProperty(PhaseKey, null)
    val deadline = System.currentTimeMillis() + 30000
    def seen = listener.jobs.values.asScala.exists(j => j.phase == Marker && j.endMs >= 0)
    while (!seen && System.currentTimeMillis() < deadline) Thread.sleep(20)
    require(seen, "Spark listener did not drain")
    sc.removeSparkListener(listener)
  }

  def inclusiveS(layer: String): Double = {
    val ns: Long = sampler.synchronized(sampler.inclusiveNs(layer))
    ns / 1e9
  }
  def exclusiveS(layer: String): Double = {
    val ns: Long = sampler.synchronized(sampler.exclusiveNs(layer))
    ns / 1e9
  }
}

object Tracer {
  val PhaseKey = "unionbench.phase"
  val SpanKey = "unionbench.span"
  val Marker = "marker"
}
