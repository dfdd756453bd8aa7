package repro

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** Run `body` and count the Spark jobs it started from this thread. */
  def jobsDuring[T](body: => T): (T, Int) = {
    val sc = spark.sparkContext
    val tag = s"jobsDuring-${java.util.UUID.randomUUID}"
    val jobs = new AtomicInteger
    val drained = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty(SparkSpec.JobTag)).foreach { t =>
          if (t == tag) jobs.incrementAndGet()
          else if (t == s"$tag-end") drained.countDown()
        }
    }
    sc.addSparkListener(listener)
    val outer = sc.getLocalProperty(SparkSpec.JobTag)
    try {
      sc.setLocalProperty(SparkSpec.JobTag, tag)
      val out = body
      // A job posts its start event before it runs and the listener bus
      // delivers in order, so once a marker job's start arrives every job
      // of `body` has been counted.
      sc.setLocalProperty(SparkSpec.JobTag, s"$tag-end")
      sc.parallelize(Seq(1), 1).count()
      assert(drained.await(60, TimeUnit.SECONDS), "the marker job's start event never arrived")
      (out, jobs.get)
    } finally {
      sc.setLocalProperty(SparkSpec.JobTag, outer)
      sc.removeSparkListener(listener)
    }
  }
}

object SparkSpec {
  /** Local property that marks the jobs `jobsDuring` counts. */
  private val JobTag = "repro.test.jobsDuring"

  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
