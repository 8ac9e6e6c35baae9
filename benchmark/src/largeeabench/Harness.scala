package largeeabench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{abs, col, count, lit, max, min, sum}
import repro.eval.{EaScores, Metrics}
import repro.exp.Datasets
import repro.kg.EaDataset
import repro.largeea.LargeEA
import repro.partition.Metis

/** Benchmark harness: one workload in one JVM.
  *
  * Untraced mode (`--trace 0`) reports the end-to-end metrics: set-up time,
  * the cold first `LargeEA.run`, the median warm `LargeEA.run` and the heap
  * retained after a call. Traced mode (`--trace 1`) alternates an untraced
  * `LargeEA.run` with a traced re-enactment of it ([[TracedPipeline]]) and
  * reports the per-stage metrics. Every call's output is checked; a call
  * whose checks fail counts as a failed operation. The last stdout line is
  * the result JSON; a fuller run record is written to `--record`.
  */
object Harness {

  // Settings today's results depend on: fixed, never derived from the
  // machine, and written into every run record. The JVM heap and GC are
  // set by run.py.
  val Threads = 4
  val Master = s"local[$Threads]"
  val ShufflePartitions = 8
  /** JVM uptime (s) past which no call is started; run.py kills the JVM a
    * little later.
    */
  val BudgetS = 160.0

  final case class Args(
      workload: String,
      seed: Long,
      seconds: Double,
      trace: Boolean,
      record: Option[String],
      meta: Map[String, String])

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(
      workload = need("workload"),
      seed = need("seed").toLong,
      seconds = need("seconds").toDouble,
      trace = need("trace") == "1",
      record = kv.get("record"),
      meta = kv.collect { case (k, v) if k.startsWith("meta.") => k.drop(5) -> v })
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val workload = Workloads.byName(args.workload)
    val spark = SparkSession.builder
      .master(Master)
      .appName(s"largeea-bench ${workload.name}")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    val out =
      try new Run(spark, workload, args).execute()
      finally spark.stop()
    println(out)
  }

  private val json = new ObjectMapper().registerModule(DefaultScalaModule)
  def toJson(v: Any): String = json.writeValueAsString(v)

  def uptimeS: Double = ManagementFactory.getRuntimeMXBean.getUptime / 1e3

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Heap in use after a full GC, a pause for Spark's ContextCleaner to drop
    * the blocks of broadcasts the GC found unreachable, and a second full GC.
    * Without the pause the figure depended on whether earlier calls'
    * broadcasts had been cleaned yet.
    */
  def retainedHeapBytes(): Long = {
    System.gc()
    Thread.sleep(300)
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  /** Runs `body` while a thread forces a full GC every `periodMs` and reads
    * the heap in use after it; returns the result and the largest reading.
    * The forced GCs slow `body` down, so it is never a timed call.
    */
  def withLiveHeapPeak[T](periodMs: Long)(body: => T): (T, Long) = {
    @volatile var on = true
    var peak = 0L
    val sampler = new Thread(() =>
      while (on) {
        System.gc()
        peak = math.max(peak, ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed)
        Thread.sleep(periodMs)
      }, "bench-heap-sampler")
    sampler.setDaemon(true)
    sampler.start()
    val value = try body finally { on = false; sampler.join() }
    (value, peak)
  }
}

/** One benchmark run (one JVM, one workload). */
final class Run(spark: SparkSession, w: Workload, a: Harness.Args) {
  import Harness.{BudgetS, median, uptimeS}

  private val sc = spark.sparkContext
  private val sessionS = uptimeS // JVM uptime has millisecond resolution
  private val sessionNs = System.nanoTime()

  private var attempted = 0
  private var failed = 0
  private var tracedMatching = 0
  private val calls = mutable.ArrayBuffer.empty[collection.Map[String, Any]]
  private val failures = mutable.ArrayBuffer.empty[String]
  /** Scores on co-located test pairs, from the last traced call. */
  private var colocatedScores = Map.empty[String, EaScores]

  /** One operation: runs `body`, which returns its failed checks. */
  private def op[T](what: String)(body: => (T, Seq[String])): Option[T] = {
    attempted += 1
    val (value, bad) =
      try { val (v, b) = body; (Some(v), b) }
      catch { case e: Exception => (None, Seq(s"threw ${e.getClass.getSimpleName}: ${e.getMessage}")) }
    if (bad.nonEmpty || value.isEmpty) {
      failed += 1
      failures ++= bad.map(b => s"$what: $b").take(math.max(0, 50 - failures.size))
    }
    value
  }

  // ---- dataset set-up ----------------------------------------------------------

  private def frames(ds: EaDataset) = Seq(
    ds.source.entities, ds.source.triples, ds.target.entities, ds.target.triples,
    ds.truth, ds.train, ds.test)

  /** Re-cache the frames `Datasets.get` cached and materialise them. */
  private def materialise(ds: EaDataset, recache: Boolean): Unit =
    frames(ds).foreach { f => if (recache) f.cache(); f.count() }

  private def clearCaches(): Unit = {
    spark.catalog.clearCache()
    sc.getPersistentRDDs.values.foreach(_.unpersist(blocking = true))
  }

  /** Bytes held by cached RDD/DataFrame blocks. */
  private def cachedBytes(): Long = sc.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum


  // ---- checks ---------------------------------------------------------------------

  private def resultChecks(r: LargeEA.Result): Seq[String] = {
    val bad = mutable.ArrayBuffer.empty[String]
    def floor(label: String, s: EaScores, f: Double): Unit =
      if (!(s.hits1 >= f)) bad += f"$label H@1 ${s.hits1}%.4f below floor $f%.2f"
    if (r.scores.n <= 0) bad += "empty test set"
    floor("fused", r.scores, w.floors.fused)
    r.structOnly.foreach(floor("structure-only", _, w.floors.struct))
    r.nameOnly.foreach(floor("name-only", _, w.floors.name))
    // Fused H@1 over all test pairs may fall below name-only H@1: a pair whose
    // true target lies in another batch gets no Ms score, while wrong
    // in-batch candidates do. The traced run checks H@1 on co-located pairs.
    if (w.fullPipeline)
      (r.structOnly ++ r.nameOnly).foreach { s =>
        if (r.scores.mrr < s.mrr)
          bad += f"fused MRR ${r.scores.mrr}%.4f below a single channel's ${s.mrr}%.4f"
      }
    bad.toSeq
  }

  /** Fusion checks of one traced full-pipeline call: M equals Ms + Mn cell
    * by cell, and on the test pairs whose source and true target share a
    * batch (the only ones Ms can score) fused H@1 is at least each channel's.
    */
  private def fusionChecks(ds: EaDataset, o: TracedPipeline.Out): (Map[String, EaScores], Seq[String]) =
    (for (b <- o.batches if w.fullPipeline; ms <- o.ms; mn <- o.mn) yield {
      val bad = mutable.ArrayBuffer.empty[String]
      val expected = ms.df.unionByName(mn.df).groupBy("src", "tgt").agg(sum("score").as("expected"))
      val wrong = o.fused.df.join(expected, Seq("src", "tgt"), "full_outer")
        .where(col("score").isNull || col("expected").isNull || abs(col("score") - col("expected")) > 1e-9)
        .count()
      if (wrong != 0) bad += s"$wrong cells of M differ from Ms + Mn"
      import spark.implicits._
      val colocated = ds.testPairs.filter { case (s, t) => b.srcPart(s.toInt) == b.tgtPart(t.toInt) }
        .toSeq.toDF("src", "tgt")
      val scores = Map("fused" -> o.fused, "structure_only" -> ms, "name_only" -> mn)
        .map { case (k, m) => k -> Metrics.evaluate(m, colocated) }
      Seq("structure_only", "name_only").foreach { k =>
        if (scores("fused").hits1 < scores(k).hits1)
          bad += f"fused H@1 ${scores("fused").hits1}%.4f on co-located test pairs below $k ${scores(k).hits1}%.4f"
      }
      (scores, bad.toSeq)
    }).getOrElse((Map.empty, Nil))

  private def sameResult(ref: LargeEA.Result, got: LargeEA.Result): Seq[String] = {
    val bad = mutable.ArrayBuffer.empty[String]
    def eq(label: String, x: Any, y: Any): Unit = if (x != y) bad += s"traced $label $y != LargeEA.run $x"
    eq("scores", ref.scores, got.scores)
    eq("structure-only scores", ref.structOnly, got.structOnly)
    eq("name-only scores", ref.nameOnly, got.nameOnly)
    eq("pseudo-seed count", ref.pseudoSeedCount, got.pseudoSeedCount)
    eq("pseudo-seed precision", ref.pseudoSeedPrecision, got.pseudoSeedPrecision)
    eq("seeds used", ref.seedsUsed, got.seedsUsed)
    eq("batch assignment",
       ref.batches.map(b => (b.k, b.srcPart.toSeq, b.tgtPart.toSeq)),
       got.batches.map(b => (b.k, b.srcPart.toSeq, b.tgtPart.toSeq)))
    bad.toSeq
  }

  /** After a call, outside the timer: drop every cached block, re-cache the
    * dataset frames, and require storage to be back at its post-set-up size.
    */
  private def reset(ds: EaDataset, baseline: Long): Seq[String] = {
    clearCaches()
    materialise(ds, recache = true)
    val now = cachedBytes()
    if (now != baseline) Seq(s"cached storage $now B after reset, post-set-up $baseline B") else Nil
  }

  // ---- the run ----------------------------------------------------------------------

  def execute(): String = {
    // set-up: the dataset is generated, cached and materialised once
    val ds = Datasets.get(spark, w.spec)
    materialise(ds, recache = false)
    val generateS = (System.nanoTime() - sessionNs) / 1e9
    val setupS = sessionS + generateS
    val baseline = cachedBytes()
    val nS = ds.source.numEntities
    val nT = ds.target.numEntities

    var retainedPeak = 0L
    def checkedCall(what: String, retained: Boolean = false): Option[(LargeEA.Result, Double)] =
      op(what) {
        val cpu0 = Run.processCpuS()
        val t0 = System.nanoTime()
        val r = LargeEA.run(spark, ds, w.cfg)
        val s = (System.nanoTime() - t0) / 1e9
        calls += mutable.LinkedHashMap("call" -> what, "wall_s" -> s, "cpu_s" -> (Run.processCpuS() - cpu0))
        if (retained) retainedPeak = math.max(retainedPeak, Harness.retainedHeapBytes())
        ((r, s), resultChecks(r) ++ reset(ds, baseline))
      }

    val first = checkedCall("cold call")
    (1 to w.warmup).foreach(i => checkedCall(s"warm-up $i"))
    // A traced run makes one more untimed call, with the live heap sampled.
    // It also puts the reference and traced calls that follow past the
    // steepest part of JIT warm-up.
    val livePeak = Option.when(a.trace)(
      Harness.withLiveHeapPeak(periodMs = 250)(checkedCall("heap-sampled call"))._2)

    val loopStart = System.nanoTime()
    def elapsed = (System.nanoTime() - loopStart) / 1e9
    /** Whether one more step of `stepS` seconds still ends inside the budget. */
    def fits(stepS: Double) = uptimeS + 1.3 * stepS + 3 < BudgetS
    val minSteps = if (a.trace) 1 else w.minReps
    def more(n: Int, stepS: Double) = fits(stepS) && (n < minSteps || elapsed < a.seconds)

    val e2e = mutable.LinkedHashMap.empty[String, (Double, String)]
    val perLayer = mutable.LinkedHashMap.empty[String, (Double, String)]
    val times = mutable.ArrayBuffer.empty[Double]
    var lastStep = first.map(_._2).getOrElse(0.0)

    if (!a.trace) {
      while (more(times.size, lastStep)) {
        checkedCall(s"timed call ${times.size + 1}", retained = true) match {
          case Some((_, s)) => times += s; lastStep = s
          case None => lastStep = BudgetS // a call that threw: stop
        }
      }
      if (times.isEmpty) failures += "no timed call fitted in the time budget"
      e2e("align_s") = (if (times.isEmpty) Double.NaN else median(times.toSeq), "s")
      e2e("first_align_s") = (first.map(_._2).getOrElse(Double.NaN), "s")
      e2e("setup_s") = (setupS, "s")
      e2e("retained_heap_mb") = (retainedPeak / 1e6, "MB")
    } else {
      val layers = new LayerMetrics(Harness.Threads)
      val tracer = new Tracer(sc)
      var n = 0
      while (more(n, lastStep)) {
        val t0 = System.nanoTime()
        val ref = checkedCall(s"reference call ${n + 1}")
        ref.foreach { case (_, s) => times += s }
        val traced = ref.flatMap { case (refResult, _) =>
          op(s"traced call ${n + 1}") {
            val o = TracedPipeline.run(spark, ds, w.cfg, tr = tracer)
            val cachedMb = (cachedBytes() - baseline) / 1e6
            sc.setJobGroup("bench.checks", "output checks", interruptOnCancel = false)
            val (counters, invariantFailures) = outputCounters(ds, o, nS, nT)
            val (colocated, fusionFailures) = fusionChecks(ds, o)
            sc.clearJobGroup()
            colocatedScores = colocated
            val (spans, groups) = tracer.collect()
            layers.add(spans, groups, counters :+ ("sim.cached_mb" -> ((cachedMb, "MB"))))
            val mismatches = sameResult(refResult, o.result)
            if (mismatches.isEmpty) tracedMatching += 1
            ((), mismatches ++ resultChecks(o.result) ++ invariantFailures ++ fusionFailures ++
              reset(ds, baseline))
          }
        }
        lastStep = if (traced.isEmpty) BudgetS else (System.nanoTime() - t0) / 1e9
        n += 1
      }
      tracer.close()
      if (layers.isEmpty) failures += "no traced call completed"
      else {
        perLayer ++= kgMetrics(ds, generateS)
        perLayer ++= layers.result(alignS = median(times.toSeq))
        livePeak.foreach(p => perLayer("peak_live_heap_mb") = (p / 1e6, "MB"))
      }
    }

    val metrics = if (a.trace) perLayer else e2e
    val correct = failed == 0 && failures.isEmpty && metrics.values.forall(!_._1.isNaN)
    val result = mutable.LinkedHashMap[String, Any](
      "correct" -> correct,
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> metrics.map { case (k, (v, u)) => k -> mutable.LinkedHashMap("value" -> v, "unit" -> u) })
    writeRecord(first.map(_._1), generateS, times.toSeq, result)
    Harness.toJson(result)
  }

  private def kgMetrics(ds: EaDataset, generateS: Double) = Seq(
    "kg.generate_s" -> ((generateS, "s")),
    "kg.src_entities" -> ((ds.source.numEntities.toDouble, "count")),
    "kg.tgt_entities" -> ((ds.target.numEntities.toDouble, "count")),
    "kg.src_triples" -> ((ds.source.numTriples.toDouble, "count")),
    "kg.tgt_triples" -> ((ds.target.numTriples.toDouble, "count")))

  /** Counters of one traced call plus its invariant checks: Mse holds
    * min(φ, |Et|) cells per source, and every Ms cell lies inside a batch.
    */
  private def outputCounters(
      ds: EaDataset, o: TracedPipeline.Out, nS: Long, nT: Long): (Seq[(String, (Double, String))], Seq[String]) = {
    val c = mutable.LinkedHashMap.empty[String, (Double, String)]
    val bad = mutable.ArrayBuffer.empty[String]
    def cnt(k: String, v: Double): Unit = c(k) = (v, "count")

    cnt("name.sens_pairs", nS.toDouble * nT)
    cnt("name.mse_nnz", o.mse.map { m =>
      val perSrc = math.min(w.cfg.phi.toLong, nT)
      val row = m.df.groupBy("src").count()
        .agg(min("count"), max("count"), count(lit(1)), sum("count")).first()
      if (row.getLong(0) != perSrc || row.getLong(1) != perSrc || row.getLong(2) != nS)
        bad += s"Mse holds ${row.getLong(0)}..${row.getLong(1)} cells on ${row.getLong(2)} sources, " +
          s"expected $perSrc on $nS"
      row.getLong(3).toDouble
    }.getOrElse(0.0))
    cnt("name.mst_nnz", o.mst.map(_.nnz.toDouble).getOrElse(0.0))
    cnt("name.mn_nnz", o.mn.map(_.nnz.toDouble).getOrElse(0.0))
    cnt("name.da_pseudo_seeds", o.result.pseudoSeedCount.toDouble)
    c("name.da_precision") = (o.result.pseudoSeedPrecision, "ratio")

    val testPairs = ds.testPairs
    o.batches.foreach { b =>
      val sp = sc.broadcast(b.srcPart)
      val tp = sc.broadcast(b.tgtPart)
      val outside = o.ms.map(_.df.select("src", "tgt").rdd
        .filter(r => sp.value(r.getLong(0).toInt) != tp.value(r.getLong(1).toInt)).count()).getOrElse(0L)
      if (outside != 0) bad += s"$outside Ms cells pair entities of different batches"
      sp.destroy(); tp.destroy()
      c("partition.src_cut") =
        (Metis.Graph.fromEdgeDF(nS.toInt, ds.source.undirectedEdges).cutWeight(b.srcPart), "edges")
      c("partition.test_colocation") = (b.colocationRate(testPairs), "ratio")
      cnt("partition.max_batch_src", b.srcSizes.max.toDouble)
      cnt("partition.max_batch_tgt", b.tgtSizes.max.toDouble)
    }
    cnt("partition.test_pairs", testPairs.length.toDouble)
    cnt("structure.ms_nnz", o.ms.map(_.nnz.toDouble).getOrElse(0.0))
    cnt("structure.seeds", o.result.seedsUsed.toDouble)
    cnt("sim.m_nnz", o.fused.nnz.toDouble)
    (c.toSeq, bad.toSeq)
  }

  private def scoresJson(s: Option[EaScores]) = s.map(x =>
    mutable.LinkedHashMap("hits1" -> x.hits1, "hits5" -> x.hits5, "mrr" -> x.mrr, "n" -> x.n))

  private def writeRecord(
      first: Option[LargeEA.Result], generateS: Double, times: Seq[Double],
      result: collection.Map[String, Any]): Unit = a.record.foreach { path =>
    val rec = mutable.LinkedHashMap[String, Any](
      "workload" -> w.name,
      "seed" -> a.seed,
      "dataset" -> w.spec.key,
      "dataset_seed" -> w.spec.cfg.seed,
      "config" -> w.cfg.copy(strategy = null).toString,
      "partition_strategy" -> w.cfg.strategy.name,
      "trace" -> a.trace,
      "seconds" -> a.seconds,
      "spark_master" -> Harness.Master,
      "spark_shuffle_partitions" -> Harness.ShufflePartitions,
      "spark_broadcast_join_threshold" -> -1,
      "spark_version" -> spark.version,
      "java_version" -> System.getProperty("java.version"),
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / 1e6,
      "jvm_gc" -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName),
      "budget_s" -> BudgetS,
      "session_s" -> sessionS,
      "setup_dataset_s" -> generateS,
      "call_s" -> times,
      "calls" -> calls.toSeq,
      "accuracy" -> mutable.LinkedHashMap(
        "fused" -> scoresJson(first.map(_.scores)),
        "structure_only" -> scoresJson(first.flatMap(_.structOnly)),
        "name_only" -> scoresJson(first.flatMap(_.nameOnly)),
        "pseudo_seeds" -> first.map(_.pseudoSeedCount),
        "pseudo_seed_precision" -> first.map(_.pseudoSeedPrecision),
        "seeds_used" -> first.map(_.seedsUsed),
        "fused_minus_best_channel_h1" -> first.flatMap(r =>
          (r.structOnly ++ r.nameOnly).map(_.hits1).maxOption.map(r.scores.hits1 - _)),
        "colocated_test_pairs" -> colocatedScores.map { case (k, s) => k -> scoresJson(Some(s)) }),
      "traced_calls_matching_run" -> tracedMatching,
      "failures" -> failures.toSeq,
      "result" -> result) ++ a.meta
    val f = new java.io.File(path)
    Option(f.getParentFile).foreach(_.mkdirs())
    val wr = new java.io.PrintWriter(f, "UTF-8")
    try wr.println(Harness.toJson(rec)) finally wr.close()
    first.foreach(r => Console.err.println(
      s"[bench] ${w.name} seed=${a.seed}: fused ${r.scores.pretty}; " +
      s"structure-only ${r.structOnly.map(_.pretty).getOrElse("-")}; " +
      s"name-only ${r.nameOnly.map(_.pretty).getOrElse("-")}"))
    failures.foreach(f => Console.err.println(s"[bench] FAILED $f"))
  }
}

object Run {
  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  /** CPU seconds used by this JVM so far, all threads. */
  def processCpuS(): Double = os.getProcessCpuTime / 1e9
}

/** Per-stage metrics over the traced calls of one run (medians). */
final class LayerMetrics(threads: Int) {
  val stages = Seq("name.embed", "name.sens", "name.stns", "name.nff", "name.da",
    "partition.metis_cps", "structure.ms", "sim.fusion", "eval.evaluate")

  private val samples = mutable.LinkedHashMap.empty[String, (mutable.ArrayBuffer[Double], String)]
  private var failedTasks = 0L
  private val stageSums = mutable.ArrayBuffer.empty[Double]

  private def put(k: String, v: Double, unit: String): Unit =
    samples.getOrElseUpdate(k, (mutable.ArrayBuffer.empty[Double], unit))._1 += v

  def isEmpty: Boolean = stageSums.isEmpty

  def add(spans: Seq[StageSpan], groups: Map[String, GroupTotals],
          counters: Seq[(String, (Double, String))]): Unit = {
    failedTasks += groups.values.map(_.failedTasks).sum
    stageSums += spans.map(_.wallS).sum
    stages.foreach { s =>
      val span = spans.filter(_.name == s)
      val wall = span.map(_.wallS).sum
      val g = groups.getOrElse(s, new GroupTotals)
      val busy = g.busyMs / 1e3
      put(s"${s}_s", wall, "s")
      put(s"$s.busy_s", busy, "s")
      put(s"$s.util", if (wall > 0) busy / (wall * threads) else 0.0, "ratio")
      put(s"$s.tasks", g.tasks.toDouble, "count")
      put(s"$s.shuffle_mb", g.shuffleWriteBytes / 1e6, "MB")
      put(s"$s.gc_s", span.map(_.gcS).sum, "s")
      if (s == "structure.ms") put("structure.max_task_s", g.maxTaskMs / 1e3, "s")
    }
    counters.foreach { case (k, (v, u)) => put(k, v, u) }
  }

  def result(alignS: Double): Seq[(String, (Double, String))] =
    samples.toSeq.map { case (k, (xs, u)) => k -> ((Harness.median(xs.toSeq), u)) } ++ Seq(
      "spark.failed_tasks" -> ((failedTasks.toDouble, "count")),
      "trace.overhead_s" -> ((Harness.median(stageSums.toSeq) - alignS, "s")))
}
