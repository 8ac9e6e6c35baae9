package largeeabench

import org.apache.spark.sql.SparkSession
import repro.embed.PseudoBert
import repro.eval.Metrics
import repro.kg.EaDataset
import repro.largeea.LargeEA
import repro.name.{DataAug, Sens, Stns}
import repro.partition.MiniBatches
import repro.sim.SimMatrix
import repro.structure.StructChannel

/** `LargeEA.run`, re-enacted from outside the program: each layer's public
  * function is called in the order `LargeEA.run` calls it, inside a traced
  * stage. The harness checks that the result equals `LargeEA.run`'s, so a
  * change to the pipeline that this copy does not follow shows up as a
  * failed check rather than as silently wrong stage times.
  */
object TracedPipeline {

  /** Nff.compute's fixed SENS settings. */
  private val SensSegments = 4
  private val EmbedDim = 64

  final case class Out(
      result: LargeEA.Result,
      mse: Option[SimMatrix],
      mst: Option[SimMatrix],
      mn: Option[SimMatrix],
      ms: Option[SimMatrix],
      fused: SimMatrix,
      batches: Option[MiniBatches])

  def run(spark: SparkSession, ds: EaDataset, cfg: LargeEA.Config, tr: Tracer): Out = {
    val trainSeeds = ds.trainPairs
    val truth = ds.truthPairs

    // ---- name channel (Nff.compute) ---------------------------------------
    val needName = cfg.useNameChannel || cfg.useDataAug || cfg.unsupervised
    val (mse, mst, mn) =
      if (!needName) (None, None, None)
      else {
        val (srcNames, tgtNames, srcVecs, tgtVecs) = tr.stage("name.embed") {
          val s = ds.source.namesArray
          val t = ds.target.namesArray
          val bert = new PseudoBert(ds.lexicon, EmbedDim)
          (s, t, bert.embedAll(s), bert.embedAll(t))
        }
        val e = tr.stage("name.sens")(
          Sens.similarity(spark, srcVecs, tgtVecs, cfg.phi, SensSegments).cache())
        val s = tr.stage("name.stns")(Stns.similarity(spark, srcNames, tgtNames, cfg.theta).cache())
        val n = tr.stage("name.nff")(e.plus(s, cfg.gamma).cache())
        (Some(e), Some(s), Some(n))
      }

    // ---- data augmentation ---------------------------------------------------
    val (pseudo, seeds, precision) = mn match {
      case Some(m) if cfg.useDataAug || cfg.unsupervised =>
        tr.stage("name.da") {
          val p = DataAug.pseudoSeeds(m).collect().map(r => (r.getLong(0), r.getLong(1))).sorted
          val merged = if (cfg.unsupervised) p else DataAug.mergeSeeds(trainSeeds, p)
          (p, merged, DataAug.precision(p, truth))
        }
      case _ => (Array.empty[(Long, Long)], trainSeeds, DataAug.precision(Array.empty, truth))
    }

    // ---- structure channel ---------------------------------------------------
    val (batches, ms) =
      if (!cfg.useStructChannel) (None, None)
      else {
        val b = tr.stage("partition.metis_cps")(cfg.strategy.partition(ds, cfg.k, seeds, cfg.seed))
        val m = tr.stage("structure.ms")(
          StructChannel.computeMs(spark, ds, b, seeds, cfg.model, cfg.phi).cache())
        (Some(b), Some(m))
      }

    // ---- fusion and evaluation ----------------------------------------------
    val mnUsed = mn.filter(_ => cfg.useNameChannel)
    val fused = (ms, mnUsed) match {
      case (Some(a), Some(b)) => tr.stage("sim.fusion")(a.plus(b).cache())
      case (Some(a), None)    => a
      case (None, Some(b))    => b
      case (None, None)       => SimMatrix.empty(spark)
    }
    val (scores, structOnly, nameOnly) = tr.stage("eval.evaluate") {
      (Metrics.evaluate(fused, ds.test),
       ms.map(m => Metrics.evaluate(m, ds.test)),
       mnUsed.map(m => Metrics.evaluate(m, ds.test)))
    }

    val result = LargeEA.Result(
      scores = scores,
      structOnly = structOnly,
      nameOnly = nameOnly,
      batches = batches,
      pseudoSeedCount = pseudo.length,
      pseudoSeedPrecision = precision,
      seedsUsed = seeds.length,
      timings = Map.empty)
    Out(result, mse, mst, mn, ms, fused, batches)
  }
}
