package largeeabench

import repro.exp.Datasets
import repro.largeea.LargeEA
import repro.structure.GnnEA

/** The benchmark's workloads. Each is one closed-loop caller issuing
  * back-to-back `LargeEA.run` calls with a fixed pipeline config
  * (`LargeEA.Config.seed = 7`) on a `Datasets` registry dataset, generated
  * from the registry's own seed.
  *
  * @param warmup   untimed `LargeEA.run` calls after the cold one
  * @param minReps  timed calls made even when `--seconds` has run out (a
  *                 traced run makes one reference/traced pair at least)
  * @param floors   accuracy floors (H@1) checked on every call; a call below
  *                 one counts as a failed operation
  */
final case class Workload(
    name: String,
    spec: Datasets.Spec,
    cfg: LargeEA.Config,
    warmup: Int,
    minReps: Int,
    floors: Floors) {

  def fullPipeline: Boolean = cfg.useNameChannel && cfg.useStructChannel
}

/** Minimum Hits@1 of the fused, structure-only and name-only results. */
final case class Floors(fused: Double, struct: Double, name: Double)

object Workloads {

  private val cfg = LargeEA.Config(seed = 7L)

  val all: Seq[Workload] = Seq(
    // The paper's headline large-scale setting; the name channel (SENS over
    // |Es|·|Et| pairs) does most of the work, the structure channel runs as
    // 20 small batches.
    Workload("dbp1m-en-fr.largeea-r", Datasets.Dbp1mEnFr,
      cfg.copy(model = GnnEA.Rrea, k = 20),
      warmup = 0, minReps = 2,
      floors = Floors(fused = 0.50, struct = 0.30, name = 0.50)),
    // RREA structure channel alone, no partition (paper Table 6 "w/o
    // partition"): one big batch dominated by the bootstrap mutual-NN;
    // name, DA and fusion are bypassed.
    Workload("ids100k-en-fr.struct-nopart-r", Datasets.Ids100kEnFr,
      cfg.copy(model = GnnEA.Rrea, k = 1, useNameChannel = false, useDataAug = false),
      warmup = 0, minReps = 1,
      floors = Floors(fused = 0.25, struct = 0.25, name = 0.0)),
    // Small LargeEA-G: every stage is short, so fixed per-stage Spark cost
    // (jobs, shuffles, scheduling) dominates; GCN skips the bootstrap.
    Workload("ids15k-en-fr.largeea-g", Datasets.Ids15kEnFr,
      cfg.copy(model = GnnEA.Gcn, k = 5),
      warmup = 2, minReps = 3,
      floors = Floors(fused = 0.80, struct = 0.75, name = 0.70)),
    // Smoke-test workload on `Datasets.tiny()`; not part of BENCHMARK.json.
    Workload("tiny", Datasets.Ids15kEnFr.copy(key = "tiny", cfg = Datasets.tiny()),
      cfg.copy(model = GnnEA.Rrea, k = 3),
      warmup = 1, minReps = 2,
      floors = Floors(fused = 0.0, struct = 0.0, name = 0.0)))

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))
}
