//! The BoW MapReduce pipeline: sample → per-partition clustering (in the
//! reducers) → rectangle merge → assignment, run as the two-step chain
//! `bow` under the [`SchedulerChoice`] the caller names.

use crate::rect::{merge_rectangles, Rect};
use p3c_core::config::{OutlierMethod, P3cParams};
use p3c_core::p3cplus::{P3cPlus, P3cPlusLight};
use p3c_dataset::{split_assignment, Clustering, Dataset, ProjectedCluster};
use p3c_mapreduce::{
    run_chain, Emitter, Engine, Mapper, MrError, Reducer, SchedulerChoice, Weighable,
};

/// Which finishing variant the per-partition P3C+ uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BowVariant {
    /// Per-partition P3C+-Light (the paper's "BoW (Light)" series).
    Light,
    /// Per-partition full P3C+ with MVB outlier detection ("BoW (MVB)").
    Mvb,
}

/// BoW's processing strategy — the actual "best of both worlds" choice
/// (Cordeiro et al. §4): pay full shuffle I/O for exact per-partition
/// clustering, or sample to bound both I/O and computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BowStrategy {
    /// ParC: every record shuffles to its partition; reducers cluster
    /// complete partitions (capped at `sample_size` as a safety bound).
    /// No sampling error, maximal I/O.
    ParC,
    /// SnI (sample-and-ignore): only a hash-sampled subset shuffles;
    /// reducers cluster samples. Minimal I/O, approximate.
    SampleAndIgnore,
    /// Pick per dataset with the cost heuristic: sample when it removes
    /// at least half the shuffle volume, otherwise run ParC.
    CostBased,
}

/// BoW configuration.
#[derive(Debug, Clone)]
pub struct BowConfig {
    /// Number of data partitions (the paper: one per reducer).
    pub num_partitions: usize,
    /// Maximum sample per reducer (paper Section 7.3: 100 000).
    pub sample_size: usize,
    /// Plug-in clustering variant.
    pub variant: BowVariant,
    /// Processing strategy (see [`BowStrategy`]).
    pub strategy: BowStrategy,
    /// Parameters for the per-partition P3C+.
    pub params: P3cParams,
    /// Attribute-set Jaccard threshold of the merge phase.
    pub merge_jaccard: f64,
    /// Intervals wider than this carry no subspace information (the
    /// paper's "blurring" effect: per-partition EM/OD occasionally lets
    /// outliers stretch an interval to almost the full `[0,1]` range); such attributes
    /// are dropped from the partition rectangle before merging.
    pub max_interval_width: f64,
    /// Seed for the deterministic sampling decisions.
    pub seed: u64,
}

impl Default for BowConfig {
    fn default() -> Self {
        Self {
            num_partitions: 4,
            sample_size: 100_000,
            variant: BowVariant::Light,
            strategy: BowStrategy::CostBased,
            params: P3cParams::default(),
            merge_jaccard: 0.5,
            max_interval_width: 0.9,
            seed: 0,
        }
    }
}

/// Result of a BoW run.
#[derive(Debug, Clone)]
pub struct BowResult {
    pub clustering: Clustering,
    /// Rectangles produced by the partition clusterings (pre-merge).
    pub rectangles_before_merge: usize,
    /// Rectangles after the merge phase (= clusters).
    pub rectangles_after_merge: usize,
    /// The strategy actually executed (resolves `CostBased`).
    pub strategy_used: BowStrategy,
}

/// A rectangle as a shuffle/output message.
#[derive(Debug, Clone)]
struct RectMsg(Rect);
impl Weighable for RectMsg {
    fn weight(&self) -> usize {
        4 + self.0.dim() * 24
    }
}

/// Mapper: deterministic sampling + partition assignment. Each sampled
/// point is routed to a partition by a hash of its coordinates, so the
/// shuffle only carries the sample (the paper's I/O-saving strategy).
struct SampleMapper {
    num_partitions: usize,
    /// Per-point keep probability.
    keep: f64,
    seed: u64,
}

impl<'a> Mapper<&'a [f64], usize, Vec<f64>> for SampleMapper {
    fn map_split(&self, split: &[&'a [f64]], out: &mut Emitter<usize, Vec<f64>>) {
        for row in split {
            let h = hash_row(row, self.seed);
            // Uniform in [0,1) from the hash; keep decision + partition id
            // from independent hash parts.
            let u = (h >> 11) as f64 / (1u64 << 53) as f64;
            if u < self.keep {
                let part = (h % self.num_partitions as u64) as usize;
                out.emit(part, row.to_vec());
            }
        }
    }
}

fn hash_row(row: &[f64], seed: u64) -> u64 {
    let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
    for &v in row {
        x ^= v.to_bits();
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
    }
    x
}

/// Reducer: clusters its partition's sample with the plug-in P3C+ and
/// emits the resulting rectangles.
struct ClusterReducer {
    variant: BowVariant,
    params: P3cParams,
    sample_size: usize,
    max_interval_width: f64,
}

impl Reducer<usize, Vec<f64>, RectMsg> for ClusterReducer {
    fn reduce(&self, _part: &usize, values: Vec<Vec<f64>>, out: &mut Vec<RectMsg>) {
        let sample: Vec<Vec<f64>> = values.into_iter().take(self.sample_size).collect();
        for rect in partition_rects(sample, self.variant, &self.params, self.max_interval_width) {
            out.push(RectMsg(rect));
        }
    }
}

/// Clusters one partition's sample with the plug-in P3C+ and returns the
/// resulting rectangles — the per-reducer work.
fn partition_rects(
    sample: Vec<Vec<f64>>,
    variant: BowVariant,
    params: &P3cParams,
    max_interval_width: f64,
) -> Vec<Rect> {
    if sample.len() < 10 {
        return Vec::new(); // not enough data to say anything
    }
    let ds = Dataset::from_rows(sample);
    let clustering = match variant {
        BowVariant::Light => P3cPlusLight::new(params.clone()).cluster(&ds).clustering,
        BowVariant::Mvb => {
            let params = P3cParams {
                outlier: OutlierMethod::Mvb,
                ..params.clone()
            };
            P3cPlus::new(params).cluster(&ds).clustering
        }
    };
    let mut rects = Vec::new();
    for cluster in clustering.clusters {
        // Drop blurred (near-full-width) intervals: they constrain
        // nothing and would make merged rectangles degenerate.
        let intervals: Vec<_> = cluster
            .intervals
            .into_iter()
            .filter(|iv| iv.width() <= max_interval_width)
            .collect();
        if !intervals.is_empty() {
            rects.push(Rect::new(intervals));
        }
    }
    rects
}

/// Mapper of the final assignment job: first containing merged rectangle
/// (or −1).
struct AssignMapper<'r> {
    rects: &'r [Rect],
}

impl<'a> Mapper<&'a [f64], (), i64> for AssignMapper<'_> {
    fn map_split(&self, split: &[&'a [f64]], out: &mut Emitter<(), i64>) {
        for row in split {
            let label = self
                .rects
                .iter()
                .position(|r| r.contains(row))
                .map(|i| i as i64)
                .unwrap_or(-1);
            out.emit((), label);
        }
    }
}

/// The BoW driver.
pub struct Bow<'e> {
    engine: &'e Engine,
    config: BowConfig,
}

impl<'e> Bow<'e> {
    pub fn new(engine: &'e Engine, config: BowConfig) -> Self {
        assert!(config.num_partitions >= 1, "need at least one partition");
        assert!(config.sample_size >= 1, "need a positive sample size");
        config.params.validate();
        Self { engine, config }
    }

    pub fn config(&self) -> &BowConfig {
        &self.config
    }

    /// Resolves the effective strategy for a dataset of `n` points.
    pub fn effective_strategy(&self, n: usize) -> BowStrategy {
        let budget = self.config.sample_size * self.config.num_partitions;
        match self.config.strategy {
            BowStrategy::CostBased => {
                // Sampling wins when it at least halves the shuffle volume;
                // otherwise the exactness of ParC is free enough to take.
                if budget * 2 <= n {
                    BowStrategy::SampleAndIgnore
                } else {
                    BowStrategy::ParC
                }
            }
            s => s,
        }
    }

    /// Clusters a normalized dataset, one job after another
    /// ([`SchedulerChoice::Serial`]).
    pub fn cluster(&self, data: &Dataset) -> Result<BowResult, MrError> {
        self.cluster_with(data, SchedulerChoice::Serial)
    }

    /// Clusters under the chosen scheduler. The chain has two steps, so
    /// the result — and the job ledger — is the same under both: the
    /// per-partition clusterings already run concurrently on the
    /// engine's reducers.
    pub fn cluster_with(
        &self,
        data: &Dataset,
        scheduler: SchedulerChoice,
    ) -> Result<BowResult, MrError> {
        let rows = data.row_refs();
        let rows = rows.as_slice();
        let config = &self.config;
        let n = rows.len();
        let strategy_used = self.effective_strategy(n);
        // Keep probability: ParC ships everything; SnI keeps a hash
        // sample so each partition expects ≤ sample_size records.
        let budget = config.sample_size * config.num_partitions;
        let keep = match strategy_used {
            BowStrategy::ParC => 1.0,
            _ if n == 0 => 0.0,
            _ => (budget as f64 / n as f64).min(1.0),
        };

        let (rectangles_before_merge, merged, assignment) =
            run_chain(self.engine, "bow", scheduler, |chain| {
                // Job 1: sample + partition + per-reducer clustering.
                let rects = chain.step("sample-and-cluster", |engine| {
                    let result = engine.run(
                        "bow-sample-and-cluster",
                        rows,
                        &SampleMapper {
                            num_partitions: config.num_partitions,
                            keep,
                            seed: config.seed,
                        },
                        &ClusterReducer {
                            variant: config.variant,
                            params: config.params.clone(),
                            sample_size: config.sample_size,
                            max_interval_width: config.max_interval_width,
                        },
                    )?;
                    Ok(result
                        .output
                        .into_iter()
                        .map(|RectMsg(r)| r)
                        .collect::<Vec<_>>())
                })?;
                // Merge phase (driver side, as in BoW's final combination
                // step), then job 2: assign every point to its first
                // containing rectangle.
                let (merged, assignment) = chain.step("merge-and-assign", |engine| {
                    let merged = merge_rectangles(rects.clone(), config.merge_jaccard);
                    let assignment = if merged.is_empty() {
                        vec![-1; n]
                    } else {
                        let cache = merged.iter().map(|r| 4 + r.dim() * 24).sum();
                        let mapper = AssignMapper { rects: &merged };
                        engine
                            .run_map_only_with_cache("bow-assign", rows, cache, &mapper)?
                            .output
                    };
                    Ok((merged, assignment))
                })?;
                Ok((rects.len(), merged, assignment))
            })?;

        // Assemble the clustering; intervals are the merged rectangles'.
        let (members, outliers) = split_assignment(&assignment, merged.len());
        let clusters = members
            .into_iter()
            .zip(&merged)
            .filter(|(points, _)| !points.is_empty())
            .map(|(points, rect)| {
                ProjectedCluster::new(points, rect.attrs().collect(), rect.to_intervals())
            })
            .collect();
        Ok(BowResult {
            clustering: Clustering::new(clusters, outliers),
            rectangles_before_merge,
            rectangles_after_merge: merged.len(),
            strategy_used,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3c_datagen::{generate, SyntheticSpec};
    use p3c_eval::e4sc;
    use p3c_mapreduce::MrConfig;

    fn spec(n: usize, k: usize, noise: f64, seed: u64) -> SyntheticSpec {
        SyntheticSpec {
            n,
            d: 12,
            num_clusters: k,
            noise_fraction: noise,
            max_cluster_dims: 5,
            seed,
            ..SyntheticSpec::default()
        }
    }

    fn engine() -> Engine {
        Engine::new(MrConfig {
            split_size: 512,
            num_reducers: 4,
            ..MrConfig::default()
        })
    }

    #[test]
    fn bow_light_finds_planted_clusters() {
        let data = generate(&spec(4000, 3, 0.05, 11));
        let eng = engine();
        let config = BowConfig {
            num_partitions: 4,
            sample_size: 1000,
            variant: BowVariant::Light,
            ..BowConfig::default()
        };
        let result = Bow::new(&eng, config).cluster(&data.dataset).unwrap();
        assert!(
            result.clustering.num_clusters() >= 3,
            "clusters: {}",
            result.clustering.num_clusters()
        );
        let q = e4sc(&result.clustering, &data.ground_truth);
        assert!(q > 0.4, "E4SC = {q}");
        // Merging must have consolidated the per-partition rectangles.
        assert!(result.rectangles_after_merge <= result.rectangles_before_merge);
        assert!(result.rectangles_before_merge >= 3);
    }

    #[test]
    fn bow_mvb_variant_runs() {
        let data = generate(&spec(3000, 2, 0.05, 5));
        let eng = engine();
        let config = BowConfig {
            num_partitions: 2,
            sample_size: 1500,
            variant: BowVariant::Mvb,
            ..BowConfig::default()
        };
        let result = Bow::new(&eng, config).cluster(&data.dataset).unwrap();
        assert!(result.clustering.num_clusters() >= 1);
    }

    #[test]
    fn sampling_caps_shuffle_volume() {
        let data = generate(&spec(8000, 2, 0.1, 7));
        let eng = engine();
        let config = BowConfig {
            num_partitions: 2,
            sample_size: 500, // budget 1000 of 8000 points
            ..BowConfig::default()
        };
        Bow::new(&eng, config).cluster(&data.dataset).unwrap();
        let metrics = eng.cluster_metrics();
        let job = &metrics.jobs()[0];
        assert_eq!(job.job_name, "bow-sample-and-cluster");
        // Shuffled records ≈ 1000 ≪ 8000 (allow generous slack for the
        // hash-based Bernoulli sampling).
        assert!(
            job.shuffle_records < 1_600,
            "shuffled {} records",
            job.shuffle_records
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let data = generate(&spec(3000, 2, 0.1, 13));
        let run = || {
            let eng = engine();
            let config = BowConfig {
                num_partitions: 3,
                sample_size: 800,
                ..BowConfig::default()
            };
            Bow::new(&eng, config)
                .cluster(&data.dataset)
                .unwrap()
                .clustering
        };
        assert_eq!(run(), run());
    }

    const EXECUTORS: [SchedulerChoice; 2] = [SchedulerChoice::Serial, SchedulerChoice::Dag];

    #[test]
    fn empty_dataset() {
        let ds = Dataset::from_rows(vec![]);
        for scheduler in EXECUTORS {
            let eng = engine();
            let result = Bow::new(&eng, BowConfig::default())
                .cluster_with(&ds, scheduler)
                .unwrap();
            assert_eq!(result.clustering.num_clusters(), 0, "{scheduler:?}");
            assert_eq!(result.rectangles_after_merge, 0, "{scheduler:?}");
        }
    }

    #[test]
    fn strategy_selection_and_shuffle_volumes() {
        let data = generate(&spec(8000, 2, 0.1, 31));
        let shuffle_of = |strategy: BowStrategy| {
            let eng = engine();
            let config = BowConfig {
                num_partitions: 2,
                sample_size: 500,
                strategy,
                ..BowConfig::default()
            };
            let result = Bow::new(&eng, config).cluster(&data.dataset).unwrap();
            let records = eng.cluster_metrics().jobs()[0].shuffle_records;
            (result.strategy_used, records)
        };
        let (parc_used, parc_records) = shuffle_of(BowStrategy::ParC);
        let (sni_used, sni_records) = shuffle_of(BowStrategy::SampleAndIgnore);
        assert_eq!(parc_used, BowStrategy::ParC);
        assert_eq!(sni_used, BowStrategy::SampleAndIgnore);
        // ParC ships every record; SnI ships roughly the budget (1000).
        assert_eq!(parc_records, 8000);
        assert!(sni_records < 2000, "SnI shuffled {sni_records}");
        // Cost-based: budget 1000 ≪ 8000 → SnI.
        let (auto_used, auto_records) = shuffle_of(BowStrategy::CostBased);
        assert_eq!(auto_used, BowStrategy::SampleAndIgnore);
        assert_eq!(auto_records, sni_records);
    }

    #[test]
    fn cost_based_picks_parc_on_small_data() {
        let data = generate(&spec(3000, 2, 0.05, 17));
        let eng = engine();
        let config = BowConfig {
            num_partitions: 4,
            sample_size: 1000, // budget 4000; 2·4000 > 3000 → ParC
            strategy: BowStrategy::CostBased,
            ..BowConfig::default()
        };
        let result = Bow::new(&eng, config).cluster(&data.dataset).unwrap();
        assert_eq!(result.strategy_used, BowStrategy::ParC);
    }

    #[test]
    fn parc_runs_and_finds_clusters() {
        let data = generate(&spec(4000, 3, 0.05, 23));
        let eng = engine();
        let config = BowConfig {
            num_partitions: 4,
            sample_size: 2000,
            strategy: BowStrategy::ParC,
            seed: 1,
            ..BowConfig::default()
        };
        let r = Bow::new(&eng, config).cluster(&data.dataset).unwrap();
        assert!(r.clustering.num_clusters() >= 3);
        assert!(e4sc(&r.clustering, &data.ground_truth) > 0.4);
    }

    #[test]
    fn executors_agree_and_find_clusters() {
        let data = generate(&spec(4000, 3, 0.05, 11));
        let run = |scheduler| {
            let eng = engine();
            let config = BowConfig {
                num_partitions: 4,
                sample_size: 1000,
                variant: BowVariant::Light,
                ..BowConfig::default()
            };
            let result = Bow::new(&eng, config)
                .cluster_with(&data.dataset, scheduler)
                .unwrap();
            (result, eng.cluster_metrics())
        };
        let (serial, _) = run(SchedulerChoice::Serial);
        let (dag, ledger) = run(SchedulerChoice::Dag);
        assert_eq!(dag.clustering, serial.clustering);
        assert_eq!(dag.rectangles_before_merge, serial.rectangles_before_merge);
        assert_eq!(dag.rectangles_after_merge, serial.rectangles_after_merge);
        assert!(
            serial.clustering.num_clusters() >= 3,
            "clusters: {}",
            serial.clustering.num_clusters()
        );
        let q = e4sc(&serial.clustering, &data.ground_truth);
        assert!(q > 0.4, "E4SC = {q}");
        assert!(serial.rectangles_after_merge <= serial.rectangles_before_merge);
        assert!(serial.rectangles_before_merge >= 3);
        // One `bow` run: the sampling/clustering job, then merge + assign.
        let [run] = ledger.dag_runs() else {
            panic!("expected one DAG run, got {}", ledger.dag_runs().len());
        };
        assert_eq!(run.dag_name, "bow");
        assert_eq!(run.total_executions, 2);
        assert!(run.node("sample-and-cluster").is_some());
    }

    #[test]
    fn quality_degrades_with_tiny_samples() {
        // The paper's core claim about BoW: small per-reducer samples hurt
        // quality. Compare generous vs starved sampling on the same data.
        let data = generate(&spec(6000, 3, 0.1, 21));
        let run = |sample_size: usize| {
            let eng = engine();
            let config = BowConfig {
                num_partitions: 4,
                sample_size,
                seed: 1,
                ..BowConfig::default()
            };
            let r = Bow::new(&eng, config).cluster(&data.dataset).unwrap();
            e4sc(&r.clustering, &data.ground_truth)
        };
        let generous = run(2000);
        let starved = run(60);
        assert!(
            generous > starved,
            "generous {generous} should beat starved {starved}"
        );
    }
}
