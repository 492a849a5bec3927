//! The P3C+-MR and P3C+-MR-Light drivers: the jobs of Sections 5.1–5.7
//! (full) / Section 6 (Light) on a [`p3c_mapreduce::Engine`].
//!
//! Each pipeline is defined once, as [`JobGraph`]s: the shared `p3c-core`
//! graph (bin counts → histograms → cluster cores), then `p3c-model`
//! (EM → outlier detection → attribute inspection) or `p3c-light-model`
//! (membership → attribute inspection). Attribute inspection is one job
//! that also carries interval tightening's min/max (Sections 5.6 and
//! 5.7 in one pass); the driver finalizes each cluster from its merged
//! summary exactly as the serial pipelines do. Node bodies borrow the
//! caller's rows; only the small intermediates pass through the
//! [`DatasetStore`]. The [`SchedulerChoice`] given to `cluster_with`
//! picks the executor and nothing else, so both executors run the same
//! jobs on the same inputs.

use crate::config::{BinRuleChoice, OutlierMethod, P3cParams};
use crate::cores::ClusterCore;
use crate::histogram::AttributeHistograms;
use crate::inspect::ClusterSummary;
use crate::mr::coregen::generate_cluster_cores_mr;
use crate::mr::em::{em_fit_mr, initialize_from_cores_mr, MrEmFit};
use crate::mr::histogram::{histogram_job, iqr_job};
use crate::mr::inspect::{inspection_job, InspectionItem};
use crate::mr::outlier::{od_job_mcd, od_job_mvb, od_job_naive};
use crate::p3cplus::{empty_result, finalize_clusters, P3cResult, PipelineStats};
use crate::relevance::relevant_intervals;
use p3c_dataset::{split_assignment, Clustering, Dataset};
use p3c_mapreduce::{
    DatasetHandle, DatasetStore, Emitter, Engine, JobGraph, JobKind, JobNode, Mapper, MrError,
    NodeCtx, SchedulerChoice, Weighable,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The P3C+-MR algorithm (paper Section 5): every data-proportional step
/// is a MapReduce job on the supplied engine; job counts and shuffle
/// volumes are recorded in the engine's [`p3c_mapreduce::ClusterMetrics`].
pub struct P3cPlusMr<'e> {
    engine: &'e Engine,
    params: P3cParams,
}

impl<'e> P3cPlusMr<'e> {
    /// New MR pipeline over `engine` with validated parameters.
    pub fn new(engine: &'e Engine, params: P3cParams) -> Self {
        params.validate();
        Self { engine, params }
    }

    /// The pipeline's parameters.
    pub fn params(&self) -> &P3cParams {
        &self.params
    }

    /// Clusters a normalized dataset through the full MR pipeline, one
    /// job after another ([`SchedulerChoice::Serial`]).
    pub fn cluster(&self, data: &Dataset) -> Result<P3cResult, MrError> {
        self.cluster_with(data, SchedulerChoice::Serial)
    }

    /// Clusters on the chosen executor. The `p3c-core` graph yields the
    /// cluster cores; `p3c-model` chains EM (init jobs + 2 jobs per
    /// iteration), outlier detection and attribute inspection (one
    /// summary job, then driver-side marking and tightening). The result
    /// is byte-identical under both executors.
    pub fn cluster_with(
        &self,
        data: &Dataset,
        scheduler: SchedulerChoice,
    ) -> Result<P3cResult, MrError> {
        let rows = data.row_refs();
        let rows = rows.as_slice();
        let params = &self.params;
        let store = DatasetStore::new();
        let (cores, mut stats) = core_phase(self.engine, &store, rows, params, scheduler)?;
        if cores.is_empty() {
            return Ok(empty_result(data.len(), stats));
        }
        let cores = cores.as_slice();
        let (k, d) = (cores.len(), data.dim());
        let arel = arel_of(cores);

        let fit_ds: DatasetHandle<MrEmFit> = DatasetHandle::new("em-fit");
        let assign_ds: DatasetHandle<Vec<i64>> = DatasetHandle::new("assignment");
        let summaries_ds: DatasetHandle<Vec<ClusterSummary>> = DatasetHandle::new("summaries");

        let mut graph = JobGraph::new("p3c-model");
        graph.add(
            JobNode::new("em", JobKind::MapReduce, |ctx: &NodeCtx| {
                let init = initialize_from_cores_mr(ctx.engine, cores, rows, &arel)?;
                let fit = em_fit_mr(ctx.engine, init, rows, params.em_max_iters, params.em_tol)?;
                ctx.put(&fit_ds, fit, 1024);
                Ok(())
            })
            .output(&fit_ds),
        );
        graph.add(
            JobNode::new("outlier-detection", JobKind::MapReduce, |ctx: &NodeCtx| {
                let eval = Arc::new(ctx.fetch(&fit_ds)?.model.evaluator());
                let (alpha, arel_len) = (params.alpha_outlier, arel.len());
                let assignment = match params.outlier {
                    OutlierMethod::Naive => od_job_naive(ctx.engine, eval, rows, alpha, arel_len)?,
                    OutlierMethod::Mvb => od_job_mvb(ctx.engine, eval, rows, alpha, arel_len)?,
                    OutlierMethod::Mcd => od_job_mcd(ctx.engine, eval, rows, alpha, arel_len, 2)?,
                };
                let bytes = 8 * assignment.len();
                ctx.put(&assign_ds, assignment, bytes);
                Ok(())
            })
            .input(&fit_ds)
            .output(&assign_ds),
        );
        graph.add(
            JobNode::new(
                "attribute-inspection",
                JobKind::MapReduce,
                |ctx: &NodeCtx| {
                    let assignment = ctx.fetch(&assign_ds)?;
                    // Each row's cluster as a one-element slice of
                    // `ids`; an outlier belongs to none.
                    let ids: Vec<u32> = (0..k as u32).collect();
                    let items: Vec<InspectionItem<'_>> = assignment
                        .iter()
                        .zip(rows)
                        .map(|(&a, &row)| match usize::try_from(a) {
                            Ok(c) => (&ids[c..=c], row),
                            Err(_) => (&[][..], row),
                        })
                        .collect();
                    let summaries = inspection_job(ctx.engine, &items, k, d, params)?;
                    let bytes = summaries.iter().map(Weighable::weight).sum();
                    ctx.put(&summaries_ds, summaries, bytes);
                    Ok(())
                },
            )
            .input(&assign_ds)
            .output(&summaries_ds),
        );
        graph.run(self.engine, &store, scheduler)?;

        stats.em_iterations = store.get(&fit_ds)?.iterations;
        let assignment = store.get(&assign_ds)?;
        let summaries = store.get(&summaries_ds)?;
        let (members, outliers) = split_assignment(&assignment, k);
        stats.outliers = outliers.len();
        let clusters = finalize_clusters(cores, members, &summaries, params);
        Ok(P3cResult {
            clustering: Clustering::new(clusters, outliers),
            cores: cores.to_vec(),
            stats,
        })
    }
}

/// The P3C+-MR-Light algorithm (paper Section 6): skips EM and outlier
/// detection; support-set membership defines the clusters, and attribute
/// inspection uses only points belonging to exactly one cluster core.
pub struct P3cPlusMrLight<'e> {
    engine: &'e Engine,
    params: P3cParams,
}

impl<'e> P3cPlusMrLight<'e> {
    /// New MR-Light pipeline over `engine` with validated parameters.
    pub fn new(engine: &'e Engine, params: P3cParams) -> Self {
        params.validate();
        Self { engine, params }
    }

    /// The pipeline's parameters.
    pub fn params(&self) -> &P3cParams {
        &self.params
    }

    /// Runs the MR-Light pipeline (no EM refinement) on `data`, one job
    /// after another ([`SchedulerChoice::Serial`]).
    pub fn cluster(&self, data: &Dataset) -> Result<P3cResult, MrError> {
        self.cluster_with(data, SchedulerChoice::Serial)
    }

    /// Clusters on the chosen executor: the shared `p3c-core` graph, then
    /// `p3c-light-model`: the membership job, and the attribute-inspection
    /// job over its output, which inspects the uniquely assigned points
    /// (Section 6's histogram) and bounds every member. The result is
    /// byte-identical under both executors.
    pub fn cluster_with(
        &self,
        data: &Dataset,
        scheduler: SchedulerChoice,
    ) -> Result<P3cResult, MrError> {
        let rows = data.row_refs();
        let rows = rows.as_slice();
        let params = &self.params;
        let store = DatasetStore::new();
        let (cores, mut stats) = core_phase(self.engine, &store, rows, params, scheduler)?;
        if cores.is_empty() {
            return Ok(empty_result(data.len(), stats));
        }
        let cores = cores.as_slice();
        let (k, d) = (cores.len(), data.dim());
        let memberships_ds: DatasetHandle<Vec<Vec<u32>>> = DatasetHandle::new("memberships");
        let summaries_ds: DatasetHandle<Vec<ClusterSummary>> = DatasetHandle::new("summaries");

        let mut graph = JobGraph::new("p3c-light-model");
        graph.add(
            JobNode::new("membership", JobKind::MapOnly, |ctx: &NodeCtx| {
                let memberships = membership_job(ctx.engine, cores, rows)?;
                let bytes = memberships.iter().map(|m| 8 + 4 * m.len()).sum();
                ctx.put(&memberships_ds, memberships, bytes);
                Ok(())
            })
            .output(&memberships_ds),
        );
        graph.add(
            JobNode::new(
                "attribute-inspection",
                JobKind::MapReduce,
                |ctx: &NodeCtx| {
                    let memberships = ctx.fetch(&memberships_ds)?;
                    let items: Vec<InspectionItem<'_>> = memberships
                        .iter()
                        .zip(rows)
                        .map(|(containing, &row)| (containing.as_slice(), row))
                        .collect();
                    let summaries = inspection_job(ctx.engine, &items, k, d, params)?;
                    let bytes = summaries.iter().map(Weighable::weight).sum();
                    ctx.put(&summaries_ds, summaries, bytes);
                    Ok(())
                },
            )
            .input(&memberships_ds)
            .output(&summaries_ds),
        );
        graph.run(self.engine, &store, scheduler)?;

        let memberships = store.get(&memberships_ds)?;
        let summaries = store.get(&summaries_ds)?;
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut outliers = Vec::new();
        for (i, containing) in memberships.iter().enumerate() {
            if containing.is_empty() {
                outliers.push(i);
            }
            for &c in containing {
                members[c as usize].push(i);
            }
        }
        stats.outliers = outliers.len();
        let clusters = finalize_clusters(cores, members, &summaries, params);
        Ok(P3cResult {
            clustering: Clustering::new(clusters, outliers),
            cores: cores.to_vec(),
            stats,
        })
    }
}

/// The phase shared by both MR variants, as the job graph `p3c-core`:
/// bin counts (pre-seeded for the uniform rules, a quartile job under
/// the exact-IQR rule) → histogram job → relevant intervals, MR core
/// generation and the redundancy filter.
fn core_phase(
    engine: &Engine,
    store: &DatasetStore,
    rows: &[&[f64]],
    params: &P3cParams,
    scheduler: SchedulerChoice,
) -> Result<(Vec<ClusterCore>, PipelineStats), MrError> {
    let n = rows.len();
    let d = rows.first().map_or(0, |r| r.len());
    let bins_ds: DatasetHandle<Vec<usize>> = DatasetHandle::new("bins");
    let hists_ds: DatasetHandle<AttributeHistograms> = DatasetHandle::new("histograms");
    let cores_ds: DatasetHandle<(Vec<ClusterCore>, PipelineStats)> = DatasetHandle::new("cores");

    let mut graph = JobGraph::new("p3c-core");
    match params.bin_rule {
        BinRuleChoice::FreedmanDiaconisIqr => {
            graph.add(
                JobNode::new("p3c-iqr", JobKind::MapReduce, |ctx: &NodeCtx| {
                    let bins: Vec<usize> = iqr_job(ctx.engine, rows)?
                        .into_iter()
                        .map(|(q1, q3)| crate::p3cplus::iqr_bins(n, q3 - q1))
                        .collect();
                    ctx.put(&bins_ds, bins, 8 * d);
                    Ok(())
                })
                .output(&bins_ds),
            );
        }
        // The uniform rules need no data pass.
        _ => store.put(
            &bins_ds,
            vec![params.bin_rule.to_rule().num_bins(n).max(1); d],
            8 * d,
        ),
    }
    graph.add(
        JobNode::new("p3c-histogram", JobKind::MapReduce, |ctx: &NodeCtx| {
            let bins = ctx.fetch(&bins_ds)?;
            let hists = histogram_job(ctx.engine, rows, &bins)?;
            let bytes = 8 * bins.iter().sum::<usize>();
            ctx.put(&hists_ds, hists, bytes);
            Ok(())
        })
        .input(&bins_ds)
        .output(&hists_ds),
    );
    graph.add(
        JobNode::new("coregen", JobKind::MapReduce, |ctx: &NodeCtx| {
            let hists = ctx.fetch(&hists_ds)?;
            let mut stats = PipelineStats {
                bins: hists.bins,
                ..PipelineStats::default()
            };
            let intervals = relevant_intervals(&hists.histograms, params.alpha_chi2);
            stats.relevant_intervals = intervals.len();
            let gen = generate_cluster_cores_mr(ctx.engine, &intervals, rows, params)?;
            // Same proven-set redundancy filter as the serial pipeline, fed
            // from the MR coregen's (identically ordered) proven list and
            // support table, so MR cores stay byte-identical to serial.
            let mut cores = gen.cores;
            if params.use_redundancy_filter {
                cores = crate::redundancy::filter_redundant_proven(&gen.proven, &gen.table, n);
                crate::cores::attach_expected_supports(&mut cores, n);
            }
            stats.core_gen = gen.stats;
            stats.cores = cores.len();
            let bytes = 64 + 128 * cores.len();
            ctx.put(&cores_ds, (cores, stats), bytes);
            Ok(())
        })
        .input(&hists_ds)
        .output(&cores_ds),
    );
    graph.run(engine, store, scheduler)?;
    Ok((*store.get(&cores_ds)?).clone())
}

/// Map-only membership job for the Light variant: for each point the list
/// of cluster cores whose support set contains it.
fn membership_job(
    engine: &Engine,
    cores: &[ClusterCore],
    rows: &[&[f64]],
) -> Result<Vec<Vec<u32>>, MrError> {
    struct MembershipMapper {
        cores: Arc<Vec<ClusterCore>>,
    }
    impl<'a> Mapper<&'a [f64], (), Vec<u32>> for MembershipMapper {
        fn map(&self, row: &&'a [f64], out: &mut Emitter<(), Vec<u32>>) {
            let containing: Vec<u32> = self
                .cores
                .iter()
                .enumerate()
                .filter(|(_, core)| core.signature.contains(row))
                .map(|(c, _)| c as u32)
                .collect();
            out.emit((), containing);
        }
    }
    let cache = cores.iter().map(|c| 4 + c.signature.len() * 32).sum();
    let result = engine.run_map_only_with_cache(
        "p3c-light-membership",
        rows,
        cache,
        &MembershipMapper {
            cores: Arc::new(cores.to_vec()),
        },
    )?;
    Ok(result.output)
}

fn arel_of(cores: &[ClusterCore]) -> Vec<usize> {
    cores
        .iter()
        .flat_map(|c| c.signature.attributes())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect()
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

    const EXECUTORS: [SchedulerChoice; 2] = [SchedulerChoice::Serial, SchedulerChoice::Dag];

    #[test]
    fn mr_full_pipeline_recovers_clusters() {
        let data = generate(&spec(3000, 3, 0.05, 11));
        let eng = engine();
        let result = P3cPlusMr::new(&eng, P3cParams::default())
            .cluster(&data.dataset)
            .unwrap();
        assert_eq!(
            result.clustering.num_clusters(),
            3,
            "stats: {:?}",
            result.stats
        );
        let q = e4sc(&result.clustering, &data.ground_truth);
        assert!(q > 0.6, "E4SC = {q}");
        // The pipeline must have run a realistic number of jobs.
        let jobs = eng.cluster_metrics().num_jobs();
        assert!(jobs >= 8, "only {jobs} jobs recorded");
    }

    #[test]
    fn mr_light_pipeline_recovers_clusters() {
        let data = generate(&spec(3000, 3, 0.1, 5));
        let eng = engine();
        let result = P3cPlusMrLight::new(&eng, P3cParams::default())
            .cluster(&data.dataset)
            .unwrap();
        assert_eq!(
            result.clustering.num_clusters(),
            3,
            "stats: {:?}",
            result.stats
        );
        let q = e4sc(&result.clustering, &data.ground_truth);
        assert!(q > 0.7, "E4SC = {q}");
    }

    #[test]
    fn light_runs_fewer_jobs_than_full() {
        let data = generate(&spec(2000, 3, 0.1, 7));
        let eng_full = engine();
        let eng_light = engine();
        P3cPlusMr::new(&eng_full, P3cParams::default())
            .cluster(&data.dataset)
            .unwrap();
        P3cPlusMrLight::new(&eng_light, P3cParams::default())
            .cluster(&data.dataset)
            .unwrap();
        let full_jobs = eng_full.cluster_metrics().num_jobs();
        let light_jobs = eng_light.cluster_metrics().num_jobs();
        assert!(
            light_jobs < full_jobs,
            "light {light_jobs} vs full {full_jobs} jobs"
        );
    }

    #[test]
    fn mr_light_matches_serial_light_cores() {
        let data = generate(&spec(2500, 3, 0.1, 13));
        let eng = engine();
        let mr = P3cPlusMrLight::new(&eng, P3cParams::default())
            .cluster(&data.dataset)
            .unwrap();
        let serial = crate::p3cplus::P3cPlusLight::new(P3cParams::default()).cluster(&data.dataset);
        let mr_sigs: Vec<String> = mr.cores.iter().map(|c| c.signature.to_string()).collect();
        let serial_sigs: Vec<String> = serial
            .cores
            .iter()
            .map(|c| c.signature.to_string())
            .collect();
        assert_eq!(mr_sigs, serial_sigs);
        // And the clusterings agree point-for-point.
        assert_eq!(
            mr.clustering.clusters.len(),
            serial.clustering.clusters.len()
        );
        for (a, b) in mr
            .clustering
            .clusters
            .iter()
            .zip(&serial.clustering.clusters)
        {
            assert_eq!(a.points, b.points);
            assert_eq!(a.attributes, b.attributes);
        }
        assert_eq!(mr.clustering.outliers, serial.clustering.outliers);
    }

    #[test]
    fn exact_iqr_binning_mr_matches_serial() {
        let data = generate(&spec(2500, 3, 0.1, 13));
        let params = P3cParams {
            bin_rule: crate::config::BinRuleChoice::FreedmanDiaconisIqr,
            ..P3cParams::default()
        };
        let eng = Engine::new(MrConfig {
            split_size: 100_000,
            ..MrConfig::default()
        });
        // With one split the MR quartile job computes exact quartiles, so
        // MR and serial pipelines must agree on the cores.
        let mr = P3cPlusMrLight::new(&eng, params.clone())
            .cluster(&data.dataset)
            .unwrap();
        let serial = crate::p3cplus::P3cPlusLight::new(params).cluster(&data.dataset);
        let mr_sigs: Vec<String> = mr.cores.iter().map(|c| c.signature.to_string()).collect();
        let serial_sigs: Vec<String> = serial
            .cores
            .iter()
            .map(|c| c.signature.to_string())
            .collect();
        assert_eq!(mr_sigs, serial_sigs);
        // The ledger shows the extra quartile job first.
        assert_eq!(eng.cluster_metrics().jobs()[0].job_name, "p3c-iqr");
    }

    #[test]
    fn empty_data() {
        let ds = p3c_dataset::Dataset::from_rows(vec![]);
        for scheduler in EXECUTORS {
            let eng = engine();
            let full = P3cPlusMr::new(&eng, P3cParams::default())
                .cluster_with(&ds, scheduler)
                .unwrap();
            assert_eq!(full.clustering.num_clusters(), 0, "{scheduler:?}");
            let light = P3cPlusMrLight::new(&eng, P3cParams::default())
                .cluster_with(&ds, scheduler)
                .unwrap();
            assert_eq!(light.clustering.num_clusters(), 0, "{scheduler:?}");
        }
    }

    #[test]
    fn fault_injected_pipeline_still_correct() {
        let data = generate(&spec(2000, 2, 0.05, 3));
        for scheduler in EXECUTORS {
            let clean_engine = engine();
            let faulty_engine = Engine::new(MrConfig {
                split_size: 512,
                fault: Some(p3c_mapreduce::FaultPlan::new(0.2, 99)),
                max_attempts: 20,
                ..MrConfig::default()
            });
            let clean = P3cPlusMrLight::new(&clean_engine, P3cParams::default())
                .cluster_with(&data.dataset, scheduler)
                .unwrap();
            let faulty = P3cPlusMrLight::new(&faulty_engine, P3cParams::default())
                .cluster_with(&data.dataset, scheduler)
                .unwrap();
            assert_eq!(clean.clustering, faulty.clustering, "{scheduler:?}");
            let failed: u64 = faulty_engine
                .cluster_metrics()
                .jobs()
                .iter()
                .map(|j| j.failed_attempts)
                .sum();
            assert!(failed > 0, "{scheduler:?}: fault plan never struck");
        }
    }

    #[test]
    fn executors_agree_byte_for_byte() {
        let full_data = generate(&spec(3000, 3, 0.05, 11));
        let light_data = generate(&spec(2500, 3, 0.1, 13));
        let run = |scheduler| {
            let (eng_full, eng_light) = (engine(), engine());
            let full = P3cPlusMr::new(&eng_full, P3cParams::default())
                .cluster_with(&full_data.dataset, scheduler)
                .unwrap();
            let light = P3cPlusMrLight::new(&eng_light, P3cParams::default())
                .cluster_with(&light_data.dataset, scheduler)
                .unwrap();
            let ledgers = (eng_full.cluster_metrics(), eng_light.cluster_metrics());
            (full, light, ledgers)
        };
        let (full, light, _) = run(SchedulerChoice::Serial);
        let (dag_full, dag_light, (full_ledger, light_ledger)) = run(SchedulerChoice::Dag);
        assert_eq!(dag_full.clustering, full.clustering);
        assert_eq!(dag_full.cores, full.cores);
        assert_eq!(dag_full.stats.em_iterations, full.stats.em_iterations);
        assert_eq!(dag_light.clustering, light.clustering);
        assert_eq!(dag_light.cores, light.cores);

        // The full pipeline is the paper's chain: two graphs, one node at
        // a time.
        let names = |m: &p3c_mapreduce::ClusterMetrics| -> Vec<String> {
            m.dag_runs().iter().map(|r| r.dag_name.clone()).collect()
        };
        assert_eq!(names(&full_ledger), ["p3c-core", "p3c-model"]);
        assert_eq!(full_ledger.dag_runs()[0].total_executions, 2);
        assert_eq!(full_ledger.dag_runs()[1].total_executions, 3);
        // Light: membership and inspection, once each.
        assert_eq!(names(&light_ledger), ["p3c-core", "p3c-light-model"]);
        let model_run = &light_ledger.dag_runs()[1];
        assert_eq!(model_run.total_executions, 2);
        assert!(model_run.node("membership").is_some());
    }

    #[test]
    fn iqr_rule_adds_a_quartile_node() {
        let data = generate(&spec(2500, 3, 0.1, 13));
        let params = P3cParams {
            bin_rule: crate::config::BinRuleChoice::FreedmanDiaconisIqr,
            ..P3cParams::default()
        };
        let run = |scheduler| {
            let eng = Engine::new(MrConfig {
                split_size: 100_000,
                ..MrConfig::default()
            });
            let result = P3cPlusMrLight::new(&eng, params.clone())
                .cluster_with(&data.dataset, scheduler)
                .unwrap();
            (result, eng.cluster_metrics())
        };
        let (serial, serial_ledger) = run(SchedulerChoice::Serial);
        let (dag, dag_ledger) = run(SchedulerChoice::Dag);
        assert_eq!(dag.clustering, serial.clustering);
        for ledger in [&serial_ledger, &dag_ledger] {
            assert_eq!(ledger.jobs()[0].job_name, "p3c-iqr");
        }
        assert!(
            dag_ledger.dag_runs()[0].node("p3c-iqr").is_some(),
            "quartile node missing from the DAG"
        );
    }

    #[test]
    fn pipeline_surfaces_exhausted_faults() {
        let data = generate(&spec(1000, 2, 0.05, 3));
        for scheduler in EXECUTORS {
            let eng = Engine::new(MrConfig {
                split_size: 512,
                fault: Some(p3c_mapreduce::FaultPlan::new(1.0, 5)),
                max_attempts: 2,
                ..MrConfig::default()
            });
            // Every map attempt fails, so the first node exhausts its
            // engine-level retries (on both node attempts under `Dag`);
            // the executor must return (not hang) with the underlying
            // task failure.
            let err = P3cPlusMr::new(&eng, P3cParams::default())
                .cluster_with(&data.dataset, scheduler)
                .unwrap_err();
            assert!(
                matches!(err, MrError::TaskFailed { attempts: 2, .. }),
                "{scheduler:?}: unexpected error: {err:?}"
            );
        }
    }

    #[test]
    fn speculative_pipeline_matches_and_launches_backups() {
        let data = generate(&spec(1500, 2, 0.05, 17));
        // Every primary attempt straggles, and there are more worker
        // threads (6) than map tasks (1500 rows / 512 = 3), so idle
        // workers are guaranteed to launch backup attempts while the
        // primaries sleep — the test cannot pass vacuously.
        let mk = |speculative: bool| {
            Engine::new(MrConfig {
                split_size: 512,
                threads: 6,
                straggler: Some(p3c_mapreduce::fault::StragglerPlan::new(1.0, 150, 7)),
                speculative,
                ..MrConfig::default()
            })
        };
        let base_engine = mk(false);
        let spec_engine = mk(true);
        let base = P3cPlusMrLight::new(&base_engine, P3cParams::default())
            .cluster(&data.dataset)
            .unwrap();
        let speculated = P3cPlusMrLight::new(&spec_engine, P3cParams::default())
            .cluster(&data.dataset)
            .unwrap();
        // Backup attempts must not change the output...
        assert_eq!(base.clustering, speculated.clustering);
        // ...and the straggler plan must actually have triggered some.
        let backups: u64 = spec_engine
            .cluster_metrics()
            .jobs()
            .iter()
            .map(|j| j.speculative_attempts)
            .sum();
        assert!(backups > 0, "no speculative attempts launched");
    }
}
