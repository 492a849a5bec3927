//! The P3C+-MR and P3C+-MR-Light drivers: the jobs of Sections 5.1–5.7
//! (full) / Section 6 (Light) on a [`p3c_mapreduce::Engine`].
//!
//! Each pipeline is two job chains run by [`run_chain`]: the shared
//! `p3c-core` chain (bin counts → histograms → cluster cores), then
//! `p3c-model` (EM → outlier detection → attribute inspection) or
//! `p3c-light-model` (membership → attribute inspection). Attribute
//! inspection is one job that also carries interval tightening's min/max
//! (Sections 5.6 and 5.7 in one pass); the driver finalizes each cluster
//! from its merged summary exactly as the serial pipelines do. Each
//! step's output is a local of the driver. The [`SchedulerChoice`] given
//! to `cluster_with` decides only whether a failed step runs again and
//! whether the chains are recorded, so both choices run the same jobs on
//! the same inputs.

use crate::config::{BinRuleChoice, OutlierMethod, P3cParams};
use crate::cores::ClusterCore;
use crate::em::em_phase;
use crate::mr::coregen::JobCounter;
use crate::mr::em::JobRunner;
use crate::mr::histogram::{histogram_job, iqr_job};
use crate::mr::inspect::{inspection_job, InspectionItem};
use crate::mr::outlier::{od_job_mcd, od_job_mvb, od_job_naive};
use crate::p3cplus::{
    core_phase_from_histograms, empty_result, finalize_clusters, P3cResult, PipelineStats,
};
use p3c_dataset::{split_assignment, Clustering, Dataset};
use p3c_mapreduce::{run_chain, Emitter, Engine, Mapper, MrError, SchedulerChoice};
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

    /// Clusters under the chosen scheduler. The `p3c-core` chain yields
    /// the cluster cores; `p3c-model` chains EM (init jobs + 2 jobs per
    /// iteration), outlier detection and attribute inspection (one
    /// summary job, then driver-side marking and tightening). The result
    /// is byte-identical under both choices.
    pub fn cluster_with(
        &self,
        data: &Dataset,
        scheduler: SchedulerChoice,
    ) -> Result<P3cResult, MrError> {
        let rows = data.row_refs();
        let rows = rows.as_slice();
        let params = &self.params;
        let (cores, mut stats) = core_phase(self.engine, rows, params, scheduler)?;
        if cores.is_empty() {
            return Ok(empty_result(data.len(), stats));
        }
        let (k, d) = (cores.len(), data.dim());

        let (em_iterations, assignment, summaries) =
            run_chain(self.engine, "p3c-model", scheduler, |chain| {
                let fit = chain.step("em", |engine| {
                    em_phase(&mut JobRunner::new(engine, rows), &cores, params)
                })?;
                let assignment = chain.step("outlier-detection", |engine| {
                    let eval = Arc::new(fit.model.evaluator());
                    let (alpha, arel_len) = (params.alpha_outlier, fit.model.arel.len());
                    match params.outlier {
                        OutlierMethod::Naive => od_job_naive(engine, eval, rows, alpha, arel_len),
                        OutlierMethod::Mvb => od_job_mvb(engine, eval, rows, alpha, arel_len),
                        OutlierMethod::Mcd => od_job_mcd(engine, eval, rows, alpha, arel_len, 2),
                    }
                })?;
                let summaries = chain.step("attribute-inspection", |engine| {
                    // Each row's cluster as a one-element slice of `ids`;
                    // an outlier belongs to none.
                    let ids: Vec<u32> = (0..k as u32).collect();
                    let items: Vec<InspectionItem<'_>> = assignment
                        .iter()
                        .zip(rows)
                        .map(|(&a, &row)| match usize::try_from(a) {
                            Ok(c) => (&ids[c..=c], row),
                            Err(_) => (&[][..], row),
                        })
                        .collect();
                    inspection_job(engine, &items, k, d, params)
                })?;
                Ok((fit.iterations, assignment, summaries))
            })?;

        stats.em_iterations = em_iterations;
        let (members, outliers) = split_assignment(&assignment, k);
        stats.outliers = outliers.len();
        let clusters = finalize_clusters(&cores, members, &summaries, params);
        Ok(P3cResult {
            clustering: Clustering::new(clusters, outliers),
            cores,
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

    /// Clusters under the chosen scheduler: the shared `p3c-core` chain,
    /// then `p3c-light-model`: the membership job, and the
    /// attribute-inspection job over its output, which inspects the
    /// uniquely assigned points (Section 6's histogram) and bounds every
    /// member. The result is byte-identical under both choices.
    pub fn cluster_with(
        &self,
        data: &Dataset,
        scheduler: SchedulerChoice,
    ) -> Result<P3cResult, MrError> {
        let rows = data.row_refs();
        let rows = rows.as_slice();
        let params = &self.params;
        let (cores, mut stats) = core_phase(self.engine, rows, params, scheduler)?;
        if cores.is_empty() {
            return Ok(empty_result(data.len(), stats));
        }
        let (k, d) = (cores.len(), data.dim());

        let (memberships, summaries) =
            run_chain(self.engine, "p3c-light-model", scheduler, |chain| {
                let memberships =
                    chain.step("membership", |engine| membership_job(engine, &cores, rows))?;
                let summaries = chain.step("attribute-inspection", |engine| {
                    let items: Vec<InspectionItem<'_>> = memberships
                        .iter()
                        .zip(rows)
                        .map(|(containing, &row)| (containing.as_slice(), row))
                        .collect();
                    inspection_job(engine, &items, k, d, params)
                })?;
                Ok((memberships, summaries))
            })?;

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
        let clusters = finalize_clusters(&cores, members, &summaries, params);
        Ok(P3cResult {
            clustering: Clustering::new(clusters, outliers),
            cores,
            stats,
        })
    }
}

/// The phase shared by both MR variants, as the chain `p3c-core`: bin
/// counts (from the uniform rules, or a quartile job under the exact-IQR
/// rule) → histogram job → the serial pipelines' relevant intervals,
/// core generation and redundancy filter, counting through proving jobs.
fn core_phase(
    engine: &Engine,
    rows: &[&[f64]],
    params: &P3cParams,
    scheduler: SchedulerChoice,
) -> Result<(Vec<ClusterCore>, PipelineStats), MrError> {
    let n = rows.len();
    let d = rows.first().map_or(0, |r| r.len());
    run_chain(engine, "p3c-core", scheduler, |chain| {
        let bins: Vec<usize> = match params.bin_rule {
            BinRuleChoice::FreedmanDiaconisIqr => chain.step("p3c-iqr", |engine| {
                Ok(iqr_job(engine, rows)?
                    .into_iter()
                    .map(|(q1, q3)| crate::p3cplus::iqr_bins(n, q3 - q1))
                    .collect())
            })?,
            // The uniform rules need no data pass.
            _ => vec![params.bin_rule.to_rule().num_bins(n).max(1); d],
        };
        let hists = chain.step("p3c-histogram", |engine| histogram_job(engine, rows, &bins))?;
        chain.step("coregen", |engine| {
            let mut counter = JobCounter::new(engine, rows, params);
            core_phase_from_histograms(&hists, n, params, &mut counter)
        })
    })
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
        fn map_split(&self, split: &[&'a [f64]], out: &mut Emitter<(), Vec<u32>>) {
            for row in split {
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

        // The full pipeline is the paper's job chain, recorded as two
        // chains of steps.
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
            "quartile step missing from the chain"
        );
    }
}
