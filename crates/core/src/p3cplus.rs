//! The serial P3C+ pipelines: full (EM + outlier detection) and Light.
//!
//! These drive the whole algorithm in-process; the MapReduce versions in
//! [`crate::mr`] reuse the same building blocks, replacing each data scan
//! with a job. The serial pipelines also power the per-partition work of
//! the BoW baseline.

use crate::config::{BinRuleChoice, OutlierMethod, P3cParams};
use crate::cores::{
    attach_expected_supports, generate_cluster_cores_with, ClusterCore, CoreGenStats, LevelCounter,
    ScanCounter,
};
use crate::em::{em_fit_threads, initialize_from_cores};
use crate::histogram::build_histograms_columnar_threads;
use crate::inspect::ClusterSummary;
use crate::outlier::{
    assign_clusters, detect_outliers_mcd, detect_outliers_mvb, detect_outliers_naive,
};
use crate::redundancy::filter_redundant_proven;
use crate::relevance::relevant_intervals;
use p3c_dataset::{split_assignment, Clustering, Dataset, ProjectedCluster};
use std::collections::BTreeSet;

/// Statistics of one pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Histogram bins used.
    pub bins: usize,
    /// Relevant intervals found.
    pub relevant_intervals: usize,
    /// Core generation counters.
    pub core_gen: CoreGenStats,
    /// Cluster cores after all filtering.
    pub cores: usize,
    /// EM iterations executed (0 for Light).
    pub em_iterations: usize,
    /// Points flagged as outliers.
    pub outliers: usize,
}

/// Result of a P3C-family run.
#[derive(Debug, Clone)]
pub struct P3cResult {
    /// The projected clusters and outliers.
    pub clustering: Clustering,
    /// The cluster cores behind the clusters (parallel to
    /// `clustering.clusters` — core i produced cluster i).
    pub cores: Vec<ClusterCore>,
    /// Per-stage pipeline statistics.
    pub stats: PipelineStats,
}

/// The P3C+ algorithm (Section 4) with the full EM + outlier-detection
/// refinement. Configure via [`P3cParams`]; `P3cParams::original_p3c()`
/// turns this into the original P3C baseline.
#[derive(Debug, Clone)]
pub struct P3cPlus {
    params: P3cParams,
}

impl P3cPlus {
    /// New pipeline with validated parameters.
    pub fn new(params: P3cParams) -> Self {
        params.validate();
        Self { params }
    }

    /// The pipeline's parameters.
    pub fn params(&self) -> &P3cParams {
        &self.params
    }

    /// Clusters a normalized dataset.
    pub fn cluster(&self, data: &Dataset) -> P3cResult {
        let rows = data.row_refs();
        let (cores, mut stats) = shared_core_phase(data, &rows, &self.params);
        if cores.is_empty() {
            return empty_result(data.len(), stats);
        }

        // EM in the relevant subspace.
        let arel: Vec<usize> = cores
            .iter()
            .flat_map(|c| c.signature.attributes())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let init = initialize_from_cores(&cores, &rows, &arel);
        let fit = em_fit_threads(
            init,
            &rows,
            self.params.em_max_iters,
            self.params.em_tol,
            self.params.threads,
        );
        stats.em_iterations = fit.iterations;
        let eval = fit.model.evaluator();
        let hard = assign_clusters(&eval, &rows);

        // Outlier detection.
        let assignment = match self.params.outlier {
            OutlierMethod::Naive => {
                detect_outliers_naive(&eval, &rows, &hard, self.params.alpha_outlier, arel.len())
            }
            OutlierMethod::Mvb => {
                detect_outliers_mvb(&eval, &rows, &hard, self.params.alpha_outlier, arel.len())
            }
            OutlierMethod::Mcd => {
                detect_outliers_mcd(&eval, &rows, &hard, self.params.alpha_outlier, arel.len())
            }
        };
        stats.outliers = assignment.iter().filter(|&&a| a == -1).count();

        // Attribute inspection + interval tightening per cluster, every
        // member inspected.
        let (members, outliers) = split_assignment(&assignment, cores.len());
        let summaries: Vec<ClusterSummary> = members
            .iter()
            .map(|points| ClusterSummary::fold(&rows, points, points, &self.params))
            .collect();
        let clusters = finalize_clusters(&cores, members, &summaries, &self.params);
        let clustering = Clustering::new(clusters, outliers);
        P3cResult {
            clustering,
            cores,
            stats,
        }
    }
}

/// The P3C+-Light pipeline (Section 6): no EM, no outlier detection;
/// clusters are the cluster cores' support sets, with attribute
/// inspection restricted to points belonging to exactly one support set.
#[derive(Debug, Clone)]
pub struct P3cPlusLight {
    params: P3cParams,
}

impl P3cPlusLight {
    /// New pipeline with validated parameters.
    pub fn new(params: P3cParams) -> Self {
        params.validate();
        Self { params }
    }

    /// The pipeline's parameters.
    pub fn params(&self) -> &P3cParams {
        &self.params
    }

    /// Runs the Light pipeline (no EM refinement) on `data`.
    pub fn cluster(&self, data: &Dataset) -> P3cResult {
        let rows = data.row_refs();
        let (cores, mut stats) = shared_core_phase(data, &rows, &self.params);
        if cores.is_empty() {
            return empty_result(data.len(), stats);
        }

        let membership = light_membership(&rows, &cores);
        stats.outliers = membership.outliers.len();
        let summaries = light_summaries(&rows, &membership, &self.params);
        let clustering = light_clustering(&cores, &membership, &summaries, &self.params);
        P3cResult {
            clustering,
            cores,
            stats,
        }
    }
}

/// The Light pipeline's membership mapping `m′` (Section 6): per core,
/// its member point ids, the ids belonging to *only* that core, and the
/// ids in no core at all — each list in ascending id order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct LightMembership {
    pub members: Vec<Vec<usize>>,
    pub unique_members: Vec<Vec<usize>>,
    pub outliers: Vec<usize>,
}

/// Computes the Light membership mapping by one scan over the rows.
/// Extracted from `P3cPlusLight::cluster` so the incremental service's
/// fallback path runs literally the same code (byte-identity by
/// construction).
pub(crate) fn light_membership(rows: &[&[f64]], cores: &[ClusterCore]) -> LightMembership {
    let k = cores.len();
    let mut m = LightMembership {
        members: vec![Vec::new(); k],
        unique_members: vec![Vec::new(); k],
        outliers: Vec::new(),
    };
    for (i, row) in rows.iter().enumerate() {
        light_classify(row, i, cores, &mut m);
    }
    m
}

/// Classifies one row into the membership mapping — the per-point step
/// of [`light_membership`], also used by the incremental engine to fold
/// an appended delta block into maintained memberships. Returns the
/// cores whose support set contains the row.
pub(crate) fn light_classify(
    row: &[f64],
    id: usize,
    cores: &[ClusterCore],
    m: &mut LightMembership,
) -> Vec<usize> {
    let mut containing: Vec<usize> = Vec::new();
    for (c, core) in cores.iter().enumerate() {
        if core.signature.contains(row) {
            containing.push(c);
        }
    }
    match containing.as_slice() {
        [] => m.outliers.push(id),
        cs => {
            for &c in cs {
                m.members[c].push(id);
            }
            if let [only] = cs {
                m.unique_members[*only].push(id);
            }
        }
    }
    containing
}

/// The Light pipeline's per-core summaries: every member bounded, the
/// unique members inspected (Section 6's histogram). Shared with the
/// incremental service's full path.
pub(crate) fn light_summaries(
    rows: &[&[f64]],
    m: &LightMembership,
    params: &P3cParams,
) -> Vec<ClusterSummary> {
    m.members
        .iter()
        .zip(&m.unique_members)
        .map(|(members, unique)| ClusterSummary::fold(rows, members, unique, params))
        .collect()
}

/// The Light pipeline's clustering from its membership mapping and
/// per-core summaries — serial Light's and both service paths'.
pub(crate) fn light_clustering(
    cores: &[ClusterCore],
    m: &LightMembership,
    summaries: &[ClusterSummary],
    params: &P3cParams,
) -> Clustering {
    let clusters = finalize_clusters(cores, m.members.clone(), summaries, params);
    Clustering::new(clusters, m.outliers.clone())
}

/// Cluster `c` from core `c`, its member ids and its summary: attribute
/// inspection, then interval tightening. Every pipeline, serial, MR and
/// incremental, finalizes through here.
pub(crate) fn finalize_clusters(
    cores: &[ClusterCore],
    members: Vec<Vec<usize>>,
    summaries: &[ClusterSummary],
    params: &P3cParams,
) -> Vec<ProjectedCluster> {
    cores
        .iter()
        .zip(members)
        .zip(summaries)
        .map(|((core, points), summary)| {
            summary.finalize(points, core.signature.attributes(), params)
        })
        .collect()
}

/// Histogram → relevant intervals → cluster cores → redundancy filter:
/// the part shared by every variant. Binning and IQR estimation run as
/// column scans over the dataset's flat row-major buffer; core
/// generation still works on row views.
fn shared_core_phase(
    data: &Dataset,
    rows: &[&[f64]],
    params: &P3cParams,
) -> (Vec<ClusterCore>, PipelineStats) {
    let n = data.len();
    let bins_per_attr = bins_per_attribute_columnar(data, params);
    let hists = build_histograms_columnar_threads(
        n,
        data.dim(),
        data.as_slice(),
        &bins_per_attr,
        params.threads,
    );
    let mut counter = ScanCounter::new(rows);
    core_phase_from_histograms(&hists, n, params, &mut counter).expect("scan counter is infallible")
}

/// Relevant intervals → cluster cores → redundancy filter → expected
/// supports, starting from already-built histograms and a
/// [`LevelCounter`]. Shared by the batch pipelines (scan counter over
/// the full row set) and the incremental service engine (cached
/// counter over maintained supports): for equal histograms and equal
/// counter answers, every step below is a pure function, so the
/// returned cores are identical — the byte-identity contract of
/// DESIGN.md §14.
pub(crate) fn core_phase_from_histograms(
    hists: &crate::histogram::AttributeHistograms,
    n: usize,
    params: &P3cParams,
    counter: &mut dyn LevelCounter,
) -> Result<(Vec<ClusterCore>, PipelineStats), String> {
    let mut stats = PipelineStats {
        bins: hists.bins,
        ..PipelineStats::default()
    };
    let intervals = relevant_intervals(&hists.histograms, params.alpha_chi2);
    stats.relevant_intervals = intervals.len();
    let gen = generate_cluster_cores_with(&intervals, n, params, counter)?;
    stats.core_gen = gen.stats.clone();
    // With the filter on, redundancy runs over the full proven set
    // against the attribute-independence null *before* maximality —
    // overlap-region artifacts are removed and the true cores they
    // eclipsed resurface (DESIGN.md §11). With it off, the raw maximal
    // set is reported, as Figure 5's unfiltered columns require.
    let mut cores = if params.use_redundancy_filter {
        filter_redundant_proven(&gen.proven, &gen.table, n)
    } else {
        gen.cores
    };
    attach_expected_supports(&mut cores, n);
    stats.cores = cores.len();
    Ok((cores, stats))
}

/// Per-attribute bin counts under the configured rule. The uniform rules
/// return a constant vector; the exact-IQR extension computes each
/// attribute's quartiles from a strided column scan over the flat buffer
/// (serially — the MR pipelines use a job instead).
pub fn bins_per_attribute_columnar(data: &Dataset, params: &P3cParams) -> Vec<usize> {
    let (n, d) = (data.len(), data.dim());
    match params.bin_rule {
        BinRuleChoice::Sturges | BinRuleChoice::FreedmanDiaconis => {
            vec![params.bin_rule.to_rule().num_bins(n).max(1); d]
        }
        BinRuleChoice::FreedmanDiaconisIqr => {
            let mut column = Vec::with_capacity(n);
            (0..d)
                .map(|j| {
                    column.clear();
                    column.extend(data.column(j));
                    let iqr = p3c_stats::descriptive::iqr(&column).unwrap_or(0.5);
                    iqr_bins(n, iqr)
                })
                .collect()
        }
    }
}

/// Freedman–Diaconis bin count from an attribute's IQR, clamped to
/// `[2, 4 × simplified-FD]` (tiny IQRs would otherwise explode the
/// discretization).
pub fn iqr_bins(n: usize, iqr: f64) -> usize {
    let cap = 4 * p3c_stats::binning::freedman_diaconis_bins(n).max(1);
    if iqr <= f64::EPSILON {
        return cap;
    }
    p3c_stats::binning::freedman_diaconis_bins_with_iqr(n, iqr, 1.0).clamp(2, cap)
}

/// The no-cores result: every point an outlier, zero clusters. Shared
/// with the incremental engine so its empty path matches batch exactly
/// (including the untouched `stats.outliers` field).
pub(crate) fn empty_result(n: usize, stats: PipelineStats) -> P3cResult {
    P3cResult {
        clustering: Clustering::new(Vec::new(), (0..n).collect()),
        cores: Vec::new(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3c_datagen::{generate, SyntheticSpec};
    use p3c_eval::e4sc;

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

    #[test]
    fn p3cplus_recovers_planted_clusters() {
        let data = generate(&spec(3000, 3, 0.05, 11));
        let result = P3cPlus::new(P3cParams::default()).cluster(&data.dataset);
        assert_eq!(
            result.clustering.num_clusters(),
            3,
            "stats: {:?}",
            result.stats
        );
        let q = e4sc(&result.clustering, &data.ground_truth);
        assert!(q > 0.6, "E4SC = {q}");
    }

    #[test]
    fn light_recovers_planted_clusters_cleanly() {
        let data = generate(&spec(3000, 3, 0.1, 5));
        let result = P3cPlusLight::new(P3cParams::default()).cluster(&data.dataset);
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
    fn redundancy_filter_controls_core_count() {
        // The Figure 5 phenomenon: without the filter, overlap regions of
        // hidden clusters spawn extra cores; with it the count settles at
        // the number of hidden clusters.
        // Seed pinned against the generator's stream (`p3c_datagen::rng`).
        let data = generate(&spec(8000, 5, 0.2, 41));
        let with = P3cPlusLight::new(P3cParams::default()).cluster(&data.dataset);
        let without = P3cPlusLight::new(P3cParams {
            use_redundancy_filter: false,
            ..P3cParams::default()
        })
        .cluster(&data.dataset);
        assert!(with.stats.cores <= without.stats.cores);
        assert_eq!(with.stats.cores, 5, "with filter: {:?}", with.stats);
        assert!(
            without.stats.cores > 5,
            "without filter: {:?}",
            without.stats
        );
    }

    #[test]
    fn no_clusters_on_pure_noise() {
        // All-uniform data: every attribute passes the uniformity test and
        // no cores are generated.
        let rows: Vec<Vec<f64>> = (0..2000)
            .map(|i| {
                (0..8)
                    .map(|j| {
                        let x = ((i * 37 + j * 101) % 1999) as f64 / 1999.0;
                        (x * 7.13 + 0.31 * j as f64).fract()
                    })
                    .collect()
            })
            .collect();
        let ds = Dataset::from_rows(rows);
        let result = P3cPlus::new(P3cParams::default()).cluster(&ds);
        assert_eq!(
            result.clustering.num_clusters(),
            0,
            "stats: {:?}",
            result.stats
        );
        assert_eq!(result.clustering.outliers.len(), 2000);
    }

    #[test]
    fn every_point_is_clustered_or_outlier_exactly_once_in_full_variant() {
        let data = generate(&spec(2000, 3, 0.1, 9));
        let result = P3cPlus::new(P3cParams::default()).cluster(&data.dataset);
        let mut seen = vec![0usize; data.dataset.len()];
        for c in &result.clustering.clusters {
            for &p in &c.points {
                seen[p] += 1;
            }
        }
        for &o in &result.clustering.outliers {
            seen[o] += 1;
        }
        assert!(seen.iter().all(|&s| s == 1), "partition violated");
    }

    #[test]
    fn light_clusters_cover_their_points() {
        let data = generate(&spec(2000, 3, 0.05, 21));
        let result = P3cPlusLight::new(P3cParams::default()).cluster(&data.dataset);
        for cluster in &result.clustering.clusters {
            // Points must lie inside the tightened intervals on core attrs.
            for &p in &cluster.points {
                let row = data.dataset.row(p);
                for iv in &cluster.intervals {
                    if cluster.attributes.contains(&iv.attr) {
                        // AI-attr intervals are tightened over unique
                        // members only; core-attr intervals over all.
                        continue;
                    }
                    assert!(iv.contains(row));
                }
            }
        }
    }

    #[test]
    fn original_p3c_params_run_end_to_end() {
        // Seed pinned against the generator's stream (`p3c_datagen::rng`).
        let data = generate(&spec(2000, 3, 0.05, 21));
        let result = P3cPlus::new(P3cParams::original_p3c()).cluster(&data.dataset);
        // The original algorithm still finds clusters on easy data…
        assert!(result.clustering.num_clusters() >= 3);
    }

    #[test]
    fn exact_iqr_binning_end_to_end() {
        let data = generate(&spec(3000, 3, 0.05, 11));
        let result = P3cPlusLight::new(P3cParams {
            bin_rule: crate::config::BinRuleChoice::FreedmanDiaconisIqr,
            ..P3cParams::default()
        })
        .cluster(&data.dataset);
        assert_eq!(
            result.clustering.num_clusters(),
            3,
            "stats: {:?}",
            result.stats
        );
        let q = e4sc(&result.clustering, &data.ground_truth);
        assert!(q > 0.6, "E4SC = {q}");
        // Clustered attributes have small IQRs → more bins than the
        // simplified rule's uniform count.
        let simplified = p3c_stats::binning::freedman_diaconis_bins(3000);
        assert!(result.stats.bins > simplified, "bins {}", result.stats.bins);
    }

    #[test]
    fn iqr_bins_clamps() {
        assert_eq!(iqr_bins(1000, 0.0), 4 * 10);
        assert_eq!(iqr_bins(1000, 0.5), 10); // reduces to the simplified rule
        assert!(iqr_bins(1000, 0.01) <= 40);
        assert!(iqr_bins(1000, 0.9) >= 2);
    }

    #[test]
    fn stats_populated() {
        let data = generate(&spec(1500, 2, 0.0, 2));
        let result = P3cPlus::new(P3cParams::default()).cluster(&data.dataset);
        assert!(result.stats.bins > 0);
        assert!(result.stats.relevant_intervals > 0);
        assert!(result.stats.em_iterations > 0);
        assert_eq!(result.stats.cores, result.cores.len());
    }
}
