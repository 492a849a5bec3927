//! The serial P3C+ pipelines: full (EM + outlier detection) and Light.
//!
//! These drive the whole algorithm in-process; the MapReduce versions in
//! [`crate::mr`] reuse the same building blocks, replacing each data scan
//! with a job. The serial pipelines also power the per-partition work of
//! the BoW baseline.

use crate::chunk_median::{chunks, median_quartiles, ChunkQuartiles, MEDIAN_CHUNK_POINTS};
use crate::config::{BinRuleChoice, P3cParams};
use crate::cores::{
    attach_expected_supports, generate_cluster_cores_with, ClusterCore, CoreGenStats, LevelCounter,
    ScanCounter,
};
use crate::em::{em_phase, PoolRunner};
use crate::histogram::{build_histograms_columnar_threads, chunk_quartiles};
use crate::inspect::ClusterSummary;
use crate::outlier::{assign_clusters, detect_outliers};
use crate::redundancy::filter_redundant_proven;
use crate::relevance::relevant_intervals;
use crate::support::SupportIndex;
use crate::types::Signature;
use p3c_dataset::{split_assignment, Clustering, Dataset, ProjectedCluster};

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
        let (cores, mut stats, _) = shared_core_phase(data, &rows, &self.params);
        if cores.is_empty() {
            return empty_result(data.len(), stats);
        }

        // EM in the relevant subspace. The runner and its projected rows
        // are dropped with this statement, before assignment and outlier
        // detection project the rows again.
        let Ok(fit) = em_phase(
            &mut PoolRunner::new(&rows, self.params.threads),
            &cores,
            &self.params,
        );
        stats.em_iterations = fit.iterations;
        let arel = &fit.model.arel;
        let eval = fit.model.evaluator();
        let hard = assign_clusters(&eval, &rows);

        // Outlier detection.
        let (outlier, alpha) = (self.params.outlier, self.params.alpha_outlier);
        let threads = self.params.threads;
        let assignment = detect_outliers(&eval, &rows, &hard, outlier, alpha, arel.len(), threads);
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
        let (cores, mut stats, mut index) = shared_core_phase(data, &rows, &self.params);
        if cores.is_empty() {
            return empty_result(data.len(), stats);
        }

        let membership = light_membership_from_index(&mut index, &rows, &cores);
        drop(index);
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

/// Computes the Light membership mapping from the interval bitmaps of
/// `index` over `rows`, filling them first if they do not yet cover
/// every core interval. Per 64-row word it ANDs each core's interval
/// columns into the core's support-set word; word-parallel masks of the
/// rows in at least one and in at least two sets then give the members,
/// the unique members and the outliers. Batch Light and the incremental
/// service's full path both call it, each with the index its core
/// generation counted from.
pub(crate) fn light_membership_from_index(
    index: &mut SupportIndex,
    rows: &[&[f64]],
    cores: &[ClusterCore],
) -> LightMembership {
    let k = cores.len();
    let mut m = LightMembership {
        members: vec![Vec::new(); k],
        unique_members: vec![Vec::new(); k],
        outliers: Vec::new(),
    };
    let signatures: Vec<&Signature> = cores.iter().map(|c| &c.signature).collect();
    index.for_each_support_word(rows, &signatures, |first, valid, sets| {
        let (mut one, mut two) = (0u64, 0u64);
        for &set in sets {
            two |= one & set;
            one |= set;
        }
        for (c, &set) in sets.iter().enumerate() {
            push_rows(&mut m.members[c], first, set);
            push_rows(&mut m.unique_members[c], first, set & !two);
        }
        push_rows(&mut m.outliers, first, valid & !one);
    });
    m
}

/// Pushes `first + r` for every set bit `r` of `word`, in ascending order.
fn push_rows(ids: &mut Vec<usize>, first: usize, mut word: u64) {
    while word != 0 {
        ids.push(first + word.trailing_zeros() as usize);
        word &= word - 1;
    }
}

/// The Light membership mapping by one scan over the rows, classifying
/// each row on its own: the oracle [`light_membership_from_index`] is
/// tested against.
#[cfg(test)]
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
/// of the test oracle `light_membership`, and how the incremental
/// engine folds an appended delta block into maintained memberships.
/// Returns how many cores' support sets contain the row; `id` is now the
/// last entry of exactly those cores' member lists. Allocates nothing
/// beyond the pushes.
pub(crate) fn light_classify(
    row: &[f64],
    id: usize,
    cores: &[ClusterCore],
    m: &mut LightMembership,
) -> usize {
    let mut hits = 0;
    let mut only = 0;
    for (c, core) in cores.iter().enumerate() {
        if core.signature.contains(row) {
            m.members[c].push(id);
            hits += 1;
            only = c;
        }
    }
    match hits {
        0 => m.outliers.push(id),
        1 => m.unique_members[only].push(id),
        _ => {}
    }
    hits
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
/// generation still works on row views. Also hands back the counter's
/// interval bitmaps, filled over `rows` whenever a relevant interval was
/// found.
fn shared_core_phase(
    data: &Dataset,
    rows: &[&[f64]],
    params: &P3cParams,
) -> (Vec<ClusterCore>, PipelineStats, SupportIndex) {
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
    let Ok((cores, stats)) = core_phase_from_histograms(&hists, n, params, &mut counter);
    (cores, stats, counter.into_index())
}

/// Relevant intervals → cluster cores → redundancy filter → expected
/// supports, starting from already-built histograms and a
/// [`LevelCounter`]. Shared by the serial pipelines (scan counter over
/// the full row set), the MR pipelines (proving jobs) and the
/// incremental service engine (cached counter over maintained
/// supports): for equal histograms and equal counter answers, every
/// step below is a pure function, so the returned cores are identical —
/// the byte-identity contract of DESIGN.md §14.
pub(crate) fn core_phase_from_histograms<C: LevelCounter>(
    hists: &crate::histogram::AttributeHistograms,
    n: usize,
    params: &P3cParams,
    counter: &mut C,
) -> Result<(Vec<ClusterCore>, PipelineStats), C::Error> {
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
/// return a constant vector; the exact-IQR extension takes each
/// attribute's quartiles per [`MEDIAN_CHUNK_POINTS`]-row chunk and the
/// weighted median over chunks of q1 and of q3 (`chunk_median::median_quartiles`;
/// serially — the MR pipelines run the same chunks in a job).
pub fn bins_per_attribute_columnar(data: &Dataset, params: &P3cParams) -> Vec<usize> {
    let (n, d) = (data.len(), data.dim());
    match params.bin_rule {
        BinRuleChoice::Sturges | BinRuleChoice::FreedmanDiaconis => {
            vec![params.bin_rule.to_rule().num_bins(n).max(1); d]
        }
        BinRuleChoice::FreedmanDiaconisIqr => {
            let rows = data.row_refs();
            let mut column = Vec::with_capacity(MEDIAN_CHUNK_POINTS);
            (0..d)
                .map(|j| {
                    let quartiles: Vec<ChunkQuartiles> = chunks(&rows)
                        .filter_map(|chunk| chunk_quartiles(chunk, j, &mut column))
                        .collect();
                    let iqr = median_quartiles(&quartiles).map_or(0.5, |(q1, q3)| q3 - q1);
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
    use crate::types::Interval;
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

    /// A signature over attributes drawn from `0..bins.len()`, attribute
    /// `a` cut into `bins[a]` bins; sometimes empty.
    fn random_signature(g: &mut p3c_check::Gen, bins: &[usize]) -> Signature {
        let mut intervals = Vec::new();
        for (attr, &m) in bins.iter().enumerate() {
            if g.below(3) == 0 {
                let lo = g.below(m);
                let hi = lo + g.below(m - lo);
                intervals.push(Interval::new(attr, lo, hi, m));
            }
        }
        Signature::new(intervals)
    }

    /// `sig` narrowed on one interval or constrained on one more
    /// attribute: a signature whose support set lies inside `sig`'s.
    fn nested_in(g: &mut p3c_check::Gen, sig: &Signature, bins: &[usize]) -> Signature {
        let mut intervals = sig.intervals().to_vec();
        let free: Vec<usize> = (0..bins.len())
            .filter(|a| intervals.iter().all(|iv| iv.attr != *a))
            .collect();
        if !intervals.is_empty() && (free.is_empty() || g.below(2) == 0) {
            let at = g.below(intervals.len());
            let iv = &mut intervals[at];
            let lo = iv.bin_lo + g.below(iv.bin_hi - iv.bin_lo + 1);
            let hi = lo + g.below(iv.bin_hi - lo + 1);
            *iv = Interval::new(iv.attr, lo, hi, iv.bins);
        } else if !free.is_empty() {
            let attr = free[g.below(free.len())];
            let lo = g.below(bins[attr]);
            intervals.push(Interval::new(attr, lo, lo, bins[attr]));
        }
        Signature::new(intervals)
    }

    #[test]
    fn bitmap_membership_equals_the_per_row_oracle() {
        // Around the 64-row word and the counting block, then random.
        const SIZES: [usize; 8] = [0, 1, 63, 64, 65, 8191, 8192, 8193];
        let mut case = 0;
        p3c_check::cases(32, |g| {
            let n = SIZES
                .get(case)
                .copied()
                .unwrap_or_else(|| g.range(0..20_000));
            case += 1;
            let bins: Vec<usize> = (0..g.range(1usize..6)).map(|_| g.range(1..12)).collect();
            let d = bins.len();
            // Half the values sit exactly on a bin edge k/m, 0.0 and 1.0
            // included.
            let data: Vec<f64> = (0..n * d)
                .map(|i| match g.below(2) {
                    0 => {
                        let m = bins[i % d];
                        g.below(m + 1) as f64 / m as f64
                    }
                    _ => g.unit(),
                })
                .collect();
            let rows: Vec<&[f64]> = data.chunks(d).collect();
            let mut signatures: Vec<Signature> = Vec::new();
            for _ in 0..g.below(6) {
                let sig = match signatures.len() {
                    0 => random_signature(g, &bins),
                    len => match g.below(3) {
                        0 => random_signature(g, &bins),
                        _ => {
                            let outer = g.below(len);
                            nested_in(g, &signatures[outer], &bins)
                        }
                    },
                };
                signatures.push(sig);
            }
            let cores: Vec<ClusterCore> = signatures
                .into_iter()
                .map(|signature| ClusterCore {
                    signature,
                    support: 0.0,
                    expected: 0.0,
                })
                .collect();
            let oracle = light_membership(&rows, &cores);
            let mut fresh = SupportIndex::default();
            assert_eq!(
                light_membership_from_index(&mut fresh, &rows, &cores),
                oracle,
                "n={n} bins={bins:?} cores={cores:?}"
            );
            // An index that has already counted a level, as batch Light's
            // has, gives the same lists.
            let mut counted = SupportIndex::default();
            let singletons: Vec<Signature> = cores
                .iter()
                .flat_map(|c| {
                    c.signature
                        .intervals()
                        .iter()
                        .copied()
                        .map(Signature::singleton)
                })
                .collect();
            counted.count(&rows, &singletons);
            assert_eq!(
                light_membership_from_index(&mut counted, &rows, &cores),
                oracle
            );
        });
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
