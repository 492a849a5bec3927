//! The Section 7.1 synthetic projected-cluster generator.
//!
//! Paper parameters reproduced here:
//!
//! * data dimensionality `d = 50` (default; configurable),
//! * number of hidden clusters ∈ {3, 5, 7},
//! * noise percentage ∈ {0, 5, 10, 20} of the database size,
//! * cluster dimensionality between 2 and 10,
//! * relevant interval widths between 0.1 and 0.3,
//! * Gaussian distribution inside each relevant interval (the paper's
//!   "σ = 1" Gaussian scaled to the interval: we use σ = width/6 and clamp
//!   to the interval so the true signature exactly bounds the cluster),
//! * uniform distribution on irrelevant attributes and for noise points,
//! * at least two clusters overlap on a shared relevant attribute.

use crate::rng::Rng;
use p3c_dataset::{AttrInterval, Clustering, Dataset, ProjectedCluster};
use std::collections::BTreeSet;

/// Specification of one synthetic dataset.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// Total number of points (clusters + noise).
    pub n: usize,
    /// Data dimensionality (paper: 50).
    pub d: usize,
    /// Number of hidden clusters (paper: 3, 5 or 7).
    pub num_clusters: usize,
    /// Fraction of `n` that is uniform noise (paper: 0.0–0.2).
    pub noise_fraction: f64,
    /// Minimum cluster dimensionality (paper: 2).
    pub min_cluster_dims: usize,
    /// Maximum cluster dimensionality (paper: 10).
    pub max_cluster_dims: usize,
    /// Minimum relevant-interval width (paper: 0.1).
    pub min_width: f64,
    /// Maximum relevant-interval width (paper: 0.3).
    pub max_width: f64,
    /// Guarantee that clusters 0 and 1 overlap on a shared attribute
    /// (the paper: "each generated data set contains at least two clusters
    /// that overlap").
    pub force_overlap: bool,
    /// RNG seed — everything about the dataset is a pure function of the
    /// spec, including this seed.
    pub seed: u64,
}

impl Default for SyntheticSpec {
    fn default() -> Self {
        Self {
            n: 10_000,
            d: 50,
            num_clusters: 5,
            noise_fraction: 0.1,
            min_cluster_dims: 2,
            max_cluster_dims: 10,
            min_width: 0.1,
            max_width: 0.3,
            force_overlap: true,
            seed: 0,
        }
    }
}

impl SyntheticSpec {
    /// Convenience constructor for the paper's main grid: size, cluster
    /// count, noise level.
    pub fn grid(n: usize, num_clusters: usize, noise_fraction: f64, seed: u64) -> Self {
        Self {
            n,
            num_clusters,
            noise_fraction,
            seed,
            ..Self::default()
        }
    }
}

/// A generated dataset with its ground truth.
#[derive(Debug, Clone)]
pub struct GeneratedData {
    pub dataset: Dataset,
    /// The hidden clusters as true signatures (Definition 4: the smallest
    /// intervals containing all member points on the relevant attributes).
    pub ground_truth: Clustering,
    /// Per-point label: cluster index, or `-1` for noise.
    pub labels: Vec<i64>,
}

/// Hidden-cluster geometry decided before points are drawn.
struct ClusterPlan {
    attrs: Vec<usize>,
    intervals: Vec<(f64, f64)>, // (lo, hi) per attr, same order as attrs
    size: usize,
}

/// Generates a dataset according to the spec.
///
/// ```
/// use p3c_datagen::{generate, SyntheticSpec};
///
/// let data = generate(&SyntheticSpec {
///     n: 1_000, d: 10, num_clusters: 2, noise_fraction: 0.1,
///     max_cluster_dims: 4, seed: 7, ..SyntheticSpec::default()
/// });
/// assert_eq!(data.dataset.len(), 1_000);
/// assert_eq!(data.ground_truth.num_clusters(), 2);
/// // Every cluster member lies inside its true signature.
/// for c in &data.ground_truth.clusters {
///     assert!(c.points.iter().all(|&p| c.covers(data.dataset.row(p))));
/// }
/// ```
///
/// # Panics
/// Panics if the spec is inconsistent (zero clusters with cluster points,
/// more cluster dims than data dims, widths outside `(0,1]`).
pub fn generate(spec: &SyntheticSpec) -> GeneratedData {
    assert!(spec.d >= 1, "need at least one dimension");
    assert!(spec.num_clusters >= 1, "need at least one cluster");
    assert!(
        (0.0..=1.0).contains(&spec.noise_fraction),
        "noise fraction in [0,1]"
    );
    assert!(spec.min_cluster_dims >= 1 && spec.min_cluster_dims <= spec.max_cluster_dims);
    assert!(
        spec.max_cluster_dims <= spec.d,
        "cluster dims exceed data dims"
    );
    assert!(spec.min_width > 0.0 && spec.max_width <= 1.0 && spec.min_width <= spec.max_width);

    let mut rng = Rng::seed_from_u64(spec.seed);
    let noise_count = (spec.n as f64 * spec.noise_fraction).round() as usize;
    let cluster_total = spec.n - noise_count;

    let plans = plan_clusters(spec, cluster_total, &mut rng);

    // Draw the points cluster-block by cluster-block straight into one
    // flat row-major buffer (the columnar data plane's native layout),
    // then shuffle a (label, source-row) permutation so input splits do
    // not align with clusters. Shuffling indices instead of owned rows
    // consumes the identical Fisher–Yates randomness, so the generated
    // data is byte-for-byte what the row-vector path produced.
    let d = spec.d;
    let mut drawn: Vec<f64> = Vec::with_capacity(spec.n * d);
    let mut order: Vec<(i64, usize)> = Vec::with_capacity(spec.n);
    for (ci, plan) in plans.iter().enumerate() {
        for _ in 0..plan.size {
            order.push((ci as i64, order.len()));
            draw_member_into(plan, d, &mut rng, &mut drawn);
        }
    }
    for _ in 0..noise_count {
        order.push((-1, order.len()));
        drawn.extend((0..d).map(|_| rng.f64()));
    }
    rng.shuffle(&mut order);

    let labels: Vec<i64> = order.iter().map(|(l, _)| *l).collect();
    let mut data = Vec::with_capacity(spec.n * d);
    for &(_, src) in &order {
        data.extend_from_slice(&drawn[src * d..(src + 1) * d]);
    }
    let dataset = Dataset::new(spec.n, d, data);

    // Ground truth: the *true signature* of each hidden cluster — the
    // tightest interval actually containing the drawn members.
    let mut clusters = Vec::with_capacity(plans.len());
    for (ci, plan) in plans.iter().enumerate() {
        let ids: Vec<usize> = labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == ci as i64)
            .map(|(i, _)| i)
            .collect();
        let mut intervals = Vec::with_capacity(plan.attrs.len());
        for &a in &plan.attrs {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &id in &ids {
                let v = dataset.get(id, a);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if ids.is_empty() {
                lo = 0.0;
                hi = 0.0;
            }
            intervals.push(AttrInterval::new(a, lo, hi));
        }
        let attrs: BTreeSet<usize> = plan.attrs.iter().copied().collect();
        clusters.push(ProjectedCluster::new(ids, attrs, intervals));
    }
    let outliers: Vec<usize> = labels
        .iter()
        .enumerate()
        .filter(|(_, &l)| l == -1)
        .map(|(i, _)| i)
        .collect();

    GeneratedData {
        dataset,
        ground_truth: Clustering::new(clusters, outliers),
        labels,
    }
}

/// Decides attribute subsets, interval geometry and sizes for all clusters.
fn plan_clusters(spec: &SyntheticSpec, cluster_total: usize, rng: &mut Rng) -> Vec<ClusterPlan> {
    let k = spec.num_clusters;
    let base = cluster_total / k;
    let extra = cluster_total % k;
    let mut plans = Vec::with_capacity(k);
    for ci in 0..k {
        let dims = rng.usize_in(spec.min_cluster_dims, spec.max_cluster_dims.min(spec.d));
        let mut all: Vec<usize> = (0..spec.d).collect();
        rng.shuffle(&mut all);
        let mut attrs: Vec<usize> = all.into_iter().take(dims).collect();
        if spec.force_overlap && ci < 2 && !attrs.contains(&0) {
            // Clusters 0 and 1 share attribute 0 with overlapping intervals.
            attrs[0] = 0;
        }
        attrs.sort_unstable();
        attrs.dedup();
        let mut intervals = Vec::with_capacity(attrs.len());
        for &a in &attrs {
            let width = rng.f64_in(spec.min_width, spec.max_width);
            let lo = if spec.force_overlap && a == 0 && ci < 2 {
                // Anchor both overlap clusters near the same region so
                // their attribute-0 intervals intersect.
                (0.4 + 0.05 * ci as f64).min(1.0 - width)
            } else {
                rng.f64_in(0.0, 1.0 - width)
            };
            intervals.push((lo, lo + width));
        }
        let size = base + usize::from(ci < extra);
        plans.push(ClusterPlan {
            attrs,
            intervals,
            size,
        });
    }
    plans
}

/// Draws one member of a cluster into the tail of a flat row-major
/// buffer: Gaussian inside relevant intervals (σ = width/6, clamped to
/// the interval), uniform elsewhere. The RNG call order — `d` uniforms
/// first, then one Gaussian per relevant attribute — matches the old
/// row-vector generator exactly, keeping seeded output stable.
fn draw_member_into(plan: &ClusterPlan, d: usize, rng: &mut Rng, out: &mut Vec<f64>) {
    let start = out.len();
    out.extend((0..d).map(|_| rng.f64()));
    let row = &mut out[start..];
    for (&a, &(lo, hi)) in plan.attrs.iter().zip(&plan.intervals) {
        let center = 0.5 * (lo + hi);
        let sigma = (hi - lo) / 6.0;
        row[a] = rng.normal(center, sigma).clamp(lo, hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SyntheticSpec {
        SyntheticSpec {
            n: 1000,
            d: 12,
            num_clusters: 3,
            noise_fraction: 0.1,
            max_cluster_dims: 6,
            seed: 7,
            ..SyntheticSpec::default()
        }
    }

    #[test]
    fn shape_and_counts() {
        let spec = small_spec();
        let g = generate(&spec);
        assert_eq!(g.dataset.len(), 1000);
        assert_eq!(g.dataset.dim(), 12);
        assert_eq!(g.labels.len(), 1000);
        assert_eq!(g.ground_truth.num_clusters(), 3);
        let noise = g.labels.iter().filter(|&&l| l == -1).count();
        assert_eq!(noise, 100);
        let clustered: usize = g.ground_truth.clusters.iter().map(|c| c.size()).sum();
        assert_eq!(clustered + noise, 1000);
    }

    #[test]
    fn points_lie_in_unit_cube() {
        let g = generate(&small_spec());
        assert!(g.dataset.is_normalized());
    }

    #[test]
    fn members_lie_inside_true_signature() {
        let g = generate(&small_spec());
        for cluster in &g.ground_truth.clusters {
            for &id in &cluster.points {
                assert!(
                    cluster.covers(g.dataset.row(id)),
                    "point {id} escapes its signature"
                );
            }
        }
    }

    #[test]
    fn true_signature_is_tight() {
        // The interval bounds must be attained by actual members
        // (Definition 4: smallest intervals containing all points).
        let g = generate(&small_spec());
        for cluster in &g.ground_truth.clusters {
            for iv in &cluster.intervals {
                let lo_hit = cluster
                    .points
                    .iter()
                    .any(|&id| (g.dataset.get(id, iv.attr) - iv.lo).abs() < 1e-12);
                let hi_hit = cluster
                    .points
                    .iter()
                    .any(|&id| (g.dataset.get(id, iv.attr) - iv.hi).abs() < 1e-12);
                assert!(lo_hit && hi_hit, "interval on {} not tight", iv.attr);
            }
        }
    }

    #[test]
    fn cluster_dimensionalities_respect_bounds() {
        let spec = small_spec();
        let g = generate(&spec);
        for c in &g.ground_truth.clusters {
            assert!(c.attributes.len() >= spec.min_cluster_dims);
            assert!(c.attributes.len() <= spec.max_cluster_dims);
        }
    }

    #[test]
    fn interval_widths_in_declared_range() {
        // True signatures are at most as wide as the planned interval and
        // (for reasonably big clusters) nearly as wide.
        let spec = small_spec();
        let g = generate(&spec);
        for c in &g.ground_truth.clusters {
            for iv in &c.intervals {
                assert!(iv.width() <= spec.max_width + 1e-9, "width {}", iv.width());
                assert!(iv.width() > 0.0);
            }
        }
    }

    #[test]
    fn forced_overlap_exists() {
        let g = generate(&small_spec());
        let c0 = &g.ground_truth.clusters[0];
        let c1 = &g.ground_truth.clusters[1];
        let shared: Vec<usize> = c0
            .attributes
            .intersection(&c1.attributes)
            .copied()
            .collect();
        assert!(!shared.is_empty(), "overlap clusters share no attribute");
        let any_overlap = shared.iter().any(|&a| {
            let i0 = c0.interval_on(a).unwrap();
            let i1 = c1.interval_on(a).unwrap();
            i0.overlaps(i1)
        });
        assert!(any_overlap, "shared attributes but disjoint intervals");
    }

    #[test]
    fn determinism_and_seed_sensitivity() {
        let spec = small_spec();
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.labels, b.labels);
        let c = generate(&SyntheticSpec { seed: 8, ..spec });
        assert_ne!(a.dataset, c.dataset);
    }

    #[test]
    fn zero_noise() {
        let spec = SyntheticSpec {
            noise_fraction: 0.0,
            ..small_spec()
        };
        let g = generate(&spec);
        assert!(g.ground_truth.outliers.is_empty());
        assert!(g.labels.iter().all(|&l| l >= 0));
    }

    #[test]
    fn labels_match_ground_truth_membership() {
        let g = generate(&small_spec());
        for (ci, cluster) in g.ground_truth.clusters.iter().enumerate() {
            for &id in &cluster.points {
                assert_eq!(g.labels[id], ci as i64);
            }
        }
        for &id in &g.ground_truth.outliers {
            assert_eq!(g.labels[id], -1);
        }
    }

    #[test]
    fn rows_are_shuffled() {
        // The first points should not all belong to cluster 0.
        let g = generate(&SyntheticSpec {
            n: 3000,
            ..small_spec()
        });
        let first: BTreeSet<i64> = g.labels.iter().take(100).copied().collect();
        assert!(first.len() > 1, "rows appear unshuffled");
    }

    use std::collections::BTreeSet;
}
