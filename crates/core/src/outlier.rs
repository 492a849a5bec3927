//! Outlier detection after EM (paper Sections 4.2.2 and 5.5).
//!
//! A member `x` of cluster `C` is an outlier iff its squared Mahalanobis
//! distance to `C` exceeds the χ² critical value with `|A_rel|` degrees of
//! freedom at `α = 0.001`. Two estimators for `(μ_C, Σ_C)`:
//!
//! * **naive** — straight from the EM Gaussians (suffers from masking:
//!   outliers inflate the covariance that is supposed to expose them);
//! * **MVB** — minimum volume ball: center = dimension-wise median of the
//!   cluster, radius = median distance to the center; mean/covariance are
//!   then computed from the points *inside the ball* only (the paper's
//!   tractable approximation of the minimum-volume-ellipsoid estimator).

use crate::em::{DensityEvaluator, EstepScratch};
use p3c_linalg::{Cholesky, CovarianceAccumulator, LaneScratch};
use p3c_stats::descriptive::{dimensionwise_median, median_in_place};
use p3c_stats::ChiSquared;

/// Per-point result: the EM cluster (index) or `-1` for outliers.
pub type Assignment = Vec<i64>;

/// The assign scan over one input split (serially: the whole input):
/// projects every row into one contiguous `A_rel` block and
/// hard-assigns each point to its maximum-density component
/// ([`DensityEvaluator::assign_block_lanes`]). Returns the projected
/// block with the assignment so a following
/// [`cluster_distances`] scan does not project again.
pub(crate) fn project_and_assign(
    eval: &DensityEvaluator,
    rows: &[&[f64]],
) -> (Vec<f64>, Vec<usize>) {
    let proj = eval.project_block(rows);
    let mut assignment = Vec::new();
    eval.assign_block_lanes(&proj, &mut EstepScratch::new(), &mut assignment);
    (proj, assignment)
}

/// Hard-assigns every row to its maximum-density component.
pub fn assign_clusters(eval: &DensityEvaluator, rows: &[&[f64]]) -> Vec<usize> {
    project_and_assign(eval, rows).1
}

/// A cluster's Mahalanobis geometry: mean and covariance factor.
pub(crate) type Geometry<'g> = (&'g [f64], &'g Cholesky);

/// The members of every cluster of a split, gathered once: per cluster
/// `c < k`, the indices `i` with `assignment[i] == c` in point order,
/// and their `A_rel` coordinates packed into one contiguous row-major
/// block — the input form of [`Cholesky::mahalanobis_sq_block`]. The
/// robust estimators read their clusters from the same blocks the
/// distance scan scores.
pub(crate) struct Members {
    d: usize,
    points: usize,
    idx: Vec<Vec<usize>>,
    blocks: Vec<Vec<f64>>,
}

impl Members {
    /// Groups the `assignment.len()` points into `k` clusters in one
    /// pass; `gather(i, buf)` appends point `i`'s `d` coordinates.
    pub(crate) fn gather(
        assignment: &[usize],
        k: usize,
        d: usize,
        mut gather: impl FnMut(usize, &mut Vec<f64>),
    ) -> Self {
        let mut idx = vec![Vec::new(); k];
        let mut blocks = vec![Vec::new(); k];
        for (i, &c) in assignment.iter().enumerate() {
            idx[c].push(i);
            gather(i, &mut blocks[c]);
        }
        Self {
            d,
            points: assignment.len(),
            idx,
            blocks,
        }
    }

    /// Cluster `c`'s members as one row-major block.
    pub(crate) fn block(&self, c: usize) -> &[f64] {
        &self.blocks[c]
    }

    /// Cluster `c`'s members, one `A_rel` point each.
    pub(crate) fn points(&self, c: usize) -> impl Iterator<Item = &[f64]> {
        self.blocks[c].chunks_exact(self.d)
    }

    /// The grouped cluster-distance scan: the squared Mahalanobis
    /// distance of every point to the geometry of *its own* cluster, in
    /// point order. Each cluster's block is scored through
    /// [`Cholesky::mahalanobis_sq_block`] and scattered back; per point
    /// that is the float operation sequence of
    /// [`Cholesky::mahalanobis_sq_scratch`]. Clusters without a geometry
    /// (`None`: a degenerate robust estimate) score `NEG_INFINITY`,
    /// which no threshold exceeds, so their points are never outliers.
    pub(crate) fn distances<'g>(
        &self,
        geometry: impl Fn(usize) -> Option<Geometry<'g>>,
    ) -> Vec<f64> {
        let mut dists = vec![f64::NEG_INFINITY; self.points];
        let mut out = Vec::new();
        let mut scratch = LaneScratch::new();
        for (c, (idx, block)) in self.idx.iter().zip(&self.blocks).enumerate() {
            let Some((mean, chol)) = geometry(c) else {
                continue;
            };
            chol.mahalanobis_sq_block(block, mean, &mut scratch, &mut out);
            for (&i, &d2) in idx.iter().zip(&out) {
                dists[i] = d2;
            }
        }
        dists
    }
}

/// Every row's cluster members, projected into `A_rel` once.
fn project_members(eval: &DensityEvaluator, rows: &[&[f64]], assignment: &[usize]) -> Members {
    Members::gather(
        assignment,
        eval.num_components(),
        eval.arel_len(),
        |i, buf| eval.project_append(rows[i], buf),
    )
}

/// Final verdicts: a point whose distance exceeds `crit` is an outlier
/// (`-1`), every other point keeps its cluster.
pub(crate) fn verdicts(assignment: &[usize], dists: &[f64], crit: f64) -> Assignment {
    assignment
        .iter()
        .zip(dists)
        .map(|(&c, &d2)| if d2 > crit { -1 } else { c as i64 })
        .collect()
}

/// Flags every member whose distance to its cluster's geometry exceeds
/// the χ² critical value at `alpha`.
fn detect<'g>(
    members: &Members,
    assignment: &[usize],
    geometry: impl Fn(usize) -> Option<Geometry<'g>>,
    alpha: f64,
    arel_len: usize,
) -> Assignment {
    let crit = ChiSquared::new(arel_len.max(1) as f64).critical_value(alpha);
    verdicts(assignment, &members.distances(geometry), crit)
}

/// Naive outlier detection: Mahalanobis against the EM parameters.
pub fn detect_outliers_naive(
    eval: &DensityEvaluator,
    rows: &[&[f64]],
    assignment: &[usize],
    alpha: f64,
    arel_len: usize,
) -> Assignment {
    let members = project_members(eval, rows, assignment);
    let geometry = |c| Some(eval.geometry(c));
    detect(&members, assignment, geometry, alpha, arel_len)
}

/// The MVB (minimum volume ball) statistics of one cluster, in `A_rel`
/// coordinates.
#[derive(Debug, Clone)]
pub struct MvbStats {
    /// Ball center in `A_rel` coordinates.
    pub center: Vec<f64>,
    /// Ball radius.
    pub radius: f64,
}

/// Computes the MVB of a set of projected points: dimension-wise median
/// center and median distance radius. `None` for empty input.
pub fn mvb_of(points: &[&[f64]]) -> Option<MvbStats> {
    let center = dimensionwise_median(points)?;
    let mut dists: Vec<f64> = points
        .iter()
        .map(|p| p3c_linalg::dist(p, &center))
        .collect();
    let radius = median_in_place(&mut dists);
    Some(MvbStats { center, radius })
}

/// Robust per-cluster mean/covariance from the points inside each
/// cluster's MVB; clusters are given by `assignment` (indices into
/// `0..k`). Returns one `(mean, Cholesky)` per cluster, or `None` entries
/// for degenerate clusters (fallback: treat all its points as inliers).
pub fn robust_cluster_estimates(
    eval: &DensityEvaluator,
    rows: &[&[f64]],
    assignment: &[usize],
    k: usize,
) -> Vec<Option<(Vec<f64>, Cholesky)>> {
    let members = Members::gather(assignment, k, eval.arel_len(), |i, buf| {
        eval.project_append(rows[i], buf)
    });
    mvb_estimates(&members)
}

/// The MVB estimate of each cluster of `members`: the moments of the
/// points inside the cluster's ball.
fn mvb_estimates(members: &Members) -> Vec<Option<(Vec<f64>, Cholesky)>> {
    (0..members.blocks.len())
        .map(|c| {
            let pts: Vec<&[f64]> = members.points(c).collect();
            let mvb = mvb_of(&pts)?;
            let mut acc = CovarianceAccumulator::new(mvb.center.len());
            for p in pts {
                if p3c_linalg::dist(p, &mvb.center) <= mvb.radius + 1e-12 {
                    acc.push(p, 1.0);
                }
            }
            fit_geometry(&acc)
        })
        .collect()
}

/// The `(mean, Cholesky)` geometry of a robust subset's moments
/// (unbiased covariance, ridged); `None` when they are degenerate.
pub(crate) fn fit_geometry(acc: &CovarianceAccumulator) -> Option<(Vec<f64>, Cholesky)> {
    let mean = acc.mean()?;
    let mut cov = acc.covariance()?;
    cov.add_ridge(1e-9);
    let chol = Cholesky::new_regularized(&cov)?;
    Some((mean, chol))
}

/// One MCD concentration step (FastMCD's C-step): fit mean/covariance on
/// the current subset, then keep the `h` points of the cluster with the
/// smallest Mahalanobis distances under that fit. Iterating can only
/// shrink the covariance determinant, so a few steps concentrate the
/// estimate onto the densest half of the cluster.
///
/// `block` holds the points row-major, `d` coordinates apiece. Returns
/// robust `(mean, Cholesky)` estimates, or `None` for degenerate inputs
/// (fewer than `d + 2` points).
pub fn mcd_estimate(
    block: &[f64],
    d: usize,
    h_fraction: f64,
    max_steps: usize,
) -> Option<(Vec<f64>, Cholesky)> {
    let n = block.len().checked_div(d).unwrap_or(0);
    if n < d + 2 {
        return None;
    }
    let point = |i: usize| &block[i * d..(i + 1) * d];
    let h = ((n as f64 * h_fraction).ceil() as usize).clamp(d + 1, n);
    // Start from the full set.
    let mut subset: Vec<usize> = (0..n).collect();
    let mut current: Option<(Vec<f64>, Cholesky)> = None;
    let (mut lanes, mut scores) = (LaneScratch::new(), Vec::new());
    for _ in 0..max_steps.max(1) {
        let mut acc = CovarianceAccumulator::new(d);
        for &i in &subset {
            acc.push(point(i), 1.0);
        }
        let (mean, chol) = fit_geometry(&acc)?;
        // Order all cluster points by Mahalanobis distance; keep h.
        chol.mahalanobis_sq_block(block, &mean, &mut lanes, &mut scores);
        let mut dists: Vec<(f64, usize)> = scores.iter().copied().zip(0..n).collect();
        dists.sort_by(|a, b| a.0.total_cmp(&b.0));
        let next: Vec<usize> = dists.iter().take(h).map(|&(_, i)| i).collect();
        let converged = {
            let mut a = subset.clone();
            let mut b = next.clone();
            a.sort_unstable();
            b.sort_unstable();
            a == b
        };
        current = Some((mean, chol));
        subset = next;
        if converged {
            break;
        }
    }
    // Final fit on the concentrated subset.
    let mut acc = CovarianceAccumulator::new(d);
    for &i in &subset {
        acc.push(point(i), 1.0);
    }
    let mean = acc.mean()?;
    let mut cov = acc.covariance()?;
    cov.add_ridge(1e-9);
    match Cholesky::new_regularized(&cov) {
        Some(chol) => Some((mean, chol)),
        None => current,
    }
}

/// A robust per-cluster `(mean, Cholesky)` estimate as a scan geometry;
/// degenerate clusters (`None`) keep all their points.
pub(crate) fn robust_geometry(
    estimates: &[Option<(Vec<f64>, Cholesky)>],
    c: usize,
) -> Option<Geometry<'_>> {
    estimates[c].as_ref().map(|(mean, chol)| (&mean[..], chol))
}

/// MCD-based outlier detection (extension; see [`mcd_estimate`]).
pub fn detect_outliers_mcd(
    eval: &DensityEvaluator,
    rows: &[&[f64]],
    assignment: &[usize],
    alpha: f64,
    arel_len: usize,
) -> Assignment {
    let members = project_members(eval, rows, assignment);
    let estimates: Vec<Option<(Vec<f64>, Cholesky)>> = (0..eval.num_components())
        .map(|c| mcd_estimate(members.block(c), eval.arel_len(), 0.5, 4))
        .collect();
    let geometry = |c| robust_geometry(&estimates, c);
    detect(&members, assignment, geometry, alpha, arel_len)
}

/// MVB-based outlier detection.
pub fn detect_outliers_mvb(
    eval: &DensityEvaluator,
    rows: &[&[f64]],
    assignment: &[usize],
    alpha: f64,
    arel_len: usize,
) -> Assignment {
    let members = project_members(eval, rows, assignment);
    let estimates = mvb_estimates(&members);
    let geometry = |c| robust_geometry(&estimates, c);
    detect(&members, assignment, geometry, alpha, arel_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em::{Component, MixtureModel};
    use p3c_linalg::Matrix;

    /// One tight Gaussian-ish cluster at (0.5, 0.5) plus planted outliers.
    fn rows_with_outliers() -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        for i in 0..200 {
            let t = i as f64 / 200.0;
            rows.push(vec![0.45 + 0.1 * t, 0.55 - 0.1 * t]);
        }
        // Planted far-away outliers.
        rows.push(vec![0.0, 1.0]);
        rows.push(vec![1.0, 0.0]);
        rows
    }

    fn single_component_model() -> MixtureModel {
        let mut cov = Matrix::identity(2);
        cov[(0, 0)] = 0.001;
        cov[(1, 1)] = 0.001;
        MixtureModel {
            arel: vec![0, 1],
            components: vec![Component {
                mean: vec![0.5, 0.5],
                cov,
                weight: 1.0,
            }],
        }
    }

    #[test]
    fn naive_detects_planted_outliers() {
        let data = rows_with_outliers();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let eval = single_component_model().evaluator();
        let assignment = assign_clusters(&eval, &rows);
        let result = detect_outliers_naive(&eval, &rows, &assignment, 0.001, 2);
        assert_eq!(result[200], -1);
        assert_eq!(result[201], -1);
        // The bulk must remain members.
        let inliers = result.iter().filter(|&&a| a == 0).count();
        assert!(inliers >= 195, "only {inliers} inliers");
    }

    #[test]
    fn mvb_detects_planted_outliers() {
        let data = rows_with_outliers();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let eval = single_component_model().evaluator();
        let assignment = assign_clusters(&eval, &rows);
        let result = detect_outliers_mvb(&eval, &rows, &assignment, 0.001, 2);
        assert_eq!(result[200], -1);
        assert_eq!(result[201], -1);
        let inliers = result.iter().filter(|&&a| a == 0).count();
        assert!(inliers >= 180, "only {inliers} inliers");
    }

    #[test]
    fn mvb_resists_masking_better_than_naive() {
        // Heavy contamination: 30% of points far away, inflating the naive
        // covariance so much that the contaminated region gets masked.
        let mut data = Vec::new();
        for i in 0..140 {
            let t = i as f64 / 140.0;
            data.push(vec![0.48 + 0.04 * t, 0.52 - 0.04 * t]);
        }
        for i in 0..60 {
            let t = i as f64 / 60.0;
            data.push(vec![0.9 + 0.1 * t * 0.5, 0.05 + 0.1 * t * 0.5]);
        }
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        // A naive full-sample estimate (what EM would deliver here).
        let mut acc = CovarianceAccumulator::new(2);
        for r in &rows {
            acc.push(r, 1.0);
        }
        let model = MixtureModel {
            arel: vec![0, 1],
            components: vec![Component {
                mean: acc.mean().unwrap(),
                cov: acc.covariance().unwrap(),
                weight: 1.0,
            }],
        };
        let eval = model.evaluator();
        let assignment = vec![0usize; rows.len()];
        let naive = detect_outliers_naive(&eval, &rows, &assignment, 0.001, 2);
        let mvb = detect_outliers_mvb(&eval, &rows, &assignment, 0.001, 2);
        let naive_caught = naive[140..].iter().filter(|&&a| a == -1).count();
        let mvb_caught = mvb[140..].iter().filter(|&&a| a == -1).count();
        assert!(
            mvb_caught > naive_caught,
            "MVB caught {mvb_caught}, naive caught {naive_caught}"
        );
        assert!(mvb_caught >= 55, "MVB caught only {mvb_caught}/60");
    }

    #[test]
    fn mcd_detects_planted_outliers() {
        let data = rows_with_outliers();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let eval = single_component_model().evaluator();
        let assignment = assign_clusters(&eval, &rows);
        let result = detect_outliers_mcd(&eval, &rows, &assignment, 0.001, 2);
        assert_eq!(result[200], -1);
        assert_eq!(result[201], -1);
        let inliers = result.iter().filter(|&&a| a == 0).count();
        assert!(inliers >= 180, "only {inliers} inliers");
    }

    #[test]
    fn mcd_resists_masking_like_mvb() {
        // Same heavy-contamination setup as the MVB masking test.
        let mut data = Vec::new();
        for i in 0..140 {
            let t = i as f64 / 140.0;
            data.push(vec![0.48 + 0.04 * t, 0.52 - 0.04 * t]);
        }
        for i in 0..60 {
            let t = i as f64 / 60.0;
            data.push(vec![0.9 + 0.05 * t, 0.05 + 0.05 * t]);
        }
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let mut acc = CovarianceAccumulator::new(2);
        for r in &rows {
            acc.push(r, 1.0);
        }
        let model = MixtureModel {
            arel: vec![0, 1],
            components: vec![Component {
                mean: acc.mean().unwrap(),
                cov: acc.covariance().unwrap(),
                weight: 1.0,
            }],
        };
        let eval = model.evaluator();
        let assignment = vec![0usize; rows.len()];
        let naive = detect_outliers_naive(&eval, &rows, &assignment, 0.001, 2);
        let mcd = detect_outliers_mcd(&eval, &rows, &assignment, 0.001, 2);
        let naive_caught = naive[140..].iter().filter(|&&a| a == -1).count();
        let mcd_caught = mcd[140..].iter().filter(|&&a| a == -1).count();
        assert!(
            mcd_caught > naive_caught,
            "MCD {mcd_caught} vs naive {naive_caught}"
        );
        assert!(mcd_caught >= 55, "MCD caught only {mcd_caught}/60");
    }

    #[test]
    fn mcd_estimate_concentrates_on_bulk() {
        // 80% tight bulk at (0,0), 20% contamination at (10,10): the MCD
        // mean must sit on the bulk, unlike the plain mean.
        let mut pts: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![(i % 9) as f64 * 0.01, (i % 7) as f64 * 0.01])
            .collect();
        for i in 0..20 {
            pts.push(vec![10.0 + (i % 3) as f64 * 0.01, 10.0]);
        }
        let block: Vec<f64> = pts.concat();
        let (mean, _) = mcd_estimate(&block, 2, 0.5, 4).unwrap();
        assert!(mean[0] < 0.5, "MCD mean pulled to contamination: {mean:?}");
        assert!(mean[1] < 0.5);
    }

    #[test]
    fn mcd_estimate_degenerate_inputs() {
        assert!(mcd_estimate(&[], 2, 0.5, 3).is_none());
        let two = [0.0, 0.0, 1.0, 1.0];
        assert!(
            mcd_estimate(&two, 2, 0.5, 3).is_none(),
            "n < d + 2 must fail"
        );
    }

    #[test]
    fn mvb_stats_are_medians() {
        let pts: Vec<&[f64]> = vec![
            &[0.0, 0.0],
            &[1.0, 0.0],
            &[2.0, 0.0],
            &[3.0, 0.0],
            &[100.0, 0.0],
        ];
        let mvb = mvb_of(&pts).unwrap();
        assert_eq!(mvb.center, vec![2.0, 0.0]);
        // Distances to (2,0): [2,1,0,1,98] → median 1.
        assert_eq!(mvb.radius, 1.0);
    }

    #[test]
    fn mvb_of_empty_is_none() {
        assert!(mvb_of(&[]).is_none());
    }

    #[test]
    fn all_points_kept_at_loose_alpha() {
        let data = rows_with_outliers();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let eval = single_component_model().evaluator();
        let assignment = assign_clusters(&eval, &rows);
        // α extremely small → critical value huge → nobody is an outlier.
        let result = detect_outliers_naive(&eval, &rows, &assignment, 1e-300_f64.max(1e-12), 2);
        let out = result.iter().filter(|&&a| a == -1).count();
        assert!(out <= 2);
    }
}
