//! Outlier detection after EM (paper Sections 4.2.2 and 5.5).
//!
//! A member `x` of cluster `C` is an outlier iff its squared Mahalanobis
//! distance to `C` exceeds the χ² critical value with `|A_rel|` degrees of
//! freedom at `α = 0.001`. Three estimators for `(μ_C, Σ_C)`:
//!
//! * **naive** — straight from the EM Gaussians (suffers from masking:
//!   outliers inflate the covariance that is supposed to expose them);
//! * **MVB** — minimum volume ball: center = dimension-wise median of the
//!   cluster, radius = median distance to the center; mean/covariance are
//!   then computed from the points *inside the ball* only (the paper's
//!   tractable approximation of the minimum-volume-ellipsoid estimator);
//! * **MCD** (extension) — [`MCD_STEPS`] concentration steps from the EM
//!   component: each keeps the points at or under the median squared
//!   Mahalanobis distance (FastMCD's C-step keeps the ⌈n/2⌉ nearest) and
//!   refits on them.
//!
//! Every median is taken by the chunk rule of [`crate::chunk_median`]:
//! per 8 192-row chunk of the input, then over the chunks, each weighted
//! by its members; moments fold in chunk order. One driver
//! ([`outlier_phase`]) runs the passes through an [`OdRunner`]: the
//! worker pool (`PoolRunner`) for the serial pipelines, MR jobs
//! (`mr::outlier::JobRunner`) for P3C+-MR. Both compute the same chunks
//! whenever the MR splits are whole chunks, so the verdicts are equal
//! bit for bit (DESIGN.md §13).

use crate::chunk_median::{chunks, median_ball};
use crate::config::OutlierMethod;
use crate::em::{DensityEvaluator, EstepScratch};
use p3c_linalg::{Cholesky, CovarianceAccumulator, LaneScratch};
use p3c_stats::descriptive::{dimensionwise_median, median_in_place};
use p3c_stats::ChiSquared;

/// Per-point result: the EM cluster (index) or `-1` for outliers.
pub type Assignment = Vec<i64>;

/// Concentration steps of the MCD estimator, chosen on Figure 4's MCD
/// column (EXPERIMENTS.md).
pub const MCD_STEPS: usize = 4;

/// A cluster's robust `(mean, Cholesky)` estimate; `None` marks a
/// degenerate cluster, whose points are all kept.
pub type Estimate = Option<(Vec<f64>, Cholesky)>;

/// One [`Estimate`] per cluster.
pub type Estimates = Vec<Estimate>;

/// Hard-assigns every row to its maximum-density component: the rows
/// projected into one contiguous `A_rel` block, scored by
/// [`DensityEvaluator::assign_block_lanes`].
pub fn assign_clusters(eval: &DensityEvaluator, rows: &[&[f64]]) -> Vec<usize> {
    let mut assignment = Vec::new();
    let proj = eval.project_block(rows);
    eval.assign_block_lanes(&proj, &mut EstepScratch::new(), &mut assignment);
    assignment
}

/// A cluster's Mahalanobis geometry: mean and covariance factor.
type Geometry<'g> = (&'g [f64], &'g Cholesky);

/// The members of every cluster of one chunk, gathered once: per cluster
/// `c < k`, the chunk indices `i` with `assignment[i] == c` in point
/// order, and their `A_rel` coordinates packed into one contiguous
/// row-major block — the input form of [`Cholesky::mahalanobis_sq_block`].
pub(crate) struct Members {
    d: usize,
    idx: Vec<Vec<usize>>,
    blocks: Vec<Vec<f64>>,
}

impl Members {
    /// Groups a chunk's rows into their clusters under the hard
    /// assignment `hard`, projecting each onto `A_rel`, in one pass.
    pub(crate) fn of_rows(eval: &DensityEvaluator, rows: &[&[f64]], hard: &[usize]) -> Self {
        let k = eval.num_components();
        let mut idx = vec![Vec::new(); k];
        let mut blocks = vec![Vec::new(); k];
        for (i, (row, &c)) in rows.iter().zip(hard).enumerate() {
            idx[c].push(i);
            eval.project_append(row, &mut blocks[c]);
        }
        let d = eval.arel_len();
        Self { d, idx, blocks }
    }

    /// Cluster `c`'s members, one `A_rel` point each.
    fn points(&self, c: usize) -> impl Iterator<Item = &[f64]> {
        self.blocks[c].chunks_exact(self.d)
    }

    /// Cluster `c`'s squared Mahalanobis distances under `geometry`, in
    /// member order; per point the float operation sequence of
    /// [`Cholesky::mahalanobis_sq_scratch`].
    fn distances(&self, c: usize, (mean, chol): Geometry<'_>) -> Vec<f64> {
        let mut out = Vec::new();
        chol.mahalanobis_sq_block(&self.blocks[c], mean, &mut LaneScratch::new(), &mut out);
        out
    }

    /// Each cluster's chunk value, `None` where `stat` has none.
    fn per_cluster<T>(&self, stat: impl Fn(usize) -> Option<T>) -> Vec<Option<T>> {
        (0..self.idx.len())
            .map(|c| {
                if self.idx[c].is_empty() {
                    None
                } else {
                    stat(c)
                }
            })
            .collect()
    }
}

/// A cluster's ball in one chunk, or its median over the chunks: the
/// members at most `radius` from `center` in the metric of its
/// [`BallPass`]. MVB's center is the dimension-wise median of the
/// members; MCD's ball is around the current estimate, so `center`
/// stays empty. The radius is the median distance.
#[derive(Debug, Clone, PartialEq)]
pub struct Ball {
    /// Center in `A_rel` coordinates (empty for MCD).
    pub center: Vec<f64>,
    /// Radius (MCD: a squared Mahalanobis distance).
    pub radius: f64,
    /// The cluster's members behind the ball: its weight in the median
    /// over the chunks.
    pub members: usize,
}

/// The robust estimator's ball: each chunk's balls are combined over the
/// chunks by [`OdRunner::balls`], and the moments of the members inside
/// the combined balls merged in chunk order by [`OdRunner::moments`].
#[derive(Clone, Copy)]
pub enum BallPass<'a> {
    /// MVB: Euclidean distance from the dimension-wise median center.
    Mvb,
    /// One MCD concentration step: squared Mahalanobis distance under
    /// each cluster's estimate here, or under its EM component where
    /// there is none (before the first step, or after a degenerate one).
    Mcd(&'a [Estimate]),
}

impl BallPass<'_> {
    /// Cluster `c`'s distances from `center` in the pass's metric, in
    /// member order.
    fn distances(
        &self,
        eval: &DensityEvaluator,
        m: &Members,
        c: usize,
        center: &[f64],
    ) -> Vec<f64> {
        match *self {
            BallPass::Mvb => m.points(c).map(|p| p3c_linalg::dist(p, center)).collect(),
            BallPass::Mcd(estimates) => match estimates.get(c) {
                Some(Some((mean, chol))) => m.distances(c, (mean, chol)),
                _ => m.distances(c, eval.geometry(c)),
            },
        }
    }

    /// Each cluster's ball in one chunk.
    pub(crate) fn balls(&self, eval: &DensityEvaluator, m: &Members) -> Vec<Option<Ball>> {
        m.per_cluster(|c| {
            let center = match self {
                BallPass::Mvb => dimensionwise_median(&m.points(c).collect::<Vec<_>>())?,
                BallPass::Mcd(_) => Vec::new(),
            };
            let radius = median_in_place(&mut self.distances(eval, m, c, &center));
            let members = m.idx[c].len();
            Some(Ball {
                center,
                radius,
                members,
            })
        })
    }

    /// Each cluster's moments over its members in one chunk that lie in
    /// its ball (with `1e-12` of slack against rounding); `None` where
    /// none does.
    pub(crate) fn moments(
        &self,
        eval: &DensityEvaluator,
        m: &Members,
        balls: &[Option<Ball>],
    ) -> Vec<Option<CovarianceAccumulator>> {
        m.per_cluster(|c| {
            let ball = balls[c].as_ref()?;
            let mut acc = CovarianceAccumulator::new(m.d);
            for (p, dist) in m.points(c).zip(self.distances(eval, m, c, &ball.center)) {
                if dist <= ball.radius + 1e-12 {
                    acc.push(p, 1.0);
                }
            }
            (acc.count() > 0).then_some(acc)
        })
    }
}

/// The combine step of a moment pass: one cluster's chunk moments merged
/// in chunk order from empty, and their `(mean, Cholesky)` geometry
/// (unbiased covariance, ridged); `None` when they are degenerate.
pub(crate) fn fold_moments<'a>(
    d: usize,
    parts: impl IntoIterator<Item = &'a CovarianceAccumulator>,
) -> Option<(Vec<f64>, Cholesky)> {
    let mut total = CovarianceAccumulator::new(d);
    for part in parts {
        total.merge(part);
    }
    let mut cov = total.covariance()?;
    cov.add_ridge(1e-9);
    Some((total.mean()?, Cholesky::new_regularized(&cov)?))
}

/// The final scan: a member whose squared distance to its cluster's
/// geometry exceeds `crit` is an outlier (`-1`), every other keeps its
/// cluster. The geometry is the EM component (`estimates` `None`: naive)
/// or the robust estimate, whose degenerate clusters keep all their
/// points.
#[derive(Clone, Copy)]
pub struct VerdictPass<'a> {
    /// The robust estimates, `None` for the EM components.
    pub estimates: Option<&'a Estimates>,
    /// The χ² critical value.
    pub crit: f64,
}

impl VerdictPass<'_> {
    /// The pass over one chunk's members, in point order.
    pub(crate) fn chunk(&self, eval: &DensityEvaluator, m: &Members) -> Assignment {
        let mut out = vec![0; m.idx.iter().map(Vec::len).sum()];
        for (c, idx) in m.idx.iter().enumerate() {
            let geometry = match self.estimates {
                None => Some(eval.geometry(c)),
                Some(estimates) => estimates[c].as_ref().map(|(mean, chol)| (&mean[..], chol)),
            };
            let d2 = geometry.map(|g| m.distances(c, g)).unwrap_or_default();
            for (j, &i) in idx.iter().enumerate() {
                let flagged = d2.get(j).is_some_and(|&d2| d2 > self.crit);
                out[i] = if flagged { -1 } else { c as i64 };
            }
        }
        out
    }
}

/// Runs the outlier stage's passes over the rows: the seam between the
/// driver and *where* the chunks are computed. Every pass is its chunk
/// function over each chunk (`chunk_median::chunks`), combined
/// per cluster in chunk order.
pub trait OdRunner {
    /// What a failed pass reports.
    type Error;

    /// Each cluster's weighted median over the chunks of its chunk
    /// balls (`chunk_median::median_ball`).
    fn balls(&mut self, pass: BallPass<'_>) -> Result<Vec<Option<Ball>>, Self::Error>;

    /// Each cluster's estimate from the pass's chunk moments, merged in
    /// chunk order.
    fn moments(
        &mut self,
        pass: BallPass<'_>,
        balls: &[Option<Ball>],
    ) -> Result<Estimates, Self::Error>;

    /// Every row's verdict, in row order.
    fn verdicts(&mut self, pass: VerdictPass<'_>) -> Result<Assignment, Self::Error>;
}

/// The outlier stage of P3C+: the `method`'s robust estimates — none
/// for naive, MVB's in-ball moments, or MCD's [`MCD_STEPS`]
/// concentration steps from the EM components — then the χ² verdicts at
/// `alpha` with `arel_len` degrees of freedom. The serial and the MR
/// pipelines both run it; only their runner differs.
pub fn outlier_phase<R: OdRunner>(
    runner: &mut R,
    method: OutlierMethod,
    alpha: f64,
    arel_len: usize,
) -> Result<Assignment, R::Error> {
    let estimates = match method {
        OutlierMethod::Naive => None,
        OutlierMethod::Mvb => {
            let balls = runner.balls(BallPass::Mvb)?;
            Some(runner.moments(BallPass::Mvb, &balls)?)
        }
        OutlierMethod::Mcd => {
            let mut estimates = Vec::new();
            for _ in 0..MCD_STEPS {
                let pass = BallPass::Mcd(&estimates);
                let balls = runner.balls(pass)?;
                estimates = runner.moments(pass, &balls)?;
            }
            Some(estimates)
        }
    };
    runner.verdicts(VerdictPass {
        estimates: estimates.as_ref(),
        crit: ChiSquared::new(arel_len.max(1) as f64).critical_value(alpha),
    })
}

/// The in-process [`OdRunner`]: the chunks run on the engine worker pool
/// ([`p3c_mapreduce::parallel_for_blocks`]) under the pipeline's hard
/// assignment, each chunk projected onto `A_rel` as a pass reads it — no
/// full projection is held — and the chunk values come back in chunk
/// order. The same chunks and the same combine for every `threads`
/// value, so the verdicts are bit-identical across thread counts.
pub(crate) struct PoolRunner<'a> {
    pub(crate) eval: &'a DensityEvaluator,
    pub(crate) rows: &'a [&'a [f64]],
    /// The rows' hard assignment.
    pub(crate) hard: &'a [usize],
    pub(crate) threads: usize,
}

impl PoolRunner<'_> {
    /// `f` over every chunk's members, in chunk order.
    fn each_chunk<T: Send>(&self, f: impl Fn(&Members) -> T + Sync) -> Vec<T> {
        let chunks: Vec<_> = chunks(self.rows).zip(chunks(self.hard)).collect();
        p3c_mapreduce::parallel_for_blocks(self.threads, chunks.len(), |b| {
            let (rows, hard) = chunks[b];
            f(&Members::of_rows(self.eval, rows, hard))
        })
    }

    /// Each cluster's chunk values, in chunk order.
    fn per_cluster<T: Send>(&self, f: impl Fn(&Members) -> Vec<Option<T>> + Sync) -> Vec<Vec<T>> {
        let mut out: Vec<Vec<T>> = (0..self.eval.num_components())
            .map(|_| Vec::new())
            .collect();
        for chunk in self.each_chunk(f) {
            for (values, value) in out.iter_mut().zip(chunk) {
                values.extend(value);
            }
        }
        out
    }
}

impl OdRunner for PoolRunner<'_> {
    type Error = std::convert::Infallible;

    fn balls(&mut self, pass: BallPass<'_>) -> Result<Vec<Option<Ball>>, Self::Error> {
        let balls = self.per_cluster(|m| pass.balls(self.eval, m));
        Ok(balls.iter().map(|b| median_ball(b)).collect())
    }

    fn moments(
        &mut self,
        pass: BallPass<'_>,
        balls: &[Option<Ball>],
    ) -> Result<Estimates, Self::Error> {
        let parts = self.per_cluster(|m| pass.moments(self.eval, m, balls));
        let d = self.eval.arel_len();
        Ok(parts.iter().map(|p| fold_moments(d, p)).collect())
    }

    fn verdicts(&mut self, pass: VerdictPass<'_>) -> Result<Assignment, Self::Error> {
        Ok(self.each_chunk(|m| pass.chunk(self.eval, m)).concat())
    }
}

/// Outlier detection with `method` over `rows`, hard-assigned by
/// `assignment` ([`assign_clusters`]), on `threads` pool workers: the
/// verdicts are the same for every `threads`.
pub fn detect_outliers(
    eval: &DensityEvaluator,
    rows: &[&[f64]],
    assignment: &[usize],
    method: OutlierMethod,
    alpha: f64,
    arel_len: usize,
    threads: usize,
) -> Assignment {
    let mut runner = PoolRunner {
        eval,
        rows,
        hard: assignment,
        threads,
    };
    let Ok(verdicts) = outlier_phase(&mut runner, method, alpha, arel_len);
    verdicts
}

/// MVB-based outlier detection on the calling thread.
pub fn detect_outliers_mvb(
    eval: &DensityEvaluator,
    rows: &[&[f64]],
    assignment: &[usize],
    alpha: f64,
    arel_len: usize,
) -> Assignment {
    detect_outliers(
        eval,
        rows,
        assignment,
        OutlierMethod::Mvb,
        alpha,
        arel_len,
        1,
    )
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

    /// `method` on the planted set under the single-component model.
    fn detect_planted(method: OutlierMethod, alpha: f64) -> Assignment {
        let data = rows_with_outliers();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let eval = single_component_model().evaluator();
        let assignment = assign_clusters(&eval, &rows);
        detect_outliers(&eval, &rows, &assignment, method, alpha, 2, 1)
    }

    #[test]
    fn every_method_detects_planted_outliers() {
        // The bulk must remain members.
        for (method, bulk) in [
            (OutlierMethod::Naive, 195),
            (OutlierMethod::Mvb, 180),
            (OutlierMethod::Mcd, 180),
        ] {
            let result = detect_planted(method, 0.001);
            assert_eq!(result[200], -1, "{method:?}");
            assert_eq!(result[201], -1, "{method:?}");
            let inliers = result.iter().filter(|&&a| a == 0).count();
            assert!(inliers >= bulk, "{method:?}: only {inliers} inliers");
        }
    }

    /// Naive and `method` on 140 bulk points and 60 contaminating ones
    /// (`spread` wide) under the plain mean and covariance of all 200 —
    /// what EM would deliver: the contamination inflates the naive
    /// covariance so much that it is masked. Returns how many of the 60
    /// each catches.
    fn caught_under_masking(method: OutlierMethod, spread: f64) -> (usize, usize) {
        let mut data = Vec::new();
        for i in 0..140 {
            let t = i as f64 / 140.0;
            data.push(vec![0.48 + 0.04 * t, 0.52 - 0.04 * t]);
        }
        for i in 0..60 {
            let t = i as f64 / 60.0;
            data.push(vec![0.9 + spread * t, 0.05 + spread * t]);
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
        let caught = |method| {
            let verdicts = detect_outliers(&eval, &rows, &assignment, method, 0.001, 2, 1);
            verdicts[140..].iter().filter(|&&a| a == -1).count()
        };
        (caught(OutlierMethod::Naive), caught(method))
    }

    #[test]
    fn mvb_resists_masking_better_than_naive() {
        let (naive, mvb) = caught_under_masking(OutlierMethod::Mvb, 0.05);
        assert!(mvb > naive, "MVB caught {mvb}, naive caught {naive}");
        assert!(mvb >= 55, "MVB caught only {mvb}/60");
    }

    #[test]
    fn mcd_resists_masking_like_mvb() {
        let (naive, mcd) = caught_under_masking(OutlierMethod::Mcd, 0.05);
        assert!(mcd > naive, "MCD {mcd} vs naive {naive}");
        assert!(mcd >= 55, "MCD caught only {mcd}/60");
    }

    #[test]
    fn degenerate_clusters_keep_their_points() {
        // One member: its ball holds one point, whose moments have no
        // covariance, so neither robust estimator flags it.
        let rows: Vec<&[f64]> = vec![&[0.9, 0.1]];
        let eval = single_component_model().evaluator();
        for method in [OutlierMethod::Mvb, OutlierMethod::Mcd] {
            let verdicts = detect_outliers(&eval, &rows, &[0], method, 0.001, 2, 1);
            assert_eq!(verdicts, [0], "{method:?}");
        }
        let naive = detect_outliers(&eval, &rows, &[0], OutlierMethod::Naive, 0.001, 2, 1);
        assert_eq!(naive, [-1]);
    }

    #[test]
    fn mvb_balls_are_medians() {
        let rows: Vec<&[f64]> = vec![
            &[0.0, 0.0],
            &[1.0, 0.0],
            &[2.0, 0.0],
            &[3.0, 0.0],
            &[100.0, 0.0],
        ];
        let eval = single_component_model().evaluator();
        let balls = BallPass::Mvb.balls(&eval, &Members::of_rows(&eval, &rows, &[0; 5]));
        // Distances to (2,0): [2,1,0,1,98] → median 1.
        let ball = Ball {
            center: vec![2.0, 0.0],
            radius: 1.0,
            members: 5,
        };
        assert_eq!(balls, [Some(ball)]);
    }

    #[test]
    fn all_points_kept_at_loose_alpha() {
        // α extremely small → critical value huge → nobody is an outlier.
        let result = detect_planted(OutlierMethod::Naive, 1e-12);
        let out = result.iter().filter(|&&a| a == -1).count();
        assert!(out <= 2);
    }
}
