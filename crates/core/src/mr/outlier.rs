//! The outlier-detection MapReduce jobs (paper Section 5.5).
//!
//! * **OD job** — map-only: each mapper assigns its points to the most
//!   probable EM component and writes the point back with a membership
//!   attribute (`cluster id` or `−1` for outliers).
//! * **MVB jobs** — three jobs extract the robust statistics: (1) per
//!   split, the dimension-wise median center and median-distance radius
//!   of every cluster, aggregated by a reducer taking medians of the
//!   split estimates; (2)+(3) mean and covariance over the points inside
//!   each cluster's ball, as in the EM initialization.

use crate::em::DensityEvaluator;
use crate::mr::AccMsg;
use crate::outlier::{
    fit_geometry, mvb_of, project_and_assign, robust_geometry, verdicts, Geometry, Members,
};
use p3c_linalg::{Cholesky, CovarianceAccumulator};
use p3c_mapreduce::{Emitter, Engine, Mapper, MrError, Reducer};
use p3c_stats::descriptive::{dimensionwise_median, median_in_place};
use p3c_stats::ChiSquared;
use std::sync::Arc;

/// Reducer merging per-split covariance accumulators of one cluster.
struct AccReducer;
impl Reducer<usize, AccMsg, (usize, AccMsg)> for AccReducer {
    fn reduce(&self, key: &usize, values: Vec<AccMsg>, out: &mut Vec<(usize, AccMsg)>) {
        let mut iter = values.into_iter();
        let mut first = iter.next().expect("group nonempty").0;
        for AccMsg(acc) in iter {
            first.merge(&acc);
        }
        out.push((*key, AccMsg(first)));
    }
}

/// Emits the non-empty per-cluster accumulators of a split.
fn emit_accs(accs: Vec<CovarianceAccumulator>, out: &mut Emitter<usize, AccMsg>) {
    for (c, acc) in accs.into_iter().enumerate() {
        if acc.count() > 0 {
            out.emit(c, AccMsg(acc));
        }
    }
}

/// Estimated broadcast size of an evaluator's parameters.
fn eval_cache_bytes(eval: &DensityEvaluator, d: usize) -> usize {
    eval.num_components() * (d * d + d + 2) * 8
}

/// Per-cluster robust `(mean, Cholesky)` estimates broadcast to the
/// mappers; `None` marks a degenerate cluster.
type RobustEstimates = Arc<Vec<Option<(Vec<f64>, Cholesky)>>>;

/// [`Members::distances`] over a split already projected and assigned by
/// [`project_and_assign`].
fn split_distances<'g>(
    eval: &DensityEvaluator,
    proj: &[f64],
    hard: &[usize],
    geometry: impl Fn(usize) -> Option<Geometry<'g>>,
) -> Vec<f64> {
    let d = eval.arel_len();
    Members::gather(hard, eval.num_components(), d, |i, buf| {
        buf.extend_from_slice(&proj[i * d..(i + 1) * d])
    })
    .distances(geometry)
}

// --------------------------------------------------------------- OD job --

/// Mapper of the OD jobs: assign every point of the split to its best
/// component and compare its Mahalanobis distance — under the EM
/// component itself (naive, no `estimates`) or under the cluster's
/// robust estimate (degenerate clusters keep their points) — against
/// the χ² critical value. Verdicts are emitted in row order.
struct OdMapper {
    eval: Arc<DensityEvaluator>,
    estimates: Option<RobustEstimates>,
    crit: f64,
}

impl<'a> Mapper<&'a [f64], (), i64> for OdMapper {
    fn map_split(&self, split: &[&'a [f64]], out: &mut Emitter<(), i64>) {
        let (proj, hard) = project_and_assign(&self.eval, split);
        let dists = split_distances(&self.eval, &proj, &hard, |c| match &self.estimates {
            None => Some(self.eval.geometry(c)),
            Some(estimates) => robust_geometry(estimates, c),
        });
        for verdict in verdicts(&hard, &dists, self.crit) {
            out.emit((), verdict);
        }
    }
}

/// Runs the naive OD job; output is ordered like `rows`.
pub fn od_job_naive(
    engine: &Engine,
    eval: Arc<DensityEvaluator>,
    rows: &[&[f64]],
    alpha: f64,
    arel_len: usize,
) -> Result<Vec<i64>, MrError> {
    let mapper = OdMapper {
        crit: ChiSquared::new(arel_len.max(1) as f64).critical_value(alpha),
        estimates: None,
        eval,
    };
    let cache = eval_cache_bytes(&mapper.eval, arel_len);
    let result = engine.run_map_only_with_cache("p3c-od-naive", rows, cache, &mapper)?;
    Ok(result.output)
}

/// Runs the final OD job of a robust pipeline under its estimates.
fn od_job_robust(
    engine: &Engine,
    name: &str,
    eval: Arc<DensityEvaluator>,
    estimates: RobustEstimates,
    rows: &[&[f64]],
    alpha: f64,
    d: usize,
) -> Result<Vec<i64>, MrError> {
    let cache = eval_cache_bytes(&eval, d) + eval.num_components() * (d * d + d) * 8;
    let mapper = OdMapper {
        crit: ChiSquared::new(d.max(1) as f64).critical_value(alpha),
        estimates: Some(estimates),
        eval,
    };
    let result = engine.run_map_only_with_cache(name, rows, cache, &mapper)?;
    Ok(result.output)
}

/// Per-cluster robust estimates from the merged moment accumulators of a
/// moments job; clusters without output stay `None`.
fn estimates_from(moments: Vec<(usize, AccMsg)>, k: usize) -> RobustEstimates {
    let mut estimates = vec![None; k];
    for (c, AccMsg(acc)) in moments {
        estimates[c] = fit_geometry(&acc);
    }
    Arc::new(estimates)
}

// -------------------------------------------------------------- MVB jobs --

/// Mapper of the MVB statistics job: caches its split, assigns points,
/// and in the cleanup phase computes the split-local dimension-wise
/// median center and median-distance radius per cluster.
struct MvbStatsMapper {
    eval: Arc<DensityEvaluator>,
}

impl<'a> Mapper<&'a [f64], usize, (Vec<f64>, f64)> for MvbStatsMapper {
    fn map_split(&self, split: &[&'a [f64]], out: &mut Emitter<usize, (Vec<f64>, f64)>) {
        let (proj, hard) = project_and_assign(&self.eval, split);
        let mut members: Vec<Vec<&[f64]>> = vec![Vec::new(); self.eval.num_components()];
        for (x, &c) in proj.chunks_exact(self.eval.arel_len()).zip(&hard) {
            members[c].push(x);
        }
        for (c, pts) in members.iter().enumerate() {
            if let Some(mvb) = mvb_of(pts) {
                out.emit(c, (mvb.center, mvb.radius));
            }
        }
    }
}

/// Reducer: dimension-wise median of the split centers; median of radii.
struct MvbStatsReducer;
impl Reducer<usize, (Vec<f64>, f64), (usize, Vec<f64>, f64)> for MvbStatsReducer {
    fn reduce(
        &self,
        key: &usize,
        values: Vec<(Vec<f64>, f64)>,
        out: &mut Vec<(usize, Vec<f64>, f64)>,
    ) {
        let centers: Vec<&[f64]> = values.iter().map(|(c, _)| c.as_slice()).collect();
        let center = dimensionwise_median(&centers).expect("nonempty group");
        let mut radii: Vec<f64> = values.iter().map(|(_, r)| *r).collect();
        let radius = median_in_place(&mut radii);
        out.push((*key, center, radius));
    }
}

/// Per-cluster ball geometry: `(center, radius)` in `A_rel` coordinates.
type Balls = Arc<Vec<Option<(Vec<f64>, f64)>>>;

/// Mapper of the ball-restricted moments job.
struct BallStatsMapper {
    eval: Arc<DensityEvaluator>,
    balls: Balls,
}

impl<'a> Mapper<&'a [f64], usize, AccMsg> for BallStatsMapper {
    fn map_split(&self, split: &[&'a [f64]], out: &mut Emitter<usize, AccMsg>) {
        let d = self.eval.arel_len();
        let (proj, hard) = project_and_assign(&self.eval, split);
        let mut accs: Vec<CovarianceAccumulator> = (0..self.eval.num_components())
            .map(|_| CovarianceAccumulator::new(d))
            .collect();
        for (x, &c) in proj.chunks_exact(d).zip(&hard) {
            if let Some((center, radius)) = &self.balls[c] {
                if p3c_linalg::dist(x, center) <= radius + 1e-12 {
                    accs[c].push(x, 1.0);
                }
            }
        }
        emit_accs(accs, out);
    }
}

/// Runs the full MVB outlier-detection pipeline: three statistics jobs
/// plus the OD job (paper Section 5.5). Output is ordered like `rows`.
pub fn od_job_mvb(
    engine: &Engine,
    eval: Arc<DensityEvaluator>,
    rows: &[&[f64]],
    alpha: f64,
    arel_len: usize,
) -> Result<Vec<i64>, MrError> {
    let k = eval.num_components();
    let d = arel_len;
    let cache = eval_cache_bytes(&eval, d);

    // Job 1: per-cluster MVB center and radius.
    let stats = engine.run_with_cache(
        "p3c-mvb-ball-stats",
        rows,
        cache,
        &MvbStatsMapper {
            eval: Arc::clone(&eval),
        },
        &MvbStatsReducer,
    )?;
    let mut balls: Vec<Option<(Vec<f64>, f64)>> = vec![None; k];
    for (c, center, radius) in stats.output {
        balls[c] = Some((center, radius));
    }

    // Job 2: moments of the in-ball points (plus the paper's bookkeeping
    // second job for covariances).
    let moments = engine.run_with_cache(
        "p3c-mvb-ball-means",
        rows,
        cache + k * (d + 1) * 8,
        &BallStatsMapper {
            eval: Arc::clone(&eval),
            balls: Arc::new(balls),
        },
        &AccReducer,
    )?;
    engine.run_map_only(
        "p3c-mvb-ball-covariances",
        &[] as &[u8],
        &|_r: &[u8], _o: &mut Emitter<(), ()>| {},
    )?;

    // Final OD job with the robust parameters.
    let estimates = estimates_from(moments.output, k);
    od_job_robust(engine, "p3c-od-mvb", eval, estimates, rows, alpha, d)
}

// -------------------------------------------------------------- MCD jobs --

/// A split assigned and scored under the current concentration
/// estimates; clusters without one fall back to the EM component's own
/// geometry. Returns the projected split, its assignment and distances.
fn concentration_distances(
    eval: &DensityEvaluator,
    estimates: &[Option<(Vec<f64>, Cholesky)>],
    split: &[&[f64]],
) -> (Vec<f64>, Vec<usize>, Vec<f64>) {
    let (proj, hard) = project_and_assign(eval, split);
    let dists = split_distances(eval, &proj, &hard, |c| {
        robust_geometry(estimates, c).or(Some(eval.geometry(c)))
    });
    (proj, hard, dists)
}

/// Mapper of the MCD threshold job: split-local median of squared
/// Mahalanobis distances per cluster (the h = 50% concentration quantile,
/// estimated with the same median-of-split-medians scheme as the paper's
/// MVB statistics).
struct McdThresholdMapper {
    eval: Arc<DensityEvaluator>,
    estimates: RobustEstimates,
}

impl<'a> Mapper<&'a [f64], usize, f64> for McdThresholdMapper {
    fn map_split(&self, split: &[&'a [f64]], out: &mut Emitter<usize, f64>) {
        let (_, hard, dists) = concentration_distances(&self.eval, &self.estimates, split);
        let mut per_cluster: Vec<Vec<f64>> = vec![Vec::new(); self.eval.num_components()];
        for (&c, &d2) in hard.iter().zip(&dists) {
            per_cluster[c].push(d2);
        }
        for (c, mut d) in per_cluster.into_iter().enumerate() {
            if !d.is_empty() {
                out.emit(c, median_in_place(&mut d));
            }
        }
    }
}

struct MedianReducer;
impl Reducer<usize, f64, (usize, f64)> for MedianReducer {
    fn reduce(&self, key: &usize, mut values: Vec<f64>, out: &mut Vec<(usize, f64)>) {
        out.push((*key, median_in_place(&mut values)));
    }
}

/// Mapper of the MCD moments job: accumulate mean/covariance over the
/// points inside each cluster's concentration threshold.
struct McdMomentsMapper {
    eval: Arc<DensityEvaluator>,
    estimates: RobustEstimates,
    thresholds: Arc<Vec<Option<f64>>>,
}

impl<'a> Mapper<&'a [f64], usize, AccMsg> for McdMomentsMapper {
    fn map_split(&self, split: &[&'a [f64]], out: &mut Emitter<usize, AccMsg>) {
        let d = self.eval.arel_len();
        let (proj, hard, dists) = concentration_distances(&self.eval, &self.estimates, split);
        let mut accs: Vec<CovarianceAccumulator> = (0..self.eval.num_components())
            .map(|_| CovarianceAccumulator::new(d))
            .collect();
        for ((x, &c), &d2) in proj.chunks_exact(d).zip(&hard).zip(&dists) {
            if self.thresholds[c].is_some_and(|threshold| d2 <= threshold) {
                accs[c].push(x, 1.0);
            }
        }
        emit_accs(accs, out);
    }
}

/// MCD outlier detection as MapReduce jobs (extension; see
/// [`crate::outlier::mcd_estimate`]). Each concentration step costs two
/// jobs — a threshold job (median-of-split-medians of the squared
/// Mahalanobis distances, i.e. the h = 50% quantile under the current
/// estimate) and a moments job over the points below it — followed by
/// the usual OD job under the final robust estimates.
pub fn od_job_mcd(
    engine: &Engine,
    eval: Arc<DensityEvaluator>,
    rows: &[&[f64]],
    alpha: f64,
    arel_len: usize,
    concentration_steps: usize,
) -> Result<Vec<i64>, MrError> {
    let k = eval.num_components();
    let d = arel_len;
    let cache = eval_cache_bytes(&eval, d);
    let mut estimates: RobustEstimates = Arc::new(vec![None; k]);
    for _ in 0..concentration_steps.max(1) {
        let thresholds_out = engine.run_with_cache(
            "p3c-mcd-threshold",
            rows,
            cache + k * (d * d + d) * 8,
            &McdThresholdMapper {
                eval: Arc::clone(&eval),
                estimates: Arc::clone(&estimates),
            },
            &MedianReducer,
        )?;
        let mut thresholds: Vec<Option<f64>> = vec![None; k];
        for (c, t) in thresholds_out.output {
            thresholds[c] = Some(t);
        }
        let moments = engine.run_with_cache(
            "p3c-mcd-moments",
            rows,
            cache + k * (d * d + d + 1) * 8,
            &McdMomentsMapper {
                eval: Arc::clone(&eval),
                estimates: Arc::clone(&estimates),
                thresholds: Arc::new(thresholds),
            },
            &AccReducer,
        )?;
        estimates = estimates_from(moments.output, k);
    }
    od_job_robust(engine, "p3c-od-mcd", eval, estimates, rows, alpha, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em::{Component, MixtureModel};
    use crate::outlier::{
        assign_clusters, detect_outliers_mcd, detect_outliers_mvb, detect_outliers_naive,
    };
    use p3c_linalg::Matrix;
    use p3c_mapreduce::MrConfig;

    fn rows_with_outliers() -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        for i in 0..200 {
            let t = i as f64 / 200.0;
            rows.push(vec![0.45 + 0.1 * t, 0.55 - 0.1 * t]);
        }
        rows.push(vec![0.0, 1.0]);
        rows.push(vec![1.0, 0.0]);
        rows
    }

    fn model() -> MixtureModel {
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
    fn naive_od_job_matches_serial() {
        let data = rows_with_outliers();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let eval = Arc::new(model().evaluator());
        let engine = Engine::new(MrConfig {
            split_size: 33,
            ..MrConfig::default()
        });
        let mr = od_job_naive(&engine, Arc::clone(&eval), &rows, 0.001, 2).unwrap();
        let assignment = assign_clusters(&eval, &rows);
        let serial = detect_outliers_naive(&eval, &rows, &assignment, 0.001, 2);
        assert_eq!(mr, serial);
        assert_eq!(mr.len(), rows.len());
        assert_eq!(mr[200], -1);
    }

    #[test]
    fn mvb_od_job_matches_serial_closely() {
        let data = rows_with_outliers();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let eval = Arc::new(model().evaluator());
        // Serial MVB computes exact global medians; the MR version medians
        // the split-local medians (the paper's approximation). With a
        // single split both coincide exactly.
        let engine = Engine::new(MrConfig {
            split_size: 100_000,
            ..MrConfig::default()
        });
        let mr = od_job_mvb(&engine, Arc::clone(&eval), &rows, 0.001, 2).unwrap();
        let assignment = assign_clusters(&eval, &rows);
        let serial = detect_outliers_mvb(&eval, &rows, &assignment, 0.001, 2);
        assert_eq!(mr, serial);
    }

    #[test]
    fn mcd_od_job_catches_outliers_and_charges_jobs() {
        let data = rows_with_outliers();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let eval = Arc::new(model().evaluator());
        let engine = Engine::new(MrConfig {
            split_size: 50,
            ..MrConfig::default()
        });
        let mr = od_job_mcd(&engine, Arc::clone(&eval), &rows, 0.001, 2, 2).unwrap();
        assert_eq!(mr[200], -1);
        assert_eq!(mr[201], -1);
        let inliers = mr.iter().filter(|&&a| a == 0).count();
        assert!(inliers >= 180, "only {inliers} inliers");
        // 2 steps × 2 jobs + final OD job.
        assert_eq!(engine.cluster_metrics().num_jobs(), 5);
    }

    #[test]
    fn mcd_od_job_single_split_matches_serial() {
        let data = rows_with_outliers();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let eval = Arc::new(model().evaluator());
        // One split: the median-of-medians quantile is the exact median,
        // and serial MCD with h = 50% converges to the same subset after
        // enough steps; compare the final verdicts.
        let engine = Engine::new(MrConfig {
            split_size: 100_000,
            ..MrConfig::default()
        });
        let mr = od_job_mcd(&engine, Arc::clone(&eval), &rows, 0.001, 2, 4).unwrap();
        let assignment = assign_clusters(&eval, &rows);
        let serial = detect_outliers_mcd(&eval, &rows, &assignment, 0.001, 2);
        // The serial C-step keeps exactly h points, the MR variant keeps
        // those ≤ the median distance — same verdict for the planted
        // outliers and at least 95% agreement overall.
        assert_eq!(mr[200], serial[200]);
        assert_eq!(mr[201], serial[201]);
        let agree = mr.iter().zip(&serial).filter(|(a, b)| a == b).count();
        assert!(
            agree * 100 >= mr.len() * 95,
            "only {agree}/{} agree",
            mr.len()
        );
    }

    #[test]
    fn mvb_od_job_with_many_splits_still_catches_outliers() {
        // The split-median aggregation assumes splits are representative
        // samples (as HDFS blocks of shuffled data are); interleave the
        // rows with a coprime stride so each split spans the cluster.
        let ordered = rows_with_outliers();
        let n = ordered.len();
        let data: Vec<Vec<f64>> = (0..n).map(|i| ordered[(i * 67) % n].clone()).collect();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let planted_outliers: Vec<usize> = (0..n).filter(|i| (i * 67) % n >= 200).collect();
        let eval = Arc::new(model().evaluator());
        let engine = Engine::new(MrConfig {
            split_size: 20,
            ..MrConfig::default()
        });
        let mr = od_job_mvb(&engine, eval, &rows, 0.001, 2).unwrap();
        for &o in &planted_outliers {
            assert_eq!(mr[o], -1, "planted outlier {o} survived");
        }
        let inliers = mr.iter().filter(|&&a| a == 0).count();
        assert!(inliers >= 180, "only {inliers} inliers");
        // Job accounting: ball stats + means + covariances + OD = 4 jobs.
        assert_eq!(engine.cluster_metrics().num_jobs(), 4);
    }
}
