//! The outlier-detection MapReduce jobs (paper Section 5.5): the
//! `JobRunner` through which [`crate::outlier`]'s one driver,
//! [`crate::outlier::outlier_phase`], runs its passes.
//!
//! Each pass is one job. Its mapper cuts the split into chunks
//! (`chunk_median::chunks`), assigns each chunk's points to
//! their most probable EM component ([`assign_clusters`]), and runs the
//! serial pipelines' own chunk function on them. A statistics job emits
//! one value per chunk and cluster under the cluster's key, so each
//! reducer receives its cluster's values in split order and combines
//! them with the serial combine step. When `split_size` is a multiple
//! of [`crate::chunk_median::MEDIAN_CHUNK_POINTS`] (or the input is one
//! split) the mappers' chunks are the global chunks, so the verdicts
//! equal `P3cPlus`'s bit for bit.
//!
//! * **MVB** — `p3c-mvb-ball-stats` (chunk balls, weighted-median
//!   reducer), then `p3c-mvb-ball-means` (the moments of the in-ball
//!   points) and the paper's `p3c-mvb-ball-covariances` job. The moments
//!   already carry the scatter, so that job runs over an empty input and
//!   only keeps the ledger at three statistics jobs.
//! * **MCD** — per concentration step `p3c-mcd-threshold` (chunk median
//!   squared distances, weighted-median reducer) and `p3c-mcd-moments`.
//! * **OD job** — map-only (`p3c-od-naive`, `p3c-od-mvb`, `p3c-od-mcd`):
//!   each mapper writes its points' verdicts (cluster id or `−1` for
//!   outliers) in row order.

use crate::chunk_median::{chunks, median_ball};
use crate::config::OutlierMethod;
use crate::em::DensityEvaluator;
use crate::mr::AccMsg;
use crate::outlier::{
    assign_clusters, fold_moments, outlier_phase, Assignment, Ball, BallPass, Estimates, Members,
    OdRunner, VerdictPass,
};
use p3c_mapreduce::distrib::Wire;
use p3c_mapreduce::{Emitter, Engine, Mapper, MrError, Reducer, Weighable};

/// The MR [`OdRunner`]: one job per pass over `rows` on `engine`.
pub(crate) struct JobRunner<'a> {
    engine: &'a Engine,
    eval: &'a DensityEvaluator,
    rows: &'a [&'a [f64]],
    /// The name of the OD job.
    od_job: &'static str,
}

impl JobRunner<'_> {
    /// Broadcast size of the evaluator's parameters plus `k × per_cluster`
    /// bytes of side data.
    fn cache_bytes(&self, per_cluster: usize) -> usize {
        let (k, d) = (self.eval.num_components(), self.eval.arel_len());
        k * ((d * d + d + 2) * 8 + per_cluster)
    }

    /// A statistics job: `chunk`'s value for every cluster of every chunk,
    /// each cluster's values combined by `combine`.
    fn per_cluster<V: Send + Weighable + Wire, O: Send>(
        &self,
        name: &str,
        side_bytes: usize,
        chunk: impl Fn(&Members) -> Vec<Option<V>> + Sync,
        combine: impl Fn(Vec<V>) -> Option<O> + Sync,
    ) -> Result<Vec<Option<O>>, MrError> {
        let job = ChunkJob {
            eval: self.eval,
            map: |m: &Members| {
                let values = chunk(m).into_iter().enumerate();
                values.filter_map(|(c, value)| Some((c, value?))).collect()
            },
            combine,
        };
        let cache = self.cache_bytes(side_bytes);
        let result = self
            .engine
            .run_with_cache(name, self.rows, cache, &job, &job)?;
        let mut out: Vec<Option<O>> = (0..self.eval.num_components()).map(|_| None).collect();
        for (c, value) in result.output {
            out[c] = value;
        }
        Ok(out)
    }
}

impl OdRunner for JobRunner<'_> {
    type Error = MrError;

    fn balls(&mut self, pass: BallPass<'_>) -> Result<Vec<Option<Ball>>, MrError> {
        let d = self.eval.arel_len();
        let (name, side) = match pass {
            BallPass::Mvb => ("p3c-mvb-ball-stats", 0),
            BallPass::Mcd(_) => ("p3c-mcd-threshold", (d * d + d) * 8),
        };
        let chunk = |m: &Members| pass.balls(self.eval, m);
        self.per_cluster(name, side, chunk, |balls| median_ball(&balls))
    }

    fn moments(
        &mut self,
        pass: BallPass<'_>,
        balls: &[Option<Ball>],
    ) -> Result<Estimates, MrError> {
        let d = self.eval.arel_len();
        let (name, side) = match pass {
            BallPass::Mvb => ("p3c-mvb-ball-means", (d + 1) * 8),
            BallPass::Mcd(_) => ("p3c-mcd-moments", (d * d + d + 1) * 8),
        };
        let chunk = |m: &Members| {
            let parts = pass.moments(self.eval, m, balls);
            parts.into_iter().map(|acc| acc.map(AccMsg)).collect()
        };
        let combine = |parts: Vec<AccMsg>| fold_moments(d, parts.iter().map(|p| &p.0));
        let estimates = self.per_cluster(name, side, chunk, combine)?;
        if let BallPass::Mvb = pass {
            let empty = |_r: &[u8], _o: &mut Emitter<(), ()>| {};
            let name = "p3c-mvb-ball-covariances";
            self.engine.run_map_only(name, &[] as &[u8], &empty)?;
        }
        Ok(estimates)
    }

    fn verdicts(&mut self, pass: VerdictPass<'_>) -> Result<Assignment, MrError> {
        let d = self.eval.arel_len();
        let cache = self.cache_bytes(pass.estimates.map_or(0, |_| (d * d + d) * 8));
        let job = ChunkJob {
            eval: self.eval,
            map: |m: &Members| {
                let verdicts = pass.chunk(self.eval, m);
                verdicts.into_iter().map(|v| ((), v)).collect()
            },
            combine: (),
        };
        let result = self
            .engine
            .run_map_only_with_cache(self.od_job, self.rows, cache, &job)?;
        Ok(result.output)
    }
}

/// Mapper and reducer of one pass's job: `map` over the members of
/// every chunk of the split, `combine` over one cluster's values.
struct ChunkJob<'e, F, G> {
    eval: &'e DensityEvaluator,
    map: F,
    combine: G,
}

impl<'a, K, V, F, G> Mapper<&'a [f64], K, V> for ChunkJob<'_, F, G>
where
    K: Weighable,
    V: Weighable,
    F: Fn(&Members) -> Vec<(K, V)> + Sync,
    G: Sync,
{
    fn map_split(&self, split: &[&'a [f64]], out: &mut Emitter<K, V>) {
        for chunk in chunks(split) {
            let hard = assign_clusters(self.eval, chunk);
            for (key, value) in (self.map)(&Members::of_rows(self.eval, chunk, &hard)) {
                out.emit(key, value);
            }
        }
    }
}

impl<V, O, F, G> Reducer<usize, V, (usize, O)> for ChunkJob<'_, F, G>
where
    F: Sync,
    G: Fn(Vec<V>) -> O + Sync,
{
    fn reduce(&self, key: &usize, values: Vec<V>, out: &mut Vec<(usize, O)>) {
        out.push((*key, (self.combine)(values)));
    }
}

/// Runs the outlier stage with `method` as MR jobs; output is ordered
/// like `rows`.
pub fn od_jobs(
    engine: &Engine,
    eval: &DensityEvaluator,
    rows: &[&[f64]],
    method: OutlierMethod,
    alpha: f64,
    arel_len: usize,
) -> Result<Assignment, MrError> {
    let od_job = match method {
        OutlierMethod::Naive => "p3c-od-naive",
        OutlierMethod::Mvb => "p3c-od-mvb",
        OutlierMethod::Mcd => "p3c-od-mcd",
    };
    let mut runner = JobRunner {
        engine,
        eval,
        rows,
        od_job,
    };
    outlier_phase(&mut runner, method, alpha, arel_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em::{Component, MixtureModel};
    use crate::outlier::{assign_clusters, detect_outliers, MCD_STEPS};
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

    fn engine(split_size: usize) -> Engine {
        Engine::new(MrConfig {
            split_size,
            ..MrConfig::default()
        })
    }

    #[test]
    fn naive_od_job_matches_serial() {
        let data = rows_with_outliers();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let eval = model().evaluator();
        let mr = od_jobs(&engine(33), &eval, &rows, OutlierMethod::Naive, 0.001, 2).unwrap();
        let assignment = assign_clusters(&eval, &rows);
        let serial = detect_outliers(&eval, &rows, &assignment, OutlierMethod::Naive, 0.001, 2, 1);
        assert_eq!(mr, serial);
        assert_eq!(mr.len(), rows.len());
        assert_eq!(mr[200], -1);
    }

    #[test]
    fn robust_od_jobs_on_one_split_match_serial() {
        // The input is one chunk, so the one split's statistics are the
        // serial chunk statistics; both estimators agree exactly.
        let data = rows_with_outliers();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let eval = model().evaluator();
        let assignment = assign_clusters(&eval, &rows);
        for method in [OutlierMethod::Mvb, OutlierMethod::Mcd] {
            let mr = od_jobs(&engine(100_000), &eval, &rows, method, 0.001, 2).unwrap();
            let serial = detect_outliers(&eval, &rows, &assignment, method, 0.001, 2, 1);
            assert_eq!(mr, serial, "{method:?}");
            assert_eq!((mr[200], mr[201]), (-1, -1), "{method:?}");
        }
    }

    #[test]
    fn mcd_od_job_catches_outliers_and_charges_jobs() {
        let data = rows_with_outliers();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let eval = model().evaluator();
        let engine = engine(50);
        let mr = od_jobs(&engine, &eval, &rows, OutlierMethod::Mcd, 0.001, 2).unwrap();
        assert_eq!(mr[200], -1);
        assert_eq!(mr[201], -1);
        let inliers = mr.iter().filter(|&&a| a == 0).count();
        assert!(inliers >= 180, "only {inliers} inliers");
        // Two jobs per concentration step, then the OD job.
        assert_eq!(engine.cluster_metrics().num_jobs(), 2 * MCD_STEPS + 1);
    }

    #[test]
    fn mvb_od_job_with_many_splits_still_catches_outliers() {
        // Splits smaller than a chunk take their medians per split, which
        // assumes splits are representative samples (as HDFS blocks of
        // shuffled data are); interleave the rows with a coprime stride
        // so each split spans the cluster.
        let ordered = rows_with_outliers();
        let n = ordered.len();
        let data: Vec<Vec<f64>> = (0..n).map(|i| ordered[(i * 67) % n].clone()).collect();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let planted_outliers: Vec<usize> = (0..n).filter(|i| (i * 67) % n >= 200).collect();
        let eval = model().evaluator();
        let engine = engine(20);
        let mr = od_jobs(&engine, &eval, &rows, OutlierMethod::Mvb, 0.001, 2).unwrap();
        for &o in &planted_outliers {
            assert_eq!(mr[o], -1, "planted outlier {o} survived");
        }
        let inliers = mr.iter().filter(|&&a| a == 0).count();
        assert!(inliers >= 180, "only {inliers} inliers");
        // Job accounting: ball stats + means + covariances + OD = 4 jobs.
        assert_eq!(engine.cluster_metrics().num_jobs(), 4);
    }
}
