//! EM as MapReduce jobs (paper Section 5.4).
//!
//! * **Initialization** — two rounds of mean/covariance jobs: first over
//!   the cluster cores' support sets, then including the points attached
//!   to their Mahalanobis-nearest core.
//! * **Iteration** — two jobs per EM step, after Chu et al. (NIPS 2006):
//!   job A accumulates the weighted linear sums `l_C`, weights `w_C`,
//!   `w_C2` (new means); job B accumulates the scatter around the *new*
//!   means (new covariances). Both use responsibilities under the
//!   previous parameters.

use crate::cores::ClusterCore;
use crate::em::{
    finish_components, support_set_accumulators, DensityEvaluator, EstepScratch, MixtureModel,
};
use crate::mr::AccMsg;
use p3c_linalg::CovarianceAccumulator;
use p3c_mapreduce::{Emitter, Engine, Mapper, MrError, Reducer};
use std::sync::Arc;

/// Reducer merging per-split covariance accumulators of one cluster.
pub(crate) struct AccReducer;
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
pub(crate) fn emit_accs(accs: Vec<CovarianceAccumulator>, out: &mut Emitter<usize, AccMsg>) {
    for (c, acc) in accs.into_iter().enumerate() {
        if acc.count() > 0 {
            out.emit(c, AccMsg(acc));
        }
    }
}

/// Reducer for the EM step: merges accumulators and sums the per-split
/// log-likelihood contributions riding along in the value tuples.
struct EmStepReducer;
impl Reducer<usize, (AccMsg, f64), (usize, AccMsg, f64)> for EmStepReducer {
    fn reduce(&self, key: &usize, values: Vec<(AccMsg, f64)>, out: &mut Vec<(usize, AccMsg, f64)>) {
        let mut iter = values.into_iter();
        let (AccMsg(mut first), mut loglik) = iter.next().expect("group nonempty");
        for (AccMsg(acc), ll) in iter {
            first.merge(&acc);
            loglik += ll;
        }
        out.push((*key, AccMsg(first), loglik));
    }
}

/// Mapper: per-cluster support-set statistics of one split (round 1 of
/// the EM initialization).
struct CoreStatsMapper {
    cores: Arc<Vec<ClusterCore>>,
    arel: Arc<Vec<usize>>,
}

impl<'a> Mapper<&'a [f64], usize, AccMsg> for CoreStatsMapper {
    fn map_split(&self, split: &[&'a [f64]], out: &mut Emitter<usize, AccMsg>) {
        let accs = support_set_accumulators(&self.cores, split, &self.arel, |_| {});
        emit_accs(accs, out);
    }
}

/// Mapper: attach points covered by *no* core to the Mahalanobis-nearest
/// component (round 2 of the EM initialization).
struct AttachMapper {
    cores: Arc<Vec<ClusterCore>>,
    eval: Arc<DensityEvaluator>,
}

impl<'a> Mapper<&'a [f64], usize, AccMsg> for AttachMapper {
    fn map_split(&self, split: &[&'a [f64]], out: &mut Emitter<usize, AccMsg>) {
        let d = self.eval.arel_len();
        let mut accs: Vec<CovarianceAccumulator> = (0..self.eval.num_components())
            .map(|_| CovarianceAccumulator::new(d))
            .collect();
        // The split's uncovered points, in row order, are one block of
        // the attach scan.
        let mut block = Vec::new();
        for row in split {
            if !self.cores.iter().any(|core| core.signature.contains(row)) {
                self.eval.project_append(row, &mut block);
            }
        }
        self.eval
            .attach_block(&block, &mut EstepScratch::new(), &mut accs);
        emit_accs(accs, out);
    }
}

/// Mapper for one EM step: accumulates responsibility-weighted moments.
/// One pass computes both the job-A statistics (linear sums and weights)
/// and the job-B scatter; the driver still charges two jobs to match the
/// paper's accounting — see [`em_fit_mr`].
struct EmStepMapper {
    eval: Arc<DensityEvaluator>,
}

impl<'a> Mapper<&'a [f64], usize, (AccMsg, f64)> for EmStepMapper {
    fn map_split(&self, split: &[&'a [f64]], out: &mut Emitter<usize, (AccMsg, f64)>) {
        // The projected split is one block of the E-step: the kernel's
        // log-likelihood adds point-ascending over the split and each
        // accumulator receives its points in row order.
        let proj = self.eval.project_block(split);
        let (accs, loglik) = self.eval.estep_block(&proj, &mut EstepScratch::new());
        let k = accs.len();
        for (c, acc) in accs.into_iter().enumerate() {
            if acc.count() > 0 {
                out.emit(c, (AccMsg(acc), 0.0));
            }
        }
        // The split's log-likelihood contribution rides under a dedicated
        // key one past the last cluster id.
        out.emit(k, (AccMsg(CovarianceAccumulator::new(0)), loglik));
    }
}

/// Runs the two EM-initialization rounds as MR jobs, returning the
/// initial mixture — the MR analogue of
/// [`crate::em::initialize_from_cores`].
pub fn initialize_from_cores_mr(
    engine: &Engine,
    cores: &[ClusterCore],
    rows: &[&[f64]],
    arel: &[usize],
) -> Result<MixtureModel, MrError> {
    assert!(
        !cores.is_empty(),
        "EM initialization needs at least one core"
    );
    let k = cores.len();
    let d = arel.len();
    let cores_arc = Arc::new(cores.to_vec());
    let arel_arc = Arc::new(arel.to_vec());
    let cache = cores
        .iter()
        .map(|c| 4 + c.signature.len() * 32)
        .sum::<usize>();

    // Round 1: support-set statistics.
    let round1 = engine.run_with_cache(
        "p3c-em-init-support-stats",
        rows,
        cache,
        &CoreStatsMapper {
            cores: Arc::clone(&cores_arc),
            arel: Arc::clone(&arel_arc),
        },
        &AccReducer,
    )?;
    let mut accs: Vec<CovarianceAccumulator> =
        (0..k).map(|_| CovarianceAccumulator::new(d)).collect();
    for (c, AccMsg(acc)) in round1.output {
        accs[c].merge(&acc);
    }
    let model1 = MixtureModel {
        arel: arel.to_vec(),
        components: finish_components(&accs),
    };

    // Round 2: attach uncovered points to their nearest component.
    let eval = Arc::new(model1.evaluator());
    let round2 = engine.run_with_cache(
        "p3c-em-init-attach-outliers",
        rows,
        cache + d * d * 8 * k,
        &AttachMapper {
            cores: cores_arc,
            eval,
        },
        &AccReducer,
    )?;
    for (c, AccMsg(acc)) in round2.output {
        accs[c].merge(&acc);
    }
    Ok(MixtureModel {
        arel: arel.to_vec(),
        components: finish_components(&accs),
    })
}

/// Result of the MR EM loop.
pub struct MrEmFit {
    /// The fitted mixture.
    pub model: MixtureModel,
    /// Log-likelihood after each iteration.
    pub loglik_history: Vec<f64>,
    /// Iterations run before convergence or the cap.
    pub iterations: usize,
}

/// Runs EM iterations as MR jobs until convergence or `max_iters`.
///
/// The statistics of one step are gathered in a single data pass, but the
/// paper's decomposition costs two jobs per step (means job + covariance
/// job); we charge the second job explicitly with a zero-input marker so
/// the engine's job ledger matches the paper's accounting.
pub fn em_fit_mr(
    engine: &Engine,
    init: MixtureModel,
    rows: &[&[f64]],
    max_iters: usize,
    tol: f64,
) -> Result<MrEmFit, MrError> {
    let mut model = init;
    let k = model.components.len();
    let d = model.arel.len();
    let mut history: Vec<f64> = Vec::new();
    let mut iterations = 0;
    for _ in 0..max_iters {
        iterations += 1;
        let eval = Arc::new(model.evaluator());
        let cache = d * d * 8 * k;
        let result = engine.run_with_cache(
            "p3c-em-step-means",
            rows,
            cache,
            &EmStepMapper { eval },
            &EmStepReducer,
        )?;
        // The paper's second job of the step (covariances given the new
        // means). Our accumulators already carry the scatter, so the job
        // is a bookkeeping no-op over an empty input.
        engine.run_map_only(
            "p3c-em-step-covariances",
            &[] as &[u8],
            &|_r: &[u8], _o: &mut Emitter<(), ()>| {},
        )?;
        let mut accs: Vec<CovarianceAccumulator> =
            (0..k).map(|_| CovarianceAccumulator::new(d)).collect();
        let mut loglik = 0.0;
        for (c, AccMsg(acc), ll) in result.output {
            if c < k {
                accs[c].merge(&acc);
            } else {
                loglik += ll;
            }
        }
        // Convergence is checked *before* the M-step (matching
        // [`crate::em::em_fit_threads`]): on convergence the returned
        // model is the one whose log-likelihood is `history.last()`,
        // with no trailing M-step applied. The step's two jobs already
        // ran, so the job ledger still charges two per iteration.
        let converged = history
            .last()
            .map(|&prev| (loglik - prev).abs() <= tol * prev.abs().max(1.0))
            .unwrap_or(false);
        history.push(loglik);
        if converged {
            break;
        }
        model = MixtureModel {
            arel: model.arel,
            components: finish_components(&accs),
        };
    }
    Ok(MrEmFit {
        model,
        loglik_history: history,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em::{em_fit, initialize_from_cores};
    use crate::types::{Interval, Signature};
    use p3c_mapreduce::MrConfig;

    fn two_blob_rows() -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        for i in 0..150 {
            let t = (i as f64) / 150.0 * 0.08;
            rows.push(vec![0.16 + t, 0.24 - t]);
            rows.push(vec![0.76 + t, 0.84 - t]);
        }
        rows
    }

    fn blob_cores() -> Vec<ClusterCore> {
        let a = Signature::new(vec![Interval::new(0, 1, 2, 10), Interval::new(1, 1, 2, 10)]);
        let b = Signature::new(vec![Interval::new(0, 7, 8, 10), Interval::new(1, 7, 8, 10)]);
        vec![
            ClusterCore {
                signature: a,
                support: 150.0,
                expected: 1.0,
            },
            ClusterCore {
                signature: b,
                support: 150.0,
                expected: 1.0,
            },
        ]
    }

    #[test]
    fn mr_initialization_matches_serial() {
        let data = two_blob_rows();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let engine = Engine::new(MrConfig {
            split_size: 41,
            ..MrConfig::default()
        });
        let mr = initialize_from_cores_mr(&engine, &blob_cores(), &rows, &[0, 1]).unwrap();
        let serial = initialize_from_cores(&blob_cores(), &rows, &[0, 1]);
        for (cm, cs) in mr.components.iter().zip(&serial.components) {
            for (a, b) in cm.mean.iter().zip(&cs.mean) {
                assert!((a - b).abs() < 1e-9, "means differ");
            }
            assert!((cm.weight - cs.weight).abs() < 1e-9);
            for i in 0..2 {
                for j in 0..2 {
                    assert!((cm.cov[(i, j)] - cs.cov[(i, j)]).abs() < 1e-9);
                }
            }
        }
        assert_eq!(engine.cluster_metrics().num_jobs(), 2);
    }

    #[test]
    fn mr_em_converges_like_serial() {
        let data = two_blob_rows();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let engine = Engine::new(MrConfig {
            split_size: 50,
            ..MrConfig::default()
        });
        let init_mr = initialize_from_cores_mr(&engine, &blob_cores(), &rows, &[0, 1]).unwrap();
        let init_serial = initialize_from_cores(&blob_cores(), &rows, &[0, 1]);
        let fit_mr = em_fit_mr(&engine, init_mr, &rows, 5, 1e-8).unwrap();
        let fit_serial = em_fit(init_serial, &rows, 5, 1e-8);
        for (cm, cs) in fit_mr
            .model
            .components
            .iter()
            .zip(&fit_serial.model.components)
        {
            for (a, b) in cm.mean.iter().zip(&cs.mean) {
                assert!((a - b).abs() < 1e-6, "EM means diverge: {a} vs {b}");
            }
        }
        // Two jobs per iteration, as the paper prescribes.
        let em_jobs = engine
            .cluster_metrics()
            .jobs()
            .iter()
            .filter(|j| j.job_name.starts_with("p3c-em-step"))
            .count();
        assert_eq!(em_jobs, 2 * fit_mr.iterations);
    }

    #[test]
    fn mr_em_loglik_is_monotone() {
        let data = two_blob_rows();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let engine = Engine::with_defaults();
        let init = initialize_from_cores_mr(&engine, &blob_cores(), &rows, &[0, 1]).unwrap();
        let fit = em_fit_mr(&engine, init, &rows, 6, 0.0).unwrap();
        for w in fit.loglik_history.windows(2) {
            assert!(w[1] >= w[0] - 1e-3, "loglik fell: {:?}", fit.loglik_history);
        }
    }
}
