//! EM as MapReduce jobs (paper Section 5.4): the [`JobRunner`] through
//! which [`crate::em`]'s one driver — [`crate::em::em_phase`], the
//! two-round initialization and the iteration loop — runs its data
//! passes.
//!
//! Each pass is one job. Its mapper cuts the split into
//! [`EM_BLOCK_POINTS`]-row blocks and emits one [`EmPartial`] per block,
//! computed by the serial pipelines' own `EmPass::block`; every
//! partial goes under one key, so one reducer receives them in split
//! order and folds them with `EmPass::fold`. When `split_size` is a
//! multiple of [`EM_BLOCK_POINTS`] (or the input is one split) the
//! mappers' blocks are the global blocks and the fold runs in global
//! block order — the serial tree, so the model equals `P3cPlus`'s bit
//! for bit. The price is communication: one partial per 512 rows instead
//! of one per split.
//!
//! * **Initialization** — `p3c-em-init-support-stats` (the cores'
//!   support sets), then `p3c-em-init-attach-outliers` (the rows no core
//!   covers, attached to their Mahalanobis-nearest round-1 component).
//! * **Iteration** — two jobs per EM step, after Chu et al. (NIPS 2006):
//!   `p3c-em-step-means` accumulates the responsibility-weighted sums,
//!   and `p3c-em-step-covariances` is the paper's covariance job. The
//!   partials already carry the scatter, so the second job runs over an
//!   empty input and only keeps the ledger at two jobs per step.

use crate::cores::ClusterCore;
use crate::em::{EmPartial, EmPass, EmRunner, EstepScratch, EM_BLOCK_POINTS};
use p3c_mapreduce::{Emitter, Engine, Mapper, MrError, Reducer};

/// The MR [`EmRunner`]: one job per pass over `rows` on `engine`.
pub struct JobRunner<'a> {
    engine: &'a Engine,
    rows: &'a [&'a [f64]],
}

impl<'a> JobRunner<'a> {
    /// Runner whose jobs run on `engine` over `rows`.
    pub fn new(engine: &'a Engine, rows: &'a [&'a [f64]]) -> Self {
        Self { engine, rows }
    }
}

/// Broadcast size of the cores' signatures.
fn cores_cache_bytes(cores: &[ClusterCore]) -> usize {
    cores.iter().map(|c| 4 + c.signature.len() * 32).sum()
}

impl EmRunner for JobRunner<'_> {
    type Error = MrError;

    fn run_pass(&mut self, pass: &EmPass<'_>) -> Result<EmPartial, MrError> {
        let model_bytes = |k: usize, d: usize| d * d * 8 * k;
        let (name, cache) = match *pass {
            EmPass::Support { cores, .. } => {
                ("p3c-em-init-support-stats", cores_cache_bytes(cores))
            }
            EmPass::Attach { cores, eval } => (
                "p3c-em-init-attach-outliers",
                cores_cache_bytes(cores) + model_bytes(eval.num_components(), eval.arel_len()),
            ),
            EmPass::Estep(eval) => (
                "p3c-em-step-means",
                model_bytes(eval.num_components(), eval.arel_len()),
            ),
        };
        let job = PassJob(*pass);
        let result = self
            .engine
            .run_with_cache(name, self.rows, cache, &job, &job)?;
        if let EmPass::Estep(_) = pass {
            self.engine.run_map_only(
                "p3c-em-step-covariances",
                &[] as &[u8],
                &|_r: &[u8], _o: &mut Emitter<(), ()>| {},
            )?;
        }
        Ok(result
            .output
            .into_iter()
            .next()
            .unwrap_or_else(|| pass.fold(&[])))
    }
}

/// Mapper and reducer of one pass's job.
struct PassJob<'p>(EmPass<'p>);

impl<'a> Mapper<&'a [f64], (), EmPartial> for PassJob<'_> {
    fn map_split(&self, split: &[&'a [f64]], out: &mut Emitter<(), EmPartial>) {
        let arel = self.0.arel();
        let mut scratch = EstepScratch::new();
        let mut proj = Vec::with_capacity(EM_BLOCK_POINTS * arel.len());
        for block in split.chunks(EM_BLOCK_POINTS) {
            proj.clear();
            for row in block {
                proj.extend(arel.iter().map(|&a| row[a]));
            }
            out.emit((), self.0.block(block, &proj, &mut scratch));
        }
    }
}

impl Reducer<(), EmPartial, EmPartial> for PassJob<'_> {
    fn reduce(&self, _key: &(), parts: Vec<EmPartial>, out: &mut Vec<EmPartial>) {
        out.push(self.0.fold(&parts));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em::{em_fit, em_fit_with, initialize_from_cores, initialize_with, MixtureModel};
    use crate::types::{Interval, Signature};
    use p3c_mapreduce::MrConfig;

    /// Two blobs in 2D, and every fifth row between them, in no core.
    fn two_blob_rows() -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        for i in 0..750 {
            let t = (i as f64) / 750.0 * 0.08;
            rows.push(vec![0.16 + t, 0.24 - t]);
            rows.push(vec![0.76 + t, 0.84 - t]);
            if i % 5 == 0 {
                rows.push(vec![0.46 + t, 0.5 + t]);
            }
        }
        rows
    }

    fn blob_cores() -> Vec<ClusterCore> {
        let a = Signature::new(vec![Interval::new(0, 1, 2, 10), Interval::new(1, 1, 2, 10)]);
        let b = Signature::new(vec![Interval::new(0, 7, 8, 10), Interval::new(1, 7, 8, 10)]);
        vec![
            ClusterCore {
                signature: a,
                support: 750.0,
                expected: 1.0,
            },
            ClusterCore {
                signature: b,
                support: 750.0,
                expected: 1.0,
            },
        ]
    }

    /// `(weight, mean, cov)` bit patterns of every component.
    fn model_bits(model: &MixtureModel) -> Vec<(u64, Vec<u64>, Vec<u64>)> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        model
            .components
            .iter()
            .map(|c| {
                let d = c.mean.len();
                let cov: Vec<f64> = (0..d * d).map(|e| c.cov[(e / d, e % d)]).collect();
                (c.weight.to_bits(), bits(&c.mean), bits(&cov))
            })
            .collect()
    }

    /// Split sizes whose splits are whole EM blocks: 512, and one split.
    fn block_aligned_engines(n: usize) -> [Engine; 2] {
        [EM_BLOCK_POINTS, n].map(|split_size| {
            Engine::new(MrConfig {
                split_size,
                ..MrConfig::default()
            })
        })
    }

    #[test]
    fn mr_initialization_matches_serial() {
        let data = two_blob_rows();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let serial = initialize_from_cores(&blob_cores(), &rows, &[0, 1]);
        for engine in block_aligned_engines(rows.len()) {
            let mr = initialize_with(&mut JobRunner::new(&engine, &rows), &blob_cores(), &[0, 1])
                .unwrap();
            let split_size = engine.config().split_size;
            assert_eq!(model_bits(&mr), model_bits(&serial), "split {split_size}");
            assert_eq!(engine.cluster_metrics().num_jobs(), 2);
        }
    }

    #[test]
    fn mr_em_converges_like_serial() {
        let data = two_blob_rows();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let init = initialize_from_cores(&blob_cores(), &rows, &[0, 1]);
        let serial = em_fit(init.clone(), &rows, 5, 1e-8);
        for engine in block_aligned_engines(rows.len()) {
            let split_size = engine.config().split_size;
            let mr =
                em_fit_with(&mut JobRunner::new(&engine, &rows), init.clone(), 5, 1e-8).unwrap();
            assert_eq!(
                model_bits(&mr.model),
                model_bits(&serial.model),
                "split {split_size}"
            );
            let bits = |h: &[f64]| h.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(
                bits(&mr.loglik_history),
                bits(&serial.loglik_history),
                "split {split_size}"
            );
            // Two jobs per iteration, as the paper prescribes.
            let em_jobs = engine
                .cluster_metrics()
                .jobs()
                .iter()
                .filter(|j| j.job_name.starts_with("p3c-em-step"))
                .count();
            assert_eq!(em_jobs, 2 * mr.iterations);
        }
    }

    #[test]
    fn mr_em_loglik_is_monotone() {
        let data = two_blob_rows();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let engine = Engine::with_defaults();
        let mut runner = JobRunner::new(&engine, &rows);
        let init = initialize_with(&mut runner, &blob_cores(), &[0, 1]).unwrap();
        let fit = em_fit_with(&mut runner, init, 6, 0.0).unwrap();
        for w in fit.loglik_history.windows(2) {
            assert!(w[1] >= w[0] - 1e-3, "loglik fell: {:?}", fit.loglik_history);
        }
    }
}
