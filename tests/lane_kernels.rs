//! The density kernels against their per-point oracle (DESIGN.md §13).
//!
//! Every stage that scores points against Gaussians — the E-step, the
//! attach round of the EM initialization, hard assignment and the three
//! outlier detectors, serial and as MapReduce jobs — runs one 8-lane
//! block kernel. The functions it is the batched form of
//! ([`DensityEvaluator::responsibilities_scratch`],
//! [`DensityEvaluator::mahalanobis_sq_scratch`],
//! [`DensityEvaluator::assign_scratch`],
//! [`Cholesky::mahalanobis_sq_scratch`]) are the oracle: a plain loop
//! over them, point by point, must reproduce every stage **bit for bit**
//! at every thread count.
//!
//! Sizes exercise the tail contract: fewer points than one lane group
//! (`npts < 8`), every residue `npts mod 8`, and the E-step block
//! boundaries (the 512-point block: one-under, exact, one-over).
//!
//! Dimensions exercise the tiers. The block kernels run the AVX2 tier
//! where the CPU has it (`p3c_linalg::isa`); the per-point oracles are
//! compiled for the baseline tier only. So on an AVX2 machine every test
//! here also compares the two tiers bit for bit, and the generated
//! models at d ∈ {1, 2, 5, 10, 25} cover `mr-full-narrow`'s 10 and the
//! Figure 7 shape's 25 relevant attributes.

use p3c_suite::core::config::OutlierMethod;
use p3c_suite::core::cores::ClusterCore;
use p3c_suite::core::em::{
    em_fit_with, finish_components, initialize_from_cores, initialize_with, Component,
    DensityEvaluator, EmPass, EmRunner, MixtureModel, PoolRunner,
};
use p3c_suite::core::mr::em::JobRunner;
use p3c_suite::core::mr::outlier::od_jobs;
use p3c_suite::core::outlier::{assign_clusters, detect_outliers, MCD_STEPS};
use p3c_suite::core::{Interval, Signature};
use p3c_suite::linalg::{Cholesky, CovarianceAccumulator, Matrix};
use p3c_suite::mapreduce::{Engine, MrConfig};
use p3c_suite::stats::descriptive::median_in_place;
use p3c_suite::stats::ChiSquared;

/// Cheap deterministic value stream (xorshift64*) — no RNG crate needed
/// and stable across platforms.
fn stream(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed.wrapping_mul(2685821657736338717).max(1);
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    }
}

const THREADS: [usize; 3] = [1, 2, 8];

/// Rows per EM block (`EM_BLOCK_POINTS` in `em.rs`).
const BLOCK: usize = 512;

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every raw sum of every accumulator, as bit patterns (the scalar
/// weight sums and the count ride at the end of the vector).
fn accs_bits(accs: &[CovarianceAccumulator]) -> Vec<Vec<u64>> {
    accs.iter()
        .map(|a| {
            let (_, linear, scatter, w, w_sq, count) = a.to_parts();
            let mut all = bits(linear);
            all.extend(bits(scatter));
            all.extend([w.to_bits(), w_sq.to_bits(), count]);
            all
        })
        .collect()
}

/// `(weight, mean, cov)` bit patterns of every component.
fn model_bits(model: &MixtureModel) -> Vec<(u64, Vec<u64>, Vec<u64>)> {
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

fn fresh(k: usize, d: usize) -> Vec<CovarianceAccumulator> {
    (0..k).map(|_| CovarianceAccumulator::new(d)).collect()
}

/// A 3-component mixture over 2 of 4 attributes, away from the trivial
/// identity layout, so projection and per-component solves all matter.
fn test_model() -> MixtureModel {
    let comps = [(0.2, 0.3, 0.45), (0.7, 0.6, 0.35), (0.4, 0.8, 0.2)]
        .iter()
        .map(|&(mx, my, w)| {
            let mut cov = Matrix::identity(2);
            cov[(0, 0)] = 0.02;
            cov[(1, 1)] = 0.03;
            cov[(0, 1)] = 0.005;
            cov[(1, 0)] = 0.005;
            Component {
                mean: vec![mx, my],
                cov,
                weight: w,
            }
        })
        .collect();
    MixtureModel {
        arel: vec![1, 3],
        components: comps,
    }
}

/// Projected dimensionalities of the generated models.
const DIMS: [usize; 5] = [1, 2, 5, 10, 25];

/// A 3-component mixture over the `d` middle attributes of `d + 2`
/// (`arel = 1..=d`): per component a mean in [0.2, 0.8]^d and an AR(1)
/// covariance `s·ρ^|i−j|` with its own scale and correlation, so every
/// triangular solve carries off-diagonal mass.
fn generated_model(d: usize) -> MixtureModel {
    let mut next = stream(d as u64 + 100);
    let components = [(0.02, 0.3, 0.5), (0.03, -0.2, 0.3), (0.015, 0.5, 0.2)]
        .iter()
        .map(|&(s, rho, weight): &(f64, f64, f64)| {
            let mut cov = Matrix::zeros(d, d);
            for i in 0..d {
                for j in 0..d {
                    cov[(i, j)] = s * rho.powi(i.abs_diff(j) as i32);
                }
            }
            Component {
                mean: (0..d).map(|_| 0.2 + 0.6 * next()).collect(),
                cov,
                weight,
            }
        })
        .collect();
    MixtureModel {
        arel: (1..=d).collect(),
        components,
    }
}

/// `n` rows of width `d + 2` around `model`'s means (component `i % 3`),
/// every fifth row uniform noise.
fn generated_rows(model: &MixtureModel, n: usize, seed: u64) -> Vec<Vec<f64>> {
    let d = model.arel.len();
    let mut next = stream(seed);
    (0..n)
        .map(|i| {
            let mean = &model.components[i % 3].mean;
            let mut row: Vec<f64> = (0..d + 2).map(|_| next()).collect();
            if i % 5 != 4 {
                for (v, m) in row[1..=d].iter_mut().zip(mean) {
                    *v = m + (*v - 0.5) * 0.2;
                }
            }
            row
        })
        .collect()
}

/// One core per component of `model`: three bins around the mean on each
/// of its first (up to) three relevant attributes.
fn generated_cores(model: &MixtureModel) -> Vec<ClusterCore> {
    model
        .components
        .iter()
        .map(|c| {
            let intervals = model
                .arel
                .iter()
                .zip(&c.mean)
                .take(3)
                .map(|(&attr, &m)| {
                    let bin = (m * 10.0) as usize;
                    Interval::new(attr, bin.saturating_sub(1), (bin + 1).min(9), 10)
                })
                .collect();
            ClusterCore {
                signature: Signature::new(intervals),
                support: 100.0,
                expected: 1.0,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- E-step --

/// The E-step over one 512-row block, point by point.
fn oracle_estep_block(eval: &DensityEvaluator, block: &[f64]) -> (Vec<CovarianceAccumulator>, f64) {
    let d = eval.arel_len();
    let mut accs = fresh(eval.num_components(), d);
    let (mut resp, mut y) = (Vec::new(), Vec::new());
    let mut loglik = 0.0;
    for x in block.chunks_exact(d) {
        loglik += eval.responsibilities_scratch(x, &mut resp, &mut y);
        for (acc, &r) in accs.iter_mut().zip(&resp) {
            if r > 1e-12 {
                acc.push(x, r);
            }
        }
    }
    (accs, loglik)
}

/// The pool runner's E-step over `rows` at every thread count against
/// the serial contract: per-block oracle partials merged in block order.
fn assert_serial_estep(eval: &DensityEvaluator, rows: &[&[f64]], what: &str) {
    let d = eval.arel_len();
    let mut want = fresh(eval.num_components(), d);
    let mut want_ll = 0.0;
    for block in eval.project_block(rows).chunks(BLOCK * d) {
        let (accs, ll) = oracle_estep_block(eval, block);
        for (total, part) in want.iter_mut().zip(&accs) {
            total.merge(part);
        }
        want_ll += ll;
    }
    for threads in THREADS {
        let Ok(step) = PoolRunner::new(rows, threads).run_pass(&EmPass::Estep(eval));
        let what = format!("{what}, threads={threads}");
        assert_eq!(step.loglik.to_bits(), want_ll.to_bits(), "{what}");
        assert_eq!(accs_bits(&step.accs), accs_bits(&want), "{what}");
    }
}

#[test]
fn serial_estep_equals_the_per_point_loop_at_every_size_and_thread_count() {
    let eval = test_model().evaluator();
    // Every residue mod 8 several times over (including all sizes below
    // one lane group), the block boundaries, and a large ragged case.
    for n in (1usize..=33).chain([511, 512, 513, 2500]) {
        let mut next = stream(n as u64 + 7);
        // `test_model` reads attributes 1 and 3.
        let data: Vec<Vec<f64>> = (0..n).map(|_| vec![0.0, next(), 0.0, next()]).collect();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        assert_serial_estep(&eval, &rows, &format!("n={n}"));
    }
    for d in DIMS {
        let model = generated_model(d);
        let eval = model.evaluator();
        for n in (1usize..=17).chain([511, 512, 513, 1500]) {
            let data = generated_rows(&model, n, n as u64 + d as u64);
            let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
            assert_serial_estep(&eval, &rows, &format!("d={d}, n={n}"));
        }
    }
}

/// Two separable blobs in attributes {1, 3} of a 4-dim dataset — every
/// fifth row uniform noise no core covers — plus the cores that seed EM
/// on them.
fn blob_rows(n: usize) -> Vec<Vec<f64>> {
    let mut next = stream(42);
    (0..n)
        .map(|i| {
            if i % 5 == 4 {
                return vec![next(), next(), next(), next()];
            }
            let (cx, cy) = if i % 2 == 0 { (0.2, 0.25) } else { (0.75, 0.8) };
            vec![
                next(),
                cx + (next() - 0.5) * 0.1,
                next(),
                cy + (next() - 0.5) * 0.1,
            ]
        })
        .collect()
}

fn blob_cores() -> Vec<ClusterCore> {
    let sig = |a_lo: usize| {
        Signature::new(vec![
            Interval::new(1, a_lo, a_lo + 2, 10),
            Interval::new(3, a_lo, a_lo + 2, 10),
        ])
    };
    vec![
        ClusterCore {
            signature: sig(1),
            support: 300.0,
            expected: 1.0,
        },
        ClusterCore {
            signature: sig(7),
            support: 300.0,
            expected: 1.0,
        },
    ]
}

/// The EM iterations with the per-point E-step over the blocks an MR
/// job of `split_size`-row splits computes — each split cut into
/// 512-row blocks — merged in block order from empty accumulators,
/// skipping empty partials; convergence is checked before the M-step.
fn oracle_em_fit(
    init: MixtureModel,
    rows: &[&[f64]],
    split_size: usize,
    max_iters: usize,
    tol: f64,
) -> (Vec<f64>, MixtureModel) {
    let mut model = init;
    let (k, d) = (model.components.len(), model.arel.len());
    let mut history: Vec<f64> = Vec::new();
    for _ in 0..max_iters {
        let eval = model.evaluator();
        let mut accs = fresh(k, d);
        let mut loglik = 0.0;
        for block in rows.chunks(split_size).flat_map(|s| s.chunks(BLOCK)) {
            let (part, ll) = oracle_estep_block(&eval, &eval.project_block(block));
            for (total, acc) in accs.iter_mut().zip(&part) {
                if acc.count() > 0 {
                    total.merge(acc);
                }
            }
            loglik += ll;
        }
        let converged = history
            .last()
            .is_some_and(|&prev| (loglik - prev).abs() <= tol * prev.abs().max(1.0));
        history.push(loglik);
        if converged {
            break;
        }
        model = MixtureModel {
            arel: model.arel,
            components: finish_components(&accs),
        };
    }
    (history, model)
}

/// The MR EM jobs (five iterations, initialized by the MR initialization
/// jobs) against [`oracle_em_fit`] at every thread count.
fn assert_mr_em_job(
    cores: &[ClusterCore],
    rows: &[&[f64]],
    arel: &[usize],
    split_size: usize,
    what: &str,
) {
    for threads in THREADS {
        let engine = Engine::new(MrConfig {
            split_size,
            threads,
            ..MrConfig::default()
        });
        let mut runner = JobRunner::new(&engine, rows);
        let init = initialize_with(&mut runner, cores, arel).unwrap();
        let (want_history, want_model) = oracle_em_fit(init.clone(), rows, split_size, 5, 1e-8);
        let fit = em_fit_with(&mut runner, init, 5, 1e-8).unwrap();
        assert_eq!(
            bits(&fit.loglik_history),
            bits(&want_history),
            "{what}, threads={threads}"
        );
        assert_eq!(
            model_bits(&fit.model),
            model_bits(&want_model),
            "{what}, threads={threads}"
        );
    }
}

#[test]
fn mr_em_job_equals_the_per_point_loop_at_every_split_residue_and_thread_count() {
    let data = blob_rows(600);
    let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
    // Splits of 64..=71 records: every lane-group residue in the mapper's
    // one-block-per-split scan, with a ragged last split; then splits of
    // one and of two blocks, the second one ragged.
    for split_size in (64..=71).chain([BLOCK, 1000]) {
        let what = format!("split_size={split_size}");
        assert_mr_em_job(&blob_cores(), &rows, &[1, 3], split_size, &what);
    }
    for d in DIMS {
        let model = generated_model(d);
        let data = generated_rows(&model, 600, 7 + d as u64);
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        // Lane-group residues 0, 3 and 7 in the mappers' split scans.
        for split_size in [64, 67, 71] {
            let what = format!("d={d}, split_size={split_size}");
            assert_mr_em_job(
                &generated_cores(&model),
                &rows,
                &model.arel,
                split_size,
                &what,
            );
        }
    }
}

// ------------------------------------------------------------ attach/init --

/// Per 512-row block a partial from `block`, then the partials merged in
/// block order from empty accumulators, skipping empty partials.
fn oracle_fold(
    rows: &[&[f64]],
    k: usize,
    d: usize,
    block: impl Fn(&[&[f64]], &mut [CovarianceAccumulator]),
) -> Vec<CovarianceAccumulator> {
    let mut total = fresh(k, d);
    for chunk in rows.chunks(BLOCK) {
        let mut part = fresh(k, d);
        block(chunk, &mut part);
        for (t, acc) in total.iter_mut().zip(&part) {
            if acc.count() > 0 {
                t.merge(acc);
            }
        }
    }
    total
}

/// The two-round initialization, point by point in 512-row blocks: the
/// support-set moments give the round-1 model, then every uncovered point
/// is pushed onto the accumulator of its Mahalanobis-nearest round-1
/// component (first minimum), and that fold is merged into the moments.
fn oracle_initialize(cores: &[ClusterCore], rows: &[&[f64]], arel: &[usize]) -> MixtureModel {
    let (k, d) = (cores.len(), arel.len());
    let project = |row: &[f64]| -> Vec<f64> { arel.iter().map(|&a| row[a]).collect() };
    let mut moments = oracle_fold(rows, k, d, |block, accs| {
        for row in block {
            for (acc, core) in accs.iter_mut().zip(cores) {
                if core.signature.contains(row) {
                    acc.push(&project(row), 1.0);
                }
            }
        }
    });
    let eval = MixtureModel {
        arel: arel.to_vec(),
        components: finish_components(&moments),
    }
    .evaluator();
    let attached = oracle_fold(rows, k, d, |block, accs| {
        let mut y = Vec::new();
        for row in block {
            if cores.iter().any(|core| core.signature.contains(row)) {
                continue;
            }
            let x = project(row);
            let mut nearest = 0;
            let mut best = f64::INFINITY;
            for c in 0..k {
                let dist = eval.mahalanobis_sq_scratch(c, &x, &mut y);
                if dist.total_cmp(&best).is_lt() {
                    nearest = c;
                    best = dist;
                }
            }
            accs[nearest].push(&x, 1.0);
        }
    });
    for (total, acc) in moments.iter_mut().zip(&attached) {
        if acc.count() > 0 {
            total.merge(acc);
        }
    }
    MixtureModel {
        arel: arel.to_vec(),
        components: finish_components(&moments),
    }
}

#[test]
fn initialization_attaches_like_the_per_point_loop() {
    // A fifth of the rows is uncovered: the sizes put every residue
    // mod 8 and the 512-point block boundary into the attach scan.
    for n in (40usize..=80).step_by(5).chain([2555, 2560, 2565, 6000]) {
        let data = blob_rows(n);
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        // Twin cores tie on every distance: the first minimum must win.
        let twins = vec![blob_cores().remove(0); 2];
        for cores in [blob_cores(), twins] {
            let got = initialize_from_cores(&cores, &rows, &[1, 3]);
            let want = oracle_initialize(&cores, &rows, &[1, 3]);
            assert_eq!(model_bits(&got), model_bits(&want), "n={n}");
        }
    }
    for d in DIMS {
        let model = generated_model(d);
        let cores = generated_cores(&model);
        for n in [75usize, 2565] {
            let data = generated_rows(&model, n, 11 + d as u64);
            let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
            let got = initialize_from_cores(&cores, &rows, &model.arel);
            let want = oracle_initialize(&cores, &rows, &model.arel);
            assert_eq!(model_bits(&got), model_bits(&want), "d={d}, n={n}");
        }
    }
}

#[test]
fn serial_and_single_split_mr_initialization_agree_bit_for_bit() {
    // Both sides fold the same 512-row block partials in block order
    // whenever the MR splits are whole blocks — one split, or a multiple
    // of 512 rows — so the models are equal to the last bit on raw data.
    let data = blob_rows(3000);
    let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
    let serial = initialize_from_cores(&blob_cores(), &rows, &[1, 3]);
    for threads in THREADS {
        for split_size in [BLOCK, 4 * BLOCK, 100_000] {
            let engine = Engine::new(MrConfig {
                split_size,
                threads,
                ..MrConfig::default()
            });
            let mut runner = JobRunner::new(&engine, &rows);
            let mr = initialize_with(&mut runner, &blob_cores(), &[1, 3]).unwrap();
            assert_eq!(
                model_bits(&mr),
                model_bits(&serial),
                "split_size={split_size}, threads={threads}"
            );
        }
    }
}

// --------------------------------------------------------------- outliers --

/// Mixture samples near the component means plus far planted points, so
/// the χ² gate fires in both directions.
fn outlier_rows(n: usize) -> Vec<Vec<f64>> {
    let model = test_model();
    let mut next = stream(1337);
    let mut data: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let c = &model.components[i % 3];
            vec![
                next(),
                c.mean[0] + (next() - 0.5) * 0.4,
                next(),
                c.mean[1] + (next() - 0.5) * 0.4,
            ]
        })
        .collect();
    data.push(vec![0.5, 60.0, 0.5, -60.0]);
    data.push(vec![0.5, -45.0, 0.5, 45.0]);
    data
}

type Estimates = Vec<Option<(Vec<f64>, Cholesky)>>;

/// `(mean, Cholesky)` of a robust subset's moments.
fn fit(acc: &CovarianceAccumulator) -> Option<(Vec<f64>, Cholesky)> {
    let mean = acc.mean()?;
    let mut cov = acc.covariance()?;
    cov.add_ridge(1e-9);
    Some((mean, Cholesky::new_regularized(&cov)?))
}

fn oracle_assign(eval: &DensityEvaluator, rows: &[&[f64]]) -> Vec<usize> {
    let (mut x, mut y) = (Vec::new(), Vec::new());
    rows.iter()
        .map(|row| eval.assign_scratch(row, &mut x, &mut y))
        .collect()
}

/// One point's distance under its cluster's robust estimate, or under
/// the EM component itself where there is none.
fn oracle_distance(eval: &DensityEvaluator, estimates: &Estimates, c: usize, x: &[f64]) -> f64 {
    let mut y = Vec::new();
    match &estimates[c] {
        Some((mean, chol)) => chol.mahalanobis_sq_scratch(x, mean, &mut y),
        None => eval.mahalanobis_sq_scratch(c, x, &mut y),
    }
}

/// Final verdicts, point by point; `keep_degenerate` clusters without an
/// estimate keep all their points (the robust detectors), otherwise they
/// are scored under the EM component (naive: pass no estimates at all).
fn oracle_flag(
    eval: &DensityEvaluator,
    rows: &[&[f64]],
    hard: &[usize],
    estimates: &Estimates,
    keep_degenerate: bool,
) -> Vec<i64> {
    let crit = ChiSquared::new(eval.arel_len() as f64).critical_value(0.001);
    rows.iter()
        .zip(hard)
        .map(|(row, &c)| {
            let keep = keep_degenerate && estimates[c].is_none();
            let d2 = oracle_distance(eval, estimates, c, &eval.project(row));
            if !keep && d2 > crit {
                -1
            } else {
                c as i64
            }
        })
        .collect()
}

/// MVB's estimates with exact medians over each cluster (the chunk
/// rule's, on inputs of at most one chunk): the dimension-wise median
/// center, the median distance radius, and the moments of the members
/// inside the ball, row by row.
fn oracle_mvb_estimates(eval: &DensityEvaluator, rows: &[&[f64]], hard: &[usize]) -> Estimates {
    let (k, d) = (eval.num_components(), eval.arel_len());
    let mut accs = fresh(k, d);
    for (c, acc) in accs.iter_mut().enumerate() {
        let members: Vec<Vec<f64>> = (0..rows.len())
            .filter(|&i| hard[i] == c)
            .map(|i| eval.project(rows[i]))
            .collect();
        if members.is_empty() {
            continue;
        }
        let center: Vec<f64> = (0..d)
            .map(|j| median_in_place(&mut members.iter().map(|p| p[j]).collect::<Vec<_>>()))
            .collect();
        let dist = |p: &[f64]| {
            let mut sq = 0.0;
            for (a, b) in p.iter().zip(&center) {
                sq += (a - b) * (a - b);
            }
            f64::sqrt(sq)
        };
        let radius = median_in_place(&mut members.iter().map(|p| dist(p)).collect::<Vec<_>>());
        for p in &members {
            if dist(p) <= radius + 1e-12 {
                acc.push(p, 1.0);
            }
        }
    }
    accs.iter()
        .map(|acc| if acc.count() > 0 { fit(acc) } else { None })
        .collect()
}

/// The MCD estimates on an input of at most one chunk after `steps`
/// concentration steps from the EM components: per cluster the median distance is the
/// threshold, the moments of the points at or below it (with the
/// ball's `1e-12` of slack) the next fit.
fn oracle_mcd_job_estimates(
    eval: &DensityEvaluator,
    rows: &[&[f64]],
    hard: &[usize],
    steps: usize,
) -> Estimates {
    let k = eval.num_components();
    let mut estimates: Estimates = vec![None; k];
    for _ in 0..steps {
        let dists: Vec<f64> = rows
            .iter()
            .zip(hard)
            .map(|(row, &c)| oracle_distance(eval, &estimates, c, &eval.project(row)))
            .collect();
        let mut accs = fresh(k, eval.arel_len());
        for (c, acc) in accs.iter_mut().enumerate() {
            let mut own: Vec<f64> = (0..rows.len())
                .filter(|&i| hard[i] == c)
                .map(|i| dists[i])
                .collect();
            if own.is_empty() {
                continue;
            }
            let threshold = median_in_place(&mut own);
            for (i, row) in rows.iter().enumerate() {
                if hard[i] == c && dists[i] <= threshold + 1e-12 {
                    acc.push(&eval.project(row), 1.0);
                }
            }
        }
        estimates = accs
            .iter()
            .map(|acc| if acc.count() > 0 { fit(acc) } else { None })
            .collect();
    }
    estimates
}

#[test]
fn outlier_scans_equal_the_per_point_loop_serial_and_mr() {
    let eval = test_model().evaluator();
    // 302 and 307 rows: different residues in every per-cluster block.
    for n in [300usize, 305] {
        let data = outlier_rows(n);
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        assert_outlier_scans(&eval, &rows, &format!("n={n}"));
    }
}

/// Every serial and MR outlier scan over `rows` against the per-point
/// oracles, for any evaluator.
fn assert_outlier_scans(eval: &DensityEvaluator, rows: &[&[f64]], what: &str) {
    let (k, arel_len) = (eval.num_components(), eval.arel_len());
    let hard = oracle_assign(eval, rows);
    assert_eq!(assign_clusters(eval, rows), hard, "{what}");
    let naive = oracle_flag(eval, rows, &hard, &vec![None; k], false);
    let mvb_estimates = oracle_mvb_estimates(eval, rows, &hard);
    let mvb = oracle_flag(eval, rows, &hard, &mvb_estimates, true);
    let mcd_estimates = oracle_mcd_job_estimates(eval, rows, &hard, MCD_STEPS);
    let mcd = oracle_flag(eval, rows, &hard, &mcd_estimates, true);
    let oracles = [
        (OutlierMethod::Naive, naive),
        (OutlierMethod::Mvb, mvb),
        (OutlierMethod::Mcd, mcd),
    ];
    for (_, verdicts) in &oracles {
        assert!(
            verdicts.contains(&-1) && verdicts.iter().any(|&v| v >= 0),
            "{what}"
        );
    }

    for threads in THREADS {
        let engine = |split_size| {
            Engine::new(MrConfig {
                split_size,
                threads,
                ..MrConfig::default()
            })
        };
        for (method, oracle) in &oracles {
            let got = detect_outliers(eval, rows, &hard, *method, 0.001, arel_len, threads);
            assert_eq!(&got, oracle, "serial {method:?}, {what}, threads={threads}");
            // 47-record splits: ragged lane-group tails in every mapper.
            // The robust jobs run on one split, whose chunk statistics
            // are the exact statistics of the oracle.
            let split = if *method == OutlierMethod::Naive {
                47
            } else {
                100_000
            };
            let got = od_jobs(&engine(split), eval, rows, *method, 0.001, arel_len).unwrap();
            assert_eq!(
                &got, oracle,
                "{method:?} OD jobs, {what}, threads={threads}"
            );
        }
    }
}

#[test]
fn outlier_scans_equal_the_per_point_loop_on_generated_models() {
    for d in DIMS {
        let model = generated_model(d);
        let mut data = generated_rows(&model, 300, 13 + d as u64);
        // Far planted points, so the χ² gate fires in both directions.
        data.push(vec![60.0; d + 2]);
        data.push(vec![-45.0; d + 2]);
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        assert_outlier_scans(&model.evaluator(), &rows, &format!("d={d}"));
    }
}
