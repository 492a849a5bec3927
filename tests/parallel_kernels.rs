//! Bit-identity of the block-parallel serial-path kernels (DESIGN.md
//! §11): the EM E-step ([`PoolRunner`]), the columnar binning scan
//! ([`build_histograms_columnar_threads`]), the EM projection scan
//! ([`project_rows_blocked`]), and the signature-proving pass inside
//! [`generate_cluster_cores`] must produce outputs that are
//! **bit-for-bit identical for every thread count**, because all use
//! the same block structure and merge per-block partials in fixed
//! block-index order regardless of scheduling.
//!
//! Sizes are chosen to exercise arbitrary block boundaries: below one
//! block, exactly one block, one-past-a-boundary, and many blocks with
//! a ragged tail.

use p3c_suite::core::config::P3cParams;
use p3c_suite::core::cores::generate_cluster_cores;
use p3c_suite::core::em::{
    em_fit, em_fit_threads, initialize_from_cores, project_rows_blocked, Component, EmPass,
    EmRunner, MixtureModel, PoolRunner,
};
use p3c_suite::core::histogram::build_histograms_columnar_threads;
use p3c_suite::core::{Interval, Signature};
use p3c_suite::linalg::{CovarianceAccumulator, Matrix};

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

fn accs_bits(accs: &[CovarianceAccumulator]) -> Vec<(u64, Vec<u64>, Vec<u64>)> {
    accs.iter()
        .map(|a| {
            let mean: Vec<u64> = a
                .mean()
                .unwrap_or_default()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let cov = a.covariance_ml();
            let d = a.dim();
            let mut cov_bits = Vec::new();
            if let Some(cov) = cov {
                for i in 0..d {
                    for j in 0..d {
                        cov_bits.push(cov[(i, j)].to_bits());
                    }
                }
            }
            (a.total_weight().to_bits(), mean, cov_bits)
        })
        .collect()
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

#[test]
fn estep_is_bit_identical_across_thread_counts() {
    let model = test_model();
    let eval = model.evaluator();
    let estep = |rows: &[&[f64]], threads| {
        let Ok(step) = PoolRunner::new(rows, threads).run_pass(&EmPass::Estep(&eval));
        (step.accs, step.loglik)
    };
    // Blocks are 512 points: cover sub-block, exact-block, ragged
    // multi-block, and larger ragged cases.
    for n in [1usize, 511, 512, 513, 1000, 2500] {
        let mut next = stream(n as u64 + 7);
        let data: Vec<Vec<f64>> = (0..n).map(|_| vec![0.0, next(), 0.0, next()]).collect();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let (base_accs, base_ll) = estep(&rows, 1);
        for threads in [2usize, 8] {
            let (accs, ll) = estep(&rows, threads);
            assert_eq!(
                ll.to_bits(),
                base_ll.to_bits(),
                "loglik differs at n={n}, threads={threads}"
            );
            assert_eq!(
                accs_bits(&accs),
                accs_bits(&base_accs),
                "accumulators differ at n={n}, threads={threads}"
            );
        }
    }
}

#[test]
fn em_fit_is_bit_identical_across_thread_counts() {
    // Two separable blobs in attributes {1, 3} of a 4-dim dataset.
    let mut next = stream(42);
    let mut data: Vec<Vec<f64>> = Vec::new();
    for i in 0..600 {
        let (cx, cy) = if i % 2 == 0 { (0.2, 0.25) } else { (0.75, 0.8) };
        data.push(vec![
            next(),
            cx + (next() - 0.5) * 0.1,
            next(),
            cy + (next() - 0.5) * 0.1,
        ]);
    }
    let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
    let sig = |a_lo: usize| {
        Signature::new(vec![
            Interval::new(1, a_lo, a_lo + 2, 10),
            Interval::new(3, a_lo, a_lo + 2, 10),
        ])
    };
    let cores = vec![
        p3c_suite::core::cores::ClusterCore {
            signature: sig(1),
            support: 300.0,
            expected: 1.0,
        },
        p3c_suite::core::cores::ClusterCore {
            signature: sig(7),
            support: 300.0,
            expected: 1.0,
        },
    ];
    let init = initialize_from_cores(&cores, &rows, &[1, 3]);
    let base = em_fit(init.clone(), &rows, 10, 1e-6);
    for threads in [2usize, 8] {
        let fit = em_fit_threads(init.clone(), &rows, 10, 1e-6, threads);
        assert_eq!(fit.iterations, base.iterations, "threads={threads}");
        let base_bits: Vec<u64> = base.loglik_history.iter().map(|v| v.to_bits()).collect();
        let bits: Vec<u64> = fit.loglik_history.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits, base_bits,
            "loglik history differs at threads={threads}"
        );
        for (a, b) in fit.model.components.iter().zip(&base.model.components) {
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
            let mean_a: Vec<u64> = a.mean.iter().map(|v| v.to_bits()).collect();
            let mean_b: Vec<u64> = b.mean.iter().map(|v| v.to_bits()).collect();
            assert_eq!(mean_a, mean_b, "means differ at threads={threads}");
            for i in 0..2 {
                for j in 0..2 {
                    assert_eq!(
                        a.cov[(i, j)].to_bits(),
                        b.cov[(i, j)].to_bits(),
                        "cov differs at threads={threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn projection_scan_is_bit_identical_across_thread_counts() {
    // Block size is 1024 rows: cover sub-block, exact-block, ragged
    // multi-block, and a larger ragged case.
    for n in [1usize, 1023, 1024, 1025, 5000] {
        let mut next = stream(n as u64 + 3);
        let data: Vec<Vec<f64>> = (0..n).map(|_| (0..5).map(|_| next()).collect()).collect();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let arel = [3usize, 0, 4];
        let base = project_rows_blocked(&rows, &arel, 1);
        for threads in [2usize, 8] {
            let par = project_rows_blocked(&rows, &arel, threads);
            let base_bits: Vec<u64> = base.iter().map(|v| v.to_bits()).collect();
            let par_bits: Vec<u64> = par.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                par_bits, base_bits,
                "projection differs at n={n}, {threads}"
            );
        }
    }
}

#[test]
fn core_proving_is_bit_identical_across_thread_counts() {
    // Two planted boxes over attributes {0,1,2} of a 4-dim dataset plus
    // uniform background: enough candidates per level that the proving
    // pass spans several 64-candidate blocks at level 1 boundaries.
    let mut next = stream(99);
    let mut data: Vec<Vec<f64>> = Vec::new();
    for i in 0..3000 {
        let row = match i % 3 {
            0 => vec![
                0.15 + next() * 0.15,
                0.15 + next() * 0.15,
                0.15 + next() * 0.15,
                next(),
            ],
            1 => vec![
                0.65 + next() * 0.15,
                0.65 + next() * 0.15,
                0.65 + next() * 0.15,
                next(),
            ],
            _ => vec![next(), next(), next(), next()],
        };
        data.push(row);
    }
    let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
    let mut intervals = Vec::new();
    for attr in 0..3 {
        for lo in 0..9 {
            intervals.push(Interval::new(attr, lo, lo + 1, 10));
        }
    }
    let base = generate_cluster_cores(
        &intervals,
        &rows,
        &P3cParams {
            threads: 1,
            ..P3cParams::default()
        },
    );
    assert!(base.stats.total_proven > 0, "stats: {:?}", base.stats);
    for threads in [2usize, 8] {
        let par = generate_cluster_cores(
            &intervals,
            &rows,
            &P3cParams {
                threads,
                ..P3cParams::default()
            },
        );
        assert_eq!(par.cores, base.cores, "cores differ at threads={threads}");
        let base_proven: Vec<(&Signature, u64)> =
            base.proven.iter().map(|(s, c)| (s, c.to_bits())).collect();
        let par_proven: Vec<(&Signature, u64)> =
            par.proven.iter().map(|(s, c)| (s, c.to_bits())).collect();
        assert_eq!(par_proven, base_proven, "proven differ at {threads}");
        assert_eq!(
            format!("{:?}", par.stats),
            format!("{:?}", base.stats),
            "stats differ at threads={threads}"
        );
    }
}

#[test]
fn columnar_histograms_are_bit_identical_across_thread_counts() {
    // d=4 → 8192 rows per scan block: cover sub-block, multi-block with
    // a ragged tail, and a block-boundary-exact size.
    for (n, d) in [(100usize, 4usize), (8192, 4), (20000, 4), (3000, 7)] {
        let mut next = stream((n + d) as u64);
        let data: Vec<f64> = (0..n * d).map(|_| next()).collect();
        let bins: Vec<usize> = (0..d).map(|j| 5 + j).collect();
        let base = build_histograms_columnar_threads(n, d, &data, &bins, 1);
        for threads in [2usize, 8] {
            let par = build_histograms_columnar_threads(n, d, &data, &bins, threads);
            assert_eq!(
                par, base,
                "histograms differ at n={n}, d={d}, threads={threads}"
            );
        }
    }
}
