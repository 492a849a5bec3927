//! One function per figure/table of the paper's evaluation (Section 7).

use crate::report::{f3, secs, Report};
use crate::Scale;
use p3c_bow::{Bow, BowConfig, BowVariant};
use p3c_core::config::{BinRuleChoice, OutlierMethod, P3cParams};
use p3c_core::mr::{P3cPlusMr, P3cPlusMrLight};
use p3c_core::p3c::P3c;
use p3c_core::p3cplus::{P3cPlus, P3cPlusLight};
use p3c_datagen::{colon_like, generate, ColonSpec, SyntheticSpec};
use p3c_dataset::Clustering;
use p3c_eval::{e4sc, label_accuracy};
use p3c_mapreduce::{Engine, MrConfig};
use p3c_stats::PoissonTest;
use std::time::Instant;

/// The experiment parameter preset (paper Section 7.3, tuned for the
/// scaled-down data sizes: the Poisson level uses the safe small default
/// rather than the cluster-tuned 0.01, and EM is capped at 5 iterations).
fn experiment_params() -> P3cParams {
    P3cParams {
        em_max_iters: 5,
        ..P3cParams::default()
    }
}

fn engine() -> Engine {
    Engine::new(MrConfig {
        num_reducers: 8,
        split_size: 8192,
        ..MrConfig::default()
    })
}

fn spec(scale: &Scale, n: usize, k: usize, noise: f64, seed_off: u64) -> SyntheticSpec {
    SyntheticSpec {
        n,
        d: scale.dims,
        num_clusters: k,
        noise_fraction: noise,
        max_cluster_dims: 10.min(scale.dims),
        seed: scale.seed + seed_off,
        ..SyntheticSpec::default()
    }
}

// ------------------------------------------------------------------ fig1 --

/// Figure 1: the power of the Poisson significance test against a fixed
/// 1% relative deviation, for growing µ — the probability that a
/// hyperrectangle holding 101%·µ objects is flagged as significant. The
/// saturation of this curve motivates the effect-size test.
pub fn fig1(_scale: &Scale) -> Report {
    let alpha = 0.01;
    let mut report = Report::new(
        "fig1",
        "Power of the Poisson test at a fixed 1% deviation (α = 0.01)",
        &["mu", "P(reject H0; true mean = 1.01µ)"],
    );
    for &mu in &[
        100.0,
        1_000.0,
        5_000.0,
        10_000.0,
        25_000.0,
        50_000.0,
        100_000.0,
        250_000.0,
        500_000.0f64,
    ] {
        // Critical value: smallest k with P(X ≥ k | µ) < α.
        let mut crit = mu.ceil();
        while PoissonTest::tail_prob_exact(crit, mu) >= alpha {
            crit += (mu.sqrt() * 0.05).max(1.0).floor();
        }
        // Power: probability that Poisson(1.01µ) reaches the critical value.
        let power = PoissonTest::tail_prob_exact(crit, 1.01 * mu);
        report.push_row(vec![format!("{mu:.0}"), f3(power)]);
    }
    report.push_note(
        "Paper Figure 1: the power approaches 1 for large data sets, so a 1% \
         deviation is always 'significant' — hence P3C+'s effect-size test.",
    );
    report
}

// ------------------------------------------------------------------ fig4 --

/// Figure 4: E4SC of naive vs MVB outlier detection across DB sizes,
/// noise levels 5/10/20 % and 3/5/7 clusters.
pub fn fig4(scale: &Scale) -> Report {
    let mut report = Report::new(
        "fig4",
        "Naive vs MVB outlier detection (E4SC, higher is better)",
        &[
            "noise",
            "clusters",
            "db_size",
            "E4SC naive",
            "E4SC MVB",
            "E4SC MCD (ext)",
        ],
    );
    let sizes = [scale.size(10_000), scale.size(30_000), scale.size(100_000)];
    for &noise in &[0.05, 0.10, 0.20] {
        for &k in &[3usize, 5, 7] {
            for &n in &sizes {
                let data = generate(&spec(scale, n, k, noise, k as u64));
                let naive = P3cPlus::new(P3cParams {
                    outlier: OutlierMethod::Naive,
                    ..experiment_params()
                })
                .cluster(&data.dataset);
                let mvb = P3cPlus::new(P3cParams {
                    outlier: OutlierMethod::Mvb,
                    ..experiment_params()
                })
                .cluster(&data.dataset);
                let mcd = P3cPlus::new(P3cParams {
                    outlier: OutlierMethod::Mcd,
                    ..experiment_params()
                })
                .cluster(&data.dataset);
                report.push_row(vec![
                    format!("{:.0}%", noise * 100.0),
                    k.to_string(),
                    n.to_string(),
                    f3(e4sc(&naive.clustering, &data.ground_truth)),
                    f3(e4sc(&mvb.clustering, &data.ground_truth)),
                    f3(e4sc(&mcd.clustering, &data.ground_truth)),
                ]);
            }
        }
    }
    report.push_note("Paper Figure 4: MVB beats naive OD in nearly every cell.");
    report.push_note(
        "The MCD column is this repo's extension — the concentration-based \
         robust estimator the paper leaves unevaluated (end of Section 7.4.1).",
    );
    report
}

// ------------------------------------------------------------------ fig5 --

/// Figure 5: number of cluster cores vs Poisson threshold, for the plain
/// Poisson test and the Combined (Poisson + effect size) test, with and
/// without redundancy filtering. 5 hidden clusters, 20 % noise.
pub fn fig5(scale: &Scale) -> Report {
    let mut report = Report::new(
        "fig5",
        "Cluster cores vs Poisson threshold (5 hidden clusters, 20% noise)",
        &[
            "db_size",
            "threshold",
            "poisson (no filter)",
            "combined (no filter)",
            "poisson (filtered)",
            "combined (filtered)",
        ],
    );
    let thresholds: [f64; 8] = [1e-140, 1e-100, 1e-80, 1e-60, 1e-40, 1e-20, 1e-5, 1e-3];
    for &n in &[scale.size(10_000), scale.size(50_000)] {
        let data = generate(&spec(scale, n, 5, 0.2, 55));
        for &alpha in &thresholds {
            let mut cells = vec![n.to_string(), format!("{alpha:.0e}")];
            let mut filtered = Vec::new();
            for use_effect in [false, true] {
                let params = P3cParams {
                    alpha_poisson: alpha,
                    use_effect_size: use_effect,
                    ..experiment_params()
                };
                let result = P3cPlusLight::new(params).cluster(&data.dataset);
                // maximal = before the redundancy filter; cores = after.
                cells.push(result.stats.core_gen.maximal.to_string());
                filtered.push(result.stats.cores.to_string());
            }
            cells.extend(filtered);
            report.push_row(cells);
        }
    }
    report.push_note(
        "Paper Figure 5: the plain Poisson test overestimates cores at loose \
         thresholds, worse for larger data; the combined test stabilizes, and \
         redundancy filtering pins the count at the number of hidden clusters.",
    );
    report
}

// ------------------------------------------------------------------ fig6 --

/// The four large-scale competitors of Figures 6–7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    BowLight,
    BowMvb,
    MrLight,
    MrMvb,
    MrNaive,
}

impl Algo {
    pub fn label(self) -> &'static str {
        match self {
            Algo::BowLight => "BoW (Light)",
            Algo::BowMvb => "BoW (MVB)",
            Algo::MrLight => "MR (Light)",
            Algo::MrMvb => "MR (MVB)",
            Algo::MrNaive => "MR (Naive)",
        }
    }
}

/// Runs one algorithm on a dataset, returning the clustering and runtime.
pub fn run_algo(
    algo: Algo,
    data: &p3c_dataset::Dataset,
    sample_size: usize,
) -> (Clustering, std::time::Duration) {
    let eng = engine();
    let start = Instant::now();
    let clustering = match algo {
        Algo::BowLight | Algo::BowMvb => {
            let variant = if algo == Algo::BowLight {
                BowVariant::Light
            } else {
                BowVariant::Mvb
            };
            let config = BowConfig {
                num_partitions: 8,
                sample_size,
                variant,
                params: experiment_params(),
                ..BowConfig::default()
            };
            Bow::new(&eng, config)
                .cluster(data)
                .expect("bow run")
                .clustering
        }
        Algo::MrLight => {
            P3cPlusMrLight::new(&eng, experiment_params())
                .cluster(data)
                .expect("mr light run")
                .clustering
        }
        Algo::MrMvb => {
            P3cPlusMr::new(
                &eng,
                P3cParams {
                    outlier: OutlierMethod::Mvb,
                    ..experiment_params()
                },
            )
            .cluster(data)
            .expect("mr mvb run")
            .clustering
        }
        Algo::MrNaive => {
            P3cPlusMr::new(
                &eng,
                P3cParams {
                    outlier: OutlierMethod::Naive,
                    ..experiment_params()
                },
            )
            .cluster(data)
            .expect("mr naive run")
            .clustering
        }
    };
    (clustering, start.elapsed())
}

/// Figure 6: E4SC of BoW (Light/MVB) vs P3C+-MR (Light/MVB) across
/// database sizes, cluster counts 3/5/7 and noise 0/5/10/20 %.
pub fn fig6(scale: &Scale) -> Report {
    let mut report = Report::new(
        "fig6",
        "Quality (E4SC) of BoW vs P3C+-MR across sizes, clusters and noise",
        &[
            "clusters",
            "noise",
            "db_size",
            "BoW (Light)",
            "BoW (MVB)",
            "MR (Light)",
            "MR (MVB)",
        ],
    );
    let sizes = [scale.size(10_000), scale.size(30_000), scale.size(100_000)];
    let sample = scale.size(2_000);
    // Each cell averages over several dataset draws: with one draw a
    // single unlucky geometry (e.g. the redundancy filter merging the
    // forced-overlap pair) pins an entire curve.
    let seeds_per_cell: u64 = 3;
    for &k in &[3usize, 5, 7] {
        for &noise in &[0.0, 0.05, 0.10, 0.20] {
            for &n in &sizes {
                let mut cells = vec![
                    k.to_string(),
                    format!("{:.0}%", noise * 100.0),
                    n.to_string(),
                ];
                for algo in [Algo::BowLight, Algo::BowMvb, Algo::MrLight, Algo::MrMvb] {
                    let mut total = 0.0;
                    for rep in 0..seeds_per_cell {
                        let data = generate(&spec(scale, n, k, noise, 100 + k as u64 + 31 * rep));
                        let (clustering, _) = run_algo(algo, &data.dataset, sample);
                        total += e4sc(&clustering, &data.ground_truth);
                    }
                    cells.push(f3(total / seeds_per_cell as f64));
                }
                report.push_row(cells);
            }
        }
    }
    report.push_note(
        "Paper Figure 6: the Light variants beat their MVB counterparts; \
         MR (Light) improves (or holds) with growing size while the others decay.",
    );
    report
}

// ------------------------------------------------------------------ fig7 --

/// Figure 7: runtimes of the five algorithm variants vs database size.
pub fn fig7(scale: &Scale) -> Report {
    let mut report = Report::new(
        "fig7",
        "Runtime (seconds) vs database size (5 clusters, 10% noise)",
        &[
            "db_size",
            "BoW (Light)",
            "BoW (MVB)",
            "MR (Light)",
            "MR (MVB)",
            "MR (Naive)",
        ],
    );
    let sizes = [
        scale.size(10_000),
        scale.size(30_000),
        scale.size(100_000),
        scale.size(200_000),
    ];
    let sample = scale.size(2_000);
    for &n in &sizes {
        let data = generate(&spec(scale, n, 5, 0.10, 7));
        let mut cells = vec![n.to_string()];
        for algo in [
            Algo::BowLight,
            Algo::BowMvb,
            Algo::MrLight,
            Algo::MrMvb,
            Algo::MrNaive,
        ] {
            let (_, elapsed) = run_algo(algo, &data.dataset, sample);
            cells.push(secs(elapsed));
        }
        report.push_row(cells);
    }
    report.push_note(
        "Paper Figure 7: BoW scales linearly; P3C+-MR is slowest (EM job \
         chain); MVB adds 10–20% over naive; MR-Light is competitive with \
         BoW (Light).",
    );
    report
}

// ------------------------------------------------------------------ huge --

/// Section 7.5.2's 'one billion points' experiment, scaled: BoW (Light)
/// vs P3C+-MR-Light on the largest data set (paper: 9500 s vs 4300 s).
pub fn huge(scale: &Scale) -> Report {
    let mut report = Report::new(
        "huge",
        "Largest-set head-to-head: BoW (Light) vs P3C+-MR-Light",
        &["algorithm", "db_size", "dims", "runtime_s", "clusters"],
    );
    let n = scale.size(400_000);
    let dims = (scale.dims * 2).max(20);
    let data = generate(&SyntheticSpec {
        n,
        d: dims,
        num_clusters: 5,
        noise_fraction: 0.05,
        max_cluster_dims: 10.min(dims),
        seed: scale.seed + 999,
        ..SyntheticSpec::default()
    });
    // The paper's BoW setting: 100k samples per reducer. At this
    // (scaled) n that pushes BoW into its CPU-bound regime — the
    // per-reducer serial clustering the paper identifies as BoW's
    // bottleneck on the billion-point set.
    let sample = 100_000;
    for algo in [Algo::BowLight, Algo::MrLight] {
        let (clustering, elapsed) = run_algo(algo, &data.dataset, sample);
        report.push_row(vec![
            algo.label().to_string(),
            n.to_string(),
            dims.to_string(),
            secs(elapsed),
            clustering.num_clusters().to_string(),
        ]);
    }
    report.push_note(
        "Paper: on 10⁹ points × 100 dims, BoW (Light) needed >9500 s and \
         P3C+-MR-Light ≈4300 s. Scaled stand-in (DESIGN.md §1).",
    );
    report
}

// ----------------------------------------------------------------- colon --

/// Section 7.6: P3C vs P3C+ accuracy on the colon-cancer-like data set
/// (paper: 67 % vs 71 % on the real microarray data).
pub fn colon(scale: &Scale) -> Report {
    let mut report = Report::new(
        "colon",
        "Label accuracy on the colon-cancer-like data (62 × 2000), mean of 5 draws",
        &["algorithm", "accuracy (mean)", "min", "max"],
    );
    // With only 62 samples the result is draw-sensitive (the paper had
    // one fixed real data set); average over several generator seeds.
    let mut acc_p3c = Vec::new();
    let mut acc_plus = Vec::new();
    for seed in (0..5).map(|i| scale.seed + i) {
        let data = colon_like(&ColonSpec {
            seed,
            ..ColonSpec::default()
        });
        // Tiny n, huge d: loosen the Poisson level the way the original
        // P3C evaluation does for microarray data.
        let p3c = P3c::new(1e-4).cluster(&data.dataset);
        // Both algorithms use Sturges bins here: at n = 62 the FD rule is
        // *coarser* than Sturges (4 vs 7 bins) — its large-n advantage is
        // irrelevant — so fixing the discretization isolates the P3C+
        // model changes (combined test, redundancy filter, MVB, AI
        // proving), which is what Section 7.6 compares.
        let p3cplus = P3cPlus::new(P3cParams {
            alpha_poisson: 1e-4,
            em_max_iters: 5,
            bin_rule: BinRuleChoice::Sturges,
            ..P3cParams::default()
        })
        .cluster(&data.dataset);
        acc_p3c.push(label_accuracy(&p3c.clustering, &data.labels));
        acc_plus.push(label_accuracy(&p3cplus.clustering, &data.labels));
    }
    for (name, accs) in [("P3C", acc_p3c), ("P3C+", acc_plus)] {
        let mean = accs.iter().sum::<f64>() / accs.len() as f64;
        let min = accs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = accs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        report.push_row(vec![name.to_string(), f3(mean), f3(min), f3(max)]);
    }
    report.push_note(
        "Paper Section 7.6: 67% (P3C) vs 71% (P3C+) on the real UCI set; \
         synthetic stand-in, see DESIGN.md §1.",
    );
    report
}

// -------------------------------------------------------------- measures --

/// Section 7.2: the four external measures side by side on one setting.
/// The paper computes E4SC, F1, RNIA and CE but reports only E4SC,
/// arguing F1 is blind to wrong subspaces and CE over-punishes splits;
/// this table lets the reader verify those relationships.
pub fn measures(scale: &Scale) -> Report {
    use p3c_eval::{ce, f1_object, rnia};
    let mut report = Report::new(
        "measures",
        "E4SC vs F1 vs RNIA vs CE (5 clusters, 10% noise)",
        &["algorithm", "E4SC", "F1", "RNIA", "CE"],
    );
    let n = scale.size(30_000);
    let data = generate(&spec(scale, n, 5, 0.10, 7));
    let sample = scale.size(2_000);
    for algo in [Algo::BowLight, Algo::BowMvb, Algo::MrLight, Algo::MrMvb] {
        let (clustering, _) = run_algo(algo, &data.dataset, sample);
        report.push_row(vec![
            algo.label().to_string(),
            f3(e4sc(&clustering, &data.ground_truth)),
            f3(f1_object(&clustering, &data.ground_truth)),
            f3(rnia(&clustering, &data.ground_truth)),
            f3(ce(&clustering, &data.ground_truth)),
        ]);
    }
    report.push_note(
        "Paper Section 7.2: F1 ≥ E4SC (it cannot punish wrong subspaces),          CE ≤ RNIA (one-to-one matching punishes splits), and the E4SC          ordering is the one the paper reports.",
    );
    report
}

// ------------------------------------------------------------------ bins --

/// Section 4.1.1 ablation: Sturges vs Freedman–Diaconis binning.
pub fn bins(scale: &Scale) -> Report {
    let mut report = Report::new(
        "bins",
        "Sturges vs Freedman–Diaconis vs exact-IQR FD binning (P3C+-Light, narrow clusters)",
        &[
            "db_size",
            "bins sturges",
            "bins fd",
            "bins fd-iqr (max)",
            "E4SC sturges",
            "E4SC fd",
            "E4SC fd-iqr",
        ],
    );
    for &base in &[10_000usize, 50_000, 100_000] {
        let n = scale.size(base);
        // The regime Section 4.1.1 targets: clusters narrower than a
        // Sturges bin, which oversmoothing hides or merges.
        let data = generate(&SyntheticSpec {
            min_width: 0.02,
            max_width: 0.05,
            ..spec(scale, n, 5, 0.10, 17)
        });
        let mut cells = vec![n.to_string()];
        let mut quality = Vec::new();
        for rule in [
            BinRuleChoice::Sturges,
            BinRuleChoice::FreedmanDiaconis,
            BinRuleChoice::FreedmanDiaconisIqr,
        ] {
            let params = P3cParams {
                bin_rule: rule,
                ..experiment_params()
            };
            let result = P3cPlusLight::new(params).cluster(&data.dataset);
            cells.push(result.stats.bins.to_string());
            quality.push(f3(e4sc(&result.clustering, &data.ground_truth)));
        }
        cells.extend(quality);
        report.push_row(cells);
    }
    report.push_note(
        "Paper Section 4.1.1 claims FD's finer bins improve accuracy on \
         large n; the fd-iqr column is this repo's extension computing the \
         exact per-attribute IQR the paper skips as too expensive.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_rows_monotone_to_one() {
        let r = fig1(&Scale::smoke());
        assert_eq!(r.rows.len(), 9);
        let probs: Vec<f64> = r.rows.iter().map(|row| row[1].parse().unwrap()).collect();
        for w in probs.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "not monotone: {probs:?}");
        }
        assert!(probs[probs.len() - 1] > 0.9, "tail: {probs:?}");
    }

    #[test]
    fn fig5_smoke() {
        let r = fig5(&Scale::smoke());
        // 2 sizes × 8 thresholds.
        assert_eq!(r.rows.len(), 16);
        // Filtered combined counts must never exceed unfiltered ones.
        for row in &r.rows {
            let unfiltered: usize = row[3].parse().unwrap();
            let filtered: usize = row[5].parse().unwrap();
            assert!(filtered <= unfiltered);
        }
    }

    #[test]
    fn colon_smoke() {
        let r = colon(&Scale::smoke());
        assert_eq!(r.rows.len(), 2);
        for row in &r.rows {
            let acc: f64 = row[1].parse().unwrap();
            assert!((0.0..=1.0).contains(&acc));
        }
    }

    #[test]
    fn bins_smoke() {
        let r = bins(&Scale::smoke());
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            let sturges: usize = row[1].parse().unwrap();
            let fd: usize = row[2].parse().unwrap();
            assert!(fd >= sturges / 2, "fd={fd} sturges={sturges}");
        }
    }

    #[test]
    fn run_algo_all_variants_smoke() {
        let scale = Scale::smoke();
        let data = generate(&spec(&scale, 1500, 2, 0.05, 3));
        for algo in [
            Algo::BowLight,
            Algo::BowMvb,
            Algo::MrLight,
            Algo::MrMvb,
            Algo::MrNaive,
        ] {
            let (clustering, _) = run_algo(algo, &data.dataset, 500);
            assert!(
                clustering.num_clusters() <= 10,
                "{}: runaway clusters",
                algo.label()
            );
        }
    }
}
