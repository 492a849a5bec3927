//! Naive reference implementations, written from the paper's
//! definitions, that the production stages are checked against. Each
//! one works a row at a time over plain vectors, with none of the
//! production structure (prefix buckets, bitmaps, batching), so a
//! mistake the production callers share cannot pass as agreement.
//!
//! Core generation (Algorithm 1) shares only [`SupportTester`], the
//! Poisson and effect-size comparison of one support with one
//! expectation. The outlier oracles share only the per-point distance
//! functions the lane kernels are checked against (`tests/lane_kernels.rs`).

use crate::chunk_median::MEDIAN_CHUNK_POINTS;
use crate::config::P3cParams;
use crate::config::{BinRuleChoice, OutlierMethod};
use crate::cores::{
    generate_cluster_cores, generate_cluster_cores_with, CoreGenResult, LevelCounter,
    SupportTester, MAX_LEVELS,
};
use crate::em::{Component, DensityEvaluator, MixtureModel};
use crate::histogram::build_histograms_columnar_threads;
use crate::mr::coregen::JobCounter;
use crate::outlier::{
    assign_clusters, detect_outliers, detect_outliers_mvb, Ball, BallPass, Estimates, OdRunner,
    PoolRunner, MCD_STEPS,
};
use crate::p3cplus::{bins_per_attribute_columnar, iqr_bins};
use crate::relevance::relevant_intervals;
use crate::support::count_supports_naive;
use crate::types::{Interval, Signature};
use p3c_datagen::{generate, SyntheticSpec};
use p3c_linalg::{Cholesky, CovarianceAccumulator, Matrix};
use p3c_mapreduce::{Engine, MrConfig};
use p3c_stats::ChiSquared;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// What the naive Algorithm 1 establishes.
#[derive(Debug)]
pub(crate) struct NaiveCores {
    /// Candidates counted per level.
    pub candidates_per_level: Vec<usize>,
    /// Signatures proven per level.
    pub proven_per_level: Vec<usize>,
    /// Every proven signature with its support, levels ascending and
    /// sorted within a level.
    pub proven: Vec<(Signature, f64)>,
    /// The proven signatures not strictly inside another proven one, in
    /// `proven` order.
    pub cores: Vec<(Signature, f64)>,
}

/// Algorithm 1 as the paper states it. Level 1 is the relevant
/// intervals; each level is counted by testing every row against every
/// candidate; a candidate is proven when it passes Equation 1; the next
/// level is the all-pairs join of the proven level; cores are the
/// proven signatures no other proven signature strictly contains. There
/// is no level bound and no candidate cap.
pub(crate) fn naive_cluster_cores(
    intervals: &[Interval],
    rows: &[&[f64]],
    params: &P3cParams,
) -> NaiveCores {
    let tester = SupportTester::from_params(params);
    let mut supports: BTreeMap<Signature, f64> = BTreeMap::new();
    let mut out = NaiveCores {
        candidates_per_level: Vec::new(),
        proven_per_level: Vec::new(),
        proven: Vec::new(),
        cores: Vec::new(),
    };
    let mut level: BTreeSet<Signature> = intervals
        .iter()
        .map(|&iv| Signature::new(vec![iv]))
        .collect();
    while !level.is_empty() {
        let candidates: Vec<Signature> = level.into_iter().collect();
        let counts = count_supports_naive(&candidates, rows);
        for (sig, &c) in candidates.iter().zip(&counts) {
            supports.insert(sig.clone(), c as f64);
        }
        let mut proven = Vec::new();
        for (sig, &c) in candidates.iter().zip(&counts) {
            if equation1(&tester, sig, c as f64, rows.len() as f64, &supports) {
                out.proven.push((sig.clone(), c as f64));
                proven.push(sig.clone());
            }
        }
        out.candidates_per_level.push(candidates.len());
        out.proven_per_level.push(proven.len());
        level = join_all_pairs(&proven);
    }
    out.cores = out
        .proven
        .iter()
        .filter(|(s, _)| !out.proven.iter().any(|(t, _)| strictly_inside(s, t)))
        .cloned()
        .collect();
    out
}

/// Equation 1: for every interval `I` of `sig`, `support` is
/// significantly (and for P3C+ strongly) larger than
/// `Supp(sig ∖ {I}) · width(I)`, with `Supp(∅) = n`.
fn equation1(
    tester: &SupportTester,
    sig: &Signature,
    support: f64,
    n: f64,
    supports: &BTreeMap<Signature, f64>,
) -> bool {
    let ivs = sig.intervals();
    (0..ivs.len()).all(|i| {
        let rest: Vec<Interval> = (0..ivs.len()).filter(|&j| j != i).map(|j| ivs[j]).collect();
        let rest_support = if rest.is_empty() {
            n
        } else {
            // Every p-subset of a candidate is proven, so counted.
            supports[&Signature::new(rest)]
        };
        tester.accepts(support, rest_support * ivs[i].width())
    })
}

/// The paper's join: each of the `k(k−1)/2` pairs of proven
/// p-signatures that share p−1 intervals, on p+1 distinct attributes,
/// makes the (p+1)-signature of their union, kept only if every p-subset
/// of it is proven.
fn join_all_pairs(proven: &[Signature]) -> BTreeSet<Signature> {
    let proven_set: BTreeSet<&Signature> = proven.iter().collect();
    let mut next = BTreeSet::new();
    for (i, a) in proven.iter().enumerate() {
        for b in &proven[i + 1..] {
            let union: BTreeSet<Interval> =
                a.intervals().iter().chain(b.intervals()).copied().collect();
            let attrs: BTreeSet<usize> = union.iter().map(|iv| iv.attr).collect();
            if union.len() != a.len() + 1 || attrs.len() != union.len() {
                continue;
            }
            let every_subset_proven = union.iter().all(|left_out| {
                let subset = union.iter().filter(|&iv| iv != left_out).copied();
                proven_set.contains(&Signature::new(subset.collect()))
            });
            if every_subset_proven {
                next.insert(Signature::new(union.into_iter().collect()));
            }
        }
    }
    next
}

/// Whether every interval of `s` is one of `t`'s, and `t` has more.
fn strictly_inside(s: &Signature, t: &Signature) -> bool {
    s.len() < t.len() && s.intervals().iter().all(|iv| t.intervals().contains(iv))
}

/// `n` rows over `d` attributes: uniform noise (splitmix64), except
/// that each `(attributes, rows)` group plants its rows at 0.25 — bin 2
/// of 10 — on all its attributes.
pub(crate) fn planted(d: usize, n: usize, groups: &[(Range<usize>, usize)]) -> Vec<Vec<f64>> {
    let mut state = 7u64;
    let mut uniform = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut data: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| uniform()).collect())
        .collect();
    let mut first = 0;
    for (attrs, count) in groups {
        for row in &mut data[first..first + count] {
            row[attrs.clone()].fill(0.25);
        }
        first += count;
    }
    data
}

/// Bin 2 of 10 on every attribute, as the relevant intervals.
pub(crate) fn bin2(d: usize) -> Vec<Interval> {
    (0..d).map(|a| Interval::new(a, 2, 2, 10)).collect()
}

/// A 5-dim cluster on the last 5 of 12 attributes; the other 7 intervals
/// are each dense on their own rows. Level 1 is proven whole, so the
/// unproven lattice is all of C(12, p) while only the cluster's C(5, p)
/// — sorted last in every level — is ever proven.
pub(crate) fn growing() -> Vec<Vec<f64>> {
    let mut groups: Vec<_> = (0..7).map(|a| (a..a + 1, 200)).collect();
    groups.push((7..12, 300));
    planted(12, 3000, &groups)
}

/// A generated set with the relevant intervals the serial pipelines
/// find on it.
fn generated(num_clusters: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<Interval>) {
    let data = generate(&SyntheticSpec {
        n: 2500,
        d: 12,
        num_clusters,
        noise_fraction: 0.1,
        max_cluster_dims: 5,
        seed,
        ..SyntheticSpec::default()
    })
    .dataset;
    let params = P3cParams::default();
    let bins = bins_per_attribute_columnar(&data, &params);
    let hists =
        build_histograms_columnar_threads(data.len(), data.dim(), data.as_slice(), &bins, 1);
    let intervals = relevant_intervals(&hists.histograms, params.alpha_chi2);
    let rows = data.row_refs().iter().map(|r| r.to_vec()).collect();
    (rows, intervals)
}

/// Asserts that one run of the level loop found what the oracle found.
/// Two divergences are intended: the loop may count levels joined from
/// an unproven basis in which nothing is proven, and the oracle's last
/// level may prove nothing, so trailing zeros are dropped from both
/// per-level lists; and the loop's safety bounds (the level bound, the
/// candidate cap) never bind on these sets, which is asserted instead.
fn assert_matches(run: &CoreGenResult, oracle: &NaiveCores, what: &str) {
    assert_eq!(run.proven, oracle.proven, "{what}: proven");
    let cores: Vec<(Signature, f64)> = run
        .cores
        .iter()
        .map(|c| (c.signature.clone(), c.support))
        .collect();
    assert_eq!(cores, oracle.cores, "{what}: cores");
    let trimmed = |per_level: &[usize]| {
        let mut v = per_level.to_vec();
        while v.last() == Some(&0) {
            v.pop();
        }
        v
    };
    assert_eq!(
        trimmed(&run.stats.proven_per_level),
        trimmed(&oracle.proven_per_level),
        "{what}: proven per level"
    );
    assert_eq!(run.stats.truncated_levels, 0, "{what}: truncated");
    assert!(
        oracle.candidates_per_level.len() <= MAX_LEVELS,
        "{what}: deeper than the level bound"
    );
}

#[test]
fn the_level_loop_equals_the_naive_algorithm_1() {
    let mut sets = vec![
        ("complete 2^6", planted(6, 1000, &[(0..6, 400)]), bin2(6)),
        ("growing", growing(), bin2(12)),
        ("shrinking", planted(12, 2000, &[(0..3, 400)]), bin2(12)),
    ];
    for (name, k, seed) in [("generated k=3", 3, 11), ("generated k=5", 5, 7)] {
        let (data, intervals) = generated(k, seed);
        sets.push((name, data, intervals));
    }
    for (name, data, intervals) in &sets {
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let n = rows.len();
        let oracle = naive_cluster_cores(intervals, &rows, &P3cParams::default());
        assert!(!oracle.cores.is_empty(), "{name}: no cores");
        let singletons: Vec<Signature> =
            intervals.iter().map(|&i| Signature::singleton(i)).collect();
        let engine = Engine::with_defaults();
        let unbounded = P3cParams {
            t_c: usize::MAX,
            ..P3cParams::default()
        };
        let derived = JobCounter::new(&engine, &rows, &unbounded).budget(&singletons);
        for t_c in [0, 1, derived, usize::MAX] {
            let params = P3cParams {
                t_c,
                ..P3cParams::default()
            };
            let what = format!("{name}, t_c = {t_c}");
            // The scan counter counts every level on its own: exactly the
            // oracle's levels.
            let scan = generate_cluster_cores(intervals, &rows, &params);
            assert_matches(&scan, &oracle, &format!("{what}, scan"));
            assert_eq!(
                scan.stats.candidates_per_level, oracle.candidates_per_level,
                "{what}, scan: candidates per level"
            );
            for split_size in [64, n] {
                let engine = Engine::new(MrConfig {
                    split_size,
                    ..MrConfig::default()
                });
                let mut counter = JobCounter::new(&engine, &rows, &params);
                let jobs =
                    generate_cluster_cores_with(intervals, n, &params, &mut counter).unwrap();
                assert_matches(
                    &jobs,
                    &oracle,
                    &format!("{what}, jobs of {split_size} rows"),
                );
            }
        }
    }
}

/// The oracle itself, on a lattice small enough to work by hand: one
/// 2-dim cluster of 300 rows at (0.25, 0.25) among 700 uniform rows on
/// 3 attributes.
#[test]
fn the_naive_algorithm_1_finds_the_planted_pair() {
    let data = planted(3, 1000, &[(0..2, 300)]);
    let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
    let oracle = naive_cluster_cores(&bin2(3), &rows, &P3cParams::default());
    // Levels: the 3 singletons; the pairs of the 2 proven ones (attribute
    // 2 holds about a tenth of the rows, its expectation); their triple
    // is never built.
    assert_eq!(oracle.candidates_per_level, [3, 1]);
    assert_eq!(oracle.proven_per_level, [2, 1]);
    let pair = Signature::new(bin2(2));
    assert_eq!(oracle.cores.len(), 1);
    assert_eq!(oracle.cores[0].0, pair);
    // The 300 planted rows and the uniform rows that fall in bin 2 on
    // both attributes.
    assert!(oracle.cores[0].1 >= 300.0);
}

// ------------------------------------------------- outlier detection --

/// The median by sorting: the middle value, or the mean of the two
/// middle values.
fn sorted_median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

/// Each cluster's ball (paper §5.5) with every median taken per
/// `chunk_rows`-row chunk, then over the chunks as the median of the
/// chunk values each repeated once per member of the chunk; `usize::MAX`
/// takes the exact median over all members. `mcd` `None`: MVB's dimension-wise
/// median center and median Euclidean distance radius. Otherwise MCD's
/// median squared distance under each cluster's estimate there, or
/// under its EM component where there is none.
pub(crate) fn naive_balls(
    eval: &DensityEvaluator,
    rows: &[Vec<f64>],
    hard: &[usize],
    chunk_rows: usize,
    mcd: Option<&Estimates>,
) -> Vec<Option<Ball>> {
    let mut chunk_balls: Vec<Vec<Ball>> = vec![Vec::new(); eval.num_components()];
    let mut y = Vec::new();
    for (chunk, hard) in rows.chunks(chunk_rows).zip(hard.chunks(chunk_rows)) {
        for (c, balls) in chunk_balls.iter_mut().enumerate() {
            let mut members: Vec<Vec<f64>> = Vec::new();
            for (row, &h) in chunk.iter().zip(hard) {
                if h == c {
                    members.push(eval.project(row));
                }
            }
            if members.is_empty() {
                continue;
            }
            let mut center = Vec::new();
            let mut distances = Vec::new();
            if let Some(estimates) = mcd {
                for p in &members {
                    distances.push(match estimates.get(c) {
                        Some(Some((mean, chol))) => chol.mahalanobis_sq_scratch(p, mean, &mut y),
                        _ => eval.mahalanobis_sq_scratch(c, p, &mut y),
                    });
                }
            } else {
                for j in 0..eval.arel_len() {
                    center.push(sorted_median(members.iter().map(|p| p[j]).collect()));
                }
                for p in &members {
                    let mut sq = 0.0;
                    for (a, b) in p.iter().zip(&center) {
                        sq += (a - b) * (a - b);
                    }
                    distances.push(f64::sqrt(sq));
                }
            }
            let radius = sorted_median(distances);
            let members = members.len();
            balls.push(Ball {
                center,
                radius,
                members,
            });
        }
    }
    chunk_balls
        .iter()
        .map(|balls| {
            let dim = balls.first()?.center.len();
            let per_member = |value: &dyn Fn(&Ball) -> f64| {
                let mut all = Vec::new();
                for b in balls {
                    all.extend(std::iter::repeat_n(value(b), b.members));
                }
                sorted_median(all)
            };
            let center = (0..dim).map(|j| per_member(&|b| b.center[j])).collect();
            let radius = per_member(&|b| b.radius);
            let members = balls.iter().map(|b| b.members).sum();
            Some(Ball {
                center,
                radius,
                members,
            })
        })
        .collect()
}

/// MVB's estimates: each cluster's moments over its members inside its
/// ball, pushed one row at a time in row order.
pub(crate) fn naive_in_ball_estimates(
    eval: &DensityEvaluator,
    rows: &[Vec<f64>],
    hard: &[usize],
    balls: &[Option<Ball>],
) -> Estimates {
    let mut accs = vec![CovarianceAccumulator::new(eval.arel_len()); balls.len()];
    for (row, &c) in rows.iter().zip(hard) {
        let x = eval.project(row);
        if let Some(ball) = &balls[c] {
            if p3c_linalg::dist(&x, &ball.center) <= ball.radius + 1e-12 {
                accs[c].push(&x, 1.0);
            }
        }
    }
    accs.iter().map(naive_fit).collect()
}

/// Mean and factor of the unbiased, ridged covariance of `acc`.
fn naive_fit(acc: &CovarianceAccumulator) -> Option<(Vec<f64>, Cholesky)> {
    let mut cov = acc.covariance()?;
    cov.add_ridge(1e-9);
    Some((acc.mean()?, Cholesky::new_regularized(&cov)?))
}

/// Row by row: `-1` where the row's squared distance under its
/// cluster's estimate exceeds `crit`; a cluster without an estimate
/// keeps its rows.
pub(crate) fn naive_verdicts(
    eval: &DensityEvaluator,
    rows: &[Vec<f64>],
    hard: &[usize],
    estimates: &Estimates,
    crit: f64,
) -> Vec<i64> {
    let mut y = Vec::new();
    rows.iter()
        .zip(hard)
        .map(|(row, &c)| match &estimates[c] {
            Some((mean, chol))
                if chol.mahalanobis_sq_scratch(&eval.project(row), mean, &mut y) > crit =>
            {
                -1
            }
            _ => c as i64,
        })
        .collect()
}

/// FastMCD's concentration (Rousseeuw and Van Driessen): from the full
/// set, up to `max_steps` times fit the subset and keep the ⌈n/2⌉
/// points nearest under the fit; then the fit of the last subset.
/// `None` under `d + 2` points.
pub(crate) fn fast_mcd(points: &[Vec<f64>], max_steps: usize) -> Option<(Vec<f64>, Cholesky)> {
    let (n, d) = (points.len(), points.first()?.len());
    if n < d + 2 {
        return None;
    }
    let h = n.div_ceil(2).max(d + 1);
    let fit = |subset: &[usize]| {
        let mut acc = CovarianceAccumulator::new(d);
        for &i in subset {
            acc.push(&points[i], 1.0);
        }
        naive_fit(&acc)
    };
    let mut subset: Vec<usize> = (0..n).collect();
    let mut y = Vec::new();
    for _ in 0..max_steps {
        let (mean, chol) = fit(&subset)?;
        let mut order: Vec<(f64, usize)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (chol.mahalanobis_sq_scratch(p, &mean, &mut y), i))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut next: Vec<usize> = order[..h].iter().map(|&(_, i)| i).collect();
        next.sort_unstable();
        if next == subset {
            break;
        }
        subset = next;
    }
    fit(&subset)
}

/// `n` rows over 3 attributes: three in four in one of two tight blobs
/// on attributes 0 and 2, the rest uniform; and the two-component
/// model over `A_rel = {0, 2}` centred on the blobs.
fn outlier_set(n: usize) -> (Vec<Vec<f64>>, MixtureModel) {
    let mut rows = planted(3, n, &[]);
    for (i, row) in rows.iter_mut().enumerate() {
        let blob = [[0.2, 0.3], [0.7, 0.6]][i % 2];
        if i % 4 != 3 {
            row[0] = blob[0] + 0.1 * (row[0] - 0.5);
            row[2] = blob[1] + 0.1 * (row[2] - 0.5);
        }
    }
    let mut cov = Matrix::identity(2);
    cov[(0, 0)] = 0.01;
    cov[(1, 1)] = 0.01;
    let component = |mean: Vec<f64>| Component {
        mean,
        cov: cov.clone(),
        weight: 0.5,
    };
    let model = MixtureModel {
        arel: vec![0, 2],
        components: vec![component(vec![0.2, 0.3]), component(vec![0.7, 0.6])],
    };
    (rows, model)
}

#[test]
fn pool_chunk_medians_equal_the_naive_chunk_oracle() {
    let chunk = MEDIAN_CHUNK_POINTS;
    let (all, model) = outlier_set(3 * chunk + 5);
    let eval = model.evaluator();
    for n in [1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5] {
        let data = &all[..n];
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let hard = assign_clusters(&eval, &rows);
        let mvb = naive_balls(&eval, data, &hard, chunk, None);
        let em_thresholds = naive_balls(&eval, data, &hard, chunk, Some(&Vec::new()));
        for threads in [1, 2, 8] {
            let what = format!("n = {n}, threads = {threads}");
            let mut runner = PoolRunner {
                eval: &eval,
                rows: &rows,
                hard: &hard,
                threads,
            };
            let Ok(balls) = runner.balls(BallPass::Mvb);
            assert_eq!(balls, mvb, "MVB centers and radii, {what}");
            let Ok(thresholds) = runner.balls(BallPass::Mcd(&[]));
            assert_eq!(thresholds, em_thresholds, "MCD thresholds, {what}");
            // The second concentration step scores under robust estimates.
            let Ok(estimates) = runner.moments(BallPass::Mvb, &balls);
            let Ok(thresholds) = runner.balls(BallPass::Mcd(&estimates));
            let oracle = naive_balls(&eval, data, &hard, chunk, Some(&estimates));
            assert_eq!(thresholds, oracle, "MCD thresholds under MVB, {what}");
        }
    }
}

#[test]
fn global_median_mvb_equals_the_chunk_rule_up_to_one_chunk() {
    let chunk = MEDIAN_CHUNK_POINTS;
    let (all, model) = outlier_set(chunk);
    let eval = model.evaluator();
    let crit = ChiSquared::new(2.0).critical_value(0.001);
    for n in [1, 500, chunk - 1, chunk] {
        let data = &all[..n];
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let hard = assign_clusters(&eval, &rows);
        let balls = naive_balls(&eval, data, &hard, usize::MAX, None);
        let estimates = naive_in_ball_estimates(&eval, data, &hard, &balls);
        let verdicts = naive_verdicts(&eval, data, &hard, &estimates, crit);
        assert_eq!(
            detect_outliers_mvb(&eval, &rows, &hard, 0.001, 2),
            verdicts,
            "n = {n}"
        );
        let mut runner = PoolRunner {
            eval: &eval,
            rows: &rows,
            hard: &hard,
            threads: 2,
        };
        let Ok(chunked) = runner.balls(BallPass::Mvb);
        assert_eq!(chunked, balls, "n = {n}");
        if n > 500 {
            assert!(verdicts.contains(&-1), "n = {n}: no outlier");
        }
    }
}

#[test]
fn a_lone_member_in_a_ragged_chunk_does_not_move_the_estimates() {
    // The 8 193rd row is the only row of its chunk, a member of cluster
    // 0 far from its blob: it weighs one member against the first
    // chunk's thousands, so the first 8 192 verdicts are those of the
    // 8 192-row run, and the far row itself is flagged.
    let chunk = MEDIAN_CHUNK_POINTS;
    let (mut all, model) = outlier_set(chunk);
    all.push(vec![0.0, 0.5, 0.0]);
    let eval = model.evaluator();
    let rows: Vec<&[f64]> = all.iter().map(|r| r.as_slice()).collect();
    let hard = assign_clusters(&eval, &rows);
    assert_eq!(hard[chunk], 0);
    for method in [OutlierMethod::Mvb, OutlierMethod::Mcd] {
        let full = detect_outliers(&eval, &rows[..chunk], &hard[..chunk], method, 0.001, 2, 2);
        let ragged = detect_outliers(&eval, &rows, &hard, method, 0.001, 2, 2);
        assert_eq!(ragged[..chunk], full[..], "{method:?}");
        assert_eq!(ragged[chunk], -1, "{method:?}");
    }
    // The exact-IQR bin rule: two far rows in a ragged chunk leave the
    // quartiles of the full chunk.
    let mut data = planted(3, chunk, &[]);
    let quartiles: Vec<(f64, f64)> = (0..3)
        .map(|j| {
            let column: Vec<f64> = data.iter().map(|r| r[j]).collect();
            p3c_stats::descriptive::quartiles(&column).unwrap()
        })
        .collect();
    data.extend([vec![50.0; 3], vec![60.0; 3]]);
    let n = data.len();
    let params = P3cParams {
        bin_rule: BinRuleChoice::FreedmanDiaconisIqr,
        ..P3cParams::default()
    };
    let expected: Vec<usize> = quartiles
        .iter()
        .map(|(q1, q3)| iqr_bins(n, q3 - q1))
        .collect();
    let data = p3c_dataset::Dataset::from_rows(data);
    assert_eq!(bins_per_attribute_columnar(&data, &params), expected);
}

#[test]
fn threshold_mcd_and_fast_mcd_concentrate_on_the_bulk() {
    // 80 % tight bulk at (0, 0), 20 % contamination at (10, 10), under
    // the plain mean and covariance of all of it (what EM would give):
    // both concentration rules must move the mean onto the bulk.
    let mut points: Vec<Vec<f64>> = (0..80)
        .map(|i| vec![(i % 9) as f64 * 0.01, (i % 7) as f64 * 0.01])
        .collect();
    for i in 0..20 {
        points.push(vec![10.0 + (i % 3) as f64 * 0.01, 10.0]);
    }
    let (fast_mean, _) = fast_mcd(&points, 4).unwrap();
    assert!(fast_mean.iter().all(|&m| m < 0.5), "FastMCD {fast_mean:?}");

    let mut acc = CovarianceAccumulator::new(2);
    for p in &points {
        acc.push(p, 1.0);
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
    let rows: Vec<&[f64]> = points.iter().map(|r| r.as_slice()).collect();
    let hard = vec![0; points.len()];
    let mut runner = PoolRunner {
        eval: &eval,
        rows: &rows,
        hard: &hard,
        threads: 1,
    };
    let mut estimates = Vec::new();
    for _ in 0..MCD_STEPS {
        let pass = BallPass::Mcd(&estimates);
        let Ok(balls) = runner.balls(pass);
        let Ok(next) = runner.moments(pass, &balls);
        estimates = next;
    }
    let (mean, _) = estimates[0].as_ref().unwrap();
    assert!(mean.iter().all(|&m| m < 0.5), "threshold MCD {mean:?}");
    assert!(fast_mcd(&points[..3], 4).is_none(), "n < d + 2 must fail");
}
