//! Naive reference implementations, written from the paper's
//! definitions, that the production stages are checked against. Each
//! one works a row at a time over plain vectors, with none of the
//! production structure (prefix buckets, bitmaps, batching), so a
//! mistake the production callers share cannot pass as agreement.
//!
//! Core generation (Algorithm 1) shares only [`SupportTester`], the
//! Poisson and effect-size comparison of one support with one
//! expectation.

use crate::config::P3cParams;
use crate::cores::{
    generate_cluster_cores, generate_cluster_cores_with, CoreGenResult, LevelCounter,
    SupportTester, MAX_LEVELS,
};
use crate::histogram::build_histograms_columnar_threads;
use crate::mr::coregen::JobCounter;
use crate::p3cplus::bins_per_attribute_columnar;
use crate::relevance::relevant_intervals;
use crate::support::count_supports_naive;
use crate::types::{Interval, Signature};
use p3c_datagen::{generate, SyntheticSpec};
use p3c_mapreduce::{Engine, MrConfig};
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
