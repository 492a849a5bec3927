//! Cluster-core generation — the paper's Algorithm 1.
//!
//! Starting from the relevant intervals `Î`, candidates are grown
//! Apriori-style: two proven p-signatures sharing p−1 intervals join into
//! a (p+1)-candidate, which survives only if **every** leave-one-out
//! support test (Equation 1) passes:
//!
//! ```text
//! ∀ I ∈ S:  Supp_exp(S∖{I}, I)  <_p  Supp(S)
//! ```
//!
//! with `Supp_exp(Q, I) = Supp(Q) · width(I)` (Equation 2). P3C+
//! additionally requires the Cohen's d effect size of each comparison to
//! reach `θ_cc` (Section 4.1.2). Cluster cores are the *maximal* proven
//! signatures (Definition 5; extension-maximality is realized as
//! subset-filtering over the complete proven set, as in the original P3C).

use crate::config::P3cParams;
use crate::support::{SupportIndex, SupportTable};
use crate::types::{Interval, Signature};
use p3c_stats::effect::effect_is_strong;
use p3c_stats::PoissonTest;
use std::collections::HashSet;
use std::convert::Infallible;

/// A proven, maximal signature with its support bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterCore {
    /// The core's interval signature.
    pub signature: Signature,
    /// Observed support (rows contained in the signature).
    pub support: f64,
    /// Expected support under global uniformity (Equation 7).
    pub expected: f64,
}

impl ClusterCore {
    /// The interest ratio `Supp / Supp_exp` that orders signatures in the
    /// redundancy filter (Equation 6).
    pub fn interest_ratio(&self) -> f64 {
        if self.expected <= 0.0 {
            f64::INFINITY
        } else {
            self.support / self.expected
        }
    }
}

/// Per-run statistics of the generation process.
#[derive(Debug, Clone, Default)]
pub struct CoreGenStats {
    /// Candidates whose support was counted, per level (level 1 first).
    pub candidates_per_level: Vec<usize>,
    /// Proven signatures per counted level.
    pub proven_per_level: Vec<usize>,
    /// Total proven signatures across levels.
    pub total_proven: usize,
    /// Maximal signatures (before redundancy filtering).
    pub maximal: usize,
    /// Levels truncated by the `max_candidates_per_level` safety valve.
    pub truncated_levels: usize,
}

/// The combined P3C/P3C+ support test: Poisson significance, optionally
/// strengthened by the effect-size threshold.
#[derive(Debug, Clone, Copy)]
pub struct SupportTester {
    poisson: PoissonTest,
    theta_cc: Option<f64>,
}

impl SupportTester {
    /// Tester configured from the pipeline parameters.
    pub fn from_params(params: &P3cParams) -> Self {
        Self {
            poisson: PoissonTest::new(params.alpha_poisson),
            theta_cc: params.use_effect_size.then_some(params.theta_cc),
        }
    }

    /// One leave-one-out comparison: is `support` significantly (and, for
    /// P3C+, strongly) larger than `expected`?
    pub fn accepts(&self, support: f64, expected: f64) -> bool {
        if !self.poisson.significantly_larger(support, expected) {
            return false;
        }
        match self.theta_cc {
            Some(theta) => effect_is_strong(support, expected, theta),
            None => true,
        }
    }

    /// The full Equation 1 test of a signature with known support, using
    /// the support table for its (p−1)-subsignatures. A signature whose
    /// subsignature support is unknown fails (cannot be validated).
    pub fn passes_equation1(
        &self,
        sig: &Signature,
        support: f64,
        n: usize,
        table: &SupportTable,
    ) -> bool {
        for i in 0..sig.len() {
            let sub = sig.without_index(i);
            let sub_support = if sub.is_empty() {
                n as f64
            } else {
                match table.get(&sub) {
                    Some(s) => s,
                    None => return false,
                }
            };
            let expected = sub_support * sig.intervals()[i].width();
            if !self.accepts(support, expected) {
                return false;
            }
        }
        true
    }
}

/// Result of cluster-core generation.
#[derive(Debug, Clone)]
pub struct CoreGenResult {
    /// Maximal proven signatures — the cluster cores of Definition 5
    /// (redundancy filtering is a separate subsequent step in P3C+).
    pub cores: Vec<ClusterCore>,
    /// Every proven signature with its support.
    pub proven: Vec<(Signature, f64)>,
    /// Support table over all counted signatures.
    pub table: SupportTable,
    /// Per-level generation statistics.
    pub stats: CoreGenStats,
}

/// Generates the candidate set `Cand_{p+1}` from a set of p-signatures by
/// the Apriori join, with the standard all-subsets prune against
/// `prune_against` (signatures whose every p-subsignature must be known).
///
/// Implemented as the classic prefix-bucket join: two p-signatures are
/// joinable into a surviving candidate only if they agree on their first
/// p−1 intervals (any (p+1)-signature whose p-subsignatures are all
/// present has exactly one such parent pair), so signatures are grouped
/// by prefix and joined within groups. This is semantically identical to
/// the paper's all-pairs enumeration followed by the prune, but costs
/// `Σ bucket²` instead of `k²`; the MR candidate-generation job
/// ([`crate::mr::coregen::generate_candidates_mr`]) enumerates the same
/// within-bucket pairs.
pub fn generate_candidates(
    level: &[Signature],
    prune_against: &HashSet<&Signature>,
) -> Vec<Signature> {
    let mut sorted: Vec<&Signature> = level.iter().collect();
    sorted.sort();
    sorted.dedup();
    let mut out = Vec::new();
    for (start, end) in prefix_buckets(&sorted) {
        for i in start..end {
            for j in (i + 1)..end {
                if let Some(cand) = join_in_bucket(sorted[i], sorted[j], prune_against) {
                    out.push(cand);
                }
            }
        }
    }
    // Prefix-pair generation is duplicate-free; sorting suffices.
    out.sort();
    out
}

/// Bucket boundaries `(start, end)` over a sorted signature list: maximal
/// runs of equal-length signatures sharing their first p−1 intervals.
pub(crate) fn prefix_buckets<S: std::borrow::Borrow<Signature>>(
    sorted: &[S],
) -> Vec<(usize, usize)> {
    let mut buckets = Vec::new();
    let mut start = 0;
    while start < sorted.len() {
        let first = sorted[start].borrow();
        let prefix_len = first.len().saturating_sub(1);
        let mut end = start + 1;
        while end < sorted.len() {
            let next = sorted[end].borrow();
            if next.len() != first.len()
                || next.intervals()[..prefix_len] != first.intervals()[..prefix_len]
            {
                break;
            }
            end += 1;
        }
        buckets.push((start, end));
        start = end;
    }
    buckets
}

/// Join attempts candidate generation makes over `buckets`: every pair
/// inside a bucket. A surviving candidate has exactly one parent pair, so
/// this bounds the size of the next level from above (tightly: only
/// same-attribute tails and Apriori-pruned joins fall away).
pub(crate) fn join_pairs(buckets: &[(usize, usize)]) -> usize {
    buckets
        .iter()
        .map(|(s, e)| (e - s) * (e - s).saturating_sub(1) / 2)
        .sum()
}

/// Joins two same-bucket signatures (shared (p−1)-prefix) into their
/// (p+1)-candidate and applies the Apriori prune, skipping the two parent
/// subsignatures (present by construction). Returns `None` when the tail
/// intervals collide on an attribute or the prune rejects.
pub(crate) fn join_in_bucket(
    a: &Signature,
    b: &Signature,
    prune_against: &HashSet<&Signature>,
) -> Option<Signature> {
    let p = a.len();
    debug_assert_eq!(p, b.len());
    let a_last = a.intervals()[p - 1];
    let b_last = b.intervals()[p - 1];
    if a_last.attr == b_last.attr {
        return None;
    }
    // prefix + both tails, sorted by attribute (tails have the largest
    // attrs of their signatures, but may interleave with each other).
    let mut intervals = Vec::with_capacity(p + 1);
    intervals.extend_from_slice(&a.intervals()[..p - 1]);
    if a_last.attr < b_last.attr {
        intervals.push(a_last);
        intervals.push(b_last);
    } else {
        intervals.push(b_last);
        intervals.push(a_last);
    }
    let cand = Signature::new(intervals);
    // Prune: all (p)-subsignatures must be present. Dropping the tails
    // reproduces the parents a and b — skip those two indices.
    let (skip1, skip2) = (p - 1, p);
    for i in 0..cand.len() {
        if i == skip1 || i == skip2 {
            continue;
        }
        if !prune_against.contains(&cand.without_index(i)) {
            return None;
        }
    }
    Some(cand)
}

/// Resolves the supports of candidate signatures over the whole
/// database and joins each Apriori level — the seam between Algorithm
/// 1's control flow and *how* supports are obtained. The batch pipelines
/// bin the full row set once and answer every level from the bitmaps
/// ([`ScanCounter`]); the incremental service answers from its
/// maintained support cache and scans only for candidates the cache has
/// never seen; the MR pipelines run one proving job per count
/// ([`crate::mr::coregen::JobCounter`]). What a count costs before its
/// first candidate is the counter's to know, so the counter also sets
/// how many candidates one count may collect ([`LevelCounter::budget`]):
/// Afrati et al.'s rounds against communication.
pub trait LevelCounter {
    /// What a failed count or join reports.
    type Error;

    /// Supports of `candidates`, in candidate order.
    fn count_level(&mut self, candidates: &[Signature]) -> Result<Vec<u64>, Self::Error>;

    /// How many candidates one count may hold, given level 1 (which names
    /// every relevant interval): levels are collected unproven while the
    /// collected levels plus the join-pair bound on the next one stay
    /// within it. A count always holds at least one level, so the
    /// default `0` counts every level on its own — right for a counter
    /// that pays nothing per count once its bitmaps are filled.
    fn budget(&self, _level1: &[Signature]) -> usize {
        0
    }

    /// The next level joined from `basis`, pruned against `prune`:
    /// [`generate_candidates`] unless the counter runs the join itself.
    fn join(
        &mut self,
        basis: &[Signature],
        prune: &HashSet<&Signature>,
    ) -> Result<Vec<Signature>, Self::Error> {
        Ok(generate_candidates(basis, prune))
    }
}

/// The batch [`LevelCounter`] (paper Section 5.3): the rows are binned
/// into per-interval bitmaps when level 1 — which contains every
/// relevant interval — is counted, and every later Apriori level is
/// answered from those bitmaps without touching the rows again.
pub struct ScanCounter<'a> {
    rows: &'a [&'a [f64]],
    index: SupportIndex,
}

impl<'a> ScanCounter<'a> {
    /// Counter over the full row set.
    pub fn new(rows: &'a [&'a [f64]]) -> Self {
        Self {
            rows,
            index: SupportIndex::default(),
        }
    }
}

impl ScanCounter<'_> {
    /// The counter's interval bitmaps, filled over its rows once level 1
    /// has been counted — batch Light reads its membership from them.
    pub(crate) fn into_index(self) -> SupportIndex {
        self.index
    }
}

impl LevelCounter for ScanCounter<'_> {
    type Error = Infallible;

    fn count_level(&mut self, candidates: &[Signature]) -> Result<Vec<u64>, Infallible> {
        Ok(self.index.count(self.rows, candidates))
    }
}

/// Runs Algorithm 1 over the given rows with a [`ScanCounter`].
///
/// `intervals` are the relevant intervals `Î` (each carrying its
/// attribute's discretization).
pub fn generate_cluster_cores(
    intervals: &[Interval],
    rows: &[&[f64]],
    params: &P3cParams,
) -> CoreGenResult {
    let Ok(result) =
        generate_cluster_cores_with(intervals, rows.len(), params, &mut ScanCounter::new(rows));
    result
}

/// The deepest level Algorithm 1 explores (a safety bound; the paper's
/// generator plants clusters of at most 10 dimensions).
pub const MAX_LEVELS: usize = 12;

/// Algorithm 1, the one level loop of every pipeline. `counter` counts
/// supports, joins levels and sets the collection budget `b`
/// (multi-level candidate collection, paper Section 5.3 and DESIGN.md
/// §4):
///
/// * A batch opens with a level joined from proven signatures (level 1:
///   from none). It grows by the level joined from its own unproven top
///   while the batch plus the join-pair bound on that level stays within
///   `b` and the bound within `max_candidates_per_level`; the bound is
///   computed *before* the level is, so an exploding lattice is never
///   materialised.
/// * A closed batch is counted with one [`LevelCounter::count_level`]
///   call over its levels, concatenated, and proved in ascending order:
///   Equation 1, plus the downward-closure check for every level after
///   the batch's first (joined from an unproven basis). The next level
///   is joined from the proven top.
///
/// With `b = 0` every level is a batch of its own — count, prove, join.
/// Any budget proves the same signatures with the same supports, since
/// every step after a count is a pure function of the counts; it only
/// moves *when* supports are counted. The valve only ever cuts a batch's
/// opening level, which the `b = 0` loop cuts identically.
pub fn generate_cluster_cores_with<C: LevelCounter>(
    intervals: &[Interval],
    n: usize,
    params: &P3cParams,
    counter: &mut C,
) -> Result<CoreGenResult, C::Error> {
    let mut lattice = Lattice {
        tester: SupportTester::from_params(params),
        n,
        threads: params.threads,
        table: SupportTable::new(),
        proven: Vec::new(),
        stats: CoreGenStats::default(),
    };

    // Level 1: singleton signatures from the relevant intervals.
    let mut candidates: Vec<Signature> = intervals
        .iter()
        .map(|&iv| Signature::singleton(iv))
        .collect();
    candidates.sort();
    candidates.dedup();
    let budget = counter.budget(&candidates);
    let cap = params.max_candidates_per_level;

    // The levels collected since the last count, concatenated, and the
    // end of each level in it.
    let mut batch: Vec<Signature> = Vec::new();
    let mut ends: Vec<usize> = Vec::new();
    let mut level = 1;
    while !candidates.is_empty() && level <= MAX_LEVELS {
        // The `max_candidates_per_level` safety valve.
        if cap > 0 && candidates.len() > cap {
            candidates.truncate(cap);
            lattice.stats.truncated_levels += 1;
        }
        lattice.stats.candidates_per_level.push(candidates.len());
        let top = batch.len();
        batch.append(&mut candidates);
        ends.push(batch.len());
        // Levels are sorted, so the buckets are exact.
        let close = batch.len() > budget || {
            let bound = join_pairs(&prefix_buckets(&batch[top..]));
            batch.len() + bound > budget || (cap > 0 && bound > cap)
        };
        candidates = if close {
            lattice.count_and_prove(counter, std::mem::take(&mut batch), &ends)?;
            ends.clear();
            let basis: Vec<Signature> = lattice.proven_top().map(Signature::clone).collect();
            counter.join(&basis, &basis.iter().collect())?
        } else {
            let basis = &batch[top..];
            counter.join(basis, &basis.iter().collect())?
        };
        level += 1;
    }
    if !batch.is_empty() {
        lattice.count_and_prove(counter, batch, &ends)?;
    }

    let cores = filter_maximal(&lattice.proven);
    let mut stats = lattice.stats;
    stats.total_proven = lattice.proven.len();
    stats.maximal = cores.len();
    Ok(CoreGenResult {
        cores,
        proven: lattice.proven,
        table: lattice.table,
        stats,
    })
}

/// What the level loop has established: every counted support, every
/// proven signature (levels ascending, candidate order within a level)
/// and the per-level statistics.
struct Lattice {
    tester: SupportTester,
    n: usize,
    threads: usize,
    table: SupportTable,
    proven: Vec<(Signature, f64)>,
    stats: CoreGenStats,
}

impl Lattice {
    /// The proven signatures of the last proved level.
    fn proven_top(&self) -> impl Iterator<Item = &Signature> {
        let top = self.stats.proven_per_level.last().copied().unwrap_or(0);
        self.proven[self.proven.len() - top..]
            .iter()
            .map(|(s, _)| s)
    }

    /// Counts a closed batch (`ends`: where each level ends) with one
    /// call and proves its levels in ascending order. Equation 1 reads
    /// only the supports of (p−1)-subsignatures, which the level below —
    /// in this batch or an earlier one — put into the table. A level
    /// after the batch's first was joined from the unproven level below,
    /// so it must also pass the downward-closure check against that
    /// level's proven signatures: Equation 1 alone is not recursive, and
    /// can accept a signature one of whose subsignatures failed.
    fn count_and_prove<C: LevelCounter>(
        &mut self,
        counter: &mut C,
        batch: Vec<Signature>,
        ends: &[usize],
    ) -> Result<(), C::Error> {
        let counts = counter.count_level(&batch)?;
        let mut batch = batch.into_iter();
        let mut start = 0;
        for (i, &end) in ends.iter().enumerate() {
            let level: Vec<Signature> = batch.by_ref().take(end - start).collect();
            let counts = &counts[start..end];
            let verdicts = {
                let below: Option<HashSet<&Signature>> =
                    (i > 0).then(|| self.proven_top().collect());
                prove_level_blocked(self, &level, counts, below.as_ref())
            };
            let before = self.proven.len();
            for ((sig, &c), ok) in level.into_iter().zip(counts).zip(verdicts) {
                if ok {
                    self.proven.push((sig.clone(), c as f64));
                }
                self.table.insert(sig, c as f64);
            }
            self.stats.proven_per_level.push(self.proven.len() - before);
            start = end;
        }
        Ok(())
    }
}

/// Candidates per proving block: the Poisson test is cheap per
/// candidate, so blocks are sized to amortize pool dispatch.
const PROVE_BLOCK: usize = 64;

/// Runs the proving test over one level's candidates — every
/// subsignature in `below` when given, and Equation 1 — blocked at
/// [`PROVE_BLOCK`] granularity on the engine worker pool. Each block
/// yields its verdicts in candidate order and blocks are concatenated
/// in block-index order, so the result is the exact boolean sequence of
/// the serial scan for every thread count (DESIGN.md §11).
fn prove_level_blocked(
    lattice: &Lattice,
    candidates: &[Signature],
    counts: &[u64],
    below: Option<&HashSet<&Signature>>,
) -> Vec<bool> {
    let num_blocks = candidates.len().div_ceil(PROVE_BLOCK);
    let blocks = p3c_mapreduce::parallel_for_blocks(lattice.threads, num_blocks, |b| {
        let start = b * PROVE_BLOCK;
        let end = (start + PROVE_BLOCK).min(candidates.len());
        (start..end)
            .map(|i| {
                let sig = &candidates[i];
                below.is_none_or(|set| sig.subsignatures().all(|sub| set.contains(&sub)))
                    && lattice.tester.passes_equation1(
                        sig,
                        counts[i] as f64,
                        lattice.n,
                        &lattice.table,
                    )
            })
            .collect::<Vec<bool>>()
    });
    blocks.concat()
}

/// Keeps signatures not strictly contained in another proven signature
/// (line 11 of Algorithm 1). Expected supports are left at zero; callers
/// fill them via [`attach_expected_supports`] once the database size is
/// in scope.
///
/// Provenness is downward closed by construction (a signature is proven
/// only when all its subsignatures are), so a proven signature is
/// non-maximal **iff** it is an immediate (p−1)-subsignature of some
/// proven p-signature. Marking those costs `Σ proven_p · p` set
/// operations instead of the quadratic pairwise containment scan.
pub fn filter_maximal(proven: &[(Signature, f64)]) -> Vec<ClusterCore> {
    let mut non_maximal: HashSet<Signature> = HashSet::new();
    for (sig, _) in proven {
        for sub in sig.subsignatures() {
            non_maximal.insert(sub);
        }
    }
    proven
        .iter()
        .filter(|(sig, _)| !non_maximal.contains(sig))
        .map(|(sig, supp)| ClusterCore {
            signature: sig.clone(),
            support: *supp,
            expected: 0.0,
        })
        .collect()
}

/// Fills Equation-7 expected supports on a core list for a database of
/// size `n`.
pub fn attach_expected_supports(cores: &mut [ClusterCore], n: usize) {
    for core in cores {
        core.expected = core.signature.expected_support(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(attr: usize, lo: usize, hi: usize) -> Interval {
        Interval::new(attr, lo, hi, 10)
    }

    /// A dataset with one strong 2D cluster on attrs (0,1) and uniform attr 2.
    fn clustered_rows() -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        // 200 cluster points in [0.1,0.2]×[0.55,0.65] (bins 1 and 5–6).
        for i in 0..200 {
            let t = (i as f64 + 0.5) / 200.0;
            rows.push(vec![0.11 + 0.08 * t, 0.56 + 0.08 * t, t]);
        }
        // 200 uniform noise points.
        for i in 0..200 {
            let t = (i as f64 + 0.5) / 200.0;
            rows.push(vec![t, (t * 7.0) % 1.0, (t * 13.0) % 1.0]);
        }
        rows
    }

    #[test]
    fn tester_combined_is_stricter_than_poisson() {
        let poisson_only = SupportTester::from_params(&P3cParams {
            use_effect_size: false,
            alpha_poisson: 0.01,
            ..P3cParams::default()
        });
        let combined = SupportTester::from_params(&P3cParams {
            use_effect_size: true,
            theta_cc: 0.35,
            alpha_poisson: 0.01,
            ..P3cParams::default()
        });
        // Large-n small-effect case: significant but weak.
        let expected = 100_000.0;
        let observed = 1.01 * expected;
        assert!(poisson_only.accepts(observed, expected));
        assert!(!combined.accepts(observed, expected));
        // Strong effect accepted by both.
        assert!(combined.accepts(2.0 * expected, expected));
    }

    #[test]
    fn equation1_requires_all_leave_one_outs() {
        let params = P3cParams {
            alpha_poisson: 0.01,
            use_effect_size: false,
            ..P3cParams::default()
        };
        let tester = SupportTester::from_params(&params);
        let mut table = SupportTable::new();
        let a = Signature::singleton(iv(0, 0, 0));
        let b = Signature::singleton(iv(1, 0, 0));
        let ab = a.join(&b).unwrap();
        // Supp(a)=500 of n=1000, Supp(b)=500; Supp(ab)=400 ≫ exp from
        // either side (500·0.1 = 50) → passes.
        table.insert(a.clone(), 500.0);
        table.insert(b.clone(), 500.0);
        assert!(tester.passes_equation1(&ab, 400.0, 1000, &table));
        // Supp(ab)=50 == expectation → fails.
        assert!(!tester.passes_equation1(&ab, 50.0, 1000, &table));
    }

    #[test]
    fn equation1_fails_on_missing_subset() {
        let params = P3cParams::default();
        let tester = SupportTester::from_params(&params);
        let table = SupportTable::new();
        let ab = Signature::new(vec![iv(0, 0, 0), iv(1, 0, 0)]);
        assert!(!tester.passes_equation1(&ab, 1000.0, 1000, &table));
    }

    #[test]
    fn generation_finds_planted_2d_core() {
        let data = clustered_rows();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        // Relevant intervals: attr0 bins 1–2, attr1 bins 5–6 (the cluster),
        // plus a decoy on attr2 covering everything (width 1 → never
        // significant).
        let intervals = vec![iv(0, 1, 2), iv(1, 5, 6), iv(2, 0, 9)];
        let params = P3cParams {
            alpha_poisson: 1e-6,
            use_effect_size: true,
            theta_cc: 0.35,
            ..P3cParams::default()
        };
        let result = generate_cluster_cores(&intervals, &rows, &params);
        // The maximal core must be the 2-signature on attrs {0,1}.
        assert!(
            result
                .cores
                .iter()
                .any(|c| c.signature.attributes().into_iter().collect::<Vec<_>>() == vec![0, 1]),
            "cores: {:?}",
            result
                .cores
                .iter()
                .map(|c| c.signature.to_string())
                .collect::<Vec<_>>()
        );
        // The full-width decoy interval must not appear in any core.
        assert!(result
            .cores
            .iter()
            .all(|c| !c.signature.attributes().contains(&2)));
    }

    #[test]
    fn maximal_filter_drops_subsignatures() {
        let a = Signature::singleton(iv(0, 0, 1));
        let ab = Signature::new(vec![iv(0, 0, 1), iv(1, 2, 3)]);
        let c = Signature::singleton(iv(2, 4, 5));
        let proven = vec![(a.clone(), 100.0), (ab.clone(), 90.0), (c.clone(), 50.0)];
        let cores = filter_maximal(&proven);
        let sigs: Vec<&Signature> = cores.iter().map(|c| &c.signature).collect();
        assert_eq!(sigs.len(), 2);
        assert!(sigs.contains(&&ab));
        assert!(sigs.contains(&&c));
    }

    #[test]
    fn candidate_generation_join_and_prune() {
        let a = Signature::singleton(iv(0, 0, 1));
        let b = Signature::singleton(iv(1, 2, 3));
        let c = Signature::singleton(iv(2, 4, 5));
        let level: Vec<Signature> = vec![a.clone(), b.clone(), c.clone()];
        let proven: HashSet<&Signature> = level.iter().collect();
        let cands = generate_candidates(&level, &proven);
        assert_eq!(cands.len(), 3); // ab, ac, bc
                                    // Drop b from the level (an unproven signature never reaches the
                                    // join): only the ac candidate remains.
        let level2: Vec<Signature> = vec![a.clone(), c.clone()];
        let pruned: HashSet<&Signature> = level2.iter().collect();
        let cands2 = generate_candidates(&level2, &pruned);
        assert_eq!(cands2.len(), 1);
        assert_eq!(cands2[0], a.join(&c).unwrap());
    }

    #[test]
    fn prune_rejects_candidates_with_missing_middle_subsets() {
        // Level-2 signatures ab, ac, bc minus bc: the abc candidate needs
        // bc proven; with bc absent from the prune set it must not emerge.
        let a = iv(0, 0, 1);
        let b = iv(1, 2, 3);
        let c = iv(2, 4, 5);
        let ab = Signature::new(vec![a, b]);
        let ac = Signature::new(vec![a, c]);
        let bc = Signature::new(vec![b, c]);
        let level = [ab, ac, bc];
        let with_all: HashSet<&Signature> = level.iter().collect();
        let cands = generate_candidates(&level, &with_all);
        assert_eq!(cands.len(), 1); // abc
        let without_bc: HashSet<&Signature> = level[..2].iter().collect();
        let cands2 = generate_candidates(&level[..2], &without_bc);
        assert!(
            cands2.is_empty(),
            "abc must be pruned without bc: {cands2:?}"
        );
    }

    #[test]
    fn stats_are_recorded() {
        let data = clustered_rows();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let intervals = vec![iv(0, 1, 2), iv(1, 5, 6)];
        let result = generate_cluster_cores(&intervals, &rows, &P3cParams::default());
        assert!(!result.stats.candidates_per_level.is_empty());
        assert_eq!(result.stats.candidates_per_level[0], 2);
        assert_eq!(result.stats.total_proven, result.proven.len());
        assert_eq!(result.stats.maximal, result.cores.len());
    }

    #[test]
    fn expected_supports_attach() {
        let mut cores = vec![ClusterCore {
            signature: Signature::new(vec![iv(0, 0, 1), iv(1, 0, 4)]),
            support: 100.0,
            expected: 0.0,
        }];
        attach_expected_supports(&mut cores, 1000);
        // widths 0.2 · 0.5 → expected 100.
        assert!((cores[0].expected - 100.0).abs() < 1e-9);
        assert!((cores[0].interest_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_intervals_give_no_cores() {
        let rows: Vec<&[f64]> = vec![];
        let result = generate_cluster_cores(&[], &rows, &P3cParams::default());
        assert!(result.cores.is_empty());
        assert!(result.proven.is_empty());
    }
}
