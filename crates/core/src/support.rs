//! Support counting: the naive scan and the production block counter —
//! the Rapid Signature Support Counter of paper Section 5.3 in vertical
//! orientation.
//!
//! RSSC answers "which candidate signatures contain which points?" with
//! ANDs over precomputed bit masks. The paper keeps per attribute and
//! bin a bit vector *over the candidates* and ANDs `|A_rel|` of them per
//! point — `n · |A_rel| · ⌈|Cand|/64⌉` word operations and a mask
//! broadcast that grows with the candidate count (DESIGN.md §1, "RSSC
//! orientation"). Here the same masks are transposed: per distinct relevant
//! interval a bit vector *over the points of one row block* (the MR
//! input split; [`BLOCK_ROWS`] rows on the serial path), built in one
//! row-outer pass that bins each relevant attribute once per row. A
//! candidate's support over the block is the popcount of the AND of its
//! intervals' bitmaps; candidates are walked in list order with a stack
//! of prefix ANDs, so a candidate sharing its first `k` intervals with
//! its predecessor costs `p − k` ANDs — ≈ 1 on the lexicographically
//! sorted Apriori levels — for `|Cand| · ⌈n_block/64⌉` word operations
//! per block. Counts are exact `u64`s, identical to the naive scan.
//!
//! Because relevant intervals are runs of histogram bins, using the base
//! histogram binning as the counter's binning is exact — no boundary
//! subtleties. (The paper derives its binning from interval endpoints;
//! those endpoints *are* bin edges here.)
//!
//! A batch Light run and a full recluster of the incremental service
//! each keep one `SupportIndex`, the only place their rows are binned.
//! Its bitmaps are filled at most once per run: when level 1, which
//! holds every relevant interval, is counted (the service fills them at
//! the first level its support cache cannot answer). Later levels AND
//! the same columns, and so does the Light membership: per 64-row word,
//! the AND of a core's interval columns is the core's support set
//! (`SupportIndex::for_each_support_word`).

use crate::types::{Interval, Signature};
use p3c_linalg::isa;
use p3c_stats::histogram::BinIndexer;
use std::collections::{BTreeMap, HashMap};

/// A table of counted signature supports.
///
/// Filled during cluster-core generation; consulted by the Equation 1
/// leave-one-out tests, redundancy filtering and AI proving.
#[derive(Debug, Clone, Default)]
pub struct SupportTable {
    map: HashMap<Signature, f64>,
}

impl SupportTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `sig`'s counted support.
    pub fn insert(&mut self, sig: Signature, support: f64) {
        self.map.insert(sig, support);
    }

    /// Looks up a previously counted support.
    pub fn get(&self, sig: &Signature) -> Option<f64> {
        self.map.get(sig).copied()
    }

    /// Number of recorded signatures.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no signature has been recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Maintained signature supports in summation form — the incremental
/// service's delta-maintenance state (DESIGN.md §14).
///
/// Signature supports are per-point indicator sums, so the support over
/// the cumulative dataset equals the support over the previous state
/// plus the support over an appended delta block (or minus, for a
/// retract). Counts are exact `u64`s, making the maintained values
/// *equal*, not approximately equal, to a from-scratch count — the
/// foundation of the service's byte-identity contract.
///
/// Invariant: every cached signature is stated against the *current*
/// histogram discretization. When the bin rule steps (the bin count is
/// a function of `n`), callers must [`SupportCache::clear`] — stale
/// discretizations would make [`SupportCache::apply_delta`]'s counting
/// pass disagree with the histograms.
#[derive(Debug, Clone, Default)]
pub struct SupportCache {
    // BTreeMap: apply_delta iterates the cache; deterministic order
    // keeps every downstream count sequence reproducible.
    counts: BTreeMap<Signature, u64>,
}

impl SupportCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached support of `sig`, if the cache has seen it.
    pub fn get(&self, sig: &Signature) -> Option<u64> {
        self.counts.get(sig).copied()
    }

    /// Records a freshly counted support.
    pub fn insert(&mut self, sig: Signature, support: u64) {
        self.counts.insert(sig, support);
    }

    /// Number of cached signatures.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Drops every entry (bin-rule step or full invalidation).
    pub fn clear(&mut self) {
        self.counts.clear();
    }

    /// The cached `(signature, support)` pairs in deterministic
    /// (BTreeMap key) order — snapshot serialization.
    pub fn iter(&self) -> impl Iterator<Item = (&Signature, u64)> {
        self.counts.iter().map(|(sig, &c)| (sig, c))
    }

    /// Folds a delta block into every cached support: one counting pass
    /// over the delta rows, then an exact add (append) or subtract
    /// (retract) per signature. Cost is `O(|delta| · cached)` bit-ops —
    /// independent of the cumulative dataset size.
    pub fn apply_delta(&mut self, delta_rows: &[&[f64]], retract: bool) {
        if self.counts.is_empty() || delta_rows.is_empty() {
            return;
        }
        let mut delta = vec![0u64; self.counts.len()];
        SupportPlan::build(self.counts.keys()).count_rows(delta_rows, &mut delta);
        for (entry, d) in self.counts.values_mut().zip(delta) {
            if retract {
                *entry = entry
                    .checked_sub(d)
                    .expect("retract of rows never appended");
            } else {
                *entry += d;
            }
        }
    }

    /// Estimated resident bytes (admission accounting).
    pub fn mem_bytes(&self) -> usize {
        // A signature holds a handful of intervals (4 usizes each); 256
        // bytes is a generous flat estimate per entry including the
        // tree node.
        self.counts.len() * 256
    }
}

/// Rows per counting block on the serial path (the MR path counts one
/// input split at a time and chunks longer splits the same way): 128
/// words per interval bitmap, so a ten-deep prefix stack stays inside L1.
pub const BLOCK_ROWS: usize = 8192;

/// The distinct intervals of the candidates seen so far, numbered in
/// first-seen order — the columns of the vertical layout.
#[derive(Debug, Default)]
pub(crate) struct IntervalTable {
    ids: BTreeMap<Interval, u32>,
    /// The constrained attributes (`A_rel`) in first-seen order.
    attrs: Vec<AttrBins>,
    /// Attribute → index into `attrs`.
    slots: BTreeMap<usize, usize>,
    /// Per column id, the interval's bin run as an inclusive range of
    /// bin slots (see [`AttrBins::base`]).
    spans: Vec<(usize, usize)>,
    /// Bin slots over all attributes: `Σ bins`.
    bin_slots: usize,
}

/// One relevant attribute's binning. Every `(attribute, bin)` pair owns
/// one *bin slot*; the attribute's bins occupy `base..base + bins`.
#[derive(Debug)]
struct AttrBins {
    attr: usize,
    indexer: BinIndexer,
    bins: usize,
    base: usize,
}

impl IntervalTable {
    /// Number of distinct intervals.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The column id of `iv`, assigned on first sight.
    ///
    /// # Panics
    /// Panics if two intervals on the same attribute disagree about the
    /// attribute's bin count.
    fn intern(&mut self, iv: Interval) -> u32 {
        if let Some(&id) = self.ids.get(&iv) {
            return id;
        }
        let id = u32::try_from(self.ids.len()).expect("more than u32::MAX distinct intervals");
        self.ids.insert(iv, id);
        let slot = *self.slots.entry(iv.attr).or_insert_with(|| {
            self.attrs.push(AttrBins {
                attr: iv.attr,
                indexer: BinIndexer::new(iv.bins),
                bins: iv.bins,
                base: self.bin_slots,
            });
            self.bin_slots += iv.bins;
            self.attrs.len() - 1
        });
        let attr = &self.attrs[slot];
        assert_eq!(
            attr.bins, iv.bins,
            "inconsistent bin counts on attribute {}",
            iv.attr
        );
        self.spans
            .push((attr.base + iv.bin_lo, attr.base + iv.bin_hi));
        id
    }
}

/// The vertical layout of one row block: per interval of an
/// [`IntervalTable`] a bit vector over the block's rows, bit `r` set iff
/// row `r` lies in the interval. Padding bits of the last word stay 0.
#[derive(Debug, Default)]
pub(crate) struct BlockBitmaps {
    rows: usize,
    words: usize,
    /// `table.len() × words`, column-major.
    bits: Vec<u64>,
}

impl BlockBitmaps {
    /// Rebuilds the bitmaps over `rows` in one row-outer pass. Each
    /// relevant attribute is binned once per row into a 64-row bit word
    /// per bin; an interval's word is the OR over its bin run — no
    /// data-dependent branch, and a cost per row that does not grow with
    /// the number of intervals.
    pub(crate) fn fill(&mut self, table: &IntervalTable, rows: &[&[f64]]) {
        self.rows = rows.len();
        self.words = rows.len().div_ceil(64);
        self.bits.resize(table.len() * self.words, 0);
        // Per bin slot, which of the current 64 rows fell into the bin.
        let mut bin_rows = vec![0u64; table.bin_slots];
        for (word, group) in rows.chunks(64).enumerate() {
            bin_rows.fill(0);
            for (r, row) in group.iter().enumerate() {
                for attr in &table.attrs {
                    bin_rows[attr.base + attr.indexer.index(row[attr.attr])] |= 1u64 << r;
                }
            }
            for (id, &(lo, hi)) in table.spans.iter().enumerate() {
                self.bits[id * self.words + word] =
                    bin_rows[lo..=hi].iter().fold(0, |acc, &w| acc | w);
            }
        }
    }

    fn column(&self, id: u32) -> &[u64] {
        &self.bits[id as usize * self.words..][..self.words]
    }
}

/// A candidate list stated against an [`IntervalTable`], front-coded:
/// each candidate records how many leading intervals it shares with its
/// predecessor and the column ids of the rest. Levels arrive
/// lexicographically sorted, so the rest is ≈ 1 id per candidate.
#[derive(Debug, Default)]
pub(crate) struct CandidateList {
    /// Per candidate `(keep, len)`: `keep` leading intervals are the
    /// predecessor's, capped below both lengths so that the prefix
    /// stack (which never holds a candidate's last level) covers them.
    heads: Vec<(u32, u32)>,
    /// The `len − keep` remaining column ids of every candidate.
    rest: Vec<u32>,
    max_len: usize,
}

/// Reusable working memory of [`CandidateList::count_block`].
#[derive(Debug, Default)]
pub(crate) struct CountScratch {
    /// Level `j` holds the AND of the current candidate's first `j + 1`
    /// columns.
    stack: Vec<u64>,
    /// Column ids of the current candidate.
    path: Vec<u32>,
}

impl CandidateList {
    /// Encodes `candidates`, interning their intervals into `table`.
    pub(crate) fn encode<'s>(
        table: &mut IntervalTable,
        candidates: impl IntoIterator<Item = &'s Signature>,
    ) -> Self {
        let mut list = Self::default();
        let mut prev: &[Interval] = &[];
        for sig in candidates {
            let ivs = sig.intervals();
            let cap = prev.len().min(ivs.len()).saturating_sub(1);
            let keep = prev
                .iter()
                .zip(ivs)
                .take(cap)
                .take_while(|(a, b)| a == b)
                .count();
            let len = u32::try_from(ivs.len()).expect("signature with over u32::MAX intervals");
            list.heads.push((keep as u32, len));
            list.rest
                .extend(ivs[keep..].iter().map(|&iv| table.intern(iv)));
            list.max_len = list.max_len.max(ivs.len());
            prev = ivs;
        }
        list
    }

    /// Adds every candidate's support over the block to `counts`: a
    /// candidate costs `len − keep` ANDs off its prefix's bitmap, the
    /// last of them fused with the popcount. Runs the AVX2 tier, with
    /// hardware POPCNT, when the CPU has it ([`isa`]).
    pub(crate) fn count_block(
        &self,
        block: &BlockBitmaps,
        counts: &mut [u64],
        scratch: &mut CountScratch,
    ) {
        if isa::avx2() {
            // SAFETY: the guard checked that this CPU has AVX2 and POPCNT.
            unsafe { self.count_block_avx2(block, counts, scratch) }
        } else {
            self.count_block_impl(block, counts, scratch)
        }
    }

    /// [`CandidateList::count_block`] compiled for AVX2 and POPCNT.
    ///
    /// # Safety
    /// The CPU must support AVX2 and POPCNT (`isa::avx2()`).
    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2,popcnt"))]
    unsafe fn count_block_avx2(
        &self,
        block: &BlockBitmaps,
        counts: &mut [u64],
        scratch: &mut CountScratch,
    ) {
        self.count_block_impl(block, counts, scratch)
    }

    #[inline(always)]
    fn count_block_impl(
        &self,
        block: &BlockBitmaps,
        counts: &mut [u64],
        scratch: &mut CountScratch,
    ) {
        assert_eq!(counts.len(), self.heads.len(), "one count per candidate");
        let words = block.words;
        let CountScratch { stack, path } = scratch;
        stack.resize(self.max_len.saturating_sub(1) * words, 0);
        path.clear();
        let mut rest = self.rest.iter();
        for (count, &(keep, len)) in counts.iter_mut().zip(&self.heads) {
            let (keep, len) = (keep as usize, len as usize);
            path.truncate(keep);
            path.extend(rest.by_ref().take(len - keep));
            let Some((&last, prefix)) = path.split_last() else {
                // The empty signature contains every row.
                *count += block.rows as u64;
                continue;
            };
            for (j, &id) in prefix.iter().enumerate().skip(keep) {
                let (below, level) = stack.split_at_mut(j * words);
                let level = &mut level[..words];
                match j {
                    0 => level.copy_from_slice(block.column(id)),
                    _ => {
                        let parent = &below[(j - 1) * words..];
                        for ((out, &p), &c) in level.iter_mut().zip(parent).zip(block.column(id)) {
                            *out = p & c;
                        }
                    }
                }
            }
            let last = block.column(last);
            *count += match prefix.len() {
                0 => popcount(last.iter().copied()),
                p => popcount(
                    stack[(p - 1) * words..]
                        .iter()
                        .zip(last)
                        .map(|(&a, &b)| a & b),
                ),
            };
        }
    }
}

#[inline(always)]
fn popcount(words: impl Iterator<Item = u64>) -> u64 {
    words.map(|w| u64::from(w.count_ones())).sum()
}

/// A candidate batch ready to be counted against any number of row
/// blocks: the interval table plus the front-coded candidate list. This
/// is what the proving job ships through the distributed cache.
#[derive(Debug, Default)]
pub(crate) struct SupportPlan {
    table: IntervalTable,
    candidates: CandidateList,
}

impl SupportPlan {
    /// Plans the counting of `candidates` (any order, duplicates allowed;
    /// sorted input shares the most prefix work).
    pub(crate) fn build<'s>(candidates: impl IntoIterator<Item = &'s Signature>) -> Self {
        let mut table = IntervalTable::default();
        let candidates = CandidateList::encode(&mut table, candidates);
        Self { table, candidates }
    }

    /// Number of candidates.
    pub(crate) fn num_candidates(&self) -> usize {
        self.candidates.heads.len()
    }

    /// Bytes shipped per map task: the interval table and the candidate
    /// id lists.
    pub(crate) fn byte_size(&self) -> usize {
        self.table.len() * std::mem::size_of::<Interval>()
            + std::mem::size_of_val(&self.candidates.heads[..])
            + std::mem::size_of_val(&self.candidates.rest[..])
    }

    /// What counting this plan costs before the first candidate, in
    /// candidates: per 64-row word [`BlockBitmaps::fill`] does one bin
    /// lookup per row and constrained attribute — `64·|A_rel|`, whatever
    /// the candidate count — while a front-coded candidate costs ≈ 1
    /// AND+popcount. A batch with fewer candidates than this spends more
    /// of its scan on filling than on counting.
    pub(crate) fn fill_cost_in_candidates(&self) -> usize {
        64 * self.table.attrs.len()
    }

    /// Adds the supports over `rows` to `counts`, one [`BLOCK_ROWS`]
    /// block at a time.
    pub(crate) fn count_rows(&self, rows: &[&[f64]], counts: &mut [u64]) {
        let mut block = BlockBitmaps::default();
        let mut scratch = CountScratch::default();
        for chunk in rows.chunks(BLOCK_ROWS) {
            block.fill(&self.table, chunk);
            self.candidates.count_block(&block, counts, &mut scratch);
        }
    }
}

/// Interval bitmaps over a fixed row set, kept across candidate levels
/// and into membership: Algorithm 1's level 1 contains every relevant
/// interval, and every core signature is made of relevant intervals, so
/// the rows are binned once and every later level, and the Light
/// membership after them, is pure AND/popcount work. Holds
/// `intervals × ⌈n/64⌉` words — under 1/64 of the row data per
/// interval-bearing attribute.
#[derive(Debug, Default)]
pub(crate) struct SupportIndex {
    table: IntervalTable,
    blocks: Vec<BlockBitmaps>,
    /// `table.len()` when `blocks` were last filled; `None` before the
    /// first fill.
    filled: Option<usize>,
    scratch: CountScratch,
    /// How many times `blocks` were filled.
    #[cfg(test)]
    fills: usize,
}

impl SupportIndex {
    /// Interns the intervals of `signatures` without reading a row. The
    /// next call that needs the bitmaps fills them for every interval
    /// interned so far.
    pub(crate) fn plan<'s>(&mut self, signatures: impl IntoIterator<Item = &'s Signature>) {
        for sig in signatures {
            for &iv in sig.intervals() {
                self.table.intern(iv);
            }
        }
    }

    /// Whether the bitmaps have been filled.
    pub(crate) fn is_filled(&self) -> bool {
        self.filled.is_some()
    }

    /// Bins `rows` (the same row set on every call) into the bitmaps,
    /// unless they already cover every interned interval.
    fn fill(&mut self, rows: &[&[f64]]) {
        if self.filled == Some(self.table.len()) {
            return;
        }
        self.blocks = rows
            .chunks(BLOCK_ROWS)
            .map(|chunk| {
                let mut block = BlockBitmaps::default();
                block.fill(&self.table, chunk);
                block
            })
            .collect();
        self.filled = Some(self.table.len());
        #[cfg(test)]
        {
            self.fills += 1;
        }
    }

    /// Supports of `candidates` over `rows` (the same row set on every
    /// call), in candidate order. Rows are binned only when the table
    /// has grown since the last fill.
    pub(crate) fn count<'s>(
        &mut self,
        rows: &[&[f64]],
        candidates: impl IntoIterator<Item = &'s Signature>,
    ) -> Vec<u64> {
        let list = CandidateList::encode(&mut self.table, candidates);
        self.fill(rows);
        let mut counts = vec![0u64; list.heads.len()];
        for block in &self.blocks {
            list.count_block(block, &mut counts, &mut self.scratch);
        }
        counts
    }

    /// The support sets of `signatures` over `rows` (the same row set on
    /// every call), one 64-row word at a time: `visit(first, valid,
    /// sets)` sees rows `first..first + 64`, with `valid` marking the
    /// rows that exist and `sets[j]` those in `signatures[j]`'s support
    /// set. Words arrive in row order.
    pub(crate) fn for_each_support_word(
        &mut self,
        rows: &[&[f64]],
        signatures: &[&Signature],
        mut visit: impl FnMut(usize, u64, &[u64]),
    ) {
        let columns: Vec<Vec<u32>> = signatures
            .iter()
            .map(|sig| {
                sig.intervals()
                    .iter()
                    .map(|&iv| self.table.intern(iv))
                    .collect()
            })
            .collect();
        self.fill(rows);
        let mut sets = vec![0u64; signatures.len()];
        for (b, block) in self.blocks.iter().enumerate() {
            for word in 0..block.words {
                let first = word * 64;
                let valid = match block.rows - first {
                    r if r >= 64 => u64::MAX,
                    r => (1u64 << r) - 1,
                };
                for (set, ids) in sets.iter_mut().zip(&columns) {
                    *set = ids
                        .iter()
                        .fold(valid, |acc, &id| acc & block.column(id)[word]);
                }
                visit(b * BLOCK_ROWS + first, valid, &sets);
            }
        }
    }
}

/// Naive support counting: query every candidate for every point.
/// Kept as the correctness oracle for [`count_supports`] and for the
/// ablation benchmark.
pub fn count_supports_naive(candidates: &[Signature], rows: &[&[f64]]) -> Vec<u64> {
    let mut counts = vec![0u64; candidates.len()];
    for row in rows {
        for (j, cand) in candidates.iter().enumerate() {
            if cand.contains(row) {
                counts[j] += 1;
            }
        }
    }
    counts
}

/// Exact supports of `candidates` over `rows` — the production counter
/// (module docs).
pub fn count_supports(candidates: &[Signature], rows: &[&[f64]]) -> Vec<u64> {
    let mut counts = vec![0u64; candidates.len()];
    SupportPlan::build(candidates).count_rows(rows, &mut counts);
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(attr: usize, lo: usize, hi: usize) -> Interval {
        Interval::new(attr, lo, hi, 10)
    }

    fn rows(data: &[Vec<f64>]) -> Vec<&[f64]> {
        data.iter().map(|r| r.as_slice()).collect()
    }

    #[test]
    fn counter_matches_naive_on_small_case() {
        let candidates = vec![
            Signature::new(vec![iv(0, 0, 2)]),
            Signature::new(vec![iv(0, 0, 2), iv(1, 5, 9)]),
            Signature::new(vec![iv(1, 0, 4)]),
        ];
        let data = vec![
            vec![0.15, 0.75],
            vec![0.15, 0.25],
            vec![0.95, 0.15],
            vec![0.25, 0.95],
        ];
        let r = rows(&data);
        assert_eq!(
            count_supports(&candidates, &r),
            count_supports_naive(&candidates, &r)
        );
    }

    #[test]
    fn unconstrained_attribute_does_not_restrict() {
        // The candidate constrains attr 0 only; a point anywhere on attr 1
        // must still match (the paper's S2-in-Figure-3 case).
        let candidates = vec![Signature::new(vec![iv(0, 0, 4)])];
        let data = vec![vec![0.3, 0.99], vec![0.9, 0.99]];
        assert_eq!(count_supports(&candidates, &rows(&data)), vec![1]);
    }

    #[test]
    fn more_than_64_candidates() {
        let candidates: Vec<Signature> = (0..130)
            .map(|j| Signature::new(vec![Interval::new(j % 5, (j / 5) % 10, (j / 5) % 10, 10)]))
            .collect();
        let data: Vec<Vec<f64>> = (0..50)
            .map(|i| {
                (0..5)
                    .map(|j| ((i * 7 + j * 3) % 100) as f64 / 100.0)
                    .collect()
            })
            .collect();
        let r = rows(&data);
        assert_eq!(
            count_supports(&candidates, &r),
            count_supports_naive(&candidates, &r)
        );
    }

    #[test]
    fn empty_candidates_and_empty_signature() {
        let none: Vec<&[f64]> = vec![];
        assert!(count_supports(&[], &none).is_empty());
        // The empty signature contains every row.
        let data = vec![vec![0.5]; 70];
        let empty = Signature::new(vec![]);
        assert_eq!(
            count_supports(std::slice::from_ref(&empty), &rows(&data)),
            vec![70]
        );
    }

    #[test]
    fn support_table_roundtrip() {
        let mut t = SupportTable::new();
        let s = Signature::new(vec![iv(0, 0, 1)]);
        assert!(t.get(&s).is_none());
        t.insert(s.clone(), 42.0);
        assert_eq!(t.get(&s), Some(42.0));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn front_coding_shares_prefixes_and_sizes_the_broadcast() {
        let (a, b, c, d) = (iv(0, 0, 1), iv(1, 2, 3), iv(2, 4, 5), iv(3, 6, 7));
        let sorted = vec![
            Signature::new(vec![a, b]),
            Signature::new(vec![a, b, c]),
            Signature::new(vec![a, b, d]),
            Signature::new(vec![a, c]),
        ];
        let plan = SupportPlan::build(&sorted);
        // keep is capped below both lengths: the stack never holds a
        // candidate's last level.
        assert_eq!(plan.candidates.heads, vec![(0, 2), (1, 3), (2, 3), (1, 2)]);
        assert_eq!(plan.candidates.rest.len(), 2 + 2 + 1 + 1);
        assert_eq!(plan.table.len(), 4);
        assert_eq!(plan.byte_size(), 4 * 32 + 4 * 8 + 6 * 4);
    }

    #[test]
    #[should_panic(expected = "inconsistent bin counts")]
    fn inconsistent_bin_counts_are_rejected() {
        let candidates = vec![
            Signature::new(vec![Interval::new(0, 0, 1, 4)]),
            Signature::new(vec![Interval::new(0, 0, 1, 8)]),
        ];
        SupportPlan::build(&candidates);
    }

    #[test]
    fn mixed_bin_counts_across_attributes() {
        // Attribute 0 discretized with 4 bins, attribute 1 with 16 —
        // exactly what exact-IQR binning produces.
        let candidates = vec![
            Signature::new(vec![Interval::new(0, 0, 1, 4), Interval::new(1, 8, 11, 16)]),
            Signature::new(vec![Interval::new(1, 0, 3, 16)]),
        ];
        let data = [
            vec![0.3, 0.6], // in cand 0 (bin0 attr0 ∈ [0,1]; attr1 bin 9)
            vec![0.3, 0.1], // in cand 1 only
            vec![0.9, 0.6], // attr0 bin 3 → outside cand 0
        ];
        let r: Vec<&[f64]> = data.iter().map(|x| x.as_slice()).collect();
        assert_eq!(
            count_supports(&candidates, &r),
            count_supports_naive(&candidates, &r)
        );
        assert_eq!(count_supports(&candidates, &r), vec![1, 1]);
    }

    #[test]
    fn support_cache_delta_matches_full_recount() {
        let sigs = vec![
            Signature::new(vec![iv(0, 0, 2)]),
            Signature::new(vec![iv(0, 0, 2), iv(1, 5, 9)]),
        ];
        let first = vec![vec![0.15, 0.75], vec![0.15, 0.25], vec![0.95, 0.15]];
        let second = vec![vec![0.25, 0.95], vec![0.05, 0.55]];
        let mut cache = SupportCache::new();
        for (sig, c) in sigs.iter().zip(count_supports(&sigs, &rows(&first))) {
            cache.insert(sig.clone(), c);
        }
        cache.apply_delta(&rows(&second), false);
        let mut cumulative = first.clone();
        cumulative.extend(second.iter().cloned());
        let full = count_supports(&sigs, &rows(&cumulative));
        for (sig, c) in sigs.iter().zip(full) {
            assert_eq!(cache.get(sig), Some(c));
        }
        // Retracting the delta restores the original counts exactly.
        cache.apply_delta(&rows(&second), true);
        for (sig, c) in sigs.iter().zip(count_supports(&sigs, &rows(&first))) {
            assert_eq!(cache.get(sig), Some(c));
        }
    }

    #[test]
    fn one_fill_serves_every_level_and_the_support_sets() {
        // 20 000 rows: three counting blocks, the last one partial.
        let data: Vec<Vec<f64>> = (0..20_000)
            .map(|i| {
                (0..3)
                    .map(|j| ((i * 7919 + j * 104_729) % 1000) as f64 / 1000.0)
                    .collect()
            })
            .collect();
        let r = rows(&data);
        let level1: Vec<Signature> = [iv(0, 0, 2), iv(0, 5, 7), iv(1, 1, 4), iv(2, 3, 9)]
            .into_iter()
            .map(Signature::singleton)
            .collect();
        let level2 = vec![
            Signature::new(vec![iv(0, 0, 2), iv(1, 1, 4)]),
            Signature::new(vec![iv(0, 5, 7), iv(2, 3, 9)]),
            Signature::new(vec![iv(1, 1, 4), iv(2, 3, 9)]),
        ];
        let level3 = vec![
            Signature::new(vec![iv(0, 0, 2), iv(1, 1, 4), iv(2, 3, 9)]),
            Signature::new(vec![iv(0, 5, 7), iv(1, 1, 4), iv(2, 3, 9)]),
        ];
        let mut index = SupportIndex::default();
        index.plan(&level1);
        assert!(!index.is_filled());
        assert_eq!(index.fills, 0, "planning reads no row");
        for level in [&level2, &level3] {
            assert_eq!(index.count(&r, level), count_supports_naive(level, &r));
        }
        let cores = [&level3[1], &level2[0]];
        let mut sets = vec![Vec::new(); cores.len()];
        index.for_each_support_word(&r, &cores, |first, valid, words| {
            for (set, &word) in sets.iter_mut().zip(words) {
                assert_eq!(word & !valid, 0, "a support set holds only rows");
                set.extend((0..64).filter(|b| word >> b & 1 == 1).map(|b| first + b));
            }
        });
        assert_eq!(
            index.fills, 1,
            "levels 2–3 and the support sets share one fill"
        );
        for (core, set) in cores.iter().zip(&sets) {
            let expected: Vec<usize> = (0..r.len()).filter(|&i| core.contains(r[i])).collect();
            assert_eq!(set, &expected);
        }
        // An interval no earlier call interned forces a refill.
        let new = Signature::singleton(iv(1, 7, 9));
        let got = index.count(&r, [&new]);
        assert_eq!(got, count_supports_naive(std::slice::from_ref(&new), &r));
        assert_eq!(index.fills, 2);
    }

    #[test]
    fn count_rows_accumulates_across_calls() {
        let candidates = vec![Signature::new(vec![iv(0, 0, 4)])];
        let plan = SupportPlan::build(&candidates);
        let mut counts = vec![0u64; 1];
        for point in [[0.1], [0.3], [0.9]] {
            plan.count_rows(&[&point], &mut counts);
        }
        assert_eq!(counts, vec![2]);
    }
}
