//! Equi-width histograms on `[0,1]` with the paper's bin indexing.
//!
//! Equation 8 assigns a value `x` to bin `max(1, ⌈m·x⌉)` (1-based). We keep
//! the same boundary semantics — bin edges belong to the *lower* bin, zero
//! belongs to bin 1 — but expose 0-based indices to Rust callers.

/// 0-based bin index of `x ∈ [0,1]` in an `m`-bin equi-width histogram,
/// following the paper's `max(1, ⌈m·x⌉)` convention (so `x = i/m` falls in
/// bin `i-1`, and `x = 0` in bin 0). Values outside `[0,1]` are clamped.
#[inline]
pub fn bin_index(x: f64, m: usize) -> usize {
    BinIndexer::new(m).index(x)
}

/// Precomputed state for repeated [`bin_index`] calls over one histogram
/// geometry: the scan-loop form with the `m → f64` conversions hoisted
/// out of the per-value loop and a branchless index conversion (clamp +
/// truncating cast + bool bump emulating `ceil`, instead of the `ceil`
/// libm call — semantics are identical, including NaN and out-of-range
/// clamping, see the unit tests).
#[derive(Debug, Clone, Copy)]
pub struct BinIndexer {
    /// Bin count as f64 (the inverse bin width on `[0,1]`).
    mf: f64,
}

impl BinIndexer {
    /// Indexer for an `m ≥ 1` bin histogram.
    #[inline]
    pub fn new(m: usize) -> Self {
        debug_assert!(m >= 1);
        Self { mf: m as f64 }
    }

    /// Branchless [`bin_index`] of `x` (same clamping semantics).
    #[inline]
    pub fn index(&self, x: f64) -> usize {
        // Clamp the scaled value into [0, m] first (f64::max/min compile
        // to maxsd/minsd and also squash NaN to 0), then emulate ceil:
        // floor via the truncating cast, plus one when fractional.
        let t = (self.mf * x).max(0.0).min(self.mf);
        let i = t as usize;
        let one_based = i + ((i as f64) < t) as usize;
        // max(1) maps both the x ≤ 0 clamp (t = 0) and exact zero into
        // bin 1 (1-based), per the paper's max(1, ⌈m·x⌉).
        one_based.max(1) - 1
    }

    /// The scan-kernel form of [`BinIndexer::index`]: identical result
    /// for every `f64` input (pinned by a unit test), one conversion
    /// instead of two. `max(1, ⌈t⌉) − 1` maps `t ∈ (k, k+1] → k` and
    /// `t = 0 → 0`; stepping a positive `t` one ulp down and flooring
    /// computes the same map directly — clamped `t` is finite and
    /// non-negative, so the bit decrement is exactly `nextafter(t, -∞)`
    /// (it also crosses from `k` into `(k−1, k)` at exact bin edges,
    /// which is what sends edges to the lower bin), and the truncating
    /// cast is a floor for non-negative values. Used by [`bin_rows`],
    /// where the back-conversion's latency dominates the per-value
    /// chain; [`BinIndexer::index`] stays the readable reference.
    #[inline]
    pub fn index_scan(&self, x: f64) -> usize {
        let t = (self.mf * x).max(0.0).min(self.mf);
        f64::from_bits(t.to_bits() - ((t > 0.0) as u64)) as usize
    }
}

/// Bins rows of values into one histogram per attribute in a single
/// streaming pass: value `j` of each row lands in `hists[j]` (rows must
/// be at least as wide as `hists`). A flat row-major block passes
/// `data.chunks_exact(stride)`, an MR split its row slices. The
/// [`BinIndexer`] state is hoisted per attribute, each row is read once
/// (each cache line is touched a single time, unlike a per-attribute
/// strided re-scan), and consecutive increments hit different histograms
/// so the store-to-load chains of repeated bins interleave. Counts are
/// exact `+1.0` increments — bit-identical to calling
/// [`Histogram::add`] value by value in any order.
pub fn bin_rows<'a>(hists: &mut [Histogram], rows: impl IntoIterator<Item = &'a [f64]>) {
    let indexers: Vec<BinIndexer> = hists
        .iter()
        .map(|h| BinIndexer::new(h.num_bins()))
        .collect();
    for row in rows {
        assert!(row.len() >= hists.len(), "row narrower than histogram set");
        for ((hist, indexer), &v) in hists.iter_mut().zip(&indexers).zip(row) {
            // `index_scan` already returns < num_bins; the redundant
            // clamp makes that provable so the increment needs no
            // bounds check (a cmov instead of a cmp+branch per value).
            let last = hist.counts.len() - 1;
            hist.counts[indexer.index_scan(v).min(last)] += 1.0;
        }
    }
}

/// A histogram over `[0,1]` with `m` equal-width bins and f64 counts
/// (counts are f64 so that partial/weighted histograms merge exactly like
/// the MapReduce jobs do).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<f64>,
}

impl Histogram {
    /// Empty histogram with `m ≥ 1` bins.
    pub fn new(m: usize) -> Self {
        assert!(m >= 1, "histogram needs at least one bin");
        Self {
            counts: vec![0.0; m],
        }
    }

    /// Rebuilds a histogram from persisted per-bin counts (snapshot
    /// restore). The counts are taken verbatim — exactly what
    /// [`counts`](Histogram::counts) returned when it was saved.
    ///
    /// # Panics
    /// Panics on an empty counts vector (a histogram has ≥ 1 bin).
    pub fn from_counts(counts: Vec<f64>) -> Self {
        assert!(!counts.is_empty(), "histogram needs at least one bin");
        Self { counts }
    }

    /// Builds a histogram directly from values.
    pub fn from_values(values: impl IntoIterator<Item = f64>, m: usize) -> Self {
        let mut h = Self::new(m);
        for v in values {
            h.add(v);
        }
        h
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.counts.len()
    }

    /// Adds one observation with weight 1.
    #[inline]
    pub fn add(&mut self, x: f64) {
        self.add_weighted(x, 1.0);
    }

    /// Adds one observation with the given weight.
    #[inline]
    pub fn add_weighted(&mut self, x: f64, w: f64) {
        let i = bin_index(x, self.counts.len());
        self.counts[i] += w;
    }

    /// Adds every value with weight 1 — the scan-kernel form of
    /// [`Histogram::add`], with the [`BinIndexer`] state hoisted out of
    /// the per-value loop. Counts are bit-identical to repeated `add`.
    pub fn add_all(&mut self, values: impl IntoIterator<Item = f64>) {
        let indexer = BinIndexer::new(self.counts.len());
        for v in values {
            self.counts[indexer.index(v)] += 1.0;
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Count of bin `i`.
    pub fn count(&self, i: usize) -> f64 {
        self.counts[i]
    }

    /// Total mass.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// Merges another histogram (same bin count) into this one —
    /// the reducer side of the histogram-building MapReduce job.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "merging histograms of different bin counts"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Subtracts another histogram (same bin count) bin-by-bin — the
    /// retract counterpart of [`Histogram::merge`] used by the
    /// incremental service's delta maintenance. Unit-weight counts are
    /// integer-valued f64 sums far below 2⁵³, where addition and
    /// subtraction are exact, so `h.merge(&d); h.subtract(&d)` restores
    /// `h` bit-for-bit.
    pub fn subtract(&mut self, other: &Histogram) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "subtracting histograms of different bin counts"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a -= b;
        }
    }

    /// The `[lo, hi]` value range covered by bin `i`.
    pub fn bin_bounds(&self, i: usize) -> (f64, f64) {
        let m = self.counts.len() as f64;
        (i as f64 / m, (i as f64 + 1.0) / m)
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        1.0 / self.counts.len() as f64
    }

    /// Index of the fullest bin, breaking ties toward the lower index;
    /// `None` when the histogram is empty of mass.
    pub fn argmax(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &c) in self.counts.iter().enumerate() {
            match best {
                Some((_, b)) if c <= b => {}
                _ => best = Some((i, c)),
            }
        }
        best.filter(|&(_, c)| c > 0.0).map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bin_indexing() {
        // m = 10: x=0 → bin 0; x=0.05 → ⌈0.5⌉=1 → bin 0; x=0.1 → bin 0
        // (upper edge belongs to lower bin); x=0.1000001 → bin 1; x=1 → bin 9.
        assert_eq!(bin_index(0.0, 10), 0);
        assert_eq!(bin_index(0.05, 10), 0);
        assert_eq!(bin_index(0.1, 10), 0);
        assert_eq!(bin_index(0.100_000_1, 10), 1);
        assert_eq!(bin_index(0.95, 10), 9);
        assert_eq!(bin_index(1.0, 10), 9);
    }

    #[test]
    fn branchless_index_matches_ceil_formula() {
        // The previous implementation, kept as the semantic reference.
        let ceil_form = |x: f64, m: usize| -> usize {
            let raw = (m as f64 * x).ceil();
            let one_based = raw.max(1.0).min(m as f64);
            one_based as usize - 1
        };
        for m in [1usize, 2, 7, 10, 64, 1000] {
            let indexer = BinIndexer::new(m);
            for i in -50..2050 {
                let x = i as f64 / 1000.0;
                assert_eq!(bin_index(x, m), ceil_form(x, m), "x={x}, m={m}");
                assert_eq!(indexer.index_scan(x), ceil_form(x, m), "x={x}, m={m}");
            }
            // Exact bin edges and one-ulp neighbours.
            for b in 0..=m {
                let edge = b as f64 / m as f64;
                for x in [
                    edge,
                    f64::from_bits(edge.to_bits() + 1),
                    f64::from_bits(edge.to_bits().saturating_sub(1)),
                ] {
                    assert_eq!(bin_index(x, m), ceil_form(x, m), "x={x}, m={m}");
                    assert_eq!(indexer.index_scan(x), ceil_form(x, m), "x={x}, m={m}");
                }
            }
            for x in [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MIN_POSITIVE,
                f64::from_bits(1), // smallest subnormal
                -0.0,
            ] {
                assert_eq!(bin_index(x, m), ceil_form(x, m), "x={x}, m={m}");
                assert_eq!(indexer.index_scan(x), ceil_form(x, m), "x={x}, m={m}");
            }
        }
    }

    #[test]
    fn bin_rows_matches_per_value_adds() {
        let data: Vec<f64> = (0..60).map(|i| (i as f64 * 0.37).fract()).collect();
        for (nhist, stride) in [(3usize, 3usize), (2, 3), (0, 2)] {
            let mut scanned: Vec<Histogram> = (0..nhist).map(|j| Histogram::new(4 + j)).collect();
            bin_rows(&mut scanned, data.chunks_exact(stride));
            let mut reference: Vec<Histogram> = (0..nhist).map(|j| Histogram::new(4 + j)).collect();
            for row in data.chunks_exact(stride) {
                for (hist, &v) in reference.iter_mut().zip(row) {
                    hist.add(v);
                }
            }
            assert_eq!(scanned, reference, "nhist={nhist}, stride={stride}");
        }
    }

    #[test]
    fn out_of_range_clamped() {
        assert_eq!(bin_index(-0.5, 10), 0);
        assert_eq!(bin_index(1.5, 10), 9);
    }

    #[test]
    fn single_bin_takes_everything() {
        for &x in &[0.0, 0.3, 1.0] {
            assert_eq!(bin_index(x, 1), 0);
        }
    }

    #[test]
    fn from_values_counts() {
        let h = Histogram::from_values([0.05, 0.15, 0.15, 0.95], 10);
        assert_eq!(h.count(0), 1.0);
        assert_eq!(h.count(1), 2.0);
        assert_eq!(h.count(9), 1.0);
        assert_eq!(h.total(), 4.0);
    }

    #[test]
    fn merge_adds_counts() {
        // Edge values (0.25, 0.75) belong to the *lower* bin per Eq. 8.
        let a = Histogram::from_values([0.05, 0.3], 4);
        let mut b = Histogram::from_values([0.05, 0.8], 4);
        b.merge(&a);
        assert_eq!(b.count(0), 2.0);
        assert_eq!(b.count(1), 1.0);
        assert_eq!(b.count(2), 0.0);
        assert_eq!(b.count(3), 1.0);
        assert_eq!(b.total(), 4.0);
    }

    #[test]
    fn merge_equals_global_histogram() {
        let values: Vec<f64> = (0..1000).map(|i| (i as f64 + 0.5) / 1000.0).collect();
        let whole = Histogram::from_values(values.iter().copied(), 17);
        let mut merged = Histogram::new(17);
        for chunk in values.chunks(97) {
            merged.merge(&Histogram::from_values(chunk.iter().copied(), 17));
        }
        assert_eq!(whole, merged);
    }

    #[test]
    fn bin_bounds_partition_unit_interval() {
        let h = Histogram::new(5);
        assert_eq!(h.bin_bounds(0), (0.0, 0.2));
        assert_eq!(h.bin_bounds(4), (0.8, 1.0));
        assert!((h.bin_width() - 0.2).abs() < 1e-15);
    }

    #[test]
    fn argmax_finds_fullest_bin() {
        let mut h = Histogram::new(4);
        assert_eq!(h.argmax(), None);
        h.add(0.1);
        h.add(0.6);
        h.add(0.6);
        assert_eq!(h.argmax(), Some(2));
    }

    #[test]
    fn weighted_adds() {
        let mut h = Histogram::new(2);
        h.add_weighted(0.25, 2.5);
        h.add_weighted(0.75, 0.5);
        assert_eq!(h.count(0), 2.5);
        assert_eq!(h.count(1), 0.5);
    }
}
