//! Core domain types: bin-based intervals and p-signatures.
//!
//! During cluster-core generation every interval is a **run of histogram
//! bins** on one attribute (relevant intervals arise by merging adjacent
//! marked bins, Section 3.2.2). Membership is therefore decided bin-wise
//! — a point is in the interval iff its bin index falls in the run —
//! which keeps the support arithmetic exactly consistent with the
//! histogram counts the statistical tests are computed from.

use p3c_dataset::bytes::{self, DecodeError, Reader};
use p3c_stats::histogram::bin_index;
use std::collections::BTreeSet;
use std::fmt;

/// A run of histogram bins `[bin_lo, bin_hi]` on one attribute, out of
/// `bins` total equi-width bins on `[0,1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    /// Attribute (dimension) index the interval lives on.
    pub attr: usize,
    /// First bin of the run (inclusive).
    pub bin_lo: usize,
    /// Last bin of the run (inclusive).
    pub bin_hi: usize,
    /// Total bins of the discretization this interval belongs to.
    pub bins: usize,
}

impl Interval {
    /// New interval `[bin_lo, bin_hi]` out of `bins` total bins.
    ///
    /// # Panics
    /// Panics on an out-of-order or out-of-range bin run.
    pub fn new(attr: usize, bin_lo: usize, bin_hi: usize, bins: usize) -> Self {
        assert!(bin_lo <= bin_hi, "bin range out of order");
        assert!(bin_hi < bins, "bin range exceeds bin count");
        Self {
            attr,
            bin_lo,
            bin_hi,
            bins,
        }
    }

    /// Bytes of one encoded interval.
    pub(crate) const ENCODED_BYTES: usize = 32;

    /// Appends the four fields as `u64`s — the interval layout of both
    /// a shuffled `SigMsg` and the incremental engine's state blob.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        for v in [self.attr, self.bin_lo, self.bin_hi, self.bins] {
            bytes::put_usize(buf, v);
        }
    }

    /// Decodes [`Interval::encode_into`] output, rejecting a bin run
    /// [`Interval::new`] would panic on.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let (attr, bin_lo, bin_hi, bins) = (r.usize()?, r.usize()?, r.usize()?, r.usize()?);
        if bin_lo <= bin_hi && bin_hi < bins {
            Ok(Self {
                attr,
                bin_lo,
                bin_hi,
                bins,
            })
        } else {
            Err(DecodeError::Malformed("interval bin range"))
        }
    }

    /// Lower value bound.
    pub fn lo(&self) -> f64 {
        self.bin_lo as f64 / self.bins as f64
    }

    /// Upper value bound.
    pub fn hi(&self) -> f64 {
        (self.bin_hi + 1) as f64 / self.bins as f64
    }

    /// `width(I)` — the value-space width used by expected supports
    /// (Equations 2 and 7).
    pub fn width(&self) -> f64 {
        (self.bin_hi - self.bin_lo + 1) as f64 / self.bins as f64
    }

    /// Bin-wise membership of a point.
    #[inline]
    pub fn contains(&self, point: &[f64]) -> bool {
        let b = bin_index(point[self.attr], self.bins);
        self.bin_lo <= b && b <= self.bin_hi
    }

    /// Whether this interval's bin run covers `other`'s (same attribute).
    pub fn covers(&self, other: &Interval) -> bool {
        self.attr == other.attr && self.bin_lo <= other.bin_lo && other.bin_hi <= self.bin_hi
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}∈[{:.3},{:.3}]", self.attr, self.lo(), self.hi())
    }
}

/// A p-signature: intervals on pairwise-distinct attributes
/// (Definition 2), kept sorted by attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signature {
    intervals: Vec<Interval>,
}

impl Signature {
    /// Builds a signature; intervals are sorted by attribute.
    ///
    /// # Panics
    /// Panics if two intervals share an attribute (Definition 2 requires
    /// disjunct attributes).
    pub fn new(intervals: Vec<Interval>) -> Self {
        Self::from_decoded(intervals).expect("signature with duplicate attribute")
    }

    /// [`Signature::new`] for intervals decoded from bytes: an error
    /// where `new` would panic.
    pub(crate) fn from_decoded(mut intervals: Vec<Interval>) -> Result<Self, DecodeError> {
        intervals.sort_by_key(|iv| iv.attr);
        if intervals.windows(2).all(|w| w[0].attr != w[1].attr) {
            Ok(Self { intervals })
        } else {
            Err(DecodeError::Malformed("signature repeats an attribute"))
        }
    }

    /// Single-interval signature.
    pub fn singleton(interval: Interval) -> Self {
        Self {
            intervals: vec![interval],
        }
    }

    /// The signature's dimensionality `p`.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether the signature spans no attribute at all.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// The contained intervals, sorted by attribute.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// `Attr(S)` — the attribute set.
    pub fn attributes(&self) -> BTreeSet<usize> {
        self.intervals.iter().map(|iv| iv.attr).collect()
    }

    /// Whether a point lies in the support set (all intervals contain it).
    #[inline]
    pub fn contains(&self, point: &[f64]) -> bool {
        self.intervals.iter().all(|iv| iv.contains(point))
    }

    /// Expected support under global uniformity (Equation 7):
    /// `n · Π width(I)`.
    pub fn expected_support(&self, n: usize) -> f64 {
        n as f64 * self.intervals.iter().map(Interval::width).product::<f64>()
    }

    /// The signature without its `i`-th interval (a (p−1)-subsignature).
    pub fn without_index(&self, i: usize) -> Signature {
        let mut ivs = self.intervals.clone();
        ivs.remove(i);
        Signature { intervals: ivs }
    }

    /// Extension by an interval on a fresh attribute; `None` if the
    /// attribute is already present.
    pub fn extended(&self, interval: Interval) -> Option<Signature> {
        if self.intervals.iter().any(|iv| iv.attr == interval.attr) {
            return None;
        }
        let mut ivs = self.intervals.clone();
        ivs.push(interval);
        ivs.sort_by_key(|iv| iv.attr);
        Some(Signature { intervals: ivs })
    }

    /// Apriori join: merges two p-signatures sharing exactly `p−1`
    /// intervals into a (p+1)-signature; `None` if not joinable (shared
    /// count wrong, or the two odd intervals collide on an attribute).
    pub fn join(&self, other: &Signature) -> Option<Signature> {
        if self.len() != other.len() || self.is_empty() {
            return None;
        }
        // Count shared intervals (both sorted by attr → merge scan).
        let mut shared = 0usize;
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.intervals.len() && j < other.intervals.len() {
            match self.intervals[i].cmp(&other.intervals[j]) {
                std::cmp::Ordering::Equal => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
            }
        }
        if shared + 1 != self.len() {
            return None;
        }
        // Union; the two distinct intervals must not share an attribute.
        let mut ivs: Vec<Interval> = self
            .intervals
            .iter()
            .chain(other.intervals.iter())
            .copied()
            .collect();
        ivs.sort();
        ivs.dedup();
        debug_assert_eq!(ivs.len(), self.len() + 1);
        ivs.sort_by_key(|iv| iv.attr);
        for w in ivs.windows(2) {
            if w[0].attr == w[1].attr {
                return None;
            }
        }
        Some(Signature { intervals: ivs })
    }

    /// Whether `sub` is a (not necessarily proper) sub-signature.
    pub fn contains_signature(&self, sub: &Signature) -> bool {
        sub.intervals.iter().all(|iv| self.intervals.contains(iv))
    }

    /// All (p−1)-subsignatures.
    pub fn subsignatures(&self) -> impl Iterator<Item = Signature> + '_ {
        (0..self.len()).map(|i| self.without_index(i))
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, iv) in self.intervals.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{iv}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(attr: usize, lo: usize, hi: usize) -> Interval {
        Interval::new(attr, lo, hi, 10)
    }

    #[test]
    fn interval_geometry() {
        let i = iv(3, 2, 4);
        assert!((i.lo() - 0.2).abs() < 1e-15);
        assert!((i.hi() - 0.5).abs() < 1e-15);
        assert!((i.width() - 0.3).abs() < 1e-15);
    }

    #[test]
    fn interval_binwise_membership() {
        let i = iv(0, 2, 4); // covers values in (0.2, 0.5]
        assert!(i.contains(&[0.25]));
        assert!(i.contains(&[0.5]));
        assert!(!i.contains(&[0.2])); // bin_index(0.2)=1 < 2
        assert!(!i.contains(&[0.55]));
    }

    #[test]
    fn interval_covers() {
        assert!(iv(0, 1, 5).covers(&iv(0, 2, 4)));
        assert!(iv(0, 1, 5).covers(&iv(0, 1, 5)));
        assert!(!iv(0, 2, 4).covers(&iv(0, 1, 5)));
        assert!(!iv(1, 0, 9).covers(&iv(0, 2, 4)));
    }

    #[test]
    fn signature_sorted_and_unique_attrs() {
        let s = Signature::new(vec![iv(5, 0, 1), iv(2, 3, 4)]);
        assert_eq!(s.intervals()[0].attr, 2);
        assert_eq!(s.attributes().into_iter().collect::<Vec<_>>(), vec![2, 5]);
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn duplicate_attribute_rejected() {
        let _ = Signature::new(vec![iv(1, 0, 1), iv(1, 3, 4)]);
    }

    #[test]
    fn expected_support_eq7() {
        // widths 0.2 and 0.3 on n=1000 → 1000·0.06 = 60.
        let s = Signature::new(vec![iv(0, 0, 1), iv(1, 3, 5)]);
        assert!((s.expected_support(1000) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn membership_requires_all_intervals() {
        let s = Signature::new(vec![iv(0, 0, 2), iv(1, 5, 9)]);
        assert!(s.contains(&[0.15, 0.8]));
        assert!(!s.contains(&[0.15, 0.3]));
        assert!(!s.contains(&[0.5, 0.8]));
    }

    #[test]
    fn join_of_overlapping_signatures() {
        let a = Signature::new(vec![iv(0, 0, 1), iv(1, 2, 3)]);
        let b = Signature::new(vec![iv(0, 0, 1), iv(2, 4, 5)]);
        let joined = a.join(&b).expect("joinable");
        assert_eq!(joined.len(), 3);
        assert_eq!(
            joined.attributes().into_iter().collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // Join is symmetric.
        assert_eq!(a.join(&b), b.join(&a));
    }

    #[test]
    fn join_rejects_wrong_overlap() {
        let a = Signature::new(vec![iv(0, 0, 1), iv(1, 2, 3)]);
        let c = Signature::new(vec![iv(2, 0, 1), iv(3, 2, 3)]);
        assert!(a.join(&c).is_none(), "no shared intervals");
        assert!(
            a.join(&a).is_none(),
            "identical signatures share p intervals"
        );
    }

    #[test]
    fn join_rejects_attribute_collision() {
        // Share interval on attr 0; odd intervals both on attr 1.
        let a = Signature::new(vec![iv(0, 0, 1), iv(1, 2, 3)]);
        let b = Signature::new(vec![iv(0, 0, 1), iv(1, 5, 6)]);
        assert!(a.join(&b).is_none());
    }

    #[test]
    fn singleton_join() {
        let a = Signature::singleton(iv(0, 0, 1));
        let b = Signature::singleton(iv(1, 2, 3));
        let j = a.join(&b).unwrap();
        assert_eq!(j.len(), 2);
        // Singletons on the same attribute cannot join.
        let c = Signature::singleton(iv(0, 4, 5));
        assert!(a.join(&c).is_none());
    }

    #[test]
    fn subsignatures_and_containment() {
        let s = Signature::new(vec![iv(0, 0, 1), iv(1, 2, 3), iv(2, 4, 5)]);
        let subs: Vec<Signature> = s.subsignatures().collect();
        assert_eq!(subs.len(), 3);
        for sub in &subs {
            assert_eq!(sub.len(), 2);
            assert!(s.contains_signature(sub));
            assert!(!sub.contains_signature(&s));
        }
    }

    #[test]
    fn extension() {
        let s = Signature::singleton(iv(0, 0, 1));
        let e = s.extended(iv(3, 2, 3)).unwrap();
        assert_eq!(e.len(), 2);
        assert!(s.extended(iv(0, 5, 6)).is_none());
    }
}
