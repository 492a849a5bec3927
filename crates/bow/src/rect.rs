//! Projected hyperrectangles and the BoW merge phase.
//!
//! Cordeiro et al. merge "intersecting hyperrectangles to larger
//! hyperrectangles". For *projected* clusters a rectangle constrains only
//! its relevant attributes, so we concretize intersection as:
//!
//! * the attribute sets overlap substantially (Jaccard ≥ `min_jaccard`,
//!   default 0.5 — partitions occasionally miss one relevant attribute of
//!   a cluster and should still merge), and
//! * the intervals overlap on **every** shared attribute.
//!
//! Merging takes the union of attribute sets and, per attribute, the
//! union bounding interval. The phase iterates to a fixed point.

use p3c_dataset::AttrInterval;
use std::collections::BTreeMap;

/// A projected hyperrectangle: one interval per relevant attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    /// Intervals keyed by attribute.
    intervals: BTreeMap<usize, (f64, f64)>,
}

impl Rect {
    /// Builds a rectangle from attribute intervals.
    pub fn new(intervals: impl IntoIterator<Item = AttrInterval>) -> Self {
        Self {
            intervals: intervals
                .into_iter()
                .map(|iv| (iv.attr, (iv.lo, iv.hi)))
                .collect(),
        }
    }

    /// Number of constrained attributes.
    pub fn dim(&self) -> usize {
        self.intervals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// The constrained attributes, ascending.
    pub fn attrs(&self) -> impl Iterator<Item = usize> + '_ {
        self.intervals.keys().copied()
    }

    /// The interval on `attr`, if constrained.
    pub fn interval(&self, attr: usize) -> Option<AttrInterval> {
        self.intervals
            .get(&attr)
            .map(|&(lo, hi)| AttrInterval::new(attr, lo, hi))
    }

    /// The intervals as a sorted list.
    pub fn to_intervals(&self) -> Vec<AttrInterval> {
        self.intervals
            .iter()
            .map(|(&attr, &(lo, hi))| AttrInterval::new(attr, lo, hi))
            .collect()
    }

    /// Whether a point lies inside (on all constrained attributes).
    pub fn contains(&self, point: &[f64]) -> bool {
        self.intervals.iter().all(|(&attr, &(lo, hi))| {
            let v = point[attr];
            lo <= v && v <= hi
        })
    }

    /// Jaccard similarity of the attribute sets.
    pub fn attr_jaccard(&self, other: &Rect) -> f64 {
        let shared = self
            .intervals
            .keys()
            .filter(|a| other.intervals.contains_key(a))
            .count();
        let union = self.dim() + other.dim() - shared;
        if union == 0 {
            1.0
        } else {
            shared as f64 / union as f64
        }
    }

    /// Whether the intervals overlap on every shared attribute (vacuously
    /// true when no attribute is shared).
    pub fn overlaps_on_shared(&self, other: &Rect) -> bool {
        self.intervals
            .iter()
            .all(|(attr, &(lo, hi))| match other.intervals.get(attr) {
                Some(&(olo, ohi)) => lo <= ohi && olo <= hi,
                None => true,
            })
    }

    /// The BoW merge predicate (see module docs).
    pub fn should_merge(&self, other: &Rect, min_jaccard: f64) -> bool {
        self.attr_jaccard(other) >= min_jaccard && self.overlaps_on_shared(other)
    }

    /// Union-merge: union attribute set, bounding interval per attribute.
    pub fn merged_with(&self, other: &Rect) -> Rect {
        let mut intervals = self.intervals.clone();
        for (&attr, &(olo, ohi)) in &other.intervals {
            intervals
                .entry(attr)
                .and_modify(|e| {
                    e.0 = e.0.min(olo);
                    e.1 = e.1.max(ohi);
                })
                .or_insert((olo, ohi));
        }
        Rect { intervals }
    }
}

/// Iteratively merges rectangles until no pair satisfies the predicate.
///
/// The result is *canonical*: rectangles are first sorted by
/// dimensionality (most specific first, ties broken lexicographically),
/// and each rectangle merges into the **best-matching** (highest
/// attribute-Jaccard) qualifying partial, not the first one encountered.
/// This makes the outcome independent of reducer scheduling — merge
/// phases driven by arrival order let one blurred low-dimensional
/// rectangle swallow unrelated clusters.
pub fn merge_rectangles(mut rects: Vec<Rect>, min_jaccard: f64) -> Vec<Rect> {
    canonical_sort(&mut rects);
    loop {
        let mut merged_any = false;
        let mut out: Vec<Rect> = Vec::with_capacity(rects.len());
        for rect in rects.drain(..) {
            let best = out
                .iter()
                .enumerate()
                .filter(|(_, existing)| existing.should_merge(&rect, min_jaccard))
                .max_by(|(_, a), (_, b)| a.attr_jaccard(&rect).total_cmp(&b.attr_jaccard(&rect)))
                .map(|(i, _)| i);
            match best {
                Some(i) => {
                    out[i] = out[i].merged_with(&rect);
                    merged_any = true;
                }
                None => out.push(rect),
            }
        }
        rects = out;
        if !merged_any {
            canonical_sort(&mut rects);
            return rects;
        }
        canonical_sort(&mut rects);
    }
}

/// Most-specific-first deterministic order: dimensionality descending,
/// then attribute/interval lexicographic.
fn canonical_sort(rects: &mut [Rect]) {
    rects.sort_by(|a, b| {
        b.dim()
            .cmp(&a.dim())
            .then_with(|| a.to_intervals().len().cmp(&b.to_intervals().len()))
            .then_with(|| {
                let ia = a.to_intervals();
                let ib = b.to_intervals();
                ia.iter()
                    .zip(ib.iter())
                    .map(|(x, y)| {
                        x.attr
                            .cmp(&y.attr)
                            .then_with(|| x.lo.total_cmp(&y.lo))
                            .then_with(|| x.hi.total_cmp(&y.hi))
                    })
                    .find(|o| !o.is_eq())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(ivs: &[(usize, f64, f64)]) -> Rect {
        Rect::new(ivs.iter().map(|&(a, lo, hi)| AttrInterval::new(a, lo, hi)))
    }

    #[test]
    fn containment() {
        let r = rect(&[(0, 0.1, 0.3), (2, 0.5, 0.9)]);
        assert!(r.contains(&[0.2, 9.0, 0.7]));
        assert!(!r.contains(&[0.4, 9.0, 0.7]));
        assert!(!r.contains(&[0.2, 9.0, 0.4]));
    }

    #[test]
    fn jaccard() {
        let a = rect(&[(0, 0.0, 1.0), (1, 0.0, 1.0)]);
        let b = rect(&[(1, 0.0, 1.0), (2, 0.0, 1.0)]);
        assert!((a.attr_jaccard(&b) - 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(a.attr_jaccard(&a), 1.0);
    }

    #[test]
    fn merge_predicate_needs_overlap_and_jaccard() {
        let a = rect(&[(0, 0.1, 0.3), (1, 0.2, 0.4)]);
        let same_overlapping = rect(&[(0, 0.25, 0.5), (1, 0.3, 0.6)]);
        let same_disjoint = rect(&[(0, 0.5, 0.7), (1, 0.3, 0.6)]);
        let different_attrs = rect(&[(5, 0.1, 0.3), (6, 0.2, 0.4)]);
        assert!(a.should_merge(&same_overlapping, 0.5));
        assert!(!a.should_merge(&same_disjoint, 0.5));
        assert!(!a.should_merge(&different_attrs, 0.5));
    }

    #[test]
    fn partial_attr_overlap_merges_at_low_jaccard() {
        let a = rect(&[(0, 0.1, 0.3), (1, 0.2, 0.4)]);
        let b = rect(&[(0, 0.2, 0.35), (1, 0.25, 0.45), (2, 0.0, 0.2)]);
        // Jaccard = 2/3.
        assert!(a.should_merge(&b, 0.5));
        assert!(!a.should_merge(&b, 0.8));
        let m = a.merged_with(&b);
        assert_eq!(m.dim(), 3);
        let iv0 = m.interval(0).unwrap();
        assert_eq!((iv0.lo, iv0.hi), (0.1, 0.35));
    }

    #[test]
    fn merge_rectangles_reaches_fixed_point() {
        // Chain a–b–c: a overlaps b, b overlaps c, a does not overlap c.
        // All must collapse into one rectangle transitively.
        let a = rect(&[(0, 0.0, 0.2)]);
        let b = rect(&[(0, 0.15, 0.4)]);
        let c = rect(&[(0, 0.35, 0.6)]);
        let merged = merge_rectangles(vec![a, b, c], 0.5);
        assert_eq!(merged.len(), 1);
        let iv = merged[0].interval(0).unwrap();
        assert_eq!((iv.lo, iv.hi), (0.0, 0.6));
    }

    #[test]
    fn disjoint_rectangles_stay_separate() {
        let a = rect(&[(0, 0.0, 0.2), (1, 0.0, 0.2)]);
        let b = rect(&[(0, 0.5, 0.7), (1, 0.5, 0.7)]);
        let merged = merge_rectangles(vec![a.clone(), b.clone()], 0.5);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn empty_input() {
        assert!(merge_rectangles(vec![], 0.5).is_empty());
    }

    #[test]
    fn roundtrip_intervals() {
        let r = rect(&[(3, 0.1, 0.2), (1, 0.5, 0.6)]);
        let ivs = r.to_intervals();
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs[0].attr, 1);
        assert_eq!(ivs[1].attr, 3);
        assert_eq!(Rect::new(ivs), r);
    }
}
