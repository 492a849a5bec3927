//! The projected-clustering result model shared across the workspace.

use crate::json::{ToJson, Writer};
use std::collections::BTreeSet;

/// A closed interval `[lo, hi]` on one attribute — the building block of
/// the paper's output signatures (Definition 1 / interval tightening step).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttrInterval {
    /// The attribute (dimension index) the interval constrains.
    pub attr: usize,
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
}

impl AttrInterval {
    /// Creates `[lo, hi]` on `attr`; panics if the bounds are out of order.
    pub fn new(attr: usize, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "interval bounds out of order: [{lo}, {hi}]");
        Self { attr, lo, hi }
    }

    /// `width(I) = iu − il` (Definition 1).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether a point's coordinate on this attribute falls inside.
    #[inline]
    pub fn contains(&self, point: &[f64]) -> bool {
        let v = point[self.attr];
        self.lo <= v && v <= self.hi
    }

    /// Whether two intervals on the same attribute overlap.
    pub fn overlaps(&self, other: &AttrInterval) -> bool {
        self.attr == other.attr && self.lo <= other.hi && other.lo <= self.hi
    }

    /// Smallest interval covering both (same attribute only).
    pub fn union(&self, other: &AttrInterval) -> AttrInterval {
        assert_eq!(
            self.attr, other.attr,
            "union of intervals on different attributes"
        );
        AttrInterval::new(self.attr, self.lo.min(other.lo), self.hi.max(other.hi))
    }
}

impl ToJson for AttrInterval {
    fn write_json(&self, w: &mut Writer) {
        w.object(&[("attr", &self.attr), ("lo", &self.lo), ("hi", &self.hi)]);
    }
}

/// A projected cluster `C = (X, Y)`: a set of points and their relevant
/// attributes (Definition 3), plus the tightened output intervals on those
/// attributes (the paper's output signature `S^output`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProjectedCluster {
    /// Member point ids (sorted, unique).
    pub points: Vec<usize>,
    /// Relevant attributes `Y`.
    pub attributes: BTreeSet<usize>,
    /// Output intervals, one per relevant attribute, sorted by attribute.
    pub intervals: Vec<AttrInterval>,
}

impl ProjectedCluster {
    /// Builds a cluster, normalizing the point list to sorted/unique order
    /// and the interval list to attribute order.
    pub fn new(
        mut points: Vec<usize>,
        attributes: BTreeSet<usize>,
        mut intervals: Vec<AttrInterval>,
    ) -> Self {
        points.sort_unstable();
        points.dedup();
        intervals.sort_by_key(|iv| iv.attr);
        Self {
            points,
            attributes,
            intervals,
        }
    }

    /// Number of member points.
    pub fn size(&self) -> usize {
        self.points.len()
    }

    /// Number of (point, attribute) subobjects — the unit of the E4SC /
    /// RNIA / CE measures.
    pub fn num_subobjects(&self) -> usize {
        self.points.len() * self.attributes.len()
    }

    /// Whether the point id is a member (binary search on the sorted list).
    pub fn contains_point(&self, id: usize) -> bool {
        self.points.binary_search(&id).is_ok()
    }

    /// Whether a point's coordinates fall inside all output intervals.
    pub fn covers(&self, point: &[f64]) -> bool {
        self.intervals.iter().all(|iv| iv.contains(point))
    }

    /// The interval on a given attribute, if it is relevant.
    pub fn interval_on(&self, attr: usize) -> Option<&AttrInterval> {
        self.intervals.iter().find(|iv| iv.attr == attr)
    }
}

impl ToJson for ProjectedCluster {
    fn write_json(&self, w: &mut Writer) {
        w.object(&[
            ("points", &self.points),
            ("attributes", &self.attributes),
            ("intervals", &self.intervals),
        ]);
    }
}

/// A complete clustering: clusters plus explicit outliers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Clustering {
    /// The projected clusters.
    pub clusters: Vec<ProjectedCluster>,
    /// Points assigned to no cluster.
    pub outliers: Vec<usize>,
}

impl Clustering {
    /// Creates a clustering, sorting and deduplicating the outlier list.
    pub fn new(clusters: Vec<ProjectedCluster>, mut outliers: Vec<usize>) -> Self {
        outliers.sort_unstable();
        outliers.dedup();
        Self { clusters, outliers }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Total subobjects over all clusters.
    pub fn total_subobjects(&self) -> usize {
        self.clusters
            .iter()
            .map(ProjectedCluster::num_subobjects)
            .sum()
    }

    /// The union of all attributes relevant to at least one cluster —
    /// the paper's `A_rel` (Equation 3).
    pub fn relevant_attributes(&self) -> BTreeSet<usize> {
        self.clusters
            .iter()
            .flat_map(|c| c.attributes.iter().copied())
            .collect()
    }
}

impl ToJson for Clustering {
    fn write_json(&self, w: &mut Writer) {
        w.object(&[("clusters", &self.clusters), ("outliers", &self.outliers)]);
    }
}

/// Splits a hard assignment — `labels[i]` is point `i`'s cluster index,
/// negative for an outlier — into the `k` per-cluster member lists and
/// the outlier list, all ascending by point id.
pub fn split_assignment(labels: &[i64], k: usize) -> (Vec<Vec<usize>>, Vec<usize>) {
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut outliers = Vec::new();
    for (i, &label) in labels.iter().enumerate() {
        match usize::try_from(label) {
            Ok(c) => members[c].push(i),
            Err(_) => outliers.push(i),
        }
    }
    (members, outliers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval(attr: usize, lo: f64, hi: f64) -> AttrInterval {
        AttrInterval::new(attr, lo, hi)
    }

    #[test]
    fn split_assignment_partitions_ids() {
        let (members, outliers) = split_assignment(&[1, -1, 0, 1, -1], 3);
        assert_eq!(members, vec![vec![2], vec![0, 3], vec![]]);
        assert_eq!(outliers, vec![1, 4]);
    }

    #[test]
    fn interval_basics() {
        let iv = interval(2, 0.2, 0.5);
        assert!((iv.width() - 0.3).abs() < 1e-15);
        assert!(iv.contains(&[9.0, 9.0, 0.35]));
        assert!(iv.contains(&[9.0, 9.0, 0.2])); // closed bounds
        assert!(!iv.contains(&[9.0, 9.0, 0.55]));
    }

    #[test]
    fn interval_overlap_and_union() {
        let a = interval(0, 0.1, 0.4);
        let b = interval(0, 0.3, 0.6);
        let c = interval(0, 0.5, 0.9);
        let d = interval(1, 0.1, 0.4);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(!a.overlaps(&d)); // different attribute
        let u = a.union(&b);
        assert_eq!((u.lo, u.hi), (0.1, 0.6));
    }

    #[test]
    fn cluster_normalizes_points_and_intervals() {
        let c = ProjectedCluster::new(
            vec![5, 1, 3, 1],
            BTreeSet::from([1, 0]),
            vec![interval(1, 0.0, 1.0), interval(0, 0.2, 0.3)],
        );
        assert_eq!(c.points, vec![1, 3, 5]);
        assert_eq!(c.intervals[0].attr, 0);
        assert!(c.contains_point(3));
        assert!(!c.contains_point(2));
        assert_eq!(c.num_subobjects(), 6);
    }

    #[test]
    fn cluster_covers_requires_all_intervals() {
        let c = ProjectedCluster::new(
            vec![0],
            BTreeSet::from([0, 1]),
            vec![interval(0, 0.0, 0.5), interval(1, 0.5, 1.0)],
        );
        assert!(c.covers(&[0.3, 0.8]));
        assert!(!c.covers(&[0.3, 0.3]));
        assert_eq!(c.interval_on(1).unwrap().lo, 0.5);
        assert!(c.interval_on(2).is_none());
    }

    #[test]
    fn clustering_relevant_attributes_union() {
        let c1 = ProjectedCluster::new(vec![0], BTreeSet::from([0, 2]), vec![]);
        let c2 = ProjectedCluster::new(vec![1], BTreeSet::from([2, 4]), vec![]);
        let cl = Clustering::new(vec![c1, c2], vec![9, 7, 9]);
        assert_eq!(cl.relevant_attributes(), BTreeSet::from([0, 2, 4]));
        assert_eq!(cl.outliers, vec![7, 9]);
        assert_eq!(cl.num_clusters(), 2);
        assert_eq!(cl.total_subobjects(), 4);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn inverted_interval_panics() {
        let _ = interval(0, 0.7, 0.2);
    }
}
