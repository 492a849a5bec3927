//! Attribute inspection, AI proving and interval tightening
//! (paper Sections 3.2.2, 4.2.3, 5.6, 5.7).
//!
//! After the point partition is fixed (by EM + outlier detection, or by
//! support-set membership in the Light variant), each cluster's members
//! are re-examined: histograms over the members reveal relevant
//! attributes missed by core generation; P3C+ additionally *proves* each
//! suggested interval with the same support test as Equation 1 (AI
//! proving); finally every relevant attribute's interval is tightened to
//! the min/max of the members.
//!
//! Both stages read only sums of per-attribute histograms and per-
//! attribute min/max, so one mergeable [`ClusterSummary`] per cluster
//! carries everything they need: the serial pipelines fold it from the
//! member rows, the MR attribute-inspection job folds it per split and
//! merges in the reducer, and the incremental service keeps it as its
//! per-core state. [`ClusterSummary::finalize`] turns it into the
//! cluster for all of them.

use crate::config::P3cParams;
use crate::cores::SupportTester;
use crate::relevance::{mark_relevant_bins, merge_marked_bins};
use crate::types::Interval;
use p3c_dataset::{AttrInterval, ProjectedCluster};
use p3c_stats::Histogram;
use std::collections::BTreeSet;

/// How many rows a set holds and, per attribute, the smallest and
/// largest value among them (`+∞`/`−∞` while empty).
#[derive(Debug, Clone, PartialEq)]
pub struct Bounds {
    /// Rows folded in.
    pub rows: usize,
    /// Per-attribute minimum.
    pub min: Vec<f64>,
    /// Per-attribute maximum.
    pub max: Vec<f64>,
}

impl Bounds {
    /// Empty bounds over `d` attributes.
    pub fn new(d: usize) -> Self {
        Self {
            rows: 0,
            min: vec![f64::INFINITY; d],
            max: vec![f64::NEG_INFINITY; d],
        }
    }

    /// Folds one row in.
    pub fn add(&mut self, row: &[f64]) {
        self.rows += 1;
        for ((lo, hi), &v) in self.min.iter_mut().zip(&mut self.max).zip(row) {
            *lo = lo.min(v);
            *hi = hi.max(v);
        }
    }

    /// Folds another set's bounds in. Min/max over non-NaN values is
    /// order-free, so any merge order gives the bounds of one scan.
    pub fn merge(&mut self, other: &Bounds) {
        self.rows += other.rows;
        for (lo, &v) in self.min.iter_mut().zip(&other.min) {
            *lo = lo.min(v);
        }
        for (hi, &v) in self.max.iter_mut().zip(&other.max) {
            *hi = hi.max(v);
        }
    }

    /// The tightened interval of each attribute in `attrs` (Section
    /// 5.7): the smallest closed interval containing every row's value.
    /// An empty set yields `[0, 0]`.
    pub fn intervals(&self, attrs: &BTreeSet<usize>) -> Vec<AttrInterval> {
        attrs
            .iter()
            .map(|&attr| match self.rows {
                0 => AttrInterval::new(attr, 0.0, 0.0),
                _ => AttrInterval::new(attr, self.min[attr], self.max[attr]),
            })
            .collect()
    }
}

/// One cluster's finalization summary: the [`Bounds`] and per-attribute
/// histograms of the *inspected* members — all members in the full
/// pipelines, the members of no other core in the Light ones (Section
/// 6's histogram) — and the bounds of the other members. Summation form:
/// [`add`](Self::add) folds rows, [`merge`](Self::merge) folds another
/// partial summary of the same cluster, and counts stay integers in
/// `f64`, so every fold order yields the same bits.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSummary {
    /// Bounds over the members that are not inspected (none in the full
    /// pipelines).
    pub others: Bounds,
    /// Bounds over the inspected members.
    pub inspected: Bounds,
    /// Per attribute, the inspected members' histogram at the cluster's
    /// bin count ([`inspection_bins`]); none while that count is 0.
    pub hists: Vec<Histogram>,
}

/// The bin count of a cluster's inspection histograms: the configured
/// rule over the number of inspected rows, or 0 (no histograms) when
/// there are none.
pub fn inspection_bins(inspected: usize, params: &P3cParams) -> usize {
    match inspected {
        0 => 0,
        m => params.bin_rule.to_rule().num_bins(m).max(1),
    }
}

impl ClusterSummary {
    /// Empty summary over `d` attributes with `bins`-bin histograms
    /// (`bins == 0`: bounds only).
    pub fn new(d: usize, bins: usize) -> Self {
        Self {
            others: Bounds::new(d),
            inspected: Bounds::new(d),
            hists: match bins {
                0 => Vec::new(),
                b => vec![Histogram::new(b); d],
            },
        }
    }

    /// Folds member rows; `inspected` ones go into the inspected bounds
    /// and histograms (one streaming pass of the histogram kernel), the
    /// rest into the other members' bounds.
    pub fn add<'r>(&mut self, rows: impl IntoIterator<Item = &'r [f64]>, inspected: bool) {
        match inspected {
            true => {
                let bounds = &mut self.inspected;
                p3c_stats::bin_rows(&mut self.hists, rows.into_iter().inspect(|r| bounds.add(r)));
            }
            false => rows.into_iter().for_each(|r| self.others.add(r)),
        }
    }

    /// [`add`](Self::add) without the histograms — the service's path
    /// while a summary's histograms wait to be refolded.
    pub fn add_bounds(&mut self, row: &[f64], inspected: bool) {
        match inspected {
            true => self.inspected.add(row),
            false => self.others.add(row),
        }
    }

    /// Folds another partial summary of the same cluster (same bin
    /// count) in.
    pub fn merge(&mut self, other: &ClusterSummary) {
        debug_assert_eq!(self.hists.len(), other.hists.len());
        self.others.merge(&other.others);
        self.inspected.merge(&other.inspected);
        for (h, o) in self.hists.iter_mut().zip(&other.hists) {
            h.merge(o);
        }
    }

    /// The bounds over every member.
    pub fn members(&self) -> Bounds {
        let mut members = self.others.clone();
        members.merge(&self.inspected);
        members
    }

    /// The one fold behind the serial pipelines and the service: the
    /// rows `members` (ascending ids into `rows`), inspecting those also
    /// in `inspected` (an ascending subsequence), at the bin count of
    /// `inspected.len()`.
    pub fn fold(
        rows: &[&[f64]],
        members: &[usize],
        inspected: &[usize],
        params: &P3cParams,
    ) -> Self {
        let d = rows.first().map_or(0, |r| r.len());
        let mut summary = Self::new(d, inspection_bins(inspected.len(), params));
        let mut next = inspected.iter().peekable();
        let others = members.iter().filter(|&i| next.next_if_eq(&i).is_none());
        summary.add(others.map(|&i| rows[i]), false);
        debug_assert!(next.next().is_none(), "inspected ids outside members");
        summary.add(inspected.iter().map(|&i| rows[i]), true);
        summary
    }

    /// Attribute inspection over the inspected histograms, then interval
    /// tightening from the bounds: the core's attributes over every
    /// member, the attributes inspection adds over the inspected members
    /// (shared points would blur them, as Section 6 warns).
    pub fn finalize(
        &self,
        points: Vec<usize>,
        core_attrs: BTreeSet<usize>,
        params: &P3cParams,
    ) -> ProjectedCluster {
        let extra: BTreeSet<usize> =
            inspect_from_histograms(&self.hists, self.inspected.rows, &core_attrs, params)
                .iter()
                .map(|iv| iv.attr)
                .collect();
        let mut intervals = self.members().intervals(&core_attrs);
        intervals.extend(self.inspected.intervals(&extra));
        let mut attrs = core_attrs;
        attrs.extend(extra);
        ProjectedCluster::new(points, attrs, intervals)
    }
}

/// Suggests additional relevant intervals for one cluster from its member
/// rows, skipping attributes already known relevant.
///
/// When `params.use_ai_proving`, each suggested interval `I_new` must pass
/// the support test `Supp_members(I_new) >_p |members| · width(I_new)` —
/// the cluster-conditional form of Equation 1.
pub fn inspect_attributes(
    member_rows: &[&[f64]],
    known_attrs: &BTreeSet<usize>,
    params: &P3cParams,
) -> Vec<Interval> {
    let all: Vec<usize> = (0..member_rows.len()).collect();
    let summary = ClusterSummary::fold(member_rows, &all, &all, params);
    inspect_from_histograms(&summary.hists, all.len(), known_attrs, params)
}

/// The histogram-level half of attribute inspection: given per-attribute
/// member histograms (from the serial scan above, or from the MR
/// attribute-inspection job of Section 5.6), marks relevant bins, merges
/// them to intervals, and applies AI proving. Attributes in `known_attrs`
/// are skipped.
pub fn inspect_from_histograms(
    hists: &[Histogram],
    n_members: usize,
    known_attrs: &BTreeSet<usize>,
    params: &P3cParams,
) -> Vec<Interval> {
    let tester = SupportTester::from_params(params);
    let mut found = Vec::new();
    for (attr, hist) in hists.iter().enumerate() {
        if known_attrs.contains(&attr) {
            continue;
        }
        let bins = hist.num_bins();
        let marked = mark_relevant_bins(hist, params.alpha_chi2);
        for interval in merge_marked_bins(attr, &marked, bins) {
            if params.use_ai_proving {
                let support: f64 = (interval.bin_lo..=interval.bin_hi)
                    .map(|b| hist.count(b))
                    .sum();
                let expected = n_members as f64 * interval.width();
                if !tester.accepts(support, expected) {
                    continue;
                }
            }
            found.push(interval);
        }
    }
    found
}

/// Tightens the output intervals of a cluster: per relevant attribute the
/// smallest closed interval containing all member values (Section 5.7).
pub fn tighten_intervals(member_rows: &[&[f64]], attrs: &BTreeSet<usize>) -> Vec<AttrInterval> {
    let mut bounds = Bounds::new(member_rows.first().map_or(0, |r| r.len()));
    for row in member_rows {
        bounds.add(row);
    }
    bounds.intervals(attrs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Members concentrated on attr 1 around 0.3, uniform on attr 0.
    fn member_data(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let t = (i as f64 + 0.5) / n as f64;
                vec![t, 0.28 + 0.04 * ((i % 7) as f64 / 7.0)]
            })
            .collect()
    }

    #[test]
    fn finds_missed_relevant_attribute() {
        let data = member_data(500);
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let known = BTreeSet::new();
        let found = inspect_attributes(&rows, &known, &P3cParams::default());
        assert!(found.iter().any(|iv| iv.attr == 1), "found: {found:?}");
        assert!(found.iter().all(|iv| iv.attr != 0), "uniform attr flagged");
    }

    #[test]
    fn known_attributes_are_skipped() {
        let data = member_data(500);
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let known: BTreeSet<usize> = [1].into();
        let found = inspect_attributes(&rows, &known, &P3cParams::default());
        assert!(found.is_empty(), "found: {found:?}");
    }

    #[test]
    fn ai_proving_rejects_weak_intervals() {
        // A mild bump that the χ² marking flags at a loose alpha but whose
        // effect size stays under θ_cc.
        let mut data = Vec::new();
        for i in 0..1000 {
            let t = (i as f64 + 0.5) / 1000.0;
            data.push(vec![t]);
        }
        // add 12% extra points in one bin region
        for i in 0..120 {
            let t = (i as f64 + 0.5) / 120.0;
            data.push(vec![0.42 + 0.05 * t]);
        }
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let known = BTreeSet::new();
        let loose = P3cParams {
            alpha_chi2: 0.5,
            use_ai_proving: false,
            ..P3cParams::default()
        };
        let proving = P3cParams {
            alpha_chi2: 0.5,
            use_ai_proving: true,
            theta_cc: 3.0, // absurdly strict: nothing passes
            ..P3cParams::default()
        };
        let without = inspect_attributes(&rows, &known, &loose);
        let with = inspect_attributes(&rows, &known, &proving);
        assert!(with.len() <= without.len());
        assert!(with.is_empty(), "θ_cc=3 must reject all: {with:?}");
    }

    #[test]
    fn empty_members() {
        let rows: Vec<&[f64]> = vec![];
        assert!(inspect_attributes(&rows, &BTreeSet::new(), &P3cParams::default()).is_empty());
        assert!(tighten_intervals(&rows, &BTreeSet::new()).is_empty());
    }

    #[test]
    fn tightening_bounds_members_exactly() {
        let data = [vec![0.2, 0.9], vec![0.4, 0.5], vec![0.3, 0.7]];
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let attrs: BTreeSet<usize> = [0, 1].into();
        let ivs = tighten_intervals(&rows, &attrs);
        assert_eq!(ivs.len(), 2);
        assert_eq!((ivs[0].lo, ivs[0].hi), (0.2, 0.4));
        assert_eq!((ivs[1].lo, ivs[1].hi), (0.5, 0.9));
        // Every member is covered.
        for row in &rows {
            assert!(ivs.iter().all(|iv| iv.contains(row)));
        }
    }

    #[test]
    fn an_empty_member_set_tightens_to_zero() {
        // Every pipeline finalizes a cluster without members the same
        // way: no inspected attribute, `[0, 0]` on each core attribute.
        let empty = ClusterSummary::new(3, 0);
        let row: &[f64] = &[0.5, 0.5, 0.5];
        assert_eq!(
            ClusterSummary::fold(&[row], &[], &[], &P3cParams::default()),
            empty
        );
        let cluster = empty.finalize(Vec::new(), [0, 2].into(), &P3cParams::default());
        assert_eq!(cluster.attributes, [0, 2].into());
        let bounds: Vec<(usize, f64, f64)> = cluster
            .intervals
            .iter()
            .map(|iv| (iv.attr, iv.lo, iv.hi))
            .collect();
        assert_eq!(bounds, [(0, 0.0, 0.0), (2, 0.0, 0.0)]);
    }

    #[test]
    fn merged_partials_equal_one_fold() {
        let data = member_data(500);
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let params = P3cParams::default();
        let members: Vec<usize> = (0..500).collect();
        let inspected: Vec<usize> = (0..500).filter(|i| i % 4 != 0).collect();
        let whole = ClusterSummary::fold(&rows, &members, &inspected, &params);
        let bins = whole.hists[0].num_bins();
        let mut merged = ClusterSummary::new(2, bins);
        for chunk in members.chunks(77).rev() {
            let mut part = ClusterSummary::new(2, bins);
            for &i in chunk {
                part.add([rows[i]], i % 4 != 0);
            }
            merged.merge(&part);
        }
        assert_eq!(merged, whole);
        assert_eq!((whole.members().rows, whole.inspected.rows), (500, 375));
    }

    #[test]
    fn finalize_bounds_core_attributes_over_members_and_found_ones_over_inspected() {
        // Members 0..500 concentrate on attribute 1; the shared extra
        // rows widen attribute 0 and 1 but are not inspected.
        let mut data = member_data(500);
        data.push(vec![0.0, 0.95]);
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let params = P3cParams::default();
        let members: Vec<usize> = (0..501).collect();
        let summary = ClusterSummary::fold(&rows, &members, &members[..500], &params);
        let cluster = summary.finalize(members.clone(), [0].into(), &params);
        assert_eq!(cluster.attributes, [0, 1].into());
        let core = cluster.intervals[0];
        assert_eq!(
            (core.attr, core.lo),
            (0, 0.0),
            "core attribute over every member"
        );
        let found = cluster.intervals[1];
        assert_eq!(found.attr, 1);
        assert!(
            found.hi < 0.95,
            "found attribute over the inspected rows only"
        );
    }

    #[test]
    fn tightening_subset_of_attrs() {
        let data = [vec![0.2, 0.9], vec![0.4, 0.5]];
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let attrs: BTreeSet<usize> = [1].into();
        let ivs = tighten_intervals(&rows, &attrs);
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].attr, 1);
    }
}
