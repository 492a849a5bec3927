//! Relevant interval detection (paper Section 3.2.2).
//!
//! Per attribute: apply the χ² uniformity test; while the histogram is
//! significantly non-uniform, mark the fullest bin and remove it from the
//! test. Adjacent marked bins are then merged into relevant intervals `Î`.

use crate::types::Interval;
use p3c_stats::chi2::chi2_uniformity_test;
use p3c_stats::Histogram;

/// Marks relevant bins of one attribute's histogram.
///
/// Returns the marked bin indices (sorted). The loop marks the bin with
/// the highest support, removes it, and repeats as long as the remaining
/// bins reject uniformity at `alpha` — exactly the paper's procedure.
pub fn mark_relevant_bins(hist: &Histogram, alpha: f64) -> Vec<usize> {
    let mut remaining: Vec<(usize, f64)> = hist.counts().iter().copied().enumerate().collect();
    let mut marked = Vec::new();
    loop {
        let counts: Vec<f64> = remaining.iter().map(|&(_, c)| c).collect();
        let reject = match chi2_uniformity_test(&counts) {
            Some(t) => t.is_non_uniform(alpha),
            None => false, // fewer than 2 bins left, or all empty
        };
        if !reject {
            break;
        }
        // Mark the fullest remaining bin (ties → lowest index).
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.1.partial_cmp(&b.1).unwrap())
            .expect("nonempty");
        marked.push(remaining.remove(pos).0);
    }
    marked.sort_unstable();
    marked
}

/// Merges adjacent marked bins of one attribute into intervals.
pub fn merge_marked_bins(attr: usize, marked: &[usize], bins: usize) -> Vec<Interval> {
    let mut out = Vec::new();
    let mut iter = marked.iter().copied();
    let Some(first) = iter.next() else { return out };
    let mut lo = first;
    let mut hi = first;
    for b in iter {
        if b == hi + 1 {
            hi = b;
        } else {
            out.push(Interval::new(attr, lo, hi, bins));
            lo = b;
            hi = b;
        }
    }
    out.push(Interval::new(attr, lo, hi, bins));
    out
}

/// Detects all relevant intervals `Î` across attributes. Each attribute
/// uses its own histogram's bin count (per-attribute binning is what the
/// exact-IQR Freedman–Diaconis extension produces).
pub fn relevant_intervals(histograms: &[Histogram], alpha: f64) -> Vec<Interval> {
    let mut out = Vec::new();
    for (attr, hist) in histograms.iter().enumerate() {
        let marked = mark_relevant_bins(hist, alpha);
        out.extend(merge_marked_bins(attr, &marked, hist.num_bins()));
    }
    out
}

/// Support of an interval directly from its histogram (sum of bin counts).
pub fn interval_support(hist: &Histogram, interval: &Interval) -> f64 {
    (interval.bin_lo..=interval.bin_hi)
        .map(|b| hist.count(b))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(counts: &[f64]) -> Histogram {
        Histogram::from_counts(counts.to_vec())
    }

    #[test]
    fn uniform_histogram_marks_nothing() {
        let h = hist(&[100.0; 10]);
        assert!(mark_relevant_bins(&h, 0.001).is_empty());
    }

    #[test]
    fn single_spike_marked() {
        let mut counts = vec![100.0; 10];
        counts[4] = 1200.0;
        let h = hist(&counts);
        let marked = mark_relevant_bins(&h, 0.001);
        assert_eq!(marked, vec![4]);
    }

    #[test]
    fn two_spikes_marked() {
        let mut counts = vec![100.0; 10];
        counts[2] = 900.0;
        counts[7] = 1100.0;
        let h = hist(&counts);
        let marked = mark_relevant_bins(&h, 0.001);
        assert_eq!(marked, vec![2, 7]);
    }

    #[test]
    fn adjacent_spikes_merge_into_one_interval() {
        let mut counts = vec![100.0; 10];
        counts[3] = 800.0;
        counts[4] = 900.0;
        let h = hist(&counts);
        let marked = mark_relevant_bins(&h, 0.001);
        let ivs = merge_marked_bins(0, &marked, 10);
        assert_eq!(ivs.len(), 1);
        assert_eq!((ivs[0].bin_lo, ivs[0].bin_hi), (3, 4));
    }

    #[test]
    fn separated_spikes_give_two_intervals() {
        let ivs = merge_marked_bins(2, &[1, 2, 5], 10);
        assert_eq!(ivs.len(), 2);
        assert_eq!((ivs[0].bin_lo, ivs[0].bin_hi), (1, 2));
        assert_eq!((ivs[1].bin_lo, ivs[1].bin_hi), (5, 5));
        assert!(ivs.iter().all(|iv| iv.attr == 2));
    }

    #[test]
    fn empty_marks_give_no_intervals() {
        assert!(merge_marked_bins(0, &[], 10).is_empty());
    }

    #[test]
    fn interval_support_sums_bins() {
        let h = hist(&[10.0, 20.0, 30.0, 40.0]);
        let iv = Interval::new(0, 1, 2, 4);
        assert_eq!(interval_support(&h, &iv), 50.0);
    }

    #[test]
    fn relevant_intervals_across_attributes() {
        let mut a0 = vec![100.0; 10];
        a0[0] = 1500.0;
        let a1 = vec![100.0; 10];
        let ivs = relevant_intervals(&[hist(&a0), hist(&a1)], 0.001);
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].attr, 0);
        assert_eq!((ivs[0].bin_lo, ivs[0].bin_hi), (0, 0));
    }

    #[test]
    fn marking_terminates_on_pathological_input() {
        // Strictly increasing counts: should mark some and stop without
        // looping forever even at a loose alpha.
        let counts: Vec<f64> = (1..=20).map(|i| (i * i) as f64).collect();
        let h = hist(&counts);
        let marked = mark_relevant_bins(&h, 0.05);
        assert!(!marked.is_empty());
        assert!(marked.len() <= 20);
    }
}
