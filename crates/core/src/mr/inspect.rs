//! Attribute-inspection and interval-tightening MapReduce jobs
//! (paper Sections 5.6 and 5.7).

use p3c_dataset::AttrInterval;
use p3c_mapreduce::{Emitter, Engine, Mapper, MrError, Reducer};
use p3c_stats::Histogram;
use std::sync::Arc;

/// Mapper of the attribute-inspection histogram job: per (cluster, attr)
/// partial histograms over the split's members. The membership id rides
/// with each input record (`−1` = not a member of any cluster).
struct AiHistMapper {
    /// Bins per cluster (cluster sizes differ, so bin counts do too).
    bins: Arc<Vec<usize>>,
}

impl<'a> Mapper<(i64, &'a [f64]), (usize, usize), Vec<f64>> for AiHistMapper {
    fn map(&self, record: &(i64, &'a [f64]), out: &mut Emitter<(usize, usize), Vec<f64>>) {
        self.map_split(std::slice::from_ref(record), out);
    }

    fn map_split(&self, split: &[(i64, &'a [f64])], out: &mut Emitter<(usize, usize), Vec<f64>>) {
        // One histogram set per cluster seen in the split, resolved once
        // per row; the row is then binned by the histogram kernel.
        let mut partials: Vec<Option<Vec<Histogram>>> = vec![None; self.bins.len()];
        for (label, row) in split {
            if *label < 0 {
                continue;
            }
            let c = *label as usize;
            let hists =
                partials[c].get_or_insert_with(|| vec![Histogram::new(self.bins[c]); row.len()]);
            p3c_stats::bin_rows(hists, [*row]);
        }
        // Ascending (cluster, attr): the emitted order feeds the shuffle
        // and must not vary run-to-run.
        for (c, hists) in partials.into_iter().enumerate() {
            for (attr, hist) in hists.into_iter().flatten().enumerate() {
                out.emit((c, attr), hist.counts().to_vec());
            }
        }
    }
}

struct VecSumReducer;
impl Reducer<(usize, usize), Vec<f64>, ((usize, usize), Vec<f64>)> for VecSumReducer {
    fn reduce(
        &self,
        key: &(usize, usize),
        values: Vec<Vec<f64>>,
        out: &mut Vec<((usize, usize), Vec<f64>)>,
    ) {
        let total = values.into_iter().reduce(|mut a, b| {
            for (x, y) in a.iter_mut().zip(&b) {
                *x += y;
            }
            a
        });
        if let Some(counts) = total {
            out.push((*key, counts));
        }
    }
}

/// Runs the attribute-inspection histogram job: for each cluster `c`
/// (labels in `items`), per-attribute histograms with `bins_per_cluster[c]`
/// bins over the cluster members. Returns `hists[c][attr]`.
pub fn ai_histogram_job(
    engine: &Engine,
    items: &[(i64, &[f64])],
    bins_per_cluster: &[usize],
) -> Result<Vec<Vec<Histogram>>, MrError> {
    let d = items.first().map_or(0, |(_, r)| r.len());
    let k = bins_per_cluster.len();
    let result = engine.run(
        "p3c-attribute-inspection",
        items,
        &AiHistMapper {
            bins: Arc::new(bins_per_cluster.to_vec()),
        },
        &VecSumReducer,
    )?;
    let mut hists: Vec<Vec<Histogram>> = (0..k)
        .map(|c| vec![Histogram::new(bins_per_cluster[c].max(1)); d])
        .collect();
    for ((c, attr), counts) in result.output {
        let bins = counts.len();
        let mut h = Histogram::new(bins);
        for (bin, &v) in counts.iter().enumerate() {
            let mid = (bin as f64 + 0.5) / bins as f64;
            h.add_weighted(mid, v);
        }
        hists[c][attr] = h;
    }
    Ok(hists)
}

// ------------------------------------------------------------- tighten --

/// Mapper of the interval-tightening job: split-local min/max per
/// (cluster, relevant attribute).
struct TightenMapper {
    /// Relevant attributes per cluster.
    attrs: Arc<Vec<Vec<usize>>>,
}

impl<'a> Mapper<(i64, &'a [f64]), (usize, usize), (f64, f64)> for TightenMapper {
    fn map(&self, record: &(i64, &'a [f64]), out: &mut Emitter<(usize, usize), (f64, f64)>) {
        self.map_split(std::slice::from_ref(record), out);
    }

    fn map_split(&self, split: &[(i64, &'a [f64])], out: &mut Emitter<(usize, usize), (f64, f64)>) {
        // BTreeMap: key-sorted emission without an explicit sort pass.
        use std::collections::BTreeMap;
        let mut extrema: BTreeMap<(usize, usize), (f64, f64)> = BTreeMap::new();
        for (label, row) in split {
            if *label < 0 {
                continue;
            }
            let c = *label as usize;
            for &attr in &self.attrs[c] {
                let v = row[attr];
                let e = extrema.entry((c, attr)).or_insert((v, v));
                e.0 = e.0.min(v);
                e.1 = e.1.max(v);
            }
        }
        for (key, (lo, hi)) in extrema {
            out.emit(key, (lo, hi));
        }
    }
}

struct MinMaxReducer;
impl Reducer<(usize, usize), (f64, f64), ((usize, usize), (f64, f64))> for MinMaxReducer {
    fn reduce(
        &self,
        key: &(usize, usize),
        values: Vec<(f64, f64)>,
        out: &mut Vec<((usize, usize), (f64, f64))>,
    ) {
        let folded = values
            .into_iter()
            .reduce(|a, b| (a.0.min(b.0), a.1.max(b.1)))
            .expect("group nonempty");
        out.push((*key, folded));
    }
}

/// Runs the interval-tightening job (Section 5.7): for each labelled item
/// and each relevant attribute of its cluster, the global min/max. The
/// result is one interval list per cluster, sorted by attribute.
pub fn tighten_job(
    engine: &Engine,
    name: &str,
    items: &[(i64, &[f64])],
    attrs_per_cluster: &[Vec<usize>],
) -> Result<Vec<Vec<AttrInterval>>, MrError> {
    let k = attrs_per_cluster.len();
    let result = engine.run(
        name,
        items,
        &TightenMapper {
            attrs: Arc::new(attrs_per_cluster.to_vec()),
        },
        &MinMaxReducer,
    )?;
    let mut intervals: Vec<Vec<AttrInterval>> = vec![Vec::new(); k];
    for ((c, attr), (lo, hi)) in result.output {
        intervals[c].push(AttrInterval::new(attr, lo, hi));
    }
    for list in &mut intervals {
        list.sort_by_key(|iv| iv.attr);
    }
    Ok(intervals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3c_mapreduce::MrConfig;

    fn labelled_rows() -> (Vec<Vec<f64>>, Vec<i64>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..300 {
            let t = (i as f64 + 0.5) / 300.0;
            // Cluster 0: concentrated on attr 1; cluster 1: on attr 0.
            if i % 3 == 0 {
                rows.push(vec![t, 0.3 + 0.05 * (t - 0.5)]);
                labels.push(0);
            } else if i % 3 == 1 {
                rows.push(vec![0.7 + 0.05 * (t - 0.5), t]);
                labels.push(1);
            } else {
                rows.push(vec![t, 1.0 - t]);
                labels.push(-1);
            }
        }
        (rows, labels)
    }

    fn items<'a>(rows: &'a [Vec<f64>], labels: &[i64]) -> Vec<(i64, &'a [f64])> {
        labels
            .iter()
            .copied()
            .zip(rows.iter().map(|r| r.as_slice()))
            .collect()
    }

    #[test]
    fn ai_histograms_match_manual_counts() {
        let (rows, labels) = labelled_rows();
        let it = items(&rows, &labels);
        let engine = Engine::new(MrConfig {
            split_size: 37,
            ..MrConfig::default()
        });
        let hists = ai_histogram_job(&engine, &it, &[5, 5]).unwrap();
        // Manual: cluster 0 members.
        let mut manual = Histogram::new(5);
        for (l, row) in &it {
            if *l == 0 {
                manual.add(row[1]);
            }
        }
        assert_eq!(hists[0][1], manual);
        // Totals equal member counts.
        let members0 = labels.iter().filter(|&&l| l == 0).count() as f64;
        assert_eq!(hists[0][0].total(), members0);
        // Outlier records contribute nowhere.
        let members1 = labels.iter().filter(|&&l| l == 1).count() as f64;
        assert_eq!(hists[1][0].total(), members1);
    }

    #[test]
    fn ai_mapper_output_equals_the_per_value_map() {
        // One split, three clusters: cluster 1 has no members (emits
        // nothing), cluster 2 differs in bin count, `-1` rows are
        // skipped. The reference is the previous mapper's algorithm — a
        // `(cluster, attr)`-keyed BTreeMap updated value by value.
        use std::collections::BTreeMap;
        let (rows, mut labels) = labelled_rows();
        for l in labels.iter_mut().filter(|l| **l == 1) {
            *l = 2;
        }
        let it = items(&rows, &labels);
        let bins = [5usize, 9, 3];
        let mut expected: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
        for (label, row) in it.iter().filter(|(l, _)| *l >= 0) {
            let c = *label as usize;
            for (attr, &v) in row.iter().enumerate() {
                let counts = expected
                    .entry((c, attr))
                    .or_insert_with(|| vec![0.0; bins[c]]);
                counts[p3c_stats::histogram::bin_index(v, bins[c])] += 1.0;
            }
        }
        let mapper = AiHistMapper {
            bins: Arc::new(bins.to_vec()),
        };
        let mut em = Emitter::new();
        mapper.map_split(&it, &mut em);
        let (pairs, _) = em.into_parts();
        assert_eq!(pairs, expected.into_iter().collect::<Vec<_>>());
        let keys: Vec<(usize, usize)> = pairs.iter().map(|(key, _)| *key).collect();
        assert_eq!(keys, vec![(0, 0), (0, 1), (2, 0), (2, 1)]);
    }

    #[test]
    fn tighten_job_matches_serial_minmax() {
        let (rows, labels) = labelled_rows();
        let it = items(&rows, &labels);
        let engine = Engine::new(MrConfig {
            split_size: 23,
            ..MrConfig::default()
        });
        let attrs = vec![vec![1], vec![0, 1]];
        let tightened = tighten_job(&engine, "tighten", &it, &attrs).unwrap();
        // Serial reference.
        for (c, attr_list) in attrs.iter().enumerate() {
            for &attr in attr_list {
                let vals: Vec<f64> = it
                    .iter()
                    .filter(|(l, _)| *l == c as i64)
                    .map(|(_, r)| r[attr])
                    .collect();
                let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let iv = tightened[c].iter().find(|iv| iv.attr == attr).unwrap();
                assert!((iv.lo - lo).abs() < 1e-15);
                assert!((iv.hi - hi).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn empty_cluster_has_no_intervals() {
        let (rows, mut labels) = labelled_rows();
        for l in labels.iter_mut() {
            if *l == 1 {
                *l = -1; // erase cluster 1
            }
        }
        let it = items(&rows, &labels);
        let engine = Engine::with_defaults();
        let tightened = tighten_job(&engine, "tighten2", &it, &[vec![1], vec![0]]).unwrap();
        assert!(!tightened[0].is_empty());
        assert!(tightened[1].is_empty());
    }
}
