//! The attribute-inspection MapReduce job (paper Sections 5.6 and 5.7):
//! one pass that folds each cluster's [`ClusterSummary`] — inspection
//! histograms and the min/max that interval tightening reads.

use crate::config::P3cParams;
use crate::inspect::{inspection_bins, Bounds, ClusterSummary};
use p3c_dataset::bytes::{DecodeError, Reader};
use p3c_mapreduce::distrib::Wire;
use p3c_mapreduce::{Emitter, Engine, Mapper, MrError, Reducer, Weighable};
use p3c_stats::Histogram;

/// An inspection record: a row and the clusters containing it. A row in
/// exactly one cluster is inspected; a row in several is only bounded.
pub type InspectionItem<'a> = (&'a [u32], &'a [f64]);

/// Mapper: folds its split into one partial summary per cluster seen.
struct SummaryMapper {
    /// Inspection bin count per cluster.
    bins: Vec<usize>,
}

impl<'a> Mapper<InspectionItem<'a>, usize, ClusterSummary> for SummaryMapper {
    fn map_split(&self, split: &[InspectionItem<'a>], out: &mut Emitter<usize, ClusterSummary>) {
        // Per cluster, its other and its inspected rows of the split.
        let mut groups: Vec<[Vec<&[f64]>; 2]> = vec![[Vec::new(), Vec::new()]; self.bins.len()];
        for &(clusters, row) in split {
            let inspected = clusters.len() == 1;
            for &c in clusters {
                groups[c as usize][inspected as usize].push(row);
            }
        }
        let d = split.first().map_or(0, |(_, row)| row.len());
        // Ascending cluster order: the emitted order feeds the shuffle
        // and must not vary run-to-run.
        for (c, [others, inspected]) in groups.into_iter().enumerate() {
            if others.is_empty() && inspected.is_empty() {
                continue;
            }
            let mut partial = ClusterSummary::new(d, self.bins[c]);
            partial.add(others, false);
            partial.add(inspected, true);
            out.emit(c, partial);
        }
    }
}

/// Reducer: merges one cluster's partial summaries.
struct SummaryReducer;

impl Reducer<usize, ClusterSummary, (usize, ClusterSummary)> for SummaryReducer {
    fn reduce(
        &self,
        c: &usize,
        values: Vec<ClusterSummary>,
        out: &mut Vec<(usize, ClusterSummary)>,
    ) {
        let merged = values.into_iter().reduce(|mut a, b| {
            a.merge(&b);
            a
        });
        out.push((*c, merged.expect("group nonempty")));
    }
}

/// Runs the attribute-inspection job over `k` clusters of
/// `d`-attribute rows: per cluster, the histograms and bounds of the
/// inspected members, at the bin count of their number, and the bounds
/// of the other members. A cluster no row belongs to gets the empty
/// summary.
pub fn inspection_job(
    engine: &Engine,
    items: &[InspectionItem<'_>],
    k: usize,
    d: usize,
    params: &P3cParams,
) -> Result<Vec<ClusterSummary>, MrError> {
    let mut inspected = vec![0usize; k];
    for (clusters, _) in items {
        if let [c] = clusters {
            inspected[*c as usize] += 1;
        }
    }
    let bins: Vec<usize> = inspected
        .iter()
        .map(|&m| inspection_bins(m, params))
        .collect();
    let result = engine.run(
        "p3c-attribute-inspection",
        items,
        &SummaryMapper { bins: bins.clone() },
        &SummaryReducer,
    )?;
    let mut summaries: Vec<ClusterSummary> =
        bins.iter().map(|&b| ClusterSummary::new(d, b)).collect();
    for (c, summary) in result.output {
        summaries[c] = summary;
    }
    Ok(summaries)
}

impl Weighable for ClusterSummary {
    fn weight(&self) -> usize {
        let bins: usize = self.hists.iter().map(Histogram::num_bins).sum();
        // Two row counts, four bound vectors, the histograms' counts.
        16 + 8 * (4 * self.others.min.len() + bins) + 4 * (5 + self.hists.len())
    }
}

impl Wire for ClusterSummary {
    fn encode(&self, buf: &mut Vec<u8>) {
        for bounds in [&self.others, &self.inspected] {
            bounds.rows.encode(buf);
            bounds.min.encode(buf);
            bounds.max.encode(buf);
        }
        p3c_dataset::bytes::put_len32(buf, self.hists.len());
        for h in &self.hists {
            h.counts().to_vec().encode(buf);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut bounds = || -> Result<Bounds, DecodeError> {
            Ok(Bounds {
                rows: r.usize()?,
                min: Vec::decode(r)?,
                max: Vec::decode(r)?,
            })
        };
        let others = bounds()?;
        let inspected = bounds()?;
        let d = others.min.len();
        if [&others.max, &inspected.min, &inspected.max]
            .iter()
            .any(|v| v.len() != d)
        {
            return Err(DecodeError::Malformed("summary bounds of unequal width"));
        }
        let hists = r.seq32(4, |r| -> Result<Histogram, DecodeError> {
            let counts = Vec::<f64>::decode(r)?;
            if counts.is_empty() {
                return Err(DecodeError::Malformed("histogram with zero bins"));
            }
            Ok(Histogram::from_counts(counts))
        })?;
        Ok(ClusterSummary {
            others,
            inspected,
            hists,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3c_mapreduce::distrib::{decode_from_slice, encode_to_vec};
    use p3c_mapreduce::MrConfig;

    /// 300 rows: every third in cluster 0 (concentrated on attr 1),
    /// every third in cluster 1 (on attr 0), the rest in both.
    fn rows() -> Vec<Vec<f64>> {
        (0..300)
            .map(|i| {
                let t = (i as f64 + 0.5) / 300.0;
                match i % 3 {
                    0 => vec![t, 0.3 + 0.05 * (t - 0.5)],
                    1 => vec![0.7 + 0.05 * (t - 0.5), t],
                    _ => vec![t, 1.0 - t],
                }
            })
            .collect()
    }

    const CLUSTERS: [&[u32]; 3] = [&[0], &[1], &[0, 1]];

    fn items(rows: &[Vec<f64>]) -> Vec<InspectionItem<'_>> {
        rows.iter()
            .enumerate()
            .map(|(i, r)| (CLUSTERS[i % 3], r.as_slice()))
            .collect()
    }

    #[test]
    fn job_equals_the_serial_fold_at_any_split_size() {
        let rows = rows();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let params = P3cParams::default();
        let serial: Vec<ClusterSummary> = (0..2)
            .map(|c| {
                let members: Vec<usize> = (0..300).filter(|i| i % 3 == c || i % 3 == 2).collect();
                let unique: Vec<usize> = (0..300).filter(|i| i % 3 == c).collect();
                ClusterSummary::fold(&refs, &members, &unique, &params)
            })
            .collect();
        for split_size in [1, 23, 37, 1000] {
            let engine = Engine::new(MrConfig {
                split_size,
                ..MrConfig::default()
            });
            let mr = inspection_job(&engine, &items(&rows), 2, 2, &params).unwrap();
            assert_eq!(mr, serial, "split size {split_size}");
        }
        assert_eq!(serial[0].members().rows, 200);
        assert_eq!(serial[0].inspected.rows, 100);
    }

    #[test]
    fn a_cluster_without_rows_gets_the_empty_summary() {
        let rows = rows();
        let engine = Engine::with_defaults();
        let summaries =
            inspection_job(&engine, &items(&rows), 3, 2, &P3cParams::default()).unwrap();
        assert_eq!(summaries[2], ClusterSummary::new(2, 0));
    }

    #[test]
    fn summary_wire_roundtrip_is_exact() {
        let rows = rows();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let ids: Vec<usize> = (0..300).collect();
        let summary = ClusterSummary::fold(&refs, &ids, &ids[..40], &P3cParams::default());
        let back: ClusterSummary = decode_from_slice(&encode_to_vec(&summary)).unwrap();
        assert_eq!(back, summary);
        let empty = ClusterSummary::new(3, 0);
        let back: ClusterSummary = decode_from_slice(&encode_to_vec(&empty)).unwrap();
        assert_eq!(back, empty);
    }
}
