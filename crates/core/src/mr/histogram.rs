//! The histogram-building MapReduce job (paper Section 5.1, Equation 8).
//!
//! Mappers aggregate their split into per-attribute partial histograms;
//! the reducer for attribute `a` sums the partial counts. Produces counts
//! bit-identical to the serial
//! [`crate::histogram::build_histograms_columnar_threads`].

use crate::histogram::AttributeHistograms;
use p3c_mapreduce::{Emitter, Engine, Mapper, MrError, Reducer};
use p3c_stats::descriptive::{median_in_place, quartiles};
use p3c_stats::Histogram;
use std::sync::Arc;

/// Mapper: one partial histogram per attribute per split.
struct HistMapper {
    /// Per-attribute bin counts (uniform rules: a constant vector).
    bins: Arc<Vec<usize>>,
}

impl<'a> Mapper<&'a [f64], usize, Vec<f64>> for HistMapper {
    fn map_split(&self, split: &[&'a [f64]], out: &mut Emitter<usize, Vec<f64>>) {
        let d = split.first().map_or(0, |r| r.len());
        let mut partials: Vec<Histogram> =
            self.bins[..d].iter().map(|&b| Histogram::new(b)).collect();
        p3c_stats::bin_rows(&mut partials, split.iter().copied());
        for (attr, partial) in partials.iter().enumerate() {
            out.emit(attr, partial.counts().to_vec());
        }
    }
}

/// Reducer: element-wise sum of the partial histograms of one attribute.
struct HistReducer;

impl Reducer<usize, Vec<f64>, (usize, Vec<f64>)> for HistReducer {
    fn reduce(&self, attr: &usize, values: Vec<Vec<f64>>, out: &mut Vec<(usize, Vec<f64>)>) {
        let mut total = values.into_iter().reduce(|mut a, b| {
            for (x, y) in a.iter_mut().zip(&b) {
                *x += y;
            }
            a
        });
        if let Some(counts) = total.take() {
            out.push((*attr, counts));
        }
    }
}

/// Runs the histogram job and assembles the per-attribute histograms.
pub fn histogram_job(
    engine: &Engine,
    rows: &[&[f64]],
    bins_per_attr: &[usize],
) -> Result<AttributeHistograms, MrError> {
    let result = engine.run(
        "p3c-histogram",
        rows,
        &HistMapper {
            bins: Arc::new(bins_per_attr.to_vec()),
        },
        &HistReducer,
    )?;
    let mut histograms: Vec<Histogram> = bins_per_attr
        .iter()
        .map(|&b| Histogram::new(b.max(1)))
        .collect();
    for (attr, counts) in result.output {
        histograms[attr] = Histogram::from_counts(counts);
    }
    let bins = bins_per_attr.iter().copied().max().unwrap_or(1).max(1);
    Ok(AttributeHistograms { histograms, bins })
}

/// The IQR job of the exact-IQR Freedman–Diaconis extension: mappers
/// compute per-split per-attribute quartiles; the reducer takes the
/// median of the split estimates (the same split-median aggregation the
/// paper's MVB statistics use). Returns per-attribute `(q1, q3)`.
pub fn iqr_job(engine: &Engine, rows: &[&[f64]]) -> Result<Vec<(f64, f64)>, MrError> {
    struct QuartileMapper;
    impl<'a> Mapper<&'a [f64], usize, (f64, f64)> for QuartileMapper {
        fn map_split(&self, split: &[&'a [f64]], out: &mut Emitter<usize, (f64, f64)>) {
            let d = split.first().map_or(0, |r| r.len());
            let mut column = Vec::with_capacity(split.len());
            for attr in 0..d {
                column.clear();
                column.extend(split.iter().map(|r| r[attr]));
                if let Some(q) = quartiles(&column) {
                    out.emit(attr, q);
                }
            }
        }
    }
    struct QuartileReducer;
    impl Reducer<usize, (f64, f64), (usize, (f64, f64))> for QuartileReducer {
        fn reduce(&self, key: &usize, values: Vec<(f64, f64)>, out: &mut Vec<(usize, (f64, f64))>) {
            let mut q1s: Vec<f64> = values.iter().map(|&(q1, _)| q1).collect();
            let mut q3s: Vec<f64> = values.iter().map(|&(_, q3)| q3).collect();
            out.push((*key, (median_in_place(&mut q1s), median_in_place(&mut q3s))));
        }
    }
    let d = rows.first().map_or(0, |r| r.len());
    let result = engine.run("p3c-iqr", rows, &QuartileMapper, &QuartileReducer)?;
    let mut quartiles_out = vec![(0.25, 0.75); d];
    for (attr, q) in result.output {
        quartiles_out[attr] = q;
    }
    Ok(quartiles_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::build_histograms_columnar_threads;
    use p3c_mapreduce::MrConfig;

    fn sample_rows() -> Vec<Vec<f64>> {
        (0..500)
            .map(|i| {
                let t = (i as f64 + 0.5) / 500.0;
                vec![t, (t * 3.7).fract(), 0.42]
            })
            .collect()
    }

    #[test]
    fn job_matches_serial_histograms() {
        // Bin edges, the closed ends, out-of-range values and NaN ride
        // along: mapper and serial builder share one binning kernel, so
        // the counts agree bit for bit on every one of them.
        let mut data = sample_rows();
        data.extend([
            vec![0.0, 1.0, 0.125],
            vec![0.25, 0.5, 0.75],
            vec![-0.5, 1.5, f64::NAN],
        ]);
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let flat: Vec<f64> = data.iter().flatten().copied().collect();
        for bins in [[8, 8, 8], [4, 16, 2]] {
            let engine = Engine::new(MrConfig {
                split_size: 64,
                ..MrConfig::default()
            });
            let mr = histogram_job(&engine, &rows, &bins).unwrap();
            let serial = build_histograms_columnar_threads(rows.len(), 3, &flat, &bins, 1);
            assert_eq!(mr.histograms, serial.histograms, "{bins:?}");
            assert_eq!(mr.bins, serial.bins);
        }
    }

    #[test]
    fn job_records_metrics() {
        let data = sample_rows();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let engine = Engine::new(MrConfig {
            split_size: 100,
            ..MrConfig::default()
        });
        histogram_job(&engine, &rows, &[8, 8, 8]).unwrap();
        let metrics = engine.cluster_metrics();
        assert_eq!(metrics.num_jobs(), 1);
        let job = &metrics.jobs()[0];
        assert_eq!(job.job_name, "p3c-histogram");
        assert_eq!(job.map_input_records, 500);
        // 5 splits × 3 attributes partial histograms.
        assert_eq!(job.map_output_records, 15);
        assert_eq!(job.reduce_input_groups, 3);
    }

    #[test]
    fn empty_input() {
        let rows: Vec<&[f64]> = vec![];
        let engine = Engine::with_defaults();
        let h = histogram_job(&engine, &rows, &[]).unwrap();
        assert_eq!(h.histograms.len(), 0);
    }

    #[test]
    fn per_attribute_bins_job() {
        let data = sample_rows();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let engine = Engine::new(MrConfig {
            split_size: 64,
            ..MrConfig::default()
        });
        let mr = histogram_job(&engine, &rows, &[4, 16, 2]).unwrap();
        assert_eq!(mr.histograms[0].num_bins(), 4);
        assert_eq!(mr.histograms[1].num_bins(), 16);
        assert_eq!(mr.histograms[2].num_bins(), 2);
        for h in &mr.histograms {
            assert_eq!(h.total(), 500.0);
        }
    }

    #[test]
    fn iqr_job_estimates_quartiles() {
        // Attribute 0 is a uniform grid (IQR 0.5); attribute 2 is the
        // constant 0.42 (IQR 0). The split-median aggregation assumes
        // representative splits, so interleave the (generated-sorted)
        // rows with a coprime stride, as HDFS blocks of shuffled data are.
        let ordered = sample_rows();
        let n = ordered.len();
        let data: Vec<Vec<f64>> = (0..n).map(|i| ordered[(i * 137) % n].clone()).collect();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let engine = Engine::new(MrConfig {
            split_size: 50,
            ..MrConfig::default()
        });
        let q = iqr_job(&engine, &rows).unwrap();
        assert!((q[0].1 - q[0].0 - 0.5).abs() < 0.05, "attr0 IQR {:?}", q[0]);
        assert!((q[2].1 - q[2].0).abs() < 1e-12, "attr2 IQR {:?}", q[2]);
    }
}
