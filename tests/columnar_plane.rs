//! The columnar data plane: a dataset rebuilt from owned rows or from
//! its raw block bytes is lossless, both MapReduce pipelines are
//! byte-identical on the original and the rebuilt input under both
//! schedulers, and the column-scan binning kernel agrees exactly with
//! the per-row path.

use p3c_suite::core::config::P3cParams;
use p3c_suite::core::histogram::build_histograms_columnar_threads;
use p3c_suite::core::mr::{P3cPlusMr, P3cPlusMrLight};
use p3c_suite::datagen::{generate, SyntheticSpec};
use p3c_suite::dataset::Dataset;
use p3c_suite::mapreduce::{Engine, MrConfig, SchedulerChoice};
use p3c_suite::stats::Histogram;
use proptest::prelude::*;

fn spec(n: usize, k: usize, seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        n,
        d: 12,
        num_clusters: k,
        noise_fraction: 0.08,
        max_cluster_dims: 5,
        seed,
        ..SyntheticSpec::default()
    }
}

fn engine() -> Engine {
    Engine::new(MrConfig {
        num_reducers: 4,
        split_size: 700,
        ..MrConfig::default()
    })
}

/// Rebuilds the dataset through the raw block encoding — what a
/// journaled, snapshotted or staged block goes through.
fn byte_round_trip(data: &Dataset) -> Dataset {
    Dataset::from_bytes(&data.to_bytes()).unwrap()
}

#[test]
fn rebuilt_datasets_are_lossless() {
    let data = generate(&spec(1500, 2, 5)).dataset;
    let rows: Vec<Vec<f64>> = data.rows().map(|r| r.to_vec()).collect();
    assert_eq!(Dataset::from_rows(rows), data);
    assert_eq!(byte_round_trip(&data), data);

    // Column views agree with a per-row gather, value for value.
    let columns = data.columns();
    for j in 0..data.dim() {
        let col: Vec<f64> = columns.col(j).to_vec();
        let gathered: Vec<f64> = data.rows().map(|r| r[j]).collect();
        assert_eq!(col, gathered, "column {j}");
    }
}

#[test]
fn mr_pipelines_byte_identical_on_original_and_rebuilt_input() {
    let data = generate(&spec(2500, 3, 19)).dataset;
    let columnar = byte_round_trip(&data);
    for scheduler in [SchedulerChoice::Serial, SchedulerChoice::Dag] {
        let full_rows = P3cPlusMr::new(&engine(), P3cParams::default())
            .cluster_with(&data, scheduler)
            .unwrap();
        let full_cols = P3cPlusMr::new(&engine(), P3cParams::default())
            .cluster_with(&columnar, scheduler)
            .unwrap();
        assert_eq!(
            format!("{full_rows:?}"),
            format!("{full_cols:?}"),
            "full pipeline, {scheduler:?}"
        );

        let light_rows = P3cPlusMrLight::new(&engine(), P3cParams::default())
            .cluster_with(&data, scheduler)
            .unwrap();
        let light_cols = P3cPlusMrLight::new(&engine(), P3cParams::default())
            .cluster_with(&columnar, scheduler)
            .unwrap();
        assert_eq!(
            format!("{light_rows:?}"),
            format!("{light_cols:?}"),
            "light pipeline, {scheduler:?}"
        );
    }
}

/// The per-row oracle of the block scan: every value added one by one.
fn per_row_histograms(rows: &[&[f64]], bins: usize) -> Vec<Histogram> {
    let d = rows.first().map_or(0, |r| r.len());
    let mut hists = vec![Histogram::new(bins); d];
    for row in rows {
        for (hist, &v) in hists.iter_mut().zip(*row) {
            hist.add(v);
        }
    }
    hists
}

/// Seeded twin of the property below, immune to proptest configuration.
#[test]
fn column_scan_binning_matches_per_row_seeded() {
    let data = generate(&spec(3000, 3, 23)).dataset;
    let rows: Vec<&[f64]> = data.rows().collect();
    for bins in [2usize, 5, 13, 32] {
        let per_attr = vec![bins; data.dim()];
        assert_eq!(
            build_histograms_columnar_threads(
                data.len(),
                data.dim(),
                data.as_slice(),
                &per_attr,
                1
            )
            .histograms,
            per_row_histograms(&rows, bins),
            "bins = {bins}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Column-scan binning over the flat buffer equals per-row binning
    /// exactly (counts are pure `+1.0` increments, so scan order cannot
    /// change the result), for arbitrary shapes and bin counts.
    #[test]
    fn column_scan_binning_matches_per_row(
        values in prop::collection::vec(0.0f64..1.0, 1..400),
        d in 1usize..8,
        bins in 1usize..24,
    ) {
        let n = values.len() / d;
        prop_assume!(n > 0);
        let flat = &values[..n * d];
        let rows: Vec<&[f64]> = flat.chunks_exact(d).collect();
        prop_assert_eq!(
            build_histograms_columnar_threads(n, d, flat, &vec![bins; d], 1).histograms,
            per_row_histograms(&rows, bins)
        );
    }
}
