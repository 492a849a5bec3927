//! Cluster-core generation benchmark (Algorithm 1) across database sizes
//! and cluster counts, plus the redundancy filter on its own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use p3c_core::config::P3cParams;
use p3c_core::cores::generate_cluster_cores;
use p3c_core::histogram::{build_histograms_columnar_threads, AttributeHistograms};
use p3c_core::redundancy::filter_redundant;
use p3c_core::relevance::relevant_intervals;
use p3c_datagen::{generate, SyntheticSpec};
use p3c_dataset::Dataset;
use p3c_stats::BinRule;

fn fd_histograms(ds: &Dataset) -> AttributeHistograms {
    let bins = vec![BinRule::FreedmanDiaconis.num_bins(ds.len()); ds.dim()];
    build_histograms_columnar_threads(ds.len(), ds.dim(), ds.as_slice(), &bins, 1)
}

fn bench_core_generation(c: &mut Criterion) {
    let params = P3cParams::default();
    let mut group = c.benchmark_group("core_generation");
    group.sample_size(10);
    for &n in &[10_000usize, 50_000] {
        for &k in &[3usize, 7] {
            let data = generate(&SyntheticSpec {
                n,
                d: 20,
                num_clusters: k,
                noise_fraction: 0.1,
                max_cluster_dims: 6,
                seed: 3,
                ..SyntheticSpec::default()
            });
            let rows = data.dataset.row_refs();
            let hists = fd_histograms(&data.dataset);
            let intervals = relevant_intervals(&hists.histograms, params.alpha_chi2);
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("{k}_clusters"), n),
                &intervals,
                |b, ivs| b.iter(|| generate_cluster_cores(ivs, &rows, &params)),
            );
        }
    }

    // Redundancy filter in isolation on a larger synthetic core set.
    let data = generate(&SyntheticSpec {
        n: 20_000,
        d: 20,
        num_clusters: 7,
        noise_fraction: 0.2,
        max_cluster_dims: 6,
        seed: 9,
        ..SyntheticSpec::default()
    });
    let rows = data.dataset.row_refs();
    let hists = fd_histograms(&data.dataset);
    let intervals = relevant_intervals(&hists.histograms, params.alpha_chi2);
    let no_filter = P3cParams {
        use_redundancy_filter: false,
        ..params.clone()
    };
    let gen = generate_cluster_cores(&intervals, &rows, &no_filter);
    let mut cores = gen.cores;
    p3c_core::cores::attach_expected_supports(&mut cores, rows.len());
    group.bench_function("redundancy_filter", |b| {
        b.iter(|| filter_redundant(cores.clone()))
    });
    group.finish();
}

criterion_group!(benches, bench_core_generation);
criterion_main!(benches);
