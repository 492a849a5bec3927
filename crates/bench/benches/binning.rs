//! Section 4.1.1 ablation bench: histogram building under Sturges vs
//! Freedman–Diaconis bin counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use p3c_core::histogram::build_histograms_columnar_threads;
use p3c_datagen::{generate, SyntheticSpec};
use p3c_stats::BinRule;

fn bench_binning(c: &mut Criterion) {
    let mut group = c.benchmark_group("histogram_building");
    for &n in &[10_000usize, 100_000] {
        let data = generate(&SyntheticSpec {
            n,
            d: 20,
            num_clusters: 3,
            noise_fraction: 0.1,
            max_cluster_dims: 6,
            seed: 1,
            ..SyntheticSpec::default()
        });
        let ds = &data.dataset;
        group.throughput(Throughput::Elements(n as u64));
        for (rule, name) in [
            (BinRule::Sturges, "sturges"),
            (BinRule::FreedmanDiaconis, "fd"),
        ] {
            let bins = rule.num_bins(n);
            let per_attr = vec![bins; ds.dim()];
            group.bench_with_input(BenchmarkId::new(name, n), ds, |b, ds| {
                b.iter(|| {
                    build_histograms_columnar_threads(n, ds.dim(), ds.as_slice(), &per_attr, 1)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_binning);
criterion_main!(benches);
