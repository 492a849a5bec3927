//! Property-based integration tests of paper-level invariants, across
//! randomly drawn workload configurations.

use p3c_check::{cases, Gen};
use p3c_suite::core::config::P3cParams;
use p3c_suite::core::p3cplus::{P3cPlusLight, P3cResult};
use p3c_suite::datagen::{generate, SyntheticSpec};
use p3c_suite::dataset::Dataset;
use p3c_suite::eval::e4sc;

fn small_spec(g: &mut Gen) -> SyntheticSpec {
    let k = g.range(2usize..4);
    let noise = g.range(0.0..0.15);
    let seed = g.range(0u64..50);
    let n = g.range(1500usize..3000);
    SyntheticSpec {
        n,
        d: 10,
        num_clusters: k,
        noise_fraction: noise,
        max_cluster_dims: 4,
        seed,
        ..SyntheticSpec::default()
    }
}

/// P3C+-Light with the redundancy filter on and off.
fn with_and_without_filter(data: &Dataset) -> (P3cResult, P3cResult) {
    let with = P3cPlusLight::new(P3cParams::default()).cluster(data);
    let without = P3cPlusLight::new(P3cParams {
        use_redundancy_filter: false,
        ..P3cParams::default()
    })
    .cluster(data);
    (with, without)
}

/// Every clustering is a valid object: point ids in range, clusters
/// and outliers disjoint, intervals ordered, quality in [0,1].
#[test]
fn clustering_wellformedness() {
    cases(12, |g| {
        let data = generate(&small_spec(g));
        let result = P3cPlusLight::new(P3cParams::default()).cluster(&data.dataset);
        let n = data.dataset.len();
        let outliers: std::collections::BTreeSet<usize> =
            result.clustering.outliers.iter().copied().collect();
        for cluster in &result.clustering.clusters {
            for &p in &cluster.points {
                assert!(p < n);
                assert!(!outliers.contains(&p));
            }
            for iv in &cluster.intervals {
                assert!(iv.lo <= iv.hi);
                assert!(iv.attr < data.dataset.dim());
                assert!(cluster.attributes.contains(&iv.attr));
            }
        }
        let q = e4sc(&result.clustering, &data.ground_truth);
        assert!((0.0..=1.0).contains(&q));
    });
}

/// The redundancy filter (§4.2.1, Eq. 5/6) re-tests the full proven set
/// and keeps the maximal survivors (DESIGN.md §11), so no filtered
/// core's signature contains another's; and it never erases every
/// core. It may report *more* cores than the unfiltered maximal set —
/// see [`redundancy_filter_resurfaces_eclipsed_cores`].
#[test]
fn redundancy_filter_keeps_an_antichain() {
    cases(12, |g| {
        let data = generate(&small_spec(g));
        let (with, without) = with_and_without_filter(&data.dataset);
        for (i, a) in with.cores.iter().enumerate() {
            for (j, b) in with.cores.iter().enumerate() {
                assert!(
                    i == j || !a.signature.contains_signature(&b.signature),
                    "core {i} contains core {j}"
                );
            }
        }
        if without.stats.cores > 0 {
            assert!(with.stats.cores > 0, "filter erased all cores");
        }
    });
}

/// Two planted clusters whose overlap region is proven as a
/// higher-dimensional signature: unfiltered, maximality keeps only
/// that artifact; the filter removes it and both true cores resurface.
#[test]
fn redundancy_filter_resurfaces_eclipsed_cores() {
    let data = generate(&SyntheticSpec {
        n: 2000,
        d: 10,
        num_clusters: 2,
        noise_fraction: 0.0,
        max_cluster_dims: 4,
        seed: 5,
        ..SyntheticSpec::default()
    });
    let (with, without) = with_and_without_filter(&data.dataset);
    assert_eq!(without.stats.cores, 1);
    assert_eq!(with.stats.cores, 2);
    assert!(
        e4sc(&with.clustering, &data.ground_truth) > e4sc(&without.clustering, &data.ground_truth)
    );
}

/// Stricter Poisson thresholds can only shrink the proven set.
#[test]
fn stricter_alpha_fewer_proven() {
    cases(12, |g| {
        let data = generate(&small_spec(g));
        let loose = P3cPlusLight::new(P3cParams {
            alpha_poisson: 1e-4,
            use_redundancy_filter: false,
            ..P3cParams::default()
        })
        .cluster(&data.dataset);
        let strict = P3cPlusLight::new(P3cParams {
            alpha_poisson: 1e-40,
            use_redundancy_filter: false,
            ..P3cParams::default()
        })
        .cluster(&data.dataset);
        assert!(strict.stats.core_gen.total_proven <= loose.stats.core_gen.total_proven);
    });
}
