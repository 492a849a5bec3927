//! Property-based tests for the quality measures.

use p3c_check::{cases, Gen};
use p3c_dataset::{Clustering, ProjectedCluster};
use p3c_eval::{ce, e4sc, f1_object, rnia};
use std::collections::BTreeSet;

/// A set of `size` distinct draws from `0..domain`.
fn set(g: &mut Gen, domain: usize, size: std::ops::Range<usize>) -> BTreeSet<usize> {
    let size = g.range(size);
    let mut out = BTreeSet::new();
    while out.len() < size {
        out.insert(g.range(0..domain));
    }
    out
}

/// Random clustering over point ids `< 60` and attributes `< 8`.
fn arb_clustering(g: &mut Gen) -> Clustering {
    let clusters = g.vec(1..5, |g| {
        let points = set(g, 60, 1..20);
        let attrs = set(g, 8, 1..4);
        ProjectedCluster::new(points.into_iter().collect(), attrs, vec![])
    });
    Clustering::new(clusters, vec![])
}

#[test]
fn measures_are_in_unit_interval() {
    cases(256, |g| {
        let a = arb_clustering(g);
        let b = arb_clustering(g);
        for (name, v) in [
            ("e4sc", e4sc(&a, &b)),
            ("f1", f1_object(&a, &b)),
            ("rnia", rnia(&a, &b)),
            ("ce", ce(&a, &b)),
        ] {
            assert!((0.0..=1.0).contains(&v), "{name} = {v}");
        }
    });
}

#[test]
fn identity_scores_one() {
    cases(256, |g| {
        let a = arb_clustering(g);
        assert!((e4sc(&a, &a) - 1.0).abs() < 1e-12);
        assert!((f1_object(&a, &a) - 1.0).abs() < 1e-12);
        assert!((rnia(&a, &a) - 1.0).abs() < 1e-12);
        assert!((ce(&a, &a) - 1.0).abs() < 1e-12);
    });
}

#[test]
fn rnia_and_ce_are_symmetric() {
    cases(256, |g| {
        let a = arb_clustering(g);
        let b = arb_clustering(g);
        assert!((rnia(&a, &b) - rnia(&b, &a)).abs() < 1e-12);
        assert!((ce(&a, &b) - ce(&b, &a)).abs() < 1e-12);
    });
}

#[test]
fn e4sc_is_symmetric() {
    cases(256, |g| {
        let a = arb_clustering(g);
        let b = arb_clustering(g);
        // The harmonic combination of both directional averages is
        // symmetric by construction.
        assert!((e4sc(&a, &b) - e4sc(&b, &a)).abs() < 1e-12);
    });
}

#[test]
fn ce_bounded_by_rnia() {
    cases(256, |g| {
        let a = arb_clustering(g);
        let b = arb_clustering(g);
        assert!(ce(&a, &b) <= rnia(&a, &b) + 1e-12);
    });
}

#[test]
fn subobject_blindness_ordering() {
    cases(256, |g| {
        let a = arb_clustering(g);
        // Replacing every cluster's subspace with a disjoint one zeroes
        // E4SC/RNIA/CE but leaves object-F1 at 1.
        let shifted = Clustering::new(
            a.clusters
                .iter()
                .map(|c| {
                    let attrs: BTreeSet<usize> = c.attributes.iter().map(|x| x + 100).collect();
                    ProjectedCluster::new(c.points.clone(), attrs, vec![])
                })
                .collect(),
            vec![],
        );
        assert_eq!(e4sc(&shifted, &a), 0.0);
        assert_eq!(rnia(&shifted, &a), 0.0);
        assert_eq!(ce(&shifted, &a), 0.0);
        assert!((f1_object(&shifted, &a) - 1.0).abs() < 1e-12);
    });
}
