//! Property tests for the dataset container and persistence formats.

use p3c_check::{cases, Gen};
use p3c_dataset::{persist, AttrInterval, Dataset};

/// `0..40` rows of `1..8` attributes, values in `[-100, 100)`.
fn arb_dataset(g: &mut Gen) -> Dataset {
    let d = g.range(1usize..8);
    let n = g.range(0usize..40);
    let rows = (0..n)
        .map(|_| (0..d).map(|_| g.range(-100.0..100.0)).collect())
        .collect();
    Dataset::from_rows(rows)
}

#[test]
fn normalization_maps_into_unit_cube() {
    cases(256, |g| {
        let ds = arb_dataset(g);
        let (norm, _) = ds.normalize();
        assert!(norm.is_normalized());
        assert_eq!(norm.len(), ds.len());
        assert_eq!(norm.dim(), ds.dim());
    });
}

#[test]
fn normalization_roundtrips_values() {
    cases(256, |g| {
        let ds = arb_dataset(g);
        if ds.is_empty() {
            return;
        }
        let (norm, map) = ds.normalize();
        for i in 0..ds.len() {
            for j in 0..ds.dim() {
                let back = map.denormalize(j, norm.get(i, j));
                // Constant attributes collapse to their single value.
                assert!((back - ds.get(i, j)).abs() < 1e-9 * ds.get(i, j).abs().max(1.0));
            }
        }
    });
}

#[test]
fn text_roundtrip() {
    cases(256, |g| {
        let ds = arb_dataset(g);
        let text = persist::to_text(&ds);
        let back = persist::from_text(&text).unwrap();
        assert_eq!(back.len(), ds.len());
        assert_eq!(back.dim(), ds.dim());
        for (a, b) in back.as_slice().iter().zip(ds.as_slice()) {
            assert!((a - b).abs() < 1e-12 * b.abs().max(1.0), "{a} vs {b}");
        }
    });
}

#[test]
fn binary_roundtrip_is_exact() {
    cases(256, |g| {
        let ds = arb_dataset(g);
        let bytes = ds.to_bytes();
        let back = Dataset::from_bytes(&bytes).unwrap();
        assert_eq!(back, ds);
    });
}

#[test]
fn subset_preserves_rows() {
    cases(256, |g| {
        let ds = arb_dataset(g);
        let ids = g.vec(0..10, |g| g.range(0usize..40));
        if ds.is_empty() {
            return;
        }
        let valid: Vec<usize> = ids.into_iter().filter(|&i| i < ds.len()).collect();
        let sub = ds.subset(&valid);
        assert_eq!(sub.len(), valid.len());
        for (pos, &i) in valid.iter().enumerate() {
            assert_eq!(sub.row(pos), ds.row(i));
        }
    });
}

#[test]
fn interval_union_contains_both() {
    cases(256, |g| {
        let attr = g.range(0usize..5);
        let a = (g.range(0.0..0.5), g.range(0.5..1.0));
        let b = (g.range(0.0..0.5), g.range(0.5..1.0));
        let ia = AttrInterval::new(attr, a.0, a.1);
        let ib = AttrInterval::new(attr, b.0, b.1);
        let u = ia.union(&ib);
        assert!(u.lo <= ia.lo && u.hi >= ia.hi);
        assert!(u.lo <= ib.lo && u.hi >= ib.hi);
        assert!(u.width() >= ia.width().max(ib.width()));
    });
}
