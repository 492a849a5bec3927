//! Property tests for the dataset container and persistence formats.

use p3c_dataset::{persist, AttrInterval, Dataset};
use proptest::prelude::*;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (1usize..8, 0usize..40).prop_flat_map(|(d, n)| {
        prop::collection::vec(prop::collection::vec(-100.0f64..100.0, d), n)
            .prop_map(Dataset::from_rows)
    })
}

proptest! {
    #[test]
    fn normalization_maps_into_unit_cube(ds in arb_dataset()) {
        let (norm, _) = ds.normalize();
        prop_assert!(norm.is_normalized());
        prop_assert_eq!(norm.len(), ds.len());
        prop_assert_eq!(norm.dim(), ds.dim());
    }

    #[test]
    fn normalization_roundtrips_values(ds in arb_dataset()) {
        prop_assume!(!ds.is_empty());
        let (norm, map) = ds.normalize();
        for i in 0..ds.len() {
            for j in 0..ds.dim() {
                let back = map.denormalize(j, norm.get(i, j));
                // Constant attributes collapse to their single value.
                prop_assert!((back - ds.get(i, j)).abs() < 1e-9 * ds.get(i, j).abs().max(1.0));
            }
        }
    }

    #[test]
    fn text_roundtrip(ds in arb_dataset()) {
        let text = persist::to_text(&ds);
        let back = persist::from_text(&text).unwrap();
        prop_assert_eq!(back.len(), ds.len());
        prop_assert_eq!(back.dim(), ds.dim());
        for (a, b) in back.as_slice().iter().zip(ds.as_slice()) {
            prop_assert!((a - b).abs() < 1e-12 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn binary_roundtrip_is_exact(ds in arb_dataset()) {
        let bytes = ds.to_bytes();
        let back = Dataset::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, ds);
    }

    #[test]
    fn subset_preserves_rows(ds in arb_dataset(), ids in prop::collection::vec(0usize..40, 0..10)) {
        prop_assume!(!ds.is_empty());
        let valid: Vec<usize> = ids.into_iter().filter(|&i| i < ds.len()).collect();
        let sub = ds.subset(&valid);
        prop_assert_eq!(sub.len(), valid.len());
        for (pos, &i) in valid.iter().enumerate() {
            prop_assert_eq!(sub.row(pos), ds.row(i));
        }
    }

    #[test]
    fn interval_union_contains_both(
        attr in 0usize..5,
        a in (0.0f64..0.5, 0.5f64..1.0),
        b in (0.0f64..0.5, 0.5f64..1.0),
    ) {
        let ia = AttrInterval::new(attr, a.0, a.1);
        let ib = AttrInterval::new(attr, b.0, b.1);
        let u = ia.union(&ib);
        prop_assert!(u.lo <= ia.lo && u.hi >= ia.hi);
        prop_assert!(u.lo <= ib.lo && u.hi >= ib.hi);
        prop_assert!(u.width() >= ia.width().max(ib.width()));
    }
}
