//! Property tests for the BoW rectangle merge phase.

use p3c_bow::{merge_rectangles, Rect};
use p3c_check::{cases, Gen};
use p3c_dataset::AttrInterval;
use std::collections::BTreeMap;

/// One to three intervals on distinct attributes `< 6`, each starting
/// in `[0, 0.8)` with width in `[0.01, 0.2)`, clipped to 1.
fn arb_rect(g: &mut Gen) -> Rect {
    let size = g.range(1..4);
    let mut m = BTreeMap::new();
    while m.len() < size {
        m.insert(g.range(0usize..6), (g.range(0.0..0.8), g.range(0.01..0.2)));
    }
    Rect::new(
        m.into_iter()
            .map(|(attr, (lo, w))| AttrInterval::new(attr, lo, (lo + w).min(1.0))),
    )
}

#[test]
fn merge_is_order_independent() {
    cases(256, |g| {
        let rects = g.vec(0..12, arb_rect);
        let seed = g.range(0u64..100);
        let a = merge_rectangles(rects.clone(), 0.5);
        // Shuffle deterministically by the seed.
        let mut shuffled = rects;
        let len = shuffled.len();
        if len > 1 {
            for i in 0..len {
                let j = ((seed as usize).wrapping_mul(31).wrapping_add(i * 17)) % len;
                shuffled.swap(i, j);
            }
        }
        let b = merge_rectangles(shuffled, 0.5);
        assert_eq!(a.len(), b.len());
        // Canonical order makes the sets comparable directly.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_intervals().len(), y.to_intervals().len());
        }
    });
}

#[test]
fn merge_is_idempotent() {
    cases(256, |g| {
        let rects = g.vec(0..12, arb_rect);
        let once = merge_rectangles(rects, 0.5);
        let twice = merge_rectangles(once.clone(), 0.5);
        assert_eq!(once.len(), twice.len());
    });
}

#[test]
fn merge_never_increases_count() {
    cases(256, |g| {
        let rects = g.vec(0..12, arb_rect);
        let n = rects.len();
        let merged = merge_rectangles(rects, 0.5);
        assert!(merged.len() <= n);
    });
}

#[test]
fn merged_rectangles_cover_inputs() {
    cases(256, |g| {
        let rects = g.vec(1..8, arb_rect);
        // Every input rectangle's center point (on its own attributes)
        // must be contained in some merged rectangle restricted to shared
        // attributes — merging only ever widens.
        let merged = merge_rectangles(rects.clone(), 0.5);
        for r in &rects {
            let mut center = [0.5; 6];
            for iv in r.to_intervals() {
                center[iv.attr] = 0.5 * (iv.lo + iv.hi);
            }
            let covered = merged.iter().any(|m| {
                m.to_intervals().iter().all(|iv| {
                    // Only check attrs that r also constrains; merged rects
                    // may constrain more (union of attribute sets).
                    match r.interval(iv.attr) {
                        Some(_) => iv.lo <= center[iv.attr] && center[iv.attr] <= iv.hi,
                        None => true,
                    }
                })
            });
            assert!(covered, "input rectangle center escaped all merged rects");
        }
    });
}

#[test]
fn pairwise_unmergeable_output() {
    cases(256, |g| {
        let rects = g.vec(0..10, arb_rect);
        let merged = merge_rectangles(rects, 0.5);
        for i in 0..merged.len() {
            for j in (i + 1)..merged.len() {
                assert!(
                    !merged[i].should_merge(&merged[j], 0.5),
                    "merge did not reach a fixed point"
                );
            }
        }
    });
}
