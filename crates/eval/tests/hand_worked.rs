//! The quality measures on clusterings small enough to work by hand,
//! asserted to the exact fractions the definitions give.
//!
//! Definitions. A projected cluster `C = O × S` covers the subobjects
//! `(o, a)`, `o ∈ O`, `a ∈ S`; two clusters share
//! `|O₁ ∩ O₂| · |S₁ ∩ S₂|` of them. `F1(F, H) = 2PR / (P + R)` with
//! `P = |F ∩ H| / |F|` and `R = |F ∩ H| / |H|` over subobjects.
//!
//! * E4SC (Günnemann et al., "External Evaluation Measures for Subspace
//!   Clustering", CIKM 2011): `F1_R = (1/|Hidden|) Σ_H max_F F1(F, H)`,
//!   `F1_P = (1/|Found|) Σ_F max_H F1(F, H)`, and E4SC is their harmonic
//!   mean.
//! * RNIA (Patrikainen & Meilă, "Comparing Subspace Clusterings", TKDE
//!   2006): with `U` and `I` the sizes of the union and the intersection
//!   of the two clusterings' subobject multisets, `RNIA = (U − I) / U`.
//!   `p3c_eval::rnia` reports the score `1 − RNIA = I / U`.
//! * CE (same paper): `CE = (U − D_max) / U`, with `D_max` the total
//!   subobject intersection of the best one-to-one matching of found to
//!   hidden clusters. `p3c_eval::ce` reports `1 − CE = D_max / U`.
//!
//! Every case is measured against the same hidden clustering of six
//! points on three attributes:
//!
//! ```text
//! h1 = {0, 1, 2} × {0, 1}    (6 subobjects)
//! h2 = {3, 4, 5} × {1, 2}    (6 subobjects)
//! ```

use p3c_dataset::{Clustering, ProjectedCluster};
use p3c_eval::{ce, e4sc, rnia};
use std::collections::BTreeSet;

fn cluster(points: &[usize], attrs: &[usize]) -> ProjectedCluster {
    ProjectedCluster::new(
        points.to_vec(),
        attrs.iter().copied().collect::<BTreeSet<_>>(),
        vec![],
    )
}

fn hidden() -> Clustering {
    Clustering::new(
        vec![cluster(&[0, 1, 2], &[0, 1]), cluster(&[3, 4, 5], &[1, 2])],
        vec![],
    )
}

fn found(clusters: Vec<ProjectedCluster>) -> Clustering {
    Clustering::new(clusters, vec![])
}

/// Asserts E4SC, the RNIA score and the CE score of `found` against
/// [`hidden`].
fn assert_measures(found: &Clustering, expected: [f64; 3], what: &str) {
    let got = [
        e4sc(found, &hidden()),
        rnia(found, &hidden()),
        ce(found, &hidden()),
    ];
    for ((name, g), e) in ["E4SC", "RNIA", "CE"].iter().zip(got).zip(expected) {
        assert!((g - e).abs() < 1e-12, "{what}: {name} is {g}, by hand {e}");
    }
}

/// Found = hidden: every best match has F1 = 1, and `I = D_max = U = 12`.
#[test]
fn exact() {
    assert_measures(&hidden(), [1.0, 1.0, 1.0], "exact");
}

/// One cluster `f = {0..5} × {0, 1, 2}` (18 subobjects) merges both.
///
/// * `|f ∩ h1| = 3 · 2 = 6`: `P = 6/18 = 1/3`, `R = 1`, `F1 = 1/2`; the
///   same for `h2`. `F1_R = (1/2 + 1/2)/2 = 1/2`, `F1_P = 1/2`, so
///   E4SC `= 1/2`.
/// * Every hidden subobject is in `f`: `I = 12`, `U = 18`, score `2/3`.
/// * `f` matches one hidden cluster: `D_max = 6`, score `6/18 = 1/3`.
#[test]
fn merge() {
    let merged = found(vec![cluster(&[0, 1, 2, 3, 4, 5], &[0, 1, 2])]);
    assert_measures(&merged, [1.0 / 2.0, 2.0 / 3.0, 1.0 / 3.0], "merge");
}

/// `f1 = {0, 1, 2} × {1, 2}` has half of `h1`'s subspace; `f2 = h2`.
///
/// * `|f1 ∩ h1| = 3 · 1 = 3`: `P = R = 3/6`, `F1 = 1/2`; `F1(f2, h2) =
///   1`; cross pairs share no point. `F1_R = (1/2 + 1)/2 = 3/4 = F1_P`,
///   so E4SC `= 3/4`.
/// * Points 0–2 cover attributes {0, 1, 2} between the two, 9
///   subobjects, of which attribute 1's 3 are in both; points 3–5 share
///   all 6. `I = 3 + 6 = 9`, `U = 9 + 6 = 15`, score `3/5`.
/// * Matching `f1–h1` (3) and `f2–h2` (6): `D_max = 9`, score `9/15 =
///   3/5`.
#[test]
fn half_subspace() {
    let half = found(vec![
        cluster(&[0, 1, 2], &[1, 2]),
        cluster(&[3, 4, 5], &[1, 2]),
    ]);
    assert_measures(&half, [3.0 / 4.0, 3.0 / 5.0, 3.0 / 5.0], "half subspace");
}

/// `h1` split into `f1 = {0, 1} × {0, 1}` and `f2 = {2} × {0, 1}`, with
/// `f3 = h2`.
///
/// * `F1(f1, h1)`: `|∩| = 4`, `P = 4/4`, `R = 4/6`, `F1 = 4/5`.
///   `F1(f2, h1)`: `|∩| = 2`, `P = 2/2`, `R = 2/6`, `F1 = 1/2`.
///   `F1(f3, h2) = 1`. `F1_R = (4/5 + 1)/2 = 9/10`,
///   `F1_P = (4/5 + 1/2 + 1)/3 = 23/30`, and E4SC
///   `= 2 · (9/10) · (23/30) / (9/10 + 23/30) = (69/50) / (5/3) = 207/250`.
/// * The halves cover `h1` once, so the multisets are equal: `I = U =
///   12`, score 1 — RNIA does not see a split.
/// * Only one half can match `h1`: `D_max = 4 + 6 = 10`, score `10/12 =
///   5/6`.
#[test]
fn split() {
    let split = found(vec![
        cluster(&[0, 1], &[0, 1]),
        cluster(&[2], &[0, 1]),
        cluster(&[3, 4, 5], &[1, 2]),
    ]);
    assert_measures(&split, [207.0 / 250.0, 1.0, 5.0 / 6.0], "split");
}
