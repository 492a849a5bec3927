//! Property-based tests for the statistical machinery.

use p3c_check::cases;
use p3c_stats::chi2::chi2_uniformity_test;
use p3c_stats::descriptive::{median, OnlineMoments};
use p3c_stats::histogram::{bin_index, Histogram};
use p3c_stats::normal::Normal;
use p3c_stats::poisson::PoissonTest;
use p3c_stats::special::{gamma_p, gamma_q};

#[test]
fn gamma_p_in_unit_interval() {
    cases(256, |g| {
        let a = g.range(0.1..200.0);
        let x = g.range(0.0..400.0);
        let p = gamma_p(a, x);
        assert!((0.0..=1.0).contains(&p), "P({a},{x}) = {p}");
        let q = gamma_q(a, x);
        assert!(((p + q) - 1.0).abs() < 1e-10);
    });
}

#[test]
fn gamma_p_monotone_in_x() {
    cases(256, |g| {
        let a = g.range(0.5..50.0);
        let x = g.range(0.0..100.0);
        let dx = g.range(0.01..10.0);
        assert!(gamma_p(a, x + dx) >= gamma_p(a, x) - 1e-12);
    });
}

#[test]
fn normal_cdf_monotone() {
    cases(256, |g| {
        let x = g.range(-8.0..8.0);
        let dx = g.range(0.001..2.0);
        assert!(Normal::cdf(x + dx) >= Normal::cdf(x));
    });
}

#[test]
fn normal_inv_cdf_roundtrip() {
    cases(256, |g| {
        let p = g.range(1e-9..1.0);
        if p >= 1.0 - 1e-9 {
            return;
        }
        let x = Normal::inv_cdf(p);
        assert!((Normal::cdf(x) - p).abs() < 1e-7);
    });
}

#[test]
fn poisson_exact_tail_decreasing_in_observed() {
    cases(256, |g| {
        let lambda = g.range(0.5..500.0);
        let k = g.range(1.0..100.0);
        let p1 = PoissonTest::tail_prob_exact(k, lambda);
        let p2 = PoissonTest::tail_prob_exact(k + 1.0, lambda);
        assert!(p2 <= p1 + 1e-12);
    });
}

#[test]
fn poisson_test_never_fires_below_lambda() {
    cases(256, |g| {
        let alpha = g.range(1e-6..0.5);
        let lambda = g.range(0.1..1000.0);
        let frac = g.range(0.0..1.0);
        let t = PoissonTest::new(alpha);
        assert!(!t.significantly_larger(lambda * frac, lambda));
    });
}

#[test]
fn bin_index_in_range() {
    cases(256, |g| {
        let x = g.range(-1.0..2.0);
        let m = g.range(1usize..100);
        let i = bin_index(x, m);
        assert!(i < m);
    });
}

#[test]
fn bin_index_monotone() {
    cases(256, |g| {
        let x = g.range(0.0..1.0);
        let y = g.range(0.0..1.0);
        let m = g.range(1usize..50);
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        assert!(bin_index(lo, m) <= bin_index(hi, m));
    });
}

#[test]
fn histogram_total_is_observation_count() {
    cases(256, |g| {
        let values = g.vec(0..200, |g| g.range(0.0..1.0));
        let m = g.range(1usize..30);
        let h = Histogram::from_values(values.iter().copied(), m);
        assert!((h.total() - values.len() as f64).abs() < 1e-9);
    });
}

#[test]
fn histogram_merge_commutes() {
    cases(256, |g| {
        let a = g.vec(0..50, |g| g.range(0.0..1.0));
        let b = g.vec(0..50, |g| g.range(0.0..1.0));
        let m = 8;
        let ha = Histogram::from_values(a.iter().copied(), m);
        let hb = Histogram::from_values(b.iter().copied(), m);
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        assert_eq!(ab, ba);
    });
}

#[test]
fn median_between_min_and_max() {
    cases(256, |g| {
        let values = g.vec(1..100, |g| g.range(-100.0..100.0));
        let m = median(&values).unwrap();
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(m >= lo && m <= hi);
    });
}

#[test]
fn chi2_uniformity_pvalue_in_unit_interval() {
    cases(256, |g| {
        let counts = g.vec(2..40, |g| g.range(0.0..1000.0));
        if counts.iter().sum::<f64>() <= 0.0 {
            return;
        }
        let t = chi2_uniformity_test(&counts).unwrap();
        assert!((0.0..=1.0).contains(&t.p_value));
        assert!(t.statistic >= 0.0);
    });
}

#[test]
fn online_moments_merge_matches_sequential() {
    cases(256, |g| {
        let a = g.vec(1..60, |g| g.range(-10.0..10.0));
        let b = g.vec(1..60, |g| g.range(-10.0..10.0));
        let mut whole = OnlineMoments::new();
        for &x in a.iter().chain(&b) {
            whole.push(x);
        }
        let mut left = OnlineMoments::new();
        for &x in &a {
            left.push(x);
        }
        let mut right = OnlineMoments::new();
        for &x in &b {
            right.push(x);
        }
        left.merge(&right);
        assert!((left.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-8);
        if let (Some(v1), Some(v2)) = (left.variance(), whole.variance()) {
            assert!((v1 - v2).abs() < 1e-7);
        }
    });
}
