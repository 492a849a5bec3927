//! The Poisson support test of the cluster-core generation step.
//!
//! Equation 1 of the paper asks whether the observed support of a
//! (p+1)-signature is *significantly larger* than its expected support
//! under the uniformity assumption. The expected support plays the role of
//! the Poisson rate λ; the test rejects when `P(X ≥ observed | λ) < α`.
//!
//! Two evaluation strategies are provided:
//!
//! * **exact** — the tail probability through the regularized incomplete
//!   gamma function (`P(X ≥ k) = P(k, λ)` for integer k ≥ 1);
//! * **Gaussian σ-units** — the paper's own fix (end of Section 7.4.2) for
//!   thresholds like `1e-140` that underflow every f64 probability: the
//!   Poisson is approximated by `N(λ, √λ)` and the observation is compared
//!   in standard-deviation units against `z = Φ⁻¹(1 − α)`.
//!
//! [`PoissonTest`] precomputes `z(α)` once and uses the exact tail for
//! moderate thresholds, switching to σ-units whenever the exact
//! computation would be numerically meaningless — mirroring the paper.

use crate::normal::Normal;
use crate::special::gamma_p;

/// Below this α the exact tail computation is abandoned for σ-units.
/// `1e-12` keeps a two-decade safety margin above f64's relative-epsilon
/// cliff near `1e-16` while covering every practically exact regime.
const EXACT_ALPHA_FLOOR: f64 = 1e-12;

/// A one-sided Poisson significance test at level α.
///
/// ```
/// use p3c_stats::PoissonTest;
///
/// let test = PoissonTest::new(1e-6);
/// // The paper's Figure 2 example: support 10 vs expectation 1.
/// assert!(test.significantly_larger(10.0, 1.0));
/// assert!(!test.significantly_larger(2.0, 1.0));
/// // Extreme thresholds work through the σ-unit transformation.
/// let strict = PoissonTest::new(1e-140);
/// assert!(strict.significantly_larger(1_000.0, 100.0));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PoissonTest {
    alpha: f64,
    /// Precomputed Φ⁻¹(1 − α) for the σ-unit path.
    z_alpha: f64,
}

impl PoissonTest {
    /// Creates the test; α may be as small as `1e-300`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "alpha must be in (0,1), got {alpha}"
        );
        Self {
            alpha,
            z_alpha: Normal::isf(alpha),
        }
    }

    /// The significance level.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The σ-unit threshold `z(α)`.
    pub fn z_alpha(&self) -> f64 {
        self.z_alpha
    }

    /// Exact upper-tail probability `P(X ≥ k | λ)` for a Poisson variable.
    ///
    /// Uses the identity `P(X ≥ k) = P(k, λ)` (regularized lower incomplete
    /// gamma) for `k ≥ 1`; `k ≤ 0` has probability 1.
    pub fn tail_prob_exact(observed: f64, lambda: f64) -> f64 {
        assert!(lambda >= 0.0, "lambda must be nonnegative");
        let k = observed.ceil();
        if k <= 0.0 {
            return 1.0;
        }
        if lambda == 0.0 {
            return 0.0;
        }
        gamma_p(k, lambda)
    }

    /// Gaussian-approximated upper-tail probability via `N(λ, √λ)`.
    pub fn tail_prob_gauss(observed: f64, lambda: f64) -> f64 {
        if lambda <= 0.0 {
            return if observed > 0.0 { 0.0 } else { 1.0 };
        }
        Normal::sf((observed - lambda) / lambda.sqrt())
    }

    /// The observation expressed in standard deviations above λ.
    pub fn sigma_units(observed: f64, lambda: f64) -> f64 {
        if lambda <= 0.0 {
            return if observed > 0.0 { f64::INFINITY } else { 0.0 };
        }
        (observed - lambda) / lambda.sqrt()
    }

    /// The paper's `observed >_p expected` predicate: is `observed`
    /// significantly larger than the expected support `lambda`?
    ///
    /// For moderate α the exact Poisson tail decides; for α below
    /// `1e-12` — where cumulative probabilities are not representable —
    /// the σ-unit comparison decides, exactly as the paper prescribes.
    pub fn significantly_larger(&self, observed: f64, lambda: f64) -> bool {
        if observed <= lambda {
            return false;
        }
        if lambda <= 0.0 {
            // Any support over an expectation of zero is infinitely surprising.
            return observed > 0.0;
        }
        if self.alpha >= EXACT_ALPHA_FLOOR {
            Self::tail_prob_exact(observed, lambda) < self.alpha
        } else {
            Self::sigma_units(observed, lambda) > self.z_alpha
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_tail_matches_hand_computed() {
        // P(X >= 2 | λ=1) = 1 - e^{-1}(1 + 1) ≈ 0.26424.
        let p = PoissonTest::tail_prob_exact(2.0, 1.0);
        assert!((p - (1.0 - 2.0 * (-1.0f64).exp())).abs() < 1e-12);
        // P(X >= 1 | λ) = 1 - e^{-λ}.
        for &l in &[0.5, 2.0, 5.0] {
            let p = PoissonTest::tail_prob_exact(1.0, l);
            assert!((p - (1.0 - (-l).exp())).abs() < 1e-12);
        }
    }

    #[test]
    fn papers_redundancy_example_passes() {
        // Section 4.2.1: Supp(S3) = 10 vs expected 1 at α = 1e-6 must be
        // significant, as must Supp(Si) = 50 vs expected 1.
        let t = PoissonTest::new(1e-6);
        assert!(t.significantly_larger(10.0, 1.0));
        assert!(t.significantly_larger(50.0, 1.0));
    }

    #[test]
    fn insignificant_small_deviation() {
        let t = PoissonTest::new(0.01);
        // 105 observed vs λ=100: z ≈ 0.5 — clearly not significant.
        assert!(!t.significantly_larger(105.0, 100.0));
        // But a huge deviation is.
        assert!(t.significantly_larger(200.0, 100.0));
    }

    #[test]
    fn observed_below_expected_never_significant() {
        let t = PoissonTest::new(0.5);
        assert!(!t.significantly_larger(99.0, 100.0));
        assert!(!t.significantly_larger(100.0, 100.0));
    }

    #[test]
    fn power_grows_with_scale_at_fixed_relative_deviation() {
        // The Figure 1 phenomenon: a constant 1% relative deviation becomes
        // significant once the data set is large enough.
        let t = PoissonTest::new(0.01);
        assert!(!t.significantly_larger(1.01 * 1_000.0, 1_000.0));
        assert!(t.significantly_larger(1.01 * 100_000.0, 100_000.0));
    }

    #[test]
    fn extreme_thresholds_are_usable() {
        // α = 1e-140 (Figure 5's leftmost sweep value) must neither panic
        // nor collapse to always/never significant.
        let t = PoissonTest::new(1e-140);
        let lambda: f64 = 100.0;
        // 26 sigma above: z(1e-140) ≈ 25.2, so 100 + 26·10 = 360 passes...
        assert!(t.significantly_larger(lambda + 26.0 * lambda.sqrt(), lambda));
        // ...and 24 sigma above does not.
        assert!(!t.significantly_larger(lambda + 24.0 * lambda.sqrt(), lambda));
    }

    #[test]
    fn zero_lambda_edge_cases() {
        let t = PoissonTest::new(0.01);
        assert!(t.significantly_larger(1.0, 0.0));
        assert!(!t.significantly_larger(0.0, 0.0));
        assert_eq!(PoissonTest::tail_prob_exact(0.0, 5.0), 1.0);
    }

    #[test]
    fn gauss_approximates_exact_for_large_lambda() {
        let lambda = 10_000.0;
        let observed = 10_300.0; // 3 sigma
        let exact = PoissonTest::tail_prob_exact(observed, lambda);
        let gauss = PoissonTest::tail_prob_gauss(observed, lambda);
        // Within 15% relative for a 3σ event at λ=1e4.
        assert!(
            (exact - gauss).abs() / exact < 0.15,
            "exact={exact} gauss={gauss}"
        );
    }

    #[test]
    fn sigma_units_is_linear_in_observed() {
        let s1 = PoissonTest::sigma_units(110.0, 100.0);
        let s2 = PoissonTest::sigma_units(120.0, 100.0);
        assert!((s2 - 2.0 * s1).abs() < 1e-12);
        assert!((s1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn monotone_in_alpha() {
        // Stricter alpha ⇒ fewer rejections.
        let loose = PoissonTest::new(1e-2);
        let strict = PoissonTest::new(1e-30);
        let lambda: f64 = 1_000.0;
        let observed = lambda + 6.0 * lambda.sqrt();
        assert!(loose.significantly_larger(observed, lambda));
        assert!(!strict.significantly_larger(observed, lambda));
    }
}
