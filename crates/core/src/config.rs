//! Algorithm parameters, with the paper's experimental settings as
//! constructible presets.

use p3c_stats::BinRule;

/// Which histogram bin-count rule to use (Section 4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinRuleChoice {
    /// Sturges — the original P3C choice; oversmooths on large data.
    Sturges,
    /// Freedman–Diaconis with the paper's IQR = 1/2 simplification —
    /// the P3C+ choice.
    FreedmanDiaconis,
    /// Freedman–Diaconis with the *exact* per-attribute IQR — the variant
    /// the paper skips as "data and computationally intensive" (§4.1.1).
    /// An extension: the serial pipelines compute per-attribute quartiles
    /// directly; the MR pipelines add one quartile job (per-split
    /// quartiles, median-of-medians reducer). Bin counts are capped at 4×
    /// the simplified rule to keep near-constant attributes tractable.
    FreedmanDiaconisIqr,
}

impl BinRuleChoice {
    /// The data-independent rule used for *member-level* histograms
    /// (attribute inspection): exact-IQR falls back to the simplified FD
    /// rule there, where a conditional IQR would be circular.
    pub fn to_rule(self) -> BinRule {
        match self {
            BinRuleChoice::Sturges => BinRule::Sturges,
            BinRuleChoice::FreedmanDiaconis | BinRuleChoice::FreedmanDiaconisIqr => {
                BinRule::FreedmanDiaconis
            }
        }
    }
}

/// Outlier detection strategy (Section 4.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutlierMethod {
    /// Mean/covariance from all cluster members — suffers from masking.
    Naive,
    /// Minimum-volume-ball robust estimators (the paper's approximation
    /// of the MVE estimator).
    Mvb,
    /// Concentration-step MCD (minimum covariance determinant) — an
    /// *extension*: the paper leaves the exact MVE estimator unevaluated
    /// as too expensive (end of Section 7.4.1); MCD concentration is the
    /// standard tractable robustification in that direction (Rousseeuw's
    /// FastMCD C-step, iterated a fixed number of times).
    Mcd,
}

/// Full parameter set for the P3C family.
#[derive(Debug, Clone)]
pub struct P3cParams {
    /// χ² significance for the uniformity tests (paper: 0.001).
    pub alpha_chi2: f64,
    /// Poisson significance for the support tests. The paper's Section 7.3
    /// grid uses 0.01; Figure 5 sweeps down to 1e-140 and shows the
    /// combined test is threshold-insensitive.
    pub alpha_poisson: f64,
    /// Effect-size threshold θ_cc (paper's tuned value: 0.35).
    /// Only used when `use_effect_size`.
    pub theta_cc: f64,
    /// Whether the Cohen's d effect-size test complements the Poisson test
    /// (the P3C+ "Combined" test of Figure 5).
    pub use_effect_size: bool,
    /// Whether redundant cluster cores are filtered (Section 4.2.1).
    pub use_redundancy_filter: bool,
    /// Whether attribute-inspection intervals must pass the support test
    /// ("AI proving", Section 4.2.3).
    pub use_ai_proving: bool,
    /// Histogram bin rule.
    pub bin_rule: BinRuleChoice,
    /// Outlier detection method.
    pub outlier: OutlierMethod,
    /// χ² significance for outlier detection (paper: 0.001).
    pub alpha_outlier: f64,
    /// Maximum EM iterations (each costs two MR jobs).
    pub em_max_iters: usize,
    /// Relative log-likelihood improvement below which EM stops.
    pub em_tol: f64,
    /// Candidate-pair count above which candidate generation is
    /// parallelized (the paper's `T_gen`; tuned per cluster — theirs was
    /// 4·10⁷, ours defaults lower since the in-process engine has no
    /// job-submission latency).
    pub t_gen: usize,
    /// Upper bound on the candidates one batch of multi-level candidate
    /// collection may hold before a proving job runs (the paper's `T_c` =
    /// 3·10⁴, sized for a Hadoop job). The MR pipelines collect up to
    /// `min(t_c, 64·|A_rel|)` — what a proving job costs up front in this
    /// engine (`mr::coregen::JobCounter`, DESIGN.md §4) — so the default
    /// never binds; `0` proves every level in a job of its own.
    pub t_c: usize,
    /// Safety valve against combinatorial candidate explosion at very
    /// loose Poisson thresholds: levels with more candidates are
    /// truncated to the lexicographically first this-many (recorded in
    /// `CoreGenStats::truncated_levels`). `0` disables the cap. Only a
    /// level generated from *proven* signatures is ever cut: core
    /// generation joins a level that would pass the cap from the proven
    /// top rather than from collected candidates, so every counter cuts
    /// the same levels or none.
    pub max_candidates_per_level: usize,
    /// Worker threads for the serial-path kernels (the EM E-step and the
    /// columnar binning scan, block-parallelized over the engine worker
    /// pool). Results are **bit-identical for every value** (DESIGN.md
    /// §11), so this is purely a speed knob. `0` means all available
    /// cores. Defaults to the `P3C_THREADS` environment variable when
    /// set, else `1`.
    pub threads: usize,
}

/// `Default` source for [`P3cParams::threads`]: the `P3C_THREADS`
/// environment variable, or `1`.
fn default_threads() -> usize {
    std::env::var("P3C_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

impl Default for P3cParams {
    /// The P3C+ configuration: combined test, redundancy filter, MVB,
    /// AI proving, Freedman–Diaconis bins.
    fn default() -> Self {
        Self {
            alpha_chi2: 0.001,
            alpha_poisson: 1e-10,
            theta_cc: 0.35,
            use_effect_size: true,
            use_redundancy_filter: true,
            use_ai_proving: true,
            bin_rule: BinRuleChoice::FreedmanDiaconis,
            outlier: OutlierMethod::Mvb,
            alpha_outlier: 0.001,
            em_max_iters: 10,
            em_tol: 1e-4,
            t_gen: 1_000_000,
            t_c: 30_000,
            max_candidates_per_level: 100_000,
            threads: default_threads(),
        }
    }
}

impl P3cParams {
    /// The configuration of the *original* P3C as the paper describes it:
    /// Sturges bins, Poisson-only test, no redundancy filter, naive
    /// outlier detection, no AI proving.
    pub fn original_p3c() -> Self {
        Self {
            use_effect_size: false,
            use_redundancy_filter: false,
            use_ai_proving: false,
            bin_rule: BinRuleChoice::Sturges,
            outlier: OutlierMethod::Naive,
            ..Self::default()
        }
    }

    /// The paper's Section 7.3 experiment settings (α_χ² = 0.001,
    /// α_poi = 0.01, θ_cc = 0.35) on top of the P3C+ defaults.
    pub fn paper_experiment() -> Self {
        Self {
            alpha_poisson: 0.01,
            ..Self::default()
        }
    }

    /// Checks internal consistency; called by pipeline constructors.
    ///
    /// # Panics
    /// Panics, naming the violated condition.
    pub fn validate(&self) {
        if let Err(what) = self.check() {
            panic!("{what}");
        }
    }

    /// [`P3cParams::validate`] for params from outside the program
    /// (decoded bytes, command-line flags): the violated condition
    /// instead of a panic.
    pub fn check(&self) -> Result<(), &'static str> {
        let unit = |alpha: f64| alpha > 0.0 && alpha < 1.0;
        if !unit(self.alpha_chi2) {
            Err("alpha_chi2 out of range")
        } else if !unit(self.alpha_poisson) {
            Err("alpha_poisson out of range")
        } else if !unit(self.alpha_outlier) {
            Err("alpha_outlier out of range")
        } else if self.theta_cc.is_nan() || self.theta_cc < 0.0 {
            Err("theta_cc must be nonnegative")
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_p3cplus() {
        let p = P3cParams::default();
        assert!(p.use_effect_size && p.use_redundancy_filter && p.use_ai_proving);
        assert_eq!(p.bin_rule, BinRuleChoice::FreedmanDiaconis);
        assert_eq!(p.outlier, OutlierMethod::Mvb);
        p.validate();
    }

    #[test]
    fn original_preset_disables_everything() {
        let p = P3cParams::original_p3c();
        assert!(!p.use_effect_size && !p.use_redundancy_filter && !p.use_ai_proving);
        assert_eq!(p.bin_rule, BinRuleChoice::Sturges);
        assert_eq!(p.outlier, OutlierMethod::Naive);
        p.validate();
    }

    #[test]
    fn paper_experiment_alpha() {
        assert_eq!(P3cParams::paper_experiment().alpha_poisson, 0.01);
    }

    #[test]
    #[should_panic(expected = "alpha_poisson")]
    fn invalid_alpha_rejected() {
        P3cParams {
            alpha_poisson: 0.0,
            ..P3cParams::default()
        }
        .validate();
    }

    #[test]
    fn bin_rule_conversion() {
        assert_eq!(BinRuleChoice::Sturges.to_rule().num_bins(1024), 11);
        assert_eq!(BinRuleChoice::FreedmanDiaconis.to_rule().num_bins(1000), 10);
    }
}
