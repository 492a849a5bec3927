//! Histogram bin-count rules (paper Section 4.1.1).
//!
//! The original P3C uses Sturges' rule, which oversmooths on large data
//! sets; P3C+ switches to the Freedman–Diaconis rule under the paper's
//! simplifying assumption that each (normalized) attribute is roughly
//! uniform on `[0,1]`, i.e. `IQR = 1/2`, giving `bin_size = n^{-1/3}`.

/// Which rule decides the number of histogram bins per attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinRule {
    /// Sturges' rule `⌈1 + log₂ n⌉` — the original P3C choice.
    Sturges,
    /// Freedman–Diaconis with the paper's `IQR = 1/2` assumption:
    /// `bin_size = 2 · (1/2) · n^{-1/3} = n^{-1/3}` ⇒ `⌈n^{1/3}⌉` bins.
    FreedmanDiaconis,
}

impl BinRule {
    /// Number of bins for a sample of size `n` on a `[0,1]` attribute.
    pub fn num_bins(self, n: usize) -> usize {
        match self {
            BinRule::Sturges => sturges_bins(n),
            BinRule::FreedmanDiaconis => freedman_diaconis_bins(n),
        }
    }
}

/// Sturges' rule: `⌈1 + log₂ n⌉` bins (at least 1).
pub fn sturges_bins(n: usize) -> usize {
    if n <= 1 {
        return 1;
    }
    (1.0 + (n as f64).log2()).ceil() as usize
}

/// Freedman–Diaconis bins for a `[0,1]`-normalized attribute with the
/// paper's `IQR = 1/2` assumption: bin width `n^{-1/3}`, hence `⌈n^{1/3}⌉`
/// bins (at least 1).
pub fn freedman_diaconis_bins(n: usize) -> usize {
    if n <= 1 {
        return 1;
    }
    (n as f64).powf(1.0 / 3.0).ceil() as usize
}

/// General Freedman–Diaconis rule for data with a known interquartile
/// range on a range of width `range`: bin width `2·IQR·n^{-1/3}`.
pub fn freedman_diaconis_bins_with_iqr(n: usize, iqr: f64, range: f64) -> usize {
    assert!(iqr > 0.0 && range > 0.0, "iqr and range must be positive");
    if n <= 1 {
        return 1;
    }
    let width = 2.0 * iqr * (n as f64).powf(-1.0 / 3.0);
    (range / width).ceil().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sturges_known_values() {
        assert_eq!(sturges_bins(1), 1);
        assert_eq!(sturges_bins(2), 2);
        assert_eq!(sturges_bins(1024), 11);
        assert_eq!(sturges_bins(10_000), 15); // ⌈1 + 13.29⌉
        assert_eq!(sturges_bins(1_000_000), 21);
    }

    #[test]
    fn fd_known_values() {
        assert_eq!(freedman_diaconis_bins(1), 1);
        assert_eq!(freedman_diaconis_bins(8), 2);
        assert_eq!(freedman_diaconis_bins(1_000), 10);
        assert_eq!(freedman_diaconis_bins(1_000_000), 100);
    }

    #[test]
    fn fd_outgrows_sturges_on_big_data() {
        // The motivation of Section 4.1.1: on large n, FD resolves far more
        // structure than Sturges.
        for &n in &[100_000usize, 1_000_000, 10_000_000] {
            assert!(freedman_diaconis_bins(n) > 2 * sturges_bins(n), "n={n}");
        }
    }

    #[test]
    fn general_fd_reduces_to_paper_simplification() {
        // IQR = 1/2 on range 1 reproduces the simplified rule.
        for &n in &[10usize, 100, 5_000, 250_047] {
            assert_eq!(
                freedman_diaconis_bins_with_iqr(n, 0.5, 1.0),
                freedman_diaconis_bins(n),
                "n={n}"
            );
        }
    }

    #[test]
    fn rules_monotone_in_n() {
        let mut prev_s = 0;
        let mut prev_f = 0;
        for &n in &[1usize, 10, 100, 1_000, 10_000, 100_000] {
            let s = sturges_bins(n);
            let f = freedman_diaconis_bins(n);
            assert!(s >= prev_s && f >= prev_f);
            prev_s = s;
            prev_f = f;
        }
    }

    #[test]
    fn enum_dispatch() {
        assert_eq!(BinRule::Sturges.num_bins(1024), 11);
        assert_eq!(BinRule::FreedmanDiaconis.num_bins(1_000), 10);
    }
}
