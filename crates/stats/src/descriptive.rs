//! Descriptive statistics: medians, dimension-wise medians, IQR, moments.
//!
//! The MVB (minimum volume ball) outlier detector of Section 4.2.2 is built
//! entirely from medians: the ball center is the dimension-wise median of a
//! cluster's points and its radius the median of the distances to that
//! center; the MapReduce variant (Section 5.5) additionally takes medians
//! *across split-local estimates* in the reducer, which P3C+ makes a
//! [`weighted_median`] over fixed-size chunks of the input in both
//! pipelines.

/// Median of a slice (destructive on a copy; `select_nth_unstable`-based).
///
/// Even-length inputs average the two middle order statistics.
/// Returns `None` on empty input.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    Some(median_in_place(&mut v))
}

/// Median that consumes its scratch buffer (avoids the copy when the caller
/// already owns the data).
pub fn median_in_place(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty());
    let n = v.len();
    let mid = n / 2;
    let (_, m, _) = v.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
    let hi = *m;
    if n % 2 == 1 {
        hi
    } else {
        // Lower middle is the max of the left partition.
        let lo = v[..mid].iter().copied().fold(f64::NEG_INFINITY, f64::max);
        0.5 * (lo + hi)
    }
}

/// Weighted median of `(value, weight)` pairs: the median of the
/// multiset in which each value occurs `weight` times. In value order it
/// is the first value whose cumulative weight passes half the total, or
/// the mean of it and the next value where the cumulative weight is
/// exactly half, so equal weights give [`median_in_place`]'s result bit
/// for bit. Weights must be positive; sorts `values`.
pub fn weighted_median(values: &mut [(f64, usize)]) -> f64 {
    assert!(!values.is_empty());
    values.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let total: usize = values.iter().map(|v| v.1).sum();
    let mut below = 0;
    for (i, &(value, weight)) in values.iter().enumerate() {
        below += weight;
        if 2 * below > total {
            return value;
        }
        if 2 * below == total {
            return 0.5 * (value + values[i + 1].0);
        }
    }
    unreachable!("weights must be positive")
}

/// Dimension-wise median `Md_d(X)` of a set of d-dimensional points
/// (paper Section 5.5): component `j` of the result is the median of the
/// j-th coordinates. Returns `None` on empty input.
pub fn dimensionwise_median(points: &[&[f64]]) -> Option<Vec<f64>> {
    let first = points.first()?;
    let d = first.len();
    let mut out = Vec::with_capacity(d);
    let mut scratch = Vec::with_capacity(points.len());
    for j in 0..d {
        scratch.clear();
        scratch.extend(points.iter().map(|p| p[j]));
        out.push(median_in_place(&mut scratch));
    }
    Some(out)
}

/// First and third quartiles (linear-interpolated order statistics).
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(|a, b| a.total_cmp(b));
    let q = |p: f64| -> f64 {
        let idx = p * (v.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        let frac = idx - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    };
    Some((q(0.25), q(0.75)))
}

/// Interquartile range (Q3 − Q1) using the linearly interpolated
/// quartiles of [`quartiles`] (the "R-7" estimate at p·(n−1); not
/// nearest-rank, which would snap to sample values).
pub fn iqr(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|(q1, q3)| q3 - q1)
}

/// Numerically stable online mean/variance (Welford).
#[derive(Debug, Clone, Default)]
pub struct OnlineMoments {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineMoments {
    /// Fresh accumulator with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds in one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations folded in so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean; `None` before the first observation.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Sample variance (n−1 denominator).
    pub fn variance(&self) -> Option<f64> {
        (self.n > 1).then(|| self.m2 / (self.n - 1) as f64)
    }

    /// Sample standard deviation (square root of [`OnlineMoments::variance`]).
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Merges another accumulator (Chan's parallel formula).
    pub fn merge(&mut self, other: &OnlineMoments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_is_order_invariant() {
        let a = [5.0, 9.0, 1.0, 7.0, 3.0];
        let mut b = a;
        b.reverse();
        assert_eq!(median(&a), median(&b));
    }

    #[test]
    fn weighted_median_is_the_median_of_the_repeated_values() {
        let expand = |pairs: &[(f64, usize)]| -> f64 {
            let mut all: Vec<f64> = pairs
                .iter()
                .flat_map(|&(v, w)| std::iter::repeat_n(v, w))
                .collect();
            median_in_place(&mut all)
        };
        for pairs in [
            vec![(5.0, 1)],
            vec![(1.0, 8192), (100.0, 1)],
            vec![(100.0, 1), (1.0, 8192)],
            vec![(2.0, 3), (1.0, 3)],
            vec![(3.0, 1), (1.0, 2), (2.0, 3)],
            vec![(0.5, 4), (0.25, 4), (0.75, 4), (1.0, 4)],
            vec![(-1.0, 7), (4.0, 2), (4.0, 5), (9.0, 1)],
        ] {
            assert_eq!(
                weighted_median(&mut pairs.clone()),
                expand(&pairs),
                "{pairs:?}"
            );
        }
        // Equal weights: the plain median, even lengths included.
        let mut values = [4.0, 1.0, 3.0, 2.0];
        let mut pairs: Vec<(f64, usize)> = values.iter().map(|&v| (v, 9)).collect();
        assert_eq!(weighted_median(&mut pairs), median_in_place(&mut values));
    }

    #[test]
    fn dimensionwise_median_example() {
        let pts: Vec<Vec<f64>> = vec![vec![0.0, 10.0], vec![1.0, 20.0], vec![2.0, 0.0]];
        let refs: Vec<&[f64]> = pts.iter().map(|p| p.as_slice()).collect();
        let m = dimensionwise_median(&refs).unwrap();
        assert_eq!(m, vec![1.0, 10.0]);
    }

    #[test]
    fn dimensionwise_median_empty() {
        let refs: Vec<&[f64]> = vec![];
        assert!(dimensionwise_median(&refs).is_none());
    }

    #[test]
    fn iqr_of_uniform_grid() {
        let v: Vec<f64> = (0..101).map(|i| i as f64 / 100.0).collect();
        let r = iqr(&v).unwrap();
        assert!((r - 0.5).abs() < 1e-12, "iqr = {r}");
    }

    #[test]
    fn iqr_requires_two_values() {
        assert!(iqr(&[1.0]).is_none());
        assert!(iqr(&[]).is_none());
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        // Three points: quartile indices fall at 0.25·2 = 0.5 and
        // 0.75·2 = 1.5, *between* order statistics. Nearest-rank would
        // return sample values (10 or 20 / 20 or 40); linear
        // interpolation gives 15 and 30, so IQR = 15.
        let v = [10.0, 20.0, 40.0];
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 15.0).abs() < 1e-12, "q1 = {q1}");
        assert!((q3 - 30.0).abs() < 1e-12, "q3 = {q3}");
        assert!((iqr(&v).unwrap() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_of_grid() {
        let v: Vec<f64> = (0..101).map(|i| i as f64 / 100.0).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 0.25).abs() < 1e-12);
        assert!((q3 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn welford_matches_two_pass() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut m = OnlineMoments::new();
        for &x in &data {
            m.push(x);
        }
        assert!((m.mean().unwrap() - 5.0).abs() < 1e-12);
        // Two-pass sample variance: Σ(x−5)²/7 = 32/7.
        assert!((m.variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineMoments::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = OnlineMoments::new();
        let mut b = OnlineMoments::new();
        for (i, &x) in data.iter().enumerate() {
            if i < 37 {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-10);
        assert!((a.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-10);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = OnlineMoments::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.mean();
        a.merge(&OnlineMoments::new());
        assert_eq!(a.mean(), before);
        let mut empty = OnlineMoments::new();
        empty.merge(&a);
        assert_eq!(empty.mean(), before);
    }
}
