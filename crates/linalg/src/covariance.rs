//! Weighted mean/covariance estimation in the paper's summation form.
//!
//! Section 5.4 of the paper expresses EM initialization and covariance
//! estimation as sums computable record-by-record in a mapper and combined
//! in a reducer:
//!
//! ```text
//! l_C  = Σ w_{C,i} · x_i          (weighted linear sum)
//! w_C  = Σ w_{C,i}                (sum of weights)
//! w_C2 = Σ w_{C,i}²               (sum of squared weights)
//! μ_C  = l_C / w_C
//! Σ_C  = w_C / (w_C² − w_C2) · Σ w_{C,i} (x_i − μ_C)(x_i − μ_C)ᵀ
//! ```
//!
//! [`CovarianceAccumulator`] implements exactly those statistics and is
//! *mergeable*, so partial accumulators from independent splits combine into
//! the global result — the key property exploited by the MapReduce jobs.
//! The scatter part uses a shifted two-pass-free formulation (sums of
//! `w·x xᵀ`) so that merging stays exact.

use crate::matrix::Matrix;

/// Mergeable accumulator of weighted first and second moments.
#[derive(Debug, Clone)]
pub struct CovarianceAccumulator {
    dim: usize,
    /// Σ w_i x_i
    linear: Vec<f64>,
    /// Σ w_i x_i x_iᵀ (row-major). Only the lower triangle is
    /// maintained — [`CovarianceAccumulator::push`] stops each row's
    /// update just past the diagonal, so entries above it hold
    /// deterministic but meaningless partial sums. Covariance
    /// extraction mirrors the lower triangle; nothing reads the upper
    /// entries numerically.
    scatter: Vec<f64>,
    /// Σ w_i
    weight: f64,
    /// Σ w_i²
    weight_sq: f64,
    /// Number of observations folded in (unweighted count).
    count: u64,
}

impl CovarianceAccumulator {
    /// Empty accumulator for `dim`-dimensional observations.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            linear: vec![0.0; dim],
            scatter: vec![0.0; dim * dim],
            weight: 0.0,
            weight_sq: 0.0,
            count: 0,
        }
    }

    /// Dimensionality of accepted observations.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Adds one observation with weight `w` (weights are EM
    /// responsibilities; pass `1.0` for hard assignments).
    ///
    /// The scatter update walks row slices with iterators — the same
    /// `scatter[i][j] += (w·x_i)·x_j` arithmetic in the same order as
    /// the indexed form (bit-identical), with bounds checks hoisted.
    /// Each row's update stops at the diagonal: the matrix is
    /// symmetric, so only the lower triangle is maintained (see the
    /// field docs) and extraction mirrors it. Hot loops should prefer
    /// [`CovarianceAccumulator::push_block`], which runs the same
    /// per-entry add sequences row-outer/point-inner so the short
    /// triangular rows stop throttling vectorization. `#[inline]`
    /// because the workspace builds without cross-crate LTO.
    #[inline]
    pub fn push(&mut self, x: &[f64], w: f64) {
        debug_assert_eq!(x.len(), self.dim);
        if w == 0.0 {
            return;
        }
        for (li, &xi) in self.linear.iter_mut().zip(x) {
            *li += w * xi;
        }
        let dim = self.dim.max(1);
        for (i, (row, &xi)) in self.scatter.chunks_exact_mut(dim).zip(x).enumerate() {
            let wxi = w * xi;
            for (s, &xj) in row[..i + 1].iter_mut().zip(x) {
                *s += wxi * xj;
            }
        }
        self.weight += w;
        self.weight_sq += w * w;
        self.count += 1;
    }

    /// Folds a whole block of observations in at once — bit-identical
    /// to pushing `(xs[p], ws[p])` sequentially for every `p` (weights
    /// must be non-zero; [`CovarianceAccumulator::push`] would skip
    /// zero-weight points, so callers filter them out first, exactly
    /// like the E-step's responsibility gate does).
    ///
    /// Every accumulator field is a per-entry sum over points, and
    /// points only interact *within* one entry, so looping points
    /// inside entries (here: scatter row-outer, point-inner) replays
    /// the exact per-entry add chains of sequential pushes while each
    /// triangular row's partial sums stay in registers for the whole
    /// block — the fixed-length inner loop vectorizes and the row's
    /// loads/stores amortize over `ws.len()` points instead of one.
    /// `#[inline(always)]`, so the E-step's AVX2 twin compiles it at its
    /// own width (DESIGN.md §13).
    #[inline(always)]
    pub fn push_block(&mut self, xs: &[f64], ws: &[f64]) {
        let d = self.dim;
        assert_eq!(xs.len(), ws.len() * d, "block is not ws.len() points");
        if d == 0 {
            for &w in ws {
                debug_assert!(w != 0.0, "push_block requires non-zero weights");
                self.weight += w;
                self.weight_sq += w * w;
            }
            self.count += ws.len() as u64;
            return;
        }
        for (x, &w) in xs.chunks_exact(d).zip(ws) {
            debug_assert!(w != 0.0, "push_block requires non-zero weights");
            for (li, &xi) in self.linear.iter_mut().zip(x) {
                *li += w * xi;
            }
            self.weight += w;
            self.weight_sq += w * w;
        }
        self.count += ws.len() as u64;
        // Rows are processed in adjacent pairs: both rows share the
        // `x[..i+1]` loads, so each streamed point feeds two triangular
        // rows per pass (entries never interact across rows, so the
        // per-entry point-ascending add chains are unchanged).
        let mut i = 0;
        while i + 1 < d {
            let (head, tail) = self.scatter.split_at_mut((i + 1) * d);
            let row0 = &mut head[i * d..i * d + i + 1];
            let row1 = &mut tail[..i + 2];
            for (x, &w) in xs.chunks_exact(d).zip(ws) {
                let wxi0 = w * x[i];
                let wxi1 = w * x[i + 1];
                for ((s0, s1), &xj) in row0
                    .iter_mut()
                    .zip(row1[..i + 1].iter_mut())
                    .zip(&x[..i + 1])
                {
                    *s0 += wxi0 * xj;
                    *s1 += wxi1 * xj;
                }
                row1[i + 1] += wxi1 * x[i + 1];
            }
            i += 2;
        }
        if i < d {
            let row = &mut self.scatter[i * d..i * d + i + 1];
            for (x, &w) in xs.chunks_exact(d).zip(ws) {
                let wxi = w * x[i];
                for (s, &xj) in row.iter_mut().zip(x) {
                    *s += wxi * xj;
                }
            }
        }
    }

    /// Merges a partial accumulator from another split.
    pub fn merge(&mut self, other: &CovarianceAccumulator) {
        assert_eq!(
            self.dim, other.dim,
            "merging accumulators of different dims"
        );
        for (a, b) in self.linear.iter_mut().zip(&other.linear) {
            *a += b;
        }
        for (a, b) in self.scatter.iter_mut().zip(&other.scatter) {
            *a += b;
        }
        self.weight += other.weight;
        self.weight_sq += other.weight_sq;
        self.count += other.count;
    }

    /// Total weight `w_C`.
    pub fn total_weight(&self) -> f64 {
        self.weight
    }

    /// Number of observations pushed (over all merged parts).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Weighted mean `μ_C`, or `None` when no weight was accumulated.
    pub fn mean(&self) -> Option<Vec<f64>> {
        if self.weight <= 0.0 {
            return None;
        }
        Some(self.linear.iter().map(|l| l / self.weight).collect())
    }

    /// Unbiased weighted covariance `Σ_C` using the paper's
    /// `w_C/(w_C² − w_C2)` normalization (reduces to `1/(n−1)` for unit
    /// weights). `None` when fewer than two effective observations exist.
    pub fn covariance(&self) -> Option<Matrix> {
        let mean = self.mean()?;
        let denom = self.weight * self.weight - self.weight_sq;
        if denom <= 0.0 {
            return None;
        }
        let norm = self.weight / denom;
        let mut cov = Matrix::zeros(self.dim, self.dim);
        // Σ w (x−μ)(x−μ)ᵀ = scatter − w_C μ μᵀ  (since Σ w x = w_C μ).
        // Only the lower triangle of `scatter` is maintained (see
        // `push`); mirror it into the upper half of the result.
        for i in 0..self.dim {
            for j in 0..=i {
                let centered = self.scatter[i * self.dim + j] - self.weight * mean[i] * mean[j];
                let c = norm * centered;
                cov[(i, j)] = c;
                cov[(j, i)] = c;
            }
        }
        Some(cov)
    }

    /// Biased (maximum-likelihood) covariance `1/w_C Σ w (x−μ)(x−μ)ᵀ`,
    /// the form EM's M-step uses.
    pub fn covariance_ml(&self) -> Option<Matrix> {
        let mean = self.mean()?;
        if self.weight <= 0.0 {
            return None;
        }
        let mut cov = Matrix::zeros(self.dim, self.dim);
        // Lower triangle mirrored, as in `covariance`.
        for i in 0..self.dim {
            for j in 0..=i {
                let centered = self.scatter[i * self.dim + j] - self.weight * mean[i] * mean[j];
                let c = centered / self.weight;
                cov[(i, j)] = c;
                cov[(j, i)] = c;
            }
        }
        Some(cov)
    }

    /// Decomposes the accumulator into its raw sums
    /// `(dim, linear, scatter, weight, weight_sq, count)` — the exact
    /// state [`CovarianceAccumulator::from_parts`] rebuilds. Used by the
    /// distributed shuffle codec, which must round-trip accumulators
    /// bit-identically.
    pub fn to_parts(&self) -> (usize, &[f64], &[f64], f64, f64, u64) {
        (
            self.dim,
            &self.linear,
            &self.scatter,
            self.weight,
            self.weight_sq,
            self.count,
        )
    }

    /// Rebuilds an accumulator from raw sums produced by
    /// [`CovarianceAccumulator::to_parts`].
    ///
    /// # Panics
    ///
    /// Panics when the vector lengths are inconsistent with `dim`.
    pub fn from_parts(
        dim: usize,
        linear: Vec<f64>,
        scatter: Vec<f64>,
        weight: f64,
        weight_sq: f64,
        count: u64,
    ) -> Self {
        assert_eq!(linear.len(), dim, "linear sum length mismatch");
        assert_eq!(scatter.len(), dim * dim, "scatter matrix length mismatch");
        Self {
            dim,
            linear,
            scatter,
            weight,
            weight_sq,
            count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, 2.0],
            vec![3.0, 1.0],
            vec![2.0, 4.0],
            vec![0.0, 0.0],
            vec![4.0, 3.0],
        ]
    }

    /// Textbook two-pass covariance for comparison.
    fn naive_cov(points: &[Vec<f64>]) -> (Vec<f64>, Matrix) {
        let n = points.len() as f64;
        let d = points[0].len();
        let mut mean = vec![0.0; d];
        for p in points {
            for (m, x) in mean.iter_mut().zip(p) {
                *m += x / n;
            }
        }
        let mut cov = Matrix::zeros(d, d);
        for p in points {
            for i in 0..d {
                for j in 0..d {
                    cov[(i, j)] += (p[i] - mean[i]) * (p[j] - mean[j]) / (n - 1.0);
                }
            }
        }
        (mean, cov)
    }

    #[test]
    fn matches_two_pass_estimator() {
        let pts = sample();
        let mut acc = CovarianceAccumulator::new(2);
        for p in &pts {
            acc.push(p, 1.0);
        }
        let (mean, cov) = naive_cov(&pts);
        let m = acc.mean().unwrap();
        let c = acc.covariance().unwrap();
        for (a, b) in m.iter().zip(&mean) {
            assert!((a - b).abs() < 1e-12);
        }
        for i in 0..2 {
            for j in 0..2 {
                assert!((c[(i, j)] - cov[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn merge_equals_single_accumulator() {
        let pts = sample();
        let mut whole = CovarianceAccumulator::new(2);
        for p in &pts {
            whole.push(p, 1.0);
        }
        let mut a = CovarianceAccumulator::new(2);
        let mut b = CovarianceAccumulator::new(2);
        for (i, p) in pts.iter().enumerate() {
            if i % 2 == 0 {
                a.push(p, 1.0);
            } else {
                b.push(p, 1.0);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        let (cw, cm) = (whole.covariance().unwrap(), a.covariance().unwrap());
        for i in 0..2 {
            for j in 0..2 {
                assert!((cw[(i, j)] - cm[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn weighted_mean_prefers_heavy_points() {
        let mut acc = CovarianceAccumulator::new(1);
        acc.push(&[0.0], 1.0);
        acc.push(&[10.0], 3.0);
        let m = acc.mean().unwrap();
        assert!((m[0] - 7.5).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_is_ignored() {
        let mut acc = CovarianceAccumulator::new(1);
        acc.push(&[5.0], 0.0);
        assert!(acc.mean().is_none());
    }

    #[test]
    fn single_point_has_no_covariance() {
        let mut acc = CovarianceAccumulator::new(2);
        acc.push(&[1.0, 2.0], 1.0);
        assert!(acc.covariance().is_none());
        assert!(acc.mean().is_some());
    }

    #[test]
    fn ml_covariance_is_smaller_by_n_minus_1_over_n() {
        let pts = sample();
        let mut acc = CovarianceAccumulator::new(2);
        for p in &pts {
            acc.push(p, 1.0);
        }
        let unbiased = acc.covariance().unwrap();
        let ml = acc.covariance_ml().unwrap();
        let ratio = (pts.len() as f64 - 1.0) / pts.len() as f64;
        for i in 0..2 {
            for j in 0..2 {
                assert!((ml[(i, j)] - unbiased[(i, j)] * ratio).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn push_block_is_bit_identical_to_sequential_pushes() {
        let mut s = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        for d in [0usize, 1, 2, 3, 7, 10, 16, 25, 33] {
            for npts in [0usize, 1, 5, 23] {
                let xs: Vec<f64> = (0..npts * d).map(|_| rng()).collect();
                let ws: Vec<f64> = (0..npts).map(|_| rng() + 1e-3).collect();
                let mut seq = CovarianceAccumulator::new(d);
                for (p, &w) in ws.iter().enumerate() {
                    seq.push(&xs[p * d..(p + 1) * d], w);
                }
                let mut blk = CovarianceAccumulator::new(d);
                blk.push_block(&xs, &ws);
                let (d0, l0, s0, w0, q0, c0) = seq.to_parts();
                let (d1, l1, s1, w1, q1, c1) = blk.to_parts();
                assert_eq!(d0, d1);
                assert_eq!(c0, c1, "d={d}, npts={npts}");
                assert_eq!(w0.to_bits(), w1.to_bits(), "d={d}, npts={npts}");
                assert_eq!(q0.to_bits(), q1.to_bits(), "d={d}, npts={npts}");
                for (a, b) in l0.iter().zip(l1) {
                    assert_eq!(a.to_bits(), b.to_bits(), "d={d}, npts={npts}");
                }
                for (a, b) in s0.iter().zip(s1) {
                    assert_eq!(a.to_bits(), b.to_bits(), "d={d}, npts={npts}");
                }
            }
        }
    }

    #[test]
    fn covariance_is_symmetric_psd() {
        let pts = sample();
        let mut acc = CovarianceAccumulator::new(2);
        for p in &pts {
            acc.push(p, 0.5 + (p[0] * 0.1));
        }
        let c = acc.covariance().unwrap();
        assert!(c.is_symmetric(1e-12));
        assert!(crate::Cholesky::new_regularized(&c).is_some());
    }
}
