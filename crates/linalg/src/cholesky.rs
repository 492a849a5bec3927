//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! Covariance matrices estimated from finite clusters are occasionally
//! rank-deficient (e.g. a cluster that is constant on an attribute), so the
//! factorization offers a regularized constructor that adds an escalating
//! ridge until the matrix becomes positive definite.

use crate::isa;
use crate::matrix::Matrix;

/// Lane width of the batched solve kernels: 8 points advance through the
/// forward substitution together. The width is a compile-time constant so
/// the per-step inner loops are fixed-length `[f64; LANES]` updates the
/// compiler unrolls and vectorizes on stable Rust (no `std::simd`): four
/// SSE2 registers per lane group on the baseline tier, two AVX2 registers
/// on the [`crate::isa`] tier.
pub const LANES: usize = 8;

/// Reusable scratch for the lane-batched kernels: the transposed
/// lane-group (`xt`) and the point-major solve coefficients (`y`), both
/// laid out coordinate-major (`buf[i * LANES + lane]`) so every step of
/// the triangular recurrence reads and writes one contiguous lane-group.
#[derive(Debug, Default)]
pub struct LaneScratch {
    /// Transposed lane-group: `xt[i * LANES + lane] = x_lane[i]`.
    pub xt: Vec<f64>,
    /// Solve coefficients, same layout as `xt`.
    pub y: Vec<f64>,
}

impl LaneScratch {
    /// Empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resizes both buffers for an order-`n` solve and returns them.
    pub fn for_order(&mut self, n: usize) -> (&mut [f64], &mut [f64]) {
        self.xt.clear();
        self.xt.resize(n * LANES, 0.0);
        self.y.clear();
        self.y.resize(n * LANES, 0.0);
        (&mut self.xt, &mut self.y)
    }
}

/// Transposes a full lane-group of `LANES` points (row-major, `n` values
/// per point) into the coordinate-major layout the lane kernels consume:
/// `xt[i * LANES + lane] = group[lane * n + i]`.
#[inline(always)]
pub fn transpose_lane_group(group: &[f64], n: usize, xt: &mut [f64]) {
    debug_assert_eq!(group.len(), n * LANES);
    debug_assert_eq!(xt.len(), n * LANES);
    for (lane, point) in group.chunks_exact(n).enumerate() {
        for (i, &v) in point.iter().enumerate() {
            xt[i * LANES + lane] = v;
        }
    }
}

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    n: usize,
    /// Row-major lower-triangular factor (upper part is zero).
    l: Vec<f64>,
    /// `1 / L_ii`, precomputed once so the solve paths — which run per
    /// point per component in the EM E-step — multiply instead of
    /// divide. Every solve variant uses the same reciprocal, so they
    /// all stay bit-identical to each other.
    inv_diag: Vec<f64>,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Returns `None` if the matrix is not (numerically) positive definite.
    pub fn new(a: &Matrix) -> Option<Self> {
        assert_eq!(a.rows(), a.cols(), "Cholesky of non-square matrix");
        let n = a.rows();
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return None;
                    }
                    l[i * n + j] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        let inv_diag = (0..n).map(|i| 1.0 / l[i * n + i]).collect();
        Some(Self { n, l, inv_diag })
    }

    /// Factorizes after adding an escalating ridge to the diagonal.
    ///
    /// Starts at `1e-9 * max_diag` and multiplies by 10 until the matrix
    /// factorizes or the ridge exceeds the largest diagonal entry, at which
    /// point `None` is returned (the matrix is hopeless).
    pub fn new_regularized(a: &Matrix) -> Option<Self> {
        if let Some(c) = Self::new(a) {
            return Some(c);
        }
        // audit: order-exact — f64::max is associative and commutative
        let max_diag = (0..a.rows())
            .map(|i| a[(i, i)].abs())
            .fold(0.0f64, f64::max)
            .max(1e-12);
        let mut ridge = max_diag * 1e-9;
        while ridge <= max_diag {
            let mut reg = a.clone();
            reg.add_ridge(ridge);
            if let Some(c) = Self::new(&reg) {
                return Some(c);
            }
            ridge *= 10.0;
        }
        None
    }

    /// Order of the factorized matrix.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Solves `L y = b` (forward substitution).
    #[allow(clippy::needless_range_loop)] // indexed form mirrors the math
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n);
        let mut y = vec![0.0; self.n];
        for i in 0..self.n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l[i * self.n + k] * y[k];
            }
            y[i] = sum * self.inv_diag[i];
        }
        y
    }

    /// Solves `A x = b` via forward then backward substitution.
    #[allow(clippy::needless_range_loop)] // indexed form mirrors the math
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let y = self.solve_lower(b);
        // Back substitution with Lᵀ.
        let mut x = vec![0.0; self.n];
        for i in (0..self.n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..self.n {
                sum -= self.l[k * self.n + i] * x[k];
            }
            x[i] = sum * self.inv_diag[i];
        }
        x
    }

    /// Squared Mahalanobis length `diffᵀ A⁻¹ diff` of an offset vector.
    ///
    /// Uses `‖L⁻¹ diff‖²`, avoiding an explicit inverse.
    pub fn mahalanobis_sq(&self, diff: &[f64]) -> f64 {
        let y = self.solve_lower(diff);
        // audit: order-exact — ascending-index sum; the lane kernel
        // (`mahalanobis_sq_block`) replays this exact per-lane order.
        y.iter().map(|v| v * v).sum::<f64>()
    }

    /// Forward-substitutes `L y = b` into a caller-owned buffer — the
    /// allocation-free form of [`Cholesky::solve_lower`].
    #[allow(clippy::needless_range_loop)] // indexed form mirrors the math
    pub fn solve_lower_into(&self, b: &[f64], y: &mut Vec<f64>) {
        assert_eq!(b.len(), self.n);
        y.clear();
        y.resize(self.n, 0.0);
        for i in 0..self.n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l[i * self.n + k] * y[k];
            }
            y[i] = sum * self.inv_diag[i];
        }
    }

    /// Squared Mahalanobis distance of `x` from `mean`, fusing the offset
    /// into the forward substitution: no `diff` vector, no allocation
    /// beyond the caller's scratch. The floating-point operation order is
    /// exactly that of `mahalanobis_sq(&(x - mean))`, so results are
    /// bit-identical to the allocating path.
    #[inline]
    pub fn mahalanobis_sq_scratch(&self, x: &[f64], mean: &[f64], scratch: &mut Vec<f64>) -> f64 {
        assert_eq!(x.len(), self.n);
        assert_eq!(mean.len(), self.n);
        scratch.clear();
        let mut dist = 0.0;
        for i in 0..self.n {
            let mut sum = x[i] - mean[i];
            // Zip over the triangular row and the solved prefix — the
            // same left-to-right subtraction sequence as the indexed
            // loop, but with the bounds checks hoisted out.
            let row = &self.l[i * self.n..i * self.n + i];
            for (lik, yk) in row.iter().zip(scratch.iter()) {
                sum -= lik * yk;
            }
            let yi = sum * self.inv_diag[i];
            scratch.push(yi);
            dist += yi * yi;
        }
        dist
    }

    /// [`Cholesky::mahalanobis_sq_scratch`] over a caller-owned slice of
    /// exactly `n` elements. Taking a plain slice (instead of a `Vec`)
    /// lets callers evaluating several factors against the same point
    /// hand each factor a *disjoint* scratch region, so the CPU can
    /// overlap the otherwise latency-bound forward substitutions.
    /// Identical floating-point sequence; bit-identical results.
    #[inline(always)]
    pub fn mahalanobis_sq_slice(&self, x: &[f64], mean: &[f64], y: &mut [f64]) -> f64 {
        assert_eq!(x.len(), self.n);
        assert_eq!(mean.len(), self.n);
        assert_eq!(y.len(), self.n);
        let mut dist = 0.0;
        for i in 0..self.n {
            let mut sum = x[i] - mean[i];
            let row = &self.l[i * self.n..i * self.n + i];
            for (lik, yk) in row.iter().zip(y[..i].iter()) {
                sum -= lik * yk;
            }
            let yi = sum * self.inv_diag[i];
            y[i] = yi;
            dist += yi * yi;
        }
        dist
    }

    /// Squared Mahalanobis distances of a full lane-group of [`LANES`]
    /// points, fusing the mean offset into the batched forward
    /// substitution. `xt` and `y` are coordinate-major lane-groups
    /// (`scratch.for_order` layouts); returns one squared distance per
    /// lane. Per lane, the operation sequence — offset, ascending-`k`
    /// subtractions, reciprocal multiply, `dist += y_i²` in ascending
    /// `i` — is exactly that of [`Cholesky::mahalanobis_sq_slice`], so
    /// every lane is bit-identical to the scalar kernel.
    #[inline(always)]
    pub fn mahalanobis_sq_lanes(&self, xt: &[f64], mean: &[f64], y: &mut [f64]) -> [f64; LANES] {
        let n = self.n;
        assert_eq!(xt.len(), n * LANES);
        assert_eq!(mean.len(), n);
        assert_eq!(y.len(), n * LANES);
        let mut dist = [0.0f64; LANES];
        for i in 0..n {
            let mut sum = [0.0f64; LANES];
            let xi = &xt[i * LANES..(i + 1) * LANES];
            let mi = mean[i];
            for lane in 0..LANES {
                sum[lane] = xi[lane] - mi;
            }
            let row = &self.l[i * n..i * n + i];
            // `split_at_mut` + `chunks_exact` prove the lane-group
            // bounds once, keeping the recurrence free of per-step
            // bounds checks so it vectorizes cleanly.
            let (done, rest) = y.split_at_mut(i * LANES);
            for (yk, &lik) in done.chunks_exact(LANES).zip(row) {
                for lane in 0..LANES {
                    sum[lane] -= lik * yk[lane];
                }
            }
            let inv = self.inv_diag[i];
            for (lane, (yi, s)) in rest[..LANES].iter_mut().zip(sum).enumerate() {
                let v = s * inv;
                *yi = v;
                dist[lane] += v * v;
            }
        }
        dist
    }

    /// Squared Mahalanobis distances of a contiguous block of points
    /// (row-major, `n` values per point) to one `(mean, L)` geometry:
    /// full lane-groups of [`LANES`] points run the batched kernel, the
    /// ragged tail runs the scalar [`Cholesky::mahalanobis_sq_slice`]
    /// path point by point. Both produce the per-point scalar operation
    /// sequence, so `out` is bit-identical to a plain per-point loop for
    /// every block length (including blocks shorter than one lane-group).
    /// Runs the AVX2 tier when the CPU has it ([`crate::isa`]).
    pub fn mahalanobis_sq_block(
        &self,
        block: &[f64],
        mean: &[f64],
        scratch: &mut LaneScratch,
        out: &mut Vec<f64>,
    ) {
        if isa::avx2() {
            // SAFETY: the guard checked that this CPU has AVX2.
            unsafe { self.mahalanobis_sq_block_avx2(block, mean, scratch, out) }
        } else {
            self.mahalanobis_sq_block_impl(block, mean, scratch, out)
        }
    }

    /// [`Cholesky::mahalanobis_sq_block`] compiled for AVX2.
    ///
    /// # Safety
    /// The CPU must support AVX2 (`isa::avx2()`).
    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
    unsafe fn mahalanobis_sq_block_avx2(
        &self,
        block: &[f64],
        mean: &[f64],
        scratch: &mut LaneScratch,
        out: &mut Vec<f64>,
    ) {
        self.mahalanobis_sq_block_impl(block, mean, scratch, out)
    }

    #[inline(always)]
    fn mahalanobis_sq_block_impl(
        &self,
        block: &[f64],
        mean: &[f64],
        scratch: &mut LaneScratch,
        out: &mut Vec<f64>,
    ) {
        let n = self.n;
        assert_eq!(mean.len(), n);
        let npts = block.len().checked_div(n).unwrap_or(0);
        assert_eq!(block.len(), npts * n, "block is not whole points");
        out.clear();
        if n == 0 {
            out.resize(npts, 0.0);
            return;
        }
        let (xt, y) = scratch.for_order(n);
        let full = npts / LANES * LANES;
        for group in block[..full * n].chunks_exact(n * LANES) {
            transpose_lane_group(group, n, xt);
            out.extend(self.mahalanobis_sq_lanes(xt, mean, y));
        }
        for point in block[full * n..].chunks_exact(n) {
            out.push(self.mahalanobis_sq_slice(point, mean, &mut y[..n]));
        }
    }

    /// `ln det A = 2 Σ ln L_ii` — needed by the Gaussian log-density in EM.
    pub fn log_det(&self) -> f64 {
        // audit: order-exact — ascending-diagonal sum, the same order
        // every caller (serial or lane-batched) observes.
        (0..self.n)
            .map(|i| self.l[i * self.n + i].ln())
            .sum::<f64>()
            * 2.0
    }

    /// Explicit inverse of the factorized matrix (rarely needed; prefer
    /// [`Cholesky::solve`]).
    pub fn inverse(&self) -> Matrix {
        let mut inv = Matrix::zeros(self.n, self.n);
        let mut e = vec![0.0; self.n];
        for j in 0..self.n {
            e[j] = 1.0;
            let col = self.solve(&e);
            for i in 0..self.n {
                inv[(i, j)] = col[i];
            }
            e[j] = 0.0;
        }
        inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 3.0, 0.4], &[0.6, 0.4, 2.0]])
    }

    #[test]
    fn factorization_reconstructs_matrix() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        // Reconstruct L L^T and compare.
        let n = c.order();
        for i in 0..n {
            for j in 0..n {
                let mut v = 0.0;
                for k in 0..n {
                    v += c.l[i * n + k] * c.l[j * n + k];
                }
                assert!((v - a[(i, j)]).abs() < 1e-12, "entry ({i},{j})");
            }
        }
    }

    #[test]
    fn solve_matches_direct_inverse() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let b = [1.0, -2.0, 0.5];
        let x = c.solve(&b);
        let back = a.mul_vec(&x);
        for (u, v) in back.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn log_det_matches_determinant() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        assert!((c.log_det() - a.determinant().ln()).abs() < 1e-10);
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(Cholesky::new(&a).is_none());
    }

    #[test]
    fn regularized_handles_singular() {
        // Rank-1 covariance: classic degenerate cluster.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let c = Cholesky::new_regularized(&a).expect("regularization should succeed");
        // Mahalanobis along the null direction must be finite and large-ish.
        let d = c.mahalanobis_sq(&[1.0, -1.0]);
        assert!(d.is_finite());
        assert!(d > 0.0);
    }

    #[test]
    fn inverse_agrees_with_gauss_jordan() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let inv1 = c.inverse();
        let inv2 = a.inverse().unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((inv1[(i, j)] - inv2[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn mahalanobis_of_zero_vector_is_zero() {
        let c = Cholesky::new(&spd3()).unwrap();
        assert_eq!(c.mahalanobis_sq(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn solve_lower_into_matches_allocating_solve() {
        let c = Cholesky::new(&spd3()).unwrap();
        let b = [0.3, -1.7, 2.9];
        let mut y = Vec::new();
        c.solve_lower_into(&b, &mut y);
        assert_eq!(y, c.solve_lower(&b));
        // The buffer is reusable across calls of different sizes.
        c.solve_lower_into(&b, &mut y);
        assert_eq!(y, c.solve_lower(&b));
    }

    #[test]
    fn fused_mahalanobis_is_bit_identical() {
        let c = Cholesky::new(&spd3()).unwrap();
        let x = [0.9, -0.4, 1.3];
        let mean = [0.1, 0.2, -0.5];
        let diff: Vec<f64> = x.iter().zip(&mean).map(|(a, b)| a - b).collect();
        let mut scratch = Vec::new();
        let fused = c.mahalanobis_sq_scratch(&x, &mean, &mut scratch);
        assert_eq!(fused.to_bits(), c.mahalanobis_sq(&diff).to_bits());
    }

    /// Deterministic value stream for the lane tests (xorshift64*).
    fn stream(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed.wrapping_mul(2685821657736338717).max(1);
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A well-conditioned SPD matrix of order `n` with off-diagonal mass.
    fn spd(n: usize, seed: u64) -> Matrix {
        let mut next = stream(seed);
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = (next() - 0.5) * 0.2;
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
            a[(i, i)] = 1.0 + next();
        }
        a
    }

    #[test]
    fn lane_mahalanobis_is_bit_identical_to_scalar() {
        for n in [1usize, 2, 4, 10, 25] {
            let c = Cholesky::new(&spd(n, 31 + n as u64)).unwrap();
            let mut next = stream(n as u64 + 11);
            let mean: Vec<f64> = (0..n).map(|_| next()).collect();
            let group: Vec<f64> = (0..n * LANES).map(|_| next() * 3.0).collect();
            let mut scratch = LaneScratch::new();
            let (xt, y) = scratch.for_order(n);
            transpose_lane_group(&group, n, xt);
            let dists = c.mahalanobis_sq_lanes(xt, &mean, y);
            let mut ys = vec![0.0; n];
            for (lane, point) in group.chunks_exact(n).enumerate() {
                let scalar = c.mahalanobis_sq_slice(point, &mean, &mut ys);
                assert_eq!(
                    dists[lane].to_bits(),
                    scalar.to_bits(),
                    "n={n}, lane={lane}"
                );
            }
        }
    }

    #[test]
    fn block_mahalanobis_handles_tails_bit_identically() {
        let n = 6;
        let c = Cholesky::new(&spd(n, 5)).unwrap();
        let mut next = stream(77);
        let mean: Vec<f64> = (0..n).map(|_| next()).collect();
        let mut scratch = LaneScratch::new();
        let mut out = Vec::new();
        // Below one lane-group, exactly one, ragged multi-group.
        for npts in [0usize, 1, 3, 7, 8, 9, 16, 23] {
            let block: Vec<f64> = (0..npts * n).map(|_| next() * 2.0).collect();
            c.mahalanobis_sq_block(&block, &mean, &mut scratch, &mut out);
            assert_eq!(out.len(), npts);
            let mut ys = vec![0.0; n];
            for (p, point) in block.chunks_exact(n).enumerate() {
                let scalar = c.mahalanobis_sq_slice(point, &mean, &mut ys);
                assert_eq!(out[p].to_bits(), scalar.to_bits(), "npts={npts}, p={p}");
            }
        }
    }
}
