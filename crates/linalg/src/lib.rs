//! Small dense linear algebra for the P3C+-MR reproduction.
//!
//! The algorithms in this workspace operate on clusters living in projected
//! subspaces of at most a few dozen dimensions, so all matrices here are
//! small, dense and row-major. The crate provides exactly the machinery the
//! paper's pipeline needs:
//!
//! * [`Matrix`] — a row-major `f64` matrix with the usual arithmetic,
//!   Gauss–Jordan inversion and determinants,
//! * [`Cholesky`] — a Cholesky factorization used for Mahalanobis distances
//!   and log-determinants of covariance matrices,
//! * [`CovarianceAccumulator`] — the weighted mean/covariance summation
//!   form used by the paper's EM and outlier-detection MapReduce jobs
//!   (Section 5.4: the `l_C`, `w_C`, `w_C2` statistics),
//! * [`mahalanobis_sq`] — the squared Mahalanobis distance that the outlier
//!   detection step compares against a chi-square critical value,
//! * [`isa`] — the run-time guard of the kernels' AVX2 tier.

pub mod cholesky;
pub mod covariance;
pub mod isa;
pub mod matrix;
pub mod vector;

pub use cholesky::{Cholesky, LaneScratch, LANES};
pub use covariance::CovarianceAccumulator;
pub use matrix::Matrix;
pub use vector::{add, dist, dist_sq, dot, norm, scale, sub};

/// Squared Mahalanobis distance of `x` from `mean` under covariance `cov`.
///
/// Computed through a Cholesky factorization of a (ridge-regularized if
/// needed) covariance matrix; returns `None` only if the covariance cannot
/// be made positive definite even after regularization, which for the
/// clusters produced by this workspace indicates a degenerate (empty or
/// single-point) cluster.
///
/// ```
/// use p3c_linalg::{mahalanobis_sq, Matrix};
///
/// let cov = Matrix::identity(2);
/// let d2 = mahalanobis_sq(&[3.0, 4.0], &[0.0, 0.0], &cov).unwrap();
/// assert!((d2 - 25.0).abs() < 1e-12); // Euclidean under identity covariance
/// ```
pub fn mahalanobis_sq(x: &[f64], mean: &[f64], cov: &Matrix) -> Option<f64> {
    assert_eq!(x.len(), mean.len(), "point/mean dimensionality mismatch");
    assert_eq!(cov.rows(), x.len(), "covariance dimensionality mismatch");
    let chol = Cholesky::new_regularized(cov)?;
    let diff: Vec<f64> = x.iter().zip(mean).map(|(a, b)| a - b).collect();
    Some(chol.mahalanobis_sq(&diff))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mahalanobis_identity_covariance_is_euclidean() {
        let cov = Matrix::identity(3);
        let x = [1.0, 2.0, 3.0];
        let mean = [0.0, 0.0, 1.0];
        let d2 = mahalanobis_sq(&x, &mean, &cov).unwrap();
        assert!((d2 - (1.0 + 4.0 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn mahalanobis_scales_with_variance() {
        let mut cov = Matrix::identity(2);
        cov[(0, 0)] = 4.0; // std 2 in dim 0
        let d2 = mahalanobis_sq(&[2.0, 0.0], &[0.0, 0.0], &cov).unwrap();
        assert!((d2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mahalanobis_zero_at_mean() {
        let cov = Matrix::identity(4);
        let p = [0.3, 0.5, 0.1, 0.9];
        let d2 = mahalanobis_sq(&p, &p, &cov).unwrap();
        assert!(d2.abs() < 1e-15);
    }
}
