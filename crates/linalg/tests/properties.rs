//! Property-based tests for the linear algebra kernel.

use p3c_check::{cases, Gen};
use p3c_linalg::{mahalanobis_sq, Cholesky, CovarianceAccumulator, Matrix};

/// `len` values drawn from `range`.
fn values(g: &mut Gen, len: usize, range: std::ops::Range<f64>) -> Vec<f64> {
    (0..len).map(|_| g.range(range.clone())).collect()
}

/// A random SPD matrix as A = B Bᵀ + εI, B's entries in `[-2, 2)`.
fn spd_matrix(g: &mut Gen, n: usize) -> Matrix {
    let b = Matrix::from_vec(n, n, values(g, n * n, -2.0..2.0));
    let mut a = &b * &b.transpose();
    a.add_ridge(0.1);
    a
}

#[test]
fn mahalanobis_is_nonnegative() {
    cases(256, |g| {
        let a = spd_matrix(g, 3);
        let x = values(g, 3, -5.0..5.0);
        let m = values(g, 3, -5.0..5.0);
        let d = mahalanobis_sq(&x, &m, &a).unwrap();
        assert!(d >= 0.0);
    });
}

#[test]
fn mahalanobis_zero_iff_at_mean() {
    cases(256, |g| {
        let a = spd_matrix(g, 3);
        let m = values(g, 3, -5.0..5.0);
        let d = mahalanobis_sq(&m, &m, &a).unwrap();
        assert!(d.abs() < 1e-9);
    });
}

#[test]
fn cholesky_solve_inverts_matvec() {
    cases(256, |g| {
        let a = spd_matrix(g, 4);
        let x = values(g, 4, -3.0..3.0);
        let b = a.mul_vec(&x);
        let c = Cholesky::new(&a).unwrap();
        let x2 = c.solve(&b);
        for (u, v) in x.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-6, "{u} vs {v}");
        }
    });
}

#[test]
fn inverse_roundtrip() {
    cases(256, |g| {
        let a = spd_matrix(g, 3);
        let inv = a.inverse().unwrap();
        let prod = &a * &inv;
        let id = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert!((prod[(i, j)] - id[(i, j)]).abs() < 1e-6);
            }
        }
    });
}

#[test]
fn covariance_accumulator_merge_associative() {
    cases(256, |g| {
        let pts = g.vec(4..40, |g| values(g, 2, -1.0..1.0));
        let at_ = g.range(1usize..3);
        let cut = (pts.len() * at_) / 3;
        let mut whole = CovarianceAccumulator::new(2);
        for p in &pts {
            whole.push(p, 1.0);
        }
        let mut left = CovarianceAccumulator::new(2);
        let mut right = CovarianceAccumulator::new(2);
        for (i, p) in pts.iter().enumerate() {
            if i < cut {
                left.push(p, 1.0)
            } else {
                right.push(p, 1.0)
            }
        }
        left.merge(&right);
        let mw = whole.mean().unwrap();
        let ml = left.mean().unwrap();
        for (u, v) in mw.iter().zip(&ml) {
            assert!((u - v).abs() < 1e-9);
        }
    });
}

#[test]
fn covariance_is_psd() {
    cases(256, |g| {
        let pts = g.vec(4..50, |g| values(g, 3, -1.0..1.0));
        let mut acc = CovarianceAccumulator::new(3);
        for p in &pts {
            acc.push(p, 1.0);
        }
        if let Some(c) = acc.covariance() {
            assert!(c.is_symmetric(1e-9));
            assert!(Cholesky::new_regularized(&c).is_some());
        }
    });
}

#[test]
fn determinant_of_product_is_product_of_determinants() {
    cases(256, |g| {
        let a = spd_matrix(g, 3);
        let b = spd_matrix(g, 3);
        let ab = &a * &b;
        let lhs = ab.determinant();
        let rhs = a.determinant() * b.determinant();
        let scale = lhs.abs().max(rhs.abs()).max(1.0);
        assert!((lhs - rhs).abs() / scale < 1e-6);
    });
}
