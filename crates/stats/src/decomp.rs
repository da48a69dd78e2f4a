//! Matrix decompositions: Householder QR and Cholesky, plus the
//! least-squares and linear solves built on them.
//!
//! QR is the workhorse for the regression models in TRACON — it is
//! numerically stabler than forming normal equations, which matters because
//! the quadratic basis used by the nonlinear interference model produces
//! highly correlated columns. It is built one column at a time
//! (`Qr::push`), and [`Qr::new`] is that routine over a whole matrix, so
//! the stepwise search can extend one factorization by each candidate
//! column and get the bits a fresh factorization would.

use crate::matrix::Matrix;

/// Error type for decomposition failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompError {
    /// The matrix (or its implied system) is singular / rank deficient
    /// beyond what the solver tolerates.
    Singular,
    /// The matrix is not positive definite (Cholesky only).
    NotPositiveDefinite,
    /// Shape requirements were violated (e.g. more columns than rows in a
    /// least-squares problem).
    BadShape(String),
}

impl std::fmt::Display for DecompError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompError::Singular => write!(f, "matrix is singular or rank deficient"),
            DecompError::NotPositiveDefinite => write!(f, "matrix is not positive definite"),
            DecompError::BadShape(s) => write!(f, "bad shape: {s}"),
        }
    }
}

impl std::error::Error for DecompError {}

/// Householder QR decomposition of an `m x n` matrix with `m >= n`, built
/// one column at a time.
///
/// Column `k` is stored column-major: `R` on and above the diagonal, the
/// reflector's `v_i / v0` below it (so `v = [1, …]` when `Q^T` is applied to
/// a right-hand side). Each reflector is also kept as built — raw `v0`
/// and sub-diagonal entries, unscaled `beta = 2 / v^T v` — because that is
/// the form in which the right-looking algorithm applies it to the columns
/// after it. `Qr::push` repeats that arithmetic exactly, so a
/// factorization extended column by column (or truncated and extended
/// again) holds the same bits as one computed from the whole matrix: the
/// stepwise search factors its current model once and extends it by each
/// candidate column.
pub struct Qr {
    m: usize,
    /// The stored factorization, `m` entries per column.
    qr: Vec<f64>,
    /// Each reflector as built: `v0` on the diagonal, the raw `a_ik` below.
    raw: Vec<f64>,
    /// Per column: the unscaled `beta` when a reflector was built (`None`
    /// for a zero or underflowing column, which leaves later columns be).
    raw_betas: Vec<Option<f64>>,
    /// Per column: `beta * v0^2`, the scale of the normalised reflector
    /// (0 when none is applied to a right-hand side).
    betas: Vec<f64>,
    /// Per column: the largest `|entry|` stored in it or any column before.
    max_abs: Vec<f64>,
}

impl Qr {
    /// Computes the QR decomposition of `a`.
    ///
    /// # Errors
    /// Returns [`DecompError::BadShape`] when `a` has more columns than rows.
    pub fn new(a: &Matrix) -> Result<Self, DecompError> {
        let (m, n) = a.shape();
        if m < n {
            return Err(DecompError::BadShape(format!(
                "QR requires rows >= cols, got {m}x{n}"
            )));
        }
        let mut qr = Qr::empty(m, n);
        for j in 0..n {
            qr.push((0..m).map(|i| a[(i, j)]));
        }
        Ok(qr)
    }

    /// The factorization of an `m x 0` matrix, with room for `cols` columns.
    pub(crate) fn empty(m: usize, cols: usize) -> Self {
        Qr {
            m,
            qr: Vec::with_capacity(m * cols),
            raw: Vec::with_capacity(m * cols),
            raw_betas: Vec::with_capacity(cols),
            betas: Vec::with_capacity(cols),
            max_abs: Vec::with_capacity(cols),
        }
    }

    /// Number of factored columns.
    pub(crate) fn cols(&self) -> usize {
        self.betas.len()
    }

    /// Drops every column from `cols` on; the first `cols` are untouched.
    pub(crate) fn truncate(&mut self, cols: usize) {
        self.qr.truncate(cols * self.m);
        self.raw.truncate(cols * self.m);
        self.raw_betas.truncate(cols);
        self.betas.truncate(cols);
        self.max_abs.truncate(cols);
    }

    /// Makes `self` the first `cols` columns of `src`'s factorization.
    pub(crate) fn copy_prefix(&mut self, src: &Qr, cols: usize) {
        assert!(cols <= src.cols(), "prefix longer than the factorization");
        let len = cols * src.m;
        self.m = src.m;
        self.qr.clear();
        self.qr.extend_from_slice(&src.qr[..len]);
        self.raw.clear();
        self.raw.extend_from_slice(&src.raw[..len]);
        self.raw_betas.clear();
        self.raw_betas.extend_from_slice(&src.raw_betas[..cols]);
        self.betas.clear();
        self.betas.extend_from_slice(&src.betas[..cols]);
        self.max_abs.clear();
        self.max_abs.extend_from_slice(&src.max_abs[..cols]);
    }

    /// Appends column `col` (its `m` entries, top to bottom): applies every
    /// earlier reflector to it, then builds its own.
    ///
    /// # Panics
    /// Panics when the factorization already has `m` columns or `col` does
    /// not have `m` entries.
    pub(crate) fn push(&mut self, col: impl IntoIterator<Item = f64>) {
        let (m, k) = (self.m, self.cols());
        assert!(k < m, "QR requires rows >= cols");
        self.qr.extend(col);
        assert_eq!(self.qr.len(), (k + 1) * m, "column length mismatch");
        let c = &mut self.qr[k * m..];
        // Earlier reflectors, in order, as built.
        for (r, beta) in self.raw_betas.iter().enumerate() {
            let Some(beta) = *beta else { continue };
            let (v0, v) = (self.raw[r * m + r], &self.raw[r * m + r + 1..(r + 1) * m]);
            let (head, tail) = c[r..].split_first_mut().expect("r < m");
            let mut s = v0 * *head;
            for (vi, ci) in v.iter().zip(tail.iter()) {
                s += vi * ci;
            }
            s *= beta;
            *head -= s * v0;
            for (vi, ci) in v.iter().zip(tail.iter_mut()) {
                *ci -= s * vi;
            }
        }
        // This column's reflector, from the entries on and below row k.
        self.raw.extend_from_slice(c);
        let mut norm = 0.0f64;
        for &x in &c[k..] {
            norm = norm.hypot(x);
        }
        let (mut raw_beta, mut beta) = (None, 0.0);
        if norm != 0.0 {
            let alpha = if c[k] > 0.0 { -norm } else { norm };
            let v0 = c[k] - alpha;
            let mut vtv = v0 * v0;
            for &x in &c[k + 1..] {
                vtv += x * x;
            }
            c[k] = alpha;
            if vtv != 0.0 {
                let b = 2.0 / vtv;
                raw_beta = Some(b);
                beta = b;
                self.raw[k * m + k] = v0;
                // Store v_i / v0 below the diagonal and fold v0^2 into beta,
                // so `Q^T b` applies v = [1, v_i / v0].
                if v0 != 0.0 {
                    for x in &mut c[k + 1..] {
                        *x /= v0;
                    }
                    beta = b * v0 * v0;
                }
            }
        }
        let prev = self.max_abs.last().copied().unwrap_or(0.0);
        self.max_abs
            .push(c.iter().fold(prev, |acc, v| acc.max(v.abs())));
        self.raw_betas.push(raw_beta);
        self.betas.push(beta);
    }

    /// Applies `Q^T` to a vector `b` in place (length `m`).
    fn apply_qt(&self, b: &mut [f64]) {
        let m = self.m;
        assert_eq!(b.len(), m);
        for (k, &beta) in self.betas.iter().enumerate() {
            if beta == 0.0 {
                continue;
            }
            // v = [1, qr[k+1..m, k]]
            let v = &self.qr[k * m + k + 1..(k + 1) * m];
            let (head, tail) = b[k..].split_first_mut().expect("k < m");
            let mut s = *head;
            for (vi, bi) in v.iter().zip(tail.iter()) {
                s += vi * bi;
            }
            s *= beta;
            *head -= s;
            for (vi, bi) in v.iter().zip(tail.iter_mut()) {
                *bi -= s * vi;
            }
        }
    }

    /// Solves the least-squares problem `min ||a x - b||` using the stored
    /// factorization.
    ///
    /// # Errors
    /// Returns [`DecompError::Singular`] when `R` has a near-zero diagonal.
    #[allow(clippy::needless_range_loop)] // substitution reads clearer indexed
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, DecompError> {
        let (m, n) = (self.m, self.cols());
        assert_eq!(b.len(), m, "rhs length mismatch");
        let mut qtb = b.to_vec();
        self.apply_qt(&mut qtb);
        // Back substitution on R.
        let tol = 1e-12 * (1.0 + self.max_abs.last().copied().unwrap_or(0.0));
        let mut x = vec![0.0; n];
        for k in (0..n).rev() {
            let d = self.qr[k * m + k];
            if d.abs() < tol {
                return Err(DecompError::Singular);
            }
            let mut s = qtb[k];
            for j in (k + 1)..n {
                s -= self.qr[j * m + k] * x[j];
            }
            x[k] = s / d;
        }
        Ok(x)
    }

    /// Returns the upper-triangular factor `R` (n x n).
    pub fn r(&self) -> Matrix {
        let (m, n) = (self.m, self.cols());
        let mut r = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                r[(i, j)] = self.qr[j * m + i];
            }
        }
        r
    }
}

/// Cholesky decomposition of a symmetric positive-definite matrix.
pub struct Cholesky {
    /// Lower-triangular factor `L` with `A = L L^T`.
    l: Matrix,
}

impl Cholesky {
    /// Computes the Cholesky factor of symmetric positive-definite `a`.
    ///
    /// # Errors
    /// Returns [`DecompError::NotPositiveDefinite`] when a non-positive pivot
    /// is encountered.
    pub fn new(a: &Matrix) -> Result<Self, DecompError> {
        let (m, n) = a.shape();
        if m != n {
            return Err(DecompError::BadShape(format!(
                "Cholesky requires square, got {m}x{n}"
            )));
        }
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 0.0 {
                        return Err(DecompError::NotPositiveDefinite);
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Solves `A x = b` via forward/back substitution.
    #[allow(clippy::needless_range_loop)] // substitution reads clearer indexed
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.rows();
        assert_eq!(b.len(), n);
        // Forward: L y = b
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= self.l[(i, k)] * y[k];
            }
            y[i] = s / self.l[(i, i)];
        }
        // Back: L^T x = y
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in (i + 1)..n {
                s -= self.l[(k, i)] * x[k];
            }
            x[i] = s / self.l[(i, i)];
        }
        x
    }

    /// Returns the lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }
}

/// Convenience: least-squares solve `min ||a x - b||` via Householder QR,
/// falling back to ridge-regularized normal equations when `a` is rank
/// deficient (the stepwise search can propose collinear candidate bases).
pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, DecompError> {
    match Qr::new(a).and_then(|qr| qr.solve(b)) {
        Ok(x) => Ok(x),
        Err(DecompError::Singular) => {
            // Tikhonov fallback: (A^T A + eps I) x = A^T b.
            let mut g = a.gram();
            let eps = 1e-8 * (1.0 + g.max_abs());
            for i in 0..g.rows() {
                g[(i, i)] += eps;
            }
            let atb = a.t_matvec(b);
            let chol = Cholesky::new(&g).map_err(|_| DecompError::Singular)?;
            Ok(chol.solve(&atb))
        }
        Err(e) => Err(e),
    }
}

/// Solves the square system `a x = b` via QR (works for any nonsingular `a`).
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, DecompError> {
    let (m, n) = a.shape();
    if m != n {
        return Err(DecompError::BadShape(format!(
            "solve requires square, got {m}x{n}"
        )));
    }
    Qr::new(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::dot;

    fn residual_norm(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.matvec(x);
        ax.iter()
            .zip(b)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt()
    }

    /// The right-looking Householder QR the column routine replaced: each
    /// reflector is applied to every later column as soon as it is built.
    /// Returns the stored row-major factorization and its solve.
    fn reference_qr(a: &Matrix, b: &[f64]) -> (Matrix, Result<Vec<f64>, DecompError>) {
        let (m, n) = a.shape();
        let mut qr = a.clone();
        let mut betas = vec![0.0; n];
        for k in 0..n {
            let mut norm = 0.0f64;
            for i in k..m {
                norm = norm.hypot(qr[(i, k)]);
            }
            if norm == 0.0 {
                betas[k] = 0.0;
                continue;
            }
            let alpha = if qr[(k, k)] > 0.0 { -norm } else { norm };
            let v0 = qr[(k, k)] - alpha;
            let mut vtv = v0 * v0;
            for i in (k + 1)..m {
                vtv += qr[(i, k)] * qr[(i, k)];
            }
            if vtv == 0.0 {
                betas[k] = 0.0;
                qr[(k, k)] = alpha;
                continue;
            }
            let beta = 2.0 / vtv;
            betas[k] = beta;
            for j in (k + 1)..n {
                let mut s = v0 * qr[(k, j)];
                for i in (k + 1)..m {
                    s += qr[(i, k)] * qr[(i, j)];
                }
                s *= beta;
                qr[(k, j)] -= s * v0;
                for i in (k + 1)..m {
                    let vik = qr[(i, k)];
                    qr[(i, j)] -= s * vik;
                }
            }
            qr[(k, k)] = alpha;
            if v0 != 0.0 {
                for i in (k + 1)..m {
                    qr[(i, k)] /= v0;
                }
                betas[k] = beta * v0 * v0;
            }
        }
        let mut qtb = b.to_vec();
        for k in 0..n {
            let beta = betas[k];
            if beta == 0.0 {
                continue;
            }
            let mut s = qtb[k];
            for i in (k + 1)..m {
                s += qr[(i, k)] * qtb[i];
            }
            s *= beta;
            qtb[k] -= s;
            for i in (k + 1)..m {
                qtb[i] -= s * qr[(i, k)];
            }
        }
        let mut x = vec![0.0; n];
        for k in (0..n).rev() {
            let d = qr[(k, k)];
            if d.abs() < 1e-12 * (1.0 + qr.max_abs()) {
                return (qr, Err(DecompError::Singular));
            }
            let mut s = qtb[k];
            for j in (k + 1)..n {
                s -= qr[(k, j)] * x[j];
            }
            x[k] = s / d;
        }
        (qr, Ok(x))
    }

    /// A random `m x n` test matrix at a random scale whose columns are
    /// drawn, zero, constant, exact copies or doubles of an earlier column,
    /// or an earlier column plus noise at a log-uniform 1e-15..1e-3 scale.
    fn awkward_matrix(rng: &mut crate::prng::ChaCha12, m: usize, n: usize) -> Matrix {
        let scale = 10f64.powf(rng.range_f64(-6.0, 3.0));
        let mut a = Matrix::zeros(m, n);
        for j in 0..n {
            let kind = if j == 0 { 0 } else { rng.range_usize(0, 7) };
            let src = if j == 0 { 0 } else { rng.range_usize(0, j) };
            let delta = 10f64.powf(rng.range_f64(-15.0, -3.0));
            let level = rng.range_f64(-2.0, 2.0) * scale;
            for i in 0..m {
                a[(i, j)] = match kind {
                    0 | 1 => rng.range_f64(-1.0, 1.0) * scale,
                    2 => 0.0,
                    3 => level,
                    4 => a[(i, src)],
                    5 => 2.0 * a[(i, src)],
                    _ => a[(i, src)] + delta * scale * rng.range_f64(-1.0, 1.0),
                };
            }
        }
        a
    }

    /// A small-scale matrix whose first column is a spike in the last row
    /// (so one stored reflector entry is exactly -1 while every entry of
    /// `R` stays below 1) and whose other columns are drawn or nearly copy
    /// an earlier one, putting some diagonals of `R` between the singular
    /// threshold over all stored entries and the one over `R` alone.
    fn threshold_matrix(rng: &mut crate::prng::ChaCha12, m: usize, n: usize) -> Matrix {
        let scale = 10f64.powf(rng.range_f64(-4.0, -1.5));
        let mut a = Matrix::zeros(m, n);
        a[(m - 1, 0)] = scale;
        for j in 1..n {
            let src = rng.range_usize(0, j);
            let near = rng.range_usize(0, 3) == 0;
            let eps = 10f64.powf(rng.range_f64(-13.5, -12.0));
            for i in 0..m {
                a[(i, j)] = if near {
                    a[(i, src)] + eps * rng.range_f64(-1.0, 1.0)
                } else {
                    rng.range_f64(-1.0, 1.0) * scale
                };
            }
        }
        a
    }

    fn assert_same_factorization(qr: &Qr, reference: &Matrix, what: &str) {
        let (m, n) = reference.shape();
        assert_eq!(qr.cols(), n, "{what}: column count");
        for j in 0..n {
            for i in 0..m {
                assert_eq!(
                    qr.qr[j * m + i].to_bits(),
                    reference[(i, j)].to_bits(),
                    "{what}: stored entry ({i}, {j})"
                );
            }
        }
        let r = qr.r();
        for i in 0..n {
            for j in i..n {
                assert_eq!(r[(i, j)].to_bits(), reference[(i, j)].to_bits());
            }
        }
    }

    fn assert_same_solve(
        got: Result<Vec<f64>, DecompError>,
        want: &Result<Vec<f64>, DecompError>,
        what: &str,
    ) {
        match (got, want) {
            (Ok(x), Ok(y)) => {
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&x), bits(y), "{what}: solution");
            }
            (got, want) => assert_eq!(&got, want, "{what}: verdict"),
        }
    }

    #[test]
    fn pushed_columns_match_the_right_looking_qr_bit_for_bit() {
        let mut singular = 0;
        crate::prng::check_cases(0..400, |rng| {
            let m = rng.range_usize(20, 251);
            let n = rng.range_usize(1, 26.min(m + 1));
            let a = if rng.range_usize(0, 2) == 0 {
                awkward_matrix(rng, m, n)
            } else {
                threshold_matrix(rng, m, n)
            };
            let b: Vec<f64> = (0..m).map(|_| rng.range_f64(-5.0, 5.0)).collect();
            let (reference, want) = reference_qr(&a, &b);
            singular += usize::from(want.is_err());

            let qr = Qr::new(&a).unwrap();
            assert_same_factorization(&qr, &reference, "Qr::new");
            assert_same_solve(qr.solve(&b), &want, "Qr::new");

            // Truncate a factorization of other columns back to a shared
            // prefix, then push the rest: the same bits as a fresh one.
            let keep = rng.range_usize(0, n + 1);
            let other = awkward_matrix(rng, m, n);
            let mut grown = Qr::empty(m, n);
            for j in 0..n {
                let src = if j < keep { &a } else { &other };
                grown.push((0..m).map(|i| src[(i, j)]));
            }
            grown.truncate(keep);
            let mut copy = Qr::empty(m, 0);
            copy.copy_prefix(&grown, keep);
            for j in keep..n {
                copy.push((0..m).map(|i| a[(i, j)]));
            }
            assert_same_factorization(&copy, &reference, "truncated and regrown");
            assert_same_solve(copy.solve(&b), &want, "truncated and regrown");
        });
        assert!(singular > 40, "only {singular} singular cases");
    }

    #[test]
    fn qr_reconstructs_r_norm() {
        let a = Matrix::from_rows(&[vec![2.0, -1.0], vec![1.0, 3.0], vec![0.0, 1.0]]);
        let qr = Qr::new(&a).unwrap();
        let r = qr.r();
        // ||R||_F == ||A||_F since Q is orthogonal.
        assert!((r.frobenius_norm() - a.frobenius_norm()).abs() < 1e-10);
    }

    #[test]
    fn qr_solves_square_system() {
        let a = Matrix::from_rows(&[vec![3.0, 1.0], vec![1.0, 2.0]]);
        let b = [9.0, 8.0];
        let x = solve(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn qr_least_squares_matches_known_fit() {
        // Fit y = 1 + 2x on noiseless data: exact recovery expected.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![1.0, x]).collect();
        let a = Matrix::from_rows(&rows);
        let b: Vec<f64> = xs.iter().map(|&x| 1.0 + 2.0 * x).collect();
        let x = lstsq(&a, &b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn lstsq_residual_is_orthogonal_to_columns() {
        let a = Matrix::from_rows(&[
            vec![1.0, 0.5],
            vec![1.0, 1.5],
            vec![1.0, 2.5],
            vec![1.0, 4.0],
        ]);
        let b = [1.0, 2.0, 2.0, 5.0];
        let x = lstsq(&a, &b).unwrap();
        let ax = a.matvec(&x);
        let resid: Vec<f64> = b.iter().zip(&ax).map(|(p, q)| p - q).collect();
        for c in 0..a.cols() {
            let col = a.col(c);
            assert!(dot(&col, &resid).abs() < 1e-9, "residual not orthogonal");
        }
    }

    #[test]
    fn lstsq_handles_collinear_columns_via_ridge() {
        // Second and third columns identical: rank deficient.
        let a = Matrix::from_rows(&[
            vec![1.0, 2.0, 2.0],
            vec![1.0, 3.0, 3.0],
            vec![1.0, 5.0, 5.0],
            vec![1.0, 7.0, 7.0],
        ]);
        let b = [5.0, 7.0, 11.0, 15.0]; // y = 1 + 2*(col2)
        let x = lstsq(&a, &b).unwrap();
        // Prediction should still be accurate even if coefficients split.
        assert!(residual_norm(&a, &x, &b) < 1e-3);
    }

    #[test]
    fn qr_rejects_wide_matrix() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(Qr::new(&a), Err(DecompError::BadShape(_))));
    }

    #[test]
    fn cholesky_solves_spd_system() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let b = [10.0, 8.0];
        let ch = Cholesky::new(&a).unwrap();
        let x = ch.solve(&b);
        // Verify A x = b
        let ax = a.matvec(&x);
        assert!((ax[0] - b[0]).abs() < 1e-10);
        assert!((ax[1] - b[1]).abs() < 1e-10);
    }

    #[test]
    fn cholesky_factor_reconstructs() {
        let a = Matrix::from_rows(&[
            vec![25.0, 15.0, -5.0],
            vec![15.0, 18.0, 0.0],
            vec![-5.0, 0.0, 11.0],
        ]);
        let ch = Cholesky::new(&a).unwrap();
        let l = ch.l();
        let llt = l.matmul(&l.transpose());
        assert!(llt.approx_eq(&a, 1e-9));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::new(&a),
            Err(DecompError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn solve_detects_singular() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(matches!(solve(&a, &[1.0, 2.0]), Err(DecompError::Singular)));
    }
}
