//! Numeric kernel: complex arithmetic and dense LU factorization.
//!
//! Circuit matrices at the primitive level are tiny (tens of unknowns), so a
//! dense LU with partial pivoting is both exact enough and faster than any
//! sparse machinery would be at this size.

use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number over `f64`, used by AC (small-signal) analysis.
///
/// A purpose-built type (rather than an external dependency) keeps the
/// workspace self-contained; only the operations MNA needs are provided.
///
/// # Example
///
/// ```
/// use prima_spice::num::Complex;
/// let z = Complex::new(3.0, 4.0);
/// assert_eq!(z.norm(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `j` (electrical-engineering spelling of `i`).
    pub const J: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_re(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Magnitude `|z|`, computed with `hypot` for stability.
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Phase angle in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Uses Smith's algorithm to avoid overflow for extreme magnitudes.
    #[inline]
    pub fn recip(self) -> Self {
        if self.re.abs() >= self.im.abs() {
            let r = self.im / self.re;
            let d = self.re + self.im * r;
            Complex::new(1.0 / d, -r / d)
        } else {
            let r = self.re / self.im;
            let d = self.re * r + self.im;
            Complex::new(r / d, -1.0 / d)
        }
    }

    /// Returns `true` if either component is NaN or infinite.
    #[inline]
    pub fn is_bad(self) -> bool {
        !self.re.is_finite() || !self.im.is_finite()
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_re(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    // Division via the overflow-safe reciprocal is the intended algorithm.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}
impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}
impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}
impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Complex) {
        *self = *self / rhs;
    }
}

/// Scalar field abstraction so one LU implementation serves both real (DC,
/// transient) and complex (AC) MNA systems.
pub trait Scalar:
    Copy
    + Default
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + fmt::Debug
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// Magnitude used for pivot selection.
    fn magnitude(self) -> f64;
    /// Returns `true` if the value contains NaN/∞.
    fn is_bad(self) -> bool;
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    #[inline]
    fn magnitude(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn is_bad(self) -> bool {
        !self.is_finite()
    }
}

impl Scalar for Complex {
    const ZERO: Complex = Complex::ZERO;
    const ONE: Complex = Complex::ONE;
    #[inline]
    fn magnitude(self) -> f64 {
        self.norm()
    }
    #[inline]
    fn is_bad(self) -> bool {
        Complex::is_bad(self)
    }
}

/// A dense, row-major square matrix over a [`Scalar`] field.
///
/// # Example
///
/// ```
/// use prima_spice::num::Matrix;
/// let mut m = Matrix::<f64>::zero(2);
/// m[(0, 0)] = 2.0;
/// m[(1, 1)] = 4.0;
/// let x = m.solve(&[2.0, 8.0]).unwrap();
/// assert_eq!(x, vec![1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    n: usize,
    data: Vec<T>,
}

/// Error returned when an MNA system cannot be solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinearError {
    /// The matrix is singular (or numerically so) at the given elimination step.
    Singular {
        /// Elimination step at which no acceptable pivot was found.
        step: usize,
    },
    /// The right-hand side length does not match the matrix dimension.
    DimensionMismatch,
    /// A non-finite value (NaN/∞) appeared in the matrix or RHS.
    NotFinite,
}

impl fmt::Display for LinearError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinearError::Singular { step } => {
                write!(f, "singular matrix at elimination step {step}")
            }
            LinearError::DimensionMismatch => write!(f, "dimension mismatch"),
            LinearError::NotFinite => write!(f, "non-finite value in linear system"),
        }
    }
}

impl std::error::Error for LinearError {}

impl<T: Scalar> Matrix<T> {
    /// Creates an `n × n` zero matrix.
    pub fn zero(n: usize) -> Self {
        Matrix {
            n,
            data: vec![T::ZERO; n * n],
        }
    }

    /// The dimension of the (square) matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Adds `v` to entry `(row, col)` — the fundamental MNA stamping op.
    #[inline]
    pub fn stamp(&mut self, row: usize, col: usize, v: T) {
        self.data[row * self.n + col] += v;
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        for v in &mut self.data {
            *v = T::ZERO;
        }
    }

    /// Solves `A·x = b` by LU factorization with partial pivoting.
    ///
    /// The matrix is not modified; a working copy is factored.
    ///
    /// # Errors
    ///
    /// Returns [`LinearError::Singular`] when no acceptable pivot exists,
    /// [`LinearError::DimensionMismatch`] when `b.len() != dim()`, and
    /// [`LinearError::NotFinite`] when inputs contain NaN/∞.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, LinearError> {
        if b.len() != self.n {
            return Err(LinearError::DimensionMismatch);
        }
        if self.data.iter().any(|v| v.is_bad()) || b.iter().any(|v| v.is_bad()) {
            return Err(LinearError::NotFinite);
        }
        let n = self.n;
        let mut a = self.data.clone();
        let mut x: Vec<T> = b.to_vec();

        for k in 0..n {
            // Partial pivoting: choose the largest-magnitude entry in column k.
            let mut piv = k;
            let mut piv_mag = a[k * n + k].magnitude();
            for r in (k + 1)..n {
                let mag = a[r * n + k].magnitude();
                if mag > piv_mag {
                    piv = r;
                    piv_mag = mag;
                }
            }
            if piv_mag < 1e-300 || !piv_mag.is_finite() {
                return Err(LinearError::Singular { step: k });
            }
            if piv != k {
                for c in 0..n {
                    a.swap(k * n + c, piv * n + c);
                }
                x.swap(k, piv);
            }
            let pivot = a[k * n + k];
            // Slice-based elimination: the pivot row is disjoint from every
            // row below it, so split the storage once and let the inner
            // update run over contiguous slices (vectorizes well).
            let (upper, lower) = a.split_at_mut((k + 1) * n);
            let prow = &upper[k * n..];
            for (ri, row) in lower.chunks_exact_mut(n).enumerate() {
                let factor = row[k] / pivot;
                if factor == T::ZERO {
                    continue;
                }
                row[k] = factor;
                for (rc, &kc) in row[(k + 1)..n].iter_mut().zip(&prow[(k + 1)..n]) {
                    *rc -= factor * kc;
                }
                let sub = factor * x[k];
                x[k + 1 + ri] -= sub;
            }
        }
        // Back substitution.
        for k in (0..n).rev() {
            for c in (k + 1)..n {
                let sub = a[k * n + c] * x[c];
                x[k] -= sub;
            }
            x[k] = x[k] / a[k * n + k];
        }
        if x.iter().any(|v| v.is_bad()) {
            return Err(LinearError::NotFinite);
        }
        Ok(x)
    }

    /// Computes `A·x` (used by tests and residual checks).
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        let n = self.n;
        self.data
            .chunks_exact(n)
            .map(|row| {
                let mut acc = T::ZERO;
                for (a, b) in row.iter().zip(x) {
                    acc += *a * *b;
                }
                acc
            })
            .collect()
    }
}

impl<T> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        &self.data[r * self.n + c]
    }
}

impl<T> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        &mut self.data[r * self.n + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complex_basic_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        let q = a / b;
        let back = q * b;
        assert!((back - a).norm() < 1e-12);
    }

    #[test]
    fn complex_recip_extremes() {
        let tiny = Complex::new(1e-200, 1e-200);
        let r = tiny.recip();
        assert!((r * tiny - Complex::ONE).norm() < 1e-10);
        let skew = Complex::new(1e150, 1.0);
        assert!(!(skew.recip()).is_bad());
    }

    #[test]
    fn complex_norm_and_arg() {
        let z = Complex::new(0.0, 2.0);
        assert!((z.arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
        assert_eq!(z.norm(), 2.0);
        assert_eq!(z.conj(), Complex::new(0.0, -2.0));
    }

    #[test]
    fn solve_identity() {
        let mut m = Matrix::<f64>::zero(3);
        for i in 0..3 {
            m[(i, i)] = 1.0;
        }
        let x = m.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solve_requires_pivoting() {
        // a11 = 0 forces a row swap.
        let mut m = Matrix::<f64>::zero(2);
        m[(0, 0)] = 0.0;
        m[(0, 1)] = 1.0;
        m[(1, 0)] = 1.0;
        m[(1, 1)] = 0.0;
        let x = m.solve(&[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn solve_singular_reports_error() {
        let mut m = Matrix::<f64>::zero(2);
        m[(0, 0)] = 1.0;
        m[(0, 1)] = 2.0;
        m[(1, 0)] = 2.0;
        m[(1, 1)] = 4.0;
        assert!(matches!(
            m.solve(&[1.0, 2.0]),
            Err(LinearError::Singular { .. })
        ));
    }

    #[test]
    fn solve_dimension_mismatch() {
        let m = Matrix::<f64>::zero(2);
        assert_eq!(m.solve(&[1.0]), Err(LinearError::DimensionMismatch));
    }

    #[test]
    fn solve_rejects_nan() {
        let mut m = Matrix::<f64>::zero(1);
        m[(0, 0)] = f64::NAN;
        assert_eq!(m.solve(&[1.0]), Err(LinearError::NotFinite));
    }

    #[test]
    fn solve_complex_system() {
        // (1+j)·x = 2j  =>  x = 2j/(1+j) = 1+j
        let mut m = Matrix::<Complex>::zero(1);
        m[(0, 0)] = Complex::new(1.0, 1.0);
        let x = m.solve(&[Complex::new(0.0, 2.0)]).unwrap();
        assert!((x[0] - Complex::new(1.0, 1.0)).norm() < 1e-12);
    }

    #[test]
    fn mul_vec_matches_solution() {
        let mut m = Matrix::<f64>::zero(3);
        let entries = [
            (0, 0, 4.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 1, 3.0),
            (1, 2, 1.0),
            (2, 1, 1.0),
            (2, 2, 5.0),
        ];
        for (r, c, v) in entries {
            m[(r, c)] = v;
        }
        let b = [1.0, 2.0, 3.0];
        let x = m.solve(&b).unwrap();
        let back = m.mul_vec(&x);
        for (bi, yi) in b.iter().zip(back.iter()) {
            assert!((bi - yi).abs() < 1e-12);
        }
    }
}
