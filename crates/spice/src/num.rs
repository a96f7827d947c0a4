//! Numeric kernel: complex arithmetic and LU factorization.
//!
//! [`Matrix::solve`] is a dense LU with partial pivoting that skips the
//! exact zeros making up most of an MNA matrix; the DC and AC analyses run
//! it as is. A transient solves thousands of systems that share one
//! sparsity pattern, and there a reusable `LuWorkspace` factors the
//! first with the dense routine, analyzes its pivot sequence once and
//! refactors every later matrix over the analyzed entries only, with the
//! dense routine's result bit for bit. Sparse machinery pays even at the
//! primitive testbenches' size: on the current-starved inverter's
//! transient (31 unknowns, 105 stamped entries, 145 after fill) a
//! refactorization takes about a third of the dense routine's time.

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
    + From<f64>
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
    /// The matrix is not modified; a working copy is factored, by the
    /// routine the Newton loop runs in place.
    ///
    /// # Errors
    ///
    /// Returns [`LinearError::Singular`] when no acceptable pivot exists,
    /// [`LinearError::DimensionMismatch`] when `b.len() != dim()`, and
    /// [`LinearError::NotFinite`] when inputs contain NaN/∞.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, LinearError> {
        let mut a = self.clone();
        let mut x = b.to_vec();
        a.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` by LU factorization with partial pivoting, in
    /// place: the matrix is overwritten by its factors and `b` by `x`.
    ///
    /// MNA matrices are mostly zeros, so elimination updates only the span
    /// of each pivot row's nonzeros and back substitution skips zero
    /// entries. A skipped update would subtract an exact zero, so the
    /// solution equals a dense elimination's (`==`; a zero may differ in
    /// sign).
    ///
    /// # Errors
    ///
    /// As [`Matrix::solve`].
    pub(crate) fn solve_in_place(&mut self, b: &mut [T]) -> Result<(), LinearError> {
        if b.len() != self.n {
            return Err(LinearError::DimensionMismatch);
        }
        if self.data.iter().any(|v| v.is_bad()) || b.iter().any(|v| v.is_bad()) {
            return Err(LinearError::NotFinite);
        }
        self.eliminate(b, 0, |_, _| {})?;
        let n = self.n;
        self.back_substitute(b, |k| k + 1..n)
    }

    /// Runs elimination steps `from..n` of the partial-pivoting LU, applying
    /// each step to `x` as it goes, and tells `pivoted(k, row)` which row
    /// step `k` swapped into row `k`.
    fn eliminate(
        &mut self,
        x: &mut [T],
        from: usize,
        mut pivoted: impl FnMut(usize, usize),
    ) -> Result<(), LinearError> {
        let n = self.n;
        let a = &mut self.data;
        for k in from..n {
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
            pivoted(k, piv);
            if piv != k {
                for c in 0..n {
                    a.swap(k * n + c, piv * n + c);
                }
                x.swap(k, piv);
            }
            let pivot = a[k * n + k];
            // The pivot row is disjoint from every row below it, so split
            // the storage once and let the update run over one contiguous
            // span: from the pivot row's first nonzero right of the
            // diagonal to its last (vectorizes well).
            let (upper, lower) = a.split_at_mut((k + 1) * n);
            let prow = &upper[k * n..];
            let lo = (k + 1..n).find(|&c| prow[c] != T::ZERO).unwrap_or(n);
            let hi = (lo..n).rfind(|&c| prow[c] != T::ZERO).map_or(lo, |c| c + 1);
            for (ri, row) in lower.chunks_exact_mut(n).enumerate() {
                let factor = row[k] / pivot;
                if factor == T::ZERO {
                    continue;
                }
                row[k] = factor;
                for (rc, &kc) in row[lo..hi].iter_mut().zip(&prow[lo..hi]) {
                    *rc -= factor * kc;
                }
                let sub = factor * x[k];
                x[k + 1 + ri] -= sub;
            }
        }
        Ok(())
    }

    /// Back substitution through the upper factor, over the columns
    /// `upper(k)` right of each diagonal entry `k` (ascending) and skipping
    /// zero entries; fails on a non-finite solution.
    fn back_substitute<C: IntoIterator<Item = usize>>(
        &self,
        x: &mut [T],
        upper: impl Fn(usize) -> C,
    ) -> Result<(), LinearError> {
        let n = self.n;
        let a = &self.data;
        for k in (0..n).rev() {
            for c in upper(k) {
                let akc = a[k * n + c];
                if akc != T::ZERO {
                    let sub = akc * x[c];
                    x[k] -= sub;
                }
            }
            x[k] = x[k] / a[k * n + k];
        }
        if x.iter().any(|v| v.is_bad()) {
            return Err(LinearError::NotFinite);
        }
        Ok(())
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

/// An LU workspace reused across matrices that share one sparsity pattern:
/// the Newton iterations of a transient.
///
/// The pattern is every entry assembly may write, fixed by the circuit's
/// element stamps rather than by their values; every other entry holds an
/// exact zero. The dense routine ([`Matrix::solve_in_place`]) factors the
/// first matrix, and the workspace analyzes its pivot sequence: which rows
/// each step searches and eliminates, which columns each pivot row updates,
/// and every entry the factors can occupy. Each later matrix is cleared,
/// checked for finiteness and eliminated over those entries only.
///
/// Every step still picks its pivot the way partial pivoting does (largest
/// magnitude, first in row order on ties), over the rows that can hold a
/// nonzero. When that is not the analyzed pivot, the dense routine finishes
/// the factorization from that step and the workspace analyzes the new
/// sequence. An update the workspace skips would subtract an exact zero,
/// so a solve returns the dense routine's solution bit for bit, and fails
/// whenever that routine fails.
#[derive(Debug, Clone)]
pub(crate) struct LuWorkspace {
    n: usize,
    /// Row-major indices of the entries assembly may write.
    pattern: Vec<usize>,
    /// `pattern` as a mask over all `n²` entries.
    in_pattern: Vec<bool>,
    /// The analysis of the last complete pivot sequence.
    plan: Option<Plan>,
    /// Whether the matrix may hold nonzeros outside the plan's fill: after
    /// the dense routine ran, and after a failed solve.
    dirty: bool,
}

/// The analysis of one pivot sequence over a pattern. Every list is
/// ascending.
#[derive(Debug, Clone)]
struct Plan {
    /// Per step `k`, the row swapped into row `k`.
    pivots: Vec<usize>,
    /// Per step `k`, the rows below `k` that can hold a nonzero in column
    /// `k` before the swap: the pivot candidates.
    search: Vec<Vec<usize>>,
    /// Per step `k`, the columns from `k` on where either swapped row can
    /// hold a nonzero: the entries the swap moves. The multipliers left of
    /// `k` are never read again and stay where they were written.
    swaps: Vec<Vec<usize>>,
    /// Per step `k`, the rows below `k` that can hold a nonzero in column
    /// `k` after the swap: the rows step `k` eliminates.
    lower: Vec<Vec<usize>>,
    /// Per step `k`, the columns right of `k` that can hold a nonzero in
    /// pivot row `k`.
    upper: Vec<Vec<usize>>,
    /// Row-major indices of every entry the factors can occupy.
    fill: Vec<usize>,
}

impl Plan {
    /// Eliminates symbolically over the pattern `in_pattern` along
    /// `pivots`.
    fn analyze(n: usize, in_pattern: &[bool], pivots: Vec<usize>) -> Self {
        let mut s = in_pattern.to_vec();
        let below =
            |s: &[bool], k: usize| -> Vec<usize> { (k + 1..n).filter(|&r| s[r * n + k]).collect() };
        let (mut search, mut swaps, mut lower, mut upper) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (k, &p) in pivots.iter().enumerate() {
            search.push(below(&s, k));
            let moved: Vec<usize> = (k..n)
                .filter(|&c| p != k && (s[k * n + c] || s[p * n + c]))
                .collect();
            for &c in &moved {
                s.swap(k * n + c, p * n + c);
            }
            swaps.push(moved);
            let rows = below(&s, k);
            let cols: Vec<usize> = (k + 1..n).filter(|&c| s[k * n + c]).collect();
            for &r in &rows {
                for &c in &cols {
                    s[r * n + c] = true;
                }
            }
            lower.push(rows);
            upper.push(cols);
        }
        let fill = (0..n * n).filter(|&i| s[i]).collect();
        Plan {
            pivots,
            search,
            swaps,
            lower,
            upper,
            fill,
        }
    }

    /// Runs the dense routine's elimination along this plan. Returns the
    /// first step whose pivot is not the plan's, before that step changes
    /// anything; `None` once every step followed the plan.
    fn eliminate<T: Scalar>(
        &self,
        m: &mut Matrix<T>,
        x: &mut [T],
    ) -> Result<Option<usize>, LinearError> {
        let n = m.n;
        let a = &mut m.data;
        for k in 0..n {
            let mut piv = k;
            let mut piv_mag = a[k * n + k].magnitude();
            for &r in &self.search[k] {
                let mag = a[r * n + k].magnitude();
                if mag > piv_mag {
                    piv = r;
                    piv_mag = mag;
                }
            }
            if piv_mag < 1e-300 || !piv_mag.is_finite() {
                return Err(LinearError::Singular { step: k });
            }
            if piv != self.pivots[k] {
                return Ok(Some(k));
            }
            if piv != k {
                for &c in &self.swaps[k] {
                    a.swap(k * n + c, piv * n + c);
                }
                x.swap(k, piv);
            }
            let pivot = a[k * n + k];
            let (upper, lower) = a.split_at_mut((k + 1) * n);
            let prow = &upper[k * n..];
            for &r in &self.lower[k] {
                let row = &mut lower[(r - k - 1) * n..(r - k) * n];
                let factor = row[k] / pivot;
                if factor == T::ZERO {
                    continue;
                }
                row[k] = factor;
                for &c in &self.upper[k] {
                    row[c] -= factor * prow[c];
                }
                let sub = factor * x[k];
                x[r] -= sub;
            }
        }
        Ok(None)
    }
}

impl LuWorkspace {
    /// A workspace for `n × n` matrices whose nonzeros lie at `entries`
    /// (`(row, col)` pairs; repeats are fine).
    pub(crate) fn new(n: usize, entries: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut in_pattern = vec![false; n * n];
        for (r, c) in entries {
            in_pattern[r * n + c] = true;
        }
        LuWorkspace {
            n,
            pattern: (0..n * n).filter(|&i| in_pattern[i]).collect(),
            in_pattern,
            plan: None,
            dirty: true,
        }
    }

    /// Zeroes every entry of `m` that the last solve can have left nonzero.
    pub(crate) fn clear<T: Scalar>(&self, m: &mut Matrix<T>) {
        match &self.plan {
            Some(plan) if !self.dirty => {
                for &i in &plan.fill {
                    m.data[i] = T::ZERO;
                }
            }
            _ => m.clear(),
        }
    }

    /// Solves `m·x = b` in place like [`Matrix::solve_in_place`], with its
    /// solution bit for bit. `m` must be nonzero only inside the pattern.
    pub(crate) fn solve_in_place<T: Scalar>(
        &mut self,
        m: &mut Matrix<T>,
        b: &mut [T],
    ) -> Result<(), LinearError> {
        debug_assert!(
            m.n == self.n
                && m.data
                    .iter()
                    .zip(&self.in_pattern)
                    .all(|(v, &inside)| inside || *v == T::ZERO),
            "an assembled nonzero lies outside the analyzed pattern"
        );
        self.dirty = true;
        if b.len() != self.n {
            return Err(LinearError::DimensionMismatch);
        }
        if self.pattern.iter().any(|&i| m.data[i].is_bad()) || b.iter().any(|v| v.is_bad()) {
            return Err(LinearError::NotFinite);
        }
        let (from, mut pivots) = match &self.plan {
            Some(plan) => match plan.eliminate(m, b)? {
                None => {
                    m.back_substitute(b, |k| plan.upper[k].iter().copied())?;
                    self.dirty = false;
                    return Ok(());
                }
                Some(k) => (k, plan.pivots.clone()),
            },
            None => (0, vec![0; self.n]),
        };
        m.eliminate(b, from, |k, p| pivots[k] = p)?;
        self.plan = Some(Plan::analyze(self.n, &self.in_pattern, pivots));
        let n = self.n;
        m.back_substitute(b, |k| k + 1..n)
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

    /// The dense elimination, the oracle of the in-place zero-skipping
    /// solve: it updates every entry right of the diagonal and substitutes
    /// back over every entry.
    fn dense_solve(m: &Matrix<f64>, b: &[f64]) -> Result<Vec<f64>, LinearError> {
        if b.len() != m.n {
            return Err(LinearError::DimensionMismatch);
        }
        if m.data.iter().any(|v| v.is_bad()) || b.iter().any(|v| v.is_bad()) {
            return Err(LinearError::NotFinite);
        }
        let n = m.n;
        let mut a = m.data.clone();
        let mut x = b.to_vec();
        for k in 0..n {
            let mut piv = k;
            let mut piv_mag = a[k * n + k].abs();
            for r in (k + 1)..n {
                let mag = a[r * n + k].abs();
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
            for r in (k + 1)..n {
                let factor = a[r * n + k] / pivot;
                if factor == 0.0 {
                    continue;
                }
                a[r * n + k] = factor;
                for c in (k + 1)..n {
                    a[r * n + c] -= factor * a[k * n + c];
                }
                x[r] -= factor * x[k];
            }
        }
        for k in (0..n).rev() {
            for c in (k + 1)..n {
                x[k] -= a[k * n + c] * x[c];
            }
            x[k] /= a[k * n + k];
        }
        if x.iter().any(|v| v.is_bad()) {
            return Err(LinearError::NotFinite);
        }
        Ok(x)
    }

    /// SplitMix64: a seeded stream for building test matrices.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// On sparse systems that need row swaps (a strong diagonal under
        /// a random row permutation, plus sparse off-diagonal entries), the
        /// in-place zero-skipping solve returns exactly the dense solve's
        /// solution, or the same error.
        #[test]
        fn sparse_solve_equals_dense_solve(
            n in 1usize..24,
            density in 0.0f64..0.4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut state = seed;
            let mut unit = || (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                perm.swap(i, (unit() * (i + 1) as f64) as usize);
            }
            let mut m = Matrix::<f64>::zero(n);
            for (r, &c) in perm.iter().enumerate() {
                m[(r, c)] = 1e-3 + unit();
            }
            for r in 0..n {
                for c in 0..n {
                    if unit() < density {
                        // Exact zeros, cancellations and singular rows
                        // arise from a coarse value grid.
                        m[(r, c)] += (unit() * 8.0).floor() - 4.0;
                    }
                }
            }
            let mut b: Vec<f64> = (0..n).map(|_| unit() - 0.5).collect();
            let roll = unit();
            if roll < 0.03 {
                m[(n - 1, 0)] = f64::NAN;
            } else if roll < 0.06 {
                b.push(1.0);
            } else if roll < 0.09 {
                for c in 0..n {
                    m[(0, c)] = 0.0;
                }
            }
            proptest::prop_assert_eq!(m.solve(&b), dense_solve(&m, &b));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// One workspace, driven through a sequence of matrices that share
        /// its pattern, returns what the dense oracle returns on each: the
        /// same solution (`==`, and bit for bit the in-place dense
        /// routine's) or the same error. Values move on a coarse grid
        /// between solves, so pivot rows change, magnitudes tie and
        /// entries cancel; some matrices also lose a row (singular), hold
        /// a NaN or come with a right-hand side of the wrong length.
        #[test]
        fn reused_workspace_equals_dense_solve(
            n in 1usize..16,
            density in 0.0f64..0.4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut state = seed;
            let mut unit = || (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                perm.swap(i, (unit() * (i + 1) as f64) as usize);
            }
            // The pattern: a permuted diagonal plus random entries, some
            // of them repeated (stamped twice).
            let mut entries: Vec<(usize, usize)> = perm.iter().copied().enumerate().collect();
            for r in 0..n {
                for c in 0..n {
                    if unit() < density {
                        entries.push((r, c));
                    }
                }
            }
            for _ in 0..n / 4 {
                let e = entries[(unit() * entries.len() as f64) as usize];
                entries.push(e);
            }
            let grid = |u: f64| (u * 9.0).floor() - 4.0;
            let mut values: Vec<f64> = entries.iter().map(|_| grid(unit())).collect();
            let mut ws = LuWorkspace::new(n, entries.iter().copied());
            let mut m = Matrix::<f64>::zero(n);
            for _ in 0..12 {
                for v in values.iter_mut() {
                    if unit() < 0.3 {
                        *v = grid(unit());
                    }
                }
                let mut stamps = values.clone();
                // Signed zeros in the right-hand side make a changed zero
                // sign in the solution show.
                let mut b: Vec<f64> = (0..n)
                    .map(|_| match grid(unit()) {
                        0.0 if unit() < 0.5 => -0.0,
                        v => v,
                    })
                    .collect();
                let roll = unit();
                if roll < 0.05 {
                    let i = (unit() * stamps.len() as f64) as usize;
                    stamps[i] = f64::NAN;
                } else if roll < 0.1 {
                    let row = (unit() * n as f64) as usize;
                    for (v, &(r, _)) in stamps.iter_mut().zip(&entries) {
                        if r == row {
                            *v = 0.0;
                        }
                    }
                } else if roll < 0.13 {
                    b.push(1.0);
                }
                let mut oracle = Matrix::<f64>::zero(n);
                ws.clear(&mut m);
                for (&(r, c), &v) in entries.iter().zip(&stamps) {
                    oracle.stamp(r, c, v);
                    m.stamp(r, c, v);
                }
                let mut x = b.clone();
                let got = ws.solve_in_place(&mut m, &mut x).map(|()| x);
                proptest::prop_assert_eq!(&got, &dense_solve(&oracle, &b));
                let bits = |r: &Result<Vec<f64>, LinearError>| {
                    r.clone().map(|x| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                };
                proptest::prop_assert_eq!(bits(&got), bits(&oracle.solve(&b)));
            }
        }
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
