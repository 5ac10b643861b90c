use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// The approved offline dependency set contains no complex-arithmetic crate,
/// so the simulator carries its own minimal implementation. Only the
/// operations a state-vector simulator needs are provided.
///
/// # Example
///
/// ```
/// use qsim::Complex;
///
/// let i = Complex::I;
/// assert_eq!(i * i, -Complex::ONE);
/// assert!((Complex::from_polar(1.0, std::f64::consts::PI).re + 1.0).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular components.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates `r * e^{iθ}`.
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// `e^{iθ}` — the unit phase used by diagonal gate application.
    pub fn cis(theta: f64) -> Self {
        Complex::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Squared magnitude `re² + im²`.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Argument in `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplication by a real scalar.
    pub fn scale(self, s: f64) -> Self {
        Complex::new(self.re * s, self.im * s)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::new(re, 0.0)
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sqr();
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-3.0, 0.5);
        assert_eq!(a + b, Complex::new(-2.0, 2.5));
        assert_eq!(a - b, Complex::new(4.0, 1.5));
        assert_eq!(a * Complex::ONE, a);
        assert_eq!(a + Complex::ZERO, a);
        assert_eq!(-a, Complex::new(-1.0, -2.0));
        assert_eq!(Complex::I * Complex::I, -Complex::ONE);
    }

    #[test]
    fn multiplication_and_division_inverse() {
        let a = Complex::new(2.0, -3.0);
        let b = Complex::new(0.5, 1.5);
        let q = a / b;
        let back = q * b;
        assert!((back - a).norm() < 1e-12);
    }

    #[test]
    fn conjugate_and_norms() {
        let a = Complex::new(3.0, 4.0);
        assert_eq!(a.conj(), Complex::new(3.0, -4.0));
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.norm(), 5.0);
        assert!(((a * a.conj()).re - 25.0).abs() < 1e-12);
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex::from_polar(2.0, FRAC_PI_2);
        assert!(z.re.abs() < 1e-15);
        assert!((z.im - 2.0).abs() < 1e-15);
        assert!((z.arg() - FRAC_PI_2).abs() < 1e-15);
        assert!((Complex::cis(PI).re + 1.0).abs() < 1e-15);
    }

    #[test]
    fn assign_ops_and_sum() {
        let mut a = Complex::ONE;
        a += Complex::I;
        a -= Complex::ONE;
        a *= Complex::new(0.0, -1.0);
        assert!((a - Complex::ONE).norm() < 1e-15);
        let total: Complex = vec![Complex::ONE, Complex::I, Complex::new(1.0, 1.0)]
            .into_iter()
            .sum();
        assert_eq!(total, Complex::new(2.0, 2.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn from_f64() {
        let z: Complex = 2.5f64.into();
        assert_eq!(z, Complex::new(2.5, 0.0));
        assert_eq!(z * 2.0, Complex::new(5.0, 0.0));
    }
}
