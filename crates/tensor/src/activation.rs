//! Scalar activation functions.
//!
//! The one definition of each nonlinearity: [`crate::Tensor`]'s
//! differentiable ops map these over their values, and inference code that
//! works on plain [`crate::Matrix`] values maps the same functions, so both
//! paths produce identical bits.

/// Rectified linear unit, `max(x, 0)`.
#[inline]
pub fn relu(x: f64) -> f64 {
    x.max(0.0)
}

/// Leaky ReLU: `x` when positive, else `slope · x`.
#[inline]
pub fn leaky_relu(x: f64, slope: f64) -> f64 {
    if x > 0.0 {
        x
    } else {
        slope * x
    }
}

/// Logistic sigmoid, `1 / (1 + e^{-x})`.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}
