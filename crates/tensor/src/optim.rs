//! Adam, the paper's training optimizer (§4.1).
//!
//! [`Adam::step`] reads each parameter's gradient (filled in by
//! [`crate::Tape::backward`]) and updates the value in place.

use crate::{Matrix, Tensor};

/// First-moment decay `β₁`.
const BETA1: f64 = 0.9;
/// Second-moment decay `β₂`.
const BETA2: f64 = 0.999;
/// Denominator fuzz `ε`.
const EPS: f64 = 1e-8;

/// The Adam optimizer (Kingma & Ba) with the standard moments `β₁ = 0.9`,
/// `β₂ = 0.999` and `ε = 1e-8`.
///
/// The fields are the optimizer's whole state, so this value is also what a
/// training checkpoint stores: a copy steps bit-identically to the original.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    /// Learning rate (the training schedule lowers it between epochs).
    pub lr: f64,
    /// Steps taken so far (drives bias correction).
    pub t: u64,
    /// First-moment estimates, one per parameter in parameter order. Empty
    /// before the first step and full after it: every step updates every
    /// parameter.
    pub m: Vec<Matrix>,
    /// Second-moment estimates, laid out like [`Self::m`].
    pub v: Vec<Matrix>,
}

impl Adam {
    /// A fresh optimizer with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update step to `params`, which must be the same
    /// parameters in the same order at every step. Assumes `Tape::backward`
    /// ran since the last forward pass, so every gradient is current.
    ///
    /// One fused pass per parameter over value, gradient and both moments,
    /// all updated in place. Per element, in this order and without FMA
    /// (the golden checkpoint and artifact digests pin the bits):
    /// `m ← m·β₁ + g·(1−β₁)`, `v ← v·β₂ + (g·g)·(1−β₂)`,
    /// `u = (m·c₁) / (√(v·c₂) + ε)` with the bias corrections
    /// `cᵢ = 1/(1−βᵢᵗ)` computed once per step, then `x += u·(−lr)`.
    ///
    /// # Panics
    ///
    /// Panics if `params` does not match the moments in count or shape.
    pub fn step(&mut self, params: &[Tensor]) {
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| {
                    let (rows, cols) = p.shape();
                    Matrix::zeros(rows, cols)
                })
                .collect();
            self.v = self.m.clone();
        }
        assert!(
            self.m.len() == params.len() && self.v.len() == params.len(),
            "Adam holds moments for {} parameters, stepped with {}",
            self.m.len(),
            params.len()
        );
        self.t += 1;
        let t = self.t as f64;
        let c1 = 1.0 / (1.0 - BETA1.powf(t));
        let c2 = 1.0 / (1.0 - BETA2.powf(t));
        let neg_lr = -self.lr;
        let moments = self.m.iter_mut().zip(&mut self.v);
        for (i, (p, (m, v))) in params.iter().zip(moments).enumerate() {
            p.update_in_place(|value, grad| {
                assert!(
                    m.shape() == grad.shape() && v.shape() == grad.shape(),
                    "Adam moment shape mismatch for parameter {i}"
                );
                let lanes = value
                    .data_mut()
                    .iter_mut()
                    .zip(grad.data())
                    .zip(m.data_mut().iter_mut().zip(v.data_mut()));
                for ((x, &g), (m, v)) in lanes {
                    *m = *m * BETA1 + g * (1.0 - BETA1);
                    *v = *v * BETA2 + (g * g) * (1.0 - BETA2);
                    let update = (*m * c1) / ((*v * c2).sqrt() + EPS);
                    *x += update * neg_lr;
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::Tape;

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimizes `sum((w - target)²)`.
        let tape = Tape::new();
        let w = tape.parameter(Matrix::from_rows(&[&[5.0, -3.0]]));
        let target = Matrix::from_rows(&[&[1.0, 2.0]]);
        let mut opt = Adam::new(0.1);
        for _ in 0..400 {
            tape.reset();
            let loss = w.mse(&target);
            tape.backward(&loss);
            opt.step(std::slice::from_ref(&w));
        }
        let w = w.value();
        assert!((w[(0, 0)] - 1.0).abs() < 1e-2, "{w}");
        assert!((w[(0, 1)] - 2.0).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_lr_rejected() {
        let _ = Adam::new(0.0);
    }

    /// Copy mid-run and finish training on both: the copy, which is what a
    /// checkpoint stores, must track the original bit-for-bit.
    #[test]
    fn adam_state_round_trip_is_bit_identical() {
        let tape = Tape::new();
        let w = tape.parameter(Matrix::from_rows(&[&[5.0, -3.0]]));
        let target = Matrix::from_rows(&[&[1.0, 2.0]]);
        let steps = |opt: &mut Adam, n: usize| {
            for _ in 0..n {
                tape.reset();
                let loss = w.mse(&target);
                tape.backward(&loss);
                opt.step(std::slice::from_ref(&w));
            }
            w.value()
        };
        let mut opt = Adam::new(0.1);
        let frozen = steps(&mut opt, 7);
        let mut restored = opt.clone();
        let original_final = steps(&mut opt, 5);
        // Rewind the parameter and continue the copy.
        w.set_value(frozen);
        let restored_final = steps(&mut restored, 5);
        assert_eq!(bits(&original_final), bits(&restored_final));
        assert_eq!(restored, opt);
    }

    /// The matrix-at-a-time Adam step this module used before the fused
    /// in-place one, kept verbatim as the bit oracle for [`Adam::step`].
    struct ReferenceAdam {
        lr: f64,
        beta1: f64,
        beta2: f64,
        eps: f64,
        t: u64,
        m: HashMap<usize, Matrix>,
        v: HashMap<usize, Matrix>,
    }

    impl ReferenceAdam {
        fn new(lr: f64) -> Self {
            ReferenceAdam {
                lr,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                t: 0,
                m: HashMap::new(),
                v: HashMap::new(),
            }
        }

        fn step(&mut self, params: &[Tensor]) {
            self.t += 1;
            let t = self.t as f64;
            for (i, p) in params.iter().enumerate() {
                let grad = p.grad();
                let (rows, cols) = (grad.rows(), grad.cols());
                let m = self.m.entry(i).or_insert_with(|| Matrix::zeros(rows, cols));
                let v = self.v.entry(i).or_insert_with(|| Matrix::zeros(rows, cols));
                *m = m.scale(self.beta1).add(&grad.scale(1.0 - self.beta1));
                *v = v
                    .scale(self.beta2)
                    .add(&grad.hadamard(&grad).scale(1.0 - self.beta2));
                let m_hat = m.scale(1.0 / (1.0 - self.beta1.powf(t)));
                let v_hat = v.scale(1.0 / (1.0 - self.beta2.powf(t)));
                let update = m_hat.zip_with(&v_hat, |mh, vh| mh / (vh.sqrt() + self.eps));
                let mut value = p.value();
                value.add_scaled_assign(&update, -self.lr);
                p.set_value(value);
            }
        }
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The fused step against the reference over several steps, on
    /// parameters of three shapes — one of which never reaches the loss, so
    /// its gradient is all zero.
    #[test]
    fn fused_adam_step_is_bit_identical_to_reference() {
        let init = [
            Matrix::from_rows(&[&[0.3, -1.2, 0.7], &[2.5, -0.05, 1e-3]]),
            Matrix::from_rows(&[&[-0.4, 0.9, 0.0]]),
            Matrix::from_rows(&[&[1.5, -2.0], &[0.25, 3.0]]),
        ];
        let x = Matrix::from_rows(&[&[1.0, -0.5], &[0.2, 2.0], &[-1.5, 0.3]]);
        let target = Matrix::from_rows(&[&[0.1, 0.9, -0.3], &[0.4, -0.8, 0.6], &[1.2, 0.0, -0.2]]);
        // Eight steps, the learning rate dropping from 0.02 to 0.004 before
        // the sixth; `step` sets the rate and steps. Returns every
        // parameter's bits after each step.
        let run = |step: &mut dyn FnMut(f64, &[Tensor])| {
            let tape = Tape::new();
            let params: Vec<Tensor> = init.iter().map(|m| tape.parameter(m.clone())).collect();
            let mut trace = Vec::new();
            for round in 0..8 {
                tape.reset();
                let bias = tape.constant(Matrix::ones(3, 1)).matmul(&params[1]);
                let out = tape
                    .constant(x.clone())
                    .matmul(&params[0])
                    .add(&bias)
                    .sigmoid();
                tape.backward(&out.mse(&target));
                assert_eq!(params[2].grad().max_abs(), 0.0, "unused parameter");
                step(if round < 5 { 0.02 } else { 0.004 }, &params);
                trace.push(params.iter().map(|p| bits(&p.value())).collect::<Vec<_>>());
            }
            trace
        };
        let mut fused = Adam::new(0.02);
        let mut reference = ReferenceAdam::new(0.02);
        let fused_trace = run(&mut |lr, params| {
            fused.lr = lr;
            fused.step(params);
        });
        let reference_trace = run(&mut |lr, params| {
            reference.lr = lr;
            reference.step(params);
        });
        assert_eq!(fused_trace, reference_trace);
        assert_eq!(fused.t, reference.t);
        for (moments, expected) in [(&fused.m, &reference.m), (&fused.v, &reference.v)] {
            assert_eq!(moments.len(), expected.len());
            for (i, matrix) in moments.iter().enumerate() {
                assert_eq!(bits(matrix), bits(&expected[&i]), "moment of parameter {i}");
            }
        }
        // The all-zero gradient left its parameter where it started.
        assert_eq!(fused_trace.last().unwrap()[2], bits(&init[2]));
    }

    #[test]
    fn fresh_adam_is_empty_and_one_step_fills_every_moment() {
        let fresh = Adam::new(0.05);
        assert_eq!((fresh.lr, fresh.t), (0.05, 0));
        assert!(fresh.m.is_empty() && fresh.v.is_empty());
        let tape = Tape::new();
        let params: Vec<_> = (0..4)
            .map(|i| tape.parameter(Matrix::from_rows(&[&[i as f64, 1.0]])))
            .collect();
        let mut opt = fresh;
        let loss = params[0]
            .mse(&Matrix::from_rows(&[&[1.0, 0.0]]))
            .add(&params[3].mse(&Matrix::from_rows(&[&[2.0, 0.0]])));
        tape.backward(&loss);
        opt.step(&params);
        assert_eq!(opt.t, 1);
        for moments in [&opt.m, &opt.v] {
            assert_eq!(moments.len(), params.len());
            assert!(moments.iter().all(|m| m.shape() == (1, 2)));
            // Parameters outside the loss keep zero moments.
            assert_eq!(moments[1].max_abs(), 0.0);
            assert_eq!(moments[2].max_abs(), 0.0);
            assert!(moments[0].max_abs() > 0.0 && moments[3].max_abs() > 0.0);
        }
    }
}
