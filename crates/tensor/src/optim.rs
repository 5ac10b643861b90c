//! First-order optimizers over tape parameters.
//!
//! The paper trains its GNNs with Adam (§4.1), here with optional AdamW-style
//! decoupled weight decay. Optimizers read each parameter's gradient (filled
//! in by [`crate::Tape::backward`]) and update the value in place.

use std::collections::HashMap;

use crate::{Matrix, Tensor};

/// A gradient-based parameter updater.
///
/// Implementations assume `Tape::backward` ran since the last forward pass,
/// so every parameter's gradient is current.
pub trait Optimizer {
    /// Applies one update step to the given parameters.
    fn step(&mut self, params: &[Tensor]);
    /// Current learning rate.
    fn learning_rate(&self) -> f64;
    /// Overrides the learning rate (schedulers call this).
    fn set_learning_rate(&mut self, lr: f64);
}

/// The Adam optimizer (Kingma & Ba), optionally with AdamW-style decoupled
/// weight decay — the paper's training optimizer (§4.1).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    weight_decay: f64,
    t: u64,
    m: HashMap<usize, Matrix>,
    v: HashMap<usize, Matrix>,
}

impl Adam {
    /// Adam with standard moments `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f64) -> Self {
        Self::with_weight_decay(lr, 0.0)
    }

    /// Adam with decoupled weight decay (AdamW).
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or `weight_decay < 0`.
    pub fn with_weight_decay(lr: f64, weight_decay: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            t: 0,
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }
}

/// A serializable snapshot of an [`Adam`] optimizer mid-run: hyperparameters,
/// the step counter, and both moment estimates keyed by parameter index
/// (sorted ascending, so the encoding is canonical).
///
/// Exported by [`Adam::export_state`] and turned back into a live optimizer
/// by [`Adam::from_state`]; stepping the restored optimizer produces updates
/// bit-identical to the original.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// Learning rate at export time (after any scheduler reductions).
    pub lr: f64,
    /// First-moment decay `β₁`.
    pub beta1: f64,
    /// Second-moment decay `β₂`.
    pub beta2: f64,
    /// Denominator fuzz `ε`.
    pub eps: f64,
    /// Decoupled weight-decay coefficient (0 = plain Adam).
    pub weight_decay: f64,
    /// Steps taken so far (drives bias correction).
    pub t: u64,
    /// First-moment estimates, `(param index, matrix)` sorted by index.
    pub m: Vec<(usize, Matrix)>,
    /// Second-moment estimates, `(param index, matrix)` sorted by index.
    pub v: Vec<(usize, Matrix)>,
}

impl Adam {
    /// Snapshots the full optimizer state for checkpointing. Moments are
    /// emitted sorted by parameter index so equal states encode equally.
    pub fn export_state(&self) -> AdamState {
        let sorted = |map: &HashMap<usize, Matrix>| {
            let mut entries: Vec<(usize, Matrix)> =
                map.iter().map(|(&i, m)| (i, m.clone())).collect();
            entries.sort_by_key(|(i, _)| *i);
            entries
        };
        AdamState {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            weight_decay: self.weight_decay,
            t: self.t,
            m: sorted(&self.m),
            v: sorted(&self.v),
        }
    }

    /// Rebuilds an optimizer from an exported state. The result steps
    /// bit-identically to the optimizer the state was exported from.
    pub fn from_state(state: &AdamState) -> Self {
        Adam {
            lr: state.lr,
            beta1: state.beta1,
            beta2: state.beta2,
            eps: state.eps,
            weight_decay: state.weight_decay,
            t: state.t,
            m: state.m.iter().cloned().collect(),
            v: state.v.iter().cloned().collect(),
        }
    }
}

impl Optimizer for Adam {
    /// One fused pass per parameter over value, gradient and both moments,
    /// all updated in place. Per element, in this order and without FMA
    /// (the golden checkpoint and artifact digests pin the bits):
    /// `m ← m·β₁ + g·(1−β₁)`, `v ← v·β₂ + (g·g)·(1−β₂)`,
    /// `u = (m·c₁) / (√(v·c₂) + ε)` with the bias corrections
    /// `cᵢ = 1/(1−βᵢᵗ)` computed once per step, then the decoupled decay
    /// `x += (x·wd)·(−lr)` before `x += u·(−lr)`.
    fn step(&mut self, params: &[Tensor]) {
        self.t += 1;
        let t = self.t as f64;
        let (beta1, beta2, eps, weight_decay) =
            (self.beta1, self.beta2, self.eps, self.weight_decay);
        let c1 = 1.0 / (1.0 - beta1.powf(t));
        let c2 = 1.0 / (1.0 - beta2.powf(t));
        let neg_lr = -self.lr;
        for (i, p) in params.iter().enumerate() {
            p.update_in_place(|value, grad| {
                let (rows, cols) = grad.shape();
                let m = self.m.entry(i).or_insert_with(|| Matrix::zeros(rows, cols));
                let v = self.v.entry(i).or_insert_with(|| Matrix::zeros(rows, cols));
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
                    *m = *m * beta1 + g * (1.0 - beta1);
                    *v = *v * beta2 + (g * g) * (1.0 - beta2);
                    let update = (*m * c1) / ((*v * c2).sqrt() + eps);
                    if weight_decay > 0.0 {
                        *x += (*x * weight_decay) * neg_lr;
                    }
                    *x += update * neg_lr;
                }
            });
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;

    /// Minimizes `sum((w - target)²)` and returns the final parameter.
    fn train<O: Optimizer>(mut opt: O, steps: usize) -> Matrix {
        let tape = Tape::new();
        let w = tape.parameter(Matrix::from_rows(&[&[5.0, -3.0]]));
        let target = Matrix::from_rows(&[&[1.0, 2.0]]);
        for _ in 0..steps {
            tape.reset();
            let loss = w.mse(&target);
            tape.backward(&loss);
            opt.step(std::slice::from_ref(&w));
        }
        w.value()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = train(Adam::new(0.1), 400);
        assert!((w[(0, 0)] - 1.0).abs() < 1e-2, "{w}");
        assert!((w[(0, 1)] - 2.0).abs() < 1e-2);
    }

    #[test]
    fn adamw_decays_unused_weights() {
        // With pure decay (zero gradient via constant loss on other param),
        // weights shrink toward 0.
        let tape = Tape::new();
        let w = tape.parameter(Matrix::from_rows(&[&[4.0]]));
        let mut opt = Adam::with_weight_decay(0.1, 0.5);
        for _ in 0..50 {
            tape.reset();
            // Loss independent of w: gradient is 0, only decay acts.
            let c = tape.constant(Matrix::from_rows(&[&[1.0]]));
            let loss = c.sum();
            tape.backward(&loss);
            opt.step(std::slice::from_ref(&w));
        }
        assert!(w.value()[(0, 0)].abs() < 4.0 * 0.95f64.powi(40));
    }

    #[test]
    fn learning_rate_round_trip() {
        let mut opt = Adam::new(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
        opt.set_learning_rate(0.002);
        assert_eq!(opt.learning_rate(), 0.002);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_lr_rejected() {
        let _ = Adam::new(0.0);
    }

    /// Export mid-run, rebuild, and finish training on both: the restored
    /// optimizer must track the original bit-for-bit.
    #[test]
    fn adam_state_round_trip_is_bit_identical() {
        let tape = Tape::new();
        let w = tape.parameter(Matrix::from_rows(&[&[5.0, -3.0]]));
        let target = Matrix::from_rows(&[&[1.0, 2.0]]);
        let mut opt = Adam::with_weight_decay(0.1, 0.01);
        for _ in 0..7 {
            tape.reset();
            let loss = w.mse(&target);
            tape.backward(&loss);
            opt.step(std::slice::from_ref(&w));
        }
        let state = state_round_trip(&opt.export_state());
        let mut restored = Adam::from_state(&state);
        let frozen = w.value();

        // Continue the original.
        for _ in 0..5 {
            tape.reset();
            let loss = w.mse(&target);
            tape.backward(&loss);
            opt.step(std::slice::from_ref(&w));
        }
        let original_final = w.value();

        // Rewind the parameter and continue the restored copy.
        w.set_value(frozen);
        for _ in 0..5 {
            tape.reset();
            let loss = w.mse(&target);
            tape.backward(&loss);
            restored.step(std::slice::from_ref(&w));
        }
        let restored_final = w.value();
        for r in 0..original_final.rows() {
            for c in 0..original_final.cols() {
                assert_eq!(
                    original_final[(r, c)].to_bits(),
                    restored_final[(r, c)].to_bits(),
                    "restored Adam diverged at ({r}, {c})"
                );
            }
        }
    }

    /// Clone-through-state identity: export → from_state → export is stable.
    fn state_round_trip(state: &AdamState) -> AdamState {
        let rebuilt = Adam::from_state(state);
        let again = rebuilt.export_state();
        assert_eq!(*state, again);
        again
    }

    /// The matrix-at-a-time Adam step this module used before the fused
    /// in-place one, kept verbatim as the bit oracle for [`Adam::step`].
    struct ReferenceAdam {
        lr: f64,
        beta1: f64,
        beta2: f64,
        eps: f64,
        weight_decay: f64,
        t: u64,
        m: HashMap<usize, Matrix>,
        v: HashMap<usize, Matrix>,
    }

    impl ReferenceAdam {
        fn with_weight_decay(lr: f64, weight_decay: f64) -> Self {
            ReferenceAdam {
                lr,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                weight_decay,
                t: 0,
                m: HashMap::new(),
                v: HashMap::new(),
            }
        }
    }

    impl Optimizer for ReferenceAdam {
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
                if self.weight_decay > 0.0 {
                    let decayed = value.scale(self.weight_decay);
                    value.add_scaled_assign(&decayed, -self.lr);
                }
                value.add_scaled_assign(&update, -self.lr);
                p.set_value(value);
            }
        }

        fn learning_rate(&self) -> f64 {
            self.lr
        }

        fn set_learning_rate(&mut self, lr: f64) {
            self.lr = lr;
        }
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The fused step against the reference over several steps, with and
    /// without weight decay, on parameters of three shapes — one of which
    /// never reaches the loss, so its gradient is all zero.
    #[test]
    fn fused_adam_step_is_bit_identical_to_reference() {
        let init = [
            Matrix::from_rows(&[&[0.3, -1.2, 0.7], &[2.5, -0.05, 1e-3]]),
            Matrix::from_rows(&[&[-0.4, 0.9, 0.0]]),
            Matrix::from_rows(&[&[1.5, -2.0], &[0.25, 3.0]]),
        ];
        let x = Matrix::from_rows(&[&[1.0, -0.5], &[0.2, 2.0], &[-1.5, 0.3]]);
        let target = Matrix::from_rows(&[&[0.1, 0.9, -0.3], &[0.4, -0.8, 0.6], &[1.2, 0.0, -0.2]]);
        // Eight steps (the learning rate drops before the sixth); returns
        // every parameter's bits after each step.
        let run = |opt: &mut dyn Optimizer| {
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
                if round == 5 {
                    opt.set_learning_rate(0.004);
                }
                opt.step(&params);
                trace.push(params.iter().map(|p| bits(&p.value())).collect::<Vec<_>>());
            }
            trace
        };
        for weight_decay in [0.0, 0.01] {
            let mut fused = Adam::with_weight_decay(0.02, weight_decay);
            let mut reference = ReferenceAdam::with_weight_decay(0.02, weight_decay);
            let fused_trace = run(&mut fused);
            assert_eq!(
                fused_trace,
                run(&mut reference),
                "weight decay {weight_decay}"
            );
            let state = fused.export_state();
            assert_eq!(state.t, reference.t);
            for (moments, expected) in [(&state.m, &reference.m), (&state.v, &reference.v)] {
                assert_eq!(moments.len(), expected.len());
                for (i, matrix) in moments {
                    assert_eq!(bits(matrix), bits(&expected[i]), "moment of parameter {i}");
                }
            }
            // The all-zero gradient still moved its parameter under decay
            // (and only then).
            let moved = fused_trace.last().unwrap()[2] != bits(&init[2]);
            assert_eq!(moved, weight_decay > 0.0);
        }
    }

    #[test]
    fn adam_export_is_sorted_and_fresh_state_is_empty() {
        let opt = Adam::new(0.05);
        let state = opt.export_state();
        assert_eq!(state.t, 0);
        assert!(state.m.is_empty() && state.v.is_empty());
        assert_eq!(state.lr, 0.05);
        let tape = Tape::new();
        let params: Vec<_> = (0..4)
            .map(|i| tape.parameter(Matrix::from_rows(&[&[i as f64]])))
            .collect();
        let mut opt = Adam::new(0.05);
        tape.reset();
        let loss = params[0]
            .mse(&Matrix::from_rows(&[&[1.0]]))
            .add(&params[3].mse(&Matrix::from_rows(&[&[2.0]])));
        tape.backward(&loss);
        opt.step(&params);
        let state = opt.export_state();
        let indices: Vec<usize> = state.m.iter().map(|(i, _)| *i).collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(indices, sorted, "moment export must be index-sorted");
    }
}
