//! Property-based tests for the autodiff engine: gradients of randomly
//! composed computation graphs must match central finite differences.

use qcheck::{any_u64, choice, prop_assert, prop_assert_eq, properties, Gen};

use tensor::{Matrix, Tape, Tensor};

/// The pool of unary ops the random graphs draw from.
#[derive(Debug, Clone, Copy)]
enum UnaryOp {
    Relu,
    LeakyRelu,
    Sigmoid,
    Scale,
    Transpose,
}

fn apply_unary(op: UnaryOp, x: &Tensor) -> Tensor {
    match op {
        UnaryOp::Relu => x.relu(),
        UnaryOp::LeakyRelu => x.leaky_relu(0.1),
        UnaryOp::Sigmoid => x.sigmoid(),
        UnaryOp::Scale => x.scale(1.7),
        // Double transpose keeps the shape compatible with later binary ops.
        UnaryOp::Transpose => x.transpose().transpose(),
    }
}

fn arb_unary() -> impl Gen<Item = UnaryOp> {
    choice([
        UnaryOp::Relu,
        UnaryOp::LeakyRelu,
        UnaryOp::Sigmoid,
        UnaryOp::Scale,
        UnaryOp::Transpose,
    ])
}

/// Entries away from activation kinks (ReLU at 0) so finite differences
/// are well-behaved: magnitude in [0.05, 2), either sign.
fn arb_entries(n: usize) -> impl Gen<Item = Vec<f64>> {
    qcheck::vec(
        qcheck::map((0.05f64..2.0, qcheck::choice([1.0f64, -1.0])), |(m, s)| {
            m * s
        }),
        n..=n,
    )
}

fn scalar_loss(tape: &Tape, param: &Tensor, ops: &[UnaryOp], mixer: &Matrix) -> Tensor {
    let mut h = param.clone();
    for &op in ops {
        h = apply_unary(op, &h);
    }
    let m = tape.constant(mixer.clone());
    h.matmul(&m).sum()
}

properties! {
    cases = 64;

    fn random_graphs_gradcheck(
        rows in 1usize..4,
        cols in 1usize..4,
        entries in arb_entries(9),
        mix in arb_entries(9),
        ops in qcheck::vec(arb_unary(), 0usize..4),
    ) {
        let value = Matrix::from_flat(rows, cols, entries[..rows * cols].to_vec());
        let mixer = Matrix::from_flat(cols, 1, mix[..cols].to_vec());

        let tape = Tape::new();
        let param = tape.parameter(value.clone());
        let loss = scalar_loss(&tape, &param, &ops, &mixer);
        tape.backward(&loss);
        let analytic = param.grad();

        let eps = 1e-5;
        for r in 0..rows {
            for c in 0..cols {
                let eval = |delta: f64| {
                    let tape = Tape::new();
                    let mut v = value.clone();
                    v[(r, c)] += delta;
                    let p = tape.parameter(v);
                    scalar_loss(&tape, &p, &ops, &mixer).value()[(0, 0)]
                };
                let numeric = (eval(eps) - eval(-eps)) / (2.0 * eps);
                prop_assert!(
                    (analytic[(r, c)] - numeric).abs() < 1e-4,
                    "({r},{c}): analytic {} vs numeric {numeric} with ops {ops:?}",
                    analytic[(r, c)]
                );
            }
        }
    }

    fn matmul_grad_matches_transposed_rule(
        a_entries in arb_entries(6),
        b_entries in arb_entries(6),
    ) {
        // loss = sum(A·B) ⇒ dL/dA = 1 · Bᵀ and dL/dB = Aᵀ · 1.
        let a_val = Matrix::from_flat(2, 3, a_entries);
        let b_val = Matrix::from_flat(3, 2, b_entries);
        let tape = Tape::new();
        let a = tape.parameter(a_val.clone());
        let b = tape.constant(b_val.clone());
        tape.backward(&a.matmul(&b).sum());
        let expected = Matrix::ones(2, 2).matmul(&b_val.transpose());
        let got = a.grad();
        for r in 0..2 {
            for c in 0..3 {
                prop_assert!((got[(r, c)] - expected[(r, c)]).abs() < 1e-10);
            }
        }
    }

    fn mse_gradient_is_two_thirds_residual(
        pred in arb_entries(3),
        target in arb_entries(3),
    ) {
        // d/dp mean((p-t)²) = 2(p-t)/n.
        let p_val = Matrix::from_flat(1, 3, pred.clone());
        let t_val = Matrix::from_flat(1, 3, target.clone());
        let tape = Tape::new();
        let p = tape.parameter(p_val);
        tape.backward(&p.mse(&t_val));
        let grad = p.grad();
        for i in 0..3 {
            let expected = 2.0 * (pred[i] - target[i]) / 3.0;
            prop_assert!((grad[(0, i)] - expected).abs() < 1e-10);
        }
    }

    fn softmax_rows_are_probability_vectors(
        entries in qcheck::vec(-5.0f64..5.0, 12usize..=12),
    ) {
        let tape = Tape::new();
        let x = tape.constant(Matrix::from_flat(3, 4, entries));
        let mask = Matrix::from_rows(&[
            &[1.0, 1.0, 0.0, 1.0],
            &[0.0, 1.0, 1.0, 0.0],
            &[1.0, 1.0, 1.0, 1.0],
        ]);
        let y = x.masked_row_softmax(&mask).value();
        for r in 0..3 {
            let mut sum = 0.0;
            for c in 0..4 {
                prop_assert!(y[(r, c)] >= 0.0);
                if mask[(r, c)] == 0.0 {
                    prop_assert_eq!(y[(r, c)], 0.0);
                }
                sum += y[(r, c)];
            }
            prop_assert!((sum - 1.0).abs() < 1e-10);
        }
    }

    fn dropout_expectation_is_identity(
        p in 0.0f64..0.9,
        seed in any_u64(),
    ) {
        use qrand::rngs::StdRng;
        use qrand::SeedableRng;
        // Inverted dropout: E[mask ⊙ x] = x, so the sample mean over many
        // masks approaches the input.
        let tape = Tape::new();
        let x = tape.constant(Matrix::ones(1, 64));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut total = 0.0;
        let reps = 300;
        for _ in 0..reps {
            total += x.dropout(p, &mut rng).value().mean();
        }
        let mean = total / reps as f64;
        prop_assert!((mean - 1.0).abs() < 0.12, "mean {mean} at p {p}");
    }
}
