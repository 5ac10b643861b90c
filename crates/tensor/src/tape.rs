use std::cell::RefCell;
use std::rc::Rc;

use qrand::Rng;

use crate::Matrix;

/// The operation that produced a node — the recipe `backward` replays.
#[derive(Debug, Clone)]
enum Op {
    /// Leaf node (parameter or constant); no parents.
    Leaf,
    Add(usize, usize),
    Sub(usize, usize),
    Hadamard(usize, usize),
    MatMul(usize, usize),
    Scale(usize, f64),
    Relu(usize),
    LeakyRelu(usize, f64),
    Sigmoid(usize),
    Tanh(usize),
    Abs(usize),
    Huber(usize, f64),
    Transpose(usize),
    SumAll(usize),
    MeanRows(usize),
    ConcatCols(usize, usize),
    /// Elementwise product with a fixed (pre-scaled) dropout mask.
    Dropout(usize, Matrix),
    /// Per-row softmax restricted to positions where the mask is non-zero.
    MaskedRowSoftmax(usize, Matrix),
    /// `out[v] = elementwise max over rows listed in neighbors[v]`; the
    /// flattened argmax (`usize::MAX` for empty neighborhoods) routes the
    /// gradient.
    NeighborMax(usize, Rc<Vec<Vec<usize>>>, Vec<usize>),
}

#[derive(Debug)]
struct Node {
    value: Matrix,
    grad: Matrix,
    op: Op,
}

#[derive(Debug, Default)]
struct Inner {
    nodes: Vec<Node>,
    persistent: usize,
    training: bool,
}

/// A reverse-mode autodiff tape.
///
/// Parameters are registered first (persistent nodes); every forward pass
/// then appends ephemeral nodes which [`Tape::reset`] discards while keeping
/// the parameters (and their values) alive. This is the classic
/// define-by-run pattern: build, [`Tape::backward`], step the optimizer,
/// reset, repeat.
///
/// # Example
///
/// ```
/// use tensor::{Matrix, Tape};
///
/// let tape = Tape::new();
/// let w = tape.parameter(Matrix::from_rows(&[&[2.0]]));
/// let x = tape.constant(Matrix::from_rows(&[&[3.0]]));
/// let y = w.hadamard(&x); // y = w*x
/// let loss = y.sum();
/// tape.backward(&loss);
/// assert_eq!(w.grad()[(0, 0)], 3.0); // dy/dw = x
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tape {
    inner: Rc<RefCell<Inner>>,
}

/// A handle to one node on a [`Tape`].
///
/// Cheap to clone; all state lives on the tape.
#[derive(Debug, Clone)]
pub struct Tensor {
    tape: Tape,
    id: usize,
}

impl Tape {
    /// Creates an empty tape in training mode.
    pub fn new() -> Self {
        Tape {
            inner: Rc::new(RefCell::new(Inner {
                nodes: Vec::new(),
                persistent: 0,
                training: true,
            })),
        }
    }

    fn push(&self, value: Matrix, op: Op) -> Tensor {
        let grad = Matrix::zeros(value.rows(), value.cols());
        let mut inner = self.inner.borrow_mut();
        inner.nodes.push(Node { value, grad, op });
        Tensor {
            tape: self.clone(),
            id: inner.nodes.len() - 1,
        }
    }

    /// Registers a persistent parameter (trainable leaf).
    ///
    /// # Panics
    ///
    /// Panics if ephemeral nodes already exist — parameters must be created
    /// before the first forward pass (or right after [`Tape::reset`]).
    pub fn parameter(&self, value: Matrix) -> Tensor {
        {
            let inner = self.inner.borrow();
            assert_eq!(
                inner.nodes.len(),
                inner.persistent,
                "parameters must be registered before any forward computation"
            );
        }
        let t = self.push(value, Op::Leaf);
        self.inner.borrow_mut().persistent += 1;
        t
    }

    /// Creates an ephemeral constant leaf (input data); removed by
    /// [`Tape::reset`], receives a gradient but no optimizer ever reads it.
    pub fn constant(&self, value: Matrix) -> Tensor {
        self.push(value, Op::Leaf)
    }

    /// Discards all ephemeral nodes and zeroes every gradient. Parameter
    /// values survive.
    pub fn reset(&self) {
        let mut inner = self.inner.borrow_mut();
        let persistent = inner.persistent;
        inner.nodes.truncate(persistent);
        for node in &mut inner.nodes {
            node.grad = Matrix::zeros(node.value.rows(), node.value.cols());
        }
    }

    /// Whether dropout (and other train-only behavior) is active.
    pub fn is_training(&self) -> bool {
        self.inner.borrow().training
    }

    /// Switches between training and evaluation mode.
    pub fn set_training(&self, training: bool) {
        self.inner.borrow_mut().training = training;
    }

    /// Total node count (parameters + ephemerals); useful for leak checks.
    pub fn num_nodes(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// Runs reverse-mode differentiation from `output`, accumulating
    /// gradients on every node that feeds it.
    ///
    /// # Panics
    ///
    /// Panics if `output` is not a `1 × 1` scalar or lives on another tape.
    pub fn backward(&self, output: &Tensor) {
        assert!(
            Rc::ptr_eq(&self.inner, &output.tape.inner),
            "output tensor lives on a different tape"
        );
        let mut inner = self.inner.borrow_mut();
        let out_id = output.id;
        assert_eq!(
            inner.nodes[out_id].value.shape(),
            (1, 1),
            "backward requires a scalar (1x1) output"
        );
        // Zero all gradients, then seed the output with 1.
        for node in &mut inner.nodes {
            node.grad = Matrix::zeros(node.value.rows(), node.value.cols());
        }
        inner.nodes[out_id].grad[(0, 0)] = 1.0;

        for id in (0..=out_id).rev() {
            let op = inner.nodes[id].op.clone();
            let grad = inner.nodes[id].grad.clone();
            if grad.max_abs() == 0.0 {
                continue;
            }
            match op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    inner.nodes[a].grad.add_scaled_assign(&grad, 1.0);
                    inner.nodes[b].grad.add_scaled_assign(&grad, 1.0);
                }
                Op::Sub(a, b) => {
                    inner.nodes[a].grad.add_scaled_assign(&grad, 1.0);
                    inner.nodes[b].grad.add_scaled_assign(&grad, -1.0);
                }
                Op::Hadamard(a, b) => {
                    let ga = grad.hadamard(&inner.nodes[b].value);
                    let gb = grad.hadamard(&inner.nodes[a].value);
                    inner.nodes[a].grad.add_scaled_assign(&ga, 1.0);
                    inner.nodes[b].grad.add_scaled_assign(&gb, 1.0);
                }
                Op::MatMul(a, b) => {
                    let ga = grad.matmul(&inner.nodes[b].value.transpose());
                    let gb = inner.nodes[a].value.transpose().matmul(&grad);
                    inner.nodes[a].grad.add_scaled_assign(&ga, 1.0);
                    inner.nodes[b].grad.add_scaled_assign(&gb, 1.0);
                }
                Op::Scale(a, s) => {
                    inner.nodes[a].grad.add_scaled_assign(&grad, s);
                }
                Op::Relu(a) => {
                    let mask = inner.nodes[a].value.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                    let ga = grad.hadamard(&mask);
                    inner.nodes[a].grad.add_scaled_assign(&ga, 1.0);
                }
                Op::LeakyRelu(a, slope) => {
                    let mask = inner.nodes[a]
                        .value
                        .map(|v| if v > 0.0 { 1.0 } else { slope });
                    let ga = grad.hadamard(&mask);
                    inner.nodes[a].grad.add_scaled_assign(&ga, 1.0);
                }
                Op::Sigmoid(a) => {
                    // y = σ(x): dy/dx = y (1 - y); the node value is y.
                    let y = &inner.nodes[id].value;
                    let d = y.map(|v| v * (1.0 - v));
                    let ga = grad.hadamard(&d);
                    inner.nodes[a].grad.add_scaled_assign(&ga, 1.0);
                }
                Op::Tanh(a) => {
                    let y = &inner.nodes[id].value;
                    let d = y.map(|v| 1.0 - v * v);
                    let ga = grad.hadamard(&d);
                    inner.nodes[a].grad.add_scaled_assign(&ga, 1.0);
                }
                Op::Abs(a) => {
                    let sign = inner.nodes[a]
                        .value
                        .map(|v| if v > 0.0 { 1.0 } else if v < 0.0 { -1.0 } else { 0.0 });
                    let ga = grad.hadamard(&sign);
                    inner.nodes[a].grad.add_scaled_assign(&ga, 1.0);
                }
                Op::Huber(a, delta) => {
                    // huber'(x) = x for |x| <= δ, δ·sign(x) otherwise.
                    let d = inner.nodes[a].value.map(|v| {
                        if v.abs() <= delta {
                            v
                        } else {
                            delta * v.signum()
                        }
                    });
                    let ga = grad.hadamard(&d);
                    inner.nodes[a].grad.add_scaled_assign(&ga, 1.0);
                }
                Op::Transpose(a) => {
                    let ga = grad.transpose();
                    inner.nodes[a].grad.add_scaled_assign(&ga, 1.0);
                }
                Op::SumAll(a) => {
                    let g = grad[(0, 0)];
                    let shape = inner.nodes[a].value.shape();
                    let ga = Matrix::full(shape.0, shape.1, g);
                    inner.nodes[a].grad.add_scaled_assign(&ga, 1.0);
                }
                Op::MeanRows(a) => {
                    let rows = inner.nodes[a].value.rows();
                    let cols = inner.nodes[a].value.cols();
                    let mut ga = Matrix::zeros(rows, cols);
                    for r in 0..rows {
                        for c in 0..cols {
                            ga[(r, c)] = grad[(0, c)] / rows as f64;
                        }
                    }
                    inner.nodes[a].grad.add_scaled_assign(&ga, 1.0);
                }
                Op::ConcatCols(a, b) => {
                    let ca = inner.nodes[a].value.cols();
                    let rows = grad.rows();
                    let cb = inner.nodes[b].value.cols();
                    let mut ga = Matrix::zeros(rows, ca);
                    let mut gb = Matrix::zeros(rows, cb);
                    for r in 0..rows {
                        for c in 0..ca {
                            ga[(r, c)] = grad[(r, c)];
                        }
                        for c in 0..cb {
                            gb[(r, c)] = grad[(r, ca + c)];
                        }
                    }
                    inner.nodes[a].grad.add_scaled_assign(&ga, 1.0);
                    inner.nodes[b].grad.add_scaled_assign(&gb, 1.0);
                }
                Op::Dropout(a, mask) => {
                    let ga = grad.hadamard(&mask);
                    inner.nodes[a].grad.add_scaled_assign(&ga, 1.0);
                }
                Op::MaskedRowSoftmax(a, mask) => {
                    // y_i = softmax over masked entries; for each row:
                    // dx_i = y_i (g_i - Σ_j g_j y_j), masked positions only.
                    let y = inner.nodes[id].value.clone();
                    let rows = y.rows();
                    let cols = y.cols();
                    let mut ga = Matrix::zeros(rows, cols);
                    for r in 0..rows {
                        let mut dot = 0.0;
                        for c in 0..cols {
                            if mask[(r, c)] != 0.0 {
                                dot += grad[(r, c)] * y[(r, c)];
                            }
                        }
                        for c in 0..cols {
                            if mask[(r, c)] != 0.0 {
                                ga[(r, c)] = y[(r, c)] * (grad[(r, c)] - dot);
                            }
                        }
                    }
                    inner.nodes[a].grad.add_scaled_assign(&ga, 1.0);
                }
                Op::NeighborMax(a, _nbrs, argmax) => {
                    let cols = grad.cols();
                    let rows = grad.rows();
                    let a_cols = inner.nodes[a].value.cols();
                    let mut ga = Matrix::zeros(inner.nodes[a].value.rows(), a_cols);
                    for v in 0..rows {
                        for c in 0..cols {
                            let src = argmax[v * cols + c];
                            if src != usize::MAX {
                                ga[(src, c)] += grad[(v, c)];
                            }
                        }
                    }
                    inner.nodes[a].grad.add_scaled_assign(&ga, 1.0);
                }
            }
        }
    }
}

impl Tensor {
    fn assert_same_tape(&self, other: &Tensor) {
        assert!(
            Rc::ptr_eq(&self.tape.inner, &other.tape.inner),
            "tensors live on different tapes"
        );
    }

    /// The current value (cloned out of the tape).
    pub fn value(&self) -> Matrix {
        self.tape.inner.borrow().nodes[self.id].value.clone()
    }

    /// The current gradient (cloned); zero until [`Tape::backward`] runs.
    pub fn grad(&self) -> Matrix {
        self.tape.inner.borrow().nodes[self.id].grad.clone()
    }

    /// Overwrites the value in place (used by optimizers).
    ///
    /// # Panics
    ///
    /// Panics if the shape changes.
    pub fn set_value(&self, value: Matrix) {
        let mut inner = self.tape.inner.borrow_mut();
        assert_eq!(
            inner.nodes[self.id].value.shape(),
            value.shape(),
            "set_value must preserve shape"
        );
        inner.nodes[self.id].value = value;
    }

    /// `(rows, cols)` of the value.
    pub fn shape(&self) -> (usize, usize) {
        self.tape.inner.borrow().nodes[self.id].value.shape()
    }

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or different tapes.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.assert_same_tape(other);
        let v = self.value().add(&other.value());
        self.tape.push(v, Op::Add(self.id, other.id))
    }

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or different tapes.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.assert_same_tape(other);
        let v = self.value().sub(&other.value());
        self.tape.push(v, Op::Sub(self.id, other.id))
    }

    /// Elementwise product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or different tapes.
    pub fn hadamard(&self, other: &Tensor) -> Tensor {
        self.assert_same_tape(other);
        let v = self.value().hadamard(&other.value());
        self.tape.push(v, Op::Hadamard(self.id, other.id))
    }

    /// Matrix product.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or different tapes.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.assert_same_tape(other);
        let v = self.value().matmul(&other.value());
        self.tape.push(v, Op::MatMul(self.id, other.id))
    }

    /// Multiplication by a scalar constant.
    pub fn scale(&self, s: f64) -> Tensor {
        self.tape.push(self.value().scale(s), Op::Scale(self.id, s))
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        let v = self.value().map(crate::activation::relu);
        self.tape.push(v, Op::Relu(self.id))
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&self, slope: f64) -> Tensor {
        let v = self.value().map(|x| crate::activation::leaky_relu(x, slope));
        self.tape.push(v, Op::LeakyRelu(self.id, slope))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        let v = self.value().map(crate::activation::sigmoid);
        self.tape.push(v, Op::Sigmoid(self.id))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        let v = self.value().map(f64::tanh);
        self.tape.push(v, Op::Tanh(self.id))
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        let v = self.value().map(f64::abs);
        self.tape.push(v, Op::Abs(self.id))
    }

    /// Elementwise Huber function `0.5x²` for `|x| ≤ δ`, else
    /// `δ(|x| − δ/2)`.
    ///
    /// # Panics
    ///
    /// Panics if `delta <= 0`.
    pub fn huber(&self, delta: f64) -> Tensor {
        assert!(delta > 0.0, "huber delta must be positive");
        let v = self.value().map(|x| {
            if x.abs() <= delta {
                0.5 * x * x
            } else {
                delta * (x.abs() - 0.5 * delta)
            }
        });
        self.tape.push(v, Op::Huber(self.id, delta))
    }

    /// Transpose.
    pub fn transpose(&self) -> Tensor {
        self.tape
            .push(self.value().transpose(), Op::Transpose(self.id))
    }

    /// Sum of all entries as a `1 × 1` tensor.
    pub fn sum(&self) -> Tensor {
        let v = Matrix::from_rows(&[&[self.value().sum()]]);
        self.tape.push(v, Op::SumAll(self.id))
    }

    /// Mean of all entries as a `1 × 1` tensor.
    pub fn mean(&self) -> Tensor {
        let numel = {
            let (r, c) = self.shape();
            (r * c) as f64
        };
        self.sum().scale(1.0 / numel)
    }

    /// Column-wise mean as a `1 × cols` tensor (graph-level mean pooling,
    /// Eq. 9 of the paper with READOUT = mean).
    pub fn mean_rows(&self) -> Tensor {
        let v = self.value().mean_rows();
        self.tape.push(v, Op::MeanRows(self.id))
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    ///
    /// Panics on row-count mismatch or different tapes.
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        self.assert_same_tape(other);
        let v = self.value().concat_cols(&other.value());
        self.tape.push(v, Op::ConcatCols(self.id, other.id))
    }

    /// Inverted dropout: in training mode each entry is zeroed with
    /// probability `p` and survivors are scaled by `1/(1-p)`; in eval mode
    /// this is the identity.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn dropout<R: Rng + ?Sized>(&self, p: f64, rng: &mut R) -> Tensor {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
        if !self.tape.is_training() || p == 0.0 {
            return self.clone();
        }
        let keep = 1.0 - p;
        let value = self.value();
        let mask = value.map(|_| if rng.gen::<f64>() < keep { 1.0 / keep } else { 0.0 });
        let v = value.hadamard(&mask);
        self.tape.push(v, Op::Dropout(self.id, mask))
    }

    /// Per-row softmax restricted to positions where `mask` is non-zero;
    /// masked-out positions produce 0. Rows whose mask is entirely zero
    /// produce an all-zero row. This is the attention normalization of GAT
    /// (Eq. 7).
    ///
    /// # Panics
    ///
    /// Panics if `mask` has a different shape.
    pub fn masked_row_softmax(&self, mask: &Matrix) -> Tensor {
        let y = self.value().masked_row_softmax(mask);
        self.tape
            .push(y, Op::MaskedRowSoftmax(self.id, mask.clone()))
    }

    /// Row-wise elementwise max over each node's neighbor rows:
    /// `out[v][j] = max_{u ∈ neighbors[v]} self[u][j]` (GraphSAGE max
    /// pooling, Eq. 3). Nodes with no neighbors produce a zero row.
    ///
    /// # Panics
    ///
    /// Panics if any neighbor index is out of range.
    pub fn neighbor_max(&self, neighbors: &Rc<Vec<Vec<usize>>>) -> Tensor {
        let (y, argmax) = self.value().neighbor_argmax(neighbors);
        self.tape
            .push(y, Op::NeighborMax(self.id, Rc::clone(neighbors), argmax))
    }

    /// Mean-squared-error loss against a constant target, as a scalar
    /// tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mse(&self, target: &Matrix) -> Tensor {
        let t = self.tape.constant(target.clone());
        let d = self.sub(&t);
        d.hadamard(&d).mean()
    }

    /// Mean-absolute-error loss against a constant target.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mae(&self, target: &Matrix) -> Tensor {
        let t = self.tape.constant(target.clone());
        self.sub(&t).abs().mean()
    }

    /// Mean Huber loss against a constant target.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or `delta <= 0`.
    pub fn huber_loss(&self, target: &Matrix, delta: f64) -> Tensor {
        let t = self.tape.constant(target.clone());
        self.sub(&t).huber(delta).mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrand::rngs::StdRng;
    use qrand::SeedableRng;

    /// Central-difference gradient check: perturbs every entry of `param`
    /// and compares with the autodiff gradient.
    fn grad_check<F>(build: F, param_value: Matrix, tolerance: f64)
    where
        F: Fn(&Tape, &Tensor) -> Tensor,
    {
        let tape = Tape::new();
        let param = tape.parameter(param_value.clone());
        let loss = build(&tape, &param);
        tape.backward(&loss);
        let analytic = param.grad();

        let eps = 1e-5;
        let (rows, cols) = param_value.shape();
        for r in 0..rows {
            for c in 0..cols {
                let eval = |delta: f64| {
                    let tape = Tape::new();
                    let mut v = param_value.clone();
                    v[(r, c)] += delta;
                    let p = tape.parameter(v);
                    build(&tape, &p).value()[(0, 0)]
                };
                let numeric = (eval(eps) - eval(-eps)) / (2.0 * eps);
                let a = analytic[(r, c)];
                assert!(
                    (a - numeric).abs() < tolerance,
                    "grad mismatch at ({r},{c}): analytic {a}, numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn grad_of_linear_chain() {
        grad_check(
            |_tape, p| p.scale(3.0).sum(),
            Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 4.0]]),
            1e-6,
        );
    }

    #[test]
    fn grad_of_matmul() {
        grad_check(
            |tape, p| {
                let x = tape.constant(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, -1.0]]));
                x.matmul(p).sum()
            },
            Matrix::from_rows(&[&[0.3, -0.7], &[1.1, 0.2]]),
            1e-5,
        );
    }

    #[test]
    fn grad_of_activations() {
        let init = Matrix::from_rows(&[&[0.5, -0.8], &[1.2, -0.1]]);
        grad_check(|_t, p| p.relu().sum(), init.clone(), 1e-5);
        grad_check(|_t, p| p.leaky_relu(0.2).sum(), init.clone(), 1e-5);
        grad_check(|_t, p| p.sigmoid().sum(), init.clone(), 1e-5);
        grad_check(|_t, p| p.tanh().sum(), init.clone(), 1e-5);
        grad_check(|_t, p| p.abs().sum(), init.clone(), 1e-5);
        grad_check(|_t, p| p.huber(0.6).sum(), init, 1e-5);
    }

    #[test]
    fn grad_of_elementwise_and_reductions() {
        let init = Matrix::from_rows(&[&[0.5, -0.8, 0.3]]);
        grad_check(
            |t, p| {
                let c = t.constant(Matrix::from_rows(&[&[2.0, 0.5, -1.0]]));
                p.hadamard(&c).add(&c).sub(p).mean()
            },
            init.clone(),
            1e-5,
        );
        grad_check(|_t, p| p.mean_rows().sum(), Matrix::ones(3, 2), 1e-5);
        grad_check(|_t, p| p.transpose().sum(), init, 1e-5);
    }

    #[test]
    fn grad_of_square_via_self_hadamard() {
        // d/dx sum(x ⊙ x) = 2x — exercises duplicate-parent accumulation.
        let tape = Tape::new();
        let p = tape.parameter(Matrix::from_rows(&[&[3.0, -2.0]]));
        let loss = p.hadamard(&p).sum();
        tape.backward(&loss);
        assert_eq!(p.grad(), Matrix::from_rows(&[&[6.0, -4.0]]));
    }

    #[test]
    fn grad_of_concat() {
        grad_check(
            |t, p| {
                let c = t.constant(Matrix::from_rows(&[&[1.0], &[2.0]]));
                let w = t.constant(Matrix::from_rows(&[&[1.0], &[-1.0], &[0.5]]));
                p.concat_cols(&c).matmul(&w).sum()
            },
            Matrix::from_rows(&[&[0.3, 0.4], &[0.5, 0.6]]),
            1e-5,
        );
    }

    #[test]
    fn grad_of_masked_softmax() {
        let mask = Matrix::from_rows(&[&[1.0, 1.0, 0.0], &[0.0, 1.0, 1.0]]);
        grad_check(
            |t, p| {
                let w = t.constant(Matrix::from_rows(&[&[0.7], &[-0.3], &[0.9]]));
                p.masked_row_softmax(&mask.clone()).matmul(&w).sum()
            },
            Matrix::from_rows(&[&[0.2, -0.5, 9.0], &[1.0, 0.3, 0.4]]),
            1e-5,
        );
    }

    #[test]
    fn masked_softmax_rows_sum_to_one_on_mask() {
        let tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.1, 0.2, 0.3]]));
        let mask = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 0.0, 0.0]]);
        let y = x.masked_row_softmax(&mask).value();
        assert!((y[(0, 0)] + y[(0, 2)] - 1.0).abs() < 1e-12);
        assert_eq!(y[(0, 1)], 0.0);
        // Fully masked row stays zero.
        assert_eq!(y.row(1), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn grad_of_neighbor_max() {
        let neighbors = Rc::new(vec![vec![1, 2], vec![0], vec![]]);
        grad_check(
            |t, p| {
                let w = t.constant(Matrix::from_rows(&[&[1.0], &[2.0]]));
                p.neighbor_max(&neighbors).matmul(&w).sum()
            },
            Matrix::from_rows(&[&[0.5, 1.5], &[2.5, 0.1], &[1.0, 3.0]]),
            1e-5,
        );
    }

    #[test]
    fn neighbor_max_values_and_empty() {
        let tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[&[1.0, 5.0], &[3.0, 2.0], &[0.0, 9.0]]));
        let neighbors = Rc::new(vec![vec![1, 2], vec![0], vec![]]);
        let y = x.neighbor_max(&neighbors).value();
        assert_eq!(y.row(0), &[3.0, 9.0]);
        assert_eq!(y.row(1), &[1.0, 5.0]);
        assert_eq!(y.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn dropout_train_vs_eval() {
        let tape = Tape::new();
        let x = tape.constant(Matrix::ones(10, 10));
        let mut rng = StdRng::seed_from_u64(81);
        let dropped = x.dropout(0.5, &mut rng).value();
        // Some zeros, survivors scaled to 2.
        let zeros = dropped.data().iter().filter(|&&v| v == 0.0).count();
        assert!(zeros > 10 && zeros < 90);
        assert!(dropped.data().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-12));

        tape.set_training(false);
        let kept = x.dropout(0.5, &mut rng).value();
        assert_eq!(kept, Matrix::ones(10, 10));
    }

    #[test]
    fn grad_of_dropout_routes_through_mask() {
        let tape = Tape::new();
        let p = tape.parameter(Matrix::ones(4, 4));
        let mut rng = StdRng::seed_from_u64(82);
        let y = p.dropout(0.5, &mut rng);
        let loss = y.sum();
        tape.backward(&loss);
        // Gradient equals the mask itself.
        assert_eq!(p.grad(), y.value());
    }

    #[test]
    fn losses_match_hand_computation() {
        let tape = Tape::new();
        let pred = tape.constant(Matrix::from_rows(&[&[1.0, 2.0]]));
        let target = Matrix::from_rows(&[&[0.0, 4.0]]);
        assert!((pred.mse(&target).value()[(0, 0)] - 2.5).abs() < 1e-12);
        assert!((pred.mae(&target).value()[(0, 0)] - 1.5).abs() < 1e-12);
        // Huber δ=1: 0.5·1² and 1·(2−0.5) → mean = (0.5 + 1.5)/2 = 1.0.
        assert!((pred.huber_loss(&target, 1.0).value()[(0, 0)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn grad_of_mse_loss() {
        grad_check(
            |_t, p| p.mse(&Matrix::from_rows(&[&[1.0, -1.0]])),
            Matrix::from_rows(&[&[0.3, 0.6]]),
            1e-5,
        );
    }

    #[test]
    fn reset_preserves_parameters() {
        let tape = Tape::new();
        let p = tape.parameter(Matrix::ones(2, 2));
        let c = tape.constant(Matrix::ones(2, 2));
        let _ = p.add(&c);
        assert_eq!(tape.num_nodes(), 3);
        tape.reset();
        assert_eq!(tape.num_nodes(), 1);
        assert_eq!(p.value(), Matrix::ones(2, 2));
        // Parameters can be updated and reused after reset.
        p.set_value(Matrix::zeros(2, 2));
        let c2 = tape.constant(Matrix::ones(2, 2));
        assert_eq!(p.add(&c2).value(), Matrix::ones(2, 2));
    }

    #[test]
    #[should_panic(expected = "before any forward computation")]
    fn late_parameter_rejected() {
        let tape = Tape::new();
        let _ = tape.constant(Matrix::ones(1, 1));
        let _ = tape.parameter(Matrix::ones(1, 1));
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_rejects_non_scalar() {
        let tape = Tape::new();
        let p = tape.parameter(Matrix::ones(2, 2));
        tape.backward(&p.relu());
    }

    #[test]
    #[should_panic(expected = "different tapes")]
    fn cross_tape_ops_rejected() {
        let t1 = Tape::new();
        let t2 = Tape::new();
        let a = t1.constant(Matrix::ones(1, 1));
        let b = t2.constant(Matrix::ones(1, 1));
        let _ = a.add(&b);
    }

    #[test]
    fn backward_twice_gives_same_grads() {
        let tape = Tape::new();
        let p = tape.parameter(Matrix::from_rows(&[&[2.0]]));
        let loss = p.hadamard(&p).sum();
        tape.backward(&loss);
        let g1 = p.grad();
        tape.backward(&loss);
        assert_eq!(p.grad(), g1, "gradients must be zeroed between passes");
    }
}
