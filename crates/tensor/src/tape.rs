use std::cell::RefCell;
use std::rc::Rc;

use qrand::Rng;

use crate::Matrix;

/// The operation that produced a node — the recipe `backward` replays.
#[derive(Debug)]
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
    NeighborMax(usize, Vec<usize>),
}

impl Op {
    /// The ids of the nodes this one was computed from.
    fn inputs(&self) -> impl Iterator<Item = usize> {
        let (a, b) = match *self {
            Op::Leaf => (None, None),
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Hadamard(a, b)
            | Op::MatMul(a, b)
            | Op::ConcatCols(a, b) => (Some(a), Some(b)),
            Op::Scale(a, _)
            | Op::Relu(a)
            | Op::LeakyRelu(a, _)
            | Op::Sigmoid(a)
            | Op::Transpose(a)
            | Op::SumAll(a)
            | Op::MeanRows(a)
            | Op::Dropout(a, _)
            | Op::MaskedRowSoftmax(a, _)
            | Op::NeighborMax(a, _) => (Some(a), None),
        };
        a.into_iter().chain(b)
    }
}

#[derive(Debug)]
struct Node {
    value: Matrix,
    /// `Some` exactly when the node depends on a parameter (parameters do,
    /// constants do not, an op node does if any input does); only those
    /// nodes take a gradient.
    grad: Option<Matrix>,
    op: Op,
}

/// Adds `g · scale` to node `a`'s gradient if it takes one.
fn add_grad(nodes: &mut [Node], a: usize, g: &Matrix, scale: f64) {
    if let Some(grad) = &mut nodes[a].grad {
        grad.add_scaled_assign(g, scale);
    }
}

/// Adds `g ⊙ slope(x)` to node `a`'s gradient in one pass, where `x` is
/// `a`'s value and `slope` a piecewise-constant derivative (ReLU, leaky
/// ReLU). Per entry it adds `g · slope(x)`, the bits [`accumulate`] adds
/// for `g.hadamard(&x.map(slope))` (its `· 1.0` is exact), without building
/// either matrix.
fn accumulate_slope(nodes: &mut [Node], a: usize, g: &Matrix, slope: impl Fn(f64) -> f64) {
    let Node { value, grad, .. } = &mut nodes[a];
    if let Some(grad) = grad {
        assert_eq!(grad.shape(), g.shape(), "gradient shape mismatch");
        let lanes = grad.data_mut().iter_mut().zip(g.data()).zip(value.data());
        for ((acc, &g), &x) in lanes {
            *acc += g * slope(x);
        }
    }
}

/// [`add_grad`] for a contribution that must be computed first: `g` runs
/// only when node `a` takes a gradient.
fn accumulate(nodes: &mut [Node], a: usize, g: impl FnOnce(&[Node]) -> Matrix) {
    if nodes[a].grad.is_some() {
        let g = g(nodes);
        add_grad(nodes, a, &g, 1.0);
    }
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

    /// Appends an op node; it takes a gradient when any input does.
    fn push(&self, value: Matrix, op: Op) -> Tensor {
        let takes_grad = {
            let inner = self.inner.borrow();
            op.inputs().any(|i| inner.nodes[i].grad.is_some())
        };
        self.push_node(value, op, takes_grad)
    }

    fn push_node(&self, value: Matrix, op: Op, takes_grad: bool) -> Tensor {
        let grad = takes_grad.then(|| Matrix::zeros(value.rows(), value.cols()));
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
        let t = self.push_node(value, Op::Leaf, true);
        self.inner.borrow_mut().persistent += 1;
        t
    }

    /// Creates an ephemeral constant leaf (input data); removed by
    /// [`Tape::reset`]. A constant, like any node that does not depend on a
    /// parameter, gets no gradient: [`Tape::backward`] never computes one
    /// for it.
    pub fn constant(&self, value: Matrix) -> Tensor {
        self.push_node(value, Op::Leaf, false)
    }

    /// Discards all ephemeral nodes and zeroes every gradient in place.
    /// Parameter values survive.
    pub fn reset(&self) {
        let mut inner = self.inner.borrow_mut();
        let persistent = inner.persistent;
        inner.nodes.truncate(persistent);
        zero_grads(&mut inner.nodes);
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
    /// gradients on every node that feeds it and depends on a parameter.
    /// Nodes that do not depend on a parameter (constants and anything
    /// computed only from them) are skipped: they get no gradient.
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
        zero_grads(&mut inner.nodes);
        let Some(seed) = &mut inner.nodes[out_id].grad else {
            return;
        };
        seed[(0, 0)] = 1.0;

        for id in (0..=out_id).rev() {
            // Every input id is below `id`, so the inputs and this node are
            // disjoint borrows: nothing is cloned or moved.
            let (nodes, rest) = inner.nodes.split_at_mut(id);
            let node = &rest[0];
            let Some(grad) = &node.grad else {
                continue;
            };
            // A leaf has no inputs to pass a gradient on to. A gradient of
            // only `±0.0` and NaN is skipped too (`max_abs() == 0.0`, but
            // stopping at the first non-zero entry).
            if matches!(node.op, Op::Leaf) || grad.is_zero() {
                continue;
            }
            match node.op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    add_grad(nodes, a, grad, 1.0);
                    add_grad(nodes, b, grad, 1.0);
                }
                Op::Sub(a, b) => {
                    add_grad(nodes, a, grad, 1.0);
                    add_grad(nodes, b, grad, -1.0);
                }
                Op::Hadamard(a, b) => {
                    accumulate(nodes, a, |n| grad.hadamard(&n[b].value));
                    accumulate(nodes, b, |n| grad.hadamard(&n[a].value));
                }
                Op::MatMul(a, b) => {
                    accumulate(nodes, a, |n| grad.matmul(&n[b].value.transpose()));
                    accumulate(nodes, b, |n| n[a].value.transpose_matmul(grad));
                }
                Op::Scale(a, s) => add_grad(nodes, a, grad, s),
                Op::Relu(a) => {
                    accumulate_slope(nodes, a, grad, |v| if v > 0.0 { 1.0 } else { 0.0 })
                }
                Op::LeakyRelu(a, slope) => {
                    accumulate_slope(nodes, a, grad, |v| if v > 0.0 { 1.0 } else { slope })
                }
                // y = σ(x): dy/dx = y (1 - y); the node value is y.
                Op::Sigmoid(a) => accumulate(nodes, a, |_| {
                    grad.hadamard(&node.value.map(|v| v * (1.0 - v)))
                }),
                Op::Transpose(a) => accumulate(nodes, a, |_| grad.transpose()),
                Op::SumAll(a) => accumulate(nodes, a, |n| {
                    let (rows, cols) = n[a].value.shape();
                    Matrix::full(rows, cols, grad[(0, 0)])
                }),
                Op::MeanRows(a) => accumulate(nodes, a, |n| {
                    let (rows, cols) = n[a].value.shape();
                    let mut ga = Matrix::zeros(rows, cols);
                    for r in 0..rows {
                        for c in 0..cols {
                            ga[(r, c)] = grad[(0, c)] / rows as f64;
                        }
                    }
                    ga
                }),
                Op::ConcatCols(a, b) => {
                    let ca = nodes[a].value.cols();
                    let rows = grad.rows();
                    accumulate(nodes, a, |_| {
                        let mut ga = Matrix::zeros(rows, ca);
                        for r in 0..rows {
                            ga.data_mut()[r * ca..(r + 1) * ca].copy_from_slice(&grad.row(r)[..ca]);
                        }
                        ga
                    });
                    accumulate(nodes, b, |n| {
                        let cb = n[b].value.cols();
                        let mut gb = Matrix::zeros(rows, cb);
                        for r in 0..rows {
                            gb.data_mut()[r * cb..(r + 1) * cb].copy_from_slice(&grad.row(r)[ca..]);
                        }
                        gb
                    });
                }
                Op::Dropout(a, ref mask) => accumulate(nodes, a, |_| grad.hadamard(mask)),
                // y_i = softmax over masked entries; for each row:
                // dx_i = y_i (g_i - Σ_j g_j y_j), masked positions only.
                Op::MaskedRowSoftmax(a, ref mask) => accumulate(nodes, a, |_| {
                    let y = &node.value;
                    let (rows, cols) = y.shape();
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
                    ga
                }),
                Op::NeighborMax(a, ref argmax) => accumulate(nodes, a, |n| {
                    let (rows, cols) = grad.shape();
                    let mut ga = Matrix::zeros(n[a].value.rows(), n[a].value.cols());
                    for v in 0..rows {
                        for c in 0..cols {
                            let src = argmax[v * cols + c];
                            if src != usize::MAX {
                                ga[(src, c)] += grad[(v, c)];
                            }
                        }
                    }
                    ga
                }),
            }
        }
    }
}

/// Zeroes every gradient buffer in place.
fn zero_grads(nodes: &mut [Node]) {
    for grad in nodes.iter_mut().filter_map(|node| node.grad.as_mut()) {
        grad.data_mut().fill(0.0);
    }
}

impl Tensor {
    fn assert_same_tape(&self, other: &Tensor) {
        assert!(
            Rc::ptr_eq(&self.tape.inner, &other.tape.inner),
            "tensors live on different tapes"
        );
    }

    /// Pushes `f(self)` as an `op` node, reading the input in place.
    fn unary(&self, op: Op, f: impl FnOnce(&Matrix) -> Matrix) -> Tensor {
        let v = f(&self.tape.inner.borrow().nodes[self.id].value);
        self.tape.push(v, op)
    }

    /// Pushes `f(self, other)` as an `op` node, reading both inputs in
    /// place.
    fn binary(&self, other: &Tensor, op: Op, f: impl FnOnce(&Matrix, &Matrix) -> Matrix) -> Tensor {
        self.assert_same_tape(other);
        let v = {
            let inner = self.tape.inner.borrow();
            f(&inner.nodes[self.id].value, &inner.nodes[other.id].value)
        };
        self.tape.push(v, op)
    }

    /// The current value (cloned out of the tape).
    pub fn value(&self) -> Matrix {
        self.tape.inner.borrow().nodes[self.id].value.clone()
    }

    /// The gradient from the last [`Tape::backward`] (cloned); zero until
    /// it runs. A node that does not depend on a parameter (a constant, or
    /// anything computed only from constants) gets no gradient, so its
    /// gradient reads as zero.
    pub fn grad(&self) -> Matrix {
        let inner = self.tape.inner.borrow();
        let node = &inner.nodes[self.id];
        match &node.grad {
            Some(grad) => grad.clone(),
            None => Matrix::zeros(node.value.rows(), node.value.cols()),
        }
    }

    /// Runs `f` on this node's value (mutable) and gradient, both borrowed
    /// from the tape, so an optimizer steps a parameter in place without
    /// copying either.
    pub(crate) fn update_in_place<T>(&self, f: impl FnOnce(&mut Matrix, &Matrix) -> T) -> T {
        let mut inner = self.tape.inner.borrow_mut();
        let node = &mut inner.nodes[self.id];
        match &node.grad {
            Some(grad) => f(&mut node.value, grad),
            None => {
                let zero = Matrix::zeros(node.value.rows(), node.value.cols());
                f(&mut node.value, &zero)
            }
        }
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
        self.binary(other, Op::Add(self.id, other.id), Matrix::add)
    }

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or different tapes.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.binary(other, Op::Sub(self.id, other.id), Matrix::sub)
    }

    /// Elementwise product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or different tapes.
    pub fn hadamard(&self, other: &Tensor) -> Tensor {
        self.binary(other, Op::Hadamard(self.id, other.id), Matrix::hadamard)
    }

    /// Matrix product.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or different tapes.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.binary(other, Op::MatMul(self.id, other.id), Matrix::matmul)
    }

    /// Multiplication by a scalar constant.
    pub fn scale(&self, s: f64) -> Tensor {
        self.unary(Op::Scale(self.id, s), |x| x.scale(s))
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        self.unary(Op::Relu(self.id), |x| x.map(crate::activation::relu))
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&self, slope: f64) -> Tensor {
        self.unary(Op::LeakyRelu(self.id, slope), |x| {
            x.map(|v| crate::activation::leaky_relu(v, slope))
        })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        self.unary(Op::Sigmoid(self.id), |x| x.map(crate::activation::sigmoid))
    }

    /// Transpose.
    pub fn transpose(&self) -> Tensor {
        self.unary(Op::Transpose(self.id), Matrix::transpose)
    }

    /// Sum of all entries as a `1 × 1` tensor.
    pub fn sum(&self) -> Tensor {
        self.unary(Op::SumAll(self.id), |x| Matrix::from_rows(&[&[x.sum()]]))
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
        self.unary(Op::MeanRows(self.id), Matrix::mean_rows)
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    ///
    /// Panics on row-count mismatch or different tapes.
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        self.binary(
            other,
            Op::ConcatCols(self.id, other.id),
            Matrix::concat_cols,
        )
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
        let scale = 1.0 / keep;
        let (v, mask) = {
            let inner = self.tape.inner.borrow();
            let value = &inner.nodes[self.id].value;
            // One draw per entry in row-major order; `scale · 1` is `scale`
            // and `scale · 0` is `+0.0`, so no entry needs a branch.
            let mask = value.map(|_| scale * f64::from(u8::from(rng.gen::<f64>() < keep)));
            (value.hadamard(&mask), mask)
        };
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
        self.unary(Op::MaskedRowSoftmax(self.id, mask.clone()), |x| {
            x.masked_row_softmax(mask)
        })
    }

    /// Row-wise elementwise max over each node's neighbor rows:
    /// `out[v][j] = max_{u ∈ neighbors[v]} self[u][j]` (GraphSAGE max
    /// pooling, Eq. 3). Nodes with no neighbors produce a zero row.
    ///
    /// # Panics
    ///
    /// Panics if any neighbor index is out of range.
    pub fn neighbor_max(&self, neighbors: &Rc<Vec<Vec<usize>>>) -> Tensor {
        let (y, argmax) = self.tape.inner.borrow().nodes[self.id]
            .value
            .neighbor_argmax(neighbors);
        self.tape.push(y, Op::NeighborMax(self.id, argmax))
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
        grad_check(|_t, p| p.sigmoid().sum(), init, 1e-5);
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
        assert!(dropped
            .data()
            .iter()
            .all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-12));

        tape.set_training(false);
        let kept = x.dropout(0.5, &mut rng).value();
        assert_eq!(kept, Matrix::ones(10, 10));
    }

    /// The branching mask [`Tensor::dropout`] drew before it went
    /// branch-free, kept as the bit oracle.
    fn branchy_mask(rows: usize, cols: usize, p: f64, rng: &mut StdRng) -> Matrix {
        let keep = 1.0 - p;
        Matrix::zeros(rows, cols).map(|_| {
            if rng.gen::<f64>() < keep {
                1.0 / keep
            } else {
                0.0
            }
        })
    }

    #[test]
    fn dropout_mask_matches_branchy_mask_bits() {
        for p in [0.1, 0.5, 0.9] {
            for (rows, cols) in [(1, 1), (3, 7), (10, 32), (16, 33)] {
                let seed = 83 + rows as u64 * 100 + cols as u64;
                let tape = Tape::new();
                let x = tape.parameter(Matrix::from_flat(
                    rows,
                    cols,
                    (0..rows * cols).map(|i| i as f64 - 7.5).collect(),
                ));
                let mut rng = StdRng::seed_from_u64(seed);
                let y = x.dropout(p, &mut rng);
                let mut oracle_rng = StdRng::seed_from_u64(seed);
                let want = branchy_mask(rows, cols, p, &mut oracle_rng);
                let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let inner = tape.inner.borrow();
                let Op::Dropout(_, ref mask) = inner.nodes[y.id].op else {
                    panic!("dropout pushed no mask");
                };
                assert_eq!(bits(mask), bits(&want), "mask at p {p}, {rows}x{cols}");
                assert_eq!(
                    bits(&inner.nodes[y.id].value),
                    bits(&x.value().hadamard(&want)),
                    "value at p {p}, {rows}x{cols}"
                );
                assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>(), "rng position");
            }
        }
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
        let c = tape.constant(Matrix::from_rows(&[&[3.0]]));
        let from_constants = c.scale(2.0);
        // d/dp (p² + p·2c) = 2p + 2c = 10.
        let loss = p.hadamard(&p).add(&p.hadamard(&from_constants)).sum();
        tape.backward(&loss);
        let g1 = p.grad();
        assert_eq!(g1, Matrix::from_rows(&[&[10.0]]));
        tape.backward(&loss);
        assert_eq!(p.grad(), g1, "gradients must be zeroed between passes");
        // A constant, and a node computed only from constants, get no
        // gradient; a node that depends on the parameter does.
        assert_eq!(c.grad(), Matrix::zeros(1, 1));
        assert_eq!(from_constants.grad(), Matrix::zeros(1, 1));
        assert_eq!(loss.grad(), Matrix::ones(1, 1));
        tape.reset();
        assert_eq!(p.grad(), Matrix::zeros(1, 1), "reset zeroes gradients");
    }
}
