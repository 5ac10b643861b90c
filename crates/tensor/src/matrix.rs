use std::fmt;
use std::ops::{Index, IndexMut};

use qrand::Rng;

/// Output columns [`Matrix::matmul`] keeps in registers per pass.
const BLOCK: usize = 16;

/// A dense row-major `f64` matrix — the value type of the autodiff engine.
///
/// The GNNs in this reproduction operate on graphs of at most 15 nodes with
/// embedding widths of a few dozen, so a simple dense representation is both
/// sufficient and cache-friendly.
///
/// # Example
///
/// ```
/// use tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// assert_eq!(a[(1, 0)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix of ones.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn ones(rows: usize, cols: usize) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        m.data.fill(1.0);
        m
    }

    /// Creates a matrix filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// The `n × n` identity.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "rows must be non-empty");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from nested `Vec`s (e.g. the output of
    /// `qgraph::features::node_features`).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or ragged.
    pub fn from_nested(rows: &[Vec<f64>]) -> Self {
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Matrix::from_rows(&refs)
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "buffer length must be rows*cols");
        Matrix { rows, cols, data }
    }

    /// A `1 × n` row vector.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn row_vector(values: &[f64]) -> Self {
        Matrix::from_rows(&[values])
    }

    /// Xavier/Glorot uniform initialization: `U(-s, s)` with
    /// `s = sqrt(6 / (fan_in + fan_out))`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn xavier_uniform<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        let s = (6.0 / (rows + cols) as f64).sqrt();
        for v in &mut m.data {
            *v = rng.gen_range(-s..=s);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The flat row-major buffer.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat buffer.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · other`.
    ///
    /// Each output row is built 16 columns at a time, with the block held
    /// in registers over the whole `k` loop. Every output entry starts at
    /// `+0.0` and adds `a · b` in ascending `k`, skipping `a == 0.0`, so the
    /// bits do not depend on the blocking. The `k` to keep are listed once
    /// per row, without a branch: after a ReLU or dropout about half of
    /// them are zero, in no pattern a branch predictor could learn.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        let n = other.cols;
        let mut out = Matrix::zeros(self.rows, n);
        let mut buf = vec![(0, 0.0); self.cols];
        for (a_row, out_row) in self
            .data
            .chunks_exact(self.cols)
            .zip(out.data.chunks_exact_mut(n))
        {
            let kept = list_nonzero(a_row, &mut buf);
            let mut blocks = out_row.chunks_exact_mut(BLOCK);
            for (start, block) in (0..).step_by(BLOCK).zip(&mut blocks) {
                let mut acc = [0.0; BLOCK];
                for &(k, a) in kept {
                    for (o, &b) in acc.iter_mut().zip(&other.data[k * n + start..][..BLOCK]) {
                        *o += a * b;
                    }
                }
                block.copy_from_slice(&acc);
            }
            let tail = blocks.into_remainder();
            let start = n - tail.len();
            for &(k, a) in kept {
                for (o, &b) in tail.iter_mut().zip(&other.data[k * n + start..(k + 1) * n]) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `selfᵀ · g` without building the transpose: row `k` of `self`
    /// scales row `k` of `g` into each output row, in ascending `k` and
    /// skipping zero entries of `self`, so every entry sums the same terms
    /// in the same order as `self.transpose().matmul(g)` and has its bits.
    /// This is the right-hand operand's gradient of a matrix product.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != g.rows`.
    pub(crate) fn transpose_matmul(&self, g: &Matrix) -> Matrix {
        assert_eq!(
            self.rows,
            g.rows,
            "transpose_matmul shape mismatch: {:?}ᵀ x {:?}",
            self.shape(),
            g.shape()
        );
        let n = g.cols;
        let mut out = Matrix::zeros(self.cols, n);
        let mut buf = vec![(0, 0.0); self.cols];
        for (a_row, g_row) in self
            .data
            .chunks_exact(self.cols)
            .zip(g.data.chunks_exact(n))
        {
            for &(i, a) in list_nonzero(a_row, &mut buf) {
                for (o, &g) in out.data[i * n..(i + 1) * n].iter_mut().zip(g_row) {
                    *o += a * g;
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for (i, row) in self.data.chunks_exact(self.cols).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
        out
    }

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a * b)
    }

    /// Elementwise combination of two equal-shape matrices.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_with<F: FnMut(f64, f64) -> f64>(&self, other: &Matrix, mut f: F) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "elementwise op shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise map.
    pub fn map<F: FnMut(f64) -> f64>(&self, mut f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Multiplication by a scalar.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }

    /// In-place `self += other * s` (the AXPY kernel gradient accumulation
    /// uses).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled_assign(&mut self, other: &Matrix, s: f64) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * s;
        }
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all entries.
    pub fn mean(&self) -> f64 {
        self.sum() / self.data.len() as f64
    }

    /// Column-wise mean as a `1 × cols` row vector (mean pooling).
    pub fn mean_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(0, c)] += self[(r, c)];
            }
        }
        out.scale(1.0 / self.rows as f64)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute entry (0 for the zero matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// `true` when no entry has `|v| > 0`: every entry is `±0.0` or NaN.
    /// The same predicate as `max_abs() == 0.0` (`max_abs` skips NaN), but
    /// it stops at the first non-zero entry.
    pub(crate) fn is_zero(&self) -> bool {
        !self.data.iter().any(|v| v.abs() > 0.0)
    }

    /// `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Per-row softmax restricted to positions where `mask` is non-zero;
    /// masked-out positions produce 0 and a fully masked row is all zero
    /// (GAT attention normalization, Eq. 7).
    ///
    /// # Panics
    ///
    /// Panics if `mask` has a different shape.
    pub fn masked_row_softmax(&self, mask: &Matrix) -> Matrix {
        assert_eq!(self.shape(), mask.shape(), "mask shape must match");
        let mut y = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let mut max = f64::NEG_INFINITY;
            for c in 0..self.cols {
                if mask[(r, c)] != 0.0 {
                    max = max.max(self[(r, c)]);
                }
            }
            if max == f64::NEG_INFINITY {
                continue; // fully masked row
            }
            let mut denom = 0.0;
            for c in 0..self.cols {
                if mask[(r, c)] != 0.0 {
                    denom += (self[(r, c)] - max).exp();
                }
            }
            for c in 0..self.cols {
                if mask[(r, c)] != 0.0 {
                    y[(r, c)] = (self[(r, c)] - max).exp() / denom;
                }
            }
        }
        y
    }

    /// Row-wise elementwise max over each node's neighbor rows:
    /// `out[v][j] = max_{u ∈ neighbors[v]} self[u][j]` (GraphSAGE max
    /// pooling, Eq. 3). Nodes with no neighbors produce a zero row.
    ///
    /// # Panics
    ///
    /// Panics if any neighbor index is out of range.
    pub fn neighbor_max(&self, neighbors: &[Vec<usize>]) -> Matrix {
        self.neighbor_argmax(neighbors).0
    }

    /// [`Self::neighbor_max`] plus, per output entry, the row it was taken
    /// from (`usize::MAX` where a node has no neighbors) for the backward
    /// pass.
    pub(crate) fn neighbor_argmax(&self, neighbors: &[Vec<usize>]) -> (Matrix, Vec<usize>) {
        let n = neighbors.len();
        let cols = self.cols;
        let mut y = Matrix::zeros(n, cols);
        let mut argmax = vec![usize::MAX; n * cols];
        for (v, nbrs) in neighbors.iter().enumerate() {
            for c in 0..cols {
                let mut best = f64::NEG_INFINITY;
                let mut best_u = usize::MAX;
                for &u in nbrs {
                    assert!(u < self.rows, "neighbor index {u} out of range");
                    if self[(u, c)] > best {
                        best = self[(u, c)];
                        best_u = u;
                    }
                }
                if best_u != usize::MAX {
                    y[(v, c)] = best;
                    argmax[v * cols + c] = best_u;
                }
            }
        }
        (y, argmax)
    }

    /// Elementwise map in place (no allocation).
    pub fn map_in_place<F: FnMut(f64) -> f64>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Concatenates two matrices horizontally (`[self | other]`).
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn concat_cols(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "concat requires equal row counts");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.data[r * out.cols..r * out.cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * out.cols + self.cols..(r + 1) * out.cols].copy_from_slice(other.row(r));
        }
        out
    }
}

/// Lists `(index, value)` for every entry of `row` other than `±0.0` (NaN
/// included), in order, at the front of `buf`. There is no branch on the
/// value, so an unpredictable zero pattern costs no mispredictions.
fn list_nonzero<'a>(row: &[f64], buf: &'a mut [(usize, f64)]) -> &'a [(usize, f64)] {
    let mut len = 0;
    for (i, &v) in row.iter().enumerate() {
        buf[len] = (i, v);
        len += usize::from(v != 0.0);
    }
    &buf[..len]
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of range"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of range"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            let row: Vec<String> = self.row(r).iter().map(|v| format!("{v:.4}")).collect();
            writeln!(f, "[{}]", row.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrand::rngs::StdRng;
    use qrand::SeedableRng;

    #[test]
    fn constructors() {
        assert_eq!(Matrix::zeros(2, 3).sum(), 0.0);
        assert_eq!(Matrix::ones(2, 3).sum(), 6.0);
        assert_eq!(Matrix::full(2, 2, 0.5).sum(), 2.0);
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dims_rejected() {
        let _ = Matrix::zeros(0, 3);
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_rows_rejected() {
        let _ = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.5, -2.0, 0.0], &[0.25, 3.0, 9.0]]);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[4.0, 6.0]]));
        assert_eq!(b.sub(&a), Matrix::from_rows(&[&[2.0, 2.0]]));
        assert_eq!(a.hadamard(&b), Matrix::from_rows(&[&[3.0, 8.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, 4.0]]));
        assert_eq!(a.map(|v| v * v), Matrix::from_rows(&[&[1.0, 4.0]]));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::ones(1, 2);
        let b = Matrix::from_rows(&[&[2.0, 3.0]]);
        a.add_scaled_assign(&b, 0.5);
        assert_eq!(a, Matrix::from_rows(&[&[2.0, 2.5]]));
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.sum(), 10.0);
        assert_eq!(m.mean(), 2.5);
        assert_eq!(m.mean_rows(), Matrix::from_rows(&[&[2.0, 3.0]]));
        assert!((m.frobenius_norm() - 30f64.sqrt()).abs() < 1e-12);
        assert_eq!(m.max_abs(), 4.0);
        assert!(m.is_finite());
        assert!(!m.map(|_| f64::NAN).is_finite());
    }

    #[test]
    fn concat_cols_layout() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let c = a.concat_cols(&b);
        assert_eq!(c, Matrix::from_rows(&[&[1.0, 3.0, 4.0], &[2.0, 5.0, 6.0]]));
    }

    #[test]
    fn xavier_respects_bound() {
        let mut rng = StdRng::seed_from_u64(71);
        let m = Matrix::xavier_uniform(20, 30, &mut rng);
        let bound = (6.0 / 50.0f64).sqrt();
        assert!(m.max_abs() <= bound + 1e-12);
        // Should actually vary.
        assert!(m.max_abs() > 0.0);
    }

    #[test]
    fn display_renders_rows() {
        let m = Matrix::from_rows(&[&[1.0, 2.0]]);
        assert_eq!(m.to_string(), "[1.0000, 2.0000]\n");
    }

    /// The loops [`Matrix::matmul`] and [`Matrix::transpose`] ran before
    /// blocking, kept as bit oracles.
    fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for k in 0..a.cols {
                let x = a.data[i * a.cols + k];
                if x == 0.0 {
                    continue;
                }
                let row_k = &b.data[k * b.cols..(k + 1) * b.cols];
                let out_row = &mut out.data[i * b.cols..(i + 1) * b.cols];
                for (o, &y) in out_row.iter_mut().zip(row_k) {
                    *o += x * y;
                }
            }
        }
        out
    }

    fn transpose_reference(a: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols, a.rows);
        for i in 0..a.rows {
            for j in 0..a.cols {
                out[(j, i)] = a[(i, j)];
            }
        }
        out
    }

    /// A `rows × cols` matrix whose entries mix ordinary values with
    /// `±0.0`, subnormals, huge values, `±inf` and NaN.
    fn awkward_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        const SPECIAL: [f64; 9] = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 8.0,
            -5e-324,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let data = (0..rows * cols)
            .map(|_| match rng.gen_range(0..4) {
                0 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
                _ => rng.gen_range(-2.0..2.0),
            })
            .collect();
        Matrix::from_flat(rows, cols, data)
    }

    /// Bit equality, except that any NaN matches any NaN: Rust does not
    /// specify which payload an operation on NaNs returns.
    fn same_bits(got: &Matrix, want: &Matrix) -> Result<(), String> {
        if got.shape() != want.shape() {
            return Err(format!("shape {:?} != {:?}", got.shape(), want.shape()));
        }
        for (i, (g, w)) in got.data.iter().zip(&want.data).enumerate() {
            if g.to_bits() != w.to_bits() && !(g.is_nan() && w.is_nan()) {
                return Err(format!("entry {i}: {g:e} != {w:e}"));
            }
        }
        Ok(())
    }

    qcheck::properties! {
        cases = 256;

        /// Shapes up to 33 run whole 16-column blocks, their tails, and
        /// tails alone.
        fn kernels_match_reference_loops(
            m in 1usize..=33,
            k in 1usize..=33,
            n in 1usize..=33,
            seed in qcheck::any_u64(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = awkward_matrix(m, k, &mut rng);
            let b = awkward_matrix(k, n, &mut rng);
            let g = awkward_matrix(m, n, &mut rng);
            if let Err(e) = same_bits(&a.matmul(&b), &matmul_reference(&a, &b)) {
                return qcheck::Outcome::fail(format!("matmul: {e}"));
            }
            let want = matmul_reference(&transpose_reference(&a), &g);
            if let Err(e) = same_bits(&a.transpose_matmul(&g), &want) {
                return qcheck::Outcome::fail(format!("transpose_matmul: {e}"));
            }
            if let Err(e) = same_bits(&a.transpose(), &transpose_reference(&a)) {
                return qcheck::Outcome::fail(format!("transpose: {e}"));
            }
        }

        fn kernels_zero_check_matches_max_abs(
            rows in 1usize..=33,
            cols in 1usize..=33,
            seed in qcheck::any_u64(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = awkward_matrix(rows, cols, &mut rng);
            // Half an awkward entry per matrix on average, the rest `±0.0`
            // and NaN, so both answers come up.
            let odds = 2 * rows * cols;
            m.map_in_place(|v| match rng.gen_range(0..odds) {
                0 => v,
                draw => [0.0, -0.0, f64::NAN][draw % 3],
            });
            qcheck::prop_assert_eq!(m.is_zero(), m.max_abs() == 0.0);
        }
    }

    #[test]
    fn kernels_zero_check_edge_cases() {
        for (m, zero) in [
            (Matrix::full(3, 4, f64::NAN), true),
            (Matrix::full(3, 4, -0.0), true),
            (Matrix::zeros(1, 1), true),
            (Matrix::from_rows(&[&[-0.0, f64::NAN, 0.0]]), true),
            (Matrix::from_rows(&[&[f64::NAN, 5e-324]]), false),
            (Matrix::from_rows(&[&[0.0, f64::NEG_INFINITY]]), false),
        ] {
            assert_eq!(m.is_zero(), zero, "{m:?}");
            assert_eq!(m.max_abs() == 0.0, zero, "{m:?}");
        }
    }

    #[test]
    fn from_flat_and_nested() {
        let m = Matrix::from_flat(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(1, 1)], 4.0);
        let n = Matrix::from_nested(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m, n);
        let rv = Matrix::row_vector(&[7.0, 8.0]);
        assert_eq!(rv.shape(), (1, 2));
    }
}
