//! Tape-free inference.
//!
//! [`Frozen`] holds a trained model's weights as plain [`Matrix`] values
//! and runs the forward pass directly on them: no autodiff tape, no
//! gradient buffers, no operand copies, and only the one graph operand its
//! architecture reads. It is `Send + Sync`, so one instance can serve any
//! number of threads.
//!
//! Every layer runs the same [`Matrix`] operations in the same order as
//! [`GnnModel::forward`] in eval mode, so its angles are bit-identical to
//! the tape's. The one step that differs is broadcasting: the tape adds a
//! `1 × d` bias `b` as `h + ones(rows, 1) × b`, whose entries are
//! `h + (0.0 + b)`, and [`Frozen`] adds `h + b` in place. The two can
//! differ only in the sign of a zero, when `h` and `b` are both −0.0; but
//! every `h` here is a fresh matmul output, whose accumulator starts at
//! +0.0 and so is never −0.0. GAT's score broadcast `s_src[v] + s_dst[u]`
//! rests on the same fact.

use qgraph::Graph;
use tensor::activation::{leaky_relu, relu, sigmoid};
use tensor::Matrix;

use crate::context::{self, GraphContext};
use crate::model::Layer;
use crate::{GnnKind, GnnModel, ModelConfig, ModelWeights, Readout, WeightError};

/// A trained GNN frozen for inference (see the module docs).
///
/// Built from a validated [`ModelWeights`] ([`Frozen::new`]) or from a live
/// model ([`GnnModel::freeze`]); predicts exactly what
/// [`GnnModel::predict`] would for the same weights.
#[derive(Debug)]
pub struct Frozen {
    kind: GnnKind,
    config: ModelConfig,
    layers: Vec<Layer<Matrix>>,
    head_w1: Matrix,
    head_b1: Matrix,
    head_w2: Matrix,
    head_b2: Matrix,
}

/// The one graph operand a layer stack reads, borrowed from wherever it
/// was built.
#[derive(Clone, Copy)]
enum Operand<'a> {
    /// `norm_adj` (GCN), `adj_mask` (GAT) or `gin_matrix` (GIN).
    Dense(&'a Matrix),
    /// Neighbor lists (GraphSAGE).
    Neighbors(&'a [Vec<usize>]),
}

/// Adds a `1 × d` bias to every row of a matmul output (see the module
/// docs for why this matches the tape's broadcast bit for bit).
fn add_bias(h: &mut Matrix, bias: &Matrix) {
    let b = bias.row(0);
    for row in h.data_mut().chunks_exact_mut(b.len()) {
        for (v, &bj) in row.iter_mut().zip(b) {
            *v += bj;
        }
    }
}

impl Frozen {
    /// Freezes a weight set after full validation: the matrix count and
    /// every shape must match [`crate::expected_shapes`] and every value
    /// must be finite.
    ///
    /// # Errors
    ///
    /// The first [`WeightError`] from [`ModelWeights::validate`] — the same
    /// [`WeightError::ParamCount`] / [`WeightError::ShapeMismatch`]
    /// variants [`GnnModel::try_restore`] returns.
    pub fn new(weights: &ModelWeights) -> Result<Frozen, WeightError> {
        weights.validate()?;
        Ok(Frozen::from_params(
            weights.kind,
            weights.config.clone(),
            weights.params.clone(),
        ))
    }

    /// Unpacks a parameter list already known to fit `kind` and `config`,
    /// in [`GnnModel`] construction order.
    pub(crate) fn from_params(kind: GnnKind, config: ModelConfig, params: Vec<Matrix>) -> Frozen {
        let mut params = params.into_iter();
        let mut next = || {
            params
                .next()
                .expect("parameter count checked by the caller")
        };
        // Struct fields evaluate in source order, which is construction order.
        let layers = (0..config.layers)
            .map(|_| match kind {
                GnnKind::Gcn => Layer::Gcn { w: next() },
                GnnKind::Gat => Layer::Gat {
                    w: next(),
                    a_src: next(),
                    a_dst: next(),
                },
                GnnKind::Gin => Layer::Gin {
                    w1: next(),
                    b1: next(),
                    w2: next(),
                    b2: next(),
                },
                GnnKind::Sage => Layer::Sage {
                    w_pool: next(),
                    b_pool: next(),
                    w: next(),
                },
            })
            .collect();
        Frozen {
            kind,
            layers,
            head_w1: next(),
            head_b1: next(),
            head_w2: next(),
            head_b2: next(),
            config,
        }
    }

    /// Predicts `(γ, β)` for a graph, denormalized to `γ ∈ [0, 2π]`,
    /// `β ∈ [0, π/2]`. Builds only the operand this architecture reads.
    ///
    /// # Panics
    ///
    /// Panics, like [`GraphContext::new`], if the graph has more nodes than
    /// a non-zero `one_hot_dim` supports.
    pub fn predict(&self, graph: &Graph) -> (f64, f64) {
        let x = context::feature_matrix(graph, &self.config.features);
        match self.kind {
            GnnKind::Gcn => self.forward(&x, Operand::Dense(&context::norm_adj(graph))),
            GnnKind::Gat => {
                let mask = context::adj_mask(&context::adjacency(graph));
                self.forward(&x, Operand::Dense(&mask))
            }
            GnnKind::Gin => {
                let gin = context::gin_matrix(context::adjacency(graph), self.config.gin_eps);
                self.forward(&x, Operand::Dense(&gin))
            }
            GnnKind::Sage => self.forward(&x, Operand::Neighbors(&context::neighbor_lists(graph))),
        }
    }

    /// [`Self::predict`] for a prebuilt context.
    pub fn predict_ctx(&self, ctx: &GraphContext) -> (f64, f64) {
        let operand = match self.kind {
            GnnKind::Gcn => Operand::Dense(&ctx.norm_adj),
            GnnKind::Gat => Operand::Dense(&ctx.adj_mask),
            GnnKind::Gin => Operand::Dense(&ctx.gin_matrix),
            GnnKind::Sage => Operand::Neighbors(&ctx.neighbors),
        };
        self.forward(&ctx.features, operand)
    }

    fn forward(&self, x: &Matrix, operand: Operand<'_>) -> (f64, f64) {
        let mut h = self.layer(&self.layers[0], x, operand);
        for layer in &self.layers[1..] {
            h = self.layer(layer, &h, operand);
        }
        // Eq. 9 readout, then the MLP head.
        let n = h.rows();
        let pooled = match self.config.readout {
            Readout::Mean => h.mean_rows(),
            Readout::Sum => h.mean_rows().scale(n as f64),
            Readout::Max => h.neighbor_max(&[(0..n).collect()]),
        };
        let mut hidden = pooled.matmul(&self.head_w1);
        add_bias(&mut hidden, &self.head_b1);
        hidden.map_in_place(relu);
        let mut out = hidden.matmul(&self.head_w2);
        add_bias(&mut out, &self.head_b2);
        out.map_in_place(sigmoid);
        crate::denormalize_target([out[(0, 0)], out[(0, 1)]])
    }

    fn layer(&self, layer: &Layer<Matrix>, h: &Matrix, operand: Operand<'_>) -> Matrix {
        let mut out = match (layer, operand) {
            // Eq. 5: h' = ReLU(Â H W).
            (Layer::Gcn { w }, Operand::Dense(a)) => a.matmul(h).matmul(w),
            // Eqs. 6–7: scores[v][u] = LeakyReLU(s_src[v] + s_dst[u]), then
            // a masked softmax over neighbors and weighted aggregation.
            (Layer::Gat { w, a_src, a_dst }, Operand::Dense(mask)) => {
                let z = h.matmul(w);
                let s_src = z.matmul(a_src);
                let s_dst = z.matmul(a_dst);
                let n = z.rows();
                let slope = self.config.leaky_slope;
                // Row v of the scores over the n×1 columns' slices: the
                // same sums as indexing (v, u), without a call per entry.
                let mut scores = Matrix::zeros(n, n);
                for (row, &src) in scores
                    .data_mut()
                    .chunks_exact_mut(n.max(1))
                    .zip(s_src.data())
                {
                    for (score, &dst) in row.iter_mut().zip(s_dst.data()) {
                        *score = leaky_relu(src + dst, slope);
                    }
                }
                scores.masked_row_softmax(mask).matmul(&z)
            }
            // Eq. 8: h' = MLP((A + (1+ε)I) H).
            (Layer::Gin { w1, b1, w2, b2 }, Operand::Dense(g)) => {
                let mut hidden = g.matmul(h).matmul(w1);
                add_bias(&mut hidden, b1);
                hidden.map_in_place(relu);
                let mut out = hidden.matmul(w2);
                add_bias(&mut out, b2);
                out
            }
            // Eqs. 3–4: a_v = max over neighbors of ReLU(W_pool h_u);
            // h' = W [h_v, a_v].
            (Layer::Sage { w_pool, b_pool, w }, Operand::Neighbors(neighbors)) => {
                let mut m = h.matmul(w_pool);
                add_bias(&mut m, b_pool);
                m.map_in_place(relu);
                h.concat_cols(&m.neighbor_max(neighbors)).matmul(w)
            }
            _ => unreachable!("operand built for another architecture"),
        };
        out.map_in_place(relu);
        out
    }
}

impl GnnModel {
    /// Copies the current weights into a tape-free [`Frozen`] model that
    /// predicts bit-identically to this one.
    pub fn freeze(&self) -> Frozen {
        Frozen::from_params(self.kind(), self.config().clone(), self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrand::rngs::StdRng;
    use qrand::SeedableRng;

    const fn assert_send_sync<T: Send + Sync>() {}
    const _: () = assert_send_sync::<Frozen>();

    fn weights(kind: GnnKind, seed: u64) -> ModelWeights {
        let mut rng = StdRng::seed_from_u64(seed);
        GnnModel::new(kind, ModelConfig::default(), &mut rng).export_weights()
    }

    #[test]
    fn new_rejects_wrong_param_count_like_try_restore() {
        let mut w = weights(GnnKind::Gin, 1);
        let model = w.build_model().unwrap();
        w.params.pop();
        let frozen = Frozen::new(&w).unwrap_err();
        assert!(
            matches!(frozen, WeightError::ParamCount { .. }),
            "{frozen:?}"
        );
        assert_eq!(Err(frozen), model.try_restore(&w.params));
    }

    #[test]
    fn new_rejects_wrong_shape_like_try_restore() {
        let mut w = weights(GnnKind::Sage, 2);
        let model = w.build_model().unwrap();
        w.params[1] = w.params[1].transpose();
        let frozen = Frozen::new(&w).unwrap_err();
        assert!(
            matches!(frozen, WeightError::ShapeMismatch { index: 1, .. }),
            "{frozen:?}"
        );
        assert_eq!(Err(frozen), model.try_restore(&w.params));
    }

    #[test]
    fn new_rejects_non_finite_weights() {
        let mut w = weights(GnnKind::Gcn, 3);
        w.params[0][(0, 0)] = f64::NAN;
        assert_eq!(
            Frozen::new(&w).unwrap_err(),
            WeightError::NonFinite { index: 0 }
        );
    }
}
