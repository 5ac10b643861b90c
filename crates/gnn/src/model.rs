use qrand::Rng;

use qgraph::features::FeatureConfig;
use qgraph::Graph;
use tensor::{Matrix, Tape, Tensor};

use crate::GraphContext;

/// The four GNN architectures benchmarked by the paper (§3.2, Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GnnKind {
    /// Graph Convolutional Network (Kipf & Welling) — Eqs. 2/5.
    Gcn,
    /// Graph Attention Network (Veličković et al.) — Eqs. 6–7.
    Gat,
    /// Graph Isomorphism Network (Xu et al.) — Eq. 8.
    Gin,
    /// GraphSAGE with max pooling (Hamilton et al.) — Eqs. 3–4.
    Sage,
}

impl GnnKind {
    /// All four benchmarked architectures, in the paper's table order.
    pub const ALL: [GnnKind; 4] = [GnnKind::Gat, GnnKind::Gcn, GnnKind::Gin, GnnKind::Sage];
}

impl std::fmt::Display for GnnKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GnnKind::Gcn => write!(f, "GCN"),
            GnnKind::Gat => write!(f, "GAT"),
            GnnKind::Gin => write!(f, "GIN"),
            GnnKind::Sage => write!(f, "GraphSAGE"),
        }
    }
}

/// The graph-level READOUT of Eq. 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Readout {
    /// Mean pooling over node embeddings (the paper's choice, §3.2).
    #[default]
    Mean,
    /// Sum pooling (size-sensitive; GIN's canonical readout).
    Sum,
    /// Elementwise max pooling.
    Max,
}

/// Model hyper-parameters; the default mirrors §4.1.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Node-feature layout (degree + one-hot, §3.1).
    pub features: FeatureConfig,
    /// Embedding width (paper: 32).
    pub hidden_dim: usize,
    /// Number of message-passing layers (paper: 2).
    pub layers: usize,
    /// Dropout applied after every GNN layer during training (paper: 0.5).
    pub dropout: f64,
    /// Negative slope of GAT's LeakyReLU (standard: 0.2).
    pub leaky_slope: f64,
    /// GIN's ε (Eq. 8); fixed rather than learned.
    pub gin_eps: f64,
    /// Graph-level readout (Eq. 9; paper: mean).
    pub readout: Readout,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            features: FeatureConfig::default(),
            hidden_dim: 32,
            layers: 2,
            dropout: 0.5,
            leaky_slope: 0.2,
            gin_eps: 0.0,
            readout: Readout::Mean,
        }
    }
}

/// Per-layer parameters: [`Tensor`] handles on the training tape, or plain
/// [`Matrix`] values in a [`crate::Frozen`] model.
#[derive(Debug, Clone)]
pub(crate) enum Layer<P> {
    Gcn { w: P },
    Gat { w: P, a_src: P, a_dst: P },
    Gin { w1: P, b1: P, w2: P, b2: P },
    Sage { w_pool: P, b_pool: P, w: P },
}

/// A GNN-based (γ, β) predictor: message-passing encoder, mean-pooling
/// readout (Eq. 9) and a two-layer MLP head with sigmoid outputs in the
/// normalized angle square `[0,1]²`.
#[derive(Debug, Clone)]
pub struct GnnModel {
    tape: Tape,
    kind: GnnKind,
    config: ModelConfig,
    layers: Vec<Layer<Tensor>>,
    head_w1: Tensor,
    head_b1: Tensor,
    head_w2: Tensor,
    head_b2: Tensor,
    params: Vec<Tensor>,
}

impl GnnModel {
    /// Creates a model with Xavier-initialized parameters.
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0`, `hidden_dim == 0` or `dropout` is outside
    /// `[0, 1)`.
    pub fn new<R: Rng + ?Sized>(kind: GnnKind, config: ModelConfig, rng: &mut R) -> Self {
        assert!(config.layers >= 1, "need at least one GNN layer");
        assert!(config.hidden_dim >= 1, "hidden_dim must be positive");
        assert!(
            (0.0..1.0).contains(&config.dropout),
            "dropout must be in [0, 1)"
        );
        let tape = Tape::new();
        let mut params: Vec<Tensor> = Vec::new();
        let track = |t: Tensor, params: &mut Vec<Tensor>| -> Tensor {
            params.push(t.clone());
            t
        };

        let mut layers = Vec::with_capacity(config.layers);
        let mut in_dim = config.features.dim();
        for _ in 0..config.layers {
            let out_dim = config.hidden_dim;
            let layer = match kind {
                GnnKind::Gcn => Layer::Gcn {
                    w: track(
                        tape.parameter(Matrix::xavier_uniform(in_dim, out_dim, rng)),
                        &mut params,
                    ),
                },
                GnnKind::Gat => Layer::Gat {
                    w: track(
                        tape.parameter(Matrix::xavier_uniform(in_dim, out_dim, rng)),
                        &mut params,
                    ),
                    a_src: track(
                        tape.parameter(Matrix::xavier_uniform(out_dim, 1, rng)),
                        &mut params,
                    ),
                    a_dst: track(
                        tape.parameter(Matrix::xavier_uniform(out_dim, 1, rng)),
                        &mut params,
                    ),
                },
                GnnKind::Gin => Layer::Gin {
                    w1: track(
                        tape.parameter(Matrix::xavier_uniform(in_dim, out_dim, rng)),
                        &mut params,
                    ),
                    b1: track(tape.parameter(Matrix::zeros(1, out_dim)), &mut params),
                    w2: track(
                        tape.parameter(Matrix::xavier_uniform(out_dim, out_dim, rng)),
                        &mut params,
                    ),
                    b2: track(tape.parameter(Matrix::zeros(1, out_dim)), &mut params),
                },
                GnnKind::Sage => Layer::Sage {
                    w_pool: track(
                        tape.parameter(Matrix::xavier_uniform(in_dim, out_dim, rng)),
                        &mut params,
                    ),
                    b_pool: track(tape.parameter(Matrix::zeros(1, out_dim)), &mut params),
                    // Combination W [h_v, a_v] (Eq. 4): input 2·dims.
                    w: track(
                        tape.parameter(Matrix::xavier_uniform(in_dim + out_dim, out_dim, rng)),
                        &mut params,
                    ),
                },
            };
            layers.push(layer);
            in_dim = config.hidden_dim;
        }

        let head_w1 = track(
            tape.parameter(Matrix::xavier_uniform(
                config.hidden_dim,
                config.hidden_dim,
                rng,
            )),
            &mut params,
        );
        let head_b1 = track(
            tape.parameter(Matrix::zeros(1, config.hidden_dim)),
            &mut params,
        );
        let head_w2 = track(
            tape.parameter(Matrix::xavier_uniform(config.hidden_dim, 2, rng)),
            &mut params,
        );
        let head_b2 = track(tape.parameter(Matrix::zeros(1, 2)), &mut params);

        GnnModel {
            tape,
            kind,
            config,
            layers,
            head_w1,
            head_b1,
            head_w2,
            head_b2,
            params,
        }
    }

    /// The architecture kind.
    pub fn kind(&self) -> GnnKind {
        self.kind
    }

    /// The hyper-parameter configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The underlying tape (exposed for the training loop).
    pub fn tape(&self) -> &Tape {
        &self.tape
    }

    /// All trainable parameter handles.
    pub fn parameters(&self) -> &[Tensor] {
        &self.params
    }

    /// Total scalar parameter count.
    pub fn num_parameters(&self) -> usize {
        self.params
            .iter()
            .map(|p| {
                let (r, c) = p.shape();
                r * c
            })
            .sum()
    }

    /// In-memory copy of every trainable parameter, used by the training
    /// loop to keep the best-epoch weights restorable after a divergence.
    pub fn snapshot(&self) -> Vec<Matrix> {
        self.params.iter().map(Tensor::value).collect()
    }

    /// Restores parameters from a [`Self::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's parameter count or shapes do not match
    /// this model (snapshots are only valid for the model they came from).
    pub fn restore(&self, snapshot: &[Matrix]) {
        if let Err(e) = self.try_restore(snapshot) {
            match e {
                crate::WeightError::ParamCount { .. } => {
                    panic!("snapshot parameter count mismatch: {e}")
                }
                _ => panic!("snapshot shape mismatch: {e}"),
            }
        }
    }

    /// Non-panicking [`Self::restore`]: validates the snapshot against this
    /// model's architecture before touching any parameter, so a foreign or
    /// corrupted snapshot (e.g. from a stale training checkpoint) leaves the
    /// model untouched and surfaces as a typed [`crate::WeightError`].
    ///
    /// # Errors
    ///
    /// [`crate::WeightError::ParamCount`] if the matrix count differs,
    /// [`crate::WeightError::ShapeMismatch`] on the first shape conflict.
    pub fn try_restore(&self, snapshot: &[Matrix]) -> Result<(), crate::WeightError> {
        if snapshot.len() != self.params.len() {
            return Err(crate::WeightError::ParamCount {
                expected: self.params.len(),
                found: snapshot.len(),
            });
        }
        for (index, (param, value)) in self.params.iter().zip(snapshot).enumerate() {
            if param.shape() != value.shape() {
                return Err(crate::WeightError::ShapeMismatch {
                    index,
                    expected: param.shape(),
                    found: value.shape(),
                });
            }
        }
        for (param, value) in self.params.iter().zip(snapshot) {
            param.set_value(value.clone());
        }
        Ok(())
    }

    /// Broadcast-adds a `1 × d` bias over every row of `h`.
    fn add_bias(&self, h: &Tensor, bias: &Tensor, rows: usize) -> Tensor {
        let ones = self.tape.constant(Matrix::ones(rows, 1));
        h.add(&ones.matmul(bias))
    }

    fn forward_layer(&self, layer: &Layer<Tensor>, h: &Tensor, ctx: &GraphContext) -> Tensor {
        let n = ctx.num_nodes;
        match layer {
            // Eq. 5: h' = ReLU(Â H W).
            Layer::Gcn { w } => {
                let a = self.tape.constant(ctx.norm_adj.clone());
                a.matmul(h).matmul(w).relu()
            }
            // Eqs. 6–7: attention scores over neighbors, masked softmax,
            // weighted aggregation.
            Layer::Gat { w, a_src, a_dst } => {
                let z = h.matmul(w); // n × d
                let s_src = z.matmul(a_src); // n × 1
                let s_dst = z.matmul(a_dst); // n × 1
                let ones_row = self.tape.constant(Matrix::ones(1, n));
                let ones_col = self.tape.constant(Matrix::ones(n, 1));
                // scores[v][u] = s_src[v] + s_dst[u]
                let scores = s_src
                    .matmul(&ones_row)
                    .add(&ones_col.matmul(&s_dst.transpose()))
                    .leaky_relu(self.config.leaky_slope);
                let alpha = scores.masked_row_softmax(&ctx.adj_mask);
                alpha.matmul(&z).relu()
            }
            // Eq. 8: h' = MLP((A + (1+ε)I) H).
            Layer::Gin { w1, b1, w2, b2 } => {
                let g = self.tape.constant(ctx.gin_matrix.clone());
                let agg = g.matmul(h);
                let hidden = self.add_bias(&agg.matmul(w1), b1, n).relu();
                self.add_bias(&hidden.matmul(w2), b2, n).relu()
            }
            // Eqs. 3–4: a_v = max over neighbors of ReLU(W_pool h_u);
            // h' = W [h_v, a_v].
            Layer::Sage { w_pool, b_pool, w } => {
                let m = self.add_bias(&h.matmul(w_pool), b_pool, n).relu();
                let agg = m.neighbor_max(&ctx.neighbors);
                h.concat_cols(&agg).matmul(w).relu()
            }
        }
    }

    /// Full forward pass: returns the `1 × 2` normalized prediction tensor
    /// (differentiable; used by the trainer).
    pub fn forward<R: Rng + ?Sized>(&self, ctx: &GraphContext, rng: &mut R) -> Tensor {
        let mut h = self.tape.constant(ctx.features.clone());
        for layer in &self.layers {
            h = self.forward_layer(layer, &h, ctx);
            if self.config.dropout > 0.0 {
                h = h.dropout(self.config.dropout, rng);
            }
        }
        // Eq. 9 readout, then the MLP head.
        let n = ctx.num_nodes;
        let pooled = match self.config.readout {
            Readout::Mean => h.mean_rows(),
            Readout::Sum => h.mean_rows().scale(n as f64),
            // Column-wise max: a single pseudo-node whose "neighbors" are
            // every row reuses the neighbor-max kernel.
            Readout::Max => {
                let all: std::rc::Rc<Vec<Vec<usize>>> = std::rc::Rc::new(vec![(0..n).collect()]);
                h.neighbor_max(&all)
            }
        }; // 1 × hidden
        let hidden = self
            .add_bias(&pooled.matmul(&self.head_w1), &self.head_b1, 1)
            .relu();
        self.add_bias(&hidden.matmul(&self.head_w2), &self.head_b2, 1)
            .sigmoid()
    }

    /// Inference: predicts `(γ, β)` for a graph with dropout disabled and
    /// without touching the tape. Angles are denormalized to
    /// `γ ∈ [0, 2π]`, `β ∈ [0, π/2]` (the canonical Max-Cut domain).
    ///
    /// Runs the tape-free [`crate::Frozen`] forward on a copy of the current
    /// weights; to predict many graphs, [`Self::freeze`] once instead.
    pub fn predict(&self, graph: &Graph) -> (f64, f64) {
        self.freeze().predict(graph)
    }

    /// [`Self::predict`] for a prebuilt context.
    pub fn predict_ctx(&self, ctx: &GraphContext) -> (f64, f64) {
        self.freeze().predict_ctx(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrand::rngs::StdRng;
    use qrand::SeedableRng;

    fn all_models(seed: u64) -> Vec<GnnModel> {
        let mut rng = StdRng::seed_from_u64(seed);
        GnnKind::ALL
            .iter()
            .map(|&k| GnnModel::new(k, ModelConfig::default(), &mut rng))
            .collect()
    }

    #[test]
    fn forward_shapes_and_ranges() {
        let g = Graph::cycle(7).unwrap();
        for model in all_models(91) {
            let (gamma, beta) = model.predict(&g);
            assert!(
                (0.0..=std::f64::consts::TAU).contains(&gamma),
                "{}: gamma {gamma}",
                model.kind()
            );
            assert!(
                (0.0..=std::f64::consts::FRAC_PI_2).contains(&beta),
                "{}: beta {beta}",
                model.kind()
            );
        }
    }

    #[test]
    fn predict_is_deterministic_in_eval_mode() {
        let g = Graph::complete(5).unwrap();
        for model in all_models(92) {
            let a = model.predict(&g);
            let b = model.predict(&g);
            assert_eq!(a, b, "{}", model.kind());
        }
    }

    #[test]
    fn gradients_flow_to_every_parameter() {
        let g = Graph::complete(4).unwrap();
        let mut rng = StdRng::seed_from_u64(93);
        for &kind in &GnnKind::ALL {
            // Dropout off so no parameter is masked out by chance.
            let config = ModelConfig {
                dropout: 0.0,
                ..ModelConfig::default()
            };
            let model = GnnModel::new(kind, config, &mut rng);
            let ctx = GraphContext::new(&g, &model.config().features, 0.0);
            let out = model.forward(&ctx, &mut rng);
            let loss = out.mse(&Matrix::from_rows(&[&[0.9, 0.1]]));
            model.tape().backward(&loss);
            for (i, p) in model.parameters().iter().enumerate() {
                assert!(
                    p.grad().max_abs() > 0.0,
                    "{kind:?}: parameter {i} received no gradient"
                );
            }
            model.tape().reset();
        }
    }

    #[test]
    fn handles_all_dataset_sizes() {
        // Every size the dataset contains (2–15 nodes) must forward cleanly,
        // including graphs with isolated structure.
        let mut rng = StdRng::seed_from_u64(94);
        let model = GnnModel::new(GnnKind::Gat, ModelConfig::default(), &mut rng);
        for n in 2..=15 {
            let g = Graph::path(n).unwrap();
            let (gamma, beta) = model.predict(&g);
            assert!(gamma.is_finite() && beta.is_finite(), "n={n}");
        }
    }

    #[test]
    fn parameter_counts_scale_with_config() {
        let mut rng = StdRng::seed_from_u64(95);
        let small = GnnModel::new(
            GnnKind::Gcn,
            ModelConfig {
                hidden_dim: 8,
                ..ModelConfig::default()
            },
            &mut rng,
        );
        let big = GnnModel::new(
            GnnKind::Gcn,
            ModelConfig {
                hidden_dim: 64,
                ..ModelConfig::default()
            },
            &mut rng,
        );
        assert!(big.num_parameters() > small.num_parameters());
        assert!(small.num_parameters() > 0);
    }

    #[test]
    fn all_readouts_forward_and_differ() {
        let g = Graph::star(6).unwrap();
        let mut predictions = Vec::new();
        for readout in [Readout::Mean, Readout::Sum, Readout::Max] {
            // Same seed ⇒ same weights; only the readout differs.
            let mut rng = StdRng::seed_from_u64(90);
            let model = GnnModel::new(
                GnnKind::Gcn,
                ModelConfig {
                    readout,
                    ..ModelConfig::default()
                },
                &mut rng,
            );
            let (gamma, beta) = model.predict(&g);
            assert!(gamma.is_finite() && beta.is_finite(), "{readout:?}");
            predictions.push((gamma, beta));
        }
        // Star with 6 nodes: sum != mean (n > 1) and max != mean generically.
        assert_ne!(predictions[0], predictions[1]);
        assert_ne!(predictions[0], predictions[2]);
    }

    #[test]
    fn readout_permutation_invariance() {
        // With degree-only features (no one-hot), relabeling nodes must not
        // change the graph-level prediction, whatever the readout.
        use qrand::seq::SliceRandom;
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)]).unwrap();
        let mut perm: Vec<usize> = (0..6).collect();
        perm.shuffle(&mut StdRng::seed_from_u64(7));
        let relabeled = g.relabel(&perm);
        for readout in [Readout::Mean, Readout::Sum, Readout::Max] {
            let mut rng = StdRng::seed_from_u64(91);
            // Degree-only features (one-hot disabled): the model sees only
            // permutation-invariant inputs.
            let config = ModelConfig {
                readout,
                dropout: 0.0,
                features: qgraph::features::FeatureConfig {
                    one_hot_dim: 0,
                    include_degree: true,
                },
                ..ModelConfig::default()
            };
            let model = GnnModel::new(GnnKind::Gin, config, &mut rng);
            let a = model.predict(&g);
            let b = model.predict(&relabeled);
            assert!(
                (a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9,
                "{readout:?}: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn snapshot_restore_round_trips_predictions() {
        let g = Graph::complete(5).unwrap();
        let mut rng = StdRng::seed_from_u64(100);
        let model = GnnModel::new(GnnKind::Sage, ModelConfig::default(), &mut rng);
        let want = model.predict(&g);
        let snapshot = model.snapshot();
        // Clobber every parameter, then restore.
        for p in model.parameters() {
            let (r, c) = p.shape();
            p.set_value(Matrix::zeros(r, c));
        }
        assert_ne!(model.predict(&g), want, "clobbered model should differ");
        model.restore(&snapshot);
        assert_eq!(model.predict(&g), want);
    }

    #[test]
    #[should_panic(expected = "snapshot parameter count")]
    fn restore_rejects_foreign_snapshot() {
        let mut rng = StdRng::seed_from_u64(101);
        let gcn = GnnModel::new(GnnKind::Gcn, ModelConfig::default(), &mut rng);
        let gin = GnnModel::new(GnnKind::Gin, ModelConfig::default(), &mut rng);
        gcn.restore(&gin.snapshot());
    }

    #[test]
    fn try_restore_rejects_without_mutating() {
        let g = Graph::complete(5).unwrap();
        let mut rng = StdRng::seed_from_u64(102);
        let gcn = GnnModel::new(GnnKind::Gcn, ModelConfig::default(), &mut rng);
        let gin = GnnModel::new(GnnKind::Gin, ModelConfig::default(), &mut rng);
        let before = gcn.predict(&g);
        match gcn.try_restore(&gin.snapshot()) {
            Err(crate::WeightError::ParamCount { .. }) => {}
            other => panic!("expected ParamCount error, got {other:?}"),
        }
        // Same count, wrong shape: a snapshot with one matrix transposed.
        let mut warped = gcn.snapshot();
        warped[0] = warped[0].transpose();
        match gcn.try_restore(&warped) {
            Err(crate::WeightError::ShapeMismatch { index: 0, .. }) => {}
            other => panic!("expected ShapeMismatch at 0, got {other:?}"),
        }
        assert_eq!(gcn.predict(&g), before, "failed restore must not mutate");
    }

    #[test]
    fn kind_display_names() {
        assert_eq!(GnnKind::Gcn.to_string(), "GCN");
        assert_eq!(GnnKind::Gat.to_string(), "GAT");
        assert_eq!(GnnKind::Gin.to_string(), "GIN");
        assert_eq!(GnnKind::Sage.to_string(), "GraphSAGE");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_layers_rejected() {
        let mut rng = StdRng::seed_from_u64(96);
        let _ = GnnModel::new(
            GnnKind::Gcn,
            ModelConfig {
                layers: 0,
                ..ModelConfig::default()
            },
            &mut rng,
        );
    }
}
