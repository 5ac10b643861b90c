//! Architecture-aware weight checkpoints.
//!
//! [`ModelWeights`] is the serializable identity of a trained [`GnnModel`]:
//! the architecture kind, the full hyper-parameter configuration, and every
//! trainable parameter matrix in construction order. A `ModelWeights` is
//! self-describing — [`ModelWeights::build_model`] reconstructs the exact
//! model with no out-of-band knowledge, and validation is total: a
//! corrupted or architecture-mismatched weight set fails with a typed
//! [`WeightError`], never a panic and never silently-wrong weights.
//!
//! Serialization itself lives with the formats (`qaoa_gnn::json` for the
//! JSON run artifact); this module owns the in-memory schema and its
//! validation so every format shares one notion of "these weights fit that
//! architecture".

use qrand::rngs::StdRng;
use qrand::SeedableRng;

use tensor::Matrix;

use crate::{GnnKind, GnnModel, ModelConfig};

/// Why a weight set cannot be turned into a model.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightError {
    /// The hyper-parameter configuration is structurally invalid (the same
    /// conditions [`GnnModel::new`] would panic on, surfaced as data).
    BadConfig(String),
    /// The number of parameter matrices does not match what the declared
    /// architecture and configuration require.
    ParamCount {
        /// Matrices the architecture requires.
        expected: usize,
        /// Matrices the weight set carries.
        found: usize,
    },
    /// One parameter matrix has the wrong shape for its slot — the
    /// signature of loading one architecture's weights into another.
    ShapeMismatch {
        /// Index of the offending parameter in construction order.
        index: usize,
        /// Shape the architecture requires at that slot.
        expected: (usize, usize),
        /// Shape the weight set carries there.
        found: (usize, usize),
    },
    /// A parameter contains a non-finite value (NaN or ±∞).
    NonFinite {
        /// Index of the offending parameter in construction order.
        index: usize,
    },
}

impl std::fmt::Display for WeightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WeightError::BadConfig(msg) => write!(f, "invalid model config: {msg}"),
            WeightError::ParamCount { expected, found } => write!(
                f,
                "parameter count mismatch: architecture requires {expected} matrices, found {found}"
            ),
            WeightError::ShapeMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "parameter {index} shape mismatch: architecture requires {expected:?}, found {found:?}"
            ),
            WeightError::NonFinite { index } => {
                write!(f, "parameter {index} contains a non-finite value")
            }
        }
    }
}

impl std::error::Error for WeightError {}

/// The serializable identity of a trained model: architecture, full
/// hyper-parameters, and every trainable parameter in construction order.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelWeights {
    /// The architecture the parameters belong to.
    pub kind: GnnKind,
    /// The hyper-parameter configuration the parameters were shaped by.
    pub config: ModelConfig,
    /// Every trainable parameter, in [`GnnModel`] construction order.
    pub params: Vec<Matrix>,
}

/// The parameter shapes `GnnModel::new(kind, config, _)` allocates, in
/// construction order, without constructing a model.
///
/// # Errors
///
/// [`WeightError::BadConfig`] when the configuration is one `GnnModel::new`
/// would reject (zero layers, zero hidden width, zero-dimensional features,
/// or dropout outside `[0, 1)`).
pub fn expected_shapes(
    kind: GnnKind,
    config: &ModelConfig,
) -> Result<Vec<(usize, usize)>, WeightError> {
    if config.layers == 0 {
        return Err(WeightError::BadConfig("need at least one GNN layer".into()));
    }
    if config.hidden_dim == 0 {
        return Err(WeightError::BadConfig("hidden_dim must be positive".into()));
    }
    if config.features.dim() == 0 {
        return Err(WeightError::BadConfig(
            "feature dimension must be positive".into(),
        ));
    }
    if !(0.0..1.0).contains(&config.dropout) {
        return Err(WeightError::BadConfig("dropout must be in [0, 1)".into()));
    }
    let mut shapes = Vec::new();
    let mut in_dim = config.features.dim();
    let out_dim = config.hidden_dim;
    for _ in 0..config.layers {
        match kind {
            GnnKind::Gcn => shapes.push((in_dim, out_dim)),
            GnnKind::Gat => {
                shapes.push((in_dim, out_dim));
                shapes.push((out_dim, 1));
                shapes.push((out_dim, 1));
            }
            GnnKind::Gin => {
                shapes.push((in_dim, out_dim));
                shapes.push((1, out_dim));
                shapes.push((out_dim, out_dim));
                shapes.push((1, out_dim));
            }
            GnnKind::Sage => {
                shapes.push((in_dim, out_dim));
                shapes.push((1, out_dim));
                shapes.push((in_dim + out_dim, out_dim));
            }
        }
        in_dim = out_dim;
    }
    // MLP head: hidden layer + 2-wide output, each with a bias row.
    shapes.push((out_dim, out_dim));
    shapes.push((1, out_dim));
    shapes.push((out_dim, 2));
    shapes.push((1, 2));
    Ok(shapes)
}

impl ModelWeights {
    /// Checks that the parameter list exactly matches the declared
    /// architecture: right matrix count, right shape in every slot, and
    /// every value finite.
    ///
    /// # Errors
    ///
    /// The first [`WeightError`] encountered, in construction order.
    pub fn validate(&self) -> Result<(), WeightError> {
        let shapes = expected_shapes(self.kind, &self.config)?;
        if shapes.len() != self.params.len() {
            return Err(WeightError::ParamCount {
                expected: shapes.len(),
                found: self.params.len(),
            });
        }
        for (index, (param, &expected)) in self.params.iter().zip(&shapes).enumerate() {
            if param.shape() != expected {
                return Err(WeightError::ShapeMismatch {
                    index,
                    expected,
                    found: param.shape(),
                });
            }
            if !param.is_finite() {
                return Err(WeightError::NonFinite { index });
            }
        }
        Ok(())
    }

    /// Reconstructs the model these weights came from.
    ///
    /// The returned model predicts bit-identically to the one
    /// [`GnnModel::export_weights`] was called on: construction allocates
    /// the architecture's parameter slots, then every slot is overwritten
    /// with the checkpointed matrix.
    ///
    /// # Errors
    ///
    /// Any [`WeightError`] from [`Self::validate`] — an invalid weight set
    /// never reaches model construction.
    pub fn build_model(&self) -> Result<GnnModel, WeightError> {
        self.validate()?;
        // Initialization values are irrelevant (every parameter is
        // restored below); a fixed seed keeps construction deterministic.
        let mut rng = StdRng::seed_from_u64(0);
        let model = GnnModel::new(self.kind, self.config.clone(), &mut rng);
        model.restore(&self.params);
        Ok(model)
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
}

impl GnnModel {
    /// Exports the model's full serializable identity — architecture,
    /// hyper-parameters, and a snapshot of every trainable parameter.
    pub fn export_weights(&self) -> ModelWeights {
        ModelWeights {
            kind: self.kind(),
            config: self.config().clone(),
            params: self.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgraph::Graph;

    fn model(kind: GnnKind, seed: u64) -> GnnModel {
        let mut rng = StdRng::seed_from_u64(seed);
        GnnModel::new(kind, ModelConfig::default(), &mut rng)
    }

    #[test]
    fn export_build_round_trips_predictions_for_all_architectures() {
        let g = Graph::complete(6).unwrap();
        for (i, &kind) in GnnKind::ALL.iter().enumerate() {
            let original = model(kind, 300 + i as u64);
            let rebuilt = original.export_weights().build_model().unwrap();
            assert_eq!(rebuilt.kind(), kind);
            assert_eq!(original.predict(&g), rebuilt.predict(&g), "{kind}");
        }
    }

    #[test]
    fn expected_shapes_match_constructed_models() {
        for &kind in &GnnKind::ALL {
            for hidden_dim in [1, 3, 32] {
                let config = ModelConfig {
                    hidden_dim,
                    ..ModelConfig::default()
                };
                let mut rng = StdRng::seed_from_u64(7);
                let m = GnnModel::new(kind, config.clone(), &mut rng);
                let shapes = expected_shapes(kind, &config).unwrap();
                let actual: Vec<(usize, usize)> =
                    m.parameters().iter().map(|p| p.shape()).collect();
                assert_eq!(shapes, actual, "{kind} hidden={hidden_dim}");
            }
        }
    }

    #[test]
    fn cross_architecture_weights_fail_typed() {
        let gcn = model(GnnKind::Gcn, 310).export_weights();
        let mislabeled = ModelWeights {
            kind: GnnKind::Gat,
            ..gcn
        };
        match mislabeled.build_model() {
            Err(WeightError::ParamCount { .. } | WeightError::ShapeMismatch { .. }) => {}
            other => panic!("expected a structural error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_and_reshaped_params_fail_typed() {
        let mut w = model(GnnKind::Gin, 311).export_weights();
        w.params.pop();
        assert!(matches!(w.validate(), Err(WeightError::ParamCount { .. })));

        let mut w = model(GnnKind::Gin, 312).export_weights();
        w.params[0] = Matrix::zeros(1, 1);
        assert!(matches!(
            w.validate(),
            Err(WeightError::ShapeMismatch { index: 0, .. })
        ));
    }

    #[test]
    fn non_finite_weights_fail_typed() {
        let mut w = model(GnnKind::Gcn, 313).export_weights();
        let (r, c) = w.params[1].shape();
        w.params[1] = Matrix::full(r, c, f64::NAN);
        assert_eq!(w.validate(), Err(WeightError::NonFinite { index: 1 }));
    }

    #[test]
    fn bad_config_fails_before_construction() {
        let mut w = model(GnnKind::Gcn, 314).export_weights();
        w.config.layers = 0;
        assert!(matches!(w.validate(), Err(WeightError::BadConfig(_))));
        w.config.layers = 2;
        w.config.dropout = 1.5;
        assert!(matches!(w.validate(), Err(WeightError::BadConfig(_))));
    }
}
