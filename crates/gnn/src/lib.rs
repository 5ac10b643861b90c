//! # gnn — graph neural networks for QAOA parameter prediction
//!
//! Implements the paper's §3.2 model zoo on the [`tensor`] autodiff engine:
//!
//! * [`GraphContext`] — per-graph precomputed operands: node features
//!   (degree + one-hot id, §3.1), GCN-normalized adjacency, GAT attention
//!   mask, GIN aggregation matrix and GraphSAGE neighbor lists.
//! * [`GnnKind`] — the four benchmarked architectures: GCN (Eq. 5), GAT
//!   (Eqs. 6–7), GIN (Eq. 8) and GraphSAGE (Eqs. 3–4).
//! * [`GnnModel`] — `layers` message-passing layers, mean-pooling readout
//!   (Eq. 9) and an MLP head predicting normalized `(γ, β)`.
//! * [`Frozen`] — a trained model's weights as plain matrices: the
//!   tape-free, `Send + Sync` inference forward, bit-identical to the tape.
//! * [`train`] — the §4.1 training loop: Adam, ReduceLROnPlateau (min mode,
//!   factor 5, patience 5, min-lr 1e-5), dropout 0.5, 100 epochs.
//!
//! ## Example
//!
//! ```
//! use gnn::{GnnKind, GnnModel, ModelConfig};
//! use qgraph::Graph;
//! use qrand::SeedableRng;
//!
//! # fn main() -> Result<(), qgraph::GraphError> {
//! let mut rng = qrand::rngs::StdRng::seed_from_u64(1);
//! let model = GnnModel::new(GnnKind::Gcn, ModelConfig::default(), &mut rng);
//! let g = Graph::cycle(6)?;
//! let (gamma, beta) = model.predict(&g);
//! assert!((0.0..=std::f64::consts::TAU).contains(&gamma));
//! assert!((0.0..=std::f64::consts::PI).contains(&beta));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod checkpoint;
mod context;
mod frozen;
mod model;

pub mod train;

pub use checkpoint::{expected_shapes, ModelWeights, WeightError};
pub use context::GraphContext;
pub use frozen::Frozen;
pub use model::{GnnKind, GnnModel, ModelConfig, Readout};

/// Normalizes QAOA angles into the unit square the model predicts:
/// `γ/2π` and `β/(π/2)` (β has period π/2 for Max-Cut, see
/// `qaoa::Params::canonical`).
pub fn normalize_target(gamma: f64, beta: f64) -> [f64; 2] {
    [
        gamma / std::f64::consts::TAU,
        beta / std::f64::consts::FRAC_PI_2,
    ]
}

/// Inverse of [`normalize_target`].
pub fn denormalize_target(normalized: [f64; 2]) -> (f64, f64) {
    (
        normalized[0] * std::f64::consts::TAU,
        normalized[1] * std::f64::consts::FRAC_PI_2,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_normalization_round_trips() {
        let (g, b) = (1.234, 0.567);
        let n = normalize_target(g, b);
        assert!(n.iter().all(|v| (0.0..=1.0).contains(v)));
        let (g2, b2) = denormalize_target(n);
        assert!((g - g2).abs() < 1e-12);
        assert!((b - b2).abs() < 1e-12);
    }

    #[test]
    fn normalization_maps_extremes_to_unit_interval() {
        assert_eq!(normalize_target(0.0, 0.0), [0.0, 0.0]);
        let n = normalize_target(std::f64::consts::TAU, std::f64::consts::FRAC_PI_2);
        assert!((n[0] - 1.0).abs() < 1e-12);
        assert!((n[1] - 1.0).abs() < 1e-12);
    }
}
