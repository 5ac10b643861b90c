//! # qaoa-gnn — GNN warm-starts for QAOA parameter prediction
//!
//! This crate is the paper's contribution (Liang et al., DAC 2024): use a
//! graph neural network, trained on classically simulated QAOA outcomes, to
//! predict good initial `(γ, β)` parameters for unseen Max-Cut instances —
//! spending cheap classical compute to save scarce quantum iterations.
//!
//! The pipeline mirrors §3 of the paper:
//!
//! 1. [`dataset`] — generate synthetic regular graphs (2–15 nodes) and label
//!    each by running QAOA from random initialization for a fixed iteration
//!    budget (§3.1). Labeling parallelizes across graphs with scoped
//!    `std::thread` workers.
//! 2. [`sdp`] — Selective Data Pruning: drop (a tunable fraction of)
//!    low-approximation-ratio labels that would misdirect training (§3.3).
//! 3. [`fixed`] — fixed-angle augmentation for regular graphs of degrees
//!    3–11 (§3.3).
//! 4. [`pipeline`] — train the four GNN benchmarks on the labeled dataset.
//! 5. [`eval`] — compare GNN-predicted initialization against random
//!    initialization on held-out test graphs (§4, Figure 5 / Table 1).
//!
//! ## Quick start
//!
//! ```no_run
//! use qaoa_gnn::pipeline::{Pipeline, PipelineConfig};
//! use gnn::GnnKind;
//! use qrand::SeedableRng;
//!
//! let mut rng = qrand::rngs::StdRng::seed_from_u64(7);
//! let config = PipelineConfig::quick(); // CI-sized; `paper_scale()` for full
//! let pipeline = Pipeline::run(GnnKind::Gin, &config, &mut rng);
//! println!("mean AR improvement: {:.2} pts", pipeline.report.mean_improvement);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod dataset;
mod env;
pub mod eval;
pub mod faults;
pub mod fixed;
pub mod json;
pub mod pipeline;
pub mod sdp;
pub mod serve;
pub mod serve_loop;
pub mod store;

pub use cache::{CacheConfig, CacheStats, PredictionCache};
pub use dataset::{Dataset, LabeledGraph};
pub use eval::{EvaluationReport, GraphComparison};
pub use faults::{FaultSchedule, ScheduledFault};
pub use json::{FromJson, Json, JsonError, ToJson};
pub use pipeline::{Pipeline, PipelineConfig, PipelineError};
pub use serve::{
    EnvelopeStatus, GuardedPredictor, PredictionOutcome, RequestError, RequestPayload, Rung,
    ServeConfig, ServeRequest, ServeResponse, Skip, SkipReason,
};
pub use serve_loop::{
    Completed, Health, HealthReason, HealthReport, LoopConfig, LoopMetrics, ServeLoop, SwapError,
    Ticket,
};
pub use store::{ArtifactError, EnvelopeViolation, RunArtifact, TrainCheckpoint, TrainingEnvelope};
