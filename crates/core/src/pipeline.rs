//! The end-to-end pipeline: generate → label → prune → augment → train →
//! evaluate, reproducing the paper's full experiment in one call.

use std::io;
use std::path::PathBuf;

use qrand::rngs::StdRng;

use gnn::train::{self, Example, TrainConfig, TrainHistory};
use gnn::{GnnKind, GnnModel, GraphContext, ModelConfig};
use qgraph::generate::DatasetSpec;

use crate::dataset::{Dataset, DatasetError, FailurePolicy, LabelConfig, LabelReport};
use crate::env;
use crate::eval::{self, EvalConfig, EvaluationReport};
use crate::fixed::{self, FixedAngleStats};
use crate::sdp::{self, SdpConfig, SdpStats};
use crate::store::{self, RunArtifact};

/// Full-pipeline configuration.
///
/// [`PipelineConfig::paper_scale`] matches §3–4 exactly (9598 graphs, 500
/// optimizer iterations, 100 epochs, 100 test graphs) and takes hours;
/// [`PipelineConfig::quick`] is a minutes-scale configuration with the same
/// structure. The experiment binaries honor the `QAOA_GNN_FULL=1`
/// environment variable to select between them.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Dataset shape (§3.1).
    pub dataset: DatasetSpec,
    /// Labeling budget (§3.1).
    pub labeling: LabelConfig,
    /// Selective Data Pruning working point (§3.3); `None` disables.
    pub sdp: Option<SdpConfig>,
    /// Apply fixed-angle augmentation (§3.3).
    pub fixed_angles: bool,
    /// Model hyper-parameters (§4.1).
    pub model: ModelConfig,
    /// Training hyper-parameters (§4.1).
    pub training: TrainConfig,
    /// Held-out test graphs (paper: 100).
    pub test_size: usize,
    /// Evaluation setting (fixed parameters by default, §4).
    pub eval: EvalConfig,
    /// Master seed for dataset generation, labeling and splits.
    pub seed: u64,
    /// Directory for the labeling checkpoint journal; `None` labels
    /// in-memory only. With a directory set, an interrupted run resumes
    /// from the journal on the next invocation (see
    /// [`Dataset::resume_labeling`]).
    pub checkpoint_dir: Option<PathBuf>,
    /// What to do when labeling reports unrecovered per-graph failures.
    pub failure_policy: FailurePolicy,
    /// Where to save the completed run as a [`crate::store::RunArtifact`];
    /// `None` keeps the run in memory only. The artifact bundles the
    /// trained weights (bit-exact), this configuration, the training
    /// history, the labeling report, and the dataset fingerprint.
    pub artifact_path: Option<PathBuf>,
    /// Epoch stride between training checkpoints when `checkpoint_dir` is
    /// set (`1` = after every epoch; `0` is treated as `1`). The final
    /// done-state checkpoint is always written regardless of stride.
    pub checkpoint_every: usize,
}

impl PipelineConfig {
    /// The paper's full-scale configuration.
    pub fn paper_scale() -> Self {
        PipelineConfig {
            dataset: DatasetSpec::default(),
            labeling: LabelConfig::default(),
            sdp: Some(SdpConfig::paper_default()),
            fixed_angles: true,
            model: ModelConfig::default(),
            training: TrainConfig::default(),
            test_size: 100,
            eval: EvalConfig::default(),
            seed: 2024,
            checkpoint_dir: None,
            failure_policy: FailurePolicy::default(),
            artifact_path: None,
            checkpoint_every: 1,
        }
    }

    /// A minutes-scale configuration with identical structure: 360 graphs,
    /// 120 labeling iterations, 40 epochs, 40 test graphs.
    pub fn quick() -> Self {
        PipelineConfig {
            dataset: DatasetSpec::with_count(360),
            labeling: LabelConfig::quick(120),
            training: TrainConfig::quick(40),
            test_size: 40,
            ..PipelineConfig::paper_scale()
        }
    }

    /// Selects [`Self::paper_scale`] when the `QAOA_GNN_FULL` environment
    /// variable is set to a non-empty, non-`0` value, else [`Self::quick`],
    /// then applies optional env overrides through the builder methods —
    /// the same construction path callers use in code:
    ///
    /// * `QAOA_GNN_THREADS` — labeling worker threads.
    /// * `QAOA_GNN_ITERATIONS` — optimizer iterations per labeled graph.
    /// * `QAOA_GNN_SEED` — master seed.
    /// * `QAOA_GNN_CHECKPOINT_DIR` — checkpoint directory for the labeling
    ///   journal **and** per-epoch training checkpoints; an interrupted run
    ///   re-launched with the same directory resumes from the furthest
    ///   completed stage, bit-identically.
    /// * `QAOA_GNN_CHECKPOINT_EVERY` — epoch stride between training
    ///   checkpoints (default 1 = every epoch).
    /// * `QAOA_GNN_ARTIFACT` — path to save the completed run as a
    ///   [`crate::store::RunArtifact`] (binaries that train several
    ///   architectures derive one path per architecture from it, see
    ///   [`crate::store::artifact_path_for_kind`]).
    pub fn from_env() -> Self {
        let mut config = if env::flag("QAOA_GNN_FULL") {
            Self::paper_scale()
        } else {
            Self::quick()
        };
        if let Some(threads) = env::num("QAOA_GNN_THREADS") {
            config = config.with_threads(threads);
        }
        if let Some(iterations) = env::num("QAOA_GNN_ITERATIONS") {
            config = config.with_iterations(iterations);
        }
        if let Some(seed) = env::num("QAOA_GNN_SEED") {
            config = config.with_seed(seed);
        }
        if let Some(dir) = env::path("QAOA_GNN_CHECKPOINT_DIR") {
            config = config.with_checkpoint_dir(Some(dir));
        }
        if let Some(path) = env::path("QAOA_GNN_ARTIFACT") {
            config = config.with_artifact_path(Some(path));
        }
        if let Some(every) = env::num("QAOA_GNN_CHECKPOINT_EVERY") {
            config = config.with_checkpoint_every(every);
        }
        config
    }

    /// Builder-style: sets the labeling worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.labeling = self.labeling.with_threads(threads);
        self
    }

    /// Accepts only `0`. Sweep-level pooling is gone and simulation is
    /// always serial; this no-op stays only because the benchmark
    /// harness in `perfbench/` still calls `.with_sim_threads(0)`, and it
    /// goes with that call.
    ///
    /// # Panics
    ///
    /// Panics if `sim_threads != 0`.
    #[doc(hidden)]
    pub fn with_sim_threads(self, sim_threads: usize) -> Self {
        assert_eq!(sim_threads, 0, "sweep-level pooling was removed");
        self
    }

    /// Builder-style: sets the optimizer iteration budget per labeled graph.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.labeling = self.labeling.with_iterations(iterations);
        self
    }

    /// Builder-style: sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: sets the dataset shape.
    pub fn with_dataset(mut self, dataset: DatasetSpec) -> Self {
        self.dataset = dataset;
        self
    }

    /// Builder-style: sets the held-out test-set size.
    pub fn with_test_size(mut self, test_size: usize) -> Self {
        self.test_size = test_size;
        self
    }

    /// Builder-style: sets (or disables, with `None`) the SDP pass.
    pub fn with_sdp(mut self, sdp: Option<SdpConfig>) -> Self {
        self.sdp = sdp;
        self
    }

    /// Builder-style: enables or disables fixed-angle augmentation.
    pub fn with_fixed_angles(mut self, fixed_angles: bool) -> Self {
        self.fixed_angles = fixed_angles;
        self
    }

    /// Builder-style: sets the model hyper-parameters.
    pub fn with_model(mut self, model: ModelConfig) -> Self {
        self.model = model;
        self
    }

    /// Builder-style: sets the training hyper-parameters.
    pub fn with_training(mut self, training: TrainConfig) -> Self {
        self.training = training;
        self
    }

    /// Builder-style: sets (or clears, with `None`) the labeling
    /// checkpoint directory.
    pub fn with_checkpoint_dir(mut self, checkpoint_dir: Option<PathBuf>) -> Self {
        self.checkpoint_dir = checkpoint_dir;
        self
    }

    /// Builder-style: sets the labeling failure policy.
    pub fn with_failure_policy(mut self, failure_policy: FailurePolicy) -> Self {
        self.failure_policy = failure_policy;
        self
    }

    /// Builder-style: sets (or clears, with `None`) the run-artifact save
    /// path.
    pub fn with_artifact_path(mut self, artifact_path: Option<PathBuf>) -> Self {
        self.artifact_path = artifact_path;
        self
    }

    /// Builder-style: sets the epoch stride between training checkpoints
    /// (`0` is treated as `1`).
    pub fn with_checkpoint_every(mut self, checkpoint_every: usize) -> Self {
        self.checkpoint_every = checkpoint_every;
        self
    }
}

/// Why a pipeline run failed.
#[derive(Debug)]
pub enum PipelineError {
    /// The generation/labeling/split layer failed (see [`DatasetError`]);
    /// filesystem errors from checkpoint and artifact writes also arrive
    /// here as [`DatasetError::Io`].
    Dataset(DatasetError),
    /// `checkpoint_dir` holds a **valid** training checkpoint that belongs
    /// to a different run — different config, dataset, architecture, or
    /// RNG stream. Resuming would silently mix two runs, so the pipeline
    /// refuses; point it at a fresh directory (or delete the stale
    /// checkpoint) to proceed.
    CheckpointMismatch {
        /// The refusing checkpoint file.
        path: PathBuf,
        /// [`crate::store::train_identity`] of the current run.
        expected: u64,
        /// Identity recorded in the checkpoint.
        found: u64,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Dataset(e) => write!(f, "{e}"),
            PipelineError::CheckpointMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "training checkpoint {} belongs to a different run \
                 (identity {found:#018x}, this run is {expected:#018x}); \
                 refusing to resume",
                path.display()
            ),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Dataset(e) => Some(e),
            PipelineError::CheckpointMismatch { .. } => None,
        }
    }
}

impl From<DatasetError> for PipelineError {
    fn from(e: DatasetError) -> Self {
        PipelineError::Dataset(e)
    }
}

impl From<io::Error> for PipelineError {
    fn from(e: io::Error) -> Self {
        PipelineError::Dataset(DatasetError::from(e))
    }
}

/// Everything one pipeline run produced.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// The architecture that was trained.
    pub kind: GnnKind,
    /// The trained model.
    pub model: GnnModel,
    /// Label-quality statistics of the raw dataset (Figs. 3–4 data).
    pub raw_dataset: Dataset,
    /// Dataset actually used for training (after SDP + augmentation).
    pub train_dataset: Dataset,
    /// SDP pass statistics, when enabled.
    pub sdp_stats: Option<SdpStats>,
    /// Fixed-angle pass statistics, when enabled.
    pub fixed_stats: Option<FixedAngleStats>,
    /// Training history.
    pub history: TrainHistory,
    /// Test-set MSE of the normalized angle regression.
    pub test_mse: f64,
    /// The §4 comparison against random initialization.
    pub report: EvaluationReport,
    /// What the checked labeling stage reported (clean when the pipeline
    /// ran on a pre-labeled dataset).
    pub label_report: LabelReport,
}

/// Converts dataset entries into training examples (normalized targets).
pub fn to_examples(dataset: &Dataset, model_config: &ModelConfig) -> Vec<Example> {
    dataset
        .entries
        .iter()
        .map(|entry| {
            let canonical = entry.params.canonical();
            Example {
                context: GraphContext::new(
                    &entry.graph,
                    &model_config.features,
                    model_config.gin_eps,
                ),
                target: gnn::normalize_target(canonical.gammas()[0], canonical.betas()[0]),
            }
        })
        .collect()
}

impl Pipeline {
    /// Runs the full pipeline for one architecture.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is infeasible (e.g. `test_size` not
    /// below the dataset size), the dataset spec is invalid, or labeling
    /// fails under [`FailurePolicy::Halt`] — see [`Self::try_run`] for the
    /// non-panicking form.
    pub fn run(kind: GnnKind, config: &PipelineConfig, rng: &mut StdRng) -> Pipeline {
        Self::try_run(kind, config, rng).unwrap_or_else(|e| panic!("pipeline failed: {e}"))
    }

    /// [`Self::run`] with fault-tolerant labeling surfaced as a `Result`:
    /// labels through the checked engine (journaled into
    /// `config.checkpoint_dir` when set), applies `config.failure_policy`
    /// to any unrecovered per-graph failures, and attaches the
    /// [`LabelReport`] to the returned pipeline.
    ///
    /// With `checkpoint_dir` set, the run is **stage-resumable**: every
    /// completed label is journaled and every `checkpoint_every`-th epoch
    /// writes a [`crate::store::TrainCheckpoint`], so a killed run
    /// relaunched with the same directory skips journaled labels, resumes
    /// training from the last checkpointed epoch, and produces a final
    /// artifact byte-identical to a never-interrupted run.
    ///
    /// # Errors
    ///
    /// [`DatasetError::LabelingFailed`] when labeling left unrecovered
    /// failures under [`FailurePolicy::Halt`]; spec and checkpoint-journal
    /// errors from [`Dataset::generate_checked`];
    /// [`PipelineError::CheckpointMismatch`] when the directory holds a
    /// valid training checkpoint from a different run.
    pub fn try_run(
        kind: GnnKind,
        config: &PipelineConfig,
        rng: &mut StdRng,
    ) -> Result<Pipeline, PipelineError> {
        let (raw_dataset, label_report) = Dataset::generate_checked(
            &config.dataset,
            &config.labeling,
            config.seed,
            config.checkpoint_dir.as_deref(),
        )?;
        if config.failure_policy == FailurePolicy::Halt && !label_report.is_complete() {
            return Err(DatasetError::LabelingFailed(label_report).into());
        }
        Self::finish(kind, raw_dataset, config, label_report, rng)
    }

    /// Runs the pipeline on a pre-labeled dataset (lets the experiment
    /// binaries label once and train all four architectures).
    ///
    /// # Panics
    ///
    /// Panics if `config.test_size >= dataset.len()` or the artifact save
    /// fails — see [`Self::try_run_on_dataset`] for the non-panicking form.
    pub fn run_on_dataset(
        kind: GnnKind,
        raw_dataset: Dataset,
        config: &PipelineConfig,
        rng: &mut StdRng,
    ) -> Pipeline {
        Self::try_run_on_dataset(kind, raw_dataset, config, rng)
            .unwrap_or_else(|e| panic!("pipeline failed: {e}"))
    }

    /// [`Self::run_on_dataset`] surfacing infeasible splits and artifact
    /// save failures as a `Result`. The labeling stage did not run here, so
    /// the attached [`LabelReport`] is clean.
    ///
    /// # Errors
    ///
    /// [`DatasetError::SplitTooLarge`] when `config.test_size >=
    /// dataset.len()`; [`DatasetError::Io`] when saving to
    /// `config.artifact_path` fails.
    pub fn try_run_on_dataset(
        kind: GnnKind,
        raw_dataset: Dataset,
        config: &PipelineConfig,
        rng: &mut StdRng,
    ) -> Result<Pipeline, PipelineError> {
        let report = LabelReport::clean(raw_dataset.len());
        Self::finish(kind, raw_dataset, config, report, rng)
    }

    /// Shared tail of every entry point: split, prune, augment, train,
    /// evaluate, attach the labeling report, and — when
    /// `config.artifact_path` is set — persist the whole run as a
    /// [`crate::store::RunArtifact`]. Saving happens *after* the real
    /// label report is attached so the artifact records what labeling
    /// actually did.
    ///
    /// With `checkpoint_dir` set, training runs through
    /// [`train::train_resumable`] with a [`crate::store::TrainCheckpoint`]
    /// persisted at epoch boundaries. On restart the furthest completed
    /// stage is detected and skipped: journaled labels replay for free
    /// (upstream, in [`Dataset::resume_labeling`]), a fingerprint-validated
    /// checkpoint resumes training mid-schedule (a `done` one skips it
    /// entirely), and an artifact already holding this run's exact bytes is
    /// left untouched. A checkpoint whose [`store::train_identity`] differs
    /// is a different run and refuses typed; a torn or corrupted one falls
    /// back to a fresh training start — the result is bit-identical either
    /// way, only the work saved differs.
    fn finish(
        kind: GnnKind,
        raw_dataset: Dataset,
        config: &PipelineConfig,
        label_report: LabelReport,
        rng: &mut StdRng,
    ) -> Result<Pipeline, PipelineError> {
        let (train_split, test_split) =
            raw_dataset.split(config.test_size, config.seed ^ 0x5f5f)?;

        // Data-quality passes apply to the training split only; the test
        // split stays untouched for unbiased evaluation.
        let (pruned, sdp_stats) = match &config.sdp {
            Some(sdp_config) => {
                let (d, s) = sdp::prune(&train_split, sdp_config, rng);
                (d, Some(s))
            }
            None => (train_split, None),
        };
        let (train_dataset, fixed_stats) = if config.fixed_angles {
            let (d, s) = fixed::augment(&pruned);
            (d, Some(s))
        } else {
            (pruned, None)
        };

        let model = GnnModel::new(kind, config.model.clone(), rng);
        let train_examples = to_examples(&train_dataset, &config.model);
        let history = match &config.checkpoint_dir {
            Some(dir) if !train_examples.is_empty() => {
                let dataset_fingerprint =
                    store::fingerprint_graph_refs(raw_dataset.entries.iter().map(|e| &e.graph));
                // The identity is taken at the train-start RNG position:
                // every stage before this point replays deterministically
                // from the master seed, so first run and resume compute the
                // same value — and a checkpoint from any *other* run
                // (different seed, config, dataset, or architecture) cannot.
                let identity =
                    store::train_identity(kind, config, dataset_fingerprint, rng.state());
                let path = store::train_checkpoint_path(dir, kind);
                let resume = match store::TrainCheckpoint::load(&path) {
                    Ok(checkpoint) => {
                        if checkpoint.identity != identity {
                            return Err(PipelineError::CheckpointMismatch {
                                path,
                                expected: identity,
                                found: checkpoint.identity,
                            });
                        }
                        // Identity matches but the state is structurally
                        // incompatible (a hand-edited file with recomputed
                        // checksums): train from scratch rather than guess.
                        match checkpoint.state.compatible_with(
                            &model,
                            &config.training,
                            train_examples.len(),
                        ) {
                            Ok(()) => Some(checkpoint.state),
                            Err(_) => None,
                        }
                    }
                    // Missing, torn, or corrupted checkpoint: the previous
                    // run never survived an epoch boundary — start fresh.
                    Err(_) => None,
                };
                train::train_resumable(
                    &model,
                    &train_examples,
                    &config.training,
                    rng,
                    resume,
                    config.checkpoint_every.max(1),
                    |state| {
                        store::TrainCheckpoint {
                            kind,
                            identity,
                            state: state.clone(),
                        }
                        .save(&path)
                    },
                )
                .map_err(DatasetError::from)?
            }
            _ => train::train(&model, &train_examples, &config.training, rng),
        };
        let test_examples = to_examples(&test_split, &config.model);
        let test_mse = train::evaluate(&model, &test_examples);

        let test_graphs: Vec<qgraph::Graph> =
            test_split.entries.iter().map(|e| e.graph.clone()).collect();
        let report = eval::evaluate_model(&model, &test_graphs, &config.eval, rng);

        let pipeline = Pipeline {
            kind,
            model,
            raw_dataset,
            train_dataset,
            sdp_stats,
            fixed_stats,
            history,
            test_mse,
            report,
            label_report,
        };
        if let Some(path) = &config.artifact_path {
            let bytes = pipeline.to_artifact(config).to_bytes();
            // Stage detection, final rung: a previous run killed *after*
            // its save already published exactly these bytes — leave the
            // file untouched instead of rewriting it.
            match std::fs::read(path) {
                Ok(existing) if existing == bytes => {}
                _ => store::save_artifact_bytes(path, &bytes).map_err(DatasetError::from)?,
            }
        }
        Ok(pipeline)
    }

    /// Bundles this run into a [`RunArtifact`]: the trained weights
    /// (bit-exact), `config`, the training history, the labeling report,
    /// the raw dataset's fingerprint, and the training envelope (what the
    /// model actually saw after pruning/augmentation, so serving can tell
    /// in-distribution requests from out-of-envelope ones).
    pub fn to_artifact(&self, config: &PipelineConfig) -> RunArtifact {
        RunArtifact {
            config: config.clone(),
            weights: self.model.export_weights(),
            history: self.history.clone(),
            label_report: self.label_report.clone(),
            dataset_fingerprint: store::fingerprint_graph_refs(
                self.raw_dataset.entries.iter().map(|e| &e.graph),
            ),
            envelope: store::TrainingEnvelope::from_dataset(
                &self.train_dataset,
                config.model.features.dim(),
            ),
        }
    }

    /// Publishes this run's trained model into a live serving loop as a
    /// mid-traffic hot-swap: the retrain → redeploy path with no restart
    /// and no dropped requests. The artifact is validated before
    /// publication; on [`crate::serve_loop::SwapError`] the loop keeps
    /// serving its previous generation untouched.
    pub fn publish(
        &self,
        config: &PipelineConfig,
        serve: &crate::serve_loop::ServeLoop,
    ) -> Result<u64, crate::serve_loop::SwapError> {
        serve.swap_artifact(self.to_artifact(config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrand::rngs::StdRng;
    use qrand::SeedableRng;

    fn tiny_config() -> PipelineConfig {
        PipelineConfig {
            dataset: DatasetSpec::with_count(40),
            labeling: LabelConfig::quick(60),
            training: TrainConfig::quick(10),
            test_size: 10,
            ..PipelineConfig::paper_scale()
        }
    }

    #[test]
    fn pipeline_produces_consistent_artifacts() {
        let mut rng = StdRng::seed_from_u64(151);
        let p = Pipeline::run(GnnKind::Gcn, &tiny_config(), &mut rng);
        assert_eq!(p.kind, GnnKind::Gcn);
        assert_eq!(p.raw_dataset.len(), 40);
        assert_eq!(p.report.per_graph.len(), 10);
        assert!(p.train_dataset.len() <= 30);
        assert!(!p.history.epochs.is_empty());
        assert!(p.test_mse.is_finite());
        assert!(p.sdp_stats.is_some());
        assert!(p.fixed_stats.is_some());
        // Data-quality passes must not lower mean label quality.
        assert!(p.train_dataset.mean_approx_ratio() >= p.raw_dataset.mean_approx_ratio() - 0.05);
    }

    #[test]
    fn pipeline_without_quality_passes() {
        let mut rng = StdRng::seed_from_u64(152);
        let config = PipelineConfig {
            sdp: None,
            fixed_angles: false,
            ..tiny_config()
        };
        let p = Pipeline::run(GnnKind::Sage, &config, &mut rng);
        assert!(p.sdp_stats.is_none());
        assert!(p.fixed_stats.is_none());
        assert_eq!(p.train_dataset.len(), 30);
    }

    #[test]
    fn quick_config_is_structurally_paper_scale() {
        let quick = PipelineConfig::quick();
        let paper = PipelineConfig::paper_scale();
        assert_eq!(quick.model, paper.model);
        assert_eq!(quick.sdp, paper.sdp);
        assert_eq!(quick.eval, paper.eval);
        assert!(quick.dataset.count < paper.dataset.count);
        assert_eq!(paper.dataset.count, 9598);
        assert_eq!(paper.labeling.iterations, 500);
        assert_eq!(paper.test_size, 100);
        assert_eq!(paper.training.epochs, 100);
    }

    #[test]
    fn builder_chain_overrides_fields() {
        let config = PipelineConfig::quick()
            .with_threads(8)
            .with_iterations(200)
            .with_seed(7)
            .with_test_size(12)
            .with_dataset(DatasetSpec::with_count(50))
            .with_sdp(None)
            .with_fixed_angles(false)
            .with_training(TrainConfig::quick(5));
        assert_eq!(config.labeling.threads, 8);
        assert_eq!(config.labeling.iterations, 200);
        assert_eq!(config.seed, 7);
        assert_eq!(config.test_size, 12);
        assert_eq!(config.dataset.count, 50);
        assert!(config.sdp.is_none());
        assert!(!config.fixed_angles);
        assert_eq!(config.training.epochs, 5);
        // Untouched fields keep their quick() values.
        assert_eq!(config.model, PipelineConfig::quick().model);
    }

    #[test]
    fn to_examples_normalizes_targets() {
        let mut rng = StdRng::seed_from_u64(153);
        let ds =
            Dataset::generate(&DatasetSpec::with_count(5), &LabelConfig::quick(30), 9).unwrap();
        let _ = &mut rng;
        let examples = to_examples(&ds, &ModelConfig::default());
        assert_eq!(examples.len(), 5);
        for ex in &examples {
            assert!(ex.target.iter().all(|v| v.is_finite()));
        }
    }
}
