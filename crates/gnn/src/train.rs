//! The §4.1 training loop.
//!
//! Per-graph (batch size 1) regression of normalized `(γ, β)` targets with
//! MSE loss, Adam, and the paper's ReduceLROnPlateau schedule monitoring the
//! training loss. Models train for 100 epochs before evaluation.

use qrand::rngs::StdRng;
use qrand::seq::SliceRandom;
use qrand::Rng;

use tensor::optim::{Adam, AdamState, Optimizer};
use tensor::sched::{PlateauState, ReduceLrOnPlateau};
use tensor::Matrix;

use crate::{GnnModel, GraphContext, WeightError};

/// One training example: a graph context and its normalized `(γ, β)` label.
#[derive(Debug, Clone)]
pub struct Example {
    /// Precomputed graph operands.
    pub context: GraphContext,
    /// Normalized target in `[0,1]²` (see [`crate::normalize_target`]).
    pub target: [f64; 2],
}

/// Training hyper-parameters; defaults follow §4.1.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of epochs (paper: 100).
    pub epochs: usize,
    /// Initial Adam learning rate (the paper does not state it; 0.01 with
    /// the plateau schedule converges on all four architectures).
    pub learning_rate: f64,
    /// Shuffle examples every epoch.
    pub shuffle: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 100,
            learning_rate: 0.01,
            shuffle: true,
        }
    }
}

impl TrainConfig {
    /// A fast configuration for tests and CI-sized benches.
    pub fn quick(epochs: usize) -> Self {
        TrainConfig {
            epochs,
            ..TrainConfig::default()
        }
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Epoch index (from 0).
    pub epoch: usize,
    /// Mean training MSE over the epoch.
    pub train_loss: f64,
    /// Learning rate in effect during the epoch.
    pub learning_rate: f64,
}

/// A recorded training divergence: the epoch whose loss went non-finite.
#[derive(Debug, Clone, PartialEq)]
pub struct DivergenceEvent {
    /// Epoch index at which the loss stopped being finite.
    pub epoch: usize,
    /// The offending loss value (NaN or ±∞).
    pub loss: f64,
}

/// The full training history.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainHistory {
    /// One entry per *completed* (finite-loss) epoch.
    pub epochs: Vec<EpochStats>,
    /// Set when training halted early on a non-finite loss; the returned
    /// model holds the best finite-epoch parameters, not the diverged ones.
    pub diverged: Option<DivergenceEvent>,
}

impl TrainHistory {
    /// Final training loss, or `None` before any epoch ran.
    pub fn final_loss(&self) -> Option<f64> {
        self.epochs.last().map(|e| e.train_loss)
    }

    /// Best (lowest) finite training loss seen.
    pub fn best_loss(&self) -> Option<f64> {
        self.epochs
            .iter()
            .map(|e| e.train_loss)
            .filter(|l| l.is_finite())
            .min_by(f64::total_cmp)
    }
}

/// Trains `model` on `examples` and returns the history.
///
/// Divergence guard: the per-example loss is checked for finiteness
/// *before* its gradients are applied. The first non-finite loss halts
/// training, restores the best finite-epoch parameters (the initial
/// weights if no epoch completed), and records a [`DivergenceEvent`] in
/// the history — a diverged trajectory costs the run its remaining epochs,
/// never its model.
///
/// # Panics
///
/// Panics if `examples` is empty.
pub fn train(
    model: &GnnModel,
    examples: &[Example],
    config: &TrainConfig,
    rng: &mut StdRng,
) -> TrainHistory {
    train_resumable(model, examples, config, rng, None, usize::MAX, |_| Ok(()))
        .expect("a fresh run with a discarding sink cannot fail")
}

/// One epoch of the §4.1 loop: shuffle, then per example forward, loss
/// check, backward and optimizer step, then the scheduler. Returns `true`
/// when the epoch diverged (recorded in `history`); the caller stops
/// training.
#[allow(clippy::too_many_arguments)]
fn run_epoch<R: Rng + ?Sized>(
    model: &GnnModel,
    examples: &[Example],
    config: &TrainConfig,
    order: &mut [usize],
    optimizer: &mut Adam,
    scheduler: &mut ReduceLrOnPlateau,
    rng: &mut R,
    epoch: usize,
    history: &mut TrainHistory,
    best: &mut (f64, Vec<Matrix>),
) -> bool {
    if config.shuffle {
        order.shuffle(rng);
    }
    let lr = optimizer.learning_rate();
    let mut total_loss = 0.0;
    for &i in order.iter() {
        let example = &examples[i];
        model.tape().reset();
        let out = model.forward(&example.context, rng);
        let target = Matrix::row_vector(&example.target);
        let loss = out.mse(&target);
        let loss_value = loss.value()[(0, 0)];
        if !loss_value.is_finite() {
            history.diverged = Some(DivergenceEvent {
                epoch,
                loss: loss_value,
            });
            return true;
        }
        total_loss += loss_value;
        model.tape().backward(&loss);
        optimizer.step(model.parameters());
    }
    model.tape().reset();
    let train_loss = total_loss / examples.len() as f64;
    scheduler.step(train_loss, optimizer);
    history.epochs.push(EpochStats {
        epoch,
        train_loss,
        learning_rate: lr,
    });
    if train_loss < best.0 {
        *best = (train_loss, model.snapshot());
    }
    false
}

/// Everything the training loop needs to continue from an epoch boundary:
/// the live parameters, both Adam moments and the step counter, the plateau
/// scheduler's streak, the divergence-guard best-finite snapshot, the exact
/// RNG stream position, the epoch permutation (the shuffle mutates it in
/// place across epochs), and the history so far.
///
/// Captured by [`train_resumable`] after each completed epoch and handed to
/// its `on_checkpoint` sink; feeding the state back as `resume` continues
/// the run bit-identically to one that was never interrupted.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainState {
    /// Next epoch to run (= completed epoch count). Equals `config.epochs`
    /// in the final state.
    pub next_epoch: usize,
    /// True once training finished (all epochs done, or diverged and the
    /// best weights restored); resuming a done state is a no-op replay.
    pub done: bool,
    /// Live model parameters at the epoch boundary.
    pub params: Vec<Matrix>,
    /// Adam moments, step count, and (scheduler-reduced) learning rate.
    pub optimizer: AdamState,
    /// ReduceLROnPlateau best metric and bad-epoch streak.
    pub scheduler: PlateauState,
    /// Best finite train loss so far (`+∞` before the first epoch).
    pub best_loss: f64,
    /// Parameters at the best-loss epoch (the divergence-guard snapshot).
    pub best_params: Vec<Matrix>,
    /// Epoch example order; the per-epoch shuffle permutes the previous
    /// epoch's order, so the permutation itself is training state.
    pub order: Vec<usize>,
    /// xoshiro256** state words of the training RNG.
    pub rng_state: [u64; 4],
    /// Per-epoch stats (and any divergence event) accumulated so far.
    pub history: TrainHistory,
}

impl TrainState {
    /// Validates this state against a model and config before resuming:
    /// parameter/best/moment counts and shapes must match the architecture,
    /// the epoch cursor must lie inside the schedule, the permutation must
    /// cover the example range, and the RNG state must be legal. A foreign
    /// or corrupted checkpoint fails here — typed, without touching the
    /// model — so callers can fall back to a fresh start.
    ///
    /// # Errors
    ///
    /// [`WeightError::ParamCount`] / [`WeightError::ShapeMismatch`] for
    /// architecture conflicts, [`WeightError::BadConfig`] for everything
    /// else (epoch out of range, bad permutation, zero RNG state, …).
    pub fn compatible_with(
        &self,
        model: &GnnModel,
        config: &TrainConfig,
        num_examples: usize,
    ) -> Result<(), WeightError> {
        let shapes: Vec<(usize, usize)> = model.parameters().iter().map(|p| p.shape()).collect();
        for set in [&self.params, &self.best_params] {
            if set.len() != shapes.len() {
                return Err(WeightError::ParamCount {
                    expected: shapes.len(),
                    found: set.len(),
                });
            }
            for (index, (value, &expected)) in set.iter().zip(&shapes).enumerate() {
                if value.shape() != expected {
                    return Err(WeightError::ShapeMismatch {
                        index,
                        expected,
                        found: value.shape(),
                    });
                }
            }
        }
        for moments in [&self.optimizer.m, &self.optimizer.v] {
            for &(index, ref value) in moments {
                let Some(&expected) = shapes.get(index) else {
                    return Err(WeightError::BadConfig(format!(
                        "optimizer moment for parameter {index}, model has {}",
                        shapes.len()
                    )));
                };
                if value.shape() != expected {
                    return Err(WeightError::ShapeMismatch {
                        index,
                        expected,
                        found: value.shape(),
                    });
                }
            }
        }
        if self.next_epoch > config.epochs {
            return Err(WeightError::BadConfig(format!(
                "checkpoint is at epoch {} but the schedule has only {}",
                self.next_epoch, config.epochs
            )));
        }
        if !self.done && self.next_epoch != self.history.epochs.len() {
            return Err(WeightError::BadConfig(format!(
                "checkpoint epoch cursor {} disagrees with {} recorded epochs",
                self.next_epoch,
                self.history.epochs.len()
            )));
        }
        let mut seen = vec![false; num_examples];
        if self.order.len() != num_examples {
            return Err(WeightError::BadConfig(format!(
                "checkpoint permutation covers {} examples, dataset has {num_examples}",
                self.order.len()
            )));
        }
        for &i in &self.order {
            if i >= num_examples || seen[i] {
                return Err(WeightError::BadConfig(
                    "checkpoint permutation is not a permutation".into(),
                ));
            }
            seen[i] = true;
        }
        if self.rng_state.iter().all(|&w| w == 0) {
            return Err(WeightError::BadConfig(
                "checkpoint RNG state is all-zero".into(),
            ));
        }
        Ok(())
    }

    /// Captures the loop state at an epoch boundary.
    #[allow(clippy::too_many_arguments)]
    fn capture(
        next_epoch: usize,
        done: bool,
        model: &GnnModel,
        optimizer: &Adam,
        scheduler: &ReduceLrOnPlateau,
        best: &(f64, Vec<Matrix>),
        order: &[usize],
        rng: &StdRng,
        history: &TrainHistory,
    ) -> TrainState {
        TrainState {
            next_epoch,
            done,
            params: model.snapshot(),
            optimizer: optimizer.export_state(),
            scheduler: scheduler.export_state(),
            best_loss: best.0,
            best_params: best.1.clone(),
            order: order.to_vec(),
            rng_state: rng.state(),
            history: history.clone(),
        }
    }
}

/// [`train`] with epoch-granular checkpointing and kill-and-resume.
///
/// Runs the identical loop (same RNG draws, same floating-point op order),
/// but after every `checkpoint_every`-th completed epoch — and always once
/// more when training finishes — hands a [`TrainState`] to `on_checkpoint`.
/// Passing a state captured there back as `resume` continues the run from
/// that boundary; the concatenation of the two runs is bit-identical to an
/// uninterrupted [`train`] call with the same model, examples, config, and
/// RNG. Resuming a `done` state replays nothing: it restores the final
/// parameters and RNG position and returns the recorded history.
///
/// The caller owns durability: `on_checkpoint` is where a
/// `core::store::TrainCheckpoint` gets written. Its error aborts training
/// (the model keeps its current weights).
///
/// # Errors
///
/// Returns `InvalidData` if `resume` fails [`TrainState::compatible_with`]
/// (the model is left untouched), or whatever `on_checkpoint` returns.
///
/// # Panics
///
/// Panics if `examples` is empty or `checkpoint_every == 0`.
pub fn train_resumable(
    model: &GnnModel,
    examples: &[Example],
    config: &TrainConfig,
    rng: &mut StdRng,
    resume: Option<TrainState>,
    checkpoint_every: usize,
    mut on_checkpoint: impl FnMut(&TrainState) -> std::io::Result<()>,
) -> std::io::Result<TrainHistory> {
    assert!(!examples.is_empty(), "training set must be non-empty");
    assert!(checkpoint_every >= 1, "checkpoint stride must be positive");
    let invalid = |e: WeightError| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("incompatible training checkpoint: {e}"),
        )
    };

    let mut optimizer;
    let mut scheduler = ReduceLrOnPlateau::paper_default();
    let mut order: Vec<usize>;
    let mut history;
    let mut best: (f64, Vec<Matrix>);
    let start_epoch;
    match resume {
        Some(state) => {
            state
                .compatible_with(model, config, examples.len())
                .map_err(invalid)?;
            if state.done {
                model.try_restore(&state.params).map_err(invalid)?;
                *rng = StdRng::from_state(state.rng_state);
                return Ok(state.history);
            }
            model.try_restore(&state.params).map_err(invalid)?;
            optimizer = Adam::from_state(&state.optimizer);
            scheduler.import_state(&state.scheduler);
            order = state.order;
            history = state.history;
            best = (state.best_loss, state.best_params);
            *rng = StdRng::from_state(state.rng_state);
            start_epoch = state.next_epoch;
        }
        None => {
            optimizer = Adam::new(config.learning_rate);
            order = (0..examples.len()).collect();
            history = TrainHistory::default();
            best = (f64::INFINITY, model.snapshot());
            start_epoch = 0;
        }
    }

    model.tape().set_training(true);
    for epoch in start_epoch..config.epochs {
        let diverged = run_epoch(
            model,
            examples,
            config,
            &mut order,
            &mut optimizer,
            &mut scheduler,
            rng,
            epoch,
            &mut history,
            &mut best,
        );
        if diverged {
            break;
        }
        let completed = epoch + 1;
        if completed < config.epochs && completed % checkpoint_every == 0 {
            let state = TrainState::capture(
                completed, false, model, &optimizer, &scheduler, &best, &order, rng, &history,
            );
            if let Err(e) = on_checkpoint(&state) {
                model.tape().reset();
                model.tape().set_training(false);
                return Err(e);
            }
        }
    }
    model.tape().reset();
    if history.diverged.is_some() {
        model.restore(&best.1);
    }
    model.tape().set_training(false);
    let final_state = TrainState::capture(
        config.epochs,
        true,
        model,
        &optimizer,
        &scheduler,
        &best,
        &order,
        rng,
        &history,
    );
    on_checkpoint(&final_state)?;
    Ok(history)
}

/// Mean MSE of the model's (normalized) predictions over a labeled set,
/// with dropout disabled.
///
/// # Panics
///
/// Panics if `examples` is empty.
pub fn evaluate(model: &GnnModel, examples: &[Example]) -> f64 {
    assert!(!examples.is_empty(), "evaluation set must be non-empty");
    let frozen = model.freeze();
    let total: f64 = examples
        .iter()
        .map(|ex| {
            let (gamma, beta) = frozen.predict_ctx(&ex.context);
            let predicted = crate::normalize_target(gamma, beta);
            let d0 = predicted[0] - ex.target[0];
            let d1 = predicted[1] - ex.target[1];
            (d0 * d0 + d1 * d1) / 2.0
        })
        .sum();
    total / examples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GnnKind, ModelConfig};
    use qgraph::features::FeatureConfig;
    use qgraph::Graph;
    use qrand::rngs::StdRng;
    use qrand::SeedableRng;

    fn toy_dataset() -> Vec<Example> {
        // Cycles map to one target, stars to another: learnable from
        // degree features alone.
        let mut examples = Vec::new();
        for n in 4..=9 {
            let g = Graph::cycle(n).unwrap();
            examples.push(Example {
                context: GraphContext::new(&g, &FeatureConfig::default(), 0.0),
                target: [0.2, 0.8],
            });
            let g = Graph::star(n).unwrap();
            examples.push(Example {
                context: GraphContext::new(&g, &FeatureConfig::default(), 0.0),
                target: [0.7, 0.3],
            });
        }
        examples
    }

    #[test]
    fn training_reduces_loss_for_every_architecture() {
        let data = toy_dataset();
        for &kind in &GnnKind::ALL {
            let mut rng = StdRng::seed_from_u64(101);
            let config = ModelConfig {
                dropout: 0.0, // deterministic toy check
                hidden_dim: 16,
                ..ModelConfig::default()
            };
            let model = GnnModel::new(kind, config, &mut rng);
            let history = train(&model, &data, &TrainConfig::quick(30), &mut rng);
            let first = history.epochs.first().unwrap().train_loss;
            let last = history.final_loss().unwrap();
            assert!(
                last < first * 0.8,
                "{kind:?}: loss {first} -> {last} did not improve"
            );
        }
    }

    #[test]
    fn trained_model_separates_the_two_classes() {
        let data = toy_dataset();
        let mut rng = StdRng::seed_from_u64(102);
        let config = ModelConfig {
            dropout: 0.0,
            hidden_dim: 16,
            ..ModelConfig::default()
        };
        let model = GnnModel::new(GnnKind::Gin, config, &mut rng);
        train(&model, &data, &TrainConfig::quick(60), &mut rng);
        // Held-out sizes.
        let cycle = Graph::cycle(10).unwrap();
        let star = Graph::star(10).unwrap();
        let (gc, _) = model.predict(&cycle);
        let (gs, _) = model.predict(&star);
        let nc = crate::normalize_target(gc, 0.0)[0];
        let ns = crate::normalize_target(gs, 0.0)[0];
        assert!(
            nc < ns,
            "cycle gamma ({nc}) should be below star gamma ({ns})"
        );
    }

    #[test]
    fn evaluate_is_zero_for_perfect_labels() {
        let data = toy_dataset();
        let mut rng = StdRng::seed_from_u64(103);
        let model = GnnModel::new(GnnKind::Gcn, ModelConfig::default(), &mut rng);
        // Self-labeling: evaluate against the model's own predictions.
        let self_labeled: Vec<Example> = data
            .iter()
            .map(|ex| {
                let (g, b) = model.predict_ctx(&ex.context);
                Example {
                    context: ex.context.clone(),
                    target: crate::normalize_target(g, b),
                }
            })
            .collect();
        assert!(evaluate(&model, &self_labeled) < 1e-18);
    }

    #[test]
    fn scheduler_reduces_learning_rate_on_plateau() {
        // Constant targets equal to the sigmoid's saturated region make
        // progress stall quickly; the recorded learning rate must drop.
        let data = toy_dataset();
        let mut rng = StdRng::seed_from_u64(104);
        let model = GnnModel::new(GnnKind::Gcn, ModelConfig::default(), &mut rng);
        let history = train(&model, &data, &TrainConfig::quick(60), &mut rng);
        let first_lr = history.epochs.first().unwrap().learning_rate;
        let last_lr = history.epochs.last().unwrap().learning_rate;
        assert!(last_lr <= first_lr);
    }

    #[test]
    fn history_accessors() {
        let h = TrainHistory {
            epochs: vec![
                EpochStats {
                    epoch: 0,
                    train_loss: 0.5,
                    learning_rate: 0.01,
                },
                EpochStats {
                    epoch: 1,
                    train_loss: 0.2,
                    learning_rate: 0.01,
                },
            ],
            diverged: None,
        };
        assert_eq!(h.final_loss(), Some(0.2));
        assert_eq!(h.best_loss(), Some(0.2));
        assert_eq!(TrainHistory::default().final_loss(), None);
    }

    #[test]
    fn best_loss_ignores_non_finite_epochs() {
        let stats = |epoch, train_loss| EpochStats {
            epoch,
            train_loss,
            learning_rate: 0.01,
        };
        let h = TrainHistory {
            epochs: vec![stats(0, 0.4), stats(1, f64::NAN), stats(2, 0.3)],
            diverged: None,
        };
        assert_eq!(h.best_loss(), Some(0.3));
        let all_nan = TrainHistory {
            epochs: vec![stats(0, f64::NAN)],
            diverged: None,
        };
        assert_eq!(all_nan.best_loss(), None);
    }

    #[test]
    fn nan_target_halts_training_and_restores_weights() {
        // A poisoned label makes the very first loss NaN: training must
        // stop, record the divergence, and leave the model with its
        // pre-training (best finite) weights instead of NaN-soaked ones.
        let mut data = toy_dataset();
        data[0].target = [f64::NAN, 0.5];
        let mut rng = StdRng::seed_from_u64(106);
        let config = ModelConfig {
            dropout: 0.0,
            hidden_dim: 16,
            ..ModelConfig::default()
        };
        let model = GnnModel::new(GnnKind::Gcn, config, &mut rng);
        let g = Graph::cycle(10).unwrap();
        let before = model.predict(&g);
        let history = train(
            &model,
            &data,
            &TrainConfig {
                shuffle: false, // poisoned example is hit first
                ..TrainConfig::quick(20)
            },
            &mut rng,
        );
        let event = history.diverged.expect("divergence must be recorded");
        assert_eq!(event.epoch, 0);
        assert!(event.loss.is_nan());
        assert!(history.epochs.is_empty(), "no epoch completed");
        assert_eq!(model.predict(&g), before, "weights restored to initial");
    }

    #[test]
    fn infinite_loss_halts_with_infinite_event_loss() {
        // A target beyond ±1.3e154 makes (out − target)² overflow to +∞:
        // the squared-error path to divergence, distinct from NaN.
        let mut data = toy_dataset();
        let last = data.len() - 1;
        data[last].target = [1e155, 0.5];
        let mut rng = StdRng::seed_from_u64(107);
        let config = ModelConfig {
            dropout: 0.0,
            hidden_dim: 16,
            ..ModelConfig::default()
        };
        let model = GnnModel::new(GnnKind::Gcn, config, &mut rng);
        let history = train(
            &model,
            &data,
            &TrainConfig {
                shuffle: false, // poisoned example is hit last in epoch 0
                ..TrainConfig::quick(20)
            },
            &mut rng,
        );
        let event = history.diverged.expect("overflowed loss must diverge");
        assert_eq!(event.epoch, 0);
        assert_eq!(event.loss, f64::INFINITY);
        let g = Graph::cycle(10).unwrap();
        let (gamma, beta) = model.predict(&g);
        assert!(gamma.is_finite() && beta.is_finite());
        for e in &history.epochs {
            assert!(e.train_loss.is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_training_set_rejected() {
        let mut rng = StdRng::seed_from_u64(105);
        let model = GnnModel::new(GnnKind::Gcn, ModelConfig::default(), &mut rng);
        let _ = train(&model, &[], &TrainConfig::default(), &mut rng);
    }

    /// Bits of every parameter, for exact model comparison.
    fn param_bits(model: &GnnModel) -> Vec<u64> {
        model
            .snapshot()
            .iter()
            .flat_map(|m| {
                let mut bits = Vec::with_capacity(m.rows() * m.cols());
                for r in 0..m.rows() {
                    for c in 0..m.cols() {
                        bits.push(m[(r, c)].to_bits());
                    }
                }
                bits
            })
            .collect()
    }

    /// Kill-and-resume from *every* epoch boundary reproduces the
    /// uninterrupted run bit-for-bit: history, parameters, and the RNG
    /// position all match.
    #[test]
    fn resume_from_any_epoch_boundary_is_bit_identical() {
        let data = toy_dataset();
        let config = TrainConfig::quick(6);
        let mk = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            GnnModel::new(GnnKind::Gat, ModelConfig::default(), &mut rng)
        };

        // Control: uninterrupted, collecting every checkpoint state.
        let control = mk(210);
        let mut control_rng = StdRng::seed_from_u64(211);
        let mut states: Vec<TrainState> = Vec::new();
        let control_history =
            train_resumable(&control, &data, &config, &mut control_rng, None, 1, |s| {
                states.push(s.clone());
                Ok(())
            })
            .unwrap();
        // 5 mid-run boundaries (epochs 1..=5) plus the final done state.
        assert_eq!(states.len(), config.epochs);
        assert!(states.last().unwrap().done);
        let control_bits = param_bits(&control);

        for state in &states {
            let resumed = mk(210);
            // Deliberately wrong seed: resume must overwrite the stream.
            let mut rng = StdRng::seed_from_u64(999);
            let history = train_resumable(
                &resumed,
                &data,
                &config,
                &mut rng,
                Some(state.clone()),
                1,
                |_| Ok(()),
            )
            .unwrap();
            assert_eq!(
                history, control_history,
                "resume from epoch {} diverged",
                state.next_epoch
            );
            assert_eq!(
                param_bits(&resumed),
                control_bits,
                "parameters diverged resuming from epoch {}",
                state.next_epoch
            );
            assert_eq!(
                rng, control_rng,
                "RNG diverged from epoch {}",
                state.next_epoch
            );
        }
    }

    /// The checkpoint stride is honored: with `checkpoint_every = 2` only
    /// even epoch boundaries (plus the final state) reach the sink.
    #[test]
    fn checkpoint_stride_skips_boundaries() {
        let data = toy_dataset();
        let config = TrainConfig::quick(5);
        let mut rng = StdRng::seed_from_u64(220);
        let model = GnnModel::new(GnnKind::Gcn, ModelConfig::default(), &mut rng);
        let mut cursors = Vec::new();
        let _ = train_resumable(&model, &data, &config, &mut rng, None, 2, |s| {
            cursors.push((s.next_epoch, s.done));
            Ok(())
        })
        .unwrap();
        assert_eq!(cursors, vec![(2, false), (4, false), (5, true)]);
    }

    /// A foreign state (different architecture) is rejected with a typed
    /// error before any parameter is touched.
    #[test]
    fn incompatible_resume_state_is_rejected_cleanly() {
        let data = toy_dataset();
        let config = TrainConfig::quick(3);
        let mut rng = StdRng::seed_from_u64(230);
        let gin = GnnModel::new(GnnKind::Gin, ModelConfig::default(), &mut rng);
        let mut state_sink = None;
        let _ = train_resumable(&gin, &data, &config, &mut rng, None, 1, |s| {
            state_sink = Some(s.clone());
            Ok(())
        })
        .unwrap();
        let foreign = state_sink.unwrap();

        let mut rng = StdRng::seed_from_u64(231);
        let gcn = GnnModel::new(GnnKind::Gcn, ModelConfig::default(), &mut rng);
        let before = param_bits(&gcn);
        let err = train_resumable(
            &gcn,
            &data,
            &config,
            &mut rng,
            Some(foreign.clone()),
            1,
            |_| Ok(()),
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(param_bits(&gcn), before, "rejection must not mutate");

        // compatible_with also flags a too-short schedule and a truncated
        // permutation.
        assert!(foreign
            .compatible_with(&gin, &TrainConfig::quick(2), data.len())
            .is_err());
        assert!(foreign
            .compatible_with(&gin, &config, data.len() - 1)
            .is_err());
        assert!(foreign.compatible_with(&gin, &config, data.len()).is_ok());
    }

    /// Resuming a `done` state replays nothing and restores everything.
    #[test]
    fn resuming_done_state_restores_and_returns() {
        let data = toy_dataset();
        let config = TrainConfig::quick(4);
        let mk = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            GnnModel::new(GnnKind::Sage, ModelConfig::default(), &mut rng)
        };
        let control = mk(240);
        let mut control_rng = StdRng::seed_from_u64(241);
        let mut last = None;
        let history = train_resumable(&control, &data, &config, &mut control_rng, None, 1, |s| {
            last = Some(s.clone());
            Ok(())
        })
        .unwrap();
        let done = last.unwrap();
        assert!(done.done);

        let resumed = mk(240);
        let mut rng = StdRng::seed_from_u64(999);
        let replayed = train_resumable(&resumed, &data, &config, &mut rng, Some(done), 1, |_| {
            panic!("done state must not re-checkpoint")
        })
        .unwrap();
        assert_eq!(replayed, history);
        assert_eq!(param_bits(&resumed), param_bits(&control));
        assert_eq!(rng, control_rng);
    }

    /// A failing checkpoint sink aborts training with its error and leaves
    /// the model usable (training flag off, tape clean).
    #[test]
    fn checkpoint_sink_error_aborts_training() {
        let data = toy_dataset();
        let mut rng = StdRng::seed_from_u64(250);
        let model = GnnModel::new(GnnKind::Gcn, ModelConfig::default(), &mut rng);
        let err = train_resumable(
            &model,
            &data,
            &TrainConfig::quick(4),
            &mut rng,
            None,
            1,
            |_| Err(std::io::Error::other("disk full")),
        )
        .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        let g = Graph::cycle(6).unwrap();
        let (gamma, beta) = model.predict(&g);
        assert!(gamma.is_finite() && beta.is_finite());
    }
}
