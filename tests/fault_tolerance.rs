//! Fault-injection and checkpoint/resume tests: the labeling and training
//! pipeline must survive per-graph panics, NaN objectives, and interrupts
//! without losing work or determinism.
//!
//! These are the acceptance tests of the robustness layer: an injected
//! panic yields a recorded failure (not a dead run), a NaN objective never
//! wins an optimization, and a labeling run killed mid-batch resumes from
//! its journal into a dataset bit-identical to the uninterrupted one.

use std::fs;

use qrand::rngs::StdRng;
use qrand::SeedableRng;

use gnn::GnnKind;
use qaoa::optimize::{GridSearch, Maximizer, NelderMead};
use qaoa_gnn::dataset::{
    label_graph, DatasetError, FailurePolicy, LabelConfig, LabelFailureReason, LabelReport,
};
use qaoa_gnn::pipeline::{Pipeline, PipelineConfig};
use qaoa_gnn::store::JOURNAL_FILE;
use qaoa_gnn::{Dataset, LabeledGraph};
use qgraph::generate::DatasetSpec;
use qgraph::Graph;

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("qaoa_gnn_fault_tests").join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn test_graphs(seed: u64, count: usize) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| qgraph::generate::erdos_renyi(4 + i % 5, 0.5, &mut rng).unwrap())
        .collect()
}

/// Acceptance: a labeling run with injected per-graph panics completes,
/// reports exactly the failed indices, and labels every other graph.
#[test]
fn injected_panics_report_exact_indices_and_label_the_rest() {
    let graphs = test_graphs(1, 10);
    let config = LabelConfig::quick(30);
    // Panic on every n=6 graph — a structural trigger, so both the first
    // attempt and the fresh-substream retry fail.
    let labeler = |g: &Graph, c: &LabelConfig, r: &mut StdRng| {
        if g.n() == 6 {
            panic!("injected: refusing n=6");
        }
        label_graph(g, c, r)
    };
    let bad: Vec<usize> = graphs
        .iter()
        .enumerate()
        .filter(|(_, g)| g.n() == 6)
        .map(|(i, _)| i)
        .collect();
    assert!(!bad.is_empty(), "fixture must contain n=6 graphs");

    let (ds, report) = Dataset::label_graphs_checked_with(&labeler, &graphs, &config, 5);
    assert_eq!(report.total, graphs.len());
    assert_eq!(report.unrecovered(), bad);
    assert_eq!(ds.len(), graphs.len() - bad.len());
    for failure in &report.failures {
        assert!(matches!(
            &failure.reason,
            LabelFailureReason::Panic(m) if m.contains("injected")
        ));
    }
    // Survivors are bit-identical to the clean run's labels.
    let clean = Dataset::label_graphs(&graphs, &config, 5);
    let survivors: Vec<&LabeledGraph> = clean.entries.iter().filter(|e| e.graph.n() != 6).collect();
    assert_eq!(ds.entries.iter().collect::<Vec<_>>(), survivors);
}

/// Acceptance: an injected NaN "objective" (a labeler whose optimization
/// diverged) becomes a recorded `NonFinite` failure, not a poisoned label.
#[test]
fn injected_nan_objective_is_recorded_not_propagated() {
    let graphs = test_graphs(2, 8);
    let config = LabelConfig::quick(30);
    let labeler = |g: &Graph, c: &LabelConfig, r: &mut StdRng| {
        let mut label = label_graph(g, c, r);
        if g.n() == 5 {
            label.params = qaoa::Params::new(vec![f64::NAN], vec![0.1]);
        }
        label
    };
    let (ds, report) = Dataset::label_graphs_checked_with(&labeler, &graphs, &config, 6);
    assert!(!report.unrecovered().is_empty());
    for entry in &ds.entries {
        assert!(entry.params.to_flat().iter().all(|v| v.is_finite()));
        assert!(entry.expectation.is_finite());
    }
    for failure in &report.failures {
        assert!(matches!(
            &failure.reason,
            LabelFailureReason::NonFinite(what) if what == "params"
        ));
    }
}

/// A NaN-returning objective handed straight to the optimizers must never
/// produce a NaN "best": Nelder–Mead skips the poisoned region and grid
/// search skips poisoned candidates.
#[test]
fn optimizers_survive_nan_objective_end_to_end() {
    // NaN hole around the origin; smooth bowl elsewhere.
    let objective = |x: &[f64]| {
        let r2: f64 = x.iter().map(|v| v * v).sum();
        if r2 < 0.25 {
            f64::NAN
        } else {
            -r2
        }
    };
    let mut rng = StdRng::seed_from_u64(3);
    for result in [
        NelderMead::new(120).maximize(objective, &[1.0, 1.0], &mut rng),
        GridSearch { resolution: 9 }.maximize(objective, &[1.0, 1.0], &mut rng),
    ] {
        assert!(result.best_value.is_finite());
        assert!(!result.diverged());
        assert!(result.best_point.iter().all(|v| v.is_finite()));
    }
}

/// Acceptance: a labeling run interrupted mid-batch and resumed from its
/// journal is bit-identical (`==`) to the uninterrupted run — the
/// kill-and-resume round trip.
#[test]
fn kill_and_resume_round_trip_is_bit_identical() {
    let graphs = test_graphs(4, 8);
    let config = LabelConfig::quick(30);
    let seed = 99;
    // Uninterrupted reference (no journal involved at all).
    let (reference, _) = Dataset::label_graphs_checked(&graphs, &config, seed);

    // "Killed" run: journal a full run, then truncate the journal to half
    // its records plus a torn partial line — what a SIGKILL mid-append
    // leaves behind.
    let dir = temp_dir("kill_resume");
    let (full_run, _) = Dataset::resume_labeling(&dir, &graphs, &config, seed).unwrap();
    assert_eq!(full_run, reference);
    let journal_path = dir.join(JOURNAL_FILE);
    let full = fs::read_to_string(&journal_path).unwrap();
    let lines: Vec<&str> = full.lines().collect();
    let mut truncated: String = lines[..lines.len() / 2]
        .iter()
        .flat_map(|l| [*l, "\n"])
        .collect();
    truncated.push_str(&lines[lines.len() / 2][..3]); // torn tail
    fs::write(&journal_path, truncated).unwrap();

    let (resumed, report) = Dataset::resume_labeling(&dir, &graphs, &config, seed).unwrap();
    assert_eq!(resumed, reference, "resumed dataset must be bit-identical");
    assert!(report.is_complete());
    fs::remove_dir_all(&dir).unwrap();
}

/// The pipeline front end honors the checkpoint dir: a second run over an
/// existing complete journal relabels nothing and reproduces the dataset.
#[test]
fn checkpointed_pipeline_reuses_the_journal() {
    let dir = temp_dir("pipeline_checkpoint");
    let config = PipelineConfig::paper_scale()
        .with_dataset(DatasetSpec::with_count(24))
        .with_iterations(25)
        .with_training(gnn::train::TrainConfig::quick(4))
        .with_test_size(6)
        .with_checkpoint_dir(Some(dir.clone()));

    let mut rng = StdRng::seed_from_u64(7);
    let first = Pipeline::try_run(GnnKind::Gcn, &config, &mut rng).unwrap();
    assert!(first.label_report.is_complete());

    let mut rng = StdRng::seed_from_u64(7);
    let second = Pipeline::try_run(GnnKind::Gcn, &config, &mut rng).unwrap();
    assert_eq!(first.raw_dataset, second.raw_dataset);
    assert_eq!(first.test_mse, second.test_mse);

    // And the plain (uncheckpointed) path agrees bit-for-bit.
    let plain = config.clone().with_checkpoint_dir(None);
    let mut rng = StdRng::seed_from_u64(7);
    let third = Pipeline::try_run(GnnKind::Gcn, &plain, &mut rng).unwrap();
    assert_eq!(first.raw_dataset, third.raw_dataset);
    fs::remove_dir_all(&dir).unwrap();
}

/// `FailurePolicy::Halt` turns unrecovered labeling failures into a typed
/// error; `Skip` (the default) drops them and reports.
#[test]
fn failure_policy_halt_vs_skip() {
    let graphs = test_graphs(5, 6);
    let config = LabelConfig::quick(30);
    let labeler = |g: &Graph, c: &LabelConfig, r: &mut StdRng| {
        assert!(g.n() != 4, "injected");
        label_graph(g, c, r)
    };
    let (ds, report) = Dataset::label_graphs_checked_with(&labeler, &graphs, &config, 8);
    assert!(!report.is_complete());
    // Skip (the default policy): the dataset is exactly the labeled subset.
    assert_eq!(FailurePolicy::default(), FailurePolicy::Skip);
    assert_eq!(ds.len(), report.labeled);
    assert_eq!(report.labeled + report.unrecovered().len(), report.total);
    // Halt: the same report surfaces as a typed, human-readable error
    // (this is what `Pipeline::try_run` returns under `FailurePolicy::Halt`).
    let unrecovered = report.unrecovered();
    let err = DatasetError::LabelingFailed(report);
    let text = err.to_string();
    assert!(text.contains("labeling failed"));
    for index in unrecovered {
        assert!(text.contains(&index.to_string()));
    }
}

/// Training on a dataset whose labels force a non-finite loss stops
/// cleanly, returns the best finite-epoch model, and records the event.
#[test]
fn training_divergence_recorded_and_model_stays_finite() {
    use gnn::train::{train, Example, TrainConfig};
    use gnn::{GnnModel, GraphContext, ModelConfig};

    let mut rng = StdRng::seed_from_u64(9);
    let model_config = ModelConfig {
        dropout: 0.0,
        hidden_dim: 8,
        ..ModelConfig::default()
    };
    let model = GnnModel::new(GnnKind::Gin, model_config.clone(), &mut rng);
    let examples: Vec<Example> = (4..8)
        .map(|n| {
            let g = Graph::cycle(n).unwrap();
            Example {
                context: GraphContext::new(&g, &model_config.features, 0.0),
                // One poisoned label in the batch.
                target: if n == 6 { [f64::NAN, 0.5] } else { [0.4, 0.6] },
            }
        })
        .collect();
    let history = train(
        &model,
        &examples,
        &TrainConfig {
            shuffle: false,
            ..TrainConfig::quick(10)
        },
        &mut rng,
    );
    let event = history.diverged.expect("divergence recorded");
    assert!(!event.loss.is_finite());
    let (gamma, beta) = model.predict(&Graph::cycle(9).unwrap());
    assert!(gamma.is_finite() && beta.is_finite());
    assert!(history.epochs.iter().all(|e| e.train_loss.is_finite()));
}

/// The serialized artifact story: a label report and training history both
/// survive a JSON round trip, including a non-finite divergence loss.
#[test]
fn reports_serialize_into_the_run_artifact() {
    use qaoa_gnn::dataset::{LabelFailure, LabelFailureReason};
    use qaoa_gnn::{FromJson, Json, ToJson};

    let report = LabelReport {
        total: 4,
        labeled: 3,
        failures: vec![LabelFailure {
            index: 2,
            reason: LabelFailureReason::Panic("boom".to_string()),
            recovered: false,
        }],
    };
    let text = report.to_json().to_pretty();
    let back = LabelReport::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, report);

    let history = gnn::train::TrainHistory {
        epochs: vec![gnn::train::EpochStats {
            epoch: 0,
            train_loss: 0.4,
            learning_rate: 0.01,
        }],
        diverged: Some(gnn::train::DivergenceEvent {
            epoch: 1,
            loss: f64::NEG_INFINITY,
        }),
    };
    let text = history.to_json().to_compact();
    let back = gnn::train::TrainHistory::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back.epochs, history.epochs);
    assert!(!back.diverged.unwrap().loss.is_finite());
}
