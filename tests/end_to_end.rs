//! End-to-end pipeline tests: the paper's experiment at test scale.

use qrand::rngs::StdRng;
use qrand::SeedableRng;

use gnn::train::TrainConfig;
use gnn::GnnKind;
use qaoa_gnn::dataset::{Dataset, LabelConfig};
use qaoa_gnn::pipeline::{Pipeline, PipelineConfig};
use qgraph::generate::DatasetSpec;

fn test_config() -> PipelineConfig {
    PipelineConfig {
        dataset: DatasetSpec::with_count(48),
        labeling: LabelConfig::quick(80),
        training: TrainConfig::quick(12),
        test_size: 12,
        ..PipelineConfig::paper_scale()
    }
}

/// Every architecture must run the whole pipeline and produce a coherent
/// report; labels are computed once and shared like the fig5 binary does.
#[test]
fn all_architectures_complete_the_pipeline() {
    let config = test_config();
    let dataset =
        Dataset::generate(&config.dataset, &config.labeling, config.seed).expect("valid spec");
    for kind in GnnKind::ALL {
        let mut rng = StdRng::seed_from_u64(301);
        let p = Pipeline::run_on_dataset(kind, dataset.clone(), &config, &mut rng);
        assert_eq!(p.kind, kind);
        assert_eq!(p.report.per_graph.len(), 12, "{kind}");
        assert!(p.test_mse.is_finite() && p.test_mse >= 0.0, "{kind}");
        assert!(
            p.report.mean_improvement.abs() <= 100.0,
            "{kind}: improvement out of range"
        );
        assert!(
            (0.0..=1.0).contains(&p.report.win_rate()),
            "{kind}: bad win rate"
        );
        for c in &p.report.per_graph {
            assert!((0.0..=1.0 + 1e-9).contains(&c.random_ratio), "{kind}");
            assert!((0.0..=1.0 + 1e-9).contains(&c.gnn_ratio), "{kind}");
        }
        // Training should have made progress on the regression loss.
        let first = p.history.epochs.first().unwrap().train_loss;
        let best = p.history.best_loss().unwrap();
        assert!(best <= first, "{kind}: training never improved");
    }
}

/// The same seed must reproduce the identical pipeline result (the paper's
/// comparisons depend on deterministic splits).
#[test]
fn pipeline_is_deterministic() {
    let config = test_config();
    let dataset =
        Dataset::generate(&config.dataset, &config.labeling, config.seed).expect("valid spec");
    let run = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        Pipeline::run_on_dataset(GnnKind::Gcn, dataset.clone(), &config, &mut rng)
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.report, b.report);
    assert_eq!(a.test_mse, b.test_mse);
    assert_eq!(a.history, b.history);
    let c = run(8);
    // A different seed almost surely gives a different trained model.
    assert_ne!(a.report, c.report);
}

/// A trained model should, on average across the test set, not be
/// dramatically worse than random initialization — and the evaluation's
/// fixed-parameter setting means both conditions share the same scale.
#[test]
fn trained_gnn_is_competitive_with_random_init() {
    let config = PipelineConfig {
        dataset: DatasetSpec::with_count(90),
        labeling: LabelConfig::quick(120),
        training: TrainConfig::quick(25),
        test_size: 20,
        ..PipelineConfig::paper_scale()
    };
    let mut rng = StdRng::seed_from_u64(303);
    let p = Pipeline::run(GnnKind::Gin, &config, &mut rng);
    // The paper reports ~+3.7 pts for GIN at full scale with std ~10. At
    // this reduced scale we only require the GNN not to lose badly: the
    // mean improvement must exceed -5 points.
    assert!(
        p.report.mean_improvement > -5.0,
        "GIN mean improvement {} pts is implausibly bad",
        p.report.mean_improvement
    );
    // And the trained predictor must beat the *untrained* predictor at the
    // task it was trained on: regressing canonicalized (γ, β) labels.
    let mut rng2 = StdRng::seed_from_u64(304);
    let untrained = gnn::GnnModel::new(GnnKind::Gin, config.model.clone(), &mut rng2);
    let fresh = Dataset::generate(&DatasetSpec::with_count(16), &config.labeling, 9999)
        .expect("valid spec");
    let examples = qaoa_gnn::pipeline::to_examples(&fresh, &config.model);
    let trained_mse = gnn::train::evaluate(&p.model, &examples);
    let untrained_mse = gnn::train::evaluate(&untrained, &examples);
    assert!(
        trained_mse <= untrained_mse + 0.01,
        "training should reduce regression error: trained {trained_mse} vs untrained {untrained_mse}"
    );
}

/// `from_env` selects scales correctly.
#[test]
fn config_from_env_defaults_to_quick() {
    // The test environment does not set QAOA_GNN_FULL.
    if std::env::var("QAOA_GNN_FULL").is_ok() {
        return; // user explicitly asked for full scale; skip
    }
    let config = PipelineConfig::from_env();
    assert_eq!(config.dataset.count, PipelineConfig::quick().dataset.count);
}
