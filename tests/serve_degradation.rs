//! The failpoint × degradation-rung matrix: every named failpoint in
//! `qaoa_gnn::faults` is armed here and the serving layer must land on the
//! documented outcome — the next rung of the ladder or a typed error,
//! never a panic, never a silent fallback.
//!
//! | failpoint      | injection | expected outcome                          |
//! |----------------|-----------|-------------------------------------------|
//! | `artifact_load`| err       | `GuardedPredictor::load` → `ArtifactError::Io` |
//! | `weight_build` | err/panic | GNN rung disabled; serves on fixed angles |
//! | `forward`      | nan/panic | GNN rung skipped per-request; fixed angles |
//! | `sim_eval`     | nan ×1    | GNN verification fails; fixed angles serve |
//! | `sim_eval`     | nan ×2    | both verified rungs fail; fallback serves |
//! | `journal_io`   | err       | `LabelJournal::append` → typed `io::Error` |
//! | `cache_lookup` | panic/err | cache lookup degrades to a GNN-rung miss  |
//!
//! Plus the batch-isolation contract (one poisoned request cannot take
//! down its batch) and the disarmed-faults bit-identity acceptance (a
//! guarded prediction on a real trained artifact equals the raw
//! `build_model().predict()` path bit-for-bit), and the premise behind
//! per-request degradation: with no fault armed, every in-envelope graph
//! is served by the GNN on all four architectures, so GNN-rung failures
//! come from inputs or injected faults, never from a healthy model.

use qrand::rngs::StdRng;
use qrand::{Rng, SeedableRng};

use gnn::train::{TrainConfig, TrainHistory};
use gnn::{GnnKind, GnnModel};
use qaoa_gnn::dataset::{LabelConfig, LabelReport};
use qaoa_gnn::faults::{self, FaultAction};
use qaoa_gnn::pipeline::{Pipeline, PipelineConfig};
use qaoa_gnn::store::LabelJournal;
use qaoa_gnn::{
    ArtifactError, GuardedPredictor, PredictionOutcome, RequestError, RunArtifact, Rung,
    ServeConfig, ServeRequest, SkipReason, TrainingEnvelope,
};
use qgraph::generate::DatasetSpec;
use qgraph::Graph;

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("qaoa_gnn_serve_tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A cheap untrained artifact with a wide envelope: every test graph here
/// is in-envelope, so degradation is attributable to the injected fault.
fn tiny_artifact() -> RunArtifact {
    let mut rng = StdRng::seed_from_u64(7001);
    let config = gnn::ModelConfig {
        hidden_dim: 4,
        ..gnn::ModelConfig::default()
    };
    let model = GnnModel::new(GnnKind::Gcn, config, &mut rng);
    RunArtifact {
        config: PipelineConfig::quick(),
        weights: model.export_weights(),
        history: TrainHistory::default(),
        label_report: LabelReport::clean(1),
        dataset_fingerprint: 0,
        envelope: Some(TrainingEnvelope {
            min_nodes: 2,
            max_nodes: 15,
            max_degree: 14,
            feature_dim: 16,
            mean_gamma: 1.0,
            mean_beta: 0.5,
        }),
    }
}

fn predictor() -> GuardedPredictor {
    GuardedPredictor::new(tiny_artifact(), ServeConfig::default())
}

/// Serves one graph through the typed entry point.
fn serve(served: &GuardedPredictor, graph: &Graph) -> Result<PredictionOutcome, RequestError> {
    served
        .handle(&ServeRequest::from_graph(graph.clone()))
        .result
}

#[test]
fn artifact_load_fault_is_a_typed_error() {
    let dir = temp_dir("artifact_load_fault");
    let path = dir.join("run.json");
    tiny_artifact().save(&path).unwrap();
    {
        let _fault = faults::armed(faults::ARTIFACT_LOAD, FaultAction::Error, 1);
        match GuardedPredictor::load(&path, ServeConfig::default()) {
            Err(ArtifactError::Io(e)) => {
                assert!(e.to_string().contains("fault injected: artifact_load"));
            }
            other => panic!("expected injected Io error, got {:?}", other.map(|_| ())),
        }
    }
    // Disarmed: the same file loads and serves.
    let served = GuardedPredictor::load(&path, ServeConfig::default()).unwrap();
    assert!(served.model_available());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn weight_build_error_disables_gnn_rung_not_the_predictor() {
    let _fault = faults::armed(faults::WEIGHT_BUILD, FaultAction::Error, 1);
    let served = predictor();
    assert!(!served.model_available());
    let outcome = serve(&served, &Graph::cycle(8).unwrap()).unwrap();
    assert_eq!(outcome.rung, Rung::FixedAngle);
    assert!(matches!(
        outcome.skips[0].reason,
        SkipReason::ModelUnavailable(_)
    ));
    // Rung 2 really is the fixed-angle path: cycle(8) is 2-regular.
    let fa = qaoa::fixed_angle::fixed_angles(2);
    assert_eq!(outcome.params, fa.params);
    assert!(outcome.verified_score.is_some());
}

#[test]
fn weight_build_panic_is_contained_at_construction() {
    let _fault = faults::armed(faults::WEIGHT_BUILD, FaultAction::Panic, 1);
    let served = predictor(); // must not unwind out of new()
    assert!(!served.model_available());
    let outcome = serve(&served, &Graph::cycle(6).unwrap()).unwrap();
    assert_eq!(outcome.rung, Rung::FixedAngle);
    match &outcome.skips[0].reason {
        SkipReason::ModelUnavailable(msg) => assert!(msg.contains("panicked")),
        other => panic!("expected ModelUnavailable, got {other:?}"),
    }
}

#[test]
fn forward_nan_degrades_to_fixed_angles() {
    let served = predictor();
    let _fault = faults::armed(faults::FORWARD, FaultAction::Nan, 1);
    let outcome = serve(&served, &Graph::cycle(8).unwrap()).unwrap();
    assert_eq!(outcome.rung, Rung::FixedAngle);
    assert!(matches!(
        outcome.skips[0].reason,
        SkipReason::NonFinite { .. }
    ));
    let (gamma, beta) = outcome.angles();
    assert!(gamma.is_finite() && beta.is_finite());
}

#[test]
fn forward_panic_is_contained_and_degrades() {
    let served = predictor();
    let _fault = faults::armed(faults::FORWARD, FaultAction::Panic, 1);
    let outcome = serve(&served, &Graph::cycle(8).unwrap()).unwrap();
    assert_eq!(outcome.rung, Rung::FixedAngle);
    assert_eq!(outcome.skips[0].reason, SkipReason::Panicked);
    drop(_fault);
    // The contained panic left the model usable: the next request is clean.
    let clean = serve(&served, &Graph::cycle(8).unwrap()).unwrap();
    assert!(clean.is_clean());
}

#[test]
fn sim_eval_nan_fails_gnn_verification_then_fixed_angles_serve() {
    let served = predictor();
    let _fault = faults::armed(faults::SIM_EVAL, FaultAction::Nan, 1);
    let outcome = serve(&served, &Graph::cycle(8).unwrap()).unwrap();
    assert_eq!(outcome.rung, Rung::FixedAngle);
    assert_eq!(outcome.skips[0].reason, SkipReason::VerificationFailed);
    // The budget was spent on the GNN rung; fixed angles verified for real.
    assert!(outcome.verified_score.is_some());
    assert!(outcome.verified_score.unwrap().is_finite());
}

#[test]
fn sim_eval_nan_twice_exhausts_verified_rungs_to_fallback() {
    let served = predictor();
    let _fault = faults::armed(faults::SIM_EVAL, FaultAction::Nan, 2);
    let outcome = serve(&served, &Graph::cycle(8).unwrap()).unwrap();
    assert_eq!(outcome.rung, Rung::Fallback);
    assert_eq!(outcome.skips.len(), 2);
    assert!(outcome
        .skips
        .iter()
        .all(|s| s.reason == SkipReason::VerificationFailed));
    // The fallback served the envelope's mean canonical label.
    assert_eq!(outcome.angles(), (1.0, 0.5));
    assert!(outcome.verified_score.is_none());
}

#[test]
fn sim_eval_panic_is_contained_and_degrades() {
    let served = predictor();
    let _fault = faults::armed(faults::SIM_EVAL, FaultAction::Panic, 1);
    let outcome = serve(&served, &Graph::cycle(8).unwrap()).unwrap();
    assert_eq!(outcome.rung, Rung::FixedAngle);
    assert_eq!(outcome.skips[0].reason, SkipReason::Panicked);
}

#[test]
fn journal_io_fault_is_a_typed_append_error() {
    let dir = temp_dir("journal_io_fault");
    let mut rng = StdRng::seed_from_u64(7002);
    let graphs: Vec<Graph> = (0..3)
        .map(|_| qgraph::generate::erdos_renyi(5, 0.6, &mut rng).unwrap())
        .collect();
    let config = LabelConfig::quick(20);
    let (mut journal, done) = LabelJournal::open(&dir, &graphs, &config, 90).unwrap();
    assert!(done.is_empty());
    let entry = qaoa_gnn::dataset::label_graph(&graphs[0], &config, &mut rng);
    {
        let _fault = faults::armed(faults::JOURNAL_IO, FaultAction::Error, 1);
        let err = journal.append(0, &entry).unwrap_err();
        assert!(err.to_string().contains("fault injected: journal_io"));
    }
    // Disarmed: the same append succeeds and the record is durable.
    journal.append(0, &entry).unwrap();
    let (_, replayed) = LabelJournal::open(&dir, &graphs, &config, 90).unwrap();
    assert_eq!(replayed.len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cache_lookup_panic_degrades_to_a_gnn_rung_miss() {
    use qaoa_gnn::{CacheConfig, PredictionCache};
    use std::sync::Arc;

    let cache = Arc::new(PredictionCache::new(CacheConfig::default()));
    let served = GuardedPredictor::new(tiny_artifact(), ServeConfig::default())
        .with_cache(Arc::clone(&cache), 0);
    let graph = Graph::cycle(8).unwrap();

    // Warm the cache, then prove the warm path actually hits.
    let fresh = serve(&served, &graph).unwrap();
    assert!(fresh.is_clean() && !fresh.cached);
    assert!(serve(&served, &graph).unwrap().cached);

    for action in [FaultAction::Panic, FaultAction::Error] {
        let _fault = faults::armed(faults::CACHE_LOOKUP, action, 1);
        let outcome = serve(&served, &graph).unwrap();
        // The broken lookup is a normal GNN-rung miss: full ladder, no
        // degradation, bits identical to the fresh prediction.
        assert!(outcome.is_clean(), "degraded: {}", outcome.summary());
        assert!(!outcome.cached, "a faulted lookup must not claim a hit");
        assert_eq!(outcome, fresh);
    }
    let stats = cache.stats();
    assert_eq!(stats.lookup_faults, 2);
    assert_eq!(stats.hits, 1);

    // Disarmed, the cache serves hits again — bit-identical minus marker.
    let hit = serve(&served, &graph).unwrap();
    assert!(hit.cached);
    let mut unmarked = hit;
    unmarked.cached = false;
    assert_eq!(unmarked, fresh);
}

#[test]
fn batch_isolates_a_poisoned_request() {
    let served = predictor();
    let graphs = [
        Graph::cycle(8).unwrap(),
        Graph::complete(5).unwrap(),
        Graph::star(6).unwrap(),
    ];
    let _fault = faults::armed(faults::FORWARD, FaultAction::Panic, 1);
    let outcomes: Vec<_> = graphs.iter().map(|g| serve(&served, g)).collect();
    assert_eq!(outcomes.len(), 3);
    // The single injected panic hits the first request and is contained
    // there; the rest of the batch serves cleanly on the GNN.
    let first = outcomes[0].as_ref().unwrap();
    assert_eq!(first.rung, Rung::FixedAngle);
    assert_eq!(first.skips[0].reason, SkipReason::Panicked);
    for outcome in &outcomes[1..] {
        assert!(outcome.as_ref().unwrap().is_clean());
    }
}

/// Acceptance: with every failpoint disarmed, the guarded path on a real
/// trained artifact is bit-identical to the raw
/// `RunArtifact::build_model().predict()` path, and the artifact written
/// by the pipeline carries a training envelope.
#[test]
fn disarmed_guarded_serving_is_bit_identical_to_raw_path() {
    let config = PipelineConfig::paper_scale()
        .with_dataset(DatasetSpec::with_count(30))
        .with_training(TrainConfig::quick(5))
        .with_test_size(6);
    let config = PipelineConfig {
        labeling: LabelConfig::quick(40),
        ..config
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    let pipeline = Pipeline::run(GnnKind::Gcn, &config, &mut rng);
    let artifact = pipeline.to_artifact(&config);
    let envelope = artifact
        .envelope
        .clone()
        .expect("pipeline records an envelope");
    assert!(envelope.min_nodes <= envelope.max_nodes);

    let dir = temp_dir("bit_identity");
    let path = dir.join("run.json");
    artifact.save(&path).unwrap();
    let served = GuardedPredictor::load(&path, ServeConfig::default()).unwrap();
    let raw = RunArtifact::load(&path).unwrap().build_model().unwrap();

    // Every in-envelope training graph serves on the GNN rung with the
    // exact bits the raw path produces.
    let mut checked = 0;
    for entry in pipeline.train_dataset.entries.iter().take(5) {
        let (rg, rb) = raw.predict(&entry.graph);
        let outcome = serve(&served, &entry.graph).unwrap();
        assert!(
            outcome.is_clean(),
            "unexpected degradation: {}",
            outcome.summary()
        );
        let (sg, sb) = outcome.angles();
        assert_eq!(rg.to_bits(), sg.to_bits());
        assert_eq!(rb.to_bits(), sb.to_bits());
        checked += 1;
    }
    assert!(checked > 0);

    // An out-of-envelope request degrades with the violation recorded.
    let big = Graph::cycle(envelope.max_nodes + 3).unwrap();
    let outcome = serve(&served, &big).unwrap();
    assert_ne!(outcome.rung, Rung::Gnn);
    assert!(matches!(
        outcome.skips[0].reason,
        SkipReason::OutOfEnvelope(_)
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn hostile_text_requests_are_typed_rejections() {
    let served = predictor();
    for (text, bad_line) in [
        ("n 999999999\n", 1usize),          // over the serving node cap
        ("n 3\ne 0 1 inf\n", 2),            // non-finite weight
        ("n 3\ne 1 1 1.0\n", 2),            // self-loop
        ("n 3\ne 0 1 1.0\ne 1 0 2.0\n", 3), // duplicate edge
        ("n 3\ne 0 7 1.0\n", 2),            // endpoint out of range
        ("nonsense\n", 1),                  // not the format at all
    ] {
        match served.handle(&ServeRequest::from_text(text)).result {
            Err(RequestError::Parse(e)) => {
                assert_eq!(e.line, bad_line, "wrong line for {text:?}");
            }
            other => panic!("expected Parse rejection for {text:?}, got {other:?}"),
        }
    }
}

/// An untrained artifact of `kind` with default-init weights drawn from
/// `seed` and the same wide envelope as [`tiny_artifact`].
fn default_init_artifact(kind: GnnKind, seed: u64) -> RunArtifact {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = GnnModel::new(kind, gnn::ModelConfig::default(), &mut rng);
    RunArtifact {
        weights: model.export_weights(),
        dataset_fingerprint: seed,
        ..tiny_artifact()
    }
}

/// A random in-envelope graph: 2..=15 nodes, any edge density, edge
/// weights in (0, 10].
fn random_in_envelope_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let n = rng.gen_range(2..=15usize);
    let p = rng.gen::<f64>();
    let graph = qgraph::generate::erdos_renyi(n, p, &mut rng).unwrap();
    let triples: Vec<(usize, usize, f64)> = graph
        .edges()
        .iter()
        .map(|e| (e.u, e.v, 10.0 * (1.0 - rng.gen::<f64>())))
        .collect();
    Graph::from_weighted_edges(n, &triples).unwrap()
}

qcheck::properties! {
    cases = 24;

    /// With no fault armed, a validated artifact of any architecture
    /// answers every in-envelope graph on the GNN rung, verification on,
    /// with no skip: the GNN rung fails only on inputs outside the
    /// envelope or under injected faults.
    fn healthy_models_serve_every_in_envelope_graph_on_the_gnn_rung(
        seed in qcheck::any_u64()
    ) {
        let graph = random_in_envelope_graph(seed);
        for kind in GnnKind::ALL {
            let served = GuardedPredictor::new(
                default_init_artifact(kind, seed),
                ServeConfig::default(),
            );
            let outcome = serve(&served, &graph).expect("in-envelope request must serve");
            qcheck::prop_assert_eq!(outcome.rung, Rung::Gnn);
            qcheck::prop_assert!(outcome.skips.is_empty());
            qcheck::prop_assert!(outcome.verified_score.is_some_and(f64::is_finite));
        }
    }
}
