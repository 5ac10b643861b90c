//! Guarded inference from a saved run artifact: train once, serve forever.
//!
//! ```text
//! # First run: trains a quick model and saves the artifact.
//! cargo run --release --example predict_from_artifact
//! # Later runs: load the artifact and serve without retraining.
//! cargo run --release --example predict_from_artifact
//! # Point at an artifact saved by the experiment binaries:
//! QAOA_GNN_ARTIFACT=runs/fig5.gcn.json cargo run --release --example predict_from_artifact
//! # Watch the degradation ladder catch an injected model failure:
//! QAOA_GNN_FAULTS=forward=nan:1 cargo run --release --example predict_from_artifact
//! ```
//!
//! Demonstrates the deployment story behind [`qaoa_gnn::GuardedPredictor`]:
//! the artifact bundles weights (bit-exact), configuration, history and the
//! training envelope, and the serving layer wraps every request in strict
//! validation, envelope checks and a degradation ladder. Each row below
//! prints the full [`qaoa_gnn::PredictionOutcome`] — which rung answered
//! and why any rung was skipped — so a degraded prediction is always
//! visibly degraded, never a silent fallback.

use qrand::rngs::StdRng;
use qrand::SeedableRng;

use gnn::train::TrainConfig;
use gnn::GnnKind;
use qaoa::{MaxCutHamiltonian, QaoaCircuit};
use qaoa_gnn::dataset::LabelConfig;
use qaoa_gnn::pipeline::{Pipeline, PipelineConfig};
use qaoa_gnn::serve::ServeRequest;
use qaoa_gnn::{GuardedPredictor, RequestError, ServeConfig};
use qgraph::generate::DatasetSpec;
use qgraph::Graph;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::var("QAOA_GNN_ARTIFACT")
        .ok()
        .filter(|p| !p.trim().is_empty())
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("qaoa_gnn_example_artifact.json"));

    if !path.exists() {
        println!(
            "no artifact at {} — training one (quick config)...",
            path.display()
        );
        let config = PipelineConfig::paper_scale()
            .with_dataset(DatasetSpec::with_count(60))
            .with_training(TrainConfig::quick(15))
            .with_test_size(12)
            .with_artifact_path(Some(path.clone()));
        let config = PipelineConfig {
            labeling: LabelConfig::quick(60),
            ..config
        };
        let mut rng = StdRng::seed_from_u64(config.seed);
        Pipeline::run(GnnKind::Gcn, &config, &mut rng);
        println!("saved artifact to {}", path.display());
    }

    let served = GuardedPredictor::load(&path, ServeConfig::default())?;
    let artifact = served.artifact();
    println!(
        "loaded {} artifact: {} parameters, {} training epochs, dataset fingerprint {:#018x}",
        artifact.kind(),
        artifact.weights.num_parameters(),
        artifact.history.epochs.len(),
        artifact.dataset_fingerprint,
    );
    match served.envelope() {
        Some(env) => println!(
            "training envelope: {}–{} nodes, max degree {}, mean label (γ̄={:.3}, β̄={:.3})",
            env.min_nodes, env.max_nodes, env.max_degree, env.mean_gamma, env.mean_beta
        ),
        None => println!("training envelope: none (pre-envelope artifact; serving says so)"),
    }

    let mut rng = StdRng::seed_from_u64(1);
    let mut instances = vec![
        ("cycle(10)".to_string(), Graph::cycle(10)?),
        ("complete(7)".to_string(), Graph::complete(7)?),
        ("star(9)".to_string(), Graph::star(9)?),
        // Out-of-envelope on the quick config: watch the ladder degrade.
        ("cycle(30)".to_string(), Graph::cycle(30)?),
    ];
    for i in 0..3 {
        let g = qgraph::generate::erdos_renyi(8 + i, 0.5, &mut rng)?;
        instances.push((format!("erdos_renyi(n={})", g.n()), g));
    }

    println!("\n{:<22} {:>12} {:>8}  outcome", "graph", "E[cut]", "ratio");
    for (name, g) in &instances {
        // One typed entry point for every payload shape; the concurrent
        // loop (`qaoa_gnn::ServeLoop`) serves the same `ServeRequest`.
        match served.handle(&ServeRequest::from_graph(g.clone())).result {
            Ok(outcome) if g.n() <= 16 => {
                let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(g));
                let expectation = circuit.expectation(&outcome.params);
                let optimal = circuit.hamiltonian().optimal_value();
                println!(
                    "{name:<22} {expectation:>12.4} {:>8.3}  {}",
                    expectation / optimal,
                    outcome.summary()
                );
            }
            // Too large to simulate here; the outcome still tells the story.
            Ok(outcome) => println!("{name:<22} {:>12} {:>8}  {}", "-", "-", outcome.summary()),
            Err(e) => println!("{name:<22} {:>12} {:>8}  rejected: {e}", "-", "-"),
        }
    }

    // Hostile requests never reach the model: typed, line-numbered errors.
    match served
        .handle(&ServeRequest::from_text("n 3\ne 0 1 inf\n"))
        .result
    {
        Err(RequestError::Parse(e)) => println!("\nhostile text rejected: {e}"),
        other => println!("\nunexpected: {other:?}"),
    }
    println!(
        "(clean gnn outcomes are bit-identical across processes — see tests/serve_degradation.rs)"
    );
    Ok(())
}
