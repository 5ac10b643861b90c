//! CI smoke test for the guarded serving layer: save an artifact, arm the
//! `forward` failpoint through the environment (the operational arming
//! path), and check that the first request degrades to fixed angles with
//! the hop recorded, the next request is clean and bit-identical to the
//! raw prediction path, hostile text is rejected with a typed line-number
//! error, and an out-of-envelope request degrades instead of serving a
//! model prediction it cannot trust. Exits non-zero on any violation.
//!
//! ```text
//! cargo run --release -p qaoa-gnn-bench --bin serve_smoke
//! ```

use std::process::ExitCode;

use gnn::train::TrainHistory;
use gnn::{GnnKind, GnnModel};
use qaoa_gnn::dataset::LabelReport;
use qaoa_gnn::pipeline::PipelineConfig;
use qaoa_gnn::serve::ServeRequest;
use qaoa_gnn::{
    GuardedPredictor, RequestError, RunArtifact, Rung, ServeConfig, SkipReason, TrainingEnvelope,
};
use qgraph::Graph;
use qrand::rngs::StdRng;
use qrand::SeedableRng;

fn fail(msg: &str) -> ExitCode {
    eprintln!("FAIL: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    // Arm one NaN injection on the GNN forward pass through the same
    // environment channel an operator would use. Set before any failpoint
    // is consulted, so the lazily-loaded spec is picked up.
    std::env::set_var("QAOA_GNN_FAULTS", "forward=nan:1");

    let mut rng = StdRng::seed_from_u64(6001);
    let model = GnnModel::new(
        GnnKind::Gcn,
        gnn::ModelConfig {
            hidden_dim: 4,
            ..gnn::ModelConfig::default()
        },
        &mut rng,
    );
    let artifact = RunArtifact {
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
    };
    let path = std::env::temp_dir().join("qaoa_gnn_serve_smoke.json");
    if let Err(e) = artifact.save(&path) {
        return fail(&format!("saving artifact: {e}"));
    }
    let served = match GuardedPredictor::load(&path, ServeConfig::default()) {
        Ok(p) => p,
        Err(e) => return fail(&format!("loading artifact: {e}")),
    };

    let g = Graph::cycle(8).expect("cycle");

    // Request 1 hits the env-armed NaN injection and must degrade.
    let degraded = match served.handle(&ServeRequest::from_graph(g.clone())).result {
        Ok(o) => o,
        Err(e) => return fail(&format!("degraded request rejected: {e}")),
    };
    println!("request 1 (fault armed): {}", degraded.summary());
    if degraded.rung != Rung::FixedAngle {
        return fail(&format!("expected fixed-angle rung, got {}", degraded.rung));
    }
    if !matches!(degraded.skips[0].reason, SkipReason::NonFinite { .. }) {
        return fail("expected a recorded NonFinite skip on the gnn rung");
    }

    // Request 2: the injection budget is spent; clean and bit-identical.
    let clean = match served.handle(&ServeRequest::from_graph(g.clone())).result {
        Ok(o) => o,
        Err(e) => return fail(&format!("clean request rejected: {e}")),
    };
    println!("request 2 (disarmed):    {}", clean.summary());
    if !clean.is_clean() {
        return fail(&format!(
            "expected a clean gnn outcome, got {}",
            clean.summary()
        ));
    }
    let raw = match artifact.build_model() {
        Ok(m) => m,
        Err(e) => return fail(&format!("building raw model: {e}")),
    };
    let (rg, rb) = raw.predict(&g);
    let (sg, sb) = clean.angles();
    if rg.to_bits() != sg.to_bits() || rb.to_bits() != sb.to_bits() {
        return fail("guarded prediction is not bit-identical to the raw path");
    }

    // Hostile text: typed rejection with the offending line.
    match served
        .handle(&ServeRequest::from_text("n 3\ne 0 1 nan\n"))
        .result
    {
        Err(RequestError::Parse(e)) if e.line == 2 => {
            println!("hostile text rejected:   {e}");
        }
        other => return fail(&format!("expected line-2 parse rejection, got {other:?}")),
    }

    // Out-of-envelope: degrade, never a silent model prediction.
    let big = Graph::cycle(20).expect("cycle");
    match served.handle(&ServeRequest::from_graph(big)).result {
        Ok(o) if o.rung != Rung::Gnn => {
            println!("out-of-envelope:         {}", o.summary());
        }
        Ok(o) => return fail(&format!("out-of-envelope served on gnn: {}", o.summary())),
        Err(e) => return fail(&format!("out-of-envelope rejected outright: {e}")),
    }

    let _ = std::fs::remove_file(&path);
    println!("serving smoke OK: degradation recorded, clean path bit-identical");
    ExitCode::SUCCESS
}
