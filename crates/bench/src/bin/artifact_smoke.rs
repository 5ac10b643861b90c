//! CI smoke test for run artifacts: train a tiny model for each
//! architecture, save it, reload it **in a fresh process**, and diff the
//! predictions bit for bit against the in-memory model. Exits non-zero on
//! any mismatch or load failure.
//!
//! ```text
//! cargo run --release -p qaoa-gnn-bench --bin artifact_smoke
//! ```
//!
//! The fresh process matters: it proves inference parity holds from the
//! file alone — no shared memory, no leftover state — which is the
//! deployment scenario for a trained warm-starter.

use std::fs;
use std::process::{Command, ExitCode};

use gnn::train::TrainConfig;
use gnn::{GnnKind, GnnModel};
use qaoa_gnn::dataset::LabelConfig;
use qaoa_gnn::pipeline::{Pipeline, PipelineConfig};
use qaoa_gnn::store::artifact_path_for_kind;
use qaoa_gnn::RunArtifact;
use qgraph::generate::DatasetSpec;
use qgraph::Graph;
use qrand::rngs::StdRng;
use qrand::SeedableRng;

fn probe_graphs() -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(13);
    let mut graphs = vec![
        Graph::cycle(9).expect("cycle"),
        Graph::complete(6).expect("complete"),
        Graph::star(8).expect("star"),
    ];
    for i in 0..4 {
        graphs.push(qgraph::generate::erdos_renyi(6 + i, 0.5, &mut rng).expect("generate"));
    }
    graphs
}

/// Formats predictions as raw f64 bits — any drift, down to the last ulp,
/// changes this string.
fn prediction_bits(model: &GnnModel) -> String {
    probe_graphs()
        .iter()
        .map(|g| {
            let (gamma, beta) = model.predict(g);
            format!(
                "n={} {:016x} {:016x}\n",
                g.n(),
                gamma.to_bits(),
                beta.to_bits()
            )
        })
        .collect()
}

/// Child mode: load the artifact at `path`, rebuild the model, print the
/// prediction bits. All failures are typed errors on stderr, never panics.
fn child(path: &str) -> ExitCode {
    let artifact = match RunArtifact::load(path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("FAIL: child could not load artifact: {e}");
            return ExitCode::FAILURE;
        }
    };
    let model = match artifact.build_model() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("FAIL: child could not rebuild model: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", prediction_bits(&model));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 3 && args[1] == "--load" {
        return child(&args[2]);
    }

    let dir = std::env::temp_dir().join("qaoa_gnn_artifact_smoke");
    let _ = fs::remove_dir_all(&dir);
    let exe = std::env::current_exe().expect("current_exe");

    for (i, kind) in GnnKind::ALL.into_iter().enumerate() {
        let path = artifact_path_for_kind(&dir.join("run.json"), kind);
        let config = PipelineConfig {
            dataset: DatasetSpec::with_count(20),
            labeling: LabelConfig::quick(30),
            training: TrainConfig::quick(5),
            test_size: 5,
            ..PipelineConfig::paper_scale()
        }
        .with_seed(500 + i as u64)
        .with_artifact_path(Some(path.clone()));

        println!(
            "{kind}: training tiny model and saving {}...",
            path.display()
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let pipeline = Pipeline::run(kind, &config, &mut rng);
        let expected = prediction_bits(&pipeline.model);

        let output = match Command::new(&exe).arg("--load").arg(&path).output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("FAIL: {kind}: could not spawn fresh process: {e}");
                return ExitCode::FAILURE;
            }
        };
        if !output.status.success() {
            eprintln!(
                "FAIL: {kind}: fresh process exited with {:?}: {}",
                output.status.code(),
                String::from_utf8_lossy(&output.stderr)
            );
            return ExitCode::FAILURE;
        }
        let got = String::from_utf8_lossy(&output.stdout);
        if got != expected {
            eprintln!(
                "FAIL: {kind}: fresh-process predictions differ\n-- in-memory --\n{expected}\n-- fresh process --\n{got}"
            );
            return ExitCode::FAILURE;
        }
        println!(
            "{kind}: fresh-process predictions bit-identical ({} probes)",
            probe_graphs().len()
        );
    }

    let _ = fs::remove_dir_all(&dir);
    println!("artifact smoke OK: all four architectures round-trip bit-exactly across processes");
    ExitCode::SUCCESS
}
