//! §4.1 ablation: sensitivity to GNN depth and embedding width.
//!
//! The paper fixes 2 layers and embedding 32; this sweep shows how the
//! choice affects test regression error and downstream AR improvement for
//! the best-performing architecture (GIN).

use qrand::rngs::StdRng;
use qrand::SeedableRng;

use gnn::{GnnKind, ModelConfig};
use qaoa_gnn::pipeline::{Pipeline, PipelineConfig};
use qaoa_gnn_bench::{f2, f4, label_dataset, print_table, write_csv};

fn main() {
    let base = PipelineConfig::from_env();
    println!("labeling {} graphs once...", base.dataset.count);
    let dataset = label_dataset(&base);

    let mut rows = Vec::new();
    for layers in [1usize, 2, 3] {
        for hidden in [16usize, 32, 64] {
            let config = base.clone().with_model(ModelConfig {
                layers,
                hidden_dim: hidden,
                ..ModelConfig::default()
            });
            // Save an artifact only for the paper's working point (2
            // layers, width 32) when QAOA_GNN_ARTIFACT is set.
            let config = if layers == 2 && hidden == 32 {
                config.with_artifact_path(base.artifact_path.clone())
            } else {
                config.with_artifact_path(None)
            };
            let mut rng = StdRng::seed_from_u64(base.seed ^ 0xa6c4);
            let p = Pipeline::run_on_dataset(GnnKind::Gin, dataset.clone(), &config, &mut rng);
            if let Some(path) = &config.artifact_path {
                println!("saved run artifact -> {}", path.display());
            }
            rows.push(vec![
                layers.to_string(),
                hidden.to_string(),
                p.model.num_parameters().to_string(),
                f4(p.history.final_loss().unwrap_or(f64::NAN)),
                f4(p.test_mse),
                f2(p.report.mean_improvement),
                f2(p.report.std_improvement),
            ]);
            println!(
                "layers {layers} hidden {hidden}: improvement {} pts",
                f2(p.report.mean_improvement)
            );
        }
    }
    let header = [
        "layers",
        "hidden_dim",
        "parameters",
        "train_loss",
        "test_mse",
        "improvement_pts",
        "improvement_std",
    ];
    print_table("Architecture ablation (GIN)", &header, &rows);
    let path = write_csv("ablation_arch.csv", &header, &rows).expect("write csv");
    println!("wrote {}", path.display());

    // Readout sweep (Eq. 9 leaves READOUT open; the paper uses mean).
    let mut rows = Vec::new();
    for readout in [gnn::Readout::Mean, gnn::Readout::Sum, gnn::Readout::Max] {
        // The depth/width sweep already saved the working-point artifact;
        // don't let readout variants overwrite it.
        let config = base
            .clone()
            .with_artifact_path(None)
            .with_model(ModelConfig {
                readout,
                ..ModelConfig::default()
            });
        let mut rng = StdRng::seed_from_u64(base.seed ^ 0xa6c4);
        let p = Pipeline::run_on_dataset(GnnKind::Gin, dataset.clone(), &config, &mut rng);
        rows.push(vec![
            format!("{readout:?}"),
            f4(p.test_mse),
            f2(p.report.mean_improvement),
            f2(p.report.std_improvement),
            f2(p.report.win_rate() * 100.0),
        ]);
    }
    let header = [
        "readout",
        "test_mse",
        "improvement_pts",
        "std",
        "win_rate_%",
    ];
    print_table("Readout ablation (GIN)", &header, &rows);
    let path = write_csv("ablation_readout.csv", &header, &rows).expect("write csv");
    println!("wrote {}", path.display());
}
