//! Full pipeline demo: all four GNN architectures through the paper's
//! generate → label → prune → augment → train → evaluate pipeline.
//!
//! ```text
//! cargo run --release --example train_and_predict
//! ```
//!
//! Prints a miniature Table 1. For the paper-scale run use the experiment
//! binary instead: `QAOA_GNN_FULL=1 cargo run --release -p qaoa-gnn-bench
//! --bin fig5_table1`.

use qrand::rngs::StdRng;
use qrand::SeedableRng;

use gnn::train::TrainConfig;
use gnn::GnnKind;
use qaoa_gnn::pipeline::{Pipeline, PipelineConfig};
use qaoa_gnn::Dataset;
use qgraph::generate::DatasetSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = PipelineConfig::paper_scale()
        .with_dataset(DatasetSpec::with_count(120))
        .with_iterations(80)
        .with_training(TrainConfig::quick(20))
        .with_test_size(24);

    println!(
        "labeling {} graphs ({} optimizer iterations each)...",
        config.dataset.count, config.labeling.iterations
    );
    // The checked engine isolates per-graph panics/divergences; a bad
    // instance becomes a recorded failure instead of a dead run.
    let (dataset, label_report) = Dataset::generate_checked(
        &config.dataset,
        &config.labeling,
        config.seed,
        config.checkpoint_dir.as_deref(),
    )?;
    if !label_report.is_complete() {
        println!(
            "skipped {} unlabelable graphs: {:?}",
            label_report.unrecovered().len(),
            label_report.unrecovered()
        );
    }
    println!("mean label AR: {:.3}", dataset.mean_approx_ratio());

    println!(
        "\n{:<10} {:>18} {:>10} {:>9}",
        "method", "improvement (pts)", "win rate", "test MSE"
    );
    for kind in GnnKind::ALL {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let p = Pipeline::run_on_dataset(kind, dataset.clone(), &config, &mut rng);
        if let Some(event) = &p.history.diverged {
            println!(
                "{kind}: training diverged at epoch {}; best weights kept",
                event.epoch
            );
        }
        println!(
            "{:<10} {:>8.2} ± {:<7.2} {:>9.2} {:>9.5}",
            kind.to_string(),
            p.report.mean_improvement,
            p.report.std_improvement,
            p.report.win_rate(),
            p.test_mse
        );
    }
    println!(
        "\n(paper, full scale: GAT 3.28±9.99, GCN 3.65±10.17, GIN 3.66±9.97, GraphSAGE 2.86±10.01)"
    );
    Ok(())
}
