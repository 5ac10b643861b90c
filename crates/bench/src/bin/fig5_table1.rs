//! Figure 5 + Table 1: approximation ratio of random initialization vs the
//! four GNN benchmarks on a held-out test set.
//!
//! Labels one dataset, then trains GAT, GCN, GIN and GraphSAGE on identical
//! splits and compares each against random initialization in the paper's
//! fixed-parameter setting. Per-graph AR series (Fig. 5) land in one CSV per
//! architecture; the improvement summary (Table 1) is printed and saved.

use qrand::rngs::StdRng;
use qrand::SeedableRng;

use gnn::GnnKind;
use qaoa_gnn::pipeline::{Pipeline, PipelineConfig};
use qaoa_gnn::store::artifact_path_for_kind;
use qaoa_gnn_bench::{f2, f4, label_dataset, print_table, write_csv};

fn main() {
    let config = PipelineConfig::from_env();
    println!(
        "dataset: {} graphs, {} labeling iterations, {} epochs, {} test graphs",
        config.dataset.count, config.labeling.iterations, config.training.epochs, config.test_size
    );
    println!(
        "labeling (parallel across {} threads)...",
        config.labeling.threads
    );
    let dataset = label_dataset(&config);
    println!("mean label AR: {:.4}", dataset.mean_approx_ratio());

    let mut table1_rows = Vec::new();
    for kind in GnnKind::ALL {
        println!("\ntraining {kind}...");
        // With QAOA_GNN_ARTIFACT set, each architecture's run is saved as
        // its own artifact (base path suffixed per kind).
        let arch_config = config.clone().with_artifact_path(
            config
                .artifact_path
                .as_deref()
                .map(|base| artifact_path_for_kind(base, kind)),
        );
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xab);
        let pipeline = Pipeline::run_on_dataset(kind, dataset.clone(), &arch_config, &mut rng);
        if let Some(path) = &arch_config.artifact_path {
            println!("{kind}: saved run artifact -> {}", path.display());
        }
        if let Some(event) = &pipeline.history.diverged {
            println!(
                "{kind}: training diverged at epoch {} — best finite-epoch weights restored",
                event.epoch
            );
        }
        let report = &pipeline.report;

        // Figure 5 series: per test graph, random vs GNN AR.
        let rows: Vec<Vec<String>> = report
            .per_graph
            .iter()
            .enumerate()
            .map(|(i, c)| {
                vec![
                    i.to_string(),
                    c.nodes.to_string(),
                    c.degree.to_string(),
                    f4(c.random_ratio),
                    f4(c.gnn_ratio),
                    f2(c.improvement()),
                ]
            })
            .collect();
        let header = [
            "graph",
            "nodes",
            "degree",
            "ar_random",
            "ar_gnn",
            "improvement_pts",
        ];
        let name = format!("fig5_{}.csv", kind.to_string().to_lowercase());
        let path = write_csv(&name, &header, &rows).expect("write csv");
        println!(
            "{kind}: mean improvement {} ± {} pts, win rate {:.2}, test MSE {:.5} -> {}",
            f2(report.mean_improvement),
            f2(report.std_improvement),
            report.win_rate(),
            pipeline.test_mse,
            path.display()
        );
        table1_rows.push(vec![
            kind.to_string(),
            format!(
                "{} ± {}",
                f2(report.mean_improvement),
                f2(report.std_improvement)
            ),
            f4(report.mean_random_ratio),
            f4(report.mean_gnn_ratio),
            f2(report.win_rate() * 100.0),
        ]);
    }

    let header = [
        "method",
        "improvement (pts)",
        "mean AR random",
        "mean AR gnn",
        "win rate %",
    ];
    print_table(
        "Table 1: average improvement over random initialization",
        &header,
        &table1_rows,
    );
    let path = write_csv("table1_improvements.csv", &header, &table1_rows).expect("write csv");
    println!("wrote {}", path.display());
    println!("(paper: GAT 3.28±9.99, GCN 3.65±10.17, GIN 3.66±9.97, GraphSAGE 2.86±10.01)");
}
