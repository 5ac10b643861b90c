//! Figure 2: degree and graph-size frequency of the synthetic dataset.
//!
//! Regenerates the two histograms of §3.1 from the same generator the
//! labeling pipeline uses.

use qrand::rngs::StdRng;
use qrand::SeedableRng;

use qaoa_gnn::pipeline::PipelineConfig;
use qaoa_gnn_bench::{f4, print_table, write_csv};
use qgraph::stats::{degree_histogram, size_histogram};

fn main() {
    let config = PipelineConfig::from_env();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let graphs = config
        .dataset
        .generate(&mut rng)
        .expect("default dataset spec is valid");
    println!(
        "dataset: {} graphs, nodes {}..={}, degrees {}..={}",
        graphs.len(),
        config.dataset.min_nodes,
        config.dataset.max_nodes,
        config.dataset.min_degree,
        config.dataset.max_degree
    );

    let by_degree = degree_histogram(&graphs);
    let rows: Vec<Vec<String>> = by_degree
        .bins()
        .iter()
        .map(|&(d, c)| vec![d.to_string(), c.to_string(), f4(by_degree.frequency(d))])
        .collect();
    print_table(
        "Figure 2a: degree frequency",
        &["degree", "count", "frequency"],
        &rows,
    );
    let path = write_csv(
        "fig2a_degree_frequency.csv",
        &["degree", "count", "frequency"],
        &rows,
    )
    .expect("write csv");
    println!("wrote {}", path.display());

    let by_size = size_histogram(&graphs);
    let rows: Vec<Vec<String>> = by_size
        .bins()
        .iter()
        .map(|&(n, c)| vec![n.to_string(), c.to_string(), f4(by_size.frequency(n))])
        .collect();
    print_table(
        "Figure 2b: graph size frequency",
        &["nodes", "count", "frequency"],
        &rows,
    );
    let path = write_csv(
        "fig2b_size_frequency.csv",
        &["nodes", "count", "frequency"],
        &rows,
    )
    .expect("write csv");
    println!("wrote {}", path.display());
}
