//! Quickstart: train a small GNN on QAOA labels and warm-start an unseen
//! instance.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This walks the whole paper in miniature: generate a labeled dataset
//! (§3.1), train a GCN (§4.1), and compare GNN-predicted initialization
//! against random initialization on a fresh graph (§4).

use qrand::rngs::StdRng;
use qrand::SeedableRng;

use gnn::{GnnKind, GnnModel, ModelConfig};
use qaoa::{MaxCutHamiltonian, Params, QaoaCircuit};
use qaoa_gnn::dataset::{Dataset, LabelConfig};
use qaoa_gnn::pipeline;
use qgraph::generate::DatasetSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(42);

    // 1. A labeled dataset: 80 random regular graphs, each labeled by QAOA
    //    from random initialization (the paper uses 9598 graphs and 500
    //    iterations; this is the minutes-scale version).
    println!("labeling 80 graphs...");
    let spec = DatasetSpec {
        count: 80,
        ..DatasetSpec::default()
    };
    let dataset = Dataset::generate(&spec, &LabelConfig::quick(100), 7)?;
    println!(
        "mean label approximation ratio: {:.3}",
        dataset.mean_approx_ratio()
    );

    // 2. Train a GCN to predict (γ, β) from graph structure.
    println!("training GCN for 25 epochs...");
    let model_config = ModelConfig::default();
    let model = GnnModel::new(GnnKind::Gcn, model_config.clone(), &mut rng);
    let examples = pipeline::to_examples(&dataset, &model_config);
    let history = gnn::train::train(
        &model,
        &examples,
        &gnn::train::TrainConfig::quick(25),
        &mut rng,
    );
    println!(
        "train loss: {:.4} -> {:.4}",
        history
            .epochs
            .first()
            .map(|e| e.train_loss)
            .unwrap_or(f64::NAN),
        history.final_loss().unwrap_or(f64::NAN)
    );

    // 3. Warm-start an unseen instance and compare with random init in the
    //    paper's fixed-parameter setting.
    let unseen = qgraph::generate::random_regular(12, 3, &mut rng)?;
    let hamiltonian = MaxCutHamiltonian::new(&unseen);
    let circuit = QaoaCircuit::new(hamiltonian.clone());

    let (gamma, beta) = model.predict(&unseen);
    let predicted = Params::new(vec![gamma], vec![beta]);
    let gnn_ratio = circuit.approximation_ratio(&predicted);
    let random_ratio = circuit.approximation_ratio(&Params::random(1, &mut rng));

    println!(
        "\nunseen 3-regular graph on 12 nodes (optimal cut = {}):",
        hamiltonian.optimal_value()
    );
    println!("  GNN-predicted (γ={gamma:.3}, β={beta:.3}) AR: {gnn_ratio:.3}");
    println!("  random initialization AR:                  {random_ratio:.3}");
    println!(
        "  improvement: {:+.1} percentage points",
        (gnn_ratio - random_ratio) * 100.0
    );
    Ok(())
}
