//! Cross-crate integration tests: each test exercises at least two crates
//! through their public APIs.

use qrand::rngs::StdRng;
use qrand::SeedableRng;

use gnn::{GnnKind, GnnModel, ModelConfig};
use qaoa::optimize::{GridSearch, Maximizer, NelderMead};
use qaoa::{analytic, fixed_angle, MaxCutHamiltonian, Params, QaoaCircuit};
use qaoa_gnn::dataset::{label_graph, Dataset, LabelConfig};
use qaoa_gnn::sdp::{self, SdpConfig};
use qaoa_gnn::{fixed, pipeline};
use qgraph::generate::DatasetSpec;
use qgraph::{generate, maxcut, Graph};

/// The simulator and the closed-form p=1 expectation must agree on every
/// graph the dataset generator can produce.
#[test]
fn simulator_matches_analytic_on_dataset_graphs() {
    let mut rng = StdRng::seed_from_u64(201);
    let spec = DatasetSpec::with_count(25);
    let graphs = spec.generate(&mut rng).unwrap();
    for (i, g) in graphs.iter().enumerate() {
        if g.m() == 0 {
            continue;
        }
        let gamma = 0.1 + 0.13 * i as f64;
        let beta = 0.05 + 0.07 * i as f64;
        let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(g));
        let sim = circuit.expectation(&Params::new(vec![gamma], vec![beta]));
        let formula = analytic::graph_expectation(g, gamma, beta);
        assert!(
            (sim - formula).abs() < 1e-8,
            "graph {i} (n={}, m={}): sim {sim} vs analytic {formula}",
            g.n(),
            g.m()
        );
    }
}

/// Grid search over the p=1 landscape must dominate what random-init
/// Nelder–Mead finds, and both must stay below the classical optimum.
#[test]
fn optimizer_hierarchy_on_real_instances() {
    let mut rng = StdRng::seed_from_u64(202);
    for _ in 0..5 {
        let g = generate::random_regular(8, 3, &mut rng).unwrap();
        let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(&g));
        let objective =
            |flat: &[f64]| circuit.expectation(&Params::from_flat(flat).expect("p=1 layout"));
        let grid = GridSearch { resolution: 48 }.maximize(objective, &[0.0, 0.0], &mut rng);
        let start = Params::random(1, &mut rng).to_flat();
        let nm = NelderMead::new(150).maximize(objective, &start, &mut rng);
        let optimal = circuit.hamiltonian().optimal_value();
        assert!(grid.best_value <= optimal + 1e-9);
        assert!(
            nm.best_value <= grid.best_value + 0.05,
            "NM should not beat a dense grid by much"
        );
        assert!(
            grid.best_value > optimal * 0.5,
            "p=1 QAOA beats random guessing"
        );
    }
}

/// Fixed angles from the analytic tree objective must transfer to actual
/// regular instances with near-grid-optimal quality (the conjecture).
#[test]
fn fixed_angles_transfer_to_instances() {
    let mut rng = StdRng::seed_from_u64(203);
    for degree in [3usize, 4, 5] {
        let g = generate::random_regular(10, degree, &mut rng).unwrap();
        let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(&g));
        let fa = fixed_angle::fixed_angles(degree);
        let fixed_ar = circuit.approximation_ratio(&fa.params);
        // Dense grid reference.
        let objective =
            |flat: &[f64]| circuit.expectation(&Params::from_flat(flat).expect("p=1 layout"));
        let grid = GridSearch { resolution: 48 }.maximize(objective, &[0.0, 0.0], &mut rng);
        let grid_ar = circuit.hamiltonian().approximation_ratio(grid.best_value);
        assert!(
            fixed_ar > grid_ar - 0.06,
            "degree {degree}: fixed {fixed_ar} vs grid {grid_ar}"
        );
    }
}

/// Labels must be reproducible end-to-end and internally consistent with
/// the brute-force optimum from qgraph.
#[test]
fn labels_are_consistent_with_brute_force() {
    let mut rng = StdRng::seed_from_u64(204);
    let g = generate::erdos_renyi(9, 0.4, &mut rng).unwrap();
    let label = label_graph(&g, &LabelConfig::quick(80), &mut rng);
    let brute = maxcut::brute_force(&g);
    assert_eq!(label.optimal, brute.value);
    assert!(label.expectation <= brute.value + 1e-9);
    // Re-evaluating the stored params reproduces the stored expectation.
    let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(&g));
    let re_eval = circuit.expectation(&label.params);
    assert!((re_eval - label.expectation).abs() < 1e-9);
}

/// The data-quality passes compose: SDP then fixed-angle augmentation can
/// only improve mean label quality, and never touch the graph structures.
#[test]
fn quality_passes_compose() {
    let dataset =
        Dataset::generate(&DatasetSpec::with_count(30), &LabelConfig::quick(50), 205).unwrap();
    let mut rng = StdRng::seed_from_u64(205);
    let before = dataset.mean_approx_ratio();
    let (pruned, stats) = sdp::prune(&dataset, &SdpConfig::paper_default(), &mut rng);
    assert_eq!(stats.input, 30);
    let (augmented, _) = fixed::augment(&pruned);
    assert!(augmented.mean_approx_ratio() >= before - 1e-9);
    for (a, p) in augmented.entries.iter().zip(&pruned.entries) {
        assert_eq!(a.graph, p.graph, "augmentation must not alter graphs");
        assert_eq!(a.optimal, p.optimal);
    }
}

/// A GNN trained on fixed-angle labels of regular graphs must recover the
/// degree → γ* relationship (γ* decreases with degree).
#[test]
fn gnn_learns_fixed_angle_structure() {
    let mut rng = StdRng::seed_from_u64(206);
    // Build a dataset labeled purely by fixed angles for degrees 3 and 8.
    let mut entries = Vec::new();
    for _ in 0..12 {
        for &d in &[3usize, 8] {
            let n = 12;
            let g = generate::random_regular(n, d, &mut rng).unwrap();
            let ham = MaxCutHamiltonian::new(&g);
            let circuit = QaoaCircuit::new(ham.clone());
            let fa = fixed_angle::fixed_angles(d);
            let expectation = circuit.expectation(&fa.params);
            entries.push(qaoa_gnn::LabeledGraph {
                graph: g,
                params: fa.params,
                expectation,
                optimal: ham.optimal_value(),
                approx_ratio: ham.approximation_ratio(expectation),
            });
        }
    }
    let dataset = Dataset { entries };
    let model_config = ModelConfig {
        dropout: 0.0,
        hidden_dim: 16,
        ..ModelConfig::default()
    };
    let model = GnnModel::new(GnnKind::Gin, model_config.clone(), &mut rng);
    let examples = pipeline::to_examples(&dataset, &model_config);
    gnn::train::train(
        &model,
        &examples,
        &gnn::train::TrainConfig::quick(40),
        &mut rng,
    );
    // Held-out graphs of each degree.
    let g3 = generate::random_regular(12, 3, &mut rng).unwrap();
    let g8 = generate::random_regular(12, 8, &mut rng).unwrap();
    let (gamma3, _) = model.predict(&g3);
    let (gamma8, _) = model.predict(&g8);
    let want3 = fixed_angle::fixed_angles(3).params.gammas()[0];
    let want8 = fixed_angle::fixed_angles(8).params.gammas()[0];
    assert!(want3 > want8);
    assert!(
        gamma3 > gamma8,
        "model should predict larger gamma for degree 3 ({gamma3} vs {gamma8})"
    );
}

/// Dataset text I/O from qgraph composes with the labeling pipeline:
/// write → read → relabel gives the same optimum.
#[test]
fn graph_files_round_trip_through_labeling() {
    let mut rng = StdRng::seed_from_u64(207);
    let g = generate::random_regular(8, 3, &mut rng).unwrap();
    let text = qgraph::io::graph_to_string(&g);
    let back = qgraph::io::graph_from_str(&text).unwrap();
    let a = label_graph(&g, &LabelConfig::quick(40), &mut StdRng::seed_from_u64(1));
    let b = label_graph(
        &back,
        &LabelConfig::quick(40),
        &mut StdRng::seed_from_u64(1),
    );
    assert_eq!(a, b);
}

/// Weighted graphs flow through the QAOA stack (the §7 extension): the
/// simulator accepts them even though the analytic p=1 formula does not.
#[test]
fn weighted_graphs_supported_by_simulator_path() {
    let mut rng = StdRng::seed_from_u64(208);
    let base = generate::random_regular(8, 3, &mut rng).unwrap();
    let weighted = generate::randomize_weights(&base, 0.5, 2.0, &mut rng).unwrap();
    let label = label_graph(&weighted, &LabelConfig::quick(60), &mut rng);
    assert!(label.approx_ratio > 0.4);
    assert!(label.approx_ratio <= 1.0 + 1e-9);
    // The analytic fast path explicitly refuses weighted inputs.
    let result = std::panic::catch_unwind(|| analytic::graph_expectation(&weighted, 0.3, 0.2));
    assert!(
        result.is_err(),
        "analytic formula must reject weighted graphs"
    );
}

/// Evaluation reports are structurally sound for a freshly initialized
/// (untrained) model — the baseline sanity the §4 comparison rests on.
#[test]
fn evaluation_report_structure() {
    let mut rng = StdRng::seed_from_u64(209);
    let model = GnnModel::new(GnnKind::Gat, ModelConfig::default(), &mut rng);
    let graphs: Vec<Graph> = (0..8)
        .map(|i| generate::random_regular(6 + (i % 4) * 2, 3, &mut rng).unwrap())
        .collect();
    let report = qaoa_gnn::eval::evaluate_model(
        &model,
        &graphs,
        &qaoa_gnn::eval::EvalConfig::default(),
        &mut rng,
    );
    assert_eq!(report.per_graph.len(), 8);
    assert!((0.0..=1.0).contains(&report.win_rate()));
    assert!(report.mean_improvement.abs() <= 100.0);
    let recomputed = qaoa_gnn::EvaluationReport::from_comparisons(report.per_graph.clone());
    assert!((recomputed.mean_improvement - report.mean_improvement).abs() < 1e-12);
}
