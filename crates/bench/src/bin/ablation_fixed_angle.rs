//! §3.3 ablation: the fixed-angle conjecture as a label-quality tool.
//!
//! Two views:
//! 1. Per degree 3–11 (the published lookup range): fixed-angle AR vs
//!    random-init-then-optimize AR on random regular graphs.
//! 2. Dataset coverage: what fraction of a paper-shaped dataset is eligible
//!    (the paper found ~6%) and how much augmentation moves mean quality.

use qrand::rngs::StdRng;
use qrand::SeedableRng;

use qaoa::fixed_angle;
use qaoa::optimize::NelderMead;
use qaoa::warm_start::{self, InitStrategy};
use qaoa::{MaxCutHamiltonian, Params, QaoaCircuit};
use qaoa_gnn::pipeline::PipelineConfig;
use qaoa_gnn::{dataset::Dataset, fixed};
use qaoa_gnn_bench::{f2, f4, print_table, write_csv};

fn main() {
    let config = PipelineConfig::from_env();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xfa);

    // View 1: per-degree comparison.
    let mut rows = Vec::new();
    for degree in fixed_angle::LOOKUP_DEGREES {
        // Smallest even-product size comfortably above the degree.
        let n = if (degree + 1) % 2 == 0 {
            degree + 1
        } else {
            degree + 2
        }
        .max(8);
        let n = if (n * degree) % 2 == 0 { n } else { n + 1 };
        let fa = fixed_angle::fixed_angles(degree);
        let mut fixed_ars = Vec::new();
        let mut random_ars = Vec::new();
        let trials = 5;
        for _ in 0..trials {
            let g = qgraph::generate::random_regular(n, degree, &mut rng)
                .expect("feasible regular shape");
            let ham = MaxCutHamiltonian::new(&g);
            let circuit = QaoaCircuit::new(ham.clone());
            fixed_ars.push(ham.approximation_ratio(circuit.expectation(&fa.params)));
            let outcome = warm_start::run(
                &ham,
                Params::random(1, &mut rng),
                InitStrategy::Random,
                &NelderMead::new(config.labeling.iterations),
                &mut rng,
            );
            random_ars.push(outcome.final_ratio);
        }
        let (fixed_mean, _) = qgraph::stats::mean_std(&fixed_ars);
        let (random_mean, _) = qgraph::stats::mean_std(&random_ars);
        rows.push(vec![
            degree.to_string(),
            n.to_string(),
            f4(fa.params.gammas()[0]),
            f4(fa.params.betas()[0]),
            f4(fa.tree_edge_value),
            f4(fixed_mean),
            f4(random_mean),
        ]);
    }
    let header = [
        "degree",
        "n",
        "gamma*",
        "beta*",
        "tree_edge_value",
        "fixed_ar",
        "random_opt_ar",
    ];
    print_table("Fixed angles vs random-init optimization", &header, &rows);
    let path = write_csv("ablation_fixed_angle_degrees.csv", &header, &rows).expect("write csv");
    println!("wrote {}", path.display());

    // View 2: dataset coverage and augmentation effect.
    println!(
        "\nlabeling {} graphs for the coverage study...",
        config.dataset.count
    );
    let dataset = Dataset::generate(&config.dataset, &config.labeling, config.seed)
        .expect("default dataset spec is valid");
    let before = dataset.mean_approx_ratio();
    let (augmented, stats) = fixed::augment(&dataset);
    let rows = vec![vec![
        dataset.len().to_string(),
        stats.eligible.to_string(),
        f2(100.0 * stats.eligible as f64 / dataset.len() as f64),
        stats.improved.to_string(),
        f4(stats.mean_gain),
        f4(before),
        f4(augmented.mean_approx_ratio()),
    ]];
    let header = [
        "dataset",
        "eligible",
        "eligible_%",
        "improved",
        "mean_gain",
        "mean_ar_before",
        "mean_ar_after",
    ];
    print_table("Fixed-angle dataset coverage (paper: ~6%)", &header, &rows);
    let path = write_csv("ablation_fixed_angle_coverage.csv", &header, &rows).expect("write csv");
    println!("wrote {}", path.display());
}
