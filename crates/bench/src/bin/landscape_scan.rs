//! Landscape study: how rugged is the p=1 objective random initialization
//! must navigate?
//!
//! Quantifies §3.3's claim that "random initialization may lead the
//! optimizer into regions where not even local optima exist": per degree,
//! scan the canonical `(γ, β)` domain of a random regular instance, count
//! local maxima, and measure the basin of attraction of the global
//! optimum — i.e. the probability that a uniform random start hill-climbs
//! to the top.

use qrand::rngs::StdRng;
use qrand::SeedableRng;

use qaoa::landscape::Landscape;
use qaoa::MaxCutHamiltonian;
use qaoa_gnn_bench::{f4, print_table, write_csv};

fn main() {
    let mut rng = StdRng::seed_from_u64(505);
    let resolution = 41;
    let mut rows = Vec::new();
    for degree in [2usize, 3, 4, 6, 8, 10] {
        let n = if (12 * degree) % 2 == 0 { 12 } else { 13 };
        let graph =
            qgraph::generate::random_regular(n, degree, &mut rng).expect("feasible regular shape");
        let hamiltonian = MaxCutHamiltonian::new(&graph);
        let landscape = Landscape::scan(&hamiltonian, resolution);
        let maxima = landscape.local_maxima();
        let basin = landscape.global_basin_fraction(0.02 * landscape.max_value());
        rows.push(vec![
            degree.to_string(),
            n.to_string(),
            maxima.len().to_string(),
            f4(landscape.max_value() / landscape.optimal),
            f4(basin),
        ]);
        println!(
            "degree {degree}: {} local maxima, basin fraction {:.3}",
            maxima.len(),
            basin
        );
    }
    let header = [
        "degree",
        "n",
        "local_maxima",
        "grid_best_ar",
        "global_basin_fraction",
    ];
    print_table(
        "p=1 landscape ruggedness (41x41 canonical-domain scan)",
        &header,
        &rows,
    );
    let path = write_csv("landscape_scan.csv", &header, &rows).expect("write csv");
    println!("wrote {}", path.display());
}
