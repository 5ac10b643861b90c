//! NISQ-noise study: how the warm-start advantage survives depolarizing
//! noise.
//!
//! §1–2 motivate warm starts with the limits of noisy hardware. This
//! experiment runs p=1 QAOA under a per-layer depolarizing channel
//! (trajectory method) and compares fixed-angle initialization against the
//! average random initialization across noise rates.

use qrand::rngs::StdRng;
use qrand::SeedableRng;

use qaoa::{fixed_angle, MaxCutHamiltonian, Params};
use qaoa_gnn_bench::{f4, print_table, write_csv};
use qsim::gates;
use qsim::noise::{trajectory_expectation, Depolarizing};

/// Noisy p=1 QAOA expectation with a depolarizing step after each layer.
fn noisy_expectation(
    hamiltonian: &MaxCutHamiltonian,
    params: &Params,
    channel: Depolarizing,
    trajectories: usize,
    rng: &mut StdRng,
) -> f64 {
    let operator = hamiltonian.operator().clone();
    trajectory_expectation(
        hamiltonian.num_qubits(),
        hamiltonian.operator().values(),
        channel,
        trajectories,
        rng,
        |psi, ch, rng| {
            for (&gamma, &beta) in params.gammas().iter().zip(params.betas()) {
                operator.apply_phase(psi, gamma);
                ch.apply_all(psi, rng);
                gates::rx_all(psi, 2.0 * beta);
                ch.apply_all(psi, rng);
            }
        },
    )
}

fn main() {
    let mut rng = StdRng::seed_from_u64(404);
    let graph = qgraph::generate::random_regular(10, 3, &mut rng).expect("feasible shape");
    let hamiltonian = MaxCutHamiltonian::new(&graph);
    let fixed = fixed_angle::fixed_angles(3).params;
    let trajectories = 200;
    let random_starts = 20;

    let mut rows = Vec::new();
    for &rate in &[0.0, 0.001, 0.005, 0.01, 0.02, 0.05, 0.1] {
        let channel = Depolarizing::new(rate);
        let warm = noisy_expectation(&hamiltonian, &fixed, channel, trajectories, &mut rng);
        let mut random_total = 0.0;
        for _ in 0..random_starts {
            let p = Params::random(1, &mut rng);
            random_total +=
                noisy_expectation(&hamiltonian, &p, channel, trajectories / 4, &mut rng);
        }
        let random_mean = random_total / random_starts as f64;
        rows.push(vec![
            f4(rate),
            f4(hamiltonian.approximation_ratio(warm)),
            f4(hamiltonian.approximation_ratio(random_mean)),
            f4((warm - random_mean) / hamiltonian.optimal_value() * 100.0),
        ]);
        println!(
            "noise {rate}: warm AR {:.4}",
            hamiltonian.approximation_ratio(warm)
        );
    }
    let header = [
        "noise_rate",
        "ar_fixed_angles",
        "ar_random_mean",
        "advantage_pts",
    ];
    print_table(
        "Depolarizing-noise study (10-node 3-regular, p=1)",
        &header,
        &rows,
    );
    let path = write_csv("ablation_noise.csv", &header, &rows).expect("write csv");
    println!("wrote {}", path.display());
}
