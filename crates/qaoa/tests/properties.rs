//! Property-based tests for the QAOA stack.

use qcheck::{any_u64, prop_assert, prop_assert_eq, prop_assume, properties, vec};
use qrand::rngs::StdRng;
use qrand::SeedableRng;

use qaoa::optimize::{Maximizer, NelderMead};
use qaoa::{analytic, Evaluator, MaxCutHamiltonian, Params, QaoaCircuit};
use qgraph::generate;
use qsim::fused::{self, PhaseTable};
use qsim::StateVector;

/// The suite's "arbitrary graph": a seeded Erdős–Rényi draw, built from
/// primitive case coordinates so qcheck can shrink toward small graphs.
fn build_graph(n: usize, p: f64, seed: u64) -> qgraph::Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generate::erdos_renyi(n, p, &mut rng).expect("valid parameters")
}

properties! {
    cases = 48;

    fn expectation_bounded_by_spectrum(
        n in 3usize..9,
        p in 0.2f64..0.9,
        seed in any_u64(),
        gamma in -7.0f64..7.0,
        beta in -4.0f64..4.0,
    ) {
        let g = build_graph(n, p, seed);
        let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(&g));
        let e = circuit.expectation(&Params::new(vec![gamma], vec![beta]));
        prop_assert!(e >= -1e-9);
        prop_assert!(e <= circuit.hamiltonian().optimal_value() + 1e-9);
    }

    fn simulator_equals_analytic_p1(
        n in 3usize..9,
        p in 0.2f64..0.9,
        seed in any_u64(),
        gamma in -3.0f64..3.0,
        beta in -2.0f64..2.0,
    ) {
        let g = build_graph(n, p, seed);
        prop_assume!(g.m() > 0);
        let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(&g));
        let sim = circuit.expectation(&Params::new(vec![gamma], vec![beta]));
        let formula = analytic::graph_expectation(&g, gamma, beta);
        prop_assert!((sim - formula).abs() < 1e-8, "sim {sim} vs analytic {formula}");
    }

    fn canonicalization_is_idempotent_and_invariant(
        n in 3usize..9,
        p in 0.2f64..0.9,
        seed in any_u64(),
        gamma in -9.0f64..9.0,
        beta in -5.0f64..5.0,
    ) {
        let g = build_graph(n, p, seed);
        let params = Params::new(vec![gamma], vec![beta]);
        let canonical = params.canonical();
        // Idempotent.
        prop_assert!(canonical.canonical().distance(&canonical) < 1e-9);
        // In-domain.
        prop_assert!(canonical.gammas()[0] >= 0.0 && canonical.gammas()[0] <= std::f64::consts::PI);
        prop_assert!(canonical.betas()[0] >= 0.0 && canonical.betas()[0] < std::f64::consts::FRAC_PI_2);
        // Physically equivalent (unit weights).
        let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(&g));
        let e1 = circuit.expectation(&params);
        let e2 = circuit.expectation(&canonical);
        prop_assert!((e1 - e2).abs() < 1e-8, "{e1} vs {e2}");
    }

    fn state_norm_preserved_at_any_depth(
        n in 3usize..9,
        p in 0.2f64..0.9,
        seed in any_u64(),
        angles in vec(-3.0f64..3.0, 2usize..8),
    ) {
        let g = build_graph(n, p, seed);
        let depth = angles.len() / 2;
        prop_assume!(depth >= 1);
        let params = Params::new(
            angles[..depth].to_vec(),
            angles[depth..2 * depth].to_vec(),
        );
        let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(&g));
        let psi = circuit.run(&params);
        prop_assert!((psi.norm() - 1.0).abs() < 1e-9);
    }

    fn optimizers_never_regress_from_start(
        n in 3usize..9,
        p in 0.2f64..0.9,
        seed in any_u64(),
        start_gamma in 0.0f64..6.2,
        start_beta in 0.0f64..3.1,
        opt_seed in any_u64(),
    ) {
        let g = build_graph(n, p, seed);
        let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(&g));
        let objective = |flat: &[f64]| {
            circuit.expectation(&Params::from_flat(flat).expect("p=1 layout"))
        };
        let start = [start_gamma, start_beta];
        let start_value = objective(&start);
        let mut rng = StdRng::seed_from_u64(opt_seed);
        let nm = NelderMead::new(30).maximize(objective, &start, &mut rng);
        prop_assert!(nm.best_value >= start_value - 1e-9);
    }

    fn approximation_ratio_of_best_params_leq_one(
        n in 3usize..9,
        p in 0.2f64..0.9,
        seed in any_u64(),
        opt_seed in any_u64(),
    ) {
        let g = build_graph(n, p, seed);
        let mut rng = StdRng::seed_from_u64(opt_seed);
        let ham = MaxCutHamiltonian::new(&g);
        let outcome = qaoa::warm_start::run_random_init(
            &ham,
            1,
            &NelderMead::new(60),
            &mut rng,
        );
        prop_assert!(outcome.final_ratio <= 1.0 + 1e-9);
        prop_assert!(outcome.final_ratio >= outcome.initial_ratio - 1e-9);
        // History is monotone best-so-far.
        for w in outcome.history.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12);
        }
    }

    fn evaluator_reuse_is_bit_identical_to_fresh_runs(
        n in 3usize..9,
        p in 0.2f64..0.9,
        seed in any_u64(),
        angles in vec(-3.0f64..3.0, 2usize..10),
    ) {
        let g = build_graph(n, p, seed);
        let depth = angles.len() / 2;
        prop_assume!(depth >= 1);
        let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(&g));
        let operator = circuit.hamiltonian().operator();
        let mut evaluator = Evaluator::new(&circuit);
        let mut phases = PhaseTable::default();
        // Reuse one half-register buffer across several parameter sets;
        // every run must equal a fresh one-shot evaluation, and a fresh
        // full-register run of the fused layer, bit for bit.
        for shift in 0..3 {
            let offset = 0.1 * shift as f64;
            let params = Params::new(
                angles[..depth].iter().map(|a| a + offset).collect(),
                angles[depth..2 * depth].iter().map(|a| a - offset).collect(),
            );
            let mut full = StateVector::uniform_superposition(n);
            for (&gamma, &beta) in params.gammas().iter().zip(params.betas()) {
                phases.fill(operator.levels(), gamma);
                fused::phase_rx_all(&mut full, operator.level_of(), &phases, 2.0 * beta);
            }
            let reused = evaluator.expectation_in_place(&params);
            prop_assert_eq!(reused.to_bits(), circuit.expectation(&params).to_bits());
            prop_assert_eq!(reused.to_bits(), operator.expectation(&full).to_bits());
            prop_assert_eq!(evaluator.run_into(&params), &full);
        }
    }

    fn interp_preserves_endpoint_schedule(
        angles in vec(0.05f64..1.5, 2usize..10),
    ) {
        let depth = angles.len() / 2;
        prop_assume!(depth >= 1);
        let params = Params::new(
            angles[..depth].to_vec(),
            angles[depth..2 * depth].to_vec(),
        );
        let extended = qaoa::interp::interp_extend(&params);
        prop_assert_eq!(extended.depth(), depth + 1);
        // First and last angles are preserved by the INTERP rule.
        prop_assert!((extended.gammas()[0] - params.gammas()[0]).abs() < 1e-12);
        prop_assert!(
            (extended.gammas()[depth] - params.gammas()[depth - 1]).abs() < 1e-12
        );
    }
}
