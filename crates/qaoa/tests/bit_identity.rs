//! Bit-identity of the labeling hot path: the edge-sweep cost diagonal
//! equals `cut_value_mask` bit for bit, and `Evaluator` states and
//! expectations equal a verbatim copy of the full-register per-amplitude
//! `cis` kernel on weighted graphs, although the evaluator simulates only
//! half the register.

#[path = "../../qsim/tests/common/cis_reference.rs"]
mod cis_reference;

use cis_reference::state_bits;
use qcheck::{any_u64, prop_assert, prop_assert_eq, prop_assume, properties, vec};
use qrand::rngs::StdRng;
use qrand::{Rng, SeedableRng};

use qaoa::{Evaluator, MaxCutHamiltonian, Params, QaoaCircuit};
use qgraph::{maxcut, Graph};
use qsim::StateVector;

/// A seeded Erdős–Rényi draw with weights uniform in [-1.3, 2.7]
/// (negative and fractional, so cut sums round and can cancel to zero).
fn weighted_graph(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::empty(n).expect("n >= 1");
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen::<f64>() < p {
                let w = -1.3 + 4.0 * rng.gen::<f64>();
                g.add_edge(u, v, w).expect("finite weight");
            }
        }
    }
    g
}

/// The expectation as the serial evaluator computed it before the level
/// table and the edge-sweep diagonal: cut values from `cut_value_mask`,
/// layers from the per-amplitude `cis` kernel, the same reduction.
fn reference_expectation(g: &Graph, flat: &[f64]) -> f64 {
    let n = g.n();
    let values: Vec<f64> = (0..1u64 << n)
        .map(|z| maxcut::cut_value_mask(g, z))
        .collect();
    let (gammas, betas) = flat.split_at(flat.len() / 2);
    let mut psi = StateVector::uniform_superposition(n);
    for (&gamma, &beta) in gammas.iter().zip(betas) {
        cis_reference::phase_rx_all(&mut psi, &values, gamma, 2.0 * beta);
    }
    psi.expectation_diagonal(&values)
}

/// The full final state as the reference kernel computes it, all `2^n`
/// amplitudes, from `(γ, β)` layer pairs.
fn reference_state(g: &Graph, angles: &[(f64, f64)]) -> StateVector {
    let values: Vec<f64> = (0..1u64 << g.n())
        .map(|z| maxcut::cut_value_mask(g, z))
        .collect();
    let mut psi = StateVector::uniform_superposition(g.n());
    for &(gamma, beta) in angles {
        cis_reference::phase_rx_all(&mut psi, &values, gamma, 2.0 * beta);
    }
    psi
}

/// The circuit parameters of `(γ, β)` layer pairs.
fn layers(angles: &[(f64, f64)]) -> Params {
    let (gammas, betas): (Vec<f64>, Vec<f64>) = angles.iter().copied().unzip();
    Params::new(gammas, betas)
}

properties! {
    cases = 96;

    /// The Hamiltonian's diagonal is `cut_value_mask`, bit for bit —
    /// signed zeros of uncut and cancelling entries included.
    fn cost_diagonal_matches_cut_value_mask(
        n in 1usize..13,
        p in 0.0f64..1.0,
        seed in any_u64(),
    ) {
        let g = weighted_graph(n, p, seed);
        let ham = MaxCutHamiltonian::new(&g);
        for (z, v) in ham.operator().values().iter().enumerate() {
            prop_assert_eq!(v.to_bits(), maxcut::cut_value_mask(&g, z as u64).to_bits());
        }
    }

    /// `Evaluator::expectation_flat` returns exactly the reference bits on
    /// weighted graphs at n = 1..=12 and depth 1–3.
    fn expectation_flat_matches_cis_reference(
        n in 1usize..13,
        p in 0.2f64..1.0,
        seed in any_u64(),
        angles in vec((-3.0f64..3.0, -1.6f64..1.6), 1usize..4),
    ) {
        let g = weighted_graph(n, p, seed);
        let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(&g));
        let (gammas, betas): (Vec<f64>, Vec<f64>) = angles.iter().copied().unzip();
        let flat = [gammas, betas].concat();
        let got = Evaluator::new(&circuit).expectation_flat(&flat);
        prop_assert_eq!(got.to_bits(), reference_expectation(&g, &flat).to_bits());
    }

    /// The full state `Evaluator::run_into` writes out of its half
    /// register has exactly the reference amplitude bits, signed zeros
    /// included, on weighted graphs at n = 1..=12 and depth 1–3.
    fn run_into_state_matches_cis_reference(
        n in 1usize..13,
        p in 0.2f64..1.0,
        seed in any_u64(),
        angles in vec((-3.0f64..3.0, -1.6f64..1.6), 1usize..4),
    ) {
        prop_assume!(!angles.is_empty());
        let g = weighted_graph(n, p, seed);
        let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(&g));
        let mut evaluator = Evaluator::new(&circuit);
        let state = evaluator.run_into(&layers(&angles));
        prop_assert!(state_bits(state) == state_bits(&reference_state(&g, &angles)), "n={n}");
    }
}

/// Paper-size registers: odd n = 13 and 15 end each layer on the
/// single-qubit mirror sweep, even n = 14 on the paired one. Weighted and
/// unweighted regular graphs, depth 1–3.
#[test]
fn paper_sizes_match_cis_reference_on_both_top_qubit_kernels() {
    let mut rng = StdRng::seed_from_u64(0x5171_f11b);
    let angles = [(0.83, -0.41), (-1.9, 1.2), (2.6, 0.37)];
    for (n, depth) in [(13usize, 3usize), (14, 2), (15, 1)] {
        let regular = qgraph::generate::random_regular(n, 4, &mut rng).expect("n·4 is even");
        for g in [weighted_graph(n, 0.4, n as u64), regular] {
            let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(&g));
            let params = layers(&angles[..depth]);
            let flat = params.to_flat();
            let mut evaluator = Evaluator::new(&circuit);
            assert_eq!(
                evaluator.expectation_flat(&flat).to_bits(),
                reference_expectation(&g, &flat).to_bits(),
                "n={n}"
            );
            let state = evaluator.run_into(&params);
            let reference = reference_state(&g, &angles[..depth]);
            assert!(state_bits(state) == state_bits(&reference), "n={n}");
        }
    }
}

#[test]
fn edgeless_diagonal_is_the_empty_sum_everywhere() {
    for n in 1..=6 {
        let g = Graph::empty(n).unwrap();
        let ham = MaxCutHamiltonian::new(&g);
        for (z, v) in ham.operator().values().iter().enumerate() {
            assert_eq!(v.to_bits(), maxcut::cut_value_mask(&g, z as u64).to_bits());
        }
        assert_eq!(ham.operator().levels().len(), 1, "n={n}");
    }
}
