//! Golden equivalence suite for the fused kernels: on random circuits up
//! to 12 qubits the fused sweeps must reproduce the unfused gate-by-gate
//! path to 1e-12 per amplitude. The fused path reorders floating-point
//! operations, so exact bit equality is not required here — bit-identity
//! is asserted one level up, between `Evaluator` reuse and fresh
//! allocation, which share a single code path.

use qrand::rngs::StdRng;
use qrand::{Rng, SeedableRng};

use qsim::diagonal::DiagonalOperator;
use qsim::{fused, gates, StateVector};

const TOLERANCE: f64 = 1e-12;

/// Builds a deterministic pseudo-random state by scrambling the uniform
/// superposition with a layer of parameterized single-qubit gates.
fn random_state<R: Rng + ?Sized>(num_qubits: usize, rng: &mut R) -> StateVector {
    let mut psi = StateVector::uniform_superposition(num_qubits);
    for i in 0..3 * num_qubits {
        let q = rng.gen_range(0..num_qubits);
        let angle = rng.gen_range(-3.2..3.2);
        match i % 3 {
            0 => gates::rx(&mut psi, q, angle),
            1 => gates::rz(&mut psi, q, angle),
            _ => gates::ry(&mut psi, q, angle),
        }
    }
    psi
}

fn random_diagonal<R: Rng + ?Sized>(num_qubits: usize, rng: &mut R) -> DiagonalOperator {
    let values: Vec<f64> = (0..1usize << num_qubits)
        .map(|_| rng.gen_range(-4.0..4.0))
        .collect();
    DiagonalOperator::new(values)
}

fn max_amp_diff(a: &StateVector, b: &StateVector) -> f64 {
    a.to_amplitudes()
        .iter()
        .zip(b.to_amplitudes())
        .map(|(x, y)| (*x - y).norm())
        .fold(0.0, f64::max)
}

#[test]
fn fused_rx_layer_matches_gate_by_gate_up_to_12_qubits() {
    let mut rng = StdRng::seed_from_u64(0xf0_5ed);
    for n in 1..=12 {
        for trial in 0..4 {
            let theta = rng.gen_range(-6.3..6.3);
            let reference = random_state(n, &mut rng);
            let mut unfused = reference.clone();
            let mut fused_psi = reference;
            gates::rx_all(&mut unfused, theta);
            fused::rx_all(&mut fused_psi, theta);
            let diff = max_amp_diff(&unfused, &fused_psi);
            assert!(
                diff < TOLERANCE,
                "n={n} trial={trial}: fused RX layer diverges by {diff:e}"
            );
            assert!((fused_psi.norm() - 1.0).abs() < 1e-10);
        }
    }
}

#[test]
fn fused_phase_mixer_layer_matches_unfused_up_to_12_qubits() {
    let mut rng = StdRng::seed_from_u64(0xfa5e_d1a6);
    let mut phases = fused::PhaseTable::default();
    for n in 1..=12 {
        for trial in 0..4 {
            let gamma = rng.gen_range(-3.2..3.2);
            let theta = rng.gen_range(-6.3..6.3);
            let op = random_diagonal(n, &mut rng);
            let reference = random_state(n, &mut rng);
            let mut unfused = reference.clone();
            let mut fused_psi = reference;
            op.apply_phase(&mut unfused, gamma);
            gates::rx_all(&mut unfused, theta);
            phases.fill(op.levels(), gamma);
            fused::phase_rx_all(&mut fused_psi, op.level_of(), &phases, theta);
            let diff = max_amp_diff(&unfused, &fused_psi);
            assert!(
                diff < TOLERANCE,
                "n={n} trial={trial}: fused phase+mixer diverges by {diff:e}"
            );
            assert!((fused_psi.norm() - 1.0).abs() < 1e-10);
        }
    }
}

#[test]
fn deep_fused_circuits_stay_within_tolerance() {
    // Tolerances compound over layers; a p=8 trace must stay golden too.
    let mut rng = StdRng::seed_from_u64(0xdeeb);
    let mut phases = fused::PhaseTable::default();
    for n in [5usize, 9, 12] {
        let op = random_diagonal(n, &mut rng);
        let angles: Vec<(f64, f64)> = (0..8)
            .map(|_| (rng.gen_range(-3.2..3.2), rng.gen_range(-6.3..6.3)))
            .collect();
        let mut unfused = StateVector::uniform_superposition(n);
        let mut fused_psi = StateVector::uniform_superposition(n);
        for &(gamma, theta) in &angles {
            op.apply_phase(&mut unfused, gamma);
            gates::rx_all(&mut unfused, theta);
            phases.fill(op.levels(), gamma);
            fused::phase_rx_all(&mut fused_psi, op.level_of(), &phases, theta);
        }
        let diff = max_amp_diff(&unfused, &fused_psi);
        assert!(diff < TOLERANCE, "n={n}: p=8 trace diverges by {diff:e}");
    }
}

#[test]
fn fused_layer_handles_degenerate_angles() {
    // γ = 0 reduces to the plain mixer; θ = 0 reduces to the plain phase.
    let mut rng = StdRng::seed_from_u64(0xd09e);
    let mut phases = fused::PhaseTable::default();
    for n in [1usize, 2, 3, 6, 11] {
        let op = random_diagonal(n, &mut rng);
        let reference = random_state(n, &mut rng);

        let mut only_mixer = reference.clone();
        let mut via_fused = reference.clone();
        gates::rx_all(&mut only_mixer, 0.9);
        phases.fill(op.levels(), 0.0);
        fused::phase_rx_all(&mut via_fused, op.level_of(), &phases, 0.9);
        assert!(max_amp_diff(&only_mixer, &via_fused) < TOLERANCE);

        let mut only_phase = reference.clone();
        let mut via_fused = reference;
        op.apply_phase(&mut only_phase, 0.7);
        phases.fill(op.levels(), 0.7);
        fused::phase_rx_all(&mut via_fused, op.level_of(), &phases, 0.0);
        assert!(max_amp_diff(&only_phase, &via_fused) < TOLERANCE);
    }
}
