//! Property-based tests for the state-vector simulator.

use qcheck::{prop_assert, prop_assert_eq, properties, vec};

use qsim::diagonal::DiagonalOperator;
use qsim::fused::{self, PhaseTable};
use qsim::{gates, Complex, StateVector};

/// Builds a pseudo-random (but deterministic) non-trivial state by applying a
/// short layer of parameterized gates to the uniform superposition.
fn scrambled_state(num_qubits: usize, angles: &[f64]) -> StateVector {
    let mut psi = StateVector::uniform_superposition(num_qubits);
    for (i, &a) in angles.iter().enumerate() {
        let q = i % num_qubits;
        match i % 3 {
            0 => gates::rx(&mut psi, q, a),
            1 => gates::rz(&mut psi, q, a),
            _ => gates::ry(&mut psi, q, a),
        }
    }
    psi
}

properties! {
    fn all_gates_preserve_norm(
        n in 1usize..7,
        angles in vec(-6.3f64..6.3, 1usize..12),
    ) {
        let psi = scrambled_state(n, &angles);
        prop_assert!((psi.norm() - 1.0).abs() < 1e-10);
    }

    fn h_is_self_inverse(
        n in 1usize..6,
        q_raw in 0usize..6,
        angles in vec(-3.0f64..3.0, 1usize..6),
    ) {
        let q = q_raw % n;
        let mut psi = scrambled_state(n, &angles);
        let before = psi.clone();
        gates::h(&mut psi, q);
        gates::h(&mut psi, q);
        prop_assert!((psi.fidelity(&before) - 1.0).abs() < 1e-10);
    }

    fn x_is_self_inverse(
        n in 1usize..6,
        q_raw in 0usize..6,
        angles in vec(-3.0f64..3.0, 1usize..6),
    ) {
        let q = q_raw % n;
        let mut psi = scrambled_state(n, &angles);
        let before = psi.clone();
        gates::x(&mut psi, q);
        gates::x(&mut psi, q);
        prop_assert!((psi.fidelity(&before) - 1.0).abs() < 1e-10);
    }

    fn rotation_by_zero_is_identity(
        n in 1usize..6,
        q_raw in 0usize..6,
        angles in vec(-3.0f64..3.0, 1usize..6),
    ) {
        let q = q_raw % n;
        let mut psi = scrambled_state(n, &angles);
        let before = psi.clone();
        gates::rx(&mut psi, q, 0.0);
        gates::ry(&mut psi, q, 0.0);
        gates::rz(&mut psi, q, 0.0);
        prop_assert!((psi.fidelity(&before) - 1.0).abs() < 1e-10);
    }

    fn rx_angles_compose(
        n in 1usize..5,
        q_raw in 0usize..5,
        a in -3.0f64..3.0,
        b in -3.0f64..3.0,
    ) {
        let q = q_raw % n;
        let mut lhs = StateVector::uniform_superposition(n);
        let mut rhs = lhs.clone();
        gates::rx(&mut lhs, q, a);
        gates::rx(&mut lhs, q, b);
        gates::rx(&mut rhs, q, a + b);
        prop_assert!((lhs.fidelity(&rhs) - 1.0).abs() < 1e-10);
    }

    fn probabilities_sum_to_one(
        n in 1usize..7,
        angles in vec(-6.3f64..6.3, 1usize..12),
    ) {
        let psi = scrambled_state(n, &angles);
        let total: f64 = psi.probabilities().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-10);
    }

    fn diagonal_phase_preserves_expectation(
        n in 1usize..6,
        theta in -6.3f64..6.3,
        angles in vec(-3.0f64..3.0, 1usize..8),
    ) {
        // e^{-iθD} commutes with D, so ⟨D⟩ is invariant.
        let op = DiagonalOperator::from_fn(n, |z| z.count_ones() as f64);
        let mut psi = scrambled_state(n, &angles);
        let before = op.expectation(&psi);
        op.apply_phase(&mut psi, theta);
        prop_assert!((op.expectation(&psi) - before).abs() < 1e-9);
    }

    fn expectation_within_operator_bounds(
        n in 1usize..6,
        angles in vec(-3.0f64..3.0, 1usize..8),
    ) {
        let op = DiagonalOperator::from_fn(n, |z| (z as f64).sin() * 3.0);
        let psi = scrambled_state(n, &angles);
        let e = op.expectation(&psi);
        prop_assert!(e >= op.min_value() - 1e-9);
        prop_assert!(e <= op.max_value() + 1e-9);
    }

    fn inner_product_is_conjugate_symmetric(
        n in 1usize..5,
        a1 in vec(-3.0f64..3.0, 1usize..6),
        a2 in vec(-3.0f64..3.0, 1usize..6),
    ) {
        let x = scrambled_state(n, &a1);
        let y = scrambled_state(n, &a2);
        let xy = x.inner_product(&y);
        let yx = y.inner_product(&x);
        prop_assert!((xy - yx.conj()).norm() < 1e-10);
    }

    fn cauchy_schwarz_fidelity(
        n in 1usize..5,
        a1 in vec(-3.0f64..3.0, 1usize..6),
        a2 in vec(-3.0f64..3.0, 1usize..6),
    ) {
        let x = scrambled_state(n, &a1);
        let y = scrambled_state(n, &a2);
        let f = x.fidelity(&y);
        prop_assert!((-1e-10..=1.0 + 1e-10).contains(&f));
    }

    /// Split re/im storage round-trips exactly through the interleaved
    /// view: every amplitude survives gather + rebuild bit-for-bit.
    fn split_interleaved_round_trip_is_exact(
        n in 1usize..9,
        angles in vec(-3.0f64..3.0, 1usize..10),
    ) {
        let psi = scrambled_state(n, &angles);
        let rebuilt = StateVector::from_amplitudes(psi.to_amplitudes());
        prop_assert_eq!(&rebuilt, &psi);
        for i in 0..psi.dim() {
            let a = psi.amplitude(i);
            prop_assert_eq!(a, Complex::new(psi.re()[i], psi.im()[i]));
            prop_assert_eq!(a.re.to_bits(), rebuilt.re()[i].to_bits());
            prop_assert_eq!(a.im.to_bits(), rebuilt.im()[i].to_bits());
        }
    }

    /// Random fused phase-plus-mixer sweeps are unitary: norm stays 1.
    fn norm_preserved_under_random_fused_sweeps(
        n in 2usize..9,
        angles in vec(-3.0f64..3.0, 1usize..6),
        layers in vec(-2.0f64..2.0, 2usize..8),
    ) {
        let op = DiagonalOperator::from_fn(n, |z| z.count_ones() as f64 + 0.1 * z as f64);
        let mut psi = scrambled_state(n, &angles);
        for pair in layers.chunks(2) {
            let gamma = pair[0];
            let theta = *pair.get(1).unwrap_or(&0.7);
            let phases = PhaseTable::new(op.levels(), gamma);
            fused::phase_rx_all(&mut psi, op.level_of(), &phases, theta);
        }
        prop_assert!((psi.norm() - 1.0).abs() < 1e-10);
    }

    fn complex_field_axioms(
        ar in -10.0f64..10.0, ai in -10.0f64..10.0,
        br in -10.0f64..10.0, bi in -10.0f64..10.0,
        cr in -10.0f64..10.0, ci in -10.0f64..10.0,
    ) {
        let a = Complex::new(ar, ai);
        let b = Complex::new(br, bi);
        let c = Complex::new(cr, ci);
        prop_assert!(((a * b) * c - a * (b * c)).norm() < 1e-9);
        prop_assert!((a * (b + c) - (a * b + a * c)).norm() < 1e-9);
        prop_assert!(((a * b).conj() - a.conj() * b.conj()).norm() < 1e-9);
        prop_assert!(((a * b).norm() - a.norm() * b.norm()).abs() < 1e-9);
    }
}
