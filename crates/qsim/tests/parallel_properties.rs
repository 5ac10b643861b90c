//! Property-based tests for the pooled execution path and the split
//! re/im (struct-of-arrays) state layout.

use qcheck::{prop_assert, prop_assert_eq, properties, vec};

use qsim::diagonal::DiagonalOperator;
use qsim::exec::Executor;
use qsim::fused::{self, PhaseTable};
use qsim::{gates, Complex, StateVector};

/// Builds a pseudo-random (but deterministic) non-trivial state by applying
/// a short layer of parameterized gates to the uniform superposition.
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

fn diagonal_for(n: usize, scale: f64) -> DiagonalOperator {
    DiagonalOperator::from_fn(n, |z| z.count_ones() as f64 + scale * z as f64)
}

properties! {
    /// 1, 2, 4, and 8 pooled workers produce bit-identical expectations:
    /// the pool width never enters the arithmetic (elementwise sweep
    /// chunking + fixed-size reduction chunks folded in index order).
    fn thread_count_invariance(
        n in 2usize..10,
        angles in vec(-3.0f64..3.0, 1usize..8),
        gamma in -2.0f64..2.0,
        beta in -1.5f64..1.5,
        scale in 0.01f64..0.2,
    ) {
        let op = diagonal_for(n, scale);
        let source = scrambled_state(n, &angles);
        let mut bits = Vec::new();
        let mut phases = PhaseTable::default();
        for threads in [1usize, 2, 4, 8] {
            let exec = Executor::threaded_with_crossover(threads, 1);
            let mut psi = source.clone();
            op.apply_phase_rx_all_exec(&mut psi, gamma, 2.0 * beta, &exec, &mut phases);
            bits.push(op.expectation_exec(&psi, &exec).to_bits());
        }
        prop_assert_eq!(bits[0], bits[1]);
        prop_assert_eq!(bits[0], bits[2]);
        prop_assert_eq!(bits[0], bits[3]);
    }

    /// Pooled sweeps (any width) are bit-identical to the serial sweep —
    /// chunk boundaries never change per-element arithmetic.
    fn pooled_sweeps_bit_identical_to_serial(
        n in 2usize..9,
        angles in vec(-3.0f64..3.0, 1usize..8),
        gamma in -2.0f64..2.0,
        theta in -3.0f64..3.0,
        threads in 1usize..9,
    ) {
        let op = diagonal_for(n, 0.05);
        let mut serial = scrambled_state(n, &angles);
        let mut pooled = serial.clone();
        let phases = PhaseTable::new(op.levels(), gamma);
        fused::phase_rx_all(&mut serial, op.level_of(), &phases, theta);
        let exec = Executor::threaded_with_crossover(threads, 1);
        fused::phase_rx_all_exec(&mut pooled, op.level_of(), &phases, theta, &exec);
        prop_assert_eq!(&pooled, &serial);
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

    /// Random fused sweeps are unitary on the pooled path: norm stays 1.
    fn norm_preserved_under_random_pooled_fused_sweeps(
        n in 2usize..9,
        angles in vec(-3.0f64..3.0, 1usize..6),
        layers in vec(-2.0f64..2.0, 2usize..8),
        threads in 1usize..6,
    ) {
        let op = diagonal_for(n, 0.1);
        let exec = Executor::threaded_with_crossover(threads, 1);
        let mut psi = scrambled_state(n, &angles);
        for pair in layers.chunks(2) {
            let gamma = pair[0];
            let theta = *pair.get(1).unwrap_or(&0.7);
            let phases = PhaseTable::new(op.levels(), gamma);
            fused::phase_rx_all_exec(&mut psi, op.level_of(), &phases, theta, &exec);
        }
        prop_assert!((psi.norm() - 1.0).abs() < 1e-10);
    }

    /// The pooled expectation reduction agrees with the serial fold to
    /// 1e-12 (the only place pooled and serial may differ at all).
    fn pooled_reduction_close_to_serial(
        n in 2usize..10,
        angles in vec(-3.0f64..3.0, 1usize..8),
        threads in 1usize..9,
        scale in 0.01f64..0.3,
    ) {
        let op = diagonal_for(n, scale);
        let psi = scrambled_state(n, &angles);
        let serial = op.expectation(&psi);
        let exec = Executor::threaded_with_crossover(threads, 1);
        let pooled = op.expectation_exec(&psi, &exec);
        prop_assert!((pooled - serial).abs() <= 1e-12);
    }
}
