//! Gate kernels.
//!
//! All gates mutate a [`StateVector`] in place. Rotation conventions follow
//! the standard exponential form: `RX(θ) = e^{-iθX/2}`, `RZ(θ) = e^{-iθZ/2}`,
//! `RZZ(θ) = e^{-iθ Z⊗Z / 2}`. QAOA's mixer layer `e^{-iβ Σ X_j}` is then
//! [`rx_all`] with angle `2β`, and the Max-Cut phase separator on an edge is
//! an [`rzz`] (or, faster, the whole-cost diagonal in [`crate::diagonal`]).

use crate::{Complex, StateVector};

/// Applies an arbitrary single-qubit unitary `[[a, b], [c, d]]` to `qubit`.
///
/// # Panics
///
/// Panics if `qubit >= psi.num_qubits()`.
pub fn single_qubit(psi: &mut StateVector, qubit: usize, matrix: [[Complex; 2]; 2]) {
    let n = psi.num_qubits();
    assert!(qubit < n, "qubit {qubit} out of range for {n} qubits");
    let stride = 1usize << qubit;
    let dim = psi.dim();
    let (re, im) = psi.re_im_mut();
    let mut base = 0;
    while base < dim {
        for offset in 0..stride {
            let i0 = base + offset;
            let i1 = i0 + stride;
            let a0 = Complex::new(re[i0], im[i0]);
            let a1 = Complex::new(re[i1], im[i1]);
            let y0 = matrix[0][0] * a0 + matrix[0][1] * a1;
            let y1 = matrix[1][0] * a0 + matrix[1][1] * a1;
            re[i0] = y0.re;
            im[i0] = y0.im;
            re[i1] = y1.re;
            im[i1] = y1.im;
        }
        base += 2 * stride;
    }
}

/// Hadamard gate.
///
/// # Panics
///
/// Panics if `qubit` is out of range.
pub fn h(psi: &mut StateVector, qubit: usize) {
    let s = Complex::from(std::f64::consts::FRAC_1_SQRT_2);
    single_qubit(psi, qubit, [[s, s], [s, -s]]);
}

/// Pauli-X gate.
///
/// # Panics
///
/// Panics if `qubit` is out of range.
pub fn x(psi: &mut StateVector, qubit: usize) {
    single_qubit(
        psi,
        qubit,
        [[Complex::ZERO, Complex::ONE], [Complex::ONE, Complex::ZERO]],
    );
}

/// Pauli-Z gate.
///
/// # Panics
///
/// Panics if `qubit` is out of range.
pub fn z(psi: &mut StateVector, qubit: usize) {
    single_qubit(
        psi,
        qubit,
        [
            [Complex::ONE, Complex::ZERO],
            [Complex::ZERO, -Complex::ONE],
        ],
    );
}

/// `RX(θ) = e^{-iθX/2}` rotation.
///
/// # Panics
///
/// Panics if `qubit` is out of range.
pub fn rx(psi: &mut StateVector, qubit: usize, theta: f64) {
    let c = Complex::from((theta / 2.0).cos());
    let s = Complex::new(0.0, -(theta / 2.0).sin());
    single_qubit(psi, qubit, [[c, s], [s, c]]);
}

/// `RY(θ) = e^{-iθY/2}` rotation.
///
/// # Panics
///
/// Panics if `qubit` is out of range.
pub fn ry(psi: &mut StateVector, qubit: usize, theta: f64) {
    let c = Complex::from((theta / 2.0).cos());
    let s = Complex::from((theta / 2.0).sin());
    single_qubit(psi, qubit, [[c, -s], [s, c]]);
}

/// `RZ(θ) = e^{-iθZ/2}` rotation (diagonal, phase-only).
///
/// # Panics
///
/// Panics if `qubit` is out of range.
pub fn rz(psi: &mut StateVector, qubit: usize, theta: f64) {
    let n = psi.num_qubits();
    assert!(qubit < n, "qubit {qubit} out of range for {n} qubits");
    let phase0 = Complex::cis(-theta / 2.0);
    let phase1 = Complex::cis(theta / 2.0);
    let dim = psi.dim();
    let (re, im) = psi.re_im_mut();
    for i in 0..dim {
        let a = Complex::new(re[i], im[i])
            * if (i >> qubit) & 1 == 0 {
                phase0
            } else {
                phase1
            };
        re[i] = a.re;
        im[i] = a.im;
    }
}

/// Controlled-NOT with the given control and target.
///
/// # Panics
///
/// Panics if either qubit is out of range or they coincide.
pub fn cnot(psi: &mut StateVector, control: usize, target: usize) {
    let n = psi.num_qubits();
    assert!(
        control < n && target < n,
        "qubit out of range for {n} qubits"
    );
    assert_ne!(control, target, "control and target must differ");
    let dim = psi.dim();
    let (re, im) = psi.re_im_mut();
    for i in 0..dim {
        // Swap each |control=1, target=0⟩ amplitude with its target-flipped
        // partner exactly once.
        if (i >> control) & 1 == 1 && (i >> target) & 1 == 0 {
            let j = i | (1 << target);
            re.swap(i, j);
            im.swap(i, j);
        }
    }
}

/// `RZZ(θ) = e^{-iθ Z⊗Z / 2}` two-qubit interaction (diagonal).
///
/// # Panics
///
/// Panics if either qubit is out of range or they coincide.
pub fn rzz(psi: &mut StateVector, qubit_a: usize, qubit_b: usize, theta: f64) {
    let n = psi.num_qubits();
    assert!(
        qubit_a < n && qubit_b < n,
        "qubit out of range for {n} qubits"
    );
    assert_ne!(qubit_a, qubit_b, "rzz qubits must differ");
    let same = Complex::cis(-theta / 2.0);
    let diff = Complex::cis(theta / 2.0);
    let dim = psi.dim();
    let (re, im) = psi.re_im_mut();
    for i in 0..dim {
        let za = (i >> qubit_a) & 1;
        let zb = (i >> qubit_b) & 1;
        let a = Complex::new(re[i], im[i]) * if za == zb { same } else { diff };
        re[i] = a.re;
        im[i] = a.im;
    }
}

/// Applies [`h`] to every qubit — turns `|0...0⟩` into `|+⟩^⊗n`.
pub fn h_all(psi: &mut StateVector) {
    for q in 0..psi.num_qubits() {
        h(psi, q);
    }
}

/// Applies [`rx`] with the same angle to every qubit — the QAOA mixer layer
/// `e^{-iβ Σ X_j}` when called with `theta = 2β`.
pub fn rx_all(psi: &mut StateVector, theta: f64) {
    for q in 0..psi.num_qubits() {
        rx(psi, q, theta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).norm() < 1e-12
    }

    #[test]
    fn h_creates_plus_state() {
        let mut psi = StateVector::zero_state(1);
        h(&mut psi, 0);
        let s = 1.0 / 2f64.sqrt();
        assert!(close(psi.amplitude(0), Complex::from(s)));
        assert!(close(psi.amplitude(1), Complex::from(s)));
    }

    #[test]
    fn h_squared_is_identity() {
        let mut psi = StateVector::uniform_superposition(3);
        // Make it less symmetric first.
        rz(&mut psi, 1, 0.7);
        let before = psi.clone();
        h(&mut psi, 2);
        h(&mut psi, 2);
        assert!(before
            .to_amplitudes()
            .iter()
            .zip(psi.to_amplitudes())
            .all(|(a, b)| close(*a, b)));
    }

    #[test]
    fn h_all_matches_uniform_superposition() {
        let mut psi = StateVector::zero_state(4);
        h_all(&mut psi);
        let uniform = StateVector::uniform_superposition(4);
        assert!((psi.fidelity(&uniform) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn x_flips_basis_state() {
        let mut psi = StateVector::zero_state(2);
        x(&mut psi, 1);
        assert!(close(psi.amplitude(0b10), Complex::ONE));
    }

    #[test]
    fn z_phases_one_component() {
        let mut psi = StateVector::uniform_superposition(1);
        z(&mut psi, 0);
        assert!(close(psi.amplitude(0), Complex::from(1.0 / 2f64.sqrt())));
        assert!(close(psi.amplitude(1), Complex::from(-1.0 / 2f64.sqrt())));
    }

    #[test]
    fn rx_pi_is_x_up_to_phase() {
        let mut psi = StateVector::zero_state(1);
        rx(&mut psi, 0, PI);
        // RX(π)|0⟩ = -i|1⟩.
        assert!(close(psi.amplitude(1), Complex::new(0.0, -1.0)));
        assert!(close(psi.amplitude(0), Complex::ZERO));
    }

    #[test]
    fn ry_pi_half_rotates_to_plus() {
        let mut psi = StateVector::zero_state(1);
        ry(&mut psi, 0, PI / 2.0);
        let s = 1.0 / 2f64.sqrt();
        assert!(close(psi.amplitude(0), Complex::from(s)));
        assert!(close(psi.amplitude(1), Complex::from(s)));
    }

    #[test]
    fn rz_is_diagonal_phase() {
        let mut psi = StateVector::uniform_superposition(1);
        rz(&mut psi, 0, PI);
        // e^{-iπ/2}|0⟩ + e^{iπ/2}|1⟩ up to normalization: -i|0⟩ + i|1⟩ scaled.
        let s = 1.0 / 2f64.sqrt();
        assert!(close(psi.amplitude(0), Complex::new(0.0, -s)));
        assert!(close(psi.amplitude(1), Complex::new(0.0, s)));
    }

    #[test]
    fn cnot_entangles() {
        let mut psi = StateVector::zero_state(2);
        h(&mut psi, 0);
        cnot(&mut psi, 0, 1);
        let s = 1.0 / 2f64.sqrt();
        assert!(close(psi.amplitude(0b00), Complex::from(s)));
        assert!(close(psi.amplitude(0b11), Complex::from(s)));
        assert!(close(psi.amplitude(0b01), Complex::ZERO));
        assert!(close(psi.amplitude(0b10), Complex::ZERO));
    }

    #[test]
    fn cnot_involution() {
        let mut psi = StateVector::uniform_superposition(3);
        rz(&mut psi, 0, 0.3);
        let before = psi.clone();
        cnot(&mut psi, 0, 2);
        cnot(&mut psi, 0, 2);
        assert!((psi.fidelity(&before) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rzz_equals_cnot_rz_cnot() {
        // Standard decomposition: RZZ(θ) on (a,b) = CNOT(a,b) RZ_b(θ) CNOT(a,b).
        let theta = 0.917;
        let mut direct = StateVector::uniform_superposition(2);
        rz(&mut direct, 0, 0.2); // asymmetrize
        let mut decomposed = direct.clone();
        rzz(&mut direct, 0, 1, theta);
        cnot(&mut decomposed, 0, 1);
        rz(&mut decomposed, 1, theta);
        cnot(&mut decomposed, 0, 1);
        assert!((direct.fidelity(&decomposed) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gates_preserve_norm() {
        let mut psi = StateVector::uniform_superposition(4);
        h(&mut psi, 0);
        x(&mut psi, 1);
        z(&mut psi, 2);
        rx(&mut psi, 3, 1.1);
        ry(&mut psi, 0, 0.4);
        rz(&mut psi, 1, 2.2);
        cnot(&mut psi, 0, 3);
        rzz(&mut psi, 1, 2, 0.9);
        assert!((psi.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rotations_compose_additively() {
        let mut a = StateVector::uniform_superposition(2);
        let mut b = a.clone();
        rx(&mut a, 0, 0.3);
        rx(&mut a, 0, 0.5);
        rx(&mut b, 0, 0.8);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gate_rejects_bad_qubit() {
        let mut psi = StateVector::zero_state(2);
        h(&mut psi, 2);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn cnot_rejects_same_qubit() {
        let mut psi = StateVector::zero_state(2);
        cnot(&mut psi, 1, 1);
    }
}
