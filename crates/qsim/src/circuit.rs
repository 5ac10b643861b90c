//! Explicit gate circuits.
//!
//! QAOA's inner loop uses the diagonal fast path, but a real deployment
//! compiles to gates; [`Circuit`] is that explicit view, with resource
//! accounting (gate counts, two-qubit counts, depth) and an exact
//! [`Circuit::maxcut_qaoa`] decomposition that the tests verify against the
//! fast path.

use crate::{gates, StateVector};

/// A gate in a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Gate {
    /// Hadamard on one qubit.
    H(usize),
    /// Pauli-X on one qubit.
    X(usize),
    /// Pauli-Z on one qubit.
    Z(usize),
    /// `RX(θ)` rotation.
    Rx(usize, f64),
    /// `RY(θ)` rotation.
    Ry(usize, f64),
    /// `RZ(θ)` rotation.
    Rz(usize, f64),
    /// Controlled-NOT (control, target).
    Cnot(usize, usize),
    /// `RZZ(θ)` interaction (qubit_a, qubit_b, θ).
    Rzz(usize, usize, f64),
}

impl Gate {
    /// Qubits the gate touches (1 or 2).
    pub fn qubits(&self) -> Vec<usize> {
        match *self {
            Gate::H(q) | Gate::X(q) | Gate::Z(q) => vec![q],
            Gate::Rx(q, _) | Gate::Ry(q, _) | Gate::Rz(q, _) => vec![q],
            Gate::Cnot(a, b) | Gate::Rzz(a, b, _) => vec![a, b],
        }
    }

    /// The inverse gate (all supported gates are invertible).
    pub fn inverse(&self) -> Gate {
        match *self {
            Gate::H(q) => Gate::H(q),
            Gate::X(q) => Gate::X(q),
            Gate::Z(q) => Gate::Z(q),
            Gate::Rx(q, t) => Gate::Rx(q, -t),
            Gate::Ry(q, t) => Gate::Ry(q, -t),
            Gate::Rz(q, t) => Gate::Rz(q, -t),
            Gate::Cnot(a, b) => Gate::Cnot(a, b),
            Gate::Rzz(a, b, t) => Gate::Rzz(a, b, -t),
        }
    }

    fn apply(&self, psi: &mut StateVector) {
        match *self {
            Gate::H(q) => gates::h(psi, q),
            Gate::X(q) => gates::x(psi, q),
            Gate::Z(q) => gates::z(psi, q),
            Gate::Rx(q, t) => gates::rx(psi, q, t),
            Gate::Ry(q, t) => gates::ry(psi, q, t),
            Gate::Rz(q, t) => gates::rz(psi, q, t),
            Gate::Cnot(a, b) => gates::cnot(psi, a, b),
            Gate::Rzz(a, b, t) => gates::rzz(psi, a, b, t),
        }
    }
}

/// An ordered gate sequence on a fixed register — the explicit-circuit view
/// of what QAOA's fast path applies implicitly.
///
/// Useful for resource accounting (the "quantum computational resource
/// overhead" the paper's abstract talks about), for cross-checking the
/// diagonal fast path against a literal gate decomposition, and for
/// exporting circuits to other tools.
///
/// # Example
///
/// ```
/// use qsim::circuit::{Circuit, Gate};
///
/// let mut bell = Circuit::new(2);
/// bell.push(Gate::H(0));
/// bell.push(Gate::Cnot(0, 1));
/// let psi = bell.simulate();
/// assert!((psi.probability(0b00) - 0.5).abs() < 1e-12);
/// assert_eq!(bell.two_qubit_gate_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    num_qubits: usize,
    ops: Vec<Gate>,
}

impl Circuit {
    /// An empty circuit on `num_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is 0 or exceeds [`crate::MAX_QUBITS`].
    pub fn new(num_qubits: usize) -> Self {
        assert!(
            (1..=crate::MAX_QUBITS).contains(&num_qubits),
            "num_qubits must be in 1..={}",
            crate::MAX_QUBITS
        );
        Circuit {
            num_qubits,
            ops: Vec::new(),
        }
    }

    /// Number of qubits in the register.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The gate sequence.
    pub fn ops(&self) -> &[Gate] {
        &self.ops
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate references a qubit `>= num_qubits` or a two-qubit
    /// gate with identical qubits.
    pub fn push(&mut self, gate: Gate) {
        let qubits = gate.qubits();
        for &q in &qubits {
            assert!(q < self.num_qubits, "qubit {q} out of range");
        }
        if qubits.len() == 2 {
            assert_ne!(qubits[0], qubits[1], "two-qubit gate needs distinct qubits");
        }
        self.ops.push(gate);
    }

    /// Appends every gate of `other` (register sizes must match).
    ///
    /// # Panics
    ///
    /// Panics if the register sizes differ.
    pub fn extend(&mut self, other: &Circuit) {
        assert_eq!(self.num_qubits, other.num_qubits, "register sizes differ");
        self.ops.extend_from_slice(&other.ops);
    }

    /// Total gate count.
    pub fn gate_count(&self) -> usize {
        self.ops.len()
    }

    /// Number of two-qubit gates — the dominant NISQ cost metric.
    pub fn two_qubit_gate_count(&self) -> usize {
        self.ops.iter().filter(|g| g.qubits().len() == 2).count()
    }

    /// Circuit depth: the length of the longest qubit-wise dependency chain
    /// under greedy layering (gates pack into the earliest layer whose
    /// qubits are free).
    pub fn depth(&self) -> usize {
        let mut busy_until = vec![0usize; self.num_qubits];
        let mut depth = 0;
        for gate in &self.ops {
            let layer = gate
                .qubits()
                .iter()
                .map(|&q| busy_until[q])
                .max()
                .unwrap_or(0)
                + 1;
            for q in gate.qubits() {
                busy_until[q] = layer;
            }
            depth = depth.max(layer);
        }
        depth
    }

    /// The inverse circuit (gates reversed and individually inverted).
    pub fn inverse(&self) -> Circuit {
        Circuit {
            num_qubits: self.num_qubits,
            ops: self.ops.iter().rev().map(Gate::inverse).collect(),
        }
    }

    /// Applies the circuit to an existing state.
    ///
    /// # Panics
    ///
    /// Panics if the state has a different qubit count.
    pub fn apply(&self, psi: &mut StateVector) {
        assert_eq!(
            psi.num_qubits(),
            self.num_qubits,
            "state and circuit register sizes differ"
        );
        for gate in &self.ops {
            gate.apply(psi);
        }
    }

    /// Runs the circuit on `|0...0⟩` and returns the final state.
    pub fn simulate(&self) -> StateVector {
        let mut psi = StateVector::zero_state(self.num_qubits);
        self.apply(&mut psi);
        psi
    }

    /// Builds the explicit gate decomposition of a p-layer Max-Cut QAOA
    /// circuit: a Hadamard wall, then per layer one `RZZ(−γw)` per edge and
    /// one `RX(2β)` per qubit. (The edge phase `e^{-iγ w (1 - Z⊗Z)/2}`
    /// equals `RZZ(−γ w)` up to a global phase, so this matches
    /// [`crate::diagonal::DiagonalOperator::apply_phase`] on cut values.)
    pub fn maxcut_qaoa(
        num_qubits: usize,
        edges: &[(usize, usize, f64)],
        gammas: &[f64],
        betas: &[f64],
    ) -> Circuit {
        assert_eq!(gammas.len(), betas.len(), "angle vectors must match");
        let mut circuit = Circuit::new(num_qubits);
        for q in 0..num_qubits {
            circuit.push(Gate::H(q));
        }
        for (&gamma, &beta) in gammas.iter().zip(betas) {
            for &(u, v, w) in edges {
                circuit.push(Gate::Rzz(u, v, -gamma * w));
            }
            for q in 0..num_qubits {
                circuit.push(Gate::Rx(q, 2.0 * beta));
            }
        }
        circuit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bell_circuit() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Cnot(0, 1));
        let psi = c.simulate();
        assert!((psi.probability(0b00) - 0.5).abs() < 1e-12);
        assert!((psi.probability(0b11) - 0.5).abs() < 1e-12);
        assert_eq!(c.gate_count(), 2);
        assert_eq!(c.two_qubit_gate_count(), 1);
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn inverse_undoes_circuit() {
        let mut c = Circuit::new(3);
        c.push(Gate::H(0));
        c.push(Gate::Rx(1, 0.7));
        c.push(Gate::Cnot(0, 2));
        c.push(Gate::Rzz(1, 2, 1.1));
        c.push(Gate::Ry(2, -0.4));
        c.push(Gate::Rz(0, 2.2));
        let mut full = c.clone();
        full.extend(&c.inverse());
        let psi = full.simulate();
        assert!((psi.probability(0) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn depth_packs_parallel_gates() {
        let mut c = Circuit::new(4);
        c.push(Gate::H(0));
        c.push(Gate::H(1));
        c.push(Gate::H(2));
        c.push(Gate::H(3));
        assert_eq!(c.depth(), 1, "disjoint gates share a layer");
        c.push(Gate::Cnot(0, 1));
        c.push(Gate::Cnot(2, 3));
        assert_eq!(c.depth(), 2);
        c.push(Gate::Cnot(1, 2));
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn qaoa_decomposition_matches_fast_path() {
        use crate::diagonal::DiagonalOperator;
        let edges = [
            (0usize, 1usize, 1.0f64),
            (1, 2, 1.0),
            (0, 2, 1.0),
            (2, 3, 1.0),
        ];
        let (gamma, beta) = (0.63, 0.27);
        let explicit = Circuit::maxcut_qaoa(4, &edges, &[gamma], &[beta]).simulate();

        // Fast path: diagonal cut-value phases + RX wall.
        let cut = |z: u64| {
            edges
                .iter()
                .filter(|&&(u, v, _)| (z >> u) & 1 != (z >> v) & 1)
                .map(|&(_, _, w)| w)
                .sum::<f64>()
        };
        let op = DiagonalOperator::from_fn(4, cut);
        let mut fast = StateVector::uniform_superposition(4);
        op.apply_phase(&mut fast, gamma);
        gates::rx_all(&mut fast, 2.0 * beta);

        assert!(
            (explicit.fidelity(&fast) - 1.0).abs() < 1e-10,
            "gate decomposition must agree with the diagonal fast path"
        );
    }

    #[test]
    fn qaoa_resource_counts() {
        let edges = [(0usize, 1usize, 1.0f64), (1, 2, 1.0)];
        let c = Circuit::maxcut_qaoa(3, &edges, &[0.1, 0.2], &[0.3, 0.4]);
        // 3 H + 2 layers × (2 RZZ + 3 RX).
        assert_eq!(c.gate_count(), 3 + 2 * (2 + 3));
        assert_eq!(c.two_qubit_gate_count(), 4);
        assert!(c.depth() >= 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_bad_qubit() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(2));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn push_rejects_degenerate_two_qubit_gate() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cnot(1, 1));
    }

    #[test]
    fn gate_helpers() {
        assert_eq!(Gate::Rzz(0, 2, 0.5).qubits(), vec![0, 2]);
        assert_eq!(Gate::Rx(1, 0.5).inverse(), Gate::Rx(1, -0.5));
        assert_eq!(Gate::H(0).inverse(), Gate::H(0));
    }
}
