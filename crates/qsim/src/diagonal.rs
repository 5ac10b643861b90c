//! Diagonal observables and diagonal evolution.
//!
//! The Max-Cut cost Hamiltonian `C = Σ_{(u,v)∈E} w_uv (1 - Z_u Z_v)/2` is
//! diagonal in the computational basis, so QAOA's phase-separation layer
//! `e^{-iγC}` reduces to per-amplitude phase multiplication against a
//! precomputed table of cost values. [`DiagonalOperator`] stores that table
//! once per problem instance and amortizes it across all optimizer
//! iterations — the same trick fast QAOA simulators use.
//!
//! It also stores the table's *levels*: its distinct values, keyed by
//! their bits, plus one level index per basis state. A Max-Cut diagonal
//! takes at most `m + 1` distinct values on an unweighted graph, so the
//! fused layer ([`crate::fused::phase_rx_all`]) evaluates `cos`/`sin` once
//! per level instead of once per amplitude.

use crate::{Complex, StateVector};

/// A real diagonal operator on `n` qubits, stored as one value per basis
/// state.
///
/// # Example
///
/// ```
/// use qsim::diagonal::DiagonalOperator;
/// use qsim::StateVector;
///
/// // A one-qubit "number" operator: value 0 on |0⟩, 1 on |1⟩.
/// let op = DiagonalOperator::new(vec![0.0, 1.0]);
/// let psi = StateVector::uniform_superposition(1);
/// assert!((op.expectation(&psi) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiagonalOperator {
    values: Vec<f64>,
    /// The distinct values of `values` by bit pattern, in order of first
    /// occurrence.
    levels: Vec<f64>,
    /// `levels[level_of[z]]` has the bits of `values[z]`.
    level_of: Vec<u32>,
    num_qubits: usize,
}

impl DiagonalOperator {
    /// Creates a diagonal operator from per-basis-state values.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two `>= 2`.
    pub fn new(values: Vec<f64>) -> Self {
        let dim = values.len();
        assert!(
            dim >= 2 && dim.is_power_of_two(),
            "diagonal length must be a power of two >= 2, got {dim}"
        );
        let (levels, level_of) = dedupe_levels(&values);
        DiagonalOperator {
            num_qubits: dim.trailing_zeros() as usize,
            values,
            levels,
            level_of,
        }
    }

    /// Builds the operator by evaluating `f` on every basis state.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is 0 or exceeds [`crate::MAX_QUBITS`].
    pub fn from_fn<F: FnMut(u64) -> f64>(num_qubits: usize, mut f: F) -> Self {
        assert!(
            (1..=crate::MAX_QUBITS).contains(&num_qubits),
            "num_qubits must be in 1..={}, got {num_qubits}",
            crate::MAX_QUBITS
        );
        let dim = 1usize << num_qubits;
        DiagonalOperator::new((0..dim as u64).map(&mut f).collect())
    }

    /// Number of qubits the operator acts on.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The per-basis-state values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The distinct values by bit pattern (`-0.0` and `+0.0` are two
    /// levels), in order of first occurrence.
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// The level index of every basis state: `levels()[level_of()[z]]`
    /// has the bits of `values()[z]`.
    pub fn level_of(&self) -> &[u32] {
        &self.level_of
    }

    /// Largest diagonal value (the classical optimum for a cost function).
    pub fn max_value(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest diagonal value.
    pub fn min_value(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Basis state achieving [`Self::max_value`] (lowest index on ties).
    pub fn argmax(&self) -> u64 {
        let mut best = 0usize;
        for (i, &v) in self.values.iter().enumerate() {
            if v > self.values[best] {
                best = i;
            }
        }
        best as u64
    }

    /// Applies the evolution `e^{-iθ D}` to the state in place.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn apply_phase(&self, psi: &mut StateVector, theta: f64) {
        assert_eq!(
            psi.num_qubits(),
            self.num_qubits,
            "operator and state qubit counts must match"
        );
        let (re, im) = psi.re_im_mut();
        for i in 0..re.len() {
            let a = Complex::new(re[i], im[i]) * Complex::cis(-theta * self.values[i]);
            re[i] = a.re;
            im[i] = a.im;
        }
    }

    /// Expectation `⟨ψ|D|ψ⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn expectation(&self, psi: &StateVector) -> f64 {
        assert_eq!(
            psi.num_qubits(),
            self.num_qubits,
            "operator and state qubit counts must match"
        );
        psi.expectation_diagonal(&self.values)
    }

    /// Variance `⟨D²⟩ - ⟨D⟩²`.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn variance(&self, psi: &StateVector) -> f64 {
        let mean = self.expectation(psi);
        let sq: f64 = psi
            .re()
            .iter()
            .zip(psi.im())
            .zip(&self.values)
            .map(|((&re, &im), &v)| (re * re + im * im) * v * v)
            .sum();
        (sq - mean * mean).max(0.0)
    }
}

/// Dedupes `values` by bit pattern into `(levels, level_of)` with a small
/// open-addressed table of level indices (linear probing, load ≤ 1/2).
fn dedupe_levels(values: &[f64]) -> (Vec<f64>, Vec<u32>) {
    const EMPTY: u32 = u32::MAX;
    // The slot that holds `bits`, or the empty slot where it belongs. The
    // home slot is the top `log2(slots)` bits of a Fibonacci hash, which
    // depend on every key bit (integer weights differ only high up).
    let find = |slots: &[u32], levels: &[f64], bits: u64| {
        let mask = slots.len() - 1;
        let shift = 64 - slots.len().trailing_zeros();
        let mut slot = (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        while slots[slot] != EMPTY && levels[slots[slot] as usize].to_bits() != bits {
            slot = (slot + 1) & mask;
        }
        slot
    };
    let mut levels: Vec<f64> = Vec::new();
    let mut slots = vec![EMPTY; 64];
    let level_of = values
        .iter()
        .map(|v| {
            let slot = find(&slots, &levels, v.to_bits());
            if slots[slot] != EMPTY {
                return slots[slot];
            }
            let level = levels.len() as u32;
            slots[slot] = level;
            levels.push(*v);
            if 2 * levels.len() > slots.len() {
                slots = vec![EMPTY; 2 * slots.len()];
                for (i, l) in levels.iter().enumerate() {
                    let slot = find(&slots, &levels, l.to_bits());
                    slots[slot] = i as u32;
                }
            }
            level
        })
        .collect();
    (levels, level_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::PhaseTable;
    use crate::gates;

    #[test]
    fn from_fn_builds_expected_table() {
        // Hamming-weight operator on 3 qubits.
        let op = DiagonalOperator::from_fn(3, |z| z.count_ones() as f64);
        assert_eq!(op.num_qubits(), 3);
        assert_eq!(op.values()[0b101], 2.0);
        assert_eq!(op.max_value(), 3.0);
        assert_eq!(op.min_value(), 0.0);
        assert_eq!(op.argmax(), 0b111);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_length() {
        let _ = DiagonalOperator::new(vec![1.0; 6]);
    }

    #[test]
    fn expectation_on_basis_state_reads_table() {
        let op = DiagonalOperator::from_fn(2, |z| (z * z) as f64);
        let psi = StateVector::basis_state(2, 3);
        assert_eq!(op.expectation(&psi), 9.0);
        assert_eq!(op.variance(&psi), 0.0);
    }

    #[test]
    fn phase_preserves_probabilities() {
        let op = DiagonalOperator::from_fn(3, |z| z as f64);
        let mut psi = StateVector::uniform_superposition(3);
        let before = psi.probabilities();
        op.apply_phase(&mut psi, 0.37);
        let after = psi.probabilities();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-14);
        }
        assert!((psi.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phase_matches_rz_for_z_observable() {
        // D = Z_0 has values (+1, -1) depending on bit 0 (|0⟩ ↔ z=+1).
        // e^{-iθD} must equal RZ(2θ) on qubit 0.
        let op = DiagonalOperator::from_fn(1, |z| if z & 1 == 0 { 1.0 } else { -1.0 });
        let theta = 0.731;
        let mut a = StateVector::uniform_superposition(1);
        let mut b = a.clone();
        op.apply_phase(&mut a, theta);
        gates::rz(&mut b, 0, 2.0 * theta);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phase_composes_additively() {
        let op = DiagonalOperator::from_fn(2, |z| z as f64 * 0.5);
        let mut a = StateVector::uniform_superposition(2);
        let mut b = a.clone();
        op.apply_phase(&mut a, 0.2);
        op.apply_phase(&mut a, 0.3);
        op.apply_phase(&mut b, 0.5);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phase_commutes_with_other_diagonal_gates() {
        let op = DiagonalOperator::from_fn(2, |z| z.count_ones() as f64);
        let mut a = StateVector::uniform_superposition(2);
        gates::rx(&mut a, 0, 0.4); // create richer amplitudes
        let mut b = a.clone();
        op.apply_phase(&mut a, 0.9);
        gates::rzz(&mut a, 0, 1, 0.33);
        gates::rzz(&mut b, 0, 1, 0.33);
        op.apply_phase(&mut b, 0.9);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fused_layer_matches_phase_then_mixer() {
        let op = DiagonalOperator::from_fn(4, |z| z.count_ones() as f64);
        let mut fused = StateVector::uniform_superposition(4);
        gates::ry(&mut fused, 1, 0.6); // asymmetrize
        let mut unfused = fused.clone();
        let phases = PhaseTable::new(op.levels(), 0.53);
        crate::fused::phase_rx_all(&mut fused, op.level_of(), &phases, 0.71);
        op.apply_phase(&mut unfused, 0.53);
        gates::rx_all(&mut unfused, 0.71);
        assert!((fused.fidelity(&unfused) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "diagonal length must equal 2^n")]
    fn fused_layer_rejects_mismatched_state() {
        let op = DiagonalOperator::from_fn(2, |z| z as f64);
        let mut psi = StateVector::uniform_superposition(3);
        let phases = PhaseTable::new(op.levels(), 0.1);
        crate::fused::phase_rx_all(&mut psi, op.level_of(), &phases, 0.2);
    }

    /// The literal gate decomposition of a p = 1 Max-Cut QAOA circuit: a
    /// Hadamard wall, one `RZZ(−γw)` per edge, then the `RX(2β)` wall. The
    /// edge phase `e^{-iγ w (1 - Z⊗Z)/2}` equals `RZZ(−γ w)` up to a global
    /// phase, so it must match the diagonal fast path on cut values.
    #[test]
    fn qaoa_decomposition_matches_fast_path() {
        let edges = [
            (0usize, 1usize, 1.0f64),
            (1, 2, 1.0),
            (0, 2, 1.0),
            (2, 3, 1.0),
        ];
        let (gamma, beta) = (0.63, 0.27);
        let mut explicit = StateVector::zero_state(4);
        for q in 0..4 {
            gates::h(&mut explicit, q);
        }
        for &(u, v, w) in &edges {
            gates::rzz(&mut explicit, u, v, -gamma * w);
        }
        gates::rx_all(&mut explicit, 2.0 * beta);

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
    fn variance_of_uniform_state() {
        // Single qubit, D = diag(0, 1): mean 1/2, variance 1/4.
        let op = DiagonalOperator::new(vec![0.0, 1.0]);
        let psi = StateVector::uniform_superposition(1);
        assert!((op.variance(&psi) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "qubit counts must match")]
    fn mismatched_qubits_rejected() {
        let op = DiagonalOperator::from_fn(2, |z| z as f64);
        let psi = StateVector::uniform_superposition(3);
        let _ = op.expectation(&psi);
    }
}
