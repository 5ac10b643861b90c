//! The zero-allocation QAOA execution engine.
//!
//! Every label in the paper's dataset costs hundreds of optimizer-driven
//! circuit simulations (§3.1: 500 iterations per graph, each iteration
//! evaluating the objective one or more times). The one-shot
//! [`QaoaCircuit::run`]/[`QaoaCircuit::expectation`] surface allocates a
//! fresh `2^n`-amplitude state vector per call; [`Evaluator`] owns that
//! buffer instead, so a full optimization trace performs **zero
//! state-vector allocations after setup** and every circuit run executes
//! on the fused kernels in [`qsim::fused`].

use qsim::fused::PhaseTable;
use qsim::StateVector;

use crate::{Params, QaoaCircuit};

/// A reusable QAOA executor: one problem instance, one owned scratch
/// state vector and one per-layer phase table, no per-call allocation.
///
/// Each layer fills the phase table with `e^{-iγ·v}` for the diagonal's
/// distinct values `v` (its levels) and then runs one fused
/// phase-plus-mixer kernel that gathers each amplitude's factor from it;
/// see [`qsim::fused`].
///
/// Construct one per (graph, optimization trace) and call
/// [`Evaluator::expectation_in_place`] (or [`Evaluator::expectation_flat`]
/// from optimizer closures) as many times as needed. Results are
/// bit-identical to the one-shot convenience calls on [`QaoaCircuit`],
/// which are themselves thin wrappers over a temporary `Evaluator`.
///
/// # Example
///
/// ```
/// use qaoa::{Evaluator, MaxCutHamiltonian, Params, QaoaCircuit};
/// use qgraph::Graph;
///
/// # fn main() -> Result<(), qgraph::GraphError> {
/// let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(&Graph::cycle(4)?));
/// let mut evaluator = Evaluator::new(&circuit);
/// // Many evaluations, one buffer:
/// let a = evaluator.expectation_in_place(&Params::zeros(1));
/// let b = evaluator.expectation_in_place(&Params::new(vec![0.6], vec![0.4]));
/// assert!((a - 2.0).abs() < 1e-12);
/// assert!(b.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator<'c> {
    circuit: &'c QaoaCircuit,
    psi: StateVector,
    phases: PhaseTable,
}

impl<'c> Evaluator<'c> {
    /// Creates an evaluator for `circuit`, allocating its scratch state
    /// vector once.
    pub fn new(circuit: &'c QaoaCircuit) -> Self {
        Evaluator {
            psi: StateVector::uniform_superposition(circuit.num_qubits()),
            phases: PhaseTable::default(),
            circuit,
        }
    }

    /// The circuit this evaluator runs.
    pub fn circuit(&self) -> &'c QaoaCircuit {
        self.circuit
    }

    /// The state produced by the most recent run (initially `|+⟩^⊗n`).
    pub fn state(&self) -> &StateVector {
        &self.psi
    }

    /// Consumes the evaluator and returns its state buffer.
    pub fn into_state(self) -> StateVector {
        self.psi
    }

    /// Runs the circuit into the owned scratch buffer and returns the
    /// final state. No allocation after the first call (which sizes the
    /// phase table); each depth is one fused phase-plus-mixer kernel call.
    pub fn run_into(&mut self, params: &Params) -> &StateVector {
        self.run_layers(params.gammas(), params.betas())
    }

    /// [`Self::run_into`] on raw angle slices — the layout-free core that
    /// optimizer closures use to avoid rebuilding [`Params`] per call.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn run_layers(&mut self, gammas: &[f64], betas: &[f64]) -> &StateVector {
        assert_eq!(
            gammas.len(),
            betas.len(),
            "gamma and beta slices must have equal length"
        );
        self.psi.set_uniform_superposition();
        let operator = self.circuit.hamiltonian().operator();
        for (&gamma, &beta) in gammas.iter().zip(betas) {
            operator.apply_phase_rx_all(&mut self.psi, gamma, 2.0 * beta, &mut self.phases);
        }
        &self.psi
    }

    /// The QAOA objective `⟨γ,β|C|γ,β⟩`, evaluated in the owned buffer.
    pub fn expectation_in_place(&mut self, params: &Params) -> f64 {
        self.run_into(params);
        self.circuit.hamiltonian().operator().expectation(&self.psi)
    }

    /// The objective on the optimizers' flat `[γ_1..γ_p, β_1..β_p]`
    /// layout. This is the closure body for every outer-loop optimizer:
    /// it neither allocates a state vector nor rebuilds a [`Params`].
    ///
    /// # Panics
    ///
    /// Panics if `flat` is empty or has odd length.
    pub fn expectation_flat(&mut self, flat: &[f64]) -> f64 {
        assert!(
            !flat.is_empty() && flat.len().is_multiple_of(2),
            "flat parameter layout must be [gammas.., betas..] with even length"
        );
        let p = flat.len() / 2;
        self.run_layers(&flat[..p], &flat[p..]);
        self.circuit.hamiltonian().operator().expectation(&self.psi)
    }

    /// Expectation-based approximation ratio at the given parameters.
    pub fn approximation_ratio_in_place(&mut self, params: &Params) -> f64 {
        let e = self.expectation_in_place(params);
        self.circuit.hamiltonian().approximation_ratio(e)
    }

    /// Canonicalizes optimizer output into a deterministic regression
    /// label — [`QaoaCircuit::canonical_label`] executed on the reused
    /// buffer (three circuit runs, zero state-vector allocations).
    pub fn canonical_label(&mut self, params: &Params) -> Params {
        use std::f64::consts::{FRAC_PI_2, PI};
        let base = params.canonical();
        let value = self.expectation_in_place(&base);
        let mirror = |flip_beta: bool| {
            Params::new(
                base.gammas().iter().map(|g| PI - g).collect(),
                base.betas()
                    .iter()
                    .map(|b| if flip_beta { FRAC_PI_2 - b } else { *b })
                    .collect(),
            )
            .canonical()
        };
        let candidates = [mirror(true), mirror(false)];
        let mut best = base;
        for candidate in candidates {
            // Only fold images that really are symmetries of this instance;
            // on irregular graphs a mirror may land anywhere.
            let symmetric = (self.expectation_in_place(&candidate) - value).abs() <= 1e-9;
            if symmetric && candidate.to_flat() < best.to_flat() {
                best = candidate;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MaxCutHamiltonian;
    use qgraph::Graph;
    use qrand::rngs::StdRng;
    use qrand::SeedableRng;

    fn circuit(g: &Graph) -> QaoaCircuit {
        QaoaCircuit::new(MaxCutHamiltonian::new(g))
    }

    #[test]
    fn reused_evaluator_is_bit_identical_to_fresh_runs() {
        let mut rng = StdRng::seed_from_u64(77);
        let g = qgraph::generate::erdos_renyi(6, 0.5, &mut rng).unwrap();
        let c = circuit(&g);
        let mut shared = Evaluator::new(&c);
        for _ in 0..12 {
            let params = Params::random(2, &mut rng);
            let reused = shared.run_into(&params).clone();
            let fresh = Evaluator::new(&c).run_into(&params).clone();
            // Exact equality, not tolerance: buffer reuse must not change
            // a single bit of the result.
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn expectation_flat_matches_params_path() {
        let mut rng = StdRng::seed_from_u64(78);
        let g = Graph::complete(5).unwrap();
        let c = circuit(&g);
        let mut ev = Evaluator::new(&c);
        for depth in [1usize, 2, 3] {
            let params = Params::random(depth, &mut rng);
            let via_params = ev.expectation_in_place(&params);
            let via_flat = ev.expectation_flat(&params.to_flat());
            assert_eq!(via_params.to_bits(), via_flat.to_bits());
        }
    }

    #[test]
    fn approximation_ratio_consistent() {
        let g = Graph::cycle(8).unwrap();
        let c = circuit(&g);
        let mut ev = Evaluator::new(&c);
        let star = Params::new(
            vec![std::f64::consts::FRAC_PI_4],
            vec![std::f64::consts::PI / 8.0],
        );
        assert!((ev.approximation_ratio_in_place(&star) - 0.75).abs() < 1e-10);
    }

    #[test]
    fn canonical_label_matches_circuit_path() {
        let mut rng = StdRng::seed_from_u64(79);
        for &(n, d) in &[(8usize, 3usize), (8, 4)] {
            let g = qgraph::generate::random_regular(n, d, &mut rng).unwrap();
            let c = circuit(&g);
            let mut ev = Evaluator::new(&c);
            let p = Params::random(1, &mut rng);
            assert_eq!(ev.canonical_label(&p), c.canonical_label(&p));
        }
    }

    #[test]
    #[should_panic(expected = "even length")]
    fn expectation_flat_rejects_odd_layout() {
        let g = Graph::cycle(4).unwrap();
        let c = circuit(&g);
        let _ = Evaluator::new(&c).expectation_flat(&[0.1, 0.2, 0.3]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn run_layers_rejects_mismatched_slices() {
        let g = Graph::cycle(4).unwrap();
        let c = circuit(&g);
        let _ = Evaluator::new(&c).run_layers(&[0.1, 0.2], &[0.3]);
    }
}
