//! The zero-allocation QAOA execution engine.
//!
//! Every label in the paper's dataset costs hundreds of optimizer-driven
//! circuit simulations (§3.1: 500 iterations per graph, each iteration
//! evaluating the objective one or more times). [`Evaluator`] owns the
//! simulation buffers for one instance, so a full optimization trace
//! performs **zero state-vector allocations after setup** and every
//! circuit run executes on the fused kernels in [`qsim::fused`].

use qsim::fused::{self, PhaseTable};
use qsim::StateVector;

use crate::{Params, QaoaCircuit};

/// A reusable QAOA executor: one problem instance, one owned half
/// register and one per-layer phase table, no per-call allocation.
///
/// A Max-Cut QAOA state is flip-symmetric: amplitude `z` equals amplitude
/// `2^n − 1 − z`, bit for bit (see [`qsim::fused`]). So the evaluator
/// holds only the `2^(n−1)` amplitudes with qubit `n − 1` clear, as split
/// re/im arrays, and runs each layer on them with
/// [`fused::phase_rx_half`]: the phase table is filled with `e^{-iγ·v}`
/// for the diagonal's distinct values `v` (its levels), and one fused
/// phase-plus-mixer kernel gathers each amplitude's factor from it.
/// Expectations are read off the half. [`Evaluator::run_into`] and
/// [`Evaluator::into_state`] materialize the full `2^n` state, allocated
/// on first use.
///
/// Construct one per (graph, optimization trace) and call
/// [`Evaluator::expectation_in_place`] (or [`Evaluator::expectation_flat`]
/// from optimizer closures) as many times as needed. Results are
/// bit-identical to the one-shot convenience calls on [`QaoaCircuit`],
/// which are themselves thin wrappers over a temporary `Evaluator`, and to
/// a full-register [`fused::phase_rx_all`] run.
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
    /// The amplitudes with qubit `n − 1` clear, real and imaginary parts.
    re: Vec<f64>,
    im: Vec<f64>,
    phases: PhaseTable,
    /// The full register, written out only for [`Self::run_into`] and
    /// [`Self::into_state`].
    full: Option<StateVector>,
}

impl<'c> Evaluator<'c> {
    /// Creates an evaluator for `circuit`, allocating its half register
    /// once, in the state `|+⟩^⊗n`.
    pub fn new(circuit: &'c QaoaCircuit) -> Self {
        let half = 1usize << (circuit.num_qubits() - 1);
        debug_assert!(
            {
                let values = circuit.hamiltonian().operator().values();
                values
                    .iter()
                    .zip(values.iter().rev())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            },
            "cost diagonal must be flip-symmetric"
        );
        let mut evaluator = Evaluator {
            re: vec![0.0; half],
            im: vec![0.0; half],
            phases: PhaseTable::default(),
            full: None,
            circuit,
        };
        evaluator.set_uniform_superposition();
        evaluator
    }

    /// The circuit this evaluator runs.
    pub fn circuit(&self) -> &'c QaoaCircuit {
        self.circuit
    }

    /// Consumes the evaluator and returns the full state of the most
    /// recent run (initially `|+⟩^⊗n`).
    pub fn into_state(mut self) -> StateVector {
        self.unfold();
        self.full.expect("unfold allocates the full state")
    }

    /// Runs the circuit and returns the final state, written out from
    /// the half register into a full buffer that the first call
    /// allocates; later calls allocate nothing. Each depth is one fused
    /// phase-plus-mixer kernel call on the half.
    pub fn run_into(&mut self, params: &Params) -> &StateVector {
        self.run_layers(params.gammas(), params.betas());
        self.unfold()
    }

    /// The QAOA objective `⟨γ,β|C|γ,β⟩`, evaluated in the owned buffer.
    pub fn expectation_in_place(&mut self, params: &Params) -> f64 {
        self.run_layers(params.gammas(), params.betas());
        self.expectation()
    }

    /// The objective on the optimizers' flat `[γ_1..γ_p, β_1..β_p]`
    /// layout. This is the closure body for every outer-loop optimizer:
    /// it neither allocates nor rebuilds a [`Params`].
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
        self.expectation()
    }

    /// Expectation-based approximation ratio at the given parameters.
    pub fn approximation_ratio_in_place(&mut self, params: &Params) -> f64 {
        let e = self.expectation_in_place(params);
        self.circuit.hamiltonian().approximation_ratio(e)
    }

    /// Canonicalizes optimizer output into a deterministic regression
    /// label — [`QaoaCircuit::canonical_label`] executed on the reused
    /// buffer (three circuit runs, zero state-vector allocations) — and
    /// returns it with its expectation, the bits
    /// [`Evaluator::expectation_in_place`] gives on it.
    pub fn canonical_label(&mut self, params: &Params) -> (Params, f64) {
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
        let mut best = (base, value);
        for candidate in candidates {
            // Only fold images that really are symmetries of this instance;
            // on irregular graphs a mirror may land anywhere.
            let expectation = self.expectation_in_place(&candidate);
            let symmetric = (expectation - value).abs() <= 1e-9;
            if symmetric && candidate.to_flat() < best.0.to_flat() {
                best = (candidate, expectation);
            }
        }
        best
    }

    /// Resets the half register to `|+⟩^⊗n`, with the amplitude bits of
    /// [`StateVector::set_uniform_superposition`].
    fn set_uniform_superposition(&mut self) {
        let dim = 2 * self.re.len();
        self.re.fill(1.0 / (dim as f64).sqrt());
        self.im.fill(0.0);
    }

    /// Runs the layers `(γ_i, β_i)` on the half register.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    fn run_layers(&mut self, gammas: &[f64], betas: &[f64]) {
        assert_eq!(
            gammas.len(),
            betas.len(),
            "gamma and beta slices must have equal length"
        );
        self.set_uniform_superposition();
        let operator = self.circuit.hamiltonian().operator();
        let level_of = &operator.level_of()[..self.re.len()];
        for (&gamma, &beta) in gammas.iter().zip(betas) {
            self.phases.fill(operator.levels(), gamma);
            fused::phase_rx_half(
                &mut self.re,
                &mut self.im,
                level_of,
                &self.phases,
                2.0 * beta,
            );
        }
    }

    /// `⟨C⟩` of the state in the half register.
    fn expectation(&self) -> f64 {
        let values = &self.circuit.hamiltonian().operator().values()[..self.re.len()];
        fused::expectation_half(&self.re, &self.im, values)
    }

    /// Writes the full state out of the half register, allocating it on
    /// first use.
    fn unfold(&mut self) -> &StateVector {
        let n = self.circuit.num_qubits();
        let psi = self.full.get_or_insert_with(|| StateVector::zero_state(n));
        fused::unfold_half(&self.re, &self.im, psi);
        psi
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
            assert_eq!(ev.canonical_label(&p).0, c.canonical_label(&p));
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
        Evaluator::new(&c).run_layers(&[0.1, 0.2], &[0.3]);
    }
}
