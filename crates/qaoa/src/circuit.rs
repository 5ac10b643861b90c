use qrand::Rng;

use qsim::StateVector;

use crate::{Evaluator, MaxCutHamiltonian, Params};

/// A p-layer QAOA circuit for one Max-Cut instance.
///
/// The circuit is `U(γ, β) = Π_k e^{-iβ_k B} e^{-iγ_k C}` applied to
/// `|+⟩^⊗n`, with `B = Σ_j X_j` the transverse-field mixer and `C` the
/// diagonal cut-value operator. Phase separation uses the precomputed
/// diagonal table (fast path); the mixer is a layer of `RX(2β)` rotations.
///
/// # Example
///
/// ```
/// use qaoa::{MaxCutHamiltonian, Params, QaoaCircuit};
/// use qgraph::Graph;
///
/// # fn main() -> Result<(), qgraph::GraphError> {
/// let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(&Graph::cycle(4)?));
/// // Zero angles leave the uniform superposition: ⟨C⟩ = |E|/2 = 2.
/// let e = circuit.expectation(&Params::zeros(1));
/// assert!((e - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QaoaCircuit {
    hamiltonian: MaxCutHamiltonian,
}

impl QaoaCircuit {
    /// Wraps a Hamiltonian into a runnable circuit.
    pub fn new(hamiltonian: MaxCutHamiltonian) -> Self {
        QaoaCircuit { hamiltonian }
    }

    /// The problem Hamiltonian.
    pub fn hamiltonian(&self) -> &MaxCutHamiltonian {
        &self.hamiltonian
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.hamiltonian.num_qubits()
    }

    /// Runs the circuit and returns the final state.
    ///
    /// **Convenience only** — allocates a fresh state vector (and a whole
    /// [`Evaluator`]) per call. Anything that evaluates more than once per
    /// instance — optimizers, labeling, landscape scans — should hold an
    /// [`Evaluator`] and use [`Evaluator::run_into`] instead; this wrapper
    /// exists for doctests, examples, and one-shot probes. Results are
    /// bit-identical to the evaluator path (it *is* the evaluator path).
    pub fn run(&self, params: &Params) -> StateVector {
        let mut evaluator = Evaluator::new(self);
        evaluator.run_into(params);
        evaluator.into_state()
    }

    /// The QAOA objective `⟨γ,β|C|γ,β⟩`.
    ///
    /// **Convenience only** — see [`Self::run`]; hot paths should use
    /// [`Evaluator::expectation_in_place`] or
    /// [`Evaluator::expectation_flat`].
    pub fn expectation(&self, params: &Params) -> f64 {
        Evaluator::new(self).expectation_in_place(params)
    }

    /// Expectation-based approximation ratio at the given parameters.
    ///
    /// **Convenience only** — see [`Self::run`]; hot paths should use
    /// [`Evaluator::approximation_ratio_in_place`].
    pub fn approximation_ratio(&self, params: &Params) -> f64 {
        Evaluator::new(self).approximation_ratio_in_place(params)
    }

    /// Canonicalizes optimizer output into a deterministic regression label.
    ///
    /// [`Params::canonical`] folds only graph-independent symmetries, which
    /// leaves a residual two-fold degeneracy on this instance's landscape:
    /// regular graphs of even degree satisfy `E(γ, β) = E(π−γ, π/2−β)` and
    /// odd degree `E(γ, β) = E(π−γ, β)` (visible in the closed form of
    /// [`crate::analytic::edge_expectation`], where `cos γ` enters with
    /// degree-parity exponents). An optimizer lands in either copy at
    /// random, so labels for identical-quality optima split into two
    /// clusters and mean-squared-error regression collapses onto their
    /// (poor) midpoint. This method checks both mirror images against the
    /// actual circuit expectation and returns the representative with the
    /// smallest leading `γ` among those that lose nothing, so every label
    /// lands in one cluster.
    ///
    /// **Convenience only** — evaluates the circuit three times; labeling
    /// loops should call [`Evaluator::canonical_label`] on an evaluator
    /// they already hold.
    pub fn canonical_label(&self, params: &Params) -> Params {
        Evaluator::new(self).canonical_label(params).0
    }

    /// Samples `shots` measurement outcomes from the final state and returns
    /// the best cut value observed. This mirrors what running on hardware
    /// would report.
    pub fn best_sampled_cut<R: Rng + ?Sized>(
        &self,
        params: &Params,
        shots: usize,
        rng: &mut R,
    ) -> f64 {
        let mut evaluator = Evaluator::new(self);
        let psi = evaluator.run_into(params);
        let values = self.hamiltonian.operator().values();
        (0..shots)
            .map(|_| values[psi.sample(rng) as usize])
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgraph::Graph;
    use qrand::rngs::StdRng;
    use qrand::SeedableRng;

    fn circuit(g: &Graph) -> QaoaCircuit {
        QaoaCircuit::new(MaxCutHamiltonian::new(g))
    }

    #[test]
    fn zero_params_give_uniform_expectation() {
        // ⟨+|C|+⟩ = W/2 for any graph.
        for g in [
            Graph::cycle(5).unwrap(),
            Graph::complete(4).unwrap(),
            Graph::star(6).unwrap(),
        ] {
            let c = circuit(&g);
            let e = c.expectation(&Params::zeros(1));
            assert!(
                (e - g.total_weight() / 2.0).abs() < 1e-10,
                "graph with W={}",
                g.total_weight()
            );
        }
    }

    #[test]
    fn expectation_bounded_by_optimum() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = qgraph::generate::erdos_renyi(7, 0.5, &mut rng).unwrap();
        let c = circuit(&g);
        for _ in 0..20 {
            let params = Params::random(2, &mut rng);
            let e = c.expectation(&params);
            assert!(e <= c.hamiltonian().optimal_value() + 1e-9);
            assert!(e >= 0.0 - 1e-9);
        }
    }

    #[test]
    fn run_preserves_norm() {
        let g = Graph::complete(5).unwrap();
        let c = circuit(&g);
        let mut rng = StdRng::seed_from_u64(22);
        let psi = c.run(&Params::random(3, &mut rng));
        assert!((psi.norm() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn known_optimum_ring_p1() {
        // For even rings the p=1 optimum is 3/4 of the edges at
        // γ* = π/4 (unit weights ⇒ phase period matches), β* = π/8.
        let g = Graph::cycle(8).unwrap();
        let c = circuit(&g);
        let star = Params::new(
            vec![std::f64::consts::FRAC_PI_4],
            vec![std::f64::consts::PI / 8.0],
        );
        let ar = c.approximation_ratio(&star);
        assert!((ar - 0.75).abs() < 1e-10, "ar = {ar}");
    }

    #[test]
    fn deeper_circuits_can_only_help_at_optimum() {
        // Not a theorem for arbitrary fixed angles, but p=2 with second layer
        // zeroed must equal p=1.
        let g = Graph::cycle(6).unwrap();
        let c = circuit(&g);
        let p1 = Params::new(vec![0.7], vec![0.3]);
        let p2 = Params::new(vec![0.7, 0.0], vec![0.3, 0.0]);
        assert!((c.expectation(&p1) - c.expectation(&p2)).abs() < 1e-10);
    }

    #[test]
    fn best_sampled_cut_bounded() {
        let g = Graph::complete(4).unwrap();
        let c = circuit(&g);
        let mut rng = StdRng::seed_from_u64(23);
        let params = Params::random(1, &mut rng);
        let best = c.best_sampled_cut(&params, 64, &mut rng);
        assert!(best <= c.hamiltonian().optimal_value() + 1e-12);
        assert!(best >= 0.0);
    }

    #[test]
    fn canonical_label_folds_mirror_optima_together() {
        // On a regular graph the landscape has a two-fold mirror degeneracy
        // that Params::canonical alone cannot remove; both mirror images of
        // an optimum must canonicalize to the same label.
        let mut rng = StdRng::seed_from_u64(29);
        for &(n, d) in &[(8usize, 3usize), (8, 4)] {
            let g = qgraph::generate::random_regular(n, d, &mut rng).unwrap();
            let c = circuit(&g);
            let p = Params::new(vec![0.5], vec![0.35]);
            // The degree-parity mirror of p (even d flips beta too).
            let flip_beta = d % 2 == 0;
            let mirrored = Params::new(
                vec![std::f64::consts::PI - 0.5],
                vec![if flip_beta {
                    std::f64::consts::FRAC_PI_2 - 0.35
                } else {
                    0.35
                }],
            );
            // The mirror really is a symmetry of this instance.
            assert!(
                (c.expectation(&p) - c.expectation(&mirrored)).abs() < 1e-10,
                "n={n} d={d}: mirror is not a symmetry"
            );
            let a = c.canonical_label(&p);
            let b = c.canonical_label(&mirrored);
            assert!(a.distance(&b) < 1e-9, "n={n} d={d}: labels disagree");
            assert!(a.gammas()[0] <= std::f64::consts::FRAC_PI_2 + 1e-12);
        }
    }

    #[test]
    fn canonical_label_preserves_expectation() {
        let mut rng = StdRng::seed_from_u64(30);
        let g = qgraph::generate::erdos_renyi(7, 0.5, &mut rng).unwrap();
        let c = circuit(&g);
        for _ in 0..10 {
            let p = Params::random(1, &mut rng);
            let l = c.canonical_label(&p);
            assert!((c.expectation(&p) - c.expectation(&l)).abs() < 1e-9);
        }
    }

    #[test]
    fn single_edge_graph_full_expectation_sweep() {
        // For a single edge, ⟨C⟩(γ, β) = (1 + sin(4β) sin(γ)) / 2 exactly
        // (weight 1, mixer e^{-iβΣX}): verify on a grid.
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let c = circuit(&g);
        for i in 0..8 {
            for j in 0..8 {
                let gamma = i as f64 * 0.7;
                let beta = j as f64 * 0.35;
                let got = c.expectation(&Params::new(vec![gamma], vec![beta]));
                let want = 0.5 * (1.0 + (4.0 * beta).sin() * gamma.sin());
                assert!(
                    (got - want).abs() < 1e-10,
                    "gamma={gamma} beta={beta}: got {got}, want {want}"
                );
            }
        }
    }
}
