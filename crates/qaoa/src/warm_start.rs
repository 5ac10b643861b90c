//! End-to-end warm-start evaluation.
//!
//! The paper's experiment (§4) compares QAOA started from random parameters
//! against QAOA started from GNN-predicted parameters, both followed by the
//! same classical optimization, reporting the achieved approximation ratio.
//! [`run`] packages one such trajectory; [`WarmStartOutcome`] carries
//! everything Figure 5 / Table 1 need.

use qrand::Rng;

use crate::optimize::{memoized, Maximizer, OptimizationResult};
use crate::{Evaluator, MaxCutHamiltonian, Params, QaoaCircuit};

/// How the initial parameters were chosen — the experimental condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitStrategy {
    /// Uniformly random angles (the paper's baseline).
    Random,
    /// Angles predicted by a model or taken from the fixed-angle table.
    Predicted,
}

impl std::fmt::Display for InitStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InitStrategy::Random => write!(f, "random"),
            InitStrategy::Predicted => write!(f, "predicted"),
        }
    }
}

/// The record of one warm-start run on one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStartOutcome {
    /// Which condition produced the initial parameters.
    pub strategy: InitStrategy,
    /// The initial parameters.
    pub initial_params: Params,
    /// The optimized parameters.
    pub final_params: Params,
    /// Expectation `⟨C⟩` at the initial parameters.
    pub initial_expectation: f64,
    /// Expectation `⟨C⟩` at the optimized parameters.
    pub final_expectation: f64,
    /// Approximation ratio at the initial parameters.
    pub initial_ratio: f64,
    /// Approximation ratio after optimization — the paper's headline metric.
    pub final_ratio: f64,
    /// Best-so-far expectation per optimizer iteration.
    pub history: Vec<f64>,
    /// Objective queries the optimizer made (proxy for quantum-resource
    /// overhead), counting the repeats [`run_with`]'s memo answered
    /// without a simulation.
    pub evaluations: usize,
    /// Objective evaluations that returned a non-finite value. Non-zero
    /// flags a (partially) diverged trace; the labeler records the graph as
    /// failed when the final expectation itself is non-finite.
    pub non_finite_evals: usize,
}

impl WarmStartOutcome {
    /// `true` when the optimized result is unusable: the final expectation
    /// or any final parameter is non-finite.
    pub fn diverged(&self) -> bool {
        !self.final_expectation.is_finite()
            || self.final_params.to_flat().iter().any(|v| !v.is_finite())
    }
}

impl WarmStartOutcome {
    /// Iterations needed to reach `fraction` of the final expectation —
    /// the convergence-speed metric motivating warm starts (§2: "achieve
    /// convergence with fewer iterations on quantum computers").
    pub fn iterations_to_fraction(&self, fraction: f64) -> Option<usize> {
        let target = self.final_expectation * fraction;
        self.history
            .iter()
            .position(|&v| v >= target)
            .map(|i| i + 1)
    }
}

/// Runs QAOA on `hamiltonian` starting from `initial` parameters, optimizing
/// with `optimizer`, and reports the full outcome.
///
/// Builds one [`Evaluator`] for the whole trajectory and delegates to
/// [`run_with`]; callers that already hold an evaluator (e.g. the dataset
/// labeler, which canonicalizes afterwards) should call that directly.
pub fn run<M, R>(
    hamiltonian: &MaxCutHamiltonian,
    initial: Params,
    strategy: InitStrategy,
    optimizer: &M,
    rng: &mut R,
) -> WarmStartOutcome
where
    M: Maximizer,
    R: Rng + ?Sized,
{
    let circuit = QaoaCircuit::new(hamiltonian.clone());
    let mut evaluator = Evaluator::new(&circuit);
    run_with(&mut evaluator, initial, strategy, optimizer, rng)
}

/// [`run`] on a caller-supplied [`Evaluator`]: the entire optimization
/// trace — initial evaluation plus every objective call the optimizer
/// makes — executes in the evaluator's scratch buffer with zero
/// state-vector allocations.
///
/// The trace never simulates a point twice: every query goes through one
/// [`memoized`] objective, first among them the initial expectation, which
/// is also the optimizer's first query. This relies on
/// [`Evaluator::expectation_flat`] being a pure function of the exact
/// parameter bits, so every output bit is what the bare objective gives.
pub fn run_with<M, R>(
    evaluator: &mut Evaluator<'_>,
    initial: Params,
    strategy: InitStrategy,
    optimizer: &M,
    rng: &mut R,
) -> WarmStartOutcome
where
    M: Maximizer,
    R: Rng + ?Sized,
{
    let start = initial.to_flat();
    let mut objective = memoized(|flat: &[f64]| evaluator.expectation_flat(flat));
    let initial_expectation = objective(&start);
    let OptimizationResult {
        best_point,
        best_value,
        history,
        evaluations,
        non_finite_evals,
    } = optimizer.maximize(&mut objective, &start, rng);
    drop(objective);
    let final_params = Params::from_flat(&best_point).expect("optimizer preserves layout");
    let hamiltonian = evaluator.circuit().hamiltonian();
    WarmStartOutcome {
        strategy,
        initial_params: initial,
        final_params,
        initial_expectation,
        final_expectation: best_value,
        initial_ratio: hamiltonian.approximation_ratio(initial_expectation),
        final_ratio: hamiltonian.approximation_ratio(best_value),
        history,
        evaluations,
        non_finite_evals,
    }
}

/// Convenience: a random-initialization run of the given depth — the
/// paper's baseline condition.
pub fn run_random_init<M, R>(
    hamiltonian: &MaxCutHamiltonian,
    depth: usize,
    optimizer: &M,
    rng: &mut R,
) -> WarmStartOutcome
where
    M: Maximizer,
    R: Rng + ?Sized,
{
    let initial = Params::random(depth, rng);
    run(hamiltonian, initial, InitStrategy::Random, optimizer, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::NelderMead;
    use qgraph::Graph;
    use qrand::rngs::StdRng;
    use qrand::SeedableRng;

    fn ham(g: &Graph) -> MaxCutHamiltonian {
        MaxCutHamiltonian::new(g)
    }

    #[test]
    fn optimization_never_hurts() {
        let mut rng = StdRng::seed_from_u64(61);
        let h = ham(&Graph::cycle(6).unwrap());
        let outcome = run_random_init(&h, 1, &NelderMead::new(100), &mut rng);
        assert!(outcome.final_expectation >= outcome.initial_expectation - 1e-9);
        assert!(outcome.final_ratio >= outcome.initial_ratio - 1e-9);
        assert!(outcome.final_ratio <= 1.0 + 1e-9);
        assert_eq!(outcome.strategy, InitStrategy::Random);
    }

    #[test]
    fn good_start_converges_to_good_ratio() {
        // Warm-start from the fixed angles of the right degree: already
        // near-optimal, the optimizer should close the remaining gap.
        let mut rng = StdRng::seed_from_u64(62);
        let g = qgraph::generate::random_regular(8, 3, &mut rng).unwrap();
        let h = ham(&g);
        let fa = crate::fixed_angle::fixed_angles(3);
        let outcome = run(
            &h,
            fa.params.clone(),
            InitStrategy::Predicted,
            &NelderMead::new(150),
            &mut rng,
        );
        assert!(outcome.initial_ratio > 0.6);
        assert!(outcome.final_ratio >= outcome.initial_ratio - 1e-9);
        assert_eq!(outcome.strategy, InitStrategy::Predicted);
    }

    #[test]
    fn warm_start_converges_faster_than_bad_start() {
        // From fixed angles, fewer iterations are needed to reach 95% of the
        // final value than from a deliberately bad start. This is the core
        // quantum-resource claim of the paper.
        let mut rng = StdRng::seed_from_u64(63);
        let g = qgraph::generate::random_regular(10, 3, &mut rng).unwrap();
        let h = ham(&g);
        let warm = run(
            &h,
            crate::fixed_angle::fixed_angles(3).params,
            InitStrategy::Predicted,
            &NelderMead::new(200),
            &mut rng,
        );
        let cold = run(
            &h,
            Params::new(vec![3.0], vec![2.0]), // far from any optimum
            InitStrategy::Random,
            &NelderMead::new(200),
            &mut rng,
        );
        let warm_iters = warm.iterations_to_fraction(0.95).unwrap();
        let cold_iters = cold.iterations_to_fraction(0.95).unwrap();
        assert!(
            warm_iters <= cold_iters,
            "warm {warm_iters} vs cold {cold_iters}"
        );
    }

    #[test]
    fn history_matches_final_value() {
        let mut rng = StdRng::seed_from_u64(64);
        let h = ham(&Graph::complete(4).unwrap());
        let outcome = run_random_init(&h, 2, &NelderMead::new(60), &mut rng);
        let last = *outcome.history.last().unwrap();
        assert!((last - outcome.final_expectation).abs() < 1e-9);
        assert!(outcome.evaluations >= outcome.history.len());
    }

    #[test]
    fn strategy_display() {
        assert_eq!(InitStrategy::Random.to_string(), "random");
        assert_eq!(InitStrategy::Predicted.to_string(), "predicted");
    }
}
