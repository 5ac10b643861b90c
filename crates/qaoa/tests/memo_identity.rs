//! The memoized warm-start trace is the bare trace, bit for bit:
//! `warm_start::run_with` answers repeated points from a memo, and its
//! outcome must equal `NelderMead::maximize` run directly on
//! `Evaluator::expectation_flat` with no memo, including every counter.

use qcheck::{any_u64, choice, prop_assert_eq, properties};
use qrand::rngs::StdRng;
use qrand::{Rng, SeedableRng};

use qaoa::optimize::{Maximizer, NelderMead};
use qaoa::warm_start::{self, InitStrategy};
use qaoa::{Evaluator, MaxCutHamiltonian, Params, QaoaCircuit};
use qgraph::Graph;

/// A seeded Erdős–Rényi draw; weighted draws take weights uniform in
/// [-1.3, 2.7], unweighted ones weight 1.
fn graph(n: usize, p: f64, weighted: bool, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::empty(n).expect("n >= 1");
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen::<f64>() < p {
                let w = if weighted {
                    -1.3 + 4.0 * rng.gen::<f64>()
                } else {
                    1.0
                };
                g.add_edge(u, v, w).expect("finite weight");
            }
        }
    }
    g
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

properties! {
    cases = 48;

    fn run_with_equals_the_unmemoized_trace(
        n in 2usize..11,
        p in 0.2f64..1.0,
        weighted in choice([false, true]),
        depth in 1usize..4,
        budget in choice([0usize, 1, 30, 500]),
        seed in any_u64(),
    ) {
        let g = graph(n, p, weighted, seed);
        let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(&g));
        let initial = Params::random(depth, &mut StdRng::seed_from_u64(seed ^ 0x9e37));
        let optimizer = NelderMead::new(budget);

        let mut evaluator = Evaluator::new(&circuit);
        let initial_expectation = evaluator.expectation_in_place(&initial);
        let reference = optimizer.maximize(
            |flat: &[f64]| evaluator.expectation_flat(flat),
            &initial.to_flat(),
            &mut StdRng::seed_from_u64(seed),
        );

        let outcome = warm_start::run_with(
            &mut Evaluator::new(&circuit),
            initial,
            InitStrategy::Random,
            &optimizer,
            &mut StdRng::seed_from_u64(seed),
        );
        prop_assert_eq!(outcome.initial_expectation.to_bits(), initial_expectation.to_bits());
        prop_assert_eq!(bits(&outcome.final_params.to_flat()), bits(&reference.best_point));
        prop_assert_eq!(outcome.final_expectation.to_bits(), reference.best_value.to_bits());
        prop_assert_eq!(bits(&outcome.history), bits(&reference.history));
        prop_assert_eq!(outcome.evaluations, reference.evaluations);
        prop_assert_eq!(outcome.non_finite_evals, reference.non_finite_evals);
    }
}
