//! Layerwise circuit deepening with the INTERP heuristic.
//!
//! The paper predicts p=1 angles; its future-work section asks about deeper
//! circuits. INTERP (Zhou, Wang, Choi, Pichler & Lukin, Phys. Rev. X 10,
//! 021067, 2020) deepens an optimized depth-p schedule to depth p+1 by
//! linear interpolation, preserving the adiabatic-like shape of good
//! schedules. Combined with a GNN-predicted p=1 start this yields a full
//! warm-start ladder: predict → optimize p=1 → INTERP → optimize p=2 → ...

use qrand::Rng;

use crate::optimize::Maximizer;
use crate::warm_start::{self, InitStrategy, WarmStartOutcome};
use crate::{MaxCutHamiltonian, Params};

/// Extends optimized depth-p parameters to depth p+1 by the INTERP rule:
///
/// ```text
/// θ'_i = (i-1)/p · θ_{i-1} + (p-i+1)/p · θ_i      for i = 1..=p+1
/// ```
///
/// (with out-of-range θ treated as 0), applied to γ and β independently.
pub fn interp_extend(params: &Params) -> Params {
    let p = params.depth();
    let extend = |angles: &[f64]| -> Vec<f64> {
        (1..=p + 1)
            .map(|i| {
                let left = if i >= 2 { angles[i - 2] } else { 0.0 };
                let right = if i <= p { angles[i - 1] } else { 0.0 };
                ((i - 1) as f64 * left + (p + 1 - i) as f64 * right) / p as f64
            })
            .collect()
    };
    Params::new(extend(params.gammas()), extend(params.betas()))
}

/// Optimizes QAOA layer by layer from `initial` (depth 1) up to
/// `max_depth`, INTERP-extending between levels. Returns one outcome per
/// depth, in order.
///
/// # Panics
///
/// Panics if `initial.depth() != 1` or `max_depth == 0`.
pub fn deepen<M, R>(
    hamiltonian: &MaxCutHamiltonian,
    initial: Params,
    max_depth: usize,
    optimizer: &M,
    rng: &mut R,
) -> Vec<WarmStartOutcome>
where
    M: Maximizer,
    R: Rng + ?Sized,
{
    assert_eq!(
        initial.depth(),
        1,
        "deepening starts from a depth-1 schedule"
    );
    assert!(max_depth >= 1, "max_depth must be at least 1");
    let mut outcomes = Vec::with_capacity(max_depth);
    let mut current = initial;
    for depth in 1..=max_depth {
        let outcome = warm_start::run(
            hamiltonian,
            current.clone(),
            InitStrategy::Predicted,
            optimizer,
            rng,
        );
        current = interp_extend(&outcome.final_params);
        debug_assert_eq!(current.depth(), depth + 1);
        outcomes.push(outcome);
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_angle;
    use crate::optimize::NelderMead;
    use qrand::rngs::StdRng;
    use qrand::SeedableRng;

    #[test]
    fn interp_extend_depth_one() {
        // p=1: θ'_1 = θ_1, θ'_2 = 0·left + 0·right... by the rule:
        // i=1: (0·θ_0 + 1·θ_1)/1 = θ_1; i=2: (1·θ_1 + 0)/1 = θ_1.
        let p = Params::new(vec![0.8], vec![0.3]);
        let q = interp_extend(&p);
        assert_eq!(q.depth(), 2);
        assert!((q.gammas()[0] - 0.8).abs() < 1e-12);
        assert!((q.gammas()[1] - 0.8).abs() < 1e-12);
        assert!((q.betas()[0] - 0.3).abs() < 1e-12);
        assert!((q.betas()[1] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn interp_extend_is_linear_interpolation() {
        // A linear ramp stays a linear ramp.
        let p = Params::new(vec![0.2, 0.4, 0.6], vec![0.6, 0.4, 0.2]);
        let q = interp_extend(&p);
        assert_eq!(q.depth(), 4);
        // Endpoints preserved.
        assert!((q.gammas()[0] - 0.2).abs() < 1e-12);
        assert!((q.gammas()[3] - 0.6).abs() < 1e-12);
        // Monotone in between.
        for w in q.gammas().windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
        for w in q.betas().windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn deeper_layers_improve_expectation() {
        let mut rng = StdRng::seed_from_u64(71);
        let g = qgraph::generate::random_regular(10, 3, &mut rng).unwrap();
        let ham = MaxCutHamiltonian::new(&g);
        let outcomes = deepen(
            &ham,
            fixed_angle::fixed_angles(3).params,
            3,
            &NelderMead::new(120),
            &mut rng,
        );
        assert_eq!(outcomes.len(), 3);
        for pair in outcomes.windows(2) {
            assert!(
                pair[1].final_ratio >= pair[0].final_ratio - 0.01,
                "depth increase should not hurt: {} -> {}",
                pair[0].final_ratio,
                pair[1].final_ratio
            );
        }
        // p=3 should get close to optimal on a 10-node instance.
        assert!(
            outcomes[2].final_ratio > 0.85,
            "{}",
            outcomes[2].final_ratio
        );
    }

    #[test]
    #[should_panic(expected = "depth-1")]
    fn deepen_rejects_deep_start() {
        let mut rng = StdRng::seed_from_u64(72);
        let g = qgraph::Graph::cycle(4).unwrap();
        let ham = MaxCutHamiltonian::new(&g);
        let _ = deepen(&ham, Params::zeros(2), 3, &NelderMead::new(10), &mut rng);
    }
}
