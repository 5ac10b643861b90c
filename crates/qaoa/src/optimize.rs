//! Classical outer-loop optimizers for the QAOA objective.
//!
//! The paper's labeling loop "starts with randomly initialized values of γ
//! and β, and then undergoes a process of optimization over 500 iterations"
//! (§3.1). Every optimizer here maximizes a black-box objective
//! `f: R^k → R` under a fixed evaluation budget and records the best value
//! after each iteration, which is what the warm-start comparisons plot.
//!
//! * [`NelderMead`] — derivative-free simplex search; the default labeler.
//! * [`GridSearch`] — exhaustive p=1 baseline over the periodic domain.
//!
//! [`memoized`] wraps a deterministic objective so that a point queried
//! twice is computed once.

use std::collections::HashMap;

use qrand::Rng;

/// Result of an optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationResult {
    /// Best parameter vector found.
    pub best_point: Vec<f64>,
    /// Objective value at [`Self::best_point`].
    pub best_value: f64,
    /// Best-so-far objective value after each iteration (monotone
    /// non-decreasing). Length equals the number of iterations performed.
    pub history: Vec<f64>,
    /// Total number of objective queries the optimizer made, counting
    /// repeats of a point that a [`memoized`] objective answered without
    /// recomputing it.
    pub evaluations: usize,
    /// Number of evaluations that returned a non-finite value (NaN or ±∞).
    /// Non-zero means the objective diverged somewhere along the trace;
    /// [`Self::diverged`] tells whether the *result* is still usable.
    pub non_finite_evals: usize,
}

impl OptimizationResult {
    /// `true` when the run never recovered a finite best value — every
    /// candidate the optimizer kept was NaN or infinite. Callers should
    /// discard such results (the labeler records them as failures).
    pub fn diverged(&self) -> bool {
        !self.best_value.is_finite()
    }
}

/// `true` when `candidate` is a usable improvement over `best`: finite, and
/// either strictly better or replacing a non-finite incumbent. Grid search
/// tracks its best point with it, so a NaN-returning objective can never be
/// propagated as "best".
fn improves(candidate: f64, best: f64) -> bool {
    candidate.is_finite() && (!best.is_finite() || candidate > best)
}

/// Descending total-order comparison for objective values where any
/// non-finite value ranks strictly below every finite one (NaN and -∞ tie
/// for last). Replaces the `partial_cmp().expect()` that used to panic the
/// whole labeling batch on the first NaN.
fn cmp_desc(a: f64, b: f64) -> std::cmp::Ordering {
    let key = |v: f64| if v.is_nan() { f64::NEG_INFINITY } else { v };
    key(b).total_cmp(&key(a))
}

impl OptimizationResult {
    /// Number of iterations needed to first reach
    /// `fraction * best_value` (counting from 1), or `None` if the history
    /// is empty. Used for the convergence-speed comparisons.
    pub fn iterations_to_fraction(&self, fraction: f64) -> Option<usize> {
        let target = self.best_value * fraction;
        self.history
            .iter()
            .position(|&v| v >= target)
            .map(|i| i + 1)
    }
}

/// A maximizer of black-box objectives under an iteration budget.
///
/// Implementations are deterministic given the supplied RNG, making dataset
/// labeling reproducible.
pub trait Maximizer {
    /// Maximizes `objective` starting from `start`, spending at most the
    /// optimizer's configured iteration budget.
    fn maximize<F, R>(&self, objective: F, start: &[f64], rng: &mut R) -> OptimizationResult
    where
        F: FnMut(&[f64]) -> f64,
        R: Rng + ?Sized;
}

// ---------------------------------------------------------------------------
// Nelder–Mead
// ---------------------------------------------------------------------------

/// Derivative-free Nelder–Mead simplex search (maximizing).
///
/// One "iteration" is one simplex transformation, which costs 1–2 objective
/// evaluations (plus `k+1` for the initial simplex and occasional shrinks).
#[derive(Debug, Clone, PartialEq)]
pub struct NelderMead {
    /// Iteration budget (paper: 500).
    pub max_iterations: usize,
    /// Initial simplex edge length.
    pub initial_step: f64,
    /// Convergence tolerance on the simplex value spread; 0 disables early
    /// stopping so the full budget is always spent.
    pub tolerance: f64,
}

impl Default for NelderMead {
    fn default() -> Self {
        NelderMead {
            max_iterations: 500,
            initial_step: 0.5,
            tolerance: 0.0,
        }
    }
}

impl NelderMead {
    /// Creates a Nelder–Mead optimizer with the given iteration budget.
    pub fn new(max_iterations: usize) -> Self {
        NelderMead {
            max_iterations,
            ..NelderMead::default()
        }
    }
}

impl Maximizer for NelderMead {
    fn maximize<F, R>(&self, mut objective: F, start: &[f64], _rng: &mut R) -> OptimizationResult
    where
        F: FnMut(&[f64]) -> f64,
        R: Rng + ?Sized,
    {
        assert!(!start.is_empty(), "start point must be non-empty");
        let k = start.len();
        let mut evaluations = 0usize;
        let mut non_finite_evals = 0usize;
        let mut eval = |x: &[f64], evaluations: &mut usize| {
            *evaluations += 1;
            let v = objective(x);
            if !v.is_finite() {
                non_finite_evals += 1;
            }
            v
        };

        // Initial simplex: start plus one step along each axis.
        let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(k + 1);
        let v0 = start.to_vec();
        let f0 = eval(&v0, &mut evaluations);
        simplex.push((v0, f0));
        for i in 0..k {
            let mut v = start.to_vec();
            v[i] += self.initial_step;
            let f = eval(&v, &mut evaluations);
            simplex.push((v, f));
        }

        let mut history = Vec::with_capacity(self.max_iterations);
        let (alpha, gamma_e, rho, sigma) = (1.0, 2.0, 0.5, 0.5);

        // The simplex is kept sorted descending by value (we maximize):
        // best first, any non-finite vertex last so it is the next to be
        // replaced.
        simplex.sort_by(|a, b| cmp_desc(a.1, b.1));
        for _ in 0..self.max_iterations {
            if self.tolerance > 0.0 && (simplex[0].1 - simplex[k].1).abs() < self.tolerance {
                // Early convergence: stop before another move, so the
                // history is shorter than the budget.
                break;
            }

            // Centroid of all but the worst.
            let mut centroid = vec![0.0; k];
            for (v, _) in &simplex[..k] {
                for (c, x) in centroid.iter_mut().zip(v) {
                    *c += x / k as f64;
                }
            }

            let reflect: Vec<f64> = centroid
                .iter()
                .zip(&simplex[k].0)
                .map(|(c, w)| c + alpha * (c - w))
                .collect();
            let f_reflect = eval(&reflect, &mut evaluations);

            if f_reflect > simplex[0].1 {
                // Try expansion.
                let expand: Vec<f64> = centroid
                    .iter()
                    .zip(&reflect)
                    .map(|(c, r)| c + gamma_e * (r - c))
                    .collect();
                let f_expand = eval(&expand, &mut evaluations);
                simplex[k] = if f_expand > f_reflect {
                    (expand, f_expand)
                } else {
                    (reflect, f_reflect)
                };
            } else if f_reflect > simplex[k - 1].1 {
                simplex[k] = (reflect, f_reflect);
            } else {
                // Contraction toward the better of worst/reflected.
                let (toward, f_toward) = if f_reflect > simplex[k].1 {
                    (&reflect, f_reflect)
                } else {
                    (&simplex[k].0.clone(), simplex[k].1)
                };
                let contract: Vec<f64> = centroid
                    .iter()
                    .zip(toward)
                    .map(|(c, t)| c + rho * (t - c))
                    .collect();
                let f_contract = eval(&contract, &mut evaluations);
                if f_contract > f_toward {
                    simplex[k] = (contract, f_contract);
                } else {
                    // Shrink toward the best vertex.
                    let best_v = simplex[0].0.clone();
                    for entry in simplex.iter_mut().skip(1) {
                        let shrunk: Vec<f64> = best_v
                            .iter()
                            .zip(&entry.0)
                            .map(|(b, x)| b + sigma * (x - b))
                            .collect();
                        let f = eval(&shrunk, &mut evaluations);
                        *entry = (shrunk, f);
                    }
                }
            }
            simplex.sort_by(|a, b| cmp_desc(a.1, b.1));
            history.push(simplex[0].1);
        }

        make_monotone(&mut history);
        OptimizationResult {
            best_point: simplex[0].0.clone(),
            best_value: simplex[0].1,
            history,
            evaluations,
            non_finite_evals,
        }
    }
}

// ---------------------------------------------------------------------------
// Grid search (p = 1)
// ---------------------------------------------------------------------------

/// Exhaustive grid search over the periodic p=1 domain
/// `γ ∈ [0, 2π) × β ∈ [0, π)`.
///
/// Only valid for two-dimensional parameter vectors; used as the "ground
/// truth" labeler in data-quality ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridSearch {
    /// Grid points per axis.
    pub resolution: usize,
}

impl Default for GridSearch {
    fn default() -> Self {
        GridSearch { resolution: 64 }
    }
}

impl Maximizer for GridSearch {
    fn maximize<F, R>(&self, mut objective: F, start: &[f64], _rng: &mut R) -> OptimizationResult
    where
        F: FnMut(&[f64]) -> f64,
        R: Rng + ?Sized,
    {
        assert_eq!(start.len(), 2, "grid search only supports p = 1 (2 params)");
        assert!(self.resolution >= 2, "grid resolution must be at least 2");
        let mut best_point = start.to_vec();
        let mut best_value = f64::NEG_INFINITY;
        let mut history = Vec::with_capacity(self.resolution * self.resolution);
        let mut evaluations = 0usize;
        let mut non_finite_evals = 0usize;
        for i in 0..self.resolution {
            for j in 0..self.resolution {
                let gamma = 2.0 * std::f64::consts::PI * i as f64 / self.resolution as f64;
                let beta = std::f64::consts::PI * j as f64 / self.resolution as f64;
                let point = [gamma, beta];
                evaluations += 1;
                let value = objective(&point);
                non_finite_evals += usize::from(!value.is_finite());
                // Non-finite grid points are skipped, not propagated as best.
                if improves(value, best_value) {
                    best_value = value;
                    best_point = point.to_vec();
                }
                history.push(best_value);
            }
        }
        OptimizationResult {
            best_point,
            best_value,
            history,
            evaluations,
            non_finite_evals,
        }
    }
}

/// Wraps a deterministic objective so that each distinct point is computed
/// once. A repeated query is answered from a table keyed on the exact
/// `f64::to_bits` of every coordinate, so it returns the bits the first
/// call returned; `0.0` and `-0.0`, or two NaN payloads, are distinct keys.
///
/// Only valid when `objective` is a pure function of those bits, as
/// [`crate::Evaluator::expectation_flat`] is: a stochastic or stateful
/// objective would have every later draw at a point replaced by its first.
/// For a pure objective an optimizer sees the same values, takes the same
/// branches and counts the same [`OptimizationResult::evaluations`]. It
/// pays off for Nelder–Mead, whose collapsed simplex keeps querying
/// vertices it has already evaluated.
pub fn memoized<F>(mut objective: F) -> impl FnMut(&[f64]) -> f64
where
    F: FnMut(&[f64]) -> f64,
{
    let mut seen: HashMap<Vec<u64>, f64> = HashMap::new();
    let mut key = Vec::new();
    move |x: &[f64]| {
        key.clear();
        key.extend(x.iter().map(|v| v.to_bits()));
        if let Some(&value) = seen.get(key.as_slice()) {
            return value;
        }
        let value = objective(x);
        seen.insert(key.clone(), value);
        value
    }
}

/// Forces a history to be monotone non-decreasing (best-so-far semantics).
/// NaN entries (a diverged stretch of the trace) are overwritten by the
/// previous best-so-far, so downstream convergence metrics stay usable.
fn make_monotone(history: &mut [f64]) {
    for i in 1..history.len() {
        let prev = history[i - 1];
        // Overwrite both "strictly less" and NaN entries; a NaN prev is
        // never copied forward over a finite entry.
        if prev.is_finite() && (history[i] < prev || history[i].is_nan()) {
            history[i] = prev;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrand::rngs::StdRng;
    use qrand::SeedableRng;

    /// Smooth 2-d test objective with maximum 3.0 at (1, -2).
    fn bowl(x: &[f64]) -> f64 {
        3.0 - (x[0] - 1.0).powi(2) - (x[1] + 2.0).powi(2)
    }

    /// Periodic objective mimicking a QAOA landscape; max 1 at (π/4, π/8).
    fn periodic(x: &[f64]) -> f64 {
        (2.0 * x[0]).sin() * (4.0 * x[1]).sin()
    }

    #[test]
    fn nelder_mead_finds_bowl_maximum() {
        let mut rng = StdRng::seed_from_u64(41);
        let r = NelderMead::new(200).maximize(bowl, &[4.0, 4.0], &mut rng);
        assert!((r.best_value - 3.0).abs() < 1e-6, "value {}", r.best_value);
        assert!((r.best_point[0] - 1.0).abs() < 1e-3);
        assert!((r.best_point[1] + 2.0).abs() < 1e-3);
    }

    #[test]
    fn grid_search_finds_periodic_maximum() {
        let mut rng = StdRng::seed_from_u64(44);
        let r = GridSearch { resolution: 64 }.maximize(periodic, &[0.0, 0.0], &mut rng);
        assert!(r.best_value > 0.99, "value {}", r.best_value);
        assert_eq!(r.evaluations, 64 * 64);
    }

    #[test]
    fn histories_are_monotone_and_reach_best() {
        let mut rng = StdRng::seed_from_u64(45);
        type Runner = Box<dyn Fn(&mut StdRng) -> OptimizationResult>;
        let optimizers: Vec<Runner> = vec![
            Box::new(|rng| NelderMead::new(100).maximize(periodic, &[0.3, 0.1], rng)),
            Box::new(|rng| GridSearch { resolution: 16 }.maximize(periodic, &[0.0, 0.0], rng)),
        ];
        for run in optimizers {
            let r = run(&mut rng);
            assert!(!r.history.is_empty());
            for w in r.history.windows(2) {
                assert!(w[1] >= w[0] - 1e-12, "history must be monotone");
            }
            let last = *r.history.last().unwrap();
            assert!((last - r.best_value).abs() < 1e-9);
            assert!(r.evaluations > 0);
        }
    }

    #[test]
    fn iterations_to_fraction() {
        let r = OptimizationResult {
            best_point: vec![0.0],
            best_value: 10.0,
            history: vec![2.0, 5.0, 9.0, 10.0],
            evaluations: 4,
            non_finite_evals: 0,
        };
        assert_eq!(r.iterations_to_fraction(0.5), Some(2));
        assert_eq!(r.iterations_to_fraction(0.95), Some(4));
        assert_eq!(r.iterations_to_fraction(0.1), Some(1));
    }

    #[test]
    fn nelder_mead_early_stop_with_tolerance() {
        let mut rng = StdRng::seed_from_u64(46);
        let nm = NelderMead {
            max_iterations: 10_000,
            initial_step: 0.5,
            tolerance: 1e-10,
        };
        let r = nm.maximize(bowl, &[2.0, 0.0], &mut rng);
        assert!(r.history.len() < 10_000, "should converge early");
        assert!((r.best_value - 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "p = 1")]
    fn grid_search_rejects_higher_dims() {
        let mut rng = StdRng::seed_from_u64(47);
        let _ = GridSearch::default().maximize(|_| 0.0, &[0.0; 4], &mut rng);
    }

    /// `bowl` with a NaN hole around `hole`: the divergence-injection
    /// objective the fault-tolerance requirements call for.
    fn bowl_with_hole(hole: [f64; 2]) -> impl Fn(&[f64]) -> f64 {
        move |x: &[f64]| {
            if (x[0] - hole[0]).abs() < 0.5 && (x[1] - hole[1]).abs() < 0.5 {
                f64::NAN
            } else {
                bowl(x)
            }
        }
    }

    #[test]
    fn nelder_mead_survives_nan_objective() {
        // The hole sits right on the simplex's path from the start toward
        // the optimum; the old partial_cmp().expect() panicked here.
        let mut rng = StdRng::seed_from_u64(50);
        let r = NelderMead::new(300).maximize(bowl_with_hole([2.0, 0.0]), &[4.0, 4.0], &mut rng);
        assert!(r.best_value.is_finite());
        assert!(!r.diverged());
        assert!(r.best_value > bowl(&[4.0, 4.0]), "should still improve");
    }

    #[test]
    fn all_nan_objective_reports_divergence_instead_of_panicking() {
        let mut rng = StdRng::seed_from_u64(51);
        let r = NelderMead::new(40).maximize(|_| f64::NAN, &[0.5, 0.5], &mut rng);
        assert!(r.diverged());
        assert_eq!(r.non_finite_evals, r.evaluations);
    }

    #[test]
    fn history_has_one_entry_per_iteration() {
        let mut rng = StdRng::seed_from_u64(53);
        let objectives: [fn(&[f64]) -> f64; 3] = [bowl, periodic, |_| f64::NAN];
        for objective in objectives {
            for budget in [0, 1, 7, 40] {
                let nm = NelderMead {
                    max_iterations: budget,
                    initial_step: 0.5,
                    tolerance: 0.0,
                };
                let r = nm.maximize(objective, &[0.3, 0.1], &mut rng);
                assert_eq!(r.history.len(), budget, "budget {budget}");
                if let Some(&last) = r.history.last() {
                    assert_eq!(last.to_bits(), r.best_value.to_bits(), "budget {budget}");
                }
            }
        }
    }

    #[test]
    fn grid_search_skips_non_finite_cells() {
        let mut rng = StdRng::seed_from_u64(52);
        // NaN exactly at the periodic maximum: the best grid cell must be
        // the best *finite* cell, not the poisoned one.
        let poisoned = |x: &[f64]| {
            let v = periodic(x);
            if v > 0.999 {
                f64::NAN
            } else {
                v
            }
        };
        let r = GridSearch { resolution: 64 }.maximize(poisoned, &[0.0, 0.0], &mut rng);
        assert!(r.best_value.is_finite());
        assert!(r.best_value > 0.9);
        assert!(r.non_finite_evals > 0);
    }

    /// `f` plus a counter of the calls that actually reached it.
    fn counting<'a>(
        calls: &'a std::cell::Cell<usize>,
        f: impl Fn(&[f64]) -> f64 + 'a,
    ) -> impl Fn(&[f64]) -> f64 + 'a {
        move |x: &[f64]| {
            calls.set(calls.get() + 1);
            f(x)
        }
    }

    /// Bit-level equality of two results (`==` would fail on NaN).
    fn assert_same_bits(a: &OptimizationResult, b: &OptimizationResult) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.best_point), bits(&b.best_point));
        assert_eq!(a.best_value.to_bits(), b.best_value.to_bits());
        assert_eq!(bits(&a.history), bits(&b.history));
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.non_finite_evals, b.non_finite_evals);
    }

    #[test]
    fn memoized_trace_simulates_less_and_returns_the_same_bits() {
        let calls = std::cell::Cell::new(0);
        let nm = NelderMead::new(500);
        let mut rng = StdRng::seed_from_u64(53);
        let bare = nm.maximize(periodic, &[0.3, 0.1], &mut rng);
        let memo = nm.maximize(memoized(counting(&calls, periodic)), &[0.3, 0.1], &mut rng);
        assert_same_bits(&bare, &memo);
        assert!(
            calls.get() < memo.evaluations,
            "{} simulations for {} queries",
            calls.get(),
            memo.evaluations
        );
    }

    #[test]
    fn memoized_nan_hole_counts_every_non_finite_query() {
        let calls = std::cell::Cell::new(0);
        let nm = NelderMead::new(300);
        let mut rng = StdRng::seed_from_u64(50);
        let objective = bowl_with_hole([2.0, 0.0]);
        let bare = nm.maximize(&objective, &[4.0, 4.0], &mut rng);
        let memo = nm.maximize(
            memoized(counting(&calls, &objective)),
            &[4.0, 4.0],
            &mut rng,
        );
        assert!(bare.non_finite_evals > 0, "the trace must cross the hole");
        assert_same_bits(&bare, &memo);
        assert!(calls.get() < memo.evaluations);
    }

    #[test]
    fn memoized_keys_on_bits_not_values() {
        let calls = std::cell::Cell::new(0);
        let mut f = memoized(counting(&calls, |x| x[0]));
        assert_eq!(f(&[0.0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(f(&[-0.0]).to_bits(), (-0.0f64).to_bits());
        assert_eq!(f(&[0.0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(calls.get(), 2);
    }
}

#[cfg(test)]
mod nan_properties {
    use super::*;
    use qrand::SeedableRng;

    // Property: wherever a single NaN cell is injected into the p=1 grid
    // domain, GridSearch returns a finite best value outside the poisoned
    // cell, and NelderMead started inside it reports rather than panics.
    qcheck::properties! {
        fn injected_nan_never_wins(ci in 0usize..8, cj in 0usize..8, seed in 0u64..1000) {
            let cell_w = 2.0 * std::f64::consts::PI / 8.0;
            let cell_h = std::f64::consts::PI / 8.0;
            let objective = |x: &[f64]| {
                let in_cell = (x[0] / cell_w) as usize == ci && (x[1] / cell_h) as usize == cj;
                if in_cell {
                    f64::NAN
                } else {
                    (2.0 * x[0]).sin() * (4.0 * x[1]).sin()
                }
            };
            let mut rng = qrand::rngs::StdRng::seed_from_u64(seed);
            let grid = GridSearch { resolution: 16 }.maximize(objective, &[0.0, 0.0], &mut rng);
            qcheck::prop_assert!(grid.best_value.is_finite());
            qcheck::prop_assert!(objective(&grid.best_point).is_finite());

            let r = NelderMead::new(30).maximize(objective, &[ci as f64 * cell_w + 0.1, cj as f64 * cell_h + 0.1], &mut rng);
            // Either a finite optimum was found or the trace stayed inside
            // the hole (possible but must be reported, not panicked).
            qcheck::prop_assert!(r.best_value.is_finite() || r.non_finite_evals > 0);
        }
    }
}
