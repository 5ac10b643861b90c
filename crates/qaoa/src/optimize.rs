//! Classical outer-loop optimizers for the QAOA objective.
//!
//! The paper's labeling loop "starts with randomly initialized values of γ
//! and β, and then undergoes a process of optimization over 500 iterations"
//! (§3.1). Every optimizer here maximizes a black-box objective
//! `f: R^k → R` under a fixed evaluation budget and records the best value
//! after each iteration, which is what the warm-start comparisons plot.
//!
//! * [`NelderMead`] — derivative-free simplex search; the default labeler.
//! * [`Spsa`] — simultaneous-perturbation stochastic approximation, the
//!   optimizer commonly used on real NISQ hardware (two evaluations per
//!   iteration regardless of dimension).
//! * [`GridSearch`] — exhaustive p=1 baseline over the periodic domain.

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
    /// Total number of objective evaluations used.
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
/// either strictly better or replacing a non-finite incumbent. This is the
/// single comparison every optimizer here uses to track its best point, so
/// a NaN-returning objective can never be propagated as "best".
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

        for _ in 0..self.max_iterations {
            // Sort descending by value (we maximize): best first, any
            // non-finite vertex last so it is the next to be replaced.
            simplex.sort_by(|a, b| cmp_desc(a.1, b.1));
            let best = simplex[0].1;
            let worst = simplex[k].1;
            history.push(best);
            if self.tolerance > 0.0 && (best - worst).abs() < self.tolerance {
                // Early convergence: pad history so callers still see a
                // monotone curve of full length semantics.
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
        }

        simplex.sort_by(|a, b| cmp_desc(a.1, b.1));
        // Record the final best if the loop body never pushed it.
        if history.last().copied() != Some(simplex[0].1) {
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
// SPSA
// ---------------------------------------------------------------------------

/// Simultaneous-perturbation stochastic approximation (maximizing).
///
/// Uses the standard gain sequences `a_k = a / (k + 1 + A)^α` and
/// `c_k = c / (k + 1)^γ`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spsa {
    /// Iteration budget.
    pub max_iterations: usize,
    /// Step-size numerator `a`.
    pub a: f64,
    /// Stability constant `A`.
    pub big_a: f64,
    /// Step-size exponent `α`.
    pub alpha: f64,
    /// Perturbation numerator `c`.
    pub c: f64,
    /// Perturbation exponent `γ`.
    pub gamma: f64,
}

impl Default for Spsa {
    fn default() -> Self {
        Spsa {
            max_iterations: 500,
            a: 0.2,
            big_a: 10.0,
            alpha: 0.602,
            c: 0.15,
            gamma: 0.101,
        }
    }
}

impl Spsa {
    /// Creates an SPSA optimizer with the given iteration budget.
    pub fn new(max_iterations: usize) -> Self {
        Spsa {
            max_iterations,
            ..Spsa::default()
        }
    }
}

impl Maximizer for Spsa {
    fn maximize<F, R>(&self, mut objective: F, start: &[f64], rng: &mut R) -> OptimizationResult
    where
        F: FnMut(&[f64]) -> f64,
        R: Rng + ?Sized,
    {
        assert!(!start.is_empty(), "start point must be non-empty");
        let k = start.len();
        let mut x = start.to_vec();
        let mut evaluations = 0usize;
        let mut non_finite_evals = 0usize;
        let mut best_point = x.clone();
        let mut best_value = {
            evaluations += 1;
            objective(&x)
        };
        if !best_value.is_finite() {
            non_finite_evals += 1;
        }
        let mut history = Vec::with_capacity(self.max_iterations);

        for iter in 0..self.max_iterations {
            let ak = self.a / ((iter as f64 + 1.0 + self.big_a).powf(self.alpha));
            let ck = self.c / ((iter as f64 + 1.0).powf(self.gamma));
            // Rademacher perturbation.
            let delta: Vec<f64> = (0..k)
                .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                .collect();
            let plus: Vec<f64> = x.iter().zip(&delta).map(|(xi, d)| xi + ck * d).collect();
            let minus: Vec<f64> = x.iter().zip(&delta).map(|(xi, d)| xi - ck * d).collect();
            evaluations += 2;
            let f_plus = objective(&plus);
            let f_minus = objective(&minus);
            non_finite_evals += usize::from(!f_plus.is_finite());
            non_finite_evals += usize::from(!f_minus.is_finite());
            let scale = (f_plus - f_minus) / (2.0 * ck);
            if scale.is_finite() {
                for (xi, d) in x.iter_mut().zip(&delta) {
                    // Ascent: move along the estimated gradient.
                    *xi += ak * scale * d;
                }
            }
            // A non-finite gradient estimate skips the update entirely so
            // one divergent evaluation cannot poison the iterate.
            evaluations += 1;
            let f_x = objective(&x);
            non_finite_evals += usize::from(!f_x.is_finite());
            if improves(f_x, best_value) {
                best_value = f_x;
                best_point = x.clone();
            }
            history.push(best_value);
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

// ---------------------------------------------------------------------------
// Multi-start wrapper
// ---------------------------------------------------------------------------

/// Runs an inner optimizer from several random restarts (plus the supplied
/// start) and keeps the best outcome — the standard defense against the
/// local traps §3.3 of the paper blames for its noisy labels.
///
/// Restart points are sampled uniformly from per-coordinate ranges supplied
/// at construction (for QAOA: `γ ∈ [0, 2π)`, `β ∈ [0, π)`).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiStart<M> {
    inner: M,
    restarts: usize,
    ranges: Vec<(f64, f64)>,
}

impl<M: Maximizer> MultiStart<M> {
    /// Wraps `inner` with `restarts` additional random starts drawn from
    /// `ranges` (one `(lo, hi)` pair per coordinate).
    ///
    /// # Panics
    ///
    /// Panics if any range is empty or reversed.
    pub fn new(inner: M, restarts: usize, ranges: Vec<(f64, f64)>) -> Self {
        assert!(
            ranges.iter().all(|&(lo, hi)| lo < hi),
            "every restart range must satisfy lo < hi"
        );
        MultiStart {
            inner,
            restarts,
            ranges,
        }
    }

    /// The standard QAOA ranges for depth `p`: γ over `[0, 2π)`, β over
    /// `[0, π)`.
    pub fn qaoa(inner: M, restarts: usize, depth: usize) -> Self {
        let mut ranges = vec![(0.0, 2.0 * std::f64::consts::PI); depth];
        ranges.extend(vec![(0.0, std::f64::consts::PI); depth]);
        Self::new(inner, restarts, ranges)
    }
}

impl<M: Maximizer> Maximizer for MultiStart<M> {
    fn maximize<F, R>(&self, mut objective: F, start: &[f64], rng: &mut R) -> OptimizationResult
    where
        F: FnMut(&[f64]) -> f64,
        R: Rng + ?Sized,
    {
        assert_eq!(
            start.len(),
            self.ranges.len(),
            "start dimension must match restart ranges"
        );
        let mut best = self.inner.maximize(&mut objective, start, rng);
        let mut history = best.history.clone();
        for _ in 0..self.restarts {
            let restart: Vec<f64> = self
                .ranges
                .iter()
                .map(|&(lo, hi)| rng.gen_range(lo..hi))
                .collect();
            let result = self.inner.maximize(&mut objective, &restart, rng);
            best.evaluations += result.evaluations;
            best.non_finite_evals += result.non_finite_evals;
            history.extend(result.history.iter().copied());
            // A restart whose best is non-finite is skipped outright; a
            // finite restart also replaces a non-finite incumbent from the
            // supplied start, so one diverged trajectory never wins.
            if improves(result.best_value, best.best_value) {
                best.best_point = result.best_point;
                best.best_value = result.best_value;
            }
        }
        make_monotone(&mut history);
        OptimizationResult {
            history,
            ..best
        }
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
    fn spsa_improves_on_start() {
        let mut rng = StdRng::seed_from_u64(42);
        let r = Spsa::new(400).maximize(bowl, &[3.0, 1.0], &mut rng);
        assert!(r.best_value > bowl(&[3.0, 1.0]) + 1.0);
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
            Box::new(|rng| Spsa::new(100).maximize(periodic, &[0.3, 0.1], rng)),
            Box::new(|rng| {
                GridSearch { resolution: 16 }.maximize(periodic, &[0.0, 0.0], rng)
            }),
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

    #[test]
    fn multi_start_escapes_local_trap() {
        // A bimodal objective: small bump at x=-2, big bump at x=3. Plain
        // Nelder–Mead from x=-2.5 climbs the small bump; multi-start over
        // [-5, 5] finds the big one.
        let bimodal = |x: &[f64]| {
            let small = (-((x[0] + 2.0).powi(2))).exp();
            let big = 3.0 * (-((x[0] - 3.0).powi(2))).exp();
            small + big
        };
        let mut rng = StdRng::seed_from_u64(48);
        let plain = NelderMead::new(80).maximize(bimodal, &[-2.5], &mut rng);
        assert!(plain.best_value < 1.5, "plain NM should be trapped");
        let multi = MultiStart::new(NelderMead::new(80), 10, vec![(-5.0, 5.0)]);
        let escaped = multi.maximize(bimodal, &[-2.5], &mut rng);
        assert!((escaped.best_value - 3.0).abs() < 0.1, "{}", escaped.best_value);
        assert!(escaped.evaluations > plain.evaluations);
        for w in escaped.history.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn multi_start_qaoa_ranges() {
        let ms = MultiStart::qaoa(NelderMead::new(10), 2, 2);
        let mut rng = StdRng::seed_from_u64(49);
        // 2p = 4 coordinates expected.
        let r = ms.maximize(|x| -x.iter().map(|v| v * v).sum::<f64>(), &[0.1; 4], &mut rng);
        assert_eq!(r.best_point.len(), 4);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn multi_start_rejects_bad_range() {
        let _ = MultiStart::new(NelderMead::new(10), 1, vec![(1.0, 1.0)]);
    }

    #[test]
    fn deterministic_given_seed() {
        let r1 = Spsa::new(50).maximize(periodic, &[0.2, 0.2], &mut StdRng::seed_from_u64(7));
        let r2 = Spsa::new(50).maximize(periodic, &[0.2, 0.2], &mut StdRng::seed_from_u64(7));
        assert_eq!(r1, r2);
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
        let r = Spsa::new(40).maximize(|_| f64::NAN, &[0.5, 0.5], &mut rng);
        assert!(r.diverged());
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

    #[test]
    fn multi_start_ignores_nan_trajectories() {
        // The supplied start lands inside the NaN hole, so the first inner
        // run diverges outright; a finite restart must replace it.
        let objective = bowl_with_hole([4.0, 4.0]);
        let mut rng = StdRng::seed_from_u64(53);
        let direct = NelderMead::new(5).maximize(&objective, &[4.0, 4.0], &mut rng);
        assert!(direct.non_finite_evals > 0, "start must hit the hole");
        let multi = MultiStart::new(NelderMead::new(60), 8, vec![(-5.0, 5.0), (-5.0, 5.0)]);
        let r = multi.maximize(&objective, &[4.0, 4.0], &mut rng);
        assert!(r.best_value.is_finite());
        assert!((r.best_value - 3.0).abs() < 0.1, "{}", r.best_value);
    }
}

#[cfg(test)]
mod nan_properties {
    use super::*;
    use qrand::SeedableRng;

    // Property: wherever a single NaN cell is injected into the p=1 grid
    // domain, GridSearch and MultiStart(NelderMead) both return a finite
    // best value and never select a point inside the poisoned cell.
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

            let multi = MultiStart::qaoa(NelderMead::new(30), 3, 1);
            let r = multi.maximize(objective, &[ci as f64 * cell_w + 0.1, cj as f64 * cell_h + 0.1], &mut rng);
            // Either a finite optimum was found or every trajectory stayed
            // inside the hole (possible but must be reported, not panicked).
            qcheck::prop_assert!(r.best_value.is_finite() || r.non_finite_evals > 0);
        }
    }
}
