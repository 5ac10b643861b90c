//! Landscape analysis for the p=1 QAOA objective.
//!
//! §3.3 attributes the dataset's low-quality labels to "the inherently
//! complex optimization landscape of the QAOA algorithm. Random
//! initialization may lead the optimizer into regions where not even local
//! optima exist." This module makes that claim measurable: scan the
//! `(γ, β)` plane, count local maxima, and estimate the basin of attraction
//! of the global optimum — the quantities behind the warm-start motivation.

use crate::{Evaluator, MaxCutHamiltonian, QaoaCircuit};

/// A dense scan of the p=1 objective over the canonical domain
/// `γ ∈ [0, π] × β ∈ [0, π/2]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Landscape {
    /// Grid resolution per axis.
    pub resolution: usize,
    /// Row-major expectations: `values[i * resolution + j]` is the value at
    /// `γ_i = i·π/(R−1)`, `β_j = j·(π/2)/(R−1)`.
    pub values: Vec<f64>,
    /// The classical optimum (for converting to approximation ratios).
    pub optimal: f64,
}

impl Landscape {
    /// Scans the objective on an `resolution × resolution` grid.
    ///
    /// # Panics
    ///
    /// Panics if `resolution < 3` (local-maximum detection needs interior
    /// points).
    pub fn scan(hamiltonian: &MaxCutHamiltonian, resolution: usize) -> Self {
        assert!(resolution >= 3, "resolution must be at least 3");
        let circuit = QaoaCircuit::new(hamiltonian.clone());
        // One evaluator for the whole scan: resolution² circuit runs on a
        // single scratch buffer.
        let mut evaluator = Evaluator::new(&circuit);
        let mut values = Vec::with_capacity(resolution * resolution);
        for i in 0..resolution {
            let gamma = std::f64::consts::PI * i as f64 / (resolution - 1) as f64;
            for j in 0..resolution {
                let beta = std::f64::consts::FRAC_PI_2 * j as f64 / (resolution - 1) as f64;
                values.push(evaluator.expectation_flat(&[gamma, beta]));
            }
        }
        Landscape {
            resolution,
            values,
            optimal: hamiltonian.optimal_value(),
        }
    }

    /// The grid point coordinates `(γ, β)` of cell `(i, j)`.
    pub fn point(&self, i: usize, j: usize) -> (f64, f64) {
        (
            std::f64::consts::PI * i as f64 / (self.resolution - 1) as f64,
            std::f64::consts::FRAC_PI_2 * j as f64 / (self.resolution - 1) as f64,
        )
    }

    /// Value at cell `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn value(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.resolution && j < self.resolution,
            "index out of range"
        );
        self.values[i * self.resolution + j]
    }

    /// The best grid value.
    pub fn max_value(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The best grid point's `(γ, β)`.
    pub fn argmax(&self) -> (f64, f64) {
        let mut best = 0;
        for (k, &v) in self.values.iter().enumerate() {
            if v > self.values[best] {
                best = k;
            }
        }
        self.point(best / self.resolution, best % self.resolution)
    }

    /// Counts strict local maxima over the 4-neighborhood (interior cells
    /// only) — a ruggedness measure of the landscape.
    pub fn local_maxima(&self) -> Vec<(f64, f64, f64)> {
        let r = self.resolution;
        let mut maxima = Vec::new();
        for i in 1..r - 1 {
            for j in 1..r - 1 {
                let v = self.value(i, j);
                if v > self.value(i - 1, j)
                    && v > self.value(i + 1, j)
                    && v > self.value(i, j - 1)
                    && v > self.value(i, j + 1)
                {
                    let (gamma, beta) = self.point(i, j);
                    maxima.push((gamma, beta, v));
                }
            }
        }
        maxima
    }

    /// Fraction of grid cells from which steepest-ascent hill climbing on
    /// the grid reaches a cell within `tolerance` of the grid maximum —
    /// the "basin of attraction" a random initialization must hit.
    pub fn global_basin_fraction(&self, tolerance: f64) -> f64 {
        let r = self.resolution;
        let target = self.max_value() - tolerance;
        let mut hits = 0usize;
        for start_i in 0..r {
            for start_j in 0..r {
                let (mut i, mut j) = (start_i, start_j);
                loop {
                    let mut best = (i, j);
                    let mut best_v = self.value(i, j);
                    let neighbors = [
                        (i.wrapping_sub(1), j),
                        (i + 1, j),
                        (i, j.wrapping_sub(1)),
                        (i, j + 1),
                    ];
                    for (ni, nj) in neighbors {
                        if ni < r && nj < r && self.value(ni, nj) > best_v {
                            best_v = self.value(ni, nj);
                            best = (ni, nj);
                        }
                    }
                    if best == (i, j) {
                        break;
                    }
                    (i, j) = best;
                }
                if self.value(i, j) >= target {
                    hits += 1;
                }
            }
        }
        hits as f64 / (r * r) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgraph::Graph;

    fn landscape(g: &Graph, resolution: usize) -> Landscape {
        Landscape::scan(&MaxCutHamiltonian::new(g), resolution)
    }

    #[test]
    fn scan_shape_and_bounds() {
        let g = Graph::cycle(6).unwrap();
        let ls = landscape(&g, 17);
        assert_eq!(ls.values.len(), 17 * 17);
        assert!(ls.max_value() <= ls.optimal + 1e-9);
        // Zero angles live at cell (0, 0): uniform-superposition value W/2.
        assert!((ls.value(0, 0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn argmax_is_near_ring_optimum() {
        let g = Graph::cycle(8).unwrap();
        let ls = landscape(&g, 33);
        let (gamma, beta) = ls.argmax();
        // The ring optimum (π/4, π/8) — or, because even rings are
        // bipartite, its mirror (3π/4, 3π/8) — lies in the canonical
        // domain.
        let near = |x: f64, t: f64| (x - t).abs() < 0.15;
        assert!(
            (near(gamma, std::f64::consts::FRAC_PI_4) && near(beta, std::f64::consts::PI / 8.0))
                || (near(gamma, 3.0 * std::f64::consts::FRAC_PI_4)
                    && near(beta, 3.0 * std::f64::consts::PI / 8.0)),
            "unexpected argmax ({gamma}, {beta})"
        );
        assert!((ls.max_value() / ls.optimal - 0.75).abs() < 0.02);
    }

    #[test]
    fn local_maxima_exist_and_include_global() {
        let g = Graph::complete(5).unwrap();
        let ls = landscape(&g, 25);
        let maxima = ls.local_maxima();
        assert!(!maxima.is_empty());
        let best_local = maxima
            .iter()
            .map(|&(_, _, v)| v)
            .fold(f64::NEG_INFINITY, f64::max);
        // The global grid max is either a local max or on the boundary.
        assert!(best_local <= ls.max_value() + 1e-12);
    }

    #[test]
    fn basin_fraction_in_unit_interval_and_monotone_in_tolerance() {
        let g = Graph::cycle(5).unwrap();
        let ls = landscape(&g, 21);
        let tight = ls.global_basin_fraction(1e-6);
        let loose = ls.global_basin_fraction(0.5);
        assert!((0.0..=1.0).contains(&tight));
        assert!((0.0..=1.0).contains(&loose));
        assert!(loose >= tight, "looser tolerance cannot shrink the basin");
        assert!(loose > 0.0, "some cell must reach the maximum");
    }

    #[test]
    #[should_panic(expected = "resolution")]
    fn tiny_resolution_rejected() {
        let g = Graph::cycle(4).unwrap();
        let _ = landscape(&g, 2);
    }
}
