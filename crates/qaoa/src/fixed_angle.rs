//! The fixed-angle conjecture for regular Max-Cut QAOA (§3.3).
//!
//! Wurtz & Lykov (Phys. Rev. A 104, 052419, 2021) observed that angles
//! optimized on the degree-d *tree subgraph* transfer to every d-regular
//! graph with near-optimal performance, removing per-instance optimization.
//! The paper consulted a published lookup covering degrees 3–11; here the
//! angles are *derived* rather than shipped: for p=1 the tree objective has
//! the closed form in [`crate::analytic::regular_tree_edge_expectation`]
//! whose maximizer is known analytically:
//!
//! ```text
//! β* = π/8,   γ* = arctan(1 / sqrt(d - 1))     (d > 1)
//! ```
//!
//! [`fixed_angles`] returns those closed-form angles and
//! [`tree_edge_value`] evaluates the tree objective at arbitrary angles
//! (used by the tests to confirm the closed form really is the maximizer).

use crate::analytic::regular_tree_edge_expectation;
use crate::Params;

/// Degree range the paper's external lookup covered (§3.3: "regular graphs
/// with degrees ranging from 3 to 11").
pub const LOOKUP_DEGREES: std::ops::RangeInclusive<usize> = 3..=11;

/// A fixed-angle entry for one degree.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedAngles {
    /// Regular-graph degree the angles were derived for.
    pub degree: usize,
    /// The p=1 parameters `(γ*, β*)`.
    pub params: Params,
    /// Per-edge tree-subgraph expectation at the fixed angles.
    pub tree_edge_value: f64,
}

/// Returns the p=1 fixed angles for a d-regular graph.
///
/// For `d = 1` the single-edge objective is maximized at `γ = π/2, β = π/8`;
/// for `d ≥ 2` the closed-form tree maximizer `γ* = arctan(1/√(d-1))`,
/// `β* = π/8` is used.
///
/// # Panics
///
/// Panics if `degree == 0` (no edges — nothing to fix).
pub fn fixed_angles(degree: usize) -> FixedAngles {
    assert!(degree >= 1, "fixed angles require degree >= 1");
    let beta = std::f64::consts::PI / 8.0;
    let gamma = if degree == 1 {
        std::f64::consts::FRAC_PI_2
    } else {
        (1.0 / ((degree - 1) as f64).sqrt()).atan()
    };
    let tree_edge_value = regular_tree_edge_expectation(gamma, beta, degree);
    FixedAngles {
        degree,
        params: Params::new(vec![gamma], vec![beta]),
        tree_edge_value,
    }
}

/// Evaluates the degree-d tree objective at arbitrary p=1 angles — the
/// function the conjecture maximizes.
///
/// # Panics
///
/// Panics if `degree == 0`.
pub fn tree_edge_value(degree: usize, gamma: f64, beta: f64) -> f64 {
    regular_tree_edge_expectation(gamma, beta, degree)
}

/// The fixed-angle table over the degree range the paper's lookup covered.
pub fn lookup_table() -> Vec<FixedAngles> {
    LOOKUP_DEGREES.map(fixed_angles).collect()
}

/// Returns fixed angles for a graph if it is regular with degree inside
/// [`LOOKUP_DEGREES`], mirroring the paper's partial coverage ("about 6% of
/// our dataset").
pub fn for_graph(graph: &qgraph::Graph) -> Option<FixedAngles> {
    let d = graph.regular_degree()?;
    if LOOKUP_DEGREES.contains(&d) {
        Some(fixed_angles(d))
    } else {
        None
    }
}

/// Best-effort fixed angles for *any* graph with at least one edge: uses
/// the exact degree when the graph is regular, otherwise the mean degree
/// rounded to the nearest integer, saturated at the top of
/// [`LOOKUP_DEGREES`] (the closed form covers degrees 1 and 2 below the
/// paper's table, so only the upper end is clamped).
///
/// Unlike [`for_graph`] — which mirrors the paper's partial coverage and
/// answers only for in-table regular graphs — this is the degradation
/// fallback for serving: when a GNN prediction cannot be trusted, the
/// nearest tree-subgraph angles are a principled initialization for
/// irregular and out-of-table instances too. Returns `None` only for
/// edgeless graphs (degree 0 — nothing to fix).
pub fn nearest_for_graph(graph: &qgraph::Graph) -> Option<FixedAngles> {
    if graph.m() == 0 {
        return None;
    }
    let d = match graph.regular_degree() {
        Some(d) => d,
        None => {
            let mean = 2.0 * graph.m() as f64 / graph.n() as f64;
            (mean.round() as usize).max(1)
        }
    };
    Some(fixed_angles(d.min(*LOOKUP_DEGREES.end())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MaxCutHamiltonian, QaoaCircuit};
    use qrand::rngs::StdRng;
    use qrand::SeedableRng;

    #[test]
    fn closed_form_is_a_local_maximum_of_tree_objective() {
        for d in 1..=14 {
            let fa = fixed_angles(d);
            let g0 = fa.params.gammas()[0];
            let b0 = fa.params.betas()[0];
            let center = tree_edge_value(d, g0, b0);
            let eps = 1e-4;
            for (dg, db) in [(eps, 0.0), (-eps, 0.0), (0.0, eps), (0.0, -eps)] {
                let nearby = tree_edge_value(d, g0 + dg, b0 + db);
                assert!(
                    nearby <= center + 1e-9,
                    "degree {d}: perturbation improved objective"
                );
            }
        }
    }

    #[test]
    fn closed_form_beats_dense_grid() {
        for d in 2..=6 {
            let fa = fixed_angles(d);
            let mut best_grid = f64::NEG_INFINITY;
            for i in 0..200 {
                for j in 0..100 {
                    let g = std::f64::consts::PI * i as f64 / 200.0;
                    let b = std::f64::consts::PI * j as f64 / 100.0;
                    best_grid = best_grid.max(tree_edge_value(d, g, b));
                }
            }
            assert!(
                fa.tree_edge_value >= best_grid - 1e-4,
                "degree {d}: closed form {} vs grid {best_grid}",
                fa.tree_edge_value
            );
        }
    }

    #[test]
    fn degree_2_matches_ring_angles() {
        let fa = fixed_angles(2);
        assert!((fa.params.gammas()[0] - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
        assert!((fa.params.betas()[0] - std::f64::consts::PI / 8.0).abs() < 1e-12);
        assert!((fa.tree_edge_value - 0.75).abs() < 1e-12);
    }

    #[test]
    fn tree_value_decreases_with_degree() {
        // Higher-degree graphs are harder at p=1: the per-edge guarantee
        // shrinks monotonically.
        let mut prev = f64::INFINITY;
        for d in 2..=14 {
            let v = fixed_angles(d).tree_edge_value;
            assert!(v < prev, "degree {d}");
            assert!(v > 0.5, "must beat random guessing");
            prev = v;
        }
    }

    #[test]
    fn lookup_table_covers_paper_range() {
        let table = lookup_table();
        assert_eq!(table.len(), 9);
        assert_eq!(table.first().unwrap().degree, 3);
        assert_eq!(table.last().unwrap().degree, 11);
    }

    #[test]
    fn for_graph_filters_by_regularity_and_range() {
        let ring = qgraph::Graph::cycle(6).unwrap(); // 2-regular, below range
        assert!(for_graph(&ring).is_none());
        let star = qgraph::Graph::star(5).unwrap(); // irregular
        assert!(for_graph(&star).is_none());
        let k4 = qgraph::Graph::complete(4).unwrap(); // 3-regular
        assert_eq!(for_graph(&k4).unwrap().degree, 3);
    }

    #[test]
    fn nearest_for_graph_covers_what_for_graph_cannot() {
        // Exact regular degree is used even below the paper's table.
        let ring = qgraph::Graph::cycle(6).unwrap(); // 2-regular
        assert_eq!(nearest_for_graph(&ring).unwrap().degree, 2);
        // Irregular: mean degree rounded. star(5) has 4 edges on 5 nodes
        // (mean 1.6 → 2).
        let star = qgraph::Graph::star(5).unwrap();
        assert_eq!(nearest_for_graph(&star).unwrap().degree, 2);
        // Above the table: saturate at its top.
        let k14 = qgraph::Graph::complete(14).unwrap(); // 13-regular
        assert_eq!(nearest_for_graph(&k14).unwrap().degree, 11);
        // Edgeless: nothing to fix.
        let empty = qgraph::Graph::empty(4).unwrap();
        assert!(nearest_for_graph(&empty).is_none());
        // Agrees with `for_graph` wherever the latter answers.
        let k4 = qgraph::Graph::complete(4).unwrap();
        assert_eq!(nearest_for_graph(&k4), for_graph(&k4));
    }

    #[test]
    fn fixed_angles_perform_well_on_actual_regular_graphs() {
        // The conjecture's claim: fixed angles give near-optimal p=1 AR on
        // real d-regular instances. Check they beat the uniform baseline
        // (AR of ~W/2 / opt) by a clear margin on random 3-regular graphs.
        let mut rng = StdRng::seed_from_u64(51);
        for _ in 0..5 {
            let g = qgraph::generate::random_regular(10, 3, &mut rng).unwrap();
            let fa = for_graph(&g).unwrap();
            let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(&g));
            let ar_fixed = circuit.approximation_ratio(&fa.params);
            let ar_uniform = circuit.approximation_ratio(&Params::zeros(1));
            assert!(
                ar_fixed > ar_uniform + 0.05,
                "fixed {ar_fixed} vs uniform {ar_uniform}"
            );
        }
    }
}
