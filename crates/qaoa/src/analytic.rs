//! Closed-form p=1 QAOA expectation for unweighted Max-Cut.
//!
//! Wang, Hadfield, Jiang & Rieffel (Phys. Rev. A 97, 022304, 2018) derived
//! the exact depth-1 expectation of each edge's cut operator in terms of the
//! endpoint degrees and the number of triangles through the edge:
//!
//! ```text
//! ⟨C_uv⟩ = 1/2 + (1/4)·sin(4β)·sin(γ)·(cos^e γ + cos^f γ)
//!        − (1/4)·sin²(2β)·cos^{e+f−2λ} γ·(1 − cos^λ (2γ))
//! ```
//!
//! with `e = deg(u) − 1`, `f = deg(v) − 1` and `λ` the number of common
//! neighbors of `u` and `v`. This module provides that formula as an
//! independent oracle: the simulator is tested against it on arbitrary
//! unweighted graphs, and the fixed-angle module optimizes it in closed
//! loop instead of a `2^n` state vector.

use qgraph::Graph;

/// The closed-form p=1 expectation of a single edge's cut operator.
///
/// `degree_u`/`degree_v` are the endpoint degrees (must be ≥ 1 since the
/// edge itself exists) and `triangles` the number of common neighbors.
///
/// # Panics
///
/// Panics if either degree is 0 (the edge would not exist) or if
/// `triangles` exceeds `min(degree_u, degree_v) - 1`.
pub fn edge_expectation(
    gamma: f64,
    beta: f64,
    degree_u: usize,
    degree_v: usize,
    triangles: usize,
) -> f64 {
    assert!(
        degree_u >= 1 && degree_v >= 1,
        "edge endpoints must have degree >= 1"
    );
    assert!(
        triangles <= (degree_u - 1).min(degree_v - 1),
        "triangles through an edge cannot exceed min(deg)-1"
    );
    let e = (degree_u - 1) as i32;
    let f = (degree_v - 1) as i32;
    let lambda = triangles as i32;
    let cos_g = gamma.cos();
    let term1 = 0.25 * (4.0 * beta).sin() * gamma.sin() * (cos_g.powi(e) + cos_g.powi(f));
    let term2 = 0.25
        * (2.0 * beta).sin().powi(2)
        * cos_g.powi(e + f - 2 * lambda)
        * (1.0 - (2.0 * gamma).cos().powi(lambda));
    0.5 + term1 - term2
}

/// The closed-form p=1 expectation `⟨C⟩` of the whole (unweighted) graph:
/// the sum of [`edge_expectation`] over all edges.
///
/// # Panics
///
/// Panics if the graph has non-unit edge weights; the closed form is only
/// valid for unweighted Max-Cut.
pub fn graph_expectation(graph: &Graph, gamma: f64, beta: f64) -> f64 {
    assert!(
        graph.is_unweighted(),
        "analytic p=1 formula requires an unweighted graph"
    );
    graph
        .edges()
        .iter()
        .map(|edge| {
            edge_expectation(
                gamma,
                beta,
                graph.degree(edge.u),
                graph.degree(edge.v),
                graph.common_neighbors(edge.u, edge.v),
            )
        })
        .sum()
}

/// The per-edge p=1 expectation of an (infinite) d-regular triangle-free
/// graph — the "tree subgraph" objective the fixed-angle conjecture
/// optimizes (Wurtz & Lykov, Phys. Rev. A 104, 052419, 2021).
///
/// # Panics
///
/// Panics if `degree == 0`.
pub fn regular_tree_edge_expectation(gamma: f64, beta: f64, degree: usize) -> f64 {
    edge_expectation(gamma, beta, degree, degree, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MaxCutHamiltonian, Params, QaoaCircuit};
    use qgraph::Graph;
    use qrand::rngs::StdRng;
    use qrand::SeedableRng;

    fn simulator_expectation(g: &Graph, gamma: f64, beta: f64) -> f64 {
        let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(g));
        circuit.expectation(&Params::new(vec![gamma], vec![beta]))
    }

    #[test]
    fn single_edge_matches_simulator() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        for &(gamma, beta) in &[(0.3, 0.2), (1.1, 0.9), (2.0, 1.5)] {
            let analytic = graph_expectation(&g, gamma, beta);
            let sim = simulator_expectation(&g, gamma, beta);
            assert!(
                (analytic - sim).abs() < 1e-10,
                "γ={gamma} β={beta}: {analytic} vs {sim}"
            );
        }
    }

    #[test]
    fn triangle_matches_simulator() {
        // K3 exercises the λ > 0 term.
        let g = Graph::complete(3).unwrap();
        for &(gamma, beta) in &[(0.3, 0.2), (0.9, 0.7), (1.7, 1.2), (2.4, 0.1)] {
            let analytic = graph_expectation(&g, gamma, beta);
            let sim = simulator_expectation(&g, gamma, beta);
            assert!(
                (analytic - sim).abs() < 1e-10,
                "γ={gamma} β={beta}: {analytic} vs {sim}"
            );
        }
    }

    #[test]
    fn random_graphs_match_simulator() {
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..15 {
            let g = qgraph::generate::erdos_renyi(7, 0.45, &mut rng).unwrap();
            let gamma = 0.17 + 0.31 * trial as f64;
            let beta = 0.05 + 0.19 * trial as f64;
            let analytic = graph_expectation(&g, gamma, beta);
            let sim = simulator_expectation(&g, gamma, beta);
            assert!(
                (analytic - sim).abs() < 1e-9,
                "trial {trial}: {analytic} vs {sim}"
            );
        }
    }

    #[test]
    fn regular_graphs_match_simulator() {
        let mut rng = StdRng::seed_from_u64(32);
        for &(n, d) in &[(6, 3), (8, 3), (10, 4), (12, 5)] {
            let g = qgraph::generate::random_regular(n, d, &mut rng).unwrap();
            let analytic = graph_expectation(&g, 0.73, 0.41);
            let sim = simulator_expectation(&g, 0.73, 0.41);
            assert!(
                (analytic - sim).abs() < 1e-9,
                "n={n} d={d}: {analytic} vs {sim}"
            );
        }
    }

    #[test]
    fn ring_edge_expectation_peaks_at_known_angles() {
        // 2-regular triangle-free: 1/2 + (1/4)sin(4β)sin(2γ); max 3/4 at
        // β = π/8, γ = π/4.
        let best = regular_tree_edge_expectation(
            std::f64::consts::FRAC_PI_4,
            std::f64::consts::PI / 8.0,
            2,
        );
        assert!((best - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zero_angles_give_half() {
        for d in 1..8 {
            assert!((regular_tree_edge_expectation(0.0, 0.0, d) - 0.5).abs() < 1e-15);
        }
    }

    #[test]
    #[should_panic(expected = "unweighted")]
    fn weighted_graph_rejected() {
        let g = Graph::from_weighted_edges(2, &[(0, 1, 2.0)]).unwrap();
        let _ = graph_expectation(&g, 0.1, 0.1);
    }

    #[test]
    #[should_panic(expected = "degree >= 1")]
    fn zero_degree_rejected() {
        let _ = edge_expectation(0.1, 0.1, 0, 1, 0);
    }

    #[test]
    #[should_panic(expected = "triangles")]
    fn too_many_triangles_rejected() {
        let _ = edge_expectation(0.1, 0.1, 2, 2, 5);
    }
}
