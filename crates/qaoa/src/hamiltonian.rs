use qgraph::{maxcut, Graph};
use qsim::diagonal::DiagonalOperator;

/// The Max-Cut cost Hamiltonian of a graph, as a diagonal operator with the
/// classical optimum attached.
///
/// `C|z⟩ = cut(z)|z⟩` where `cut(z)` is the total weight of edges whose
/// endpoints take different bit values in `z`. Maximizing `⟨C⟩` is the QAOA
/// objective; the stored optimum (found by brute force) converts raw
/// expectations into the paper's approximation ratios.
///
/// # Example
///
/// ```
/// use qaoa::MaxCutHamiltonian;
/// use qgraph::Graph;
///
/// # fn main() -> Result<(), qgraph::GraphError> {
/// let ham = MaxCutHamiltonian::new(&Graph::complete(4)?);
/// assert_eq!(ham.optimal_value(), 4.0);
/// assert_eq!(ham.num_qubits(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MaxCutHamiltonian {
    graph: Graph,
    operator: DiagonalOperator,
    optimal_value: f64,
}

impl MaxCutHamiltonian {
    /// Builds the Hamiltonian and computes the classical optimum.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than [`qsim::MAX_QUBITS`] nodes (the
    /// diagonal table has `2^n` entries).
    pub fn new(graph: &Graph) -> Self {
        let n = graph.n();
        assert!(
            n <= qsim::MAX_QUBITS,
            "graph with {n} nodes exceeds the simulator limit of {} qubits",
            qsim::MAX_QUBITS
        );
        let operator = DiagonalOperator::new(cut_diagonal(graph));
        // The diagonal already enumerates all cuts; its maximum is the
        // optimum (avoids a second exponential sweep through brute_force).
        let optimal_value = operator.max_value();
        MaxCutHamiltonian {
            graph: graph.clone(),
            operator,
            optimal_value,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The diagonal operator.
    pub fn operator(&self) -> &DiagonalOperator {
        &self.operator
    }

    /// Number of qubits (= nodes).
    pub fn num_qubits(&self) -> usize {
        self.graph.n()
    }

    /// The optimal (maximum) cut value.
    pub fn optimal_value(&self) -> f64 {
        self.optimal_value
    }

    /// An optimal cut assignment.
    pub fn optimal_cut(&self) -> maxcut::Cut {
        let mask = self.operator.argmax();
        let side = (0..self.graph.n()).map(|v| (mask >> v) & 1 == 1).collect();
        maxcut::Cut::from_assignment(&self.graph, side)
    }

    /// Approximation ratio of an achieved expectation/cut value.
    pub fn approximation_ratio(&self, achieved: f64) -> f64 {
        maxcut::approximation_ratio(achieved, self.optimal_value)
    }
}

/// Every cut value `cut_value_mask(graph, z)`, bit for bit, built with one
/// branch-free sweep over the `2^n` entries per edge.
///
/// `cut_value_mask` sums the cut edges' weights in edge order, starting
/// from the empty sum. Each entry here starts from that same empty sum
/// (`-0.0`, not `+0.0`, on current toolchains: it decides the sign of an
/// uncut entry's zero) and, edge by edge, adds the weight where the edge
/// is cut and `-0.0` where it is not. `x + (-0.0) == x` for every `x`,
/// signed zeros included, so each entry sees exactly the additions
/// `cut_value_mask` makes, in the same order. The addend is picked with a
/// bit mask rather than a branch so the sweep vectorizes.
fn cut_diagonal(graph: &Graph) -> Vec<f64> {
    let empty_sum: f64 = std::iter::empty::<f64>().sum();
    let mut values = vec![empty_sum; 1usize << graph.n()];
    let uncut = (-0.0f64).to_bits();
    for e in graph.edges() {
        let cut = e.weight.to_bits();
        for (z, value) in (0u64..).zip(values.iter_mut()) {
            let mask = (((z >> e.u) ^ (z >> e.v)) & 1).wrapping_neg();
            *value += f64::from_bits((cut & mask) | (uncut & !mask));
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matches_cut_values() {
        let g = Graph::cycle(4).unwrap();
        let ham = MaxCutHamiltonian::new(&g);
        // |0101⟩ (mask 0b0101) cuts all four edges.
        assert_eq!(ham.operator().values()[0b0101], 4.0);
        // |0000⟩ cuts nothing.
        assert_eq!(ham.operator().values()[0], 0.0);
        assert_eq!(ham.optimal_value(), 4.0);
    }

    #[test]
    fn optimum_matches_brute_force() {
        use qrand::SeedableRng;
        let mut rng = qrand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let g = qgraph::generate::erdos_renyi(8, 0.5, &mut rng).unwrap();
            let ham = MaxCutHamiltonian::new(&g);
            assert_eq!(ham.optimal_value(), maxcut::brute_force(&g).value);
        }
    }

    #[test]
    fn optimal_cut_achieves_optimum() {
        let g = Graph::complete(5).unwrap();
        let ham = MaxCutHamiltonian::new(&g);
        let cut = ham.optimal_cut();
        assert_eq!(cut.value, ham.optimal_value());
    }

    #[test]
    fn weighted_hamiltonian() {
        let g = Graph::from_weighted_edges(2, &[(0, 1, 2.5)]).unwrap();
        let ham = MaxCutHamiltonian::new(&g);
        assert_eq!(ham.optimal_value(), 2.5);
        assert_eq!(ham.operator().values()[0b01], 2.5);
        assert_eq!(ham.operator().values()[0b11], 0.0);
    }

    #[test]
    fn approximation_ratio_uses_optimum() {
        let g = Graph::cycle(6).unwrap();
        let ham = MaxCutHamiltonian::new(&g);
        assert!((ham.approximation_ratio(3.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn edgeless_graph_ratio_is_one() {
        let g = Graph::empty(2).unwrap();
        let ham = MaxCutHamiltonian::new(&g);
        assert_eq!(ham.optimal_value(), 0.0);
        assert_eq!(ham.approximation_ratio(0.0), 1.0);
    }
}
