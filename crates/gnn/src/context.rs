use std::rc::Rc;

use qgraph::features::{adjacency_matrix, node_features, normalized_adjacency, FeatureConfig};
use qgraph::Graph;
use tensor::Matrix;

/// Precomputed per-graph operands shared by every architecture.
///
/// Each GNN layer consumes a different view of the same graph:
///
/// * GCN multiplies by the symmetrically normalized adjacency with
///   self-loops, `D̃^{-1/2}(A+I)D̃^{-1/2}` (Eq. 2).
/// * GAT softmaxes attention scores over the neighbor mask (Eq. 7).
/// * GIN aggregates with `A + (1+ε)I` (Eq. 8).
/// * GraphSAGE max-pools over explicit neighbor lists (Eq. 3).
///
/// Building them once per graph keeps the training loop allocation-light.
#[derive(Debug, Clone)]
pub struct GraphContext {
    /// `n × feature_dim` node-feature matrix (degree + one-hot id, §3.1).
    pub features: Matrix,
    /// GCN propagation matrix `D̃^{-1/2}(A+I)D̃^{-1/2}`.
    pub norm_adj: Matrix,
    /// GAT attention mask: 1 where `(v, u)` is an edge, 0 elsewhere.
    pub adj_mask: Matrix,
    /// GIN aggregation matrix `A + (1+ε)I`.
    pub gin_matrix: Matrix,
    /// Neighbor lists for GraphSAGE max pooling.
    pub neighbors: Rc<Vec<Vec<usize>>>,
    /// Number of nodes.
    pub num_nodes: usize,
}

impl GraphContext {
    /// Builds the context for one graph.
    ///
    /// `gin_eps` is the ε of Eq. 8 (0 in the paper's configuration).
    ///
    /// # Panics
    ///
    /// Panics if the graph has more nodes than a non-zero
    /// `features.one_hot_dim` supports (the one-hot block would alias).
    /// `one_hot_dim == 0` disables the block (degree-only features).
    pub fn new(graph: &Graph, features: &FeatureConfig, gin_eps: f64) -> Self {
        let x = feature_matrix(graph, features);
        let raw_adj = adjacency(graph);
        GraphContext {
            features: x,
            norm_adj: norm_adj(graph),
            adj_mask: adj_mask(&raw_adj),
            gin_matrix: gin_matrix(raw_adj, gin_eps),
            neighbors: Rc::new(neighbor_lists(graph)),
            num_nodes: graph.n(),
        }
    }
}

// The operand builders below are shared with `Frozen`, which builds only
// the one its architecture reads, so both paths see identical bits.

/// The `n × feature_dim` node-feature matrix.
///
/// # Panics
///
/// Panics if the graph has more nodes than a non-zero
/// `features.one_hot_dim` supports.
pub(crate) fn feature_matrix(graph: &Graph, features: &FeatureConfig) -> Matrix {
    assert!(
        features.one_hot_dim == 0 || graph.n() <= features.one_hot_dim,
        "graph with {} nodes exceeds one-hot width {}",
        graph.n(),
        features.one_hot_dim
    );
    Matrix::from_nested(&node_features(graph, features))
}

/// GCN propagation matrix `D̃^{-1/2}(A+I)D̃^{-1/2}`.
pub(crate) fn norm_adj(graph: &Graph) -> Matrix {
    Matrix::from_nested(&normalized_adjacency(graph))
}

/// Dense (weighted) adjacency `A`.
pub(crate) fn adjacency(graph: &Graph) -> Matrix {
    Matrix::from_nested(&adjacency_matrix(graph))
}

/// GAT attention mask from the adjacency: GAT attends over unweighted
/// structure, so the mask is 0/1 even for weighted graphs.
pub(crate) fn adj_mask(adjacency: &Matrix) -> Matrix {
    adjacency.map(|v| if v != 0.0 { 1.0 } else { 0.0 })
}

/// GIN aggregation matrix `A + (1+ε)I` from the adjacency.
pub(crate) fn gin_matrix(mut adjacency: Matrix, gin_eps: f64) -> Matrix {
    for v in 0..adjacency.rows() {
        adjacency[(v, v)] += 1.0 + gin_eps;
    }
    adjacency
}

/// Neighbor lists for GraphSAGE max pooling.
pub(crate) fn neighbor_lists(graph: &Graph) -> Vec<Vec<usize>> {
    (0..graph.n())
        .map(|v| graph.neighbors(v).iter().map(|&(u, _)| u).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(g: &Graph) -> GraphContext {
        GraphContext::new(g, &FeatureConfig::default(), 0.0)
    }

    #[test]
    fn shapes_are_consistent() {
        let g = Graph::cycle(5).unwrap();
        let c = ctx(&g);
        assert_eq!(c.num_nodes, 5);
        assert_eq!(c.features.shape(), (5, 16));
        assert_eq!(c.norm_adj.shape(), (5, 5));
        assert_eq!(c.adj_mask.shape(), (5, 5));
        assert_eq!(c.gin_matrix.shape(), (5, 5));
        assert_eq!(c.neighbors.len(), 5);
    }

    #[test]
    fn adj_mask_matches_edges() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let c = ctx(&g);
        assert_eq!(c.adj_mask[(0, 1)], 1.0);
        assert_eq!(c.adj_mask[(1, 0)], 1.0);
        assert_eq!(c.adj_mask[(0, 2)], 0.0);
        assert_eq!(c.adj_mask[(0, 0)], 0.0, "no self-attention in Eq. 7");
    }

    #[test]
    fn gin_matrix_has_self_weight() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let c = GraphContext::new(&g, &FeatureConfig::default(), 0.5);
        assert_eq!(c.gin_matrix[(0, 0)], 1.5);
        assert_eq!(c.gin_matrix[(0, 1)], 1.0);
    }

    #[test]
    fn weighted_graph_mask_is_binary() {
        let g = Graph::from_weighted_edges(2, &[(0, 1, 3.5)]).unwrap();
        let c = ctx(&g);
        assert_eq!(c.adj_mask[(0, 1)], 1.0);
    }

    #[test]
    fn neighbor_lists_match_graph() {
        let g = Graph::star(4).unwrap();
        let c = ctx(&g);
        assert_eq!(c.neighbors[0], vec![1, 2, 3]);
        assert_eq!(c.neighbors[1], vec![0]);
    }

    #[test]
    #[should_panic(expected = "one-hot width")]
    fn oversize_graph_rejected() {
        let g = Graph::cycle(20).unwrap();
        let _ = ctx(&g);
    }
}
