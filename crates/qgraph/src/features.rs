//! Node feature construction.
//!
//! §3.1: "We compute node degrees and one-hot encoding of node IDs as node
//! features." The GNNs in the paper use input dimension 15 (§4.1), i.e. the
//! one-hot id padded to the maximum graph size. [`node_features`] reproduces
//! that layout; [`FeatureConfig`] lets ablations vary it.

use crate::Graph;

/// Configuration of the per-node feature vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureConfig {
    /// Width of the one-hot node-id block (paper: 15). Node ids `>= one_hot_dim`
    /// get an all-zero block; graphs are expected to satisfy `n <= one_hot_dim`.
    pub one_hot_dim: usize,
    /// Prepend the node degree (normalized by `one_hot_dim - 1` so that it
    /// stays in `[0, 1]` across the dataset).
    pub include_degree: bool,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            one_hot_dim: 15,
            include_degree: true,
        }
    }
}

impl FeatureConfig {
    /// Total feature dimension per node.
    pub fn dim(&self) -> usize {
        self.one_hot_dim + usize::from(self.include_degree)
    }
}

/// Builds the `n x dim` node-feature matrix (row-major, one row per node).
///
/// Layout per row: `[degree?] [one-hot id]`.
///
/// # Example
///
/// ```
/// use qgraph::{features::{node_features, FeatureConfig}, Graph};
///
/// # fn main() -> Result<(), qgraph::GraphError> {
/// let g = Graph::path(3)?;
/// let cfg = FeatureConfig::default();
/// let x = node_features(&g, &cfg);
/// assert_eq!(x.len(), 3);
/// assert_eq!(x[0].len(), cfg.dim());
/// // Node 1 has degree 2 and one-hot position 1.
/// assert!((x[1][0] - 2.0 / 14.0).abs() < 1e-12);
/// assert_eq!(x[1][1 + 1], 1.0);
/// # Ok(())
/// # }
/// ```
pub fn node_features(graph: &Graph, config: &FeatureConfig) -> Vec<Vec<f64>> {
    let norm = (config.one_hot_dim.saturating_sub(1)).max(1) as f64;
    (0..graph.n())
        .map(|v| {
            let mut row = Vec::with_capacity(config.dim());
            if config.include_degree {
                row.push(graph.degree(v) as f64 / norm);
            }
            for i in 0..config.one_hot_dim {
                row.push(if i == v { 1.0 } else { 0.0 });
            }
            row
        })
        .collect()
}

/// Builds the dense adjacency matrix `A` (row-major `n x n`), entries are
/// edge weights.
pub fn adjacency_matrix(graph: &Graph) -> Vec<Vec<f64>> {
    let n = graph.n();
    let mut a = vec![vec![0.0; n]; n];
    for e in graph.edges() {
        a[e.u][e.v] = e.weight;
        a[e.v][e.u] = e.weight;
    }
    a
}

/// Builds the symmetrically normalized adjacency with self-loops used by GCN:
/// `D̃^{-1/2} (A + I) D̃^{-1/2}` where `D̃` is the degree matrix of `A + I`.
pub fn normalized_adjacency(graph: &Graph) -> Vec<Vec<f64>> {
    let n = graph.n();
    let mut a = adjacency_matrix(graph);
    for (v, row) in a.iter_mut().enumerate() {
        row[v] += 1.0;
    }
    let deg: Vec<f64> = a.iter().map(|row| row.iter().sum::<f64>()).collect();
    let inv_sqrt: Vec<f64> = deg
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    for i in 0..n {
        for j in 0..n {
            a[i][j] *= inv_sqrt[i] * inv_sqrt[j];
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper() {
        let cfg = FeatureConfig::default();
        assert_eq!(cfg.one_hot_dim, 15);
        assert!(cfg.include_degree);
        assert_eq!(cfg.dim(), 16);
    }

    #[test]
    fn one_hot_block_is_exact() {
        let g = Graph::complete(4).unwrap();
        let cfg = FeatureConfig {
            one_hot_dim: 6,
            include_degree: false,
        };
        let x = node_features(&g, &cfg);
        for (v, row) in x.iter().enumerate() {
            assert_eq!(row.len(), 6);
            for (i, &val) in row.iter().enumerate() {
                assert_eq!(val, if i == v { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn degree_feature_is_normalized() {
        let g = Graph::star(5).unwrap(); // center degree 4
        let cfg = FeatureConfig::default();
        let x = node_features(&g, &cfg);
        assert!((x[0][0] - 4.0 / 14.0).abs() < 1e-12);
        assert!((x[1][0] - 1.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn adjacency_matrix_is_symmetric_weighted() {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 2.0), (1, 2, 3.0)]).unwrap();
        let a = adjacency_matrix(&g);
        assert_eq!(a[0][1], 2.0);
        assert_eq!(a[1][0], 2.0);
        assert_eq!(a[2][1], 3.0);
        assert_eq!(a[0][2], 0.0);
        assert_eq!(a[0][0], 0.0);
    }

    #[test]
    fn normalized_adjacency_rows() {
        // For K2 with self loops: A+I = [[1,1],[1,1]], degrees 2, so every
        // entry is 1/2.
        let g = Graph::complete(2).unwrap();
        let a = normalized_adjacency(&g);
        for row in &a {
            for &v in row {
                assert!((v - 0.5).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn normalized_adjacency_isolated_node() {
        // Isolated node has degree 1 after the self-loop: diagonal becomes 1.
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let a = normalized_adjacency(&g);
        assert!((a[2][2] - 1.0).abs() < 1e-12);
        assert_eq!(a[2][0], 0.0);
    }
}
