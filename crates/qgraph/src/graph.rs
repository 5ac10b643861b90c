use crate::GraphError;

/// A weighted undirected edge with canonical endpoint order (`u < v`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: usize,
    /// Larger endpoint.
    pub v: usize,
    /// Edge weight; `1.0` for the paper's unweighted dataset.
    pub weight: f64,
}

impl Edge {
    /// Creates an edge, canonicalizing the endpoint order.
    ///
    /// ```
    /// let e = qgraph::Edge::new(5, 2, 1.0);
    /// assert_eq!((e.u, e.v), (2, 5));
    /// ```
    pub fn new(a: usize, b: usize, weight: f64) -> Self {
        let (u, v) = if a <= b { (a, b) } else { (b, a) };
        Edge { u, v, weight }
    }
}

/// A simple undirected weighted graph.
///
/// Nodes are `0..n`. Self-loops and duplicate edges are rejected at
/// construction, so every `Graph` is guaranteed simple. The adjacency list is
/// precomputed for O(deg) neighbor iteration, which the GNN message-passing
/// and the analytic QAOA formulas rely on.
///
/// # Example
///
/// ```
/// use qgraph::Graph;
///
/// # fn main() -> Result<(), qgraph::GraphError> {
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)])?;
/// assert_eq!(g.n(), 3);
/// assert_eq!(g.m(), 2);
/// assert_eq!(g.degree(1), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
    adj: Vec<Vec<(usize, f64)>>,
}

impl Graph {
    /// Creates a graph with `n` nodes and no edges.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyGraph`] if `n == 0`.
    pub fn empty(n: usize) -> Result<Self, GraphError> {
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        Ok(Graph {
            n,
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        })
    }

    /// Creates an unweighted graph (all weights `1.0`) from `(u, v)` pairs.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range endpoints, self-loops or duplicate edges.
    pub fn from_edges(n: usize, pairs: &[(usize, usize)]) -> Result<Self, GraphError> {
        let weighted: Vec<(usize, usize, f64)> = pairs.iter().map(|&(u, v)| (u, v, 1.0)).collect();
        Self::from_weighted_edges(n, &weighted)
    }

    /// Creates a weighted graph from `(u, v, weight)` triples.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range endpoints, self-loops, duplicate edges or
    /// non-finite weights.
    pub fn from_weighted_edges(
        n: usize,
        triples: &[(usize, usize, f64)],
    ) -> Result<Self, GraphError> {
        let mut g = Self::empty(n)?;
        for &(u, v, w) in triples {
            g.add_edge(u, v, w)?;
        }
        Ok(g)
    }

    /// Adds an edge with the given weight.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range endpoints, self-loops, duplicate edges or
    /// non-finite weights.
    pub fn add_edge(&mut self, u: usize, v: usize, weight: f64) -> Result<(), GraphError> {
        if u >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        if v >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if !weight.is_finite() {
            return Err(GraphError::InvalidWeight(weight));
        }
        if self.has_edge(u, v) {
            let e = Edge::new(u, v, weight);
            return Err(GraphError::DuplicateEdge(e.u, e.v));
        }
        let e = Edge::new(u, v, weight);
        self.adj[u].push((v, weight));
        self.adj[v].push((u, weight));
        self.edges.push(e);
        Ok(())
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// The edge list in insertion order, endpoints canonicalized.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Neighbors of `v` with edge weights, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.n()`.
    pub fn neighbors(&self, v: usize) -> &[(usize, f64)] {
        &self.adj[v]
    }

    /// Degree (neighbor count) of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.n()`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// Degrees of all nodes.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.n).map(|v| self.degree(v)).collect()
    }

    /// Maximum degree over all nodes (0 for an edgeless graph).
    pub fn max_degree(&self) -> usize {
        self.degrees().into_iter().max().unwrap_or(0)
    }

    /// Whether the unordered pair `(u, v)` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        if u >= self.n || v >= self.n {
            return false;
        }
        self.adj[u].iter().any(|&(w, _)| w == v)
    }

    /// Weight of edge `(u, v)` if present.
    pub fn edge_weight(&self, u: usize, v: usize) -> Option<f64> {
        if u >= self.n {
            return None;
        }
        self.adj[u].iter().find(|&&(w, _)| w == v).map(|&(_, w)| w)
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// `true` when every edge has weight exactly `1.0`.
    pub fn is_unweighted(&self) -> bool {
        self.edges.iter().all(|e| e.weight == 1.0)
    }

    /// `true` when every node has the same degree `d`; returns `Some(d)`.
    pub fn regular_degree(&self) -> Option<usize> {
        let d = self.degree(0);
        if (1..self.n).all(|v| self.degree(v) == d) {
            Some(d)
        } else {
            None
        }
    }

    /// Number of triangles containing the edge `(u, v)`, i.e. common
    /// neighbors of `u` and `v`. Used by the analytic p=1 QAOA formula.
    pub fn common_neighbors(&self, u: usize, v: usize) -> usize {
        if u >= self.n || v >= self.n {
            return 0;
        }
        self.adj[u]
            .iter()
            .filter(|&&(w, _)| w != v && self.has_edge(w, v))
            .count()
    }

    /// `true` when the graph contains no triangle.
    pub fn is_triangle_free(&self) -> bool {
        self.edges
            .iter()
            .all(|e| self.common_neighbors(e.u, e.v) == 0)
    }

    /// `true` when the graph is connected (single node counts as connected).
    pub fn is_connected(&self) -> bool {
        let mut seen = vec![false; self.n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(w, _) in &self.adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == self.n
    }

    /// Returns a copy with every edge weight replaced by `1.0`.
    pub fn to_unweighted(&self) -> Graph {
        let triples: Vec<(usize, usize, f64)> =
            self.edges.iter().map(|e| (e.u, e.v, 1.0)).collect();
        Graph::from_weighted_edges(self.n, &triples).expect("valid graph stays valid")
    }

    /// Returns a copy with nodes relabeled by the permutation `perm`, where
    /// node `v` becomes `perm[v]`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n`.
    pub fn relabel(&self, perm: &[usize]) -> Graph {
        assert_eq!(perm.len(), self.n, "permutation length must equal n");
        let mut seen = vec![false; self.n];
        for &p in perm {
            assert!(p < self.n && !seen[p], "perm must be a permutation of 0..n");
            seen[p] = true;
        }
        let triples: Vec<(usize, usize, f64)> = self
            .edges
            .iter()
            .map(|e| (perm[e.u], perm[e.v], e.weight))
            .collect();
        Graph::from_weighted_edges(self.n, &triples).expect("relabeling preserves simplicity")
    }

    // ---- named structured constructors (used by tests and examples) ----

    /// Path graph `0 - 1 - ... - (n-1)`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyGraph`] if `n == 0`.
    pub fn path(n: usize) -> Result<Self, GraphError> {
        let pairs: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        Self::from_edges(n, &pairs)
    }

    /// Cycle graph on `n >= 3` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidDimension`] if `n < 3`.
    pub fn cycle(n: usize) -> Result<Self, GraphError> {
        if n < 3 {
            return Err(GraphError::InvalidDimension(format!(
                "cycle needs at least 3 nodes, got {n}"
            )));
        }
        let pairs: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Self::from_edges(n, &pairs)
    }

    /// Complete graph on `n` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyGraph`] if `n == 0`.
    pub fn complete(n: usize) -> Result<Self, GraphError> {
        let mut pairs = Vec::with_capacity(n * (n.saturating_sub(1)) / 2);
        for u in 0..n {
            for v in (u + 1)..n {
                pairs.push((u, v));
            }
        }
        Self::from_edges(n, &pairs)
    }

    /// Star graph: node 0 connected to nodes `1..n`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyGraph`] if `n == 0`.
    pub fn star(n: usize) -> Result<Self, GraphError> {
        let pairs: Vec<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
        Self::from_edges(n, &pairs)
    }

    /// Complete bipartite graph `K_{a,b}` with parts `0..a` and `a..a+b`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidDimension`] if either part is empty.
    pub fn complete_bipartite(a: usize, b: usize) -> Result<Self, GraphError> {
        if a == 0 || b == 0 {
            return Err(GraphError::InvalidDimension(format!(
                "complete bipartite parts must be non-empty, got ({a}, {b})"
            )));
        }
        let mut pairs = Vec::with_capacity(a * b);
        for u in 0..a {
            for v in a..(a + b) {
                pairs.push((u, v));
            }
        }
        Self::from_edges(a + b, &pairs)
    }

    /// `rows x cols` grid graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidDimension`] if either side is zero.
    pub fn grid(rows: usize, cols: usize) -> Result<Self, GraphError> {
        if rows == 0 || cols == 0 {
            return Err(GraphError::InvalidDimension(format!(
                "grid sides must be positive, got ({rows}, {cols})"
            )));
        }
        let id = |r: usize, c: usize| r * cols + c;
        let mut pairs = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    pairs.push((id(r, c), id(r, c + 1)));
                }
                if r + 1 < rows {
                    pairs.push((id(r, c), id(r + 1, c)));
                }
            }
        }
        Self::from_edges(rows * cols, &pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::empty(4).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(!g.is_connected());
    }

    #[test]
    fn zero_nodes_rejected() {
        assert_eq!(Graph::empty(0), Err(GraphError::EmptyGraph));
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = Graph::empty(2).unwrap();
        assert_eq!(g.add_edge(1, 1, 1.0), Err(GraphError::SelfLoop(1)));
    }

    #[test]
    fn duplicate_edge_rejected_regardless_of_order() {
        let mut g = Graph::empty(3).unwrap();
        g.add_edge(0, 1, 1.0).unwrap();
        assert_eq!(g.add_edge(1, 0, 2.0), Err(GraphError::DuplicateEdge(0, 1)));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut g = Graph::empty(3).unwrap();
        assert_eq!(
            g.add_edge(0, 3, 1.0),
            Err(GraphError::NodeOutOfRange { node: 3, n: 3 })
        );
    }

    #[test]
    fn non_finite_weight_rejected() {
        let mut g = Graph::empty(2).unwrap();
        assert!(matches!(
            g.add_edge(0, 1, f64::NAN),
            Err(GraphError::InvalidWeight(_))
        ));
    }

    #[test]
    fn edge_canonicalizes_order() {
        let g = Graph::from_edges(3, &[(2, 0)]).unwrap();
        assert_eq!(g.edges()[0].u, 0);
        assert_eq!(g.edges()[0].v, 2);
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.degrees(), vec![3, 1, 1, 1]);
        assert_eq!(g.max_degree(), 3);
        assert!(g.has_edge(3, 0));
        assert!(!g.has_edge(1, 2));
    }

    #[test]
    fn edge_weight_lookup() {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 2.5)]).unwrap();
        assert_eq!(g.edge_weight(1, 0), Some(2.5));
        assert_eq!(g.edge_weight(1, 2), None);
        assert_eq!(g.edge_weight(9, 0), None);
        assert!(!g.is_unweighted());
        assert!(g.to_unweighted().is_unweighted());
    }

    #[test]
    fn total_weight_sums_edges() {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 2.0), (1, 2, 0.5)]).unwrap();
        assert!((g.total_weight() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn triangle_counting() {
        let g = Graph::complete(3).unwrap();
        assert_eq!(g.common_neighbors(0, 1), 1);
        assert!(!g.is_triangle_free());
        let h = Graph::cycle(4).unwrap();
        assert!(h.is_triangle_free());
        assert_eq!(h.common_neighbors(0, 1), 0);
    }

    #[test]
    fn connectivity() {
        assert!(Graph::path(5).unwrap().is_connected());
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
        assert!(Graph::empty(1).unwrap().is_connected());
    }

    #[test]
    fn regular_degree_detection() {
        assert_eq!(Graph::cycle(5).unwrap().regular_degree(), Some(2));
        assert_eq!(Graph::complete(4).unwrap().regular_degree(), Some(3));
        assert_eq!(Graph::star(4).unwrap().regular_degree(), None);
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = Graph::path(3).unwrap(); // 0-1-2
        let h = g.relabel(&[2, 0, 1]); // node v -> perm[v]
        assert!(h.has_edge(2, 0)); // old (0,1)
        assert!(h.has_edge(0, 1)); // old (1,2)
        assert_eq!(h.m(), 2);
        assert_eq!(h.degree(0), 2); // old node 1
    }

    #[test]
    #[should_panic(expected = "perm must be a permutation")]
    fn relabel_rejects_non_permutation() {
        let g = Graph::path(3).unwrap();
        let _ = g.relabel(&[0, 0, 1]);
    }

    #[test]
    fn structured_constructors() {
        assert_eq!(Graph::path(1).unwrap().m(), 0);
        assert_eq!(Graph::path(4).unwrap().m(), 3);
        assert_eq!(Graph::cycle(6).unwrap().m(), 6);
        assert!(Graph::cycle(2).is_err());
        assert_eq!(Graph::complete(5).unwrap().m(), 10);
        assert_eq!(Graph::star(6).unwrap().degree(0), 5);
        let kb = Graph::complete_bipartite(2, 3).unwrap();
        assert_eq!(kb.m(), 6);
        assert!(Graph::complete_bipartite(0, 3).is_err());
        let grid = Graph::grid(2, 3).unwrap();
        assert_eq!(grid.n(), 6);
        assert_eq!(grid.m(), 7);
        assert!(Graph::grid(0, 2).is_err());
    }

    #[test]
    fn graph_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Graph>();
    }
}
