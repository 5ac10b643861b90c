//! Synthetic instance generators.
//!
//! The paper's dataset (§3.1) is "synthetic regular graphs ... with nodes
//! ranging from 2 to 15" and degrees 2–14. [`random_regular`] implements the
//! standard pairing-model (configuration-model) sampler with rejection of
//! self-loops and multi-edges, which samples asymptotically uniformly from
//! simple d-regular graphs. [`DatasetSpec`] reproduces the mixed-size,
//! mixed-degree dataset; [`erdos_renyi`] and the weighted wrappers support
//! the weighted-graph extension discussed in §7.

use qrand::seq::SliceRandom;
use qrand::Rng;

use crate::{Graph, GraphError};

/// Samples a simple d-regular graph on `n` nodes via the pairing model.
///
/// Each node contributes `degree` half-edge "stubs"; a uniformly random
/// perfect matching of stubs is drawn and repaired with degree-preserving
/// double-edge swaps until simple (restarting if repair stalls). Dense
/// degrees (`2d > n-1`) are sampled as the complement of a sparse regular
/// graph, which keeps generation fast all the way up to complete graphs.
/// The swap repair introduces a small, practically irrelevant bias relative
/// to the exactly uniform distribution.
///
/// # Errors
///
/// Returns [`GraphError::InvalidRegular`] unless `degree < n` and
/// `n * degree` is even (with `n >= 1`).
///
/// # Example
///
/// ```
/// use qrand::SeedableRng;
/// let mut rng = qrand::rngs::StdRng::seed_from_u64(7);
/// let g = qgraph::generate::random_regular(10, 3, &mut rng)?;
/// assert_eq!(g.regular_degree(), Some(3));
/// # Ok::<(), qgraph::GraphError>(())
/// ```
pub fn random_regular<R: Rng + ?Sized>(
    n: usize,
    degree: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::EmptyGraph);
    }
    if degree >= n || !(n * degree).is_multiple_of(2) {
        return Err(GraphError::InvalidRegular { n, degree });
    }
    if degree == 0 {
        return Graph::empty(n);
    }
    // Dense graphs have vanishing acceptance under the pairing model, so
    // sample the sparse complement instead: the complement of a simple
    // (n-1-d)-regular graph is simple and d-regular, and n*(n-1-d) shares the
    // parity of n*d because n*(n-1) is even.
    if 2 * degree > n - 1 {
        let sparse = random_regular(n, n - 1 - degree, rng)?;
        let mut g = Graph::empty(n)?;
        for u in 0..n {
            for v in (u + 1)..n {
                if !sparse.has_edge(u, v) {
                    g.add_edge(u, v, 1.0)?;
                }
            }
        }
        return Ok(g);
    }
    'restart: loop {
        let mut stubs: Vec<usize> = (0..n)
            .flat_map(|v| std::iter::repeat_n(v, degree))
            .collect();
        stubs.shuffle(rng);
        let mut edges: Vec<(usize, usize)> = stubs
            .chunks(2)
            .map(|p| {
                if p[0] <= p[1] {
                    (p[0], p[1])
                } else {
                    (p[1], p[0])
                }
            })
            .collect();
        if repair_pairing(&mut edges, rng) {
            let mut g = Graph::empty(n)?;
            for &(u, v) in &edges {
                g.add_edge(u, v, 1.0)?;
            }
            return Ok(g);
        }
        continue 'restart;
    }
}

/// Repairs a configuration-model pairing in place by double-edge swaps until
/// it is a simple graph. Returns `false` (caller restarts) if the repair does
/// not converge within a generous iteration budget.
fn repair_pairing<R: Rng + ?Sized>(edges: &mut [(usize, usize)], rng: &mut R) -> bool {
    use std::collections::HashSet;

    let budget = 200 * edges.len().max(1);
    for _ in 0..budget {
        // Index edges and find a violation.
        let mut seen: HashSet<(usize, usize)> = HashSet::with_capacity(edges.len());
        let mut bad_idx = None;
        for (i, &e) in edges.iter().enumerate() {
            if e.0 == e.1 || !seen.insert(e) {
                bad_idx = Some(i);
                break;
            }
        }
        let Some(i) = bad_idx else { return true };
        // Swap the bad pair with a random other pair; this preserves the
        // degree sequence.
        let j = rng.gen_range(0..edges.len());
        if i == j {
            continue;
        }
        let (a, b) = edges[i];
        let (c, d) = edges[j];
        let (x, y) = if rng.gen() { (c, d) } else { (d, c) };
        let e1 = if a <= x { (a, x) } else { (x, a) };
        let e2 = if b <= y { (b, y) } else { (y, b) };
        edges[i] = e1;
        edges[j] = e2;
    }
    false
}

/// Samples an Erdős–Rényi graph `G(n, p)`.
///
/// # Errors
///
/// Returns [`GraphError::EmptyGraph`] if `n == 0` and
/// [`GraphError::InvalidProbability`] if `p` is outside `[0, 1]`.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Result<Graph, GraphError> {
    if !(0.0..=1.0).contains(&p) || p.is_nan() {
        return Err(GraphError::InvalidProbability(p));
    }
    let mut g = Graph::empty(n)?;
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen::<f64>() < p {
                g.add_edge(u, v, 1.0)?;
            }
        }
    }
    Ok(g)
}

/// Replaces every edge weight with an independent uniform sample from
/// `[lo, hi]`. Used for the weighted Max-Cut extension (§7).
///
/// # Errors
///
/// Returns [`GraphError::InvalidWeight`] if the interval is not finite or
/// `lo > hi`.
pub fn randomize_weights<R: Rng + ?Sized>(
    graph: &Graph,
    lo: f64,
    hi: f64,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if !lo.is_finite() || !hi.is_finite() || lo > hi {
        return Err(GraphError::InvalidWeight(if lo.is_finite() {
            hi
        } else {
            lo
        }));
    }
    let triples: Vec<(usize, usize, f64)> = graph
        .edges()
        .iter()
        .map(|e| (e.u, e.v, rng.gen_range(lo..=hi)))
        .collect();
    Graph::from_weighted_edges(graph.n(), &triples)
}

/// Specification of the paper's synthetic dataset (§3.1, Fig. 2).
///
/// Graphs are sampled by drawing a size `n` uniformly from
/// `min_nodes..=max_nodes` and then a feasible degree uniformly from
/// `min_degree..=min(max_degree, n - 1)` (adjusted for parity). The defaults
/// mirror the paper: 9598 instances, sizes 2–15, degrees 2–14.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Number of graphs to generate (paper: 9598).
    pub count: usize,
    /// Smallest graph size (paper: 2).
    pub min_nodes: usize,
    /// Largest graph size (paper: 15).
    pub max_nodes: usize,
    /// Smallest degree (paper: 2... size permitting).
    pub min_degree: usize,
    /// Largest degree (paper: 14, capped at n-1 per graph).
    pub max_degree: usize,
}

impl Default for DatasetSpec {
    fn default() -> Self {
        DatasetSpec {
            count: 9598,
            min_nodes: 2,
            max_nodes: 15,
            min_degree: 2,
            max_degree: 14,
        }
    }
}

impl DatasetSpec {
    /// A scaled-down spec with `count` graphs and the paper's size/degree
    /// ranges, for tests and CI-sized benches.
    pub fn with_count(count: usize) -> Self {
        DatasetSpec {
            count,
            ..DatasetSpec::default()
        }
    }

    /// Samples one (size, degree) pair that admits a simple regular graph.
    fn sample_shape<R: Rng + ?Sized>(&self, rng: &mut R) -> (usize, usize) {
        loop {
            let n = rng.gen_range(self.min_nodes..=self.max_nodes);
            let hi = self.max_degree.min(n.saturating_sub(1));
            let lo = self.min_degree.min(hi).max(1);
            if hi < 1 {
                // n == 1 cannot host any edge; resample.
                continue;
            }
            let d = rng.gen_range(lo..=hi);
            // Fix parity: n*d must be even. Prefer nudging d down, else up.
            let d = if (n * d) % 2 == 0 {
                d
            } else if d > lo && (n * (d - 1)) % 2 == 0 {
                d - 1
            } else if d < hi {
                d + 1
            } else {
                continue;
            };
            if d < n && (n * d) % 2 == 0 {
                return (n, d);
            }
        }
    }

    /// Generates the dataset.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidDimension`] if the spec ranges are
    /// inverted or admit no feasible graph.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Vec<Graph>, GraphError> {
        if self.min_nodes < 2 || self.min_nodes > self.max_nodes {
            return Err(GraphError::InvalidDimension(format!(
                "node range [{}, {}] invalid (need 2 <= min <= max)",
                self.min_nodes, self.max_nodes
            )));
        }
        if self.min_degree > self.max_degree {
            return Err(GraphError::InvalidDimension(format!(
                "degree range [{}, {}] invalid",
                self.min_degree, self.max_degree
            )));
        }
        let mut graphs = Vec::with_capacity(self.count);
        for _ in 0..self.count {
            let (n, d) = self.sample_shape(rng);
            graphs.push(random_regular(n, d, rng)?);
        }
        Ok(graphs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrand::rngs::StdRng;
    use qrand::SeedableRng;

    #[test]
    fn regular_generator_produces_regular_simple_graphs() {
        let mut rng = StdRng::seed_from_u64(1);
        for &(n, d) in &[(4, 3), (6, 2), (10, 3), (15, 4), (8, 7)] {
            let g = random_regular(n, d, &mut rng).unwrap();
            assert_eq!(g.n(), n);
            assert_eq!(g.regular_degree(), Some(d), "n={n} d={d}");
            assert_eq!(g.m(), n * d / 2);
        }
    }

    #[test]
    fn regular_generator_rejects_infeasible_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(matches!(
            random_regular(5, 3, &mut rng),
            Err(GraphError::InvalidRegular { .. })
        )); // odd n*d
        assert!(matches!(
            random_regular(4, 4, &mut rng),
            Err(GraphError::InvalidRegular { .. })
        )); // d >= n
        assert!(matches!(
            random_regular(0, 0, &mut rng),
            Err(GraphError::EmptyGraph)
        ));
    }

    #[test]
    fn regular_degree_zero_is_edgeless() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_regular(5, 0, &mut rng).unwrap();
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = StdRng::seed_from_u64(4);
        let g0 = erdos_renyi(6, 0.0, &mut rng).unwrap();
        assert_eq!(g0.m(), 0);
        let g1 = erdos_renyi(6, 1.0, &mut rng).unwrap();
        assert_eq!(g1.m(), 15);
        assert!(erdos_renyi(6, 1.5, &mut rng).is_err());
        assert!(erdos_renyi(6, f64::NAN, &mut rng).is_err());
    }

    #[test]
    fn randomize_weights_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = Graph::complete(5).unwrap();
        let w = randomize_weights(&g, 0.5, 2.0, &mut rng).unwrap();
        assert_eq!(w.m(), g.m());
        for e in w.edges() {
            assert!(e.weight >= 0.5 && e.weight <= 2.0);
        }
        assert!(randomize_weights(&g, 2.0, 1.0, &mut rng).is_err());
    }

    #[test]
    fn dataset_spec_default_matches_paper() {
        let spec = DatasetSpec::default();
        assert_eq!(spec.count, 9598);
        assert_eq!(spec.min_nodes, 2);
        assert_eq!(spec.max_nodes, 15);
        assert_eq!(spec.max_degree, 14);
    }

    #[test]
    fn dataset_generation_respects_ranges() {
        let mut rng = StdRng::seed_from_u64(6);
        let spec = DatasetSpec::with_count(200);
        let graphs = spec.generate(&mut rng).unwrap();
        assert_eq!(graphs.len(), 200);
        for g in &graphs {
            assert!(g.n() >= 2 && g.n() <= 15);
            let d = g.regular_degree().expect("dataset graphs are regular");
            assert!(d <= 14);
            assert!(d < g.n());
        }
    }

    #[test]
    fn dataset_generation_rejects_bad_spec() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut spec = DatasetSpec::with_count(1);
        spec.min_nodes = 10;
        spec.max_nodes = 5;
        assert!(spec.generate(&mut rng).is_err());
        let mut spec = DatasetSpec::with_count(1);
        spec.min_degree = 9;
        spec.max_degree = 3;
        assert!(spec.generate(&mut rng).is_err());
    }

    #[test]
    fn dataset_generation_is_seed_deterministic() {
        let spec = DatasetSpec::with_count(20);
        let a = spec.generate(&mut StdRng::seed_from_u64(42)).unwrap();
        let b = spec.generate(&mut StdRng::seed_from_u64(42)).unwrap();
        assert_eq!(a, b);
    }
}
