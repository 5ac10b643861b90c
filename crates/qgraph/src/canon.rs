//! Canonical-form hashing and isomorphism testing.
//!
//! The serving cache and the labeling deduper both need to answer one
//! question cheaply: *is this graph structurally the same as one we have
//! already seen?* Two tools cooperate:
//!
//! 1. [`Fingerprint`] — a graph's refined node colors plus a deterministic
//!    64-bit hash of them ([`wl_hash`] returns the hash alone). Both are
//!    **permutation-invariant**: relabeling the nodes of a graph never
//!    changes the hash, so isomorphic graphs always land in the same
//!    bucket. A consumer computes a graph's fingerprint once and reuses it
//!    for every bucket probe and every exact comparison.
//! 2. [`are_isomorphic_with`] (and the convenience [`are_isomorphic`]) — an
//!    exact isomorphism check used as the collision fallback on every
//!    bucket hit, so a hash match alone is never trusted to serve cached
//!    parameters. The refined colors prune its search: a node may only map
//!    to a node of the same color.
//!
//! ## Coloring
//!
//! Color refinement in the Weisfeiler–Leman style, with stronger seeds and
//! rounds. Plain 1-WL starts from degrees, so it gives every node of a
//! d-regular graph the same color and every d-regular graph on n nodes the
//! same hash — and the paper's graphs are random regular graphs. Here:
//!
//! * a node's **initial color** folds its degree, its triangle count, and
//!   its BFS distance profile (how many nodes sit at hop distance 1, 2, …).
//!   On a dense graph (more than half of all node pairs are edges) the
//!   triangle count and the profile are taken in the complement graph,
//!   where they carry information: every node of a dense regular graph has
//!   the profile `[d, n - 1 - d]`;
//! * every **refinement round** folds a node's color with the multiset of
//!   `(neighbor color, edge-weight bits, common-neighbor count)` over its
//!   incident edges. At least one round always runs, so edge weights
//!   always reach the colors.
//!
//! All of these are isomorphism invariants, so the hash stays
//! permutation-invariant and color-class pruning in the matcher stays
//! sound. Triangle counts alone leave most random cubic graphs unseparated
//! (they are mostly triangle-free); the distance profile is what splits
//! them. Multisets are folded as wrapping sums of mixed values, which is
//! independent of adjacency order without sorting. The seeds cost
//! O(n² · ⌈n/64⌉) word operations on adjacency bitsets, about as long as
//! the refinement itself at the paper's n ≤ 15; above the matcher's
//! 1024-node guard the distance profile is skipped.
//!
//! ## Collision posture
//!
//! * Isomorphic graphs **always** collide (by construction — the hash is a
//!   graph invariant). That is the cache's hit path.
//! * Non-isomorphic graphs collide when the refinement cannot distinguish
//!   them (or, negligibly, when two 64-bit folds agree). That does happen
//!   inside the paper's envelope: among 300 seeded random cubic graphs on
//!   12 nodes, 13 non-isomorphic pairs still share a hash. Strongly regular
//!   graphs with equal parameters (the smallest: the Shrikhande graph and
//!   the 4×4 rook's graph, 16 nodes) are never separated by refinement of
//!   this kind. For the serving shapes (12–15 nodes, degree 5..=n-6) no
//!   such pair shows up among 300 draws per shape (a seeded test pins this;
//!   EXPERIMENTS.md has the per-shape counts). Every consumer runs the
//!   exact matcher before treating a bucket hit as a structural match, so a
//!   collision costs one extra comparison, never a wrong answer.
//! * [`are_isomorphic`] is **one-sided conservative**: it may return `false`
//!   for a genuinely isomorphic pair if its search exhausts its step budget,
//!   but it never returns `true` for a non-isomorphic pair. A false negative
//!   costs a cache miss or a duplicate simulation, never a wrong answer.
//!   When every node has its own color (most random regular graphs on 12–15
//!   nodes of degree 4 to n − 5) the colors force the map and no search
//!   runs. Otherwise the search maps each node next to its BFS parent's
//!   image, walking the complement of a dense graph. On one-color graphs
//!   such as cycles, their complements, complete graphs and the Petersen
//!   graph, it finds a relabeled copy within 4·n assignments (a unit test
//!   pins this).

use crate::Graph;

/// Seed of every hash fold.
const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Assignment budget for the isomorphism search. Exhausting it
/// yields a conservative `false` (treated as "not proven isomorphic").
const ISO_STEP_BUDGET: u64 = 1_000_000;

/// Node-count guard for the O(n²) scratch the matcher allocates. Graphs
/// larger than this are compared by exact equality only, and their
/// fingerprints skip the O(n³/64) distance profiles (the serving envelope
/// caps n at 15, so this is purely defensive).
const ISO_MAX_NODES: usize = 1024;

/// SplitMix64's finalizer: a bijective, well-avalanched 64-bit mix.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Folds `v` into the running hash `h`. Injective in `v` for a fixed `h`.
#[inline]
fn fold(h: u64, v: u64) -> u64 {
    mix(h ^ v)
}

/// Indices of the set bits of a bitset, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(k, &word)| {
        let mut word = word;
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                k * 64 + bit
            })
        })
    })
}

/// Adjacency rows as bitsets, `words` 64-bit words per node.
struct BitRows {
    words: usize,
    bits: Vec<u64>,
}

impl BitRows {
    fn new(graph: &Graph) -> Self {
        let words = graph.n().div_ceil(64);
        let mut bits = vec![0u64; graph.n() * words];
        for e in graph.edges() {
            bits[e.u * words + e.v / 64] |= 1 << (e.v % 64);
            bits[e.v * words + e.u / 64] |= 1 << (e.u % 64);
        }
        BitRows { words, bits }
    }

    /// The complement graph's rows (no self-loops).
    fn complement(&self, n: usize) -> Self {
        // Bits past node n - 1 in each row's last word stay clear.
        let tail = if n.is_multiple_of(64) {
            u64::MAX
        } else {
            (1 << (n % 64)) - 1
        };
        let mut bits: Vec<u64> = self.bits.iter().map(|&word| !word).collect();
        for v in 0..n {
            let row = &mut bits[v * self.words..(v + 1) * self.words];
            row[self.words - 1] &= tail;
            row[v / 64] &= !(1 << (v % 64));
        }
        BitRows {
            words: self.words,
            bits,
        }
    }

    fn row(&self, v: usize) -> &[u64] {
        &self.bits[v * self.words..(v + 1) * self.words]
    }

    /// Number of common neighbors of `u` and `v`.
    fn common(&self, u: usize, v: usize) -> u64 {
        self.row(u)
            .iter()
            .zip(self.row(v))
            .map(|(a, b)| (a & b).count_ones() as u64)
            .sum()
    }

    /// Number of triangles through `v`.
    fn triangles(&self, v: usize) -> u64 {
        // Each triangle is counted once from each of its two edges at `v`.
        ones(self.row(v)).map(|u| self.common(u, v)).sum::<u64>() / 2
    }

    /// Fills `profile[k]` with the number of nodes at hop distance `k + 1`
    /// from `source` (bitset BFS; unreachable nodes are not counted).
    fn distance_profile(&self, source: usize, scratch: &mut BfsScratch, profile: &mut Vec<u64>) {
        let BfsScratch {
            visited,
            frontier,
            next,
        } = scratch;
        visited.fill(0);
        frontier.fill(0);
        visited[source / 64] |= 1 << (source % 64);
        frontier[source / 64] |= 1 << (source % 64);
        profile.clear();
        loop {
            next.fill(0);
            for v in ones(frontier) {
                for (acc, &word) in next.iter_mut().zip(self.row(v)) {
                    *acc |= word;
                }
            }
            let mut reached = 0u64;
            for (acc, seen) in next.iter_mut().zip(visited.iter_mut()) {
                *acc &= !*seen;
                *seen |= *acc;
                reached += acc.count_ones() as u64;
            }
            if reached == 0 {
                return;
            }
            profile.push(reached);
            std::mem::swap(frontier, next);
        }
    }
}

/// Reusable word buffers for [`BitRows::distance_profile`].
struct BfsScratch {
    visited: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
}

/// A graph's refined node colors and the canonical hash folded from them.
///
/// Compute it once per graph with [`Fingerprint::of`] and reuse it: the hash
/// keys a bucket, and [`are_isomorphic_with`] uses the colors to prune its
/// search, so neither has to be recomputed per comparison. See the module
/// docs for the coloring and the collision posture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    hash: u64,
    colors: Vec<u64>,
}

impl Fingerprint {
    /// Refines `graph`'s node colors to a stable partition and hashes them.
    ///
    /// Refinement stops as soon as a round fails to increase the number of
    /// distinct colors (the partition has stabilized), and is capped at `n`
    /// rounds; both stopping rules are themselves permutation-invariant, so
    /// the color *multiset* and the hash are graph invariants. Multisets
    /// (neighbor signatures, the final colors) are folded as wrapping sums
    /// of mixed values, which makes them independent of adjacency order
    /// without sorting.
    pub fn of(graph: &Graph) -> Self {
        let n = graph.n();
        let rows = BitRows::new(graph);
        // Incidence in CSR form: node `v`'s edges are
        // `incident[start[v]..start[v + 1]]`, each `(neighbor, edge key)`
        // where the key folds the weight bits with the common-neighbor count.
        let mut start = Vec::with_capacity(n + 1);
        let mut incident: Vec<(usize, u64)> = Vec::with_capacity(2 * graph.m());
        let mut colors: Vec<u64> = Vec::with_capacity(n);
        let mut scratch = BfsScratch {
            visited: vec![0; rows.words],
            frontier: vec![0; rows.words],
            next: vec![0; rows.words],
        };
        // The structural seeds come from the sparser of the graph and its
        // complement: refinement cannot tell a graph's complement structure
        // apart any better than its own, and on a dense graph every node's
        // own distance profile is the uninformative [d, n - 1 - d].
        let complement = (4 * graph.m() > n * n.saturating_sub(1)).then(|| rows.complement(n));
        // Edge weights enter through the edge keys of the first round,
        // which always runs, so the seeds leave them out.
        let mut profile = Vec::new();
        for v in 0..n {
            start.push(incident.len());
            let mut twice_triangles = 0;
            for &(u, w) in graph.neighbors(v) {
                let common = rows.common(u, v);
                twice_triangles += common;
                incident.push((u, fold(w.to_bits(), common)));
            }
            // Each triangle at `v` is counted once from each of its two
            // edges at `v`.
            let triangles = match &complement {
                Some(complement) => complement.triangles(v),
                None => twice_triangles / 2,
            };
            let mut h = fold(fold(SEED, graph.degree(v) as u64), triangles);
            // All-pairs BFS is O(n³/64); above the matcher's size guard the
            // colors no longer prune anything, so the profile is skipped.
            if n <= ISO_MAX_NODES {
                complement.as_ref().unwrap_or(&rows).distance_profile(
                    v,
                    &mut scratch,
                    &mut profile,
                );
                for &count in &profile {
                    h = fold(h, count);
                }
            }
            colors.push(h);
        }
        start.push(incident.len());

        let mut sorted = Vec::with_capacity(n);
        let mut classes = distinct_count(&colors, &mut sorted);
        let mut next = vec![0u64; n];
        for _ in 0..n {
            for (v, color) in next.iter_mut().enumerate() {
                let signature = incident[start[v]..start[v + 1]]
                    .iter()
                    .fold(0u64, |acc, &(u, key)| {
                        acc.wrapping_add(mix(colors[u] ^ key))
                    });
                *color = fold(colors[v], signature);
            }
            std::mem::swap(&mut colors, &mut next);
            let next_classes = distinct_count(&colors, &mut sorted);
            if next_classes <= classes {
                break;
            }
            classes = next_classes;
        }

        let color_sum = colors.iter().fold(0u64, |acc, &c| acc.wrapping_add(mix(c)));
        let hash = fold(fold(fold(SEED, n as u64), graph.m() as u64), color_sum);
        Fingerprint { hash, colors }
    }

    /// The canonical 64-bit hash: `n`, `m` and the multiset of refined
    /// colors, folded together.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The refined color of each node, indexed like the graph's nodes.
    pub fn colors(&self) -> &[u64] {
        &self.colors
    }
}

/// Number of distinct values in `colors`, sorting a copy in `sorted`.
fn distinct_count(colors: &[u64], sorted: &mut Vec<u64>) -> usize {
    sorted.clear();
    sorted.extend_from_slice(colors);
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

/// Deterministic, permutation-invariant 64-bit canonical hash of a graph:
/// [`Fingerprint::hash`] of [`Fingerprint::of`]. Isomorphic graphs always
/// produce the same hash; see the module docs for the collision posture on
/// non-isomorphic graphs.
///
/// ```
/// use qgraph::{canon, Graph};
///
/// let g = Graph::path(5).unwrap();
/// let h = g.relabel(&[4, 2, 0, 1, 3]);
/// assert_eq!(canon::wl_hash(&g), canon::wl_hash(&h));
/// assert_ne!(canon::wl_hash(&g), canon::wl_hash(&Graph::star(5).unwrap()));
///
/// // Both 2-regular on six nodes, yet triangle counts tell them apart.
/// let c6 = Graph::cycle(6).unwrap();
/// let triangles =
///     Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
/// assert_ne!(canon::wl_hash(&c6), canon::wl_hash(&triangles));
/// ```
pub fn wl_hash(graph: &Graph) -> u64 {
    Fingerprint::of(graph).hash()
}

/// Weight bits of an absent edge in a [`weight_table`]: an infinite weight,
/// which no [`Graph`] holds (its weights are finite).
const NO_EDGE: u64 = f64::INFINITY.to_bits();

/// Row-major n×n weight-bits table of `graph`: entry `u * n + v` is the
/// edge's `weight.to_bits()`, or [`NO_EDGE`].
fn weight_table(graph: &Graph) -> Vec<u64> {
    let n = graph.n();
    let mut table = vec![NO_EDGE; n * n];
    for e in graph.edges() {
        let bits = e.weight.to_bits();
        table[e.u * n + e.v] = bits;
        table[e.v * n + e.u] = bits;
    }
    table
}

/// Exact isomorphism test (weights must match bit-for-bit), computing both
/// fingerprints. Callers that compare one graph against many should compute
/// each [`Fingerprint`] once and call [`are_isomorphic_with`].
///
/// ```
/// use qgraph::{canon, Graph};
///
/// let c6 = Graph::cycle(6).unwrap();
/// let triangles =
///     Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
/// assert!(canon::are_isomorphic(&c6, &c6.relabel(&[3, 0, 4, 1, 5, 2])));
/// assert!(!canon::are_isomorphic(&c6, &triangles));
/// ```
pub fn are_isomorphic(a: &Graph, b: &Graph) -> bool {
    if a.n() != b.n() || a.m() != b.m() {
        return false;
    }
    if a.n() > ISO_MAX_NODES {
        return a == b;
    }
    are_isomorphic_with(a, &Fingerprint::of(a), b, &Fingerprint::of(b))
}

/// Exact isomorphism test on graphs with precomputed fingerprints (`fa` must
/// be `a`'s, `fb` must be `b`'s).
///
/// Cheap invariants (`n`, `m`, the hash, the color multiset) reject most
/// non-isomorphic pairs outright. Refined colors are invariants, so a node
/// can only map to a node of its own color. When every color is distinct
/// that forces the whole map, and one pass over `a`'s edges decides.
/// Otherwise a search maps `a`'s nodes in breadth-first order, each node
/// only next to its BFS parent's image, and checks edge weights bit for bit
/// against every node mapped so far. The search is budgeted: if it exceeds
/// its step budget it returns `false` — a conservative answer that can only
/// cause a cache miss or a duplicate simulation, never a wrong match (see
/// module docs).
pub fn are_isomorphic_with(a: &Graph, fa: &Fingerprint, b: &Graph, fb: &Fingerprint) -> bool {
    search_steps(a, fa, b, fb).is_some()
}

/// The matcher behind [`are_isomorphic_with`]: `Some(steps)` when it proves
/// `a` and `b` isomorphic, where `steps` counts the candidate assignments
/// its search tried (0 when the colors forced the map), and `None` when it
/// does not.
fn search_steps(a: &Graph, fa: &Fingerprint, b: &Graph, fb: &Fingerprint) -> Option<u64> {
    debug_assert_eq!(fa.colors.len(), a.n(), "fingerprint of another graph");
    debug_assert_eq!(fb.colors.len(), b.n(), "fingerprint of another graph");
    if a.n() != b.n() || a.m() != b.m() || fa.hash != fb.hash {
        return None;
    }
    if a.n() > ISO_MAX_NODES {
        return (a == b).then_some(0);
    }
    // Nodes sorted by color. Once the color multisets agree, each color
    // class is the same index range of both lists.
    let by_color = |colors: &[u64]| {
        let mut nodes: Vec<(u64, usize)> = colors.iter().copied().zip(0..).collect();
        nodes.sort_unstable();
        nodes
    };
    let (sorted_a, sorted_b) = (by_color(&fa.colors), by_color(&fb.colors));
    if sorted_a.iter().zip(&sorted_b).any(|(x, y)| x.0 != y.0) {
        return None;
    }
    if sorted_a.windows(2).all(|pair| pair[0].0 != pair[1].0) {
        return forced_map(a, b, &sorted_a, &sorted_b).then_some(0);
    }
    let mut search = Search::new(a, b, &sorted_a, &sorted_b);
    search.extend(0).then_some(search.steps)
}

/// With every color distinct, pairs the nodes of equal color and checks
/// that each edge of `a` lands on an edge of `b` with the same weight bits.
/// The map is a bijection and both graphs have `m` edges, so this covers
/// every edge of `b` too.
fn forced_map(a: &Graph, b: &Graph, sorted_a: &[(u64, usize)], sorted_b: &[(u64, usize)]) -> bool {
    let mut image = vec![0; a.n()];
    for (&(_, v), &(_, u)) in sorted_a.iter().zip(sorted_b) {
        image[v] = u;
    }
    a.edges().iter().all(|e| {
        b.edge_weight(image[e.u], image[e.v]).map(f64::to_bits) == Some(e.weight.to_bits())
    })
}

/// Whether a weight-table entry links two nodes in the graph the search
/// walks: an edge, or on a dense graph a non-edge (an edge of the
/// complement).
#[inline]
fn linked(bits: u64, dense: bool) -> bool {
    (bits != NO_EDGE) != dense
}

/// State of one edge-anchored search for a map from `a`'s nodes onto `b`'s.
struct Search<'a> {
    n: usize,
    /// Walk the complement: on a dense graph (the same test as the
    /// fingerprint's seeds) it is the sparser of the two, so anchoring on
    /// its edges leaves the fewest candidates. `n` and `m` agree, so both
    /// graphs make the same choice.
    dense: bool,
    /// `a`'s nodes in breadth-first order, each component from a root of
    /// its rarest color.
    order: Vec<usize>,
    /// Each `a`-node's BFS parent; `None` for a root.
    parent: Vec<Option<usize>>,
    /// Each `a`-node's color class, as an index range of `sorted_b`.
    class: Vec<(usize, usize)>,
    sorted_b: &'a [(u64, usize)],
    weights_a: Vec<u64>,
    weights_b: Vec<u64>,
    /// `a`-node → `b`-node, valid for the mapped prefix of `order`.
    image: Vec<usize>,
    used: Vec<bool>,
    steps: u64,
}

impl<'a> Search<'a> {
    fn new(a: &Graph, b: &Graph, sorted_a: &[(u64, usize)], sorted_b: &'a [(u64, usize)]) -> Self {
        let n = a.n();
        let mut class = vec![(0, 0); n];
        let mut start = 0;
        for end in 1..=n {
            if end == n || sorted_a[end].0 != sorted_a[start].0 {
                for &(_, v) in &sorted_a[start..end] {
                    class[v] = (start, end);
                }
                start = end;
            }
        }
        let dense = 4 * a.m() > n * (n - 1);
        let weights_a = weight_table(a);
        // A root is the first unvisited node in rarity order, so it belongs
        // to the rarest color of its (wholly unvisited) component.
        let mut roots: Vec<usize> = (0..n).collect();
        roots.sort_by_key(|&v| (class[v].1 - class[v].0, class[v].0));
        let mut order = Vec::with_capacity(n);
        let mut parent = vec![None; n];
        let mut seen = vec![false; n];
        for root in roots {
            if seen[root] {
                continue;
            }
            seen[root] = true;
            let mut head = order.len();
            order.push(root);
            while let Some(&v) = order.get(head) {
                head += 1;
                for w in 0..n {
                    if !seen[w] && linked(weights_a[v * n + w], dense) {
                        seen[w] = true;
                        parent[w] = Some(v);
                        order.push(w);
                    }
                }
            }
        }
        Search {
            n,
            dense,
            order,
            parent,
            class,
            sorted_b,
            weights_a,
            weights_b: weight_table(b),
            image: vec![0; n],
            used: vec![false; n],
            steps: 0,
        }
    }

    /// Maps `order[depth..]`, given a consistent map of `order[..depth]`.
    fn extend(&mut self, depth: usize) -> bool {
        let Some(&v) = self.order.get(depth) else {
            return true;
        };
        let n = self.n;
        let (lo, hi) = self.class[v];
        let anchor = self.parent[v].map(|p| self.image[p]);
        let sorted_b = self.sorted_b;
        for &(_, u) in &sorted_b[lo..hi] {
            if self.used[u]
                || anchor.is_some_and(|x| !linked(self.weights_b[x * n + u], self.dense))
            {
                continue;
            }
            self.steps += 1;
            if self.steps > ISO_STEP_BUDGET {
                return false;
            }
            // Consistency with every mapped node: edge presence and weight
            // bits must agree.
            let row_a = &self.weights_a[v * n..(v + 1) * n];
            let row_b = &self.weights_b[u * n..(u + 1) * n];
            if !self.order[..depth]
                .iter()
                .all(|&w| row_a[w] == row_b[self.image[w]])
            {
                continue;
            }
            self.image[v] = u;
            self.used[u] = true;
            if self.extend(depth + 1) {
                return true;
            }
            self.used[u] = false;
            if self.steps > ISO_STEP_BUDGET {
                return false;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perm_of(n: usize, seed: u64) -> Vec<usize> {
        // Tiny deterministic Fisher–Yates on a splitmix-style stream.
        let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        perm
    }

    #[test]
    fn hash_is_permutation_invariant() {
        let graphs = [
            Graph::path(7).unwrap(),
            Graph::cycle(8).unwrap(),
            Graph::star(9).unwrap(),
            Graph::complete(6).unwrap(),
            Graph::grid(3, 4).unwrap(),
            Graph::complete_bipartite(3, 4).unwrap(),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let base = wl_hash(g);
            for s in 0..5u64 {
                let h = g.relabel(&perm_of(g.n(), s.wrapping_add(i as u64 * 97)));
                assert_eq!(base, wl_hash(&h), "graph #{i} perm seed {s}");
                assert!(are_isomorphic(g, &h), "graph #{i} perm seed {s}");
            }
        }
    }

    #[test]
    fn distinct_structures_hash_differently() {
        // Same n, same m: path vs. star on 5 nodes (4 edges each).
        let path = Graph::path(5).unwrap();
        let star = Graph::star(5).unwrap();
        assert_ne!(wl_hash(&path), wl_hash(&star));
        assert!(!are_isomorphic(&path, &star));
    }

    #[test]
    fn weights_participate_in_the_hash() {
        let light = Graph::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let heavy = Graph::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)]).unwrap();
        assert_ne!(wl_hash(&light), wl_hash(&heavy));
        assert!(!are_isomorphic(&light, &heavy));
        // Moving the heavy edge elsewhere on the path is still isomorphic.
        let heavy_flipped = Graph::from_weighted_edges(3, &[(0, 1, 2.0), (1, 2, 1.0)]).unwrap();
        assert_eq!(wl_hash(&heavy), wl_hash(&heavy_flipped));
        assert!(are_isomorphic(&heavy, &heavy_flipped));
    }

    /// A non-isomorphic pair that still shares a hash: the first connected
    /// pair of colliding `random_regular(12, 3)` draws from
    /// `StdRng::seed_from_u64(7)`. Both are triangle-free and cubic, so
    /// degrees and triangle counts cannot tell them apart, and neither can
    /// their distance profiles or the refinement.
    fn cubic_collision_pair() -> (Graph, Graph) {
        // Edge lists, flattened: (u0, v0, u1, v1, …).
        let graph = |flat: [usize; 36]| {
            let pairs: Vec<(usize, usize)> = flat.chunks(2).map(|e| (e[0], e[1])).collect();
            Graph::from_edges(12, &pairs).unwrap()
        };
        let a = graph([
            10, 11, 0, 8, 1, 7, 6, 10, 1, 9, 6, 9, 7, 8, 8, 10, 2, 9, 0, 6, 4, 5, 5, 11, 2, 4, 0,
            4, 3, 11, 2, 3, 1, 5, 3, 7,
        ]);
        let b = graph([
            1, 4, 7, 10, 7, 9, 0, 3, 1, 3, 6, 11, 2, 11, 0, 7, 6, 10, 5, 10, 4, 8, 4, 11, 5, 8, 8,
            9, 3, 6, 0, 2, 2, 5, 1, 9,
        ]);
        (a, b)
    }

    #[test]
    fn wl_collision_pair_is_separated_by_exact_matcher() {
        // Refinement assigns both graphs the same color multiset, so the
        // hashes collide — which is exactly why bucket hits must run the
        // exact matcher.
        let (a, b) = cubic_collision_pair();
        assert!(a.is_connected() && b.is_connected());
        assert!(a.is_triangle_free() && b.is_triangle_free());
        assert_eq!(wl_hash(&a), wl_hash(&b));
        assert!(!are_isomorphic(&a, &b));
        assert!(are_isomorphic(&a, &a.relabel(&perm_of(12, 3))));
    }

    #[test]
    fn triangle_counts_separate_c6_from_two_triangles() {
        // Both are 2-regular on 6 nodes with 6 unit edges, so plain 1-WL
        // gives them one hash; triangle counts now tell them apart.
        let c6 = Graph::cycle(6).unwrap();
        let tri2 = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        assert_ne!(wl_hash(&c6), wl_hash(&tri2));
        assert!(!are_isomorphic(&c6, &tri2));
    }

    fn complement(g: &Graph) -> Graph {
        let mut c = Graph::empty(g.n()).unwrap();
        for u in 0..g.n() {
            for v in (u + 1)..g.n() {
                if !g.has_edge(u, v) {
                    c.add_edge(u, v, 1.0).unwrap();
                }
            }
        }
        c
    }

    #[test]
    fn dense_graphs_are_seeded_from_their_complement() {
        // 9-regular on 12 nodes: every node's own distance profile is
        // [9, 2] and refinement cannot split either graph, but their
        // complements are C12 and C5 + C7, whose profiles differ.
        let c12 = Graph::cycle(12).unwrap();
        let mut c5_c7 = Graph::empty(12).unwrap();
        for (start, len) in [(0usize, 5usize), (5, 7)] {
            for i in 0..len {
                c5_c7
                    .add_edge(start + i, start + (i + 1) % len, 1.0)
                    .unwrap();
            }
        }
        let (a, b) = (complement(&c12), complement(&c5_c7));
        assert_eq!((a.regular_degree(), b.regular_degree()), (Some(9), Some(9)));
        assert_ne!(wl_hash(&a), wl_hash(&b));
        assert!(!are_isomorphic(&a, &b));
        assert!(are_isomorphic(&a, &a.relabel(&perm_of(12, 5))));
    }

    #[test]
    fn colors_follow_the_relabeling() {
        use qrand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let g = crate::generate::random_regular(14, 5, &mut rng).unwrap();
        let perm = perm_of(14, 2);
        let (fg, fh) = (Fingerprint::of(&g), Fingerprint::of(&g.relabel(&perm)));
        assert_eq!(fg.hash(), fh.hash());
        for (v, &image) in perm.iter().enumerate() {
            assert_eq!(fg.colors()[v], fh.colors()[image], "node {v}");
        }
    }

    /// Non-isomorphic pairs that share a hash among `graphs`.
    fn colliding_pairs(graphs: &[Graph]) -> usize {
        let prints: Vec<Fingerprint> = graphs.iter().map(Fingerprint::of).collect();
        let mut pairs = 0;
        for i in 0..graphs.len() {
            for j in 0..i {
                if prints[i].hash() == prints[j].hash()
                    && !are_isomorphic_with(&graphs[i], &prints[i], &graphs[j], &prints[j])
                {
                    pairs += 1;
                }
            }
        }
        pairs
    }

    #[test]
    fn serving_shapes_have_no_colliding_pairs() {
        // The shapes regular serving traffic draws from: 12-15 nodes,
        // degree 5..=n-6. Plain 1-WL hashes each whole shape alike.
        use qrand::{rngs::StdRng, SeedableRng};
        for n in 12..=15usize {
            for d in (5..=n - 6).filter(|d| (n * d).is_multiple_of(2)) {
                let mut rng = StdRng::seed_from_u64((n * 100 + d) as u64);
                let graphs: Vec<Graph> = (0..300)
                    .map(|_| crate::generate::random_regular(n, d, &mut rng).unwrap())
                    .collect();
                assert_eq!(colliding_pairs(&graphs), 0, "shape ({n}, {d})");
            }
        }
    }

    #[test]
    fn cubic_relabelings_match_within_budget() {
        // Cubic graphs are the sparse shapes that keep a few collisions, so
        // their matcher runs on coarser colors; every relabeled copy must
        // still be found before the step budget runs out.
        use qrand::{rngs::StdRng, SeedableRng};
        for n in (4..=14usize).step_by(2) {
            let mut rng = StdRng::seed_from_u64(n as u64);
            for draw in 0..40u64 {
                let g = crate::generate::random_regular(n, 3, &mut rng).unwrap();
                let h = g.relabel(&perm_of(n, draw));
                assert!(are_isomorphic(&g, &h), "n = {n}, draw {draw}");
            }
        }
    }

    #[test]
    fn size_mismatches_reject_immediately() {
        let p3 = Graph::path(3).unwrap();
        let p4 = Graph::path(4).unwrap();
        assert!(!are_isomorphic(&p3, &p4));
        let c4 = Graph::cycle(4).unwrap();
        let sparse = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!are_isomorphic(&c4, &sparse));
    }

    #[test]
    fn dense_symmetric_graphs_match_within_budget() {
        // K_12 is the worst case for naive matching (12! mappings); the
        // search must still succeed because every candidate extends.
        let k = Graph::complete(12).unwrap();
        let shuffled = k.relabel(&perm_of(12, 7));
        assert!(are_isomorphic(&k, &shuffled));
        assert_eq!(wl_hash(&k), wl_hash(&shuffled));
    }

    /// `Graph::from_edges` on an edge list that is valid by construction.
    fn from_edges(n: usize, pairs: impl IntoIterator<Item = (usize, usize)>) -> Graph {
        Graph::from_edges(n, &pairs.into_iter().collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn one_color_shapes_match_in_linear_steps() {
        // Every node of these graphs shares one color, so nothing but the
        // search's anchoring on BFS parents keeps it from wandering.
        let cycle = Graph::cycle(15).unwrap();
        let c7_c8 = from_edges(
            15,
            (0..7)
                .map(|i| (i, (i + 1) % 7))
                .chain((0..8).map(|i| (7 + i, 7 + (i + 1) % 8))),
        );
        let cocktail_party = complement(&from_edges(14, (0..7).map(|i| (2 * i, 2 * i + 1))));
        let petersen = from_edges(
            10,
            (0..5).flat_map(|i| [(i, (i + 1) % 5), (i, i + 5), (i + 5, 5 + (i + 2) % 5)]),
        );
        let shapes = [
            ("cycle(15)", cycle.clone()),
            ("C7 + C8", c7_c8),
            ("complement of cycle(15)", complement(&cycle)),
            ("complete(15)", Graph::complete(15).unwrap()),
            ("cocktail party on 14 nodes", cocktail_party),
            ("Petersen", petersen),
        ];
        for (name, g) in &shapes {
            let fg = Fingerprint::of(g);
            for seed in 0..20 {
                let h = g.relabel(&perm_of(g.n(), seed));
                let steps = search_steps(g, &fg, &h, &Fingerprint::of(&h));
                assert!(
                    steps.is_some_and(|steps| steps <= 4 * g.n() as u64),
                    "{name}, seed {seed}: {steps:?} steps"
                );
            }
        }
    }

    #[test]
    fn distinct_colors_force_the_map() {
        // Refinement gives every node of this serving shape its own color,
        // so the map needs no search: zero steps.
        use qrand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let g = crate::generate::random_regular(14, 5, &mut rng).unwrap();
        let fg = Fingerprint::of(&g);
        let mut colors = fg.colors().to_vec();
        colors.sort_unstable();
        colors.dedup();
        assert_eq!(colors.len(), 14);
        let h = g.relabel(&perm_of(14, 9));
        assert_eq!(search_steps(&g, &fg, &h, &Fingerprint::of(&h)), Some(0));
    }

    /// `m` distinct random edges on `n` nodes, weighted `1.0` or, when
    /// `weighted`, drawn from three values so that equal weights recur.
    fn random_graph(n: usize, m: usize, weighted: bool, rng: &mut qrand::rngs::StdRng) -> Graph {
        use qrand::{seq::SliceRandom, Rng};
        let mut pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .collect();
        pairs.shuffle(rng);
        let mut weight = || {
            if weighted {
                [0.5, 1.0, 2.0][rng.gen_range(0..3)]
            } else {
                1.0
            }
        };
        let triples: Vec<_> = pairs[..m].iter().map(|&(u, v)| (u, v, weight())).collect();
        Graph::from_weighted_edges(n, &triples).unwrap()
    }

    /// The isomorphism oracle: whether any of the `n!` maps carries every
    /// edge of `a` onto an edge of `b` with the same weight bits.
    fn isomorphic_by_brute_force(a: &Graph, b: &Graph) -> bool {
        fn extend(a: &Graph, b: &Graph, image: &mut Vec<usize>) -> bool {
            if image.len() == a.n() {
                return a.edges().iter().all(|e| {
                    b.edge_weight(image[e.u], image[e.v]).map(f64::to_bits)
                        == Some(e.weight.to_bits())
                });
            }
            (0..a.n()).any(|u| {
                if image.contains(&u) {
                    return false;
                }
                image.push(u);
                let found = extend(a, b, image);
                image.pop();
                found
            })
        }
        a.n() == b.n() && a.m() == b.m() && extend(a, b, &mut Vec::new())
    }

    /// A fingerprint whose colors are the coarser invariant `colors`, so the
    /// search also runs on the pairs refinement would have told apart.
    fn coarse(colors: Vec<u64>) -> Fingerprint {
        Fingerprint { hash: 0, colors }
    }

    qcheck::properties! {
        fn matcher_agrees_with_brute_force(
            n in 1usize..=7,
            fill in qcheck::choice([0usize, 20, 50, 80, 100]),
            weighted in qcheck::choice([false, true]),
            seed in qcheck::any_u64(),
        ) {
            use qrand::{seq::SliceRandom, SeedableRng};
            // Percent of all node pairs: empty, sparse, half, dense, complete.
            let pairs = n * (n - 1) / 2;
            let m = (pairs * fill + 50) / 100;
            let mut rng = qrand::rngs::StdRng::seed_from_u64(seed);
            let g = random_graph(n, m, weighted, &mut rng);
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(&mut rng);
            let relabeled = g.relabel(&perm);

            // The relabeling, its near misses (one weight changed, one
            // edge moved) and an independent draw with the same n and m.
            let triples: Vec<_> = relabeled.edges().iter().map(|e| (e.u, e.v, e.weight)).collect();
            let non_edges: Vec<(usize, usize)> = (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                .filter(|&(u, v)| !relabeled.has_edge(u, v))
                .collect();
            let mut others = vec![relabeled.clone(), random_graph(n, m, weighted, &mut rng)];
            if let Some(&(u, v, w)) = triples.first() {
                let mut changed = triples.clone();
                changed[0] = (u, v, if w == 1.0 { 2.0 } else { 1.0 });
                others.push(Graph::from_weighted_edges(n, &changed).unwrap());
                if let Some(&(x, y)) = non_edges.choose(&mut rng) {
                    let mut moved = triples.clone();
                    moved[0] = (x, y, w);
                    others.push(Graph::from_weighted_edges(n, &moved).unwrap());
                }
            }
            let degrees = |x: &Graph| coarse(x.degrees().into_iter().map(|d| d as u64).collect());
            let one_color = |x: &Graph| coarse(vec![0; x.n()]);
            for (i, h) in others.iter().enumerate() {
                let expected = isomorphic_by_brute_force(&g, h);
                qcheck::prop_assert!(i > 0 || expected, "the oracle misses a relabeling");
                let verdicts = [
                    are_isomorphic(&g, h),
                    search_steps(&g, &degrees(&g), h, &degrees(h)).is_some(),
                    search_steps(&g, &one_color(&g), h, &one_color(h)).is_some(),
                ];
                qcheck::prop_assert!(verdicts == [expected; 3], "{verdicts:?} against {expected}: {g:?} vs {h:?}");
            }
        }
    }

    #[test]
    fn edgeless_graphs_compare_by_node_count() {
        let a = Graph::empty(5).unwrap();
        let b = Graph::empty(5).unwrap();
        let c = Graph::empty(6).unwrap();
        assert_eq!(wl_hash(&a), wl_hash(&b));
        assert!(are_isomorphic(&a, &b));
        assert_ne!(wl_hash(&a), wl_hash(&c));
        assert!(!are_isomorphic(&a, &c));
    }
}
