//! Isomorphism-invariance acceptance suite for the canonical-form
//! prediction cache (`core::cache` + `qgraph::canon`).
//!
//! The contract under test:
//!
//! 1. **Canonical hashing** — `wl_hash` is invariant under node
//!    relabeling (fuzzed with qcheck over random, random regular and
//!    weighted graphs × random permutations, plus a graph above 64 nodes)
//!    and separates distinct structures (path vs star, C6 vs 2×C3).
//! 2. **Bit-exact replies** — a cache hit is bit-identical to the fresh
//!    [`GuardedPredictor::handle`] reply it memoized, apart from the
//!    `cached` marker. Holds for the same graph, for isomorphic
//!    relabelings, and per artifact generation. A relabeled hit therefore
//!    serves the *first* labeling's angles, which are not what a fresh
//!    forward of the relabeled graph would give: the node features
//!    include a one-hot node id, so the GNN is not permutation-invariant.
//! 3. **Collision safety** — a colliding pair (two triangle-free cubic
//!    graphs on 12 nodes: same hash, not isomorphic) never cross-serves:
//!    each graph gets its own parameters, never the colliding entry's.
//! 4. **Loop-level replay** — a Zipf request stream served by a
//!    [`ServeLoop`] with the cache on yields the same reply bits as the
//!    same stream with the cache off, and the cache simulates each
//!    distinct form exactly once.

use std::sync::Arc;

use gnn::train::TrainHistory;
use gnn::{GnnKind, GnnModel, ModelConfig};
use qaoa_gnn::dataset::LabelReport;
use qaoa_gnn::pipeline::PipelineConfig;
use qaoa_gnn::store::{fnv1a_extend, FNV1A_OFFSET};
use qaoa_gnn::{
    CacheConfig, CacheStats, GuardedPredictor, LoopConfig, PredictionCache, PredictionOutcome,
    RunArtifact, Rung, ServeConfig, ServeLoop, ServeRequest, TrainingEnvelope,
};
use qgraph::canon::{are_isomorphic, are_isomorphic_with, wl_hash, Fingerprint};
use qgraph::Graph;
use qrand::rngs::StdRng;
use qrand::seq::SliceRandom;
use qrand::{Rng, SeedableRng};

/// An untrained artifact with a wide envelope: cheap to build per qcheck
/// case, deterministic bits for a fixed seed.
fn tiny_artifact() -> RunArtifact {
    let mut rng = StdRng::seed_from_u64(9301);
    let config = ModelConfig {
        hidden_dim: 4,
        ..ModelConfig::default()
    };
    let model = GnnModel::new(GnnKind::Gcn, config, &mut rng);
    RunArtifact {
        config: PipelineConfig::quick(),
        weights: model.export_weights(),
        history: TrainHistory::default(),
        label_report: LabelReport::clean(1),
        dataset_fingerprint: 0,
        envelope: Some(TrainingEnvelope {
            min_nodes: 2,
            max_nodes: 15,
            max_degree: 14,
            feature_dim: 16,
            mean_gamma: 1.0,
            mean_beta: 0.5,
        }),
    }
}

fn cached_predictor(cache: &Arc<PredictionCache>, generation: u64) -> GuardedPredictor {
    GuardedPredictor::new(tiny_artifact(), ServeConfig::default())
        .with_cache(Arc::clone(cache), generation)
}

/// A random connected-ish instance inside the artifact envelope.
fn random_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 4 + (seed % 9) as usize; // 4..=12 nodes
    qgraph::generate::erdos_renyi(n, 0.5, &mut rng).unwrap()
}

/// A random regular instance inside the artifact envelope: 12-15 nodes,
/// any feasible degree from 2 up.
fn random_regular_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 12 + (seed % 4) as usize;
    let degrees: Vec<usize> = (2..n).filter(|d| (n * d).is_multiple_of(2)).collect();
    let d = degrees[(seed / 4) as usize % degrees.len()];
    qgraph::generate::random_regular(n, d, &mut rng).unwrap()
}

/// `graph` with each edge's weight drawn from a small set, so equal
/// weights recur and the weight multiset alone does not pin the labeling.
fn reweighted(graph: &Graph, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3e16_47a1);
    let triples: Vec<(usize, usize, f64)> = graph
        .edges()
        .iter()
        .map(|e| (e.u, e.v, [0.5, 1.0, 2.0][rng.gen_range(0..3)]))
        .collect();
    Graph::from_weighted_edges(graph.n(), &triples).unwrap()
}

fn random_perm(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5bf0_3635);
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(&mut rng);
    perm
}

/// Strips the one field a hit is allowed to differ in.
fn unmarked(mut outcome: PredictionOutcome) -> PredictionOutcome {
    outcome.cached = false;
    outcome
}

fn serve(predictor: &GuardedPredictor, graph: &Graph) -> PredictionOutcome {
    predictor
        .handle(&ServeRequest::from_graph(graph.clone()))
        .result
        .expect("in-envelope request must serve")
}

qcheck::properties! {
    cases = 60;

    /// Acceptance 1 (fuzz): relabeling nodes never changes the WL hash,
    /// and the exact matcher agrees the relabeling is an isomorphism.
    fn wl_hash_is_invariant_under_relabeling(seed in qcheck::any_u64()) {
        let graph = random_graph(seed);
        let relabeled = graph.relabel(&random_perm(graph.n(), seed));
        qcheck::prop_assert_eq!(wl_hash(&graph), wl_hash(&relabeled));
        qcheck::prop_assert!(are_isomorphic(&graph, &relabeled));
    }

    /// Acceptance 1 (fuzz) on the paper's graphs: random regular graphs,
    /// whose nodes 1-WL cannot tell apart, keep their hash under
    /// relabeling and are matched by the exact check.
    fn hash_is_invariant_on_random_regular_graphs(seed in qcheck::any_u64()) {
        let graph = random_regular_graph(seed);
        let relabeled = graph.relabel(&random_perm(graph.n(), seed));
        qcheck::prop_assert_eq!(wl_hash(&graph), wl_hash(&relabeled));
        qcheck::prop_assert!(are_isomorphic(&graph, &relabeled));
    }

    /// Acceptance 1 (fuzz) on weighted graphs: weights travel with their
    /// edges under relabeling, and the hash and matcher follow them.
    fn hash_is_invariant_on_weighted_graphs(seed in qcheck::any_u64()) {
        let base = if seed % 2 == 0 { random_graph(seed) } else { random_regular_graph(seed) };
        let graph = reweighted(&base, seed);
        let relabeled = graph.relabel(&random_perm(graph.n(), seed));
        qcheck::prop_assert_eq!(wl_hash(&graph), wl_hash(&relabeled));
        qcheck::prop_assert!(are_isomorphic(&graph, &relabeled));
    }

    /// Acceptance 2 (fuzz): a cache hit — including a hit through an
    /// isomorphic relabeling — is bit-identical to the fresh reply that
    /// was memoized first, apart from the `cached` marker. For the
    /// relabeled hit that is the first labeling's reply; it is never
    /// compared with a fresh forward of the relabeled graph, which can
    /// differ by far more than a float bit
    /// (`relabeled_hit_serves_first_labeling_not_fresh_forward`).
    fn cached_reply_is_bit_identical_to_fresh(seed in qcheck::any_u64()) {
        let cache = Arc::new(PredictionCache::new(CacheConfig::default()));
        let served = cached_predictor(&cache, 0);
        let graph = random_graph(seed);

        let fresh = serve(&served, &graph);
        qcheck::prop_assert!(!fresh.cached);

        let hit = serve(&served, &graph);
        qcheck::prop_assert!(hit.cached);
        qcheck::prop_assert_eq!(unmarked(hit), fresh.clone());

        // The canonical form, not the labeling, keys the cache: an
        // isomorphic relabeling hits and serves the same parameters.
        let relabeled = graph.relabel(&random_perm(graph.n(), seed));
        let iso_hit = serve(&served, &relabeled);
        qcheck::prop_assert!(iso_hit.cached);
        qcheck::prop_assert_eq!(unmarked(iso_hit), fresh);
    }

}

#[test]
fn relabeled_hit_serves_first_labeling_not_fresh_forward() {
    // Node features carry a one-hot node id, so the GNN's angles depend on
    // the labeling. The cache keys on the canonical form: whichever
    // labeling arrives first decides what every isomorphic request gets.
    let graph = random_regular_graph(12);
    let relabeled = graph.relabel(&random_perm(graph.n(), 12));
    let cache = Arc::new(PredictionCache::new(CacheConfig::default()));
    let served = cached_predictor(&cache, 0);
    let first = serve(&served, &graph);
    let hit = serve(&served, &relabeled);
    assert!(hit.cached);
    assert_eq!(unmarked(hit.clone()), first);

    let uncached = GuardedPredictor::new(tiny_artifact(), ServeConfig::default());
    let fresh_relabeled = serve(&uncached, &relabeled);
    assert_eq!(fresh_relabeled.rung, Rung::Gnn);
    let gap = (hit.params.gammas()[0] - fresh_relabeled.params.gammas()[0])
        .abs()
        .max((hit.params.betas()[0] - fresh_relabeled.params.betas()[0]).abs());
    // Observed: 0.040 rad, some 10^14 float steps at this magnitude.
    assert!(gap > 1e-3, "relabeled hit is {gap:e} from a fresh forward");
}

#[test]
fn path_and_star_hash_differently() {
    // Same node and edge count, different structure — the WL refinement
    // must separate them (degree multisets already differ).
    let path = Graph::path(6).unwrap();
    let star = Graph::star(6).unwrap();
    assert_ne!(wl_hash(&path), wl_hash(&star));
    assert!(!are_isomorphic(&path, &star));
}

#[test]
fn hash_is_invariant_above_64_nodes() {
    // 100 nodes span two bitset words, so the multi-word paths of the
    // triangle, common-neighbor and distance-profile code all run.
    let mut rng = StdRng::seed_from_u64(6400);
    let graph = reweighted(
        &qgraph::generate::random_regular(100, 3, &mut rng).unwrap(),
        6400,
    );
    for seed in 0..4 {
        let relabeled = graph.relabel(&random_perm(graph.n(), seed));
        assert_eq!(wl_hash(&graph), wl_hash(&relabeled), "perm seed {seed}");
        assert!(are_isomorphic(&graph, &relabeled), "perm seed {seed}");
    }
    // Moving one edge changes the structure and the hash.
    let mut triples: Vec<(usize, usize, f64)> =
        graph.edges().iter().map(|e| (e.u, e.v, e.weight)).collect();
    let (u, v, w) = triples.pop().unwrap();
    let moved = (0..graph.n())
        .find(|&x| x != u && x != v && !graph.has_edge(u, x))
        .unwrap();
    triples.push((u, moved, w));
    let other = Graph::from_weighted_edges(graph.n(), &triples).unwrap();
    assert_ne!(wl_hash(&graph), wl_hash(&other));
    assert!(!are_isomorphic(&graph, &other));
}

#[test]
fn c6_and_two_triangles_are_separated_by_the_hash() {
    // The classic 1-WL collision (both 2-regular on six nodes): triangle
    // counts now give the two graphs different hashes.
    let c6 = Graph::cycle(6).unwrap();
    let two_c3 = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
    assert_ne!(wl_hash(&c6), wl_hash(&two_c3));
    assert!(!are_isomorphic(&c6, &two_c3));
}

/// Two triangle-free cubic graphs on 12 nodes: the first connected
/// colliding pair among `random_regular(12, 3)` draws from
/// `StdRng::seed_from_u64(7)`. Their hashes collide; the graphs are not
/// isomorphic.
fn collision_pair() -> (Graph, Graph) {
    // Edge lists, flattened: (u0, v0, u1, v1, …).
    let graph = |flat: [usize; 36]| {
        let pairs: Vec<(usize, usize)> = flat.chunks(2).map(|e| (e[0], e[1])).collect();
        Graph::from_edges(12, &pairs).unwrap()
    };
    let a = graph([
        10, 11, 0, 8, 1, 7, 6, 10, 1, 9, 6, 9, 7, 8, 8, 10, 2, 9, 0, 6, 4, 5, 5, 11, 2, 4, 0, 4, 3,
        11, 2, 3, 1, 5, 3, 7,
    ]);
    let b = graph([
        1, 4, 7, 10, 7, 9, 0, 3, 1, 3, 6, 11, 2, 11, 0, 7, 6, 10, 5, 10, 4, 8, 4, 11, 5, 8, 8, 9,
        3, 6, 0, 2, 2, 5, 1, 9,
    ]);
    assert_eq!(wl_hash(&a), wl_hash(&b), "pair must collide");
    assert!(!are_isomorphic(&a, &b));
    (a, b)
}

#[test]
fn wl_collision_never_cross_serves() {
    let (a, b) = collision_pair();
    let cache = Arc::new(PredictionCache::new(CacheConfig::default()));
    let served = cached_predictor(&cache, 0);

    // Warm the cache with `a` only. The colliding `b` must NOT hit it:
    // the exact matcher behind the hash bucket rejects the collision and
    // the request runs the ladder fresh.
    let fresh_a = serve(&served, &a);
    let fresh_b = serve(&served, &b);
    assert!(!fresh_b.cached, "collision must not serve a false hit");
    assert_eq!(
        cache.stats().collisions,
        1,
        "the rejected bucket probe is counted"
    );

    // With both resident in the same bucket, each graph serves its own
    // memoized parameters — bit-identical to its fresh reply, never the
    // colliding entry's.
    let hit_a = serve(&served, &a);
    let hit_b = serve(&served, &b);
    assert!(hit_a.cached && hit_b.cached);
    assert_eq!(unmarked(hit_a), fresh_a);
    assert_eq!(unmarked(hit_b), fresh_b);
}

#[test]
fn generations_partition_the_cache() {
    let cache = Arc::new(PredictionCache::new(CacheConfig::default()));
    let graph = Graph::cycle(8).unwrap();

    // Warm under generation 0, then serve the same shared cache from a
    // generation-1 predictor: the stale entry must not answer.
    let gen0 = cached_predictor(&cache, 0);
    let fresh = serve(&gen0, &graph);
    assert!(serve(&gen0, &graph).cached);

    let gen1 = cached_predictor(&cache, 1);
    let after_swap = serve(&gen1, &graph);
    assert!(
        !after_swap.cached,
        "a new generation must re-run the ladder"
    );
    // Same untrained artifact bits back the two predictors here, so the
    // recomputed reply matches; the point is it was recomputed.
    assert_eq!(after_swap, fresh);
    assert!(
        serve(&gen1, &graph).cached,
        "generation 1 re-warms normally"
    );
}

#[test]
fn cache_attaches_only_to_clean_gnn_replies() {
    // An out-of-envelope request degrades past the GNN rung and must not
    // be cached: replaying it re-runs the ladder every time.
    let cache = Arc::new(PredictionCache::new(CacheConfig::default()));
    let served = cached_predictor(&cache, 0);
    let big = Graph::cycle(40).unwrap(); // envelope caps at 15 nodes

    let first = serve(&served, &big);
    assert_ne!(first.rung, Rung::Gnn);
    let second = serve(&served, &big);
    assert!(!second.cached, "degraded replies are never memoized");
    assert_eq!(cache.stats().inserts, 0);
}

/// `size` pairwise non-isomorphic in-envelope graphs: cycles, paths and
/// stars first, Erdős–Rényi instances for the rest. An isomorphic pair
/// would let a hit serve the other labeling's bits, which a fresh forward
/// need not reproduce, so exact replay needs an isomorphism-free pool.
fn graph_pool(size: usize) -> Vec<Graph> {
    let mut pool: Vec<(Graph, Fingerprint)> = Vec::new();
    let push_unique = |pool: &mut Vec<(Graph, Fingerprint)>, candidate: Graph| {
        let print = Fingerprint::of(&candidate);
        if !pool
            .iter()
            .any(|(g, p)| are_isomorphic_with(g, p, &candidate, &print))
        {
            pool.push((candidate, print));
        }
    };
    for n in 3..=12 {
        push_unique(&mut pool, Graph::cycle(n).unwrap());
        push_unique(&mut pool, Graph::path(n).unwrap());
        push_unique(&mut pool, Graph::star(n).unwrap());
    }
    let mut rng = StdRng::seed_from_u64(515);
    let mut attempts = 0;
    while pool.len() < size && attempts < size * 20 {
        let n = 5 + attempts % 8;
        push_unique(
            &mut pool,
            qgraph::generate::erdos_renyi(n, 0.5, &mut rng).unwrap(),
        );
        attempts += 1;
    }
    pool.truncate(size);
    pool.into_iter().map(|(g, _)| g).collect()
}

/// `requests` pool indices drawn from Zipf(1.1): rank r has probability
/// proportional to 1/r^1.1.
fn zipf_stream(pool_size: usize, requests: usize, seed: u64) -> Vec<usize> {
    let weights: Vec<f64> = (1..=pool_size).map(|r| (r as f64).powf(-1.1)).collect();
    let total: f64 = weights.iter().sum();
    let cumulative: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..requests)
        .map(|_| {
            let u: f64 = rng.gen();
            cumulative.partition_point(|&c| c < u).min(pool_size - 1)
        })
        .collect()
}

/// Serves `stream` through a one-worker loop with `cache` and returns an
/// FNV-1a digest over every reply's angle bits and rung quality (the
/// `cached` marker left out) plus the loop's cache counters.
fn replay(cache: CacheConfig, pool: &[Graph], stream: &[usize]) -> (u64, CacheStats) {
    let serve = ServeLoop::new(
        tiny_artifact(),
        LoopConfig::default().with_workers(1).with_cache(cache),
    );
    let mut digest = FNV1A_OFFSET;
    for &index in stream {
        let done = serve.handle_wait(ServeRequest::from_graph(pool[index].clone()));
        let outcome = done.response.result.expect("in-envelope request serves");
        let (gamma, beta) = outcome.angles();
        digest = fnv1a_extend(digest, &gamma.to_bits().to_le_bytes());
        digest = fnv1a_extend(digest, &beta.to_bits().to_le_bytes());
        digest = fnv1a_extend(digest, &u64::from(outcome.rung.quality()).to_le_bytes());
    }
    (digest, serve.cache_stats())
}

#[test]
fn zipf_replay_through_the_loop_is_bit_identical_with_the_cache_on() {
    let pool = graph_pool(48);
    let stream = zipf_stream(pool.len(), 2000, 2024);
    let mut distinct = stream.clone();
    distinct.sort_unstable();
    distinct.dedup();

    let (off_digest, off) = replay(CacheConfig::disabled(), &pool, &stream);
    let (on_digest, on) = replay(CacheConfig::default(), &pool, &stream);
    assert_eq!(
        on_digest, off_digest,
        "cached replies must carry the bits of fresh ones"
    );
    assert_eq!(off.hits, 0, "the cache-off loop must never hit");
    assert_eq!(
        on.misses,
        distinct.len() as u64,
        "one miss per distinct form"
    );
    assert_eq!(on.hits, (stream.len() - distinct.len()) as u64);
}
