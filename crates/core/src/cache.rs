//! Canonical-form prediction cache.
//!
//! At scale the request stream repeats: many submitted graphs are identical
//! or isomorphic up to node relabeling, and the paper's whole premise is
//! that the optimal `(γ, β)` depend on graph *structure*. This module
//! caches [`crate::serve::PredictionOutcome`]s keyed by the
//! permutation-invariant [`qgraph::canon::Fingerprint`] hash, so a
//! structurally repeated graph is answered from memory instead of paying
//! another GNN forward (and, with verification on, another `2^n`
//! simulation).
//!
//! Each entry stores its graph's fingerprint (hash plus refined node
//! colors). A request's fingerprint is computed once, by the caller via
//! [`PredictionCache::fingerprint`] or inside [`PredictionCache::lookup`] /
//! [`PredictionCache::insert`], and serves the bucket probe, every exact
//! comparison, and the insert on a miss; no comparison recomputes either
//! graph's colors. The colors are seeded with triangle counts and distance
//! profiles, so random regular graphs of one shape — which plain 1-WL
//! hashes alike — land in different buckets, and a miss rarely has to
//! reject any colliding entry.
//!
//! ## Correctness contract
//!
//! * **A hash collision can never serve wrong parameters.** Every bucket
//!   hit re-checks the stored graph against the incoming one with the exact
//!   matcher [`qgraph::canon::are_isomorphic_with`]; a colliding
//!   non-isomorphic entry is skipped (and counted in
//!   [`CacheStats::collisions`]).
//! * **A retrained artifact never serves stale angles.** The cache holds
//!   the entries of one publishing generation at a time.
//!   [`PredictionCache::invalidate_all`] runs eagerly on every hot-swap,
//!   and a lookup or insert under any other generation first empties the
//!   cache and adopts the requester's generation — so even an insert that
//!   races a swap can only ever produce a dead entry, never a stale hit.
//! * **A broken cache degrades, never fails.** The fingerprint and the
//!   entire lookup/insert path run under `catch_unwind` (exercised via the
//!   [`crate::faults::CACHE_LOOKUP`] failpoint): a panicking hash or lookup
//!   is contained and reported as a normal miss, and the request proceeds
//!   down the ordinary GNN rung.
//! * **Only clean outcomes are cached.** Degraded replies (skips, clamped
//!   angles, lower rungs) are never pinned; the next structurally equal
//!   request retries the full ladder.
//!
//! The cached reply is the *representative's* outcome: for an isomorphic
//! (relabeled) hit the served angles are those predicted for the first-seen
//! labeling. That is exactly the structure→parameter contract of the paper
//! (γ, β are graph invariants), and `tests/cache_parity.rs` pins it.
//!
//! ## Bounds
//!
//! The cache is one least-recently-used list behind one mutex, bounded both
//! by entry count and by estimated bytes (the stored graph, its
//! fingerprint's colors, and the outcome). An insert evicts the least
//! recently used entries until both bounds hold again, so neither is ever
//! exceeded.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use qgraph::canon::{self, Fingerprint};
use qgraph::Graph;

use crate::faults;
use crate::serve::PredictionOutcome;

/// Sizing for a [`PredictionCache`]: start from [`Default::default`] (or
/// [`CacheConfig::disabled`]) and refine with the `with_*` builders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Entry bound.
    pub capacity_entries: usize,
    /// Bound on estimated resident bytes. An entry larger than this is
    /// simply not cached.
    pub max_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity_entries: 4096,
            max_bytes: 16 << 20, // 16 MiB
        }
    }
}

impl CacheConfig {
    /// A config with zero capacity: [`PredictionCache::new`] on it yields a
    /// no-op cache (every lookup a pass-through miss, inserts dropped).
    /// This is the [`crate::serve_loop::LoopConfig`] default — caching is
    /// opt-in per deployment.
    pub fn disabled() -> Self {
        CacheConfig {
            capacity_entries: 0,
            max_bytes: 0,
        }
    }

    /// `true` when this config admits at least one entry.
    pub fn is_enabled(&self) -> bool {
        self.capacity_entries > 0 && self.max_bytes > 0
    }

    /// Builder-style: sets the entry bound.
    pub fn with_capacity_entries(mut self, capacity_entries: usize) -> Self {
        self.capacity_entries = capacity_entries;
        self
    }

    /// Builder-style: sets the byte bound.
    pub fn with_max_bytes(mut self, max_bytes: usize) -> Self {
        self.max_bytes = max_bytes;
        self
    }
}

/// Monotone counters accumulated over a [`PredictionCache`]'s lifetime,
/// plus two point-in-time residency gauges. The counters are merged into
/// [`crate::serve_loop::LoopMetrics`] by the serve loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no usable entry (includes contained faults).
    pub misses: u64,
    /// Entries stored.
    pub inserts: u64,
    /// Entries evicted by the LRU policy (count or byte pressure).
    pub evictions: u64,
    /// Entries dropped by generation invalidation (eager on hot-swap plus
    /// lazy purges during lookup/insert).
    pub invalidations: u64,
    /// Lookups where a stored entry's hash matched but the exact
    /// isomorphism check rejected its graph — the collision fallback
    /// working.
    pub collisions: u64,
    /// Lookup/insert faults contained by the cache (each such lookup also
    /// counts as a miss).
    pub lookup_faults: u64,
    /// Point-in-time gauge: entries resident.
    pub entries: usize,
    /// Point-in-time gauge: estimated resident bytes.
    pub resident_bytes: usize,
}

struct Entry {
    fingerprint: Fingerprint,
    graph: Graph,
    outcome: PredictionOutcome,
    bytes: usize,
    last_used: u64,
}

/// The cached entries, all of one artifact generation.
#[derive(Default)]
struct Lru {
    generation: u64,
    entries: Vec<Entry>,
    bytes: usize,
    tick: u64,
}

impl Lru {
    /// Empties the cache when `generation` is not the one it holds and
    /// adopts `generation`, returning how many entries were dropped (the
    /// lazy half of the invalidation protocol).
    fn adopt(&mut self, generation: u64) -> u64 {
        if self.generation == generation {
            return 0;
        }
        self.generation = generation;
        self.clear()
    }

    /// Drops every entry, returning how many there were.
    fn clear(&mut self) -> u64 {
        let removed = self.entries.len() as u64;
        self.entries.clear();
        self.bytes = 0;
        removed
    }

    fn evict_lru(&mut self) -> bool {
        let Some(idx) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(i, _)| i)
        else {
            return false;
        };
        let removed = self.entries.swap_remove(idx);
        self.bytes -= removed.bytes;
        true
    }
}

/// Conservative estimate of an entry's resident bytes: the struct itself,
/// the stored graph (edge list + adjacency), the fingerprint's colors, and
/// the outcome's heap tails.
fn entry_bytes(graph: &Graph, fingerprint: &Fingerprint, outcome: &PredictionOutcome) -> usize {
    let graph_bytes = graph.m() * std::mem::size_of::<qgraph::Edge>()
        + 2 * graph.m() * std::mem::size_of::<(usize, f64)>()
        + graph.n() * std::mem::size_of::<Vec<(usize, f64)>>();
    let color_bytes = std::mem::size_of_val(fingerprint.colors());
    let outcome_bytes =
        2 * outcome.params.depth() * std::mem::size_of::<f64>() + outcome.skips.len() * 64;
    std::mem::size_of::<Entry>() + graph_bytes + color_bytes + outcome_bytes
}

/// Memory-bounded, generation-aware LRU over canonical graph forms. See
/// the module docs for the correctness contract.
pub struct PredictionCache {
    lru: Mutex<Lru>,
    capacity_entries: usize,
    max_bytes: usize,
    enabled: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    collisions: AtomicU64,
    lookup_faults: AtomicU64,
}

impl std::fmt::Debug for PredictionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictionCache")
            .field("capacity_entries", &self.capacity_entries)
            .field("max_bytes", &self.max_bytes)
            .field("enabled", &self.enabled)
            .field("stats", &self.stats())
            .finish()
    }
}

impl PredictionCache {
    /// Builds a cache sized by `config`. A disabled config (zero entries or
    /// bytes) yields a no-op cache: lookups are pass-through misses that
    /// touch no counters, inserts are dropped.
    pub fn new(config: CacheConfig) -> Self {
        PredictionCache {
            lru: Mutex::new(Lru::default()),
            capacity_entries: config.capacity_entries,
            max_bytes: config.max_bytes,
            enabled: config.is_enabled(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
            lookup_faults: AtomicU64::new(0),
        }
    }

    /// `true` when the cache can hold entries at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Locks the entries, tolerating poisoning: a contained panic that
    /// unwound through a lock holder must not wedge the serving path.
    fn lock(&self) -> std::sync::MutexGuard<'_, Lru> {
        self.lru
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Locks the entries for an access under `generation`, emptying them
    /// first when they belong to another generation.
    fn lock_for(&self, generation: u64) -> std::sync::MutexGuard<'_, Lru> {
        let mut lru = self.lock();
        let purged = lru.adopt(generation);
        if purged > 0 {
            self.invalidations.fetch_add(purged, Ordering::Relaxed);
        }
        lru
    }

    /// Counts a contained fault on the lookup path, which is also a miss.
    fn lookup_fault(&self) {
        self.lookup_faults.fetch_add(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// `graph`'s fingerprint, computed once per request for
    /// [`Self::lookup_with`] and [`Self::insert_with`]. `None` when the
    /// cache is disabled (so a cache-less deployment never hashes), or when
    /// the computation panicked: that is contained like a lookup fault and
    /// counted as a miss, and the caller skips the cache for this request.
    pub fn fingerprint(&self, graph: &Graph) -> Option<Fingerprint> {
        if !self.enabled {
            return None;
        }
        match catch_unwind(AssertUnwindSafe(|| Fingerprint::of(graph))) {
            Ok(fingerprint) => Some(fingerprint),
            Err(_) => {
                self.lookup_fault();
                None
            }
        }
    }

    /// Looks up a cached outcome for a graph structurally equal to `graph`
    /// under the given artifact generation.
    ///
    /// On a hit the returned outcome is a clone of the stored one with
    /// [`PredictionOutcome::cached`] set. Any panic on this path (including
    /// one injected via [`faults::CACHE_LOOKUP`]) is contained and reported
    /// as a miss.
    pub fn lookup(&self, graph: &Graph, generation: u64) -> Option<PredictionOutcome> {
        let fingerprint = self.fingerprint(graph)?;
        self.lookup_with(graph, &fingerprint, generation)
    }

    /// [`Self::lookup`] with `graph`'s fingerprint already computed (see
    /// [`Self::fingerprint`]).
    pub fn lookup_with(
        &self,
        graph: &Graph,
        fingerprint: &Fingerprint,
        generation: u64,
    ) -> Option<PredictionOutcome> {
        if !self.enabled {
            return None;
        }
        match catch_unwind(AssertUnwindSafe(|| {
            self.lookup_inner(graph, fingerprint, generation)
        })) {
            Ok(found) => found,
            Err(_) => {
                self.lookup_fault();
                None
            }
        }
    }

    fn lookup_inner(
        &self,
        graph: &Graph,
        fingerprint: &Fingerprint,
        generation: u64,
    ) -> Option<PredictionOutcome> {
        if faults::fire_may_panic(faults::CACHE_LOOKUP).is_some() {
            // Non-panic injection: the lookup aborts before probing.
            self.lookup_fault();
            return None;
        }
        let hash = fingerprint.hash();
        let mut lru = self.lock_for(generation);
        let mut collided = false;
        let mut found = None;
        for idx in 0..lru.entries.len() {
            let entry = &lru.entries[idx];
            if entry.fingerprint.hash() != hash {
                continue;
            }
            // Collision fallback: the hash bucket is only a candidate set.
            // Exact structural comparison decides, so a hash collision can
            // never serve the colliding entry's parameters.
            if entry.graph == *graph
                || canon::are_isomorphic_with(&entry.graph, &entry.fingerprint, graph, fingerprint)
            {
                found = Some(idx);
                break;
            }
            collided = true;
        }
        if collided {
            self.collisions.fetch_add(1, Ordering::Relaxed);
        }
        match found {
            Some(idx) => {
                lru.tick += 1;
                let tick = lru.tick;
                let entry = &mut lru.entries[idx];
                entry.last_used = tick;
                let mut outcome = entry.outcome.clone();
                outcome.cached = true;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(outcome)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores an outcome for `graph` under `generation`, evicting LRU
    /// entries as needed to respect the entry and byte bounds. Oversized
    /// entries are dropped silently; a structurally equal entry already
    /// present is refreshed instead of duplicated. Panics are contained
    /// exactly as in [`PredictionCache::lookup`].
    pub fn insert(&self, graph: &Graph, generation: u64, outcome: &PredictionOutcome) {
        self.insert_contained(|| {
            self.insert_inner(graph, &Fingerprint::of(graph), generation, outcome)
        });
    }

    /// [`Self::insert`] with `graph`'s fingerprint already computed (see
    /// [`Self::fingerprint`]).
    pub fn insert_with(
        &self,
        graph: &Graph,
        fingerprint: &Fingerprint,
        generation: u64,
        outcome: &PredictionOutcome,
    ) {
        self.insert_contained(|| self.insert_inner(graph, fingerprint, generation, outcome));
    }

    fn insert_contained(&self, insert: impl FnOnce()) {
        if self.enabled && catch_unwind(AssertUnwindSafe(insert)).is_err() {
            self.lookup_faults.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn insert_inner(
        &self,
        graph: &Graph,
        fingerprint: &Fingerprint,
        generation: u64,
        outcome: &PredictionOutcome,
    ) {
        let hash = fingerprint.hash();
        let bytes = entry_bytes(graph, fingerprint, outcome);
        if bytes > self.max_bytes {
            return;
        }
        let mut lru = self.lock_for(generation);
        lru.tick += 1;
        let tick = lru.tick;
        if let Some(existing) = lru.entries.iter_mut().find(|e| {
            e.fingerprint.hash() == hash
                && (e.graph == *graph
                    || canon::are_isomorphic_with(&e.graph, &e.fingerprint, graph, fingerprint))
        }) {
            existing.last_used = tick;
            return;
        }
        let mut stored = outcome.clone();
        stored.cached = false;
        lru.entries.push(Entry {
            fingerprint: fingerprint.clone(),
            graph: graph.clone(),
            outcome: stored,
            bytes,
            last_used: tick,
        });
        lru.bytes += bytes;
        self.inserts.fetch_add(1, Ordering::Relaxed);
        while lru.entries.len() > self.capacity_entries || lru.bytes > self.max_bytes {
            if !lru.evict_lru() {
                break;
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops every entry (the eager half of the hot-swap invalidation
    /// protocol), returning how many were removed.
    pub fn invalidate_all(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let removed = self.lock().clear();
        self.invalidations.fetch_add(removed, Ordering::Relaxed);
        removed
    }

    /// Current entry count (a gauge, not a counter).
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// `true` when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current estimated resident bytes.
    pub fn resident_bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            collisions: self.collisions.load(Ordering::Relaxed),
            lookup_faults: self.lookup_faults.load(Ordering::Relaxed),
            entries: self.len(),
            resident_bytes: self.resident_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{EnvelopeStatus, Rung};
    use qaoa::Params;

    fn outcome_for(tag: f64) -> PredictionOutcome {
        PredictionOutcome {
            params: Params::new(vec![tag], vec![tag / 2.0]),
            rung: Rung::Gnn,
            skips: Vec::new(),
            envelope: EnvelopeStatus::InEnvelope,
            clamped: false,
            verified_score: Some(tag),
            cached: false,
        }
    }

    fn graph(tag: usize) -> Graph {
        // Distinct structures per tag: paths of different lengths.
        Graph::path(tag + 2).unwrap()
    }

    #[test]
    fn disabled_cache_is_a_pass_through() {
        let cache = PredictionCache::new(CacheConfig::disabled());
        assert!(!cache.is_enabled());
        cache.insert(&graph(0), 0, &outcome_for(1.0));
        assert_eq!(cache.lookup(&graph(0), 0), None);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn hit_returns_stored_outcome_with_cached_marker() {
        let cache = PredictionCache::new(CacheConfig::default());
        let g = graph(3);
        let fresh = outcome_for(0.25);
        assert_eq!(cache.lookup(&g, 0), None);
        cache.insert(&g, 0, &fresh);
        let hit = cache.lookup(&g, 0).expect("hit");
        assert!(hit.cached);
        let mut unmarked = hit.clone();
        unmarked.cached = false;
        assert_eq!(unmarked, fresh);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
    }

    #[test]
    fn isomorphic_lookup_hits_the_representative() {
        let cache = PredictionCache::new(CacheConfig::default());
        let g = Graph::cycle(7).unwrap();
        cache.insert(&g, 0, &outcome_for(1.5));
        let relabeled = g.relabel(&[3, 5, 0, 6, 1, 4, 2]);
        let hit = cache.lookup(&relabeled, 0).expect("isomorphic hit");
        assert_eq!(hit.params, outcome_for(1.5).params);
    }

    /// Two triangle-free cubic graphs on 12 nodes that are not isomorphic
    /// yet share a canonical hash (the pair `qgraph::canon`'s tests pin).
    fn collision_pair() -> (Graph, Graph) {
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
    fn wl_collision_never_serves_the_colliding_entry() {
        let cache = PredictionCache::new(CacheConfig::default());
        let (a, b) = collision_pair();
        assert_eq!(canon::wl_hash(&a), canon::wl_hash(&b), "collision pair");
        assert!(!canon::are_isomorphic(&a, &b));
        cache.insert(&a, 0, &outcome_for(1.0));
        // The colliding structure must miss, not inherit a's parameters.
        assert_eq!(cache.lookup(&b, 0), None);
        assert_eq!(cache.stats().collisions, 1);
        // Once both are present, each serves its own outcome.
        cache.insert(&b, 0, &outcome_for(2.0));
        assert_eq!(cache.lookup(&a, 0).unwrap().params, outcome_for(1.0).params);
        assert_eq!(cache.lookup(&b, 0).unwrap().params, outcome_for(2.0).params);
    }

    #[test]
    fn two_cycle_shapes_no_longer_collide() {
        // C6 vs 2×C3 is the classic 1-WL collision; triangle counts now
        // put the two graphs in different buckets, so neither lookup has a
        // colliding entry to reject.
        let cache = PredictionCache::new(CacheConfig::default());
        let c6 = Graph::cycle(6).unwrap();
        let tri2 = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        assert_ne!(canon::wl_hash(&c6), canon::wl_hash(&tri2));
        cache.insert(&c6, 0, &outcome_for(1.0));
        assert_eq!(cache.lookup(&tri2, 0), None);
        assert_eq!(cache.stats().collisions, 0);
    }

    #[test]
    fn resident_bytes_count_the_stored_colors() {
        let cache = PredictionCache::new(CacheConfig::default());
        let g = Graph::cycle(15).unwrap();
        let fingerprint = Fingerprint::of(&g);
        let outcome = outcome_for(1.0);
        cache.insert_with(&g, &fingerprint, 0, &outcome);
        assert_eq!(
            cache.resident_bytes(),
            entry_bytes(&g, &fingerprint, &outcome)
        );
        // Each of the 15 stored colors is counted: against a one-color
        // fingerprint the estimate grows by 14 words.
        let one_color = Fingerprint::of(&Graph::empty(1).unwrap());
        assert_eq!(
            entry_bytes(&g, &fingerprint, &outcome) - entry_bytes(&g, &one_color, &outcome),
            14 * std::mem::size_of::<u64>()
        );
    }

    #[test]
    fn precomputed_fingerprint_serves_lookup_and_insert() {
        let cache = PredictionCache::new(CacheConfig::default());
        let g = Graph::cycle(9).unwrap();
        let fingerprint = cache.fingerprint(&g).expect("enabled cache fingerprints");
        assert_eq!(cache.lookup_with(&g, &fingerprint, 0), None);
        cache.insert_with(&g, &fingerprint, 0, &outcome_for(3.0));
        // The plain entry points agree with the precomputed ones.
        let relabeled = g.relabel(&[8, 6, 4, 2, 0, 1, 3, 5, 7]);
        assert_eq!(
            cache.lookup(&relabeled, 0).unwrap().params,
            outcome_for(3.0).params
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert!(PredictionCache::new(CacheConfig::disabled())
            .fingerprint(&g)
            .is_none());
    }

    #[test]
    fn capacity_and_bytes_are_never_exceeded() {
        let config = CacheConfig::default()
            .with_capacity_entries(6)
            .with_max_bytes(1 << 20);
        let cache = PredictionCache::new(config.clone());
        for i in 0..40 {
            cache.insert(&graph(i), 0, &outcome_for(i as f64));
            assert!(cache.len() <= config.capacity_entries);
            assert!(cache.resident_bytes() <= config.max_bytes);
        }
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn byte_bound_evicts_before_count_bound() {
        // The byte budget fits roughly two path-graph entries.
        let probe = entry_bytes(&graph(0), &Fingerprint::of(&graph(0)), &outcome_for(0.0));
        let config = CacheConfig::default()
            .with_capacity_entries(100)
            .with_max_bytes(probe * 5 / 2);
        let cache = PredictionCache::new(config.clone());
        for i in 0..10 {
            cache.insert(&graph(i), 0, &outcome_for(i as f64));
            assert!(cache.resident_bytes() <= config.max_bytes);
        }
        assert!(cache.len() < 10);
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn eviction_order_is_least_recently_used() {
        let config = CacheConfig::default()
            .with_capacity_entries(3)
            .with_max_bytes(1 << 20);
        let cache = PredictionCache::new(config);
        let (a, b, c, d) = (graph(0), graph(1), graph(2), graph(3));
        cache.insert(&a, 0, &outcome_for(0.0));
        cache.insert(&b, 0, &outcome_for(1.0));
        cache.insert(&c, 0, &outcome_for(2.0));
        // Touch `a` so `b` becomes the LRU entry, then overflow.
        assert!(cache.lookup(&a, 0).is_some());
        cache.insert(&d, 0, &outcome_for(3.0));
        assert!(cache.lookup(&b, 0).is_none(), "b was LRU and evicted");
        assert!(cache.lookup(&a, 0).is_some());
        assert!(cache.lookup(&c, 0).is_some());
        assert!(cache.lookup(&d, 0).is_some());
    }

    #[test]
    fn capacity_k_holds_k_graphs_and_evicts_the_global_lru() {
        for k in [8, 10] {
            let cache = PredictionCache::new(CacheConfig::default().with_capacity_entries(k));
            for i in 0..k {
                cache.insert(&graph(i), 0, &outcome_for(i as f64));
            }
            assert_eq!(cache.len(), k, "capacity {k} must hold {k} graphs");
            assert_eq!(cache.stats().evictions, 0);
            // Touch every graph but the first, which becomes the LRU entry.
            for i in 1..k {
                assert!(cache.lookup(&graph(i), 0).is_some(), "graph {i} of {k}");
            }
            cache.insert(&graph(k), 0, &outcome_for(k as f64));
            assert_eq!(cache.stats().evictions, 1);
            assert!(cache.lookup(&graph(0), 0).is_none(), "the LRU graph goes");
            for i in 1..=k {
                assert!(cache.lookup(&graph(i), 0).is_some(), "graph {i} of {k}");
            }
        }
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let config = CacheConfig::default()
            .with_capacity_entries(8)
            .with_max_bytes(8); // smaller than any entry
        let cache = PredictionCache::new(CacheConfig {
            max_bytes: 8,
            ..config
        });
        cache.insert(&graph(0), 0, &outcome_for(0.0));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().inserts, 0);
    }

    #[test]
    fn reinserting_a_structural_duplicate_refreshes_instead_of_duplicating() {
        let cache = PredictionCache::new(CacheConfig::default());
        let g = Graph::cycle(5).unwrap();
        cache.insert(&g, 0, &outcome_for(1.0));
        cache.insert(&g.relabel(&[4, 3, 2, 1, 0]), 0, &outcome_for(9.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().inserts, 1);
        // The original outcome is retained (first write wins).
        assert_eq!(cache.lookup(&g, 0).unwrap().params, outcome_for(1.0).params);
    }

    #[test]
    fn generation_mismatch_is_a_miss_and_purges_lazily() {
        let cache = PredictionCache::new(CacheConfig::default());
        let g = graph(2);
        cache.insert(&g, 1, &outcome_for(1.0));
        assert_eq!(cache.lookup(&g, 2), None, "newer generation never hits");
        assert_eq!(cache.len(), 0, "stale entry purged during lookup");
        assert!(cache.stats().invalidations >= 1);
        // An insert racing a swap leaves only a dead entry.
        cache.insert(&g, 1, &outcome_for(1.0));
        cache.insert(&graph(3), 2, &outcome_for(2.0));
        assert_eq!(cache.lookup(&g, 2), None);
    }

    #[test]
    fn invalidate_all_empties_every_shard() {
        let cache = PredictionCache::new(CacheConfig::default());
        for i in 0..12 {
            cache.insert(&graph(i), 0, &outcome_for(i as f64));
        }
        assert_eq!(cache.len(), 12);
        assert_eq!(cache.invalidate_all(), 12);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(cache.stats().invalidations, 12);
    }

    #[test]
    fn lookup_fault_degrades_to_a_miss() {
        let cache = PredictionCache::new(CacheConfig::default());
        let g = graph(1);
        cache.insert(&g, 0, &outcome_for(1.0));
        {
            let _guard = faults::armed(faults::CACHE_LOOKUP, faults::FaultAction::Panic, 1);
            assert_eq!(cache.lookup(&g, 0), None, "injected panic is a miss");
        }
        {
            let _guard = faults::armed(faults::CACHE_LOOKUP, faults::FaultAction::Error, 1);
            assert_eq!(cache.lookup(&g, 0), None, "injected error is a miss");
        }
        let stats = cache.stats();
        assert_eq!(stats.lookup_faults, 2);
        assert_eq!(stats.misses, 2);
        // The cache stays healthy afterwards.
        assert!(cache.lookup(&g, 0).is_some());
    }

    #[test]
    fn stats_hit_rate() {
        let cache = PredictionCache::new(CacheConfig::default());
        assert_eq!((cache.stats().hits, cache.stats().misses), (0, 0));
        let g = graph(4);
        assert_eq!(cache.lookup(&g, 0), None);
        cache.insert(&g, 0, &outcome_for(1.0));
        for _ in 0..3 {
            assert!(cache.lookup(&g, 0).is_some());
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (3, 1));
    }
}
