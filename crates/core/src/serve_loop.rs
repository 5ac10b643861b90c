//! The throughput layer: a concurrent request loop over [`GuardedPredictor`].
//!
//! [`crate::serve`] makes one request safe; this module makes millions of
//! them concurrent. A [`ServeLoop`] owns a fixed set of worker threads fed
//! from one bounded queue, and layers four mechanisms on top of the
//! degradation ladder:
//!
//! **Admission.** [`ServeLoop::submit`] enqueues a typed [`ServeRequest`]
//! and returns a [`Ticket`] immediately. The queue's depth is its length,
//! read under the queue lock: admission checks capacity, takes the
//! watermark decision and pushes in one critical section. A worker claims
//! the oldest job in the same critical section that gives back its
//! previous slot, then resolves the current artifact generation for that
//! request. Exactly one [`Completed`] reply exists per submitted request
//! — the loop structurally cannot drop work, because every request is
//! answered inside its own panic guard and workers refuse to exit while
//! the queue is non-empty (even during shutdown).
//!
//! **Inline service.** At most [`LoopConfig::workers`] requests are in
//! service at once. One count, kept under the queue lock, covers both the
//! workers holding a job and the callers of [`ServeLoop::handle_wait`]
//! serving their own request. When the queue is empty and a slot is free,
//! `handle_wait` takes the slot and serves the request on the caller's
//! thread: that is exactly the request an idle worker would have claimed
//! with no queue wait, so capacity and watermark behaviour are
//! unchanged, and a queued request is never overtaken. Otherwise it
//! queues like [`ServeLoop::submit`]. A worker claims a job only while
//! a slot is free, and whoever frees a slot while jobs are queued wakes a
//! worker. Both paths run one per-request body (request tag, shed
//! decision, guarded ladder, counters), so no serving logic differs
//! between them. The hand-off it skips — a condvar wake of a parked
//! worker, a channel reply and two context switches — was most of a
//! cache hit's latency.
//!
//! **Artifact hot-swap.** The active model is published as a
//! `(generation, predictor)` pair behind a `Mutex`: one
//! [`GuardedPredictor`] per generation, frozen once when it is published
//! and shared by every worker through an `Arc`. A worker holds that lock
//! once per request, only to clone the pair out (a `u64` and an `Arc`),
//! so serving never happens under it. [`ServeLoop::swap_artifact`] builds
//! the retrained [`RunArtifact`]'s predictor outside the lock (behind the
//! `hot_swap` and `weight_build` failpoints — a rejected or panicking
//! swap leaves the old generation serving untouched), then numbers and
//! installs it in one critical section, so generations publish in the
//! order they are numbered even when swaps race. In-flight requests keep
//! the `Arc` they already cloned; later requests observe the new
//! generation.
//!
//! **Load shedding.** The queue is bounded by [`LoopConfig::queue_capacity`]
//! and never grows past it. Between [`LoopConfig::shed_watermark`] and
//! capacity, newly admitted requests are marked to shed — served from the
//! fixed-angle rung, recorded as [`crate::serve::SkipReason::Shed`]. At
//! capacity, every new request sheds inline on the caller's own thread
//! ([`Ticket::Ready`]), which simultaneously bounds memory and applies
//! backpressure. Shedding is decided in this one place, at admission, by
//! queue depth. Shed answers are still real answers off the ladder —
//! degraded, accounted, never dropped.
//!
//! **Workers.** A loop runs exactly [`LoopConfig::workers`] threads,
//! spawned once in [`ServeLoop::new`] and joined when the loop is
//! dropped. Nothing watches or restarts them, because a worker cannot die
//! between requests: each request runs inside its own `catch_unwind`,
//! every lock a worker takes recovers from poisoning, and Rust aborts on
//! allocation failure rather than unwinding. What is left between two
//! requests is atomics, the queue lock (taken once to give back the
//! service slot and claim the next job), a condvar wait and a channel
//! send, none of which panics.
//!
//! A request that is not shed runs the full ladder on its own, exactly as
//! [`GuardedPredictor::handle`] does outside the loop: a GNN-rung failure
//! (panic, NaN, failed verification) degrades that request to the next
//! rung and nothing else. No loop-wide state remembers it, so a graph the
//! model cannot answer never changes how another graph is served.
//!
//! **Health state machine.** [`ServeLoop::health`] folds the above into
//! one observable state:
//!
//! ```text
//! Starting ──first request served────────► Ready ◄──────────┐
//!                                            │              │ last reason
//!                     any degradation reason │              │ clears
//!                     (queue past watermark, │              │
//!                     model down)            │              ▼
//!                                            └─────────► Degraded
//! ```
//!
//! [`HealthReport::reasons`] lists every active cause, so "Degraded" is
//! always attributable. [`ServeLoop::metrics`] exposes the full counter
//! set (sheds by cause, per-rung counts, cache counters) as a
//! [`LoopMetrics`] snapshot serializable via `core::json`.
//!
//! The whole layer is deterministic under test: the chaos harness
//! (`tests/chaos_soak.rs`, `bench chaos_soak`) drives thousands of
//! requests under a seeded [`crate::faults::FaultSchedule`] and asserts
//! exactly-once replies, a `Ready` end state, and bit-identical outcome
//! sequences across runs of the same seed.
//!
//! ```no_run
//! use qaoa_gnn::serve_loop::{LoopConfig, ServeLoop};
//! use qaoa_gnn::serve::ServeRequest;
//! use qaoa_gnn::store::RunArtifact;
//!
//! let artifact = RunArtifact::load("run.artifact.json")?;
//! let serve = ServeLoop::new(artifact, LoopConfig::default());
//! let ticket = serve.submit(ServeRequest::from_text("n 3\ne 0 1\ne 1 2\ne 0 2\n"));
//! let done = ticket.wait();
//! println!("gen {}: {:?}", done.generation, done.response.result);
//! println!("health: {}", serve.health().state);
//! # Ok::<(), qaoa_gnn::store::ArtifactError>(())
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::cache::{CacheConfig, CacheStats, PredictionCache};
use crate::faults;
use crate::serve::{
    GuardedPredictor, RequestError, Rung, ServeConfig, ServeRequest, ServeResponse,
};
use crate::store::RunArtifact;

/// Sizing and policy for a [`ServeLoop`]: start from [`Default::default`]
/// and refine with the `with_*` builders.
#[derive(Debug, Clone)]
pub struct LoopConfig {
    /// Worker threads draining the queue, and the bound on requests in
    /// service at once (inline [`ServeLoop::handle_wait`] callers
    /// included). `0` resolves to "available parallelism − 1" (leaving the
    /// submitting thread a core), floored at 1. The loop spawns exactly
    /// this many threads, once.
    pub workers: usize,
    /// Hard queue bound: at this depth new requests shed inline on the
    /// caller thread instead of enqueueing. Memory is bounded by
    /// construction.
    pub queue_capacity: usize,
    /// Soft bound: at this depth newly admitted requests are marked to
    /// shed. Clamped to `queue_capacity`.
    pub shed_watermark: usize,
    /// Serving policy (simulator verification) handed to every published
    /// predictor.
    pub serve: ServeConfig,
    /// Canonical-form prediction cache sizing (see [`crate::cache`]).
    /// Defaults to [`CacheConfig::disabled`] — caching is opt-in, so the
    /// request-for-request determinism of existing deployments (and the
    /// chaos replay suite) is unchanged unless a deployment asks for it.
    pub cache: CacheConfig,
}

impl Default for LoopConfig {
    fn default() -> Self {
        LoopConfig {
            workers: 0,
            queue_capacity: 1024,
            shed_watermark: 768,
            serve: ServeConfig::default(),
            cache: CacheConfig::disabled(),
        }
    }
}

impl LoopConfig {
    /// Builder-style: sets the worker-thread count (`0` = auto).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Builder-style: sets the hard queue capacity.
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Builder-style: sets the shed watermark.
    pub fn with_shed_watermark(mut self, shed_watermark: usize) -> Self {
        self.shed_watermark = shed_watermark;
        self
    }

    /// Builder-style: sets the per-request serving policy.
    pub fn with_serve(mut self, serve: ServeConfig) -> Self {
        self.serve = serve;
        self
    }

    /// Builder-style: enables (or resizes) the canonical-form prediction
    /// cache fronting every worker's GNN rung.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|p| p.get().saturating_sub(1))
            .unwrap_or(1)
            .max(1)
    }
}

/// The published artifact generation (`Shared::published`): its number
/// and the predictor every worker serves it through, built once.
#[derive(Clone)]
struct Published {
    generation: u64,
    predictor: Arc<GuardedPredictor>,
}

/// One finished request: the response plus its serving provenance.
#[derive(Debug)]
pub struct Completed {
    /// The typed response (outcome or typed rejection — never absent).
    pub response: ServeResponse,
    /// Time the request spent queued before a worker picked it up (0 when
    /// it never queued: answered at admission, or served inline by
    /// [`ServeLoop::handle_wait`]).
    pub queued_micros: u64,
    /// The artifact generation that answered (0-based; bumped by every
    /// successful [`ServeLoop::swap_artifact`]).
    pub generation: u64,
}

/// The receipt for a submitted request.
#[derive(Debug)]
pub enum Ticket {
    /// Resolved synchronously at admission (inline shed at hard capacity,
    /// or an admission-failpoint refusal).
    Ready(Completed),
    /// In flight; resolve with [`Ticket::wait`].
    Pending(mpsc::Receiver<Completed>),
}

impl Ticket {
    /// Blocks until the reply arrives. Cannot hang on a live loop: each
    /// request is answered inside its own panic guard, and workers drain
    /// every queued job before exiting (even at shutdown) — so every
    /// pending ticket is answered.
    pub fn wait(self) -> Completed {
        match self {
            Ticket::Ready(completed) => completed,
            Ticket::Pending(rx) => rx
                .recv()
                .expect("serving loop dropped a request without replying — this is a bug"),
        }
    }
}

/// Overall loop condition, folded from queue depth and model
/// availability. See the module docs for the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// No request has been served yet.
    Starting,
    /// Fully operational: queue below the watermark, model serving.
    Ready,
    /// Operational but impaired; [`HealthReport::reasons`] says why.
    /// Every ticket is still answered.
    Degraded,
}

impl std::fmt::Display for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Health::Starting => write!(f, "starting"),
            Health::Ready => write!(f, "ready"),
            Health::Degraded => write!(f, "degraded"),
        }
    }
}

impl std::error::Error for Health {}

/// One attributable cause of a [`Health::Degraded`] report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthReason {
    /// Queue depth at or past the shed watermark: newly admitted traffic
    /// is being shed.
    QueueSaturated {
        /// Current queue depth.
        depth: usize,
        /// The configured shed watermark.
        watermark: usize,
    },
    /// The published generation's predictor has no model (its weights
    /// would not freeze when it was published); every request is served
    /// from the model-free rungs until a clean swap.
    ModelUnavailable,
}

impl std::fmt::Display for HealthReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthReason::QueueSaturated { depth, watermark } => {
                write!(f, "queue saturated (depth {depth} ≥ watermark {watermark})")
            }
            HealthReason::ModelUnavailable => write!(f, "model unavailable"),
        }
    }
}

/// Point-in-time health snapshot from [`ServeLoop::health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// The folded state.
    pub state: Health,
    /// Every active degradation cause (empty unless `Degraded`).
    pub reasons: Vec<HealthReason>,
    /// The loop's worker-thread count.
    pub workers_target: usize,
    /// Current queue depth.
    pub queue_depth: usize,
    /// Currently published artifact generation.
    pub generation: u64,
}

/// Full observability snapshot from [`ServeLoop::metrics`]; serializable
/// via `core::json` for bench tables and dashboards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopMetrics {
    /// Requests answered by the full ladder.
    pub served: u64,
    /// Requests answered via the shed path (all causes).
    pub shed: u64,
    /// Requests answered with a typed rejection.
    pub rejected: u64,
    /// Sheds decided at admission by the watermark.
    pub shed_watermark: u64,
    /// Sheds answered inline at hard capacity.
    pub shed_capacity: u64,
    /// Currently published artifact generation (the number of successful
    /// hot-swaps).
    pub generation: u64,
    /// High-water mark of the queue depth.
    pub max_depth: usize,
    /// Current queue depth.
    pub queue_depth: usize,
    /// The loop's worker-thread count.
    pub workers_target: usize,
    /// Outcomes served by the GNN rung.
    pub rung_gnn: u64,
    /// Outcomes served by the fixed-angle rung.
    pub rung_fixed: u64,
    /// Outcomes served by the fallback rung.
    pub rung_fallback: u64,
    /// Prediction-cache hits (0 when the cache is disabled).
    pub cache_hits: u64,
    /// Prediction-cache misses, including contained lookup faults.
    pub cache_misses: u64,
    /// Prediction-cache entries stored.
    pub cache_inserts: u64,
    /// Prediction-cache LRU evictions (count or byte pressure).
    pub cache_evictions: u64,
    /// Prediction-cache entries dropped by generation invalidation
    /// (hot-swap flushes plus lazy stale purges).
    pub cache_invalidations: u64,
    /// WL-hash bucket hits rejected by the exact isomorphism check — the
    /// collision fallback doing its job.
    pub cache_collisions: u64,
    /// Cache lookup/insert faults contained on the serving path.
    pub cache_lookup_faults: u64,
    /// Requests [`ServeLoop::handle_wait`] served on the caller's own
    /// thread instead of through the queue (any outcome; also counted in
    /// `served`, `shed` or `rejected`).
    pub served_inline: u64,
    /// Current folded health state.
    pub health: Health,
}

impl LoopMetrics {
    /// Total requests answered (served + shed + rejected). Equals the
    /// number of submissions once all tickets resolve — nothing is
    /// dropped.
    pub fn total(&self) -> u64 {
        self.served + self.shed + self.rejected
    }
}

/// A queued request: what to run, how (full ladder or shed at a recorded
/// depth), and where the reply goes.
struct Job {
    /// Monotone submission index (ties the chaos schedule's firing
    /// windows to specific requests; see [`crate::faults`]).
    index: u64,
    request: ServeRequest,
    /// `Some(depth)` = shed (decided at admission); the depth feeds
    /// `SkipReason::Shed`.
    shed: Option<usize>,
    enqueued: Instant,
    reply: mpsc::Sender<Completed>,
}

/// The queue and the requests in service, under one lock. Its claim
/// rules are the only places `in_service` grows.
struct Queue {
    /// Queued jobs, oldest first; their count is the queue depth.
    jobs: VecDeque<Job>,
    /// High-water mark of the queue depth.
    max_depth: usize,
    /// Requests being served right now: one per worker holding a job plus
    /// one per inline [`ServeLoop::handle_wait`] caller. Never above
    /// `workers`.
    in_service: usize,
    /// The worker-thread count, and so the bound on `in_service`.
    workers: usize,
}

impl Queue {
    /// The worker's claim: the oldest job and a service slot, only while a
    /// slot is free.
    fn claim_job(&mut self) -> Option<Job> {
        if self.in_service >= self.workers {
            return None;
        }
        let job = self.jobs.pop_front()?;
        self.in_service += 1;
        Some(job)
    }

    /// The inline claim: a service slot only when no job is queued (so
    /// none is overtaken) and a slot is free (so a worker could have
    /// claimed the request at once).
    fn claim_inline(&mut self) -> bool {
        let free = self.jobs.is_empty() && self.in_service < self.workers;
        self.in_service += usize::from(free);
        free
    }
}

struct Shared {
    /// The serving generation; read through [`Shared::published`].
    published: Mutex<Published>,
    /// Per-request serving policy; fixed for the loop's lifetime.
    serve: ServeConfig,
    /// Canonical-form prediction cache attached to every published
    /// predictor (a no-op instance when the config disables caching).
    cache: Arc<PredictionCache>,
    queue: Mutex<Queue>,
    available: Condvar,
    shutdown: AtomicBool,
    served: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    /// Monotone submission counter; assigns `Job::index`.
    submitted: AtomicU64,
    /// Set the first time a request is served; gates `Starting → Ready`.
    ever_ready: AtomicBool,
    served_inline: AtomicU64,
    shed_watermark_n: AtomicU64,
    shed_capacity_n: AtomicU64,
    rung_gnn: AtomicU64,
    rung_fixed: AtomicU64,
    rung_fallback: AtomicU64,
}

impl Shared {
    fn record(&self, response: &ServeResponse) {
        match &response.result {
            Ok(outcome) => {
                match outcome.rung {
                    Rung::Gnn => self.rung_gnn.fetch_add(1, SeqCst),
                    Rung::FixedAngle => self.rung_fixed.fetch_add(1, SeqCst),
                    Rung::Fallback => self.rung_fallback.fetch_add(1, SeqCst),
                };
                if outcome.was_shed() {
                    self.shed.fetch_add(1, SeqCst);
                } else {
                    self.served.fetch_add(1, SeqCst);
                }
            }
            Err(_) => {
                self.rejected.fetch_add(1, SeqCst);
            }
        }
    }

    fn lock_queue(&self) -> std::sync::MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Gives an inline slot back, waking a worker for any job that queued
    /// behind it.
    fn release_inline(&self) {
        let mut queue = self.lock_queue();
        queue.in_service -= 1;
        if !queue.jobs.is_empty() {
            drop(queue);
            self.available.notify_one();
        }
    }

    /// Serves one admitted request on the calling thread against
    /// `published`, the generation read when its slot was claimed: the
    /// worker loop and the inline path of [`ServeLoop::handle_wait`] both
    /// end here. `shed` is the admission decision; the request runs inside
    /// its own panic guard and is counted once.
    fn serve(
        &self,
        published: &Published,
        index: u64,
        request: &ServeRequest,
        shed: Option<usize>,
        queued_micros: u64,
    ) -> Completed {
        faults::set_request_index(index);
        self.ever_ready.store(true, SeqCst);
        let predictor = &published.predictor;
        let response = catch_unwind(AssertUnwindSafe(|| match shed {
            Some(at_depth) => predictor.handle_shed(request, at_depth),
            None => predictor.handle(request),
        }))
        .unwrap_or_else(|payload| ServeResponse {
            result: Err(RequestError::Internal(crate::serve::panic_message(
                &payload,
            ))),
        });
        self.record(&response);
        Completed {
            response,
            queued_micros,
            generation: published.generation,
        }
    }

    /// A clone of the serving generation. The lock is held for the clone
    /// only, never across serving.
    fn published(&self) -> Published {
        self.published
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// The concurrent serving loop. See the module docs for the protocol;
/// see `tests/serve_loop.rs`, `tests/chaos_soak.rs`, and the
/// `serve_load` / `chaos_soak` bench bins for it under fire.
pub struct ServeLoop {
    shared: Arc<Shared>,
    /// The worker threads, spawned once in [`ServeLoop::new`] and joined
    /// on drop.
    workers: Vec<JoinHandle<()>>,
    queue_capacity: usize,
    shed_watermark: usize,
}

/// Why [`ServeLoop::swap_artifact`] refused to publish a new artifact.
/// Either way the previous generation keeps serving, untouched.
#[derive(Debug)]
pub enum SwapError {
    /// The incoming artifact's model would not freeze (including a
    /// `weight_build` fault), or the `hot_swap` failpoint injected an
    /// error.
    Rejected(String),
    /// Validation panicked; the panic was contained at the swap boundary.
    Panicked(String),
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::Rejected(e) => write!(f, "hot-swap rejected: {e}"),
            SwapError::Panicked(e) => write!(f, "hot-swap panicked (contained): {e}"),
        }
    }
}

impl std::error::Error for SwapError {}

impl ServeLoop {
    /// Starts the worker threads serving `artifact` under `config`'s
    /// policy.
    ///
    /// Never refuses: the artifact is published as generation 0 even when
    /// its model fails to build (the `weight_build` failpoint fires here,
    /// on the calling thread). That predictor serves every request one
    /// rung down, and [`Self::health`] reports
    /// [`HealthReason::ModelUnavailable`] until a clean
    /// [`Self::swap_artifact`].
    pub fn new(artifact: RunArtifact, config: LoopConfig) -> ServeLoop {
        let queue_capacity = config.queue_capacity.max(1);
        let shed_watermark = config.shed_watermark.min(queue_capacity);
        let workers = config.resolved_workers();
        let cache = Arc::new(PredictionCache::new(config.cache.clone()));
        let predictor =
            GuardedPredictor::new(artifact, config.serve.clone()).with_cache(Arc::clone(&cache), 0);
        let shared = Arc::new(Shared {
            published: Mutex::new(Published {
                generation: 0,
                predictor: Arc::new(predictor),
            }),
            serve: config.serve.clone(),
            cache,
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                max_depth: 0,
                in_service: 0,
                workers,
            }),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            ever_ready: AtomicBool::new(false),
            served_inline: AtomicU64::new(0),
            shed_watermark_n: AtomicU64::new(0),
            shed_capacity_n: AtomicU64::new(0),
            rung_gnn: AtomicU64::new(0),
            rung_fixed: AtomicU64::new(0),
            rung_fallback: AtomicU64::new(0),
        });
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        ServeLoop {
            shared,
            workers,
            queue_capacity,
            shed_watermark,
        }
    }

    /// Admits one request and returns its receipt immediately. Exactly one
    /// [`Completed`] will exist for it:
    ///
    /// * queue below the watermark — enqueued for the full ladder;
    /// * watermark ≤ depth < capacity — enqueued marked to shed;
    /// * depth at capacity — shed *inline* on the caller thread
    ///   ([`Ticket::Ready`]); the queue never grows past its bound;
    /// * `admission` failpoint armed — refused with
    ///   [`RequestError::Admission`] (a contained panic reports the same
    ///   way). Healthy saturation sheds; it never refuses.
    pub fn submit(&self, request: ServeRequest) -> Ticket {
        match self.admit() {
            Ok(index) => self.enqueue(index, request),
            Err(refusal) => Ticket::Ready(self.refuse(&refusal)),
        }
    }

    /// [`Self::submit`] + [`Ticket::wait`]: the synchronous path.
    ///
    /// When no job is queued and fewer than [`LoopConfig::workers`]
    /// requests are in service, the request is served right here on the
    /// caller's thread, exactly as an idle worker would have served it
    /// with no queue wait: same admission, same watermark decision (at
    /// depth 0), same ladder and panic guard, and it holds one of the
    /// `workers` service slots while it runs. That skips the hand-off to
    /// a worker and the reply channel. Otherwise it queues behind the
    /// waiting jobs like any [`Self::submit`]. Either way exactly one
    /// [`Completed`] comes back; [`LoopMetrics::served_inline`] counts the
    /// inline ones. Guard-armed failpoints ([`crate::faults::armed`]) fire
    /// only on the arming thread, so they do fire for a request that
    /// thread serves inline, and never for one a worker serves.
    pub fn handle_wait(&self, request: ServeRequest) -> Completed {
        let index = match self.admit() {
            Ok(index) => index,
            Err(refusal) => return self.refuse(&refusal),
        };
        if !self.shared.lock_queue().claim_inline() {
            return self.enqueue(index, request).wait();
        }
        let shed = self.watermark_shed(0);
        let published = self.shared.published();
        let completed = self.shared.serve(&published, index, &request, shed, 0);
        self.shared.served_inline.fetch_add(1, SeqCst);
        self.shared.release_inline();
        completed
    }

    /// The admission prologue of every request: draws its index, tags the
    /// calling thread with it, and fires the `admission` failpoint. `Err`
    /// carries the refusal's message for [`Self::refuse`].
    fn admit(&self) -> Result<u64, String> {
        // Tag the submitting thread with this request's index so a chaos
        // schedule can target admission (and anything else the caller does
        // between submissions, e.g. hot-swaps) by request index.
        let index = self.shared.submitted.fetch_add(1, SeqCst);
        faults::set_request_index(index);
        match catch_unwind(AssertUnwindSafe(|| {
            faults::fire_may_panic(faults::ADMISSION)
        })) {
            Ok(None) => Ok(index),
            Ok(Some(_)) => Err("fault injected: admission".to_string()),
            Err(payload) => {
                let msg = crate::serve::panic_message(&payload);
                Err(format!("admission panicked (contained): {msg}"))
            }
        }
    }

    /// The watermark decision for a request admitted at queue `depth`:
    /// past the watermark, it sheds.
    fn watermark_shed(&self, depth: usize) -> Option<usize> {
        let shed = (depth >= self.shed_watermark).then_some(depth);
        if shed.is_some() {
            self.shared.shed_watermark_n.fetch_add(1, SeqCst);
        }
        shed
    }

    /// Queues an admitted request, or sheds it inline at hard capacity.
    fn enqueue(&self, index: u64, request: ServeRequest) -> Ticket {
        let mut queue = self.shared.lock_queue();
        let depth = queue.jobs.len();
        if depth >= self.queue_capacity {
            // Hard-full: answer from the shed ladder right here on the
            // caller thread — bounded memory and backpressure in one move.
            drop(queue);
            let published = self.shared.published();
            let response = published.predictor.handle_shed(&request, depth);
            self.shared.shed_capacity_n.fetch_add(1, SeqCst);
            self.shared.record(&response);
            return Ticket::Ready(Completed {
                response,
                queued_micros: 0,
                generation: published.generation,
            });
        }
        let shed = self.watermark_shed(depth);
        let (tx, rx) = mpsc::channel();
        queue.jobs.push_back(Job {
            index,
            request,
            shed,
            enqueued: Instant::now(),
            reply: tx,
        });
        queue.max_depth = queue.max_depth.max(depth + 1);
        drop(queue);
        self.shared.available.notify_one();
        Ticket::Pending(rx)
    }

    /// Atomically publishes a retrained artifact to all workers,
    /// mid-traffic, and returns the new generation number.
    ///
    /// The artifact's predictor is built *before* publication, outside
    /// the lock (behind the `hot_swap` and `weight_build` failpoints, the
    /// latter under the calling thread's request tag), and is published
    /// only if its model froze. So a broken artifact never reaches a
    /// worker: on any [`SwapError`] the previous generation keeps serving
    /// as if the call never happened. In-flight requests finish on
    /// whichever generation they loaded. The new generation number is
    /// drawn and installed under one lock, so concurrent swaps publish in
    /// numbering order and the last number returned is the one left
    /// serving.
    pub fn swap_artifact(&self, artifact: RunArtifact) -> Result<u64, SwapError> {
        let built = catch_unwind(AssertUnwindSafe(|| {
            if faults::fire_may_panic(faults::HOT_SWAP).is_some() {
                return Err(SwapError::Rejected("fault injected: hot_swap".to_string()));
            }
            let predictor = GuardedPredictor::new(artifact, self.shared.serve.clone());
            match predictor.model_error() {
                Some(e) => Err(SwapError::Rejected(e.to_string())),
                None => Ok(predictor),
            }
        }));
        let predictor = match built {
            Ok(Ok(predictor)) => predictor,
            Ok(Err(e)) => return Err(e),
            Err(payload) => return Err(SwapError::Panicked(crate::serve::panic_message(&payload))),
        };
        let generation = {
            let mut published = self
                .shared
                .published
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let generation = published.generation + 1;
            // The cache binds to the generation being published, so a
            // worker still on an old generation can neither read nor pin
            // the new generation's entries (and vice versa).
            let predictor = predictor.with_cache(Arc::clone(&self.shared.cache), generation);
            *published = Published {
                generation,
                predictor: Arc::new(predictor),
            };
            generation
        };
        // Eager half of the cache invalidation protocol: the retrained
        // artifact must never serve the old generation's angles. (Lookups
        // also purge stale generations lazily, covering any insert that
        // races this flush.)
        self.shared.cache.invalidate_all();
        Ok(generation)
    }

    /// Full observability snapshot (sheds by cause, per-rung counts, cache
    /// counters); serialize with `core::json`'s `ToJson`.
    pub fn metrics(&self) -> LoopMetrics {
        let shared = &self.shared;
        let cache = shared.cache.stats();
        let (queue_depth, max_depth) = {
            let queue = shared.lock_queue();
            (queue.jobs.len(), queue.max_depth)
        };
        LoopMetrics {
            served: shared.served.load(SeqCst),
            shed: shared.shed.load(SeqCst),
            rejected: shared.rejected.load(SeqCst),
            shed_watermark: shared.shed_watermark_n.load(SeqCst),
            shed_capacity: shared.shed_capacity_n.load(SeqCst),
            generation: self.generation(),
            max_depth,
            queue_depth,
            workers_target: self.workers.len(),
            rung_gnn: shared.rung_gnn.load(SeqCst),
            rung_fixed: shared.rung_fixed.load(SeqCst),
            rung_fallback: shared.rung_fallback.load(SeqCst),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_inserts: cache.inserts,
            cache_evictions: cache.evictions,
            cache_invalidations: cache.invalidations,
            cache_collisions: cache.collisions,
            cache_lookup_faults: cache.lookup_faults,
            served_inline: shared.served_inline.load(SeqCst),
            health: self.health().state,
        }
    }

    /// Lifetime counters of the canonical-form prediction cache (all zero
    /// when the cache is disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Folds queue depth and model availability into the `Starting →
    /// Ready ⇄ Degraded` state machine (module docs have the diagram).
    /// Every `Degraded` report carries its reasons.
    pub fn health(&self) -> HealthReport {
        let shared = &self.shared;
        let published = shared.published();
        let generation = published.generation;
        let queue_depth = shared.lock_queue().jobs.len();
        let mut reasons = Vec::new();
        let state = if !shared.ever_ready.load(SeqCst) {
            Health::Starting
        } else {
            if queue_depth >= self.shed_watermark {
                reasons.push(HealthReason::QueueSaturated {
                    depth: queue_depth,
                    watermark: self.shed_watermark,
                });
            }
            if !published.predictor.model_available() {
                reasons.push(HealthReason::ModelUnavailable);
            }
            if reasons.is_empty() {
                Health::Ready
            } else {
                Health::Degraded
            }
        };
        HealthReport {
            state,
            reasons,
            workers_target: self.workers.len(),
            queue_depth,
            generation,
        }
    }

    /// The currently published artifact generation.
    pub fn generation(&self) -> u64 {
        self.shared.published().generation
    }

    fn refuse(&self, message: &str) -> Completed {
        let response = ServeResponse {
            result: Err(RequestError::Admission(message.to_string())),
        };
        self.shared.record(&response);
        Completed {
            response,
            queued_micros: 0,
            generation: self.generation(),
        }
    }
}

impl Drop for ServeLoop {
    /// Graceful shutdown: workers drain every queued job (answering each
    /// ticket) before exiting, so once every worker is joined the queue is
    /// empty. Zero drops, by construction.
    fn drop(&mut self) {
        // Raise the flag under the queue lock: a worker reads it under the
        // same lock before it parks, so this wake-up cannot slip in between
        // that read and the wait.
        {
            let _queue = self.shared.lock_queue();
            self.shared.shutdown.store(true, SeqCst);
        }
        self.shared.available.notify_all();
        // A worker panic would be a bug, already printed by the panic
        // hook; `Drop` must not panic on it.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One worker: claim a job and a service slot under the lock, resolve the
/// published generation, serve the job with no lock held, then give the
/// slot back and claim the next job under one lock. Exits only when shut
/// down *and* the queue is empty. Nothing outside the per-request guard
/// can panic (module docs, "Workers"), so every claimed job is answered.
fn worker_loop(shared: &Shared) {
    let mut queue = shared.lock_queue();
    loop {
        // Inline callers may hold every slot; whoever frees one while jobs
        // wait wakes a worker.
        let Some(job) = queue.claim_job() else {
            if queue.jobs.is_empty() && shared.shutdown.load(SeqCst) {
                return;
            }
            queue = shared
                .available
                .wait(queue)
                .unwrap_or_else(|e| e.into_inner());
            continue;
        };
        drop(queue);

        let published = shared.published();
        let queued_micros = job.enqueued.elapsed().as_micros() as u64;
        let completed = shared.serve(&published, job.index, &job.request, job.shed, queued_micros);
        // A dropped receiver (caller gave up on the ticket) is fine; the
        // request was still served and counted.
        let _ = job.reply.send(completed);

        queue = shared.lock_queue();
        queue.in_service -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bare queue with `queued` jobs (indices `0..queued`) and
    /// `in_service` slots taken: no worker thread, so no timing.
    fn queue(workers: usize, in_service: usize, queued: u64) -> Queue {
        let jobs = (0..queued)
            .map(|index| Job {
                index,
                request: ServeRequest::from_text("n 2\ne 0 1\n"),
                shed: None,
                enqueued: Instant::now(),
                reply: mpsc::channel().0,
            })
            .collect();
        Queue {
            jobs,
            max_depth: 0,
            in_service,
            workers,
        }
    }

    #[test]
    fn inline_claim_never_overtakes_a_queued_job() {
        // A slot is free but a job waits: the inline caller must queue
        // behind it, and the worker takes the job instead.
        let mut q = queue(2, 0, 1);
        assert!(!q.claim_inline());
        assert_eq!(q.in_service, 0);
        assert_eq!(q.claim_job().map(|job| job.index), Some(0));
        // Queue empty with a slot free: inline service, up to the bound.
        assert!(q.claim_inline());
        assert_eq!(q.in_service, 2);
        assert!(!q.claim_inline());
        assert_eq!(q.in_service, 2);
    }

    #[test]
    fn worker_claims_the_oldest_job_only_while_a_slot_is_free() {
        let mut q = queue(1, 1, 2);
        assert!(q.claim_job().is_none(), "every slot is taken");
        assert_eq!((q.in_service, q.jobs.len()), (1, 2));
        q.in_service = 0;
        let job = q.claim_job().expect("a free slot claims");
        assert_eq!((job.index, q.jobs.len(), q.in_service), (0, 1, 1));
        assert!(q.claim_job().is_none(), "one job per slot");
        q.in_service = 0;
        let job = q.claim_job().expect("the next job");
        assert_eq!((job.index, q.jobs.len()), (1, 0));
        assert!(q.claim_job().is_none(), "queue empty");
        assert_eq!(q.in_service, 1);
    }
}
