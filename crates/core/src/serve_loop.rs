//! The throughput layer: a concurrent request loop over [`GuardedPredictor`].
//!
//! [`crate::serve`] makes one request safe; this module makes millions of
//! them concurrent — and keeps the loop itself alive when its parts die. A
//! [`ServeLoop`] owns a small pool of worker threads fed from one bounded
//! queue, and layers five mechanisms on top of the degradation ladder:
//!
//! **Batched admission.** [`ServeLoop::submit`] enqueues a typed
//! [`ServeRequest`] and returns a [`Ticket`] immediately; workers drain
//! the queue in batches of [`LoopConfig::batch_size`], taking the queue
//! lock once per batch rather than once per request and resolving the
//! current artifact generation once per batch rather than once per
//! request. Exactly one [`Completed`] reply exists per submitted request
//! — the loop structurally cannot drop work, because workers refuse to
//! exit while the queue is non-empty (even during shutdown) and a worker
//! that dies mid-batch requeues its unanswered claims (below).
//!
//! **Artifact hot-swap.** The active model is published as a
//! `(generation, artifact)` pair behind a `Mutex`. A worker holds that
//! lock once per batch, only to clone the pair out (a `u64` and an
//! `Arc`), so serving never happens under it. [`ServeLoop::swap_artifact`]
//! validates a retrained [`RunArtifact`] outside the lock (behind the
//! `hot_swap` failpoint — a rejected or panicking swap leaves the old
//! generation serving untouched), then numbers and installs it in one
//! critical section, so generations publish in the order they are
//! numbered even when swaps race. In-flight requests keep the `Arc` they
//! already cloned; later batches observe the new generation and rebuild
//! their worker-local predictor from the shared weight image. The
//! predictor serves through a tape-free [`gnn::Frozen`] model and is
//! `Send + Sync`, so one could be shared; each worker still builds its
//! own (a weight copy) only so that the `weight_build` failpoint fires on
//! every worker build, as the chaos schedule expects.
//!
//! **Load shedding.** The queue is bounded by [`LoopConfig::queue_capacity`]
//! and never grows past it. Between [`LoopConfig::shed_watermark`] and
//! capacity, newly admitted [`Priority::Normal`] requests are marked to
//! shed — served from the fixed-angle rung, recorded as
//! [`crate::serve::SkipReason::Shed`] — while [`Priority::High`] requests
//! keep the full ladder. At capacity, *every* new request sheds inline on
//! the caller's own thread ([`Ticket::Ready`]), which simultaneously
//! bounds memory and applies backpressure. A request whose
//! [`ServeRequest::deadline_micros`] expires while queued sheds at
//! execution time rather than being served late at full quality. Shed
//! answers are still real answers off the ladder — degraded, accounted,
//! never dropped.
//!
//! **Worker supervision.** Per-request panics are contained by the ladder
//! and an outer `catch_unwind`, but a panic *between* requests (the
//! `worker` failpoint models this: allocator faults, poisoned locks, bugs
//! in the batching code itself) kills the worker thread. Each worker holds
//! a census guard that decrements a live-worker count on *any* exit and
//! wakes the supervisor thread; a [`BatchGuard`] pushes the worker's
//! claimed-but-unanswered jobs back to the *front* of the queue during
//! unwind, so nothing the dead worker held is lost. The supervisor
//! respawns workers up to the configured target (each respawn gets a
//! fresh generation-tagged thread name and bumps
//! [`LoopMetrics::respawns`]), and its periodic tick also reaps queued
//! jobs whose deadline expired while no worker picked them up — answering
//! them shed instead of letting a stalled pool strand tickets.
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
//! Starting ──first worker picks up work──► Ready ◄──────────┐
//!                                            │              │ last reason
//!                     any degradation reason │              │ clears
//!                     (workers down, queue   │              │
//!                     past watermark, model  │              ▼
//!                     down)                  └─────────► Degraded
//!
//!        any state ──ServeLoop dropped──► Draining (terminal)
//! ```
//!
//! [`HealthReport::reasons`] lists every active cause, so "Degraded" is
//! always attributable. [`ServeLoop::metrics`] exposes the full counter
//! set (sheds by cause, respawns, per-rung counts) as a [`LoopMetrics`]
//! snapshot serializable via `core::json`.
//!
//! The whole layer is deterministic under test: the chaos harness
//! (`tests/chaos_soak.rs`, `bench chaos_soak`) drives thousands of
//! requests under a seeded [`crate::faults::FaultSchedule`] and asserts
//! exactly-once replies, census recovery, a `Ready` end state, and
//! bit-identical outcome sequences across runs of the same seed.
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::env;
use crate::faults;
use crate::cache::{CacheConfig, CacheStats, PredictionCache};
use crate::serve::{
    shed_response, GuardedPredictor, Priority, RequestError, Rung, ServeConfig, ServeRequest,
    ServeResponse,
};
use crate::store::RunArtifact;

/// How often the supervisor wakes on its own (besides being notified by a
/// dying worker) to respawn missing workers and reap expired deadlines.
const SUPERVISOR_TICK: Duration = Duration::from_millis(2);

/// Sizing and policy for a [`ServeLoop`]. Same builder + env-override
/// treatment as [`crate::pipeline::PipelineConfig`].
#[derive(Debug, Clone)]
pub struct LoopConfig {
    /// Worker threads draining the queue. `0` resolves to
    /// "available parallelism − 1" (leaving the submitting thread a core),
    /// floored at 1. The supervisor holds the pool at this census.
    pub workers: usize,
    /// Hard queue bound: at this depth new requests shed inline on the
    /// caller thread instead of enqueueing. Memory is bounded by
    /// construction.
    pub queue_capacity: usize,
    /// Soft bound: at this depth newly admitted [`Priority::Normal`]
    /// requests are marked to shed. Clamped to `queue_capacity`.
    pub shed_watermark: usize,
    /// Jobs a worker claims per queue-lock acquisition (also the grain at
    /// which workers re-resolve the published artifact generation).
    pub batch_size: usize,
    /// Per-request serving policy handed to every worker's predictor.
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
            batch_size: 32,
            serve: ServeConfig::default(),
            cache: CacheConfig::disabled(),
        }
    }
}

impl LoopConfig {
    /// [`Default::default`] with environment overrides:
    /// `QAOA_GNN_SERVE_WORKERS`, `QAOA_GNN_SERVE_QUEUE` (capacity),
    /// `QAOA_GNN_SERVE_SHED` (watermark), `QAOA_GNN_SERVE_BATCH`, plus
    /// everything [`ServeConfig::from_env`] reads. The prediction cache
    /// stays disabled unless any `QAOA_GNN_CACHE_*` variable is present,
    /// in which case [`CacheConfig::from_env`] sizes it.
    pub fn from_env() -> Self {
        let cache_keys = [
            "QAOA_GNN_CACHE_SHARDS",
            "QAOA_GNN_CACHE_ENTRIES",
            "QAOA_GNN_CACHE_BYTES",
        ];
        let cache = if cache_keys.iter().any(|k| std::env::var_os(k).is_some()) {
            CacheConfig::from_env()
        } else {
            CacheConfig::disabled()
        };
        let mut config = LoopConfig {
            serve: ServeConfig::from_env(),
            cache,
            ..LoopConfig::default()
        };
        if let Some(workers) = env::num("QAOA_GNN_SERVE_WORKERS") {
            config.workers = workers;
        }
        if let Some(capacity) = env::num("QAOA_GNN_SERVE_QUEUE") {
            config.queue_capacity = capacity;
        }
        if let Some(watermark) = env::num("QAOA_GNN_SERVE_SHED") {
            config.shed_watermark = watermark;
        }
        if let Some(batch) = env::num("QAOA_GNN_SERVE_BATCH") {
            config.batch_size = batch;
        }
        config
    }

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

    /// Builder-style: sets the per-worker batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
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

/// The published artifact generation (`Shared::published`). Workers
/// compare `generation` against their cached predictor's and rebuild on
/// mismatch; the artifact bytes themselves are shared, never copied.
#[derive(Clone)]
struct Published {
    generation: u64,
    artifact: Arc<RunArtifact>,
}

/// One finished request: the response plus its serving provenance.
#[derive(Debug)]
pub struct Completed {
    /// The typed response (outcome or typed rejection — never absent).
    pub response: ServeResponse,
    /// Time the request spent queued before a worker picked it up
    /// (0 for inline-shed admissions).
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
    /// In flight; resolve with [`Ticket::wait`] or
    /// [`Ticket::wait_timeout`].
    Pending(mpsc::Receiver<Completed>),
}

impl Ticket {
    /// Blocks until the reply arrives. Cannot hang on a live loop: workers
    /// drain every queued job before exiting (even at shutdown), dead
    /// workers' claims are requeued, and the supervisor respawns the pool
    /// — so every pending ticket is answered.
    pub fn wait(self) -> Completed {
        match self {
            Ticket::Ready(completed) => completed,
            Ticket::Pending(rx) => rx
                .recv()
                .expect("serving loop dropped a request without replying — this is a bug"),
        }
    }

    /// [`Self::wait`] with an upper bound: blocks at most `timeout`.
    ///
    /// On timeout the ticket comes back inside the [`WaitTimeout`] error,
    /// still live — the caller can log, adjust, and wait again; the reply
    /// (which the loop still guarantees) is never lost by timing out.
    /// This is the caller-side seatbelt the supervisor cannot provide:
    /// even a supervision bug can only cost a caller `timeout`, never an
    /// unbounded hang.
    ///
    /// # Errors
    ///
    /// [`WaitTimeout`] when no reply arrived within `timeout`.
    // The "large" Err is the point: it carries the live ticket back to
    // the caller so the reply is never lost by timing out.
    #[allow(clippy::result_large_err)]
    pub fn wait_timeout(self, timeout: Duration) -> Result<Completed, WaitTimeout> {
        match self {
            Ticket::Ready(completed) => Ok(completed),
            Ticket::Pending(rx) => match rx.recv_timeout(timeout) {
                Ok(completed) => Ok(completed),
                Err(mpsc::RecvTimeoutError::Timeout) => Err(WaitTimeout {
                    ticket: Ticket::Pending(rx),
                    waited: timeout,
                }),
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    panic!("serving loop dropped a request without replying — this is a bug")
                }
            },
        }
    }
}

/// Typed timeout from [`Ticket::wait_timeout`]: the reply did not arrive
/// in time, but the ticket is returned intact for another wait.
#[derive(Debug)]
pub struct WaitTimeout {
    /// The still-live ticket; the loop's exactly-once reply guarantee is
    /// unaffected by the timeout.
    pub ticket: Ticket,
    /// How long the call waited before giving up.
    pub waited: Duration,
}

impl std::fmt::Display for WaitTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no reply within {:?}; the ticket is still live and can be waited again",
            self.waited
        )
    }
}

impl std::error::Error for WaitTimeout {}

/// Monotonic counters describing a loop's traffic so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopStats {
    /// Requests answered by the full ladder (outcome, not shed).
    pub served: u64,
    /// Requests answered via the shed path (watermark, capacity, or
    /// deadline).
    pub shed: u64,
    /// Requests answered with a typed [`RequestError`].
    pub rejected: u64,
    /// Successful artifact hot-swaps.
    pub swaps: u64,
    /// High-water mark of the queue depth.
    pub max_depth: usize,
    /// Currently published artifact generation.
    pub generation: u64,
}

impl LoopStats {
    /// Total requests answered (served + shed + rejected). Equals the
    /// number of submissions once all tickets resolve — nothing is
    /// dropped.
    pub fn total(&self) -> u64 {
        self.served + self.shed + self.rejected
    }
}

/// Overall loop condition, folded from worker census, queue depth, and
/// model availability. See the module docs for the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Workers are up but none has picked up work yet.
    Starting,
    /// Fully operational: full census, queue below the watermark, model
    /// serving.
    Ready,
    /// Operational but impaired; [`HealthReport::reasons`] says why.
    /// Every ticket is still answered.
    Degraded,
    /// Shutting down: draining the queue, then exiting. Terminal.
    Draining,
}

impl std::fmt::Display for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Health::Starting => write!(f, "starting"),
            Health::Ready => write!(f, "ready"),
            Health::Degraded => write!(f, "degraded"),
            Health::Draining => write!(f, "draining"),
        }
    }
}

impl std::error::Error for Health {}

/// One attributable cause of a [`Health::Degraded`] report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthReason {
    /// Fewer workers alive than the configured target (the supervisor is
    /// respawning).
    WorkersDown {
        /// Workers currently alive.
        alive: usize,
        /// The configured census target.
        target: usize,
    },
    /// Queue depth at or past the shed watermark: normal-priority traffic
    /// is being shed.
    QueueSaturated {
        /// Current queue depth.
        depth: usize,
        /// The configured shed watermark.
        watermark: usize,
    },
    /// The published generation's model would not rebuild; the ladder is
    /// serving from the model-free rungs.
    ModelUnavailable,
}

impl std::fmt::Display for HealthReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthReason::WorkersDown { alive, target } => {
                write!(f, "workers down ({alive}/{target} alive)")
            }
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
    /// Workers currently alive.
    pub workers_alive: usize,
    /// The configured census target.
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
    /// Sheds decided at execution by an expired deadline.
    pub shed_deadline: u64,
    /// Expired-deadline jobs reaped from the queue by the supervisor.
    pub reaped_deadline: u64,
    /// Successful artifact hot-swaps.
    pub swaps: u64,
    /// Currently published artifact generation.
    pub generation: u64,
    /// High-water mark of the queue depth.
    pub max_depth: usize,
    /// Current queue depth.
    pub queue_depth: usize,
    /// Workers respawned by the supervisor (0 in a healthy run).
    pub respawns: u64,
    /// Workers currently alive.
    pub workers_alive: usize,
    /// The configured census target.
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
    /// Current folded health state.
    pub health: Health,
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

struct Shared {
    /// The serving generation; read through [`Shared::published`].
    published: Mutex<Published>,
    /// Per-request serving policy; fixed for the loop's lifetime.
    serve: ServeConfig,
    /// Canonical-form prediction cache shared by every worker's predictor
    /// (a no-op instance when the config disables caching).
    cache: Arc<PredictionCache>,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    depth: AtomicUsize,
    shutdown: AtomicBool,
    served: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    max_depth: AtomicUsize,
    batch_size: usize,
    // --- self-healing state ---
    /// Monotone submission counter; assigns `Job::index`.
    submitted: AtomicU64,
    /// Live workers. Incremented by the *spawner* before the thread
    /// starts (so the supervisor never double-respawns a worker that is
    /// mid-spawn), decremented by the worker's census guard on any exit.
    workers_alive: AtomicUsize,
    workers_target: usize,
    /// Set the first time any worker reaches its serving loop; gates
    /// `Starting → Ready`.
    ever_ready: AtomicBool,
    /// Generation whose model rebuild last failed (`u64::MAX` = none):
    /// feeds [`HealthReason::ModelUnavailable`].
    model_down: AtomicU64,
    respawns: AtomicU64,
    reaped: AtomicU64,
    shed_watermark_n: AtomicU64,
    shed_capacity_n: AtomicU64,
    shed_deadline_n: AtomicU64,
    rung_gnn: AtomicU64,
    rung_fixed: AtomicU64,
    rung_fallback: AtomicU64,
    /// Tag for generation-named worker threads (monotone across spawns).
    next_spawn: AtomicU64,
    /// Join handles for every spawned worker (initial + respawned).
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// The supervisor parks here between ticks; census guards notify it.
    supervisor_mx: Mutex<()>,
    supervisor_cv: Condvar,
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

    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
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
    supervisor: Option<std::thread::JoinHandle<()>>,
    queue_capacity: usize,
    shed_watermark: usize,
}

/// Why [`ServeLoop::swap_artifact`] refused to publish a new artifact.
/// Either way the previous generation keeps serving, untouched.
#[derive(Debug)]
pub enum SwapError {
    /// The incoming artifact failed pre-publication validation (its model
    /// would not rebuild), or the `hot_swap` failpoint injected an error.
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
    /// Starts the worker pool (plus its supervisor) serving `artifact`
    /// under `config`'s policy.
    pub fn new(artifact: RunArtifact, config: LoopConfig) -> ServeLoop {
        let queue_capacity = config.queue_capacity.max(1);
        let shed_watermark = config.shed_watermark.min(queue_capacity);
        let workers_target = config.resolved_workers();
        let shared = Arc::new(Shared {
            published: Mutex::new(Published {
                generation: 0,
                artifact: Arc::new(artifact),
            }),
            serve: config.serve.clone(),
            cache: Arc::new(PredictionCache::new(config.cache.clone())),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            depth: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            max_depth: AtomicUsize::new(0),
            batch_size: config.batch_size.max(1),
            submitted: AtomicU64::new(0),
            workers_alive: AtomicUsize::new(0),
            workers_target,
            ever_ready: AtomicBool::new(false),
            model_down: AtomicU64::new(u64::MAX),
            respawns: AtomicU64::new(0),
            reaped: AtomicU64::new(0),
            shed_watermark_n: AtomicU64::new(0),
            shed_capacity_n: AtomicU64::new(0),
            shed_deadline_n: AtomicU64::new(0),
            rung_gnn: AtomicU64::new(0),
            rung_fixed: AtomicU64::new(0),
            rung_fallback: AtomicU64::new(0),
            next_spawn: AtomicU64::new(0),
            handles: Mutex::new(Vec::new()),
            supervisor_mx: Mutex::new(()),
            supervisor_cv: Condvar::new(),
        });
        for _ in 0..workers_target {
            spawn_worker(&shared);
        }
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-supervisor".to_string())
                .spawn(move || supervisor_loop(&shared))
                .expect("spawn serve supervisor")
        };
        ServeLoop {
            shared,
            supervisor: Some(supervisor),
            queue_capacity,
            shed_watermark,
        }
    }

    /// [`Self::new`] on an artifact loaded (and fully validated) from disk.
    pub fn load<P: AsRef<std::path::Path>>(
        path: P,
        config: LoopConfig,
    ) -> Result<ServeLoop, crate::store::ArtifactError> {
        Ok(ServeLoop::new(RunArtifact::load(path)?, config))
    }

    /// Admits one request and returns its receipt immediately. Exactly one
    /// [`Completed`] will exist for it:
    ///
    /// * queue below the watermark — enqueued for the full ladder;
    /// * watermark ≤ depth < capacity — [`Priority::Normal`] enqueued
    ///   marked to shed, [`Priority::High`] keeps the full ladder;
    /// * depth at capacity — shed *inline* on the caller thread
    ///   ([`Ticket::Ready`]); the queue never grows past its bound;
    /// * `admission` failpoint armed — refused with
    ///   [`RequestError::Admission`] (a contained panic reports the same
    ///   way). Healthy saturation sheds; it never refuses.
    pub fn submit(&self, request: ServeRequest) -> Ticket {
        // Tag the submitting thread with this request's index so a chaos
        // schedule can target admission (and anything else the caller does
        // between submissions, e.g. hot-swaps) by request index.
        let index = self.shared.submitted.fetch_add(1, SeqCst);
        faults::set_request_index(index);
        match catch_unwind(AssertUnwindSafe(|| {
            faults::fire_may_panic(faults::ADMISSION)
        })) {
            Ok(None) => {}
            Ok(Some(_)) => return self.refuse("fault injected: admission"),
            Err(payload) => {
                let msg = crate::serve::panic_message(&payload);
                return self.refuse(&format!("admission panicked (contained): {msg}"));
            }
        }

        // Reserve a slot; if the queue is hard-full, give the slot back and
        // answer from the shed ladder right here on the caller thread —
        // bounded memory and backpressure in one move.
        let depth = self.shared.depth.fetch_add(1, SeqCst);
        if depth >= self.queue_capacity {
            self.shared.depth.fetch_sub(1, SeqCst);
            let published = self.shared.published();
            let response = shed_response(
                &self.shared.serve,
                published.artifact.envelope.as_ref(),
                &request,
                depth,
            );
            self.shared.shed_capacity_n.fetch_add(1, SeqCst);
            self.shared.record(&response);
            return Ticket::Ready(Completed {
                response,
                queued_micros: 0,
                generation: published.generation,
            });
        }
        self.shared.max_depth.fetch_max(depth + 1, SeqCst);
        let shed = (depth >= self.shed_watermark && request.priority == Priority::Normal)
            .then_some(depth);
        if shed.is_some() {
            self.shared.shed_watermark_n.fetch_add(1, SeqCst);
        }
        let (tx, rx) = mpsc::channel();
        let job = Job {
            index,
            request,
            shed,
            enqueued: Instant::now(),
            reply: tx,
        };
        self.shared.lock_queue().push_back(job);
        self.shared.available.notify_one();
        Ticket::Pending(rx)
    }

    /// [`Self::submit`] + [`Ticket::wait`]: the synchronous convenience
    /// path.
    pub fn handle_wait(&self, request: ServeRequest) -> Completed {
        self.submit(request).wait()
    }

    /// Atomically publishes a retrained artifact to all workers,
    /// mid-traffic, and returns the new generation number.
    ///
    /// The artifact is validated *before* publication (its model must
    /// rebuild — behind the `hot_swap` failpoint), so a broken artifact
    /// never reaches a worker: on any [`SwapError`] the previous
    /// generation keeps serving as if the call never happened. In-flight
    /// requests finish on whichever generation they loaded. The new
    /// generation number is drawn and installed under one lock, so
    /// concurrent swaps publish in numbering order and the last number
    /// returned is the one left serving.
    pub fn swap_artifact(&self, artifact: RunArtifact) -> Result<u64, SwapError> {
        let validated = catch_unwind(AssertUnwindSafe(|| {
            if faults::fire_may_panic(faults::HOT_SWAP).is_some() {
                return Err(SwapError::Rejected("fault injected: hot_swap".to_string()));
            }
            gnn::Frozen::new(&artifact.weights)
                .map_err(|e| SwapError::Rejected(e.to_string()))?;
            Ok(artifact)
        }));
        let artifact = match validated {
            Ok(Ok(artifact)) => artifact,
            Ok(Err(e)) => return Err(e),
            Err(payload) => {
                return Err(SwapError::Panicked(crate::serve::panic_message(&payload)))
            }
        };
        let artifact = Arc::new(artifact);
        let generation = {
            let mut published = self
                .shared
                .published
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let generation = published.generation + 1;
            *published = Published {
                generation,
                artifact,
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

    /// Current traffic counters.
    pub fn stats(&self) -> LoopStats {
        // Every successful swap bumps the generation by one, so the two
        // are the same count.
        let generation = self.generation();
        LoopStats {
            served: self.shared.served.load(SeqCst),
            shed: self.shared.shed.load(SeqCst),
            rejected: self.shared.rejected.load(SeqCst),
            swaps: generation,
            max_depth: self.shared.max_depth.load(SeqCst),
            generation,
        }
    }

    /// Full observability snapshot (sheds by cause, census, per-rung
    /// counts); serialize with `core::json`'s `ToJson`.
    pub fn metrics(&self) -> LoopMetrics {
        let shared = &self.shared;
        let generation = self.generation();
        let cache = shared.cache.stats();
        LoopMetrics {
            served: shared.served.load(SeqCst),
            shed: shared.shed.load(SeqCst),
            rejected: shared.rejected.load(SeqCst),
            shed_watermark: shared.shed_watermark_n.load(SeqCst),
            shed_capacity: shared.shed_capacity_n.load(SeqCst),
            shed_deadline: shared.shed_deadline_n.load(SeqCst),
            reaped_deadline: shared.reaped.load(SeqCst),
            swaps: generation,
            generation,
            max_depth: shared.max_depth.load(SeqCst),
            queue_depth: shared.depth.load(SeqCst),
            respawns: shared.respawns.load(SeqCst),
            workers_alive: shared.workers_alive.load(SeqCst),
            workers_target: shared.workers_target,
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
            health: self.health().state,
        }
    }

    /// Lifetime counters of the canonical-form prediction cache (all zero
    /// when the cache is disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Folds census, queue, and model availability into the `Starting →
    /// Ready ⇄ Degraded → Draining` state machine (module docs have the
    /// diagram). Every `Degraded` report carries its
    /// reasons.
    pub fn health(&self) -> HealthReport {
        let shared = &self.shared;
        let generation = self.generation();
        let queue_depth = shared.depth.load(SeqCst);
        let workers_alive = shared.workers_alive.load(SeqCst);
        let workers_target = shared.workers_target;
        let mut reasons = Vec::new();
        let state = if shared.shutdown.load(SeqCst) {
            Health::Draining
        } else if !shared.ever_ready.load(SeqCst) {
            Health::Starting
        } else {
            if workers_alive < workers_target {
                reasons.push(HealthReason::WorkersDown {
                    alive: workers_alive,
                    target: workers_target,
                });
            }
            if queue_depth >= self.shed_watermark {
                reasons.push(HealthReason::QueueSaturated {
                    depth: queue_depth,
                    watermark: self.shed_watermark,
                });
            }
            if shared.model_down.load(SeqCst) == generation {
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
            workers_alive,
            workers_target,
            queue_depth,
            generation,
        }
    }

    /// Reaps queued jobs whose deadline already expired, answering each
    /// shed. The supervisor calls this on every tick; it is public so
    /// tests (and embedders driving their own supervision) can force a
    /// reap deterministically. Returns how many jobs were reaped.
    pub fn reap_expired(&self) -> usize {
        reap_expired(&self.shared)
    }

    /// Current queue depth (queued, not yet claimed by a worker).
    pub fn depth(&self) -> usize {
        self.shared.depth.load(SeqCst)
    }

    /// The currently published artifact generation.
    pub fn generation(&self) -> u64 {
        self.shared.published().generation
    }

    fn refuse(&self, message: &str) -> Ticket {
        let response = ServeResponse {
            result: Err(RequestError::Admission(message.to_string())),
        };
        self.shared.record(&response);
        Ticket::Ready(Completed {
            response,
            queued_micros: 0,
            generation: self.generation(),
        })
    }
}

impl Drop for ServeLoop {
    /// Graceful shutdown: workers drain every queued job (answering each
    /// ticket) before exiting; if every worker died right before shutdown,
    /// the caller thread drains the remainder inline. Zero drops, by
    /// construction.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, SeqCst);
        self.shared.available.notify_all();
        self.shared.supervisor_cv.notify_all();
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        loop {
            let handles = std::mem::take(
                &mut *self
                    .shared
                    .handles
                    .lock()
                    .unwrap_or_else(|e| e.into_inner()),
            );
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                let _ = handle.join();
            }
        }
        // All workers have exited (normally, or by a late kill whose
        // claimed jobs were requeued by the batch guard). Anything still
        // queued is answered here, inline; `worker` faults can still fire
        // but their budgets are finite, so the retry loop terminates. The
        // census pre-increment balances the inline census guard.
        while !self.shared.lock_queue().is_empty() {
            self.shared.workers_alive.fetch_add(1, SeqCst);
            let _ = catch_unwind(AssertUnwindSafe(|| worker_loop(&self.shared)));
        }
    }
}

/// Spawns one worker thread, pre-counting it in the census (so the
/// supervisor never double-spawns while a thread is mid-start). The
/// thread name carries a monotone spawn tag: a respawned worker is
/// distinguishable from the one it replaced.
fn spawn_worker(shared: &Arc<Shared>) {
    shared.workers_alive.fetch_add(1, SeqCst);
    let tag = shared.next_spawn.fetch_add(1, SeqCst);
    let cloned = Arc::clone(shared);
    match std::thread::Builder::new()
        .name(format!("serve-worker-g{tag}"))
        .spawn(move || worker_loop(&cloned))
    {
        Ok(handle) => shared
            .handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(handle),
        Err(_) => {
            // Spawn failure (resource exhaustion): uncount; the next
            // supervisor tick retries.
            shared.workers_alive.fetch_sub(1, SeqCst);
        }
    }
}

/// The supervisor: respawns dead workers up to the census target and
/// reaps expired-deadline jobs no worker has claimed. Runs until
/// shutdown; woken early by any dying worker's census guard.
fn supervisor_loop(shared: &Arc<Shared>) {
    let mut parked = shared
        .supervisor_mx
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    while !shared.shutdown.load(SeqCst) {
        let alive = shared.workers_alive.load(SeqCst);
        if alive < shared.workers_target {
            for _ in alive..shared.workers_target {
                shared.respawns.fetch_add(1, SeqCst);
                spawn_worker(shared);
            }
            // New workers check the queue before parking, but wake any
            // veteran that parked while the pool was short-handed.
            shared.available.notify_all();
        }
        reap_expired(shared);
        let (guard, _timeout) = shared
            .supervisor_cv
            .wait_timeout(parked, SUPERVISOR_TICK)
            .unwrap_or_else(|e| e.into_inner());
        parked = guard;
    }
}

/// Removes queued jobs whose deadline expired and answers each shed —
/// the supervisor's guarantee that a stalled pool cannot strand a
/// deadline-bearing ticket past its deadline for long.
fn reap_expired(shared: &Shared) -> usize {
    let mut expired = Vec::new();
    {
        let mut queue = shared.lock_queue();
        let mut i = 0;
        while i < queue.len() {
            let overdue = {
                let job = &queue[i];
                job.request
                    .deadline_micros
                    .is_some_and(|d| job.enqueued.elapsed().as_micros() as u64 > d)
            };
            if overdue {
                expired.push(queue.remove(i).expect("index checked"));
            } else {
                i += 1;
            }
        }
    }
    if expired.is_empty() {
        return 0;
    }
    let published = shared.published();
    let count = expired.len();
    for job in expired {
        shared.depth.fetch_sub(1, SeqCst);
        let queued_micros = job.enqueued.elapsed().as_micros() as u64;
        let response = shed_response(
            &shared.serve,
            published.artifact.envelope.as_ref(),
            &job.request,
            shared.depth.load(SeqCst),
        );
        shared.reaped.fetch_add(1, SeqCst);
        shared.record(&response);
        let _ = job.reply.send(Completed {
            response,
            queued_micros,
            generation: published.generation,
        });
    }
    count
}

/// Census bookkeeping for one worker thread: decrements the live count on
/// *any* exit — normal shutdown or a panic unwinding the worker — and
/// wakes the supervisor so a death is noticed immediately, not at the
/// next tick.
struct CensusGuard<'a> {
    shared: &'a Shared,
}

impl Drop for CensusGuard<'_> {
    fn drop(&mut self) {
        self.shared.workers_alive.fetch_sub(1, SeqCst);
        self.shared.supervisor_cv.notify_all();
    }
}

/// Holds a worker's claimed batch. If the worker dies mid-batch (a panic
/// outside the per-request guard — the `worker` failpoint models this),
/// the unanswered jobs go back to the *front* of the queue in their
/// original order, depth reservations intact, for the next worker to
/// claim. This is what makes worker death lossless.
struct BatchGuard<'a> {
    shared: &'a Shared,
    jobs: VecDeque<Job>,
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        if self.jobs.is_empty() {
            return;
        }
        let mut queue = self.shared.lock_queue();
        while let Some(job) = self.jobs.pop_back() {
            queue.push_front(job);
        }
        drop(queue);
        self.shared.available.notify_all();
    }
}

/// One worker: claim a batch under the lock, resolve the published
/// generation once, serve the batch with no lock held, repeat. Exits only
/// when shut down *and* the queue is empty; a mid-batch death requeues
/// its claims (see [`BatchGuard`]).
fn worker_loop(shared: &Shared) {
    let _census = CensusGuard { shared };
    let mut cached: Option<(u64, GuardedPredictor)> = None;
    loop {
        let mut guard = BatchGuard {
            shared,
            jobs: VecDeque::new(),
        };
        {
            let mut queue = shared.lock_queue();
            loop {
                if !queue.is_empty() {
                    break;
                }
                if shared.shutdown.load(SeqCst) {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
            while guard.jobs.len() < shared.batch_size {
                match queue.pop_front() {
                    Some(job) => guard.jobs.push_back(job),
                    None => break,
                }
            }
        }
        shared.ever_ready.store(true, SeqCst);

        let published = shared.published();
        let stale = match &cached {
            Some((generation, _)) => *generation != published.generation,
            None => true,
        };
        // Rebuild this worker's predictor: a frozen copy of the shared
        // weight image. GuardedPredictor::shared never panics (construction is
        // itself guarded), and a failed rebuild still serves — one rung
        // down, accounted per request. A *broken* rebuild is deliberately
        // not cached: the next batch retries it, so a transient build
        // fault (chaos, OOM) heals instead of pinning the worker
        // model-free until the next swap. Outcomes then depend only on
        // the request index and fault budgets — not on which worker
        // happened to serve — which the chaos determinism test relies on.
        let mut scratch: Option<GuardedPredictor> = None;
        if stale {
            // The shared cache binds to the generation being served, so a
            // worker still on an old generation can neither read nor pin
            // the new generation's entries (and vice versa).
            let predictor =
                GuardedPredictor::shared(Arc::clone(&published.artifact), shared.serve.clone())
                    .with_cache(Arc::clone(&shared.cache), published.generation);
            if predictor.model_available() {
                let _ = shared.model_down.compare_exchange(
                    published.generation,
                    u64::MAX,
                    SeqCst,
                    SeqCst,
                );
                cached = Some((published.generation, predictor));
            } else {
                shared.model_down.store(published.generation, SeqCst);
                cached = None;
                scratch = Some(predictor);
            }
        }
        let generation = published.generation;
        let predictor = scratch
            .as_ref()
            .or_else(|| cached.as_ref().map(|(_, p)| p))
            .expect("predictor resolved above");

        while let Some(index) = guard.jobs.front().map(|job| job.index) {
            // Tag the thread, then give the `worker` failpoint its shot
            // *before* popping: if it kills this thread, the job is still
            // in the batch guard and gets requeued, unanswered — the
            // exactly-once guarantee survives worker death.
            faults::set_request_index(index);
            faults::fire_may_panic(faults::WORKER);
            let job = guard.jobs.pop_front().expect("front checked above");
            shared.depth.fetch_sub(1, SeqCst);
            let queued_micros = job.enqueued.elapsed().as_micros() as u64;
            // A deadline that expired while queued sheds now: a fast
            // degraded answer beats a late full-quality one.
            let deadline_expired = job.shed.is_none()
                && job
                    .request
                    .deadline_micros
                    .is_some_and(|d| queued_micros > d);
            if deadline_expired {
                shared.shed_deadline_n.fetch_add(1, SeqCst);
            }
            let shed = job
                .shed
                .or_else(|| deadline_expired.then(|| shared.depth.load(SeqCst)));
            let response = catch_unwind(AssertUnwindSafe(|| match shed {
                Some(at_depth) => predictor.handle_shed(&job.request, at_depth),
                None => predictor.handle(&job.request),
            }))
            .unwrap_or_else(|payload| ServeResponse {
                result: Err(RequestError::Internal(crate::serve::panic_message(
                    &payload,
                ))),
            });
            shared.record(&response);
            // A dropped receiver (caller gave up on the ticket) is fine;
            // the request was still served and counted.
            let _ = job.reply.send(Completed {
                response,
                queued_micros,
                generation,
            });
        }
    }
}
