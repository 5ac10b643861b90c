//! A deterministic circuit breaker for the GNN serving rung.
//!
//! PR 5's degradation ladder makes a *single* broken prediction safe: the
//! request falls to the fixed-angle rung and the failure is recorded. What
//! it cannot do is stop *paying* for a persistently broken model — every
//! request still walks into the GNN rung, panics or produces NaN there,
//! and only then degrades. At ~85k req/s that is ~85k contained panics per
//! second for a model that has not served a good answer in minutes.
//!
//! The [`CircuitBreaker`] sits in front of the GNN rung in
//! [`crate::serve_loop`] and implements the classic three-state protocol,
//! with one twist: **everything is counted in requests, never in wall-clock
//! time**, so the breaker's behaviour is bit-reproducible under the chaos
//! harness (`tests/chaos_soak.rs`) — two runs with the same fault schedule
//! trip, back off, probe, and recover on exactly the same request indices.
//!
//! ```text
//!            failure rate over sliding window ≥ threshold
//!   Closed ───────────────────────────────────────────────► Open
//!     ▲                                                      │
//!     │ `probe_successes` consecutive good probes            │ `cooldown`
//!     │                                                      │ requests
//!     └────────────────────────── HalfOpen ◄─────────────────┘
//!                  │        ▲
//!                  └────────┘ every `probe_interval`-th request probes;
//!                             a failed probe reopens with doubled
//!                             (bounded) cooldown
//! ```
//!
//! * **Closed** — requests use the full ladder. Each GNN *attempt* outcome
//!   (served vs. failed — envelope skips and load sheds count as neither)
//!   lands in a sliding window; once the window holds at least
//!   [`BreakerConfig::min_samples`] attempts and the failure fraction
//!   reaches [`BreakerConfig::failure_threshold`], the breaker trips.
//! * **Open** — the GNN rung is skipped outright
//!   ([`crate::serve::SkipReason::BreakerOpen`]); answers come from the
//!   model-free rungs at fixed cost. After `cooldown × 2^(consecutive
//!   trips − 1)` requests (capped at [`BreakerConfig::max_cooldown`]), the
//!   breaker moves to HalfOpen.
//! * **HalfOpen** — every [`BreakerConfig::probe_interval`]-th request is
//!   allowed through as a probe; the rest stay model-free.
//!   [`BreakerConfig::probe_successes`] consecutive good probes close the
//!   breaker (and reset the backoff); one failed probe reopens it.
//!
//! The breaker is **keyed to the artifact generation**: a hot-swap to a
//! fresh generation resets it to Closed with a clean window and backoff,
//! because the whole point of publishing a retrained artifact is that the
//! old model's failure history no longer applies.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::env;

/// Observable breaker state (see the module docs for the transitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests take the full ladder; failures are being counted.
    Closed,
    /// Tripped: the GNN rung is skipped for every request until the
    /// cooldown (in requests) elapses.
    Open,
    /// Probing: most requests skip the GNN rung, but a deterministic
    /// schedule of probe requests tests whether the model recovered.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

impl std::error::Error for BreakerState {}

/// Sizing and policy for a [`CircuitBreaker`]. All horizons are counted in
/// requests (through the breaker-guarded path), never wall-clock time, so
/// the protocol is deterministic under test.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Sliding window of GNN-attempt outcomes the failure rate is computed
    /// over.
    pub window: usize,
    /// Minimum attempts in the window before the breaker may trip (a cold
    /// window never trips on its first failure).
    pub min_samples: usize,
    /// Trip when `failures / samples ≥ failure_threshold` (with the sample
    /// floor above). In `0.0..=1.0`.
    pub failure_threshold: f64,
    /// Base Open duration, in requests, before the first HalfOpen probe
    /// window. Doubles on every consecutive reopen.
    pub cooldown: u64,
    /// Cap on the backed-off cooldown.
    pub max_cooldown: u64,
    /// In HalfOpen, every `probe_interval`-th request is a probe.
    pub probe_interval: u64,
    /// Consecutive successful probes required to close.
    pub probe_successes: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 32,
            min_samples: 8,
            failure_threshold: 0.5,
            cooldown: 64,
            max_cooldown: 1024,
            probe_interval: 8,
            probe_successes: 3,
        }
    }
}

impl BreakerConfig {
    /// [`Default::default`] with environment overrides:
    /// `QAOA_GNN_BREAKER_WINDOW`, `QAOA_GNN_BREAKER_MIN_SAMPLES`,
    /// `QAOA_GNN_BREAKER_THRESHOLD` (a float in `0..=1`),
    /// `QAOA_GNN_BREAKER_COOLDOWN`, `QAOA_GNN_BREAKER_MAX_COOLDOWN`,
    /// `QAOA_GNN_BREAKER_PROBE_INTERVAL`, `QAOA_GNN_BREAKER_PROBES`.
    pub fn from_env() -> Self {
        let mut config = BreakerConfig::default();
        if let Some(window) = env::num("QAOA_GNN_BREAKER_WINDOW") {
            config.window = window;
        }
        if let Some(min_samples) = env::num("QAOA_GNN_BREAKER_MIN_SAMPLES") {
            config.min_samples = min_samples;
        }
        if let Some(threshold) = env::num::<f64>("QAOA_GNN_BREAKER_THRESHOLD") {
            config.failure_threshold = threshold.clamp(0.0, 1.0);
        }
        if let Some(cooldown) = env::num("QAOA_GNN_BREAKER_COOLDOWN") {
            config.cooldown = cooldown;
        }
        if let Some(max_cooldown) = env::num("QAOA_GNN_BREAKER_MAX_COOLDOWN") {
            config.max_cooldown = max_cooldown;
        }
        if let Some(interval) = env::num("QAOA_GNN_BREAKER_PROBE_INTERVAL") {
            config.probe_interval = interval;
        }
        if let Some(probes) = env::num("QAOA_GNN_BREAKER_PROBES") {
            config.probe_successes = probes;
        }
        config.sanitized()
    }

    /// Builder-style: sets the sliding-window size.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Builder-style: sets the minimum sample count before tripping.
    pub fn with_min_samples(mut self, min_samples: usize) -> Self {
        self.min_samples = min_samples;
        self
    }

    /// Builder-style: sets the trip threshold (clamped to `0..=1`).
    pub fn with_failure_threshold(mut self, failure_threshold: f64) -> Self {
        self.failure_threshold = failure_threshold.clamp(0.0, 1.0);
        self
    }

    /// Builder-style: sets the base Open cooldown, in requests.
    pub fn with_cooldown(mut self, cooldown: u64) -> Self {
        self.cooldown = cooldown;
        self
    }

    /// Builder-style: sets the backoff cap, in requests.
    pub fn with_max_cooldown(mut self, max_cooldown: u64) -> Self {
        self.max_cooldown = max_cooldown;
        self
    }

    /// Builder-style: sets the HalfOpen probe cadence.
    pub fn with_probe_interval(mut self, probe_interval: u64) -> Self {
        self.probe_interval = probe_interval;
        self
    }

    /// Builder-style: sets the consecutive probe successes needed to close.
    pub fn with_probe_successes(mut self, probe_successes: u64) -> Self {
        self.probe_successes = probe_successes;
        self
    }

    /// Degenerate values (zero windows, inverted caps) resolved to the
    /// nearest sane setting, so an operator typo cannot build a breaker
    /// that divides by zero or never probes.
    fn sanitized(mut self) -> Self {
        self.window = self.window.max(1);
        self.min_samples = self.min_samples.clamp(1, self.window);
        self.failure_threshold = self.failure_threshold.clamp(0.0, 1.0);
        self.cooldown = self.cooldown.max(1);
        self.max_cooldown = self.max_cooldown.max(self.cooldown);
        self.probe_interval = self.probe_interval.max(1);
        self.probe_successes = self.probe_successes.max(1);
        self
    }
}

/// What the breaker tells the serving path to do with one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Run the full ladder (Closed state); record the GNN outcome.
    Full,
    /// Run the full ladder as a HalfOpen probe; the recorded outcome
    /// decides between closing and reopening.
    Probe,
    /// Skip the GNN rung entirely and answer model-free
    /// ([`crate::serve::SkipReason::BreakerOpen`]).
    Skip,
}

/// What the ladder observed at the GNN rung for one admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GnnObservation {
    /// The GNN rung served (finite, verified if configured).
    Served,
    /// The GNN rung failed: panic, NaN, failed verification, or a model
    /// that would not rebuild.
    Failed,
    /// The GNN rung was never attempted (out of envelope, shed, or the
    /// request was rejected before the ladder) — counts as neither.
    NotAttempted,
}

/// Point-in-time snapshot of the breaker for health and metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerSnapshot {
    /// Current state.
    pub state: BreakerState,
    /// Artifact generation the window and state apply to.
    pub generation: u64,
    /// Total trips (Closed→Open and HalfOpen→Open) since construction,
    /// across generations.
    pub trips: u64,
    /// GNN attempts currently in the sliding window.
    pub window_samples: usize,
    /// Failures among those attempts.
    pub window_failures: usize,
}

enum Phase {
    Closed,
    Open {
        /// Request-clock reading at which HalfOpen begins.
        until: u64,
    },
    HalfOpen {
        probes_ok: u64,
        /// Request-clock reading of the next probe.
        next_probe: u64,
    },
}

struct Core {
    phase: Phase,
    /// Artifact generation the state applies to; a new generation resets.
    generation: u64,
    /// Sliding window of GNN attempts; `true` = failure.
    window: VecDeque<bool>,
    failures: usize,
    /// Requests admitted through the breaker-guarded path, the protocol's
    /// only clock.
    clock: u64,
    /// Consecutive trips without an intervening close (backoff exponent).
    consecutive_trips: u32,
    trips: u64,
}

/// The breaker itself: interior-mutable, shared by every worker of a
/// [`crate::serve_loop::ServeLoop`]. See the module docs for the protocol.
pub struct CircuitBreaker {
    config: BreakerConfig,
    core: Mutex<Core>,
}

impl CircuitBreaker {
    /// A Closed breaker for generation 0 under `config` (degenerate values
    /// sanitized; see [`BreakerConfig`]).
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config: config.sanitized(),
            core: Mutex::new(Core {
                phase: Phase::Closed,
                generation: 0,
                window: VecDeque::new(),
                failures: 0,
                clock: 0,
                consecutive_trips: 0,
                trips: 0,
            }),
        }
    }

    /// The (sanitized) policy this breaker runs.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    /// Admits one request against artifact `generation`, advancing the
    /// request clock and returning what the serving path should do.
    ///
    /// A generation the breaker has not seen resets it to Closed first —
    /// a freshly hot-swapped artifact starts with a clean record.
    pub fn admit(&self, generation: u64) -> BreakerDecision {
        let mut core = self.lock();
        core.reset_if_new_generation(generation);
        core.clock += 1;
        match core.phase {
            Phase::Closed => BreakerDecision::Full,
            Phase::Open { until } => {
                if core.clock >= until {
                    // Cooldown elapsed: move to HalfOpen and spend this
                    // request as the first probe.
                    core.phase = Phase::HalfOpen {
                        probes_ok: 0,
                        next_probe: core.clock + self.config.probe_interval,
                    };
                    BreakerDecision::Probe
                } else {
                    BreakerDecision::Skip
                }
            }
            Phase::HalfOpen {
                probes_ok,
                next_probe,
            } => {
                if core.clock >= next_probe {
                    core.phase = Phase::HalfOpen {
                        probes_ok,
                        next_probe: core.clock + self.config.probe_interval,
                    };
                    BreakerDecision::Probe
                } else {
                    BreakerDecision::Skip
                }
            }
        }
    }

    /// Records what the ladder observed for a request previously admitted
    /// with `decision`. Stale reports (from a generation the breaker has
    /// already moved past) are ignored.
    pub fn record(&self, generation: u64, decision: BreakerDecision, observed: GnnObservation) {
        let mut core = self.lock();
        if generation != core.generation || observed == GnnObservation::NotAttempted {
            return;
        }
        let failed = observed == GnnObservation::Failed;
        match (&core.phase, decision) {
            (Phase::Closed, BreakerDecision::Full) => {
                core.window.push_back(failed);
                core.failures += failed as usize;
                while core.window.len() > self.config.window {
                    let evicted = core.window.pop_front().expect("non-empty window");
                    core.failures -= evicted as usize;
                }
                let samples = core.window.len();
                if samples >= self.config.min_samples
                    && core.failures as f64 >= self.config.failure_threshold * samples as f64
                {
                    self.trip(&mut core);
                }
            }
            (Phase::HalfOpen { probes_ok, .. }, BreakerDecision::Probe) => {
                if failed {
                    self.trip(&mut core);
                } else {
                    let probes_ok = probes_ok + 1;
                    if probes_ok >= self.config.probe_successes {
                        // Recovered: clean slate, backoff forgiven.
                        core.phase = Phase::Closed;
                        core.window.clear();
                        core.failures = 0;
                        core.consecutive_trips = 0;
                    } else if let Phase::HalfOpen {
                        probes_ok: slot, ..
                    } = &mut core.phase
                    {
                        *slot = probes_ok;
                    }
                }
            }
            // A decision made under a phase the breaker has since left
            // (e.g. a Full outcome arriving after a trip) carries no
            // signal for the new phase.
            _ => {}
        }
    }

    /// Eagerly resets the breaker to Closed for a newly published
    /// `generation`. Admission does this lazily on the next request; the
    /// serving loop calls this at hot-swap time so health and metrics
    /// reflect the clean slate immediately, not one request later.
    pub fn reset_for_generation(&self, generation: u64) {
        self.lock().reset_if_new_generation(generation);
    }

    /// Current state (does not advance the clock).
    pub fn state(&self) -> BreakerState {
        match self.lock().phase {
            Phase::Closed => BreakerState::Closed,
            Phase::Open { .. } => BreakerState::Open,
            Phase::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// Point-in-time snapshot for health and metrics.
    pub fn snapshot(&self) -> BreakerSnapshot {
        let core = self.lock();
        BreakerSnapshot {
            state: match core.phase {
                Phase::Closed => BreakerState::Closed,
                Phase::Open { .. } => BreakerState::Open,
                Phase::HalfOpen { .. } => BreakerState::HalfOpen,
            },
            generation: core.generation,
            trips: core.trips,
            window_samples: core.window.len(),
            window_failures: core.failures,
        }
    }

    /// Total trips since construction (monotone, across generations).
    pub fn trips(&self) -> u64 {
        self.lock().trips
    }

    fn trip(&self, core: &mut Core) {
        let backoff = self
            .config
            .cooldown
            .saturating_shl(core.consecutive_trips.min(32))
            .min(self.config.max_cooldown);
        core.phase = Phase::Open {
            until: core.clock + backoff,
        };
        core.window.clear();
        core.failures = 0;
        core.consecutive_trips += 1;
        core.trips += 1;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Core> {
        // A panic while holding the lock leaves only consistent state
        // behind (every mutation is single-field or completed in place),
        // so poison is tolerated rather than propagated.
        self.core.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl Core {
    fn reset_if_new_generation(&mut self, generation: u64) {
        if generation == self.generation {
            return;
        }
        self.generation = generation;
        self.phase = Phase::Closed;
        self.window.clear();
        self.failures = 0;
        self.consecutive_trips = 0;
        // `clock` and `trips` are monotone across generations on purpose:
        // the clock is a request counter, the trip count a lifetime stat.
    }
}

trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        if shift >= u64::BITS {
            return u64::MAX;
        }
        self.checked_shl(shift).unwrap_or(u64::MAX)
    }
}

impl std::fmt::Debug for CircuitBreaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snapshot = self.snapshot();
        f.debug_struct("CircuitBreaker")
            .field("state", &snapshot.state)
            .field("generation", &snapshot.generation)
            .field("trips", &snapshot.trips)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight() -> BreakerConfig {
        BreakerConfig {
            window: 8,
            min_samples: 4,
            failure_threshold: 0.5,
            cooldown: 10,
            max_cooldown: 40,
            probe_interval: 3,
            probe_successes: 2,
        }
    }

    /// Drives one request through admit+record with the given observation
    /// when the ladder runs.
    fn step(b: &CircuitBreaker, generation: u64, obs: GnnObservation) -> BreakerDecision {
        let decision = b.admit(generation);
        if decision != BreakerDecision::Skip {
            b.record(generation, decision, obs);
        }
        decision
    }

    #[test]
    fn closed_until_failure_rate_crosses_threshold_with_min_samples() {
        let b = CircuitBreaker::new(tight());
        // Three straight failures: below min_samples, still Closed.
        for _ in 0..3 {
            assert_eq!(step(&b, 0, GnnObservation::Failed), BreakerDecision::Full);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        // Fourth failure: 4/4 ≥ 0.5 with min_samples met → Open.
        step(&b, 0, GnnObservation::Failed);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn healthy_traffic_never_trips() {
        let b = CircuitBreaker::new(tight());
        for _ in 0..1000 {
            assert_eq!(step(&b, 0, GnnObservation::Served), BreakerDecision::Full);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn not_attempted_outcomes_carry_no_signal() {
        let b = CircuitBreaker::new(tight());
        for _ in 0..100 {
            step(&b, 0, GnnObservation::NotAttempted);
        }
        let snapshot = b.snapshot();
        assert_eq!(snapshot.window_samples, 0);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn open_skips_until_cooldown_then_probes() {
        let b = CircuitBreaker::new(tight());
        for _ in 0..4 {
            step(&b, 0, GnnObservation::Failed);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Cooldown is 10 requests; until = clock(4) + 10 = 14, so requests
        // with clock 5..=13 skip and clock 14 probes.
        for _ in 5..14 {
            assert_eq!(b.admit(0), BreakerDecision::Skip);
        }
        assert_eq!(b.admit(0), BreakerDecision::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn half_open_probe_schedule_is_deterministic_and_closes_on_successes() {
        let b = CircuitBreaker::new(tight());
        for _ in 0..4 {
            step(&b, 0, GnnObservation::Failed);
        }
        let mut decisions = Vec::new();
        // Walk until closed, recording Served on every probe.
        for _ in 0..40 {
            let d = step(&b, 0, GnnObservation::Served);
            decisions.push(d);
            if b.state() == BreakerState::Closed {
                break;
            }
        }
        assert_eq!(b.state(), BreakerState::Closed, "{decisions:?}");
        let probes = decisions
            .iter()
            .filter(|d| **d == BreakerDecision::Probe)
            .count();
        assert_eq!(probes, 2, "closes after exactly probe_successes probes");
        // Between the two probes: probe_interval − 1 skips.
        let first = decisions.iter().position(|d| *d == BreakerDecision::Probe).unwrap();
        let second = decisions[first + 1..]
            .iter()
            .position(|d| *d == BreakerDecision::Probe)
            .unwrap();
        assert_eq!(second + 1, 3, "probe cadence is probe_interval");
    }

    #[test]
    fn failed_probe_reopens_with_doubled_bounded_backoff() {
        let b = CircuitBreaker::new(tight());
        let mut reopen_gaps = Vec::new();
        // Trip once, then fail every probe; measure each Open span.
        for _ in 0..4 {
            step(&b, 0, GnnObservation::Failed);
        }
        for _trip in 0..4 {
            assert_eq!(b.state(), BreakerState::Open);
            let mut skips = 0u64;
            loop {
                match b.admit(0) {
                    BreakerDecision::Skip => skips += 1,
                    BreakerDecision::Probe => {
                        b.record(0, BreakerDecision::Probe, GnnObservation::Failed);
                        break;
                    }
                    BreakerDecision::Full => panic!("cannot be Closed here"),
                }
            }
            reopen_gaps.push(skips + 1);
        }
        // Backoff 10 → 20 → 40 → 40 (capped at max_cooldown).
        assert_eq!(reopen_gaps, vec![10, 20, 40, 40]);
        assert_eq!(b.trips(), 5);
    }

    #[test]
    fn recovery_resets_the_backoff() {
        let b = CircuitBreaker::new(tight());
        // Trip, fail one probe (backoff doubles), then recover.
        for _ in 0..4 {
            step(&b, 0, GnnObservation::Failed);
        }
        loop {
            if b.admit(0) == BreakerDecision::Probe {
                b.record(0, BreakerDecision::Probe, GnnObservation::Failed);
                break;
            }
        }
        loop {
            if b.admit(0) == BreakerDecision::Probe {
                b.record(0, BreakerDecision::Probe, GnnObservation::Served);
                if b.state() == BreakerState::Closed {
                    break;
                }
            }
        }
        // Trip again: the Open span must be back to the base cooldown.
        for _ in 0..4 {
            step(&b, 0, GnnObservation::Failed);
        }
        let mut skips = 0;
        while b.admit(0) == BreakerDecision::Skip {
            skips += 1;
        }
        assert_eq!(skips + 1, 10, "backoff resets after a clean close");
    }

    #[test]
    fn new_generation_resets_to_closed() {
        let b = CircuitBreaker::new(tight());
        for _ in 0..4 {
            step(&b, 0, GnnObservation::Failed);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // A hot-swap publishes generation 1: clean slate immediately.
        assert_eq!(b.admit(1), BreakerDecision::Full);
        assert_eq!(b.state(), BreakerState::Closed);
        let snapshot = b.snapshot();
        assert_eq!(snapshot.generation, 1);
        assert_eq!(snapshot.window_samples, 0);
        assert_eq!(snapshot.trips, 1, "trip count is a lifetime stat");
    }

    #[test]
    fn stale_generation_reports_are_ignored() {
        let b = CircuitBreaker::new(tight());
        b.admit(1); // moves to generation 1
        for _ in 0..16 {
            b.record(0, BreakerDecision::Full, GnnObservation::Failed);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.snapshot().window_samples, 0);
    }

    #[test]
    fn sliding_window_forgets_old_failures() {
        let b = CircuitBreaker::new(tight());
        // A failure, then a long run of successes: the window (8) evicts
        // the failure and the breaker must not trip at any point (the
        // failure fraction never reaches 0.5 once min_samples is met).
        step(&b, 0, GnnObservation::Failed);
        for _ in 0..20 {
            step(&b, 0, GnnObservation::Served);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        let snapshot = b.snapshot();
        assert_eq!(snapshot.window_failures, 0);
        assert_eq!(snapshot.window_samples, 8);
    }

    #[test]
    fn config_sanitizes_degenerate_values() {
        let config = BreakerConfig {
            window: 0,
            min_samples: 0,
            failure_threshold: 7.0,
            cooldown: 0,
            max_cooldown: 0,
            probe_interval: 0,
            probe_successes: 0,
        };
        let b = CircuitBreaker::new(config);
        let c = b.config();
        assert_eq!(c.window, 1);
        assert_eq!(c.min_samples, 1);
        assert_eq!(c.failure_threshold, 1.0);
        assert!(c.cooldown >= 1 && c.max_cooldown >= c.cooldown);
        assert!(c.probe_interval >= 1 && c.probe_successes >= 1);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(BreakerState::Closed.to_string(), "closed");
        assert_eq!(BreakerState::Open.to_string(), "open");
        assert_eq!(BreakerState::HalfOpen.to_string(), "half-open");
    }
}
