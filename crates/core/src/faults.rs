//! Deterministic fault injection.
//!
//! Robustness claims are only as good as the failures they were tested
//! against. This module provides **named failpoints** — fixed places in
//! the serving and persistence paths where a test (or an operator, via the
//! `QAOA_GNN_FAULTS` environment variable) can deterministically inject a
//! panic, a NaN, or a typed error. Every rung of the serving degradation
//! ladder and every typed error path is exercised by arming a failpoint
//! and asserting the observable outcome, instead of trusting that the
//! handler would work if the failure ever happened.
//!
//! # Failpoints
//!
//! | name | hooked in | effect when armed |
//! |------|-----------|-------------------|
//! | [`ARTIFACT_LOAD`] | [`crate::store::RunArtifact::load`] | load fails (`Error`) or panics (`Panic`) |
//! | [`WEIGHT_BUILD`] | [`crate::serve::GuardedPredictor::new`]; the loop builds once per published generation, in [`crate::serve_loop::ServeLoop::new`] and [`crate::serve_loop::ServeLoop::swap_artifact`], under the calling thread's request tag | build fails or panics; the predictor serves one rung down, and a swap is refused |
//! | [`FORWARD`] | the guarded GNN forward pass | prediction panics (`Panic`) or returns NaN (`Nan`) |
//! | [`SIM_EVAL`] | the guarded simulator verification | score becomes NaN (`Nan`) or evaluation panics |
//! | [`JOURNAL_IO`] | [`crate::store::LabelJournal::append`] | append fails or panics |
//! | [`HOT_SWAP`] | [`crate::serve_loop::ServeLoop::swap_artifact`] | swap rejected (`Error`) or panics; the old artifact keeps serving |
//! | [`ADMISSION`] | [`crate::serve_loop::ServeLoop::submit`] and [`crate::serve_loop::ServeLoop::handle_wait`] | request refused (`Error`) or panics at admission |
//! | [`CACHE_LOOKUP`] | [`crate::cache::PredictionCache::lookup`] | the canonical-hash/lookup path panics (`Panic`) or aborts (`Error`/`Nan`); the request degrades to a normal GNN-rung miss |
//! | [`CHECKPOINT_WRITE`] | the atomic training-checkpoint write, between tmp-file flush and rename | write fails (`Error`), panics (`Panic`), or pauses (`Stall`) with the tmp file visible — a kill window for crash harnesses |
//! | [`ARTIFACT_SAVE`] | [`crate::store::RunArtifact::save`], between tmp-file flush and rename | save fails (`Error`), panics (`Panic`), or pauses (`Stall`); the previous artifact stays intact either way |
//!
//! # Arming
//!
//! Programmatic (tests): [`armed`] returns an RAII guard that also holds a
//! global lock, so concurrently running `#[test]`s that inject faults are
//! serialized. Guard-armed failpoints additionally fire only on the arming
//! thread, so tests that *don't* inject faults can run concurrently with
//! ones that do and never observe their injections:
//!
//! ```
//! use qaoa_gnn::faults::{self, FaultAction};
//! let _guard = faults::armed(faults::FORWARD, FaultAction::Nan, 1);
//! assert_eq!(faults::fire(faults::FORWARD), Some(FaultAction::Nan));
//! assert_eq!(faults::fire(faults::FORWARD), None); // budget of 1 spent
//! ```
//!
//! Environment (smoke tests, operations):
//! `QAOA_GNN_FAULTS="forward=nan,artifact_load=err:2"` arms `forward` with
//! one NaN injection and `artifact_load` with two error injections; the
//! armed process behaves identically on every run — injection is counted,
//! never random. Env-armed failpoints fire on any thread.
//!
//! # Chaos schedules
//!
//! A [`FaultSchedule`] scripts *many* failures over a whole request
//! stream: each [`ScheduledFault`] is a failpoint × action × firing window
//! over a request-index range, with a bounded budget. The serving path
//! tags the current request index on its thread
//! ([`set_request_index`], set on whichever thread serves the job), and a
//! schedule installed with [`arm_schedule`] fires whenever a tagged
//! request walks through a failpoint inside one of its windows. Because
//! the windows are request-indexed (never time-based) and
//! [`FaultSchedule::from_seed`] is a pure function of its seed, two runs
//! of the same request stream under the same seed inject byte-identical
//! failure sequences — the foundation of the chaos-soak determinism
//! invariant in `tests/chaos_soak.rs`.

use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread::ThreadId;

/// Failpoint inside [`crate::store::RunArtifact::load`].
pub const ARTIFACT_LOAD: &str = "artifact_load";
/// Failpoint around freezing an artifact's weights into a model, in
/// [`crate::serve::GuardedPredictor::new`]. A firing leaves that predictor
/// without a GNN rung. The serving loop hooks it once per published
/// generation, in [`crate::serve_loop::ServeLoop::new`] (the loop starts
/// serving one rung down) and [`crate::serve_loop::ServeLoop::swap_artifact`]
/// (the swap is refused), under the calling thread's request tag — never
/// on a worker.
pub const WEIGHT_BUILD: &str = "weight_build";
/// Failpoint around the GNN forward pass on the serving path.
pub const FORWARD: &str = "forward";
/// Failpoint around the simulator verification of a served prediction.
pub const SIM_EVAL: &str = "sim_eval";
/// Failpoint inside [`crate::store::LabelJournal::append`].
pub const JOURNAL_IO: &str = "journal_io";
/// Failpoint inside [`crate::serve_loop::ServeLoop::swap_artifact`]: the
/// incoming artifact's model rebuild fails (`Error`) or panics (`Panic`),
/// and the loop must keep serving the old generation.
pub const HOT_SWAP: &str = "hot_swap";
/// Failpoint at admission in [`crate::serve_loop::ServeLoop::submit`] and
/// [`crate::serve_loop::ServeLoop::handle_wait`]: admission refuses
/// (`Error`) or panics (`Panic`) instead of serving.
pub const ADMISSION: &str = "admission";
/// Failpoint inside [`crate::cache::PredictionCache::lookup`], *before* the
/// canonical hash is computed: a `Panic` unwinds out of the hash/lookup
/// path (contained by the cache itself), any other action aborts the
/// lookup. Either way the request must degrade to a normal GNN-rung miss —
/// a broken cache may cost latency, never correctness.
pub const CACHE_LOOKUP: &str = "cache_lookup";
/// Failpoint inside the atomic training-checkpoint write
/// ([`crate::store::TrainCheckpoint::save`]), **after** the tmp file is
/// written and fsynced but **before** it is renamed over the live
/// checkpoint. `Error` aborts the save (training stops, the previous
/// checkpoint survives); `Stall` pauses the protocol with the tmp file
/// visible on disk — the kill window the crash-resume harness aims SIGKILL
/// at.
pub const CHECKPOINT_WRITE: &str = "checkpoint_write";
/// Failpoint inside [`crate::store::RunArtifact::save`], between tmp-file
/// flush and rename. Whatever fires — `Error`, `Panic`, or a `Stall`
/// interrupted by SIGKILL — the previously published artifact must remain
/// loadable: the rename is the commit point.
pub const ARTIFACT_SAVE: &str = "artifact_save";

/// Every failpoint name, for enumeration in tests and docs.
pub const ALL: [&str; 10] = [
    ARTIFACT_LOAD,
    WEIGHT_BUILD,
    FORWARD,
    SIM_EVAL,
    JOURNAL_IO,
    HOT_SWAP,
    ADMISSION,
    CACHE_LOOKUP,
    CHECKPOINT_WRITE,
    ARTIFACT_SAVE,
];

/// What an armed failpoint injects when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a recognizable message (tests unwind isolation).
    Panic,
    /// Poison a numeric result with NaN (tests non-finite guardrails).
    Nan,
    /// Return a typed error (tests error propagation).
    Error,
    /// Pause at the failpoint — sleep in short slices for up to
    /// [`stall_budget_ms`] milliseconds, then continue as if nothing fired.
    /// A stall converts an instantaneous protocol step into a wide,
    /// deterministic window that an external harness can SIGKILL into
    /// (e.g. "killed between checkpoint tmp-write and rename"). Only
    /// [`fire_may_panic`] hook sites honor it; `fire` returns it raw.
    Stall,
}

impl FaultAction {
    fn parse(s: &str) -> Option<FaultAction> {
        match s {
            "panic" => Some(FaultAction::Panic),
            "nan" => Some(FaultAction::Nan),
            "err" | "error" => Some(FaultAction::Error),
            "stall" => Some(FaultAction::Stall),
            _ => None,
        }
    }
}

impl std::fmt::Display for FaultAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultAction::Panic => write!(f, "panic"),
            FaultAction::Nan => write!(f, "nan"),
            FaultAction::Error => write!(f, "err"),
            FaultAction::Stall => write!(f, "stall"),
        }
    }
}

/// How long a [`FaultAction::Stall`] pauses, in milliseconds: the value of
/// `QAOA_GNN_STALL_MS` (read once), defaulting to 30 000. Harnesses that
/// SIGKILL into the window never see the budget expire; unattended runs
/// resume after it.
pub fn stall_budget_ms() -> u64 {
    static BUDGET: OnceLock<u64> = OnceLock::new();
    *BUDGET.get_or_init(|| crate::env::num("QAOA_GNN_STALL_MS").unwrap_or(30_000))
}

/// Sleeps in 10 ms slices until the stall budget is spent. Kept slice-wise
/// so a budget typo cannot wedge a process in one monolithic sleep.
fn stall() {
    let budget = std::time::Duration::from_millis(stall_budget_ms());
    let start = std::time::Instant::now();
    while start.elapsed() < budget {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// One armed failpoint: what to inject and how many firings remain.
///
/// Guard-armed failpoints record the arming thread and fire only on it, so
/// a `#[test]` injecting faults cannot contaminate unrelated tests running
/// concurrently in the same binary. Env-armed failpoints carry no thread
/// and fire process-wide.
#[derive(Debug, Clone)]
struct Armed {
    name: String,
    action: FaultAction,
    remaining: u64,
    thread: Option<ThreadId>,
}

struct Registry {
    /// Armed failpoints; empty in production (the common case is one
    /// `is_empty` check under an uncontended lock).
    armed: Vec<Armed>,
    /// Installed chaos schedule, if any (see [`arm_schedule`]).
    schedule: Vec<ScheduledFault>,
    /// Scheduled firings so far, for harness assertions.
    schedule_fired: u64,
    env_loaded: bool,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            armed: Vec::new(),
            schedule: Vec::new(),
            schedule_fired: 0,
            env_loaded: false,
        })
    })
}

thread_local! {
    /// Request index of the job currently being processed on this thread;
    /// `u64::MAX` means "not on a request path", under which scheduled
    /// faults never fire (so labeling, training, and unrelated tests are
    /// invisible to an installed schedule).
    static REQUEST_INDEX: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// Tags this thread as processing the request with the given index;
/// scheduled faults whose window contains it may now fire here. The
/// serve loop calls this per job on the thread serving it (a worker, or
/// the caller of an inline `handle_wait`); the admission path calls it
/// for the index being admitted.
pub fn set_request_index(index: u64) {
    REQUEST_INDEX.with(|cell| cell.set(index));
}

/// Clears the request tag set by [`set_request_index`]; scheduled faults
/// stop firing on this thread.
pub fn clear_request_index() {
    REQUEST_INDEX.with(|cell| cell.set(u64::MAX));
}

fn current_request_index() -> u64 {
    REQUEST_INDEX.with(|cell| cell.get())
}

/// Locks the registry, tolerating poisoning: a failpoint whose injected
/// panic unwound through a lock holder must not wedge every later test.
fn lock() -> MutexGuard<'static, Registry> {
    registry()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn load_env(reg: &mut Registry) {
    if reg.env_loaded {
        return;
    }
    reg.env_loaded = true;
    let Ok(spec) = std::env::var("QAOA_GNN_FAULTS") else {
        return;
    };
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let (name, rest) = match entry.split_once('=') {
            Some(pair) => pair,
            None => (entry, "err"),
        };
        let (action_str, count_str) = match rest.split_once(':') {
            Some((a, c)) => (a, c),
            None => (rest, "1"),
        };
        let Some(action) = FaultAction::parse(action_str.trim()) else {
            continue; // unknown actions are ignored, not fatal
        };
        let remaining = count_str.trim().parse::<u64>().unwrap_or(1).max(1);
        reg.armed.push(Armed {
            name: name.trim().to_string(),
            action,
            remaining,
            thread: None,
        });
    }
}

fn matches_here(armed: &Armed, name: &str) -> bool {
    armed.name == name
        && armed
            .thread
            .is_none_or(|t| t == std::thread::current().id())
}

/// Consumes one firing of the named failpoint, if armed.
///
/// Returns the action to apply and decrements the failpoint's budget; a
/// failpoint armed for `n` firings is disarmed after the `n`-th. Unarmed
/// failpoints cost one short lock acquisition and return `None`.
pub fn fire(name: &str) -> Option<FaultAction> {
    let mut reg = lock();
    load_env(&mut reg);
    if reg.armed.is_empty() && reg.schedule.is_empty() {
        return None;
    }
    if let Some(idx) = reg.armed.iter().position(|a| matches_here(a, name)) {
        let action = reg.armed[idx].action;
        reg.armed[idx].remaining -= 1;
        if reg.armed[idx].remaining == 0 {
            reg.armed.remove(idx);
        }
        return Some(action);
    }
    // Chaos schedule: fires only on threads tagged with a request index
    // inside one of its windows, spending that entry's budget.
    let index = current_request_index();
    if index != u64::MAX {
        if let Some(entry) = reg
            .schedule
            .iter_mut()
            .find(|e| e.matches(name, index) && e.budget > 0)
        {
            let action = entry.action;
            entry.budget -= 1;
            reg.schedule_fired += 1;
            return Some(action);
        }
    }
    None
}

/// Panics with a recognizable message if the failpoint fires with
/// [`FaultAction::Panic`]; otherwise returns the fired action (if any) for
/// the caller to apply. Convenience for hook sites whose panic handling is
/// `catch_unwind`-based.
pub fn fire_may_panic(name: &str) -> Option<FaultAction> {
    let action = fire(name)?;
    match action {
        FaultAction::Panic => panic!("fault injected: {name}"),
        // A stall is a pure delay: pause inside the hook site's protocol
        // window, then report "nothing fired" so the caller proceeds.
        FaultAction::Stall => {
            stall();
            None
        }
        other => Some(other),
    }
}

fn test_lock() -> &'static Mutex<()> {
    static TEST_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    TEST_LOCK.get_or_init(|| Mutex::new(()))
}

/// RAII guard for one armed failpoint; disarms on drop.
///
/// The guard also holds a process-wide mutex, so two tests arming faults
/// concurrently serialize instead of observing each other's injections.
pub struct FaultGuard {
    name: String,
    _exclusive: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        let mut reg = lock();
        reg.armed.retain(|a| a.name != self.name);
    }
}

/// Arms `name` to fire `count` times with `action` **on this thread
/// only**, returning a guard that disarms on drop. See [`FaultGuard`] for
/// the concurrency contract. The guard holds a non-reentrant process-wide
/// mutex: arm at most one failpoint at a time (drop the previous guard
/// first), or the second call deadlocks.
pub fn armed(name: &str, action: FaultAction, count: u64) -> FaultGuard {
    let exclusive = test_lock()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut reg = lock();
    // Replace any stale arming of the same name (e.g. a prior guard whose
    // test panicked between arm and fire).
    reg.armed.retain(|a| a.name != name);
    reg.armed.push(Armed {
        name: name.to_string(),
        action,
        remaining: count.max(1),
        thread: Some(std::thread::current().id()),
    });
    drop(reg);
    FaultGuard {
        name: name.to_string(),
        _exclusive: exclusive,
    }
}

/// One scripted failure window: `failpoint` fires `action` for requests
/// whose index lies in `from_index..to_index`, at most `budget` times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Failpoint name (one of [`ALL`]).
    pub failpoint: &'static str,
    /// What the failpoint injects while the window is live.
    pub action: FaultAction,
    /// First request index (inclusive) the window covers.
    pub from_index: u64,
    /// One past the last request index the window covers.
    pub to_index: u64,
    /// Maximum firings; the entry goes quiet once spent.
    pub budget: u64,
}

impl ScheduledFault {
    fn matches(&self, name: &str, index: u64) -> bool {
        self.failpoint == name && index >= self.from_index && index < self.to_index
    }
}

/// A deterministic chaos script: a set of [`ScheduledFault`] windows over
/// a request-index range. Install with [`arm_schedule`]; see the module
/// docs for the firing rules.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// The scripted windows, in the order they were generated or pushed.
    pub entries: Vec<ScheduledFault>,
}

impl FaultSchedule {
    /// An empty schedule, to be filled with [`FaultSchedule::push`].
    pub fn new() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Adds one window (builder-style).
    pub fn push(mut self, entry: ScheduledFault) -> FaultSchedule {
        self.entries.push(entry);
        self
    }

    /// Generates a chaos script for a stream of `requests` requests as a
    /// pure function of `seed`: same seed, same script, bit for bit.
    ///
    /// The script spreads failure windows across every failpoint on the
    /// serving path — GNN-rung poison ([`FORWARD`]/[`SIM_EVAL`], each
    /// firing degrading the one request it hits), hot-swap rejections
    /// ([`HOT_SWAP`], and [`WEIGHT_BUILD`] when its window covers the
    /// swap's request index) and admission refusals ([`ADMISSION`]) —
    /// plus windows on the persistence failpoints ([`ARTIFACT_LOAD`],
    /// [`JOURNAL_IO`]) for drivers that touch disk between requests. Every
    /// window closes before `requests`, with a fault-free tail (the last
    /// ~20% of the stream) so a recovered end state (`Ready`, every
    /// request served) can be asserted at the end.
    pub fn from_seed(seed: u64, requests: u64) -> FaultSchedule {
        use qrand::rngs::StdRng;
        use qrand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00c4_a05c_4a05_c4a0);
        let mut entries = Vec::new();
        // All windows live in the first 80% of the stream; the tail is
        // clean so every run ends in a recovered state.
        let horizon = (requests * 4 / 5).max(1);
        let mut window = |failpoint: &'static str, actions: &[FaultAction], max_span: u64| {
            let span = 1 + rng.gen_range(0..max_span.max(1));
            let from = rng.gen_range(0..horizon.saturating_sub(span).max(1));
            let action = actions[rng.gen_range(0..actions.len())];
            ScheduledFault {
                failpoint,
                action,
                from_index: from,
                to_index: (from + span).min(horizon),
                budget: 1 + rng.gen_range(0..span),
            }
        };
        use FaultAction::{Error, Nan, Panic};
        // GNN-rung poison: one long dense window (a storm of consecutive
        // per-request degradations) plus scattered short ones.
        let mut storm = window(FORWARD, &[Panic, Nan], horizon / 4 + 1);
        storm.budget = storm.to_index - storm.from_index; // every request in it
        entries.push(storm);
        entries.push(window(FORWARD, &[Panic, Nan], 6));
        entries.push(window(SIM_EVAL, &[Panic, Nan], 6));
        // Control-plane windows (WEIGHT_BUILD fires only on a build
        // published while tagged inside it: a swap or a loop start).
        entries.push(window(WEIGHT_BUILD, &[Panic, Error], 4));
        entries.push(window(HOT_SWAP, &[Panic, Error], 4));
        entries.push(window(ADMISSION, &[Error], 6));
        // Persistence windows (fire only if the driver touches disk while
        // tagged with an in-window request index).
        entries.push(window(ARTIFACT_LOAD, &[Panic, Error], 4));
        entries.push(window(JOURNAL_IO, &[Panic, Error], 4));
        FaultSchedule { entries }
    }

    /// Sum of the remaining budgets across all windows.
    pub fn total_budget(&self) -> u64 {
        self.entries.iter().map(|e| e.budget).sum()
    }
}

/// RAII guard for an installed [`FaultSchedule`]; clears it on drop.
///
/// Like [`FaultGuard`], holds the process-wide test mutex so chaos runs
/// serialize against other fault-injecting tests. Unlike guard-armed
/// failpoints, scheduled faults fire on **any** thread tagged with an
/// in-window request index — the serve loop's workers are exactly the
/// threads that must observe them.
pub struct ScheduleGuard {
    _exclusive: MutexGuard<'static, ()>,
}

impl ScheduleGuard {
    /// Scheduled firings since this schedule was installed.
    pub fn fired(&self) -> u64 {
        lock().schedule_fired
    }
}

impl Drop for ScheduleGuard {
    fn drop(&mut self) {
        let mut reg = lock();
        reg.schedule.clear();
        reg.schedule_fired = 0;
    }
}

/// Installs `schedule` process-wide, returning a guard that clears it on
/// drop. See [`ScheduleGuard`] for the concurrency contract; like
/// [`armed`], at most one schedule (or armed failpoint) may be held at a
/// time per thread — the mutex is non-reentrant.
pub fn arm_schedule(schedule: FaultSchedule) -> ScheduleGuard {
    let exclusive = test_lock()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut reg = lock();
    reg.schedule = schedule.entries;
    reg.schedule_fired = 0;
    drop(reg);
    ScheduleGuard {
        _exclusive: exclusive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_failpoints_fire_nothing() {
        let _guard = armed("some_other_point", FaultAction::Nan, 1);
        assert_eq!(fire("not_armed"), None);
    }

    #[test]
    fn armed_failpoint_fires_exactly_count_times() {
        let _guard = armed(FORWARD, FaultAction::Nan, 3);
        for _ in 0..3 {
            assert_eq!(fire(FORWARD), Some(FaultAction::Nan));
        }
        assert_eq!(fire(FORWARD), None);
    }

    #[test]
    fn guard_disarms_on_drop() {
        {
            let _guard = armed(SIM_EVAL, FaultAction::Error, 100);
            assert_eq!(fire(SIM_EVAL), Some(FaultAction::Error));
        }
        assert_eq!(fire(SIM_EVAL), None);
    }

    #[test]
    fn fire_may_panic_panics_on_panic_action() {
        let _guard = armed(JOURNAL_IO, FaultAction::Panic, 1);
        let result = std::panic::catch_unwind(|| fire_may_panic(JOURNAL_IO));
        let err = result.unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("fault injected: journal_io"));
    }

    #[test]
    fn actions_parse_and_display() {
        for action in [
            FaultAction::Panic,
            FaultAction::Nan,
            FaultAction::Error,
            FaultAction::Stall,
        ] {
            assert_eq!(FaultAction::parse(&action.to_string()), Some(action));
        }
        assert_eq!(FaultAction::parse("error"), Some(FaultAction::Error));
        assert_eq!(FaultAction::parse("bogus"), None);
    }

    #[test]
    fn guard_armed_faults_are_thread_local() {
        let _guard = armed(ARTIFACT_LOAD, FaultAction::Error, 1);
        // Another thread never sees a guard-armed fault.
        let other = std::thread::spawn(|| fire(ARTIFACT_LOAD));
        assert_eq!(other.join().unwrap(), None);
        // The arming thread still gets its full budget.
        assert_eq!(fire(ARTIFACT_LOAD), Some(FaultAction::Error));
    }

    #[test]
    fn all_names_are_distinct() {
        for (i, a) in ALL.iter().enumerate() {
            for b in &ALL[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn scheduled_faults_fire_only_inside_their_window() {
        let schedule = FaultSchedule::new().push(ScheduledFault {
            failpoint: FORWARD,
            action: FaultAction::Nan,
            from_index: 10,
            to_index: 12,
            budget: 5,
        });
        let guard = arm_schedule(schedule);
        // Untagged thread: never fires.
        clear_request_index();
        assert_eq!(fire(FORWARD), None);
        // Tagged outside the window: never fires.
        set_request_index(9);
        assert_eq!(fire(FORWARD), None);
        set_request_index(12);
        assert_eq!(fire(FORWARD), None);
        // Inside: fires, on the right failpoint only.
        set_request_index(10);
        assert_eq!(fire(SIM_EVAL), None);
        assert_eq!(fire(FORWARD), Some(FaultAction::Nan));
        set_request_index(11);
        assert_eq!(fire(FORWARD), Some(FaultAction::Nan));
        assert_eq!(guard.fired(), 2);
        clear_request_index();
        drop(guard);
        // Cleared on drop.
        set_request_index(10);
        assert_eq!(fire(FORWARD), None);
        clear_request_index();
    }

    #[test]
    fn scheduled_faults_respect_their_budget() {
        let schedule = FaultSchedule::new().push(ScheduledFault {
            failpoint: ADMISSION,
            action: FaultAction::Panic,
            from_index: 0,
            to_index: 100,
            budget: 2,
        });
        let guard = arm_schedule(schedule);
        set_request_index(0);
        assert_eq!(fire(ADMISSION), Some(FaultAction::Panic));
        assert_eq!(fire(ADMISSION), Some(FaultAction::Panic));
        assert_eq!(fire(ADMISSION), None, "budget spent");
        assert_eq!(guard.fired(), 2);
        clear_request_index();
    }

    #[test]
    fn scheduled_faults_fire_on_any_tagged_thread() {
        let schedule = FaultSchedule::new().push(ScheduledFault {
            failpoint: FORWARD,
            action: FaultAction::Panic,
            from_index: 0,
            to_index: 1,
            budget: 1,
        });
        let _guard = arm_schedule(schedule);
        let other = std::thread::spawn(|| {
            set_request_index(0);
            let fired = fire(FORWARD);
            clear_request_index();
            fired
        });
        assert_eq!(other.join().unwrap(), Some(FaultAction::Panic));
    }

    #[test]
    fn from_seed_is_a_pure_function_of_the_seed() {
        let a = FaultSchedule::from_seed(42, 2000);
        let b = FaultSchedule::from_seed(42, 2000);
        let c = FaultSchedule::from_seed(43, 2000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.total_budget() > 0);
        // Every window targets a known failpoint, stays inside the stream,
        // and leaves the recovery tail clean.
        for entry in &a.entries {
            assert!(ALL.contains(&entry.failpoint));
            assert!(entry.from_index < entry.to_index);
            assert!(entry.to_index <= 2000 * 4 / 5);
            assert!(entry.budget >= 1);
        }
        // Every serving-path failpoint gets a window, and the script
        // includes a dense GNN-rung storm.
        for failpoint in [FORWARD, SIM_EVAL, WEIGHT_BUILD, HOT_SWAP, ADMISSION] {
            assert!(
                a.entries.iter().any(|e| e.failpoint == failpoint),
                "no {failpoint} window"
            );
        }
        assert!(a
            .entries
            .iter()
            .any(|e| e.failpoint == FORWARD && e.budget >= 4));
    }
}
