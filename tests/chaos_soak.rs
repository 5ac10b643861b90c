//! The deterministic chaos-soak harness: a seeded [`FaultSchedule`] is
//! armed process-wide and a single driver pushes a numbered request
//! stream through a live [`ServeLoop`] while the GNN rung is poisoned
//! (each poisoned request degrading on its own), hot-swaps are refused,
//! admissions error, and persistence hiccups — all scripted as pure
//! functions of one seed. The invariants under fire:
//!
//! - **Exactly once**: every submitted ticket resolves with exactly one
//!   reply; `metrics().total()` equals the submission count; nothing is
//!   dropped or double-answered (a double answer would panic the reply
//!   channel).
//! - **Recovered**: the clean tail leaves the loop `Ready`.
//! - **Bit-identical**: two runs of the same seed produce the same
//!   outcome fingerprints (rung, skips, angle bits, generation, envelope,
//!   verification bits), the same counters, and the same fault firings.
//!
//! Every test here arms a schedule (possibly empty) to hold the
//! process-wide fault lock: scheduled faults fire on *any* tagged thread,
//! so chaos tests must never overlap another loop's workers.

use std::panic::{catch_unwind, AssertUnwindSafe};

use qrand::rngs::StdRng;
use qrand::SeedableRng;

use gnn::train::TrainHistory;
use gnn::{GnnKind, GnnModel};
use qaoa_gnn::dataset::LabelReport;
use qaoa_gnn::faults::{self, FaultAction, FaultSchedule, ScheduledFault};
use qaoa_gnn::pipeline::PipelineConfig;
use qaoa_gnn::serve_loop::{Completed, LoopConfig, ServeLoop, SwapError};
use qaoa_gnn::{
    Health, HealthReason, Json, RunArtifact, Rung, ServeRequest, SkipReason, ToJson,
    TrainingEnvelope,
};
use qgraph::Graph;

/// Same cheap fixture as `tests/serve_loop.rs`: valid weights seeded by
/// `seed`, wide envelope.
fn artifact(seed: u64) -> RunArtifact {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = gnn::ModelConfig {
        hidden_dim: 4,
        ..gnn::ModelConfig::default()
    };
    let model = GnnModel::new(GnnKind::Gcn, config, &mut rng);
    RunArtifact {
        config: PipelineConfig::quick(),
        weights: model.export_weights(),
        history: TrainHistory::default(),
        label_report: LabelReport::clean(1),
        dataset_fingerprint: seed,
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

fn chaos_loop(seed: u64) -> ServeLoop {
    ServeLoop::new(
        artifact(seed),
        LoopConfig::default()
            .with_workers(2)
            .with_queue_capacity(64)
            .with_shed_watermark(64),
    )
}

/// Everything observable about one reply that must be bit-identical
/// across runs of the same seed — provenance and payload, never timing.
fn fingerprint(index: u64, done: &Completed) -> String {
    match &done.response.result {
        Ok(outcome) => {
            let (gamma, beta) = outcome.angles();
            format!(
                "{index} g{} rung={:?} skips={:?} env={:?} clamped={} score={:?} γ={:016x} β={:016x}",
                done.generation,
                outcome.rung,
                outcome.skips,
                outcome.envelope,
                outcome.clamped,
                outcome.verified_score.map(f64::to_bits),
                gamma.to_bits(),
                beta.to_bits(),
            )
        }
        Err(error) => format!("{index} g{} err={error:?}", done.generation),
    }
}

/// The replayable subset of [`qaoa_gnn::LoopMetrics`]: counters that are
/// pure functions of the seed, excluding racy gauges (queue depth) and
/// wall-clock artifacts.
fn counter_digest(serve: &ServeLoop) -> String {
    let m = serve.metrics();
    format!(
        "served={} shed={} rejected={} gen={} gnn={} fixed={} fallback={}",
        m.served, m.shed, m.rejected, m.generation, m.rung_gnn, m.rung_fixed, m.rung_fallback,
    )
}

struct SoakRun {
    fingerprints: Vec<String>,
    counters: String,
    fired: u64,
}

/// One full soak: arm the seeded schedule, drive `requests` numbered
/// requests sequentially (submit → wait, so the request clock is total),
/// hot-swap once at the start of the schedule's `hot_swap` window, and
/// save and load an artifact at the start of its `artifact_load` window
/// (mid-stream when the seed scripts no such window). Returns everything
/// that must replay bit-for-bit.
fn run_soak(seed: u64, requests: u64, tag: &str) -> SoakRun {
    let schedule = FaultSchedule::from_seed(seed, requests);
    let window_start = |failpoint: &str, fallback: u64| {
        schedule
            .entries
            .iter()
            .find(|e| e.failpoint == failpoint)
            .map_or(fallback, |e| e.from_index)
    };
    let swap_at = window_start(faults::HOT_SWAP, requests / 2);
    let persist_at = window_start(faults::ARTIFACT_LOAD, requests / 3);
    let guard = faults::arm_schedule(schedule);
    let serve = chaos_loop(seed);
    let mut fingerprints = Vec::with_capacity(requests as usize + 2);
    for i in 0..requests {
        let n = 3 + (i % 10) as usize;
        let done = serve
            .submit(ServeRequest::from_graph(Graph::cycle(n).unwrap()))
            .wait();
        fingerprints.push(fingerprint(i, &done));
        if i == swap_at {
            let swap = serve.swap_artifact(artifact(seed ^ 1));
            fingerprints.push(format!("swap@{i} -> {swap:?}"));
        }
        if i == persist_at {
            // Persistence under chaos: the driver thread is tagged with
            // request index `i` (the tag lingers past submit by design),
            // so an ARTIFACT_LOAD window covering `i` fires here. Panics
            // are contained; only the outcome kind is recorded (paths and
            // io text are not replayable).
            let dir = std::env::temp_dir().join(format!("qaoa-chaos-{seed}-{tag}"));
            std::fs::create_dir_all(&dir).expect("temp dir");
            let path = dir.join("artifact.json");
            let saved = catch_unwind(AssertUnwindSafe(|| {
                artifact(seed).save(&path).map_err(|_| "io")
            }));
            let loaded = catch_unwind(AssertUnwindSafe(|| {
                RunArtifact::load(&path).map(|_| ()).map_err(|_| "load")
            }));
            fingerprints.push(format!(
                "persist@{i} save={} load={}",
                match &saved {
                    Ok(Ok(())) => "ok",
                    Ok(Err(_)) => "err",
                    Err(_) => "panic",
                },
                match &loaded {
                    Ok(Ok(())) => "ok",
                    Ok(Err(_)) => "err",
                    Err(_) => "panic",
                },
            ));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let stats = serve.metrics();
    assert_eq!(
        stats.total(),
        requests,
        "exactly-once violated: {} answers for {requests} submissions",
        stats.total()
    );
    let fired = guard.fired();
    SoakRun {
        fingerprints,
        counters: counter_digest(&serve),
        fired,
    }
}

// ------------------------------------------------------------- the soak

/// The headline test: two runs of the same seed, every invariant, and a
/// bit-identical replay.
#[test]
fn chaos_soak_answers_exactly_once_and_replays_bit_identically() {
    const SEED: u64 = 42;
    const REQUESTS: u64 = 400;
    let first = run_soak(SEED, REQUESTS, "a");
    let second = run_soak(SEED, REQUESTS, "b");

    // Bit-identical replay: same fingerprints in the same order, same
    // counters, same number of scheduled firings.
    assert_eq!(first.fingerprints.len(), second.fingerprints.len());
    for (i, (a, b)) in first
        .fingerprints
        .iter()
        .zip(&second.fingerprints)
        .enumerate()
    {
        assert_eq!(a, b, "replay diverged at entry {i}");
    }
    assert_eq!(first.counters, second.counters, "counters diverged");
    assert_eq!(first.fired, second.fired, "fault firings diverged");

    // The schedule actually did damage (seed 42 is empirically violent:
    // the FORWARD storm degrades requests).
    assert!(first.fired > 0, "schedule never fired");
    assert!(
        !first.counters.contains("fixed=0 "),
        "the FORWARD storm must degrade requests to fixed angles: {}",
        first.counters
    );
    // The driver acts inside the control-plane and persistence windows, so
    // they fire: seed 42 scripts an error at both.
    let entry = |prefix: &str| {
        first
            .fingerprints
            .iter()
            .find(|f| f.starts_with(prefix))
            .unwrap_or_else(|| panic!("no {prefix} entry"))
            .clone()
    };
    let swap = entry("swap@");
    assert!(
        swap.ends_with(" -> Err(Rejected(\"fault injected: hot_swap\"))"),
        "the hot_swap window must refuse the swap: {swap}"
    );
    let persist = entry("persist@");
    assert!(
        persist.ends_with(" load=err"),
        "the artifact_load window must fire: {persist}"
    );
}

/// The clean tail guarantees the soak ends *recovered*, not merely done:
/// health Ready.
#[test]
fn chaos_soak_ends_recovered() {
    let schedule = FaultSchedule::from_seed(42, 400);
    let _guard = faults::arm_schedule(schedule);
    let serve = chaos_loop(42);
    for i in 0..400u64 {
        let n = 3 + (i % 10) as usize;
        let done = serve
            .submit(ServeRequest::from_graph(Graph::cycle(n).unwrap()))
            .wait();
        assert!(
            done.response.result.is_ok() || i < 320,
            "the clean tail (last 20%) must serve outcomes, got {:?} at {i}",
            done.response.result
        );
    }
    let health = serve.health();
    assert_eq!(
        health.state,
        Health::Ready,
        "loop must end Ready, reasons: {:?}",
        health.reasons
    );
}

// ----------------------------------------------------- focused scenarios

/// Health attribution for a structurally dead model: Degraded with
/// `ModelUnavailable`, while a healthy loop reports Ready.
#[test]
fn health_names_model_unavailable_for_headless_artifact() {
    let _guard = faults::arm_schedule(FaultSchedule::new());
    let mut headless = artifact(7401);
    headless.weights.params.pop();
    let serve = ServeLoop::new(headless, LoopConfig::default().with_workers(1));
    let done = serve
        .submit(ServeRequest::from_graph(Graph::cycle(6).unwrap()))
        .wait();
    assert_ne!(done.response.result.unwrap().rung, Rung::Gnn);
    let health = serve.health();
    assert_eq!(health.state, Health::Degraded);
    assert!(
        health
            .reasons
            .iter()
            .any(|r| matches!(r, HealthReason::ModelUnavailable)),
        "must name the dead model: {:?}",
        health.reasons
    );
    // A healthy loop with traffic reports Ready.
    let healthy = chaos_loop(7501);
    healthy
        .submit(ServeRequest::from_graph(Graph::cycle(6).unwrap()))
        .wait();
    assert_eq!(healthy.health().state, Health::Ready);
}

/// A `weight_build` window covering the swap's request index refuses the
/// swap — the predictor is built once, on the swapping thread, tagged
/// with that index — so generation 0 keeps serving with its model and
/// every run of the same stream is bit-identical, whichever worker served
/// which batch.
#[test]
fn weight_build_window_at_swap_refuses_it_identically_every_run() {
    const SWAP_AT: u64 = 200;
    let mut runs: Vec<Vec<String>> = Vec::new();
    for _ in 0..20 {
        let guard = faults::arm_schedule(FaultSchedule::new().push(ScheduledFault {
            failpoint: faults::WEIGHT_BUILD,
            action: FaultAction::Error,
            from_index: 190,
            to_index: SWAP_AT + 1,
            budget: 11,
        }));
        let serve = chaos_loop(7801);
        let mut fingerprints = Vec::new();
        for i in 0..SWAP_AT + 20 {
            let n = 3 + (i % 10) as usize;
            let done = serve
                .submit(ServeRequest::from_graph(Graph::cycle(n).unwrap()))
                .wait();
            let outcome = done.response.result.as_ref().expect("served");
            assert!(
                !outcome
                    .skips
                    .iter()
                    .any(|s| matches!(s.reason, SkipReason::ModelUnavailable(_))),
                "request {i} lost the model: {outcome:?}"
            );
            assert_eq!(done.generation, 0, "generation 0 keeps serving");
            fingerprints.push(fingerprint(i, &done));
            if i == SWAP_AT {
                let swap = serve.swap_artifact(artifact(7802));
                assert!(
                    matches!(swap, Err(SwapError::Rejected(_))),
                    "a weight_build fault must refuse the swap: {swap:?}"
                );
                fingerprints.push(format!("swap@{i} -> {swap:?}"));
            }
        }
        assert_eq!(guard.fired(), 1, "only the swap's build is in the window");
        assert_eq!(serve.generation(), 0);
        runs.push(fingerprints);
    }
    for (run, fingerprints) in runs.iter().enumerate().skip(1) {
        assert_eq!(fingerprints, &runs[0], "run {run} diverged from run 0");
    }
}

/// A `weight_build` fault on the constructing thread leaves generation 0
/// without a model: it serves one rung down and health names it, until a
/// clean swap restores the GNN rung and `Ready`.
#[test]
fn weight_build_fault_at_construction_degrades_until_a_clean_swap() {
    let _fault = faults::armed(faults::WEIGHT_BUILD, FaultAction::Error, 1);
    let serve = chaos_loop(7901);
    let request = || ServeRequest::from_graph(Graph::cycle(6).unwrap());
    let outcome = serve.handle_wait(request()).response.result.unwrap();
    assert_eq!(outcome.rung, Rung::FixedAngle);
    assert_eq!(outcome.skips[0].rung, Rung::Gnn);
    assert!(
        matches!(outcome.skips[0].reason, SkipReason::ModelUnavailable(_)),
        "the GNN rung must be skipped for the missing model: {:?}",
        outcome.skips
    );
    let health = serve.health();
    assert_eq!(health.state, Health::Degraded);
    assert_eq!(health.reasons, vec![HealthReason::ModelUnavailable]);

    assert_eq!(serve.swap_artifact(artifact(7902)).expect("clean swap"), 1);
    let done = serve.handle_wait(request());
    assert_eq!(done.generation, 1);
    assert_eq!(done.response.result.unwrap().rung, Rung::Gnn);
    assert_eq!(serve.health().state, Health::Ready);
}

/// The metrics snapshot serializes via `core::json` and parses back with
/// the counters intact — the bench bin and dashboards consume this.
#[test]
fn metrics_snapshot_round_trips_through_json() {
    let _guard = faults::arm_schedule(FaultSchedule::new());
    let serve = chaos_loop(7701);
    for _ in 0..5 {
        serve
            .submit(ServeRequest::from_graph(Graph::cycle(6).unwrap()))
            .wait();
    }
    let metrics = serve.metrics();
    let text = metrics.to_json().to_pretty();
    let parsed = Json::parse(&text).expect("metrics JSON must parse");
    assert_eq!(parsed.get("served").unwrap().as_u64().unwrap(), 5);
    assert_eq!(parsed.get("health").unwrap().as_str().unwrap(), "ready");
    assert_eq!(parsed.get("workers_target").unwrap().as_u64().unwrap(), 2);
}
