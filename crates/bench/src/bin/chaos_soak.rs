//! Deterministic chaos soak for the serving loop.
//!
//! Arms a [`qaoa_gnn::FaultSchedule`] generated from one seed and drives a
//! numbered request stream through a live [`qaoa_gnn::ServeLoop`] — twice.
//! While the schedule is live, the GNN rung is poisoned (each poisoned
//! request degrades to the next rung on its own), admissions error, and
//! the one hot-swap, made at the start of the schedule's `hot_swap`
//! window, is refused. The soak then verifies the serving contract end to
//! end:
//!
//! - every submission is answered exactly once (zero drops),
//! - the swap inside the `hot_swap` window is refused,
//! - the loop ends `Ready` after the schedule's clean tail,
//! - and both runs of the same seed produce **bit-identical** outcome
//!   streams (compared as a fold over every reply's rung, skips, angle
//!   bits, and generation).
//!
//! ```text
//! cargo run --release -p qaoa-gnn-bench --bin chaos_soak            # 50k × 2 requests
//! cargo run --release -p qaoa-gnn-bench --bin chaos_soak -- --smoke # CI-sized (2k × 2)
//! QAOA_GNN_CHAOS_SEED=7 cargo run --release -p qaoa-gnn-bench --bin chaos_soak
//! ```
//!
//! Flags: `--requests N` (per run, default 50_000), `--seed N` (overrides
//! `QAOA_GNN_CHAOS_SEED`, default 42), `--workers N` (default 2),
//! `--smoke` (2_000 requests, everything else identical). Appends a CSV
//! row per run to `target/experiments/chaos_soak_<cores>core.csv`.

use std::process::ExitCode;
use std::time::Instant;

use gnn::train::TrainHistory;
use gnn::{GnnKind, GnnModel};
use qaoa_gnn::dataset::LabelReport;
use qaoa_gnn::faults::{self, FaultSchedule};
use qaoa_gnn::pipeline::PipelineConfig;
use qaoa_gnn::serve::ServeRequest;
use qaoa_gnn::serve_loop::{LoopConfig, ServeLoop};
use qaoa_gnn::store::{fnv1a_extend, FNV1A_OFFSET};
use qaoa_gnn::{Health, RunArtifact, TrainingEnvelope};
use qaoa_gnn_bench::parse_flag;
use qgraph::Graph;
use qrand::rngs::StdRng;
use qrand::SeedableRng;

const DEFAULT_SEED: u64 = 42;

fn fail(msg: &str) -> ExitCode {
    eprintln!("FAIL: {msg}");
    ExitCode::FAILURE
}

/// A valid artifact whose weights depend on `seed` (same fixture as the
/// `serve_load` bench).
fn artifact_with_seed(seed: u64) -> RunArtifact {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = GnnModel::new(
        GnnKind::Gcn,
        gnn::ModelConfig {
            hidden_dim: 4,
            ..gnn::ModelConfig::default()
        },
        &mut rng,
    );
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

struct RunReport {
    digest: u64,
    elapsed_secs: f64,
    answered: u64,
    served: u64,
    shed: u64,
    rejected: u64,
    fired: u64,
    swap: String,
    swap_refused: bool,
    end_health: Health,
}

/// One soak: arm the seeded schedule, drive `requests` requests
/// sequentially (submit → wait keeps the request clock total, which is
/// what makes the digest replayable), swap once at the start of the
/// schedule's `hot_swap` window (mid-stream when it scripts none),
/// snapshot.
fn run_once(seed: u64, requests: u64, workers: usize) -> RunReport {
    let schedule = FaultSchedule::from_seed(seed, requests);
    let swap_at = schedule
        .entries
        .iter()
        .find(|e| e.failpoint == faults::HOT_SWAP)
        .map_or(requests / 2, |e| e.from_index);
    let guard = faults::arm_schedule(schedule);
    let serve = ServeLoop::new(
        artifact_with_seed(seed),
        LoopConfig::default()
            .with_workers(workers)
            .with_queue_capacity(256)
            .with_shed_watermark(256),
    );
    let start = Instant::now();
    let mut digest = FNV1A_OFFSET;
    let mut swap = None;
    for i in 0..requests {
        let n = 3 + (i % 10) as usize;
        let done = serve
            .submit(ServeRequest::from_graph(Graph::cycle(n).expect("cycle")))
            .wait();
        digest = fnv1a_extend(digest, &done.generation.to_le_bytes());
        match &done.response.result {
            Ok(outcome) => {
                let (gamma, beta) = outcome.angles();
                digest = fnv1a_extend(digest, &[1, outcome.rung.quality(), outcome.clamped as u8]);
                digest = fnv1a_extend(digest, &gamma.to_bits().to_le_bytes());
                digest = fnv1a_extend(digest, &beta.to_bits().to_le_bytes());
                digest = fnv1a_extend(digest, &(outcome.skips.len() as u64).to_le_bytes());
                for skip in &outcome.skips {
                    digest = fnv1a_extend(digest, format!("{:?}", skip.reason).as_bytes());
                }
            }
            Err(error) => digest = fnv1a_extend(digest, format!("0{error:?}").as_bytes()),
        }
        if i == swap_at {
            let swapped = serve.swap_artifact(artifact_with_seed(seed ^ 1));
            digest = fnv1a_extend(digest, format!("swap {swapped:?}").as_bytes());
            swap = Some(swapped);
        }
    }
    let elapsed_secs = start.elapsed().as_secs_f64();
    let metrics = serve.metrics();
    RunReport {
        digest,
        elapsed_secs,
        answered: metrics.total(),
        served: metrics.served,
        shed: metrics.shed,
        rejected: metrics.rejected,
        fired: guard.fired(),
        swap: match &swap {
            Some(result) => format!("swap@{swap_at} -> {result:?}"),
            None => "no swap".to_string(),
        },
        swap_refused: matches!(swap, Some(Err(_))),
        end_health: serve.health().state,
    }
}

/// The soak *injects* panics by design (rung poison, refused swaps); keep
/// the console readable by muting those while letting real panics print.
fn mute_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.starts_with("fault injected"))
            .or_else(|| {
                info.payload()
                    .downcast_ref::<String>()
                    .map(|s| s.starts_with("fault injected"))
            })
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let requests =
        parse_flag(&args, "--requests").unwrap_or(if smoke { 2_000 } else { 50_000 }) as u64;
    let workers = parse_flag(&args, "--workers").unwrap_or(2);
    let seed = parse_flag(&args, "--seed")
        .map(|s| s as u64)
        .or_else(|| {
            std::env::var("QAOA_GNN_CHAOS_SEED")
                .ok()
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(DEFAULT_SEED);
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    mute_injected_panics();

    let schedule = FaultSchedule::from_seed(seed, requests);
    println!(
        "chaos_soak: seed {seed}, {requests} requests × 2 runs, {workers} workers, \
         {} scheduled fault windows (budget {}), {cores} core(s)",
        schedule.entries.len(),
        schedule.total_budget(),
    );

    let first = run_once(seed, requests, workers);
    let second = run_once(seed, requests, workers);

    for (name, run) in [("run1", &first), ("run2", &second)] {
        println!(
            "{name}: {} answered in {:6.2}s ({:>7.0} req/s)  served {} shed {} rejected {}  \
             faults fired {}  health {}  {}",
            run.answered,
            run.elapsed_secs,
            run.answered as f64 / run.elapsed_secs,
            run.served,
            run.shed,
            run.rejected,
            run.fired,
            run.end_health,
            run.swap,
        );
    }

    // ---- Invariants --------------------------------------------------
    for (name, run) in [("run1", &first), ("run2", &second)] {
        if run.answered != requests {
            return fail(&format!(
                "{name}: exactly-once violated — {} answers for {requests} submissions",
                run.answered
            ));
        }
        if run.end_health != Health::Ready {
            return fail(&format!("{name}: loop ended {} not ready", run.end_health));
        }
        if run.fired == 0 {
            return fail(&format!("{name}: the fault schedule never fired"));
        }
    }
    if first.digest != second.digest {
        return fail(&format!(
            "replay diverged: digest {:016x} vs {:016x} for the same seed",
            first.digest, second.digest
        ));
    }
    if first.fired != second.fired {
        return fail("replay diverged: fault firings differ between runs");
    }
    // The default seed's swap lands in its `hot_swap` window, so the
    // control-plane fault must fire and refuse it.
    if seed == DEFAULT_SEED && !first.swap_refused {
        return fail(&format!(
            "default seed must refuse the swap in its hot_swap window: {}",
            first.swap
        ));
    }

    // ---- CSV ---------------------------------------------------------
    let dir = std::path::Path::new("target/experiments");
    let _ = std::fs::create_dir_all(dir);
    let csv = dir.join(format!("chaos_soak_{cores}core.csv"));
    let mut out = String::from(
        "run,seed,requests,elapsed_s,throughput_rps,served,shed,rejected,fired,digest\n",
    );
    for (name, run) in [("run1", &first), ("run2", &second)] {
        out.push_str(&format!(
            "{},{},{},{:.3},{:.0},{},{},{},{},{:016x}\n",
            name,
            seed,
            requests,
            run.elapsed_secs,
            run.answered as f64 / run.elapsed_secs,
            run.served,
            run.shed,
            run.rejected,
            run.fired,
            run.digest,
        ));
    }
    if let Err(e) = std::fs::write(&csv, out) {
        return fail(&format!("writing {}: {e}", csv.display()));
    }
    println!("wrote {}", csv.display());
    println!(
        "chaos_soak OK: zero drops, ended ready, \
         bit-identical replay (digest {:016x})",
        first.digest
    );
    ExitCode::SUCCESS
}
