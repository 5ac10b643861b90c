//! Deterministic chaos soak for the self-healing serving loop.
//!
//! Arms a [`qaoa_gnn::FaultSchedule`] generated from one seed and drives a
//! numbered request stream through a live [`qaoa_gnn::ServeLoop`] — twice.
//! While the schedule is live, worker threads are killed (exercising
//! supervision and respawn), the GNN rung is poisoned (each poisoned
//! request degrades to the next rung on its own), hot-swaps are refused,
//! and admissions error. The soak then verifies the self-healing contract
//! end to end:
//!
//! - every submission is answered exactly once (zero drops),
//! - the worker census is restored after every kill,
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
use std::time::{Duration, Instant};

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
    respawns: u64,
    end_health: Health,
    census_ok: bool,
}

/// One soak: arm the seeded schedule, drive `requests` requests
/// sequentially (submit → wait keeps the request clock total, which is
/// what makes the digest replayable), swap once mid-stream, wait for the
/// census, snapshot.
fn run_once(seed: u64, requests: u64, workers: usize) -> RunReport {
    let guard = faults::arm_schedule(FaultSchedule::from_seed(seed, requests));
    let serve = ServeLoop::new(
        artifact_with_seed(seed),
        LoopConfig::default()
            .with_workers(workers)
            .with_queue_capacity(256)
            .with_shed_watermark(256)
            .with_batch_size(8),
    );
    let start = Instant::now();
    let mut digest = FNV1A_OFFSET;
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
        if i == requests / 2 {
            let swap = serve.swap_artifact(artifact_with_seed(seed ^ 1));
            digest = fnv1a_extend(digest, format!("swap {swap:?}").as_bytes());
        }
    }
    let elapsed_secs = start.elapsed().as_secs_f64();
    // The schedule's tail is clean; give the supervisor a bounded window
    // to finish restoring the census.
    let deadline = Instant::now() + Duration::from_secs(5);
    let census_ok = loop {
        let m = serve.metrics();
        if m.workers_alive == m.workers_target {
            break true;
        }
        if Instant::now() >= deadline {
            break false;
        }
        std::thread::yield_now();
    };
    let metrics = serve.metrics();
    RunReport {
        digest,
        elapsed_secs,
        answered: metrics.total(),
        served: metrics.served,
        shed: metrics.shed,
        rejected: metrics.rejected,
        fired: guard.fired(),
        respawns: metrics.respawns,
        end_health: serve.health().state,
        census_ok,
    }
}

/// The soak *injects* panics by design (worker kills, rung poison); keep
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
    let requests = parse_flag(&args, "--requests").unwrap_or(if smoke { 2_000 } else { 50_000 }) as u64;
    let workers = parse_flag(&args, "--workers").unwrap_or(2);
    let seed = parse_flag(&args, "--seed")
        .map(|s| s as u64)
        .or_else(|| {
            std::env::var("QAOA_GNN_CHAOS_SEED")
                .ok()
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(DEFAULT_SEED);
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
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
             faults fired {}  respawns {}  health {}",
            run.answered,
            run.elapsed_secs,
            run.answered as f64 / run.elapsed_secs,
            run.served,
            run.shed,
            run.rejected,
            run.fired,
            run.respawns,
            run.end_health,
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
        if !run.census_ok {
            return fail(&format!("{name}: worker census not restored after kills"));
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
    if first.fired != second.fired || first.respawns != second.respawns {
        return fail("replay diverged: fault firings or respawn counts differ between runs");
    }
    // The default seed is a known-violent script; a chosen seed may be
    // gentler, so supervision coverage is only enforced for it.
    if seed == DEFAULT_SEED && first.respawns == 0 {
        return fail("default seed must kill workers and force respawns");
    }

    // ---- CSV ---------------------------------------------------------
    let dir = std::path::Path::new("target/experiments");
    let _ = std::fs::create_dir_all(dir);
    let csv = dir.join(format!("chaos_soak_{cores}core.csv"));
    let mut out = String::from(
        "run,seed,requests,elapsed_s,throughput_rps,served,shed,rejected,fired,respawns,digest\n",
    );
    for (name, run) in [("run1", &first), ("run2", &second)] {
        out.push_str(&format!(
            "{},{},{},{:.3},{:.0},{},{},{},{},{},{:016x}\n",
            name,
            seed,
            requests,
            run.elapsed_secs,
            run.answered as f64 / run.elapsed_secs,
            run.served,
            run.shed,
            run.rejected,
            run.fired,
            run.respawns,
            run.digest,
        ));
    }
    if let Err(e) = std::fs::write(&csv, out) {
        return fail(&format!("writing {}: {e}", csv.display()));
    }
    println!("wrote {}", csv.display());
    println!(
        "chaos_soak OK: zero drops, census restored, ended ready, \
         bit-identical replay (digest {:016x})",
        first.digest
    );
    ExitCode::SUCCESS
}
