//! Closed-loop load bench for the concurrent serving loop.
//!
//! Drives synthetic traffic through [`qaoa_gnn::ServeLoop`] in two phases
//! and verifies the tentpole guarantees end to end:
//!
//! 1. **Closed loop** — `submitters` threads each keep exactly one request
//!    outstanding (`handle_wait` → repeat), the classic closed-loop
//!    arrival pattern that measures un-queued service latency. A request
//!    runs on its submitter's own thread when a worker slot is free and
//!    queues otherwise; the totals line reports how many ran inline.
//!    While the phase runs, a swapper thread publishes `swaps` retrained
//!    artifacts mid-traffic; every request must complete (zero drops) and
//!    at least two artifact generations must be observed in the responses.
//! 2. **Open loop (forced saturation)** — submitters fire a burst of
//!    requests *without* waiting, which drives the bounded queue through
//!    its shed watermark and into hard capacity. Excess load must shed to
//!    the fixed-angle rung (bounded memory), and still: one reply per
//!    request, zero drops, zero typed rejections.
//!
//! Reports p50/p99/p999 latency and saturation throughput, and appends a
//! CSV row per phase to `target/experiments/serve_load_<cores>core.csv`.
//! Simulator verification is disabled (`verify_max_nodes = 0`), as a
//! throughput deployment would configure it; the bench measures the
//! serving loop, not the simulator.
//!
//! ```text
//! cargo run --release -p qaoa-gnn-bench --bin serve_load            # 1M+ requests
//! cargo run --release -p qaoa-gnn-bench --bin serve_load -- --smoke # CI-sized
//! ```
//!
//! Flags: `--requests N` (closed-loop total, default 1_000_000),
//! `--burst N` (open-loop total, default 200_000), `--swaps N` (default 3),
//! `--workers N` (default auto), `--submitters N` (default 4, at least 1),
//! `--smoke` (20_000 + 8_000 requests, everything else identical).

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::time::Instant;

use gnn::train::TrainHistory;
use gnn::{GnnKind, GnnModel};
use qaoa_gnn::dataset::LabelReport;
use qaoa_gnn::pipeline::PipelineConfig;
use qaoa_gnn::serve::ServeRequest;
use qaoa_gnn::serve_loop::{LoopConfig, ServeLoop};
use qaoa_gnn::{RunArtifact, ServeConfig, TrainingEnvelope};
use qaoa_gnn_bench::parse_flag;
use qgraph::Graph;
use qrand::rngs::StdRng;
use qrand::SeedableRng;

fn fail(msg: &str) -> ExitCode {
    eprintln!("FAIL: {msg}");
    ExitCode::FAILURE
}

/// A valid artifact whose weights depend on `seed`, so successive swaps
/// publish genuinely different models (stand-ins for retrained runs).
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

/// In-envelope request pool: a mix of small graph shapes, pre-built once
/// so the hot loop measures serving, not graph construction.
fn request_pool() -> Vec<Graph> {
    let mut pool = Vec::new();
    for n in 3..=12 {
        pool.push(Graph::cycle(n).expect("cycle"));
    }
    for n in 3..=8 {
        pool.push(Graph::complete(n).expect("complete"));
    }
    pool
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct PhaseReport {
    name: &'static str,
    requests: u64,
    elapsed_secs: f64,
    p50: u64,
    p99: u64,
    p999: u64,
    shed: u64,
    rejected: u64,
    generations_seen: usize,
}

impl PhaseReport {
    fn throughput(&self) -> f64 {
        self.requests as f64 / self.elapsed_secs
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let closed_total =
        parse_flag(&args, "--requests").unwrap_or(if smoke { 20_000 } else { 1_000_000 });
    let burst_total = parse_flag(&args, "--burst").unwrap_or(if smoke { 8_000 } else { 200_000 });
    let swaps = parse_flag(&args, "--swaps").unwrap_or(3);
    let submitters = parse_flag(&args, "--submitters").unwrap_or(4);
    let workers = parse_flag(&args, "--workers").unwrap_or(0);
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    if submitters == 0 {
        return fail("--submitters must be at least 1");
    }

    // Small queue so the open-loop burst reliably crosses the watermark
    // and capacity even on a 1-core container.
    let config = LoopConfig::default()
        .with_workers(workers)
        .with_queue_capacity(512)
        .with_shed_watermark(384)
        .with_serve(ServeConfig::default().with_verify_max_nodes(0));
    let serve = ServeLoop::new(artifact_with_seed(9000), config);
    let pool = request_pool();

    println!(
        "serve_load: {closed_total} closed-loop + {burst_total} open-loop requests, \
         {swaps} mid-traffic swaps, {submitters} submitters, {cores} core(s)"
    );

    // ---- Phase 1: closed loop with mid-traffic hot-swaps -------------
    let completed = AtomicU64::new(0);
    let shed_seen = AtomicU64::new(0);
    let rejected_seen = AtomicU64::new(0);
    let generation_mask = AtomicU64::new(0); // bit per generation observed
    let per_thread = closed_total / submitters;
    let start = Instant::now();
    let mut latencies: Vec<u64> = Vec::with_capacity(per_thread * submitters);

    std::thread::scope(|scope| {
        // Swapper: publish retrained artifacts at even progress intervals.
        let swapper = scope.spawn(|| {
            for i in 0..swaps {
                let trigger = ((i + 1) * per_thread * submitters) as u64 / (swaps + 1) as u64;
                while completed.load(SeqCst) < trigger {
                    std::thread::yield_now();
                }
                serve
                    .swap_artifact(artifact_with_seed(9100 + i as u64))
                    .expect("mid-traffic hot-swap");
            }
        });
        let submit_handles: Vec<_> = (0..submitters)
            .map(|t| {
                let serve = &serve;
                let pool = &pool;
                let completed = &completed;
                let shed_seen = &shed_seen;
                let rejected_seen = &rejected_seen;
                let generation_mask = &generation_mask;
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(per_thread);
                    for i in 0..per_thread {
                        let graph = pool[(t + i * 7) % pool.len()].clone();
                        let begin = Instant::now();
                        let done = serve.handle_wait(ServeRequest::from_graph(graph));
                        local.push(begin.elapsed().as_micros() as u64);
                        if done.response.was_shed() {
                            shed_seen.fetch_add(1, SeqCst);
                        }
                        if done.response.error().is_some() {
                            rejected_seen.fetch_add(1, SeqCst);
                        }
                        generation_mask.fetch_or(1 << done.generation.min(63), SeqCst);
                        completed.fetch_add(1, SeqCst);
                    }
                    local
                })
            })
            .collect();
        for handle in submit_handles {
            latencies.extend(handle.join().expect("submitter"));
        }
        swapper.join().expect("swapper");
    });
    let elapsed = start.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let closed = PhaseReport {
        name: "closed_loop",
        requests: latencies.len() as u64,
        elapsed_secs: elapsed,
        p50: percentile(&latencies, 50.0),
        p99: percentile(&latencies, 99.0),
        p999: percentile(&latencies, 99.9),
        shed: shed_seen.load(SeqCst),
        rejected: rejected_seen.load(SeqCst),
        generations_seen: generation_mask.load(SeqCst).count_ones() as usize,
    };

    // ---- Phase 2: open-loop burst into forced saturation -------------
    let start = Instant::now();
    let mut burst_latencies: Vec<u64> = Vec::with_capacity(burst_total);
    let mut burst_shed = 0u64;
    let mut burst_rejected = 0u64;
    let burst_begin = Instant::now();
    let tickets: Vec<_> = (0..burst_total)
        .map(|i| serve.submit(ServeRequest::from_graph(pool[i % pool.len()].clone())))
        .collect();
    for ticket in tickets {
        let done = ticket.wait();
        burst_latencies.push(burst_begin.elapsed().as_micros() as u64);
        if done.response.was_shed() {
            burst_shed += 1;
        }
        if done.response.error().is_some() {
            burst_rejected += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    burst_latencies.sort_unstable();
    let stats = serve.metrics();
    let open = PhaseReport {
        name: "open_loop_saturation",
        requests: burst_latencies.len() as u64,
        elapsed_secs: elapsed,
        p50: percentile(&burst_latencies, 50.0),
        p99: percentile(&burst_latencies, 99.0),
        p999: percentile(&burst_latencies, 99.9),
        shed: burst_shed,
        rejected: burst_rejected,
        generations_seen: closed.generations_seen,
    };

    // ---- Report + invariant checks -----------------------------------
    for phase in [&closed, &open] {
        println!(
            "{:22} {:>9} req in {:7.2}s = {:>9.0} req/s   p50 {:>7}µs  p99 {:>7}µs  p999 {:>7}µs  shed {:>7}  rejected {}",
            phase.name,
            phase.requests,
            phase.elapsed_secs,
            phase.throughput(),
            phase.p50,
            phase.p99,
            phase.p999,
            phase.shed,
            phase.rejected,
        );
    }
    println!(
        "swaps {} (generations observed in responses: {}), queue max depth {} (capacity 512), \
         totals: served {} shed {} rejected {}, served inline on the caller's thread {}",
        stats.generation,
        closed.generations_seen,
        stats.max_depth,
        stats.served,
        stats.shed,
        stats.rejected,
        stats.served_inline,
    );

    let total_expected = (per_thread * submitters + burst_total) as u64;
    if stats.total() != total_expected {
        return fail(&format!(
            "dropped requests: {} answered of {} submitted",
            stats.total(),
            total_expected
        ));
    }
    if stats.rejected != 0 {
        return fail(&format!("{} requests rejected; expected 0", stats.rejected));
    }
    if stats.generation != swaps as u64 {
        return fail(&format!(
            "{} swaps succeeded of {swaps} attempted",
            stats.generation
        ));
    }
    if swaps > 0 && closed.generations_seen < 2 {
        return fail("no response was served from a post-swap generation (swap not mid-traffic)");
    }
    if stats.max_depth > 512 {
        return fail(&format!(
            "queue exceeded its bound: max depth {}",
            stats.max_depth
        ));
    }
    if burst_total > 2_000 && open.shed == 0 {
        return fail("open-loop burst never shed; saturation path unexercised");
    }

    // ---- CSV ---------------------------------------------------------
    let dir = std::path::Path::new("target/experiments");
    let _ = std::fs::create_dir_all(dir);
    let csv = dir.join(format!("serve_load_{cores}core.csv"));
    let mut out = String::from(
        "phase,requests,elapsed_s,throughput_rps,p50_us,p99_us,p999_us,shed,rejected,swaps,max_depth\n",
    );
    for phase in [&closed, &open] {
        out.push_str(&format!(
            "{},{},{:.3},{:.0},{},{},{},{},{},{},{}\n",
            phase.name,
            phase.requests,
            phase.elapsed_secs,
            phase.throughput(),
            phase.p50,
            phase.p99,
            phase.p999,
            phase.shed,
            phase.rejected,
            stats.generation,
            stats.max_depth,
        ));
    }
    if let Err(e) = std::fs::write(&csv, out) {
        return fail(&format!("writing {}: {e}", csv.display()));
    }
    println!("wrote {}", csv.display());
    println!(
        "serve_load OK: zero drops, zero rejections, {} mid-traffic swaps",
        stats.generation
    );
    ExitCode::SUCCESS
}
