//! Hit-rate / speedup bench for the canonical-form prediction cache.
//!
//! Replays one pre-generated Zipf-distributed request stream (a few
//! graph shapes dominate, a long tail of rarer ones — the shape of
//! production optimizer traffic, where clients re-ask popular instances)
//! through two otherwise identical [`qaoa_gnn::ServeLoop`]s:
//!
//! 1. **cache off** — the `LoopConfig::default()` baseline; every
//!    request runs the full ladder.
//! 2. **cache on** — `CacheConfig::default()` in front of the GNN rung;
//!    repeats of a canonical form are served from memory.
//!
//! Both phases run `workers = 1` and closed-loop `handle_wait`, so the
//! reply stream is deterministic and an FNV-1a digest over every reply's
//! angle bits + rung can prove the tentpole guarantee end to end: the
//! cache changes *when* work happens, never *which bits* are served.
//! The `cached` marker is excluded from the digest — it is the one field
//! a hit is allowed to differ in.
//!
//! ```text
//! cargo run --release -p qaoa-gnn-bench --bin cache_hit            # 200k requests
//! cargo run --release -p qaoa-gnn-bench --bin cache_hit -- --smoke # CI-sized
//! ```
//!
//! Flags: `--requests N` (default 200_000, smoke 4_000), `--pool N`
//! distinct canonical forms (default 48), `--smoke`. Appends a CSV row
//! per phase to `target/experiments/cache_hit_<cores>core.csv`.

use std::process::ExitCode;
use std::time::Instant;

use gnn::train::TrainHistory;
use gnn::{GnnKind, GnnModel};
use qaoa_gnn::dataset::LabelReport;
use qaoa_gnn::pipeline::PipelineConfig;
use qaoa_gnn::serve::ServeRequest;
use qaoa_gnn::serve_loop::{LoopConfig, ServeLoop};
use qaoa_gnn::store::{fnv1a_extend, FNV1A_OFFSET};
use qaoa_gnn::{CacheConfig, RunArtifact, TrainingEnvelope};
use qaoa_gnn_bench::parse_flag;
use qgraph::Graph;
use qrand::rngs::StdRng;
use qrand::{Rng, SeedableRng};

fn fail(msg: &str) -> ExitCode {
    eprintln!("FAIL: {msg}");
    ExitCode::FAILURE
}

fn artifact() -> RunArtifact {
    let mut rng = StdRng::seed_from_u64(4242);
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
        dataset_fingerprint: 4242,
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

/// `pool_size` distinct in-envelope canonical forms: structured shapes
/// first (the popular head), Erdős–Rényi instances for the tail.
///
/// The pool is deduped up to isomorphism (e.g. `star(3)` ≅ `path(3)`).
/// This matters for the digest: an isomorphic lookup legitimately serves
/// the *representative's* memoized bits, which can differ in the last
/// float bit from a fresh forward pass on the query's own node labeling
/// (summation order). Digest parity is the exact-replay guarantee, so
/// the replayed pool must be isomorphism-free.
fn graph_pool(pool_size: usize) -> Vec<Graph> {
    use qgraph::canon::{are_isomorphic_with, Fingerprint};

    let mut pool: Vec<(Graph, Fingerprint)> = Vec::new();
    let push_unique = |pool: &mut Vec<(Graph, Fingerprint)>, candidate: Graph| {
        let print = Fingerprint::of(&candidate);
        let duplicate = pool
            .iter()
            .any(|(g, p)| are_isomorphic_with(g, p, &candidate, &print));
        if !duplicate {
            pool.push((candidate, print));
        }
    };
    for n in 3..=12usize {
        push_unique(&mut pool, Graph::cycle(n).expect("cycle"));
        push_unique(&mut pool, Graph::path(n).expect("path"));
        push_unique(&mut pool, Graph::star(n).expect("star"));
    }
    let mut rng = StdRng::seed_from_u64(515);
    let mut attempts = 0;
    while pool.len() < pool_size && attempts < pool_size * 20 {
        let n = 5 + (attempts % 8);
        push_unique(
            &mut pool,
            qgraph::generate::erdos_renyi(n, 0.5, &mut rng).expect("gnp"),
        );
        attempts += 1;
    }
    pool.truncate(pool_size);
    pool.into_iter().map(|(g, _)| g).collect()
}

/// A Zipf(s = 1.1) index stream over `pool_size` ranks: rank r is drawn
/// with probability ∝ 1/r^1.1.
fn zipf_stream(pool_size: usize, requests: usize, seed: u64) -> Vec<usize> {
    let weights: Vec<f64> = (1..=pool_size).map(|r| 1.0 / (r as f64).powf(1.1)).collect();
    let total: f64 = weights.iter().sum();
    let mut cumulative = Vec::with_capacity(pool_size);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cumulative.push(acc);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    (0..requests)
        .map(|_| {
            let u: f64 = rng.gen();
            cumulative.partition_point(|&c| c < u).min(pool_size - 1)
        })
        .collect()
}

struct Phase {
    name: &'static str,
    elapsed_secs: f64,
    digest: u64,
    hit_rate: f64,
}

/// Replays the stream through one loop configuration and digests every
/// reply's bits (angles + rung quality, `cached` marker excluded).
fn run_phase(name: &'static str, config: LoopConfig, pool: &[Graph], stream: &[usize]) -> Phase {
    let serve = ServeLoop::new(artifact(), config);
    let mut digest = FNV1A_OFFSET;
    let start = Instant::now();
    for &index in stream {
        let done = serve.handle_wait(ServeRequest::from_graph(pool[index].clone()));
        let outcome = done.response.result.expect("in-envelope request serves");
        let (gamma, beta) = outcome.angles();
        digest = fnv1a_extend(digest, &gamma.to_bits().to_le_bytes());
        digest = fnv1a_extend(digest, &beta.to_bits().to_le_bytes());
        digest = fnv1a_extend(digest, &u64::from(outcome.rung.quality()).to_le_bytes());
    }
    let elapsed_secs = start.elapsed().as_secs_f64();
    let hit_rate = serve.cache_stats().hit_rate();
    Phase { name, elapsed_secs, digest, hit_rate }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let requests = parse_flag(&args, "--requests").unwrap_or(if smoke { 4_000 } else { 200_000 });
    let pool_size = parse_flag(&args, "--pool").unwrap_or(48).max(1);
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);

    let pool = graph_pool(pool_size);
    let stream = zipf_stream(pool.len(), requests, 2024);
    println!(
        "cache_hit: {requests} Zipf requests over {} canonical forms, workers=1, {cores} core(s)",
        pool.len()
    );

    // Single worker: the reply stream is then a deterministic function of
    // the request stream, making digest parity a meaningful assertion.
    let base = LoopConfig::default().with_workers(1).with_batch_size(8);
    let off = run_phase("cache_off", base.clone(), &pool, &stream);
    let on = run_phase(
        "cache_on",
        base.with_cache(CacheConfig::default()),
        &pool,
        &stream,
    );

    let speedup = off.elapsed_secs / on.elapsed_secs.max(1e-9);
    for phase in [&off, &on] {
        println!(
            "{:10} {:>8} req in {:7.2}s = {:>9.0} req/s   hit-rate {:5.1}%   digest {:016x}",
            phase.name,
            requests,
            phase.elapsed_secs,
            requests as f64 / phase.elapsed_secs,
            phase.hit_rate * 100.0,
            phase.digest,
        );
    }
    println!("speedup {speedup:.2}x (single-core, single-worker; see EXPERIMENTS.md caveat)");

    if on.digest != off.digest {
        return fail(&format!(
            "reply digests diverge: cache_off {:016x} vs cache_on {:016x} — cached bits are not \
             identical to fresh bits",
            off.digest, on.digest
        ));
    }
    if on.hit_rate <= 0.0 {
        return fail("cache hit rate is zero on a Zipf replay; the cache never engaged");
    }
    if off.hit_rate != 0.0 {
        return fail("baseline loop reported cache hits; the off phase is miswired");
    }

    let dir = std::path::Path::new("target/experiments");
    let _ = std::fs::create_dir_all(dir);
    let csv = dir.join(format!("cache_hit_{cores}core.csv"));
    let mut out =
        String::from("phase,requests,pool,elapsed_s,throughput_rps,hit_rate,digest,speedup_vs_off\n");
    for phase in [&off, &on] {
        out.push_str(&format!(
            "{},{},{},{:.3},{:.0},{:.4},{:016x},{:.3}\n",
            phase.name,
            requests,
            pool.len(),
            phase.elapsed_secs,
            requests as f64 / phase.elapsed_secs,
            phase.hit_rate,
            phase.digest,
            off.elapsed_secs / phase.elapsed_secs.max(1e-9),
        ));
    }
    if let Err(e) = std::fs::write(&csv, out) {
        return fail(&format!("writing {}: {e}", csv.display()));
    }
    println!("wrote {}", csv.display());
    println!("cache_hit OK: digest parity, hit-rate {:.1}%", on.hit_rate * 100.0);
    ExitCode::SUCCESS
}
