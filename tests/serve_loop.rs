//! The concurrent serving loop under fire: text-vs-graph payload parity
//! on a trained artifact, load shedding at the watermark / capacity /
//! deadline boundaries, per-request degradation (a GNN failure on one
//! graph never degrades another), mid-traffic hot-swap correctness (no
//! torn or stale artifact, old generation keeps serving on a refused
//! swap), the `admission` and `hot_swap` failpoints, and the zero-drop
//! shutdown contract. The published generation sits behind a std `Mutex`, so
//! these tests check the protocol around it: generations never go
//! backwards for a caller, and racing swaps publish in numbering order.

use qrand::rngs::StdRng;
use qrand::SeedableRng;

use gnn::train::{TrainConfig, TrainHistory};
use gnn::{GnnKind, GnnModel};
use qaoa_gnn::dataset::{LabelConfig, LabelReport};
use qaoa_gnn::faults::{self, FaultAction, FaultSchedule};
use qaoa_gnn::pipeline::{Pipeline, PipelineConfig};
use qaoa_gnn::serve::{Priority, RequestError, ServeRequest, SkipReason};
use qaoa_gnn::serve_loop::{LoopConfig, ServeLoop, SwapError, Ticket};
use qaoa_gnn::{GuardedPredictor, RunArtifact, Rung, ServeConfig, TrainingEnvelope};
use qgraph::generate::DatasetSpec;
use qgraph::Graph;

/// A cheap valid artifact whose weights depend on `seed`; the wide
/// envelope keeps every test graph in-envelope.
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

fn small_loop(queue_capacity: usize, shed_watermark: usize) -> ServeLoop {
    ServeLoop::new(
        artifact(8101),
        LoopConfig::default()
            .with_workers(2)
            .with_queue_capacity(queue_capacity)
            .with_shed_watermark(shed_watermark)
            .with_batch_size(8),
    )
}

// ---------------------------------------------------------------- parity

/// The acceptance criterion: a text payload is bit-identical to the same
/// graph sent pre-built, on a *real trained* artifact, not just the cheap
/// fixture.
#[test]
fn handle_is_bit_identical_to_legacy_paths_on_trained_artifact() {
    let mut rng = StdRng::seed_from_u64(8201);
    let config = PipelineConfig::paper_scale()
        .with_dataset(DatasetSpec::with_count(24))
        .with_training(TrainConfig::quick(4))
        .with_test_size(6);
    let config = PipelineConfig {
        labeling: LabelConfig::quick(30),
        ..config
    };
    let pipeline = Pipeline::run(GnnKind::Gcn, &config, &mut rng);
    let served = GuardedPredictor::new(pipeline.to_artifact(&config), ServeConfig::default());

    for n in [4usize, 6, 9, 12] {
        let graph = Graph::cycle(n).unwrap();
        let text = qgraph::io::graph_to_string(&graph);
        let from_graph = served
            .handle(&ServeRequest::from_graph(graph))
            .result
            .unwrap();
        let from_text = served.handle(&ServeRequest::from_text(text)).result.unwrap();
        assert_eq!(from_text, from_graph, "text and graph payloads diverged at n={n}");
        let (gg, gb) = from_graph.angles();
        let (tg, tb) = from_text.angles();
        assert_eq!(gg.to_bits(), tg.to_bits());
        assert_eq!(gb.to_bits(), tb.to_bits());
    }
}

// ----------------------------------------------------------- shed ladder

#[test]
fn shed_requests_report_skip_reason_and_valid_fixed_angles() {
    let served = GuardedPredictor::new(artifact(8401), ServeConfig::default());
    let response = served.handle_shed(&ServeRequest::from_graph(Graph::cycle(8).unwrap()), 41);
    let outcome = response.result.unwrap();
    assert_eq!(outcome.rung, Rung::FixedAngle);
    assert_eq!(
        outcome.skips[0].reason,
        SkipReason::Shed { queue_depth: 41 }
    );
    let (gamma, beta) = outcome.angles();
    assert!(gamma.is_finite() && (0.0..=std::f64::consts::TAU).contains(&gamma));
    assert!(beta.is_finite() && (0.0..=std::f64::consts::FRAC_PI_2).contains(&beta));
    assert!(outcome.was_shed());
    // The shed answer is the same fixed-angle answer the full ladder would
    // give when the GNN rung is down — degraded, not wrong.
    let _fault = faults::armed(faults::FORWARD, FaultAction::Nan, 1);
    let degraded = served
        .handle(&ServeRequest::from_graph(Graph::cycle(8).unwrap()))
        .result
        .unwrap();
    assert_eq!(degraded.rung, Rung::FixedAngle);
    let (dg, db) = degraded.angles();
    assert_eq!(dg.to_bits(), gamma.to_bits());
    assert_eq!(db.to_bits(), beta.to_bits());
}

#[test]
fn watermark_sheds_normal_but_not_high_priority() {
    // Watermark 0: every Normal admission is marked to shed; High keeps
    // the full ladder until hard capacity.
    let serve = small_loop(64, 0);
    let normal = serve.handle_wait(ServeRequest::from_graph(Graph::cycle(6).unwrap()));
    let outcome = normal.response.result.as_ref().unwrap();
    assert!(
        outcome.skips.iter().any(|s| matches!(s.reason, SkipReason::Shed { .. })),
        "normal-priority request above the watermark must shed: {outcome:?}"
    );
    let high = serve.handle_wait(
        ServeRequest::from_graph(Graph::cycle(6).unwrap()).with_priority(Priority::High),
    );
    let outcome = high.response.result.as_ref().unwrap();
    assert_eq!(outcome.rung, Rung::Gnn, "high priority keeps the full ladder");
    assert!(!outcome.was_shed());
}

#[test]
fn hard_capacity_sheds_inline_and_bounds_the_queue() {
    // One worker, capacity 4: a burst of submissions must overflow into
    // inline Ready sheds, and the queue depth must never exceed capacity.
    let serve = ServeLoop::new(
        artifact(8501),
        LoopConfig::default()
            .with_workers(1)
            .with_queue_capacity(4)
            .with_shed_watermark(4)
            .with_batch_size(4),
    );
    let tickets: Vec<Ticket> = (0..64)
        .map(|_| serve.submit(ServeRequest::from_graph(Graph::cycle(10).unwrap())))
        .collect();
    let inline_sheds = tickets
        .iter()
        .filter(|t| matches!(t, Ticket::Ready(_)))
        .count();
    assert!(inline_sheds > 0, "burst of 64 into capacity 4 must shed inline");
    let mut answered = 0;
    for ticket in tickets {
        let done = ticket.wait();
        assert!(done.response.result.is_ok());
        answered += 1;
    }
    assert_eq!(answered, 64, "every request gets exactly one reply");
    let stats = serve.metrics();
    assert_eq!(stats.total(), 64);
    assert!(stats.shed as usize >= inline_sheds);
    assert!(stats.max_depth <= 4, "queue exceeded its bound: {}", stats.max_depth);
}

#[test]
fn expired_deadline_sheds_at_execution_time() {
    // One worker, slow lane: queue 32 patient requests, then one with a
    // zero deadline behind them. By the time a worker reaches it, it has
    // waited far longer than 0µs and must shed.
    let serve = ServeLoop::new(
        artifact(8601),
        LoopConfig::default()
            .with_workers(1)
            .with_queue_capacity(256)
            .with_shed_watermark(256)
            .with_batch_size(4),
    );
    let patient: Vec<Ticket> = (0..32)
        .map(|_| serve.submit(ServeRequest::from_graph(Graph::cycle(12).unwrap())))
        .collect();
    let deadline = serve.submit(
        ServeRequest::from_graph(Graph::cycle(6).unwrap()).with_deadline_micros(0),
    );
    let done = deadline.wait();
    let outcome = done.response.result.unwrap();
    assert!(
        outcome.skips.iter().any(|s| matches!(s.reason, SkipReason::Shed { .. })),
        "expired deadline must shed: {outcome:?}"
    );
    for ticket in patient {
        assert!(ticket.wait().response.result.is_ok());
    }
}

// ------------------------------------------------- per-request degradation

/// On an artifact without an envelope, a 16-node graph reaches the frozen
/// forward, whose one-hot block holds 15 nodes, and the GNN rung panics
/// for that request. The 10-node graphs interleaved with them must still
/// be answered cleanly by the GNN, with the bits a standalone predictor
/// gives: a failure belongs to its own request, never to the loop.
#[test]
fn gnn_failures_on_some_requests_do_not_degrade_the_others() {
    // Scheduled faults fire on any tagged thread: hold the fault lock so
    // no other test's schedule reaches this loop's worker.
    let _quiet = faults::arm_schedule(FaultSchedule::new());
    let mut bare = artifact(9601);
    bare.envelope = None;
    let standalone = GuardedPredictor::new(bare.clone(), ServeConfig::default());
    let expected = standalone
        .handle(&ServeRequest::from_graph(Graph::cycle(10).unwrap()))
        .result
        .unwrap();
    assert!(expected.is_clean());
    let serve = ServeLoop::new(bare, LoopConfig::default().with_workers(1));
    let mut small = 0;
    for i in 0..50u64 {
        let n = if i % 5 < 3 { 16 } else { 10 };
        let done = serve.handle_wait(ServeRequest::from_graph(Graph::cycle(n).unwrap()));
        let outcome = done.response.result.expect("every request is answered");
        if n == 16 {
            assert_eq!(outcome.rung, Rung::FixedAngle, "request {i}");
            assert_eq!(outcome.skips[0].reason, SkipReason::Panicked, "request {i}");
            continue;
        }
        small += 1;
        assert!(outcome.is_clean(), "request {i}: {}", outcome.summary());
        let ((g, b), (eg, eb)) = (outcome.angles(), expected.angles());
        assert_eq!((g.to_bits(), b.to_bits()), (eg.to_bits(), eb.to_bits()));
        assert_eq!(outcome, expected, "request {i}");
    }
    assert_eq!(small, 20);
}

// ------------------------------------------------------------- hot swap

/// Mid-traffic hot-swap stress: submitters hammer the loop while the test
/// thread swaps artifacts. Every request must complete with a valid
/// outcome (no torn or stale-freed artifact — a torn artifact would panic
/// a worker and surface as `RequestError::Internal`), observed
/// generations must never exceed the published one, and at least one
/// response must come from a post-swap generation.
#[test]
fn hot_swap_under_traffic_never_tears_and_rolls_generations_forward() {
    let serve = ServeLoop::new(
        artifact(8701),
        LoopConfig::default()
            .with_workers(3)
            .with_queue_capacity(512)
            .with_shed_watermark(512)
            .with_batch_size(4)
            .with_serve(ServeConfig::default().with_verify_max_nodes(0)),
    );
    const SWAPS: u64 = 8;
    const REQUESTS: usize = 600;
    let max_seen = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..2)
            .map(|t| {
                let serve = &serve;
                let max_seen = &max_seen;
                scope.spawn(move || {
                    let mut last = 0;
                    for i in 0..REQUESTS {
                        let n = 3 + (t + i) % 10;
                        let done =
                            serve.handle_wait(ServeRequest::from_graph(Graph::cycle(n).unwrap()));
                        let outcome = done.response.result.expect("every request serves");
                        let (gamma, beta) = outcome.angles();
                        assert!(gamma.is_finite() && beta.is_finite());
                        assert!(
                            done.generation <= serve.generation(),
                            "response claims a generation never published"
                        );
                        // Each request is enqueued after the previous one
                        // was answered, and the worker reads the published
                        // generation after claiming it: no going back.
                        assert!(
                            done.generation >= last,
                            "generation went backwards: {last} then {}",
                            done.generation
                        );
                        last = done.generation;
                        max_seen.fetch_max(done.generation, std::sync::atomic::Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for i in 0..SWAPS {
            let generation = serve.swap_artifact(artifact(8800 + i)).expect("swap");
            assert_eq!(generation, i + 1, "generations are sequential");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        for handle in submitters {
            handle.join().expect("submitter");
        }
    });
    let stats = serve.metrics();
    assert_eq!(stats.swaps, SWAPS);
    assert_eq!(stats.generation, SWAPS);
    assert_eq!(stats.total(), 2 * REQUESTS as u64);
    assert_eq!(stats.rejected, 0, "no request was refused or torn");
    assert!(
        max_seen.load(std::sync::atomic::Ordering::SeqCst) >= 1,
        "no response was served from a post-swap generation"
    );
}

#[test]
fn concurrent_swappers_publish_generations_in_order() {
    let serve = small_loop(64, 64);
    const PER_SWAPPER: u64 = 8;
    const SWAPS: u64 = 2 * PER_SWAPPER;
    let mut drawn: Vec<u64> = std::thread::scope(|scope| {
        let swappers: Vec<_> = (0..2)
            .map(|t| {
                let serve = &serve;
                scope.spawn(move || {
                    (0..PER_SWAPPER)
                        .map(|i| {
                            let seed = 9100 + t * PER_SWAPPER + i;
                            serve.swap_artifact(artifact(seed)).expect("swap")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        swappers
            .into_iter()
            .flat_map(|handle| handle.join().expect("swapper"))
            .collect()
    });
    drawn.sort_unstable();
    assert_eq!(drawn, (1..=SWAPS).collect::<Vec<_>>());
    assert_eq!(serve.generation(), SWAPS);
    assert_eq!(serve.metrics().swaps, SWAPS);
    let done = serve.handle_wait(ServeRequest::from_graph(Graph::cycle(7).unwrap()));
    assert_eq!(
        done.generation, SWAPS,
        "the last generation drawn is the one serving"
    );
}

#[test]
fn swap_rejects_invalid_artifact_and_old_generation_keeps_serving() {
    let serve = small_loop(64, 64);
    // Corrupt weights: drop a matrix so the model cannot rebuild.
    let mut broken = artifact(8901);
    broken.weights.params.pop();
    match serve.swap_artifact(broken) {
        Err(SwapError::Rejected(_)) => {}
        other => panic!("expected Rejected, got {other:?}"),
    }
    assert_eq!(serve.generation(), 0, "failed swap must not bump the generation");
    let done = serve.handle_wait(ServeRequest::from_graph(Graph::cycle(7).unwrap()));
    assert_eq!(done.generation, 0);
    assert_eq!(done.response.result.unwrap().rung, Rung::Gnn);
}

#[test]
fn hot_swap_failpoint_refuses_and_contains_panics() {
    let serve = small_loop(64, 64);
    {
        let _fault = faults::armed(faults::HOT_SWAP, FaultAction::Error, 1);
        match serve.swap_artifact(artifact(9001)) {
            Err(SwapError::Rejected(e)) => assert!(e.contains("hot_swap")),
            other => panic!("expected Rejected, got {other:?}"),
        }
    }
    {
        let _fault = faults::armed(faults::HOT_SWAP, FaultAction::Panic, 1);
        match serve.swap_artifact(artifact(9002)) {
            Err(SwapError::Panicked(_)) => {}
            other => panic!("expected Panicked, got {other:?}"),
        }
    }
    assert_eq!(serve.generation(), 0);
    // Disarmed: the same artifact swaps in cleanly, mid-session, and the
    // new generation's GNN serves.
    assert_eq!(serve.swap_artifact(artifact(9003)).unwrap(), 1);
    let done = serve.handle_wait(ServeRequest::from_graph(Graph::cycle(7).unwrap()));
    assert_eq!(done.generation, 1);
    assert_eq!(done.response.result.unwrap().rung, Rung::Gnn);
}

#[test]
fn admission_failpoint_refuses_with_typed_error() {
    let serve = small_loop(64, 64);
    {
        let _fault = faults::armed(faults::ADMISSION, FaultAction::Error, 1);
        let done = serve
            .submit(ServeRequest::from_graph(Graph::cycle(5).unwrap()))
            .wait();
        match done.response.result {
            Err(RequestError::Admission(e)) => assert!(e.contains("admission")),
            other => panic!("expected Admission error, got {other:?}"),
        }
    }
    {
        let _fault = faults::armed(faults::ADMISSION, FaultAction::Panic, 1);
        let done = serve
            .submit(ServeRequest::from_graph(Graph::cycle(5).unwrap()))
            .wait();
        match done.response.result {
            Err(RequestError::Admission(e)) => assert!(e.contains("contained")),
            other => panic!("expected contained Admission panic, got {other:?}"),
        }
    }
    // Disarmed: serves normally; the two refusals were counted, not lost.
    let done = serve.handle_wait(ServeRequest::from_graph(Graph::cycle(5).unwrap()));
    assert!(done.response.result.is_ok());
    assert_eq!(serve.metrics().rejected, 2);
    assert_eq!(serve.metrics().total(), 3);
}

// ------------------------------------------------------------- shutdown

#[test]
fn shutdown_drains_every_queued_request() {
    let tickets: Vec<Ticket>;
    {
        let serve = ServeLoop::new(
            artifact(9101),
            LoopConfig::default()
                .with_workers(1)
                .with_queue_capacity(512)
                .with_shed_watermark(512)
                .with_batch_size(8),
        );
        tickets = (0..100)
            .map(|i| serve.submit(ServeRequest::from_graph(Graph::cycle(3 + i % 8).unwrap())))
            .collect();
        // `serve` drops here with most of the queue still pending.
    }
    for ticket in tickets {
        let done = ticket.wait();
        assert!(
            done.response.result.is_ok(),
            "request dropped or failed at shutdown: {:?}",
            done.response.result
        );
    }
}

// ------------------------------------------------- rejections still typed

#[test]
fn loop_propagates_typed_rejections_and_floor_refusals() {
    let serve = small_loop(64, 64);
    // Hostile text through the loop: typed parse rejection, line number intact.
    let done = serve.handle_wait(ServeRequest::from_text("n 3\ne 0 1 nan\n"));
    match done.response.result {
        Err(RequestError::Parse(e)) => assert_eq!(e.line, 2),
        other => panic!("expected Parse rejection, got {other:?}"),
    }
    // A Gnn rung floor on a model-down loop: typed BelowFloor refusal.
    // (Guard-armed failpoints are thread-gated and cannot reach the worker
    // threads, so model-down is forced structurally: an artifact whose
    // weights cannot rebuild disables the GNN rung in every worker.)
    let mut headless = artifact(9401);
    headless.weights.params.pop();
    let serve = ServeLoop::new(
        headless,
        LoopConfig::default().with_workers(1).with_batch_size(4),
    );
    let done = serve.handle_wait(
        ServeRequest::from_graph(Graph::cycle(6).unwrap()).with_rung_floor(Rung::Gnn),
    );
    match done.response.result {
        Err(RequestError::BelowFloor { served, floor }) => {
            assert_eq!(served, Rung::FixedAngle);
            assert_eq!(floor, Rung::Gnn);
        }
        other => panic!("expected BelowFloor, got {other:?}"),
    }
}

// --------------------------------------------------------- publish hook

#[test]
fn pipeline_publish_hot_swaps_trained_model_into_live_loop() {
    let serve = ServeLoop::new(
        artifact(9201),
        LoopConfig::default().with_workers(1).with_batch_size(4),
    );
    assert_eq!(serve.generation(), 0);
    let mut rng = StdRng::seed_from_u64(9301);
    let config = PipelineConfig::paper_scale()
        .with_dataset(DatasetSpec::with_count(16))
        .with_training(TrainConfig::quick(3))
        .with_test_size(4);
    let config = PipelineConfig {
        labeling: LabelConfig::quick(20),
        ..config
    };
    let pipeline = Pipeline::run(GnnKind::Gcn, &config, &mut rng);
    let generation = pipeline.publish(&config, &serve).expect("publish");
    assert_eq!(generation, 1);
    // The freshly published model answers — bit-identical to serving it
    // through a standalone predictor built from the same artifact.
    let graph = Graph::cycle(8).unwrap();
    let done = serve.handle_wait(ServeRequest::from_graph(graph.clone()));
    assert_eq!(done.generation, 1);
    let loop_outcome = done.response.result.unwrap();
    let standalone = GuardedPredictor::new(pipeline.to_artifact(&config), ServeConfig::default());
    let direct = standalone
        .handle(&ServeRequest::from_graph(graph))
        .result
        .unwrap();
    assert_eq!(loop_outcome, direct);
}

// ------------------------------------------------- canonical-form cache

/// Hot-swap invalidation protocol: warming the cache, swapping the
/// artifact, and re-asking the same graph must re-run the ladder against
/// the *new* generation — never serve the old generation's memoized
/// reply — and then re-warm normally.
#[test]
fn hot_swap_empties_cache_and_next_request_misses_on_new_artifact() {
    use qaoa_gnn::CacheConfig;
    let serve = ServeLoop::new(
        artifact(9401),
        LoopConfig::default()
            .with_workers(1)
            .with_batch_size(4)
            .with_cache(CacheConfig::default()),
    );
    let graph = Graph::cycle(8).unwrap();

    let fresh = serve
        .handle_wait(ServeRequest::from_graph(graph.clone()))
        .response
        .result
        .unwrap();
    assert!(!fresh.cached);
    let warm = serve
        .handle_wait(ServeRequest::from_graph(graph.clone()))
        .response
        .result
        .unwrap();
    assert!(warm.cached, "second identical request must hit");

    serve.swap_artifact(artifact(9402)).expect("swap");
    let stats = serve.cache_stats();
    assert_eq!(stats.entries, 0, "swap must empty the cache eagerly");
    assert!(stats.invalidations >= 1);

    let after = serve.handle_wait(ServeRequest::from_graph(graph.clone()));
    assert_eq!(after.generation, 1);
    let after = after.response.result.unwrap();
    assert!(!after.cached, "post-swap request must miss");
    // Different weights, different prediction: proof the miss was served
    // by the new artifact rather than a resurrected entry.
    assert_ne!(after.angles(), fresh.angles());
    let rewarmed = serve
        .handle_wait(ServeRequest::from_graph(graph))
        .response
        .result
        .unwrap();
    assert!(rewarmed.cached, "the new generation re-warms normally");
    assert_eq!(
        {
            let mut unmarked = rewarmed;
            unmarked.cached = false;
            unmarked
        },
        after
    );
}

/// Churn through the live loop: far more distinct graphs than the cache
/// holds. The LRU must stay inside both configured bounds at all times
/// while evicting, and replays of recent graphs must still hit.
#[test]
fn cache_churn_through_loop_respects_bounds_and_keeps_recency() {
    use qaoa_gnn::CacheConfig;
    const CAPACITY: usize = 8;
    let serve = ServeLoop::new(
        artifact(9501),
        LoopConfig::default()
            .with_workers(2)
            .with_batch_size(4)
            .with_cache(
                CacheConfig::default()
                    .with_shards(2)
                    .with_capacity_entries(CAPACITY),
            ),
    );
    let max_bytes = CacheConfig::default().max_bytes;
    // 3..=14 nodes × {cycle, path, star, complete} = 48 distinct
    // canonical forms churned twice.
    let mut graphs = Vec::new();
    for n in 3..=14usize {
        graphs.push(Graph::cycle(n).unwrap());
        graphs.push(Graph::path(n).unwrap());
        graphs.push(Graph::star(n).unwrap());
        graphs.push(Graph::complete(n).unwrap());
    }
    for round in 0..2 {
        for graph in &graphs {
            let outcome = serve
                .handle_wait(ServeRequest::from_graph(graph.clone()))
                .response
                .result
                .unwrap();
            let _ = (round, outcome);
            let stats = serve.cache_stats();
            assert!(
                stats.entries <= CAPACITY,
                "entry bound violated: {} > {CAPACITY}",
                stats.entries
            );
            assert!(
                stats.resident_bytes <= max_bytes,
                "byte bound violated: {} > {max_bytes}",
                stats.resident_bytes
            );
        }
    }
    let stats = serve.cache_stats();
    assert!(stats.evictions > 0, "churn this size must evict");
    assert!(stats.inserts > CAPACITY as u64);

    // The most recent CAPACITY/shard survivors are the recently-used
    // tail of the churn: replaying the very last graph must hit.
    let last = graphs.last().unwrap().clone();
    let replay = serve
        .handle_wait(ServeRequest::from_graph(last))
        .response
        .result
        .unwrap();
    assert!(replay.cached, "the most recently inserted graph must survive LRU");
}
