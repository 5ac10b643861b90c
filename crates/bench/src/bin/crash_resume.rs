//! Process-level SIGKILL chaos harness for the crash-safe pipeline.
//!
//! Proves the tentpole claim of the checkpointed training stack end to
//! end, at the only level that actually demonstrates crash safety: whole
//! processes dying. The harness
//!
//! 1. runs the real pipeline as a subprocess to completion (the
//!    **control**) and stashes its artifact bytes,
//! 2. wipes the work directory and re-runs the same pipeline as a
//!    sequence of subprocesses, SIGKILLing each one at a scripted
//!    wall-phase — mid-label, mid-epoch, mid-checkpoint-write (inside the
//!    atomic write protocol, tmp file on disk, rename not yet issued),
//!    and mid-artifact-save — relaunching with the same checkpoint
//!    directory after every kill,
//! 3. lets a final relaunch run to completion and asserts the surviving
//!    artifact is **byte-identical** to the control.
//!
//! The mid-write phases are made deterministic with the `stall` fault
//! action: `QAOA_GNN_FAULTS="checkpoint_write=stall:1"` parks the child
//! between tmp-flush and rename, the parent waits for the tmp file to
//! appear, then kills into the window. No sleeps-and-hope.
//!
//! ```text
//! cargo run --release -p qaoa-gnn-bench --bin crash_resume            # full
//! cargo run --release -p qaoa-gnn-bench --bin crash_resume -- --smoke # CI-sized
//! ```
//!
//! Flags: `--smoke` (smaller run, same phases), `--seed N` (kill-jitter
//! schedule seed, default 42). Exit code 0 only if every phase behaved
//! and the final artifact matches the control bit for bit.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use gnn::train::TrainConfig;
use gnn::GnnKind;
use qaoa_gnn::pipeline::{Pipeline, PipelineConfig};
use qaoa_gnn::store::fnv1a;
use qgraph::generate::DatasetSpec;
use qrand::rngs::StdRng;
use qrand::{Rng, SeedableRng};

const ARTIFACT_FILE: &str = "artifact.json";
const DEFAULT_SEED: u64 = 42;
/// Stall budget handed to children: far longer than the parent needs to
/// observe the marker and kill, so the kill always lands inside the window.
const CHILD_STALL_MS: &str = "120000";

fn fail(msg: &str) -> ExitCode {
    eprintln!("FAIL: {msg}");
    ExitCode::FAILURE
}

/// The run every subprocess executes: one GCN pipeline with labeling
/// journal, training checkpoints, and artifact save all under `dir`.
struct RunSpec {
    dir: PathBuf,
    seed: u64,
    count: usize,
    iterations: usize,
    epochs: usize,
    test: usize,
}

impl RunSpec {
    fn config(&self) -> PipelineConfig {
        PipelineConfig::quick()
            .with_dataset(DatasetSpec::with_count(self.count))
            .with_iterations(self.iterations)
            .with_training(TrainConfig::quick(self.epochs))
            .with_test_size(self.test)
            .with_seed(self.seed)
            .with_checkpoint_dir(Some(self.dir.clone()))
            .with_artifact_path(Some(self.dir.join(ARTIFACT_FILE)))
    }

    fn child_args(&self) -> Vec<String> {
        vec![
            "--child".into(),
            self.dir.display().to_string(),
            self.seed.to_string(),
            self.count.to_string(),
            self.iterations.to_string(),
            self.epochs.to_string(),
            self.test.to_string(),
        ]
    }
}

/// Child mode: run the pipeline once and exit. The parent owns all fault
/// arming (via the environment) and all killing.
fn run_child(args: &[String]) -> ExitCode {
    if args.len() != 6 {
        return fail("--child needs <dir> <seed> <count> <iterations> <epochs> <test>");
    }
    let parse = |s: &String| s.parse::<u64>().expect("numeric child arg");
    let spec = RunSpec {
        dir: PathBuf::from(&args[0]),
        seed: parse(&args[1]),
        count: parse(&args[2]) as usize,
        iterations: parse(&args[3]) as usize,
        epochs: parse(&args[4]) as usize,
        test: parse(&args[5]) as usize,
    };
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x00c7_a54e_5e5e_0001);
    match Pipeline::try_run(GnnKind::Gcn, &spec.config(), &mut rng) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("child pipeline error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One scripted kill: which fault env to arm (if any), which on-disk
/// marker signals "the child is inside the target phase", and the label
/// reported in the summary.
struct Phase {
    label: &'static str,
    faults: Option<&'static str>,
    marker: fn(&Path) -> PathBuf,
}

fn phases() -> Vec<Phase> {
    vec![
        Phase {
            label: "mid-label",
            // Stall the first journal append: the child parks with the
            // journal open and no label yet durable.
            faults: Some("journal_io=stall:1"),
            marker: |dir| dir.join("journal.tsv"),
        },
        Phase {
            label: "mid-epoch",
            // No stall: kill as soon as the first training checkpoint
            // lands, while later epochs are computing.
            faults: None,
            marker: |dir| dir.join("train.gcn.ckpt.json"),
        },
        Phase {
            label: "mid-checkpoint-write",
            // Stall between checkpoint tmp-flush and rename; the tmp file
            // on disk is the proof the child is inside the window.
            faults: Some("checkpoint_write=stall:1"),
            marker: |dir| dir.join("train.gcn.ckpt.json.tmp"),
        },
        Phase {
            label: "mid-artifact-save",
            faults: Some("artifact_save=stall:1"),
            marker: |dir| dir.join(format!("{ARTIFACT_FILE}.tmp")),
        },
    ]
}

fn spawn_child(spec: &RunSpec, faults: Option<&str>) -> std::io::Result<std::process::Child> {
    let exe = std::env::current_exe()?;
    let mut cmd = Command::new(exe);
    cmd.args(spec.child_args())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .env_remove("QAOA_GNN_FAULTS")
        .env("QAOA_GNN_STALL_MS", CHILD_STALL_MS);
    if let Some(spec) = faults {
        cmd.env("QAOA_GNN_FAULTS", spec);
    }
    cmd.spawn()
}

/// Runs the child with no faults and waits for clean completion.
fn run_to_completion(spec: &RunSpec, what: &str) -> Result<(), String> {
    let mut child = spawn_child(spec, None).map_err(|e| format!("spawn {what}: {e}"))?;
    let status = child.wait().map_err(|e| format!("wait {what}: {e}"))?;
    if !status.success() {
        return Err(format!("{what} run exited with {status}"));
    }
    Ok(())
}

/// Spawns the child for one phase, waits for its marker, and SIGKILLs it.
/// Returns `Ok(true)` if a kill landed, `Ok(false)` if the child finished
/// before the marker appeared (tiny runs can outrace a phase).
fn kill_in_phase(spec: &RunSpec, phase: &Phase, jitter: Duration) -> Result<bool, String> {
    let marker = (phase.marker)(&spec.dir);
    // Stale markers from an earlier round would fire instantly; only the
    // mid-epoch checkpoint can legitimately pre-exist, and killing at
    // startup there is still a valid mid-pipeline kill.
    let mut child =
        spawn_child(spec, phase.faults).map_err(|e| format!("spawn {}: {e}", phase.label))?;
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if marker.exists() {
            std::thread::sleep(jitter);
            // SIGKILL: no destructors, no flushes — the real crash model.
            child
                .kill()
                .map_err(|e| format!("kill {}: {e}", phase.label))?;
            let _ = child.wait();
            return Ok(true);
        }
        if let Some(status) = child
            .try_wait()
            .map_err(|e| format!("try_wait {}: {e}", phase.label))?
        {
            if status.success() {
                return Ok(false);
            }
            return Err(format!(
                "{} child failed ({status}) instead of being killed",
                phase.label
            ));
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("{}: marker never appeared", phase.label));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Measures per-epoch checkpoint overhead in-process: time spent inside
/// the atomic checkpoint save as a fraction of total training wall-clock,
/// with the training set replicated to `train_size` examples. Epoch cost
/// scales with the example count while the checkpoint cost is fixed (model
/// size + fsync), so this cheaply reproduces the overhead profile of any
/// dataset scale without labeling that many graphs.
fn measure_overhead(spec: &RunSpec, train_size: usize) -> Result<(f64, usize), String> {
    use gnn::GnnModel;
    use qaoa_gnn::dataset::Dataset;
    use qaoa_gnn::pipeline::to_examples;
    use qaoa_gnn::store;

    let config = spec.config();
    let (dataset, _) =
        Dataset::generate_checked(&config.dataset, &config.labeling, config.seed, None)
            .map_err(|e| format!("overhead dataset: {e}"))?;
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let model = GnnModel::new(GnnKind::Gcn, config.model.clone(), &mut rng);
    let base = to_examples(&dataset, &config.model);
    let examples: Vec<_> = base.iter().cycle().take(train_size).cloned().collect();
    let dir = spec.dir.join("overhead");
    let path = store::train_checkpoint_path(&dir, GnnKind::Gcn);
    let mut save_time = Duration::ZERO;
    let mut saves = 0usize;
    let start = Instant::now();
    gnn::train::train_resumable(
        &model,
        &examples,
        &config.training,
        &mut rng,
        None,
        1,
        |state| {
            let t = Instant::now();
            store::TrainCheckpoint {
                kind: GnnKind::Gcn,
                identity: 0,
                state: state.clone(),
            }
            .save(&path)?;
            save_time += t.elapsed();
            saves += 1;
            Ok(())
        },
    )
    .map_err(|e| format!("overhead training: {e}"))?;
    let total = start.elapsed();
    let _ = std::fs::remove_dir_all(&dir);
    Ok((save_time.as_secs_f64() / total.as_secs_f64() * 100.0, saves))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        return run_child(&args[1..]);
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(DEFAULT_SEED);

    let work = PathBuf::from("target").join(if smoke {
        "crash_resume_smoke"
    } else {
        "crash_resume"
    });
    let _ = std::fs::remove_dir_all(&work);
    let spec = if smoke {
        RunSpec {
            dir: work.join("run"),
            seed,
            count: 24,
            iterations: 30,
            // Enough epochs that training outlasts the largest kill jitter
            // (20 ms) after the first checkpoint, so the mid-epoch kill
            // lands before the run completes and the later windows remain.
            epochs: 24,
            test: 6,
        }
    } else {
        RunSpec {
            dir: work.join("run"),
            seed,
            count: 48,
            iterations: 60,
            epochs: 10,
            test: 10,
        }
    };
    let artifact = spec.dir.join(ARTIFACT_FILE);

    // Control: one never-killed run.
    println!("crash_resume: control run…");
    let started = Instant::now();
    if let Err(e) = run_to_completion(&spec, "control") {
        return fail(&e);
    }
    let control_bytes = match std::fs::read(&artifact) {
        Ok(b) => b,
        Err(e) => return fail(&format!("read control artifact: {e}")),
    };
    println!(
        "crash_resume: control artifact {} bytes, fnv64 {:#018x} ({:.1}s)",
        control_bytes.len(),
        fnv1a(&control_bytes),
        started.elapsed().as_secs_f64()
    );

    // Chaos: same run, killed at every scripted phase, then finished.
    if let Err(e) = std::fs::remove_dir_all(&spec.dir) {
        return fail(&format!("wipe work dir: {e}"));
    }
    let mut schedule_rng = StdRng::seed_from_u64(seed ^ 0x005e_ed5c_4ed0_1e00);
    let mut kills: Vec<&'static str> = Vec::new();
    for phase in phases() {
        let jitter = Duration::from_millis(schedule_rng.gen_range(0..20));
        match kill_in_phase(&spec, &phase, jitter) {
            Ok(true) => {
                println!("crash_resume: SIGKILL landed {}", phase.label);
                kills.push(phase.label);
            }
            Ok(false) => {
                println!(
                    "crash_resume: child completed before {} (no kill)",
                    phase.label
                );
            }
            Err(e) => return fail(&e),
        }
    }
    if kills.len() < 2 {
        return fail(&format!(
            "only {} SIGKILL(s) landed; the chaos run must be killed in at least 2 distinct stages",
            kills.len()
        ));
    }
    println!("crash_resume: final relaunch…");
    if let Err(e) = run_to_completion(&spec, "final") {
        return fail(&e);
    }
    let chaos_bytes = match std::fs::read(&artifact) {
        Ok(b) => b,
        Err(e) => return fail(&format!("read chaos artifact: {e}")),
    };
    if chaos_bytes != control_bytes {
        return fail(&format!(
            "artifact diverged: control fnv64 {:#018x} ({} bytes) vs chaos {:#018x} ({} bytes)",
            fnv1a(&control_bytes),
            control_bytes.len(),
            fnv1a(&chaos_bytes),
            chaos_bytes.len()
        ));
    }
    println!(
        "crash_resume: artifact byte-identical after {} SIGKILLs ({})",
        kills.len(),
        kills.join(", ")
    );

    // Overhead profile: the checkpoint cost is fixed per epoch, so its
    // share shrinks as the training set grows. Smoke stops at quick()
    // scale; the full run adds the paper's 9598-graph scale, where the
    // < 2% budget must hold.
    let sizes: &[usize] = if smoke { &[360] } else { &[360, 9598] };
    for &size in sizes {
        match measure_overhead(&spec, size) {
            Ok((percent, saves)) => println!(
                "crash_resume: checkpoint overhead at {size} train examples: \
                 {percent:.2}% of training wall-clock ({saves} atomic saves)"
            ),
            Err(e) => return fail(&e),
        }
    }
    println!("crash_resume: PASS");
    ExitCode::SUCCESS
}
