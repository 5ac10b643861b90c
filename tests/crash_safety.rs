//! Crash-safety acceptance suite for training checkpoints and atomic
//! artifact writes (`core::store::TrainCheckpoint`, `RunArtifact::save`).
//!
//! The contract under test:
//!
//! 1. **Atomic saves never destroy the previous file** — a save killed
//!    between the tmp-file flush and the rename (the `artifact_save` /
//!    `checkpoint_write` failpoints) leaves the old bytes loadable and no
//!    tmp debris behind.
//! 2. **Torn checkpoints never panic** — any truncation and any
//!    single-byte corruption of a training checkpoint loads as a typed
//!    [`ArtifactError`], or (when the corruption hits redundant bytes) as
//!    a checkpoint equal to the original. Fuzzed with qcheck.
//! 3. **Resume degrades, never corrupts** — a pipeline pointed at a
//!    corrupt checkpoint falls back to a fresh training run and still
//!    writes the byte-identical artifact; a pipeline pointed at a *valid*
//!    checkpoint from a different configuration refuses with the typed
//!    [`PipelineError::CheckpointMismatch`] instead of silently mixing
//!    runs.
//! 4. **Completed runs replay for free** — rerunning a finished
//!    checkpointed pipeline resumes from the `done` checkpoint without
//!    retraining (proven by arming `checkpoint_write` to error: a retrain
//!    would trip it) and leaves the artifact bytes untouched.
//!
//! The process-level counterpart — real SIGKILLs against a live pipeline
//! subprocess — lives in the `crash_resume` bench bin; this suite covers
//! the same protocol windows in-process where assertions can be exact.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use gnn::train::TrainHistory;
use gnn::{GnnKind, GnnModel, ModelConfig};
use qaoa_gnn::dataset::{LabelConfig, LabelReport};
use qaoa_gnn::faults::{self, FaultAction};
use qaoa_gnn::pipeline::{Pipeline, PipelineConfig, PipelineError};
use qaoa_gnn::store::{train_checkpoint_path, ArtifactError, TrainCheckpoint};
use qaoa_gnn::RunArtifact;
use qgraph::generate::DatasetSpec;
use qrand::rngs::StdRng;
use qrand::SeedableRng;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("qaoa_gnn_crash_tests").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A seconds-scale checkpointed pipeline configuration: labels journal
/// into `dir`, training checkpoints land next to the journal, and the
/// artifact is written into the same directory.
fn checkpointed_config(dir: &Path, seed: u64) -> PipelineConfig {
    PipelineConfig {
        dataset: DatasetSpec::with_count(24),
        labeling: LabelConfig::quick(40),
        training: gnn::train::TrainConfig::quick(6),
        test_size: 6,
        ..PipelineConfig::paper_scale()
    }
    .with_seed(seed)
    .with_checkpoint_dir(Some(dir.to_path_buf()))
    .with_artifact_path(Some(dir.join("artifact.json")))
}

fn run_checkpointed(dir: &Path, seed: u64) -> (Pipeline, PipelineConfig) {
    let config = checkpointed_config(dir, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let pipeline = Pipeline::run(GnnKind::Gcn, &config, &mut rng);
    (pipeline, config)
}

/// An artifact that is cheap to build (no training) for the atomic-save
/// test: a freshly initialized model plus empty history.
fn untrained_artifact(seed: u64) -> RunArtifact {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = ModelConfig {
        hidden_dim: 4,
        ..ModelConfig::default()
    };
    let model = GnnModel::new(GnnKind::Gin, config, &mut rng);
    RunArtifact {
        config: checkpointed_config(Path::new("unused"), seed),
        weights: model.export_weights(),
        history: TrainHistory::default(),
        label_report: LabelReport::clean(3),
        dataset_fingerprint: 0x9e37_79b9_7f4a_7c15 ^ seed,
        envelope: None,
    }
}

/// One completed checkpointed run, built once and shared by the fuzz
/// properties: the checkpoint file's bytes plus its decoded form.
fn fuzz_fixture() -> &'static (Vec<u8>, TrainCheckpoint) {
    static FIXTURE: OnceLock<(Vec<u8>, TrainCheckpoint)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = temp_dir("fuzz_fixture");
        run_checkpointed(&dir, 77);
        let path = train_checkpoint_path(&dir, GnnKind::Gcn);
        let bytes = fs::read(&path).unwrap();
        let checkpoint = TrainCheckpoint::load(&path).unwrap();
        (bytes, checkpoint)
    })
}

/// Acceptance 1 (artifact): a save that dies between flushing the tmp
/// file and the rename leaves the previous artifact bytes on disk,
/// loadable, with no tmp debris. A clean retry then succeeds.
#[test]
fn killed_artifact_save_leaves_previous_artifact_loadable() {
    let dir = temp_dir("killed_artifact_save");
    let path = dir.join("artifact.json");
    let old = untrained_artifact(1);
    old.save(&path).unwrap();
    let old_bytes = fs::read(&path).unwrap();

    let new = untrained_artifact(2);
    {
        let _guard = faults::armed(faults::ARTIFACT_SAVE, FaultAction::Error, 1);
        let err = new.save(&path).expect_err("armed save must fail");
        assert!(err.to_string().contains("fault injected"), "{err}");
    }
    assert_eq!(fs::read(&path).unwrap(), old_bytes, "old artifact moved");
    assert_eq!(RunArtifact::load(&path).unwrap(), old);
    assert!(
        !dir.join("artifact.json.tmp").exists(),
        "tmp debris left behind"
    );

    new.save(&path).unwrap();
    assert_eq!(RunArtifact::load(&path).unwrap(), new);
    fs::remove_dir_all(&dir).unwrap();
}

/// Acceptance 1 (checkpoint): same protocol window, same guarantee, for
/// the training checkpoint file.
#[test]
fn killed_checkpoint_write_leaves_previous_checkpoint_loadable() {
    let dir = temp_dir("killed_checkpoint_write");
    run_checkpointed(&dir, 11);
    let path = train_checkpoint_path(&dir, GnnKind::Gcn);
    let old_bytes = fs::read(&path).unwrap();
    let old = TrainCheckpoint::load(&path).unwrap();

    let mut tampered = old.clone();
    tampered.identity ^= 0xdead_beef;
    {
        let _guard = faults::armed(faults::CHECKPOINT_WRITE, FaultAction::Error, 1);
        let err = tampered.save(&path).expect_err("armed save must fail");
        assert!(err.to_string().contains("fault injected"), "{err}");
    }
    assert_eq!(fs::read(&path).unwrap(), old_bytes, "old checkpoint moved");
    assert_eq!(TrainCheckpoint::load(&path).unwrap(), old);
    assert!(
        !dir.join("train.gcn.ckpt.json.tmp").exists(),
        "tmp debris left behind"
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// Acceptance 2 (truncation): every prefix-truncation of a valid training
/// checkpoint fails with a typed error, never a panic. (Cutting only
/// trailing whitespace may still load — then it must decode to the
/// identical checkpoint.)
#[test]
fn every_checkpoint_truncation_fails_typed() {
    let (bytes, original) = fuzz_fixture();
    let dir = temp_dir("ckpt_truncation");
    let cut = dir.join("cut.ckpt.json");
    // Dense sweep near both ends, strided through the middle.
    let mut cuts: Vec<usize> = (0..64.min(bytes.len())).collect();
    cuts.extend((64..bytes.len()).step_by(997));
    cuts.extend(bytes.len().saturating_sub(32)..bytes.len());
    for len in cuts {
        fs::write(&cut, &bytes[..len]).unwrap();
        match TrainCheckpoint::load(&cut) {
            Ok(back) => {
                assert!(
                    bytes[len..].iter().all(u8::is_ascii_whitespace),
                    "truncation to {len} of {} cut content yet loaded",
                    bytes.len()
                );
                assert_eq!(&back, original);
            }
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Acceptance 3 (fallback): a pipeline whose checkpoint directory holds a
/// torn or garbage training checkpoint falls back to a fresh training run
/// — and because training is deterministic, the artifact bytes do not
/// move. The healthy checkpoint is rewritten along the way.
#[test]
fn corrupted_checkpoint_falls_back_to_fresh_start() {
    let dir = temp_dir("corrupt_fallback");
    let (_, config) = run_checkpointed(&dir, 21);
    let path = train_checkpoint_path(&dir, GnnKind::Gcn);
    let good_bytes = fs::read(&path).unwrap();
    let identity = TrainCheckpoint::load(&path).unwrap().identity;
    let artifact_bytes = fs::read(dir.join("artifact.json")).unwrap();

    // A torn tail, a checksum-breaking flip, and outright garbage.
    let mut flipped = good_bytes.clone();
    let state_start = good_bytes
        .windows(7)
        .position(|w| w == b"\"state\"")
        .unwrap();
    flipped[state_start + 64] ^= 0x20;
    // A checkpoint from before the bit-pattern state encoding.
    let stale = String::from_utf8(good_bytes.clone())
        .unwrap()
        .replacen("\"version\": 2", "\"version\": 1", 1)
        .into_bytes();
    assert_ne!(stale, good_bytes);
    let corruptions: [&[u8]; 4] = [
        &good_bytes[..good_bytes.len() / 2],
        &flipped,
        b"garbage\n",
        &stale,
    ];
    for (i, corrupt) in corruptions.iter().enumerate() {
        fs::write(&path, corrupt).unwrap();
        let err = TrainCheckpoint::load(&path).expect_err("corruption must not load");
        assert!(
            i != 3
                || matches!(
                    err,
                    ArtifactError::Version {
                        found: 1,
                        supported: 2
                    }
                ),
            "corruption {i}: {err}"
        );
        let mut rng = StdRng::seed_from_u64(21);
        Pipeline::try_run(GnnKind::Gcn, &config, &mut rng)
            .unwrap_or_else(|e| panic!("corruption {i}: fallback run failed: {e}"));
        assert_eq!(
            fs::read(dir.join("artifact.json")).unwrap(),
            artifact_bytes,
            "corruption {i}: artifact bytes moved"
        );
        let healed = TrainCheckpoint::load(&path)
            .unwrap_or_else(|e| panic!("corruption {i}: checkpoint not healed: {e}"));
        assert_eq!(healed.identity, identity, "corruption {i}");
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Acceptance 4: rerunning a completed checkpointed pipeline replays the
/// `done` checkpoint instead of retraining. The proof is a tripwire: with
/// `checkpoint_write` armed to error, any fresh training epoch would
/// abort the run — the rerun must succeed without touching it, and the
/// artifact bytes must not move.
#[test]
fn completed_run_resumes_without_retraining() {
    let dir = temp_dir("done_replay");
    let (first, config) = run_checkpointed(&dir, 31);
    let artifact_bytes = fs::read(dir.join("artifact.json")).unwrap();

    let _guard = faults::armed(faults::CHECKPOINT_WRITE, FaultAction::Error, u64::MAX);
    let mut rng = StdRng::seed_from_u64(31);
    let again = Pipeline::try_run(GnnKind::Gcn, &config, &mut rng)
        .expect("done-checkpoint replay must not retrain (tripwire fired)");
    assert_eq!(again.history, first.history);
    assert_eq!(again.report, first.report);
    assert_eq!(
        fs::read(dir.join("artifact.json")).unwrap(),
        artifact_bytes,
        "artifact rewritten on replay"
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// Acceptance 3 (refusal): a *valid* checkpoint from a different training
/// configuration is never silently reused — the pipeline returns the
/// typed [`PipelineError::CheckpointMismatch`] naming both identities.
#[test]
fn changed_training_config_refuses_with_typed_mismatch() {
    let dir = temp_dir("config_mismatch");
    run_checkpointed(&dir, 41);

    // Same seed and dataset (the label journal replays cleanly); more
    // epochs — the training identity must not match.
    let longer = PipelineConfig {
        training: gnn::train::TrainConfig::quick(9),
        ..checkpointed_config(&dir, 41)
    };
    let mut rng = StdRng::seed_from_u64(41);
    match Pipeline::try_run(GnnKind::Gcn, &longer, &mut rng) {
        Err(PipelineError::CheckpointMismatch {
            path,
            expected,
            found,
        }) => {
            assert_eq!(path, train_checkpoint_path(&dir, GnnKind::Gcn));
            assert_ne!(expected, found);
            let msg = PipelineError::CheckpointMismatch {
                path,
                expected,
                found,
            }
            .to_string();
            assert!(msg.contains("refusing to resume"), "{msg}");
        }
        other => panic!("expected CheckpointMismatch, got {other:?}"),
    }
    fs::remove_dir_all(&dir).unwrap();
}

qcheck::properties! {
    cases = 200;

    /// Acceptance 2 (fuzz): overwriting any single byte of a training
    /// checkpoint with any value either fails typed or decodes to the
    /// original checkpoint (the byte was redundant — whitespace or an
    /// equivalent encoding). Never a panic, never a silently different
    /// training state.
    fn checkpoint_single_byte_corruption_is_detected_or_harmless(
        pos_raw in qcheck::any_u64(),
        byte_raw in 0u64..=255
    ) {
        let (bytes, original) = fuzz_fixture();
        let dir = temp_dir(&format!("ckpt_fuzz_{}", pos_raw % 8191));
        let path = dir.join("c.ckpt.json");
        let mut mutated = bytes.clone();
        let pos = (pos_raw % mutated.len() as u64) as usize;
        let byte = byte_raw as u8;
        qcheck::prop_assume!(mutated[pos] != byte);
        mutated[pos] = byte;
        fs::write(&path, &mutated).unwrap();
        match TrainCheckpoint::load(&path) {
            Ok(back) => qcheck::prop_assert_eq!(&back, original),
            Err(e) => qcheck::prop_assert!(!e.to_string().is_empty()),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flipping a single bit inside the state section specifically must be
    /// caught by the section checksum (or fail to parse) — optimizer
    /// moments and RNG position are the payload whose silent corruption
    /// would diverge a resumed run from the uninterrupted one.
    fn state_section_bitflip_never_survives(
        pos_raw in qcheck::any_u64(),
        bit in 0u64..=7
    ) {
        let (bytes, original) = fuzz_fixture();
        let dir = temp_dir(&format!("ckpt_bitflip_{}", pos_raw % 8191));
        let path = dir.join("c.ckpt.json");
        let start = bytes.windows(7).position(|w| w == b"\"state\"").unwrap();
        let end = bytes.windows(11).position(|w| w == b"\"checksums\"").unwrap();
        qcheck::prop_assume!(end > start);
        let mut mutated = bytes.clone();
        let pos = start + (pos_raw % (end - start) as u64) as usize;
        let flipped = mutated[pos] ^ (1u8 << bit);
        // Skip flips that only toggle whitespace into other whitespace.
        qcheck::prop_assume!(
            !(mutated[pos].is_ascii_whitespace() && flipped.is_ascii_whitespace())
        );
        mutated[pos] = flipped;
        fs::write(&path, &mutated).unwrap();
        match TrainCheckpoint::load(&path) {
            Ok(back) => qcheck::prop_assert_eq!(&back, original),
            Err(e) => qcheck::prop_assert!(!e.to_string().is_empty()),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
