//! Golden acceptance suite for run artifacts (`core::store::RunArtifact`).
//!
//! The contract under test:
//!
//! 1. **Bit-exact inference parity** — a model trained by the pipeline,
//!    saved to an artifact, and rebuilt purely from the on-disk bytes
//!    predicts the *same bits* as the live model, for every architecture.
//! 2. **Corruption never panics** — any single-byte corruption, any
//!    truncation, and any architecture mismatch loads as a typed
//!    [`ArtifactError`], or (when the corruption hits redundant bytes such
//!    as whitespace) as an artifact equal to the original. Fuzzed with
//!    qcheck.
//! 3. **Cross-run determinism** — a run labeled straight through and a run
//!    killed mid-labeling and resumed from its journal write *byte
//!    identical* artifact files.

use std::fs;
use std::path::PathBuf;

use gnn::train::TrainHistory;
use gnn::{GnnKind, GnnModel, ModelConfig};
use qaoa_gnn::dataset::{LabelConfig, LabelReport};
use qaoa_gnn::pipeline::{Pipeline, PipelineConfig};
use qaoa_gnn::store::{artifact_path_for_kind, JOURNAL_FILE};
use qaoa_gnn::{ArtifactError, RunArtifact};
use qgraph::generate::DatasetSpec;
use qgraph::Graph;
use qrand::rngs::StdRng;
use qrand::SeedableRng;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("qaoa_gnn_artifact_tests")
        .join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A seconds-scale pipeline configuration with the full structure intact.
fn tiny_config() -> PipelineConfig {
    PipelineConfig {
        dataset: DatasetSpec::with_count(24),
        labeling: LabelConfig::quick(40),
        training: gnn::train::TrainConfig::quick(6),
        test_size: 6,
        ..PipelineConfig::paper_scale()
    }
}

/// Probe graphs the trained models are queried on — sizes inside and
/// outside the training distribution.
fn probe_graphs() -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(7);
    let mut graphs = vec![
        Graph::cycle(8).unwrap(),
        Graph::complete(6).unwrap(),
        Graph::star(9).unwrap(),
    ];
    for i in 0..3 {
        graphs.push(qgraph::generate::erdos_renyi(6 + i, 0.5, &mut rng).unwrap());
    }
    graphs
}

/// An artifact that is cheap to build (no training) for the corruption
/// fuzzing tests: a freshly initialized model plus empty history.
fn untrained_artifact(kind: GnnKind, seed: u64) -> RunArtifact {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = ModelConfig {
        hidden_dim: 4,
        ..ModelConfig::default()
    };
    let model = GnnModel::new(kind, config, &mut rng);
    RunArtifact {
        config: tiny_config(),
        weights: model.export_weights(),
        history: TrainHistory::default(),
        label_report: LabelReport::clean(3),
        dataset_fingerprint: 0x9e37_79b9_7f4a_7c15 ^ seed,
        envelope: None,
    }
}

/// Acceptance 1: for every architecture, save → load → predict is
/// bit-identical to the live pipeline model, with the model reconstructed
/// from nothing but the artifact bytes on disk.
#[test]
fn trained_artifact_predicts_bit_identically_per_arch() {
    let dir = temp_dir("predict_parity");
    let base = dir.join("run.json");
    for (i, &kind) in GnnKind::ALL.iter().enumerate() {
        let path = artifact_path_for_kind(&base, kind);
        let config = tiny_config()
            .with_seed(300 + i as u64)
            .with_artifact_path(Some(path.clone()));
        let mut rng = StdRng::seed_from_u64(300 + i as u64);
        let pipeline = Pipeline::run(kind, &config, &mut rng);

        let loaded = RunArtifact::load(&path).unwrap();
        assert_eq!(loaded.kind(), kind);
        assert_eq!(loaded.config, config);
        assert_eq!(loaded.history, pipeline.history);
        assert_eq!(loaded.label_report, pipeline.label_report);
        let rebuilt = loaded.build_model().unwrap();
        for g in &probe_graphs() {
            let live = pipeline.model.predict(g);
            let back = rebuilt.predict(g);
            assert_eq!(
                live.0.to_bits(),
                back.0.to_bits(),
                "{kind}: gamma bits differ on n={}",
                g.n()
            );
            assert_eq!(
                live.1.to_bits(),
                back.1.to_bits(),
                "{kind}: beta bits differ on n={}",
                g.n()
            );
        }
        // Round-tripping through save is a fixed point: re-saving the
        // loaded artifact reproduces the file byte for byte.
        let resaved = dir.join(format!("resave_{kind}.json"));
        loaded.save(&resaved).unwrap();
        assert_eq!(
            fs::read(&path).unwrap(),
            fs::read(&resaved).unwrap(),
            "{kind}: resave is not byte-identical"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Acceptance 3: straight run vs. kill-and-resume run write byte-identical
/// artifacts. The second run starts from a journal truncated to half its
/// records plus a torn partial line (what SIGKILL mid-append leaves),
/// resumes labeling, trains, and overwrites the same artifact path with
/// the same configuration — the bytes must not move.
#[test]
fn straight_and_resumed_runs_write_identical_artifacts() {
    let dir = temp_dir("cross_run");
    let artifact_path = dir.join("run.gcn.json");
    let config = tiny_config()
        .with_seed(42)
        .with_checkpoint_dir(Some(dir.join("journal")))
        .with_artifact_path(Some(artifact_path.clone()));

    let mut rng = StdRng::seed_from_u64(42);
    let straight = Pipeline::run(GnnKind::Gcn, &config, &mut rng);
    let straight_bytes = fs::read(&artifact_path).unwrap();

    // Kill: truncate the journal mid-batch with a torn tail.
    let journal_path = dir.join("journal").join(JOURNAL_FILE);
    let full = fs::read_to_string(&journal_path).unwrap();
    let lines: Vec<&str> = full.lines().collect();
    assert!(
        lines.len() >= 4,
        "journal too small to truncate meaningfully"
    );
    let mut truncated: String = lines[..lines.len() / 2]
        .iter()
        .flat_map(|l| [*l, "\n"])
        .collect();
    truncated.push_str(&lines[lines.len() / 2][..3]);
    fs::write(&journal_path, truncated).unwrap();

    let mut rng = StdRng::seed_from_u64(42);
    let resumed = Pipeline::run(GnnKind::Gcn, &config, &mut rng);
    let resumed_bytes = fs::read(&artifact_path).unwrap();

    assert_eq!(
        straight_bytes, resumed_bytes,
        "resumed run must reproduce the artifact byte for byte"
    );
    for g in &probe_graphs() {
        assert_eq!(straight.model.predict(g), resumed.model.predict(g));
    }
    // And the file round-trips into the same model either way.
    let loaded = RunArtifact::load(&artifact_path).unwrap();
    let rebuilt = loaded.build_model().unwrap();
    for g in &probe_graphs() {
        assert_eq!(straight.model.predict(g), rebuilt.predict(g));
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Acceptance 2 (typed failure): an artifact whose weights claim a
/// different architecture than they fit fails with
/// [`ArtifactError::Weights`] — before any model is constructed.
#[test]
fn architecture_mismatch_fails_typed() {
    let dir = temp_dir("arch_mismatch");
    for &kind in &GnnKind::ALL {
        for &claimed in &GnnKind::ALL {
            if claimed == kind {
                continue;
            }
            let mut artifact = untrained_artifact(kind, 9);
            artifact.weights.kind = claimed;
            let path = dir.join(format!("{kind}_as_{claimed}.json"));
            artifact.save(&path).unwrap();
            match RunArtifact::load(&path) {
                Err(ArtifactError::Weights(e)) => {
                    // The error must render without panicking.
                    let _ = e.to_string();
                }
                other => panic!("{kind} as {claimed}: expected Weights error, got {other:?}"),
            }
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Acceptance 2 (truncation): every prefix-truncation of a valid artifact
/// fails with a typed error, never a panic. (Cutting only trailing
/// whitespace may still load — then it must decode to the identical
/// artifact.)
#[test]
fn every_truncation_fails_typed() {
    let dir = temp_dir("truncation");
    let artifact = untrained_artifact(GnnKind::Gin, 11);
    let path = dir.join("full.json");
    artifact.save(&path).unwrap();
    let bytes = fs::read(&path).unwrap();
    let cut = dir.join("cut.json");
    // Dense sweep near both ends, strided through the middle.
    let mut cuts: Vec<usize> = (0..64.min(bytes.len())).collect();
    cuts.extend((64..bytes.len()).step_by(97));
    cuts.extend(bytes.len().saturating_sub(32)..bytes.len());
    for len in cuts {
        fs::write(&cut, &bytes[..len]).unwrap();
        match RunArtifact::load(&cut) {
            Ok(back) => {
                // Only whitespace may have been lost.
                assert!(
                    bytes[len..].iter().all(u8::is_ascii_whitespace),
                    "truncation to {len} of {} cut content yet loaded",
                    bytes.len()
                );
                assert_eq!(back, artifact);
            }
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

qcheck::properties! {
    cases = 300;

    /// Acceptance 2 (fuzz): overwriting any single byte with any value
    /// either fails typed or decodes to the original artifact (the byte
    /// was redundant — whitespace or an equivalent encoding). Never a
    /// panic, never a silently different artifact.
    fn single_byte_corruption_is_detected_or_harmless(
        seed in 0u64..=3,
        pos_raw in qcheck::any_u64(),
        byte_raw in 0u64..=255
    ) {
        let kind = GnnKind::ALL[(seed % 4) as usize];
        let artifact = untrained_artifact(kind, seed);
        let dir = temp_dir(&format!("fuzz_{seed}_{}", pos_raw % 8191));
        let path = dir.join("a.json");
        artifact.save(&path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let pos = (pos_raw % bytes.len() as u64) as usize;
        let byte = byte_raw as u8;
        qcheck::prop_assume!(bytes[pos] != byte);
        bytes[pos] = byte;
        fs::write(&path, &bytes).unwrap();
        match RunArtifact::load(&path) {
            Ok(back) => qcheck::prop_assert_eq!(back, artifact),
            Err(e) => qcheck::prop_assert!(!e.to_string().is_empty()),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flipping a single bit inside the weights section specifically must
    /// be caught by the section checksum (or fail to parse) — weights are
    /// the payload whose silent corruption would be worst.
    fn weight_section_bitflip_never_survives(
        seed in 0u64..=3,
        pos_raw in qcheck::any_u64(),
        bit in 0u64..=7
    ) {
        let kind = GnnKind::ALL[(seed % 4) as usize];
        let artifact = untrained_artifact(kind, 100 + seed);
        let dir = temp_dir(&format!("bitflip_{seed}_{}", pos_raw % 8191));
        let path = dir.join("a.json");
        artifact.save(&path).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let start = text.find("\"weights\"").unwrap();
        let end = text.find("\"history\"").unwrap();
        qcheck::prop_assume!(end > start);
        let mut bytes = text.into_bytes();
        let pos = start + (pos_raw % (end - start) as u64) as usize;
        let flipped = bytes[pos] ^ (1u8 << bit);
        // Skip flips that only toggle whitespace into other whitespace.
        qcheck::prop_assume!(
            !(bytes[pos].is_ascii_whitespace() && flipped.is_ascii_whitespace())
        );
        bytes[pos] = flipped;
        fs::write(&path, &bytes).unwrap();
        match RunArtifact::load(&path) {
            Ok(back) => qcheck::prop_assert_eq!(back, artifact),
            Err(e) => qcheck::prop_assert!(!e.to_string().is_empty()),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
