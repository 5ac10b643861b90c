//! Persistence: the labeling journal, run artifacts and training
//! checkpoints.
//!
//! §3.1: "Each graph is stored in a text file... The final output is an
//! organized list comprising the graph structures along with important
//! metadata like approximate ratio and values for the best cuts." A
//! journal directory is that layout: one `graph_<i>.txt` per instance (the
//! [`qgraph::io`] format) plus `journal.tsv`, the list of QAOA labels
//! keyed by graph index, so a labeled dataset survives between runs —
//! full-scale labeling is by far the most expensive pipeline stage.
//!
//! The journal ([`LabelJournal`], [`Dataset::resume_labeling`]) is an
//! append-only, fsync'd record of completed labels that lets the
//! paper-scale labeling run survive interrupts. Every completed label
//! costs one `O(1)` append; `Ctrl-C` at graph 7000 of 9598 costs nothing
//! on restart because resume skips every journaled index, and per-graph
//! RNG substreams make the resumed labels bit-identical to an
//! uninterrupted run.

use std::collections::HashSet;
use std::fs;
use std::io::{self, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use gnn::train::TrainHistory;
use gnn::{GnnKind, GnnModel, ModelWeights, WeightError};
use qaoa::Params;
use qgraph::Graph;

use crate::dataset::{label_graph, Dataset, LabelConfig, LabelReport, LabeledGraph};
use crate::faults;
use crate::json::{FromJson, Json, JsonError, JsonSink, ObjWriter, ToJson};
use crate::pipeline::PipelineConfig;

fn graph_file_name(index: usize) -> String {
    format!("graph_{index:05}.txt")
}

/// One `journal.tsv` row: graph index, then depth, γs, βs, expectation,
/// optimal and approximation ratio, tab-separated. `{v}` is the shortest
/// representation that parses back to the same bits, so labels
/// round-trip exactly.
fn label_row(index: usize, entry: &LabeledGraph) -> String {
    let join = |xs: &[f64]| {
        xs.iter()
            .map(|v| format!("{v}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{index}\t{}\t{}\t{}\t{}\t{}\t{}\n",
        entry.params.depth(),
        join(entry.params.gammas()),
        join(entry.params.betas()),
        entry.expectation,
        entry.optimal,
        entry.approx_ratio,
    )
}

/// Parses a [`label_row`]. `graph` resolves the key field to the row's
/// graph and runs right after the field-count check; a malformed field is
/// a [`journal_corrupt`] error.
fn parse_label_row(
    line: &str,
    graph: impl FnOnce(&str) -> io::Result<Graph>,
) -> io::Result<LabeledGraph> {
    let fields: Vec<&str> = line.split('\t').collect();
    if fields.len() != 7 {
        return Err(journal_corrupt(format!(
            "expected 7 fields, got {}",
            fields.len()
        )));
    }
    let graph = graph(fields[0])?;
    let parse_f64 = |s: &str| s.parse::<f64>().map_err(journal_corrupt);
    let parse_vec = |s: &str| -> io::Result<Vec<f64>> { s.split(',').map(parse_f64).collect() };
    let depth = fields[1].parse::<usize>().map_err(journal_corrupt)?;
    let gammas = parse_vec(fields[2])?;
    let betas = parse_vec(fields[3])?;
    if gammas.len() != depth || betas.len() != depth {
        return Err(journal_corrupt("angle count does not match depth"));
    }
    Ok(LabeledGraph {
        graph,
        params: Params::new(gammas, betas),
        expectation: parse_f64(fields[4])?,
        optimal: parse_f64(fields[5])?,
        approx_ratio: parse_f64(fields[6])?,
    })
}

// ---------------------------------------------------------------------------
// Checkpoint journal
// ---------------------------------------------------------------------------

/// Name of the journal metadata file inside a checkpoint directory.
pub const JOURNAL_META_FILE: &str = "journal.meta.json";

/// Name of the append-only completed-label record inside a checkpoint
/// directory.
pub const JOURNAL_FILE: &str = "journal.tsv";

/// Journal layout version; bumped on incompatible format changes.
const JOURNAL_VERSION: u64 = 1;

/// FNV-1a 64-bit offset basis: the starting value of a running
/// [`fnv1a_extend`] digest.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one 64-bit word into an FNV-1a hash as a single step (`hash ^=
/// word; hash *= prime`). The byte fold below is this step per byte;
/// graph fingerprints and run identities fold whole words.
fn fnv1a_word(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Folds `bytes` into a running FNV-1a hash; start from [`FNV1A_OFFSET`].
/// Lets a digest accumulate over many records without buffering them.
pub fn fnv1a_extend(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |hash, &b| fnv1a_word(hash, u64::from(b)))
}

/// FNV-1a over raw bytes: the per-section checksum of run artifacts and
/// training checkpoints, and the digest the bench bins compare runs by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_OFFSET, bytes)
}

/// A [`Json`] sink that folds the compact form's bytes into a running
/// FNV-1a hash as they are written, and drops layout. Where `text` is kept,
/// the pretty bytes go there too, so one pass writes a section and
/// checksums it.
struct Fnv1aSink {
    hash: u64,
    text: Option<String>,
}

impl JsonSink for Fnv1aSink {
    fn token(&mut self, s: &str) {
        self.hash = fnv1a_extend(self.hash, s.as_bytes());
        if let Some(text) = &mut self.text {
            text.push_str(s);
        }
    }

    fn layout(&mut self, s: &str) {
        if let Some(text) = &mut self.text {
            text.push_str(s);
        }
    }
}

/// FNV-1a of `json`'s compact form, without building the string: the
/// section checksum of sealed files.
fn checksum(json: &Json) -> u64 {
    let mut sink = Fnv1aSink {
        hash: FNV1A_OFFSET,
        text: None,
    };
    json.write(&mut sink, None, 0);
    sink.hash
}

/// Order-sensitive FNV-1a fingerprint of a graph batch: node counts, edge
/// endpoints, and weight bits. A checkpoint records this so a resume
/// against different graphs (or a reordered batch, which would silently
/// shift every RNG substream) is rejected instead of producing garbage.
pub fn fingerprint_graphs(graphs: &[Graph]) -> u64 {
    fingerprint_graph_refs(graphs.iter())
}

/// [`fingerprint_graphs`] over any exact-size graph iterator, so callers
/// holding graphs inside larger records (e.g. [`LabeledGraph`] entries) can
/// fingerprint without cloning the batch.
pub fn fingerprint_graph_refs<'a, I>(graphs: I) -> u64
where
    I: ExactSizeIterator<Item = &'a Graph>,
{
    let mut hash = fnv1a_word(FNV1A_OFFSET, graphs.len() as u64);
    for graph in graphs {
        hash = fnv1a_word(hash, graph.n() as u64);
        for edge in graph.edges() {
            for word in [edge.u as u64, edge.v as u64, edge.weight.to_bits()] {
                hash = fnv1a_word(hash, word);
            }
        }
    }
    hash
}

fn journal_corrupt<E: std::fmt::Display>(message: E) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("checkpoint journal: {message}"),
    )
}

fn parse_journal_line(line: &str, graphs: &[Graph]) -> io::Result<(usize, LabeledGraph)> {
    let mut index = 0;
    let entry = parse_label_row(line, |field| {
        index = field.parse().map_err(journal_corrupt)?;
        graphs
            .get(index)
            .cloned()
            .ok_or_else(|| journal_corrupt(format!("index {index} out of range")))
    })?;
    Ok((index, entry))
}

/// An append-only, fsync'd record of completed labels inside a checkpoint
/// directory. Layout:
///
/// - `journal.meta.json` — seed, batch size, graph fingerprint, and the
///   result-affecting labeling config, written once and verified on every
///   reopen so a checkpoint can never be resumed against the wrong run.
/// - `journal.tsv` — one line per completed label (`index`, params,
///   expectation, optimal, approximation ratio), appended and `fsync`'d as
///   each worker finishes a graph. A torn final line (crash mid-append) is
///   detected and truncated on reopen; interior corruption is an error.
/// - `graph_<index>.txt` — the labeled instance in the [`qgraph::io`]
///   format, so a checkpoint directory is self-describing.
pub struct LabelJournal {
    dir: PathBuf,
    file: fs::File,
}

impl LabelJournal {
    /// Opens (or creates) the journal in `dir` for labeling `graphs` with
    /// `config` and `seed`, returning the journal plus every label already
    /// completed by a previous run.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] when the directory holds a journal
    /// for a *different* run (mismatched seed, config, batch size, or graph
    /// fingerprint) or an interior-corrupted record; filesystem errors
    /// as-is.
    pub fn open(
        dir: &Path,
        graphs: &[Graph],
        config: &LabelConfig,
        seed: u64,
    ) -> io::Result<(LabelJournal, Vec<(usize, LabeledGraph)>)> {
        fs::create_dir_all(dir)?;
        let meta = Self::meta_json(graphs, config, seed);
        let meta_path = dir.join(JOURNAL_META_FILE);
        if meta_path.exists() {
            let existing =
                Json::parse(&fs::read_to_string(&meta_path)?).map_err(journal_corrupt)?;
            if existing != meta {
                return Err(journal_corrupt(format!(
                    "{} does not match this run (different seed, config, or graphs); \
                     refusing to resume",
                    JOURNAL_META_FILE
                )));
            }
        } else {
            // Atomic, so a kill mid-write cannot leave a torn meta file that
            // would refuse every later resume. No failpoint: arming one here
            // would shift the budgets of the journal and checkpoint ones.
            write_atomic(&meta_path, meta.to_pretty().as_bytes(), None)?;
        }
        let journal_path = dir.join(JOURNAL_FILE);
        let (completed, valid_len) = match fs::read_to_string(&journal_path) {
            Ok(text) => Self::replay(&text, graphs)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => (Vec::new(), 0),
            Err(e) => return Err(e),
        };
        let mut file = fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&journal_path)?;
        // Drop a torn tail (crash mid-append) before appending new records.
        file.set_len(valid_len)?;
        file.seek(io::SeekFrom::End(0))?;
        Ok((
            LabelJournal {
                dir: dir.to_path_buf(),
                file,
            },
            completed,
        ))
    }

    /// The result-affecting identity of a labeling run. Thread count is
    /// deliberately excluded: substream RNGs make results independent of
    /// parallelism, so a run may resume with a different worker count.
    fn meta_json(graphs: &[Graph], config: &LabelConfig, seed: u64) -> Json {
        Json::Obj(vec![
            ("version".to_string(), Json::uint(JOURNAL_VERSION)),
            ("seed".to_string(), Json::uint(seed)),
            ("count".to_string(), Json::uint(graphs.len() as u64)),
            (
                "fingerprint".to_string(),
                Json::uint(fingerprint_graphs(graphs)),
            ),
            ("depth".to_string(), Json::uint(config.depth as u64)),
            (
                "iterations".to_string(),
                Json::uint(config.iterations as u64),
            ),
        ])
    }

    /// Replays journal text into completed labels, returning them plus the
    /// byte length of the valid prefix. Unterminated trailing bytes are a
    /// torn append and are dropped; a malformed *terminated* line means the
    /// journal was corrupted in place and is an error.
    fn replay(text: &str, graphs: &[Graph]) -> io::Result<(Vec<(usize, LabeledGraph)>, u64)> {
        let mut completed = Vec::new();
        let mut seen = HashSet::new();
        let mut valid_len = 0u64;
        let mut offset = 0usize;
        while let Some(newline) = text[offset..].find('\n') {
            let line = &text[offset..offset + newline];
            offset += newline + 1;
            let (index, entry) = parse_journal_line(line, graphs)?;
            if seen.insert(index) {
                completed.push((index, entry));
            }
            valid_len = offset as u64;
        }
        Ok((completed, valid_len))
    }

    /// Records one completed label: writes the graph file, appends the
    /// label line, and `fsync`s so the record survives a crash. Called from
    /// the worker that produced the label.
    ///
    /// # Errors
    ///
    /// Filesystem errors; the labeling engine aborts the batch on the first
    /// one (a silently broken journal would defeat the checkpoint).
    pub fn append(&mut self, index: usize, entry: &LabeledGraph) -> io::Result<()> {
        if faults::fire_may_panic(faults::JOURNAL_IO).is_some() {
            return Err(io::Error::other("fault injected: journal_io"));
        }
        qgraph::io::write_graph(&entry.graph, self.dir.join(graph_file_name(index)))?;
        self.file.write_all(label_row(index, entry).as_bytes())?;
        self.file.sync_data()
    }

    /// The checkpoint directory this journal lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Dataset {
    /// Labels `graphs` through the checked engine, journaling every
    /// completed label into `dir` and skipping any index a previous
    /// (interrupted) run already journaled there. First call with an empty
    /// `dir` is simply a checkpointed run; subsequent calls resume.
    ///
    /// Because every graph's label is computed on an RNG substream derived
    /// only from `(seed, index)`, an interrupted-and-resumed run returns a
    /// dataset bit-identical (`==`) to a straight-through
    /// [`Dataset::label_graphs_checked`] with the same seed and config.
    ///
    /// # Errors
    ///
    /// Journal verification and filesystem errors (see
    /// [`LabelJournal::open`] and [`LabelJournal::append`]).
    pub fn resume_labeling(
        dir: &Path,
        graphs: &[Graph],
        config: &LabelConfig,
        seed: u64,
    ) -> io::Result<(Dataset, LabelReport)> {
        let (journal, done) = LabelJournal::open(dir, graphs, config, seed)?;
        let journal = Mutex::new(journal);
        crate::dataset::label_batch(&label_graph, graphs, done, config, seed, &|index, entry| {
            journal.lock().expect("journal lock").append(index, entry)
        })
    }
}

// ---------------------------------------------------------------------------
// Run artifacts
// ---------------------------------------------------------------------------

/// The `format` tag every run artifact carries.
pub const ARTIFACT_FORMAT: &str = "qaoa-gnn-run-artifact";

/// Current artifact schema version; bumped on incompatible changes.
pub const ARTIFACT_VERSION: u64 = 1;

/// Flushes a directory so a rename inside it is durable. Some filesystems
/// refuse to open a directory for writing; `sync_all` on a read handle is
/// the portable spelling.
fn fsync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

/// The crash-safe write protocol every persisted file in this module uses:
/// write `path.tmp`, fsync it, fire `failpoint` (if any), rename over
/// `path`, fsync the parent directory. A crash (or SIGKILL) at any instant
/// leaves either the previous file or the new one on disk — the rename is
/// the single commit point. Parent directories are created.
fn write_atomic(path: &Path, bytes: &[u8], failpoint: Option<&str>) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    let mut file = fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_data()?;
    drop(file);
    // Between flush and rename: the widest window where a crash must leave
    // the previous file untouched. `Stall` parks here so a chaos harness
    // can SIGKILL into it deterministically.
    if let Some(failpoint) = failpoint {
        if faults::fire_may_panic(failpoint).is_some() {
            let _ = fs::remove_file(&tmp);
            return Err(io::Error::other(format!("fault injected: {failpoint}")));
        }
    }
    fs::rename(&tmp, path)?;
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => fsync_dir(parent),
        _ => fsync_dir(Path::new(".")),
    }
}

/// The distribution a model was trained on, recorded inside its artifact
/// so a serving layer can tell in-distribution requests from
/// out-of-envelope ones (§3.1: the paper trains on 2–15-node graphs;
/// Jain et al., arXiv:2111.03016, show GNN warm-starts degrade
/// out-of-distribution).
///
/// Besides the envelope bounds, the mean *canonical* training label is
/// recorded: it is the natural "interpolated" fallback initialization when
/// the model itself cannot be trusted for a request.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingEnvelope {
    /// Smallest node count seen in training.
    pub min_nodes: usize,
    /// Largest node count seen in training.
    pub max_nodes: usize,
    /// Largest node degree seen in training.
    pub max_degree: usize,
    /// Input feature dimensionality the model was built for.
    pub feature_dim: usize,
    /// Mean canonical γ over the training labels.
    pub mean_gamma: f64,
    /// Mean canonical β over the training labels.
    pub mean_beta: f64,
}

/// How a request graph falls outside a [`TrainingEnvelope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeViolation {
    /// The graph's node count is outside the trained range.
    NodeCount {
        /// Request graph's node count.
        n: usize,
        /// Trained minimum.
        min: usize,
        /// Trained maximum.
        max: usize,
    },
    /// The graph's maximum degree exceeds anything seen in training.
    Degree {
        /// Request graph's maximum degree.
        max_degree: usize,
        /// Trained maximum degree.
        trained_max: usize,
    },
}

impl std::fmt::Display for EnvelopeViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvelopeViolation::NodeCount { n, min, max } => {
                write!(f, "{n} nodes outside trained range [{min}, {max}]")
            }
            EnvelopeViolation::Degree {
                max_degree,
                trained_max,
            } => write!(
                f,
                "max degree {max_degree} exceeds trained maximum {trained_max}"
            ),
        }
    }
}

impl std::error::Error for EnvelopeViolation {}

impl TrainingEnvelope {
    /// Computes the envelope of a (training) dataset for a model whose
    /// input width is `feature_dim`. Returns `None` for an empty dataset —
    /// there is no envelope to speak of.
    pub fn from_dataset(dataset: &Dataset, feature_dim: usize) -> Option<TrainingEnvelope> {
        if dataset.entries.is_empty() {
            return None;
        }
        let mut min_nodes = usize::MAX;
        let mut max_nodes = 0usize;
        let mut max_degree = 0usize;
        let mut sum_gamma = 0.0;
        let mut sum_beta = 0.0;
        for entry in &dataset.entries {
            min_nodes = min_nodes.min(entry.graph.n());
            max_nodes = max_nodes.max(entry.graph.n());
            max_degree = max_degree.max(entry.graph.max_degree());
            let canonical = entry.params.canonical();
            sum_gamma += canonical.gammas()[0];
            sum_beta += canonical.betas()[0];
        }
        let count = dataset.entries.len() as f64;
        Some(TrainingEnvelope {
            min_nodes,
            max_nodes,
            max_degree,
            feature_dim,
            mean_gamma: sum_gamma / count,
            mean_beta: sum_beta / count,
        })
    }

    /// Checks a request graph against the envelope.
    ///
    /// # Errors
    ///
    /// The first [`EnvelopeViolation`], checked node count then degree.
    pub fn check(&self, graph: &Graph) -> Result<(), EnvelopeViolation> {
        let n = graph.n();
        if n < self.min_nodes || n > self.max_nodes {
            return Err(EnvelopeViolation::NodeCount {
                n,
                min: self.min_nodes,
                max: self.max_nodes,
            });
        }
        let max_degree = graph.max_degree();
        if max_degree > self.max_degree {
            return Err(EnvelopeViolation::Degree {
                max_degree,
                trained_max: self.max_degree,
            });
        }
        Ok(())
    }

    /// The mean canonical training label `(γ̄, β̄)` — the interpolated
    /// fallback initialization.
    pub fn mean_label(&self) -> (f64, f64) {
        (self.mean_gamma, self.mean_beta)
    }
}

/// Why a run artifact failed to load. Every corruption mode maps to a
/// variant — loading never panics on bad input.
#[derive(Debug)]
pub enum ArtifactError {
    /// A filesystem operation failed.
    Io(io::Error),
    /// The file is not valid JSON or a section failed to decode.
    Json(JsonError),
    /// The file is JSON but not a run artifact.
    Format {
        /// The `format` value found (empty when absent).
        found: String,
    },
    /// The artifact was written by an unsupported schema version.
    Version {
        /// Version the file declares.
        found: u64,
        /// Version this build reads.
        supported: u64,
    },
    /// A required section or its checksum is missing.
    MissingSection(&'static str),
    /// A section's content does not match its stored checksum.
    ChecksumMismatch {
        /// Which section failed verification.
        section: &'static str,
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum of the section as found.
        computed: u64,
    },
    /// The weights decoded but do not fit the declared architecture.
    Weights(WeightError),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact io: {e}"),
            ArtifactError::Json(e) => write!(f, "artifact decode: {e}"),
            ArtifactError::Format { found } => write!(
                f,
                "not a run artifact: format '{found}' (expected '{ARTIFACT_FORMAT}')"
            ),
            ArtifactError::Version { found, supported } => write!(
                f,
                "unsupported artifact version {found} (this build reads {supported})"
            ),
            ArtifactError::MissingSection(section) => {
                write!(f, "artifact is missing section '{section}'")
            }
            ArtifactError::ChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "artifact section '{section}' is corrupt: checksum {computed:#018x} \
                 does not match stored {stored:#018x}"
            ),
            ArtifactError::Weights(e) => write!(f, "artifact weights: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            ArtifactError::Json(e) => Some(e),
            ArtifactError::Weights(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ArtifactError {
    fn from(e: io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

impl From<JsonError> for ArtifactError {
    fn from(e: JsonError) -> Self {
        ArtifactError::Json(e)
    }
}

impl From<WeightError> for ArtifactError {
    fn from(e: WeightError) -> Self {
        ArtifactError::Weights(e)
    }
}

/// The sealed-file layout [`RunArtifact`] and [`TrainCheckpoint`] share:
///
/// ```text
/// { "format": …, "version": …,
///   "sections": { "<name>": …, … },
///   "checksums": { "<name>": <fnv1a of the section's compact JSON> } }
/// ```
///
/// `sections` are required, in serialization order; `optional` names one
/// section that may be absent but is checksummed like the rest when present.
struct SealedFormat<const N: usize> {
    format: &'static str,
    version: u64,
    sections: [&'static str; N],
    optional: Option<&'static str>,
}

impl<const N: usize> SealedFormat<N> {
    /// Section values paired with their names: `sections` order, then the
    /// optional one when present.
    fn named(
        &self,
        values: [Json; N],
        optional: Option<Json>,
    ) -> impl Iterator<Item = (&'static str, Json)> {
        self.sections
            .into_iter()
            .zip(values)
            .chain(self.optional.zip(optional))
    }

    /// Builds the file's JSON tree from section values, checksumming each.
    /// The section trees are moved in, not copied.
    fn seal(&self, values: [Json; N], optional: Option<Json>) -> Json {
        let sections: Vec<(String, Json)> = self
            .named(values, optional)
            .map(|(name, value)| (name.to_string(), value))
            .collect();
        let checksums: Vec<(String, Json)> = sections
            .iter()
            .map(|(name, value)| (name.clone(), Json::uint(checksum(value))))
            .collect();
        Json::Obj(vec![
            ("format".to_string(), Json::Str(self.format.to_string())),
            ("version".to_string(), Json::uint(self.version)),
            ("sections".to_string(), Json::Obj(sections)),
            ("checksums".to_string(), Json::Obj(checksums)),
        ])
    }

    /// The sealed file's bytes, written in one pass: each section's pretty
    /// form goes to the buffer while its checksum folds from the same
    /// tokens (the compact form is the pretty one minus layout). Identical
    /// to `seal(values, optional).to_pretty()` plus a trailing newline.
    fn write(&self, values: [Json; N], optional: Option<Json>) -> Vec<u8> {
        const PRETTY: Option<usize> = Some(2);
        let mut out = Fnv1aSink {
            hash: FNV1A_OFFSET,
            text: Some(String::new()),
        };
        let mut file = ObjWriter::begin(&mut out, PRETTY, 0);
        file.key(&mut out, "format");
        Json::Str(self.format.to_string()).write(&mut out, PRETTY, 1);
        file.key(&mut out, "version");
        Json::uint(self.version).write(&mut out, PRETTY, 1);
        file.key(&mut out, "sections");
        let mut sections = ObjWriter::begin(&mut out, PRETTY, 1);
        let mut checksums = Vec::new();
        for (name, value) in self.named(values, optional) {
            sections.key(&mut out, name);
            out.hash = FNV1A_OFFSET;
            value.write(&mut out, PRETTY, 2);
            checksums.push((name.to_string(), Json::uint(out.hash)));
        }
        sections.end(&mut out);
        file.key(&mut out, "checksums");
        Json::Obj(checksums).write(&mut out, PRETTY, 1);
        file.end(&mut out);
        let mut text = out.text.unwrap_or_default();
        text.push('\n');
        text.into_bytes()
    }

    /// Verifies a sealed tree in the order format → version → section
    /// presence → checksums and returns the verified section trees (the
    /// optional one `None` when absent), ready to decode.
    fn unseal<'a>(
        &self,
        json: &'a Json,
    ) -> Result<([&'a Json; N], Option<&'a Json>), ArtifactError> {
        let format = json
            .get_opt("format")
            .ok()
            .flatten()
            .and_then(|v| v.as_str().ok())
            .unwrap_or("");
        if format != self.format {
            return Err(ArtifactError::Format {
                found: format.to_string(),
            });
        }
        let version = json.get("version")?.as_u64()?;
        if version != self.version {
            return Err(ArtifactError::Version {
                found: version,
                supported: self.version,
            });
        }
        let sections = json.get("sections")?;
        let checksums = json.get("checksums")?;
        let verify = |name: &'static str, section: &'a Json| -> Result<&'a Json, ArtifactError> {
            let stored = checksums
                .get_opt(name)?
                .ok_or(ArtifactError::MissingSection(name))?
                .as_u64()?;
            // Parsing is lossless (shortest-round-trip floats, exact
            // integers), so re-serializing the parsed section reproduces
            // the exact bytes the writer hashed.
            let computed = checksum(section);
            if computed != stored {
                return Err(ArtifactError::ChecksumMismatch {
                    section: name,
                    stored,
                    computed,
                });
            }
            Ok(section)
        };
        let mut verified = [json; N];
        for (slot, name) in verified.iter_mut().zip(self.sections) {
            let section = sections
                .get_opt(name)?
                .ok_or(ArtifactError::MissingSection(name))?;
            *slot = verify(name, section)?;
        }
        let extra = match self.optional {
            Some(name) => sections
                .get_opt(name)?
                .map(|s| verify(name, s))
                .transpose()?,
            None => None,
        };
        Ok((verified, extra))
    }
}

/// A whole training run as one self-describing file: the configuration that
/// produced it, the trained weights (bit-exact), the training history, the
/// labeling report, and a fingerprint of the dataset it was trained on.
///
/// The on-disk layout is versioned JSON:
///
/// ```text
/// {
///   "format": "qaoa-gnn-run-artifact",
///   "version": 1,
///   "sections": { "config": …, "weights": …, "history": …,
///                 "label_report": …, "dataset": {"fingerprint": …} },
///   "checksums": { "<section>": <fnv1a of the section's compact JSON> }
/// }
/// ```
///
/// [`RunArtifact::load`] verifies format, version, and every checksum
/// before decoding, and validates the weights against the declared
/// architecture before any model is constructed — a corrupted, truncated,
/// or mismatched-architecture file fails with a typed [`ArtifactError`],
/// never a panic.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArtifact {
    /// The pipeline configuration the run used.
    pub config: PipelineConfig,
    /// The trained model: architecture, hyper-parameters, and parameters.
    pub weights: ModelWeights,
    /// What training did, epoch by epoch.
    pub history: TrainHistory,
    /// What the labeling stage reported.
    pub label_report: LabelReport,
    /// [`fingerprint_graphs`] of the raw labeled dataset.
    pub dataset_fingerprint: u64,
    /// The training distribution the weights are trustworthy on; `None`
    /// for artifacts written before envelopes existed (the serving layer
    /// then treats every request as out-of-envelope-unknown and says so).
    pub envelope: Option<TrainingEnvelope>,
}

/// The run artifact's sealed layout; `envelope` was added after version 1
/// shipped, so it is optional.
const ARTIFACT_SEAL: SealedFormat<5> = SealedFormat {
    format: ARTIFACT_FORMAT,
    version: ARTIFACT_VERSION,
    sections: ["config", "weights", "history", "label_report", "dataset"],
    optional: Some("envelope"),
};

impl RunArtifact {
    /// The section trees in [`ARTIFACT_SEAL`] order, plus the envelope.
    fn sections(&self) -> ([Json; 5], Option<Json>) {
        let dataset = Json::Obj(vec![(
            "fingerprint".to_string(),
            Json::uint(self.dataset_fingerprint),
        )]);
        (
            [
                self.config.to_json(),
                self.weights.to_json(),
                self.history.to_json(),
                self.label_report.to_json(),
                dataset,
            ],
            self.envelope.as_ref().map(ToJson::to_json),
        )
    }

    /// Builds the artifact's JSON tree, checksumming each section.
    pub fn to_json(&self) -> Json {
        let (values, envelope) = self.sections();
        ARTIFACT_SEAL.seal(values, envelope)
    }

    /// The exact bytes [`Self::save`] writes: the pretty-printed sealed
    /// file and a trailing newline, serialized in one pass.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (values, envelope) = self.sections();
        ARTIFACT_SEAL.write(values, envelope)
    }

    /// Decodes and fully validates an artifact from its JSON tree.
    ///
    /// # Errors
    ///
    /// See [`ArtifactError`]; checks run in order format → version →
    /// section presence → checksums → section decode → weight validation.
    pub fn from_json(json: &Json) -> Result<Self, ArtifactError> {
        let ([config, weights, history, label_report, dataset], envelope) =
            ARTIFACT_SEAL.unseal(json)?;
        let envelope = envelope.map(TrainingEnvelope::from_json).transpose()?;
        let weights = ModelWeights::from_json(weights)?;
        weights.validate()?;
        Ok(RunArtifact {
            config: PipelineConfig::from_json(config)?,
            weights,
            history: TrainHistory::from_json(history)?,
            label_report: LabelReport::from_json(label_report)?,
            dataset_fingerprint: dataset.get("fingerprint")?.as_u64()?,
            envelope,
        })
    }

    /// Writes the artifact to `path` (pretty-printed, fsync'd; parent
    /// directories are created) **atomically**: the bytes go to a `*.tmp`
    /// sibling first and only a durable rename publishes them, so a crash
    /// at any instant leaves either the previous artifact or the new one —
    /// never a torn file.
    ///
    /// # Errors
    ///
    /// Filesystem errors, or an injected [`faults::ARTIFACT_SAVE`] failure
    /// (fired between tmp-write and rename; the previous artifact
    /// survives).
    pub fn save<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        save_artifact_bytes(path.as_ref(), &self.to_bytes())
    }

    /// Reads and fully validates an artifact from `path`.
    ///
    /// # Errors
    ///
    /// Any [`ArtifactError`]: missing file, malformed JSON, wrong format or
    /// version, failed checksum, undecodable section, or weights that do
    /// not fit the declared architecture.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<RunArtifact, ArtifactError> {
        if faults::fire_may_panic(faults::ARTIFACT_LOAD).is_some() {
            return Err(ArtifactError::Io(io::Error::other(
                "fault injected: artifact_load",
            )));
        }
        let text = fs::read_to_string(path)?;
        let json = Json::parse(&text)?;
        Self::from_json(&json)
    }

    /// Reconstructs the trained model (see [`ModelWeights::build_model`]);
    /// its predictions are bit-identical to the model that was saved.
    ///
    /// # Errors
    ///
    /// [`WeightError`] when the weights do not fit the declared
    /// architecture (already checked by [`Self::load`], so this only fails
    /// on artifacts mutated in memory).
    pub fn build_model(&self) -> Result<GnnModel, WeightError> {
        self.weights.build_model()
    }

    /// The architecture this artifact's model uses.
    pub fn kind(&self) -> GnnKind {
        self.weights.kind
    }
}

/// Publishes artifact bytes from [`RunArtifact::to_bytes`] at `path` with
/// [`RunArtifact::save`]'s crash-safe protocol and failpoint, for a caller
/// that already holds the bytes.
pub(crate) fn save_artifact_bytes(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_atomic(path, bytes, Some(faults::ARTIFACT_SAVE))
}

/// Derives a per-architecture artifact path from a base path by inserting
/// the architecture slug before the extension: `run.json` + GAT →
/// `run.gat.json` (or appended when there is no extension). Lets the bench
/// bins save all four architectures from one `--artifact` flag without
/// overwriting.
pub fn artifact_path_for_kind(base: &Path, kind: GnnKind) -> PathBuf {
    let slug = kind_slug(kind);
    match (base.file_stem(), base.extension()) {
        (Some(stem), Some(ext)) => base.with_file_name(format!(
            "{}.{slug}.{}",
            stem.to_string_lossy(),
            ext.to_string_lossy()
        )),
        _ => base.with_file_name(format!(
            "{}.{slug}",
            base.file_name()
                .map(|n| n.to_string_lossy())
                .unwrap_or_default()
        )),
    }
}

fn kind_slug(kind: GnnKind) -> &'static str {
    match kind {
        GnnKind::Gcn => "gcn",
        GnnKind::Gat => "gat",
        GnnKind::Gin => "gin",
        GnnKind::Sage => "sage",
    }
}

// ---------------------------------------------------------------------------
// Training checkpoints
// ---------------------------------------------------------------------------

/// The `format` tag every training checkpoint carries.
pub const TRAIN_CHECKPOINT_FORMAT: &str = "qaoa-gnn-train-checkpoint";

/// Current training-checkpoint schema version. Version 2 stores every
/// matrix of the state as f64 bit patterns; no version 1 reader is kept, so
/// a version 1 file loads as [`ArtifactError::Version`] and the run trains
/// from scratch.
pub const TRAIN_CHECKPOINT_VERSION: u64 = 2;

/// The training checkpoint's sealed layout.
const CHECKPOINT_SEAL: SealedFormat<2> = SealedFormat {
    format: TRAIN_CHECKPOINT_FORMAT,
    version: TRAIN_CHECKPOINT_VERSION,
    sections: ["meta", "state"],
    optional: None,
};

/// Where a run's training checkpoint for `kind` lives inside a checkpoint
/// directory: `train.<slug>.ckpt.json`, one file per architecture so the
/// experiment binaries can train all four in one directory.
pub fn train_checkpoint_path(dir: &Path, kind: GnnKind) -> PathBuf {
    dir.join(format!("train.{}.ckpt.json", kind_slug(kind)))
}

/// The result-affecting identity of a training run, used to bind a
/// [`TrainCheckpoint`] to exactly one `(config, architecture, dataset, RNG
/// position)` tuple. Operational knobs that cannot change results —
/// checkpoint/artifact paths, checkpoint stride, worker-thread counts —
/// are normalized out, so a run may resume with different parallelism or a
/// relocated artifact path; anything else differing means the checkpoint
/// belongs to another run and resuming would silently mix them.
pub fn train_identity(
    kind: GnnKind,
    config: &PipelineConfig,
    dataset_fingerprint: u64,
    rng_state: [u64; 4],
) -> u64 {
    let mut normalized = config.clone();
    normalized.checkpoint_dir = None;
    normalized.artifact_path = None;
    normalized.checkpoint_every = 0;
    normalized.labeling.threads = 0;
    let config_hash = checksum(&normalized.to_json());
    [fnv1a(kind_slug(kind).as_bytes()), dataset_fingerprint]
        .into_iter()
        .chain(rng_state)
        .fold(config_hash, fnv1a_word)
}

/// A mid-training snapshot as one self-describing, checksummed file: the
/// architecture it belongs to, the [`train_identity`] binding it to its
/// run, and the full [`gnn::train::TrainState`] (parameters, Adam moments,
/// scheduler state, divergence-guard snapshot, epoch shuffle, RNG words,
/// history). Written atomically after epoch boundaries so SIGKILL at any
/// instant leaves a loadable checkpoint, and a relaunched run continues
/// bit-identically to one that was never killed.
///
/// The on-disk layout mirrors [`RunArtifact`]:
///
/// ```text
/// {
///   "format": "qaoa-gnn-train-checkpoint",
///   "version": 2,
///   "sections": { "meta": {"kind": …, "identity": …}, "state": … },
///   "checksums": { "<section>": <fnv1a of the section's compact JSON> }
/// }
/// ```
///
/// Unlike the artifact's decimal weights, every matrix in `state` (`params`,
/// `best_params`, Adam's `m` and `v`) is `{"rows", "cols", "bits"}`, where
/// `bits` holds each entry's `f64::to_bits` as 16 lowercase hex digits in
/// row-major order: saving and loading copy exact bits, with no float
/// formatting or parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// The architecture being trained.
    pub kind: GnnKind,
    /// [`train_identity`] of the run that wrote this checkpoint.
    pub identity: u64,
    /// The captured training-loop state.
    pub state: gnn::train::TrainState,
}

impl TrainCheckpoint {
    /// The section trees in [`CHECKPOINT_SEAL`] order.
    fn sections(&self) -> [Json; 2] {
        let meta = Json::Obj(vec![
            ("kind".to_string(), self.kind.to_json()),
            ("identity".to_string(), Json::uint(self.identity)),
        ]);
        [meta, self.state.to_json()]
    }

    /// Builds the checkpoint's JSON tree, checksumming each section.
    pub fn to_json(&self) -> Json {
        CHECKPOINT_SEAL.seal(self.sections(), None)
    }

    /// Decodes and fully validates a checkpoint from its JSON tree.
    ///
    /// # Errors
    ///
    /// See [`ArtifactError`]; checks run format → version → section
    /// presence → checksums → section decode, so a torn, truncated, or
    /// bit-flipped file fails typed, never by panic.
    pub fn from_json(json: &Json) -> Result<Self, ArtifactError> {
        let ([meta, state], _) = CHECKPOINT_SEAL.unseal(json)?;
        Ok(TrainCheckpoint {
            kind: GnnKind::from_json(meta.get("kind")?)?,
            identity: meta.get("identity")?.as_u64()?,
            state: gnn::train::TrainState::from_json(state)?,
        })
    }

    /// Writes the checkpoint to `path` atomically (tmp + fsync + rename +
    /// parent-dir fsync): a crash mid-write leaves the previous checkpoint,
    /// a crash after the rename leaves this one — never a torn file.
    ///
    /// # Errors
    ///
    /// Filesystem errors, or an injected [`faults::CHECKPOINT_WRITE`]
    /// failure (fired between tmp-write and rename).
    pub fn save<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let bytes = CHECKPOINT_SEAL.write(self.sections(), None);
        write_atomic(path.as_ref(), &bytes, Some(faults::CHECKPOINT_WRITE))
    }

    /// Reads and fully validates a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Any [`ArtifactError`]: missing file, malformed JSON, wrong format or
    /// version, failed checksum, or an undecodable section.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<TrainCheckpoint, ArtifactError> {
        let text = fs::read_to_string(path)?;
        let json = Json::parse(&text)?;
        Self::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::LabelConfig;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("qaoa_gnn_store_tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn malformed_label_rows_keep_their_error_messages() {
        let graph = Graph::cycle(3).unwrap();
        let rows = [
            ("0\t1\t0.5", "expected 7 fields, got 3"),
            (
                "0\tx\t0.5\t0.25\t1\t2\t0.5",
                "invalid digit found in string",
            ),
            ("0\t1\t0.5\tzz\t1\t2\t0.5", "invalid float literal"),
            (
                "0\t2\t0.5\t0.25\t1\t2\t0.5",
                "angle count does not match depth",
            ),
        ];
        for (row, message) in rows {
            let e = parse_journal_line(row, std::slice::from_ref(&graph)).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert_eq!(e.to_string(), format!("checkpoint journal: {message}"));
        }
        let e = parse_journal_line("7\t1\t0.5\t0.25\t1\t2\t0.5", &[graph]).unwrap_err();
        assert_eq!(e.to_string(), "checkpoint journal: index 7 out of range");
    }

    fn journal_graphs(seed: u64, count: usize) -> Vec<qgraph::Graph> {
        use qrand::SeedableRng;
        let mut rng = qrand::rngs::StdRng::seed_from_u64(seed);
        (0..count)
            .map(|i| qgraph::generate::erdos_renyi(4 + i % 4, 0.6, &mut rng).unwrap())
            .collect()
    }

    #[test]
    fn journaled_run_matches_straight_through() {
        let graphs = journal_graphs(30, 6);
        let config = LabelConfig::quick(25);
        let dir = temp_dir("journal_clean");
        let journaled = Dataset::resume_labeling(&dir, &graphs, &config, 77).unwrap();
        let straight = Dataset::label_graphs_checked(&graphs, &config, 77);
        assert_eq!(journaled, straight);
        assert!(journaled.1.is_complete());
        // Layout: meta + journal + one graph file per entry.
        assert!(dir.join(JOURNAL_META_FILE).is_file());
        let journal = fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(journal.lines().count(), graphs.len());
        assert!(dir.join("graph_00000.txt").is_file());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_resume_is_bit_identical_and_free() {
        let graphs = journal_graphs(31, 6);
        let config = LabelConfig::quick(25);
        let dir = temp_dir("journal_resume");
        let straight = Dataset::label_graphs_checked(&graphs, &config, 78);
        assert!(straight.1.is_complete());
        // Full checkpointed run, then simulate a kill at the halfway
        // point by keeping only the first half of the journal lines.
        Dataset::resume_labeling(&dir, &graphs, &config, 78).unwrap();
        let journal_path = dir.join(JOURNAL_FILE);
        let full = fs::read_to_string(&journal_path).unwrap();
        let lines: Vec<&str> = full.lines().collect();
        let keep = lines.len() / 2;
        let half: String = lines[..keep].iter().flat_map(|l| [*l, "\n"]).collect();
        fs::write(&journal_path, &half).unwrap();
        let resumed = Dataset::resume_labeling(&dir, &graphs, &config, 78).unwrap();
        assert_eq!(resumed, straight, "resume must be bit-identical");
        // Killed mid-append: the kept half plus a torn (unterminated)
        // fragment of the next record.
        let torn = format!("{half}{}", &lines[keep][..5]);
        fs::write(&journal_path, &torn).unwrap();
        let resumed = Dataset::resume_labeling(&dir, &graphs, &config, 78).unwrap();
        assert_eq!(
            resumed, straight,
            "resume past a torn fragment must be bit-identical"
        );
        // The torn fragment was dropped: one whole record per graph again
        // (workers finish in any order, so compare as sets).
        let mut healed: Vec<String> = fs::read_to_string(&journal_path)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        let mut expected = lines.clone();
        healed.sort();
        expected.sort();
        assert_eq!(healed, expected);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_meta_tmp_does_not_block_resume() {
        let graphs = journal_graphs(36, 4);
        let config = LabelConfig::quick(25);
        let dir = temp_dir("journal_meta_tmp");
        // A kill during the first run's meta write: only a torn tmp file.
        fs::create_dir_all(&dir).unwrap();
        let tmp = dir.join(format!("{JOURNAL_META_FILE}.tmp"));
        fs::write(&tmp, "{\"version\": 1, \"se").unwrap();
        let (resumed, report) = Dataset::resume_labeling(&dir, &graphs, &config, 83).unwrap();
        let (straight, _) = Dataset::label_graphs_checked(&graphs, &config, 83);
        assert_eq!(resumed, straight);
        assert!(report.is_complete());
        assert!(!tmp.exists(), "the meta write commits by rename");
        // The committed meta is whole, so the next open resumes (a no-op).
        let (again, _) = Dataset::resume_labeling(&dir, &graphs, &config, 83).unwrap();
        assert_eq!(again, straight);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_line_is_dropped_and_recomputed() {
        let graphs = journal_graphs(32, 5);
        let config = LabelConfig::quick(25);
        let dir = temp_dir("journal_torn");
        let (straight, _) = Dataset::resume_labeling(&dir, &graphs, &config, 79).unwrap();
        // Chop the journal mid-line: a crash between write and fsync.
        let journal_path = dir.join(JOURNAL_FILE);
        let full = fs::read(&journal_path).unwrap();
        fs::write(&journal_path, &full[..full.len() - 7]).unwrap();
        let (resumed, report) = Dataset::resume_labeling(&dir, &graphs, &config, 79).unwrap();
        assert_eq!(resumed, straight);
        assert!(report.is_complete());
        // The journal is whole again after the resume.
        let again = fs::read(&journal_path).unwrap();
        assert_eq!(again.len(), full.len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_rejects_mismatched_run() {
        let graphs = journal_graphs(33, 4);
        let config = LabelConfig::quick(25);
        let dir = temp_dir("journal_mismatch");
        Dataset::resume_labeling(&dir, &graphs, &config, 80).unwrap();
        // Different seed: refuse.
        let err = Dataset::resume_labeling(&dir, &graphs, &config, 81).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Different graphs (reordered batch shifts every substream): refuse.
        let mut reordered = graphs.clone();
        reordered.swap(0, 1);
        let err = Dataset::resume_labeling(&dir, &reordered, &config, 80).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Different iteration budget: refuse.
        let err = Dataset::resume_labeling(&dir, &graphs, &LabelConfig::quick(26), 80).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The matching run still resumes (as a no-op).
        let (ds, report) = Dataset::resume_labeling(&dir, &graphs, &config, 80).unwrap();
        assert_eq!(ds.len(), graphs.len());
        assert!(report.is_complete());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_rejects_interior_corruption() {
        let graphs = journal_graphs(34, 4);
        let config = LabelConfig::quick(25);
        let dir = temp_dir("journal_interior");
        Dataset::resume_labeling(&dir, &graphs, &config, 82).unwrap();
        let journal_path = dir.join(JOURNAL_FILE);
        let full = fs::read_to_string(&journal_path).unwrap();
        let mut lines: Vec<&str> = full.lines().collect();
        lines[1] = "garbage\tnot\ta\trecord";
        let corrupted: String = lines.iter().flat_map(|l| [*l, "\n"]).collect();
        fs::write(&journal_path, corrupted).unwrap();
        let err = Dataset::resume_labeling(&dir, &graphs, &config, 82).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_is_order_and_structure_sensitive() {
        let graphs = journal_graphs(35, 3);
        let mut reordered = graphs.clone();
        reordered.swap(0, 2);
        assert_ne!(fingerprint_graphs(&graphs), fingerprint_graphs(&reordered));
        assert_eq!(
            fingerprint_graphs(&graphs),
            fingerprint_graphs(&graphs.clone())
        );
        assert_ne!(
            fingerprint_graphs(&graphs),
            fingerprint_graphs(&graphs[..2])
        );
    }

    fn tiny_artifact(kind: GnnKind, seed: u64) -> RunArtifact {
        use qrand::SeedableRng;
        let mut rng = qrand::rngs::StdRng::seed_from_u64(seed);
        let config = gnn::ModelConfig {
            hidden_dim: 4,
            ..gnn::ModelConfig::default()
        };
        let model = GnnModel::new(kind, config, &mut rng);
        RunArtifact {
            config: PipelineConfig::quick(),
            weights: model.export_weights(),
            history: TrainHistory::default(),
            label_report: LabelReport::clean(3),
            dataset_fingerprint: fingerprint_graphs(&journal_graphs(seed, 3)),
            envelope: None,
        }
    }

    #[test]
    fn artifact_save_load_round_trips() {
        let dir = temp_dir("artifact_round_trip");
        for (i, &kind) in GnnKind::ALL.iter().enumerate() {
            let artifact = tiny_artifact(kind, 400 + i as u64);
            let path = artifact_path_for_kind(&dir.join("run.json"), kind);
            artifact.save(&path).unwrap();
            let back = RunArtifact::load(&path).unwrap();
            assert_eq!(artifact, back, "{kind}");
            assert_eq!(back.kind(), kind);
            let g = qgraph::Graph::cycle(5).unwrap();
            assert_eq!(
                artifact.build_model().unwrap().predict(&g),
                back.build_model().unwrap().predict(&g)
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn envelope_round_trips_and_is_checksummed() {
        let mut artifact = tiny_artifact(GnnKind::Gat, 420);
        artifact.envelope = Some(TrainingEnvelope {
            min_nodes: 2,
            max_nodes: 15,
            max_degree: 7,
            feature_dim: 16,
            mean_gamma: 1.25,
            mean_beta: 0.5,
        });
        let dir = temp_dir("artifact_envelope");
        let path = dir.join("run.json");
        artifact.save(&path).unwrap();
        let back = RunArtifact::load(&path).unwrap();
        assert_eq!(artifact, back);
        // Tampering with the envelope section is caught like any other.
        let text = fs::read_to_string(&path).unwrap();
        let tampered = text.replace("\"max_degree\": 7", "\"max_degree\": 99");
        assert_ne!(text, tampered);
        fs::write(&path, tampered).unwrap();
        match RunArtifact::load(&path) {
            Err(ArtifactError::ChecksumMismatch {
                section: "envelope",
                ..
            }) => {}
            other => panic!("expected envelope checksum mismatch, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn envelope_from_dataset_records_bounds_and_mean_label() {
        use crate::dataset::LabelConfig;
        let dataset = Dataset::generate(
            &qgraph::generate::DatasetSpec::with_count(8),
            &LabelConfig::quick(20),
            21,
        )
        .unwrap();
        let env = TrainingEnvelope::from_dataset(&dataset, 16).unwrap();
        assert!(env.min_nodes <= env.max_nodes);
        assert!(env.max_degree < env.max_nodes);
        assert_eq!(env.feature_dim, 16);
        let (g, b) = env.mean_label();
        assert!(g.is_finite() && b.is_finite());
        // Canonical means live in the principal domain.
        assert!((0.0..=std::f64::consts::TAU).contains(&g));
        assert!((0.0..=std::f64::consts::FRAC_PI_2).contains(&b));
        // In-envelope graphs pass, out-of-envelope ones name the violation.
        assert!(env.check(&dataset.entries[0].graph).is_ok());
        let big = qgraph::Graph::cycle(env.max_nodes + 5).unwrap();
        assert!(matches!(
            env.check(&big),
            Err(EnvelopeViolation::NodeCount { .. })
        ));
        // Empty dataset: no envelope.
        assert!(TrainingEnvelope::from_dataset(&Dataset { entries: vec![] }, 16).is_none());
    }

    /// The one-pass writer against the sealed tree it replaces: the same
    /// bytes, with and without the optional section.
    #[test]
    fn one_pass_bytes_match_pretty_sealed_tree() {
        let pretty = |json: Json| format!("{}\n", json.to_pretty()).into_bytes();
        let mut artifact = tiny_artifact(GnnKind::Sage, 430);
        artifact
            .label_report
            .failures
            .push(crate::dataset::LabelFailure {
                index: 1,
                reason: crate::dataset::LabelFailureReason::Panic("tab\there \"q\" \u{1}".into()),
                recovered: false,
            });
        assert_eq!(artifact.to_bytes(), pretty(artifact.to_json()));
        artifact.envelope = Some(TrainingEnvelope {
            min_nodes: 2,
            max_nodes: 15,
            max_degree: 7,
            feature_dim: 16,
            mean_gamma: -0.0,
            mean_beta: 1e-300,
        });
        assert_eq!(artifact.to_bytes(), pretty(artifact.to_json()));
        let checkpoint = TrainCheckpoint {
            kind: GnnKind::Gat,
            identity: u64::MAX,
            state: gnn::train::TrainState {
                next_epoch: 0,
                done: false,
                params: artifact.weights.params.clone(),
                optimizer: tensor::optim::Adam::new(0.01).export_state(),
                scheduler: tensor::sched::PlateauState {
                    best: None,
                    bad_epochs: 0,
                },
                best_loss: f64::INFINITY,
                best_params: artifact.weights.params.clone(),
                order: vec![2, 0, 1],
                rng_state: [1, 2, 3, 4],
                history: TrainHistory::default(),
            },
        };
        let dir = temp_dir("one_pass_checkpoint");
        let path = dir.join("ckpt.json");
        checkpoint.save(&path).unwrap();
        assert_eq!(fs::read(&path).unwrap(), pretty(checkpoint.to_json()));
        assert_eq!(TrainCheckpoint::load(&path).unwrap(), checkpoint);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn artifact_load_missing_file_is_io() {
        match RunArtifact::load("/definitely/not/an/artifact.json") {
            Err(ArtifactError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn artifact_rejects_wrong_format_and_version() {
        match RunArtifact::from_json(&Json::parse(r#"{"hello": 1}"#).unwrap()) {
            Err(ArtifactError::Format { found }) => assert!(found.is_empty()),
            other => panic!("expected Format error, got {other:?}"),
        }
        let mut json = tiny_artifact(GnnKind::Gcn, 410).to_json();
        if let Json::Obj(fields) = &mut json {
            for (k, v) in fields.iter_mut() {
                if k == "version" {
                    *v = Json::uint(99);
                }
            }
        }
        match RunArtifact::from_json(&json) {
            Err(ArtifactError::Version {
                found: 99,
                supported,
            }) => {
                assert_eq!(supported, ARTIFACT_VERSION);
            }
            other => panic!("expected Version error, got {other:?}"),
        }
    }

    #[test]
    fn artifact_detects_tampered_section() {
        let dir = temp_dir("artifact_tamper");
        let path = dir.join("run.json");
        tiny_artifact(GnnKind::Gin, 411).save(&path).unwrap();
        // Flip one weight digit without updating the checksum.
        let text = fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("0.0", "0.5", 1);
        assert_ne!(text, tampered, "fixture must contain a 0.0 to tamper");
        fs::write(&path, tampered).unwrap();
        match RunArtifact::load(&path) {
            Err(ArtifactError::ChecksumMismatch { .. } | ArtifactError::Json(_)) => {}
            other => panic!("expected corruption error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn artifact_rejects_arch_mismatch_typed() {
        // Declare GAT but carry GCN-shaped parameters: the weight validator
        // must reject before any model exists.
        let mut artifact = tiny_artifact(GnnKind::Gcn, 412);
        artifact.weights.kind = GnnKind::Gat;
        let dir = temp_dir("artifact_mismatch");
        let path = dir.join("run.json");
        artifact.save(&path).unwrap();
        match RunArtifact::load(&path) {
            Err(ArtifactError::Weights(
                WeightError::ParamCount { .. } | WeightError::ShapeMismatch { .. },
            )) => {}
            other => panic!("expected Weights error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn artifact_rejects_missing_section() {
        let mut json = tiny_artifact(GnnKind::Sage, 413).to_json();
        if let Json::Obj(fields) = &mut json {
            for (k, v) in fields.iter_mut() {
                if k == "sections" {
                    if let Json::Obj(sections) = v {
                        sections.retain(|(name, _)| name != "history");
                    }
                }
            }
        }
        match RunArtifact::from_json(&json) {
            Err(ArtifactError::MissingSection("history")) => {}
            other => panic!("expected MissingSection, got {other:?}"),
        }
    }

    #[test]
    fn artifact_path_per_kind_is_distinct() {
        let base = PathBuf::from("/tmp/runs/model.json");
        let paths: Vec<PathBuf> = GnnKind::ALL
            .iter()
            .map(|&k| artifact_path_for_kind(&base, k))
            .collect();
        assert_eq!(paths[1], PathBuf::from("/tmp/runs/model.gcn.json"));
        for (i, a) in paths.iter().enumerate() {
            for b in &paths[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Extension-less base still gets a distinct name.
        assert_eq!(
            artifact_path_for_kind(&PathBuf::from("model"), GnnKind::Gat),
            PathBuf::from("model.gat")
        );
    }

    // Golden pins: values recorded before the FNV-1a and sealed-file code
    // was consolidated. Journals, checkpoint identities and artifacts on
    // disk hold these digests, so any change here breaks compatibility.

    fn pin_graphs() -> Vec<Graph> {
        let mut weighted = Graph::empty(4).unwrap();
        weighted.add_edge(0, 1, 0.5).unwrap();
        weighted.add_edge(1, 2, -1.25).unwrap();
        weighted.add_edge(2, 3, 3.0).unwrap();
        vec![
            Graph::cycle(5).unwrap(),
            Graph::complete(4).unwrap(),
            weighted,
        ]
    }

    fn pin_model_config() -> gnn::ModelConfig {
        gnn::ModelConfig {
            hidden_dim: 4,
            ..gnn::ModelConfig::default()
        }
    }

    fn saved_bytes(name: &str, save: impl FnOnce(&Path) -> io::Result<()>) -> Vec<u8> {
        let dir = temp_dir(name);
        let path = dir.join("pin.json");
        save(&path).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        bytes
    }

    #[test]
    fn fnv1a_matches_golden_values() {
        let buffer: Vec<u8> = (0..1024u32)
            .map(|i| (i.wrapping_mul(37) ^ (i >> 3)) as u8)
            .collect();
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(&buffer), 0x3132_fed4_99d8_7825);
        // A running digest over split input equals the one-shot hash.
        assert_eq!(
            fnv1a_extend(fnv1a(&buffer[..300]), &buffer[300..]),
            fnv1a(&buffer)
        );
    }

    #[test]
    fn fingerprint_and_identity_match_golden_values() {
        assert_eq!(fingerprint_graphs(&pin_graphs()), 0xce02_3fc8_05a6_cb22);
        let identity = train_identity(
            GnnKind::Sage,
            &PipelineConfig::quick(),
            0x00c0_ffee,
            [1, 2, 3, 4],
        );
        assert_eq!(identity, 0xb4a1_f3fa_2bd5_0178);
    }

    #[test]
    fn saved_artifact_bytes_match_golden_digest() {
        use qrand::SeedableRng;
        let mut rng = qrand::rngs::StdRng::seed_from_u64(2024);
        let model = GnnModel::new(GnnKind::Gcn, pin_model_config(), &mut rng);
        let artifact = RunArtifact {
            config: PipelineConfig::quick(),
            weights: model.export_weights(),
            history: TrainHistory::default(),
            label_report: LabelReport::clean(3),
            dataset_fingerprint: fingerprint_graphs(&pin_graphs()),
            envelope: Some(TrainingEnvelope {
                min_nodes: 3,
                max_nodes: 9,
                max_degree: 4,
                feature_dim: 16,
                mean_gamma: 0.75,
                mean_beta: 0.375,
            }),
        };
        let bytes = saved_bytes("pin_artifact", |path| artifact.save(path));
        assert_eq!((bytes.len(), fnv1a(&bytes)), (6241, 0xef1f_d7fa_6516_cba9));
    }

    /// The state a two-epoch `kind` run on the pin graphs checkpoints last:
    /// it has been through every backward path that architecture trains
    /// through (dropout is on) and the Adam step.
    fn pin_checkpoint_state(kind: GnnKind) -> gnn::train::TrainState {
        use qrand::SeedableRng;
        let mut rng = qrand::rngs::StdRng::seed_from_u64(2025);
        let config = pin_model_config();
        let model = GnnModel::new(kind, config.clone(), &mut rng);
        let examples: Vec<gnn::train::Example> = pin_graphs()
            .iter()
            .enumerate()
            .map(|(i, g)| gnn::train::Example {
                context: gnn::GraphContext::new(g, &config.features, config.gin_eps),
                target: [0.2 + 0.1 * i as f64, 0.7 - 0.1 * i as f64],
            })
            .collect();
        let mut last = None;
        let train_config = gnn::train::TrainConfig::quick(2);
        gnn::train::train_resumable(&model, &examples, &train_config, &mut rng, None, 1, |s| {
            last = Some(s.clone());
            Ok(())
        })
        .unwrap();
        last.unwrap()
    }

    /// Bytes of the checkpoint that saves [`pin_checkpoint_state`]: pins
    /// the training arithmetic and the sealed writer together.
    fn saved_checkpoint_digest(kind: GnnKind) -> (usize, u64) {
        let checkpoint = TrainCheckpoint {
            kind,
            identity: 0x0123_4567_89ab_cdef,
            state: pin_checkpoint_state(kind),
        };
        let bytes = saved_bytes("pin_checkpoint", |path| checkpoint.save(path));
        (bytes.len(), fnv1a(&bytes))
    }

    #[test]
    fn saved_checkpoint_bytes_match_golden_digest() {
        let pins = [
            (GnnKind::Gcn, 11261, 0x3e3c_5cf2_17f9_e105),
            (GnnKind::Gat, 14251, 0xb3f7_33d8_78cb_b466),
            (GnnKind::Gin, 17288, 0x4267_cafe_ca6b_0a85),
            (GnnKind::Sage, 20917, 0xf73d_85b2_396e_2112),
        ];
        for (kind, len, digest) in pins {
            assert_eq!(saved_checkpoint_digest(kind), (len, digest), "{kind}");
        }
    }

    /// FNV-1a words over every bit of [`pin_checkpoint_state`], independent
    /// of how a checkpoint encodes them: a change to the file format leaves
    /// this digest alone, a change to the training arithmetic does not.
    fn state_bits_digest(kind: GnnKind) -> u64 {
        use tensor::Matrix;
        fn matrix(hash: u64, m: &Matrix) -> u64 {
            [m.rows() as u64, m.cols() as u64]
                .into_iter()
                .chain(m.data().iter().map(|v| v.to_bits()))
                .fold(hash, fnv1a_word)
        }
        fn moments(hash: u64, moments: &[(usize, Matrix)]) -> u64 {
            moments
                .iter()
                .fold(fnv1a_word(hash, moments.len() as u64), |h, (i, m)| {
                    matrix(fnv1a_word(h, *i as u64), m)
                })
        }
        fn matrices(hash: u64, ms: &[Matrix]) -> u64 {
            ms.iter().fold(fnv1a_word(hash, ms.len() as u64), matrix)
        }
        let s = pin_checkpoint_state(kind);
        let mut h = [
            s.next_epoch as u64,
            u64::from(s.done),
            s.best_loss.to_bits(),
        ]
        .into_iter()
        .chain([s.order.len() as u64])
        .chain(s.order.iter().map(|&i| i as u64))
        .chain(s.rng_state)
        .fold(FNV1A_OFFSET, fnv1a_word);
        h = matrices(h, &s.params);
        h = matrices(h, &s.best_params);
        let adam = &s.optimizer;
        h = [
            adam.t,
            adam.lr.to_bits(),
            adam.beta1.to_bits(),
            adam.beta2.to_bits(),
        ]
        .into_iter()
        .chain([adam.eps.to_bits(), adam.weight_decay.to_bits()])
        .fold(h, fnv1a_word);
        h = moments(h, &adam.m);
        h = moments(h, &adam.v);
        let best = s.scheduler.best.map_or(u64::MAX, f64::to_bits);
        h = [
            u64::from(s.scheduler.best.is_some()),
            best,
            s.scheduler.bad_epochs as u64,
        ]
        .into_iter()
        .fold(h, fnv1a_word);
        h = s
            .history
            .epochs
            .iter()
            .flat_map(|e| {
                [
                    e.epoch as u64,
                    e.train_loss.to_bits(),
                    e.learning_rate.to_bits(),
                ]
            })
            .chain([s.history.epochs.len() as u64])
            .fold(h, fnv1a_word);
        match &s.history.diverged {
            Some(event) => [1, event.epoch as u64, event.loss.to_bits()]
                .into_iter()
                .fold(h, fnv1a_word),
            None => fnv1a_word(h, 0),
        }
    }

    #[test]
    fn checkpoint_state_bits_match_golden_digest() {
        let pins = [
            (GnnKind::Gcn, 0xbaf9_6502_986a_da1c),
            (GnnKind::Gat, 0x3b38_2a2a_7d68_b0be),
            (GnnKind::Gin, 0xe127_9d8f_c90f_8bb5),
            (GnnKind::Sage, 0xf605_3fb9_e38a_b072),
        ];
        for (kind, digest) in pins {
            assert_eq!(state_bits_digest(kind), digest, "{kind}");
        }
    }
}
