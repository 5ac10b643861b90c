//! Dataset generation and QAOA labeling (§3.1).
//!
//! "We generate synthetic regular graphs comprising 9598 instances and
//! simulate the parameters γ and β for the QAOA algorithm. ... The
//! algorithm starts with randomly initialized values of γ and β, and then
//! undergoes a process of optimization over 500 iterations. ... It also
//! provides an approximation ratio (AR) for these solutions compared to the
//! optimal solutions derived from a brute-force search approach."

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use qrand::rngs::StdRng;
use qrand::{Rng, SeedableRng};

use qaoa::optimize::NelderMead;
use qaoa::warm_start::{self, InitStrategy};
use qaoa::{Evaluator, MaxCutHamiltonian, Params, QaoaCircuit};
use qgraph::generate::DatasetSpec;
use qgraph::Graph;

/// One labeled instance: a graph plus the QAOA outcome that labels it.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledGraph {
    /// The problem instance.
    pub graph: Graph,
    /// The optimized parameters — the GNN's regression target.
    pub params: Params,
    /// Expectation `⟨C⟩` at [`Self::params`].
    pub expectation: f64,
    /// Brute-force optimal cut value.
    pub optimal: f64,
    /// `expectation / optimal` — the label quality the SDP filter reads.
    pub approx_ratio: f64,
}

/// A labeled dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    /// The labeled instances.
    pub entries: Vec<LabeledGraph>,
}

/// Typed errors from dataset operations that used to assert-panic.
#[derive(Debug)]
pub enum DatasetError {
    /// `split` was asked to hold out at least as many entries as exist.
    SplitTooLarge {
        /// Requested held-out size.
        test_size: usize,
        /// Dataset size it was requested from.
        len: usize,
    },
    /// The generator spec was invalid.
    InvalidSpec(qgraph::GraphError),
    /// A checkpoint/journal filesystem operation failed.
    Io(std::io::Error),
    /// Labeling finished with unrecovered failures under
    /// [`FailurePolicy::Halt`].
    LabelingFailed(LabelReport),
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::SplitTooLarge { test_size, len } => {
                write!(f, "test size {test_size} must be below dataset size {len}")
            }
            DatasetError::InvalidSpec(e) => write!(f, "invalid dataset spec: {e}"),
            DatasetError::Io(e) => write!(f, "checkpoint io: {e}"),
            DatasetError::LabelingFailed(report) => write!(
                f,
                "labeling failed for {} of {} graphs (indices {:?})",
                report.unrecovered().len(),
                report.total,
                report.unrecovered()
            ),
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<std::io::Error> for DatasetError {
    fn from(e: std::io::Error) -> Self {
        DatasetError::Io(e)
    }
}

impl From<qgraph::GraphError> for DatasetError {
    fn from(e: qgraph::GraphError) -> Self {
        DatasetError::InvalidSpec(e)
    }
}

/// Why one graph failed to label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelFailureReason {
    /// The labeler panicked; carries the panic message.
    Panic(String),
    /// The optimized label contained a non-finite value; carries the name
    /// of the offending field.
    NonFinite(String),
}

impl std::fmt::Display for LabelFailureReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabelFailureReason::Panic(msg) => write!(f, "panic: {msg}"),
            LabelFailureReason::NonFinite(what) => write!(f, "non-finite {what}"),
        }
    }
}

/// One recorded labeling failure (first-attempt reason plus retry result).
#[derive(Debug, Clone, PartialEq)]
pub struct LabelFailure {
    /// Index of the graph in the input batch.
    pub index: usize,
    /// Why the first attempt failed.
    pub reason: LabelFailureReason,
    /// `true` when the retry with a fresh RNG substream produced a valid
    /// label (the dataset then contains the retried label).
    pub recovered: bool,
}

/// Summary of a checked labeling run: what succeeded, what failed and why.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LabelReport {
    /// Number of graphs in the batch.
    pub total: usize,
    /// Number of graphs that produced a label (including retries and
    /// journal-restored entries on resume).
    pub labeled: usize,
    /// Every first-attempt failure, in input order.
    pub failures: Vec<LabelFailure>,
}

impl LabelReport {
    /// A report for a fully successful batch of `total` graphs.
    pub fn clean(total: usize) -> Self {
        LabelReport {
            total,
            labeled: total,
            failures: Vec::new(),
        }
    }

    /// Indices that stayed unlabeled even after the retry.
    pub fn unrecovered(&self) -> Vec<usize> {
        self.failures
            .iter()
            .filter(|f| !f.recovered)
            .map(|f| f.index)
            .collect()
    }

    /// `true` when every graph ended up labeled (possibly via retry).
    pub fn is_complete(&self) -> bool {
        self.labeled == self.total
    }
}

/// What a pipeline does when labeling reports unrecovered failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Drop the failed graphs and continue with the labeled subset (the
    /// report still records every failure).
    #[default]
    Skip,
    /// Abort the run: a paper-quality dataset must be complete.
    Halt,
}

/// Labeling configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelConfig {
    /// QAOA depth `p` (the paper predicts one `(γ, β)` pair: p = 1).
    pub depth: usize,
    /// Optimizer iteration budget per graph (paper: 500).
    pub iterations: usize,
    /// Worker threads for parallel labeling.
    pub threads: usize,
}

impl Default for LabelConfig {
    fn default() -> Self {
        LabelConfig {
            depth: 1,
            iterations: 500,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }
}

impl LabelConfig {
    /// A scaled-down configuration for tests and CI-sized benches.
    pub fn quick(iterations: usize) -> Self {
        LabelConfig {
            iterations,
            ..LabelConfig::default()
        }
    }

    /// Builder-style: sets the QAOA depth `p`.
    pub fn with_depth(mut self, depth: usize) -> Self {
        self.depth = depth;
        self
    }

    /// Builder-style: sets the optimizer iteration budget per graph.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Builder-style: sets the worker-thread count for parallel labeling.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Labels one graph: random init, `iterations` of Nelder–Mead, AR against
/// brute force — exactly the paper's §3.1 recipe.
pub fn label_graph<R: Rng + ?Sized>(
    graph: &Graph,
    config: &LabelConfig,
    rng: &mut R,
) -> LabeledGraph {
    let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(graph));
    // One evaluator carries the whole label: the optimization trace, the
    // canonicalization probes, and the final expectation all run in the
    // same scratch state vector — zero state-vector allocations past here.
    let mut evaluator = Evaluator::new(&circuit);
    let optimizer = NelderMead::new(config.iterations);
    let outcome = warm_start::run_with(
        &mut evaluator,
        Params::random(config.depth, rng),
        InitStrategy::Random,
        &optimizer,
        rng,
    );
    // Fold the optimum into the graph-aware fundamental domain so that
    // equal-quality mirror optima produce one label cluster, not two.
    let (params, expectation) = evaluator.canonical_label(&outcome.final_params);
    let hamiltonian = circuit.hamiltonian();
    LabeledGraph {
        graph: graph.clone(),
        params,
        expectation,
        optimal: hamiltonian.optimal_value(),
        approx_ratio: hamiltonian.approximation_ratio(expectation),
    }
}

/// Checks every numeric field of a label for finiteness.
fn validate_label(label: &LabeledGraph) -> Result<(), LabelFailureReason> {
    let non_finite = |what: &str| Err(LabelFailureReason::NonFinite(what.to_string()));
    if label.params.to_flat().iter().any(|v| !v.is_finite()) {
        return non_finite("params");
    }
    if !label.expectation.is_finite() {
        return non_finite("expectation");
    }
    if !label.optimal.is_finite() {
        return non_finite("optimal");
    }
    if !label.approx_ratio.is_finite() {
        return non_finite("approx_ratio");
    }
    Ok(())
}

/// Seed salt for the automatic fresh-seed retry of a failed graph. The
/// retry stream is deterministic in `(seed, index)`, so retried labels are
/// bit-identical between interrupted-and-resumed and straight-through runs.
const RETRY_SALT: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// The checked labeling engine: labels `todo` indices of `graphs` on the
/// shared-queue worker pool, isolating each graph behind `catch_unwind`,
/// validating finiteness, retrying failures once on a fresh RNG substream,
/// and pushing every completed label through `sink` (the journal hook) from
/// the worker that produced it.
///
/// Completed `(index, label)` pairs (unordered) plus recorded failures.
type LabeledBatch = (Vec<(usize, LabeledGraph)>, Vec<LabelFailure>);

/// Returns completed `(index, label)` pairs (unordered) plus the recorded
/// failures. `sink` errors abort the batch.
fn label_indices_checked(
    labeler: &(dyn Fn(&Graph, &LabelConfig, &mut StdRng) -> LabeledGraph + Sync),
    graphs: &[Graph],
    todo: &[usize],
    config: &LabelConfig,
    seed: u64,
    sink: &(dyn Fn(usize, &LabeledGraph) -> std::io::Result<()> + Sync),
) -> std::io::Result<LabeledBatch> {
    if todo.is_empty() {
        return Ok((Vec::new(), Vec::new()));
    }
    let threads = worker_count(config.threads, todo.len());
    let next = AtomicUsize::new(0);
    let sink_error: Mutex<Option<std::io::Error>> = Mutex::new(None);
    let mut per_worker: Vec<LabeledBatch> = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let sink_error = &sink_error;
                scope.spawn(move || {
                    let mut labeled = Vec::new();
                    let mut failures = Vec::new();
                    loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        if slot >= todo.len() {
                            break;
                        }
                        if sink_error.lock().expect("sink error lock").is_some() {
                            break; // journal is broken; stop cleanly
                        }
                        let index = todo[slot];
                        let attempt = |salt: u64| -> Result<LabeledGraph, LabelFailureReason> {
                            let mut rng = StdRng::substream(seed ^ salt, index as u64);
                            match std::panic::catch_unwind(AssertUnwindSafe(|| {
                                labeler(&graphs[index], config, &mut rng)
                            })) {
                                Ok(label) => validate_label(&label).map(|()| label),
                                Err(payload) => Err(LabelFailureReason::Panic(
                                    crate::serve::panic_message(payload.as_ref()),
                                )),
                            }
                        };
                        let label = match attempt(0) {
                            Ok(label) => Some(label),
                            Err(reason) => {
                                let retried = attempt(RETRY_SALT);
                                let recovered = retried.is_ok();
                                failures.push(LabelFailure {
                                    index,
                                    reason,
                                    recovered,
                                });
                                retried.ok()
                            }
                        };
                        if let Some(label) = label {
                            if let Err(e) = sink(index, &label) {
                                *sink_error.lock().expect("sink error lock") = Some(e);
                                break;
                            }
                            labeled.push((index, label));
                        }
                    }
                    (labeled, failures)
                })
            })
            .collect();
        per_worker = workers
            .into_iter()
            .map(|w| w.join().expect("checked labeling worker never panics"))
            .collect();
    });
    if let Some(e) = sink_error.into_inner().expect("sink error lock") {
        return Err(e);
    }
    let mut labeled = Vec::new();
    let mut failures = Vec::new();
    for (l, f) in per_worker {
        labeled.extend(l);
        failures.extend(f);
    }
    failures.sort_by_key(|f| f.index);
    Ok((labeled, failures))
}

/// The one labeling driver behind [`Dataset::label_graphs_checked_with`]
/// and the journaled [`Dataset::resume_labeling`]: labels every index of
/// `graphs` not already in `done` (labels a previous run journaled) and
/// assembles the ordered dataset and report.
pub(crate) fn label_batch(
    labeler: &(dyn Fn(&Graph, &LabelConfig, &mut StdRng) -> LabeledGraph + Sync),
    graphs: &[Graph],
    done: Vec<(usize, LabeledGraph)>,
    config: &LabelConfig,
    seed: u64,
    sink: &(dyn Fn(usize, &LabeledGraph) -> std::io::Result<()> + Sync),
) -> std::io::Result<(Dataset, LabelReport)> {
    let mut is_done = vec![false; graphs.len()];
    for &(index, _) in &done {
        is_done[index] = true;
    }
    let todo: Vec<usize> = (0..graphs.len()).filter(|&index| !is_done[index]).collect();
    let (fresh, failures) = label_indices_checked(labeler, graphs, &todo, config, seed, sink)?;
    let mut labeled = done;
    labeled.extend(fresh);
    Ok(Dataset::assemble(graphs.len(), labeled, failures))
}

/// Effective worker count for `items` work items when the configuration
/// asks for `requested` threads: at least one worker, and never more
/// workers than items (spawning idle threads for tiny datasets costs more
/// than it saves).
pub fn worker_count(requested: usize, items: usize) -> usize {
    requested.max(1).min(items.max(1))
}

impl Dataset {
    /// Labels a batch of graphs in parallel. Each graph gets its own RNG
    /// substream derived from `seed` and its index, so results are
    /// bit-identical for a given seed regardless of the thread count, and
    /// keep input order.
    ///
    /// Workers pull indices from a shared queue rather than owning fixed
    /// chunks: labeling cost grows as `2^n`, so a paper-shaped batch mixes
    /// microsecond 2-node graphs with millisecond 15-node ones, and static
    /// chunking would leave every other worker idle behind whichever chunk
    /// drew the large graphs.
    pub fn label_graphs(graphs: &[Graph], config: &LabelConfig, seed: u64) -> Dataset {
        let (dataset, report) = Self::label_graphs_checked(graphs, config, seed);
        assert!(
            report.is_complete(),
            "labeling failed for graph indices {:?}",
            report.unrecovered()
        );
        dataset
    }

    /// [`Self::label_graphs`] with per-graph fault isolation: a panicking
    /// labeler or a diverged (NaN) optimization yields a recorded
    /// [`LabelFailure`] instead of aborting the batch. Each failed graph is
    /// retried once on a fresh deterministic RNG substream; unrecovered
    /// graphs are simply absent from the returned dataset (their indices
    /// are in [`LabelReport::unrecovered`]).
    ///
    /// Successful labels are bit-identical to [`Self::label_graphs`] with
    /// the same seed and config.
    pub fn label_graphs_checked(
        graphs: &[Graph],
        config: &LabelConfig,
        seed: u64,
    ) -> (Dataset, LabelReport) {
        Self::label_graphs_checked_with(&label_graph, graphs, config, seed)
    }

    /// [`Self::label_graphs_checked`] with a caller-supplied labeler — the
    /// fault-injection seam the robustness tests use (a labeler may panic
    /// or return non-finite labels; both become recorded failures).
    pub fn label_graphs_checked_with(
        labeler: &(dyn Fn(&Graph, &LabelConfig, &mut StdRng) -> LabeledGraph + Sync),
        graphs: &[Graph],
        config: &LabelConfig,
        seed: u64,
    ) -> (Dataset, LabelReport) {
        label_batch(labeler, graphs, Vec::new(), config, seed, &|_, _| Ok(()))
            .expect("no-op sink cannot fail")
    }

    /// Builds the ordered dataset + report from engine output.
    fn assemble(
        total: usize,
        labeled: Vec<(usize, LabeledGraph)>,
        failures: Vec<LabelFailure>,
    ) -> (Dataset, LabelReport) {
        let mut entries: Vec<Option<LabeledGraph>> = vec![None; total];
        for (index, entry) in labeled {
            entries[index] = Some(entry);
        }
        let dataset = Dataset {
            entries: entries.into_iter().flatten().collect(),
        };
        let report = LabelReport {
            total,
            labeled: dataset.len(),
            failures,
        };
        (dataset, report)
    }

    /// Generates `spec.count` graphs and labels them.
    ///
    /// # Errors
    ///
    /// Propagates generator errors from an invalid `spec`.
    pub fn generate(
        spec: &DatasetSpec,
        config: &LabelConfig,
        seed: u64,
    ) -> Result<Dataset, qgraph::GraphError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let graphs = spec.generate(&mut rng)?;
        Ok(Self::label_graphs(&graphs, config, seed ^ 0x9e37_79b9))
    }

    /// Fault-tolerant [`Self::generate`]: generates `spec.count` graphs and
    /// labels them through the checked engine, optionally journaling every
    /// completed label into `checkpoint` so an interrupted run resumes for
    /// free (see [`crate::store`] and `Dataset::resume_labeling`).
    ///
    /// # Errors
    ///
    /// [`DatasetError::InvalidSpec`] for a bad spec, [`DatasetError::Io`]
    /// for journal filesystem failures.
    pub fn generate_checked(
        spec: &DatasetSpec,
        config: &LabelConfig,
        seed: u64,
        checkpoint: Option<&std::path::Path>,
    ) -> Result<(Dataset, LabelReport), DatasetError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let graphs = spec.generate(&mut rng)?;
        let label_seed = seed ^ 0x9e37_79b9;
        match checkpoint {
            Some(dir) => Ok(Self::resume_labeling(dir, &graphs, config, label_seed)?),
            None => Ok(Self::label_graphs_checked(&graphs, config, label_seed)),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the dataset has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Mean approximation ratio over the dataset (label quality, Figs. 3–4).
    pub fn mean_approx_ratio(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.entries.iter().map(|e| e.approx_ratio).sum::<f64>() / self.entries.len() as f64
    }

    /// `(graph size, AR)` observations for Figure 3.
    pub fn ar_by_size(&self) -> Vec<(usize, f64)> {
        self.entries
            .iter()
            .map(|e| (e.graph.n(), e.approx_ratio))
            .collect()
    }

    /// `(degree, AR)` observations for Figure 4 (regular graphs report their
    /// degree; irregular graphs report their maximum degree).
    pub fn ar_by_degree(&self) -> Vec<(usize, f64)> {
        self.entries
            .iter()
            .map(|e| {
                let d = e.graph.regular_degree().unwrap_or(e.graph.max_degree());
                (d, e.approx_ratio)
            })
            .collect()
    }

    /// Splits into `(train, test)` with `test_size` entries held out from the
    /// end after a seeded shuffle.
    ///
    /// # Errors
    ///
    /// [`DatasetError::SplitTooLarge`] if `test_size >= len` (the train
    /// side would be empty).
    pub fn split(&self, test_size: usize, seed: u64) -> Result<(Dataset, Dataset), DatasetError> {
        if test_size >= self.len() {
            return Err(DatasetError::SplitTooLarge {
                test_size,
                len: self.len(),
            });
        }
        use qrand::seq::SliceRandom;
        let mut entries = self.entries.clone();
        entries.shuffle(&mut StdRng::seed_from_u64(seed));
        let train = entries[..entries.len() - test_size].to_vec();
        let test = entries[entries.len() - test_size..].to_vec();
        Ok((Dataset { entries: train }, Dataset { entries: test }))
    }
}

impl FromIterator<LabeledGraph> for Dataset {
    fn from_iter<I: IntoIterator<Item = LabeledGraph>>(iter: I) -> Self {
        Dataset {
            entries: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> LabelConfig {
        LabelConfig::quick(40)
    }

    #[test]
    fn worker_count_clamps_to_items() {
        assert_eq!(worker_count(8, 3), 3); // never more workers than items
        assert_eq!(worker_count(2, 100), 2); // respects the request
        assert_eq!(worker_count(0, 5), 1); // at least one worker
        assert_eq!(worker_count(4, 0), 1); // empty input still well-defined
        assert_eq!(worker_count(4, 4), 4);
    }

    #[test]
    fn label_config_builder_chains() {
        let config = LabelConfig::quick(200).with_depth(2).with_threads(3);
        assert_eq!(config.depth, 2);
        assert_eq!(config.iterations, 200);
        assert_eq!(config.threads, 3);
        let rebudgeted = config.clone().with_iterations(50);
        assert_eq!(rebudgeted.iterations, 50);
        assert_eq!(rebudgeted.depth, 2);
    }

    #[test]
    fn labeling_empty_batch_returns_empty_dataset() {
        let ds = Dataset::label_graphs(&[], &quick_config(), 1);
        assert!(ds.is_empty());
    }

    #[test]
    fn oversubscribed_thread_config_still_labels_everything() {
        let mut rng = StdRng::seed_from_u64(42);
        let graphs: Vec<Graph> = (3..6)
            .map(|n| qgraph::generate::erdos_renyi(n, 0.6, &mut rng).unwrap())
            .collect();
        let config = LabelConfig {
            threads: 64, // far more threads than the 3 work items
            ..quick_config()
        };
        let ds = Dataset::label_graphs(&graphs, &config, 9);
        assert_eq!(ds.len(), graphs.len());
        // Same answer as the serial-ish default config with the same seed.
        let baseline = Dataset::label_graphs(
            &graphs,
            &LabelConfig {
                threads: 1,
                ..quick_config()
            },
            9,
        );
        // Chunking differs, so only per-worker streams match when the chunk
        // boundaries do; determinism for a fixed config is what we promise:
        let again = Dataset::label_graphs(&graphs, &config, 9);
        assert_eq!(ds, again);
        assert_eq!(baseline.len(), ds.len());
    }

    #[test]
    fn label_graph_produces_valid_record() {
        let mut rng = StdRng::seed_from_u64(111);
        let g = Graph::cycle(6).unwrap();
        let l = label_graph(&g, &quick_config(), &mut rng);
        assert_eq!(l.optimal, 6.0);
        assert!(
            l.approx_ratio > 0.5,
            "optimized AR {} too low",
            l.approx_ratio
        );
        assert!(l.approx_ratio <= 1.0 + 1e-9);
        assert!((l.expectation / l.optimal - l.approx_ratio).abs() < 1e-12);
        assert_eq!(l.params.depth(), 1);
    }

    #[test]
    fn label_expectation_is_the_bits_of_a_fresh_run() {
        // `label_graph` takes the expectation `canonical_label` computed
        // for its candidate instead of simulating the label again.
        let mut rng = StdRng::seed_from_u64(113);
        for n in 4..=12usize {
            let regular = qgraph::generate::random_regular(n, 3 - n % 2, &mut rng).unwrap();
            let irregular = qgraph::generate::erdos_renyi(n, 0.5, &mut rng).unwrap();
            for g in [regular, irregular] {
                let l = label_graph(&g, &quick_config(), &mut rng);
                let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(&g));
                let fresh = Evaluator::new(&circuit).expectation_in_place(&l.params);
                assert_eq!(l.expectation.to_bits(), fresh.to_bits(), "n = {n}, {g:?}");
            }
        }
    }

    #[test]
    fn parallel_labeling_keeps_order_and_determinism() {
        let mut rng = StdRng::seed_from_u64(112);
        let graphs: Vec<Graph> = (4..10)
            .map(|n| qgraph::generate::erdos_renyi(n, 0.5, &mut rng).unwrap())
            .collect();
        let a = Dataset::label_graphs(&graphs, &quick_config(), 7);
        let b = Dataset::label_graphs(&graphs, &quick_config(), 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), graphs.len());
        for (entry, graph) in a.entries.iter().zip(&graphs) {
            assert_eq!(&entry.graph, graph);
        }
    }

    #[test]
    fn generate_respects_spec() {
        let spec = DatasetSpec::with_count(12);
        let ds = Dataset::generate(&spec, &quick_config(), 3).unwrap();
        assert_eq!(ds.len(), 12);
        assert!(ds.mean_approx_ratio() > 0.5);
        for e in &ds.entries {
            assert!(e.graph.n() >= 2 && e.graph.n() <= 15);
        }
    }

    #[test]
    fn figure_observations_cover_every_entry() {
        let spec = DatasetSpec::with_count(8);
        let ds = Dataset::generate(&spec, &quick_config(), 4).unwrap();
        assert_eq!(ds.ar_by_size().len(), 8);
        assert_eq!(ds.ar_by_degree().len(), 8);
        for &(k, ar) in ds.ar_by_size().iter().chain(ds.ar_by_degree().iter()) {
            assert!((1..=15).contains(&k));
            assert!((0.0..=1.0 + 1e-9).contains(&ar));
        }
    }

    #[test]
    fn split_is_disjoint_and_complete() {
        let spec = DatasetSpec::with_count(10);
        let ds = Dataset::generate(&spec, &quick_config(), 5).unwrap();
        let (train, test) = ds.split(3, 99).unwrap();
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
        // Same multiset of optima (cheap proxy for completeness).
        let mut all: Vec<u64> = train
            .entries
            .iter()
            .chain(&test.entries)
            .map(|e| e.optimal.to_bits())
            .collect();
        let mut orig: Vec<u64> = ds.entries.iter().map(|e| e.optimal.to_bits()).collect();
        all.sort_unstable();
        orig.sort_unstable();
        assert_eq!(all, orig);
    }

    #[test]
    fn split_rejects_oversized_test() {
        let spec = DatasetSpec::with_count(5);
        let ds = Dataset::generate(&spec, &quick_config(), 6).unwrap();
        let err = ds.split(5, 1).unwrap_err();
        assert!(
            matches!(
                err,
                DatasetError::SplitTooLarge {
                    test_size: 5,
                    len: 5
                }
            ),
            "unexpected error: {err:?}"
        );
        assert!(err.to_string().contains("test size"));
        // The boundary just below is fine.
        assert!(ds.split(4, 1).is_ok());
    }

    #[test]
    fn split_of_empty_dataset_is_typed_error_for_any_test_size() {
        let empty = Dataset {
            entries: Vec::new(),
        };
        for test_size in [0usize, 1, 100] {
            let err = empty.split(test_size, 3).unwrap_err();
            assert!(
                matches!(err, DatasetError::SplitTooLarge { len: 0, .. }),
                "test_size {test_size}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn split_ratio_boundaries() {
        let spec = DatasetSpec::with_count(6);
        let ds = Dataset::generate(&spec, &quick_config(), 7).unwrap();
        // Ratio 0: everything trains, the test side is legitimately empty.
        let (train, test) = ds.split(0, 11).unwrap();
        assert_eq!(train.len(), 6);
        assert_eq!(test.len(), 0);
        // Ratio 1: an empty train side is infeasible, typed error.
        assert!(matches!(
            ds.split(6, 11),
            Err(DatasetError::SplitTooLarge {
                test_size: 6,
                len: 6
            })
        ));
        // Largest feasible holdout: a single training entry remains.
        let (train, test) = ds.split(5, 11).unwrap();
        assert_eq!(train.len(), 1);
        assert_eq!(test.len(), 5);
    }

    #[test]
    fn split_singleton_dataset_boundaries() {
        let spec = DatasetSpec::with_count(1);
        let ds = Dataset::generate(&spec, &quick_config(), 8).unwrap();
        assert!(ds.split(0, 1).is_ok());
        assert!(matches!(
            ds.split(1, 1),
            Err(DatasetError::SplitTooLarge {
                test_size: 1,
                len: 1
            })
        ));
    }

    #[test]
    fn checked_labeling_matches_unchecked_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(200);
        let graphs: Vec<Graph> = (4..9)
            .map(|n| qgraph::generate::erdos_renyi(n, 0.5, &mut rng).unwrap())
            .collect();
        let plain = Dataset::label_graphs(&graphs, &quick_config(), 11);
        let (checked, report) = Dataset::label_graphs_checked(&graphs, &quick_config(), 11);
        assert_eq!(plain, checked);
        assert_eq!(report, LabelReport::clean(graphs.len()));
        assert!(report.is_complete());
        assert!(report.unrecovered().is_empty());
    }

    #[test]
    fn injected_panic_is_isolated_and_reported() {
        let mut rng = StdRng::seed_from_u64(201);
        let graphs: Vec<Graph> = (4..10)
            .map(|n| qgraph::generate::erdos_renyi(n, 0.5, &mut rng).unwrap())
            .collect();
        // Panic on every 7-node graph (index 3), label the rest normally.
        let labeler = |g: &Graph, c: &LabelConfig, r: &mut StdRng| {
            assert!(g.n() != 7, "injected fault for n=7");
            label_graph(g, c, r)
        };
        let (ds, report) =
            Dataset::label_graphs_checked_with(&labeler, &graphs, &quick_config(), 5);
        assert_eq!(ds.len(), graphs.len() - 1);
        assert_eq!(report.total, graphs.len());
        assert_eq!(report.labeled, graphs.len() - 1);
        assert_eq!(report.unrecovered(), vec![3]);
        let failure = &report.failures[0];
        assert!(!failure.recovered);
        assert!(
            matches!(&failure.reason, LabelFailureReason::Panic(m) if m.contains("injected fault")),
            "reason: {:?}",
            failure.reason
        );
        // All the surviving labels are bit-identical to a clean run's.
        let clean = Dataset::label_graphs(&graphs, &quick_config(), 5);
        let survivors: Vec<&LabeledGraph> =
            clean.entries.iter().filter(|e| e.graph.n() != 7).collect();
        assert_eq!(ds.entries.iter().collect::<Vec<_>>(), survivors);
    }

    #[test]
    fn non_finite_label_is_reported_not_propagated() {
        let mut rng = StdRng::seed_from_u64(202);
        let graphs: Vec<Graph> = (4..8)
            .map(|n| qgraph::generate::erdos_renyi(n, 0.5, &mut rng).unwrap())
            .collect();
        // A labeler whose "optimizer" diverges on index-pattern graphs.
        let labeler = |g: &Graph, c: &LabelConfig, r: &mut StdRng| {
            let mut label = label_graph(g, c, r);
            if g.n() == 5 {
                label.expectation = f64::NAN;
                label.approx_ratio = f64::NAN;
            }
            label
        };
        let (ds, report) =
            Dataset::label_graphs_checked_with(&labeler, &graphs, &quick_config(), 5);
        assert!(ds.entries.iter().all(|e| e.expectation.is_finite()));
        // n=5 is index 1; the retry re-runs the same injected divergence.
        assert_eq!(report.unrecovered(), vec![1]);
        assert!(matches!(
            &report.failures[0].reason,
            LabelFailureReason::NonFinite(what) if what == "expectation"
        ));
    }

    #[test]
    fn retry_with_fresh_seed_recovers_flaky_failures() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut rng = StdRng::seed_from_u64(203);
        let graphs: Vec<Graph> = (4..8)
            .map(|n| qgraph::generate::erdos_renyi(n, 0.5, &mut rng).unwrap())
            .collect();
        // Fails the first attempt on n=6 only; the retry (fresh substream)
        // succeeds. Single-threaded so the counter is per-attempt ordered.
        let hits = AtomicUsize::new(0);
        let labeler = move |g: &Graph, c: &LabelConfig, r: &mut StdRng| {
            if g.n() == 6 && hits.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("flaky: first attempt only");
            }
            label_graph(g, c, r)
        };
        let config = LabelConfig {
            threads: 1,
            ..quick_config()
        };
        let (ds, report) = Dataset::label_graphs_checked_with(&labeler, &graphs, &config, 5);
        assert_eq!(ds.len(), graphs.len(), "retry must fill the gap");
        assert!(report.is_complete());
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].recovered);
        assert!(report.unrecovered().is_empty());
    }

    #[test]
    fn from_iterator_collects() {
        let mut rng = StdRng::seed_from_u64(113);
        let g = Graph::complete(3).unwrap();
        let ds: Dataset = (0..3)
            .map(|_| label_graph(&g, &quick_config(), &mut rng))
            .collect();
        assert_eq!(ds.len(), 3);
        assert!(!ds.is_empty());
    }
}
