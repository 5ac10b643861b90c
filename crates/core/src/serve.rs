//! Guarded serving: hostile-input-safe inference with a degradation ladder.
//!
//! [`RunArtifact`] answers "how do I persist a trained predictor";
//! this module answers "how do I put one in front of untrusted requests".
//! A [`GuardedPredictor`] wraps a loaded artifact and runs every request
//! through four defenses:
//!
//! 1. **Strict input validation** — text requests parse under
//!    [`ParseLimits::serving`] (size/node/edge caps checked *before*
//!    allocation, non-finite weights, self-loops and duplicate edges
//!    rejected with typed, line-numbered [`qgraph::ParseError`]s);
//!    pre-built graphs are checked against the same caps.
//! 2. **Envelope checks** — the request is compared against the
//!    [`TrainingEnvelope`] recorded in the artifact (§3.1 trains on
//!    2–15-node graphs; Jain et al., arXiv:2111.03016, show GNN
//!    warm-starts degrade out-of-distribution). Out-of-envelope requests
//!    skip the GNN rung.
//! 3. **Prediction guardrails** — non-finite model outputs are never
//!    served; finite outputs are clamped to the principal domain
//!    `γ ∈ [0, 2π]`, `β ∈ [0, π/2]` (a no-op for a healthy model, whose
//!    sigmoid head already lands inside it, so guarded predictions are
//!    bit-identical to the raw `predict` path). Small requests are
//!    optionally re-checked on the simulator.
//! 4. **A degradation ladder** — when a rung cannot serve, the request
//!    falls to the next one, and every hop is recorded in the returned
//!    [`PredictionOutcome`]:
//!
//! ```text
//! GNN prediction  →  nearest fixed angles  →  envelope-mean / default init
//! (rung Gnn)         (rung FixedAngle)        (rung Fallback, total)
//! ```
//!
//! The ladder never panics and never falls silently: a caller always gets
//! either a typed [`RequestError`] (the *request* was bad) or a
//! [`PredictionOutcome`] naming the rung that answered and the reason for
//! every rung that did not.
//!
//! # The typed request API
//!
//! Every way into the predictor is one method,
//! [`GuardedPredictor::handle`], taking a [`ServeRequest`] message — a
//! graph-or-text payload — and returning a [`ServeResponse`]. The
//! concurrent request loop ([`crate::serve_loop`]) calls `handle` per
//! request behind an outer `catch_unwind`, so one poisoned request cannot
//! take down its worker. Degradation is per request: a GNN-rung failure on
//! one graph never changes how any other request is served, in the loop
//! or out of it. The loop also drives the **load-shed path**
//! ([`GuardedPredictor::handle_shed`]): under saturation a request skips
//! the GNN rung — recorded as [`SkipReason::Shed`] — and is answered from
//! the cheap fixed-angle rung instead of queueing unboundedly.
//!
//! Every defense is exercised by deterministic fault injection
//! ([`crate::faults`]) rather than trusted on inspection — see
//! `tests/serve_degradation.rs` for the failpoint × rung matrix.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use gnn::Frozen;
use qaoa::{fixed_angle, MaxCutHamiltonian, Params, QaoaCircuit};
use qgraph::io::ParseLimits;
use qgraph::{Graph, ParseError};

use crate::faults::{self, FaultAction};
use crate::store::{ArtifactError, EnvelopeViolation, RunArtifact, TrainingEnvelope};

/// Serving policy: how far the simulator re-checks served parameters.
/// Every request is capped by [`ParseLimits::serving`] (text at parse
/// time, pre-built graphs before any other work).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Verify served GNN / fixed-angle parameters on the statevector
    /// simulator when the request has at most this many nodes (`0`
    /// disables verification). A non-finite score degrades the rung.
    pub verify_max_nodes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            verify_max_nodes: 16,
        }
    }
}

impl ServeConfig {
    /// Builder-style: sets the simulator-verification node cap (`0`
    /// disables verification).
    pub fn with_verify_max_nodes(mut self, verify_max_nodes: usize) -> Self {
        self.verify_max_nodes = verify_max_nodes;
        self
    }
}

/// A rung of the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// The trained GNN's prediction (the paper's path).
    Gnn,
    /// Nearest fixed angles ([`fixed_angle::nearest_for_graph`]).
    FixedAngle,
    /// Envelope-mean label when the artifact records one, otherwise the
    /// deterministic default init. Total: this rung always answers.
    Fallback,
}

impl Rung {
    /// Ladder quality: higher serves better parameters. `Gnn` (2) >
    /// `FixedAngle` (1) > `Fallback` (0).
    pub fn quality(self) -> u8 {
        match self {
            Rung::Gnn => 2,
            Rung::FixedAngle => 1,
            Rung::Fallback => 0,
        }
    }
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rung::Gnn => write!(f, "gnn"),
            Rung::FixedAngle => write!(f, "fixed-angle"),
            Rung::Fallback => write!(f, "fallback"),
        }
    }
}

/// Why a rung declined (or failed) to serve a request.
#[derive(Debug, Clone, PartialEq)]
pub enum SkipReason {
    /// The model could not be reconstructed from the artifact's weights.
    ModelUnavailable(String),
    /// The request falls outside the recorded training envelope.
    OutOfEnvelope(EnvelopeViolation),
    /// The rung panicked; the panic was contained.
    Panicked,
    /// The rung produced a non-finite angle.
    NonFinite {
        /// The γ it produced.
        gamma: f64,
        /// The β it produced.
        beta: f64,
    },
    /// Simulator verification produced a non-finite score.
    VerificationFailed,
    /// The rung does not apply to this graph (e.g. fixed angles on an
    /// edgeless graph).
    NotApplicable,
    /// The serving loop shed this request under load: the GNN rung was
    /// skipped deliberately so the queue drains on the cheap fixed-angle
    /// path instead of growing unboundedly.
    Shed {
        /// Queue depth observed at the shed decision.
        queue_depth: usize,
    },
}

impl std::fmt::Display for SkipReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SkipReason::ModelUnavailable(e) => write!(f, "model unavailable: {e}"),
            SkipReason::OutOfEnvelope(v) => write!(f, "out of training envelope: {v}"),
            SkipReason::Panicked => write!(f, "panicked (contained)"),
            SkipReason::NonFinite { gamma, beta } => {
                write!(f, "non-finite prediction (γ={gamma}, β={beta})")
            }
            SkipReason::VerificationFailed => write!(f, "simulator verification failed"),
            SkipReason::NotApplicable => write!(f, "not applicable to this graph"),
            SkipReason::Shed { queue_depth } => {
                write!(f, "shed under load (queue depth {queue_depth})")
            }
        }
    }
}

/// One recorded hop down the ladder: which rung was skipped and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Skip {
    /// The rung that declined.
    pub rung: Rung,
    /// Why it declined.
    pub reason: SkipReason,
}

/// How the request relates to the artifact's training envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EnvelopeStatus {
    /// Inside the recorded envelope.
    InEnvelope,
    /// The artifact predates envelopes; the GNN served unchecked and this
    /// outcome says so.
    Unknown,
    /// Outside the envelope (the GNN rung was skipped).
    Violated(EnvelopeViolation),
}

/// The fully-accounted result of one guarded prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionOutcome {
    /// The served parameters — always depth 1, always finite, always in
    /// the principal domain.
    pub params: Params,
    /// The rung that produced them.
    pub rung: Rung,
    /// Every rung skipped on the way down, in ladder order. Empty when the
    /// GNN served directly.
    pub skips: Vec<Skip>,
    /// Envelope standing of the request.
    pub envelope: EnvelopeStatus,
    /// Whether the guardrails had to clamp the serving rung's output into
    /// the principal domain (`false` for a healthy model).
    pub clamped: bool,
    /// Simulator expectation of the served parameters, when verification
    /// ran on the serving rung.
    pub verified_score: Option<f64>,
    /// `true` when this outcome was served from the canonical-form
    /// prediction cache ([`crate::cache::PredictionCache`]) rather than a
    /// fresh ladder run. Apart from this marker, a cached reply is
    /// bit-identical to the fresh reply it memoized.
    pub cached: bool,
}

impl PredictionOutcome {
    /// The served `(γ, β)` pair.
    pub fn angles(&self) -> (f64, f64) {
        (self.params.gammas()[0], self.params.betas()[0])
    }

    /// `true` when the GNN itself answered with no degradation and no
    /// clamping — the outcome a healthy deployment sees.
    pub fn is_clean(&self) -> bool {
        self.rung == Rung::Gnn && self.skips.is_empty() && !self.clamped
    }

    /// `true` when this request was load-shed (a [`SkipReason::Shed`] hop
    /// is recorded).
    pub fn was_shed(&self) -> bool {
        self.skips
            .iter()
            .any(|s| matches!(s.reason, SkipReason::Shed { .. }))
    }

    /// One-line human-readable account, e.g.
    /// `fixed-angle (γ=0.6155, β=0.3927) after gnn: out of training envelope: …`.
    pub fn summary(&self) -> String {
        let (gamma, beta) = self.angles();
        let mut s = format!("{} (γ={gamma:.4}, β={beta:.4})", self.rung);
        if let Some(score) = self.verified_score {
            s.push_str(&format!(", verified E[cut]={score:.4}"));
        }
        if self.clamped {
            s.push_str(", clamped");
        }
        if self.cached {
            s.push_str(", cached");
        }
        for skip in &self.skips {
            s.push_str(&format!("; {} skipped: {}", skip.rung, skip.reason));
        }
        if self.envelope == EnvelopeStatus::Unknown {
            s.push_str("; envelope unknown (pre-envelope artifact)");
        }
        s
    }
}

/// What a [`ServeRequest`] carries: a pre-built graph or untrusted text
/// to parse under the serving limits.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestPayload {
    /// An already-constructed graph (still checked against the size caps).
    Graph(Graph),
    /// Graph text in the repository's edge-list format; parsed with the
    /// strict, line-numbered serving parser.
    Text(String),
}

impl RequestPayload {
    /// The request graph, checked against the serving caps: text parses
    /// under [`ParseLimits::serving`]; a pre-built graph is borrowed as is
    /// (its caps are checked at admission). The one payload dispatch every
    /// serving path shares.
    fn graph(&self) -> Result<Cow<'_, Graph>, RequestError> {
        Ok(match self {
            RequestPayload::Graph(graph) => Cow::Borrowed(graph),
            RequestPayload::Text(text) => Cow::Owned(qgraph::io::graph_from_str_limited(
                text,
                &ParseLimits::serving(),
            )?),
        })
    }
}

/// One typed serving request.
///
/// Construct with [`ServeRequest::from_graph`] / [`ServeRequest::from_text`]:
///
/// ```
/// use qaoa_gnn::serve::{RequestPayload, ServeRequest};
/// let request = ServeRequest::from_text("n 3\ne 0 1\ne 1 2\ne 0 2\n");
/// assert!(matches!(request.payload, RequestPayload::Text(_)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// The instance to predict parameters for.
    pub payload: RequestPayload,
}

impl ServeRequest {
    /// A request for a pre-built graph.
    pub fn from_graph(graph: Graph) -> ServeRequest {
        ServeRequest {
            payload: RequestPayload::Graph(graph),
        }
    }

    /// A request for untrusted graph text.
    pub fn from_text(text: impl Into<String>) -> ServeRequest {
        ServeRequest {
            payload: RequestPayload::Text(text.into()),
        }
    }
}

/// The typed reply to one [`ServeRequest`].
#[derive(Debug)]
pub struct ServeResponse {
    /// A fully-accounted prediction, or a typed rejection. Exactly one
    /// response exists per handled request — the serving layer never
    /// drops a request on the floor.
    pub result: Result<PredictionOutcome, RequestError>,
}

impl ServeResponse {
    /// The outcome, when the request was served.
    pub fn outcome(&self) -> Option<&PredictionOutcome> {
        self.result.as_ref().ok()
    }

    /// The rejection, when the request was refused.
    pub fn error(&self) -> Option<&RequestError> {
        self.result.as_ref().err()
    }

    /// `true` when the request was served via the load-shed path.
    pub fn was_shed(&self) -> bool {
        self.outcome().is_some_and(PredictionOutcome::was_shed)
    }
}

/// Why a request was rejected outright (as opposed to served degraded).
#[derive(Debug)]
pub enum RequestError {
    /// A text request failed validation; carries the line-numbered cause.
    Parse(ParseError),
    /// A pre-built graph exceeds the serving node cap.
    TooManyNodes {
        /// Request graph's node count.
        n: usize,
        /// The serving cap ([`ParseLimits::serving`]).
        cap: usize,
    },
    /// A pre-built graph exceeds the serving edge cap.
    TooManyEdges {
        /// Request graph's edge count.
        m: usize,
        /// The serving cap ([`ParseLimits::serving`]).
        cap: usize,
    },
    /// The serving loop's admission stage refused the request (only
    /// reachable through the `admission` failpoint or a poisoned queue —
    /// healthy saturation sheds instead of refusing).
    Admission(String),
    /// The guarded pipeline itself panicked through every rung-level
    /// defense (only reachable from the serving loop's workers, which
    /// contain it to the offending item).
    Internal(String),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Parse(e) => write!(f, "invalid request: {e}"),
            RequestError::TooManyNodes { n, cap } => {
                write!(f, "request has {n} nodes, serving cap is {cap}")
            }
            RequestError::TooManyEdges { m, cap } => {
                write!(f, "request has {m} edges, serving cap is {cap}")
            }
            RequestError::Admission(e) => write!(f, "request refused at admission: {e}"),
            RequestError::Internal(e) => write!(f, "internal serving failure: {e}"),
        }
    }
}

impl std::error::Error for RequestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RequestError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for RequestError {
    fn from(e: ParseError) -> Self {
        RequestError::Parse(e)
    }
}

/// Deterministic last-resort initialization when the artifact records no
/// envelope mean: the degree-2 closed-form fixed angles `(π/4, π/8)` — a
/// sane interior point of the principal domain for any instance.
fn default_init() -> (f64, f64) {
    (std::f64::consts::FRAC_PI_4, std::f64::consts::PI / 8.0)
}

/// A serving wrapper around a loaded [`RunArtifact`]: validation, envelope
/// checks, guardrails and the degradation ladder, per the module docs.
///
/// Construction is infallible given an artifact: if the model cannot be
/// rebuilt from the weights, the predictor still serves — every request
/// simply starts one rung down, with the build failure recorded in each
/// outcome's skip list.
pub struct GuardedPredictor {
    artifact: RunArtifact,
    model: Result<Frozen, String>,
    config: ServeConfig,
    /// Canonical-form cache binding, when serving behind
    /// [`crate::serve_loop::ServeLoop`] (or attached explicitly). The
    /// generation pins which artifact's answers the shared cache may serve
    /// through this predictor.
    cache: Option<(Arc<crate::cache::PredictionCache>, u64)>,
}

impl GuardedPredictor {
    /// Wraps an already-loaded artifact. The weights are frozen into a
    /// tape-free [`Frozen`] model once, here, behind the `weight_build`
    /// failpoint; failure (or a contained panic) disables the GNN rung but
    /// not the predictor. The predictor is `Send + Sync`: the serving loop
    /// builds one per published generation and shares it with every worker.
    pub fn new(artifact: RunArtifact, config: ServeConfig) -> GuardedPredictor {
        let model = catch_unwind(AssertUnwindSafe(|| {
            if faults::fire_may_panic(faults::WEIGHT_BUILD).is_some() {
                return Err("fault injected: weight_build".to_string());
            }
            Frozen::new(&artifact.weights).map_err(|e| e.to_string())
        }))
        .unwrap_or_else(|_| Err("model construction panicked (contained)".to_string()));
        GuardedPredictor {
            artifact,
            model,
            config,
            cache: None,
        }
    }

    /// Attaches a shared canonical-form cache, binding it to the artifact
    /// generation this predictor serves. Lookups run ahead of the GNN rung;
    /// only clean GNN outcomes ([`PredictionOutcome::is_clean`]) are
    /// inserted, so degraded replies are never pinned. A predictor without
    /// a cache (the default) behaves exactly as before.
    pub fn with_cache(
        mut self,
        cache: Arc<crate::cache::PredictionCache>,
        generation: u64,
    ) -> GuardedPredictor {
        self.cache = Some((cache, generation));
        self
    }

    /// Loads an artifact from disk (full [`RunArtifact::load`] validation:
    /// format, version, checksums, weight shapes) and wraps it.
    ///
    /// # Errors
    ///
    /// Any [`ArtifactError`] — a predictor is never built on a file that
    /// failed validation.
    pub fn load<P: AsRef<std::path::Path>>(
        path: P,
        config: ServeConfig,
    ) -> Result<GuardedPredictor, ArtifactError> {
        Ok(GuardedPredictor::new(RunArtifact::load(path)?, config))
    }

    /// The wrapped artifact.
    pub fn artifact(&self) -> &RunArtifact {
        &self.artifact
    }

    /// `true` when the GNN rung is available (weights frozen cleanly).
    pub fn model_available(&self) -> bool {
        self.model.is_ok()
    }

    /// Why the GNN rung is unavailable (the weight-build error), or `None`
    /// when the model froze cleanly.
    pub(crate) fn model_error(&self) -> Option<&str> {
        self.model.as_ref().err().map(String::as_str)
    }

    /// The training envelope the artifact records, if any.
    pub fn envelope(&self) -> Option<&TrainingEnvelope> {
        self.artifact.envelope.as_ref()
    }

    /// Serves one typed request — the single entry point every payload
    /// shape routes through. Text payloads parse under the strict serving
    /// limits; graph payloads are cap-checked; then the ladder runs. Never
    /// panics, never drops: exactly one [`ServeResponse`] per call.
    pub fn handle(&self, request: &ServeRequest) -> ServeResponse {
        ServeResponse {
            result: request
                .payload
                .graph()
                .and_then(|graph| self.predict_graph(&graph)),
        }
    }

    /// The load-shed variant of [`Self::handle`]: validation and envelope
    /// accounting run as usual, but the GNN rung (and its simulator
    /// verification) is skipped outright — recorded as
    /// [`SkipReason::Shed`] with the observed `queue_depth` — and the
    /// request is answered from the cheap total rungs. This is what the
    /// serving loop calls for saturation overflow; it is deterministic,
    /// allocation-light, and never queues further work.
    pub fn handle_shed(&self, request: &ServeRequest, queue_depth: usize) -> ServeResponse {
        ServeResponse {
            result: request
                .payload
                .graph()
                .and_then(|graph| self.shed_graph(&graph, queue_depth)),
        }
    }

    /// The shed ladder on a pre-built graph: admission, then fixed angles
    /// unverified (the simulator is exactly the cost shedding avoids), then
    /// the total fallback.
    fn shed_graph(
        &self,
        graph: &Graph,
        queue_depth: usize,
    ) -> Result<PredictionOutcome, RequestError> {
        let status = self.admit_graph(graph)?;
        let mut skips = vec![Skip {
            rung: Rung::Gnn,
            reason: SkipReason::Shed { queue_depth },
        }];
        let Some(fa) = fixed_angle::nearest_for_graph(graph) else {
            skips.push(Skip {
                rung: Rung::FixedAngle,
                reason: SkipReason::NotApplicable,
            });
            return Ok(self.fallback_outcome(skips, status));
        };
        Ok(PredictionOutcome {
            params: fa.params,
            rung: Rung::FixedAngle,
            skips,
            envelope: status,
            clamped: false,
            verified_score: None,
            cached: false,
        })
    }

    /// Request cap checks and envelope classification, shared by the full
    /// ladder and the shed path.
    fn admit_graph(&self, graph: &Graph) -> Result<EnvelopeStatus, RequestError> {
        let limits = ParseLimits::serving();
        if graph.n() > limits.max_nodes {
            return Err(RequestError::TooManyNodes {
                n: graph.n(),
                cap: limits.max_nodes,
            });
        }
        if graph.m() > limits.max_edges {
            return Err(RequestError::TooManyEdges {
                m: graph.m(),
                cap: limits.max_edges,
            });
        }
        match self.envelope() {
            None => Ok(EnvelopeStatus::Unknown),
            Some(env) => match env.check(graph) {
                Ok(()) => Ok(EnvelopeStatus::InEnvelope),
                Err(v) => Ok(EnvelopeStatus::Violated(v)),
            },
        }
    }

    /// The full degradation ladder on a pre-built graph, fronted by the
    /// canonical-form cache when one is attached: a structurally equal
    /// graph already answered under this generation is served from memory
    /// (after the usual cap/envelope admission), and a clean GNN answer is
    /// memoized on the way out. The graph's fingerprint is computed once
    /// and serves both the lookup and the insert. Cache faults degrade to a
    /// normal miss.
    fn predict_graph(&self, graph: &Graph) -> Result<PredictionOutcome, RequestError> {
        let envelope = self.admit_graph(graph)?;
        let keyed = self
            .cache
            .as_ref()
            .and_then(|(cache, generation)| Some((cache, *generation, cache.fingerprint(graph)?)));
        if let Some((cache, generation, fingerprint)) = &keyed {
            if let Some(hit) = cache.lookup_with(graph, fingerprint, *generation) {
                return Ok(hit);
            }
        }
        let outcome = self.run_ladder(graph, envelope);
        if let Some((cache, generation, fingerprint)) = &keyed {
            if outcome.is_clean() {
                cache.insert_with(graph, fingerprint, *generation, &outcome);
            }
        }
        Ok(outcome)
    }

    /// The rungs themselves — total once a request is admitted.
    fn run_ladder(&self, graph: &Graph, envelope: EnvelopeStatus) -> PredictionOutcome {
        let mut skips = Vec::new();

        // Rung 1: the GNN.
        match self.try_gnn(graph, envelope) {
            Ok((params, clamped, score)) => {
                return PredictionOutcome {
                    params,
                    rung: Rung::Gnn,
                    skips,
                    envelope,
                    clamped,
                    verified_score: score,
                    cached: false,
                };
            }
            Err(reason) => skips.push(Skip {
                rung: Rung::Gnn,
                reason,
            }),
        }

        // Rung 2: nearest fixed angles.
        match self.try_fixed(graph) {
            Ok((params, score)) => {
                return PredictionOutcome {
                    params,
                    rung: Rung::FixedAngle,
                    skips,
                    envelope,
                    clamped: false,
                    verified_score: score,
                    cached: false,
                };
            }
            Err(reason) => skips.push(Skip {
                rung: Rung::FixedAngle,
                reason,
            }),
        }

        self.fallback_outcome(skips, envelope)
    }

    /// Rung 3: total fallback — envelope mean when recorded, else the
    /// deterministic default. Never verified, never refused.
    fn fallback_outcome(&self, skips: Vec<Skip>, envelope: EnvelopeStatus) -> PredictionOutcome {
        let (gamma, beta) = self
            .envelope()
            .map(TrainingEnvelope::mean_label)
            .unwrap_or_else(default_init);
        let (gamma, beta, clamped) = clamp_principal(gamma, beta);
        PredictionOutcome {
            params: Params::new(vec![gamma], vec![beta]),
            rung: Rung::Fallback,
            skips,
            envelope,
            clamped,
            verified_score: None,
            cached: false,
        }
    }

    /// The GNN rung: forward pass behind the `forward` failpoint and a
    /// panic guard, then finiteness + principal-domain guardrails, then
    /// optional simulator verification behind the `sim_eval` failpoint.
    fn try_gnn(
        &self,
        graph: &Graph,
        envelope: EnvelopeStatus,
    ) -> Result<(Params, bool, Option<f64>), SkipReason> {
        let model = match &self.model {
            Ok(m) => m,
            Err(e) => return Err(SkipReason::ModelUnavailable(e.clone())),
        };
        if let EnvelopeStatus::Violated(v) = envelope {
            return Err(SkipReason::OutOfEnvelope(v));
        }
        let (gamma, beta) = catch_unwind(AssertUnwindSafe(|| {
            match faults::fire_may_panic(faults::FORWARD) {
                // Any non-panic injection poisons the output, exercising
                // the finiteness guardrail below.
                Some(_) => (f64::NAN, f64::NAN),
                None => model.predict(graph),
            }
        }))
        .map_err(|_| SkipReason::Panicked)?;
        if !gamma.is_finite() || !beta.is_finite() {
            return Err(SkipReason::NonFinite { gamma, beta });
        }
        let (gamma, beta, clamped) = clamp_principal(gamma, beta);
        let params = Params::new(vec![gamma], vec![beta]);
        let score = self.verify(graph, &params)?;
        Ok((params, clamped, score))
    }

    /// The fixed-angle rung: nearest tree-subgraph angles, verified like a
    /// GNN prediction.
    fn try_fixed(&self, graph: &Graph) -> Result<(Params, Option<f64>), SkipReason> {
        let fa = fixed_angle::nearest_for_graph(graph).ok_or(SkipReason::NotApplicable)?;
        let score = self.verify(graph, &fa.params)?;
        Ok((fa.params, score))
    }

    /// Simulator verification of a candidate: `Ok(None)` when disabled or
    /// the graph is too large to simulate, `Ok(Some(score))` on a finite
    /// expectation, and a [`SkipReason`] (degrading the rung) on a
    /// non-finite score or a contained panic.
    fn verify(&self, graph: &Graph, params: &Params) -> Result<Option<f64>, SkipReason> {
        if self.config.verify_max_nodes == 0 || graph.n() > self.config.verify_max_nodes {
            return Ok(None);
        }
        let score = catch_unwind(AssertUnwindSafe(|| {
            match faults::fire_may_panic(faults::SIM_EVAL) {
                Some(FaultAction::Nan) => f64::NAN,
                Some(_) => f64::NAN,
                None => QaoaCircuit::new(MaxCutHamiltonian::new(graph)).expectation(params),
            }
        }))
        .map_err(|_| SkipReason::Panicked)?;
        if !score.is_finite() {
            return Err(SkipReason::VerificationFailed);
        }
        Ok(Some(score))
    }
}

/// Clamps `(γ, β)` into the principal domain `γ ∈ [0, 2π]`, `β ∈ [0, π/2]`,
/// reporting whether anything moved. Exact no-op (same bits) for in-domain
/// inputs, which is what keeps guarded serving bit-identical to the raw
/// prediction path.
fn clamp_principal(gamma: f64, beta: f64) -> (f64, f64, bool) {
    let g = gamma.clamp(0.0, std::f64::consts::TAU);
    let b = beta.clamp(0.0, std::f64::consts::FRAC_PI_2);
    (g, b, g != gamma || b != beta)
}

/// Best-effort text of a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn::train::TrainHistory;
    use gnn::{GnnKind, GnnModel};
    use qrand::rngs::StdRng;
    use qrand::SeedableRng;

    use crate::dataset::LabelReport;
    use crate::pipeline::PipelineConfig;

    fn tiny_artifact(envelope: Option<TrainingEnvelope>) -> RunArtifact {
        let mut rng = StdRng::seed_from_u64(4001);
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
            dataset_fingerprint: 0,
            envelope,
        }
    }

    fn wide_envelope() -> TrainingEnvelope {
        TrainingEnvelope {
            min_nodes: 2,
            max_nodes: 15,
            max_degree: 14,
            feature_dim: 16,
            mean_gamma: 1.0,
            mean_beta: 0.5,
        }
    }

    const fn assert_send_sync<T: Send + Sync>() {}
    const _: () = assert_send_sync::<GuardedPredictor>();

    /// Serves one graph through the typed entry point.
    fn serve(served: &GuardedPredictor, graph: &Graph) -> Result<PredictionOutcome, RequestError> {
        served
            .handle(&ServeRequest::from_graph(graph.clone()))
            .result
    }

    #[test]
    fn clean_request_is_bit_identical_to_raw_predict() {
        let artifact = tiny_artifact(Some(wide_envelope()));
        let raw = artifact.build_model().unwrap();
        let served = GuardedPredictor::new(artifact, ServeConfig::default());
        let g = Graph::cycle(8).unwrap();
        let (rg, rb) = raw.predict(&g);
        let outcome = serve(&served, &g).unwrap();
        assert!(outcome.is_clean());
        assert_eq!(outcome.envelope, EnvelopeStatus::InEnvelope);
        let (sg, sb) = outcome.angles();
        assert_eq!(rg.to_bits(), sg.to_bits());
        assert_eq!(rb.to_bits(), sb.to_bits());
        assert!(outcome.verified_score.is_some());
    }

    #[test]
    fn shed_path_skips_gnn_and_serves_fixed_angles_unverified() {
        let served =
            GuardedPredictor::new(tiny_artifact(Some(wide_envelope())), ServeConfig::default());
        let g = Graph::cycle(8).unwrap();
        let response = served.handle_shed(&ServeRequest::from_graph(g), 37);
        assert!(response.was_shed());
        let outcome = response.result.unwrap();
        assert_eq!(outcome.rung, Rung::FixedAngle);
        assert_eq!(
            outcome.skips[0],
            Skip {
                rung: Rung::Gnn,
                reason: SkipReason::Shed { queue_depth: 37 },
            }
        );
        assert_eq!(
            outcome.verified_score, None,
            "shed answers skip the simulator"
        );
        let (gamma, beta) = outcome.angles();
        assert!(gamma.is_finite() && beta.is_finite());
        // Edgeless: the shed ladder still answers, on the total rung.
        let response = served.handle_shed(&ServeRequest::from_graph(Graph::empty(4).unwrap()), 2);
        let outcome = response.result.unwrap();
        assert_eq!(outcome.rung, Rung::Fallback);
        assert!(outcome.was_shed());
    }

    #[test]
    fn text_payload_sheds_like_the_equal_graph_and_rejects_like_handle() {
        let served =
            GuardedPredictor::new(tiny_artifact(Some(wide_envelope())), ServeConfig::default());
        let g = Graph::cycle(7).unwrap();
        let text = qgraph::io::graph_to_string(&g);
        let from_text = served.handle_shed(&ServeRequest::from_text(text), 5);
        let from_graph = served.handle_shed(&ServeRequest::from_graph(g), 5);
        let (text_outcome, graph_outcome) = (from_text.result.unwrap(), from_graph.result.unwrap());
        assert!(text_outcome.was_shed());
        let (tg, tb) = text_outcome.angles();
        let (gg, gb) = graph_outcome.angles();
        assert_eq!((tg.to_bits(), tb.to_bits()), (gg.to_bits(), gb.to_bits()));
        assert_eq!(text_outcome, graph_outcome);
        // Hostile text: the same line-numbered rejection `handle` gives.
        let hostile = ServeRequest::from_text("n 3\ne 0 1\ne 1 1\n");
        let shed = served.handle_shed(&hostile, 5).result.unwrap_err();
        let full = served.handle(&hostile).result.unwrap_err();
        match (&shed, &full) {
            (RequestError::Parse(a), RequestError::Parse(b)) => {
                assert_eq!(a.line, 3);
                assert_eq!(a.to_string(), b.to_string());
            }
            other => panic!("expected two Parse errors, got {other:?}"),
        }
    }

    #[test]
    fn text_request_round_trips_through_strict_parser() {
        let served =
            GuardedPredictor::new(tiny_artifact(Some(wide_envelope())), ServeConfig::default());
        let g = Graph::cycle(6).unwrap();
        let text = qgraph::io::graph_to_string(&g);
        let from_text = served.handle(&ServeRequest::from_text(text)).result;
        assert_eq!(from_text.unwrap(), serve(&served, &g).unwrap());
        // Malformed text is a typed rejection, not a panic or a fallback.
        match served
            .handle(&ServeRequest::from_text("n 3\ne 0 1 nan\n"))
            .result
        {
            Err(RequestError::Parse(e)) => assert_eq!(e.line, 2),
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn out_of_envelope_degrades_past_the_gnn_rung() {
        let narrow = TrainingEnvelope {
            max_nodes: 6,
            ..wide_envelope()
        };
        let big = Graph::cycle(10).unwrap();
        let served = GuardedPredictor::new(tiny_artifact(Some(narrow)), ServeConfig::default());
        let outcome = serve(&served, &big).unwrap();
        assert_ne!(outcome.rung, Rung::Gnn);
        assert!(matches!(outcome.envelope, EnvelopeStatus::Violated(_)));
        assert!(outcome
            .skips
            .iter()
            .any(|s| s.rung == Rung::Gnn && matches!(s.reason, SkipReason::OutOfEnvelope(_))));
    }

    #[test]
    fn pre_envelope_artifact_serves_with_unknown_status() {
        let served = GuardedPredictor::new(tiny_artifact(None), ServeConfig::default());
        let outcome = serve(&served, &Graph::cycle(5).unwrap()).unwrap();
        assert_eq!(outcome.rung, Rung::Gnn);
        assert_eq!(outcome.envelope, EnvelopeStatus::Unknown);
        assert!(outcome.summary().contains("envelope unknown"));
    }

    #[test]
    fn graph_wider_than_one_hot_block_is_a_contained_gnn_panic() {
        // No envelope to turn it away, so the 16-node graph reaches the
        // frozen forward, whose one-hot block holds 15 nodes.
        let served = GuardedPredictor::new(tiny_artifact(None), ServeConfig::default());
        let outcome = serve(&served, &Graph::cycle(16).unwrap()).unwrap();
        assert_eq!(outcome.rung, Rung::FixedAngle);
        assert_eq!(outcome.skips[0].rung, Rung::Gnn);
        assert_eq!(outcome.skips[0].reason, SkipReason::Panicked);
    }

    #[test]
    fn oversized_graph_request_is_rejected_before_any_work() {
        let served = GuardedPredictor::new(tiny_artifact(None), ServeConfig::default());
        match serve(&served, &Graph::cycle(4097).unwrap()) {
            Err(RequestError::TooManyNodes { n: 4097, cap: 4096 }) => {}
            other => panic!("expected TooManyNodes, got {other:?}"),
        }
    }

    #[test]
    fn fallback_uses_envelope_mean_then_default() {
        // Edgeless graph: fixed angles do not apply, so a non-finite GNN
        // output lands on the fallback rung.
        let g = Graph::empty(4).unwrap();
        let served =
            GuardedPredictor::new(tiny_artifact(Some(wide_envelope())), ServeConfig::default());
        let _fault = faults::armed(faults::FORWARD, FaultAction::Nan, 1);
        let outcome = serve(&served, &g).unwrap();
        assert_eq!(outcome.rung, Rung::Fallback);
        assert_eq!(outcome.angles(), (1.0, 0.5)); // the envelope mean
        assert_eq!(outcome.skips.len(), 2);
        drop(_fault);

        let bare = GuardedPredictor::new(tiny_artifact(None), ServeConfig::default());
        let _fault = faults::armed(faults::FORWARD, FaultAction::Nan, 1);
        let outcome = serve(&bare, &g).unwrap();
        assert_eq!(outcome.rung, Rung::Fallback);
        assert_eq!(outcome.angles(), default_init());
    }

    #[test]
    fn clamp_is_a_bitwise_no_op_in_domain() {
        let (g, b, moved) = clamp_principal(1.25, 0.5);
        assert!(!moved);
        assert_eq!(g.to_bits(), 1.25f64.to_bits());
        assert_eq!(b.to_bits(), 0.5f64.to_bits());
        let (g, b, moved) = clamp_principal(-0.1, 2.0);
        assert!(moved);
        assert_eq!(g, 0.0);
        assert_eq!(b, std::f64::consts::FRAC_PI_2);
    }

    #[test]
    fn rung_quality_orders_the_ladder() {
        assert!(Rung::Gnn.quality() > Rung::FixedAngle.quality());
        assert!(Rung::FixedAngle.quality() > Rung::Fallback.quality());
    }

    #[test]
    fn request_builders_and_error_sources() {
        let g = Graph::cycle(3).unwrap();
        assert_eq!(
            ServeRequest::from_graph(g.clone()).payload,
            RequestPayload::Graph(g)
        );
        assert_eq!(
            ServeRequest::from_text("n 2\ne 0 1\n").payload,
            RequestPayload::Text("n 2\ne 0 1\n".to_string())
        );

        // RequestError::source chains to the typed parse cause.
        let served = GuardedPredictor::new(tiny_artifact(None), ServeConfig::default());
        let err = served
            .handle(&ServeRequest::from_text("bogus\n"))
            .result
            .unwrap_err();
        let source = std::error::Error::source(&err).expect("parse source");
        assert!(source.to_string().contains("line 1"), "got: {source}");
    }
}
