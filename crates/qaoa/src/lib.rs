//! # qaoa — Quantum Approximate Optimization Algorithm for Max-Cut
//!
//! The QAOA stack of the reproduction:
//!
//! * [`MaxCutHamiltonian`] — the diagonal cost operator
//!   `C = Σ w_uv (1 - Z_u Z_v)/2` built from a [`qgraph::Graph`], with its
//!   classical optimum attached.
//! * [`Params`] — the `(γ_1..γ_p, β_1..β_p)` parameter vector with random
//!   initialization (the paper's baseline).
//! * [`QaoaCircuit`] — prepares `|+⟩^n`, alternates phase separation
//!   `e^{-iγC}` and mixer `e^{-iβΣX}` layers on the [`qsim`] simulator, and
//!   evaluates the expectation `⟨C⟩`.
//! * [`Evaluator`] — the execution engine behind `QaoaCircuit`: owns a
//!   scratch state vector and runs every layer on [`qsim::fused`] kernels,
//!   so optimization traces perform zero state-vector allocations after
//!   setup. Hot paths (optimizers, labeling, landscape scans) use this
//!   directly; the one-shot `QaoaCircuit` calls are convenience wrappers.
//! * [`analytic`] — the closed-form p=1 edge expectation (Wang et al.),
//!   used both as an independent oracle for simulator tests and as the basis
//!   of the fixed-angle module.
//! * [`optimize`] — classical outer-loop optimizers: Nelder–Mead and p=1
//!   grid search, both reporting iteration histories (the paper runs 500
//!   iterations from random starts, §3.1), and the bit-keyed memo that
//!   spares a deterministic objective repeated points.
//! * [`fixed_angle`] — the fixed-angle conjecture (Wurtz & Lykov) for
//!   d-regular graphs, §3.3.
//! * [`warm_start`] — end-to-end runner: initialize (randomly or from a
//!   prediction), optimize, report the approximation ratio.
//!
//! ## Example
//!
//! ```
//! use qaoa::{MaxCutHamiltonian, Params, QaoaCircuit};
//! use qgraph::Graph;
//!
//! # fn main() -> Result<(), qgraph::GraphError> {
//! let g = Graph::cycle(4)?;
//! let ham = MaxCutHamiltonian::new(&g);
//! let circuit = QaoaCircuit::new(ham);
//! // The paper-style p=1 ansatz at some angles:
//! let params = qaoa::Params::new(vec![0.6], vec![0.4]);
//! let expectation = circuit.expectation(&params);
//! assert!(expectation >= 0.0 && expectation <= 4.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod circuit;
mod evaluator;
mod hamiltonian;
mod params;

pub mod analytic;
pub mod fixed_angle;
pub mod interp;
pub mod landscape;
pub mod optimize;
pub mod warm_start;

pub use circuit::QaoaCircuit;
pub use evaluator::Evaluator;
pub use hamiltonian::MaxCutHamiltonian;
pub use params::Params;
