//! # qsim — a small dense state-vector quantum simulator
//!
//! This crate is the quantum substrate of the QAOA-GNN reproduction: the
//! paper labels its dataset by *classically simulating* QAOA circuits
//! (§2, Fig. 1), so an exact state-vector simulator is required.
//!
//! * [`Complex`] — minimal complex arithmetic (the approved offline crate
//!   set has no complex-number crate, so we provide one).
//! * [`StateVector`] — an `n`-qubit state with gate application, inner
//!   products, probabilities and measurement sampling.
//! * [`gates`] — single-qubit rotations (`H`, `RX`, `RY`, `RZ`), `CNOT`, the
//!   two-qubit `RZZ` interaction that implements the Max-Cut phase
//!   separator, and whole-register layers.
//! * [`diagonal`] — diagonal cost operators: precomputed per-basis-state
//!   values, phase application `e^{-iγ C}`, and expectation values. This is
//!   the fast path QAOA uses.
//! * [`fused`] — whole-register kernels that pair qubits and fold the
//!   diagonal phase into the mixer sweep; the labeling hot path runs on
//!   these.
//!
//! Amplitudes are stored as split re/im `f64` arrays (struct-of-arrays)
//! so the fused sweeps auto-vectorize; see [`StateVector`]. Every sweep
//! runs serially on the calling thread: at the paper's sizes (n ≤ 15) a
//! sweep is too short for a worker pool to pay (DESIGN.md, "Simulator
//! execution model"), and callers parallelize across graphs instead.
//! This crate forbids `unsafe`.
//!
//! Qubit `q` corresponds to bit `q` of the basis-state index (little
//! endian): basis state `|z⟩` has qubit 0 in the least significant bit.
//!
//! ## Example
//!
//! ```
//! use qsim::{gates, StateVector};
//!
//! // Build a Bell pair and check its probabilities.
//! let mut psi = StateVector::zero_state(2);
//! gates::h(&mut psi, 0);
//! gates::cnot(&mut psi, 0, 1);
//! let p = psi.probabilities();
//! assert!((p[0b00] - 0.5).abs() < 1e-12);
//! assert!((p[0b11] - 0.5).abs() < 1e-12);
//! assert!(p[0b01].abs() < 1e-12);
//! ```

#![warn(missing_docs)]

mod complex;
mod state;

pub mod diagonal;
pub mod fused;
pub mod gates;
pub mod noise;

pub use complex::Complex;
pub use state::StateVector;

/// Maximum number of qubits the simulator will allocate (2^24 amplitudes,
/// 256 MiB). The paper's instances need at most 15.
pub const MAX_QUBITS: usize = 24;
