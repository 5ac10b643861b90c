//! # tensor — matrices and reverse-mode autodiff
//!
//! The approved offline dependency set contains no ML framework, so this
//! crate provides the minimal engine the paper's GNNs need:
//!
//! * [`Matrix`] — dense row-major `f64` matrices with the usual linear
//!   algebra and Xavier initialization.
//! * [`Tape`] / [`Tensor`] — define-by-run reverse-mode automatic
//!   differentiation with the operations graph networks use: matmul,
//!   activations, dropout, masked row softmax (GAT attention), neighbor max
//!   pooling (GraphSAGE), mean-pooling readout, and the MSE loss (§4.1).
//! * [`optim`] — Adam, the paper's optimizer (§4.1).
//! * [`sched`] — the paper's ReduceLROnPlateau learning-rate scheduler.
//!
//! ## Example: one gradient step
//!
//! ```
//! use tensor::optim::{Adam, Optimizer};
//! use tensor::{Matrix, Tape};
//!
//! let tape = Tape::new();
//! let w = tape.parameter(Matrix::from_rows(&[&[0.0, 0.0]]));
//! let mut opt = Adam::new(0.1);
//! for _ in 0..5 {
//!     tape.reset();
//!     let loss = w.mse(&Matrix::from_rows(&[&[1.0, -1.0]]));
//!     tape.backward(&loss);
//!     opt.step(&[w.clone()]);
//! }
//! // Loss decreased from 1.0.
//! tape.reset();
//! assert!(w.mse(&Matrix::from_rows(&[&[1.0, -1.0]])).value()[(0, 0)] < 1.0);
//! ```

#![warn(missing_docs)]

mod matrix;
mod tape;

pub mod activation;
pub mod optim;
pub mod sched;

pub use matrix::Matrix;
pub use tape::{Tape, Tensor};
