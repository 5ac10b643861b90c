//! # qgraph — graph substrate for the QAOA-GNN reproduction
//!
//! This crate provides everything graph-shaped that the paper's pipeline
//! needs:
//!
//! * [`Graph`] — a simple undirected weighted graph with validated
//!   construction and cheap neighbor queries.
//! * [`generate`] — synthetic instance generators (random regular graphs —
//!   the paper's dataset — plus Erdős–Rényi and a family of structured
//!   graphs used by the examples).
//! * [`features`] — node-feature construction: degree plus one-hot node id,
//!   exactly as described in §3.1 of the paper.
//! * [`io`] — the text file format the paper stores each graph in, plus a
//!   TSV dataset index.
//! * [`stats`] — degree / size histograms used for Figure 2.
//! * [`maxcut`] — exact (brute-force) and heuristic Max-Cut solvers used to
//!   compute approximation ratios.
//! * [`canon`] — permutation-invariant Weisfeiler–Leman canonical hashing
//!   and an exact isomorphism check, used by the prediction cache and the
//!   labeling deduper.
//!
//! ## Example
//!
//! ```
//! use qgraph::{Graph, maxcut};
//!
//! # fn main() -> Result<(), qgraph::GraphError> {
//! // A 4-cycle: the optimal cut severs all four edges.
//! let g = Graph::cycle(4)?;
//! let best = maxcut::brute_force(&g);
//! assert_eq!(best.value, 4.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod error;
mod graph;

pub mod canon;
pub mod features;
pub mod generate;
pub mod io;
pub mod maxcut;
pub mod stats;

pub use error::{GraphError, ParseError, ParseErrorKind};
pub use graph::{Edge, Graph};
