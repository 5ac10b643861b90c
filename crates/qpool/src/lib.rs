//! # qpool — the serving loop's lock-free hot-swap slot
//!
//! This crate holds one type, [`swap::SwapCell`]: a two-slot cell that
//! lets `ServeLoop` publish a retrained artifact mid-traffic while
//! request threads keep loading the current one without locks. Its
//! `unsafe` code and the soundness argument for it live in [`swap`].

#![warn(missing_docs)]

pub mod swap;
