//! # viampi-bench — experiment harness
//!
//! [`experiments::ALL`] is the list of what this crate regenerates — every
//! table and figure of the paper's evaluation, the DESIGN.md ablations, the
//! beyond-paper series, the standard fault sweep, the exact scheduling-work
//! counts (`perf_exact`) and a pinned Chrome trace (`trace_ring_np2`) — one
//! row per `results/<name>.json`. A row computes a [`report::Output`]
//! (record bytes plus a text table) and writes nothing; the `repro_all`
//! executable walks the table, and is the only thing that writes `results/`
//! (`--check` compares instead). The other executables are `simcheck`
//! (schedule and fault exploration, campaigns) and `profile` (Chrome trace
//! of one run, written under `target/`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod campaign;
pub mod experiments;
pub mod json;
pub mod micro;
pub mod profile;
pub mod report;
pub mod runner;
pub mod simcheck;
