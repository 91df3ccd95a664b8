//! # viampi-bench — experiment harness
//!
//! [`experiments::ALL`] is the list of what this crate regenerates — every
//! table and figure of the paper's evaluation, the DESIGN.md ablations, the
//! beyond-paper series and the standard fault sweep — one row per
//! `results/<name>.json`. A row computes a [`report::Output`] (record bytes
//! plus a text table) and writes nothing; the `repro_all` executable walks
//! the table, and is the only thing that writes `results/` (`--check`
//! compares instead). The other executables are `simcheck` (schedule and
//! fault exploration, campaigns), `profile` (Chrome trace of one run) and
//! `perf_gate` (exact scheduling-work counts).

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
