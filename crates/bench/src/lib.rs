//! # viampi-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section:
//!
//! | item | driver | binary |
//! |------|--------|--------|
//! | Fig. 1 | [`experiments::fig1`] | `fig1_vi_scaling` |
//! | Table 1 | [`experiments::tab1`] | `tab1_destinations` |
//! | Table 2 | [`experiments::tab2`] | `tab2_resources` |
//! | Fig. 2 | [`experiments::fig2`] | `fig2_latency` |
//! | Fig. 3 | [`experiments::fig3`] | `fig3_bandwidth` |
//! | Fig. 4 | [`experiments::fig4`] | `fig4_barrier` |
//! | Fig. 5 | [`experiments::fig5`] | `fig5_allreduce` |
//! | Fig. 6 / Table 3 | [`experiments::npb_figure`] | `fig6_npb_clan`, `tab3_times` |
//! | Fig. 7 | [`experiments::npb_figure`] | `fig7_npb_bvia` |
//! | Fig. 8 | [`experiments::fig8`] | `fig8_init_time` |
//!
//! plus the four ablations of DESIGN.md ([`ablation`]) and `repro_all`,
//! which runs everything and refreshes `results/*.json`.

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
