//! # viampi — MPI over (simulated) VIA with on-demand connection management
//!
//! A full reproduction of *"Impact of On-Demand Connection Management in
//! MPI over VIA"* (Wu, Liu, Wyckoff, Panda — IEEE CLUSTER 2002) as a Rust
//! workspace:
//!
//! * [`sim`] — deterministic virtual-time discrete-event engine;
//! * [`via`] — the Virtual Interface Architecture fabric (VIs, descriptors,
//!   completion queues, client/server + peer-to-peer connection models,
//!   RDMA write, cLAN and Berkeley-VIA device profiles);
//! * [`core`](mod@core) — the MVICH-like MPI implementation with static
//!   *and* on-demand connection management (the paper's contribution);
//! * [`npb`] — NAS-parallel-benchmark-like workloads and the paper's
//!   microbenchmarks.
//!
//! The most common types are re-exported at the crate root.
//!
//! ```
//! use viampi::{Universe, Device, ConnMode, WaitPolicy, ReduceOp};
//!
//! let report = Universe::new(8, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
//!     .run(|mpi| mpi.allreduce(&[mpi.rank() as i64], ReduceOp::Sum)[0])
//!     .unwrap();
//! assert!(report.results.iter().all(|&s| s == 28));
//! // Only the allreduce tree was connected, not the full mesh:
//! assert!(report.avg_vis() < 7.0);
//! ```

#![forbid(unsafe_code)]

pub use viampi_core::{
    from_bytes, to_bytes, Comm, ConnMode, Device, Mpi, MpiConfig, RankReport, ReduceOp, Request,
    RunReport, Scalar, SendMode, Status, Universe, WaitPolicy, ANY_SOURCE, ANY_TAG,
};

/// The simulation engine substrate.
pub mod sim {
    pub use viampi_sim::*;
}

/// The VIA fabric substrate.
pub mod via {
    pub use viampi_via::*;
}

/// The MPI implementation (full API surface).
pub mod core {
    pub use viampi_core::*;
}

/// Workloads: NPB-like kernels, microbenchmarks, pattern generators.
pub mod npb {
    pub use viampi_npb::*;
}
