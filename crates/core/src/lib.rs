//! # viampi-core — MPI over simulated VIA with on-demand connections
//!
//! The reproduction of the paper's contribution: an MVICH-like MPI
//! implementation over the [`viampi_via`] fabric, supporting three
//! connection-management strategies —
//!
//! * [`ConnMode::StaticClientServer`] — fully-connected at `MPI_Init`,
//!   VIA 0.95 client/server model, serialized as in MVICH;
//! * [`ConnMode::StaticPeerToPeer`] — fully-connected at `MPI_Init`,
//!   VIA 1.0 peer-to-peer model;
//! * [`ConnMode::OnDemand`] — the paper's mechanism: a VI is created and
//!   connected only when a pair of processes first communicates, with
//!   pre-posted sends held in a per-VI FIFO and `MPI_ANY_SOURCE` receives
//!   triggering connection requests to every peer;
//!
//! and two completion-wait policies ([`WaitPolicy::Polling`] and the MVICH
//! default [`WaitPolicy::SpinWait`]), whose interaction with the device
//! profiles produces the *static-polling* / *static-spinwait* / *on-demand*
//! comparison of the paper's §5.
//!
//! ## Quickstart
//!
//! ```
//! use viampi_core::{Universe, Device, ConnMode, WaitPolicy};
//!
//! let uni = Universe::new(4, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling);
//! let report = uni.run(|mpi| {
//!     let rank = mpi.rank();
//!     let next = (rank + 1) % mpi.size();
//!     let prev = (rank + mpi.size() - 1) % mpi.size();
//!     let (data, _) = mpi.sendrecv(&[rank as u8], next, 0, Some(prev), Some(0));
//!     data[0] as usize
//! }).unwrap();
//! assert_eq!(report.results, vec![3, 0, 1, 2]);
//! // A ring only ever talks to two neighbours: 2 VIs per process, not 3.
//! assert!((report.avg_vis() - 2.0).abs() < f64::EPSILON);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collective;
pub mod comm;
pub mod config;
pub mod conn;
pub mod datatype;
pub mod device;
pub mod invariants;
pub mod matching;
pub mod mpi;
pub mod protocol;
pub mod request;
mod table;
pub mod trace;
pub mod universe;
mod window;

pub use comm::Comm;
pub use config::{ConnMode, Device, MpiConfig, WaitPolicy};
pub use conn::ChanState;
pub use datatype::{from_bytes, reduce_into, to_bytes, ReduceOp, Scalar};
pub use device::{mpi_metrics, ChannelSnapshot};
pub use mpi::{Mpi, ANY_SOURCE, ANY_TAG};
pub use request::{MpiError, Request, SendMode, Status};
pub use trace::{render_timeline, Span, SpanKind, TraceEvent, TraceKind};
pub use universe::{RankReport, RunReport, Universe};
pub use viampi_via::{fault_metrics, nic_metrics, FaultProfile};
