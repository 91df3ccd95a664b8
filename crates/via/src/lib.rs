//! # viampi-via — a simulated Virtual Interface Architecture fabric
//!
//! A faithful-in-behaviour model of the VI Architecture (Compaq/Intel/
//! Microsoft, 1997) as used by MVICH in the reproduced paper:
//!
//! * **VI endpoints** with send/receive work queues; receive descriptors
//!   must be pre-posted or arrivals are dropped; sends posted on an
//!   unconnected VI are discarded (the hazard the paper's pre-posted-send
//!   FIFO exists to avoid);
//! * **connection-oriented** transfer with both the VIA 0.95 client/server
//!   model and the VIA 1.0 peer-to-peer model, including the simultaneous-
//!   connect race;
//! * **registered (pinned) memory** with per-NIC limits and accounting —
//!   the resource whose waste the paper quantifies (119 GB of unused eager
//!   buffers for CG on 1024 nodes);
//! * **RDMA write** for the rendezvous protocol;
//! * two **device profiles**: GigaNet cLAN (hardware VIA; interrupt-based
//!   blocking wait) and Berkeley VIA on Myrinet (firmware VIA; per-message
//!   cost grows with the number of live VIs — paper Fig. 1 — and wait is
//!   implemented by polling).
//!
//! Everything runs over the [`viampi_sim`] virtual-time engine, so all
//! latencies are modelled, deterministic, and reproducible.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fabric;
pub mod fault;
pub mod nic;
pub mod port;
pub mod profile;
pub mod types;

pub use fabric::{Fabric, FabricEvent, Packet, PacketBody};
pub use fault::{fault_metrics, FaultInjector, FaultProfile};
pub use nic::{nic_metrics, Nic, RecvRun, Region, Vi};
pub use port::{fabric_engine, ViaPort};
pub use profile::DeviceProfile;
pub use types::{
    Completion, CompletionKind, CsRequest, DescId, Discriminator, MemHandle, NodeId, PeerRequest,
    ViId, ViState, ViaError,
};
