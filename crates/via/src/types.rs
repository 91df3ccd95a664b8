//! Identifiers, states and errors of the simulated VI Architecture.

use std::fmt;

/// Index of a node (physical host / NIC) in the fabric.
pub type NodeId = usize;

/// Handle to a VI endpoint, local to one NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViId(pub u32);

/// Handle to a registered (pinned) memory region, local to one NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemHandle(pub u32);

/// Identifier of a posted descriptor (unique per NIC, monotonically
/// increasing), echoed back in the matching [`Completion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DescId(pub u64);

/// Connection discriminator, as in the VIA connection model: both sides of a
/// peer-to-peer connection (or the client and the listening server) must use
/// the same discriminator for their requests to match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Discriminator(pub u64);

/// Connection state of a VI endpoint (VIA spec §2: Idle → Connect pending →
/// Connected → Error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViState {
    /// Created, not yet part of any connection attempt.
    Idle,
    /// A connection request has been issued (peer-to-peer or client/server)
    /// and is awaiting a match / accept.
    Connecting,
    /// A match was found; the establishment handshake is in flight.
    Establishing,
    /// Fully connected; data transfer is allowed.
    Connected,
    /// Torn down or failed.
    Error,
}

impl ViState {
    /// True in `Connected`.
    pub fn is_connected(self) -> bool {
        self == ViState::Connected
    }
}

/// The connection call that opens an idle VI: the last verb of a channel
/// end's bring-up (see [`crate::ViaPort::bring_up`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Open {
    /// `VipConnectPeerRequest` to `remote` under `disc`.
    Peer {
        /// Target node.
        remote: NodeId,
        /// Discriminator both sides use.
        disc: Discriminator,
    },
    /// `VipConnectRequest`: the client side of a client/server handshake.
    Request {
        /// The server node.
        remote: NodeId,
        /// Discriminator both sides use.
        disc: Discriminator,
    },
    /// `VipConnectAccept` of the pending client/server request `req_id`.
    Accept {
        /// The request, as [`CsRequest::id`] names it.
        req_id: u64,
    },
}

/// Failures surfaced by the VIA provider API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViaError {
    /// NIC VI table is full (`DeviceProfile::max_vis`).
    TooManyVis,
    /// Registering would exceed the pinnable-memory limit.
    PinLimitExceeded {
        /// Bytes requested by this registration.
        requested: usize,
        /// Bytes still available under the limit.
        available: usize,
    },
    /// Unknown or destroyed VI handle.
    InvalidVi,
    /// Unknown or deregistered memory handle.
    InvalidMem,
    /// Offset/length outside a registered region.
    OutOfBounds,
    /// Operation requires an unconnected VI (e.g. issuing a connect on an
    /// already-connected endpoint).
    AlreadyConnected,
    /// Operation requires a connected VI (e.g. RDMA write).
    NotConnected,
    /// Receive queue descriptor limit reached.
    RecvQueueFull,
    /// Client/server accept/reject referenced an unknown pending request.
    NoSuchRequest,
    /// A transient resource failure (injected by the fault layer on VI
    /// creation); the operation may succeed if retried.
    TransientFailure,
}

impl fmt::Display for ViaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViaError::TooManyVis => write!(f, "NIC VI limit reached"),
            ViaError::PinLimitExceeded {
                requested,
                available,
            } => write!(
                f,
                "pinned-memory limit exceeded (requested {requested} B, available {available} B)"
            ),
            ViaError::InvalidVi => write!(f, "invalid VI handle"),
            ViaError::InvalidMem => write!(f, "invalid memory handle"),
            ViaError::OutOfBounds => write!(f, "offset/length outside registered region"),
            ViaError::AlreadyConnected => write!(f, "VI already connected"),
            ViaError::NotConnected => write!(f, "VI not connected"),
            ViaError::RecvQueueFull => write!(f, "receive queue full"),
            ViaError::NoSuchRequest => write!(f, "no such pending connection request"),
            ViaError::TransientFailure => write!(f, "transient resource failure (retry)"),
        }
    }
}

impl std::error::Error for ViaError {}

/// Which queue a completion came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionKind {
    /// A send descriptor finished (data left the NIC; buffer reusable).
    Send,
    /// A receive descriptor was consumed by an incoming message.
    Recv,
    /// An RDMA write finished locally (source buffer reusable).
    RdmaWrite,
}

/// Completion-queue entry.
#[derive(Debug, Clone)]
pub struct Completion {
    /// VI the descriptor was posted on.
    pub vi: ViId,
    /// Which operation completed.
    pub kind: CompletionKind,
    /// The posted descriptor this completes.
    pub desc: DescId,
    /// For `Recv`: number of bytes written into the receive buffer.
    pub len: usize,
    /// For `Recv`: immediate tag carried by the send descriptor.
    pub imm: u32,
    /// For `Recv`: the consumed descriptor's segment `(region, offset)` —
    /// what a caller reposts, as `VipRecvDone` hands back the descriptor.
    pub segment: Option<(MemHandle, usize)>,
    /// For `Recv` on the zero-copy wire path: the pooled frame, delivered
    /// by reference instead of through the descriptor's registered region.
    pub payload: Option<crate::fabric::Bytes>,
}

/// An incoming peer-to-peer connection request visible to the target process
/// before it has issued its own matching `connect_peer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerRequest {
    /// Node that issued the request.
    pub from: NodeId,
    /// Its discriminator.
    pub disc: Discriminator,
}

/// An incoming client/server connection request awaiting accept/reject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsRequest {
    /// Identifier to pass to `accept_cs` / `reject_cs`.
    pub id: u64,
    /// Client node.
    pub from: NodeId,
    /// Client discriminator.
    pub disc: Discriminator,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vi_state_connected_predicate() {
        assert!(ViState::Connected.is_connected());
        for s in [
            ViState::Idle,
            ViState::Connecting,
            ViState::Establishing,
            ViState::Error,
        ] {
            assert!(!s.is_connected());
        }
    }

    #[test]
    fn errors_display_without_panicking() {
        let errs = [
            ViaError::TooManyVis,
            ViaError::PinLimitExceeded {
                requested: 10,
                available: 5,
            },
            ViaError::InvalidVi,
            ViaError::InvalidMem,
            ViaError::OutOfBounds,
            ViaError::AlreadyConnected,
            ViaError::NotConnected,
            ViaError::RecvQueueFull,
            ViaError::NoSuchRequest,
            ViaError::TransientFailure,
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
