//! Wire protocol of the MVICH-like ADI: every VIA message carries a fixed
//! 32-byte header followed by an optional payload.
//!
//! Message classes:
//!
//! * `Eager` — data ≤ the eager threshold, staged through pre-posted
//!   per-VI buffers (consumes one flow-control credit);
//! * `Rts`/`Cts`/`Fin` — the rendezvous handshake for long messages; the
//!   data itself moves by RDMA write and consumes **no** credits;
//! * `Credit` — explicit credit return when there is no traffic to
//!   piggyback on.
//!
//! Every header piggybacks `credits`: the number of receive buffers the
//! sender has reposted and is returning to the peer.

/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 32;

/// Message class discriminants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgKind {
    /// Small message with inline payload.
    Eager = 1,
    /// Rendezvous request-to-send.
    Rts = 2,
    /// Rendezvous clear-to-send (carries the receiver's RDMA target).
    Cts = 3,
    /// Rendezvous finished (RDMA data is in place).
    Fin = 4,
    /// Explicit credit return.
    Credit = 5,
}

impl MsgKind {
    fn from_u8(v: u8) -> Option<MsgKind> {
        Some(match v {
            1 => MsgKind::Eager,
            2 => MsgKind::Rts,
            3 => MsgKind::Cts,
            4 => MsgKind::Fin,
            5 => MsgKind::Credit,
            _ => return None,
        })
    }
}

/// Decoded wire header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Message class.
    pub kind: MsgKind,
    /// Piggybacked credit returns.
    pub credits: u8,
    /// Communicator context id (collectives vs point-to-point).
    pub context: u16,
    /// Sending rank.
    pub src: u32,
    /// MPI tag.
    pub tag: i32,
    /// Kind-specific: Rts/Cts → sender request id; Fin → receiver request id.
    pub aux1: u64,
    /// Kind-specific: Rts → message length; Cts → `(rreq << 32) | mem`.
    pub aux2: u64,
    /// Eager payload length.
    pub len: u32,
}

impl Header {
    /// A control message (`Cts`, `Fin`, `Credit`): no matching envelope and
    /// no payload, only the two kind-specific words.
    pub fn control(kind: MsgKind, src: u32, aux1: u64, aux2: u64) -> Header {
        Header {
            kind,
            credits: 0,
            context: 0,
            src,
            tag: 0,
            aux1,
            aux2,
            len: 0,
        }
    }

    /// Encode into the first [`HEADER_LEN`] bytes of `out`.
    pub fn encode(&self, out: &mut [u8]) {
        assert!(out.len() >= HEADER_LEN);
        out[0] = self.kind as u8;
        out[1] = self.credits;
        out[2..4].copy_from_slice(&self.context.to_le_bytes());
        out[4..8].copy_from_slice(&self.src.to_le_bytes());
        out[8..12].copy_from_slice(&self.tag.to_le_bytes());
        out[12..20].copy_from_slice(&self.aux1.to_le_bytes());
        out[20..28].copy_from_slice(&self.aux2.to_le_bytes());
        out[28..32].copy_from_slice(&self.len.to_le_bytes());
    }

    /// Serialize to an owned buffer of exactly [`HEADER_LEN`] bytes.
    pub fn to_bytes(&self) -> [u8; HEADER_LEN] {
        let mut b = [0u8; HEADER_LEN];
        self.encode(&mut b);
        b
    }

    /// Decode a header from the first [`HEADER_LEN`] bytes of `buf`.
    pub fn decode(buf: &[u8]) -> Option<Header> {
        if buf.len() < HEADER_LEN {
            return None;
        }
        Some(Header {
            kind: MsgKind::from_u8(buf[0])?,
            credits: buf[1],
            context: u16::from_le_bytes(buf[2..4].try_into().unwrap()),
            src: u32::from_le_bytes(buf[4..8].try_into().unwrap()),
            tag: i32::from_le_bytes(buf[8..12].try_into().unwrap()),
            aux1: u64::from_le_bytes(buf[12..20].try_into().unwrap()),
            aux2: u64::from_le_bytes(buf[20..28].try_into().unwrap()),
            len: u32::from_le_bytes(buf[28..32].try_into().unwrap()),
        })
    }

    /// Pack a CTS `aux2` from receiver request id and memory handle.
    pub fn pack_cts(rreq: u64, mem: u32) -> u64 {
        (rreq << 32) | mem as u64
    }

    /// Unpack a CTS `aux2` into `(rreq, mem)`.
    pub fn unpack_cts(aux2: u64) -> (u64, u32) {
        (aux2 >> 32, (aux2 & 0xFFFF_FFFF) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: MsgKind) -> Header {
        Header {
            kind,
            credits: 200,
            context: 7,
            src: 31,
            tag: -42,
            aux1: 0x0000_DEAD_BEEF_0123,
            aux2: 0x0000_FEED_FACE_4567,
            len: 5000,
        }
    }

    #[test]
    fn roundtrip_all_kinds() {
        for kind in [
            MsgKind::Eager,
            MsgKind::Rts,
            MsgKind::Cts,
            MsgKind::Fin,
            MsgKind::Credit,
        ] {
            let h = sample(kind);
            let b = h.to_bytes();
            assert_eq!(Header::decode(&b), Some(h));
        }
    }

    #[test]
    fn negative_tags_roundtrip() {
        let mut h = sample(MsgKind::Eager);
        h.tag = i32::MIN;
        assert_eq!(Header::decode(&h.to_bytes()).unwrap().tag, i32::MIN);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Header::decode(&[0u8; HEADER_LEN]).is_none(), "kind 0");
        assert!(Header::decode(&[9u8; HEADER_LEN]).is_none(), "kind 9");
        assert!(Header::decode(&[1u8; 10]).is_none(), "short buffer");
    }

    #[test]
    fn cts_packing_roundtrips() {
        let (rreq, mem) = (0xAB_CDEFu64, 0x1234u32);
        let packed = Header::pack_cts(rreq, mem);
        assert_eq!(Header::unpack_cts(packed), (rreq, mem));
    }

    #[test]
    fn header_is_exactly_32_bytes() {
        // The eager threshold / buffer sizing arithmetic depends on this.
        assert_eq!(HEADER_LEN, 32);
        let h = sample(MsgKind::Rts);
        assert_eq!(h.to_bytes().len(), 32);
    }
}
