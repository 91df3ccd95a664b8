//! Collective operations, implemented over point-to-point exactly as the
//! MPICH 1.2 layer MVICH inherited:
//!
//! * `barrier` / `allreduce` — recursive doubling with non-power-of-two
//!   ranks folded into the power-of-two core (every core rank touches
//!   exactly ⌈log₂N⌉ partners — the Table 2 VI counts; the fold-in is the
//!   paper's "extra steps for nodes which are not in the binomial tree"
//!   fluctuation in Fig. 4);
//! * `bcast` / `reduce` — binomial trees;
//! * `allgather` — recursive doubling for power-of-two sizes, gather+bcast
//!   otherwise;
//! * `alltoall` / `alltoallv` — pairwise exchange with every peer (full
//!   connectivity, Table 2's utilization-1.0 rows);
//! * `gather` / `scatter` — linear (root exchanges with every peer).
//!
//! Every algorithm runs against a `Group`: the whole world (context 1)
//! for the `Mpi`-level operations, or a sub-communicator created by
//! [`crate::comm::Comm`] (each split gets its own context id, so traffic in
//! different communicators can never cross-match).

use crate::datatype::{from_bytes, reduce_into, to_bytes, ReduceOp, Scalar};
use crate::device::Payload;
use crate::mpi::Mpi;
use viampi_via::fabric::Bytes;

const WORLD_CTX: u16 = 1;
const TAG_GATHER: i32 = 1000;
const TAG_RELEASE: i32 = 1001;
const TAG_BCAST: i32 = 1002;
const TAG_REDUCE: i32 = 1003;
const TAG_ALLGATHER: i32 = 1004;
const TAG_ALLTOALL: i32 = 1005;
const TAG_SCATTER: i32 = 1006;
const TAG_GATHERL: i32 = 1007;

/// A participant set for a collective: the ranks (as world ranks), this
/// process's index within them, and the context id separating its traffic.
pub(crate) struct Group<'a> {
    pub mpi: &'a Mpi,
    pub context: u16,
    /// World rank of each member, indexed by group rank.
    pub world: GroupRanks<'a>,
    /// This process's group rank.
    pub me: usize,
}

/// Rank translation: the world group is the identity and needs no table.
pub(crate) enum GroupRanks<'a> {
    Identity(usize),
    Table(&'a [usize]),
}

impl GroupRanks<'_> {
    #[inline]
    fn len(&self) -> usize {
        match self {
            GroupRanks::Identity(n) => *n,
            GroupRanks::Table(t) => t.len(),
        }
    }

    #[inline]
    fn world(&self, group_rank: usize) -> usize {
        match self {
            GroupRanks::Identity(_) => group_rank,
            GroupRanks::Table(t) => t[group_rank],
        }
    }
}

impl<'a> Group<'a> {
    fn size(&self) -> usize {
        self.world.len()
    }

    fn send(&self, buf: &[u8], dst: usize, tag: i32) {
        let r = self
            .mpi
            .isend_ctx(buf.into(), self.world.world(dst), self.context, tag);
        self.mpi.wait(r);
    }

    fn isend(&self, buf: Payload<'_>, dst: usize, tag: i32) -> crate::request::Request {
        self.mpi
            .isend_ctx(buf, self.world.world(dst), self.context, tag)
    }

    fn recv(&self, src: usize, tag: i32) -> Vec<u8> {
        let r = self
            .mpi
            .irecv_ctx(Some(self.world.world(src)), self.context, Some(tag));
        self.mpi.wait(r).0.expect("collective receive")
    }

    /// Receive from any group member; returns `(data, group_rank)`.
    fn recv_any(&self, tag: i32) -> (Vec<u8>, usize) {
        let r = self.mpi.irecv_ctx(None, self.context, Some(tag));
        let (d, st) = self.mpi.wait(r);
        let grank = match &self.world {
            GroupRanks::Identity(_) => st.source,
            GroupRanks::Table(t) => t
                .iter()
                .position(|&w| w == st.source)
                .expect("sender is a group member"),
        };
        (d.expect("collective receive"), grank)
    }

    fn sendrecv(&self, buf: &[u8], peer: usize, tag: i32) -> Vec<u8> {
        let w = self.world.world(peer);
        self.mpi.sendrecv_ctx(buf, w, self.context, tag, w, tag)
    }

    /// A rooted collective names a member of the group. Checked in the
    /// caller, before anything is sent: past this point a root outside the
    /// group is a wrapped subtraction at best.
    fn check_root(&self, op: &str, root: usize) {
        assert!(
            root < self.size(),
            "{op}: invalid root rank {root} (called by rank {} of a group of {})",
            self.me,
            self.size()
        );
    }

    // ---- the algorithms -------------------------------------------------

    pub(crate) fn barrier(&self) {
        let _span = self.mpi.count_collective("barrier");
        let (rank, size) = (self.me, self.size());
        if size == 1 {
            return;
        }
        let core = prev_pow2(size);
        let rem = size - core;
        if rank >= core {
            // Fold-in: notify the core partner, then wait for release.
            self.send(&[], rank - core, TAG_GATHER);
            self.recv(rank - core, TAG_RELEASE);
            return;
        }
        if rank < rem {
            self.recv(rank + core, TAG_GATHER);
        }
        let mut mask = 1usize;
        while mask < core {
            let partner = rank ^ mask;
            self.sendrecv(&[], partner, TAG_GATHER);
            mask <<= 1;
        }
        if rank < rem {
            self.send(&[], rank + core, TAG_RELEASE);
        }
    }

    pub(crate) fn bcast(&self, root: usize, data: Option<&[u8]>) -> Vec<u8> {
        self.check_root("bcast", root);
        let _span = self.mpi.count_collective("bcast");
        let (rank, size) = (self.me, self.size());
        let mut buf: Vec<u8> = if rank == root {
            data.expect("root must supply broadcast data").to_vec()
        } else {
            Vec::new()
        };
        if size == 1 {
            return buf;
        }
        let relative = (rank + size - root) % size;
        let mut mask = 1usize;
        while mask < size {
            if relative & mask != 0 {
                let src = (rank + size - mask) % size;
                buf = self.recv(src, TAG_BCAST);
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        let mut pending = Vec::new();
        while mask > 0 {
            if relative + mask < size {
                let dst = (rank + mask) % size;
                pending.push(self.isend(Payload::Borrowed(&buf), dst, TAG_BCAST));
            }
            mask >>= 1;
        }
        for r in pending {
            self.mpi.wait(r);
        }
        buf
    }

    pub(crate) fn reduce<T: Scalar>(
        &self,
        root: usize,
        data: &[T],
        op: ReduceOp,
    ) -> Option<Vec<T>> {
        self.check_root("reduce", root);
        let _span = self.mpi.count_collective("reduce");
        let (rank, size) = (self.me, self.size());
        let mut acc = data.to_vec();
        if size == 1 {
            return Some(acc);
        }
        let relative = (rank + size - root) % size;
        let mut mask = 1usize;
        while mask < size {
            if relative & mask == 0 {
                let src_rel = relative | mask;
                if src_rel < size {
                    let src = (src_rel + root) % size;
                    let d = self.recv(src, TAG_REDUCE);
                    let partial: Vec<T> = from_bytes(&d);
                    reduce_into(op, &mut acc, &partial);
                    self.mpi.compute(acc.len() as f64);
                }
            } else {
                let dst_rel = relative & !mask;
                let dst = (dst_rel + root) % size;
                self.send(&to_bytes(&acc), dst, TAG_REDUCE);
                return None;
            }
            mask <<= 1;
        }
        Some(acc)
    }

    pub(crate) fn allreduce<T: Scalar>(&self, data: &[T], op: ReduceOp) -> Vec<T> {
        let _span = self.mpi.count_collective("allreduce");
        let (rank, size) = (self.me, self.size());
        let mut acc = data.to_vec();
        if size == 1 {
            return acc;
        }
        let core = prev_pow2(size);
        let rem = size - core;
        if rank >= core {
            // Contribute to the core partner, then receive the result.
            self.send(&to_bytes(&acc), rank - core, TAG_REDUCE);
            let d = self.recv(rank - core, TAG_BCAST);
            return from_bytes(&d);
        }
        if rank < rem {
            let d = self.recv(rank + core, TAG_REDUCE);
            let partial: Vec<T> = from_bytes(&d);
            reduce_into(op, &mut acc, &partial);
            self.mpi.compute(acc.len() as f64);
        }
        let mut mask = 1usize;
        while mask < core {
            let partner = rank ^ mask;
            let theirs = self.sendrecv(&to_bytes(&acc), partner, TAG_REDUCE);
            let partial: Vec<T> = from_bytes(&theirs);
            reduce_into(op, &mut acc, &partial);
            self.mpi.compute(acc.len() as f64);
            mask <<= 1;
        }
        if rank < rem {
            self.send(&to_bytes(&acc), rank + core, TAG_BCAST);
        }
        acc
    }

    pub(crate) fn allgather(&self, data: &[u8]) -> Vec<Vec<u8>> {
        let _span = self.mpi.count_collective("allgather");
        let (rank, size) = (self.me, self.size());
        let mut blocks: Vec<Option<Vec<u8>>> = vec![None; size];
        blocks[rank] = Some(data.to_vec());
        if size == 1 {
            return blocks.into_iter().map(|b| b.unwrap()).collect();
        }
        if size.is_power_of_two() {
            let mut mask = 1usize;
            while mask < size {
                let partner = rank ^ mask;
                let mine = pack_blocks(&blocks);
                let theirs = self.sendrecv(&mine, partner, TAG_ALLGATHER);
                unpack_blocks(&theirs, &mut blocks);
                mask <<= 1;
            }
        } else {
            // Gather to 0, then broadcast the packed table.
            if rank == 0 {
                for _ in 1..size {
                    let (d, src) = self.recv_any(TAG_ALLGATHER);
                    blocks[src] = Some(d);
                }
            } else {
                self.send(data, 0, TAG_ALLGATHER);
            }
            let packed = if rank == 0 {
                Some(pack_blocks(&blocks))
            } else {
                None
            };
            let table = self.bcast(0, packed.as_deref());
            unpack_blocks(&table, &mut blocks);
        }
        blocks.into_iter().map(|b| b.expect("all blocks")).collect()
    }

    /// Every block is moved, not cloned: the own block straight into the
    /// result, each other one into its send, where a rendezvous registers
    /// it in place. Each received block is returned as it landed.
    pub(crate) fn alltoall(&self, send: Vec<Bytes>) -> Vec<Bytes> {
        let _span = self.mpi.count_collective("alltoall");
        let (rank, size) = (self.me, self.size());
        assert_eq!(send.len(), size, "one block per destination");
        let mut send: Vec<Option<Bytes>> = send.into_iter().map(Some).collect();
        let mut out: Vec<Option<Bytes>> = (0..size).map(|_| None).collect();
        out[rank] = send[rank].take();
        for i in 1..size {
            let dst = (rank + i) % size;
            let src = (rank + size - i) % size;
            let rr = self.mpi.irecv_ctx(
                Some(self.world.world(src)),
                self.context,
                Some(TAG_ALLTOALL),
            );
            let block = send[dst].take().expect("one send per destination");
            let sr = self.isend(Payload::Owned(block), dst, TAG_ALLTOALL);
            out[src] = self.mpi.wait_bytes(rr).0;
            self.mpi.wait(sr);
        }
        out.into_iter()
            .map(|b| b.expect("alltoall block"))
            .collect()
    }

    /// [`Group::alltoall`] over owned `Vec` blocks: each is wrapped as it
    /// is and each received one taken out with [`Bytes::into_vec`].
    pub(crate) fn alltoall_vecs(&self, send: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        let send = send.into_iter().map(Bytes::from_vec).collect();
        let recv = self.alltoall(send);
        recv.into_iter().map(Bytes::into_vec).collect()
    }

    pub(crate) fn gather(&self, root: usize, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        self.check_root("gather", root);
        let _span = self.mpi.count_collective("gather");
        let (rank, size) = (self.me, self.size());
        if rank == root {
            let mut blocks: Vec<Vec<u8>> = vec![Vec::new(); size];
            blocks[rank] = data.to_vec();
            for _ in 0..size - 1 {
                let (d, src) = self.recv_any(TAG_GATHERL);
                blocks[src] = d;
            }
            Some(blocks)
        } else {
            self.send(data, root, TAG_GATHERL);
            None
        }
    }

    pub(crate) fn scatter(&self, root: usize, blocks: Option<&[Vec<u8>]>) -> Vec<u8> {
        self.check_root("scatter", root);
        let _span = self.mpi.count_collective("scatter");
        let (rank, size) = (self.me, self.size());
        if rank == root {
            let blocks = blocks.expect("root must supply scatter blocks");
            assert_eq!(blocks.len(), size);
            let mut pending = Vec::new();
            for (i, b) in blocks.iter().enumerate() {
                if i != rank {
                    pending.push(self.isend(Payload::Borrowed(b), i, TAG_SCATTER));
                }
            }
            for r in pending {
                self.mpi.wait(r);
            }
            blocks[rank].clone()
        } else {
            self.recv(root, TAG_SCATTER)
        }
    }
}

impl Mpi {
    pub(crate) fn world_group(&self) -> Group<'_> {
        Group {
            mpi: self,
            context: WORLD_CTX,
            world: GroupRanks::Identity(self.size()),
            me: self.rank(),
        }
    }

    /// `MPI_Barrier` on `COMM_WORLD`.
    pub fn barrier(&self) {
        self.world_group().barrier()
    }

    /// `MPI_Bcast`: root passes `Some(data)`, everyone receives the payload.
    pub fn bcast(&self, root: usize, data: Option<&[u8]>) -> Vec<u8> {
        self.world_group().bcast(root, data)
    }

    /// `MPI_Reduce` of a typed vector; the root receives `Some(result)`.
    pub fn reduce<T: Scalar>(&self, root: usize, data: &[T], op: ReduceOp) -> Option<Vec<T>> {
        self.world_group().reduce(root, data, op)
    }

    /// `MPI_Allreduce` — recursive doubling (MPICH 1.2; Table 2's log-N
    /// partner sets).
    pub fn allreduce<T: Scalar>(&self, data: &[T], op: ReduceOp) -> Vec<T> {
        self.world_group().allreduce(data, op)
    }

    /// `MPI_Allgather` of one byte-block per rank; returns all blocks in
    /// rank order.
    pub fn allgather(&self, data: &[u8]) -> Vec<Vec<u8>> {
        self.world_group().allgather(data)
    }

    /// `MPI_Alltoall`: `send[i]` goes to rank `i`; returns received blocks
    /// in rank order. Pairwise exchange with every peer. The blocks are
    /// taken by value: a block above the eager threshold is registered in
    /// place for the RDMA write rather than copied, and this rank's own
    /// block comes back as its entry of the result. A caller that needs its
    /// blocks again passes a clone.
    pub fn alltoall(&self, send: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        self.world_group().alltoall_vecs(send)
    }

    /// `MPI_Alltoallv` over one send buffer: rank `d` gets `counts[d]`
    /// bytes of `send`, at the sum of the counts before it (blocks may be
    /// empty; the wire protocol carries explicit lengths). Each block is a
    /// window of `send`, not a copy — a rendezvous registers it in place,
    /// as MVICH registers the user buffer — so the caller keeps `send` for
    /// the next call. The received blocks come back in rank order as they
    /// landed, this rank's own as its window of `send`: no host copy is
    /// made on either side beyond an eager block's one copy into its wire
    /// frame.
    pub fn alltoallv(&self, send: &Bytes, counts: &[usize]) -> Vec<Bytes> {
        assert_eq!(counts.len(), self.size(), "one count per destination");
        assert!(
            counts.iter().sum::<usize>() <= send.len(),
            "alltoallv: the counts add up to more than the {} bytes sent",
            send.len()
        );
        let mut at = 0;
        let blocks = counts
            .iter()
            .map(|&n| {
                let mut block = send.clone();
                block.advance(at);
                block.truncate(n);
                at += n;
                block
            })
            .collect();
        self.world_group().alltoall(blocks)
    }

    /// `MPI_Gather` to `root` (linear).
    pub fn gather(&self, root: usize, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        self.world_group().gather(root, data)
    }

    /// `MPI_Scatter` from `root` (linear): rank `i` receives `blocks[i]`.
    pub fn scatter(&self, root: usize, blocks: Option<&[Vec<u8>]>) -> Vec<u8> {
        self.world_group().scatter(root, blocks)
    }
}

fn prev_pow2(n: usize) -> usize {
    let mut p = 1;
    while p * 2 < n + 1 {
        p *= 2;
    }
    p
}

/// Serialize present blocks as `(index: u32, len: u32, bytes)` records.
fn pack_blocks(blocks: &[Option<Vec<u8>>]) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, b) in blocks.iter().enumerate() {
        if let Some(b) = b {
            out.extend_from_slice(&(i as u32).to_le_bytes());
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
    }
    out
}

/// Merge packed records into `blocks`.
fn unpack_blocks(mut buf: &[u8], blocks: &mut [Option<Vec<u8>>]) {
    while buf.len() >= 8 {
        let i = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
        let len = u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize;
        blocks[i] = Some(buf[8..8 + len].to_vec());
        buf = &buf[8 + len..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let blocks = vec![Some(vec![1, 2, 3]), None, Some(vec![]), Some(vec![9; 100])];
        let packed = pack_blocks(&blocks);
        let mut out: Vec<Option<Vec<u8>>> = vec![None; 4];
        unpack_blocks(&packed, &mut out);
        assert_eq!(out[0], Some(vec![1, 2, 3]));
        assert_eq!(out[1], None);
        assert_eq!(out[2], Some(vec![]));
        assert_eq!(out[3], Some(vec![9; 100]));
    }

    #[test]
    fn prev_pow2_values() {
        assert_eq!(prev_pow2(1), 1);
        assert_eq!(prev_pow2(2), 2);
        assert_eq!(prev_pow2(3), 2);
        assert_eq!(prev_pow2(8), 8);
        assert_eq!(prev_pow2(9), 8);
        assert_eq!(prev_pow2(31), 16);
    }
}
