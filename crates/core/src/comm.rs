//! Communicators: `MPI_Comm_split` over `COMM_WORLD`.
//!
//! MVICH (MPICH 1.2) implemented communicators as a `(context id, rank
//! translation table)` pair; so do we. `comm_split` is collective: all
//! ranks exchange `(color, key)` through an allgather, each builds its
//! group sorted by `(key, world rank)`, and every split allocates a fresh
//! context id (counted identically on all ranks, so they agree without
//! extra traffic). Traffic in different communicators can never
//! cross-match because the wire header carries the context.
//!
//! Under on-demand management, a sub-communicator costs nothing until it
//! is used — exactly the paper's resource argument, extended to the
//! communicator level.

use crate::collective::{Group, GroupRanks};
use crate::datatype::{ReduceOp, Scalar};
use crate::mpi::Mpi;
use crate::request::{Request, Status};

/// A sub-communicator produced by [`Mpi::comm_split`].
#[derive(Debug, Clone)]
pub struct Comm {
    context: u16,
    /// World rank of each member, indexed by communicator rank.
    ranks: Vec<usize>,
    /// This process's rank within the communicator.
    me: usize,
}

impl Mpi {
    /// `MPI_Comm_split`: ranks with equal `color` form a communicator,
    /// ordered by `(key, world rank)`. Collective over `COMM_WORLD`.
    pub fn comm_split(&self, color: i64, key: i64) -> Comm {
        let context = self.alloc_context();
        let mut record = Vec::with_capacity(24);
        record.extend_from_slice(&color.to_le_bytes());
        record.extend_from_slice(&key.to_le_bytes());
        record.extend_from_slice(&(self.rank() as u64).to_le_bytes());
        let all = self.allgather(&record);
        let mut members: Vec<(i64, usize)> = all
            .iter()
            .filter_map(|b| {
                let c = i64::from_le_bytes(b[0..8].try_into().unwrap());
                if c != color {
                    return None;
                }
                let k = i64::from_le_bytes(b[8..16].try_into().unwrap());
                let w = u64::from_le_bytes(b[16..24].try_into().unwrap()) as usize;
                Some((k, w))
            })
            .collect();
        members.sort_unstable();
        let ranks: Vec<usize> = members.into_iter().map(|(_, w)| w).collect();
        let me = ranks
            .iter()
            .position(|&w| w == self.rank())
            .expect("caller is in its own color group");
        Comm { context, ranks, me }
    }

    fn group_of<'a>(&'a self, comm: &'a Comm) -> Group<'a> {
        Group {
            mpi: self,
            context: comm.context,
            world: GroupRanks::Table(&comm.ranks),
            me: comm.me,
        }
    }
}

impl Comm {
    /// Rank of this process within the communicator.
    pub fn rank(&self) -> usize {
        self.me
    }

    /// Number of processes in the communicator.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// World rank of communicator rank `r`.
    pub fn world_rank(&self, r: usize) -> usize {
        self.ranks[r]
    }

    /// Context id (diagnostic).
    pub fn context(&self) -> u16 {
        self.context
    }

    // ---- point-to-point within the communicator -------------------------

    /// Blocking standard send to communicator rank `dst`.
    pub fn send(&self, mpi: &Mpi, buf: &[u8], dst: usize, tag: i32) {
        let r = self.isend(mpi, buf, dst, tag);
        mpi.wait(r);
    }

    /// Nonblocking standard send to communicator rank `dst`.
    pub fn isend(&self, mpi: &Mpi, buf: &[u8], dst: usize, tag: i32) -> Request {
        assert!(tag >= 0, "user tags must be non-negative");
        mpi.isend_ctx(buf.into(), self.ranks[dst], self.context, tag)
    }

    /// Blocking receive from communicator rank `src` (or any member).
    pub fn recv(&self, mpi: &Mpi, src: Option<usize>, tag: Option<i32>) -> (Vec<u8>, Status) {
        let r = self.irecv(mpi, src, tag);
        let (d, mut st) = mpi.wait(r);
        st.source = self.comm_rank_of(st.source);
        (d.expect("receive produces data"), st)
    }

    /// Nonblocking receive. The returned status (from `Mpi::wait`) carries
    /// the *world* source; [`Comm::comm_rank_of`] translates.
    pub fn irecv(&self, mpi: &Mpi, src: Option<usize>, tag: Option<i32>) -> Request {
        mpi.irecv_ctx(src.map(|s| self.ranks[s]), self.context, tag)
    }

    /// Translate a world rank back to a communicator rank.
    pub fn comm_rank_of(&self, world: usize) -> usize {
        self.ranks
            .iter()
            .position(|&w| w == world)
            .expect("world rank is a member")
    }

    // ---- collectives -----------------------------------------------------

    /// Barrier over the communicator.
    pub fn barrier(&self, mpi: &Mpi) {
        mpi.group_of(self).barrier()
    }

    /// Broadcast from communicator rank `root`.
    pub fn bcast(&self, mpi: &Mpi, root: usize, data: Option<&[u8]>) -> Vec<u8> {
        mpi.group_of(self).bcast(root, data)
    }

    /// Reduce to communicator rank `root`.
    pub fn reduce<T: Scalar>(
        &self,
        mpi: &Mpi,
        root: usize,
        data: &[T],
        op: ReduceOp,
    ) -> Option<Vec<T>> {
        mpi.group_of(self).reduce(root, data, op)
    }

    /// Allreduce over the communicator.
    pub fn allreduce<T: Scalar>(&self, mpi: &Mpi, data: &[T], op: ReduceOp) -> Vec<T> {
        mpi.group_of(self).allreduce(data, op)
    }

    /// Allgather over the communicator.
    pub fn allgather(&self, mpi: &Mpi, data: &[u8]) -> Vec<Vec<u8>> {
        mpi.group_of(self).allgather(data)
    }

    /// Alltoall over the communicator; takes the blocks by value, as
    /// [`Mpi::alltoall`] does.
    pub fn alltoall(&self, mpi: &Mpi, send: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        mpi.group_of(self).alltoall_vecs(send)
    }

    /// Gather to communicator rank `root`.
    pub fn gather(&self, mpi: &Mpi, root: usize, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        mpi.group_of(self).gather(root, data)
    }

    /// Scatter from communicator rank `root`.
    pub fn scatter(&self, mpi: &Mpi, root: usize, blocks: Option<&[Vec<u8>]>) -> Vec<u8> {
        mpi.group_of(self).scatter(root, blocks)
    }
}
