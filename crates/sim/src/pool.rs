//! Size-classed, recycle-on-drop buffer pool.
//!
//! [`PooledBuf`] is a cheap ref-counted handle over a pooled allocation: a
//! message body is copied at most once (user buffer → pooled buffer) and
//! handed by reference thereafter — an eager frame through the NIC, the
//! completion and the unexpected queue; a rendezvous payload through the
//! sender's pinned region, the RDMA packet and the receiver's landing
//! region. A rendezvous payload its owner hands over is not copied at all:
//! it is wrapped as it is ([`PooledBuf::from_vec`]) and never joins a free
//! list. When the last handle drops, a pooled allocation returns to its
//! [`BufferPool`] free list for reuse. [`PoolStats::bytes_copied`] counts
//! what the pool writes, so "at most once" is checked by `==`
//! (`crates/core/tests/semantics.rs`), not by reading the code.
//!
//! Everything here is deterministic: free lists are LIFO vectors, size
//! classes are fixed powers of two, and no addresses or wall-clock time
//! influence behavior — the engine serializes simulated threads, so pool
//! operation order is a pure function of the simulation. Sharing is built
//! on [`crate::sync`] (the non-poisoning shims) plus `std::sync::Arc`.

use crate::sync::Mutex;
use std::sync::Arc;

/// Smallest size class, log2 (64 bytes).
const MIN_CLASS_LOG2: u32 = 6;
/// Largest size class, log2 (64 KiB). Bigger allocations are exact-sized
/// and are not recycled.
const MAX_CLASS_LOG2: u32 = 16;
/// Number of size classes.
const NUM_CLASSES: usize = (MAX_CLASS_LOG2 - MIN_CLASS_LOG2 + 1) as usize;
/// Retained free buffers per class; beyond this, returns are discarded.
const PER_CLASS_CAP: usize = 128;

/// Size-class index for a capacity, or `None` when it exceeds the largest
/// pooled class.
#[inline]
fn class_of(len: usize) -> Option<usize> {
    let cap = len.next_power_of_two().max(1 << MIN_CLASS_LOG2);
    if cap > 1 << MAX_CLASS_LOG2 {
        None
    } else {
        Some((cap.trailing_zeros() - MIN_CLASS_LOG2) as usize)
    }
}

/// Running pool counters, published as the `nic.pool.*` metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served from a free list.
    pub hits: u64,
    /// Allocations that had to touch the system allocator.
    pub misses: u64,
    /// Buffers returned to a free list on final drop.
    pub recycled: u64,
    /// Buffers not retained (oversize, full free list, or exported).
    pub discarded: u64,
    /// Pooled buffers currently live (handles outstanding).
    pub live: u64,
    /// High-water mark of `live`.
    pub live_peak: u64,
    /// Bytes written into pooled buffers as they were built: copied
    /// payload and zero-filled header placeholders.
    pub bytes_copied: u64,
}

struct PoolInner {
    free: Vec<Vec<Vec<u8>>>,
    stats: PoolStats,
}

/// A shared, size-classed buffer pool. Cloning the handle shares the pool.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<Mutex<PoolInner>>,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    /// A fresh pool with empty free lists.
    pub fn new() -> Self {
        BufferPool {
            inner: Arc::new(Mutex::new(PoolInner {
                free: (0..NUM_CLASSES).map(|_| Vec::new()).collect(),
                stats: PoolStats::default(),
            })),
        }
    }

    /// Take an empty buffer that the caller is about to fill with `len`
    /// bytes.
    fn take(&self, len: usize) -> Vec<u8> {
        let mut g = self.inner.lock();
        g.stats.bytes_copied += len as u64;
        let v = match class_of(len) {
            Some(c) => g.free[c].pop(),
            None => None,
        };
        g.stats.live += 1;
        if g.stats.live > g.stats.live_peak {
            g.stats.live_peak = g.stats.live;
        }
        match v {
            Some(v) => {
                g.stats.hits += 1;
                debug_assert!(v.is_empty() && v.capacity() >= len);
                v
            }
            None => {
                g.stats.misses += 1;
                let cap = match class_of(len) {
                    Some(c) => 1usize << (MIN_CLASS_LOG2 + c as u32),
                    None => len,
                };
                Vec::with_capacity(cap)
            }
        }
    }

    /// Allocate a zero-filled pooled buffer of exactly `len` bytes.
    pub fn alloc(&self, len: usize) -> PooledBuf {
        let mut v = self.take(len);
        v.resize(len, 0);
        self.wrap(v)
    }

    /// Allocate a pooled buffer holding a copy of `data` — the single copy
    /// of the zero-copy data plane, for a payload its owner keeps.
    pub fn from_slice(&self, data: &[u8]) -> PooledBuf {
        let mut v = self.take(data.len());
        v.extend_from_slice(data);
        self.wrap(v)
    }

    /// Allocate a pooled buffer of `prefix` zero bytes followed by a copy of
    /// `data` — the wire layout (header placeholder + payload) in one shot.
    pub fn prefixed(&self, prefix: usize, data: &[u8]) -> PooledBuf {
        let mut v = self.take(prefix + data.len());
        v.resize(prefix, 0);
        v.extend_from_slice(data);
        self.wrap(v)
    }

    fn wrap(&self, v: Vec<u8>) -> PooledBuf {
        PooledBuf {
            start: 0,
            end: v.len(),
            data: Some(Arc::new(v)),
            pool: Some(self.clone()),
        }
    }

    fn recycle(&self, mut v: Vec<u8>) {
        let mut g = self.inner.lock();
        g.stats.live -= 1;
        match class_of(v.capacity()) {
            // Only exact class-sized capacities go back, so every free-list
            // entry can serve its whole class.
            Some(c) if v.capacity() == 1 << (MIN_CLASS_LOG2 + c as u32) => {
                if g.free[c].len() < PER_CLASS_CAP {
                    v.clear();
                    g.stats.recycled += 1;
                    g.free[c].push(v);
                } else {
                    g.stats.discarded += 1;
                }
            }
            _ => g.stats.discarded += 1,
        }
    }

    fn forget_live(&self) {
        let mut g = self.inner.lock();
        g.stats.live -= 1;
        g.stats.discarded += 1;
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats
    }

    /// Total buffers currently parked on free lists.
    pub fn free_buffers(&self) -> usize {
        self.inner.lock().free.iter().map(Vec::len).sum()
    }
}

/// A cheap ref-counted view into a pooled allocation.
///
/// Clones share the backing buffer; [`PooledBuf::advance`] narrows the view
/// (e.g. to step past a wire header) without copying. When the final handle
/// drops, the allocation returns to its pool's free list.
pub struct PooledBuf {
    /// `None` only transiently during drop / [`PooledBuf::into_vec`].
    data: Option<Arc<Vec<u8>>>,
    pool: Option<BufferPool>,
    start: usize,
    end: usize,
}

impl PooledBuf {
    /// Wrap a plain vector without copying or pooling (dropped normally):
    /// a payload its owner handed over, or a buffer on a path that has no
    /// pool at hand.
    pub fn from_vec(v: Vec<u8>) -> Self {
        PooledBuf {
            start: 0,
            end: v.len(),
            data: Some(Arc::new(v)),
            pool: None,
        }
    }

    /// Bytes visible through this view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data.as_ref().expect("live buffer")[self.start..self.end]
    }

    /// Drop the first `n` bytes from the view (no copy).
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end");
        self.start += n;
    }

    /// Shrink the view to its first `n` bytes (no copy).
    pub fn truncate(&mut self, n: usize) {
        if n < self.len() {
            self.end = self.start + n;
        }
    }

    /// Mutable access to the viewed bytes — available only while this is
    /// the sole handle to the allocation.
    pub fn unique_mut(&mut self) -> Option<&mut [u8]> {
        let (start, end) = (self.start, self.end);
        Arc::get_mut(self.data.as_mut().expect("live buffer")).map(|v| &mut v[start..end])
    }

    /// Extract the bytes as an owned `Vec`. A uniquely-held, full-range
    /// view gives up its allocation without copying (it leaves the pool
    /// economy); otherwise the bytes are copied out.
    pub fn into_vec(mut self) -> Vec<u8> {
        let arc = self.data.take().expect("live buffer");
        if self.start == 0 && self.end == arc.len() {
            match Arc::try_unwrap(arc) {
                Ok(v) => {
                    if let Some(pool) = self.pool.take() {
                        pool.forget_live();
                    }
                    return v;
                }
                Err(arc) => {
                    let out = arc[..self.end].to_vec();
                    self.data = Some(arc); // restore so drop recycles normally
                    return out;
                }
            }
        }
        let out = arc[self.start..self.end].to_vec();
        self.data = Some(arc);
        out
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(arc) = self.data.take() {
            if let Ok(v) = Arc::try_unwrap(arc) {
                if let Some(pool) = self.pool.take() {
                    pool.recycle(v);
                }
            }
        }
    }
}

impl Clone for PooledBuf {
    fn clone(&self) -> Self {
        PooledBuf {
            data: self.data.clone(),
            pool: self.pool.clone(),
            start: self.start,
            end: self.end,
        }
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PooledBuf({} bytes)", self.len())
    }
}

impl PartialEq for PooledBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PooledBuf {}

impl PartialEq<[u8]> for PooledBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for PooledBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<u8>> for PooledBuf {
    fn from(v: Vec<u8>) -> Self {
        PooledBuf::from_vec(v)
    }
}

impl From<&[u8]> for PooledBuf {
    fn from(s: &[u8]) -> Self {
        PooledBuf::from_vec(s.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_recycles_on_drop() {
        let p = BufferPool::new();
        let b = p.from_slice(&[1, 2, 3]);
        assert_eq!(&*b, &[1, 2, 3][..]);
        assert_eq!(p.stats().misses, 1);
        drop(b);
        let s = p.stats();
        assert_eq!(s.recycled, 1);
        assert_eq!(s.live, 0);
        assert_eq!(p.free_buffers(), 1);
        // Same class comes back off the free list.
        let b2 = p.alloc(48);
        assert_eq!(b2.len(), 48);
        assert!(b2.iter().all(|&x| x == 0));
        assert_eq!(p.stats().hits, 1);
    }

    #[test]
    fn bytes_copied_counts_what_each_constructor_writes() {
        let p = BufferPool::new();
        let a = p.from_slice(&[1; 100]);
        let b = p.prefixed(32, &[2; 10]);
        let c = p.alloc(8);
        assert_eq!(p.stats().bytes_copied, 100 + 42 + 8);
        // Sharing a buffer, narrowing the view and copying *out* of it are
        // not writes into the pool.
        let mut d = a.clone();
        d.advance(10);
        drop((a, b, c));
        assert_eq!(d.into_vec().len(), 90);
        assert_eq!(p.stats().bytes_copied, 150);
    }

    #[test]
    fn size_classes_round_up_to_powers_of_two() {
        assert_eq!(class_of(0), Some(0));
        assert_eq!(class_of(64), Some(0));
        assert_eq!(class_of(65), Some(1));
        assert_eq!(class_of(1 << 16), Some(NUM_CLASSES - 1));
        assert_eq!(class_of((1 << 16) + 1), None);
        // A drop from one class only serves requests that fit it.
        let p = BufferPool::new();
        drop(p.alloc(100)); // class 128
        let b = p.alloc(4000); // class 4096 — must miss
        assert_eq!(b.len(), 4000);
        assert_eq!(p.stats().hits, 0);
        assert_eq!(p.stats().misses, 2);
    }

    #[test]
    fn oversize_allocations_are_not_retained() {
        let p = BufferPool::new();
        drop(p.alloc((1 << 16) + 1));
        let s = p.stats();
        assert_eq!(s.recycled, 0);
        assert_eq!(s.discarded, 1);
        assert_eq!(p.free_buffers(), 0);
    }

    #[test]
    fn clones_share_and_last_drop_recycles() {
        let p = BufferPool::new();
        let b = p.prefixed(4, &[9, 9]);
        assert_eq!(&*b, &[0, 0, 0, 0, 9, 9][..]);
        let c = b.clone();
        drop(b);
        assert_eq!(p.stats().recycled, 0, "still one live handle");
        assert_eq!(&*c, &[0, 0, 0, 0, 9, 9][..]);
        drop(c);
        assert_eq!(p.stats().recycled, 1);
    }

    #[test]
    fn advance_and_truncate_window_without_copying() {
        let p = BufferPool::new();
        let mut b = p.from_slice(&[1, 2, 3, 4, 5]);
        b.advance(2);
        assert_eq!(&*b, &[3, 4, 5][..]);
        b.truncate(2);
        assert_eq!(&*b, &[3, 4][..]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.into_vec(), vec![3, 4]);
        assert_eq!(p.stats().recycled, 1, "windowed view still recycles");
    }

    #[test]
    fn unique_mut_only_while_sole_handle() {
        let p = BufferPool::new();
        let mut b = p.alloc(4);
        b.unique_mut().unwrap().copy_from_slice(&[7, 7, 7, 7]);
        let c = b.clone();
        assert!(b.unique_mut().is_none(), "shared handles are read-only");
        drop(c);
        assert!(b.unique_mut().is_some());
        assert_eq!(&*b, &[7, 7, 7, 7][..]);
    }

    #[test]
    fn into_vec_unique_steals_allocation() {
        let p = BufferPool::new();
        let b = p.from_slice(&[5, 6]);
        let v = b.into_vec();
        assert_eq!(v, vec![5, 6]);
        let s = p.stats();
        assert_eq!(s.live, 0);
        assert_eq!(s.recycled, 0, "exported allocation is not recycled");
        assert_eq!(s.discarded, 1);
    }

    #[test]
    fn free_list_cap_bounds_retention() {
        let p = BufferPool::new();
        let bufs: Vec<_> = (0..PER_CLASS_CAP + 10).map(|_| p.alloc(64)).collect();
        drop(bufs);
        assert_eq!(p.free_buffers(), PER_CLASS_CAP);
        assert_eq!(p.stats().discarded as usize, 10);
    }

    #[test]
    fn detached_buf_needs_no_pool() {
        let b = PooledBuf::from_vec(vec![1, 2]);
        assert_eq!(&*b, &[1, 2][..]);
        assert_eq!(b.clone().into_vec(), vec![1, 2]);
    }
}
