//! Shared frame buffers and the recycling arena behind the zero-copy packet
//! pipeline.
//!
//! Every layer crossing of the original pipeline copied payload bytes: the
//! codec re-owned payloads on parse, fragmentation copied each ACL chunk, and
//! every tap crossing cloned whole frames.  [`FrameBuf`] removes those copies:
//! it is a cheaply-cloneable, sliceable view into a reference-counted byte
//! buffer (a minimal, dependency-free equivalent of `bytes::Bytes`), so a
//! parsed payload, an ACL fragment and a tap record can all share the bytes of
//! the frame that produced them.
//!
//! [`FrameArena`] closes the loop on the transmit side: buffers checked out of
//! an arena, filled and frozen into [`FrameBuf`]s return to the arena's pool
//! automatically when the last clone is dropped, so a steady-state fuzzing
//! loop stops allocating fresh backing stores per packet.
//!
//! # Example
//!
//! ```
//! use btcore::{FrameArena, FrameBuf};
//!
//! let arena = FrameArena::new();
//! let mut buf = arena.checkout();
//! buf.extend_from_slice(&[0x0C, 0x00, 0x01, 0x00]);
//! let frame: FrameBuf = buf.freeze();
//! let header = frame.slice(..2);       // zero-copy view
//! assert_eq!(header, [0x0C, 0x00]);
//! drop((frame, header));               // last clone returns the buffer
//! assert_eq!(arena.pooled(), 1);
//! ```

use std::fmt;
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Upper bound on idle buffers one [`FrameArena`] keeps alive.
const MAX_POOLED_BUFFERS: usize = 64;

/// The arena's free list plus an (approximate) lock-free length mirror, so
/// the full-pool case — e.g. a long trace dropping thousands of retained
/// buffers at once — skips the mutex entirely.
struct Pool {
    list: Mutex<Vec<Vec<u8>>>,
    approx_len: AtomicUsize,
}

impl Pool {
    fn new() -> Pool {
        Pool {
            list: Mutex::new(Vec::new()),
            approx_len: AtomicUsize::new(0),
        }
    }
}

fn lock_pool(pool: &Pool) -> std::sync::MutexGuard<'_, Vec<Vec<u8>>> {
    pool.list.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The reference-counted backing store of one or more [`FrameBuf`] views.
struct Shared {
    data: Vec<u8>,
    /// The arena pool the backing store returns to when the last view drops;
    /// `None` for buffers not owned by any arena.  A strong handle: keeping
    /// the pool alive from its buffers costs nothing and makes the
    /// recycle-on-drop path two plain atomic ops instead of a weak upgrade.
    pool: Option<Arc<Pool>>,
}

impl Drop for Shared {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            if pool.approx_len.load(Ordering::Relaxed) >= MAX_POOLED_BUFFERS {
                // Full pool: let the backing store free without touching the
                // mutex (the mass-drop path when a whole trace goes away).
                return;
            }
            let mut data = std::mem::take(&mut self.data);
            data.clear();
            let mut guard = lock_pool(&pool);
            if guard.len() < MAX_POOLED_BUFFERS {
                guard.push(data);
                pool.approx_len.store(guard.len(), Ordering::Relaxed);
            }
        }
    }
}

/// A cheaply-cloneable, sliceable view into a shared byte buffer.
///
/// Cloning and [slicing](FrameBuf::slice) never copy the underlying bytes;
/// both operations only bump a reference count.  Equality, hashing through
/// [`Deref`], serialization and `Debug` all behave exactly like the byte
/// slice the view exposes, so a `FrameBuf` field is a drop-in replacement for
/// a `Vec<u8>` payload in any packet struct.
pub struct FrameBuf {
    shared: Arc<Shared>,
    start: usize,
    end: usize,
}

impl FrameBuf {
    /// An empty buffer (shares one static backing store; never allocates
    /// per call beyond the first).
    pub fn new() -> FrameBuf {
        static EMPTY: OnceLock<FrameBuf> = OnceLock::new();
        EMPTY.get_or_init(|| FrameBuf::from_vec(Vec::new())).clone()
    }

    /// Wraps an owned byte vector without copying it.
    pub fn from_vec(data: Vec<u8>) -> FrameBuf {
        let end = data.len();
        FrameBuf {
            shared: Arc::new(Shared { data, pool: None }),
            start: 0,
            end,
        }
    }

    /// Copies a byte slice into a fresh buffer.
    pub fn copy_from_slice(bytes: &[u8]) -> FrameBuf {
        FrameBuf::from_vec(bytes.to_vec())
    }

    /// The bytes this view exposes.
    pub fn as_slice(&self) -> &[u8] {
        &self.shared.data[self.start..self.end]
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Returns `true` when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a zero-copy sub-view of this buffer.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or inverted, matching slice
    /// indexing semantics.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> FrameBuf {
        let len = self.len();
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            start <= end && end <= len,
            "slice {start}..{end} out of bounds for FrameBuf of length {len}"
        );
        FrameBuf {
            shared: self.shared.clone(),
            start: self.start + start,
            end: self.start + end,
        }
    }

    /// Returns `true` when `self` and `other` are views into the same backing
    /// store (regardless of range) — i.e. no bytes were copied between them.
    pub fn shares_storage_with(&self, other: &FrameBuf) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }

    /// Returns a view widened by `n` bytes *before* this view's start, if the
    /// backing store has them: the zero-copy inverse of `slice(n..)`.
    ///
    /// The extra bytes are whatever precedes the view in its backing buffer —
    /// meaningful only when the caller knows how the buffer was built (e.g. a
    /// packet body sliced out of a frame recovering the frame's header).
    pub fn widen_front(&self, n: usize) -> Option<FrameBuf> {
        self.start.checked_sub(n).map(|start| FrameBuf {
            shared: self.shared.clone(),
            start,
            end: self.end,
        })
    }
}

impl Clone for FrameBuf {
    fn clone(&self) -> Self {
        FrameBuf {
            shared: self.shared.clone(),
            start: self.start,
            end: self.end,
        }
    }
}

impl Default for FrameBuf {
    fn default() -> Self {
        FrameBuf::new()
    }
}

impl Deref for FrameBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for FrameBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for FrameBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl From<Vec<u8>> for FrameBuf {
    fn from(data: Vec<u8>) -> Self {
        FrameBuf::from_vec(data)
    }
}

impl From<&[u8]> for FrameBuf {
    fn from(bytes: &[u8]) -> Self {
        FrameBuf::copy_from_slice(bytes)
    }
}

impl<const N: usize> From<[u8; N]> for FrameBuf {
    fn from(bytes: [u8; N]) -> Self {
        FrameBuf::copy_from_slice(&bytes)
    }
}

impl PartialEq for FrameBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for FrameBuf {}

impl PartialEq<[u8]> for FrameBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for FrameBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for FrameBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<FrameBuf> for Vec<u8> {
    fn eq(&self, other: &FrameBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for FrameBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl std::hash::Hash for FrameBuf {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// A uniquely-owned, writable buffer checked out of a [`FrameArena`].
///
/// Dereferences to `Vec<u8>` for filling; [`FrameBufMut::freeze`] turns it
/// into an immutable shareable [`FrameBuf`] whose backing store returns to the
/// arena when the last clone drops.
pub struct FrameBufMut {
    data: Vec<u8>,
    pool: Option<Arc<Pool>>,
}

impl FrameBufMut {
    /// A writable buffer not owned by any arena (its backing store is simply
    /// dropped when the last view of the frozen buffer goes away).
    pub fn detached() -> FrameBufMut {
        FrameBufMut {
            data: Vec::new(),
            pool: None,
        }
    }

    /// Freezes the buffer into an immutable, shareable [`FrameBuf`].
    pub fn freeze(self) -> FrameBuf {
        let end = self.data.len();
        FrameBuf {
            shared: Arc::new(Shared {
                data: self.data,
                pool: self.pool,
            }),
            start: 0,
            end,
        }
    }
}

impl Deref for FrameBufMut {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.data
    }
}

impl DerefMut for FrameBufMut {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.data
    }
}

impl fmt::Debug for FrameBufMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.data.as_slice(), f)
    }
}

/// A recycling pool of frame buffers for one link's transmit hot path.
///
/// Cloning an arena is cheap and yields a handle to the same pool, so a link,
/// its packet queue and its mutator can all check buffers out of (and return
/// them to) one shared free list.
#[derive(Clone)]
pub struct FrameArena {
    pool: Arc<Pool>,
}

impl FrameArena {
    /// Creates an empty arena.
    pub fn new() -> FrameArena {
        FrameArena {
            pool: Arc::new(Pool::new()),
        }
    }

    /// Checks a cleared, writable buffer out of the pool (allocating a fresh
    /// backing store only when the pool is empty).
    pub fn checkout(&self) -> FrameBufMut {
        let data = {
            let mut guard = lock_pool(&self.pool);
            let data = guard.pop();
            self.pool.approx_len.store(guard.len(), Ordering::Relaxed);
            data
        }
        .unwrap_or_default();
        FrameBufMut {
            data,
            pool: Some(self.pool.clone()),
        }
    }

    /// Number of idle buffers currently waiting in the pool.
    pub fn pooled(&self) -> usize {
        lock_pool(&self.pool).len()
    }
}

impl Default for FrameArena {
    fn default() -> Self {
        FrameArena::new()
    }
}

impl fmt::Debug for FrameArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameArena")
            .field("pooled", &self.pooled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_and_slices_share_storage() {
        let buf = FrameBuf::from_vec(vec![1, 2, 3, 4, 5]);
        let clone = buf.clone();
        let tail = buf.slice(2..);
        assert!(buf.shares_storage_with(&clone));
        assert!(buf.shares_storage_with(&tail));
        assert_eq!(tail, [3, 4, 5]);
        assert_eq!(tail.slice(1..2), [4]);
        assert_eq!(buf.len(), 5);
        assert!(!buf.is_empty());
    }

    #[test]
    fn equality_is_by_bytes_not_by_storage() {
        let a = FrameBuf::from_vec(vec![9, 9]);
        let b = FrameBuf::copy_from_slice(&[9, 9]);
        assert_eq!(a, b);
        assert!(!a.shares_storage_with(&b));
        assert_eq!(a, vec![9u8, 9]);
        assert_eq!(vec![9u8, 9], a);
        assert_eq!(a, [9u8, 9]);
    }

    #[test]
    fn empty_buffers_share_one_backing_store() {
        let a = FrameBuf::new();
        let b = FrameBuf::default();
        assert!(a.shares_storage_with(&b));
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_slice_panics() {
        FrameBuf::from_vec(vec![1, 2]).slice(..3);
    }

    #[test]
    fn arena_recycles_backing_stores() {
        let arena = FrameArena::new();
        assert_eq!(arena.pooled(), 0);
        let mut buf = arena.checkout();
        buf.extend_from_slice(&[1, 2, 3]);
        let frozen = buf.freeze();
        let view = frozen.slice(1..);
        drop(frozen);
        // A live slice keeps the backing store out of the pool.
        assert_eq!(arena.pooled(), 0);
        drop(view);
        assert_eq!(arena.pooled(), 1);
        // The recycled buffer comes back cleared.
        let again = arena.checkout();
        assert!(again.is_empty());
        assert_eq!(arena.pooled(), 0);
    }

    #[test]
    fn detached_buffers_skip_the_pool() {
        let arena = FrameArena::new();
        let mut buf = FrameBufMut::detached();
        buf.push(7);
        drop(buf.freeze());
        assert_eq!(arena.pooled(), 0);
    }

    #[test]
    fn buffers_outlive_their_arena() {
        let arena = FrameArena::new();
        let mut buf = arena.checkout();
        buf.push(42);
        let frozen = buf.freeze();
        drop(arena);
        // The buffer keeps its pool alive; dropping it after the arena handle
        // is gone must not misbehave.
        assert_eq!(frozen, [42]);
        drop(frozen);
    }

    #[test]
    fn pool_size_is_bounded() {
        let arena = FrameArena::new();
        let frozen: Vec<FrameBuf> = (0..(MAX_POOLED_BUFFERS + 8))
            .map(|i| {
                let mut b = arena.checkout();
                b.push(i as u8);
                b.freeze()
            })
            .collect();
        drop(frozen);
        assert_eq!(arena.pooled(), MAX_POOLED_BUFFERS);
    }

    #[test]
    fn serializes_exactly_like_a_byte_vector() {
        let bytes = vec![0x0Cu8, 0x00, 0xFF];
        let buf = FrameBuf::from_vec(bytes.clone());
        let json = serde_json::to_string(&buf);
        assert_eq!(json, serde_json::to_string(&bytes));
        let back: FrameBuf = serde_json::from_str(&json).unwrap();
        assert_eq!(back, buf);
    }

    #[test]
    fn debug_matches_slice_debug() {
        let buf = FrameBuf::from_vec(vec![1, 2]);
        assert_eq!(format!("{buf:?}"), "[1, 2]");
    }
}
