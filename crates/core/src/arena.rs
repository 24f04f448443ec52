//! Slab/arena storage for the per-node hot collections
//! (docs/ARCHITECTURE.md, "Memory diet").
//!
//! At 10⁵ nodes the dominant heap cost is no longer the event queue
//! (pooled since PR 5) but the per-node collections: every cached route
//! carried its own `Vec<Ipv6Addr>` and every queued payload its own
//! `Vec<u8>`. [`SliceArena`] replaces those with one growable backing
//! vector per collection plus an exact-fit freelist, so steady-state
//! insert/evict cycles reuse storage instead of round-tripping the
//! global allocator. Handles are `u32` indices — 4 bytes in the owning
//! struct instead of a 24-byte `Vec` header plus a separate heap block.
//!
//! Layout:
//!
//! ```text
//!   data:  [ ..... span A ..... | .. span B .. | ... span C ... | bump→
//!   spans: [ {off,len,cap} {off,len,cap} {off,len,cap} ... ]
//!              ↑ handle = index into spans
//!   free_by_cap[cap] → recycled span slots awaiting an alloc of `cap`
//! ```
//!
//! Allocation is bump-at-end unless an exact-capacity freed span
//! exists; frees are O(1). Because every caller is a *bounded* cache
//! (route caches, send buffers), the backing vector's high-water mark
//! is bounded by the cache caps and the arena never needs compaction.

use std::fmt;

/// Index handle into a [`SliceArena`]. Plain data — holding one does
/// not borrow the arena. Dereference with [`SliceArena::get`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanHandle(u32);

impl fmt::Debug for SpanHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SpanHandle({})", self.0)
    }
}

#[derive(Clone, Copy, Debug)]
struct Span {
    off: u32,
    len: u32,
    cap: u32,
}

/// Arena of variable-length `[T]` spans with exact-fit slot reuse.
#[derive(Debug)]
pub struct SliceArena<T: Copy> {
    data: Vec<T>,
    spans: Vec<Span>,
    /// Freed span-table slots binned by capacity (`free_by_cap[cap]`).
    free_by_cap: Vec<Vec<u32>>,
    live: usize,
}

impl<T: Copy> Default for SliceArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> SliceArena<T> {
    pub fn new() -> Self {
        SliceArena {
            data: Vec::new(),
            spans: Vec::new(),
            free_by_cap: Vec::new(),
            live: 0,
        }
    }

    /// Store a copy of `items`; returns its handle.
    pub fn alloc(&mut self, items: &[T]) -> SpanHandle {
        let len = u32::try_from(items.len()).expect("span length fits u32");
        self.live += 1;
        // Exact-fit reuse of a freed span of the same capacity.
        if let Some(bin) = self.free_by_cap.get_mut(items.len()) {
            if let Some(slot) = bin.pop() {
                let span = &mut self.spans[slot as usize];
                span.len = len;
                let off = span.off as usize;
                self.data[off..off + items.len()].copy_from_slice(items);
                return SpanHandle(slot);
            }
        }
        // Bump allocation at the end of the backing store.
        let off = u32::try_from(self.data.len()).expect("arena offset fits u32");
        self.data.extend_from_slice(items);
        let slot = u32::try_from(self.spans.len()).expect("span count fits u32");
        self.spans.push(Span { off, len, cap: len });
        SpanHandle(slot)
    }

    /// The stored slice for `h`. Panics on a freed or foreign handle
    /// only if the slot was since reused with a different length — the
    /// caller owns handle lifetime discipline, as with any slab.
    pub fn get(&self, h: SpanHandle) -> &[T] {
        let span = &self.spans[h.0 as usize];
        &self.data[span.off as usize..(span.off + span.len) as usize]
    }

    /// Release `h`, making its storage available to a future `alloc`
    /// of the same capacity.
    pub fn free(&mut self, h: SpanHandle) {
        let cap = self.spans[h.0 as usize].cap as usize;
        if self.free_by_cap.len() <= cap {
            self.free_by_cap.resize_with(cap + 1, Vec::new);
        }
        self.free_by_cap[cap].push(h.0);
        self.live -= 1;
    }

    /// Number of live (allocated, not freed) spans.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total backing-store elements (high-water mark, includes freed
    /// spans awaiting reuse).
    pub fn backing_len(&self) -> usize {
        self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_roundtrip() {
        let mut a = SliceArena::new();
        let h1 = a.alloc(&[1u32, 2, 3]);
        let h2 = a.alloc(&[9u32]);
        let h3 = a.alloc(&[] as &[u32]);
        assert_eq!(a.get(h1), &[1, 2, 3]);
        assert_eq!(a.get(h2), &[9]);
        assert_eq!(a.get(h3), &[] as &[u32]);
        assert_eq!(a.live(), 3);
    }

    #[test]
    fn free_then_alloc_reuses_exact_fit() {
        let mut a = SliceArena::new();
        let h1 = a.alloc(&[1u8, 2, 3]);
        let watermark = a.backing_len();
        a.free(h1);
        assert_eq!(a.live(), 0);
        let h2 = a.alloc(&[7u8, 8, 9]);
        assert_eq!(a.get(h2), &[7, 8, 9]);
        assert_eq!(a.backing_len(), watermark, "exact fit must not grow");
    }

    #[test]
    fn mismatched_size_bumps_instead() {
        let mut a = SliceArena::new();
        let h1 = a.alloc(&[1u8, 2, 3]);
        a.free(h1);
        let before = a.backing_len();
        let h2 = a.alloc(&[1u8, 2]); // no cap-2 span free → bump
        assert_eq!(a.get(h2), &[1, 2]);
        assert_eq!(a.backing_len(), before + 2);
        // The cap-3 slot is still available for a cap-3 alloc.
        let h3 = a.alloc(&[4u8, 5, 6]);
        assert_eq!(a.get(h3), &[4, 5, 6]);
        assert_eq!(a.backing_len(), before + 2);
    }

    #[test]
    fn steady_state_churn_is_bounded() {
        let mut a = SliceArena::new();
        let mut live = Vec::new();
        for round in 0..100u32 {
            for k in 0..8u32 {
                live.push(a.alloc(&[round, k, round ^ k]));
            }
            let high = a.backing_len();
            for h in live.drain(..) {
                a.free(h);
            }
            if round > 0 {
                assert_eq!(a.backing_len(), high, "churn must reuse, not grow");
            }
        }
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn empty_spans_are_distinct_handles() {
        let mut a: SliceArena<u8> = SliceArena::new();
        let h1 = a.alloc(&[]);
        let h2 = a.alloc(&[]);
        assert_ne!(h1, h2);
        a.free(h1);
        let h3 = a.alloc(&[]);
        assert_eq!(a.get(h3), &[] as &[u8]);
    }
}
