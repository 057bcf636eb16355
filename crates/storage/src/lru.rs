//! A constant-time LRU buffer pool over page identifiers.

use crate::store::PageId;
use std::collections::HashMap;

const NIL: usize = usize::MAX;

/// One frame of the intrusive doubly-linked LRU list.
#[derive(Debug, Clone, Copy)]
struct Frame {
    page: PageId,
    prev: usize,
    next: usize,
}

/// An LRU buffer pool that tracks *which* pages are resident.
///
/// The simulation never needs the page bytes (they live in the
/// [`crate::PagedStore`] anyway); the buffer only decides whether an access is
/// a hit or a miss, exactly like the paper's "LRU memory buffer with default
/// size 2% of the tree size". All operations are O(1).
///
/// A capacity of zero models the no-buffer configuration of Figure 13: every
/// access is a miss.
#[derive(Debug, Clone)]
pub struct LruBuffer {
    capacity: usize,
    frames: Vec<Frame>,
    free: Vec<usize>,
    /// page id -> frame index
    map: HashMap<PageId, usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
}

impl LruBuffer {
    /// Creates a buffer with room for `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            frames: Vec::with_capacity(capacity.min(1024)),
            free: Vec::new(),
            map: HashMap::with_capacity(capacity.min(1024)),
            head: NIL,
            tail: NIL,
        }
    }

    /// Maximum number of resident pages.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records an access to `page`; returns `true` on a buffer hit and
    /// `false` on a miss (after which the page becomes resident, possibly
    /// evicting the least recently used page).
    pub fn access(&mut self, page: PageId) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(&idx) = self.map.get(&page) {
            self.move_to_front(idx);
            return true;
        }
        // miss: admit, evicting if full
        if self.map.len() >= self.capacity {
            self.evict_lru();
        }
        let idx = self.alloc_frame(page);
        self.push_front(idx);
        self.map.insert(page, idx);
        false
    }

    /// Removes a page from the buffer (e.g. when the page is freed).
    /// Returns `true` if the page was resident.
    pub(crate) fn invalidate(&mut self, page: PageId) -> bool {
        if let Some(idx) = self.map.remove(&page) {
            self.unlink(idx);
            self.free.push(idx);
            true
        } else {
            false
        }
    }

    /// Changes the capacity; if shrinking, least recently used pages are
    /// evicted until the new capacity is respected.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.map.len() > self.capacity {
            self.evict_lru();
        }
    }

    /// Pages currently resident ordered from most to least recently used:
    /// the tests' view of the recency list.
    #[cfg(test)]
    pub(crate) fn resident_mru_order(&self) -> Vec<PageId> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while cur != NIL {
            out.push(self.frames[cur].page);
            cur = self.frames[cur].next;
        }
        out
    }

    fn alloc_frame(&mut self, page: PageId) -> usize {
        if let Some(idx) = self.free.pop() {
            self.frames[idx] = Frame {
                page,
                prev: NIL,
                next: NIL,
            };
            idx
        } else {
            self.frames.push(Frame {
                page,
                prev: NIL,
                next: NIL,
            });
            self.frames.len() - 1
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.frames[idx].prev = NIL;
        self.frames[idx].next = self.head;
        if self.head != NIL {
            self.frames[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn unlink(&mut self, idx: usize) {
        let Frame { prev, next, .. } = self.frames[idx];
        if prev != NIL {
            self.frames[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.frames[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.frames[idx].prev = NIL;
        self.frames[idx].next = NIL;
    }

    fn move_to_front(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.push_front(idx);
    }

    fn evict_lru(&mut self) {
        let victim = self.tail;
        if victim == NIL {
            return;
        }
        let page = self.frames[victim].page;
        self.unlink(victim);
        self.map.remove(&page);
        self.free.push(victim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> PageId {
        PageId::new(n)
    }

    #[test]
    fn zero_capacity_always_misses() {
        let mut b = LruBuffer::new(0);
        assert!(!b.access(pid(1)));
        assert!(!b.access(pid(1)));
        assert!(b.resident_mru_order().is_empty());
    }

    #[test]
    fn hit_after_admit() {
        let mut b = LruBuffer::new(2);
        assert!(!b.access(pid(1)));
        assert!(b.access(pid(1)));
        assert_eq!(b.resident_mru_order(), vec![pid(1)]);
    }

    #[test]
    fn eviction_follows_lru_order() {
        let mut b = LruBuffer::new(2);
        b.access(pid(1));
        b.access(pid(2));
        // touch 1 so 2 becomes the LRU victim
        assert!(b.access(pid(1)));
        assert!(!b.access(pid(3))); // evicts 2
        assert_eq!(b.resident_mru_order(), vec![pid(3), pid(1)]);
    }

    #[test]
    fn invalidate_frees_a_slot() {
        let mut b = LruBuffer::new(1);
        b.access(pid(7));
        assert!(b.invalidate(pid(7)));
        assert!(!b.invalidate(pid(7)));
        assert!(b.resident_mru_order().is_empty());
        assert!(!b.access(pid(8)));
        assert_eq!(b.resident_mru_order(), vec![pid(8)]);
    }

    #[test]
    fn set_capacity_shrinks_by_evicting_lru() {
        let mut b = LruBuffer::new(4);
        for i in 0..4 {
            b.access(pid(i));
        }
        b.set_capacity(2);
        // the two most recently used remain
        assert_eq!(b.resident_mru_order(), vec![pid(3), pid(2)]);
        assert_eq!(b.capacity(), 2);
    }

    #[test]
    fn sequential_scan_larger_than_buffer_never_hits() {
        // classic LRU pathological case: cyclic scan of capacity+1 pages
        let mut b = LruBuffer::new(3);
        let mut hits = 0;
        for _ in 0..5 {
            for i in 0..4 {
                if b.access(pid(i)) {
                    hits += 1;
                }
            }
        }
        assert_eq!(hits, 0);
    }

    #[test]
    fn reuse_of_freed_frames_keeps_list_consistent() {
        let mut b = LruBuffer::new(3);
        for i in 0..3 {
            b.access(pid(i));
        }
        b.invalidate(pid(1));
        b.access(pid(10));
        b.access(pid(0)); // move to front
        assert_eq!(b.resident_mru_order(), vec![pid(0), pid(10), pid(2)]);
        b.access(pid(11)); // evicts 2
        assert_eq!(b.resident_mru_order(), vec![pid(11), pid(0), pid(10)]);
    }

    #[test]
    fn randomized_against_reference_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let mut lru = LruBuffer::new(8);
        // reference: Vec ordered MRU-first
        let mut model: Vec<u64> = Vec::new();
        for _ in 0..20_000 {
            let page = rng.gen_range(0..32u64);
            let expect_hit = model.contains(&page);
            let hit = lru.access(pid(page));
            assert_eq!(hit, expect_hit, "divergence on page {page}");
            model.retain(|&p| p != page);
            model.insert(0, page);
            model.truncate(8);
        }
        let got = lru.resident_mru_order();
        let want: Vec<PageId> = model.iter().map(|&p| pid(p)).collect();
        assert_eq!(got, want);
    }
}
