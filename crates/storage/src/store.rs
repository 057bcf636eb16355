//! The paged store: an in-memory page table with an accounting LRU buffer.

use crate::{IoStats, LruBuffer};

/// Identifier of a page in a [`PagedStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(u64);

impl PageId {
    /// Creates a page id from a raw index.
    pub fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw index.
    pub fn raw(self) -> u64 {
        self.0
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The buffer manager: an in-memory page table with an accounting LRU.
///
/// Every page stays in memory. Every charged read goes through an
/// [`LruBuffer`], and reads that miss it are counted as physical I/O in
/// [`IoStats`], reproducing the paper's measurement methodology: the buffer
/// decides what an access costs, never where a page lives.
///
/// Pages change in place through one write primitive,
/// [`PagedStore::write`]: it hands out the payload and charges one physical
/// write, as [`PagedStore::allocate`] does for a new page.
#[derive(Debug)]
pub struct PagedStore<P> {
    /// Payloads by slot; `None` for freed slots.
    pages: Vec<Option<P>>,
    live_count: usize,
    free_list: Vec<PageId>,
    buffer: LruBuffer,
    stats: IoStats,
    /// When `true`, reads and writes are not charged (reads still warm the
    /// buffer). Used while bulk-loading a tree, whose construction cost the
    /// paper does not charge to the assignment algorithms.
    accounting_paused: bool,
}

impl<P> PagedStore<P> {
    /// Creates an empty store whose buffer holds `buffer_frames` pages.
    pub fn new(buffer_frames: usize) -> Self {
        Self {
            pages: Vec::new(),
            live_count: 0,
            free_list: Vec::new(),
            buffer: LruBuffer::new(buffer_frames),
            stats: IoStats::new(),
            accounting_paused: false,
        }
    }

    /// Number of live (allocated and not freed) pages.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// `true` when the store holds no live pages.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// The I/O statistics accumulated so far.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Resets the I/O statistics (the buffer contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Sets the buffer capacity in frames; shrinking evicts LRU frames
    /// (never pages).
    pub fn set_buffer_frames(&mut self, frames: usize) {
        self.buffer.set_capacity(frames);
    }

    /// Sets the buffer capacity as a fraction of the current number of live
    /// pages (the paper's "buffer size 2% of the tree size"). A fraction of
    /// zero disables the buffer.
    ///
    /// # Panics
    /// Panics on a fraction outside `[0, 1]` (or NaN): a negative fraction
    /// would silently disable the buffer and a fraction above 1 would
    /// silently make it larger than the store, mis-shaping every I/O
    /// measurement downstream.
    pub fn set_buffer_fraction(&mut self, fraction: f64) {
        assert!(
            fraction.is_finite() && (0.0..=1.0).contains(&fraction),
            "buffer fraction must lie in [0, 1], got {fraction}"
        );
        self.set_buffer_frames((fraction * self.len() as f64).round() as usize);
    }

    /// Current buffer capacity in frames.
    pub fn buffer_frames(&self) -> usize {
        self.buffer.capacity()
    }

    /// Runs `body` with hit/miss accounting suspended (e.g. during bulk load).
    pub fn with_accounting_paused<R>(&mut self, body: impl FnOnce(&mut Self) -> R) -> R {
        let was = self.accounting_paused;
        self.accounting_paused = true;
        let out = body(self);
        self.accounting_paused = was;
        out
    }

    /// Allocates a new page containing `payload` and returns its id.
    pub fn allocate(&mut self, payload: P) -> PageId {
        self.stats.pages_allocated += 1;
        if !self.accounting_paused {
            self.stats.physical_writes += 1;
        }
        self.live_count += 1;
        if let Some(id) = self.free_list.pop() {
            self.pages[id.index()] = Some(payload);
            id
        } else {
            self.pages.push(Some(payload));
            PageId::new((self.pages.len() - 1) as u64)
        }
    }

    /// Frees a page and hands back its payload. Its slot may be reused by
    /// later allocations.
    ///
    /// # Panics
    /// Panics if the page is not live.
    pub fn free(&mut self, id: PageId) -> P {
        let payload = self
            .pages
            .get_mut(id.index())
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("free of unknown or double-freed page {id}"));
        self.live_count -= 1;
        self.stats.pages_freed += 1;
        if self.buffer.invalidate(id) {
            self.stats.buffer_invalidations += 1;
        }
        self.free_list.push(id);
        payload
    }

    /// Reads a page, charging a logical access and (on a buffer miss) a
    /// physical read.
    ///
    /// # Panics
    /// Panics if the page is not live.
    pub fn read(&mut self, id: PageId) -> &P {
        let page = self
            .pages
            .get(id.index())
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("access to unknown or freed page {id}"));
        let hit = self.buffer.access(id);
        if !self.accounting_paused {
            self.stats.logical_reads += 1;
            if hit {
                self.stats.buffer_hits += 1;
            } else {
                self.stats.physical_reads += 1;
            }
        }
        page
    }

    /// A live page, without charging the cost model or touching the buffer;
    /// `None` for a freed or unknown page. This is a writer's look at a page
    /// it is about to write or free, and the view of validation and test
    /// oracles.
    pub fn peek(&self, id: PageId) -> Option<&P> {
        self.pages.get(id.index()).and_then(Option::as_ref)
    }

    /// The one write primitive: the page's payload, to be edited in place.
    /// Charges one physical write and no read (a writer has read the page
    /// already).
    ///
    /// # Panics
    /// Panics if the page is not live.
    pub fn write(&mut self, id: PageId) -> &mut P {
        let page = self
            .pages
            .get_mut(id.index())
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("write of unknown or freed page {id}"));
        if !self.accounting_paused {
            self.stats.physical_writes += 1;
        }
        page
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_read_roundtrip() {
        let mut store: PagedStore<String> = PagedStore::new(4);
        let a = store.allocate("alpha".into());
        let b = store.allocate("beta".into());
        assert_ne!(a, b);
        assert_eq!(store.read(a), "alpha");
        assert_eq!(store.read(b), "beta");
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().pages_allocated, 2);
        assert_eq!(store.stats().logical_reads, 2);
    }

    #[test]
    fn buffer_absorbs_repeated_reads() {
        let mut store: PagedStore<u32> = PagedStore::new(2);
        let a = store.allocate(1);
        store.read(a);
        store.read(a);
        store.read(a);
        let s = store.stats();
        assert_eq!(s.logical_reads, 3);
        assert_eq!(s.physical_reads, 1);
        assert_eq!(s.buffer_hits, 2);
    }

    #[test]
    fn zero_buffer_counts_every_access() {
        let mut store: PagedStore<u32> = PagedStore::new(0);
        let a = store.allocate(1);
        for _ in 0..5 {
            store.read(a);
        }
        assert_eq!(store.stats().physical_reads, 5);
        assert_eq!(store.stats().buffer_hits, 0);
    }

    #[test]
    fn free_and_reuse_slots() {
        let mut store: PagedStore<u32> = PagedStore::new(2);
        let a = store.allocate(1);
        let _b = store.allocate(2);
        assert_eq!(store.free(a), 1, "a free hands back the payload");
        assert_eq!(store.len(), 1);
        assert!(store.peek(a).is_none());
        let c = store.allocate(3);
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(*store.read(c), 3);
        assert_eq!(store.stats().pages_freed, 1);
    }

    #[test]
    fn free_of_resident_page_counts_an_invalidation() {
        let mut store: PagedStore<u32> = PagedStore::new(2);
        let a = store.allocate(1);
        let b = store.allocate(2);
        store.read(a); // a becomes resident
        store.free(a);
        store.free(b); // b was never read, so not resident
        let s = store.stats();
        assert_eq!(s.pages_freed, 2);
        assert_eq!(s.buffer_invalidations, 1);
    }

    #[test]
    #[should_panic(expected = "buffer fraction must lie in [0, 1]")]
    fn negative_buffer_fraction_rejected() {
        let mut store: PagedStore<u32> = PagedStore::new(0);
        store.allocate(1);
        store.set_buffer_fraction(-0.1);
    }

    #[test]
    #[should_panic(expected = "buffer fraction must lie in [0, 1]")]
    fn oversized_buffer_fraction_rejected() {
        let mut store: PagedStore<u32> = PagedStore::new(0);
        store.allocate(1);
        store.set_buffer_fraction(1.5);
    }

    #[test]
    #[should_panic(expected = "double-freed")]
    fn double_free_panics() {
        let mut store: PagedStore<u32> = PagedStore::new(2);
        let a = store.allocate(1);
        store.free(a);
        store.free(a);
    }

    #[test]
    #[should_panic(expected = "access to unknown or freed page")]
    fn read_after_free_panics() {
        let mut store: PagedStore<u32> = PagedStore::new(2);
        let a = store.allocate(1);
        store.free(a);
        store.read(a);
    }

    #[test]
    fn each_write_counts_one_physical_write() {
        let mut store: PagedStore<u32> = PagedStore::new(2);
        let a = store.allocate(1);
        *store.write(a) += 10;
        *store.write(a) = 99;
        assert_eq!(*store.read(a), 99);
        // allocate(1) + write(1) + write(1)
        assert_eq!(store.stats().physical_writes, 3);
        assert_eq!(store.stats().logical_reads, 1, "a write charges no read");
    }

    #[test]
    fn accounting_pause_suppresses_counters_but_warms_buffer() {
        let mut store: PagedStore<u32> = PagedStore::new(4);
        let a = store.allocate(1);
        store.reset_stats();
        store.with_accounting_paused(|s| {
            s.read(a);
            s.read(a);
        });
        assert_eq!(store.stats().logical_reads, 0);
        assert_eq!(store.stats().physical_reads, 0);
        // the page is now in the buffer, so the next real read is a hit
        store.read(a);
        assert_eq!(store.stats().logical_reads, 1);
        assert_eq!(store.stats().buffer_hits, 1);
    }

    #[test]
    fn set_buffer_fraction_scales_with_live_pages() {
        let mut store: PagedStore<u32> = PagedStore::new(0);
        let ids: Vec<PageId> = (0..100).map(|i| store.allocate(i)).collect();
        store.set_buffer_fraction(0.04);
        assert_eq!(store.buffer_frames(), 4);
        ids.iter().for_each(|&id| _ = store.read(id));
        store.set_buffer_fraction(0.02);
        assert_eq!(store.buffer_frames(), 2);
        store.set_buffer_fraction(0.0);
        assert_eq!(store.buffer_frames(), 0);
        // shrinking the buffer evicts frames, never pages
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(*store.read(id), i as u32);
        }
    }
}
