//! The paged store: a buffer manager over a pluggable storage backend.

use crate::backend::{MemoryBackend, StorageBackend, StorageError};
use crate::{IoStats, LruBuffer};
use serde::{Deserialize, Serialize};

/// Identifier of a page in a [`PagedStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
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

/// A buffer manager over fixed-size pages stored in a [`StorageBackend`].
///
/// Every read goes through an [`LruBuffer`]; reads that miss the buffer are
/// counted as physical I/O in [`IoStats`], reproducing the paper's
/// measurement methodology. With the default in-memory backend the buffer is
/// accounting-only and every page stays resident (the historical simulated
/// disk). With a persistent backend (see [`crate::FileBackend`]) the buffer
/// capacity is real: dirty pages evicted from the buffer are written back to
/// the backend and faulted in again on the next access, so the data set can
/// exceed the configured buffer — and RAM.
///
/// Pages change in place through one write primitive,
/// [`PagedStore::write`]: it hands out the payload and charges one physical
/// write, as [`PagedStore::allocate`] does for a new page.
///
/// The store deliberately does not implement `Clone`: deep-cloning a
/// disk-backed store would silently copy an entire page file (or worse, alias
/// it). Use [`PagedStore::fork_in_memory`] to materialize an explicit
/// in-memory copy.
#[derive(Debug)]
pub struct PagedStore<P> {
    /// Resident payloads. `None` for freed slots and (under a persistent
    /// backend) for live pages currently evicted to the backend.
    pages: Vec<Option<P>>,
    /// Which slots hold live (allocated, not freed) pages.
    live: Vec<bool>,
    /// Which resident payloads differ from their backend copy.
    dirty: Vec<bool>,
    live_count: usize,
    free_list: Vec<PageId>,
    buffer: LruBuffer,
    stats: IoStats,
    /// When `true`, reads bypass the hit/miss accounting entirely. Used while
    /// bulk-loading a tree, whose construction cost the paper does not charge
    /// to the assignment algorithms. Real backend I/O (`page_writes`,
    /// `sync_calls`) is still counted: it happens regardless of what the cost
    /// model charges.
    accounting_paused: bool,
    backend: Box<dyn StorageBackend<P>>,
    /// Cached `backend.is_persistent()` so the hot read path never pays a
    /// virtual call for the in-memory default.
    persistent: bool,
}

impl<P> PagedStore<P> {
    /// Creates an empty in-memory store whose buffer holds `buffer_frames`
    /// pages. Semantically identical to the pre-backend store: pages never
    /// leave memory and the buffer only decides hit/miss accounting.
    pub fn new(buffer_frames: usize) -> Self {
        Self::with_backend(Box::new(MemoryBackend), buffer_frames)
    }

    /// Creates an empty store over an explicit backend.
    ///
    /// # Panics
    /// Panics if the backend is persistent and `buffer_frames` is zero: a
    /// persistent store must be able to keep at least the page being accessed
    /// resident.
    pub fn with_backend(backend: Box<dyn StorageBackend<P>>, buffer_frames: usize) -> Self {
        let persistent = backend.is_persistent();
        assert!(
            !persistent || buffer_frames >= 1,
            "a persistent backend needs at least one buffer frame"
        );
        Self {
            pages: Vec::new(),
            live: Vec::new(),
            dirty: Vec::new(),
            live_count: 0,
            free_list: Vec::new(),
            buffer: LruBuffer::new(buffer_frames),
            stats: IoStats::new(),
            accounting_paused: false,
            backend,
            persistent,
        }
    }

    /// `true` when evicted pages survive in the backend (i.e. the buffer
    /// capacity is real, not accounting-only).
    pub fn is_persistent(&self) -> bool {
        self.persistent
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

    /// Sets the buffer capacity in frames; shrinking evicts LRU pages
    /// (writing dirty ones back under a persistent backend).
    ///
    /// # Panics
    /// Panics when asked to shrink a persistent store's buffer to zero.
    pub fn set_buffer_frames(&mut self, frames: usize) {
        assert!(
            !self.persistent || frames >= 1,
            "a persistent backend needs at least one buffer frame"
        );
        let mut evicted = Vec::new();
        self.buffer.set_capacity_evicting(frames, &mut evicted);
        if self.persistent {
            for page in evicted {
                self.evict_payload(page);
            }
        }
    }

    /// Sets the buffer capacity as a fraction of the current number of live
    /// pages (the paper's "buffer size 2% of the tree size"). A fraction of
    /// zero disables the buffer (in-memory backend only: a persistent store
    /// keeps at least one frame).
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
        let mut frames = (fraction * self.len() as f64).round() as usize;
        if self.persistent {
            frames = frames.max(1);
        }
        self.set_buffer_frames(frames);
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
        let id = if let Some(id) = self.free_list.pop() {
            self.pages[id.index()] = Some(payload);
            self.live[id.index()] = true;
            id
        } else {
            self.pages.push(Some(payload));
            self.live.push(true);
            self.dirty.push(false);
            PageId::new((self.pages.len() - 1) as u64)
        };
        self.live_count += 1;
        if self.persistent {
            // the fresh payload is resident and unwritten: admit it to the
            // buffer so eviction (write-back) can ever reach it
            self.dirty[id.index()] = true;
            let (_, victim) = self.buffer.access_evicting(id);
            if let Some(victim) = victim {
                self.evict_payload(victim);
            }
        }
        id
    }

    /// Frees a page and hands back its payload (faulted in, uncharged, if it
    /// was evicted). Its slot may be reused by later allocations.
    ///
    /// # Panics
    /// Panics if the page is not live.
    pub fn free(&mut self, id: PageId) -> P {
        let idx = self.resident(id, "free of unknown or double-freed page");
        let payload = self.pages[idx].take().expect("resident");
        self.live[idx] = false;
        self.dirty[idx] = false;
        self.live_count -= 1;
        self.stats.pages_freed += 1;
        if self.buffer.invalidate(id) {
            self.stats.buffer_invalidations += 1;
        }
        if self.persistent {
            self.backend.discard(id);
        }
        self.free_list.push(id);
        payload
    }

    /// Reads a page, charging a logical access and (on a buffer miss) a
    /// physical read. Under a persistent backend a miss on a non-resident
    /// page faults it in from the backend.
    ///
    /// # Panics
    /// Panics if the page is not live, or if the backend fails to produce a
    /// page it previously persisted (storage failure is unrecoverable for the
    /// in-process index).
    pub fn read(&mut self, id: PageId) -> &P {
        let idx = self.resident(id, "access to unknown or freed page");
        let (hit, victim) = self.buffer.access_evicting(id);
        if !self.accounting_paused {
            self.stats.logical_reads += 1;
            if hit {
                self.stats.buffer_hits += 1;
            } else {
                self.stats.physical_reads += 1;
            }
        }
        if let Some(victim) = victim.filter(|_| self.persistent) {
            self.evict_payload(victim);
        }
        self.pages[idx].as_ref().expect("resident")
    }

    /// Peeks at a *resident* page without touching the buffer or the
    /// counters. Intended for validation, debugging and test oracles only.
    /// Under a persistent backend a live page may be evicted and return
    /// `None` here; use [`PagedStore::read_unaccounted`] to force residency.
    pub fn peek(&self, id: PageId) -> Option<&P> {
        self.pages.get(id.index()).and_then(|p| p.as_ref())
    }

    /// Reads a page without charging the cost model or touching the buffer.
    /// Unlike [`PagedStore::peek`] it faults an evicted page back in, which
    /// then stays resident outside the buffer until a charged access admits
    /// it: this is a writer's look at a page it is about to write or free.
    ///
    /// # Panics
    /// Same as [`PagedStore::read`].
    pub fn read_unaccounted(&mut self, id: PageId) -> &P {
        let idx = self.resident(id, "access to unknown or freed page");
        self.pages[idx].as_ref().expect("resident")
    }

    /// The one write primitive: the page's payload, to be edited in place.
    /// Charges one physical write and no read (a writer has read the page
    /// already). Under a persistent backend it marks the page dirty and
    /// touches the buffer, writing back the page that touch evicts, and
    /// faults the page itself back in, uncharged, if it was evicted.
    ///
    /// # Panics
    /// Panics if the page is not live.
    pub fn write(&mut self, id: PageId) -> &mut P {
        let idx = self.resident(id, "write of unknown or freed page");
        if !self.accounting_paused {
            self.stats.physical_writes += 1;
        }
        if self.persistent {
            self.dirty[idx] = true;
            if let (_, Some(victim)) = self.buffer.access_evicting(id) {
                self.evict_payload(victim);
            }
        }
        self.pages[idx].as_mut().expect("resident")
    }

    /// Writes every dirty resident page back to the backend and issues a
    /// durability barrier. A no-op for the in-memory backend.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        if !self.persistent {
            return Ok(());
        }
        for i in 0..self.pages.len() {
            if !self.dirty[i] {
                continue;
            }
            let id = PageId::new(i as u64);
            if let Some(payload) = self.pages[i].as_ref() {
                self.backend.persist(id, payload)?;
                self.stats.page_writes += 1;
                self.dirty[i] = false;
            }
        }
        self.sync()
    }

    /// Issues a durability barrier on the backend (fsync-like). A no-op for
    /// the in-memory backend.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        if !self.persistent {
            return Ok(());
        }
        self.backend.sync()?;
        self.stats.sync_calls += 1;
        Ok(())
    }

    /// Materializes an explicit in-memory copy of this store: every live page
    /// (resident or evicted) is cloned into a fresh store with the in-memory
    /// backend, preserving page ids, buffer capacity/recency and statistics.
    ///
    /// This replaces the old derived `Clone`, which under a persistent
    /// backend would have aliased or half-copied the page file.
    pub fn fork_in_memory(&mut self) -> PagedStore<P>
    where
        P: Clone,
    {
        let mut pages: Vec<Option<P>> = Vec::with_capacity(self.pages.len());
        for i in 0..self.pages.len() {
            if !self.live[i] {
                pages.push(None);
                continue;
            }
            let payload = match &self.pages[i] {
                Some(p) => p.clone(),
                None => {
                    let id = PageId::new(i as u64);
                    self.backend
                        .fetch(id)
                        .unwrap_or_else(|e| panic!("fork_in_memory could not fault page {id}: {e}"))
                }
            };
            pages.push(Some(payload));
        }
        PagedStore {
            pages,
            live: self.live.clone(),
            dirty: vec![false; self.dirty.len()],
            live_count: self.live_count,
            free_list: self.free_list.clone(),
            buffer: self.buffer.clone(),
            stats: self.stats,
            accounting_paused: self.accounting_paused,
            backend: Box::new(MemoryBackend),
            persistent: false,
        }
    }

    /// Asserts that `id` is live (panicking with `misuse` otherwise) and
    /// makes it resident: an evicted page is faulted back in from the
    /// backend, clean, without touching the buffer or the counters. Returns
    /// the page's slot.
    fn resident(&mut self, id: PageId, misuse: &str) -> usize {
        let idx = id.index();
        assert!(self.live.get(idx).copied() == Some(true), "{misuse} {id}");
        if self.pages[idx].is_none() {
            let payload = self
                .backend
                .fetch(id)
                .unwrap_or_else(|e| panic!("backend fault of page {id} failed: {e}"));
            self.pages[idx] = Some(payload);
            self.dirty[idx] = false;
        }
        idx
    }

    /// Writes a page back to the backend (if dirty) and drops its resident
    /// payload. Only meaningful under a persistent backend.
    fn evict_payload(&mut self, id: PageId) {
        let idx = id.index();
        if let Some(payload) = self.pages[idx].take().filter(|_| self.dirty[idx]) {
            self.backend
                .persist(id, &payload)
                .unwrap_or_else(|e| panic!("write-back of page {id} failed: {e}"));
            self.stats.page_writes += 1;
            self.dirty[idx] = false;
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests remove their scratch page files"
)]
mod tests {
    use super::*;
    use crate::backend::{FileBackend, PageCodec};
    use std::path::PathBuf;

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
    fn memory_backend_never_writes_pages() {
        let mut store: PagedStore<u32> = PagedStore::new(1);
        let a = store.allocate(1);
        let b = store.allocate(2);
        store.read(a);
        store.read(b); // evicts a from the (accounting-only) buffer
        *store.write(a) += 1;
        store.flush().unwrap();
        store.sync().unwrap();
        assert_eq!(store.stats().page_writes, 0);
        assert_eq!(store.stats().sync_calls, 0);
        assert!(!store.is_persistent());
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
        // the page is now resident, so the next real read is a hit
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
        // shrinking an in-memory buffer evicts frames, never pages
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(*store.read(id), i as u32);
        }
    }

    #[test]
    fn fork_in_memory_copies_pages_and_stats() {
        let mut store: PagedStore<u32> = PagedStore::new(2);
        let a = store.allocate(1);
        let b = store.allocate(2);
        store.read(a);
        let mut fork = store.fork_in_memory();
        assert_eq!(*fork.read(a), 1);
        assert_eq!(*fork.read(b), 2);
        *fork.write(a) = 77;
        assert_eq!(*store.read(a), 1, "fork is independent");
        assert!(!fork.is_persistent());
    }

    // --- file-backed buffer-manager behaviour ---

    impl PageCodec for u32 {
        fn encode_page(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.to_le_bytes());
        }

        fn decode_page(bytes: &[u8]) -> Result<Self, StorageError> {
            let arr: [u8; 4] = bytes
                .try_into()
                .map_err(|_| StorageError::Corrupt("u32 page needs 4 bytes".into()))?;
            Ok(u32::from_le_bytes(arr))
        }
    }

    fn disk_store(name: &str, frames: usize) -> (PagedStore<u32>, PathBuf) {
        let mut path = std::env::temp_dir();
        path.push(format!("pref_storage_store_{}_{name}", std::process::id()));
        let backend: FileBackend<u32> = FileBackend::create(&path, 64).unwrap();
        (PagedStore::with_backend(Box::new(backend), frames), path)
    }

    #[test]
    fn disk_store_survives_eviction_beyond_buffer() {
        let (mut store, path) = disk_store("beyond", 2);
        let ids: Vec<PageId> = (0..16u32).map(|i| store.allocate(i * 10)).collect();
        // far more pages than the 2-frame buffer: most are on disk now
        assert!(store.stats().page_writes > 0, "evictions must hit the file");
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(*store.read(id), i as u32 * 10);
        }
        assert!(store.is_persistent());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn disk_store_writes_back_dirty_pages_only() {
        let (mut store, path) = disk_store("dirty", 2);
        let a = store.allocate(1);
        let b = store.allocate(2);
        let c = store.allocate(3); // evicts a (dirty: fresh allocation)
        store.flush().unwrap(); // b, c written back; all clean now
        let w = store.stats().page_writes;
        store.read(a); // faults a in, evicting the LRU *clean* page
        store.read(b);
        store.read(c);
        // only clean pages were evicted during those reads
        assert_eq!(store.stats().page_writes, w);
        *store.write(a) = 100;
        store.read(b);
        store.read(c); // a (dirty) must be written back on its eviction
        assert_eq!(store.stats().page_writes, w + 1);
        assert_eq!(*store.read(a), 100);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn disk_store_flush_and_sync_count() {
        let (mut store, path) = disk_store("flush", 4);
        store.allocate(1);
        store.allocate(2);
        store.flush().unwrap();
        let s = store.stats();
        assert_eq!(s.page_writes, 2);
        assert_eq!(s.sync_calls, 1);
        // flushing again writes nothing (all clean)
        store.flush().unwrap();
        assert_eq!(store.stats().page_writes, 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn disk_store_fork_in_memory_materializes_evicted_pages() {
        let (mut store, path) = disk_store("fork", 2);
        let ids: Vec<PageId> = (0..8u32).map(|i| store.allocate(i + 1)).collect();
        let mut fork = store.fork_in_memory();
        assert!(!fork.is_persistent());
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(*fork.read(id), i as u32 + 1);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn disk_store_free_then_reuse_keeps_contents_straight() {
        let (mut store, path) = disk_store("reuse", 2);
        let ids: Vec<PageId> = (0..6u32).map(|i| store.allocate(i)).collect();
        store.free(ids[1]);
        store.free(ids[4]);
        let x = store.allocate(400);
        let y = store.allocate(100);
        assert_eq!(*store.read(x), 400);
        assert_eq!(*store.read(y), 100);
        assert_eq!(*store.read(ids[0]), 0);
        assert_eq!(*store.read(ids[5]), 5);
        assert_eq!(store.len(), 6);
        std::fs::remove_file(path).ok();
    }

    #[test]
    #[should_panic(expected = "at least one buffer frame")]
    fn persistent_store_rejects_zero_buffer() {
        let mut path = std::env::temp_dir();
        path.push(format!("pref_storage_store_zero_{}", std::process::id()));
        let backend: FileBackend<u32> = FileBackend::create(&path, 64).unwrap();
        let _ = PagedStore::<u32>::with_backend(Box::new(backend), 0);
    }

    /// The write primitive's hazard: a page read on the way down an R-tree
    /// can be evicted before the way back up. Writing it faults it back in,
    /// charging the write and nothing else.
    #[test]
    fn disk_store_write_faults_an_evicted_page_back_in() {
        let (mut store, path) = disk_store("write_fault", 2);
        let ids: Vec<PageId> = (0..6u32).map(|i| store.allocate(i)).collect();
        store.reset_stats();
        assert!(store.peek(ids[0]).is_none(), "the first page was evicted");
        *store.write(ids[0]) += 40;
        let s = store.stats();
        assert_eq!(
            (s.physical_writes, s.logical_reads, s.physical_reads),
            (1, 0, 0)
        );
        assert_eq!(store.buffer.resident_mru_order()[0], ids[0]);
        assert_eq!(*store.read(ids[0]), 40);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn read_unaccounted_faults_without_charging() {
        let (mut store, path) = disk_store("unaccounted", 2);
        let ids: Vec<PageId> = (0..6u32).map(|i| store.allocate(i)).collect();
        store.reset_stats();
        let order = store.buffer.resident_mru_order();
        assert_eq!(*store.read_unaccounted(ids[0]), 0);
        assert_eq!(
            store.stats(),
            IoStats::new(),
            "nothing charged, nothing evicted"
        );
        assert_eq!(
            store.buffer.resident_mru_order(),
            order,
            "the buffer is untouched"
        );
        std::fs::remove_file(path).ok();
    }
}
