//! Pluggable page-storage backends for [`crate::PagedStore`].
//!
//! The store itself is a *buffer manager*: it keeps a resident-page table and
//! an LRU buffer, and delegates what happens to a page when it leaves memory
//! to a [`StorageBackend`]:
//!
//! * [`MemoryBackend`] — the historical behaviour. Pages never leave the
//!   resident table, the LRU buffer is accounting-only, and the backend's
//!   persistence hooks are no-ops. Zero cost, zero I/O, the default.
//! * [`FileBackend`] — a real fixed-slot page file. Dirty pages evicted from
//!   the buffer are encoded via [`PageCodec`] and written to their slot;
//!   buffer misses on non-resident pages read the slot back. This is what
//!   lets a tree grow past RAM, and what makes `page_writes`/`sync_calls`
//!   in [`crate::IoStats`] report real I/O.
//!
//! The page *file* is a capacity story, not a durability story: slots are
//! rewritten in place with no ordering guarantees, so the file is only
//! meaningful while its store is alive. Crash durability is provided one
//! level up by the write-ahead log and checkpoints in [`crate::wal`].

#![expect(
    clippy::disallowed_types,
    reason = "the page file is the storage backend's own std::fs use"
)]

use crate::store::PageId;
use std::fmt;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// Errors surfaced by storage backends and the WAL machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An underlying I/O operation failed. The message carries the
    /// `std::io::Error` rendering plus the operation that failed.
    Io(String),
    /// A page payload did not fit in the backend's fixed slot size.
    PageOverflow {
        /// The page being written.
        page: PageId,
        /// Encoded payload size in bytes (excluding the slot header).
        size: usize,
        /// The backend's slot capacity in bytes (including the slot header).
        slot_size: usize,
    },
    /// Stored bytes failed validation (bad length, checksum or structure).
    Corrupt(String),
    /// The backend cannot satisfy the request (e.g. faulting a page from the
    /// in-memory backend, which never holds pages).
    Unsupported(&'static str),
    /// A directory that must start empty already holds durable state (a log
    /// segment or a checkpoint of an earlier run). Nothing in it was touched.
    InUse(PathBuf),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(msg) => write!(f, "storage I/O error: {msg}"),
            StorageError::PageOverflow {
                page,
                size,
                slot_size,
            } => write!(
                f,
                "page {page} encodes to {size} bytes, exceeding the {slot_size}-byte slot"
            ),
            StorageError::Corrupt(msg) => write!(f, "corrupt stored data: {msg}"),
            StorageError::Unsupported(msg) => write!(f, "unsupported backend operation: {msg}"),
            StorageError::InUse(dir) => write!(
                f,
                "{} already holds a log or checkpoint of an earlier run",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for StorageError {}

impl StorageError {
    /// Wraps an `std::io::Error` with the operation that failed.
    pub fn io(op: &str, err: &std::io::Error) -> Self {
        StorageError::Io(format!("{op}: {err}"))
    }
}

/// Byte-level serialization of a page payload, required by backends that
/// store pages outside the resident table.
///
/// Implementations must round-trip exactly: `decode(encode(p)) == p` for any
/// payload the store is given, including floating-point coordinates
/// (bit-level, via `to_le_bytes`).
pub trait PageCodec: Sized {
    /// Appends the encoded payload to `buf`.
    fn encode_page(&self, buf: &mut Vec<u8>);
    /// Decodes a payload previously produced by [`PageCodec::encode_page`].
    fn decode_page(bytes: &[u8]) -> Result<Self, StorageError>;
}

/// Where pages live when they are not resident in the buffer manager.
///
/// `persist`/`fetch` move page contents across the memory/backing-store
/// boundary; `discard` releases a slot; `sync` is a durability barrier.
/// [`StorageBackend::is_persistent`] tells the store whether eviction is
/// meaningful at all: a non-persistent backend keeps every page resident and
/// the LRU buffer is pure accounting (the paper's simulated-disk mode).
pub trait StorageBackend<P>: fmt::Debug + Send {
    /// Writes the payload of `page` to backing storage.
    fn persist(&mut self, page: PageId, payload: &P) -> Result<(), StorageError>;
    /// Reads the payload of `page` back from backing storage.
    fn fetch(&mut self, page: PageId) -> Result<P, StorageError>;
    /// Releases any backing storage held for `page` (the slot may be reused).
    fn discard(&mut self, page: PageId);
    /// Flushes all written pages to durable storage.
    fn sync(&mut self) -> Result<(), StorageError>;
    /// `true` when evicted pages survive in backing storage and can be
    /// fetched back; `false` when the store must keep every page resident.
    fn is_persistent(&self) -> bool;
}

/// The historical in-memory mode: pages only ever live in the store's
/// resident table, so every backend hook is a no-op and [`StorageBackend::fetch`]
/// is unreachable (the store never evicts payloads under this backend).
#[derive(Debug, Default, Clone, Copy)]
pub struct MemoryBackend;

impl<P> StorageBackend<P> for MemoryBackend {
    fn persist(&mut self, _page: PageId, _payload: &P) -> Result<(), StorageError> {
        Ok(())
    }

    fn fetch(&mut self, _page: PageId) -> Result<P, StorageError> {
        Err(StorageError::Unsupported(
            "the in-memory backend never holds pages; fetch is unreachable",
        ))
    }

    fn discard(&mut self, _page: PageId) {}

    fn sync(&mut self) -> Result<(), StorageError> {
        Ok(())
    }

    fn is_persistent(&self) -> bool {
        false
    }
}

/// Per-slot header: payload length (u32) + FNV-1a checksum of the payload
/// (u64), both little-endian.
const SLOT_HEADER: usize = 4 + 8;

/// 64-bit FNV-1a hash, used as the integrity checksum for page slots and WAL
/// records (no external crc crate; the offline build has no such dependency).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// A fixed-slot page file: page `i` lives at byte offset `i * slot_size`.
///
/// Each slot stores `[len: u32 LE][fnv1a64(payload): u64 LE][payload]`; the
/// checksum guards against torn slot writes being silently decoded. The file
/// is created from scratch (`create` truncates) — see the module docs for why
/// the page file is not a durability mechanism.
pub struct FileBackend<P> {
    file: File,
    path: PathBuf,
    slot_size: usize,
    scratch: Vec<u8>,
    _payload: PhantomData<fn() -> P>,
}

impl<P> fmt::Debug for FileBackend<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileBackend")
            .field("path", &self.path)
            .field("slot_size", &self.slot_size)
            .finish()
    }
}

impl<P> FileBackend<P> {
    /// Creates (truncating) a page file at `path` with the given slot size in
    /// bytes. Use [`crate::PAGE_SIZE`] unless the payload needs more room.
    pub fn create(path: impl AsRef<Path>, slot_size: usize) -> Result<Self, StorageError> {
        let path = path.as_ref().to_path_buf();
        assert!(
            slot_size > SLOT_HEADER,
            "slot size {slot_size} leaves no room for a payload"
        );
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| StorageError::io(&format!("create page file {}", path.display()), &e))?;
        Ok(Self {
            file,
            path,
            slot_size,
            scratch: Vec::with_capacity(slot_size),
            _payload: PhantomData,
        })
    }

    /// The slot size in bytes.
    pub fn slot_size(&self) -> usize {
        self.slot_size
    }

    /// The path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn slot_offset(&self, page: PageId) -> u64 {
        page.raw() * self.slot_size as u64
    }
}

impl<P: PageCodec> StorageBackend<P> for FileBackend<P> {
    fn persist(&mut self, page: PageId, payload: &P) -> Result<(), StorageError> {
        self.scratch.clear();
        self.scratch.extend_from_slice(&[0u8; SLOT_HEADER]);
        payload.encode_page(&mut self.scratch);
        let len = self.scratch.len() - SLOT_HEADER;
        if self.scratch.len() > self.slot_size {
            return Err(StorageError::PageOverflow {
                page,
                size: len,
                slot_size: self.slot_size,
            });
        }
        let crc = fnv1a64(&self.scratch[SLOT_HEADER..]);
        self.scratch[0..4].copy_from_slice(&(len as u32).to_le_bytes());
        self.scratch[4..12].copy_from_slice(&crc.to_le_bytes());
        let offset = self.slot_offset(page);
        self.file
            .seek(SeekFrom::Start(offset))
            .and_then(|_| self.file.write_all(&self.scratch))
            .map_err(|e| StorageError::io(&format!("write page {page}"), &e))?;
        Ok(())
    }

    fn fetch(&mut self, page: PageId) -> Result<P, StorageError> {
        let offset = self.slot_offset(page);
        let mut header = [0u8; SLOT_HEADER];
        self.file
            .seek(SeekFrom::Start(offset))
            .and_then(|_| self.file.read_exact(&mut header))
            .map_err(|e| StorageError::io(&format!("read page {page} header"), &e))?;
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        if SLOT_HEADER + len > self.slot_size {
            return Err(StorageError::Corrupt(format!(
                "page {page} claims {len} payload bytes in a {}-byte slot",
                self.slot_size
            )));
        }
        let want_crc = u64::from_le_bytes([
            header[4], header[5], header[6], header[7], header[8], header[9], header[10],
            header[11],
        ]);
        self.scratch.clear();
        self.scratch.resize(len, 0);
        self.file
            .read_exact(&mut self.scratch)
            .map_err(|e| StorageError::io(&format!("read page {page} payload"), &e))?;
        if fnv1a64(&self.scratch) != want_crc {
            return Err(StorageError::Corrupt(format!(
                "page {page} failed its checksum"
            )));
        }
        P::decode_page(&self.scratch)
    }

    fn discard(&mut self, _page: PageId) {
        // slots are reused via the store's free list; no file work needed
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.file
            .sync_data()
            .map_err(|e| StorageError::io("sync page file", &e))
    }

    fn is_persistent(&self) -> bool {
        true
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests remove their scratch page files"
)]
mod tests {
    use super::*;

    /// A toy payload for backend tests.
    #[derive(Debug, Clone, PartialEq)]
    struct Blob(Vec<u8>);

    impl PageCodec for Blob {
        fn encode_page(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0);
        }

        fn decode_page(bytes: &[u8]) -> Result<Self, StorageError> {
            Ok(Blob(bytes.to_vec()))
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "pref_storage_backend_{}_{name}",
            std::process::id()
        ));
        p
    }

    #[test]
    fn file_backend_roundtrips_pages() {
        let path = temp_path("roundtrip");
        let mut be: FileBackend<Blob> = FileBackend::create(&path, 64).unwrap();
        let a = Blob(vec![1, 2, 3]);
        let b = Blob(vec![9; 40]);
        be.persist(PageId::new(0), &a).unwrap();
        be.persist(PageId::new(5), &b).unwrap();
        assert_eq!(be.fetch(PageId::new(0)).unwrap(), a);
        assert_eq!(be.fetch(PageId::new(5)).unwrap(), b);
        // overwrite in place
        let a2 = Blob(vec![7, 7]);
        be.persist(PageId::new(0), &a2).unwrap();
        assert_eq!(be.fetch(PageId::new(0)).unwrap(), a2);
        be.sync().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_backend_rejects_oversized_payloads() {
        let path = temp_path("overflow");
        let mut be: FileBackend<Blob> = FileBackend::create(&path, 32).unwrap();
        let big = Blob(vec![0; 64]);
        let err = be.persist(PageId::new(1), &big).unwrap_err();
        assert!(matches!(err, StorageError::PageOverflow { size: 64, .. }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_backend_detects_slot_corruption() {
        use std::io::{Seek, SeekFrom, Write};
        let path = temp_path("corrupt");
        let mut be: FileBackend<Blob> = FileBackend::create(&path, 64).unwrap();
        be.persist(PageId::new(0), &Blob(vec![5; 16])).unwrap();
        be.sync().unwrap();
        // flip a payload byte behind the backend's back
        let mut f = File::options().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(SLOT_HEADER as u64)).unwrap();
        f.write_all(&[0xFF]).unwrap();
        f.sync_data().unwrap();
        let err = be.fetch(PageId::new(0)).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memory_backend_never_fetches() {
        let mut be = MemoryBackend;
        assert!(StorageBackend::<Blob>::persist(&mut be, PageId::new(0), &Blob(vec![])).is_ok());
        assert!(!StorageBackend::<Blob>::is_persistent(&be));
        assert!(matches!(
            StorageBackend::<Blob>::fetch(&mut be, PageId::new(0)),
            Err(StorageError::Unsupported(_))
        ));
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // published FNV-1a test vectors
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
