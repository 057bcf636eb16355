//! Simulated disk storage for the fair-assignment library.
//!
//! The VLDB 2009 paper evaluates its algorithms by the number of R-tree node
//! accesses that are not absorbed by an LRU buffer ("I/O accesses", with a
//! buffer whose default size is 2% of the tree). This crate provides the
//! machinery to reproduce that accounting without a real disk:
//!
//! * [`PagedStore`] — the one buffer manager: an in-memory page table over
//!   fixed-size pages addressed by [`PageId`], standing in for the disk file
//!   that holds the R-tree; every page stays in memory and the buffer only
//!   decides which accesses count as I/O,
//! * [`LruBuffer`] — an LRU buffer pool over page identifiers,
//! * [`IoStats`] — logical/physical read and write counters,
//! * [`ByteReader`] — the bounds-checked little-endian reader every decoder
//!   of stored or received bytes goes through (WAL batches, snapshots, wire
//!   replies): a short read, a count the bytes cannot hold or trailing bytes
//!   are a [`StorageError::Corrupt`], never a panic or an allocation,
//! * [`wal`] — the write-ahead-log file primitives of the service tier's
//!   per-shard durability, where a snapshot is a segment's first record.
//!
//! The store is generic over the page payload so the R-tree crate can store
//! its node type directly; the accounting only needs to know *which* page is
//! touched. [`PAGE_SIZE`] documents the page size used to derive R-tree
//! fanout.
//!
//! This crate is the only place in the workspace allowed to touch `std::fs`
//! (enforced by the `std::fs` entries of the workspace's `clippy.toml`
//! `disallowed-methods` / `disallowed-types`), and within it only [`wal`]
//! does: every other crate goes through the [`wal`] helpers, keeping
//! file-descriptor lifetimes and fsync ordering auditable in one spot.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

mod error;
mod lru;
mod reader;
mod stats;
mod store;
pub mod wal;

pub use error::{fnv1a64, StorageError};
pub use lru::LruBuffer;
pub use reader::ByteReader;
pub use stats::IoStats;
pub use store::{PageId, PagedStore};

/// Simulated page size in bytes (the paper uses 4 KByte pages).
pub const PAGE_SIZE: usize = 4096;

/// Size in bytes of one stored coordinate (an `f64`).
pub const COORD_SIZE: usize = 8;

/// Size in bytes of a child-pointer / record identifier within a page.
pub const POINTER_SIZE: usize = 8;

/// Computes the maximum number of R-tree entries that fit in one page for a
/// given dimensionality: each entry stores an MBR (2·D coordinates) plus a
/// pointer, and the page keeps a small header.
///
/// ```
/// assert_eq!(pref_storage::entries_per_page(4), 56);
/// assert!(pref_storage::entries_per_page(6) >= 30);
/// ```
pub fn entries_per_page(dims: usize) -> usize {
    const PAGE_HEADER: usize = 32;
    let entry_size = 2 * dims * COORD_SIZE + POINTER_SIZE;
    ((PAGE_SIZE - PAGE_HEADER) / entry_size).max(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_per_page_matches_paper_scale() {
        // 4 KiB pages, D = 4: entry = 4*2*8 + 8 = 72 bytes -> 56 entries.
        assert_eq!(entries_per_page(4), 56);
        // Higher dimensionality means lower fanout (the dimensionality curse).
        assert!(entries_per_page(3) > entries_per_page(4));
        assert!(entries_per_page(4) > entries_per_page(6));
        // Degenerate dimensionalities still give a usable fanout.
        assert!(entries_per_page(100) >= 4);
    }
}
