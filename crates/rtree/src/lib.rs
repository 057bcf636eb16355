//! A disk-style R-tree over simulated paged storage.
//!
//! This crate provides the `RO` index assumed throughout the VLDB 2009 paper:
//! the object set `O` is "indexed by an R-tree with 4 KBytes page size" and
//! every algorithm is charged one I/O per node access that misses the LRU
//! buffer. One tree node occupies exactly one page of a
//! [`pref_storage::PagedStore`].
//!
//! Features:
//!
//! * **STR bulk loading** ([`RTree::bulk_load`]) — Sort-Tile-Recursive packing
//!   used to build the initial index for the experiments,
//! * **dynamic insertion** ([`RTree::insert`]) — Guttman-style ChooseLeaf with
//!   quadratic node splitting,
//! * **deletion** ([`RTree::delete`]) — find-leaf + condense-tree with
//!   re-insertion of orphaned entries; needed by the Brute Force and Chain
//!   competitors, which physically remove assigned objects from the index.
//!   The tracked variant ([`RTree::delete_tracked`]) reports every structural
//!   effect (freed pages, re-inserted orphans, re-insertion splits, MBR
//!   shrinks) so structures holding page references — the engine's maintained
//!   skyline — can stay consistent across physical deletions,
//! * **queries** — range queries and a full scan, plus low-level node access
//!   ([`RTree::node_entries`], [`RTree::root_entries`]) used by the best-first
//!   traversals of the skyline (BBS) and ranked-search (BRS) crates,
//! * **invariant checking** ([`RTree::check_invariants`]) used by tests.
//!
//! Every node lives in memory; the store's LRU buffer only decides which
//! node accesses are charged as I/O.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

mod bulk;
mod delete;
mod entry;
mod insert;
mod query;
mod tree;

pub use delete::{DeleteOutcome, FreedPage};
pub use entry::{DataEntry, Node, NodeEntry, RecordId};
pub use insert::PageSplit;
pub use tree::{RTree, RTreeConfig, RTreeError};
