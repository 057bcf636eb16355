//! Snapshot-consistent concurrent serving layer over the assignment engine.
//!
//! [`pref_engine::AssignmentEngine`] repairs a stable matching incrementally,
//! but it is strictly single-threaded: every read contends with the writer.
//! This crate adds the tier that makes the matching *servable* under heavy
//! read traffic, following the architecture production matching systems use —
//! a single-writer repair loop per shard, and any number of readers that
//! never take a lock on the hot path:
//!
//! * **Shards** ([`ShardedService`]) partition the world by a tenant / shard
//!   key. Each shard owns one engine on a dedicated writer thread, fed by a
//!   bounded multi-producer update queue ([`UpdateOp`] batches). There are no
//!   cross-shard transactions: a shard is an independent assignment problem.
//! * **Snapshots** ([`AssignmentSnapshot`]) are immutable and monotonically
//!   versioned. After applying the batches it drained (up to 64 updates, or
//!   one larger batch), the writer exports the engine's state once (compact CSR arrays:
//!   function → objects, object → functions, scores, stats) and publishes it
//!   atomically through the shard's snapshot cell. A snapshot is only ever
//!   published at a batch boundary,
//!   so readers can never observe a torn (partially applied) batch.
//! * **Readers** ([`SnapshotReader`], [`ServiceReader`]) answer
//!   `assignment_of(function)` / `functions_of(object)` / `stats()` against
//!   their pinned snapshot with zero locks and zero allocation: the hot path
//!   is one atomic version load plus slice indexing. Only when the version
//!   has moved does the reader briefly touch the publication slot to pin the
//!   newer snapshot (an `Arc` clone — still allocation-free). Versions are
//!   strictly monotonic per reader.
//!
//! Writes are acknowledged by a [`ShardedService::flush`] barrier: it returns
//! once every update submitted before the call has been applied *and*
//! published, giving producers read-your-writes on their own shard.
//!
//! With a [`DurabilityConfig`] — a root directory, nothing else — each shard
//! additionally keeps a write-ahead log on disk, opening a new segment with
//! a snapshot every 256 logged batches (via `pref_storage`'s WAL): every non-empty batch is
//! logged and fsynced *before* it is applied and acked, so the batch is the
//! durability unit exactly as it is the isolation unit. A durable
//! [`ShardedService::start`] refuses a root an earlier run left shard
//! directories in; [`ShardedService::recover`] rebuilds every shard from
//! its newest readable snapshot plus the batches after it and lands on the
//! byte-identical canonical matching — see the `durability` module and the
//! README's "Durability" section for the crash-consistency model.
//!
//! All synchronization goes through the [`pref_sync`] shim: std primitives
//! on ordinary threads, and inside a model run a deterministic
//! model-checking scheduler that the `model_tests` module uses to
//! systematically explore interleavings of the cell/queue/shard protocols
//! and check happens-before invariants on each.
//!
//! # Quick start
//!
//! ```
//! use pref_assign::{FunctionId, ObjectRecord, Problem, PreferenceFunction};
//! use pref_geom::{LinearFunction, Point};
//! use pref_service::{ServiceConfig, ShardedService, UpdateOp};
//!
//! let problem = Problem::new(
//!     vec![
//!         PreferenceFunction::new(0, LinearFunction::new(vec![0.8, 0.2]).unwrap()),
//!         PreferenceFunction::new(1, LinearFunction::new(vec![0.2, 0.8]).unwrap()),
//!     ],
//!     vec![
//!         ObjectRecord::new(0, Point::from_slice(&[0.5, 0.6])),
//!         ObjectRecord::new(1, Point::from_slice(&[0.2, 0.7])),
//!         ObjectRecord::new(2, Point::from_slice(&[0.8, 0.2])),
//!     ],
//! )
//! .unwrap();
//!
//! let service = ShardedService::start(vec![problem], &ServiceConfig::default()).unwrap();
//! let mut reader = service.reader();
//!
//! // a hot new object arrives; flush() is the read-your-writes barrier
//! service
//!     .submit(0, UpdateOp::InsertObject(ObjectRecord::new(3, Point::from_slice(&[0.9, 0.9]))))
//!     .unwrap();
//! service.flush().unwrap();
//!
//! let snapshot = reader.snapshot(0).unwrap();
//! let (object, _score) = snapshot.assignment_of(FunctionId(0)).unwrap().next().unwrap();
//! assert_eq!(object.0, 3); // the newcomer dominates: f0 is re-assigned to it
//! service.shutdown().unwrap();
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod cell;
mod durability;
#[cfg(test)]
mod model_tests;
mod queue;
mod service;
mod shard;
mod snapshot;

pub use cell::SnapshotReader;
pub use durability::{decode_batch, encode_batch, DurabilityConfig, FsyncPolicy, ShardDurability};
pub use service::{ServiceConfig, ServiceReader, ServiceStats, ShardedService};
pub use shard::{FaultEvent, ShardHandle, ShardStats, WriterFault};
pub use snapshot::AssignmentSnapshot;

use pref_engine::EngineError;
use pref_storage::StorageError;

pub use pref_engine::UpdateOp;

/// Errors surfaced by the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The shard index is out of range.
    UnknownShard(usize),
    /// The service (or the addressed shard's writer) has stopped cleanly:
    /// the queue was closed by shutdown and the writer drained and exited.
    Stopped,
    /// The addressed shard's writer thread panicked. Unlike [`Stopped`],
    /// nothing submitted after the crash will ever be applied — producers
    /// blocked on a full queue are woken with this error instead of hanging
    /// on a drain that can no longer happen.
    ///
    /// [`Stopped`]: ServiceError::Stopped
    WriterCrashed,
    /// A non-blocking submission was refused because the shard's queue is at
    /// capacity. The admission-control path returns this instead of parking
    /// the caller in the queue's backpressure wait.
    Overloaded,
    /// The configuration is invalid (message describes the problem).
    InvalidConfig(String),
    /// Building a shard's engine failed.
    Engine(EngineError),
    /// A durability operation (WAL append/fsync, rotation, recovery)
    /// failed; the message carries the storage-level cause.
    Durability(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownShard(shard) => write!(f, "unknown shard {shard}"),
            ServiceError::Stopped => write!(f, "the service has stopped"),
            ServiceError::WriterCrashed => write!(f, "the shard's writer thread crashed"),
            ServiceError::Overloaded => write!(f, "the shard's update queue is at capacity"),
            ServiceError::InvalidConfig(msg) => write!(f, "invalid service config: {msg}"),
            ServiceError::Engine(e) => write!(f, "engine error: {e}"),
            ServiceError::Durability(msg) => write!(f, "durability error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        ServiceError::Engine(e)
    }
}

impl From<StorageError> for ServiceError {
    fn from(e: StorageError) -> Self {
        ServiceError::Durability(e.to_string())
    }
}
