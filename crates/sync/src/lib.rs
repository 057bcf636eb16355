//! Concurrency shim for the serving tier: model-checkable synchronization
//! primitives.
//!
//! The serving layer (`pref_service`) is hand-rolled concurrency — an RCU
//! snapshot cell, a bounded condvar queue, per-shard writer threads with a
//! flush barrier. Wall-clock stress tests only explore whichever
//! interleavings the OS scheduler happens to produce; this crate provides the
//! loom/TSan role in-repo, on the stable toolchain, with no dependencies and
//! no `unsafe`:
//!
//! * **Outside a model run.** [`AtomicU64`], [`Mutex`], [`Condvar`],
//!   [`RaceCell`] and [`thread`] delegate straight to `std`: an object made
//!   outside a run carries no registration, and each operation checks that
//!   before anything else. One deliberate API difference: [`Mutex::lock`]
//!   and [`Condvar::wait`] do not surface lock poisoning (they recover the
//!   inner data). The service signals writer panics explicitly (its
//!   `ExitNotice` pattern), so poison propagation would only re-encode that
//!   signal as a panic in an unrelated thread.
//! * **Inside a model run.** Objects created by a run's threads are
//!   registered with its scheduler, and every operation on them becomes a
//!   *schedule point* of a deterministic cooperative scheduler: only one
//!   thread runs at a time, and at every point the scheduler picks the next
//!   thread — by a seeded random walk ([`model::explore`]) or by systematic
//!   bounded-preemption DFS ([`model::explore_dfs`]). A failing
//!   interleaving is fully reproducible from its printed seed (or choice
//!   schedule) via [`model::replay`] / [`model::run_schedule`].
//!
//! During a model run the scheduler maintains **vector clocks** and checks
//! happens-before as the trace unfolds:
//!
//! * plain data reads/writes through [`RaceCell`] must be ordered after the
//!   last write (else: data race — e.g. snapshot contents read without being
//!   ordered after the publishing `Release` store);
//! * `Acquire` loads only inherit the writer's clock if the last store was
//!   releasing — downgrading a publishing store to `Relaxed` severs the edge
//!   and the next payload read is flagged;
//! * whole-system deadlock (no runnable thread) is reported with every
//!   blocked thread's wait reason, classified as a **lost wakeup** when a
//!   thread waits on a condvar whose notifies were consumed with no waiter
//!   present;
//! * scenario-level invariants (per-reader version monotonicity, flush
//!   acknowledged only after publication, ...) are asserted with
//!   [`model::check`], which fails the run quietly and reports the seed and
//!   trace.
//!
//! Threads must be spawned through [`thread::spawn`] / [`thread::Builder`] to
//! take part in a model run; shim objects constructed outside a run behave as
//! plain std even when used inside one (documented escape hatch — the model
//! only tracks what it saw created).
//!
//! # Lock ranks
//!
//! [`Mutex::new`] takes a [`LockRank`], and `LockRank`'s declaration order is
//! the workspace's lock order: a thread takes locks in strictly increasing
//! rank. Every build checks it on each [`Mutex::lock`], which panics with
//! the `file:line` of both acquisitions when a thread takes a rank ≤ one it
//! holds — in a model run, on every interleaving explored.
//!
//! # Example (outside a model run)
//!
//! ```
//! use pref_sync::{AtomicU64, LockRank, Mutex, Ordering};
//!
//! let visits = AtomicU64::new(0);
//! // ordering: counter, no payload published through it
//! visits.fetch_add(1, Ordering::Relaxed);
//! let cell = Mutex::new(vec![1, 2, 3], LockRank::UpdateQueue);
//! assert_eq!(cell.lock().len(), 3);
//! // ordering: counter read back on the same thread
//! assert_eq!(visits.load(Ordering::Relaxed), 1);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub use std::sync::atomic::Ordering;

mod rank;
pub use rank::LockRank;

mod shim;
pub use shim::{thread, AtomicU64, Condvar, Mutex, MutexGuard, RaceCell};

pub mod model;

pub mod pool;
pub use pool::{resolve_threads, WorkStealingPool};

pub mod time;

#[cfg(test)]
mod tests;
