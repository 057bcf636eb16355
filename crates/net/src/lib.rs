//! The service's front door: a binary wire protocol over TCP.
//!
//! [`pref_service::ShardedService`] serves a process; this crate serves a
//! network. It is deliberately zero-dependency — a hand-rolled
//! length-prefixed binary protocol over blocking `std::net` sockets — so the
//! whole request path from `accept()` to snapshot read is this workspace's
//! own code, testable down to the byte.
//!
//! * **Frames** ([`frame`]) are `[len][ver][opcode][tenant][payload][crc]`
//!   with the same FNV-1a checksum the WAL uses for its records. Length
//!   bounds are enforced *before* allocation and checksums before dispatch:
//!   a lying length field or flipped bit costs a typed error, never a panic
//!   or an unbounded allocation. Framing failures drop the connection
//!   (byte-stream sync is gone); semantic failures — unknown version or
//!   opcode, bad payload — answer a typed error frame and keep serving.
//! * **The server** ([`Server`]) fronts a
//!   [`ShardedService`](pref_service::ShardedService) with one
//!   blocking handler thread per connection. Reads (`assignment_of`,
//!   `functions_of`, `stats`) go through a per-connection
//!   [`pref_service::ServiceReader`] — the zero-lock snapshot path, never
//!   the writer. Updates go through admission control into the bounded
//!   update queue, and a flush round-trip is the read-your-writes barrier:
//!   after a tenant's `OP_FLUSH` reply, its earlier acknowledged updates are
//!   visible to every subsequent read of its shard.
//! * **Admission** ([`admission`]) protects the update path with per-tenant
//!   token buckets (fixed slot table, bounded memory) plus the queue's own
//!   capacity check via `try_submit_batch`: an overloaded shard answers a
//!   typed `ERR_OVERLOADED` reject immediately instead of parking the
//!   connection handler in the queue's backpressure wait. The bucket state
//!   machine takes its clock as an argument, so admission schedules are
//!   model-checkable inputs, not wall-clock flakes.
//!
//! The `tenant` field of every frame is both the rate-limiting identity and
//! the routing key: `shard_of_key(tenant)` picks the shard, so one tenant's
//! reads, updates, and flushes all land on one shard and read-your-writes
//! composes across connections.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod admission;
mod client;
pub mod frame;
#[cfg(test)]
mod model_tests;
mod server;

pub use admission::{AdmissionGate, AdmitDecision, TokenBucketConfig};
pub use client::{AssignmentReply, NetClient, StatsReply};
pub use server::{Server, ServerConfig};

use crate::frame::FrameError;

/// Client-visible failure of one request.
#[derive(Debug)]
pub enum NetError {
    /// The transport failed (connect, read, write, reset).
    Io(std::io::Error),
    /// The peer's bytes did not frame or checksum correctly.
    Frame(FrameError),
    /// The server answered a typed error frame; `code` is one of the
    /// `frame::ERR_*` constants.
    Remote {
        /// Error code byte from the reply payload.
        code: u8,
        /// Human-readable cause from the reply payload.
        message: String,
    },
    /// The reply was well-framed but not the shape the request demands
    /// (wrong opcode, truncated body).
    UnexpectedReply(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Frame(e) => write!(f, "framing error: {e}"),
            NetError::Remote { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            NetError::UnexpectedReply(msg) => write!(f, "unexpected reply: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}

/// A reply body that did not decode is the reply the request did not expect.
impl From<pref_storage::StorageError> for NetError {
    fn from(e: pref_storage::StorageError) -> Self {
        NetError::UnexpectedReply(e.to_string())
    }
}

impl NetError {
    /// True when the server rejected the request at the admission gate —
    /// the tenant's token bucket ([`frame::ERR_RATE_LIMITED`]) or the
    /// shard's queue capacity ([`frame::ERR_OVERLOADED`]). These are load
    /// signals, not faults: back off and retry.
    pub fn is_admission_reject(&self) -> bool {
        matches!(
            self,
            NetError::Remote {
                code: frame::ERR_RATE_LIMITED | frame::ERR_OVERLOADED,
                ..
            }
        )
    }
}
