//! A blocking client for the front-door protocol.
//!
//! One [`NetClient`] wraps one TCP connection and issues one request at a
//! time (the protocol is strictly request/reply per connection; open more
//! connections for parallelism — that is what the load harness does).

use crate::frame::{self, Frame};
use crate::NetError;
use pref_service::{encode_batch, UpdateOp};
use pref_storage::ByteReader;
use std::net::{TcpStream, ToSocketAddrs};

/// A snapshot read answered over the network.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentReply {
    /// Version of the snapshot that answered the read.
    pub version: u64,
    /// Whether the queried id was known to the snapshot (an empty
    /// assignment and an unknown id are different answers).
    pub found: bool,
    /// `(counterpart id, score)` pairs, best score first.
    pub pairs: Vec<(u64, f64)>,
}

/// Service-wide counters answered by `OP_STATS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsReply {
    /// Updates submitted to the service so far.
    pub submitted: u64,
    /// Updates processed (applied + rejected) and published.
    pub processed: u64,
    /// Updates the engines rejected.
    pub rejected: u64,
    /// Live objects across shards.
    pub live_objects: u64,
    /// Live preference functions across shards.
    pub live_functions: u64,
    /// Sum of published snapshot versions across shards.
    pub published_versions: u64,
}

/// One blocking connection to a front-door server.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
}

impl NetClient {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        Ok(Self {
            stream: TcpStream::connect(addr)?,
        })
    }

    /// Liveness probe.
    pub fn ping(&mut self, tenant: u64) -> Result<(), NetError> {
        self.roundtrip(frame::OP_PING, tenant, Vec::new())
            .map(|_| ())
    }

    /// Reads the objects assigned to `function` on `tenant`'s shard.
    pub fn assignment_of(
        &mut self,
        tenant: u64,
        function: u64,
    ) -> Result<AssignmentReply, NetError> {
        let reply = self.roundtrip(
            frame::OP_ASSIGNMENT_OF,
            tenant,
            function.to_le_bytes().to_vec(),
        )?;
        decode_read_reply(&reply)
    }

    /// Reads the functions `object` is assigned to on `tenant`'s shard.
    pub fn functions_of(&mut self, tenant: u64, object: u64) -> Result<AssignmentReply, NetError> {
        let reply = self.roundtrip(
            frame::OP_FUNCTIONS_OF,
            tenant,
            object.to_le_bytes().to_vec(),
        )?;
        decode_read_reply(&reply)
    }

    /// Service-wide stats.
    pub fn stats(&mut self, tenant: u64) -> Result<StatsReply, NetError> {
        let reply = self.roundtrip(frame::OP_STATS, tenant, Vec::new())?;
        let mut r = ByteReader::new(&reply.payload, "stats reply");
        let stats = StatsReply {
            submitted: r.u64()?,
            processed: r.u64()?,
            rejected: r.u64()?,
            live_objects: r.u64()?,
            live_functions: r.u64()?,
            published_versions: r.u64()?,
        };
        r.finish()?;
        Ok(stats)
    }

    /// Submits one update batch to `tenant`'s shard. An `Ok` means the
    /// batch passed admission and is *queued*; pair with
    /// [`NetClient::flush`] for a visibility ack. Admission rejects come
    /// back as [`NetError::Remote`] — see [`NetError::is_admission_reject`].
    pub fn update(&mut self, tenant: u64, batch: &[UpdateOp]) -> Result<(), NetError> {
        self.roundtrip(frame::OP_UPDATE, tenant, encode_batch(batch))
            .map(|_| ())
    }

    /// Read-your-writes barrier on `tenant`'s shard: returns once every
    /// update acknowledged before this call is visible to reads after it.
    pub fn flush(&mut self, tenant: u64) -> Result<(), NetError> {
        self.roundtrip(frame::OP_FLUSH, tenant, Vec::new())
            .map(|_| ())
    }

    fn roundtrip(&mut self, opcode: u8, tenant: u64, payload: Vec<u8>) -> Result<Frame, NetError> {
        let request = Frame::request(opcode, tenant, payload);
        frame::write_frame(&mut self.stream, &request)?;
        let reply = frame::read_frame(&mut self.stream)?;
        if reply.opcode == frame::OP_ERROR {
            let (code, message) = match reply.payload.split_first() {
                Some((&code, rest)) => (code, String::from_utf8_lossy(rest).into_owned()),
                None => (0, "empty error payload".to_string()),
            };
            return Err(NetError::Remote { code, message });
        }
        if reply.opcode != opcode | frame::OP_REPLY {
            return Err(NetError::UnexpectedReply(format!(
                "opcode {:#04x} in reply to {opcode:#04x}",
                reply.opcode
            )));
        }
        Ok(reply)
    }
}

/// Decodes `[version][found][count][pairs]` read replies.
fn decode_read_reply(reply: &Frame) -> Result<AssignmentReply, NetError> {
    let mut r = ByteReader::new(&reply.payload, "read reply");
    let version = r.u64()?;
    let found = r.u8()? != 0;
    let count = r.count(16)?;
    let mut pairs = Vec::with_capacity(count);
    for _ in 0..count {
        pairs.push((r.u64()?, r.f64()?));
    }
    r.finish()?;
    Ok(AssignmentReply {
        version,
        found,
        pairs,
    })
}
