//! The wire format: length-prefixed, checksummed binary frames.
//!
//! Every message in either direction is one frame:
//!
//! ```text
//! [len: u32 LE][ver: u8][opcode: u8][tenant: u64 LE][payload][crc: u64 LE]
//! ```
//!
//! `len` counts every byte after itself (`ver` through `crc`), so a frame
//! with an empty payload has `len == 18`. `crc` is [`pref_storage::fnv1a64`]
//! over `ver` through the end of the payload — the same checksum the WAL
//! uses for its records, reused so a corrupted frame and a corrupted log
//! record are caught by one code path's worth of arithmetic.
//!
//! Decoding is defensive by construction: `len` is validated against
//! [`MIN_FRAME`] and [`MAX_FRAME`] **before** any allocation, so a lying
//! length field (a 3 GiB `len` on a 50-byte connection) costs a 4-byte read
//! and a typed error, never an allocation. A frame that fails these checks
//! or its checksum is a *transport*-level failure — the peer is not speaking
//! the protocol, and the connection cannot be resynchronized because frame
//! boundaries themselves are now suspect. Unknown versions and opcodes, by
//! contrast, arrive in perfectly framed messages and are *semantic*
//! failures: the server answers a typed error and keeps the connection.

use std::io::{ErrorKind, Read, Write};

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 1;

/// Smallest legal `len`: `ver + opcode + tenant + crc` with no payload.
pub const MIN_FRAME: u32 = 18;

/// Largest legal `len` (1 MiB): bounds the allocation a frame can demand.
pub const MAX_FRAME: u32 = 1 << 20;

// ---- opcodes --------------------------------------------------------------

/// Liveness probe; empty payload, empty `OP_PING | `[`OP_REPLY`] reply.
pub const OP_PING: u8 = 0x01;
/// Read the assigned objects of one function; payload is the function id
/// (u64 LE). Routed to the tenant's shard.
pub const OP_ASSIGNMENT_OF: u8 = 0x02;
/// Read the assigned functions of one object; payload is the object id
/// (u64 LE). Routed to the tenant's shard.
pub const OP_FUNCTIONS_OF: u8 = 0x03;
/// Read service-wide aggregated stats; empty payload.
pub const OP_STATS: u8 = 0x04;
/// Submit one update batch ([`pref_service::encode_batch`] payload) to the
/// tenant's shard. Admission-controlled: may be rejected with
/// [`ERR_RATE_LIMITED`] or [`ERR_OVERLOADED`] instead of queueing.
pub const OP_UPDATE: u8 = 0x05;
/// Flush the tenant's shard: the reply is the read-your-writes barrier —
/// every update acknowledged before it is visible to reads after it.
pub const OP_FLUSH: u8 = 0x06;

/// Ok replies echo the request opcode with the high bit set.
pub const OP_REPLY: u8 = 0x80;
/// Error reply: payload is `[code: u8][utf-8 message]`.
pub const OP_ERROR: u8 = 0xFF;

// ---- error reply codes ----------------------------------------------------

/// The frame itself was malformed (bad length, bad checksum): the server
/// answers this and then drops the connection — framing is unrecoverable.
pub const ERR_BAD_FRAME: u8 = 1;
/// The frame's `ver` is not [`PROTOCOL_VERSION`]. Connection survives.
pub const ERR_UNKNOWN_VERSION: u8 = 2;
/// The frame's opcode is not a request this server knows. Connection
/// survives.
pub const ERR_UNKNOWN_OPCODE: u8 = 3;
/// The payload did not decode as the opcode demands. Connection survives.
pub const ERR_BAD_PAYLOAD: u8 = 4;
/// The tenant's token bucket is empty: retry after a backoff.
pub const ERR_RATE_LIMITED: u8 = 5;
/// The shard's update queue is at capacity: the typed reject that replaces
/// blocking the connection handler in the queue's backpressure wait.
pub const ERR_OVERLOADED: u8 = 6;
/// Any other service-level failure (writer crashed, stopped, unknown
/// shard); the message carries the cause.
pub const ERR_SERVICE: u8 = 7;

/// One decoded frame. `ver` is carried through so the dispatch layer can
/// answer [`ERR_UNKNOWN_VERSION`] without the decoder having to guess
/// whether version mismatches are fatal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Protocol version byte as received (sent as [`PROTOCOL_VERSION`]).
    pub ver: u8,
    /// Operation, one of the `OP_*` constants.
    pub opcode: u8,
    /// The tenant issuing the request: the rate-limiting identity **and**
    /// the routing key (`shard_of_key(tenant)` picks the shard).
    pub tenant: u64,
    /// Opcode-specific payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A request frame at the current protocol version.
    pub fn request(opcode: u8, tenant: u64, payload: Vec<u8>) -> Self {
        Self {
            ver: PROTOCOL_VERSION,
            opcode,
            tenant,
            payload,
        }
    }
}

/// Why a frame could not be read. `Closed` (clean EOF between frames) is
/// the normal end of a connection, not a fault.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The transport failed mid-frame (reset, timeout, torn frame at EOF).
    Io(std::io::Error),
    /// `len` claims fewer bytes than the fixed fields occupy.
    TooSmall(u32),
    /// `len` exceeds [`MAX_FRAME`]; rejected before allocating.
    TooLarge(u32),
    /// The checksum over `ver..payload` did not match the trailer.
    BadChecksum {
        /// Checksum recomputed from the received bytes.
        computed: u64,
        /// Checksum the frame carried.
        stored: u64,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::TooSmall(len) => {
                write!(f, "frame length {len} below the {MIN_FRAME}-byte minimum")
            }
            FrameError::TooLarge(len) => {
                write!(f, "frame length {len} above the {MAX_FRAME}-byte cap")
            }
            FrameError::BadChecksum { computed, stored } => write!(
                f,
                "frame checksum mismatch: computed {computed:#018x}, stored {stored:#018x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// True for failures that poison the framing itself: after one of
    /// these the byte stream cannot be trusted to contain frame boundaries,
    /// so the server answers [`ERR_BAD_FRAME`] and drops the connection.
    pub(crate) fn poisons_connection(&self) -> bool {
        matches!(
            self,
            FrameError::TooSmall(_) | FrameError::TooLarge(_) | FrameError::BadChecksum { .. }
        )
    }
}

/// Appends the encoded frame to `out`.
pub fn encode(frame: &Frame, out: &mut Vec<u8>) {
    let len = MIN_FRAME + frame.payload.len() as u32;
    out.extend_from_slice(&len.to_le_bytes());
    let body_start = out.len();
    out.push(frame.ver);
    out.push(frame.opcode);
    out.extend_from_slice(&frame.tenant.to_le_bytes());
    out.extend_from_slice(&frame.payload);
    let crc = pref_storage::fnv1a64(&out[body_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Writes one frame to `w` (single `write_all`; no partial frames on the
/// wire unless the transport itself tears).
pub(crate) fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(4 + MIN_FRAME as usize + frame.payload.len());
    encode(frame, &mut buf);
    w.write_all(&buf)
}

/// Reads one frame from `r`, validating length bounds before allocating
/// and the checksum before returning. Does **not** validate `ver` or the
/// opcode — those are semantic concerns for the dispatch layer.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut len_bytes = [0u8; 4];
    read_exact_or_closed(r, &mut len_bytes, true)?;
    let len = u32::from_le_bytes(len_bytes);
    if len < MIN_FRAME {
        return Err(FrameError::TooSmall(len));
    }
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    // allocation is bounded by MAX_FRAME, checked above
    let mut body = vec![0u8; len as usize];
    read_exact_or_closed(r, &mut body, false)?;
    let crc_at = body.len() - 8;
    let mut crc_bytes = [0u8; 8];
    crc_bytes.copy_from_slice(&body[crc_at..]);
    let stored = u64::from_le_bytes(crc_bytes);
    let computed = pref_storage::fnv1a64(&body[..crc_at]);
    if computed != stored {
        return Err(FrameError::BadChecksum { computed, stored });
    }
    let mut tenant_bytes = [0u8; 8];
    tenant_bytes.copy_from_slice(&body[2..10]);
    Ok(Frame {
        ver: body[0],
        opcode: body[1],
        tenant: u64::from_le_bytes(tenant_bytes),
        payload: body[10..crc_at].to_vec(),
    })
}

/// `read_exact` that maps EOF to [`FrameError::Closed`] when it happens at
/// a frame boundary (`clean_eof`), and to [`FrameError::Io`] when it tears
/// a frame mid-read.
fn read_exact_or_closed(
    r: &mut impl Read,
    buf: &mut [u8],
    clean_eof: bool,
) -> Result<(), FrameError> {
    match r.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == ErrorKind::UnexpectedEof && clean_eof => Err(FrameError::Closed),
        Err(e) => Err(FrameError::Io(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) -> Frame {
        let mut buf = Vec::new();
        encode(frame, &mut buf);
        read_frame(&mut buf.as_slice()).expect("roundtrip decodes")
    }

    #[test]
    fn frames_roundtrip_bit_exactly() {
        for payload in [Vec::new(), vec![0u8], (0..255u8).collect::<Vec<_>>()] {
            let frame = Frame::request(OP_UPDATE, 0xdead_beef_cafe_f00d, payload);
            assert_eq!(roundtrip(&frame), frame);
        }
    }

    #[test]
    fn empty_payload_frame_is_exactly_min_frame_on_the_wire() {
        let mut buf = Vec::new();
        encode(&Frame::request(OP_PING, 7, Vec::new()), &mut buf);
        assert_eq!(buf.len(), 4 + MIN_FRAME as usize);
        assert_eq!(
            u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]),
            MIN_FRAME
        );
    }

    #[test]
    fn lying_small_and_huge_lengths_are_typed_errors_before_allocation() {
        for (len, want_small) in [
            (0u32, true),
            (17, true),
            (MAX_FRAME + 1, false),
            (u32::MAX, false),
        ] {
            let buf = len.to_le_bytes();
            match read_frame(&mut buf.as_slice()) {
                Err(FrameError::TooSmall(got)) => {
                    assert!(want_small, "len {len} misclassified as TooSmall");
                    assert_eq!(got, len);
                }
                Err(FrameError::TooLarge(got)) => {
                    assert!(!want_small, "len {len} misclassified as TooLarge");
                    assert_eq!(got, len);
                }
                other => panic!("len {len}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn a_flipped_bit_anywhere_in_the_body_fails_the_checksum() {
        let mut buf = Vec::new();
        encode(&Frame::request(OP_UPDATE, 42, vec![1, 2, 3]), &mut buf);
        // flip one bit in every body byte position (skip the len prefix and
        // the crc trailer itself: a flipped crc also fails, tested below)
        for at in 4..buf.len() - 8 {
            let mut corrupt = buf.clone();
            corrupt[at] ^= 0x40;
            assert!(
                matches!(
                    read_frame(&mut corrupt.as_slice()),
                    Err(FrameError::BadChecksum { .. })
                ),
                "flip at {at} went undetected"
            );
        }
        let crc_at = buf.len() - 1;
        buf[crc_at] ^= 0x01;
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::BadChecksum { .. })
        ));
    }

    #[test]
    fn truncation_mid_frame_is_io_and_clean_eof_is_closed() {
        let mut buf = Vec::new();
        encode(&Frame::request(OP_PING, 1, vec![9; 16]), &mut buf);
        // every strict prefix (past the len field) tears the frame
        for cut in 4..buf.len() {
            assert!(
                matches!(read_frame(&mut buf[..cut].as_ref()), Err(FrameError::Io(_))),
                "cut at {cut} not an Io error"
            );
        }
        // a cut inside the len prefix — and the empty stream — are Closed
        for cut in 0..4 {
            assert!(
                matches!(
                    read_frame(&mut buf[..cut].as_ref()),
                    Err(FrameError::Closed)
                ),
                "cut at {cut} not Closed"
            );
        }
    }

    #[test]
    fn only_framing_failures_poison_the_connection() {
        assert!(FrameError::TooSmall(3).poisons_connection());
        assert!(FrameError::TooLarge(MAX_FRAME + 1).poisons_connection());
        assert!(FrameError::BadChecksum {
            computed: 1,
            stored: 2
        }
        .poisons_connection());
        assert!(!FrameError::Closed.poisons_connection());
        assert!(
            !FrameError::Io(std::io::Error::new(ErrorKind::UnexpectedEof, "torn"))
                .poisons_connection()
        );
    }

    #[test]
    fn unknown_versions_and_opcodes_still_decode() {
        // semantic validation is the dispatcher's job: the decoder hands
        // these through so the server can answer a typed error in-band
        let mut odd = Frame::request(0x7e, 3, vec![5]);
        odd.ver = 9;
        assert_eq!(roundtrip(&odd), odd);
    }
}
