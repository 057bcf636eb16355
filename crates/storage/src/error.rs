//! The storage error type and the checksum that guards stored bytes.

use std::fmt;
use std::path::PathBuf;

/// Errors surfaced by the WAL machinery and by decoders of
/// stored or received bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An underlying I/O operation failed. The message carries the
    /// `std::io::Error` rendering plus the operation that failed.
    Io(String),
    /// Stored bytes failed validation (bad length, checksum or structure).
    Corrupt(String),
    /// A directory that must start empty already holds durable state (a log
    /// segment of an earlier run). Nothing in it was touched.
    InUse(PathBuf),
    /// A log record longer than the reader accepts was refused before a byte
    /// of it was written.
    RecordTooLarge {
        /// The refused payload's length in bytes.
        len: usize,
        /// The longest payload a log record may carry.
        max: usize,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(msg) => write!(f, "storage I/O error: {msg}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt stored data: {msg}"),
            StorageError::InUse(dir) => {
                write!(f, "{} already holds a log of an earlier run", dir.display())
            }
            StorageError::RecordTooLarge { len, max } => write!(
                f,
                "log record of {len} bytes refused: records carry at most {max}"
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

/// 64-bit FNV-1a hash, used as the integrity checksum for WAL records,
/// checkpoints and wire frames (no external crc crate; the offline build has
/// no such dependency).
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

/// Continues a 64-bit FNV-1a hash over `bytes`: hashing `a` and then
/// continuing over `b` equals [`fnv1a64`] of `a ++ b`, so a record's checksum
/// covers its header fields and its payload without copying them together.
pub(crate) fn fnv1a64_continue(mut hash: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // published FNV-1a test vectors
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hashing_in_two_parts_equals_hashing_the_concatenation() {
        for whole in [&b""[..], b"a", b"foobar", &7u64.to_le_bytes()] {
            for cut in 0..=whole.len() {
                let (head, tail) = whole.split_at(cut);
                assert_eq!(
                    fnv1a64_continue(fnv1a64(head), tail),
                    fnv1a64(whole),
                    "{whole:?} cut at {cut}"
                );
            }
        }
    }
}
