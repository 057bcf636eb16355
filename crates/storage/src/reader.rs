//! The one decoder front end for bytes that arrive from outside the program:
//! WAL records, checkpoints and wire frames' payloads.

use crate::StorageError;

/// Reads little-endian fields off a byte slice. Every read fails with
/// [`StorageError::Corrupt`] instead of panicking, and [`ByteReader::count`]
/// checks an untrusted item count against the bytes left, so a caller may
/// allocate for it.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// What the bytes are, for error messages ("durability payload", ...).
    what: &'static str,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `bytes`, which hold a `what`.
    pub fn new(bytes: &'a [u8], what: &'static str) -> Self {
        Self {
            bytes,
            pos: 0,
            what,
        }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        let out = self.bytes[self.pos..]
            .get(..n)
            .ok_or_else(|| StorageError::Corrupt(format!("{} truncated", self.what)))?;
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], StorageError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, StorageError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StorageError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StorageError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an `f64` stored as its little-endian bits (bit-exact).
    pub fn f64(&mut self) -> Result<f64, StorageError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Reads `n` consecutive [`ByteReader::f64`]s; fails before allocating
    /// when fewer than `8 · n` bytes are left.
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, StorageError> {
        let bytes = self.take(n.saturating_mul(8))?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| {
                let mut b = [0u8; 8];
                b.copy_from_slice(c);
                f64::from_le_bytes(b)
            })
            .collect())
    }

    /// Reads a `u32` item count, refusing one whose items, at
    /// `smallest_item` bytes or more each, could not fit in the bytes left.
    pub fn count(&mut self, smallest_item: usize) -> Result<usize, StorageError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(smallest_item) > self.remaining() {
            return Err(StorageError::Corrupt(format!(
                "{} claims {count} items in {} bytes",
                self.what,
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// Succeeds when every byte has been read.
    pub fn finish(self) -> Result<(), StorageError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(StorageError::Corrupt(format!(
                "trailing bytes after {}",
                self.what
            )))
        }
    }
}
