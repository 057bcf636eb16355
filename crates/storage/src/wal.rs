//! Write-ahead-log file primitives.
//!
//! The service tier gives every shard a directory of *generations*, one log
//! segment each. Record `S` of `wal-<S>.log` is a snapshot of the shard
//! taken when the next record would have had sequence number `S`, and the
//! records after it, `S+1, S+2, …`, are the batches logged since. To this
//! crate both are opaque payloads: the snapshot is the segment's first
//! record, framed and checksummed like every other.
//!
//! A log record is `[len: u32 LE][seq: u64 LE][crc: u64 LE][payload]` where
//! `crc = fnv1a64(seq_le ++ payload)`. The service encodes its `UpdateOp`
//! batches one record per batch, making the batch the atomicity unit end to
//! end. Readers accept the longest prefix of whole, checksum-valid,
//! consecutively-numbered records and ignore the rest, so a record torn by
//! a crash (or truncated by fault injection) is never half-applied.
//!
//! A live segment is its records followed by a zero-filled remainder: the
//! writer grows the file in 64 KiB chunks of zeros, ahead of the appends.
//! An append then overwrites blocks the file already has, and its
//! `fdatasync` skips the journal commit of a new file size that an append
//! at the end of the file pays. The reader takes a remainder of zero bytes
//! as the clean end of the segment, not as a torn tail. The writer trims
//! the remainder when a segment is closed (at rotation and at a clean
//! shutdown), so only the active segment of a running or crashed writer
//! carries one.
//!
//! [`write_checkpoint`] starts a generation: it creates the segment,
//! appends the snapshot, and fsyncs the file and then the directory, all
//! before a batch can follow. Rotation collects only the generations older
//! than the one it closed, so the previous generation is always on disk.
//! [`recover_dir`] resumes the newest segment that holds a whole record. A
//! newest segment without one is a rotation that crashed before its
//! snapshot was durable, so no batch after it was acknowledged, and the
//! previous generation is the state to resume.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the log segments are the durable layer's own std::fs use"
)]

use crate::error::{fnv1a64, fnv1a64_continue, StorageError};
use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Size of a log record header: length (u32) + sequence (u64) + crc (u64).
const RECORD_HEADER: usize = 4 + 8 + 8;

/// Largest record payload: the reader stops at a longer length field (a
/// guard against a corrupted one asking for gigabytes), so the writer
/// refuses to append one.
const MAX_RECORD_LEN: usize = 64 * 1024 * 1024;

/// The step a segment file grows by: an append that would pass the end of
/// the file also writes zeros up to the next multiple of this size.
const SEGMENT_CHUNK: u64 = 64 * 1024;

/// A record's checksum: FNV-1a over its sequence number, then its payload.
fn record_crc(seq: u64, payload: &[u8]) -> u64 {
    fnv1a64_continue(fnv1a64(&seq.to_le_bytes()), payload)
}

/// Refuses a payload the reader would not accept: recovery would drop it
/// and every record after it.
fn check_record_len(len: usize) -> Result<(), StorageError> {
    if len > MAX_RECORD_LEN {
        return Err(StorageError::RecordTooLarge {
            len,
            max: MAX_RECORD_LEN,
        });
    }
    Ok(())
}

fn io_err(op: &str, path: &Path, e: &std::io::Error) -> StorageError {
    StorageError::Io(format!("{op} {}: {e}", path.display()))
}

/// Returns the path of the log segment starting at sequence `seq`.
pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:020}.log"))
}

/// Creates `dir` (and parents) if missing.
pub fn ensure_dir(dir: &Path) -> Result<(), StorageError> {
    fs::create_dir_all(dir).map_err(|e| io_err("create directory", dir, &e))
}

/// Lists `(n, path)` of the entries of `dir` named `prefix<n>suffix` that
/// are directories when `dirs` is set and files otherwise, ascending by `n`.
fn list_numbered(
    dir: &Path,
    prefix: &str,
    suffix: &str,
    dirs: bool,
) -> Result<Vec<(u64, PathBuf)>, StorageError> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err("list directory", dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("list directory", dir, &e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(prefix) else {
            continue;
        };
        let Some(digits) = rest.strip_suffix(suffix) else {
            continue;
        };
        let Ok(n) = digits.parse::<u64>() else {
            continue;
        };
        if entry.path().is_dir() == dirs {
            out.push((n, entry.path()));
        }
    }
    out.sort_by_key(|&(n, _)| n);
    Ok(out)
}

/// Log segments in `dir`, ascending by start sequence.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StorageError> {
    list_numbered(dir, "wal-", ".log", false)
}

/// Numbered subdirectories `<prefix><n>` of `root`, ascending by `n`. Used by
/// the service to rediscover its shard directories on recovery.
pub fn list_numbered_dirs(root: &Path, prefix: &str) -> Result<Vec<(u64, PathBuf)>, StorageError> {
    list_numbered(root, prefix, "", true)
}

/// An append-only writer for one log segment.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    next_seq: u64,
    /// End of the last record: the file position between appends.
    written: u64,
    /// File length: `written` plus the zero-filled remainder.
    allocated: u64,
    scratch: Vec<u8>,
}

impl WalWriter {
    /// Creates (truncating) the segment for records starting at `start_seq`.
    /// The file starts empty; the first append grows it.
    pub fn create(dir: &Path, start_seq: u64) -> Result<Self, StorageError> {
        let path = segment_path(dir, start_seq);
        let file = File::options()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("create log segment", &path, &e))?;
        Ok(Self {
            file,
            path,
            next_seq: start_seq,
            written: 0,
            allocated: 0,
            scratch: Vec::new(),
        })
    }

    /// Opens an existing segment for appending after `records` whole records
    /// were recovered from it (the file is truncated to `valid_len` first, so
    /// neither a torn tail nor a zero-filled remainder precedes fresh
    /// appends; the next append grows the file again).
    pub fn open_after_recovery(
        dir: &Path,
        start_seq: u64,
        tail: &SegmentTail,
    ) -> Result<Self, StorageError> {
        let path = segment_path(dir, start_seq);
        let file = File::options()
            .write(true)
            .open(&path)
            .map_err(|e| io_err("open log segment", &path, &e))?;
        file.set_len(tail.valid_len)
            .map_err(|e| io_err("truncate torn tail of", &path, &e))?;
        let mut writer = Self {
            file,
            path,
            next_seq: start_seq + tail.records.len() as u64,
            written: tail.valid_len,
            allocated: tail.valid_len,
            scratch: Vec::new(),
        };
        writer
            .file
            .seek(SeekFrom::Start(tail.valid_len))
            .map_err(|e| io_err("seek log segment", &writer.path, &e))?;
        // make the truncation itself durable before anything is appended
        writer.sync()?;
        Ok(writer)
    }

    /// Sequence number the next appended record will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The segment file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and returns its sequence number. The record is in
    /// the OS page cache after this call; it is durable only after
    /// [`WalWriter::sync`].
    ///
    /// A record that would pass the end of the file is written together with
    /// zeros up to the next multiple of 64 KiB, in one write, and the file
    /// position then returns to the record's end. So one append per chunk
    /// grows the file, and the appends between overwrite zeros.
    ///
    /// A payload over the record limit fails with
    /// [`StorageError::RecordTooLarge`] and writes nothing.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StorageError> {
        check_record_len(payload.len())?;
        let seq = self.next_seq;
        self.scratch.clear();
        self.scratch
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.scratch.extend_from_slice(&seq.to_le_bytes());
        self.scratch
            .extend_from_slice(&record_crc(seq, payload).to_le_bytes());
        self.scratch.extend_from_slice(payload);
        let end = self.written + self.scratch.len() as u64;
        let allocated = if end > self.allocated {
            let grown = end.next_multiple_of(SEGMENT_CHUNK);
            self.scratch.resize((grown - self.written) as usize, 0);
            grown
        } else {
            self.allocated
        };
        let wrote = self.file.write_all(&self.scratch).and_then(|()| {
            if allocated > end {
                // zeros followed the record: the next append starts at its end
                self.file.seek(SeekFrom::Start(end)).map(drop)
            } else {
                Ok(())
            }
        });
        if let Err(e) = wrote {
            // a later append must start where this record would have
            let _ = self.file.seek(SeekFrom::Start(self.written));
            return Err(io_err("append to log segment", &self.path, &e));
        }
        self.written = end;
        self.allocated = allocated;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Makes all appended records durable (`fdatasync`). Between two growths
    /// of the file this writes only data blocks the file already has, so the
    /// file system commits no new file size.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.file
            .sync_data()
            .map_err(|e| io_err("sync log segment", &self.path, &e))
    }

    /// Cuts the zero-filled remainder off the file, leaving exactly its
    /// records; an append after this grows the file again. Durable after the
    /// next [`WalWriter::sync`]; the reader takes a remainder that survives a
    /// crash as the clean end anyway.
    pub fn trim(&mut self) -> Result<(), StorageError> {
        self.file
            .set_len(self.written)
            .map_err(|e| io_err("trim log segment", &self.path, &e))?;
        self.allocated = self.written;
        Ok(())
    }
}

/// The readable contents of one log segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentTail {
    /// Whole, checksum-valid, consecutively numbered records: `(seq, payload)`.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Byte length of the valid prefix: the end of the last whole record.
    pub valid_len: u64,
    /// `true` when bytes beyond `valid_len` hold anything but zeros (a torn
    /// or corrupt record was cut). A remainder of zero bytes is the writer's
    /// preallocated tail: the clean end of the segment, not a torn one.
    pub torn_tail: bool,
}

/// Reads a log segment, accepting the longest valid prefix of records. The
/// first record must carry `start_seq` and numbering must be consecutive;
/// anything after the first violation (short read, bad checksum, wrong
/// sequence) is reported as a torn tail, never surfaced as data. The reader
/// stops at a header whose length and checksum are both zero, and a
/// remainder of zero bytes is the clean end (see [`SegmentTail::torn_tail`]).
pub fn read_segment(dir: &Path, start_seq: u64) -> Result<SegmentTail, StorageError> {
    let path = segment_path(dir, start_seq);
    let mut file = File::open(&path).map_err(|e| io_err("open log segment", &path, &e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| io_err("read log segment", &path, &e))?;
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut expect_seq = start_seq;
    while let Some(header) = bytes.get(offset..offset + RECORD_HEADER) {
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        if len > MAX_RECORD_LEN {
            break;
        }
        let seq = u64::from_le_bytes([
            header[4], header[5], header[6], header[7], header[8], header[9], header[10],
            header[11],
        ]);
        let want_crc = u64::from_le_bytes([
            header[12], header[13], header[14], header[15], header[16], header[17], header[18],
            header[19],
        ]);
        if (len == 0 && want_crc == 0) || seq != expect_seq {
            // an all-zero header is the preallocated remainder, never a record
            break;
        }
        let body_start = offset + RECORD_HEADER;
        let Some(payload) = bytes.get(body_start..body_start + len) else {
            break;
        };
        if record_crc(seq, payload) != want_crc {
            break;
        }
        records.push((seq, payload.to_vec()));
        offset = body_start + len;
        expect_seq += 1;
    }
    Ok(SegmentTail {
        records,
        valid_len: offset as u64,
        torn_tail: bytes[offset..].iter().any(|&b| b != 0),
    })
}

/// Starts the generation at sequence `seq`: creates `wal-<seq>.log`,
/// appends `snapshot` as its first record, and fsyncs the file and then the
/// directory. Returns the segment's writer, positioned for record `seq + 1`.
///
/// A snapshot over the record limit fails with
/// [`StorageError::RecordTooLarge`] before any file is created.
pub fn write_checkpoint(dir: &Path, seq: u64, snapshot: &[u8]) -> Result<WalWriter, StorageError> {
    check_record_len(snapshot.len())?;
    let mut writer = WalWriter::create(dir, seq)?;
    writer.append(snapshot)?;
    writer.sync()?;
    // make the new segment's directory entry durable
    File::open(dir)
        .and_then(|handle| handle.sync_all())
        .map_err(|e| io_err("sync directory", dir, &e))?;
    Ok(writer)
}

/// Removes the segments `doomed` names by start sequence. Removal failures
/// are ignored: garbage collection must never take down a healthy writer,
/// and a leftover segment is collected again by a later call.
fn remove_segments(dir: &Path, doomed: impl Fn(u64) -> bool) {
    for (seq, path) in list_segments(dir).unwrap_or_default() {
        if doomed(seq) {
            let _ = fs::remove_file(path);
        }
    }
}

/// Removes the generations older than `keep_from_seq`. Rotation passes the
/// generation it just closed, which stays behind the new one as the
/// fallback for a snapshot that does not read back.
pub fn remove_generations_before(dir: &Path, keep_from_seq: u64) {
    remove_segments(dir, |seq| seq < keep_from_seq);
}

/// Removes the segments newer than `active_start_seq`: ones a completed
/// recovery bypassed because they held no whole record. A recovery that
/// resumes appending re-declares the durable truth, and a bypassed segment
/// would otherwise win a later recovery once the resumed one grows past it.
pub fn remove_unreachable_generations(dir: &Path, active_start_seq: u64) {
    remove_segments(dir, |seq| seq > active_start_seq);
}

/// A shard's recovered generation: one segment and its readable records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredState {
    /// Start sequence of the segment, which is its snapshot's sequence.
    pub active_start_seq: u64,
    /// The segment's contents, for replay and for reopening: `records[0]`
    /// is the snapshot, and the records after it are the batches logged
    /// since.
    pub active_tail: SegmentTail,
}

/// Recovers a shard directory: the newest segment that holds at least one
/// whole record is the generation to resume. Newer segments without one
/// are skipped; see the module docs. Fails with
/// [`StorageError::Corrupt`] when no segment holds a record.
pub fn recover_dir(dir: &Path) -> Result<RecoveredState, StorageError> {
    for (start_seq, _) in list_segments(dir)?.into_iter().rev() {
        let tail = read_segment(dir, start_seq)?;
        if !tail.records.is_empty() {
            return Ok(RecoveredState {
                active_start_seq: start_seq,
                active_tail: tail,
            });
        }
    }
    Err(StorageError::Corrupt(format!(
        "no log segment in {} holds a snapshot",
        dir.display()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pref_storage_wal_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        ensure_dir(&p).unwrap();
        p
    }

    #[test]
    fn wal_roundtrip_and_sequencing() {
        let dir = temp_dir("roundtrip");
        let mut w = WalWriter::create(&dir, 5).unwrap();
        assert_eq!(w.append(b"one").unwrap(), 5);
        assert_eq!(w.append(b"two").unwrap(), 6);
        assert_eq!(w.append(b"").unwrap(), 7);
        w.sync().unwrap();
        let tail = read_segment(&dir, 5).unwrap();
        assert!(!tail.torn_tail);
        assert_eq!(
            tail.records,
            vec![(5, b"one".to_vec()), (6, b"two".to_vec()), (7, Vec::new())]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_at_every_offset_yields_a_record_prefix() {
        let dir = temp_dir("truncate");
        let mut w = WalWriter::create(&dir, 0).unwrap();
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; (i as usize + 1) * 3]).collect();
        let mut boundaries = vec![0u64];
        for p in &payloads {
            w.append(p).unwrap();
            boundaries.push((RECORD_HEADER + p.len()) as u64 + boundaries.last().unwrap());
        }
        w.sync().unwrap();
        let mut full = fs::read(segment_path(&dir, 0)).unwrap();
        // the open writer's zero-filled remainder is cut in its own test
        full.truncate(*boundaries.last().unwrap() as usize);
        for cut in 0..=full.len() {
            fs::write(segment_path(&dir, 0), &full[..cut]).unwrap();
            let tail = read_segment(&dir, 0).unwrap();
            // the number of whole records is the number of boundaries <= cut
            let want = boundaries[1..].iter().filter(|&&b| b <= cut as u64).count();
            assert_eq!(tail.records.len(), want, "cut at {cut}");
            assert_eq!(tail.valid_len, boundaries[want], "cut at {cut}");
            assert_eq!(tail.torn_tail, (cut as u64) > boundaries[want]);
            for (i, (seq, payload)) in tail.records.iter().enumerate() {
                assert_eq!(*seq, i as u64);
                assert_eq!(payload, &payloads[i]);
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// Appends `count` records of `len` bytes each to a new segment at
    /// `start_seq`; returns the open writer and the end of the records.
    fn segment_of(dir: &Path, start_seq: u64, count: u64, len: usize) -> (WalWriter, u64) {
        let mut w = WalWriter::create(dir, start_seq).unwrap();
        for i in 0..count {
            w.append(&vec![i as u8 | 1; len]).unwrap();
        }
        w.sync().unwrap();
        (w, count * (RECORD_HEADER + len) as u64)
    }

    #[test]
    fn an_open_segment_past_two_chunks_reads_back_every_record() {
        let dir = temp_dir("chunks");
        let (w, records_end) = segment_of(&dir, 0, 150, 1000);
        assert!(records_end > 2 * SEGMENT_CHUNK);
        let file_len = fs::metadata(w.path()).unwrap().len();
        assert_eq!(
            file_len % SEGMENT_CHUNK,
            0,
            "the file grows in whole chunks"
        );
        assert!(file_len > records_end, "the open segment is preallocated");
        let tail = read_segment(&dir, 0).unwrap();
        assert_eq!(tail.records.len(), 150);
        for (i, (seq, payload)) in tail.records.iter().enumerate() {
            assert_eq!((*seq, payload), (i as u64, &vec![i as u8 | 1; 1000]));
        }
        assert_eq!(tail.valid_len, records_end);
        assert!(!tail.torn_tail, "a zero remainder is the clean end");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_zero_remainder_is_the_clean_end_and_a_nonzero_byte_in_it_is_torn() {
        let dir = temp_dir("zero_tail");
        let (w, records_end) = segment_of(&dir, 0, 4, 10);
        let path = w.path().to_path_buf();
        drop(w);
        let mut records = fs::read(&path).unwrap();
        records.truncate(records_end as usize);
        for extra in [1, 7, SEGMENT_CHUNK as usize - 1] {
            let mut bytes = records.clone();
            bytes.resize(records.len() + extra, 0);
            fs::write(&path, &bytes).unwrap();
            let tail = read_segment(&dir, 0).unwrap();
            assert_eq!(tail.records.len(), 4, "{extra} zeros");
            assert_eq!(tail.valid_len, records_end, "{extra} zeros");
            assert!(!tail.torn_tail, "{extra} zeros are the clean end");
            let step = if extra > 64 { 4093 } else { 1 };
            for at in (0..extra).step_by(step).chain([extra - 1]) {
                let mut bad = bytes.clone();
                bad[records.len() + at] = 0x01;
                fs::write(&path, &bad).unwrap();
                let tail = read_segment(&dir, 0).unwrap();
                assert_eq!(tail.records.len(), 4, "byte {at} of {extra} set");
                assert_eq!(tail.valid_len, records_end, "byte {at} of {extra} set");
                assert!(tail.torn_tail, "byte {at} of {extra} set is torn");
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_dir_replays_past_an_untrimmed_zero_tail() {
        let dir = temp_dir("untrimmed");
        let mut w = write_checkpoint(&dir, 0, b"gen0").unwrap();
        for i in 1..4u8 {
            w.append(&[i; 5]).unwrap();
        }
        w.sync().unwrap();
        let records_end = (4 * RECORD_HEADER + 4 + 3 * 5) as u64;
        assert!(fs::metadata(w.path()).unwrap().len() > records_end);
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.active_start_seq, 0);
        assert_eq!(
            rec.active_tail
                .records
                .iter()
                .map(|r| r.0)
                .collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "the snapshot and every batch before the zero tail replay"
        );
        assert_eq!(rec.active_tail.valid_len, records_end);
        assert!(!rec.active_tail.torn_tail);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_record_stops_the_replay() {
        let dir = temp_dir("corrupt");
        let mut w = WalWriter::create(&dir, 0).unwrap();
        for i in 0..4u8 {
            w.append(&[i; 10]).unwrap();
        }
        w.sync().unwrap();
        let path = segment_path(&dir, 0);
        let full = fs::read(&path).unwrap();
        // flip one byte inside record 2's payload
        let record_size = RECORD_HEADER + 10;
        let mut bad = full.clone();
        bad[2 * record_size + RECORD_HEADER + 3] ^= 0xFF;
        fs::write(&path, &bad).unwrap();
        let tail = read_segment(&dir, 0).unwrap();
        assert_eq!(
            tail.records.len(),
            2,
            "records after the corruption are dropped"
        );
        assert!(tail.torn_tail);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_after_recovery_truncates_the_torn_tail() {
        let dir = temp_dir("reopen");
        let mut w = WalWriter::create(&dir, 0).unwrap();
        w.append(b"aaaa").unwrap();
        w.append(b"bbbb").unwrap();
        w.sync().unwrap();
        // simulate a torn append: half a record of garbage at the end
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0x11; 7]);
        fs::write(&path, &bytes).unwrap();
        let tail = read_segment(&dir, 0).unwrap();
        assert!(tail.torn_tail);
        let mut w = WalWriter::open_after_recovery(&dir, 0, &tail).unwrap();
        assert_eq!(w.next_seq(), 2);
        w.append(b"cccc").unwrap();
        w.sync().unwrap();
        let tail = read_segment(&dir, 0).unwrap();
        assert!(!tail.torn_tail);
        assert_eq!(
            tail.records,
            vec![
                (0, b"aaaa".to_vec()),
                (1, b"bbbb".to_vec()),
                (2, b"cccc".to_vec())
            ]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_oversized_record_is_refused_before_a_byte_is_written() {
        let dir = temp_dir("oversized");
        let mut w = WalWriter::create(&dir, 3).unwrap();
        w.append(b"head").unwrap();
        let path = segment_path(&dir, 3);
        let len_before = fs::metadata(&path).unwrap().len();
        let err = w.append(&vec![0; MAX_RECORD_LEN + 1]).unwrap_err();
        assert_eq!(
            err,
            StorageError::RecordTooLarge {
                len: MAX_RECORD_LEN + 1,
                max: MAX_RECORD_LEN
            }
        );
        assert_eq!(fs::metadata(&path).unwrap().len(), len_before);
        assert_eq!(w.next_seq(), 4);
        assert_eq!(w.append(b"tail").unwrap(), 4);
        w.sync().unwrap();
        let tail = read_segment(&dir, 3).unwrap();
        assert!(!tail.torn_tail);
        assert_eq!(
            tail.records,
            vec![(3, b"head".to_vec()), (4, b"tail".to_vec())]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_roundtrip_and_validation() {
        let dir = temp_dir("ckpt");
        let mut w = write_checkpoint(&dir, 42, b"snapshot-bytes").unwrap();
        assert_eq!(w.next_seq(), 43);
        assert_eq!(
            fs::metadata(w.path()).unwrap().len(),
            SEGMENT_CHUNK,
            "the snapshot's append grows the first chunk"
        );
        assert_eq!(w.append(b"batch").unwrap(), 43);
        w.sync().unwrap();
        assert_eq!(
            read_segment(&dir, 42).unwrap().records,
            vec![(42, b"snapshot-bytes".to_vec()), (43, b"batch".to_vec())]
        );
        // corrupt the snapshot: the segment then holds no record, never a
        // damaged snapshot or a batch without its snapshot
        let path = segment_path(&dir, 42);
        let mut bytes = fs::read(&path).unwrap();
        bytes[RECORD_HEADER + 3] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let tail = read_segment(&dir, 42).unwrap();
        assert!(tail.records.is_empty() && tail.torn_tail);
        assert!(matches!(recover_dir(&dir), Err(StorageError::Corrupt(_))));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_oversized_checkpoint_is_refused_before_a_file_is_created() {
        let dir = temp_dir("oversized_ckpt");
        let err = write_checkpoint(&dir, 7, &vec![0; MAX_RECORD_LEN + 1]).unwrap_err();
        assert_eq!(
            err,
            StorageError::RecordTooLarge {
                len: MAX_RECORD_LEN + 1,
                max: MAX_RECORD_LEN
            }
        );
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    /// Seqs of the segments in `dir`.
    fn segment_seqs(dir: &Path) -> Vec<u64> {
        list_segments(dir)
            .unwrap()
            .into_iter()
            .map(|(s, _)| s)
            .collect()
    }

    #[test]
    fn recover_dir_takes_the_newest_segment_holding_a_record() {
        let dir = temp_dir("recover");
        // generation 0: snapshot at 0, batches 1 and 2, closed by rotation
        let mut w = write_checkpoint(&dir, 0, b"gen0").unwrap();
        w.append(&[1]).unwrap();
        w.append(&[2]).unwrap();
        w.trim().unwrap();
        w.sync().unwrap();
        // generation 3: snapshot at 3, batch 4
        let mut w = write_checkpoint(&dir, 3, b"gen1").unwrap();
        w.append(&[4]).unwrap();
        w.sync().unwrap();
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.active_start_seq, 3);
        assert_eq!(
            rec.active_tail.records,
            vec![(3, b"gen1".to_vec()), (4, vec![4])]
        );
        // a rotation that crashed before its snapshot was whole leaves a
        // newer segment without a record: recovery resumes the one before
        for torn in [&[][..], &[0x11; 7][..]] {
            fs::write(segment_path(&dir, 5), torn).unwrap();
            assert_eq!(recover_dir(&dir).unwrap().active_start_seq, 3);
        }
        // a damaged snapshot takes its generation's batches with it
        let path = segment_path(&dir, 3);
        let mut bytes = fs::read(&path).unwrap();
        bytes[RECORD_HEADER] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.active_start_seq, 0);
        assert_eq!(rec.active_tail.records.len(), 3);
        assert_eq!(rec.active_tail.records[0], (0, b"gen0".to_vec()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_keeps_the_previous_generation() {
        let dir = temp_dir("gc");
        for seq in [0, 4, 9] {
            write_checkpoint(&dir, seq, b"g").unwrap();
        }
        // keep from the previous generation (4): generation 0 goes away
        remove_generations_before(&dir, 4);
        assert_eq!(segment_seqs(&dir), vec![4, 9]);
        // a recovery that resumed generation 4 removes what is newer
        remove_unreachable_generations(&dir, 4);
        assert_eq!(segment_seqs(&dir), vec![4]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_dir_without_checkpoint_is_an_error() {
        let dir = temp_dir("empty");
        assert!(matches!(recover_dir(&dir), Err(StorageError::Corrupt(_))));
        let _empty = WalWriter::create(&dir, 0).unwrap();
        assert!(matches!(recover_dir(&dir), Err(StorageError::Corrupt(_))));
        fs::remove_dir_all(&dir).ok();
    }
}
