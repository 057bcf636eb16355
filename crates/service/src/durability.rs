//! Per-shard durability: a write-ahead log of update batches plus periodic
//! checkpoints, built on the file primitives of [`pref_storage::wal`].
//!
//! The crash-consistency model mirrors the serving layer's atomicity unit —
//! the batch. The writer appends one WAL record per submitted batch, makes it
//! durable per the [`FsyncPolicy`], and only then applies and publishes it;
//! an acknowledged (flushed) batch is therefore always recoverable. Recovery
//! loads the newest valid checkpoint and replays the log tail through a fresh
//! engine; because the engine re-solves deterministically from any coherent
//! population, the recovered shard publishes the same canonical matching the
//! pre-crash shard had at that batch boundary.
//!
//! All file access goes through [`pref_storage::wal`] — this module encodes
//! and decodes payloads but never opens a file itself, keeping raw
//! `std::fs` usage confined to the storage crate (enforced by the repo's
//! `no-raw-fs` lint).

use crate::UpdateOp;
use pref_assign::{FunctionId, ObjectRecord, PreferenceFunction};
use pref_geom::{LinearFunction, Point};
use pref_rtree::RecordId;
use pref_storage::wal::{self, SegmentTail, WalWriter};
use pref_storage::StorageError;
use std::path::{Path, PathBuf};

/// When the WAL is fsynced relative to batch acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync before every publication (default): an acknowledged batch is
    /// always durable. Strongest guarantee, one `fdatasync` per publication.
    Always,
    /// Fsync once every `n` logged batches (group commit): a crash can lose
    /// up to `n - 1` acknowledged batches, never a torn one.
    EveryN(u32),
    /// Never fsync from the writer (the OS flushes lazily): cheapest, loses
    /// recently acknowledged batches on a power failure, still never a torn
    /// batch thanks to the record checksums.
    Never,
}

/// Durability configuration of a [`crate::ShardedService`].
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root directory of the service's durable state; shard `i` owns the
    /// subdirectory `shard-<i>`.
    pub dir: PathBuf,
    /// When the WAL is fsynced relative to acknowledgement.
    pub fsync: FsyncPolicy,
    /// Checkpoint (and rotate the log) every this many logged batches.
    pub checkpoint_every: u64,
}

impl DurabilityConfig {
    /// Durability under `dir` with the safe defaults: fsync on every
    /// publication, checkpoint every 256 logged batches.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            checkpoint_every: 256,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), crate::ServiceError> {
        if self.checkpoint_every == 0 {
            return Err(crate::ServiceError::InvalidConfig(
                "checkpoint_every must be at least 1".into(),
            ));
        }
        if let FsyncPolicy::EveryN(0) = self.fsync {
            return Err(crate::ServiceError::InvalidConfig(
                "FsyncPolicy::EveryN needs n >= 1".into(),
            ));
        }
        Ok(())
    }

    /// The directory one shard's generations live in.
    pub(crate) fn shard_dir(&self, shard_index: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard_index}"))
    }
}

// --- payload codecs -------------------------------------------------------
//
// Hand-rolled little-endian binary layouts (no serde: WAL payloads are
// checksummed byte streams, and bit-exact f64 round-trips are mandatory —
// a recovered weight that differs in the last ulp could flip a matching).

const TAG_INSERT_OBJECT: u8 = 0;
const TAG_REMOVE_OBJECT: u8 = 1;
const TAG_INSERT_FUNCTION: u8 = 2;
const TAG_REMOVE_FUNCTION: u8 = 3;

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        let out = self
            .bytes
            .get(self.pos..self.pos + n)
            .ok_or_else(|| StorageError::Corrupt("durability payload truncated".into()))?;
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, StorageError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, StorageError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, StorageError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, StorageError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, StorageError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    fn done(&self) -> Result<(), StorageError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(StorageError::Corrupt(
                "trailing bytes after durability payload".into(),
            ))
        }
    }
}

fn encode_object(o: &ObjectRecord, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&o.id.raw().to_le_bytes());
    buf.extend_from_slice(&o.capacity.to_le_bytes());
    buf.extend_from_slice(&(o.point.dims() as u16).to_le_bytes());
    for &c in o.point.coords() {
        buf.extend_from_slice(&c.to_bits().to_le_bytes());
    }
}

fn decode_object(r: &mut Cursor<'_>) -> Result<ObjectRecord, StorageError> {
    let id = r.u64()?;
    let capacity = r.u32()?;
    if capacity == 0 {
        return Err(StorageError::Corrupt(format!(
            "object {id} carries capacity 0"
        )));
    }
    let dims = r.u16()? as usize;
    let coords = r.f64s(dims)?;
    Ok(ObjectRecord {
        id: RecordId(id),
        point: Point::from_slice(&coords),
        capacity,
    })
}

fn encode_function(f: &PreferenceFunction, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(f.id.0 as u64).to_le_bytes());
    buf.extend_from_slice(&f.capacity.to_le_bytes());
    buf.extend_from_slice(&f.function.priority().to_bits().to_le_bytes());
    buf.extend_from_slice(&(f.function.dims() as u16).to_le_bytes());
    for &w in f.function.weights() {
        buf.extend_from_slice(&w.to_bits().to_le_bytes());
    }
}

fn decode_function(r: &mut Cursor<'_>) -> Result<PreferenceFunction, StorageError> {
    let id = r.u64()?;
    let capacity = r.u32()?;
    if capacity == 0 {
        return Err(StorageError::Corrupt(format!(
            "function {id} carries capacity 0"
        )));
    }
    let priority = r.f64()?;
    let dims = r.u16()? as usize;
    let weights = r.f64s(dims)?;
    let function = LinearFunction::from_normalized(weights)
        .and_then(|f| f.prioritized(priority))
        .map_err(|e| StorageError::Corrupt(format!("invalid logged function: {e}")))?;
    Ok(PreferenceFunction {
        id: FunctionId(id as usize),
        function,
        capacity,
    })
}

/// Encodes one update batch as a checksummed binary payload — the layout
/// shared by WAL records and the wire protocol's `Update` frames (tagged
/// little-endian ops, bit-exact f64 round-trips).
pub fn encode_batch(batch: &[UpdateOp]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + batch.len() * 16);
    buf.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    for op in batch {
        match op {
            UpdateOp::InsertObject(o) => {
                buf.push(TAG_INSERT_OBJECT);
                encode_object(o, &mut buf);
            }
            UpdateOp::RemoveObject(id) => {
                buf.push(TAG_REMOVE_OBJECT);
                buf.extend_from_slice(&id.raw().to_le_bytes());
            }
            UpdateOp::InsertFunction(f) => {
                buf.push(TAG_INSERT_FUNCTION);
                encode_function(f, &mut buf);
            }
            UpdateOp::RemoveFunction(id) => {
                buf.push(TAG_REMOVE_FUNCTION);
                buf.extend_from_slice(&(id.0 as u64).to_le_bytes());
            }
        }
    }
    buf
}

/// Decodes an [`encode_batch`] payload back into an update batch. Strict:
/// truncation, unknown op tags, trailing bytes and capacity-0 arrivals are
/// all errors.
pub fn decode_batch(bytes: &[u8]) -> Result<Vec<UpdateOp>, StorageError> {
    let mut r = Cursor::new(bytes);
    let count = r.u32()? as usize;
    // the count is untrusted input (WAL corruption, hostile wire frames):
    // cap the preallocation by what the bytes could possibly hold (the
    // smallest op is a 9-byte remove) and let the strict reads below
    // surface the truncation as an error instead of an allocation
    let smallest_op = 9;
    let mut out = Vec::with_capacity(count.min(bytes.len() / smallest_op + 1));
    for _ in 0..count {
        let op = match r.u8()? {
            TAG_INSERT_OBJECT => UpdateOp::InsertObject(decode_object(&mut r)?),
            TAG_REMOVE_OBJECT => UpdateOp::RemoveObject(RecordId(r.u64()?)),
            TAG_INSERT_FUNCTION => UpdateOp::InsertFunction(decode_function(&mut r)?),
            TAG_REMOVE_FUNCTION => UpdateOp::RemoveFunction(FunctionId(r.u64()? as usize)),
            tag => {
                return Err(StorageError::Corrupt(format!(
                    "unknown update-op tag {tag} in logged batch"
                )))
            }
        };
        out.push(op);
    }
    r.done()?;
    Ok(out)
}

/// Encodes a checkpoint payload: the live populations, from which the engine
/// re-solves the identical canonical matching on restore. The pairs are
/// deliberately not stored — restart equivalence is a tested engine property.
pub(crate) fn encode_checkpoint(
    functions: &[PreferenceFunction],
    objects: &[ObjectRecord],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + functions.len() * 32 + objects.len() * 32);
    buf.extend_from_slice(&(functions.len() as u32).to_le_bytes());
    for f in functions {
        encode_function(f, &mut buf);
    }
    buf.extend_from_slice(&(objects.len() as u32).to_le_bytes());
    for o in objects {
        encode_object(o, &mut buf);
    }
    buf
}

/// Decodes a checkpoint payload back into its populations.
pub(crate) fn decode_checkpoint(
    bytes: &[u8],
) -> Result<(Vec<PreferenceFunction>, Vec<ObjectRecord>), StorageError> {
    let mut r = Cursor::new(bytes);
    let nfun = r.u32()? as usize;
    let mut functions = Vec::with_capacity(nfun);
    for _ in 0..nfun {
        functions.push(decode_function(&mut r)?);
    }
    let nobj = r.u32()? as usize;
    let mut objects = Vec::with_capacity(nobj);
    for _ in 0..nobj {
        objects.push(decode_object(&mut r)?);
    }
    r.done()?;
    Ok((functions, objects))
}

// --- the per-shard durability state ---------------------------------------

/// One shard's durable state: the active WAL segment plus the checkpoint
/// rotation bookkeeping. Owned by the shard's writer thread.
#[derive(Debug)]
pub struct ShardDurability {
    dir: PathBuf,
    writer: WalWriter,
    fsync: FsyncPolicy,
    checkpoint_every: u64,
    /// Sequence the newest checkpoint was taken at (= its segment's start).
    last_checkpoint_seq: u64,
    /// Batches appended since the last fsync (drives [`FsyncPolicy::EveryN`]).
    unsynced: u32,
}

impl ShardDurability {
    /// Initializes a fresh shard directory: the `wal-0` segment first, then
    /// `checkpoint-0` holding the initial populations (the same crash-safe
    /// segment-before-checkpoint order rotation uses, so recovery always
    /// finds a checkpoint's segment).
    pub fn create(
        dir: &Path,
        fsync: FsyncPolicy,
        checkpoint_every: u64,
        functions: &[PreferenceFunction],
        objects: &[ObjectRecord],
    ) -> Result<Self, StorageError> {
        wal::ensure_dir(dir)?;
        let writer = WalWriter::create(dir, 0)?;
        wal::write_checkpoint(dir, 0, &encode_checkpoint(functions, objects))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            writer,
            fsync,
            checkpoint_every,
            last_checkpoint_seq: 0,
            unsynced: 0,
        })
    }

    /// Recovers a shard directory: returns the checkpoint populations, the
    /// replayable batches logged after it, and a `ShardDurability` positioned
    /// to append right after the last whole record (any torn tail truncated,
    /// unreachable newer generations collected).
    pub fn recover(
        dir: &Path,
        fsync: FsyncPolicy,
        checkpoint_every: u64,
    ) -> Result<RecoveredShard, StorageError> {
        let state = wal::recover_dir(dir)?;
        let (functions, objects) = decode_checkpoint(&state.checkpoint)?;
        let mut batches = Vec::with_capacity(state.records.len());
        for (_seq, payload) in &state.records {
            batches.push(decode_batch(payload)?);
        }
        let writer = Self::reopen_active(dir, &state)?;
        // recovery re-declares the durable truth: newer files it deliberately
        // bypassed (corrupt checkpoints, segments beyond a torn tail) must
        // not stop a later replay at a stale boundary
        wal::remove_unreachable_generations(dir, state.checkpoint_seq, state.active_start_seq);
        Ok(RecoveredShard {
            functions,
            objects,
            batches,
            durability: Self {
                dir: dir.to_path_buf(),
                writer,
                fsync,
                checkpoint_every,
                last_checkpoint_seq: state.checkpoint_seq,
                unsynced: 0,
            },
        })
    }

    fn reopen_active(dir: &Path, state: &wal::RecoveredState) -> Result<WalWriter, StorageError> {
        let tail: &SegmentTail = &state.active_tail;
        WalWriter::open_after_recovery(dir, state.active_start_seq, tail)
    }

    /// Appends one batch to the WAL (durable per policy only after
    /// [`ShardDurability::sync_for_ack`]). Returns the record's sequence.
    ///
    /// Capacity-0 arrivals — which [`decode_batch`] refuses — are left out of
    /// the record: the engine rejects them whatever its state, so replay is
    /// unchanged, and a record this program wrote must never fail to decode.
    pub fn log_batch(&mut self, batch: &[UpdateOp]) -> Result<u64, StorageError> {
        let zero_capacity = |op: &UpdateOp| match op {
            UpdateOp::InsertObject(o) => o.capacity == 0,
            UpdateOp::InsertFunction(f) => f.capacity == 0,
            UpdateOp::RemoveObject(_) | UpdateOp::RemoveFunction(_) => false,
        };
        let payload = if batch.iter().any(zero_capacity) {
            let loggable: Vec<UpdateOp> = batch
                .iter()
                .filter(|op| !zero_capacity(op))
                .cloned()
                .collect();
            encode_batch(&loggable)
        } else {
            encode_batch(batch)
        };
        let seq = self.writer.append(&payload)?;
        self.unsynced += 1;
        Ok(seq)
    }

    /// Makes logged batches durable per the configured [`FsyncPolicy`].
    /// Called by the writer after logging a publication's batches and before
    /// applying them, so an acknowledged batch is recoverable.
    pub fn sync_for_ack(&mut self) -> Result<(), StorageError> {
        let due = match self.fsync {
            FsyncPolicy::Always => self.unsynced > 0,
            FsyncPolicy::EveryN(n) => self.unsynced >= n,
            FsyncPolicy::Never => false,
        };
        if due {
            self.writer.sync()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Rotates to a new generation when enough batches accumulated since the
    /// last checkpoint: fsync the log, create the next segment, write the
    /// checkpoint, collect generations older than the previous one. Skipped
    /// while a population is empty (an engine cannot restore from an empty
    /// problem; the log keeps the full history until the populations refill).
    /// Returns the new checkpoint's sequence when one was written.
    pub fn maybe_checkpoint(
        &mut self,
        functions: &[PreferenceFunction],
        objects: &[ObjectRecord],
    ) -> Result<Option<u64>, StorageError> {
        let next_seq = self.writer.next_seq();
        if next_seq - self.last_checkpoint_seq < self.checkpoint_every {
            return Ok(None);
        }
        if functions.is_empty() || objects.is_empty() {
            return Ok(None);
        }
        // every record the new checkpoint subsumes must be durable before
        // the old generation becomes collectible
        self.writer.sync()?;
        self.unsynced = 0;
        let previous = self.last_checkpoint_seq;
        self.writer = WalWriter::create(&self.dir, next_seq)?;
        wal::write_checkpoint(&self.dir, next_seq, &encode_checkpoint(functions, objects))?;
        wal::remove_generations_before(&self.dir, previous);
        self.last_checkpoint_seq = next_seq;
        Ok(Some(next_seq))
    }

    /// Sequence number of the newest checkpoint.
    pub fn last_checkpoint_seq(&self) -> u64 {
        self.last_checkpoint_seq
    }

    /// Sequence number the next logged batch will get.
    pub fn next_seq(&self) -> u64 {
        self.writer.next_seq()
    }

    /// The shard's durability directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// What [`ShardDurability::recover`] reconstructs from a shard directory.
#[derive(Debug)]
pub struct RecoveredShard {
    /// Functions of the recovered checkpoint.
    pub functions: Vec<PreferenceFunction>,
    /// Objects of the recovered checkpoint.
    pub objects: Vec<ObjectRecord>,
    /// Whole batches logged after the checkpoint, in log order.
    pub batches: Vec<Vec<UpdateOp>>,
    /// The durability state, positioned to append after the recovered tail.
    pub durability: ShardDurability,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "pref_service_durability_{}_{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&p); // lint: allow(no-raw-fs) -- test scaffolding cleanup
        p
    }

    fn functions() -> Vec<PreferenceFunction> {
        vec![
            PreferenceFunction {
                id: FunctionId(3),
                function: LinearFunction::from_normalized(vec![0.25, 0.75])
                    .unwrap()
                    .prioritized(2.5)
                    .unwrap(),
                capacity: 4,
            },
            PreferenceFunction::new(9, LinearFunction::new(vec![1.0, 3.0]).unwrap()),
        ]
    }

    fn objects() -> Vec<ObjectRecord> {
        vec![
            ObjectRecord {
                id: RecordId(7),
                point: Point::from_slice(&[0.125, 1.0 / 3.0]),
                capacity: 2,
            },
            ObjectRecord::new(u64::MAX, Point::from_slice(&[f64::MIN_POSITIVE, 0.0])),
        ]
    }

    fn batch() -> Vec<UpdateOp> {
        vec![
            UpdateOp::InsertObject(objects()[0].clone()),
            UpdateOp::RemoveObject(RecordId(42)),
            UpdateOp::InsertFunction(functions()[0].clone()),
            UpdateOp::RemoveFunction(FunctionId(11)),
        ]
    }

    #[test]
    fn batch_codec_roundtrips_bit_exactly() {
        let b = batch();
        assert_eq!(decode_batch(&encode_batch(&b)).unwrap(), b);
        assert_eq!(decode_batch(&encode_batch(&[])).unwrap(), vec![]);
    }

    #[test]
    fn batch_decode_rejects_garbage() {
        let bytes = encode_batch(&batch());
        for cut in 0..bytes.len() {
            assert!(decode_batch(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_batch(&trailing).is_err());
        let mut bad_tag = bytes;
        bad_tag[4] = 200;
        assert!(decode_batch(&bad_tag).is_err());
    }

    #[test]
    fn zero_capacity_is_refused_by_the_decoders_and_never_logged() {
        let zero_object = ObjectRecord {
            capacity: 0,
            ..objects()[0].clone()
        };
        let zero_function = PreferenceFunction {
            capacity: 0,
            ..functions()[0].clone()
        };
        for op in [
            UpdateOp::InsertObject(zero_object.clone()),
            UpdateOp::InsertFunction(zero_function.clone()),
        ] {
            let err = decode_batch(&encode_batch(&[op])).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt(_)), "{err:?}");
        }
        let payload = encode_checkpoint(std::slice::from_ref(&zero_function), &objects());
        assert!(decode_checkpoint(&payload).is_err());
        let payload = encode_checkpoint(&functions(), std::slice::from_ref(&zero_object));
        assert!(decode_checkpoint(&payload).is_err());

        // an in-process submit of such an op must not poison the WAL: the
        // record holds the rest of the batch and recovery replays it
        let dir = temp_dir("zero-capacity");
        let mut d =
            ShardDurability::create(&dir, FsyncPolicy::Always, 100, &functions(), &objects())
                .unwrap();
        let mut logged = batch();
        logged.insert(1, UpdateOp::InsertObject(zero_object));
        logged.push(UpdateOp::InsertFunction(zero_function));
        d.log_batch(&logged).unwrap();
        d.sync_for_ack().unwrap();
        drop(d);
        let rec = ShardDurability::recover(&dir, FsyncPolicy::Always, 100).unwrap();
        assert_eq!(rec.batches, vec![batch()]);
        std::fs::remove_dir_all(&dir).ok(); // lint: allow(no-raw-fs) -- test scaffolding cleanup
    }

    #[test]
    fn checkpoint_codec_roundtrips() {
        let payload = encode_checkpoint(&functions(), &objects());
        let (f, o) = decode_checkpoint(&payload).unwrap();
        assert_eq!(f, functions());
        assert_eq!(o, objects());
        // empty populations are representable (recovery-side guardrails
        // decide what to do with them)
        let (f, o) = decode_checkpoint(&encode_checkpoint(&[], &[])).unwrap();
        assert!(f.is_empty() && o.is_empty());
    }

    #[test]
    fn create_log_recover_roundtrips() {
        let dir = temp_dir("roundtrip");
        let mut d =
            ShardDurability::create(&dir, FsyncPolicy::Always, 100, &functions(), &objects())
                .unwrap();
        assert_eq!(d.log_batch(&batch()).unwrap(), 0);
        assert_eq!(d.log_batch(&[]).unwrap(), 1);
        d.sync_for_ack().unwrap();
        drop(d);

        let rec = ShardDurability::recover(&dir, FsyncPolicy::Always, 100).unwrap();
        assert_eq!(rec.functions, functions());
        assert_eq!(rec.objects, objects());
        assert_eq!(rec.batches, vec![batch(), vec![]]);
        assert_eq!(rec.durability.next_seq(), 2);
        assert_eq!(rec.durability.last_checkpoint_seq(), 0);
        std::fs::remove_dir_all(&dir).ok(); // lint: allow(no-raw-fs) -- test scaffolding cleanup
    }

    #[test]
    fn rotation_checkpoints_and_keeps_one_fallback_generation() {
        let dir = temp_dir("rotate");
        let mut d = ShardDurability::create(&dir, FsyncPolicy::Always, 2, &functions(), &objects())
            .unwrap();
        for _ in 0..2 {
            d.log_batch(&batch()).unwrap();
            d.sync_for_ack().unwrap();
        }
        assert_eq!(
            d.maybe_checkpoint(&functions(), &objects()).unwrap(),
            Some(2)
        );
        for _ in 0..2 {
            d.log_batch(&batch()).unwrap();
            d.sync_for_ack().unwrap();
        }
        assert_eq!(
            d.maybe_checkpoint(&functions(), &objects()).unwrap(),
            Some(4)
        );
        // generation 0 was collected, generation 2 kept as fallback
        let ckpts: Vec<u64> = wal::list_checkpoints(&dir)
            .unwrap()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(ckpts, vec![2, 4]);
        d.log_batch(&batch()).unwrap();
        d.sync_for_ack().unwrap();
        drop(d);
        let rec = ShardDurability::recover(&dir, FsyncPolicy::Always, 2).unwrap();
        assert_eq!(rec.durability.last_checkpoint_seq(), 4);
        assert_eq!(rec.batches.len(), 1);
        assert_eq!(rec.durability.next_seq(), 5);
        std::fs::remove_dir_all(&dir).ok(); // lint: allow(no-raw-fs) -- test scaffolding cleanup
    }

    #[test]
    fn checkpoints_skip_empty_populations() {
        let dir = temp_dir("empty_pop");
        let mut d =
            ShardDurability::create(&dir, FsyncPolicy::Never, 1, &functions(), &objects()).unwrap();
        d.log_batch(&batch()).unwrap();
        assert_eq!(d.maybe_checkpoint(&[], &objects()).unwrap(), None);
        assert_eq!(d.maybe_checkpoint(&functions(), &[]).unwrap(), None);
        // not due yet counts before emptiness: nothing logged since
        assert_eq!(
            d.maybe_checkpoint(&functions(), &objects()).unwrap(),
            Some(1)
        );
        std::fs::remove_dir_all(&dir).ok(); // lint: allow(no-raw-fs) -- test scaffolding cleanup
    }
}
