//! Per-shard durability: a write-ahead log of update batches whose every
//! segment opens with a snapshot of the shard, built on the file primitives
//! of [`pref_storage::wal`].
//!
//! The crash-consistency model mirrors the serving layer's atomicity unit —
//! the batch. The writer appends one WAL record per submitted batch, fsyncs
//! once per drain, and only then applies and publishes it; an acknowledged
//! (flushed) batch is therefore always recoverable. Recovery
//! ([`RecoveredShard::replay`]) loads the newest generation's snapshot and
//! replays the batches logged after it through a fresh engine; because the
//! engine re-solves deterministically from any coherent population, the
//! recovered shard publishes the same canonical matching the pre-crash
//! shard had at that batch boundary.
//!
//! A generation is one log segment. Its first record is the snapshot: an
//! 8-byte magic naming the format and its version, then the live
//! populations. Every `checkpoint_every` batches the writer closes the
//! segment and starts the next generation with a fresh snapshot. A payload
//! without the magic, such as a batch that opened a segment of the earlier
//! layout with separate checkpoint files, is refused, and the directory is
//! left as it was.
//!
//! A shard directory starts empty: [`ShardDurability::create`] refuses one
//! that already holds a log segment, because recovery would otherwise pick
//! the earlier run's newer generation over the fresh start.
//!
//! All file access goes through [`pref_storage::wal`] — this module encodes
//! and decodes payloads but never opens a file itself, keeping raw
//! `std::fs` usage confined to the storage crate (enforced by this crate's
//! `clippy.toml`).

use crate::{ServiceError, UpdateOp};
use pref_assign::{FunctionId, ObjectRecord, PreferenceFunction, Problem};
use pref_engine::{AssignmentEngine, EngineOptions};
use pref_geom::{LinearFunction, Point};
use pref_rtree::RecordId;
use pref_storage::wal::{self, WalWriter};
use pref_storage::{ByteReader, StorageError};
use std::path::{Path, PathBuf};

/// When the WAL is fsynced relative to batch acknowledgement: always, once
/// per writer drain, before the drained batches are applied — the group
/// commit. The type survives only as a parameter of
/// [`ShardDurability::create`] that the benchmark still passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync before every publication: an acknowledged batch is always
    /// durable.
    Always,
}

/// Durability configuration of a [`crate::ShardedService`]. The writer
/// fsyncs once per drain and starts a new generation every 256 logged
/// batches.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root directory of the service's durable state; shard `i` owns the
    /// subdirectory `shard-<i>`.
    pub dir: PathBuf,
}

impl DurabilityConfig {
    /// Durability under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The directory one shard's generations live in.
    pub(crate) fn shard_dir(&self, shard_index: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard_index}"))
    }

    /// The `shard-<i>` directories under the root, ascending by `i`. A root
    /// that does not exist yet holds none.
    pub(crate) fn existing_shard_dirs(&self) -> Result<Vec<(u64, PathBuf)>, StorageError> {
        if !self.dir.exists() {
            return Ok(Vec::new());
        }
        wal::list_numbered_dirs(&self.dir, "shard-")
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

// The smallest encoding of each counted item, for `ByteReader::count`: a
// remove op (tag + id), a function with no weights (id, capacity, priority,
// dims), an object with no coordinates (id, capacity, dims).
const SMALLEST_OP: usize = 1 + 8;
const SMALLEST_FUNCTION: usize = 8 + 4 + 8 + 2;
const SMALLEST_OBJECT: usize = 8 + 4 + 2;

fn encode_object(o: &ObjectRecord, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&o.id.raw().to_le_bytes());
    buf.extend_from_slice(&o.capacity.to_le_bytes());
    buf.extend_from_slice(&(o.point.dims() as u16).to_le_bytes());
    for &c in o.point.coords() {
        buf.extend_from_slice(&c.to_bits().to_le_bytes());
    }
}

/// Why the decoder refuses an arriving object that the in-process
/// constructors let through: capacity 0, or (`Point::from_slice` checks
/// nothing) a NaN or infinite coordinate. [`ShardDurability::log_batch`]
/// leaves out the ops this or [`function_refusal`] names, so a record this
/// program wrote always decodes.
fn object_refusal(o: &ObjectRecord) -> Option<&'static str> {
    if o.capacity == 0 {
        Some("capacity 0")
    } else if !o.point.is_finite() {
        Some("a non-finite coordinate")
    } else {
        None
    }
}

/// [`object_refusal`] for functions: every `LinearFunction` constructor
/// validates its weights, which leaves capacity 0.
fn function_refusal(f: &PreferenceFunction) -> Option<&'static str> {
    (f.capacity == 0).then_some("capacity 0")
}

fn decode_object(r: &mut ByteReader<'_>) -> Result<ObjectRecord, StorageError> {
    let id = r.u64()?;
    let capacity = r.u32()?;
    let dims = r.u16()? as usize;
    let point = Point::new(r.f64s(dims)?)
        .map_err(|e| StorageError::Corrupt(format!("object {id}: invalid point: {e}")))?;
    let object = ObjectRecord {
        id: RecordId(id),
        point,
        capacity,
    };
    match object_refusal(&object) {
        Some(why) => Err(StorageError::Corrupt(format!("object {id} carries {why}"))),
        None => Ok(object),
    }
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

fn decode_function(r: &mut ByteReader<'_>) -> Result<PreferenceFunction, StorageError> {
    let id = r.u64()?;
    let capacity = r.u32()?;
    let priority = r.f64()?;
    let dims = r.u16()? as usize;
    let weights = r.f64s(dims)?;
    let function = LinearFunction::from_normalized(weights)
        .and_then(|f| f.prioritized(priority))
        .map_err(|e| StorageError::Corrupt(format!("invalid logged function: {e}")))?;
    let function = PreferenceFunction {
        id: FunctionId(id as usize),
        function,
        capacity,
    };
    match function_refusal(&function) {
        Some(why) => Err(StorageError::Corrupt(format!(
            "function {id} carries {why}"
        ))),
        None => Ok(function),
    }
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
/// truncation, unknown op tags, trailing bytes, capacity-0 arrivals, points
/// that are empty or not finite and weights that are not a normalized,
/// non-negative vector are all errors.
pub fn decode_batch(bytes: &[u8]) -> Result<Vec<UpdateOp>, StorageError> {
    let mut r = ByteReader::new(bytes, "durability payload");
    let count = r.count(SMALLEST_OP)?;
    let mut out = Vec::with_capacity(count);
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
    r.finish()?;
    Ok(out)
}

/// Opens every snapshot payload: the format's name and version.
const SNAPSHOT_MAGIC: &[u8; 8] = b"FAIRSNP2";

/// Encodes a snapshot payload: [`SNAPSHOT_MAGIC`], then the live
/// populations, from which the engine re-solves the identical canonical
/// matching on restore. The pairs are deliberately not stored — restart
/// equivalence is a tested engine property.
pub(crate) fn encode_checkpoint(
    functions: &[PreferenceFunction],
    objects: &[ObjectRecord],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + functions.len() * 32 + objects.len() * 32);
    buf.extend_from_slice(SNAPSHOT_MAGIC);
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

/// Decodes a snapshot payload back into its populations. A payload that
/// does not open with [`SNAPSHOT_MAGIC`] is refused.
pub(crate) fn decode_checkpoint(
    bytes: &[u8],
) -> Result<(Vec<PreferenceFunction>, Vec<ObjectRecord>), StorageError> {
    let body = bytes.strip_prefix(&SNAPSHOT_MAGIC[..]).ok_or_else(|| {
        StorageError::Corrupt("a segment's first record is not a FAIRSNP2 snapshot".into())
    })?;
    let mut r = ByteReader::new(body, "durability payload");
    let nfun = r.count(SMALLEST_FUNCTION)?;
    let mut functions = Vec::with_capacity(nfun);
    for _ in 0..nfun {
        functions.push(decode_function(&mut r)?);
    }
    let nobj = r.count(SMALLEST_OBJECT)?;
    let mut objects = Vec::with_capacity(nobj);
    for _ in 0..nobj {
        objects.push(decode_object(&mut r)?);
    }
    r.finish()?;
    Ok((functions, objects))
}

// --- the per-shard durability state ---------------------------------------

/// Proof that every batch the writer logged is on disk. A durable shard's
/// writer gets one only from [`ShardDurability::sync_for_ack`]; a shard
/// without a log mints one with [`Durable::in_memory`]. Publishing a
/// snapshot takes one, so a publication ahead of the fsync does not compile.
///
/// Declared `pub` because the public `sync_for_ack` returns it, but not
/// exported: only this crate can name the type or mint a token.
#[derive(Debug)]
pub struct Durable(());

impl Durable {
    /// The token of a shard without a log: nothing to fsync.
    pub(crate) fn in_memory() -> Self {
        Durable(())
    }
}

/// One shard's durable state: the active generation's log segment plus the
/// rotation bookkeeping. Owned by the shard's writer thread.
#[derive(Debug)]
pub struct ShardDurability {
    dir: PathBuf,
    writer: WalWriter,
    checkpoint_every: u64,
    /// Start sequence of the active generation: its snapshot's sequence.
    generation: u64,
    /// The sequence from which a rotation is due: `checkpoint_every`
    /// batches after the snapshot, or after a snapshot too large for a
    /// record was refused.
    rotate_at: u64,
    /// A batch was appended since the last fsync.
    unsynced: bool,
}

impl ShardDurability {
    /// Initializes an empty shard directory (created if missing): the
    /// `wal-0` generation, whose snapshot holds the initial populations.
    ///
    /// Fails with [`StorageError::InUse`], touching nothing, when `dir`
    /// already holds a log segment. `FsyncPolicy` has one value; the
    /// parameter stays for the benchmark's sake.
    pub fn create(
        dir: &Path,
        _fsync: FsyncPolicy,
        checkpoint_every: u64,
        functions: &[PreferenceFunction],
        objects: &[ObjectRecord],
    ) -> Result<Self, StorageError> {
        wal::ensure_dir(dir)?;
        if !wal::list_segments(dir)?.is_empty() {
            return Err(StorageError::InUse(dir.to_path_buf()));
        }
        let writer = wal::write_checkpoint(dir, 0, &encode_checkpoint(functions, objects))?;
        Ok(Self::resume(dir, writer, checkpoint_every, 0))
    }

    /// Logs into `writer`, the segment of the generation starting at `generation`.
    fn resume(dir: &Path, writer: WalWriter, checkpoint_every: u64, generation: u64) -> Self {
        Self {
            dir: dir.to_path_buf(),
            writer,
            checkpoint_every,
            generation,
            rotate_at: generation + 1 + checkpoint_every,
            unsynced: false,
        }
    }

    /// Recovers a shard directory: returns the snapshot's populations, the
    /// batches logged after it, and a `ShardDurability` positioned to
    /// append right after the last whole record (any torn tail truncated,
    /// bypassed newer segments collected). Everything is decoded before a
    /// byte of the directory changes, so a refused directory is left as it
    /// was.
    pub fn recover(dir: &Path, checkpoint_every: u64) -> Result<RecoveredShard, StorageError> {
        let state = wal::recover_dir(dir)?;
        let mut payloads = state.active_tail.records.iter().map(|(_, p)| p.as_slice());
        let (functions, objects) = decode_checkpoint(payloads.next().unwrap_or_default())?;
        let batches = payloads.map(decode_batch).collect::<Result<_, _>>()?;
        let start = state.active_start_seq;
        let writer = WalWriter::open_after_recovery(dir, start, &state.active_tail)?;
        wal::remove_unreachable_generations(dir, start);
        Ok(RecoveredShard {
            functions,
            objects,
            batches,
            durability: Self::resume(dir, writer, checkpoint_every, start),
        })
    }

    /// Appends one batch to the WAL (durable only after
    /// [`ShardDurability::sync_for_ack`]). Returns the record's sequence.
    ///
    /// Arrivals that [`decode_batch`] refuses (capacity 0, a non-finite
    /// coordinate) are left out of the record: the engine rejects them
    /// whatever its state, so replay is unchanged, and a record this program
    /// wrote must never fail to decode.
    pub fn log_batch(&mut self, batch: &[UpdateOp]) -> Result<u64, StorageError> {
        let refused = |op: &UpdateOp| match op {
            UpdateOp::InsertObject(o) => object_refusal(o).is_some(),
            UpdateOp::InsertFunction(f) => function_refusal(f).is_some(),
            UpdateOp::RemoveObject(_) | UpdateOp::RemoveFunction(_) => false,
        };
        let payload = if batch.iter().any(refused) {
            let loggable: Vec<UpdateOp> = batch.iter().filter(|op| !refused(op)).cloned().collect();
            encode_batch(&loggable)
        } else {
            encode_batch(batch)
        };
        let seq = self.writer.append(&payload)?;
        self.unsynced = true;
        Ok(seq)
    }

    /// Fsyncs the log if a batch was appended since the last fsync. Called
    /// by the writer after logging a publication's batches and before
    /// applying them, so an acknowledged batch is recoverable. The returned
    /// `Durable` token is what lets the shard's writer publish.
    pub fn sync_for_ack(&mut self) -> Result<Durable, StorageError> {
        if self.unsynced {
            self.writer.sync()?;
            self.unsynced = false;
        }
        Ok(Durable(()))
    }

    /// Rotates to a new generation when `checkpoint_every` batches were
    /// logged after the snapshot: trim and fsync the log, start the next
    /// segment with a snapshot of the populations, collect the generations
    /// older than the one closed. Skipped while a population is empty (an
    /// engine cannot restore from an empty problem; the log keeps the full
    /// history until the populations refill), and put off by another
    /// `checkpoint_every` batches when the snapshot is too large for a
    /// record. Returns the new generation's sequence when one was started.
    pub(crate) fn maybe_checkpoint(
        &mut self,
        functions: &[PreferenceFunction],
        objects: &[ObjectRecord],
    ) -> Result<Option<u64>, StorageError> {
        let next_seq = self.writer.next_seq();
        if next_seq < self.rotate_at || functions.is_empty() || objects.is_empty() {
            return Ok(None);
        }
        // the closing segment keeps exactly its records, and the sync makes
        // the trim durable (a failed one leaves the zero remainder a crash
        // would, which reads as the clean end). Every record the new
        // snapshot subsumes must be durable before the old generation
        // becomes collectible.
        let _ = self.writer.trim();
        self.writer.sync()?;
        self.unsynced = false;
        let snapshot = encode_checkpoint(functions, objects);
        self.writer = match wal::write_checkpoint(&self.dir, next_seq, &snapshot) {
            Ok(writer) => writer,
            Err(StorageError::RecordTooLarge { .. }) => {
                self.rotate_at = next_seq + self.checkpoint_every;
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        wal::remove_generations_before(&self.dir, self.generation);
        self.generation = next_seq;
        self.rotate_at = next_seq + 1 + self.checkpoint_every;
        Ok(Some(next_seq))
    }

    /// The writer's clean exit: trims the active segment to its records, so
    /// only a crashed writer leaves a zero-filled remainder behind. A failed
    /// trim is ignored, as a failed collection is: every acknowledged record
    /// is already durable, and the reader takes the remainder as the clean
    /// end.
    pub(crate) fn close(mut self) {
        let _ = self.writer.trim();
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
    /// Functions of the recovered snapshot.
    pub functions: Vec<PreferenceFunction>,
    /// Objects of the recovered snapshot.
    pub objects: Vec<ObjectRecord>,
    /// Whole batches logged after the snapshot, in log order.
    pub batches: Vec<Vec<UpdateOp>>,
    /// The durability state, positioned to append after the recovered tail.
    pub durability: ShardDurability,
}

impl RecoveredShard {
    /// Rebuilds the shard's engine: the snapshot's populations form the
    /// initial problem, then every logged batch replays in log order. An
    /// op the engine rejects (duplicate or unknown id) was counted, not
    /// fatal, when first applied, and replay treats it the same.
    pub fn replay(
        self,
        options: &EngineOptions,
    ) -> Result<(AssignmentEngine, ShardDurability), ServiceError> {
        let problem = Problem::new(self.functions, self.objects).map_err(|e| {
            ServiceError::Durability(format!(
                "snapshot in {} does not form a valid problem: {e}",
                self.durability.dir().display()
            ))
        })?;
        let mut engine = AssignmentEngine::new(&problem, options)?;
        for op in self.batches.iter().flatten() {
            let _ = op.apply(&mut engine);
        }
        Ok((engine, self.durability))
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "test scaffolding cleanup")]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "pref_service_durability_{}_{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&p);
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
        let rec = ShardDurability::recover(&dir, 100).unwrap();
        assert_eq!(rec.batches, vec![batch()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One-op batch payloads laid out by hand, for arrivals no constructor
    /// builds.
    fn raw_object(coords: &[f64]) -> Vec<u8> {
        let mut b = 1u32.to_le_bytes().to_vec();
        b.push(TAG_INSERT_OBJECT);
        b.extend(5u64.to_le_bytes());
        b.extend(1u32.to_le_bytes());
        b.extend((coords.len() as u16).to_le_bytes());
        coords
            .iter()
            .for_each(|c| b.extend(c.to_bits().to_le_bytes()));
        b
    }

    fn raw_function(weights: &[f64]) -> Vec<u8> {
        let mut b = 1u32.to_le_bytes().to_vec();
        b.push(TAG_INSERT_FUNCTION);
        b.extend(5u64.to_le_bytes());
        b.extend(1u32.to_le_bytes());
        b.extend(1.0f64.to_bits().to_le_bytes());
        b.extend((weights.len() as u16).to_le_bytes());
        weights
            .iter()
            .for_each(|w| b.extend(w.to_bits().to_le_bytes()));
        b
    }

    #[test]
    fn untrusted_points_and_weights_are_refused_and_never_logged() {
        for payload in [
            raw_object(&[]),
            raw_object(&[f64::NAN, 0.5]),
            raw_object(&[f64::INFINITY, 0.5]),
            raw_function(&[1.5, -0.5]),
            raw_function(&[f64::NAN, 1.0]),
            raw_function(&[0.5, 0.4]),
        ] {
            let err = decode_batch(&payload).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt(_)), "{err:?}");
        }
        assert!(decode_batch(&raw_object(&[0.5, 0.25])).is_ok());
        assert!(decode_batch(&raw_function(&[0.5, 0.5])).is_ok());

        // `Point::from_slice` builds a NaN point in-process; the WAL record
        // leaves it out, so recovery still decodes the rest of the batch
        let dir = temp_dir("non-finite");
        let mut d =
            ShardDurability::create(&dir, FsyncPolicy::Always, 100, &functions(), &objects())
                .unwrap();
        let mut logged = batch();
        logged.push(UpdateOp::InsertObject(ObjectRecord::new(
            6,
            Point::from_slice(&[f64::NAN, 0.5]),
        )));
        d.log_batch(&logged).unwrap();
        d.sync_for_ack().unwrap();
        drop(d);
        let rec = ShardDurability::recover(&dir, 100).unwrap();
        assert_eq!(rec.batches, vec![batch()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lying_counts_are_refused_before_allocating() {
        let lying = u32::MAX.to_le_bytes().to_vec();
        let lying_functions = [&SNAPSHOT_MAGIC[..], &lying].concat();
        let mut lying_objects = SNAPSHOT_MAGIC.to_vec();
        lying_objects.extend(0u32.to_le_bytes());
        lying_objects.extend(u32::MAX.to_le_bytes());
        for err in [
            decode_checkpoint(&lying_functions).unwrap_err(),
            decode_checkpoint(&lying_objects).unwrap_err(),
            decode_batch(&lying).unwrap_err(),
        ] {
            assert!(matches!(err, StorageError::Corrupt(_)), "{err:?}");
        }
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
    fn a_snapshot_without_its_magic_is_refused() {
        let mut payload = encode_checkpoint(&functions(), &objects());
        payload[7] ^= 1; // another format version
        for bytes in [&payload[..], &encode_batch(&batch()), &[]] {
            let err = decode_checkpoint(bytes).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt(_)), "{err:?}");
        }
    }

    #[test]
    fn create_log_recover_roundtrips() {
        let dir = temp_dir("roundtrip");
        let mut d =
            ShardDurability::create(&dir, FsyncPolicy::Always, 100, &functions(), &objects())
                .unwrap();
        assert_eq!(d.log_batch(&batch()).unwrap(), 1);
        assert_eq!(d.log_batch(&[]).unwrap(), 2);
        d.sync_for_ack().unwrap();
        drop(d);

        let rec = ShardDurability::recover(&dir, 100).unwrap();
        assert_eq!(rec.functions, functions());
        assert_eq!(rec.objects, objects());
        assert_eq!(rec.batches, vec![batch(), vec![]]);
        assert_eq!(rec.durability.next_seq(), 3);
        assert_eq!(rec.durability.generation, 0);
        std::fs::remove_dir_all(&dir).ok();
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
            Some(3)
        );
        for _ in 0..2 {
            d.log_batch(&batch()).unwrap();
            d.sync_for_ack().unwrap();
        }
        assert_eq!(
            d.maybe_checkpoint(&functions(), &objects()).unwrap(),
            Some(6)
        );
        // generation 0 was collected, generation 3 kept as fallback
        let generations: Vec<u64> = wal::list_segments(&dir)
            .unwrap()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(generations, vec![3, 6]);
        d.log_batch(&batch()).unwrap();
        d.sync_for_ack().unwrap();
        drop(d);
        let rec = ShardDurability::recover(&dir, 2).unwrap();
        assert_eq!(rec.durability.generation, 6);
        assert_eq!(rec.batches.len(), 1);
        assert_eq!(rec.durability.next_seq(), 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoints_skip_empty_populations() {
        let dir = temp_dir("empty_pop");
        let mut d = ShardDurability::create(&dir, FsyncPolicy::Always, 1, &functions(), &objects())
            .unwrap();
        d.log_batch(&batch()).unwrap();
        assert_eq!(d.maybe_checkpoint(&[], &objects()).unwrap(), None);
        assert_eq!(d.maybe_checkpoint(&functions(), &[]).unwrap(), None);
        // not due yet counts before emptiness: nothing logged since
        assert_eq!(
            d.maybe_checkpoint(&functions(), &objects()).unwrap(),
            Some(2)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A second `create` used to rewrite generation 0 but leave the earlier
    /// run's newer generation, which recovery then preferred: the old
    /// population came back.
    #[test]
    fn create_refuses_a_directory_an_earlier_run_used() {
        let dir = temp_dir("reused");
        let mut d = ShardDurability::create(&dir, FsyncPolicy::Always, 2, &functions(), &objects())
            .unwrap();
        for _ in 0..2 {
            d.log_batch(&batch()).unwrap();
            d.sync_for_ack().unwrap();
        }
        assert_eq!(
            d.maybe_checkpoint(&functions(), &objects()).unwrap(),
            Some(3)
        );
        drop(d);
        let err = ShardDurability::create(
            &dir,
            FsyncPolicy::Always,
            2,
            &functions()[..1],
            &objects()[..1],
        )
        .unwrap_err();
        assert_eq!(err, StorageError::InUse(dir.clone()));
        // nothing was touched: the earlier run still recovers whole
        let rec = ShardDurability::recover(&dir, 2).unwrap();
        assert_eq!(rec.durability.generation, 3);
        assert_eq!(rec.functions, functions());
        std::fs::remove_dir_all(&dir).ok();
    }
}
