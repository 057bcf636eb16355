//! One shard: a single-writer engine thread behind a bounded queue,
//! publishing versioned snapshots.
//!
//! [`ShardHandle::spawn`] is the one way to start a shard. Its caller builds
//! the engine — from the initial problem, or by replaying a recovered
//! directory — and, for a durable shard, the [`ShardDurability`] log.

use crate::cell::{SnapshotCell, SnapshotReader};
use crate::durability::{Durable, ShardDurability};
use crate::queue::UpdateQueue;
use crate::snapshot::AssignmentSnapshot;
use crate::{ServiceError, UpdateOp};
use pref_engine::{AssignmentEngine, EngineStats};
use pref_sync::thread::JoinHandle;
use pref_sync::{AtomicU64, Condvar, LockRank, Mutex, Ordering};
use std::sync::Arc;

/// Most updates the writer folds into one publication (whole batches; a
/// single larger batch still publishes alone). Larger amortizes the export
/// under bursts; smaller lowers update-to-visibility latency.
const MAX_BATCH: usize = 64;

/// Writer-side progress, shared with flush waiters.
#[derive(Debug, Default)]
struct ProgressState {
    /// Updates consumed from the queue (applied + rejected), counted at
    /// publication time — an update is "processed" only once the snapshot
    /// reflecting it is visible to readers.
    processed: u64,
    /// Updates the engine rejected (duplicate / unknown ids, dimension
    /// mismatches). Rejections do not tear the batch: the remaining ops
    /// still apply, and the batch still publishes.
    rejected: u64,
    /// Snapshots published (equals the published version).
    published_version: u64,
    /// Description of the most recent rejection, for diagnostics.
    last_rejection: Option<String>,
    /// Set when the writer thread exits (clean shutdown or panic).
    writer_exited: bool,
    /// Set when the writer thread exited by *panic*: flush waiters get the
    /// typed [`ServiceError::WriterCrashed`] instead of the clean-shutdown
    /// `Stopped`.
    writer_crashed: bool,
}

#[derive(Debug)]
struct Progress {
    state: Mutex<ProgressState>,
    advanced: Condvar,
}

/// Notifies flush waiters that the writer exited, even on unwind: a panicking
/// writer must fail flushes, not hang them. On unwind it also poisons the
/// update queue — a producer parked in the queue's backpressure wait is
/// woken with [`ServiceError::WriterCrashed`] instead of blocking forever on
/// a drain that can no longer happen.
struct ExitNotice {
    progress: Arc<Progress>,
    queue: Arc<UpdateQueue>,
}

impl Drop for ExitNotice {
    fn drop(&mut self) {
        let crashed = pref_sync::thread::panicking();
        if crashed {
            // poison BEFORE taking the progress lock: a parked producer
            // holds no lock, and waking it first narrows the window where a
            // flush error races a still-parked submit
            self.queue.close_crashed();
        }
        let mut state = self.progress.state.lock();
        state.writer_exited = true;
        state.writer_crashed = crashed;
        self.progress.advanced.notify_all();
    }
}

/// Milestones the writer reports to an injected fault hook, in the order
/// they happen within one publication cycle. Crash tests pick a milestone
/// and panic the writer there: [`FaultEvent::PrePublish`] is the classic
/// torn window — updates logged and consumed, snapshot not yet published.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// One batch was appended to the WAL (not necessarily fsynced yet);
    /// `seq` is its log record sequence number.
    BatchLogged {
        /// Log record sequence number of the appended batch.
        seq: u64,
    },
    /// Every consumed update was applied; the writer is about to publish
    /// snapshot `version`.
    PrePublish {
        /// The version about to be published.
        version: u64,
    },
    /// A new generation was started with its snapshot at log sequence
    /// `seq`, and older generations were collected.
    CheckpointWritten {
        /// Log sequence of the new generation's snapshot.
        seq: u64,
    },
}

/// Fault injection for crash tests: called by the writer at each
/// [`FaultEvent`] milestone. A hook that panics simulates a writer crash at
/// that point — the exact windows where a buggy flush would hang forever or
/// a buggy recovery would observe a torn batch.
#[doc(hidden)]
pub type WriterFault = Box<dyn FnMut(FaultEvent) + Send + 'static>;

/// Point-in-time counters of one shard.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Updates submitted to the shard's queue so far.
    pub submitted: u64,
    /// Updates processed (applied + rejected) and published.
    pub processed: u64,
    /// Updates the engine rejected.
    pub rejected: u64,
    /// Version of the latest published snapshot. Version 1 is the initial
    /// stabilization; each publication — which covers one or **more** whole
    /// batches when the writer drains a backlog — advances it by 1.
    pub published_version: u64,
    /// Description of the most recent rejection, if any.
    pub last_rejection: Option<String>,
    /// Engine stats as of the latest published snapshot.
    pub engine: EngineStats,
}

/// Handle to one shard: submit side + publication side.
///
/// Created by [`crate::ShardedService`]; the shard owns its writer thread,
/// and the writer owns the engine.
#[derive(Debug)]
pub struct ShardHandle {
    queue: Arc<UpdateQueue>,
    cell: Arc<SnapshotCell>,
    progress: Arc<Progress>,
    /// Updates submitted (accepted by the queue) so far.
    submitted: AtomicU64,
    writer: Option<JoinHandle<()>>,
}

impl ShardHandle {
    /// Starts a shard over an engine its caller built — fresh from a
    /// problem, or replayed by `RecoveredShard::replay`: publishes the
    /// version-1 snapshot and hands the engine, and a durable shard's log,
    /// to a new writer thread. `fault` is the crash tests' hook (see
    /// [`WriterFault`]). Hidden: services start their shards through
    /// [`crate::ShardedService`], the crash-recovery battery through this.
    #[doc(hidden)]
    pub fn spawn(
        engine: AssignmentEngine,
        durability: Option<ShardDurability>,
        queue_capacity: usize,
        shard_index: usize,
        fault: Option<WriterFault>,
    ) -> Result<Self, ServiceError> {
        let cell = Arc::new(SnapshotCell::new(AssignmentSnapshot::from_export(
            engine.export_snapshot(),
            1,
        )));
        let queue = Arc::new(UpdateQueue::new(queue_capacity));
        let progress = Arc::new(Progress {
            state: Mutex::new(
                ProgressState {
                    published_version: 1,
                    ..ProgressState::default()
                },
                LockRank::ProgressState,
            ),
            advanced: Condvar::new(),
        });
        let writer = {
            let queue = Arc::clone(&queue);
            let cell = Arc::clone(&cell);
            let progress = Arc::clone(&progress);
            pref_sync::thread::Builder::new()
                .name(format!("shard-{shard_index}-writer"))
                .spawn(move || {
                    let _notice = ExitNotice {
                        progress: Arc::clone(&progress),
                        queue: Arc::clone(&queue),
                    };
                    writer_loop(engine, &queue, &cell, &progress, durability, fault);
                })
                .map_err(|e| ServiceError::InvalidConfig(format!("spawn failed: {e}")))?
        };
        Ok(Self {
            queue,
            cell,
            progress,
            submitted: AtomicU64::new(0),
            writer: Some(writer),
        })
    }

    /// Submits one batch (blocking while the queue is at capacity). The
    /// batch will become visible atomically in one published snapshot.
    pub fn submit_batch(&self, batch: Vec<UpdateOp>) -> Result<(), ServiceError> {
        // Count the submission BEFORE the queue accepts it (rolled back on a
        // closed queue): an update can only be processed after it was
        // queued, so `processed <= submitted` holds at every instant and
        // stats consumers can rely on `submitted - processed` as a backlog
        // gauge.
        let len = batch.len() as u64;
        // ordering: Relaxed is enough for this counter. Its consumers never
        // use it to reach other data: flush() reads it on the *same* thread
        // that incremented it (program order), and the `processed >=
        // submitted` comparison is ordered by the queue/progress mutexes —
        // fetch_add happens-before queue.push (program order), push
        // happens-before the writer's drain (queue mutex), and the writer's
        // progress update happens-before the waiter's read (progress mutex).
        // The previous AcqRel ordered nothing extra and put a full barrier
        // on every submission.
        self.submitted.fetch_add(len, Ordering::Relaxed);
        if let Err(e) = self.queue.push(batch) {
            // ordering: Relaxed — same-thread rollback of the count above;
            // per-location coherence keeps the counter itself consistent
            self.submitted.fetch_sub(len, Ordering::Relaxed);
            return Err(e);
        }
        Ok(())
    }

    /// Submits a single update (a batch of one).
    pub fn submit(&self, op: UpdateOp) -> Result<(), ServiceError> {
        self.submit_batch(vec![op])
    }

    /// Non-blocking [`ShardHandle::submit_batch`]: where the blocking path
    /// would park in the queue's backpressure wait, this fails immediately
    /// with [`ServiceError::Overloaded`] — the admission-control entry point
    /// for callers (the network front door) that must never stall a
    /// connection handler on a full shard.
    pub fn try_submit_batch(&self, batch: Vec<UpdateOp>) -> Result<(), ServiceError> {
        // same counting protocol as submit_batch: count first, roll back on
        // any rejection, so `processed <= submitted` holds at every instant
        let len = batch.len() as u64;
        // ordering: Relaxed — see submit_batch: consumers of this counter
        // are ordered by program order or by the queue/progress mutexes
        self.submitted.fetch_add(len, Ordering::Relaxed);
        if let Err(e) = self.queue.try_push(batch) {
            // ordering: Relaxed — same-thread rollback of the count above
            self.submitted.fetch_sub(len, Ordering::Relaxed);
            return Err(e);
        }
        Ok(())
    }

    /// Updates currently queued (the admission-control gauge: the front
    /// door refuses new updates once this crosses its high-water mark,
    /// before they would park in the backpressure wait).
    pub fn queue_depth(&self) -> usize {
        self.queue.queued_updates()
    }

    /// Blocks until every update submitted to this shard before the call has
    /// been processed and published — the read-your-writes barrier. Fails
    /// with [`ServiceError::Stopped`] if the writer exited cleanly first,
    /// and with [`ServiceError::WriterCrashed`] if it panicked.
    pub fn flush(&self) -> Result<(), ServiceError> {
        // ordering: Relaxed — the caller's own submissions are ordered by
        // program order; concurrent submitters' in-flight updates are not
        // part of this caller's read-your-writes contract (see submit_batch
        // for why the counter itself needs no barrier)
        let target = self.submitted.load(Ordering::Relaxed);
        let mut state = self.progress.state.lock();
        loop {
            if state.processed >= target {
                return Ok(());
            }
            if state.writer_crashed {
                return Err(ServiceError::WriterCrashed);
            }
            if state.writer_exited {
                return Err(ServiceError::Stopped);
            }
            state = self.progress.advanced.wait(state);
        }
    }

    /// A new reader pinned to the latest published snapshot.
    pub fn reader(&self) -> SnapshotReader {
        self.cell.reader()
    }

    /// Pins the latest published snapshot once (slow path; readers that
    /// query repeatedly should hold a [`SnapshotReader`]).
    pub fn latest(&self) -> Arc<AssignmentSnapshot> {
        self.cell.latest()
    }

    /// The shard's current counters plus the engine stats of the latest
    /// published snapshot.
    pub fn stats(&self) -> ShardStats {
        let state = self.progress.state.lock();
        ShardStats {
            // ordering: Relaxed — a monitoring read; the progress mutex held
            // here orders it against the writer's processed/rejected updates
            // well enough for `submitted >= processed` to hold (an update is
            // counted before it is queued, and processed only after)
            submitted: self.submitted.load(Ordering::Relaxed),
            processed: state.processed,
            rejected: state.rejected,
            published_version: state.published_version,
            last_rejection: state.last_rejection.clone(),
            engine: *self.latest().stats(),
        }
    }

    /// Closes the shard's queue: in-flight batches still apply and publish,
    /// then the writer exits. Producers fail fast from now on.
    pub(crate) fn close(&self) {
        self.queue.close();
    }

    /// Joins the writer thread (after [`ShardHandle::close`]); propagates a
    /// writer panic as [`ServiceError::WriterCrashed`].
    pub(crate) fn join(&mut self) -> Result<(), ServiceError> {
        match self.writer.take() {
            Some(writer) => writer.join().map_err(|_| ServiceError::WriterCrashed),
            None => Ok(()),
        }
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        self.close();
        if let Some(writer) = self.writer.take() {
            // on drop-without-shutdown, still reap the thread; a panic is
            // already recorded via ExitNotice and must not double-panic here
            let _ = writer.join();
        }
    }
}

/// The shard's writer loop: drain → log → fsync → apply → export →
/// rotate (when due) → publish → acknowledge. Once the queue is closed
/// and drained, the log's active segment is trimmed to its records.
///
/// The log-before-apply order is the durability contract: a batch reaches
/// the engine only after its WAL record exists and is fsynced, so an
/// acknowledged batch is always recoverable and recovery can
/// never observe a torn one (record checksums cut torn tails). The fsync
/// returns the [`Durable`] token that [`SnapshotCell::publish`] requires, so
/// a publication above the fsync does not compile; a shard without a log
/// mints its token with [`Durable::in_memory`]. The token cannot tell that
/// every batch was logged before the fsync: the crash-recovery battery
/// checks that. A durability I/O failure panics the writer — acknowledging
/// without the log would lie — which surfaces to producers as
/// [`ServiceError::Stopped`] via `ExitNotice`.
///
/// The writer is the shard's only publisher: it owns the engine (which
/// compacts inline, inside the departures that cross its tombstone bound)
/// and allocates every version after [`ShardHandle::spawn`]'s version 1.
fn writer_loop(
    mut engine: AssignmentEngine,
    queue: &UpdateQueue,
    cell: &SnapshotCell,
    progress: &Progress,
    mut durability: Option<ShardDurability>,
    mut fault: Option<WriterFault>,
) {
    let mut version = 1;
    while let Some(batches) = queue.pop(MAX_BATCH) {
        let durable = match durability.as_mut() {
            Some(dur) => {
                for batch in &batches {
                    if batch.is_empty() {
                        // an empty batch publishes a fresh snapshot but
                        // changes nothing: no record needed
                        continue;
                    }
                    let seq = dur
                        .log_batch(batch)
                        .unwrap_or_else(|e| panic!("shard WAL append failed: {e}"));
                    if let Some(fault) = fault.as_mut() {
                        fault(FaultEvent::BatchLogged { seq });
                    }
                }
                dur.sync_for_ack()
                    .unwrap_or_else(|e| panic!("shard WAL fsync failed: {e}"))
            }
            None => Durable::in_memory(),
        };
        let mut processed = 0u64;
        let mut rejected = 0u64;
        let mut last_rejection = None;
        for batch in &batches {
            for op in batch {
                processed += 1;
                if let Err(e) = op.apply(&mut engine) {
                    rejected += 1;
                    last_rejection = Some(format!("{op:?}: {e}"));
                }
            }
        }
        version += 1;
        if let Some(fault) = fault.as_mut() {
            // may panic here, i.e. after logging + consuming the updates but
            // before publishing them — the canonical torn window
            fault(FaultEvent::PrePublish { version });
        }
        let export = engine.export_snapshot();
        if let Some(dur) = durability.as_mut() {
            match dur.maybe_checkpoint(&export.functions, &export.objects) {
                Ok(Some(seq)) => {
                    if let Some(fault) = fault.as_mut() {
                        fault(FaultEvent::CheckpointWritten { seq });
                    }
                }
                Ok(None) => {}
                Err(e) => panic!("shard checkpoint failed: {e}"),
            }
        }
        cell.publish(AssignmentSnapshot::from_export(export, version), durable);
        // acknowledge only after publication: a flushed producer is
        // guaranteed its updates are visible to every subsequent read
        let mut state = progress.state.lock();
        state.processed += processed;
        state.rejected += rejected;
        state.published_version = version;
        if last_rejection.is_some() {
            state.last_rejection = last_rejection;
        }
        progress.advanced.notify_all();
    }
    // the queue is closed and drained: a clean exit
    if let Some(dur) = durability {
        dur.close();
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests drive real OS threads and read the log's files on purpose"
)]
mod tests {
    use super::*;
    use pref_assign::{FunctionId, ObjectRecord, PreferenceFunction, Problem};
    use pref_engine::EngineOptions;
    use pref_geom::{LinearFunction, Point};
    use pref_rtree::RecordId;

    fn problem() -> Problem {
        Problem::new(
            vec![
                PreferenceFunction::new(0, LinearFunction::new(vec![0.8, 0.2]).unwrap()),
                PreferenceFunction::new(1, LinearFunction::new(vec![0.2, 0.8]).unwrap()),
            ],
            vec![
                ObjectRecord::new(0, Point::from_slice(&[0.5, 0.6])),
                ObjectRecord::new(1, Point::from_slice(&[0.2, 0.7])),
                ObjectRecord::new(2, Point::from_slice(&[0.8, 0.2])),
            ],
        )
        .unwrap()
    }

    fn start_shard() -> ShardHandle {
        let engine = AssignmentEngine::new(&problem(), &EngineOptions::default()).unwrap();
        ShardHandle::spawn(engine, None, 64, 0, None).unwrap()
    }

    #[test]
    fn flush_is_a_read_your_writes_barrier() {
        let mut shard = start_shard();
        assert_eq!(shard.latest().version(), 1);
        shard
            .submit(UpdateOp::InsertObject(ObjectRecord::new(
                9,
                Point::from_slice(&[0.95, 0.95]),
            )))
            .unwrap();
        shard.flush().unwrap();
        let snap = shard.latest();
        assert!(snap.version() >= 2);
        assert!(snap.objects().iter().any(|o| o.id == RecordId(9)));
        snap.verify().unwrap();
        // the newcomer dominates everything: it must hold an assignment
        assert_eq!(snap.functions_of(RecordId(9)).unwrap().len(), 1);
        shard.close();
        shard.join().unwrap();
    }

    #[test]
    fn rejected_updates_are_counted_not_fatal() {
        let mut shard = start_shard();
        shard
            .submit_batch(vec![
                UpdateOp::RemoveObject(RecordId(777)), // unknown: rejected
                UpdateOp::InsertObject(ObjectRecord::new(5, Point::from_slice(&[0.4, 0.4]))),
            ])
            .unwrap();
        shard.flush().unwrap();
        let stats = shard.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.processed, 2);
        assert_eq!(stats.rejected, 1);
        assert!(stats.last_rejection.unwrap().contains("unknown object"));
        // the non-rejected op of the batch still applied
        assert!(shard.latest().objects().iter().any(|o| o.id == RecordId(5)));
        shard.close();
        shard.join().unwrap();
    }

    /// A capacity-0 arrival used to reach `remaining -= 1`: a panic that
    /// killed the writer in debug builds, a wrapped counter that swallowed
    /// every function in release builds.
    #[test]
    fn zero_capacity_arrivals_are_rejected_not_fatal() {
        let mut shard = start_shard();
        let before = shard.latest().view().to_assignment().canonical();
        shard
            .submit_batch(vec![
                UpdateOp::InsertObject(ObjectRecord {
                    id: RecordId(5),
                    point: Point::from_slice(&[0.99, 0.99]),
                    capacity: 0,
                }),
                UpdateOp::InsertFunction(PreferenceFunction {
                    id: FunctionId(9),
                    function: LinearFunction::new(vec![0.5, 0.5]).unwrap(),
                    capacity: 0,
                }),
            ])
            .unwrap();
        shard.flush().unwrap();
        let stats = shard.stats();
        assert_eq!((stats.processed, stats.rejected), (2, 2));
        assert!(stats.last_rejection.unwrap().contains("capacity 0"));
        let snap = shard.latest();
        assert!(!snap.objects().iter().any(|o| o.id == RecordId(5)));
        assert_eq!(snap.view().to_assignment().canonical(), before);
        snap.verify().unwrap();
        // the writer is alive: the same ids with real capacities go through
        shard
            .submit(UpdateOp::InsertObject(ObjectRecord::new(
                5,
                Point::from_slice(&[0.99, 0.99]),
            )))
            .unwrap();
        shard.flush().unwrap();
        assert_eq!(shard.latest().functions_of(RecordId(5)).unwrap().len(), 1);
        shard.close();
        shard.join().unwrap();
    }

    #[test]
    fn submits_after_close_fail_fast() {
        let mut shard = start_shard();
        shard.close();
        shard.join().unwrap();
        assert_eq!(
            shard.submit(UpdateOp::RemoveFunction(FunctionId(0))),
            Err(ServiceError::Stopped)
        );
    }

    /// A clean exit leaves the active log segment holding exactly its
    /// records: only a crashed writer leaves the zero-filled remainder.
    #[test]
    fn a_clean_exit_trims_the_log_to_its_records() {
        let dir = std::env::temp_dir().join(format!(
            "pref_service_shard_{}_clean_exit",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = AssignmentEngine::new(&problem(), &EngineOptions::default()).unwrap();
        let initial = engine.export_snapshot();
        let durability = ShardDurability::create(
            &dir,
            crate::FsyncPolicy::Always,
            100,
            &initial.functions,
            &initial.objects,
        )
        .unwrap();
        let mut shard = ShardHandle::spawn(engine, Some(durability), 64, 0, None).unwrap();
        for id in 10..13 {
            shard
                .submit(UpdateOp::InsertObject(ObjectRecord::new(
                    id,
                    Point::from_slice(&[0.3, 0.4]),
                )))
                .unwrap();
            shard.flush().unwrap();
        }
        let segment = pref_storage::wal::segment_path(&dir, 0);
        let open_len = std::fs::metadata(&segment).unwrap().len();
        shard.close();
        shard.join().unwrap();
        let tail = pref_storage::wal::read_segment(&dir, 0).unwrap();
        assert_eq!(tail.records.len(), 1 + 3, "the snapshot and three batches");
        assert!(open_len > tail.valid_len, "the running writer preallocates");
        assert_eq!(
            std::fs::metadata(&segment).unwrap().len(),
            tail.valid_len,
            "the clean exit trims the zero remainder"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_batches_publish_fresh_snapshots() {
        let mut shard = start_shard();
        let v1 = shard.latest().version();
        shard.submit_batch(Vec::new()).unwrap();
        // an empty batch cannot be flushed on (it adds no updates), so spin
        // on the published version
        while shard.latest().version() == v1 {
            std::thread::yield_now();
        }
        assert_eq!(shard.latest().view().len(), 2);
        shard.close();
        shard.join().unwrap();
    }
}
