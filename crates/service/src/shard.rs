//! One shard: a single-writer engine thread behind a bounded queue,
//! publishing versioned snapshots.

use crate::cell::{SnapshotCell, SnapshotReader};
use crate::durability::{FsyncPolicy, ShardDurability};
use crate::queue::UpdateQueue;
use crate::snapshot::AssignmentSnapshot;
use crate::{ServiceError, UpdateOp};
use pref_assign::Problem;
use pref_engine::{AssignmentEngine, EngineOptions, EngineStats};
use pref_sync::thread::JoinHandle;
use pref_sync::{AtomicU64, Condvar, Mutex, Ordering};
use std::path::Path;
use std::sync::Arc;

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

#[derive(Debug, Default)]
struct Progress {
    state: Mutex<ProgressState>,
    advanced: Condvar,
}

/// Notifies flush waiters that the writer exited, even on unwind: a panicking
/// writer must fail flushes, not hang them. On unwind it also poisons the
/// update queue — a producer parked in the queue's backpressure wait is
/// woken with [`ServiceError::WriterCrashed`] instead of blocking forever on
/// a drain that can no longer happen. Also stops the shard's background
/// compactor (when one runs): with the writer gone no new debt arrives, and a
/// compactor parked on its condvar would otherwise hang the shard's join.
struct ExitNotice {
    progress: Arc<Progress>,
    queue: Arc<UpdateQueue>,
    compactor: Option<Arc<CompactSignal>>,
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
        drop(state);
        if let Some(signal) = &self.compactor {
            signal.stop();
        }
    }
}

/// The engine plus the shard's snapshot version allocator, behind one lock.
///
/// With background compaction the shard has **two** publishers — the writer
/// (applied batches) and the compactor (drained tombstone debt). Both mutate
/// the engine, allocate the next version and install it in the
/// [`SnapshotCell`] inside the same critical section, so versions are
/// allocated and published in one order and the cell's strict monotonicity
/// holds by construction. Without a compactor the lock is uncontended and
/// the writer's path is unchanged.
#[derive(Debug)]
struct EngineSlot {
    engine: AssignmentEngine,
    /// Version of the latest published snapshot.
    version: u64,
}

#[derive(Debug, Default)]
struct CompactGate {
    /// Set by the writer when an applied batch left compaction due.
    pending: bool,
    /// Set on shard shutdown (or writer exit, clean or panicking).
    stop: bool,
}

/// Wake-up channel from the writer to the background compactor.
#[derive(Debug, Default)]
struct CompactSignal {
    gate: Mutex<CompactGate>,
    wake: Condvar,
}

impl CompactSignal {
    fn notify(&self) {
        let mut gate = self.gate.lock();
        gate.pending = true;
        self.wake.notify_all();
    }

    fn stop(&self) {
        let mut gate = self.gate.lock();
        gate.stop = true;
        self.wake.notify_all();
    }

    fn stopped(&self) -> bool {
        self.gate.lock().stop
    }

    /// Parks until work is pending (returns `true`) or the shard stops
    /// (returns `false`), consuming the pending flag.
    fn wait_for_work(&self) -> bool {
        let mut gate = self.gate.lock();
        loop {
            if gate.stop {
                return false;
            }
            if gate.pending {
                gate.pending = false;
                return true;
            }
            gate = self.wake.wait(gate);
        }
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
    /// A checkpoint was written at log sequence `seq` and older generations
    /// were collected.
    CheckpointWritten {
        /// Log sequence the checkpoint was taken at.
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
/// Created by [`crate::ShardedService`]; the shard owns its writer thread.
#[derive(Debug)]
pub struct ShardHandle {
    queue: Arc<UpdateQueue>,
    cell: Arc<SnapshotCell>,
    progress: Arc<Progress>,
    /// Updates submitted (accepted by the queue) so far.
    submitted: AtomicU64,
    writer: Option<JoinHandle<()>>,
    /// The background compactor (only with
    /// [`pref_engine::EngineOptions::deferred_compaction`]).
    compactor: Option<JoinHandle<()>>,
    compact_signal: Option<Arc<CompactSignal>>,
}

impl ShardHandle {
    /// Builds the shard's engine from its initial problem, publishes the
    /// version-1 snapshot and starts the writer thread.
    pub(crate) fn start(
        problem: &Problem,
        engine_options: &EngineOptions,
        queue_capacity: usize,
        max_batch: usize,
        shard_index: usize,
    ) -> Result<Self, ServiceError> {
        Self::start_with_fault(
            problem,
            engine_options,
            queue_capacity,
            max_batch,
            shard_index,
            None,
        )
    }

    /// [`ShardHandle::start`] plus an optional injected writer fault (model
    /// scenario tests use it to crash the writer at a chosen publication).
    pub(crate) fn start_with_fault(
        problem: &Problem,
        engine_options: &EngineOptions,
        queue_capacity: usize,
        max_batch: usize,
        shard_index: usize,
        fault: Option<WriterFault>,
    ) -> Result<Self, ServiceError> {
        let engine = AssignmentEngine::new(problem, engine_options)?;
        Self::start_inner(engine, queue_capacity, max_batch, shard_index, None, fault)
    }

    /// Starts a shard with per-shard durability: initializes (or reuses the
    /// layout of) `dir` with a generation-0 checkpoint of the initial
    /// populations, then logs every subsequent batch ahead of applying it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start_durable(
        problem: &Problem,
        engine_options: &EngineOptions,
        queue_capacity: usize,
        max_batch: usize,
        shard_index: usize,
        dir: &Path,
        fsync: FsyncPolicy,
        checkpoint_every: u64,
    ) -> Result<Self, ServiceError> {
        Self::start_durable_with_fault(
            problem,
            engine_options,
            queue_capacity,
            max_batch,
            shard_index,
            dir,
            fsync,
            checkpoint_every,
            None,
        )
    }

    /// [`ShardHandle::start_durable`] plus an injected writer fault. Public
    /// (but hidden) so the crash-recovery battery can kill writers at exact
    /// milestones from integration tests.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn start_durable_with_fault(
        problem: &Problem,
        engine_options: &EngineOptions,
        queue_capacity: usize,
        max_batch: usize,
        shard_index: usize,
        dir: &Path,
        fsync: FsyncPolicy,
        checkpoint_every: u64,
        fault: Option<WriterFault>,
    ) -> Result<Self, ServiceError> {
        let engine = AssignmentEngine::new(problem, engine_options)?;
        let snapshot = engine.export_snapshot();
        let durability = ShardDurability::create(
            dir,
            fsync,
            checkpoint_every,
            &snapshot.functions,
            &snapshot.objects,
        )?;
        Self::start_inner(
            engine,
            queue_capacity,
            max_batch,
            shard_index,
            Some(durability),
            fault,
        )
    }

    /// Recovers a shard from its durability directory: restores the engine
    /// from the newest valid checkpoint, replays the whole logged batches
    /// after it (rejections are counted-not-fatal, exactly as on the live
    /// path), truncates any torn tail, and resumes serving. The recovered
    /// shard re-publishes as version 1.
    pub(crate) fn recover(
        dir: &Path,
        engine_options: &EngineOptions,
        queue_capacity: usize,
        max_batch: usize,
        shard_index: usize,
        fsync: FsyncPolicy,
        checkpoint_every: u64,
    ) -> Result<Self, ServiceError> {
        Self::recover_with_fault(
            dir,
            engine_options,
            queue_capacity,
            max_batch,
            shard_index,
            fsync,
            checkpoint_every,
            None,
        )
    }

    /// [`ShardHandle::recover`] plus an injected writer fault (see
    /// [`ShardHandle::start_durable_with_fault`]).
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn recover_with_fault(
        dir: &Path,
        engine_options: &EngineOptions,
        queue_capacity: usize,
        max_batch: usize,
        shard_index: usize,
        fsync: FsyncPolicy,
        checkpoint_every: u64,
        fault: Option<WriterFault>,
    ) -> Result<Self, ServiceError> {
        let recovered = ShardDurability::recover(dir, fsync, checkpoint_every)?;
        let problem = Problem::new(recovered.functions, recovered.objects).map_err(|e| {
            ServiceError::Durability(format!(
                "checkpoint in {} does not form a valid problem: {e}",
                dir.display()
            ))
        })?;
        let mut engine = AssignmentEngine::new(&problem, engine_options)?;
        for batch in &recovered.batches {
            for op in batch {
                // rejections (duplicate ids, unknown ids) were counted, not
                // fatal, when first applied — replay treats them the same
                let _ = op.apply(&mut engine);
            }
        }
        Self::start_inner(
            engine,
            queue_capacity,
            max_batch,
            shard_index,
            Some(recovered.durability),
            fault,
        )
    }

    /// Common tail of every constructor: publish version 1 from the (built,
    /// restored, or replayed) engine, spawn the writer thread and — when the
    /// engine defers compaction — the background compactor thread.
    fn start_inner(
        engine: AssignmentEngine,
        queue_capacity: usize,
        max_batch: usize,
        shard_index: usize,
        durability: Option<ShardDurability>,
        fault: Option<WriterFault>,
    ) -> Result<Self, ServiceError> {
        let cell = Arc::new(SnapshotCell::new(AssignmentSnapshot::from_export(
            engine.export_snapshot(),
            1,
        )));
        let queue = Arc::new(UpdateQueue::new(queue_capacity));
        let progress = Arc::new(Progress::default());
        {
            let mut state = progress.state.lock();
            state.published_version = 1;
        }
        let background = engine.compaction_deferred();
        let slot = Arc::new(Mutex::new(EngineSlot { engine, version: 1 }));
        let compact_signal = background.then(|| {
            let signal = Arc::new(CompactSignal::default());
            // a recovered / restored engine may carry inherited tombstone
            // debt: let the compactor check once at startup
            signal.notify();
            signal
        });
        let writer = {
            let queue = Arc::clone(&queue);
            let cell = Arc::clone(&cell);
            let progress = Arc::clone(&progress);
            let slot = Arc::clone(&slot);
            let compact_signal = compact_signal.clone();
            pref_sync::thread::Builder::new()
                .name(format!("shard-{shard_index}-writer"))
                .spawn(move || {
                    let _notice = ExitNotice {
                        progress: Arc::clone(&progress),
                        queue: Arc::clone(&queue),
                        compactor: compact_signal.clone(),
                    };
                    writer_loop(
                        &slot,
                        &queue,
                        &cell,
                        &progress,
                        max_batch,
                        durability,
                        fault,
                        compact_signal.as_deref(),
                    );
                })
                .map_err(|e| ServiceError::InvalidConfig(format!("spawn failed: {e}")))?
        };
        let compactor = match &compact_signal {
            Some(signal) => Some(
                {
                    let cell = Arc::clone(&cell);
                    let progress = Arc::clone(&progress);
                    let slot = Arc::clone(&slot);
                    let signal = Arc::clone(signal);
                    pref_sync::thread::Builder::new()
                        .name(format!("shard-{shard_index}-compactor"))
                        .spawn(move || compactor_loop(&slot, &cell, &progress, &signal))
                }
                .map_err(|e| ServiceError::InvalidConfig(format!("spawn failed: {e}")))?,
            ),
            None => None,
        };
        Ok(Self {
            queue,
            cell,
            progress,
            submitted: AtomicU64::new(0),
            writer: Some(writer),
            compactor,
            compact_signal,
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

    /// Joins the writer and compactor threads (after [`ShardHandle::close`]);
    /// propagates a writer panic as [`ServiceError::WriterCrashed`]. The
    /// writer's exit (via `ExitNotice`, even on panic) stops the compactor,
    /// so the second join cannot hang.
    pub(crate) fn join(&mut self) -> Result<(), ServiceError> {
        let result = match self.writer.take() {
            Some(writer) => writer.join().map_err(|_| ServiceError::WriterCrashed),
            None => Ok(()),
        };
        if let Some(signal) = &self.compact_signal {
            // defensive double-stop: a no-op after the writer's ExitNotice
            signal.stop();
        }
        if let Some(compactor) = self.compactor.take() {
            let _ = compactor.join();
        }
        result
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        self.close();
        if let Some(writer) = self.writer.take() {
            // on drop-without-shutdown, still reap the threads; a panic is
            // already recorded via ExitNotice and must not double-panic here
            let _ = writer.join();
        }
        if let Some(signal) = &self.compact_signal {
            signal.stop();
        }
        if let Some(compactor) = self.compactor.take() {
            let _ = compactor.join();
        }
    }
}

/// The shard's writer loop: drain → log → fsync → apply → export →
/// checkpoint (when due) → publish → acknowledge.
///
/// The log-before-apply order is the durability contract: a batch reaches
/// the engine only after its WAL record exists (and, per policy, is
/// fsynced), so an acknowledged batch is always recoverable and recovery can
/// never observe a torn one (record checksums cut torn tails). A durability
/// I/O failure panics the writer — acknowledging without the log would lie —
/// which surfaces to producers as [`ServiceError::Stopped`] via `ExitNotice`.
///
/// With background compaction, the apply → publish window runs under the
/// engine slot lock (the compactor shares the engine) and the writer's ack
/// path never compacts: it only *checks* for debt after publishing and pokes
/// the compactor, so departure acks no longer pay for physical deletion.
#[allow(clippy::too_many_arguments)]
fn writer_loop(
    slot: &Mutex<EngineSlot>,
    queue: &UpdateQueue,
    cell: &SnapshotCell,
    progress: &Progress,
    max_batch: usize,
    mut durability: Option<ShardDurability>,
    mut fault: Option<WriterFault>,
    compactor: Option<&CompactSignal>,
) {
    while let Some(batches) = queue.pop(max_batch) {
        if let Some(dur) = durability.as_mut() {
            for batch in &batches {
                if batch.is_empty() {
                    // an empty batch publishes a fresh snapshot but changes
                    // nothing: no record needed
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
                .unwrap_or_else(|e| panic!("shard WAL fsync failed: {e}"));
        }
        let mut processed = 0u64;
        let mut rejected = 0u64;
        let mut last_rejection = None;
        let mut slot = slot.lock();
        for batch in &batches {
            for op in batch {
                processed += 1;
                if let Err(e) = op.apply(&mut slot.engine) {
                    rejected += 1;
                    last_rejection = Some(format!("{op:?}: {e}"));
                }
            }
        }
        slot.version += 1;
        let version = slot.version;
        if let Some(fault) = fault.as_mut() {
            // may panic here, i.e. after logging + consuming the updates but
            // before publishing them — the canonical torn window
            fault(FaultEvent::PrePublish { version });
        }
        let export = slot.engine.export_snapshot();
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
        // publish while still holding the slot: versions are installed in
        // allocation order even with the compactor publishing concurrently
        cell.publish(AssignmentSnapshot::from_export(export, version));
        let compaction_due = slot.engine.compaction_due();
        drop(slot);
        // acknowledge only after publication: a flushed producer is
        // guaranteed its updates are visible to every subsequent read
        let mut state = progress.state.lock();
        state.processed += processed;
        state.rejected += rejected;
        // max(): the compactor may already have published a later version
        state.published_version = state.published_version.max(version);
        if last_rejection.is_some() {
            state.last_rejection = last_rejection;
        }
        progress.advanced.notify_all();
        drop(state);
        if compaction_due {
            if let Some(signal) = compactor {
                signal.notify();
            }
        }
    }
}

/// The background compactor: parks until the writer signals tombstone debt,
/// then drains it in bounded batches — each batch takes the engine slot,
/// physically deletes up to `compaction_batch` tombstones, publishes the
/// compacted state under the same lock, and releases the slot so a
/// concurrent writer batch gets in between. The matching never changes
/// (compaction only touches the index and the bookkeeping), so compactor
/// publications carry the same populations and pairs as the snapshot before
/// them — only the stats gauges move.
fn compactor_loop(
    slot: &Mutex<EngineSlot>,
    cell: &SnapshotCell,
    progress: &Progress,
    signal: &CompactSignal,
) {
    while signal.wait_for_work() {
        loop {
            // re-check stop between batches: shutdown must not wait for a
            // long drain to finish
            if signal.stopped() {
                return;
            }
            let mut slot = slot.lock();
            if !slot.engine.compaction_due() {
                break;
            }
            slot.engine.run_compaction_batch();
            slot.version += 1;
            let version = slot.version;
            let export = slot.engine.export_snapshot();
            cell.publish(AssignmentSnapshot::from_export(export, version));
            drop(slot);
            let mut state = progress.state.lock();
            state.published_version = state.published_version.max(version);
            progress.advanced.notify_all();
            drop(state);
            pref_sync::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pref_assign::{FunctionId, ObjectRecord, PreferenceFunction};
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
        ShardHandle::start(&problem(), &EngineOptions::default(), 64, 16, 0).unwrap()
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

    #[test]
    fn background_compactor_drains_off_the_ack_path() {
        let functions = pref_datagen::uniform_weight_functions(4, 2, 91);
        let objects = pref_datagen::independent_objects(40, 2, 92);
        let problem = Problem::from_parts(functions, objects).unwrap();
        let options = EngineOptions {
            compaction_threshold: Some(0.1),
            compaction_batch: 2,
            deferred_compaction: true,
            ..EngineOptions::default()
        };
        let mut shard = ShardHandle::start(&problem, &options, 64, 16, 0).unwrap();
        for id in 0..12u64 {
            shard.submit(UpdateOp::RemoveObject(RecordId(id))).unwrap();
        }
        shard.flush().unwrap();
        // the ack path never compacted: flush returns with the removes
        // published; the physical deletions surface in later compactor
        // publications, which this spin waits for
        let mut reader = shard.reader();
        loop {
            let snapshot = reader.snapshot();
            let stats = snapshot.stats();
            if stats.physical_deletes > 0 && stats.tombstone_ratio() <= 0.1 {
                break;
            }
            std::thread::yield_now();
        }
        // compactor publications carry the same populations and matching
        let snapshot = reader.snapshot();
        assert_eq!(snapshot.objects().len(), 40 - 12);
        assert!(snapshot.objects().iter().all(|o| o.id.0 >= 12));
        snapshot.verify().unwrap();
        // the shard keeps serving after the drain
        shard
            .submit(UpdateOp::InsertObject(ObjectRecord::new(
                100,
                Point::from_slice(&[0.9, 0.9]),
            )))
            .unwrap();
        shard.flush().unwrap();
        assert!(shard
            .latest()
            .objects()
            .iter()
            .any(|o| o.id == RecordId(100)));
        shard.close();
        shard.join().unwrap();
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
        assert_eq!(shard.latest().num_pairs(), 2);
        shard.close();
        shard.join().unwrap();
    }
}
