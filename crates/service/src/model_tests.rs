//! Model-checked scenario tests for the serving tier's concurrency protocols.
//!
//! Each test runs a small fixed scenario under `pref_sync`'s deterministic
//! scheduler, which explores interleavings via seeded random walks or bounded-preemption DFS
//! and checks happens-before invariants on every run. Set `MODEL_ITERS` /
//! `MODEL_SEED` to widen a search or reproduce a reported failure; failing
//! traces land in `target/model-traces` (override with `MODEL_TRACE_DIR`).
//!
//! The wall-clock stress tests in `tests/` still cover real parallelism;
//! these tests cover the interleavings the OS scheduler never produces.

use crate::cell::SnapshotCell;
use crate::durability::Durable;
use crate::queue::UpdateQueue;
use crate::shard::ShardHandle;
use crate::snapshot::AssignmentSnapshot;
use crate::{ServiceError, UpdateOp};
use pref_assign::{ObjectRecord, PreferenceFunction, Problem};
use pref_engine::{AssignmentEngine, EngineOptions};
use pref_geom::{LinearFunction, Point};
use pref_rtree::RecordId;
use pref_sync::model::{self, DfsConfig, ModelConfig, ViolationKind};
use pref_sync::{thread, AtomicU64, Ordering, RaceCell};
use std::sync::Arc;

fn problem() -> Problem {
    Problem::new(
        vec![PreferenceFunction::new(
            0,
            LinearFunction::new(vec![0.5, 0.5]).unwrap(),
        )],
        vec![
            ObjectRecord::new(0, Point::from_slice(&[0.9, 0.9])),
            ObjectRecord::new(1, Point::from_slice(&[0.1, 0.1])),
        ],
    )
    .unwrap()
}

fn engine() -> AssignmentEngine {
    AssignmentEngine::new(&problem(), &EngineOptions::default()).unwrap()
}

fn op(id: u64) -> UpdateOp {
    UpdateOp::RemoveObject(RecordId(id))
}

/// The ISSUE's acceptance floor: with the default iteration budget the three
/// named scenarios must each cover ≥ 1,000 distinct interleavings. When the
/// budget is overridden (MODEL_ITERS) the floor scales down with it.
fn coverage_floor(cfg: &ModelConfig) -> usize {
    if cfg.iterations >= 1_200 {
        1_000
    } else {
        cfg.iterations / 2
    }
}

// ---- scenario: publish/read on the real SnapshotCell ---------------------

#[test]
fn model_publish_read_is_clean() {
    let cfg = ModelConfig::new("publish-read");
    let report = model::explore(&cfg, || {
        let mut engine = engine();
        let cell = Arc::new(SnapshotCell::new(AssignmentSnapshot::from_export(
            engine.export_snapshot(),
            1,
        )));
        let writer = {
            let cell = Arc::clone(&cell);
            thread::Builder::new()
                .name("cell-writer".to_string())
                .spawn(move || {
                    for version in 2..=3u64 {
                        engine
                            .insert_object(ObjectRecord::new(
                                5 + version,
                                Point::from_slice(&[0.3, 0.3]),
                            ))
                            .unwrap();
                        cell.publish(
                            AssignmentSnapshot::from_export(engine.export_snapshot(), version),
                            Durable::in_memory(),
                        );
                    }
                })
                .unwrap()
        };
        // a second reader thread: two readers racing the writer (and each
        // other's slot refreshes) is what makes the interleaving space deep
        let other = {
            let cell = Arc::clone(&cell);
            thread::Builder::new()
                .name("cell-reader".to_string())
                .spawn(move || {
                    let mut reader = cell.reader();
                    let mut seen = reader.snapshot().version();
                    for _ in 0..2 {
                        let snapshot = reader.snapshot();
                        model::check(
                            snapshot.version() >= seen,
                            "per-reader versions are monotonic",
                        );
                        seen = snapshot.version();
                    }
                })
                .unwrap()
        };
        let mut reader = cell.reader();
        let mut seen = reader.snapshot().version();
        // spin until the final publication is visible; every step is a
        // schedule point, so the walk interleaves reads with publishes
        loop {
            let snapshot = reader.snapshot();
            let version = snapshot.version();
            model::check(version >= seen, "per-reader versions are monotonic");
            // publication is atomic: version v snapshots carry exactly the
            // objects inserted up to v (2 initial + one per publication)
            model::check(
                snapshot.objects().len() as u64 == 1 + version,
                "snapshot contents match the version (no torn publication)",
            );
            seen = version;
            if version >= 3 {
                break;
            }
            thread::yield_now();
        }
        writer.join().unwrap();
        other.join().unwrap();
        model::check(cell.version() == 3, "final version published");
    });
    assert!(report.clean(), "violation: {:?}", report.violation);
    assert!(
        report.distinct_interleavings >= coverage_floor(&cfg),
        "only {} distinct interleavings",
        report.distinct_interleavings
    );
}

#[test]
fn model_publish_read_is_clean_under_exhaustive_dfs() {
    let report = model::explore_dfs(&DfsConfig::new("publish-read-dfs"), || {
        let mut engine = engine();
        let cell = Arc::new(SnapshotCell::new(AssignmentSnapshot::from_export(
            engine.export_snapshot(),
            1,
        )));
        let writer = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                engine
                    .insert_object(ObjectRecord::new(9, Point::from_slice(&[0.3, 0.3])))
                    .unwrap();
                cell.publish(
                    AssignmentSnapshot::from_export(engine.export_snapshot(), 2),
                    Durable::in_memory(),
                );
            })
        };
        let mut reader = cell.reader();
        let first = reader.snapshot().version();
        let second = reader.snapshot().version();
        model::check(second >= first, "per-reader versions are monotonic");
        writer.join().unwrap();
        model::check(reader.snapshot().version() == 2, "join makes v2 visible");
    });
    // the preemption-bounded space of this small scenario is genuinely
    // small; exhaustive coverage of it, not raw volume, is the point here
    assert!(report.clean(), "violation: {:?}", report.violation);
    assert!(report.distinct_interleavings >= 10, "DFS barely branched");
}

// ---- scenario: queue backpressure (incl. oversized stop-and-go) ----------

#[test]
fn model_queue_backpressure_is_clean() {
    let cfg = ModelConfig::new("queue-backpressure");
    let report = model::explore(&cfg, || {
        let queue = Arc::new(UpdateQueue::new(2));
        let consumer = {
            let queue = Arc::clone(&queue);
            thread::Builder::new()
                .name("consumer".to_string())
                .spawn(move || {
                    let mut drained = 0usize;
                    while let Some(batches) = queue.pop(2) {
                        drained += batches.iter().map(Vec::len).sum::<usize>();
                    }
                    drained
                })
                .unwrap()
        };
        // capacity 2: the second and third pushes exercise blocking
        // backpressure; the oversized batch exercises stop-and-go (it only
        // enters an *empty* queue)
        queue.push(vec![op(0), op(1)]).unwrap();
        queue.push(vec![op(2)]).unwrap();
        queue.push(vec![op(3), op(4), op(5)]).unwrap(); // oversized
        queue.close();
        let drained = consumer.join().unwrap();
        model::check(drained == 6, "every queued update is drained exactly once");
        model::check(queue.queued_updates() == 0, "queue fully drained");
    });
    assert!(report.clean(), "violation: {:?}", report.violation);
    assert!(
        report.distinct_interleavings >= coverage_floor(&cfg),
        "only {} distinct interleavings",
        report.distinct_interleavings
    );
}

#[test]
fn model_capacity_one_oversized_batch_with_concurrent_shutdown() {
    let cfg = ModelConfig::new("queue-shutdown-race");
    let report = model::explore(&cfg, || {
        let queue = Arc::new(UpdateQueue::new(1));
        let consumer = {
            let queue = Arc::clone(&queue);
            thread::Builder::new()
                .name("consumer".to_string())
                .spawn(move || {
                    let mut drained = 0usize;
                    while let Some(batches) = queue.pop(1) {
                        drained += batches.iter().map(Vec::len).sum::<usize>();
                    }
                    drained
                })
                .unwrap()
        };
        let closer = {
            let queue = Arc::clone(&queue);
            thread::Builder::new()
                .name("closer".to_string())
                .spawn(move || queue.close())
                .unwrap()
        };
        // oversized (3 > capacity 1) while a concurrent close races the
        // push: either the batch is accepted and fully drained, or it is
        // rejected with Stopped and never partially visible
        let pushed = queue.push(vec![op(0), op(1), op(2)]);
        closer.join().unwrap();
        let drained = consumer.join().unwrap();
        match pushed {
            Ok(()) => model::check(drained == 3, "accepted batch drains whole"),
            Err(ServiceError::Stopped) => {
                model::check(drained == 0, "rejected batch leaves no trace")
            }
            Err(_) => model::check(false, "only Stopped is a legal push failure"),
        }
    });
    assert!(report.clean(), "violation: {:?}", report.violation);
}

#[test]
fn model_multi_producer_fairness_no_lost_wakeups() {
    let cfg = ModelConfig::new("queue-multi-producer");
    let report = model::explore(&cfg, || {
        let queue = Arc::new(UpdateQueue::new(1));
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let queue = Arc::clone(&queue);
                thread::Builder::new()
                    .name(format!("producer-{p}"))
                    .spawn(move || {
                        for i in 0..2u64 {
                            queue.push(vec![op(10 * p + i)]).unwrap();
                        }
                    })
                    .unwrap()
            })
            .collect();
        let consumer = {
            let queue = Arc::clone(&queue);
            thread::Builder::new()
                .name("consumer".to_string())
                .spawn(move || {
                    let mut got = Vec::new();
                    while let Some(batches) = queue.pop(1) {
                        for batch in batches {
                            got.extend(batch);
                        }
                    }
                    got
                })
                .unwrap()
        };
        for producer in producers {
            // a lost not_full wakeup would park a producer forever — the
            // scheduler reports that as a lost-wakeup deadlock on its own
            producer.join().unwrap();
        }
        queue.close();
        let got = consumer.join().unwrap();
        model::check(got.len() == 4, "all four updates arrive");
        // per-producer FIFO: each producer's second push follows its first
        for p in 0..2u64 {
            let ids: Vec<u64> = got
                .iter()
                .filter_map(|u| match u {
                    UpdateOp::RemoveObject(RecordId(id)) if id / 10 == p => Some(*id),
                    _ => None,
                })
                .collect();
            model::check(ids == vec![10 * p, 10 * p + 1], "per-producer FIFO holds");
        }
    });
    assert!(report.clean(), "violation: {:?}", report.violation);
}

// ---- scenario: flush barrier on a real shard -----------------------------

#[test]
fn model_flush_barrier_is_read_your_writes() {
    let cfg = ModelConfig::new("flush-barrier");
    let report = model::explore(&cfg, || {
        let shard = ShardHandle::spawn(engine(), None, 4, 0, None).unwrap();
        shard
            .submit(UpdateOp::InsertObject(ObjectRecord::new(
                9,
                Point::from_slice(&[0.95, 0.95]),
            )))
            .unwrap();
        shard.flush().unwrap();
        // flush() acked: the write must already be published — reading the
        // cell *now* must see it (flush acked before publication would fail
        // here on some interleaving)
        let snapshot = shard.latest();
        model::check(snapshot.version() >= 2, "flush implies publication");
        model::check(
            snapshot.objects().iter().any(|o| o.id == RecordId(9)),
            "flushed write is visible to a subsequent read",
        );
        let stats = shard.stats();
        model::check(stats.processed >= 1, "flush implies processing");
        model::check(
            stats.submitted >= stats.processed,
            "submitted never trails processed",
        );
        drop(shard);
    });
    assert!(report.clean(), "violation: {:?}", report.violation);
    assert!(
        report.distinct_interleavings >= coverage_floor(&cfg),
        "only {} distinct interleavings",
        report.distinct_interleavings
    );
}

#[test]
fn model_flush_fails_not_hangs_when_the_writer_panics() {
    let mut cfg = ModelConfig::new("flush-vs-writer-panic");
    // the injected writer crash is the scenario, not a finding
    cfg.allow_panic_from = vec!["writer".to_string()];
    let report = model::explore(&cfg, || {
        let fault: crate::shard::WriterFault = Box::new(|event| {
            if matches!(
                event,
                crate::shard::FaultEvent::PrePublish { version } if version >= 2
            ) {
                // quiet panic (no hook noise): simulates a writer crash
                // after consuming updates, before publishing them
                std::panic::resume_unwind(Box::new("injected writer fault".to_string()));
            }
        });
        let shard = ShardHandle::spawn(engine(), None, 4, 0, Some(fault)).unwrap();
        let submitted = shard.submit(UpdateOp::InsertObject(ObjectRecord::new(
            9,
            Point::from_slice(&[0.95, 0.95]),
        )));
        match submitted {
            Ok(()) => {
                // the writer dies before publishing this batch: flush must
                // fail fast with the typed crash error (a hang here would
                // surface as a deadlock violation with the full trace)
                model::check(
                    shard.flush() == Err(ServiceError::WriterCrashed),
                    "flush fails typed (not hangs) after a writer crash",
                );
            }
            Err(e) => model::check(
                e == ServiceError::WriterCrashed,
                "only WriterCrashed is legal",
            ),
        }
        drop(shard);
    });
    assert!(report.clean(), "violation: {:?}", report.violation);
}

#[test]
fn model_parked_producer_fails_not_hangs_when_the_writer_crashes_on_a_full_queue() {
    let mut cfg = ModelConfig::new("full-queue-vs-writer-crash");
    // the injected writer crash is the scenario, not a finding
    cfg.allow_panic_from = vec!["writer".to_string()];
    let report = model::explore(&cfg, || {
        // capacity 1: the producer's second submission parks in the
        // backpressure wait unless the writer drained first. The writer
        // crashes at its first publication, i.e. possibly *while* a producer
        // is parked — before the fix, close() was never called on a panic
        // and the parked producer waited on not_full forever (the scheduler
        // reports exactly that as a whole-system deadlock with the trace).
        let fault: crate::shard::WriterFault = Box::new(|event| {
            // any writer publication (the caller publishes version 1)
            if matches!(event, crate::shard::FaultEvent::PrePublish { .. }) {
                std::panic::resume_unwind(Box::new("injected writer fault".to_string()));
            }
        });
        let shard = ShardHandle::spawn(engine(), None, 1, 0, Some(fault)).unwrap();
        let mut outcomes = Vec::new();
        for id in 0..2u64 {
            outcomes.push(shard.submit(UpdateOp::RemoveObject(RecordId(id))));
        }
        // every submission either made it into the queue before the crash
        // or failed with the typed crash error — never hung, never Stopped
        // (nothing closed this queue cleanly)
        for outcome in outcomes {
            model::check(
                matches!(outcome, Ok(()) | Err(ServiceError::WriterCrashed)),
                "a producer racing a writer crash sees Ok or WriterCrashed",
            );
        }
        // flush after the crash surfaces the typed error as well
        model::check(
            shard.flush() == Err(ServiceError::WriterCrashed),
            "flush after the crash is the typed error",
        );
        drop(shard);
    });
    assert!(report.clean(), "violation: {:?}", report.violation);
    assert!(
        report.distinct_interleavings >= coverage_floor(&cfg),
        "only {} distinct interleavings",
        report.distinct_interleavings
    );
}

// ---- mutation self-test: the detector detects ----------------------------

/// A deliberately broken `SnapshotCell` twin: the version counter is bumped
/// with a `Relaxed` store *before* the payload is written, and the payload
/// is plain (race-checked) data instead of being mutex-protected. Readers
/// that trust the version counter read the payload unordered — the exact
/// bug class the real cell's `Release`-while-holding-the-lock publish
/// protocol exists to prevent.
struct BrokenSnapshotCell {
    version: AtomicU64,
    payload: RaceCell<u64>,
}

impl BrokenSnapshotCell {
    fn new() -> Self {
        Self {
            version: AtomicU64::new(1),
            payload: RaceCell::new(1),
        }
    }

    fn publish(&self, version: u64) {
        // ordering: deliberately wrong — the mutant under test: Relaxed
        // severs the happens-before edge, and the payload write lands after
        // the version bump
        self.version.store(version, Ordering::Relaxed);
        self.payload.set(version);
    }

    fn read(&self) -> Option<u64> {
        // ordering: Acquire, but the mutant's store is Relaxed, so there is
        // no release to pair with — the payload read below is unordered
        if self.version.load(Ordering::Acquire) >= 2 {
            Some(self.payload.get())
        } else {
            None
        }
    }
}

#[test]
fn model_catches_the_broken_cell_mutant() {
    let mut cfg = ModelConfig::new("broken-cell-mutant");
    cfg.trace_dir = None; // expected failure; don't litter target/
    let report = model::explore(&cfg, || {
        let cell = Arc::new(BrokenSnapshotCell::new());
        let writer = {
            let cell = Arc::clone(&cell);
            thread::Builder::new()
                .name("mutant-writer".to_string())
                .spawn(move || cell.publish(2))
                .unwrap()
        };
        let _ = cell.read();
        writer.join().unwrap();
    });
    let violation = report
        .violation
        .expect("the detector must flag the Relaxed-publication mutant");
    assert_eq!(violation.kind, ViolationKind::DataRace);
    assert!(
        violation.seed.is_some(),
        "failure reports a replayable seed"
    );
    assert!(!violation.trace.is_empty(), "failure reports a trace");
    // the exact phrasing depends on which side of the race the walk hits
    // first (unordered read vs racing write) — both name the cell
    assert!(
        violation.message.contains("not ordered") || violation.message.contains("races"),
        "diagnostic explains the missing edge: {}",
        violation.message
    );
}
