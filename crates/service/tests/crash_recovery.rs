//! Fault-injection battery for the per-shard durability layer.
//!
//! The invariant under test, end to end: **recovery never observes a torn
//! batch and never loses an acknowledged one.** Every recovered matching
//! must equal — canonically, pair for pair and score bit for score bit —
//! the pre-crash matching at some batch boundary at or after the last
//! acknowledged flush. The battery kills writers at every fault milestone,
//! truncates the log at every byte offset, corrupts batch and snapshot
//! records, tears a rotation's snapshot, and crashes the writer right after
//! it compacted.

#![allow(
    clippy::disallowed_methods,
    reason = "the crash battery copies, corrupts and removes shard directories itself"
)]

use pref_assign::{ObjectRecord, PreferenceFunction, Problem};
use pref_engine::{AssignmentEngine, EngineOptions};
use pref_geom::{LinearFunction, Point};
use pref_rtree::RecordId;
use pref_service::{
    AssignmentSnapshot, DurabilityConfig, FaultEvent, FsyncPolicy, ServiceConfig, ServiceError,
    ShardDurability, ShardHandle, ShardedService, UpdateOp, WriterFault,
};
use pref_storage::{wal, StorageError};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};

/// Size of a WAL record header (mirrors `pref_storage::wal`): length (u32) +
/// sequence (u64) + crc (u64).
const RECORD_HEADER: usize = 20;

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pref_service_crash_{}_{name}", std::process::id()));
    let _ = fs::remove_dir_all(&p);
    p
}

/// Deterministic pseudo-random unit coordinates (splitmix64).
fn coord(seed: &mut u64) -> f64 {
    *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

fn point(seed: &mut u64) -> Point {
    Point::from_slice(&[coord(seed), coord(seed)])
}

fn base_problem() -> Problem {
    let mut seed = 0xdead_beefu64;
    let functions = vec![
        PreferenceFunction::new(0, LinearFunction::new(vec![0.9, 0.1]).unwrap()),
        PreferenceFunction::new(1, LinearFunction::new(vec![0.5, 0.5]).unwrap()),
        PreferenceFunction::new(2, LinearFunction::new(vec![0.1, 0.9]).unwrap()),
    ];
    let objects = (0..8u64)
        .map(|i| ObjectRecord::new(i, point(&mut seed)))
        .collect();
    Problem::new(functions, objects).unwrap()
}

/// The scripted workload: six batches mixing arrivals, departures, a
/// rejected op (unknown id) and function churn.
fn batches() -> Vec<Vec<UpdateOp>> {
    let mut seed = 0x0b57_ac1eu64;
    let mut obj = |id: u64| UpdateOp::InsertObject(ObjectRecord::new(id, point(&mut seed)));
    let fun = |id: usize, w: [f64; 2]| {
        UpdateOp::InsertFunction(PreferenceFunction::new(
            id,
            LinearFunction::new(w.to_vec()).unwrap(),
        ))
    };
    vec![
        vec![obj(100), obj(101)],
        vec![UpdateOp::RemoveObject(RecordId(0)), fun(10, [0.7, 0.3])],
        vec![
            UpdateOp::RemoveFunction(pref_assign::FunctionId(1)),
            obj(102),
        ],
        vec![
            UpdateOp::RemoveObject(RecordId(100)),
            UpdateOp::RemoveObject(RecordId(777)), // unknown: rejected, not fatal
        ],
        vec![obj(103), obj(104), UpdateOp::RemoveObject(RecordId(2))],
        vec![fun(11, [0.2, 0.8]), UpdateOp::RemoveObject(RecordId(101))],
    ]
}

/// Canonical matching of a published snapshot: sorted
/// `(function, object, score-bits)` triples — the byte-identity the issue's
/// acceptance criterion is stated in.
fn canonical(snap: &AssignmentSnapshot) -> Vec<(usize, u64, u64)> {
    let mut out = Vec::new();
    for f in snap.functions() {
        if let Some(assigned) = snap.assignment_of(f.id) {
            for (object, score) in assigned {
                out.push((f.id.0, object.0, score.to_bits()));
            }
        }
    }
    out.sort_unstable();
    out
}

fn engine_canonical(engine: &AssignmentEngine) -> Vec<(usize, u64, u64)> {
    let mut out: Vec<(usize, u64, u64)> = engine
        .export_snapshot()
        .pairs
        .iter()
        .map(|&(f, o, s)| (f.0, o.0, s.to_bits()))
        .collect();
    out.sort_unstable();
    out
}

/// The oracle: a reference engine (no service, no durability) applied batch
/// by batch. `oracle[b]` is the canonical matching after the first `b`
/// batches.
fn oracle(
    problem: &Problem,
    batches: &[Vec<UpdateOp>],
    options: &EngineOptions,
) -> Vec<Vec<(usize, u64, u64)>> {
    let mut engine = AssignmentEngine::new(problem, options).unwrap();
    let mut out = vec![engine_canonical(&engine)];
    for batch in batches {
        for op in batch {
            let _ = op.apply(&mut engine);
        }
        out.push(engine_canonical(&engine));
    }
    out
}

/// Starts a durable shard over `base_problem()` in the empty `dir`.
fn durable_shard(
    dir: &Path,
    options: &EngineOptions,
    checkpoint_every: u64,
    fault: Option<WriterFault>,
) -> ShardHandle {
    let engine = AssignmentEngine::new(&base_problem(), options).unwrap();
    let initial = engine.export_snapshot();
    let durability = ShardDurability::create(
        dir,
        FsyncPolicy::Always,
        checkpoint_every,
        &initial.functions,
        &initial.objects,
    )
    .unwrap();
    ShardHandle::spawn(engine, Some(durability), 64, 0, fault).unwrap()
}

/// Runs a durable shard over the scripted batches, one batch per
/// publication, optionally killing the writer at a fault milestone. Returns
/// the number of batches acknowledged (flushed) before the crash.
fn run_durable(
    dir: &Path,
    options: &EngineOptions,
    checkpoint_every: u64,
    fault: Option<WriterFault>,
) -> usize {
    let shard = durable_shard(dir, options, checkpoint_every, fault);
    let mut acked = 0;
    for batch in batches() {
        if shard.submit_batch(batch).is_err() {
            break;
        }
        if shard.flush().is_err() {
            break;
        }
        acked += 1;
    }
    drop(shard); // joins the (possibly dead) writer
    acked
}

fn recover_canonical(
    dir: &Path,
    options: &EngineOptions,
    checkpoint_every: u64,
) -> Vec<(usize, u64, u64)> {
    let (engine, durability) = ShardDurability::recover(dir, checkpoint_every)
        .unwrap()
        .replay(options)
        .unwrap();
    let shard = ShardHandle::spawn(engine, Some(durability), 64, 0, None).unwrap();
    let snap = shard.latest();
    assert_eq!(snap.version(), 1, "recovered shards restart at version 1");
    snap.verify().expect("recovered matching must be stable");
    canonical(&snap)
}

/// A quiet injected crash (no panic-hook noise in the test output).
fn crash() -> ! {
    std::panic::resume_unwind(Box::new("injected writer crash".to_string()))
}

#[test]
fn writer_killed_before_each_publication_recovers_the_logged_boundary() {
    let options = EngineOptions::default();
    let canon = oracle(&base_problem(), &batches(), &options);
    // batch b (1-based) publishes version b + 1; a kill at PrePublish V
    // means batches 1..=V-1 are logged and synced, batches 1..=V-2 acked
    for kill_at in 2..=7u64 {
        let dir = temp_dir(&format!("kill_v{kill_at}"));
        let fault: WriterFault = Box::new(move |event| {
            if event == (FaultEvent::PrePublish { version: kill_at }) {
                crash();
            }
        });
        let acked = run_durable(&dir, &options, 100, Some(fault));
        assert_eq!(acked as u64, kill_at.min(7) - 2, "kill at {kill_at}");
        let recovered = recover_canonical(&dir, &options, 100);
        let logged = (kill_at - 1) as usize;
        assert_eq!(
            recovered, canon[logged],
            "kill at version {kill_at}: recovery must land on the logged batch boundary"
        );
        assert!(
            recovered == canon[logged] && logged >= acked,
            "an acknowledged batch may never be lost"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn writer_killed_right_after_a_checkpoint_recovers_identically() {
    let options = EngineOptions::default();
    let canon = oracle(&base_problem(), &batches(), &options);
    let dir = temp_dir("kill_after_ckpt");
    // a new generation every 3 batches; die the instant the first rotation
    // ends (new segment and its snapshot written, old generation collected)
    let fault: WriterFault = Box::new(|event| {
        if matches!(event, FaultEvent::CheckpointWritten { .. }) {
            crash();
        }
    });
    run_durable(&dir, &options, 3, Some(fault));
    let recovered = recover_canonical(&dir, &options, 3);
    assert_eq!(recovered, canon[3], "crash right after rotation");
    fs::remove_dir_all(&dir).ok();
}

/// Length of the segment file starting at `start_seq`, and the end of its
/// whole records.
fn segment_lengths(dir: &Path, start_seq: u64) -> (u64, u64) {
    let file = fs::metadata(wal::segment_path(dir, start_seq))
        .unwrap()
        .len();
    (file, wal::read_segment(dir, start_seq).unwrap().valid_len)
}

#[test]
fn a_killed_writer_leaves_a_zero_tail_that_recovers_exactly() {
    let options = EngineOptions::default();
    let all = batches();
    let canon = oracle(&base_problem(), &all, &options);
    for logged in [1usize, 3, 6] {
        let dir = temp_dir(&format!("zero_tail_{logged}"));
        let kill_at = logged as u64 + 1;
        let fault: WriterFault = Box::new(move |event| {
            if event == (FaultEvent::PrePublish { version: kill_at }) {
                crash();
            }
        });
        run_durable(&dir, &options, 100, Some(fault));
        let (file, records) = segment_lengths(&dir, 0);
        assert!(
            file > records,
            "after {logged} batches the crashed writer's segment keeps its zero tail"
        );
        assert!(!wal::read_segment(&dir, 0).unwrap().torn_tail);

        // recovery lands on the logged boundary, and the recovered writer
        // appends the remaining batches after the records, not after the zeros
        let (engine, durability) = ShardDurability::recover(&dir, 100)
            .unwrap()
            .replay(&options)
            .unwrap();
        let shard = ShardHandle::spawn(engine, Some(durability), 64, 0, None).unwrap();
        assert_eq!(canonical(&shard.latest()), canon[logged], "after {logged}");
        for batch in &all[logged..] {
            shard.submit_batch(batch.clone()).unwrap();
            shard.flush().unwrap();
        }
        drop(shard);
        assert_eq!(
            recover_canonical(&dir, &options, 100),
            canon[all.len()],
            "second recovery after {logged}"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_rotated_segment_holds_exactly_its_records() {
    let options = EngineOptions::default();
    let canon = oracle(&base_problem(), &batches(), &options);
    let dir = temp_dir("rotated_trim");
    // a new generation every 3 batches: the first rotation closes wal-0
    // after batch 3; die before publishing batch 5, with wal-4 still open
    let fault: WriterFault = Box::new(|event| {
        if event == (FaultEvent::PrePublish { version: 6 }) {
            crash();
        }
    });
    assert_eq!(run_durable(&dir, &options, 3, Some(fault)), 4);
    let (file, records) = segment_lengths(&dir, 0);
    assert_eq!(file, records, "rotation trims the closed segment");
    assert_eq!(wal::read_segment(&dir, 0).unwrap().records.len(), 1 + 3);
    let (file, records) = segment_lengths(&dir, 4);
    assert!(file > records, "the active segment keeps its zero tail");
    assert_eq!(recover_canonical(&dir, &options, 3), canon[5]);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn log_truncated_at_every_byte_offset_recovers_a_batch_prefix() {
    let options = EngineOptions::default();
    let canon = oracle(&base_problem(), &batches(), &options);
    let dir = temp_dir("truncate_src");
    let acked = run_durable(&dir, &options, 100, None);
    assert_eq!(acked, 6);

    let full = fs::read(wal::segment_path(&dir, 0)).unwrap();
    // record boundaries within the segment: record 0 is the snapshot, and
    // record b ends batch b
    let mut boundaries = vec![0usize];
    for (_, payload) in wal::read_segment(&dir, 0).unwrap().records {
        boundaries.push(boundaries.last().unwrap() + RECORD_HEADER + payload.len());
    }
    assert_eq!(*boundaries.last().unwrap(), full.len());

    let work = temp_dir("truncate_work");
    for cut in 0..=full.len() {
        fs::create_dir_all(&work).unwrap();
        fs::write(wal::segment_path(&work, 0), &full[..cut]).unwrap();
        if cut < boundaries[1] {
            // the only generation lost its snapshot: a typed refusal that
            // leaves the segment as it was
            assert!(
                matches!(
                    ShardDurability::recover(&work, 100),
                    Err(StorageError::Corrupt(_))
                ),
                "cut at byte {cut}, inside the snapshot"
            );
            assert_eq!(fs::read(wal::segment_path(&work, 0)).unwrap(), &full[..cut]);
        } else {
            let whole = boundaries[2..].iter().filter(|&&b| b <= cut).count();
            let recovered = recover_canonical(&work, &options, 100);
            assert_eq!(
                recovered, canon[whole],
                "cut at byte {cut}: exactly {whole} whole batches must replay"
            );
        }
        fs::remove_dir_all(&work).ok();
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_record_stops_replay_at_the_previous_boundary() {
    let options = EngineOptions::default();
    let canon = oracle(&base_problem(), &batches(), &options);
    let dir = temp_dir("corrupt_src");
    run_durable(&dir, &options, 100, None);
    let full = fs::read(wal::segment_path(&dir, 0)).unwrap();
    let records = wal::read_segment(&dir, 0).unwrap().records;
    let mut offsets = vec![0usize];
    for (_, payload) in &records {
        offsets.push(offsets.last().unwrap() + RECORD_HEADER + payload.len());
    }

    let work = temp_dir("corrupt_work");
    for (k, window) in offsets.windows(2).enumerate() {
        fs::create_dir_all(&work).unwrap();
        let mut bad = full.clone();
        // flip one payload byte of record k: its checksum must reject the
        // record and everything after it
        bad[window[0] + RECORD_HEADER] ^= 0x40;
        fs::write(wal::segment_path(&work, 0), &bad).unwrap();
        if k == 0 {
            // the only generation's snapshot: a typed refusal
            assert!(matches!(
                ShardDurability::recover(&work, 100),
                Err(StorageError::Corrupt(_))
            ));
        } else {
            let recovered = recover_canonical(&work, &options, 100);
            assert_eq!(
                recovered,
                canon[k - 1],
                "corruption in batch record {k} must truncate replay to {} batches",
                k - 1
            );
        }
        fs::remove_dir_all(&work).ok();
    }
    fs::remove_dir_all(&dir).ok();
}

/// Start sequences of the generations (log segments) in `dir`.
fn generations(dir: &Path) -> Vec<u64> {
    wal::list_segments(dir)
        .unwrap()
        .into_iter()
        .map(|(s, _)| s)
        .collect()
}

#[test]
fn corrupt_newest_checkpoint_falls_back_to_the_previous_generation() {
    let options = EngineOptions::default();
    let canon = oracle(&base_problem(), &batches(), &options);
    let dir = temp_dir("ckpt_fallback");
    // checkpoint_every=2 over 6 batches: rotations at sequences 3, 6 and 9;
    // generation 6 is kept as fallback behind generation 9
    run_durable(&dir, &options, 2, None);
    assert_eq!(
        generations(&dir),
        vec![6, 9],
        "GC keeps exactly one fallback generation"
    );

    // sanity: the pristine directory recovers to the final state
    assert_eq!(recover_canonical(&dir, &options, 2), canon[6]);

    // corrupt the newest snapshot, which has no batch after it: recovery
    // must fall back to generation 6 and replay its batches to the same
    // final state
    let path = wal::segment_path(&dir, 9);
    let mut bytes = fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&path, &bytes).unwrap();
    assert_eq!(
        recover_canonical(&dir, &options, 2),
        canon[6],
        "fallback recovery must reach the identical final matching"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_rotation_torn_inside_its_snapshot_resumes_the_previous_generation() {
    let options = EngineOptions::default();
    let canon = oracle(&base_problem(), &batches(), &options);
    let dir = temp_dir("torn_snapshot_src");
    // a new generation every 3 batches over 6: rotations at sequences 4 and
    // 8, and wal-8 holds only its snapshot
    run_durable(&dir, &options, 3, None);
    assert_eq!(generations(&dir), vec![4, 8]);
    let previous = fs::read(wal::segment_path(&dir, 4)).unwrap();
    let snapshot = fs::read(wal::segment_path(&dir, 8)).unwrap();
    let extra = vec![UpdateOp::InsertObject(ObjectRecord::new(
        900,
        Point::from_slice(&[0.3, 0.6]),
    ))];

    // a crash inside the rotation leaves any prefix of the snapshot record
    let work = temp_dir("torn_snapshot_work");
    for cut in 0..snapshot.len() {
        fs::create_dir_all(&work).unwrap();
        fs::write(wal::segment_path(&work, 4), &previous).unwrap();
        fs::write(wal::segment_path(&work, 8), &snapshot[..cut]).unwrap();
        let (engine, durability) = ShardDurability::recover(&work, 100)
            .unwrap()
            .replay(&options)
            .unwrap();
        assert_eq!(generations(&work), vec![4], "cut at byte {cut}");
        let shard = ShardHandle::spawn(engine, Some(durability), 64, 0, None).unwrap();
        assert_eq!(canonical(&shard.latest()), canon[6], "cut at byte {cut}");
        shard.submit_batch(extra.clone()).unwrap();
        shard.flush().unwrap();
        let appended = canonical(&shard.latest());
        drop(shard);
        assert_eq!(
            recover_canonical(&work, &options, 100),
            appended,
            "second recovery after a cut at byte {cut}"
        );
        fs::remove_dir_all(&work).ok();
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_damaged_snapshot_costs_the_batches_logged_after_it() {
    let options = EngineOptions::default();
    let canon = oracle(&base_problem(), &batches(), &options);
    let dir = temp_dir("damaged_snapshot");
    // a new generation every 4 batches over 6: wal-5 holds its snapshot,
    // then batches 5 and 6
    run_durable(&dir, &options, 4, None);
    assert_eq!(generations(&dir), vec![0, 5]);
    assert_eq!(wal::read_segment(&dir, 5).unwrap().records.len(), 3);
    let path = wal::segment_path(&dir, 5);
    let mut bytes = fs::read(&path).unwrap();
    bytes[RECORD_HEADER + 20] ^= 0x01;
    fs::write(&path, &bytes).unwrap();
    // media damage alone can do this: a crash cannot, because the snapshot
    // is fsynced before any batch after it is appended. Recovery lands on
    // the rotation boundary and the damaged generation is collected.
    assert_eq!(recover_canonical(&dir, &options, 4), canon[4]);
    assert_eq!(generations(&dir), vec![0]);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_is_equivalent_across_compaction_policies() {
    // compaction changes *when* departures are physically deleted, never
    // the matching: a crash right after the writer compacted must recover
    // onto the logged boundary like any other
    let options = EngineOptions::default();
    let canon = oracle(&base_problem(), &batches(), &options);
    // the departure of the last batch is the one that crosses the 25 %
    // tombstone bound: the writer compacts inside it, then dies before
    // publishing (batch 6 publishes version 7)
    let mut engine = AssignmentEngine::new(&base_problem(), &options).unwrap();
    let mut compactions = Vec::new();
    for batch in batches() {
        for op in &batch {
            let _ = op.apply(&mut engine);
        }
        compactions.push(engine.stats().compaction_batches);
    }
    assert_eq!(
        compactions,
        [0, 0, 0, 0, 0, 1],
        "when the scripted churn compacts"
    );
    let dir = temp_dir("compacted");
    let fault: WriterFault = Box::new(|event| {
        if event == (FaultEvent::PrePublish { version: 7 }) {
            crash();
        }
    });
    assert_eq!(run_durable(&dir, &options, 2, Some(fault)), 5);
    assert_eq!(recover_canonical(&dir, &options, 2), canon[6]);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_service_recovers_all_shards_after_clean_shutdown_and_crash() {
    let root = temp_dir("service");
    let config = ServiceConfig {
        durability: Some(DurabilityConfig::new(&root)),
        ..ServiceConfig::default()
    };
    let mut seed = 0x5e5e_5e5eu64;
    let service = ShardedService::start(vec![base_problem(), base_problem()], &config).unwrap();
    for (b, batch) in batches().into_iter().enumerate() {
        service.submit_batch(b % 2, batch).unwrap();
        service.flush().unwrap();
    }
    service
        .submit(
            1,
            UpdateOp::InsertObject(ObjectRecord::new(500, point(&mut seed))),
        )
        .unwrap();
    service.flush().unwrap();
    let before: Vec<_> = (0..2)
        .map(|s| canonical(&service.shard(s).unwrap().latest()))
        .collect();
    service.shutdown().unwrap();

    let recovered = ShardedService::recover(&config).unwrap();
    assert_eq!(recovered.num_shards(), 2);
    for (s, expected) in before.iter().enumerate() {
        let snap = recovered.shard(s).unwrap().latest();
        snap.verify().unwrap();
        assert_eq!(
            &canonical(&snap),
            expected,
            "shard {s} must recover its pre-shutdown matching"
        );
    }
    // the recovered service keeps serving and stays durable
    recovered
        .submit(
            0,
            UpdateOp::InsertObject(ObjectRecord::new(600, point(&mut seed))),
        )
        .unwrap();
    recovered.flush().unwrap();
    let after = canonical(&recovered.shard(0).unwrap().latest());
    recovered.shutdown().unwrap();
    let again = ShardedService::recover(&config).unwrap();
    assert_eq!(canonical(&again.shard(0).unwrap().latest()), after);
    again.shutdown().unwrap();
    fs::remove_dir_all(&root).ok();
}

/// A durable start with fewer shards than an earlier run on the same root
/// used to leave the extra `shard-<k>` behind for `recover` to adopt.
#[test]
fn a_durable_start_on_a_used_root_is_refused() {
    let root = temp_dir("used_root");
    let config = ServiceConfig {
        durability: Some(DurabilityConfig::new(&root)),
        ..ServiceConfig::default()
    };
    ShardedService::start(vec![base_problem(), base_problem()], &config)
        .unwrap()
        .shutdown()
        .unwrap();
    assert!(matches!(
        ShardedService::start(vec![base_problem()], &config),
        Err(ServiceError::Durability(_))
    ));
    // nothing was deleted: the earlier run still recovers whole
    let recovered = ShardedService::recover(&config).unwrap();
    assert_eq!(recovered.num_shards(), 2);
    recovered.shutdown().unwrap();
    fs::remove_dir_all(&root).ok();
}

#[test]
fn recover_reports_its_three_typed_errors() {
    assert!(matches!(
        ShardedService::recover(&ServiceConfig::default()),
        Err(ServiceError::InvalidConfig(_))
    ));
    let root = temp_dir("recover_errors");
    let config = ServiceConfig {
        durability: Some(DurabilityConfig::new(&root)),
        ..ServiceConfig::default()
    };
    fs::create_dir_all(&root).unwrap();
    assert!(matches!(
        ShardedService::recover(&config),
        Err(ServiceError::Durability(_))
    ));
    fs::create_dir_all(root.join("shard-0")).unwrap();
    fs::create_dir_all(root.join("shard-2")).unwrap();
    assert!(matches!(
        ShardedService::recover(&config),
        Err(ServiceError::Durability(msg)) if msg.contains("not consecutive")
    ));
    fs::remove_dir_all(&root).ok();
}

#[derive(Debug, Clone)]
enum PropOp {
    Insert {
        coords: Vec<f64>,
    },
    /// Remove the i-th (modulo population) live object.
    RemoveNth(usize),
}

fn arb_batches() -> impl Strategy<Value = Vec<Vec<PropOp>>> {
    let insert =
        proptest::collection::vec(0.0f64..1.0, 2).prop_map(|coords| PropOp::Insert { coords });
    let remove = (0usize..64).prop_map(PropOp::RemoveNth);
    let batch = proptest::collection::vec(prop_oneof![3 => insert, 2 => remove], 1..4);
    proptest::collection::vec(batch, 1..10)
}

/// Resolves the abstract ops into concrete `UpdateOp` batches (ids are
/// assigned deterministically, removals target live objects).
fn resolve(batches: &[Vec<PropOp>]) -> Vec<Vec<UpdateOp>> {
    let mut live: Vec<u64> = (0..8).collect();
    let mut next_id = 1000u64;
    let mut out = Vec::new();
    for batch in batches {
        let mut ops = Vec::new();
        for op in batch {
            match op {
                PropOp::Insert { coords } => {
                    ops.push(UpdateOp::InsertObject(ObjectRecord::new(
                        next_id,
                        Point::from_slice(coords),
                    )));
                    live.push(next_id);
                    next_id += 1;
                }
                PropOp::RemoveNth(n) => {
                    if live.len() > 1 {
                        let id = live.swap_remove(n % live.len());
                        ops.push(UpdateOp::RemoveObject(RecordId(id)));
                    }
                }
            }
        }
        if !ops.is_empty() {
            out.push(ops);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Recovery is exact and idempotent under arbitrary churn: a cleanly
    /// shut down shard recovers to its final matching, and recovering the
    /// recovered directory again (no new writes) yields the identical state.
    #[test]
    fn recovery_is_exact_and_idempotent(abstract_batches in arb_batches()) {
        let options = EngineOptions::default();
        let batches = resolve(&abstract_batches);
        let canon = oracle(&base_problem(), &batches, &options);
        let dir = temp_dir(&format!("prop_{:x}", abstract_batches.len() * 31 + batches.len()));

        let shard = durable_shard(&dir, &options, 4, None);
        for batch in &batches {
            shard.submit_batch(batch.clone()).unwrap();
            shard.flush().unwrap();
        }
        drop(shard);

        let first = recover_canonical(&dir, &options, 4);
        prop_assert_eq!(&first, canon.last().unwrap(), "recovery must be exact");
        // idempotence: the first recovery truncated tails / collected
        // unreachable generations; a second recovery sees the same truth
        let second = recover_canonical(&dir, &options, 4);
        prop_assert_eq!(&first, &second, "recovery must be idempotent");
        fs::remove_dir_all(&dir).ok();
    }
}
