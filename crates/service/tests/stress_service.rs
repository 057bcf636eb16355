//! Concurrency stress battery: many readers against a live, churning service.
//!
//! One producer thread drives thousands of updates (seeded streams plus
//! atomically-submitted "cohort" batches) into a two-shard service while
//! reader threads hammer the snapshot path. Every reader asserts, for every
//! snapshot it observes:
//!
//! * **versions are strictly monotonic** per reader and shard,
//! * **no torn batch is ever visible** — a cohort of objects submitted in one
//!   batch appears all-or-nothing, never partially,
//! * **every snapshot is internally consistent** — the matching passes
//!   [`verify_stable`] against the snapshot's own problem, and the
//!   function→objects / object→functions CSR directions agree,
//! * **flush is a read-your-writes barrier** — after the final flush, a
//!   fresh snapshot reflects every submitted update,
//! * **each shard compacts on its writer** — the final snapshots report
//!   compaction batches and a tombstone ratio within the 25 % bound.
//!
//! `STRESS_EVENTS` / `STRESS_READERS` raise the load in the CI stress job.

#![allow(
    clippy::disallowed_types,
    reason = "a wall-clock stress test drives real OS threads and std atomics on purpose"
)]

use pref_assign::{ObjectRecord, Problem};
use pref_datagen::{update_stream, ObjectDistribution, UpdateStreamConfig};
use pref_geom::Point;
use pref_rtree::RecordId;
use pref_service::{ServiceConfig, ShardedService, UpdateOp};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Cohort object ids live far above everything the update streams mint.
const COHORT_BASE: u64 = 1_000_000;
/// Objects per cohort: a cohort is inserted (and later removed) in ONE batch,
/// so every snapshot must contain 0 or all 3 of its members.
const COHORT_SIZE: u64 = 3;

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn build_problem(seed: u64) -> Problem {
    let functions = pref_datagen::uniform_weight_functions(8, 3, seed);
    let objects = pref_datagen::independent_objects(50, 3, seed + 1000);
    Problem::from_parts(functions, objects).unwrap()
}

/// The cohort's member ids.
fn cohort_ids(cohort: u64) -> impl Iterator<Item = u64> {
    (0..COHORT_SIZE).map(move |i| COHORT_BASE + cohort * COHORT_SIZE + i)
}

/// Checks one observed snapshot: stability, CSR cross-consistency, and the
/// all-or-nothing cohort invariant.
fn check_snapshot(snapshot: &pref_service::AssignmentSnapshot, shard: usize) {
    snapshot.verify().unwrap_or_else(|v| {
        panic!(
            "shard {shard} snapshot v{} is unstable: {v}",
            snapshot.version()
        )
    });
    // cohort atomicity: group the high-range ids by cohort and demand 0 or all
    let mut cohort_counts: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for object in snapshot.objects() {
        if object.id.0 >= COHORT_BASE {
            *cohort_counts
                .entry((object.id.0 - COHORT_BASE) / COHORT_SIZE)
                .or_insert(0) += 1;
        }
    }
    for (cohort, count) in cohort_counts {
        assert_eq!(
            count,
            COHORT_SIZE,
            "shard {shard} snapshot v{} shows a torn cohort {cohort}: {count} of {COHORT_SIZE} members visible",
            snapshot.version()
        );
    }
    // CSR cross-consistency: both directions describe the same matching
    for function in snapshot.functions() {
        for (object, score) in snapshot
            .assignment_of(function.id)
            .expect("live function is known")
        {
            let reverse: Vec<_> = snapshot
                .functions_of(object)
                .expect("assigned object is known")
                .collect();
            assert!(
                reverse.iter().any(|&(f, s)| f == function.id && s == score),
                "shard {shard} snapshot v{}: pair ({}, {object}) missing from the reverse view",
                snapshot.version(),
                function.id
            );
        }
    }
}

#[test]
fn readers_never_observe_torn_or_unstable_state() {
    let num_events = env_or("STRESS_EVENTS", 2_000);
    let num_readers = env_or("STRESS_READERS", 8);
    let num_shards = 2usize;

    let service = Arc::new(
        ShardedService::start(
            vec![build_problem(71), build_problem(72)],
            &ServiceConfig {
                queue_capacity: 256,
                ..ServiceConfig::default()
            },
        )
        .unwrap(),
    );
    let done = Arc::new(AtomicBool::new(false));
    let snapshots_seen = Arc::new(AtomicU64::new(0));

    // --- reader fleet ------------------------------------------------------
    let readers: Vec<_> = (0..num_readers)
        .map(|r| {
            let service = Arc::clone(&service);
            let done = Arc::clone(&done);
            let snapshots_seen = Arc::clone(&snapshots_seen);
            std::thread::Builder::new()
                .name(format!("stress-reader-{r}"))
                .spawn(move || {
                    let mut reader = service.reader();
                    let mut last_version = vec![0u64; num_shards];
                    let mut observed = 0u64;
                    let mut rounds = 0u64;
                    // ordering: Acquire pairs with the producer's Release
                    // store after its final flush; the snapshots themselves
                    // are synchronized by the service
                    while !done.load(Ordering::Acquire) || rounds < 1 {
                        rounds += 1;
                        for (shard, last) in last_version.iter_mut().enumerate() {
                            let snapshot = reader.snapshot(shard).unwrap();
                            let version = snapshot.version();
                            match version.cmp(last) {
                                std::cmp::Ordering::Less => panic!(
                                    "reader {r} shard {shard}: version went backwards ({version} after {last})"
                                ),
                                std::cmp::Ordering::Equal => continue, // unchanged snapshot
                                std::cmp::Ordering::Greater => {}
                            }
                            *last = version;
                            observed += 1;
                            check_snapshot(snapshot, shard);
                        }
                    }
                    // ordering: a tally, read only after every reader is
                    // joined; the join orders it
                    snapshots_seen.fetch_add(observed, Ordering::Relaxed);
                    observed
                })
                .unwrap()
        })
        .collect();

    // --- one producer: seeded stream batches + atomic cohort batches -------
    let mut streams: Vec<Vec<UpdateOp>> = (0..num_shards)
        .map(|shard| {
            let problem = build_problem(71 + shard as u64);
            let live_objects: Vec<RecordId> = problem.objects().iter().map(|o| o.id).collect();
            let live_functions: Vec<u64> =
                problem.functions().iter().map(|f| f.id.0 as u64).collect();
            update_stream(
                &UpdateStreamConfig {
                    num_events: num_events / num_shards,
                    dims: 3,
                    distribution: ObjectDistribution::Independent,
                    insert_fraction: 0.5,
                    object_fraction: 0.8,
                    min_objects: 8,
                    min_functions: 2,
                    max_capacity: 2,
                    seed: 4040 + shard as u64,
                },
                &live_objects,
                &live_functions,
            )
            .iter()
            .map(UpdateOp::from_event)
            .collect()
        })
        .collect();

    let mut next_cohort = 0u64;
    let mut live_cohorts: Vec<u64> = Vec::new();
    let mut batch_no = 0usize;
    while streams.iter().any(|s| !s.is_empty()) {
        for (shard, stream) in streams.iter_mut().enumerate() {
            if stream.is_empty() {
                continue;
            }
            // a small stream batch (1..=8 events), applied atomically
            let take = (batch_no % 8) + 1;
            let batch: Vec<UpdateOp> = stream.drain(..take.min(stream.len())).collect();
            service.submit_batch(shard, batch).unwrap();
        }
        // every 4th round: insert a cohort in one batch on shard 0, and
        // remove the oldest live cohort in one batch
        if batch_no.is_multiple_of(4) {
            let cohort = next_cohort;
            next_cohort += 1;
            let batch: Vec<UpdateOp> = cohort_ids(cohort)
                .enumerate()
                .map(|(i, id)| {
                    let c = 0.15 + 0.2 * i as f64;
                    UpdateOp::InsertObject(ObjectRecord::new(
                        id,
                        Point::from_slice(&[c, 1.0 - c, 0.5]),
                    ))
                })
                .collect();
            service.submit_batch(0, batch).unwrap();
            live_cohorts.push(cohort);
            if live_cohorts.len() > 2 {
                let victim = live_cohorts.remove(0);
                let batch: Vec<UpdateOp> = cohort_ids(victim)
                    .map(|id| UpdateOp::RemoveObject(RecordId(id)))
                    .collect();
                service.submit_batch(0, batch).unwrap();
            }
        }
        batch_no += 1;
    }

    // read-your-writes: after the flush a fresh snapshot reflects everything
    service.flush().unwrap();
    // ordering: Release pairs with the readers' Acquire load of `done`
    done.store(true, Ordering::Release);
    let mut total_reader_observed = 0u64;
    for reader in readers {
        total_reader_observed += reader.join().expect("reader panicked");
    }

    let stats = service.stats();
    assert_eq!(
        stats.rejected(),
        0,
        "stream events and cohort batches are all valid: {:?}",
        stats
            .shards
            .iter()
            .filter_map(|s| s.last_rejection.clone())
            .collect::<Vec<_>>()
    );
    assert_eq!(stats.processed(), stats.submitted());
    assert!(stats.submitted() >= num_events as u64);

    // final state: the last flush published everything; check the cohorts
    // that must still be live are exactly the visible ones
    let mut reader = service.reader();
    for shard in 0..num_shards {
        let snapshot = reader.snapshot(shard).unwrap();
        check_snapshot(snapshot, shard);
        // the churn crossed the tombstone bound, and the writer compacted
        // inline: the published gauges show it and the bound holds
        let stats = snapshot.stats();
        assert!(
            stats.compaction_batches > 0,
            "shard {shard} never compacted"
        );
        assert!(
            stats.tombstone_ratio() <= 0.25,
            "shard {shard} tombstone ratio {}",
            stats.tombstone_ratio()
        );
    }
    let snapshot = reader.snapshot(0).unwrap();
    let visible: HashSet<u64> = snapshot
        .objects()
        .iter()
        .filter(|o| o.id.0 >= COHORT_BASE)
        .map(|o| o.id.0)
        .collect();
    let expected: HashSet<u64> = live_cohorts.iter().flat_map(|&c| cohort_ids(c)).collect();
    assert_eq!(visible, expected, "flush barrier must be read-your-writes");

    // the readers actually exercised concurrent snapshots (each saw at least
    // its initial version; collectively far more)
    assert_eq!(
        total_reader_observed,
        // ordering: every reader's add happens-before its join above
        snapshots_seen.load(Ordering::Relaxed)
    );
    assert!(
        total_reader_observed >= num_readers as u64 * num_shards as u64,
        "readers observed too few snapshots: {total_reader_observed}"
    );

    Arc::try_unwrap(service)
        .expect("all clones dropped")
        .shutdown()
        .unwrap();
}

/// A writer that stops mid-stream (service drop without shutdown) must not
/// hang or poison anything: producers fail fast, readers keep serving the
/// last published snapshot.
#[test]
fn dropping_the_service_leaves_readers_serving() {
    let service = ShardedService::start(vec![build_problem(5)], &ServiceConfig::default()).unwrap();
    service
        .submit(
            0,
            UpdateOp::InsertObject(ObjectRecord::new(
                COHORT_BASE,
                Point::from_slice(&[0.9, 0.9, 0.9]),
            )),
        )
        .unwrap();
    service.flush().unwrap();
    let mut reader = service.reader();
    let version = reader.snapshot(0).unwrap().version();
    drop(service); // closes queues and joins writers
    let snapshot = reader.snapshot(0).unwrap();
    assert_eq!(snapshot.version(), version);
    snapshot.verify().unwrap();
    assert!(snapshot
        .objects()
        .iter()
        .any(|o| o.id == RecordId(COHORT_BASE)));
}
