//! The churn stage: a bare `AssignmentEngine` under an update stream, one
//! `UpdateOp` at a time.
//!
//! The stream is replayed on a freshly built engine two or three times. The
//! engine is deterministic, so update `i` does identical work in every
//! replay, and its latency is taken as the fastest of them: on a shared box
//! interference only ever slows a call down, and it would have to hit the
//! same update in every replay to survive.

use crate::inputs::{self, Budget, Spec};
use crate::outcome::{nanos, secs, settled, Check, Primary};
use crate::report::Metrics;
use crate::solve::reference_matching;
use crate::stats::{percentile_us, Stat};
use crate::trace::Tracer;
use pref_assign::{oracle, verify_stable};
use pref_engine::{AssignmentEngine, EngineOptions, UpdateOp};
use std::hint::black_box;
use std::time::Instant;

/// The engine is verified against a fresh solve this often, and at the end.
const VERIFY_EVERY: usize = 1000;

/// Replays of the stream: two, and a third while the first two disagree.
const REPLAYS: std::ops::RangeInclusive<usize> = 2..=3;

/// Default engine options with the repair scan pinned to one thread (see
/// [`crate::solve::solver`]).
pub fn engine_options() -> EngineOptions {
    EngineOptions {
        threads: Some(1),
        ..EngineOptions::default()
    }
}

/// Span name of each kind of update; its latency metrics add `_us_p50/_p99`.
const KINDS: [&str; 4] = [
    "engine.insert_object",
    "engine.remove_object",
    "engine.insert_function",
    "engine.remove_function",
];

fn kind_of(op: &UpdateOp) -> usize {
    match op {
        UpdateOp::InsertObject(_) => 0,
        UpdateOp::RemoveObject(_) => 1,
        UpdateOp::InsertFunction(_) => 2,
        UpdateOp::RemoveFunction(_) => 3,
    }
}

/// Stable, and equal to what a batch solve of the same population gives
/// (and, at smoke size, to the exact oracle).
fn verify_engine(engine: &AssignmentEngine, smoke: bool, at: usize) -> Option<String> {
    let problem = match engine.snapshot_problem() {
        Ok(problem) => problem,
        Err(e) => return Some(format!("engine snapshot after {at} updates: {e}")),
    };
    let assignment = engine.assignment();
    if let Err(v) = verify_stable(&problem, &assignment) {
        return Some(format!(
            "engine matching after {at} updates is not stable: {v:?}"
        ));
    }
    let canonical = assignment.canonical();
    if canonical != reference_matching(&problem) {
        return Some(format!(
            "engine matching after {at} updates differs from SbSolver"
        ));
    }
    if smoke && canonical != oracle(&problem).canonical() {
        return Some(format!(
            "engine matching after {at} updates differs from the oracle"
        ));
    }
    None
}

/// One timed set-up: the problem, its update stream, and the engine.
fn set_up(
    spec: &Spec,
    seed: u64,
    events: usize,
    tracer: &mut Tracer,
    setup_s: &mut Vec<f64>,
    new_ms: &mut Vec<f64>,
) -> (AssignmentEngine, Vec<UpdateOp>) {
    let started = Instant::now();
    tracer.begin("setup");
    let problem = tracer.scope("datagen.problem", |_| inputs::problem(spec, seed, 0));
    let ops = tracer.scope("datagen.update_stream", |_| {
        inputs::churn_ops(spec, &problem, seed, events)
    });
    let new_started = Instant::now();
    let engine = tracer.scope("engine.new", |_| {
        AssignmentEngine::new(&problem, &engine_options())
    });
    new_ms.push(secs(new_started.elapsed()) * 1e3);
    tracer.end();
    setup_s.push(secs(started.elapsed()));
    (engine.expect("generated problems build an engine"), ops)
}

/// Applies `rounds × updates_per_round` stream events to a fresh engine,
/// timing each call, [`REPLAYS`] times over; every replay yields a set-up
/// sample, and further set-ups make up `budget.setups` of them.
pub fn churn_stage(
    spec: &Spec,
    seed: u64,
    budget: &Budget,
    smoke: bool,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> (Primary, Check) {
    let events = budget.rounds * budget.updates_per_round;
    let mut check = Check::default();
    let mut setup_s = Vec::new();
    let mut new_ms = Vec::new();

    // per update: its kind, the fastest latency over the replays, and whether
    // a compaction batch ran inside it (the same in every replay)
    let mut kinds: Vec<usize> = Vec::new();
    let mut best_ns: Vec<u64> = Vec::new();
    let mut compacted: Vec<bool> = Vec::new();
    let mut replay_p50 = Vec::new();
    let mut last: Option<AssignmentEngine> = None;
    for replay in 0..*REPLAYS.end() {
        if replay >= *REPLAYS.start() && settled(&replay_p50) {
            break;
        }
        let (mut engine, ops) = set_up(spec, seed, events, tracer, &mut setup_s, &mut new_ms);
        let first = replay == 0;
        let mut latencies = Vec::with_capacity(ops.len());
        let mut batches_seen = engine.stats().compaction_batches;
        for (i, op) in ops.iter().enumerate() {
            let kind = kind_of(op);
            tracer.begin(KINDS[kind]);
            let started = Instant::now();
            let applied = op.apply(&mut engine);
            let ns = nanos(started.elapsed());
            tracer.end();
            check.expect(applied.err().map(|e| format!("engine refused {op:?}: {e}")));
            latencies.push(ns);
            if first {
                let batches = engine.stats().compaction_batches;
                kinds.push(kind);
                best_ns.push(ns);
                compacted.push(batches > batches_seen);
                batches_seen = batches;
                if (i + 1) % VERIFY_EVERY == 0 || i + 1 == ops.len() {
                    check.expect(verify_engine(&engine, smoke, i + 1));
                }
            } else {
                best_ns[i] = best_ns[i].min(ns);
            }
        }
        if let Some(prior) = &last {
            let same = prior.assignment().canonical() == engine.assignment().canonical();
            check.expect((!same).then(|| format!("replay {replay} ended on another matching")));
        }
        replay_p50.push(percentile_us(&mut latencies, 0.5));
        last = Some(engine);
    }
    let engine = last.expect("at least two replays ran");
    while setup_s.len() < budget.setups {
        black_box(set_up(
            spec,
            seed,
            events,
            tracer,
            &mut setup_s,
            &mut new_ms,
        ));
    }

    let mut export_ns: Vec<u64> = (0..20)
        .map(|_| {
            let started = Instant::now();
            black_box(tracer.scope("engine.export_snapshot", |_| engine.export_snapshot()));
            nanos(started.elapsed())
        })
        .collect();

    let stats = engine.stats();
    let io = engine.update_object_io();
    let updates = stats.updates.max(1) as f64;
    let busy_s: f64 = best_ns.iter().map(|&ns| ns as f64 / 1e9).sum();
    let stall_ns = best_ns
        .iter()
        .zip(&compacted)
        .filter_map(|(&ns, &hit)| hit.then_some(ns))
        .max()
        .unwrap_or(0);
    metrics.put_stat("engine.new_ms", Stat::of_rounds(&new_ms));
    for (kind, name) in KINDS.iter().enumerate() {
        let mut samples: Vec<u64> = best_ns
            .iter()
            .zip(&kinds)
            .filter_map(|(&ns, &k)| (k == kind).then_some(ns))
            .collect();
        for (q, suffix) in [(0.5, "p50"), (0.99, "p99")] {
            metrics.put(
                &format!("{name}_us_{suffix}"),
                percentile_us(&mut samples, q),
            );
        }
    }
    let p50_us = percentile_us(&mut best_ns, 0.5);
    metrics.put("engine.update_us_p50", p50_us);
    metrics.put("engine.update_us_p99", percentile_us(&mut best_ns, 0.99));
    metrics.put("engine.updates_per_s", best_ns.len() as f64 / busy_s);
    metrics.put(
        "engine.repair_rounds_per_update",
        stats.repair_rounds as f64 / updates,
    );
    metrics.put(
        "engine.pairs_retracted_per_update",
        stats.pairs_retracted as f64 / updates,
    );
    metrics.put("engine.update_object_io", io.io_accesses() as f64);
    metrics.put("engine.io_per_update", io.io_accesses() as f64 / updates);
    metrics.put("engine.compaction_batches", stats.compaction_batches as f64);
    metrics.put("engine.physical_deletes", stats.physical_deletes as f64);
    metrics.put("engine.compaction_stall_us_max", stall_ns as f64 / 1e3);
    metrics.put("engine.tombstone_ratio_end", stats.tombstone_ratio());
    metrics.put(
        "engine.tree_records_per_live",
        stats.tree_records as f64 / stats.live_objects.max(1) as f64,
    );
    metrics.put(
        "engine.export_snapshot_us_p50",
        percentile_us(&mut export_ns, 0.5),
    );
    metrics.put("storage.page_writes", io.physical_writes as f64);
    metrics.put(
        "storage.sync_calls",
        engine.total_object_io().sync_calls as f64,
    );

    let primary = Primary {
        setup_s,
        // the median of the per-update bests, beside the replays' own medians
        p50_us: Stat {
            value: p50_us,
            min: p50_us,
            max: Stat::of_rounds(&replay_p50).max,
        },
    };
    (primary, check)
}
