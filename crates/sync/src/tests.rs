//! Self-tests for the model scheduler and the happens-before checker.
//!
//! Each test keeps iteration counts small — they validate the *detector*,
//! not explore real code.

use crate::model::{self, DfsConfig, ModelConfig, ViolationKind};
use crate::{thread, AtomicU64, Condvar, LockRank, Mutex, Ordering, RaceCell};
use std::sync::Arc;

fn cfg(name: &str, iterations: usize) -> ModelConfig {
    let mut cfg = ModelConfig::new(name);
    cfg.iterations = iterations;
    cfg.trace_dir = None; // self-tests expect violations; don't litter target/
    cfg
}

#[test]
fn counters_add_up_across_threads() {
    let report = model::explore(&cfg("counters", 60), || {
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    // ordering: plain counter, nothing published through it
                    counter.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        model::check(
            // ordering: counter read after both joins ordered the increments
            counter.load(Ordering::Relaxed) == 2,
            "both increments visible",
        );
    });
    assert!(report.clean(), "violation: {:?}", report.violation);
    assert!(
        report.distinct_interleavings > 1,
        "scheduler never diverged"
    );
}

#[test]
fn release_acquire_publication_is_clean() {
    let report = model::explore(&cfg("release-acquire", 120), || {
        let data = Arc::new(RaceCell::new(0u64));
        let flag = Arc::new(AtomicU64::new(0));
        let writer = {
            let (data, flag) = (Arc::clone(&data), Arc::clone(&flag));
            thread::spawn(move || {
                data.set(42);
                // ordering: Release publishes the cell write above
                flag.store(1, Ordering::Release);
            })
        };
        // ordering: Acquire pairs with the writer's Release store
        if flag.load(Ordering::Acquire) == 1 {
            model::check(data.get() == 42, "published value visible");
        }
        writer.join().unwrap();
    });
    assert!(report.clean(), "violation: {:?}", report.violation);
}

#[test]
fn relaxed_publication_is_flagged_as_race() {
    let report = model::explore(&cfg("relaxed-publication", 400), || {
        let data = Arc::new(RaceCell::new(0u64));
        let flag = Arc::new(AtomicU64::new(0));
        let writer = {
            let (data, flag) = (Arc::clone(&data), Arc::clone(&flag));
            thread::spawn(move || {
                data.set(42);
                // ordering: deliberately wrong — Relaxed severs the
                // happens-before edge; the checker must flag the read below
                flag.store(1, Ordering::Relaxed);
            })
        };
        // ordering: Acquire with nothing to pair with (the store is Relaxed)
        if flag.load(Ordering::Acquire) == 1 {
            let _ = data.get();
        }
        writer.join().unwrap();
    });
    let violation = report
        .violation
        .expect("relaxed publication must be caught");
    assert_eq!(violation.kind, ViolationKind::DataRace);
    assert!(
        violation.seed.is_some(),
        "random-walk failures carry a seed"
    );
    assert!(!violation.trace.is_empty(), "failures carry a trace");
}

#[test]
fn lock_order_inversion_is_reported_as_rank_violation() {
    // ABBA: the spawned thread takes the locks against the rank order. The
    // check fires before it blocks, so every schedule reports the
    // inversion, not only the ones that interleave into a deadlock.
    let scenario = || {
        let a = Arc::new(Mutex::new((), LockRank::ProgressState));
        let b = Arc::new(Mutex::new((), LockRank::SnapshotSlot));
        let t = {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            thread::spawn(move || {
                let _b = b.lock();
                thread::yield_now();
                let _a = a.lock();
            })
        };
        {
            let _a = a.lock();
            thread::yield_now();
            let _b = b.lock();
        }
        let _ = t.join();
    };
    let config = cfg("abba", 1);
    let mut schedules = std::collections::HashSet::new();
    for seed in 0..40 {
        let violation =
            model::replay(&config, seed, scenario).expect("every schedule reports the inversion");
        assert_eq!(violation.kind, ViolationKind::Panic);
        let message = &violation.message;
        assert!(
            message.contains("taking ProgressState at crates/sync/src/tests.rs:")
                && message.contains("while holding SnapshotSlot from crates/sync/src/tests.rs:"),
            "the report names both acquisition sites: {message}"
        );
        schedules.insert(violation.schedule);
    }
    assert!(schedules.len() > 1, "the seeds never changed the schedule");
}

#[test]
fn a_model_condvar_wait_keeps_its_rank_entry() {
    let report = model::explore(&cfg("wait-keeps-rank", 60), || {
        let pair = Arc::new((Mutex::new(false, LockRank::PoolGate), Condvar::new()));
        // the notifier cannot take the gate before the wait releases it, so
        // every schedule goes through the scheduler's wait
        let mut ready = pair.0.lock();
        let notifier = {
            let pair = Arc::clone(&pair);
            thread::spawn(move || {
                *pair.0.lock() = true;
                pair.1.notify_one();
            })
        };
        while !*ready {
            ready = pair.1.wait(ready);
        }
        let queue = Mutex::new((), LockRank::PoolQueue);
        drop(queue.lock());
        drop(ready);
        notifier.join().unwrap();
    });
    let violation = report.violation.expect("the gate's rank survives the wait");
    assert_eq!(violation.kind, ViolationKind::Panic);
    assert!(
        violation
            .message
            .contains("taking PoolQueue at crates/sync/src/tests.rs:"),
        "{}",
        violation.message
    );
    assert!(violation.message.contains("while holding PoolGate from"));
}

#[test]
fn a_waiter_nobody_notifies_is_reported_as_deadlock() {
    let report = model::explore(&cfg("never-notified", 20), || {
        let pair = Arc::new((Mutex::new(false, LockRank::UpdateQueue), Condvar::new()));
        let waiter = {
            let pair = Arc::clone(&pair);
            thread::spawn(move || {
                let mut ready = pair.0.lock();
                while !*ready {
                    ready = pair.1.wait(ready);
                }
            })
        };
        let _ = waiter.join();
    });
    let violation = report.violation.expect("a waiter nobody wakes deadlocks");
    assert_eq!(violation.kind, ViolationKind::Deadlock);
    assert!(
        violation.message.contains("waiting on cv"),
        "message names the wait: {}",
        violation.message
    );
}

#[test]
fn missed_notify_is_classified_as_lost_wakeup() {
    let report = model::explore(&cfg("lost-wakeup", 400), || {
        let pair = Arc::new((Mutex::new((), LockRank::UpdateQueue), Condvar::new()));
        let done = Arc::new(AtomicU64::new(0));
        let notifier = {
            let (pair, done) = (Arc::clone(&pair), Arc::clone(&done));
            thread::spawn(move || {
                // buggy protocol: flag set and notify fired without holding
                // the mutex the waiter checks under
                // ordering: the bug under test, not the publication
                done.store(1, Ordering::Release);
                pair.1.notify_one();
            })
        };
        let guard = pair.0.lock();
        // ordering: part of the buggy protocol under test
        if done.load(Ordering::Acquire) == 0 {
            // the notify can land right here, before the wait: lost wakeup
            let _guard = pair.1.wait(guard);
        }
        notifier.join().unwrap();
    });
    let violation = report.violation.expect("lost wakeup must be caught");
    assert_eq!(violation.kind, ViolationKind::LostWakeup);
}

#[test]
fn check_failures_report_seed_and_kind() {
    let report = model::explore(&cfg("check-fails", 5), || {
        model::check(false, "always fails");
    });
    let violation = report.violation.expect("check(false) must fail the run");
    assert_eq!(violation.kind, ViolationKind::CheckFailed);
    assert!(violation.message.contains("always fails"));
}

#[test]
fn replay_reproduces_a_failing_seed() {
    let scenario = || {
        let data = Arc::new(RaceCell::new(0u64));
        let flag = Arc::new(AtomicU64::new(0));
        let writer = {
            let (data, flag) = (Arc::clone(&data), Arc::clone(&flag));
            thread::spawn(move || {
                data.set(1);
                // ordering: deliberately wrong (the bug under test)
                flag.store(1, Ordering::Relaxed);
            })
        };
        // ordering: acquire side of the deliberately broken pair
        if flag.load(Ordering::Acquire) == 1 {
            let _ = data.get();
        }
        writer.join().unwrap();
    };
    let config = cfg("replay", 400);
    let report = model::explore(&config, scenario);
    let violation = report.violation.expect("must fail");
    let seed = violation.seed.expect("random-walk failure carries a seed");
    let replayed = model::replay(&config, seed, scenario).expect("same seed, same schedule");
    assert_eq!(replayed.kind, ViolationKind::DataRace);
    let rescheduled =
        model::run_schedule(&config, &violation.schedule, scenario).expect("schedule replays too");
    assert_eq!(rescheduled.kind, ViolationKind::DataRace);
}

#[test]
fn dfs_exhausts_small_scenarios_and_finds_planted_bug() {
    // clean scenario: DFS covers multiple distinct interleavings, no finding
    let clean = model::explore_dfs(&DfsConfig::new("dfs-clean"), || {
        let flag = Arc::new(AtomicU64::new(0));
        let t = {
            let flag = Arc::clone(&flag);
            thread::spawn(move || {
                // ordering: Release publishes thread completion
                flag.store(1, Ordering::Release);
            })
        };
        // ordering: pairs with the Release store above
        let _ = flag.load(Ordering::Acquire);
        t.join().unwrap();
    });
    assert!(clean.clean(), "violation: {:?}", clean.violation);
    assert!(
        clean.distinct_interleavings > 1,
        "DFS explored only one schedule"
    );

    // planted bug: DFS must find the racy interleaving deterministically
    let mut dfs = DfsConfig::new("dfs-bug");
    dfs.trace_dir = None;
    let buggy = model::explore_dfs(&dfs, || {
        let data = Arc::new(RaceCell::new(0u64));
        let flag = Arc::new(AtomicU64::new(0));
        let t = {
            let (data, flag) = (Arc::clone(&data), Arc::clone(&flag));
            thread::spawn(move || {
                data.set(7);
                // ordering: deliberately wrong (the bug under test)
                flag.store(1, Ordering::Relaxed);
            })
        };
        // ordering: acquire side of the deliberately broken pair
        if flag.load(Ordering::Acquire) == 1 {
            let _ = data.get();
        }
        t.join().unwrap();
    });
    let violation = buggy.violation.expect("DFS must find the planted race");
    assert_eq!(violation.kind, ViolationKind::DataRace);
    assert!(violation.seed.is_none(), "DFS failures replay by schedule");
    assert!(!violation.schedule.is_empty());
}

#[test]
fn condvar_handoff_is_clean_under_dfs() {
    let report = model::explore_dfs(&DfsConfig::new("handoff"), || {
        let slot = Arc::new((
            Mutex::new(None::<u64>, LockRank::UpdateQueue),
            Condvar::new(),
        ));
        let producer = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                let mut guard = slot.0.lock();
                *guard = Some(9);
                drop(guard);
                slot.1.notify_one();
            })
        };
        let mut guard = slot.0.lock();
        while guard.is_none() {
            guard = slot.1.wait(guard);
        }
        model::check(*guard == Some(9), "handoff delivers the value");
        drop(guard);
        producer.join().unwrap();
    });
    assert!(report.clean(), "violation: {:?}", report.violation);
}

#[test]
fn expected_panics_are_not_violations() {
    let mut config = cfg("allowed-panic", 20);
    config.allow_panic_from = vec!["doomed".to_string()];
    let report = model::explore(&config, || {
        let t = thread::Builder::new()
            .name("doomed-worker".to_string())
            .spawn(|| panic!("expected failure"))
            .unwrap();
        assert!(t.join().is_err(), "join must surface the panic");
    });
    assert!(
        report.clean(),
        "allowed panic reported: {:?}",
        report.violation
    );
}

#[test]
fn unexpected_panics_are_violations() {
    let report = model::explore(&cfg("panic", 5), || {
        let t = thread::spawn(|| panic!("boom"));
        let _ = t.join();
    });
    let violation = report.violation.expect("stray panic must be a violation");
    assert_eq!(violation.kind, ViolationKind::Panic);
    assert!(violation.message.contains("boom"));
}
