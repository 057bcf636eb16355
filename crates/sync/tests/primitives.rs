//! Std-equivalence smoke test: outside a model run the shim types behave
//! exactly like std on real OS threads — same API, same semantics. These are
//! the primitives the service's hot path (and the benchmark's `serve-*`
//! workloads) run on.
//!
//! The lock-rank tests at the end check the rank order (see `LockRank`),
//! which every build enforces.

use pref_sync::{thread, AtomicU64, Condvar, LockRank, Mutex, Ordering, RaceCell};
use std::sync::Arc;

#[test]
fn atomics_on_real_threads() {
    let counter = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let counter = Arc::clone(&counter);
            thread::spawn(move || {
                for _ in 0..1_000 {
                    // ordering: plain counter, nothing published through it
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // ordering: joins above ordered every increment before this read
    assert_eq!(counter.load(Ordering::Relaxed), 4_000);
}

#[test]
fn store_load_roundtrip_and_fetch_sub() {
    let a = AtomicU64::new(10);
    // ordering: single-threaded round-trip
    a.store(7, Ordering::Release);
    // ordering: single-threaded round-trip
    assert_eq!(a.load(Ordering::Acquire), 7);
    // ordering: single-threaded round-trip
    assert_eq!(a.fetch_sub(3, Ordering::AcqRel), 7);
    // ordering: single-threaded round-trip
    assert_eq!(a.load(Ordering::Relaxed), 4);
}

#[test]
fn mutex_guards_exclusive_access() {
    let total = Arc::new(Mutex::new(0u64, LockRank::PoolResults));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let total = Arc::clone(&total);
            thread::spawn(move || {
                for _ in 0..500 {
                    *total.lock() += 1;
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*total.lock(), 2_000);
}

#[test]
fn mutex_lock_recovers_from_poison() {
    let cell = Arc::new(Mutex::new(41u64, LockRank::PoolResults));
    let poisoner = Arc::clone(&cell);
    let result = thread::spawn(move || {
        let _guard = poisoner.lock();
        panic!("poison the lock");
    })
    .join();
    assert!(result.is_err());
    // std would return Err(PoisonError); the shim recovers the data
    *cell.lock() += 1;
    assert_eq!(*cell.lock(), 42);
}

#[test]
fn condvar_wakes_real_threads() {
    let slot = Arc::new((
        Mutex::new(None::<u64>, LockRank::UpdateQueue),
        Condvar::new(),
    ));
    let producer = {
        let slot = Arc::clone(&slot);
        thread::spawn(move || {
            *slot.0.lock() = Some(13);
            slot.1.notify_all();
        })
    };
    let mut guard = slot.0.lock();
    while guard.is_none() {
        guard = slot.1.wait(guard);
    }
    assert_eq!(*guard, Some(13));
    drop(guard);
    producer.join().unwrap();
}

#[test]
fn race_cell_is_a_plain_cell_outside_runs() {
    let cell = RaceCell::new(vec![1u64, 2, 3]);
    assert_eq!(cell.get(), vec![1, 2, 3]);
    cell.set(vec![4]);
    assert_eq!(cell.get(), vec![4]);
}

#[test]
fn named_builder_spawns_and_returns_values() {
    let handle = thread::Builder::new()
        .name("smoke-worker".to_string())
        .spawn(|| 6 * 7)
        .unwrap();
    assert_eq!(handle.join().unwrap(), 42);
    thread::yield_now();
}

/// Takes and releases `lock`: whatever the caller holds is held across it.
fn lock_and_release(lock: &Mutex<()>) {
    drop(lock.lock());
}

#[test]
#[should_panic(
    expected = "lock rank violation: taking PoolQueue at crates/sync/tests/primitives.rs:"
)]
fn an_inversion_split_across_a_helper_call_panics() {
    let a = Mutex::new((), LockRank::PoolQueue);
    let b = Mutex::new((), LockRank::PoolGate);
    let c = Mutex::new((), LockRank::PoolRemaining);
    {
        // a -> b and b -> c follow the ranks
        let _a = a.lock();
        let _b = b.lock();
    }
    {
        let _b = b.lock();
        let _c = c.lock();
    }
    // c -> a closes the cycle, and only across the call
    let _c = c.lock();
    lock_and_release(&a);
}

#[test]
#[should_panic(expected = "while holding PoolQueue from crates/sync/tests/primitives.rs:")]
fn two_locks_of_one_rank_are_never_held_together() {
    let mine = Mutex::new((), LockRank::PoolQueue);
    let victim = Mutex::new((), LockRank::PoolQueue);
    let _mine = mine.lock();
    let _victim = victim.lock();
}

#[test]
fn guards_may_drop_out_of_order() {
    let queue = Mutex::new(0u64, LockRank::PoolQueue);
    let gate = Mutex::new(0u64, LockRank::PoolGate);
    let remaining = Mutex::new(0u64, LockRank::PoolRemaining);
    let results = Mutex::new(0u64, LockRank::PoolResults);
    let q = queue.lock();
    let r = remaining.lock();
    drop(q);
    // the queue's entry is gone and the counter's stays: a higher rank
    // nests, and the gate, ranked between the two, is still refused
    *results.lock() += 1;
    {
        let taken = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(gate.lock())));
        assert!(taken.is_err(), "the counter's entry left with the queue's");
    }
    drop(r);
    // every entry is gone: the lowest rank may be taken again
    *queue.lock() += 1;
    *gate.lock() += 1;
    assert_eq!((*queue.lock(), *gate.lock(), *results.lock()), (1, 1, 1));
}

#[test]
fn each_thread_has_its_own_held_list() {
    let results = Mutex::new(0u64, LockRank::PoolResults);
    let gate = Arc::new(Mutex::new(0u64, LockRank::PoolGate));
    let held = results.lock();
    // a lower rank on another thread is no inversion of this one's
    let other = Arc::clone(&gate);
    thread::spawn(move || *other.lock() += 1).join().unwrap();
    drop(held);
    assert_eq!(*gate.lock(), 1);
}

#[test]
fn a_condvar_wait_keeps_its_lock_held_for_a_nested_acquire() {
    let pair = Arc::new((Mutex::new(false, LockRank::PoolGate), Condvar::new()));
    let remaining = Mutex::new(0u64, LockRank::PoolRemaining);
    let notifier = {
        let pair = Arc::clone(&pair);
        thread::spawn(move || {
            *pair.0.lock() = true;
            pair.1.notify_all();
        })
    };
    let mut ready = pair.0.lock();
    while !*ready {
        ready = pair.1.wait(ready);
    }
    // the gate is held again after the wait; a higher rank nests under it
    *remaining.lock() += 1;
    // and the wait kept the gate's entry: a lower rank is still refused
    {
        let queue = Mutex::new((), LockRank::PoolQueue);
        let taken = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(queue.lock())));
        assert!(taken.is_err(), "the gate's rank was lost across the wait");
    }
    drop(ready);
    notifier.join().unwrap();
    assert_eq!(*remaining.lock(), 1);
}
