//! Passthrough-equivalence smoke test: outside a model run the shim types
//! behave exactly like std on real OS threads — same API, same semantics —
//! whether or not the `model` feature is compiled in. This is what keeps the
//! service's hot path (and the benchmark's `serve-*` workloads) unaffected by
//! the shim.

use pref_sync::{thread, AtomicU64, Condvar, Mutex, Ordering, RaceCell};
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
    let total = Arc::new(Mutex::new(0u64));
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
    let cell = Arc::new(Mutex::new(41u64));
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
    let slot = Arc::new((Mutex::new(None::<u64>), Condvar::new()));
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
