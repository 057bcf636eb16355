//! Lock ranks: the workspace's lock order, checked where locks are taken
//! (see the crate docs).

use std::cell::RefCell;
use std::panic::Location;

/// One rank per program lock. Declaration order is the lock order: a thread
/// takes locks in strictly increasing rank, so two locks of one rank are
/// never held together and no lock-order deadlock can form. Test mutexes
/// reuse these ranks.
///
/// The check runs before the lock is taken, so it reports an inversion on
/// every run that executes it, deadlocking or not, and it sees through
/// calls, closures and trait objects. Guards may drop in any order, and
/// [`Condvar::wait`](crate::Condvar::wait) keeps its lock's entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockRank {
    /// A `pref_service` shard's `Progress.state`. `ShardHandle::stats` pins
    /// the latest snapshot while holding it, so it ranks below the slot.
    ProgressState,
    /// `pref_service`'s `SnapshotCell.slot`.
    SnapshotSlot,
    /// `pref_service`'s `UpdateQueue.state`.
    UpdateQueue,
    /// `pref_net`'s `AdmissionGate.slots`.
    AdmissionSlots,
    /// `pref_net`'s server connection table, `conns`.
    ServerConns,
    /// One worker deque of the [`WorkStealingPool`](crate::WorkStealingPool)
    /// (`queues`); a thread never holds two.
    PoolQueue,
    /// The pool's admission `gate`.
    PoolGate,
    /// A pool batch's `remaining` counter.
    PoolRemaining,
    /// A pool batch's `results` slots.
    PoolResults,
}

type Site = &'static Location<'static>;

thread_local! {
    /// The ranks this thread holds with the sites that took them. Each
    /// push outranks every entry, so the list is sorted ascending.
    static HELD: RefCell<Vec<(LockRank, Site)>> = const { RefCell::new(Vec::new()) };
}

/// This thread's claim on one rank; a guard carries it and drops it.
#[derive(Debug)]
pub(crate) struct Held(LockRank);

impl Held {
    /// Records `rank` as held, taken at the caller's `#[track_caller]`
    /// site. Panics naming both sites if this thread already holds a
    /// rank ≥ `rank`.
    #[track_caller]
    pub(crate) fn new(rank: LockRank) -> Self {
        let site = Location::caller();
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&(top, top_site)) = held.last().filter(|(top, _)| *top >= rank) {
                panic!(
                    "lock rank violation: taking {rank:?} at {site} while holding {top:?} \
                     from {top_site} (locks must be taken in increasing LockRank order)"
                );
            }
            held.push((rank, site));
        });
        Held(rank)
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        // `try_with`: a guard dropped during thread teardown may outlive
        // the list
        let _ = HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            if let Some(at) = held.iter().position(|(rank, _)| *rank == self.0) {
                held.remove(at);
            }
        });
    }
}
