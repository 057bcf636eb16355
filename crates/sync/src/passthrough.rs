//! Zero-cost std passthroughs (compiled when the `model` feature is off).
//!
//! Every type here is a newtype over its `std::sync` counterpart with
//! `#[inline]` delegation; the only semantic difference is that lock
//! poisoning is recovered instead of surfaced (see the crate docs). Debug
//! builds add the lock-rank check to [`Mutex::lock`]; release builds carry
//! neither the rank nor the check.

#[cfg(debug_assertions)]
use crate::rank::Held;
use crate::LockRank;
use std::sync::atomic::Ordering;
use std::sync::PoisonError;

/// Shim over [`std::sync::atomic::AtomicU64`].
#[derive(Debug, Default)]
pub struct AtomicU64 {
    inner: std::sync::atomic::AtomicU64,
}

impl AtomicU64 {
    /// Creates the atomic with an initial value.
    #[inline]
    pub fn new(value: u64) -> Self {
        Self {
            inner: std::sync::atomic::AtomicU64::new(value),
        }
    }

    /// Atomic load with the given ordering.
    #[inline]
    pub fn load(&self, order: Ordering) -> u64 {
        self.inner.load(order)
    }

    /// Atomic store with the given ordering.
    #[inline]
    pub fn store(&self, value: u64, order: Ordering) {
        self.inner.store(value, order);
    }

    /// Atomic add; returns the previous value.
    #[inline]
    pub fn fetch_add(&self, value: u64, order: Ordering) -> u64 {
        self.inner.fetch_add(value, order)
    }

    /// Atomic subtract; returns the previous value.
    #[inline]
    pub fn fetch_sub(&self, value: u64, order: Ordering) -> u64 {
        self.inner.fetch_sub(value, order)
    }
}

/// Shim over [`std::sync::Mutex`]. [`Mutex::lock`] recovers from poisoning
/// instead of returning a `Result` (see the crate docs for why).
#[derive(Debug)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
    #[cfg(debug_assertions)]
    rank: LockRank,
}

/// Guard returned by [`Mutex::lock`]; releases the lock on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    inner: std::sync::MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    held: Held,
}

impl<T> Mutex<T> {
    /// Creates the mutex owning `value`, at `rank` in the lock order.
    #[inline]
    pub fn new(value: T, rank: LockRank) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = rank;
        Self {
            inner: std::sync::Mutex::new(value),
            #[cfg(debug_assertions)]
            rank,
        }
    }

    /// Acquires the lock, blocking until it is free. A poisoned lock (a
    /// thread panicked while holding it) is recovered, not propagated.
    ///
    /// # Panics
    /// In debug builds, if this thread holds a lock of this rank or a higher
    /// one (see [`LockRank`]).
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            // the rank check runs before the thread can block
            #[cfg(debug_assertions)]
            held: Held::new(self.rank),
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Shim over [`std::sync::Condvar`], paired with the shim [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates the condition variable.
    #[inline]
    pub fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically releases the guard and blocks until notified; re-acquires
    /// before returning. Spurious wakeups are possible, exactly as with std —
    /// always wait in a predicate loop.
    #[inline]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        MutexGuard {
            inner: self
                .inner
                .wait(guard.inner)
                .unwrap_or_else(PoisonError::into_inner),
            // the lock is held again on return: its rank entry stays
            #[cfg(debug_assertions)]
            held: guard.held,
        }
    }

    /// Wakes one waiter.
    #[inline]
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    #[inline]
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// Shared plain data whose accesses the model checker race-checks.
///
/// In passthrough builds this is a small mutex-backed cell (it is meant for
/// test scenarios and mutation twins, not hot paths). In model mode every
/// [`RaceCell::get`] / [`RaceCell::set`] is checked to be ordered (in the
/// happens-before sense) after the last write — the checker's stand-in for
/// "snapshot contents read without being ordered after the publishing
/// store".
#[derive(Debug, Default)]
pub struct RaceCell<T: Clone> {
    inner: std::sync::Mutex<T>,
}

impl<T: Clone> RaceCell<T> {
    /// Creates the cell owning `value`.
    #[inline]
    pub fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Reads (a clone of) the current value.
    #[inline]
    pub fn get(&self) -> T {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Replaces the current value.
    #[inline]
    pub fn set(&self, value: T) {
        *self.inner.lock().unwrap_or_else(PoisonError::into_inner) = value;
    }
}

/// Shim over [`std::thread`]: spawn, named builders, join handles, yield.
pub mod thread {
    /// Shim over [`std::thread::JoinHandle`].
    #[derive(Debug)]
    pub struct JoinHandle<T> {
        inner: std::thread::JoinHandle<T>,
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread to finish; `Err` carries the panic payload.
        #[inline]
        pub fn join(self) -> std::thread::Result<T> {
            self.inner.join()
        }
    }

    /// Shim over [`std::thread::Builder`].
    #[derive(Debug)]
    pub struct Builder {
        inner: std::thread::Builder,
    }

    impl Default for Builder {
        #[inline]
        fn default() -> Self {
            Self::new()
        }
    }

    impl Builder {
        /// Creates a builder with default parameters.
        #[inline]
        pub fn new() -> Self {
            Self {
                inner: std::thread::Builder::new(),
            }
        }

        /// Names the thread-to-be.
        #[inline]
        pub fn name(self, name: String) -> Self {
            Self {
                inner: self.inner.name(name),
            }
        }

        /// Spawns the thread; fails only if the OS refuses the spawn.
        #[inline]
        pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            Ok(JoinHandle {
                inner: self.inner.spawn(f)?,
            })
        }
    }

    /// Shim over [`std::thread::spawn`].
    #[inline]
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        JoinHandle {
            inner: std::thread::spawn(f),
        }
    }

    /// Shim over [`std::thread::yield_now`] — a scheduling hint in real
    /// builds, an explicit schedule point in model runs.
    #[inline]
    pub fn yield_now() {
        std::thread::yield_now();
    }

    /// Shim over [`std::thread::panicking`]: true while the current thread
    /// is unwinding. Drop guards use it to tell a crash exit from a clean
    /// one (model threads run on real OS threads, so the std answer is
    /// accurate in both modes).
    #[inline]
    pub fn panicking() -> bool {
        std::thread::panicking()
    }
}
