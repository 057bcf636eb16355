//! The primitives behind the crate's exports, one implementation for every
//! build.
//!
//! Each type carries an optional registration made at construction time: if a
//! model run was active on the constructing thread, operations from model
//! threads route through the run's scheduler; otherwise (no run, or a foreign
//! thread) they delegate straight to std after one check of that
//! registration. So one binary runs the wall-clock stress tests and the
//! benchmark on real threads and the model scenarios under the scheduler.

use crate::model::{current, Scheduler};
use crate::rank::{Held, LockRank};
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};

#[derive(Debug, Clone)]
struct ObjRef {
    sched: Arc<Scheduler>,
    id: usize,
}

/// Registration made iff a model run is active on the constructing thread.
fn register(f: impl FnOnce(&Scheduler) -> usize) -> Option<ObjRef> {
    current().map(|ctx| ObjRef {
        id: f(&ctx.sched),
        sched: ctx.sched,
    })
}

/// An op routes through the scheduler iff the object is registered AND the
/// calling thread belongs to the same run.
#[inline]
fn route(obj: &Option<ObjRef>) -> Option<(Arc<Scheduler>, usize, usize)> {
    let obj = obj.as_ref()?;
    let ctx = current()?;
    Arc::ptr_eq(&ctx.sched, &obj.sched).then(|| (Arc::clone(&obj.sched), obj.id, ctx.tid))
}

/// Shim over [`std::sync::atomic::AtomicU64`].
#[derive(Debug)]
pub struct AtomicU64 {
    inner: std::sync::atomic::AtomicU64,
    obj: Option<ObjRef>,
}

impl Default for AtomicU64 {
    fn default() -> Self {
        Self::new(0)
    }
}

impl AtomicU64 {
    /// Creates the atomic with an initial value.
    pub fn new(value: u64) -> Self {
        Self {
            inner: std::sync::atomic::AtomicU64::new(value),
            obj: register(Scheduler::register_atomic),
        }
    }

    /// Atomic load with the given ordering.
    #[inline]
    pub fn load(&self, order: Ordering) -> u64 {
        match route(&self.obj) {
            Some((sched, id, tid)) => sched.atomic_load(tid, id, &self.inner, order),
            None => self.inner.load(order),
        }
    }

    /// Atomic store with the given ordering.
    #[inline]
    pub fn store(&self, value: u64, order: Ordering) {
        match route(&self.obj) {
            Some((sched, id, tid)) => sched.atomic_store(tid, id, &self.inner, value, order),
            None => self.inner.store(value, order),
        }
    }

    /// Atomic add; returns the previous value.
    #[inline]
    pub fn fetch_add(&self, value: u64, order: Ordering) -> u64 {
        match route(&self.obj) {
            Some((sched, id, tid)) => sched.atomic_rmw(tid, id, &self.inner, value, false, order),
            None => self.inner.fetch_add(value, order),
        }
    }

    /// Atomic subtract; returns the previous value.
    #[inline]
    pub fn fetch_sub(&self, value: u64, order: Ordering) -> u64 {
        match route(&self.obj) {
            Some((sched, id, tid)) => sched.atomic_rmw(tid, id, &self.inner, value, true, order),
            None => self.inner.fetch_sub(value, order),
        }
    }
}

/// Shim over [`std::sync::Mutex`]. [`Mutex::lock`] recovers from poisoning
/// instead of returning a `Result` (see the crate docs for why).
#[derive(Debug)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
    obj: Option<ObjRef>,
    rank: LockRank,
}

/// Guard returned by [`Mutex::lock`]; releases the lock on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    routed: Option<(Arc<Scheduler>, usize, usize)>,
    /// This thread's rank entry; `Condvar::wait` moves it to the new guard.
    held: Option<Held>,
}

impl<T> Mutex<T> {
    /// Creates the mutex owning `value`, at `rank` in the lock order.
    pub fn new(value: T, rank: LockRank) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
            obj: register(Scheduler::register_mutex),
            rank,
        }
    }

    /// Acquires the lock, blocking until it is free. A poisoned lock (a
    /// thread panicked while holding it) is recovered, not propagated.
    ///
    /// # Panics
    /// If this thread holds a lock of this rank or a higher one (see
    /// [`LockRank`]); in a model run, on every schedule it explores.
    #[inline]
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        // the rank check runs before the thread can block
        let held = Held::new(self.rank);
        let routed = route(&self.obj);
        if let Some((sched, id, tid)) = &routed {
            // the scheduler blocks until this thread is granted the lock;
            // the std lock below is then uncontended by construction
            sched.mutex_lock(*tid, *id);
        }
        MutexGuard {
            lock: self,
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
            routed,
            held: Some(held),
        }
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        match &self.inner {
            Some(guard) => guard,
            None => unreachable!("guard accessed after release"),
        }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.inner {
            Some(guard) => guard,
            None => unreachable!("guard accessed after release"),
        }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        // release the std lock before telling the scheduler, so the next
        // granted thread finds it free
        self.inner = None;
        if let Some((sched, id, tid)) = self.routed.take() {
            sched.mutex_unlock(tid, id);
        }
    }
}

/// Shim over [`std::sync::Condvar`], paired with the shim [`Mutex`].
#[derive(Debug)]
pub struct Condvar {
    inner: std::sync::Condvar,
    obj: Option<ObjRef>,
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl Condvar {
    /// Creates the condition variable.
    pub fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
            obj: register(Scheduler::register_condvar),
        }
    }

    /// Atomically releases the guard and blocks until notified; re-acquires
    /// before returning. Spurious wakeups are possible, exactly as with std —
    /// always wait in a predicate loop. (The model scheduler itself never
    /// injects spurious wakeups; its FIFO wakeup order is one fixed
    /// refinement of the many the exploration covers.)
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        // the lock is held again on return: its rank entry stays
        let held = guard.held.take();
        let cv = route(&self.obj);
        match (cv, guard.routed.take()) {
            (Some((sched, cv_id, tid)), Some((_, mutex_id, _))) => {
                let lock = guard.lock;
                // drop the std guard without a model unlock (routed already
                // taken): condvar_wait releases the model lock atomically
                drop(guard);
                sched.condvar_wait(tid, cv_id, mutex_id);
                // granted the re-acquire: the std lock is free for us
                MutexGuard {
                    lock,
                    inner: Some(lock.inner.lock().unwrap_or_else(PoisonError::into_inner)),
                    routed: Some((sched, mutex_id, tid)),
                    held,
                }
            }
            (_, routed) => {
                let lock = guard.lock;
                let inner = match guard.inner.take() {
                    Some(inner) => inner,
                    None => unreachable!("guard accessed after release"),
                };
                // every field taken: dropping the shell is a no-op
                drop(guard);
                // plain std wait; `routed` (if any) moves to the new guard so
                // a model-held lock is still released on drop
                MutexGuard {
                    lock,
                    inner: Some(
                        self.inner
                            .wait(inner)
                            .unwrap_or_else(PoisonError::into_inner),
                    ),
                    routed,
                    held,
                }
            }
        }
    }

    /// Wakes one waiter (FIFO under the model scheduler).
    #[inline]
    pub fn notify_one(&self) {
        match route(&self.obj) {
            Some((sched, id, tid)) => sched.condvar_notify(tid, id, false),
            None => self.inner.notify_one(),
        }
    }

    /// Wakes every waiter.
    #[inline]
    pub fn notify_all(&self) {
        match route(&self.obj) {
            Some((sched, id, tid)) => sched.condvar_notify(tid, id, true),
            None => self.inner.notify_all(),
        }
    }
}

/// Shared plain data whose accesses the model checker race-checks.
///
/// Outside a model run this is a small mutex-backed cell (it is meant for
/// test scenarios and mutation twins, not hot paths). In a model run every
/// [`RaceCell::get`] / [`RaceCell::set`] is checked to be ordered
/// (happens-before) after the last write; unordered access is reported as a
/// data race with the publishing/reading thread names.
#[derive(Debug)]
pub struct RaceCell<T: Clone> {
    inner: std::sync::Mutex<T>,
    obj: Option<ObjRef>,
}

impl<T: Clone + Default> Default for RaceCell<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: Clone> RaceCell<T> {
    /// Creates the cell owning `value`.
    pub fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
            obj: register(Scheduler::register_cell),
        }
    }

    /// Reads (a clone of) the current value.
    pub fn get(&self) -> T {
        if let Some((sched, id, tid)) = route(&self.obj) {
            sched.cell_read(tid, id);
        }
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Replaces the current value.
    pub fn set(&self, value: T) {
        if let Some((sched, id, tid)) = route(&self.obj) {
            sched.cell_write(tid, id);
        }
        *self.inner.lock().unwrap_or_else(PoisonError::into_inner) = value;
    }
}

/// Shim over [`std::thread`]: spawn, named builders, join handles, yield.
pub mod thread {
    use crate::model::{current, describe_panic, set_ctx, Ctx, Scheduler};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Mutex as StdMutex, PoisonError};

    enum Handle<T> {
        Std(std::thread::JoinHandle<T>),
        Model {
            os: std::thread::JoinHandle<()>,
            sched: Arc<Scheduler>,
            tid: usize,
            slot: Arc<StdMutex<Option<T>>>,
        },
    }

    impl<T> std::fmt::Debug for Handle<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                Handle::Std(_) => f.write_str("JoinHandle(std)"),
                Handle::Model { tid, .. } => write!(f, "JoinHandle(model t{tid})"),
            }
        }
    }

    /// Shim over [`std::thread::JoinHandle`].
    #[derive(Debug)]
    pub struct JoinHandle<T> {
        inner: Handle<T>,
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread to finish; `Err` carries the panic payload.
        pub fn join(self) -> std::thread::Result<T> {
            match self.inner {
                Handle::Std(handle) => handle.join(),
                Handle::Model {
                    os,
                    sched,
                    tid,
                    slot,
                } => {
                    if let Some(ctx) = current() {
                        if Arc::ptr_eq(&ctx.sched, &sched) {
                            // model-side join: blocks under the scheduler
                            // until the target thread finished
                            sched.join_thread(ctx.tid, tid);
                        }
                    }
                    os.join()?;
                    let value = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
                    match value {
                        Some(v) => Ok(v),
                        // exited by panic but the payload was consumed by
                        // the model wrapper: surface a placeholder payload
                        None => Err(Box::new(format!("model thread t{tid} panicked"))),
                    }
                }
            }
        }
    }

    fn spawn_inner<F, T>(name: Option<String>, f: F) -> std::io::Result<JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let builder = match &name {
            Some(n) => std::thread::Builder::new().name(n.clone()),
            None => std::thread::Builder::new(),
        };
        if let Some(ctx) = current() {
            let display = name.as_deref().unwrap_or("worker");
            let tid = ctx.sched.spawn_thread(ctx.tid, display);
            let sched = Arc::clone(&ctx.sched);
            let slot = Arc::new(StdMutex::new(None));
            let slot_writer = Arc::clone(&slot);
            let worker = Arc::clone(&sched);
            let os = builder.spawn(move || {
                set_ctx(Some(Ctx {
                    sched: Arc::clone(&worker),
                    tid,
                }));
                worker.wait_first_grant(tid);
                match catch_unwind(AssertUnwindSafe(f)) {
                    Ok(value) => {
                        *slot_writer.lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
                        worker.thread_exit(tid, None);
                    }
                    Err(payload) => {
                        let (msg, is_check) = describe_panic(payload.as_ref());
                        worker.thread_exit(tid, Some((msg, is_check)));
                        set_ctx(None);
                        // propagate so the join handle reports Err, exactly
                        // like a std thread panic (no panic-hook noise:
                        // resume_unwind skips the hook)
                        std::panic::resume_unwind(payload);
                    }
                }
                set_ctx(None);
            })?;
            Ok(JoinHandle {
                inner: Handle::Model {
                    os,
                    sched,
                    tid,
                    slot,
                },
            })
        } else {
            Ok(JoinHandle {
                inner: Handle::Std(builder.spawn(f)?),
            })
        }
    }

    /// Shim over [`std::thread::Builder`].
    #[derive(Debug, Default)]
    pub struct Builder {
        name: Option<String>,
    }

    impl Builder {
        /// Creates a builder with default parameters.
        pub fn new() -> Self {
            Self::default()
        }

        /// Names the thread-to-be.
        pub fn name(mut self, name: String) -> Self {
            self.name = Some(name);
            self
        }

        /// Spawns the thread; fails only if the OS refuses the spawn.
        pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            spawn_inner(self.name, f)
        }
    }

    /// Shim over [`std::thread::spawn`].
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match spawn_inner(None, f) {
            Ok(handle) => handle,
            Err(e) => panic!("failed to spawn thread: {e}"),
        }
    }

    /// Shim over [`std::thread::yield_now`] — a scheduling hint in real
    /// builds, an explicit schedule point in model runs.
    pub fn yield_now() {
        match current() {
            Some(ctx) => ctx.sched.yield_point(ctx.tid),
            None => std::thread::yield_now(),
        }
    }

    /// Shim over [`std::thread::panicking`]: true while the current thread
    /// is unwinding. Model threads run on real OS threads (the scheduler
    /// only gates *when* they run), so the std answer is accurate inside a
    /// model run too — an injected writer crash unwinds the OS thread that
    /// hosts the model thread.
    pub fn panicking() -> bool {
        std::thread::panicking()
    }
}
