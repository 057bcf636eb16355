//! Versioned snapshot publication: single writer, many lock-free readers.

use crate::durability::Durable;
use crate::snapshot::AssignmentSnapshot;
use pref_sync::{AtomicU64, LockRank, Mutex, Ordering};
use std::sync::Arc;

/// The publication point of one shard: holds the latest
/// [`AssignmentSnapshot`] and its version.
///
/// The writer installs a new snapshot with [`SnapshotCell::publish`], which
/// takes the [`Durable`] token its WAL fsync returned; readers pin snapshots
/// through a [`SnapshotReader`]. The design splits the read
/// path in two:
///
/// * the **hot path** is one `Acquire` load of the version counter — if it
///   equals the version the reader already holds (the overwhelmingly common
///   case between publications), the reader keeps serving from its pinned
///   `Arc` with no lock, no allocation and no shared-cache writes;
/// * the **refresh path** (at most once per published version per reader)
///   briefly takes the slot mutex to clone the new `Arc`. The writer holds
///   that mutex only for the duration of a pointer store, so the refresh is
///   bounded and cannot be blocked behind engine work.
///
/// Safe Rust cannot dereference a raw swapped pointer without a reclamation
/// protocol, so the version counter *is* the atomically swapped publication
/// pointer here: it tells readers, wait-free, whether the slot changed, and
/// the slot itself is only touched when it did. Old snapshots are freed by
/// the last reader that drops its pin (`Arc` reference counting) — the
/// writer never blocks on readers, readers never block each other, and a
/// slow reader keeps its consistent snapshot alive instead of blocking the
/// world.
#[derive(Debug)]
pub(crate) struct SnapshotCell {
    /// Version of the snapshot currently in `slot`.
    version: AtomicU64,
    /// The latest published snapshot.
    slot: Mutex<Arc<AssignmentSnapshot>>,
}

impl SnapshotCell {
    /// Creates the cell with its initial snapshot.
    pub(crate) fn new(initial: AssignmentSnapshot) -> Self {
        let version = initial.version();
        Self {
            version: AtomicU64::new(version),
            slot: Mutex::new(Arc::new(initial), LockRank::SnapshotSlot),
        }
    }

    /// Installs a new snapshot (single writer) once `_durable` proves its
    /// batches are on disk. Versions must be strictly increasing;
    /// publishing a stale version is a writer bug and panics.
    pub(crate) fn publish(&self, snapshot: AssignmentSnapshot, _durable: Durable) {
        let version = snapshot.version();
        let mut slot = self.slot.lock();
        assert!(
            version > slot.version(),
            "snapshot versions must be strictly monotonic: {} after {}",
            version,
            slot.version()
        );
        *slot = Arc::new(snapshot);
        // Publish the version while still holding the slot lock: a reader
        // that observes the new version and then takes the lock is
        // guaranteed to find (at least) this snapshot installed.
        // ordering: Release pairs with the Acquire loads in version() and
        // SnapshotReader::snapshot(); it orders the slot update above before
        // the version becomes visible, so version-then-slot readers never
        // see the new version with the old snapshot
        self.version.store(version, Ordering::Release);
    }

    /// The latest published version (one atomic load).
    pub(crate) fn version(&self) -> u64 {
        // ordering: Acquire pairs with the Release store in publish(); any
        // snapshot at or above the returned version is already in the slot
        self.version.load(Ordering::Acquire)
    }

    /// Pins the latest snapshot (slow path: takes the slot lock briefly).
    pub(crate) fn latest(&self) -> Arc<AssignmentSnapshot> {
        self.slot.lock().clone()
    }

    /// Creates a reader pinned to the current snapshot.
    pub(crate) fn reader(self: &Arc<Self>) -> SnapshotReader {
        SnapshotReader {
            cached: self.latest(),
            cell: Arc::clone(self),
        }
    }
}

/// One reader's handle onto a shard's snapshot cell.
///
/// Each reader thread owns its handle (`snapshot()` takes `&mut self` to
/// swap the pin); handles are independent — clone-free reads, strictly
/// monotonic versions per handle.
#[derive(Debug)]
pub struct SnapshotReader {
    cell: Arc<SnapshotCell>,
    cached: Arc<AssignmentSnapshot>,
}

impl SnapshotReader {
    /// The freshest published snapshot: revalidates the pinned version with
    /// one atomic load and only touches the shared slot when it moved.
    /// Returned versions are strictly monotonic across calls on one handle.
    pub fn snapshot(&mut self) -> &AssignmentSnapshot {
        // observing a new version guarantees the slot already holds that
        // snapshot (version() is the Acquire half of publish())
        let published = self.cell.version();
        if published != self.cached.version() {
            let latest = self.cell.latest();
            // the single writer only ever installs newer snapshots, so the
            // pin can only move forward
            if latest.version() > self.cached.version() {
                self.cached = latest;
            }
        }
        &self.cached
    }

    /// The currently pinned snapshot without revalidation (pure local read —
    /// useful when a batch of lookups must be answered from one consistent
    /// snapshot).
    pub fn pinned(&self) -> &AssignmentSnapshot {
        &self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pref_assign::{ObjectRecord, PreferenceFunction, Problem};
    use pref_engine::{AssignmentEngine, EngineOptions};
    use pref_geom::{LinearFunction, Point};

    fn engine() -> AssignmentEngine {
        let problem = Problem::new(
            vec![PreferenceFunction::new(
                0,
                LinearFunction::new(vec![0.5, 0.5]).unwrap(),
            )],
            vec![
                ObjectRecord::new(0, Point::from_slice(&[0.9, 0.9])),
                ObjectRecord::new(1, Point::from_slice(&[0.1, 0.1])),
            ],
        )
        .unwrap();
        AssignmentEngine::new(&problem, &EngineOptions::default()).unwrap()
    }

    #[test]
    fn readers_see_publications_in_version_order() {
        let mut engine = engine();
        let cell = Arc::new(SnapshotCell::new(AssignmentSnapshot::from_export(
            engine.export_snapshot(),
            1,
        )));
        let mut reader = cell.reader();
        assert_eq!(reader.snapshot().version(), 1);
        assert_eq!(reader.pinned().version(), 1);

        engine
            .insert_object(ObjectRecord::new(7, Point::from_slice(&[0.95, 0.95])))
            .unwrap();
        cell.publish(
            AssignmentSnapshot::from_export(engine.export_snapshot(), 2),
            Durable::in_memory(),
        );
        assert_eq!(cell.version(), 2);
        // pinned stays at 1 until revalidation, then moves forward
        assert_eq!(reader.pinned().version(), 1);
        assert_eq!(reader.snapshot().version(), 2);
        assert_eq!(reader.snapshot().version(), 2);
        // a fresh reader starts at the latest snapshot
        assert_eq!(cell.reader().pinned().version(), 2);
    }

    #[test]
    #[should_panic(expected = "strictly monotonic")]
    fn stale_publications_panic() {
        let engine = engine();
        let cell = SnapshotCell::new(AssignmentSnapshot::from_export(engine.export_snapshot(), 3));
        cell.publish(
            AssignmentSnapshot::from_export(engine.export_snapshot(), 3),
            Durable::in_memory(),
        );
    }
}
