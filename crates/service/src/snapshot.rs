//! Immutable, versioned snapshots of a shard's assignment state.

use pref_assign::{
    verify_stable, AssignedFunctions, AssignedObjects, AssignmentView, FunctionId, ObjectRecord,
    PreferenceFunction, Problem, ProblemError, StabilityViolation,
};
use pref_engine::{EngineSnapshot, EngineStats};
use pref_rtree::RecordId;

/// One immutable snapshot of a shard's state, published after a batch of
/// updates was applied.
///
/// A snapshot is self-contained: the matching in compact CSR form
/// ([`AssignmentView`]) for allocation-free point lookups, plus the full live
/// populations, so consumers can rebuild the exact [`Problem`] the matching
/// answers for — that is what the stress battery uses to run
/// [`verify_stable`] against every observed snapshot, and what a restart
/// needs to rebuild a shard from its last published state.
///
/// Versions start at 1 (the initial stabilization) and increase by exactly 1
/// per publication — a publication covers one or more *whole* batches, never
/// a partial one. All methods take `&self`; the snapshot never changes after
/// publication.
#[derive(Debug, Clone)]
pub struct AssignmentSnapshot {
    version: u64,
    view: AssignmentView,
    functions: Vec<PreferenceFunction>,
    objects: Vec<ObjectRecord>,
    stats: EngineStats,
}

impl AssignmentSnapshot {
    /// Builds the snapshot from an engine export (writer thread only).
    pub(crate) fn from_export(export: EngineSnapshot, version: u64) -> Self {
        let view = export.view();
        Self {
            version,
            view,
            functions: export.functions,
            objects: export.objects,
            stats: export.stats,
        }
    }

    /// The snapshot's version: strictly monotonic per shard, one step per
    /// publication.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The matching as a compact read-only view.
    pub fn view(&self) -> &AssignmentView {
        &self.view
    }

    /// The objects currently assigned to a function, best score first —
    /// `None` for a function this shard does not know, an empty iterator for
    /// a known but currently unassigned function. Zero locks, zero
    /// allocation.
    pub fn assignment_of(&self, function: FunctionId) -> Option<AssignedObjects<'_>> {
        self.view.objects_of(function)
    }

    /// The functions an object is currently assigned to, best score first.
    /// Zero locks, zero allocation.
    pub fn functions_of(&self, object: RecordId) -> Option<AssignedFunctions<'_>> {
        self.view.functions_of(object)
    }

    /// Engine stats (lifetime counters + gauges) at publication time.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The live preference functions at publication time.
    pub fn functions(&self) -> &[PreferenceFunction] {
        &self.functions
    }

    /// The live objects at publication time.
    pub fn objects(&self) -> &[ObjectRecord] {
        &self.objects
    }

    /// Rebuilds the exact [`Problem`] this snapshot's matching answers for
    /// (allocates; meant for verification, diagnostics and restarts — not
    /// the read hot path). `None` when a population is empty.
    pub fn to_problem(&self) -> Option<Problem> {
        Problem::new(self.functions.clone(), self.objects.clone()).ok()
    }

    /// Verifies that the snapshot's matching is a stable assignment for the
    /// snapshot's own problem (quadratic; test / audit use). Only a genuinely
    /// empty population is trivially stable — a snapshot whose problem fails
    /// to rebuild for any other reason (duplicate ids, mismatched
    /// dimensionalities) is corrupted state and must surface as a violation,
    /// not pass silently.
    pub fn verify(&self) -> Result<(), StabilityViolation> {
        match Problem::new(self.functions.clone(), self.objects.clone()) {
            Ok(problem) => verify_stable(&problem, &self.view.to_assignment()),
            // an empty population has an empty (trivially stable) matching
            Err(ProblemError::Empty) => Ok(()),
            Err(e) => Err(StabilityViolation::UnknownId(format!(
                "snapshot cannot rebuild its own problem: {e}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pref_engine::{AssignmentEngine, EngineOptions};
    use pref_geom::{LinearFunction, Point};

    fn snapshot() -> AssignmentSnapshot {
        let problem = Problem::new(
            vec![
                PreferenceFunction::new(0, LinearFunction::new(vec![0.8, 0.2]).unwrap()),
                PreferenceFunction::new(1, LinearFunction::new(vec![0.2, 0.8]).unwrap()),
            ],
            vec![
                ObjectRecord::new(0, Point::from_slice(&[0.5, 0.6])),
                ObjectRecord::new(1, Point::from_slice(&[0.2, 0.7])),
                ObjectRecord::new(2, Point::from_slice(&[0.8, 0.2])),
            ],
        )
        .unwrap();
        let engine = AssignmentEngine::new(&problem, &EngineOptions::default()).unwrap();
        AssignmentSnapshot::from_export(engine.export_snapshot(), 1)
    }

    #[test]
    fn snapshot_answers_point_lookups_and_verifies() {
        let snap = snapshot();
        assert_eq!(snap.version(), 1);
        assert_eq!(snap.view().len(), 2);
        assert_eq!(snap.functions().len(), 2);
        assert_eq!(snap.objects().len(), 3);
        snap.verify().unwrap();

        let (object, score) = snap.assignment_of(FunctionId(0)).unwrap().next().unwrap();
        assert_eq!(object, RecordId(2));
        assert!((score - 0.68).abs() < 1e-12);
        let mut functions = snap.functions_of(RecordId(1)).unwrap();
        assert_eq!(functions.next().map(|(f, _)| f), Some(FunctionId(1)));

        // unknown vs. known-but-unmatched
        assert!(snap.assignment_of(FunctionId(99)).is_none());
        assert_eq!(snap.functions_of(RecordId(0)).unwrap().len(), 0);

        // the snapshot can rebuild its own problem
        let problem = snap.to_problem().unwrap();
        assert_eq!(problem.num_functions(), 2);
        assert_eq!(problem.num_objects(), 3);
        assert_eq!(snap.stats().live_objects, 3);
    }
}
