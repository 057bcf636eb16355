//! Restart equivalence: an engine rebuilt from a snapshot of the live state
//! re-solves to the same canonical matching as the long-lived engine.
//!
//! This pins compaction soundness end-to-end: after a churn-heavy stream in
//! which many departures were physically deleted (CondenseTree re-insertions,
//! page frees, pruned-list patches, slab reuse), the surviving *logical*
//! state — live populations, matching — must be exactly the state a fresh
//! process would reach from a clean bulk-load. Any corruption compaction left
//! behind (a lost object, a stale skyline entry influencing a later repair, a
//! wrong capacity) shows up as a canonical mismatch here.

use pref_assign::{all_solvers, oracle, verify_stable};
use pref_datagen::{update_stream, ObjectDistribution, UpdateStreamConfig};
use pref_engine::{AssignmentEngine, EngineOptions};
use pref_rtree::RecordId;

fn run_churn(seed: u64, options: &EngineOptions) -> AssignmentEngine {
    let functions = pref_datagen::uniform_weight_functions(10, 3, seed);
    let objects = pref_datagen::independent_objects(60, 3, seed + 500);
    let problem = pref_assign::Problem::from_parts(functions, objects).unwrap();
    let live_objects: Vec<RecordId> = problem.objects().iter().map(|o| o.id).collect();
    let live_functions: Vec<u64> = problem.functions().iter().map(|f| f.id.0 as u64).collect();
    let events = update_stream(
        &UpdateStreamConfig {
            num_events: 300,
            dims: 3,
            distribution: ObjectDistribution::AntiCorrelated,
            insert_fraction: 0.5,
            object_fraction: 0.85,
            min_objects: 10,
            min_functions: 2,
            max_capacity: 2,
            seed,
        },
        &live_objects,
        &live_functions,
    );
    let mut engine = AssignmentEngine::new(&problem, options).unwrap();
    for event in &events {
        engine.apply(event).unwrap();
    }
    engine
}

#[test]
fn engine_rebuilt_from_snapshot_matches_the_live_engine() {
    for seed in [81u64, 82, 83] {
        let options = EngineOptions::default();
        let engine = run_churn(seed, &options);
        // the run must actually have exercised compaction for this to pin
        // anything
        let stats = engine.stats();
        assert!(
            stats.physical_deletes > 0,
            "seed {seed}: churn never compacted"
        );

        let live = engine.assignment();
        let snapshot = engine.snapshot_problem().unwrap();
        verify_stable(&snapshot, &live).unwrap();

        // 1. a fresh engine bootstrapped from the snapshot (clean bulk-load,
        //    fresh BBS, fresh stabilization) reaches the same matching
        let rebuilt = AssignmentEngine::new(&snapshot, &options).unwrap();
        assert_eq!(
            rebuilt.assignment().canonical(),
            live.canonical(),
            "seed {seed}: restarted engine diverges from the live engine"
        );

        // 2. so does every batch solver on the snapshot, and the oracle
        assert_eq!(oracle(&snapshot).canonical(), live.canonical());
        for solver in all_solvers() {
            let mut tree = snapshot.build_tree(Some(8), 0.02);
            let result = solver.solve(&snapshot, &mut tree);
            assert_eq!(
                result.assignment.canonical(),
                live.canonical(),
                "seed {seed}: {} diverges from the live engine",
                solver.name()
            );
        }

        // 3. the serving-tier restart path (export_snapshot → to_problem)
        //    carries exactly the same state
        let export = engine.export_snapshot();
        let export_problem = export.to_problem().unwrap();
        assert_eq!(export_problem.num_objects(), snapshot.num_objects());
        assert_eq!(export_problem.num_functions(), snapshot.num_functions());
        assert!(export.view().canonical_eq(&live));
        let rebuilt = AssignmentEngine::new(&export_problem, &options).unwrap();
        assert_eq!(rebuilt.assignment().canonical(), live.canonical());
    }
}
