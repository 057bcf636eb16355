//! # fair-assignment
//!
//! A Rust implementation of **"A Fair Assignment Algorithm for Multiple
//! Preference Queries"** (U, Mamoulis, Mouratidis — PVLDB 2(1), 2009).
//!
//! Multiple users issue preference queries (normalized linear weights over the
//! attributes of a set of objects) *simultaneously*; because an object can be
//! given to only one user, the system must compute a fair 1-1 matching — the
//! **stable marriage** obtained by repeatedly assigning the highest-scoring
//! remaining (function, object) pair. This crate re-exports the whole
//! workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`geom`] | points, MBRs, dominance, linear preference functions |
//! | [`storage`] | simulated 4 KiB pages, LRU buffer, I/O statistics |
//! | [`rtree`] | disk-style R-tree (STR bulk load, insert, delete, queries) |
//! | [`skyline`] | BBS skylines, UpdateSkyline, DeltaSky baseline, the two-skyline function set |
//! | [`topk`] | BRS ranked search, TA reverse top-1, batch best-pair search |
//! | [`assign`] | the assignment algorithms behind the [`Solver`] trait: Brute Force, Chain, **SB**, SB-alt |
//! | [`datagen`] | synthetic workloads (independent / correlated / anti-correlated, Zillow/NBA stand-ins, update streams) |
//! | [`engine`] | the long-lived [`AssignmentEngine`]: incremental re-stabilization under arrivals/departures |
//!
//! The most convenient entry points are re-exported at the top level:
//! [`Problem`], [`solve`] / [`solve_with_metrics`], [`sb`], [`verify_stable`],
//! [`AssignmentEngine`].
//!
//! ```
//! use fair_assignment::{solve, Problem, PreferenceFunction, ObjectRecord};
//! use fair_assignment::geom::{LinearFunction, Point};
//!
//! let problem = Problem::new(
//!     vec![
//!         PreferenceFunction::new(0, LinearFunction::new(vec![0.7, 0.3]).unwrap()),
//!         PreferenceFunction::new(1, LinearFunction::new(vec![0.4, 0.6]).unwrap()),
//!     ],
//!     vec![
//!         ObjectRecord::new(0, Point::from_slice(&[0.9, 0.4])),
//!         ObjectRecord::new(1, Point::from_slice(&[0.3, 0.8])),
//!     ],
//! )
//! .unwrap();
//! let assignment = solve(&problem);
//! assert_eq!(assignment.len(), 2);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub use pref_assign as assign;
pub use pref_datagen as datagen;
pub use pref_engine as engine;
pub use pref_geom as geom;
pub use pref_rtree as rtree;
pub use pref_service as service;
pub use pref_skyline as skyline;
pub use pref_storage as storage;
pub use pref_topk as topk;

pub use pref_assign::{
    brute_force, chain, oracle, sb, solve, solve_with_metrics, verify_stable, Assignment,
    AssignmentResult, BestPairStrategy, BruteForceSolver, ChainSolver, FunctionId,
    MaintenanceStrategy, MatchPair, ObjectRecord, PreferenceFunction, Problem, RunMetrics,
    SbOptions, SbSolver, Solver, StabilityViolation,
};
pub use pref_engine::{AssignmentEngine, EngineOptions};
pub use pref_service::{ServiceConfig, ShardedService, UpdateOp};

#[cfg(test)]
mod tests {
    use super::*;
    use geom::{LinearFunction, Point};

    #[test]
    fn umbrella_reexports_work_together() {
        let functions = datagen::uniform_weight_functions(10, 2, 1);
        let objects = datagen::independent_objects(50, 2, 2);
        let problem = Problem::from_parts(functions, objects).unwrap();
        let assignment = solve(&problem);
        assert_eq!(assignment.len(), 10);
        verify_stable(&problem, &assignment).unwrap();
    }

    #[test]
    fn solve_with_metrics_exposes_the_run_measurements() {
        let functions = datagen::uniform_weight_functions(12, 3, 5);
        let objects = datagen::independent_objects(80, 3, 6);
        let problem = Problem::from_parts(functions, objects).unwrap();
        let result = solve_with_metrics(&problem);
        assert_eq!(result.assignment.len(), 12);
        assert!(result.metrics.object_io.io_accesses() > 0);
        assert!(result.metrics.loops > 0);
        // `solve` is a thin wrapper: same matching, metrics discarded
        assert_eq!(solve(&problem).canonical(), result.assignment.canonical());
    }

    #[test]
    fn streaming_engine_is_reachable_through_the_facade() {
        let functions = datagen::uniform_weight_functions(6, 2, 7);
        let objects = datagen::independent_objects(30, 2, 8);
        let problem = Problem::from_parts(functions, objects).unwrap();
        let mut engine = AssignmentEngine::new(&problem, &EngineOptions::default()).unwrap();
        engine
            .insert_object(ObjectRecord::new(
                1_000,
                geom::Point::from_slice(&[0.95, 0.95]),
            ))
            .unwrap();
        let snapshot = engine.snapshot_problem().unwrap();
        verify_stable(&snapshot, &engine.assignment()).unwrap();
        assert_eq!(
            engine.assignment().canonical(),
            oracle(&snapshot).canonical()
        );
    }

    #[test]
    fn figure1_walkthrough() {
        let problem = Problem::new(
            vec![
                PreferenceFunction::new(0, LinearFunction::new(vec![0.8, 0.2]).unwrap()),
                PreferenceFunction::new(1, LinearFunction::new(vec![0.2, 0.8]).unwrap()),
                PreferenceFunction::new(2, LinearFunction::new(vec![0.5, 0.5]).unwrap()),
            ],
            vec![
                ObjectRecord::new(0, Point::from_slice(&[0.5, 0.6])),
                ObjectRecord::new(1, Point::from_slice(&[0.2, 0.7])),
                ObjectRecord::new(2, Point::from_slice(&[0.8, 0.2])),
                ObjectRecord::new(3, Point::from_slice(&[0.4, 0.4])),
            ],
        )
        .unwrap();
        let assignment = solve(&problem);
        assert_eq!(assignment.object_of(FunctionId(0)).unwrap().0, 2);
        assert_eq!(assignment.object_of(FunctionId(1)).unwrap().0, 1);
        assert_eq!(assignment.object_of(FunctionId(2)).unwrap().0, 0);
    }
}
