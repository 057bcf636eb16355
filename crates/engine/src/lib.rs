//! A long-lived **online assignment engine** on top of the batch solvers.
//!
//! The paper computes the stable matching once, for a fixed function set `F`
//! and object set `O`. A production service faces continuous traffic: users
//! (preference functions) and objects arrive and depart while the stable
//! matching must stay current. Recomputing from scratch on every update
//! re-pays the full skyline computation and the full stable loop; this crate
//! instead *repairs* the matching incrementally, using exactly the primitives
//! the paper already provides:
//!
//! * **departures** free capacity and resume the stable loop from the
//!   *maintained* free-pool skyline — replenished by the I/O-optimal
//!   `UpdateSkyline` module (Theorem 1), so only R-tree nodes exclusively
//!   dominated by the departed objects are ever read;
//! * **arrivals** are classified against the maintained skyline in memory
//!   (`insert_skyline`, no I/O) and then a reverse top-1 probe over the live
//!   functions finds the pairs the newcomer destabilizes; only those pairs
//!   are repaired, cascade-style, in descending score order;
//! * **churn stays bounded**: departures are tombstoned first (zero I/O),
//!   and once tombstones exceed 25 % of the index the departure that
//!   crossed the bar compacts inline — tombstones are physically deleted
//!   from the R-tree 64 per batch, with every structural effect of the deletion
//!   (freed pages, re-inserted orphans, splits, MBR shrinks) patched into
//!   the skyline's pruned lists, so the index, the pruned lists and the
//!   dense slabs all stay within a constant factor of the live population
//!   without ever re-solving the matching.
//!
//! The engine's repaired matching is — by the greedy-trace argument of
//! Section 3 — *identical* to the batch solvers' output on a snapshot of the
//! current problem; the property tests enforce this against the exact oracle
//! and every [`pref_assign::Solver`] variant.
//!
//! # Quick start
//!
//! ```
//! use pref_assign::{Problem, PreferenceFunction, ObjectRecord, verify_stable};
//! use pref_engine::{AssignmentEngine, EngineOptions};
//! use pref_geom::{LinearFunction, Point};
//! use pref_rtree::RecordId;
//!
//! let problem = Problem::new(
//!     vec![
//!         PreferenceFunction::new(0, LinearFunction::new(vec![0.8, 0.2]).unwrap()),
//!         PreferenceFunction::new(1, LinearFunction::new(vec![0.2, 0.8]).unwrap()),
//!     ],
//!     vec![
//!         ObjectRecord::new(0, Point::from_slice(&[0.5, 0.6])),
//!         ObjectRecord::new(1, Point::from_slice(&[0.2, 0.7])),
//!         ObjectRecord::new(2, Point::from_slice(&[0.8, 0.2])),
//!     ],
//! )
//! .unwrap();
//! let mut engine = AssignmentEngine::new(&problem, &EngineOptions::default()).unwrap();
//! assert_eq!(engine.assignment().len(), 2);
//!
//! // a hot new object arrives: the matching is repaired, not recomputed
//! engine
//!     .insert_object(ObjectRecord::new(3, Point::from_slice(&[0.9, 0.9])))
//!     .unwrap();
//! let snapshot = engine.snapshot_problem().unwrap();
//! verify_stable(&snapshot, &engine.assignment()).unwrap();
//!
//! // a user leaves; their object returns to the pool and may be re-assigned
//! engine.remove_function(pref_assign::FunctionId(0)).unwrap();
//! let snapshot = engine.snapshot_problem().unwrap();
//! verify_stable(&snapshot, &engine.assignment()).unwrap();
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod engine;

pub use engine::{
    AssignmentEngine, EngineError, EngineOptions, EngineSnapshot, EngineStats, UpdateOp,
};
