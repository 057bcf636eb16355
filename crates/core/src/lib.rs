//! Fair (stable) assignment between multiple preference queries and objects.
//!
//! This crate is the primary contribution of the reproduced paper
//! (*A Fair Assignment Algorithm for Multiple Preference Queries*, VLDB 2009):
//! given a set `F` of linear preference functions (with optional priorities
//! and capacities) and a set `O` of multidimensional objects (with optional
//! capacities) indexed by an R-tree, compute the **stable 1-1 matching**
//! obtained by repeatedly assigning the function-object pair with the highest
//! score and removing it from the problem.
//!
//! Three algorithm families are provided:
//!
//! * [`brute_force`] — one incremental top-1 search per function with
//!   resumable heaps (Section 4.1),
//! * [`chain`] — the adaptation of the spatial Chain/ECP algorithm, with the
//!   functions indexed by a weight-space R-tree (Section 2.1 / Section 7),
//! * [`sb`] — the paper's skyline-based algorithm with its optimizations
//!   (I/O-optimal UpdateSkyline maintenance, resumable reverse top-1 search
//!   with the fractional-knapsack threshold, multiple stable pairs per loop),
//!   plus the problem variants of Section 6 (capacities, priorities,
//!   two-skyline search) and the batch variant [`sb_alt`] for disk-resident
//!   function sets (Section 7.6).
//!
//! All of them are also available behind the common [`Solver`] trait
//! ([`SbSolver`], [`SbAltSolver`], [`ChainSolver`], [`BruteForceSolver`]), so
//! harnesses and the streaming engine can treat "a way to compute the stable
//! matching" as a value; `sb` and `sb_alt` share one stable-loop scaffolding
//! underneath, which pins their capacity bookkeeping and tie handling
//! together by construction.
//!
//! The [`oracle`] module computes the exact stable matching by brute force and
//! [`verify_stable`] checks Property 2 directly; both are used heavily by the
//! test-suite.
//!
//! # Quick start
//!
//! ```
//! use pref_assign::{Problem, PreferenceFunction, ObjectRecord, solve};
//! use pref_geom::{LinearFunction, Point};
//!
//! // three users, four internship positions (Figure 1 of the paper)
//! let functions = vec![
//!     PreferenceFunction::new(0, LinearFunction::new(vec![0.8, 0.2]).unwrap()),
//!     PreferenceFunction::new(1, LinearFunction::new(vec![0.2, 0.8]).unwrap()),
//!     PreferenceFunction::new(2, LinearFunction::new(vec![0.5, 0.5]).unwrap()),
//! ];
//! let objects = vec![
//!     ObjectRecord::new(0, Point::from_slice(&[0.5, 0.6])), // a
//!     ObjectRecord::new(1, Point::from_slice(&[0.2, 0.7])), // b
//!     ObjectRecord::new(2, Point::from_slice(&[0.8, 0.2])), // c
//!     ObjectRecord::new(3, Point::from_slice(&[0.4, 0.4])), // d
//! ];
//! let problem = Problem::new(functions, objects).unwrap();
//! let assignment = solve(&problem);
//! // user 0 gets position c, user 1 gets b, user 2 gets a
//! assert_eq!(assignment.object_of(pref_assign::FunctionId(0)).unwrap().raw(), 2);
//! assert_eq!(assignment.object_of(pref_assign::FunctionId(1)).unwrap().raw(), 1);
//! assert_eq!(assignment.object_of(pref_assign::FunctionId(2)).unwrap().raw(), 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod brute;
mod chain;
mod matching;
mod metrics;
mod oracle;
mod pairing;
mod problem;
mod sb;
mod sbalt;
mod scaffold;
mod solver;
mod view;

pub use brute::brute_force;
pub use chain::chain;
pub use matching::{verify_stable, Assignment, MatchPair, StabilityViolation};
pub use metrics::{AssignmentResult, RunMetrics};
pub use oracle::oracle;
pub use problem::{FunctionId, ObjectRecord, PreferenceFunction, Problem, ProblemError};
pub use sb::{sb, sb_with_skyline, BestPairStrategy, MaintenanceStrategy, SbOptions};
pub use sbalt::{sb_alt, sb_alt_with_threads};
pub use solver::{all_solvers, BruteForceSolver, ChainSolver, SbAltSolver, SbSolver, Solver};
pub use view::{AssignedFunctions, AssignedObjects, AssignmentView, ViewError};

use pref_rtree::RTree;

/// Solves a problem with the fully optimized SB algorithm and a default
/// object index, returning the full [`AssignmentResult`] — the matching plus
/// the [`RunMetrics`] (I/O, CPU, memory, loop counts) collected along the way.
pub fn solve_with_metrics(problem: &Problem) -> AssignmentResult {
    let mut tree: RTree = problem.build_tree(None, 0.02);
    sb(problem, &mut tree, &SbOptions::default())
}

/// Solves a problem with the fully optimized SB algorithm and a default
/// object index (the convenience entry point used by the examples). A thin
/// wrapper over [`solve_with_metrics`] for callers that only want the
/// matching; use the latter when the run's measurements matter.
pub fn solve(problem: &Problem) -> Assignment {
    solve_with_metrics(problem).assignment
}
