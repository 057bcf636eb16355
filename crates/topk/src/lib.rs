//! Top-k search modules used by the fair-assignment algorithms.
//!
//! One function index and four search primitives, three of them from the
//! paper:
//!
//! * **the function index** ([`AliveFunctions`]) — the effective weights of
//!   the functions still unassigned as one columnar block, the only copy of
//!   `F` a solve holds. Every search below reads it;
//! * **BRS** ([`RankedSearch`]) — branch-and-bound ranked search over the
//!   object R-tree (Tao et al.), used as the incremental top-1 engine of the
//!   Brute Force and Chain competitors;
//! * **reverse top-1 via TA** ([`ReverseTopOne`], [`FunctionLists`]) — the
//!   paper's Section 5.1 module: the preference functions are organised as
//!   `D` sorted coefficient lists over the index and, for a given skyline
//!   object, the best remaining function is found with a threshold-algorithm
//!   scan whose termination threshold is tightened by a fractional-knapsack
//!   bound, biased list probing, and a resumable, capped candidate queue
//!   (the Ω technique). The paper's figures run it;
//! * **reverse top-1 by scan** ([`ScanTopOne`]) — SB's default search: one
//!   columnar pass over the [`AliveFunctions`] block, whose best few rows
//!   answer the following calls until all of them have died. It needs no
//!   sorted lists. The rows it keeps are a [`KeptRows`], the selection SB's
//!   reciprocal-pair step keeps for each function over the skyline too;
//! * **batch best-pair search** ([`DiskFunctionLists`], [`batch_best_functions`])
//!   — the Section 7.6 variant for disk-resident function sets, which scans
//!   the coefficient lists block by block once per skyline version and charges
//!   list I/O explicitly. It accepts an answer by TA's rule, so ties resolve
//!   as TA's do.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

mod alive;
mod batch;
mod brs;
mod kept;
mod knapsack;
mod lists;
mod reverse;
mod scan;

pub use alive::AliveFunctions;
pub use batch::{batch_best_functions, DiskFunctionLists};
pub use brs::{top_k, RankedSearch};
pub use kept::{KeptRows, KEPT_ROWS};
pub use lists::FunctionLists;
pub use reverse::{best_function_scan, ReverseTopOne};
pub use scan::ScanTopOne;
