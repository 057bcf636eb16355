//! Skyline computation and incremental maintenance.
//!
//! The SB assignment algorithm of the VLDB 2009 paper is built on two skyline
//! modules:
//!
//! * an initial skyline computation over the object R-tree — Branch-and-Bound
//!   Skyline (**BBS**, Papadias et al.), modified to remember which pruned
//!   entry went into which skyline object's *pruned list* (`plist`), and
//! * an incremental, deletion-side maintenance module — **UpdateSkyline**
//!   (Algorithm 2 of the paper), which is I/O-optimal: it only ever visits
//!   nodes that intersect the exclusive dominance region of the removed
//!   objects and never reads the same R-tree node twice over the whole
//!   assignment computation (Theorem 1), and
//! * an insertion-side maintenance module — [`insert_skyline`] — used by the
//!   long-lived assignment engine: classifying a new arrival against the
//!   maintained skyline (attach to a dominator's pruned list, or join the
//!   skyline and demote what it dominates) needs no R-tree I/O at all, and
//! * structural patch operations keeping the pruned lists consistent while
//!   the underlying R-tree changes shape: [`Skyline::patch_page_split`] for
//!   the node splits of dynamic insertion, and [`Skyline::patch_page_delete`]
//!   for the freed pages, re-inserted orphans and MBR shrinks of physical
//!   deletion (CondenseTree) — so a long-lived engine can delete departed
//!   records instead of accumulating tombstones forever.
//!
//! For comparison the crate also implements a **DeltaSky-style** baseline that
//! re-traverses the tree from the root for every removed skyline object, plus
//! memory-resident algorithms: [`skyline_by_id`], which computes the
//! candidate functions of the two-skyline technique with exact ties going to
//! the lowest id, and a naive oracle for the tests.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

mod bbs;
mod deltasky;
mod insert;
mod maintain;
mod memory;
mod set;

pub use bbs::compute_skyline_bbs;
pub use deltasky::delta_sky_update;
pub use insert::{insert_skyline, SkylineInsertion};
pub use maintain::{update_skyline, update_skyline_filtered};
pub use memory::{skyline_by_id, skyline_naive};
pub use set::{Skyline, SkylineObject};
