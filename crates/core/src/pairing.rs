//! The reciprocal-pair step that ends every SB loop.
//!
//! A loop outputs its reciprocal pairs (Property 2): the `(f, o)` with
//! `best(f) = o` and `best(o) = f`, where `best(f)` ranges over the skyline
//! and `best(o)` over the alive functions. Both sides take their argmax under
//! one strict order — score descending, then function index ascending, then
//! *dense* object index ascending, the order in which
//! [`crate::oracle::oracle`] consumes its sorted score list — so tied
//! instances reproduce the oracle's canonical matching even when record ids
//! are not in table order. Under one order the first `(f, o)` over the alive
//! functions × the skyline is reciprocal, so a loop in which some function
//! has a best object always yields a pair. The pairs leave in descending
//! score order, exact ties by function index. Keeping one implementation
//! here is what guarantees the strategies cannot drift apart on
//! tie-breaking.
//!
//! # Which side is asked first
//!
//! Both orders enumerate exactly `{(f, o) : best(f) = o ∧ best(o) = f}`:
//!
//! * **object first** ([`Pairing::note_best`] for every skyline object, then
//!   [`Pairing::answer_candidates`]): every such `f` is some object's best,
//!   so it is a candidate;
//! * **function first** ([`Pairing::function_best`] for every alive
//!   function, then [`Pairing::ask_picked`]): every such `o` is some
//!   function's best, so it is picked.
//!
//! The side asked first is asked in full, the other only for the members
//! named, so the default scan asks the smaller side first, loop by loop: the
//! function side while there are no more alive functions than skyline
//! objects, the object side otherwise. A function's best is cheap (below),
//! but asking every function every loop costs more than searching a skyline
//! of a few dozen objects. The paper's arms (TA, two skylines, SB-alt)
//! always search every skyline object first, as its figures measure them.
//! Either order leaves the kept objects and the search states valid for the
//! other, so the choice may change from one loop to the next.
//!
//! # Each function keeps its best skyline objects across loops
//!
//! The skyline changes little between loops: the objects a loop exhausts
//! leave, and the ones maintenance uncovers join (on `solve-anti` about 17
//! and 50 of ~2 000–3 800). So a function does not rescore the skyline each
//! time it is asked. The first time, it scans the skyline block into a
//! [`KeptRows`], its best [`pref_topk::KEPT_ROWS`] objects by `(score desc,
//! dense object index asc)`. Each later time it
//!
//! 1. drops the kept objects that have been exhausted since,
//! 2. if any remain, offers the objects that joined since it last looked,
//!    and otherwise scans the skyline again.
//!
//! The joiners come from the **entrant log**, the dense index of every object
//! maintenance added to the skyline, in order (maintenance only appends
//! rows); a function remembers how much of the log it has offered. The
//! **cutoff** invariant of [`KeptRows`] — every live object a function did
//! not keep ranks behind its cutoff — is what lets an offer skip the objects
//! the last scan left out: an entrant enters only ahead of the cutoff. The
//! first kept object is then the function's best live skyline object, the
//! one a full argmax over the skyline finds, score bits included; debug
//! builds check that against the full argmax at every answer.

use crate::problem::ObjectRecord;
use pref_geom::{kernel, SoaBlock};
use pref_topk::{AliveFunctions, KeptRows};

/// The per-run argmax state of the SB loop, owned by the loop.
///
/// The slabs are indexed by the [`crate::Problem`]'s dense function / object
/// indices; the per-loop ones are invalidated by a loop stamp instead of
/// being cleared between loops.
pub(crate) struct Pairing {
    /// The current loop's stamp.
    stamp: u64,
    /// `object_best[oi] = (stamp, best function, score)`.
    object_best: Vec<(u64, usize, f64)>,
    /// This loop's function answers: `(function, best dense object index,
    /// score)`.
    answers: Vec<(usize, usize, f64)>,
    /// Stamp guard deduplicating `candidates` per loop.
    candidate_stamp: Vec<u64>,
    /// Functions named by some `object_best` entry this loop.
    candidates: Vec<usize>,
    /// Stamp guard deduplicating `picked` per loop.
    picked_stamp: Vec<u64>,
    /// Objects named by some function answer this loop.
    picked: Vec<usize>,
    /// `kept[fi]`: the function's best skyline objects and how much of
    /// `entrants` they have seen; empty until it is first asked.
    kept: Vec<(KeptRows, usize)>,
    /// Dense index of every object maintenance added to the skyline.
    entrants: Vec<usize>,
    /// The asked function's effective weights, gathered out of the index.
    weights: Vec<f64>,
}

impl Pairing {
    pub(crate) fn new(n_fun: usize, n_obj: usize) -> Self {
        Self {
            stamp: 0,
            object_best: vec![(0, 0, 0.0); n_obj],
            answers: Vec::new(),
            candidate_stamp: vec![0; n_fun],
            candidates: Vec::new(),
            picked_stamp: vec![0; n_obj],
            picked: Vec::new(),
            kept: vec![(KeptRows::new(), 0); n_fun],
            entrants: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Starts a loop: every entry noted before is stale from here on.
    pub(crate) fn begin_loop(&mut self) {
        self.stamp += 1;
        self.answers.clear();
        self.candidates.clear();
        self.picked.clear();
    }

    /// Records a skyline object's best function for the current loop, and
    /// makes the function a candidate of [`Self::answer_candidates`].
    pub(crate) fn note_best(&mut self, oi: usize, fi: usize, score: f64) {
        self.object_best[oi] = (self.stamp, fi, score);
        if self.candidate_stamp[fi] != self.stamp {
            self.candidate_stamp[fi] = self.stamp;
            self.candidates.push(fi);
        }
    }

    /// Runs [`Self::function_best`] for every candidate noted this loop.
    pub(crate) fn answer_candidates(
        &mut self,
        skyline: &SoaBlock,
        sky_rows: &[usize],
        objects: &[ObjectRecord],
        excluded: &[bool],
        functions: &AliveFunctions,
    ) {
        let candidates = std::mem::take(&mut self.candidates);
        for &fi in &candidates {
            self.function_best(fi, skyline, sky_rows, objects, excluded, functions);
        }
        self.candidates = candidates;
    }

    /// Finds function `fi`'s best skyline object, records it as the
    /// function's answer for this loop and marks the object picked.
    ///
    /// * `skyline` — the skyline's point block; row `r` is the object
    ///   `sky_rows[r]` (a dense index),
    /// * `objects` — the problem's objects, by dense index,
    /// * `excluded` — `excluded[oi]` once object `oi` is exhausted,
    /// * `functions` — the function index; `fi` is alive in it.
    pub(crate) fn function_best(
        &mut self,
        fi: usize,
        skyline: &SoaBlock,
        sky_rows: &[usize],
        objects: &[ObjectRecord],
        excluded: &[bool],
        functions: &AliveFunctions,
    ) {
        self.weights.clear();
        self.weights.extend(functions.weights(fi));
        let (kept, seen) = &mut self.kept[fi];
        kept.retain(|oi| !excluded[oi]);
        if kept.is_empty() {
            kept.scan(&self.weights, skyline, sky_rows);
        } else {
            for &oi in &self.entrants[*seen..] {
                if !excluded[oi] {
                    kept.offer(kernel::dot(&self.weights, objects[oi].point.coords()), oi);
                }
            }
        }
        *seen = self.entrants.len();
        let best = kept.first();
        debug_assert_eq!(
            best,
            full_argmax(&self.weights, skyline, sky_rows),
            "function {fi}'s kept objects disagree with a full argmax"
        );
        if let Some((oi, score)) = best {
            self.answers.push((fi, oi, score));
            if self.picked_stamp[oi] != self.stamp {
                self.picked_stamp[oi] = self.stamp;
                self.picked.push(oi);
            }
        }
    }

    /// Records `best(oi)` for every object picked this loop: the object
    /// side's step when the function side was asked first.
    pub(crate) fn ask_picked(&mut self, mut best: impl FnMut(usize) -> Option<(usize, f64)>) {
        for &oi in &self.picked {
            if let Some((fi, score)) = best(oi) {
                self.object_best[oi] = (self.stamp, fi, score);
            }
        }
    }

    /// Logs an object that maintenance added to the skyline.
    pub(crate) fn note_entrant(&mut self, oi: usize) {
        self.entrants.push(oi);
    }

    /// The loop's stable pairs `(function, dense object index, score)`: the
    /// function answers whose object's best is that function, in descending
    /// score order (the order in which the iterative definition of Section 3
    /// would establish them), exact ties in ascending function order.
    pub(crate) fn reciprocal_pairs(&self) -> Vec<(usize, usize, f64)> {
        let mut pairs: Vec<(usize, usize, f64)> = self
            .answers
            .iter()
            .copied()
            .filter(|&(fi, oi, _)| {
                let (st, best_f, _) = self.object_best[oi];
                st == self.stamp && best_f == fi
            })
            .collect();
        debug_assert!(
            self.answers.is_empty() || !pairs.is_empty(),
            "a loop with a function answer yields a reciprocal pair"
        );
        pairs.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        pairs
    }
}

/// A function's best skyline object by scoring the whole block: `(dense
/// index, score)`, exact ties to the lowest dense index. The reference the
/// kept objects are checked against in debug builds.
fn full_argmax(weights: &[f64], skyline: &SoaBlock, sky_rows: &[usize]) -> Option<(usize, f64)> {
    let mut scores = Vec::new();
    kernel::score_block(weights, skyline, &mut scores);
    let mut best: Option<(usize, f64)> = None;
    for (&oi, &s) in sky_rows.iter().zip(&scores) {
        if best.is_none_or(|(best_oi, bs)| s > bs || (s == bs && oi < best_oi)) {
            best = Some((oi, s));
        }
    }
    best
}
