//! The reciprocal-pair step that ends every SB loop.
//!
//! Whichever best-pair strategy found every skyline object's best function
//! (per-object TA searches, scans, or SB-alt's one batched scan of the disk
//! lists), the loop ends the same way: find every candidate function's best
//! skyline object, keep the reciprocal pairs (Property 2), fall back to the
//! single best `(function, its best object)` entry when exact score ties
//! make the argmax choices cyclic, and emit the pairs in descending score
//! order. Keeping one implementation here is what guarantees the strategies
//! cannot drift apart on tie-breaking.
//!
//! # Each function keeps its best skyline objects across loops
//!
//! The skyline changes little between loops: the objects a loop exhausts
//! leave, and the ones maintenance uncovers join (on `solve-anti` about 17
//! and 50 of ~2 000–3 800). So a function does not rescore the skyline each
//! time it is a candidate. At its first candidacy it scans the skyline block
//! into a [`KeptRows`], its best [`pref_topk::KEPT_ROWS`] objects by `(score
//! desc, dense object index asc)`. At each later one it
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
//! builds check that against the full argmax at every candidacy.

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
    /// `function_best[fi] = (stamp, best dense object index, score)`.
    function_best: Vec<(u64, usize, f64)>,
    /// Stamp guard deduplicating `candidates` per loop.
    candidate_stamp: Vec<u64>,
    /// Functions named by some `object_best` entry this loop.
    candidates: Vec<usize>,
    /// `kept[fi]`: the function's best skyline objects and how much of
    /// `entrants` they have seen; empty until its first candidacy.
    kept: Vec<(KeptRows, usize)>,
    /// Dense index of every object maintenance added to the skyline.
    entrants: Vec<usize>,
    /// The candidate's effective weights, gathered out of the index.
    weights: Vec<f64>,
}

impl Pairing {
    pub(crate) fn new(n_fun: usize, n_obj: usize) -> Self {
        Self {
            stamp: 0,
            object_best: vec![(0, 0, 0.0); n_obj],
            function_best: vec![(0, 0, 0.0); n_fun],
            candidate_stamp: vec![0; n_fun],
            candidates: Vec::new(),
            kept: vec![(KeptRows::new(), 0); n_fun],
            entrants: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Starts a loop: every entry noted before is stale from here on.
    pub(crate) fn begin_loop(&mut self) {
        self.stamp += 1;
        self.candidates.clear();
    }

    /// Records a skyline object's best function for the current loop.
    pub(crate) fn note_best(&mut self, oi: usize, fi: usize, score: f64) {
        self.object_best[oi] = (self.stamp, fi, score);
        if self.candidate_stamp[fi] != self.stamp {
            self.candidate_stamp[fi] = self.stamp;
            self.candidates.push(fi);
        }
    }

    /// Logs an object that maintenance added to the skyline.
    pub(crate) fn note_entrant(&mut self, oi: usize) {
        self.entrants.push(oi);
    }

    /// Computes the loop's stable pairs `(function, dense object index,
    /// score)` from the best functions noted since [`Self::begin_loop`].
    ///
    /// * `skyline` — the skyline's point block; row `r` is the object
    ///   `sky_rows[r]` (a dense index),
    /// * `objects` — the problem's objects, by dense index,
    /// * `excluded` — `excluded[oi]` once object `oi` is exhausted,
    /// * `functions` — the function index; every candidate is alive in it.
    ///
    /// Exact score ties break to the lowest *dense* object index (functions
    /// picking objects) and the lowest function index (the fallback entry and
    /// the output order) — the same order in which [`crate::oracle::oracle`]
    /// consumes its sorted score list, so tied instances reproduce the
    /// oracle's canonical matching even when record ids are not in table
    /// order.
    pub(crate) fn reciprocal_pairs(
        &mut self,
        skyline: &SoaBlock,
        sky_rows: &[usize],
        objects: &[ObjectRecord],
        excluded: &[bool],
        functions: &AliveFunctions,
    ) -> Vec<(usize, usize, f64)> {
        let stamp = self.stamp;
        // sorted so every scan below is deterministic
        self.candidates.sort_unstable();

        // --- best skyline object for every candidate function ---------------
        for &fi in &self.candidates {
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
            if let Some((oi, s)) = best {
                self.function_best[fi] = (stamp, oi, s);
            }
        }

        // --- reciprocal pairs are stable (Property 2) -----------------------
        let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
        for &fi in &self.candidates {
            let (st, oi, score) = self.function_best[fi];
            if st != stamp {
                continue;
            }
            let (ost, best_f, _) = self.object_best[oi];
            if ost == stamp && best_f == fi {
                pairs.push((fi, oi, score));
            }
        }
        if pairs.is_empty() {
            // Exact score ties can make the argmax choices cyclic, leaving no
            // reciprocal pair. The highest-scoring (function, its best
            // object) entry is still stable — no strictly better partner
            // exists for either side — so emit it to guarantee progress.
            // Candidates are sorted, so ties resolve to the lowest function
            // index.
            let mut fallback: Option<(usize, usize, f64)> = None;
            for &fi in &self.candidates {
                let (st, oi, score) = self.function_best[fi];
                if st != stamp {
                    continue;
                }
                if fallback.is_none_or(|(_, _, bs)| score > bs) {
                    fallback = Some((fi, oi, score));
                }
            }
            if let Some(pair) = fallback {
                pairs.push(pair);
            }
        }
        // descending score order (the order in which the iterative definition
        // of Section 3 would establish the pairs); exact ties in ascending
        // function order for determinism
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
