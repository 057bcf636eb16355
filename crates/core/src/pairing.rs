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
//! # Columnar scoring and parallelism
//!
//! The per-function argmax is the solver's scoring hot spot: every candidate
//! function scores every skyline object, `|candidates| × |skyline|` dot
//! products per loop. The step therefore
//!
//! 1. mirrors the loop's skyline working set into a reusable [`SoaBlock`]
//!    (dimension-major lanes), gathers the candidates' weight rows out of the
//!    function index once into one scratch buffer, and batch-scores each row
//!    with the [`pref_geom::kernel`] lane kernels, and
//! 2. optionally partitions the candidate set across a
//!    [`WorkStealingPool`] — each function's argmax is independent, so the
//!    split is embarrassingly parallel.
//!
//! **Determinism contract.** The kernels are bit-identical to the scalar
//! scoring path, and the argmax comparator (`s > bs || (s == bs && oi <
//! best_oi)`) is a strict total order on `(score, dense index)` — its result
//! does not depend on scan order. Partition results are merged back into
//! `function_best` slots keyed by function index, so the pairs that leave
//! this function are byte-identical at any thread count, pool or no pool.

use pref_geom::{kernel, Point, SoaBlock};
use pref_rtree::RecordId;
use pref_sync::WorkStealingPool;
use pref_topk::AliveFunctions;
use std::sync::Arc;

/// Candidate-partition work (candidate count × skyline size) below which the
/// pool is not worth waking: one loop of dot products at this size costs less
/// than the batch handshake.
const PARALLEL_WORK_FLOOR: usize = 4096;

/// The per-run argmax state of the SB loop, owned by the loop.
///
/// The slabs are indexed by the [`crate::Problem`]'s dense function / object
/// indices and invalidated by a loop stamp instead of being cleared between
/// loops. The block, the dense-index mirror and the candidates' weight rows
/// live behind `Arc` so the parallel path can hand clones to pool workers
/// without copying them; by the
/// time a batch returns every worker clone is dropped, so the next loop's
/// [`Arc::make_mut`] reuses the allocation in place instead of cloning.
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
    /// Columnar mirror of the loop's skyline points, in `sky_views` order.
    block: Arc<SoaBlock>,
    /// Dense object index of each block row (`sky_views[j].0`).
    ois: Arc<Vec<usize>>,
    /// The candidates' effective weights, one row of `dims` after another,
    /// in `candidates` order.
    rows: Arc<Vec<f64>>,
    /// Score lane for the serial path.
    scores: Vec<f64>,
}

impl Pairing {
    pub(crate) fn new(n_fun: usize, n_obj: usize) -> Self {
        Self {
            stamp: 0,
            object_best: vec![(0, 0, 0.0); n_obj],
            function_best: vec![(0, 0, 0.0); n_fun],
            candidate_stamp: vec![0; n_fun],
            candidates: Vec::new(),
            block: Arc::new(SoaBlock::new()),
            ois: Arc::new(Vec::new()),
            rows: Arc::new(Vec::new()),
            scores: Vec::new(),
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

    /// Computes the loop's stable pairs `(function, dense object index,
    /// score)` from the best functions noted since [`Self::begin_loop`].
    ///
    /// * `sky_views` — the loop's skyline entries as `(dense index, record,
    ///   &point)` views,
    /// * `functions` — the function index; every candidate is alive in it,
    /// * `pool` — optional worker pool; used only when the loop's scoring
    ///   work clears [`PARALLEL_WORK_FLOOR`].
    ///
    /// Exact score ties break to the lowest *dense* object index (functions
    /// picking objects) and the lowest function index (the fallback entry and
    /// the output order) — the same order in which [`crate::oracle::oracle`]
    /// consumes its sorted score list, so tied instances reproduce the
    /// oracle's canonical matching even when record ids are not in table
    /// order.
    pub(crate) fn reciprocal_pairs(
        &mut self,
        sky_views: &[(usize, RecordId, &Point)],
        functions: &AliveFunctions,
        pool: Option<&WorkStealingPool>,
    ) -> Vec<(usize, usize, f64)> {
        let stamp = self.stamp;
        // sorted so every scan below is deterministic
        self.candidates.sort_unstable();

        // --- columnar mirror of the loop's working set -----------------------
        let block = Arc::make_mut(&mut self.block);
        block.clear();
        let ois = Arc::make_mut(&mut self.ois);
        ois.clear();
        for &(oi, _, point) in sky_views {
            block.push_point(point);
            ois.push(oi);
        }
        let dims = functions.dims();
        let rows = Arc::make_mut(&mut self.rows);
        rows.clear();
        for &fi in &self.candidates {
            rows.extend(functions.weights(fi));
        }

        // --- best skyline object for every candidate function ---------------
        let parallel = pool.filter(|p| {
            p.threads() > 1
                && self.candidates.len() > 1
                && self.candidates.len() * sky_views.len() >= PARALLEL_WORK_FLOOR
        });
        match parallel {
            Some(pool) => {
                // Contiguous candidate ranges, one per worker; each job
                // computes its functions' argmaxes independently and the
                // merge writes per-function slots, so the outcome is identical
                // to the serial scan no matter which worker ran what when.
                let span = self.candidates.len().div_ceil(pool.threads());
                let jobs: Vec<_> = self
                    .candidates
                    .chunks(span)
                    .enumerate()
                    .map(|(job, chunk)| {
                        let cands: Vec<usize> = chunk.to_vec();
                        let first_row = job * span * dims;
                        let block = Arc::clone(&self.block);
                        let ois = Arc::clone(&self.ois);
                        let rows = Arc::clone(&self.rows);
                        move || {
                            let mut scores: Vec<f64> = Vec::new();
                            let mut out: Vec<(usize, usize, f64)> = Vec::with_capacity(cands.len());
                            let weights = rows[first_row..].chunks_exact(dims);
                            for (&fi, weights) in cands.iter().zip(weights) {
                                kernel::score_block(weights, &block, &mut scores);
                                if let Some((oi, s)) = lane_argmax(&ois, &scores) {
                                    out.push((fi, oi, s));
                                }
                            }
                            out
                        }
                    })
                    .collect();
                for part in pool.run(jobs) {
                    for (fi, oi, s) in part {
                        self.function_best[fi] = (stamp, oi, s);
                    }
                }
            }
            None => {
                let weights = self.rows.chunks_exact(dims);
                for (&fi, weights) in self.candidates.iter().zip(weights) {
                    kernel::score_block(weights, &self.block, &mut self.scores);
                    if let Some((oi, s)) = lane_argmax(&self.ois, &self.scores) {
                        self.function_best[fi] = (stamp, oi, s);
                    }
                }
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

/// Best `(dense object index, score)` of one score lane: highest score, exact
/// ties to the lowest dense index — a scan-order-independent argmax.
fn lane_argmax(ois: &[usize], scores: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (&oi, &s) in ois.iter().zip(scores) {
        let better = match best {
            None => true,
            Some((best_oi, bs)) => s > bs || (s == bs && oi < best_oi),
        };
        if better {
            best = Some((oi, s));
        }
    }
    best
}
