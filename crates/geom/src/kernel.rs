//! Columnar (SoA) scoring kernels.
//!
//! Preference functions are linear, so scoring a page of objects is a dense
//! dot-product batch — a memory-bound kernel. This module lays points out in
//! **structure-of-arrays** form ([`SoaBlock`]: one contiguous `f64` lane per
//! dimension) and scores whole blocks with fixed-width-chunked kernels that
//! LLVM autovectorizes on stable Rust (no `unsafe`, no nightly `std::simd`):
//! vectorization runs across the *point* axis, so each point's score is still
//! accumulated dimension-by-dimension in the exact order of the scalar path.
//!
//! # Determinism contract
//!
//! Every kernel reproduces the scalar summation order bit-for-bit:
//!
//! * [`dot`] computes `acc = 0.0; acc += w[d]·c[d]` for `d = 0, 1, …` — the
//!   same floating-point sequence as [`crate::LinearFunction::score_coords`]
//!   and the sorted-list scorers built on effective weights.
//! * [`score_block`] computes the identical per-point sequence for every lane
//!   row, then multiplies by the priority (`x * 1.0 == x` exactly, so folding
//!   an absent priority is also bit-neutral).
//!
//! Because scores are bit-identical, every downstream tie-break (lowest
//! function index, lowest dense object index) resolves exactly as the scalar
//! path would — batch scoring can never move a tie.
//!
//! Kernels are hot-loop code: they must not allocate per call (the repo's
//! `kernel-no-alloc` lint enforces the `Vec::new`/`to_vec`/`collect`
//! denylist on this module). Output buffers are caller-owned scratch that
//! amortizes to zero allocations.

use crate::{LinearFunction, Point};
use std::sync::Arc;

/// Fixed chunk width of the block kernels. Eight `f64`s span a full AVX-512
/// register, two AVX2 registers, or four SSE2 registers — wide enough for the
/// autovectorizer on any x86-64/AArch64 baseline, small enough that the
/// scalar remainder loop stays negligible.
pub const LANE_CHUNK: usize = 8;

/// A columnar block of points: dimension-major `f64` lanes.
///
/// `lane(d)[i]` is coordinate `d` of point `i`. The block is a reusable
/// scratch structure: [`SoaBlock::clear`] keeps lane capacity so steady-state
/// refills allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct SoaBlock {
    dims: usize,
    len: usize,
    lanes: Vec<Vec<f64>>,
}

impl SoaBlock {
    /// Creates an empty block; the dimensionality is fixed by the first push.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of points in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the block holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the stored points (0 while empty and never pushed).
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The contiguous lane of dimension `d`.
    ///
    /// # Panics
    /// Panics if `d >= self.dims()`.
    #[inline]
    pub fn lane(&self, d: usize) -> &[f64] {
        &self.lanes[d]
    }

    /// Drops every point but keeps the lanes' capacity for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
        for lane in &mut self.lanes {
            lane.clear();
        }
    }

    /// Appends one point given as a raw coordinate slice.
    ///
    /// # Panics
    /// Panics on a dimensionality mismatch with the points already stored.
    pub fn push_coords(&mut self, coords: &[f64]) {
        if self.lanes.len() != coords.len() {
            assert!(
                self.lanes.iter().all(Vec::is_empty),
                "SoaBlock dimensionality changed mid-fill: {} vs {}",
                self.lanes.len(),
                coords.len()
            );
            // lint: allow(kernel-no-alloc) -- one-time lane growth on first fill
            self.lanes.resize_with(coords.len(), Vec::new);
        }
        self.dims = coords.len();
        for (lane, &c) in self.lanes.iter_mut().zip(coords.iter()) {
            lane.push(c);
        }
        self.len += 1;
    }

    /// Appends one [`Point`].
    #[inline]
    pub fn push_point(&mut self, point: &Point) {
        self.push_coords(point.coords());
    }

    /// Removes point `i` by swapping the last point into its slot — the same
    /// order change as `Vec::swap_remove`, so a block can mirror a vector of
    /// owners exactly.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn swap_remove(&mut self, i: usize) {
        assert!(i < self.len, "swap_remove index {i} out of bounds");
        for lane in &mut self.lanes {
            lane.swap_remove(i);
        }
        self.len -= 1;
    }
}

/// Scalar dot product in the canonical summation order: `acc = 0.0` then
/// `acc += w[d]·c[d]` for ascending `d`. Every scoring path in the workspace
/// routes through this kernel (directly or via [`score_block`]), which is
/// what keeps batch and scalar scores bit-identical.
///
/// # Panics
/// Debug-asserts equal lengths; out-of-range dimensions panic via indexing.
#[inline]
pub fn dot(weights: &[f64], coords: &[f64]) -> f64 {
    debug_assert_eq!(weights.len(), coords.len(), "dimension mismatch");
    // Specialized fixed-trip-count bodies for the common dimensionalities let
    // LLVM fully unroll; the accumulation order is identical in every arm.
    match weights.len() {
        1 => dot_const::<1>(weights, coords),
        2 => dot_const::<2>(weights, coords),
        3 => dot_const::<3>(weights, coords),
        4 => dot_const::<4>(weights, coords),
        5 => dot_const::<5>(weights, coords),
        6 => dot_const::<6>(weights, coords),
        7 => dot_const::<7>(weights, coords),
        8 => dot_const::<8>(weights, coords),
        _ => {
            let mut acc = 0.0;
            for (w, c) in weights.iter().zip(coords.iter()) {
                acc += w * c;
            }
            acc
        }
    }
}

#[inline]
fn dot_const<const D: usize>(weights: &[f64], coords: &[f64]) -> f64 {
    let w = &weights[..D];
    let c = &coords[..D];
    let mut acc = 0.0;
    for d in 0..D {
        acc += w[d] * c[d];
    }
    acc
}

/// Scores every point of `block` with one weight vector: `out[i] = priority ·
/// Σ_d weights[d]·lane(d)[i]`, accumulated per point in ascending-dimension
/// order (bit-identical to [`dot`] followed by the priority multiply).
///
/// `out` is caller-owned scratch; it is cleared and resized to `block.len()`.
///
/// # Panics
/// Panics if `weights.len() != block.dims()` (unless the block is empty).
pub fn score_block(weights: &[f64], priority: f64, block: &SoaBlock, out: &mut Vec<f64>) {
    out.clear();
    out.resize(block.len(), 0.0);
    score_rows(weights, priority, block, 0, out);
}

/// [`score_block`] over the rows `start .. start + out.len()` only, into a
/// slice the caller sized: a scan that scores a block chunk by chunk into a
/// fixed stack buffer allocates nothing. Row `start + i` lands in `out[i]`,
/// the same bits [`score_block`] gives it.
///
/// # Panics
/// Panics if the range runs past `block.len()`, or if `weights.len() !=
/// block.dims()` (unless `out` is empty).
pub fn score_rows(weights: &[f64], priority: f64, block: &SoaBlock, start: usize, out: &mut [f64]) {
    if out.is_empty() {
        return;
    }
    assert_eq!(weights.len(), block.dims(), "dimension mismatch");
    match weights.len() {
        1 => score_lanes_const::<1>(weights, priority, block, start, out),
        2 => score_lanes_const::<2>(weights, priority, block, start, out),
        3 => score_lanes_const::<3>(weights, priority, block, start, out),
        4 => score_lanes_const::<4>(weights, priority, block, start, out),
        5 => score_lanes_const::<5>(weights, priority, block, start, out),
        6 => score_lanes_const::<6>(weights, priority, block, start, out),
        7 => score_lanes_const::<7>(weights, priority, block, start, out),
        8 => score_lanes_const::<8>(weights, priority, block, start, out),
        _ => score_lanes_generic(weights, priority, block, start, out),
    }
}

/// Fixed-dimensionality block kernel: the dimension loop has a compile-time
/// trip count, the point loop runs in [`LANE_CHUNK`]-wide chunks over slices
/// pre-cut to a common length, so the autovectorizer sees a branch-free
/// multiply-add ladder across the point axis.
#[inline]
fn score_lanes_const<const D: usize>(
    weights: &[f64],
    priority: f64,
    block: &SoaBlock,
    start: usize,
    out: &mut [f64],
) {
    let n = out.len();
    let mut w = [0.0f64; D];
    let mut cols: [&[f64]; D] = [&[]; D];
    for d in 0..D {
        w[d] = weights[d];
        cols[d] = &block.lane(d)[start..start + n];
    }
    let mut base = 0;
    while base + LANE_CHUNK <= n {
        for j in 0..LANE_CHUNK {
            let i = base + j;
            let mut acc = 0.0;
            for d in 0..D {
                acc += w[d] * cols[d][i];
            }
            out[i] = acc * priority;
        }
        base += LANE_CHUNK;
    }
    for i in base..n {
        let mut acc = 0.0;
        for d in 0..D {
            acc += w[d] * cols[d][i];
        }
        out[i] = acc * priority;
    }
}

/// Runtime-dimensionality fallback (D > 8), dimension-major: one clean
/// slice-to-slice multiply-add pass per dimension into the accumulator
/// buffer, then one priority pass. Per point the accumulator still starts at
/// `0.0` and adds `w[d]·c[d]` in ascending-`d` order — the canonical [`dot`]
/// sequence — so the pass order is a pure layout change, not a reassociation.
fn score_lanes_generic(
    weights: &[f64],
    priority: f64,
    block: &SoaBlock,
    start: usize,
    out: &mut [f64],
) {
    let n = out.len();
    out.fill(0.0);
    for (d, &w) in weights.iter().enumerate() {
        let lane = &block.lane(d)[start..start + n];
        for (acc, &c) in out.iter_mut().zip(lane) {
            *acc += w * c;
        }
    }
    for acc in out.iter_mut() {
        *acc *= priority;
    }
}

/// Rows per chunk of [`first_dominator`]: one mask byte per row fills two SSE2
/// or one AVX2 register, and a chunk of `f64`s per lane is four cache lines.
const DOMINANCE_CHUNK: usize = 32;

/// Returns the index of the first point in `block` that *dominates* `coords`
/// (component-wise `>=` everywhere, `>` somewhere — the paper's Section 2.2
/// definition, larger-is-better), or `None`. This is the columnar form of the
/// skyline pruning scan: the lanes are contiguous, so the scan streams cache
/// lines instead of chasing per-point heap boxes.
///
/// Rows are tested 32 at a time (`DOMINANCE_CHUNK`) without a branch per row or
/// per dimension — on data where a row fails at an unpredictable dimension
/// (anti-correlated points) an early exit per row costs more in mispredicted
/// branches than the comparisons it skips — and the scan stops at the first
/// chunk holding a dominator, whose first such row is the answer: the same
/// row a row-by-row scan returns.
///
/// # Panics
/// Panics if `coords.len() != block.dims()` (unless the block is empty).
pub fn first_dominator(block: &SoaBlock, coords: &[f64]) -> Option<usize> {
    if block.is_empty() {
        return None;
    }
    assert_eq!(coords.len(), block.dims(), "dimension mismatch");
    match coords.len() {
        1 => first_dominator_const::<1>(block, coords),
        2 => first_dominator_const::<2>(block, coords),
        3 => first_dominator_const::<3>(block, coords),
        4 => first_dominator_const::<4>(block, coords),
        5 => first_dominator_const::<5>(block, coords),
        6 => first_dominator_const::<6>(block, coords),
        7 => first_dominator_const::<7>(block, coords),
        8 => first_dominator_const::<8>(block, coords),
        _ => first_dominator_generic(block, coords),
    }
}

/// `true` iff some byte of a chunk's mask is set: an OR-fold, not a search,
/// so the common all-clear answer costs no branch per row.
#[inline]
fn any_set(mask: &[u8]) -> bool {
    mask.iter().fold(0u8, |any, &m| any | m) != 0
}

/// Index of the first non-zero byte of a chunk's dominance mask.
#[inline]
fn first_set(mask: &[u8]) -> Option<usize> {
    if any_set(mask) {
        mask.iter().position(|&m| m != 0)
    } else {
        None
    }
}

/// Fixed-dimensionality dominance scan: like [`score_lanes_const`] the
/// dimension loop has a compile-time trip count and the row loop runs over
/// lanes pre-cut to a common length, so each chunk is a branch-free
/// compare-and-combine ladder across the row axis.
#[inline]
fn first_dominator_const<const D: usize>(block: &SoaBlock, coords: &[f64]) -> Option<usize> {
    let n = block.len();
    let mut c = [0.0f64; D];
    let mut cols: [&[f64]; D] = [&[]; D];
    for d in 0..D {
        c[d] = coords[d];
        cols[d] = &block.lane(d)[..n];
    }
    let dominates = |i: usize| {
        let mut ge = true;
        let mut gt = false;
        for d in 0..D {
            let v = cols[d][i];
            ge &= v >= c[d];
            gt |= v > c[d];
        }
        ge & gt
    };
    let mut base = 0;
    while base + DOMINANCE_CHUNK <= n {
        let mut mask = [0u8; DOMINANCE_CHUNK];
        for (j, m) in mask.iter_mut().enumerate() {
            *m = u8::from(dominates(base + j));
        }
        if let Some(j) = first_set(&mask) {
            return Some(base + j);
        }
        base += DOMINANCE_CHUNK;
    }
    (base..n).find(|&i| dominates(i))
}

/// Runtime-dimensionality fallback (D > 8), dimension-major within a chunk:
/// one compare pass per dimension over the chunk's slice of that lane. A
/// chunk is abandoned as soon as none of its rows is still `>=` in every
/// dimension tested — with many dimensions that happens after a few passes,
/// which is what keeps the chunked scan ahead of a per-row early exit.
fn first_dominator_generic(block: &SoaBlock, coords: &[f64]) -> Option<usize> {
    let n = block.len();
    let mut base = 0;
    while base < n {
        let len = DOMINANCE_CHUNK.min(n - base);
        let mut ge = [1u8; DOMINANCE_CHUNK];
        let mut gt = [0u8; DOMINANCE_CHUNK];
        for (d, &c) in coords.iter().enumerate() {
            let lane = &block.lane(d)[base..base + len];
            for ((ge, gt), &v) in ge.iter_mut().zip(gt.iter_mut()).zip(lane) {
                *ge &= u8::from(v >= c);
                *gt |= u8::from(v > c);
            }
            if !any_set(&ge[..len]) {
                break;
            }
        }
        for (ge, &gt) in ge.iter_mut().zip(gt.iter()) {
            *ge &= gt;
        }
        if let Some(j) = first_set(&ge[..len]) {
            return Some(base + j);
        }
        base += len;
    }
    None
}

/// A shared, immutable table of scoring weight vectors — the batch-scoring
/// face of a function set.
///
/// The rows live behind [`Arc`]s, so a table clone is two pointer bumps: the
/// parallel solver hands clones to pool workers without copying any weights.
/// Row `fi` scores a point as `priority[fi] · Σ_d weights[fi][d]·c[d]`, in
/// the canonical [`dot`] order. Sources that fold the priority into the
/// weights (effective coefficients) use a priority of `1.0`, which is exact.
#[derive(Debug, Clone)]
pub struct ScoreTable {
    weights: Arc<Vec<Box<[f64]>>>,
    priorities: Arc<Vec<f64>>,
    dims: usize,
}

impl ScoreTable {
    /// Builds a table from full functions: plain weights plus the priority
    /// multiplier, matching [`LinearFunction::score`] bit-for-bit.
    pub fn from_functions(functions: &[LinearFunction]) -> Self {
        let dims = functions.first().map_or(0, LinearFunction::dims);
        let weights: Vec<Box<[f64]>> = functions
            .iter()
            // lint: allow(kernel-no-alloc) -- table construction is setup, not a scan
            .map(|f| f.weights().to_vec().into_boxed_slice())
            // lint: allow(kernel-no-alloc) -- table construction is setup, not a scan
            .collect();
        // lint: allow(kernel-no-alloc) -- table construction is setup, not a scan
        let priorities: Vec<f64> = functions.iter().map(LinearFunction::priority).collect();
        Self {
            weights: Arc::new(weights),
            priorities: Arc::new(priorities),
            dims,
        }
    }

    /// Builds a table from pre-folded effective coefficient rows (priority
    /// already multiplied in); rows score with a neutral priority of `1.0`.
    pub fn from_effective_rows(rows: &[Vec<f64>]) -> Self {
        let dims = rows.first().map_or(0, Vec::len);
        let weights: Vec<Box<[f64]>> = rows
            .iter()
            .map(|r| r.clone().into_boxed_slice())
            // lint: allow(kernel-no-alloc) -- table construction is setup, not a scan
            .collect();
        // lint: allow(kernel-no-alloc) -- table construction is setup, not a scan
        let priorities = vec![1.0; rows.len()];
        Self {
            weights: Arc::new(weights),
            priorities: Arc::new(priorities),
            dims,
        }
    }

    /// Number of rows (functions).
    #[inline]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` when the table has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Dimensionality of the rows.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The raw weight row of function `fi`.
    #[inline]
    pub fn row(&self, fi: usize) -> &[f64] {
        &self.weights[fi]
    }

    /// The priority multiplier of function `fi`.
    #[inline]
    pub fn priority(&self, fi: usize) -> f64 {
        self.priorities[fi]
    }

    /// Scores one coordinate slice with row `fi` (canonical scalar order).
    #[inline]
    pub fn score_coords(&self, fi: usize, coords: &[f64]) -> f64 {
        dot(&self.weights[fi], coords) * self.priorities[fi]
    }

    /// Scores one point with row `fi`.
    #[inline]
    pub fn score(&self, fi: usize, point: &Point) -> f64 {
        self.score_coords(fi, point.coords())
    }

    /// Batch-scores a whole block with row `fi` into caller scratch.
    #[inline]
    pub fn score_block(&self, fi: usize, block: &SoaBlock, out: &mut Vec<f64>) {
        score_block(&self.weights[fi], self.priorities[fi], block, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn scalar_score(weights: &[f64], priority: f64, coords: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (w, c) in weights.iter().zip(coords.iter()) {
            acc += w * c;
        }
        acc * priority
    }

    #[test]
    fn block_roundtrip_and_swap_remove() {
        let mut b = SoaBlock::new();
        assert!(b.is_empty());
        b.push_coords(&[0.1, 0.2]);
        b.push_coords(&[0.3, 0.4]);
        b.push_coords(&[0.5, 0.6]);
        assert_eq!((b.len(), b.dims()), (3, 2));
        assert_eq!(b.lane(0), &[0.1, 0.3, 0.5]);
        assert_eq!(b.lane(1), &[0.2, 0.4, 0.6]);
        b.swap_remove(0);
        assert_eq!(b.lane(0), &[0.5, 0.3]);
        assert_eq!(b.lane(1), &[0.6, 0.4]);
        b.clear();
        assert!(b.is_empty());
        // refilling after clear may change dimensionality
        b.push_coords(&[1.0, 2.0, 3.0]);
        assert_eq!(b.dims(), 3);
    }

    #[test]
    #[should_panic(expected = "dimensionality changed")]
    fn mixed_dims_rejected() {
        let mut b = SoaBlock::new();
        b.push_coords(&[0.1, 0.2]);
        b.push_coords(&[0.1, 0.2, 0.3]);
    }

    #[test]
    fn dot_matches_scalar_for_every_dimensionality() {
        for dims in 1..=12 {
            let w: Vec<f64> = (0..dims).map(|d| 0.1 + d as f64 * 0.07).collect();
            let c: Vec<f64> = (0..dims).map(|d| 0.9 - d as f64 * 0.05).collect();
            assert_eq!(
                dot(&w, &c).to_bits(),
                scalar_score(&w, 1.0, &c).to_bits(),
                "dims {dims}"
            );
        }
    }

    #[test]
    fn score_block_matches_scalar_bitwise_across_remainders() {
        // every chunk-remainder length around the chunk width
        for n in 0..(3 * LANE_CHUNK + 1) {
            for dims in 1..=10 {
                let w: Vec<f64> = (0..dims).map(|d| (d as f64 + 1.0) * 0.123).collect();
                let mut block = SoaBlock::new();
                let mut points = Vec::new();
                for i in 0..n {
                    let p: Vec<f64> = (0..dims)
                        .map(|d| ((i * dims + d) as f64).sin().abs())
                        .collect();
                    block.push_coords(&p);
                    points.push(p);
                }
                let mut out = Vec::new();
                score_block(&w, 2.5, &block, &mut out);
                assert_eq!(out.len(), n);
                for (i, p) in points.iter().enumerate() {
                    assert_eq!(
                        out[i].to_bits(),
                        scalar_score(&w, 2.5, p).to_bits(),
                        "n={n} dims={dims} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn score_rows_gives_every_row_range_the_bits_of_score_block() {
        // a const-ladder and a generic dimensionality, ranges that start and
        // end inside, on and across the chunk width
        for dims in [4usize, 12] {
            let w: Vec<f64> = (0..dims).map(|d| (d as f64 + 1.0) * 0.123).collect();
            let n = 3 * LANE_CHUNK + 3;
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    (0..dims)
                        .map(|d| ((i * dims + d) as f64).sin().abs())
                        .collect()
                })
                .collect();
            let block = block_of(&rows);
            let mut whole = Vec::new();
            score_block(&w, 1.0, &block, &mut whole);
            for start in [0, 1, LANE_CHUNK - 1, LANE_CHUNK, n - 1, n] {
                for len in [0, 1, LANE_CHUNK, LANE_CHUNK + 1, n - start] {
                    if start + len > n {
                        continue;
                    }
                    let mut out = [f64::NAN; 3 * LANE_CHUNK + 3];
                    score_rows(&w, 1.0, &block, start, &mut out[..len]);
                    for (i, got) in out[..len].iter().enumerate() {
                        assert_eq!(
                            got.to_bits(),
                            whole[start + i].to_bits(),
                            "dims={dims} start={start} len={len} i={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn score_block_handles_denormals_bitwise() {
        let tiny = f64::MIN_POSITIVE / 8.0; // a subnormal
        let w = vec![tiny, 1.0, tiny];
        let mut block = SoaBlock::new();
        block.push_coords(&[tiny, tiny, 1.0]);
        block.push_coords(&[1.0, tiny, tiny]);
        let mut out = Vec::new();
        score_block(&w, 1.0, &block, &mut out);
        for (i, p) in [[tiny, tiny, 1.0], [1.0, tiny, tiny]].iter().enumerate() {
            assert_eq!(out[i].to_bits(), scalar_score(&w, 1.0, p).to_bits());
        }
    }

    #[test]
    fn first_dominator_matches_pointwise_dominance() {
        let pts = [[0.2, 0.9], [0.5, 0.5], [0.9, 0.2]];
        let mut block = SoaBlock::new();
        for p in &pts {
            block.push_coords(p);
        }
        // dominated by the second point only
        assert_eq!(first_dominator(&block, &[0.4, 0.4]), Some(1));
        // dominated by nothing
        assert_eq!(first_dominator(&block, &[0.95, 0.95]), None);
        // equal to a block point: equality does not dominate
        assert_eq!(first_dominator(&block, &[0.5, 0.5]), None);
        // dominated by the first point
        assert_eq!(first_dominator(&block, &[0.1, 0.8]), Some(0));
        assert_eq!(first_dominator(&SoaBlock::new(), &[0.1]), None);
    }

    /// The definition the chunked scan must reproduce: rows in order, each
    /// abandoned at its first failing dimension.
    fn first_dominator_scalar(rows: &[Vec<f64>], coords: &[f64]) -> Option<usize> {
        'rows: for (i, row) in rows.iter().enumerate() {
            let mut strict = false;
            for (&v, &c) in row.iter().zip(coords) {
                if v < c {
                    continue 'rows;
                }
                strict |= v > c;
            }
            if strict {
                return Some(i);
            }
        }
        None
    }

    fn block_of(rows: &[Vec<f64>]) -> SoaBlock {
        let mut block = SoaBlock::new();
        for row in rows {
            block.push_coords(row);
        }
        block
    }

    /// Block lengths around the chunk width: empty, one row, one short of a
    /// chunk, exactly one, one over, two, two and a row, many.
    const BLOCK_LENS: [usize; 8] = [0, 1, 31, 32, 33, 64, 65, 1000];

    #[test]
    fn first_dominator_equals_the_scalar_definition() {
        // coordinates on a coarse grid, so equal lanes are the common case
        let mut state = 0x2009_0824u64;
        let mut grid = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 5) as f64 / 4.0
        };
        for dims in 1..=12 {
            for n in BLOCK_LENS {
                let rows: Vec<Vec<f64>> = (0..n)
                    .map(|_| (0..dims).map(|_| grid()).collect())
                    .collect();
                let block = block_of(&rows);
                let mut queries: Vec<Vec<f64>> = (0..8)
                    .map(|_| (0..dims).map(|_| grid()).collect())
                    .collect();
                // a low query most rows dominate, a high one few do, and
                // copies of block rows (a duplicate must not count)
                queries.push(vec![0.0; dims]);
                queries.push(vec![1.0; dims]);
                queries.extend(rows.iter().step_by(7).cloned());
                queries.extend(rows.last().cloned());
                for q in &queries {
                    assert_eq!(
                        first_dominator(&block, q),
                        first_dominator_scalar(&rows, q),
                        "dims={dims} n={n} q={q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn first_dominator_edge_rows() {
        for dims in 1..=12 {
            for n in BLOCK_LENS {
                if n == 0 {
                    assert_eq!(first_dominator(&SoaBlock::new(), &vec![0.5; dims]), None);
                    continue;
                }
                let q = vec![0.5; dims];
                // nothing but duplicates of the query: no dominator
                let mut rows = vec![q.clone(); n];
                assert_eq!(
                    first_dominator(&block_of(&rows), &q),
                    None,
                    "dims={dims} n={n}"
                );
                // the last row alone dominates, equal in every lane but one
                for lane in [0, dims - 1] {
                    rows[n - 1] = q.clone();
                    rows[n - 1][lane] = 0.75;
                    assert_eq!(
                        first_dominator(&block_of(&rows), &q),
                        Some(n - 1),
                        "dims={dims} n={n} lane={lane}"
                    );
                }
                // better in every lane but one, worse in that one: no dominator
                for row in &mut rows {
                    *row = vec![0.75; dims];
                    row[dims / 2] = 0.25;
                }
                assert_eq!(
                    first_dominator(&block_of(&rows), &q),
                    None,
                    "dims={dims} n={n}"
                );
                // the first of several dominators wins
                if n >= 3 {
                    rows[n / 2] = vec![0.75; dims];
                    rows[n - 1] = vec![0.75; dims];
                    assert_eq!(first_dominator(&block_of(&rows), &q), Some(n / 2));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn first_dominator_rejects_a_short_query() {
        let block = block_of(&[vec![0.5, 0.5, 0.5]]);
        let _ = first_dominator(&block, &[0.1, 0.1]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn first_dominator_rejects_a_long_query_past_the_const_ladder() {
        let block = block_of(&[vec![0.5; 9]]);
        let _ = first_dominator(&block, &[0.1; 10]);
    }

    #[test]
    fn score_table_from_functions_matches_linear_function_bitwise() {
        let fns = vec![
            LinearFunction::with_priority(vec![0.8, 0.2], 3.0).unwrap(),
            LinearFunction::new(vec![0.3, 0.7]).unwrap(),
        ];
        let table = ScoreTable::from_functions(&fns);
        assert_eq!((table.len(), table.dims()), (2, 2));
        let p = Point::from_slice(&[0.41, 0.73]);
        for (fi, f) in fns.iter().enumerate() {
            assert_eq!(table.score(fi, &p).to_bits(), f.score(&p).to_bits());
        }
        let mut block = SoaBlock::new();
        block.push_point(&p);
        let mut out = Vec::new();
        table.score_block(0, &block, &mut out);
        assert_eq!(out[0].to_bits(), fns[0].score(&p).to_bits());
    }

    #[test]
    fn score_table_effective_rows_are_priority_neutral() {
        let rows = vec![vec![0.5, 1.5], vec![0.25, 0.75]];
        let table = ScoreTable::from_effective_rows(&rows);
        let c = [0.33, 0.66];
        for (fi, row) in rows.iter().enumerate() {
            // Σ w·c with no trailing multiply, bit-for-bit (x·1.0 == x)
            let want: f64 = scalar_score(row, 1.0, &c);
            assert_eq!(table.score_coords(fi, &c).to_bits(), want.to_bits());
        }
    }

    /// The steady-state contract: once warmed, score → clear → refill
    /// allocates nothing. A reallocation would move the scratch buffer or a
    /// block lane, so their addresses are pinned across the rounds.
    #[test]
    fn steady_state_scoring_never_reallocates() {
        for dims in [1usize, 3, 8, 12] {
            let rows: Vec<Vec<f64>> = (0..96)
                .map(|i| {
                    (0..dims)
                        .map(|d| ((i * dims + d) as f64).sin().abs())
                        .collect()
                })
                .collect();
            let table = ScoreTable::from_effective_rows(&rows[..8]);
            let mut block = block_of(&rows);
            let mut out = Vec::new();
            table.score_block(0, &block, &mut out); // warm-up sizes the scratch
            let pinned = |block: &SoaBlock, out: &Vec<f64>| {
                let lanes: Vec<*const f64> = (0..dims).map(|d| block.lane(d).as_ptr()).collect();
                (out.as_ptr(), out.capacity(), lanes)
            };
            let before = pinned(&block, &out);
            for _ in 0..4 {
                for fi in 0..table.len() {
                    table.score_block(fi, &block, &mut out);
                }
                block.clear();
                for row in &rows {
                    block.push_coords(row);
                }
            }
            assert_eq!(pinned(&block, &out), before, "dims {dims}");
        }
    }

    proptest! {
        #[test]
        fn prop_block_scores_bit_identical_to_scalar(
            dims in 1usize..=9,
            n in 0usize..40,
            seed in 0u64..1000,
            priority in prop_oneof![Just(1.0f64), 0.5f64..4.0],
        ) {
            // duplicated points included on purpose: i % 7 collides
            let coord = |i: usize, d: usize| {
                let x = (seed as f64 + (i % 7) as f64 * 1.37 + d as f64 * 0.61).sin();
                x.abs()
            };
            let w: Vec<f64> = (0..dims).map(|d| coord(97, d) + 1e-3).collect();
            let mut block = SoaBlock::new();
            let mut pts = Vec::new();
            for i in 0..n {
                let p: Vec<f64> = (0..dims).map(|d| coord(i, d)).collect();
                block.push_coords(&p);
                pts.push(p);
            }
            let mut out = Vec::new();
            score_block(&w, priority, &block, &mut out);
            prop_assert_eq!(out.len(), n);
            for (i, p) in pts.iter().enumerate() {
                prop_assert_eq!(out[i].to_bits(), scalar_score(&w, priority, p).to_bits());
                prop_assert_eq!(dot(&w, p).to_bits(), scalar_score(&w, 1.0, p).to_bits());
            }
        }
    }
}
