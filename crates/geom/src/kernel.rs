//! Columnar (SoA) scoring and dominance kernels.
//!
//! Preference functions are linear, so scoring a page of objects is a dense
//! dot-product batch — a memory-bound kernel. This module lays points out in
//! **structure-of-arrays** form ([`SoaBlock`]: one contiguous `f64` lane per
//! dimension) and scores whole blocks with fixed-width-chunked kernels that
//! LLVM autovectorizes on stable Rust (no `unsafe`, no nightly `std::simd`):
//! vectorization runs across the *point* axis, so each point's score is still
//! accumulated dimension-by-dimension in the exact order of the scalar path.
//!
//! The skyline's pruning test, [`first_dominator_from`], scans the same
//! layout. It is bound by the bytes it reads per decision, so it reads as few
//! as the answer allows: the weak half of dominance (`>=` everywhere) over
//! whole chunks of `f32` *screen lanes*, which [`SoaBlock`] keeps beside its
//! `f64` lanes at half the bytes; past `D = 8` the most selective dimension
//! first; and no rows the caller has already cleared. A screen lane holds
//! each coordinate rounded toward +∞ and the query is rounded toward −∞, so
//! `up(x) ≥ x ≥ q ≥ down(q)`: no row that is `>=` in `f64` fails the screen.
//! Rows that pass are confirmed in `f64`, the weak half and the strict half
//! (`>` somewhere), in row order. Its answer is always the *first*
//! dominating row, the one a row-by-row scan finds. [`dominates_row`] asks
//! one row alone, for a caller that has a likely dominator in mind.
//!
//! # Determinism contract
//!
//! Every kernel reproduces the scalar summation order bit-for-bit:
//!
//! * [`dot`] computes `acc = 0.0; acc += w[d]·c[d]` for `d = 0, 1, …` — the
//!   one floating-point sequence for a score. [`crate::LinearFunction`]
//!   runs it over its effective row `γ·αᵢ`, and so does every function index
//!   built from that row.
//! * [`score_block`] and [`score_rows`] compute the identical per-point
//!   sequence for every lane row. They take no priority: a prioritized
//!   function scores with its effective row, never by scaling a sum.
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

/// A columnar block of points: dimension-major `f64` lanes, each with an
/// `f32` screen lane beside it for the dominance scan.
///
/// `lane(d)[i]` is coordinate `d` of point `i`. The block is a reusable
/// scratch structure: [`SoaBlock::clear`] keeps lane capacity so steady-state
/// refills allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct SoaBlock {
    dims: usize,
    len: usize,
    lanes: Vec<Vec<f64>>,
    /// `screen[d][i]` is `lanes[d][i]` rounded toward +∞ to `f32`: the
    /// half-width copy [`first_dominator_from`] screens rows on before it
    /// confirms them in `f64`. Follows `lanes` through every push and
    /// removal. Empty in a block built by [`SoaBlock::for_scoring`].
    screen: Vec<Vec<f32>>,
    /// Set by [`SoaBlock::for_scoring`]: no screen lanes, no dominance scans.
    scoring_only: bool,
}

impl SoaBlock {
    /// Creates an empty block; the dimensionality is fixed by the first push.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty block that is only ever scored, never scanned for
    /// dominance: it keeps no screen lanes, so a refill costs only the
    /// `f64` lanes. For scratch blocks refilled once per operation (the
    /// engine's repair rebuilds one per call); [`first_dominator_from`]
    /// panics on such a block.
    pub fn for_scoring() -> Self {
        Self {
            scoring_only: true,
            ..Self::default()
        }
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
        for lane in &mut self.screen {
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
            if !self.scoring_only {
                // lint: allow(kernel-no-alloc) -- one-time lane growth on first fill
                self.screen.resize_with(coords.len(), Vec::new);
            }
        }
        self.dims = coords.len();
        for (lane, &c) in self.lanes.iter_mut().zip(coords.iter()) {
            lane.push(c);
        }
        for (lane, &c) in self.screen.iter_mut().zip(coords.iter()) {
            lane.push(round_up_f32(c));
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
        for lane in &mut self.screen {
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

/// Scores every point of `block` with one weight vector: `out[i] =
/// Σ_d weights[d]·lane(d)[i]`, accumulated per point in ascending-dimension
/// order (bit-identical to [`dot`]).
///
/// `out` is caller-owned scratch; it is cleared and resized to `block.len()`.
///
/// # Panics
/// Panics if `weights.len() != block.dims()` (unless the block is empty).
pub fn score_block(weights: &[f64], block: &SoaBlock, out: &mut Vec<f64>) {
    out.clear();
    out.resize(block.len(), 0.0);
    score_rows(weights, block, 0, out);
}

/// [`score_block`] over the rows `start .. start + out.len()` only, into a
/// slice the caller sized: a scan that scores a block chunk by chunk into a
/// fixed stack buffer allocates nothing. Row `start + i` lands in `out[i]`,
/// the same bits [`score_block`] gives it.
///
/// # Panics
/// Panics if the range runs past `block.len()`, or if `weights.len() !=
/// block.dims()` (unless `out` is empty).
pub fn score_rows(weights: &[f64], block: &SoaBlock, start: usize, out: &mut [f64]) {
    if out.is_empty() {
        return;
    }
    assert_eq!(weights.len(), block.dims(), "dimension mismatch");
    match weights.len() {
        1 => score_lanes_const::<1>(weights, block, start, out),
        2 => score_lanes_const::<2>(weights, block, start, out),
        3 => score_lanes_const::<3>(weights, block, start, out),
        4 => score_lanes_const::<4>(weights, block, start, out),
        5 => score_lanes_const::<5>(weights, block, start, out),
        6 => score_lanes_const::<6>(weights, block, start, out),
        7 => score_lanes_const::<7>(weights, block, start, out),
        8 => score_lanes_const::<8>(weights, block, start, out),
        _ => score_lanes_generic(weights, block, start, out),
    }
}

/// Fixed-dimensionality block kernel: the dimension loop has a compile-time
/// trip count, the point loop runs in [`LANE_CHUNK`]-wide chunks over slices
/// pre-cut to a common length, so the autovectorizer sees a branch-free
/// multiply-add ladder across the point axis.
#[inline]
fn score_lanes_const<const D: usize>(
    weights: &[f64],
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
            out[i] = acc;
        }
        base += LANE_CHUNK;
    }
    for i in base..n {
        let mut acc = 0.0;
        for d in 0..D {
            acc += w[d] * cols[d][i];
        }
        out[i] = acc;
    }
}

/// Runtime-dimensionality fallback (D > 8), dimension-major: one clean
/// slice-to-slice multiply-add pass per dimension into the accumulator
/// buffer. Per point the accumulator still starts at `0.0` and adds
/// `w[d]·c[d]` in ascending-`d` order — the canonical [`dot`] sequence — so
/// the pass order is a pure layout change, not a reassociation.
fn score_lanes_generic(weights: &[f64], block: &SoaBlock, start: usize, out: &mut [f64]) {
    let n = out.len();
    out.fill(0.0);
    for (d, &w) in weights.iter().enumerate() {
        let lane = &block.lane(d)[start..start + n];
        for (acc, &c) in out.iter_mut().zip(lane) {
            *acc += w * c;
        }
    }
}

/// Rows per chunk of [`first_dominator_from`]: one mask byte per row fills two
/// SSE2 or one AVX2 register, and a chunk of a screen lane is two cache lines
/// of `f32`s, half the four its `f64` lane would take.
const DOMINANCE_CHUNK: usize = 32;

/// `x` rounded toward +∞ to `f32`: the least `f32` not below `x` (`+∞` past
/// `f32::MAX`). A screen lane entry is never below the coordinate it stands
/// for.
#[inline]
fn round_up_f32(x: f64) -> f32 {
    let f = x as f32;
    if f64::from(f) < x {
        f.next_up()
    } else {
        f
    }
}

/// `x` rounded toward −∞ to `f32`: the greatest `f32` not above `x`. A
/// screened query coordinate is never above the one it stands for.
#[inline]
fn round_down_f32(x: f64) -> f32 {
    let f = x as f32;
    if f64::from(f) > x {
        f.next_down()
    } else {
        f
    }
}

/// Widest query whose dimensions the generic (D > 8) dominance scan visits
/// most selective first: the order lives in a stack array of this many
/// indices, so ordering allocates nothing. A wider query keeps lane order.
const SORTED_DIMS: usize = 32;

/// Returns the index of the first point in `block` that *dominates* `coords`
/// (component-wise `>=` everywhere, `>` somewhere — the paper's Section 2.2
/// definition, larger-is-better), or `None`: [`first_dominator_from`] from
/// row 0.
///
/// # Panics
/// Panics if `coords.len() != block.dims()` (unless the block is empty).
pub fn first_dominator(block: &SoaBlock, coords: &[f64]) -> Option<usize> {
    first_dominator_from(block, coords, 0)
}

/// Returns the index of the first point among rows `from..` of `block` that
/// dominates `coords`, or `None` — the columnar form of the skyline pruning
/// scan. The lanes are contiguous, so the scan streams cache lines instead of
/// chasing per-point heap boxes. A caller that already knows rows `0..from`
/// do not dominate `coords`, and that those rows have not changed since, gets
/// the answer a scan from row 0 gives without reading them again.
///
/// Dominance splits into a cheap half and a rare half. The scan screens rows
/// on the weak half, `>=` in every dimension, over 32 rows at a time
/// (`DOMINANCE_CHUNK`), one mask byte per row and no branch per row or per
/// dimension: on data where a row fails at an unpredictable dimension
/// (anti-correlated points) an early exit per row costs more in mispredicted
/// branches than the comparisons it skips. The screen reads the block's
/// `f32` lanes, each coordinate rounded toward +∞, against the query rounded
/// toward −∞: `up(x) ≥ x ≥ q ≥ down(q)`, so a row that is `>=` in `f64` is
/// never screened out, and the screen moves half the bytes. Rows that
/// survive are confirmed in `f64`, both the weak half and the strict half
/// (`>` somewhere), in row order; the first to pass is the answer, the row a
/// row-by-row scan returns. A survivor that fails is equal to the query or
/// only rounded level with it, and the scan goes on past it.
///
/// Up to `D = 8` the dimension loop has a compile-time trip count. Past it,
/// each chunk is tested dimension-major, the query's highest coordinate first
/// (fewest rows reach it), and is dropped as soon as none of its rows is
/// still `>=`.
///
/// # Panics
/// Panics if `from > block.len()`, or, unless no row is scanned, if
/// `coords.len() != block.dims()` or the block was built
/// [`SoaBlock::for_scoring`].
pub fn first_dominator_from(block: &SoaBlock, coords: &[f64], from: usize) -> Option<usize> {
    let n = block.len();
    assert!(from <= n, "scan start {from} is past the block's {n} rows");
    if from == n {
        return None;
    }
    assert_eq!(coords.len(), block.dims(), "dimension mismatch");
    assert!(
        !block.scoring_only,
        "dominance scan of a block built for scoring only"
    );
    match coords.len() {
        1 => first_dominator_const::<1>(block, coords, from),
        2 => first_dominator_const::<2>(block, coords, from),
        3 => first_dominator_const::<3>(block, coords, from),
        4 => first_dominator_const::<4>(block, coords, from),
        5 => first_dominator_const::<5>(block, coords, from),
        6 => first_dominator_const::<6>(block, coords, from),
        7 => first_dominator_const::<7>(block, coords, from),
        8 => first_dominator_const::<8>(block, coords, from),
        _ => first_dominator_generic(block, coords, from),
    }
}

/// `true` iff row `row` of `block` dominates `coords`: `>=` in every
/// dimension and `>` in one, exact in `f64`. One row of
/// [`first_dominator_from`]'s definition, for a caller that has a likely
/// dominator in mind and wants to ask it alone.
///
/// # Panics
/// Panics if `row >= block.len()`; debug-asserts `coords.len() ==
/// block.dims()`.
#[inline]
pub fn dominates_row(block: &SoaBlock, row: usize, coords: &[f64]) -> bool {
    debug_assert_eq!(coords.len(), block.dims(), "dimension mismatch");
    let mut ge = true;
    let mut gt = false;
    for (lane, &c) in block.lanes.iter().zip(coords) {
        let v = lane[row];
        ge &= v >= c;
        gt |= v > c;
    }
    ge && gt
}

/// `true` iff some byte of a chunk's mask is set: an OR-fold, not a search,
/// so the common all-clear answer costs no branch per row.
#[inline]
fn any_set(mask: &[u8]) -> bool {
    mask.iter().fold(0u8, |any, &m| any | m) != 0
}

/// The first row of a chunk starting at row `base` whose screen mask byte is
/// set and that `dominates` confirms in `f64`.
#[inline]
fn first_confirmed(ge: &[u8], base: usize, dominates: impl Fn(usize) -> bool) -> Option<usize> {
    if !any_set(ge) {
        return None;
    }
    (base..base + ge.len()).find(|&i| ge[i - base] != 0 && dominates(i))
}

/// Fixed-dimensionality dominance scan: like [`score_lanes_const`] the
/// dimension loop has a compile-time trip count and the row loop runs over
/// lanes pre-cut to a common length, so each chunk's screen mask is a
/// branch-free compare-and-combine ladder across the row axis. The last
/// partial chunk is tested row by row in `f64`.
#[inline]
fn first_dominator_const<const D: usize>(
    block: &SoaBlock,
    coords: &[f64],
    from: usize,
) -> Option<usize> {
    let n = block.len();
    let mut c = [0.0f64; D];
    let mut low = [0.0f32; D];
    let mut cols: [&[f64]; D] = [&[]; D];
    let mut screen: [&[f32]; D] = [&[]; D];
    for d in 0..D {
        c[d] = coords[d];
        low[d] = round_down_f32(coords[d]);
        cols[d] = &block.lane(d)[..n];
        screen[d] = &block.screen[d][..n];
    }
    let dominates = |i: usize| {
        let mut ge = true;
        for d in 0..D {
            ge &= cols[d][i] >= c[d];
        }
        ge && (0..D).any(|d| cols[d][i] > c[d])
    };
    let mut base = from;
    while base + DOMINANCE_CHUNK <= n {
        let mut ge = [0u8; DOMINANCE_CHUNK];
        for (j, m) in ge.iter_mut().enumerate() {
            let mut pass = true;
            for d in 0..D {
                pass &= screen[d][base + j] >= low[d];
            }
            *m = u8::from(pass);
        }
        if let Some(i) = first_confirmed(&ge, base, dominates) {
            return Some(i);
        }
        base += DOMINANCE_CHUNK;
    }
    (base..n).find(|&i| dominates(i))
}

/// Runtime-dimensionality fallback (D > 8), dimension-major within a chunk:
/// one screen pass per dimension over the chunk's slice of that lane, in
/// descending order of the query's coordinate. A high coordinate is one few
/// rows reach, so the first passes clear most of the mask and the chunk is
/// usually abandoned after one or two of its `D` lanes.
fn first_dominator_generic(block: &SoaBlock, coords: &[f64], from: usize) -> Option<usize> {
    let n = block.len();
    let dims = coords.len();
    let sorted = dims <= SORTED_DIMS;
    let mut order = [0usize; SORTED_DIMS];
    if sorted {
        let order = &mut order[..dims];
        for (d, o) in order.iter_mut().enumerate() {
            *o = d;
        }
        order.sort_unstable_by(|&a, &b| coords[b].total_cmp(&coords[a]));
    }
    let kth_dim = |k: usize| if sorted { order[k] } else { k };
    let dominates = |i: usize| dominates_row(block, i, coords);
    let mut base = from;
    while base < n {
        let len = DOMINANCE_CHUNK.min(n - base);
        let mut ge = [1u8; DOMINANCE_CHUNK];
        let ge = &mut ge[..len];
        for d in (0..dims).map(kth_dim) {
            let low = round_down_f32(coords[d]);
            for (m, &v) in ge.iter_mut().zip(&block.screen[d][base..base + len]) {
                *m &= u8::from(v >= low);
            }
            if !any_set(ge) {
                break;
            }
        }
        if let Some(i) = first_confirmed(ge, base, dominates) {
            return Some(i);
        }
        base += len;
    }
    None
}

/// A shared, immutable table of effective weight rows — the batch-scoring
/// face of a function set.
///
/// The rows live behind an [`Arc`], so a table clone is one pointer bump.
/// Row `fi` holds function `fi`'s effective weights `γ·αᵢ` and scores a
/// point as `Σ_d row[d]·c[d]` in the canonical [`dot`] order, the bits of
/// [`LinearFunction::score`]. The solvers do not use it: their function
/// index keeps the same rows as one columnar block.
#[derive(Debug, Clone)]
pub struct ScoreTable {
    weights: Arc<Vec<Box<[f64]>>>,
    dims: usize,
}

impl ScoreTable {
    /// Builds a table from the functions' effective rows, matching
    /// [`LinearFunction::score`] bit-for-bit.
    pub fn from_functions(functions: &[LinearFunction]) -> Self {
        let dims = functions.first().map_or(0, LinearFunction::dims);
        let weights: Vec<Box<[f64]>> = functions
            .iter()
            .map(|f| Box::from(f.effective_weights()))
            // lint: allow(kernel-no-alloc) -- table construction is setup, not a scan
            .collect();
        Self {
            weights: Arc::new(weights),
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

    /// Scores one coordinate slice with row `fi` (canonical scalar order).
    #[inline]
    pub fn score_coords(&self, fi: usize, coords: &[f64]) -> f64 {
        dot(&self.weights[fi], coords)
    }

    /// Scores one point with row `fi`.
    #[inline]
    pub fn score(&self, fi: usize, point: &Point) -> f64 {
        self.score_coords(fi, point.coords())
    }

    /// Batch-scores a whole block with row `fi` into caller scratch.
    #[inline]
    pub fn score_block(&self, fi: usize, block: &SoaBlock, out: &mut Vec<f64>) {
        score_block(&self.weights[fi], block, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn scalar_score(weights: &[f64], coords: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (w, c) in weights.iter().zip(coords.iter()) {
            acc += w * c;
        }
        acc
    }

    /// Every screen lane entry is its `f64` lane entry rounded toward +∞:
    /// not below it, and the next `f32` down is below it.
    fn assert_screen_follows_lanes(b: &SoaBlock) {
        assert_eq!(b.screen.len(), b.lanes.len());
        for (lane, screen) in b.lanes.iter().zip(&b.screen) {
            assert_eq!(screen.len(), b.len());
            for (&x, &up) in lane.iter().zip(screen) {
                assert!(f64::from(up) >= x, "{up} is below {x}");
                assert!(
                    f64::from(up.next_down()) < x,
                    "{up} is not the least f32 >= {x}"
                );
            }
        }
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
        assert_screen_follows_lanes(&b);
        let up = round_up_f32;
        assert_eq!(b.screen[0], [up(0.1), up(0.3), up(0.5)]);
        b.swap_remove(0);
        assert_eq!(b.lane(0), &[0.5, 0.3]);
        assert_eq!(b.lane(1), &[0.6, 0.4]);
        assert_eq!(b.screen[0], [up(0.5), up(0.3)]);
        assert_eq!(b.screen[1], [up(0.6), up(0.4)]);
        assert_screen_follows_lanes(&b);
        b.clear();
        assert!(b.is_empty());
        assert!(b.screen.iter().all(Vec::is_empty));
        // refilling after clear may change dimensionality
        b.push_coords(&[1.0, 2.0, 3.0]);
        assert_eq!(b.dims(), 3);
        assert_screen_follows_lanes(&b);
        assert_eq!(b.screen[2], [3.0f32]);
    }

    #[test]
    fn a_scoring_block_keeps_no_screen_and_scores_the_same_bits() {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| (0..4).map(|d| ((i * 4 + d) as f64).sin().abs()).collect())
            .collect();
        let screened = block_of(&rows);
        let mut scoring = SoaBlock::for_scoring();
        for row in &rows {
            scoring.push_coords(row);
        }
        scoring.swap_remove(3);
        scoring.push_coords(&rows[3]);
        assert!(scoring.screen.is_empty());
        let w = [0.4, 0.3, 0.2, 0.1];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        score_block(&w, &screened, &mut a);
        score_block(&w, &scoring, &mut b);
        assert_eq!(a[3].to_bits(), b[39].to_bits());
        assert_eq!(a[..3], b[..3]);
        assert!(dominates_row(&scoring, 0, &[0.0; 4]));
    }

    #[test]
    #[should_panic(expected = "built for scoring only")]
    fn a_scoring_block_refuses_a_dominance_scan() {
        let mut block = SoaBlock::for_scoring();
        block.push_coords(&[0.5, 0.5]);
        let _ = first_dominator(&block, &[0.1, 0.1]);
    }

    #[test]
    fn screen_rounding_brackets_every_f64() {
        let tiny = f64::from_bits(1); // the least positive subnormal
        for x in [
            0.0,
            -0.0,
            tiny,
            -tiny,
            f64::MIN_POSITIVE / 8.0,
            0.1,
            -0.1,
            1.0 / 3.0,
            f64::from(f32::MAX),
            f64::from(f32::MAX) * 1.5,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
        ] {
            let (down, up) = (round_down_f32(x), round_up_f32(x));
            assert!(
                f64::from(down) <= x && x <= f64::from(up),
                "{x}: {down} {up}"
            );
            assert!(f64::from(up.next_down()) < x, "{x}: {up} is not the least");
            assert!(
                f64::from(down.next_up()) > x,
                "{x}: {down} is not the greatest"
            );
        }
        assert!(round_up_f32(f64::NAN).is_nan() && round_down_f32(f64::NAN).is_nan());
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
                scalar_score(&w, &c).to_bits(),
                "dims {dims}"
            );
        }
    }

    #[test]
    fn score_block_matches_scalar_bitwise_across_remainders() {
        // every chunk-remainder length around the chunk width
        for n in 0..(3 * LANE_CHUNK + 1) {
            for dims in 1..=10 {
                // a prioritized function's effective row, γ = 2.5
                let f = LinearFunction::with_priority(
                    (0..dims).map(|d| (d as f64 + 1.0) * 0.123).collect(),
                    2.5,
                )
                .unwrap();
                let w = f.effective_weights();
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
                score_block(w, &block, &mut out);
                assert_eq!(out.len(), n);
                for (i, p) in points.iter().enumerate() {
                    assert_eq!(out[i].to_bits(), scalar_score(w, p).to_bits());
                    assert_eq!(
                        out[i].to_bits(),
                        f.score_coords(p).to_bits(),
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
            score_block(&w, &block, &mut whole);
            for start in [0, 1, LANE_CHUNK - 1, LANE_CHUNK, n - 1, n] {
                for len in [0, 1, LANE_CHUNK, LANE_CHUNK + 1, n - start] {
                    if start + len > n {
                        continue;
                    }
                    let mut out = [f64::NAN; 3 * LANE_CHUNK + 3];
                    score_rows(&w, &block, start, &mut out[..len]);
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
        score_block(&w, &block, &mut out);
        for (i, p) in [[tiny, tiny, 1.0], [1.0, tiny, tiny]].iter().enumerate() {
            assert_eq!(out[i].to_bits(), scalar_score(&w, p).to_bits());
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

    /// Every dimensionality of the const ladder and of the sorted generic
    /// path through `D = 20`, and one past the sort buffer (lane order).
    fn tested_dims() -> impl Iterator<Item = usize> {
        (1..=20).chain([SORTED_DIMS + 1])
    }

    /// A block of `n` rows on a coarse grid, so equal lanes are the common
    /// case, and the queries to ask of it: random ones, a low query most rows
    /// dominate, a high one few do, and copies of block rows (a duplicate
    /// must not count).
    fn grid_case(
        grid: &mut impl FnMut() -> f64,
        dims: usize,
        n: usize,
    ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dims).map(|_| grid()).collect())
            .collect();
        let mut queries: Vec<Vec<f64>> = (0..8)
            .map(|_| (0..dims).map(|_| grid()).collect())
            .collect();
        queries.push(vec![0.0; dims]);
        queries.push(vec![1.0; dims]);
        queries.extend(rows.iter().step_by(7).cloned());
        queries.extend(rows.last().cloned());
        (rows, queries)
    }

    fn grid_coords() -> impl FnMut() -> f64 {
        let mut state = 0x2009_0824u64;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 5) as f64 / 4.0
        }
    }

    #[test]
    fn first_dominator_equals_the_scalar_definition() {
        let mut grid = grid_coords();
        for dims in tested_dims() {
            for n in BLOCK_LENS {
                let (rows, queries) = grid_case(&mut grid, dims, n);
                let block = block_of(&rows);
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
    fn first_dominator_from_equals_the_scalar_definition_on_the_suffix() {
        let mut grid = grid_coords();
        for dims in tested_dims() {
            for n in BLOCK_LENS {
                let (rows, queries) = grid_case(&mut grid, dims, n);
                let block = block_of(&rows);
                for from in [0, 1, 31, 32, 33, n.saturating_sub(1), n] {
                    if from > n {
                        continue;
                    }
                    for q in &queries {
                        assert_eq!(
                            first_dominator_from(&block, q, from),
                            first_dominator_scalar(&rows[from..], q).map(|i| from + i),
                            "dims={dims} n={n} from={from} q={q:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn first_dominator_edge_rows() {
        for dims in tested_dims() {
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
                // rows equal to the query ahead of a dominator in the same
                // chunk, among worse rows: they pass the `>=` mask, fail the
                // strict test, and the scan goes on to the dominator
                if n >= 2 {
                    let last = n.min(DOMINANCE_CHUNK) - 1;
                    for row in &mut rows {
                        *row = vec![0.25; dims];
                    }
                    rows[0] = q.clone();
                    rows[last / 2] = q.clone();
                    rows[last] = q.clone();
                    rows[last][dims - 1] = 0.75;
                    assert_eq!(
                        first_dominator(&block_of(&rows), &q),
                        Some(last),
                        "dims={dims} n={n}"
                    );
                }
            }
        }
    }

    /// Rows the `f32` screen cannot tell from a dominator of `q`, with two
    /// real dominators among them (rows `n / 2 + 3` and `n - 1`):
    ///
    /// * one `f64` ulp below `q` in one lane, which rounds to the same `f32`
    ///   as `q` there, and one ulp above it in the next lane;
    /// * `q` itself, with its zeros' signs flipped where it has any.
    fn rounding_edge_rows(q: &[f64], n: usize) -> Vec<Vec<f64>> {
        let dims = q.len();
        (0..n)
            .map(|i| {
                let mut row = q.to_vec();
                if i == n / 2 + 3 || i == n - 1 {
                    row[i % dims] = q[i % dims].next_up();
                } else if i % 2 == 0 {
                    let lane = (i / 2) % dims;
                    row[lane] = q[lane].next_down();
                    row[(lane + 1) % dims] = q[(lane + 1) % dims].next_up();
                } else {
                    for v in &mut row {
                        if *v == 0.0 {
                            *v = -*v;
                        }
                    }
                }
                row
            })
            .collect()
    }

    #[test]
    fn first_dominator_from_confirms_screened_rows_in_f64() {
        let tiny = f64::MIN_POSITIVE / 8.0; // a subnormal
        let n = 3 * DOMINANCE_CHUNK + 5;
        for dims in [4usize, 12] {
            let alternate = |a: f64, b: f64| -> Vec<f64> {
                (0..dims).map(|d| if d % 2 == 0 { a } else { b }).collect()
            };
            let queries = [
                alternate(0.7, 0.3),
                vec![1e300; dims],
                alternate(-1e300, 1e300),
                alternate(tiny, -tiny),
                vec![f64::from_bits(1); dims],
                vec![0.0; dims],
                vec![-0.0; dims],
                alternate(0.0, -0.0),
            ];
            for q in &queries {
                // every row passes the screen; only the f64 confirmation
                // turns away the ones a lane ulp short of `q`
                let rows = rounding_edge_rows(q, n);
                let block = block_of(&rows);
                for from in [0, 1, DOMINANCE_CHUNK + 1, n / 2, n / 2 + 4, n - 1] {
                    let want = first_dominator_scalar(&rows[from..], q).map(|i| from + i);
                    assert!(want.is_some());
                    assert_eq!(
                        first_dominator_from(&block, q, from),
                        want,
                        "dims={dims} from={from} q={q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn dominates_row_is_one_row_of_the_scan() {
        let mut grid = grid_coords();
        for dims in [2usize, 4, 12] {
            let (rows, queries) = grid_case(&mut grid, dims, 40);
            let block = block_of(&rows);
            for q in &queries {
                for (i, row) in rows.iter().enumerate() {
                    let scalar = first_dominator_scalar(std::slice::from_ref(row), q);
                    assert_eq!(dominates_row(&block, i, q), scalar.is_some());
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
        // γ = 1.3 is not a power of two: scaling the plain sum by it rounds
        // differently from the effective row on some of these points
        let fns = vec![
            LinearFunction::with_priority(vec![0.8, 0.2], 3.0).unwrap(),
            LinearFunction::new(vec![0.3, 0.7]).unwrap(),
            LinearFunction::with_priority(vec![0.375, 0.625], 1.3).unwrap(),
        ];
        let table = ScoreTable::from_functions(&fns);
        assert_eq!((table.len(), table.dims()), (3, 2));
        let points: Vec<Point> = [[0.41, 0.73], [0.5625, 0.5625], [0.1, 0.9]]
            .iter()
            .map(|c| Point::from_slice(c))
            .collect();
        let mut block = SoaBlock::new();
        for p in &points {
            block.push_point(p);
        }
        let mut out = Vec::new();
        for (fi, f) in fns.iter().enumerate() {
            table.score_block(fi, &block, &mut out);
            for (p, got) in points.iter().zip(&out) {
                assert_eq!(table.score(fi, p).to_bits(), f.score(p).to_bits());
                assert_eq!(got.to_bits(), f.score(p).to_bits(), "f{fi} on {p:?}");
            }
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
            let mut block = block_of(&rows);
            let mut out = Vec::new();
            score_block(&rows[0], &block, &mut out); // warm-up sizes the scratch
            let pinned = |block: &SoaBlock, out: &Vec<f64>| {
                let lanes: Vec<*const f64> = (0..dims).map(|d| block.lane(d).as_ptr()).collect();
                (out.as_ptr(), out.capacity(), lanes)
            };
            let before = pinned(&block, &out);
            for _ in 0..4 {
                for weights in &rows[..8] {
                    score_block(weights, &block, &mut out);
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
            // a function's effective row: γ·αᵢ, its bits fixed before scoring
            let w: Vec<f64> = (0..dims).map(|d| (coord(97, d) + 1e-3) * priority).collect();
            let mut block = SoaBlock::new();
            let mut pts = Vec::new();
            for i in 0..n {
                let p: Vec<f64> = (0..dims).map(|d| coord(i, d)).collect();
                block.push_coords(&p);
                pts.push(p);
            }
            let mut out = Vec::new();
            score_block(&w, &block, &mut out);
            prop_assert_eq!(out.len(), n);
            for (i, p) in pts.iter().enumerate() {
                prop_assert_eq!(out[i].to_bits(), scalar_score(&w, p).to_bits());
                prop_assert_eq!(dot(&w, p).to_bits(), out[i].to_bits());
            }
        }
    }
}
