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
//! as the answer allows: one `u32` *cut code* per row, which [`SoaBlock`]
//! keeps beside its `f64` lanes, and the coordinates of only the rows whose
//! code can still dominate; no rows the caller has already cleared. Bit
//! `d·T + j` of a code is `x_d >= cut[d][j]`, for `T` cut values per
//! dimension taken from the block's own quantiles when it reaches 64 rows
//! and each time its length doubles after that. A row that is `>=` the
//! query everywhere is `>=` every cut the query reaches, so its code holds
//! the query's: no row that can dominate fails the filter, whatever the cut
//! values. Rows that pass are confirmed in `f64`, `>=` everywhere and `>`
//! somewhere, in row order. Its answer is always the *first* dominating
//! row, the one a row-by-row scan finds. [`dominates_row`] asks one row
//! alone, for a caller that has a likely dominator in mind.
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

/// A columnar block of points: dimension-major `f64` lanes, plus one `u32`
/// cut code per row for the dominance scan.
///
/// `lane(d)[i]` is coordinate `d` of point `i`. The block is a reusable
/// scratch structure: [`SoaBlock::clear`] keeps lane capacity so steady-state
/// refills allocate nothing.
///
/// **Cut codes.** Each coded dimension `d` has `T = clamp(32 / D, 1, 8)` cut
/// values, and bit `d·T + j` of a point's code is `x_d >= cut[d][j]`; past
/// `D = 32` only the first `32 / T` dimensions are coded. The cut values are
/// the quantiles `(j + 1) / (T + 1)` of the block's own rows in each
/// dimension. They are derived when the block first reaches
/// `FIRST_DERIVATION` (64) rows and again each time its length doubles from
/// the last derivation, and every row's code is then recomputed; a pushed row
/// is coded against the cut values of the moment. [`SoaBlock::clear`] drops
/// them, and until the first derivation every code is 0. Any cut values are
/// correct (see [`first_dominator_from`]); stale ones only pass more rows.
#[derive(Debug, Clone, Default)]
pub struct SoaBlock {
    dims: usize,
    len: usize,
    lanes: Vec<Vec<f64>>,
    /// `codes[i]` is row `i`'s cut code against `cuts`: the one word per
    /// row [`first_dominator_from`] filters on before it reads coordinates.
    /// Follows `lanes` through every push and removal. Empty in a block
    /// built by [`SoaBlock::for_scoring`].
    codes: Vec<u32>,
    /// The cut values, dimension-major: `cuts[b]` decides bit `b` of every
    /// code. Empty until the first derivation.
    cuts: Vec<f64>,
    /// The block's length at the last derivation of `cuts`, 0 for none.
    derived_at: usize,
    /// Scratch for the quantile selection of one lane.
    select: Vec<f64>,
    /// Set by [`SoaBlock::for_scoring`]: no code lane, no dominance scans.
    scoring_only: bool,
}

/// Row count at which a block first derives its cut values. Below it every
/// row is a candidate of the dominance scan, which is at most 63 rows read.
const FIRST_DERIVATION: usize = 64;

/// Bits of a cut code.
const CODE_BITS: usize = u32::BITS as usize;

/// Cut values per coded dimension at dimensionality `dims`: as many as fill
/// the code, at least one and at most eight.
#[inline]
fn cuts_per_dim(dims: usize) -> usize {
    (CODE_BITS / dims.max(1)).clamp(1, 8)
}

impl SoaBlock {
    /// Creates an empty block; the dimensionality is fixed by the first push.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty block that is only ever scored, never scanned for
    /// dominance: it keeps no code lane and derives no cut values, so a
    /// refill costs only the `f64` lanes. For scratch blocks refilled once
    /// per operation (the engine's repair rebuilds one per call) and for
    /// blocks read only by row; [`first_dominator_from`] panics on such a
    /// block.
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

    /// Drops every point and the cut values, but keeps the lanes' capacity
    /// for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
        for lane in &mut self.lanes {
            lane.clear();
        }
        self.codes.clear();
        self.cuts.clear();
        self.derived_at = 0;
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
        if self.scoring_only {
            return;
        }
        self.codes.push(self.code_of(coords));
        let next = if self.derived_at == 0 {
            FIRST_DERIVATION
        } else {
            2 * self.derived_at
        };
        if self.len >= next {
            self.derive_cuts();
        }
    }

    /// The cut code of `coords` against the block's cut values: bit `b` is
    /// set iff `coords[b / T] >= cuts[b]`. 0 while no cut values are derived.
    #[inline]
    fn code_of(&self, coords: &[f64]) -> u32 {
        let per_dim = cuts_per_dim(self.dims);
        let mut code = 0u32;
        for (d, cuts) in self.cuts.chunks_exact(per_dim).enumerate() {
            for (j, &cut) in cuts.iter().enumerate() {
                code |= u32::from(coords[d] >= cut) << (d * per_dim + j);
            }
        }
        code
    }

    /// Derives the cut values from the rows now in the block, the quantiles
    /// `(j + 1) / (T + 1)` of each coded dimension, and recodes every row.
    fn derive_cuts(&mut self) {
        let n = self.len;
        let per_dim = cuts_per_dim(self.dims);
        let coded = self.dims.min(CODE_BITS / per_dim);
        self.cuts.clear();
        for lane in &self.lanes[..coded] {
            self.select.clear();
            // lint: allow(kernel-no-alloc) -- scratch grows with the block, amortized over its doublings
            self.select.extend_from_slice(lane);
            // ranks ascend by at least n / 9 >= 7, so each selection runs on
            // what lies above the last one
            let mut rest = &mut self.select[..];
            let mut taken = 0;
            for j in 0..per_dim {
                let rank = (j + 1) * n / (per_dim + 1);
                let (_, &mut cut, above) =
                    rest.select_nth_unstable_by(rank - taken, f64::total_cmp);
                self.cuts.push(cut);
                rest = above;
                taken = rank + 1;
            }
        }
        self.codes.fill(0);
        for (bit, &cut) in self.cuts.iter().enumerate() {
            let lane = &self.lanes[bit / per_dim];
            for (code, &x) in self.codes.iter_mut().zip(lane) {
                *code |= u32::from(x >= cut) << bit;
            }
        }
        self.derived_at = n;
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
        if !self.scoring_only {
            self.codes.swap_remove(i);
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

/// Rows per chunk of [`first_dominator_from`]: one bit per row of a `u32`
/// hit mask. A chunk of the code lane is two cache lines, where a chunk of
/// one `f64` lane is four.
const DOMINANCE_CHUNK: usize = 32;

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
/// scan. A caller that already knows rows `0..from` do not dominate
/// `coords`, and that those rows have not changed since, gets the answer a
/// scan from row 0 gives without reading them again.
///
/// The scan is bound by the bytes it reads, and nearly every row it reads
/// does not dominate the query, so it first filters rows on their cut codes
/// ([`SoaBlock`]) and reads coordinates only for the rows that pass. It
/// computes the query's code `q` with the block's cut values, and a row
/// passes iff its code contains `q` (`code & q == q`): one AND-compare per
/// row, folded into one hit bit per row over 32 rows at a time
/// (`DOMINANCE_CHUNK`), with no branch per row. The filter is exact in the
/// one direction that matters: a row `r` with `r_d >= q_d` in every
/// dimension has `r_d >= q_d >= cut` for every cut the query reaches, so
/// every bit of `q` is set in its code, whatever the cut values are. The
/// test is the same `f64` `>=` against the same cut values on both sides;
/// coordinates are finite and `±0.0` compare equal. The rows that pass are
/// confirmed in `f64`, `>=` everywhere and `>` somewhere, in row order; the
/// first to pass is the answer, the row a row-by-row scan returns. The cut
/// values are derived by the block as it grows (at 64 rows and at every
/// doubling after that); while it has none, every code and the query's are
/// 0, and every row is confirmed.
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
    let want = block.code_of(coords);
    let first_confirmed = |mut hits: u32, base: usize| {
        while hits != 0 {
            let i = base + hits.trailing_zeros() as usize;
            if dominates_row(block, i, coords) {
                return Some(i);
            }
            hits &= hits - 1;
        }
        None
    };
    let (chunks, rest) = block.codes[from..n].as_chunks::<DOMINANCE_CHUNK>();
    let mut base = from;
    for chunk in chunks {
        if let Some(i) = first_confirmed(candidates(chunk, want), base) {
            return Some(i);
        }
        base += DOMINANCE_CHUNK;
    }
    first_confirmed(candidates(rest, want), base)
}

/// Bit `j` is set iff `codes[j]` contains every bit of `want`.
#[inline]
fn candidates(codes: &[u32], want: u32) -> u32 {
    let mut hits = 0u32;
    for (j, &code) in codes.iter().enumerate() {
        hits |= u32::from(code & want == want) << j;
    }
    hits
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
    pub(crate) fn score_coords(&self, fi: usize, coords: &[f64]) -> f64 {
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

    /// The code lane holds one code per row, each the one a fresh
    /// [`SoaBlock::code_of`] gives the row's coordinates now.
    fn assert_codes_follow_lanes(b: &SoaBlock) {
        assert_eq!(b.codes.len(), b.len());
        let mut row = vec![0.0; b.dims()];
        for (i, &code) in b.codes.iter().enumerate() {
            for (d, x) in row.iter_mut().enumerate() {
                *x = b.lane(d)[i];
            }
            assert_eq!(code, b.code_of(&row), "row {i} of {}", b.len());
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
        // no cut values below the first derivation: every code is 0
        assert_eq!(b.codes, [0, 0, 0]);
        b.swap_remove(0);
        assert_eq!(b.lane(0), &[0.5, 0.3]);
        assert_eq!(b.lane(1), &[0.6, 0.4]);
        assert_codes_follow_lanes(&b);
        // grow through the derivations at 64 and 128 rows, shrink below
        // them and grow again, checking the code lane after every step
        let x = |i: usize, d: usize| ((i * 2 + d) as f64 * 0.37).sin();
        for i in 0..130 {
            b.push_coords(&[x(i, 0), x(i, 1)]);
            assert_codes_follow_lanes(&b);
            let want = match b.len() {
                ..=63 => (0, 0),
                64..=127 => (64, 16),
                _ => (128, 16),
            };
            assert_eq!((b.derived_at, b.cuts.len()), want, "len {}", b.len());
        }
        for i in [0, 77, 3, 128, 64] {
            b.swap_remove(i.min(b.len() - 1));
            assert_codes_follow_lanes(&b);
        }
        assert!(b.codes.iter().any(|&c| c != 0));
        b.clear();
        assert!(b.is_empty());
        assert!(b.codes.is_empty() && b.cuts.is_empty());
        assert_eq!(b.derived_at, 0);
        // refilling after clear may change dimensionality
        b.push_coords(&[1.0, 2.0, 3.0]);
        assert_eq!(b.dims(), 3);
        assert_codes_follow_lanes(&b);
        assert_eq!(b.codes, [0]);
    }

    #[test]
    fn cuts_per_dim_fills_the_code() {
        let per_dim: Vec<usize> = [1, 2, 3, 4, 5, 8, 9, 12, 16, 17, 32, 33]
            .iter()
            .map(|&d| cuts_per_dim(d))
            .collect();
        assert_eq!(per_dim, [8, 8, 8, 8, 6, 4, 3, 2, 2, 1, 1, 1]);
        // past D = 32 the first 32 dimensions are coded, one bit each
        let rows: Vec<Vec<f64>> = (0..64)
            .map(|i| (0..33).map(|d| ((i * 33 + d) as f64).sin()).collect())
            .collect();
        let block = block_of(&rows);
        assert_eq!(block.cuts.len(), 32);
    }

    #[test]
    fn a_scoring_block_keeps_no_code_lane_and_scores_the_same_bits() {
        let rows: Vec<Vec<f64>> = (0..80)
            .map(|i| (0..4).map(|d| ((i * 4 + d) as f64).sin().abs()).collect())
            .collect();
        let coded = block_of(&rows);
        assert_eq!(coded.cuts.len(), 32);
        let mut scoring = SoaBlock::for_scoring();
        for row in &rows {
            scoring.push_coords(row);
        }
        scoring.swap_remove(3);
        scoring.push_coords(&rows[3]);
        assert!(scoring.codes.is_empty() && scoring.cuts.is_empty());
        let w = [0.4, 0.3, 0.2, 0.1];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        score_block(&w, &coded, &mut a);
        score_block(&w, &scoring, &mut b);
        assert_eq!(a[3].to_bits(), b[79].to_bits());
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

    /// Extreme and one-ulp values: zeros of both signs, subnormals, the
    /// ends of `f32` and `f64`.
    fn extreme_values() -> Vec<f64> {
        let tiny = f64::from_bits(1); // the least positive subnormal
        let mut values = vec![
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
        ];
        let ulps: Vec<f64> = values
            .iter()
            .flat_map(|&x| [x.next_up(), x.next_down()])
            .filter(|x| x.is_finite())
            .collect();
        values.extend(ulps);
        values
    }

    #[test]
    fn cut_codes_keep_every_row_that_is_at_least_the_query() {
        // the block's cut values are extreme values themselves, so rows and
        // queries sit on them and one ulp either side of them
        let values = extreme_values();
        for dims in [1usize, 2, 4, 12] {
            let rows: Vec<Vec<f64>> = (0..3 * values.len())
                .map(|i| {
                    (0..dims)
                        .map(|d| values[(i * 7 + d * 3) % values.len()])
                        .collect()
                })
                .collect();
            let block = block_of(&rows);
            assert!(!block.cuts.is_empty());
            assert!(block.cuts.iter().all(|c| values.contains(c)));
            for q in &rows {
                let want = block.code_of(q);
                for (i, r) in rows.iter().enumerate() {
                    if r.iter().zip(q).all(|(r, q)| r >= q) {
                        assert_eq!(block.codes[i] & want, want, "dims={dims} row={r:?} q={q:?}");
                    }
                }
            }
        }
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

    /// Block lengths around the chunk width and the first derivation:
    /// empty, one row, one short of a chunk, exactly one, one over, two (and
    /// derived), two and a row, many.
    const BLOCK_LENS: [usize; 8] = [0, 1, 31, 32, 33, 64, 65, 1000];

    /// Every dimensionality through `D = 20`, and one past the 32 coded
    /// dimensions of a one-bit-per-dimension code.
    fn tested_dims() -> impl Iterator<Item = usize> {
        (1..=20).chain([CODE_BITS + 1])
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

    /// Rows within one `f64` ulp of `q`, so the block's cut values are `q`'s
    /// own coordinates and their neighbours, with two real dominators among
    /// them (rows `n / 2 + 3` and `n - 1`):
    ///
    /// * one ulp below `q` in one lane and one ulp above it in the next;
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
    fn first_dominator_from_confirms_code_candidates_in_f64() {
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
                // the copies of `q` pass the code filter, and only the f64
                // confirmation turns them away
                let rows = rounding_edge_rows(q, n);
                let block = block_of(&rows);
                assert!(!block.cuts.is_empty());
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

    /// Iterations of the re-derivation property test: `FUZZ_ITERS`, or 24.
    fn fuzz_iters() -> u64 {
        std::env::var("FUZZ_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(24)
    }

    /// A seeded splitmix64 stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A coordinate on a five-step grid, so rows sit exactly on the cut
        /// values, or one time in eight an extreme: a zero of either sign, a
        /// subnormal, `±1e300`.
        fn coord(&mut self) -> f64 {
            const EXTREMES: [f64; 7] = [
                0.0,
                -0.0,
                f64::MIN_POSITIVE / 8.0,
                -f64::MIN_POSITIVE / 8.0,
                5e-324,
                1e300,
                -1e300,
            ];
            if self.below(8) == 0 {
                EXTREMES[self.below(EXTREMES.len())]
            } else {
                self.below(5) as f64 / 4.0
            }
        }
    }

    /// Asks `block` (mirrored by `rows`) random grid queries, copies of its
    /// rows, copies nudged one ulp either way in one lane, and an all-low
    /// query, from every start in `{0, 1, 31, 32, 33, mid, n}`, and checks
    /// each answer against the row-by-row scan.
    fn check_against_row_scan(rng: &mut Rng, block: &SoaBlock, rows: &[Vec<f64>], dims: usize) {
        let n = rows.len();
        assert_eq!(block.len(), n);
        let mut queries: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..dims).map(|_| rng.coord()).collect())
            .collect();
        queries.push(vec![-1e300; dims]);
        if n > 0 {
            for _ in 0..3 {
                let row = rows[rng.below(n)].clone();
                let lane = rng.below(dims);
                let mut up = row.clone();
                up[lane] = up[lane].next_up();
                let mut down = row.clone();
                down[lane] = down[lane].next_down();
                queries.extend([row, up, down]);
            }
        }
        for q in &queries {
            for from in [0, 1, 31, 32, 33, n / 2, n] {
                if from > n {
                    continue;
                }
                assert_eq!(
                    first_dominator_from(block, q, from),
                    first_dominator_scalar(&rows[from..], q).map(|i| from + i),
                    "dims={dims} n={n} from={from} q={q:?}"
                );
            }
        }
    }

    /// The code filter never changes an answer, whatever cut values the
    /// block holds: blocks grow across the derivations at 64 and 128 rows,
    /// lose rows by `swap_remove` between them, and are cleared and refilled.
    #[test]
    fn first_dominator_from_matches_a_row_scan_across_rederivations() {
        for iter in 0..fuzz_iters() {
            let mut rng = Rng(0x2009_0824 ^ iter.wrapping_mul(0x1_0000_0001));
            for dims in [1usize, 2, 3, 4, 8, 9, 12, 33] {
                let mut block = SoaBlock::new();
                let mut rows: Vec<Vec<f64>> = Vec::new();
                for round in 0..3 {
                    for target in [63, 64, 65, 127, 128, 129] {
                        while rows.len() < target {
                            let row: Vec<f64> = (0..dims).map(|_| rng.coord()).collect();
                            block.push_coords(&row);
                            rows.push(row);
                        }
                        check_against_row_scan(&mut rng, &block, &rows, dims);
                        if target == 65 || target == 129 {
                            for _ in 0..rng.below(40) {
                                let i = rng.below(rows.len());
                                block.swap_remove(i);
                                rows.swap_remove(i);
                            }
                            check_against_row_scan(&mut rng, &block, &rows, dims);
                        }
                    }
                    if round < 2 {
                        block.clear();
                        rows.clear();
                        check_against_row_scan(&mut rng, &block, &rows, dims);
                    }
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
