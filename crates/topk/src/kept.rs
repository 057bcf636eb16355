//! The best few rows of one query, kept across calls: the selection both
//! sides of an SB loop share.
//!
//! A [`KeptRows`] holds the best [`KEPT_ROWS`] `(score, id)` rows it has
//! seen, ranked score descending and then id ascending — the oracle's tie
//! rule, whichever side the ids name. A row's score never changes; rows die,
//! and the caller drops the dead ones with [`KeptRows::retain`], and new rows
//! may join, which the caller offers. The first kept row is the best live
//! row for as long as one kept row lives. That needs one invariant, held by
//! a **cutoff** row: every live id that is not kept ranks behind the cutoff,
//! and every kept row ranks at or ahead of it.
//!
//! * [`KeptRows::scan`] scores a whole block and keeps its best rows; the
//!   cutoff becomes the last kept row (there is none when every row was
//!   kept).
//! * [`KeptRows::offer`] admits a row that joined since: it enters only if it
//!   ranks ahead of the cutoff, and a row a full queue pushes out becomes the
//!   cutoff. Without the rule, an entrant ranked behind a row that was
//!   dropped earlier — and is still alive — could become the answer.
//!
//! The scan scores [`SCAN_CHUNK`] rows at a time into a stack buffer and
//! inserts only rows that reach a bar. Once the queue is full the bar is its
//! floor, the eighth-best score so far. Before that it is the chunk's *lane
//! bound*: with row `i` in lane `i mod 8`, the smallest of the eight lane
//! maxima. Those maxima are eight distinct rows that all reach the bound, so
//! a row below it ranks behind at least eight rows of its own chunk and
//! could never be kept. The bound is one branch-free pass over the scores,
//! and it spares the first chunk most of its sorted insertions (`solve-anti`
//! makes about half as many per solve). A full queue's floor is rarely
//! below a later chunk's bound, so later chunks skip the pass. Either way
//! the scan keeps exactly the rows a sorted insertion of every row keeps.

use pref_geom::{kernel, SoaBlock};

/// Rows a [`KeptRows`] keeps. Cold-solve `op_p50_us` of the object side's
/// scan (seed 20090824, median of three runs, scans behind a short TA prefix)
/// keeping 1 / 2 / 4 / 8 / 16 / 2.5 % of |F| rows: 178 / 167 / 163 / 168 /
/// 183 / 195 ms on `solve-anti` (|F| = 1000), flat on `solve-wide`; at |F| =
/// 10 000, keeping 4 / 8 / 16 / 32 / 250: 2.11 / 1.87 / 1.83 / 1.91 / 3.23 s.
/// Keeping `k` of `n` rows costs about `k · ln(n / k)` sorted insertions,
/// each an `O(k)` shift, while a row not kept costs one more scan only after
/// all `k` kept ones died. The optimum drifts up slowly with |F|; 8 is within
/// 4 % of it at both sizes. The lane bound takes one lane per kept row, so
/// it never exceeds the score a row needs to be kept. It skips insertions,
/// not rows: a scan still scores, and charges to `aux_io`, every row.
pub const KEPT_ROWS: usize = 8;

/// Rows scored per pass of a scan: a 2 KiB stack buffer, so a scan allocates
/// nothing however large the block is.
const SCAN_CHUNK: usize = 256;

/// A `(score, id)` row.
type Row = (f64, usize);

/// `true` iff `a` ranks ahead of `b`: a higher score, or an equal score and a
/// lower id.
fn ranks_ahead(a: Row, b: Row) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// The best [`KEPT_ROWS`] rows of one query, and the cutoff every live row
/// not kept ranks behind. See the module docs for the invariant.
#[derive(Debug, Clone)]
pub struct KeptRows {
    /// `rows[..len]`, ranked; the rest is stale.
    rows: [Row; KEPT_ROWS],
    len: usize,
    /// `None` while no live row has been left out.
    cutoff: Option<Row>,
}

impl Default for KeptRows {
    fn default() -> Self {
        Self::new()
    }
}

impl KeptRows {
    /// An empty queue that has left nothing out.
    pub fn new() -> Self {
        Self {
            rows: [(0.0, 0); KEPT_ROWS],
            len: 0,
            cutoff: None,
        }
    }

    /// Number of rows kept.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no row is kept: every row kept so far has died.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The best kept row as `(id, score)`: the best live row, while the
    /// caller has retained only live rows.
    pub fn first(&self) -> Option<(usize, f64)> {
        (self.len > 0).then(|| (self.rows[0].1, self.rows[0].0))
    }

    /// Approximate memory footprint in bytes: 16 per kept row.
    pub fn memory_bytes(&self) -> u64 {
        (self.len * 16) as u64
    }

    /// Drops every kept row whose id is not `live`; the cutoff stays.
    pub fn retain(&mut self, mut live: impl FnMut(usize) -> bool) {
        let mut kept = 0;
        for i in 0..self.len {
            if live(self.rows[i].1) {
                self.rows[kept] = self.rows[i];
                kept += 1;
            }
        }
        self.len = kept;
    }

    /// Offers a row that was not live at the last scan. It enters only if it
    /// ranks ahead of the cutoff; a row a full queue pushes out (the offered
    /// one included) becomes the cutoff.
    pub fn offer(&mut self, score: f64, id: usize) {
        let row = (score, id);
        if self.cutoff.is_some_and(|cutoff| !ranks_ahead(row, cutoff)) {
            return;
        }
        if let Some(pushed_out) = self.insert(row) {
            self.cutoff = Some(pushed_out);
        }
    }

    /// Forgets every row and keeps the best [`KEPT_ROWS`] rows of `block`
    /// scored with `query`, row `r` named `ids[r]`; the cutoff becomes the
    /// last kept row. Allocates nothing.
    ///
    /// # Panics
    /// Panics if `ids` is longer than the block, or if `query.len() !=
    /// block.dims()` (unless `ids` is empty).
    pub fn scan(&mut self, query: &[f64], block: &SoaBlock, ids: &[usize]) {
        self.len = 0;
        // the score a row must reach to enter a full queue
        let mut floor = f64::NEG_INFINITY;
        let mut scores = [0.0f64; SCAN_CHUNK];
        for (chunk, ids) in ids.chunks(SCAN_CHUNK).enumerate() {
            let scores = &mut scores[..ids.len()];
            kernel::score_rows(query, block, chunk * SCAN_CHUNK, scores);
            // once the queue is full its floor is the eighth best of every
            // row so far, which a later chunk's lane bound rarely beats
            let mut bar = if self.len < KEPT_ROWS {
                lane_bound(scores)
            } else {
                floor
            };
            for (&score, &id) in scores.iter().zip(ids) {
                if score >= bar {
                    self.insert((score, id));
                    if self.len == KEPT_ROWS {
                        floor = self.rows[KEPT_ROWS - 1].0;
                        bar = bar.max(floor);
                    }
                }
            }
        }
        // a row below the bar ranks behind every kept one; up to KEPT_ROWS
        // rows are all kept
        self.cutoff = (ids.len() > KEPT_ROWS).then(|| self.rows[KEPT_ROWS - 1]);
    }

    /// Inserts `row` in rank order and returns the row a full queue pushes
    /// out, which may be `row` itself.
    fn insert(&mut self, row: Row) -> Option<Row> {
        let pos = self.rows[..self.len].partition_point(|&kept| ranks_ahead(kept, row));
        if pos == KEPT_ROWS {
            return Some(row);
        }
        let pushed_out = (self.len == KEPT_ROWS).then(|| self.rows[KEPT_ROWS - 1]);
        let end = self.len.min(KEPT_ROWS - 1);
        self.rows.copy_within(pos..end, pos + 1);
        self.rows[pos] = row;
        self.len = end + 1;
        pushed_out
    }

    /// The kept rows, ranked.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> &[Row] {
        &self.rows[..self.len]
    }
}

/// A lower bound on the [`KEPT_ROWS`]-th best of `scores`: the smallest of
/// the maxima of the lanes `i mod KEPT_ROWS`, or −∞ when some lane is empty.
fn lane_bound(scores: &[f64]) -> f64 {
    if scores.len() < KEPT_ROWS {
        return f64::NEG_INFINITY;
    }
    let mut maxima = [f64::NEG_INFINITY; KEPT_ROWS];
    let mut lanes = scores.chunks_exact(KEPT_ROWS);
    for chunk in &mut lanes {
        for (max, &s) in maxima.iter_mut().zip(chunk) {
            *max = if s > *max { s } else { *max };
        }
    }
    for (max, &s) in maxima.iter_mut().zip(lanes.remainder()) {
        *max = if s > *max { s } else { *max };
    }
    maxima.into_iter().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The best `KEPT_ROWS` of `(score, id)` rows by a full sort.
    fn sorted_best(rows: &[Row]) -> Vec<Row> {
        let mut rows = rows.to_vec();
        rows.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        rows.truncate(KEPT_ROWS);
        rows
    }

    #[test]
    fn an_entrant_behind_a_dropped_row_never_answers() {
        // nine rows scored 9.0 down to 1.0 under ids 0..9: the scan keeps
        // 0..8 and leaves out id 8, still alive at score 1.0
        let mut block = SoaBlock::new();
        for i in 0..9 {
            block.push_coords(&[f64::from(9 - i)]);
        }
        let ids: Vec<usize> = (0..9).collect();
        let mut kept = KeptRows::new();
        kept.scan(&[1.0], &block, &ids);
        assert_eq!(kept.len(), KEPT_ROWS);
        // the eight kept rows die; an entrant scored 0.5 ranks behind id 8,
        // so it must not become the answer
        kept.retain(|id| id == 8);
        assert!(kept.is_empty());
        kept.offer(0.5, 100);
        assert_eq!(kept.first(), None);
        // nor does one between the dropped row and the cutoff, the last kept
        // row (2.0, id 7): the scan knows only that id 8 ranks behind that
        kept.offer(1.5, 101);
        assert_eq!(kept.first(), None);
        // an entrant ahead of the cutoff does answer
        kept.offer(2.5, 102);
        assert_eq!(kept.first(), Some((102, 2.5)));
    }

    #[test]
    fn a_pushed_out_entrant_becomes_the_cutoff() {
        let mut kept = KeptRows::new();
        for id in 0..KEPT_ROWS {
            kept.offer(10.0 + id as f64, id);
        }
        // a full queue pushes out the ninth row, whichever it is
        kept.offer(1.0, 50);
        assert_eq!(kept.cutoff, Some((1.0, 50)));
        kept.offer(11.5, 51);
        assert_eq!(kept.cutoff, Some((10.0, 0)));
        // an exact tie with the cutoff does not enter with a higher id; a
        // row ahead of it fills the gap a death left, pushing nothing out
        kept.retain(|id| id != 51);
        kept.offer(10.0, 1);
        assert_eq!(kept.len(), KEPT_ROWS - 1);
        kept.offer(10.5, 60);
        assert_eq!(kept.len(), KEPT_ROWS);
        assert_eq!(kept.cutoff, Some((10.0, 0)));
    }

    #[test]
    fn the_lane_bound_never_drops_a_top_row() {
        let mut rng = StdRng::seed_from_u64(31);
        for n in [1usize, 7, 8, 9, 255, 256, 257, 600] {
            for trial in 0..20 {
                // two dimensions on a coarse grid: many exact ties, the
                // eighth score included, and every trial fourth all rows
                // tie; ids run against row order
                let levels = if trial % 4 == 0 { 1 } else { 6u8 };
                let mut block = SoaBlock::new();
                let mut coords = Vec::with_capacity(n);
                for _ in 0..n {
                    let c = [
                        f64::from(rng.gen_range(0..levels)) / 4.0,
                        f64::from(rng.gen_range(0..levels)) / 4.0,
                    ];
                    block.push_coords(&c);
                    coords.push(c);
                }
                let ids: Vec<usize> = (0..n).rev().map(|r| 3 * r + 1).collect();
                let query = [0.5, 0.25];
                let rows: Vec<Row> = coords
                    .iter()
                    .zip(&ids)
                    .map(|(c, &id)| (kernel::dot(&query, c), id))
                    .collect();
                let want = sorted_best(&rows);
                let mut kept = KeptRows::new();
                kept.scan(&query, &block, &ids);
                assert_eq!(kept.rows(), want, "n {n} trial {trial}");
                let cutoff = (n > KEPT_ROWS).then(|| want[KEPT_ROWS - 1]);
                assert_eq!(kept.cutoff, cutoff, "n {n} trial {trial}");
            }
        }
    }

    #[test]
    fn the_lane_bound_is_at_most_the_eighth_score() {
        let mut rng = StdRng::seed_from_u64(37);
        for n in [8usize, 9, 15, 16, 17, 256] {
            for _ in 0..50 {
                let scores: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(0..5u8))).collect();
                let mut sorted = scores.clone();
                sorted.sort_by(|a, b| b.total_cmp(a));
                assert!(lane_bound(&scores) <= sorted[KEPT_ROWS - 1], "{scores:?}");
            }
        }
        assert_eq!(lane_bound(&[1.0; 7]), f64::NEG_INFINITY);
    }

    /// Kept rows, retains and offers against the best live row by a full
    /// pass, through a random history of deaths and arrivals.
    #[test]
    fn first_is_the_best_live_row_through_deaths_and_arrivals() {
        let mut rng = StdRng::seed_from_u64(41);
        for history in 0..40 {
            let mut rows: Vec<(f64, usize, bool)> = (0..rng.gen_range(1..40usize))
                .map(|id| (f64::from(rng.gen_range(0..8u8)), id, true))
                .collect();
            let mut block = SoaBlock::new();
            for &(score, ..) in &rows {
                block.push_coords(&[score]);
            }
            let ids: Vec<usize> = (0..rows.len()).collect();
            let mut kept = KeptRows::new();
            kept.scan(&[1.0], &block, &ids);
            for step in 0..60 {
                let best = rows
                    .iter()
                    .filter(|r| r.2)
                    .map(|&(s, id, _)| (s, id))
                    .reduce(|a, b| if ranks_ahead(b, a) { b } else { a });
                if kept.is_empty() {
                    // the caller rescans; here: the scan of the live rows
                    let (live, scores): (Vec<usize>, Vec<f64>) =
                        rows.iter().filter(|r| r.2).map(|r| (r.1, r.0)).unzip();
                    let mut live_block = SoaBlock::new();
                    for s in &scores {
                        live_block.push_coords(&[*s]);
                    }
                    kept.scan(&[1.0], &live_block, &live);
                }
                assert_eq!(
                    kept.first(),
                    best.map(|(s, id)| (id, s)),
                    "history {history} step {step}"
                );
                if rng.gen_bool(0.5) {
                    // the answer dies half the time, another live row else
                    let live: Vec<usize> = rows.iter().filter(|r| r.2).map(|r| r.1).collect();
                    let victim = match (best, rng.gen_bool(0.5)) {
                        (Some((_, id)), true) => Some(id),
                        _ => (!live.is_empty()).then(|| live[rng.gen_range(0..live.len())]),
                    };
                    if let Some(victim) = victim {
                        rows[victim].2 = false;
                    }
                } else {
                    let id = rows.len();
                    let score = f64::from(rng.gen_range(0..8u8));
                    rows.push((score, id, true));
                    kept.offer(score, id);
                }
                kept.retain(|id| rows[id].2);
            }
        }
    }
}
