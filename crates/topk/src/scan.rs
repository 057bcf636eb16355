//! The default best-function search: one columnar scan of the alive
//! functions, and a short queue that answers the calls after it.
//!
//! A call scores every alive function in one streaming pass over
//! [`AliveFunctions::block`] and keeps the best few rows in `(score desc,
//! function asc)` order. Functions only ever die, so the first kept row that
//! is still alive is the best alive function for as long as one kept row
//! lives — a row the scan did not keep ranked below every kept one. A call
//! therefore reads nothing while its last answer is alive, answers from the
//! queue once that answer has died, and scans again only when every kept row
//! has. There is no threshold, no candidate cap and no restart.
//!
//! It is SB's default instead of the paper's TA ([`crate::ReverseTopOne`])
//! because it moves fewer bytes per decision: on `solve-anti` a sorted access
//! cost about 74 ns, a scanned row under 7. It needs no sorted lists, so a
//! solve that runs it builds only the [`AliveFunctions`] block.

use crate::alive::AliveFunctions;
use pref_geom::{kernel, Point};

/// Rows a scan keeps (fewer when fewer functions are alive). Cold-solve
/// `op_p50_us` (seed 20090824, median of three runs, scans behind a short TA
/// prefix) keeping 1 / 2 / 4 / 8 / 16 / 2.5 % of |F| rows: 178 / 167 / 163 /
/// 168 / 183 / 195 ms on `solve-anti` (|F| = 1000), flat on `solve-wide`; at
/// |F| = 10 000, keeping 4 / 8 / 16 / 32 / 250: 2.11 / 1.87 / 1.83 / 1.91 /
/// 3.23 s. Keeping `k` of `n` rows costs about `k · ln(n / k)` sorted
/// insertions, each an `O(k)` shift, while a row it did not keep costs one
/// more scan only after all `k` kept ones died. The optimum drifts up slowly
/// with |F|; 8 is within 4 % of it at both sizes.
const SCAN_KEPT_ROWS: usize = 8;

/// Rows scored per pass of the scan: a 2 KiB stack buffer, so the scan
/// allocates nothing however large the alive block is.
const SCAN_CHUNK: usize = 256;

/// Best-function search state for one object: the default search of SB.
///
/// The object plays the weight vector and the alive block's rows the points,
/// so a row's score is the product-by-product sum [`AliveFunctions::score`]
/// computes (multiplication commutes), to the bit: every answer is the
/// function and the score bits of [`crate::best_function_scan`].
#[derive(Debug, Clone)]
pub struct ScanTopOne {
    object: Point,
    /// What the last call returned; handed out again while it is alive.
    answer: Option<(usize, f64)>,
    /// The best rows of the last scan not yet found dead: `(score,
    /// function)`, score descending, function ascending on ties.
    kept: Vec<(f64, usize)>,
    /// Number of alive-block rows scored so far.
    scanned_rows: u64,
}

impl ScanTopOne {
    /// Creates a search state for `object`.
    pub fn new(object: Point) -> Self {
        Self {
            object,
            answer: None,
            // lint: allow(kernel-no-alloc) -- set-up: one state per object, never grows past it
            kept: Vec::with_capacity(SCAN_KEPT_ROWS + 1),
            scanned_rows: 0,
        }
    }

    /// Number of alive-block rows the scans have scored so far: every
    /// function-index entry the state has read.
    pub fn scanned_rows(&self) -> u64 {
        self.scanned_rows
    }

    /// Approximate memory footprint of this state in bytes: 16 per kept row.
    pub fn memory_bytes(&self) -> u64 {
        (self.kept.len() * 16) as u64
    }

    /// Returns the best *alive* function for this object together with its
    /// score, or `None` when no alive function remains.
    pub fn best(&mut self, functions: &AliveFunctions) -> Option<(usize, f64)> {
        if self
            .answer
            .is_some_and(|(func, _)| functions.is_alive(func))
        {
            return self.answer;
        }
        self.kept.retain(|&(_, func)| functions.is_alive(func));
        if self.kept.is_empty() {
            self.scan(functions);
        }
        self.answer = self.kept.first().map(|&(score, func)| (func, score));
        self.answer
    }

    /// Scores every alive function in one pass over the alive block and keeps
    /// the best [`SCAN_KEPT_ROWS`] of them.
    fn scan(&mut self, alive: &AliveFunctions) {
        let block = alive.block();
        let functions = alive.rows();
        // the score a row must reach to enter a full queue
        let mut floor = f64::NEG_INFINITY;
        let mut scores = [0.0f64; SCAN_CHUNK];
        for (chunk, functions) in functions.chunks(SCAN_CHUNK).enumerate() {
            let scores = &mut scores[..functions.len()];
            kernel::score_rows(self.object.coords(), block, chunk * SCAN_CHUNK, scores);
            for (&score, &func) in scores.iter().zip(functions) {
                if score >= floor {
                    self.keep(score, func);
                    if self.kept.len() == SCAN_KEPT_ROWS {
                        floor = self.kept[SCAN_KEPT_ROWS - 1].0;
                    }
                }
            }
        }
        self.scanned_rows += functions.len() as u64;
    }

    /// Inserts in (score desc, function index asc) order so that exact score
    /// ties resolve to the lowest function index — the same deterministic rule
    /// the solver's argmax scans use.
    fn keep(&mut self, score: f64, func: usize) {
        let pos = self
            .kept
            .partition_point(|&(s, f)| s > score || (s == score && f < func));
        self.kept.insert(pos, (score, func));
        self.kept.truncate(SCAN_KEPT_ROWS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pref_geom::LinearFunction;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_index(n: usize, dims: usize, seed: u64) -> AliveFunctions {
        let mut rng = StdRng::seed_from_u64(seed);
        let functions: Vec<LinearFunction> = (0..n)
            .map(|_| {
                LinearFunction::new((0..dims).map(|_| rng.gen_range(0.01..1.0)).collect()).unwrap()
            })
            .collect();
        AliveFunctions::new(&functions)
    }

    #[test]
    fn a_re_ask_whose_answer_is_alive_reads_nothing() {
        let mut index = random_index(300, 4, 17);
        let object = Point::from_slice(&[0.3, 0.8, 0.5, 0.1]);
        let mut search = ScanTopOne::new(object.clone());
        let answer = search.best(&index).unwrap();
        assert_eq!(Some(answer), index.best_by_scan(&object));
        assert_eq!(search.scanned_rows(), 300);
        let kept = search.kept.clone();
        // everyone else may die, kept rows included: the answer stands and
        // the state is not touched
        let mut rng = StdRng::seed_from_u64(18);
        for _ in 0..200 {
            let others: Vec<usize> = index
                .alive_functions()
                .into_iter()
                .filter(|&f| f != answer.0)
                .collect();
            index.remove(others[rng.gen_range(0..others.len())]);
            assert_eq!(search.best(&index), Some(answer));
        }
        assert_eq!((search.scanned_rows(), &search.kept), (300, &kept));
    }

    #[test]
    fn it_rescans_only_after_every_kept_row_has_died() {
        let mut index = random_index(100, 3, 5);
        let object = Point::from_slice(&[0.9, 0.2, 0.6]);
        let mut search = ScanTopOne::new(object.clone());
        // each answer dies in turn: the first scan serves SCAN_KEPT_ROWS
        // answers, the next one the same again
        for step in 0..2 * SCAN_KEPT_ROWS {
            let answer = search.best(&index);
            assert_eq!(answer, index.best_by_scan(&object), "step {step}");
            // 100 rows, then the 92 left once the eight kept ones have died
            let scanned = if step < SCAN_KEPT_ROWS { 100 } else { 192 };
            assert_eq!(search.scanned_rows(), scanned, "step {step}");
            index.remove(answer.unwrap().0);
        }
    }

    #[test]
    fn with_no_alive_function_it_returns_none() {
        let mut index = random_index(20, 2, 9);
        let mut search = ScanTopOne::new(Point::from_slice(&[0.5, 0.5]));
        for f in 0..20 {
            assert!(search.best(&index).is_some());
            index.remove(f);
        }
        assert_eq!(search.best(&index), None);
    }
}
