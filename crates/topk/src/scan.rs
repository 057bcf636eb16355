//! The default best-function search: one columnar scan of the alive
//! functions, and a short queue that answers the calls after it.
//!
//! A call scores every alive function in one streaming pass over
//! [`AliveFunctions::block`] and keeps the best [`crate::KEPT_ROWS`] rows in a
//! [`KeptRows`], `(score desc, function asc)`. Functions only ever die, so
//! the first kept row that is still alive is the best alive function for as
//! long as one kept row lives — a row the scan did not keep ranked below
//! every kept one. A call therefore reads nothing while its last answer is
//! alive, answers from the queue once that answer has died, and scans again
//! only when every kept row has. There is no threshold, no candidate cap and
//! no restart.
//!
//! The scan inserts only the rows of a scored chunk that reach its lane
//! bound ([`KeptRows::scan`]): the smallest of eight lane maxima, which no
//! row it keeps can fall below. So it keeps exactly the rows a sorted
//! insertion of every row would, rescans exactly as often, and charges the
//! same rows: `aux_io` counts every row scored, filtered or not.
//!
//! It is SB's default instead of the paper's TA ([`crate::ReverseTopOne`])
//! because it moves fewer bytes per decision: on `solve-anti` a sorted access
//! cost about 74 ns, a scanned row under 7. It needs no sorted lists, so a
//! solve that runs it builds only the [`AliveFunctions`] block.

use crate::alive::AliveFunctions;
use crate::kept::KeptRows;
use pref_geom::Point;

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
    /// The best rows of the last scan not yet found dead.
    kept: KeptRows,
    /// Number of alive-block rows scored so far.
    scanned_rows: u64,
}

impl ScanTopOne {
    /// Creates a search state for `object`.
    pub fn new(object: Point) -> Self {
        Self {
            object,
            answer: None,
            kept: KeptRows::new(),
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
        self.kept.memory_bytes()
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
        self.kept.retain(|func| functions.is_alive(func));
        if self.kept.is_empty() {
            let rows = functions.rows();
            self.kept
                .scan(self.object.coords(), functions.block(), rows);
            self.scanned_rows += rows.len() as u64;
        }
        self.answer = self.kept.first();
        self.answer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KEPT_ROWS;
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
        let kept = search.kept.rows().to_vec();
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
        assert_eq!(
            (search.scanned_rows(), search.kept.rows()),
            (300, &kept[..])
        );
    }

    #[test]
    fn it_rescans_only_after_every_kept_row_has_died() {
        let mut index = random_index(100, 3, 5);
        let object = Point::from_slice(&[0.9, 0.2, 0.6]);
        let mut search = ScanTopOne::new(object.clone());
        // each answer dies in turn: the first scan serves KEPT_ROWS answers,
        // the next one the same again
        for step in 0..2 * KEPT_ROWS {
            let answer = search.best(&index);
            assert_eq!(answer, index.best_by_scan(&object), "step {step}");
            // 100 rows, then the 92 left once the eight kept ones have died
            let scanned = if step < KEPT_ROWS { 100 } else { 192 };
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
