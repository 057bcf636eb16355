//! The in-memory index over the preference functions `F`, in the two layouts
//! a reverse top-1 search reads.
//!
//! * **Sorted coefficient lists** (Section 5.1): one list per dimension of
//!   `(coefficient, function)` pairs, descending — what the threshold
//!   algorithm probes. They are built once and never shrink; a removed
//!   function stays in them and [`FunctionLists::next_alive`] steps over it.
//! * **The alive block**: the effective weights of the functions that are
//!   still unassigned, compacted into one columnar [`SoaBlock`] — what
//!   [`crate::ReverseTopOne`] scores in a single streaming pass once the
//!   threshold algorithm has spent its allowance. [`FunctionLists::remove`]
//!   keeps it compact with a `swap_remove`, exactly as the skyline keeps its
//!   own block, so rows are in no particular order and `row → function` /
//!   `function → row` translate.
//!
//! Beside them one by-index copy of the weights (the [`ScoreTable`]) serves
//! TA's random accesses and the pairing phase. `remove`, `next_alive` and the
//! block accessors run once per search or per sorted access, so this file is
//! held to the `kernel-no-alloc` lint; only `new` and `alive_functions`
//! allocate.

use pref_geom::{kernel, LinearFunction, Point, ScoreTable, SoaBlock};

/// The paper's in-memory index over the preference functions `F`: one list per
/// dimension, holding `(coefficient, function)` pairs sorted by coefficient in
/// descending order (Section 5.1), plus a columnar block of the functions
/// still alive.
///
/// Functions are addressed by their index in the original slice. Assigned
/// functions are *removed* logically ([`FunctionLists::remove`]); list scans
/// skip them, so the TA threshold keeps tightening as `F` shrinks, and the
/// alive block drops their row.
///
/// For the prioritized variant (Section 6.2) the lists are built over the
/// *effective* coefficients `α′ᵢ = γ·αᵢ` and the knapsack budget becomes the
/// maximum priority; both fall out of [`FunctionLists::new`] automatically
/// because [`LinearFunction::effective_weights`] already folds γ in.
#[derive(Debug, Clone)]
pub struct FunctionLists {
    /// `lists[d]` = (effective coefficient, function index), descending.
    lists: Vec<Vec<(f64, usize)>>,
    /// Which functions are still unassigned.
    alive: Vec<bool>,
    /// Effective (priority-scaled) weight vectors by function index, alive or
    /// not (clone-cheap: `Arc` rows).
    table: ScoreTable,
    /// Effective weights of the alive functions only, one row each.
    alive_block: SoaBlock,
    /// The function each row of `alive_block` belongs to.
    row_function: Vec<usize>,
    /// The row of each alive function; stale once the function is removed.
    function_row: Vec<usize>,
    /// Maximum priority over all functions (the knapsack budget).
    max_priority: f64,
    dims: usize,
}

impl FunctionLists {
    /// Builds the sorted lists for a set of functions.
    ///
    /// # Panics
    /// Panics if the functions do not all share the same dimensionality or the
    /// slice is empty.
    pub fn new(functions: &[LinearFunction]) -> Self {
        assert!(
            !functions.is_empty(),
            "FunctionLists requires at least one function"
        );
        let dims = functions[0].dims();
        assert!(
            functions.iter().all(|f| f.dims() == dims),
            "all functions must share the same dimensionality"
        );
        // lint: allow(kernel-no-alloc) -- set-up: one index per solve, not per search
        let effective: Vec<Vec<f64>> = functions.iter().map(|f| f.effective_weights()).collect();
        // lint: allow(kernel-no-alloc) -- set-up: one index per solve, not per search
        let mut lists: Vec<Vec<(f64, usize)>> = vec![Vec::with_capacity(functions.len()); dims];
        let mut alive_block = SoaBlock::new();
        for (idx, w) in effective.iter().enumerate() {
            for (d, &coeff) in w.iter().enumerate() {
                lists[d].push((coeff, idx));
            }
            alive_block.push_coords(w);
        }
        for list in &mut lists {
            list.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        }
        let max_priority = functions
            .iter()
            .map(LinearFunction::priority)
            .fold(0.0f64, f64::max);
        Self {
            lists,
            // lint: allow(kernel-no-alloc) -- set-up: one index per solve, not per search
            alive: vec![true; functions.len()],
            table: ScoreTable::from_effective_rows(&effective),
            alive_block,
            // lint: allow(kernel-no-alloc) -- set-up: one index per solve, not per search
            row_function: (0..functions.len()).collect(),
            // lint: allow(kernel-no-alloc) -- set-up: one index per solve, not per search
            function_row: (0..functions.len()).collect(),
            max_priority,
            dims,
        }
    }

    /// Dimensionality of the indexed functions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Total number of functions (alive and removed).
    pub fn total(&self) -> usize {
        self.alive.len()
    }

    /// Number of unassigned (alive) functions.
    pub fn remaining(&self) -> usize {
        self.row_function.len()
    }

    /// The knapsack budget: 1 for normalized functions, the maximum γ when
    /// priorities are in use.
    pub fn budget(&self) -> f64 {
        self.max_priority
    }

    /// `true` iff the function has not been removed.
    pub fn is_alive(&self, function: usize) -> bool {
        self.alive[function]
    }

    /// Removes (assigns) a function; returns `false` if it was already gone.
    /// Its row leaves the alive block by `swap_remove`: the last row moves
    /// into the gap and is re-pointed.
    pub fn remove(&mut self, function: usize) -> bool {
        if !self.alive[function] {
            return false;
        }
        self.alive[function] = false;
        let row = self.function_row[function];
        self.alive_block.swap_remove(row);
        self.row_function.swap_remove(row);
        if let Some(&moved) = self.row_function.get(row) {
            self.function_row[moved] = row;
        }
        true
    }

    /// The function's effective score on an object (a "random access" in TA
    /// terms). Routed through the canonical [`kernel::dot`] kernel — the same
    /// summation order the previous iterator fold used, so scores are
    /// bit-identical to the scalar path.
    pub fn score(&self, function: usize, object: &Point) -> f64 {
        debug_assert_eq!(object.dims(), self.dims);
        kernel::dot(self.table.row(function), object.coords())
    }

    /// A clone-cheap batch-scoring view over the effective coefficients
    /// (priorities already folded in). Removal state is *not* part of the
    /// table — callers filter by [`FunctionLists::is_alive`] or pass only
    /// alive candidates, exactly as the scalar scans do.
    pub fn score_table(&self) -> ScoreTable {
        self.table.clone()
    }

    /// The effective coefficient vector of a function.
    pub fn effective_weights(&self, function: usize) -> &[f64] {
        self.table.row(function)
    }

    /// The effective weights of the alive functions as one columnar block:
    /// row `r` holds the weights of function [`FunctionLists::alive_rows`]`[r]`.
    /// Rows are in no particular order (removal swaps the last row in).
    pub fn alive_block(&self) -> &SoaBlock {
        &self.alive_block
    }

    /// The function behind each row of [`FunctionLists::alive_block`].
    pub fn alive_rows(&self) -> &[usize] {
        &self.row_function
    }

    /// Scans list `dim` starting at `cursor`, skipping removed functions, and
    /// returns `(next_cursor, coefficient, function)` for the first alive
    /// entry, or `None` if the list is exhausted.
    pub fn next_alive(&self, dim: usize, mut cursor: usize) -> Option<(usize, f64, usize)> {
        let list = &self.lists[dim];
        while cursor < list.len() {
            let (coeff, func) = list[cursor];
            if self.alive[func] {
                return Some((cursor + 1, coeff, func));
            }
            cursor += 1;
        }
        None
    }

    /// The raw list for a dimension (including removed functions); used by the
    /// batch scanner, which performs its own skipping.
    pub fn raw_list(&self, dim: usize) -> &[(f64, usize)] {
        &self.lists[dim]
    }

    /// Indices of all alive functions, ascending.
    pub fn alive_functions(&self) -> Vec<usize> {
        self.alive
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| a.then_some(i))
            // lint: allow(kernel-no-alloc) -- per loop of the two-skyline arm and in tests, never per search
            .collect()
    }

    /// Exhaustive best function for an object: a scalar pass over the alive
    /// functions in index order. The reference every search is tested against
    /// — deliberately not routed through the alive block — and the search of
    /// the exhaustive-scan ablation arm.
    pub fn best_by_scan(&self, object: &Point) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for idx in 0..self.alive.len() {
            if !self.alive[idx] {
                continue;
            }
            let s = self.score(idx, object);
            match best {
                Some((_, bs)) if bs >= s => {}
                _ => best = Some((idx, s)),
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(w: &[f64]) -> LinearFunction {
        LinearFunction::new(w.to_vec()).unwrap()
    }

    fn paper_functions() -> Vec<LinearFunction> {
        // Figure 5: fa..fe over three dimensions.
        vec![
            LinearFunction::from_normalized(vec![0.8, 0.1, 0.1]).unwrap(), // fa
            LinearFunction::from_normalized(vec![0.2, 0.8, 0.0]).unwrap(), // fb
            LinearFunction::from_normalized(vec![0.5, 0.4, 0.1]).unwrap(), // fc
            LinearFunction::from_normalized(vec![0.0, 0.1, 0.9]).unwrap(), // fd
            LinearFunction::from_normalized(vec![0.2, 0.4, 0.4]).unwrap(), // fe
        ]
    }

    #[test]
    fn lists_are_sorted_descending() {
        let lists = FunctionLists::new(&paper_functions());
        for d in 0..3 {
            let raw = lists.raw_list(d);
            for w in raw.windows(2) {
                assert!(w[0].0 >= w[1].0);
            }
            assert_eq!(raw.len(), 5);
        }
        // L1 head is fa (0.8), L2 head is fb (0.8), L3 head is fd (0.9)
        assert_eq!(lists.raw_list(0)[0], (0.8, 0));
        assert_eq!(lists.raw_list(1)[0], (0.8, 1));
        assert_eq!(lists.raw_list(2)[0], (0.9, 3));
    }

    #[test]
    fn scores_match_figure5() {
        let lists = FunctionLists::new(&paper_functions());
        let o = Point::from_slice(&[10.0, 6.0, 8.0]);
        assert!((lists.score(0, &o) - 9.4).abs() < 1e-9); // fa
        assert!((lists.score(1, &o) - 6.8).abs() < 1e-9); // fb
        assert!((lists.score(2, &o) - 8.2).abs() < 1e-9); // fc
        assert!((lists.score(3, &o) - 7.8).abs() < 1e-9); // fd
        assert_eq!(lists.best_by_scan(&o).unwrap().0, 0); // fa wins
    }

    #[test]
    fn removal_affects_scans_and_counts() {
        let mut lists = FunctionLists::new(&paper_functions());
        assert_eq!(lists.remaining(), 5);
        assert!(lists.remove(0));
        assert!(!lists.remove(0));
        assert_eq!(lists.remaining(), 4);
        assert!(!lists.is_alive(0));
        // scanning L1 now skips fa and yields fc (0.5)
        let (next, coeff, func) = lists.next_alive(0, 0).unwrap();
        assert_eq!(func, 2);
        assert!((coeff - 0.5).abs() < 1e-12);
        assert_eq!(next, 2);
        // best for the object moves to fc
        let o = Point::from_slice(&[10.0, 6.0, 8.0]);
        assert_eq!(lists.best_by_scan(&o).unwrap().0, 2);
        assert_eq!(lists.alive_functions(), vec![1, 2, 3, 4]);
    }

    /// The alive block's contract: its rows are exactly the alive functions,
    /// each with its own weights, and `function → row` inverts `row →
    /// function` for every one of them.
    fn assert_block_mirrors_alive(lists: &FunctionLists) {
        let block = lists.alive_block();
        let rows = lists.alive_rows();
        assert_eq!(
            (block.len(), rows.len()),
            (lists.remaining(), lists.remaining())
        );
        let mut sorted = rows.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, lists.alive_functions());
        for (row, &function) in rows.iter().enumerate() {
            assert_eq!(lists.function_row[function], row);
            for (d, &w) in lists.effective_weights(function).iter().enumerate() {
                assert_eq!(block.lane(d)[row].to_bits(), w.to_bits());
            }
        }
    }

    #[test]
    fn alive_block_mirrors_the_alive_set_under_any_removal_order() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for (seed, n, dims) in [(1u64, 1usize, 3usize), (2, 2, 1), (3, 37, 4), (4, 130, 12)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let functions: Vec<LinearFunction> = (0..n)
                .map(|i| {
                    let w = (0..dims).map(|_| rng.gen_range(0.01..1.0)).collect();
                    LinearFunction::with_priority(w, 1.0 + (i % 3) as f64).unwrap()
                })
                .collect();
            let mut lists = FunctionLists::new(&functions);
            assert_block_mirrors_alive(&lists);
            while lists.remaining() > 0 {
                // the function in the last row (nothing moves), then one in
                // the first (the last row moves in), then anyone
                let victim = match lists.remaining() % 3 {
                    0 => *lists.alive_rows().last().unwrap(),
                    1 => lists.alive_rows()[0],
                    _ => lists.alive_rows()[rng.gen_range(0..lists.remaining())],
                };
                assert!(lists.remove(victim));
                assert_block_mirrors_alive(&lists);
                // a second removal is refused and leaves the block alone
                let rows = lists.alive_rows().to_vec();
                assert!(!lists.remove(victim));
                assert_eq!(lists.alive_rows(), rows);
                assert_block_mirrors_alive(&lists);
            }
            assert!(lists.alive_block().is_empty());
        }
    }

    #[test]
    fn exhausted_scan_returns_none() {
        let mut lists = FunctionLists::new(&paper_functions());
        for i in 0..5 {
            lists.remove(i);
        }
        assert!(lists.next_alive(0, 0).is_none());
        assert!(lists
            .best_by_scan(&Point::from_slice(&[1.0, 1.0, 1.0]))
            .is_none());
        assert_eq!(lists.remaining(), 0);
    }

    #[test]
    fn prioritized_functions_scale_budget_and_scores() {
        let funcs = vec![
            LinearFunction::with_priority(vec![0.8, 0.2], 3.0).unwrap(),
            LinearFunction::with_priority(vec![0.2, 0.8], 2.0).unwrap(),
            LinearFunction::with_priority(vec![0.5, 0.5], 1.0).unwrap(),
        ];
        let lists = FunctionLists::new(&funcs);
        assert_eq!(lists.budget(), 3.0);
        let o = Point::from_slice(&[0.5, 0.6]);
        // 3*(0.8*0.5 + 0.2*0.6) = 1.56
        assert!((lists.score(0, &o) - 1.56).abs() < 1e-9);
        assert_eq!(lists.best_by_scan(&o).unwrap().0, 0);
    }

    #[test]
    #[should_panic(expected = "same dimensionality")]
    fn mixed_dimensions_rejected() {
        let _ = FunctionLists::new(&[f(&[0.5, 0.5]), f(&[0.3, 0.3, 0.4])]);
    }

    #[test]
    #[should_panic(expected = "at least one function")]
    fn empty_function_set_rejected() {
        let _ = FunctionLists::new(&[]);
    }
}
