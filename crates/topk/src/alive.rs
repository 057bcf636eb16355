//! The function index every search reads: the effective weights of the
//! functions still unassigned, compacted into one columnar [`SoaBlock`].
//!
//! It is the only copy of `F`'s weights a solve holds. The default search
//! ([`crate::ScanTopOne`]) scores the block in one streaming pass; TA
//! ([`crate::ReverseTopOne`]) and SB-alt's batch scan reach a function's
//! row by index for their random accesses. [`AliveFunctions::remove`] keeps
//! the block compact with a `swap_remove`, exactly as the skyline keeps its
//! own block, so rows are in no particular order and `row → function` /
//! `function → row` translate.
//!
//! `remove`, `is_alive` and `score` run once per search or per access, so
//! this file is held to the `kernel-no-alloc` lint; only `new` and
//! `alive_functions` allocate.

use pref_geom::{LinearFunction, Point, SoaBlock};

/// `function_row` entry of a removed function.
const REMOVED: usize = usize::MAX;

/// The alive preference functions, one block row each.
///
/// Functions are addressed by their index in the order they were given.
/// Assigned functions are *removed* ([`AliveFunctions::remove`]): their row
/// leaves the block, and nothing scores them again.
///
/// The rows hold the *effective* coefficients `α′ᵢ = γ·αᵢ` of the
/// prioritized variant (Section 6.2), and the knapsack budget is the maximum
/// priority; for normalized functions without priorities these are the
/// weights and 1.
#[derive(Debug, Clone)]
pub struct AliveFunctions {
    /// Effective weights of the alive functions, one row each.
    block: SoaBlock,
    /// The function each row of `block` belongs to.
    row_function: Vec<usize>,
    /// The row of each function, [`REMOVED`] once it has been removed.
    function_row: Vec<usize>,
    /// Maximum priority over all functions (the knapsack budget).
    max_priority: f64,
}

impl AliveFunctions {
    /// Indexes a set of functions, all alive.
    ///
    /// # Panics
    /// Panics if the functions do not all share the same dimensionality or
    /// there are none.
    pub fn new<'a>(functions: impl IntoIterator<Item = &'a LinearFunction>) -> Self {
        let mut block = SoaBlock::for_scoring();
        let mut max_priority = 0.0f64;
        for f in functions {
            assert!(
                block.is_empty() || f.dims() == block.dims(),
                "all functions must share the same dimensionality"
            );
            block.push_coords(f.effective_weights());
            max_priority = max_priority.max(f.priority());
        }
        assert!(
            !block.is_empty(),
            "the function index requires at least one function"
        );
        let n = block.len();
        Self {
            block,
            // lint: allow(kernel-no-alloc) -- set-up: one index per solve, not per search
            row_function: (0..n).collect(),
            // lint: allow(kernel-no-alloc) -- set-up: one index per solve, not per search
            function_row: (0..n).collect(),
            max_priority,
        }
    }

    /// Dimensionality of the indexed functions.
    pub fn dims(&self) -> usize {
        // fixed by the first function, however many rows are left
        self.block.dims()
    }

    /// Total number of functions (alive and removed).
    pub fn total(&self) -> usize {
        self.function_row.len()
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
        self.function_row[function] != REMOVED
    }

    /// Removes (assigns) a function; returns `false` if it was already gone.
    /// Its row leaves the block by `swap_remove`: the last row moves into the
    /// gap and is re-pointed.
    pub fn remove(&mut self, function: usize) -> bool {
        let row = self.function_row[function];
        if row == REMOVED {
            return false;
        }
        self.function_row[function] = REMOVED;
        self.block.swap_remove(row);
        self.row_function.swap_remove(row);
        if let Some(&moved) = self.row_function.get(row) {
            self.function_row[moved] = row;
        }
        true
    }

    /// An alive function's score on an object (a "random access" in TA
    /// terms). It reads the function's row in ascending-`d` order, `acc =
    /// 0.0; acc += w[d]·o[d]`: the sequence [`pref_geom::kernel::dot`] runs
    /// on a contiguous row, so the bits are those of
    /// [`LinearFunction::score`].
    pub fn score(&self, function: usize, object: &Point) -> f64 {
        debug_assert_eq!(object.dims(), self.dims());
        self.weights(function)
            .zip(object.coords())
            .fold(0.0, |acc, (w, &c)| acc + w * c)
    }

    /// An alive function's effective weights, in dimension order. Nothing
    /// reads a removed function's weights: its row is gone.
    pub fn weights(&self, function: usize) -> impl Iterator<Item = f64> + '_ {
        let row = self.function_row[function];
        debug_assert!(row != REMOVED, "function {function} is removed");
        (0..self.dims()).map(move |d| self.block.lane(d)[row])
    }

    /// The effective weights of the alive functions as one columnar block:
    /// row `r` holds the weights of function [`AliveFunctions::rows`]`[r]`.
    /// Rows are in no particular order (removal swaps the last row in).
    pub fn block(&self) -> &SoaBlock {
        &self.block
    }

    /// The function behind each row of [`AliveFunctions::block`].
    pub fn rows(&self) -> &[usize] {
        &self.row_function
    }

    /// Indices of all alive functions, ascending.
    pub fn alive_functions(&self) -> Vec<usize> {
        (0..self.total())
            .filter(|&f| self.is_alive(f))
            // lint: allow(kernel-no-alloc) -- per loop of the two-skyline arm and in tests, never per search
            .collect()
    }

    /// Exhaustive best function for an object: a scalar pass over the alive
    /// functions in index order. The reference every search is tested against
    /// — deliberately not routed through the block kernels.
    pub(crate) fn best_by_scan(&self, object: &Point) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for function in 0..self.total() {
            if !self.is_alive(function) {
                continue;
            }
            let s = self.score(function, object);
            match best {
                Some((_, bs)) if bs >= s => {}
                _ => best = Some((function, s)),
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The index's contract: its rows are exactly the alive functions, each
    /// with its own effective weights, `function → row` inverts `row →
    /// function`, and every alive function scores `o` with the bits of
    /// `LinearFunction::score`.
    fn assert_block_mirrors_alive(index: &AliveFunctions, functions: &[LinearFunction], o: &Point) {
        let block = index.block();
        let rows = index.rows();
        assert_eq!(
            (block.len(), rows.len()),
            (index.remaining(), index.remaining())
        );
        let mut sorted = rows.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, index.alive_functions());
        for (row, &function) in rows.iter().enumerate() {
            assert_eq!(index.function_row[function], row);
            let effective = functions[function].effective_weights();
            for (d, &w) in effective.iter().enumerate() {
                assert_eq!(block.lane(d)[row].to_bits(), w.to_bits());
            }
            assert_eq!(
                index.score(function, o).to_bits(),
                functions[function].score(o).to_bits(),
                "function {function}"
            );
            assert!(index.weights(function).eq(effective.iter().copied()));
        }
    }

    #[test]
    fn alive_block_mirrors_the_alive_set_under_any_removal_order() {
        for (seed, n, dims) in [(1u64, 1usize, 3usize), (2, 2, 1), (3, 37, 4), (4, 130, 12)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let functions: Vec<LinearFunction> = (0..n)
                .map(|i| {
                    let w = (0..dims).map(|_| rng.gen_range(0.01..1.0)).collect();
                    LinearFunction::with_priority(w, 1.0 + (i % 3) as f64 * 0.7).unwrap()
                })
                .collect();
            let o = Point::new((0..dims).map(|_| rng.gen_range(0.0..1.0)).collect()).unwrap();
            let mut index = AliveFunctions::new(&functions);
            assert_block_mirrors_alive(&index, &functions, &o);
            while index.remaining() > 0 {
                // the function in the last row (nothing moves), then one in
                // the first (the last row moves in), then anyone
                let victim = match index.remaining() % 3 {
                    0 => *index.rows().last().unwrap(),
                    1 => index.rows()[0],
                    _ => index.rows()[rng.gen_range(0..index.remaining())],
                };
                assert!(index.remove(victim));
                assert!(!index.is_alive(victim));
                assert_block_mirrors_alive(&index, &functions, &o);
                // a second removal is refused and leaves the block alone
                let rows = index.rows().to_vec();
                assert!(!index.remove(victim));
                assert_eq!(index.rows(), rows);
                assert_block_mirrors_alive(&index, &functions, &o);
            }
            assert!(index.block().is_empty());
            assert_eq!(index.total(), n);
        }
    }

    #[test]
    #[should_panic(expected = "is removed")]
    #[cfg(debug_assertions)]
    fn a_removed_function_is_never_scored() {
        let mut index = AliveFunctions::new(&[LinearFunction::new(vec![0.5, 0.5]).unwrap()]);
        index.remove(0);
        let _ = index.score(0, &Point::from_slice(&[1.0, 1.0]));
    }
}
