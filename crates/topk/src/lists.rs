//! The paper's TA index over the preference functions `F` (Section 5.1): one
//! sorted coefficient list per dimension, over the [`AliveFunctions`] block.
//!
//! Each list holds `(coefficient, function)` pairs, descending — what the
//! threshold algorithm ([`crate::ReverseTopOne`]) probes and SB-alt's
//! [`crate::DiskFunctionLists`] reads block by block. The lists are built once
//! and never shrink; a removed function stays in them and
//! [`FunctionLists::next_alive`] steps over it. Random accesses score the
//! function's row of the alive block, the one copy of the weights. Only the
//! TA searches build the lists: the default scan reads the block alone.
//!
//! `next_alive` runs once per sorted access, so this file is held to the
//! `kernel-no-alloc` lint; only `new` allocates.

use crate::alive::AliveFunctions;
use pref_geom::LinearFunction;

/// The paper's in-memory index over the preference functions `F`: one list per
/// dimension, holding `(coefficient, function)` pairs sorted by coefficient in
/// descending order (Section 5.1), over the block of the functions still
/// alive.
///
/// Functions are addressed by their index in the order they were given.
/// Assigned functions are *removed* logically ([`FunctionLists::remove`]);
/// list scans skip them, so the TA threshold keeps tightening as `F` shrinks.
///
/// For the prioritized variant (Section 6.2) the lists are built over the
/// *effective* coefficients `α′ᵢ = γ·αᵢ` and the knapsack budget becomes the
/// maximum priority; both come from [`AliveFunctions`].
#[derive(Debug, Clone)]
pub struct FunctionLists {
    /// The alive functions' effective weights.
    functions: AliveFunctions,
    /// `lists[d]` = (effective coefficient, function index), descending.
    lists: Vec<Vec<(f64, usize)>>,
}

impl FunctionLists {
    /// Builds the sorted lists for a set of functions.
    ///
    /// # Panics
    /// Panics if the functions do not all share the same dimensionality or
    /// there are none.
    pub fn new<'a>(functions: impl IntoIterator<Item = &'a LinearFunction>) -> Self {
        let functions = AliveFunctions::new(functions);
        // a fresh index's row `i` is function `i`
        let lists = (0..functions.dims())
            .map(|d| {
                let mut list: Vec<(f64, usize)> = functions
                    .block()
                    .lane(d)
                    .iter()
                    .enumerate()
                    .map(|(function, &coeff)| (coeff, function))
                    // lint: allow(kernel-no-alloc) -- set-up: one index per solve, not per search
                    .collect();
                list.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
                list
            })
            // lint: allow(kernel-no-alloc) -- set-up: one index per solve, not per search
            .collect();
        Self { functions, lists }
    }

    /// The alive functions the lists index: liveness, scores and the budget.
    pub fn functions(&self) -> &AliveFunctions {
        &self.functions
    }

    /// Removes (assigns) a function; returns `false` if it was already gone.
    pub fn remove(&mut self, function: usize) -> bool {
        self.functions.remove(function)
    }

    /// Scans list `dim` starting at `cursor`, skipping removed functions, and
    /// returns `(next_cursor, coefficient, function)` for the first alive
    /// entry, or `None` if the list is exhausted.
    pub(crate) fn next_alive(&self, dim: usize, mut cursor: usize) -> Option<(usize, f64, usize)> {
        let list = &self.lists[dim];
        while cursor < list.len() {
            let (coeff, func) = list[cursor];
            if self.functions.is_alive(func) {
                return Some((cursor + 1, coeff, func));
            }
            cursor += 1;
        }
        None
    }

    /// The raw list for a dimension (including removed functions); used by the
    /// batch scanner, which performs its own skipping.
    pub(crate) fn raw_list(&self, dim: usize) -> &[(f64, usize)] {
        &self.lists[dim]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pref_geom::Point;

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
        let functions = lists.functions();
        let o = Point::from_slice(&[10.0, 6.0, 8.0]);
        assert!((functions.score(0, &o) - 9.4).abs() < 1e-9); // fa
        assert!((functions.score(1, &o) - 6.8).abs() < 1e-9); // fb
        assert!((functions.score(2, &o) - 8.2).abs() < 1e-9); // fc
        assert!((functions.score(3, &o) - 7.8).abs() < 1e-9); // fd
        assert_eq!(functions.best_by_scan(&o).unwrap().0, 0); // fa wins
    }

    #[test]
    fn removal_affects_scans_and_counts() {
        let mut lists = FunctionLists::new(&paper_functions());
        assert_eq!(lists.functions().remaining(), 5);
        assert!(lists.remove(0));
        assert!(!lists.remove(0));
        assert_eq!(lists.functions().remaining(), 4);
        assert!(!lists.functions().is_alive(0));
        // scanning L1 now skips fa and yields fc (0.5)
        let (next, coeff, func) = lists.next_alive(0, 0).unwrap();
        assert_eq!(func, 2);
        assert!((coeff - 0.5).abs() < 1e-12);
        assert_eq!(next, 2);
        // best for the object moves to fc
        let o = Point::from_slice(&[10.0, 6.0, 8.0]);
        assert_eq!(lists.functions().best_by_scan(&o).unwrap().0, 2);
        assert_eq!(lists.functions().alive_functions(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn exhausted_scan_returns_none() {
        let mut lists = FunctionLists::new(&paper_functions());
        for i in 0..5 {
            lists.remove(i);
        }
        assert!(lists.next_alive(0, 0).is_none());
        assert!(lists
            .functions()
            .best_by_scan(&Point::from_slice(&[1.0, 1.0, 1.0]))
            .is_none());
        assert_eq!(lists.functions().remaining(), 0);
    }

    #[test]
    fn prioritized_functions_scale_budget_and_scores() {
        let funcs = vec![
            LinearFunction::with_priority(vec![0.8, 0.2], 3.0).unwrap(),
            LinearFunction::with_priority(vec![0.2, 0.8], 2.0).unwrap(),
            LinearFunction::with_priority(vec![0.5, 0.5], 1.0).unwrap(),
        ];
        let lists = FunctionLists::new(&funcs);
        assert_eq!(lists.functions().budget(), 3.0);
        // the lists hold the effective coefficients
        assert_eq!(lists.raw_list(0)[0], (0.8 * 3.0, 0));
        let o = Point::from_slice(&[0.5, 0.6]);
        // 3*(0.8*0.5 + 0.2*0.6) = 1.56
        assert!((lists.functions().score(0, &o) - 1.56).abs() < 1e-9);
        assert_eq!(lists.functions().best_by_scan(&o).unwrap().0, 0);
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
