//! Reverse top-1 search: the best remaining preference function for an object.
//!
//! The search is the paper's adaptation of the threshold algorithm (Section
//! 5.1): the roles of objects and functions are swapped, the termination
//! threshold is the fractional-knapsack bound of [`crate::knapsack::tight_threshold`],
//! lists are probed in a biased order (largest `l_i · o_i` first), and the
//! state is kept so it can *resume* when the object's best function is
//! assigned to another object. The candidate queue is capped at `Ω = ω · |F|`;
//! every candidate that dies shrinks the cap by one and at zero the search
//! restarts from scratch (the paper's memory/CPU trade-off knob).
//!
//! A call whose previous answer is still alive returns it without touching
//! the state. Every answer is the queue's front, accepted against a threshold
//! only this state's own reads can move, and functions only ever die, so the
//! best alive function stays the best until it dies.
//!
//! It walks the sorted lists of [`FunctionLists`] and makes its random
//! accesses on their [`AliveFunctions`] block, so a solve builds the lists
//! only when it runs TA. SB searches with [`crate::ScanTopOne`] by default;
//! this search is the one the paper's figures run (the SB series, its Figure
//! 8 ablations and the Ω sweep), where its sorted accesses are the reported
//! auxiliary I/O.

use crate::alive::AliveFunctions;
use crate::knapsack::{beats_unseen, fill_order, threshold_in_order};
use crate::lists::FunctionLists;
use pref_geom::Point;

/// Exhaustively scans the alive functions for the best one: the scalar
/// reference the searches are tested and benchmarked against.
pub fn best_function_scan(lists: &FunctionLists, object: &Point) -> Option<(usize, f64)> {
    lists.functions().best_by_scan(object)
}

/// Resumable reverse top-1 search state for one object.
///
/// A sorted access costs one list step, one bit test, at most one `D`-term
/// dot product with an `O(log Ω)` search plus an `O(Ω)` shift of the candidate
/// queue, and one `O(D)` threshold — and allocates nothing: the knapsack fill
/// order is fixed by the object and computed once in [`ReverseTopOne::new`],
/// and the seen-set is a bitset over function indices that a restart clears
/// in place. The only buffer that grows during a search is the candidate
/// queue, up to `Ω` entries.
#[derive(Debug, Clone)]
pub struct ReverseTopOne {
    object: Point,
    /// The object's dimensions in knapsack fill order (coordinate descending).
    fill_order: Vec<usize>,
    /// Next unread position in each sorted list.
    cursors: Vec<usize>,
    /// Last coefficient seen in each list: infinite until the list is first
    /// read (the bound is then the knapsack budget), `0.0` once exhausted.
    last_seen: Vec<f64>,
    /// `true` once the corresponding list has been fully consumed.
    exhausted: Vec<bool>,
    /// Candidate functions seen so far: `(score, function)`, sorted by score
    /// descending, truncated to `cap`.
    candidates: Vec<(f64, usize)>,
    /// Functions already random-accessed (avoids duplicate work): bit `f % 64`
    /// of word `f / 64`, sized for the function set on the first search.
    seen: Vec<u64>,
    /// Current capacity of the candidate queue (the paper's Ω).
    cap: usize,
    /// Reset value for the capacity.
    omega: usize,
    /// What the last call returned; handed out again while it is alive.
    answer: Option<(usize, f64)>,
    /// Number of sorted-list accesses performed (for diagnostics).
    sorted_accesses: u64,
    /// Number of from-scratch restarts triggered by the Ω mechanism.
    restarts: u64,
}

impl ReverseTopOne {
    /// Creates a search state for `object`. `omega` is the maximum size of the
    /// candidate queue (`ω·|F|` in the paper); it is clamped to at least 1.
    pub fn new(object: Point, omega: usize) -> Self {
        let dims = object.dims();
        let omega = omega.max(1);
        Self {
            fill_order: fill_order(&object),
            object,
            // lint: allow(kernel-no-alloc) -- set-up: one state per object, not per access
            cursors: vec![0; dims],
            // lint: allow(kernel-no-alloc) -- set-up: one state per object, not per access
            last_seen: vec![f64::INFINITY; dims],
            // lint: allow(kernel-no-alloc) -- set-up: one state per object, not per access
            exhausted: vec![false; dims],
            // lint: allow(kernel-no-alloc) -- set-up: empty, grows to at most Ω entries
            candidates: Vec::new(),
            // lint: allow(kernel-no-alloc) -- set-up: empty, sized by the first `best`
            seen: Vec::new(),
            cap: omega,
            omega,
            answer: None,
            sorted_accesses: 0,
            restarts: 0,
        }
    }

    /// Number of sorted accesses performed so far.
    pub fn sorted_accesses(&self) -> u64 {
        self.sorted_accesses
    }

    /// Number of from-scratch restarts caused by the capped queue.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Approximate memory footprint of this state in bytes; feeds the paper's
    /// memory-usage metric. Counts what the state holds, not what it has
    /// used: 16 bytes per queued candidate, 8 per word of the seen bitset
    /// (`⌈|F| / 64⌉` words from the first search on, however few functions
    /// were met), and 24 per dimension for the cursor, last-seen and
    /// fill-order slots.
    pub fn memory_bytes(&self) -> u64 {
        (self.candidates.len() * 16 + self.seen.len() * 8 + self.cursors.len() * 24) as u64
    }

    /// Returns the best *alive* function for this object together with its
    /// score, resuming the previous search if possible. Returns `None` when no
    /// alive function remains.
    pub fn best(&mut self, lists: &FunctionLists) -> Option<(usize, f64)> {
        if self
            .answer
            .is_some_and(|(func, _)| lists.functions().is_alive(func))
        {
            return self.answer;
        }
        self.answer = self.search(lists);
        self.answer
    }

    fn search(&mut self, lists: &FunctionLists) -> Option<(usize, f64)> {
        let functions = lists.functions();
        if functions.remaining() == 0 {
            return None;
        }
        let words = functions.total().div_ceil(64);
        if self.seen.len() < words {
            // lint: allow(kernel-no-alloc) -- set-up: sized once, by the first search
            self.seen.resize(words, 0);
        }
        // Functions die only between calls (`lists` is shared for this one and
        // the lists only yield alive functions), so one purge covers it; a
        // restart below starts from an empty queue.
        self.drop_dead_candidates(functions);
        if self.cap == 0 {
            // The capped queue can no longer guarantee the true top-1:
            // restart from scratch with a fresh capacity.
            self.restart();
        }
        let budget = functions.budget();
        loop {
            let threshold = self.current_threshold(budget);
            // a tied function that reaches the queue is ordered by index there
            if let Some(&(score, func)) = self.candidates.first() {
                if beats_unseen(score, threshold) {
                    return Some((func, score));
                }
            }
            // advance the most promising list (biased probing)
            let Some(dim) = self.pick_list() else {
                // every list is exhausted: every alive function has been
                // seen, so the front candidate (if any) is the answer
                return self.candidates.first().map(|&(s, f)| (f, s));
            };
            self.advance(dim, lists);
        }
    }

    /// Removes dead (assigned) functions from the *whole* candidate queue,
    /// shrinking the capacity by one per removal as in the paper. Purging only
    /// the front would leave dead entries buried mid-queue occupying Ω slots:
    /// they crowd alive candidates out of the capped queue at insertion time
    /// and trigger premature restarts. The per-removal decrement is what keeps
    /// the capped queue sound — every candidate discarded by truncation was
    /// dominated by `cap` entries at the time, so after `cap` removals the
    /// guarantee is gone and [`ReverseTopOne::best`] restarts.
    fn drop_dead_candidates(&mut self, functions: &AliveFunctions) {
        let before = self.candidates.len();
        self.candidates
            .retain(|&(_, func)| functions.is_alive(func));
        let removed = before - self.candidates.len();
        self.cap = self.cap.saturating_sub(removed);
    }

    fn restart(&mut self) {
        self.cursors.fill(0);
        self.last_seen.fill(f64::INFINITY);
        self.exhausted.fill(false);
        self.candidates.clear();
        self.seen.fill(0);
        self.cap = self.omega;
        self.restarts += 1;
    }

    /// The tight threshold given the current last-seen coefficients; before a
    /// list has been touched its contribution is capped only by the budget,
    /// and an exhausted list (last seen `0.0`) contributes nothing.
    fn current_threshold(&self, budget: f64) -> f64 {
        threshold_in_order(&self.object, &self.fill_order, budget, |dim| {
            let l = self.last_seen[dim];
            if l.is_infinite() {
                budget
            } else {
                l
            }
        })
    }

    /// Biased list probing: the non-exhausted list with the largest
    /// `last_seen · o_d` (unvisited lists count with the full budget).
    fn pick_list(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for d in 0..self.object.dims() {
            if self.exhausted[d] {
                continue;
            }
            let l = if self.last_seen[d].is_infinite() {
                1.0
            } else {
                self.last_seen[d]
            };
            let gain = l * self.object.coord(d);
            match best {
                Some((_, g)) if g >= gain => {}
                _ => best = Some((d, gain)),
            }
        }
        best.map(|(d, _)| d)
    }

    /// One sorted access on list `dim`.
    fn advance(&mut self, dim: usize, lists: &FunctionLists) {
        match lists.next_alive(dim, self.cursors[dim]) {
            None => {
                self.exhausted[dim] = true;
                self.last_seen[dim] = 0.0;
            }
            Some((next_cursor, coeff, func)) => {
                self.cursors[dim] = next_cursor;
                self.last_seen[dim] = coeff;
                self.sorted_accesses += 1;
                let (word, bit) = (func / 64, 1u64 << (func % 64));
                if self.seen[word] & bit == 0 {
                    self.seen[word] |= bit;
                    let score = lists.functions().score(func, &self.object);
                    self.insert_candidate(score, func);
                }
            }
        }
    }

    /// Inserts in (score desc, function index asc) order so that exact score
    /// ties resolve to the lowest function index — the same deterministic rule
    /// the solver's argmax scans use.
    fn insert_candidate(&mut self, score: f64, func: usize) {
        let pos = self
            .candidates
            .partition_point(|&(s, f)| s > score || (s == score && f < func));
        self.candidates.insert(pos, (score, func));
        if self.candidates.len() > self.cap {
            self.candidates.truncate(self.cap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knapsack::tight_threshold;
    use crate::scan::ScanTopOne;
    use pref_geom::LinearFunction;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn paper_functions() -> Vec<LinearFunction> {
        vec![
            LinearFunction::from_normalized(vec![0.8, 0.1, 0.1]).unwrap(), // 0: fa
            LinearFunction::from_normalized(vec![0.2, 0.8, 0.0]).unwrap(), // 1: fb
            LinearFunction::from_normalized(vec![0.5, 0.4, 0.1]).unwrap(), // 2: fc
            LinearFunction::from_normalized(vec![0.0, 0.1, 0.9]).unwrap(), // 3: fd
            LinearFunction::from_normalized(vec![0.2, 0.4, 0.4]).unwrap(), // 4: fe
        ]
    }

    fn random_functions(n: usize, dims: usize, seed: u64) -> Vec<LinearFunction> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                LinearFunction::new((0..dims).map(|_| rng.gen_range(0.01..1.0)).collect()).unwrap()
            })
            .collect()
    }

    #[test]
    fn finds_fa_for_the_paper_object() {
        let lists = FunctionLists::new(&paper_functions());
        let mut search = ReverseTopOne::new(Point::from_slice(&[10.0, 6.0, 8.0]), 100);
        let (func, score) = search.best(&lists).unwrap();
        assert_eq!(func, 0);
        assert!((score - 9.4).abs() < 1e-9);
        // biased probing should terminate after very few sorted accesses
        assert!(
            search.sorted_accesses() <= 4,
            "expected early termination, got {} accesses",
            search.sorted_accesses()
        );
    }

    #[test]
    fn resumes_after_best_function_is_assigned() {
        let mut lists = FunctionLists::new(&paper_functions());
        let mut search = ReverseTopOne::new(Point::from_slice(&[10.0, 6.0, 8.0]), 100);
        assert_eq!(search.best(&lists).unwrap().0, 0);
        lists.remove(0); // fa is assigned elsewhere
        let (func, score) = search.best(&lists).unwrap();
        assert_eq!(func, 2); // fc = 8.2 is next
        assert!((score - 8.2).abs() < 1e-9);
        lists.remove(2);
        assert_eq!(search.best(&lists).unwrap().0, 3); // fd = 7.8
        lists.remove(3);
        assert_eq!(search.best(&lists).unwrap().0, 4); // fe = 7.6 > fb 6.8
        lists.remove(4);
        assert_eq!(search.best(&lists).unwrap().0, 1);
        lists.remove(1);
        assert!(search.best(&lists).is_none());
    }

    #[test]
    fn tiny_omega_still_returns_correct_answers_via_restarts() {
        let functions = random_functions(200, 4, 5);
        let mut lists = FunctionLists::new(&functions);
        let object = Point::from_slice(&[0.9, 0.2, 0.7, 0.4]);
        let mut search = ReverseTopOne::new(object.clone(), 2);
        // repeatedly assign away the best function and ask again
        for _ in 0..50 {
            let expect = lists.functions().best_by_scan(&object);
            let got = search.best(&lists);
            match (expect, got) {
                (None, None) => break,
                (Some((ef, es)), Some((gf, gs))) => {
                    assert!((es - gs).abs() < 1e-9, "score mismatch");
                    // the function may differ only if scores tie exactly
                    if ef != gf {
                        assert!(
                            (lists.functions().score(ef, &object)
                                - lists.functions().score(gf, &object))
                            .abs()
                                < 1e-12
                        );
                    }
                    lists.remove(gf);
                }
                other => panic!("oracle and search disagree on existence: {other:?}"),
            }
        }
        assert!(search.restarts() > 0, "a cap of 2 must force restarts");
    }

    #[test]
    fn matches_oracle_on_random_workloads() {
        for seed in [11u64, 12, 13] {
            let functions = random_functions(300, 3, seed);
            let lists = FunctionLists::new(&functions);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabc);
            for _ in 0..20 {
                let object = Point::from_slice(&[
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                ]);
                let mut search = ReverseTopOne::new(object.clone(), 30);
                let (func, score) = search.best(&lists).unwrap();
                let (of, os) = lists.functions().best_by_scan(&object).unwrap();
                assert!((score - os).abs() < 1e-9);
                if func != of {
                    assert!((lists.functions().score(of, &object) - score).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn prioritized_functions_use_scaled_budget() {
        let functions = vec![
            LinearFunction::with_priority(vec![0.8, 0.2], 3.0).unwrap(),
            LinearFunction::with_priority(vec![0.2, 0.8], 2.0).unwrap(),
            LinearFunction::with_priority(vec![0.5, 0.5], 1.0).unwrap(),
        ];
        let lists = FunctionLists::new(&functions);
        let object = Point::from_slice(&[0.5, 0.6]);
        let mut search = ReverseTopOne::new(object.clone(), 10);
        let (func, score) = search.best(&lists).unwrap();
        let (of, os) = lists.functions().best_by_scan(&object).unwrap();
        assert_eq!(func, of);
        assert!((score - os).abs() < 1e-9);
    }

    #[test]
    fn zero_alive_functions_returns_none_immediately() {
        let mut lists = FunctionLists::new(&paper_functions());
        for i in 0..5 {
            lists.remove(i);
        }
        let mut search = ReverseTopOne::new(Point::from_slice(&[0.5, 0.5, 0.5]), 10);
        assert!(search.best(&lists).is_none());
    }

    #[test]
    fn mid_queue_deaths_do_not_block_the_queue() {
        // Kill functions that are NOT the current best, so under the old
        // front-only purge they would sit dead in the middle of the queue.
        // The search must keep returning the true best without restarting as
        // long as the capacity allows.
        let functions = random_functions(120, 3, 41);
        let mut lists = FunctionLists::new(&functions);
        let object = Point::from_slice(&[0.6, 0.3, 0.8]);
        let mut search = ReverseTopOne::new(object.clone(), 60);
        let mut rng = StdRng::seed_from_u64(42);
        for round in 0..40 {
            let expect = lists.functions().best_by_scan(&object);
            let got = search.best(&lists);
            match (expect, got) {
                (None, None) => break,
                (Some((_, es)), Some((gf, gs))) => {
                    assert!((es - gs).abs() < 1e-9, "round {round}: score mismatch");
                    // remove a random *non-best* alive function: it dies while
                    // buried somewhere inside the candidate queue
                    let alive: Vec<usize> = lists
                        .functions()
                        .alive_functions()
                        .into_iter()
                        .filter(|&f| f != gf)
                        .collect();
                    if alive.is_empty() {
                        break;
                    }
                    lists.remove(alive[rng.gen_range(0..alive.len())]);
                }
                other => panic!("oracle and search disagree on existence: {other:?}"),
            }
        }
    }

    #[test]
    fn exact_score_ties_resolve_to_the_lowest_function_index() {
        // two identical functions (an exact score tie by construction): the
        // candidate queue must order them by index, so the returned best is
        // deterministic on exact ties
        let functions = vec![
            LinearFunction::from_normalized(vec![0.5, 0.5]).unwrap(),
            LinearFunction::from_normalized(vec![0.5, 0.5]).unwrap(),
            LinearFunction::from_normalized(vec![0.9, 0.1]).unwrap(),
        ];
        let lists = FunctionLists::new(&functions);
        let object = Point::from_slice(&[0.2, 0.8]);
        let mut search = ReverseTopOne::new(object, 10);
        let (func, score) = search.best(&lists).unwrap();
        assert!((score - 0.5).abs() < 1e-12);
        assert_eq!(func, 0, "ties must break to the lowest function index");
    }

    #[test]
    fn memory_reporting_is_monotone_during_search() {
        let functions = random_functions(100, 3, 21);
        let lists = FunctionLists::new(&functions);
        let mut search = ReverseTopOne::new(Point::from_slice(&[0.3, 0.9, 0.1]), 50);
        let before = search.memory_bytes();
        let _ = search.best(&lists);
        assert!(search.memory_bytes() >= before);
    }

    #[test]
    fn biased_probing_beats_round_robin_on_access_count() {
        // construct an object that strongly prefers one dimension; biased
        // probing should need far fewer sorted accesses than |F| * D
        let functions = random_functions(500, 4, 31);
        let lists = FunctionLists::new(&functions);
        let object = Point::from_slice(&[0.99, 0.01, 0.01, 0.01]);
        let mut search = ReverseTopOne::new(object, 50);
        let _ = search.best(&lists).unwrap();
        assert!(
            search.sorted_accesses() < 500,
            "expected early termination, got {}",
            search.sorted_accesses()
        );
    }

    #[test]
    fn asking_again_without_a_removal_reads_nothing() {
        let functions = random_functions(300, 4, 17);
        let mut lists = FunctionLists::new(&functions);
        let mut search = ReverseTopOne::new(Point::from_slice(&[0.3, 0.8, 0.5, 0.1]), 8);
        let first = search.best(&lists);
        let accesses = search.sorted_accesses();
        assert_eq!(search.best(&lists), first);
        assert_eq!(search.sorted_accesses(), accesses);
        // still true after a resumed search
        lists.remove(first.unwrap().0);
        let second = search.best(&lists);
        assert_ne!(second, first);
        let accesses = search.sorted_accesses();
        assert_eq!(search.best(&lists), second);
        assert_eq!((search.sorted_accesses(), search.restarts()), (accesses, 0));
    }

    /// Runs a seeded kill sequence — the returned best dies on even steps (an
    /// assignment), a random alive function on odd steps (an assignment
    /// elsewhere, buried in a queue) — for `steps` steps or until no function
    /// is left, asking `best` at every step and showing `each` every answer
    /// with the lists it was given on.
    fn kill_sequence(
        functions: &[LinearFunction],
        steps: usize,
        mut best: impl FnMut(&FunctionLists) -> Option<(usize, f64)>,
        mut each: impl FnMut(&FunctionLists, (usize, f64)),
    ) {
        let mut lists = FunctionLists::new(functions);
        let mut rng = StdRng::seed_from_u64(824);
        for step in 0..steps {
            let Some(answer) = best(&lists) else {
                assert_eq!(
                    lists.functions().remaining(),
                    0,
                    "step {step}: no answer among alive"
                );
                break;
            };
            each(&lists, answer);
            let victim = if step % 2 == 0 {
                answer.0
            } else {
                let alive = lists.functions().alive_functions();
                alive[rng.gen_range(0..alive.len())]
            };
            lists.remove(victim);
        }
    }

    /// The pinned sequence: 300 steps over 400 functions at D = 4, answered by
    /// `best`. Returns an FNV digest of every `(function, score bits)`.
    fn pinned_kill_sequence(best: impl FnMut(&FunctionLists) -> Option<(usize, f64)>) -> u64 {
        let functions = random_functions(400, 4, 2009);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        kill_sequence(&functions, 300, best, |_, (func, score)| {
            for word in [func as u64, score.to_bits()] {
                for byte in word.to_le_bytes() {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        });
        digest
    }

    #[test]
    fn kill_sequence_answers_and_costs_are_pinned() {
        // The answers, recorded before the search was ever given a cost
        // bound: no Ω and no choice of search may move them.
        const ANSWERS: u64 = 18_050_867_995_497_771_958;
        // The costs, pinned apart so that re-pinning one cannot touch the line
        // above: TA's (sorted accesses, restarts), as on that commit, and the
        // rows the scan scores whenever its eight kept rows have all died.
        let object = Point::from_slice(&[0.7, 0.2, 0.55, 0.4]);
        for (omega, costs) in [(2, (13_903, 76)), (25, (1_507, 6))] {
            let mut ta = ReverseTopOne::new(object.clone(), omega);
            assert_eq!(pinned_kill_sequence(|lists| ta.best(lists)), ANSWERS);
            assert_eq!((ta.sorted_accesses(), ta.restarts()), costs, "Ω = {omega}");
        }
        let mut scan = ScanTopOne::new(object);
        assert_eq!(
            pinned_kill_sequence(|lists| scan.best(lists.functions())),
            ANSWERS
        );
        assert_eq!(scan.scanned_rows(), 5_123);
    }

    /// Functions built to tie: every third one is an exact copy of an earlier
    /// one (equal scores on every object, so the lowest index must win), and
    /// every fourth original has a zero coefficient. At D = 1 normalisation
    /// makes all of them the same function.
    fn tie_heavy_functions(n: usize, dims: usize, seed: u64) -> Vec<LinearFunction> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut functions: Vec<LinearFunction> = Vec::with_capacity(n);
        for i in 0..n {
            if i % 3 == 2 {
                let twin = functions[rng.gen_range(0..i)].clone();
                functions.push(twin);
                continue;
            }
            let mut weights: Vec<f64> = (0..dims).map(|_| rng.gen_range(0.01..1.0)).collect();
            if dims > 1 && i % 4 == 0 {
                weights[rng.gen_range(0..dims)] = 0.0;
            }
            functions.push(LinearFunction::new(weights).unwrap());
        }
        functions
    }

    #[test]
    fn ta_and_scan_both_answer_like_the_scalar_reference() {
        // TA at every Ω, and the scan, each give the reference scan's function
        // and the reference's score bits at every step of a kill sequence
        // that runs the function set down to nothing.
        for n in [1usize, 7, 64, 65, 300] {
            for dims in [1usize, 4, 12] {
                let functions = tie_heavy_functions(n, dims, (n * 31 + dims) as u64);
                let mut rng = StdRng::seed_from_u64((n * 17 + dims) as u64);
                let mut coords: Vec<f64> = (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect();
                if dims > 1 {
                    coords[dims / 2] = 0.0;
                }
                let object = Point::new(coords).unwrap();
                // `None` is the scan, which has no Ω
                for omega in [None, Some(1usize), Some(2), Some(25)] {
                    let mut ta = omega.map(|omega| ReverseTopOne::new(object.clone(), omega));
                    let mut scan = ScanTopOne::new(object.clone());
                    let mut answers = 0;
                    kill_sequence(
                        &functions,
                        usize::MAX,
                        |lists| match &mut ta {
                            Some(ta) => ta.best(lists),
                            None => scan.best(lists.functions()),
                        },
                        |lists, (func, score)| {
                            let (want, want_score) =
                                lists.functions().best_by_scan(&object).unwrap();
                            assert_eq!(
                                (func, score.to_bits()),
                                (want, want_score.to_bits()),
                                "|F|={n} D={dims} TA Ω={omega:?} answer {answers}"
                            );
                            answers += 1;
                        },
                    );
                    assert_eq!(answers, n, "one answer per kill until F is empty");
                }
            }
        }
    }

    #[test]
    fn a_re_ask_whose_answer_is_alive_costs_nothing() {
        let functions = random_functions(300, 4, 17);
        let mut lists = FunctionLists::new(&functions);
        let object = Point::from_slice(&[0.3, 0.8, 0.5, 0.1]);
        let mut search = ReverseTopOne::new(object.clone(), 8);
        let costs = |s: &ReverseTopOne| (s.sorted_accesses(), s.restarts());
        let mut rng = StdRng::seed_from_u64(18);
        // a fresh search's answer, then a resumed one's
        for _ in 0..2 {
            let answer = search.best(&lists).unwrap();
            assert_eq!(Some(answer), lists.functions().best_by_scan(&object));
            let before = (costs(&search), search.candidates.clone());
            // everyone else may die, queued candidates included: the answer
            // stands and the state is not touched
            for _ in 0..40 {
                let others: Vec<usize> = lists
                    .functions()
                    .alive_functions()
                    .into_iter()
                    .filter(|&f| f != answer.0)
                    .collect();
                lists.remove(others[rng.gen_range(0..others.len())]);
                assert_eq!(search.best(&lists), Some(answer));
            }
            if let Some(&(_, queued)) = search.candidates.get(1) {
                lists.remove(queued);
                assert_eq!(search.best(&lists), Some(answer));
            }
            assert_eq!((costs(&search), search.candidates.clone()), before);
            lists.remove(answer.0);
        }
    }

    /// The threshold as it was computed before the fill order was hoisted:
    /// sort the dimensions and fill against the capped bounds, per call.
    fn threshold_by_definition(object: &Point, capped: &[f64], budget: f64) -> f64 {
        let mut order: Vec<usize> = (0..object.dims()).collect();
        order.sort_by(|&a, &b| object.coord(b).partial_cmp(&object.coord(a)).unwrap());
        let mut remaining = budget;
        let mut bound = 0.0;
        for dim in order {
            if remaining <= 0.0 {
                break;
            }
            let beta = remaining.min(capped[dim].max(0.0));
            bound += beta * object.coord(dim);
            remaining -= beta;
        }
        bound
    }

    #[derive(Debug, Clone, Copy)]
    enum ListState {
        Unvisited,
        Exhausted,
        Seen(f64),
    }

    proptest! {
        /// The search's threshold (fill order fixed at construction, caps read
        /// straight off the list state) and `tight_threshold` are the same
        /// float, bit for bit, as the per-call definition — with tied
        /// coordinates, zero coefficients, and unvisited and exhausted lists.
        #[test]
        fn hoisted_fill_order_leaves_the_threshold_bit_identical(
            coords in proptest::collection::vec(
                prop_oneof![Just(0.0f64), Just(0.5f64), Just(1.0f64), 0.0f64..1.0],
                1..=9,
            ),
            states in proptest::collection::vec(
                prop_oneof![
                    Just(ListState::Unvisited),
                    Just(ListState::Exhausted),
                    Just(ListState::Seen(0.0)),
                    (0.0f64..1.0).prop_map(ListState::Seen),
                ],
                9,
            ),
            budget in prop_oneof![Just(1.0f64), 0.5f64..4.0],
        ) {
            let object = Point::new(coords).unwrap();
            let states = &states[..object.dims()];
            let mut search = ReverseTopOne::new(object.clone(), 4);
            for (dim, &list) in states.iter().enumerate() {
                match list {
                    ListState::Unvisited => {}
                    ListState::Exhausted => {
                        search.exhausted[dim] = true;
                        search.last_seen[dim] = 0.0;
                    }
                    ListState::Seen(coeff) => search.last_seen[dim] = coeff,
                }
            }
            // the per-list bounds as the search used to materialise them
            let capped: Vec<f64> = states
                .iter()
                .map(|&l| match l {
                    ListState::Exhausted => 0.0,
                    ListState::Unvisited => budget,
                    ListState::Seen(coeff) => coeff,
                })
                .collect();
            let want = threshold_by_definition(&object, &capped, budget);
            prop_assert_eq!(search.current_threshold(budget).to_bits(), want.to_bits());
            prop_assert_eq!(
                tight_threshold(&object, &capped, budget).to_bits(),
                want.to_bits()
            );
        }
    }
}
