//! Reverse top-1 search: the best remaining preference function for an object.
//!
//! The search is the paper's adaptation of the threshold algorithm (Section
//! 5.1): the roles of objects and functions are swapped, the termination
//! threshold is the fractional-knapsack bound of [`crate::tight_threshold`],
//! lists are probed in a biased order (largest `l_i · o_i` first), and the
//! state is kept so it can *resume* when the object's best function is
//! assigned to another object. The candidate queue is capped at `Ω = ω · |F|`;
//! every candidate that dies shrinks the cap by one and at zero the search
//! restarts from scratch (the paper's memory/CPU trade-off knob).
//!
//! It runs under a **cost bound**: no call costs much more than reading `F`
//! once.
//!
//! * **Re-ask.** A call whose previous answer is still alive returns it
//!   without touching the state. Every answer is the queue's front, accepted
//!   against a threshold only this state's own reads can move, and functions
//!   only ever die, so the best alive function stays the best until it dies.
//!   Four calls in ten of a cold solve are such re-asks.
//! * **Allowance.** Otherwise TA runs exactly as the paper describes, but one
//!   call may step over at most `|alive| · D / 256` list entries. Dead
//!   entries that [`FunctionLists::next_alive`] skips count too, which bounds
//!   the dead prefix every state walks again after a restart. TA's accesses
//!   are cheap one by one and ruinous in number when the threshold is loose:
//!   at D = 12 a fresh search made 312 of them to choose among 200 functions.
//! * **Fall-back.** When the allowance is spent the call scores the alive
//!   functions once, in one streaming pass over the columnar
//!   [`FunctionLists::alive_block`] (bit-identical to the random accesses it
//!   replaces: the same products summed in the same order), refills the queue
//!   with the best few rows under the queue's own `(score desc, function
//!   asc)` order, sets the cap to that count and marks every list exhausted.
//!   From there the capped-queue machinery needs nothing new: deaths are
//!   purged and shrink the cap, the front answers with no reads, and at cap
//!   zero the state restarts. A state that has fallen back once scans again
//!   at once when its queue next runs dry: the alive set only shrinks, so the
//!   scan only gets cheaper, and TA, which could not finish within the
//!   allowance over a larger set, does not.
//!
//! The scan keeps at most eight rows although the queue could take `Ω`:
//! keeping `k` of `n` rows costs about `k · ln(n / k)` sorted insertions, each
//! an `O(k)` shift, while a row it did not keep costs one more scan only after
//! all `k` kept ones died — and `Ω` grows with `|F|`.

use crate::knapsack::{fill_order, threshold_in_order};
use crate::lists::FunctionLists;
use pref_geom::{kernel, Point};

/// One call of [`ReverseTopOne::best`] steps over at most `|alive| · D /
/// ALLOWANCE_DIVISOR` sorted-list entries before it falls back to the scan.
/// Cold-solve `op_p50_us` in ms (seed 20090824, median of three runs) for a
/// divisor of 32 / 64 / 128 / 256 / 1024 / ∞ (scan at once): 180 / 174 / 170 /
/// 168 / 167 / 166 on `solve-anti` (D = 4, |F| = 1000) and 177 / 164 / 157 /
/// 152 / 147 / 146 on `solve-wide` (D = 12, |F| = 200), against 300 and 366
/// for an unbounded TA; with `solve-anti` raised to |F| = 10 000, 1.87 s at
/// 256, 1.88 s scanning at once, 4.5 s unbounded. 256 keeps TA as the entry
/// for the searches it answers in a handful of accesses (one reading search
/// in eleven on `solve-anti`) at ≤ 4 % over never running it.
const ALLOWANCE_DIVISOR: usize = 256;

/// Rows a fall-back scan keeps in the candidate queue (fewer when the cap or
/// the alive set is smaller). Same runs, keeping 1 / 2 / 4 / 8 / 16 / Ω rows:
/// 178 / 167 / 163 / 168 / 183 / 195 ms on `solve-anti` (Ω = 25), flat on
/// `solve-wide` (Ω = 5); at |F| = 10 000, keeping 4 / 8 / 16 / 32 / Ω = 250:
/// 2.11 / 1.87 / 1.83 / 1.91 / 3.23 s. The optimum drifts up slowly with |F|
/// (a scan saved costs |F| rows, a row kept `O(k)` shifts); 8 is within 4 %
/// of it at both sizes and filling all Ω slots is the worst choice at both.
const SCAN_KEPT_ROWS: usize = 8;

/// Rows scored per pass of the scan: a 2 KiB stack buffer, so the scan
/// allocates nothing however large the alive block is.
const SCAN_CHUNK: usize = 256;

/// Exhaustively scans the alive functions for the best one: the scalar
/// reference the searches are tested and benchmarked against.
pub fn best_function_scan(lists: &FunctionLists, object: &Point) -> Option<(usize, f64)> {
    lists.best_by_scan(object)
}

/// Resumable reverse top-1 search state for one object.
///
/// A sorted access costs one list step, one bit test, at most one `D`-term
/// dot product with an `O(log Ω)` search plus an `O(Ω)` shift of the candidate
/// queue, and one `O(D)` threshold — and allocates nothing: the knapsack fill
/// order is fixed by the object and computed once in [`ReverseTopOne::new`],
/// the seen-set is a bitset over function indices that a restart clears in
/// place, and the fall-back scan scores into a stack buffer. The only buffer
/// that grows during a search is the candidate queue, up to `Ω` entries.
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
    /// `true` once the corresponding list has been fully consumed — by TA, or
    /// all at once by a fall-back scan, which has then seen every function.
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
    /// `true` once a call has fallen back to the scan: later calls skip TA
    /// (`solve-anti` 173 → 167 ms; the rows scanned are the same with and
    /// without, i.e. not one TA retry after a fall-back answered in time).
    fell_back: bool,
    /// Number of sorted-list accesses performed (for diagnostics).
    sorted_accesses: u64,
    /// Number of alive-block rows scored by fall-back scans.
    scanned_rows: u64,
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
            fell_back: false,
            sorted_accesses: 0,
            scanned_rows: 0,
            restarts: 0,
        }
    }

    /// The object this state searches for.
    pub fn object(&self) -> &Point {
        &self.object
    }

    /// Number of sorted accesses performed so far.
    pub fn sorted_accesses(&self) -> u64 {
        self.sorted_accesses
    }

    /// Number of alive-block rows the fall-back scans have scored so far.
    /// With [`ReverseTopOne::sorted_accesses`] this is every function-index
    /// entry the state has read.
    pub fn scanned_rows(&self) -> u64 {
        self.scanned_rows
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
        let allowance = lists.remaining() * lists.dims() / ALLOWANCE_DIVISOR;
        self.best_within(lists, allowance as u64)
    }

    /// [`ReverseTopOne::best`] with TA's allowance for this call given: the
    /// number of list entries it may step over before the call falls back to
    /// the scan. `u64::MAX` is the paper's unbounded TA, `0` scans at once;
    /// the answer is the same for every value.
    fn best_within(&mut self, lists: &FunctionLists, allowance: u64) -> Option<(usize, f64)> {
        if self.answer.is_some_and(|(func, _)| lists.is_alive(func)) {
            return self.answer;
        }
        self.answer = self.search(lists, allowance);
        self.answer
    }

    fn search(&mut self, lists: &FunctionLists, allowance: u64) -> Option<(usize, f64)> {
        if lists.remaining() == 0 {
            return None;
        }
        let words = lists.total().div_ceil(64);
        if self.seen.len() < words {
            // lint: allow(kernel-no-alloc) -- set-up: sized once, by the first search
            self.seen.resize(words, 0);
        }
        // Functions die only between calls (`lists` is shared for this one and
        // the lists only yield alive functions), so one purge covers it; a
        // restart below starts from an empty queue.
        self.drop_dead_candidates(lists);
        if self.cap == 0 {
            // The capped queue can no longer guarantee the true top-1:
            // restart from scratch with a fresh capacity.
            self.restart();
        }
        let budget = lists.budget();
        let mut stepped = 0u64;
        loop {
            let threshold = self.current_threshold(budget);
            if let Some(&(score, func)) = self.candidates.first() {
                // Accept only once the bound on *unseen* functions is
                // strictly below the front candidate. At `score == threshold`
                // an unseen function can still TIE the front exactly, and the
                // stable loop's tie rule (lowest function index, the oracle's
                // order) requires every tied function to reach the candidate
                // queue — where insertion order resolves the tie — before the
                // search answers.
                if score > threshold + 1e-12 {
                    return Some((func, score));
                }
            }
            // advance the most promising list (biased probing)
            let Some(dim) = self.pick_list() else {
                // every list is exhausted: every alive function has been
                // seen, so the front candidate (if any) is the answer
                return self.candidates.first().map(|&(s, f)| (f, s));
            };
            if self.fell_back || stepped >= allowance {
                // leaves every list exhausted: the next turn of the loop
                // answers from the refilled queue
                self.scan(lists);
            } else {
                stepped += self.advance(dim, lists);
            }
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
    fn drop_dead_candidates(&mut self, lists: &FunctionLists) {
        let before = self.candidates.len();
        self.candidates.retain(|&(_, func)| lists.is_alive(func));
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

    /// One sorted access on list `dim`; returns the list entries it stepped
    /// over, dead ones included.
    fn advance(&mut self, dim: usize, lists: &FunctionLists) -> u64 {
        let cursor = self.cursors[dim];
        match lists.next_alive(dim, cursor) {
            None => {
                self.exhausted[dim] = true;
                self.last_seen[dim] = 0.0;
                (lists.total() - cursor) as u64
            }
            Some((next_cursor, coeff, func)) => {
                self.cursors[dim] = next_cursor;
                self.last_seen[dim] = coeff;
                self.sorted_accesses += 1;
                let (word, bit) = (func / 64, 1u64 << (func % 64));
                if self.seen[word] & bit == 0 {
                    self.seen[word] |= bit;
                    let score = lists.score(func, &self.object);
                    self.insert_candidate(score, func);
                }
                (next_cursor - cursor) as u64
            }
        }
    }

    /// The fall-back: scores every alive function in one pass over the alive
    /// block and refills the queue with the best `min(cap, SCAN_KEPT_ROWS)` of
    /// them. The object plays the weight vector and the block's rows the
    /// points, so a row's score is the product-by-product sum
    /// [`FunctionLists::score`] computes (multiplication commutes), to the
    /// bit. Every function has now been seen, which is what an exhausted list
    /// means to the rest of the search; and the queue is exact for as many
    /// deaths as it holds rows, which is what `cap` means.
    fn scan(&mut self, lists: &FunctionLists) {
        let block = lists.alive_block();
        let functions = lists.alive_rows();
        self.candidates.clear();
        self.cap = self.cap.min(SCAN_KEPT_ROWS);
        // the score a row must reach to enter a full queue
        let mut floor = f64::NEG_INFINITY;
        let mut scores = [0.0f64; SCAN_CHUNK];
        for (chunk, functions) in functions.chunks(SCAN_CHUNK).enumerate() {
            let scores = &mut scores[..functions.len()];
            kernel::score_rows(self.object.coords(), 1.0, block, chunk * SCAN_CHUNK, scores);
            for (&score, &func) in scores.iter().zip(functions) {
                if score >= floor {
                    self.insert_candidate(score, func);
                    if self.candidates.len() == self.cap {
                        floor = self.candidates[self.cap - 1].0;
                    }
                }
            }
        }
        self.cap = self.candidates.len();
        self.exhausted.fill(true);
        self.last_seen.fill(0.0);
        self.fell_back = true;
        self.scanned_rows += functions.len() as u64;
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
    use pref_geom::LinearFunction;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Allowances that pin `best_within` to one side of the bound: the
    /// paper's unbounded TA, and the fall-back scan with no TA before it.
    const TA_ONLY: u64 = u64::MAX;
    const SCAN_ONLY: u64 = 0;

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
        let (func, score) = search.best_within(&lists, TA_ONLY).unwrap();
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
            let expect = lists.best_by_scan(&object);
            let got = search.best_within(&lists, TA_ONLY);
            match (expect, got) {
                (None, None) => break,
                (Some((ef, es)), Some((gf, gs))) => {
                    assert!((es - gs).abs() < 1e-9, "score mismatch");
                    // the function may differ only if scores tie exactly
                    if ef != gf {
                        assert!(
                            (lists.score(ef, &object) - lists.score(gf, &object)).abs() < 1e-12
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
                let (func, score) = search.best_within(&lists, TA_ONLY).unwrap();
                let (of, os) = lists.best_by_scan(&object).unwrap();
                assert!((score - os).abs() < 1e-9);
                if func != of {
                    assert!((lists.score(of, &object) - score).abs() < 1e-12);
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
        let (of, os) = lists.best_by_scan(&object).unwrap();
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
            let expect = lists.best_by_scan(&object);
            let got = search.best_within(&lists, TA_ONLY);
            match (expect, got) {
                (None, None) => break,
                (Some((_, es)), Some((gf, gs))) => {
                    assert!((es - gs).abs() < 1e-9, "round {round}: score mismatch");
                    // remove a random *non-best* alive function: it dies while
                    // buried somewhere inside the candidate queue
                    let alive: Vec<usize> = lists
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
        let _ = search.best_within(&lists, TA_ONLY).unwrap();
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

    /// Drives one search through a seeded kill sequence — the returned best
    /// dies on even steps (an assignment), a random alive function on odd
    /// steps (an assignment elsewhere, buried in the queue) — for `steps`
    /// steps or until no function is left, and shows `each` every answer with
    /// the state and the lists it was given on. `allowance` picks the entry:
    /// `None` is `best`, `Some(a)` is `best_within(a)`.
    fn kill_sequence(
        functions: &[LinearFunction],
        mut search: ReverseTopOne,
        allowance: Option<u64>,
        steps: usize,
        mut each: impl FnMut(&ReverseTopOne, &FunctionLists, (usize, f64)),
    ) -> ReverseTopOne {
        let mut lists = FunctionLists::new(functions);
        let mut rng = StdRng::seed_from_u64(824);
        for step in 0..steps {
            let answer = match allowance {
                None => search.best(&lists),
                Some(allowance) => search.best_within(&lists, allowance),
            };
            let Some(answer) = answer else {
                assert_eq!(lists.remaining(), 0, "step {step}: no answer among alive");
                break;
            };
            each(&search, &lists, answer);
            let victim = if step % 2 == 0 {
                answer.0
            } else {
                let alive = lists.alive_functions();
                alive[rng.gen_range(0..alive.len())]
            };
            lists.remove(victim);
        }
        search
    }

    /// The pinned sequence: 300 steps over 400 functions at D = 4. Returns an
    /// FNV digest of every `(function, score bits)` answered, and what the
    /// answers cost: `(sorted accesses, scanned rows, restarts)`.
    fn pinned_kill_sequence(omega: usize, allowance: Option<u64>) -> (u64, (u64, u64, u64)) {
        let functions = random_functions(400, 4, 2009);
        let search = ReverseTopOne::new(Point::from_slice(&[0.7, 0.2, 0.55, 0.4]), omega);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let search = kill_sequence(&functions, search, allowance, 300, |_, _, (func, score)| {
            for word in [func as u64, score.to_bits()] {
                for byte in word.to_le_bytes() {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        });
        let costs = (
            search.sorted_accesses(),
            search.scanned_rows(),
            search.restarts(),
        );
        (digest, costs)
    }

    #[test]
    fn kill_sequence_answers_and_costs_are_pinned() {
        // The answers, recorded on the commit before the search was given its
        // cost bound: no Ω and no allowance may move them.
        const ANSWERS: u64 = 18_050_867_995_497_771_958;
        // The costs as (sorted accesses, scanned rows, restarts), pinned apart
        // from the answers so that a change to the bound re-pins these and
        // cannot touch the line above. TA alone costs what the search cost
        // on that commit, to the access; the default at 400 × 4 is an
        // allowance of six entries, spent by the first call, then scans of at
        // most 400 rows whenever the (at most eight) kept rows have died.
        for (omega, ta_only, default) in [
            (2, (13_903, 0, 76), (6, 19_447, 76)),
            (25, (1_507, 0, 6), (6, 5_123, 19)),
        ] {
            assert_eq!(
                pinned_kill_sequence(omega, Some(TA_ONLY)),
                (ANSWERS, ta_only),
                "TA only, Ω = {omega}"
            );
            assert_eq!(
                pinned_kill_sequence(omega, None),
                (ANSWERS, default),
                "default allowance, Ω = {omega}"
            );
            assert_eq!(
                pinned_kill_sequence(omega, Some(SCAN_ONLY)).0,
                ANSWERS,
                "scan only, Ω = {omega}"
            );
        }
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
    fn ta_scan_and_default_all_answer_like_the_scalar_reference() {
        // The bound must not hide a TA bug behind the scan, nor a scan bug
        // behind TA: each side alone, and the two together, give the reference
        // scan's function and the reference's score bits at every step of a
        // kill sequence that runs the function set down to nothing.
        for n in [1usize, 7, 64, 65, 300] {
            for dims in [1usize, 4, 12] {
                let functions = tie_heavy_functions(n, dims, (n * 31 + dims) as u64);
                let mut rng = StdRng::seed_from_u64((n * 17 + dims) as u64);
                let mut coords: Vec<f64> = (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect();
                if dims > 1 {
                    coords[dims / 2] = 0.0;
                }
                let object = Point::new(coords).unwrap();
                for omega in [1usize, 2, 25] {
                    for allowance in [Some(TA_ONLY), Some(SCAN_ONLY), None] {
                        let search = ReverseTopOne::new(object.clone(), omega);
                        let mut answers = 0;
                        kill_sequence(
                            &functions,
                            search,
                            allowance,
                            usize::MAX,
                            |_, lists, (func, score)| {
                                let (want, want_score) = lists.best_by_scan(&object).unwrap();
                                assert_eq!(
                                    (func, score.to_bits()),
                                    (want, want_score.to_bits()),
                                    "|F|={n} D={dims} Ω={omega} allowance={allowance:?} \
                                     answer {answers}"
                                );
                                answers += 1;
                            },
                        );
                        assert_eq!(answers, n, "one answer per kill until F is empty");
                    }
                }
            }
        }
    }

    #[test]
    fn one_call_stays_within_its_allowance_and_scans_at_most_once() {
        // 300 × 4 with Ω = 2: restarts, dead list prefixes and fall-backs all
        // occur. The allowance is checked before every access, so the sorted
        // accesses of one call never exceed it; and a call scans once or not
        // at all, reading exactly the rows alive at that moment.
        let functions = random_functions(300, 4, 77);
        let object = Point::from_slice(&[0.45, 0.5, 0.4, 0.55]);
        for allowance in [0u64, 1, 3, 10, 50, 400] {
            let (mut accesses, mut rows, mut scans) = (0u64, 0u64, 0u32);
            kill_sequence(
                &functions,
                ReverseTopOne::new(object.clone(), 2),
                Some(allowance),
                usize::MAX,
                |search, lists, _| {
                    let accessed = search.sorted_accesses() - accesses;
                    let scanned = search.scanned_rows() - rows;
                    assert!(accessed <= allowance, "{accessed} accesses on {allowance}");
                    assert!(scanned == 0 || scanned == lists.remaining() as u64);
                    scans += u32::from(scanned > 0);
                    (accesses, rows) = (search.sorted_accesses(), search.scanned_rows());
                },
            );
            assert!(scans > 0, "allowance {allowance} never ran out");
        }
    }

    #[test]
    fn a_fresh_search_at_the_solve_wide_shape_reads_f_about_once() {
        // 200 functions at D = 12, where the knapsack threshold is loose: TA
        // alone needs hundreds of accesses to choose among 200 functions; the
        // default allowance is 200 · 12 / 256 = 9 entries, then one scan.
        let functions = random_functions(200, 12, 1200);
        let lists = FunctionLists::new(&functions);
        let mut rng = StdRng::seed_from_u64(1201);
        let (mut bounded, mut unbounded) = (0, 0);
        for _ in 0..50 {
            let coords: Vec<f64> = (0..12).map(|_| rng.gen_range(0.0..1.0)).collect();
            let object = Point::new(coords).unwrap();
            let mut search = ReverseTopOne::new(object.clone(), 5);
            let answer = search.best(&lists);
            assert_eq!(answer, lists.best_by_scan(&object));
            assert!(search.sorted_accesses() <= 9 && search.scanned_rows() <= 200);
            bounded += search.sorted_accesses() + search.scanned_rows();
            let mut ta = ReverseTopOne::new(object, 5);
            assert_eq!(ta.best_within(&lists, TA_ONLY), answer);
            unbounded += ta.sorted_accesses();
        }
        assert!(
            bounded < unbounded,
            "bounded searches read {bounded} entries, TA alone {unbounded}"
        );
    }

    #[test]
    fn a_re_ask_whose_answer_is_alive_costs_nothing() {
        let functions = random_functions(300, 4, 17);
        let mut lists = FunctionLists::new(&functions);
        let object = Point::from_slice(&[0.3, 0.8, 0.5, 0.1]);
        let mut search = ReverseTopOne::new(object.clone(), 8);
        let costs = |s: &ReverseTopOne| (s.sorted_accesses(), s.scanned_rows(), s.restarts());
        let mut rng = StdRng::seed_from_u64(18);
        // before a fall-back (TA answered), then after one (the scan did)
        for allowance in [TA_ONLY, SCAN_ONLY] {
            let answer = search.best_within(&lists, allowance).unwrap();
            assert_eq!(Some(answer), lists.best_by_scan(&object));
            let before = (costs(&search), search.candidates.clone());
            // everyone else may die, queued candidates included: the answer
            // stands and the state is not touched
            for _ in 0..40 {
                let others: Vec<usize> = lists
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
        assert!(search.scanned_rows() > 0, "the second round fell back");
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
