//! SB — the paper's skyline-based stable assignment algorithm (Sections 4–6),
//! and SB-alt, its storage variant for disk-resident function sets
//! (Section 7.6).
//!
//! The algorithm maintains the skyline `Osky` of the remaining objects; only
//! skyline objects can participate in a stable pair. Each loop outputs the
//! reciprocal pairs between the skyline and the remaining functions, the
//! `(f, o)` that are each other's best; every one satisfies Property 2. The
//! paper finds, for every skyline object, its best remaining function
//! (reverse top-1 search) and then, for every such function, its best
//! skyline object. The default asks the smaller side first, loop by loop:
//! while there are no more remaining functions than skyline objects, every
//! function names its best skyline object and only the objects named get a
//! reverse top-1 search; otherwise it runs the paper's order. Both orders
//! find the same pairs (the `pairing` module says why). Removed skyline
//! objects are handled by the I/O-optimal `UpdateSkyline` module (or, for
//! the ablation baseline, by a DeltaSky-style re-traversal).
//!
//! [`SbOptions`] selects between the default (the smaller side first, a
//! columnar scan finding an object's best function), the paper's
//! fully optimized algorithm (its resumable TA,
//! [`crate::SbSolver::with_omega`]) and the stripped-down
//! variants used in the paper's Figure 8 ablation, enables the
//! two-skyline technique for prioritized functions (Section 6.2), and swaps
//! in SB-alt's batched scan of disk-resident lists
//! ([`BestPairStrategy::Batch`], [`SbOptions::sb_alt`]). Every variant runs
//! the one loop of [`sb_with_skyline`]; they differ only in the modules it
//! calls.

use crate::matching::Assignment;
use crate::metrics::{AssignmentResult, RunMetrics};
use crate::pairing::Pairing;
use crate::problem::{PreferenceFunction, Problem};
use pref_geom::Point;
use pref_rtree::{RTree, RecordId};
use pref_skyline::{compute_skyline_bbs, delta_sky_update, skyline_by_id, update_skyline, Skyline};
use pref_storage::IoStats;
use pref_topk::{
    batch_best_functions, AliveFunctions, DiskFunctionLists, FunctionLists, ReverseTopOne,
    ScanTopOne,
};
use std::time::Instant;

/// How the skyline is maintained after assigned objects are removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceStrategy {
    /// The paper's I/O-optimal incremental algorithm (Algorithm 2).
    UpdateSkyline,
    /// The DeltaSky-style baseline: one constrained root-to-leaf re-traversal
    /// per removed object. Used by the Figure 8 ablation.
    DeltaSky,
}

/// How the best function for each skyline object is located.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BestPairStrategy {
    /// The default. Each loop asks the smaller side first. While there are
    /// no more alive functions than skyline objects, every alive function
    /// names its best skyline object, from the objects it kept since it was
    /// last asked and the ones that joined the skyline since, and only the
    /// objects some function named get a search. Otherwise every skyline
    /// object is searched and only the functions named answer, as in the
    /// paper. A search is one columnar scan of the alive functions, keeping
    /// the best eight rows to answer the object's next searches with no
    /// reads until all of them have been assigned ([`ScanTopOne`]). Its
    /// [`RunMetrics::searches`] are the objects it asks, and its
    /// [`RunMetrics::aux_io`] the rows their scans score.
    Scan,
    /// The paper's resumable TA (Section 5.1, [`ReverseTopOne`]): biased
    /// probing of the sorted coefficient lists, the knapsack threshold, and a
    /// candidate queue capped at `omega_fraction · |F|` that restarts when
    /// the cap runs out. The search of the figures' SB series and of the Ω
    /// sweep; its [`RunMetrics::aux_io`] is the sorted accesses it makes.
    ResumableTa {
        /// Fraction ω of `|F|` used as the candidate-queue capacity.
        omega_fraction: f64,
    },
    /// The paper's TA, fresh per object per loop (no state kept between
    /// loops); the best-pair search of the unoptimized SB variants of Figure
    /// 8. Its [`RunMetrics::aux_io`] is the sorted accesses it makes.
    FreshTa,
    /// The two-skyline technique for prioritized functions (Section 6.2):
    /// only functions on the skyline of the effective weight vectors are
    /// considered, by exhaustive scan.
    TwoSkylines,
    /// SB-alt (Section 7.6): the `D` sorted coefficient lists live on disk,
    /// and one batched scan of them per loop finds the best function of every
    /// skyline object at once. It counts as one search a loop, and the list
    /// blocks it reads, not list entries, are its [`RunMetrics::aux_io`].
    Batch {
        /// LRU buffer (in 4 KiB blocks) in front of the lists; the paper
        /// uses 2% of `|F|`.
        list_buffer_frames: usize,
    },
}

/// Configuration of the SB algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct SbOptions {
    /// Skyline maintenance module.
    pub maintenance: MaintenanceStrategy,
    /// Best-pair search module.
    pub best_pair: BestPairStrategy,
    /// Whether to report every reciprocal pair found in a loop (Section 5.3)
    /// or only the single best pair.
    pub multiple_pairs_per_loop: bool,
    /// Ignored: the solve runs on the calling thread. The field stays only
    /// because the benchmark package still sets it.
    pub threads: Option<usize>,
}

impl Default for SbOptions {
    fn default() -> Self {
        // UpdateSkyline, the scan, every reciprocal pair of a loop; the
        // paper's own configuration is `SbSolver::with_omega(0.025)`
        Self {
            maintenance: MaintenanceStrategy::UpdateSkyline,
            best_pair: BestPairStrategy::Scan,
            multiple_pairs_per_loop: true,
            threads: None,
        }
    }
}

impl SbOptions {
    /// SB-UpdateSkyline of Figure 8: incremental maintenance but no best-pair
    /// or multi-pair optimizations.
    pub fn update_skyline_only() -> Self {
        Self {
            maintenance: MaintenanceStrategy::UpdateSkyline,
            best_pair: BestPairStrategy::FreshTa,
            multiple_pairs_per_loop: false,
            threads: None,
        }
    }

    /// SB-DeltaSky of Figure 8: Algorithm 1 with DeltaSky maintenance.
    pub fn delta_sky() -> Self {
        Self {
            maintenance: MaintenanceStrategy::DeltaSky,
            best_pair: BestPairStrategy::FreshTa,
            multiple_pairs_per_loop: false,
            threads: None,
        }
    }

    /// The two-skyline variant for prioritized functions (Section 6.2).
    pub fn two_skylines() -> Self {
        Self {
            maintenance: MaintenanceStrategy::UpdateSkyline,
            best_pair: BestPairStrategy::TwoSkylines,
            multiple_pairs_per_loop: true,
            threads: None,
        }
    }

    /// SB-alt of Figure 17 (Section 7.6): [`BestPairStrategy::Batch`] over
    /// lists behind a `list_buffer_frames`-block LRU buffer, with
    /// UpdateSkyline maintenance and every reciprocal pair of a loop.
    pub fn sb_alt(list_buffer_frames: usize) -> Self {
        Self {
            maintenance: MaintenanceStrategy::UpdateSkyline,
            best_pair: BestPairStrategy::Batch { list_buffer_frames },
            multiple_pairs_per_loop: true,
            threads: None,
        }
    }
}

/// The state a best-pair search keeps for one object between loops.
#[derive(Clone)]
enum ObjectSearch {
    Scan(ScanTopOne),
    Ta(ReverseTopOne),
}

impl ObjectSearch {
    /// The object's best alive function; the function-index entries the call
    /// reads are added to `aux_reads`.
    fn best(&mut self, index: &FunctionIndex, aux_reads: &mut u64) -> Option<(usize, f64)> {
        let before = self.entries_read();
        let best = match self {
            ObjectSearch::Scan(scan) => scan.best(index.functions()),
            ObjectSearch::Ta(ta) => ta.best(index.ta_lists()),
        };
        *aux_reads += self.entries_read() - before;
        best
    }

    /// Function-index entries read so far: rows scored, or sorted accesses.
    fn entries_read(&self) -> u64 {
        match self {
            ObjectSearch::Scan(scan) => scan.scanned_rows(),
            ObjectSearch::Ta(ta) => ta.sorted_accesses(),
        }
    }

    fn memory_bytes(&self) -> u64 {
        match self {
            ObjectSearch::Scan(scan) => scan.memory_bytes(),
            ObjectSearch::Ta(ta) => ta.memory_bytes(),
        }
    }
}

/// The function index the loop searches, built for what its best-pair
/// strategy reads and nothing more: the alive block alone for the scan and
/// the two-skyline arm, TA's sorted lists over it for the TA arms, and
/// SB-alt's disk-resident lists, which charge the blocks they read.
enum FunctionIndex {
    Block(AliveFunctions),
    Lists(FunctionLists),
    Disk(DiskFunctionLists),
}

impl FunctionIndex {
    fn new(functions: &[PreferenceFunction], best_pair: BestPairStrategy) -> Self {
        let functions = functions.iter().map(|f| &f.function);
        match best_pair {
            BestPairStrategy::Scan | BestPairStrategy::TwoSkylines => {
                FunctionIndex::Block(AliveFunctions::new(functions))
            }
            BestPairStrategy::ResumableTa { .. } | BestPairStrategy::FreshTa => {
                FunctionIndex::Lists(FunctionLists::new(functions))
            }
            BestPairStrategy::Batch { list_buffer_frames } => {
                FunctionIndex::Disk(DiskFunctionLists::new(functions, list_buffer_frames))
            }
        }
    }

    /// The alive functions, whichever index holds them.
    fn functions(&self) -> &AliveFunctions {
        match self {
            FunctionIndex::Block(functions) => functions,
            FunctionIndex::Lists(lists) => lists.functions(),
            FunctionIndex::Disk(disk) => disk.functions(),
        }
    }

    /// TA's sorted lists, which only the TA arms build.
    fn ta_lists(&self) -> &FunctionLists {
        match self {
            FunctionIndex::Lists(lists) => lists,
            _ => unreachable!("only the TA arms search the sorted lists"),
        }
    }

    fn remove(&mut self, fi: usize) {
        match self {
            FunctionIndex::Block(functions) => functions.remove(fi),
            FunctionIndex::Lists(lists) => lists.remove(fi),
            FunctionIndex::Disk(disk) => disk.remove(fi),
        };
    }
}

/// Runs the SB assignment algorithm with the given options.
///
/// The hot path keeps every piece of per-object and per-function state in
/// dense `Vec` slabs indexed by the [`Problem`]'s contiguous tables (via the
/// `RecordId → dense index` map built once at problem construction): remaining
/// capacities, per-object search states, exclusion flags and the per-loop argmax
/// results all live in flat arrays, and the per-loop argmax slabs are
/// invalidated with a loop stamp instead of being cleared. A skyline row's
/// point is read from the problem's object table by its dense index; only
/// SB-alt copies points, for its batched scan. Every function-index entry a
/// best-pair search reads — a sorted access of a TA search, a row scored by
/// a scan — is charged to [`RunMetrics::aux_io`], the paper's cost model
/// extended to the scans; under [`BestPairStrategy::Batch`] it is the list
/// blocks read instead.
pub fn sb(problem: &Problem, tree: &mut RTree, options: &SbOptions) -> AssignmentResult {
    sb_with_skyline(problem, tree, options).0
}

/// [`sb`], also handing back the skyline it ends with, for callers that keep
/// going where the solve stopped (the streaming engine adopts it instead of
/// re-deriving it). Every exhausted object has been removed from it and the
/// maintenance module has run after the last commit, so it is the skyline of
/// the objects that still have capacity; under
/// [`MaintenanceStrategy::UpdateSkyline`] its pruned lists cover every such
/// object that is off the skyline, ready for further `update_skyline` calls
/// on the same `tree`.
pub fn sb_with_skyline(
    problem: &Problem,
    tree: &mut RTree,
    options: &SbOptions,
) -> (AssignmentResult, Skyline) {
    let start = Instant::now();
    let stats_before = tree.stats();

    let mut index = FunctionIndex::new(problem.functions(), options.best_pair);

    let n_fun = problem.num_functions();
    let n_obj = problem.num_objects();
    let objects = problem.objects();

    // remaining capacities (dense index) and their totals
    let mut f_remaining: Vec<u32> = problem.functions().iter().map(|f| f.capacity).collect();
    let mut o_remaining: Vec<u32> = problem.objects().iter().map(|o| o.capacity).collect();
    let mut demand: u64 = f_remaining.iter().map(|&c| c as u64).sum();
    let mut supply: u64 = o_remaining.iter().map(|&c| c as u64).sum();
    // the Scan and ResumableTa arms' per-object states, by dense index
    let mut states: Vec<Option<ObjectSearch>> = vec![None; n_obj];
    let new_state = |point: &Point| match options.best_pair {
        BestPairStrategy::ResumableTa { omega_fraction } => {
            let omega = (omega_fraction * n_fun as f64).ceil() as usize;
            ObjectSearch::Ta(ReverseTopOne::new(point.clone(), omega))
        }
        _ => ObjectSearch::Scan(ScanTopOne::new(point.clone())),
    };
    let mut excluded: Vec<bool> = vec![false; n_obj];
    // dense index of each row of the current loop's skyline block
    let mut sky_rows: Vec<usize> = Vec::new();

    let mut skyline: Skyline = compute_skyline_bbs(tree);

    let mut pairing = Pairing::new(n_fun, n_obj);
    let mut assignment = Assignment::new();
    let mut peak_memory_bytes: u64 = 0;
    let mut loops: u64 = 0;
    let mut searches: u64 = 0;
    let mut aux_reads: u64 = 0;

    while demand > 0 && supply > 0 && !skyline.is_empty() {
        loops += 1;
        pairing.begin_loop();

        sky_rows.clear();
        sky_rows.extend((0..skyline.len()).map(|row| {
            problem
                .object_index(skyline.record_at(row))
                .expect("skyline records are problem objects")
        }));

        // The scan asks the smaller side first, the function side unless the
        // skyline has fewer rows than there are alive functions; the paper's
        // arms search every skyline object first. Both orders find the same
        // pairs (see `pairing`).
        let functions_first = options.best_pair == BestPairStrategy::Scan
            && index.functions().remaining() <= skyline.len();
        if functions_first {
            // --- best skyline object for every alive function ---------------
            let functions = index.functions();
            for &fi in functions.rows() {
                pairing.function_best(
                    fi,
                    skyline.block(),
                    &sky_rows,
                    objects,
                    &excluded,
                    functions,
                );
            }
            // --- best function for every object some function picked --------
            pairing.ask_picked(|oi| {
                searches += 1;
                states[oi]
                    .get_or_insert_with(|| new_state(&objects[oi].point))
                    .best(&index, &mut aux_reads)
            });
        } else {
            // --- best function for every skyline object ---------------------
            // SB-alt answers the whole skyline with one batched scan, which
            // needs the query points as one owned slice
            let batch_best: Option<Vec<Option<(usize, f64)>>> = match &mut index {
                FunctionIndex::Disk(disk) => {
                    searches += 1;
                    let points: Vec<Point> = sky_rows
                        .iter()
                        .map(|&oi| objects[oi].point.clone())
                        .collect();
                    Some(batch_best_functions(disk, &points))
                }
                _ => None,
            };
            let functions = index.functions();
            // candidate function set for the two-skyline strategy: a function
            // leaves only when a lower index, which wins every exact tie, weakly
            // dominates its effective weights; ascending, so that the scan below
            // resolves exact score ties to the lowest function index
            let function_skyline: Option<Vec<usize>> = match options.best_pair {
                BestPairStrategy::TwoSkylines => {
                    let alive: Vec<(RecordId, Point)> = functions
                        .alive_functions()
                        .into_iter()
                        .map(|i| {
                            let weights = Point::new(functions.weights(i).collect())
                                .expect("effective weights are finite");
                            (RecordId(i as u64), weights)
                        })
                        .collect();
                    Some(
                        skyline_by_id(&alive)
                            .into_iter()
                            .map(|r| r.0 as usize)
                            .collect(),
                    )
                }
                _ => None,
            };

            let mut any_best = false;
            for (j, &oi) in sky_rows.iter().enumerate() {
                let point = &objects[oi].point;
                if batch_best.is_none() {
                    searches += 1;
                }
                let best = match options.best_pair {
                    BestPairStrategy::Scan | BestPairStrategy::ResumableTa { .. } => states[oi]
                        .get_or_insert_with(|| new_state(point))
                        .best(&index, &mut aux_reads),
                    BestPairStrategy::FreshTa => {
                        let mut state = ReverseTopOne::new(point.clone(), n_fun);
                        let best = state.best(index.ta_lists());
                        aux_reads += state.sorted_accesses();
                        best
                    }
                    BestPairStrategy::TwoSkylines => {
                        let candidates = function_skyline.as_deref().expect("computed above");
                        let mut best: Option<(usize, f64)> = None;
                        for &fi in candidates {
                            if !functions.is_alive(fi) {
                                continue;
                            }
                            aux_reads += 1;
                            let s = functions.score(fi, point);
                            // candidates are sorted ascending: strict `>` keeps
                            // the lowest function index on exact ties
                            if best.is_none_or(|(_, bs)| s > bs) {
                                best = Some((fi, s));
                            }
                        }
                        best
                    }
                    BestPairStrategy::Batch { .. } => {
                        batch_best.as_ref().expect("computed above")[j]
                    }
                };
                match best {
                    Some((fi, score)) => {
                        pairing.note_best(oi, fi, score);
                        any_best = true;
                    }
                    None => break, // no functions remain
                }
            }
            if !any_best {
                break;
            }
            // --- best skyline object for every candidate function -----------
            pairing.answer_candidates(skyline.block(), &sky_rows, objects, &excluded, functions);
        }

        // --- reciprocal pairs (see `pairing`) -------------------------------
        let mut pairs = pairing.reciprocal_pairs();
        if pairs.is_empty() {
            break;
        }
        if !options.multiple_pairs_per_loop {
            pairs.truncate(1);
        }

        // --- assign and update capacities -----------------------------------
        let mut removed_objects = Vec::new();
        for (fi, oi, score) in pairs {
            if demand == 0 || supply == 0 {
                break;
            }
            let record = objects[oi].id;
            assignment.push(problem.functions()[fi].id, record, score);
            demand -= 1;
            supply -= 1;
            f_remaining[fi] -= 1;
            if f_remaining[fi] == 0 {
                index.remove(fi);
            }
            o_remaining[oi] -= 1;
            if o_remaining[oi] == 0 {
                excluded[oi] = true;
                states[oi] = None;
                if let Some(sky_obj) = skyline.remove(record) {
                    removed_objects.push(sky_obj);
                }
            }
        }

        // --- skyline maintenance ---------------------------------------------
        // Both modules only append rows: the ones from `before` on are the
        // loop's entrants, which the pairing step offers its functions.
        if !removed_objects.is_empty() {
            let before = skyline.len();
            match options.maintenance {
                MaintenanceStrategy::UpdateSkyline => {
                    update_skyline(tree, &mut skyline, removed_objects)
                }
                MaintenanceStrategy::DeltaSky => {
                    delta_sky_update(tree, &mut skyline, removed_objects, &|r: RecordId| {
                        problem.object_index(r).is_some_and(|i| excluded[i])
                    })
                }
            }
            for row in before..skyline.len() {
                let oi = problem
                    .object_index(skyline.record_at(row))
                    .expect("skyline records are problem objects");
                pairing.note_entrant(oi);
            }
        }

        // --- memory accounting ----------------------------------------------
        // A state exists only for an object that was on this loop's skyline:
        // it is dropped when its object is exhausted, and this loop's
        // entrants have not been searched yet — |S| slots to visit, not |O|.
        // SB-alt keeps none, so its memory is the skyline's alone.
        let search_mem: u64 = sky_rows
            .iter()
            .filter_map(|&oi| states[oi].as_ref())
            .map(ObjectSearch::memory_bytes)
            .sum();
        peak_memory_bytes = peak_memory_bytes.max(skyline.memory_bytes() + search_mem);
    }

    let metrics = RunMetrics {
        object_io: tree.stats().since(&stats_before),
        aux_io: match &index {
            // SB-alt's list blocks, through the LRU buffer
            FunctionIndex::Disk(disk) => disk.stats(),
            // the paper's cost model charges the searches' reads of the
            // function index as auxiliary I/O (it has no buffer in front)
            _ => IoStats {
                logical_reads: aux_reads,
                physical_reads: aux_reads,
                ..IoStats::default()
            },
        },
        cpu_time: start.elapsed(),
        peak_memory_bytes,
        loops,
        searches,
    };
    let result = AssignmentResult {
        assignment,
        metrics,
    };
    (result, skyline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::verify_stable;
    use crate::oracle::oracle;
    use crate::problem::{ObjectRecord, PreferenceFunction};
    use crate::solver::all_solvers;
    use pref_datagen::{
        anti_correlated_objects, correlated_objects, independent_objects, random_priorities,
        uniform_weight_functions,
    };
    use pref_geom::LinearFunction;

    fn figure1_problem() -> Problem {
        Problem::new(
            vec![
                PreferenceFunction::new(0, LinearFunction::new(vec![0.8, 0.2]).unwrap()),
                PreferenceFunction::new(1, LinearFunction::new(vec![0.2, 0.8]).unwrap()),
                PreferenceFunction::new(2, LinearFunction::new(vec![0.5, 0.5]).unwrap()),
            ],
            vec![
                ObjectRecord::new(0, Point::from_slice(&[0.5, 0.6])),
                ObjectRecord::new(1, Point::from_slice(&[0.2, 0.7])),
                ObjectRecord::new(2, Point::from_slice(&[0.8, 0.2])),
                ObjectRecord::new(3, Point::from_slice(&[0.4, 0.4])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn solves_the_paper_example_with_every_variant() {
        let p = figure1_problem();
        for solver in all_solvers() {
            let mut tree = p.build_tree(None, 0.0);
            let result = solver.solve(&p, &mut tree);
            verify_stable(&p, &result.assignment).unwrap();
            assert_eq!(
                result.assignment.canonical(),
                oracle(&p).canonical(),
                "{}",
                solver.name()
            );
        }
    }

    #[test]
    fn matches_oracle_on_random_instances_all_variants() {
        // the last three have more functions than objects, SB-alt's case
        let instances = [
            (
                uniform_weight_functions(60, 3, 71),
                independent_objects(300, 3, 171),
            ),
            (
                uniform_weight_functions(60, 3, 72),
                independent_objects(300, 3, 172),
            ),
            (
                uniform_weight_functions(150, 3, 201),
                independent_objects(80, 3, 211),
            ),
            (
                uniform_weight_functions(150, 3, 202),
                independent_objects(80, 3, 212),
            ),
            (
                uniform_weight_functions(200, 4, 211),
                anti_correlated_objects(100, 4, 212),
            ),
        ];
        for (functions, objects) in instances {
            let p = Problem::from_parts(functions, objects).unwrap();
            let want = oracle(&p).canonical();
            for solver in all_solvers() {
                let mut tree = p.build_tree(Some(16), 0.02);
                let result = solver.solve(&p, &mut tree);
                verify_stable(&p, &result.assignment).unwrap();
                assert_eq!(result.assignment.canonical(), want, "{}", solver.name());
            }
        }
    }

    #[test]
    fn matches_oracle_on_correlated_and_anti_correlated_data() {
        let functions = uniform_weight_functions(50, 4, 81);
        for objects in [
            correlated_objects(250, 4, 82),
            anti_correlated_objects(250, 4, 83),
        ] {
            let p = Problem::from_parts(functions.clone(), objects).unwrap();
            let mut tree = p.build_tree(Some(16), 0.02);
            let result = sb(&p, &mut tree, &SbOptions::default());
            verify_stable(&p, &result.assignment).unwrap();
            assert_eq!(result.assignment.canonical(), oracle(&p).canonical());
        }
    }

    #[test]
    fn more_functions_than_objects() {
        let functions = uniform_weight_functions(80, 3, 91);
        let objects = independent_objects(25, 3, 92);
        let p = Problem::from_parts(functions, objects).unwrap();
        let mut tree = p.build_tree(Some(8), 0.0);
        let result = sb(&p, &mut tree, &SbOptions::default());
        assert_eq!(result.assignment.len(), 25);
        verify_stable(&p, &result.assignment).unwrap();
    }

    #[test]
    fn capacitated_functions_and_objects() {
        // (seed, functions, their capacity cycle, objects, their capacity)
        let instances = [(93, 25, 4, 120, None), (231, 40, 3, 30, Some(2))];
        for (seed, n_fun, f_cycle, n_obj, o_capacity) in instances {
            let functions: Vec<PreferenceFunction> = uniform_weight_functions(n_fun, 3, seed)
                .into_iter()
                .enumerate()
                .map(|(i, f)| PreferenceFunction::new(i, f).with_capacity(1 + (i as u32 % f_cycle)))
                .collect();
            let objects: Vec<ObjectRecord> = independent_objects(n_obj, 3, seed + 1)
                .into_iter()
                .map(|(id, p)| ObjectRecord {
                    id,
                    point: p,
                    capacity: o_capacity.unwrap_or(1 + (id.0 as u32 % 3)),
                })
                .collect();
            let p = Problem::new(functions, objects).unwrap();
            let want = oracle(&p).canonical();
            for solver in all_solvers() {
                let mut tree = p.build_tree(Some(8), 0.0);
                let result = solver.solve(&p, &mut tree);
                verify_stable(&p, &result.assignment).unwrap();
                assert_eq!(result.assignment.canonical(), want, "{}", solver.name());
            }
        }
    }

    #[test]
    fn prioritized_assignment_standard_and_two_skyline_agree() {
        let base = uniform_weight_functions(40, 3, 95);
        let prioritized = random_priorities(&base, 4, 96);
        let objects = independent_objects(200, 3, 97);
        let functions: Vec<PreferenceFunction> = prioritized
            .into_iter()
            .enumerate()
            .map(|(i, f)| PreferenceFunction::new(i, f))
            .collect();
        let objects: Vec<ObjectRecord> = objects
            .into_iter()
            .map(|(id, p)| ObjectRecord {
                id,
                point: p,
                capacity: 1,
            })
            .collect();
        let p = Problem::new(functions, objects).unwrap();
        assert!(p.has_priorities());
        let want = oracle(&p).canonical();
        for opts in [SbOptions::default(), SbOptions::two_skylines()] {
            let mut tree = p.build_tree(Some(12), 0.02);
            let result = sb(&p, &mut tree, &opts);
            verify_stable(&p, &result.assignment).unwrap();
            assert_eq!(result.assignment.canonical(), want, "variant {opts:?}");
        }
    }

    /// Two functions one ulp apart tie exactly on the object; the lower
    /// index wins the tie, so the higher one's dominating weights must not
    /// prune it from the two-skyline candidates.
    #[test]
    fn two_skylines_keeps_a_dominated_function_that_wins_a_tie() {
        let w: [f64; 2] = [0.5, 0.5];
        let f0 = LinearFunction::from_normalized(w.to_vec()).unwrap();
        let f1 = LinearFunction::from_normalized(w.map(f64::next_up).to_vec()).unwrap();
        let o = Point::from_slice(&[0.3, 0.7]);
        assert_eq!(f0.score(&o).to_bits(), f1.score(&o).to_bits());
        let p = Problem::new(
            vec![
                PreferenceFunction::new(0, f0),
                PreferenceFunction::new(1, f1),
            ],
            vec![ObjectRecord::new(0, o)],
        )
        .unwrap();
        let want = oracle(&p).canonical();
        let mut tree = p.build_tree(None, 0.0);
        let result = sb(&p, &mut tree, &SbOptions::two_skylines());
        assert_eq!(result.assignment.canonical(), want);
    }

    /// 601 functions that all score exactly 0.5 on the one object: f0 =
    /// (0.5, 0.5), then `0.5 ± i/2048` for i = 1..=300 and their mirror
    /// images. f0 is entry 300 of both coefficient lists, past a first block
    /// that already bounds every unseen score by the tie, and every solver
    /// must still give the object to f0.
    #[test]
    fn a_tie_across_list_blocks_goes_to_the_lowest_function() {
        let tilted = |w0: f64| LinearFunction::from_normalized(vec![w0, 1.0 - w0]).unwrap();
        let steps = || (1..=300).map(|i| f64::from(i) / 2048.0);
        let functions: Vec<PreferenceFunction> = std::iter::once(tilted(0.5))
            .chain(steps().map(|a| tilted(0.5 + a)))
            .chain(steps().map(|a| tilted(0.5 - a)))
            .enumerate()
            .map(|(i, f)| PreferenceFunction::new(i, f))
            .collect();
        let object = ObjectRecord::new(0, Point::from_slice(&[0.5, 0.5]));
        let p = Problem::new(functions, vec![object]).unwrap();
        let want = oracle(&p).canonical();
        assert_eq!(want, vec![(0, 0, 500_000_000)]);
        for solver in all_solvers() {
            let mut tree = p.build_tree(None, 0.0);
            let result = solver.solve(&p, &mut tree);
            assert_eq!(result.assignment.canonical(), want, "{}", solver.name());
        }
    }

    #[test]
    fn sb_uses_less_io_than_brute_force() {
        let functions = uniform_weight_functions(100, 3, 98);
        let objects = anti_correlated_objects(2000, 3, 99);
        let p = Problem::from_parts(functions, objects).unwrap();
        let mut tree_sb = p.build_tree(Some(32), 0.02);
        let mut tree_bf = p.build_tree(Some(32), 0.02);
        let sb_result = sb(&p, &mut tree_sb, &SbOptions::default());
        let bf_result = crate::brute::brute_force(&p, &mut tree_bf);
        assert_eq!(
            sb_result.assignment.canonical(),
            bf_result.assignment.canonical()
        );
        assert!(
            sb_result.metrics.object_io.io_accesses() * 3
                < bf_result.metrics.object_io.io_accesses(),
            "SB {} vs Brute Force {}",
            sb_result.metrics.object_io.io_accesses(),
            bf_result.metrics.object_io.io_accesses()
        );
    }

    #[test]
    fn multiple_pairs_per_loop_reduces_loop_count() {
        let functions = uniform_weight_functions(80, 3, 101);
        let objects = independent_objects(500, 3, 102);
        let p = Problem::from_parts(functions, objects).unwrap();
        let mut tree_multi = p.build_tree(Some(16), 0.02);
        let mut tree_single = p.build_tree(Some(16), 0.02);
        let multi = sb(&p, &mut tree_multi, &SbOptions::default());
        let single = sb(
            &p,
            &mut tree_single,
            &SbOptions {
                multiple_pairs_per_loop: false,
                ..SbOptions::default()
            },
        );
        assert_eq!(multi.assignment.canonical(), single.assignment.canonical());
        assert!(multi.metrics.loops <= single.metrics.loops);
    }

    /// Anti-correlated data keeps the skyline large and uncovers new skyline
    /// objects every loop, so functions offer many entrants to the objects
    /// they kept and rescan when every kept one is exhausted (debug builds
    /// check each against a full argmax).
    #[test]
    fn a_solve_with_many_entrants_matches_the_oracle() {
        let functions = uniform_weight_functions(200, 3, 301);
        let objects = anti_correlated_objects(800, 3, 302);
        let p = Problem::from_parts(functions, objects).unwrap();
        let want = oracle(&p).canonical();
        for opts in [SbOptions::default(), SbOptions::sb_alt(8)] {
            let mut tree = p.build_tree(Some(16), 0.02);
            let result = sb(&p, &mut tree, &opts);
            verify_stable(&p, &result.assignment).unwrap();
            assert_eq!(result.assignment.canonical(), want, "{opts:?}");
            assert!(result.metrics.loops > 20, "{} loops", result.metrics.loops);
        }
    }

    /// The default loop asks every alive function for its best skyline
    /// object first and searches only the objects some function picked: at
    /// most one search per alive function a loop, far fewer than the paper's
    /// TA makes over the whole skyline, and the same loops and matching.
    /// Debug builds check every function answer against a full argmax over
    /// the skyline.
    #[test]
    fn the_scan_asks_only_objects_a_function_picked() {
        // `cost_counters.rs`'s `solve-anti` in miniature
        let n_fun = 150;
        let p = Problem::from_parts(
            uniform_weight_functions(n_fun, 4, 20_090_824),
            anti_correlated_objects(3000, 4, 20_090_825),
        )
        .unwrap();
        let solve = |options: &SbOptions| {
            let mut tree = p.build_tree(None, 0.02);
            sb(&p, &mut tree, options)
        };
        let scan = solve(&SbOptions::default());
        let ta = solve(&crate::SbSolver::with_omega(0.025).options);
        assert_eq!(scan.metrics.loops, ta.metrics.loops);
        assert_eq!(scan.metrics.object_io, ta.metrics.object_io);
        assert_eq!(scan.assignment.canonical(), ta.assignment.canonical());
        // unit capacities and at least one pair a loop: loop `l`, from 0,
        // starts with at most `n_fun - l` alive functions
        let answers: u64 = (0..scan.metrics.loops).map(|l| n_fun as u64 - l).sum();
        let searches = scan.metrics.searches;
        assert!(
            searches <= answers,
            "{searches} searches, at most {answers} function answers"
        );
        assert!(
            searches < ta.metrics.searches,
            "scan {searches} vs TA {} searches",
            ta.metrics.searches
        );
    }

    /// Correlated objects keep the skyline to a few dozen rows. With more
    /// alive functions than that in every loop, the default searches every
    /// skyline object first, exactly as the paper's TA does, and asks only
    /// the functions some object named.
    #[test]
    fn the_scan_searches_a_smaller_skyline_first() {
        let functions: Vec<PreferenceFunction> = uniform_weight_functions(400, 4, 311)
            .into_iter()
            .enumerate()
            .map(|(i, f)| PreferenceFunction::new(i, f).with_capacity(8))
            .collect();
        let objects: Vec<ObjectRecord> = correlated_objects(2000, 4, 312)
            .into_iter()
            .map(|(id, point)| ObjectRecord::new(id.0, point))
            .collect();
        let p = Problem::new(functions, objects).unwrap();
        let solve = |options: &SbOptions| {
            let mut tree = p.build_tree(None, 0.02);
            sb(&p, &mut tree, options)
        };
        let scan = solve(&SbOptions::default());
        let ta = solve(&crate::SbSolver::with_omega(0.025).options);
        assert_eq!(scan.metrics.loops, ta.metrics.loops);
        assert_eq!(scan.metrics.object_io, ta.metrics.object_io);
        assert_eq!(scan.assignment.canonical(), ta.assignment.canonical());
        assert_eq!(scan.metrics.searches, ta.metrics.searches);
    }

    #[test]
    fn metrics_are_populated() {
        let functions = uniform_weight_functions(30, 3, 103);
        let objects = independent_objects(400, 3, 104);
        let p = Problem::from_parts(functions, objects).unwrap();
        let mut tree = p.build_tree(Some(16), 0.02);
        let result = sb(&p, &mut tree, &SbOptions::default());
        assert!(result.metrics.object_io.logical_reads > 0);
        assert!(result.metrics.loops > 0);
        assert!(result.metrics.searches > 0);
        assert!(result.metrics.peak_memory_bytes > 0);
        // the default scan must charge the rows it scores
        assert!(
            result.metrics.aux_io.io_accesses() > 0,
            "Scan must report its scored rows as aux I/O"
        );
        assert!(result.metrics.total_io() > result.metrics.object_io.io_accesses());
    }

    #[test]
    fn fresh_ta_charges_aux_io_per_loop() {
        let functions = uniform_weight_functions(30, 3, 105);
        let objects = independent_objects(200, 3, 106);
        let p = Problem::from_parts(functions, objects).unwrap();
        let mut tree_fresh = p.build_tree(Some(16), 0.02);
        let mut tree_resume = p.build_tree(Some(16), 0.02);
        let fresh = sb(&p, &mut tree_fresh, &SbOptions::update_skyline_only());
        let paper = crate::SbSolver::with_omega(0.025).options;
        let resume = sb(&p, &mut tree_resume, &paper);
        assert!(fresh.metrics.aux_io.io_accesses() > 0);
        // restarting every search from scratch costs more sorted accesses
        // than resuming — the very point of the paper's Section 5.1
        assert!(
            fresh.metrics.aux_io.io_accesses() > resume.metrics.aux_io.io_accesses(),
            "FreshTa {} vs ResumableTa {}",
            fresh.metrics.aux_io.io_accesses(),
            resume.metrics.aux_io.io_accesses()
        );
        // the scan charges the rows it scores: all alive functions when it
        // scans, none when a re-ask or a kept row answers
        let mut tree_scan = p.build_tree(Some(16), 0.02);
        let scan = sb(&p, &mut tree_scan, &SbOptions::default());
        let (rows, searches) = (scan.metrics.aux_io.io_accesses(), scan.metrics.searches);
        assert!(
            0 < rows && rows < searches * 30,
            "{rows} rows over {searches} searches of at most 30 functions"
        );
    }

    #[test]
    fn charges_list_io_as_aux() {
        let functions = uniform_weight_functions(3000, 3, 221);
        let objects = independent_objects(60, 3, 222);
        let p = Problem::from_parts(functions, objects).unwrap();
        let mut tree = p.build_tree(Some(8), 0.0);
        let result = sb(&p, &mut tree, &SbOptions::sb_alt(8));
        assert!(result.metrics.aux_io.logical_reads > 0);
        assert!(result.metrics.total_io() >= result.metrics.aux_io.io_accesses());
        // one batched scan answers a loop's whole skyline
        assert_eq!(result.metrics.searches, result.metrics.loops);
        verify_stable(&p, &result.assignment).unwrap();
    }
}
