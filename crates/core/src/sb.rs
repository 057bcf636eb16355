//! SB — the paper's skyline-based stable assignment algorithm (Sections 4–6).
//!
//! The algorithm maintains the skyline `Osky` of the remaining objects; only
//! skyline objects can participate in a stable pair. Each loop finds, for
//! every skyline object, its best remaining function (reverse top-1 search)
//! and, for every such function, its best skyline object; every reciprocal
//! pair satisfies Property 2 and is output. Removed skyline objects are
//! handled by the I/O-optimal `UpdateSkyline` module (or, for the ablation
//! baseline, by a DeltaSky-style re-traversal).
//!
//! [`SbOptions`] selects between the fully optimized algorithm and the
//! stripped-down variants used in the paper's Figure 8 ablation, and enables
//! the two-skyline technique for prioritized functions (Section 6.2).

use crate::metrics::{AssignmentResult, MemoryGauge, RunMetrics};
use crate::problem::Problem;
use crate::scaffold::StableLoop;
use pref_geom::Point;
use pref_rtree::{RTree, RecordId};
use pref_skyline::{compute_skyline_bbs, delta_sky_update, skyline_sfs, update_skyline, Skyline};
use pref_storage::IoStats;
use pref_topk::{FunctionLists, ReverseTopOne};
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
    /// Resumable TA with biased probing and a candidate queue capped at
    /// `omega_fraction · |F|` (the fully optimized search of Section 5.1),
    /// under [`ReverseTopOne`]'s cost bound: a search that has not answered
    /// within its allowance of list entries scores the alive functions once
    /// and serves the following calls from the queue.
    ResumableTa {
        /// Fraction ω of `|F|` used as the candidate-queue capacity.
        omega_fraction: f64,
    },
    /// A fresh search per object per loop (no state kept between loops, same
    /// cost bound); the best-pair search used by the unoptimized SB variants
    /// of Figure 8.
    FreshTa,
    /// Exhaustive scan of all remaining functions per skyline object.
    ExhaustiveScan,
    /// The two-skyline technique for prioritized functions (Section 6.2):
    /// only functions on the skyline of the effective weight vectors are
    /// considered, by exhaustive scan.
    TwoSkylines,
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
    /// Worker threads for the reciprocal-pair scoring phase. `None` resolves
    /// via [`pref_sync::resolve_threads`] (the `PREF_THREADS` environment
    /// variable, then available parallelism; always 1 in model-capable
    /// builds). The matching is canonical-identical at any thread count.
    pub threads: Option<usize>,
}

impl Default for SbOptions {
    fn default() -> Self {
        // the fully optimized SB used in the experiments (Ω = 2.5% · |F|)
        Self {
            maintenance: MaintenanceStrategy::UpdateSkyline,
            best_pair: BestPairStrategy::ResumableTa {
                omega_fraction: 0.025,
            },
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
}

/// Runs the SB assignment algorithm with the given options.
///
/// The hot path keeps every piece of per-object and per-function state in
/// dense `Vec` slabs indexed by the [`Problem`]'s contiguous tables (via the
/// `RecordId → dense index` map built once at problem construction): remaining
/// capacities, resumable TA states, exclusion flags and the per-loop argmax
/// results all live in flat arrays, and the per-loop argmax slabs are
/// invalidated with a loop stamp instead of being cleared. Skyline points are
/// read through borrowed [`Skyline::entry_views`] — nothing is cloned per
/// loop. Every function-index entry a best-pair search reads — a sorted
/// access of a TA search, a row scored by a scan — is charged to
/// [`RunMetrics::aux_io`], the paper's cost model extended to the scans.
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

    let functions: Vec<pref_geom::LinearFunction> = problem
        .functions()
        .iter()
        .map(|f| f.function.clone())
        .collect();
    let mut lists = FunctionLists::new(&functions);
    // Columnar scoring rows for the pairing phase (clone-cheap Arc view) and
    // the optional worker pool; `resolve_threads` pins model-capable builds
    // to 1 so solver-internal threads never leak into model scenarios.
    let score_table = lists.score_table();
    let threads = pref_sync::resolve_threads(options.threads);
    let pool = (threads > 1).then(|| pref_sync::WorkStealingPool::with_threads(threads));
    let omega = match options.best_pair {
        BestPairStrategy::ResumableTa { omega_fraction } => {
            ((omega_fraction * problem.num_functions() as f64).ceil() as usize).max(1)
        }
        _ => problem.num_functions().max(1),
    };

    let n_fun = problem.num_functions();
    let n_obj = problem.num_objects();

    // solver-specific per-object search state, indexed by the dense index
    let mut ta_states: Vec<Option<ReverseTopOne>> = vec![None; n_obj];
    let mut excluded: Vec<bool> = vec![false; n_obj];
    // dense indices of the current loop's skyline, for the memory accounting
    let mut sky_rows: Vec<usize> = Vec::new();

    let mut skyline: Skyline = compute_skyline_bbs(tree);

    let mut state = StableLoop::new(problem);
    let mut gauge = MemoryGauge::new();
    let mut searches: u64 = 0;
    let mut aux_reads: u64 = 0;

    while state.active(&skyline) {
        let stamp = state.begin_loop();

        // --- best function for every skyline object -------------------------
        // Borrowed entry views: (dense index, record, &point), no cloning.
        let sky_views: Vec<(usize, RecordId, &Point)> = state.sky_views(problem, &skyline);
        sky_rows.clear();
        sky_rows.extend(sky_views.iter().map(|&(oi, ..)| oi));
        // candidate function set for the two-skyline strategy, sorted so that
        // exact score ties resolve to the lowest function index
        let function_skyline: Option<Vec<usize>> = match options.best_pair {
            BestPairStrategy::TwoSkylines => {
                let alive: Vec<(RecordId, Point)> = lists
                    .alive_functions()
                    .into_iter()
                    .map(|i| {
                        (
                            RecordId(i as u64),
                            Point::from_slice(lists.effective_weights(i)),
                        )
                    })
                    .collect();
                let mut sky_fns: Vec<usize> = skyline_sfs(&alive)
                    .into_iter()
                    .map(|r| r.0 as usize)
                    .collect();
                sky_fns.sort_unstable();
                Some(sky_fns)
            }
            _ => None,
        };

        let mut any_best = false;
        for &(oi, _, point) in &sky_views {
            searches += 1;
            let best = match options.best_pair {
                BestPairStrategy::ResumableTa { .. } => {
                    let state = ta_states[oi]
                        .get_or_insert_with(|| ReverseTopOne::new(point.clone(), omega));
                    let before = state.sorted_accesses() + state.scanned_rows();
                    let best = state.best(&lists);
                    aux_reads += state.sorted_accesses() + state.scanned_rows() - before;
                    best
                }
                BestPairStrategy::FreshTa => {
                    let mut state = ReverseTopOne::new(point.clone(), n_fun);
                    let best = state.best(&lists);
                    aux_reads += state.sorted_accesses() + state.scanned_rows();
                    best
                }
                BestPairStrategy::ExhaustiveScan => {
                    aux_reads += lists.remaining() as u64;
                    lists.best_by_scan(point)
                }
                BestPairStrategy::TwoSkylines => {
                    let candidates = function_skyline.as_deref().expect("computed above");
                    let mut best: Option<(usize, f64)> = None;
                    for &fi in candidates {
                        if !lists.is_alive(fi) {
                            continue;
                        }
                        aux_reads += 1;
                        let s = lists.score(fi, point);
                        // candidates are sorted ascending: strict `>` keeps
                        // the lowest function index on exact ties
                        if best.is_none_or(|(_, bs)| s > bs) {
                            best = Some((fi, s));
                        }
                    }
                    best
                }
            };
            match best {
                Some((fi, score)) => {
                    state.note_best(stamp, oi, fi, score);
                    any_best = true;
                }
                None => break, // no functions remain
            }
        }
        if !any_best {
            break;
        }

        // --- reciprocal pairs (shared with sb_alt, see `pairing`) -----------
        let mut pairs = state.reciprocal_pairs(stamp, &sky_views, &score_table, pool.as_ref());
        if pairs.is_empty() {
            break;
        }
        if !options.multiple_pairs_per_loop {
            pairs.truncate(1);
        }

        // --- assign and update capacities -----------------------------------
        let removed_objects = state.commit(
            problem,
            pairs,
            &mut skyline,
            |fi| {
                lists.remove(fi);
            },
            |oi| {
                excluded[oi] = true;
                ta_states[oi] = None;
            },
        );

        // --- skyline maintenance ---------------------------------------------
        if !removed_objects.is_empty() {
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
        }

        // --- memory accounting ----------------------------------------------
        // A state exists only for an object that was on this loop's skyline:
        // it is dropped when its object is exhausted, and this loop's
        // entrants have not been searched yet — |S| slots to visit, not |O|.
        let ta_mem: u64 = sky_rows
            .iter()
            .filter_map(|&oi| ta_states[oi].as_ref())
            .map(ReverseTopOne::memory_bytes)
            .sum();
        gauge.observe(skyline.memory_bytes() + ta_mem);
    }

    let metrics = RunMetrics {
        object_io: tree.stats().since(&stats_before),
        // the paper's cost model charges the searches' reads of the function
        // index as auxiliary I/O (it has no buffer in front)
        aux_io: IoStats {
            logical_reads: aux_reads,
            physical_reads: aux_reads,
            ..IoStats::default()
        },
        cpu_time: start.elapsed(),
        peak_memory_bytes: gauge.peak(),
        loops: state.loops,
        searches,
    };
    let result = AssignmentResult {
        assignment: state.assignment,
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

    fn all_option_sets() -> Vec<SbOptions> {
        vec![
            SbOptions::default(),
            SbOptions::update_skyline_only(),
            SbOptions::delta_sky(),
            SbOptions {
                maintenance: MaintenanceStrategy::UpdateSkyline,
                best_pair: BestPairStrategy::ExhaustiveScan,
                ..SbOptions::default()
            },
        ]
    }

    #[test]
    fn solves_the_paper_example_with_every_variant() {
        let p = figure1_problem();
        for opts in all_option_sets() {
            let mut tree = p.build_tree(None, 0.0);
            let result = sb(&p, &mut tree, &opts);
            verify_stable(&p, &result.assignment).unwrap();
            assert_eq!(
                result.assignment.canonical(),
                oracle(&p).canonical(),
                "variant {opts:?}"
            );
        }
    }

    #[test]
    fn matches_oracle_on_random_instances_all_variants() {
        for seed in [71u64, 72] {
            let functions = uniform_weight_functions(60, 3, seed);
            let objects = independent_objects(300, 3, seed + 100);
            let p = Problem::from_parts(functions, objects).unwrap();
            let want = oracle(&p).canonical();
            for opts in all_option_sets() {
                let mut tree = p.build_tree(Some(16), 0.02);
                let result = sb(&p, &mut tree, &opts);
                verify_stable(&p, &result.assignment).unwrap();
                assert_eq!(result.assignment.canonical(), want, "variant {opts:?}");
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
        let functions: Vec<PreferenceFunction> = uniform_weight_functions(25, 3, 93)
            .into_iter()
            .enumerate()
            .map(|(i, f)| PreferenceFunction::new(i, f).with_capacity(1 + (i as u32 % 4)))
            .collect();
        let objects: Vec<ObjectRecord> = independent_objects(120, 3, 94)
            .into_iter()
            .map(|(id, p)| ObjectRecord {
                id,
                point: p,
                capacity: 1 + (id.0 as u32 % 3),
            })
            .collect();
        let p = Problem::new(functions, objects).unwrap();
        let want = oracle(&p).canonical();
        let mut tree = p.build_tree(Some(8), 0.0);
        let result = sb(&p, &mut tree, &SbOptions::default());
        verify_stable(&p, &result.assignment).unwrap();
        assert_eq!(result.assignment.canonical(), want);
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

    #[test]
    fn parallel_solve_is_canonical_identical_at_any_thread_count() {
        // Anti-correlated data keeps the skyline large, so the pairing phase
        // clears the parallel work floor and the pool path actually runs.
        let functions = uniform_weight_functions(200, 3, 301);
        let objects = anti_correlated_objects(800, 3, 302);
        let p = Problem::from_parts(functions, objects).unwrap();
        let mut baseline = None;
        for threads in [1usize, 2, 4, 8] {
            let mut tree = p.build_tree(Some(16), 0.02);
            let opts = SbOptions {
                threads: Some(threads),
                ..SbOptions::default()
            };
            let result = sb(&p, &mut tree, &opts);
            verify_stable(&p, &result.assignment).unwrap();
            let canon = result.assignment.canonical();
            match &baseline {
                None => baseline = Some(canon),
                Some(want) => assert_eq!(&canon, want, "threads={threads}"),
            }
        }
        assert_eq!(baseline.unwrap(), oracle(&p).canonical());
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
        // the resumable-TA searches must charge their sorted-list accesses
        assert!(
            result.metrics.aux_io.io_accesses() > 0,
            "ResumableTa must report its sorted accesses as aux I/O"
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
        let resume = sb(&p, &mut tree_resume, &SbOptions::default());
        assert!(fresh.metrics.aux_io.io_accesses() > 0);
        // restarting every search from scratch costs more sorted accesses
        // than resuming — the very point of the paper's Section 5.1
        assert!(
            fresh.metrics.aux_io.io_accesses() > resume.metrics.aux_io.io_accesses(),
            "FreshTa {} vs ResumableTa {}",
            fresh.metrics.aux_io.io_accesses(),
            resume.metrics.aux_io.io_accesses()
        );
        // an exhaustive scan charges the rows it reads: every alive function,
        // once per search
        let mut tree_scan = p.build_tree(Some(16), 0.02);
        let scan = sb(
            &p,
            &mut tree_scan,
            &SbOptions {
                best_pair: BestPairStrategy::ExhaustiveScan,
                ..SbOptions::default()
            },
        );
        let (rows, searches) = (scan.metrics.aux_io.io_accesses(), scan.metrics.searches);
        assert!(
            searches <= rows && rows <= searches * 30,
            "{rows} rows over {searches} searches of at most 30 functions"
        );
    }
}
