//! The Chain competitor: the spatial ECP/Chain algorithm of Wong et al.,
//! adapted to preference functions as described in Section 7 of the paper.
//!
//! The functions are indexed by a main-memory R-tree built over their
//! (effective) weight vectors; top-1 searches in either direction are fresh
//! BRS queries — Chain performs even more top-1 searches than Brute Force and
//! cannot resume them, which is why it is the slowest competitor.

use crate::matching::Assignment;
use crate::metrics::{AssignmentResult, RunMetrics};
use crate::problem::Problem;
use pref_geom::LinearFunction;
use pref_rtree::{RTree, RTreeConfig, RecordId};
use pref_storage::IoStats;
use pref_topk::RankedSearch;
use std::collections::VecDeque;
use std::time::Instant;

/// Work items flowing through the Chain queue: either a preference function
/// (by index) or an object (by record id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Item {
    Function(usize),
    Object(RecordId),
}

/// Runs the Chain assignment algorithm.
pub fn chain(problem: &Problem, tree: &mut RTree) -> AssignmentResult {
    let start = Instant::now();
    let stats_before = tree.stats();
    let n = problem.num_functions();

    // main-memory R-tree over the functions' effective weight vectors
    let weight_records: Vec<(RecordId, pref_geom::Point)> = problem
        .functions()
        .iter()
        .enumerate()
        .map(|(i, f)| (RecordId(i as u64), f.function.effective_weights_as_point()))
        .collect();
    let mut ftree = RTree::bulk_load(RTreeConfig::for_dims(problem.dims()), weight_records)
        .expect("function weights share the problem dimensionality");
    // "main memory" index: a buffer large enough to hold the whole tree
    ftree.set_buffer_frames(ftree.num_pages().max(1));

    let mut f_remaining: Vec<u32> = problem.functions().iter().map(|f| f.capacity).collect();
    // dense per-object capacities, indexed by the problem's dense object index
    let mut o_remaining: Vec<u32> = problem.objects().iter().map(|o| o.capacity).collect();
    let mut demand: u64 = f_remaining.iter().map(|&c| c as u64).sum();
    let mut supply: u64 = o_remaining.iter().map(|&c| c as u64).sum();

    let mut assignment = Assignment::new();
    let mut peak_memory_bytes: u64 = 0;
    let mut queue: VecDeque<Item> = VecDeque::new();
    let mut next_seed = 0usize;
    let mut searches: u64 = 0;
    let mut loops: u64 = 0;
    let mut since_progress: u64 = 0;
    let stall_limit = 4 * (problem.num_functions() + problem.num_objects()) as u64 + 16;

    // Fresh top-1 object for a function (skipping exhausted objects). Exact
    // score ties are resolved like the oracle does — lowest dense object
    // index — by draining the search's complete top tie group (ranked
    // searches yield non-increasing scores, so the group ends at the first
    // strictly lower result) and keeping the oracle's representative.
    let top1_object = |tree: &mut RTree,
                       fi: usize,
                       o_remaining: &[u32],
                       searches: &mut u64|
     -> Option<(RecordId, f64)> {
        *searches += 1;
        let mut s = RankedSearch::new(problem.functions()[fi].function.clone());
        let accept = |r: RecordId| problem.object_index(r).is_some_and(|i| o_remaining[i] > 0);
        let (first, score) = s.next_accepted(tree, accept)?;
        let mut best = first.record;
        let mut best_oi = problem.object_index(best).expect("object exists");
        while let Some((d, tie)) = s.next_accepted(tree, accept) {
            if tie < score {
                break;
            }
            let oi = problem.object_index(d.record).expect("object exists");
            if oi < best_oi {
                best_oi = oi;
                best = d.record;
            }
        }
        Some((best, score))
    };
    // Fresh top-1 function for an object (skipping exhausted functions).
    // The weight-space search scores functions through a *normalized* query
    // direction — a different floating-point computation than the true
    // `f(o)`, so two functions whose true scores differ by an ulp can come
    // back mis-ordered (and exactly-tied functions in arbitrary order). The
    // search is therefore only the candidate generator: the near-tie group
    // at the top (within 1e-9, far above any rounding skew) is re-ranked by
    // the exact score with the oracle's tie order — highest true score,
    // then lowest function index (the weight tree's record ids are the
    // function indices).
    let top1_function = |ftree: &mut RTree,
                         object: RecordId,
                         f_remaining: &[u32],
                         searches: &mut u64|
     -> Option<usize> {
        *searches += 1;
        let oi = problem.object_index(object).expect("object exists");
        let point = &problem.objects()[oi].point;
        // the best function for an object is a top-1 query in weight space
        // whose scoring direction is the object itself. An all-zero object
        // has none: every function scores it exactly 0, and the oracle's tie
        // order gives it to the lowest index with capacity left.
        let Ok(query) = LinearFunction::new(point.coords().to_vec()) else {
            return f_remaining.iter().position(|&c| c > 0);
        };
        let mut s = RankedSearch::new(query);
        let accept = |r: RecordId| f_remaining[r.0 as usize] > 0;
        let (first, top) = s.next_accepted(ftree, accept)?;
        let exact = |fi: usize| problem.functions()[fi].function.score(point);
        let mut best = first.record.0 as usize;
        let mut best_score = exact(best);
        while let Some((d, near)) = s.next_accepted(ftree, accept) {
            if near < top - 1e-9 {
                break;
            }
            let fi = d.record.0 as usize;
            let score = exact(fi);
            if score > best_score || (score == best_score && fi < best) {
                best = fi;
                best_score = score;
            }
        }
        Some(best)
    };

    while demand > 0 && supply > 0 {
        loops += 1;
        since_progress += 1;
        if since_progress > stall_limit {
            // Tie-cycle safety net: fall back to a direct scan for the global
            // best remaining pair, which is stable by Property 2.
            if let Some((fi, obj, score)) = global_best_pair(problem, &f_remaining, &o_remaining) {
                assign(
                    problem,
                    &mut assignment,
                    &mut f_remaining,
                    &mut o_remaining,
                    &mut demand,
                    &mut supply,
                    fi,
                    obj,
                    score,
                );
                since_progress = 0;
                continue;
            }
            break;
        }
        let item = match queue.pop_front() {
            Some(item) => item,
            None => {
                // pick the next unassigned function as a fresh chain seed
                while next_seed < n && f_remaining[next_seed] == 0 {
                    next_seed += 1;
                }
                if next_seed >= n {
                    // all leading functions done but capacities elsewhere may
                    // remain; rescan from the beginning
                    match f_remaining.iter().position(|&c| c > 0) {
                        Some(i) => Item::Function(i),
                        None => break,
                    }
                } else {
                    Item::Function(next_seed)
                }
            }
        };
        match item {
            Item::Function(fi) => {
                if f_remaining[fi] == 0 {
                    continue;
                }
                let Some((obj, score)) = top1_object(tree, fi, &o_remaining, &mut searches) else {
                    break;
                };
                let Some(back) = top1_function(&mut ftree, obj, &f_remaining, &mut searches) else {
                    break;
                };
                if back == fi {
                    assign(
                        problem,
                        &mut assignment,
                        &mut f_remaining,
                        &mut o_remaining,
                        &mut demand,
                        &mut supply,
                        fi,
                        obj,
                        score,
                    );
                    since_progress = 0;
                } else {
                    queue.push_back(Item::Object(obj));
                }
            }
            Item::Object(obj) => {
                let oi = problem.object_index(obj).expect("object exists");
                if o_remaining[oi] == 0 {
                    continue;
                }
                let Some(fi) = top1_function(&mut ftree, obj, &f_remaining, &mut searches) else {
                    break;
                };
                let Some((back_obj, score)) = top1_object(tree, fi, &o_remaining, &mut searches)
                else {
                    break;
                };
                if back_obj == obj {
                    assign(
                        problem,
                        &mut assignment,
                        &mut f_remaining,
                        &mut o_remaining,
                        &mut demand,
                        &mut supply,
                        fi,
                        obj,
                        score,
                    );
                    since_progress = 0;
                } else {
                    queue.push_back(Item::Function(fi));
                }
            }
        }
        if loops % 64 == 1 {
            peak_memory_bytes =
                peak_memory_bytes.max(queue.len() as u64 * 16 + ftree.num_pages() as u64 * 64);
        }
    }
    peak_memory_bytes =
        peak_memory_bytes.max(queue.len() as u64 * 16 + ftree.num_pages() as u64 * 64);

    // The function R-tree is an auxiliary structure held in main memory (its
    // buffer covers the whole tree), so — like SB's in-memory sorted lists —
    // every node access is charged as one aux access, with no buffer discount:
    // aux_io stays comparable across algorithms.
    let ftree_accesses = ftree.stats().logical_reads;
    let metrics = RunMetrics {
        object_io: tree.stats().since(&stats_before),
        aux_io: IoStats {
            logical_reads: ftree_accesses,
            physical_reads: ftree_accesses,
            ..IoStats::default()
        },
        cpu_time: start.elapsed(),
        peak_memory_bytes,
        loops,
        searches,
    };
    AssignmentResult {
        assignment,
        metrics,
    }
}

#[allow(clippy::too_many_arguments)]
fn assign(
    problem: &Problem,
    assignment: &mut Assignment,
    f_remaining: &mut [u32],
    o_remaining: &mut [u32],
    demand: &mut u64,
    supply: &mut u64,
    fi: usize,
    obj: RecordId,
    score: f64,
) {
    assignment.push(problem.functions()[fi].id, obj, score);
    f_remaining[fi] -= 1;
    o_remaining[problem.object_index(obj).expect("object exists")] -= 1;
    *demand -= 1;
    *supply -= 1;
}

/// Exhaustive search for the best remaining pair; only used by the stall
/// safety net, which fires on pathological score-tie cycles. Exact score ties
/// break to the lowest function index, then the lowest *dense* object index
/// (first-seen wins in table order), matching the oracle's deterministic
/// order.
fn global_best_pair(
    problem: &Problem,
    f_remaining: &[u32],
    o_remaining: &[u32],
) -> Option<(usize, RecordId, f64)> {
    let mut best: Option<(usize, RecordId, f64)> = None;
    for (fi, f) in problem.functions().iter().enumerate() {
        if f_remaining[fi] == 0 {
            continue;
        }
        for (oi, o) in problem.objects().iter().enumerate() {
            if o_remaining[oi] == 0 {
                continue;
            }
            let score = f.function.score(&o.point);
            if best.is_none_or(|(_, _, s)| score > s) {
                best = Some((fi, o.id, score));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::verify_stable;
    use crate::oracle::oracle;
    use crate::problem::{ObjectRecord, PreferenceFunction};
    use pref_datagen::{anti_correlated_objects, independent_objects, uniform_weight_functions};
    use pref_geom::Point;

    #[test]
    fn solves_the_paper_example() {
        let p = Problem::new(
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
        .unwrap();
        let mut tree = p.build_tree(None, 0.0);
        let result = chain(&p, &mut tree);
        verify_stable(&p, &result.assignment).unwrap();
        assert_eq!(result.assignment.canonical(), oracle(&p).canonical());
    }

    #[test]
    fn matches_oracle_on_random_instances() {
        for seed in [21u64, 22, 23] {
            let functions = uniform_weight_functions(50, 3, seed);
            let objects = independent_objects(250, 3, seed + 100);
            let p = Problem::from_parts(functions, objects).unwrap();
            let mut tree = p.build_tree(Some(16), 0.02);
            let result = chain(&p, &mut tree);
            verify_stable(&p, &result.assignment).unwrap();
            assert_eq!(result.assignment.canonical(), oracle(&p).canonical());
        }
    }

    #[test]
    fn anti_correlated_instances() {
        let functions = uniform_weight_functions(40, 3, 31);
        let objects = anti_correlated_objects(200, 3, 32);
        let p = Problem::from_parts(functions, objects).unwrap();
        let mut tree = p.build_tree(Some(12), 0.02);
        let result = chain(&p, &mut tree);
        verify_stable(&p, &result.assignment).unwrap();
        assert_eq!(result.assignment.canonical(), oracle(&p).canonical());
    }

    #[test]
    fn capacitated_assignment() {
        let functions: Vec<PreferenceFunction> = uniform_weight_functions(15, 2, 41)
            .into_iter()
            .enumerate()
            .map(|(i, f)| PreferenceFunction::new(i, f).with_capacity(2))
            .collect();
        let objects: Vec<ObjectRecord> = independent_objects(60, 2, 42)
            .into_iter()
            .map(|(id, p)| ObjectRecord {
                id,
                point: p,
                capacity: 1 + (id.0 % 2) as u32,
            })
            .collect();
        let p = Problem::new(functions, objects).unwrap();
        let mut tree = p.build_tree(Some(8), 0.0);
        let result = chain(&p, &mut tree);
        verify_stable(&p, &result.assignment).unwrap();
        assert_eq!(result.assignment.canonical(), oracle(&p).canonical());
    }

    #[test]
    fn more_functions_than_objects() {
        let functions = uniform_weight_functions(40, 2, 51);
        let objects = independent_objects(15, 2, 52);
        let p = Problem::from_parts(functions, objects).unwrap();
        let mut tree = p.build_tree(Some(8), 0.0);
        let result = chain(&p, &mut tree);
        assert_eq!(result.assignment.len(), 15);
        verify_stable(&p, &result.assignment).unwrap();
    }

    #[test]
    fn chain_issues_more_searches_than_pairs() {
        let functions = uniform_weight_functions(30, 3, 61);
        let objects = independent_objects(300, 3, 62);
        let p = Problem::from_parts(functions, objects).unwrap();
        let mut tree = p.build_tree(Some(16), 0.02);
        let result = chain(&p, &mut tree);
        assert!(result.metrics.searches as usize >= 2 * result.assignment.len());
        assert!(result.metrics.object_io.logical_reads > 0);
    }
}
