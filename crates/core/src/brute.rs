//! The Brute Force competitor (Section 4.1).
//!
//! One incremental top-1 (BRS) search is kept open per preference function.
//! At each step the pair with the globally highest score among the functions'
//! current candidates is assigned; functions whose candidate object has run
//! out of capacity simply *resume* their search instead of restarting it.
//! The price of resumption is one open search heap per function, which is why
//! Brute Force dominates the memory charts of the paper.
//!
//! Assigned objects are removed logically (searches skip them) rather than by
//! physically restructuring the R-tree: deleting them would charge Brute
//! Force page writes the paper does not count, and its I/O is dominated by
//! the top-1 searches either way.

use crate::matching::Assignment;
use crate::metrics::{AssignmentResult, RunMetrics};
use crate::problem::Problem;
use pref_rtree::{RTree, RecordId};
use pref_topk::RankedSearch;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

#[derive(Clone, Copy)]
struct Candidate {
    score: f64,
    function: usize,
    object: RecordId,
    /// Dense object index — the oracle's tie-break key.
    oi: usize,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // max-heap order mirroring the oracle's consumption order: highest
        // score first, exact ties to the lowest function index, then the
        // lowest dense object index
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.function.cmp(&self.function))
            .then_with(|| other.oi.cmp(&self.oi))
    }
}

/// Runs the Brute Force assignment algorithm.
pub fn brute_force(problem: &Problem, tree: &mut RTree) -> AssignmentResult {
    let start = Instant::now();
    let stats_before = tree.stats();
    let n = problem.num_functions();

    let mut f_remaining: Vec<u32> = problem.functions().iter().map(|f| f.capacity).collect();
    // dense per-object capacities, indexed by the problem's dense object index
    let mut o_remaining: Vec<u32> = problem.objects().iter().map(|o| o.capacity).collect();
    let mut demand: u64 = f_remaining.iter().map(|&c| c as u64).sum();
    let mut supply: u64 = o_remaining.iter().map(|&c| c as u64).sum();

    let mut searches: Vec<RankedSearch> = problem
        .functions()
        .iter()
        .map(|f| RankedSearch::new(f.function.clone()))
        .collect();
    // Per-function candidates currently in the heap. To reproduce the
    // oracle's tie order, a function never has a *partial* tie group in the
    // heap: `advance` drains its search through the complete group of the
    // top score (searches yield non-increasing scores, so the group is
    // complete once a strictly lower result appears; that one result is
    // parked in `lookahead` and seeds the next group).
    let mut live: Vec<usize> = vec![0; n];
    let mut lookahead: Vec<Option<Candidate>> = vec![None; n];
    let mut heap: BinaryHeap<Candidate> = BinaryHeap::with_capacity(n);

    let mut assignment = Assignment::new();
    let mut peak_memory_bytes: u64 = 0;
    let mut search_count: u64 = 0;
    let mut loops: u64 = 0;

    // helper closure would need split borrows; use a small macro instead
    macro_rules! advance {
        ($idx:expr) => {{
            let idx: usize = $idx;
            let mut group_score = match lookahead[idx].take() {
                Some(cand) => {
                    let score = cand.score;
                    heap.push(cand);
                    live[idx] += 1;
                    Some(score)
                }
                None => None,
            };
            loop {
                let next = searches[idx].next_accepted(tree, |r| {
                    problem.object_index(r).is_some_and(|i| o_remaining[i] > 0)
                });
                search_count += 1;
                match next {
                    Some((data, score)) => {
                        let cand = Candidate {
                            score,
                            function: idx,
                            object: data.record,
                            oi: problem.object_index(data.record).expect("object exists"),
                        };
                        match group_score {
                            Some(gs) if score < gs => {
                                // first result below the group: park it
                                lookahead[idx] = Some(cand);
                                break;
                            }
                            _ => {
                                group_score = Some(score);
                                heap.push(cand);
                                live[idx] += 1;
                            }
                        }
                    }
                    None => break,
                }
            }
        }};
    }

    for idx in 0..n {
        advance!(idx);
    }

    while demand > 0 && supply > 0 {
        let Some(best) = heap.pop() else { break };
        if f_remaining[best.function] == 0 {
            continue; // function already fully assigned; leftovers are inert
        }
        live[best.function] -= 1;
        if o_remaining[best.oi] == 0 {
            // the candidate was taken by someone else; resume the search once
            // the function's whole group is exhausted
            if live[best.function] == 0 {
                advance!(best.function);
            }
            continue;
        }
        // assign the globally best pair (Property 2: the top pair is stable)
        loops += 1;
        assignment.push(
            problem.functions()[best.function].id,
            best.object,
            best.score,
        );
        f_remaining[best.function] -= 1;
        o_remaining[best.oi] -= 1;
        demand -= 1;
        supply -= 1;
        if f_remaining[best.function] > 0 {
            if o_remaining[best.oi] > 0 {
                // the same object still has capacity; keep it as a candidate
                heap.push(best);
                live[best.function] += 1;
            } else if live[best.function] == 0 {
                advance!(best.function);
            }
        }
        if loops % 32 == 1 {
            let mem: u64 = searches.iter().map(RankedSearch::memory_bytes).sum::<u64>()
                + heap.len() as u64 * 32;
            peak_memory_bytes = peak_memory_bytes.max(mem);
        }
    }

    let mem: u64 =
        searches.iter().map(RankedSearch::memory_bytes).sum::<u64>() + heap.len() as u64 * 32;
    peak_memory_bytes = peak_memory_bytes.max(mem);

    let metrics = RunMetrics {
        object_io: tree.stats().since(&stats_before),
        aux_io: Default::default(),
        cpu_time: start.elapsed(),
        peak_memory_bytes,
        loops,
        searches: search_count,
    };
    AssignmentResult {
        assignment,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::verify_stable;
    use crate::oracle::oracle;
    use crate::problem::{ObjectRecord, PreferenceFunction};
    use pref_datagen::{independent_objects, uniform_weight_functions};
    use pref_geom::{LinearFunction, Point};

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
    fn solves_the_paper_example() {
        let p = figure1_problem();
        let mut tree = p.build_tree(None, 0.0);
        let result = brute_force(&p, &mut tree);
        verify_stable(&p, &result.assignment).unwrap();
        assert_eq!(result.assignment.canonical(), oracle(&p).canonical());
        assert!(result.metrics.searches >= 3);
    }

    #[test]
    fn matches_oracle_on_random_instances() {
        for seed in [1u64, 2, 3] {
            let functions = uniform_weight_functions(60, 3, seed);
            let objects = independent_objects(300, 3, seed + 100);
            let p = Problem::from_parts(functions, objects).unwrap();
            let mut tree = p.build_tree(Some(16), 0.02);
            let result = brute_force(&p, &mut tree);
            verify_stable(&p, &result.assignment).unwrap();
            assert_eq!(result.assignment.canonical(), oracle(&p).canonical());
        }
    }

    #[test]
    fn handles_more_functions_than_objects() {
        let functions = uniform_weight_functions(50, 2, 9);
        let objects = independent_objects(20, 2, 10);
        let p = Problem::from_parts(functions, objects).unwrap();
        let mut tree = p.build_tree(Some(8), 0.0);
        let result = brute_force(&p, &mut tree);
        assert_eq!(result.assignment.len(), 20);
        verify_stable(&p, &result.assignment).unwrap();
    }

    #[test]
    fn capacitated_functions_and_objects() {
        let functions: Vec<PreferenceFunction> = uniform_weight_functions(20, 3, 11)
            .into_iter()
            .enumerate()
            .map(|(i, f)| PreferenceFunction::new(i, f).with_capacity(1 + (i as u32 % 4)))
            .collect();
        let objects: Vec<ObjectRecord> = independent_objects(80, 3, 12)
            .into_iter()
            .map(|(id, p)| ObjectRecord {
                id,
                point: p,
                capacity: 1 + (id.0 as u32 % 3),
            })
            .collect();
        let p = Problem::new(functions, objects).unwrap();
        let mut tree = p.build_tree(Some(8), 0.0);
        let result = brute_force(&p, &mut tree);
        verify_stable(&p, &result.assignment).unwrap();
        assert_eq!(result.assignment.canonical(), oracle(&p).canonical());
    }

    #[test]
    fn prioritized_functions_supported() {
        let functions: Vec<PreferenceFunction> = uniform_weight_functions(30, 2, 13)
            .into_iter()
            .enumerate()
            .map(|(i, f)| PreferenceFunction::new(i, f.prioritized(1.0 + (i % 4) as f64).unwrap()))
            .collect();
        let objects = independent_objects(100, 2, 14)
            .into_iter()
            .map(|(id, p)| ObjectRecord::new(id.0, p))
            .collect();
        let p = Problem::new(functions, objects).unwrap();
        let mut tree = p.build_tree(Some(8), 0.0);
        let result = brute_force(&p, &mut tree);
        verify_stable(&p, &result.assignment).unwrap();
        assert_eq!(result.assignment.canonical(), oracle(&p).canonical());
    }

    #[test]
    fn reports_metrics() {
        let functions = uniform_weight_functions(40, 3, 15);
        let objects = independent_objects(500, 3, 16);
        let p = Problem::from_parts(functions, objects).unwrap();
        let mut tree = p.build_tree(Some(16), 0.02);
        let result = brute_force(&p, &mut tree);
        assert!(result.metrics.object_io.logical_reads > 0);
        assert!(result.metrics.peak_memory_bytes > 0);
        assert!(result.metrics.searches >= 40);
        assert!(result.metrics.loops >= 40);
    }
}
