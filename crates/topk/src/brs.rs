//! BRS: branch-and-bound ranked search over the object R-tree.
//!
//! This is the incremental top-k engine (Tao et al.) that the Brute Force and
//! Chain competitors use for their top-1 object searches. Entries are visited
//! in descending `maxscore` order; when a data entry reaches the top of the
//! heap it is guaranteed to be the next best object, so the search can be
//! paused and resumed at will (the "resuming search" feature of Section 4.1).

use pref_geom::{kernel, LinearFunction, SoaBlock};
use pref_rtree::{DataEntry, NodeEntry, RTree, RecordId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct ScoredEntry {
    score: f64,
    entry: NodeEntry,
}

impl PartialEq for ScoredEntry {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score
    }
}
impl Eq for ScoredEntry {}
impl PartialOrd for ScoredEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ScoredEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // max-heap on score
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
    }
}

/// An incremental ranked search over an R-tree for one preference function.
///
/// Node pages are scored *columnarly*: each page expansion pulls the page's
/// score-relevant corners (data points / child MBR best corners) into a
/// reusable [`SoaBlock`] and batch-scores them with the lane kernels, which is
/// bit-identical to scoring each entry with [`LinearFunction::score`] /
/// [`LinearFunction::maxscore`] one at a time (both reduce to the same
/// sequential dot product over the same corner).
#[derive(Debug)]
pub struct RankedSearch {
    function: LinearFunction,
    heap: BinaryHeap<ScoredEntry>,
    initialized: bool,
    /// Number of data entries already reported.
    reported: usize,
    /// Reusable columnar page view (scratch; no per-expansion allocation
    /// once warm).
    block: SoaBlock,
    /// Reusable score lane matching `block` (scratch).
    scores: Vec<f64>,
}

impl std::fmt::Debug for ScoredEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ScoredEntry({:.4})", self.score)
    }
}

impl RankedSearch {
    /// Creates a (lazily initialized) ranked search for `function`.
    pub fn new(function: LinearFunction) -> Self {
        Self {
            function,
            heap: BinaryHeap::new(),
            initialized: false,
            reported: 0,
            block: SoaBlock::for_scoring(),
            scores: Vec::new(),
        }
    }

    /// The preference function driving the search.
    pub fn function(&self) -> &LinearFunction {
        &self.function
    }

    /// Number of results reported so far.
    pub fn reported(&self) -> usize {
        self.reported
    }

    /// Approximate size of the search heap in bytes (for the memory metric).
    pub fn memory_bytes(&self) -> u64 {
        (self.heap.len() * (2 * self.function.dims() * 8 + 24)) as u64
    }

    /// Returns the next best object not rejected by `accept`, together with
    /// its score, or `None` when the tree is exhausted.
    ///
    /// `accept` lets callers skip logically deleted records (objects already
    /// assigned by the caller) without touching the index structure; entries
    /// are only filtered at the data level, so the traversal order and I/O
    /// behaviour are those of a plain ranked search.
    pub fn next_accepted<F>(&mut self, tree: &mut RTree, mut accept: F) -> Option<(DataEntry, f64)>
    where
        F: FnMut(RecordId) -> bool,
    {
        if !self.initialized {
            self.initialized = true;
            if let Some((_, entries)) = tree.root_entries_columnar(&mut self.block) {
                self.push_page(entries);
            }
        }
        while let Some(ScoredEntry { score, entry }) = self.heap.pop() {
            match entry {
                NodeEntry::Data(data) => {
                    if accept(data.record) {
                        self.reported += 1;
                        return Some((data, score));
                    }
                }
                NodeEntry::Child { page, .. } => {
                    let (_, children) = tree.node_entries_columnar(page, &mut self.block);
                    self.push_page(children);
                }
            }
        }
        None
    }

    /// Returns the next best object unconditionally.
    pub fn next(&mut self, tree: &mut RTree) -> Option<(DataEntry, f64)> {
        self.next_accepted(tree, |_| true)
    }

    /// Batch-scores the page mirrored in `self.block` and pushes every entry
    /// with its precomputed score.
    fn push_page(&mut self, entries: Vec<NodeEntry>) {
        debug_assert_eq!(self.block.len(), entries.len());
        kernel::score_block(
            self.function.effective_weights(),
            &self.block,
            &mut self.scores,
        );
        for (entry, &score) in entries.into_iter().zip(self.scores.iter()) {
            self.heap.push(ScoredEntry { score, entry });
        }
    }
}

/// Convenience: the `k` highest-scoring objects for a function, in descending
/// score order.
pub fn top_k(tree: &mut RTree, function: LinearFunction, k: usize) -> Vec<(DataEntry, f64)> {
    let mut search = RankedSearch::new(function);
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        match search.next(tree) {
            Some(hit) => out.push(hit),
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pref_geom::Point;
    use pref_rtree::RTreeConfig;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::HashSet;

    fn random_points(n: u64, dims: usize, seed: u64) -> Vec<(RecordId, Point)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                (
                    RecordId(i),
                    Point::from_slice(
                        &(0..dims)
                            .map(|_| rng.gen_range(0.0..1.0))
                            .collect::<Vec<_>>(),
                    ),
                )
            })
            .collect()
    }

    fn build(points: &[(RecordId, Point)], fanout: usize) -> RTree {
        let dims = points[0].1.dims();
        RTree::bulk_load(
            RTreeConfig::for_dims(dims).with_fanout(fanout),
            points.to_vec(),
        )
        .unwrap()
    }

    #[test]
    fn figure4_top1_is_e() {
        // In Figure 4, object e is the top-1 of both drawn functions.
        let points = vec![
            (RecordId(0), Point::from_slice(&[0.15, 0.95])),  // a
            (RecordId(4), Point::from_slice(&[0.70, 0.85])),  // e
            (RecordId(8), Point::from_slice(&[0.65, 0.40])),  // i
            (RecordId(10), Point::from_slice(&[0.50, 0.30])), // k
        ];
        let mut tree = build(&points, 4);
        for weights in [[0.7, 0.3], [0.4, 0.6]] {
            let f = LinearFunction::new(weights.to_vec()).unwrap();
            let top = top_k(&mut tree, f, 1);
            assert_eq!(top[0].0.record, RecordId(4));
        }
    }

    #[test]
    fn results_come_in_descending_score_order_and_match_oracle() {
        let points = random_points(800, 3, 3);
        let mut tree = build(&points, 16);
        let f = LinearFunction::new(vec![0.5, 0.3, 0.2]).unwrap();
        let got = top_k(&mut tree, f.clone(), 25);
        assert_eq!(got.len(), 25);
        for w in got.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // oracle
        let mut scored: Vec<(u64, f64)> = points.iter().map(|(r, p)| (r.0, f.score(p))).collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        for (i, (entry, score)) in got.iter().enumerate() {
            assert!(
                (score - scored[i].1).abs() < 1e-9,
                "rank {i} score mismatch"
            );
            let _ = entry;
        }
    }

    #[test]
    fn exhausting_the_tree_reports_every_object_once() {
        let points = random_points(300, 2, 4);
        let mut tree = build(&points, 8);
        let f = LinearFunction::new(vec![0.9, 0.1]).unwrap();
        let mut search = RankedSearch::new(f);
        let mut seen = HashSet::new();
        while let Some((d, _)) = search.next(&mut tree) {
            assert!(seen.insert(d.record), "duplicate report of {}", d.record);
        }
        assert_eq!(seen.len(), 300);
        assert_eq!(search.reported(), 300);
    }

    #[test]
    fn accept_filter_skips_assigned_objects() {
        let points = random_points(200, 2, 5);
        let mut tree = build(&points, 8);
        let f = LinearFunction::new(vec![0.5, 0.5]).unwrap();
        // determine the true top-2 first
        let top2 = top_k(&mut tree, f.clone(), 2);
        let banned = top2[0].0.record;
        let mut search = RankedSearch::new(f);
        let (hit, _) = search.next_accepted(&mut tree, |r| r != banned).unwrap();
        assert_eq!(hit.record, top2[1].0.record);
    }

    #[test]
    fn incremental_search_is_io_cheaper_than_full_scan_for_top1() {
        let points = random_points(5000, 3, 6);
        let mut tree = build(&points, 32);
        tree.reset_stats();
        let f = LinearFunction::new(vec![0.4, 0.3, 0.3]).unwrap();
        let _ = top_k(&mut tree, f, 1);
        let io = tree.stats().logical_reads;
        assert!(
            (io as usize) < tree.num_pages() / 2,
            "top-1 touched {io} nodes out of {}",
            tree.num_pages()
        );
    }

    #[test]
    fn resuming_costs_no_repeated_root_reads() {
        let points = random_points(1000, 2, 7);
        let mut tree = build(&points, 16);
        let f = LinearFunction::new(vec![0.6, 0.4]).unwrap();
        let mut search = RankedSearch::new(f);
        tree.reset_stats();
        let _ = search.next(&mut tree);
        let after_first = tree.stats().logical_reads;
        // ten further results should be much cheaper than ten fresh searches
        for _ in 0..10 {
            let _ = search.next(&mut tree);
        }
        let after_more = tree.stats().logical_reads;
        assert!(after_more - after_first <= after_first * 10);
    }

    #[test]
    fn empty_tree_yields_nothing() {
        let mut tree = RTree::with_dims(2);
        let f = LinearFunction::new(vec![0.5, 0.5]).unwrap();
        assert!(top_k(&mut tree, f, 3).is_empty());
    }

    #[test]
    fn top_k_larger_than_dataset_returns_everything() {
        let points = random_points(20, 2, 8);
        let mut tree = build(&points, 8);
        let f = LinearFunction::new(vec![0.5, 0.5]).unwrap();
        assert_eq!(top_k(&mut tree, f, 100).len(), 20);
    }
}
