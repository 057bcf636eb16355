//! Batch best-pair search over disk-resident function lists (Section 7.6).
//!
//! When `F` does not fit in memory, the `D` sorted coefficient lists are
//! materialized on disk. Running an individual TA search per skyline object
//! would rescan the lists once per object; instead the lists are scanned
//! *once per skyline version*, block by block in a round-robin fashion, and
//! every encountered function is scored against all still-active skyline
//! objects. An object becomes inactive once its current best score beats its
//! fractional-knapsack threshold under TA's acceptance rule, so a tied
//! function in a later block is still seen and the lowest index wins. This is
//! the `SB-alt` module evaluated in Figure 17.

use crate::alive::AliveFunctions;
use crate::knapsack::{beats_unseen, tight_threshold};
use crate::lists::FunctionLists;
use pref_geom::{LinearFunction, Point};
use pref_storage::{IoStats, LruBuffer, PageId, PAGE_SIZE};
use std::collections::HashSet;

/// Bytes per list entry on disk: a coefficient plus a function identifier.
const LIST_ENTRY_BYTES: usize = 16;

/// Disk-resident sorted coefficient lists with explicit I/O accounting.
///
/// Sequential block reads and per-function random accesses are charged to an
/// [`IoStats`] counter through an LRU buffer, mirroring how the object R-tree
/// charges node accesses.
#[derive(Debug, Clone)]
pub struct DiskFunctionLists {
    lists: FunctionLists,
    entries_per_block: usize,
    buffer: LruBuffer,
    stats: IoStats,
}

impl DiskFunctionLists {
    /// Materializes the lists for a set of functions with an LRU buffer of
    /// `buffer_frames` blocks.
    pub fn new<'a>(
        functions: impl IntoIterator<Item = &'a LinearFunction>,
        buffer_frames: usize,
    ) -> Self {
        Self {
            lists: FunctionLists::new(functions),
            entries_per_block: PAGE_SIZE / LIST_ENTRY_BYTES,
            buffer: LruBuffer::new(buffer_frames),
            stats: IoStats::new(),
        }
    }

    /// The alive functions the lists index (used for CPU-side scoring).
    pub fn functions(&self) -> &AliveFunctions {
        self.lists.functions()
    }

    /// Removes (assigns) a function.
    pub fn remove(&mut self, function: usize) -> bool {
        self.lists.remove(function)
    }

    /// I/O statistics accumulated so far.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Total number of blocks per list.
    pub(crate) fn blocks_per_list(&self) -> usize {
        self.functions().total().div_ceil(self.entries_per_block)
    }

    /// Reads one block of a list sequentially (charged through the buffer) and
    /// returns the contained `(coefficient, function)` entries.
    fn read_block(&mut self, dim: usize, block: usize) -> &[(f64, usize)] {
        self.charge(Self::block_page(dim, block, self.blocks_per_list()));
        let start = block * self.entries_per_block;
        let end = (start + self.entries_per_block).min(self.functions().total());
        &self.lists.raw_list(dim)[start..end]
    }

    /// Performs the random accesses needed to reconstruct a function's full
    /// coefficient vector (`D - 1` accesses to the other lists).
    fn random_access(&mut self, function: usize) {
        let dims = self.functions().dims();
        for d in 1..dims {
            self.charge(Self::record_page(function, d));
        }
    }

    fn charge(&mut self, page: PageId) {
        self.stats.logical_reads += 1;
        if self.buffer.access(page) {
            self.stats.buffer_hits += 1;
        } else {
            self.stats.physical_reads += 1;
        }
    }

    fn block_page(dim: usize, block: usize, blocks_per_list: usize) -> PageId {
        PageId::new((dim * blocks_per_list + block) as u64)
    }

    fn record_page(function: usize, dim: usize) -> PageId {
        // random-access pages live in a separate id range
        PageId::new(1_000_000_000 + (function * 16 + dim) as u64)
    }
}

/// Finds the best alive function for every object in `objects` with a single
/// batched scan over the disk-resident lists. Returns, per object, the best
/// `(function index, score)` or `None` when no alive function remains.
pub fn batch_best_functions(
    disk: &mut DiskFunctionLists,
    objects: &[Point],
) -> Vec<Option<(usize, f64)>> {
    let n = objects.len();
    let mut best: Vec<Option<(usize, f64)>> = vec![None; n];
    if n == 0 || disk.functions().remaining() == 0 {
        return best;
    }
    let dims = disk.functions().dims();
    let budget = disk.functions().budget();
    let blocks = disk.blocks_per_list();
    let mut active: Vec<bool> = vec![true; n];
    let mut active_count = n;
    let mut last_seen: Vec<f64> = vec![budget; dims];
    let mut next_block: Vec<usize> = vec![0; dims];
    let mut seen: HashSet<usize> = HashSet::new();

    while active_count > 0 {
        let mut progressed = false;
        for dim in 0..dims {
            if active_count == 0 {
                break;
            }
            if next_block[dim] >= blocks {
                last_seen[dim] = 0.0;
                continue;
            }
            let block_idx = next_block[dim];
            next_block[dim] += 1;
            progressed = true;
            let entries: Vec<(f64, usize)> = disk.read_block(dim, block_idx).to_vec();
            let mut newly_seen: Vec<usize> = Vec::new();
            for (coeff, func) in entries {
                last_seen[dim] = coeff;
                if !disk.functions().is_alive(func) {
                    continue;
                }
                if seen.insert(func) {
                    newly_seen.push(func);
                }
            }
            for func in newly_seen {
                disk.random_access(func);
                for (i, obj) in objects.iter().enumerate() {
                    if !active[i] {
                        continue;
                    }
                    let score = disk.functions().score(func, obj);
                    // exact score ties break to the lowest function index —
                    // the same deterministic rule as the per-object TA search
                    let better = match best[i] {
                        None => true,
                        Some((bf, bs)) => score > bs || (score == bs && func < bf),
                    };
                    if better {
                        best[i] = Some((func, score));
                    }
                }
            }
            // threshold check after the block
            for (i, obj) in objects.iter().enumerate() {
                if !active[i] {
                    continue;
                }
                let threshold = tight_threshold(obj, &last_seen, budget);
                if best[i].is_some_and(|(_, s)| beats_unseen(s, threshold)) {
                    active[i] = false;
                    active_count -= 1;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_functions(n: usize, dims: usize, seed: u64) -> Vec<LinearFunction> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                LinearFunction::new((0..dims).map(|_| rng.gen_range(0.01..1.0)).collect()).unwrap()
            })
            .collect()
    }

    fn random_objects(n: usize, dims: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point::from_slice(
                    &(0..dims)
                        .map(|_| rng.gen_range(0.0..1.0))
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    #[test]
    fn batch_results_match_exhaustive_scan() {
        let functions = random_functions(2000, 4, 51);
        let objects = random_objects(30, 4, 52);
        let mut disk = DiskFunctionLists::new(&functions, 8);
        let results = batch_best_functions(&mut disk, &objects);
        for (obj, res) in objects.iter().zip(&results) {
            let (func, score) = res.expect("alive functions exist");
            let (want, want_score) = disk.functions().best_by_scan(obj).unwrap();
            assert_eq!((func, score.to_bits()), (want, want_score.to_bits()));
        }
    }

    #[test]
    fn removed_functions_are_never_returned() {
        let functions = random_functions(500, 3, 61);
        let objects = random_objects(10, 3, 62);
        let mut disk = DiskFunctionLists::new(&functions, 4);
        // remove the overall best function for the first object
        let initial = batch_best_functions(&mut disk, &objects);
        let banned = initial[0].unwrap().0;
        disk.remove(banned);
        let results = batch_best_functions(&mut disk, &objects);
        for res in results.iter().flatten() {
            assert_ne!(res.0, banned);
        }
    }

    /// 601 functions that all score exactly 0.5 on (0.5, 0.5): f0 = (0.5,
    /// 0.5), then `0.5 ± i/2048` for i = 1..=300 and their mirror images. f0
    /// is entry 300 of both lists, in their second 256-entry block, and the
    /// first block of list 0 already bounds every unseen score by 0.5.
    fn dyadic_ties() -> Vec<LinearFunction> {
        let tilted = |w0: f64| LinearFunction::from_normalized(vec![w0, 1.0 - w0]).unwrap();
        let steps = || (1..=300).map(|i| f64::from(i) / 2048.0);
        std::iter::once(tilted(0.5))
            .chain(steps().map(|a| tilted(0.5 + a)))
            .chain(steps().map(|a| tilted(0.5 - a)))
            .collect()
    }

    #[test]
    fn exact_ties_resolve_to_the_lowest_function_index() {
        // functions 0 and 1 are identical, so they tie exactly on any object;
        // the batch scan must return the lower index deterministically
        let twins = vec![
            LinearFunction::new(vec![0.6, 0.4]).unwrap(),
            LinearFunction::new(vec![0.6, 0.4]).unwrap(),
            LinearFunction::new(vec![0.1, 0.9]).unwrap(),
        ];
        let (twin, tied) = (
            Point::from_slice(&[0.9, 0.1]),
            Point::from_slice(&[0.5, 0.5]),
        );
        // and a tie across blocks: the lowest index is in the last ones
        for (functions, object) in [(twins, twin), (dyadic_ties(), tied)] {
            let mut disk = DiskFunctionLists::new(&functions, 2);
            let res = batch_best_functions(&mut disk, std::slice::from_ref(&object));
            assert_eq!(res[0], disk.functions().best_by_scan(&object));
            assert_eq!(res[0].unwrap().0, 0);
        }
    }

    #[test]
    fn no_alive_functions_gives_none() {
        let functions = random_functions(10, 2, 71);
        let objects = random_objects(3, 2, 72);
        let mut disk = DiskFunctionLists::new(&functions, 2);
        for i in 0..10 {
            disk.remove(i);
        }
        let results = batch_best_functions(&mut disk, &objects);
        assert!(results.iter().all(Option::is_none));
    }

    #[test]
    fn empty_object_batch_is_cheap() {
        let functions = random_functions(100, 3, 81);
        let mut disk = DiskFunctionLists::new(&functions, 2);
        let results = batch_best_functions(&mut disk, &[]);
        assert!(results.is_empty());
        assert_eq!(disk.stats().logical_reads, 0);
    }

    #[test]
    fn io_scales_with_list_blocks_not_with_object_count() {
        let functions = random_functions(4000, 4, 91);
        let few = random_objects(2, 4, 92);
        let many = random_objects(60, 4, 93);
        let mut disk_few = DiskFunctionLists::new(&functions, 8);
        let mut disk_many = DiskFunctionLists::new(&functions, 8);
        batch_best_functions(&mut disk_few, &few);
        batch_best_functions(&mut disk_many, &many);
        let io_few = disk_few.stats().logical_reads;
        let io_many = disk_many.stats().logical_reads;
        // more objects keep the scan active longer, but the growth must be
        // far below linear in the number of objects
        assert!(
            io_many < io_few * 30,
            "I/O grew from {io_few} to {io_many} for 30x more objects"
        );
    }

    #[test]
    fn skewed_object_terminates_after_few_blocks() {
        let functions = random_functions(5000, 3, 101);
        let objects = vec![Point::from_slice(&[0.99, 0.98, 0.97])];
        let mut disk = DiskFunctionLists::new(&functions, 4);
        let res = batch_best_functions(&mut disk, &objects);
        assert!(res[0].is_some());
        let io = disk.stats().logical_reads;
        // worst case: scan every block of every list and random-access every
        // function on the D-1 other lists
        let worst = (disk.blocks_per_list() * 3 + 5000 * 2) as u64;
        assert!(
            io < worst / 2,
            "expected early termination: {io} I/Os vs worst case {worst}"
        );
    }

    #[test]
    fn entries_per_block_matches_page_size() {
        // one 4 KiB block holds 256 list entries
        for (functions, blocks) in [(10, 1), (256, 1), (257, 2)] {
            let functions = random_functions(functions, 2, 111);
            let disk = DiskFunctionLists::new(&functions, 1);
            assert_eq!(disk.blocks_per_list(), blocks);
        }
    }
}
