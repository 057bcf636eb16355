//! Branch-and-Bound Skyline (BBS) with pruned-entry tracking.

use crate::set::{Skyline, SkylineObject};
use pref_geom::Point;
use pref_rtree::{NodeEntry, RTree, RecordId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Heap element: an R-tree entry keyed by the L1 distance of its best corner
/// to the sky point (ascending — closest to the sky point first).
///
/// The order is total: equal distances pop data entries before node entries,
/// then by ascending record id or page id. A call's pop order is then a
/// function of the entries it holds, never of the order they were pushed in,
/// which depends on which skyline rows happened to own them.
pub(crate) struct HeapEntry {
    pub dist: f64,
    /// Skyline rows `0..checked` were tested against the entry before it was
    /// pushed and none dominates it. The loop that pops it only appends
    /// rows, so its dominance scan starts at this row.
    pub checked: usize,
    pub entry: NodeEntry,
}

impl HeapEntry {
    /// An entry no skyline row has been tested against yet.
    pub(crate) fn new(entry: NodeEntry) -> Self {
        Self::with_checked(entry, 0)
    }

    /// An entry the skyline's first `checked` rows do not dominate.
    pub(crate) fn with_checked(entry: NodeEntry, checked: usize) -> Self {
        let dist = Point::l1_dist_to_sky_coords(entry.best_corner());
        Self {
            dist,
            checked,
            entry,
        }
    }

    /// The tie-break among equal distances: data before node, then the
    /// record or page id.
    fn tie_key(&self) -> (bool, u64) {
        match &self.entry {
            NodeEntry::Data(data) => (false, data.record.0),
            NodeEntry::Child { page, .. } => (true, page.raw()),
        }
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to pop the smallest key first.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.tie_key().cmp(&self.tie_key()))
    }
}

/// Computes the skyline of all objects indexed by `tree` using BBS
/// (Papadias et al.), modified as in Section 5.2 of the paper to keep track of
/// pruned entries: every pruned node entry or data object is appended to the
/// pruned list of exactly one skyline object that dominates it.
///
/// Node accesses are charged to the tree's I/O statistics. The algorithm is
/// I/O optimal: it visits exactly the nodes whose best corner is not dominated
/// by the skyline.
pub fn compute_skyline_bbs(tree: &mut RTree) -> Skyline {
    let mut skyline = Skyline::new();
    let Some((_, root_entries)) = tree.root_entries() else {
        return skyline;
    };
    let mut heap: BinaryHeap<HeapEntry> = root_entries.into_iter().map(HeapEntry::new).collect();
    resume_skyline(tree, &mut skyline, &mut heap);
    skyline
}

/// The shared BBS / ResumeSkyline loop (Algorithm 2, `ResumeSkyline`): pops
/// entries in ascending distance to the sky point; dominated entries go to the
/// pruned list of a dominating skyline object, non-dominated data entries
/// become skyline objects, and non-dominated node entries are expanded.
pub(crate) fn resume_skyline(
    tree: &mut RTree,
    skyline: &mut Skyline,
    heap: &mut BinaryHeap<HeapEntry>,
) {
    resume_skyline_filtered(tree, skyline, heap, &|_| false);
}

/// [`resume_skyline`] with a drop filter: data entries for which `drop`
/// returns `true` are discarded instead of joining the skyline or a pruned
/// list. The long-lived assignment engine uses the filter to keep departed and
/// fully assigned objects out of the maintained free-pool skyline; records
/// already on the skyline are likewise skipped, which makes the loop
/// idempotent in the face of the duplicate data entries a dynamically
/// maintained R-tree can surface (an inserted object is tracked in memory
/// *and* lands on a tree page that may sit un-expanded in a pruned list).
pub(crate) fn resume_skyline_filtered(
    tree: &mut RTree,
    skyline: &mut Skyline,
    heap: &mut BinaryHeap<HeapEntry>,
    drop: &dyn Fn(RecordId) -> bool,
) {
    while let Some(HeapEntry { entry, checked, .. }) = heap.pop() {
        if let NodeEntry::Data(data) = &entry {
            if drop(data.record) || skyline.contains(data.record) {
                continue;
            }
        }
        // If a skyline object dominates the entry, move it to that object's
        // pruned list and continue.
        let entry = match skyline.attach_to_dominator_from(entry, checked) {
            Ok(_) => continue,
            Err(entry) => entry,
        };
        match entry {
            NodeEntry::Data(data) => {
                skyline.insert(SkylineObject::new(data));
            }
            NodeEntry::Child { page, .. } => {
                let (_, children) = tree.node_entries(page);
                for child in children {
                    heap.push(HeapEntry::new(child));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::skyline_naive;
    use pref_geom::Point;
    use pref_rtree::{DataEntry, RTreeConfig, RecordId};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn build_tree(points: &[(RecordId, Point)], fanout: usize) -> RTree {
        let dims = points[0].1.dims();
        RTree::bulk_load(
            RTreeConfig::for_dims(dims).with_fanout(fanout),
            points.to_vec(),
        )
        .unwrap()
    }

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

    fn sorted_records(sky: &Skyline) -> Vec<u64> {
        let mut v: Vec<u64> = sky.records().iter().map(|r| r.0).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_tree_has_empty_skyline() {
        let mut tree = RTree::with_dims(2);
        let sky = compute_skyline_bbs(&mut tree);
        assert!(sky.is_empty());
    }

    #[test]
    fn paper_figure1_example() {
        let points = vec![
            (RecordId(0), Point::from_slice(&[0.5, 0.6])), // a
            (RecordId(1), Point::from_slice(&[0.2, 0.7])), // b
            (RecordId(2), Point::from_slice(&[0.8, 0.2])), // c
            (RecordId(3), Point::from_slice(&[0.4, 0.4])), // d
        ];
        let mut tree = build_tree(&points, 8);
        let sky = compute_skyline_bbs(&mut tree);
        assert_eq!(sorted_records(&sky), vec![0, 1, 2]);
        // d must be in exactly one pruned list (owned by a, the only dominator)
        let owner = sky.get(RecordId(0)).unwrap();
        assert!(owner
            .plist
            .iter()
            .any(|e| e.as_data().map(|d| d.record) == Some(RecordId(3))));
    }

    #[test]
    fn matches_naive_oracle_on_random_data() {
        for dims in 2..=4 {
            for seed in [1u64, 2, 3] {
                let points = random_points(400, dims, seed);
                let mut tree = build_tree(&points, 16);
                let sky = compute_skyline_bbs(&mut tree);
                let mut want: Vec<u64> = skyline_naive(&points).iter().map(|r| r.0).collect();
                want.sort_unstable();
                assert_eq!(sorted_records(&sky), want, "dims={dims} seed={seed}");
            }
        }
    }

    #[test]
    fn every_pruned_entry_is_dominated_by_its_owner() {
        let points = random_points(500, 3, 9);
        let mut tree = build_tree(&points, 12);
        let sky = compute_skyline_bbs(&mut tree);
        for obj in sky.iter() {
            for pruned in &obj.plist {
                let top = pruned.mbr().top_corner();
                assert!(
                    obj.data.point.dominates(&top),
                    "pruned entry not dominated by its owner"
                );
            }
        }
    }

    #[test]
    fn every_non_skyline_object_is_accounted_for() {
        // every data record is either on the skyline, inside a pruned data
        // entry, or inside a pruned subtree
        let points = random_points(300, 2, 10);
        let mut tree = build_tree(&points, 8);
        let sky = compute_skyline_bbs(&mut tree);
        let mut accounted: std::collections::HashSet<u64> =
            sky.records().iter().map(|r| r.0).collect();
        for obj in sky.iter() {
            for pruned in &obj.plist {
                match pruned {
                    NodeEntry::Data(d) => {
                        accounted.insert(d.record.0);
                    }
                    NodeEntry::Child { page, .. } => {
                        // collect the subtree's records without charging I/O
                        let mut stack = vec![*page];
                        while let Some(p) = stack.pop() {
                            let (_, entries) = tree.node_entries(p);
                            for e in entries {
                                match e {
                                    NodeEntry::Data(d) => {
                                        accounted.insert(d.record.0);
                                    }
                                    NodeEntry::Child { page, .. } => stack.push(page),
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(accounted.len(), points.len());
    }

    #[test]
    fn bbs_io_is_no_worse_than_full_scan() {
        let points = random_points(3000, 3, 11);
        let mut tree = build_tree(&points, 32);
        tree.reset_stats();
        let _sky = compute_skyline_bbs(&mut tree);
        let bbs_io = tree.stats().logical_reads;
        assert!(
            (bbs_io as usize) < tree.num_pages(),
            "BBS ({bbs_io}) must access fewer nodes than a full scan ({})",
            tree.num_pages()
        );
    }

    #[test]
    fn correlated_data_has_tiny_skyline_and_tiny_io() {
        // strongly correlated points: skyline is small, BBS touches few nodes
        let mut rng = StdRng::seed_from_u64(13);
        let points: Vec<(RecordId, Point)> = (0..2000)
            .map(|i| {
                let base: f64 = rng.gen_range(0.0..1.0);
                let jitter = |r: &mut StdRng| (r.gen_range(-0.03..0.03f64)).clamp(-0.5, 0.5);
                (
                    RecordId(i),
                    Point::from_slice(&[
                        (base + jitter(&mut rng)).clamp(0.0, 1.0),
                        (base + jitter(&mut rng)).clamp(0.0, 1.0),
                        (base + jitter(&mut rng)).clamp(0.0, 1.0),
                    ]),
                )
            })
            .collect();
        let mut tree = build_tree(&points, 32);
        tree.reset_stats();
        let sky = compute_skyline_bbs(&mut tree);
        assert!(
            sky.len() < 50,
            "correlated skyline should be small: {}",
            sky.len()
        );
        assert!(tree.stats().logical_reads < tree.num_pages() as u64 / 2);
    }

    #[test]
    fn duplicate_points_both_reach_skyline() {
        let points = vec![
            (RecordId(0), Point::from_slice(&[0.9, 0.9])),
            (RecordId(1), Point::from_slice(&[0.9, 0.9])),
            (RecordId(2), Point::from_slice(&[0.1, 0.1])),
        ];
        let mut tree = build_tree(&points, 8);
        let sky = compute_skyline_bbs(&mut tree);
        assert_eq!(sorted_records(&sky), vec![0, 1]);
    }

    #[test]
    fn heap_entry_ordering_is_min_first() {
        let near = HeapEntry::new(NodeEntry::Data(DataEntry::new(
            RecordId(0),
            Point::from_slice(&[0.9, 0.9]),
        )));
        let far = HeapEntry::new(NodeEntry::Data(DataEntry::new(
            RecordId(1),
            Point::from_slice(&[0.1, 0.1]),
        )));
        let mut heap = BinaryHeap::new();
        heap.push(far);
        heap.push(near);
        let first = heap.pop().unwrap();
        assert!(first.dist < 0.5, "closest to the sky point pops first");
    }
}
