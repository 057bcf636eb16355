//! Dynamic insertion: ChooseSubtree, quadratic node splitting, root growth.
//!
//! Every node on the path is read on the way down and edited in place on the
//! way up ([`pref_storage::PagedStore::write`]). The covering MBR travels up
//! through the return value: a node that took the entry grew by exactly the
//! entry's bounds, which its parent folds into the child's entry; a node
//! that split hands up its new MBR and its sibling's entry.

use crate::entry::{DataEntry, Node, NodeEntry, RecordId};
use crate::tree::{RTree, RTreeError};
use pref_geom::{Mbr, Point};
use pref_storage::PageId;

/// One node split performed during a tracked insertion: `old_page` kept one
/// half of its entries and handed the other half to the freshly allocated
/// `new_page` (covered by `new_mbr`).
///
/// Structures that hold references to un-expanded R-tree pages across
/// insertions — the skyline pruned lists of the maintained
/// `pref_skyline::Skyline` — use this report to learn that part of
/// `old_page`'s content now lives in `new_page`.
#[derive(Debug, Clone)]
pub struct PageSplit {
    /// The page that was split (it keeps the left half of its entries).
    pub old_page: PageId,
    /// The newly allocated sibling holding the right half of the entries.
    pub new_page: PageId,
    /// The sibling's MBR (it may include the region of the entry whose
    /// arrival caused the split).
    pub new_mbr: Mbr,
}

impl RTree {
    /// Inserts a record into the tree.
    ///
    /// Node accesses performed by the insertion are charged to the I/O
    /// statistics — the competitors of the paper (Brute Force, Chain) pay for
    /// their index maintenance, and so does this implementation.
    pub fn insert(&mut self, record: RecordId, point: Point) -> Result<(), RTreeError> {
        self.insert_tracked(record, point).map(|_| ())
    }

    /// Inserts a record and reports every node split the insertion performed
    /// (bottom-up order). Callers that keep references to un-expanded pages —
    /// the engine's maintained skyline with its pruned lists — must patch
    /// those references with the reported [`PageSplit`]s, otherwise entries
    /// moved to the new sibling pages would escape later maintenance.
    pub fn insert_tracked(
        &mut self,
        record: RecordId,
        point: Point,
    ) -> Result<Vec<PageSplit>, RTreeError> {
        self.check_dims(&point)?;
        let entry = NodeEntry::Data(DataEntry::new(record, point));
        let mut splits = Vec::new();
        self.insert_entry_tracked(entry, 0, &mut splits);
        self.len += 1;
        Ok(splits)
    }

    /// Inserts an arbitrary entry at the node level `target_level`
    /// (0 = leaves), appending any node splits performed to `splits`. Used by
    /// [`RTree::insert_tracked`] and by the re-insertion phase of deletion.
    pub(crate) fn insert_entry_tracked(
        &mut self,
        entry: NodeEntry,
        target_level: u32,
        splits: &mut Vec<PageSplit>,
    ) {
        match self.root {
            None => {
                debug_assert_eq!(target_level, 0, "first entry must be a data entry");
                let node = Node {
                    level: 0,
                    entries: vec![entry],
                };
                let page = self.store.allocate(node);
                self.root = Some(page);
                self.height = 1;
            }
            Some(root) => {
                let covered = entry.mbr();
                if let Some((mbr, sibling)) =
                    self.insert_recurse(root, entry, &covered, target_level, splits)
                {
                    self.grow_root(mbr, sibling);
                }
            }
        }
    }

    /// Grows the tree by one level: the old root (now covered by `old_mbr`)
    /// and `sibling` become the two entries of a new root.
    fn grow_root(&mut self, old_mbr: Mbr, sibling: NodeEntry) {
        let old_root = self.root.expect("grow_root requires a root");
        let new_root = Node {
            level: self.height,
            entries: vec![
                NodeEntry::Child {
                    mbr: old_mbr,
                    page: old_root,
                },
                sibling,
            ],
        };
        let page = self.store.allocate(new_root);
        self.root = Some(page);
        self.height += 1;
    }

    /// Inserts `entry`, whose bounds are `covered`, below `page`: each node
    /// is read on the way down and written in place on the way up. Returns
    /// `None` when the node took the entry, and so grew by exactly
    /// `covered`, or its new MBR and its sibling's entry when it split.
    fn insert_recurse(
        &mut self,
        page: PageId,
        entry: NodeEntry,
        covered: &Mbr,
        target_level: u32,
        splits: &mut Vec<PageSplit>,
    ) -> Option<(Mbr, NodeEntry)> {
        let node = self.store.read(page);
        let (level, len) = (node.level, node.len());
        if level == target_level {
            return self.add_entry(page, len, entry, None, splits);
        }
        debug_assert!(level > target_level, "descended past the target level");
        let idx = Self::choose_subtree(&node.entries, covered);
        let child_page = node.entries[idx]
            .child_page()
            .expect("non-leaf entries are child pointers");
        match self.insert_recurse(child_page, entry, covered, target_level, splits) {
            None => {
                if let NodeEntry::Child { mbr, .. } = &mut self.store.write(page).entries[idx] {
                    mbr.expand_to_mbr(covered);
                }
                None
            }
            Some((mbr, sibling)) => self.add_entry(page, len, sibling, Some((idx, mbr)), splits),
        }
    }

    /// Adds `entry` to the node at `page` (`len` entries) after setting
    /// entry `refresh.0`'s MBR to `refresh.1`; returns as `insert_recurse`.
    /// A split allocates the sibling before it writes the node, in buffer
    /// order, so it copies the node's entries out rather than moving them.
    fn add_entry(
        &mut self,
        page: PageId,
        len: usize,
        entry: NodeEntry,
        refresh: Option<(usize, Mbr)>,
        splits: &mut Vec<PageSplit>,
    ) -> Option<(Mbr, NodeEntry)> {
        let add = move |entries: &mut Vec<NodeEntry>| {
            if let Some((idx, new_mbr)) = refresh {
                if let NodeEntry::Child { mbr, .. } = &mut entries[idx] {
                    *mbr = new_mbr;
                }
            }
            entries.push(entry);
        };
        if len < self.config.max_entries {
            add(&mut self.store.write(page).entries);
            return None;
        }
        let node = self.store.peek(page).expect("live page");
        let level = node.level;
        let mut entries = node.entries.clone();
        add(&mut entries);
        let (left, right) = self.quadratic_split(entries);
        let right_node = Node {
            level,
            entries: right,
        };
        let right_mbr = right_node.mbr();
        let right_page = self.store.allocate(right_node);
        let node = self.store.write(page);
        node.entries = left;
        splits.push(PageSplit {
            old_page: page,
            new_page: right_page,
            new_mbr: right_mbr.clone(),
        });
        let sibling = NodeEntry::Child {
            mbr: right_mbr,
            page: right_page,
        };
        Some((node.mbr(), sibling))
    }

    /// Guttman's ChooseSubtree: the child whose MBR needs the least
    /// enlargement to cover the new entry; ties are broken by smaller area.
    /// Reads every bound in place.
    fn choose_subtree(entries: &[NodeEntry], covered: &Mbr) -> usize {
        let mut best = 0usize;
        let mut best_enlargement = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        for (idx, e) in entries.iter().enumerate() {
            let (lower, upper) = e.bounds();
            let (enlargement, area) =
                Mbr::enlargement_of_bounds(lower, upper, covered.lower(), covered.upper());
            if enlargement < best_enlargement
                || (enlargement == best_enlargement && area < best_area)
            {
                best = idx;
                best_enlargement = enlargement;
                best_area = area;
            }
        }
        best
    }

    /// Guttman's quadratic split: pick the pair of entries that would waste
    /// the most area if placed together as seeds, then greedily assign the
    /// remaining entries to the group whose MBR grows least, while making
    /// sure both groups can still reach the minimum fill.
    pub(crate) fn quadratic_split(
        &self,
        entries: Vec<NodeEntry>,
    ) -> (Vec<NodeEntry>, Vec<NodeEntry>) {
        let min = self.config.min_entries;
        let mbrs: Vec<Mbr> = entries.iter().map(NodeEntry::mbr).collect();
        let n = entries.len();
        debug_assert!(n >= 2);

        // PickSeeds
        let (mut seed_a, mut seed_b, mut worst_waste) = (0usize, 1usize, f64::NEG_INFINITY);
        for i in 0..n {
            for j in (i + 1)..n {
                let waste = mbrs[i].union(&mbrs[j]).area() - mbrs[i].area() - mbrs[j].area();
                if waste > worst_waste {
                    worst_waste = waste;
                    seed_a = i;
                    seed_b = j;
                }
            }
        }

        let mut group_a: Vec<usize> = vec![seed_a];
        let mut group_b: Vec<usize> = vec![seed_b];
        let mut mbr_a = mbrs[seed_a].clone();
        let mut mbr_b = mbrs[seed_b].clone();
        let mut remaining: Vec<usize> = (0..n).filter(|&i| i != seed_a && i != seed_b).collect();
        while !remaining.is_empty() {
            // a group that needs every remaining entry to reach the minimum
            // fill takes them all
            if group_a.len() + remaining.len() == min {
                group_a.append(&mut remaining);
                break;
            }
            if group_b.len() + remaining.len() == min {
                group_b.append(&mut remaining);
                break;
            }
            // PickNext: the entry with the greatest preference for one group
            let mut best_pos = 0usize;
            let mut best_diff = f64::NEG_INFINITY;
            for (pos, &i) in remaining.iter().enumerate() {
                let diff = (mbr_a.enlargement(&mbrs[i]) - mbr_b.enlargement(&mbrs[i])).abs();
                if diff > best_diff {
                    best_diff = diff;
                    best_pos = pos;
                }
            }
            let i = remaining.swap_remove(best_pos);
            let d_a = mbr_a.enlargement(&mbrs[i]);
            let d_b = mbr_b.enlargement(&mbrs[i]);
            let to_a = match d_a.partial_cmp(&d_b) {
                Some(std::cmp::Ordering::Less) => true,
                Some(std::cmp::Ordering::Greater) => false,
                _ => {
                    // tie-break: smaller area, then fewer entries
                    if mbr_a.area() != mbr_b.area() {
                        mbr_a.area() < mbr_b.area()
                    } else {
                        group_a.len() <= group_b.len()
                    }
                }
            };
            if to_a {
                mbr_a.expand_to_mbr(&mbrs[i]);
                group_a.push(i);
            } else {
                mbr_b.expand_to_mbr(&mbrs[i]);
                group_b.push(i);
            }
        }

        let mut slots: Vec<Option<NodeEntry>> = entries.into_iter().map(Some).collect();
        let mut take = |group: &[usize]| -> Vec<NodeEntry> {
            group
                .iter()
                .map(|&i| slots[i].take().expect("entry assigned to one group only"))
                .collect()
        };
        let (left, right) = (take(&group_a), take(&group_b));
        debug_assert!(left.len() >= min && right.len() >= min);
        (left, right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::RTreeConfig;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn pt(rng: &mut StdRng, dims: usize) -> Point {
        Point::from_slice(
            &(0..dims)
                .map(|_| rng.gen_range(0.0..1.0))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn insert_single_point_creates_leaf_root() {
        let mut t = RTree::with_dims(2);
        t.insert(RecordId(1), Point::from_slice(&[0.3, 0.4]))
            .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        assert_eq!(t.num_pages(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_rejects_wrong_dimensionality() {
        let mut t = RTree::with_dims(2);
        let err = t.insert(RecordId(1), Point::from_slice(&[0.3, 0.4, 0.5]));
        assert!(err.is_err());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn insert_many_keeps_invariants_and_grows_height() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut t = RTree::new(RTreeConfig::for_dims(2).with_fanout(8));
        for i in 0..500 {
            t.insert(RecordId(i), pt(&mut rng, 2)).unwrap();
        }
        assert_eq!(t.len(), 500);
        assert!(t.height() >= 3, "fanout 8 with 500 points must be deep");
        t.check_invariants().unwrap();
        // every point must be findable
        assert_eq!(t.all_data_unaccounted().len(), 500);
    }

    #[test]
    fn insert_duplicates_allowed() {
        let mut t = RTree::new(RTreeConfig::for_dims(2).with_fanout(4));
        let p = Point::from_slice(&[0.5, 0.5]);
        for i in 0..20 {
            t.insert(RecordId(i), p.clone()).unwrap();
        }
        assert_eq!(t.len(), 20);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insertion_charges_io() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut t = RTree::new(RTreeConfig::for_dims(3).with_fanout(8));
        for i in 0..200 {
            t.insert(RecordId(i), pt(&mut rng, 3)).unwrap();
        }
        let stats = t.stats();
        assert!(stats.logical_reads > 0);
        assert!(stats.physical_writes > 0);
    }

    #[test]
    fn tracked_insert_reports_every_split() {
        let mut rng = StdRng::seed_from_u64(19);
        let mut t = RTree::new(RTreeConfig::for_dims(2).with_fanout(4));
        let mut total_splits = 0usize;
        for i in 0..300 {
            let splits = t.insert_tracked(RecordId(i), pt(&mut rng, 2)).unwrap();
            for s in &splits {
                // the sibling is a live page whose contents fit the report
                let (_, entries) = t.node_entries(s.new_page);
                assert!(!entries.is_empty());
                for e in &entries {
                    assert!(
                        s.new_mbr.contains_mbr(&e.mbr()),
                        "sibling entry escapes the reported MBR"
                    );
                }
                assert_ne!(s.old_page, s.new_page);
            }
            total_splits += splits.len();
        }
        // fanout 4 with 300 points must split many times, incl. inner nodes
        assert!(total_splits > 50, "only {total_splits} splits reported");
        t.check_invariants().unwrap();
        assert_eq!(t.all_data_unaccounted().len(), 300);
    }

    #[test]
    fn tracked_insert_without_overflow_reports_nothing() {
        let mut t = RTree::new(RTreeConfig::for_dims(2).with_fanout(8));
        for i in 0..4 {
            let splits = t
                .insert_tracked(RecordId(i), Point::from_slice(&[0.1 * i as f64, 0.5]))
                .unwrap();
            assert!(splits.is_empty());
        }
    }

    #[test]
    fn quadratic_split_respects_min_fill() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = RTree::new(RTreeConfig::for_dims(2).with_fanout(10));
        let entries: Vec<NodeEntry> = (0..11)
            .map(|i| NodeEntry::Data(DataEntry::new(RecordId(i), pt(&mut rng, 2))))
            .collect();
        let (l, r) = t.quadratic_split(entries);
        assert_eq!(l.len() + r.len(), 11);
        assert!(l.len() >= t.config.min_entries);
        assert!(r.len() >= t.config.min_entries);
    }

    #[test]
    fn clustered_inserts_are_spatially_separated_after_split() {
        // two well-separated clusters should mostly end up in different subtrees
        let mut t = RTree::new(RTreeConfig::for_dims(2).with_fanout(4));
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..30 {
            let base = if i % 2 == 0 { 0.1 } else { 0.9 };
            let p = Point::from_slice(&[
                base + rng.gen_range(-0.05..0.05),
                base + rng.gen_range(-0.05..0.05),
            ]);
            t.insert(RecordId(i), p).unwrap();
        }
        t.check_invariants().unwrap();
        assert!(t.height() >= 2);
    }
}
