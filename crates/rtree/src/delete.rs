//! Deletion: FindLeaf + CondenseTree with re-insertion of orphaned entries.
//!
//! The search reads the nodes it probes without copying them; only the
//! nodes on the path to the record are written, in place. The MBR travels
//! up by folding: once the record is gone below a child, its parent folds
//! the child's entry bounds into the child's new MBR and refreshes its entry
//! with it (a shrink), or frees the underflowing child and moves its entries
//! out for re-insertion.

use crate::entry::{NodeEntry, RecordId};
use crate::insert::PageSplit;
use crate::tree::{RTree, RTreeError};
use pref_geom::{Mbr, Point};
use pref_storage::PageId;

/// One page freed while condensing the tree, together with the entries it
/// held at the moment it was freed. For an underflowed node these are the
/// orphans that were re-inserted elsewhere; for a collapsed root it is the
/// single child entry that was promoted to be the new root.
#[derive(Debug, Clone)]
pub struct FreedPage {
    /// The page that was freed (its id may be reused by later allocations).
    pub page: PageId,
    /// The entries the page held when it was freed. They all reference pages
    /// that are still live (or are data entries); content reachable only
    /// through the freed page stays reachable through them.
    pub contents: Vec<NodeEntry>,
}

/// Every structural effect of one tracked deletion (CondenseTree included),
/// mirroring how [`PageSplit`] reports the effects of a tracked insertion.
///
/// Structures that hold references to un-expanded R-tree pages across
/// deletions — the skyline pruned lists of the maintained
/// `pref_skyline::Skyline` — must drop references to [`DeleteOutcome::freed`]
/// pages, re-anchor those pages' former contents, and patch
/// [`DeleteOutcome::splits`] exactly as for an insertion
/// (`Skyline::patch_page_delete` + `Skyline::patch_page_split`).
#[derive(Debug, Clone, Default)]
pub struct DeleteOutcome {
    /// Pages freed by CondenseTree and by root shrinking, in chronological
    /// order (condense frees first, root collapses last).
    pub freed: Vec<FreedPage>,
    /// Node splits caused by re-inserting orphaned entries (they happen after
    /// every condense free and before any root shrink).
    pub splits: Vec<PageSplit>,
    /// Live pages on the deletion path whose MBR shrank, with their new exact
    /// MBR. Holders of stale (larger) references stay correct — an
    /// over-covering MBR is conservative — but may tighten them with this.
    pub shrinks: Vec<(PageId, Mbr)>,
}

impl RTree {
    /// Deletes the record with the given id located at `point`.
    ///
    /// Both the descent and the subsequent condense/re-insert work are charged
    /// to the I/O statistics, mirroring how the paper charges the deletions
    /// that Brute Force and Chain perform on the object R-tree.
    pub fn delete(&mut self, record: RecordId, point: &Point) -> Result<(), RTreeError> {
        self.delete_tracked(record, point).map(|_| ())
    }

    /// Deletes a record and reports every structural effect of the deletion:
    /// freed pages (with the entries they held), node splits performed while
    /// re-inserting orphaned entries, and MBR shrinks along the deletion
    /// path. Callers that keep references to un-expanded pages — the engine's
    /// maintained skyline with its pruned lists — must patch those references
    /// with the reported [`DeleteOutcome`], otherwise they would later read
    /// freed (or reused) pages and lose track of the re-inserted orphans.
    pub fn delete_tracked(
        &mut self,
        record: RecordId,
        point: &Point,
    ) -> Result<DeleteOutcome, RTreeError> {
        self.check_dims(point)?;
        let Some(root) = self.root else {
            return Err(RTreeError::RecordNotFound(record));
        };
        let mut orphans = Vec::new();
        let mut outcome = DeleteOutcome::default();
        let found = self.delete_recurse(root, record, point, &mut orphans, &mut outcome);
        if !found {
            return Err(RTreeError::RecordNotFound(record));
        }
        self.len -= 1;
        // Re-insert orphaned entries at their original level, tracking the
        // node splits the re-insertions cause.
        for (level, entry) in orphans {
            self.insert_entry_tracked(entry, level, &mut outcome.splits);
        }
        self.shrink_root(&mut outcome);
        Ok(outcome)
    }

    /// Removes the record from the subtree at `page`; `true` if it was
    /// found there. Condensing collects the entries it orphans in `orphans`
    /// with the level to re-insert each at.
    fn delete_recurse(
        &mut self,
        page: PageId,
        record: RecordId,
        point: &Point,
        orphans: &mut Vec<(u32, NodeEntry)>,
        outcome: &mut DeleteOutcome,
    ) -> bool {
        let node = self.store.read(page);
        if node.level == 0 {
            let Some(pos) = node.entries.iter().position(|e| match e {
                NodeEntry::Data(d) => d.record == record && d.point == *point,
                NodeEntry::Child { .. } => false,
            }) else {
                return false;
            };
            self.store.write(page).entries.remove(pos);
            return true;
        }
        let candidates: Vec<(usize, PageId)> = node
            .entries
            .iter()
            .enumerate()
            .filter_map(|(idx, e)| match e {
                NodeEntry::Child { mbr, page } if mbr.contains_point(point) => Some((idx, *page)),
                _ => None,
            })
            .collect();
        for (idx, child_page) in candidates {
            if !self.delete_recurse(child_page, record, point, orphans, outcome) {
                continue;
            }
            let child = self.store.peek(child_page).expect("live page");
            if child.len() < self.config.min_entries {
                // orphan the child's remaining entries and drop the child
                let freed = self.store.free(child_page);
                orphans.extend(freed.entries.iter().map(|e| (freed.level, e.clone())));
                outcome.freed.push(FreedPage {
                    page: child_page,
                    contents: freed.entries,
                });
                self.store.write(page).entries.remove(idx);
            } else {
                let new_mbr = child.mbr();
                if let NodeEntry::Child { mbr, .. } = &mut self.store.write(page).entries[idx] {
                    if *mbr != new_mbr {
                        outcome.shrinks.push((child_page, new_mbr.clone()));
                    }
                    *mbr = new_mbr;
                }
            }
            return true;
        }
        false
    }

    /// Collapses the root while it is a non-leaf with a single child, and
    /// clears the tree when the root leaf becomes empty.
    fn shrink_root(&mut self, outcome: &mut DeleteOutcome) {
        while let Some(root) = self.root {
            let node = self.store.peek(root).expect("live page");
            let collapse = match (node.level, node.len()) {
                (0, 0) => None,
                (level, 1) if level > 0 => Some(
                    node.entries[0]
                        .child_page()
                        .expect("non-leaf entries are child pointers"),
                ),
                _ => return,
            };
            let freed = self.store.free(root);
            outcome.freed.push(FreedPage {
                page: root,
                contents: freed.entries,
            });
            self.root = collapse;
            self.height -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::DataEntry;
    use crate::tree::RTreeConfig;
    use rand::{rngs::StdRng, Rng, SeedableRng};

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

    #[test]
    fn delete_single_record() {
        let mut t = RTree::with_dims(2);
        let p = Point::from_slice(&[0.3, 0.4]);
        t.insert(RecordId(1), p.clone()).unwrap();
        t.delete(RecordId(1), &p).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert_eq!(t.num_pages(), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn delete_missing_record_errors() {
        let mut t = RTree::with_dims(2);
        let p = Point::from_slice(&[0.3, 0.4]);
        assert!(matches!(
            t.delete(RecordId(1), &p),
            Err(RTreeError::RecordNotFound(_))
        ));
        t.insert(RecordId(1), p.clone()).unwrap();
        // right point, wrong id
        assert!(t.delete(RecordId(2), &p).is_err());
        // right id, wrong point
        assert!(t
            .delete(RecordId(1), &Point::from_slice(&[0.5, 0.5]))
            .is_err());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn delete_everything_in_insertion_order() {
        let pts = random_points(300, 3, 17);
        let mut t = RTree::new(RTreeConfig::for_dims(3).with_fanout(8));
        for (r, p) in &pts {
            t.insert(*r, p.clone()).unwrap();
        }
        t.check_invariants().unwrap();
        for (i, (r, p)) in pts.iter().enumerate() {
            t.delete(*r, p).unwrap();
            if i % 50 == 0 {
                t.check_invariants().unwrap();
            }
        }
        assert!(t.is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn delete_everything_in_random_order() {
        let mut pts = random_points(300, 2, 23);
        let mut t = RTree::new(RTreeConfig::for_dims(2).with_fanout(6));
        for (r, p) in &pts {
            t.insert(*r, p.clone()).unwrap();
        }
        // shuffle deterministically
        let mut rng = StdRng::seed_from_u64(99);
        for i in (1..pts.len()).rev() {
            let j = rng.gen_range(0..=i);
            pts.swap(i, j);
        }
        for (i, (r, p)) in pts.iter().enumerate() {
            t.delete(*r, p).unwrap();
            if i % 37 == 0 {
                t.check_invariants().unwrap();
            }
            assert_eq!(t.len(), pts.len() - i - 1);
        }
        assert!(t.is_empty());
    }

    #[test]
    fn interleaved_inserts_and_deletes() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut t = RTree::new(RTreeConfig::for_dims(2).with_fanout(5));
        let mut live: Vec<(RecordId, Point)> = Vec::new();
        let mut next_id = 0u64;
        for step in 0..1200 {
            let do_insert = live.is_empty() || rng.gen_bool(0.6);
            if do_insert {
                let p = Point::from_slice(&[rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
                t.insert(RecordId(next_id), p.clone()).unwrap();
                live.push((RecordId(next_id), p));
                next_id += 1;
            } else {
                let idx = rng.gen_range(0..live.len());
                let (r, p) = live.swap_remove(idx);
                t.delete(r, &p).unwrap();
            }
            assert_eq!(t.len(), live.len());
            if step % 200 == 0 {
                t.check_invariants().unwrap();
            }
        }
        t.check_invariants().unwrap();
        // remaining data matches the model
        let mut got: Vec<u64> = t
            .all_data_unaccounted()
            .iter()
            .map(|d| d.record.0)
            .collect();
        let mut want: Vec<u64> = live.iter().map(|(r, _)| r.0).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn duplicate_points_delete_by_record_id() {
        let mut t = RTree::new(RTreeConfig::for_dims(2).with_fanout(4));
        let p = Point::from_slice(&[0.5, 0.5]);
        for i in 0..10 {
            t.insert(RecordId(i), p.clone()).unwrap();
        }
        t.delete(RecordId(3), &p).unwrap();
        assert_eq!(t.len(), 9);
        let remaining: Vec<u64> = t
            .all_data_unaccounted()
            .iter()
            .map(|d: &DataEntry| d.record.0)
            .collect();
        assert!(!remaining.contains(&3));
        t.check_invariants().unwrap();
    }

    /// The tracked report must be a complete account of the structural
    /// damage: freed pages are really gone, every re-insertion split names a
    /// live sibling, and every remaining record is still findable.
    #[test]
    fn tracked_delete_reports_frees_splits_and_shrinks() {
        let pts = random_points(400, 2, 71);
        let mut t = RTree::new(RTreeConfig::for_dims(2).with_fanout(4));
        for (r, p) in &pts {
            t.insert(*r, p.clone()).unwrap();
        }
        let mut total_freed = 0usize;
        let mut total_splits = 0usize;
        let mut total_shrinks = 0usize;
        for (i, (r, p)) in pts.iter().enumerate() {
            let pages_before = t.num_pages();
            let outcome = t.delete_tracked(*r, p).unwrap();
            // page count evolves exactly by the reported frees and splits
            // (plus at most one unreported root growth during re-insertion)
            let grows = (t.num_pages() + outcome.freed.len())
                .checked_sub(pages_before + outcome.splits.len())
                .expect("more pages vanished than were reported freed");
            assert!(grows <= 1, "{grows} unexplained page allocations");
            for freed in &outcome.freed {
                // the freed page's contents reference only live pages
                for entry in &freed.contents {
                    if let Some(child) = entry.child_page() {
                        assert!(
                            t.store.peek(child).is_some(),
                            "freed page {} content references dead page {child}",
                            freed.page
                        );
                    }
                }
            }
            for split in &outcome.splits {
                assert_ne!(split.old_page, split.new_page);
                assert!(t.store.peek(split.new_page).is_some());
            }
            for (page, _) in &outcome.shrinks {
                // shrink targets never underflow, so they survive the whole
                // operation (a collapsed root's promoted child stays live too)
                assert!(
                    t.store.peek(*page).is_some(),
                    "shrink reported for dead page {page}"
                );
            }
            total_freed += outcome.freed.len();
            total_splits += outcome.splits.len();
            total_shrinks += outcome.shrinks.len();
            if i % 67 == 0 {
                t.check_invariants().unwrap();
            }
        }
        assert!(t.is_empty());
        assert!(total_freed > 50, "only {total_freed} frees reported");
        assert!(total_shrinks > 50, "only {total_shrinks} shrinks reported");
        // fanout-4 condense/re-insert cascades must split at least sometimes
        assert!(total_splits > 0, "no re-insertion splits reported");
    }

    #[test]
    fn tracked_delete_on_leaf_root_reports_the_final_free() {
        let mut t = RTree::with_dims(2);
        let p = Point::from_slice(&[0.3, 0.4]);
        t.insert(RecordId(1), p.clone()).unwrap();
        let root = t.root_page().unwrap();
        let outcome = t.delete_tracked(RecordId(1), &p).unwrap();
        assert_eq!(outcome.freed.len(), 1);
        assert_eq!(outcome.freed[0].page, root);
        assert!(outcome.freed[0].contents.is_empty());
        assert!(outcome.splits.is_empty());
        assert!(t.is_empty());
    }

    #[test]
    fn deletion_charges_io() {
        let pts = random_points(200, 2, 41);
        let mut t = RTree::new(RTreeConfig::for_dims(2).with_fanout(8));
        for (r, p) in &pts {
            t.insert(*r, p.clone()).unwrap();
        }
        t.reset_stats();
        for (r, p) in pts.iter().take(50) {
            t.delete(*r, p).unwrap();
        }
        assert!(t.stats().logical_reads > 0);
        assert!(t.stats().physical_writes > 0);
    }
}
