//! The maintained skyline set and its bookkeeping.

use pref_geom::{kernel, Mbr, SoaBlock};
use pref_rtree::{DataEntry, DeleteOutcome, NodeEntry, RecordId};
use pref_storage::{PageId, PeakTracker};
use std::collections::HashMap;

/// A skyline object together with its pruned list.
///
/// During BBS and UpdateSkyline every pruned entry (a dominated R-tree node
/// entry or data object) is attached to exactly one skyline object that
/// dominates it. When that skyline object is later removed (because it was
/// assigned to a preference function), its `plist` is exactly the set of
/// entries that may contain new skyline objects.
#[derive(Debug, Clone)]
pub struct SkylineObject {
    /// The skyline object itself.
    pub data: DataEntry,
    /// Entries pruned by (and therefore "owned" by) this object.
    pub plist: Vec<NodeEntry>,
}

impl SkylineObject {
    /// Creates a skyline object with an empty pruned list.
    pub fn new(data: DataEntry) -> Self {
        Self {
            data,
            plist: Vec::new(),
        }
    }

    /// Approximate size in bytes of this object's bookkeeping (the object
    /// itself plus its pruned list); used for the paper's memory-usage metric.
    pub fn memory_bytes(&self) -> u64 {
        let dims = self.data.point.dims();
        let per_entry = (2 * dims * 8 + 16) as u64;
        per_entry + self.plist.len() as u64 * per_entry
    }
}

/// The current skyline of the remaining objects, with per-object pruned lists.
///
/// Alongside the object vector the skyline maintains a columnar
/// [`SoaBlock`] mirror of the object points (kept index-aligned through
/// every insert and swap-removal), so the dominance pruning scans —
/// [`Skyline::dominates_point`] and [`Skyline::attach_to_dominator`] — run
/// as contiguous-lane kernel scans instead of chasing per-point heap boxes,
/// and a record → row index, so [`Skyline::contains`], [`Skyline::get`],
/// [`Skyline::get_mut`] and [`Skyline::remove`] are O(1) in the skyline size.
/// The dominance scans stay O(|S|·D); iteration order is row order, never
/// the index's.
#[derive(Debug, Clone, Default)]
pub struct Skyline {
    objects: Vec<SkylineObject>,
    /// Dimension-major mirror of `objects[i].data.point`, same order.
    soa: SoaBlock,
    /// `objects[rows[r]].data.record == r` for every skyline record `r`.
    /// Rows move in two places only, [`Skyline::insert`] and
    /// [`Skyline::remove`]; looked up by key, never iterated.
    rows: HashMap<RecordId, usize>,
}

impl Skyline {
    /// Creates an empty skyline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of skyline objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// `true` when the skyline is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Iterates over the skyline objects.
    pub fn iter(&self) -> impl Iterator<Item = &SkylineObject> {
        self.objects.iter()
    }

    /// Iterates over the skyline data entries.
    pub fn data_entries(&self) -> impl Iterator<Item = &DataEntry> {
        self.objects.iter().map(|o| &o.data)
    }

    /// Borrowed views of the skyline entries: `(record, &point)` pairs in
    /// skyline order, without cloning any point. The solver hot paths iterate
    /// these views once per loop instead of materializing an owned copy of the
    /// whole point set.
    pub fn entry_views(&self) -> impl Iterator<Item = (RecordId, &pref_geom::Point)> {
        self.data_entries().map(|d| (d.record, &d.point))
    }

    /// The maintained columnar mirror of the skyline points, for batch
    /// scoring without copying them out: row `i` is the point of the object
    /// [`Skyline::record_at`]`(i)` names. Rows follow skyline order —
    /// insertions append, removals swap the last row into the gap.
    pub fn block(&self) -> &SoaBlock {
        &self.soa
    }

    /// Record id of the skyline object in row `row` of [`Skyline::block`].
    ///
    /// # Panics
    /// Panics if `row >= self.len()`.
    pub fn record_at(&self, row: usize) -> RecordId {
        self.objects[row].data.record
    }

    /// Record ids of the skyline objects.
    pub fn records(&self) -> Vec<RecordId> {
        self.objects.iter().map(|o| o.data.record).collect()
    }

    /// `true` iff the record is currently a skyline object.
    pub fn contains(&self, record: RecordId) -> bool {
        self.rows.contains_key(&record)
    }

    /// Returns the skyline object for a record.
    pub fn get(&self, record: RecordId) -> Option<&SkylineObject> {
        self.rows.get(&record).map(|&row| &self.objects[row])
    }

    /// Mutable access to a skyline object (used to grow pruned lists).
    pub fn get_mut(&mut self, record: RecordId) -> Option<&mut SkylineObject> {
        self.rows.get(&record).map(|&row| &mut self.objects[row])
    }

    /// Adds a new skyline object.
    ///
    /// # Panics
    /// Panics if the record is already on the skyline.
    pub fn insert(&mut self, object: SkylineObject) {
        let previous = self.rows.insert(object.data.record, self.objects.len());
        assert!(
            previous.is_none(),
            "duplicate skyline insertion for {}",
            object.data.record
        );
        self.soa.push_point(&object.data.point);
        self.objects.push(object);
    }

    /// Removes and returns a skyline object (keeping its pruned list intact),
    /// or `None` if the record is not on the skyline.
    pub fn remove(&mut self, record: RecordId) -> Option<SkylineObject> {
        let row = self.rows.remove(&record)?;
        self.soa.swap_remove(row);
        let object = self.objects.swap_remove(row);
        // the last row (if it was not the one removed) now fills the gap
        if let Some(moved) = self.objects.get(row) {
            self.rows.insert(moved.data.record, row);
        }
        Some(object)
    }

    /// Attaches a pruned entry to the *first* skyline object that dominates
    /// its best corner, if any; returns `true` on success. The paper keeps
    /// each pruned entry in exactly one pruned list to bound memory. The
    /// dominator lookup is a columnar kernel scan over the point mirror; the
    /// first-match semantics (index order) are those of the scalar scan.
    pub fn attach_to_dominator(&mut self, entry: NodeEntry) -> Result<(), NodeEntry> {
        match kernel::first_dominator(&self.soa, entry.best_corner()) {
            Some(pos) => {
                self.objects[pos].plist.push(entry);
                Ok(())
            }
            None => Err(entry),
        }
    }

    /// `true` iff some skyline object dominates the given point (a columnar
    /// kernel scan — the skyline pruning hot path).
    pub fn dominates_point(&self, point: &pref_geom::Point) -> bool {
        kernel::first_dominator(&self.soa, point.coords()).is_some()
    }

    /// Repairs the pruned lists after an R-tree node split: if `old_page` is
    /// referenced by some pruned list (i.e. it was pruned but never expanded),
    /// the given entry for the newly created sibling page is appended to the
    /// same list, so the entries that moved to the sibling stay reachable by
    /// later `UpdateSkyline` calls. Returns `true` when a patch was applied.
    ///
    /// Every *pre-existing* record reachable through the old reference was
    /// dominated by the owning skyline object and stays reachable through
    /// `{old, patched}` together. The sibling's MBR may additionally cover
    /// the just-inserted point, whose top corner the owner need not dominate;
    /// that over-coverage is benign — the arrival's authoritative copy is
    /// classified against the skyline at insertion time, and the filtered
    /// resume loop drops duplicate data entries when the page is eventually
    /// expanded.
    pub fn patch_page_split(&mut self, old_page: PageId, new_entry: NodeEntry) -> bool {
        for object in &mut self.objects {
            let referenced = object
                .plist
                .iter()
                .any(|e| matches!(e, NodeEntry::Child { page, .. } if *page == old_page));
            if referenced {
                object.plist.push(new_entry);
                return true;
            }
        }
        false
    }

    /// Removes every pruned-list *data* entry carrying the given record, and
    /// returns how many were removed. Used when a record id is re-issued
    /// after its previous bearer was physically deleted from the R-tree: the
    /// deletion removes the tree copy, but a pruned list may still hold the
    /// predecessor's data entry (with the predecessor's point), which would
    /// otherwise be mis-attributed to the new bearer when it resurfaces.
    pub fn purge_record(&mut self, record: RecordId) -> usize {
        let mut purged = 0usize;
        for object in &mut self.objects {
            object.plist.retain(|e| {
                let stale = matches!(e, NodeEntry::Data(d) if d.record == record);
                purged += usize::from(stale);
                !stale
            });
        }
        purged
    }

    /// `true` iff some pruned list holds a child entry for the given page.
    pub fn references_page(&self, page: PageId) -> bool {
        self.objects
            .iter()
            .any(|o| o.plist.iter().any(|e| e.references_page(page)))
    }

    /// Repairs the pruned lists after a tracked R-tree deletion
    /// ([`pref_rtree::RTree::delete_tracked`]): the counterpart of
    /// [`Skyline::patch_page_split`] for CondenseTree.
    ///
    /// Three repairs are applied, in order:
    ///
    /// 1. every pruned-list reference to a freed page is dropped (the page is
    ///    gone; its id may even be reused by an unrelated node),
    /// 2. pruned-list references to surviving pages whose MBR shrank are
    ///    tightened to the new exact MBR (stale larger MBRs are conservative,
    ///    so this only sharpens later dominance checks),
    /// 3. the freed pages' former contents — the orphaned entries that
    ///    CondenseTree re-inserted elsewhere in the tree — are *re-anchored*:
    ///    each entry is attached to a skyline object that dominates it, or,
    ///    failing that, appended to the first object's pruned list. The
    ///    fallback is sound for the same reason over-coverage is benign in
    ///    [`Skyline::patch_page_split`]: the filtered resume loop re-checks
    ///    dominance when an entry is popped, drops records the caller filters
    ///    out (departed / fully assigned / duplicates), and skips records
    ///    already on the skyline — losing *reachability* is the only
    ///    correctness hazard, and re-anchoring prevents exactly that.
    ///
    /// Entries whose page some pruned list already references are not
    /// re-anchored (they stay reachable through the existing reference), and
    /// neither are entries for pages freed later in the same cascade (their
    /// own contents are re-anchored instead). With an empty skyline there is
    /// nothing to anchor to, and nothing is needed: no pruned lists exist, so
    /// no record relies on pruned-list reachability.
    ///
    /// The re-insertion node splits reported by the same [`DeleteOutcome`]
    /// must afterwards be patched via [`Skyline::patch_page_split`]; use
    /// [`Skyline::patch_page_delete`] to apply the full report in order.
    ///
    /// Returns the number of dropped page references.
    pub fn patch_pages_freed(
        &mut self,
        freed_pages: &[PageId],
        reanchor: Vec<NodeEntry>,
        shrinks: &[(PageId, Mbr)],
    ) -> usize {
        let mut dropped = 0usize;
        for object in &mut self.objects {
            object.plist.retain(|e| {
                let stale = freed_pages.iter().any(|p| e.references_page(*p));
                dropped += usize::from(stale);
                !stale
            });
            for e in &mut object.plist {
                if let NodeEntry::Child { page, mbr } = e {
                    if let Some((_, tight)) = shrinks.iter().find(|(p, _)| p == page) {
                        *mbr = tight.clone();
                    }
                }
            }
        }
        for entry in reanchor {
            match &entry {
                NodeEntry::Child { page, .. } => {
                    if freed_pages.contains(page) || self.references_page(*page) {
                        continue;
                    }
                }
                NodeEntry::Data(d) => {
                    // a skyline object's own (relocated) tree copy needs no
                    // pruned-list anchor; the resume loop skips it anyway
                    if self.contains(d.record) {
                        continue;
                    }
                }
            }
            if let Err(entry) = self.attach_to_dominator(entry) {
                if let Some(first) = self.objects.first_mut() {
                    first.plist.push(entry);
                }
            }
        }
        dropped
    }

    /// Applies a full [`DeleteOutcome`] — freed-page reference drops, orphan
    /// re-anchoring, MBR tightening, then the re-insertion splits — keeping
    /// the pruned lists consistent across one physical R-tree deletion.
    ///
    /// Returns the number of dropped page references.
    pub fn patch_page_delete(&mut self, outcome: &DeleteOutcome) -> usize {
        let freed_pages: Vec<PageId> = outcome.freed.iter().map(|f| f.page).collect();
        let reanchor: Vec<NodeEntry> = outcome
            .freed
            .iter()
            .flat_map(|f| f.contents.iter().cloned())
            .collect();
        let dropped = self.patch_pages_freed(&freed_pages, reanchor, &outcome.shrinks);
        for split in &outcome.splits {
            self.patch_page_split(
                split.old_page,
                NodeEntry::Child {
                    mbr: split.new_mbr.clone(),
                    page: split.new_page,
                },
            );
        }
        dropped
    }

    /// Total approximate memory of the skyline and all pruned lists, in bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.objects.iter().map(SkylineObject::memory_bytes).sum()
    }

    /// Records the current memory footprint into a [`PeakTracker`].
    pub fn observe_memory(&self, tracker: &mut PeakTracker) {
        tracker.observe(self.memory_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pref_geom::{Mbr, Point};
    use pref_storage::PageId;

    fn data(id: u64, coords: &[f64]) -> DataEntry {
        DataEntry::new(RecordId(id), Point::from_slice(coords))
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = Skyline::new();
        assert!(s.is_empty());
        s.insert(SkylineObject::new(data(1, &[0.9, 0.2])));
        s.insert(SkylineObject::new(data(2, &[0.2, 0.9])));
        assert_eq!(s.len(), 2);
        assert!(s.contains(RecordId(1)));
        assert!(!s.contains(RecordId(3)));
        assert_eq!(s.records().len(), 2);
        let removed = s.remove(RecordId(1)).unwrap();
        assert_eq!(removed.data.record, RecordId(1));
        assert!(!s.contains(RecordId(1)));
        assert!(s.remove(RecordId(1)).is_none());
    }

    #[test]
    fn attach_to_dominator_prefers_existing_objects() {
        let mut s = Skyline::new();
        s.insert(SkylineObject::new(data(1, &[0.9, 0.8])));
        // a dominated data entry
        let pruned = NodeEntry::Data(data(5, &[0.5, 0.5]));
        assert!(s.attach_to_dominator(pruned).is_ok());
        assert_eq!(s.get(RecordId(1)).unwrap().plist.len(), 1);
        // a non-dominated entry comes back
        let free = NodeEntry::Data(data(6, &[0.95, 0.1]));
        assert!(s.attach_to_dominator(free).is_err());
    }

    #[test]
    fn attach_subtree_entries_by_top_corner() {
        let mut s = Skyline::new();
        s.insert(SkylineObject::new(data(1, &[0.9, 0.9])));
        let covered = NodeEntry::Child {
            mbr: Mbr::new(vec![0.1, 0.1], vec![0.5, 0.5]).unwrap(),
            page: PageId::new(3),
        };
        assert!(s.attach_to_dominator(covered).is_ok());
        let escaping = NodeEntry::Child {
            mbr: Mbr::new(vec![0.1, 0.1], vec![0.95, 0.5]).unwrap(),
            page: PageId::new(4),
        };
        assert!(s.attach_to_dominator(escaping).is_err());
    }

    #[test]
    fn dominates_point_checks_all_objects() {
        let mut s = Skyline::new();
        s.insert(SkylineObject::new(data(1, &[0.9, 0.2])));
        s.insert(SkylineObject::new(data(2, &[0.2, 0.9])));
        assert!(s.dominates_point(&Point::from_slice(&[0.1, 0.1])));
        assert!(!s.dominates_point(&Point::from_slice(&[0.5, 0.5])));
    }

    #[test]
    fn patch_pages_freed_drops_refs_tightens_and_reanchors() {
        let mut s = Skyline::new();
        s.insert(SkylineObject::new(data(1, &[0.9, 0.9])));
        s.insert(SkylineObject::new(data(2, &[0.95, 0.1])));
        // two pruned page references and a pruned data entry
        let freed = PageId::new(3);
        let kept = PageId::new(4);
        s.attach_to_dominator(NodeEntry::Child {
            mbr: Mbr::new(vec![0.1, 0.1], vec![0.5, 0.5]).unwrap(),
            page: freed,
        })
        .unwrap();
        s.attach_to_dominator(NodeEntry::Child {
            mbr: Mbr::new(vec![0.1, 0.1], vec![0.6, 0.6]).unwrap(),
            page: kept,
        })
        .unwrap();
        assert!(s.references_page(freed));
        // the freed page's contents: a dominated data entry, a dominated
        // subtree, and an entry nobody dominates (force-anchored)
        let orphan_data = NodeEntry::Data(data(7, &[0.4, 0.4]));
        let orphan_child = NodeEntry::Child {
            mbr: Mbr::new(vec![0.2, 0.2], vec![0.3, 0.3]).unwrap(),
            page: PageId::new(9),
        };
        let escaping = NodeEntry::Child {
            mbr: Mbr::new(vec![0.0, 0.0], vec![0.99, 0.99]).unwrap(),
            page: PageId::new(10),
        };
        let tight = Mbr::new(vec![0.1, 0.1], vec![0.55, 0.55]).unwrap();
        let dropped = s.patch_pages_freed(
            &[freed],
            vec![orphan_data, orphan_child, escaping],
            &[(kept, tight.clone())],
        );
        assert_eq!(dropped, 1);
        assert!(!s.references_page(freed));
        // the surviving reference was tightened
        let holder = s.get(RecordId(1)).unwrap();
        assert!(holder
            .plist
            .iter()
            .any(|e| e.references_page(kept) && e.mbr() == tight));
        // all three orphans are reachable again
        assert!(s.references_page(PageId::new(9)));
        assert!(s.references_page(PageId::new(10)));
        let total_plist: usize = s.iter().map(|o| o.plist.len()).sum();
        assert_eq!(total_plist, 4, "kept + data + subtree + forced");
    }

    #[test]
    fn patch_pages_freed_skips_already_referenced_and_cascaded_pages() {
        let mut s = Skyline::new();
        s.insert(SkylineObject::new(data(1, &[0.9, 0.9])));
        let live = PageId::new(5);
        s.attach_to_dominator(NodeEntry::Child {
            mbr: Mbr::new(vec![0.1, 0.1], vec![0.5, 0.5]).unwrap(),
            page: live,
        })
        .unwrap();
        // a cascade: page 6 freed, its contents point at page 5 (already
        // referenced) and at page 7 (itself freed later in the cascade)
        let dropped = s.patch_pages_freed(
            &[PageId::new(6), PageId::new(7)],
            vec![
                NodeEntry::Child {
                    mbr: Mbr::new(vec![0.1, 0.1], vec![0.5, 0.5]).unwrap(),
                    page: live,
                },
                NodeEntry::Child {
                    mbr: Mbr::new(vec![0.1, 0.1], vec![0.4, 0.4]).unwrap(),
                    page: PageId::new(7),
                },
            ],
            &[],
        );
        assert_eq!(dropped, 0);
        assert_eq!(s.get(RecordId(1)).unwrap().plist.len(), 1);
        assert!(!s.references_page(PageId::new(7)));
    }

    #[test]
    fn purge_record_drops_only_that_records_data_entries() {
        let mut s = Skyline::new();
        s.insert(SkylineObject::new(data(1, &[0.9, 0.9])));
        s.attach_to_dominator(NodeEntry::Data(data(5, &[0.5, 0.5])))
            .unwrap();
        s.attach_to_dominator(NodeEntry::Data(data(6, &[0.4, 0.4])))
            .unwrap();
        s.attach_to_dominator(NodeEntry::Child {
            mbr: Mbr::new(vec![0.1, 0.1], vec![0.2, 0.2]).unwrap(),
            page: PageId::new(5), // same raw id as record 5: must be kept
        })
        .unwrap();
        assert_eq!(s.purge_record(RecordId(5)), 1);
        assert_eq!(s.purge_record(RecordId(5)), 0);
        let plist = &s.get(RecordId(1)).unwrap().plist;
        assert_eq!(plist.len(), 2);
        assert!(plist.iter().any(|e| e.references_page(PageId::new(5))));
    }

    #[test]
    fn patch_pages_freed_on_empty_skyline_is_a_noop() {
        let mut s = Skyline::new();
        let dropped = s.patch_pages_freed(
            &[PageId::new(1)],
            vec![NodeEntry::Data(data(3, &[0.5, 0.5]))],
            &[],
        );
        assert_eq!(dropped, 0);
        assert!(s.is_empty());
    }

    #[test]
    fn columnar_mirror_stays_aligned_through_swap_removals() {
        // `remove` swap-removes from the middle; the SoA mirror must follow
        // the exact same permutation or dominance answers drift.
        let mut s = Skyline::new();
        s.insert(SkylineObject::new(data(1, &[0.9, 0.1])));
        s.insert(SkylineObject::new(data(2, &[0.5, 0.5])));
        s.insert(SkylineObject::new(data(3, &[0.1, 0.9])));
        assert!(s.dominates_point(&Point::from_slice(&[0.4, 0.4])));
        s.remove(RecordId(2)).unwrap(); // swap-removes: 3 moves to index 1
        assert!(!s.dominates_point(&Point::from_slice(&[0.4, 0.4])));
        assert!(s.dominates_point(&Point::from_slice(&[0.8, 0.05])));
        assert!(s.dominates_point(&Point::from_slice(&[0.05, 0.8])));
        // attach lands on the relocated object (index order = scalar scan)
        s.attach_to_dominator(NodeEntry::Data(data(9, &[0.05, 0.8])))
            .unwrap();
        assert_eq!(s.get(RecordId(3)).unwrap().plist.len(), 1);
        // the exposed block is that same mirror, row for row
        for (row, (record, point)) in s.entry_views().enumerate() {
            assert_eq!(s.record_at(row), record);
            let coords: Vec<f64> = (0..2).map(|d| s.block().lane(d)[row]).collect();
            assert_eq!(coords, point.coords());
        }
        // removing the last row moves nothing; the row before it stays put
        s.remove(RecordId(3)).unwrap();
        assert_eq!(s.record_at(0), RecordId(1));
        assert!(s.get(RecordId(3)).is_none());
        assert_eq!(s.get(RecordId(1)).unwrap().data.record, RecordId(1));
        // removing the only row empties mirror and index alike
        s.remove(RecordId(1)).unwrap();
        assert!(!s.contains(RecordId(1)));
        assert!(s.remove(RecordId(1)).is_none());
        assert!(!s.dominates_point(&Point::from_slice(&[0.0, 0.0])));
        assert!(s.block().is_empty());
        // and a removed record may come back
        s.insert(SkylineObject::new(data(1, &[0.9, 0.1])));
        assert_eq!(s.get(RecordId(1)).unwrap().data.point.coords(), [0.9, 0.1]);
    }

    #[test]
    #[should_panic(expected = "duplicate skyline insertion")]
    fn inserting_a_record_twice_is_refused() {
        let mut s = Skyline::new();
        s.insert(SkylineObject::new(data(1, &[0.9, 0.1])));
        s.insert(SkylineObject::new(data(1, &[0.1, 0.9])));
    }

    /// Row order, mirror and index must agree after every mutation: `get` of
    /// the record in row `r` is row `r`, the index holds exactly the rows,
    /// and a record that left is gone from all three.
    fn assert_index_consistent(s: &Skyline, departed: &[RecordId]) {
        assert_eq!(s.len(), s.rows.len());
        assert_eq!(s.len(), s.block().len());
        for row in 0..s.len() {
            let record = s.record_at(row);
            assert!(s.contains(record));
            assert!(std::ptr::eq(s.get(record).unwrap(), &s.objects[row]));
            let coords: Vec<f64> = (0..s.block().dims())
                .map(|d| s.block().lane(d)[row])
                .collect();
            assert_eq!(coords, s.objects[row].data.point.coords());
        }
        for &record in departed {
            assert!(!s.contains(record), "{record} is gone but still indexed");
            assert!(s.get(record).is_none());
        }
    }

    #[test]
    fn index_follows_every_row_move_through_a_random_history() {
        use crate::{compute_skyline_bbs, insert_skyline, update_skyline};
        use pref_rtree::{RTree, RTreeConfig};
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x5eed_0018);
        let mut random_point = move || {
            let coords: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..1.0)).collect();
            Point::from_slice(&coords)
        };
        let points: Vec<(RecordId, Point)> =
            (0..400).map(|i| (RecordId(i), random_point())).collect();
        let mut tree = RTree::bulk_load(RTreeConfig::for_dims(3).with_fanout(8), points).unwrap();
        let mut s = compute_skyline_bbs(&mut tree);
        let mut departed: Vec<RecordId> = Vec::new();
        let mut next_id = 400u64;
        let mut pick = StdRng::seed_from_u64(0x5eed_0019);
        assert_index_consistent(&s, &departed);
        for step in 0..600 {
            match pick.gen_range(0..4) {
                // an assignment: remove, then replenish from the pruned list
                0 if !s.is_empty() => {
                    let victim = s.record_at(pick.gen_range(0..s.len()));
                    let object = s.remove(victim).unwrap();
                    departed.push(victim);
                    update_skyline(&mut tree, &mut s, vec![object]);
                }
                // a bare removal (first, middle or last row alike)
                1 if !s.is_empty() => {
                    let victim = s.record_at(pick.gen_range(0..s.len()));
                    assert_eq!(s.remove(victim).unwrap().data.record, victim);
                    departed.push(victim);
                }
                // an arrival, classified: may demote (remove) several rows
                2 => {
                    insert_skyline(&mut s, data(next_id, random_point().coords()));
                    next_id += 1;
                }
                // a bare insertion
                _ => {
                    s.insert(SkylineObject::new(data(next_id, random_point().coords())));
                    next_id += 1;
                }
            }
            assert_index_consistent(&s, &departed);
            assert!(s.remove(RecordId(u64::MAX)).is_none(), "step {step}");
        }
        assert!(departed.len() > 100 && next_id > 500, "history too tame");
    }

    #[test]
    fn memory_grows_with_plists() {
        let mut s = Skyline::new();
        s.insert(SkylineObject::new(data(1, &[0.9, 0.9])));
        let before = s.memory_bytes();
        s.attach_to_dominator(NodeEntry::Data(data(5, &[0.5, 0.5])))
            .unwrap();
        assert!(s.memory_bytes() > before);
        let mut tracker = PeakTracker::new();
        s.observe_memory(&mut tracker);
        assert_eq!(tracker.peak(), s.memory_bytes());
    }
}
