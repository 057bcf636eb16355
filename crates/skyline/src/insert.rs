//! Insertion-aware skyline maintenance.
//!
//! The paper's `UpdateSkyline` (Algorithm 2) only handles *removals* — the SB
//! batch solver never sees a new object arrive. A long-lived assignment
//! engine does, so this module adds the missing direction. Insertion is the
//! cheap direction: deciding where a single new point belongs requires **no
//! R-tree I/O at all**, because the maintained skyline already knows the
//! dominance frontier.
//!
//! * If some skyline object dominates the new point, the point is attached to
//!   that object's pruned list — exactly where BBS would have put it — so it
//!   resurfaces through `UpdateSkyline` if its dominator is later removed.
//! * Otherwise the point joins the skyline. Existing skyline objects it
//!   dominates are demoted: each demoted object's data entry, together with
//!   its entire pruned list, moves into the new object's pruned list
//!   (dominance is transitive, so the single-owner invariant is preserved).

use crate::set::{Skyline, SkylineObject};
use pref_rtree::{DataEntry, NodeEntry, RecordId};

/// Where [`insert_skyline`] placed the new point.
#[derive(Debug, Clone, PartialEq)]
pub enum SkylineInsertion {
    /// The point is dominated by an existing skyline object and was attached
    /// to that object's pruned list.
    Covered,
    /// The point joined the skyline; `demoted` lists the records it pushed
    /// off the skyline (now dominated, absorbed into the new object's pruned
    /// list).
    Entered {
        /// Records removed from the skyline by the new point.
        demoted: Vec<RecordId>,
    },
}

impl SkylineInsertion {
    /// `true` when the point joined the skyline.
    pub fn entered(&self) -> bool {
        matches!(self, SkylineInsertion::Entered { .. })
    }
}

/// Maintains `skyline` after a new object arrived, without any R-tree access.
///
/// The caller is responsible for the record being genuinely new (not already
/// on the skyline or in a pruned list); the engine guarantees this by
/// rejecting duplicate record ids at its API boundary.
pub fn insert_skyline(skyline: &mut Skyline, data: DataEntry) -> SkylineInsertion {
    debug_assert!(
        !skyline.contains(data.record),
        "insert_skyline on a record already on the skyline: {}",
        data.record
    );
    let data = match skyline.attach_to_dominator(NodeEntry::Data(data)) {
        Ok(_) => return SkylineInsertion::Covered,
        Err(NodeEntry::Data(data)) => data,
        Err(NodeEntry::Child { .. }) => unreachable!("a data entry stays a data entry"),
    };

    // The point is not dominated: it joins the skyline. Demote every skyline
    // object the new point dominates, folding it (and everything it owns)
    // into the new object's pruned list.
    let victims: Vec<RecordId> = skyline
        .iter()
        .filter(|o| data.point.dominates(&o.data.point))
        .map(|o| o.data.record)
        .collect();
    let mut object = SkylineObject::new(data);
    for record in &victims {
        let demoted = skyline
            .remove(*record)
            .expect("victim was collected from the live skyline");
        object.plist.extend(demoted.plist);
        object.plist.push(NodeEntry::Data(demoted.data));
    }
    skyline.insert(object);
    SkylineInsertion::Entered { demoted: victims }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbs::compute_skyline_bbs;
    use crate::maintain::update_skyline;
    use crate::memory::skyline_naive;
    use pref_geom::Point;
    use pref_rtree::{RTree, RTreeConfig};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn data(id: u64, coords: &[f64]) -> DataEntry {
        DataEntry::new(RecordId(id), Point::from_slice(coords))
    }

    #[test]
    fn dominated_point_is_covered() {
        let mut sky = Skyline::new();
        sky.insert(SkylineObject::new(data(0, &[0.9, 0.9])));
        let outcome = insert_skyline(&mut sky, data(1, &[0.5, 0.5]));
        assert_eq!(outcome, SkylineInsertion::Covered);
        assert!(!outcome.entered());
        assert_eq!(sky.len(), 1);
        assert_eq!(sky.get(RecordId(0)).unwrap().plist.len(), 1);
    }

    #[test]
    fn incomparable_point_enters_without_demotions() {
        let mut sky = Skyline::new();
        sky.insert(SkylineObject::new(data(0, &[0.9, 0.1])));
        let outcome = insert_skyline(&mut sky, data(1, &[0.1, 0.9]));
        assert_eq!(
            outcome,
            SkylineInsertion::Entered {
                demoted: Vec::new()
            }
        );
        assert_eq!(sky.len(), 2);
    }

    #[test]
    fn equal_point_joins_like_bbs_duplicates() {
        // BBS lets duplicate points coexist on the skyline (neither dominates
        // the other); insertion must agree.
        let mut sky = Skyline::new();
        sky.insert(SkylineObject::new(data(0, &[0.7, 0.7])));
        let outcome = insert_skyline(&mut sky, data(1, &[0.7, 0.7]));
        assert!(outcome.entered());
        assert_eq!(sky.len(), 2);
    }

    #[test]
    fn dominating_point_absorbs_victims_and_their_plists() {
        let mut sky = Skyline::new();
        sky.insert(SkylineObject::new(data(0, &[0.6, 0.5])));
        sky.insert(SkylineObject::new(data(1, &[0.2, 0.9])));
        // give the soon-to-be victim a pruned entry
        sky.attach_to_dominator(NodeEntry::Data(data(5, &[0.5, 0.4])))
            .unwrap();
        let outcome = insert_skyline(&mut sky, data(2, &[0.8, 0.6]));
        assert_eq!(
            outcome,
            SkylineInsertion::Entered {
                demoted: vec![RecordId(0)]
            }
        );
        assert_eq!(sky.len(), 2);
        assert!(sky.contains(RecordId(2)));
        assert!(sky.contains(RecordId(1)));
        // the new object owns the victim and the victim's pruned entry
        let owner = sky.get(RecordId(2)).unwrap();
        assert_eq!(owner.plist.len(), 2);
        for e in &owner.plist {
            assert!(owner.data.point.dominates(&e.mbr().top_corner()));
        }
    }

    #[test]
    fn random_insert_sequences_match_naive_oracle() {
        for (dims, seed) in [(2usize, 11u64), (3, 12), (4, 13)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sky = Skyline::new();
            let mut all: Vec<(RecordId, Point)> = Vec::new();
            for i in 0..400u64 {
                let p = Point::from_slice(
                    &(0..dims)
                        .map(|_| rng.gen_range(0.0..1.0))
                        .collect::<Vec<_>>(),
                );
                all.push((RecordId(i), p.clone()));
                insert_skyline(&mut sky, DataEntry::new(RecordId(i), p));
                if i % 37 == 0 {
                    let mut got: Vec<u64> = sky.records().iter().map(|r| r.0).collect();
                    got.sort_unstable();
                    let mut want: Vec<u64> = skyline_naive(&all).iter().map(|r| r.0).collect();
                    want.sort_unstable();
                    assert_eq!(got, want, "dims={dims} seed={seed} step={i}");
                }
            }
        }
    }

    #[test]
    fn interleaved_insertions_and_removals_match_naive_oracle() {
        // Insertions are memory-only, removals go through UpdateSkyline with
        // the tree: the two maintenance directions must compose. The tree
        // holds the initial bulk load; arrivals live only in the in-memory
        // skyline bookkeeping (the engine's strategy), so UpdateSkyline finds
        // demoted arrivals again through the pruned lists alone.
        let mut rng = StdRng::seed_from_u64(77);
        let dims = 3;
        let initial: Vec<(RecordId, Point)> = (0..250u64)
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
            .collect();
        let mut tree =
            RTree::bulk_load(RTreeConfig::for_dims(dims).with_fanout(8), initial.clone()).unwrap();
        let mut sky = compute_skyline_bbs(&mut tree);
        let mut live = initial;
        let mut next_id = 250u64;
        for step in 0..120 {
            if rng.gen_bool(0.5) || sky.is_empty() {
                let p = Point::from_slice(
                    &(0..dims)
                        .map(|_| rng.gen_range(0.0..1.0))
                        .collect::<Vec<_>>(),
                );
                live.push((RecordId(next_id), p.clone()));
                insert_skyline(&mut sky, DataEntry::new(RecordId(next_id), p));
                next_id += 1;
            } else {
                let victim = *sky.records().iter().min().unwrap();
                let obj = sky.remove(victim).unwrap();
                live.retain(|(r, _)| *r != victim);
                update_skyline(&mut tree, &mut sky, vec![obj]);
            }
            let mut got: Vec<u64> = sky.records().iter().map(|r| r.0).collect();
            got.sort_unstable();
            let mut want: Vec<u64> = skyline_naive(&live).iter().map(|r| r.0).collect();
            want.sort_unstable();
            assert_eq!(got, want, "divergence at step {step}");
        }
    }
}
