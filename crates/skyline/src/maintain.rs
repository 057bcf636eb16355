//! UpdateSkyline — the paper's I/O-optimal incremental maintenance module
//! (Algorithm 2).

use crate::bbs::{resume_skyline_filtered, HeapEntry};
use crate::set::{Skyline, SkylineObject};
use pref_rtree::{RTree, RecordId};
use std::collections::BinaryHeap;

/// Incrementally maintains the skyline after one or more skyline objects have
/// been removed (assigned to preference functions).
///
/// `removed` are the [`SkylineObject`]s that were just taken off `skyline`
/// (via [`Skyline::remove`]), still carrying their pruned lists. For every
/// pruned entry the algorithm first tries to hand it over to a remaining
/// skyline object that dominates it; the entries that no remaining object
/// dominates form the candidate set `Scand`, which is processed by the shared
/// `ResumeSkyline` loop in ascending distance from the sky point.
///
/// I/O-optimality (Theorem 1): only entries exclusively dominated by the
/// removed objects are examined, and because every expanded node disappears
/// from both the candidate heap and every pruned list, no R-tree node is read
/// twice across the whole sequence of maintenance calls.
pub fn update_skyline(tree: &mut RTree, skyline: &mut Skyline, removed: Vec<SkylineObject>) {
    update_skyline_filtered(tree, skyline, removed, &|_| false);
}

/// [`update_skyline`] with a drop filter: data entries for which `drop`
/// returns `true` never (re-)enter the skyline or a pruned list.
///
/// The long-lived assignment engine maintains the skyline of its *free pool*
/// over a dynamically updated R-tree, where the candidate stream can carry
/// records that must stay out of the pool: objects that departed the problem,
/// objects whose capacity is fully assigned, and the duplicate tree-resident
/// copies of objects the engine already tracks in memory. Batch SB keeps
/// using the unfiltered wrapper — its candidate stream visits every entry
/// exactly once (Theorem 1), so no filter is needed there.
///
/// The skyline only grows during the call (nothing is removed or reordered),
/// so afterwards the entrants are exactly the rows from the pre-call
/// [`Skyline::len`] on.
pub fn update_skyline_filtered(
    tree: &mut RTree,
    skyline: &mut Skyline,
    removed: Vec<SkylineObject>,
    drop: &dyn Fn(RecordId) -> bool,
) {
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
    for object in removed {
        for entry in object.plist {
            if let Some(data) = entry.as_data() {
                if drop(data.record) || skyline.contains(data.record) {
                    continue;
                }
            }
            match skyline.attach_to_dominator(entry) {
                Ok(()) => {}
                Err(entry) => heap.push(HeapEntry::new(entry)),
            }
        }
    }
    resume_skyline_filtered(tree, skyline, &mut heap, drop);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbs::compute_skyline_bbs;
    use crate::memory::skyline_naive;
    use pref_geom::Point;
    use pref_rtree::{RTreeConfig, RecordId};
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

    fn anti_correlated(n: u64, dims: usize, seed: u64) -> Vec<(RecordId, Point)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let mut c: Vec<f64> = (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect();
                // push points towards the anti-diagonal plane sum ~= dims/2
                let sum: f64 = c.iter().sum();
                let target = dims as f64 / 2.0;
                let shift = (target - sum) / dims as f64 * 0.8;
                for v in &mut c {
                    *v = (*v + shift).clamp(0.0, 1.0);
                }
                (RecordId(i), Point::from_slice(&c))
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

    /// Removes skyline objects one by one (in a deterministic order) and checks
    /// after each removal that the maintained skyline equals the skyline of the
    /// remaining points computed from scratch by the naive oracle.
    fn check_incremental_maintenance(
        points: Vec<(RecordId, Point)>,
        fanout: usize,
        removals: usize,
    ) {
        let mut tree = build(&points, fanout);
        let mut sky = compute_skyline_bbs(&mut tree);
        let mut remaining: Vec<(RecordId, Point)> = points.clone();
        for step in 0..removals {
            if sky.is_empty() {
                break;
            }
            // remove the skyline object with the smallest record id (deterministic)
            let victim = *sky.records().iter().min().unwrap();
            let obj = sky.remove(victim).unwrap();
            remaining.retain(|(r, _)| *r != victim);
            update_skyline(&mut tree, &mut sky, vec![obj]);
            let mut got: Vec<u64> = sky.records().iter().map(|r| r.0).collect();
            got.sort_unstable();
            let mut want: Vec<u64> = skyline_naive(&remaining).iter().map(|r| r.0).collect();
            want.sort_unstable();
            assert_eq!(got, want, "divergence after removal #{step} of {victim:?}");
        }
    }

    #[test]
    fn figure4_example_update() {
        // Figure 4: after assigning e (the top object), the skyline becomes {a, c, d, i}.
        // We reproduce the shape with concrete coordinates.
        let points = vec![
            (RecordId(0), Point::from_slice(&[0.15, 0.95])),  // a
            (RecordId(2), Point::from_slice(&[0.45, 0.80])),  // c
            (RecordId(3), Point::from_slice(&[0.55, 0.75])),  // d
            (RecordId(4), Point::from_slice(&[0.70, 0.85])),  // e  (initial skyline with a)
            (RecordId(8), Point::from_slice(&[0.65, 0.40])),  // i
            (RecordId(6), Point::from_slice(&[0.30, 0.70])),  // g dominated
            (RecordId(7), Point::from_slice(&[0.10, 0.60])),  // h dominated
            (RecordId(10), Point::from_slice(&[0.50, 0.30])), // k dominated
        ];
        let mut tree = build(&points, 4);
        let mut sky = compute_skyline_bbs(&mut tree);
        let mut initial: Vec<u64> = sky.records().iter().map(|r| r.0).collect();
        initial.sort_unstable();
        assert_eq!(initial, vec![0, 4]);
        let e = sky.remove(RecordId(4)).unwrap();
        update_skyline(&mut tree, &mut sky, vec![e]);
        let mut updated: Vec<u64> = sky.records().iter().map(|r| r.0).collect();
        updated.sort_unstable();
        assert_eq!(updated, vec![0, 2, 3, 8]);
    }

    #[test]
    fn incremental_maintenance_matches_oracle_uniform() {
        check_incremental_maintenance(random_points(300, 2, 21), 8, 40);
        check_incremental_maintenance(random_points(300, 3, 22), 8, 30);
        check_incremental_maintenance(random_points(200, 4, 23), 8, 20);
    }

    #[test]
    fn incremental_maintenance_matches_oracle_anti_correlated() {
        check_incremental_maintenance(anti_correlated(300, 2, 31), 8, 50);
        check_incremental_maintenance(anti_correlated(250, 3, 32), 8, 30);
    }

    #[test]
    fn batched_removals_match_oracle() {
        // remove several skyline objects in one UpdateSkyline call (multiple
        // stable pairs per loop)
        let points = random_points(400, 3, 41);
        let mut tree = build(&points, 12);
        let mut sky = compute_skyline_bbs(&mut tree);
        let mut remaining = points.clone();
        for _ in 0..10 {
            if sky.len() < 2 {
                break;
            }
            let mut victims: Vec<RecordId> = sky.records();
            victims.sort();
            victims.truncate(3.min(victims.len()));
            let removed: Vec<_> = victims
                .iter()
                .map(|r| {
                    remaining.retain(|(id, _)| id != r);
                    sky.remove(*r).unwrap()
                })
                .collect();
            update_skyline(&mut tree, &mut sky, removed);
            let mut got: Vec<u64> = sky.records().iter().map(|r| r.0).collect();
            got.sort_unstable();
            let mut want: Vec<u64> = skyline_naive(&remaining).iter().map(|r| r.0).collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn no_node_is_read_twice_across_whole_run() {
        // Theorem 1: collect the multiset of node accesses over the initial
        // BBS plus every maintenance call; no page may be accessed twice.
        // We verify via the I/O counters: with no buffer, physical reads equal
        // logical reads; their total must not exceed the number of pages.
        let points = anti_correlated(800, 3, 55);
        let mut tree = build(&points, 16);
        tree.set_buffer_frames(0);
        tree.reset_stats();
        let mut sky = compute_skyline_bbs(&mut tree);
        let mut total_removed = 0;
        while !sky.is_empty() && total_removed < 400 {
            let victim = *sky.records().iter().min().unwrap();
            let obj = sky.remove(victim).unwrap();
            update_skyline(&mut tree, &mut sky, vec![obj]);
            total_removed += 1;
        }
        let reads = tree.stats().logical_reads;
        assert!(
            reads <= tree.num_pages() as u64,
            "UpdateSkyline read {reads} nodes but the tree only has {} pages",
            tree.num_pages()
        );
    }

    /// The tentpole soundness property for physical deletion: a maintained
    /// skyline driven through arbitrary churn — dynamic arrivals
    /// (`insert_tracked` + `patch_page_split` + `insert_skyline`), physical
    /// departures (`delete_tracked` + `patch_page_delete`), and skyline
    /// replenishment (`update_skyline_filtered`) — must equal the naive
    /// skyline of the live population after every single operation.
    fn check_churn_consistency(dims: usize, fanout: usize, steps: usize, seed: u64) {
        use crate::insert::insert_skyline;
        use pref_rtree::{DataEntry, NodeEntry};

        let mut rng = StdRng::seed_from_u64(seed);
        let initial = random_points(200, dims, seed ^ 0xc0de);
        let mut tree = build(&initial, fanout);
        let mut sky = compute_skyline_bbs(&mut tree);
        let mut live: Vec<(RecordId, Point)> = initial;
        let mut deleted: HashSet<RecordId> = HashSet::new();
        let mut next_id = 200u64;

        for step in 0..steps {
            if live.len() < 20 || rng.gen_bool(0.5) {
                // arrival
                let p = Point::from_slice(
                    &(0..dims)
                        .map(|_| rng.gen_range(0.0..1.0))
                        .collect::<Vec<_>>(),
                );
                let id = RecordId(next_id);
                next_id += 1;
                let splits = tree.insert_tracked(id, p.clone()).unwrap();
                for s in &splits {
                    sky.patch_page_split(
                        s.old_page,
                        NodeEntry::Child {
                            mbr: s.new_mbr.clone(),
                            page: s.new_page,
                        },
                    );
                }
                insert_skyline(&mut sky, DataEntry::new(id, p.clone()));
                live.push((id, p));
            } else {
                // physical departure of an arbitrary live record
                let idx = rng.gen_range(0..live.len());
                let (id, p) = live.swap_remove(idx);
                deleted.insert(id);
                if let Some(obj) = sky.remove(id) {
                    // replenish first (the departed record's tree copy is
                    // still present; the drop filter hides it), then delete
                    let drop = |r: RecordId| deleted.contains(&r);
                    update_skyline_filtered(&mut tree, &mut sky, vec![obj], &drop);
                }
                let outcome = tree.delete_tracked(id, &p).unwrap();
                sky.patch_page_delete(&outcome);
            }
            let mut got: Vec<u64> = sky.records().iter().map(|r| r.0).collect();
            got.sort_unstable();
            let mut want: Vec<u64> = skyline_naive(&live).iter().map(|r| r.0).collect();
            want.sort_unstable();
            assert_eq!(got, want, "divergence at step {step} (seed {seed})");
        }
        tree.check_invariants().unwrap();
    }

    #[test]
    fn churn_with_physical_deletion_matches_oracle_2d() {
        check_churn_consistency(2, 4, 600, 101);
        check_churn_consistency(2, 8, 400, 102);
    }

    #[test]
    fn churn_with_physical_deletion_matches_oracle_3d() {
        check_churn_consistency(3, 4, 500, 201);
        check_churn_consistency(3, 6, 400, 202);
    }

    #[test]
    fn churn_with_physical_deletion_matches_oracle_anti_correlated_seeds() {
        // anti-correlated initial sets have large skylines and heavy pruned
        // lists, the worst case for re-anchoring
        for seed in [301u64, 302, 303] {
            check_churn_consistency(3, 5, 350, seed);
        }
    }

    /// Physical deletion plus assignment-style removals: skyline objects are
    /// consumed (removed + replenished) while non-skyline records are being
    /// physically deleted underneath the pruned lists.
    #[test]
    fn interleaved_assignment_and_physical_deletion_match_oracle() {
        let points = anti_correlated(400, 3, 41);
        let mut tree = build(&points, 6);
        let mut sky = compute_skyline_bbs(&mut tree);
        let mut live = points;
        let mut gone: HashSet<RecordId> = HashSet::new();
        let mut rng = StdRng::seed_from_u64(77);
        for step in 0..200 {
            if live.is_empty() {
                break;
            }
            if step % 3 == 0 && !sky.is_empty() {
                // "assign" the smallest skyline object (leaves the tree!)
                let victim = *sky.records().iter().min().unwrap();
                let obj = sky.remove(victim).unwrap();
                gone.insert(victim);
                live.retain(|(r, _)| *r != victim);
                let drop = |r: RecordId| gone.contains(&r);
                update_skyline_filtered(&mut tree, &mut sky, vec![obj], &drop);
            } else {
                // physically delete an arbitrary live record
                let idx = rng.gen_range(0..live.len());
                let (id, p) = live.swap_remove(idx);
                gone.insert(id);
                if let Some(obj) = sky.remove(id) {
                    let drop = |r: RecordId| gone.contains(&r);
                    update_skyline_filtered(&mut tree, &mut sky, vec![obj], &drop);
                }
                let outcome = tree.delete_tracked(id, &p).unwrap();
                sky.patch_page_delete(&outcome);
            }
            let mut got: Vec<u64> = sky.records().iter().map(|r| r.0).collect();
            got.sort_unstable();
            let mut want: Vec<u64> = skyline_naive(&live).iter().map(|r| r.0).collect();
            want.sort_unstable();
            assert_eq!(got, want, "divergence at step {step}");
        }
    }

    #[test]
    fn removed_objects_never_reappear() {
        let points = random_points(500, 3, 61);
        let mut tree = build(&points, 12);
        let mut sky = compute_skyline_bbs(&mut tree);
        let mut removed_ids: HashSet<u64> = HashSet::new();
        for _ in 0..100 {
            if sky.is_empty() {
                break;
            }
            let victim = *sky.records().iter().min().unwrap();
            removed_ids.insert(victim.0);
            let obj = sky.remove(victim).unwrap();
            update_skyline(&mut tree, &mut sky, vec![obj]);
            for r in sky.records() {
                assert!(!removed_ids.contains(&r.0), "{r} reappeared after removal");
            }
        }
    }
}
