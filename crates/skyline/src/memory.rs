//! Memory-resident skylines: the tie-safe function skyline and a naive
//! oracle.
//!
//! [`skyline_by_id`] computes the function set `Fsky` of the prioritized
//! two-skyline technique, whose input (the set of effective weight vectors)
//! is never indexed; the naive oracle is what the tests hold every skyline
//! to.

use pref_geom::Point;
use pref_rtree::RecordId;

/// Quadratic-time reference skyline; the unambiguous oracle for tests.
pub fn skyline_naive(points: &[(RecordId, Point)]) -> Vec<RecordId> {
    let mut out = Vec::new();
    for (i, (r, p)) in points.iter().enumerate() {
        let dominated = points
            .iter()
            .enumerate()
            .any(|(j, (_, q))| j != i && q.dominates(p));
        if !dominated {
            out.push(*r);
        }
    }
    out
}

/// The points that no point with a lower [`RecordId`] weakly dominates (is
/// `>=` in every coordinate), ascending by id: the candidates of a search
/// for the best point under a monotone score whose exact ties go to the
/// lowest id. A dropped point scores no more than a lower-id one on every
/// query, floating-point rounding included, so it never wins. A point
/// dominated only by higher ids stays: it can tie with them, and then it
/// wins. When every dominator has the lower id and no two points are equal,
/// this is the skyline.
///
/// One pass in id order against the points kept so far suffices: weak
/// dominance is transitive, so a point some dropped point dominates is
/// dominated by the kept point that dropped it.
pub fn skyline_by_id(points: &[(RecordId, Point)]) -> Vec<RecordId> {
    let mut sorted: Vec<&(RecordId, Point)> = points.iter().collect();
    sorted.sort_by_key(|(r, _)| *r);
    let mut kept: Vec<&(RecordId, Point)> = Vec::new();
    for entry in sorted {
        if !kept.iter().any(|(_, k)| k.dominates_or_equal(&entry.1)) {
            kept.push(entry);
        }
    }
    kept.into_iter().map(|(r, _)| *r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn pts(raw: &[(u64, [f64; 2])]) -> Vec<(RecordId, Point)> {
        raw.iter()
            .map(|(id, c)| (RecordId(*id), Point::from_slice(c)))
            .collect()
    }

    fn sorted(mut v: Vec<RecordId>) -> Vec<u64> {
        v.sort();
        v.into_iter().map(|r| r.0).collect()
    }

    #[test]
    fn paper_figure1_skyline() {
        // O = {a, b, c, d}: skyline is {a, b, c}; d=(0.4,0.4) is dominated by a.
        let points = pts(&[
            (0, [0.5, 0.6]), // a
            (1, [0.2, 0.7]), // b
            (2, [0.8, 0.2]), // c
            (3, [0.4, 0.4]), // d
        ]);
        for algo in [skyline_naive, skyline_by_id] {
            assert_eq!(sorted(algo(&points)), vec![0, 1, 2]);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<(RecordId, Point)> = vec![];
        assert!(skyline_by_id(&empty).is_empty());
        assert!(skyline_naive(&empty).is_empty());
        let single = pts(&[(7, [0.3, 0.3])]);
        assert_eq!(sorted(skyline_by_id(&single)), vec![7]);
    }

    #[test]
    fn duplicate_points_all_survive() {
        let points = pts(&[(0, [0.5, 0.5]), (1, [0.5, 0.5]), (2, [0.1, 0.1])]);
        assert_eq!(sorted(skyline_naive(&points)), vec![0, 1]);
        // ...but the lower id wins every tie, so it alone is a candidate
        assert_eq!(sorted(skyline_by_id(&points)), vec![0]);
    }

    #[test]
    fn totally_ordered_chain_has_single_skyline_point() {
        let points = pts(&[
            (0, [0.1, 0.1]),
            (1, [0.2, 0.2]),
            (2, [0.3, 0.3]),
            (3, [0.9, 0.9]),
        ]);
        assert_eq!(sorted(skyline_naive(&points)), vec![3]);
        // lower ids are dominated only by higher ones: every point stays
        assert_eq!(sorted(skyline_by_id(&points)), vec![0, 1, 2, 3]);
    }

    #[test]
    fn anti_correlated_diagonal_is_all_skyline() {
        let points: Vec<(RecordId, Point)> = (0..10)
            .map(|i| {
                let x = i as f64 / 10.0;
                (RecordId(i), Point::from_slice(&[x, 0.9 - x]))
            })
            .collect();
        assert_eq!(skyline_naive(&points).len(), 10);
        assert_eq!(skyline_by_id(&points).len(), 10);
    }

    #[test]
    fn randomized_agreement_between_algorithms() {
        // ids in descending coordinate-sum order give every dominator a
        // lower id than the point it dominates, so the two must agree
        let mut rng = StdRng::seed_from_u64(77);
        for dims in 2..=5 {
            for _ in 0..5 {
                let mut coords: Vec<Vec<f64>> = (0..300)
                    .map(|_| (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect())
                    .collect();
                coords.sort_by(|a, b| b.iter().sum::<f64>().total_cmp(&a.iter().sum()));
                let points: Vec<(RecordId, Point)> = coords
                    .iter()
                    .enumerate()
                    .map(|(i, c)| (RecordId(i as u64), Point::from_slice(c)))
                    .collect();
                assert_eq!(
                    sorted(skyline_naive(&points)),
                    sorted(skyline_by_id(&points))
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn skyline_members_are_never_dominated(
            coords in proptest::collection::vec(proptest::collection::vec(0u8..4, 3), 1..60),
        ) {
            // a 4-point grid, so ties and duplicates are common
            let points: Vec<(RecordId, Point)> = coords
                .into_iter()
                .enumerate()
                .map(|(i, c)| {
                    let c: Vec<f64> = c.into_iter().map(|v| f64::from(v) / 4.0).collect();
                    (RecordId(i as u64), Point::new(c).unwrap())
                })
                .collect();
            let sky = skyline_by_id(&points);
            // a member is weakly dominated by no lower id, a non-member by one
            for (r, p) in &points {
                let dominated = points.iter().any(|(id, q)| id < r && q.dominates_or_equal(p));
                prop_assert_eq!(sky.contains(r), !dominated);
            }
        }
    }
}
