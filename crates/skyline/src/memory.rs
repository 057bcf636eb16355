//! Memory-resident skyline algorithms: SFS and a naive oracle.
//!
//! SFS computes the function skyline `Fsky` of the prioritized two-skyline
//! technique, whose input (the set of effective weight vectors) is never
//! indexed; the naive oracle is what the tests hold every skyline to.

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

/// Sort-filter-skyline (the idea behind LESS / SaLSa): points are first sorted
/// by a monotone scoring function (the sum of coordinates, descending). A
/// point can then only be dominated by points that precede it, so one forward
/// pass with a window suffices and the window never shrinks.
pub fn skyline_sfs(points: &[(RecordId, Point)]) -> Vec<RecordId> {
    let mut sorted: Vec<&(RecordId, Point)> = points.iter().collect();
    sorted.sort_by(|a, b| {
        let sa: f64 = a.1.coords().iter().sum();
        let sb: f64 = b.1.coords().iter().sum();
        sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut window: Vec<(RecordId, &Point)> = Vec::new();
    for (r, p) in sorted {
        let dominated = window.iter().any(|(_, w)| w.dominates(p));
        if !dominated {
            window.push((*r, p));
        }
    }
    window.into_iter().map(|(r, _)| r).collect()
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
        for algo in [skyline_naive, skyline_sfs] {
            assert_eq!(sorted(algo(&points)), vec![0, 1, 2]);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<(RecordId, Point)> = vec![];
        assert!(skyline_sfs(&empty).is_empty());
        assert!(skyline_naive(&empty).is_empty());
        let single = pts(&[(7, [0.3, 0.3])]);
        assert_eq!(sorted(skyline_sfs(&single)), vec![7]);
    }

    #[test]
    fn duplicate_points_all_survive() {
        let points = pts(&[(0, [0.5, 0.5]), (1, [0.5, 0.5]), (2, [0.1, 0.1])]);
        assert_eq!(sorted(skyline_naive(&points)), vec![0, 1]);
        assert_eq!(sorted(skyline_sfs(&points)), vec![0, 1]);
    }

    #[test]
    fn totally_ordered_chain_has_single_skyline_point() {
        let points = pts(&[
            (0, [0.1, 0.1]),
            (1, [0.2, 0.2]),
            (2, [0.3, 0.3]),
            (3, [0.9, 0.9]),
        ]);
        for algo in [skyline_naive, skyline_sfs] {
            assert_eq!(sorted(algo(&points)), vec![3]);
        }
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
        assert_eq!(skyline_sfs(&points).len(), 10);
    }

    #[test]
    fn randomized_agreement_between_algorithms() {
        let mut rng = StdRng::seed_from_u64(77);
        for dims in 2..=5 {
            for _ in 0..5 {
                let points: Vec<(RecordId, Point)> = (0..300)
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
                assert_eq!(sorted(skyline_naive(&points)), sorted(skyline_sfs(&points)));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn skyline_members_are_never_dominated(
            coords in proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 3), 1..60),
        ) {
            let points: Vec<(RecordId, Point)> = coords
                .into_iter()
                .enumerate()
                .map(|(i, c)| (RecordId(i as u64), Point::new(c).unwrap()))
                .collect();
            let sky = skyline_sfs(&points);
            for r in &sky {
                let p = &points.iter().find(|(id, _)| id == r).unwrap().1;
                let dominated = points.iter().any(|(id, q)| id != r && q.dominates(p));
                prop_assert!(!dominated);
            }
            // completeness: every non-member is dominated by someone
            for (r, p) in &points {
                if !sky.contains(r) {
                    let dominated = points.iter().any(|(id, q)| id != r && q.dominates(p));
                    prop_assert!(dominated, "non-skyline member must be dominated");
                }
            }
        }
    }
}
