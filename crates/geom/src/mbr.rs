//! Minimum bounding rectangles and the pruning predicates used by
//! branch-and-bound skyline (BBS) and branch-and-bound ranked search (BRS).

use crate::{GeomError, GeomResult, LinearFunction, Point};
use serde::{Deserialize, Serialize};

/// An axis-aligned minimum bounding rectangle in the preference space.
///
/// The *top corner* (`upper`) is the best possible object inside the MBR under
/// any monotone preference function; it drives both BBS ordering (L1 distance
/// to the sky point) and BRS ordering (`maxscore`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mbr {
    lower: Box<[f64]>,
    upper: Box<[f64]>,
}

impl Mbr {
    /// Creates an MBR from explicit lower/upper corners.
    ///
    /// Returns an error if the corners have different dimensionalities, are
    /// empty, or `lower[i] > upper[i]` for some dimension.
    pub fn new(lower: Vec<f64>, upper: Vec<f64>) -> GeomResult<Self> {
        if lower.is_empty() {
            return Err(GeomError::EmptyDimensions);
        }
        if lower.len() != upper.len() {
            return Err(GeomError::DimensionMismatch {
                left: lower.len(),
                right: upper.len(),
            });
        }
        for (dim, (&lo, &hi)) in lower.iter().zip(upper.iter()).enumerate() {
            if !lo.is_finite() {
                return Err(GeomError::NonFiniteCoordinate { dim, value: lo });
            }
            if !hi.is_finite() {
                return Err(GeomError::NonFiniteCoordinate { dim, value: hi });
            }
            if lo > hi {
                return Err(GeomError::InvalidWeights(format!(
                    "MBR lower bound {lo} exceeds upper bound {hi} in dimension {dim}"
                )));
            }
        }
        Ok(Self {
            lower: lower.into_boxed_slice(),
            upper: upper.into_boxed_slice(),
        })
    }

    /// The degenerate MBR covering exactly one point.
    pub fn from_point(p: &Point) -> Self {
        Self {
            lower: p.coords().to_vec().into_boxed_slice(),
            upper: p.coords().to_vec().into_boxed_slice(),
        }
    }

    /// The smallest MBR covering a non-empty set of points.
    ///
    /// # Panics
    /// Panics if `points` is empty.
    pub fn covering_points<'a, I>(points: I) -> Self
    where
        I: IntoIterator<Item = &'a Point>,
    {
        let mut iter = points.into_iter();
        let first = iter
            .next()
            .expect("covering_points requires at least one point");
        let mut mbr = Self::from_point(first);
        for p in iter {
            mbr.expand_to_point(p);
        }
        mbr
    }

    /// The smallest MBR covering a non-empty set of MBRs.
    ///
    /// # Panics
    /// Panics if `mbrs` is empty.
    pub fn covering<'a, I>(mbrs: I) -> Self
    where
        I: IntoIterator<Item = &'a Mbr>,
    {
        let mut iter = mbrs.into_iter();
        let mut acc = iter
            .next()
            .expect("covering requires at least one MBR")
            .clone();
        for m in iter {
            acc.expand_to_mbr(m);
        }
        acc
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.lower.len()
    }

    /// Lower corner (worst corner) coordinates.
    #[inline]
    pub fn lower(&self) -> &[f64] {
        &self.lower
    }

    /// Upper corner (best corner) coordinates.
    #[inline]
    pub fn upper(&self) -> &[f64] {
        &self.upper
    }

    /// Best corner as a [`Point`]; the most preferable object the MBR could
    /// contain under any monotone function.
    pub fn top_corner(&self) -> Point {
        Point::from_slice(&self.upper)
    }

    /// Worst corner as a [`Point`].
    pub fn bottom_corner(&self) -> Point {
        Point::from_slice(&self.lower)
    }

    /// Grows the MBR so it also covers `p`.
    pub fn expand_to_point(&mut self, p: &Point) {
        debug_assert_eq!(self.dims(), p.dims());
        for (dim, &c) in p.coords().iter().enumerate() {
            if c < self.lower[dim] {
                self.lower[dim] = c;
            }
            if c > self.upper[dim] {
                self.upper[dim] = c;
            }
        }
    }

    /// Grows the MBR so it also covers `other`.
    pub fn expand_to_mbr(&mut self, other: &Mbr) {
        debug_assert_eq!(self.dims(), other.dims());
        for dim in 0..self.dims() {
            if other.lower[dim] < self.lower[dim] {
                self.lower[dim] = other.lower[dim];
            }
            if other.upper[dim] > self.upper[dim] {
                self.upper[dim] = other.upper[dim];
            }
        }
    }

    /// The union of two MBRs as a new value.
    pub fn union(&self, other: &Mbr) -> Mbr {
        let mut m = self.clone();
        m.expand_to_mbr(other);
        m
    }

    /// `true` iff the point lies inside the MBR (boundaries included).
    pub fn contains_point(&self, p: &Point) -> bool {
        debug_assert_eq!(self.dims(), p.dims());
        p.coords()
            .iter()
            .enumerate()
            .all(|(dim, &c)| c >= self.lower[dim] && c <= self.upper[dim])
    }

    /// `true` iff the MBR fully contains `other`.
    pub fn contains_mbr(&self, other: &Mbr) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        (0..self.dims()).all(|d| self.lower[d] <= other.lower[d] && self.upper[d] >= other.upper[d])
    }

    /// `true` iff the two MBRs overlap (boundaries included).
    pub fn intersects(&self, other: &Mbr) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        (0..self.dims()).all(|d| self.lower[d] <= other.upper[d] && other.lower[d] <= self.upper[d])
    }

    /// Hyper-volume of the MBR.
    pub fn area(&self) -> f64 {
        (0..self.dims())
            .map(|d| self.upper[d] - self.lower[d])
            .product()
    }

    /// Sum of the side lengths (the "margin" used by R*-style heuristics).
    pub fn margin(&self) -> f64 {
        (0..self.dims())
            .map(|d| self.upper[d] - self.lower[d])
            .sum()
    }

    /// Hyper-volume of the intersection with `other` (zero if disjoint).
    pub fn overlap_area(&self, other: &Mbr) -> f64 {
        let mut acc = 1.0;
        for d in 0..self.dims() {
            let lo = self.lower[d].max(other.lower[d]);
            let hi = self.upper[d].min(other.upper[d]);
            if hi <= lo {
                return 0.0;
            }
            acc *= hi - lo;
        }
        acc
    }

    /// Increase in area if the MBR were expanded to cover `other`.
    pub fn enlargement(&self, other: &Mbr) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Centre of the MBR.
    pub fn center(&self) -> Point {
        Point::from_slice(
            &(0..self.dims())
                .map(|d| (self.lower[d] + self.upper[d]) / 2.0)
                .collect::<Vec<_>>(),
        )
    }

    /// L1 distance from the best corner to the sky point; BBS de-heaps entries
    /// in ascending order of this value.
    pub fn l1_dist_to_sky(&self) -> f64 {
        Point::l1_dist_to_sky_coords(&self.upper)
    }

    /// `true` iff every point inside the MBR is dominated by `p`
    /// (equivalently, `p` dominates the MBR's best corner). Such an entry can
    /// be pruned by BBS.
    pub fn dominated_by(&self, p: &Point) -> bool {
        p.dominates(&self.top_corner())
    }

    /// Upper bound of `f(o)` over every possible object `o` inside the MBR
    /// (the score of the best corner). BRS visits entries in descending order
    /// of this value.
    pub fn maxscore(&self, f: &LinearFunction) -> f64 {
        f.score_coords(&self.upper)
    }

    /// Lower bound of `f(o)` over every possible object `o` inside the MBR.
    pub fn minscore(&self, f: &LinearFunction) -> f64 {
        f.score_coords(&self.lower)
    }
}

impl std::fmt::Display for Mbr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} .. {}]", self.bottom_corner(), self.top_corner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(coords: &[f64]) -> Point {
        Point::from_slice(coords)
    }

    #[test]
    fn new_validates_inputs() {
        assert!(Mbr::new(vec![], vec![]).is_err());
        assert!(Mbr::new(vec![0.0], vec![0.1, 0.2]).is_err());
        assert!(Mbr::new(vec![0.5, 0.5], vec![0.4, 0.9]).is_err());
        assert!(Mbr::new(vec![0.0, f64::NAN], vec![1.0, 1.0]).is_err());
        assert!(Mbr::new(vec![0.0, 0.0], vec![1.0, 1.0]).is_ok());
    }

    #[test]
    fn from_point_is_degenerate() {
        let m = Mbr::from_point(&p(&[0.3, 0.7]));
        assert_eq!(m.lower(), &[0.3, 0.7]);
        assert_eq!(m.upper(), &[0.3, 0.7]);
        assert_eq!(m.area(), 0.0);
        assert!(m.contains_point(&p(&[0.3, 0.7])));
        assert!(!m.contains_point(&p(&[0.3, 0.8])));
    }

    #[test]
    fn covering_points_and_union() {
        let pts = [p(&[0.1, 0.9]), p(&[0.5, 0.2]), p(&[0.3, 0.4])];
        let m = Mbr::covering_points(pts.iter());
        assert_eq!(m.lower(), &[0.1, 0.2]);
        assert_eq!(m.upper(), &[0.5, 0.9]);
        for q in &pts {
            assert!(m.contains_point(q));
        }
        let other = Mbr::from_point(&p(&[0.9, 0.1]));
        let u = m.union(&other);
        assert!(u.contains_mbr(&m));
        assert!(u.contains_mbr(&other));
        assert_eq!(u.upper(), &[0.9, 0.9]);
    }

    #[test]
    fn intersection_and_overlap() {
        let a = Mbr::new(vec![0.0, 0.0], vec![0.5, 0.5]).unwrap();
        let b = Mbr::new(vec![0.4, 0.4], vec![0.8, 0.8]).unwrap();
        let c = Mbr::new(vec![0.6, 0.6], vec![0.9, 0.9]).unwrap();
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!((a.overlap_area(&b) - 0.01).abs() < 1e-12);
        assert_eq!(a.overlap_area(&c), 0.0);
        // touching boundaries: intersects but zero overlap area
        let d = Mbr::new(vec![0.5, 0.0], vec![0.7, 0.5]).unwrap();
        assert!(a.intersects(&d));
        assert_eq!(a.overlap_area(&d), 0.0);
    }

    #[test]
    fn area_margin_enlargement() {
        let a = Mbr::new(vec![0.0, 0.0], vec![0.5, 0.2]).unwrap();
        assert!((a.area() - 0.1).abs() < 1e-12);
        assert!((a.margin() - 0.7).abs() < 1e-12);
        let b = Mbr::new(vec![0.5, 0.2], vec![1.0, 0.4]).unwrap();
        let enl = a.enlargement(&b);
        assert!((enl - (0.4 - 0.1)).abs() < 1e-12);
    }

    #[test]
    fn dominance_pruning_predicate() {
        // Entry with best corner (0.6, 0.4) is pruned by a skyline point (0.7, 0.5)
        let m = Mbr::new(vec![0.1, 0.1], vec![0.6, 0.4]).unwrap();
        assert!(m.dominated_by(&p(&[0.7, 0.5])));
        assert!(!m.dominated_by(&p(&[0.7, 0.3])));
        // A point equal to the best corner does not dominate the MBR.
        assert!(!m.dominated_by(&p(&[0.6, 0.4])));
    }

    #[test]
    fn maxscore_bounds_all_contained_points() {
        let f = LinearFunction::new(vec![0.8, 0.2]).unwrap();
        let m = Mbr::new(vec![0.1, 0.2], vec![0.6, 0.9]).unwrap();
        let max = m.maxscore(&f);
        let min = m.minscore(&f);
        for &(x, y) in &[(0.1, 0.2), (0.6, 0.9), (0.3, 0.5), (0.6, 0.2)] {
            let s = f.score(&p(&[x, y]));
            assert!(s <= max + 1e-12);
            assert!(s >= min - 1e-12);
        }
    }

    #[test]
    fn center_and_sky_distance() {
        let m = Mbr::new(vec![0.2, 0.4], vec![0.6, 0.8]).unwrap();
        assert_eq!(m.center().coords(), &[0.4, 0.6000000000000001]);
        assert!((m.l1_dist_to_sky() - (0.4 + 0.2)).abs() < 1e-12);
    }

    #[test]
    fn display_is_compact() {
        let m = Mbr::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        assert!(m.to_string().starts_with('['));
    }

    proptest! {
        #[test]
        fn union_contains_both(
            a_lo in proptest::collection::vec(0.0f64..0.5, 3),
            b_lo in proptest::collection::vec(0.0f64..0.5, 3),
            a_ext in proptest::collection::vec(0.0f64..0.5, 3),
            b_ext in proptest::collection::vec(0.0f64..0.5, 3),
        ) {
            let a_hi: Vec<f64> = a_lo.iter().zip(&a_ext).map(|(l, e)| l + e).collect();
            let b_hi: Vec<f64> = b_lo.iter().zip(&b_ext).map(|(l, e)| l + e).collect();
            let a = Mbr::new(a_lo, a_hi).unwrap();
            let b = Mbr::new(b_lo, b_hi).unwrap();
            let u = a.union(&b);
            prop_assert!(u.contains_mbr(&a));
            prop_assert!(u.contains_mbr(&b));
            prop_assert!(u.area() + 1e-12 >= a.area().max(b.area()));
        }

        #[test]
        fn maxscore_dominates_contained_point_scores(
            lo in proptest::collection::vec(0.0f64..0.5, 3),
            ext in proptest::collection::vec(0.0f64..0.5, 3),
            t in proptest::collection::vec(0.0f64..=1.0, 3),
            w in proptest::collection::vec(0.01f64..1.0, 3),
        ) {
            let hi: Vec<f64> = lo.iter().zip(&ext).map(|(l, e)| l + e).collect();
            let m = Mbr::new(lo.clone(), hi.clone()).unwrap();
            // interpolate a point inside the MBR
            let inside: Vec<f64> = lo.iter().zip(hi.iter()).zip(t.iter())
                .map(|((l, h), t)| l + (h - l) * t).collect();
            let f = LinearFunction::new(w).unwrap();
            let s = f.score(&Point::new(inside).unwrap());
            prop_assert!(s <= m.maxscore(&f) + 1e-9);
            prop_assert!(s >= m.minscore(&f) - 1e-9);
        }
    }
}
