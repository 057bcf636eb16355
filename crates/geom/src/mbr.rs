//! Minimum bounding rectangles and the visiting orders of branch-and-bound
//! skyline (BBS) and branch-and-bound ranked search (BRS). BBS's pruning test
//! is a dominance scan of the best corner (`kernel::first_dominator_from`).

use crate::{GeomError, GeomResult, LinearFunction, Point};

/// An axis-aligned minimum bounding rectangle in the preference space.
///
/// The *top corner* (`upper`) is the best possible object inside the MBR under
/// any monotone preference function; it drives both BBS ordering (L1 distance
/// to the sky point) and BRS ordering (`maxscore`).
#[derive(Debug, Clone, PartialEq)]
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
        Self::from_bounds(p.coords(), p.coords())
    }

    /// An MBR with copies of the given corners, which the caller takes from
    /// an existing MBR or point (no validation).
    pub fn from_bounds(lower: &[f64], upper: &[f64]) -> Self {
        debug_assert_eq!(lower.len(), upper.len());
        Self {
            lower: lower.into(),
            upper: upper.into(),
        }
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
    pub(crate) fn bottom_corner(&self) -> Point {
        Point::from_slice(&self.lower)
    }

    /// Grows the MBR so it also covers `other`.
    pub fn expand_to_mbr(&mut self, other: &Mbr) {
        self.expand_to_bounds(&other.lower, &other.upper);
    }

    /// Grows the MBR so it also covers the box with corners `lower` and
    /// `upper`, without building it.
    pub fn expand_to_bounds(&mut self, lower: &[f64], upper: &[f64]) {
        debug_assert_eq!(self.dims(), lower.len());
        for dim in 0..self.dims() {
            if lower[dim] < self.lower[dim] {
                self.lower[dim] = lower[dim];
            }
            if upper[dim] > self.upper[dim] {
                self.upper[dim] = upper[dim];
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

    /// `(enlargement, area)` of the box with corners `lower`/`upper` when it
    /// grows to cover the box `other_lower`/`other_upper`: the same
    /// compare-and-assign union and ascending-`d` product as
    /// [`Mbr::enlargement`] and [`Mbr::area`], so bit-identical to them, with
    /// neither box built.
    pub fn enlargement_of_bounds(
        lower: &[f64],
        upper: &[f64],
        other_lower: &[f64],
        other_upper: &[f64],
    ) -> (f64, f64) {
        debug_assert_eq!(lower.len(), other_lower.len());
        let (mut union, mut area) = (1.0, 1.0);
        for d in 0..lower.len() {
            let lo = if other_lower[d] < lower[d] {
                other_lower[d]
            } else {
                lower[d]
            };
            let hi = if other_upper[d] > upper[d] {
                other_upper[d]
            } else {
                upper[d]
            };
            union *= hi - lo;
            area *= upper[d] - lower[d];
        }
        (union - area, area)
    }

    /// Sum of the side lengths (the "margin" used by R*-style heuristics).
    pub fn margin(&self) -> f64 {
        (0..self.dims())
            .map(|d| self.upper[d] - self.lower[d])
            .sum()
    }

    /// Increase in area if the MBR were expanded to cover `other`.
    pub fn enlargement(&self, other: &Mbr) -> f64 {
        Self::enlargement_of_bounds(&self.lower, &self.upper, &other.lower, &other.upper).0
    }

    /// Centre of the MBR.
    pub fn center(&self) -> Point {
        Point::from_slice(
            &(0..self.dims())
                .map(|d| (self.lower[d] + self.upper[d]) / 2.0)
                .collect::<Vec<_>>(),
        )
    }

    /// Upper bound of `f(o)` over every possible object `o` inside the MBR
    /// (the score of the best corner). BRS visits entries in descending order
    /// of this value.
    pub fn maxscore(&self, f: &LinearFunction) -> f64 {
        f.score_coords(&self.upper)
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
        let mut m = Mbr::from_point(&pts[0]);
        for q in &pts[1..] {
            m.expand_to_mbr(&Mbr::from_point(q));
        }
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
        // touching boundaries intersect
        let d = Mbr::new(vec![0.5, 0.0], vec![0.7, 0.5]).unwrap();
        assert!(a.intersects(&d));
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
    fn maxscore_bounds_all_contained_points() {
        let f = LinearFunction::new(vec![0.8, 0.2]).unwrap();
        let m = Mbr::new(vec![0.1, 0.2], vec![0.6, 0.9]).unwrap();
        let max = m.maxscore(&f);
        for &(x, y) in &[(0.1, 0.2), (0.6, 0.9), (0.3, 0.5), (0.6, 0.2)] {
            assert!(f.score(&p(&[x, y])) <= max + 1e-12);
        }
    }

    #[test]
    fn center_and_sky_distance() {
        let m = Mbr::new(vec![0.2, 0.4], vec![0.6, 0.8]).unwrap();
        assert_eq!(m.center().coords(), &[0.4, 0.6000000000000001]);
        assert!((Point::l1_dist_to_sky_coords(m.upper()) - (0.4 + 0.2)).abs() < 1e-12);
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
            // the borrowed-bounds path is bit-identical to building the union
            let (enlargement, area) =
                Mbr::enlargement_of_bounds(a.lower(), a.upper(), b.lower(), b.upper());
            prop_assert_eq!(enlargement.to_bits(), (u.area() - a.area()).to_bits());
            prop_assert_eq!(area.to_bits(), a.area().to_bits());
            let mut grown = Mbr::from_bounds(a.lower(), a.upper());
            grown.expand_to_bounds(b.lower(), b.upper());
            prop_assert_eq!(grown, u);
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
        }
    }
}
