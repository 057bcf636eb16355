//! `D`-dimensional points and dominance tests.

use crate::{GeomError, GeomResult};

/// Result of a pairwise dominance comparison between two points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dominance {
    /// The left point dominates the right one.
    Dominates,
    /// The right point dominates the left one.
    DominatedBy,
    /// The points have identical coordinates.
    Equal,
    /// Neither point dominates the other.
    Incomparable,
}

/// A point in the `D`-dimensional preference space.
///
/// Coordinates follow the paper's convention that **larger values are
/// better** in every dimension; the sky point (most preferable imaginary
/// object) is the all-[`Point::SKY_COORD`] vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    coords: Box<[f64]>,
}

impl Point {
    /// Coordinate of the sky point in every dimension (data is normalized to
    /// `[0, 1]`).
    pub const SKY_COORD: f64 = 1.0;

    /// Creates a point from a coordinate vector.
    ///
    /// Returns an error if the vector is empty or contains non-finite values.
    pub fn new(coords: Vec<f64>) -> GeomResult<Self> {
        if coords.is_empty() {
            return Err(GeomError::EmptyDimensions);
        }
        for (dim, &value) in coords.iter().enumerate() {
            if !value.is_finite() {
                return Err(GeomError::NonFiniteCoordinate { dim, value });
            }
        }
        Ok(Self {
            coords: coords.into_boxed_slice(),
        })
    }

    /// Creates a point without validation. Intended for literals in tests and
    /// generators that already guarantee finite coordinates.
    ///
    /// # Panics
    /// Panics if `coords` is empty.
    pub fn from_slice(coords: &[f64]) -> Self {
        assert!(
            !coords.is_empty(),
            "points must have at least one dimension"
        );
        Self {
            coords: coords.to_vec().into_boxed_slice(),
        }
    }

    /// The sky point (all coordinates equal to [`Point::SKY_COORD`]).
    pub fn sky(dims: usize) -> Self {
        Self {
            coords: vec![Self::SKY_COORD; dims].into_boxed_slice(),
        }
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.coords.len()
    }

    /// Coordinate in dimension `dim`.
    ///
    /// # Panics
    /// Panics if `dim >= self.dims()`.
    #[inline]
    pub fn coord(&self, dim: usize) -> f64 {
        self.coords[dim]
    }

    /// All coordinates as a slice.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// `true` when no coordinate is NaN or infinite — what [`Point::new`]
    /// checks and [`Point::from_slice`] does not.
    pub fn is_finite(&self) -> bool {
        self.coords.iter().all(|c| c.is_finite())
    }

    /// Pairwise dominance comparison (larger is better).
    ///
    /// `a` dominates `b` iff `a[i] >= b[i]` for every dimension and the points
    /// are not identical (Section 2.2 of the paper).
    pub fn compare(&self, other: &Self) -> Dominance {
        debug_assert_eq!(self.dims(), other.dims(), "dimension mismatch");
        let mut self_better = false;
        let mut other_better = false;
        for (a, b) in self.coords.iter().zip(other.coords.iter()) {
            if a > b {
                self_better = true;
            } else if b > a {
                other_better = true;
            }
            if self_better && other_better {
                return Dominance::Incomparable;
            }
        }
        match (self_better, other_better) {
            (true, false) => Dominance::Dominates,
            (false, true) => Dominance::DominatedBy,
            (false, false) => Dominance::Equal,
            (true, true) => Dominance::Incomparable,
        }
    }

    /// `true` iff `self` dominates `other`.
    #[inline]
    pub fn dominates(&self, other: &Self) -> bool {
        self.compare(other) == Dominance::Dominates
    }

    /// `true` iff `self` dominates `other` or the two points coincide.
    #[inline]
    pub fn dominates_or_equal(&self, other: &Self) -> bool {
        matches!(self.compare(other), Dominance::Dominates | Dominance::Equal)
    }

    /// L1 (Manhattan) distance from a point's coordinates to the sky point.
    /// BBS visits entries in ascending order of this distance, taken at each
    /// entry's best corner.
    pub fn l1_dist_to_sky_coords(coords: &[f64]) -> f64 {
        coords.iter().map(|&c| (Self::SKY_COORD - c).max(0.0)).sum()
    }
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c:.4}")?;
        }
        write!(f, ")")
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
    fn new_rejects_empty_and_non_finite() {
        assert!(matches!(
            Point::new(vec![]),
            Err(GeomError::EmptyDimensions)
        ));
        assert!(matches!(
            Point::new(vec![0.2, f64::NAN]),
            Err(GeomError::NonFiniteCoordinate { dim: 1, .. })
        ));
        assert!(matches!(
            Point::new(vec![f64::INFINITY]),
            Err(GeomError::NonFiniteCoordinate { dim: 0, .. })
        ));
        assert!(Point::new(vec![0.1, 0.9]).is_ok());
    }

    #[test]
    fn sky_and_origin() {
        let s = Point::sky(3);
        let o = Point::from_slice(&[0.0, 0.0, 0.0]);
        assert_eq!(s.coords(), &[1.0, 1.0, 1.0]);
        assert_eq!(o.coords(), &[0.0, 0.0, 0.0]);
        assert!(s.dominates(&o));
        assert!(!o.dominates(&s));
        assert_eq!(Point::l1_dist_to_sky_coords(s.coords()), 0.0);
        assert_eq!(Point::l1_dist_to_sky_coords(o.coords()), 3.0);
    }

    #[test]
    fn dominance_basic_cases() {
        // From Figure 1 of the paper: a=(0.5,0.6), d=(0.4,0.4) => a dominates d.
        let a = p(&[0.5, 0.6]);
        let d = p(&[0.4, 0.4]);
        assert_eq!(a.compare(&d), Dominance::Dominates);
        assert_eq!(d.compare(&a), Dominance::DominatedBy);
        // a=(0.5,0.6), c=(0.8,0.2) are incomparable.
        let c = p(&[0.8, 0.2]);
        assert_eq!(a.compare(&c), Dominance::Incomparable);
        assert_eq!(c.compare(&a), Dominance::Incomparable);
        // identical points
        assert_eq!(a.compare(&a.clone()), Dominance::Equal);
        assert!(!a.dominates(&a.clone()));
        assert!(a.dominates_or_equal(&a.clone()));
    }

    #[test]
    fn dominance_requires_strict_improvement_somewhere() {
        let a = p(&[0.5, 0.5]);
        let b = p(&[0.5, 0.5]);
        assert_eq!(a.compare(&b), Dominance::Equal);
        let c = p(&[0.5, 0.6]);
        assert!(c.dominates(&a));
        assert!(c.dominates_or_equal(&a));
    }

    #[test]
    fn display_formats_coordinates() {
        let a = p(&[0.25, 0.5]);
        assert_eq!(a.to_string(), "(0.2500, 0.5000)");
    }

    proptest! {
        #[test]
        fn dominance_is_antisymmetric(
            a in proptest::collection::vec(0.0f64..1.0, 2..6),
            b in proptest::collection::vec(0.0f64..1.0, 2..6),
        ) {
            prop_assume!(a.len() == b.len());
            let pa = Point::new(a).unwrap();
            let pb = Point::new(b).unwrap();
            let ab = pa.compare(&pb);
            let ba = pb.compare(&pa);
            match ab {
                Dominance::Dominates => prop_assert_eq!(ba, Dominance::DominatedBy),
                Dominance::DominatedBy => prop_assert_eq!(ba, Dominance::Dominates),
                Dominance::Equal => prop_assert_eq!(ba, Dominance::Equal),
                Dominance::Incomparable => prop_assert_eq!(ba, Dominance::Incomparable),
            }
        }

        #[test]
        fn dominance_is_transitive(
            coords in proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 3), 3),
        ) {
            let a = Point::new(coords[0].clone()).unwrap();
            let b = Point::new(coords[1].clone()).unwrap();
            let c = Point::new(coords[2].clone()).unwrap();
            if a.dominates(&b) && b.dominates(&c) {
                prop_assert!(a.dominates(&c));
            }
        }

        #[test]
        fn sky_point_dominates_or_equals_everything(
            coords in proptest::collection::vec(0.0f64..=1.0, 1..6),
        ) {
            let point = Point::new(coords).unwrap();
            let sky = Point::sky(point.dims());
            prop_assert!(sky.dominates_or_equal(&point));
        }

        #[test]
        fn l1_dist_to_sky_is_monotone_in_dominance(
            a in proptest::collection::vec(0.0f64..1.0, 3),
            b in proptest::collection::vec(0.0f64..1.0, 3),
        ) {
            let pa = Point::new(a).unwrap();
            let pb = Point::new(b).unwrap();
            if pa.dominates(&pb) {
                prop_assert!(
                    Point::l1_dist_to_sky_coords(pa.coords())
                        <= Point::l1_dist_to_sky_coords(pb.coords())
                );
            }
        }
    }
}
