//! Linear preference functions.

use crate::{GeomError, GeomResult, Mbr, Point};

/// Normalizes a weight vector so the weights sum to one.
///
/// The paper requires every preference function to be normalized "in order not
/// to favor any user" (Section 3). Returns an error for empty vectors,
/// non-finite or negative weights, and all-zero vectors.
pub fn normalize_weights(weights: &[f64]) -> GeomResult<Vec<f64>> {
    let mut out = weights.to_vec();
    normalize_weights_in_place(&mut out)?;
    Ok(out)
}

/// Normalizes a weight vector in place so the weights sum to one.
///
/// The allocation-free variant of [`normalize_weights`], which
/// [`LinearFunction::new`] runs on the vector it already owns: the buffer is
/// validated and rescaled without any intermediate vector. On error the
/// buffer is left untouched.
pub(crate) fn normalize_weights_in_place(weights: &mut [f64]) -> GeomResult<()> {
    let sum = checked_sum(weights)?;
    if sum <= 0.0 {
        return Err(GeomError::InvalidWeights("weights sum to zero".into()));
    }
    for w in weights.iter_mut() {
        *w /= sum;
    }
    Ok(())
}

/// The sum of a weight vector that is non-empty, finite and non-negative.
fn checked_sum(weights: &[f64]) -> GeomResult<f64> {
    if weights.is_empty() {
        return Err(GeomError::EmptyDimensions);
    }
    let mut sum = 0.0;
    for (dim, &w) in weights.iter().enumerate() {
        if !w.is_finite() {
            return Err(GeomError::NonFiniteCoordinate { dim, value: w });
        }
        if w < 0.0 {
            return Err(GeomError::InvalidWeights(format!(
                "negative weight {w} in dimension {dim}"
            )));
        }
        sum += w;
    }
    Ok(sum)
}

/// A monotone linear preference function `f(o) = γ · Σ αᵢ·oᵢ`.
///
/// * The weights `αᵢ` are normalized so they sum to one (Equation 1).
/// * `γ` is the optional user priority of Section 6.2 (Equation 2); it
///   defaults to `1.0` for the standard problem.
///
/// Equation 2 is computed one way only, with the *modified coefficients*
/// `α′ᵢ = γ·αᵢ` of Section 6.2: `f(o) = Σ α′ᵢ·oᵢ` in ascending `i`. The
/// function keeps that effective row beside its weights, so a scalar score,
/// a block kernel and a solver's function index all sum the same products
/// in the same order and agree to the bit. Multiplying the plain sum by `γ`
/// afterwards rounds differently when `γ` is not a power of two, and two
/// paths that disagreed by an ulp would break exact ties differently. For
/// `γ = 1` the effective row is the weights themselves.
///
/// Identity (which user issued the query) and capacity are properties of the
/// *assignment problem*, not of the scoring function, and live in the
/// `pref-assign` crate.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearFunction {
    weights: Box<[f64]>,
    priority: f64,
    /// `γ·αᵢ` per dimension: the row every score is computed from.
    effective: Box<[f64]>,
}

impl LinearFunction {
    /// Creates a function from raw weights, normalizing them to sum to one.
    pub fn new(weights: Vec<f64>) -> GeomResult<Self> {
        Self::with_priority(weights, 1.0)
    }

    /// Creates a prioritized function (`γ ≥ 0`), normalizing the weights.
    pub fn with_priority(mut weights: Vec<f64>, priority: f64) -> GeomResult<Self> {
        check_priority(priority)?;
        normalize_weights_in_place(&mut weights)?;
        Ok(Self::scaled(weights.into_boxed_slice(), priority))
    }

    /// Creates a function from weights that are already normalized, keeping
    /// them bit for bit.
    ///
    /// Intended for generators that sample directly on the simplex and for
    /// decoders of logged functions. The weights must be non-empty, finite
    /// and non-negative and sum to 1 within `1e-6`: anything else is not a
    /// monotone normalized function, and an error.
    pub fn from_normalized(weights: Vec<f64>) -> GeomResult<Self> {
        let sum = checked_sum(&weights)?;
        if (sum - 1.0).abs() >= 1e-6 {
            return Err(GeomError::InvalidWeights(format!(
                "weights sum to {sum}, not 1"
            )));
        }
        Ok(Self::scaled(weights.into_boxed_slice(), 1.0))
    }

    /// The function with normalized `weights` and priority `priority`, its
    /// effective row computed once.
    fn scaled(weights: Box<[f64]>, priority: f64) -> Self {
        let effective = weights.iter().map(|w| w * priority).collect();
        Self {
            weights,
            priority,
            effective,
        }
    }

    /// Number of dimensions the function scores.
    #[inline]
    pub fn dims(&self) -> usize {
        self.weights.len()
    }

    /// The normalized weights `αᵢ`.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Weight in dimension `dim`.
    #[inline]
    pub fn weight(&self, dim: usize) -> f64 {
        self.weights[dim]
    }

    /// The priority multiplier `γ`.
    #[inline]
    pub fn priority(&self) -> f64 {
        self.priority
    }

    /// Returns a copy with priority γ.
    pub fn prioritized(&self, priority: f64) -> GeomResult<Self> {
        check_priority(priority)?;
        Ok(Self::scaled(self.weights.clone(), priority))
    }

    /// The *modified coefficients* `α′ᵢ = γ·αᵢ` of the prioritized variant
    /// (Section 6.2), the row every score is computed from. For `γ = 1` these
    /// are the plain weights.
    #[inline]
    pub fn effective_weights(&self) -> &[f64] {
        &self.effective
    }

    /// Scores a point: `Σ (γ·αᵢ)·oᵢ` (Equations 1 and 2).
    #[inline]
    pub fn score(&self, o: &Point) -> f64 {
        self.score_coords(o.coords())
    }

    /// Scores a raw coordinate slice: [`crate::kernel::dot`] over the
    /// effective row, so scalar and batch scoring share one floating-point
    /// summation order (see the kernel module's determinism contract).
    #[inline]
    pub(crate) fn score_coords(&self, coords: &[f64]) -> f64 {
        crate::kernel::dot(&self.effective, coords)
    }

    /// Upper bound of the score over an MBR (score of its best corner).
    #[inline]
    pub fn maxscore(&self, mbr: &Mbr) -> f64 {
        self.score_coords(mbr.upper())
    }

    /// The effective (priority-scaled) weight vector as a point in weight
    /// space; the Chain adaptation indexes functions by an R-tree over these
    /// points.
    pub fn effective_weights_as_point(&self) -> Point {
        Point::from_slice(&self.effective)
    }
}

/// Refuses a priority that is negative or not finite.
fn check_priority(priority: f64) -> GeomResult<()> {
    if !priority.is_finite() || priority < 0.0 {
        return Err(GeomError::InvalidWeights(format!(
            "priority must be a non-negative finite number, got {priority}"
        )));
    }
    Ok(())
}

impl std::fmt::Display for LinearFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if (self.priority - 1.0).abs() > f64::EPSILON {
            write!(f, "{}*(", self.priority)?;
        }
        for (i, w) in self.weights.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{w:.3}·x{i}")?;
        }
        if (self.priority - 1.0).abs() > f64::EPSILON {
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normalize_weights_validates() {
        assert!(normalize_weights(&[]).is_err());
        assert!(normalize_weights(&[0.0, 0.0]).is_err());
        assert!(normalize_weights(&[-0.1, 0.5]).is_err());
        assert!(normalize_weights(&[f64::NAN, 0.5]).is_err());
        let w = normalize_weights(&[2.0, 2.0, 4.0]).unwrap();
        assert_eq!(w, vec![0.25, 0.25, 0.5]);
    }

    #[test]
    fn normalize_in_place_matches_allocating_variant() {
        let raw = [2.0, 2.0, 4.0];
        let mut buf = raw.to_vec();
        normalize_weights_in_place(&mut buf).unwrap();
        assert_eq!(buf, normalize_weights(&raw).unwrap());
        // errors leave the buffer untouched
        let mut bad = vec![-1.0, 2.0];
        assert!(normalize_weights_in_place(&mut bad).is_err());
        assert_eq!(bad, vec![-1.0, 2.0]);
        let mut empty: Vec<f64> = vec![];
        assert!(normalize_weights_in_place(&mut empty).is_err());
    }

    #[test]
    fn paper_figure1_scores() {
        // f1 = 0.8X + 0.2Y, c = (0.8, 0.2): f1(c) = 0.68, the highest pair score.
        let f1 = LinearFunction::new(vec![0.8, 0.2]).unwrap();
        let f2 = LinearFunction::new(vec![0.2, 0.8]).unwrap();
        let f3 = LinearFunction::new(vec![0.5, 0.5]).unwrap();
        let a = Point::from_slice(&[0.5, 0.6]);
        let b = Point::from_slice(&[0.2, 0.7]);
        let c = Point::from_slice(&[0.8, 0.2]);
        let d = Point::from_slice(&[0.4, 0.4]);
        assert!((f1.score(&c) - 0.68).abs() < 1e-12);
        // and it is indeed the maximum over all pairs
        let best = [&f1, &f2, &f3]
            .iter()
            .flat_map(|f| {
                [&a, &b, &c, &d]
                    .iter()
                    .map(|o| f.score(o))
                    .collect::<Vec<_>>()
            })
            .fold(f64::MIN, f64::max);
        assert!((best - 0.68).abs() < 1e-12);
    }

    #[test]
    fn input_form_translation() {
        // Table 1: Salary marked 4/5, Standing marked 1/5  =>  0.8X + 0.2Y.
        let f = LinearFunction::new(vec![4.0, 1.0]).unwrap();
        assert_eq!(f.weights(), &[0.8, 0.2]);
    }

    #[test]
    fn priority_scales_scores() {
        // Figure 7(b): f1 has γ=3, f3 has γ=1 with equal base weights sums.
        let f1 = LinearFunction::with_priority(vec![0.8, 0.2], 3.0).unwrap();
        let f3 = LinearFunction::with_priority(vec![0.5, 0.5], 1.0).unwrap();
        let o = Point::from_slice(&[0.5, 0.6]);
        assert!(f1.score(&o) > f3.score(&o));
        assert_eq!(f1.effective_weights(), &[0.8 * 3.0, 0.2 * 3.0]);
        assert!(LinearFunction::with_priority(vec![0.5, 0.5], -1.0).is_err());
        assert!(LinearFunction::with_priority(vec![0.5, 0.5], f64::NAN).is_err());
    }

    #[test]
    fn prioritized_copy_keeps_weights() {
        let f = LinearFunction::new(vec![0.3, 0.7]).unwrap();
        let g = f.prioritized(4.0).unwrap();
        assert_eq!(g.weights(), f.weights());
        assert_eq!(g.priority(), 4.0);
        assert!(f.prioritized(f64::INFINITY).is_err());
    }

    #[test]
    fn from_normalized_roundtrip() {
        let f = LinearFunction::from_normalized(vec![0.25, 0.75]).unwrap();
        assert_eq!(f.weights(), &[0.25, 0.75]);
        assert!(LinearFunction::from_normalized(vec![]).is_err());
        // refused in every build, not only under debug assertions
        for bad in [vec![1.5, -0.5], vec![f64::NAN, 1.0], vec![0.5, 0.4]] {
            assert!(
                LinearFunction::from_normalized(bad.clone()).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn weight_space_points() {
        let f = LinearFunction::with_priority(vec![0.25, 0.75], 2.0).unwrap();
        assert_eq!(f.effective_weights_as_point().coords(), &[0.5, 1.5]);
    }

    #[test]
    fn display_mentions_priority_only_when_set() {
        let f = LinearFunction::new(vec![0.5, 0.5]).unwrap();
        assert!(!f.to_string().contains('('));
        let g = f.prioritized(2.0).unwrap();
        assert!(g.to_string().starts_with("2*("));
    }

    #[test]
    fn monotonicity_on_dominating_points() {
        let f = LinearFunction::new(vec![0.6, 0.3, 0.1]).unwrap();
        let hi = Point::from_slice(&[0.9, 0.8, 0.7]);
        let lo = Point::from_slice(&[0.5, 0.8, 0.7]);
        assert!(hi.dominates(&lo));
        assert!(f.score(&hi) >= f.score(&lo));
    }

    proptest! {
        #[test]
        fn weights_always_sum_to_one(
            w in proptest::collection::vec(0.001f64..10.0, 2..7),
        ) {
            let f = LinearFunction::new(w).unwrap();
            let sum: f64 = f.weights().iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }

        #[test]
        fn score_is_monotone(
            w in proptest::collection::vec(0.001f64..10.0, 3),
            a in proptest::collection::vec(0.0f64..1.0, 3),
            b in proptest::collection::vec(0.0f64..1.0, 3),
        ) {
            let f = LinearFunction::new(w).unwrap();
            let pa = Point::new(a).unwrap();
            let pb = Point::new(b).unwrap();
            if pa.dominates_or_equal(&pb) {
                prop_assert!(f.score(&pa) + 1e-12 >= f.score(&pb));
            }
        }

        #[test]
        fn score_is_bounded_by_unit_cube(
            w in proptest::collection::vec(0.001f64..10.0, 2..6),
            o in proptest::collection::vec(0.0f64..=1.0, 2..6),
        ) {
            prop_assume!(w.len() == o.len());
            let f = LinearFunction::new(w).unwrap();
            let s = f.score(&Point::new(o).unwrap());
            prop_assert!((0.0..=1.0 + 1e-9).contains(&s));
        }
    }
}
