//! The fractional-knapsack tight threshold of Section 5.1.

use pref_geom::Point;

/// Computes the tight TA termination threshold `T_tight` for an object `o`.
///
/// `last_seen[i]` is the last coefficient value drawn in sorted (descending)
/// order from list `L_i`; any function not yet encountered has `α_i ≤
/// last_seen[i]` in every dimension, and its coefficients sum to at most
/// `budget` (1 for normalized functions, `max γ` for prioritized ones). The
/// best score such a function could achieve on `o` is therefore the solution
/// of a fractional knapsack: choose `β_i ≤ last_seen[i]` with `Σ β_i ≤ budget`
/// maximizing `Σ β_i · o_i`, solved greedily by filling the dimensions in
/// decreasing order of `o_i`.
///
/// Sorts the dimensions on every call; [`crate::ReverseTopOne`], which asks
/// repeatedly for one object, sorts once and calls the fill directly.
pub(crate) fn tight_threshold(object: &Point, last_seen: &[f64], budget: f64) -> f64 {
    debug_assert_eq!(object.dims(), last_seen.len());
    threshold_in_order(object, &fill_order(object), budget, |dim| last_seen[dim])
}

/// The acceptance rule of every search bounded by [`tight_threshold`]: the
/// best score seen is the answer only once the bound on the functions *not*
/// seen is strictly below it, by more than the bound's rounding. At `score ==
/// threshold` an unseen function can still tie the best exactly, and the tie
/// rule (lowest function index, the oracle's order) needs every tied
/// function seen before the search answers.
#[inline]
pub(crate) fn beats_unseen(score: f64, threshold: f64) -> bool {
    score > threshold + 1e-12
}

/// The greedy knapsack's fill order for `object`: its dimensions by
/// coordinate, descending. The sort is stable, so tied coordinates keep their
/// ascending dimension order — part of the threshold's bit pattern, since the
/// fill is a floating-point sum.
pub(crate) fn fill_order(object: &Point) -> Vec<usize> {
    let mut order: Vec<usize> = (0..object.dims()).collect();
    order.sort_by(|&a, &b| {
        object
            .coord(b)
            .partial_cmp(&object.coord(a))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    order
}

/// The knapsack fill itself, over a precomputed [`fill_order`]: `cap(dim)` is
/// the largest coefficient an unseen function can still have in `dim`
/// (negative caps count as zero).
#[inline]
pub(crate) fn threshold_in_order(
    object: &Point,
    order: &[usize],
    budget: f64,
    cap: impl Fn(usize) -> f64,
) -> f64 {
    debug_assert_eq!(object.dims(), order.len());
    debug_assert!(budget >= 0.0);
    let mut remaining = budget;
    let mut bound = 0.0;
    for &dim in order {
        if remaining <= 0.0 {
            break;
        }
        let beta = remaining.min(cap(dim).max(0.0));
        bound += beta * object.coord(dim);
        remaining -= beta;
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use pref_geom::LinearFunction;
    use proptest::prelude::*;

    #[test]
    fn paper_running_example() {
        // Section 5.1: o = (10, 6, 8), last seen l = (0.8, 0.8, 0.9).
        // Greedy fill: dimension 1 gets 0.8, dimension 3 gets 0.2 -> T = 9.6.
        let o = Point::from_slice(&[10.0, 6.0, 8.0]);
        let t = tight_threshold(&o, &[0.8, 0.8, 0.9], 1.0);
        assert!((t - 9.6).abs() < 1e-12);
        // After the next access l1 drops to 0.5: T = 0.5*10 + 0.5*8 = 9.
        let t = tight_threshold(&o, &[0.5, 0.8, 0.9], 1.0);
        assert!((t - 9.0).abs() < 1e-12);
    }

    #[test]
    fn loose_sum_would_overestimate() {
        // The naive TA threshold Σ l_i · o_i ignores the normalization
        // constraint and is strictly looser here.
        let o = Point::from_slice(&[10.0, 6.0, 8.0]);
        let naive = 0.8 * 10.0 + 0.8 * 6.0 + 0.9 * 8.0;
        let tight = tight_threshold(&o, &[0.8, 0.8, 0.9], 1.0);
        assert!(tight < naive);
    }

    #[test]
    fn budget_zero_gives_zero() {
        let o = Point::from_slice(&[1.0, 1.0]);
        assert_eq!(tight_threshold(&o, &[1.0, 1.0], 0.0), 0.0);
    }

    #[test]
    fn large_budget_is_capped_by_last_seen() {
        let o = Point::from_slice(&[0.5, 0.5]);
        // even with budget 10, each coefficient is at most its last-seen value
        let t = tight_threshold(&o, &[0.3, 0.2], 10.0);
        assert!((t - (0.3 * 0.5 + 0.2 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn prioritized_budget_scales_threshold() {
        let o = Point::from_slice(&[0.9, 0.1]);
        let t1 = tight_threshold(&o, &[1.0, 1.0], 1.0);
        let t4 = tight_threshold(&o, &[4.0, 4.0], 4.0);
        assert!((t4 - 4.0 * t1).abs() < 1e-9);
    }

    #[test]
    fn negative_last_seen_values_are_clamped() {
        let o = Point::from_slice(&[0.5, 0.5]);
        let t = tight_threshold(&o, &[-0.2, 0.4], 1.0);
        assert!((t - 0.2).abs() < 1e-12);
    }

    proptest! {
        /// Soundness: the tight threshold upper-bounds the score of every
        /// normalized function whose coefficients are bounded by `last_seen`.
        #[test]
        fn upper_bounds_all_feasible_functions(
            o in proptest::collection::vec(0.0f64..1.0, 3),
            raw_w in proptest::collection::vec(0.01f64..1.0, 3),
            slack in proptest::collection::vec(0.0f64..0.3, 3),
        ) {
            let object = Point::new(o).unwrap();
            let f = LinearFunction::new(raw_w).unwrap();
            // last_seen dominates the function's true coefficients
            let last_seen: Vec<f64> = f.weights().iter().zip(&slack).map(|(w, s)| w + s).collect();
            let t = tight_threshold(&object, &last_seen, 1.0);
            prop_assert!(f.score(&object) <= t + 1e-9);
        }

        /// Monotonicity: lowering the last-seen vector never raises the bound.
        #[test]
        fn monotone_in_last_seen(
            o in proptest::collection::vec(0.0f64..1.0, 4),
            hi in proptest::collection::vec(0.0f64..1.0, 4),
            shrink in proptest::collection::vec(0.0f64..1.0, 4),
        ) {
            let object = Point::new(o).unwrap();
            let lo: Vec<f64> = hi.iter().zip(&shrink).map(|(h, s)| h * s).collect();
            let t_hi = tight_threshold(&object, &hi, 1.0);
            let t_lo = tight_threshold(&object, &lo, 1.0);
            prop_assert!(t_lo <= t_hi + 1e-12);
        }
    }
}
