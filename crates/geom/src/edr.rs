//! Exclusive dominance region (EDR) helpers.
//!
//! When a skyline object `o` is removed, the only points that may enter the
//! skyline are the ones *exclusively dominated* by `o`: dominated by `o` but
//! not dominated by any remaining skyline object (Section 2.2, Figure 3).
//! [`mbr_may_intersect_edr`] answers the one question the DeltaSky-style
//! baseline maintenance needs — may an MBR contain EDR points? — without
//! materializing the EDR (which consists of up to `|Osky|^D`
//! hyper-rectangles).

use crate::{Mbr, Point};

/// Conservative intersection test between an MBR and the EDR of `removed`.
///
/// The MBR may contain points of the EDR only if
///
/// 1. it overlaps the dominance region of `removed`
///    (`mbr.lower[d] <= removed[d]` in every dimension), and
/// 2. the best corner of the *clipped* MBR (the part inside the dominance
///    region) is not dominated by any remaining skyline object — otherwise
///    every clipped point is dominated and none can be exclusive to `removed`.
///
/// This is the `O(|Osky|·D)` style of check that DeltaSky performs instead of
/// enumerating the EDR rectangles; it never returns `false` for an MBR that
/// truly intersects the EDR (soundness is what the traversals require).
pub fn mbr_may_intersect_edr<'a, I>(mbr: &Mbr, removed: &Point, remaining_skyline: I) -> bool
where
    I: IntoIterator<Item = &'a Point>,
{
    let dims = removed.dims();
    debug_assert_eq!(mbr.dims(), dims);
    // 1. overlap with the dominance region of `removed`
    for d in 0..dims {
        if mbr.lower()[d] > removed.coord(d) {
            return false;
        }
    }
    // best corner of the clipped MBR
    let clipped_top: Vec<f64> = (0..dims)
        .map(|d| mbr.upper()[d].min(removed.coord(d)))
        .collect();
    let clipped_top = Point::from_slice(&clipped_top);
    // 2. not entirely dominated by a remaining skyline object
    !remaining_skyline
        .into_iter()
        .any(|s| s.dominates(&clipped_top))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(c: &[f64]) -> Point {
        Point::from_slice(c)
    }

    /// The reference [`mbr_may_intersect_edr`] is held to: `true` iff `p`
    /// lies in the exclusive dominance region of `removed` with respect to
    /// the remaining skyline objects — `removed` dominates `p` (or coincides
    /// with it) and no remaining skyline object dominates `p`.
    fn point_in_edr<'a, I>(p: &Point, removed: &Point, remaining_skyline: I) -> bool
    where
        I: IntoIterator<Item = &'a Point>,
    {
        if !removed.dominates_or_equal(p) {
            return false;
        }
        !remaining_skyline.into_iter().any(|s| s.dominates(p))
    }

    #[test]
    fn point_in_edr_basic() {
        // skyline {a=(0.9,0.2), d=(0.5,0.5), b=(0.2,0.9)}; remove d.
        let a = p(&[0.9, 0.2]);
        let b = p(&[0.2, 0.9]);
        let d = p(&[0.5, 0.5]);
        let remaining = [a.clone(), b.clone()];
        // (0.45, 0.45) is dominated only by d => in EDR
        assert!(point_in_edr(&p(&[0.45, 0.45]), &d, remaining.iter()));
        // (0.1, 0.1) is dominated by d but also by a? a=(0.9,0.2) dominates (0.1,0.1).
        assert!(!point_in_edr(&p(&[0.1, 0.1]), &d, remaining.iter()));
        // (0.6, 0.4) is not dominated by d at all
        assert!(!point_in_edr(&p(&[0.6, 0.4]), &d, remaining.iter()));
    }

    #[test]
    fn edr_of_figure3_example() {
        // Figure 3(a): skyline {a, c, d, i}; object d is removed; nothing in m1
        // (which lies outside the EDR) should qualify.
        let a = p(&[0.20, 0.95]);
        let c = p(&[0.55, 0.80]);
        let d = p(&[0.70, 0.60]);
        let i = p(&[0.90, 0.30]);
        let remaining = [a, c.clone(), i.clone()];
        // A point under c and d but above i in y, below c in x:
        let q = p(&[0.65, 0.55]);
        assert!(point_in_edr(&q, &d, remaining.iter()));
        // A point dominated by c is not exclusive to d:
        let r = p(&[0.50, 0.70]);
        assert!(!point_in_edr(&r, &d, remaining.iter()));
    }

    #[test]
    fn mbr_intersection_is_sound() {
        let d = p(&[0.7, 0.6]);
        let remaining = [p(&[0.2, 0.95]), p(&[0.9, 0.3])];
        // An MBR fully inside the EDR
        let inside = Mbr::new(vec![0.4, 0.35], vec![0.65, 0.55]).unwrap();
        assert!(mbr_may_intersect_edr(&inside, &d, remaining.iter()));
        // An MBR entirely to the right of d's dominance region
        let outside = Mbr::new(vec![0.75, 0.1], vec![0.9, 0.2]).unwrap();
        assert!(!mbr_may_intersect_edr(&outside, &d, remaining.iter()));
        // An MBR whose clipped best corner is dominated by a remaining point
        let dominated = Mbr::new(vec![0.0, 0.0], vec![0.1, 0.2]).unwrap();
        assert!(!mbr_may_intersect_edr(&dominated, &d, remaining.iter()));
    }

    #[test]
    fn mbr_intersection_never_misses_a_point_in_edr() {
        // Soundness check on a grid of tiny MBRs: if a point is in the EDR,
        // the MBR containing it must pass the intersection test.
        let d = p(&[0.7, 0.6]);
        let remaining = [p(&[0.2, 0.95]), p(&[0.9, 0.3])];
        let steps = 20;
        for xi in 0..steps {
            for yi in 0..steps {
                let x = xi as f64 / steps as f64;
                let y = yi as f64 / steps as f64;
                let q = p(&[x, y]);
                if point_in_edr(&q, &d, remaining.iter()) {
                    let cell = Mbr::new(vec![x, y], vec![x + 0.01, y + 0.01]).unwrap();
                    assert!(
                        mbr_may_intersect_edr(&cell, &d, remaining.iter()),
                        "missed EDR point at ({x}, {y})"
                    );
                }
            }
        }
    }
}
