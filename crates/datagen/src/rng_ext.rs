//! Small sampling helpers on top of `rand`.

use rand::Rng;

/// Draws a standard-normal variate using the Box–Muller transform.
///
/// Implemented locally to avoid pulling in `rand_distr` for a single
/// distribution: the workspace builds offline from the vendored crates in
/// `vendor/`, and `rand_distr` is not among them.
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn moments_are_approximately_standard() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }

    #[test]
    fn samples_are_finite() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!((0..10_000).all(|_| standard_normal(&mut rng).is_finite()));
    }
}
