//! Synthetic workload generators for the fair-assignment experiments.
//!
//! The paper evaluates on three synthetic object distributions generated with
//! the methodology of Börzsönyi et al. (*The Skyline Operator*, ICDE 2001) —
//! **independent**, **correlated** and **anti-correlated** — plus two real
//! datasets (Zillow and NBA) that are not redistributable; this crate provides
//! skew-faithful synthetic stand-ins for them ([`zillow_like_objects`],
//! [`nba_like_objects`]: the experiments depend on the data's dimensionality,
//! skew and correlation, not on the actual records). It also generates the preference-function
//! workloads: independently drawn normalized weights, clustered weights
//! (Gaussian around `C` random centers, σ = 0.05, as in Figure 12), priorities
//! and capacities.
//!
//! For the long-lived assignment engine the crate additionally generates
//! deterministic **update streams** ([`update_stream`]): seeded sequences of
//! object / function arrivals and departures with population floors.
//!
//! All generators are deterministic given a seed.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

mod functions;
mod objects;
mod real_like;
mod rng_ext;
mod stream;

pub use functions::{
    clustered_weight_functions, random_capacities, random_priorities, uniform_weight_functions,
};
pub use objects::{anti_correlated_objects, correlated_objects, independent_objects};
pub use real_like::{nba_like_objects, zillow_like_objects, NBA_DIMS, NBA_SIZE, ZILLOW_DIMS};
pub use stream::{update_stream, UpdateEvent, UpdateStreamConfig};

use pref_geom::Point;
use pref_rtree::RecordId;

/// The object distributions used throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectDistribution {
    /// Attribute values drawn uniformly and independently.
    Independent,
    /// Values close to each other across dimensions (good objects are good
    /// everywhere).
    Correlated,
    /// Values that trade off against each other (good in one dimension, poor
    /// in the others); the hardest case, with the largest skylines.
    AntiCorrelated,
    /// Synthetic stand-in for the Zillow real-estate dataset (5 attributes,
    /// heavy skew, positive correlation).
    ZillowLike,
    /// Synthetic stand-in for the NBA player-season dataset (5 attributes,
    /// heavy skew).
    NbaLike,
}

impl ObjectDistribution {
    /// Generates `n` objects of dimensionality `dims` (ignored by the
    /// real-data stand-ins, which are inherently 5-dimensional).
    pub fn generate(self, n: usize, dims: usize, seed: u64) -> Vec<(RecordId, Point)> {
        match self {
            ObjectDistribution::Independent => independent_objects(n, dims, seed),
            ObjectDistribution::Correlated => correlated_objects(n, dims, seed),
            ObjectDistribution::AntiCorrelated => anti_correlated_objects(n, dims, seed),
            ObjectDistribution::ZillowLike => zillow_like_objects(n, seed),
            ObjectDistribution::NbaLike => nba_like_objects(n, seed),
        }
    }

    /// Short label used by the experiment harness output.
    pub fn label(self) -> &'static str {
        match self {
            ObjectDistribution::Independent => "independent",
            ObjectDistribution::Correlated => "correlated",
            ObjectDistribution::AntiCorrelated => "anti-correlated",
            ObjectDistribution::ZillowLike => "zillow-like",
            ObjectDistribution::NbaLike => "nba-like",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_dispatches_and_labels() {
        for dist in [
            ObjectDistribution::Independent,
            ObjectDistribution::Correlated,
            ObjectDistribution::AntiCorrelated,
            ObjectDistribution::ZillowLike,
            ObjectDistribution::NbaLike,
        ] {
            let objs = dist.generate(100, 3, 7);
            assert_eq!(objs.len(), 100);
            assert!(!dist.label().is_empty());
            // all coordinates normalized to [0, 1]
            for (_, p) in &objs {
                for &c in p.coords() {
                    assert!(
                        (0.0..=1.0).contains(&c),
                        "{} out of range for {:?}",
                        c,
                        dist
                    );
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = ObjectDistribution::AntiCorrelated.generate(50, 4, 123);
        let b = ObjectDistribution::AntiCorrelated.generate(50, 4, 123);
        let c = ObjectDistribution::AntiCorrelated.generate(50, 4, 124);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
