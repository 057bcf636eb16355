//! Geometric primitives for the fair-assignment library.
//!
//! Everything in this crate operates on the *preference space* of the paper
//! "A Fair Assignment Algorithm for Multiple Preference Queries" (VLDB 2009):
//! objects are points with `D` feature values where **larger is better**, the
//! imaginary most preferable object (the *sky point*) is the corner of the
//! space with the largest value in every dimension, and user preferences are
//! monotone linear functions whose weights sum to one.
//!
//! The crate provides:
//!
//! * [`Point`] — a `D`-dimensional feature vector with dominance tests,
//! * [`Mbr`] — minimum bounding rectangles with the pruning predicates used by
//!   branch-and-bound skyline (BBS) and ranked search (BRS),
//! * [`LinearFunction`] — normalized (optionally prioritized) linear
//!   preference functions with `score` / `maxscore`,
//! * [`edr`] — exclusive dominance region helpers used by skyline maintenance,
//! * [`kernel`] — columnar (SoA) batch-scoring kernels with a bit-identical
//!   determinism contract ([`SoaBlock`], [`ScoreTable`]).
//!
//! All coordinates are assumed to lie in `[0, 1]`; the sky point is the
//! all-ones vector. Nothing enforces this range (real datasets are normalized
//! by the caller), but [`Point::SKY_COORD`] documents the convention.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod edr;
mod function;
pub mod kernel;
mod mbr;
mod point;

pub use function::{normalize_weights, LinearFunction};
pub use kernel::{ScoreTable, SoaBlock};
pub use mbr::Mbr;
pub use point::{Dominance, Point};

/// Convenience result alias used by fallible constructors in this crate.
pub type GeomResult<T> = Result<T, GeomError>;

/// Errors produced by constructors and combinators in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum GeomError {
    /// Two operands had different dimensionalities.
    DimensionMismatch {
        /// Dimensionality of the left operand.
        left: usize,
        /// Dimensionality of the right operand.
        right: usize,
    },
    /// A point / weight vector with zero dimensions was supplied.
    EmptyDimensions,
    /// Weights could not be normalized (non-finite or non-positive sum).
    InvalidWeights(String),
    /// A coordinate was not a finite number.
    NonFiniteCoordinate {
        /// Index of the offending dimension.
        dim: usize,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for GeomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeomError::DimensionMismatch { left, right } => {
                write!(f, "dimension mismatch: {left} vs {right}")
            }
            GeomError::EmptyDimensions => write!(f, "zero-dimensional input"),
            GeomError::InvalidWeights(msg) => write!(f, "invalid weights: {msg}"),
            GeomError::NonFiniteCoordinate { dim, value } => {
                write!(f, "non-finite coordinate {value} in dimension {dim}")
            }
        }
    }
}

impl std::error::Error for GeomError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = GeomError::DimensionMismatch { left: 2, right: 3 };
        assert!(e.to_string().contains("2"));
        assert!(e.to_string().contains("3"));
        let e = GeomError::NonFiniteCoordinate {
            dim: 1,
            value: f64::NAN,
        };
        assert!(e.to_string().contains("dimension 1"));
        let e = GeomError::EmptyDimensions;
        assert!(!e.to_string().is_empty());
        let e = GeomError::InvalidWeights("sum is zero".into());
        assert!(e.to_string().contains("sum is zero"));
    }
}
