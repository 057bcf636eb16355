//! Assignments (matchings) and stability verification.

use crate::problem::{FunctionId, Problem};
use pref_rtree::RecordId;
use std::collections::HashMap;

/// One assigned function-object pair with its score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchPair {
    /// The assigned preference function (user).
    pub function: FunctionId,
    /// The object assigned to the function.
    pub object: RecordId,
    /// The score `f(o)` at assignment time.
    pub score: f64,
}

/// A complete assignment: the list of matched pairs in the order they were
/// established (descending score for a stable assignment).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Assignment {
    pairs: Vec<MatchPair>,
}

impl Assignment {
    /// An empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a pair (kept in insertion order).
    pub fn push(&mut self, function: FunctionId, object: RecordId, score: f64) {
        self.pairs.push(MatchPair {
            function,
            object,
            score,
        });
    }

    /// All pairs in assignment order.
    pub fn pairs(&self) -> &[MatchPair] {
        &self.pairs
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when no pair has been assigned.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The first object assigned to a function (functions with capacity > 1
    /// may appear in several pairs; see [`Assignment::objects_of`]).
    pub fn object_of(&self, function: FunctionId) -> Option<RecordId> {
        self.pairs
            .iter()
            .find(|p| p.function == function)
            .map(|p| p.object)
    }

    /// All objects assigned to a function.
    pub fn objects_of(&self, function: FunctionId) -> Vec<RecordId> {
        self.pairs
            .iter()
            .filter(|p| p.function == function)
            .map(|p| p.object)
            .collect()
    }

    /// All functions an object was assigned to.
    pub fn functions_of(&self, object: RecordId) -> Vec<FunctionId> {
        self.pairs
            .iter()
            .filter(|p| p.object == object)
            .map(|p| p.function)
            .collect()
    }

    /// Multiset of (function, object, rounded score) triples, independent of
    /// assignment order; used to compare algorithms that may emit pairs in
    /// different orders.
    pub fn canonical(&self) -> Vec<(usize, u64, u64)> {
        canonical_of(self.pairs.iter().map(|p| (p.function, p.object, p.score)))
    }
}

/// The canonical encoding of a matching given as `(function, object, score)`
/// triples: each becomes `(function, object, (score · 1e9).round())`, and
/// the list is sorted. [`Assignment::canonical`] and
/// [`crate::AssignmentView::canonical`] both call this, so the two encodings
/// cannot drift apart.
pub(crate) fn canonical_of(
    pairs: impl Iterator<Item = (FunctionId, RecordId, f64)>,
) -> Vec<(usize, u64, u64)> {
    let mut v: Vec<(usize, u64, u64)> = pairs
        .map(|(f, o, score)| (f.0, o.0, (score * 1e9).round() as u64))
        .collect();
    v.sort_unstable();
    v
}

/// A violation of the stable-assignment property.
#[derive(Debug, Clone, PartialEq)]
pub enum StabilityViolation {
    /// A function or object was assigned more times than its capacity allows.
    CapacityExceeded(String),
    /// A pair's recorded score does not match `f(o)`.
    WrongScore {
        /// The offending pair.
        pair: MatchPair,
        /// The recomputed score.
        expected: f64,
    },
    /// A blocking pair exists: both sides strictly prefer each other over
    /// (one of) their current partners, violating Definition 1.
    BlockingPair {
        /// The function side of the blocking pair.
        function: FunctionId,
        /// The object side of the blocking pair.
        object: RecordId,
        /// Score of the blocking pair.
        score: f64,
    },
    /// Fewer pairs were produced than `min(total demand, total supply)`.
    IncompleteMatching {
        /// Pairs produced.
        got: usize,
        /// Pairs expected.
        expected: u64,
    },
    /// A pair references an unknown function or object.
    UnknownId(String),
    /// A function scores an object with NaN or an infinity, which no
    /// comparison can rank.
    NonFiniteScore {
        /// The function side of the pair.
        function: FunctionId,
        /// The object side of the pair.
        object: RecordId,
    },
}

impl std::fmt::Display for StabilityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StabilityViolation::CapacityExceeded(msg) => write!(f, "capacity exceeded: {msg}"),
            StabilityViolation::WrongScore { pair, expected } => write!(
                f,
                "pair ({}, {}) records score {} but f(o) = {expected}",
                pair.function, pair.object, pair.score
            ),
            StabilityViolation::BlockingPair {
                function,
                object,
                score,
            } => write!(f, "blocking pair ({function}, {object}) with score {score}"),
            StabilityViolation::IncompleteMatching { got, expected } => {
                write!(f, "incomplete matching: {got} pairs, expected {expected}")
            }
            StabilityViolation::UnknownId(msg) => write!(f, "unknown id: {msg}"),
            StabilityViolation::NonFiniteScore { function, object } => {
                write!(f, "{function} scores {object} with a non-finite number")
            }
        }
    }
}

/// Verifies that an assignment is a complete, capacity-respecting **stable**
/// matching for the problem (Definition 1 / Property 2 generalized to
/// capacities).
///
/// A pair `(f, o)` *blocks* the assignment if `f` still has unused capacity or
/// is matched to some object it likes strictly less than `o`, and `o` still
/// has unused capacity or is matched to some function that scores it strictly
/// lower than `f` does. The check is exact: every solver scores with
/// [`pref_geom::LinearFunction::score`]'s bits, so a recorded score must have
/// exactly those bits, and "strictly" allows no slack. A score that is NaN
/// or infinite is itself a violation, since every comparison with NaN is
/// false. It is quadratic and intended for tests and examples.
pub fn verify_stable(problem: &Problem, assignment: &Assignment) -> Result<(), StabilityViolation> {
    // capacity bookkeeping and score validation
    let mut f_used: HashMap<FunctionId, u32> = HashMap::new();
    let mut o_used: HashMap<RecordId, u32> = HashMap::new();
    for pair in assignment.pairs() {
        let function = problem
            .function(pair.function)
            .ok_or_else(|| StabilityViolation::UnknownId(format!("{}", pair.function)))?;
        let object = problem
            .object(pair.object)
            .ok_or_else(|| StabilityViolation::UnknownId(format!("{}", pair.object)))?;
        let expected = function.function.score(&object.point);
        if expected.to_bits() != pair.score.to_bits() {
            return Err(StabilityViolation::WrongScore {
                pair: *pair,
                expected,
            });
        }
        let fu = f_used.entry(pair.function).or_insert(0);
        *fu += 1;
        if *fu > function.capacity {
            return Err(StabilityViolation::CapacityExceeded(format!(
                "{} used {} of {}",
                pair.function, fu, function.capacity
            )));
        }
        let ou = o_used.entry(pair.object).or_insert(0);
        *ou += 1;
        if *ou > object.capacity {
            return Err(StabilityViolation::CapacityExceeded(format!(
                "{} used {} of {}",
                pair.object, ou, object.capacity
            )));
        }
    }

    // completeness
    let expected_pairs = problem.expected_pairs();
    if (assignment.len() as u64) < expected_pairs {
        return Err(StabilityViolation::IncompleteMatching {
            got: assignment.len(),
            expected: expected_pairs,
        });
    }

    // worst (lowest-scoring) partner each side currently holds, if saturated
    let mut f_worst: HashMap<FunctionId, f64> = HashMap::new();
    let mut o_worst: HashMap<RecordId, f64> = HashMap::new();
    for pair in assignment.pairs() {
        f_worst
            .entry(pair.function)
            .and_modify(|v| *v = v.min(pair.score))
            .or_insert(pair.score);
        o_worst
            .entry(pair.object)
            .and_modify(|v| *v = v.min(pair.score))
            .or_insert(pair.score);
    }

    // blocking-pair scan
    for function in problem.functions() {
        let f_saturated = f_used.get(&function.id).copied().unwrap_or(0) >= function.capacity;
        for object in problem.objects() {
            let score = function.function.score(&object.point);
            if !score.is_finite() {
                return Err(StabilityViolation::NonFiniteScore {
                    function: function.id,
                    object: object.id,
                });
            }
            let o_saturated = o_used.get(&object.id).copied().unwrap_or(0) >= object.capacity;
            let f_wants = if f_saturated {
                score > f_worst.get(&function.id).copied().unwrap_or(f64::MIN)
            } else {
                true
            };
            let o_wants = if o_saturated {
                score > o_worst.get(&object.id).copied().unwrap_or(f64::MIN)
            } else {
                true
            };
            // an unsaturated function facing an unsaturated object is only a
            // violation if the matching could still have grown, which the
            // completeness check above already guarantees cannot happen
            if f_wants && o_wants && (f_saturated || o_saturated) {
                return Err(StabilityViolation::BlockingPair {
                    function: function.id,
                    object: object.id,
                    score,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ObjectRecord, PreferenceFunction};
    use pref_geom::{LinearFunction, Point};

    fn figure1_problem() -> Problem {
        Problem::new(
            vec![
                PreferenceFunction::new(0, LinearFunction::new(vec![0.8, 0.2]).unwrap()),
                PreferenceFunction::new(1, LinearFunction::new(vec![0.2, 0.8]).unwrap()),
                PreferenceFunction::new(2, LinearFunction::new(vec![0.5, 0.5]).unwrap()),
            ],
            vec![
                ObjectRecord::new(0, Point::from_slice(&[0.5, 0.6])), // a
                ObjectRecord::new(1, Point::from_slice(&[0.2, 0.7])), // b
                ObjectRecord::new(2, Point::from_slice(&[0.8, 0.2])), // c
                ObjectRecord::new(3, Point::from_slice(&[0.4, 0.4])), // d
            ],
        )
        .unwrap()
    }

    fn stable_figure1_assignment(p: &Problem) -> Assignment {
        // the assignment derived in the paper: (f1,c), (f2,b), (f3,a)
        let mut a = Assignment::new();
        a.push(
            FunctionId(0),
            RecordId(2),
            p.score(FunctionId(0), RecordId(2)).unwrap(),
        );
        a.push(
            FunctionId(1),
            RecordId(1),
            p.score(FunctionId(1), RecordId(1)).unwrap(),
        );
        a.push(
            FunctionId(2),
            RecordId(0),
            p.score(FunctionId(2), RecordId(0)).unwrap(),
        );
        a
    }

    #[test]
    fn paper_assignment_is_stable() {
        let p = figure1_problem();
        let a = stable_figure1_assignment(&p);
        verify_stable(&p, &a).unwrap();
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert_eq!(a.object_of(FunctionId(0)), Some(RecordId(2)));
        assert_eq!(a.functions_of(RecordId(1)), vec![FunctionId(1)]);
    }

    #[test]
    fn swapping_partners_creates_a_blocking_pair() {
        let p = figure1_problem();
        let mut a = Assignment::new();
        // give f1 object a and f3 object c: (f1, c) now blocks
        a.push(
            FunctionId(0),
            RecordId(0),
            p.score(FunctionId(0), RecordId(0)).unwrap(),
        );
        a.push(
            FunctionId(1),
            RecordId(1),
            p.score(FunctionId(1), RecordId(1)).unwrap(),
        );
        a.push(
            FunctionId(2),
            RecordId(2),
            p.score(FunctionId(2), RecordId(2)).unwrap(),
        );
        match verify_stable(&p, &a) {
            Err(StabilityViolation::BlockingPair {
                function, object, ..
            }) => {
                assert_eq!(function, FunctionId(0));
                assert_eq!(object, RecordId(2));
            }
            other => panic!("expected a blocking pair, got {other:?}"),
        }
    }

    #[test]
    fn wrong_score_detected() {
        let p = figure1_problem();
        let mut a = stable_figure1_assignment(&p);
        a.pairs[0].score += 0.5;
        assert!(matches!(
            verify_stable(&p, &a),
            Err(StabilityViolation::WrongScore { .. })
        ));
    }

    #[test]
    fn incomplete_matching_detected() {
        let p = figure1_problem();
        let mut a = stable_figure1_assignment(&p);
        a.pairs.pop();
        assert!(matches!(
            verify_stable(&p, &a),
            Err(StabilityViolation::IncompleteMatching {
                got: 2,
                expected: 3
            })
        ));
    }

    #[test]
    fn capacity_violation_detected() {
        let p = figure1_problem();
        let mut a = stable_figure1_assignment(&p);
        // assign object c a second time
        a.push(
            FunctionId(1),
            RecordId(2),
            p.score(FunctionId(1), RecordId(2)).unwrap(),
        );
        assert!(matches!(
            verify_stable(&p, &a),
            Err(StabilityViolation::CapacityExceeded(_))
        ));
    }

    #[test]
    fn unknown_ids_detected() {
        let p = figure1_problem();
        let mut a = Assignment::new();
        a.push(FunctionId(99), RecordId(0), 0.5);
        assert!(matches!(
            verify_stable(&p, &a),
            Err(StabilityViolation::UnknownId(_))
        ));
    }

    #[test]
    fn canonical_form_is_order_independent() {
        let p = figure1_problem();
        let a = stable_figure1_assignment(&p);
        let mut b = Assignment::new();
        for pair in a.pairs().iter().rev() {
            b.push(pair.function, pair.object, pair.score);
        }
        assert_eq!(a.canonical(), b.canonical());
        assert_ne!(a.pairs(), b.pairs());
    }

    #[test]
    fn violation_messages_are_informative() {
        let v = StabilityViolation::BlockingPair {
            function: FunctionId(1),
            object: RecordId(2),
            score: 0.9,
        };
        assert!(v.to_string().contains("f1"));
        assert!(v.to_string().contains("r2"));
        let v = StabilityViolation::IncompleteMatching {
            got: 1,
            expected: 3,
        };
        assert!(v.to_string().contains('3'));
    }

    #[test]
    fn capacitated_stability_accepts_multi_assignment() {
        // one function with capacity 2 taking the two best objects is stable
        let p = Problem::new(
            vec![
                PreferenceFunction::new(0, LinearFunction::new(vec![0.5, 0.5]).unwrap())
                    .with_capacity(2),
            ],
            vec![
                ObjectRecord::new(0, Point::from_slice(&[0.9, 0.9])),
                ObjectRecord::new(1, Point::from_slice(&[0.5, 0.5])),
                ObjectRecord::new(2, Point::from_slice(&[0.1, 0.1])),
            ],
        )
        .unwrap();
        let mut a = Assignment::new();
        a.push(
            FunctionId(0),
            RecordId(0),
            p.score(FunctionId(0), RecordId(0)).unwrap(),
        );
        a.push(
            FunctionId(0),
            RecordId(1),
            p.score(FunctionId(0), RecordId(1)).unwrap(),
        );
        verify_stable(&p, &a).unwrap();
        assert_eq!(a.objects_of(FunctionId(0)).len(), 2);
        // but taking the worst two is not stable
        let mut bad = Assignment::new();
        bad.push(
            FunctionId(0),
            RecordId(1),
            p.score(FunctionId(0), RecordId(1)).unwrap(),
        );
        bad.push(
            FunctionId(0),
            RecordId(2),
            p.score(FunctionId(0), RecordId(2)).unwrap(),
        );
        assert!(verify_stable(&p, &bad).is_err());
    }

    /// Finite inputs whose score overflows: f0 = (½, ½) with γ = 4 scores
    /// o0 = (1e308, −1e308) as `inf − inf`, NaN. Every comparison with NaN
    /// is false, so the blocking-pair scan used to accept `oracle`'s
    /// matching, which pairs f0 with o0 at that NaN.
    #[test]
    fn a_non_finite_score_is_a_violation() {
        let p = Problem::new(
            vec![
                PreferenceFunction::new(
                    0,
                    LinearFunction::new(vec![0.5, 0.5])
                        .unwrap()
                        .prioritized(4.0)
                        .unwrap(),
                ),
                PreferenceFunction::new(1, LinearFunction::new(vec![0.9, 0.1]).unwrap()),
            ],
            vec![
                ObjectRecord::new(0, Point::new(vec![1e308, -1e308]).unwrap()),
                ObjectRecord::new(1, Point::from_slice(&[0.5, 0.5])),
                ObjectRecord::new(2, Point::from_slice(&[0.2, 0.9])),
            ],
        )
        .unwrap();
        assert!(p.score(FunctionId(0), RecordId(0)).unwrap().is_nan());
        let matched = crate::oracle::oracle(&p);
        assert_eq!(
            verify_stable(&p, &matched),
            Err(StabilityViolation::NonFiniteScore {
                function: FunctionId(0),
                object: RecordId(0),
            })
        );
        let v = StabilityViolation::NonFiniteScore {
            function: FunctionId(0),
            object: RecordId(0),
        };
        assert!(v.to_string().contains("f0") && v.to_string().contains("r0"));
    }
}
