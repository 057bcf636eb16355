//! The [`Solver`] trait: one interface over the whole solver family.
//!
//! The paper's algorithms are free functions ([`crate::sb`],
//! [`crate::chain`], [`crate::brute_force`]); this module puts them behind a
//! common trait so that callers — the experiment harness's dispatch, the
//! oracle-equality property tests, and the long-lived assignment engine's
//! recompute baseline — can treat "a way to compute the stable matching" as
//! a value. The free functions remain the primitive entry points; the trait
//! impls are thin, allocation-free adapters over them. Every SB variant,
//! SB-alt included, is one [`SbSolver`] with its [`SbOptions`].

use crate::metrics::AssignmentResult;
use crate::problem::Problem;
use crate::sb::SbOptions;
use pref_rtree::RTree;

/// A stable-assignment algorithm: anything that can turn a [`Problem`] and
/// its object R-tree into an [`AssignmentResult`].
///
/// Implementations must produce the *same* stable matching (Property 2,
/// canonicalized) — they differ only in cost. The trait is object-safe, so
/// heterogeneous solver sets can be held as `Vec<Box<dyn Solver>>`.
pub trait Solver {
    /// Short human-readable name (matches the paper's series labels).
    fn name(&self) -> &'static str;

    /// Computes the stable assignment of `problem` over `tree`.
    fn solve(&self, problem: &Problem, tree: &mut RTree) -> AssignmentResult;
}

/// The skyline-based algorithm (Sections 4–6) with its configuration.
#[derive(Debug, Clone, Default)]
pub struct SbSolver {
    /// Maintenance / best-pair / multi-pair configuration.
    pub options: SbOptions,
}

impl SbSolver {
    /// The paper's fully optimized SB: the default configuration, but each
    /// object's best function is found by the resumable TA of Section 5.1
    /// with a candidate queue of `omega_fraction · |F|`
    /// ([`crate::BestPairStrategy::ResumableTa`]). The figures' "SB" series
    /// and the Ω sweep run this; the default searches by scan instead.
    pub fn with_omega(omega_fraction: f64) -> Self {
        Self {
            options: SbOptions {
                best_pair: crate::sb::BestPairStrategy::ResumableTa { omega_fraction },
                ..SbOptions::default()
            },
        }
    }
}

impl Solver for SbSolver {
    fn name(&self) -> &'static str {
        "SB"
    }

    fn solve(&self, problem: &Problem, tree: &mut RTree) -> AssignmentResult {
        crate::sb::sb(problem, tree, &self.options)
    }
}

/// The Chain competitor (spatial ECP adapted to preference functions).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChainSolver;

impl Solver for ChainSolver {
    fn name(&self) -> &'static str {
        "Chain"
    }

    fn solve(&self, problem: &Problem, tree: &mut RTree) -> AssignmentResult {
        crate::chain::chain(problem, tree)
    }
}

/// The Brute Force competitor (one resumable top-1 search per function).
#[derive(Debug, Clone, Copy, Default)]
pub struct BruteForceSolver;

impl Solver for BruteForceSolver {
    fn name(&self) -> &'static str {
        "Brute Force"
    }

    fn solve(&self, problem: &Problem, tree: &mut RTree) -> AssignmentResult {
        crate::brute::brute_force(problem, tree)
    }
}

/// Every solver variant at its default configuration, as trait objects —
/// the set the oracle-equality property tests sweep.
pub fn all_solvers() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(SbSolver::default()),
        Box::new(SbSolver {
            options: SbOptions::update_skyline_only(),
        }),
        Box::new(SbSolver {
            options: SbOptions::delta_sky(),
        }),
        Box::new(SbSolver {
            options: SbOptions::sb_alt(8),
        }),
        Box::new(ChainSolver),
        Box::new(BruteForceSolver),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::verify_stable;
    use crate::oracle::oracle;
    use pref_datagen::{independent_objects, uniform_weight_functions};

    #[test]
    fn trait_dispatch_matches_direct_calls() {
        let functions = uniform_weight_functions(40, 3, 301);
        let objects = independent_objects(200, 3, 302);
        let p = Problem::from_parts(functions, objects).unwrap();

        let direct = {
            let mut tree = p.build_tree(Some(8), 0.02);
            crate::sb::sb(&p, &mut tree, &SbOptions::default())
        };
        let via_trait = {
            let mut tree = p.build_tree(Some(8), 0.02);
            let solver: Box<dyn Solver> = Box::new(SbSolver::default());
            solver.solve(&p, &mut tree)
        };
        assert_eq!(
            direct.assignment.canonical(),
            via_trait.assignment.canonical()
        );
        assert_eq!(direct.metrics.loops, via_trait.metrics.loops);
    }

    #[test]
    fn every_variant_reproduces_the_oracle() {
        let functions = uniform_weight_functions(30, 3, 303);
        let objects = independent_objects(150, 3, 304);
        let p = Problem::from_parts(functions, objects).unwrap();
        let want = oracle(&p).canonical();
        for solver in all_solvers() {
            let mut tree = p.build_tree(Some(8), 0.02);
            let result = solver.solve(&p, &mut tree);
            verify_stable(&p, &result.assignment).unwrap();
            assert_eq!(result.assignment.canonical(), want, "{}", solver.name());
        }
    }

    #[test]
    fn names_are_distinct_per_algorithm_family() {
        let mut names: Vec<&str> = vec![
            SbSolver::default().name(),
            ChainSolver.name(),
            BruteForceSolver.name(),
        ];
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn with_omega_sets_the_candidate_queue_fraction() {
        let s = SbSolver::with_omega(0.1);
        match s.options.best_pair {
            crate::sb::BestPairStrategy::ResumableTa { omega_fraction } => {
                assert!((omega_fraction - 0.1).abs() < 1e-12)
            }
            other => panic!("unexpected strategy {other:?}"),
        }
    }
}
