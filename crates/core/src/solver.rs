//! The [`Solver`] trait: one interface over the whole solver family.
//!
//! The paper's algorithms are free functions ([`crate::sb`],
//! [`crate::chain`], [`crate::brute_force`]); this module puts them behind a
//! common trait so that callers — the experiment harness's dispatch, the
//! oracle-equality property tests, and the long-lived assignment engine's
//! recompute baseline — can treat "a way to compute the stable matching" as
//! a value. The free functions remain the primitive entry points; the trait
//! impls are thin, allocation-free adapters over them. Every SB variant,
//! SB-alt included, is one [`SbSolver`] with its [`SbOptions`], and its
//! [`Solver::name`] is the figure series that configuration is.
//! [`all_solvers`] is the one catalogue: every series of the paper's
//! evaluation, each held to the exact oracle by the property sweeps.

use crate::metrics::AssignmentResult;
use crate::problem::Problem;
use crate::sb::{BestPairStrategy, MaintenanceStrategy, SbOptions};
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
                best_pair: BestPairStrategy::ResumableTa { omega_fraction },
                ..SbOptions::default()
            },
        }
    }
}

impl Solver for SbSolver {
    /// The figure series these options are: `"SB"` for the resumable TA
    /// ([`SbSolver::with_omega`]), the preset's series for the other
    /// [`SbOptions`] presets, `"SB (scan)"` for the default, and
    /// `"SB (custom)"` for any other combination. Threads do not count.
    fn name(&self) -> &'static str {
        use BestPairStrategy as B;
        use MaintenanceStrategy as M;
        let SbOptions {
            maintenance,
            best_pair,
            multiple_pairs_per_loop,
            threads: _,
        } = &self.options;
        match (maintenance, best_pair, multiple_pairs_per_loop) {
            (M::UpdateSkyline, B::ResumableTa { .. }, true) => "SB",
            (M::UpdateSkyline, B::FreshTa, false) => "SB-UpdateSkyline",
            (M::DeltaSky, B::FreshTa, false) => "SB-DeltaSky",
            (M::UpdateSkyline, B::TwoSkylines, true) => "SB-TwoSkylines",
            (M::UpdateSkyline, B::Batch { .. }, true) => "SB-alt",
            (M::UpdateSkyline, B::Scan, true) => "SB (scan)",
            _ => "SB (custom)",
        }
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

/// Every solver the paper's evaluation reports, plus the default SB, as
/// trait objects: the set the oracle-equality property tests sweep. SB runs
/// with the paper's Ω = 2.5 % and SB-alt with an 8-block list buffer.
pub fn all_solvers() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(SbSolver::default()),
        Box::new(SbSolver::with_omega(0.025)),
        Box::new(SbSolver {
            options: SbOptions::update_skyline_only(),
        }),
        Box::new(SbSolver {
            options: SbOptions::delta_sky(),
        }),
        Box::new(SbSolver {
            options: SbOptions::two_skylines(),
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
        let solvers = all_solvers();
        let mut names: Vec<&str> = solvers.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), solvers.len(), "{names:?}");
        // every series of the paper's Section 7 is in the catalogue
        for series in [
            "Brute Force",
            "Chain",
            "SB",
            "SB-UpdateSkyline",
            "SB-DeltaSky",
            "SB-TwoSkylines",
            "SB-alt",
        ] {
            assert!(names.contains(&series), "{series} is missing");
        }
    }

    #[test]
    fn with_omega_sets_the_candidate_queue_fraction() {
        let s = SbSolver::with_omega(0.1);
        match s.options.best_pair {
            BestPairStrategy::ResumableTa { omega_fraction } => {
                assert!((omega_fraction - 0.1).abs() < 1e-12)
            }
            other => panic!("unexpected strategy {other:?}"),
        }
    }
}
