//! The competitor algorithms measured by the experiments.

use pref_assign::{BruteForceSolver, ChainSolver, SbOptions, SbSolver, Solver};

/// The algorithms compared in the paper's evaluation, plus the SB ablation
/// variants of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmKind {
    /// Brute Force (Section 4.1): one resumable top-1 search per function.
    BruteForce,
    /// Chain: the adaptation of the spatial ECP algorithm.
    Chain,
    /// SB as the paper runs it (UpdateSkyline + resumable TA + multi-pair).
    Sb,
    /// SB with UpdateSkyline but without the CPU optimizations (Figure 8).
    SbUpdateSkyline,
    /// SB with DeltaSky-style maintenance (Figure 8).
    SbDeltaSky,
    /// The two-skyline SB variant for prioritized functions (Section 6.2).
    SbTwoSkylines,
    /// SB-alt: batch best-pair search over disk-resident function lists
    /// (Section 7.6).
    SbAlt {
        /// LRU buffer (in 4 KiB blocks) in front of the coefficient lists.
        list_buffer_frames: usize,
    },
}

impl AlgorithmKind {
    /// Label used in the report tables (matching the paper's series names).
    pub fn label(&self) -> &'static str {
        match self {
            AlgorithmKind::BruteForce => "Brute Force",
            AlgorithmKind::Chain => "Chain",
            AlgorithmKind::Sb => "SB",
            AlgorithmKind::SbUpdateSkyline => "SB-UpdateSkyline",
            AlgorithmKind::SbDeltaSky => "SB-DeltaSky",
            AlgorithmKind::SbTwoSkylines => "SB-TwoSkylines",
            AlgorithmKind::SbAlt { .. } => "SB-alt",
        }
    }

    /// The standard competitor set of Section 7.2 (Figures 9–14, 16).
    pub fn standard_set() -> Vec<AlgorithmKind> {
        vec![
            AlgorithmKind::BruteForce,
            AlgorithmKind::Chain,
            AlgorithmKind::Sb,
        ]
    }

    /// The ablation set of Figure 8.
    pub fn ablation_set() -> Vec<AlgorithmKind> {
        vec![
            AlgorithmKind::SbDeltaSky,
            AlgorithmKind::SbUpdateSkyline,
            AlgorithmKind::Sb,
        ]
    }

    /// Materializes the [`Solver`] this kind stands for. `omega_fraction`
    /// parameterizes the fully optimized SB variant (ignored by the others).
    pub fn solver(&self, omega_fraction: f64) -> Box<dyn Solver> {
        match self {
            AlgorithmKind::BruteForce => Box::new(BruteForceSolver),
            AlgorithmKind::Chain => Box::new(ChainSolver),
            AlgorithmKind::Sb => Box::new(SbSolver::with_omega(omega_fraction)),
            AlgorithmKind::SbUpdateSkyline => Box::new(SbSolver {
                options: SbOptions::update_skyline_only(),
            }),
            AlgorithmKind::SbDeltaSky => Box::new(SbSolver {
                options: SbOptions::delta_sky(),
            }),
            AlgorithmKind::SbTwoSkylines => Box::new(SbSolver {
                options: SbOptions::two_skylines(),
            }),
            AlgorithmKind::SbAlt { list_buffer_frames } => Box::new(SbSolver {
                options: SbOptions::sb_alt(*list_buffer_frames),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pref_assign::Problem;
    use pref_datagen::{independent_objects, uniform_weight_functions};

    #[test]
    fn labels_are_distinct() {
        let all = [
            AlgorithmKind::BruteForce,
            AlgorithmKind::Chain,
            AlgorithmKind::Sb,
            AlgorithmKind::SbUpdateSkyline,
            AlgorithmKind::SbDeltaSky,
            AlgorithmKind::SbTwoSkylines,
            AlgorithmKind::SbAlt {
                list_buffer_frames: 4,
            },
        ];
        let mut labels: Vec<&str> = all.iter().map(AlgorithmKind::label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn every_algorithm_produces_the_same_matching() {
        let functions = uniform_weight_functions(40, 3, 1);
        let objects = independent_objects(200, 3, 2);
        let problem = Problem::from_parts(functions, objects).unwrap();
        let reference = {
            let mut tree = problem.build_tree(Some(8), 0.02);
            AlgorithmKind::Sb
                .solver(0.025)
                .solve(&problem, &mut tree)
                .assignment
                .canonical()
        };
        for algo in [
            AlgorithmKind::BruteForce,
            AlgorithmKind::Chain,
            AlgorithmKind::SbUpdateSkyline,
            AlgorithmKind::SbDeltaSky,
            AlgorithmKind::SbAlt {
                list_buffer_frames: 4,
            },
        ] {
            let mut tree = problem.build_tree(Some(8), 0.02);
            let result = algo.solver(0.025).solve(&problem, &mut tree);
            assert_eq!(result.assignment.canonical(), reference, "{}", algo.label());
        }
    }
}
