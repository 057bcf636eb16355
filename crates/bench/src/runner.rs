//! Workload construction and single-cell execution.

use crate::params::Params;
use crate::report::Row;
use pref_assign::{ObjectRecord, PreferenceFunction, Problem, Solver};
use pref_datagen::{clustered_weight_functions, random_priorities, uniform_weight_functions};
use pref_rtree::RTree;

/// Generates the problem instance described by `params` (deterministic in the
/// seed).
pub fn build_problem(params: &Params) -> Problem {
    // the real-data stand-ins fix the dimensionality; `Params::describe`
    // reports the same effective value so figure output stays truthful
    let dims = params.effective_dims();
    let mut functions = match params.weight_clusters {
        Some(clusters) => clustered_weight_functions(
            params.num_functions,
            dims,
            clusters,
            0.05,
            params.seed ^ 0x00f1,
        ),
        None => uniform_weight_functions(params.num_functions, dims, params.seed ^ 0x00f1),
    };
    if params.max_priority > 1 {
        functions = random_priorities(&functions, params.max_priority, params.seed ^ 0x0b0b);
    }
    let objects = params
        .distribution
        .generate(params.num_objects, dims, params.seed ^ 0x0bad);

    let functions: Vec<PreferenceFunction> = functions
        .into_iter()
        .enumerate()
        .map(|(i, f)| PreferenceFunction::new(i, f).with_capacity(params.function_capacity))
        .collect();
    let objects: Vec<ObjectRecord> = objects
        .into_iter()
        .map(|(id, p)| ObjectRecord {
            id,
            point: p,
            capacity: params.object_capacity,
        })
        .collect();
    Problem::new(functions, objects).expect("generated workloads are valid")
}

/// Builds the object index for a problem according to the parameters.
/// Rejects invalid parameters ([`Params::validate`]) instead of silently
/// mis-sizing the LRU buffer.
pub fn build_index(problem: &Problem, params: &Params) -> Result<RTree, String> {
    params.validate()?;
    Ok(problem.build_tree(None, params.buffer_fraction))
}

/// Runs one solver on one workload and returns the measurement row, whose
/// series is the solver's name.
///
/// `x` is the value of the swept parameter (used as the row's abscissa).
pub fn run_cell(experiment: &str, x: &str, params: &Params, solver: &dyn Solver) -> Row {
    let problem = build_problem(params);
    let mut tree = build_index(&problem, params)
        .unwrap_or_else(|e| panic!("invalid workload parameters for {experiment}/{x}: {e}"));
    let result = solver.solve(&problem, &mut tree);
    Row {
        experiment: experiment.to_string(),
        series: solver.name().to_string(),
        x: x.to_string(),
        io: result.metrics.object_io.io_accesses(),
        aux_io: result.metrics.aux_io.io_accesses(),
        cpu_s: result.metrics.cpu_seconds(),
        mem_mib: result.metrics.peak_memory_mib(),
        pairs: result.assignment.len(),
        loops: result.metrics.loops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Scale;
    use pref_assign::{BruteForceSolver, SbSolver};
    use pref_datagen::ObjectDistribution;

    fn tiny_params() -> Params {
        Params {
            num_functions: 30,
            num_objects: 200,
            dims: 3,
            ..Params::defaults(Scale::Quick)
        }
    }

    #[test]
    fn build_problem_respects_params() {
        let mut params = tiny_params();
        params.function_capacity = 3;
        params.object_capacity = 2;
        params.max_priority = 4;
        let p = build_problem(&params);
        assert_eq!(p.num_functions(), 30);
        assert_eq!(p.num_objects(), 200);
        assert_eq!(p.dims(), 3);
        assert!(p.functions().iter().all(|f| f.capacity == 3));
        assert!(p.objects().iter().all(|o| o.capacity == 2));
        assert!(p.has_priorities());
    }

    #[test]
    fn real_like_distributions_force_five_dims() {
        let mut params = tiny_params();
        params.distribution = ObjectDistribution::NbaLike;
        params.dims = 3; // ignored
        let p = build_problem(&params);
        assert_eq!(p.dims(), 5);
    }

    #[test]
    fn run_cell_produces_consistent_rows() {
        let params = tiny_params();
        let sb = SbSolver::with_omega(params.omega_fraction);
        let row_sb = run_cell("test", "x1", &params, &sb);
        let row_bf = run_cell("test", "x1", &params, &BruteForceSolver);
        assert_eq!(row_sb.pairs, row_bf.pairs);
        assert_eq!(row_sb.pairs, 30);
        assert_eq!(row_sb.experiment, "test");
        assert_eq!(row_sb.series, "SB");
        assert!(row_bf.io >= row_sb.io);
        assert!(row_sb.cpu_s >= 0.0);
    }

    #[test]
    fn build_index_rejects_invalid_buffer_fractions() {
        let mut params = tiny_params();
        let problem = build_problem(&params);
        assert!(build_index(&problem, &params).is_ok());
        params.buffer_fraction = -0.5;
        let err = build_index(&problem, &params).unwrap_err();
        assert!(err.contains("buffer_fraction"), "unhelpful error: {err}");
        params.buffer_fraction = 1.5;
        assert!(build_index(&problem, &params).is_err());
        params.buffer_fraction = f64::NAN;
        assert!(build_index(&problem, &params).is_err());
    }

    #[test]
    fn clustered_weights_are_wired_through() {
        let mut params = tiny_params();
        params.weight_clusters = Some(1);
        let p = build_problem(&params);
        // with one tight cluster all weight vectors are nearly identical
        let w0 = p.functions()[0].function.weights()[0];
        let spread = p
            .functions()
            .iter()
            .map(|f| (f.function.weights()[0] - w0).abs())
            .fold(0.0f64, f64::max);
        assert!(spread < 0.5);
    }
}
