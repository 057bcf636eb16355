//! Cross-crate integration tests: every algorithm, every workload shape, one
//! stable matching.

use fair_assignment::assign::all_solvers;
use fair_assignment::datagen::{
    anti_correlated_objects, correlated_objects, independent_objects, nba_like_objects,
    random_capacities, random_priorities, uniform_weight_functions, zillow_like_objects,
};
use fair_assignment::geom::{LinearFunction, Point};
use fair_assignment::{
    brute_force, chain, oracle, sb, verify_stable, AssignmentEngine, EngineOptions, ObjectRecord,
    PreferenceFunction, Problem, SbOptions,
};

fn run_all_and_compare(problem: &Problem) {
    let reference = oracle(problem).canonical();
    // SB (fully optimized)
    let mut tree = problem.build_tree(Some(16), 0.02);
    let sb_result = sb(problem, &mut tree, &SbOptions::default());
    verify_stable(problem, &sb_result.assignment).unwrap();
    assert_eq!(sb_result.assignment.canonical(), reference, "SB");
    // Brute Force
    let mut tree = problem.build_tree(Some(16), 0.02);
    let bf = brute_force(problem, &mut tree);
    verify_stable(problem, &bf.assignment).unwrap();
    assert_eq!(bf.assignment.canonical(), reference, "Brute Force");
    // Chain
    let mut tree = problem.build_tree(Some(16), 0.02);
    let ch = chain(problem, &mut tree);
    verify_stable(problem, &ch.assignment).unwrap();
    assert_eq!(ch.assignment.canonical(), reference, "Chain");
    // SB-alt
    let mut tree = problem.build_tree(Some(16), 0.02);
    let alt = sb(problem, &mut tree, &SbOptions::sb_alt(4));
    verify_stable(problem, &alt.assignment).unwrap();
    assert_eq!(alt.assignment.canonical(), reference, "SB-alt");
}

#[test]
fn all_algorithms_agree_on_every_synthetic_distribution() {
    for (name, objects) in [
        ("independent", independent_objects(400, 3, 1)),
        ("correlated", correlated_objects(400, 3, 2)),
        ("anti-correlated", anti_correlated_objects(400, 3, 3)),
    ] {
        let functions = uniform_weight_functions(60, 3, 4);
        let problem = Problem::from_parts(functions, objects).unwrap();
        run_all_and_compare(&problem);
        println!("{name}: ok");
    }
}

#[test]
fn all_algorithms_agree_on_real_data_stand_ins() {
    let functions = uniform_weight_functions(40, 5, 11);
    for objects in [zillow_like_objects(500, 12), nba_like_objects(500, 13)] {
        let problem = Problem::from_parts(functions.clone(), objects).unwrap();
        run_all_and_compare(&problem);
    }
}

#[test]
fn all_algorithms_agree_when_functions_outnumber_objects() {
    let functions = uniform_weight_functions(120, 3, 21);
    let objects = independent_objects(40, 3, 22);
    let problem = Problem::from_parts(functions, objects).unwrap();
    run_all_and_compare(&problem);
    assert_eq!(oracle(&problem).len(), 40);
}

#[test]
fn all_algorithms_agree_on_capacitated_prioritized_instances() {
    let base = uniform_weight_functions(50, 4, 31);
    let prioritized = random_priorities(&base, 4, 32);
    let f_caps = random_capacities(50, 3, 33);
    let o_caps = random_capacities(200, 2, 34);
    let functions: Vec<PreferenceFunction> = prioritized
        .into_iter()
        .zip(f_caps)
        .enumerate()
        .map(|(i, (f, c))| PreferenceFunction::new(i, f).with_capacity(c))
        .collect();
    let objects: Vec<ObjectRecord> = anti_correlated_objects(200, 4, 35)
        .into_iter()
        .zip(o_caps)
        .map(|((id, p), c)| ObjectRecord {
            id,
            point: p,
            capacity: c,
        })
        .collect();
    let problem = Problem::new(functions, objects).unwrap();
    run_all_and_compare(&problem);
}

#[test]
fn duplicate_objects_and_functions_are_handled() {
    // identical coordinates everywhere: heavy score ties
    let functions: Vec<PreferenceFunction> = (0..10)
        .map(|i| {
            PreferenceFunction::new(
                i,
                fair_assignment::geom::LinearFunction::new(vec![0.5, 0.5]).unwrap(),
            )
        })
        .collect();
    let objects: Vec<ObjectRecord> = (0..10)
        .map(|i| ObjectRecord::new(i, fair_assignment::geom::Point::from_slice(&[0.4, 0.4])))
        .collect();
    let problem = Problem::new(functions, objects).unwrap();
    let mut tree = problem.build_tree(Some(8), 0.0);
    let result = sb(&problem, &mut tree, &SbOptions::default());
    assert_eq!(result.assignment.len(), 10);
    verify_stable(&problem, &result.assignment).unwrap();
    let mut tree = problem.build_tree(Some(8), 0.0);
    let bf = brute_force(&problem, &mut tree);
    assert_eq!(bf.assignment.len(), 10);
    verify_stable(&problem, &bf.assignment).unwrap();
}

#[test]
fn single_function_single_object() {
    let problem = Problem::new(
        vec![PreferenceFunction::new(
            0,
            fair_assignment::geom::LinearFunction::new(vec![1.0, 1.0]).unwrap(),
        )],
        vec![ObjectRecord::new(
            0,
            fair_assignment::geom::Point::from_slice(&[0.3, 0.9]),
        )],
    )
    .unwrap();
    let assignment = fair_assignment::solve(&problem);
    assert_eq!(assignment.len(), 1);
    verify_stable(&problem, &assignment).unwrap();
}

#[test]
fn sb_two_skylines_matches_standard_on_prioritized_workload() {
    let base = uniform_weight_functions(80, 3, 41);
    let prioritized = random_priorities(&base, 8, 42);
    let functions: Vec<PreferenceFunction> = prioritized
        .into_iter()
        .enumerate()
        .map(|(i, f)| PreferenceFunction::new(i, f))
        .collect();
    let objects: Vec<ObjectRecord> = independent_objects(300, 3, 43)
        .into_iter()
        .map(|(id, p)| ObjectRecord {
            id,
            point: p,
            capacity: 1,
        })
        .collect();
    let problem = Problem::new(functions, objects).unwrap();
    let mut tree = problem.build_tree(Some(16), 0.02);
    let standard = sb(&problem, &mut tree, &SbOptions::default());
    let mut tree = problem.build_tree(Some(16), 0.02);
    let twosky = sb(&problem, &mut tree, &SbOptions::two_skylines());
    assert_eq!(
        standard.assignment.canonical(),
        twosky.assignment.canonical()
    );
    verify_stable(&problem, &twosky.assignment).unwrap();
}

/// Every catalogue solver and the engine's initial solve give `problem` the
/// oracle's matching.
fn assert_every_solver_matches_the_oracle(problem: &Problem, label: &str) {
    let want = oracle(problem).canonical();
    for solver in all_solvers() {
        let mut tree = problem.build_tree(None, 0.0);
        let result = solver.solve(problem, &mut tree);
        verify_stable(problem, &result.assignment)
            .unwrap_or_else(|v| panic!("{} unstable on {label}: {v}", solver.name()));
        assert_eq!(
            result.assignment.canonical(),
            want,
            "{} on {label}",
            solver.name()
        );
    }
    let engine = AssignmentEngine::new(problem, &EngineOptions::default()).unwrap();
    assert_eq!(engine.assignment().canonical(), want, "engine on {label}");
}

/// Two functions and one object; f0 has index 0.
fn two_functions_one_object(f0: LinearFunction, f1: LinearFunction, o: &[f64]) -> Problem {
    Problem::new(
        vec![
            PreferenceFunction::new(0, f0),
            PreferenceFunction::new(1, f1),
        ],
        vec![ObjectRecord::new(0, Point::from_slice(o))],
    )
    .unwrap()
}

#[test]
fn prioritized_near_ties_and_zero_objects_match_the_oracle() {
    // γ = 1.3 on both: the effective sums Σ(γ·αᵢ)·oᵢ put f0 one ulp below
    // f1, where (Σαᵢ·oᵢ)·γ would round both to 0x3fe7666666666667 and tie
    let f0 = LinearFunction::with_priority(vec![0.375, 0.625], 1.3).unwrap();
    let f1 = LinearFunction::with_priority(vec![2.0, 1.0], 1.3).unwrap();
    let o = [0.5625, 0.5625];
    let p = two_functions_one_object(f0, f1, &o);
    let score = |fi: usize| p.functions()[fi].function.score(&Point::from_slice(&o));
    assert_eq!(score(0).to_bits() + 1, score(1).to_bits());
    assert_eq!(oracle(&p).canonical()[0].0, 1);
    assert_every_solver_matches_the_oracle(&p, "the γ = 1.3 near tie");

    // an all-zero object scores exactly 0 under every function, so it goes
    // to the lowest index, whatever the priorities
    let f0 = LinearFunction::new(vec![1.0, 1.0]).unwrap();
    let f1 = LinearFunction::with_priority(vec![1.0, 1.0], 3.0).unwrap();
    let p = two_functions_one_object(f0, f1, &[0.0, 0.0]);
    assert_eq!(oracle(&p).canonical()[0].0, 0);
    assert_every_solver_matches_the_oracle(&p, "the all-zero object");
}
