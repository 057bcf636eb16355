//! Adoption equals the from-empty build: `AssignmentEngine::new` takes over
//! one SB solve's end state instead of stabilizing round by round from an
//! empty matching, and must land on the same state — the oracle's matching,
//! pairs in the greedy trace's establishment order, the free-pool skyline —
//! and keep repairing correctly from it. `restore()` and the serving tier's
//! `recover` take this path.
//!
//! Two kinds of problem are run: one built to tie (duplicated points, grid
//! coordinates, repeated weight vectors) and one with continuous values.
//! Right after `new()` both must equal the oracle. Under updates only the
//! continuous one can be refereed by it: with exact ties stable matchings
//! are not unique, and a repair keeps the pairs it has where a fresh greedy
//! run would re-break every tie by index — true of the round-by-round build
//! this replaced as well — so the tied streams are held to stability and an
//! exact free-pool skyline instead.

use pref_assign::{oracle, verify_stable, ObjectRecord, PreferenceFunction, Problem};
use pref_datagen::{
    independent_objects, uniform_weight_functions, update_stream, UpdateStreamConfig,
};
use pref_engine::{AssignmentEngine, EngineOptions};
use pref_geom::{LinearFunction, Point};
use pref_rtree::RecordId;
use pref_skyline::skyline_naive;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A problem built to tie: coordinates on a grid of eighths with every fifth
/// point an exact duplicate of an earlier one, weights drawn from a handful
/// of exact binary fractions (so functions repeat and equal sums are equal
/// bit for bit), capacities 1..=`max_capacity` on both sides.
fn tied_problem(num_functions: usize, num_objects: usize, max_capacity: u32, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let eighths = |rng: &mut StdRng| f64::from(rng.gen_range(1..=8u32)) / 8.0;
    let mut points: Vec<Point> = Vec::new();
    for i in 0..num_objects {
        let point = if i % 5 == 4 {
            points[rng.gen_range(0..i)].clone()
        } else {
            Point::from_slice(&[eighths(&mut rng), eighths(&mut rng), eighths(&mut rng)])
        };
        points.push(point);
    }
    let objects = points
        .into_iter()
        .enumerate()
        .map(|(i, point)| {
            ObjectRecord::new(i as u64, point).with_capacity(rng.gen_range(1..=max_capacity))
        })
        .collect();
    let weights = [
        [0.5, 0.25, 0.25],
        [0.25, 0.5, 0.25],
        [0.25, 0.25, 0.5],
        [0.125, 0.125, 0.75],
        [0.375, 0.375, 0.25],
    ];
    let functions = (0..num_functions)
        .map(|i| {
            let w = weights[rng.gen_range(0..weights.len())];
            PreferenceFunction::new(i, LinearFunction::new(w.to_vec()).unwrap())
                .with_capacity(rng.gen_range(1..=max_capacity))
        })
        .collect();
    Problem::new(functions, objects).unwrap()
}

/// Continuous coordinates and weights (no exact ties), capacities
/// 1..=`max_capacity` on both sides.
fn continuous_problem(
    num_functions: usize,
    num_objects: usize,
    max_capacity: u32,
    seed: u64,
) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let functions = uniform_weight_functions(num_functions, 3, seed)
        .into_iter()
        .enumerate()
        .map(|(i, f)| PreferenceFunction::new(i, f).with_capacity(rng.gen_range(1..=max_capacity)))
        .collect();
    let objects = independent_objects(num_objects, 3, seed + 1000)
        .into_iter()
        .map(|(id, point)| {
            ObjectRecord::new(id.0, point).with_capacity(rng.gen_range(1..=max_capacity))
        })
        .collect();
    Problem::new(functions, objects).unwrap()
}

fn sorted(mut records: Vec<RecordId>) -> Vec<RecordId> {
    records.sort_unstable();
    records
}

fn check_adoption(problem: &Problem, seed: u64, oracle_referees_stream: bool) {
    let mut engine = AssignmentEngine::new(problem, &EngineOptions::default()).unwrap();
    let assignment = engine.assignment();
    assert_eq!(assignment.canonical(), oracle(problem).canonical());

    // pairs sit in the order the greedy trace establishes them from empty:
    // (score desc, function index, object index); ids are slab positions
    let keys: Vec<(f64, usize, u64)> = assignment
        .pairs()
        .iter()
        .map(|p| (p.score, p.function.0, p.object.0))
        .collect();
    for pair in keys.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        assert!(
            a.0 > b.0 || (a.0 == b.0 && (a.1, a.2) <= (b.1, b.2)),
            "pairs out of establishment order: {a:?} before {b:?}"
        );
    }
    // the lifetime counters read as if every pair had been a repair round
    let stats = engine.stats();
    assert_eq!(stats.pairs_established, assignment.len() as u64);
    assert_eq!(stats.repair_rounds, assignment.len() as u64);
    assert_eq!(stats.pairs_retracted, 0);

    // the adopted skyline is the free pool's
    assert_eq!(
        sorted(engine.skyline_records()),
        sorted(skyline_naive(&engine.free_pool_records()))
    );

    // and repair carries on from the adopted state (debug builds also scan
    // for a leftover candidate after each of these)
    let live_objects: Vec<RecordId> = problem.objects().iter().map(|o| o.id).collect();
    let live_functions: Vec<u64> = problem.functions().iter().map(|f| f.id.0 as u64).collect();
    let config = UpdateStreamConfig {
        num_events: 200,
        dims: 3,
        max_capacity: 4,
        min_objects: 4,
        min_functions: 2,
        seed,
        ..UpdateStreamConfig::default()
    };
    for (step, event) in update_stream(&config, &live_objects, &live_functions)
        .iter()
        .enumerate()
    {
        engine.apply(event).unwrap();
        let snapshot = engine.snapshot_problem().unwrap();
        let assignment = engine.assignment();
        verify_stable(&snapshot, &assignment)
            .unwrap_or_else(|v| panic!("unstable after step {step} (seed {seed}): {v}"));
        if oracle_referees_stream {
            assert_eq!(
                assignment.canonical(),
                oracle(&snapshot).canonical(),
                "oracle divergence after step {step} ({event:?}, seed {seed})"
            );
        }
        assert_eq!(
            sorted(engine.skyline_records()),
            sorted(skyline_naive(&engine.free_pool_records())),
            "skyline drift after step {step} (seed {seed})"
        );
    }
}

#[test]
fn adoption_equals_the_from_empty_build_with_more_objects_than_functions() {
    for max_capacity in 1..=4 {
        for seed in [1u64, 2, 3] {
            check_adoption(&tied_problem(12, 60, max_capacity, seed), seed, false);
            check_adoption(&continuous_problem(12, 60, max_capacity, seed), seed, true);
        }
    }
}

#[test]
fn adoption_equals_the_from_empty_build_with_more_functions_than_objects() {
    for max_capacity in 1..=4 {
        for seed in [4u64, 5, 6] {
            check_adoption(&tied_problem(40, 15, max_capacity, seed), seed, false);
            check_adoption(&continuous_problem(40, 15, max_capacity, seed), seed, true);
        }
    }
}
