//! Repair costs what the update changed, and refuses what it cannot count.
//!
//! `EngineStats::candidates_scored` counts every `(function, object)` score
//! the repair search computes, so the cost model — per round
//! `|dirty_f|·(|S| + |saturated|) + |F|·|dirty_o|` — is checked as a count,
//! not as a time.

use pref_assign::{FunctionId, ObjectRecord, PreferenceFunction, Problem};
use pref_datagen::{independent_objects, uniform_weight_functions};
use pref_engine::{AssignmentEngine, EngineError, EngineOptions};
use pref_geom::{LinearFunction, Point};
use pref_rtree::RecordId;

fn engine(num_functions: usize, num_objects: usize, seed: u64) -> AssignmentEngine {
    let functions = uniform_weight_functions(num_functions, 2, seed);
    let objects = independent_objects(num_objects, 2, seed + 1000);
    let problem = Problem::from_parts(functions, objects).unwrap();
    AssignmentEngine::new(&problem, &EngineOptions::default()).unwrap()
}

/// Updates that dirty nothing — an arrival the skyline covers, a departure
/// of an unmatched object that is off the skyline — return without scoring a
/// single candidate. (Debug builds then scan everything once and assert that
/// nothing was missed.)
#[test]
fn quiet_updates_score_nothing() {
    let mut engine = engine(8, 60, 7);
    let before = engine.stats();
    let matching = engine.assignment().canonical();

    // half of a skyline point: dominated, so it lands in a pruned list
    let skyline = engine.skyline_records();
    let (_, on_skyline) = engine
        .free_pool_records()
        .into_iter()
        .find(|(id, _)| skyline.contains(id))
        .unwrap();
    let covered: Vec<f64> = on_skyline.coords().iter().map(|c| c / 2.0).collect();
    engine
        .insert_object(ObjectRecord::new(1000, Point::from_slice(&covered)))
        .unwrap();

    // unit capacities: everything in the free pool is unmatched
    let (off_skyline, _) = engine
        .free_pool_records()
        .into_iter()
        .find(|(id, _)| !skyline.contains(id) && id.0 != 1000)
        .unwrap();
    engine.remove_object(off_skyline).unwrap();

    let after = engine.stats();
    assert_eq!(after.updates, before.updates + 2);
    assert_eq!(after.candidates_scored, before.candidates_scored);
    assert_eq!(after.repair_rounds, before.repair_rounds);
    assert_eq!(after.pairs_retracted, before.pairs_retracted);
    assert_eq!(engine.skyline_records(), skyline);
    assert_eq!(engine.assignment().canonical(), matching);
}

/// An object that enters the skyline but that no function wants costs one
/// pass over the live functions and no round.
#[test]
fn an_unwanted_skyline_entrant_costs_one_pass_over_the_functions() {
    // every function weighs dimension 0 at 0.9 or more and holds an object
    // scoring at least 0.5; the entrant tops dimension 1 only
    let functions = (0..5)
        .map(|i| {
            let w0 = 0.9 + 0.02 * f64::from(i);
            PreferenceFunction::new(i as usize, LinearFunction::new(vec![w0, 1.0 - w0]).unwrap())
        })
        .collect();
    let objects = (0..10)
        .map(|i| {
            let x = 0.5 + 0.04 * f64::from(i);
            ObjectRecord::new(i as u64, Point::from_slice(&[x, 0.9 - x]))
        })
        .collect();
    let problem = Problem::new(functions, objects).unwrap();
    let mut engine = AssignmentEngine::new(&problem, &EngineOptions::default()).unwrap();
    let before = engine.stats();
    engine
        .insert_object(ObjectRecord::new(99, Point::from_slice(&[0.01, 0.99])))
        .unwrap();
    assert!(engine.skyline_records().contains(&RecordId(99)));
    let after = engine.stats();
    assert_eq!(
        after.candidates_scored - before.candidates_scored,
        after.live_functions
    );
    assert_eq!(after.repair_rounds, before.repair_rounds);
}

/// A capacity-0 arrival used to reach `remaining -= 1`: an overflow panic in
/// debug builds, a counter wrapped to 2³²−1 that absorbed every function in
/// release builds.
#[test]
fn zero_capacity_is_refused_with_a_typed_error() {
    let mut engine = engine(5, 3, 11);
    let before = engine.stats();
    let matching = engine.assignment().canonical();

    let object = ObjectRecord {
        capacity: 0,
        ..ObjectRecord::new(500, Point::from_slice(&[0.99, 0.99]))
    };
    assert_eq!(
        engine.insert_object(object.clone()),
        Err(EngineError::ZeroCapacityObject(RecordId(500)))
    );
    let function = PreferenceFunction {
        capacity: 0,
        ..PreferenceFunction::new(500, LinearFunction::new(vec![0.5, 0.5]).unwrap())
    };
    assert_eq!(
        engine.insert_function(function.clone()),
        Err(EngineError::ZeroCapacityFunction(FunctionId(500)))
    );
    // nothing was registered, counted or matched
    let after = engine.stats();
    assert_eq!(after.updates, before.updates);
    assert_eq!(
        (after.live_objects, after.live_functions),
        (before.live_objects, before.live_functions)
    );
    assert_eq!(engine.assignment().canonical(), matching);
    // the ids are still free for a real arrival
    engine
        .insert_object(ObjectRecord::new(500, Point::from_slice(&[0.99, 0.99])))
        .unwrap();
    assert_eq!(engine.assignment().functions_of(RecordId(500)).len(), 1);

    // a problem (or a restored snapshot) carrying one is refused up front
    let snapshot = engine.snapshot_problem().unwrap();
    let mut objects = snapshot.objects().to_vec();
    objects.push(ObjectRecord {
        id: RecordId(501),
        ..object
    });
    let poisoned = Problem::new(snapshot.functions().to_vec(), objects).unwrap();
    assert!(matches!(
        AssignmentEngine::new(&poisoned, &EngineOptions::default()),
        Err(EngineError::ZeroCapacityObject(RecordId(501)))
    ));
    let mut functions = snapshot.functions().to_vec();
    functions.push(function);
    let poisoned = Problem::new(functions, snapshot.objects().to_vec()).unwrap();
    assert!(matches!(
        AssignmentEngine::new(&poisoned, &EngineOptions::default()),
        Err(EngineError::ZeroCapacityFunction(FunctionId(500)))
    ));
}
