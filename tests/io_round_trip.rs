//! End-to-end coverage for the facade's `io` module: JSON problem in,
//! stable assignment out, and every error variant exercised.

#![allow(
    clippy::disallowed_methods,
    reason = "tests create and remove their scratch files"
)]

use fair_assignment::io::{
    load_problem_json, read_assignment_csv, read_problem_json, save_problem_json,
    write_assignment_csv, write_problem_json, IoFormatError,
};
use fair_assignment::{solve, verify_stable, FunctionId};

/// A small instance relying on the serde defaults: no `priority` or
/// `capacity` on most entries.
const SMALL_PROBLEM: &str = r#"{
    "functions": [
        {"id": 0, "weights": [0.8, 0.2]},
        {"id": 1, "weights": [0.2, 0.8]},
        {"id": 2, "weights": [0.5, 0.5], "priority": 2.0, "capacity": 2}
    ],
    "objects": [
        {"id": 0, "attributes": [0.5, 0.6]},
        {"id": 1, "attributes": [0.2, 0.7]},
        {"id": 2, "attributes": [0.8, 0.2]},
        {"id": 3, "attributes": [0.4, 0.4], "capacity": 1}
    ]
}"#;

#[test]
fn load_solve_serialize_round_trip() {
    // load
    let problem = read_problem_json(SMALL_PROBLEM.as_bytes()).unwrap();
    assert_eq!(problem.num_functions(), 3);
    assert_eq!(problem.num_objects(), 4);
    // defaults applied where the JSON omitted them
    assert_eq!(problem.functions()[0].capacity, 1);
    assert!((problem.functions()[0].function.priority() - 1.0).abs() < 1e-12);
    assert_eq!(problem.functions()[2].capacity, 2);

    // solve
    let assignment = solve(&problem);
    // capacity 1 + 1 + 2 = 4 requests over 4 objects
    assert_eq!(assignment.len(), 4);
    verify_stable(&problem, &assignment).unwrap();
    // the prioritized user (γ = 2) must be served
    assert!(assignment.object_of(FunctionId(2)).is_some());

    // serialize the problem again and re-load: same matching
    let mut json = Vec::new();
    write_problem_json(&problem, &mut json).unwrap();
    let reloaded = read_problem_json(json.as_slice()).unwrap();
    assert_eq!(solve(&reloaded).canonical(), assignment.canonical());

    // serialize the assignment as CSV and read it back
    let mut csv = Vec::new();
    write_assignment_csv(&assignment, &mut csv).unwrap();
    let restored = read_assignment_csv(csv.as_slice()).unwrap();
    assert_eq!(restored.canonical(), assignment.canonical());
    verify_stable(&problem, &restored).unwrap();
}

#[test]
fn file_based_round_trip() {
    let problem = read_problem_json(SMALL_PROBLEM.as_bytes()).unwrap();
    let dir = std::env::temp_dir().join("fair-assignment-io-int-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("round_trip.json");
    save_problem_json(&problem, &path).unwrap();
    let loaded = load_problem_json(&path).unwrap();
    assert_eq!(solve(&loaded).canonical(), solve(&problem).canonical());
    std::fs::remove_file(&path).ok();
}

#[test]
fn json_error_variant_is_reported() {
    // Truncated document → the parser itself fails → Json variant.
    let err = read_problem_json(r#"{"functions": ["#.as_bytes()).unwrap_err();
    assert!(matches!(err, IoFormatError::Json(_)), "got {err:?}");
    assert!(err.to_string().starts_with("json error:"));

    // Well-formed JSON of the wrong shape is also a Json (decode) failure.
    let err = read_problem_json(r#"{"functions": 3, "objects": []}"#.as_bytes()).unwrap_err();
    assert!(matches!(err, IoFormatError::Json(_)), "got {err:?}");
}

#[test]
fn io_and_invalid_error_variants_are_reported() {
    // Missing file → Io variant.
    let missing = std::env::temp_dir().join("fair-assignment-io-int-test-does-not-exist.json");
    let err = load_problem_json(&missing).unwrap_err();
    assert!(matches!(err, IoFormatError::Io(_)), "got {err:?}");

    // Structurally valid JSON failing problem validation → Invalid variant.
    let err = read_problem_json(
        r#"{"functions":[{"id":0,"weights":[0.0,0.0]}],
            "objects":[{"id":0,"attributes":[0.5,0.5]}]}"#
            .as_bytes(),
    )
    .unwrap_err();
    assert!(matches!(err, IoFormatError::Invalid(_)), "got {err:?}");
    assert!(err.to_string().contains("function 0"));
}
