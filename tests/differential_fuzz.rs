//! Differential fuzz harness: every [`Solver`] variant against the
//! brute-force oracle on seeded adversarial instances.
//!
//! The instance generator deliberately concentrates on the regions where the
//! solver family historically had the least coverage:
//!
//! * **capacities 1..=4** on both sides (most of the original suite is
//!   unit-capacity),
//! * **duplicated points** (several objects at exactly the same coordinates),
//! * **exact score ties** (coordinates and weights drawn from a coarse grid,
//!   plus duplicated weight vectors — the tie-break paths must pick the
//!   oracle's pair),
//! * **degenerate shapes** (1×1 problems, one side much larger than the
//!   other, all-identical populations, saturated and starved supply),
//! * **priorities** (the same seeds again with each function's γ drawn from
//!   `{1, 1.3, 2, 3}`: 1.3 is not a power of two, so a path that scaled
//!   `Σαᵢoᵢ` by γ instead of summing `(γαᵢ)oᵢ` would break ties elsewhere).
//!
//! Every instance is solved by every solver variant over trees of several
//! fanouts; each result must verify as stable *and* equal the oracle's
//! matching canonically. `SB (scan)`, which asks each loop's function side
//! first, must also commit the pairs of the paper's `SB`, which asks the
//! object side first: the same loops and page reads. Seeds are
//! fixed, so a failure reproduces exactly; `FUZZ_ITERS` raises the iteration
//! count in the CI stress job.

use fair_assignment::assign::all_solvers;
use fair_assignment::geom::{LinearFunction, Point};
use fair_assignment::{oracle, verify_stable, ObjectRecord, PreferenceFunction, Problem};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Iteration count: default keeps `cargo test` quick; the CI stress job
/// raises it via the `FUZZ_ITERS` environment variable.
fn fuzz_iters() -> u64 {
    std::env::var("FUZZ_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(48)
}

/// One coordinate: quantized instances draw from a 5-point grid (forcing
/// exact ties and duplicates), continuous instances from `[0, 1]`.
fn coordinate(rng: &mut StdRng, quantized: bool) -> f64 {
    if quantized {
        [0.0, 0.25, 0.5, 0.75, 1.0][rng.gen_range(0..5usize)]
    } else {
        rng.gen_range(0.0..1.0)
    }
}

/// A raw (pre-normalization) weight; the grid makes identical normalized
/// functions likely.
fn weight(rng: &mut StdRng, quantized: bool) -> f64 {
    if quantized {
        [1.0, 1.0, 2.0, 3.0][rng.gen_range(0..4usize)]
    } else {
        rng.gen_range(0.01..1.0)
    }
}

/// How each side's capacities are drawn: the sweep covers all-unit problems,
/// mixed `1..=4`, and one saturated side.
#[derive(Clone, Copy, Debug)]
enum CapacityMode {
    Unit,
    Mixed,
    Heavy,
}

impl CapacityMode {
    fn draw(self, rng: &mut StdRng) -> u32 {
        match self {
            CapacityMode::Unit => 1,
            CapacityMode::Mixed => rng.gen_range(1..=4),
            CapacityMode::Heavy => 4,
        }
    }

    fn pick(rng: &mut StdRng) -> Self {
        match rng.gen_range(0..3) {
            0 => CapacityMode::Unit,
            1 => CapacityMode::Mixed,
            _ => CapacityMode::Heavy,
        }
    }
}

/// Draws one adversarial instance.
fn random_instance(seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims = rng.gen_range(2..=4);
    let quantized = rng.gen_bool(0.6);
    let f_caps = CapacityMode::pick(&mut rng);
    let o_caps = CapacityMode::pick(&mut rng);
    let num_functions = rng.gen_range(1..=10);
    let num_objects = rng.gen_range(1..=14);

    let mut functions: Vec<PreferenceFunction> = Vec::with_capacity(num_functions);
    for i in 0..num_functions {
        // duplicated weight vectors: exact cross-function ties on every object
        let weights: Vec<f64> = if i > 0 && rng.gen_bool(0.3) {
            let source = &functions[rng.gen_range(0..i)];
            source.function.weights().to_vec()
        } else {
            (0..dims).map(|_| weight(&mut rng, quantized)).collect()
        };
        functions.push(
            PreferenceFunction::new(i, LinearFunction::new(weights).unwrap())
                .with_capacity(f_caps.draw(&mut rng)),
        );
    }

    let mut points: Vec<Point> = Vec::with_capacity(num_objects);
    for i in 0..num_objects {
        // duplicated points: exact cross-object ties for every function
        if i > 0 && rng.gen_bool(0.3) {
            let source = points[rng.gen_range(0..i)].clone();
            points.push(source);
        } else {
            points.push(Point::from_slice(
                &(0..dims)
                    .map(|_| coordinate(&mut rng, quantized))
                    .collect::<Vec<_>>(),
            ));
        }
    }
    let objects: Vec<ObjectRecord> = points
        .into_iter()
        .enumerate()
        .map(|(i, p)| ObjectRecord::new(i as u64, p).with_capacity(o_caps.draw(&mut rng)))
        .collect();

    Problem::new(functions, objects).unwrap()
}

/// Seed offset of the priority draws: a stream of their own, so the
/// unprioritized instance of a seed stays exactly what it was.
const PRIORITY_STREAM: u64 = 0x9e37_79b9_7f4a_7c15;

/// `problem` with each function's priority γ drawn from `{1, 1.3, 2, 3}`.
fn with_random_priorities(problem: &Problem, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed ^ PRIORITY_STREAM);
    let functions = problem
        .functions()
        .iter()
        .map(|f| {
            let gamma = [1.0, 1.3, 2.0, 3.0][rng.gen_range(0..4usize)];
            PreferenceFunction {
                function: f.function.prioritized(gamma).unwrap(),
                ..f.clone()
            }
        })
        .collect();
    Problem::new(functions, problem.objects().to_vec()).unwrap()
}

/// Solves `problem` with every solver variant over several tree fanouts and
/// checks stability + canonical oracle equality for each.
fn check_against_oracle(problem: &Problem, label: &str) {
    let want = oracle(problem);
    verify_stable(problem, &want).unwrap_or_else(|v| panic!("oracle unstable on {label}: {v}"));
    let want = want.canonical();
    for fanout in [None, Some(4), Some(8)] {
        // `(loops, object_io)` of `SB (scan)` and of `SB`
        let mut commits = Vec::new();
        for solver in all_solvers() {
            let mut tree = problem.build_tree(fanout, 0.02);
            let result = solver.solve(problem, &mut tree);
            if matches!(solver.name(), "SB (scan)" | "SB") {
                commits.push((result.metrics.loops, result.metrics.object_io));
            }
            verify_stable(problem, &result.assignment).unwrap_or_else(|v| {
                panic!(
                    "{} (fanout {fanout:?}) unstable on {label}: {v}",
                    solver.name()
                )
            });
            assert_eq!(
                result.assignment.canonical(),
                want,
                "{} (fanout {fanout:?}) diverges from the oracle on {label}",
                solver.name()
            );
        }
        assert_eq!(
            commits[0], commits[1],
            "SB (scan) and SB commit different pairs (fanout {fanout:?}) on {label}"
        );
    }
}

#[test]
fn seeded_random_instances_match_the_oracle() {
    for seed in 0..fuzz_iters() {
        let problem = random_instance(seed);
        check_against_oracle(
            &problem,
            &format!(
                "seed {seed} (|F|={}, |O|={}, dims={})",
                problem.num_functions(),
                problem.num_objects(),
                problem.dims()
            ),
        );
    }
}

#[test]
fn seeded_prioritized_instances_match_the_oracle() {
    for seed in 0..fuzz_iters() {
        let problem = with_random_priorities(&random_instance(seed), seed);
        check_against_oracle(
            &problem,
            &format!(
                "prioritized seed {seed} (|F|={}, |O|={}, dims={})",
                problem.num_functions(),
                problem.num_objects(),
                problem.dims()
            ),
        );
    }
}

#[test]
fn degenerate_shapes_match_the_oracle() {
    let f = |w: Vec<f64>| LinearFunction::new(w).unwrap();

    // 1 function × 1 object, capacities saturated on both sides
    let p = Problem::new(
        vec![PreferenceFunction::new(0, f(vec![0.5, 0.5])).with_capacity(4)],
        vec![ObjectRecord::new(0, Point::from_slice(&[0.3, 0.7])).with_capacity(4)],
    )
    .unwrap();
    check_against_oracle(&p, "1x1 saturated");

    // one function, many identical objects: every pair ties exactly
    let p = Problem::new(
        vec![PreferenceFunction::new(0, f(vec![1.0, 2.0])).with_capacity(3)],
        (0..8)
            .map(|i| ObjectRecord::new(i, Point::from_slice(&[0.5, 0.5])))
            .collect(),
    )
    .unwrap();
    check_against_oracle(&p, "identical objects");

    // many identical functions, one object: demand 10, supply 2
    let p = Problem::new(
        (0..10)
            .map(|i| PreferenceFunction::new(i, f(vec![2.0, 1.0])))
            .collect(),
        vec![ObjectRecord::new(0, Point::from_slice(&[0.9, 0.1])).with_capacity(2)],
    )
    .unwrap();
    check_against_oracle(&p, "identical functions, starved supply");

    // supply far exceeds demand: most objects stay unmatched
    let p = Problem::new(
        vec![PreferenceFunction::new(0, f(vec![1.0, 1.0]))],
        (0..12)
            .map(|i| {
                ObjectRecord::new(i, Point::from_slice(&[0.1 * (i % 4) as f64, 0.25]))
                    .with_capacity(4)
            })
            .collect(),
    )
    .unwrap();
    check_against_oracle(&p, "oversupplied");

    // demand far exceeds supply through function capacities
    let p = Problem::new(
        (0..4)
            .map(|i| PreferenceFunction::new(i, f(vec![1.0 + i as f64, 1.0])).with_capacity(4))
            .collect(),
        (0..3)
            .map(|i| ObjectRecord::new(i, Point::from_slice(&[0.2 + 0.3 * i as f64, 0.5])))
            .collect(),
    )
    .unwrap();
    check_against_oracle(&p, "overdemanded");

    // everything identical on both sides: a pure tie-break stress
    let p = Problem::new(
        (0..5)
            .map(|i| PreferenceFunction::new(i, f(vec![1.0, 1.0])).with_capacity(2))
            .collect(),
        (0..5)
            .map(|i| ObjectRecord::new(i, Point::from_slice(&[0.5, 0.5])).with_capacity(2))
            .collect(),
    )
    .unwrap();
    check_against_oracle(&p, "all-identical tie-break");
}

#[test]
fn capacity_sweep_1_to_4_on_both_sides() {
    // the full capacity grid on a fixed skewed instance: 16 deterministic
    // cells, each checked against the oracle
    for f_cap in 1..=4u32 {
        for o_cap in 1..=4u32 {
            let functions: Vec<PreferenceFunction> = (0..6)
                .map(|i| {
                    PreferenceFunction::new(
                        i,
                        LinearFunction::new(vec![1.0 + (i % 3) as f64, 2.0, 1.0]).unwrap(),
                    )
                    .with_capacity(f_cap)
                })
                .collect();
            let objects: Vec<ObjectRecord> = (0..9)
                .map(|i| {
                    ObjectRecord::new(
                        i,
                        Point::from_slice(&[
                            0.1 + 0.1 * (i % 5) as f64,
                            0.9 - 0.1 * (i % 4) as f64,
                            0.25 * (i % 3) as f64,
                        ]),
                    )
                    .with_capacity(o_cap)
                })
                .collect();
            let p = Problem::new(functions, objects).unwrap();
            check_against_oracle(&p, &format!("capacity cell f={f_cap} o={o_cap}"));
        }
    }
}
