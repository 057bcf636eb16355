//! The solve stage: cold `SbSolver` solves, each on a freshly bulk-loaded tree.

use crate::inputs::{self, Spec};
use crate::outcome::{least_disturbed, secs, settled, Check, Primary};
use crate::report::Metrics;
use crate::stats::Stat;
use crate::trace::Tracer;
use pref_assign::{oracle, verify_stable, Problem, RunMetrics, SbOptions, SbSolver, Solver};
use std::time::Instant;

/// Buffer of the object R-tree as a share of the tree (the paper's 2 %).
pub const BUFFER_FRACTION: f64 = 0.02;

/// SB as the paper configures it. End-to-end numbers pin one worker thread:
/// on a shared two-core box the default pool makes run-to-run spread several
/// times wider than any bound, and the parallel path is reported on its own
/// (`sync.pool_speedup`).
pub fn solver(threads: Option<usize>) -> SbSolver {
    SbSolver {
        options: SbOptions {
            threads,
            ..SbOptions::default()
        },
    }
}

/// A matching in the canonical form the workspace compares matchings in.
pub type Canonical = Vec<(usize, u64, u64)>;

/// Canonical matching of `problem` by a fresh pinned solve (the reference
/// the engine and the served snapshots are checked against).
pub fn reference_matching(problem: &Problem) -> Canonical {
    let mut tree = problem.build_tree(None, BUFFER_FRACTION);
    solver(Some(1))
        .solve(problem, &mut tree)
        .assignment
        .canonical()
}

pub struct SolveOut {
    pub primary: Primary,
    pub check: Check,
    /// The counters of a solve (identical on every repeat, or `check` fails).
    pub run: RunMetrics,
    pub pairs: usize,
    /// The median solve, beside the fastest one `primary` reports: how far
    /// apart they are says how disturbed the run was.
    pub median_s: f64,
}

/// One untimed warm-up solve, then `solves` timed ones — and, while the two
/// fastest still disagree, up to as many again. Every repeat regenerates the
/// problem from the seed and bulk-loads a new tree, so every solve starts
/// with a cold buffer and every repeat yields a set-up sample.
pub fn solve_stage(
    spec: &Spec,
    seed: u64,
    solves: usize,
    smoke: bool,
    tracer: &mut Tracer,
) -> SolveOut {
    let solver = solver(Some(1));
    let mut check = Check::default();
    let mut setup_s = Vec::with_capacity(solves + 1);
    let mut solve_us: Vec<f64> = Vec::with_capacity(2 * solves);
    let mut reference: Option<(Canonical, RunMetrics)> = None;
    for repeat in 0..=2 * solves {
        if solve_us.len() >= solves && settled(&solve_us) {
            break;
        }
        tracer.begin("solve");
        let started = Instant::now();
        tracer.begin("setup");
        let problem = tracer.scope("datagen.problem", |_| inputs::problem(spec, seed, 0));
        let mut tree = tracer.scope("rtree.build_tree", |_| {
            problem.build_tree(None, BUFFER_FRACTION)
        });
        tracer.end();
        setup_s.push(secs(started.elapsed()));
        let started = Instant::now();
        let result = tracer.scope("core.solve", |_| solver.solve(&problem, &mut tree));
        let elapsed = started.elapsed();
        tracer.end();
        if repeat > 0 {
            solve_us.push(secs(elapsed) * 1e6);
        }

        // checks, outside the timed region
        let canonical = result.assignment.canonical();
        let problem_note = match &reference {
            None => {
                let stable = verify_stable(&problem, &result.assignment)
                    .err()
                    .map(|v| format!("{}: solve is not stable: {v:?}", spec.name));
                let exact = (smoke && canonical != oracle(&problem).canonical())
                    .then(|| format!("{}: solve differs from the exact oracle", spec.name));
                reference = Some((canonical, result.metrics));
                stable.or(exact)
            }
            Some((want, run)) => {
                let same_counts = run.object_io == result.metrics.object_io
                    && run.aux_io == result.metrics.aux_io
                    && run.loops == result.metrics.loops
                    && run.searches == result.metrics.searches
                    && run.peak_memory_bytes == result.metrics.peak_memory_bytes;
                (canonical != *want || !same_counts).then(|| {
                    format!(
                        "{}: repeat {repeat} differs from the first solve",
                        spec.name
                    )
                })
            }
        };
        check.expect(problem_note);
    }

    let (canonical, run) = reference.expect("at least the warm-up solve ran");
    SolveOut {
        primary: Primary {
            setup_s,
            p50_us: least_disturbed(&solve_us),
        },
        median_s: Stat::of_rounds(&solve_us).value / 1e6,
        check,
        run,
        pairs: canonical.len(),
    }
}

/// The `core` metrics, and the object-tree share of `storage`, of a solve.
pub fn put_layers(out: &SolveOut, metrics: &mut Metrics) {
    let run = &out.run;
    metrics.put("core.solve_s", out.primary.p50_us.value / 1e6);
    metrics.put("core.solve_s_median", out.median_s);
    metrics.put("core.object_io", run.object_io.io_accesses() as f64);
    metrics.put("core.aux_io", run.aux_io.io_accesses() as f64);
    metrics.put("core.peak_mem_bytes", run.peak_memory_bytes as f64);
    metrics.put("core.loops", run.loops as f64);
    metrics.put("core.searches", run.searches as f64);
    metrics.put(
        "core.pairs_per_loop",
        out.pairs as f64 / run.loops.max(1) as f64,
    );
    metrics.put("storage.page_reads", run.object_io.physical_reads as f64);
    metrics.put("storage.buffer_hit_ratio", run.object_io.hit_ratio());
}
