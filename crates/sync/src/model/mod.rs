//! Deterministic model-checking harness.
//!
//! The entry points take a *scenario* — a plain closure that builds shim
//! objects, spawns shim threads, and asserts invariants with [`check`] — and
//! run it many times under the cooperative scheduler, each run forcing a
//! different interleaving:
//!
//! * [`explore`] — seeded random walks; cheap, broad, the default. The
//!   per-run seed is derived from [`ModelConfig::seed`], so a failure report
//!   names the exact seed to hand to [`replay`].
//! * [`explore_dfs`] — systematic bounded-preemption DFS over scheduling
//!   choices; exhaustive for small scenarios.
//! * [`replay`] / [`run_schedule`] — re-run one specific interleaving from a
//!   failure report (by seed, or by explicit choice schedule).
//!
//! On any violation the harness writes the full trace to
//! [`ModelConfig::trace_dir`] and prints the seed/schedule to stderr; the
//! returned [`ExploreReport`] carries the same data for assertions.

mod sched;

pub use sched::{Violation, ViolationKind};

pub(crate) use sched::Scheduler;
use sched::{Policy, RunCfg, RunOutcome, SplitMix64};

use std::cell::RefCell;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

// ---- thread-local run context -------------------------------------------

#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) sched: Arc<Scheduler>,
    pub(crate) tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

pub(crate) fn current() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

pub(crate) fn set_ctx(ctx: Option<Ctx>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

/// Panic payload used by [`check`]: unwinds without touching the panic hook,
/// so failing runs stay quiet and report through the harness instead.
#[derive(Debug)]
pub struct CheckFailed(pub String);

pub(crate) fn describe_panic(payload: &(dyn std::any::Any + Send)) -> (String, bool) {
    if let Some(check) = payload.downcast_ref::<CheckFailed>() {
        (check.0.clone(), true)
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        ((*s).to_string(), false)
    } else if let Some(s) = payload.downcast_ref::<String>() {
        (s.clone(), false)
    } else {
        ("opaque panic payload".to_string(), false)
    }
}

/// Asserts a scenario invariant. Outside a model run this is a plain
/// `assert!`; inside one, failure unwinds quietly (no panic-hook noise) and
/// the harness reports it with the reproducing seed and trace.
pub fn check(cond: bool, msg: &str) {
    if cond {
        return;
    }
    if current().is_some() {
        std::panic::resume_unwind(Box::new(CheckFailed(msg.to_string())));
    }
    panic!("model check failed: {msg}");
}

/// Adds a free-form note to the current run's trace (no-op outside a run).
/// Also a schedule point, like every shim operation.
pub fn annotate(msg: &str) {
    if let Some(ctx) = current() {
        ctx.sched.annotate(ctx.tid, msg);
    }
}

// ---- configuration -------------------------------------------------------

/// Configuration for [`explore`] / [`replay`].
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Scenario name (reports, trace file names).
    pub name: String,
    /// Number of random-walk runs.
    pub iterations: usize,
    /// Base seed; the per-run seed is derived from it and the run index.
    pub seed: u64,
    /// Per-run step budget (livelock guard).
    pub max_steps: usize,
    /// Thread-name substrings whose panics are expected, not violations.
    pub allow_panic_from: Vec<String>,
    /// Stop at the first violating run (default true).
    pub fail_fast: bool,
    /// Where violation traces are written (`None` disables the dump).
    pub trace_dir: Option<PathBuf>,
}

impl ModelConfig {
    /// Defaults: 1,200 iterations, a fixed seed, 50,000 steps per run,
    /// traces under `target/model-traces`. The environment can override
    /// `MODEL_ITERS` (run count) and `MODEL_SEED` (base seed, decimal or
    /// `0x`-hex) to widen a search or reproduce a report.
    pub fn new(name: &str) -> Self {
        let iterations = std::env::var("MODEL_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1_200);
        let seed = std::env::var("MODEL_SEED")
            .ok()
            .and_then(|v| parse_seed(&v))
            .unwrap_or(0x5eed_c0ff_ee00_0001);
        let trace_dir = std::env::var_os("MODEL_TRACE_DIR")
            .map(PathBuf::from)
            .or_else(|| Some(PathBuf::from("target/model-traces")));
        Self {
            name: name.to_string(),
            iterations,
            seed,
            max_steps: 50_000,
            allow_panic_from: Vec::new(),
            fail_fast: true,
            trace_dir,
        }
    }
}

fn parse_seed(v: &str) -> Option<u64> {
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

/// Configuration for [`explore_dfs`].
#[derive(Debug, Clone)]
pub struct DfsConfig {
    /// Scenario name (reports, trace file names).
    pub name: String,
    /// Preemption bound: runs may switch away from a runnable thread at most
    /// this many times (CHESS-style; most bugs show up with ≤ 2).
    pub max_preemptions: usize,
    /// Hard cap on the number of runs (keeps CI bounded).
    pub max_runs: usize,
    /// Per-run step budget.
    pub max_steps: usize,
    /// Thread-name substrings whose panics are expected.
    pub allow_panic_from: Vec<String>,
    /// Stop at the first violating run (default true).
    pub fail_fast: bool,
    /// Where violation traces are written.
    pub trace_dir: Option<PathBuf>,
}

impl DfsConfig {
    /// Defaults: preemption bound 2, at most 5,000 runs.
    pub fn new(name: &str) -> Self {
        let base = ModelConfig::new(name);
        Self {
            name: base.name,
            max_preemptions: 2,
            max_runs: 5_000,
            max_steps: base.max_steps,
            allow_panic_from: Vec::new(),
            fail_fast: true,
            trace_dir: base.trace_dir,
        }
    }
}

// ---- reports -------------------------------------------------------------

/// A reproducible description of one violating run.
#[derive(Debug, Clone)]
pub struct ViolationReport {
    /// Scenario name.
    pub scenario: String,
    /// Seed reproducing the run via [`replay`] (random-walk runs only).
    pub seed: Option<u64>,
    /// Choice schedule reproducing the run via [`run_schedule`].
    pub schedule: Vec<usize>,
    /// Classification of the first violation.
    pub kind: ViolationKind,
    /// Message of the first violation.
    pub message: String,
    /// Full scheduler trace of the run.
    pub trace: Vec<String>,
    /// Where the trace was written, if a trace dir is configured.
    pub trace_path: Option<PathBuf>,
}

/// Outcome of an exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// How many runs executed.
    pub runs: usize,
    /// How many *distinct* interleavings those runs covered (by schedule
    /// hash — different hashes are guaranteed-different schedules).
    pub distinct_interleavings: usize,
    /// The first violation found, if any.
    pub violation: Option<ViolationReport>,
}

impl ExploreReport {
    /// True when no run violated anything.
    pub fn clean(&self) -> bool {
        self.violation.is_none()
    }
}

// ---- harness -------------------------------------------------------------

fn run_one(
    name: &str,
    policy: Policy,
    max_steps: usize,
    allow_panic_from: Vec<String>,
    scenario: Arc<dyn Fn() + Send + Sync>,
) -> RunOutcome {
    let sched = Arc::new(Scheduler::new(
        RunCfg {
            max_steps,
            allow_panic_from,
        },
        policy,
        "root",
    ));
    let worker = Arc::clone(&sched);
    let root = std::thread::Builder::new()
        .name(format!("model-root-{name}"))
        .spawn(move || {
            set_ctx(Some(Ctx {
                sched: Arc::clone(&worker),
                tid: 0,
            }));
            let result = catch_unwind(AssertUnwindSafe(|| scenario()));
            match result {
                Ok(()) => worker.thread_exit(0, None),
                Err(payload) => {
                    let (msg, is_check) = describe_panic(payload.as_ref());
                    worker.thread_exit(0, Some((msg, is_check)));
                }
            }
            set_ctx(None);
        })
        .unwrap_or_else(|e| panic!("model: failed to spawn root thread: {e}"));
    let outcome = sched.wait_run_end();
    if !outcome.hard_failed {
        // clean end (or soft violations only): every thread ran to completion
        let _ = root.join();
    }
    // hard failure: the run's threads are parked; abandon them (bounded by
    // fail-fast — only violating runs leak, and only their few threads)
    outcome
}

#[expect(
    clippy::disallowed_methods,
    reason = "failure-trace dump, diagnostic output only"
)]
fn dump_trace(dir: &Path, report: &ViolationReport) -> Option<PathBuf> {
    std::fs::create_dir_all(dir).ok()?;
    let tag = match report.seed {
        Some(seed) => format!("seed-{seed:016x}"),
        None => format!("schedule-{:04}", report.schedule.len()),
    };
    let path = dir.join(format!("{}-{tag}.txt", report.scenario));
    let mut body = String::new();
    body.push_str(&format!(
        "scenario : {}\nviolation: {}\nmessage  : {}\n",
        report.scenario, report.kind, report.message
    ));
    match report.seed {
        Some(seed) => body.push_str(&format!(
            "seed     : 0x{seed:016x}  (replay: model::replay(&cfg, 0x{seed:016x}, scenario))\n"
        )),
        None => body.push_str("seed     : - (schedule replay only)\n"),
    }
    body.push_str(&format!("schedule : {:?}\n\ntrace:\n", report.schedule));
    for line in &report.trace {
        body.push_str(line);
        body.push('\n');
    }
    std::fs::write(&path, body).ok()?;
    Some(path)
}

fn build_report(
    name: &str,
    seed: Option<u64>,
    trace_dir: Option<&Path>,
    outcome: &RunOutcome,
) -> ViolationReport {
    let first = &outcome.violations[0];
    let mut report = ViolationReport {
        scenario: name.to_string(),
        seed,
        schedule: outcome.chosen.clone(),
        kind: first.kind.clone(),
        message: first.message.clone(),
        trace: outcome.trace.clone(),
        trace_path: None,
    };
    if let Some(dir) = trace_dir {
        report.trace_path = dump_trace(dir, &report);
    }
    eprintln!(
        "model: violation in scenario '{}': {}: {}",
        name, report.kind, report.message
    );
    match seed {
        Some(seed) => eprintln!(
            "model: reproduce with MODEL_SEED=0x{seed:016x} MODEL_ITERS=1, or model::replay"
        ),
        None => eprintln!(
            "model: reproduce with model::run_schedule(&cfg, &{:?}, scenario)",
            report.schedule
        ),
    }
    if let Some(path) = &report.trace_path {
        eprintln!("model: trace written to {}", path.display());
    }
    report
}

/// Runs `scenario` [`ModelConfig::iterations`] times under seeded random
/// schedules, counting distinct interleavings and reporting the first
/// violation (with its reproducing seed and trace).
pub fn explore<F>(cfg: &ModelConfig, scenario: F) -> ExploreReport
where
    F: Fn() + Send + Sync + 'static,
{
    let scenario: Arc<dyn Fn() + Send + Sync> = Arc::new(scenario);
    let mut hashes = HashSet::new();
    let mut runs = 0;
    let mut violation = None;
    for i in 0..cfg.iterations {
        // decorrelate per-run seeds from the base seed and the run index
        let run_seed =
            SplitMix64::new(cfg.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).next();
        let outcome = run_one(
            &cfg.name,
            Policy::Random(SplitMix64::new(run_seed)),
            cfg.max_steps,
            cfg.allow_panic_from.clone(),
            Arc::clone(&scenario),
        );
        runs += 1;
        hashes.insert(outcome.schedule_hash);
        if !outcome.violations.is_empty() && violation.is_none() {
            violation = Some(build_report(
                &cfg.name,
                Some(run_seed),
                cfg.trace_dir.as_deref(),
                &outcome,
            ));
            if cfg.fail_fast {
                break;
            }
        }
    }
    ExploreReport {
        runs,
        distinct_interleavings: hashes.len(),
        violation,
    }
}

/// Re-runs `scenario` once under the exact schedule that seed produced
/// (the seed printed by a failing [`explore`]). Returns the violation, if it
/// still occurs.
pub fn replay<F>(cfg: &ModelConfig, seed: u64, scenario: F) -> Option<ViolationReport>
where
    F: Fn() + Send + Sync + 'static,
{
    let scenario: Arc<dyn Fn() + Send + Sync> = Arc::new(scenario);
    let outcome = run_one(
        &cfg.name,
        Policy::Random(SplitMix64::new(seed)),
        cfg.max_steps,
        cfg.allow_panic_from.clone(),
        scenario,
    );
    if outcome.violations.is_empty() {
        None
    } else {
        Some(build_report(
            &cfg.name,
            Some(seed),
            cfg.trace_dir.as_deref(),
            &outcome,
        ))
    }
}

/// Re-runs `scenario` once under an explicit choice schedule (indices into
/// the eligible-thread list at each scheduling point, as found in a
/// [`ViolationReport::schedule`]). Past the end of the schedule the scheduler
/// continues non-preemptively.
pub fn run_schedule<F>(
    cfg: &ModelConfig,
    schedule: &[usize],
    scenario: F,
) -> Option<ViolationReport>
where
    F: Fn() + Send + Sync + 'static,
{
    let scenario: Arc<dyn Fn() + Send + Sync> = Arc::new(scenario);
    let outcome = run_one(
        &cfg.name,
        Policy::Replay {
            prefix: schedule.to_vec(),
        },
        cfg.max_steps,
        cfg.allow_panic_from.clone(),
        scenario,
    );
    if outcome.violations.is_empty() {
        None
    } else {
        Some(build_report(
            &cfg.name,
            None,
            cfg.trace_dir.as_deref(),
            &outcome,
        ))
    }
}

/// Systematic bounded-preemption DFS: starts from the non-preemptive
/// schedule and backtracks over every scheduling choice whose alternative
/// stays within [`DfsConfig::max_preemptions`]. Exhaustive (up to the bound
/// and [`DfsConfig::max_runs`]) for small scenarios.
pub fn explore_dfs<F>(cfg: &DfsConfig, scenario: F) -> ExploreReport
where
    F: Fn() + Send + Sync + 'static,
{
    let scenario: Arc<dyn Fn() + Send + Sync> = Arc::new(scenario);
    let mut hashes = HashSet::new();
    let mut runs = 0;
    let mut violation: Option<ViolationReport> = None;
    // stack of (prefix, first index at which to branch new alternatives)
    let mut stack: Vec<(Vec<usize>, usize)> = vec![(Vec::new(), 0)];
    while let Some((prefix, branch_from)) = stack.pop() {
        if runs >= cfg.max_runs {
            break;
        }
        let outcome = run_one(
            &cfg.name,
            Policy::Replay {
                prefix: prefix.clone(),
            },
            cfg.max_steps,
            cfg.allow_panic_from.clone(),
            Arc::clone(&scenario),
        );
        runs += 1;
        hashes.insert(outcome.schedule_hash);
        if !outcome.violations.is_empty() && violation.is_none() {
            violation = Some(build_report(
                &cfg.name,
                None,
                cfg.trace_dir.as_deref(),
                &outcome,
            ));
            if cfg.fail_fast {
                break;
            }
        }
        // branch alternatives at every choice point ≥ branch_from (earlier
        // points were branched when this prefix's ancestors ran)
        for (i, choice) in outcome.choices.iter().enumerate().skip(branch_from) {
            for alt in 0..choice.eligible_len {
                if alt == choice.chosen_idx {
                    continue;
                }
                let extra = usize::from(choice.nonpreemptive_idx != Some(alt));
                if choice.preemptions_before + extra > cfg.max_preemptions {
                    continue;
                }
                let mut next = outcome.chosen[..i].to_vec();
                next.push(alt);
                stack.push((next, i + 1));
            }
        }
    }
    ExploreReport {
        runs,
        distinct_interleavings: hashes.len(),
        violation,
    }
}
