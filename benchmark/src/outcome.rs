//! What every stage hands back: its end-to-end numbers and its checks.

use crate::report::Metrics;
use crate::stats::Stat;
use std::time::Duration;

/// The end-to-end numbers of a workload's own stage.
#[derive(Debug, Clone)]
pub struct Primary {
    /// One sample per repeated set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Median latency of the workload's operation, over the rounds of the
    /// run: the least disturbed round of a compute-bound stage, the median
    /// round of a serving stage (see the README on why they differ).
    pub p50_us: Stat,
}

impl Primary {
    pub fn put_end_to_end(&self, metrics: &mut Metrics) {
        metrics.put_stat("setup_s", Stat::of_rounds(&self.setup_s));
        metrics.put_stat("op_p50_us", self.p50_us);
    }
}

/// How far the two fastest rounds of a compute-bound stage may differ for the
/// stage to stop at its nominal round count; wider apart, it runs on (to at
/// most twice the count) looking for an undisturbed round.
pub const SETTLED_WITHIN: f64 = 0.03;

/// A compute-bound stage reports its fastest round: on a shared box
/// interference only ever slows a round down, so the fastest one is the
/// least disturbed estimate of what the program costs.
pub fn least_disturbed(rounds: &[f64]) -> Stat {
    Stat {
        value: rounds.iter().copied().fold(f64::INFINITY, f64::min),
        ..Stat::of_rounds(rounds)
    }
}

/// Whether the two fastest of `rounds` agree within [`SETTLED_WITHIN`].
pub fn settled(rounds: &[f64]) -> bool {
    let mut sorted = rounds.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("round values are never NaN"));
    sorted.len() >= 2 && sorted[1] <= sorted[0] * (1.0 + SETTLED_WITHIN)
}

/// Operations attempted and operations that errored, were refused, or gave a
/// wrong answer. Verification steps count as operations.
#[derive(Debug, Clone, Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    /// What went wrong, first few failures only.
    pub notes: Vec<String>,
}

impl Check {
    /// Counts one operation; `problem` describes its failure, if any.
    pub fn expect(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(note) = problem {
            self.fail(note);
        }
    }

    /// Counts `n` operations that need no note of their own.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    pub fn absorb(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}
