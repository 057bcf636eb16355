//! Per-run measurements: I/O, CPU time, peak memory of search structures.

use crate::matching::Assignment;
use pref_storage::IoStats;
use std::time::Duration;

/// Measurements collected while an assignment algorithm runs; these are the
/// three factors the paper's evaluation reports (Section 7): I/O cost, CPU
/// cost and the maximum memory consumed by search structures.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunMetrics {
    /// I/O performed on the object R-tree (the paper's headline metric).
    pub object_io: IoStats,
    /// I/O performed on auxiliary structures, i.e. everything that is not the
    /// object R-tree. For SB: the function-index entries its best-pair
    /// searches read — one per row scored by the default scan (over the
    /// objects it asks, see [`RunMetrics::searches`]) or the two-skyline
    /// arm, one per sorted
    /// access of a TA search (the paper's definition, which the figures' SB
    /// series report). For SB-alt the disk-resident function lists, for
    /// Chain its function R-tree.
    pub aux_io: IoStats,
    /// Wall-clock time of the run. Each batch solver runs single-threaded, so
    /// for one `Solver::solve` call this still equals CPU time; it stops being
    /// a CPU measure when runs execute concurrently or when the assignment
    /// engine batches repair work between reads — treat it as elapsed time,
    /// not as a cross-thread CPU total.
    pub cpu_time: Duration,
    /// Peak size of the algorithm's search structures, in bytes.
    pub peak_memory_bytes: u64,
    /// Number of outer loops / rounds executed.
    pub loops: u64,
    /// Number of top-1 / best-pair searches issued. SB's paper arms search
    /// every skyline object every loop. Its default scan does so too in a
    /// loop with more alive functions than skyline objects; in any other
    /// loop it searches only the objects that some function picked as its
    /// best. SB-alt's batched scan counts one a loop.
    pub searches: u64,
}

impl RunMetrics {
    /// Total I/O accesses (object tree plus auxiliary structures).
    pub fn total_io(&self) -> u64 {
        self.object_io.io_accesses() + self.aux_io.io_accesses()
    }

    /// Peak memory in MiB.
    pub fn peak_memory_mib(&self) -> f64 {
        self.peak_memory_bytes as f64 / (1024.0 * 1024.0)
    }

    /// CPU time in seconds.
    pub fn cpu_seconds(&self) -> f64 {
        self.cpu_time.as_secs_f64()
    }
}

impl std::fmt::Display for RunMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "io={} cpu={:.3}s mem={:.2}MiB loops={} searches={}",
            self.total_io(),
            self.cpu_seconds(),
            self.peak_memory_mib(),
            self.loops,
            self.searches
        )
    }
}

/// The outcome of running an assignment algorithm: the matching plus the
/// measurements gathered along the way.
#[derive(Debug, Clone)]
pub struct AssignmentResult {
    /// The computed stable assignment.
    pub assignment: Assignment,
    /// Measurements of the run.
    pub metrics: RunMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_units() {
        let mut m = RunMetrics::default();
        m.object_io.physical_reads = 100;
        m.aux_io.physical_reads = 20;
        m.peak_memory_bytes = 3 * 1024 * 1024;
        m.cpu_time = Duration::from_millis(1500);
        assert_eq!(m.total_io(), 120);
        assert!((m.peak_memory_mib() - 3.0).abs() < 1e-9);
        assert!((m.cpu_seconds() - 1.5).abs() < 1e-9);
        let text = m.to_string();
        assert!(text.contains("io=120"));
    }
}
