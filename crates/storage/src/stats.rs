//! I/O statistics counters.
//!
//! `page_writes` and `sync_calls` are always zero: the store keeps every
//! page in memory, so nothing in the workspace increments them. They stay
//! only because the benchmark's `engine-churn` workload reports
//! `sync_calls` as its `storage.sync_calls` metric; both go with that
//! metric.

/// Counters describing the I/O behaviour of a [`crate::PagedStore`].
///
/// * a *logical read* is any node/page access performed by an algorithm;
/// * a *buffer hit* is a logical read satisfied by the LRU buffer;
/// * a *physical read* is a logical read that missed the buffer — this is the
///   paper's "I/O accesses" metric;
/// * *physical writes* count page allocations and updates flushed to the
///   simulated disk (structure modifications by insert/delete);
/// * *page writes* and *sync calls* are always zero (see the module docs).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Total page accesses requested by algorithms.
    pub logical_reads: u64,
    /// Accesses satisfied by the buffer pool.
    pub buffer_hits: u64,
    /// Accesses that had to touch the simulated disk.
    pub physical_reads: u64,
    /// Pages written (allocations and in-place updates).
    pub physical_writes: u64,
    /// Pages allocated over the lifetime of the store.
    pub pages_allocated: u64,
    /// Pages freed over the lifetime of the store.
    pub pages_freed: u64,
    /// Freed pages that were resident in the LRU buffer and had to be
    /// invalidated (a stale frame served after a free would be a correctness
    /// bug, not just an accounting one).
    pub buffer_invalidations: u64,
    /// Always zero: nothing increments it. Kept beside `sync_calls` until
    /// the benchmark's `storage.sync_calls` metric goes (see the module
    /// docs).
    pub page_writes: u64,
    /// Always zero: nothing increments it. Kept only because the benchmark's
    /// `engine-churn` workload reports it as `storage.sync_calls`.
    pub sync_calls: u64,
}

impl IoStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The paper's headline metric: accesses not absorbed by the buffer.
    #[inline]
    pub fn io_accesses(&self) -> u64 {
        self.physical_reads
    }

    /// Buffer hit ratio in `[0, 1]`; zero when nothing was read.
    pub fn hit_ratio(&self) -> f64 {
        if self.logical_reads == 0 {
            0.0
        } else {
            self.buffer_hits as f64 / self.logical_reads as f64
        }
    }

    /// Resets every counter to zero.
    pub(crate) fn reset(&mut self) {
        *self = Self::default();
    }

    /// Returns the difference `self - baseline` counter-by-counter, saturating
    /// at zero. Useful for measuring a single phase of a longer run.
    pub fn since(&self, baseline: &IoStats) -> IoStats {
        IoStats {
            logical_reads: self.logical_reads.saturating_sub(baseline.logical_reads),
            buffer_hits: self.buffer_hits.saturating_sub(baseline.buffer_hits),
            physical_reads: self.physical_reads.saturating_sub(baseline.physical_reads),
            physical_writes: self
                .physical_writes
                .saturating_sub(baseline.physical_writes),
            pages_allocated: self
                .pages_allocated
                .saturating_sub(baseline.pages_allocated),
            pages_freed: self.pages_freed.saturating_sub(baseline.pages_freed),
            buffer_invalidations: self
                .buffer_invalidations
                .saturating_sub(baseline.buffer_invalidations),
            page_writes: self.page_writes.saturating_sub(baseline.page_writes),
            sync_calls: self.sync_calls.saturating_sub(baseline.sync_calls),
        }
    }
}

impl std::fmt::Display for IoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "io={} (logical={}, hits={}, hit-ratio={:.1}%), writes={}, page-writes={}, syncs={}",
            self.physical_reads,
            self.logical_reads,
            self.buffer_hits,
            self.hit_ratio() * 100.0,
            self.physical_writes,
            self.page_writes,
            self.sync_calls
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_handles_zero_reads() {
        let s = IoStats::new();
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.io_accesses(), 0);
    }

    #[test]
    fn since_recovers_the_counters_added_after_the_baseline() {
        let before = IoStats {
            logical_reads: 10,
            buffer_hits: 4,
            physical_reads: 6,
            physical_writes: 2,
            pages_allocated: 1,
            ..IoStats::new()
        };
        let after = IoStats {
            logical_reads: 15,
            buffer_hits: 9,
            physical_reads: 6,
            physical_writes: 3,
            pages_allocated: 1,
            pages_freed: 1,
            buffer_invalidations: 1,
            page_writes: 2,
            sync_calls: 1,
        };
        let added = IoStats {
            logical_reads: 5,
            buffer_hits: 5,
            physical_writes: 1,
            pages_freed: 1,
            buffer_invalidations: 1,
            page_writes: 2,
            sync_calls: 1,
            ..IoStats::new()
        };
        assert_eq!(after.since(&before), added);
    }

    #[test]
    fn since_saturates() {
        let a = IoStats::new();
        let b = IoStats {
            logical_reads: 3,
            ..IoStats::new()
        };
        assert_eq!(a.since(&b).logical_reads, 0);
    }

    #[test]
    fn display_shows_headline_metric() {
        let s = IoStats {
            logical_reads: 100,
            buffer_hits: 60,
            physical_reads: 40,
            physical_writes: 3,
            page_writes: 7,
            ..IoStats::new()
        };
        let text = s.to_string();
        assert!(text.contains("io=40"));
        assert!(text.contains("60.0%"));
        assert!(text.contains("page-writes=7"));
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut s = IoStats {
            logical_reads: 1,
            buffer_hits: 1,
            physical_reads: 1,
            physical_writes: 1,
            pages_allocated: 1,
            pages_freed: 1,
            buffer_invalidations: 1,
            page_writes: 1,
            sync_calls: 1,
        };
        s.reset();
        assert_eq!(s, IoStats::new());
    }
}
