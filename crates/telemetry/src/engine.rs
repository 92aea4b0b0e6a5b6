//! Engine observability: what a crew run reports about its workers.
//!
//! A crew runs each job on its own scoped thread, and each job's
//! [`WorkerStats`] come back to the driver at join time. The driver
//! assembles one [`EngineReport`] per crew and feeds it to
//! [`Telemetry::record_engine`](crate::Telemetry::record_engine), which
//! folds it into bounded [`EngineTotals`] (per-worker sums, never a
//! per-run log, so a ten-thousand-pass sweep stays O(workers)).

use std::collections::BTreeMap;

/// One crew thread's counters for one engine run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Sink-events applied: every `(event, sink)` pair this worker drove.
    pub events: u64,
    /// Always 0: every crew job runs on its own thread, so no worker
    /// takes work from another. Kept so the manifest's worker block and
    /// the benchmark's `core.sched.steals` keep their shape.
    pub steals: u64,
    /// Time this worker sat finished while the rest of its crew (the
    /// other jobs and the calling thread's own part) still ran.
    pub idle_ns: u64,
}

impl WorkerStats {
    /// Add `other`'s counters into `self`.
    pub fn merge(&mut self, other: &WorkerStats) {
        self.events += other.events;
        self.steals += other.steals;
        self.idle_ns += other.idle_ns;
    }
}

/// Everything one crew run observed about itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineReport {
    /// What the crew ran: its jobs' kind (`replay_shard`, `task`, ...).
    pub kind: &'static str,
    /// Crew threads in the run, one per job; the calling thread, which
    /// runs its own part alongside (a live pass's VM), is not counted.
    pub jobs: usize,
    /// Sinks the run drove (0 for crews of whole tasks).
    pub sinks: usize,
    /// Raw event blocks a live pass's feed published to its readers.
    pub chunks_published: u64,
    /// Events the readers read (per stream, not per sink).
    pub events_published: u64,
    /// Time a live pass's producer waited for its slowest reader.
    pub backpressure_ns: u64,
    /// Most published blocks a live pass's slowest reader had yet to
    /// read.
    pub queue_depth_hwm: u64,
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerStats>,
}

/// A worker slot's totals across every observed engine run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkerTotals {
    /// Engine runs this worker slot participated in.
    pub runs: u64,
    /// Summed per-run counters.
    pub stats: WorkerStats,
}

/// Bounded aggregate of every [`EngineReport`] a run produced.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EngineTotals {
    /// Engine runs observed.
    pub runs: u64,
    /// Total chunks published across runs.
    pub chunks_published: u64,
    /// Total events published across runs.
    pub events_published: u64,
    /// Total producer backpressure time across runs.
    pub backpressure_ns: u64,
    /// Maximum queue depth seen in any run.
    pub queue_depth_hwm: u64,
    /// Runs per crew kind.
    pub by_kind: BTreeMap<&'static str, u64>,
    /// Per-worker-slot totals; slot `i` aggregates worker `i` of every
    /// run that had at least `i + 1` workers.
    pub workers: Vec<WorkerTotals>,
}

impl EngineTotals {
    /// Fold one run's report into the totals.
    pub fn absorb(&mut self, report: &EngineReport) {
        self.runs += 1;
        self.chunks_published += report.chunks_published;
        self.events_published += report.events_published;
        self.backpressure_ns += report.backpressure_ns;
        self.queue_depth_hwm = self.queue_depth_hwm.max(report.queue_depth_hwm);
        *self.by_kind.entry(report.kind).or_insert(0) += 1;
        if self.workers.len() < report.workers.len() {
            self.workers
                .resize(report.workers.len(), WorkerTotals::default());
        }
        for (slot, stats) in self.workers.iter_mut().zip(&report.workers) {
            slot.runs += 1;
            slot.stats.merge(stats);
        }
    }

    /// Sink-events applied across all runs and workers.
    pub fn events_applied(&self) -> u64 {
        self.workers.iter().map(|w| w.stats.events).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(jobs: usize, events: u64) -> EngineReport {
        EngineReport {
            kind: "replay_shard",
            jobs,
            sinks: 4,
            chunks_published: 10,
            events_published: events,
            backpressure_ns: 5,
            queue_depth_hwm: 3,
            workers: (0..jobs)
                .map(|i| WorkerStats {
                    events: events * (i as u64 + 1),
                    steals: 0,
                    idle_ns: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn totals_absorb_reports_of_mixed_width() {
        let mut t = EngineTotals::default();
        t.absorb(&report(2, 100));
        t.absorb(&report(3, 10));
        assert_eq!(t.runs, 2);
        assert_eq!(t.chunks_published, 20);
        assert_eq!(t.events_published, 110);
        assert_eq!(t.queue_depth_hwm, 3);
        assert_eq!(t.by_kind["replay_shard"], 2);
        assert_eq!(t.workers.len(), 3);
        // Slot 0 saw both runs, slot 2 only the wider one.
        assert_eq!(t.workers[0].runs, 2);
        assert_eq!(t.workers[0].stats.events, 110);
        assert_eq!(t.workers[2].runs, 1);
        assert_eq!(t.workers[2].stats.events, 30);
        assert_eq!(t.events_applied(), 110 + 220 + 30);
    }
}
