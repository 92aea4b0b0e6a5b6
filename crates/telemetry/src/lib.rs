//! Low-overhead instrumentation: monotonic counters, phase timers with
//! pause histograms, and engine observability.
//!
//! Modeled on mmtk-core's `EventCounter`/`PhaseTimer` statistics layer,
//! but lock-free on the hot path: a thread that wants to emit events
//! attaches a private shard per thread via [`Telemetry::attach`], the
//! [`probe!`] macro and [`probe`](mod@probe) functions write plain (non-atomic)
//! integers into that shard, and the shard merges into the shared
//! [`Telemetry`] totals exactly once, when the attach guard drops. A
//! `--jobs N` run therefore never serializes its workers on a statistics
//! mutex.
//!
//! When no shard is attached to the current thread — the default; nothing
//! in this crate has process-global state — every probe is a thread-local
//! check and a branch.
//!
//! This crate sits at the root of the workspace dependency graph (no
//! dependencies, like `cachegc-trace`) so the GC, the VM, and the trace
//! engine can all emit into one registry without knowing who aggregates
//! it. The manifest/reporting layer lives downstream in
//! `cachegc_core::telemetry`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod hist;
pub mod probe;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use engine::{EngineReport, EngineTotals, WorkerStats, WorkerTotals};
pub use hist::{PauseHist, BUCKETS};

/// The closed set of event/byte counters.
///
/// A closed enum (rather than string-keyed registration) keeps the hot
/// path at one array index per increment and makes the manifest schema a
/// fixed, diffable vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Live VM executions (one per trace-store miss or store-less pass).
    VmRuns,
    /// Heap allocations the VM performed.
    VmAllocs,
    /// Allocation requests that triggered a garbage collection.
    VmGcTriggers,
    /// Minor (nursery) collections.
    GcMinorCollections,
    /// Major (full-heap) collections.
    GcMajorCollections,
    /// Bytes the collectors copied (evacuation traffic).
    GcBytesCopied,
    /// Bytes promoted from the nursery to the old generation.
    GcBytesPromoted,
    /// Bytes of dead memory reclaimed by sweeping (non-moving collectors).
    GcBytesSwept,
    /// Free lines recovered by mark-region reclamation.
    GcLinesReclaimed,
    /// Encoded bytes accepted into the trace store.
    StoreRecordedBytes,
    /// Events accepted into the trace store.
    StoreRecordedEvents,
    /// Trace captures dropped because the store was over budget.
    StoreCapturesDropped,
    /// Scenarios the trace store evicted (LRU) to make room.
    StoreEvictions,
    /// Heap bytes freed by trace-store evictions.
    StoreBytesEvicted,
    /// Captures the trace store wrote through to spill segment files.
    StoreSpills,
    /// Scenarios re-materialized from spill files instead of re-running
    /// the VM.
    StoreSpillLoads,
    /// Store acquires that coalesced onto an in-flight recording of the
    /// same scenario (single-flight dedupe).
    StoreCoalesced,
    /// Jobs the engine's crews ran, one per crew thread.
    SchedPackets,
    /// `--jobs` requests clamped down to the machine's available parallelism.
    JobsClamped,
    /// `(configuration, event)` cells the grid kernel simulated: every
    /// event times every lane, the grids' logical work.
    GridCellsSimulated,
    /// Lane steps the grid kernel ran: every lane times every event its
    /// repeat filter kept, at most [`Counter::GridCellsSimulated`].
    GridLaneSteps,
    /// Sample windows committed by timeline instruments.
    TimelineWindows,
    /// Collection markers committed by timeline instruments.
    TimelineCollections,
    /// Timestamped span records captured for trace export.
    TraceSpans,
    /// Span records dropped because a shard hit its capture cap.
    TraceSpansDropped,
    /// Warnings emitted through [`Telemetry::warn`].
    Warnings,
}

impl Counter {
    /// Every counter, in manifest order.
    pub const ALL: [Counter; 26] = [
        Counter::VmRuns,
        Counter::VmAllocs,
        Counter::VmGcTriggers,
        Counter::GcMinorCollections,
        Counter::GcMajorCollections,
        Counter::GcBytesCopied,
        Counter::GcBytesPromoted,
        Counter::GcBytesSwept,
        Counter::GcLinesReclaimed,
        Counter::StoreRecordedBytes,
        Counter::StoreRecordedEvents,
        Counter::StoreCapturesDropped,
        Counter::StoreEvictions,
        Counter::StoreBytesEvicted,
        Counter::StoreSpills,
        Counter::StoreSpillLoads,
        Counter::StoreCoalesced,
        Counter::SchedPackets,
        Counter::JobsClamped,
        Counter::GridCellsSimulated,
        Counter::GridLaneSteps,
        Counter::TimelineWindows,
        Counter::TimelineCollections,
        Counter::TraceSpans,
        Counter::TraceSpansDropped,
        Counter::Warnings,
    ];

    /// Stable snake-case name used in the manifest.
    pub fn name(self) -> &'static str {
        match self {
            Counter::VmRuns => "vm_runs",
            Counter::VmAllocs => "vm_allocs",
            Counter::VmGcTriggers => "vm_gc_triggers",
            Counter::GcMinorCollections => "gc_minor_collections",
            Counter::GcMajorCollections => "gc_major_collections",
            Counter::GcBytesCopied => "gc_bytes_copied",
            Counter::GcBytesPromoted => "gc_bytes_promoted",
            Counter::GcBytesSwept => "gc_bytes_swept",
            Counter::GcLinesReclaimed => "gc_lines_reclaimed",
            Counter::StoreRecordedBytes => "store_recorded_bytes",
            Counter::StoreRecordedEvents => "store_recorded_events",
            Counter::StoreCapturesDropped => "store_captures_dropped",
            Counter::StoreEvictions => "store_evictions",
            Counter::StoreBytesEvicted => "store_bytes_evicted",
            Counter::StoreSpills => "store_spills",
            Counter::StoreSpillLoads => "store_spill_loads",
            Counter::StoreCoalesced => "store_coalesced",
            Counter::SchedPackets => "sched_packets",
            Counter::JobsClamped => "jobs_clamped",
            Counter::GridCellsSimulated => "grid_cells_simulated",
            Counter::GridLaneSteps => "grid_lane_steps",
            Counter::TimelineWindows => "timeline_windows",
            Counter::TimelineCollections => "timeline_collections",
            Counter::TraceSpans => "trace_spans",
            Counter::TraceSpansDropped => "trace_spans_dropped",
            Counter::Warnings => "warnings",
        }
    }
}

const N_COUNTERS: usize = Counter::ALL.len();

/// Accumulated measurements for one named phase.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PhaseStats {
    /// Spans recorded.
    pub count: u64,
    /// Total wall time across spans, nanoseconds.
    pub wall_ns: u64,
    /// Total thread CPU time across spans, nanoseconds (0 when the span
    /// did not sample CPU time or the platform cannot report it).
    pub cpu_ns: u64,
    /// Per-span wall-time histogram; its [`PauseHist::count`] always
    /// equals `count`.
    pub hist: PauseHist,
}

impl PhaseStats {
    fn record(&mut self, wall_ns: u64, cpu_ns: u64) {
        self.count += 1;
        self.wall_ns += wall_ns;
        self.cpu_ns += cpu_ns;
        self.hist.record(wall_ns);
    }

    /// Add `other`'s accumulations into `self`.
    pub fn merge(&mut self, other: &PhaseStats) {
        self.count += other.count;
        self.wall_ns += other.wall_ns;
        self.cpu_ns += other.cpu_ns;
        self.hist.merge(&other.hist);
    }
}

/// One timestamped span for trace export: a named interval on one
/// thread's timeline, offset from the owning registry's epoch.
///
/// Spans are only captured on shards attached to a registry built with
/// [`Telemetry::with_spans`]; otherwise every span probe is a
/// thread-local check and a branch, like the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (crew job kind, phase name, `"backpressure"`, ...).
    pub name: &'static str,
    /// Category for trace viewers (`"packet"`, `"phase"`, `"sched"`, ...).
    pub cat: &'static str,
    /// Timeline row: index into [`Snapshot::threads`].
    pub tid: u64,
    /// Start offset from the registry's epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Per-shard span capture cap: a runaway producer drops (and counts)
/// spans instead of exhausting memory.
const SPAN_CAP: usize = 1 << 20;

/// One thread's private accumulation buffer. Plain integers, no atomics:
/// only the owning thread writes, and the guard merges on drop.
#[derive(Debug)]
struct Shard {
    owner: Arc<Telemetry>,
    counters: [u64; N_COUNTERS],
    phases: BTreeMap<&'static str, PhaseStats>,
    tid: u64,
    spans_enabled: bool,
    spans: Vec<SpanRecord>,
    spans_dropped: u64,
}

impl Shard {
    fn fresh(owner: Arc<Telemetry>, tid: u64) -> Shard {
        let spans_enabled = owner.spans_enabled;
        Shard {
            owner,
            counters: [0; N_COUNTERS],
            phases: BTreeMap::new(),
            tid,
            spans_enabled,
            spans: Vec::new(),
            spans_dropped: 0,
        }
    }

    fn push_span(&mut self, name: &'static str, cat: &'static str, start_ns: u64, dur_ns: u64) {
        if !self.spans_enabled {
            return;
        }
        if self.spans.len() >= SPAN_CAP {
            self.spans_dropped += 1;
            return;
        }
        self.spans.push(SpanRecord {
            name,
            cat,
            tid: self.tid,
            start_ns,
            dur_ns,
        });
    }
}

thread_local! {
    static SHARD: RefCell<Option<Shard>> = const { RefCell::new(None) };
}

/// Merged totals, guarded by one mutex that is only taken at shard-merge,
/// engine-report, and snapshot time — never per event.
#[derive(Debug, Default)]
struct Totals {
    counters: [u64; N_COUNTERS],
    phases: BTreeMap<&'static str, PhaseStats>,
    engine: EngineTotals,
    spans: Vec<SpanRecord>,
}

impl Totals {
    fn merge_shard(&mut self, shard: &mut Shard) {
        for (a, b) in self.counters.iter_mut().zip(&shard.counters) {
            *a += b;
        }
        for (name, stats) in &shard.phases {
            self.phases.entry(name).or_default().merge(stats);
        }
        let spans = std::mem::take(&mut shard.spans);
        self.counters[Counter::TraceSpans as usize] += spans.len() as u64;
        self.counters[Counter::TraceSpansDropped as usize] += shard.spans_dropped;
        self.spans.extend(spans);
    }
}

/// A registry of counters, phase timers, and engine reports for one run.
///
/// Create one per run (`Arc<Telemetry>`), [`attach`](Telemetry::attach) it
/// on every thread that executes instrumented code, and
/// [`snapshot`](Telemetry::snapshot) at the end. Threads that never attach
/// contribute nothing and cost nothing.
#[derive(Debug)]
pub struct Telemetry {
    totals: Mutex<Totals>,
    threads: Mutex<Vec<String>>,
    epoch: Instant,
    spans_enabled: bool,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry {
            totals: Mutex::default(),
            threads: Mutex::default(),
            epoch: Instant::now(),
            spans_enabled: false,
        }
    }
}

impl Telemetry {
    /// An empty registry.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// An empty registry with timestamped span capture enabled: phase
    /// spans, crew jobs and a live pass's backpressure waits additionally
    /// record [`SpanRecord`]s for trace export.
    pub fn with_spans() -> Telemetry {
        Telemetry {
            spans_enabled: true,
            ..Telemetry::default()
        }
    }

    /// True if this registry captures span records.
    pub fn spans_enabled(&self) -> bool {
        self.spans_enabled
    }

    /// The instant all span timestamps are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Stable timeline-row id for a thread name. The same name always
    /// maps to the same id within one registry, so successive crews reuse
    /// their workers' rows in the exported trace.
    fn tid_for(&self, name: &str) -> u64 {
        let mut threads = self.threads.lock().expect("telemetry threads poisoned");
        if let Some(i) = threads.iter().position(|n| n == name) {
            i as u64
        } else {
            threads.push(name.to_string());
            (threads.len() - 1) as u64
        }
    }

    /// Install a fresh probe shard on the current thread, returning a
    /// guard that merges it into this registry when dropped.
    ///
    /// Attaches nest: the new shard shadows any previously attached one
    /// (even from a different registry — the test harness runs telemetry
    /// tests concurrently), and the guard restores it on drop. Guards must
    /// drop in reverse attach order, which scoping enforces naturally.
    pub fn attach(self: &Arc<Self>) -> ShardGuard {
        self.attach_named("main")
    }

    /// As [`attach`](Telemetry::attach), placing the shard's spans on the
    /// timeline row named `name` (e.g. `"worker-3"`).
    pub fn attach_named(self: &Arc<Self>, name: &str) -> ShardGuard {
        let tid = self.tid_for(name);
        let prev = SHARD.with(|s| s.replace(Some(Shard::fresh(Arc::clone(self), tid))));
        ShardGuard { prev }
    }

    /// Add `n` to a counter directly, without a thread-local shard. For
    /// cold paths only (the probe functions are the hot-path interface).
    pub fn count(&self, counter: Counter, n: u64) {
        self.lock().counters[counter as usize] += n;
    }

    /// Emit a one-line warning to stderr and count it.
    pub fn warn(&self, msg: &str) {
        eprintln!("warning: {msg}");
        self.count(Counter::Warnings, 1);
    }

    /// Fold one engine run's report into the totals.
    pub fn record_engine(&self, report: &EngineReport) {
        self.lock().engine.absorb(report);
    }

    /// A copy of everything merged so far. Shards still attached to live
    /// threads are not included — snapshot after joining workers and
    /// dropping guards.
    pub fn snapshot(&self) -> Snapshot {
        let threads = self
            .threads
            .lock()
            .expect("telemetry threads poisoned")
            .clone();
        let totals = self.lock();
        let mut spans = totals.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.tid));
        Snapshot {
            counters: totals.counters,
            phases: totals.phases.iter().map(|(&k, v)| (k, v.clone())).collect(),
            engine: totals.engine.clone(),
            spans,
            threads,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Totals> {
        self.totals.lock().expect("telemetry totals poisoned")
    }
}

/// Restores the previously attached shard (if any) and merges the one it
/// shadowed into its registry.
#[derive(Debug)]
pub struct ShardGuard {
    prev: Option<Shard>,
}

impl Drop for ShardGuard {
    fn drop(&mut self) {
        let mine = SHARD.with(|s| s.replace(self.prev.take()));
        if let Some(mut shard) = mine {
            let owner = Arc::clone(&shard.owner);
            owner.lock().merge_shard(&mut shard);
        }
    }
}

/// A point-in-time copy of a [`Telemetry`]'s merged totals.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    counters: [u64; N_COUNTERS],
    /// Per-phase accumulations, sorted by phase name.
    pub phases: Vec<(&'static str, PhaseStats)>,
    /// Aggregated engine observability.
    pub engine: EngineTotals,
    /// Captured span records, sorted by start time (empty unless the
    /// registry was built with [`Telemetry::with_spans`]).
    pub spans: Vec<SpanRecord>,
    /// Thread names, indexed by [`SpanRecord::tid`].
    pub threads: Vec<String>,
}

impl Snapshot {
    /// A counter's merged value.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Every counter with its merged value, in [`Counter::ALL`] order.
    pub fn counters(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(|&c| (c, self.counters[c as usize]))
    }

    /// A phase's accumulation, if any span was recorded.
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|(n, _)| *n == name).map(|(_, s)| s)
    }
}

/// The hot-path increment macro: `probe!(Counter::VmAllocs)` adds 1,
/// `probe!(Counter::GcBytesCopied, n)` adds `n`. Expands to a call into
/// [`probe::count`], which is a thread-local check when no shard is
/// attached.
#[macro_export]
macro_rules! probe {
    ($counter:expr) => {
        $crate::probe::count($counter, 1)
    };
    ($counter:expr, $n:expr) => {
        $crate::probe::count($counter, $n)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe;

    #[test]
    fn counters_merge_at_guard_drop() {
        let t = Arc::new(Telemetry::new());
        {
            let _g = t.attach();
            probe!(Counter::VmAllocs);
            probe!(Counter::VmAllocs, 4);
            probe!(Counter::GcBytesCopied, 100);
            // Nothing merged while the guard lives.
            assert_eq!(t.snapshot().counter(Counter::VmAllocs), 0);
        }
        let s = t.snapshot();
        assert_eq!(s.counter(Counter::VmAllocs), 5);
        assert_eq!(s.counter(Counter::GcBytesCopied), 100);
        assert_eq!(s.counter(Counter::VmRuns), 0);
    }

    #[test]
    fn probes_without_a_shard_are_dropped() {
        probe!(Counter::VmAllocs, 1000);
        let t = Arc::new(Telemetry::new());
        assert_eq!(t.snapshot().counter(Counter::VmAllocs), 0);
    }

    #[test]
    fn nested_attach_shadows_and_restores() {
        let outer = Arc::new(Telemetry::new());
        let inner = Arc::new(Telemetry::new());
        let g1 = outer.attach();
        probe!(Counter::VmRuns);
        {
            let _g2 = inner.attach();
            probe!(Counter::VmRuns, 10);
        }
        probe!(Counter::VmRuns);
        drop(g1);
        assert_eq!(outer.snapshot().counter(Counter::VmRuns), 2);
        assert_eq!(inner.snapshot().counter(Counter::VmRuns), 10);
    }

    #[test]
    fn phases_accumulate_wall_time_and_histogram() {
        let t = Arc::new(Telemetry::new());
        {
            let _g = t.attach();
            for _ in 0..3 {
                let span = probe::phase("unit_test_phase");
                std::hint::black_box((0..1000u64).sum::<u64>());
                drop(span);
            }
        }
        let s = t.snapshot();
        let p = s.phase("unit_test_phase").expect("phase recorded");
        assert_eq!(p.count, 3);
        assert!(p.wall_ns > 0);
        assert_eq!(p.hist.count(), 3, "histogram sum equals span count");
        assert!(s.phase("never_entered").is_none());
    }

    #[test]
    fn cpu_phase_reports_plausible_cpu_time() {
        let t = Arc::new(Telemetry::new());
        {
            let _g = t.attach();
            let span = probe::phase_cpu("unit_test_cpu_phase");
            std::hint::black_box((0..2_000_000u64).sum::<u64>());
            drop(span);
        }
        let s = t.snapshot();
        let p = s.phase("unit_test_cpu_phase").expect("phase recorded");
        assert_eq!(p.count, 1);
        // CPU time is best-effort (0 where /proc is unavailable), but
        // when reported it cannot exceed wall by more than clock fuzz.
        if p.cpu_ns > 0 {
            assert!(p.cpu_ns <= p.wall_ns.saturating_mul(2).max(1_000_000));
        }
    }

    #[test]
    fn parallel_shards_merge_without_loss() {
        let t = Arc::new(Telemetry::new());
        let threads = 4;
        let per_thread = 1000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    let _g = t.attach();
                    for _ in 0..per_thread {
                        probe!(Counter::VmAllocs);
                    }
                });
            }
        });
        assert_eq!(
            t.snapshot().counter(Counter::VmAllocs),
            threads as u64 * per_thread
        );
    }

    #[test]
    fn direct_count_and_warn() {
        let t = Arc::new(Telemetry::new());
        t.count(Counter::StoreCapturesDropped, 2);
        t.warn("unit-test warning, ignore");
        let s = t.snapshot();
        assert_eq!(s.counter(Counter::StoreCapturesDropped), 2);
        assert_eq!(s.counter(Counter::Warnings), 1);
    }

    #[test]
    fn spans_capture_only_when_enabled() {
        let plain = Arc::new(Telemetry::new());
        {
            let _g = plain.attach();
            probe::span("backpressure", "sched", std::time::Instant::now());
            drop(probe::phase("unit_span_phase"));
        }
        let s = plain.snapshot();
        assert!(s.spans.is_empty());
        assert_eq!(s.counter(Counter::TraceSpans), 0);

        let traced = Arc::new(Telemetry::with_spans());
        assert!(traced.spans_enabled());
        {
            let _g = traced.attach_named("worker-0");
            let t0 = std::time::Instant::now();
            std::hint::black_box((0..1000u64).sum::<u64>());
            probe::span("replay_shard", "packet", t0);
            probe::span("backpressure", "sched", std::time::Instant::now());
        }
        {
            let _g = traced.attach_named("worker-0");
            probe::span("backpressure", "sched", std::time::Instant::now());
        }
        {
            let _g = traced.attach_named("main");
            drop(probe::phase("unit_span_phase"));
        }
        let s = traced.snapshot();
        assert_eq!(s.counter(Counter::TraceSpans), 4);
        assert_eq!(s.counter(Counter::TraceSpansDropped), 0);
        assert_eq!(s.spans.len(), 4);
        // Same thread name reuses its timeline row across attaches.
        assert_eq!(s.threads, ["worker-0", "main"]);
        let packet = s.spans.iter().find(|r| r.cat == "packet").unwrap();
        assert_eq!((packet.name, packet.tid), ("replay_shard", 0));
        assert!(packet.dur_ns > 0);
        let phase = s.spans.iter().find(|r| r.cat == "phase").unwrap();
        assert_eq!((phase.name, phase.tid), ("unit_span_phase", 1));
        assert!(s.spans.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    }

    #[test]
    fn counter_names_are_unique_and_ordered() {
        let names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(Counter::ALL[0] as usize, 0);
    }
}
