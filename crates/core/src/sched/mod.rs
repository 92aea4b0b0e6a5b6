//! The work-packet scheduler: typed packets in prioritized buckets,
//! drained by a crew of workers with per-worker deques, work-stealing,
//! and optional CPU affinity.
//!
//! Modeled on mmtk-core's `scheduler` module: every unit of engine work —
//! a VM execution, a trace recording, a replay shard, an instrument-cell
//! drain, a golden-check diff — is a [`PacketKind`]-typed packet placed in
//! a [`Stage`] bucket or pushed onto a specific worker's deque. Workers
//! prefer their own deque, then drain the shared buckets in stage-priority
//! order (`Prepare → Execute → Simulate → Finalize`), then steal from
//! sibling deques; claims from shared buckets and sibling deques count as
//! steals, so the per-worker [`WorkerStats`] that flow into the telemetry
//! manifest distinguish static placement from dynamic balancing.
//!
//! The legacy `ParallelFanout`'s two schedules survive as *bucket
//! policies* of [`fanout::PacketFanout`] rather than a parallel code path:
//! round-robin pins each sink shard's drain packets to a preferred worker
//! deque, work-stealing publishes them to the shared `Simulate` bucket.
//!
//! # Crews, not a resident pool
//!
//! The workspace forbids `unsafe`, so worker threads cannot outlive the
//! data their packets borrow. A [`Scheduler`] is therefore a cheap,
//! cloneable *policy* handle; each operation spins up a scoped **crew**
//! ([`Scheduler::run`]) whose workers live exactly as long as the
//! operation. Packets may borrow anything that outlives the `run` call.
//!
//! # Affinity
//!
//! When [`EngineConfig::affinity`] is set, each crew worker tries to pin
//! itself to core `i % available_parallelism()`. Pinning is strictly
//! best-effort: on a 1-core container, under a restrictive sandbox, or
//! when the pinning utility is missing, the attempt degrades to a no-op
//! and is reported as a fallback in the [`CrewReport`] — never an error.

mod affinity;
pub mod fanout;

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cachegc_telemetry::{probe, Telemetry, WorkerStats};

pub use fanout::PacketFanout;

pub(crate) fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Default events buffered before a chunk is broadcast to the workers.
///
/// 4096 events ≈ 48 KB per chunk: large enough to amortize queue
/// synchronization to well under a nanosecond per event, small enough to
/// stay resident in L1/L2 while each worker replays it.
pub const DEFAULT_CHUNK_EVENTS: usize = 4096;

/// How the engine assigns sink shards to workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Static sharding: sink `i` lives on worker `i % jobs` for the whole
    /// run. Lowest overhead; best when per-sink cost is uniform.
    #[default]
    RoundRobin,
    /// Dynamic load balancing: idle workers claim whichever sink shard has
    /// unconsumed chunks. Best when per-sink cost is heterogeneous.
    WorkStealing,
}

impl Schedule {
    /// Short name used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Schedule::RoundRobin => "round-robin",
            Schedule::WorkStealing => "work-stealing",
        }
    }

    /// Parse a CLI spelling (`round-robin`/`rr`, `work-stealing`/`steal`/`ws`).
    pub fn parse(s: &str) -> Option<Schedule> {
        match s {
            "round-robin" | "rr" => Some(Schedule::RoundRobin),
            "work-stealing" | "steal" | "ws" => Some(Schedule::WorkStealing),
            _ => None,
        }
    }
}

/// Configuration of the packet-scheduled experiment engine: worker count,
/// chunk granularity, bucket policy, and affinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads. `1` with [`Schedule::RoundRobin`] is the sequential
    /// oracle configuration drivers may special-case.
    pub jobs: usize,
    /// Events buffered per broadcast chunk.
    pub chunk_events: usize,
    /// Worker scheduling strategy.
    pub schedule: Schedule,
    /// Pin crew workers to CPU cores (best-effort; no-op where the
    /// platform refuses).
    pub affinity: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            jobs: 1,
            chunk_events: DEFAULT_CHUNK_EVENTS,
            schedule: Schedule::RoundRobin,
            affinity: false,
        }
    }
}

impl EngineConfig {
    /// Round-robin over `jobs` workers with the default chunk size.
    pub fn jobs(jobs: usize) -> Self {
        EngineConfig {
            jobs,
            ..EngineConfig::default()
        }
    }

    /// Same configuration with a different chunk size.
    pub fn with_chunk(mut self, chunk_events: usize) -> Self {
        self.chunk_events = chunk_events;
        self
    }

    /// Same configuration with a different schedule.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Same configuration with affinity pinning toggled.
    pub fn with_affinity(mut self, affinity: bool) -> Self {
        self.affinity = affinity;
        self
    }

    /// True if this configuration buys nothing over the sequential path,
    /// so drivers should take their single-threaded oracle branch.
    pub fn is_sequential(&self) -> bool {
        self.jobs <= 1 && self.schedule == Schedule::RoundRobin
    }
}

/// The prioritized bucket a packet is scheduled under. Workers drain
/// buckets in declaration order: all available `Prepare` work is claimed
/// before `Execute`, and so on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Stage {
    /// Setup work that gates everything else (building shards, opening
    /// stores).
    Prepare,
    /// Producing work: VM executions and recordings.
    Execute,
    /// Consuming work: replaying the access stream into simulators and
    /// instruments.
    Simulate,
    /// Teardown work: result assembly, diffs, reporting.
    Finalize,
}

impl Stage {
    /// Number of stages (bucket array width).
    pub const COUNT: usize = 4;

    /// Every stage in drain-priority order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Prepare,
        Stage::Execute,
        Stage::Simulate,
        Stage::Finalize,
    ];

    /// Stable name used in docs and debug output.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Prepare => "prepare",
            Stage::Execute => "execute",
            Stage::Simulate => "simulate",
            Stage::Finalize => "finalize",
        }
    }
}

/// What a work packet advances. Purely descriptive — the scheduler treats
/// every packet the same — but the typed vocabulary keeps submission sites
/// honest about what they put on the queue and gives debug output a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A full live VM execution (a control or collected pass).
    VmExecute,
    /// Sink work performed while a pass is being recorded into the trace
    /// store.
    Record,
    /// Replaying a shard of a stored trace into its sinks.
    ReplayShard,
    /// Draining published chunks into a shard of instrument/cache sinks.
    SinkDrain,
    /// A generic driver task (one item of a `Runner::map`).
    Task,
    /// Diffing one produced table against its golden counterpart.
    GoldenDiff,
    /// One batched decode pass of a stored trace driving a `GridCache`
    /// shard of a direct-mapped configuration grid.
    GridSimulate,
}

impl PacketKind {
    /// Stable name used in docs and debug output.
    pub fn name(self) -> &'static str {
        match self {
            PacketKind::VmExecute => "vm_execute",
            PacketKind::Record => "record",
            PacketKind::ReplayShard => "replay_shard",
            PacketKind::SinkDrain => "sink_drain",
            PacketKind::Task => "task",
            PacketKind::GoldenDiff => "golden_diff",
            PacketKind::GridSimulate => "grid_simulate",
        }
    }
}

/// End-of-crew accounting: per-worker packet statistics plus affinity
/// outcomes. Drivers fold this into the telemetry counters and the
/// engine block of the run manifest.
#[derive(Debug, Clone, Default)]
pub struct CrewReport {
    /// Per-worker events/chunks/steals/idle, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// Packets executed by the crew in total.
    pub packets: u64,
    /// Workers successfully pinned to a core.
    pub pinned: usize,
    /// Workers whose pin attempt degraded to an unpinned no-op.
    pub affinity_fallbacks: usize,
}

/// A boxed work packet: the typed kind plus the closure that performs it.
struct Packet<'env> {
    /// Names the packet's span in the scheduler trace; the queue itself
    /// treats kinds uniformly.
    kind: PacketKind,
    job: Box<dyn FnOnce(&mut WorkerStats) + Send + 'env>,
}

/// Everything a crew's workers coordinate through, under one lock.
struct Queues<'env> {
    /// Per-worker deques; `submit` with a preferred worker lands here.
    deques: Vec<VecDeque<Packet<'env>>>,
    /// Shared stage buckets, drained in [`Stage`] priority order.
    buckets: [VecDeque<Packet<'env>>; Stage::COUNT],
    /// Packets submitted and not yet fully executed (stats merged).
    pending: usize,
    /// No further submissions; workers exit once the queues run dry.
    closed: bool,
    /// Packets executed so far.
    packets_done: u64,
    /// Per-worker accounting, merged after each packet.
    workers: Vec<WorkerStats>,
    pinned: usize,
    affinity_fallbacks: usize,
}

/// A scoped worker pool executing packets for one operation. Created by
/// [`Scheduler::run`]; submission is cheap (one lock, one notify).
pub struct Crew<'env> {
    q: Mutex<Queues<'env>>,
    work: Condvar,
}

impl<'env> Crew<'env> {
    fn new(jobs: usize) -> Crew<'env> {
        Crew {
            q: Mutex::new(Queues {
                deques: (0..jobs).map(|_| VecDeque::new()).collect(),
                buckets: [const { VecDeque::new() }; Stage::COUNT],
                pending: 0,
                closed: false,
                packets_done: 0,
                workers: vec![WorkerStats::default(); jobs],
                pinned: 0,
                affinity_fallbacks: 0,
            }),
            work: Condvar::new(),
        }
    }

    /// Number of workers in this crew.
    pub fn jobs(&self) -> usize {
        self.q.lock().expect("crew queue poisoned").deques.len()
    }

    /// Submit a packet. With `preferred` it lands on that worker's deque
    /// (modulo the crew width); otherwise it goes to the shared `stage`
    /// bucket, where any idle worker may claim it (counted as a steal).
    pub fn submit(
        &self,
        stage: Stage,
        kind: PacketKind,
        preferred: Option<usize>,
        job: impl FnOnce(&mut WorkerStats) + Send + 'env,
    ) {
        let packet = Packet {
            kind,
            job: Box::new(job),
        };
        let mut q = self.q.lock().expect("crew queue poisoned");
        assert!(!q.closed, "submit after crew close");
        match preferred {
            Some(i) => {
                let i = i % q.deques.len();
                q.deques[i].push_back(packet);
            }
            None => q.buckets[stage as usize].push_back(packet),
        }
        q.pending += 1;
        drop(q);
        self.work.notify_all();
    }

    /// Block until every submitted packet has executed and merged its
    /// statistics. Must be called from outside the crew (the coordinator);
    /// a packet waiting on its own crew would deadlock.
    pub fn wait_idle(&self) {
        let mut q = self.q.lock().expect("crew queue poisoned");
        while q.pending > 0 {
            q = self.work.wait(q).expect("crew queue poisoned");
        }
    }

    /// Snapshot of per-worker statistics (merged packets only).
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.q.lock().expect("crew queue poisoned").workers.clone()
    }

    fn close(&self) {
        self.q.lock().expect("crew queue poisoned").closed = true;
        self.work.notify_all();
    }

    /// Claim the next packet for worker `i`: own deque first (FIFO), then
    /// the stage buckets in priority order, then steal the *newest* packet
    /// from the longest sibling deque. Returns the packet and whether the
    /// claim counts as a steal.
    fn take(q: &mut Queues<'env>, i: usize) -> Option<(Packet<'env>, bool)> {
        if let Some(p) = q.deques[i].pop_front() {
            return Some((p, false));
        }
        for bucket in &mut q.buckets {
            if let Some(p) = bucket.pop_front() {
                return Some((p, true));
            }
        }
        let victim = (0..q.deques.len())
            .filter(|&j| j != i)
            .max_by_key(|&j| q.deques[j].len())?;
        q.deques[victim].pop_back().map(|p| (p, true))
    }

    fn worker_loop(&self, i: usize, sched: &Scheduler) {
        // Give the worker its own telemetry shard (and trace-timeline row)
        // for the crew's lifetime; successive crews reuse the row by name.
        let _shard = sched
            .telemetry
            .as_ref()
            .map(|t| t.attach_named(&format!("worker-{i}")));
        if sched.affinity {
            let outcome = affinity::pin_current_thread(i, &sched.affinity_cmd);
            let mut q = self.q.lock().expect("crew queue poisoned");
            match outcome {
                Ok(()) => q.pinned += 1,
                Err(_) => q.affinity_fallbacks += 1,
            }
        }
        let mut q = self.q.lock().expect("crew queue poisoned");
        loop {
            if let Some((packet, stolen)) = Self::take(&mut q, i) {
                drop(q);
                let mut stats = WorkerStats::default();
                if stolen {
                    stats.steals += 1;
                    probe::instant("steal", "sched");
                }
                let t0 = probe::spans_active().then(Instant::now);
                (packet.job)(&mut stats);
                if let Some(t0) = t0 {
                    probe::span(packet.kind.name(), "packet", t0);
                }
                q = self.q.lock().expect("crew queue poisoned");
                q.workers[i].merge(&stats);
                q.pending -= 1;
                q.packets_done += 1;
                if q.pending == 0 {
                    // Wake both idle siblings and any `wait_idle` caller.
                    self.work.notify_all();
                }
                continue;
            }
            if q.closed {
                return;
            }
            let t0 = Instant::now();
            q = self.work.wait(q).expect("crew queue poisoned");
            q.workers[i].idle_ns += dur_ns(t0.elapsed());
            if probe::spans_active() {
                probe::span("idle", "sched", t0);
            }
        }
    }

    fn report(&self) -> CrewReport {
        let q = self.q.lock().expect("crew queue poisoned");
        CrewReport {
            workers: q.workers.clone(),
            packets: q.packets_done,
            pinned: q.pinned,
            affinity_fallbacks: q.affinity_fallbacks,
        }
    }
}

/// The scheduler handle: policy (affinity and how to achieve it), no
/// threads. Cloning is cheap; every operation materializes its own scoped
/// crew via [`Scheduler::run`].
#[derive(Debug, Clone)]
pub struct Scheduler {
    affinity: bool,
    /// External pinning utility, injectable so tests can force the
    /// degraded path with a command that cannot exist.
    affinity_cmd: std::sync::Arc<str>,
    /// When present, crew workers attach per-worker shards so counters,
    /// phases, and (if enabled) trace spans are attributed to
    /// `worker-{i}` timeline rows instead of vanishing unattached.
    telemetry: Option<Arc<Telemetry>>,
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new(false)
    }
}

impl Scheduler {
    /// A scheduler with affinity pinning on or off.
    pub fn new(affinity: bool) -> Scheduler {
        Scheduler {
            affinity,
            affinity_cmd: std::sync::Arc::from("taskset"),
            telemetry: None,
        }
    }

    /// Same scheduler with affinity toggled.
    pub fn with_affinity(mut self, affinity: bool) -> Scheduler {
        self.affinity = affinity;
        self
    }

    /// Same scheduler using `cmd` as the pinning utility (test hook: a
    /// nonexistent command exercises the graceful-fallback path).
    pub fn with_affinity_command(mut self, cmd: &str) -> Scheduler {
        self.affinity_cmd = std::sync::Arc::from(cmd);
        self
    }

    /// True if crews spun from this scheduler will attempt pinning.
    pub fn affinity(&self) -> bool {
        self.affinity
    }

    /// Same scheduler with crew workers attached to `telemetry`. Each
    /// worker holds a `worker-{i}` shard for the crew's lifetime, so
    /// packet/idle/steal spans land on stable per-worker timeline rows.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Scheduler {
        self.telemetry = Some(telemetry);
        self
    }

    /// Run one operation against a crew of `jobs` workers. `f` executes on
    /// the calling thread (the coordinator) and may submit packets that
    /// borrow anything outliving this call; the crew's workers drain them
    /// concurrently. Returns `f`'s result plus the crew's accounting once
    /// every worker has exited.
    pub fn run<'env, R>(&self, jobs: usize, f: impl FnOnce(&Crew<'env>) -> R) -> (R, CrewReport) {
        let jobs = jobs.max(1);
        let crew = Crew::new(jobs);
        let out = std::thread::scope(|s| {
            for i in 0..jobs {
                let crew = &crew;
                s.spawn(move || crew.worker_loop(i, self));
            }
            let out = f(&crew);
            crew.close();
            out
        });
        let report = crew.report();
        (out, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn every_packet_runs_and_is_counted() {
        let sched = Scheduler::new(false);
        let hits = AtomicUsize::new(0);
        let ((), report) = sched.run(3, |crew| {
            for i in 0..64 {
                let hits = &hits;
                crew.submit(Stage::Execute, PacketKind::Task, Some(i), move |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            crew.wait_idle();
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        assert_eq!(report.packets, 64);
        assert_eq!(report.workers.len(), 3);
        assert_eq!(report.pinned, 0);
        assert_eq!(report.affinity_fallbacks, 0);
    }

    #[test]
    fn bucket_packets_drain_in_stage_priority_order() {
        // One worker, packets submitted while it is blocked on a gate
        // packet: the finalize packet must run after prepare/execute even
        // though it was submitted first.
        let sched = Scheduler::new(false);
        let order = Mutex::new(Vec::new());
        let ((), _) = sched.run(1, |crew| {
            let gate = std::sync::Arc::new((Mutex::new(false), Condvar::new()));
            let g = gate.clone();
            crew.submit(Stage::Prepare, PacketKind::Task, None, move |_| {
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            });
            for (stage, tag) in [
                (Stage::Finalize, "finalize"),
                (Stage::Simulate, "simulate"),
                (Stage::Execute, "execute"),
                (Stage::Prepare, "prepare"),
            ] {
                let order = &order;
                crew.submit(stage, PacketKind::Task, None, move |_| {
                    order.lock().unwrap().push(tag);
                });
            }
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
            crew.wait_idle();
        });
        assert_eq!(
            *order.lock().unwrap(),
            vec!["prepare", "execute", "simulate", "finalize"]
        );
    }

    #[test]
    fn idle_workers_steal_from_loaded_deques() {
        // All packets pinned to worker 0's deque; with 4 workers the
        // others must steal to finish, and steals must be recorded.
        let sched = Scheduler::new(false);
        let ((), report) = sched.run(4, |crew| {
            for _ in 0..128 {
                crew.submit(Stage::Simulate, PacketKind::SinkDrain, Some(0), move |_| {
                    std::hint::black_box((0..512).sum::<u64>());
                });
            }
            crew.wait_idle();
        });
        assert_eq!(report.packets, 128);
        let steals: u64 = report.workers.iter().map(|w| w.steals).sum();
        // Worker 0 never steals from itself; any packet a sibling claimed
        // counts. The exact split is timing-dependent but the total is
        // bounded by the packet count.
        assert!(steals <= 128);
    }

    #[test]
    fn affinity_with_a_missing_utility_degrades_to_a_noop() {
        let sched = Scheduler::new(true).with_affinity_command("cachegc-no-such-pinner");
        let hits = AtomicUsize::new(0);
        let ((), report) = sched.run(2, |crew| {
            for _ in 0..8 {
                let hits = &hits;
                crew.submit(Stage::Execute, PacketKind::Task, None, move |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            crew.wait_idle();
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8, "work still ran");
        assert_eq!(report.pinned + report.affinity_fallbacks, 2);
        assert_eq!(report.pinned, 0, "bogus utility cannot pin");
        assert_eq!(report.affinity_fallbacks, 2);
    }

    #[test]
    fn schedule_and_engine_config_round_trip() {
        assert_eq!(Schedule::parse("rr"), Some(Schedule::RoundRobin));
        assert_eq!(Schedule::parse("ws"), Some(Schedule::WorkStealing));
        assert_eq!(Schedule::parse("steal"), Some(Schedule::WorkStealing));
        assert_eq!(Schedule::parse("nope"), None);
        assert_eq!(Schedule::WorkStealing.name(), "work-stealing");
        let e = EngineConfig::jobs(4)
            .with_schedule(Schedule::WorkStealing)
            .with_chunk(64)
            .with_affinity(true);
        assert!(!e.is_sequential());
        assert!(e.affinity);
        assert_eq!(e.chunk_events, 64);
        assert!(EngineConfig::default().is_sequential());
        assert!(!EngineConfig::jobs(1)
            .with_schedule(Schedule::WorkStealing)
            .is_sequential());
    }

    #[cfg(not(cachegc_probes_off))]
    #[test]
    fn crews_record_packet_spans_on_worker_rows() {
        let tele = Arc::new(Telemetry::with_spans());
        let sched = Scheduler::new(false).with_telemetry(Arc::clone(&tele));
        let ((), report) = sched.run(2, |crew| {
            for i in 0..8 {
                crew.submit(Stage::Execute, PacketKind::Task, Some(i), move |_| {
                    std::hint::black_box((0..256).sum::<u64>());
                });
            }
            crew.wait_idle();
        });
        assert_eq!(report.packets, 8);
        let snap = tele.snapshot();
        let packet_spans: Vec<_> = snap.spans.iter().filter(|s| s.cat == "packet").collect();
        assert_eq!(packet_spans.len(), 8);
        assert!(packet_spans.iter().all(|s| s.name == "task"));
        assert!(snap
            .spans
            .iter()
            .all(|s| (s.tid as usize) < snap.threads.len()));
        assert!(snap.threads.iter().any(|t| t == "worker-0"));
        assert!(snap.threads.iter().any(|t| t == "worker-1"));
    }

    #[test]
    fn stage_vocabulary_is_total() {
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
            assert!(!s.name().is_empty());
        }
        for k in [
            PacketKind::VmExecute,
            PacketKind::Record,
            PacketKind::ReplayShard,
            PacketKind::SinkDrain,
            PacketKind::Task,
            PacketKind::GoldenDiff,
            PacketKind::GridSimulate,
        ] {
            assert!(!k.name().is_empty());
        }
    }
}
