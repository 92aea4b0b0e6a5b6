//! The work-packet scheduler: typed packets drained by a crew of
//! workers with per-worker deques and work-stealing.
//!
//! Modeled on mmtk-core's `scheduler` module: every unit of engine work —
//! a VM execution, a replay reader, a grid shard, a golden-check diff —
//! is a [`PacketKind`]-typed packet pushed onto a specific worker's deque
//! or onto the crew's shared queue. Workers prefer their own deque, then
//! the shared queue, then steal from sibling deques; claims from the
//! shared queue and sibling deques count as steals, so the per-worker
//! [`WorkerStats`] that flow into the telemetry manifest distinguish
//! static placement from dynamic balancing.
//!
//! Every crew runs packets of one kind, and the engine's crews only
//! replay: a pass whose trace is stored replays it, a live pass replays
//! the segment feed its own recorder fills (see [`crate::Runner`]). The
//! only knob is the worker count, [`EngineConfig::jobs`].
//!
//! # Crews, not a resident pool
//!
//! The workspace forbids `unsafe`, so worker threads cannot outlive the
//! data their packets borrow. A [`Scheduler`] is therefore a cheap,
//! cloneable handle; each operation spins up a scoped **crew**
//! ([`Scheduler::run`]) whose workers live exactly as long as the
//! operation. Packets may borrow anything that outlives the `run` call.
//! A panicking packet does not wedge its crew: the crew finishes its
//! other packets and [`Scheduler::run`] resumes the panic on the caller.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cachegc_telemetry::{probe, Telemetry, WorkerStats};

pub(crate) fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A retired scheduling policy. Crews only replay now and the worker
/// count alone shapes a pass, so nothing reads a `Schedule`; it survives
/// only so that callers of [`EngineConfig::with_schedule`] still build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Formerly static sink sharding.
    RoundRobin,
    /// Formerly per-sink drain packets on a shared bucket.
    WorkStealing,
}

/// Configuration of the packet-scheduled experiment engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads. `1` is the sequential configuration: passes run
    /// inline on the calling thread.
    pub jobs: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { jobs: 1 }
    }
}

impl EngineConfig {
    /// An engine with `jobs` workers.
    pub fn jobs(jobs: usize) -> Self {
        EngineConfig { jobs }
    }

    /// The same configuration: schedules are retired (see [`Schedule`]),
    /// so this changes nothing.
    pub fn with_schedule(self, _schedule: Schedule) -> Self {
        self
    }

    /// True if passes should run inline on the calling thread rather
    /// than on a crew.
    pub fn is_sequential(&self) -> bool {
        self.jobs <= 1
    }
}

/// What a work packet advances. Purely descriptive — the scheduler treats
/// every packet the same — but the typed vocabulary keeps submission sites
/// honest about what they put on the queue and gives debug output a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A full VM pass (a control or collected pass of a comparison).
    VmExecute,
    /// One reader decoding a trace — stored, or a live pass's feed —
    /// into its shard of sinks.
    ReplayShard,
    /// A generic driver task (one item of a `Runner::map`).
    Task,
    /// Diffing one produced table against its golden counterpart.
    GoldenDiff,
    /// One reader's batched decode of a trace — stored, or a live pass's
    /// feed — driving a `GridCache` shard of a direct-mapped grid.
    GridSimulate,
}

impl PacketKind {
    /// Stable name used in docs and debug output.
    pub fn name(self) -> &'static str {
        match self {
            PacketKind::VmExecute => "vm_execute",
            PacketKind::ReplayShard => "replay_shard",
            PacketKind::Task => "task",
            PacketKind::GoldenDiff => "golden_diff",
            PacketKind::GridSimulate => "grid_simulate",
        }
    }
}

/// End-of-crew accounting: per-worker packet statistics. Drivers fold
/// this into the telemetry counters and the engine block of the run
/// manifest.
#[derive(Debug, Clone, Default)]
pub struct CrewReport {
    /// Per-worker events/chunks/steals/idle, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// Packets executed by the crew in total.
    pub packets: u64,
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
    /// The shared queue any idle worker may claim from.
    shared: VecDeque<Packet<'env>>,
    /// Packets submitted and not yet fully executed (stats merged).
    pending: usize,
    /// No further submissions; workers exit once the queues run dry.
    closed: bool,
    /// Packets executed so far.
    packets_done: u64,
    /// Per-worker accounting, merged after each packet.
    workers: Vec<WorkerStats>,
    /// The first packet panic, resumed once the crew has finished.
    panic: Option<Box<dyn Any + Send>>,
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
                shared: VecDeque::new(),
                pending: 0,
                closed: false,
                packets_done: 0,
                workers: vec![WorkerStats::default(); jobs],
                panic: None,
            }),
            work: Condvar::new(),
        }
    }

    /// Submit a packet. With `preferred` it lands on that worker's deque
    /// (modulo the crew width); otherwise it goes to the shared queue,
    /// where any idle worker may claim it (counted as a steal).
    pub fn submit(
        &self,
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
            None => q.shared.push_back(packet),
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

    /// Claim the next packet for worker `i`: own deque first (FIFO), then
    /// the shared queue, then steal the *newest* packet from the longest
    /// sibling deque. Returns the packet and whether the claim counts as
    /// a steal.
    fn take(q: &mut Queues<'env>, i: usize) -> Option<(Packet<'env>, bool)> {
        if let Some(p) = q.deques[i].pop_front() {
            return Some((p, false));
        }
        if let Some(p) = q.shared.pop_front() {
            return Some((p, true));
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
                let job = packet.job;
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| job(&mut stats)));
                if let Some(t0) = t0 {
                    probe::span(packet.kind.name(), "packet", t0);
                }
                q = self.q.lock().expect("crew queue poisoned");
                if let Err(payload) = outcome {
                    q.panic.get_or_insert(payload);
                }
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
        }
    }
}

/// Closes a crew when the coordinator leaves [`Scheduler::run`], even by
/// panicking, so its workers exit and the scope can join them.
struct CloseOnExit<'c, 'env>(&'c Crew<'env>);

impl Drop for CloseOnExit<'_, '_> {
    fn drop(&mut self) {
        let mut q = self.0.q.lock().unwrap_or_else(|e| e.into_inner());
        q.closed = true;
        drop(q);
        self.0.work.notify_all();
    }
}

/// The scheduler handle: no threads, just where crew workers report.
/// Cloning is cheap; every operation materializes its own scoped crew
/// via [`Scheduler::run`].
#[derive(Debug, Clone, Default)]
pub struct Scheduler {
    /// When present, crew workers attach per-worker shards so counters,
    /// phases, and (if enabled) trace spans are attributed to
    /// `worker-{i}` timeline rows instead of vanishing unattached.
    telemetry: Option<Arc<Telemetry>>,
}

impl Scheduler {
    /// A scheduler whose crews report nowhere.
    pub fn new() -> Scheduler {
        Scheduler::default()
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
    ///
    /// # Panics
    ///
    /// Resumes the first panic of any packet once the crew has finished.
    pub fn run<'env, R>(&self, jobs: usize, f: impl FnOnce(&Crew<'env>) -> R) -> (R, CrewReport) {
        let jobs = jobs.max(1);
        let crew = Crew::new(jobs);
        let out = std::thread::scope(|s| {
            for i in 0..jobs {
                let crew = &crew;
                s.spawn(move || crew.worker_loop(i, self));
            }
            let _close = CloseOnExit(&crew);
            f(&crew)
        });
        if let Some(payload) = crew.q.lock().expect("crew queue poisoned").panic.take() {
            panic::resume_unwind(payload);
        }
        let report = crew.report();
        (out, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_packet_runs_and_is_counted() {
        let sched = Scheduler::new();
        let hits = AtomicUsize::new(0);
        let ((), report) = sched.run(3, |crew| {
            for i in 0..64 {
                let hits = &hits;
                crew.submit(PacketKind::Task, Some(i), move |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            crew.wait_idle();
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        assert_eq!(report.packets, 64);
        assert_eq!(report.workers.len(), 3);
    }

    #[test]
    fn idle_workers_steal_from_loaded_deques() {
        // All packets pinned to worker 0's deque; with 4 workers the
        // others must steal to finish, and steals must be recorded.
        let sched = Scheduler::new();
        let ((), report) = sched.run(4, |crew| {
            for _ in 0..128 {
                crew.submit(PacketKind::ReplayShard, Some(0), move |_| {
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
    fn shared_queue_packets_count_as_steals() {
        let ((), report) = Scheduler::new().run(2, |crew| {
            for _ in 0..8 {
                crew.submit(PacketKind::Task, None, |_| {});
            }
            crew.wait_idle();
        });
        let steals: u64 = report.workers.iter().map(|w| w.steals).sum();
        assert_eq!((report.packets, steals), (8, 8));
    }

    #[test]
    fn a_panicking_packet_surfaces_instead_of_wedging_the_crew() {
        let hits = AtomicUsize::new(0);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            Scheduler::new().run(2, |crew| {
                for i in 0..16 {
                    let hits = &hits;
                    crew.submit(PacketKind::Task, Some(i), move |_| {
                        assert_ne!(i, 5, "packet 5 fails");
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
                crew.wait_idle();
            })
        }));
        assert!(outcome.is_err(), "the packet's panic reaches the caller");
        assert_eq!(hits.load(Ordering::Relaxed), 15, "the other packets ran");
        // A panicking coordinator still lets the workers exit.
        let outcome = panic::catch_unwind(|| Scheduler::new().run(2, |_| panic!("coordinator")));
        assert!(outcome.is_err());
    }

    #[test]
    fn engine_config_is_just_the_worker_count() {
        let e = EngineConfig::jobs(4).with_schedule(Schedule::WorkStealing);
        assert_eq!(e, EngineConfig::jobs(4), "schedules change nothing");
        assert!(!e.is_sequential());
        assert!(EngineConfig::default().is_sequential());
        assert!(EngineConfig::jobs(1)
            .with_schedule(Schedule::WorkStealing)
            .is_sequential());
    }

    #[cfg(not(cachegc_probes_off))]
    #[test]
    fn crews_record_packet_spans_on_worker_rows() {
        let tele = Arc::new(Telemetry::with_spans());
        let sched = Scheduler::new().with_telemetry(Arc::clone(&tele));
        let ((), report) = sched.run(2, |crew| {
            for i in 0..8 {
                crew.submit(PacketKind::Task, Some(i), move |_| {
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
    fn packet_kind_names_are_distinct() {
        let names: std::collections::BTreeSet<_> = [
            PacketKind::VmExecute,
            PacketKind::ReplayShard,
            PacketKind::Task,
            PacketKind::GoldenDiff,
            PacketKind::GridSimulate,
        ]
        .iter()
        .map(|k| k.name())
        .collect();
        assert_eq!(names.len(), 5);
    }
}
