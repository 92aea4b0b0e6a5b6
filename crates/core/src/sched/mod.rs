//! Crews: every job on its own scoped thread.
//!
//! Every crew the engine starts is a handful of jobs known up front: the
//! replay readers of one trace, the control half of a comparison, or the
//! workers of a `Runner::map` (see [`crate::Runner`]). `crew` runs each
//! job on its own scoped thread while the caller runs its own part of the
//! operation, then hands the results back in job order. The only knob is
//! the worker count, [`EngineConfig::jobs`].
//!
//! The workspace forbids `unsafe`, so no thread may outlive the data its
//! job borrows: a crew lives exactly as long as one `crew` call (std
//! `thread::scope`), and a job may borrow anything that outlives it. A
//! panicking job does not wedge its crew: every other thread still runs
//! to the end, and `crew` resumes the first panic on the caller.

use std::panic;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cachegc_telemetry::{probe, Telemetry, WorkerStats};

fn dur_ns(d: Duration) -> u64 {
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

/// Configuration of the experiment engine.
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

/// What a crew's jobs advance. Names each job's span in the scheduler
/// trace and keys the crew's engine run in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A full VM pass (the control pass of a comparison).
    VmExecute,
    /// One reader decoding a trace — stored, or a live pass's feed —
    /// into its shard of sinks.
    ReplayShard,
    /// A generic driver task (one worker of a `Runner::map`).
    Task,
    /// One reader's batched decode of a trace — stored, or a live pass's
    /// feed — driving a `GridCache` shard of a direct-mapped grid.
    GridSimulate,
}

impl PacketKind {
    /// Stable name used in spans, the manifest and debug output.
    pub fn name(self) -> &'static str {
        match self {
            PacketKind::VmExecute => "vm_execute",
            PacketKind::ReplayShard => "replay_shard",
            PacketKind::Task => "task",
            PacketKind::GridSimulate => "grid_simulate",
        }
    }
}

/// Run each of `jobs` on its own scoped thread while `main` runs on the
/// calling thread. Returns `main`'s result, the jobs' results in job
/// order, and one [`WorkerStats`] per job whose `idle_ns` is the time
/// that job's thread sat finished while the rest of the crew (the other
/// jobs and `main`) still ran.
///
/// With `telemetry`, job `i` holds a `worker-{i}` shard for its
/// lifetime, so its counters, phases and spans land on a stable
/// per-worker timeline row, and records one `kind` span around the job.
///
/// # Panics
///
/// Resumes the first panicking job's panic (in job order) once every
/// thread has joined; a panic in `main` is resumed after the same join.
pub(crate) fn crew<P, T, J>(
    telemetry: Option<&Arc<Telemetry>>,
    kind: PacketKind,
    jobs: Vec<J>,
    main: impl FnOnce() -> P,
) -> (P, Vec<T>, Vec<WorkerStats>)
where
    J: FnOnce() -> T + Send,
    T: Send,
{
    let (produced, joined) = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| {
                s.spawn(move || {
                    let _shard = telemetry.map(|t| t.attach_named(&format!("worker-{i}")));
                    let t0 = Instant::now();
                    let out = job();
                    probe::span(kind.name(), "packet", t0);
                    (out, Instant::now())
                })
            })
            .collect();
        let produced = main();
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (produced, joined)
    });
    let end = Instant::now();
    let mut outs = Vec::with_capacity(joined.len());
    let mut workers = Vec::with_capacity(joined.len());
    let mut panicked = None;
    for outcome in joined {
        match outcome {
            Ok((out, finished)) => {
                outs.push(out);
                workers.push(WorkerStats {
                    idle_ns: dur_ns(end.saturating_duration_since(finished)),
                    ..WorkerStats::default()
                });
            }
            Err(payload) => {
                panicked.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = panicked {
        panic::resume_unwind(payload);
    }
    (produced, outs, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_job_order() {
        let hits = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..5u64)
            .map(|i| {
                let hits = &hits;
                move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                    i * 10
                }
            })
            .collect();
        let (main, outs, workers) = crew(None, PacketKind::Task, jobs, || "main");
        assert_eq!(main, "main");
        assert_eq!(outs, [0, 10, 20, 30, 40]);
        assert_eq!(workers.len(), 5);
        assert_eq!(hits.load(Ordering::Relaxed), 5);
        assert!(workers.iter().all(|w| w.steals == 0 && w.events == 0));
    }

    #[test]
    fn a_panicking_job_surfaces_instead_of_wedging_the_crew() {
        let hits = AtomicUsize::new(0);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<_> = (0..8)
                .map(|i| {
                    let hits = &hits;
                    move || {
                        assert_ne!(i, 5, "job 5 fails");
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                })
                .collect();
            crew(None, PacketKind::Task, jobs, || ())
        }));
        assert!(outcome.is_err(), "the job's panic reaches the caller");
        assert_eq!(hits.load(Ordering::Relaxed), 7, "the other jobs ran");
        // A panicking caller still joins its jobs.
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let hits = &hits;
            let job = move || {
                hits.fetch_add(1, Ordering::Relaxed);
            };
            crew(None, PacketKind::Task, vec![job], || panic!("main"))
        }));
        assert!(outcome.is_err());
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn idle_time_is_the_tail_a_finished_worker_waits() {
        // Job 1 outlasts job 0 by at least 50 ms, whatever the timing.
        let (done, finished) = std::sync::mpsc::channel();
        let jobs: Vec<Box<dyn FnOnce() + Send>> = vec![
            Box::new(move || done.send(()).unwrap()),
            Box::new(move || {
                finished.recv().unwrap();
                std::thread::sleep(Duration::from_millis(50));
            }),
        ];
        let ((), _, workers) = crew(None, PacketKind::Task, jobs, || ());
        assert!(workers[0].idle_ns >= 50_000_000, "{workers:?}");
        assert!(workers[1].idle_ns < workers[0].idle_ns, "{workers:?}");
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
        let jobs: Vec<_> = (0..2)
            .map(|_| || std::hint::black_box((0..256).sum::<u64>()))
            .collect();
        let (_, outs, _) = crew(Some(&tele), PacketKind::Task, jobs, || ());
        assert_eq!(outs.len(), 2);
        let snap = tele.snapshot();
        let packet_spans: Vec<_> = snap.spans.iter().filter(|s| s.cat == "packet").collect();
        assert_eq!(packet_spans.len(), 2);
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
            PacketKind::GridSimulate,
        ]
        .iter()
        .map(|k| k.name())
        .collect();
        assert_eq!(names.len(), 4);
    }
}
