//! [`Runner`]: the single front door to the experiment engine.
//!
//! Every driver entry point the system used to scatter across fifteen
//! `run_*`/`*_jobs`/`*_engine`/`*_ctx` functions is now a method on one
//! builder: construct a `Runner` over an [`EngineConfig`], attach what the
//! run needs (trace store, telemetry, progress), and call a terminal —
//! [`Runner::sinks`], [`Runner::instruments`], [`Runner::control`],
//! [`Runner::collected`], [`Runner::map`], or the escape hatch
//! [`Runner::drive`] (and its grid form [`Runner::drive_grid`]). A §6
//! comparison is a `control` and a `collected` pass the caller pairs
//! into a [`GcComparison`](crate::GcComparison); a sweep over several
//! collectors runs the control once.
//!
//! There is one way to run a pass. Its sinks are dealt over
//! `min(jobs, sinks)` replay readers ([`PacketKind::ReplayShard`], or
//! [`PacketKind::GridSimulate`] for grids), each driving its shard of the
//! sinks: from the decoded stored trace on a store hit, otherwise from
//! the raw event feed (see
//! [`cachegc_trace::feed`](mod@cachegc_trace::feed)) that the VM, running
//! on the calling thread, fills. On a store miss the store's recorder
//! reads the same feed as one more crew job, so only a capture the store
//! may keep is encoded. A live pass's readers are always a crew, at one
//! worker too; a store hit with one reader reads on the calling thread.
//! The only other crew is `map`'s workers ([`PacketKind::Task`]). Every
//! crew is one scoped thread per job (`crate::sched`). Per-sink results
//! are bit-identical to the oracles that drive the sinks from the VM
//! directly ([`run_control`](crate::run_control),
//! [`run_collected`](crate::run_collected), or a [`Fanout`] under
//! `WorkloadInstance::run`; property-tested in the workspace root).
//!
//! # Example
//!
//! ```
//! use cachegc_core::{EngineConfig, ExperimentConfig, Runner};
//! use cachegc_workloads::Workload;
//!
//! let runner = Runner::new(EngineConfig::jobs(2));
//! let cfg = ExperimentConfig::quick();
//! let report = runner.control(Workload::Rewrite.scaled(1), &cfg).unwrap();
//! assert!(report.refs > 0);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cachegc_analysis::{Instrument, Timeline};
use cachegc_sim::{CacheConfig, GridCache};
use cachegc_telemetry::{probe, Counter, EngineReport, Telemetry, WorkerStats};
use cachegc_trace::{
    feed, Fanout, FeedStats, FeedWriter, RecordedTrace, Recorder, Recording, Segments, TraceSink,
    FEED_BLOCK_EVENTS,
};
use cachegc_vm::{RunStats, VmError};
use cachegc_workloads::WorkloadInstance;

use crate::experiment::{
    collected_run, control_report, run_spec_sink, CacheCell, CollectedRun, CollectorSpec,
    ControlReport, ExperimentConfig,
};
use crate::sched::{crew, EngineConfig, PacketKind};
use crate::store::{scenario_label, Acquired, HitSource, OfferOutcome, RecordTicket, TraceStore};
use crate::telemetry::Progress;
use crate::timeline::TimelineRecorder;

/// Degree of parallelism this machine supports (a sensible `--jobs`
/// default). Falls back to 1 if the platform cannot say.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The sink every live pass's producer drives: the optional timeline tap
/// beside the writer of the raw feed the pass's readers read. The VM is
/// compiled once per collector for it, whatever the pass's sinks.
type LiveSink = (Option<Timeline>, FeedWriter);

/// What a live pass runs on the calling thread: the VM over a workload,
/// or a caller's own loop ([`Runner::drive`]).
trait Producer {
    type Out;
    fn run(self, sink: LiveSink) -> Result<(Self::Out, LiveSink), VmError>;
}

/// The VM over one scenario.
struct Vm(WorkloadInstance, Option<CollectorSpec>);

impl Producer for Vm {
    type Out = RunStats;
    fn run(self, sink: LiveSink) -> Result<(RunStats, LiveSink), VmError> {
        run_spec_sink(self.0, self.1, sink)
    }
}

/// A caller's loop, for [`Runner::drive`].
struct Drive<F>(F);

impl<T, F: FnOnce(&mut dyn TraceSink) -> T> Producer for Drive<F> {
    type Out = T;
    fn run(self, mut sink: LiveSink) -> Result<(T, LiveSink), VmError> {
        let out = (self.0)(&mut sink);
        Ok((out, sink))
    }
}

/// The reader of a plain sink set: one replay drives the whole shard.
fn read_sinks<T: TraceSink>(segments: &mut Segments<'_>, shard: &mut Fanout<T>) {
    segments.replay(shard);
}

/// The reader of a grid: each batch, decoded from a stored trace or taken
/// raw from the live feed, drives each [`GridCache`].
fn read_grids(segments: &mut Segments<'_>, shard: &mut Fanout<GridCache>) {
    segments.replay_batched(|batch| {
        for grid in shard.sinks_mut() {
            grid.consume(batch);
        }
    });
}

/// Deal `items` round-robin into `jobs` shards, each item tagged with
/// its input position so [`undeal`] can restore the order.
fn deal<T>(items: Vec<T>, jobs: usize) -> Vec<Vec<(usize, T)>> {
    let mut shards: Vec<Vec<(usize, T)>> = (0..jobs).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        shards[i % jobs].push((i, item));
    }
    shards
}

/// The `n` items of a [`deal`], back in input order.
fn undeal<T>(dealt: impl IntoIterator<Item = (usize, T)>, n: usize) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, item) in dealt {
        out[i] = Some(item);
    }
    out.into_iter()
        .map(|item| item.expect("every dealt item returned"))
        .collect()
}

/// `sinks` dealt over `readers` shards, each a [`Fanout`] over its sinks,
/// plus each shard's input positions for [`unshard`].
fn shard<T>(sinks: Vec<T>, readers: usize) -> (Vec<Vec<usize>>, Vec<Fanout<T>>) {
    deal(sinks, readers)
        .into_iter()
        .map(|shard| {
            let (order, sinks): (Vec<usize>, Vec<T>) = shard.into_iter().unzip();
            (order, Fanout::new(sinks))
        })
        .unzip()
}

/// The sinks of [`shard`]'s fanouts, back in input order.
fn unshard<T>(order: Vec<Vec<usize>>, shards: Vec<Fanout<T>>) -> Vec<T> {
    let n = order.iter().map(Vec::len).sum();
    let dealt = order
        .into_iter()
        .zip(shards)
        .flat_map(|(order, fan)| order.into_iter().zip(fan.into_sinks()));
    undeal(dealt, n)
}

/// A direct-mapped configuration grid as one [`GridCache`] shard per
/// worker (at most one per configuration), plus each shard's input
/// positions for [`Runner::grid_cells`]. The shards are allocated here,
/// on the calling thread, before any reader starts: grid state first
/// allocated inside a crew worker lands in that worker's malloc arena
/// and stays resident after the pass.
fn grid_shards(configs: Vec<CacheConfig>, jobs: usize) -> (Vec<Vec<usize>>, Vec<GridCache>) {
    let jobs = jobs.clamp(1, configs.len().max(1));
    deal(configs, jobs)
        .into_iter()
        .map(|shard| {
            let (order, configs): (Vec<usize>, Vec<CacheConfig>) = shard.into_iter().unzip();
            (order, GridCache::new(configs))
        })
        .unzip()
}

/// What a live pass hands back: the producer's result, the sinks in
/// input order, the number of events the producer emitted, a store
/// miss's recorder, and the timeline tap.
struct Live<O, T> {
    out: O,
    sinks: Vec<T>,
    events: u64,
    recorder: Option<Recorder>,
    tap: Option<Timeline>,
}

/// One crew job of a pass: a reader driving its shard of the sinks, or a
/// store miss's recorder encoding the live feed.
enum Job<'s, T> {
    Read(Segments<'s>, Fanout<T>),
    Record(Recording),
}

/// What a [`Job`] hands back: the events a reader read and its shard,
/// or the recorder.
enum Done<T> {
    Read(u64, Fanout<T>),
    Recorded(Recorder),
}

/// The unified experiment driver: an engine configuration and the
/// optional attachments a pass reports into (trace store, telemetry,
/// timeline, progress). `Clone` is cheap; builder methods consume and
/// return `self` so runners for sub-budgets derive freely.
#[derive(Debug, Clone)]
pub struct Runner<'a> {
    /// Worker count for each pass.
    engine: EngineConfig,
    /// Scenario-keyed trace cache; `None` runs every pass live.
    store: Option<&'a TraceStore>,
    /// Registry the passes attach probe shards to and report phases,
    /// counters and engine runs into; `None` costs nothing.
    telemetry: Option<&'a Arc<Telemetry>>,
    /// Ticked once per completed pass; `None` is silent.
    progress: Option<&'a Progress>,
    /// Windowed cache/GC timeline every pass taps its stream into.
    timeline: Option<&'a TimelineRecorder>,
    /// Events in each block of a live pass's feed.
    block_events: usize,
}

impl<'a> Runner<'a> {
    /// A runner over `engine`, with no store, telemetry, or progress.
    pub fn new(engine: EngineConfig) -> Runner<'static> {
        Runner {
            engine,
            store: None,
            telemetry: None,
            progress: None,
            timeline: None,
            block_events: FEED_BLOCK_EVENTS,
        }
    }

    /// The one-worker runner, nothing attached: each live pass runs one
    /// reader beside the VM, and a store hit reads on the calling thread.
    pub fn sequential() -> Runner<'static> {
        Runner::new(EngineConfig::default())
    }

    /// Attach a trace store: scenarios record on first run and replay on
    /// every later one.
    pub fn with_store(mut self, store: &'a TraceStore) -> Runner<'a> {
        self.store = Some(store);
        self
    }

    /// Attach a telemetry registry: every pass attaches a probe shard on
    /// its thread and reports phases, counters, and engine observability.
    /// Crew workers get per-worker `worker-{i}` shards, so scheduler
    /// spans (crew jobs, backpressure) land on stable timeline rows when
    /// the registry captures spans.
    pub fn with_telemetry(mut self, telemetry: &'a Arc<Telemetry>) -> Runner<'a> {
        self.telemetry = Some(telemetry);
        self
    }

    /// Attach a timeline recorder: every pass additionally drives a
    /// fixed-geometry [`cachegc_analysis::Timeline`] tap and commits the
    /// windowed report under the pass's scenario label. The tap rides the
    /// same access stream as the result sinks, so it never changes any
    /// result bit; store hits replay the recorded trace into the tap.
    pub fn with_timeline(mut self, timeline: &'a TimelineRecorder) -> Runner<'a> {
        self.timeline = Some(timeline);
        self
    }

    /// Attach a progress reporter, ticked once per completed pass.
    pub fn with_progress(mut self, progress: &'a Progress) -> Runner<'a> {
        self.progress = Some(progress);
        self
    }

    /// Same attachments, engine rebudgeted to `jobs` workers.
    pub fn with_jobs(mut self, jobs: usize) -> Runner<'a> {
        self.engine.jobs = jobs.max(1);
        self
    }

    /// Cut this runner's live feeds into blocks of `events` events (at
    /// least one) instead of [`FEED_BLOCK_EVENTS`]. No result depends on
    /// it; tests use tiny blocks to land block boundaries all over a
    /// short stream.
    pub fn with_block_events(mut self, events: usize) -> Runner<'a> {
        self.block_events = events;
        self
    }

    /// Report a finished pass of `events` events, started at `start`, to
    /// the attached progress reporter.
    fn report_pass(&self, events: u64, start: Instant) {
        if let Some(progress) = self.progress {
            progress.pass(self.store, events, start.elapsed().as_secs_f64());
        }
    }

    /// Fold a finished crew into the attached telemetry as one engine
    /// run keyed by the `kind` of jobs it ran: `sinks` driven over
    /// `events` events, plus what a live pass's feed observed (the
    /// caller must hold a probe shard on this thread).
    fn flush_crew(
        &self,
        kind: PacketKind,
        workers: Vec<WorkerStats>,
        sinks: usize,
        events: u64,
        feed: FeedStats,
    ) {
        probe!(Counter::SchedPackets, workers.len() as u64);
        if let Some(telemetry) = self.telemetry {
            telemetry.record_engine(&EngineReport {
                kind: kind.name(),
                jobs: workers.len(),
                sinks,
                chunks_published: feed.blocks,
                events_published: events,
                backpressure_ns: feed.wait_ns,
                queue_depth_hwm: feed.max_lag,
                workers,
            });
        }
    }

    /// Replay a workload into an arbitrary sink set — the general engine
    /// terminal. Three cases:
    ///
    /// * No store attached: a live pass (see below).
    /// * Store hit: the recorded trace is replayed into the sinks — no
    ///   VM — and the recorded [`RunStats`] are returned.
    /// * Store miss: a live pass whose recorder is the store ticket's,
    ///   and the capture is offered back to the store (which may decline
    ///   it on budget grounds).
    ///
    /// A live pass runs the VM on the calling thread into a raw event
    /// feed that `min(jobs, sinks)` reader threads read, each into its
    /// shard of the sinks, as a hit's readers replay the stored trace.
    /// Per-sink results are bit-identical on every path.
    ///
    /// When the runner carries a [`Telemetry`] registry this terminal is
    /// also the instrumentation root: it attaches a probe shard on the
    /// calling thread, times the `vm_execute` / `record` / `replay` /
    /// `sink_drain` phases (`record` wraps the live run on the miss path,
    /// so those spans overlap `vm_execute` by design), counts live VM
    /// runs, crew jobs, and store capture outcomes, and reports each crew
    /// as an engine run. A runner carrying a [`Progress`] gets one tick
    /// per completed pass. Neither changes any result bit.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] from the program (live paths only —
    /// replay cannot fail).
    pub fn sinks<S>(
        &self,
        instance: WorkloadInstance,
        spec: Option<CollectorSpec>,
        sinks: Vec<S>,
    ) -> Result<(RunStats, Vec<S>), VmError>
    where
        S: TraceSink + Send,
    {
        self.pass(instance, spec, sinks, PacketKind::ReplayShard, read_sinks)
    }

    /// The body of [`Runner::sinks`] and [`Runner::grid`]: `read` drives
    /// one reader's shard of the sinks from a replayed trace.
    fn pass<T, R>(
        &self,
        instance: WorkloadInstance,
        spec: Option<CollectorSpec>,
        sinks: Vec<T>,
        kind: PacketKind,
        read: R,
    ) -> Result<(RunStats, Vec<T>), VmError>
    where
        T: Send,
        R: Fn(&mut Segments<'_>, &mut Fanout<T>) + Sync,
    {
        let _shard = self.telemetry.map(|t| t.attach());
        let pass_start = Instant::now();
        let (stats, sinks, events) = self.pass_inner(instance, spec, sinks, kind, read)?;
        self.report_pass(events, pass_start);
        Ok((stats, sinks))
    }

    /// Commit a live pass's timeline tap under `label` (no-op when the
    /// runner carries no recorder, so taps thread through the drivers
    /// as plain `Option` tuple elements).
    fn commit_tap(&self, label: impl FnOnce() -> String, tap: Option<Timeline>) {
        if let (Some(recorder), Some(tap)) = (self.timeline, tap) {
            recorder.commit(&label(), tap);
        }
    }

    fn pass_inner<T, R>(
        &self,
        instance: WorkloadInstance,
        spec: Option<CollectorSpec>,
        sinks: Vec<T>,
        kind: PacketKind,
        read: R,
    ) -> Result<(RunStats, Vec<T>, u64), VmError>
    where
        T: Send,
        R: Fn(&mut Segments<'_>, &mut Fanout<T>) + Sync,
    {
        let label = || scenario_label(instance, spec);
        let Some(store) = self.store else {
            probe!(Counter::VmRuns);
            let live = self.live(Vm(instance, spec), None, kind, sinks, read)?;
            self.commit_tap(label, live.tap);
            return Ok((live.out, live.sinks, live.events));
        };
        let ticket = match store.acquire(instance, spec) {
            Acquired::Hit { trace, source } => {
                match source {
                    HitSource::Resident => {}
                    HitSource::SpillLoad => probe!(Counter::StoreSpillLoads),
                    HitSource::Coalesced => probe!(Counter::StoreCoalesced),
                }
                // The tap takes its own decode pass rather than riding a
                // reader shard; its windows are bit-identical to a live
                // pass's.
                if let Some(recorder) = self.timeline {
                    let mut tap = recorder.tap();
                    trace.trace.replay(&mut tap);
                    recorder.commit(&label(), tap);
                }
                let sinks = {
                    let _replay = probe::phase("replay");
                    self.replay(&trace.trace, kind, sinks, read)
                };
                return Ok((trace.stats, sinks, trace.trace.events()));
            }
            Acquired::Miss(ticket) => ticket,
        };
        // Miss: this pass holds the scenario's single recording flight.
        // Run live with the ticket's budget-metered recorder reading the
        // feed, then offer the capture back; concurrent passes of the
        // same scenario are blocked in `acquire` meanwhile. An early
        // error return drops the ticket, which cancels the flight and
        // hands leadership to a waiter.
        probe!(Counter::VmRuns);
        let record_start = Instant::now();
        let _record = probe::phase("record");
        let recorder = Some(ticket.recorder());
        let live = self.live(Vm(instance, spec), recorder, kind, sinks, read)?;
        self.commit_tap(label, live.tap);
        let recorder = live
            .recorder
            .expect("a store miss's recorder read the feed");
        debug_assert_eq!(
            recorder.events(),
            live.events,
            "the recorder saw every event"
        );
        self.offer(ticket, recorder, live.out, record_start, store, label);
        Ok((live.out, live.sinks, live.events))
    }

    /// Hand a finished capture to the store and count the outcome.
    fn offer(
        &self,
        ticket: RecordTicket,
        recorder: Recorder,
        stats: RunStats,
        record_start: Instant,
        store: &TraceStore,
        label: impl FnOnce() -> String,
    ) {
        match ticket.offer(recorder, stats, record_start.elapsed()) {
            OfferOutcome::Stored {
                bytes,
                events,
                spilled,
            } => {
                probe!(Counter::StoreRecordedBytes, bytes);
                probe!(Counter::StoreRecordedEvents, events);
                if spilled {
                    probe!(Counter::StoreSpills);
                }
            }
            OfferOutcome::DroppedOverBudget => {
                probe!(Counter::StoreCapturesDropped);
                if let Some(telemetry) = self.telemetry {
                    telemetry.warn(&format!(
                        "trace store dropped over-budget capture of {} \
                         (budget {} bytes); the scenario keeps running live",
                        label(),
                        store.budget()
                    ));
                }
            }
        }
    }

    /// The one live pass: `producer` runs on the calling thread into a
    /// raw event feed, which `min(jobs, sinks)` readers of `kind` `read`
    /// into their shards of the sinks while it grows, exactly as a store
    /// hit's readers read the stored trace. A store miss's `recorder`
    /// reads the feed too, as one more crew job, and comes back having
    /// encoded every event into buffers the calling thread supplied; a
    /// pass without one encodes nothing.
    fn live<P, T, R>(
        &self,
        producer: P,
        recorder: Option<Recorder>,
        kind: PacketKind,
        sinks: Vec<T>,
        read: R,
    ) -> Result<Live<P::Out, T>, VmError>
    where
        P: Producer,
        T: Send,
        R: Fn(&mut Segments<'_>, &mut Fanout<T>) + Sync,
    {
        let tap = self.timeline.map(|t| t.tap());
        let n = sinks.len();
        let readers = self.engine.jobs.min(n).max(1);
        let (order, shards) = shard(sinks, readers);
        let (writer, feeds, recording) = feed(readers, self.block_events, recorder);
        let sources = feeds.into_iter().map(Segments::Feed).collect();
        let (produced, shards, recorder, workers) =
            self.read_shards(kind, sources, shards, &read, recording, || {
                let (out, (tap, writer)) = {
                    let _vm = probe::phase_cpu("vm_execute");
                    producer.run((tap, writer))?
                };
                Ok((out, tap, writer.finish()))
            });
        let (out, tap, feed) = match produced {
            Ok(produced) => produced,
            Err(e) => {
                self.flush_crew(kind, workers, n, 0, FeedStats::default());
                return Err(e);
            }
        };
        self.flush_crew(kind, workers, n, feed.events, feed);
        Ok(Live {
            out,
            sinks: unshard(order, shards),
            events: feed.events,
            recorder,
            tap,
        })
    }

    /// A store hit: replay `trace` into the sinks, dealt over
    /// `min(jobs, sinks)` readers of `kind` (in-thread for one).
    fn replay<T, R>(
        &self,
        trace: &RecordedTrace,
        kind: PacketKind,
        sinks: Vec<T>,
        read: R,
    ) -> Vec<T>
    where
        T: Send,
        R: Fn(&mut Segments<'_>, &mut Fanout<T>) + Sync,
    {
        let n = sinks.len();
        let readers = self.engine.jobs.min(n).max(1);
        let (order, mut shards) = shard(sinks, readers);
        if readers <= 1 {
            read(&mut Segments::Trace(trace), &mut shards[0]);
        } else {
            let sources = (0..readers).map(|_| Segments::Trace(trace)).collect();
            let ((), read_back, _, workers) =
                self.read_shards(kind, sources, shards, &read, None, || ());
            self.flush_crew(kind, workers, n, trace.events(), FeedStats::default());
            shards = read_back;
        }
        unshard(order, shards)
    }

    /// The crew behind every replay: reader `j` of `kind` reads
    /// `sources[j]` into `shards[j]` on its own thread, and a store
    /// miss's `recording` encodes the feed on one more, while `produce`
    /// runs on the calling thread. Waits for every job (the `sink_drain`
    /// phase), then returns `produce`'s result, the shards in order, the
    /// recorder, and each job's accounting (the recorder drives no sink).
    fn read_shards<'s, T, P>(
        &self,
        kind: PacketKind,
        sources: Vec<Segments<'s>>,
        shards: Vec<Fanout<T>>,
        read: &(impl Fn(&mut Segments<'_>, &mut Fanout<T>) + Sync),
        recording: Option<Recording>,
        produce: impl FnOnce() -> P,
    ) -> (P, Vec<Fanout<T>>, Option<Recorder>, Vec<WorkerStats>)
    where
        T: Send,
    {
        let jobs = sources
            .into_iter()
            .zip(shards)
            .map(|(source, shard)| Job::Read(source, shard))
            .chain(recording.map(Job::Record))
            .map(|job| {
                move || match job {
                    Job::Read(mut source, mut shard) => {
                        read(&mut source, &mut shard);
                        Done::Read(source.events(), shard)
                    }
                    Job::Record(recording) => Done::Recorded(recording.run()),
                }
            })
            .collect();
        let ((produced, drain), done, mut workers) = crew(self.telemetry, kind, jobs, || {
            (produce(), probe::phase("sink_drain"))
        });
        drop(drain);
        let mut shards = Vec::with_capacity(done.len());
        let mut recorder = None;
        for (done, stats) in done.into_iter().zip(&mut workers) {
            match done {
                Done::Read(events, shard) => {
                    stats.events = events * shard.sinks().len() as u64;
                    shards.push(shard);
                }
                Done::Recorded(rec) => recorder = Some(rec),
            }
        }
        (produced, shards, recorder, workers)
    }

    /// [`Runner::sinks`] for the closed heterogeneous [`Instrument`] set —
    /// mixed cache geometries, organizations, and §7 analyzers in one
    /// trace pass. Results come back in input order.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] from the program.
    pub fn instruments(
        &self,
        instance: WorkloadInstance,
        spec: Option<CollectorSpec>,
        instruments: Vec<Instrument>,
    ) -> Result<(RunStats, Vec<Instrument>), VmError> {
        self.sinks(instance, spec, instruments)
    }

    /// Drive a direct-mapped configuration grid over one pass of
    /// `instance` — the terminal behind [`Runner::control`] and
    /// [`Runner::collected`].
    ///
    /// The grid rides the pass as [`GridCache`] shards, one per worker,
    /// allocated on the calling thread. Each [`PacketKind::GridSimulate`]
    /// reader drives its shard a batch at a time, decoded from the stored
    /// trace on a hit and taken raw from the live feed otherwise (see
    /// [`Runner::sinks`]). Cells come back in input order, each
    /// bit-identical to an independent [`Cache`](cachegc_sim::Cache) over
    /// the same stream.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] from the program (live paths only).
    pub fn grid(
        &self,
        instance: WorkloadInstance,
        spec: Option<CollectorSpec>,
        configs: Vec<CacheConfig>,
    ) -> Result<(RunStats, Vec<CacheCell>), VmError> {
        let (order, grids) = grid_shards(configs, self.engine.jobs);
        let (stats, grids) =
            self.pass(instance, spec, grids, PacketKind::GridSimulate, read_grids)?;
        Ok((stats, self.grid_cells(order, grids)))
    }

    /// Finished [`grid_shards`] back as cells in input order; counts the
    /// simulated `(configuration, event)` cells and the lane steps the
    /// kernel ran for them.
    fn grid_cells(&self, order: Vec<Vec<usize>>, grids: Vec<GridCache>) -> Vec<CacheCell> {
        let _shard = self.telemetry.map(|t| t.attach());
        let n = order.iter().map(Vec::len).sum();
        let mut cells = Vec::with_capacity(n);
        for (indices, grid) in order.into_iter().zip(grids) {
            probe!(Counter::GridCellsSimulated, grid.cells_simulated());
            probe!(Counter::GridLaneSteps, grid.lane_steps());
            let shard = grid.into_cells().into_iter();
            cells.extend(
                indices
                    .into_iter()
                    .zip(shard.map(|(config, stats)| CacheCell { config, stats })),
            );
        }
        undeal(cells, n)
    }

    /// The §5 control experiment: run `instance` with collection disabled
    /// against `cfg`'s cache grid in one trace pass (replayed from the
    /// store when the scenario is recorded), via [`Runner::grid`].
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] from the program.
    pub fn control(
        &self,
        instance: WorkloadInstance,
        cfg: &ExperimentConfig,
    ) -> Result<ControlReport, VmError> {
        let (stats, cells) = self.grid(instance, None, cfg.configs())?;
        Ok(control_report(instance, cfg, stats, cells))
    }

    /// The §6 experiment: `instance` under `spec`'s collector against
    /// `cfg`'s cache grid, attributing misses and instructions to program
    /// vs collector (replayed from the store when recorded), via
    /// [`Runner::grid`].
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] from the program.
    pub fn collected(
        &self,
        instance: WorkloadInstance,
        cfg: &ExperimentConfig,
        spec: CollectorSpec,
    ) -> Result<CollectedRun, VmError> {
        let (stats, cells) = self.grid(instance, Some(spec), cfg.configs())?;
        Ok(collected_run(instance, spec, stats, cells))
    }

    /// Split this runner's worker budget between `n` concurrent outer
    /// tasks and the engine passes inside each: returns `(outer
    /// parallelism, per-task inner jobs)`. This is what [`Runner::map`]
    /// applies to its item list.
    fn split_jobs(&self, n: usize) -> (usize, usize) {
        let outer = self.engine.jobs.clamp(1, n.max(1));
        (outer, (self.engine.jobs / outer).max(1))
    }

    /// Apply `f` to every item, preserving input order in the results.
    /// The worker budget splits into `outer = min(jobs, items)` tasks
    /// that run at once and `jobs / outer` workers (at least one) for the
    /// passes inside each: `f` receives a derived runner holding that
    /// share of the budget. An effectively-sequential split runs inline;
    /// otherwise a crew of `outer` [`PacketKind::Task`] workers each
    /// claims the next unclaimed item until none is left, so one long
    /// item never holds up the items behind it.
    ///
    /// This is the driver for the experiment sweeps' per-workload loops:
    /// each of the paper's five programs is an independent trace pass.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any invocation of `f`.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&Runner<'a>, &T) -> R + Sync,
    {
        let (outer, inner_jobs) = self.split_jobs(items.len());
        let inner = self.clone().with_jobs(inner_jobs);
        if outer <= 1 {
            return items.iter().map(|item| f(&inner, item)).collect();
        }
        // Relaxed: the counter only hands out distinct indices; results
        // come back through the crew's joins.
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    return done;
                };
                done.push((i, f(&inner, item)));
            }
        };
        let _shard = self.telemetry.map(|t| t.attach());
        let ((), claimed, workers) = crew(
            self.telemetry,
            PacketKind::Task,
            vec![&worker; outer],
            || (),
        );
        self.flush_crew(PacketKind::Task, workers, 0, 0, FeedStats::default());
        undeal(claimed.into_iter().flatten(), items.len())
    }

    /// The escape hatch for passes that drive the sink themselves (e.g. a
    /// hand-built VM loop): `f` receives a [`TraceSink`] over `sinks`
    /// under this runner's engine — the writer of a raw event feed whose
    /// reader threads drive shards of the sinks — and the sinks come back
    /// in input order along with `f`'s result. The pass has no scenario key: it
    /// always runs live, and its timeline commits under `drive`. Phases,
    /// the VM-run counter, engine observability and the progress tick are
    /// reported exactly like [`Runner::sinks`]'s live path.
    pub fn drive<S, T, F>(&self, sinks: Vec<S>, f: F) -> (T, Vec<S>)
    where
        S: TraceSink + Send,
        F: FnOnce(&mut dyn TraceSink) -> T,
    {
        self.drive_shards(sinks, PacketKind::ReplayShard, read_sinks, f)
    }

    /// [`Runner::drive`] over a direct-mapped configuration grid: the
    /// grid rides the pass as [`GridCache`] shards, dealt and reassembled
    /// exactly as in [`Runner::grid`], and the cells come back in input
    /// order along with `f`'s result.
    pub fn drive_grid<T, F>(&self, configs: Vec<CacheConfig>, f: F) -> (T, Vec<CacheCell>)
    where
        F: FnOnce(&mut dyn TraceSink) -> T,
    {
        let (order, grids) = grid_shards(configs, self.engine.jobs);
        let (out, grids) = self.drive_shards(grids, PacketKind::GridSimulate, read_grids, f);
        (out, self.grid_cells(order, grids))
    }

    fn drive_shards<S, T, F, R>(
        &self,
        sinks: Vec<S>,
        reader: PacketKind,
        read: R,
        f: F,
    ) -> (T, Vec<S>)
    where
        S: Send,
        F: FnOnce(&mut dyn TraceSink) -> T,
        R: Fn(&mut Segments<'_>, &mut Fanout<S>) + Sync,
    {
        let _shard = self.telemetry.map(|t| t.attach());
        let pass_start = Instant::now();
        probe!(Counter::VmRuns);
        let live = match self.live(Drive(f), None, reader, sinks, read) {
            Ok(live) => live,
            Err(e) => unreachable!("a driven pass runs no VM that could fail: {e}"),
        };
        self.commit_tap(|| "drive".to_string(), live.tap);
        self.report_pass(live.events, pass_start);
        (live.out, live.sinks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_collected, run_control};
    use cachegc_analysis::{ActivityTracker, BlockTracker, SweepPlot};
    use cachegc_sim::{Cache, CacheConfig, SetAssocCache};
    use cachegc_workloads::Workload;

    fn grids_equal(a: &[crate::CacheCell], b: &[crate::CacheCell]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.config, y.config, "same grid order");
            assert_eq!(x.stats, y.stats, "{}: stats bit-identical", x.config);
        }
    }

    #[test]
    fn parallel_collected_matches_sequential() {
        let cfg = ExperimentConfig::quick();
        let w = Workload::Compile.scaled(1);
        let spec = CollectorSpec::Cheney {
            semispace_bytes: 512 << 10,
        };
        let seq = run_collected(w, &cfg, spec).unwrap();
        let par = Runner::new(EngineConfig::jobs(4))
            .collected(w, &cfg, spec)
            .unwrap();
        assert_eq!(seq.i_prog, par.i_prog);
        assert_eq!(seq.i_gc, par.i_gc);
        assert_eq!(seq.gc.collections, par.gc.collections);
        for (x, y) in seq.cells.iter().zip(&par.cells) {
            assert_eq!(x.config, y.config);
            assert_eq!((x.m_prog, x.m_gc), (y.m_prog, y.m_gc));
            assert_eq!(x.stats, y.stats);
        }
    }

    fn mixed_instruments() -> Vec<Instrument> {
        let cfg = CacheConfig::direct_mapped(32 << 10, 64);
        vec![
            Cache::new(cfg).into(),
            SetAssocCache::new(cfg.with_assoc(2)).into(),
            BlockTracker::new(32 << 10, 64).into(),
            SweepPlot::new(cfg, 4096).into(),
            ActivityTracker::new(cfg).into(),
        ]
    }

    #[test]
    fn instruments_identical_on_crews_of_every_width() {
        let w = Workload::Rewrite.scaled(1);
        let (stats0, oracle) = run_spec_sink(w, None, Fanout::new(mixed_instruments())).unwrap();
        let oracle = oracle.into_sinks();
        for jobs in [1, 2, 3, 8] {
            let (stats, out) = Runner::new(EngineConfig::jobs(jobs))
                .instruments(w, None, mixed_instruments())
                .unwrap();
            assert_eq!(stats0.instructions.program(), stats.instructions.program());
            assert_eq!(oracle, out, "jobs {jobs}: instrument set bit-identical");
        }
    }

    #[test]
    fn sinks_under_a_collector_attributes_contexts() {
        let w = Workload::Rewrite.scaled(1);
        let spec = CollectorSpec::Cheney {
            semispace_bytes: 512 << 10,
        };
        let engine = EngineConfig::jobs(2);
        let sinks = vec![Cache::new(CacheConfig::direct_mapped(32 << 10, 64))];
        let (stats, out) = Runner::new(engine).sinks(w, Some(spec), sinks).unwrap();
        assert!(stats.gc.collections > 0, "heap small enough to force GC");
        assert!(
            out[0]
                .stats()
                .totals()
                .refs_by(cachegc_trace::Context::Collector)
                > 0,
            "collector references reach the sink"
        );
    }

    #[test]
    fn cached_replay_matches_live_and_counts_one_vm_run() {
        let cfg = ExperimentConfig::quick();
        let w = Workload::Rewrite.scaled(1);
        let store = crate::TraceStore::unbounded();
        let runner = Runner::new(EngineConfig::jobs(2)).with_store(&store);
        let oracle = run_control(w, &cfg).unwrap();
        let live = runner.control(w, &cfg).unwrap(); // miss: records
        let replay = runner.control(w, &cfg).unwrap(); // hit: replays
        assert_eq!(oracle.refs, live.refs);
        assert_eq!(oracle.refs, replay.refs);
        assert_eq!(oracle.i_prog, replay.i_prog);
        assert_eq!(oracle.allocated, replay.allocated);
        grids_equal(&oracle.cells, &live.cells);
        grids_equal(&oracle.cells, &replay.cells);
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.over_budget), (1, 1, 1, 0));
        assert!(s.bytes > 0 && s.events == oracle.refs);
        // Every later consumer of the same scenario — a different sink
        // set, a one-worker runner — replays too, VM still run once.
        let seq = Runner::sequential().with_store(&store);
        let again = seq.control(w, &cfg).unwrap();
        grids_equal(&oracle.cells, &again.cells);
        assert_eq!(store.stats().misses, 1, "VM ran exactly once");
    }

    /// `Runner::grid` against the `Vec<Cache>` oracle (`run_control` /
    /// `run_collected`) on every path a grid can take: live crews of one
    /// to three readers (replaying the feed of an unkept recording),
    /// store misses (replaying the feed of the kept one), store hits on
    /// one to three workers, and hits re-materialized from spill files. Every
    /// cell's `CacheTotals` must match: a grid lane keeps no per-block
    /// counters (`Cache`'s own are checked by its tests and `activity`'s).
    #[test]
    fn grid_matches_the_cache_oracle_on_every_path() {
        let mut cfg = ExperimentConfig::quick();
        cfg.block_sizes = vec![32, 64];
        let w = Workload::Rewrite.scaled(1);
        let spec = CollectorSpec::Cheney {
            semispace_bytes: 512 << 10,
        };
        let control = run_control(w, &cfg).unwrap();
        let collected = run_collected(w, &cfg, spec).unwrap();
        assert!(collected.gc.collections > 0, "heap small enough to collect");
        let check = |tag: &str, runner: &Runner| {
            let c = runner.control(w, &cfg).unwrap();
            assert_eq!(
                (c.refs, c.i_prog, c.allocated),
                (control.refs, control.i_prog, control.allocated),
                "{tag}"
            );
            grids_equal(&control.cells, &c.cells);
            let g = runner.collected(w, &cfg, spec).unwrap();
            assert_eq!((g.i_prog, g.i_gc), (collected.i_prog, collected.i_gc));
            for (x, y) in collected.cells.iter().zip(&g.cells) {
                assert_eq!(x.config, y.config, "{tag}: same grid order");
                assert_eq!((x.m_prog, x.m_gc), (y.m_prog, y.m_gc), "{tag}");
                assert_eq!(x.stats, y.stats, "{tag}: {}", x.config);
            }
        };
        for jobs in [1, 2, 3] {
            check(
                &format!("live jobs {jobs}"),
                &Runner::new(EngineConfig::jobs(jobs)),
            );
        }
        let ws = EngineConfig::jobs;
        let store = crate::TraceStore::unbounded();
        check(
            "one-reader store miss",
            &Runner::new(ws(1)).with_store(&store),
        );
        let tmp = crate::spill::TempDir::new("grid-paths");
        let dir = tmp.path();
        let store = crate::TraceStore::unbounded().with_spill(dir.clone());
        check("crew store miss", &Runner::new(ws(2)).with_store(&store));
        for jobs in [1, 2, 3] {
            let tag = format!("store hit jobs {jobs}");
            check(&tag, &Runner::new(ws(jobs)).with_store(&store));
        }
        let s = store.stats();
        assert_eq!((s.misses, s.hits, s.spills), (2, 6, 2));
        // A restarted store loads both scenarios from their spill files.
        let warm = crate::TraceStore::unbounded().with_spill(dir.clone());
        check("spill-load hit", &Runner::new(ws(2)).with_store(&warm));
        let s = warm.stats();
        assert_eq!((s.misses, s.spill_loads), (0, 2));
    }

    #[test]
    fn over_budget_store_falls_back_to_live_runs() {
        // Every capture outgrows a 64-byte budget, so both passes feed
        // their readers from an abandoned capture.
        let cfg = ExperimentConfig::quick();
        let w = Workload::Rewrite.scaled(1);
        let oracle = run_control(w, &cfg).unwrap();
        let store = crate::TraceStore::with_budget(64);
        let runner = Runner::new(EngineConfig::jobs(2)).with_store(&store);
        for _ in 0..2 {
            let live = runner.control(w, &cfg).unwrap();
            assert_eq!((live.refs, live.i_prog), (oracle.refs, oracle.i_prog));
            grids_equal(&oracle.cells, &live.cells);
        }
        let s = store.stats();
        assert_eq!((s.entries, s.misses, s.over_budget), (0, 2, 2));
        assert_eq!(s.reserved, 0, "abandoned captures returned their budget");
    }

    #[test]
    fn map_preserves_order_and_covers_all() {
        let items: Vec<u64> = (0..37).collect();
        let runner = Runner::new(EngineConfig::jobs(5));
        let doubled = runner.map(&items, |_, &x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        // Inline path.
        assert_eq!(Runner::sequential().map(&items, |_, &x| x + 1)[36], 37);
        // More workers than items.
        let wide = Runner::new(EngineConfig::jobs(16));
        assert_eq!(wide.map(&[1u64, 2], |_, &x| x).len(), 2);
        let empty: [u64; 0] = [];
        assert!(wide.map(&empty, |_, &x| x).is_empty());
    }

    /// Item 0 waits until items 1–3 have finished. Workers that claim the
    /// next unclaimed item get there (one blocks on item 0, the other
    /// runs 1, 2 and 3); a static round-robin deal would queue item 2
    /// behind item 0 on the same worker and time out.
    #[test]
    fn map_workers_claim_the_next_item() {
        use std::sync::{mpsc, Mutex};
        use std::time::Duration;
        let (done, finished) = mpsc::channel();
        let done = Mutex::new(done);
        let finished = Mutex::new(finished);
        let runner = Runner::new(EngineConfig::jobs(2));
        let out = runner.map(&[0u32, 1, 2, 3], |_, &i| {
            if i == 0 {
                let finished = finished.lock().unwrap();
                for _ in 1..4 {
                    finished
                        .recv_timeout(Duration::from_secs(5))
                        .expect("items 1-3 run while item 0 waits");
                }
            } else {
                done.lock().unwrap().send(()).unwrap();
            }
            i * 2
        });
        assert_eq!(out, [0, 2, 4, 6]);
    }

    #[test]
    fn map_splits_the_worker_budget() {
        let r = Runner::new(EngineConfig::jobs(8));
        assert_eq!(r.split_jobs(5), (5, 1));
        assert_eq!(r.split_jobs(2), (2, 4));
        assert_eq!(Runner::new(EngineConfig::jobs(1)).split_jobs(5), (1, 1));
        // The derived runner inside `map` keeps the store attachment.
        let store = crate::TraceStore::unbounded();
        let r = Runner::new(EngineConfig::jobs(4)).with_store(&store);
        let stores = r.map(&[0u8, 1], |inner, _| inner.store.is_some());
        assert_eq!(stores, vec![true, true]);
    }

    /// Every `drive` is one pass: its sinks match a sequential `Fanout`
    /// over the same stream, and it ticks the progress reporter once.
    #[test]
    fn drive_matches_the_sequential_fanout() {
        use cachegc_trace::{Access, Context};
        let stream: Vec<Access> = (0..20_000u32)
            .map(|i| Access::read(i.wrapping_mul(68) % (1 << 20), Context::Mutator))
            .collect();
        let grid = || {
            vec![
                Cache::new(CacheConfig::direct_mapped(32 << 10, 64)),
                Cache::new(CacheConfig::direct_mapped(64 << 10, 32)),
            ]
        };
        let mut oracle = Fanout::new(grid());
        for a in &stream {
            oracle.access(*a);
        }
        let expected = oracle.into_sinks();
        let progress = Progress::to_writer("drive", 4, Box::new(std::io::sink()));
        for (pass, (jobs, block_events)) in [(1, 1), (2, 63), (2, FEED_BLOCK_EVENTS), (3, 100)]
            .into_iter()
            .enumerate()
        {
            let runner = Runner::new(EngineConfig::jobs(jobs))
                .with_block_events(block_events)
                .with_progress(&progress);
            let (n, got) = runner.drive(grid(), |fan| {
                for a in &stream {
                    fan.access(*a);
                }
                stream.len()
            });
            assert_eq!(n, stream.len());
            assert_eq!(progress.completed(), pass + 1, "one tick per drive");
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(
                    g.stats(),
                    e.stats(),
                    "jobs {jobs}, {block_events}-event blocks"
                );
            }
        }
    }

    /// A failing VM closes the feed: the readers end, the crew winds
    /// down, and the pass returns the error instead of hanging.
    #[test]
    fn a_vm_error_on_a_crew_pass_returns_the_error() {
        let w = Workload::Rewrite.scaled(1);
        let spec = CollectorSpec::Cheney {
            semispace_bytes: 4096,
        };
        let err = run_collected(w, &ExperimentConfig::quick(), spec).unwrap_err();
        let store = crate::TraceStore::unbounded();
        for runner in [
            Runner::new(EngineConfig::jobs(1)).with_block_events(100),
            Runner::new(EngineConfig::jobs(2)).with_block_events(100),
            Runner::new(EngineConfig::jobs(1)).with_store(&store),
            Runner::new(EngineConfig::jobs(3)).with_store(&store),
        ] {
            let got = runner.collected(w, &ExperimentConfig::quick(), spec);
            assert_eq!(got.unwrap_err().to_string(), err.to_string());
        }
        assert_eq!(store.stats().entries, 0, "a failed capture is not kept");
        assert_eq!(store.stats().reserved, 0);
    }

    /// A panicking sink on a reader packet reaches the caller and does
    /// not leave the VM waiting on a reader that is gone.
    #[test]
    fn a_panicking_reader_propagates_instead_of_wedging_the_pass() {
        struct Bomb(u64);
        impl TraceSink for Bomb {
            fn access(&mut self, _: cachegc_trace::Access) {
                self.0 += 1;
                assert!(self.0 < 1000, "sink gives out");
            }
        }
        for jobs in [1, 2] {
            let outcome = std::panic::catch_unwind(|| {
                let runner = Runner::new(EngineConfig::jobs(jobs)).with_block_events(100);
                let sinks = vec![Bomb(0), Bomb(0)];
                runner.sinks(Workload::Rewrite.scaled(1), None, sinks)
            });
            assert!(outcome.is_err(), "jobs {jobs}: the reader's panic surfaced");
        }
    }

    #[test]
    fn timeline_taps_commit_identically_on_every_driver_path() {
        use crate::{TimelineRecorder, TimelineSpec};
        let cfg = ExperimentConfig::quick();
        let w = Workload::Rewrite.scaled(1);
        let spec = TimelineSpec {
            cache: CacheConfig::direct_mapped(16 << 10, 32),
            window_events: 4096,
        };
        // The oracle: the VM driving the tap directly.
        let oracle = {
            let rec = TimelineRecorder::new(spec);
            let (_, tap) = run_spec_sink(w, None, rec.tap()).unwrap();
            rec.commit(&scenario_label(w, None), tap);
            rec.runs()
        };
        assert_eq!(oracle.len(), 1);
        let report = &oracle[0].report;
        assert!(report.windows.len() > 1, "workload spans several windows");
        assert_eq!(
            report.windows_sum(),
            report.totals,
            "window sums reconstruct the aggregate"
        );
        // Live crews, the recording pass, and the sharded replay all
        // commit the same report.
        let store = crate::TraceStore::unbounded();
        for (tag, runner) in [
            ("live jobs 1", Runner::new(EngineConfig::jobs(1))),
            ("live jobs 3", Runner::new(EngineConfig::jobs(3))),
            (
                "record",
                Runner::new(EngineConfig::jobs(2)).with_store(&store),
            ),
            (
                "replay",
                Runner::new(EngineConfig::jobs(2)).with_store(&store),
            ),
        ] {
            let rec = TimelineRecorder::new(spec);
            runner.with_timeline(&rec).control(w, &cfg).unwrap();
            let runs = rec.runs();
            assert_eq!(runs.len(), 1, "{tag}");
            assert_eq!(runs[0], oracle[0], "{tag}: timeline bit-identical");
        }
        // The escape-hatch driver has no scenario to name its run by.
        let rec = TimelineRecorder::new(spec);
        let runner = Runner::new(EngineConfig::jobs(2)).with_timeline(&rec);
        let sinks = vec![Cache::new(CacheConfig::direct_mapped(32 << 10, 64))];
        runner.drive(sinks, |fan| {
            for i in 0..10_000u32 {
                fan.access(cachegc_trace::Access::read(
                    i.wrapping_mul(68) % (1 << 18),
                    cachegc_trace::Context::Mutator,
                ));
            }
        });
        let runs = rec.runs();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].label, "drive");
        assert_eq!(runs[0].report.windows_sum(), runs[0].report.totals);
    }
}
