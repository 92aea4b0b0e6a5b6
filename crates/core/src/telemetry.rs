//! The reporting layer over [`cachegc_telemetry`]: run manifests and
//! progress lines.
//!
//! The instrumentation primitives (counters, phase timers, engine
//! observability) live in the dependency-root `cachegc-telemetry` crate
//! so the GC, VM, and trace engine can emit into them; this module is
//! the downstream half that knows about experiments and trace stores. It
//! re-exports the primitives, so `cachegc_core::telemetry::Telemetry` is
//! the one path experiment code needs, and adds:
//!
//! * [`Manifest`] — a versioned (`cachegc-manifest-v9`), machine-readable
//!   record of one experiment run: configuration, merged counters, phase
//!   timings with pause histograms, engine/worker totals, and trace-store
//!   accounting. Serialized by [`Manifest::to_json`] (hand-rolled, like
//!   every JSON writer in this workspace) and checked by
//!   [`validate_manifest`], which `golden_check --manifest` calls.
//! * [`Progress`] — a thread-safe per-pass progress reporter the
//!   [`Runner`](crate::Runner) terminals tick; one line per completed
//!   pass, to stderr (or an injected writer in tests), never stdout.
//! * [`chrome_trace_json`] — exports a snapshot's captured span records
//!   (crew jobs, backpressure, spill load, GC phases)
//!   as Chrome trace-event JSON, loadable in Perfetto; checked by
//!   [`validate_chrome_trace`], which `golden_check --trace` calls.

use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub use cachegc_telemetry::{
    probe, Counter, EngineReport, EngineTotals, PauseHist, PhaseStats, ShardGuard, Snapshot,
    SpanRecord, Telemetry, WorkerStats, WorkerTotals, BUCKETS,
};

use crate::json::{self, Json};
use crate::store::{ScenarioGauges, StoreStats, TraceStore};

/// The manifest schema identifier this crate writes and validates.
///
/// v5 added the timeline/span counters (`timeline_windows`,
/// `timeline_collections`, `trace_spans`, `trace_spans_dropped`); v6
/// removed the batch-decoder counters (`replay_batches`,
/// `replay_scalar_events`) along with the decoder's fast paths; v7
/// removed `config.schedule`, the affinity counters (`affinity_pinned`,
/// `affinity_fallbacks`) and the per-worker `chunks` with the knobs and
/// the chunk broadcast behind them, and keys engine runs by crew kind
/// (`engine.by_kind`, was `by_schedule`); v8 removed the store's
/// `mapped_bytes` and `duplicates`; v9 added `grid_lane_steps`, the lane
/// steps the grid kernel ran after its repeat filter, which may not
/// exceed `grid_cells_simulated`.
pub const MANIFEST_SCHEMA: &str = "cachegc-manifest-v9";

// ---------------------------------------------------------------------
// Progress
// ---------------------------------------------------------------------

/// Per-pass progress reporting: one line per completed engine pass,
/// written to stderr by default so stdout stays byte-identical with and
/// without it. Ticked by the [`crate::Runner`] terminals when the runner
/// carries one.
pub struct Progress {
    experiment: String,
    total: usize,
    done: AtomicUsize,
    start: Instant,
    out: Mutex<Box<dyn Write + Send>>,
}

impl fmt::Debug for Progress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Progress")
            .field("experiment", &self.experiment)
            .field("total", &self.total)
            .field("done", &self.done.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Progress {
    /// A reporter writing to stderr, expecting `total` passes.
    pub fn stderr(experiment: &str, total: usize) -> Progress {
        Progress::to_writer(experiment, total, Box::new(std::io::stderr()))
    }

    /// A reporter writing to an arbitrary sink (test injection point).
    pub fn to_writer(experiment: &str, total: usize, out: Box<dyn Write + Send>) -> Progress {
        Progress {
            experiment: experiment.to_string(),
            total,
            done: AtomicUsize::new(0),
            start: Instant::now(),
            out: Mutex::new(out),
        }
    }

    /// Passes completed so far.
    pub fn completed(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }

    /// Record one completed pass of `events` events that took
    /// `pass_secs`, and emit its line with the pass's events/s rate (and
    /// the store's hits and misses, given one). Write failures are
    /// swallowed: progress is a side channel, never worth killing a
    /// sweep over.
    pub fn pass(&self, store: Option<&TraceStore>, events: u64, pass_secs: f64) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let elapsed = self.start.elapsed().as_secs_f64();
        let line = format!(
            "[{}] pass {}/{} done in {:.2}s, {} events/s, {:.1}s elapsed",
            self.experiment,
            done,
            self.total,
            pass_secs,
            event_rate(events, pass_secs),
            elapsed
        );
        self.emit(line, store);
    }

    fn emit(&self, mut line: String, store: Option<&TraceStore>) {
        if let Some(store) = store {
            let s = store.stats();
            line.push_str(&format!(", store: {} hits, {} misses", s.hits, s.misses));
        }
        let mut out = self.out.lock().expect("progress writer poisoned");
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

/// Human-scale events-per-second figure (`"12.4M"`, `"980k"`, `"-"` when
/// the pass was too fast to time).
fn event_rate(events: u64, secs: f64) -> String {
    if secs <= 0.0 {
        return "-".into();
    }
    let rate = events as f64 / secs;
    if rate >= 1e9 {
        format!("{:.1}G", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.1}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

// ---------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------

/// The run configuration block of a [`Manifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestConfig {
    /// Experiment name (`e4_write_policy`), also keys the output file.
    pub experiment: String,
    /// Workload scale the sweep ran at.
    pub scale: u32,
    /// Effective worker budget after clamping to the machine's available
    /// parallelism.
    pub jobs: usize,
    /// Worker budget as requested on the command line (`--jobs`), before
    /// clamping. Differs from `jobs` exactly when the request exceeded
    /// the machine.
    pub jobs_requested: usize,
    /// Human description of the trace-cache setting (`off`, or the byte
    /// budget).
    pub trace_cache: String,
}

/// Trace-store accounting in a [`Manifest`]: the global counters plus
/// the per-scenario gauges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestStore {
    /// Global hit/miss/size counters.
    pub stats: StoreStats,
    /// Per-scenario gauges, sorted by label.
    pub scenarios: Vec<(String, ScenarioGauges)>,
}

/// A versioned, machine-readable record of one experiment run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Run configuration.
    pub config: ManifestConfig,
    /// Merged counters, in [`Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// Merged phase timings, sorted by phase name.
    pub phases: Vec<(String, PhaseStats)>,
    /// Aggregated engine observability.
    pub engine: EngineTotals,
    /// Trace-store accounting, when a store backed the run.
    pub store: Option<ManifestStore>,
}

impl Manifest {
    /// Assemble a manifest from a telemetry snapshot and (optionally)
    /// the run's trace store.
    pub fn gather(
        config: ManifestConfig,
        snapshot: &Snapshot,
        store: Option<&TraceStore>,
    ) -> Manifest {
        Manifest {
            config,
            counters: snapshot.counters().map(|(c, v)| (c.name(), v)).collect(),
            phases: snapshot
                .phases
                .iter()
                .map(|(name, stats)| (name.to_string(), stats.clone()))
                .collect(),
            engine: snapshot.engine.clone(),
            store: store.map(|s| ManifestStore {
                stats: s.stats(),
                scenarios: s.scenario_gauges(),
            }),
        }
    }

    /// Serialize as pretty-printed JSON (schema [`MANIFEST_SCHEMA`]).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open('{');
        w.field("schema", &json_str(MANIFEST_SCHEMA));
        w.field("experiment", &json_str(&self.config.experiment));
        w.key("config");
        w.open('{');
        w.field("scale", &self.config.scale.to_string());
        w.field("jobs", &self.config.jobs.to_string());
        w.field("jobs_requested", &self.config.jobs_requested.to_string());
        w.field("trace_cache", &json_str(&self.config.trace_cache));
        w.close('}');
        w.key("counters");
        w.open('{');
        for &(name, value) in &self.counters {
            w.field(name, &value.to_string());
        }
        w.close('}');
        w.key("phases");
        w.open('{');
        for (name, stats) in &self.phases {
            w.key(name);
            w.open('{');
            w.field("count", &stats.count.to_string());
            w.field("wall_ns", &stats.wall_ns.to_string());
            w.field("cpu_ns", &stats.cpu_ns.to_string());
            w.key("hist");
            w.open('{');
            for (log2, count) in stats.hist.sparse() {
                w.field(&log2.to_string(), &count.to_string());
            }
            w.close('}');
            w.close('}');
        }
        w.close('}');
        w.key("engine");
        w.open('{');
        w.field("runs", &self.engine.runs.to_string());
        w.field(
            "chunks_published",
            &self.engine.chunks_published.to_string(),
        );
        w.field(
            "events_published",
            &self.engine.events_published.to_string(),
        );
        w.field("backpressure_ns", &self.engine.backpressure_ns.to_string());
        w.field("queue_depth_hwm", &self.engine.queue_depth_hwm.to_string());
        w.key("by_kind");
        w.open('{');
        for (kind, runs) in &self.engine.by_kind {
            w.field(kind, &runs.to_string());
        }
        w.close('}');
        w.key("workers");
        w.open('[');
        for worker in &self.engine.workers {
            w.open('{');
            w.field("runs", &worker.runs.to_string());
            w.field("events", &worker.stats.events.to_string());
            w.field("steals", &worker.stats.steals.to_string());
            w.field("idle_ns", &worker.stats.idle_ns.to_string());
            w.close('}');
        }
        w.close(']');
        w.close('}');
        w.key("store");
        match &self.store {
            None => w.raw("null"),
            Some(store) => {
                w.open('{');
                w.field("hits", &store.stats.hits.to_string());
                w.field("misses", &store.stats.misses.to_string());
                w.field("coalesced", &store.stats.coalesced.to_string());
                w.field("over_budget", &store.stats.over_budget.to_string());
                w.field("entries", &store.stats.entries.to_string());
                w.field("evictions", &store.stats.evictions.to_string());
                w.field("bytes_evicted", &store.stats.bytes_evicted.to_string());
                w.field("spills", &store.stats.spills.to_string());
                w.field("spill_loads", &store.stats.spill_loads.to_string());
                w.field("spill_rejects", &store.stats.spill_rejects.to_string());
                w.field("bytes", &store.stats.bytes.to_string());
                w.field("reserved", &store.stats.reserved.to_string());
                w.field("peak_bytes", &store.stats.peak_bytes.to_string());
                w.field("events", &store.stats.events.to_string());
                w.key("scenarios");
                w.open('{');
                for (label, g) in &store.scenarios {
                    w.key(label);
                    w.open('{');
                    w.field("hits", &g.hits.to_string());
                    w.field("misses", &g.misses.to_string());
                    w.field("evictions", &g.evictions.to_string());
                    w.field("spill_loads", &g.spill_loads.to_string());
                    w.field("bytes", &g.bytes.to_string());
                    w.field("events", &g.events.to_string());
                    w.field("record_ns", &g.record_ns.to_string());
                    w.close('}');
                }
                w.close('}');
                w.close('}');
            }
        }
        w.close('}');
        w.finish()
    }

    /// Write the manifest to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Any I/O error from directory creation or the write.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A tiny indenting JSON emitter: the manifest has enough nesting that
/// raw `format!` strings (the [`crate::report`] idiom) stop being
/// readable, but the output stays a plain `String`.
struct JsonWriter {
    out: String,
    indent: usize,
    need_comma: bool,
}

impl JsonWriter {
    fn new() -> JsonWriter {
        JsonWriter {
            out: String::new(),
            indent: 0,
            need_comma: false,
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    fn pre_value(&mut self) {
        if self.need_comma {
            self.out.push(',');
        }
        if self.indent > 0 {
            self.newline();
        }
    }

    fn open(&mut self, bracket: char) {
        // After a `key(...)` the cursor sits right past `": "`; only a
        // bare container (array element) needs comma/newline handling.
        if !self.out.ends_with(": ") {
            self.pre_value();
        }
        self.out.push(bracket);
        self.indent += 1;
        self.need_comma = false;
    }

    fn close(&mut self, bracket: char) {
        self.indent -= 1;
        if self.need_comma {
            self.newline();
        }
        self.out.push(bracket);
        self.need_comma = true;
    }

    fn key(&mut self, name: &str) {
        self.pre_value();
        self.out.push_str(&json_str(name));
        self.out.push_str(": ");
        self.need_comma = false;
    }

    fn raw(&mut self, value: &str) {
        self.out.push_str(value);
        self.need_comma = true;
    }

    fn field(&mut self, name: &str, value: &str) {
        self.key(name);
        self.raw(value);
    }

    fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

/// Validate a serialized manifest: schema identifier, required
/// structure, non-negative integer counters, and the cross-field
/// invariants the instrumentation guarantees (each phase's histogram
/// sums to its span count; the grid kernel's lane steps do not exceed
/// its simulated cells; the GC pause-phase counts equal the GC
/// collection counters; per-kind engine runs sum to total runs).
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn validate_manifest(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    let root = doc.as_obj().ok_or("manifest: root is not an object")?;
    let schema = root
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("manifest: missing schema string")?;
    if schema != MANIFEST_SCHEMA {
        return Err(format!(
            "manifest: schema '{schema}' is not '{MANIFEST_SCHEMA}'"
        ));
    }
    let experiment = root
        .get("experiment")
        .and_then(Json::as_str)
        .ok_or("manifest: missing experiment string")?;
    if experiment.is_empty() {
        return Err("manifest: experiment name is empty".into());
    }
    let config = root.get("config").ok_or("manifest: missing config")?;
    for key in ["scale", "jobs", "jobs_requested"] {
        config
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("manifest: config.{key} is not a non-negative integer"))?;
    }
    config
        .get("trace_cache")
        .and_then(Json::as_str)
        .ok_or("manifest: config.trace_cache is not a string")?;

    let counters = root
        .get("counters")
        .and_then(Json::as_obj)
        .ok_or("manifest: missing counters object")?;
    if let Some(name) = counters
        .keys()
        .find(|k| !Counter::ALL.iter().any(|c| c.name() == k.as_str()))
    {
        return Err(format!("manifest: unknown counter '{name}'"));
    }
    for c in Counter::ALL {
        counters
            .get(c.name())
            .and_then(Json::as_u64)
            .ok_or_else(|| {
                format!(
                    "manifest: counter '{}' missing or not a non-negative integer",
                    c.name()
                )
            })?;
    }

    let phases = root
        .get("phases")
        .and_then(Json::as_obj)
        .ok_or("manifest: missing phases object")?;
    for (name, phase) in phases {
        let count = phase
            .get("count")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("manifest: phase '{name}' has no count"))?;
        for key in ["wall_ns", "cpu_ns"] {
            phase.get(key).and_then(Json::as_u64).ok_or_else(|| {
                format!("manifest: phase '{name}'.{key} is not a non-negative integer")
            })?;
        }
        let hist = phase
            .get("hist")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("manifest: phase '{name}' has no hist"))?;
        let mut sum = 0u64;
        for (bucket, v) in hist {
            let b: usize = bucket
                .parse()
                .map_err(|_| format!("manifest: phase '{name}' hist bucket '{bucket}'"))?;
            if b >= BUCKETS {
                return Err(format!(
                    "manifest: phase '{name}' hist bucket {b} out of range"
                ));
            }
            let v = v.as_u64().ok_or_else(|| {
                format!("manifest: phase '{name}' hist value for bucket {bucket}")
            })?;
            sum = sum
                .checked_add(v)
                .ok_or_else(|| format!("manifest: phase '{name}' hist sum overflows u64"))?;
        }
        if sum != count {
            return Err(format!(
                "manifest: phase '{name}' hist sums to {sum}, count is {count}"
            ));
        }
    }

    // A grid lane steps over at most every event: the repeat filter
    // only ever removes steps.
    let counter = |c: Counter| counters.get(c.name()).and_then(Json::as_u64).unwrap();
    let (steps, cells) = (
        counter(Counter::GridLaneSteps),
        counter(Counter::GridCellsSimulated),
    );
    if steps > cells {
        return Err(format!(
            "manifest: grid_lane_steps {steps} exceeds grid_cells_simulated {cells}"
        ));
    }

    // The GC probes count and time each pause at the same site, so the
    // phase counts and the collection counters must agree exactly.
    for (phase_name, counter) in [
        ("gc_minor", Counter::GcMinorCollections),
        ("gc_major", Counter::GcMajorCollections),
    ] {
        let collections = counters.get(counter.name()).and_then(Json::as_u64).unwrap();
        let spans = phases
            .get(phase_name)
            .and_then(|p| p.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if collections != spans {
            return Err(format!(
                "manifest: {} = {collections} but phase '{phase_name}' recorded {spans} pauses",
                counter.name()
            ));
        }
    }

    let engine = root.get("engine").ok_or("manifest: missing engine")?;
    for key in [
        "runs",
        "chunks_published",
        "events_published",
        "backpressure_ns",
        "queue_depth_hwm",
    ] {
        engine
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("manifest: engine.{key} is not a non-negative integer"))?;
    }
    let runs = engine.get("runs").and_then(Json::as_u64).unwrap();
    let by_kind = engine
        .get("by_kind")
        .and_then(Json::as_obj)
        .ok_or("manifest: missing engine.by_kind")?;
    let mut kind_runs = 0u64;
    for (kind, v) in by_kind {
        let v = v.as_u64().ok_or_else(|| {
            format!("manifest: engine.by_kind.{kind} is not a non-negative integer")
        })?;
        kind_runs = kind_runs
            .checked_add(v)
            .ok_or("manifest: engine.by_kind sum overflows u64")?;
    }
    if kind_runs != runs {
        return Err(format!(
            "manifest: engine runs {runs} != per-kind sum {kind_runs}"
        ));
    }
    let workers = engine
        .get("workers")
        .and_then(Json::as_arr)
        .ok_or("manifest: missing engine.workers")?;
    for (i, worker) in workers.iter().enumerate() {
        for key in ["runs", "events", "steals", "idle_ns"] {
            worker.get(key).and_then(Json::as_u64).ok_or_else(|| {
                format!("manifest: engine.workers[{i}].{key} is not a non-negative integer")
            })?;
        }
    }

    match root.get("store") {
        None => return Err("manifest: missing store field".into()),
        Some(Json::Null) => {}
        Some(store) => {
            let field = |key: &str| {
                store
                    .get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("manifest: store.{key} is not a non-negative integer"))
            };
            for key in [
                "hits",
                "coalesced",
                "spills",
                "spill_rejects",
                "bytes",
                "reserved",
                "peak_bytes",
                "events",
            ] {
                field(key)?;
            }
            // Store arrivals must balance: every live run (a miss) and
            // every spill load was kept — and is resident or since
            // evicted — or was dropped over budget.
            let sum = |keys: &[&str]| {
                keys.iter().try_fold(0u64, |acc, key| {
                    acc.checked_add(field(key)?).ok_or_else(|| {
                        format!("manifest: store {} overflows u64", keys.join(" + "))
                    })
                })
            };
            let arrivals = sum(&["misses", "spill_loads"])?;
            let accounted = sum(&["entries", "evictions", "over_budget"])?;
            if arrivals != accounted {
                return Err(format!(
                    "manifest: store offers unbalanced: misses + spill_loads = {arrivals} but \
                     entries + evictions + over_budget = {accounted}"
                ));
            }
            let scenarios = store
                .get("scenarios")
                .and_then(Json::as_obj)
                .ok_or("manifest: missing store.scenarios")?;
            for (label, g) in scenarios {
                for key in [
                    "hits",
                    "misses",
                    "evictions",
                    "spill_loads",
                    "bytes",
                    "events",
                    "record_ns",
                ] {
                    g.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("manifest: store scenario '{label}'.{key}"))?;
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------

/// Serialize a snapshot's captured span records as Chrome trace-event
/// JSON (the "JSON array format"), loadable in Perfetto and
/// `chrome://tracing`.
///
/// Each [`SpanRecord`] becomes one complete (`"ph": "X"`) event with
/// microsecond timestamps relative to the telemetry epoch; thread names
/// are emitted as `"ph": "M"` metadata records so worker rows are
/// labeled. Snapshots without spans (registry not built with
/// [`Telemetry::with_spans`]) export an empty-but-valid trace.
pub fn chrome_trace_json(snapshot: &Snapshot) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    let push = |line: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };
    push(
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
         \"args\": {\"name\": \"cachegc\"}}"
            .to_string(),
        &mut out,
        &mut first,
    );
    for (tid, name) in snapshot.threads.iter().enumerate() {
        push(
            format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"name\": {}}}}}",
                json_str(name)
            ),
            &mut out,
            &mut first,
        );
    }
    for span in &snapshot.spans {
        push(
            format!(
                "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {:.3}, \"dur\": {:.3}}}",
                json_str(span.name),
                json_str(span.cat),
                span.tid,
                span.start_ns as f64 / 1e3,
                span.dur_ns as f64 / 1e3,
            ),
            &mut out,
            &mut first,
        );
    }
    out.push_str("\n]\n");
    out
}

/// What [`validate_chrome_trace`] found in a well-formed trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Complete (`"ph": "X"`) span events.
    pub spans: usize,
    /// Named threads whose name starts with `worker-` (crew rows).
    pub workers: usize,
    /// All named threads.
    pub threads: usize,
}

/// Validate Chrome trace-event JSON produced by [`chrome_trace_json`]:
/// a JSON array whose `"X"` events carry name/ts/dur/tid and whose
/// metadata names every referenced thread row.
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceSummary, String> {
    let doc = json::parse(text)?;
    let events = doc.as_arr().ok_or("trace: root is not an array")?;
    let mut named = std::collections::BTreeMap::new();
    let mut spans = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("trace: event {i} has no ph"))?;
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("trace: event {i} has no name"))?;
        let tid = ev
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("trace: event {i} has no tid"))?;
        match ph {
            "M" => {
                if name == "thread_name" {
                    let thread = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("trace: event {i} names no thread"))?;
                    named.insert(tid, thread.to_string());
                }
            }
            "X" => {
                spans += 1;
                for key in ["ts", "dur"] {
                    let v = ev
                        .get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("trace: event {i}.{key} is not a number"))?;
                    if v < 0.0 {
                        return Err(format!("trace: event {i}.{key} is negative"));
                    }
                }
                if !named.contains_key(&tid) {
                    return Err(format!("trace: event {i} on unnamed thread row {tid}"));
                }
            }
            other => return Err(format!("trace: event {i} has unsupported ph '{other}'")),
        }
    }
    Ok(ChromeTraceSummary {
        spans,
        workers: named.values().filter(|n| n.starts_with("worker-")).count(),
        threads: named.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample_config() -> ManifestConfig {
        ManifestConfig {
            experiment: "e4_write_policy".into(),
            scale: 1,
            jobs: 2,
            jobs_requested: 2,
            trace_cache: "4294967296".into(),
        }
    }

    #[test]
    fn empty_run_manifest_round_trips_validation() {
        let telemetry = Arc::new(Telemetry::new());
        let m = Manifest::gather(sample_config(), &telemetry.snapshot(), None);
        let json = m.to_json();
        validate_manifest(&json).unwrap();
        assert!(json.contains("\"schema\": \"cachegc-manifest-v9\""));
        assert!(json.contains("\"jobs_requested\": 2"));
        assert!(json.contains("\"store\": null"));
    }

    #[test]
    fn populated_manifest_validates_and_carries_the_data() {
        let telemetry = Arc::new(Telemetry::new());
        {
            let _guard = telemetry.attach();
            probe::count(Counter::VmRuns, 2);
            probe::count(Counter::GcMinorCollections, 3);
            for _ in 0..3 {
                drop(probe::phase("gc_minor"));
            }
            drop(probe::phase_cpu("vm_execute"));
        }
        telemetry.record_engine(&EngineReport {
            kind: "replay_shard",
            jobs: 2,
            sinks: 4,
            chunks_published: 8,
            events_published: 640,
            backpressure_ns: 5,
            queue_depth_hwm: 3,
            workers: vec![WorkerStats::default(); 2],
        });
        let store = TraceStore::unbounded();
        let w = cachegc_workloads::Workload::Rewrite.scaled(1);
        // A full miss -> live run -> offer cycle, so the store's offer
        // accounting balances (validation checks the invariant).
        let crate::Acquired::Miss(ticket) = store.acquire(w, None) else {
            panic!("an empty store misses");
        };
        use cachegc_trace::TraceSink as _;
        let mut rec = ticket.recorder();
        rec.access(cachegc_trace::Access::read(
            0x1000,
            cachegc_trace::Context::Mutator,
        ));
        ticket.offer(
            rec,
            cachegc_vm::RunStats::default(),
            std::time::Duration::ZERO,
        );
        let m = Manifest::gather(sample_config(), &telemetry.snapshot(), Some(&store));
        let json = m.to_json();
        validate_manifest(&json).unwrap();
        assert!(json.contains("\"vm_runs\": 2"));
        assert!(json.contains("\"gc_minor\""));
        assert!(json.contains("\"events_published\": 640"));
        assert!(json.contains("\"rewrite@1\""));
        // An unbalanced store (a miss whose offer never landed) is
        // rejected.
        let bad = json.replace("\"misses\": 1", "\"misses\": 2");
        assert!(validate_manifest(&bad).unwrap_err().contains("unbalanced"));
    }

    #[test]
    fn validation_rejects_corruption() {
        let telemetry = Arc::new(Telemetry::new());
        {
            let _guard = telemetry.attach();
            probe::count(Counter::GcMinorCollections, 1);
        }
        let m = Manifest::gather(sample_config(), &telemetry.snapshot(), None);
        let good = m.to_json();
        // A collection counter with no matching pause phase.
        let err = validate_manifest(&good).unwrap_err();
        assert!(err.contains("gc_minor"), "{err}");
        // Wrong schema.
        let bad = good.replace("cachegc-manifest-v9", "cachegc-manifest-v8");
        assert!(validate_manifest(&bad).unwrap_err().contains("schema"));
        // Not JSON at all.
        assert!(validate_manifest("{nope").is_err());
        // A negative counter.
        let m2 = Manifest::gather(
            sample_config(),
            &Arc::new(Telemetry::new()).snapshot(),
            None,
        );
        let bad = m2.to_json().replace("\"vm_runs\": 0", "\"vm_runs\": -1");
        assert!(validate_manifest(&bad).unwrap_err().contains("vm_runs"));
        // A missing counter key.
        let bad = m2.to_json().replace("\"vm_runs\": 0,", "");
        assert!(validate_manifest(&bad).unwrap_err().contains("vm_runs"));
        // More lane steps than cells: the filter can only remove steps.
        let bad = m2
            .to_json()
            .replace("\"grid_lane_steps\": 0", "\"grid_lane_steps\": 1");
        let err = validate_manifest(&bad).unwrap_err();
        assert!(err.contains("grid_lane_steps 1 exceeds"), "{err}");
        // Counters v6 and v7 removed.
        for gone in ["replay_batches", "affinity_pinned"] {
            let bad = m2.to_json().replace(
                "\"vm_runs\": 0,",
                &format!("\"vm_runs\": 0, \"{gone}\": 0,"),
            );
            assert!(validate_manifest(&bad)
                .unwrap_err()
                .contains(&format!("unknown counter '{gone}'")));
        }
    }

    /// Replace the body of the first `"key": {...}` object after `after`.
    fn splice_object(json: &str, after: &str, key: &str, body: &str) -> String {
        let from = json.find(after).expect("anchor") + after.len();
        let open =
            from + json[from..].find(&format!("\"{key}\": {{")).expect("key") + key.len() + 5;
        let close = open + json[open..].find('}').expect("flat object");
        format!("{}{body}{}", &json[..open], &json[close..])
    }

    #[test]
    fn sums_that_overflow_u64_are_errors_not_panics() {
        let telemetry = Arc::new(Telemetry::new());
        {
            let _guard = telemetry.attach();
            drop(probe::phase_cpu("vm_execute"));
        }
        telemetry.record_engine(&EngineReport {
            kind: "replay_shard",
            jobs: 1,
            sinks: 1,
            chunks_published: 0,
            events_published: 0,
            backpressure_ns: 0,
            queue_depth_hwm: 0,
            workers: vec![WorkerStats::default()],
        });
        let store = TraceStore::unbounded();
        let w = cachegc_workloads::Workload::Rewrite.scaled(1);
        let crate::Acquired::Miss(ticket) = store.acquire(w, None) else {
            panic!("an empty store misses");
        };
        ticket.offer(
            cachegc_trace::Recorder::new(),
            cachegc_vm::RunStats::default(),
            std::time::Duration::ZERO,
        );
        let good = Manifest::gather(sample_config(), &telemetry.snapshot(), Some(&store)).to_json();
        validate_manifest(&good).unwrap();
        const MAX: &str = "18446744073709551615";

        // A one-span phase whose hist wraps to 1 in release arithmetic.
        let bad = splice_object(
            &good,
            "\"vm_execute\"",
            "hist",
            &format!("\"0\": {MAX}, \"1\": 2"),
        );
        let err = validate_manifest(&bad).unwrap_err();
        assert!(err.contains("hist sum overflows"), "{err}");

        // Per-kind engine runs.
        let bad = splice_object(
            &good,
            "\"engine\"",
            "by_kind",
            &format!("\"a\": {MAX}, \"b\": 2"),
        );
        let err = validate_manifest(&bad).unwrap_err();
        assert!(err.contains("by_kind sum overflows"), "{err}");

        // The store's offer balance.
        let bad = good.replace("\"spill_loads\": 0", &format!("\"spill_loads\": {MAX}"));
        let err = validate_manifest(&bad).unwrap_err();
        assert!(err.contains("misses + spill_loads overflows"), "{err}");
        let bad = good.replace("\"evictions\": 0", &format!("\"evictions\": {MAX}"));
        let err = validate_manifest(&bad).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
    }

    #[test]
    fn progress_lines_go_to_the_injected_writer() {
        use std::io;
        use std::sync::Mutex as StdMutex;

        #[derive(Clone, Default)]
        struct Buf(Arc<StdMutex<Vec<u8>>>);
        impl io::Write for Buf {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let buf = Buf::default();
        let progress = Progress::to_writer("e1_cache_grid", 3, Box::new(buf.clone()));
        let store = TraceStore::unbounded();
        progress.pass(None, 1_000, 0.1);
        progress.pass(Some(&store), 1_000, 0.1);
        assert_eq!(progress.completed(), 2);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("[e1_cache_grid] pass 1/3 done"));
        assert!(!lines[0].contains("store:"), "no store, no store column");
        assert!(lines[1].starts_with("[e1_cache_grid] pass 2/3 done"));
        assert!(lines[1].contains("store: 0 hits, 0 misses"));
    }

    #[test]
    fn pass_lines_carry_rate_and_pass_time() {
        use std::io;
        use std::sync::Mutex as StdMutex;

        #[derive(Clone, Default)]
        struct Buf(Arc<StdMutex<Vec<u8>>>);
        impl io::Write for Buf {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let buf = Buf::default();
        let progress = Progress::to_writer("e4_write_policy", 2, Box::new(buf.clone()));
        progress.pass(None, 5_200_000, 0.5);
        progress.pass(None, 100, 0.0);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines[0].starts_with("[e4_write_policy] pass 1/2 done in 0.50s, 10.4M events/s"),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("s elapsed"));
        // An untimeable pass degrades to a dash, never a divide-by-zero.
        assert!(lines[1].contains(" - events/s"), "{}", lines[1]);
    }

    #[test]
    fn event_rate_scales_units() {
        assert_eq!(event_rate(2_500_000_000, 1.0), "2.5G");
        assert_eq!(event_rate(1_500, 1.0), "1.5k");
        assert_eq!(event_rate(999, 1.0), "999");
        assert_eq!(event_rate(1, 0.0), "-");
    }

    #[test]
    fn chrome_trace_round_trips_validation() {
        let t = Arc::new(Telemetry::with_spans());
        std::thread::scope(|s| {
            for i in 0..2 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    let _g = t.attach_named(&format!("worker-{i}"));
                    let t0 = Instant::now();
                    std::hint::black_box((0..10_000u64).sum::<u64>());
                    probe::span("replay_shard", "packet", t0);
                    probe::span("backpressure", "sched", Instant::now());
                });
            }
        });
        {
            let _g = t.attach();
            drop(probe::phase("sink_drain"));
        }
        let trace = chrome_trace_json(&t.snapshot());
        let summary = validate_chrome_trace(&trace).unwrap();
        assert_eq!(summary.spans, 5);
        assert_eq!(summary.workers, 2);
        assert_eq!(summary.threads, 3);
        assert!(trace.contains("\"thread_name\""));

        // An empty snapshot still exports a valid (if boring) trace.
        let empty = chrome_trace_json(&Arc::new(Telemetry::new()).snapshot());
        assert_eq!(validate_chrome_trace(&empty).unwrap().spans, 0);

        // Corruption is rejected.
        assert!(validate_chrome_trace("{}").is_err());
        let bad = trace.replace("\"ph\": \"X\"", "\"ph\": \"Q\"");
        assert!(validate_chrome_trace(&bad).is_err());
    }
}
