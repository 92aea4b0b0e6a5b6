//! The one command line every experiment binary speaks.
//!
//! [`ExperimentArgs::parse`] replaces the per-binary ad-hoc argument
//! scans: every regenerator accepts the same flags with the same
//! spellings and the same exit-code discipline (`--help` exits 0; a bad
//! flag prints usage to stderr and exits 2). Binaries with no use for a
//! knob still accept it, so a sweep over all binaries can pass one
//! uniform argument vector.

use std::path::{Path, PathBuf};

use cachegc_core::report::{csv_table_path, Table};
use cachegc_core::{EngineConfig, TimelineSpec, TraceStore};

/// Byte budget the plain `--trace-cache on` spelling buys (4 GiB — the
/// whole golden-scale scenario set encodes to ~1 GiB at the measured
/// 2.7–3.0 bytes/event, so this holds every scenario with headroom
/// while still bounding a paper-scale sweep).
pub const DEFAULT_TRACE_CACHE_BYTES: u64 = 4 << 30;

/// The spill directory the bare `spill` option (no `:DIR`) selects.
pub const DEFAULT_SPILL_DIR: &str = "results/tracestore";

/// Whether (and how large) a scenario-keyed [`TraceStore`] backs the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCacheMode {
    /// No store; every pass runs the VM live.
    Off,
    /// A store with the [`DEFAULT_TRACE_CACHE_BYTES`] budget.
    On,
    /// A store with an explicit byte budget.
    Budget(u64),
}

/// The `--trace-cache` knob: the store mode plus its disk spill option,
/// spelled `on|off|BYTES[,spill[:DIR]]`.
/// `off` takes no options (a spill directory for a store that does not
/// exist is a contradiction worth rejecting, not ignoring).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCacheArg {
    /// Store mode: off, default budget, or an explicit byte budget.
    pub mode: TraceCacheMode,
    /// Spill directory for write-through segment files, when enabled.
    pub spill: Option<PathBuf>,
}

impl TraceCacheArg {
    /// The default setting: a store with the default budget, no spill.
    pub fn on() -> TraceCacheArg {
        TraceCacheArg {
            mode: TraceCacheMode::On,
            spill: None,
        }
    }

    /// No store at all.
    pub fn off() -> TraceCacheArg {
        TraceCacheArg {
            mode: TraceCacheMode::Off,
            spill: None,
        }
    }

    /// A store with an explicit byte budget, no spill.
    pub fn budget(bytes: u64) -> TraceCacheArg {
        TraceCacheArg {
            mode: TraceCacheMode::Budget(bytes),
            spill: None,
        }
    }

    /// Parse a `--trace-cache` value: `on|off|BYTES[,spill[:DIR]]`.
    pub fn parse(raw: &str) -> Option<TraceCacheArg> {
        let mut parts = raw.split(',');
        let mode = match parts.next()? {
            "on" => TraceCacheMode::On,
            "off" => TraceCacheMode::Off,
            n => TraceCacheMode::Budget(n.parse().ok()?),
        };
        let mut spill = None;
        let mut options = 0usize;
        for opt in parts {
            options += 1;
            if opt == "spill" {
                spill = Some(PathBuf::from(DEFAULT_SPILL_DIR));
            } else if let Some(dir) = opt.strip_prefix("spill:") {
                if dir.is_empty() {
                    return None;
                }
                spill = Some(PathBuf::from(dir));
            } else {
                return None;
            }
        }
        if mode == TraceCacheMode::Off && options > 0 {
            return None;
        }
        Some(TraceCacheArg { mode, spill })
    }

    /// The store this argument asks for (`None` for `off`).
    pub fn store(&self) -> Option<TraceStore> {
        let bytes = match self.mode {
            TraceCacheMode::Off => return None,
            TraceCacheMode::On => DEFAULT_TRACE_CACHE_BYTES,
            TraceCacheMode::Budget(bytes) => bytes,
        };
        let mut store = TraceStore::with_budget(bytes);
        if let Some(dir) = &self.spill {
            store = store.with_spill(dir.clone());
        }
        Some(store)
    }

    /// A human description of the setting for the run manifest.
    pub fn describe(&self) -> String {
        let mut out = match self.mode {
            TraceCacheMode::Off => return "off".into(),
            TraceCacheMode::On => format!("{DEFAULT_TRACE_CACHE_BYTES} bytes"),
            TraceCacheMode::Budget(bytes) => format!("{bytes} bytes"),
        };
        if let Some(dir) = &self.spill {
            out.push_str(&format!(", spill {}", dir.display()));
        }
        out
    }
}

/// The `--metrics` knob: whether (and where) the run's telemetry goes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum MetricsArg {
    /// No telemetry: probes stay dormant, nothing is gathered.
    #[default]
    Off,
    /// Print a human-readable timing table after the results.
    Table,
    /// Write a `cachegc-manifest-v1` JSON manifest; `None` means the
    /// default path `results/manifest/<experiment>.json`.
    Json(Option<PathBuf>),
}

impl MetricsArg {
    /// Parse a `--metrics` value: `off`, `table`, `json`, or `json:PATH`.
    pub fn parse(raw: &str) -> Option<MetricsArg> {
        match raw {
            "off" => Some(MetricsArg::Off),
            "table" => Some(MetricsArg::Table),
            "json" => Some(MetricsArg::Json(None)),
            _ => match raw.strip_prefix("json:") {
                Some(path) if !path.is_empty() => Some(MetricsArg::Json(Some(PathBuf::from(path)))),
                _ => None,
            },
        }
    }

    /// True when telemetry should be gathered at all.
    pub fn enabled(&self) -> bool {
        *self != MetricsArg::Off
    }
}

/// The `--timeline` knob: whether every pass additionally samples a
/// windowed cache/GC timeline, and where the `cachegc-timeline-v1`
/// JSONL stream lands. Spelled `off` or `jsonl[:PATH][,window=N]`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TimelineArg {
    /// No timeline: passes run exactly as before.
    #[default]
    Off,
    /// Emit the JSONL stream (plus a summary table on stderr).
    Jsonl {
        /// Output path; `None` means `results/timeline/<experiment>.jsonl`.
        path: Option<PathBuf>,
        /// Window length override in events; `None` keeps the default
        /// 1 M-event windows.
        window: Option<u64>,
    },
}

impl TimelineArg {
    /// Parse a `--timeline` value: `off` or `jsonl[:PATH][,window=N]`.
    pub fn parse(raw: &str) -> Option<TimelineArg> {
        if raw == "off" {
            return Some(TimelineArg::Off);
        }
        let mut parts = raw.split(',');
        let head = parts.next()?;
        let path = if head == "jsonl" {
            None
        } else {
            let p = head.strip_prefix("jsonl:")?;
            if p.is_empty() {
                return None;
            }
            Some(PathBuf::from(p))
        };
        let mut window = None;
        for opt in parts {
            let v = opt.strip_prefix("window=")?;
            let n: u64 = v.parse().ok()?;
            if n == 0 {
                return None;
            }
            window = Some(n);
        }
        Some(TimelineArg::Jsonl { path, window })
    }

    /// True when passes should carry a timeline tap.
    pub fn enabled(&self) -> bool {
        *self != TimelineArg::Off
    }

    /// The sampling spec this argument asks for (the paper's 64 KB/32 B
    /// geometry, with the window override applied).
    pub fn spec(&self) -> TimelineSpec {
        let mut spec = TimelineSpec::default();
        if let TimelineArg::Jsonl {
            window: Some(n), ..
        } = self
        {
            spec.window_events = *n;
        }
        spec
    }

    /// Where the JSONL stream lands for `experiment` (explicit path, or
    /// the default `results/timeline/<experiment>.jsonl`).
    pub fn path(&self, experiment: &str) -> Option<PathBuf> {
        match self {
            TimelineArg::Off => None,
            TimelineArg::Jsonl { path, .. } => Some(path.clone().unwrap_or_else(|| {
                PathBuf::from("results/timeline").join(format!("{experiment}.jsonl"))
            })),
        }
    }
}

/// The `--trace-export` knob: whether the run's telemetry captures
/// timestamped spans and exports them as Chrome trace-event JSON
/// (loadable in Perfetto / `chrome://tracing`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TraceExportArg {
    /// No span capture, no export.
    #[default]
    Off,
    /// Export Chrome trace-event JSON; `None` means the default path
    /// `results/trace/<experiment>.json`.
    Chrome(Option<PathBuf>),
}

impl TraceExportArg {
    /// Parse a `--trace-export` value: `off`, `chrome`, or `chrome:PATH`.
    pub fn parse(raw: &str) -> Option<TraceExportArg> {
        match raw {
            "off" => Some(TraceExportArg::Off),
            "chrome" => Some(TraceExportArg::Chrome(None)),
            _ => match raw.strip_prefix("chrome:") {
                Some(path) if !path.is_empty() => {
                    Some(TraceExportArg::Chrome(Some(PathBuf::from(path))))
                }
                _ => None,
            },
        }
    }

    /// True when spans should be captured (forces a span-enabled
    /// telemetry registry even under `--metrics off`).
    pub fn enabled(&self) -> bool {
        *self != TraceExportArg::Off
    }

    /// Where the Chrome trace lands for `experiment`.
    pub fn path(&self, experiment: &str) -> Option<PathBuf> {
        match self {
            TraceExportArg::Off => None,
            TraceExportArg::Chrome(path) => Some(path.clone().unwrap_or_else(|| {
                PathBuf::from("results/trace").join(format!("{experiment}.json"))
            })),
        }
    }
}

/// Parsed common arguments of an experiment binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentArgs {
    /// Workload scale (`--scale N`).
    pub scale: u32,
    /// Effective worker threads: the request clamped to the machine's
    /// available parallelism. 1 is the sequential oracle.
    pub jobs: usize,
    /// Worker threads as requested (`--jobs N`), before clamping. The
    /// driver warns (and counts) when this exceeds `jobs`; both land in
    /// the run manifest.
    pub jobs_requested: usize,
    /// CSV output path (`--csv PATH`), if requested.
    pub csv: Option<PathBuf>,
    /// Trace record/replay cache (`--trace-cache on|off|BYTES[,spill[:DIR]]`;
    /// default on).
    pub trace_cache: TraceCacheArg,
    /// Telemetry sink (`--metrics off|table|json[:PATH]`; default off).
    pub metrics: MetricsArg,
    /// Windowed cache/GC timeline export (`--timeline
    /// off|jsonl[:PATH][,window=N]`; default off).
    pub timeline: TimelineArg,
    /// Scheduler trace export (`--trace-export off|chrome[:PATH]`;
    /// default off).
    pub trace_export: TraceExportArg,
    /// Report sweep progress on stderr (`--progress`).
    pub progress: bool,
}

#[derive(Debug)]
enum Parse {
    Help,
    Args(ExperimentArgs),
}

impl ExperimentArgs {
    /// Parse the process arguments. `--help` prints usage and exits 0; an
    /// unknown flag or malformed value prints usage to stderr and exits 2.
    /// `binary` and `about` head the usage text; `default_scale` is this
    /// binary's default workload scale.
    pub fn parse(binary: &str, about: &str, default_scale: u32) -> ExperimentArgs {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match Self::try_parse(&argv, default_scale) {
            Ok(Parse::Help) => {
                print!("{}", usage(binary, about, default_scale));
                std::process::exit(0);
            }
            Ok(Parse::Args(args)) => args,
            Err(msg) => {
                eprintln!("{binary}: {msg}");
                eprint!("{}", usage(binary, about, default_scale));
                std::process::exit(2);
            }
        }
    }

    fn try_parse(argv: &[String], default_scale: u32) -> Result<Parse, String> {
        Self::try_parse_with_cores(argv, default_scale, cachegc_core::default_jobs())
    }

    /// The parse itself, with the machine's available parallelism
    /// injected so tests can drive the jobs clamp without a dependency on
    /// the test machine's core count.
    fn try_parse_with_cores(
        argv: &[String],
        default_scale: u32,
        available: usize,
    ) -> Result<Parse, String> {
        let mut scale = default_scale;
        let mut jobs = cachegc_core::default_jobs();
        let mut csv: Option<PathBuf> = None;
        let mut trace_cache = TraceCacheArg::on();
        let mut metrics = MetricsArg::Off;
        let mut timeline = TimelineArg::Off;
        let mut trace_export = TraceExportArg::Off;
        let mut progress = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--help" | "-h" => return Ok(Parse::Help),
                "--scale" => scale = value(flag, it.next())?,
                "--jobs" => jobs = value(flag, it.next())?,
                "--csv" => {
                    let raw = it.next().ok_or("--csv needs a path")?;
                    csv = Some(PathBuf::from(raw));
                }
                "--trace-cache" => {
                    let raw = it.next().ok_or("--trace-cache needs a value")?;
                    trace_cache = TraceCacheArg::parse(raw).ok_or_else(|| {
                        format!(
                            "--trace-cache: malformed value '{raw}' \
                             (on|off|BYTES[,spill[:DIR]])"
                        )
                    })?;
                }
                "--metrics" => {
                    let raw = it.next().ok_or("--metrics needs a value")?;
                    metrics = MetricsArg::parse(raw).ok_or_else(|| {
                        format!("--metrics: malformed value '{raw}' (off, table, or json[:PATH])")
                    })?;
                }
                "--timeline" => {
                    let raw = it.next().ok_or("--timeline needs a value")?;
                    timeline = TimelineArg::parse(raw).ok_or_else(|| {
                        format!(
                            "--timeline: malformed value '{raw}' \
                             (off or jsonl[:PATH][,window=N])"
                        )
                    })?;
                }
                "--trace-export" => {
                    let raw = it.next().ok_or("--trace-export needs a value")?;
                    trace_export = TraceExportArg::parse(raw).ok_or_else(|| {
                        format!("--trace-export: malformed value '{raw}' (off or chrome[:PATH])")
                    })?;
                }
                "--progress" => progress = true,
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        // Zero jobs is malformed, not "as sequential as possible": `--jobs
        // -2` already exits 2, and a silent clamp would hide the typo.
        if jobs == 0 {
            return Err("--jobs: jobs must be at least 1, got 0".into());
        }
        // More workers than the machine has cores buys nothing but
        // contention (and on a 1-core container, pure overhead): clamp to
        // the available parallelism, keeping the request so the driver
        // can warn and the manifest can record both.
        let jobs_requested = jobs;
        let jobs = jobs.min(available.max(1));
        Ok(Parse::Args(ExperimentArgs {
            scale,
            jobs,
            jobs_requested,
            csv,
            trace_cache,
            metrics,
            timeline,
            trace_export,
            progress,
        }))
    }

    /// The engine configuration these arguments describe.
    pub fn engine(&self) -> EngineConfig {
        EngineConfig::jobs(self.jobs)
    }

    /// True when the jobs request was clamped to the machine.
    pub fn jobs_clamped(&self) -> bool {
        self.jobs < self.jobs_requested
    }

    /// The trace store these arguments ask for (`None` under
    /// `--trace-cache off`). The caller owns it and attaches a reference
    /// to a [`cachegc_core::Runner`], so one store can span many sweeps.
    pub fn trace_store(&self) -> Option<TraceStore> {
        self.trace_cache.store()
    }

    /// Write `tables` as CSV if `--csv` was passed (a single table lands at
    /// the given path; several become `<stem>_<name>.csv` siblings).
    /// Failures are reported, not fatal: persistence is a side channel,
    /// never worth killing a long sweep over.
    pub fn write_csv(&self, tables: &[&Table]) {
        let Some(base) = &self.csv else { return };
        for t in tables {
            let path = csv_table_path(base, t, tables.len());
            match t.write_csv(&path) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
            }
        }
    }
}

fn value<T: std::str::FromStr>(flag: &str, raw: Option<&String>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: malformed value '{raw}'"))
}

fn usage(binary: &str, about: &str, default_scale: u32) -> String {
    format!(
        "{binary} — {about}\n\
         \n\
         usage: {binary} [--scale N] [--jobs N] [--csv PATH]\n\
         \x20                [--trace-cache on|off|BYTES[,spill[:DIR]]]\n\
         \x20                [--metrics off|table|json[:PATH]]\n\
         \x20                [--timeline off|jsonl[:PATH][,window=N]]\n\
         \x20                [--trace-export off|chrome[:PATH]] [--progress]\n\
         \n\
         \x20 --scale N      workload scale (default {default_scale})\n\
         \x20 --jobs N       worker threads (default: available parallelism; 1 is\n\
         \x20                the sequential oracle; clamped to the machine's core\n\
         \x20                count with a warning)\n\
         \x20 --csv PATH     also write results as CSV to PATH\n\
         \x20 --trace-cache  record each unique scenario's trace and replay it for\n\
         \x20                later passes: on (default, 4 GiB budget), off, or an\n\
         \x20                explicit byte budget; append ,spill[:DIR] to write\n\
         \x20                captures through to disk segments (default DIR\n\
         \x20                {DEFAULT_SPILL_DIR}) and warm-start from them\n\
         \x20 --metrics M    gather run telemetry: off (default), table (print a\n\
         \x20                timing table), or json[:PATH] (write a run manifest,\n\
         \x20                default results/manifest/{binary}.json)\n\
         \x20 --timeline T   sample every pass with a windowed cache/GC timeline\n\
         \x20                (64 KB/32 B geometry, 1 M-event windows; ,window=N\n\
         \x20                overrides) and write a cachegc-timeline-v1 JSONL\n\
         \x20                stream, default results/timeline/{binary}.jsonl, plus\n\
         \x20                a summary table on stderr; results stay bit-identical\n\
         \x20 --trace-export E  capture timestamped scheduler spans (crew jobs,\n\
         \x20                backpressure, GC and store phases) and\n\
         \x20                export Chrome trace-event JSON loadable in Perfetto,\n\
         \x20                default results/trace/{binary}.json; works with\n\
         \x20                --metrics off\n\
         \x20 --progress     report each completed sweep pass on stderr\n\
         \x20 --help         show this help\n"
    )
}

/// True if `path` exists and parses as non-degenerate CSV (used by the
/// smoke tests; lives next to the writer's CLI so the check and the writer
/// stay in one place). Parsing goes through [`Table::read_csv`], the same
/// quote-aware reader the golden harness uses — a naive `split(',')` would
/// misjudge the writer's own output whenever a quoted `Text` cell carries
/// an embedded comma.
pub fn csv_looks_sane(path: &Path) -> bool {
    match Table::read_csv(path) {
        Ok(t) => t.columns().len() >= 2 && !t.is_empty(),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegc_core::report::Cell;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Parse on a machine with `cores` available cores.
    fn parsed_on(args: &[&str], cores: usize) -> ExperimentArgs {
        match ExperimentArgs::try_parse_with_cores(&argv(args), 4, cores).unwrap() {
            Parse::Args(a) => a,
            Parse::Help => panic!("unexpected help"),
        }
    }

    // Parse with 8 cores injected, so assertions about multi-worker jobs
    // hold on any test machine, single-core ones included.
    fn parsed(args: &[&str]) -> ExperimentArgs {
        parsed_on(args, 8)
    }

    #[test]
    fn flags_parse() {
        let a = parsed(&["--scale", "2", "--jobs", "3", "--csv", "results/x.csv"]);
        assert_eq!(a.scale, 2);
        assert_eq!(a.jobs, 3);
        assert_eq!(a.jobs_requested, 3);
        assert!(!a.jobs_clamped());
        assert_eq!(a.csv.as_deref(), Some(Path::new("results/x.csv")));
        assert_eq!(a.engine().jobs, 3);
        assert!(!a.engine().is_sequential());
    }

    #[test]
    fn jobs_beyond_the_machine_clamp_with_the_request_preserved() {
        let over = parsed_on(&["--jobs", "16"], 2);
        assert_eq!((over.jobs, over.jobs_requested), (2, 16));
        assert!(over.jobs_clamped());
        assert_eq!(over.engine().jobs, 2, "engine gets the effective budget");
        // A request within the machine is untouched, even on one core the
        // explicit sequential request is not a clamp.
        assert!(!parsed_on(&["--jobs", "1"], 1).jobs_clamped());
    }

    #[test]
    fn defaults_apply() {
        let a = parsed(&[]);
        assert_eq!(a.scale, 4);
        assert!(a.jobs >= 1);
        assert!(a.csv.is_none());
    }

    #[test]
    fn jobs_zero_is_rejected_like_any_malformed_value() {
        // `--jobs -2` exits 2 with usage; `--jobs 0` must not silently
        // clamp to 1 while its sibling typo errors out.
        let err = ExperimentArgs::try_parse(&argv(&["--jobs", "0"]), 4).unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
        assert!(parsed(&["--jobs", "1"]).engine().is_sequential());
    }

    #[test]
    fn trace_cache_flag_parses_and_defaults_on() {
        assert_eq!(parsed(&[]).trace_cache, TraceCacheArg::on());
        assert_eq!(
            parsed(&["--trace-cache", "off"]).trace_cache,
            TraceCacheArg::off()
        );
        assert_eq!(
            parsed(&["--trace-cache", "on"]).trace_cache,
            TraceCacheArg::on()
        );
        let a = parsed(&["--trace-cache", "268435456"]);
        assert_eq!(a.trace_cache, TraceCacheArg::budget(268435456));
        assert_eq!(a.trace_store().map(|s| s.budget()), Some(268435456));
        assert!(parsed(&["--trace-cache", "off"]).trace_store().is_none());
        assert_eq!(
            parsed(&[]).trace_store().map(|s| s.budget()),
            Some(DEFAULT_TRACE_CACHE_BYTES)
        );
    }

    #[test]
    fn trace_cache_spill_options_parse() {
        // Bare `spill` selects the default directory; `spill:DIR` an
        // explicit one.
        let a = parsed(&["--trace-cache", "on,spill"]);
        assert_eq!(
            a.trace_cache.spill.as_deref(),
            Some(Path::new(DEFAULT_SPILL_DIR))
        );
        let a = parsed(&["--trace-cache", "1048576,spill:/tmp/ts"]);
        assert_eq!(a.trace_cache.mode, TraceCacheMode::Budget(1048576));
        assert_eq!(a.trace_cache.spill.as_deref(), Some(Path::new("/tmp/ts")));
        // The options shape the store the argument builds.
        let store = parsed(&["--trace-cache", "64,spill:/tmp/ts"])
            .trace_store()
            .unwrap();
        assert_eq!(store.budget(), 64);
        assert_eq!(store.spill_dir(), Some(Path::new("/tmp/ts")));
        let store = parsed(&[]).trace_store().unwrap();
        assert_eq!(store.spill_dir(), None, "no spill unless asked");
    }

    #[test]
    fn trace_cache_rejects_malformed_values() {
        for bad in [
            "auto",
            "-1",
            "1g",
            "",
            "on,spill:",
            "on,evict=off",
            "on,frob",
            "on,",
            "off,spill",
        ] {
            let err = ExperimentArgs::try_parse(&argv(&["--trace-cache", bad]), 4).unwrap_err();
            assert!(err.contains("--trace-cache"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn metrics_flag_parses_and_defaults_off() {
        assert_eq!(parsed(&[]).metrics, MetricsArg::Off);
        assert_eq!(parsed(&["--metrics", "off"]).metrics, MetricsArg::Off);
        assert_eq!(parsed(&["--metrics", "table"]).metrics, MetricsArg::Table);
        assert_eq!(
            parsed(&["--metrics", "json"]).metrics,
            MetricsArg::Json(None)
        );
        assert_eq!(
            parsed(&["--metrics", "json:results/m.json"]).metrics,
            MetricsArg::Json(Some(PathBuf::from("results/m.json")))
        );
        assert!(!MetricsArg::Off.enabled());
        assert!(MetricsArg::Table.enabled());
        assert!(MetricsArg::Json(None).enabled());
    }

    #[test]
    fn metrics_rejects_malformed_values() {
        for bad in ["json:", "csv", "on", ""] {
            let err = ExperimentArgs::try_parse(&argv(&["--metrics", bad]), 4).unwrap_err();
            assert!(err.contains("--metrics"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn timeline_flag_parses_and_defaults_off() {
        assert_eq!(parsed(&[]).timeline, TimelineArg::Off);
        assert!(!parsed(&[]).timeline.enabled());
        assert_eq!(parsed(&["--timeline", "off"]).timeline, TimelineArg::Off);
        let a = parsed(&["--timeline", "jsonl"]);
        assert_eq!(
            a.timeline,
            TimelineArg::Jsonl {
                path: None,
                window: None
            }
        );
        assert_eq!(
            a.timeline.path("e4_write_policy").as_deref(),
            Some(Path::new("results/timeline/e4_write_policy.jsonl"))
        );
        assert_eq!(a.timeline.spec(), TimelineSpec::default());
        let a = parsed(&["--timeline", "jsonl:/tmp/t.jsonl,window=4096"]);
        assert_eq!(
            a.timeline,
            TimelineArg::Jsonl {
                path: Some(PathBuf::from("/tmp/t.jsonl")),
                window: Some(4096)
            }
        );
        assert_eq!(
            a.timeline.path("e4").as_deref(),
            Some(Path::new("/tmp/t.jsonl"))
        );
        assert_eq!(a.timeline.spec().window_events, 4096);
        assert_eq!(
            a.timeline.spec().cache,
            TimelineSpec::default().cache,
            "window override keeps the paper geometry"
        );
        assert_eq!(TimelineArg::Off.path("e4"), None);
        // Malformed values are errors.
        for bad in [
            "csv",
            "jsonl:",
            "jsonl,window=0",
            "jsonl,window=soon",
            "on",
            "",
        ] {
            let err = ExperimentArgs::try_parse(&argv(&["--timeline", bad]), 4).unwrap_err();
            assert!(err.contains("--timeline"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn trace_export_flag_parses_and_defaults_off() {
        assert_eq!(parsed(&[]).trace_export, TraceExportArg::Off);
        assert!(!parsed(&[]).trace_export.enabled());
        assert_eq!(
            parsed(&["--trace-export", "off"]).trace_export,
            TraceExportArg::Off
        );
        let a = parsed(&["--trace-export", "chrome"]);
        assert_eq!(a.trace_export, TraceExportArg::Chrome(None));
        assert!(a.trace_export.enabled());
        assert_eq!(
            a.trace_export.path("e4_write_policy").as_deref(),
            Some(Path::new("results/trace/e4_write_policy.json"))
        );
        let a = parsed(&["--trace-export", "chrome:/tmp/trace.json"]);
        assert_eq!(
            a.trace_export.path("e4").as_deref(),
            Some(Path::new("/tmp/trace.json"))
        );
        assert_eq!(TraceExportArg::Off.path("e4"), None);
        // Malformed values are errors.
        for bad in ["pprof", "chrome:", "on", ""] {
            let err = ExperimentArgs::try_parse(&argv(&["--trace-export", bad]), 4).unwrap_err();
            assert!(err.contains("--trace-export"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn progress_flag_parses_and_defaults_off() {
        assert!(!parsed(&[]).progress);
        assert!(parsed(&["--progress"]).progress);
        assert!(parsed(&["--progress", "--scale", "2"]).progress);
    }

    #[test]
    fn trace_cache_describes_itself() {
        assert_eq!(TraceCacheArg::off().describe(), "off");
        assert_eq!(TraceCacheArg::budget(64).describe(), "64 bytes");
        assert_eq!(
            TraceCacheArg::on().describe(),
            format!("{DEFAULT_TRACE_CACHE_BYTES} bytes")
        );
        assert_eq!(
            TraceCacheArg::parse("64,spill:/tmp/ts").unwrap().describe(),
            "64 bytes, spill /tmp/ts"
        );
    }

    #[test]
    fn help_is_recognized() {
        assert!(matches!(
            ExperimentArgs::try_parse(&argv(&["--help"]), 4),
            Ok(Parse::Help)
        ));
        assert!(matches!(
            ExperimentArgs::try_parse(&argv(&["-h"]), 4),
            Ok(Parse::Help)
        ));
    }

    #[test]
    fn errors_are_reported() {
        for bad in [
            vec!["--frobnicate"],
            vec!["--scale"],
            vec!["--scale", "many"],
            vec!["--jobs", "-2"],
            vec!["--csv"],
            vec!["--trace-cache"],
            vec!["--trace-cache", "sometimes"],
            vec!["--metrics"],
            vec!["--metrics", "json:"],
            vec!["--timeline"],
            vec!["--timeline", "jsonl:"],
            vec!["--trace-export"],
            vec!["--trace-export", "chrome:"],
        ] {
            assert!(
                ExperimentArgs::try_parse(&argv(&bad), 4).is_err(),
                "{bad:?} should fail"
            );
        }
    }

    #[test]
    fn usage_names_every_flag() {
        let u = usage("e4_write_policy", "write-miss policy comparison", 4);
        for flag in [
            "--scale",
            "--jobs",
            "--csv",
            "--trace-cache",
            "--metrics",
            "--timeline",
            "--trace-export",
            "--progress",
            "--help",
        ] {
            assert!(u.contains(flag), "{flag} missing from usage");
        }
        assert!(u.starts_with("e4_write_policy — "));
    }

    #[test]
    fn csv_sanity_check() {
        let dir = std::env::temp_dir().join("cachegc_cli_test");
        let _ = std::fs::create_dir_all(&dir);
        let good = dir.join("good.csv");
        std::fs::write(&good, "a,b\n1,2\n3,4\n").unwrap();
        assert!(csv_looks_sane(&good));
        let ragged = dir.join("ragged.csv");
        std::fs::write(&ragged, "a,b\n1\n").unwrap();
        assert!(!csv_looks_sane(&ragged));
        let empty = dir.join("empty.csv");
        std::fs::write(&empty, "a,b\n").unwrap();
        assert!(!csv_looks_sane(&empty), "header-only CSV is degenerate");
        assert!(!csv_looks_sane(&dir.join("absent.csv")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_sanity_check_is_quote_aware() {
        // The writer legitimately quotes a Text cell with an embedded
        // comma; the checker must not misjudge that as a ragged row.
        let dir = std::env::temp_dir().join("cachegc_cli_quote_test");
        let _ = std::fs::create_dir_all(&dir);
        let mut t = Table::new("quoted", &["label", "n"]);
        t.row(vec![Cell::text("slow, 30 ns"), Cell::Count(8)]);
        let path = dir.join("quoted.csv");
        t.write_csv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"slow, 30 ns\""), "writer quotes the comma");
        assert!(csv_looks_sane(&path), "checker accepts the writer's output");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
