//! Timeline recording and the `cachegc-timeline-v1` JSONL export.
//!
//! The [`cachegc_analysis::Timeline`] instrument samples one trace pass;
//! this module is the harness half: a [`TimelineRecorder`] hands fresh
//! taps to every driver path (sequential, crew, record/replay,
//! grid kernel), collects the finished per-scenario reports, and emits
//! them as a versioned JSONL stream — one self-describing JSON object per
//! line, so multi-gigabyte timelines stream through line-oriented tools.
//! [`validate_timeline`] re-parses a stream and re-checks the exact
//! window-sum reconstruction invariant, which `golden_check --timeline`
//! calls from CI.

use std::path::Path;
use std::sync::Mutex;

use cachegc_analysis::{Timeline, TimelineReport, DEFAULT_WINDOW_EVENTS};
use cachegc_sim::{CacheConfig, CacheTotals};
use cachegc_telemetry::{probe, Counter};
use cachegc_trace::Context;

use crate::json::{self, Json};
use crate::telemetry::json_str;

/// The timeline schema identifier this module writes and validates.
pub const TIMELINE_SCHEMA: &str = "cachegc-timeline-v1";

/// What every timeline tap samples: one cache geometry and a window
/// length. All taps of one recorder share the spec, so runs are
/// comparable across scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineSpec {
    /// Geometry of the sampled cache.
    pub cache: CacheConfig,
    /// Maximum events per sample window.
    pub window_events: u64,
}

impl Default for TimelineSpec {
    /// The paper's workhorse geometry (64 KB, 32-byte blocks,
    /// direct-mapped write-validate) sampled in 1 M-event windows.
    fn default() -> TimelineSpec {
        TimelineSpec {
            cache: CacheConfig::direct_mapped(64 * 1024, 32),
            window_events: DEFAULT_WINDOW_EVENTS,
        }
    }
}

/// One committed timeline: the scenario label and its finished report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineRun {
    /// Scenario label (`workload@scale[+collector]`, or a driver tag).
    pub label: String,
    /// The finished windowed report.
    pub report: TimelineReport,
}

/// Collects per-pass timeline reports across a whole experiment sweep.
///
/// Drivers call [`tap`](TimelineRecorder::tap) for a fresh sampler,
/// thread it through the pass as an optional sink, and
/// [`commit`](TimelineRecorder::commit) it afterwards. The recorder is
/// shared behind a [`crate::Runner`]'s reference, so commits lock briefly;
/// sampling itself is lock-free.
#[derive(Debug, Default)]
pub struct TimelineRecorder {
    spec: TimelineSpec,
    runs: Mutex<Vec<TimelineRun>>,
}

impl TimelineRecorder {
    /// A recorder sampling under `spec`.
    pub fn new(spec: TimelineSpec) -> TimelineRecorder {
        TimelineRecorder {
            spec,
            runs: Mutex::new(Vec::new()),
        }
    }

    /// The shared sampling spec.
    pub fn spec(&self) -> TimelineSpec {
        self.spec
    }

    /// A fresh sampler for one pass.
    pub fn tap(&self) -> Timeline {
        Timeline::new(self.spec.cache, self.spec.window_events)
    }

    /// Finish `tap` and file its report under `label`.
    pub fn commit(&self, label: &str, tap: Timeline) {
        let report = tap.finish();
        probe::count(Counter::TimelineWindows, report.windows.len() as u64);
        probe::count(
            Counter::TimelineCollections,
            report.collections.len() as u64,
        );
        self.lock().push(TimelineRun {
            label: label.to_string(),
            report,
        });
    }

    /// Copies of the committed runs, in commit order.
    pub fn runs(&self) -> Vec<TimelineRun> {
        self.lock().clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<TimelineRun>> {
        self.runs.lock().expect("timeline runs poisoned")
    }

    /// Serialize every committed run as `cachegc-timeline-v1` JSONL: a
    /// header line, then typed `run` / `window` / `collection` /
    /// `summary` lines per run.
    pub fn to_jsonl(&self, experiment: &str) -> String {
        let runs = self.lock();
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"schema\": {}, \"experiment\": {}, \"cache\": {}, \"block_bytes\": {}, \
             \"window_events\": {}, \"runs\": {}}}\n",
            json_str(TIMELINE_SCHEMA),
            json_str(experiment),
            json_str(&self.spec.cache.to_string()),
            self.spec.cache.block,
            self.spec.window_events,
            runs.len(),
        ));
        for run in runs.iter() {
            let label = json_str(&run.label);
            let r = &run.report;
            out.push_str(&format!(
                "{{\"type\": \"run\", \"label\": {label}, \"events\": {}, \"windows\": {}, \
                 \"collections\": {}}}\n",
                r.events,
                r.windows.len(),
                r.collections.len(),
            ));
            for w in &r.windows {
                let d = &w.delta;
                out.push_str(&format!(
                    "{{\"type\": \"window\", \"run\": {label}, \"start_event\": {}, \
                     \"events\": {}, \"ctx\": {}, \"reads\": {}, \"writes\": {}, \
                     \"read_misses\": {}, \"write_misses\": {}, \"misses\": {}, \
                     \"fetches\": {}, \"alloc_misses\": {}, \"writebacks\": {}, \
                     \"transfer_bytes\": {}, \"miss_ratio\": {:.6}, \"alloc_ptr\": {}}}\n",
                    w.start_event,
                    w.events,
                    json_str(ctx_name(w.ctx)),
                    d.reads(),
                    d.writes(),
                    d.read_misses(),
                    d.write_misses(),
                    d.misses(),
                    d.fetches(),
                    d.alloc_misses,
                    d.writebacks,
                    r.transfer_bytes(d),
                    w.miss_ratio(),
                    w.alloc_ptr,
                ));
            }
            for c in &r.collections {
                out.push_str(&format!(
                    "{{\"type\": \"collection\", \"run\": {label}, \"start_event\": {}, \
                     \"events\": {}, \"kind\": {}, \"reads\": {}, \"writes\": {}, \
                     \"bytes_copied\": {}, \"pause_bucket\": {}}}\n",
                    c.start_event,
                    c.events,
                    json_str(c.kind),
                    c.reads,
                    c.writes,
                    c.bytes_copied,
                    c.pause_bucket,
                ));
            }
            let t = &r.totals;
            out.push_str(&format!(
                "{{\"type\": \"summary\", \"run\": {label}, \"events\": {}, \"reads\": {}, \
                 \"writes\": {}, \"read_misses\": {}, \"write_misses\": {}, \"misses\": {}, \
                 \"fetches\": {}, \"alloc_misses\": {}, \"writebacks\": {}, \
                 \"transfer_bytes\": {}, \"miss_ratio\": {:.6}}}\n",
                r.events,
                t.reads(),
                t.writes(),
                t.read_misses(),
                t.write_misses(),
                t.misses(),
                t.fetches(),
                t.alloc_misses,
                t.writebacks,
                r.transfer_bytes(t),
                if t.refs() == 0 {
                    0.0
                } else {
                    t.misses() as f64 / t.refs() as f64
                },
            ));
        }
        out
    }

    /// Write the JSONL stream to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Any I/O error from directory creation or the write.
    pub fn write_jsonl(&self, experiment: &str, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_jsonl(experiment))
    }

    /// A rendered per-run summary table (for stderr — stdout result
    /// tables must stay byte-identical whether or not a timeline rode
    /// along).
    pub fn summary_table(&self) -> String {
        let runs = self.lock();
        let mut out = format!(
            "timeline: {} runs, cache {}, window {} events\n",
            runs.len(),
            self.spec.cache,
            self.spec.window_events,
        );
        out.push_str(&format!(
            "  {:<28} {:>8} {:>6} {:>12} {:>9} {:>9} {:>9}\n",
            "run", "windows", "colls", "events", "mut.miss", "gc.miss", "peak"
        ));
        for run in runs.iter() {
            let r = &run.report;
            let (mut_sum, gc_sum) = r.windows.iter().fold(
                (CacheTotals::default(), CacheTotals::default()),
                |(m, g), w| match w.ctx {
                    Context::Mutator => (m.add(&w.delta), g),
                    Context::Collector => (m, g.add(&w.delta)),
                },
            );
            let ratio = |t: CacheTotals| {
                if t.refs() == 0 {
                    0.0
                } else {
                    t.misses() as f64 / t.refs() as f64
                }
            };
            let peak = r
                .windows
                .iter()
                .map(|w| w.miss_ratio())
                .fold(0.0f64, f64::max);
            out.push_str(&format!(
                "  {:<28} {:>8} {:>6} {:>12} {:>9.4} {:>9.4} {:>9.4}\n",
                run.label,
                r.windows.len(),
                r.collections.len(),
                r.events,
                ratio(mut_sum),
                ratio(gc_sum),
                peak,
            ));
        }
        out
    }
}

fn ctx_name(ctx: Context) -> &'static str {
    match ctx {
        Context::Mutator => "mutator",
        Context::Collector => "collector",
    }
}

/// Validate a `cachegc-timeline-v1` JSONL stream: schema identifier,
/// line structure, per-window context purity, and the reconstruction
/// invariant — each run's window sums must equal its summary line
/// exactly.
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn validate_timeline(text: &str) -> Result<(), String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("timeline: empty stream")?;
    let header = json::parse(header).map_err(|e| format!("timeline: header: {e}"))?;
    let schema = header
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("timeline: header missing schema string")?;
    if schema != TIMELINE_SCHEMA {
        return Err(format!(
            "timeline: schema '{schema}' is not '{TIMELINE_SCHEMA}'"
        ));
    }
    let declared_runs = header
        .get("runs")
        .and_then(Json::as_u64)
        .ok_or("timeline: header missing runs count")?;
    for key in ["block_bytes", "window_events"] {
        header
            .get(key)
            .and_then(Json::as_u64)
            .filter(|&v| v > 0)
            .ok_or_else(|| format!("timeline: header.{key} is not a positive integer"))?;
    }

    // Per-run accumulation state: the window sums to check against the
    // summary line. The summed integer fields must reconstruct exactly.
    const SUMMED: [&str; 10] = [
        "events",
        "reads",
        "writes",
        "read_misses",
        "write_misses",
        "misses",
        "fetches",
        "alloc_misses",
        "writebacks",
        "transfer_bytes",
    ];
    let mut open_run: Option<(String, [u64; SUMMED.len()], u64, u64)> = None;
    let mut runs_seen = 0u64;

    for (i, line) in lines {
        let n = i + 1; // 1-based line number for messages
        let v = json::parse(line).map_err(|e| format!("timeline: line {n}: {e}"))?;
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("timeline: line {n}: missing type"))?;
        let run_label = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("timeline: line {n}: missing {key}"))
        };
        let field = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("timeline: line {n}: {key} is not a non-negative integer"))
        };
        match ty {
            "run" => {
                if open_run.is_some() {
                    return Err(format!("timeline: line {n}: run opened before summary"));
                }
                open_run = Some((
                    run_label("label")?,
                    [0; SUMMED.len()],
                    field("windows")?,
                    field("collections")?,
                ));
                runs_seen += 1;
            }
            "window" => {
                let (label, sums, windows_left, _) = open_run
                    .as_mut()
                    .ok_or_else(|| format!("timeline: line {n}: window outside a run"))?;
                if run_label("run")? != *label {
                    return Err(format!("timeline: line {n}: window for a different run"));
                }
                if *windows_left == 0 {
                    return Err(format!("timeline: line {n}: more windows than declared"));
                }
                *windows_left -= 1;
                let ctx = run_label("ctx")?;
                if ctx != "mutator" && ctx != "collector" {
                    return Err(format!("timeline: line {n}: ctx '{ctx}' is not pure"));
                }
                if field("events")? == 0 {
                    return Err(format!("timeline: line {n}: empty window"));
                }
                for (slot, key) in sums.iter_mut().zip(SUMMED) {
                    *slot = slot.checked_add(field(key)?).ok_or_else(|| {
                        format!("timeline: line {n}: run '{label}' {key} sum overflows u64")
                    })?;
                }
            }
            "collection" => {
                let (label, _, _, colls_left) = open_run
                    .as_mut()
                    .ok_or_else(|| format!("timeline: line {n}: collection outside a run"))?;
                if run_label("run")? != *label {
                    return Err(format!(
                        "timeline: line {n}: collection for a different run"
                    ));
                }
                if *colls_left == 0 {
                    return Err(format!(
                        "timeline: line {n}: more collections than declared"
                    ));
                }
                *colls_left -= 1;
                let kind = run_label("kind")?;
                if kind != "copying" && kind != "mark" {
                    return Err(format!(
                        "timeline: line {n}: unknown collection kind '{kind}'"
                    ));
                }
                for key in ["start_event", "events", "reads", "writes", "bytes_copied"] {
                    field(key)?;
                }
            }
            "summary" => {
                let (label, sums, windows_left, colls_left) = open_run
                    .take()
                    .ok_or_else(|| format!("timeline: line {n}: summary outside a run"))?;
                if run_label("run")? != label {
                    return Err(format!("timeline: line {n}: summary for a different run"));
                }
                if windows_left != 0 || colls_left != 0 {
                    return Err(format!(
                        "timeline: line {n}: run '{label}' is short {windows_left} windows, \
                         {colls_left} collections"
                    ));
                }
                for (sum, key) in sums.iter().zip(SUMMED) {
                    let total = field(key)?;
                    if *sum != total {
                        return Err(format!(
                            "timeline: line {n}: run '{label}' windows sum {key} to {sum}, \
                             summary says {total}"
                        ));
                    }
                }
            }
            other => return Err(format!("timeline: line {n}: unknown type '{other}'")),
        }
    }
    if let Some((label, ..)) = open_run {
        return Err(format!("timeline: run '{label}' has no summary line"));
    }
    if runs_seen != declared_runs {
        return Err(format!(
            "timeline: header declares {declared_runs} runs, stream has {runs_seen}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegc_trace::{Access, TraceSink, DYNAMIC_BASE};

    const M: Context = Context::Mutator;
    const C: Context = Context::Collector;

    fn spec() -> TimelineSpec {
        TimelineSpec {
            cache: CacheConfig::direct_mapped(1 << 14, 32),
            window_events: 64,
        }
    }

    fn recorded(labels: &[&str]) -> TimelineRecorder {
        let rec = TimelineRecorder::new(spec());
        for (pass, label) in labels.iter().enumerate() {
            let mut tap = rec.tap();
            for i in 0..600u32 {
                let ctx = if i % 200 >= 180 { C } else { M };
                let a = if i % 7 == 0 {
                    Access::alloc_write(DYNAMIC_BASE + (pass as u32 + 1) * 64 + i * 16, ctx)
                } else {
                    Access::read(DYNAMIC_BASE + (i % 300) * 44, ctx)
                };
                tap.access(a);
            }
            rec.commit(label, tap);
        }
        rec
    }

    #[test]
    fn jsonl_round_trips_validation() {
        let rec = recorded(&["rewrite@1", "nbody@1+copying"]);
        let text = rec.to_jsonl("e4_write_policy");
        validate_timeline(&text).unwrap();
        assert!(text.starts_with("{\"schema\": \"cachegc-timeline-v1\""));
        assert!(text.contains("\"type\": \"collection\""));
        assert_eq!(rec.runs().len(), 2);
        let table = rec.summary_table();
        assert!(table.contains("rewrite@1") && table.contains("nbody@1+copying"));
    }

    #[test]
    fn validation_rejects_corruption() {
        let rec = recorded(&["rewrite@1"]);
        let good = rec.to_jsonl("e1_cache_grid");

        let bad = good.replace("cachegc-timeline-v1", "cachegc-timeline-v0");
        assert!(validate_timeline(&bad).unwrap_err().contains("schema"));

        // Perturbing one window's miss count breaks the reconstruction.
        let line = good
            .lines()
            .find(|l| l.contains("\"type\": \"window\"") && l.contains("\"misses\": "))
            .unwrap()
            .to_string();
        let miss_field = line
            .split("\"misses\": ")
            .nth(1)
            .unwrap()
            .split(',')
            .next()
            .unwrap();
        let bumped = line.replace(
            &format!("\"misses\": {miss_field},"),
            &format!("\"misses\": {},", miss_field.parse::<u64>().unwrap() + 1),
        );
        let bad = good.replace(&line, &bumped);
        let err = validate_timeline(&bad).unwrap_err();
        assert!(err.contains("windows sum"), "{err}");

        // Dropping the summary line leaves the run open.
        let no_summary: String = good
            .lines()
            .filter(|l| !l.contains("\"type\": \"summary\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(validate_timeline(&no_summary)
            .unwrap_err()
            .contains("no summary"));

        // A window claiming a mixed context is impure.
        let bad = good.replace("\"ctx\": \"mutator\"", "\"ctx\": \"both\"");
        assert!(validate_timeline(&bad).unwrap_err().contains("pure"));

        assert!(validate_timeline("").is_err());
        assert!(validate_timeline("{nope").is_err());
    }

    #[test]
    fn window_sums_that_overflow_u64_are_errors_not_panics() {
        let rec = recorded(&["rewrite@1"]);
        let good = rec.to_jsonl("e1_cache_grid");
        let mut windows = 0;
        let bad: String = good
            .lines()
            .map(|l| {
                let mut l = l.to_string();
                if l.contains("\"type\": \"window\"") && windows < 2 {
                    let events = l.split("\"events\": ").nth(1).unwrap();
                    let events = events.split(',').next().unwrap().to_string();
                    let forged = ["18446744073709551615", "2"][windows];
                    l = l.replacen(
                        &format!("\"events\": {events},"),
                        &format!("\"events\": {forged},"),
                        1,
                    );
                    windows += 1;
                }
                l + "\n"
            })
            .collect();
        assert_eq!(windows, 2, "the run has at least two windows");
        let err = validate_timeline(&bad).unwrap_err();
        assert!(err.contains("events sum overflows"), "{err}");
    }

    #[test]
    fn default_spec_matches_the_paper() {
        let spec = TimelineSpec::default();
        assert_eq!(spec.cache.size, 64 * 1024);
        assert_eq!(spec.cache.block, 32);
        assert_eq!(spec.window_events, 1_000_000);
    }
}
