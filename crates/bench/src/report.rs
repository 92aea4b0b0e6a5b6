//! `BENCH_grid.json` / `BENCH_replay.json`: machine-readable performance
//! trajectory records.
//!
//! Every sweep binary appends one record describing its grid run —
//! workload, grid shape, `--jobs`, wall time, and simulated-event
//! throughput — so successive PRs can track how fast the paper-scale
//! experiment engine is without re-parsing human-readable tables; the
//! `trace_replay` bench records live-VM vs replay event rates the same
//! way. The JSON is written by hand (no serde in the hermetic build).

use std::fmt::Write as _;
use std::time::Duration;

/// One workload's pass through the cache grid.
#[derive(Debug, Clone)]
pub struct GridRun {
    /// Workload short name (`compile`, `prove`, ...).
    pub workload: String,
    /// Workload scale knob.
    pub scale: u32,
    /// Trace events (data references) in the pass.
    pub events: u64,
    /// Cache-grid cells the pass drove.
    pub cells: usize,
    /// Wall-clock time for the pass.
    pub wall: Duration,
}

impl GridRun {
    /// Cell-events per second: every event is simulated once per cell, so
    /// this is the engine's aggregate simulation throughput.
    pub fn cell_events_per_sec(&self) -> f64 {
        (self.events as f64 * self.cells as f64) / self.wall.as_secs_f64().max(1e-9)
    }
}

/// A sweep binary's whole run.
#[derive(Debug, Clone)]
pub struct GridReport {
    /// Which binary produced this (e.g. `e3_overhead_sweep`).
    pub binary: String,
    /// `--jobs` in effect.
    pub jobs: usize,
    /// Per-workload passes.
    pub runs: Vec<GridRun>,
    /// Wall-clock time for the whole binary's measurement section.
    pub total_wall: Duration,
}

impl GridReport {
    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"cachegc-bench-grid-v1\",");
        let _ = writeln!(s, "  \"binary\": {},", json_str(&self.binary));
        let _ = writeln!(s, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(
            s,
            "  \"total_wall_secs\": {:.6},",
            self.total_wall.as_secs_f64()
        );
        s.push_str("  \"runs\": [\n");
        for (i, r) in self.runs.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"workload\": {}, \"scale\": {}, \"events\": {}, \"cells\": {}, \
                 \"wall_secs\": {:.6}, \"cell_events_per_sec\": {:.1}}}",
                json_str(&r.workload),
                r.scale,
                r.events,
                r.cells,
                r.wall.as_secs_f64(),
                r.cell_events_per_sec(),
            );
            s.push_str(if i + 1 < self.runs.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Write the report to `CACHEGC_BENCH_JSON` (default `BENCH_grid.json`
    /// in the current directory). Failures are reported, not fatal: the
    /// record is a side channel, never worth killing a long sweep over.
    pub fn write(&self) {
        let path = std::env::var("CACHEGC_BENCH_JSON").unwrap_or_else(|_| "BENCH_grid.json".into());
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
}

/// One workload's live-VM vs trace-replay comparison.
#[derive(Debug, Clone)]
pub struct ReplayRun {
    /// Workload short name (`compile`, `prove`, ...).
    pub workload: String,
    /// Workload scale knob.
    pub scale: u32,
    /// Trace events (data references) in the recorded stream.
    pub events: u64,
    /// Encoded trace size in bytes.
    pub trace_bytes: u64,
    /// Events per second generating the trace live from the VM.
    pub live_events_per_sec: f64,
    /// Events per second replaying the recorded trace into one sink
    /// through the per-event scalar decoder (the v1 metric).
    pub replay_events_per_sec: f64,
    /// Decode-only throughput of the scalar decoder (events into a null
    /// sink), separating codec cost from sink cost.
    pub decode_scalar_events_per_sec: f64,
    /// Decode-only throughput of the 64-event batch decoder.
    pub decode_batch_events_per_sec: f64,
    /// Configurations in the simulated grid the end-to-end rows drive.
    pub grid_cells: usize,
    /// End-to-end cell-events per second of the scalar grid path: one
    /// scalar decode driving a `Vec<Cache>` fanout (events × cells /
    /// wall).
    pub grid_scalar_cell_events_per_sec: f64,
    /// End-to-end cell-events per second of the grid kernel: one batched
    /// decode driving every `GridCache` lane.
    pub grid_batch_cell_events_per_sec: f64,
}

/// A prior `cachegc-bench-replay-v1` run carried forward so the v2 file
/// preserves the recorded performance trajectory.
#[derive(Debug, Clone)]
pub struct ReplayBaseline {
    /// Workload short name.
    pub workload: String,
    /// Workload scale knob.
    pub scale: u32,
    /// Trace events in the recorded stream.
    pub events: u64,
    /// Encoded trace size in bytes.
    pub trace_bytes: u64,
    /// v1 live-VM events per second.
    pub live_events_per_sec: f64,
    /// v1 single-sink replay events per second.
    pub replay_events_per_sec: f64,
}

impl ReplayRun {
    /// Encoded bytes per event — the codec's compactness (the in-memory
    /// [`cachegc_core::Recorder`] event is 8 bytes).
    pub fn bytes_per_event(&self) -> f64 {
        self.trace_bytes as f64 / (self.events.max(1)) as f64
    }

    /// How many times faster replay delivers events than the live VM.
    pub fn speedup(&self) -> f64 {
        self.replay_events_per_sec / self.live_events_per_sec.max(1e-9)
    }
}

/// The `trace_replay` bench's whole run.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Per-workload comparisons.
    pub runs: Vec<ReplayRun>,
    /// The v1 trajectory this file replaces, carried forward verbatim.
    pub baseline_v1: Vec<ReplayBaseline>,
}

impl ReplayReport {
    /// Extract the v1 baseline trajectory from a prior `BENCH_replay.json`
    /// text: a v1 file contributes its `runs`, a v2 file passes its own
    /// `baseline_v1` through, anything unreadable contributes nothing.
    pub fn baseline_from(text: &str) -> Vec<ReplayBaseline> {
        let Ok(doc) = cachegc_core::json::parse(text) else {
            return Vec::new();
        };
        let rows = match doc.get("schema").and_then(|s| s.as_str()) {
            Some("cachegc-bench-replay-v1") => doc.get("runs"),
            Some("cachegc-bench-replay-v2") => doc.get("baseline_v1"),
            _ => None,
        };
        let num = |row: &cachegc_core::json::Json, key: &str| match row.get(key) {
            Some(cachegc_core::json::Json::Num(n)) => *n,
            _ => 0.0,
        };
        rows.and_then(|r| r.as_arr())
            .map(|rows| {
                rows.iter()
                    .filter_map(|row| {
                        Some(ReplayBaseline {
                            workload: row.get("workload")?.as_str()?.to_string(),
                            scale: row.get("scale")?.as_u64()? as u32,
                            events: row.get("events")?.as_u64()?,
                            trace_bytes: row.get("trace_bytes")?.as_u64()?,
                            live_events_per_sec: num(row, "live_events_per_sec"),
                            replay_events_per_sec: num(row, "replay_events_per_sec"),
                        })
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"cachegc-bench-replay-v2\",");
        s.push_str("  \"baseline_v1\": [\n");
        for (i, b) in self.baseline_v1.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"workload\": {}, \"scale\": {}, \"events\": {}, \
                 \"trace_bytes\": {}, \"live_events_per_sec\": {:.1}, \
                 \"replay_events_per_sec\": {:.1}}}",
                json_str(&b.workload),
                b.scale,
                b.events,
                b.trace_bytes,
                b.live_events_per_sec,
                b.replay_events_per_sec,
            );
            s.push_str(if i + 1 < self.baseline_v1.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n");
        s.push_str("  \"runs\": [\n");
        for (i, r) in self.runs.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"workload\": {}, \"scale\": {}, \"events\": {}, \
                 \"trace_bytes\": {}, \"bytes_per_event\": {:.3}, \
                 \"live_events_per_sec\": {:.1}, \"replay_events_per_sec\": {:.1}, \
                 \"speedup\": {:.2}, \
                 \"decode_scalar_events_per_sec\": {:.1}, \
                 \"decode_batch_events_per_sec\": {:.1}, \
                 \"grid_cells\": {}, \
                 \"grid_scalar_cell_events_per_sec\": {:.1}, \
                 \"grid_batch_cell_events_per_sec\": {:.1}, \
                 \"grid_batch_speedup\": {:.2}}}",
                json_str(&r.workload),
                r.scale,
                r.events,
                r.trace_bytes,
                r.bytes_per_event(),
                r.live_events_per_sec,
                r.replay_events_per_sec,
                r.speedup(),
                r.decode_scalar_events_per_sec,
                r.decode_batch_events_per_sec,
                r.grid_cells,
                r.grid_scalar_cell_events_per_sec,
                r.grid_batch_cell_events_per_sec,
                r.grid_batch_cell_events_per_sec / r.grid_scalar_cell_events_per_sec.max(1e-9),
            );
            s.push_str(if i + 1 < self.runs.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Write the report to `CACHEGC_BENCH_JSON` (default
    /// `BENCH_replay.json` in the current directory). Failures are
    /// reported, not fatal, same as [`GridReport::write`].
    pub fn write(&self) {
        let path =
            std::env::var("CACHEGC_BENCH_JSON").unwrap_or_else(|_| "BENCH_replay.json".into());
        self.write_to(&path);
    }

    /// Serialize to `path` (for callers that resolve the path themselves,
    /// e.g. to anchor it at the workspace root regardless of cwd).
    pub fn write_to(&self, path: &str) {
        match std::fs::write(path, self.to_json()) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
}

/// The `telemetry_overhead` bench's result: the same full sweep timed
/// with telemetry off and on, proving the probes stay within the <2 %
/// overhead budget DESIGN.md commits to.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Experiment the sweep ran (e.g. `e4_write_policy`).
    pub experiment: String,
    /// Workload scale of the sweep.
    pub scale: u32,
    /// `--jobs` in effect.
    pub jobs: usize,
    /// Samples per variant (after warm-up).
    pub samples: usize,
    /// Median sweep time with telemetry off.
    pub baseline: Duration,
    /// Median sweep time with telemetry gathered and a manifest built.
    pub telemetry: Duration,
}

impl TelemetryReport {
    /// Enabled-overhead fraction: `telemetry / baseline - 1` (negative
    /// when the difference drowns in run-to-run noise).
    pub fn overhead_fraction(&self) -> f64 {
        self.telemetry.as_secs_f64() / self.baseline.as_secs_f64().max(1e-9) - 1.0
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"cachegc-bench-telemetry-v1\",");
        let _ = writeln!(s, "  \"experiment\": {},", json_str(&self.experiment));
        let _ = writeln!(s, "  \"scale\": {},", self.scale);
        let _ = writeln!(s, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(s, "  \"samples\": {},", self.samples);
        let _ = writeln!(
            s,
            "  \"baseline_secs\": {:.6},",
            self.baseline.as_secs_f64()
        );
        let _ = writeln!(
            s,
            "  \"telemetry_secs\": {:.6},",
            self.telemetry.as_secs_f64()
        );
        let _ = writeln!(
            s,
            "  \"overhead_fraction\": {:.6}",
            self.overhead_fraction()
        );
        s.push_str("}\n");
        s
    }

    /// Write the report to `CACHEGC_BENCH_JSON` (default
    /// `BENCH_telemetry.json` in the current directory). Failures are
    /// reported, not fatal, same as [`GridReport::write`].
    pub fn write(&self) {
        let path =
            std::env::var("CACHEGC_BENCH_JSON").unwrap_or_else(|_| "BENCH_telemetry.json".into());
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let report = GridReport {
            binary: "e3_overhead_sweep".into(),
            jobs: 8,
            runs: vec![GridRun {
                workload: "compile".into(),
                scale: 4,
                events: 1_000_000,
                cells: 40,
                wall: Duration::from_millis(500),
            }],
            total_wall: Duration::from_millis(512),
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"cachegc-bench-grid-v1\""));
        assert!(json.contains("\"binary\": \"e3_overhead_sweep\""));
        assert!(json.contains("\"jobs\": 8"));
        assert!(json.contains("\"workload\": \"compile\""));
        assert!(json.contains("\"cells\": 40"));
        // 1M events × 40 cells / 0.5 s = 80M cell-events/s.
        assert!(json.contains("\"cell_events_per_sec\": 80000000.0"));
    }

    #[test]
    fn replay_json_shape_is_stable() {
        let report = ReplayReport {
            runs: vec![ReplayRun {
                workload: "rewrite".into(),
                scale: 1,
                events: 2_000_000,
                trace_bytes: 3_000_000,
                live_events_per_sec: 10_000_000.0,
                replay_events_per_sec: 50_000_000.0,
                decode_scalar_events_per_sec: 250_000_000.0,
                decode_batch_events_per_sec: 500_000_000.0,
                grid_cells: 40,
                grid_scalar_cell_events_per_sec: 400_000_000.0,
                grid_batch_cell_events_per_sec: 800_000_000.0,
            }],
            baseline_v1: vec![ReplayBaseline {
                workload: "rewrite".into(),
                scale: 1,
                events: 1_900_000,
                trace_bytes: 2_900_000,
                live_events_per_sec: 9_000_000.0,
                replay_events_per_sec: 45_000_000.0,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"cachegc-bench-replay-v2\""));
        assert!(json.contains("\"workload\": \"rewrite\""));
        assert!(json.contains("\"bytes_per_event\": 1.500"));
        assert!(json.contains("\"speedup\": 5.00"));
        assert!(json.contains("\"decode_batch_events_per_sec\": 500000000.0"));
        assert!(json.contains("\"grid_cells\": 40"));
        assert!(json.contains("\"grid_batch_speedup\": 2.00"));
        assert!(json.contains("\"baseline_v1\""));
        assert!(json.contains("\"replay_events_per_sec\": 45000000.0"));
    }

    #[test]
    fn replay_baseline_survives_v1_and_v2_files() {
        let v1 = r#"{
  "schema": "cachegc-bench-replay-v1",
  "runs": [
    {"workload": "compile", "scale": 1, "events": 100, "trace_bytes": 270,
     "bytes_per_event": 2.700, "live_events_per_sec": 10.0,
     "replay_events_per_sec": 50.0, "speedup": 5.00}
  ]
}"#;
        let base = ReplayReport::baseline_from(v1);
        assert_eq!(base.len(), 1);
        assert_eq!(base[0].workload, "compile");
        assert_eq!(base[0].events, 100);
        assert_eq!(base[0].replay_events_per_sec, 50.0);
        // A v2 file passes its baseline through unchanged, so repeated
        // v2 writes never lose the original v1 trajectory.
        let report = ReplayReport {
            runs: Vec::new(),
            baseline_v1: base,
        };
        let again = ReplayReport::baseline_from(&report.to_json());
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].events, 100);
        // Garbage contributes nothing.
        assert!(ReplayReport::baseline_from("not json").is_empty());
        assert!(ReplayReport::baseline_from("{\"schema\": \"other\"}").is_empty());
    }

    #[test]
    fn telemetry_json_shape_is_stable() {
        let report = TelemetryReport {
            experiment: "e4_write_policy".into(),
            scale: 1,
            jobs: 2,
            samples: 5,
            baseline: Duration::from_millis(1000),
            telemetry: Duration::from_millis(1010),
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"cachegc-bench-telemetry-v1\""));
        assert!(json.contains("\"experiment\": \"e4_write_policy\""));
        assert!(json.contains("\"baseline_secs\": 1.000000"));
        assert!(json.contains("\"overhead_fraction\": 0.010000"));
        assert!((report.overhead_fraction() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("n\nl"), "\"n\\u000al\"");
    }
}
