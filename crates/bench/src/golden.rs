//! Golden-results regression harness.
//!
//! Every experiment's tables are checked into `results/expected/` as CSV
//! (one file per table, named `<experiment>__<table>.csv`), regenerated at
//! a fixed, cheap configuration: `--scale 1 --jobs 2`. The
//! `golden_check` binary reruns every sweep in-process through
//! [`crate::experiments::ALL`] and diffs the live tables cell-by-cell
//! against the goldens, so a regression in the §5 penalty tables or the
//! §7 miss decompositions fails CI naming the exact table, row, and
//! column that drifted instead of shipping silently.
//!
//! Comparison is typed: `Int`/`Count`/`Bytes`/`Text` cells must match
//! exactly; `Float`/`Pct` cells compare under a relative epsilon
//! ([`Tolerance`]), with non-finite values equal only to the empty cell
//! they serialize as. The sweeps are deterministic (the parallel engine is
//! property-tested bit-identical to its sequential oracle), so in practice
//! even the float cells match byte for byte and `--bless` regenerates the
//! goldens reproducibly.

use std::fmt;
use std::path::{Path, PathBuf};

use cachegc_core::report::{Cell, Table};
use cachegc_core::{EngineConfig, Runner};

use crate::experiments::Experiment;

/// Directory the goldens live in, relative to the repository root.
pub const GOLDEN_DIR: &str = "results/expected";

/// The fixed configuration goldens are defined at.
pub fn golden_engine() -> EngineConfig {
    EngineConfig::jobs(2)
}

/// The fixed `--scale` goldens are defined at.
pub const GOLDEN_SCALE: u32 = 1;

/// Relative-epsilon tolerance for `Float`/`Pct` cells. Everything else is
/// always compared exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Two floats `a`, `b` match when `|a-b| <= rel_eps * max(|a|,|b|)`,
    /// or exactly when `rel_eps` is zero.
    pub rel_eps: f64,
}

impl Tolerance {
    /// Exact comparison for every cell type.
    pub const EXACT: Tolerance = Tolerance { rel_eps: 0.0 };
}

impl Default for Tolerance {
    /// Absorbs last-digit formatting jitter, nothing more: the sweeps are
    /// deterministic, so goldens normally match exactly.
    fn default() -> Self {
        Tolerance { rel_eps: 1e-9 }
    }
}

/// True if `a` and `b` match under the relative epsilon.
pub fn approx_eq(a: f64, b: f64, rel_eps: f64) -> bool {
    a == b || (a - b).abs() <= rel_eps * a.abs().max(b.abs())
}

/// One way a live table deviates from its golden.
#[derive(Debug, Clone, PartialEq)]
pub enum Drift {
    /// The golden file is missing or unreadable.
    MissingGolden {
        /// Where the golden was expected.
        path: PathBuf,
        /// Why it could not be read.
        reason: String,
    },
    /// The column headers changed.
    Columns {
        /// Golden columns.
        expected: Vec<String>,
        /// Live columns.
        actual: Vec<String>,
    },
    /// The number of data rows changed.
    RowCount {
        /// Golden row count.
        expected: usize,
        /// Live row count.
        actual: usize,
    },
    /// One cell's value drifted.
    Cell {
        /// Zero-based data-row index.
        row: usize,
        /// The first cell of that row, as a human row label.
        row_label: String,
        /// Column name.
        column: String,
        /// Golden value (CSV form).
        expected: String,
        /// Live value (CSV form).
        actual: String,
    },
}

impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Drift::MissingGolden { path, reason } => {
                write!(
                    f,
                    "no golden at {} ({reason}); run `golden_check --bless` to create it",
                    path.display()
                )
            }
            Drift::Columns { expected, actual } => {
                write!(
                    f,
                    "columns changed: expected [{}], got [{}]",
                    expected.join(", "),
                    actual.join(", ")
                )
            }
            Drift::RowCount { expected, actual } => {
                write!(f, "row count changed: expected {expected}, got {actual}")
            }
            Drift::Cell {
                row,
                row_label,
                column,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "row {row} ('{row_label}'), column '{column}': expected {expected:?}, got {actual:?}"
                )
            }
        }
    }
}

/// True if a live cell matches its golden under the typed rules: the
/// *live* cell's variant picks the rule, because the golden side has been
/// through CSV and no longer distinguishes `Count` from `Bytes` or `Pct`
/// from `Float`.
pub fn cells_match(expected: &Cell, actual: &Cell, tol: &Tolerance) -> bool {
    match actual {
        Cell::Float(v, _) | Cell::Pct(v) => {
            if !v.is_finite() {
                // Non-finite serializes as the empty cell.
                return matches!(expected, Cell::Missing);
            }
            match expected.as_f64() {
                Some(e) => approx_eq(e, *v, tol.rel_eps),
                None => false,
            }
        }
        _ => expected.csv() == actual.csv(),
    }
}

/// Diff a live table against its golden, cell by cell. Column drift
/// short-circuits (positional comparison would be noise); row-count drift
/// is reported and the common prefix still diffed.
pub fn diff_tables(expected: &Table, actual: &Table, tol: &Tolerance) -> Vec<Drift> {
    let mut drifts = Vec::new();
    if expected.columns() != actual.columns() {
        drifts.push(Drift::Columns {
            expected: expected.columns().to_vec(),
            actual: actual.columns().to_vec(),
        });
        return drifts;
    }
    if expected.len() != actual.len() {
        drifts.push(Drift::RowCount {
            expected: expected.len(),
            actual: actual.len(),
        });
    }
    for (r, (erow, arow)) in expected.rows().iter().zip(actual.rows()).enumerate() {
        for (c, (e, a)) in erow.iter().zip(arow).enumerate() {
            if !cells_match(e, a, tol) {
                drifts.push(Drift::Cell {
                    row: r,
                    row_label: arow[0].render(),
                    column: actual.columns()[c].clone(),
                    expected: e.csv(),
                    actual: a.csv(),
                });
            }
        }
    }
    drifts
}

/// Where one table's golden lives: `<dir>/<experiment>__<table>.csv`.
pub fn golden_path(dir: &Path, experiment: &str, table: &str) -> PathBuf {
    dir.join(format!("{experiment}__{table}.csv"))
}

/// Diff every table of one experiment against its goldens. Returns
/// `(table name, drifts)` pairs for tables that deviated.
pub fn check_tables(
    dir: &Path,
    experiment: &str,
    tables: &[Table],
    tol: &Tolerance,
) -> Vec<(String, Vec<Drift>)> {
    tables
        .iter()
        .map(|table| {
            let path = golden_path(dir, experiment, table.name());
            let drifts = match Table::read_csv(&path) {
                Ok(golden) => diff_tables(&golden, table, tol),
                Err(e) => vec![Drift::MissingGolden {
                    path: path.clone(),
                    reason: e.to_string(),
                }],
            };
            (table.name().to_string(), drifts)
        })
        .filter(|(_, drifts)| !drifts.is_empty())
        .collect()
}

/// Write every table of one experiment as its golden, creating `dir` as
/// needed. Returns the paths written.
///
/// # Errors
///
/// Any I/O error from creating directories or writing a file.
pub fn bless_tables(
    dir: &Path,
    experiment: &str,
    tables: &[Table],
) -> std::io::Result<Vec<PathBuf>> {
    let mut written = Vec::new();
    for table in tables {
        let path = golden_path(dir, experiment, table.name());
        table.write_csv(&path)?;
        written.push(path);
    }
    Ok(written)
}

/// Run one experiment's sweep at the golden configuration (or an
/// override) and return its tables. The runner carries the engine and,
/// optionally, a [`cachegc_core::TraceStore`] shared across experiments
/// so each unique scenario's VM runs at most once per `golden_check`.
pub fn run_sweep(exp: &Experiment, scale: u32, runner: &Runner) -> Vec<Table> {
    (exp.sweep)(scale, runner).tables
}

/// Validate a run-manifest document for `golden_check --manifest`: the
/// generic schema/invariant checks of
/// [`cachegc_core::validate_manifest`], plus the stricter demands a real
/// sweep's manifest must meet — the VM executed at least once
/// (`vm_execute` has spans) or the store warm-started from spill
/// segments, a run on more than one worker reported crew runs with
/// per-worker stats (a one-worker run passes inline and reports none), a
/// store that reports hits replayed, and every in-flight recording
/// reservation was resolved by the end of the run.
///
/// # Errors
///
/// A human-readable message naming the first violated property.
pub fn check_manifest(text: &str) -> Result<(), String> {
    cachegc_core::validate_manifest(text)?;
    let doc = cachegc_core::json::parse(text)?;
    let phase_count = |name: &str| {
        doc.get("phases")
            .and_then(|p| p.get(name))
            .and_then(|p| p.get("count"))
            .and_then(cachegc_core::json::Json::as_u64)
            .unwrap_or(0)
    };
    let store_field = |key: &str| {
        doc.get("store")
            .and_then(|s| s.get(key))
            .and_then(cachegc_core::json::Json::as_u64)
            .unwrap_or(0)
    };
    // A warm-started run can legitimately never touch the VM: every
    // scenario re-materializes from its spill segment instead.
    if phase_count("vm_execute") == 0 && store_field("spill_loads") == 0 {
        return Err(
            "manifest: no vm_execute spans and no spill loads — the sweep never ran a VM".into(),
        );
    }
    let jobs = doc
        .get("config")
        .and_then(|c| c.get("jobs"))
        .and_then(cachegc_core::json::Json::as_u64)
        .unwrap_or(0);
    let engine = doc.get("engine");
    let engine_runs = engine
        .and_then(|e| e.get("runs"))
        .and_then(cachegc_core::json::Json::as_u64)
        .unwrap_or(0);
    if jobs > 1 && engine_runs == 0 {
        return Err(format!(
            "manifest: engine.runs is zero at jobs {jobs} — no crew pass was recorded"
        ));
    }
    let workers = engine
        .and_then(|e| e.get("workers"))
        .and_then(cachegc_core::json::Json::as_arr)
        .map_or(0, <[_]>::len);
    if engine_runs > 0 && workers == 0 {
        return Err("manifest: engine.workers is empty — no per-worker stats recorded".into());
    }
    let hits = store_field("hits");
    if hits > 0 && phase_count("replay") == 0 {
        return Err(format!(
            "manifest: store reports {hits} hits but no replay spans"
        ));
    }
    // A finished run has resolved every recording flight: leftover
    // reserved bytes mean a ticket leaked its in-flight charge.
    let reserved = store_field("reserved");
    if reserved > 0 {
        return Err(format!(
            "manifest: store still reserves {reserved} in-flight bytes after the run"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(v: f64) -> Table {
        let mut t = Table::new("t", &["label", "count", "value"]);
        t.row(vec![Cell::text("row0"), Cell::Count(7), Cell::Float(v, 4)]);
        t.row(vec![
            Cell::text("row1"),
            Cell::Bytes(64 << 10),
            Cell::Pct(0.25),
        ]);
        t
    }

    /// The golden side of a diff is always a table that has been through
    /// CSV, variant-collapsed; simulate that.
    fn through_csv(t: &Table) -> Table {
        Table::from_csv(t.name(), &t.to_csv()).unwrap()
    }

    #[test]
    fn identical_tables_have_no_drift_even_at_zero_tolerance() {
        let t = table(0.123456789);
        assert!(diff_tables(&through_csv(&t), &t, &Tolerance::EXACT).is_empty());
        assert!(diff_tables(&t, &t, &Tolerance::EXACT).is_empty());
    }

    #[test]
    fn single_cell_drift_is_pinpointed() {
        let golden = through_csv(&table(0.5));
        let live = table(0.75);
        let drifts = diff_tables(&golden, &live, &Tolerance::default());
        assert_eq!(drifts.len(), 1);
        match &drifts[0] {
            Drift::Cell {
                row,
                row_label,
                column,
                expected,
                actual,
            } => {
                assert_eq!((*row, column.as_str()), (0, "value"));
                assert_eq!(row_label, "row0");
                assert_eq!((expected.as_str(), actual.as_str()), ("0.5", "0.75"));
            }
            other => panic!("unexpected drift {other:?}"),
        }
        let msg = drifts[0].to_string();
        assert!(msg.contains("row 0") && msg.contains("'value'"), "{msg}");
    }

    #[test]
    fn float_tolerance_is_relative_and_typed() {
        let golden = through_csv(&table(1.0));
        let mut live = table(1.0 + 1e-12);
        assert!(diff_tables(&golden, &live, &Tolerance::default()).is_empty());
        assert_eq!(diff_tables(&golden, &live, &Tolerance::EXACT).len(), 1);
        // Exact cell types get no epsilon: a count off by one is a drift
        // no matter the tolerance.
        live = table(1.0);
        live.set_cell(0, 1, Cell::Count(8));
        assert_eq!(
            diff_tables(&golden, &live, &Tolerance { rel_eps: 1e3 }).len(),
            1
        );
    }

    #[test]
    fn non_finite_floats_match_only_the_empty_cell() {
        let mut live = table(0.5);
        live.set_cell(0, 2, Cell::Float(f64::NAN, 4));
        let golden = through_csv(&live);
        assert!(diff_tables(&golden, &live, &Tolerance::EXACT).is_empty());
        assert_eq!(
            diff_tables(&through_csv(&table(0.5)), &live, &Tolerance::default()).len(),
            1
        );
    }

    #[test]
    fn structural_drift_is_reported() {
        let t = table(0.5);
        let mut extra = table(0.5);
        extra.row(vec![
            Cell::text("row2"),
            Cell::Count(0),
            Cell::Float(0.0, 4),
        ]);
        let drifts = diff_tables(&through_csv(&t), &extra, &Tolerance::default());
        assert!(matches!(
            drifts[0],
            Drift::RowCount {
                expected: 2,
                actual: 3
            }
        ));
        let other = Table::new("t", &["different", "columns"]);
        let drifts = diff_tables(&through_csv(&t), &other, &Tolerance::default());
        assert!(matches!(drifts[0], Drift::Columns { .. }));
    }

    #[test]
    fn manifest_check_demands_vm_execute_and_replay() {
        use std::sync::Arc;

        use cachegc_core::telemetry::{probe, EngineReport};
        use cachegc_core::{Manifest, ManifestConfig, Telemetry, TraceStore};

        let cfg = || ManifestConfig {
            experiment: "e4_write_policy".into(),
            scale: 1,
            jobs: 2,
            jobs_requested: 2,
            trace_cache: "off".into(),
        };
        // An empty manifest is schema-valid but strictly rejected: the
        // sweep never ran a VM.
        let telemetry = Arc::new(Telemetry::new());
        let empty = Manifest::gather(cfg(), &telemetry.snapshot(), None).to_json();
        assert!(cachegc_core::validate_manifest(&empty).is_ok());
        let err = check_manifest(&empty).unwrap_err();
        assert!(err.contains("vm_execute"), "{err}");

        {
            let _shard = telemetry.attach();
            let _span = probe::phase("vm_execute");
        }
        // A VM span alone is still rejected at two workers: no crew pass
        // reported. One worker runs every pass inline, so none is due.
        let no_engine = Manifest::gather(cfg(), &telemetry.snapshot(), None).to_json();
        let err = check_manifest(&no_engine).unwrap_err();
        assert!(err.contains("engine.runs"), "{err}");
        let one_worker = ManifestConfig {
            jobs: 1,
            jobs_requested: 1,
            ..cfg()
        };
        check_manifest(&Manifest::gather(one_worker, &telemetry.snapshot(), None).to_json())
            .unwrap();
        telemetry.record_engine(&EngineReport {
            kind: "grid_simulate",
            jobs: 2,
            sinks: 2,
            chunks_published: 1,
            events_published: 8,
            backpressure_ns: 0,
            queue_depth_hwm: 1,
            workers: vec![Default::default(); 2],
        });
        let store = TraceStore::unbounded();
        let ran = Manifest::gather(cfg(), &telemetry.snapshot(), Some(&store)).to_json();
        check_manifest(&ran).unwrap();

        // A store that reports hits needs replay spans to back them.
        let hit = ran.replacen("\"hits\": 0", "\"hits\": 1", 1);
        assert_ne!(hit, ran, "the store block is present and editable");
        let err = check_manifest(&hit).unwrap_err();
        assert!(err.contains("replay"), "{err}");

        // Garbage is rejected by the generic layer first.
        assert!(check_manifest("{}").is_err());
        assert!(check_manifest("not json").is_err());
    }

    #[test]
    fn bless_then_check_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join("cachegc_golden_test");
        let _ = std::fs::remove_dir_all(&dir);
        let tables = vec![table(0.5)];
        let written = bless_tables(&dir, "e0_demo", &tables).unwrap();
        assert_eq!(written, vec![dir.join("e0_demo__t.csv")]);
        assert!(check_tables(&dir, "e0_demo", &tables, &Tolerance::EXACT).is_empty());
        // Perturb one cell: the check names the table and the cell.
        let mut live = vec![table(0.5)];
        live[0].set_cell(1, 1, Cell::Bytes(128 << 10));
        let failures = check_tables(&dir, "e0_demo", &live, &Tolerance::default());
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, "t");
        assert!(
            matches!(&failures[0].1[0], Drift::Cell { row: 1, column, .. } if column == "count")
        );
        // A missing golden is a failure, not a silent pass.
        let failures = check_tables(&dir, "e99_absent", &live, &Tolerance::default());
        assert!(matches!(&failures[0].1[0], Drift::MissingGolden { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
