//! The experiment sweeps as callable library functions.
//!
//! Each of the paper's tables and figures used to live only inside a
//! `src/bin/` `main`; the golden-results harness needs to *call* them and
//! capture their [`Table`]s, so the sweep logic lives here and every
//! binary is a thin shim over [`run_main`]. A sweep is a pure function of
//! `(scale, ctx)` — progress goes to stderr, everything user-visible
//! comes back in the [`Sweep`]: the typed tables, the paper-shape notes
//! printed after them, and side-channel artifacts (e.g. E8's
//! full-resolution plot).
//!
//! The [`Runner`] carries the engine configuration and, optionally, a
//! shared [`TraceStore`](cachegc_core::TraceStore): sweeps drive their
//! passes through the runner's terminals, so a store attached by the
//! caller (the CLI's `--trace-cache`, or `golden_check` spanning one
//! store across all sixteen sweeps) makes each unique `(workload, scale,
//! collector)` scenario execute its VM once and replay everywhere else.
//!
//! [`ALL`] is the registry the `golden_check` binary iterates.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use cachegc_core::report::{Cell, Table};
use cachegc_core::telemetry::{probe, Counter};
use cachegc_core::{
    chrome_trace_json, scenario_label, CollectorSpec, ExperimentConfig, GcComparison, Manifest,
    ManifestConfig, Progress, Runner, Telemetry, TimelineRecorder,
};
use cachegc_vm::VmError;
use cachegc_workloads::WorkloadInstance;

use crate::cli::MetricsArg;
use crate::{header, ExperimentArgs};

mod a1;
mod a2;
mod e1;
mod e10;
mod e11;
mod e12;
mod e13;
mod e14;
mod e2;
mod e3;
mod e4;
mod e5;
mod e6;
mod e7;
mod e8;
mod e9;

/// Everything one experiment sweep produces.
#[derive(Debug, Default)]
pub struct Sweep {
    /// The experiment's result tables, in report order.
    pub tables: Vec<Table>,
    /// Paper-shape commentary printed after the tables.
    pub notes: Vec<String>,
    /// Side-channel files `(name, contents)` the CLI shim writes next to
    /// its `--csv` output, and only under `--csv` (the golden harness
    /// ignores them).
    pub artifacts: Vec<(String, String)>,
}

/// One registered experiment: identity, CLI text, and its sweep function.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Binary name, e.g. `e4_write_policy`; also keys golden file names.
    pub name: &'static str,
    /// Header line printed before the sweep runs.
    pub title: &'static str,
    /// One-line description for `--help`.
    pub about: &'static str,
    /// Default `--scale`.
    pub default_scale: u32,
    /// Driver passes one sweep makes, each one [`Progress`] tick: one
    /// per call into a [`Runner`] pass terminal (`sinks`, `instruments`,
    /// `control`, `collected`, `drive`, `drive_grid`). Zero for static
    /// experiments. `golden_check` fails a sweep whose count differs.
    pub cells: usize,
    /// The sweep itself.
    pub sweep: fn(u32, &Runner) -> Sweep,
}

/// Every experiment binary, in the order EXPERIMENTS.md documents them.
pub static ALL: [Experiment; 16] = [
    e1::EXPERIMENT,
    e2::EXPERIMENT,
    e3::EXPERIMENT,
    e4::EXPERIMENT,
    e5::EXPERIMENT,
    e6::EXPERIMENT,
    e7::EXPERIMENT,
    e8::EXPERIMENT,
    e9::EXPERIMENT,
    e10::EXPERIMENT,
    e11::EXPERIMENT,
    e12::EXPERIMENT,
    e13::EXPERIMENT,
    e14::EXPERIMENT,
    a1::EXPERIMENT,
    a2::EXPERIMENT,
];

/// Look up a registered experiment by binary name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.name == name)
}

/// The whole CLI shim: parse the uniform arguments, run the sweep, render
/// the tables, print the notes, and write artifacts and `--csv` output.
/// Every `src/bin/` main calls this and nothing else.
pub fn run_main(exp: &Experiment) {
    let args = ExperimentArgs::parse(exp.name, exp.about, exp.default_scale);
    header(&format!(
        "{}, scale {}, jobs {}",
        exp.title, args.scale, args.jobs
    ));
    let store = args.trace_store();
    // `--trace-export` needs a span-capturing registry even when
    // `--metrics off` leaves the manifest unwritten.
    let telemetry = (args.metrics.enabled() || args.trace_export.enabled()).then(|| {
        Arc::new(if args.trace_export.enabled() {
            Telemetry::with_spans()
        } else {
            Telemetry::new()
        })
    });
    let timeline = args
        .timeline
        .enabled()
        .then(|| TimelineRecorder::new(args.timeline.spec()));
    let progress = args.progress.then(|| Progress::stderr(exp.name, exp.cells));
    let mut runner = Runner::new(args.engine());
    if let Some(store) = &store {
        runner = runner.with_store(store);
    }
    if let Some(telemetry) = &telemetry {
        runner = runner.with_telemetry(telemetry);
    }
    if let Some(timeline) = &timeline {
        runner = runner.with_timeline(timeline);
    }
    if let Some(progress) = &progress {
        runner = runner.with_progress(progress);
    }
    let sweep = {
        // The shard makes the main thread's probes land in the registry;
        // worker threads attach their own inside the engine drivers. The
        // per-experiment phase drops first (declaration order), while the
        // shard is still attached.
        let _shard = telemetry.as_ref().map(|t| t.attach());
        if args.jobs_clamped() {
            probe!(Counter::JobsClamped);
            let msg = format!(
                "requested {} jobs, machine has {}: running {} workers",
                args.jobs_requested, args.jobs, args.jobs
            );
            match &telemetry {
                Some(t) => t.warn(&msg),
                None => eprintln!("warning: {msg}"),
            }
        }
        let _exp_phase = telemetry.is_some().then(|| probe::phase_cpu(exp.name));
        (exp.sweep)(args.scale, &runner)
    };
    for t in &sweep.tables {
        println!();
        print!("{}", t.render());
    }
    if !sweep.notes.is_empty() {
        println!();
        for n in &sweep.notes {
            println!("{n}");
        }
    }
    args.write_csv(&sweep.tables.iter().collect::<Vec<_>>());
    // Artifacts follow the CSV (whose writer made its directory): a run
    // without `--csv` writes nothing into the working directory.
    if let Some(dir) = args.csv.as_deref().and_then(Path::parent) {
        for (name, contents) in &sweep.artifacts {
            let path = dir.join(name);
            match std::fs::write(&path, contents) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
            }
        }
    }
    if let Some(store) = &store {
        eprintln!("trace cache: {}", store.stats());
    }
    // The timeline and trace exports are stderr/file side channels: the
    // result tables on stdout stay byte-identical with the flags on.
    if let (Some(recorder), Some(path)) = (&timeline, args.timeline.path(exp.name)) {
        match recorder.write_jsonl(exp.name, &path) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        eprint!("{}", recorder.summary_table());
    }
    if let Some(telemetry) = &telemetry {
        let snapshot = telemetry.snapshot();
        if let Some(path) = args.trace_export.path(exp.name) {
            let trace = chrome_trace_json(&snapshot);
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            match std::fs::write(&path, trace) {
                Ok(()) => eprintln!(
                    "wrote {} ({} spans on {} threads)",
                    path.display(),
                    snapshot.spans.len(),
                    snapshot.threads.len()
                ),
                Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
            }
        }
        let manifest = Manifest::gather(
            ManifestConfig {
                experiment: exp.name.to_string(),
                scale: args.scale,
                jobs: args.jobs,
                jobs_requested: args.jobs_requested,
                trace_cache: args.trace_cache.describe(),
            },
            &snapshot,
            store.as_ref(),
        );
        match &args.metrics {
            // `--trace-export` alone keeps the registry alive without a
            // metrics sink; nothing else to emit.
            MetricsArg::Off => {}
            MetricsArg::Table => {
                for t in timing_tables(&manifest) {
                    println!();
                    print!("{}", t.render());
                }
            }
            MetricsArg::Json(path) => {
                let path = path
                    .clone()
                    .unwrap_or_else(|| default_manifest_path(exp.name));
                match manifest.write(&path) {
                    Ok(()) => eprintln!("wrote {}", path.display()),
                    Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
                }
            }
        }
        let warnings = snapshot.counter(Counter::Warnings);
        if warnings > 0 {
            eprintln!(
                "{}: {warnings} warning{} during this run (details above)",
                exp.name,
                if warnings == 1 { "" } else { "s" }
            );
        }
    }
}

/// The §6 comparisons of `instance` under each of `specs`, in order.
/// The control depends on the program and the cache grid, not on the
/// collector, so its grid runs once; each collected pass then runs on a
/// [`Runner::map`] worker and pairs with a clone of that control. A
/// failed control fails every pair, and no collected pass runs.
pub(crate) fn comparisons(
    runner: &Runner,
    instance: WorkloadInstance,
    cfg: &ExperimentConfig,
    specs: &[CollectorSpec],
) -> Vec<Result<GcComparison, VmError>> {
    let control = runner.control(instance, cfg);
    runner.map(specs, |inner, &spec| {
        eprintln!("running {} ...", scenario_label(instance, Some(spec)));
        Ok(GcComparison {
            control: control.clone()?,
            collected: inner.collected(instance, cfg, spec)?,
        })
    })
}

/// Where `--metrics json` lands without an explicit path.
pub fn default_manifest_path(experiment: &str) -> PathBuf {
    PathBuf::from("results/manifest").join(format!("{experiment}.json"))
}

/// Render a gathered [`Manifest`] as the human `--metrics table` view:
/// one table of phase timings, one of the nonzero counters.
fn timing_tables(manifest: &Manifest) -> Vec<Table> {
    let mut phases = Table::new("phases", &["phase", "count", "wall_ms", "cpu_ms"]);
    for (name, stats) in &manifest.phases {
        phases.row(vec![
            Cell::text(name.clone()),
            stats.count.into(),
            Cell::Float(stats.wall_ns as f64 / 1e6, 3),
            Cell::Float(stats.cpu_ns as f64 / 1e6, 3),
        ]);
    }
    let mut counters = Table::new("counters", &["counter", "value"]);
    for &(name, value) in &manifest.counters {
        if value > 0 {
            counters.row(vec![Cell::text(name), value.into()]);
        }
    }
    vec![phases, counters]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        for e in &ALL {
            assert!(std::ptr::eq(find(e.name).unwrap(), e));
            assert_eq!(ALL.iter().filter(|o| o.name == e.name).count(), 1);
        }
        assert!(find("e99_nonsense").is_none());
    }

    /// The helper runs the control once, whatever the number of specs,
    /// and each pair's overhead matches the sequential oracle's bit for
    /// bit.
    #[test]
    fn comparisons_run_the_control_once() {
        use cachegc_core::{EngineConfig, TraceStore, FAST, SLOW};
        use cachegc_workloads::Workload;
        let cfg = ExperimentConfig::quick();
        let w = Workload::Rewrite.scaled(1);
        let specs = [
            CollectorSpec::Cheney {
                semispace_bytes: 512 << 10,
            },
            CollectorSpec::Generational {
                nursery_bytes: 128 << 10,
                old_bytes: 8 << 20,
            },
        ];
        let store = TraceStore::unbounded();
        let runner = Runner::new(EngineConfig::jobs(2)).with_store(&store);
        let pairs = comparisons(&runner, w, &cfg, &specs);
        assert_eq!(pairs.len(), specs.len());
        for (spec, pair) in specs.into_iter().zip(pairs) {
            let pair = pair.unwrap();
            let oracle = GcComparison::run(w, &cfg, spec).unwrap();
            for cell in &cfg.configs() {
                for cpu in [&SLOW, &FAST] {
                    assert_eq!(
                        pair.gc_overhead(cell.size, cell.block, cpu).to_bits(),
                        oracle.gc_overhead(cell.size, cell.block, cpu).to_bits(),
                        "{}: {cell} on {}",
                        spec.name(),
                        cpu.name
                    );
                }
            }
        }
        let label = scenario_label(w, None);
        let (_, control) = store
            .scenario_gauges()
            .into_iter()
            .find(|(l, _)| *l == label)
            .expect("the control scenario was recorded");
        assert_eq!((control.misses, control.hits), (1, 0));
    }

    #[test]
    fn static_experiment_sweeps_run_quickly() {
        // E2 is workload-free; exercise the library path end to end.
        let sweep = (e2::EXPERIMENT.sweep)(1, &Runner::sequential());
        assert_eq!(sweep.tables.len(), 1);
        assert_eq!(sweep.tables[0].name(), "penalties");
        assert_eq!(sweep.tables[0].len(), 4);
    }
}
