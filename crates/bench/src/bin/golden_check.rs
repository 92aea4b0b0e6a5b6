//! Golden-results regression check: rerun every experiment sweep
//! in-process at the pinned configuration and diff its tables against the
//! CSV goldens in `results/expected/`, or regenerate them with `--bless`.
//! Either way, each sweep must make exactly the driver passes its
//! `Experiment::cells` declares.
//!
//! Exit status: 0 all tables match (or were blessed), 1 drift or a pass
//! count other than the declared one, 2 usage.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use cachegc_bench::cli::{MetricsArg, TraceCacheArg, TraceExportArg};
use cachegc_bench::experiments::{self, Experiment};
use cachegc_bench::golden::{
    bless_tables, check_tables, golden_engine, run_sweep, Tolerance, GOLDEN_DIR, GOLDEN_SCALE,
};
use cachegc_core::{
    chrome_trace_json, validate_chrome_trace, validate_timeline, Manifest, ManifestConfig,
    Progress, Runner, Telemetry,
};

const USAGE: &str = "\
golden_check: diff every experiment's tables against results/expected/

usage: golden_check [--bless] [--only NAME] [--dir PATH] [--rel-eps X]
                    [--trace-cache on|off|BYTES[,spill[:DIR]]]
                    [--metrics off|json[:PATH]] [--manifest PATH]
                    [--trace-export off|chrome[:PATH]]
                    [--timeline PATH] [--trace PATH]

  --bless       regenerate the goldens from the current code
  --only NAME   check a single experiment (e.g. e4_write_policy)
  --dir PATH    golden directory (default results/expected)
  --rel-eps X   relative epsilon for float/pct cells (default 1e-9;
                0 means exact)
  --trace-cache on|off|BYTES[,spill[:DIR]]
                share one trace store across all experiments so each
                unique (workload, scale, collector) scenario's VM runs
                at most once; BYTES caps resident trace memory; spill
                writes captures through to disk segments (default DIR
                results/tracestore) and warm-starts from them on the
                next invocation (default on)
  --metrics off|json[:PATH]
                write this invocation's own run manifest (schema,
                counters, store accounting) to PATH, default
                results/manifest/golden_check.json
  --manifest PATH
                validate a run manifest written by an experiment's
                --metrics json instead of diffing tables: schema and
                counter/phase invariants, nonzero vm_execute and
                hit-backed replay spans, and engine runs when jobs > 1;
                exits 0 valid, 1 invalid
  --trace-export off|chrome[:PATH]
                capture timestamped scheduler spans during this
                invocation's sweeps and write them as Chrome
                trace-event JSON (loadable in Perfetto), default PATH
                results/trace/golden_check.json; spans never change a
                table
  --timeline PATH
                validate a cachegc-timeline-v1 JSONL stream written by
                an experiment's --timeline jsonl instead of diffing
                tables: schema, declared counts, and the per-run
                invariant that window sums reconstruct the aggregate
                cache totals exactly; exits 0 valid, 1 invalid
  --trace PATH  validate Chrome trace-event JSON written by
                --trace-export instead of diffing tables: well-formed
                events, named thread rows, and at least one complete
                span; exits 0 valid, 1 invalid

The sweeps always run at --scale 1 --jobs 2: goldens are defined at that
configuration, and the engine is bit-identical at every worker count,
so results do not depend on the machine. Replay from the trace cache is
bit-identical to the live VM, so --trace-cache never changes a table —
with any budget, with or without spill. A sweep whose driver passes
differ from its declared count fails the check, with or without
--bless.";

struct Opts {
    bless: bool,
    only: Option<String>,
    dir: PathBuf,
    tol: Tolerance,
    trace_cache: TraceCacheArg,
    metrics: MetricsArg,
    manifest: Option<PathBuf>,
    trace_export: TraceExportArg,
    timeline: Option<PathBuf>,
    trace: Option<PathBuf>,
}

fn parse_opts(argv: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        bless: false,
        only: None,
        dir: PathBuf::from(GOLDEN_DIR),
        tol: Tolerance::default(),
        trace_cache: TraceCacheArg::on(),
        metrics: MetricsArg::Off,
        manifest: None,
        trace_export: TraceExportArg::Off,
        timeline: None,
        trace: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--bless" => opts.bless = true,
            "--only" => opts.only = Some(value("--only")?),
            "--dir" => opts.dir = PathBuf::from(value("--dir")?),
            "--rel-eps" => {
                let raw = value("--rel-eps")?;
                let eps: f64 = raw
                    .parse()
                    .map_err(|_| format!("--rel-eps: not a number: {raw}"))?;
                if !eps.is_finite() || eps < 0.0 {
                    return Err(format!("--rel-eps: must be finite and >= 0, got {raw}"));
                }
                opts.tol = Tolerance { rel_eps: eps };
            }
            "--trace-cache" => {
                let raw = value("--trace-cache")?;
                opts.trace_cache = TraceCacheArg::parse(&raw).ok_or_else(|| {
                    format!(
                        "--trace-cache: malformed value '{raw}' \
                         (on|off|BYTES[,spill[:DIR]])"
                    )
                })?;
            }
            "--metrics" => {
                let raw = value("--metrics")?;
                opts.metrics = match MetricsArg::parse(&raw) {
                    Some(m @ (MetricsArg::Off | MetricsArg::Json(_))) => m,
                    _ => {
                        return Err(format!(
                            "--metrics: malformed value '{raw}' (off or json[:PATH])"
                        ))
                    }
                };
            }
            "--manifest" => opts.manifest = Some(PathBuf::from(value("--manifest")?)),
            "--trace-export" => {
                let raw = value("--trace-export")?;
                opts.trace_export = TraceExportArg::parse(&raw).ok_or_else(|| {
                    format!("--trace-export: malformed value '{raw}' (off or chrome[:PATH])")
                })?;
            }
            "--timeline" => opts.timeline = Some(PathBuf::from(value("--timeline")?)),
            "--trace" => opts.trace = Some(PathBuf::from(value("--trace")?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(opts)
}

fn selected(opts: &Opts) -> Result<Vec<&'static Experiment>, String> {
    match &opts.only {
        None => Ok(experiments::ALL.iter().collect()),
        Some(name) => match experiments::find(name) {
            Some(e) => Ok(vec![e]),
            None => Err(format!(
                "--only: unknown experiment '{name}' (known: {})",
                experiments::ALL
                    .iter()
                    .map(|e| e.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
        },
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&argv) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("golden_check: {msg}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &opts.manifest {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("golden_check: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        return match cachegc_bench::golden::check_manifest(&text) {
            Ok(()) => {
                println!("ok: {} is a valid run manifest", path.display());
                ExitCode::SUCCESS
            }
            Err(msg) => {
                println!("INVALID manifest {}: {msg}", path.display());
                ExitCode::from(1)
            }
        };
    }
    if let Some(path) = &opts.timeline {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("golden_check: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        return match validate_timeline(&text) {
            Ok(()) => {
                println!("ok: {} is a valid timeline stream", path.display());
                ExitCode::SUCCESS
            }
            Err(msg) => {
                println!("INVALID timeline {}: {msg}", path.display());
                ExitCode::from(1)
            }
        };
    }
    if let Some(path) = &opts.trace {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("golden_check: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let verdict = validate_chrome_trace(&text).and_then(|s| {
            if s.spans == 0 {
                Err("no complete spans".to_string())
            } else {
                Ok(s)
            }
        });
        return match verdict {
            Ok(s) => {
                println!(
                    "ok: {} is a valid chrome trace ({} spans, {} worker rows, {} threads)",
                    path.display(),
                    s.spans,
                    s.workers,
                    s.threads
                );
                ExitCode::SUCCESS
            }
            Err(msg) => {
                println!("INVALID trace {}: {msg}", path.display());
                ExitCode::from(1)
            }
        };
    }
    let exps = match selected(&opts) {
        Ok(e) => e,
        Err(msg) => {
            eprintln!("golden_check: {msg}");
            return ExitCode::from(2);
        }
    };

    // One store spans every experiment: later sweeps replay scenarios an
    // earlier sweep recorded, so each unique (workload, scale, collector)
    // runs the VM at most once per invocation.
    let store = opts.trace_cache.store();
    // `--trace-export` needs a span-capturing registry even when
    // `--metrics off` leaves the manifest unwritten.
    let telemetry = (opts.metrics.enabled() || opts.trace_export.enabled()).then(|| {
        Arc::new(if opts.trace_export.enabled() {
            Telemetry::with_spans()
        } else {
            Telemetry::new()
        })
    });
    let mut runner = Runner::new(golden_engine());
    if let Some(store) = &store {
        runner = runner.with_store(store);
    }
    if let Some(telemetry) = &telemetry {
        runner = runner.with_telemetry(telemetry);
    }
    let mut drifted = 0usize;
    let mut miscounted = 0usize;
    let mut checked = 0usize;
    {
        // The shard makes main-thread probes land in the registry; engine
        // workers attach their own inside the drivers.
        let _shard = telemetry.as_ref().map(|t| t.attach());
        for exp in exps {
            eprintln!("== {} ==", exp.name);
            let progress = Progress::to_writer(exp.name, exp.cells, Box::new(std::io::sink()));
            let tables = run_sweep(exp, GOLDEN_SCALE, &runner.clone().with_progress(&progress));
            checked += tables.len();
            if progress.completed() != exp.cells {
                miscounted += 1;
                println!(
                    "PASS COUNT in {}: {} driver passes, declared cells {}",
                    exp.name,
                    progress.completed(),
                    exp.cells
                );
            }
            if opts.bless {
                match bless_tables(&opts.dir, exp.name, &tables) {
                    Ok(written) => {
                        for p in written {
                            println!("blessed {}", p.display());
                        }
                    }
                    Err(e) => {
                        eprintln!("golden_check: cannot write goldens for {}: {e}", exp.name);
                        return ExitCode::from(2);
                    }
                }
                continue;
            }
            for (table, drifts) in check_tables(&opts.dir, exp.name, &tables, &opts.tol) {
                drifted += 1;
                println!("DRIFT in {} table '{table}':", exp.name);
                for d in drifts {
                    println!("  {d}");
                }
            }
        }
    }

    if let Some(store) = &store {
        eprintln!("trace cache: {}", store.stats());
    }
    if let (Some(telemetry), Some(path)) = (&telemetry, opts.trace_export.path("golden_check")) {
        let snapshot = telemetry.snapshot();
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(&path, chrome_trace_json(&snapshot)) {
            Ok(()) => eprintln!(
                "wrote {} ({} spans on {} threads)",
                path.display(),
                snapshot.spans.len(),
                snapshot.threads.len()
            ),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    if let (Some(telemetry), MetricsArg::Json(path)) = (&telemetry, &opts.metrics) {
        let manifest = Manifest::gather(
            ManifestConfig {
                experiment: "golden_check".to_string(),
                scale: GOLDEN_SCALE,
                jobs: golden_engine().jobs,
                jobs_requested: golden_engine().jobs,
                trace_cache: opts.trace_cache.describe(),
            },
            &telemetry.snapshot(),
            store.as_ref(),
        );
        let path = path
            .clone()
            .unwrap_or_else(|| experiments::default_manifest_path("golden_check"));
        match manifest.write(&path) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }

    if opts.bless {
        println!("blessed {checked} tables into {}", opts.dir.display());
    } else if drifted == 0 {
        println!("ok: {checked} tables match {}", opts.dir.display());
    } else {
        println!(
            "{drifted} of {checked} tables drifted from {}; \
             run `golden_check --bless` if the change is intended",
            opts.dir.display()
        );
    }
    if miscounted > 0 {
        println!(
            "{miscounted} experiment{} made a pass count other than its declared cells",
            if miscounted == 1 { "" } else { "s" }
        );
    }
    if drifted == 0 && miscounted == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
