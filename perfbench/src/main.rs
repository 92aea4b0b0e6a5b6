//! Layer-separating benchmark of the cachegc pipeline
//! (VM → trace → store → cache grid → §7 analysis).
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid-replay --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (`round_s`, `setup_s`,
//! `peak_rss_mib`); with `--trace 1` they are the per-layer ones from the
//! traced run. See `perfbench/README.md`.

mod check;
mod layers;
mod measure;
mod spans;
mod suite;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use measure::{metric, Checker, Measured, Metric, Reference};
use spans::Tracer;
use suite::{Bench, Setup, State};

/// Pinned fingerprints of every pass's output.
const FINGERPRINTS: &str = include_str!("../fingerprints.txt");

/// The benchmark's declaration, read for the self-test.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which end-to-end metric and workload each per-layer metric moves.
const LAYERS_JSON: &str = include_str!("../layers.json");

/// Set-ups a run makes (fewer when it makes fewer rounds); each input
/// is estimated like a pass.
const SETUP_REPS: usize = 6;

const USAGE: &str = "\
usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                 [--scale N] [--trace-out PATH]
       perfbench --noise SECONDS
       perfbench --self-test
       perfbench --bless

workloads: grid-replay, vm-record, analyses";

#[derive(Debug)]
struct Args {
    workload: Option<Bench>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: u32,
    trace_out: Option<PathBuf>,
    noise: Option<f64>,
    self_test: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: 1,
        trace_out: None,
        noise: None,
        self_test: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Bench::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = parse(&flag, &value()?)?,
            "--seconds" => args.seconds = parse(&flag, &value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--scale" => args.scale = parse(&flag, &value()?)?,
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--noise" => args.noise = Some(parse(&flag, &value()?)?),
            "--self-test" => args.self_test = true,
            "--bless" => args.bless = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.scale == 0 || args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--scale and --seconds must be positive".into());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("perfbench: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some(secs) = args.noise {
        noise(secs, args.scale)
    } else if args.self_test {
        self_test(args.scale)
    } else if args.bless {
        bless(args.scale)
    } else if let Some(bench) = args.workload {
        if args.trace {
            traced(bench, &args)
        } else {
            measured(bench, &args)
        }
    } else {
        Err("--workload is required".to_string())
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The machine-readable result: the last line of stdout.
fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// Set `bench` up once and build its per-run state.
fn prepare(bench: Bench, scale: u32, reference: &mut Reference) -> Result<(State, Setup), String> {
    let mut setup = Setup::new(bench, scale);
    let store = setup.run(reference)?;
    Ok((State::new(store, scale), setup))
}

/// The seed of round `r`: each round permutes its passes afresh.
fn round_seed(seed: u64, r: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(r as u64)
}

fn print_passes(m: &Measured, floor: f64) {
    println!(
        "{:<28} {:>10} {:>10} {:>10} {:>5}",
        "pass", "estimate_s", "fastest_s", "median_s", "reps"
    );
    for ((label, times), est) in m.labels.iter().zip(&m.times).zip(m.estimates(floor)) {
        let fastest = times.iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "{label:<28} {est:>10.4} {fastest:>10.4} {:>10.4} {:>5}",
            measure::median(times),
            times.len()
        );
    }
    for f in &m.failures {
        println!("FAILED {f}");
    }
}

/// The untraced run: set-up, then `R` rounds; end-to-end metrics.
fn measured(bench: Bench, args: &Args) -> Result<(), String> {
    let t0 = Instant::now();
    let cpu0 = measure::cpu_s();
    let rounds = measure::rounds_for(args.seconds);
    println!(
        "workload {}  scale {}  seed {}  rounds {rounds}",
        bench.name(),
        args.scale,
        args.seed
    );
    let mut reference = Reference::new();
    let (mut state, mut setup) = prepare(bench, args.scale, &mut reference)?;
    let mut checker = Checker::new(bench, FINGERPRINTS, false);
    let mut m = Measured::default();
    // Further set-ups are spread evenly over the run, like the rounds, so
    // one slow episode cannot cover every repetition. Each replaces the
    // state, so the run never holds two stores at once.
    let setups_after = |r: usize| (r * (SETUP_REPS - 1)) / rounds;
    for r in 0..rounds {
        let seed = round_seed(args.seed, r);
        m.merge(measure::run(
            bench,
            &mut state,
            1,
            seed,
            &mut checker,
            None,
            &mut reference,
        ));
        if setups_after(r + 1) > setups_after(r) {
            drop(state);
            state = State::new(setup.run(&mut reference)?, args.scale);
        }
    }
    drop(state);
    let floor = reference.fastest();
    let setup_s = setup.seconds(floor);
    let rss = measure::peak_rss_mib();
    print_passes(&m, floor);
    let round_s = m.round_s(floor);
    println!(
        "round_s        {round_s:.4}  (each pass from its {rounds} repetitions, rescaled to full speed)"
    );
    println!(
        "median_round_s {:.4}  as measured (diagnostic)",
        measure::median(&m.round_walls)
    );
    let fastest = floor / measure::REFERENCE_FULL_SPEED_S;
    println!(
        "host_slowdown  median {:.3}  fastest {fastest:.3}  (diagnostic)",
        m.host_slowdown()
    );
    if fastest > measure::SLOW_RUN {
        println!(
            "warning: the host never came within {}x of full speed in this run; \
             its estimates may read low",
            measure::SLOW_RUN
        );
    }
    println!("setup_s        {setup_s:.4}");
    println!("peak_rss_mib   {rss:.1}");
    println!(
        "process_wall_s {:.2}  process_cpu_s {:.2}  (diagnostic)",
        t0.elapsed().as_secs_f64(),
        measure::cpu_s() - cpu0
    );
    println!("attempted {}  failed {}", m.attempted, m.failed);
    println!(
        "{}",
        result_line(
            m.attempted,
            m.failed,
            &[
                metric("round_s", round_s, "s"),
                metric("setup_s", setup_s, "s"),
                metric("peak_rss_mib", rss, "MiB"),
            ],
        )
    );
    Ok(())
}

/// The traced run: untraced and traced rounds interleaved (their
/// difference is the tracing overhead), then the layer probes; prints
/// self time per layer and every per-layer metric, and writes the spans
/// as a Chrome trace.
fn traced(bench: Bench, args: &Args) -> Result<(), String> {
    let tracer = Tracer::new();
    let rounds = layers::TRACED_ROUNDS;
    println!(
        "traced run: workload {}  scale {}  seed {}  rounds {rounds}+{rounds}",
        bench.name(),
        args.scale,
        args.seed
    );
    tracer.set_row(bench.name());
    let mut reference = Reference::new();
    let (mut state, _) =
        tracer.span("core.setup", || prepare(bench, args.scale, &mut reference))?;
    let mut checker = Checker::new(bench, FINGERPRINTS, false);
    let mut plain = Measured::default();
    let mut with = Measured::default();
    for r in 0..rounds {
        let seed = round_seed(args.seed, r);
        plain.merge(measure::run(
            bench,
            &mut state,
            1,
            seed,
            &mut checker,
            None,
            &mut reference,
        ));
        let m = tracer.span("bench.round", || {
            measure::run(
                bench,
                &mut state,
                1,
                seed,
                &mut checker,
                Some(&tracer),
                &mut reference,
            )
        });
        with.merge(m);
    }
    let floor = reference.fastest();
    let (plain_s, with_s) = (plain.round_s(floor), with.round_s(floor));
    drop(state);

    tracer.set_row("layer probes");
    let metrics = layers::probe(&tracer, args.scale)?;

    let spans = tracer.spans();
    spans::check_tree(&spans)?;
    println!("{:<12} {:>10}", "layer", "self_s");
    for (layer, secs) in spans::layer_self_s(&spans) {
        println!("{layer:<12} {secs:>10.4}");
    }
    println!(
        "tracing overhead: traced {with_s:.4} s - untraced {plain_s:.4} s = {:+.4} s per round",
        with_s - plain_s
    );
    for m in &metrics {
        println!("{:<34} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let out = args
        .trace_out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("perfbench/out/{}.trace.json", bench.name())));
    write_trace(&out, &spans)?;
    println!("spans: {} written to {}", spans.len(), out.display());
    let attempted = plain.attempted + with.attempted;
    let failed = plain.failed + with.failed;
    for f in plain.failures.iter().chain(&with.failures) {
        println!("FAILED {f}");
    }
    println!("{}", result_line(attempted, failed, &metrics));
    Ok(())
}

fn write_trace(path: &PathBuf, spans: &[spans::Span]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let json = spans::chrome_json(spans);
    cachegc_core::validate_chrome_trace(&json).map_err(|e| format!("own trace invalid: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))
}

/// Host-noise record: one short fixed pass back to back for `secs`.
fn noise(secs: f64, scale: u32) -> Result<(), String> {
    let pass = suite::Pass::Record(cachegc_workloads::Workload::Rewrite, None);
    let mut state = State::new(cachegc_core::TraceStore::unbounded(), scale);
    let mut reference = Reference::new();
    let mut times = Vec::new();
    let mut refs = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < secs {
        refs.push(reference.time());
        let t = Instant::now();
        let done = suite::run(pass, &mut state)?;
        times.push(t.elapsed().as_secs_f64());
        drop(done);
    }
    let fastest = times.iter().copied().fold(f64::INFINITY, f64::min);
    let slow: Vec<bool> = times.iter().map(|&t| t > 1.5 * fastest).collect();
    let mut runs: Vec<usize> = Vec::new();
    let mut current = 0;
    for &s in &slow {
        if s {
            current += 1;
        } else if current > 0 {
            runs.push(current);
            current = 0;
        }
    }
    if current > 0 {
        runs.push(current);
    }
    let slow_n = slow.iter().filter(|&&s| s).count();
    println!(
        "pass {}  scale {scale}  passes {}",
        pass.label(),
        times.len()
    );
    println!("fastest_s {fastest:.4}");
    println!("median_s  {:.4}", measure::median(&times));
    println!(
        "over_1.5x_fastest {slow_n} of {} ({:.1} %)",
        times.len(),
        100.0 * slow_n as f64 / times.len() as f64
    );
    println!(
        "slow runs (consecutive slow passes): count {}  longest {}",
        runs.len(),
        runs.iter().max().copied().unwrap_or(0)
    );
    let deciles: Vec<String> = (1..10)
        .map(|d| {
            let mut v = times.clone();
            v.sort_by(f64::total_cmp);
            format!("{:.4}", v[(v.len() * d / 10).min(v.len() - 1)])
        })
        .collect();
    println!("deciles_s {}", deciles.join(" "));
    let series: Vec<String> = times.iter().map(|t| format!("{t:.4}")).collect();
    println!("series_s {}", series.join(" "));
    let series: Vec<String> = refs.iter().map(|t| format!("{t:.5}")).collect();
    println!("reference_series_s {}", series.join(" "));
    Ok(())
}

/// Regenerate `fingerprints.txt` from one round of every workload.
fn bless(scale: u32) -> Result<(), String> {
    let mut lines = vec![
        "# <workload> <pass> <exact counts and output hash>; regenerate with --bless".to_string(),
    ];
    for bench in Bench::ALL {
        let mut reference = Reference::new();
        let (mut state, _) = prepare(bench, scale, &mut reference)?;
        let mut checker = Checker::new(bench, "", true);
        let m = measure::run(bench, &mut state, 2, 1, &mut checker, None, &mut reference);
        if m.failed > 0 {
            return Err(format!("{}: {:?}", bench.name(), m.failures));
        }
        lines.extend(checker.lines());
        println!("{}: {} passes blessed", bench.name(), m.labels.len());
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/fingerprints.txt");
    std::fs::write(path, lines.join("\n") + "\n").map_err(|e| format!("{path}: {e}"))
}

/// Self-test: one round of every workload prints every declared metric
/// with its unit and fails nothing; every per-layer metric maps onto a
/// declared workload and end-to-end metric; the traced run's span tree
/// is clean and its Chrome export validates.
fn self_test(scale: u32) -> Result<(), String> {
    let decl = layers::Declaration::parse(BENCHMARK_JSON, LAYERS_JSON)?;
    decl.check()?;
    println!(
        "ok: {} per-layer metrics map onto workloads and end-to-end metrics",
        decl.per_layer.len()
    );
    let names: Vec<&str> = Bench::ALL.iter().map(|b| b.name()).collect();
    if decl.workloads != names {
        return Err(format!(
            "BENCHMARK.json declares workloads {:?}, the benchmark runs {names:?}",
            decl.workloads
        ));
    }
    for bench in Bench::ALL {
        let mut reference = Reference::new();
        let (mut state, setup) = prepare(bench, scale, &mut reference)?;
        let mut checker = Checker::new(bench, FINGERPRINTS, false);
        let m = measure::run(bench, &mut state, 1, 1, &mut checker, None, &mut reference);
        if m.failed > 0 {
            return Err(format!("{}: {:?}", bench.name(), m.failures));
        }
        let floor = reference.fastest();
        let line = result_line(
            m.attempted,
            m.failed,
            &[
                metric("round_s", m.round_s(floor), "s"),
                metric("setup_s", setup.seconds(floor), "s"),
                metric("peak_rss_mib", measure::peak_rss_mib(), "MiB"),
            ],
        );
        decl.check_line(&line, &decl.end_to_end)?;
        println!(
            "ok: {} prints every end-to-end metric: {line}",
            bench.name()
        );
    }
    let tracer = Tracer::new();
    tracer.set_row("layer probes");
    let metrics = layers::probe(&tracer, scale)?;
    decl.check_line(&result_line(1, 0, &metrics), &decl.per_layer)?;
    println!("ok: the traced run prints every per-layer metric");
    let spans = tracer.spans();
    spans::check_tree(&spans)?;
    let summary = cachegc_core::validate_chrome_trace(&spans::chrome_json(&spans))?;
    println!(
        "ok: {} spans, no orphans, no negative self time; chrome export validates",
        summary.spans
    );
    Ok(())
}
