//! The tentpole benchmark: sequential `Fanout` vs a crew of replay
//! readers on the paper's full 40-cell cache grid (8 sizes × 5 block
//! sizes), both over a raw synthetic reference stream (isolates the
//! sinks, recorded into the feed the readers decode) and over a real VM
//! trace pass (a full control sweep end to end).
//!
//! Crews of 2 and 4 workers are measured against the sequential oracle;
//! this prints the measured speedups. (On a one-core
//! container the interesting number is the overhead, not the speedup —
//! bit-identity of the results is enforced by the property tests.)
//!
//! Every measured configuration is also recorded as one [`GridRun`]
//! (labelled `<stream>/sequential` or `<stream>/jobs=N`) and the whole
//! run is written to `BENCH_grid.json` (override with
//! `CACHEGC_BENCH_JSON`), so the performance trajectory of the engine is
//! machine-readable across PRs.

use std::hint::black_box;
use std::time::Instant;

use cachegc_bench::harness::{bench_with_setup, Summary};
use cachegc_bench::{GridReport, GridRun};
use cachegc_core::{run_control, Cache, EngineConfig, ExperimentConfig, PacketKind, Runner};
use cachegc_trace::Fanout;
use cachegc_workloads::{synthetic, Workload};

const STREAM_OBJECTS: u32 = 50_000;
const STREAM_EVENTS: u64 = STREAM_OBJECTS as u64 * 7;
/// Packet-crew widths measured (1 is the sequential oracle).
const JOBS: [usize; 2] = [2, 4];

fn grid() -> Vec<Cache> {
    ExperimentConfig::paper()
        .configs()
        .into_iter()
        .map(Cache::new)
        .collect()
}

/// One measured configuration, as a trajectory record: `events` is the
/// per-pass stream length, `cells` the grid width it fanned out over.
fn run(label: String, scale: u32, events: u64, s: &Summary) -> GridRun {
    GridRun {
        workload: label,
        scale,
        events,
        cells: grid().len(),
        wall: s.median,
    }
}

fn bench_synthetic(runs: &mut Vec<GridRun>) {
    let cells = grid().len() as u64;
    let seq = bench_with_setup(
        "paper_grid/synthetic/sequential",
        Some(STREAM_EVENTS * cells),
        || Fanout::new(grid()),
        |mut fan| {
            synthetic::one_cycle_sweep(&mut fan, STREAM_OBJECTS, 2);
            black_box(fan.sinks().len());
        },
    );
    runs.push(run("synthetic/sequential".into(), 1, STREAM_EVENTS, &seq));
    for jobs in JOBS {
        let par = bench_with_setup(
            &format!("paper_grid/synthetic/jobs={jobs}"),
            Some(STREAM_EVENTS * cells),
            move || Runner::new(EngineConfig::jobs(jobs)),
            |runner| {
                let ((), caches) = runner.drive(PacketKind::Task, grid(), |mut fan| {
                    synthetic::one_cycle_sweep(&mut fan, STREAM_OBJECTS, 2);
                });
                black_box(caches.len());
            },
        );
        println!(
            "  -> speedup vs sequential: {:.2}x",
            seq.median.as_secs_f64() / par.median.as_secs_f64()
        );
        runs.push(run(
            format!("synthetic/jobs={jobs}"),
            1,
            STREAM_EVENTS,
            &par,
        ));
    }
}

fn bench_vm_pass(runs: &mut Vec<GridRun>) {
    let cfg = ExperimentConfig::paper();
    let w = Workload::Rewrite.scaled(1);
    let events = run_control(w, &cfg).expect("control pass").refs;
    let seq = bench_with_setup(
        "paper_grid/run_control/sequential",
        None,
        || (),
        |()| {
            black_box(run_control(w, &cfg).unwrap().refs);
        },
    );
    runs.push(run("rewrite/sequential".into(), 1, events, &seq));
    for jobs in JOBS {
        let par = bench_with_setup(
            &format!("paper_grid/run_control/jobs={jobs}"),
            None,
            move || Runner::new(EngineConfig::jobs(jobs)),
            |runner| {
                black_box(runner.control(w, &cfg).unwrap().refs);
            },
        );
        println!(
            "  -> speedup vs sequential: {:.2}x",
            seq.median.as_secs_f64() / par.median.as_secs_f64()
        );
        runs.push(run(format!("rewrite/jobs={jobs}"), 1, events, &par));
    }
}

fn main() {
    let t0 = Instant::now();
    let mut runs = Vec::new();
    bench_synthetic(&mut runs);
    bench_vm_pass(&mut runs);
    GridReport {
        binary: "parallel_grid".into(),
        jobs: *JOBS.iter().max().expect("nonempty"),
        runs,
        total_wall: t0.elapsed(),
    }
    .write();
}
