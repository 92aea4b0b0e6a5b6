//! Live-VM trace generation vs recorded-trace replay, per workload.
//!
//! The scenario-keyed trace store only pays off if replaying the compact
//! codec is much faster than re-running the VM. This measures both sides
//! of that trade at golden scale: the live pass is timed once (it *is*
//! the recording pass — the recorder rides the same run), everything
//! else is sampled through the harness, and the encoded bytes/event
//! lands next to the throughputs in `BENCH_replay.json` (schema v2, the
//! prior v1 trajectory carried forward in `baseline_v1`).
//!
//! Four replay variants are measured per workload:
//!
//! * `replay` — scalar decode into one `RefCounter` (the v1 metric).
//! * `decode-scalar` / `decode-batch` — decode-only into a null
//!   consumer, so codec cost is separable from sink cost.
//! * `grid-scalar` / `grid-batch` — end-to-end over the paper's 40-cell
//!   configuration grid: one decode pass driving a `Vec<Cache>` fanout
//!   vs the SoA `GridCache` kernel fed whole `EventBatch`es. Reported
//!   in cell-events/s (trace events × grid cells / wall).
//!
//! Acceptance bars: replay delivers events at least 3× faster than the
//! live VM on at least one workload, and the batch grid kernel delivers
//! at least 2× the v1 single-sink replay throughput in cell-events/s.

use std::hint::black_box;
use std::time::Instant;

use cachegc_bench::harness::bench;
use cachegc_bench::{ReplayReport, ReplayRun};
use cachegc_core::ExperimentConfig;
use cachegc_gc::NoCollector;
use cachegc_sim::{grid_oracle, GridCache};
use cachegc_trace::{Fanout, NullSink, Recorder, RefCounter};
use cachegc_workloads::Workload;

const SCALE: u32 = 1;

fn main() {
    let configs = ExperimentConfig::paper().configs();
    let cells = configs.len();
    // `cargo bench` runs with the package as cwd, so anchor the report at
    // the workspace root unless the env override says otherwise.
    let path = std::env::var("CACHEGC_BENCH_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_replay.json").into());
    let baseline_v1 = std::fs::read_to_string(&path)
        .map(|text| ReplayReport::baseline_from(&text))
        .unwrap_or_default();

    let mut runs = Vec::new();
    for w in Workload::ALL {
        // The live side is timed directly, not sampled: one VM pass is
        // seconds long, and it doubles as the recording pass.
        let start = Instant::now();
        let out = w
            .scaled(SCALE)
            .run(NoCollector::new(), (Recorder::new(), RefCounter::new()))
            .expect("workload runs");
        let live_wall = start.elapsed();
        let (recorder, live_counter) = out.sink;
        let trace = recorder.finish().expect("unbounded recorder");
        let events = trace.events();
        assert_eq!(events, live_counter.total(), "recorder saw every event");
        let live_eps = events as f64 / live_wall.as_secs_f64().max(1e-9);
        println!(
            "trace_replay/{}/live: {} events in {:.3}s ({:.1}M ev/s, {:.2} bytes/event)",
            w.name(),
            events,
            live_wall.as_secs_f64(),
            live_eps / 1e6,
            trace.bytes_per_event(),
        );

        let summary = bench(
            &format!("trace_replay/{}/replay", w.name()),
            Some(events),
            || {
                let mut counter = RefCounter::new();
                trace.replay(&mut counter);
                assert_eq!(counter, live_counter);
                black_box(counter.total());
            },
        );
        let replay_eps = events as f64 / summary.median.as_secs_f64().max(1e-9);
        println!(
            "  -> replay speedup vs live VM: {:.2}x",
            replay_eps / live_eps
        );

        // Decode-only: the codec with the sink cost removed.
        let summary = bench(
            &format!("trace_replay/{}/decode-scalar", w.name()),
            Some(events),
            || {
                let mut sink = NullSink;
                trace.replay(&mut sink);
                black_box(&sink);
            },
        );
        let decode_scalar_eps = events as f64 / summary.median.as_secs_f64().max(1e-9);
        let summary = bench(
            &format!("trace_replay/{}/decode-batch", w.name()),
            Some(events),
            || {
                let mut seen = 0u64;
                trace.replay_batched(|b| seen += b.len() as u64);
                assert_eq!(seen, events);
                black_box(seen);
            },
        );
        let decode_batch_eps = events as f64 / summary.median.as_secs_f64().max(1e-9);

        // End-to-end grid: one decode pass driving every cell of the
        // paper's configuration grid. Check the two kernels agree on
        // this trace before timing either.
        let mut oracle = Fanout::new(grid_oracle(&configs));
        trace.replay(&mut oracle);
        let mut grid = GridCache::new(configs.clone());
        trace.replay_batched(|b| grid.consume(b));
        for (cache, (cfg, stats)) in oracle.sinks().iter().zip(grid.into_cells()) {
            assert_eq!(*cache.config(), cfg, "grid preserves config order");
            assert_eq!(*cache.stats(), stats, "grid kernel matches oracle");
        }

        let cell_events = events * cells as u64;
        let summary = bench(
            &format!("trace_replay/{}/grid-scalar", w.name()),
            Some(cell_events),
            || {
                let mut fan = Fanout::new(grid_oracle(&configs));
                trace.replay(&mut fan);
                black_box(fan.sinks().len());
            },
        );
        let grid_scalar_ceps = cell_events as f64 / summary.median.as_secs_f64().max(1e-9);
        let summary = bench(
            &format!("trace_replay/{}/grid-batch", w.name()),
            Some(cell_events),
            || {
                let mut grid = GridCache::new(configs.clone());
                trace.replay_batched(|b| grid.consume(b));
                black_box(grid.events());
            },
        );
        let grid_batch_ceps = cell_events as f64 / summary.median.as_secs_f64().max(1e-9);
        println!(
            "  -> grid batch vs scalar: {:.2}x; vs v1 replay metric: {:.2}x",
            grid_batch_ceps / grid_scalar_ceps,
            grid_batch_ceps / replay_eps,
        );

        runs.push(ReplayRun {
            workload: w.name().to_string(),
            scale: SCALE,
            events,
            trace_bytes: trace.bytes(),
            live_events_per_sec: live_eps,
            replay_events_per_sec: replay_eps,
            decode_scalar_events_per_sec: decode_scalar_eps,
            decode_batch_events_per_sec: decode_batch_eps,
            grid_cells: cells,
            grid_scalar_cell_events_per_sec: grid_scalar_ceps,
            grid_batch_cell_events_per_sec: grid_batch_ceps,
        });
    }
    ReplayReport { runs, baseline_v1 }.write_to(&path);
}
