//! Telemetry integration tests: the instrumentation must be *invisible*
//! to every result — simulator statistics identical to the probe-free VM
//! driving the caches itself, on every driver path (live, record,
//! replay), one worker and several — while the merged counters agree
//! with the [`RunStats`](cachegc::vm::RunStats) oracle the VM returns
//! anyway.

use std::io::Write;
use std::sync::{Arc, Mutex};

use cachegc::core::{
    validate_manifest, CollectorSpec, EngineConfig, Manifest, ManifestConfig, Progress, Runner,
    Telemetry, TraceStore,
};
use cachegc::gc::CheneyCollector;
use cachegc::sim::{Cache, CacheConfig, CacheStats};
use cachegc::telemetry::Counter;
use cachegc::trace::{Fanout, RefCounter};
use cachegc::workloads::Workload;

fn grid() -> Vec<Cache> {
    [32 << 10, 128 << 10]
        .into_iter()
        .map(|size| Cache::new(CacheConfig::direct_mapped(size, 64)))
        .collect()
}

fn spec() -> Option<CollectorSpec> {
    Some(CollectorSpec::Cheney {
        semispace_bytes: 1 << 20,
    })
}

/// The oracle of one pass: the VM driving the caches through one
/// `Fanout` under `spec()`'s collector, no engine and no probes.
fn oracle() -> Vec<CacheStats> {
    let out = Workload::Rewrite
        .scaled(1)
        .run(CheneyCollector::new(1 << 20), Fanout::new(grid()))
        .unwrap();
    out.sink.sinks().iter().map(|c| c.stats().clone()).collect()
}

/// Run the live (no store), record (store miss), and replay (store hit)
/// paths in order and return every cache's statistics.
fn three_paths(engine: EngineConfig, telemetry: Option<&Arc<Telemetry>>) -> Vec<CacheStats> {
    let w = Workload::Rewrite.scaled(1);
    let store = TraceStore::unbounded();
    let mut out = Vec::new();
    for pass in 0..3 {
        let mut runner = Runner::new(engine);
        if pass > 0 {
            runner = runner.with_store(&store);
        }
        if let Some(telemetry) = telemetry {
            runner = runner.with_telemetry(telemetry);
        }
        let (_, caches) = runner.sinks(w, spec(), grid()).unwrap();
        out.extend(caches.iter().map(|c| c.stats().clone()));
    }
    assert_eq!(store.stats().misses, 1, "pass 1 recorded");
    assert_eq!(store.stats().hits, 1, "pass 2 replayed");
    out
}

#[test]
fn telemetry_is_invisible_to_results() {
    let oracle = vec![oracle(); 3].concat();
    assert!(oracle[0].fetches() > 0, "the workload touched the caches");
    for jobs in [1, 3] {
        let telemetry = Arc::new(Telemetry::new());
        let with = three_paths(EngineConfig::jobs(jobs), Some(&telemetry));
        // Equality with the probe-free oracle is the on/off identity and
        // the engine determinism property at once.
        assert_eq!(with, oracle, "telemetry perturbed results at jobs {jobs}");
        // The instrumented run actually observed something: one crew per
        // live pass (live, record) at every worker count, plus the
        // replay's when it has more than one reader.
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter(Counter::VmRuns), 2, "live + record");
        let crews = if jobs > 1 { 3 } else { 2 };
        assert_eq!(snap.engine.runs, crews, "one engine run per crew");
    }
}

#[test]
fn merged_counters_match_the_run_stats_oracle() {
    let w = Workload::Rewrite.scaled(1);
    let telemetry = Arc::new(Telemetry::new());
    let store = TraceStore::unbounded();
    let runner = Runner::new(EngineConfig::jobs(3))
        .with_store(&store)
        .with_telemetry(&telemetry);

    let tallies = vec![RefCounter::new(), RefCounter::new(), RefCounter::new()];
    let (stats, tallies) = runner.sinks(w, spec(), tallies).unwrap();
    let (replay_stats, _) = runner.sinks(w, spec(), vec![RefCounter::new()]).unwrap();
    assert_eq!(
        stats.gc.collections, replay_stats.gc.collections,
        "replay returns the recorded stats"
    );

    let snap = telemetry.snapshot();
    // One live VM run (the replay is not a VM run), which triggered
    // exactly the collections the RunStats oracle reports.
    assert_eq!(snap.counter(Counter::VmRuns), 1);
    assert!(
        stats.gc.major_collections > 0,
        "heap small enough to force GC"
    );
    assert_eq!(
        snap.counter(Counter::GcMajorCollections),
        stats.gc.major_collections
    );
    assert_eq!(snap.counter(Counter::GcBytesCopied), stats.gc.bytes_copied);
    assert!(snap.counter(Counter::VmAllocs) > 0);
    assert_eq!(snap.counter(Counter::VmGcTriggers), stats.gc.collections);

    // Pause spans: one per collection, by construction.
    let pauses = snap.phase("gc_major").expect("gc_major spans recorded");
    assert_eq!(pauses.count, stats.gc.major_collections);
    assert_eq!(
        pauses.hist.count(),
        pauses.count,
        "histogram covers every pause"
    );

    // The store accounted the recorded capture exactly.
    let events = tallies[0].total();
    assert_eq!(snap.counter(Counter::StoreRecordedEvents), events);
    assert_eq!(
        snap.counter(Counter::StoreRecordedBytes),
        store.stats().bytes
    );

    // Engine totals: the record pass's crew drove 3 sinks with every
    // event, and `(event, sink)` pairs sum exactly. The one-sink replay
    // ran in-thread, which reports no engine run.
    assert_eq!(snap.engine.runs, 1);
    assert_eq!(snap.engine.events_applied(), events * 3);
    assert_eq!(snap.engine.events_published, events);
    assert!(
        snap.engine.chunks_published >= 1,
        "the feed carried segments"
    );

    // Phases: one of each driver span.
    for phase in ["vm_execute", "record", "replay", "sink_drain"] {
        assert_eq!(snap.phase(phase).unwrap().count, 1, "{phase}");
    }
}

/// A `Write` handle into a shared buffer, so a [`Progress`] sink can be
/// inspected after the run.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn progress_ticks_once_per_pass_into_its_own_writer() {
    let w = Workload::Rewrite.scaled(1);
    let store = TraceStore::unbounded();
    let buf = Arc::new(Mutex::new(Vec::new()));
    let progress = Progress::to_writer("e0_demo", 2, Box::new(SharedBuf(buf.clone())));
    let runner = Runner::new(EngineConfig::jobs(2))
        .with_store(&store)
        .with_progress(&progress);

    let (_, first) = runner.sinks(w, spec(), grid()).unwrap();
    let (_, second) = runner.sinks(w, spec(), grid()).unwrap();
    assert_eq!(progress.completed(), 2);

    // Progress went to its writer alone, and never changed a result: the
    // two passes (record, then replay) agree with the oracle.
    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text:?}");
    assert!(lines[0].starts_with("[e0_demo] pass 1/2 done"), "{text:?}");
    assert!(lines[1].starts_with("[e0_demo] pass 2/2 done"), "{text:?}");
    assert!(lines[1].contains("store: 1 hits, 1 misses"), "{text:?}");
    let stats: Vec<_> = first
        .iter()
        .chain(&second)
        .map(|c| c.stats().clone())
        .collect();
    assert_eq!(
        vec![oracle(); 2].concat(),
        stats,
        "record + replay match the oracle"
    );
}

#[test]
fn a_real_runs_manifest_validates_end_to_end() {
    let w = Workload::Rewrite.scaled(1);
    let telemetry = Arc::new(Telemetry::new());
    let store = TraceStore::unbounded();
    let runner = Runner::new(EngineConfig::jobs(2))
        .with_store(&store)
        .with_telemetry(&telemetry);
    runner.sinks(w, spec(), grid()).unwrap();
    runner.sinks(w, spec(), grid()).unwrap();

    let manifest = Manifest::gather(
        ManifestConfig {
            experiment: "telemetry_it".into(),
            scale: 1,
            jobs: 2,
            jobs_requested: 2,
            trace_cache: "unbounded".into(),
        },
        &telemetry.snapshot(),
        Some(&store),
    );
    let json = manifest.to_json();
    validate_manifest(&json).unwrap();
    // The bench-side strict checker accepts it too: vm_execute spans are
    // present and the store's hit is backed by a replay span.
    cachegc_bench::golden::check_manifest(&json).unwrap();
    assert!(json.contains("\"cheney/1.0M\"") || json.contains("rewrite@1"));
}

#[test]
fn spill_and_eviction_counters_flow_into_a_valid_manifest() {
    let dir = std::env::temp_dir().join(format!("cachegc_tm_spill_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let scenarios = [Workload::Rewrite.scaled(1), Workload::Nbody.scaled(1)];
    let engine = EngineConfig::jobs(2);

    // Size the budget between "holds either capture" and "holds both".
    let sizing = TraceStore::unbounded();
    let sizing_runner = Runner::new(engine).with_store(&sizing);
    for &w in &scenarios {
        sizing_runner.sinks(w, None, grid()).unwrap();
    }
    let sizes: Vec<u64> = sizing
        .scenario_gauges()
        .into_iter()
        .map(|(_, g)| g.bytes)
        .collect();
    let budget = sizes.iter().max().unwrap() + sizes.iter().min().unwrap() / 2;

    let telemetry = Arc::new(Telemetry::new());
    let store = TraceStore::with_budget(budget).with_spill(dir.clone());
    let runner = Runner::new(engine)
        .with_store(&store)
        .with_telemetry(&telemetry);
    // Record both (the second capture evicts the first), then reload the
    // first from disk (which in turn evicts the second).
    for &w in scenarios.iter().chain([&scenarios[0]]) {
        runner.sinks(w, None, grid()).unwrap();
    }
    let snap = telemetry.snapshot();
    let s = store.stats();
    assert_eq!(snap.counter(Counter::StoreEvictions), s.evictions);
    assert!(s.evictions >= 1, "{s}");
    assert_eq!(snap.counter(Counter::StoreBytesEvicted), s.bytes_evicted);
    assert_eq!(snap.counter(Counter::StoreSpills), s.spills);
    assert_eq!(snap.counter(Counter::StoreSpillLoads), s.spill_loads);
    assert!(s.spill_loads >= 1, "{s}");

    let manifest = Manifest::gather(
        ManifestConfig {
            experiment: "telemetry_it".into(),
            scale: 1,
            jobs: 2,
            jobs_requested: 2,
            trace_cache: format!("{budget} bytes, spill {}", dir.display()),
        },
        &telemetry.snapshot(),
        Some(&store),
    );
    let json = manifest.to_json();
    validate_manifest(&json).unwrap();
    cachegc_bench::golden::check_manifest(&json).unwrap();
    assert!(json.contains("\"spill_loads\""));

    // A restarted store warm-starts without VM runs, and its manifest is
    // still accepted: spill loads stand in for vm_execute spans.
    let warm_telemetry = Arc::new(Telemetry::new());
    let warm_store = TraceStore::with_budget(budget).with_spill(dir.clone());
    let warm_runner = Runner::new(engine)
        .with_store(&warm_store)
        .with_telemetry(&warm_telemetry);
    warm_runner.sinks(scenarios[0], None, grid()).unwrap();
    assert_eq!(warm_telemetry.snapshot().counter(Counter::VmRuns), 0);
    let warm = Manifest::gather(
        ManifestConfig {
            experiment: "telemetry_it".into(),
            scale: 1,
            jobs: 2,
            jobs_requested: 2,
            trace_cache: format!("{budget} bytes, spill {}", dir.display()),
        },
        &warm_telemetry.snapshot(),
        Some(&warm_store),
    );
    cachegc_bench::golden::check_manifest(&warm.to_json()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn over_budget_captures_warn_and_count() {
    let w = Workload::Rewrite.scaled(1);
    let telemetry = Arc::new(Telemetry::new());
    let store = TraceStore::with_budget(8);
    let runner = Runner::new(EngineConfig::jobs(1))
        .with_store(&store)
        .with_telemetry(&telemetry);
    runner.sinks(w, spec(), grid()).unwrap();

    let snap = telemetry.snapshot();
    assert_eq!(snap.counter(Counter::StoreCapturesDropped), 1);
    assert_eq!(snap.counter(Counter::Warnings), 1);
    assert_eq!(snap.counter(Counter::StoreRecordedBytes), 0);
    assert_eq!(store.stats().over_budget, 1);
    assert_eq!(store.stats().entries, 0);
}
