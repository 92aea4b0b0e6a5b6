//! Timeline and trace-export integration tests: the two observability
//! channels must be *exact* and *invisible*.
//!
//! Exact: every committed timeline's per-window deltas sum to its
//! aggregate [`CacheTotals`] with integer equality, and the aggregate
//! equals an independent cache of the same geometry riding the same
//! stream — on the live, record, and replay engine paths, at one worker
//! and several. Invisible: attaching the recorder and a span-capturing
//! telemetry registry changes no result a sink reports, and the exported
//! artifacts validate against their own schemas (`cachegc-timeline-v1`
//! JSONL, Chrome trace-event JSON with named worker rows).

use std::sync::Arc;

use cachegc::core::{
    chrome_trace_json, validate_chrome_trace, validate_timeline, CollectorSpec, EngineConfig,
    Runner, Telemetry, TimelineRecorder, TimelineSpec, TraceStore, TIMELINE_SCHEMA,
};
use cachegc::sim::{Cache, CacheConfig, CacheStats};
use cachegc::workloads::Workload;

/// Small windows against a scale-1 run: many windows per pass, so the
/// sum property is exercised across real window boundaries and the GC
/// epoch splits between them.
fn tl_spec() -> TimelineSpec {
    TimelineSpec {
        cache: CacheConfig::direct_mapped(16 << 10, 32),
        window_events: 4096,
    }
}

fn spec() -> Option<CollectorSpec> {
    Some(CollectorSpec::Cheney {
        semispace_bytes: 512 << 10,
    })
}

/// A sink grid whose first cache shares the timeline's geometry, so the
/// recorder can be checked against an independently-driven cache.
fn grid() -> Vec<Cache> {
    vec![
        Cache::new(tl_spec().cache),
        Cache::new(CacheConfig::direct_mapped(128 << 10, 32)),
    ]
}

#[test]
fn window_sums_reconstruct_the_aggregate_on_every_path() {
    let w = Workload::Rewrite.scaled(1);
    let mut oracle: Option<CacheStats> = None;
    for jobs in [1, 2, 3] {
        let engine = EngineConfig::jobs(jobs);
        let store = TraceStore::unbounded();
        let recorder = TimelineRecorder::new(tl_spec());
        let runner = Runner::new(engine)
            .with_store(&store)
            .with_timeline(&recorder);
        // Pass 1 records (live VM), pass 2 replays the capture.
        let (_, sinks) = runner.sinks(w, spec(), grid()).unwrap();
        let (_, replay_sinks) = runner.sinks(w, spec(), grid()).unwrap();
        assert_eq!(store.stats().hits, 1, "pass 2 replayed");

        let twin = sinks[0].stats().clone();
        assert!(twin.fetches() > 0, "the workload touched the caches");
        assert_eq!(replay_sinks[0].stats(), &twin, "replay is bit-identical");
        match &oracle {
            None => oracle = Some(twin.clone()),
            Some(o) => assert_eq!(&twin, o, "jobs {jobs}"),
        }

        let runs = recorder.runs();
        assert_eq!(runs.len(), 2, "one committed timeline per pass");
        for run in &runs {
            assert!(
                run.report.windows.len() > 1,
                "{}: several windows at this scale",
                run.label
            );
            // The invariant under test: integer-exact reconstruction
            // of the aggregate from the per-window deltas...
            assert_eq!(
                run.report.windows_sum(),
                run.report.totals,
                "{} (jobs {jobs})",
                run.label
            );
            // ...and the aggregate is the truth: it matches the
            // same-geometry cache that rode the sink fanout.
            assert_eq!(run.report.totals, twin.totals(), "{}", run.label);
            assert!(
                run.report.collections.len() > 1,
                "{}: a 512 KB semispace forces several collections",
                run.label
            );
            // Epoch-aligned windows: each is purely mutator or purely
            // collector, so per-context attribution is exact.
            let gc_reads: u64 = run
                .report
                .windows
                .iter()
                .filter(|w| w.ctx == cachegc::trace::Context::Collector)
                .map(|w| w.delta.collector_reads)
                .sum();
            assert!(gc_reads > 0, "{}: collector windows present", run.label);
        }
        // Both passes saw the same stream, so their timelines agree
        // bit-for-bit (labels too: same scenario, recorded then hit).
        assert_eq!(runs[0].report, runs[1].report);

        // The JSONL export round-trips through the validator.
        let jsonl = recorder.to_jsonl("timeline_it");
        assert!(jsonl.starts_with(&format!("{{\"schema\": \"{TIMELINE_SCHEMA}\"")));
        validate_timeline(&jsonl).unwrap();
    }
}

#[test]
fn observability_is_invisible_to_results() {
    let w = Workload::Rewrite.scaled(1);
    let bare = Runner::new(EngineConfig::jobs(2));
    let (_, oracle) = bare.sinks(w, spec(), grid()).unwrap();

    let recorder = TimelineRecorder::new(tl_spec());
    let telemetry = Arc::new(Telemetry::with_spans());
    let store = TraceStore::unbounded();
    let watched = Runner::new(EngineConfig::jobs(2))
        .with_store(&store)
        .with_timeline(&recorder)
        .with_telemetry(&telemetry);
    let (_, live) = watched.sinks(w, spec(), grid()).unwrap();
    let (_, replay) = watched.sinks(w, spec(), grid()).unwrap();

    for (i, o) in oracle.iter().enumerate() {
        assert_eq!(live[i].stats(), o.stats(), "sink {i} live");
        assert_eq!(replay[i].stats(), o.stats(), "sink {i} replay");
    }
}

#[test]
fn a_two_worker_chrome_trace_validates_with_worker_rows() {
    let w = Workload::Rewrite.scaled(1);
    let telemetry = Arc::new(Telemetry::with_spans());
    let runner = Runner::new(EngineConfig::jobs(2)).with_telemetry(&telemetry);
    let _shard = telemetry.attach();
    runner.sinks(w, spec(), grid()).unwrap();
    drop(_shard);

    let trace = chrome_trace_json(&telemetry.snapshot());
    let summary = validate_chrome_trace(&trace).unwrap();
    assert!(summary.spans > 0, "packet spans were captured");
    assert!(
        summary.workers >= 2,
        "both crew workers own a named row: {summary:?}"
    );
    // A span-free registry still exports a valid (if empty) trace.
    let quiet = chrome_trace_json(&Telemetry::new().snapshot());
    let summary = validate_chrome_trace(&quiet).unwrap();
    assert_eq!(summary.spans, 0);
}
