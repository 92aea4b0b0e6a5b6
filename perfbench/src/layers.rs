//! Per-layer probes for the traced run: each layer's public functions
//! timed directly from the benchmark's own code, every call inside a
//! span, on one fixed input — prove's uncollected trace at the run's
//! scale (2.03 M events at scale 1). Also the `BENCHMARK.json` /
//! `layers.json` declaration checks of the self-test.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cachegc_analysis::{ActivityTracker, BlockTracker, SweepPlot, Timeline};
use cachegc_core::json::{self, Json};
use cachegc_core::{
    Acquired, Cache, EventBatch, ExperimentConfig, GridCache, RecordedTrace, Recorder,
    SetAssocCache, Telemetry, TraceStore,
};
use cachegc_gc::{
    CheneyCollector, Collector, GcStats, GenerationalCollector, ImmixCollector, MarkSweepCollector,
    NoCollector, Roots,
};
use cachegc_heap::Heap;
use cachegc_telemetry::Counter;
use cachegc_trace::{Access, Counters, Fanout, NullSink, RefCounter, TraceSink};
use cachegc_vm::Machine;
use cachegc_workloads::Workload;

use crate::measure::{metric, Metric};
use crate::spans::Tracer;
use crate::suite::{self, Grid, CHENEY_2M};

/// Untraced and traced rounds the traced run makes of its workload.
pub const TRACED_ROUNDS: usize = 1;

/// Repetitions of each probe; a probe reports its fastest.
const REPS: usize = 2;

/// The probe input program.
const INPUT: Workload = Workload::Prove;

/// Time `f` `reps` times inside spans named `name`; fastest seconds and
/// the last result.
fn fastest<T>(tr: &Tracer, name: &str, reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let v = tr.span(name, &mut f);
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.expect("at least one repetition"))
}

fn rate(events: f64, secs: f64) -> f64 {
    events / secs / 1e6
}

/// A sink that keeps every event, so the sim and analysis probes run
/// from memory with no decode in the way.
#[derive(Default)]
struct Capture(Vec<Access>);

impl TraceSink for Capture {
    fn access(&mut self, a: Access) {
        self.0.push(a);
    }
}

fn feed<S: TraceSink>(events: &[Access], mut sink: S) -> S {
    for &a in events {
        sink.access(a);
    }
    sink
}

/// A collector wrapper that puts every `collect` call of the real
/// collector inside it in a span, so the gc layer's self time is its
/// collections and the vm layer's is the mutator.
struct Traced<'t, C> {
    inner: C,
    tr: &'t Tracer,
    span: &'t str,
}

impl<C: Collector> Collector for Traced<'_, C> {
    fn install(&mut self, heap: &mut Heap) {
        self.inner.install(heap);
    }

    fn collect<S: TraceSink>(
        &mut self,
        heap: &mut Heap,
        roots: &mut Roots<'_>,
        counters: &mut Counters,
        sink: &mut S,
    ) {
        let inner = &mut self.inner;
        self.tr
            .span(self.span, || inner.collect(heap, roots, counters, sink));
    }

    fn prepare_alloc<S: TraceSink>(&mut self, heap: &mut Heap, bytes: u32, sink: &mut S) -> bool {
        self.inner.prepare_alloc(heap, bytes, sink)
    }

    fn note_store(&mut self, addr: u32, val: cachegc_heap::Value) {
        self.inner.note_store(addr, val);
    }

    fn barrier_cost(&self) -> u64 {
        self.inner.barrier_cost()
    }

    fn stats(&self) -> &GcStats {
        self.inner.stats()
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Summed seconds of the spans named `name` recorded since span index
/// `from`.
fn span_s(tr: &Tracer, from: usize, name: &str) -> f64 {
    tr.spans()[from..]
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum()
}

/// Run every program under `make()`'s collector; summed collect and
/// mutator seconds and the summed collector statistics.
fn gc_probe<C: Collector>(
    tr: &Tracer,
    scale: u32,
    name: &str,
    make: impl Fn() -> C,
) -> Result<(f64, f64, GcStats), String> {
    let collect = format!("gc.{name}.collect");
    let from = tr.spans().len();
    let (mut run_s, mut total) = (0.0, GcStats::default());
    for w in Workload::ALL {
        let t = Instant::now();
        let out = tr
            .span(&format!("vm.run_under_{name}"), || {
                w.scaled(scale).run(
                    Traced {
                        inner: make(),
                        tr,
                        span: &collect,
                    },
                    NullSink,
                )
            })
            .map_err(|e| format!("gc.{name} {}: {e}", w.name()))?;
        run_s += t.elapsed().as_secs_f64();
        let s = out.stats.gc;
        total.collections += s.collections;
        total.bytes_copied += s.bytes_copied;
        total.bytes_swept += s.bytes_swept;
        total.lines_reclaimed += s.lines_reclaimed;
    }
    let collect_s = span_s(tr, from, &collect);
    Ok((collect_s, run_s - collect_s, total))
}

/// Every per-layer metric, measured on the probe input.
pub fn probe(tr: &Tracer, scale: u32) -> Result<Vec<Metric>, String> {
    let mut m = Vec::new();

    // workloads: program source generation.
    let mut source_s = 0.0;
    for w in Workload::ALL {
        let (t, _) = fastest(tr, "workloads.source", 20, || black_box(w.source(scale)));
        source_s += t;
    }
    m.push(metric("workloads.source_s", source_s, "s"));

    // vm: boot, and every program with no collector into a null sink.
    let (boot_s, _) = fastest(tr, "vm.boot", 20, || {
        black_box(Machine::new(NoCollector::new(), NullSink));
    });
    let (mut run_s, mut events) = (0.0, 0u64);
    for w in Workload::ALL {
        let source = w.source(scale);
        let (t, r) = fastest(tr, "vm.run", REPS, || {
            let mut vm = Machine::new(NoCollector::new(), NullSink);
            vm.run_program(&source).map(|_| ())
        });
        r.map_err(|e| format!("vm.run {}: {e}", w.name()))?;
        run_s += t;
        let mut vm = Machine::new(NoCollector::new(), RefCounter::new());
        tr.span("vm.count", || vm.run_program(&source))
            .map_err(|e| format!("vm.count {}: {e}", w.name()))?;
        events += vm.sink().total();
    }
    m.push(metric("vm.boot_s", boot_s, "s"));
    m.push(metric("vm.run_s", run_s, "s"));
    m.push(metric("vm.mev_s", rate(events as f64, run_s), "Mev/s"));
    m.push(metric("vm.events", events as f64, "count"));

    // gc: every program under each collector of vm-record.
    let gcs = [
        (
            "cheney",
            gc_probe(tr, scale, "cheney", || CheneyCollector::new(2 << 20))?,
        ),
        (
            "gen",
            gc_probe(tr, scale, "gen", || {
                GenerationalCollector::new(256 << 10, 24 << 20)
            })?,
        ),
        (
            "immix",
            gc_probe(tr, scale, "immix", || ImmixCollector::new(4 << 20))?,
        ),
        (
            "marksweep",
            gc_probe(tr, scale, "marksweep", || MarkSweepCollector::new(4 << 20))?,
        ),
    ];
    for (name, (collect_s, mutator_s, stats)) in gcs {
        m.push(metric(&format!("gc.{name}.collect_s"), collect_s, "s"));
        m.push(metric(&format!("gc.{name}.mutator_s"), mutator_s, "s"));
        m.push(metric(
            &format!("gc.{name}.collections"),
            stats.collections as f64,
            "count",
        ));
        // Each design's own reclamation work: the copying collectors
        // move bytes, mark-region reclaims lines (it evacuates nothing
        // at scale 1), mark-sweep sweeps.
        m.push(match name {
            "immix" => metric(
                "gc.immix.lines_reclaimed",
                stats.lines_reclaimed as f64,
                "count",
            ),
            "marksweep" => metric("gc.marksweep.bytes_swept", stats.bytes_swept as f64, "B"),
            _ => metric(
                &format!("gc.{name}.bytes_moved"),
                stats.bytes_copied as f64,
                "B",
            ),
        });
    }

    // core store: grid-replay's four recordings, then hits.
    let store = TraceStore::unbounded();
    let runner = suite::runner(1).with_store(&store);
    for spec in [None, Some(CHENEY_2M)] {
        for w in [Workload::Prove, Workload::Rewrite] {
            tr.span("core.runner.sinks", || {
                runner.sinks(w.scaled(scale), spec, vec![RefCounter::new()])
            })
            .map_err(|e| format!("probe recording: {e}"))?;
        }
    }
    let input = INPUT.scaled(scale);
    let mut acquires = Vec::new();
    let stored = tr.span("core.store.acquire", || {
        let mut last = None;
        for _ in 0..200 {
            let t = Instant::now();
            let hit = store.acquire(input, None);
            acquires.push(t.elapsed().as_secs_f64());
            last = Some(hit);
        }
        last
    });
    let Some(Acquired::Hit { trace: stored, .. }) = stored else {
        return Err("probe store missed a recorded scenario".into());
    };
    let trace: &RecordedTrace = &stored.trace;
    let st = store.stats();
    m.push(metric(
        "core.store.acquire_s",
        crate::measure::median(&acquires),
        "s",
    ));
    m.push(metric(
        "core.store.resident_mib",
        st.bytes as f64 / (1 << 20) as f64,
        "MiB",
    ));
    m.push(metric("core.store.hits", st.hits as f64, "count"));
    m.push(metric("core.store.misses", st.misses as f64, "count"));
    m.push(metric("core.store.entries", st.entries as f64, "count"));

    // trace: decode (scalar and batched) and encode from memory.
    let n = trace.events() as f64;
    let (decode_s, _) = fastest(tr, "trace.decode", REPS, || trace.replay(&mut NullSink));
    let (batched_s, _) = fastest(tr, "trace.decode_batched", REPS, || {
        trace.replay_batched(|b| {
            black_box(b);
        })
    });
    let mut capture = Capture::default();
    tr.span("trace.decode", || trace.replay(&mut capture));
    let events = capture.0;
    let (encode_s, recorded) = fastest(tr, "trace.encode", REPS, || {
        feed(&events, Recorder::new()).finish()
    });
    let recorded = recorded.ok_or("recorder overflowed")?;
    m.push(metric("trace.encode_s", encode_s, "s"));
    m.push(metric("trace.encode_mev_s", rate(n, encode_s), "Mev/s"));
    m.push(metric(
        "trace.bytes_per_event",
        recorded.bytes() as f64 / n,
        "B/event",
    ));
    m.push(metric("trace.decode_s", decode_s, "s"));
    m.push(metric("trace.decode_mev_s", rate(n, decode_s), "Mev/s"));
    m.push(metric(
        "trace.decode_batched_mev_s",
        rate(n, batched_s),
        "Mev/s",
    ));

    // sim: the three grid widths, per-cache scalar vs batch kernel.
    let mut batches: Vec<EventBatch> = Vec::new();
    trace.replay_batched(|b| batches.push(b.clone()));
    let mut grid40_scalar_s = 0.0;
    for grid in [Grid::WriteValidate40, Grid::FetchOnWrite15, Grid::Cheney8] {
        let configs = grid.config().configs();
        let k = configs.len();
        let (scalar_s, _) = fastest(tr, &format!("sim.grid{k}_scalar"), REPS, || {
            feed(
                &events,
                Fanout::new(configs.iter().map(|&c| Cache::new(c)).collect()),
            )
        });
        let (batch_s, _) = fastest(tr, &format!("sim.grid{k}_batch"), REPS, || {
            let mut g = GridCache::new(configs.clone());
            batches.iter().for_each(|b| g.consume(b));
            g
        });
        if grid == Grid::WriteValidate40 {
            grid40_scalar_s = scalar_s;
        }
        let cell_events = n * k as f64;
        m.push(metric(
            &format!("sim.grid{k}_scalar_mcell_ev_s"),
            rate(cell_events, scalar_s),
            "Mcell-ev/s",
        ));
        m.push(metric(
            &format!("sim.grid{k}_batch_mcell_ev_s"),
            rate(cell_events, batch_s),
            "Mcell-ev/s",
        ));
    }
    let cfg = suite::cache_64k();
    let (cache_s, _) = fastest(tr, "sim.cache", REPS, || feed(&events, Cache::new(cfg)));
    let (assoc_s, _) = fastest(tr, "sim.assoc", REPS, || {
        feed(&events, SetAssocCache::new(cfg.with_assoc(2)))
    });
    m.push(metric("sim.cache_mev_s", rate(n, cache_s), "Mev/s"));
    m.push(metric("sim.assoc_mev_s", rate(n, assoc_s), "Mev/s"));

    // analysis: each §7 instrument from memory.
    let (blocks_s, _) = fastest(tr, "analysis.blocks", REPS, || {
        feed(&events, BlockTracker::new(64 << 10, 64)).finish()
    });
    let (sweep_s, _) = fastest(tr, "analysis.sweep", REPS, || {
        feed(&events, SweepPlot::new(cfg, 1024))
    });
    let (activity_s, _) = fastest(tr, "analysis.activity", REPS, || {
        feed(&events, ActivityTracker::new(cfg)).finish()
    });
    let (timeline_s, _) = fastest(tr, "analysis.timeline", REPS, || {
        feed(&events, Timeline::new(cfg, 1 << 20)).finish()
    });
    m.push(metric("analysis.blocks_mev_s", rate(n, blocks_s), "Mev/s"));
    m.push(metric("analysis.sweep_mev_s", rate(n, sweep_s), "Mev/s"));
    m.push(metric(
        "analysis.activity_mev_s",
        rate(n, activity_s),
        "Mev/s",
    ));
    m.push(metric(
        "analysis.timeline_mev_s",
        rate(n, timeline_s),
        "Mev/s",
    ));

    // core runner: a grid-replay pass minus its decode and sim parts.
    let paper = ExperimentConfig::paper();
    let (control_s, _) = fastest(tr, "core.runner.control", REPS, || {
        runner.control(input, &paper)
    });
    m.push(metric(
        "core.runner_overhead_s",
        control_s - decode_s - grid40_scalar_s,
        "s",
    ));
    drop(stored);

    // core::sched: a crew miss pass (live VM, recorder, packet
    // broadcast) on two workers against one.
    let cheney8 = Grid::Cheney8.config();
    let crew_pass = |jobs: usize, telemetry: Option<&Arc<Telemetry>>| {
        let store = TraceStore::unbounded();
        let mut r = suite::runner(jobs).with_store(&store);
        if let Some(t) = telemetry {
            r = r.with_telemetry(t);
        }
        r.control(input, &cheney8).map(|_| ())
    };
    let (one_s, r1) = fastest(tr, "core.sched.jobs1", REPS, || crew_pass(1, None));
    let (two_s, r2) = fastest(tr, "core.sched.jobs2", REPS, || crew_pass(2, None));
    r1.and(r2).map_err(|e| format!("sched probe: {e}"))?;
    let telemetry = Arc::new(Telemetry::new());
    tr.span("core.sched.jobs2", || crew_pass(2, Some(&telemetry)))
        .map_err(|e| format!("sched probe: {e}"))?;
    let snap = telemetry.snapshot();
    let workers = &snap.engine.workers;
    m.push(metric("core.sched.speedup", one_s / two_s, "x"));
    m.push(metric(
        "core.sched.idle_s",
        workers.iter().map(|w| w.stats.idle_ns).sum::<u64>() as f64 / 1e9,
        "s",
    ));
    m.push(metric(
        "core.sched.backpressure_s",
        snap.engine.backpressure_ns as f64 / 1e9,
        "s",
    ));
    m.push(metric(
        "core.sched.steals",
        workers.iter().map(|w| w.stats.steals).sum::<u64>() as f64,
        "count",
    ));
    m.push(metric(
        "core.sched.packets",
        snap.counter(Counter::SchedPackets) as f64,
        "count",
    ));
    Ok(m)
}

/// The metric declarations the self-test holds the output to.
pub struct Declaration {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics: (name, unit).
    pub end_to_end: Vec<(String, String)>,
    /// Per-layer metrics: (name, unit).
    pub per_layer: Vec<(String, String)>,
    /// `layers.json`: per-layer metric → `<workload>/<metric>` it moves.
    pub moves: Vec<(String, Vec<String>)>,
}

fn named(doc: &Json, key: &str) -> Result<Vec<(String, String)>, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            name.map(|n| (n.to_string(), unit.to_string()))
                .ok_or_else(|| format!("BENCHMARK.json: unnamed {key} entry"))
        })
        .collect()
}

impl Declaration {
    /// Parse `BENCHMARK.json` and `layers.json`.
    pub fn parse(benchmark: &str, layers: &str) -> Result<Declaration, String> {
        let doc = json::parse(benchmark)?;
        let workloads = named(&doc, "workloads")?
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let moves = json::parse(layers)?
            .as_obj()
            .ok_or("layers.json: not an object")?
            .iter()
            .map(|(k, v)| {
                let cites = v
                    .as_arr()
                    .ok_or_else(|| format!("layers.json: {k} is not a list"))?
                    .iter()
                    .map(|c| c.as_str().map(str::to_string))
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| format!("layers.json: {k} cites a non-string"))?;
                Ok((k.clone(), cites))
            })
            .collect::<Result<_, String>>()?;
        Ok(Declaration {
            workloads,
            end_to_end: named(&doc, "end_to_end")?,
            per_layer: named(&doc, "per_layer")?,
            moves,
        })
    }

    /// Every per-layer metric cites at least one `<workload>/<metric>`
    /// that exists, and `layers.json` maps nothing undeclared.
    pub fn check(&self) -> Result<(), String> {
        for (name, _) in &self.per_layer {
            let cites = self
                .moves
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, c)| c)
                .filter(|c| !c.is_empty())
                .ok_or_else(|| format!("{name}: not mapped in layers.json"))?;
            for cite in cites {
                let (w, metric) = cite
                    .split_once('/')
                    .ok_or_else(|| format!("{name}: bad citation {cite}"))?;
                if !self.workloads.iter().any(|x| x == w) {
                    return Err(format!("{name}: cites unknown workload {w}"));
                }
                if !self.end_to_end.iter().any(|(x, _)| x == metric) {
                    return Err(format!("{name}: cites unknown end-to-end metric {metric}"));
                }
            }
        }
        for (k, _) in &self.moves {
            if !self.per_layer.iter().any(|(n, _)| n == k) {
                return Err(format!("layers.json maps undeclared metric {k}"));
            }
        }
        Ok(())
    }

    /// The result line carries exactly `want`'s metrics, with their
    /// units and finite values.
    pub fn check_line(&self, line: &str, want: &[(String, String)]) -> Result<(), String> {
        let doc = json::parse(line)?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("result line has no metrics object")?;
        let got: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
        let expected: BTreeSet<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
        if got != expected {
            return Err(format!(
                "metrics differ from the declaration: missing {:?}, extra {:?}",
                expected.difference(&got).collect::<Vec<_>>(),
                got.difference(&expected).collect::<Vec<_>>()
            ));
        }
        for (name, unit) in want {
            let m = &metrics[name];
            if m.get("unit").and_then(Json::as_str) != Some(unit.as_str()) {
                return Err(format!("{name}: unit is not {unit}"));
            }
            if m.get("value").and_then(Json::as_f64).is_none() {
                return Err(format!("{name}: value is not a number"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegc_core::CacheConfig;

    #[test]
    fn every_per_layer_metric_names_a_workload_and_end_to_end_metric() {
        let decl = Declaration::parse(crate::BENCHMARK_JSON, crate::LAYERS_JSON).unwrap();
        decl.check().unwrap();
        for w in &decl.workloads {
            assert!(crate::suite::Bench::parse(w).is_some(), "{w}");
        }
    }

    #[test]
    fn a_dangling_citation_is_rejected() {
        let bench = r#"{"workloads": [{"name": "w", "why": "x"}],
            "end_to_end": [{"name": "round_s", "unit": "s"}],
            "per_layer": [{"name": "vm.run_s", "unit": "s"}]}"#;
        let ok = Declaration::parse(bench, r#"{"vm.run_s": ["w/round_s"]}"#).unwrap();
        ok.check().unwrap();
        for bad in [
            r#"{"vm.run_s": ["nope/round_s"]}"#,
            r#"{"vm.run_s": ["w/nope"]}"#,
            r#"{}"#,
            r#"{"vm.run_s": ["w/round_s"], "extra": ["w/round_s"]}"#,
        ] {
            assert!(
                Declaration::parse(bench, bad).unwrap().check().is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn the_result_line_must_carry_exactly_the_declared_metrics() {
        let decl = Declaration::parse(crate::BENCHMARK_JSON, crate::LAYERS_JSON).unwrap();
        let line = crate::result_line(
            1,
            0,
            &decl
                .end_to_end
                .iter()
                .map(|(n, u)| Metric {
                    name: n.clone(),
                    value: 1.0,
                    unit: u.clone(),
                })
                .collect::<Vec<_>>(),
        );
        decl.check_line(&line, &decl.end_to_end).unwrap();
        assert!(decl.check_line(&line, &decl.per_layer).is_err());
    }

    #[test]
    fn cache_config_helpers_match_the_experiments() {
        let cfg: CacheConfig = suite::cache_64k();
        assert_eq!((cfg.size, cfg.block), (64 << 10, 64));
        assert_eq!(Grid::WriteValidate40.config().configs().len(), 40);
        assert_eq!(Grid::FetchOnWrite15.config().configs().len(), 15);
        assert_eq!(Grid::Cheney8.config().configs().len(), 8);
    }
}
