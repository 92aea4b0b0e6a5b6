//! Record/replay integration tests: the scenario-keyed trace store must
//! be invisible to every result — a replayed trace drives the simulators
//! event-for-event identically to the live VM — while making each unique
//! (workload, scale, collector) scenario run the VM at most once.

use cachegc::core::{
    run_control, CollectorSpec, EngineConfig, ExperimentConfig, Runner, TraceStore,
};
use cachegc::trace::{Access, AccessKind, Context, TraceSink};
use cachegc::workloads::Workload;

/// An order-sensitive fingerprint of an event stream: an FNV-1a chain
/// over every field of every access. Two streams hash equal only if they
/// are the same events in the same order (up to hash collision), without
/// buffering millions of events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    hash: u64,
    events: u64,
}

impl Fingerprint {
    fn new() -> Self {
        Fingerprint {
            hash: 0xcbf2_9ce4_8422_2325,
            events: 0,
        }
    }

    fn mix(&mut self, byte: u8) {
        self.hash ^= byte as u64;
        self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl TraceSink for Fingerprint {
    fn access(&mut self, a: Access) {
        for b in a.addr.to_le_bytes() {
            self.mix(b);
        }
        self.mix(matches!(a.kind, AccessKind::Write) as u8);
        self.mix(matches!(a.ctx, Context::Collector) as u8);
        self.mix(a.alloc_init as u8);
        self.events += 1;
    }
}

/// Every collector configuration a scenario can run under, at heap sizes
/// small enough to force real collections at scale 1.
fn specs() -> [Option<CollectorSpec>; 5] {
    [
        None,
        Some(CollectorSpec::Cheney {
            semispace_bytes: 2 << 20,
        }),
        Some(CollectorSpec::Generational {
            nursery_bytes: 1 << 20,
            old_bytes: 16 << 20,
        }),
        Some(CollectorSpec::Immix {
            heap_bytes: 4 << 20,
        }),
        Some(CollectorSpec::MarkSweep {
            heap_bytes: 4 << 20,
        }),
    ]
}

#[test]
fn replay_is_event_identical_to_live_for_every_workload_and_collector() {
    for w in Workload::ALL {
        for spec in specs() {
            let store = TraceStore::unbounded();
            let engine = EngineConfig::jobs(2);
            let runner = Runner::new(engine).with_store(&store);
            // First pass runs the VM live and records; second replays the
            // recording through the sharded path (jobs = 2).
            let (live_stats, live) = runner
                .sinks(w.scaled(1), spec, vec![Fingerprint::new()])
                .unwrap_or_else(|e| panic!("{} {spec:?}: {e}", w.name()));
            let (replay_stats, replayed) = runner
                .sinks(w.scaled(1), spec, vec![Fingerprint::new()])
                .unwrap();
            assert!(live[0].events > 0, "{}: empty trace", w.name());
            assert_eq!(
                live[0],
                replayed[0],
                "{} {spec:?}: replay diverged from the live stream",
                w.name()
            );
            assert_eq!(
                live_stats.instructions.program(),
                replay_stats.instructions.program(),
                "{} {spec:?}: replay must return the recorded run's stats",
                w.name()
            );
            let s = store.stats();
            assert_eq!(
                (s.misses, s.hits, s.entries, s.over_budget),
                (1, 1, 1, 0),
                "{} {spec:?}: {s}",
                w.name()
            );
        }
    }
}

#[test]
fn tiny_budget_with_spill_replays_event_identical_to_live() {
    // The correctness bar for eviction + spill: a store too small to hold
    // every capture at once, backed by disk segments, still drives the
    // simulators event-for-event identically to the live VM on every
    // pass — whether a pass records live, replays a resident entry, or
    // re-materializes an evicted one from its spill file.
    let dir = std::env::temp_dir().join(format!("cachegc_replay_spill_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let scenarios = [Workload::Rewrite.scaled(1), Workload::Nbody.scaled(1)];
    let engine = EngineConfig::jobs(2);

    // Live oracle fingerprints, plus each capture's encoded size so the
    // budget can be pinned between "holds either" and "holds both".
    let sizing = TraceStore::unbounded();
    let oracle_runner = Runner::new(engine).with_store(&sizing);
    let oracle: Vec<Fingerprint> = scenarios
        .iter()
        .map(|&w| {
            oracle_runner
                .sinks(w, None, vec![Fingerprint::new()])
                .unwrap()
                .1[0]
        })
        .collect();
    let sizes: Vec<u64> = sizing
        .scenario_gauges()
        .into_iter()
        .map(|(_, g)| g.bytes)
        .collect();
    let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
    assert!(min > 0, "captures are non-empty");
    let budget = max + min / 2; // fits either capture, never both

    let store = TraceStore::with_budget(budget).with_spill(dir.clone());
    let runner = Runner::new(engine).with_store(&store);
    // Two rounds over both scenarios: round one records (the second
    // capture evicts the first), round two re-materializes from disk.
    for round in 0..2 {
        for (w, expect) in scenarios.iter().zip(&oracle) {
            let (_, got) = runner.sinks(*w, None, vec![Fingerprint::new()]).unwrap();
            assert_eq!(
                got[0],
                *expect,
                "round {round}, {}: spill-backed replay diverged",
                w.workload.name()
            );
        }
    }
    let s = store.stats();
    assert!(s.evictions >= 1, "the budget forced an eviction: {s}");
    assert_eq!(s.spills, 2, "both captures wrote through to disk: {s}");
    assert!(s.spill_loads >= 1, "an evicted scenario reloaded: {s}");
    assert_eq!(
        s.over_budget, 0,
        "eviction means no capture was refused: {s}"
    );
    assert_eq!(
        s.misses + s.spill_loads,
        s.entries + s.evictions + s.over_budget,
        "store arrivals balance: {s}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restarted_store_warm_starts_from_spilled_segments() {
    // The kill-and-restart contract: a fresh store pointed at the
    // previous process's spill directory replays every spilled scenario
    // without running the VM, and the replay is event-identical.
    let dir = std::env::temp_dir().join(format!("cachegc_replay_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let w = Workload::Compile.scaled(1);
    let engine = EngineConfig::jobs(2);

    let first = TraceStore::unbounded().with_spill(dir.clone());
    let runner = Runner::new(engine).with_store(&first);
    let (_, live) = runner.sinks(w, None, vec![Fingerprint::new()]).unwrap();
    assert_eq!(first.stats().spills, 1, "the capture wrote through");
    drop(first);

    // "Restart": a brand-new store, same directory.
    let second = TraceStore::unbounded().with_spill(dir.clone());
    let runner = Runner::new(engine).with_store(&second);
    let (_, warm) = runner.sinks(w, None, vec![Fingerprint::new()]).unwrap();
    assert_eq!(warm[0], live[0], "warm-started replay diverged");
    let s = second.stats();
    assert_eq!(
        (s.misses, s.hits, s.spill_loads),
        (0, 1, 1),
        "the restarted store never ran the VM: {s}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shared_store_runs_each_scenario_at_most_once_across_runners() {
    // The golden_check drive pattern in miniature: one store spans a
    // control grid, the control and collected passes of a comparison,
    // and a regrid of the control scenario at different cache geometry.
    // Two unique scenarios exist, so the VM runs exactly twice no matter
    // how many passes ask.
    let mut cfg = ExperimentConfig::quick();
    cfg.cache_sizes = vec![32 << 10, 128 << 10];
    let spec = CollectorSpec::Cheney {
        semispace_bytes: 1 << 20,
    };
    let w = Workload::Rewrite.scaled(1);

    let store = TraceStore::unbounded();
    let runner = Runner::new(EngineConfig::jobs(2)).with_store(&store);
    let first = runner.control(w, &cfg).unwrap();
    let control = runner.control(w, &cfg).unwrap();
    runner.collected(w, &cfg, spec).unwrap();
    let mut regrid = cfg.clone();
    regrid.cache_sizes = vec![64 << 10];
    let second = runner.control(w, &regrid).unwrap();

    // "VM at most once": every miss produced an entry, and later passes
    // were all hits — control replayed twice (comparison + regrid), the
    // collected scenario once more would hit too.
    let s = store.stats();
    assert_eq!((s.misses, s.entries, s.over_budget), (2, 2, 0), "{s}");
    assert_eq!(s.hits, 2, "comparison control pass + regrid replayed: {s}");

    // Replayed passes agree with each other and with a live oracle.
    assert_eq!(first.i_prog, control.i_prog);
    assert_eq!(first.i_prog, second.i_prog);
    let oracle = run_control(w, &regrid).unwrap();
    assert_eq!(oracle.i_prog, second.i_prog);
    for (a, b) in oracle.cells.iter().zip(&second.cells) {
        assert_eq!(a.stats, b.stats, "replayed grid equals the live oracle");
    }
}
