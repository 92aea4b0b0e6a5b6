//! The three benchmark workloads: what each sets up, the passes one round
//! runs, and the production entry point every pass calls.
//!
//! Every pass goes through the engine's front door at its defaults
//! (`Runner`, one worker unless stated, scalar replay kernel, scale 1)
//! and returns its raw output; checking happens outside the timed region
//! (see [`crate::check`]).

use std::hint::black_box;
use std::time::Instant;

use cachegc_analysis::{
    Activity, ActivityTracker, BlockReport, BlockTracker, Instrument, SweepPlot, Timeline,
    TimelineReport,
};
use cachegc_core::{
    CacheConfig, CollectedRun, CollectorSpec, ControlReport, EngineConfig, ExperimentConfig,
    Runner, Schedule, SetAssocCache, StoreStats, TraceStore, WriteMissPolicy,
};
use cachegc_trace::RefCounter;
use cachegc_vm::RunStats;
use cachegc_workloads::Workload;

use crate::measure::{estimate, Reference};

/// Cheney with 2 MB semispaces: the e5/e6/e14 default.
pub const CHENEY_2M: CollectorSpec = CollectorSpec::Cheney {
    semispace_bytes: 2 << 20,
};

/// The collector designs of e14's zoo that vm-record runs lambda under
/// besides Cheney.
pub const ZOO_SPECS: [CollectorSpec; 3] = [
    CollectorSpec::Generational {
        nursery_bytes: 256 << 10,
        old_bytes: 24 << 20,
    },
    CollectorSpec::Immix {
        heap_bytes: 4 << 20,
    },
    CollectorSpec::MarkSweep {
        heap_bytes: 4 << 20,
    },
];

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// Store-hit replays through the e3/e4/e5 cache grids, one of them on
    /// a two-worker crew.
    GridReplay,
    /// Store-miss captures: prove and rewrite uncollected, lambda
    /// uncollected and under four collector designs, and one capture on
    /// a two-worker crew.
    VmRecord,
    /// Store-hit replays into one §7 instrument at a time.
    Analyses,
}

impl Bench {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Bench; 3] = [Bench::GridReplay, Bench::VmRecord, Bench::Analyses];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Bench::GridReplay => "grid-replay",
            Bench::VmRecord => "vm-record",
            Bench::Analyses => "analyses",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// The scenarios set-up records into the workload's shared store.
    pub fn recordings(self) -> Vec<(Workload, Option<CollectorSpec>)> {
        match self {
            Bench::GridReplay => vec![
                (Workload::Prove, None),
                (Workload::Prove, Some(CHENEY_2M)),
                (Workload::Rewrite, None),
                (Workload::Rewrite, Some(CHENEY_2M)),
            ],
            Bench::Analyses => vec![
                (Workload::Prove, None),
                (Workload::Rewrite, None),
                (Workload::Nbody, None),
            ],
            Bench::VmRecord => Vec::new(),
        }
    }

    /// The programs whose source text set-up generates (workloads that
    /// record nothing still build their programs' inputs).
    pub fn programs(self) -> Vec<Workload> {
        match self {
            Bench::GridReplay => vec![Workload::Prove, Workload::Rewrite],
            Bench::VmRecord => vec![Workload::Prove, Workload::Rewrite, Workload::Lambda],
            Bench::Analyses => vec![Workload::Prove, Workload::Rewrite, Workload::Nbody],
        }
    }

    /// The passes of one round, in declaration order; a round runs them
    /// in a seed-permuted order.
    pub fn passes(self) -> Vec<Pass> {
        match self {
            // Rewrite's 40-cell pass is left out: at 1–2.5 s and the
            // largest cache state, its rescaled time moved ±17 % between
            // runs and set the workload's spread. Prove keeps the 40-cell
            // width in the round.
            Bench::GridReplay => vec![
                Pass::Grid(Workload::Prove, Grid::WriteValidate40),
                Pass::Grid(Workload::Prove, Grid::FetchOnWrite15),
                Pass::Grid(Workload::Prove, Grid::Cheney8),
                Pass::Grid(Workload::Rewrite, Grid::FetchOnWrite15),
                Pass::Grid(Workload::Rewrite, Grid::Cheney8),
                Pass::CrewHit(Workload::Prove),
            ],
            // Golden-run recordings: prove and rewrite uncollected (e1);
            // lambda uncollected (e1) and under every e14 design but the
            // 1 MB-nursery generational one.
            Bench::VmRecord => [Workload::Prove, Workload::Rewrite]
                .map(|w| Pass::Record(w, None))
                .into_iter()
                .chain(
                    [None, Some(CHENEY_2M)]
                        .into_iter()
                        .chain(ZOO_SPECS.map(Some))
                        .map(|s| Pass::Record(Workload::Lambda, s)),
                )
                .chain([Pass::CrewMiss(Workload::Prove)])
                .collect(),
            Bench::Analyses => [Workload::Prove, Workload::Rewrite, Workload::Nbody]
                .into_iter()
                .flat_map(|w| Tool::ALL.map(|t| Pass::Analyze(w, t)))
                .collect(),
        }
    }
}

/// The cache grids grid-replay drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// e3: the paper's 40-cell write-validate grid, control run.
    WriteValidate40,
    /// e4: 15 cells (32 KB, 256 KB, 1 MB × five blocks), fetch-on-write.
    FetchOnWrite15,
    /// e5: Cheney 2 MB against the eight 64-byte-block cells.
    Cheney8,
}

impl Grid {
    fn label(self) -> &'static str {
        match self {
            Grid::WriteValidate40 => "e3-wv40",
            Grid::FetchOnWrite15 => "e4-fow15",
            Grid::Cheney8 => "e5-cheney8",
        }
    }

    /// The experiment configuration the grid uses.
    pub fn config(self) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper();
        match self {
            Grid::WriteValidate40 => {}
            Grid::FetchOnWrite15 => {
                cfg.cache_sizes = vec![32 << 10, 256 << 10, 1 << 20];
                cfg = cfg.with_write_miss(WriteMissPolicy::FetchOnWrite);
            }
            Grid::Cheney8 => cfg.block_sizes = vec![64],
        }
        cfg
    }
}

/// The §7 instruments the analyses workload feeds, one per pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tool {
    /// `BlockTracker`, 64 KB cache, 64-byte blocks (e9/e10/e14).
    Blocks,
    /// `SweepPlot`, 64 KB / 64 B, 1024 references per column (e8).
    Sweep,
    /// `ActivityTracker`, 64 KB / 64 B (e11).
    Activity,
    /// Two-way `SetAssocCache`, 64 KB / 64 B (a1).
    Assoc,
    /// The `Timeline` tap, 64 KB / 64 B, 1 M-event windows.
    Timeline,
}

impl Tool {
    /// Every instrument, in pass order.
    pub const ALL: [Tool; 5] = [
        Tool::Blocks,
        Tool::Sweep,
        Tool::Activity,
        Tool::Assoc,
        Tool::Timeline,
    ];

    fn label(self) -> &'static str {
        match self {
            Tool::Blocks => "blocks",
            Tool::Sweep => "sweep",
            Tool::Activity => "activity",
            Tool::Assoc => "assoc2",
            Tool::Timeline => "timeline",
        }
    }
}

/// The 64 KB direct-mapped cache with 64-byte blocks every §7
/// instrument samples.
pub fn cache_64k() -> CacheConfig {
    CacheConfig::direct_mapped(64 << 10, 64)
}

/// One operation of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// A store hit through `Runner::control` / `Runner::collected`.
    Grid(Workload, Grid),
    /// A store-miss capture into a fresh store via `Runner::sinks`.
    Record(Workload, Option<CollectorSpec>),
    /// A store hit via `Runner::instruments` (`Runner::sinks` over the
    /// closed instrument set) into one instrument.
    Analyze(Workload, Tool),
    /// A two-worker work-stealing `Runner::control` over the 8-cell grid
    /// into a fresh store: live VM and recorder, the trace broadcast to
    /// the cells by `PacketFanout`.
    CrewMiss(Workload),
    /// The same call as a store hit: a sharded replay, one `ReplayShard`
    /// packet per worker.
    CrewHit(Workload),
}

impl Pass {
    /// A stable label: `<program>/<what>`.
    pub fn label(self) -> String {
        match self {
            Pass::Grid(w, g) => format!("{}/{}", w.name(), g.label()),
            Pass::Record(w, spec) => format!(
                "{}/record-{}",
                w.name(),
                spec.map_or_else(|| "none".to_string(), |s| s.name())
            ),
            Pass::Analyze(w, t) => format!("{}/{}", w.name(), t.label()),
            Pass::CrewMiss(w) => format!("{}/crew2-miss8", w.name()),
            Pass::CrewHit(w) => format!("{}/crew2-hit8", w.name()),
        }
    }

    /// Whether the pass reads the workload's shared store (and must be
    /// a pure hit on it) rather than capturing into a store of its own.
    pub fn shared(self) -> bool {
        !matches!(self, Pass::Record(..) | Pass::CrewMiss(_))
    }
}

/// What a pass produced.
#[derive(Debug)]
pub enum Output {
    /// A control grid (grid-replay e3/e4, the crew passes).
    Control(ControlReport),
    /// A collected grid (grid-replay e5).
    Collected(CollectedRun),
    /// A capture: the run's statistics and the reference count.
    Record {
        /// VM and collector statistics.
        stats: RunStats,
        /// Data references the `RefCounter` sink saw.
        refs: u64,
    },
    /// `BlockTracker` report.
    Blocks(BlockReport),
    /// The sweep plot.
    Sweep(SweepPlot),
    /// The activity decomposition.
    Activity(Activity),
    /// The set-associative cache.
    Assoc(SetAssocCache),
    /// The timeline report.
    Timeline(TimelineReport),
}

/// A finished pass: its output and the store statistics it observed.
#[derive(Debug)]
pub struct Done {
    /// The pass's output.
    pub output: Output,
    /// Store statistics right after the pass (the pass's own store for
    /// captures, the shared store otherwise).
    pub store: StoreStats,
    /// A store the pass owns, handed back so it is dropped outside the
    /// timed region.
    pub retired: Option<TraceStore>,
}

/// Per-run state: the shared store set-up filled.
#[derive(Debug)]
pub struct State {
    /// The store set-up recorded into.
    pub store: TraceStore,
    scale: u32,
}

impl State {
    /// The state over `store` at `scale`.
    pub fn new(store: TraceStore, scale: u32) -> State {
        State { store, scale }
    }
}

/// A runner at the benchmark's defaults for `jobs` workers.
pub fn runner(jobs: usize) -> Runner<'static> {
    if jobs <= 1 {
        Runner::sequential()
    } else {
        Runner::new(EngineConfig::jobs(jobs).with_schedule(Schedule::WorkStealing))
    }
}

fn vm_err(pass: Pass, e: impl std::fmt::Display) -> String {
    format!("{}: {e}", pass.label())
}

/// Run one pass. Only the call into the engine runs here; checks and
/// drops happen in the caller, outside the timed region.
pub fn run(pass: Pass, state: &mut State) -> Result<Done, String> {
    let scale = state.scale;
    match pass {
        Pass::Grid(w, grid) => {
            let r = runner(1).with_store(&state.store);
            let output = match grid {
                Grid::Cheney8 => Output::Collected(
                    r.collected(w.scaled(scale), &grid.config(), CHENEY_2M)
                        .map_err(|e| vm_err(pass, e))?,
                ),
                _ => Output::Control(
                    r.control(w.scaled(scale), &grid.config())
                        .map_err(|e| vm_err(pass, e))?,
                ),
            };
            Ok(Done {
                output,
                store: state.store.stats(),
                retired: None,
            })
        }
        Pass::Record(w, spec) => {
            let store = TraceStore::unbounded();
            let (stats, sinks) = runner(1)
                .with_store(&store)
                .sinks(w.scaled(scale), spec, vec![RefCounter::new()])
                .map_err(|e| vm_err(pass, e))?;
            let refs = sinks.iter().map(RefCounter::total).sum();
            Ok(Done {
                output: Output::Record { stats, refs },
                store: store.stats(),
                retired: Some(store),
            })
        }
        Pass::Analyze(w, tool) => {
            let instrument: Instrument = match tool {
                Tool::Blocks => BlockTracker::new(64 << 10, 64).into(),
                Tool::Sweep => SweepPlot::new(cache_64k(), 1024).into(),
                Tool::Activity => ActivityTracker::new(cache_64k()).into(),
                Tool::Assoc => SetAssocCache::new(cache_64k().with_assoc(2)).into(),
                Tool::Timeline => Timeline::new(cache_64k(), 1 << 20).into(),
            };
            let (_, out) = runner(1)
                .with_store(&state.store)
                .instruments(w.scaled(scale), None, vec![instrument])
                .map_err(|e| vm_err(pass, e))?;
            let out = first(out);
            let output = match tool {
                Tool::Blocks => out.into_block_report().map(Output::Blocks),
                Tool::Sweep => out.into_sweep().map(Output::Sweep),
                Tool::Activity => out.into_activity().map(Output::Activity),
                Tool::Assoc => out.into_assoc().map(Output::Assoc),
                Tool::Timeline => out.into_timeline().map(Output::Timeline),
            }
            .expect("an instrument comes back as the kind it went in");
            Ok(Done {
                output,
                store: state.store.stats(),
                retired: None,
            })
        }
        Pass::CrewMiss(w) => {
            let store = TraceStore::unbounded();
            let report = runner(2)
                .with_store(&store)
                .control(w.scaled(scale), &Grid::Cheney8.config())
                .map_err(|e| vm_err(pass, e))?;
            Ok(Done {
                output: Output::Control(report),
                store: store.stats(),
                retired: Some(store),
            })
        }
        Pass::CrewHit(w) => {
            let report = runner(2)
                .with_store(&state.store)
                .control(w.scaled(scale), &Grid::Cheney8.config())
                .map_err(|e| vm_err(pass, e))?;
            Ok(Done {
                output: Output::Control(report),
                store: state.store.stats(),
                retired: None,
            })
        }
    }
}

fn first<S>(sinks: Vec<S>) -> S {
    sinks.into_iter().next().expect("one sink in, one sink out")
}

/// Set-up: generate the programs' sources and record the workload's
/// scenarios into a fresh store. A run sets up several times, spread
/// over its rounds; each input is estimated like a pass (see
/// [`crate::measure::estimate`]).
pub struct Setup {
    bench: Bench,
    scale: u32,
    /// Each input's repetitions: (seconds as measured, kernel time).
    samples: Vec<Vec<(f64, f64)>>,
}

impl Setup {
    /// No repetitions yet.
    pub fn new(bench: Bench, scale: u32) -> Setup {
        Setup {
            bench,
            scale,
            samples: vec![Vec::new(); bench.programs().len() + bench.recordings().len()],
        }
    }

    /// One repetition: every scenario recorded into one fresh store,
    /// which is returned.
    pub fn run(&mut self, reference: &mut Reference) -> Result<TraceStore, String> {
        let scale = self.scale;
        let samples = &mut self.samples;
        let mut before = reference.time();
        let mut sample = |input: usize, secs: f64, reference: &mut Reference| {
            let after = reference.time();
            samples[input].push((secs, (before + after) / 2.0));
            before = after;
        };
        let programs = self.bench.programs();
        for (i, w) in programs.iter().enumerate() {
            // Source generation takes microseconds: time batches, each
            // its own sample.
            for _ in 0..SOURCE_SAMPLES {
                let t = Instant::now();
                for _ in 0..SOURCE_BATCH {
                    black_box(w.source(black_box(scale)));
                }
                sample(
                    i,
                    t.elapsed().as_secs_f64() / SOURCE_BATCH as f64,
                    reference,
                );
            }
        }
        let store = TraceStore::unbounded();
        for (i, (w, spec)) in self.bench.recordings().into_iter().enumerate() {
            let t = Instant::now();
            runner(1)
                .with_store(&store)
                .sinks(w.scaled(scale), spec, vec![RefCounter::new()])
                .map_err(|e| format!("set-up {}: {e}", w.name()))?;
            sample(programs.len() + i, t.elapsed().as_secs_f64(), reference);
        }
        let want = self.bench.recordings().len() as u64;
        if store.stats().entries != want {
            return Err(format!(
                "set-up stored {} of {want} scenarios",
                store.stats().entries
            ));
        }
        Ok(store)
    }

    /// Set-up time: every input's estimate, summed. `floor` is the run's
    /// fastest kernel time.
    pub fn seconds(&self, floor: f64) -> f64 {
        self.samples
            .iter()
            .map(|s| {
                let (times, refs): (Vec<f64>, Vec<f64>) = s.iter().copied().unzip();
                estimate(&times, &refs, floor)
            })
            .sum()
    }
}

/// Source generations timed together as one set-up sample.
const SOURCE_BATCH: usize = 100;

/// Samples of each program's source generation per set-up.
const SOURCE_SAMPLES: usize = 5;
