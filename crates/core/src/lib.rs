//! The experiment harness: the paper's metrics and measurement procedures.
//!
//! This crate glues the substrates together and exposes the quantities the
//! paper reports:
//!
//! * [`cache_overhead`] — `O_cache = M_prog · P / I_prog` (§5).
//! * [`gc_overhead`] — `O_gc = ((M_gc + ΔM_prog) · P + I_gc + ΔI_prog) /
//!   I_prog` (§6), where `ΔM_prog` may be negative (the collector can
//!   *improve* the program's locality, as it does for nbody).
//! * [`run_control`] — the §5 control experiment: run a workload with
//!   collection disabled against a grid of cache configurations in one
//!   trace pass.
//! * [`run_collected`] — the §6 experiment: the same workload under a
//!   chosen collector ([`CollectorSpec`]), attributing misses and
//!   instructions to program vs collector.
//! * [`GcComparison`] — pairs the two runs and computes `O_gc`.
//!
//! # Example
//!
//! ```
//! use cachegc_core::{run_control, ExperimentConfig, SLOW};
//! use cachegc_workloads::Workload;
//!
//! let cfg = ExperimentConfig::quick();
//! let report = run_control(Workload::Rewrite.scaled(1), &cfg).unwrap();
//! let cell = &report.cells[0];
//! let o = report.cache_overhead(cell, &SLOW);
//! assert!(o >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiment;
pub mod json;
mod overhead;
pub mod report;
mod runner;
pub mod sched;
mod spill;
mod store;
pub mod telemetry;
mod timeline;

pub use experiment::{
    run_collected, run_control, CacheCell, CollectedCell, CollectedRun, CollectorSpec,
    ControlReport, ExperimentConfig, GcComparison,
};
pub use overhead::{cache_overhead, gc_overhead, write_back_overhead};
pub use runner::{default_jobs, Runner};
pub use sched::{CrewReport, EngineConfig, PacketKind, Schedule, Scheduler};
pub use store::{
    scenario_label, Acquired, HitSource, OfferOutcome, RecordTicket, ScenarioGauges, StoreStats,
    StoredTrace, TraceStore,
};
pub use telemetry::{
    chrome_trace_json, validate_chrome_trace, validate_manifest, ChromeTraceSummary, Manifest,
    ManifestConfig, ManifestStore, Progress, Telemetry,
};
pub use timeline::{
    validate_timeline, TimelineRecorder, TimelineRun, TimelineSpec, TIMELINE_SCHEMA,
};

// Re-export what downstream experiment code needs, so benches and examples
// can depend on this crate alone.
pub use cachegc_analysis::{
    activity, Activity, ActivityTracker, BlockReport, BlockTracker, Instrument, SweepPlot,
    Timeline, TimelineReport, TimelineWindow,
};
pub use cachegc_sim::{
    miss_penalty_cycles, writeback_cycles, Cache, CacheConfig, CacheStats, CacheTotals, GridCache,
    MainMemory, Processor, SetAssocCache, WriteHitPolicy, WriteMissPolicy, FAST, SLOW,
};
pub use cachegc_trace::{EventBatch, RecordedTrace, Recorder, EVENT_BATCH};
pub use cachegc_vm::RunStats;
