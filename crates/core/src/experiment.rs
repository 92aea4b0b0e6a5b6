//! Experiment runners: one trace pass drives a whole grid of caches.

use cachegc_gc::{
    CheneyCollector, Collector, GcStats, GenerationalCollector, ImmixCollector, MarkSweepCollector,
    NoCollector,
};
use cachegc_sim::{
    miss_penalty_cycles, Cache, CacheConfig, CacheTotals, MainMemory, Processor, WriteMissPolicy,
};
use cachegc_trace::{Context, Fanout, TraceSink};
use cachegc_vm::{RunStats, VmError};
use cachegc_workloads::WorkloadInstance;

use crate::overhead::{cache_overhead, gc_overhead};

/// The cache-configuration grid an experiment sweeps (§4's design space).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Cache capacities in bytes.
    pub cache_sizes: Vec<u32>,
    /// Block sizes in bytes.
    pub block_sizes: Vec<u32>,
    /// Write-miss policy for every cache in the grid.
    pub write_miss: WriteMissPolicy,
    /// Main-memory timing.
    pub memory: MainMemory,
}

impl ExperimentConfig {
    /// The paper's full grid: 32 KB – 4 MB, 16 – 256 byte blocks,
    /// write-validate.
    pub fn paper() -> Self {
        ExperimentConfig {
            cache_sizes: vec![
                32 << 10,
                64 << 10,
                128 << 10,
                256 << 10,
                512 << 10,
                1 << 20,
                2 << 20,
                4 << 20,
            ],
            block_sizes: vec![16, 32, 64, 128, 256],
            write_miss: WriteMissPolicy::WriteValidate,
            memory: MainMemory::przybylski(),
        }
    }

    /// A small grid for tests and examples.
    pub fn quick() -> Self {
        ExperimentConfig {
            cache_sizes: vec![32 << 10, 256 << 10],
            block_sizes: vec![64],
            write_miss: WriteMissPolicy::WriteValidate,
            memory: MainMemory::przybylski(),
        }
    }

    /// Same grid with a different write-miss policy.
    pub fn with_write_miss(mut self, policy: WriteMissPolicy) -> Self {
        self.write_miss = policy;
        self
    }

    /// All cache configurations in the grid.
    pub fn configs(&self) -> Vec<CacheConfig> {
        let mut out = Vec::new();
        for &size in &self.cache_sizes {
            for &block in &self.block_sizes {
                out.push(CacheConfig::direct_mapped(size, block).with_write_miss(self.write_miss));
            }
        }
        out
    }

    fn caches(&self) -> Fanout<Cache> {
        Fanout::new(self.configs().into_iter().map(Cache::new).collect())
    }
}

/// One cache configuration's results from a run.
#[derive(Debug, Clone)]
pub struct CacheCell {
    /// The configuration.
    pub config: CacheConfig,
    /// The cell's scalar counters (a grid lane keeps no per-block
    /// counters; those live in a [`Cache`]).
    pub stats: CacheTotals,
}

/// The §5 control experiment: one workload, collection disabled, the whole
/// cache grid simulated in a single trace pass.
#[derive(Debug, Clone)]
pub struct ControlReport {
    /// The workload that ran.
    pub instance: WorkloadInstance,
    /// Program data references.
    pub refs: u64,
    /// `I_prog`.
    pub i_prog: u64,
    /// Dynamic bytes allocated.
    pub allocated: u64,
    /// Memory timing used for penalties.
    pub memory: MainMemory,
    /// One cell per cache configuration.
    pub cells: Vec<CacheCell>,
}

impl ControlReport {
    /// The cell for a given geometry, if it was simulated.
    pub fn cell(&self, size: u32, block: u32) -> Option<&CacheCell> {
        self.cells
            .iter()
            .find(|c| c.config.size == size && c.config.block == block)
    }

    /// `O_cache` for one cell on one processor.
    pub fn cache_overhead(&self, cell: &CacheCell, cpu: &Processor) -> f64 {
        let p = miss_penalty_cycles(&self.memory, cpu, cell.config.block);
        cache_overhead(cell.stats.fetches_by(Context::Mutator), p, self.i_prog)
    }
}

/// Run a workload with garbage collection disabled against the grid.
///
/// # Errors
///
/// Propagates any [`VmError`] from the program.
pub fn run_control(
    instance: WorkloadInstance,
    cfg: &ExperimentConfig,
) -> Result<ControlReport, VmError> {
    let (stats, caches) = run_spec_sink(instance, None, cfg.caches())?;
    Ok(control_report(
        instance,
        cfg,
        stats,
        cache_cells(caches.into_sinks()),
    ))
}

/// Finish a `Vec<Cache>` sink set into grid cells, preserving order.
pub(crate) fn cache_cells(caches: Vec<Cache>) -> Vec<CacheCell> {
    caches
        .into_iter()
        .map(|c| CacheCell {
            config: *c.config(),
            stats: c.into_stats().totals(),
        })
        .collect()
}

/// Assemble a [`ControlReport`] from a finished control pass; shared by the
/// sequential and parallel drivers.
pub(crate) fn control_report(
    instance: WorkloadInstance,
    cfg: &ExperimentConfig,
    stats: RunStats,
    cells: Vec<CacheCell>,
) -> ControlReport {
    ControlReport {
        instance,
        refs: cells_refs(&cells),
        i_prog: stats.instructions.program(),
        allocated: stats.allocated_bytes,
        memory: cfg.memory,
        cells,
    }
}

fn cells_refs(cells: &[CacheCell]) -> u64 {
    cells
        .first()
        .map_or(0, |c| c.stats.refs_by(Context::Mutator))
}

/// Which collector to run (a closed set so reports stay object-simple).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectorSpec {
    /// Cheney semispace collector with the given semispace size.
    Cheney {
        /// Bytes per semispace (the paper uses 16 MB).
        semispace_bytes: u32,
    },
    /// Two-generation compacting collector.
    Generational {
        /// Nursery bytes; cache-sized makes it the *aggressive* collector.
        nursery_bytes: u32,
        /// Old-generation semispace bytes.
        old_bytes: u32,
    },
    /// Immix-style mark-region collector (128-byte lines, 32 KB blocks,
    /// opportunistic evacuation of fragmented blocks).
    Immix {
        /// Total heap bytes (a multiple of the 32 KB block size).
        heap_bytes: u32,
    },
    /// Non-moving mark-sweep collector with segregated free lists.
    MarkSweep {
        /// Total heap bytes.
        heap_bytes: u32,
    },
}

impl CollectorSpec {
    /// Short name for reports.
    pub fn name(&self) -> String {
        match self {
            CollectorSpec::Cheney { semispace_bytes } => {
                format!("cheney/{}", human(*semispace_bytes))
            }
            CollectorSpec::Generational {
                nursery_bytes,
                old_bytes,
            } => {
                format!("gen/{}+{}", human(*nursery_bytes), human(*old_bytes))
            }
            CollectorSpec::Immix { heap_bytes } => {
                format!("immix/{}", human(*heap_bytes))
            }
            CollectorSpec::MarkSweep { heap_bytes } => {
                format!("marksweep/{}", human(*heap_bytes))
            }
        }
    }
}

/// Run `instance` into `sink` under `spec`'s collector (`None` is the
/// collection-disabled control configuration): the one collector
/// dispatch behind the oracles below and every live engine pass.
pub(crate) fn run_spec_sink<S: TraceSink>(
    instance: WorkloadInstance,
    spec: Option<CollectorSpec>,
    sink: S,
) -> Result<(RunStats, S), VmError> {
    fn run<C: Collector, S: TraceSink>(
        instance: WorkloadInstance,
        gc: C,
        sink: S,
    ) -> Result<(RunStats, S), VmError> {
        let out = instance.run(gc, sink)?;
        Ok((out.stats, out.sink))
    }
    match spec {
        None => run(instance, NoCollector::new(), sink),
        Some(CollectorSpec::Cheney { semispace_bytes }) => {
            run(instance, CheneyCollector::new(semispace_bytes), sink)
        }
        Some(CollectorSpec::Generational {
            nursery_bytes,
            old_bytes,
        }) => run(
            instance,
            GenerationalCollector::new(nursery_bytes, old_bytes),
            sink,
        ),
        Some(CollectorSpec::Immix { heap_bytes }) => {
            run(instance, ImmixCollector::new(heap_bytes), sink)
        }
        Some(CollectorSpec::MarkSweep { heap_bytes }) => {
            run(instance, MarkSweepCollector::new(heap_bytes), sink)
        }
    }
}

fn human(b: u32) -> String {
    if b >= 1 << 20 {
        format!("{}m", b >> 20)
    } else {
        format!("{}k", b >> 10)
    }
}

/// One cache configuration's results from a collected run.
#[derive(Debug, Clone)]
pub struct CollectedCell {
    /// The configuration.
    pub config: CacheConfig,
    /// Program fetches (`M_prog` under collection).
    pub m_prog: u64,
    /// Collector fetches (`M_gc`).
    pub m_gc: u64,
    /// The cell's scalar counters.
    pub stats: CacheTotals,
}

/// A workload run under a collector, against the grid.
#[derive(Debug)]
pub struct CollectedRun {
    /// The workload that ran.
    pub instance: WorkloadInstance,
    /// Which collector.
    pub spec: CollectorSpec,
    /// `I_prog` in the collected run.
    pub i_prog: u64,
    /// `I_gc`.
    pub i_gc: u64,
    /// `ΔI_prog`: collection-induced program work (table rehashing,
    /// write-barrier instructions).
    pub delta_i_prog: u64,
    /// Collector statistics.
    pub gc: GcStats,
    /// One cell per cache configuration.
    pub cells: Vec<CollectedCell>,
}

impl CollectedRun {
    /// The cell for a given geometry, if simulated.
    pub fn cell(&self, size: u32, block: u32) -> Option<&CollectedCell> {
        self.cells
            .iter()
            .find(|c| c.config.size == size && c.config.block == block)
    }
}

/// Run a workload under the given collector against the grid.
///
/// # Errors
///
/// Propagates any [`VmError`] from the program (including
/// [`VmError::OutOfMemory`] if the heap is too small for the workload).
pub fn run_collected(
    instance: WorkloadInstance,
    cfg: &ExperimentConfig,
    spec: CollectorSpec,
) -> Result<CollectedRun, VmError> {
    let (stats, caches) = run_spec_sink(instance, Some(spec), cfg.caches())?;
    Ok(collected_run(
        instance,
        spec,
        stats,
        cache_cells(caches.into_sinks()),
    ))
}

/// Assemble a [`CollectedRun`] from a finished collected pass; shared by
/// the sequential and parallel drivers.
pub(crate) fn collected_run(
    instance: WorkloadInstance,
    spec: CollectorSpec,
    stats: RunStats,
    cells: Vec<CacheCell>,
) -> CollectedRun {
    let cells = cells
        .into_iter()
        .map(|cell| CollectedCell {
            config: cell.config,
            m_prog: cell.stats.fetches_by(Context::Mutator),
            m_gc: cell.stats.fetches_by(Context::Collector),
            stats: cell.stats,
        })
        .collect();
    CollectedRun {
        instance,
        spec,
        i_prog: stats.instructions.program(),
        i_gc: stats.instructions.collector(),
        delta_i_prog: stats.instructions.gc_induced(),
        gc: stats.gc,
        cells,
    }
}

/// A paired control/collected run of the same workload, from which `O_gc`
/// is computed (§6 needs both: `ΔM_prog` is a difference of miss counts).
#[derive(Debug)]
pub struct GcComparison {
    /// The collection-disabled control run.
    pub control: ControlReport,
    /// The collected run.
    pub collected: CollectedRun,
}

impl GcComparison {
    /// Run both experiments for one workload.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] from either run.
    pub fn run(
        instance: WorkloadInstance,
        cfg: &ExperimentConfig,
        spec: CollectorSpec,
    ) -> Result<GcComparison, VmError> {
        Ok(GcComparison {
            control: run_control(instance, cfg)?,
            collected: run_collected(instance, cfg, spec)?,
        })
    }

    /// `O_gc` for one cache geometry on one processor.
    ///
    /// # Panics
    ///
    /// Panics if the geometry was not simulated.
    pub fn gc_overhead(&self, size: u32, block: u32, cpu: &Processor) -> f64 {
        let base = self
            .control
            .cell(size, block)
            .expect("geometry not simulated");
        let coll = self
            .collected
            .cell(size, block)
            .expect("geometry not simulated");
        let p = miss_penalty_cycles(&self.control.memory, cpu, block);
        let delta_m = coll.m_prog as i64 - base.stats.fetches_by(Context::Mutator) as i64;
        gc_overhead(
            coll.m_gc,
            delta_m,
            p,
            self.collected.i_gc,
            self.collected.delta_i_prog,
            self.collected.i_prog,
        )
    }

    /// `O_cache` of the control run for the same geometry/processor, for
    /// side-by-side reporting.
    pub fn control_overhead(&self, size: u32, block: u32, cpu: &Processor) -> f64 {
        let cell = self
            .control
            .cell(size, block)
            .expect("geometry not simulated");
        self.control.cache_overhead(cell, cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FAST, SLOW};
    use cachegc_workloads::Workload;

    #[test]
    fn quick_control_run_produces_cells() {
        let cfg = ExperimentConfig::quick();
        let r = run_control(Workload::Rewrite.scaled(1), &cfg).unwrap();
        assert_eq!(r.cells.len(), 2);
        assert!(r.refs > 100_000);
        assert!(r.i_prog > r.refs);
        // Bigger cache never has more fetches.
        let small = r.cell(32 << 10, 64).unwrap();
        let big = r.cell(256 << 10, 64).unwrap();
        assert!(big.stats.fetches() <= small.stats.fetches());
        // Overheads are finite and the fast processor suffers more.
        let os = r.cache_overhead(small, &SLOW);
        let of = r.cache_overhead(small, &FAST);
        assert!(os > 0.0 && of > os);
    }

    #[test]
    fn collected_run_attributes_gc() {
        let cfg = ExperimentConfig::quick();
        let spec = CollectorSpec::Cheney {
            semispace_bytes: 512 << 10,
        };
        let cmp = GcComparison::run(Workload::Compile.scaled(1), &cfg, spec).unwrap();
        assert!(
            cmp.collected.gc.collections > 0,
            "heap small enough to force GC"
        );
        assert!(cmp.collected.i_gc > 0);
        let cell = cmp.collected.cell(32 << 10, 64).unwrap();
        assert!(cell.m_gc > 0, "collector misses attributed");
        let o = cmp.gc_overhead(32 << 10, 64, &SLOW);
        assert!(o.is_finite());
    }

    #[test]
    fn generational_spec_runs() {
        let cfg = ExperimentConfig::quick();
        let spec = CollectorSpec::Generational {
            nursery_bytes: 128 << 10,
            old_bytes: 8 << 20,
        };
        let run = run_collected(Workload::Rewrite.scaled(1), &cfg, spec).unwrap();
        assert!(run.gc.minor_collections > 0);
        assert_eq!(run.spec.name(), "gen/128k+8m");
    }

    #[test]
    fn config_grid_enumerates_products() {
        let cfg = ExperimentConfig::paper();
        assert_eq!(cfg.configs().len(), 40);
        assert_eq!(ExperimentConfig::quick().configs().len(), 2);
    }
}
