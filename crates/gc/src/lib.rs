//! Garbage collectors for the cachegc Scheme system.
//!
//! Five collection strategies:
//!
//! * **No collection** ([`NoCollector`]) — the §5 control experiment: data
//!   objects are "allocated linearly in a single contiguous area" and never
//!   reclaimed.
//! * **Cheney semispace** ([`CheneyCollector`]) — the "simple, efficient, and
//!   infrequently-run Cheney-style compacting semispace collector" measured
//!   in §6, with 16 MB semispaces in the paper's configuration.
//! * **Generational** ([`GenerationalCollector`]) — a two-generation
//!   compacting collector with a remembered set maintained by a write
//!   barrier. With a large nursery this is the "simple and infrequently-run
//!   generational compacting collector" the paper recommends; with a
//!   cache-sized nursery it is the *aggressive* collector of Wilson et al.
//!   that the paper argues against (§6).
//! * **Immix-style mark-region** ([`ImmixCollector`]) — the heap carved
//!   into blocks of 128-byte lines, bump allocation into runs of free
//!   lines, single-pass marking that sets line marks, line-granularity
//!   reclamation with no heap sweep traffic, and opportunistic evacuation
//!   of fragmented blocks. The design the paper's era didn't have; it lets
//!   the §5 cache lens compare mark-region locality against copying.
//! * **Mark-sweep free-list** ([`MarkSweepCollector`]) — the classic
//!   non-moving baseline: mark from the roots, sweep the heap into
//!   segregated size-class free lists, allocate by carving spans from
//!   them. No motion means no forwarding, no `ΔI_prog` rehash cost, and
//!   no compaction locality.
//!
//! All collector memory traffic is emitted into the trace with
//! [`Context::Collector`](cachegc_trace::Context), so a cache simulation
//! attributes `M_gc` correctly, and collector work is charged to `I_gc`
//! through [`Counters`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cheney;
mod copier;
mod generational;
mod immix;
mod marksweep;
mod roots;
mod stats;

pub use cheney::CheneyCollector;
pub use copier::costs;
pub use generational::GenerationalCollector;
pub use immix::ImmixCollector;
pub use marksweep::MarkSweepCollector;
pub use roots::Roots;
pub use stats::GcStats;

use cachegc_heap::{Heap, Value};
use cachegc_trace::{Counters, TraceSink};

/// A garbage collector driving the heap's dynamic region.
///
/// The VM calls [`Collector::install`] once at startup (the collector
/// configures the heap's allocation region), [`Collector::collect`] whenever
/// allocation fails, and [`Collector::note_store`] on every mutator store
/// into a heap object (the write barrier).
pub trait Collector {
    /// Configure the heap's dynamic allocation region.
    fn install(&mut self, heap: &mut Heap);

    /// Collect garbage, scanning and updating `roots` in place.
    fn collect<S: TraceSink>(
        &mut self,
        heap: &mut Heap,
        roots: &mut Roots<'_>,
        counters: &mut Counters,
        sink: &mut S,
    );

    /// Make at least `bytes` allocatable without collecting, returning
    /// `false` if the collector cannot (the VM then collects and asks
    /// again). The default — right for bump allocators whose whole free
    /// region is the allocation region — just checks the heap's free
    /// space. Free-list collectors override this to install a fresh span
    /// as the heap's allocation region; any trace traffic that costs
    /// (sealing an abandoned span tail) goes to `sink` as collector
    /// traffic.
    fn prepare_alloc<S: TraceSink>(&mut self, heap: &mut Heap, bytes: u32, _sink: &mut S) -> bool {
        heap.dynamic_free() >= bytes
    }

    /// Write-barrier hook: the mutator stored `val` into the object slot at
    /// `addr`. The default does nothing.
    #[inline]
    fn note_store(&mut self, _addr: u32, _val: Value) {}

    /// Instructions the write barrier costs the mutator per noted store
    /// (charged to the program by the VM).
    fn barrier_cost(&self) -> u64 {
        0
    }

    /// Cumulative collection statistics.
    fn stats(&self) -> &GcStats;

    /// A short human-readable name ("none", "cheney/16m", ...).
    fn name(&self) -> String;
}

/// The §5 control configuration: no collection at all. [`collect`]
/// panics — with an unbounded heap it is never called unless the dynamic
/// address range itself (1 GB) is exhausted.
///
/// [`collect`]: Collector::collect
#[derive(Debug, Default)]
pub struct NoCollector {
    stats: GcStats,
}

impl NoCollector {
    /// Create the no-op collector.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Collector for NoCollector {
    fn install(&mut self, _heap: &mut Heap) {}

    fn collect<S: TraceSink>(
        &mut self,
        _heap: &mut Heap,
        _roots: &mut Roots<'_>,
        _counters: &mut Counters,
        _sink: &mut S,
    ) {
        panic!("allocation failed with garbage collection disabled");
    }

    fn stats(&self) -> &GcStats {
        &self.stats
    }

    fn name(&self) -> String {
        "none".to_string()
    }
}
