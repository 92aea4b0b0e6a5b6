//! Cache statistics.

use cachegc_trace::Context;

/// Per-cache-block counters, used by the §7 cache-activity analyses.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BlockStats {
    /// References that indexed this cache block.
    pub refs: u64,
    /// Misses of any kind in this cache block (tag installs and partial
    /// fills, including no-fetch write-validate installs).
    pub misses: u64,
    /// Misses caused by initializing stores to fresh dynamic memory blocks —
    /// the paper's *allocation misses*.
    pub alloc_misses: u64,
}

impl BlockStats {
    /// Local miss ratio of this cache block (all misses / refs), the
    /// quantity plotted per-block in the paper's cache-activity graphs.
    pub fn local_miss_ratio(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.misses as f64 / self.refs as f64
        }
    }

    /// Misses excluding allocation misses, as accumulated by the paper's
    /// cumulative miss curves. Allocation misses are a subset of misses by
    /// construction; if a counting bug ever desyncs them, saturate rather
    /// than panic — a degraded plot beats aborting a multi-hour sweep.
    pub fn non_alloc_misses(&self) -> u64 {
        debug_assert!(
            self.alloc_misses <= self.misses,
            "alloc_misses ({}) exceeds misses ({})",
            self.alloc_misses,
            self.misses
        );
        self.misses.saturating_sub(self.alloc_misses)
    }
}

/// The scalar counters of one simulated cache: references, misses and
/// fetches by kind and context, and write traffic.
///
/// [`crate::GridCache`] lanes count exactly these. A [`CacheStats`] adds
/// per-block counters on top. Timeline instruments take a snapshot at each
/// window boundary and subtract consecutive snapshots to attribute traffic
/// to fixed event windows; because every counter is monotonic,
/// `later.delta(earlier)` is exact and the window deltas sum back to the
/// aggregate by construction.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheTotals {
    /// Mutator read references.
    pub mutator_reads: u64,
    /// Mutator write references.
    pub mutator_writes: u64,
    /// Collector read references.
    pub collector_reads: u64,
    /// Collector write references.
    pub collector_writes: u64,
    /// Fetches caused by read misses on absent blocks.
    pub read_miss_fetches: u64,
    /// Fetches caused by reads of not-yet-validated words (partial fills).
    pub partial_fill_fetches: u64,
    /// Fetches caused by write misses (fetch-on-write policy only).
    pub write_miss_fetches: u64,
    /// Write misses that installed a tag without fetching (write-validate).
    pub write_validate_installs: u64,
    /// Allocation misses (§7): tag-installing misses caused by initializing
    /// stores to fresh dynamic memory blocks.
    pub alloc_misses: u64,
    /// Fetches attributed to the mutator.
    pub mutator_fetches: u64,
    /// Fetches attributed to the collector.
    pub collector_fetches: u64,
    /// Dirty-block evictions (write-back caches).
    pub writebacks: u64,
    /// Words written through to memory (write-through caches).
    pub write_through_words: u64,
}

impl CacheTotals {
    #[inline]
    pub(crate) fn count_ref(&mut self, ctx: Context, is_read: bool) {
        match (ctx, is_read) {
            (Context::Mutator, true) => self.mutator_reads += 1,
            (Context::Mutator, false) => self.mutator_writes += 1,
            (Context::Collector, true) => self.collector_reads += 1,
            (Context::Collector, false) => self.collector_writes += 1,
        }
    }

    #[inline]
    pub(crate) fn count_fetch(&mut self, ctx: Context) {
        match ctx {
            Context::Mutator => self.mutator_fetches += 1,
            Context::Collector => self.collector_fetches += 1,
        }
    }

    #[inline]
    pub(crate) fn count_read_miss_fetch(&mut self) {
        self.read_miss_fetches += 1;
    }

    #[inline]
    pub(crate) fn count_partial_fill(&mut self) {
        self.partial_fill_fetches += 1;
    }

    #[inline]
    pub(crate) fn count_write_miss_fetch(&mut self) {
        self.write_miss_fetches += 1;
    }

    #[inline]
    pub(crate) fn count_write_validate_install(&mut self) {
        self.write_validate_installs += 1;
    }

    #[inline]
    pub(crate) fn count_writeback(&mut self) {
        self.writebacks += 1;
    }

    #[inline]
    pub(crate) fn count_write_through(&mut self) {
        self.write_through_words += 1;
    }

    /// Total references.
    pub fn refs(&self) -> u64 {
        self.mutator_reads + self.mutator_writes + self.collector_reads + self.collector_writes
    }

    /// References made by `ctx`.
    pub fn refs_by(&self, ctx: Context) -> u64 {
        match ctx {
            Context::Mutator => self.mutator_reads + self.mutator_writes,
            Context::Collector => self.collector_reads + self.collector_writes,
        }
    }

    /// Read references.
    pub fn reads(&self) -> u64 {
        self.mutator_reads + self.collector_reads
    }

    /// Write references.
    pub fn writes(&self) -> u64 {
        self.mutator_writes + self.collector_writes
    }

    /// Total misses of all kinds, fetching or not.
    pub fn misses(&self) -> u64 {
        self.read_miss_fetches
            + self.partial_fill_fetches
            + self.write_miss_fetches
            + self.write_validate_installs
    }

    /// Misses on the read side (absent-block read misses plus partial fills).
    pub fn read_misses(&self) -> u64 {
        self.read_miss_fetches + self.partial_fill_fetches
    }

    /// Misses on the write side (fetching write misses plus no-fetch installs).
    pub fn write_misses(&self) -> u64 {
        self.write_miss_fetches + self.write_validate_installs
    }

    /// Block fetches from main memory — the misses that stall the processor
    /// and thus the `M` of the paper's overhead formulas.
    pub fn fetches(&self) -> u64 {
        self.mutator_fetches + self.collector_fetches
    }

    /// Fetches attributed to `ctx` (`M_prog` vs `M_gc`).
    pub fn fetches_by(&self, ctx: Context) -> u64 {
        match ctx {
            Context::Mutator => self.mutator_fetches,
            Context::Collector => self.collector_fetches,
        }
    }

    /// Classic miss ratio (all misses over all references).
    pub fn miss_ratio(&self) -> f64 {
        if self.refs() == 0 {
            0.0
        } else {
            self.misses() as f64 / self.refs() as f64
        }
    }

    /// A copy of the counters, so a grid cell's totals read like a
    /// [`CacheStats`]'s.
    pub fn totals(&self) -> CacheTotals {
        *self
    }

    /// Element-wise difference `self - earlier`. Panics in debug builds if
    /// any counter moved backwards (snapshots must come from the same cache
    /// in chronological order); saturates in release builds.
    pub fn delta(&self, earlier: &CacheTotals) -> CacheTotals {
        macro_rules! sub {
            ($field:ident) => {{
                debug_assert!(
                    self.$field >= earlier.$field,
                    concat!(stringify!($field), " went backwards between snapshots"),
                );
                self.$field.saturating_sub(earlier.$field)
            }};
        }
        CacheTotals {
            mutator_reads: sub!(mutator_reads),
            mutator_writes: sub!(mutator_writes),
            collector_reads: sub!(collector_reads),
            collector_writes: sub!(collector_writes),
            read_miss_fetches: sub!(read_miss_fetches),
            partial_fill_fetches: sub!(partial_fill_fetches),
            write_miss_fetches: sub!(write_miss_fetches),
            write_validate_installs: sub!(write_validate_installs),
            alloc_misses: sub!(alloc_misses),
            mutator_fetches: sub!(mutator_fetches),
            collector_fetches: sub!(collector_fetches),
            writebacks: sub!(writebacks),
            write_through_words: sub!(write_through_words),
        }
    }

    /// Element-wise sum, for reconstructing aggregates from window deltas.
    pub fn add(&self, other: &CacheTotals) -> CacheTotals {
        CacheTotals {
            mutator_reads: self.mutator_reads + other.mutator_reads,
            mutator_writes: self.mutator_writes + other.mutator_writes,
            collector_reads: self.collector_reads + other.collector_reads,
            collector_writes: self.collector_writes + other.collector_writes,
            read_miss_fetches: self.read_miss_fetches + other.read_miss_fetches,
            partial_fill_fetches: self.partial_fill_fetches + other.partial_fill_fetches,
            write_miss_fetches: self.write_miss_fetches + other.write_miss_fetches,
            write_validate_installs: self.write_validate_installs + other.write_validate_installs,
            alloc_misses: self.alloc_misses + other.alloc_misses,
            mutator_fetches: self.mutator_fetches + other.mutator_fetches,
            collector_fetches: self.collector_fetches + other.collector_fetches,
            writebacks: self.writebacks + other.writebacks,
            write_through_words: self.write_through_words + other.write_through_words,
        }
    }
}

/// A [`CacheTotals`] plus per-block counters, for one [`crate::Cache`] or
/// [`crate::SetAssocCache`] (whose "blocks" are its sets).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub(crate) totals: CacheTotals,
    blocks: Vec<BlockStats>,
}

impl CacheStats {
    pub(crate) fn new(num_blocks: u32) -> Self {
        CacheStats {
            totals: CacheTotals::default(),
            blocks: vec![BlockStats::default(); num_blocks as usize],
        }
    }

    /// Count a reference that indexed `block`.
    #[inline]
    pub(crate) fn count_ref(&mut self, ctx: Context, is_read: bool, block: usize) {
        self.totals.count_ref(ctx, is_read);
        self.blocks[block].refs += 1;
    }

    /// Count a miss of any kind in `block`; `alloc` marks an allocation miss.
    #[inline]
    pub(crate) fn count_block_miss(&mut self, block: usize, alloc: bool) {
        self.blocks[block].misses += 1;
        if alloc {
            self.blocks[block].alloc_misses += 1;
            self.totals.alloc_misses += 1;
        }
    }

    /// Total references seen.
    pub fn refs(&self) -> u64 {
        self.totals.refs()
    }

    /// Block fetches from main memory.
    pub fn fetches(&self) -> u64 {
        self.totals.fetches()
    }

    /// Classic miss ratio (all misses over all references).
    pub fn miss_ratio(&self) -> f64 {
        self.totals.miss_ratio()
    }

    /// Per-cache-block statistics.
    pub fn blocks(&self) -> &[BlockStats] {
        &self.blocks
    }

    /// Copyable snapshot of the scalar counters, for windowed timeline
    /// deltas and for comparing against a grid lane.
    pub fn totals(&self) -> CacheTotals {
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_stats_ratios() {
        let b = BlockStats {
            refs: 100,
            misses: 10,
            alloc_misses: 4,
        };
        assert!((b.local_miss_ratio() - 0.1).abs() < 1e-12);
        assert_eq!(b.non_alloc_misses(), 6);
        assert_eq!(BlockStats::default().local_miss_ratio(), 0.0);
    }

    #[test]
    fn non_alloc_misses_saturates_on_desynced_counters() {
        let b = BlockStats {
            refs: 1,
            misses: 1,
            alloc_misses: 2,
        };
        if cfg!(debug_assertions) {
            // Debug builds surface the counting bug loudly.
            assert!(std::panic::catch_unwind(|| b.non_alloc_misses()).is_err());
        } else {
            // Release sweeps degrade to zero instead of aborting.
            assert_eq!(b.non_alloc_misses(), 0);
        }
    }

    #[test]
    fn totals_snapshot_and_delta() {
        let mut s = CacheStats::new(4);
        s.count_ref(Context::Mutator, true, 0);
        s.totals.count_fetch(Context::Mutator);
        s.totals.count_read_miss_fetch();
        let early = s.totals();
        s.count_ref(Context::Collector, false, 1);
        s.totals.count_write_validate_install();
        s.totals.count_writeback();
        let late = s.totals();
        let d = late.delta(&early);
        assert_eq!(d.refs(), 1);
        assert_eq!(d.collector_writes, 1);
        assert_eq!(d.misses(), 1);
        assert_eq!(d.write_misses(), 1);
        assert_eq!(d.read_misses(), 0);
        assert_eq!(d.writebacks, 1);
        assert_eq!(early.add(&d), late);
        assert_eq!(late.delta(&late), CacheTotals::default());
        assert_eq!(late.totals(), late);
    }

    #[test]
    fn aggregate_accounting() {
        let mut s = CacheStats::new(4);
        s.count_ref(Context::Mutator, true, 0);
        s.count_ref(Context::Collector, false, 1);
        s.totals.count_fetch(Context::Mutator);
        s.totals.count_read_miss_fetch();
        s.count_block_miss(0, true);
        let t = s.totals();
        assert_eq!(s.refs(), 2);
        assert_eq!(t.refs_by(Context::Mutator), 1);
        assert_eq!(s.fetches(), 1);
        assert_eq!(t.fetches_by(Context::Collector), 0);
        assert_eq!(t.alloc_misses, 1);
        assert_eq!(s.blocks()[0].misses, 1);
        assert_eq!(s.blocks()[0].alloc_misses, 1);
        assert_eq!(s.blocks()[1].refs, 1);
    }
}
