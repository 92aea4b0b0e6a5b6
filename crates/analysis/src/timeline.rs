//! Time-resolved cache/GC timelines (the paper's §6 "miss rate vs time").
//!
//! The aggregate `CacheStats` of a finished run hides the mechanism the
//! paper describes: allocation sweeping linearly through the cache,
//! collections flushing it, miss rates oscillating with GC epochs. The
//! [`Timeline`] instrument samples a run in fixed event windows and splits
//! every window at GC epoch boundaries, so each sample attributes its
//! traffic purely to the mutator or purely to the collector. Window deltas
//! are taken by subtracting [`CacheTotals`] snapshots of one wrapped cache,
//! so they sum back to the aggregate statistics *exactly* — an invariant
//! the workspace property tests assert across every driver path.

use cachegc_sim::{Cache, CacheConfig, CacheTotals};
use cachegc_trace::{Access, Context, TraceSink};

/// Default window length: one million trace events.
pub const DEFAULT_WINDOW_EVENTS: u64 = 1_000_000;

/// One timeline sample: a run of consecutive events in a single context.
///
/// Windows never span a GC epoch boundary; a context flip closes the
/// current window early, so `events` may be anywhere in
/// `1..=window_events`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineWindow {
    /// Index of the first event in this window (0-based).
    pub start_event: u64,
    /// Number of events in this window.
    pub events: u64,
    /// The single context that produced every event in this window.
    pub ctx: Context,
    /// Cache counter deltas attributed to this window.
    pub delta: CacheTotals,
    /// Address of the most recent initializing allocation store seen by
    /// the end of this window — the paper's allocation-pointer position.
    pub alloc_ptr: u32,
}

impl TimelineWindow {
    /// Miss ratio within this window.
    pub fn miss_ratio(&self) -> f64 {
        if self.delta.refs() == 0 {
            0.0
        } else {
            self.delta.misses() as f64 / self.delta.refs() as f64
        }
    }
}

/// One garbage collection, marked from the first collector event of an
/// epoch to the last before the mutator resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectionMarker {
    /// Index of the first collector event of this collection.
    pub start_event: u64,
    /// Number of collector events in this collection.
    pub events: u64,
    /// Collector loads during the collection.
    pub reads: u64,
    /// Collector stores during the collection.
    pub writes: u64,
    /// `"copying"` if the collector wrote (evacuation / pointer fixup),
    /// `"mark"` for a read-only marking pass.
    pub kind: &'static str,
    /// Bytes the collector stored — copied survivors plus bookkeeping.
    pub bytes_copied: u64,
    /// `floor(log2(events))`: a coarse pause-length bucket for histograms.
    pub pause_bucket: u32,
}

/// Finished timeline: the windows, the collections, and the aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineReport {
    /// Geometry of the sampled cache.
    pub cache: CacheConfig,
    /// Configured maximum window length in events.
    pub window_events: u64,
    /// Total events consumed.
    pub events: u64,
    /// The epoch-split sample windows, in trace order.
    pub windows: Vec<TimelineWindow>,
    /// Per-collection markers, in trace order.
    pub collections: Vec<CollectionMarker>,
    /// Aggregate counters of the wrapped cache (equals the window sum).
    pub totals: CacheTotals,
}

impl TimelineReport {
    /// Element-wise sum of all window deltas. Equals [`Self::totals`] by
    /// construction; exposed so tests can assert the reconstruction.
    pub fn windows_sum(&self) -> CacheTotals {
        self.windows
            .iter()
            .fold(CacheTotals::default(), |acc, w| acc.add(&w.delta))
    }

    /// Bytes moved between cache and memory for the given counter delta:
    /// block fetches and writebacks at block granularity plus
    /// write-through words.
    pub fn transfer_bytes(&self, t: &CacheTotals) -> u64 {
        let block = self.cache.block as u64;
        t.fetches() * block + t.writebacks * block + t.write_through_words * 4
    }
}

/// Epoch state of a collection in progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpenCollection {
    start_event: u64,
    start_totals: CacheTotals,
}

/// Windowed cache/GC timeline sampler over one direct-mapped cache.
///
/// A [`TraceSink`] that feeds every event to a wrapped [`Cache`] and closes
/// a sample window whenever the window fills or the event context flips
/// (a GC epoch boundary). Joins [`crate::Instrument`] so it runs under
/// every driver — sequential, crew, record/replay, grid kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    cache: Cache,
    window_events: u64,
    events_seen: u64,
    window_start: u64,
    cur_ctx: Option<Context>,
    prev_totals: CacheTotals,
    alloc_ptr: u32,
    windows: Vec<TimelineWindow>,
    collections: Vec<CollectionMarker>,
    open_collection: Option<OpenCollection>,
}

impl Timeline {
    /// Sample a fresh cache of geometry `cfg` in windows of at most
    /// `window_events` events.
    ///
    /// # Panics
    ///
    /// Panics if `window_events` is zero.
    pub fn new(cfg: CacheConfig, window_events: u64) -> Self {
        assert!(window_events > 0, "timeline window must be non-empty");
        Timeline {
            cache: Cache::new(cfg),
            window_events,
            events_seen: 0,
            window_start: 0,
            cur_ctx: None,
            prev_totals: CacheTotals::default(),
            alloc_ptr: 0,
            windows: Vec::new(),
            collections: Vec::new(),
            open_collection: None,
        }
    }

    /// The wrapped cache.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Events consumed so far.
    pub fn events(&self) -> u64 {
        self.events_seen
    }

    fn close_window(&mut self) {
        let events = self.events_seen - self.window_start;
        if events > 0 {
            let totals = self.cache.stats().totals();
            self.windows.push(TimelineWindow {
                start_event: self.window_start,
                events,
                ctx: self.cur_ctx.expect("closing a window that never opened"),
                delta: totals.delta(&self.prev_totals),
                alloc_ptr: self.alloc_ptr,
            });
            self.prev_totals = totals;
        }
        self.window_start = self.events_seen;
    }

    fn close_collection(&mut self) {
        if let Some(open) = self.open_collection.take() {
            let delta = self.cache.stats().totals().delta(&open.start_totals);
            let events = self.events_seen - open.start_event;
            let writes = delta.collector_writes;
            self.collections.push(CollectionMarker {
                start_event: open.start_event,
                events,
                reads: delta.collector_reads,
                writes,
                kind: if writes > 0 { "copying" } else { "mark" },
                bytes_copied: writes * 4,
                pause_bucket: if events == 0 { 0 } else { events.ilog2() },
            });
        }
    }

    /// Finish sampling: close the trailing partial window (and collection,
    /// if the trace ended mid-GC) and return the report.
    pub fn finish(mut self) -> TimelineReport {
        self.close_window();
        self.close_collection();
        TimelineReport {
            cache: *self.cache.config(),
            window_events: self.window_events,
            events: self.events_seen,
            windows: self.windows,
            collections: self.collections,
            totals: self.cache.stats().totals(),
        }
    }
}

impl TraceSink for Timeline {
    #[inline]
    fn access(&mut self, a: Access) {
        if self.cur_ctx != Some(a.ctx) {
            // GC epoch boundary: split the window so samples stay pure.
            self.close_window();
            match a.ctx {
                Context::Collector => {
                    self.open_collection = Some(OpenCollection {
                        start_event: self.events_seen,
                        start_totals: self.cache.stats().totals(),
                    });
                }
                Context::Mutator => self.close_collection(),
            }
            self.cur_ctx = Some(a.ctx);
        } else if self.events_seen - self.window_start >= self.window_events {
            self.close_window();
        }
        self.cache.access(a);
        self.events_seen += 1;
        if a.alloc_init {
            self.alloc_ptr = a.addr;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegc_trace::DYNAMIC_BASE;

    const M: Context = Context::Mutator;
    const C: Context = Context::Collector;

    fn cfg() -> CacheConfig {
        CacheConfig::direct_mapped(1 << 14, 32)
    }

    #[test]
    fn windows_split_at_window_size_and_epoch_boundaries() {
        let mut t = Timeline::new(cfg(), 100);
        for i in 0..250u32 {
            t.access(Access::read(DYNAMIC_BASE + i * 4, M));
        }
        for i in 0..30u32 {
            t.access(Access::read(DYNAMIC_BASE + i * 4, C));
        }
        for i in 0..10u32 {
            t.access(Access::alloc_write(DYNAMIC_BASE + 4096 + i * 4, M));
        }
        let r = t.finish();
        assert_eq!(r.events, 290);
        // 100 + 100 + 50 mutator, 30 collector, 10 mutator.
        let shape: Vec<(u64, Context)> = r.windows.iter().map(|w| (w.events, w.ctx)).collect();
        assert_eq!(shape, [(100, M), (100, M), (50, M), (30, C), (10, M)]);
        assert_eq!(r.windows[3].start_event, 250);
        // Every window is context-pure: only one side of the ref counters moves.
        for w in &r.windows {
            match w.ctx {
                M => assert_eq!(w.delta.collector_reads + w.delta.collector_writes, 0),
                C => assert_eq!(w.delta.mutator_reads + w.delta.mutator_writes, 0),
            }
        }
        assert_eq!(r.windows_sum(), r.totals);
        assert_eq!(
            r.windows.last().unwrap().alloc_ptr,
            DYNAMIC_BASE + 4096 + 36
        );
    }

    #[test]
    fn collection_markers_classify_kind_and_bucket() {
        let mut t = Timeline::new(cfg(), 1 << 20);
        t.access(Access::read(DYNAMIC_BASE, M));
        // A read-only collection of 8 events.
        for i in 0..8u32 {
            t.access(Access::read(DYNAMIC_BASE + i * 64, C));
        }
        t.access(Access::read(DYNAMIC_BASE, M));
        // A copying collection that ends the trace (closed by finish()).
        t.access(Access::read(DYNAMIC_BASE, C));
        t.access(Access::write(DYNAMIC_BASE + 128, C));
        let r = t.finish();
        assert_eq!(r.collections.len(), 2);
        let mark = &r.collections[0];
        assert_eq!((mark.kind, mark.events, mark.pause_bucket), ("mark", 8, 3));
        assert_eq!(mark.writes, 0);
        let copy = &r.collections[1];
        assert_eq!((copy.kind, copy.events), ("copying", 2));
        assert_eq!(copy.bytes_copied, 4);
        assert_eq!(r.windows_sum(), r.totals);
    }

    #[test]
    fn empty_timeline_finishes_clean() {
        let r = Timeline::new(cfg(), 10).finish();
        assert!(r.windows.is_empty() && r.collections.is_empty());
        assert_eq!(r.totals, CacheTotals::default());
    }

    #[test]
    fn window_deltas_match_standalone_cache() {
        let mut t = Timeline::new(cfg(), 37);
        let mut oracle = Cache::new(cfg());
        for i in 0..5000u32 {
            let ctx = if i % 700 < 80 { C } else { M };
            let a = if i % 5 == 0 {
                Access::alloc_write(DYNAMIC_BASE + (i % 1200) * 16, ctx)
            } else {
                Access::read(DYNAMIC_BASE + (i % 900) * 52, ctx)
            };
            t.access(a);
            oracle.access(a);
        }
        let r = t.finish();
        assert_eq!(r.totals, oracle.stats().totals());
        assert_eq!(r.windows_sum(), oracle.stats().totals());
        assert!(r.windows.iter().all(|w| w.events <= 37));
    }
}
