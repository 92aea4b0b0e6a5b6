//! Heterogeneous instruments for the parallel experiment engine.
//!
//! A trace pass gets its leverage from replaying one reference stream into
//! many consumers at once (Hill & Smith's multi-configuration simulation;
//! the paper's 40-cell grid). [`Instrument`] makes that set *heterogeneous*:
//! one `Vec<Instrument>` can mix cache simulators of different geometries
//! and organizations with the §7 behavioral analyzers, and the whole set
//! rides one pass, sharded across a crew's replay readers when the engine
//! has several workers — every instrument is independent, so
//! per-instrument results stay bit-identical to one in-thread pass.

use cachegc_sim::{Cache, CacheConfig, SetAssocCache};
use cachegc_trace::{Access, TraceSink};

use crate::activity::{activity, Activity};
use crate::blocks::{BlockReport, BlockTracker};
use crate::sweep::SweepPlot;
use crate::timeline::{Timeline, TimelineReport};

/// A cache-activity instrument: a direct-mapped cache whose finished
/// statistics are decomposed into the §7 cache-activity graph.
///
/// [`crate::activity`] is a post-hoc analysis of any [`Cache`]; this
/// wrapper makes it a first-class [`TraceSink`] so an activity panel can
/// ride a shared trace pass next to other instruments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivityTracker {
    cache: Cache,
}

impl ActivityTracker {
    /// Track activity of a fresh cache with configuration `cfg`.
    pub fn new(cfg: CacheConfig) -> Self {
        ActivityTracker {
            cache: Cache::new(cfg),
        }
    }

    /// The wrapped cache (e.g. for its raw statistics).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Finish tracking and compute the activity decomposition.
    pub fn finish(self) -> Activity {
        activity(self.cache.stats())
    }
}

impl TraceSink for ActivityTracker {
    #[inline]
    fn access(&mut self, a: Access) {
        self.cache.access(a);
    }
}

/// Any of the repo's trace instruments, as one sink type.
///
/// This is the closed set the experiment engine drives: direct-mapped and
/// set-associative cache simulators plus the §7 analyzers. One trace pass
/// drives a mixed `Vec<Instrument>` with bit-identical per-instrument
/// results whether the set rides one thread or is dealt across replay
/// readers (property-tested in the workspace root).
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum Instrument {
    /// A direct-mapped cache simulation.
    Cache(Cache),
    /// A set-associative cache simulation.
    Assoc(SetAssocCache),
    /// The §7 memory-block behavior tracker.
    Blocks(BlockTracker),
    /// The §7 time × cache-block miss plot.
    Sweep(SweepPlot),
    /// The §7 cache-activity decomposition.
    Activity(ActivityTracker),
    /// The windowed §6 cache/GC timeline sampler.
    Timeline(Timeline),
}

impl Instrument {
    /// Short kind name for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Instrument::Cache(_) => "cache",
            Instrument::Assoc(_) => "assoc",
            Instrument::Blocks(_) => "blocks",
            Instrument::Sweep(_) => "sweep",
            Instrument::Activity(_) => "activity",
            Instrument::Timeline(_) => "timeline",
        }
    }

    /// The wrapped [`Cache`], if this is a direct-mapped cache instrument.
    pub fn into_cache(self) -> Option<Cache> {
        match self {
            Instrument::Cache(c) => Some(c),
            _ => None,
        }
    }

    /// The wrapped [`SetAssocCache`], if any.
    pub fn into_assoc(self) -> Option<SetAssocCache> {
        match self {
            Instrument::Assoc(c) => Some(c),
            _ => None,
        }
    }

    /// Finish a block tracker into its report, if this is one.
    pub fn into_block_report(self) -> Option<BlockReport> {
        match self {
            Instrument::Blocks(t) => Some(t.finish()),
            _ => None,
        }
    }

    /// The wrapped [`SweepPlot`], if any.
    pub fn into_sweep(self) -> Option<SweepPlot> {
        match self {
            Instrument::Sweep(p) => Some(p),
            _ => None,
        }
    }

    /// Finish an activity tracker into its decomposition, if this is one.
    pub fn into_activity(self) -> Option<Activity> {
        match self {
            Instrument::Activity(t) => Some(t.finish()),
            _ => None,
        }
    }

    /// Finish a timeline sampler into its report, if this is one.
    pub fn into_timeline(self) -> Option<TimelineReport> {
        match self {
            Instrument::Timeline(t) => Some(t.finish()),
            _ => None,
        }
    }
}

impl From<Cache> for Instrument {
    fn from(c: Cache) -> Self {
        Instrument::Cache(c)
    }
}

impl From<SetAssocCache> for Instrument {
    fn from(c: SetAssocCache) -> Self {
        Instrument::Assoc(c)
    }
}

impl From<BlockTracker> for Instrument {
    fn from(t: BlockTracker) -> Self {
        Instrument::Blocks(t)
    }
}

impl From<SweepPlot> for Instrument {
    fn from(p: SweepPlot) -> Self {
        Instrument::Sweep(p)
    }
}

impl From<ActivityTracker> for Instrument {
    fn from(t: ActivityTracker) -> Self {
        Instrument::Activity(t)
    }
}

impl From<Timeline> for Instrument {
    fn from(t: Timeline) -> Self {
        Instrument::Timeline(t)
    }
}

impl TraceSink for Instrument {
    #[inline]
    fn access(&mut self, a: Access) {
        match self {
            Instrument::Cache(c) => c.access(a),
            Instrument::Assoc(c) => c.access(a),
            Instrument::Blocks(t) => t.access(a),
            Instrument::Sweep(p) => p.access(a),
            Instrument::Activity(t) => t.access(a),
            Instrument::Timeline(t) => t.access(a),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegc_trace::{Context, Fanout, DYNAMIC_BASE};

    const M: Context = Context::Mutator;

    fn mixed_set() -> Vec<Instrument> {
        vec![
            Cache::new(CacheConfig::direct_mapped(1 << 15, 64)).into(),
            SetAssocCache::new(CacheConfig::direct_mapped(1 << 15, 64).with_assoc(2)).into(),
            BlockTracker::new(1 << 15, 64).into(),
            SweepPlot::new(CacheConfig::direct_mapped(1 << 15, 64), 256).into(),
            ActivityTracker::new(CacheConfig::direct_mapped(1 << 15, 64)).into(),
            Timeline::new(CacheConfig::direct_mapped(1 << 15, 64), 1000).into(),
        ]
    }

    #[test]
    fn every_instrument_consumes_the_stream() {
        let mut fan = Fanout::new(mixed_set());
        for i in 0..4096u32 {
            let addr = DYNAMIC_BASE + (i % 900) * 52;
            fan.access(if i % 4 == 0 {
                Access::alloc_write(addr, M)
            } else {
                Access::read(addr, M)
            });
        }
        let out = fan.into_sinks();
        assert_eq!(
            out.iter().map(Instrument::kind).collect::<Vec<_>>(),
            ["cache", "assoc", "blocks", "sweep", "activity", "timeline"]
        );
        let mut out = out.into_iter();
        let cache = out.next().unwrap().into_cache().unwrap();
        assert!(cache.stats().totals().misses() > 0);
        let assoc = out.next().unwrap().into_assoc().unwrap();
        assert!(assoc.stats().totals().misses() > 0);
        let blocks = out.next().unwrap().into_block_report().unwrap();
        assert_eq!(blocks.total_refs, 4096);
        let sweep = out.next().unwrap().into_sweep().unwrap();
        assert!(sweep.width() > 0);
        let act = out.next().unwrap().into_activity().unwrap();
        assert!(!act.entries.is_empty());
        let timeline = out.next().unwrap().into_timeline().unwrap();
        assert_eq!(timeline.events, 4096);
        assert_eq!(timeline.windows_sum(), timeline.totals);
    }

    #[test]
    fn activity_tracker_matches_post_hoc_analysis() {
        let cfg = CacheConfig::direct_mapped(1 << 14, 64);
        let mut tracker = ActivityTracker::new(cfg);
        let mut cache = Cache::new(cfg);
        for i in 0..2000u32 {
            let a = Access::read(DYNAMIC_BASE + (i % 333) * 68, M);
            tracker.access(a);
            cache.access(a);
        }
        assert_eq!(tracker.finish(), activity(cache.stats()));
    }

    #[test]
    fn conversions_are_kind_checked() {
        let i: Instrument = BlockTracker::new(1 << 12, 64).into();
        assert!(i.clone().into_cache().is_none());
        assert!(i.into_block_report().is_some());
    }
}
