//! Trace sinks: online consumers of the reference stream.

use crate::event::{Access, Context};

/// An online consumer of data-reference events.
///
/// Cache simulators, behavioral analyzers, and statistics counters all
/// implement this trait; the producing VM is generic over it so the whole
/// pipeline monomorphizes into a tight loop.
pub trait TraceSink {
    /// Consume one data reference.
    fn access(&mut self, access: Access);
}

/// `&mut S` forwards to `S`, so sinks can be borrowed into a run.
impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    #[inline]
    fn access(&mut self, access: Access) {
        (**self).access(access);
    }
}

impl<S: TraceSink + ?Sized> TraceSink for Box<S> {
    #[inline]
    fn access(&mut self, access: Access) {
        (**self).access(access);
    }
}

/// A sink that discards every event. Useful for running the VM purely for
/// its result or its instruction counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl NullSink {
    /// Create a discarding sink.
    pub fn new() -> Self {
        NullSink
    }
}

impl TraceSink for NullSink {
    #[inline]
    fn access(&mut self, _: Access) {}
}

/// Broadcasts each event to every attached sink, in order.
///
/// This is how one trace pass drives many cache configurations at once
/// (the paper's 8 cache sizes × 5 block sizes sweep).
pub struct Fanout<S> {
    sinks: Vec<S>,
}

impl<S> Fanout<S> {
    /// Create a fanout over `sinks`.
    pub fn new(sinks: Vec<S>) -> Self {
        Fanout { sinks }
    }

    /// The attached sinks.
    pub fn sinks(&self) -> &[S] {
        &self.sinks
    }

    /// Mutable access to the attached sinks.
    pub fn sinks_mut(&mut self) -> &mut [S] {
        &mut self.sinks
    }

    /// Consume the fanout, returning the sinks.
    pub fn into_sinks(self) -> Vec<S> {
        self.sinks
    }
}

impl<S: TraceSink> TraceSink for Fanout<S> {
    #[inline]
    fn access(&mut self, access: Access) {
        for s in &mut self.sinks {
            s.access(access);
        }
    }
}

/// Pairs of sinks also compose.
impl<A: TraceSink, B: TraceSink> TraceSink for (A, B) {
    #[inline]
    fn access(&mut self, access: Access) {
        self.0.access(access);
        self.1.access(access);
    }
}

/// `Option<S>` forwards when `Some` and discards when `None`, so optional
/// taps (e.g. a timeline instrument enabled by a CLI flag) compose into
/// tuple sinks without a second monomorphized pipeline.
impl<S: TraceSink> TraceSink for Option<S> {
    #[inline]
    fn access(&mut self, access: Access) {
        if let Some(s) = self {
            s.access(access);
        }
    }
}

/// Counts references by kind and context.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RefCounter {
    mutator_reads: u64,
    mutator_writes: u64,
    collector_reads: u64,
    collector_writes: u64,
    alloc_writes: u64,
}

impl RefCounter {
    /// Create a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total references seen (all contexts).
    pub fn total(&self) -> u64 {
        self.mutator_reads + self.mutator_writes + self.collector_reads + self.collector_writes
    }

    /// References made by a given context.
    pub fn by_context(&self, ctx: Context) -> u64 {
        match ctx {
            Context::Mutator => self.mutator_reads + self.mutator_writes,
            Context::Collector => self.collector_reads + self.collector_writes,
        }
    }

    /// Loads made by a given context.
    pub fn reads(&self, ctx: Context) -> u64 {
        match ctx {
            Context::Mutator => self.mutator_reads,
            Context::Collector => self.collector_reads,
        }
    }

    /// Stores made by a given context.
    pub fn writes(&self, ctx: Context) -> u64 {
        match ctx {
            Context::Mutator => self.mutator_writes,
            Context::Collector => self.collector_writes,
        }
    }

    /// Stores that initialized freshly allocated dynamic words.
    pub fn alloc_writes(&self) -> u64 {
        self.alloc_writes
    }
}

impl TraceSink for RefCounter {
    #[inline]
    fn access(&mut self, a: Access) {
        let slot = match (a.ctx, a.is_read()) {
            (Context::Mutator, true) => &mut self.mutator_reads,
            (Context::Mutator, false) => &mut self.mutator_writes,
            (Context::Collector, true) => &mut self.collector_reads,
            (Context::Collector, false) => &mut self.collector_writes,
        };
        *slot += 1;
        if a.alloc_init {
            self.alloc_writes += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::AccessKind;

    #[test]
    fn counter_attributes_by_context_and_kind() {
        let mut c = RefCounter::new();
        c.access(Access::read(0, Context::Mutator));
        c.access(Access::write(4, Context::Mutator));
        c.access(Access::alloc_write(8, Context::Mutator));
        c.access(Access::read(12, Context::Collector));
        assert_eq!(c.total(), 4);
        assert_eq!(c.by_context(Context::Mutator), 3);
        assert_eq!(c.by_context(Context::Collector), 1);
        assert_eq!(c.writes(Context::Mutator), 2);
        assert_eq!(c.alloc_writes(), 1);
    }

    #[test]
    fn fanout_broadcasts() {
        let mut f = Fanout::new(vec![RefCounter::new(), RefCounter::new()]);
        f.access(Access {
            addr: 0,
            kind: AccessKind::Read,
            ctx: Context::Mutator,
            alloc_init: false,
        });
        for s in f.sinks() {
            assert_eq!(s.total(), 1);
        }
    }

    #[test]
    fn tuple_composes() {
        let mut pair = (RefCounter::new(), NullSink::new());
        pair.access(Access::read(0, Context::Mutator));
        assert_eq!(pair.0.total(), 1);
    }

    #[test]
    fn option_forwards_when_some_and_discards_when_none() {
        let mut some = Some(RefCounter::new());
        some.access(Access::read(0, Context::Mutator));
        assert_eq!(some.unwrap().total(), 1);
        let mut none: Option<RefCounter> = None;
        none.access(Access::read(0, Context::Mutator));
        assert!(none.is_none());
    }

    #[test]
    fn mut_ref_forwards() {
        let mut c = RefCounter::new();
        {
            let r = &mut c;
            r.access(Access::read(0, Context::Mutator));
        }
        assert_eq!(c.total(), 1);
    }
}
