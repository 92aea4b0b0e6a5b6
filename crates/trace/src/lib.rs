//! Memory-reference trace infrastructure for the cachegc system.
//!
//! The simulated Scheme system (`cachegc-vm`) and the garbage collectors
//! (`cachegc-gc`) emit a stream of data-reference [`Access`] events — one
//! per load or store the simulated program performs — into a [`TraceSink`].
//! Cache simulators and behavioral analyzers are sinks; they consume the
//! stream online, so a multi-billion-reference run never needs to be stored.
//!
//! Time, throughout the system, is measured in *data references*, following
//! §7 of the paper ("references ... are the fundamental time unit of the
//! analysis"). Instruction counts, needed by the overhead formulas of §5–§6,
//! are kept separately in [`Counters`].
//!
//! # Example
//!
//! ```
//! use cachegc_trace::{Access, AccessKind, Context, RefCounter, TraceSink};
//!
//! let mut counter = RefCounter::new();
//! counter.access(Access::read(0x1000_0000, Context::Mutator));
//! counter.access(Access::write(0x1000_0004, Context::Mutator));
//! assert_eq!(counter.total(), 2);
//! assert_eq!(counter.reads(Context::Mutator), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod event;
pub mod feed;
mod recorded;
mod region;
mod sink;

pub use counters::{Counters, InstrClass};
pub use event::{Access, AccessKind, Context};
pub use feed::{
    feed, FeedBlock, FeedReader, FeedStats, FeedWriter, Recording, Segments, FEED_BLOCK_EVENTS,
    FEED_WINDOW,
};
pub use recorded::{
    EventBatch, RecordBudget, RecordedTrace, Recorder, CHARGE_CHUNK_BYTES, DEFAULT_SEGMENT_BYTES,
    EVENT_BATCH,
};
pub use region::{Region, DYNAMIC_BASE, DYNAMIC_SECOND_BASE, STACK_BASE, STATIC_BASE, WORD_BYTES};
pub use sink::{Fanout, NullSink, RefCounter, TraceSink};
