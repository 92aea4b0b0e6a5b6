//! The behavioral analyses of the paper's §7.
//!
//! Four instruments:
//!
//! * [`BlockTracker`] — an online tracker of *memory block* behavior:
//!   lifetimes (first to last reference), reference counts, allocation
//!   cycles, one-cycle blocks, busy blocks, and per-population (static /
//!   stack / dynamic) statistics. Its [`BlockReport`] reproduces the §7
//!   lifetime CDF (with one-cycle markers), the multi-cycle activity
//!   claim (≥90 % of multi-cycle blocks active in ≤4 cycles), the
//!   references-per-block distribution, and the busy-block census
//!   (59–155 busy static blocks ≈ 75 % of references).
//! * [`Activity`] — per-*cache-block* decomposition of a finished cache
//!   simulation: local miss ratios with cache blocks in ascending
//!   reference-count order, plus cumulative miss / reference / miss-ratio
//!   curves — the paper's cache-activity graphs.
//! * [`SweepPlot`] — the time × cache-block miss dot plot showing the
//!   allocation pointer sweeping the cache diagonally.
//! * [`Timeline`] — windowed cache/GC timeline sampler: fixed event
//!   windows split at GC epoch boundaries, reproducing the paper's §6
//!   miss-rate-versus-time story with exact aggregate reconstruction.
//!
//! [`ActivityTracker`] packages the activity decomposition as an online
//! [`cachegc_trace::TraceSink`], and [`Instrument`] closes all of the
//! above (plus the cache simulators) into one sink type so a heterogeneous
//! instrument set can share a single — optionally parallel — trace pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
mod blocks;
mod instrument;
mod sweep;
mod timeline;

pub use activity::{activity, Activity, ActivityEntry};
pub use blocks::{BlockReport, BlockTracker, BusyBlock};
pub use instrument::{ActivityTracker, Instrument};
pub use sweep::SweepPlot;
pub use timeline::{
    CollectionMarker, Timeline, TimelineReport, TimelineWindow, DEFAULT_WINDOW_EVENTS,
};
