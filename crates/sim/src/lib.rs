//! Trace-driven data-cache simulation for the cachegc system.
//!
//! Implements the portion of the cache design space the paper considers
//! (§4): virtually-indexed direct-mapped caches from 32 KB to 4 MB with
//! block sizes from 16 to 256 bytes, a write-miss policy of *write-validate*
//! (write-allocate with per-word sub-block placement) or the conventional
//! *fetch-on-write*, and write-back or write-through write-hit accounting.
//! A set-associative variant is provided for ablation against the paper's
//! direct-mapped choice.
//!
//! Timing follows the paper exactly: the Przybylski main-memory model
//! (30 ns address setup, 180 ns access, 30 ns per 16 bytes transferred) and
//! two hypothetical processors (slow: 30 ns cycle, fast: 2 ns cycle), with a
//! one-cycle hit time.
//!
//! # Example
//!
//! ```
//! use cachegc_sim::{Cache, CacheConfig};
//! use cachegc_trace::{Access, Context, TraceSink};
//!
//! let mut cache = Cache::new(CacheConfig::direct_mapped(64 * 1024, 64));
//! cache.access(Access::read(0x1000_0000, Context::Mutator)); // cold miss
//! cache.access(Access::read(0x1000_0000, Context::Mutator)); // hit
//! assert_eq!(cache.stats().fetches(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assoc;
mod cache;
mod config;
mod grid;
mod stats;
mod timing;

pub use assoc::SetAssocCache;
pub use cache::{Cache, Outcome};
pub use config::{CacheConfig, WriteHitPolicy, WriteMissPolicy};
pub use grid::GridCache;
pub use stats::{BlockStats, CacheStats, CacheTotals};
pub use timing::{miss_penalty_cycles, writeback_cycles, MainMemory, Processor, FAST, SLOW};
