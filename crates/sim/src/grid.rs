//! The grid-vectorized direct-mapped simulator.
//!
//! The paper's §5 result is one address stream measured against a whole
//! grid of cache configurations (size × block × policy). Simulating the
//! grid as K independent [`Cache`] sinks pays the stream-dispatch cost K
//! times per event; [`GridCache`] instead holds all K configurations as
//! lanes over one shared flat block-state arena and updates every lane
//! per event — so a single decode pass (see
//! [`cachegc_trace::RecordedTrace::replay_batched`]) drives the entire
//! grid, and each lane's precomputed geometry stays in registers across a
//! whole [`EventBatch`].
//!
//! A lane counts only the scalar [`CacheTotals`] the §5 tables read; the
//! per-block counters of the §7 analyses live in [`Cache`]. The counters
//! that are equal in every lane (references by context and kind, and a
//! write-through lane's written-through words) are tallied once per batch,
//! so per lane and event the kernel only indexes, loads one block record,
//! compares tags and tests a valid bit, and counts on a miss.
//!
//! Bit-identity is the bar: every lane's [`CacheTotals`] equal those of a
//! [`Cache`] fed the same stream, which the differential tests below (and
//! the batch-cut property test in `tests/properties.rs`) check for every
//! write-hit × write-miss policy combination.

use cachegc_trace::{Access, EventBatch};

#[cfg(doc)]
use crate::cache::Cache;
use crate::config::{CacheConfig, WriteHitPolicy, WriteMissPolicy};
use crate::stats::CacheTotals;

const EMPTY: u32 = u32::MAX;

/// One cache block's state, in one record so an access touches a single
/// cache line. Both simulators only ever ask whether a block is dirty, so
/// dirtiness is a flag, and the record is 16 naturally aligned bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockState {
    tag: u32,
    dirty: bool,
    valid: u64,
}

const _: () = assert!(std::mem::size_of::<BlockState>() == 16);

/// One configuration's lane: precomputed geometry, policy flags, the
/// lane's window into the shared arena, and its counters.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Lane {
    cfg: CacheConfig,
    offset_bits: u32,
    index_bits: u32,
    index_mask: u32,
    block_mask: u32,
    full_mask: u64,
    write_back: bool,
    fetch_on_write: bool,
    /// First arena slot of this lane's blocks.
    base: usize,
    totals: CacheTotals,
}

/// K direct-mapped caches simulated in lockstep over one event stream.
///
/// Each lane's [`CacheTotals`] equal those of a [`Cache`] over the same
/// configuration, but the grid consumes the stream once per *batch*
/// instead of once per `(event, cache)` pair, with all lane state (tag,
/// valid bitmap, dirty flag) in one shared flat arena of block records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridCache {
    lanes: Vec<Lane>,
    blocks: Vec<BlockState>,
    events: u64,
}

impl GridCache {
    /// A grid over `configs`, every lane empty.
    ///
    /// # Panics
    ///
    /// Panics if any configuration is not direct-mapped (`assoc != 1`);
    /// use [`crate::SetAssocCache`] sinks for associative ablations.
    pub fn new(configs: Vec<CacheConfig>) -> Self {
        let mut lanes = Vec::with_capacity(configs.len());
        let mut total = 0usize;
        for cfg in configs {
            assert_eq!(cfg.assoc, 1, "GridCache is direct-mapped; got {cfg}");
            let wpb = cfg.words_per_block();
            let full_mask = if wpb >= 64 {
                u64::MAX
            } else {
                (1u64 << wpb) - 1
            };
            let index_mask = cfg.num_blocks() - 1;
            lanes.push(Lane {
                cfg,
                offset_bits: cfg.block.trailing_zeros(),
                index_bits: index_mask.count_ones(),
                index_mask,
                block_mask: cfg.block - 1,
                full_mask,
                write_back: cfg.write_hit == WriteHitPolicy::WriteBack,
                fetch_on_write: cfg.write_miss == WriteMissPolicy::FetchOnWrite,
                base: total,
                totals: CacheTotals::default(),
            });
            total += cfg.num_blocks() as usize;
        }
        GridCache {
            lanes,
            blocks: vec![
                BlockState {
                    tag: EMPTY,
                    dirty: false,
                    valid: 0,
                };
                total
            ],
            events: 0,
        }
    }

    /// Number of configurations (lanes) in the grid.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// True when the grid holds no configurations.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Events consumed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// `(config, event)` cell updates performed so far — the grid-kernel
    /// work metric (`events × lanes`).
    pub fn cells_simulated(&self) -> u64 {
        self.events * self.lanes.len() as u64
    }

    /// The configurations, in lane order.
    pub fn configs(&self) -> Vec<CacheConfig> {
        self.lanes.iter().map(|l| l.cfg).collect()
    }

    /// One lane's accumulated counters.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.len()`.
    pub fn stats(&self, lane: usize) -> &CacheTotals {
        &self.lanes[lane].totals
    }

    /// Consume the grid, returning `(config, totals)` per lane in order.
    pub fn into_cells(self) -> Vec<(CacheConfig, CacheTotals)> {
        self.lanes.into_iter().map(|l| (l.cfg, l.totals)).collect()
    }

    /// Add the lane-invariant counters of a run of events, whose
    /// references `refs` counts, to every lane: each lane sees every
    /// reference, and a write-through lane writes every write through.
    fn count_refs(lanes: &mut [Lane], refs: &CacheTotals) {
        let writes = refs.writes();
        for lane in lanes {
            let t = &mut lane.totals;
            t.mutator_reads += refs.mutator_reads;
            t.mutator_writes += refs.mutator_writes;
            t.collector_reads += refs.collector_reads;
            t.collector_writes += refs.collector_writes;
            if !lane.write_back {
                t.write_through_words += writes;
            }
        }
    }

    /// Simulate one access in `lane`, whose block window is `blocks`
    /// (a power-of-two-length slice, so the mask derived from its length
    /// provably bounds the index), counting only what the lane's policy
    /// and state make differ from other lanes. Replicates
    /// [`Cache::access_classified`]'s transitions exactly.
    #[inline]
    fn step(lane: &mut Lane, blocks: &mut [BlockState], a: Access) {
        let rel = ((a.addr >> lane.offset_bits) as usize) & (blocks.len() - 1);
        let blk = &mut blocks[rel];
        let tag = a.addr >> lane.offset_bits >> lane.index_bits;
        let bit = 1u64 << ((a.addr & lane.block_mask) >> 2);
        let t = &mut lane.totals;

        if a.is_read() {
            if blk.tag == tag {
                if blk.valid & bit != 0 {
                    return;
                }
                // Present tag, invalid word: sub-block fill of the rest.
                blk.valid = lane.full_mask;
                t.count_partial_fill();
                t.count_fetch(a.ctx);
            } else {
                if lane.write_back && blk.dirty {
                    t.count_writeback();
                }
                blk.dirty = false;
                blk.tag = tag;
                blk.valid = lane.full_mask;
                t.count_read_miss_fetch();
                t.count_fetch(a.ctx);
            }
        } else {
            // Write.
            if blk.tag == tag {
                blk.valid |= bit;
                blk.dirty |= lane.write_back;
                return;
            }
            if lane.write_back && blk.dirty {
                t.count_writeback();
            }
            blk.dirty = lane.write_back;
            blk.tag = tag;
            t.alloc_misses += u64::from(a.alloc_init);
            if lane.fetch_on_write {
                blk.valid = lane.full_mask;
                t.count_write_miss_fetch();
                t.count_fetch(a.ctx);
            } else {
                blk.valid = bit;
                t.count_write_validate_install();
            }
        }
    }

    /// Update every lane with one decoded batch. The lane-invariant
    /// counters are tallied once for the batch; then lanes are the outer
    /// loop so each lane's geometry and hot blocks stay cached across the
    /// whole batch — this is the kernel one batched decode pass drives.
    pub fn consume(&mut self, batch: &EventBatch) {
        let GridCache {
            lanes,
            blocks,
            events,
        } = self;
        let mut refs = CacheTotals::default();
        for a in batch.accesses() {
            refs.count_ref(a.ctx, a.is_read());
        }
        Self::count_refs(lanes, &refs);
        for lane in lanes.iter_mut() {
            let n = lane.index_mask as usize + 1;
            let blocks = &mut blocks[lane.base..lane.base + n];
            for a in batch.accesses() {
                Self::step(lane, blocks, a);
            }
        }
        *events += batch.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use cachegc_trace::{Context, Recorder, TraceSink};

    /// A `Vec<Cache>` built over the same configurations: the oracle the
    /// grid is differentially tested against.
    fn grid_oracle(configs: &[CacheConfig]) -> Vec<Cache> {
        configs.iter().map(|&c| Cache::new(c)).collect()
    }

    /// SplitMix64, inlined (no registry deps in this workspace).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A random mixed stream: monotone allocation walks, absolute jumps,
    /// context flips, and all three access kinds.
    fn mixed_stream(seed: u64, n: usize) -> Vec<Access> {
        let mut state = seed;
        let mut addr = 0x1000_0000u32;
        (0..n)
            .map(|_| {
                let r = splitmix(&mut state);
                addr = match r % 4 {
                    0 => addr.wrapping_add(4),
                    1 => addr.wrapping_add((r >> 40) as u32 & 0xfff),
                    2 => (r >> 16) as u32,
                    _ => addr.wrapping_sub(64),
                };
                let ctx = if r & (1 << 60) != 0 {
                    Context::Collector
                } else {
                    Context::Mutator
                };
                match (r >> 61) % 3 {
                    0 => Access::read(addr, ctx),
                    1 => Access::write(addr, ctx),
                    _ => Access::alloc_write(addr, ctx),
                }
            })
            .collect()
    }

    /// Every write-hit × write-miss policy combination over a small
    /// size/block grid.
    fn policy_grid() -> Vec<CacheConfig> {
        let mut configs = Vec::new();
        for &(size, block) in &[(32u32 << 10, 16u32), (32 << 10, 64), (128 << 10, 32)] {
            for hit in [WriteHitPolicy::WriteBack, WriteHitPolicy::WriteThrough] {
                for miss in [
                    WriteMissPolicy::WriteValidate,
                    WriteMissPolicy::FetchOnWrite,
                ] {
                    configs.push(
                        CacheConfig::direct_mapped(size, block)
                            .with_write_hit(hit)
                            .with_write_miss(miss),
                    );
                }
            }
        }
        configs
    }

    /// A grid fed `stream` the way every engine pass feeds one: recorded
    /// into small segments and replayed through the batched decoder.
    fn consume_all(configs: Vec<CacheConfig>, stream: &[Access]) -> GridCache {
        let mut rec = Recorder::new().with_segment_bytes(4096);
        for &a in stream {
            rec.access(a);
        }
        let trace = rec
            .finish()
            .expect("an unlimited recorder keeps its capture");
        let mut grid = GridCache::new(configs);
        trace.replay_batched(|b| grid.consume(b));
        grid
    }

    #[test]
    fn grid_matches_independent_caches_for_every_policy_combo() {
        let configs = policy_grid();
        for seed in [1u64, 0xdead_beef, 0x5eed_5eed_5eed] {
            let stream = mixed_stream(seed, 20_000);
            let grid = consume_all(configs.clone(), &stream);
            let mut oracle = grid_oracle(&configs);
            for &a in &stream {
                for c in &mut oracle {
                    c.access(a);
                }
            }
            assert_eq!(grid.events(), stream.len() as u64);
            assert_eq!(
                grid.cells_simulated(),
                stream.len() as u64 * configs.len() as u64
            );
            for (i, ((cfg, stats), cache)) in grid.into_cells().into_iter().zip(oracle).enumerate()
            {
                assert_eq!(cfg, configs[i], "lane order preserved");
                assert_eq!(
                    stats,
                    cache.into_stats().totals(),
                    "seed {seed:#x}: lane {i} ({cfg}) diverged from its Cache oracle"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "direct-mapped")]
    fn associative_configs_are_rejected() {
        GridCache::new(vec![CacheConfig::direct_mapped(32 << 10, 64).with_assoc(2)]);
    }

    #[test]
    fn empty_grid_is_harmless() {
        let g = consume_all(Vec::new(), &[Access::read(0, Context::Mutator)]);
        assert!(g.is_empty());
        assert_eq!(g.events(), 1);
        assert_eq!(g.cells_simulated(), 0);
        assert!(g.into_cells().is_empty());
    }
}
