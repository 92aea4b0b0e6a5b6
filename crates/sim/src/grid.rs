//! The grid-vectorized direct-mapped simulator.
//!
//! The paper's §5 result is one address stream measured against a whole
//! grid of cache configurations (size × block × policy). Simulating the
//! grid as K independent [`Cache`] sinks pays the stream-dispatch cost K
//! times per event; [`GridCache`] instead holds all K configurations as
//! lanes over one shared flat block-state arena and updates every lane
//! per event — so one stream of batches (a pass's raw feed, see
//! [`cachegc_trace::feed`]) drives the entire grid, and each lane's
//! precomputed geometry stays in registers across a whole
//! [`EventBatch`].
//!
//! A lane counts only the scalar [`CacheTotals`] the §5 tables read; the
//! per-block counters of the §7 analyses live in [`Cache`]. The counters
//! that are equal in every lane (references by context and kind, and a
//! write-through lane's written-through words) are tallied once per batch,
//! so per lane and event the kernel only indexes, loads one block record,
//! compares tags and tests a valid bit, and counts on a miss.
//!
//! Most events of a real trace change no lane at all: they re-read a word
//! an earlier event left resident and valid in every lane, or re-write one
//! an earlier write left dirty. A grid of [`FILTER_MIN_LANES`] lanes or more
//! drops those events once per batch, before the lanes, through a private
//! repeat filter built from its own geometry; the lanes step only over the
//! events it keeps. The filter is exact (DESIGN.md §6f proves it), so no
//! counter moves.
//!
//! Bit-identity is the bar: every lane's [`CacheTotals`] equal those of a
//! [`Cache`] fed the same stream, which the differential tests below (and
//! the batch-cut property test in `tests/properties.rs`) check for every
//! write-hit × write-miss policy combination.

use cachegc_trace::{Access, Context, EventBatch, EVENT_BATCH};

#[cfg(doc)]
use crate::cache::Cache;
use crate::config::{CacheConfig, WriteHitPolicy, WriteMissPolicy};
use crate::stats::CacheTotals;

const EMPTY: u32 = u32::MAX;

/// The narrowest grid that filters its events. The filter costs about one
/// lane step per event, so a one-lane grid runs faster without it (the
/// per-width costs are in DESIGN.md §6f).
const FILTER_MIN_LANES: usize = 2;

/// Entries in the filter's anchor table, one word per entry (32 KiB).
const ANCHORS: usize = 1 << 12;

/// Most entries in the filter's owner table (32 KiB).
const MAX_OWNERS: usize = 1 << 12;

/// Generations stay below this, so that the stamp `2 * gen + 1` fits a
/// `u32`; the filter forgets everything when it gets there.
const GEN_LIMIT: u32 = 1 << 31;

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

/// One owner slot of a [`RepeatFilter`]: the key `addr >> lo` of the last
/// kept event whose field maps here, and the generation that began when
/// that key took the slot over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Owner {
    key: u32,
    gen: u32,
}

/// A fresh owner slot: no key (a key is at most `u32::MAX >> 3`) and a
/// generation no anchor carries.
const NO_OWNER: Owner = Owner { key: EMPTY, gen: 1 };

/// The first generation a key can take a slot over with.
const FIRST_GEN: u32 = 2;

/// A grid's repeat filter: it drops an event when an earlier event left
/// the event's word resident and valid in every lane (for a write: an
/// earlier write, which also left its block dirty in every write-back
/// lane) and no kept event since could have evicted that block from any
/// lane. Such an event changes no lane's state or counters but the
/// lane-invariant ones, which `consume` tallies over the whole batch.
///
/// With `Smin` the smallest lane size and `Bmax` the largest lane block,
/// an event at `x` can evict the block of word `a` from some lane only if
/// `x` lies in another `Smin`-aligned region and agrees with `a` on the
/// field bits `[lo, log2 Smin)`, where `lo = min(log2 Bmax, log2 Smin)`.
/// So an event's key is `addr >> lo` (region and field), its field picks
/// an owner slot, and a kept event whose key is not its slot's owner
/// starts a new generation there. An anchor is the last kept event at a
/// word, with whether it wrote and the generation its slot had after it;
/// while the slot keeps that generation, no kept event since came from
/// another region with the same field. Dropped events change nothing, so
/// only kept events are recorded. Both tables are bounded and indexed by
/// low bits: a collision or a reset loses an anchor or starts a generation
/// early, and generations are never reused until a reset clears every
/// anchor, so no stale anchor can match.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RepeatFilter {
    lo: u32,
    owners: Vec<Owner>,
    /// Per word slot: `(2 * gen + wrote) << 32 | addr` of its anchor; 0
    /// (generation 0) matches nothing.
    anchors: Box<[u64; ANCHORS]>,
    next_gen: u32,
}

impl RepeatFilter {
    /// The filter over `lanes`, or `None` for a grid too narrow to gain
    /// from one.
    fn new(lanes: &[Lane]) -> Option<Self> {
        if lanes.len() < FILTER_MIN_LANES {
            return None;
        }
        let s_min = lanes.iter().map(|l| l.cfg.size).min()?;
        let b_max = lanes.iter().map(|l| l.cfg.block).max()?;
        let hi = s_min.trailing_zeros();
        let lo = b_max.trailing_zeros().min(hi);
        Some(RepeatFilter {
            lo,
            owners: vec![NO_OWNER; (1usize << (hi - lo)).min(MAX_OWNERS)],
            anchors: Box::new([0; ANCHORS]),
            next_gen: FIRST_GEN,
        })
    }

    /// The events of `batch` that may change some lane, in stream order.
    fn keep(&mut self, batch: &EventBatch) -> EventBatch {
        let mut kept = EventBatch {
            addrs: [0; EVENT_BATCH],
            flags: [0; EVENT_BATCH],
            len: 0,
        };
        for i in 0..batch.len() {
            let addr = batch.addrs[i];
            let wrote = u32::from(batch.get(i).is_write());
            let key = addr >> self.lo;
            let slot = key as usize & (self.owners.len() - 1);
            let word = (addr >> 2) as usize & (ANCHORS - 1);
            let owner = self.owners[slot];
            // A read repeats an anchor of either kind, a write only a
            // write's: setting the read's kind bit accepts both.
            let anchor = self.anchors[word] | u64::from(wrote ^ 1) << 32;
            if anchor == u64::from(2 * owner.gen + 1) << 32 | u64::from(addr) {
                continue;
            }
            kept.addrs[kept.len] = addr;
            kept.flags[kept.len] = batch.flags[i];
            kept.len += 1;
            let gen = if owner.key == key {
                owner.gen
            } else {
                self.take_over(slot, key)
            };
            self.anchors[word] = u64::from(2 * gen + wrote) << 32 | u64::from(addr);
        }
        kept
    }

    /// Give `slot` to `key` under a new generation.
    fn take_over(&mut self, slot: usize, key: u32) -> u32 {
        if self.next_gen == GEN_LIMIT {
            self.reset();
        }
        let gen = self.next_gen;
        self.next_gen += 1;
        self.owners[slot] = Owner { key, gen };
        gen
    }

    /// Forget every anchor and owner, so generations can start over.
    #[cold]
    fn reset(&mut self) {
        self.owners.fill(NO_OWNER);
        self.anchors.fill(0);
        self.next_gen = FIRST_GEN;
    }
}

/// K direct-mapped caches simulated in lockstep over one event stream.
///
/// Each lane's [`CacheTotals`] equal those of a [`Cache`] over the same
/// configuration, but the grid consumes the stream once per *batch*
/// instead of once per `(event, cache)` pair, with all lane state (tag,
/// valid bitmap, dirty flag) in one shared flat arena of block records,
/// and steps its lanes only over the events its repeat filter keeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridCache {
    lanes: Vec<Lane>,
    blocks: Vec<BlockState>,
    filter: Option<RepeatFilter>,
    events: u64,
    lane_steps: u64,
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
            filter: RepeatFilter::new(&lanes),
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
            lane_steps: 0,
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

    /// `(config, event)` cells simulated so far: `events × lanes`, the
    /// grid's logical work, whether or not a lane stepped over the event.
    pub fn cells_simulated(&self) -> u64 {
        self.events * self.lanes.len() as u64
    }

    /// Lane steps the kernel ran so far: `lanes` per event the repeat
    /// filter kept, at most [`GridCache::cells_simulated`].
    pub fn lane_steps(&self) -> u64 {
        self.lane_steps
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

    /// Add the lane-invariant counters of `batch` to every lane: each
    /// lane sees every reference, and a write-through lane writes every
    /// write through. The tally adds flags rather than matching on them,
    /// since reads and writes alternate unpredictably.
    fn count_refs(lanes: &mut [Lane], batch: &EventBatch) {
        let (mut writes, mut collector, mut collector_writes) = (0u64, 0u64, 0u64);
        for a in batch.accesses() {
            let w = u64::from(a.is_write());
            let c = u64::from(a.ctx == Context::Collector);
            writes += w;
            collector += c;
            collector_writes += w & c;
        }
        let reads = batch.len() as u64 - writes;
        for lane in lanes {
            let t = &mut lane.totals;
            t.mutator_reads += reads - (collector - collector_writes);
            t.mutator_writes += writes - collector_writes;
            t.collector_reads += collector - collector_writes;
            t.collector_writes += collector_writes;
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

    /// Update every lane with one batch of the stream. The lane-invariant
    /// counters are tallied once over the whole batch; then lanes are the
    /// outer loop over the events the repeat filter keeps, so each lane's
    /// geometry and hot blocks stay cached across the batch — this is the
    /// kernel every grid reader drives.
    pub fn consume(&mut self, batch: &EventBatch) {
        Self::count_refs(&mut self.lanes, batch);
        self.events += batch.len() as u64;
        let kept;
        let batch = match &mut self.filter {
            Some(filter) => {
                kept = filter.keep(batch);
                &kept
            }
            None => batch,
        };
        for lane in self.lanes.iter_mut() {
            let n = lane.index_mask as usize + 1;
            let blocks = &mut self.blocks[lane.base..lane.base + n];
            for a in batch.accesses() {
                Self::step(lane, blocks, a);
            }
        }
        self.lane_steps += (batch.len() * self.lanes.len()) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use cachegc_trace::{Recorder, TraceSink};

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

    /// A hand-counted stream over a 4 KB/16 B and a 16 KB/64 B lane:
    /// `Smin` is 4 KB and `Bmax` 64 B, so only an event 4 KB away with
    /// the same bits 6..12 can evict. The filter must keep exactly the
    /// events that can change a lane, and a one-lane grid, which builds
    /// no filter, steps over every event.
    #[test]
    fn the_filter_keeps_exactly_the_events_that_can_change_a_lane() {
        let m = Context::Mutator;
        let base = 0x1000_0000u32;
        let words = || (0..16).map(move |i| base + 4 * i);
        let mut stream = Vec::new();
        // 16 first touches, kept; their repeats, dropped.
        stream.extend(words().map(|a| Access::read(a, m)));
        stream.extend(words().map(|a| Access::read(a, m)));
        // A write after a read, kept; a write and a read after it, dropped.
        stream.push(Access::write(base, m));
        stream.push(Access::write(base, m));
        stream.push(Access::read(base, m));
        // Same region, another field: kept, and evicts nothing.
        stream.push(Access::read(base + 64, m));
        stream.push(Access::read(base + 4, m));
        // Another region, same field: kept, and every word is kept again.
        stream.push(Access::read(base + 4096, m));
        stream.extend(words().map(|a| Access::read(a, m)));
        assert_eq!(stream.len(), 54);

        let configs = vec![
            CacheConfig::direct_mapped(4 << 10, 16),
            CacheConfig::direct_mapped(16 << 10, 64),
        ];
        let grid = consume_all(configs.clone(), &stream);
        assert_eq!(grid.cells_simulated(), 54 * 2);
        assert_eq!(grid.lane_steps(), (16 + 1 + 1 + 1 + 16) * 2);
        let mut oracle = grid_oracle(&configs);
        for &a in &stream {
            oracle.iter_mut().for_each(|c| c.access(a));
        }
        for (lane, cache) in oracle.iter().enumerate() {
            assert_eq!(*grid.stats(lane), cache.stats().totals(), "lane {lane}");
        }

        let one = consume_all(configs[..1].to_vec(), &stream);
        assert_eq!(one.lane_steps(), one.cells_simulated());
    }

    /// A filter that runs out of generations forgets every anchor and
    /// starts over, and the lanes still equal their oracles.
    #[test]
    fn the_filter_resets_when_its_generations_run_out() {
        let configs = policy_grid();
        let stream = mixed_stream(7, 5_000);
        let mut grid = GridCache::new(configs.clone());
        grid.filter.as_mut().expect("a filtered grid").next_gen = GEN_LIMIT - 3;
        let mut rec = Recorder::new();
        stream.iter().for_each(|&a| rec.access(a));
        rec.finish()
            .expect("kept")
            .replay_batched(|b| grid.consume(b));
        assert!(grid.filter.as_ref().unwrap().next_gen < GEN_LIMIT - 3);
        let mut oracle = grid_oracle(&configs);
        for &a in &stream {
            oracle.iter_mut().for_each(|c| c.access(a));
        }
        for (lane, cache) in oracle.iter().enumerate() {
            assert_eq!(*grid.stats(lane), cache.stats().totals(), "lane {lane}");
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
