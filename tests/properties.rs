//! Property-based tests of the core data structures and invariants.
//!
//! These use the in-repo [`cachegc::testkit`] driver (a deterministic,
//! dependency-free replacement for `proptest`: the pinned registry crates
//! cannot resolve in hermetic builds). Each property runs over many
//! generated cases; failures report the case seed for replay.

use std::collections::HashMap;

use cachegc::analysis::{
    ActivityTracker, BlockReport, BlockTracker, BusyBlock, Instrument, SweepPlot,
};
use cachegc::core::{Acquired, EngineConfig, Runner, TraceStore};
use cachegc::gc::{
    CheneyCollector, Collector, GenerationalCollector, ImmixCollector, MarkSweepCollector,
    NoCollector, Roots,
};
use cachegc::heap::{Header, Heap, HeapConfig, ObjKind, Value};
use cachegc::sim::{Cache, CacheConfig, GridCache, SetAssocCache, WriteHitPolicy, WriteMissPolicy};
use cachegc::testkit::{check, Rng};
use cachegc::trace::feed::feed;
use cachegc::trace::{
    Access, AccessKind, Context, Counters, EventBatch, Fanout, NullSink, RecordBudget, Recorder,
    Region, TraceSink, DYNAMIC_BASE, DYNAMIC_SECOND_BASE, EVENT_BATCH, STACK_BASE, STATIC_BASE,
};
use cachegc::vm::{read, Machine, Sexp};
use cachegc::workloads::Workload;

// ---------------------------------------------------------------------
// Cache simulator vs an independent reference model
// ---------------------------------------------------------------------

/// A deliberately naive direct-mapped write-validate cache: a hash map
/// from cache-block index to (tag, per-word valid set). No bit tricks —
/// an independent oracle for the optimized simulator.
struct RefModel {
    size: u32,
    block: u32,
    blocks: HashMap<u32, (u32, Vec<bool>)>,
    fetches: u64,
    misses: u64,
}

impl RefModel {
    fn new(size: u32, block: u32) -> Self {
        RefModel {
            size,
            block,
            blocks: HashMap::new(),
            fetches: 0,
            misses: 0,
        }
    }

    fn access(&mut self, a: Access) {
        let block_addr = a.addr / self.block;
        let index = block_addr % (self.size / self.block);
        let tag = block_addr / (self.size / self.block);
        let word = ((a.addr % self.block) / 4) as usize;
        let words = (self.block / 4) as usize;
        let entry = self.blocks.get_mut(&index);
        match a.kind {
            AccessKind::Read => match entry {
                Some((t, valid)) if *t == tag && valid[word] => {}
                Some((t, valid)) if *t == tag => {
                    valid.iter_mut().for_each(|v| *v = true);
                    self.fetches += 1;
                    self.misses += 1;
                }
                _ => {
                    self.blocks.insert(index, (tag, vec![true; words]));
                    self.fetches += 1;
                    self.misses += 1;
                }
            },
            AccessKind::Write => match entry {
                Some((t, valid)) if *t == tag => valid[word] = true,
                _ => {
                    let mut valid = vec![false; words];
                    valid[word] = true;
                    self.blocks.insert(index, (tag, valid));
                    self.misses += 1;
                }
            },
        }
    }
}

/// An address in a window that wraps several cache sizes, read or write.
fn gen_access(rng: &mut Rng) -> Access {
    let addr = DYNAMIC_BASE + rng.range_u32(0, 1 << 18) * 4;
    if rng.bool() {
        Access::write(addr, Context::Mutator)
    } else {
        Access::read(addr, Context::Mutator)
    }
}

fn gen_accesses(rng: &mut Rng, lo: usize, hi: usize) -> Vec<Access> {
    let n = rng.range_usize(lo, hi);
    (0..n).map(|_| gen_access(rng)).collect()
}

#[test]
fn cache_matches_reference_model() {
    check("cache_matches_reference_model", 64, |rng| {
        let size = 1u32 << rng.range_u32(15, 19);
        let block = 1u32 << rng.range_u32(4, 8);
        let accesses = gen_accesses(rng, 1, 2000);
        let mut cache = Cache::new(CacheConfig::direct_mapped(size, block));
        let mut model = RefModel::new(size, block);
        for &a in &accesses {
            cache.access(a);
            model.access(a);
        }
        assert_eq!(cache.stats().fetches(), model.fetches);
        assert_eq!(cache.stats().totals().misses(), model.misses);
    });
}

#[test]
fn one_way_set_assoc_equals_direct_mapped() {
    check("one_way_set_assoc_equals_direct_mapped", 48, |rng| {
        let accesses = gen_accesses(rng, 1, 1500);
        let cfg = CacheConfig::direct_mapped(1 << 16, 64);
        let mut dm = Cache::new(cfg);
        let mut sa = SetAssocCache::new(cfg.with_assoc(1));
        for &a in &accesses {
            dm.access(a);
            sa.access(a);
        }
        assert_eq!(dm.stats().totals(), sa.stats().totals());
    });
}

#[test]
fn one_way_set_assoc_equals_direct_mapped_under_every_write_policy() {
    // The write-hit/write-miss logic exists in both `Cache` and
    // `SetAssocCache`; a 1-way set is definitionally a direct-mapped
    // cache, so every policy combination must agree on the full
    // statistics, not just the default write-back/write-validate pair.
    let combos = [
        (WriteHitPolicy::WriteBack, WriteMissPolicy::WriteValidate),
        (WriteHitPolicy::WriteBack, WriteMissPolicy::FetchOnWrite),
        (WriteHitPolicy::WriteThrough, WriteMissPolicy::WriteValidate),
        (WriteHitPolicy::WriteThrough, WriteMissPolicy::FetchOnWrite),
    ];
    check("one_way_differential_write_policies", 32, |rng| {
        let size = 1u32 << rng.range_u32(14, 17);
        let block = 1u32 << rng.range_u32(4, 8);
        let n = rng.range_usize(1, 1500);
        let accesses: Vec<Access> = (0..n)
            .map(|_| {
                let addr = DYNAMIC_BASE + rng.range_u32(0, 1 << 17) * 4;
                let ctx = if rng.bool() {
                    Context::Mutator
                } else {
                    Context::Collector
                };
                match rng.range_u32(0, 3) {
                    0 => Access::read(addr, ctx),
                    1 => Access::write(addr, ctx),
                    _ => Access::alloc_write(addr, ctx),
                }
            })
            .collect();
        for (hit, miss) in combos {
            let cfg = CacheConfig::direct_mapped(size, block)
                .with_write_hit(hit)
                .with_write_miss(miss);
            let mut dm = Cache::new(cfg);
            let mut sa = SetAssocCache::new(cfg.with_assoc(1));
            for &a in &accesses {
                dm.access(a);
                sa.access(a);
            }
            assert_eq!(
                dm.stats(),
                sa.stats(),
                "full statistics identical under {hit:?}/{miss:?}"
            );
        }
    });
}

#[test]
fn higher_associativity_never_increases_capacity_misses_for_sequential() {
    // Sequential sweeps are LRU-friendly: 2-way must not fetch more
    // than 1-way on a repeated linear scan that fits in the cache.
    check("higher_assoc_sequential", 32, |rng| {
        let n = rng.range_u32(1, 512);
        let cfg = CacheConfig::direct_mapped(1 << 16, 64);
        let mut one = SetAssocCache::new(cfg.with_assoc(1));
        let mut two = SetAssocCache::new(cfg.with_assoc(2));
        for _ in 0..3 {
            for i in 0..n {
                let a = Access::read(DYNAMIC_BASE + i * 64, Context::Mutator);
                one.access(a);
                two.access(a);
            }
        }
        assert!(two.stats().fetches() <= one.stats().fetches());
    });
}

// ---------------------------------------------------------------------
// Every grid lane equals its Cache oracle under arbitrary batch cuts
// ---------------------------------------------------------------------

/// A stream that walks forward word by word, jumps, steps back, flips
/// between mutator and collector, and mixes reads, writes and allocation
/// writes.
fn walk_stream(rng: &mut Rng, n: usize) -> Vec<Access> {
    let mut addr = DYNAMIC_BASE;
    let mut ctx = Context::Mutator;
    (0..n)
        .map(|_| {
            addr = match rng.range_u32(0, 4) {
                0 | 1 => addr.wrapping_add(4),
                2 => DYNAMIC_BASE + rng.range_u32(0, 1 << 18) * 4,
                _ => addr.wrapping_sub(rng.range_u32(1, 64) * 4),
            };
            if rng.range_u32(0, 8) == 0 {
                ctx = match ctx {
                    Context::Mutator => Context::Collector,
                    Context::Collector => Context::Mutator,
                };
            }
            match rng.range_u32(0, 3) {
                0 => Access::read(addr, ctx),
                1 => Access::write(addr, ctx),
                _ => Access::alloc_write(addr, ctx),
            }
        })
        .collect()
}

/// `accesses` (at most [`EVENT_BATCH`]) as a hand-built batch whose
/// unused tail is random junk that a kernel must never read.
fn batch_of(rng: &mut Rng, accesses: &[Access]) -> EventBatch {
    let mut batch = EventBatch {
        addrs: [0; EVENT_BATCH],
        flags: [0; EVENT_BATCH],
        len: accesses.len(),
    };
    for i in 0..EVENT_BATCH {
        (batch.addrs[i], batch.flags[i]) = match accesses.get(i) {
            // Flag bits as `EventBatch` documents them: write, collector,
            // alloc-init.
            Some(a) => (
                a.addr,
                u8::from(a.is_write())
                    | u8::from(a.ctx == Context::Collector) << 1
                    | u8::from(a.alloc_init) << 2,
            ),
            None => (rng.next_u32(), rng.range_u32(0, 8) as u8),
        };
    }
    batch
}

#[test]
fn grid_lanes_match_their_cache_oracles_under_any_batch_cuts() {
    check("grid_batch_cuts", 48, |rng| {
        let configs: Vec<CacheConfig> = (0..rng.range_usize(1, 9))
            .map(|_| {
                let block = 1u32 << rng.range_u32(4, 9);
                let size = 1u32 << rng.range_u32(12, 19);
                let hit = if rng.bool() {
                    WriteHitPolicy::WriteBack
                } else {
                    WriteHitPolicy::WriteThrough
                };
                let miss = if rng.bool() {
                    WriteMissPolicy::WriteValidate
                } else {
                    WriteMissPolicy::FetchOnWrite
                };
                CacheConfig::direct_mapped(size, block)
                    .with_write_hit(hit)
                    .with_write_miss(miss)
            })
            .collect();
        let n = rng.range_usize(0, 3000);
        let accesses = walk_stream(rng, n);
        let mut oracles: Vec<Cache> = configs.iter().map(|&c| Cache::new(c)).collect();
        let mut batched = GridCache::new(configs.clone());
        let mut rest = &accesses[..];
        while !rest.is_empty() {
            let (head, tail) = rest.split_at(rng.range_usize(1, EVENT_BATCH + 1).min(rest.len()));
            batched.consume(&batch_of(rng, head));
            rest = tail;
        }
        for &a in &accesses {
            oracles.iter_mut().for_each(|c| c.access(a));
        }
        assert_eq!(batched.events(), accesses.len() as u64);
        for (lane, cache) in oracles.iter().enumerate() {
            let want = cache.stats().totals();
            let cfg = configs[lane];
            assert_eq!(*batched.stats(lane), want, "lane {lane} ({cfg})");
        }
    });
}

// ---------------------------------------------------------------------
// The grid's repeat filter is exact on its edges
// ---------------------------------------------------------------------

/// A direct-mapped lane of any size from 256 B to 256 KB, any block from
/// 8 B up to the size, and any write policy.
fn edge_config(rng: &mut Rng) -> CacheConfig {
    let size_bits = rng.range_u32(8, 19);
    let block = 1u32 << rng.range_u32(3, size_bits.min(8) + 1);
    let hit = if rng.bool() {
        WriteHitPolicy::WriteBack
    } else {
        WriteHitPolicy::WriteThrough
    };
    let miss = if rng.bool() {
        WriteMissPolicy::WriteValidate
    } else {
        WriteMissPolicy::FetchOnWrite
    };
    CacheConfig::direct_mapped(1 << size_bits, block)
        .with_write_hit(hit)
        .with_write_miss(miss)
}

/// The grid drops an event only when an earlier access left its word
/// resident and valid in every lane (a write's, dirty too) and no kept
/// event since could have evicted it: one from another region of the
/// smallest lane size `Smin` whose bits between the largest block `Bmax`
/// and `Smin` agree. So the streams here come from a few words on those
/// edges — the same field in another region, the same region in another
/// field, a smaller block's neighbour inside the largest block, a word
/// that conflicts in every lane — and every lane must still equal its
/// `Cache` oracle, whatever the batch cuts.
#[test]
fn grid_repeat_filter_is_exact_on_its_edges() {
    check("grid_filter_edges", 128, |rng| {
        let mut configs: Vec<CacheConfig> = (0..rng.range_usize(2, 6))
            .map(|_| edge_config(rng))
            .collect();
        if rng.range_u32(0, 4) == 0 {
            // A one-block lane beside a large one: Bmax >= Smin, so every
            // region of Smin is its own field.
            configs.push(CacheConfig::direct_mapped(256, 256));
            configs.push(CacheConfig::direct_mapped(64 << 10, 16));
        }
        let s_min = configs.iter().map(|c| c.size).min().unwrap();
        let s_max = configs.iter().map(|c| c.size).max().unwrap();
        let b_min = configs.iter().map(|c| c.block).min().unwrap();
        let b_max = configs.iter().map(|c| c.block).max().unwrap();
        let edges = [
            0,
            4,
            b_min,
            b_max / 2,
            b_max,
            b_max - 4,
            s_min,
            s_min + 4,
            s_min + b_min,
            s_min + b_max / 2,
            s_min + b_max,
            2 * s_min,
            s_max,
            s_max + b_max,
            3 * s_max + 4,
            rng.range_u32(0, 1 << 18) * 4,
        ];
        let base = (DYNAMIC_BASE + rng.range_u32(0, 1 << 20) * 4) & !(s_max - 1);
        let words: Vec<u32> = (0..rng.range_usize(2, 7))
            .map(|_| base + rng.choose(&edges))
            .collect();
        let accesses: Vec<Access> = (0..rng.range_usize(1, 600))
            .map(|_| {
                let addr = *rng.choose(&words);
                let ctx = if rng.range_u32(0, 4) == 0 {
                    Context::Collector
                } else {
                    Context::Mutator
                };
                match rng.range_u32(0, 5) {
                    0 | 1 => Access::read(addr, ctx),
                    2 | 3 => Access::write(addr, ctx),
                    _ => Access::alloc_write(addr, ctx),
                }
            })
            .collect();
        let mut grid = GridCache::new(configs.clone());
        let mut rest = &accesses[..];
        while !rest.is_empty() {
            let (head, tail) = rest.split_at(rng.range_usize(1, EVENT_BATCH + 1).min(rest.len()));
            grid.consume(&batch_of(rng, head));
            rest = tail;
        }
        let mut oracles: Vec<Cache> = configs.iter().map(|&c| Cache::new(c)).collect();
        for &a in &accesses {
            oracles.iter_mut().for_each(|c| c.access(a));
        }
        assert!(grid.lane_steps() <= grid.cells_simulated());
        for (lane, cache) in oracles.iter().enumerate() {
            let cfg = configs[lane];
            assert_eq!(
                *grid.stats(lane),
                cache.stats().totals(),
                "lane {lane} ({cfg}) of {configs:?} over words {words:x?}"
            );
        }
    });
}

// ---------------------------------------------------------------------
// The paged block tracker equals a hash-map oracle
// ---------------------------------------------------------------------

/// One memory block's record in [`BlockOracle`].
struct OracleBlock {
    first: u64,
    last: u64,
    refs: u64,
    last_cycle: u64,
    cycles_active: u32,
    region: Region,
}

/// The §7 block tracker kept the naive way: a hash map from memory-block
/// number to its record, and a remainder for the cache block.
struct BlockOracle {
    shift: u32,
    cache_blocks: u64,
    cycles: Vec<u64>,
    blocks: HashMap<u32, OracleBlock>,
    time: u64,
}

impl BlockOracle {
    fn new(cache_bytes: u32, block_bytes: u32) -> Self {
        let cache_blocks = (cache_bytes / block_bytes) as u64;
        BlockOracle {
            shift: block_bytes.trailing_zeros(),
            cache_blocks,
            cycles: vec![0; cache_blocks as usize],
            blocks: HashMap::new(),
            time: 0,
        }
    }

    fn access(&mut self, a: Access) {
        self.time += 1;
        let mb = a.addr >> self.shift;
        let cb = (mb as u64 % self.cache_blocks) as usize;
        match self.blocks.get_mut(&mb) {
            None => {
                if a.alloc_init {
                    self.cycles[cb] += 1;
                }
                let block = OracleBlock {
                    first: self.time,
                    last: self.time,
                    refs: 1,
                    last_cycle: self.cycles[cb],
                    cycles_active: 1,
                    region: Region::of(a.addr),
                };
                self.blocks.insert(mb, block);
            }
            Some(b) => {
                b.last = self.time;
                b.refs += 1;
                if self.cycles[cb] != b.last_cycle {
                    b.last_cycle = self.cycles[cb];
                    b.cycles_active += 1;
                }
            }
        }
    }

    /// The report, with the map's entries taken in block address order.
    fn finish(self) -> BlockReport {
        let threshold = self.time.div_ceil(1000).max(1);
        let mut blocks: Vec<(u32, OracleBlock)> = self.blocks.into_iter().collect();
        blocks.sort_by_key(|&(mb, _)| mb);
        let mut r = BlockReport {
            total_refs: self.time,
            dynamic_blocks: 0,
            static_blocks: 0,
            stack_blocks: 0,
            one_cycle_dynamic: 0,
            dynamic_lifetimes: Vec::new(),
            dynamic_refs: Vec::new(),
            multi_cycle_activity: Vec::new(),
            busy: Vec::new(),
        };
        for (mb, b) in blocks {
            match b.region {
                Region::Dynamic => {
                    r.dynamic_blocks += 1;
                    r.dynamic_lifetimes.push(b.last - b.first);
                    r.dynamic_refs.push(b.refs);
                    if b.cycles_active == 1 {
                        r.one_cycle_dynamic += 1;
                    } else {
                        r.multi_cycle_activity.push(b.cycles_active);
                    }
                }
                Region::Static => r.static_blocks += 1,
                Region::Stack => r.stack_blocks += 1,
            }
            if b.refs >= threshold {
                r.busy.push(BusyBlock {
                    addr: mb << self.shift,
                    refs: b.refs,
                    region: b.region,
                });
            }
        }
        r.dynamic_lifetimes.sort_unstable();
        r.dynamic_refs.sort_unstable();
        r.busy.sort_by_key(|b| std::cmp::Reverse(b.refs));
        r
    }
}

/// References over the whole address space: allocation-init writes at
/// two bump pointers (the dynamic area and its second semispace) with
/// reads and writes behind them, the static area and the stack, windows
/// around the stack and dynamic bases (which 128- and 256-byte blocks
/// straddle), and the two ends of the address space.
fn block_stream(rng: &mut Rng, n: usize) -> Vec<Access> {
    const HEAPS: [u32; 2] = [DYNAMIC_BASE, DYNAMIC_SECOND_BASE];
    let mut top = HEAPS;
    let ctx = Context::Mutator;
    (0..n)
        .map(|_| {
            let h = rng.range_usize(0, 2);
            if rng.range_u32(0, 4) == 0 {
                let addr = top[h];
                top[h] += 4 * rng.range_u32(1, 33);
                return Access::alloc_write(addr, ctx);
            }
            let addr = match rng.range_u32(0, 6) {
                0 | 1 => HEAPS[h] + 4 * rng.range_u32(0, (top[h] - HEAPS[h]) / 4 + 1),
                2 => STATIC_BASE + 4 * rng.range_u32(0, 1 << 12),
                3 => STACK_BASE + 4 * rng.range_u32(0, 1 << 10),
                4 => [STACK_BASE, DYNAMIC_BASE][h] - 256 + 4 * rng.range_u32(0, 128),
                _ => [0, u32::MAX - 3][h],
            };
            match rng.range_u32(0, 8) {
                0 => Access::alloc_write(addr, ctx),
                1..=3 => Access::write(addr, ctx),
                _ => Access::read(addr, ctx),
            }
        })
        .collect()
}

#[test]
fn block_tracker_matches_its_hash_map_oracle() {
    // The bases the block-size range straddles: 64- but not 128-aligned,
    // and 128- but not 256-aligned. A straddling block takes the region
    // of the address that touches it first.
    assert_eq!((STACK_BASE % 64, STACK_BASE % 128), (0, 64));
    assert_eq!((DYNAMIC_BASE % 128, DYNAMIC_BASE % 256), (0, 128));
    check("block_tracker_oracle", 64, |rng| {
        let block_bits = rng.range_u32(0, 9);
        let cache = 1u32 << rng.range_u32(block_bits, 17);
        let n = rng.range_usize(0, 4000);
        let accesses = block_stream(rng, n);
        let mut tracker = BlockTracker::new(cache, 1 << block_bits);
        let mut oracle = BlockOracle::new(cache, 1 << block_bits);
        for &a in &accesses {
            tracker.access(a);
            oracle.access(a);
        }
        assert_eq!(
            tracker.finish(),
            oracle.finish(),
            "{}-byte blocks, {cache}-byte cache, {n} refs",
            1u32 << block_bits
        );
    });
}

// ---------------------------------------------------------------------
// A crew pass replays its own recording bit-identically to Fanout
// ---------------------------------------------------------------------

/// The paper-style grid at test scale: several sizes × block sizes.
fn small_grid() -> Vec<Cache> {
    let mut caches = Vec::new();
    for size in [1u32 << 15, 1 << 16, 1 << 18] {
        for block in [16u32, 64, 256] {
            caches.push(Cache::new(CacheConfig::direct_mapped(size, block)));
        }
    }
    caches
}

/// A mixed instrument set: cache simulators of different geometries and
/// organizations next to the §7 behavioral analyzers, as one
/// `Vec<Instrument>`. The per-event costs differ wildly, so the crew's
/// readers finish their shards at very different paces.
fn mixed_instruments() -> Vec<Instrument> {
    let cfg = CacheConfig::direct_mapped(1 << 15, 64);
    vec![
        Cache::new(cfg).into(),
        Cache::new(CacheConfig::direct_mapped(1 << 16, 256)).into(),
        SetAssocCache::new(cfg.with_assoc(2)).into(),
        BlockTracker::new(1 << 15, 64).into(),
        SweepPlot::new(cfg, 256).into(),
        ActivityTracker::new(cfg).into(),
    ]
}

fn assert_cells_identical(seq: Vec<Cache>, par: Vec<Cache>) {
    assert_eq!(seq.len(), par.len());
    for (s, p) in seq.into_iter().zip(par) {
        assert_eq!(s.config(), p.config(), "grid order preserved");
        let (s, p) = (s.into_stats(), p.into_stats());
        assert_eq!(s.fetches(), p.fetches());
        assert_eq!(s.totals().misses(), p.totals().misses());
        assert_eq!(s.totals().writebacks, p.totals().writebacks);
        assert_eq!(s.blocks(), p.blocks(), "per-block counters identical");
        assert_eq!(s, p, "full statistics bit-identical");
    }
}

/// Random accesses over `span` words of the dynamic area, with mixed
/// contexts, writes and allocation writes.
fn random_stream(rng: &mut Rng, n: usize, span: u32) -> Vec<Access> {
    (0..n)
        .map(|_| {
            let addr = DYNAMIC_BASE + rng.range_u32(0, span) * 4;
            let ctx = if rng.bool() {
                Context::Mutator
            } else {
                Context::Collector
            };
            match rng.range_u32(0, 3) {
                0 => Access::read(addr, ctx),
                1 => Access::write(addr, ctx),
                _ => Access::alloc_write(addr, ctx),
            }
        })
        .collect()
}

/// A stride pattern with conflicts and write-backs.
fn stride_stream(n: usize) -> Vec<Access> {
    (0..n as u32)
        .map(|i| {
            if i % 4 == 0 {
                Access::alloc_write(DYNAMIC_BASE + (i % 700) * 52, Context::Mutator)
            } else {
                Access::read(DYNAMIC_BASE + (i % 1100) * 36, Context::Collector)
            }
        })
        .collect()
}

/// The sequential oracle: every sink through one in-thread `Fanout`.
fn fanout<S: TraceSink>(sinks: Vec<S>, accesses: &[Access]) -> Vec<S> {
    let mut fan = Fanout::new(sinks);
    for &a in accesses {
        fan.access(a);
    }
    fan.into_sinks()
}

/// Drive `sinks` with `accesses` through `Runner::drive` on `jobs`
/// workers: the stream goes out in raw blocks of `block_events` events,
/// and the crew's readers read them from the feed into their shards.
fn drive_feed<S: TraceSink + Send>(
    jobs: usize,
    block_events: usize,
    sinks: Vec<S>,
    accesses: &[Access],
) -> Vec<S> {
    let runner = Runner::new(EngineConfig::jobs(jobs)).with_block_events(block_events);
    let ((), out) = runner.drive(sinks, |fan| {
        for &a in accesses {
            fan.access(a);
        }
    });
    out
}

/// A feed block size for a property case: one event, a non-multiple of
/// the batch size on either side of it, or anything up to a few batches.
fn block_events(rng: &mut Rng) -> usize {
    let any = rng.range_usize(1, 300);
    *rng.choose(&[1, EVENT_BATCH - 1, EVENT_BATCH + 1, any])
}

#[test]
fn feed_driven_grid_matches_sequential_fanout() {
    check("feed_grid_equivalence", 48, |rng| {
        // Random crew width and block size, so block boundaries and feed
        // backpressure land everywhere relative to the stream.
        let jobs = rng.range_usize(1, 5);
        let block_events = block_events(rng);
        let n = rng.range_usize(0, 4000);
        let accesses = random_stream(rng, n, 1 << 16);
        let par = drive_feed(jobs, block_events, small_grid(), &accesses);
        assert_cells_identical(fanout(small_grid(), &accesses), par);
    });
}

#[test]
fn feed_segment_boundary_edges() {
    // Deterministic edges: an empty stream, streams shorter than one
    // block, and streams many blocks long, at block sizes of one event
    // and around one batch.
    for n in [0usize, 1, 2, 7, 63, 64, 65, 1000] {
        let accesses = stride_stream(n);
        let expected = fanout(small_grid(), &accesses);
        for jobs in [1usize, 2, 3, 4] {
            for block_events in [1usize, 63, 64, 65] {
                let par = drive_feed(jobs, block_events, small_grid(), &accesses);
                assert_cells_identical(expected.clone(), par);
            }
        }
    }
}

#[test]
fn feed_driven_instruments_match_sequential_fanout() {
    check("feed_instruments_equivalence", 24, |rng| {
        // Every instrument's final state must be bit-identical to the
        // sequential oracle, whichever reader its shard landed on.
        let jobs = rng.range_usize(1, 5);
        let block_events = block_events(rng);
        let n = rng.range_usize(0, 2500);
        let accesses = random_stream(rng, n, 1 << 14);
        let par = drive_feed(jobs, block_events, mixed_instruments(), &accesses);
        assert_eq!(
            fanout(mixed_instruments(), &accesses),
            par,
            "mixed instruments bit-identical at jobs {jobs}, {block_events}-event blocks"
        );
    });
}

#[test]
fn feed_edges_with_more_workers_than_instruments() {
    // Edge streams on crews narrower than, as wide as, and wider than
    // the instrument set (a crew never runs more readers than sinks).
    for n in [0usize, 1, 63, 64, 65, 193] {
        let accesses = stride_stream(n);
        let expected = fanout(mixed_instruments(), &accesses);
        for jobs in [1usize, 2, 6, 16] {
            let par = drive_feed(jobs, 1, mixed_instruments(), &accesses);
            assert_eq!(expected, par, "n={n} jobs={jobs}");
        }
    }
}

/// Store `accesses` in `store` as the uncollected trace of `w`, through
/// the recorder of the store's miss.
fn seed_store(store: &TraceStore, w: cachegc::workloads::WorkloadInstance, accesses: &[Access]) {
    let Acquired::Miss(ticket) = store.acquire(w, None) else {
        panic!("an empty store misses");
    };
    let mut rec = ticket.recorder();
    for &a in accesses {
        rec.access(a);
    }
    ticket.offer(rec, Default::default(), std::time::Duration::ZERO);
}

/// Replay `w`'s stored trace as two store hits on `jobs` workers, with
/// `block_events`-event feed blocks: into `small_grid`'s configurations
/// as one grid, and into the mixed instrument set. Each must equal its
/// sequential oracle over `accesses`.
fn assert_hits_match(store: &TraceStore, jobs: usize, block_events: usize, accesses: &[Access]) {
    let w = Workload::Rewrite.scaled(1);
    let tag = format!("jobs {jobs}, {block_events}-event blocks");
    let runner = Runner::new(EngineConfig::jobs(jobs))
        .with_block_events(block_events)
        .with_store(store);
    let configs = small_grid().iter().map(|c| *c.config()).collect();
    let (_, cells) = runner.grid(w, None, configs).unwrap();
    let oracle = fanout(small_grid(), accesses);
    assert_eq!(cells.len(), oracle.len());
    for (cell, cache) in cells.iter().zip(&oracle) {
        assert_eq!(&cell.config, cache.config(), "{tag}: grid order");
        assert_eq!(cell.stats, cache.stats().totals(), "{tag}: {}", cell.config);
    }
    let (_, instruments) = runner.instruments(w, None, mixed_instruments()).unwrap();
    assert_eq!(
        fanout(mixed_instruments(), accesses),
        instruments,
        "{tag}: mixed instruments"
    );
}

#[test]
fn store_hits_match_sequential_fanout() {
    check("store_hit_equivalence", 32, |rng| {
        // The stored trace's decoder writes the feed that every reader
        // reads, at random crew widths and block sizes.
        let jobs = rng.range_usize(1, 5);
        let block_events = block_events(rng);
        let n = rng.range_usize(0, 3000);
        let accesses = random_stream(rng, n, 1 << 14);
        let store = TraceStore::unbounded();
        seed_store(&store, Workload::Rewrite.scaled(1), &accesses);
        assert_hits_match(&store, jobs, block_events, &accesses);
        assert_eq!(store.stats().hits, 2, "both passes replayed");
    });
}

#[test]
fn store_hit_edges_and_spill_loads() {
    // Edge streams, written through to a spill file, each replayed by a
    // restarted store whose first hit loads the file.
    let dir = std::env::temp_dir().join(format!("cachegc_hit_prop_{}", std::process::id()));
    let w = Workload::Rewrite.scaled(1);
    for n in [1usize, 63, 64, 65, 1000] {
        let _ = std::fs::remove_dir_all(&dir);
        let accesses = stride_stream(n);
        seed_store(
            &TraceStore::unbounded().with_spill(dir.clone()),
            w,
            &accesses,
        );
        for jobs in [1usize, 2, 3, 4] {
            for block_events in [1usize, 63, 65] {
                let store = TraceStore::unbounded().with_spill(dir.clone());
                assert_hits_match(&store, jobs, block_events, &accesses);
                let s = store.stats();
                assert_eq!((s.spill_loads, s.hits, s.misses), (1, 2, 0), "n={n}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Trace codec: record then replay is the identity
// ---------------------------------------------------------------------

/// Collects every event verbatim, for comparing replayed streams.
struct Collect(Vec<Access>);

impl TraceSink for Collect {
    fn access(&mut self, a: Access) {
        self.0.push(a);
    }
}

/// Adversarial streams for the delta-varint codec: runs of local deltas
/// (the common case the encoding targets) interleaved with full-range
/// address jumps, `u32`-wraparound deltas, deltas of every magnitude
/// (every token length, 1 to 5 bytes), dense per-event flag flips
/// (worst case for the flags byte), and long constant-flag `alloc_init`
/// runs (best case for the run-length side).
fn gen_codec_stream(rng: &mut Rng) -> Vec<Access> {
    let mut out = Vec::new();
    let mut addr: u32 = rng.range_u32(0, u32::MAX);
    for _ in 0..rng.range_usize(1, 10) {
        let mode = rng.range_u32(0, 5);
        for i in 0..rng.range_usize(1, 150) as u32 {
            addr = match mode {
                0 => addr.wrapping_add(rng.range_u32(0, 256) * 4),
                1 => rng.range_u32(0, u32::MAX),
                2 => addr.wrapping_add(u32::MAX - rng.range_u32(0, 8) * 4),
                4 => addr.wrapping_add(rng.next_u32() >> rng.range_u32(0, 32)),
                _ => addr.wrapping_add(4),
            };
            out.push(match mode {
                // Dense flips: the flags byte changes on every event.
                1 | 2 => {
                    let ctx = if i % 2 == 0 {
                        Context::Mutator
                    } else {
                        Context::Collector
                    };
                    if i % 4 < 2 {
                        Access::read(addr, ctx)
                    } else {
                        Access::write(addr, ctx)
                    }
                }
                // Long constant runs: alloc-init stores, flags never change.
                3 => Access::alloc_write(addr, Context::Mutator),
                _ => {
                    if rng.bool() {
                        Access::read(addr, Context::Mutator)
                    } else {
                        Access::write(addr, Context::Collector)
                    }
                }
            });
        }
    }
    out
}

#[test]
fn trace_codec_roundtrips_adversarial_streams() {
    check("trace_codec_roundtrip", 64, |rng| {
        let events = gen_codec_stream(rng);
        // Tiny random segment sizes force decoder state to carry across
        // many segment boundaries.
        let seg = rng.range_usize(16, 4096);
        let mut rec = Recorder::new().with_segment_bytes(seg);
        for &a in &events {
            rec.access(a);
        }
        let trace = rec.finish().expect("unbounded recorder never overflows");
        assert_eq!(trace.events(), events.len() as u64);
        let segments: Vec<Vec<u8>> = trace.payload_chunks().map(<[u8]>::to_vec).collect();
        assert_eq!(
            segments,
            reference_segments(&events, seg),
            "the recorder writes the reference encoder's segments"
        );
        let mut seq = Collect(Vec::new());
        trace.replay(&mut seq);
        assert_eq!(seq.0, events, "sequential replay is the identity");
    });
}

/// The reference encoder: the codec written as a loop over LEB128
/// groups, sealing a segment at the first event boundary at or past
/// `segment_bytes`. The recorder must write exactly these bytes.
fn reference_segments(events: &[Access], segment_bytes: usize) -> Vec<Vec<u8>> {
    let mut segments = Vec::new();
    let mut cur = Vec::new();
    let (mut prev_addr, mut prev_flags) = (0u32, 0u8);
    for a in events {
        let flags = u8::from(a.kind == AccessKind::Write)
            | (u8::from(a.ctx == Context::Collector) << 1)
            | (u8::from(a.alloc_init) << 2);
        let delta = a.addr.wrapping_sub(prev_addr) as i32;
        let zigzag = ((delta << 1) ^ (delta >> 31)) as u32;
        let changed = flags != prev_flags;
        let mut token = (u64::from(zigzag) << 1) | u64::from(changed);
        while token >= 0x80 {
            cur.push(token as u8 | 0x80);
            token >>= 7;
        }
        cur.push(token as u8);
        if changed {
            cur.push(flags);
        }
        (prev_addr, prev_flags) = (a.addr, flags);
        if cur.len() >= segment_bytes {
            segments.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        segments.push(cur);
    }
    segments
}

/// A byte budget for one recorder: refuses a charge past `cap` and
/// checks that nothing is released that was not charged.
struct Ledger {
    cap: u64,
    outstanding: std::sync::Mutex<u64>,
}

impl Ledger {
    fn new(cap: u64) -> std::sync::Arc<Ledger> {
        std::sync::Arc::new(Ledger {
            cap,
            outstanding: std::sync::Mutex::new(0),
        })
    }

    fn outstanding(&self) -> u64 {
        *self.outstanding.lock().unwrap()
    }
}

impl RecordBudget for Ledger {
    fn try_charge(&self, n: u64) -> bool {
        let mut out = self.outstanding.lock().unwrap();
        if out.saturating_add(n) > self.cap {
            return false;
        }
        *out += n;
        true
    }

    fn release(&self, n: u64) {
        let mut out = self.outstanding.lock().unwrap();
        assert!(*out >= n, "released {n} bytes with only {out} charged");
        *out -= n;
    }
}

#[test]
fn recorder_overflows_exactly_past_its_limit_or_budget() {
    check("recorder_limit_oracle", 64, |rng| {
        let events = gen_codec_stream(rng);
        let seg = rng.range_usize(16, 4096);
        let total: u64 = reference_segments(&events, seg)
            .iter()
            .map(|s| s.len() as u64)
            .sum();
        let anywhere = rng.range_usize(0, 2 * total as usize + 1) as u64;
        let cap = *rng.choose(&[0, total - 1, total, total + 1, anywhere]);
        let over = total > cap;

        let mut rec = Recorder::with_limit(cap).with_segment_bytes(seg);
        for &a in &events {
            rec.access(a);
        }
        assert_eq!(rec.overflowed(), over, "limit {cap}, encoded total {total}");
        assert_eq!(rec.events(), events.len() as u64, "every event counts");
        assert_eq!(rec.bytes(), if over { 0 } else { total });
        assert_eq!(rec.finish().map(|t| t.bytes()), (!over).then_some(total));

        // A budget of the same size refuses exactly the same streams, and
        // its charges end as the trace's bytes, or as nothing.
        let budget = Ledger::new(cap);
        let mut rec = Recorder::new()
            .with_segment_bytes(seg)
            .with_budget(budget.clone());
        for &a in &events {
            rec.access(a);
            assert!(rec.overflowed() || rec.charged() >= rec.bytes());
        }
        assert_eq!(
            rec.overflowed(),
            over,
            "budget {cap}, encoded total {total}"
        );
        assert_eq!(rec.events(), events.len() as u64, "every event counts");
        if over {
            assert_eq!(budget.outstanding(), 0, "overflow released every charge");
            assert!(rec.finish().is_none());
        } else {
            let trace = rec.finish().expect("the stream fits its budget");
            assert_eq!(trace.bytes(), total);
            assert_eq!(
                budget.outstanding(),
                total,
                "finish keeps the bytes charged"
            );
        }
    });
}

/// A store miss's recorder is one more reader of the live feed. Fed any
/// stream in blocks of any size beside one to four other readers, it
/// writes exactly the bytes of a recorder fed the stream directly; with a
/// budget that runs out anywhere mid-stream it abandons the capture and
/// returns every charge, while the other readers still get every event.
#[test]
fn the_feed_recorder_writes_the_direct_recorders_bytes_or_abandons_cleanly() {
    check("feed_recorder_oracle", 48, |rng| {
        let events = gen_codec_stream(rng);
        let block_events = block_events(rng);
        let readers = rng.range_usize(1, 5);
        let mut direct = Recorder::new();
        events.iter().for_each(|&a| direct.access(a));
        let direct = direct.finish().expect("unbounded recorder never overflows");
        let cap = rng.range_usize(0, direct.bytes() as usize) as u64;
        for budget in [None, Some(Ledger::new(cap))] {
            let recorder = match &budget {
                Some(budget) => Recorder::new().with_budget(budget.clone()),
                None => Recorder::new(),
            };
            let (mut writer, feeds, recording) = feed(readers, block_events, Some(recorder));
            let recording = recording.expect("a recorder was given");
            std::thread::scope(|s| {
                let got: Vec<_> = feeds
                    .into_iter()
                    .map(|mut reader| {
                        s.spawn(move || {
                            let mut out = Collect(Vec::new());
                            reader.replay(&mut out);
                            out.0
                        })
                    })
                    .collect();
                let recorder = s.spawn(move || recording.run());
                events.iter().for_each(|&a| writer.access(a));
                assert_eq!(writer.finish().events, events.len() as u64);
                for reader in got {
                    assert_eq!(reader.join().unwrap(), events, "a reader got every event");
                }
                let recorder = recorder.join().unwrap();
                assert_eq!(recorder.events(), events.len() as u64, "every event counts");
                match &budget {
                    None => {
                        let trace = recorder.finish().expect("unbounded");
                        assert_eq!(
                            trace.payload_chunks().collect::<Vec<_>>(),
                            direct.payload_chunks().collect::<Vec<_>>(),
                            "{block_events}-event blocks"
                        );
                    }
                    Some(budget) => {
                        assert!(recorder.overflowed(), "budget {cap} of {}", direct.bytes());
                        assert!(recorder.finish().is_none());
                        assert_eq!(budget.outstanding(), 0, "every charge returned");
                    }
                }
            });
        }
    });
}

/// An order-sensitive hash of a stream: FNV-1a over every event's
/// address and flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StreamHash(u64);

impl TraceSink for StreamHash {
    fn access(&mut self, a: Access) {
        let flags = [
            a.kind == AccessKind::Write,
            a.ctx == Context::Collector,
            a.alloc_init,
        ];
        for b in a.addr.to_le_bytes().into_iter().chain(flags.map(u8::from)) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The store-miss path of a real run, on crews of one to four readers:
/// the sinks equal the oracle's, and the store keeps exactly the bytes a
/// recorder fed the run directly writes. A budget that runs out
/// mid-stream keeps nothing and leaves nothing reserved, and the sinks
/// still see every event.
#[test]
fn store_misses_keep_the_direct_recorders_bytes_or_nothing() {
    let w = Workload::Prove.scaled(1);
    let sinks = || vec![StreamHash(0xcbf2_9ce4_8422_2325); 4];
    let oracle = w
        .run(NoCollector::new(), (Fanout::new(sinks()), Recorder::new()))
        .unwrap()
        .sink;
    let (expected, direct) = (oracle.0.into_sinks(), oracle.1.finish().unwrap());
    for (jobs, block_events) in [(1, 1000), (2, 4099), (3, 32 * 1024), (4, 777)] {
        let store = TraceStore::unbounded();
        let runner = Runner::new(EngineConfig::jobs(jobs)).with_block_events(block_events);
        let (_, got) = runner.with_store(&store).sinks(w, None, sinks()).unwrap();
        assert_eq!(got, expected, "jobs {jobs}, {block_events}-event blocks");
        let Acquired::Hit { trace, .. } = store.acquire(w, None) else {
            panic!("the miss stored its capture");
        };
        assert_eq!(trace.trace.events(), direct.events());
        assert!(
            trace.trace.payload_chunks().eq(direct.payload_chunks()),
            "jobs {jobs}: the stored payload is the direct recorder's"
        );
    }
    let store = TraceStore::with_budget(direct.bytes() / 2);
    let runner = Runner::new(EngineConfig::jobs(2)).with_block_events(1000);
    let (_, got) = runner.with_store(&store).sinks(w, None, sinks()).unwrap();
    assert_eq!(got, expected, "the readers got every event");
    let s = store.stats();
    assert_eq!((s.entries, s.over_budget, s.reserved), (0, 1, 0));
}

// ---------------------------------------------------------------------
// Tagged values and headers
// ---------------------------------------------------------------------

#[test]
fn fixnum_roundtrip() {
    check("fixnum_roundtrip", 256, |rng| {
        let n = rng.range_i32(-(1 << 29), 1 << 29);
        assert_eq!(Value::fixnum(n).as_fixnum(), n);
    });
}

#[test]
fn pointer_roundtrip() {
    check("pointer_roundtrip", 256, |rng| {
        let addr = rng.range_u32(DYNAMIC_BASE / 4, 0x4000_0000 / 4) * 4;
        let v = Value::ptr(addr);
        assert!(v.is_ptr() && !v.is_fixnum());
        assert_eq!(v.addr(), addr);
    });
}

#[test]
fn header_roundtrip() {
    check("header_roundtrip", 256, |rng| {
        let len = rng.range_u32(0, Header::MAX_LEN);
        let kind = *rng.choose(&ObjKind::ALL);
        let h = Header::from_bits(Header::new(kind, len).bits());
        assert_eq!(h.kind(), kind);
        assert_eq!(h.len(), len);
        // Headers are never valid first-class values.
        let v = Value::from_bits(h.bits());
        assert!(!v.is_ptr() && !v.is_fixnum());
    });
}

// ---------------------------------------------------------------------
// Collectors preserve the reachable graph
// ---------------------------------------------------------------------

/// A random object graph; object i may point at objects j < i.
#[derive(Debug, Clone)]
struct GraphSpec {
    nodes: Vec<Vec<Option<usize>>>, // per node: payload slots (None = fixnum)
    roots: Vec<usize>,
}

fn gen_graph(rng: &mut Rng) -> GraphSpec {
    let n = rng.range_usize(1, 60);
    let nodes = (0..n)
        .map(|i| {
            let slots = rng.range_usize(1, 4);
            (0..slots)
                .map(|_| {
                    if i > 0 && rng.bool() {
                        Some(rng.range_usize(0, i))
                    } else {
                        None
                    }
                })
                .collect()
        })
        .collect();
    let roots = (0..rng.range_usize(1, 4))
        .map(|_| rng.range_usize(0, n))
        .collect();
    GraphSpec { nodes, roots }
}

fn build_graph(heap: &mut Heap, spec: &GraphSpec) -> Vec<Value> {
    let mut sink = NullSink;
    let mut objs: Vec<Value> = Vec::new();
    for (i, slots) in spec.nodes.iter().enumerate() {
        let payload: Vec<Value> = slots
            .iter()
            .map(|s| match s {
                Some(j) => objs[*j],
                None => Value::fixnum(i as i32),
            })
            .collect();
        let obj = heap
            .alloc(ObjKind::Vector, &payload, Context::Mutator, &mut sink)
            .unwrap();
        objs.push(obj);
    }
    spec.roots.iter().map(|&r| objs[r]).collect()
}

/// A canonical fingerprint of the graph reachable from `roots`:
/// depth-first, with back-edges encoded by discovery index.
fn fingerprint(heap: &Heap, roots: &[Value]) -> Vec<i64> {
    fn go(heap: &Heap, v: Value, seen: &mut HashMap<u32, i64>, out: &mut Vec<i64>) {
        if v.is_fixnum() {
            out.push(v.as_fixnum() as i64);
            return;
        }
        let addr = v.addr();
        if let Some(&id) = seen.get(&addr) {
            out.push(-1000 - id);
            return;
        }
        let id = seen.len() as i64;
        seen.insert(addr, id);
        let h = Header::from_bits(heap.peek(addr));
        out.push(-1 - h.len() as i64);
        for i in 0..h.len() {
            go(
                heap,
                Value::from_bits(heap.peek(addr + 4 + 4 * i)),
                seen,
                out,
            );
        }
    }
    let mut seen = HashMap::new();
    let mut out = Vec::new();
    for &r in roots {
        go(heap, r, &mut seen, &mut out);
    }
    out
}

#[test]
fn cheney_preserves_reachable_graph() {
    check("cheney_preserves_reachable_graph", 64, |rng| {
        let spec = gen_graph(rng);
        let mut heap = Heap::new(HeapConfig::semispaces(1 << 20));
        let mut gc = CheneyCollector::new(1 << 20);
        gc.install(&mut heap);
        let mut roots_v = build_graph(&mut heap, &spec);
        let before = fingerprint(&heap, &roots_v);
        let mut roots = Roots::registers_only(&mut roots_v);
        gc.collect(&mut heap, &mut roots, &mut Counters::new(), &mut NullSink);
        let after = fingerprint(&heap, &roots_v);
        assert_eq!(before, after);
        // Compaction: everything live is packed at the bottom; a second
        // collection copies exactly the same number of bytes.
        let live = heap.dynamic_used();
        let copied_once = gc.stats().bytes_copied;
        let mut roots = Roots::registers_only(&mut roots_v);
        gc.collect(&mut heap, &mut roots, &mut Counters::new(), &mut NullSink);
        assert_eq!(heap.dynamic_used(), live);
        assert_eq!(gc.stats().bytes_copied - copied_once, live as u64);
    });
}

#[test]
fn generational_preserves_reachable_graph() {
    check("generational_preserves_reachable_graph", 64, |rng| {
        let spec = gen_graph(rng);
        let mut heap = Heap::new(HeapConfig::unbounded());
        let mut gc = GenerationalCollector::new(1 << 16, 1 << 20);
        gc.install(&mut heap);
        let mut roots_v = build_graph(&mut heap, &spec);
        let before = fingerprint(&heap, &roots_v);
        let mut roots = Roots::registers_only(&mut roots_v);
        gc.collect(&mut heap, &mut roots, &mut Counters::new(), &mut NullSink);
        assert_eq!(before, fingerprint(&heap, &roots_v));
    });
}

#[test]
fn immix_preserves_reachable_graph() {
    check("immix_preserves_reachable_graph", 64, |rng| {
        let spec = gen_graph(rng);
        let mut heap = Heap::new(HeapConfig::unbounded());
        let mut gc = ImmixCollector::new(1 << 20);
        gc.install(&mut heap);
        assert!(gc.prepare_alloc(&mut heap, 16, &mut NullSink));
        let mut roots_v = build_graph(&mut heap, &spec);
        let before = fingerprint(&heap, &roots_v);
        let mut roots = Roots::registers_only(&mut roots_v);
        gc.collect(&mut heap, &mut roots, &mut Counters::new(), &mut NullSink);
        assert_eq!(before, fingerprint(&heap, &roots_v));
        // A second collection marks the same live set and moves nothing
        // new: the graph survives repeated collections unchanged.
        let mut roots = Roots::registers_only(&mut roots_v);
        gc.collect(&mut heap, &mut roots, &mut Counters::new(), &mut NullSink);
        assert_eq!(before, fingerprint(&heap, &roots_v));
    });
}

#[test]
fn marksweep_preserves_reachable_graph_without_motion() {
    check("marksweep_preserves_reachable_graph", 64, |rng| {
        let spec = gen_graph(rng);
        let mut heap = Heap::new(HeapConfig::unbounded());
        let mut gc = MarkSweepCollector::new(1 << 20);
        gc.install(&mut heap);
        let mut roots_v = build_graph(&mut heap, &spec);
        let addrs_before: Vec<u32> = roots_v.iter().map(|v| v.addr()).collect();
        let before = fingerprint(&heap, &roots_v);
        let mut roots = Roots::registers_only(&mut roots_v);
        gc.collect(&mut heap, &mut roots, &mut Counters::new(), &mut NullSink);
        assert_eq!(before, fingerprint(&heap, &roots_v));
        let addrs_after: Vec<u32> = roots_v.iter().map(|v| v.addr()).collect();
        assert_eq!(addrs_before, addrs_after, "mark-sweep never moves objects");
        assert_eq!(heap.gc_epoch(), 0, "no motion, no rehash epoch");
    });
}

/// Collects the raw trace a collection emits, for byte-for-byte
/// determinism comparisons (the PR 1 generational bug was a HashSet
/// drain that reordered remembered-set scans between identical runs).
fn collection_trace<C: Collector>(mut gc: C, spec: &GraphSpec, prepare: bool) -> Vec<Access> {
    let mut heap = Heap::new(HeapConfig::unbounded());
    gc.install(&mut heap);
    if prepare {
        assert!(gc.prepare_alloc(&mut heap, 16, &mut NullSink));
    }
    let mut roots_v = build_graph(&mut heap, spec);
    let mut sink = Collect(Vec::new());
    let mut roots = Roots::registers_only(&mut roots_v);
    gc.collect(&mut heap, &mut roots, &mut Counters::new(), &mut sink);
    // Collect again so span reuse, line marks, and evacuation-candidate
    // selection from the first cycle feed the second.
    let mut roots = Roots::registers_only(&mut roots_v);
    gc.collect(&mut heap, &mut roots, &mut Counters::new(), &mut sink);
    sink.0
}

#[test]
fn new_collectors_trace_deterministically() {
    check("new_collectors_trace_deterministically", 32, |rng| {
        let spec = gen_graph(rng);
        let a = collection_trace(ImmixCollector::new(1 << 20), &spec, true);
        let b = collection_trace(ImmixCollector::new(1 << 20), &spec, true);
        assert_eq!(a, b, "immix collection traffic is bit-deterministic");
        let a = collection_trace(MarkSweepCollector::new(1 << 20), &spec, false);
        let b = collection_trace(MarkSweepCollector::new(1 << 20), &spec, false);
        assert_eq!(a, b, "mark-sweep collection traffic is bit-deterministic");
    });
}

#[test]
fn allocation_is_contiguous() {
    check("allocation_is_contiguous", 64, |rng| {
        let sizes: Vec<u32> = (0..rng.range_usize(1, 50))
            .map(|_| rng.range_u32(0, 20))
            .collect();
        let mut heap = Heap::new(HeapConfig::unbounded());
        let mut sink = NullSink;
        let mut expected = DYNAMIC_BASE;
        for len in sizes {
            let v = heap
                .alloc_vector(len, Value::nil(), Context::Mutator, &mut sink)
                .unwrap();
            assert_eq!(v.addr(), expected);
            expected += 4 * (len + 1);
        }
        assert_eq!(heap.dynamic_used(), expected - DYNAMIC_BASE);
    });
}

// ---------------------------------------------------------------------
// Reader / printer and the VM against Rust arithmetic
// ---------------------------------------------------------------------

fn gen_symbol(rng: &mut Rng) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
    let mut s = String::new();
    s.push(*rng.choose(FIRST) as char);
    for _ in 0..rng.range_usize(0, 9) {
        s.push(*rng.choose(REST) as char);
    }
    s
}

fn gen_string(rng: &mut Rng) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
    (0..rng.range_usize(0, 11))
        .map(|_| *rng.choose(CHARS) as char)
        .collect()
}

fn gen_sexp(rng: &mut Rng, depth: usize) -> Sexp {
    if depth > 0 && rng.range_u32(0, 3) == 0 {
        let n = rng.range_usize(0, 6);
        return Sexp::List((0..n).map(|_| gen_sexp(rng, depth - 1)).collect());
    }
    match rng.range_u32(0, 6) {
        0 => Sexp::Sym(gen_symbol(rng)),
        1 => Sexp::Int(rng.range_i32(i32::MIN, i32::MAX) as i64),
        2 => Sexp::Float(rng.range_f64(-1e9, 1e9)),
        3 => Sexp::Str(gen_string(rng)),
        4 => Sexp::Char((b'a' + rng.range_u32(0, 26) as u8) as char),
        _ => Sexp::Bool(rng.bool()),
    }
}

#[test]
fn reader_printer_roundtrip() {
    check("reader_printer_roundtrip", 64, |rng| {
        let sexp = gen_sexp(rng, 4);
        let printed = sexp.to_string();
        let reread = read(&printed).unwrap();
        assert_eq!(reread.len(), 1, "{printed}");
        assert_eq!(&reread[0], &sexp, "{printed}");
    });
}

#[derive(Debug, Clone)]
enum Arith {
    Lit(i32),
    Add(Box<Arith>, Box<Arith>),
    Sub(Box<Arith>, Box<Arith>),
    Mul(Box<Arith>, Box<Arith>),
}

impl Arith {
    fn to_scheme(&self) -> String {
        match self {
            Arith::Lit(n) => n.to_string(),
            Arith::Add(a, b) => format!("(+ {} {})", a.to_scheme(), b.to_scheme()),
            Arith::Sub(a, b) => format!("(- {} {})", a.to_scheme(), b.to_scheme()),
            Arith::Mul(a, b) => format!("(* {} {})", a.to_scheme(), b.to_scheme()),
        }
    }

    fn eval(&self) -> i64 {
        match self {
            Arith::Lit(n) => *n as i64,
            Arith::Add(a, b) => a.eval() + b.eval(),
            Arith::Sub(a, b) => a.eval() - b.eval(),
            Arith::Mul(a, b) => a.eval() * b.eval(),
        }
    }
}

fn gen_arith(rng: &mut Rng, depth: usize) -> Arith {
    if depth == 0 || rng.range_u32(0, 3) == 0 {
        return Arith::Lit(rng.range_i32(-50, 50));
    }
    let a = Box::new(gen_arith(rng, depth - 1));
    let b = Box::new(gen_arith(rng, depth - 1));
    match rng.range_u32(0, 3) {
        0 => Arith::Add(a, b),
        1 => Arith::Sub(a, b),
        _ => Arith::Mul(a, b),
    }
}

#[test]
fn vm_arithmetic_matches_rust() {
    check("vm_arithmetic_matches_rust", 48, |rng| {
        let expr = gen_arith(rng, 4);
        let expected = expr.eval();
        if expected.abs() >= 1 << 29 {
            return; // stay in fixnum range
        }
        let mut m = Machine::new(NoCollector::new(), NullSink);
        let v = m.run_program(&expr.to_scheme()).unwrap();
        assert_eq!(v.as_fixnum() as i64, expected);
    });
}

#[test]
fn vm_results_are_gc_invariant() {
    // The same program under a tiny-nursery collector gives the same
    // answer as without collection.
    check("vm_results_are_gc_invariant", 16, |rng| {
        let expr = gen_arith(rng, 4);
        if expr.eval().abs() >= 1 << 29 {
            return;
        }
        let src = format!(
            "(define (waste n) (if (zero? n) 0 (begin (cons 1 2) (waste (- n 1)))))
             (waste 2000)
             {}",
            expr.to_scheme()
        );
        let mut a = Machine::new(NoCollector::new(), NullSink);
        let va = a.run_program(&src).unwrap();
        let mut b = Machine::new(GenerationalCollector::new(1 << 13, 1 << 20), NullSink);
        let vb = b.run_program(&src).unwrap();
        assert_eq!(va.as_fixnum(), vb.as_fixnum());
    });
}

// ---------------------------------------------------------------------
// Readers of the files the program writes: error on bad input, never panic
// ---------------------------------------------------------------------

/// One valid document per reader: a run manifest, a timeline JSONL
/// stream, a Chrome trace and a checked-in golden CSV.
fn valid_documents() -> (String, String, String, String) {
    use cachegc::core::{
        chrome_trace_json, Acquired, Manifest, ManifestConfig, Telemetry, TimelineRecorder,
        TimelineSpec, TraceStore,
    };
    use cachegc::telemetry::{probe, Counter, EngineReport, WorkerStats};
    use cachegc::workloads::Workload;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let telemetry = Arc::new(Telemetry::with_spans());
    {
        let _worker = telemetry.attach_named("worker-0");
        probe::count(Counter::VmRuns, 1);
        probe::count(Counter::GcMinorCollections, 1);
        drop(probe::phase("gc_minor"));
        drop(probe::phase_cpu("vm_execute"));
        probe::span("replay_shard", "packet", Instant::now());
    }
    telemetry.record_engine(&EngineReport {
        kind: "replay_shard",
        jobs: 2,
        sinks: 3,
        chunks_published: 4,
        events_published: 400,
        backpressure_ns: 5,
        queue_depth_hwm: 2,
        workers: vec![WorkerStats::default(); 2],
    });
    let store = TraceStore::unbounded();
    let w = Workload::Rewrite.scaled(1);
    let Acquired::Miss(ticket) = store.acquire(w, None) else {
        panic!("an empty store misses");
    };
    let mut rec = ticket.recorder();
    rec.access(Access::read(DYNAMIC_BASE, Context::Mutator));
    ticket.offer(rec, Default::default(), Duration::ZERO);
    let snapshot = telemetry.snapshot();
    let manifest = Manifest::gather(
        ManifestConfig {
            experiment: "e4_write_policy".into(),
            scale: 1,
            jobs: 2,
            jobs_requested: 2,
            trace_cache: "on".into(),
        },
        &snapshot,
        Some(&store),
    )
    .to_json();

    let timeline = TimelineRecorder::new(TimelineSpec {
        cache: CacheConfig::direct_mapped(1 << 14, 32),
        window_events: 64,
    });
    let mut tap = timeline.tap();
    for i in 0..400u32 {
        let ctx = if i % 200 >= 180 {
            Context::Collector
        } else {
            Context::Mutator
        };
        tap.access(Access::read(DYNAMIC_BASE + (i % 150) * 44, ctx));
    }
    timeline.commit("rewrite@1", tap);

    (
        manifest,
        timeline.to_jsonl("e4_write_policy"),
        chrome_trace_json(&snapshot),
        include_str!("../results/expected/e5_gc_overhead__ogc.csv").to_string(),
    )
}

/// A random corruption of `doc`: up to three byte edits (overwrite,
/// delete, insert, truncate, duplicate a span), then up to three
/// numbers replaced by `u64::MAX`, so sums of forged fields overflow.
fn mutate(rng: &mut Rng, doc: &str) -> String {
    const BYTES: &[u8] = b"{}[]\",:-.0123456789eE \n";
    let mut bytes = doc.as_bytes().to_vec();
    for _ in 0..rng.range_usize(0, 4) {
        let at = rng.range_usize(0, bytes.len() + 1);
        match rng.range_u32(0, 5) {
            0 if at < bytes.len() => bytes[at] = *rng.choose(BYTES),
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            2 => bytes.insert(at, *rng.choose(BYTES)),
            3 => bytes.truncate(at),
            _ => {
                let end = (at + rng.range_usize(1, 64)).min(bytes.len());
                let span = bytes[at..end].to_vec();
                bytes.splice(at..at, span);
            }
        }
    }
    for _ in 0..rng.range_usize(0, 4) {
        let starts: Vec<usize> = (0..bytes.len())
            .filter(|&i| bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit()))
            .collect();
        if starts.is_empty() {
            break;
        }
        let start = *rng.choose(&starts);
        let end = (start..bytes.len())
            .find(|&i| !bytes[i].is_ascii_digit())
            .unwrap_or(bytes.len());
        bytes.splice(start..end, b"18446744073709551615".iter().copied());
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn readers_reject_corrupt_documents_without_panicking() {
    use cachegc::core::report::Table;
    use cachegc::core::{validate_chrome_trace, validate_manifest, validate_timeline};
    use cachegc_bench::golden::check_manifest;

    let (manifest, timeline, chrome, csv) = valid_documents();
    validate_manifest(&manifest).unwrap();
    validate_timeline(&timeline).unwrap();
    validate_chrome_trace(&chrome).unwrap();
    Table::from_csv("ogc", &csv).unwrap();
    check("readers_never_panic", 256, |rng| {
        // A panic inside `check` fails the property with its seed.
        let _ = validate_manifest(&mutate(rng, &manifest));
        let _ = check_manifest(&mutate(rng, &manifest));
        let _ = validate_timeline(&mutate(rng, &timeline));
        let _ = validate_chrome_trace(&mutate(rng, &chrome));
        let _ = Table::from_csv("ogc", &mutate(rng, &csv));
    });
}

// ---------------------------------------------------------------------
// Spill segments: a corrupt file is rejected or replays whole, never panics
// ---------------------------------------------------------------------

/// FNV-1a 64, the checksum that seals a spill segment file.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn spill_segments_reject_corruption_without_panicking() {
    use cachegc::core::{Acquired, HitSource, TraceStore};
    use cachegc::trace::RefCounter;
    use cachegc::workloads::Workload;
    use std::time::Duration;

    let dir = std::env::temp_dir().join(format!("cachegc_spill_prop_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let w = Workload::Rewrite.scaled(1);
    let label = "rewrite@1";
    // A real capture, written through by the store: monotone walks, long
    // jumps (multi-byte tokens) and flag flips (flags bytes).
    {
        let store = TraceStore::unbounded().with_spill(dir.clone());
        let Acquired::Miss(ticket) = store.acquire(w, None) else {
            panic!("an empty store misses");
        };
        let mut rec = ticket.recorder();
        let mut rng = Rng::new(0x5eed);
        let mut addr = DYNAMIC_BASE;
        for _ in 0..4000 {
            addr = match rng.range_u32(0, 4) {
                0 => rng.next_u32(),
                _ => addr.wrapping_add(4),
            };
            let ctx = if rng.range_u32(0, 8) == 0 {
                Context::Collector
            } else {
                Context::Mutator
            };
            rec.access(match rng.range_u32(0, 3) {
                0 => Access::read(addr, ctx),
                1 => Access::write(addr, ctx),
                _ => Access::alloc_write(addr, ctx),
            });
        }
        ticket.offer(rec, Default::default(), Duration::ZERO);
        assert_eq!(store.stats().spills, 1, "the capture wrote through");
    }
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "seg"))
        .expect("one segment file");
    let pristine = std::fs::read(&seg).unwrap();
    // Header: magic 8, label_len 4, label, then events, 13 stats words
    // and the payload length, one u64 each.
    let events_at = 12 + label.len();
    let words: Vec<usize> = (0..15).map(|i| events_at + 8 * i).collect();

    check("spill_segments_never_panic", 128, |rng| {
        let mut bytes = pristine.clone();
        for _ in 0..rng.range_usize(1, 4) {
            match rng.range_u32(0, 3) {
                0 if !bytes.is_empty() => {
                    let at = rng.range_usize(0, bytes.len());
                    bytes[at] ^= rng.range_u32(1, 256) as u8;
                }
                1 => bytes.truncate(rng.range_usize(0, bytes.len() + 1)),
                _ => {
                    // The label length, or one of the u64 header words.
                    let (at, width) = match rng.range_usize(0, words.len() + 1) {
                        0 => (8, 4),
                        i => (words[i - 1], 8),
                    };
                    if at + width <= bytes.len() {
                        bytes[at..at + width].fill(0xff);
                    }
                }
            }
        }
        // Half the cases re-seal the checksum, so the corruption reaches
        // the label, length and decode checks behind it.
        if rng.bool() && bytes.len() >= 8 {
            let body = bytes.len() - 8;
            let sum = fnv1a(&bytes[..body]);
            bytes[body..].copy_from_slice(&sum.to_le_bytes());
        }
        std::fs::write(&seg, &bytes).unwrap();

        let store = TraceStore::unbounded().with_spill(dir.clone());
        match store.acquire(w, None) {
            Acquired::Hit { trace, source } => {
                assert_eq!(source, HitSource::SpillLoad);
                let header =
                    u64::from_le_bytes(bytes[events_at..events_at + 8].try_into().unwrap());
                let mut counted = RefCounter::new();
                trace.trace.replay(&mut counted);
                assert_eq!(trace.trace.events(), header);
                assert_eq!(counted.total(), header, "replays its header's event count");
            }
            Acquired::Miss(_) => {
                let s = store.stats();
                assert_eq!((s.spill_rejects, s.spill_loads, s.misses), (1, 0, 1), "{s}");
            }
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}
