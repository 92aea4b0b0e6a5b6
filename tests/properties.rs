//! Property-based tests of the core data structures and invariants.
//!
//! These use the in-repo [`cachegc::testkit`] driver (a deterministic,
//! dependency-free replacement for `proptest`: the pinned registry crates
//! cannot resolve in hermetic builds). Each property runs over many
//! generated cases; failures report the case seed for replay.

use std::collections::HashMap;

use cachegc::analysis::{ActivityTracker, BlockTracker, Instrument, SweepPlot};
use cachegc::core::{EngineConfig, PacketKind, Runner};
use cachegc::gc::{
    CheneyCollector, Collector, GenerationalCollector, ImmixCollector, MarkSweepCollector,
    NoCollector, Roots,
};
use cachegc::heap::{Header, Heap, HeapConfig, ObjKind, Value};
use cachegc::sim::{Cache, CacheConfig, SetAssocCache, WriteHitPolicy, WriteMissPolicy};
use cachegc::testkit::{check, Rng};
use cachegc::trace::{
    Access, AccessKind, Context, Counters, Fanout, NullSink, Recorder, TraceSink, DYNAMIC_BASE,
};
use cachegc::vm::{read, Machine, Sexp};

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
        assert_eq!(cache.stats().misses(), model.misses);
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
        assert_eq!(dm.stats().fetches(), sa.stats().fetches());
        assert_eq!(dm.stats().misses(), sa.stats().misses());
        assert_eq!(dm.stats().writebacks(), sa.stats().writebacks());
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
        assert_eq!(s.misses(), p.misses());
        assert_eq!(s.writebacks(), p.writebacks());
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
/// workers: the stream is recorded into `segment_bytes`-byte segments,
/// and the crew's readers replay them from the feed into their shards.
fn drive_feed<S: TraceSink + Send>(
    jobs: usize,
    segment_bytes: usize,
    sinks: Vec<S>,
    accesses: &[Access],
) -> Vec<S> {
    let runner = Runner::new(EngineConfig::jobs(jobs)).with_segment_bytes(segment_bytes);
    let ((), out) = runner.drive(PacketKind::Task, sinks, |fan| {
        for &a in accesses {
            fan.access(a);
        }
    });
    out
}

#[test]
fn feed_driven_grid_matches_sequential_fanout() {
    check("feed_grid_equivalence", 48, |rng| {
        // Random crew width and segment size, so segment boundaries and
        // feed backpressure land everywhere relative to the stream.
        let jobs = rng.range_usize(2, 5);
        let segment_bytes = rng.range_usize(16, 4097);
        let n = rng.range_usize(0, 4000);
        let accesses = random_stream(rng, n, 1 << 16);
        let par = drive_feed(jobs, segment_bytes, small_grid(), &accesses);
        assert_cells_identical(fanout(small_grid(), &accesses), par);
    });
}

#[test]
fn feed_segment_boundary_edges() {
    // Deterministic edges: an empty stream, streams shorter than one
    // segment, and streams many segments long, at the smallest segment
    // sizes.
    for n in [0usize, 1, 2, 7, 63, 64, 65, 1000] {
        let accesses = stride_stream(n);
        let expected = fanout(small_grid(), &accesses);
        for jobs in [2usize, 3, 4] {
            for segment_bytes in [16usize, 17, 64] {
                let par = drive_feed(jobs, segment_bytes, small_grid(), &accesses);
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
        let jobs = rng.range_usize(2, 5);
        let segment_bytes = rng.range_usize(16, 4097);
        let n = rng.range_usize(0, 2500);
        let accesses = random_stream(rng, n, 1 << 14);
        let par = drive_feed(jobs, segment_bytes, mixed_instruments(), &accesses);
        assert_eq!(
            fanout(mixed_instruments(), &accesses),
            par,
            "mixed instruments bit-identical at jobs {jobs}, {segment_bytes}-byte segments"
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
        for jobs in [2usize, 6, 16] {
            let par = drive_feed(jobs, 16, mixed_instruments(), &accesses);
            assert_eq!(expected, par, "n={n} jobs={jobs}");
        }
    }
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
/// address jumps, `u32`-wraparound deltas, dense per-event flag flips
/// (worst case for the flags byte), and long constant-flag `alloc_init`
/// runs (best case for the run-length side).
fn gen_codec_stream(rng: &mut Rng) -> Vec<Access> {
    let mut out = Vec::new();
    let mut addr: u32 = rng.range_u32(0, u32::MAX);
    for _ in 0..rng.range_usize(1, 10) {
        let mode = rng.range_u32(0, 4);
        for i in 0..rng.range_usize(1, 150) as u32 {
            addr = match mode {
                0 => addr.wrapping_add(rng.range_u32(0, 256) * 4),
                1 => rng.range_u32(0, u32::MAX),
                2 => addr.wrapping_add(u32::MAX - rng.range_u32(0, 8) * 4),
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
        let mut seq = Collect(Vec::new());
        trace.replay(&mut seq);
        assert_eq!(seq.0, events, "sequential replay is the identity");
    });
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
