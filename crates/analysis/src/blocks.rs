//! Memory-block behavior tracking (§7).

use cachegc_trace::{Access, Region, TraceSink};

/// Per-memory-block record. A record with `refs == 0` belongs to a block
/// no reference has touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockInfo {
    first: u64,
    last: u64,
    refs: u64,
    last_cycle: u64,
    cycles_active: u32,
    region: Region,
}

impl BlockInfo {
    const UNTOUCHED: BlockInfo = BlockInfo {
        first: 0,
        last: 0,
        refs: 0,
        last_cycle: 0,
        cycles_active: 0,
        region: Region::Static,
    };
}

/// A page holds at least `1 << PAGE_BITS` block records (160 KiB).
const PAGE_BITS: u32 = 12;

/// The page directory has at most `1 << DIR_BITS` entries of 16 bytes
/// (1 MiB), even at 1-byte blocks.
const DIR_BITS: u32 = 16;

/// An online tracker of memory-block behavior.
///
/// Blocks are `block_bytes`-aligned memory regions. Allocation cycles are
/// defined against a reference direct-mapped cache geometry (`cache_bytes`
/// capacity, same block size): each initializing store that reaches a new
/// dynamic memory block is an *allocation miss* and begins a new cycle in
/// the cache block it maps to. A dynamic block whose whole lifetime falls
/// inside its initial cycle is a *one-cycle block* — it is allocated,
/// lives, and dies entirely in the cache (§7).
///
/// Block records live in a paged table indexed by memory-block number
/// (`addr >> log2(block_bytes)`): a directory of fixed-size pages, each
/// allocated when a reference first touches one of its blocks. A
/// program's blocks are dense (static area, stack, allocation wave), so
/// finding a record is address arithmetic, not a hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockTracker {
    shift: u32,
    page_bits: u32,
    cache_mask: u32,
    cycles: Vec<u64>,
    pages: Vec<Option<Box<[BlockInfo]>>>,
    time: u64,
}

impl BlockTracker {
    /// Track blocks of `block_bytes` against a `cache_bytes` reference
    /// cache (the paper's running example is 64 KB with 64-byte blocks).
    ///
    /// # Panics
    ///
    /// Panics unless both sizes are powers of two with
    /// `block_bytes <= cache_bytes`.
    pub fn new(cache_bytes: u32, block_bytes: u32) -> Self {
        assert!(block_bytes.is_power_of_two() && cache_bytes.is_power_of_two());
        assert!(block_bytes <= cache_bytes);
        let shift = block_bytes.trailing_zeros();
        // Memory-block numbers are `32 - shift` bits wide: the high bits
        // pick a directory entry, the low `page_bits` a record in its page.
        let mb_bits = 32 - shift;
        let dir_bits = mb_bits.saturating_sub(PAGE_BITS).min(DIR_BITS);
        let cache_blocks = cache_bytes >> shift;
        BlockTracker {
            shift,
            page_bits: mb_bits - dir_bits,
            cache_mask: cache_blocks - 1,
            cycles: vec![0; cache_blocks as usize],
            pages: vec![None; 1 << dir_bits],
            time: 0,
        }
    }

    /// References seen so far (the analysis' fundamental time unit).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Finish tracking and compute the report.
    pub fn finish(self) -> BlockReport {
        BlockReport::compute(self)
    }

    /// Every touched block's number and record, in address order.
    fn touched(&self) -> impl Iterator<Item = (u32, &BlockInfo)> {
        let page_bits = self.page_bits;
        self.pages.iter().enumerate().flat_map(move |(p, page)| {
            let records = page.as_deref().unwrap_or_default().iter().enumerate();
            records
                .filter(|(_, info)| info.refs > 0)
                .map(move |(slot, info)| ((p << page_bits | slot) as u32, info))
        })
    }
}

/// A page of untouched block records.
#[cold]
fn new_page(page_bits: u32) -> Box<[BlockInfo]> {
    vec![BlockInfo::UNTOUCHED; 1 << page_bits].into_boxed_slice()
}

impl TraceSink for BlockTracker {
    fn access(&mut self, a: Access) {
        self.time += 1;
        let mb = a.addr >> self.shift;
        let cb = (mb & self.cache_mask) as usize;
        let page_bits = self.page_bits;
        let page =
            self.pages[(mb >> page_bits) as usize].get_or_insert_with(|| new_page(page_bits));
        let info = &mut page[(mb & ((1 << page_bits) - 1)) as usize];
        if info.refs == 0 {
            // First touch. An initializing store to a new dynamic block
            // is an allocation miss: the sweep enters this cache block and
            // a new cycle begins there.
            if a.alloc_init {
                self.cycles[cb] += 1;
            }
            *info = BlockInfo {
                first: self.time,
                last: self.time,
                refs: 1,
                last_cycle: self.cycles[cb],
                cycles_active: 1,
                region: Region::of(a.addr),
            };
        } else {
            info.last = self.time;
            info.refs += 1;
            let cycle = self.cycles[cb];
            if cycle != info.last_cycle {
                info.last_cycle = cycle;
                info.cycles_active += 1;
            }
        }
    }
}

/// A block that accounts for at least one thousandth of all references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusyBlock {
    /// Block base address.
    pub addr: u32,
    /// References it received.
    pub refs: u64,
    /// Which population it belongs to.
    pub region: Region,
}

/// The finished §7 behavioral report.
///
/// A report is a function of the reference stream alone: two trackers fed
/// the same stream finish into equal reports. The per-block lists come in
/// a fixed order: `dynamic_lifetimes` and `dynamic_refs` ascending,
/// `multi_cycle_activity` in block address order, and `busy` by `refs`
/// descending with ties in block address order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockReport {
    /// Total references.
    pub total_refs: u64,
    /// Number of dynamic memory blocks touched.
    pub dynamic_blocks: u64,
    /// Number of static memory blocks touched.
    pub static_blocks: u64,
    /// Number of stack memory blocks touched.
    pub stack_blocks: u64,
    /// Dynamic blocks whose lifetime fits in their initial allocation cycle.
    pub one_cycle_dynamic: u64,
    /// Lifetimes (in references) of every dynamic block, sorted ascending.
    pub dynamic_lifetimes: Vec<u64>,
    /// References per dynamic block, sorted ascending.
    pub dynamic_refs: Vec<u64>,
    /// Distinct-active-cycle counts of multi-cycle dynamic blocks, in
    /// block address order.
    pub multi_cycle_activity: Vec<u32>,
    /// Busy blocks (≥ 1/1000 of references), most-referenced first; ties
    /// in block address order.
    pub busy: Vec<BusyBlock>,
}

impl BlockReport {
    fn compute(tracker: BlockTracker) -> BlockReport {
        let total_refs = tracker.time;
        let threshold = total_refs.div_ceil(1000).max(1);
        let mut report = BlockReport {
            total_refs,
            dynamic_blocks: 0,
            static_blocks: 0,
            stack_blocks: 0,
            one_cycle_dynamic: 0,
            dynamic_lifetimes: Vec::new(),
            dynamic_refs: Vec::new(),
            multi_cycle_activity: Vec::new(),
            busy: Vec::new(),
        };
        for (mb, info) in tracker.touched() {
            match info.region {
                Region::Dynamic => {
                    report.dynamic_blocks += 1;
                    report.dynamic_lifetimes.push(info.last - info.first);
                    report.dynamic_refs.push(info.refs);
                    if info.cycles_active == 1 {
                        report.one_cycle_dynamic += 1;
                    } else {
                        report.multi_cycle_activity.push(info.cycles_active);
                    }
                }
                Region::Static => report.static_blocks += 1,
                Region::Stack => report.stack_blocks += 1,
            }
            if info.refs >= threshold {
                report.busy.push(BusyBlock {
                    addr: mb << tracker.shift,
                    refs: info.refs,
                    region: info.region,
                });
            }
        }
        report.dynamic_lifetimes.sort_unstable();
        report.dynamic_refs.sort_unstable();
        // A stable sort: equal counts keep their address order.
        report.busy.sort_by_key(|b| std::cmp::Reverse(b.refs));
        report
    }

    /// Fraction of dynamic blocks with lifetime ≤ `refs` (a point on the
    /// paper's cumulative lifetime distribution).
    pub fn lifetime_cdf(&self, refs: u64) -> f64 {
        if self.dynamic_lifetimes.is_empty() {
            return 0.0;
        }
        let n = self.dynamic_lifetimes.partition_point(|&l| l <= refs);
        n as f64 / self.dynamic_lifetimes.len() as f64
    }

    /// Fraction of dynamic blocks that are one-cycle blocks (the marker on
    /// each curve of the paper's lifetime figure).
    pub fn one_cycle_fraction(&self) -> f64 {
        if self.dynamic_blocks == 0 {
            return 0.0;
        }
        self.one_cycle_dynamic as f64 / self.dynamic_blocks as f64
    }

    /// Fraction of multi-cycle dynamic blocks active in at most `n`
    /// distinct allocation cycles (the paper reports ≥ 0.9 at n = 4).
    pub fn multi_cycle_active_le(&self, n: u32) -> f64 {
        if self.multi_cycle_activity.is_empty() {
            return 1.0;
        }
        let c = self
            .multi_cycle_activity
            .iter()
            .filter(|&&a| a <= n)
            .count();
        c as f64 / self.multi_cycle_activity.len() as f64
    }

    /// Median references per dynamic block (the paper: most dynamic blocks
    /// are referenced between 32 and 63 times with 64-byte blocks).
    pub fn median_dynamic_refs(&self) -> u64 {
        if self.dynamic_refs.is_empty() {
            0
        } else {
            self.dynamic_refs[self.dynamic_refs.len() / 2]
        }
    }

    /// Busy blocks from the static and stack populations.
    pub fn busy_static(&self) -> impl Iterator<Item = &BusyBlock> {
        self.busy.iter().filter(|b| b.region != Region::Dynamic)
    }

    /// Fraction of all references that go to busy blocks (the paper: ~75 %
    /// on average).
    pub fn busy_refs_fraction(&self) -> f64 {
        if self.total_refs == 0 {
            return 0.0;
        }
        let busy: u64 = self.busy.iter().map(|b| b.refs).sum();
        busy as f64 / self.total_refs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegc_trace::{Context, DYNAMIC_BASE, STACK_BASE, STATIC_BASE};

    const M: Context = Context::Mutator;

    #[test]
    fn one_cycle_blocks_are_recognized() {
        // 64-byte blocks, 1 KB cache => 16 cache blocks. Allocate two full
        // sweeps; blocks touched only in their birth cycle are one-cycle.
        let mut t = BlockTracker::new(1024, 64);
        for i in 0..32u32 {
            let base = DYNAMIC_BASE + i * 64;
            t.access(Access::alloc_write(base, M));
            t.access(Access::read(base + 4, M));
        }
        let r = t.finish();
        assert_eq!(r.dynamic_blocks, 32);
        assert_eq!(r.one_cycle_dynamic, 32);
        assert_eq!(r.one_cycle_fraction(), 1.0);
    }

    #[test]
    fn survivors_into_the_next_cycle_are_multi_cycle() {
        let mut t = BlockTracker::new(1024, 64);
        let survivor = DYNAMIC_BASE;
        t.access(Access::alloc_write(survivor, M));
        // Sweep a full cache worth of later allocations (16 blocks), so the
        // allocation pointer revisits survivor's cache block.
        for i in 1..=16u32 {
            t.access(Access::alloc_write(DYNAMIC_BASE + i * 64, M));
        }
        // Touch the survivor again: it is now active in a second cycle.
        t.access(Access::read(survivor + 4, M));
        let r = t.finish();
        assert_eq!(r.dynamic_blocks, 17);
        assert_eq!(r.one_cycle_dynamic, 16);
        assert_eq!(r.multi_cycle_activity, vec![2]);
        assert_eq!(r.multi_cycle_active_le(4), 1.0);
    }

    #[test]
    fn populations_are_classified() {
        let mut t = BlockTracker::new(1024, 64);
        t.access(Access::read(STATIC_BASE, M));
        t.access(Access::write(STACK_BASE, M));
        t.access(Access::alloc_write(DYNAMIC_BASE, M));
        let r = t.finish();
        assert_eq!(
            (r.static_blocks, r.stack_blocks, r.dynamic_blocks),
            (1, 1, 1)
        );
    }

    #[test]
    fn busy_blocks_identified_by_the_millage_rule() {
        let mut t = BlockTracker::new(1024, 64);
        // 2000 refs to one hot static block, 1 ref each to 1000 others.
        for _ in 0..2000 {
            t.access(Access::read(STATIC_BASE, M));
        }
        for i in 0..1000u32 {
            t.access(Access::alloc_write(DYNAMIC_BASE + 64 * i, M));
        }
        let r = t.finish();
        assert_eq!(r.busy.len(), 1);
        assert_eq!(r.busy[0].addr, STATIC_BASE);
        assert_eq!(r.busy[0].region, Region::Static);
        assert!(r.busy_refs_fraction() > 0.6);
        assert_eq!(r.busy_static().count(), 1);
    }

    #[test]
    fn lifetime_cdf_is_monotone() {
        let mut t = BlockTracker::new(1024, 64);
        for i in 0..10u32 {
            t.access(Access::alloc_write(DYNAMIC_BASE + 64 * i, M));
        }
        // Re-read the first block at the end: long lifetime.
        t.access(Access::read(DYNAMIC_BASE, M));
        let r = t.finish();
        assert!(r.lifetime_cdf(0) >= 0.9, "nine blocks die at birth");
        assert_eq!(r.lifetime_cdf(u64::MAX), 1.0);
        assert!(r.lifetime_cdf(5) <= r.lifetime_cdf(50));
    }

    /// A stream with many multi-cycle blocks: an allocation pointer
    /// sweeping a 4 KB cache many times over, pseudo-random re-reads of
    /// earlier blocks, and two equally busy static blocks, the higher one
    /// touched first.
    fn churn(n: u32) -> Vec<Access> {
        let mut x = 0x9e37_79b9u32;
        let mut out = Vec::new();
        for i in 0..n {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            out.push(match i % 4 {
                0 => Access::alloc_write(DYNAMIC_BASE + 32 * i, M),
                1 => Access::read(DYNAMIC_BASE + 32 * (x % (i + 1)), M),
                2 => Access::read(STATIC_BASE + 64 * (1 - i % 8 / 4), M),
                _ => Access::write(STACK_BASE + 4 * (x % 64), M),
            });
        }
        out
    }

    #[test]
    fn reports_are_deterministic_and_in_address_order() {
        let stream = churn(200_000);
        let run = || {
            let mut t = BlockTracker::new(4096, 64);
            stream.iter().for_each(|&a| t.access(a));
            t.finish()
        };
        let (a, b) = (run(), run());
        assert!(a.multi_cycle_activity.len() > 10_000);
        assert_eq!(a, b);
        // The two static blocks tie; the lower address comes first.
        let tied: Vec<_> = a
            .busy_static()
            .filter(|b| b.region == Region::Static)
            .collect();
        assert_eq!(tied.len(), 2);
        assert_eq!(tied[0].refs, tied[1].refs);
        assert_eq!(
            (tied[0].addr, tied[1].addr),
            (STATIC_BASE, STATIC_BASE + 64)
        );
    }

    #[test]
    fn directory_stays_small_and_spans_every_address_at_every_block_size() {
        for shift in 0..32 {
            let mut t = BlockTracker::new(1 << shift, 1 << shift);
            let dir_bytes = t.pages.len() * std::mem::size_of::<Option<Box<[BlockInfo]>>>();
            assert!(
                dir_bytes <= 1 << 20,
                "block {}: {dir_bytes} B",
                1u32 << shift
            );
            t.access(Access::read(0, M));
            t.access(Access::write(u32::MAX - 3, M));
            let r = t.finish();
            assert_eq!((r.static_blocks, r.dynamic_blocks), (1, 1));
            assert_eq!(
                r.busy.last().map(|b| b.addr),
                Some((u32::MAX - 3) >> shift << shift)
            );
        }
    }

    #[test]
    fn median_refs() {
        let mut t = BlockTracker::new(1024, 64);
        for i in 0..4u32 {
            let b = DYNAMIC_BASE + 64 * i;
            t.access(Access::alloc_write(b, M));
            for _ in 0..i {
                t.access(Access::read(b, M));
            }
        }
        let r = t.finish();
        assert_eq!(r.median_dynamic_refs(), 3); // refs: 1,2,3,4 -> index 2
    }
}
