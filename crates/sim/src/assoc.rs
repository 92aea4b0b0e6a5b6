//! A set-associative cache with LRU replacement, for ablation against the
//! paper's direct-mapped choice (§4 argues direct-mapped caches are what
//! high-performance machines actually ship).

use cachegc_trace::{Access, TraceSink};

use crate::config::{CacheConfig, WriteHitPolicy, WriteMissPolicy};
use crate::stats::CacheStats;

const EMPTY: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Way {
    tag: u32,
    valid: u64,
    dirty: u64,
    lru: u64,
}

/// An LRU set-associative cache with the same policies and statistics as
/// [`crate::Cache`]. Per-"block" statistics are tracked per *set*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    offset_bits: u32,
    set_mask: u32,
    sets: Vec<Vec<Way>>,
    full_mask: u64,
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Create an empty set-associative cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let nsets = cfg.num_sets() as usize;
        let wpb = cfg.words_per_block();
        let full_mask = if wpb >= 64 {
            u64::MAX
        } else {
            (1u64 << wpb) - 1
        };
        SetAssocCache {
            cfg,
            offset_bits: cfg.block.trailing_zeros(),
            set_mask: cfg.num_sets() - 1,
            sets: vec![
                vec![
                    Way {
                        tag: EMPTY,
                        ..Default::default()
                    };
                    cfg.assoc as usize
                ];
                nsets
            ],
            full_mask,
            clock: 0,
            stats: CacheStats::new(cfg.num_sets()),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn set_index(&self, addr: u32) -> usize {
        ((addr >> self.offset_bits) & self.set_mask) as usize
    }

    fn tag_of(&self, addr: u32) -> u32 {
        addr >> self.offset_bits >> self.set_mask.count_ones()
    }

    /// Simulate one access.
    pub fn access_one(&mut self, a: Access) {
        self.clock += 1;
        let s = self.set_index(a.addr);
        let tag = self.tag_of(a.addr);
        let bit = 1u64 << ((a.addr & (self.cfg.block - 1)) >> 2);
        self.stats.count_ref(a.ctx, a.is_read(), s);
        let writeback = self.cfg.write_hit == WriteHitPolicy::WriteBack;
        if !a.is_read() && self.cfg.write_hit == WriteHitPolicy::WriteThrough {
            self.stats.totals.count_write_through();
        }

        let set = &mut self.sets[s];
        if let Some(w) = set.iter_mut().find(|w| w.tag == tag) {
            w.lru = self.clock;
            if a.is_read() {
                if w.valid & bit != 0 {
                    return; // hit
                }
                w.valid = self.full_mask;
                self.stats.totals.count_partial_fill();
                self.stats.totals.count_fetch(a.ctx);
                self.stats.count_block_miss(s, false);
            } else {
                w.valid |= bit;
                if writeback {
                    w.dirty |= bit;
                }
            }
            return;
        }

        // Miss: pick the LRU way as the victim.
        let victim = set
            .iter_mut()
            .min_by_key(|w| if w.tag == EMPTY { 0 } else { w.lru + 1 })
            .expect("associativity >= 1");
        if writeback && victim.dirty != 0 {
            self.stats.totals.count_writeback();
        }
        victim.tag = tag;
        victim.lru = self.clock;
        victim.dirty = 0;
        self.stats.count_block_miss(s, a.alloc_init);
        if a.is_read() {
            victim.valid = self.full_mask;
            self.stats.totals.count_read_miss_fetch();
            self.stats.totals.count_fetch(a.ctx);
        } else {
            match self.cfg.write_miss {
                WriteMissPolicy::WriteValidate => {
                    victim.valid = bit;
                    self.stats.totals.count_write_validate_install();
                }
                WriteMissPolicy::FetchOnWrite => {
                    victim.valid = self.full_mask;
                    self.stats.totals.count_write_miss_fetch();
                    self.stats.totals.count_fetch(a.ctx);
                }
            }
            if writeback {
                victim.dirty = bit;
            }
        }
    }
}

impl TraceSink for SetAssocCache {
    #[inline]
    fn access(&mut self, access: Access) {
        self.access_one(access);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cache;
    use cachegc_trace::Context;

    const M: Context = Context::Mutator;

    #[test]
    fn two_way_absorbs_direct_mapped_thrash() {
        let size = 1 << 15;
        let a = 0x1000_0000u32;
        let b = a + size; // conflicts in a direct-mapped cache of `size`
        let mut dm = Cache::new(CacheConfig::direct_mapped(size, 16));
        let mut sa = SetAssocCache::new(CacheConfig::direct_mapped(size, 16).with_assoc(2));
        for _ in 0..100 {
            for addr in [a, b] {
                dm.access(Access::read(addr, M));
                sa.access(Access::read(addr, M));
            }
        }
        assert_eq!(dm.stats().fetches(), 200);
        assert_eq!(
            sa.stats().fetches(),
            2,
            "both blocks co-resident in a 2-way set"
        );
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way set; touch three conflicting blocks in order a,b,c: c evicts a.
        let size = 1 << 15;
        let cfg = CacheConfig::direct_mapped(size, 16).with_assoc(2);
        let a = 0x1000_0000u32;
        let b = a + size / 2; // same set in a 2-way cache of this geometry
        let c = a + size;
        let mut sa = SetAssocCache::new(cfg);
        sa.access(Access::read(a, M));
        sa.access(Access::read(b, M));
        sa.access(Access::read(c, M)); // evicts a (LRU)
        sa.access(Access::read(b, M)); // still resident
        assert_eq!(sa.stats().fetches(), 3);
        sa.access(Access::read(a, M)); // was evicted, misses
        assert_eq!(sa.stats().fetches(), 4);
    }

    #[test]
    fn one_way_behaves_like_direct_mapped() {
        let cfg = CacheConfig::direct_mapped(1 << 14, 32);
        let mut dm = Cache::new(cfg);
        let mut sa = SetAssocCache::new(cfg.with_assoc(1));
        // A small pseudo-random access pattern.
        let mut x = 12345u32;
        for i in 0..5000u32 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let addr = 0x1000_0000 + (x % (1 << 16)) * 4;
            let acc = if i % 3 == 0 {
                Access::write(addr, M)
            } else {
                Access::read(addr, M)
            };
            dm.access(acc);
            sa.access(acc);
        }
        assert_eq!(dm.stats().totals(), sa.stats().totals());
    }
}
