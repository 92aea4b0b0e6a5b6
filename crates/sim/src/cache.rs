//! The direct-mapped cache simulator.

use cachegc_trace::{Access, TraceSink};

use crate::config::{CacheConfig, WriteHitPolicy, WriteMissPolicy};
use crate::stats::CacheStats;

const EMPTY: u32 = u32::MAX;

/// What one access did to the cache, for analyses that need per-event
/// detail (the §7 sweep plots and cache-activity graphs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// The cache block the access indexed.
    pub cache_block: u32,
    /// True if the access hit.
    pub hit: bool,
    /// True if the miss required a block fetch from memory (stalling the
    /// processor); write-validate write misses do not.
    pub fetched: bool,
    /// True if this was an allocation miss.
    pub alloc_miss: bool,
}

/// A virtually-indexed direct-mapped data cache with per-word valid bits
/// (sub-block placement), the cache organization the paper studies.
///
/// Data contents are not modeled — only tags, valid bits, and dirty bits —
/// because the simulated program's data lives in [`cachegc-heap`]'s memory;
/// the cache tracks exactly what a trace-driven simulator needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache {
    cfg: CacheConfig,
    offset_bits: u32,
    index_mask: u32,
    tags: Vec<u32>,
    valid: Vec<u64>,
    dirty: Vec<u64>,
    full_mask: u64,
    stats: CacheStats,
}

impl Cache {
    /// Create an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.assoc != 1`; use [`crate::SetAssocCache`] for
    /// associative configurations.
    pub fn new(cfg: CacheConfig) -> Self {
        assert_eq!(cfg.assoc, 1, "Cache is direct-mapped; use SetAssocCache");
        let n = cfg.num_blocks() as usize;
        let wpb = cfg.words_per_block();
        let full_mask = if wpb >= 64 {
            u64::MAX
        } else {
            (1u64 << wpb) - 1
        };
        Cache {
            cfg,
            offset_bits: cfg.block.trailing_zeros(),
            index_mask: cfg.num_blocks() - 1,
            tags: vec![EMPTY; n],
            valid: vec![0; n],
            dirty: vec![0; n],
            full_mask,
            stats: CacheStats::new(cfg.num_blocks()),
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

    /// Consume the cache, returning its statistics.
    pub fn into_stats(self) -> CacheStats {
        self.stats
    }

    /// Which cache block an address maps to.
    #[inline]
    pub fn block_index(&self, addr: u32) -> u32 {
        (addr >> self.offset_bits) & self.index_mask
    }

    #[inline]
    fn tag_of(&self, addr: u32) -> u32 {
        addr >> self.offset_bits >> self.index_mask.count_ones()
    }

    #[inline]
    fn word_bit(&self, addr: u32) -> u64 {
        1u64 << ((addr & (self.cfg.block - 1)) >> 2)
    }

    #[inline]
    fn evict(&mut self, b: usize) {
        if self.cfg.write_hit == WriteHitPolicy::WriteBack && self.dirty[b] != 0 {
            self.stats.totals.count_writeback();
        }
        self.dirty[b] = 0;
    }

    /// Simulate one access and report what happened.
    pub fn access_classified(&mut self, a: Access) -> Outcome {
        let b = self.block_index(a.addr) as usize;
        let tag = self.tag_of(a.addr);
        let bit = self.word_bit(a.addr);
        self.stats.count_ref(a.ctx, a.is_read(), b);

        if a.is_read() {
            if self.tags[b] == tag {
                if self.valid[b] & bit != 0 {
                    return Outcome {
                        cache_block: b as u32,
                        hit: true,
                        fetched: false,
                        alloc_miss: false,
                    };
                }
                // Present tag, invalid word: sub-block fill of the rest.
                self.valid[b] = self.full_mask;
                self.stats.totals.count_partial_fill();
                self.stats.totals.count_fetch(a.ctx);
                self.stats.count_block_miss(b, false);
                Outcome {
                    cache_block: b as u32,
                    hit: false,
                    fetched: true,
                    alloc_miss: false,
                }
            } else {
                self.evict(b);
                self.tags[b] = tag;
                self.valid[b] = self.full_mask;
                self.stats.totals.count_read_miss_fetch();
                self.stats.totals.count_fetch(a.ctx);
                self.stats.count_block_miss(b, false);
                Outcome {
                    cache_block: b as u32,
                    hit: false,
                    fetched: true,
                    alloc_miss: false,
                }
            }
        } else {
            // Write.
            if self.cfg.write_hit == WriteHitPolicy::WriteThrough {
                self.stats.totals.count_write_through();
            }
            if self.tags[b] == tag {
                self.valid[b] |= bit;
                if self.cfg.write_hit == WriteHitPolicy::WriteBack {
                    self.dirty[b] |= bit;
                }
                return Outcome {
                    cache_block: b as u32,
                    hit: true,
                    fetched: false,
                    alloc_miss: false,
                };
            }
            self.evict(b);
            self.tags[b] = tag;
            self.stats.count_block_miss(b, a.alloc_init);
            let fetched = match self.cfg.write_miss {
                WriteMissPolicy::WriteValidate => {
                    self.valid[b] = bit;
                    self.stats.totals.count_write_validate_install();
                    false
                }
                WriteMissPolicy::FetchOnWrite => {
                    self.valid[b] = self.full_mask;
                    self.stats.totals.count_write_miss_fetch();
                    self.stats.totals.count_fetch(a.ctx);
                    true
                }
            };
            if self.cfg.write_hit == WriteHitPolicy::WriteBack {
                self.dirty[b] = bit;
            }
            Outcome {
                cache_block: b as u32,
                hit: false,
                fetched,
                alloc_miss: a.alloc_init,
            }
        }
    }

    /// Flush the cache contents (tags and valid bits), keeping statistics.
    /// Models a context switch or an explicit invalidation; also used by
    /// tests.
    pub fn flush(&mut self) {
        for b in 0..self.tags.len() {
            if self.cfg.write_hit == WriteHitPolicy::WriteBack && self.dirty[b] != 0 {
                self.stats.totals.count_writeback();
            }
            self.tags[b] = EMPTY;
            self.valid[b] = 0;
            self.dirty[b] = 0;
        }
    }
}

impl TraceSink for Cache {
    #[inline]
    fn access(&mut self, access: Access) {
        self.access_classified(access);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegc_trace::Context;

    const M: Context = Context::Mutator;

    fn cache(size: u32, block: u32) -> Cache {
        Cache::new(CacheConfig::direct_mapped(size, block))
    }

    #[test]
    fn read_miss_then_hit() {
        let mut c = cache(1 << 15, 16);
        let o = c.access_classified(Access::read(0x1000_0000, M));
        assert!(!o.hit && o.fetched);
        let o = c.access_classified(Access::read(0x1000_0004, M));
        assert!(o.hit, "same block, different word");
        assert_eq!(c.stats().fetches(), 1);
    }

    #[test]
    fn conflicting_blocks_thrash() {
        let mut c = cache(1 << 15, 16);
        let a = 0x1000_0000;
        let b = a + (1 << 15); // same index, different tag
        assert_eq!(c.block_index(a), c.block_index(b));
        for _ in 0..10 {
            c.access_classified(Access::read(a, M));
            c.access_classified(Access::read(b, M));
        }
        assert_eq!(c.stats().fetches(), 20, "perfect alternation always misses");
    }

    #[test]
    fn write_validate_skips_fetch() {
        let mut c = cache(1 << 15, 64);
        let o = c.access_classified(Access::alloc_write(0x1000_0000, M));
        assert!(!o.hit && !o.fetched && o.alloc_miss);
        assert_eq!(c.stats().fetches(), 0);
        assert_eq!(c.stats().totals().alloc_misses, 1);
        // Write the rest of the block: all hits (tag present).
        for w in 1..16 {
            let o = c.access_classified(Access::alloc_write(0x1000_0000 + w * 4, M));
            assert!(o.hit);
        }
        // Reading a word we wrote: hit, no fetch ever needed.
        assert!(c.access_classified(Access::read(0x1000_0004, M)).hit);
        assert_eq!(c.stats().fetches(), 0);
    }

    #[test]
    fn partial_fill_on_read_of_invalid_word() {
        let mut c = cache(1 << 15, 64);
        c.access_classified(Access::write(0x1000_0000, M)); // validates word 0 only
        let o = c.access_classified(Access::read(0x1000_0008, M)); // word 2: invalid
        assert!(!o.hit && o.fetched);
        assert_eq!(c.stats().totals().partial_fill_fetches, 1);
        // Now the whole block is valid.
        assert!(c.access_classified(Access::read(0x1000_003c, M)).hit);
    }

    #[test]
    fn fetch_on_write_fetches() {
        let cfg =
            CacheConfig::direct_mapped(1 << 15, 64).with_write_miss(WriteMissPolicy::FetchOnWrite);
        let mut c = Cache::new(cfg);
        let o = c.access_classified(Access::alloc_write(0x1000_0000, M));
        assert!(!o.hit && o.fetched);
        assert_eq!(c.stats().totals().write_miss_fetches, 1);
        // Whole block valid after the fetch.
        assert!(c.access_classified(Access::read(0x1000_0020, M)).hit);
    }

    #[test]
    fn writeback_counted_on_dirty_eviction() {
        let mut c = cache(1 << 15, 16);
        let a = 0x1000_0000;
        let b = a + (1 << 15);
        c.access_classified(Access::write(a, M)); // dirty install
        c.access_classified(Access::read(b, M)); // evicts dirty block
        assert_eq!(c.stats().totals().writebacks, 1);
        c.access_classified(Access::read(a, M)); // evicts clean block
        assert_eq!(c.stats().totals().writebacks, 1);
    }

    #[test]
    fn write_through_counts_words() {
        let cfg =
            CacheConfig::direct_mapped(1 << 15, 16).with_write_hit(WriteHitPolicy::WriteThrough);
        let mut c = Cache::new(cfg);
        c.access_classified(Access::write(0x1000_0000, M));
        c.access_classified(Access::write(0x1000_0000, M));
        assert_eq!(c.stats().totals().write_through_words, 2);
        c.flush();
        assert_eq!(
            c.stats().totals().writebacks,
            0,
            "write-through never writes back"
        );
    }

    #[test]
    fn flush_writes_back_dirty_blocks() {
        let mut c = cache(1 << 15, 16);
        c.access_classified(Access::write(0x1000_0000, M));
        c.access_classified(Access::write(0x2000_0000, M));
        c.flush();
        assert_eq!(c.stats().totals().writebacks, 2);
        assert!(!c.access_classified(Access::read(0x1000_0000, M)).hit);
    }

    #[test]
    fn per_block_stats_accumulate() {
        let mut c = cache(1 << 15, 16);
        let a = 0x1000_0000;
        c.access_classified(Access::alloc_write(a, M));
        c.access_classified(Access::read(a, M));
        let b = c.block_index(a) as usize;
        assert_eq!(c.stats().blocks()[b].refs, 2);
        assert_eq!(c.stats().blocks()[b].misses, 1);
        assert_eq!(c.stats().blocks()[b].alloc_misses, 1);
    }

    #[test]
    fn largest_block_size_valid_mask() {
        let mut c = cache(1 << 20, 256); // 64 words per block
        c.access_classified(Access::write(0x1000_00fc, M)); // last word
        assert!(c.access_classified(Access::read(0x1000_00fc, M)).hit);
        assert!(!c.access_classified(Access::read(0x1000_0000, M)).hit);
    }
}
