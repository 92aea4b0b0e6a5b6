//! Cache configuration.

use std::fmt;

/// Write-miss policy (§4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WriteMissPolicy {
    /// Write-allocate with sub-block placement at one-word granularity: a
    /// write miss installs the block's tag and validates only the written
    /// word, *without* fetching the block from memory. The paper's default.
    #[default]
    WriteValidate,
    /// The conventional policy: a write miss fetches the whole block from
    /// memory before the write proceeds.
    FetchOnWrite,
}

/// Write-hit policy, used for write-traffic accounting (§5's "write
/// overheads" discussion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WriteHitPolicy {
    /// Dirty blocks are written back to memory on eviction.
    #[default]
    WriteBack,
    /// Every store is propagated to memory.
    WriteThrough,
}

/// Geometry and policies for one simulated cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a power of two.
    pub size: u32,
    /// Block (line) size in bytes: 8–256, a power of two, so that one
    /// `u64` valid bitmap covers a block's words. The fetch size equals
    /// the block size (§4).
    pub block: u32,
    /// Associativity; 1 for the direct-mapped caches the paper studies.
    pub assoc: u32,
    /// Write-miss policy.
    pub write_miss: WriteMissPolicy,
    /// Write-hit policy.
    pub write_hit: WriteHitPolicy,
}

impl CacheConfig {
    /// A direct-mapped, write-validate, write-back cache — the paper's
    /// default configuration.
    ///
    /// # Panics
    ///
    /// Panics if `size` or `block` is not a power of two, if `block` is
    /// outside 8..=256 bytes, or if `block > size`.
    pub fn direct_mapped(size: u32, block: u32) -> Self {
        let cfg = CacheConfig {
            size,
            block,
            assoc: 1,
            write_miss: WriteMissPolicy::WriteValidate,
            write_hit: WriteHitPolicy::WriteBack,
        };
        cfg.validate();
        cfg
    }

    /// Same geometry, different write-miss policy.
    pub fn with_write_miss(mut self, policy: WriteMissPolicy) -> Self {
        self.write_miss = policy;
        self
    }

    /// Same geometry, different write-hit policy.
    pub fn with_write_hit(mut self, policy: WriteHitPolicy) -> Self {
        self.write_hit = policy;
        self
    }

    /// Same size/block/policies with the given associativity.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` does not divide the number of blocks.
    pub fn with_assoc(mut self, assoc: u32) -> Self {
        assert!(
            assoc >= 1 && self.num_blocks().is_multiple_of(assoc),
            "bad associativity {assoc}"
        );
        self.assoc = assoc;
        self
    }

    fn validate(&self) {
        assert!(
            self.size.is_power_of_two(),
            "cache size must be a power of two"
        );
        assert!(
            self.block.is_power_of_two(),
            "block size must be a power of two"
        );
        // The simulators keep one `u64` valid bitmap per block: 64 words.
        assert!((8..=256).contains(&self.block), "block size out of range");
        assert!(self.block <= self.size, "block larger than cache");
    }

    /// Number of blocks in the cache.
    #[inline]
    pub fn num_blocks(&self) -> u32 {
        self.size / self.block
    }

    /// Number of sets (`num_blocks / assoc`).
    #[inline]
    pub fn num_sets(&self) -> u32 {
        self.num_blocks() / self.assoc
    }

    /// Words per block.
    #[inline]
    pub fn words_per_block(&self) -> u32 {
        self.block / 4
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let size = if self.size >= 1 << 20 {
            format!("{}m", self.size >> 20)
        } else {
            format!("{}k", self.size >> 10)
        };
        write!(f, "{size}/{}b/{}-way", self.block, self.assoc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let c = CacheConfig::direct_mapped(64 * 1024, 64);
        assert_eq!(c.num_blocks(), 1024);
        assert_eq!(c.num_sets(), 1024);
        assert_eq!(c.words_per_block(), 16);
        assert_eq!(c.to_string(), "64k/64b/1-way");
        assert_eq!(
            CacheConfig::direct_mapped(4 << 20, 256).to_string(),
            "4m/256b/1-way"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        CacheConfig::direct_mapped(48 * 1024, 64);
    }

    #[test]
    #[should_panic(expected = "block size out of range")]
    fn rejects_tiny_blocks() {
        CacheConfig::direct_mapped(64 * 1024, 4);
    }

    /// A 512-byte block has 128 words, more than a `u64` valid bitmap
    /// holds: word 64 would share word 0's bit.
    #[test]
    #[should_panic(expected = "block size out of range")]
    fn rejects_blocks_wider_than_the_valid_bitmap() {
        CacheConfig::direct_mapped(64 * 1024, 512);
    }

    #[test]
    fn associativity_divides() {
        let c = CacheConfig::direct_mapped(64 * 1024, 64).with_assoc(4);
        assert_eq!(c.num_sets(), 256);
    }
}
