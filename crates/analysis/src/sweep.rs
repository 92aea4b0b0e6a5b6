//! The cache-miss sweep plot (§7's first figure).

use cachegc_sim::{Cache, CacheConfig};
use cachegc_trace::{Access, TraceSink};

/// Records a dot matrix of cache misses over time: a dot at `(x, y)` when
/// at least one miss occurred in cache block `y` during the `x`-th
/// `refs_per_column`-reference interval. Linear allocation shows up as
/// broken diagonal lines — the allocation pointer sweeping the cache —
/// and thrashing blocks as horizontal stripes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPlot {
    cache: Cache,
    refs_per_column: u64,
    /// The column the next reference lands in, and the references it
    /// still takes: a countdown in place of a division per event.
    column: usize,
    left: u64,
    columns: Vec<Vec<u64>>,
    words_per_row: usize,
}

impl SweepPlot {
    /// Plot misses of a fresh cache with config `cfg`, one column per
    /// `refs_per_column` references (the paper uses 1024).
    pub fn new(cfg: CacheConfig, refs_per_column: u64) -> Self {
        assert!(refs_per_column > 0);
        let rows = cfg.num_blocks() as usize;
        SweepPlot {
            cache: Cache::new(cfg),
            refs_per_column,
            column: 0,
            left: refs_per_column,
            columns: Vec::new(),
            words_per_row: rows.div_ceil(64),
        }
    }

    /// The wrapped cache (e.g. for its statistics).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Number of time columns recorded so far.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Number of cache blocks (plot rows).
    pub fn height(&self) -> usize {
        self.cache.config().num_blocks() as usize
    }

    /// Is there a dot (≥1 miss) at column `x`, cache block `y`?
    pub fn dot(&self, x: usize, y: usize) -> bool {
        self.columns
            .get(x)
            .is_some_and(|col| col[y / 64] & (1u64 << (y % 64)) != 0)
    }

    /// Render as text, one character per cell (`*` = miss), cache block 0
    /// at the bottom as in the paper's figure. `max_cols` bounds the
    /// width; later columns are dropped.
    pub fn render_ascii(&self, max_cols: usize) -> String {
        let w = self.width().min(max_cols);
        let h = self.height();
        let mut out = String::with_capacity((w + 1) * h);
        for y in (0..h).rev() {
            for x in 0..w {
                out.push(if self.dot(x, y) { '*' } else { ' ' });
            }
            out.push('\n');
        }
        out
    }

    /// The fraction of plot cells (columns × cache blocks) holding a dot:
    /// how much of the plot the misses cover. 0 before the first miss.
    pub fn fraction_of_cells_with_dots(&self) -> f64 {
        if self.columns.is_empty() {
            return 0.0;
        }
        let dots: u64 = self
            .columns
            .iter()
            .map(|c| c.iter().map(|w| w.count_ones() as u64).sum::<u64>())
            .sum();
        dots as f64 / (self.width() * self.height()) as f64
    }
}

impl TraceSink for SweepPlot {
    fn access(&mut self, a: Access) {
        if self.left == 0 {
            self.column += 1;
            self.left = self.refs_per_column;
        }
        self.left -= 1;
        let col = self.column;
        let out = self.cache.access_classified(a);
        if !out.hit {
            if self.columns.len() <= col {
                self.columns.resize(col + 1, vec![0u64; self.words_per_row]);
            }
            let y = out.cache_block as usize;
            self.columns[col][y / 64] |= 1u64 << (y % 64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegc_trace::{Context, DYNAMIC_BASE};

    const M: Context = Context::Mutator;

    #[test]
    fn linear_allocation_draws_a_diagonal() {
        // 16-block cache; 1 column per 4 refs; allocate 2 blocks per column.
        let mut p = SweepPlot::new(CacheConfig::direct_mapped(1024, 64), 4);
        let mut addr = DYNAMIC_BASE;
        for _ in 0..32 {
            // Two allocation misses plus two filler hits per column.
            p.access(Access::alloc_write(addr, M));
            p.access(Access::alloc_write(addr + 64, M));
            p.access(Access::read(addr, M));
            p.access(Access::read(addr + 64, M));
            addr += 128;
        }
        // Column x should have dots at the two blocks the wave covered.
        let b0 = ((DYNAMIC_BASE / 64) % 16) as usize;
        for x in 0..p.width() {
            let y = (b0 + 2 * x) % 16;
            assert!(p.dot(x, y), "dot at ({x},{y})");
            assert!(p.dot(x, (y + 1) % 16));
        }
        // The wave is sparse: 2 of 16 blocks per column.
        let f = p.fraction_of_cells_with_dots();
        assert!((f - 2.0 / 16.0).abs() < 0.02, "{f}");
    }

    #[test]
    fn thrashing_draws_a_horizontal_stripe() {
        let mut p = SweepPlot::new(CacheConfig::direct_mapped(1024, 64), 8);
        for _ in 0..64 {
            p.access(Access::read(DYNAMIC_BASE, M));
            p.access(Access::read(DYNAMIC_BASE + 1024, M));
        }
        // Every column has a dot in the conflicting row; no other rows.
        let row = ((DYNAMIC_BASE / 64) % 16) as usize;
        for x in 0..p.width() {
            assert!(p.dot(x, row));
            for y in 0..16 {
                if y != row {
                    assert!(!p.dot(x, y));
                }
            }
        }
    }

    #[test]
    fn columns_are_the_reference_count_divided_by_the_column_width() {
        for refs_per_column in [1u64, 3, 1024] {
            // Every reference misses: a new block each time, so the plot
            // gains a dot in the column of every reference.
            let mut p = SweepPlot::new(CacheConfig::direct_mapped(1024, 64), refs_per_column);
            for t in 0..3 * refs_per_column + 2 {
                p.access(Access::read(DYNAMIC_BASE + 64 * t as u32, M));
                let col = (t / refs_per_column) as usize;
                assert_eq!(p.width(), col + 1, "ref {t} of {refs_per_column}");
                assert!(p.dot(col, ((DYNAMIC_BASE / 64 + t as u32) % 16) as usize));
            }
        }
    }

    #[test]
    fn ascii_rendering_shape() {
        let mut p = SweepPlot::new(CacheConfig::direct_mapped(1024, 64), 4);
        p.access(Access::read(DYNAMIC_BASE, M));
        let s = p.render_ascii(10);
        assert_eq!(s.lines().count(), 16);
        assert!(s.contains('*'));
    }
}
