//! E8 — the §7 cache-miss sweep plot: misses over time, one row per cache
//! block of a 64 KB cache with 64-byte blocks, for a run of the compile
//! workload without collection. The allocation pointer appears as broken
//! diagonal lines sweeping the cache.
//!
//! The full-resolution plot comes back as an artifact (`e8_sweep.txt`)
//! and a downsampled excerpt as a note. The trace pass goes through the
//! experiment engine (`Runner::sinks`), so `--jobs` applies.

use cachegc_analysis::SweepPlot;
use cachegc_core::report::{Cell, Table};
use cachegc_core::{CacheConfig, Runner};
use cachegc_workloads::Workload;

use super::{Experiment, Sweep};

pub static EXPERIMENT: Experiment = Experiment {
    name: "e8_sweep_plot",
    title: "E8: cache-miss sweep plot, compile, 64k/64b (§7)",
    about: "the §7 cache-miss sweep plot (compile, 64k/64b)",
    default_scale: 1,
    cells: 1,
    sweep,
};

fn sweep(scale: u32, runner: &Runner) -> Sweep {
    let cfg = CacheConfig::direct_mapped(64 << 10, 64);
    eprintln!("running compile ...");
    let (_, sinks) = runner
        .sinks(
            Workload::Compile.scaled(scale),
            None,
            vec![SweepPlot::new(cfg, 1024)],
        )
        .unwrap();
    let plot = sinks.into_iter().next().expect("one plot");

    let full = plot.render_ascii(4000);
    let mut table = Table::new(
        "sweep",
        &["workload", "columns", "cache_blocks", "dot_fraction"],
    );
    table.row(vec![
        "compile".into(),
        plot.width().into(),
        plot.height().into(),
        Cell::Float(plot.fraction_of_cells_with_dots(), 4),
    ]);

    // Downsample to an ~100x32 excerpt for the terminal.
    let (w, h) = (plot.width(), plot.height());
    let (cols, rows) = (100.min(w), 32.min(h));
    let mut excerpt = format!(
        "full plot in e8_sweep.txt\n\ndownsampled excerpt ({cols}x{rows}); '*' = >=1 miss; block 0 at the bottom:"
    );
    for ry in (0..rows).rev() {
        excerpt.push('\n');
        for rx in 0..cols {
            let mut dot = false;
            for y in (ry * h / rows)..((ry + 1) * h / rows) {
                for x in (rx * w / cols)..((rx + 1) * w / cols) {
                    dot |= plot.dot(x, y);
                }
            }
            excerpt.push(if dot { '*' } else { ' ' });
        }
    }
    Sweep {
        tables: vec![table],
        notes: vec![
            excerpt,
            String::new(),
            "paper shape: broken diagonal allocation-miss lines sweeping the cache;".into(),
            "slope follows the allocation rate; thrashing would appear as horizontal stripes."
                .into(),
        ],
        artifacts: vec![("e8_sweep.txt".into(), full)],
    }
}
