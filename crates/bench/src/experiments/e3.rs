//! E3 — the §5 control-experiment figure: average cache overhead across
//! the five programs, with no garbage collection, for every cache size
//! (32 KB – 4 MB) and block size (16 – 256 B), on both processors.
//!
//! Expected shape (paper): larger caches and smaller blocks always win;
//! slow processor < 5 % even at 32 KB/16 B; fast processor needs ~1 MB
//! for a similar overhead.
//!
//! `--jobs N` splits the work two ways: the five programs run
//! concurrently, and within each pass the 40-cell cache grid is sharded
//! across a crew's replay readers. Per-cell statistics are bit-identical
//! at every `N`, `--jobs 1` included.

use cachegc_core::report::{Cell, Table};
use cachegc_core::{ExperimentConfig, Processor, Runner, FAST, SLOW};
use cachegc_workloads::Workload;

use super::{Experiment, Sweep};
use crate::human_bytes;

pub static EXPERIMENT: Experiment = Experiment {
    name: "e3_overhead_sweep",
    title: "E3: average cache overhead, no GC (§5 figure)",
    about: "average cache overhead without GC (§5 figure)",
    default_scale: 4,
    cells: 5,
    sweep,
};

fn cpu_table(cpu: &Processor, cfg: &ExperimentConfig, f: impl Fn(u32, u32) -> f64) -> Table {
    let mut cols = vec!["block".to_string()];
    cols.extend(cfg.cache_sizes.iter().map(|&s| human_bytes(s)));
    let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut table = Table::new(cpu.name, &cols);
    for &block in &cfg.block_sizes {
        let mut row = vec![Cell::text(format!("{block}b"))];
        row.extend(
            cfg.cache_sizes
                .iter()
                .map(|&size| Cell::Pct(f(size, block))),
        );
        table.row(row);
    }
    table
}

fn sweep(scale: u32, runner: &Runner) -> Sweep {
    let cfg = ExperimentConfig::paper();
    // Outer parallelism over programs, inner over grid cells.
    let reports = runner.map(&Workload::ALL, |inner, w| {
        eprintln!("running {} ...", w.name());
        inner
            .control(w.scaled(scale), &cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()))
    });

    let mut tables = Vec::new();
    for cpu in [&SLOW, &FAST] {
        tables.push(cpu_table(cpu, &cfg, |size, block| {
            reports
                .iter()
                .map(|r| {
                    let cell = r.cell(size, block).expect("simulated");
                    r.cache_overhead(cell, cpu)
                })
                .sum::<f64>()
                / reports.len() as f64
        }));
    }
    Sweep {
        tables,
        notes: vec![
            "paper shape: monotone improvement with cache size; smaller blocks better;".into(),
            "slow/32k/16b < 5%; fast needs ~1m for < 5%.".into(),
        ],
        ..Sweep::default()
    }
}
