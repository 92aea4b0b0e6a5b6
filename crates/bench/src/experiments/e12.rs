//! E12 — the §5 write-overhead check: the cost of writing dirty blocks
//! back to memory in a write-back cache, as a fraction of idealized run
//! time. The paper's preliminary measurements: slow processor almost
//! always < 1 %, fast processor < 3 % for caches of 1 MB or more.
//!
//! `--jobs N` runs the five programs concurrently and shards each grid
//! across worker threads.

use cachegc_core::report::{Cell, Table};
use cachegc_core::{write_back_overhead, writeback_cycles, ExperimentConfig, Runner, FAST, SLOW};
use cachegc_workloads::Workload;

use super::{Experiment, Sweep};
use crate::human_bytes;

pub static EXPERIMENT: Experiment = Experiment {
    name: "e12_write_overhead",
    title: "E12: write-back write overheads (§5), 64b blocks",
    about: "write-back write overheads (§5), 64b blocks",
    default_scale: 4,
    cells: 5,
    sweep,
};

fn sweep(scale: u32, runner: &Runner) -> Sweep {
    let mut cfg = ExperimentConfig::paper();
    cfg.block_sizes = vec![64];

    let reports = runner.map(&Workload::ALL, |inner, w| {
        eprintln!("running {} ...", w.name());
        inner.control(w.scaled(scale), &cfg).unwrap()
    });

    let mut cols = vec!["program".to_string(), "cpu".to_string()];
    cols.extend(cfg.cache_sizes.iter().map(|&s| human_bytes(s)));
    let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut table = Table::new("writeback", &cols);
    for (w, r) in Workload::ALL.iter().zip(&reports) {
        for cpu in [&SLOW, &FAST] {
            let wb = writeback_cycles(&r.memory, cpu, 64);
            let mut row = vec![Cell::text(w.name()), Cell::text(cpu.name)];
            row.extend(cfg.cache_sizes.iter().map(|&size| {
                let cell = r.cell(size, 64).unwrap();
                Cell::Pct(write_back_overhead(cell.stats.writebacks, wb, r.i_prog))
            }));
            table.row(row);
        }
    }
    Sweep {
        tables: vec![table],
        notes: vec!["paper shape: slow <1% almost always; fast <3% for caches >=1m.".into()],
        ..Sweep::default()
    }
}
