//! E6 — the §6 argument: lp's pathological Cheney overhead disappears
//! under a generational collector, which stops recopying the long-lived,
//! monotonically growing structure at every collection.
//!
//! `--jobs N` runs each comparison's control and collected passes on
//! separate threads, each pass's grid sharded across its replay readers.

use cachegc_core::report::{Cell, Table};
use cachegc_core::{CollectorSpec, ExperimentConfig, Runner, FAST, SLOW};
use cachegc_workloads::Workload;

use super::{Experiment, Sweep};
use crate::human_bytes;

pub static EXPERIMENT: Experiment = Experiment {
    name: "e6_generational",
    title: "E6: lambda (lp) under Cheney vs generational (§6)",
    about: "lambda under Cheney vs generational collection (§6)",
    default_scale: 4,
    cells: 4,
    sweep,
};

fn sweep(scale: u32, runner: &Runner) -> Sweep {
    let mut cfg = ExperimentConfig::paper();
    cfg.block_sizes = vec![64];
    cfg.cache_sizes = vec![64 << 10, 256 << 10, 1 << 20];

    let w = Workload::Lambda.scaled(scale);
    let specs = [
        CollectorSpec::Cheney {
            semispace_bytes: 2 << 20,
        },
        CollectorSpec::Generational {
            nursery_bytes: 1 << 20,
            old_bytes: 24 << 20,
        },
    ];
    let mut gc_table = Table::new(
        "collections",
        &["collector", "collections", "minor", "major", "bytes_copied"],
    );
    let mut cols = vec!["collector".to_string(), "cpu".to_string()];
    cols.extend(cfg.cache_sizes.iter().map(|&s| human_bytes(s)));
    let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut ogc_table = Table::new("ogc", &cols);
    for spec in specs {
        eprintln!("running lambda under {} ...", spec.name());
        let cmp = runner
            .comparison(w, &cfg, spec)
            .unwrap_or_else(|e| panic!("{e}"));
        gc_table.row(vec![
            spec.name().into(),
            cmp.collected.gc.collections.into(),
            cmp.collected.gc.minor_collections.into(),
            cmp.collected.gc.major_collections.into(),
            cmp.collected.gc.bytes_copied.into(),
        ]);
        for cpu in [&SLOW, &FAST] {
            let mut row = vec![Cell::text(spec.name()), Cell::text(cpu.name)];
            row.extend(
                cfg.cache_sizes
                    .iter()
                    .map(|&size| Cell::Pct(cmp.gc_overhead(size, 64, cpu))),
            );
            ogc_table.row(row);
        }
    }
    Sweep {
        tables: vec![gc_table, ogc_table],
        notes: vec![
            "paper shape: Cheney ≥40% for lp; 'a simple generational collector would".into(),
            "avoid this problem' — the generational rows should be far lower.".into(),
        ],
        ..Sweep::default()
    }
}
