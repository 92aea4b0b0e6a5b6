//! E7 — the §6 argument against *aggressive* collection: a generational
//! collector whose nursery is sized to the cache collects far more often
//! and copies far more not-yet-dead data; the extra copying cost swamps
//! whatever cache-overhead improvement it can buy.
//!
//! Sweeps the nursery from cache-sized (aggressive, à la Wilson et al.)
//! up to infrequent, and reports collections, bytes promoted, and O_gc.
//! `--jobs N` runs compile's control pass once, then the nursery sizes'
//! collected passes concurrently, each paired with that control.

use cachegc_core::report::{Cell, Table};
use cachegc_core::{CollectorSpec, ExperimentConfig, Runner, FAST, SLOW};
use cachegc_workloads::Workload;

use super::{comparisons, Experiment, Sweep};

pub static EXPERIMENT: Experiment = Experiment {
    name: "e7_aggressive",
    title: "E7: aggressive vs infrequent generational collection (§6), 64k cache",
    about: "aggressive vs infrequent generational collection (§6)",
    default_scale: 4,
    cells: 6,
    sweep,
};

fn sweep(scale: u32, runner: &Runner) -> Sweep {
    let cache_size = 64 << 10;
    let mut cfg = ExperimentConfig::paper();
    cfg.block_sizes = vec![64];
    cfg.cache_sizes = vec![cache_size];

    let nurseries: Vec<u32> = vec![64 << 10, 128 << 10, 256 << 10, 1 << 20, 4 << 20];
    let specs: Vec<CollectorSpec> = nurseries
        .iter()
        .map(|&nursery| CollectorSpec::Generational {
            nursery_bytes: nursery,
            old_bytes: 24 << 20,
        })
        .collect();
    let pairs = comparisons(runner, Workload::Compile.scaled(scale), &cfg, &specs);

    let mut table = Table::new(
        "aggressive",
        &[
            "nursery",
            "minors",
            "promoted_bytes",
            "copied_bytes",
            "ogc_slow",
            "ogc_fast",
            "total_fast",
        ],
    );
    for (&nursery, cmp) in nurseries.iter().zip(pairs) {
        let cmp = cmp.unwrap_or_else(|e| panic!("{e}"));
        let o_slow = cmp.gc_overhead(cache_size, 64, &SLOW);
        let o_fast = cmp.gc_overhead(cache_size, 64, &FAST);
        let total_fast = cmp.control_overhead(cache_size, 64, &FAST) + o_fast;
        table.row(vec![
            Cell::Bytes(nursery.into()),
            cmp.collected.gc.minor_collections.into(),
            cmp.collected.gc.bytes_promoted.into(),
            cmp.collected.gc.bytes_copied.into(),
            Cell::Pct(o_slow),
            Cell::Pct(o_fast),
            Cell::Pct(total_fast),
        ]);
    }
    Sweep {
        tables: vec![table],
        notes: vec![
            "paper shape: a cache-sized (aggressive) nursery collects more often, leaves".into(),
            "less time for objects to die, promotes more, and costs more than it saves;".into(),
            "overheads should fall as the nursery grows.".into(),
        ],
        ..Sweep::default()
    }
}
