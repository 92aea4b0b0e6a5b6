//! A2 (ablation) — collection frequency: Cheney semispace size vs `O_gc`.
//! §6 argues the collector should run *infrequently*; this sweep makes the
//! trade explicit by shrinking the semispaces.
//!
//! `--jobs N` runs compile's control pass once, then the semispace
//! sizes' collected passes concurrently, each paired with that control.

use cachegc_core::report::{Cell, Table};
use cachegc_core::{CollectorSpec, ExperimentConfig, Runner, FAST, SLOW};
use cachegc_workloads::Workload;

use super::{comparisons, Experiment, Sweep};
use crate::human_bytes;

pub static EXPERIMENT: Experiment = Experiment {
    name: "a2_semispace_sweep",
    title: "A2: Cheney semispace-size sweep, compile workload",
    about: "Cheney semispace-size sweep (compile workload)",
    default_scale: 4,
    cells: 6,
    sweep,
};

fn sweep(scale: u32, runner: &Runner) -> Sweep {
    let mut cfg = ExperimentConfig::paper();
    cfg.block_sizes = vec![64];
    cfg.cache_sizes = vec![64 << 10, 1 << 20];

    let semispaces: Vec<u32> = vec![512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20];
    let specs: Vec<CollectorSpec> = semispaces
        .iter()
        .map(|&semi| CollectorSpec::Cheney {
            semispace_bytes: semi,
        })
        .collect();
    let results = comparisons(runner, Workload::Compile.scaled(scale), &cfg, &specs);

    let mut table = Table::new(
        "semispace",
        &[
            "semispace",
            "collections",
            "copied_bytes",
            "slow_64k",
            "fast_64k",
            "slow_1m",
            "fast_1m",
        ],
    );
    let mut notes = Vec::new();
    for (&semi, result) in semispaces.iter().zip(&results) {
        let cmp = match result {
            Ok(c) => c,
            Err(e) => {
                notes.push(format!("{:>10}  failed: {e}", human_bytes(semi)));
                continue;
            }
        };
        table.row(vec![
            Cell::Bytes(semi.into()),
            cmp.collected.gc.collections.into(),
            cmp.collected.gc.bytes_copied.into(),
            Cell::Pct(cmp.gc_overhead(64 << 10, 64, &SLOW)),
            Cell::Pct(cmp.gc_overhead(64 << 10, 64, &FAST)),
            Cell::Pct(cmp.gc_overhead(1 << 20, 64, &SLOW)),
            Cell::Pct(cmp.gc_overhead(1 << 20, 64, &FAST)),
        ]);
    }
    notes.push("expectation: larger semispaces => fewer collections => lower O_gc,".into());
    notes.push("approaching the no-collection control; §6's 'collect rarely' advice.".into());
    Sweep {
        tables: vec![table],
        notes,
        ..Sweep::default()
    }
}
