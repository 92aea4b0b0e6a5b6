//! E5 — the §6 figure: garbage-collection overhead of the Cheney semispace
//! collector versus cache size at 64-byte blocks, on both processors.
//!
//! Expected shape (paper, with 16 MB semispaces against multi-hundred-MB
//! allocation): compile/nbody/rewrite stay low (< 4 % slow, < 8 % fast);
//! nbody can go *negative* in mid-size caches when the collector happens
//! to separate thrashing blocks; prove (imps) is volatile when it
//! thrashes; lambda (lp) is ≥ 40 % because its live structure grows
//! monotonically and Cheney recopies it at every collection.
//!
//! Scaling substitution: the paper's 16 MB semispaces serve programs that
//! allocate hundreds of MB; we use 2 MB semispaces against tens of
//! MB of allocation, preserving the collections-per-byte-allocated regime.
//! A2 (`a2_semispace_sweep`) sweeps the semispace size itself.
//!
//! `--jobs N` runs the workloads concurrently: each workload's control
//! pass and then its collected pass run on one map worker, with the
//! 8-cell grid sharded across any workers left over. The tables are the
//! same at every `N`, `--jobs 1` included.

use cachegc_core::report::{Cell, Table};
use cachegc_core::{CollectorSpec, ExperimentConfig, Runner, FAST, SLOW};
use cachegc_workloads::Workload;

use super::{comparisons, Experiment, Sweep};
use crate::human_bytes;

pub static EXPERIMENT: Experiment = Experiment {
    name: "e5_gc_overhead",
    title: "E5: O_gc with Cheney semispaces, 64b blocks (§6 figure)",
    about: "O_gc of the Cheney collector vs cache size (§6 figure)",
    default_scale: 4,
    cells: 10,
    sweep,
};

/// Semispace size: 2 MiB against tens of MB of allocation.
const SEMISPACE: u32 = 2 << 20;

fn sweep(scale: u32, runner: &Runner) -> Sweep {
    let mut cfg = ExperimentConfig::paper();
    cfg.block_sizes = vec![64];
    eprintln!("Cheney semispaces: {}", human_bytes(SEMISPACE));

    let spec = CollectorSpec::Cheney {
        semispace_bytes: SEMISPACE,
    };
    let results: Vec<_> = runner
        .map(&Workload::ALL, |inner, w| {
            comparisons(inner, w.scaled(scale), &cfg, &[spec])
        })
        .into_iter()
        .flatten()
        .collect();

    let mut gc_table = Table::new(
        "collections",
        &[
            "program",
            "analog",
            "collections",
            "bytes_copied",
            "i_gc",
            "delta_i_prog",
        ],
    );
    let mut cols = vec!["program".to_string(), "cpu".to_string()];
    cols.extend(cfg.cache_sizes.iter().map(|&s| human_bytes(s)));
    let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut ogc_table = Table::new("ogc", &cols);

    let mut notes = Vec::new();
    for (w, result) in Workload::ALL.iter().zip(&results) {
        let cmp = match result {
            Ok(c) => c,
            Err(e) => {
                notes.push(format!(
                    "{:10} failed: {e} (semispace too small for its live data)",
                    w.name()
                ));
                continue;
            }
        };
        gc_table.row(vec![
            w.name().into(),
            w.paper_analog().into(),
            cmp.collected.gc.collections.into(),
            cmp.collected.gc.bytes_copied.into(),
            cmp.collected.i_gc.into(),
            cmp.collected.delta_i_prog.into(),
        ]);
        for cpu in [&SLOW, &FAST] {
            let mut row = vec![Cell::text(w.name()), Cell::text(cpu.name)];
            row.extend(
                cfg.cache_sizes
                    .iter()
                    .map(|&size| Cell::Pct(cmp.gc_overhead(size, 64, cpu))),
            );
            ogc_table.row(row);
        }
    }
    notes.push(
        "paper shape: orbit/nbody/gambit ≤4% slow, ≤7.7% fast; nbody negative at 64-128k;".into(),
    );
    notes.push("imps volatile (thrashing); lp uniformly ≥40%.".into());
    Sweep {
        tables: vec![gc_table, ogc_table],
        notes,
        ..Sweep::default()
    }
}
