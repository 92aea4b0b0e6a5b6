//! E14 — the collector zoo: every collection design in the tree (Cheney
//! semispace, generational with a large and with an aggressive
//! cache-sized nursery, Immix-style mark-region, and non-moving
//! mark-sweep) run over the same program under the §5 cache lens, plus
//! the §7 block-lifetime analysis for each design and for the
//! collection-disabled control.
//!
//! The interesting contrasts:
//!
//! * the compacting collectors pay `M_gc` for copying but reuse a small
//!   bump region; mark-sweep touches only live data plus headers but
//!   spreads allocation across the whole heap;
//! * Immix sits between: bump allocation into reclaimed lines, motion
//!   only for fragmented blocks, so `ΔI_prog` (table rehashing) appears
//!   only when evacuation actually moved something;
//! * mark-sweep never moves objects, so its `ΔI_prog` is exactly the
//!   zero the paper predicts for non-moving collection.
//!
//! `--jobs N` runs lambda's control pass once, then the five collected
//! passes concurrently, each paired with that control, and then the six
//! block-lifetime passes concurrently.

use cachegc_analysis::BlockTracker;
use cachegc_core::report::{Cell, Table};
use cachegc_core::{CollectorSpec, ExperimentConfig, Runner, FAST, SLOW};
use cachegc_workloads::Workload;

use super::{comparisons, Experiment, Sweep};
use crate::human_bytes;

pub static EXPERIMENT: Experiment = Experiment {
    name: "e14_collector_zoo",
    title: "E14: the collector zoo under the cache lens (§5, §7)",
    about: "five collector designs: cache overheads and block lifetimes",
    default_scale: 2,
    cells: 12,
    sweep,
};

/// The zoo. Heaps are sized so every design collects at scale 1: the
/// Immix and mark-sweep heaps match the Cheney collector's total
/// footprint (two 2 MB semispaces).
const SPECS: [CollectorSpec; 5] = [
    CollectorSpec::Cheney {
        semispace_bytes: 2 << 20,
    },
    CollectorSpec::Generational {
        nursery_bytes: 1 << 20,
        old_bytes: 24 << 20,
    },
    CollectorSpec::Generational {
        nursery_bytes: 256 << 10,
        old_bytes: 24 << 20,
    },
    CollectorSpec::Immix {
        heap_bytes: 4 << 20,
    },
    CollectorSpec::MarkSweep {
        heap_bytes: 4 << 20,
    },
];

fn sweep(scale: u32, runner: &Runner) -> Sweep {
    // The `ogc` table reads only 64-byte blocks, so only those cells are
    // simulated: 8 of the paper grid's 40 per pass.
    let mut cfg = ExperimentConfig::paper();
    cfg.block_sizes = vec![64];
    let w = Workload::Lambda.scaled(scale);

    let mut gc_table = Table::new(
        "collections",
        &[
            "collector",
            "collections",
            "minor",
            "major",
            "bytes_copied",
            "bytes_swept",
            "lines_reclaimed",
        ],
    );
    let mut cols = vec!["collector".to_string(), "cpu".to_string()];
    cols.extend(cfg.cache_sizes.iter().map(|&s| human_bytes(s)));
    let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut ogc_table = Table::new("ogc", &cols);
    for (spec, cmp) in SPECS.iter().zip(comparisons(runner, w, &cfg, &SPECS)) {
        let cmp = cmp.unwrap_or_else(|e| panic!("{e}"));
        gc_table.row(vec![
            spec.name().into(),
            cmp.collected.gc.collections.into(),
            cmp.collected.gc.minor_collections.into(),
            cmp.collected.gc.major_collections.into(),
            cmp.collected.gc.bytes_copied.into(),
            cmp.collected.gc.bytes_swept.into(),
            cmp.collected.gc.lines_reclaimed.into(),
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

    // §7 lens: how each design reshapes dynamic-block lifetimes. The
    // control row is the allocation pattern with no collector at all.
    let designs: Vec<Option<CollectorSpec>> = std::iter::once(None)
        .chain(SPECS.into_iter().map(Some))
        .collect();
    let reports = runner.map(&designs, |inner, spec| {
        let (_, sinks) = inner
            .sinks(w, *spec, vec![BlockTracker::new(64 << 10, 64)])
            .unwrap_or_else(|e| panic!("{e}"));
        sinks.into_iter().next().expect("one tracker").finish()
    });
    let mut blocks_table = Table::new(
        "blocks",
        &[
            "collector",
            "dyn_blocks",
            "med_refs",
            "one_cycle",
            "busy_refs",
        ],
    );
    for (spec, r) in designs.iter().zip(&reports) {
        blocks_table.row(vec![
            Cell::text(spec.map_or_else(|| "none".to_string(), |s| s.name())),
            r.dynamic_blocks.into(),
            r.median_dynamic_refs().into(),
            Cell::Pct(r.one_cycle_fraction()),
            Cell::Pct(r.busy_refs_fraction()),
        ]);
    }

    Sweep {
        tables: vec![gc_table, ogc_table, blocks_table],
        notes: vec![
            "paper shape: compacting designs pay M_gc at small caches; mark-sweep".into(),
            "has zero bytes_copied and zero GC-induced program work; Immix copies".into(),
            "only out of fragmented blocks, so its bytes_copied sits far below".into(),
            "Cheney's while its lines_reclaimed accounts for the rest.".into(),
        ],
        ..Sweep::default()
    }
}
