//! E11 — the §7 cache-activity graphs: cache blocks in ascending
//! reference-count order, each with its local miss ratio, plus the
//! cumulative miss / reference / miss-ratio curves. Four panels as in the
//! paper: compile at 64 KB, prove at 64 KB (the thrash-prone program),
//! rewrite at 64 KB (misses spread wide), and compile at 128 KB (the
//! larger cache tightens everything).
//!
//! Both compile panels ride *one* trace pass as a heterogeneous
//! [`Instrument`] set; `--jobs` drives the engine and the
//! three workloads run concurrently.

use cachegc_analysis::{Activity, ActivityTracker, Instrument};
use cachegc_core::report::{Cell, Table};
use cachegc_core::{CacheConfig, Runner};
use cachegc_workloads::Workload;

use super::{Experiment, Sweep};
use crate::human_bytes;

/// One workload's panels: the cache sizes it is decomposed at.
const GROUPS: [(Workload, &[u32]); 3] = [
    (Workload::Compile, &[64 << 10, 128 << 10]),
    (Workload::Prove, &[64 << 10]),
    (Workload::Rewrite, &[64 << 10]),
];

pub static EXPERIMENT: Experiment = Experiment {
    name: "e11_cache_activity",
    title: "E11: cache-activity decomposition (§7 figures)",
    about: "the §7 cache-activity decomposition (four panels)",
    default_scale: 2,
    cells: 3,
    sweep,
};

fn panel(w: Workload, cache_bytes: u32, act: &Activity, summary: &mut Table, deciles: &mut Table) {
    let name = format!("{}@{}", w.name(), human_bytes(cache_bytes));
    summary.row(vec![
        Cell::text(name.clone()),
        Cell::Float(act.global_miss_ratio, 4),
        Cell::Float(act.max_cum_jump(), 4),
        act.worst_case_blocks(0.25).into(),
        act.best_case_blocks(0.01).into(),
    ]);
    // Sample the cumulative curves at deciles of the block ordering.
    let n = act.entries.len();
    for decile in [50, 80, 90, 95, 99, 100] {
        let i = (n * decile / 100).saturating_sub(1);
        let e = &act.entries[i];
        deciles.row(vec![
            Cell::text(name.clone()),
            decile.into(),
            e.refs.into(),
            Cell::Pct(e.cum_ref_fraction),
            Cell::Pct(e.cum_miss_fraction),
            Cell::Float(e.cum_miss_ratio, 4),
        ]);
    }
}

fn sweep(scale: u32, runner: &Runner) -> Sweep {
    let activities: Vec<Vec<Activity>> = runner.map(&GROUPS, |inner, &(w, sizes)| {
        eprintln!(
            "running {} ({} panels in one pass) ...",
            w.name(),
            sizes.len()
        );
        let instruments: Vec<Instrument> = sizes
            .iter()
            .map(|&s| ActivityTracker::new(CacheConfig::direct_mapped(s, 64)).into())
            .collect();
        let (_, out) = inner
            .instruments(w.scaled(scale), None, instruments)
            .unwrap();
        out.into_iter()
            .map(|i| i.into_activity().expect("activity instrument"))
            .collect()
    });

    let mut summary = Table::new(
        "activity",
        &[
            "panel",
            "global_miss_ratio",
            "max_cum_jump",
            "worst_case",
            "best_case",
        ],
    );
    let mut deciles = Table::new(
        "deciles",
        &["panel", "pct", "refs", "cum_refs", "cum_miss", "cum_ratio"],
    );
    for (&(w, sizes), acts) in GROUPS.iter().zip(&activities) {
        for (&size, act) in sizes.iter().zip(acts) {
            panel(w, size, act, &mut summary, &mut deciles);
        }
    }
    Sweep {
        tables: vec![summary, deciles],
        notes: vec![
            "paper shape: most refs and misses concentrate in the most-referenced blocks;".into(),
            "best-case blocks pull the final cumulative miss ratio down (orbit: 0.027->0.017);"
                .into(),
            "thrashing appears as a jump in the cumulative curve; 128k beats 64k everywhere."
                .into(),
        ],
        ..Sweep::default()
    }
}
