//! A1 (ablation) — direct-mapped vs set-associative caches. §4 restricts
//! the study to direct-mapped caches because that is what fast machines
//! ship; this ablation measures how much associativity would change the
//! picture for these workloads.
//!
//! The nine set-associative simulators ride one engine-driven pass per
//! workload (`--jobs`); the two workloads run concurrently.

use cachegc_core::report::{Cell, Table};
use cachegc_core::{CacheConfig, Runner, SetAssocCache};
use cachegc_workloads::Workload;

use super::{Experiment, Sweep};

pub static EXPERIMENT: Experiment = Experiment {
    name: "a1_associativity",
    title: "A1: associativity ablation (64b blocks)",
    about: "associativity ablation (64b blocks)",
    default_scale: 2,
    cells: 2,
    sweep,
};

fn sweep(scale: u32, runner: &Runner) -> Sweep {
    let sizes = [32 << 10, 64 << 10, 256 << 10u32];
    let ways = [1u32, 2, 4];

    let workloads = [Workload::Compile, Workload::Nbody];
    let passes = runner.map(&workloads, |inner, w| {
        eprintln!("running {} ...", w.name());
        let mut caches = Vec::new();
        for &size in &sizes {
            for &a in &ways {
                caches.push(SetAssocCache::new(
                    CacheConfig::direct_mapped(size, 64).with_assoc(a),
                ));
            }
        }
        let (_, out) = inner.sinks(w.scaled(scale), None, caches).unwrap();
        out
    });

    let mut table = Table::new(
        "assoc",
        &["program", "cache", "ways", "fetches", "miss_ratio"],
    );
    for (w, caches) in workloads.iter().zip(&passes) {
        for c in caches {
            table.row(vec![
                w.name().into(),
                Cell::Bytes(c.config().size.into()),
                c.config().assoc.into(),
                c.stats().fetches().into(),
                Cell::Float(c.stats().miss_ratio(), 4),
            ]);
        }
    }
    Sweep {
        tables: vec![table],
        notes: vec![
            "expectation: associativity helps modestly (conflict misses among busy blocks),".into(),
            "but linear allocation leaves little for LRU to exploit — supporting the".into(),
            "paper's focus on direct-mapped caches.".into(),
        ],
        ..Sweep::default()
    }
}
