//! E1 — the §3 test-program table: lines, bytes allocated, instructions
//! executed, and data references for each program, run without collection.
//!
//! The five programs are independent trace passes, so `--jobs N` runs up
//! to N of them concurrently; the table is the same at every `N`.

use cachegc_core::report::{Cell, Table};
use cachegc_core::Runner;
use cachegc_trace::RefCounter;
use cachegc_workloads::Workload;

use super::{Experiment, Sweep};

pub static EXPERIMENT: Experiment = Experiment {
    name: "e1_programs",
    title: "E1: test programs (§3 table)",
    about: "the §3 test-program table",
    default_scale: 4,
    cells: 5,
    sweep,
};

fn sweep(scale: u32, runner: &Runner) -> Sweep {
    let outs = runner.map(&Workload::ALL, |inner, w| {
        let (stats, sinks) = inner
            .sinks(w.scaled(scale), None, vec![RefCounter::new()])
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let counter = sinks.into_iter().next().expect("one counter");
        (stats, counter)
    });

    let mut table = Table::new(
        "programs",
        &[
            "program",
            "analog",
            "lines",
            "alloc_bytes",
            "insns",
            "refs",
            "refs_per_insn",
        ],
    );
    for (w, (stats, counter)) in Workload::ALL.iter().zip(&outs) {
        let insns = stats.instructions.program();
        let refs = counter.total();
        table.row(vec![
            w.name().into(),
            w.paper_analog().into(),
            w.lines().into(),
            stats.allocated_bytes.into(),
            insns.into(),
            refs.into(),
            Cell::Float(refs as f64 / insns as f64, 3),
        ]);
    }
    Sweep {
        tables: vec![table],
        notes: vec![
            "paper: orbit 15k lines/263mb, imps 42k/1.8gb, lp 2.5k/216mb,".into(),
            "       nbody .6k/747mb, gambit 15k/527mb; refs/insns ≈ 0.26-0.29".into(),
        ],
        ..Sweep::default()
    }
}
