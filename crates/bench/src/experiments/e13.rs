//! E13 — the §8 conjecture: *allocation can be faster than mutation*.
//!
//! The paper closes by conjecturing that a mostly-functional program that
//! "rides the allocation wave" — loading from just-allocated data in front
//! of the crest and storing fresh results just behind it — can out-perform
//! an imperative program whose objects are updated in place, because the
//! functional program's references are concentrated where the cache is
//! already warm, while the imperative program's locality is a matter of
//! chance.
//!
//! We measure the same computation on the *same data structure*: a
//! 4,096-pair list transformed over many generations — functional:
//! rebuild the list each generation (pure allocation, the old generation
//! becomes garbage); imperative: `set-car!` every pair of one long-lived
//! list in place. Both walk 48 KB of pairs per generation; the functional
//! version also allocates 48 KB per generation, which write-validate
//! makes free at the cache level.
//!
//! The cache grid of each variant rides the engine as `GridCache` shards
//! ([`Runner::drive_grid`], under `--jobs`).

use cachegc_core::report::{Cell, Table};
use cachegc_core::{miss_penalty_cycles, ExperimentConfig, Runner, FAST, SLOW};
use cachegc_gc::NoCollector;
use cachegc_trace::Context;
use cachegc_vm::Machine;

use super::{Experiment, Sweep};
use crate::human_bytes;

pub static EXPERIMENT: Experiment = Experiment {
    name: "e13_allocation_vs_mutation",
    title: "E13: allocation vs mutation (§8 conjecture 3)",
    about: "allocation vs mutation (§8 conjecture 3)",
    default_scale: 4,
    cells: 2,
    sweep,
};

fn functional(gens: u32) -> String {
    format!(
        "
(define (build n)
  (let loop ((i 0) (acc '()))
    (if (= i n) acc (loop (+ i 1) (cons i acc)))))
(define (evolve l)
  (if (null? l) '() (cons (+ (car l) 1) (evolve (cdr l)))))
(let loop ((g 0) (l (build 4096)) (sum 0))
  (if (= g {gens})
      sum
      (loop (+ g 1) (evolve l) (+ sum (car l)))))
"
    )
}

fn imperative(gens: u32) -> String {
    format!(
        "
(define (build n)
  (let loop ((i 0) (acc '()))
    (if (= i n) acc (loop (+ i 1) (cons i acc)))))
(define l (build 4096))
(define (evolve! l)
  (if (null? l) 'done
      (begin (set-car! l (+ (car l) 1)) (evolve! (cdr l)))))
(let loop ((g 0) (sum 0))
  (if (= g {gens})
      sum
      (begin (evolve! l) (loop (+ g 1) (+ sum (car l))))))
"
    )
}

fn measure(name: &str, src: &str, cfg: &ExperimentConfig, runner: &Runner, table: &mut Table) {
    // One pass: the grid rides the engine; reference and instruction
    // volumes come from the first cell's statistics and the machine.
    let (i_prog, cells) = runner.drive_grid(cfg.configs(), |fan| {
        let mut m = Machine::new(NoCollector::new(), fan);
        m.run_program(src).expect("runs");
        m.counters().program()
    });
    let refs = cells[0].stats.refs_by(Context::Mutator);

    eprintln!("{name}: {refs} refs, {i_prog} instructions");
    for cpu in [&SLOW, &FAST] {
        let mut row = vec![Cell::text(name), Cell::text(cpu.name)];
        row.extend(cells.iter().map(|cell| {
            let p = miss_penalty_cycles(&cfg.memory, cpu, cell.config.block);
            Cell::Pct((cell.stats.fetches() * p) as f64 / i_prog as f64)
        }));
        table.row(row);
    }
}

fn sweep(scale: u32, runner: &Runner) -> Sweep {
    // E13's variants are ad-hoc Scheme sources, not registered workloads,
    // so there is no scenario key for them — both passes stay live.
    let gens = 150 * scale;
    let mut cfg = ExperimentConfig::paper();
    cfg.block_sizes = vec![64];
    cfg.cache_sizes = vec![32 << 10, 64 << 10, 256 << 10, 1 << 20];

    let mut cols = vec!["variant".to_string(), "cpu".to_string()];
    cols.extend(cfg.cache_sizes.iter().map(|&s| human_bytes(s)));
    let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut table = Table::new("overhead", &cols);
    measure("functional", &functional(gens), &cfg, runner, &mut table);
    measure("imperative", &imperative(gens), &cfg, runner, &mut table);
    Sweep {
        tables: vec![table],
        notes: vec![
            "reading: the functional version's working set is twice the imperative".into(),
            "version's (old + new generation vs one list), so mutation wins while the".into(),
            "list fits in cache and the two tie once neither does extra work — i.e.,".into(),
            "the conjecture holds only where the imperative program's locality is poor;".into(),
            "against a compact, reused imperative structure, allocation is not faster.".into(),
        ],
        ..Sweep::default()
    }
}
