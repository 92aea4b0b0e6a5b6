//! Output checks: every pass is either held to the golden row it
//! reproduces or to a fingerprint pinned in `fingerprints.txt`, and its
//! exact counts must repeat from round to round.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cachegc_core::report::Cell;
use cachegc_core::{GcComparison, StoreStats, FAST, SLOW};
use cachegc_workloads::Workload;

use crate::suite::{Grid, Output, Pass, Tool};

/// FNV-1a 64 over whatever is written into it (`write!` streams a
/// `Debug` rendering through without building the string).
pub struct Fnv(u64);

impl Fnv {
    /// The FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

fn hash(f: impl FnOnce(&mut Fnv) -> std::fmt::Result) -> u64 {
    let mut h = Fnv::new();
    f(&mut h).expect("hashing cannot fail");
    h.finish()
}

/// The pass's exact counts and a hash of its full output: the line
/// `fingerprints.txt` pins. Store counts are the pass's own store for
/// captures; shared-store passes are checked for hit-only behaviour
/// separately (see [`store_delta`]).
pub fn fingerprint(pass: Pass, output: &Output, store: &StoreStats) -> String {
    let mut s = match output {
        Output::Control(r) => format!(
            "refs={} cells={} h={:016x}",
            r.refs,
            r.cells.len(),
            hash(|h| {
                write!(h, "{} {} {}", r.refs, r.i_prog, r.allocated)?;
                r.cells
                    .iter()
                    .try_for_each(|c| write!(h, "{:?}{:?}", c.config, c.stats.totals()))
            })
        ),
        Output::Collected(r) => format!(
            "collections={} cells={} h={:016x}",
            r.gc.collections,
            r.cells.len(),
            hash(|h| {
                write!(h, "{} {} {} {:?}", r.i_prog, r.i_gc, r.delta_i_prog, r.gc)?;
                r.cells.iter().try_for_each(|c| {
                    write!(
                        h,
                        "{:?}{} {}{:?}",
                        c.config,
                        c.m_prog,
                        c.m_gc,
                        c.stats.totals()
                    )
                })
            })
        ),
        Output::Record { stats, refs } => format!(
            "refs={refs} collections={} trace_bytes={} h={:016x}",
            stats.gc.collections,
            store.bytes,
            hash(|h| write!(h, "{stats:?}"))
        ),
        Output::Blocks(r) => {
            // The tracker keys blocks by hash map: order the two
            // per-block lists that inherit its iteration order.
            let mut multi = r.multi_cycle_activity.clone();
            multi.sort_unstable();
            let mut busy: Vec<_> = r.busy.iter().map(|b| (b.refs, b.addr)).collect();
            busy.sort_unstable();
            format!(
                "refs={} dyn_blocks={} h={:016x}",
                r.total_refs,
                r.dynamic_blocks,
                hash(|h| write!(
                    h,
                    "{} {} {} {} {:?} {:?} {multi:?} {busy:?}",
                    r.dynamic_blocks,
                    r.static_blocks,
                    r.stack_blocks,
                    r.one_cycle_dynamic,
                    r.dynamic_lifetimes,
                    r.dynamic_refs
                ))
            )
        }
        Output::Sweep(p) => format!(
            "columns={} h={:016x}",
            p.width(),
            hash(|h| write!(
                h,
                "{} {} {:?} {}",
                p.width(),
                p.height(),
                p.cache().stats().totals(),
                p.render_ascii(4000)
            ))
        ),
        Output::Activity(a) => format!(
            "entries={} h={:016x}",
            a.entries.len(),
            hash(|h| write!(h, "{a:?}"))
        ),
        Output::Assoc(c) => format!(
            "refs={} fetches={} h={:016x}",
            c.stats().refs(),
            c.stats().fetches(),
            hash(|h| write!(h, "{:?}", c.stats().totals()))
        ),
        Output::Timeline(t) => format!(
            "events={} windows={} h={:016x}",
            t.events,
            t.windows.len(),
            hash(|h| write!(h, "{t:?}"))
        ),
    };
    if !pass.shared() {
        write!(
            s,
            " store={}/{}/{}",
            store.hits, store.misses, store.entries
        )
        .expect("string write");
    }
    s
}

/// Shared-store passes must be pure hits: one more hit, no new miss or
/// entry.
pub fn store_delta(before: &StoreStats, after: &StoreStats) -> Result<(), String> {
    let ok = after.hits == before.hits + 1
        && after.misses == before.misses
        && after.entries == before.entries;
    if ok {
        Ok(())
    } else {
        Err(format!(
            "store hits/misses/entries went {}/{}/{} -> {}/{}/{}, expected one more hit",
            before.hits, before.misses, before.entries, after.hits, after.misses, after.entries
        ))
    }
}

/// The pinned fingerprints, keyed `(workload, pass label)`.
pub fn pinned(text: &str) -> BTreeMap<(String, String), String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.splitn(3, ' ');
            Some((
                (parts.next()?.to_string(), parts.next()?.to_string()),
                parts.next()?.to_string(),
            ))
        })
        .collect()
}

/// The golden CSVs the benchmark reproduces rows of, compiled in so a
/// run reads nothing but its own binary.
const E1: &str = include_str!("../../results/expected/e1_programs__programs.csv");
const E5_GC: &str = include_str!("../../results/expected/e5_gc_overhead__collections.csv");
const E5_OGC: &str = include_str!("../../results/expected/e5_gc_overhead__ogc.csv");
const E9: &str = include_str!("../../results/expected/e9_lifetimes__lifetimes.csv");
const E11: &str = include_str!("../../results/expected/e11_cache_activity__activity.csv");
const E14: &str = include_str!("../../results/expected/e14_collector_zoo__collections.csv");
const A1: &str = include_str!("../../results/expected/a1_associativity__assoc.csv");

/// Compare a computed row with the golden CSV line whose leading `key`
/// fields match it.
fn golden_row(name: &str, csv: &str, key: usize, row: &[Cell]) -> Result<(), String> {
    let ours: Vec<String> = row.iter().map(Cell::csv).collect();
    let line = csv
        .lines()
        .skip(1)
        .find(|l| {
            l.split(',')
                .take(key)
                .eq(ours.iter().take(key).map(String::as_str))
        })
        .ok_or_else(|| format!("{name}: no golden row {}", ours[..key].join(",")))?;
    let ours = ours.join(",");
    if line == ours {
        Ok(())
    } else {
        Err(format!("{name}: golden row\n  want {line}\n  got  {ours}"))
    }
}

const LIFETIME_POWERS: [u32; 7] = [14, 16, 18, 20, 22, 24, 26];

/// The golden rows one round's outputs reproduce. `outputs` holds the
/// round's passes that succeeded; a golden mismatch is reported against
/// the pass named in the returned list.
pub fn golden(outputs: &[(Pass, &Output)]) -> Vec<(Pass, String)> {
    let mut failures = Vec::new();
    let find = |want: Pass| outputs.iter().find(|(p, _)| *p == want).map(|(_, o)| *o);
    for &(pass, output) in outputs {
        let result = match (pass, output) {
            (Pass::Record(w, None), Output::Record { stats, refs }) => {
                let insns = stats.instructions.program();
                golden_row(
                    "e1 programs",
                    E1,
                    1,
                    &[
                        w.name().into(),
                        w.paper_analog().into(),
                        w.lines().into(),
                        stats.allocated_bytes.into(),
                        insns.into(),
                        (*refs).into(),
                        Cell::Float(*refs as f64 / insns as f64, 3),
                    ],
                )
            }
            (Pass::Record(Workload::Lambda, Some(spec)), Output::Record { stats, .. }) => {
                let gc = &stats.gc;
                golden_row(
                    "e14 collections",
                    E14,
                    1,
                    &[
                        spec.name().into(),
                        gc.collections.into(),
                        gc.minor_collections.into(),
                        gc.major_collections.into(),
                        gc.bytes_copied.into(),
                        gc.bytes_swept.into(),
                        gc.lines_reclaimed.into(),
                    ],
                )
            }
            (Pass::Grid(w, Grid::Cheney8), Output::Collected(run)) => {
                let control = match find(Pass::Grid(w, Grid::WriteValidate40)) {
                    Some(Output::Control(control)) => Some(control),
                    _ => None,
                };
                e5_rows(w, control, run)
            }
            (Pass::Analyze(w, Tool::Blocks), Output::Blocks(r)) => {
                let mut row = vec![Cell::text(w.name()), r.dynamic_blocks.into()];
                row.extend(
                    LIFETIME_POWERS
                        .iter()
                        .map(|&p| Cell::Pct(r.lifetime_cdf(1 << p))),
                );
                row.push(Cell::Pct(r.one_cycle_fraction()));
                golden_row("e9 lifetimes", E9, 1, &row)
            }
            (
                Pass::Analyze(w @ (Workload::Prove | Workload::Rewrite), Tool::Activity),
                Output::Activity(a),
            ) => golden_row(
                "e11 activity",
                E11,
                1,
                &[
                    Cell::text(format!("{}@64k", w.name())),
                    Cell::Float(a.global_miss_ratio, 4),
                    Cell::Float(a.max_cum_jump(), 4),
                    a.worst_case_blocks(0.25).into(),
                    a.best_case_blocks(0.01).into(),
                ],
            ),
            (Pass::Analyze(Workload::Nbody, Tool::Assoc), Output::Assoc(c)) => golden_row(
                "a1 associativity",
                A1,
                3,
                &[
                    Workload::Nbody.name().into(),
                    Cell::Bytes(c.config().size.into()),
                    c.config().assoc.into(),
                    c.stats().fetches().into(),
                    Cell::Float(c.stats().miss_ratio(), 4),
                ],
            ),
            _ => continue,
        };
        if let Err(e) = result {
            failures.push((pass, e));
        }
    }
    failures
}

/// e5's collections row for one program, and both O_gc rows when the
/// round also ran its control grid.
fn e5_rows(
    w: Workload,
    control: Option<&cachegc_core::ControlReport>,
    run: &cachegc_core::CollectedRun,
) -> Result<(), String> {
    golden_row(
        "e5 collections",
        E5_GC,
        1,
        &[
            w.name().into(),
            w.paper_analog().into(),
            run.gc.collections.into(),
            run.gc.bytes_copied.into(),
            run.i_gc.into(),
            run.delta_i_prog.into(),
        ],
    )?;
    let Some(control) = control else {
        return Ok(());
    };
    // `GcComparison` owns its halves; rebuild the pair from clones of
    // the cells the overhead formula reads.
    let cmp = GcComparison {
        control: cachegc_core::ControlReport {
            instance: control.instance,
            refs: control.refs,
            i_prog: control.i_prog,
            allocated: control.allocated,
            memory: control.memory,
            cells: control.cells.clone(),
        },
        collected: cachegc_core::CollectedRun {
            instance: run.instance,
            spec: run.spec,
            i_prog: run.i_prog,
            i_gc: run.i_gc,
            delta_i_prog: run.delta_i_prog,
            gc: run.gc,
            cells: run.cells.clone(),
        },
    };
    let sizes = Grid::Cheney8.config().cache_sizes;
    for cpu in [&SLOW, &FAST] {
        let mut row = vec![Cell::text(w.name()), Cell::text(cpu.name)];
        row.extend(
            sizes
                .iter()
                .map(|&s| Cell::Pct(cmp.gc_overhead(s, 64, cpu))),
        );
        golden_row("e5 ogc", E5_OGC, 2, &row)?;
    }
    Ok(())
}
