//! The five test programs (§3 of the paper) and synthetic trace generators.
//!
//! The paper measures orbit (a Scheme compiler), imps (a theorem prover),
//! lp (a λ-calculus reduction engine), nbody (Zhao's linear-time N-body
//! algorithm), and gambit (a second, quite different compiler). Those exact
//! programs are not available, so this crate provides five real Scheme
//! programs in the same application classes, with the same qualitative
//! memory behaviors (see DESIGN.md §3 for the substitution argument):
//!
//! | paper   | here                | class                                 |
//! |---------|---------------------|---------------------------------------|
//! | orbit   | [`Workload::Compile`] | expression compiler: rename → emit → peephole |
//! | imps    | [`Workload::Prove`]   | propositional resolution prover (pigeonhole) |
//! | lp      | [`Workload::Lambda`]  | λ-calculus normalizer with a monotonically growing live structure |
//! | nbody   | [`Workload::Nbody`]   | O(N) cell-decomposition 3-D N-body, flonum-heavy |
//! | gambit  | [`Workload::Rewrite`] | pattern-matching source-to-source optimizer with long-lived term graphs |
//!
//! Each program is generated as Scheme source parameterized by a `scale`
//! knob; `scale = 1` is a seconds-long smoke run, larger scales approach
//! the paper's run lengths.
//!
//! The [`synthetic`] module provides native reference-stream generators
//! (no VM) for quick experiments on cache behaviors the paper describes:
//! one-cycle allocation sweeps, thrashing busy blocks, and monotonic live
//! growth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod programs;
pub mod synthetic;

use cachegc_gc::Collector;
use cachegc_trace::TraceSink;
use cachegc_vm::{Machine, RunStats, VmError};

/// One of the five test programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Mini Scheme compiler (the orbit analog).
    Compile,
    /// Resolution theorem prover (the imps analog).
    Prove,
    /// λ-calculus reduction engine (the lp analog).
    Lambda,
    /// Linear-time 3-D N-body simulation (nbody).
    Nbody,
    /// Pattern-matching expression optimizer (the gambit analog).
    Rewrite,
}

impl Workload {
    /// All five, in the paper's order.
    pub const ALL: [Workload; 5] = [
        Workload::Compile,
        Workload::Prove,
        Workload::Lambda,
        Workload::Nbody,
        Workload::Rewrite,
    ];

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::Prove => "prove",
            Workload::Lambda => "lambda",
            Workload::Nbody => "nbody",
            Workload::Rewrite => "rewrite",
        }
    }

    /// Which of the paper's programs this one stands in for.
    pub fn paper_analog(self) -> &'static str {
        match self {
            Workload::Compile => "orbit",
            Workload::Prove => "imps",
            Workload::Lambda => "lp",
            Workload::Nbody => "nbody",
            Workload::Rewrite => "gambit",
        }
    }

    /// The program's Scheme source at the given scale.
    pub fn source(self, scale: u32) -> String {
        match self {
            Workload::Compile => programs::compile_source(scale),
            Workload::Prove => programs::prove_source(scale),
            Workload::Lambda => programs::lambda_source(scale),
            Workload::Nbody => programs::nbody_source(scale),
            Workload::Rewrite => programs::rewrite_source(scale),
        }
    }

    /// Pair this workload with a scale.
    pub fn scaled(self, scale: u32) -> WorkloadInstance {
        WorkloadInstance {
            workload: self,
            scale,
        }
    }

    /// Source line count of the generated program at scale 1 (the "Lines"
    /// column of the §3 table).
    pub fn lines(self) -> usize {
        self.source(1)
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count()
    }
}

/// A workload at a concrete scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadInstance {
    /// Which program.
    pub workload: Workload,
    /// Scale knob: 1 = smoke run; each increment multiplies the input.
    pub scale: u32,
}

impl WorkloadInstance {
    /// Generated source text.
    pub fn source(&self) -> String {
        self.workload.source(self.scale)
    }

    /// Run the program on a fresh machine with the given collector and
    /// trace sink.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] from the run.
    pub fn run<C: Collector, S: TraceSink>(
        &self,
        gc: C,
        sink: S,
    ) -> Result<RunOutcome<C, S>, VmError> {
        let mut machine = Machine::new(gc, sink);
        let value = machine.run_program(&self.source())?;
        let result = machine.display_value(value);
        let stats = machine.stats();
        let output = machine.output().to_string();
        let (collector, sink) = machine.into_parts();
        Ok(RunOutcome {
            stats,
            result,
            output,
            collector,
            sink,
        })
    }
}

/// Everything a completed workload run yields.
#[derive(Debug)]
pub struct RunOutcome<C, S> {
    /// Instruction and allocation statistics.
    pub stats: RunStats,
    /// The program's final value, printed.
    pub result: String,
    /// Anything the program displayed.
    pub output: String,
    /// The collector, with its statistics.
    pub collector: C,
    /// The trace sink (caches, analyzers, counters).
    pub sink: S,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegc_gc::NoCollector;
    use cachegc_trace::RefCounter;

    #[test]
    fn names_and_analogs_are_distinct() {
        let mut names = std::collections::HashSet::new();
        let mut analogs = std::collections::HashSet::new();
        for w in Workload::ALL {
            assert!(names.insert(w.name()));
            assert!(analogs.insert(w.paper_analog()));
        }
    }

    #[test]
    fn sources_are_real_programs() {
        for w in Workload::ALL {
            assert!(w.lines() > 20, "{} is a real program", w.name());
        }
    }

    #[test]
    fn every_workload_runs_at_scale_1() {
        for w in Workload::ALL {
            let out = w
                .scaled(1)
                .run(NoCollector::new(), RefCounter::new())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(
                out.sink.total() > 100_000,
                "{}: {} refs",
                w.name(),
                out.sink.total()
            );
            assert!(out.stats.instructions.program() > out.sink.total());
            assert!(
                out.stats.allocated_bytes > 100_000,
                "{} allocates",
                w.name()
            );
        }
    }
}
