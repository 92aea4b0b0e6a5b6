//! Shared helpers for the experiment regenerators.
//!
//! Each table and figure in the paper's evaluation has a binary in
//! `src/bin/` that reruns the measurement and prints the same rows or
//! series the paper reports (see EXPERIMENTS.md for the index). Every
//! binary parses the same command line through
//! [`cli::ExperimentArgs`] — `--scale`, `--jobs`, `--csv` —
//! builds its rows as [`cachegc_core::report::Table`]s, and persists them
//! as CSV when `--csv` is passed.
//!
//! The sweeps themselves are library functions in [`experiments`] (the
//! binaries are shims over [`experiments::run_main`]), which is what lets
//! the [`golden`] regression harness run every experiment in-process and
//! diff its tables against the checked-in goldens in `results/expected/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod golden;

pub use cli::ExperimentArgs;

/// Format a fraction as a signed percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:+.2}%", 100.0 * x)
}

/// Format a byte count as `32k` / `4m`.
pub fn human_bytes(b: u32) -> String {
    cachegc_core::report::human_bytes(b.into())
}

/// Format a count with thousands separators.
pub fn commas(n: u64) -> String {
    cachegc_core::report::commas(n)
}

/// Print a header plus an underline.
pub fn header(title: &str) {
    println!("{title}");
    println!("{}", "=".repeat(title.len()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(pct(0.0534), "+5.34%");
        assert_eq!(pct(-0.001), "-0.10%");
        assert_eq!(human_bytes(32 << 10), "32k");
        assert_eq!(human_bytes(4 << 20), "4m");
        assert_eq!(commas(1234567), "1,234,567");
        assert_eq!(commas(42), "42");
    }
}
