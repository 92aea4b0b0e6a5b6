//! Telemetry enabled-overhead benchmark: the full `e4_write_policy`
//! sweep at the golden configuration, timed with telemetry off and with
//! telemetry gathered (probe shard attached, counters and phases live,
//! manifest assembled at the end). Each sample gets a fresh
//! [`TraceStore`], so every sample does the same work: record every
//! scenario once, then replay.
//!
//! Unlike the other benches this one interleaves its samples —
//! (baseline, instrumented) pairs, alternating — instead of running one
//! variant to completion first: a sweep sample is ~20 s, so back-to-back
//! blocks would let slow drift on a shared host (other tenants, thermal)
//! masquerade as overhead. Pairing cancels drift; the bench prints the
//! median of each column and the overhead between them.
//!
//! The probes' budget is <2 % enabled overhead (DESIGN.md §6c). On a
//! noisy machine the difference can still drown in run-to-run variance,
//! so the bench prints every pair and the spread of each column next to
//! the medians; it flags a budget miss but does not fail.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cachegc_bench::experiments;
use cachegc_bench::golden::{golden_engine, GOLDEN_SCALE};
use cachegc_core::{Manifest, ManifestConfig, Runner, Telemetry, TraceStore};

const SAMPLES: usize = 5;

fn main() {
    let e4 = experiments::find("e4_write_policy").expect("e4 is registered");
    let engine = golden_engine();

    let baseline_once = || {
        let store = TraceStore::unbounded();
        let runner = Runner::new(engine).with_store(&store);
        let start = Instant::now();
        std::hint::black_box((e4.sweep)(GOLDEN_SCALE, &runner));
        start.elapsed()
    };
    let instrumented_once = || {
        let store = TraceStore::unbounded();
        let telemetry = Arc::new(Telemetry::new());
        let start = Instant::now();
        {
            let runner = Runner::new(engine)
                .with_store(&store)
                .with_telemetry(&telemetry);
            let _shard = telemetry.attach();
            std::hint::black_box((e4.sweep)(GOLDEN_SCALE, &runner));
        }
        let manifest = Manifest::gather(
            ManifestConfig {
                experiment: e4.name.to_string(),
                scale: GOLDEN_SCALE,
                jobs: engine.jobs,
                jobs_requested: engine.jobs,
                trace_cache: "unbounded".into(),
            },
            &telemetry.snapshot(),
            Some(&store),
        );
        std::hint::black_box(manifest.to_json());
        start.elapsed()
    };

    // Untimed warm-up of each variant, then alternating timed pairs.
    baseline_once();
    instrumented_once();
    let mut baseline = Vec::with_capacity(SAMPLES);
    let mut instrumented = Vec::with_capacity(SAMPLES);
    for i in 0..SAMPLES {
        let b = baseline_once();
        let t = instrumented_once();
        eprintln!(
            "pair {}/{SAMPLES}: baseline {b:.3?}, telemetry {t:.3?} ({:+.2}%)",
            i + 1,
            100.0 * (t.as_secs_f64() / b.as_secs_f64() - 1.0),
        );
        baseline.push(b);
        instrumented.push(t);
    }

    println!(
        "e4 sweep at scale {GOLDEN_SCALE}, jobs {}, {SAMPLES} pairs",
        engine.jobs
    );
    let off = summarize("telemetry off", &mut baseline);
    let on = summarize("telemetry on + manifest", &mut instrumented);
    let overhead = on.as_secs_f64() / off.as_secs_f64().max(1e-9) - 1.0;
    println!(
        "telemetry enabled overhead: {:+.2}% (budget <2%){}",
        100.0 * overhead,
        if overhead < 0.02 {
            ""
        } else {
            "  ** OVER BUDGET **"
        }
    );
}

/// Print one column's median and range; return the median.
fn summarize(label: &str, samples: &mut [Duration]) -> Duration {
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    println!(
        "{label:28} median {median:>10.3?}  (range {:.3?} .. {:.3?})",
        samples[0],
        samples[samples.len() - 1]
    );
    median
}
