//! The estimator. A workload's passes run in `R` interleaved rounds.
//! Each pass is timed next to a fixed reference kernel, and its time is
//! rescaled to the host's full speed by the kernel's. A pass's estimate is
//! the median of its rescaled times, leaving out those taken while the
//! host ran more than twice as slow as its best in the run. The host's
//! slow episodes last seconds to minutes and, up to that point, slow the
//! kernel about as much as the passes (see `README.md`), so they drop out
//! of the estimate instead of landing in it.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::check;
use crate::spans::Tracer;
use crate::suite::{self, Bench, Output, Pass, State};

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Declared name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Declared unit.
    pub unit: String,
}

/// Shorthand constructor.
pub fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

/// The reference kernel's time at the host's full speed, seconds: its
/// fastest over three minutes on the reference host (a 2-vCPU x86-64
/// VM). Only sets the scale of normalized times.
pub const REFERENCE_FULL_SPEED_S: f64 = 0.003_4;

/// A fixed kernel in the benchmark's own code that gauges the host's
/// current speed: a 40-lane direct-mapped tag check over a strided
/// address stream (640 KiB of tags), the access pattern of a cache grid.
/// No program code runs in it, so no change under test can move it. On
/// this host it slows down with the passes (`noise/host-noise.txt`).
pub struct Reference {
    tags: Vec<u32>,
    fastest: f64,
}

impl Reference {
    /// Zeroed tag tables.
    pub fn new() -> Reference {
        Reference {
            tags: vec![0; 40 << 12],
            fastest: f64::INFINITY,
        }
    }

    /// The kernel's time now: the median of three runs (about 10 ms at
    /// full speed).
    pub fn time(&mut self) -> f64 {
        let t = median(&[self.once(), self.once(), self.once()]);
        self.fastest = self.fastest.min(t);
        t
    }

    /// The fastest [`Reference::time`] so far: the host's best speed in
    /// this run.
    pub fn fastest(&self) -> f64 {
        self.fastest
    }

    fn once(&mut self) -> f64 {
        let t = Instant::now();
        let mut addr = 0x1000_0000u32;
        let mut misses = 0u64;
        for k in 0..50_000u32 {
            addr = addr.wrapping_add(if k % 7 == 0 { 0x9e37_79b9 } else { 4 });
            for lane in 0..40usize {
                let shift = 4 + (lane % 5) as u32;
                let slot = lane << 12 | ((addr >> shift) as usize & 0xfff);
                let tag = addr >> (shift + 12);
                if self.tags[slot] != tag {
                    self.tags[slot] = tag;
                    misses += 1;
                }
            }
        }
        std::hint::black_box(misses);
        t.elapsed().as_secs_f64()
    }

    /// `secs` as measured, rescaled to the host's full speed by the
    /// kernel time `reference` taken alongside it.
    pub fn normalize(secs: f64, reference: f64) -> f64 {
        secs * REFERENCE_FULL_SPEED_S / reference
    }
}

/// Repetitions whose kernel time is within this factor of the run's
/// fastest kernel time feed an estimate. Up to about twice its full-speed
/// time the kernel slows as much as the passes; beyond, it slows more,
/// and the rescaled times read low (`noise/spread.txt`).
pub const NEAR_FASTEST: f64 = 2.0;

/// Fewest repetitions an estimate takes. When fewer were near the
/// run's fastest, it takes this many with the fastest kernel times.
pub const MIN_KEPT: usize = 3;

/// A run whose fastest kernel time stays above this many times its
/// full-speed time never saw the host near full speed: the run's
/// estimates may read low, and it says so.
pub const SLOW_RUN: f64 = 1.5;

/// One pass's (or set-up input's) estimate from its repetitions:
/// `times` as measured, `refs` the kernel time alongside each, `floor`
/// the run's fastest kernel time. The median of the rescaled times of
/// the repetitions taken within [`NEAR_FASTEST`] of the host's best
/// speed in the run.
pub fn estimate(times: &[f64], refs: &[f64], floor: f64) -> f64 {
    let mut reps: Vec<(f64, f64)> = refs.iter().copied().zip(times.iter().copied()).collect();
    reps.sort_by(|a, b| a.0.total_cmp(&b.0));
    let near = reps
        .iter()
        .filter(|(r, _)| *r <= NEAR_FASTEST * floor)
        .count();
    let kept = near.max(MIN_KEPT).min(reps.len());
    let scaled: Vec<f64> = reps[..kept]
        .iter()
        .map(|&(r, t)| Reference::normalize(t, r))
        .collect();
    median(&scaled)
}

/// Fewest rounds a run makes, however short `--seconds` is (the median
/// of three still rejects one outlier).
pub const MIN_ROUNDS: usize = 3;

/// A pinned round time that sizes the round count from `--seconds`:
/// one round of any workload takes 2.5–4.5 s on the reference host (a
/// 2-vCPU x86-64 VM) at its usual speeds, reference-kernel timings
/// included.
pub const NOMINAL_ROUND_S: f64 = 3.75;

/// Rounds for a `seconds`-long measurement: fixed by the nominal round
/// time, never by a measured one, so both sides of a comparison run the
/// same number.
pub fn rounds_for(seconds: f64) -> usize {
    ((seconds / NOMINAL_ROUND_S).round() as usize).max(MIN_ROUNDS)
}

/// SplitMix64: the seed's stream for pass order.
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Holds every pass to its pinned fingerprint and to its own first
/// round, or collects fresh fingerprints when blessing.
pub struct Checker {
    bench: Bench,
    pinned: BTreeMap<(String, String), String>,
    first: BTreeMap<String, String>,
    bless: bool,
}

impl Checker {
    /// A checker against the pinned fingerprints text.
    pub fn new(bench: Bench, pinned_text: &str, bless: bool) -> Checker {
        Checker {
            bench,
            pinned: check::pinned(pinned_text),
            first: BTreeMap::new(),
            bless,
        }
    }

    fn check(&mut self, label: &str, fp: String) -> Result<(), String> {
        if let Some(first) = self.first.get(label) {
            if *first != fp {
                return Err(format!(
                    "{label}: output changed between rounds: {first} -> {fp}"
                ));
            }
            return Ok(());
        }
        if !self.bless {
            let key = (self.bench.name().to_string(), label.to_string());
            match self.pinned.get(&key) {
                Some(want) if *want == fp => {}
                Some(want) => {
                    return Err(format!("{label}: fingerprint\n  want {want}\n  got  {fp}"));
                }
                None => return Err(format!("{label}: no pinned fingerprint")),
            }
        }
        self.first.insert(label.to_string(), fp);
        Ok(())
    }

    /// The fingerprints seen, as `fingerprints.txt` lines.
    pub fn lines(&self) -> Vec<String> {
        self.first
            .iter()
            .map(|(label, fp)| format!("{} {label} {fp}", self.bench.name()))
            .collect()
    }
}

/// What a measurement saw.
#[derive(Debug, Default)]
pub struct Measured {
    /// Pass labels, in declaration order.
    pub labels: Vec<String>,
    /// Every repetition of each pass, seconds as measured.
    pub times: Vec<Vec<f64>>,
    /// The reference kernel's time alongside each repetition.
    pub refs: Vec<Vec<f64>>,
    /// Each round's summed pass time, seconds as measured.
    pub round_walls: Vec<f64>,
    /// Passes attempted.
    pub attempted: u64,
    /// Passes that errored or whose output drifted.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Measured {
    /// Each pass's estimate (see [`estimate`]); `floor` is the run's
    /// fastest kernel time.
    pub fn estimates(&self, floor: f64) -> Vec<f64> {
        self.times
            .iter()
            .zip(&self.refs)
            .map(|(t, r)| estimate(t, r, floor))
            .collect()
    }

    /// One round at the host's full speed: every pass's estimate, summed.
    pub fn round_s(&self, floor: f64) -> f64 {
        self.estimates(floor).iter().sum()
    }

    /// How much slower than full speed the host ran: the median kernel
    /// time over its full-speed time.
    pub fn host_slowdown(&self) -> f64 {
        let all: Vec<f64> = self.refs.iter().flatten().copied().collect();
        median(&all) / REFERENCE_FULL_SPEED_S
    }

    /// Fold another measurement of the same workload into this one.
    pub fn merge(&mut self, m: Measured) {
        if self.labels.is_empty() {
            *self = m;
            return;
        }
        for (times, more) in self.times.iter_mut().zip(m.times) {
            times.extend(more);
        }
        for (refs, more) in self.refs.iter_mut().zip(m.refs) {
            refs.extend(more);
        }
        self.round_walls.extend(m.round_walls);
        self.attempted += m.attempted;
        self.failed += m.failed;
        self.failures.extend(m.failures);
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }
}

/// Median of a sample (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Run `rounds` rounds of `bench`, pass order permuted per round from
/// `seed`. With a tracer, every pass is a span with the engine call
/// nested inside it.
pub fn run(
    bench: Bench,
    state: &mut State,
    rounds: usize,
    seed: u64,
    checker: &mut Checker,
    tracer: Option<&Tracer>,
    reference: &mut Reference,
) -> Measured {
    let passes = bench.passes();
    let mut m = Measured {
        labels: passes.iter().map(|p| p.label()).collect(),
        times: vec![Vec::new(); passes.len()],
        refs: vec![Vec::new(); passes.len()],
        ..Measured::default()
    };
    let mut rng = SplitMix::new(seed);
    for _ in 0..rounds {
        let mut order: Vec<usize> = (0..passes.len()).collect();
        rng.shuffle(&mut order);
        let mut outputs: Vec<(Pass, Output)> = Vec::new();
        let mut wall = 0.0;
        let mut before_ref = reference.time();
        for idx in order {
            let pass = passes[idx];
            let before = state.store.stats();
            let t = Instant::now();
            let result = match tracer {
                Some(tr) => tr.span(&format!("bench.{}", pass.label()), || {
                    tr.span(engine_call(pass), || suite::run(pass, state))
                }),
                None => suite::run(pass, state),
            };
            let dt = t.elapsed().as_secs_f64();
            // The kernel runs on either side of the pass; a long pass
            // can straddle a change of speed.
            let after_ref = reference.time();
            wall += dt;
            m.times[idx].push(dt);
            m.refs[idx].push((before_ref + after_ref) / 2.0);
            before_ref = after_ref;
            m.attempted += 1;
            let done = match result {
                Ok(done) => done,
                Err(e) => {
                    m.fail(e);
                    continue;
                }
            };
            let verdict = if pass.shared() {
                check::store_delta(&before, &done.store)
                    .map_err(|e| format!("{}: {e}", pass.label()))
            } else {
                Ok(())
            }
            .and_then(|()| {
                checker.check(
                    &pass.label(),
                    check::fingerprint(pass, &done.output, &done.store),
                )
            });
            match verdict {
                Ok(()) => outputs.push((pass, done.output)),
                Err(e) => m.fail(e),
            }
            drop(done.retired);
        }
        let views: Vec<(Pass, &Output)> = outputs.iter().map(|(p, o)| (*p, o)).collect();
        for (pass, e) in check::golden(&views) {
            m.fail(format!("{}: {e}", pass.label()));
        }
        m.round_walls.push(wall);
    }
    m
}

/// The span name of the engine call a pass makes.
fn engine_call(pass: Pass) -> &'static str {
    match pass {
        Pass::Grid(_, suite::Grid::Cheney8) => "core.runner.collected",
        Pass::Grid(..) | Pass::CrewMiss(_) | Pass::CrewHit(_) => "core.runner.control",
        Pass::Record(..) | Pass::Analyze(..) => "core.runner.sinks",
    }
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(f64::NAN, |k| k as f64 / 1024.0)
}

fn status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// User plus system CPU seconds this process has used.
pub fn cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks (USER_HZ = 100).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_estimate_leaves_out_repetitions_far_slower_than_the_run_s_best() {
        let full = REFERENCE_FULL_SPEED_S;
        // The fifth repetition ran with the kernel at 3x: beyond
        // NEAR_FASTEST, so its low rescaled time (0.67) is left out.
        let times = [1.0, 1.0, 1.1, 1.0, 2.0];
        let refs = [full, full, full, full, 3.0 * full];
        assert!((estimate(&times, &refs, full) - 1.0).abs() < 1e-9);
        // Only one repetition is near the best: the MIN_KEPT fastest
        // kernel times fill in, rescaled to 1.0, 0.8 and 0.9.
        let times = [1.0, 2.4, 2.7];
        let refs = [full, 3.0 * full, 3.0 * full];
        assert!((estimate(&times, &refs, full) - 0.9).abs() < 1e-9);
    }
}
