//! Hot-path probe functions: write into the current thread's shard.
//!
//! Each function is a thread-local lookup plus a branch when a shard is
//! attached, and only the lookup when none is. Building with
//! `RUSTFLAGS="--cfg cachegc_probes_off"` compiles the bodies out, making
//! every probe (and the [`probe!`](crate::probe) macro) literally free.

use crate::Counter;
#[cfg(not(cachegc_probes_off))]
use crate::SHARD;
use std::time::Instant;

#[cfg(not(cachegc_probes_off))]
fn dur_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Add `n` to `counter` in the current thread's shard, if one is attached.
#[inline]
pub fn count(counter: Counter, n: u64) {
    #[cfg(not(cachegc_probes_off))]
    SHARD.with(|s| {
        if let Some(shard) = s.borrow_mut().as_mut() {
            shard.counters[counter as usize] += n;
        }
    });
    #[cfg(cachegc_probes_off)]
    let _ = (counter, n);
}

/// True if the current thread has a probe shard attached (telemetry is
/// live on this thread).
#[inline]
pub fn active() -> bool {
    #[cfg(not(cachegc_probes_off))]
    {
        SHARD.with(|s| s.borrow().is_some())
    }
    #[cfg(cachegc_probes_off)]
    {
        false
    }
}

/// True if the current thread's shard captures timestamped span records
/// (its registry was built with [`crate::Telemetry::with_spans`]). Check
/// before reading clocks for a span that would otherwise be discarded.
#[inline]
pub fn spans_active() -> bool {
    #[cfg(not(cachegc_probes_off))]
    {
        SHARD.with(|s| s.borrow().as_ref().is_some_and(|sh| sh.spans_enabled))
    }
    #[cfg(cachegc_probes_off)]
    {
        false
    }
}

/// Record a completed span that began at `start` and ends now, if the
/// current shard captures spans. `cat` groups spans in trace viewers.
#[inline]
pub fn span(name: &'static str, cat: &'static str, start: Instant) {
    #[cfg(not(cachegc_probes_off))]
    SHARD.with(|s| {
        if let Some(shard) = s.borrow_mut().as_mut() {
            if shard.spans_enabled {
                let start_ns = dur_ns(start.saturating_duration_since(shard.owner.epoch));
                shard.push_span(name, cat, start_ns, dur_ns(start.elapsed()));
            }
        }
    });
    #[cfg(cachegc_probes_off)]
    let _ = (name, cat, start);
}

/// Start a wall-clock span of the named phase. The span records into the
/// current thread's shard when dropped; if no shard is attached at start,
/// the span is inert and never reads a clock.
#[inline]
pub fn phase(name: &'static str) -> PhaseSpan {
    PhaseSpan::start(name, false)
}

/// As [`phase`], additionally sampling the thread's CPU time (via
/// `/proc/thread-self/schedstat` on Linux; elsewhere CPU time reads as 0).
/// Sampling is two small file reads per span — use for coarse phases
/// (whole passes), not per-pause spans.
#[inline]
pub fn phase_cpu(name: &'static str) -> PhaseSpan {
    PhaseSpan::start(name, true)
}

/// An in-flight phase span; records on drop.
#[derive(Debug)]
pub struct PhaseSpan {
    #[cfg(not(cachegc_probes_off))]
    name: &'static str,
    #[cfg(not(cachegc_probes_off))]
    start: Option<Instant>,
    #[cfg(not(cachegc_probes_off))]
    cpu_start: Option<u64>,
}

impl PhaseSpan {
    #[cfg(not(cachegc_probes_off))]
    fn start(name: &'static str, sample_cpu: bool) -> PhaseSpan {
        if !active() {
            return PhaseSpan {
                name,
                start: None,
                cpu_start: None,
            };
        }
        PhaseSpan {
            name,
            cpu_start: if sample_cpu { thread_cpu_ns() } else { None },
            start: Some(Instant::now()),
        }
    }

    #[cfg(cachegc_probes_off)]
    fn start(_name: &'static str, _sample_cpu: bool) -> PhaseSpan {
        PhaseSpan {}
    }
}

#[cfg(not(cachegc_probes_off))]
impl Drop for PhaseSpan {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let cpu_ns = match (self.cpu_start, thread_cpu_ns()) {
            (Some(t0), Some(t1)) => t1.saturating_sub(t0),
            _ => 0,
        };
        SHARD.with(|s| {
            if let Some(shard) = s.borrow_mut().as_mut() {
                shard
                    .phases
                    .entry(self.name)
                    .or_default()
                    .record(wall_ns, cpu_ns);
                if shard.spans_enabled {
                    let start_ns = dur_ns(start.saturating_duration_since(shard.owner.epoch));
                    shard.push_span(self.name, "phase", start_ns, wall_ns);
                }
            }
        });
    }
}

/// Nanoseconds this thread has spent on-CPU, from the scheduler. Linux
/// only; `None` where the kernel interface is unavailable.
#[cfg(not(cachegc_probes_off))]
fn thread_cpu_ns() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        text.split_whitespace().next()?.parse().ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;
    use std::sync::Arc;

    #[test]
    fn inert_span_outside_attach() {
        let span = phase("probe_unit_inert");
        drop(span);
        let t = Arc::new(Telemetry::new());
        assert!(t.snapshot().phase("probe_unit_inert").is_none());
        assert!(!active());
    }

    #[test]
    fn active_flag_tracks_attachment() {
        let t = Arc::new(Telemetry::new());
        assert!(!active());
        {
            let _g = t.attach();
            assert!(active());
        }
        assert!(!active());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn thread_cpu_time_is_monotonic() {
        // Kernels built without CONFIG_SCHEDSTATS (and some container
        // runtimes) expose no /proc/thread-self/schedstat; the probe
        // reports None there and gauges simply stay absent.
        let Some(a) = thread_cpu_ns() else { return };
        std::hint::black_box((0..1_000_000u64).sum::<u64>());
        let b = thread_cpu_ns().expect("schedstat stays readable once read");
        assert!(b >= a);
    }
}
