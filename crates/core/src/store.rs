//! Scenario-keyed trace store: record a workload's trace on first
//! request, replay it thereafter.
//!
//! The experiments re-run identical scenarios constantly — `compile`
//! under `NoCollector` at scale 1 is re-interpreted by e1, e3, e4
//! (twice), e8–e13 — even though the engine's bit-identity guarantees
//! make every one of those trace passes byte-equal. A [`TraceStore`]
//! memoizes the trace (as a compact [`RecordedTrace`]) and the
//! [`RunStats`] per `(Workload, scale, Option<CollectorSpec>)` scenario,
//! so the VM+GC execute once per scenario and every later pass is a
//! cheap decode.
//!
//! The store is a cache, never a correctness dependency, and it absorbs
//! traffic with three coordinated layers:
//!
//! * **LRU eviction.** A byte budget caps the heap footprint; when a
//!   capture needs room, the least-recently-hit resident scenario is
//!   evicted (entries pinned by an in-flight replay — anything still
//!   holding the [`Arc<StoredTrace>`] — are skipped). Only when nothing
//!   evictable remains is a capture dropped as over-budget.
//! * **Disk spill.** With a spill directory attached, every stored
//!   capture writes through to a checksummed segment file
//!   (`<dir>/<scenario>.seg`, see [`crate::spill`]), so eviction is a
//!   cheap drop and a cold [`TraceStore::acquire`] reads the scenario
//!   back into the heap instead of re-running the VM. A spill load is
//!   charged against the byte budget and makes room by eviction exactly
//!   as a capture does; one that cannot fit still serves its hit, unkept.
//!   Corrupt or stale files are rejected and the scenario records live;
//!   never an error.
//! * **Single-flight recording.** [`TraceStore::acquire`], the store's
//!   one way in, registers a miss as an in-flight recording (a
//!   [`RecordTicket`]); concurrent acquires of the same scenario block
//!   until the leader's offer lands and then replay it, so the same VM
//!   run is never executed twice. The ticket's recorder charges its
//!   bytes against the shared budget *while recording* (see
//!   [`cachegc_trace::RecordBudget`]), so the combined footprint of
//!   resident and in-flight bytes never exceeds the budget.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use cachegc_telemetry::{probe, Counter};
use cachegc_trace::{RecordBudget, RecordedTrace, Recorder};
use cachegc_vm::RunStats;
use cachegc_workloads::WorkloadInstance;

use crate::experiment::CollectorSpec;
use crate::spill::SpillDir;

/// A store key: one unique VM execution scenario.
type ScenarioKey = (WorkloadInstance, Option<CollectorSpec>);

/// The stable human label of a scenario, used to key the per-scenario
/// gauges, to name spill files, and to name scenarios in warnings and
/// the run manifest: `workload@scale`, with `+collector` appended for
/// collected runs (e.g. `compile@1+cheney/2.0M`).
pub fn scenario_label(instance: WorkloadInstance, spec: Option<CollectorSpec>) -> String {
    match spec {
        None => format!("{}@{}", instance.workload.name(), instance.scale),
        Some(spec) => format!(
            "{}@{}+{}",
            instance.workload.name(),
            instance.scale,
            spec.name()
        ),
    }
}

/// A captured scenario: the compact trace plus the [`RunStats`] the live
/// run produced, so replay consumers never need the VM.
#[derive(Debug, Clone)]
pub struct StoredTrace {
    /// The compact event stream.
    pub trace: RecordedTrace,
    /// Instruction/allocation/GC statistics of the recorded run.
    pub stats: RunStats,
}

/// Hit/miss/size accounting for a [`TraceStore`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups that found a recorded trace (resident, coalesced onto an
    /// in-flight recording, or re-materialized from a spill file).
    pub hits: u64,
    /// Lookups that found nothing (each miss triggers one live VM run).
    pub misses: u64,
    /// Captures and spill loads not kept because they would exceed the
    /// byte budget with nothing left to evict. Every miss runs live and
    /// offers its recording back, and every spill load is kept or counted
    /// here, so `misses + spill_loads == entries + evictions +
    /// over_budget` once all offers have landed.
    pub over_budget: u64,
    /// Scenarios currently stored.
    pub entries: u64,
    /// Encoded bytes currently resident.
    pub bytes: u64,
    /// Events currently stored.
    pub events: u64,
    /// Scenarios evicted to make room for newer captures.
    pub evictions: u64,
    /// Heap bytes freed by eviction, cumulative.
    pub bytes_evicted: u64,
    /// Captures written through to spill segment files.
    pub spills: u64,
    /// Scenarios re-materialized from spill files (each counts a hit and
    /// an entry or an over-budget drop, but no miss — no VM ran).
    pub spill_loads: u64,
    /// Spill files ignored because they failed validation (bad magic,
    /// label, length, or checksum); the scenario recorded live instead.
    pub spill_rejects: u64,
    /// Acquires that blocked on an in-flight recording of the same
    /// scenario and then replayed it (single-flight dedupe; each also
    /// counts a hit).
    pub coalesced: u64,
    /// Bytes currently reserved by in-flight recordings.
    pub reserved: u64,
    /// High-water mark of resident + reserved bytes; never exceeds the
    /// budget of a bounded store.
    pub peak_bytes: u64,
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits, {} misses, {} entries ({:.1} MiB, {:.1} M events), {} over budget, {} evictions ({:.1} MiB), {} spills, {} spill loads, {} coalesced",
            self.hits,
            self.misses,
            self.entries,
            self.bytes as f64 / (1 << 20) as f64,
            self.events as f64 / 1e6,
            self.over_budget,
            self.evictions,
            self.bytes_evicted as f64 / (1 << 20) as f64,
            self.spills,
            self.spill_loads,
            self.coalesced,
        )
    }
}

/// Per-scenario accounting: how one scenario used the store and what its
/// capture cost. Sorted by label in [`TraceStore::scenario_gauges`] and
/// the run manifest.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioGauges {
    /// Lookups of this scenario that replayed.
    pub hits: u64,
    /// Lookups of this scenario that ran live.
    pub misses: u64,
    /// Encoded bytes resident for this scenario (0 until stored, reset
    /// to 0 by eviction).
    pub bytes: u64,
    /// Events resident for this scenario (0 until stored).
    pub events: u64,
    /// Wall time spent on recording passes for this scenario,
    /// nanoseconds — including captures the store went on to drop.
    pub record_ns: u64,
    /// Times this scenario was evicted.
    pub evictions: u64,
    /// Times this scenario was re-materialized from its spill file.
    pub spill_loads: u64,
}

/// What an offer did with a finished capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfferOutcome {
    /// Kept: resident with this many encoded bytes and events.
    Stored {
        /// Encoded bytes now resident for the scenario.
        bytes: u64,
        /// Events now resident for the scenario.
        events: u64,
        /// True when the capture also wrote through to its spill file.
        spilled: bool,
    },
    /// Dropped: the recorder overflowed its limit / budget, or keeping
    /// the capture would exceed the byte budget with nothing evictable.
    DroppedOverBudget,
}

/// How a [`TraceStore::acquire`] hit found its trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitSource {
    /// The scenario was resident.
    Resident,
    /// The scenario was re-materialized from its spill file.
    SpillLoad,
    /// The acquire blocked on an in-flight recording and replays its
    /// result (single-flight dedupe).
    Coalesced,
}

/// The result of [`TraceStore::acquire`]: replay a hit, or record under
/// the returned ticket.
#[derive(Debug)]
pub enum Acquired {
    /// The scenario is available: replay it.
    Hit {
        /// The recorded scenario.
        trace: Arc<StoredTrace>,
        /// Where it came from.
        source: HitSource,
    },
    /// The scenario must run live; this acquire holds the (single)
    /// recording flight for it.
    Miss(RecordTicket),
}

/// One resident scenario plus its cache metadata. Its budget charge is
/// the trace's encoded bytes.
#[derive(Debug)]
struct Resident {
    stored: Arc<StoredTrace>,
    /// Logical-clock timestamp of the last hit (or the insert).
    last_use: u64,
    label: String,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<ScenarioKey, Resident>,
    /// Scenarios with a recording in flight; acquires of these block.
    inflight: HashSet<ScenarioKey>,
    /// Bytes reserved by in-flight recorders.
    reserved: u64,
    /// Logical LRU clock, bumped on every hit and insert.
    clock: u64,
    stats: StoreStats,
    gauges: BTreeMap<String, ScenarioGauges>,
}

impl Inner {
    fn footprint(&self) -> u64 {
        self.stats.bytes + self.reserved
    }

    fn note_peak(&mut self) {
        let fp = self.footprint();
        if fp > self.stats.peak_bytes {
            self.stats.peak_bytes = fp;
        }
    }

    /// Make room for `n` more bytes under `budget`, evicting
    /// least-recently-used unpinned entries (an entry with a live replay
    /// borrow is pinned). Returns whether the bytes now fit. Evictions
    /// are counted here, on the thread whose charge forced them.
    fn make_room(&mut self, budget: u64, n: u64) -> bool {
        while self.footprint().saturating_add(n) > budget {
            let Some(key) = self
                .map
                .iter()
                .filter(|(_, r)| Arc::strong_count(&r.stored) == 1)
                .min_by_key(|(_, r)| r.last_use)
                .map(|(k, _)| *k)
            else {
                return false;
            };
            let victim = self.map.remove(&key).expect("victim is resident");
            let bytes = victim.stored.trace.bytes();
            self.stats.entries -= 1;
            self.stats.bytes -= bytes;
            self.stats.events -= victim.stored.trace.events();
            self.stats.evictions += 1;
            self.stats.bytes_evicted += bytes;
            probe!(Counter::StoreEvictions);
            probe!(Counter::StoreBytesEvicted, bytes);
            let gauge = self.gauges.entry(victim.label).or_default();
            gauge.bytes = 0;
            gauge.events = 0;
            gauge.evictions += 1;
        }
        true
    }

    /// Keep `stored` resident if room can be made for it; otherwise count
    /// it over budget. Returns whether it was kept.
    fn admit(
        &mut self,
        budget: u64,
        key: ScenarioKey,
        label: &str,
        stored: &Arc<StoredTrace>,
    ) -> bool {
        let bytes = stored.trace.bytes();
        let events = stored.trace.events();
        if !self.make_room(budget, bytes) {
            self.stats.over_budget += 1;
            return false;
        }
        self.clock += 1;
        self.stats.entries += 1;
        self.stats.bytes += bytes;
        self.stats.events += events;
        self.note_peak();
        let gauge = self.gauges.entry(label.to_string()).or_default();
        gauge.bytes = bytes;
        gauge.events = events;
        self.map.insert(
            key,
            Resident {
                stored: Arc::clone(stored),
                last_use: self.clock,
                label: label.to_string(),
            },
        );
        true
    }
}

#[derive(Debug)]
struct Shared {
    budget: u64,
    spill: Option<SpillDir>,
    inner: Mutex<Inner>,
    /// Signalled whenever an in-flight recording resolves (offer lands
    /// or ticket is cancelled), waking coalesced acquires.
    flights: Condvar,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("trace store poisoned")
    }

    /// Write a stored scenario through to its spill file; returns
    /// whether the write landed (failures leave the entry heap-only —
    /// the store is a cache, a failed spill is not an error).
    fn write_through(&self, label: &str, stored: &StoredTrace) -> bool {
        let Some(spill) = &self.spill else {
            return false;
        };
        if spill.write(label, &stored.trace, &stored.stats).is_err() {
            return false;
        }
        self.lock().stats.spills += 1;
        true
    }

    /// Try to re-materialize a scenario from its spill file; the caller
    /// already holds the flight for `key`. `Some` resolves the flight as
    /// a hit, kept resident if the budget can make room for it; `None`
    /// (missing or rejected file) leaves the flight open for a live
    /// recording.
    fn load_spilled(&self, key: ScenarioKey, label: &str) -> Option<Arc<StoredTrace>> {
        let spill = self.spill.as_ref()?;
        match spill.read(label) {
            Ok(Some(segment)) => {
                let stored = Arc::new(StoredTrace {
                    trace: segment.trace,
                    stats: segment.stats,
                });
                let mut inner = self.lock();
                inner.admit(self.budget, key, label, &stored);
                inner.stats.spill_loads += 1;
                inner.stats.hits += 1;
                let gauge = inner.gauges.entry(label.to_string()).or_default();
                gauge.hits += 1;
                gauge.spill_loads += 1;
                inner.inflight.remove(&key);
                drop(inner);
                self.flights.notify_all();
                Some(stored)
            }
            Ok(None) => None,
            Err(reject) => {
                let mut inner = self.lock();
                inner.stats.spill_rejects += 1;
                drop(inner);
                // Corrupt or stale files are never an error — fall back
                // to live recording — but say why on stderr so a wiped
                // warm-start is explainable.
                eprintln!("warning: ignoring spill file for '{label}': {reject}");
                None
            }
        }
    }
}

/// The in-flight byte reservation for one recording flight: a
/// [`RecordBudget`] that charges against the shared store (evicting to
/// make room), so concurrent recorders can never collectively balloon
/// past the budget.
#[derive(Debug)]
struct FlightCharge {
    shared: Arc<Shared>,
    /// This flight's currently reserved bytes (mirror of its share of
    /// `Inner::reserved`).
    outstanding: AtomicU64,
}

impl RecordBudget for FlightCharge {
    fn try_charge(&self, n: u64) -> bool {
        let mut inner = self.shared.lock();
        if !inner.make_room(self.shared.budget, n) {
            return false;
        }
        inner.reserved += n;
        inner.stats.reserved = inner.reserved;
        inner.note_peak();
        self.outstanding.fetch_add(n, Ordering::Relaxed);
        true
    }

    fn release(&self, n: u64) {
        let mut inner = self.shared.lock();
        inner.reserved = inner.reserved.saturating_sub(n);
        inner.stats.reserved = inner.reserved;
        self.outstanding.fetch_sub(
            n.min(self.outstanding.load(Ordering::Relaxed)),
            Ordering::Relaxed,
        );
    }
}

/// The exclusive right (and duty) to record one missed scenario.
///
/// Returned by [`TraceStore::acquire`] on a miss. Record the live run
/// through [`RecordTicket::recorder`] and hand it back with
/// [`RecordTicket::offer`]; concurrent acquires of the same scenario
/// block until then. Dropping the ticket without offering cancels the
/// flight (waiters wake and the first becomes the new leader), so a
/// failed run never wedges the store.
#[derive(Debug)]
pub struct RecordTicket {
    shared: Arc<Shared>,
    key: ScenarioKey,
    label: String,
    charge: Arc<FlightCharge>,
    done: bool,
}

impl RecordTicket {
    /// The scenario's label (for warnings and progress lines).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// A recorder whose bytes are reserved against the store's budget
    /// *while recording* — the in-flight capture can evict cold entries
    /// to make room, and overflows (releasing every reservation) once
    /// nothing more can be charged.
    pub fn recorder(&self) -> Recorder {
        Recorder::with_limit(self.shared.budget)
            .with_budget(self.charge.clone() as Arc<dyn RecordBudget>)
    }

    /// Resolve the flight with a finished recording (wall time charged
    /// to the scenario's encode gauge whatever the outcome). Waiters
    /// wake either way; on [`OfferOutcome::Stored`] they replay the
    /// capture, otherwise they become leaders themselves.
    pub fn offer(
        mut self,
        recorder: Recorder,
        stats: RunStats,
        record_wall: Duration,
    ) -> OfferOutcome {
        self.done = true;
        let record_ns = u64::try_from(record_wall.as_nanos()).unwrap_or(u64::MAX);
        let shared = self.shared.clone();
        // `finish` releases the recorder's slack; whatever the flight
        // still holds is returned below and re-charged under the same
        // lock, so the space cannot be stolen in between.
        let finished = recorder.finish();
        let mut inner = shared.lock();
        inner
            .gauges
            .entry(self.label.clone())
            .or_default()
            .record_ns += record_ns;
        let still_reserved = self.charge.outstanding.swap(0, Ordering::Relaxed);
        inner.reserved = inner.reserved.saturating_sub(still_reserved);
        inner.stats.reserved = inner.reserved;
        // The flight is single: nothing else can have stored the
        // scenario while this ticket held it.
        debug_assert!(!inner.map.contains_key(&self.key));
        let kept = match finished {
            None => {
                inner.stats.over_budget += 1;
                None
            }
            Some(trace) => {
                let stored = Arc::new(StoredTrace { trace, stats });
                inner
                    .admit(shared.budget, self.key, &self.label, &stored)
                    .then_some(stored)
            }
        };
        inner.inflight.remove(&self.key);
        drop(inner);
        shared.flights.notify_all();
        match kept {
            None => OfferOutcome::DroppedOverBudget,
            Some(stored) => OfferOutcome::Stored {
                bytes: stored.trace.bytes(),
                events: stored.trace.events(),
                spilled: shared.write_through(&self.label, &stored),
            },
        }
    }
}

impl Drop for RecordTicket {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        // Cancelled flight (e.g. the live run failed): any recorder
        // charge is released by the recorder's own drop; here we just
        // re-open the scenario and wake waiters so one of them can lead.
        let mut inner = self.shared.lock();
        inner.inflight.remove(&self.key);
        drop(inner);
        self.shared.flights.notify_all();
    }
}

/// A thread-safe scenario-keyed cache of recorded traces.
///
/// Shared by reference ([`Runner::with_store`](crate::Runner::with_store))
/// across every experiment in a process, so one `golden_check`
/// invocation executes each unique scenario's VM exactly once.
#[derive(Debug)]
pub struct TraceStore {
    shared: Arc<Shared>,
}

impl TraceStore {
    /// A store with no byte budget.
    pub fn unbounded() -> Self {
        Self::with_budget(u64::MAX)
    }

    /// A store bounded to `bytes` of resident + in-flight encoded bytes,
    /// evicting least-recently-hit scenarios to stay under it.
    pub fn with_budget(bytes: u64) -> Self {
        TraceStore {
            shared: Arc::new(Shared {
                budget: bytes,
                spill: None,
                inner: Mutex::new(Inner::default()),
                flights: Condvar::new(),
            }),
        }
    }

    /// Attach a spill directory: stored captures write through to
    /// versioned segment files there, and cold acquires read them back
    /// (charged against the budget like a capture) instead of re-running
    /// the VM.
    pub fn with_spill(mut self, dir: PathBuf) -> Self {
        Arc::get_mut(&mut self.shared)
            .expect("with_spill before sharing the store")
            .spill = Some(SpillDir::new(dir));
        self
    }

    /// The byte budget.
    pub fn budget(&self) -> u64 {
        self.shared.budget
    }

    /// The spill directory, if one is attached.
    pub fn spill_dir(&self) -> Option<&Path> {
        self.shared.spill.as_ref().map(SpillDir::dir)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.shared.lock()
    }

    /// Acquire a scenario under the single-flight protocol — the store's
    /// one way in.
    ///
    /// * Resident (or spilled-to-disk) scenario: a [`Acquired::Hit`],
    ///   bumping its LRU timestamp.
    /// * Recording already in flight: block until it resolves, then
    ///   either replay the stored capture
    ///   ([`HitSource::Coalesced`]) or — if the flight was dropped or
    ///   cancelled — take over as the new leader.
    /// * Otherwise: a [`Acquired::Miss`] holding the scenario's
    ///   [`RecordTicket`]; the caller runs live and offers the recording
    ///   back.
    pub fn acquire(&self, instance: WorkloadInstance, spec: Option<CollectorSpec>) -> Acquired {
        let key = (instance, spec);
        let label = scenario_label(instance, spec);
        let shared = &self.shared;
        let mut inner = shared.lock();
        let mut waited = false;
        loop {
            if inner.map.contains_key(&key) {
                inner.clock += 1;
                let now = inner.clock;
                let resident = inner.map.get_mut(&key).expect("checked above");
                resident.last_use = now;
                let trace = resident.stored.clone();
                inner.stats.hits += 1;
                if waited {
                    inner.stats.coalesced += 1;
                }
                inner.gauges.entry(label).or_default().hits += 1;
                return Acquired::Hit {
                    trace,
                    source: if waited {
                        HitSource::Coalesced
                    } else {
                        HitSource::Resident
                    },
                };
            }
            if inner.inflight.contains(&key) {
                waited = true;
                inner = shared.flights.wait(inner).expect("trace store poisoned");
                continue;
            }
            break;
        }
        // Leader: claim the flight first, so concurrent acquires wait
        // while we (lock dropped) probe the spill directory.
        inner.inflight.insert(key);
        if shared.spill.is_some() {
            drop(inner);
            if let Some(stored) = shared.load_spilled(key, &label) {
                return Acquired::Hit {
                    trace: stored,
                    source: HitSource::SpillLoad,
                };
            }
            inner = shared.lock();
        }
        inner.stats.misses += 1;
        inner.gauges.entry(label.clone()).or_default().misses += 1;
        drop(inner);
        Acquired::Miss(RecordTicket {
            shared: Arc::clone(shared),
            key,
            label,
            charge: Arc::new(FlightCharge {
                shared: Arc::clone(shared),
                outstanding: AtomicU64::new(0),
            }),
            done: false,
        })
    }

    /// Non-counting peek: is this scenario recorded? (Used for worker
    /// budgeting decisions, which should not skew hit/miss stats.)
    pub fn contains(&self, instance: WorkloadInstance, spec: Option<CollectorSpec>) -> bool {
        self.lock().map.contains_key(&(instance, spec))
    }

    /// A snapshot of the accounting counters.
    pub fn stats(&self) -> StoreStats {
        self.lock().stats
    }

    /// Per-scenario gauges, sorted by scenario label.
    pub fn scenario_gauges(&self) -> Vec<(String, ScenarioGauges)> {
        self.lock()
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::TempDir;
    use cachegc_telemetry::Telemetry;
    use cachegc_trace::{Access, Context, TraceSink};
    use cachegc_workloads::Workload;

    fn record(n: u32) -> (Recorder, RunStats) {
        let mut rec = Recorder::new();
        for i in 0..n {
            rec.access(Access::read(0x1000 + 4 * i, Context::Mutator));
        }
        (rec, RunStats::default())
    }

    /// Encoded size of a `record(n)` capture.
    fn capture_bytes(n: u32) -> u64 {
        let (probe, _) = record(n);
        probe.bytes()
    }

    /// Acquire `w`, which must miss, and offer an unmetered `record(n)`
    /// capture through its ticket: the offer alone makes room for it.
    fn capture(store: &TraceStore, w: WorkloadInstance, n: u32) -> OfferOutcome {
        let Acquired::Miss(ticket) = store.acquire(w, None) else {
            panic!("{w:?} must miss");
        };
        let (rec, stats) = record(n);
        ticket.offer(rec, stats, Duration::ZERO)
    }

    /// Acquire `w`, which must hit; holding the result pins the entry.
    fn hit(store: &TraceStore, w: WorkloadInstance) -> Arc<StoredTrace> {
        match store.acquire(w, None) {
            Acquired::Hit { trace, .. } => trace,
            Acquired::Miss(_) => panic!("{w:?} must hit"),
        }
    }

    #[test]
    fn acquire_miss_then_offer_then_hit() {
        let store = TraceStore::unbounded();
        let w = Workload::Rewrite.scaled(1);
        let Acquired::Miss(ticket) = store.acquire(w, None) else {
            panic!("empty store must miss");
        };
        let (rec, stats) = record(100);
        let outcome = ticket.offer(rec, stats, Duration::from_micros(3));
        let OfferOutcome::Stored { bytes, events, .. } = outcome else {
            panic!("expected Stored, got {outcome:?}");
        };
        assert_eq!(events, 100);
        assert_eq!(hit(&store, w).trace.events(), 100);
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.over_budget), (1, 1, 1, 0));
        assert_eq!(s.events, 100);
        assert!(s.bytes > 0 && s.bytes == bytes);
        assert_eq!(s.peak_bytes, bytes);
        // The per-scenario gauge tracked both acquires and the capture.
        let gauges = store.scenario_gauges();
        assert_eq!(gauges.len(), 1);
        let (label, g) = &gauges[0];
        assert_eq!(label, "rewrite@1");
        assert_eq!((g.hits, g.misses, g.bytes, g.events), (1, 1, bytes, 100));
        assert_eq!(g.record_ns, 3_000);
    }

    #[test]
    fn keys_distinguish_scale_and_spec() {
        let store = TraceStore::unbounded();
        let w = Workload::Compile;
        let spec = CollectorSpec::Cheney {
            semispace_bytes: 2 << 20,
        };
        let Acquired::Miss(ticket) = store.acquire(w.scaled(1), Some(spec)) else {
            panic!("empty store must miss");
        };
        let (rec, stats) = record(10);
        ticket.offer(rec, stats, Duration::ZERO);
        assert!(store.contains(w.scaled(1), Some(spec)));
        assert!(!store.contains(w.scaled(2), Some(spec)));
        assert!(!store.contains(w.scaled(1), None));
        // `contains` does not touch hit/miss accounting.
        assert_eq!(store.stats().hits + store.stats().misses, 1);
    }

    #[test]
    fn budget_overflow_falls_back_without_error() {
        let store = TraceStore::with_budget(4);
        let w = Workload::Prove.scaled(1);
        // The ticket's recorder charges against the budget and overflows
        // mid-run once nothing more can be reserved.
        let Acquired::Miss(ticket) = store.acquire(w, None) else {
            panic!("empty store must miss");
        };
        let mut rec = ticket.recorder();
        for i in 0..1000 {
            rec.access(Access::read(i << 16, Context::Mutator));
        }
        assert!(rec.overflowed());
        let outcome = ticket.offer(rec, RunStats::default(), Duration::from_nanos(7));
        assert_eq!(outcome, OfferOutcome::DroppedOverBudget);
        let s = store.stats();
        assert_eq!((s.entries, s.over_budget, s.reserved), (0, 1, 0));
        assert!(s.peak_bytes <= 4, "charges never outran the budget: {s}");
        // Encode time is charged even for a dropped capture.
        let (_, g) = &store.scenario_gauges()[0];
        assert_eq!((g.record_ns, g.bytes), (7, 0));
    }

    #[test]
    fn racing_acquires_near_a_full_budget_store_once_and_never_drop() {
        // With the budget sized for exactly one capture, two threads race
        // to acquire the same scenario: one leads and stores, the other
        // waits for it and hits. Neither may be counted over budget.
        let w = Workload::Rewrite.scaled(1);
        let budget = capture_bytes(64);
        for _ in 0..32 {
            let store = TraceStore::with_budget(budget);
            let outcomes: Vec<Option<OfferOutcome>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| match store.acquire(w, None) {
                            Acquired::Hit { .. } => None,
                            Acquired::Miss(ticket) => {
                                let (rec, stats) = record(64);
                                Some(ticket.offer(rec, stats, Duration::ZERO))
                            }
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let stored = outcomes
                .iter()
                .filter(|o| matches!(o, Some(OfferOutcome::Stored { .. })))
                .count();
            assert_eq!(
                stored, 1,
                "exactly one capture, the other hits: {outcomes:?}"
            );
            let s = store.stats();
            assert_eq!(s.over_budget, 0, "no acquire may drop: {s}");
            assert_eq!((s.misses, s.hits, s.entries, s.evictions), (1, 1, 1, 0));
        }
    }

    #[test]
    fn concurrent_recorders_never_outrun_the_budget() {
        // Regression: recorders used to snapshot resident bytes only, so
        // N concurrent captures each got the full remaining budget and
        // could collectively balloon. With in-flight reservations the
        // peak of resident + reserved stays under the budget no matter
        // the interleaving, evictions included.
        let one = capture_bytes(256);
        let budget = one + one / 2; // room for one capture, not two
        let store = TraceStore::with_budget(budget);
        let scenarios = [
            Workload::Rewrite.scaled(1),
            Workload::Nbody.scaled(1),
            Workload::Compile.scaled(1),
            Workload::Prove.scaled(1),
        ];
        let store = &store;
        let outcomes: Vec<OfferOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = scenarios
                .iter()
                .map(|&w| {
                    s.spawn(move || {
                        let Acquired::Miss(ticket) = store.acquire(w, None) else {
                            panic!("distinct scenarios all miss");
                        };
                        let mut rec = ticket.recorder();
                        for i in 0..256u32 {
                            rec.access(Access::read(0x1000 + 4 * i, Context::Mutator));
                        }
                        ticket.offer(rec, RunStats::default(), Duration::ZERO)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let s = store.stats();
        assert!(
            s.peak_bytes <= budget,
            "reserved + resident peaked at {} over budget {budget}",
            s.peak_bytes
        );
        assert_eq!(s.reserved, 0, "all reservations resolved");
        let stored = outcomes
            .iter()
            .filter(|o| matches!(o, OfferOutcome::Stored { .. }))
            .count();
        assert!(stored >= 1, "the budget fits one capture: {outcomes:?}");
        assert_eq!(stored as u64, s.entries + s.evictions);
        assert_eq!(s.misses, s.entries + s.over_budget + s.evictions);
    }

    #[test]
    fn capture_landing_exactly_on_the_remaining_budget_is_stored() {
        // Measure the capture size, then set the budget to exactly that:
        // the boundary is inclusive at the recorder's reservation.
        let budget = capture_bytes(64);
        let store = TraceStore::with_budget(budget);
        let w = Workload::Rewrite.scaled(1);
        let Acquired::Miss(ticket) = store.acquire(w, None) else {
            panic!("empty store must miss");
        };
        let mut rec = ticket.recorder();
        for i in 0..64u32 {
            rec.access(Access::read(0x1000 + 4 * i, Context::Mutator));
        }
        assert!(
            !rec.overflowed(),
            "exact-budget recording must not overflow"
        );
        let outcome = ticket.offer(rec, RunStats::default(), Duration::ZERO);
        let OfferOutcome::Stored { bytes, .. } = outcome else {
            panic!("exact-budget capture must be Stored, got {outcome:?}");
        };
        assert_eq!(bytes, budget, "stored capture fills the budget exactly");
        // The budget is now exhausted and a held hit pins the resident
        // entry: one more byte of capture drops.
        let _pin = hit(&store, w);
        assert_eq!(
            capture(&store, Workload::Nbody.scaled(1), 1),
            OfferOutcome::DroppedOverBudget
        );
    }

    #[test]
    fn lru_evicts_the_least_recently_hit_scenario_first() {
        // Budget for two captures; A and B stored, A hit, C offered:
        // the un-hit B must evict first, and the accounting rebalances
        // as misses == entries + over_budget + evictions.
        let one = capture_bytes(64);
        let store = TraceStore::with_budget(2 * one + one / 2);
        let a = Workload::Rewrite.scaled(1);
        let b = Workload::Nbody.scaled(1);
        let c = Workload::Compile.scaled(1);
        for w in [a, b] {
            assert!(matches!(
                capture(&store, w, 64),
                OfferOutcome::Stored { .. }
            ));
        }
        hit(&store, a);
        assert!(
            matches!(capture(&store, c, 64), OfferOutcome::Stored { .. }),
            "C must be stored by evicting"
        );
        assert!(store.contains(a, None), "recently hit A survives");
        assert!(!store.contains(b, None), "un-hit B evicted first");
        assert!(store.contains(c, None));
        let s = store.stats();
        assert_eq!((s.evictions, s.bytes_evicted), (1, one));
        assert_eq!(
            s.misses,
            s.entries + s.over_budget + s.evictions,
            "eviction rebalances the offer accounting: {s}"
        );
        assert_eq!((s.entries, s.bytes), (2, 2 * one));
        let gauges = store.scenario_gauges();
        let (_, gb) = gauges
            .iter()
            .find(|(l, _)| l == "nbody@1")
            .expect("B gauge persists after eviction");
        assert_eq!((gb.evictions, gb.bytes, gb.events), (1, 0, 0));
    }

    #[test]
    fn pinned_entries_are_skipped_by_eviction() {
        let one = capture_bytes(64);
        let store = TraceStore::with_budget(2 * one + one / 2);
        let a = Workload::Rewrite.scaled(1);
        let b = Workload::Nbody.scaled(1);
        for w in [a, b] {
            capture(&store, w, 64);
        }
        // Pin A (an in-flight replay holds the Arc), then hit B so A is
        // the LRU choice: eviction must skip pinned A and take B anyway.
        let pin = hit(&store, a);
        hit(&store, b);
        let c = Workload::Compile.scaled(1);
        assert!(matches!(
            capture(&store, c, 64),
            OfferOutcome::Stored { .. }
        ));
        assert!(store.contains(a, None), "pinned A survives");
        assert!(!store.contains(b, None), "unpinned B evicted instead");
        drop(pin);
        // With the pin gone A is evictable again.
        let d = Workload::Prove.scaled(1);
        assert!(matches!(
            capture(&store, d, 64),
            OfferOutcome::Stored { .. }
        ));
        assert!(!store.contains(a, None), "unpinned A evicts by LRU");
    }

    #[test]
    fn nothing_evictable_still_drops_instead_of_erroring() {
        // Everything resident is pinned: a new capture has nowhere to
        // make room and must drop as over-budget, never panic or evict a
        // pinned entry out from under its replay.
        let one = capture_bytes(64);
        let store = TraceStore::with_budget(one + one / 2);
        let a = Workload::Rewrite.scaled(1);
        capture(&store, a, 64);
        let _pin = hit(&store, a);
        assert_eq!(
            capture(&store, Workload::Nbody.scaled(1), 64),
            OfferOutcome::DroppedOverBudget
        );
        assert!(store.contains(a, None));
    }

    #[test]
    fn concurrent_acquires_run_each_scenario_live_once() {
        // Many threads race the miss -> record -> offer protocol on a
        // handful of scenarios. Under single-flight, one thread leads
        // each scenario and everyone else coalesces: each scenario runs
        // "live" exactly once.
        let store = TraceStore::unbounded();
        let scenarios = [
            Workload::Rewrite.scaled(1),
            Workload::Nbody.scaled(1),
            Workload::Compile.scaled(1),
        ];
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for w in scenarios {
                        match store.acquire(w, None) {
                            Acquired::Hit { trace, .. } => {
                                assert_eq!(trace.trace.events(), 32);
                            }
                            Acquired::Miss(ticket) => {
                                let mut rec = ticket.recorder();
                                for i in 0..32u32 {
                                    rec.access(Access::read(0x1000 + 4 * i, Context::Mutator));
                                }
                                ticket.offer(rec, RunStats::default(), Duration::ZERO);
                            }
                        }
                    }
                });
            }
        });
        let st = store.stats();
        assert_eq!(st.misses, scenarios.len() as u64, "one live run each");
        assert_eq!(st.entries, scenarios.len() as u64);
        assert_eq!(st.over_budget, 0);
        assert_eq!(
            st.misses,
            st.entries + st.over_budget + st.evictions,
            "offer outcomes must account for every miss: {st}"
        );
        assert_eq!(st.hits + st.misses, (4 * scenarios.len()) as u64);
        for w in scenarios {
            assert!(store.contains(w, None));
        }
    }

    #[test]
    fn coalesced_acquires_block_until_the_leader_offers() {
        let store = Arc::new(TraceStore::unbounded());
        let w = Workload::Rewrite.scaled(1);
        let Acquired::Miss(ticket) = store.acquire(w, None) else {
            panic!("empty store must miss");
        };
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || match store.acquire(w, None) {
                    Acquired::Hit { trace, source } => (trace.trace.events(), source),
                    Acquired::Miss(_) => panic!("waiters must coalesce, not lead"),
                })
            })
            .collect();
        // Give the waiters time to actually block on the flight.
        std::thread::sleep(Duration::from_millis(30));
        let mut rec = ticket.recorder();
        for i in 0..16u32 {
            rec.access(Access::read(0x2000 + 4 * i, Context::Mutator));
        }
        assert!(matches!(
            ticket.offer(rec, RunStats::default(), Duration::ZERO),
            OfferOutcome::Stored { .. }
        ));
        for waiter in waiters {
            let (events, source) = waiter.join().unwrap();
            assert_eq!(events, 16);
            assert_eq!(source, HitSource::Coalesced);
        }
        let s = store.stats();
        assert_eq!((s.misses, s.hits, s.coalesced), (1, 2, 2));
    }

    #[test]
    fn a_cancelled_flight_hands_leadership_to_a_waiter() {
        let store = Arc::new(TraceStore::unbounded());
        let w = Workload::Rewrite.scaled(1);
        let Acquired::Miss(first) = store.acquire(w, None) else {
            panic!("empty store must miss");
        };
        let waiter = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || match store.acquire(w, None) {
                Acquired::Miss(ticket) => {
                    let (rec, stats) = record(8);
                    drop(rec);
                    let mut rec = ticket.recorder();
                    rec.access(Access::read(0x30, Context::Mutator));
                    ticket.offer(rec, stats, Duration::ZERO)
                }
                Acquired::Hit { .. } => panic!("the first flight never offered"),
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        drop(first); // cancel: e.g. the live run errored
        assert!(matches!(
            waiter.join().unwrap(),
            OfferOutcome::Stored { .. }
        ));
        let s = store.stats();
        assert_eq!((s.misses, s.entries), (2, 1));
        assert!(store.contains(w, None));
    }

    #[test]
    fn spill_survives_restart_and_rejects_truncation() {
        let tmp = TempDir::new("store-restart");
        let dir = tmp.path();
        let w = Workload::Rewrite.scaled(1);
        // First process: record and write through.
        {
            let store = TraceStore::with_budget(1 << 20).with_spill(dir.clone());
            let Acquired::Miss(ticket) = store.acquire(w, None) else {
                panic!("cold store must miss");
            };
            let mut rec = ticket.recorder();
            for i in 0..200u32 {
                rec.access(Access::read(0x1000 + 4 * i, Context::Mutator));
            }
            let outcome = ticket.offer(rec, RunStats::default(), Duration::ZERO);
            let OfferOutcome::Stored { spilled, .. } = outcome else {
                panic!("capture must store, got {outcome:?}");
            };
            assert!(spilled, "write-through must land");
            assert_eq!(store.stats().spills, 1);
        }
        // "Restarted" process: warm-start from disk, no VM run needed.
        {
            let store = TraceStore::with_budget(1 << 20).with_spill(dir.clone());
            let Acquired::Hit { trace, source } = store.acquire(w, None) else {
                panic!("warm start must hit from the spill file");
            };
            assert_eq!(source, HitSource::SpillLoad);
            assert_eq!(trace.trace.events(), 200);
            let s = store.stats();
            assert_eq!((s.hits, s.misses, s.spill_loads, s.entries), (1, 0, 1, 1));
            assert_eq!(s.bytes, trace.trace.bytes(), "the load is charged");
            assert_eq!(s.peak_bytes, s.bytes);
            // Second acquire is an ordinary resident hit.
            assert!(matches!(
                store.acquire(w, None),
                Acquired::Hit {
                    source: HitSource::Resident,
                    ..
                }
            ));
        }
        // Truncate the segment file: the checksum/length check must
        // reject it and fall back to a live recording.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "seg"))
            .expect("one segment file");
        let full = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &full[..full.len() / 2]).unwrap();
        {
            let store = TraceStore::with_budget(1 << 20).with_spill(dir.clone());
            assert!(
                matches!(store.acquire(w, None), Acquired::Miss(_)),
                "truncated file must be rejected, not replayed"
            );
            let s = store.stats();
            assert_eq!((s.spill_rejects, s.spill_loads, s.misses), (1, 0, 1));
        }
    }

    #[test]
    fn eviction_is_a_cheap_drop_when_the_entry_is_on_disk() {
        // With spill attached, an evicted scenario re-materializes from
        // its segment file on the next acquire instead of re-recording,
        // and the reload makes room by eviction like a capture.
        let tmp = TempDir::new("store-evict-reload");
        let dir = tmp.path();
        let one = capture_bytes(64);
        let store = TraceStore::with_budget(one + one / 2).with_spill(dir.clone());
        let a = Workload::Rewrite.scaled(1);
        let b = Workload::Nbody.scaled(1);
        for w in [a, b] {
            assert!(matches!(
                capture(&store, w, 64),
                OfferOutcome::Stored { spilled: true, .. }
            ));
        }
        // B's capture evicted A (budget fits one); A now reloads from
        // disk as a hit, not a miss, and evicts B in turn.
        assert!(!store.contains(a, None));
        let Acquired::Hit { source, .. } = store.acquire(a, None) else {
            panic!("A must reload from its spill file");
        };
        assert_eq!(source, HitSource::SpillLoad);
        assert!(store.contains(a, None) && !store.contains(b, None));
        let s = store.stats();
        assert_eq!((s.evictions, s.spill_loads, s.spills), (2, 1, 2));
        assert_eq!((s.entries, s.bytes, s.over_budget), (1, one, 0));
        assert!(s.peak_bytes <= store.budget(), "{s}");
        assert_eq!(
            s.misses + s.spill_loads,
            s.entries + s.evictions + s.over_budget,
            "generalized balance holds with spill loads: {s}"
        );
    }

    #[test]
    fn a_spill_load_that_cannot_fit_still_hits_and_counts_over_budget() {
        let tmp = TempDir::new("store-load-over-budget");
        let dir = tmp.path();
        let one = capture_bytes(64);
        let store = TraceStore::with_budget(one + one / 2).with_spill(dir.clone());
        let a = Workload::Rewrite.scaled(1);
        let b = Workload::Nbody.scaled(1);
        capture(&store, a, 64);
        capture(&store, b, 64);
        // B is pinned by a replay, so A's reload has nowhere to go: it
        // serves its hit but is not kept, and the next acquire reloads.
        let _pin = hit(&store, b);
        for round in 1..=2 {
            let Acquired::Hit { trace, source } = store.acquire(a, None) else {
                panic!("A must reload from its spill file");
            };
            assert_eq!(source, HitSource::SpillLoad);
            assert_eq!(trace.trace.events(), 64);
            let s = store.stats();
            assert_eq!((s.spill_loads, s.over_budget, s.entries), (round, round, 1));
            assert_eq!(
                s.misses + s.spill_loads,
                s.entries + s.evictions + s.over_budget,
                "{s}"
            );
        }
        assert!(!store.contains(a, None) && store.contains(b, None));
    }

    /// Only a spill file that exists is timed as a `spill_load`: a cold
    /// acquire under an empty spill directory records no phase, and a
    /// warm one records exactly one.
    #[test]
    fn only_an_existing_spill_file_records_a_spill_load_phase() {
        let tmp = TempDir::new("store-phase");
        let dir = tmp.path();
        let w = Workload::Rewrite.scaled(1);
        // One acquire under `dir` with telemetry attached; a miss records
        // and offers, which writes the capture through.
        let acquire = || {
            let telemetry = Arc::new(Telemetry::new());
            let store = TraceStore::with_budget(1 << 20).with_spill(dir.clone());
            {
                let _shard = telemetry.attach();
                if let Acquired::Miss(ticket) = store.acquire(w, None) {
                    let (rec, stats) = record(200);
                    ticket.offer(rec, stats, Duration::ZERO);
                }
            }
            let phases = telemetry.snapshot().phases;
            let loads = phases
                .iter()
                .find(|(name, _)| *name == "spill_load")
                .map_or(0, |(_, phase)| phase.count);
            (loads, store.stats())
        };
        let (cold, s) = acquire();
        assert_eq!((cold, s.misses, s.spill_loads), (0, 1, 0), "cold miss");
        let (warm, s) = acquire();
        assert_eq!((warm, s.misses, s.spill_loads), (1, 0, 1), "warm start");
    }

    #[test]
    fn scenario_labels_name_collector_and_scale() {
        let w = Workload::Compile.scaled(3);
        assert_eq!(scenario_label(w, None), "compile@3");
        let spec = CollectorSpec::Cheney {
            semispace_bytes: 2 << 20,
        };
        assert_eq!(
            scenario_label(w, Some(spec)),
            format!("compile@3+{}", spec.name())
        );
    }
}
