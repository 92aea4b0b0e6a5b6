//! Compact trace recording and replay.
//!
//! A [`Recorder`] is a [`TraceSink`] that captures the event stream into
//! chunked segments using a packed encoding, and a
//! [`RecordedTrace`] replays the captured stream — event-for-event
//! identical to the live run — into any other sink, as many times as
//! needed, without re-executing the VM.
//!
//! # Encoding
//!
//! One event is one *token* plus an optional *flags byte*:
//!
//! * The token is an LEB128 varint of `(zigzag32(addr − prev_addr) << 1)
//!   | flags_changed`. Addresses deltas are computed with wrapping u32
//!   arithmetic, so arbitrary jumps (including wraparound) round-trip.
//! * When `flags_changed` is set, the token is followed by a single flags
//!   byte packing `(kind, ctx, alloc_init)` as bits `0..=2`. Flag *runs*
//!   are thereby run-length encoded implicitly: the byte only appears at
//!   run boundaries.
//!
//! Both encoder and decoder start from `(prev_addr = 0, flags = 0)` —
//! i.e. a mutator read of address 0 — so the first event needs a flags
//! byte only if it is not a mutator read.
//!
//! The simulated programs' reference streams are dominated by long
//! monotone same-context runs (stack discipline plus linear allocation),
//! but region switches make 5-byte tokens and read/write alternation
//! makes flags bytes common: the golden scenarios average 2.7–3.0 bytes
//! per event, versus the 8-byte in-memory [`Access`]. The encoded stream
//! is sealed into ~1 MiB segments at event boundaries; a clone of a
//! [`RecordedTrace`] shares the segments, so concurrent replay workers
//! decode the same bytes without copying. A live pass encodes only a
//! capture the store may keep: its recorder is one more reader of the
//! pass's raw feed, on a thread of its own
//! ([`feed::Recording`](crate::feed::Recording)).
//!
//! # Recording cost
//!
//! The recorder runs once per reference, so its common case is kept to
//! straight-line code: `encode` builds an event's bytes in one `u64`
//! without a loop or a branch, the recorder stores all eight bytes at its
//! write position and advances by the event's length, and one compare
//! against `room` (the furthest the segment may grow before anything else
//! has to happen) guards it. Seals, budget charges, the byte limit and
//! abandoned captures live in one out-of-line slow path. The segment
//! being encoded is one buffer, allocated at the first event and reused
//! after every seal; a seal copies the encoded bytes once, into a new
//! allocation or into a spare buffer the recorder was given. A recorder
//! that reads a live feed gets its spares from the feed's producer, so a
//! kept capture is allocated on the calling thread even though it is
//! encoded on a crew thread: memory a crew thread allocates stays in that
//! thread's malloc arena after the pass, where the next pass, landing in
//! another arena, cannot reuse it.

use std::sync::Arc;

use crate::event::{Access, AccessKind, Context};
use crate::sink::TraceSink;

/// Default sealed-segment size in bytes (segments are sealed at the first
/// event boundary at or past this many bytes).
pub const DEFAULT_SEGMENT_BYTES: usize = 1 << 20;

/// Granularity of budget charges made by a metered [`Recorder`]: the
/// recorder charges ahead in chunks of this many bytes so the shared
/// budget is not touched on every event.
pub const CHARGE_CHUNK_BYTES: u64 = 64 << 10;

/// A shared byte budget a [`Recorder`] charges against while capturing.
///
/// Attach one with [`Recorder::with_budget`]; the recorder then reserves
/// bytes *ahead* of buffering them (in [`CHARGE_CHUNK_BYTES`] chunks), so
/// an implementation that tracks reservations sees every in-flight
/// capture's footprint before the memory exists. The contract:
///
/// * every successful `try_charge(n)` reserves exactly `n` bytes until a
///   matching `release`;
/// * on overflow the recorder releases everything it charged;
/// * on a successful [`Recorder::finish`] the recorder releases its
///   slack (charged − encoded), and ownership of the remaining charge —
///   exactly [`RecordedTrace::bytes`] — passes to the caller along with
///   the trace (a store typically converts it to resident bytes);
/// * a recorder dropped without `finish` releases everything it charged.
pub trait RecordBudget: Send + Sync {
    /// Try to reserve `n` more bytes; `false` means the budget is
    /// exhausted and the capture should be abandoned.
    fn try_charge(&self, n: u64) -> bool;
    /// Return `n` previously charged bytes.
    fn release(&self, n: u64);
}

const FLAG_WRITE: u8 = 1 << 0;
const FLAG_COLLECTOR: u8 = 1 << 1;
const FLAG_ALLOC_INIT: u8 = 1 << 2;

#[inline]
pub(crate) fn flag_bits(a: &Access) -> u8 {
    (matches!(a.kind, AccessKind::Write) as u8)
        | ((matches!(a.ctx, Context::Collector) as u8) << 1)
        | ((a.alloc_init as u8) << 2)
}

#[inline]
pub(crate) fn access_from(addr: u32, flags: u8) -> Access {
    Access {
        addr,
        kind: if flags & FLAG_WRITE != 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
        ctx: if flags & FLAG_COLLECTOR != 0 {
            Context::Collector
        } else {
            Context::Mutator
        },
        alloc_init: flags & FLAG_ALLOC_INIT != 0,
    }
}

#[inline]
fn zigzag32(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}

#[inline]
fn unzigzag32(z: u32) -> i32 {
    ((z >> 1) as i32) ^ -((z & 1) as i32)
}

/// Decode one event: the loop body of both [`RecordedTrace::replay`] and
/// [`RecordedTrace::replay_batched`]. Advances `i` past the token (and
/// flags byte, when present) and leaves `(addr, flags)` describing the
/// decoded event. Panics on a truncated payload, so payloads read from
/// outside the process go through [`RecordedTrace::from_payload`].
#[inline]
fn decode_one(bytes: &[u8], i: &mut usize, addr: &mut u32, flags: &mut u8) {
    let mut token: u64 = 0;
    let mut shift = 0;
    loop {
        let b = bytes[*i];
        *i += 1;
        token |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            break;
        }
        shift += 7;
    }
    if token & 1 != 0 {
        *flags = bytes[*i];
        *i += 1;
    }
    *addr = addr.wrapping_add(unzigzag32((token >> 1) as u32) as u32);
}

/// Longest token the encoder writes: `zigzag32(delta) << 1 | changed` is
/// at most 33 bits, five 7-bit varint groups.
const MAX_TOKEN_BYTES: usize = 5;

/// Encode one event: the token for an address `delta` (wrapping) from
/// the previous event, and the event's `flags` byte when they `changed`.
/// Returns the bytes as the low end of a little-endian `u64` and their
/// count. Bytes past the count are not part of the encoding (the flags
/// byte is placed even when unchanged, so the word needs no branch).
#[inline]
fn encode(delta: u32, flags: u8, changed: bool) -> (u64, usize) {
    let token = (u64::from(zigzag32(delta as i32)) << 1) | u64::from(changed);
    // ceil(significant bits / 7), at least one group for a zero token.
    let groups = (70 - (token | 1).leading_zeros() as usize) / 7;
    let spread = (token & 0x7f)
        | (token & (0x7f << 7)) << 1
        | (token & (0x7f << 14)) << 2
        | (token & (0x7f << 21)) << 3
        | (token & (0x7f << 28)) << 4;
    // Every group but the last carries the continuation bit.
    let continuation = 0x8080_8080u64 >> (8 * (MAX_TOKEN_BYTES - groups));
    let word = spread | continuation | (u64::from(flags) << (8 * groups));
    (word, groups + usize::from(changed))
}

/// The number of events an encoded payload decodes to, or `None` when it
/// is not a whole number of well-formed events: a token or flags byte cut
/// off at the end, or a token longer than any the encoder writes. Every
/// read is bounds-checked, so this never panics, and a payload it accepts
/// replays through [`RecordedTrace::replay`] without panicking. Run once
/// per payload read back from outside the process (spill files), by
/// [`RecordedTrace::from_payload`], so the replay loops need no
/// validation of their own.
fn payload_events(bytes: &[u8]) -> Option<u64> {
    let mut events = 0u64;
    let mut i = 0;
    while i < bytes.len() {
        // Bit 0 of the token, the flags-changed bit, is bit 0 of its
        // first varint byte.
        let changed = bytes[i] & 1 != 0;
        let mut len = 0;
        loop {
            let b = *bytes.get(i + len)?;
            len += 1;
            if b & 0x80 == 0 {
                break;
            }
            if len == MAX_TOKEN_BYTES {
                return None;
            }
        }
        i += len + usize::from(changed);
        if i > bytes.len() {
            return None;
        }
        events += 1;
    }
    Some(events)
}

/// Decode a payload, given as in-order chunks, into `sink`. Decoder
/// state carries across chunk boundaries. The decode loop behind
/// [`RecordedTrace::replay`].
fn replay_chunks<C, S>(chunks: impl IntoIterator<Item = C>, sink: &mut S)
where
    C: AsRef<[u8]>,
    S: TraceSink + ?Sized,
{
    let mut addr: u32 = 0;
    let mut flags: u8 = 0;
    for chunk in chunks {
        let bytes = chunk.as_ref();
        let mut i = 0;
        while i < bytes.len() {
            decode_one(bytes, &mut i, &mut addr, &mut flags);
            sink.access(access_from(addr, flags));
        }
    }
}

/// [`replay_chunks`] in [`EventBatch`] slices; batches span chunk
/// boundaries, and only the last may be short.
fn replay_chunks_batched<C, F>(chunks: impl IntoIterator<Item = C>, mut consume: F)
where
    C: AsRef<[u8]>,
    F: FnMut(&EventBatch),
{
    let mut batch = EventBatch::empty();
    let mut addr: u32 = 0;
    let mut flags: u8 = 0;
    for chunk in chunks {
        let bytes = chunk.as_ref();
        let mut i = 0;
        while i < bytes.len() {
            decode_one(bytes, &mut i, &mut addr, &mut flags);
            batch.push(addr, flags);
            if batch.len == EVENT_BATCH {
                consume(&batch);
                batch.len = 0;
            }
        }
    }
    if batch.len > 0 {
        consume(&batch);
    }
}

/// Capacity of one decoded [`EventBatch`].
pub const EVENT_BATCH: usize = 64;

/// One decoded slice of a recorded stream, in structure-of-arrays form:
/// `addrs[i]` is event `i`'s absolute address and `flags[i]` its packed
/// flag byte (write, collector, alloc-init as bits `0..=2`). Batch
/// consumers like a grid kernel read the arrays directly; [`EventBatch::get`]
/// rebuilds the [`Access`] for per-event sinks.
#[derive(Debug, Clone)]
pub struct EventBatch {
    /// Decoded absolute addresses; entries `0..len` are valid.
    pub addrs: [u32; EVENT_BATCH],
    /// Per-event packed flag bytes; entries `0..len` are valid.
    pub flags: [u8; EVENT_BATCH],
    /// Number of valid leading entries.
    pub len: usize,
}

impl EventBatch {
    pub(crate) fn empty() -> Self {
        EventBatch {
            addrs: [0; EVENT_BATCH],
            flags: [0; EVENT_BATCH],
            len: 0,
        }
    }

    #[inline]
    fn push(&mut self, addr: u32, flags: u8) {
        self.addrs[self.len] = addr;
        self.flags[self.len] = flags;
        self.len += 1;
    }

    /// Number of valid events in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Event `i` as an [`Access`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Access {
        assert!(i < self.len, "event {i} out of batch of {}", self.len);
        access_from(self.addrs[i], self.flags[i])
    }

    /// The batch's valid events, in stream order.
    pub fn accesses(&self) -> impl Iterator<Item = Access> + '_ {
        (0..self.len).map(move |i| access_from(self.addrs[i], self.flags[i]))
    }
}

/// A [`TraceSink`] that captures the event stream into compact segments.
///
/// Feed it a run, as a sink or as one more reader of a live pass's feed
/// ([`feed::Recording`](crate::feed::Recording)), then call
/// [`Recorder::finish`] to obtain the [`RecordedTrace`].
///
/// A byte limit can be set with [`Recorder::with_limit`]; once the
/// encoded stream would exceed it, the recorder drops everything captured
/// so far, stops encoding (subsequent events are O(1) no-ops), and
/// `finish` returns `None`. Recording failure is thus never an error —
/// the live sinks sharing the pass are unaffected.
pub struct Recorder {
    segments: Vec<Box<[u8]>>,
    /// The segment being encoded, [`Recorder::buffer_bytes`] long from the
    /// first event on (an event stores a whole `u64`), reused after every
    /// seal; `buf[..pos]` is encoded.
    buf: Vec<u8>,
    /// An empty buffer the next seal copies its segment into.
    spare: Option<Vec<u8>>,
    pos: usize,
    /// The furthest `pos` an event may end at on the fast path: short of
    /// a seal, within the limit and within the bytes already charged. 0
    /// sends the next event down the slow path.
    room: usize,
    sealed_bytes: u64,
    events: u64,
    prev_addr: u32,
    flags: u8,
    limit: u64,
    segment_bytes: usize,
    overflowed: bool,
    budget: Option<Arc<dyn RecordBudget>>,
    charged: u64,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("bytes", &self.bytes())
            .field("events", &self.events)
            .field("limit", &self.limit)
            .field("overflowed", &self.overflowed)
            .field("metered", &self.budget.is_some())
            .field("charged", &self.charged)
            .finish()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder with no byte limit.
    pub fn new() -> Self {
        Self::with_limit(u64::MAX)
    }

    /// A recorder that gives up (and frees its buffers) once the encoded
    /// stream would exceed `limit` bytes.
    pub fn with_limit(limit: u64) -> Self {
        Recorder {
            segments: Vec::new(),
            buf: Vec::new(),
            spare: None,
            pos: 0,
            room: 0,
            sealed_bytes: 0,
            events: 0,
            prev_addr: 0,
            flags: 0,
            limit,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            overflowed: false,
            budget: None,
            charged: 0,
        }
    }

    /// Override the segment size (mainly for tests exercising segment
    /// boundaries). Clamped to at least 16 bytes.
    pub fn with_segment_bytes(mut self, bytes: usize) -> Self {
        self.segment_bytes = bytes.max(16);
        self.room = 0;
        self
    }

    /// Meter every buffered byte against a shared [`RecordBudget`].
    /// Charges are made ahead of buffering in [`CHARGE_CHUNK_BYTES`]
    /// chunks; a refused charge abandons the capture exactly like a
    /// [`Recorder::with_limit`] overflow (buffers freed, charges
    /// released, `finish` returns `None`).
    pub fn with_budget(mut self, budget: Arc<dyn RecordBudget>) -> Self {
        self.budget = Some(budget);
        self.room = 0;
        self
    }

    /// Bytes currently reserved against the attached budget (0 when
    /// unmetered). Always ≥ [`Recorder::bytes`] until overflow.
    pub fn charged(&self) -> u64 {
        self.charged
    }

    /// Encoded bytes captured so far.
    pub fn bytes(&self) -> u64 {
        self.sealed_bytes + self.pos as u64
    }

    /// Events seen so far, including any after the capture was
    /// abandoned.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// True once the byte limit was exceeded and the capture abandoned.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Length of a segment's buffer: a seal happens at the first event
    /// that ends at or past `segment_bytes`, and an event stores 8 bytes.
    pub(crate) fn buffer_bytes(&self) -> usize {
        self.segment_bytes + 8
    }

    /// True while the recorder has no spare buffer and may still need
    /// one.
    pub(crate) fn wants_buffer(&self) -> bool {
        self.spare.is_none() && !self.overflowed
    }

    /// Encode into `buf` if the recorder has no buffer yet, or else seal
    /// the next segment into it, instead of an allocation of the
    /// recorder's own. Its capacity is used, its contents are not.
    pub(crate) fn give_buffer(&mut self, buf: Vec<u8>) {
        if self.buf.capacity() == 0 && !self.overflowed {
            self.buf = buf;
        } else {
            self.spare = Some(buf);
        }
    }

    fn seal(&mut self) {
        if self.pos == 0 {
            return;
        }
        let mut seg = self.spare.take().unwrap_or_default();
        seg.clear();
        seg.extend_from_slice(&self.buf[..self.pos]);
        self.pos = 0;
        self.sealed_bytes += seg.len() as u64;
        self.segments.push(seg.into_boxed_slice());
    }

    /// Abandon the capture: free what it kept and return its budget.
    pub(crate) fn overflow(&mut self) {
        self.overflowed = true;
        self.segments = Vec::new();
        self.buf = Vec::new();
        self.spare = None;
        self.pos = 0;
        self.room = 0;
        self.sealed_bytes = 0;
        if let Some(budget) = &self.budget {
            budget.release(self.charged);
        }
        self.charged = 0;
    }

    /// Reserve budget ahead of buffering `n` more bytes; `false` means
    /// the budget refused and the capture must be abandoned.
    #[inline]
    fn charge_for(&mut self, n: u64) -> bool {
        let Some(budget) = &self.budget else {
            return true;
        };
        let need = self.bytes() + n;
        if need <= self.charged {
            return true;
        }
        let want = need - self.charged;
        // Ask for a whole chunk (bounded by the local limit) so the
        // shared budget isn't contended per event, but never less than
        // what this event needs.
        let ask = want.max(CHARGE_CHUNK_BYTES.min(self.limit.saturating_sub(self.charged)));
        if budget.try_charge(ask) {
            self.charged += ask;
            return true;
        }
        // The chunk didn't fit; retry with the exact need before giving
        // up — the tail of a budget is still usable space.
        if want < ask && budget.try_charge(want) {
            self.charged += want;
            return true;
        }
        false
    }

    /// The fast path's `room` for the current state: 0 without a buffer
    /// (before the first event, or once an abandoned capture freed it),
    /// so those events take the slow path.
    fn room(&self) -> usize {
        if self.buf.is_empty() {
            return 0;
        }
        let mut room =
            (self.segment_bytes as u64 - 1).min(self.limit.saturating_sub(self.sealed_bytes));
        if self.budget.is_some() {
            room = room.min(self.charged.saturating_sub(self.sealed_bytes));
        }
        room as usize
    }

    /// An event the fast path cannot take, encoded as `word` and `len` by
    /// [`encode`]: the first event, one that seals the segment, needs a
    /// budget charge or crosses the limit, and every event of an
    /// abandoned capture.
    #[cold]
    #[inline(never)]
    fn access_slow(&mut self, addr: u32, flags: u8, word: u64, len: usize) {
        if self.overflowed {
            return;
        }
        let n = len as u64;
        if self.bytes() + n > self.limit || !self.charge_for(n) {
            self.overflow();
            return;
        }
        let size = self.buffer_bytes();
        if self.buf.len() < size {
            self.buf.clear();
            self.buf.resize(size, 0);
        }
        self.buf[self.pos..self.pos + 8].copy_from_slice(&word.to_le_bytes());
        self.pos += len;
        self.prev_addr = addr;
        self.flags = flags;
        if self.pos >= self.segment_bytes {
            self.seal();
        }
        self.room = self.room();
    }

    /// Consume the recorder; `Some` holds the captured stream, `None`
    /// means the byte limit was exceeded and nothing was kept.
    ///
    /// With a budget attached, slack (charged − encoded) is released
    /// here; the final encoded size stays charged and its ownership
    /// passes to the caller with the trace.
    pub fn finish(mut self) -> Option<RecordedTrace> {
        if self.overflowed {
            return None;
        }
        self.seal();
        let bytes = self.sealed_bytes;
        if let Some(budget) = self.budget.take() {
            budget.release(self.charged.saturating_sub(bytes));
        }
        self.charged = 0;
        let segments = std::mem::take(&mut self.segments);
        Some(RecordedTrace {
            segments: Arc::from(segments.into_boxed_slice()),
            events: self.events,
            bytes,
        })
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        // A recorder abandoned without `finish` (e.g. a failed run)
        // returns everything it reserved.
        if let Some(budget) = self.budget.take() {
            budget.release(self.charged);
        }
    }
}

impl Recorder {
    /// Record one event given as its address and packed flag byte.
    #[inline]
    fn push(&mut self, addr: u32, flags: u8) {
        self.events += 1;
        let delta = addr.wrapping_sub(self.prev_addr);
        let (word, len) = encode(delta, flags, flags != self.flags);
        let end = self.pos + len;
        if end > self.room {
            self.access_slow(addr, flags, word, len);
            return;
        }
        self.buf[self.pos..self.pos + 8].copy_from_slice(&word.to_le_bytes());
        self.pos = end;
        self.prev_addr = addr;
        self.flags = flags;
    }

    /// Record a batch of events. An abandoned capture only counts them.
    pub(crate) fn record_batch(&mut self, batch: &EventBatch) {
        if self.overflowed {
            self.events += batch.len as u64;
            return;
        }
        for (&addr, &flags) in batch.addrs[..batch.len]
            .iter()
            .zip(&batch.flags[..batch.len])
        {
            self.push(addr, flags);
        }
    }
}

impl TraceSink for Recorder {
    #[inline]
    fn access(&mut self, a: Access) {
        self.push(a.addr, flag_bits(&a));
    }
}

/// A captured trace: sealed heap segments, cheaply cloneable (clones
/// share the segments) and replayable into any [`TraceSink`] any number
/// of times.
#[derive(Clone)]
pub struct RecordedTrace {
    segments: Arc<[Box<[u8]>]>,
    events: u64,
    bytes: u64,
}

impl std::fmt::Debug for RecordedTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordedTrace")
            .field("segments", &self.segments.len())
            .field("events", &self.events)
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl RecordedTrace {
    /// A one-segment trace over an encoded payload read back from outside
    /// the process (a spill file): the concatenated sealed segments of a
    /// recorded stream, which decode identically to the segments
    /// themselves because the decoder carries its state across segment
    /// boundaries. One bounds-checked walk over `payload` checks that it
    /// is a whole number of well-formed events, exactly `events` of them;
    /// `None` rejects it. A trace this returns replays without panicking.
    pub fn from_payload(payload: Box<[u8]>, events: u64) -> Option<RecordedTrace> {
        if payload_events(&payload)? != events {
            return None;
        }
        Some(RecordedTrace {
            bytes: payload.len() as u64,
            segments: Arc::from([payload]),
            events,
        })
    }

    /// The encoded payload as its in-order sealed segments. Concatenating
    /// them yields the canonical payload — the exact bytes a spill file
    /// stores.
    pub fn payload_chunks(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.segments.iter().map(|seg| &seg[..])
    }

    /// Number of events in the captured stream.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Encoded size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Mean encoded bytes per event (0 for an empty trace).
    pub fn bytes_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.bytes as f64 / self.events as f64
        }
    }

    /// Decode the stream into `sink`, event-for-event identical to the
    /// live run that was recorded.
    pub fn replay<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        replay_chunks(self.payload_chunks(), sink);
    }

    /// Decode the stream into [`EventBatch`] slices of up to
    /// [`EVENT_BATCH`] events — the same events, in the same order, as
    /// [`RecordedTrace::replay`], through the same decoder — so a batch
    /// consumer such as a grid kernel can run its per-lane loop over a
    /// whole batch instead of being called once per event.
    pub fn replay_batched<F: FnMut(&EventBatch)>(&self, consume: F) {
        replay_chunks_batched(self.payload_chunks(), consume);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct VecSink(Vec<Access>);
    impl TraceSink for VecSink {
        fn access(&mut self, a: Access) {
            self.0.push(a);
        }
    }

    fn roundtrip(events: &[Access], segment_bytes: usize) -> RecordedTrace {
        let mut rec = Recorder::new().with_segment_bytes(segment_bytes);
        for &a in events {
            rec.access(a);
        }
        let trace = rec.finish().expect("unbounded recorder never overflows");
        let mut out = VecSink::default();
        trace.replay(&mut out);
        assert_eq!(out.0, events, "replay is event-for-event identical");
        assert_eq!(trace.events(), events.len() as u64);
        trace
    }

    #[test]
    fn empty_trace_replays_nothing() {
        let trace = roundtrip(&[], 64);
        assert_eq!(trace.bytes(), 0);
        assert_eq!(trace.bytes_per_event(), 0.0);
    }

    #[test]
    fn monotone_mutator_run_is_compact() {
        let events: Vec<Access> = (0..10_000)
            .map(|i| Access::read(0x1000_0000 + 4 * i, Context::Mutator))
            .collect();
        let trace = roundtrip(&events, DEFAULT_SEGMENT_BYTES);
        assert!(
            trace.bytes_per_event() <= 2.0,
            "monotone run should be ≲2 B/event, got {}",
            trace.bytes_per_event()
        );
    }

    #[test]
    fn flag_runs_and_wraparound_roundtrip() {
        let events = vec![
            Access::read(0, Context::Mutator),
            Access::read(u32::MAX, Context::Mutator), // wrapping delta -1
            Access::write(u32::MAX - 3, Context::Collector),
            Access::alloc_write(0x8000_0000, Context::Mutator),
            Access::alloc_write(0x8000_0004, Context::Mutator),
            Access::read(0x10, Context::Collector),
            Access::read(0x7fff_fff0, Context::Mutator), // near-max positive delta
        ];
        roundtrip(&events, 4096);
    }

    #[test]
    fn encoding_is_pinned_byte_for_byte() {
        // Every token length, 1 to 5 bytes, with and without a flags
        // byte, and a delta that wraps past u32::MAX.
        let events = [
            Access::read(0x10, Context::Mutator),               // 1
            Access::write(0x14, Context::Mutator),              // 1 + flags
            Access::write(0x814, Context::Mutator),             // 2
            Access::read(0x4_0814, Context::Collector),         // 3 + flags
            Access::read(0x204_0814, Context::Collector),       // 4
            Access::alloc_write(0xc204_0814, Context::Mutator), // 5 + flags
            Access::alloc_write(0xd204_0814, Context::Mutator), // 5
            Access::write(0xd204_0714, Context::Collector),     // 2 + flags
            Access::read(0xd204_0714, Context::Mutator),        // 1 + flags
            Access::write(0xd304_0714, Context::Mutator),       // 4 + flags
            Access::write(0xffff_fffc, Context::Mutator),       // 5
            Access::write(0x0000_0008, Context::Mutator),       // 1, wraps
            Access::write(0x0004_0008, Context::Mutator),       // 3
        ];
        let trace = roundtrip(&events, DEFAULT_SEGMENT_BYTES);
        let hex: String = trace
            .payload_chunks()
            .flatten()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "40110180408180400280808040ffffffff0f058080808004ff0703010081808020\
             01a0c7bf9f0b30808040"
        );
    }

    #[test]
    fn segment_boundaries_preserve_decoder_state() {
        // Tiny segments force many seals mid-run; deltas and flag runs
        // must carry across them.
        let mut events = Vec::new();
        for i in 0..500u32 {
            let ctx = if i % 3 == 0 {
                Context::Collector
            } else {
                Context::Mutator
            };
            events.push(Access::write(i.wrapping_mul(0x9e37_79b9), ctx));
        }
        let trace = roundtrip(&events, 16);
        assert!(trace.bytes() > 16, "multiple segments were sealed");
    }

    #[test]
    fn given_buffers_of_any_shape_seal_the_same_segments() {
        let events: Vec<Access> = (0..3_000u32)
            .map(|i| Access::write(i.wrapping_mul(0x9e37_79b9), Context::Collector))
            .collect();
        let expected = roundtrip(&events, 64);
        let mut rec = Recorder::new().with_segment_bytes(64);
        let size = rec.buffer_bytes();
        let mut given = [
            Vec::new(),
            vec![7; 3],
            Vec::with_capacity(size),
            vec![9; 2 * size],
        ]
        .into_iter()
        .cycle();
        for &a in &events {
            if rec.wants_buffer() {
                rec.give_buffer(given.next().unwrap());
            }
            rec.access(a);
        }
        let trace = rec.finish().unwrap();
        assert!(trace.payload_chunks().eq(expected.payload_chunks()));
    }

    #[test]
    fn limit_overflow_drops_capture_and_stays_quiet() {
        let mut rec = Recorder::with_limit(8);
        for i in 0..100 {
            rec.access(Access::read(i << 20, Context::Mutator));
        }
        assert!(rec.overflowed());
        assert_eq!(rec.bytes(), 0, "overflow frees the capture");
        assert_eq!(rec.events(), 100, "an abandoned capture still counts");
        assert!(rec.finish().is_none());
    }

    /// A budget that tracks outstanding charges and a high-water mark.
    #[derive(Default)]
    struct LedgerBudget {
        cap: u64,
        outstanding: std::sync::Mutex<u64>,
        peak: std::sync::atomic::AtomicU64,
    }

    impl LedgerBudget {
        fn new(cap: u64) -> Arc<Self> {
            Arc::new(LedgerBudget {
                cap,
                ..Default::default()
            })
        }

        fn outstanding(&self) -> u64 {
            *self.outstanding.lock().unwrap()
        }
    }

    impl RecordBudget for LedgerBudget {
        fn try_charge(&self, n: u64) -> bool {
            let mut out = self.outstanding.lock().unwrap();
            if out.saturating_add(n) > self.cap {
                return false;
            }
            *out += n;
            self.peak
                .fetch_max(*out, std::sync::atomic::Ordering::Relaxed);
            true
        }

        fn release(&self, n: u64) {
            let mut out = self.outstanding.lock().unwrap();
            assert!(*out >= n, "released {n} bytes with only {out} charged");
            *out -= n;
        }
    }

    #[test]
    fn metered_finish_keeps_exactly_the_encoded_bytes_charged() {
        let budget = LedgerBudget::new(u64::MAX);
        let mut rec = Recorder::new().with_budget(budget.clone());
        for i in 0..1_000u32 {
            rec.access(Access::read(0x1000_0000 + 4 * i, Context::Mutator));
        }
        assert!(rec.charged() >= rec.bytes(), "charges run ahead of bytes");
        let trace = rec.finish().expect("unbounded capture");
        assert_eq!(
            budget.outstanding(),
            trace.bytes(),
            "finish releases slack and transfers the encoded size"
        );
    }

    #[test]
    fn metered_overflow_and_drop_release_every_charge() {
        let budget = LedgerBudget::new(16);
        let mut rec = Recorder::new().with_budget(budget.clone());
        for i in 0..100 {
            rec.access(Access::read(i << 20, Context::Mutator));
        }
        assert!(rec.overflowed(), "a 16-byte budget cannot hold 100 jumps");
        assert_eq!(budget.outstanding(), 0, "overflow released the charges");
        assert!(rec.finish().is_none());

        let budget = LedgerBudget::new(u64::MAX);
        let mut rec = Recorder::new().with_budget(budget.clone());
        rec.access(Access::read(0x10, Context::Mutator));
        assert!(budget.outstanding() > 0);
        drop(rec);
        assert_eq!(budget.outstanding(), 0, "drop without finish releases");
    }

    #[test]
    fn metered_recorder_uses_the_tail_of_a_small_budget() {
        // The chunk ask exceeds the budget, but the exact need fits: the
        // retry path must use the remaining tail rather than overflow.
        let budget = LedgerBudget::new(8);
        let mut rec = Recorder::new().with_budget(budget.clone());
        for i in 0..4u32 {
            rec.access(Access::read(0x100 + 4 * i, Context::Mutator));
        }
        let trace = rec.finish().expect("4 small deltas fit in 8 bytes");
        assert!(trace.bytes() <= 8);
        assert_eq!(budget.outstanding(), trace.bytes());
    }

    #[test]
    fn payload_trace_replays_identically_to_heap_segments() {
        let events: Vec<Access> = (0..800u32)
            .map(|i| {
                if i % 5 == 0 {
                    Access::write(i.wrapping_mul(0x9e37_79b9), Context::Collector)
                } else {
                    Access::read(0x2000_0000 + 12 * i, Context::Mutator)
                }
            })
            .collect();
        // Tiny segments: the concatenated payload spans many seals, so
        // this also proves decoder state survives chunk flattening.
        let trace = roundtrip(&events, 32);
        let payload: Box<[u8]> = trace.payload_chunks().flatten().copied().collect();
        let loaded = RecordedTrace::from_payload(payload.clone(), trace.events())
            .expect("a recorded payload is accepted");
        assert_eq!(loaded.bytes(), trace.bytes());
        assert_eq!(loaded.events(), trace.events());
        let mut out = VecSink::default();
        loaded.replay(&mut out);
        assert_eq!(out.0, events, "payload replay is event-for-event identical");
        let mut batched = Vec::new();
        loaded.replay_batched(|b| batched.extend(b.accesses()));
        assert_eq!(batched, events, "payload batched replay identical");

        // A wrong event count or a cut-off token is rejected.
        assert!(RecordedTrace::from_payload(payload.clone(), trace.events() + 1).is_none());
        let cut: Box<[u8]> = Box::from(&payload[..payload.len() - 1]);
        assert!(RecordedTrace::from_payload(cut, trace.events()).is_none());
        let empty = RecordedTrace::from_payload(Box::new([]), 0).expect("empty payload");
        assert_eq!((empty.events(), empty.bytes()), (0, 0));
    }

    /// Record `events` at `segment_bytes`, then demand the batched decode
    /// yields exactly the scalar replay's stream in full batches; returns
    /// the number of batches.
    fn assert_batched_matches_scalar(events: &[Access], segment_bytes: usize) -> usize {
        let mut rec = Recorder::new().with_segment_bytes(segment_bytes);
        for &a in events {
            rec.access(a);
        }
        let trace = rec.finish().expect("unbounded recorder never overflows");
        let mut scalar = VecSink::default();
        trace.replay(&mut scalar);
        let mut batched = Vec::new();
        let mut batches = 0;
        trace.replay_batched(|b| {
            assert!(!b.is_empty() && b.len() <= EVENT_BATCH);
            assert!(
                batched.len() % EVENT_BATCH == 0,
                "only the last batch may be short"
            );
            batched.extend(b.accesses());
            batches += 1;
        });
        assert_eq!(
            batched, scalar.0,
            "batched decode diverged at segment size {segment_bytes}"
        );
        assert_eq!(scalar.0, events, "scalar oracle round-trips");
        batches
    }

    /// SplitMix64, inlined: the trace crate cannot depend on the root
    /// testkit (dependency direction), and three lines of PRNG beat an
    /// extra dev-dependency.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn batched_replay_is_bit_identical_on_adversarial_streams() {
        // Wraparound deltas, absolute rejumps, dense flag flips, segment
        // sizes 16–4096 B, and stream lengths straddling every batch-size
        // edge (shorter than one batch, exactly one, one past).
        let mut state = 0x51ab_c0ff_ee00_0001u64;
        for &seg in &[16usize, 33, 64, 256, 1024, 4096] {
            for &n in &[1usize, 3, 7, 40, 63, 64, 65, 129, 500, 4000] {
                let mut addr = 0u32;
                let events: Vec<Access> = (0..n)
                    .map(|_| {
                        let r = splitmix(&mut state);
                        addr = match r % 5 {
                            0 => addr.wrapping_add((r >> 8) as u32),  // huge jump, wraps
                            1 => addr.wrapping_add(4),                // monotone word walk
                            2 => addr.wrapping_sub((r >> 48) as u32), // negative delta
                            3 => (r >> 16) as u32,                    // absolute rejump
                            _ => addr.wrapping_add(((r >> 40) & 0xff) as u32),
                        };
                        let ctx = if r & (1 << 60) != 0 {
                            Context::Collector
                        } else {
                            Context::Mutator
                        };
                        match (r >> 61) % 3 {
                            0 => Access::read(addr, ctx),
                            1 => Access::write(addr, ctx),
                            _ => Access::alloc_write(addr, ctx),
                        }
                    })
                    .collect();
                assert_batched_matches_scalar(&events, seg);
            }
        }
    }

    #[test]
    fn batched_state_carries_across_tiny_segments() {
        // 16-byte segments: batches span many seal points, so decoder
        // state (prev_addr, flags) must carry across every one of them.
        let mut events = Vec::new();
        for i in 0..800u32 {
            let ctx = if i % 7 == 0 {
                Context::Collector
            } else {
                Context::Mutator
            };
            events.push(Access::write(i.wrapping_mul(0x9e37_79b9), ctx));
        }
        let batches = assert_batched_matches_scalar(&events, 16);
        assert_eq!(batches, 800usize.div_ceil(EVENT_BATCH));
    }

    #[test]
    fn payload_walk_counts_whole_events_and_rejects_cut_or_overlong_tokens() {
        let events = vec![
            Access::read(0x10, Context::Mutator),
            Access::write(0x8000_0010, Context::Collector), // 5-byte token + flags
            Access::read(0x14, Context::Collector),
        ];
        let trace = roundtrip(&events, 4096);
        let payload: Vec<u8> = trace.payload_chunks().flatten().copied().collect();
        assert_eq!(payload_events(&payload), Some(3));
        assert_eq!(payload_events(&[]), Some(0));
        // Every cut that is not an event boundary is rejected.
        let boundaries: Vec<usize> = (0..=payload.len())
            .filter(|&n| payload_events(&payload[..n]).is_some())
            .collect();
        assert_eq!(boundaries.len(), events.len() + 1, "{boundaries:?}");
        assert_eq!(boundaries.last(), Some(&payload.len()));
        // Six continuation groups are longer than any encoded token.
        assert_eq!(payload_events(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x00]), None);
    }
}
