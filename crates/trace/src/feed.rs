//! The live feed: a run's raw events, read while the run goes on.
//!
//! Every pass has one producer, which drives a [`FeedWriter`]: the VM on
//! a live pass, a stored trace's decoder on a store hit. The writer is a
//! [`TraceSink`] that appends each event's address and flag byte to a
//! [`FeedBlock`] of [`EventBatch`]es and publishes every block once it
//! holds [`FEED_BLOCK_EVENTS`] events. Each of the feed's [`FeedReader`]s
//! receives every block, in publish order, and hands its batches to a
//! batch consumer or its events to per-event sinks: nothing is encoded or
//! decoded on the readers' side, and a stored trace is decoded once,
//! however many readers read it. A store miss's recorder is one more
//! reader (a [`Recording`]), so only a capture the store may keep is
//! encoded, and off the producer's thread; the producer still allocates
//! the capture's segment buffers.
//!
//! The writer's side allocates the blocks and recycles them. The feed
//! holds a published block until every reader has read it, and at most
//! [`FEED_WINDOW`] such blocks: when the slowest reader lags that far
//! behind, the producer waits (counted in [`FeedStats::wait_ns`] and
//! recorded as a `backpressure` span). A block every reader is done with
//! goes back to the producer to be filled again, so a feed allocates at
//! most `FEED_WINDOW + 1` blocks. A writer sized for a stream of known
//! length ([`FeedWriter::for_stream`]) allocates all of its blocks when it
//! is sized, so its producer allocates nothing. A dropped writer, or a
//! reader dropped before the end of the stream (a panicking reader),
//! closes the feed early: waiting readers see the end of the stream, a
//! waiting producer stops waiting, and nothing blocks forever.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use cachegc_telemetry::probe;

use crate::event::Access;
use crate::recorded::{access_from, flag_bits, EventBatch, Recorder, EVENT_BATCH};
use crate::sink::TraceSink;

/// Published blocks a feed holds for its readers before the producer
/// waits: the slowest reader may fall this many blocks behind.
pub const FEED_WINDOW: usize = 8;

/// Events in a published block (all but a stream's last): 512 full
/// [`EventBatch`]es, about 164 KiB of addresses and flag bytes.
pub const FEED_BLOCK_EVENTS: usize = 512 * EVENT_BATCH;

/// A new feed with `readers` readers, in reader order, whose blocks hold
/// `block_events` events (at least one), and, given a store miss's
/// `recorder`, the [`Recording`] that encodes the stream as one more
/// reader. Passes use [`FEED_BLOCK_EVENTS`]; tests use small blocks
/// to land block boundaries all over a short stream. The writer allocates
/// its first block here, on the calling thread, and the recording's first
/// segment buffer.
pub fn feed(
    readers: usize,
    block_events: usize,
    recorder: Option<Recorder>,
) -> (FeedWriter, Vec<FeedReader>, Option<Recording>) {
    let block_events = block_events.max(1);
    let buffer_bytes = recorder.as_ref().map(Recorder::buffer_bytes);
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            window: VecDeque::new(),
            base: 0,
            released: vec![Some(0); readers + usize::from(recorder.is_some())],
            spare: Vec::new(),
            segment_buffer: buffer_bytes.map(Vec::with_capacity),
            end: End::Open,
        }),
        changed: Condvar::new(),
    });
    let reader = |index| FeedReader {
        shared: Arc::clone(&shared),
        index,
        taken: 0,
        events: 0,
        ended: false,
    };
    let recording = recorder.map(|recorder| Recording {
        reader: reader(readers),
        recorder,
    });
    let readers = (0..readers).map(reader).collect();
    let writer = FeedWriter {
        shared,
        block: FeedBlock::new(block_events),
        block_events,
        buffer_bytes,
        stats: FeedStats {
            allocated: 1,
            ..FeedStats::default()
        },
        last: None,
        closed: false,
    };
    (writer, readers, recording)
}

/// One published stretch of a feed's stream: its events as full
/// [`EventBatch`]es, the last of which may be short.
#[derive(Debug)]
pub struct FeedBlock {
    /// Room for a whole block; `events` of it are filled.
    batches: Box<[EventBatch]>,
    events: usize,
}

impl FeedBlock {
    fn new(block_events: usize) -> Self {
        let batches = vec![EventBatch::empty(); block_events.div_ceil(EVENT_BATCH)];
        FeedBlock {
            batches: batches.into_boxed_slice(),
            events: 0,
        }
    }

    /// The block's events, in stream order, as batches: every batch but
    /// the last is full.
    pub fn batches(&self) -> &[EventBatch] {
        &self.batches[..self.events.div_ceil(EVENT_BATCH)]
    }

    /// Number of events in the block.
    pub fn events(&self) -> usize {
        self.events
    }

    /// Set the filled batches' lengths from the event count.
    fn seal(&mut self) {
        let events = self.events;
        for (i, batch) in self.batches[..events.div_ceil(EVENT_BATCH)]
            .iter_mut()
            .enumerate()
        {
            batch.len = (events - i * EVENT_BATCH).min(EVENT_BATCH);
        }
    }
}

/// What a feed's producer observed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FeedStats {
    /// Blocks published.
    pub blocks: u64,
    /// Events published.
    pub events: u64,
    /// Blocks allocated: at most [`FEED_WINDOW`] + 1 while every reader
    /// lets go of a block before asking for the next, and for a sized
    /// writer all of them when it was sized; every other published block
    /// was a recycled one.
    pub allocated: u64,
    /// Time the producer waited for the slowest reader, nanoseconds.
    pub wait_ns: u64,
    /// Most published blocks the slowest reader had yet to read.
    pub max_lag: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    Open,
    Finished,
    Aborted,
}

struct State {
    /// Published blocks some reader still needs, oldest first.
    window: VecDeque<Arc<FeedBlock>>,
    /// Sequence number of `window[0]`.
    base: u64,
    /// Per reader: blocks it has finished reading; `None` once the
    /// reader is gone.
    released: Vec<Option<u64>>,
    /// Blocks every reader is done with, and the blocks of a sized
    /// writer not yet published, for the producer to fill.
    spare: Vec<Arc<FeedBlock>>,
    /// An empty segment buffer for the feed's [`Recording`].
    segment_buffer: Option<Vec<u8>>,
    end: End,
}

impl State {
    fn published(&self) -> u64 {
        self.base + self.window.len() as u64
    }

    /// Hand the blocks every remaining reader has finished with back to
    /// the producer.
    fn trim(&mut self) {
        let floor = self
            .released
            .iter()
            .flatten()
            .min()
            .copied()
            .unwrap_or_else(|| self.published());
        while self.base < floor {
            if let Some(block) = self.window.pop_front() {
                self.spare.push(block);
            }
            self.base += 1;
        }
    }
}

struct Shared {
    state: Mutex<State>,
    /// Signalled on every publish, release and close.
    changed: Condvar,
}

impl Shared {
    /// The state, even if a thread panicked holding it: the feed's
    /// invariants hold between statements, and the drop handlers that
    /// close a feed run during unwinding, where a second panic aborts.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.changed
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Close the feed, unless it is closed already.
    fn close(&self, end: End) {
        let mut state = self.lock();
        if state.end == End::Open {
            state.end = end;
        }
        drop(state);
        self.changed.notify_all();
    }
}

/// The producer's end of a feed: a [`TraceSink`] that appends each event
/// to the block being filled and publishes it when full; see the module
/// docs. Dropping it without [`FeedWriter::finish`] closes the feed as
/// aborted.
pub struct FeedWriter {
    shared: Arc<Shared>,
    /// The block being filled.
    block: FeedBlock,
    block_events: usize,
    /// Size of the segment buffers the producer supplies to the feed's
    /// [`Recording`], if it has one: one at the start, and another at
    /// the first publish after the recorder took the last. The recorder
    /// encodes into the first and seals each segment into the next, so
    /// the capture is allocated on the producer's thread though encoded
    /// on another.
    buffer_bytes: Option<usize>,
    stats: FeedStats,
    /// A sized writer's stream length, and the empty block its last
    /// block is published in (see [`FeedWriter::for_stream`]).
    last: Option<(u64, Arc<FeedBlock>)>,
    closed: bool,
}

impl std::fmt::Debug for FeedWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeedWriter")
            .field("block_events", &self.block_events)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl FeedWriter {
    /// Size this writer for a stream of exactly `events` events, as a
    /// stored trace's decoder knows its length: every block the stream
    /// will fill, at most [`FEED_WINDOW`] + 1 of them, is allocated now,
    /// on the calling thread, so that writing the stream allocates
    /// nothing. Call it before the first event.
    ///
    /// # Panics
    ///
    /// An event past the `events`th panics.
    pub fn for_stream(mut self, events: u64) -> FeedWriter {
        let block_events = self.block_events as u64;
        let blocks = events
            .div_ceil(block_events)
            .clamp(1, FEED_WINDOW as u64 + 1);
        let mut state = self.shared.lock();
        for _ in self.stats.allocated..blocks {
            state
                .spare
                .push(Arc::new(FeedBlock::new(self.block_events)));
        }
        drop(state);
        self.stats.allocated = self.stats.allocated.max(blocks);
        self.last = Some((events, Arc::new(FeedBlock::new(0))));
        self
    }

    /// Publish the block being filled and take the next one to fill: a
    /// block every reader is done with, or a new one. A sized writer's
    /// last block is published in its empty block instead, and nothing
    /// is taken. Waits while the slowest reader is [`FEED_WINDOW`]
    /// blocks behind; on a feed closed early the block's events are
    /// dropped unread.
    #[cold]
    #[inline(never)]
    fn publish(&mut self) {
        let mut state = self.shared.lock();
        if state.window.len() >= FEED_WINDOW && state.end == End::Open {
            let t0 = Instant::now();
            while state.window.len() >= FEED_WINDOW && state.end == End::Open {
                state = self.shared.wait(state);
            }
            self.stats.wait_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if probe::spans_active() {
                probe::span("backpressure", "sched", t0);
            }
        }
        if state.end != End::Open {
            self.block.events = 0;
            return;
        }
        let events = self.stats.events + self.block.events as u64;
        let mut published = match self.last.take() {
            Some((length, last)) if length == events => last,
            sized => {
                self.last = sized;
                // Every reader let go of a spare block before releasing
                // it, unless it kept a clone: then it stays the reader's.
                match state.spare.pop().filter(|b| Arc::strong_count(b) == 1) {
                    Some(spare) => spare,
                    None => {
                        self.stats.allocated += 1;
                        Arc::new(FeedBlock::new(self.block_events))
                    }
                }
            }
        };
        if let (Some(bytes), None) = (self.buffer_bytes, &state.segment_buffer) {
            state.segment_buffer = Some(Vec::with_capacity(bytes));
        }
        let full = Arc::get_mut(&mut published).expect("a block to publish is unshared");
        std::mem::swap(full, &mut self.block);
        self.block.events = 0;
        full.seal();
        self.stats.blocks += 1;
        self.stats.events += full.events as u64;
        state.window.push_back(published);
        self.stats.max_lag = self.stats.max_lag.max(state.window.len() as u64);
        // With no reader left the block goes back at once.
        state.trim();
        drop(state);
        self.shared.changed.notify_all();
    }

    /// Publish the last, partly filled block and end the stream: readers
    /// see its end once they have read every published block. Returns
    /// what the producer observed.
    pub fn finish(mut self) -> FeedStats {
        if self.block.events > 0 {
            self.publish();
        }
        self.closed = true;
        self.shared.close(End::Finished);
        self.stats
    }
}

impl TraceSink for FeedWriter {
    #[inline]
    fn access(&mut self, a: Access) {
        let i = self.block.events;
        let batch = &mut self.block.batches[i / EVENT_BATCH];
        batch.addrs[i % EVENT_BATCH] = a.addr;
        batch.flags[i % EVENT_BATCH] = flag_bits(&a);
        self.block.events = i + 1;
        if i + 1 == self.block_events {
            self.publish();
        }
    }
}

impl Drop for FeedWriter {
    fn drop(&mut self) {
        if !self.closed {
            self.shared.close(End::Aborted);
        }
    }
}

/// One reader's end of a feed: an iterator over the published blocks, in
/// order, that blocks until the next one is published and ends with the
/// stream (or when the feed is closed early). Dropping a reader before
/// the end of the stream closes the feed for everyone.
pub struct FeedReader {
    shared: Arc<Shared>,
    index: usize,
    /// Blocks handed out so far.
    taken: u64,
    /// Events in the blocks handed out so far.
    events: u64,
    /// True once the reader saw the end of a finished stream.
    ended: bool,
}

impl std::fmt::Debug for FeedReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeedReader")
            .field("index", &self.index)
            .field("taken", &self.taken)
            .field("events", &self.events)
            .finish_non_exhaustive()
    }
}

impl FeedReader {
    /// Deliver the rest of the stream to `sink` event by event.
    pub fn replay<S: TraceSink + ?Sized>(&mut self, sink: &mut S) {
        for block in self {
            for batch in block.batches() {
                let (addrs, flags) = (&batch.addrs[..batch.len], &batch.flags[..batch.len]);
                for (&addr, &flags) in addrs.iter().zip(flags) {
                    sink.access(access_from(addr, flags));
                }
            }
        }
    }

    /// Deliver the rest of the stream in batches: every batch of a block
    /// but its last is full.
    pub fn replay_batched<F: FnMut(&EventBatch)>(&mut self, mut consume: F) {
        for block in self {
            block.batches().iter().for_each(&mut consume);
        }
    }

    /// Events in the blocks read so far.
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl Iterator for FeedReader {
    type Item = Arc<FeedBlock>;

    /// The next block. Asking for it releases the previous one, so a
    /// caller reads each block, and lets go of it, before asking for the
    /// next; a block still held then is not recycled.
    fn next(&mut self) -> Option<Arc<FeedBlock>> {
        let mut state = self.shared.lock();
        state.released[self.index] = Some(self.taken);
        state.trim();
        let next = loop {
            if state.end == End::Aborted {
                break None;
            }
            if self.taken < state.published() {
                let block = &state.window[(self.taken - state.base) as usize];
                self.events += block.events as u64;
                self.taken += 1;
                break Some(Arc::clone(block));
            }
            if state.end == End::Finished {
                self.ended = true;
                break None;
            }
            state = self.shared.wait(state);
        };
        drop(state);
        self.shared.changed.notify_all();
        next
    }
}

impl Drop for FeedReader {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.released[self.index] = None;
        if !self.ended && state.end == End::Open {
            state.end = End::Aborted;
        }
        state.trim();
        drop(state);
        self.shared.changed.notify_all();
    }
}

/// A store miss's capture of a live feed: its recorder, reading the feed
/// as one more reader ([`feed`]), to [`run`](Recording::run) on a thread
/// of its own.
#[derive(Debug)]
pub struct Recording {
    reader: FeedReader,
    recorder: Recorder,
}

impl Recording {
    /// Encode the feed into the recorder, in buffers the producer
    /// supplies, until the stream ends. Once the recorder abandons its
    /// capture (over its limit or budget) the rest of the stream is
    /// drained without encoding, since a reader that stops reading ends
    /// the feed for every reader. On a feed closed early the capture is
    /// abandoned too, so a recorder that missed events never keeps one.
    pub fn run(mut self) -> Recorder {
        while let Some(block) = self.reader.next() {
            if self.recorder.wants_buffer() {
                if let Some(buf) = self.reader.shared.lock().segment_buffer.take() {
                    self.recorder.give_buffer(buf);
                }
            }
            for batch in block.batches() {
                self.recorder.record_batch(batch);
            }
        }
        if !self.reader.ended {
            self.recorder.overflow();
        }
        self.recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Context;
    use std::time::Duration;

    fn stream(n: u32) -> Vec<Access> {
        (0..n)
            .map(|i| {
                let addr = i.wrapping_mul(0x9e37_79b9) ^ (i >> 3);
                if i % 5 == 0 {
                    Access::write(addr, Context::Collector)
                } else {
                    Access::read(addr, Context::Mutator)
                }
            })
            .collect()
    }

    /// Every event of every block, in order.
    fn events_of(reader: FeedReader) -> Vec<Access> {
        let mut out = Vec::new();
        for block in reader {
            for batch in block.batches() {
                out.extend(batch.accesses());
            }
        }
        out
    }

    #[test]
    fn readers_get_every_event_in_blocks_of_full_batches() {
        let events = stream(1_000);
        for block_events in [1, 63, 64, 65, 200] {
            let (mut writer, mut readers, _) = feed(2, block_events, None);
            let (shapes, all) = (readers.remove(0), readers.remove(0));
            std::thread::scope(|s| {
                let shapes = s.spawn(move || {
                    shapes
                        .map(|block| {
                            let lens: Vec<usize> =
                                block.batches().iter().map(EventBatch::len).collect();
                            (block.events(), lens)
                        })
                        .collect::<Vec<_>>()
                });
                let all = s.spawn(move || events_of(all));
                events.iter().for_each(|&a| writer.access(a));
                let stats = writer.finish();
                assert_eq!(stats.events, 1_000);
                assert_eq!(stats.blocks, 1_000usize.div_ceil(block_events) as u64);
                for (i, (n, lens)) in shapes.join().unwrap().into_iter().enumerate() {
                    let want = (1_000 - i * block_events).min(block_events);
                    assert_eq!(n, want, "block {i} at {block_events} events a block");
                    assert_eq!(lens.iter().sum::<usize>(), n);
                    assert!(lens[..lens.len() - 1].iter().all(|&l| l == EVENT_BATCH));
                }
                assert_eq!(all.join().unwrap(), events, "{block_events} events a block");
            });
        }
    }

    #[test]
    fn stalled_readers_block_the_producer_at_the_window_and_blocks_are_reused() {
        let (mut writer, mut readers, _) = feed(2, 16, None);
        let shared = Arc::clone(&writer.shared);
        let stalled = readers.pop().unwrap();
        let eager = readers.pop().unwrap();
        std::thread::scope(|s| {
            s.spawn(move || eager.count());
            let producer = s.spawn(move || {
                for a in stream(64 * 16) {
                    writer.access(a);
                }
                writer.finish()
            });
            // Until the stalled reader reads, the window fills and the
            // producer, with 56 blocks still to publish, cannot finish.
            let mut state = shared.lock();
            while state.window.len() < FEED_WINDOW {
                state = shared.wait(state);
            }
            drop(state);
            assert!(!producer.is_finished(), "the producer waits for the reader");
            // Then it reads a block a millisecond, far slower than the
            // producer fills one, so the producer waits at the window.
            let mut read = 0;
            for _block in stalled {
                std::thread::sleep(Duration::from_millis(1));
                read += 1;
            }
            assert_eq!(read, 64);
            let stats = producer.join().unwrap();
            assert_eq!((stats.blocks, stats.events), (64, 64 * 16));
            assert_eq!(stats.max_lag, FEED_WINDOW as u64, "the window filled");
            assert!(stats.wait_ns > 0, "the producer's wait is counted");
            assert!(
                stats.allocated <= FEED_WINDOW as u64 + 1,
                "{} blocks allocated for 64 published",
                stats.allocated
            );
        });
    }

    #[test]
    fn a_writer_dropped_mid_stream_ends_every_reader() {
        let (mut writer, readers, _) = feed(3, 16, None);
        std::thread::scope(|s| {
            let handles: Vec<_> = readers
                .into_iter()
                .map(|reader| s.spawn(move || reader.count()))
                .collect();
            for a in stream(2_000) {
                writer.access(a);
            }
            drop(writer);
            for h in handles {
                h.join().expect("reader ended instead of waiting forever");
            }
        });
    }

    #[test]
    fn a_panicking_reader_does_not_wedge_the_producer() {
        let (mut writer, readers, _) = feed(2, 1, None);
        std::thread::scope(|s| {
            let mut readers = readers.into_iter();
            let healthy = readers.next().unwrap();
            let doomed = readers.next().unwrap();
            let healthy = s.spawn(move || healthy.count());
            let doomed = s.spawn(move || {
                for (i, _block) in doomed.enumerate() {
                    assert!(i < 2, "reader fails on its third block");
                }
            });
            // Far more blocks than the window: with the failed reader
            // still counted, the producer would wait forever.
            for a in stream(4 * FEED_WINDOW as u32) {
                writer.access(a);
            }
            writer.finish();
            assert!(doomed.join().is_err(), "the reader's panic surfaces");
            let seen = healthy.join().unwrap();
            assert!(seen < 4 * FEED_WINDOW, "the feed closed early: {seen}");
        });
    }

    #[test]
    fn an_abandoned_recorder_drains_the_feed_for_the_other_readers() {
        let events = stream(5_000);
        let (mut writer, mut readers, recording) = feed(1, 100, Some(Recorder::with_limit(64)));
        let (reader, recording) = (readers.pop().unwrap(), recording.unwrap());
        std::thread::scope(|s| {
            let got = s.spawn(move || events_of(reader));
            let rec = s.spawn(move || recording.run());
            events.iter().for_each(|&a| writer.access(a));
            writer.finish();
            let rec = rec.join().unwrap();
            assert!(rec.overflowed());
            assert_eq!(rec.events(), 5_000, "every event counts");
            assert_eq!(got.join().unwrap(), events, "the other reader got them all");
        });
    }

    #[test]
    fn a_recording_of_a_feed_closed_early_keeps_nothing() {
        let (mut writer, readers, recording) = feed(1, 16, Some(Recorder::new()));
        let recording = recording.unwrap();
        std::thread::scope(|s| {
            let reader = readers.into_iter().next().unwrap();
            let reader = s.spawn(move || reader.count());
            let rec = s.spawn(move || recording.run());
            for a in stream(1_000) {
                writer.access(a);
            }
            drop(writer);
            reader.join().unwrap();
            let rec = rec.join().unwrap();
            assert!(rec.overflowed(), "the capture missed the stream's end");
            assert!(rec.finish().is_none());
        });
    }
}
