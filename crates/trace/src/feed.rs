//! The segment feed: a live recording read while it grows.
//!
//! A [`Recorder`](crate::Recorder) with a [`FeedWriter`] attached
//! publishes every segment it seals; each of the feed's [`FeedReader`]s
//! receives every segment, in publish order, and decodes it with the
//! same decoder [`RecordedTrace::replay`] runs over a finished capture.
//! A crew pass is therefore always a replay: of a stored trace on a
//! store hit ([`Segments::Trace`]), of the feed otherwise
//! ([`Segments::Feed`]).
//!
//! The feed holds a published segment until every reader has decoded
//! it, and at most [`FEED_WINDOW`] such segments: when the slowest reader
//! lags that far behind, the producer waits (counted in
//! [`FeedStats::wait_ns`] and recorded as a `backpressure` span). A
//! dropped writer, or a reader dropped before the end of the stream (a
//! panicking reader), closes the feed early: waiting readers see
//! the end of the stream, a waiting producer stops waiting, and nothing
//! blocks forever.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use cachegc_telemetry::probe;

use crate::recorded::{replay_chunks, replay_chunks_batched, EventBatch, RecordedTrace};
use crate::sink::TraceSink;

/// Published segments a feed holds for its readers before the producer
/// waits: the slowest reader may fall this many segments behind.
pub const FEED_WINDOW: usize = 8;

/// A new feed with `readers` readers, in reader order.
pub fn feed(readers: usize) -> (FeedWriter, Vec<FeedReader>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            window: VecDeque::new(),
            base: 0,
            released: vec![Some(0); readers],
            end: End::Open,
        }),
        changed: Condvar::new(),
    });
    let readers = (0..readers)
        .map(|index| FeedReader {
            shared: Arc::clone(&shared),
            index,
            taken: 0,
            events: 0,
            ended: false,
        })
        .collect();
    let writer = FeedWriter {
        shared,
        stats: FeedStats::default(),
        closed: false,
    };
    (writer, readers)
}

/// What a feed's producer observed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FeedStats {
    /// Segments published.
    pub segments: u64,
    /// Time the producer waited for the slowest reader, nanoseconds.
    pub wait_ns: u64,
    /// Most published segments the slowest reader had yet to decode.
    pub max_lag: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    Open,
    Finished,
    Aborted,
}

struct State {
    /// Published segments some reader still needs, oldest first, each
    /// with its event count.
    window: VecDeque<(Arc<[u8]>, u64)>,
    /// Sequence number of `window[0]`.
    base: u64,
    /// Per reader: segments it has finished decoding; `None` once the
    /// reader is gone.
    released: Vec<Option<u64>>,
    end: End,
}

impl State {
    fn published(&self) -> u64 {
        self.base + self.window.len() as u64
    }

    /// Drop the segments every remaining reader has finished with.
    fn trim(&mut self) {
        let floor = self
            .released
            .iter()
            .flatten()
            .min()
            .copied()
            .unwrap_or_else(|| self.published());
        while self.base < floor {
            self.window.pop_front();
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

/// The producer's end of a feed; see the module docs. Dropping it
/// without [`FeedWriter::finish`] closes the feed as aborted.
pub struct FeedWriter {
    shared: Arc<Shared>,
    stats: FeedStats,
    closed: bool,
}

impl std::fmt::Debug for FeedWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeedWriter")
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl FeedWriter {
    /// Publish the next sealed segment, which encodes `events` events.
    /// Waits while the slowest reader is [`FEED_WINDOW`] segments
    /// behind; on a feed closed early the segment is dropped unread.
    pub fn publish(&mut self, segment: Arc<[u8]>, events: u64) {
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
            return;
        }
        state.window.push_back((segment, events));
        self.stats.segments += 1;
        self.stats.max_lag = self.stats.max_lag.max(state.window.len() as u64);
        // With no reader left the segment goes at once.
        state.trim();
        drop(state);
        self.shared.changed.notify_all();
    }

    /// End the stream: readers see its end once they have decoded every
    /// published segment. Returns what the producer observed.
    pub fn finish(mut self) -> FeedStats {
        self.closed = true;
        self.shared.close(End::Finished);
        self.stats
    }
}

impl Drop for FeedWriter {
    fn drop(&mut self) {
        if !self.closed {
            self.shared.close(End::Aborted);
        }
    }
}

/// One reader's end of a feed: an iterator over the published segments,
/// in order, that blocks until the next one is published and ends with
/// the stream (or when the feed is closed early). Dropping a reader
/// before the end of the stream closes the feed for everyone.
pub struct FeedReader {
    shared: Arc<Shared>,
    index: usize,
    /// Segments handed out so far.
    taken: u64,
    /// Events in the segments handed out so far.
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

impl Iterator for FeedReader {
    type Item = Arc<[u8]>;

    /// The next segment. Asking for it releases the previous one, so a
    /// caller decodes each segment before asking for the next.
    fn next(&mut self) -> Option<Arc<[u8]>> {
        let mut state = self.shared.lock();
        state.released[self.index] = Some(self.taken);
        state.trim();
        let next = loop {
            if state.end == End::Aborted {
                break None;
            }
            if self.taken < state.published() {
                let (segment, events) = &state.window[(self.taken - state.base) as usize];
                self.events += events;
                self.taken += 1;
                break Some(Arc::clone(segment));
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

/// Where a replay reader's encoded segments come from: a finished
/// capture, or a feed a live recorder is still filling. Both decode
/// through the one decoder, so a reader is the same code either way.
#[derive(Debug)]
pub enum Segments<'a> {
    /// A finished capture, replayed as many times as asked.
    Trace(&'a RecordedTrace),
    /// A live feed; its segments are delivered once.
    Feed(FeedReader),
}

impl Segments<'_> {
    /// Decode the stream into `sink`, as [`RecordedTrace::replay`].
    pub fn replay<S: TraceSink + ?Sized>(&mut self, sink: &mut S) {
        match self {
            Segments::Trace(trace) => trace.replay(sink),
            Segments::Feed(reader) => replay_chunks(reader, sink),
        }
    }

    /// Decode the stream in batches, as [`RecordedTrace::replay_batched`].
    pub fn replay_batched<F: FnMut(&EventBatch)>(&mut self, consume: F) {
        match self {
            Segments::Trace(trace) => trace.replay_batched(consume),
            Segments::Feed(reader) => replay_chunks_batched(reader, consume),
        }
    }

    /// Events delivered: a trace's whole stream, or the events in the
    /// feed segments decoded so far.
    pub fn events(&self) -> u64 {
        match self {
            Segments::Trace(trace) => trace.events(),
            Segments::Feed(reader) => reader.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Access, Context};
    use crate::recorded::Recorder;
    use std::sync::Weak;
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

    #[test]
    fn slow_readers_never_leave_more_than_the_window_of_unkept_segments_alive() {
        let (mut writer, readers) = feed(2);
        let alive =
            |published: &[Weak<[u8]>]| published.iter().filter(|w| w.strong_count() > 0).count();
        std::thread::scope(|s| {
            for (i, reader) in readers.into_iter().enumerate() {
                s.spawn(move || {
                    for _segment in reader {
                        if i == 1 {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                });
            }
            let mut published = Vec::new();
            for n in 0..64u8 {
                let segment: Arc<[u8]> = Arc::from(vec![n; 32].into_boxed_slice());
                published.push(Arc::downgrade(&segment));
                writer.publish(segment, 1);
                let live = alive(&published);
                assert!(
                    live <= FEED_WINDOW,
                    "{live} unkept segments alive after {n}"
                );
            }
            let stats = writer.finish();
            assert_eq!(stats.segments, 64);
            assert_eq!(
                stats.max_lag, FEED_WINDOW as u64,
                "the slow reader filled the window"
            );
            assert!(stats.wait_ns > 0, "the producer waited for it");
        });
    }

    #[test]
    fn a_recorder_dropped_mid_stream_ends_every_reader() {
        let (writer, readers) = feed(3);
        std::thread::scope(|s| {
            let handles: Vec<_> = readers
                .into_iter()
                .map(|reader| s.spawn(move || reader.count()))
                .collect();
            let mut rec = Recorder::with_limit(0)
                .with_segment_bytes(16)
                .with_feed(writer);
            for a in stream(2_000) {
                rec.access(a);
            }
            drop(rec);
            for h in handles {
                h.join().expect("reader ended instead of waiting forever");
            }
        });
    }

    #[test]
    fn a_panicking_reader_does_not_wedge_the_producer() {
        let (mut writer, readers) = feed(2);
        std::thread::scope(|s| {
            let mut readers = readers.into_iter();
            let healthy = readers.next().unwrap();
            let doomed = readers.next().unwrap();
            let healthy = s.spawn(move || healthy.count());
            let doomed = s.spawn(move || {
                for (i, _segment) in doomed.enumerate() {
                    assert!(i < 2, "reader fails on its third segment");
                }
            });
            // Far more segments than the window: with the failed reader
            // still counted, the producer would wait forever.
            for n in 0..(4 * FEED_WINDOW as u8) {
                writer.publish(Arc::from(vec![n; 8].into_boxed_slice()), 1);
            }
            writer.finish();
            assert!(doomed.join().is_err(), "the reader's panic surfaces");
            let seen = healthy.join().unwrap();
            assert!(seen < 4 * FEED_WINDOW, "the feed closed early: {seen}");
        });
    }
}
