//! Disk spill for the trace store: versioned segment files, read back
//! into the heap.
//!
//! A stored scenario writes through to `<dir>/<scenario>.seg` the moment
//! it is captured, so an evicted scenario reloads from disk instead of
//! re-running the VM, and a restarted process warm-starts from the spill
//! directory. A read streams the file once: the header into a small
//! buffer, the payload straight into the single heap segment of the
//! [`RecordedTrace`] it returns, which the store then charges against its
//! budget like any capture.
//!
//! # Segment file format (version 1, little-endian)
//!
//! ```text
//! magic      8  b"CGTSEG1\n" — format version is part of the magic
//! label_len  4  u32
//! label      …  UTF-8 scenario label (stale-file check)
//! events     8  u64
//! stats     13×8 RunStats: instructions (program, collector,
//!               gc_induced), allocated_bytes, then GcStats in declared
//!               order
//! payload    8  u64 length, then that many bytes — the concatenated
//!               sealed segments of the recorded stream (the decoder
//!               carries state across segment boundaries, so
//!               concatenation replays identically)
//! checksum   8  FNV-1a 64 over every preceding byte
//! ```
//!
//! Files are written to a temporary sibling and renamed into place, so a
//! crash mid-write never leaves a half-segment under the real name. Any
//! validation failure on read — wrong magic (old format), wrong label
//! (hash collision or renamed scenario), wrong length, wrong checksum, or
//! a payload that does not decode to exactly `events` events — rejects
//! the file and the scenario falls back to live recording; a spill file
//! is never a correctness dependency.

use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use cachegc_gc::GcStats;
use cachegc_telemetry::probe;
use cachegc_trace::{Counters, RecordedTrace};
use cachegc_vm::RunStats;

const MAGIC: &[u8; 8] = b"CGTSEG1\n";
/// u64 fields in the serialized [`RunStats`] block.
const STATS_WORDS: usize = 13;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into the running FNV-1a 64 hash `h`.
fn fnv1a_extend(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

fn stats_words(stats: &RunStats) -> [u64; STATS_WORDS] {
    [
        stats.instructions.program(),
        stats.instructions.collector(),
        stats.instructions.gc_induced(),
        stats.allocated_bytes,
        stats.gc.collections,
        stats.gc.minor_collections,
        stats.gc.major_collections,
        stats.gc.bytes_copied,
        stats.gc.bytes_promoted,
        stats.gc.barrier_stores,
        stats.gc.remembered,
        stats.gc.bytes_swept,
        stats.gc.lines_reclaimed,
    ]
}

fn stats_from_words(w: &[u64; STATS_WORDS]) -> RunStats {
    RunStats {
        instructions: Counters::from_parts(w[0], w[1], w[2]),
        allocated_bytes: w[3],
        gc: GcStats {
            collections: w[4],
            minor_collections: w[5],
            major_collections: w[6],
            bytes_copied: w[7],
            bytes_promoted: w[8],
            barrier_stores: w[9],
            remembered: w[10],
            bytes_swept: w[11],
            lines_reclaimed: w[12],
        },
    }
}

/// The spill file name for a scenario label: the label with every
/// filesystem-hostile byte flattened to `_`, suffixed with the label's
/// FNV-1a hash so flattening collisions ("a/b" vs "a_b") stay distinct.
/// Deterministic, so a restarted process finds its predecessor's files.
pub(crate) fn segment_file_name(label: &str) -> String {
    let safe: String = label
        .chars()
        .map(|c| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '.' | '-' | '_' | '@' | '+' => c,
            _ => '_',
        })
        .collect();
    format!("{safe}-{:016x}.seg", fnv1a(label.as_bytes()))
}

/// Why a spill file was rejected on read; callers treat every variant as
/// "record live instead", the distinction is for diagnostics.
#[derive(Debug)]
pub(crate) enum SpillReject {
    /// I/O failure mid-read (not a missing file).
    Io(io::Error),
    /// Structural failure: bad magic/version, label mismatch, truncated
    /// or oversized body, checksum mismatch, or a payload that does not
    /// decode to the header's event count.
    Invalid(&'static str),
}

impl From<io::Error> for SpillReject {
    fn from(e: io::Error) -> Self {
        SpillReject::Io(e)
    }
}

impl std::fmt::Display for SpillReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillReject::Io(e) => write!(f, "read failed: {e}"),
            SpillReject::Invalid(why) => f.write_str(why),
        }
    }
}

/// A scenario re-materialized from disk.
pub(crate) struct LoadedSegment {
    pub trace: RecordedTrace,
    pub stats: RunStats,
}

/// A spill directory: write-through persistence for stored scenarios.
#[derive(Debug, Clone)]
pub(crate) struct SpillDir {
    dir: PathBuf,
}

impl SpillDir {
    pub fn new(dir: PathBuf) -> Self {
        SpillDir { dir }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, label: &str) -> PathBuf {
        self.dir.join(segment_file_name(label))
    }

    /// Persist a captured scenario. Writes `<name>.seg.tmp` then renames
    /// over `<name>.seg`, so readers never see a torn file. The payload
    /// streams from the trace's segments to the file; nothing holds a
    /// second copy of it.
    pub fn write(&self, label: &str, trace: &RecordedTrace, stats: &RunStats) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let final_path = self.path_for(label);
        let tmp_path = final_path.with_extension("seg.tmp");
        let mut w = Hashed {
            inner: BufWriter::new(File::create(&tmp_path)?),
            hash: FNV_OFFSET,
        };
        w.write_all(MAGIC)?;
        w.write_all(&u32::try_from(label.len()).unwrap_or(u32::MAX).to_le_bytes())?;
        w.write_all(label.as_bytes())?;
        w.write_all(&trace.events().to_le_bytes())?;
        for word in stats_words(stats) {
            w.write_all(&word.to_le_bytes())?;
        }
        w.write_all(&trace.bytes().to_le_bytes())?;
        for chunk in trace.payload_chunks() {
            w.write_all(chunk)?;
        }
        let checksum = w.hash;
        let mut out = w.inner;
        out.write_all(&checksum.to_le_bytes())?;
        let file = out.into_inner().map_err(io::IntoInnerError::into_error)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp_path, &final_path)
    }

    /// Re-materialize a scenario. `Ok(None)` means no spill file exists
    /// (an ordinary cold miss); `Err` means a file exists but failed
    /// validation and must be ignored. Only a file that exists is timed
    /// as a `spill_load` phase, so the phase counts loads plus rejects.
    pub fn read(&self, label: &str) -> Result<Option<LoadedSegment>, SpillReject> {
        let opened = File::open(self.path_for(label));
        if matches!(&opened, Err(e) if e.kind() == io::ErrorKind::NotFound) {
            return Ok(None);
        }
        let _span = probe::phase("spill_load");
        let file = opened?;
        // Every length the header claims is checked against the file's
        // before anything of that length is read or allocated.
        let len = file.metadata()?.len();
        let mut r = Hashed {
            inner: BufReader::new(file),
            hash: FNV_OFFSET,
        };
        let fail = |why| Err(SpillReject::Invalid(why));
        let mut at = (MAGIC.len() + 4) as u64;
        if len < at {
            return fail("shorter than the fixed header");
        }
        if r.array::<8>()? != *MAGIC {
            return fail("magic/version mismatch");
        }
        let label_len = u32::from_le_bytes(r.array()?);
        at += u64::from(label_len);
        if len < at {
            return fail("truncated label");
        }
        let mut stored_label = vec![0; label_len as usize];
        r.fill(&mut stored_label)?;
        if stored_label != label.as_bytes() {
            return fail("label mismatch (stale or colliding file)");
        }
        // events + stats + payload_len + checksum must fit.
        at += (8 + STATS_WORDS * 8 + 8) as u64;
        if len < at + 8 {
            return fail("truncated header");
        }
        let events = r.u64()?;
        let mut words = [0u64; STATS_WORDS];
        for word in &mut words {
            *word = r.u64()?;
        }
        let payload_len = r.u64()?;
        if at.checked_add(payload_len).and_then(|n| n.checked_add(8)) != Some(len) {
            return fail("length mismatch (truncated or trailing bytes)");
        }
        let Ok(payload_len) = usize::try_from(payload_len) else {
            return fail("payload length overflows");
        };
        let mut payload = vec![0; payload_len].into_boxed_slice();
        r.fill(&mut payload)?;
        let computed = r.hash;
        if u64::from_le_bytes(r.array()?) != computed {
            return fail("checksum mismatch");
        }
        // A checksum only proves the file is the one written; the payload
        // must also decode to exactly the recorded event count, or a replay
        // would panic on a cut-off token or report wrong event totals.
        let Some(trace) = RecordedTrace::from_payload(payload, events) else {
            return fail("payload does not decode to the recorded event count");
        };
        Ok(Some(LoadedSegment {
            trace,
            stats: stats_from_words(&words),
        }))
    }
}

/// A reader or writer that folds every byte it passes into a running
/// FNV-1a hash.
struct Hashed<T> {
    inner: T,
    hash: u64,
}

impl<W: Write> Write for Hashed<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash = fnv1a_extend(self.hash, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<R: Read> Hashed<R> {
    fn fill(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_exact(buf)?;
        self.hash = fnv1a_extend(self.hash, buf);
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut buf = [0; N];
        self.fill(&mut buf)?;
        Ok(buf)
    }

    fn u64(&mut self) -> io::Result<u64> {
        self.array().map(u64::from_le_bytes)
    }
}

/// A scratch directory `cachegc-{tag}-PID-THREAD` under the system temp
/// dir, removed with everything in it when the guard drops, so a test
/// leaves nothing behind even when it fails.
#[cfg(test)]
pub(crate) struct TempDir(PathBuf);

#[cfg(test)]
impl TempDir {
    pub(crate) fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "cachegc-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    pub(crate) fn path(&self) -> PathBuf {
        self.0.clone()
    }
}

#[cfg(test)]
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegc_trace::{Access, Context, Recorder, TraceSink};

    #[derive(Default, PartialEq, Debug)]
    struct VecSink(Vec<Access>);
    impl TraceSink for VecSink {
        fn access(&mut self, a: Access) {
            self.0.push(a);
        }
    }

    fn sample_trace(n: u32) -> RecordedTrace {
        let mut rec = Recorder::new().with_segment_bytes(64);
        for i in 0..n {
            rec.access(Access::write(i.wrapping_mul(0x9e37_79b9), Context::Mutator));
        }
        rec.finish().expect("unbounded")
    }

    #[test]
    fn write_then_read_round_trips_trace_and_stats() {
        let tmp = TempDir::new("spill-roundtrip");
        let spill = SpillDir::new(tmp.path());
        let trace = sample_trace(500);
        let mut stats = RunStats {
            allocated_bytes: 12_345,
            ..Default::default()
        };
        stats.gc.collections = 7;
        stats.gc.lines_reclaimed = 99;
        stats
            .instructions
            .charge(cachegc_trace::InstrClass::GcInduced, 3);
        spill
            .write("compile@1+cheney/2.0M", &trace, &stats)
            .unwrap();

        let loaded = spill
            .read("compile@1+cheney/2.0M")
            .expect("valid file")
            .expect("file exists");
        assert_eq!(loaded.trace.events(), trace.events());
        assert_eq!(loaded.trace.bytes(), trace.bytes());
        assert_eq!(loaded.stats.allocated_bytes, 12_345);
        assert_eq!(loaded.stats.gc.collections, 7);
        assert_eq!(loaded.stats.gc.lines_reclaimed, 99);
        assert_eq!(loaded.stats.instructions.gc_induced(), 3);
        let (mut live, mut reloaded) = (VecSink::default(), VecSink::default());
        trace.replay(&mut live);
        loaded.trace.replay(&mut reloaded);
        assert_eq!(
            live, reloaded,
            "reloaded replay is event-for-event identical"
        );
    }

    #[test]
    fn file_layout_is_pinned_byte_for_byte() {
        let tmp = TempDir::new("spill-layout");
        let spill = SpillDir::new(tmp.path());
        let mut rec = Recorder::new();
        rec.access(Access::read(0x10, Context::Mutator));
        rec.access(Access::write(0x14, Context::Collector));
        let trace = rec.finish().expect("unbounded");
        let words: [u64; STATS_WORDS] = std::array::from_fn(|i| 0x0101 * (i as u64 + 1));
        spill
            .write("w@1", &trace, &stats_from_words(&words))
            .unwrap();

        let mut want = b"CGTSEG1\n".to_vec();
        want.extend(3u32.to_le_bytes());
        want.extend(b"w@1");
        want.extend(2u64.to_le_bytes());
        for word in words {
            want.extend(word.to_le_bytes());
        }
        want.extend(3u64.to_le_bytes());
        want.extend([0x40, 0x11, 0x03]);
        want.extend(0x1648_0898_d820_138du64.to_le_bytes());
        assert_eq!(fs::read(spill.path_for("w@1")).unwrap(), want);
        assert!(
            !spill.path_for("w@1").with_extension("seg.tmp").exists(),
            "the temporary file was renamed into place"
        );
    }

    #[test]
    fn missing_file_is_a_cold_miss_not_an_error() {
        let tmp = TempDir::new("spill-missing");
        let spill = SpillDir::new(tmp.path());
        assert!(spill.read("nothing@1").expect("no error").is_none());
    }

    #[test]
    fn truncated_and_corrupt_files_are_rejected() {
        let tmp = TempDir::new("spill-corrupt");
        let spill = SpillDir::new(tmp.path());
        let trace = sample_trace(200);
        spill.write("w@1", &trace, &RunStats::default()).unwrap();
        let path = spill.path_for("w@1");

        // Truncation: cut the tail off.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 9]).unwrap();
        assert!(matches!(spill.read("w@1"), Err(SpillReject::Invalid(_))));

        // Bit flip in the payload: checksum must catch it.
        let mut flipped = full.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            spill.read("w@1"),
            Err(SpillReject::Invalid("checksum mismatch"))
        ));

        // A payload length of u64::MAX: rejected, not an overflow.
        let mut huge = full.clone();
        let len_at = MAGIC.len() + 4 + "w@1".len() + 8 + STATS_WORDS * 8;
        huge[len_at..len_at + 8].fill(0xff);
        fs::write(&path, &huge).unwrap();
        assert!(matches!(
            spill.read("w@1"),
            Err(SpillReject::Invalid(
                "length mismatch (truncated or trailing bytes)"
            ))
        ));

        // Stale format: wrong magic.
        let mut stale = full.clone();
        stale[6] = b'0'; // CGTSEG1 -> CGTSE01
        fs::write(&path, &stale).unwrap();
        assert!(matches!(
            spill.read("w@1"),
            Err(SpillReject::Invalid("magic/version mismatch"))
        ));

        // A different label hashing to the same path cannot happen, but a
        // renamed scenario reusing a file name must be rejected too.
        fs::write(&path, &full).unwrap();
        let other = spill.path_for("other@1");
        fs::create_dir_all(other.parent().unwrap()).unwrap();
        fs::copy(&path, &other).unwrap();
        assert!(matches!(
            spill.read("other@1"),
            Err(SpillReject::Invalid(
                "label mismatch (stale or colliding file)"
            ))
        ));
    }

    /// Rewrite the file at `path` with `edit` applied to its payload and
    /// header, then re-seal it with a valid checksum.
    fn reseal(path: &Path, label: &str, edit: impl FnOnce(&mut u64, &mut Vec<u8>)) {
        let full = fs::read(path).unwrap();
        let word = |at: usize| u64::from_le_bytes(full[at..at + 8].try_into().unwrap());
        let events_at = MAGIC.len() + 4 + label.len();
        let stats_at = events_at + 8;
        let payload_at = stats_at + STATS_WORDS * 8 + 8;
        let mut events = word(events_at);
        let header = full[..events_at].to_vec();
        let stats = full[stats_at..payload_at - 8].to_vec();
        let len = word(payload_at - 8) as usize;
        let mut payload = full[payload_at..payload_at + len].to_vec();
        edit(&mut events, &mut payload);
        let mut body = header;
        body.extend_from_slice(&events.to_le_bytes());
        body.extend_from_slice(&stats);
        body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        body.extend_from_slice(&payload);
        let checksum = fnv1a(&body);
        body.extend_from_slice(&checksum.to_le_bytes());
        fs::write(path, body).unwrap();
    }

    #[test]
    fn checksum_valid_files_that_do_not_decode_are_rejected() {
        let tmp = TempDir::new("spill-undecodable");
        let spill = SpillDir::new(tmp.path());
        // Large strides: multi-byte tokens, so cutting the last byte
        // leaves a token with its continuation bit set.
        let mut rec = Recorder::new();
        for i in 0..100u32 {
            rec.access(Access::read(i.wrapping_mul(0x0123_4567), Context::Mutator));
        }
        let trace = rec.finish().unwrap();
        spill.write("w@1", &trace, &RunStats::default()).unwrap();
        let path = spill.path_for("w@1");
        assert!(spill.read("w@1").unwrap().is_some(), "intact file loads");
        let expect_reject = |why: &str| match spill.read("w@1") {
            Err(SpillReject::Invalid(msg)) => assert!(msg.contains("decode"), "{why}: {msg}"),
            Err(e) => panic!("{why}: {e}"),
            Ok(_) => panic!("{why}: accepted"),
        };

        // The last token cut off, header event count lowered to match.
        let full = fs::read(&path).unwrap();
        reseal(&path, "w@1", |events, payload| {
            assert!(payload.len() >= 2 && payload[payload.len() - 2] & 0x80 != 0);
            payload.pop();
            *events -= 1;
        });
        expect_reject("cut-off last token");

        // An intact payload under an inflated event count.
        fs::write(&path, &full).unwrap();
        reseal(&path, "w@1", |events, _| *events += 1);
        expect_reject("inflated event count");
    }

    #[test]
    fn file_names_flatten_hostile_bytes_and_stay_distinct() {
        let a = segment_file_name("compile@1+cheney/2.0M");
        let b = segment_file_name("compile@1+cheney_2.0M");
        assert!(!a.contains('/'), "collector names carry slashes: {a}");
        assert_ne!(a, b, "flattened labels disambiguate via the hash suffix");
        assert_eq!(a, segment_file_name("compile@1+cheney/2.0M"));
    }

    #[test]
    fn empty_trace_round_trips() {
        let tmp = TempDir::new("spill-empty");
        let spill = SpillDir::new(tmp.path());
        let trace = Recorder::new().finish().unwrap();
        assert_eq!(trace.bytes(), 0);
        spill
            .write("empty@1", &trace, &RunStats::default())
            .unwrap();
        let loaded = spill.read("empty@1").unwrap().unwrap();
        assert_eq!(loaded.trace.events(), 0);
        let mut out = VecSink::default();
        loaded.trace.replay(&mut out);
        assert!(out.0.is_empty());
    }
}
