//! Write-ahead log: the backend contract and the in-memory model.
//!
//! Commit protocols are defined by what survives a crash: a participant
//! that answered an ack must still know, after recovering, that it did.
//! [`WalBackend`] is that durability contract behind a `buffer`/`force`
//! API; [`Wal`] is the deterministic in-memory model the simulator runs
//! on (see `docs/architecture.md`, § `qbc-storage`), and
//! [`crate::FileWal`] is the disk-backed implementation whose `force`
//! is a real `fsync`. The protocols depend only on the contract — a
//! forced record survives any crash, a buffered one does not — which
//! every backend preserves exactly.
//!
//! ## Group commit
//!
//! A force is the expensive operation on a real log device, and its cost
//! is per-*flush*, not per-record. [`WalBackend::buffer`] stages a
//! record without forcing it; [`WalBackend::force`] makes every staged
//! record durable in one flush. Records still buffered when the site
//! crashes are lost ([`WalBackend::lose_volatile`]) — exactly the window
//! a node must cover by withholding acknowledgements until the force
//! returns. [`WalBackend::forces`] counts flushes, which is the number
//! of `fsync`s a disk-backed log pays.
//!
//! ## Storage of the in-memory model
//!
//! A staged record stays a value until its force, so a crash loses
//! exactly the staged values. The force encodes each record with its
//! [`WalCodec`] — the payload [`crate::FileWal`] frames on disk — and
//! packs the payloads, unframed and unchecksummed (nothing tears in
//! memory), into byte chunks of [`Wal::CHUNK_BYTES`], each with the end
//! offset of every record in it. A record larger than a chunk gets a
//! chunk of its own, sized from [`WalCodec::encoded_len`] and written
//! once. The durable log therefore holds bytes, not values: it keeps no
//! `Arc` of anything a record names alive, and reading it back
//! ([`WalBackend::replay`]) decodes one payload at a time.
//!
//! ## Truncation
//!
//! [`WalBackend::truncate_before`] discards a durable prefix once a
//! checkpoint record has captured everything recovery would have learned
//! from it, bounding stable storage (see `docs/wal-format.md`). LSNs are
//! stable across truncation: the log's first retained record keeps its
//! original position ([`WalBackend::start_lsn`]). The in-memory model
//! truncates exactly: it moves its start LSN and frees the chunks that
//! lie wholly below it, one free per chunk rather than per record.

use crate::codec::WalCodec;
use std::collections::VecDeque;
use std::fmt;

/// Log sequence number: position of a record in the log, starting at 0.
/// Stable across truncation — truncating a prefix never renumbers the
/// suffix.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Lsn(pub u64);

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn{}", self.0)
    }
}

/// The durability contract of an append-only, force-written log.
///
/// Implementations: [`Wal`] (in-memory, deterministic), [`crate::FileWal`]
/// (segment files + `fsync`), [`crate::EitherWal`] (runtime choice of
/// the two).
pub trait WalBackend<R> {
    /// Stages a record for the next [`WalBackend::force`]. The returned
    /// [`Lsn`] is the position the record will occupy once forced; until
    /// then it is volatile and a crash discards it.
    fn buffer(&mut self, record: R) -> Lsn;

    /// Flushes every buffered record to durable storage in one force.
    /// Returns the number of records made durable; zero means the buffer
    /// was empty and no force was paid.
    fn force(&mut self) -> usize;

    /// Discards buffered (not yet forced) records: the crash semantics
    /// of the volatile half of the log.
    fn lose_volatile(&mut self);

    /// Number of forces (flushes) performed so far.
    fn forces(&self) -> u64;

    /// Number of records staged but not yet durable.
    fn pending_len(&self) -> usize;

    /// LSN of the oldest retained durable record (0 until the first
    /// truncation).
    fn start_lsn(&self) -> Lsn;

    /// Number of retained durable records in the log.
    fn len(&self) -> usize;

    /// Replays the retained log from its start (recovery): each durable
    /// record with its LSN, in log order, decoded as the walk reaches
    /// it. A disk-backed log keeps no copy in memory and reads it back
    /// from stable storage, so this is for cold callers — recovery,
    /// inspection, tests.
    fn replay(&self) -> Box<dyn Iterator<Item = (Lsn, R)> + '_>;

    /// Discards durable records below `cutoff`, keeping LSNs stable.
    /// A backend may retain *more* than asked (e.g. whole-segment
    /// granularity) but never less; replaying extra already-superseded
    /// prefix is always safe, losing suffix never is.
    fn truncate_before(&mut self, cutoff: Lsn);

    /// Bytes of stable storage currently occupied (0 for in-memory
    /// models) — the quantity truncation bounds.
    fn storage_bytes(&self) -> u64;

    /// Force-appends a record; durable on return. Any buffered records
    /// are flushed first (they precede this one in the log), all in the
    /// same single force.
    fn append(&mut self, record: R) -> Lsn {
        let lsn = self.buffer(record);
        self.force();
        lsn
    }

    /// True when the log holds no retained durable records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The LSN the next buffered record would occupy.
    fn next_lsn(&self) -> Lsn {
        Lsn(self.start_lsn().0 + self.len() as u64 + self.pending_len() as u64)
    }

    /// The retained durable records in log order, collected from
    /// [`WalBackend::replay`]; element `i` sits at LSN `start_lsn + i`.
    fn records(&self) -> Vec<R> {
        self.replay().map(|(_, r)| r).collect()
    }
}

/// The in-memory write-ahead log: the deterministic durability *model*
/// the simulator runs on. Durable records survive
/// [`WalBackend::lose_volatile`] (the crash operator); buffered records
/// do not. Forced records are kept encoded, in chunks (see the module
/// docs).
#[derive(Clone)]
pub struct Wal<R> {
    /// Durable payloads in log order. The first chunk may still hold
    /// truncated records below `start`; every chunk wholly below it is
    /// gone.
    chunks: VecDeque<Chunk>,
    /// LSN of the oldest retained durable record.
    start: u64,
    /// LSN the next forced record takes: `start + len`.
    end: u64,
    /// Buffered records: staged for the next force, lost on crash.
    pending: Vec<R>,
    /// Number of flushes performed (the fsync count of a disk log).
    forces: u64,
}

/// A run of consecutive durable records' payloads.
#[derive(Clone)]
struct Chunk {
    /// LSN of the chunk's first record.
    first: u64,
    /// The payloads, back to back.
    bytes: Vec<u8>,
    /// `ends[i]`: the offset in `bytes` where record `first + i` ends
    /// (it starts where record `first + i - 1` ends, or at 0).
    ends: Vec<u32>,
}

impl Chunk {
    /// LSN one past the chunk's last record.
    fn end(&self) -> u64 {
        self.first + self.ends.len() as u64
    }

    /// The payloads of the records at `from..` (LSNs), in order.
    fn payloads(&self, from: u64) -> impl Iterator<Item = &[u8]> {
        let skip = from.saturating_sub(self.first) as usize;
        let mut lo = match skip {
            0 => 0,
            k => self.ends[k - 1] as usize,
        };
        self.ends[skip..].iter().map(move |&hi| {
            let payload = &self.bytes[lo..hi as usize];
            lo = hi as usize;
            payload
        })
    }
}

impl<R> Default for Wal<R> {
    fn default() -> Self {
        Wal {
            chunks: VecDeque::new(),
            start: 0,
            end: 0,
            pending: Vec::new(),
            forces: 0,
        }
    }
}

impl<R: fmt::Debug> fmt::Debug for Wal<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal")
            .field("start", &self.start)
            .field("end", &self.end)
            .field("chunks", &self.chunks.len())
            .field("pending", &self.pending)
            .field("forces", &self.forces)
            .finish()
    }
}

impl<R: WalCodec> Wal<R> {
    /// Payload bytes one chunk holds. A record larger than this gets a
    /// chunk of its own.
    pub const CHUNK_BYTES: usize = 64 << 10;

    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The retained durable records' encoded payloads, in log order —
    /// what the log stores. Equal logs have equal payloads (the codec
    /// round-trips), so hashing these is hashing the log.
    pub fn payloads(&self) -> impl Iterator<Item = &[u8]> {
        self.chunks.iter().flat_map(|c| c.payloads(self.start))
    }

    /// Encodes `rec` at the end of the log: into the last chunk when it
    /// fits there, else into a new chunk of [`Wal::CHUNK_BYTES`], or of
    /// exactly its own size when it is larger than that.
    fn store(&mut self, rec: &R) {
        let n = rec.encoded_len();
        let fits = self
            .chunks
            .back()
            .is_some_and(|c| c.bytes.len() + n <= Self::CHUNK_BYTES);
        if !fits {
            self.chunks.push_back(Chunk {
                first: self.end,
                bytes: Vec::with_capacity(n.max(Self::CHUNK_BYTES)),
                ends: Vec::new(),
            });
        }
        let chunk = self.chunks.back_mut().expect("ensured above");
        let at = chunk.bytes.len();
        rec.encode_into(&mut chunk.bytes);
        debug_assert_eq!(chunk.bytes.len() - at, n, "encoded_len disagrees");
        chunk.ends.push(chunk.bytes.len() as u32);
        self.end += 1;
    }
}

impl<R: WalCodec> WalBackend<R> for Wal<R> {
    fn buffer(&mut self, record: R) -> Lsn {
        let lsn = Lsn(self.end + self.pending.len() as u64);
        self.pending.push(record);
        lsn
    }

    fn force(&mut self) -> usize {
        let mut pending = std::mem::take(&mut self.pending);
        let n = pending.len();
        if n > 0 {
            for rec in pending.drain(..) {
                self.store(&rec);
            }
            self.forces += 1;
        }
        // The staging buffer keeps its capacity across forces.
        self.pending = pending;
        n
    }

    fn lose_volatile(&mut self) {
        self.pending.clear();
    }

    fn forces(&self) -> u64 {
        self.forces
    }

    fn pending_len(&self) -> usize {
        self.pending.len()
    }

    fn start_lsn(&self) -> Lsn {
        Lsn(self.start)
    }

    fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Decodes one payload at a time from the chunks.
    fn replay(&self) -> Box<dyn Iterator<Item = (Lsn, R)> + '_> {
        let decode = |p: &[u8]| R::decode(p).expect("in-memory WAL payload decodes");
        Box::new((self.start..).map(Lsn).zip(self.payloads().map(decode)))
    }

    /// Exact: out-of-range cutoffs clamp, so at most the whole durable
    /// log is discarded, never buffered records.
    fn truncate_before(&mut self, cutoff: Lsn) {
        self.start = cutoff.0.clamp(self.start, self.end);
        while self.chunks.front().is_some_and(|c| c.end() <= self.start) {
            self.chunks.pop_front();
        }
    }

    fn storage_bytes(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The retained record at `lsn`, read back.
    fn at<R: WalCodec>(wal: &Wal<R>, lsn: Lsn) -> Option<R> {
        wal.replay().find(|(l, _)| *l == lsn).map(|(_, r)| r)
    }

    fn s(v: &str) -> String {
        v.to_string()
    }

    #[test]
    fn append_returns_consecutive_lsns() {
        let mut wal = Wal::new();
        assert_eq!(wal.append(s("a")), Lsn(0));
        assert_eq!(wal.append(s("b")), Lsn(1));
        assert_eq!(wal.len(), 2);
        assert!(!wal.is_empty());
    }

    #[test]
    fn replay_preserves_order() {
        let mut wal = Wal::new();
        for r in ["x", "y", "z"] {
            wal.append(s(r));
        }
        let replayed: Vec<String> = wal.replay().map(|(_, r)| r).collect();
        assert_eq!(replayed, vec!["x", "y", "z"]);
    }

    #[test]
    fn buffered_records_are_volatile_until_forced() {
        let mut wal = Wal::new();
        wal.buffer(s("a"));
        wal.buffer(s("b"));
        assert_eq!(wal.len(), 0);
        assert_eq!(wal.pending_len(), 2);
        assert_eq!(wal.force(), 2);
        assert_eq!(wal.len(), 2);
        assert_eq!(wal.forces(), 1);
        wal.buffer(s("c"));
        wal.lose_volatile();
        assert_eq!(wal.force(), 0, "lost records must not be forced");
        assert_eq!(wal.forces(), 1, "empty force is free");
        let replayed: Vec<String> = wal.replay().map(|(_, r)| r).collect();
        assert_eq!(replayed, vec!["a", "b"]);
    }

    #[test]
    fn append_flushes_buffer_in_one_force() {
        let mut wal = Wal::new();
        wal.buffer(1u32);
        wal.buffer(2);
        assert_eq!(wal.append(3), Lsn(2));
        assert_eq!(wal.forces(), 1);
        let replayed: Vec<u32> = wal.replay().map(|(_, r)| r).collect();
        assert_eq!(replayed, vec![1, 2, 3]);
    }

    #[test]
    fn buffer_lsn_anticipates_position() {
        let mut wal = Wal::new();
        wal.append(s("x"));
        assert_eq!(wal.buffer(s("y")), Lsn(1));
        assert_eq!(wal.buffer(s("z")), Lsn(2));
        wal.force();
        assert_eq!(at(&wal, Lsn(2)), Some(s("z")));
    }

    #[test]
    fn last_and_get() {
        let mut wal = Wal::new();
        assert!(wal.records().last().is_none());
        wal.append(10u64);
        wal.append(20);
        assert_eq!(wal.records().last(), Some(&20));
        assert_eq!(at(&wal, Lsn(0)), Some(10));
        assert_eq!(at(&wal, Lsn(9)), None);
    }

    #[test]
    fn truncation_keeps_lsns_stable() {
        let mut wal = Wal::new();
        for r in 0..6u64 {
            wal.append(r);
        }
        wal.truncate_before(Lsn(4));
        assert_eq!(wal.start_lsn(), Lsn(4));
        assert_eq!(wal.len(), 2);
        assert_eq!(at(&wal, Lsn(3)), None, "truncated records are gone");
        assert_eq!(at(&wal, Lsn(4)), Some(4));
        let replayed: Vec<(Lsn, u64)> = wal.replay().collect();
        assert_eq!(replayed, vec![(Lsn(4), 4), (Lsn(5), 5)]);
        // New appends continue the original numbering.
        assert_eq!(wal.append(6), Lsn(6));
    }

    #[test]
    fn truncation_clamps_and_never_touches_pending() {
        let mut wal = Wal::new();
        wal.append(0u64);
        wal.buffer(1);
        wal.truncate_before(Lsn(99));
        assert_eq!(wal.len(), 0);
        assert_eq!(wal.pending_len(), 1, "buffered records are untouched");
        assert_eq!(wal.force(), 1);
        assert_eq!(at(&wal, Lsn(1)), Some(1));
        // Truncating below the start is a no-op.
        wal.truncate_before(Lsn(0));
        assert_eq!(wal.len(), 1);
    }

    #[test]
    fn trait_object_view_matches_inherent() {
        let mut wal: Wal<u32> = Wal::new();
        let w: &mut dyn WalBackend<u32> = &mut wal;
        w.buffer(7);
        assert_eq!(w.next_lsn(), Lsn(1));
        w.force();
        assert_eq!(w.len(), 1);
        assert_eq!(w.records(), [7]);
        assert_eq!(w.replay().collect::<Vec<_>>(), [(Lsn(0), 7)]);
        assert_eq!(w.storage_bytes(), 0);
    }

    #[test]
    fn truncation_frees_whole_chunks_and_keeps_the_one_it_cuts() {
        // 1 KiB records: 64 to a chunk, so 200 records fill four.
        let rec = |i: u32| format!("{i:04}{}", "x".repeat(1_016));
        let mut wal = Wal::new();
        for i in 0..200 {
            wal.buffer(rec(i));
        }
        wal.force();
        assert_eq!(wal.chunks.len(), 4);
        wal.truncate_before(Lsn(130));
        assert_eq!(wal.chunks.len(), 2, "chunks 0 and 1 lie wholly below");
        assert_eq!(wal.records().first(), Some(&rec(130)));
        assert_eq!(wal.payloads().count(), 70);
        wal.truncate_before(Lsn(200));
        assert!(wal.chunks.is_empty() && wal.is_empty());
        assert_eq!(wal.append(rec(200)), Lsn(200));
        assert_eq!(wal.chunks[0].first, 200);
    }

    #[test]
    fn a_record_larger_than_a_chunk_gets_one_of_its_own() {
        let big = "y".repeat(Wal::<String>::CHUNK_BYTES + 10);
        let mut wal = Wal::new();
        wal.buffer(s("a"));
        wal.buffer(big.clone());
        wal.buffer(s("b"));
        wal.force();
        let sizes: Vec<usize> = wal.chunks.iter().map(|c| c.bytes.len()).collect();
        assert_eq!(sizes, [5, big.len() + 4, 5]);
        assert_eq!(wal.chunks[1].bytes.capacity(), big.len() + 4, "sized once");
        assert_eq!(wal.records(), [s("a"), big, s("b")]);
    }
}
