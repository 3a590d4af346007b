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
//! ## Truncation
//!
//! [`WalBackend::truncate_before`] discards a durable prefix once a
//! checkpoint record has captured everything recovery would have learned
//! from it, bounding stable storage (see `docs/wal-format.md`). LSNs are
//! stable across truncation: the log's first retained record keeps its
//! original position ([`WalBackend::start_lsn`]).

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

/// Iterator over a log's retained durable records with their LSNs,
/// returned by [`WalBackend::replay`]. It owns the records: a backend
/// that keeps its log on disk reads them back for the replay.
#[derive(Debug)]
pub struct WalReplay<R> {
    start: u64,
    iter: std::iter::Enumerate<std::vec::IntoIter<R>>,
}

impl<R> Iterator for WalReplay<R> {
    type Item = (Lsn, R);

    fn next(&mut self) -> Option<Self::Item> {
        self.iter
            .next()
            .map(|(i, r)| (Lsn(self.start + i as u64), r))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.iter.size_hint()
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

    /// The retained durable records in log order, owned; element `i`
    /// sits at LSN `start_lsn + i`. A disk-backed log keeps no copy in
    /// memory and reads them back from stable storage, so this is for
    /// cold callers — recovery, inspection, tests.
    fn records(&self) -> Vec<R>;

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

    /// Replays the retained log from its start (recovery): the
    /// [`WalBackend::records`] with their LSNs.
    fn replay(&self) -> WalReplay<R> {
        WalReplay {
            start: self.start_lsn().0,
            iter: self.records().into_iter().enumerate(),
        }
    }
}

/// The in-memory write-ahead log: the deterministic durability *model*
/// the simulator runs on. Durable records survive [`Wal::lose_volatile`]
/// (the crash operator); buffered records do not.
#[derive(Clone, Debug)]
pub struct Wal<R> {
    /// Durable records: survive any crash. `records[i]` is at LSN
    /// `start + i`.
    records: Vec<R>,
    /// Buffered records: staged for the next force, lost on crash.
    pending: Vec<R>,
    /// Number of flushes performed (the fsync count of a disk log).
    forces: u64,
    /// LSN of `records[0]` (0 until the first truncation).
    start: u64,
}

impl<R> Default for Wal<R> {
    fn default() -> Self {
        Wal {
            records: Vec::new(),
            pending: Vec::new(),
            forces: 0,
            start: 0,
        }
    }
}

impl<R: Clone> Wal<R> {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Force-appends a record; durable on return. Any buffered records
    /// are flushed first (they precede this one in the log), all in the
    /// same single force.
    pub fn append(&mut self, record: R) -> Lsn {
        self.pending.push(record);
        self.force();
        Lsn(self.start + self.records.len() as u64 - 1)
    }

    /// Stages a record for the next [`Wal::force`]. The returned [`Lsn`]
    /// is the position the record will occupy once forced; until then it
    /// is volatile and a crash discards it.
    pub fn buffer(&mut self, record: R) -> Lsn {
        let lsn = Lsn(self.start + (self.records.len() + self.pending.len()) as u64);
        self.pending.push(record);
        lsn
    }

    /// Flushes every buffered record to durable storage in one force.
    /// Returns the number of records made durable; zero means the buffer
    /// was empty and no force was paid.
    pub fn force(&mut self) -> usize {
        let n = self.pending.len();
        if n > 0 {
            self.records.append(&mut self.pending);
            self.forces += 1;
        }
        n
    }

    /// Discards buffered (not yet forced) records: the crash semantics
    /// of the volatile half of the log.
    pub fn lose_volatile(&mut self) {
        self.pending.clear();
    }

    /// Number of forces (flushes) performed so far.
    pub fn forces(&self) -> u64 {
        self.forces
    }

    /// Number of records staged but not yet durable.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Number of retained durable records in the log.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the log holds no retained durable records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// LSN of the oldest retained record (0 until the first truncation).
    pub fn start_lsn(&self) -> Lsn {
        Lsn(self.start)
    }

    /// Discards durable records below `cutoff` (exact; LSNs stay
    /// stable). Out-of-range cutoffs clamp: at most the whole durable
    /// log is discarded, never buffered records.
    pub fn truncate_before(&mut self, cutoff: Lsn) {
        let cut = cutoff
            .0
            .clamp(self.start, self.start + self.records.len() as u64);
        self.records.drain(..(cut - self.start) as usize);
        self.start = cut;
    }

    /// Replays the retained log from its start (recovery).
    pub fn replay(&self) -> impl Iterator<Item = (Lsn, &R)> {
        let start = self.start;
        self.records
            .iter()
            .enumerate()
            .map(move |(i, r)| (Lsn(start + i as u64), r))
    }

    /// The most recent record, if any.
    pub fn last(&self) -> Option<&R> {
        self.records.last()
    }

    /// The record at `lsn`, if retained.
    pub fn get(&self, lsn: Lsn) -> Option<&R> {
        lsn.0
            .checked_sub(self.start)
            .and_then(|i| self.records.get(i as usize))
    }
}

impl<R: Clone> WalBackend<R> for Wal<R> {
    fn buffer(&mut self, record: R) -> Lsn {
        Wal::buffer(self, record)
    }

    fn force(&mut self) -> usize {
        Wal::force(self)
    }

    fn lose_volatile(&mut self) {
        Wal::lose_volatile(self)
    }

    fn forces(&self) -> u64 {
        Wal::forces(self)
    }

    fn pending_len(&self) -> usize {
        Wal::pending_len(self)
    }

    fn start_lsn(&self) -> Lsn {
        Wal::start_lsn(self)
    }

    fn len(&self) -> usize {
        Wal::len(self)
    }

    fn records(&self) -> Vec<R> {
        self.records.clone()
    }

    fn truncate_before(&mut self, cutoff: Lsn) {
        Wal::truncate_before(self, cutoff)
    }

    fn storage_bytes(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_returns_consecutive_lsns() {
        let mut wal = Wal::new();
        assert_eq!(wal.append("a"), Lsn(0));
        assert_eq!(wal.append("b"), Lsn(1));
        assert_eq!(wal.len(), 2);
        assert!(!wal.is_empty());
    }

    #[test]
    fn replay_preserves_order() {
        let mut wal = Wal::new();
        for r in ["x", "y", "z"] {
            wal.append(r);
        }
        let replayed: Vec<&str> = wal.replay().map(|(_, r)| *r).collect();
        assert_eq!(replayed, vec!["x", "y", "z"]);
    }

    #[test]
    fn buffered_records_are_volatile_until_forced() {
        let mut wal = Wal::new();
        wal.buffer("a");
        wal.buffer("b");
        assert_eq!(wal.len(), 0);
        assert_eq!(wal.pending_len(), 2);
        assert_eq!(wal.force(), 2);
        assert_eq!(wal.len(), 2);
        assert_eq!(wal.forces(), 1);
        wal.buffer("c");
        wal.lose_volatile();
        assert_eq!(wal.force(), 0, "lost records must not be forced");
        assert_eq!(wal.forces(), 1, "empty force is free");
        let replayed: Vec<&str> = wal.replay().map(|(_, r)| *r).collect();
        assert_eq!(replayed, vec!["a", "b"]);
    }

    #[test]
    fn append_flushes_buffer_in_one_force() {
        let mut wal = Wal::new();
        wal.buffer(1);
        wal.buffer(2);
        assert_eq!(wal.append(3), Lsn(2));
        assert_eq!(wal.forces(), 1);
        let replayed: Vec<i32> = wal.replay().map(|(_, r)| *r).collect();
        assert_eq!(replayed, vec![1, 2, 3]);
    }

    #[test]
    fn buffer_lsn_anticipates_position() {
        let mut wal = Wal::new();
        wal.append("x");
        assert_eq!(wal.buffer("y"), Lsn(1));
        assert_eq!(wal.buffer("z"), Lsn(2));
        wal.force();
        assert_eq!(wal.get(Lsn(2)), Some(&"z"));
    }

    #[test]
    fn last_and_get() {
        let mut wal = Wal::new();
        assert!(wal.last().is_none());
        wal.append(10);
        wal.append(20);
        assert_eq!(wal.last(), Some(&20));
        assert_eq!(wal.get(Lsn(0)), Some(&10));
        assert_eq!(wal.get(Lsn(9)), None);
    }

    #[test]
    fn truncation_keeps_lsns_stable() {
        let mut wal = Wal::new();
        for r in 0..6 {
            wal.append(r);
        }
        wal.truncate_before(Lsn(4));
        assert_eq!(wal.start_lsn(), Lsn(4));
        assert_eq!(wal.len(), 2);
        assert_eq!(wal.get(Lsn(3)), None, "truncated records are gone");
        assert_eq!(wal.get(Lsn(4)), Some(&4));
        let replayed: Vec<(Lsn, i32)> = wal.replay().map(|(l, r)| (l, *r)).collect();
        assert_eq!(replayed, vec![(Lsn(4), 4), (Lsn(5), 5)]);
        // New appends continue the original numbering.
        assert_eq!(wal.append(6), Lsn(6));
    }

    #[test]
    fn truncation_clamps_and_never_touches_pending() {
        let mut wal = Wal::new();
        wal.append(0);
        wal.buffer(1);
        wal.truncate_before(Lsn(99));
        assert_eq!(wal.len(), 0);
        assert_eq!(wal.pending_len(), 1, "buffered records are untouched");
        assert_eq!(wal.force(), 1);
        assert_eq!(wal.get(Lsn(1)), Some(&1));
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
}
