//! Disk-backed WAL: append-only segment files with checksummed framing.
//!
//! The paper's protocols are defined by what is *force-written to stable
//! storage* before each message is sent; [`FileWal`] makes that force a
//! real `fsync`. The on-disk format (documented in full in
//! `docs/wal-format.md`):
//!
//! * The log is a directory of **segment files** named
//!   `wal-<first-lsn:016x>.seg`, in LSN order with no gaps. The
//!   highest-named segment is *active* (appended to); lower ones are
//!   sealed read-only.
//! * Each record is one **frame**: `[len: u32 LE][crc: u32 LE][payload]`
//!   where `crc` is the CRC-32 (IEEE) of the payload and `payload` is
//!   the [`WalCodec`] encoding of the record.
//! * [`WalBackend::force`] writes every buffered frame plus a closing
//!   **force-boundary marker** (`[len=0xFFFF_FFFF][crc]["QBCF"][batch
//!   start: u64 LE]`, no LSN) with one `write_all` + `fdatasync`. When
//!   the active segment exceeds [`FileWalConfig::segment_bytes`] it is
//!   sealed and the next force opens a fresh segment (the directory is
//!   fsynced so the new entry is itself durable).
//! * On open, segments are scanned in order; intact markers advance the
//!   acknowledged watermark. Unreadable bytes in the **last** segment
//!   *after* its final intact marker are a *torn tail* — a crash
//!   mid-`write` — and the file is truncated back to that marker
//!   boundary (dropping even intact frames of the unacknowledged
//!   batch); the lost records were never acknowledged, so dropping
//!   them is exactly the [`WalBackend::lose_volatile`] contract.
//!   Damage anywhere else — a sealed segment, or before a later intact
//!   marker in the active one — is real corruption and open fails with
//!   [`WalError::Corrupt`].
//! * [`WalBackend::truncate_before`] unlinks sealed segments that lie
//!   entirely below the cutoff (whole-segment granularity: the backend
//!   may retain slightly more than asked, never less).
//!
//! Only counters stay in memory — the first retained LSN and the
//! durable record count — plus the staged batch. Open decodes every
//! frame to verify it but keeps none; [`WalBackend::replay`] reads the
//! segments back one at a time with the same scanner, holding one
//! segment and one decoded batch, so memory does not grow with the log.

use crate::codec::WalCodec;
use crate::wal::{Lsn, WalBackend};
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Frame header size: `len: u32` + `crc: u32`.
const FRAME_HEADER: usize = 8;

/// Sentinel `len` value marking a **force-boundary marker** instead of
/// a record frame. No record payload may be 4 GiB, so the sentinel is
/// unambiguous.
const MARKER_LEN: u32 = u32::MAX;

/// Magic prefix of a marker payload (guards against a record payload
/// that happens to start with the sentinel after a misaligned scan).
const MARKER_MAGIC: &[u8; 4] = b"QBCF";

/// Total marker size on disk: `[len=MARKER_LEN][crc][magic][batch
/// start offset: u64 LE]`. The crc covers the 12 payload bytes.
pub(crate) const MARKER_SIZE: usize = FRAME_HEADER + 12;

/// Encodes the force-boundary marker closing a batch whose first frame
/// begins at `batch_start` (byte offset within the segment).
fn encode_marker(out: &mut Vec<u8>, batch_start: u64) {
    let mut payload = [0u8; 12];
    payload[..4].copy_from_slice(MARKER_MAGIC);
    payload[4..].copy_from_slice(&batch_start.to_le_bytes());
    out.extend_from_slice(&MARKER_LEN.to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
}

/// Scans raw segment bytes for an intact force-boundary marker starting
/// at or after `from`, at any byte alignment (a torn write can destroy
/// framing, so markers must be findable without it). An intact marker
/// beyond a damaged frame proves the damage sits inside *acknowledged*
/// bytes: the force that wrote the marker returned.
fn find_marker_after(data: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    while i + MARKER_SIZE <= data.len() {
        if data[i..i + 4] == MARKER_LEN.to_le_bytes()
            && data[i + FRAME_HEADER..i + FRAME_HEADER + 4] == *MARKER_MAGIC
        {
            let crc = u32::from_le_bytes(data[i + 4..i + 8].try_into().unwrap());
            let payload = &data[i + FRAME_HEADER..i + MARKER_SIZE];
            if crc32(payload) == crc {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

/// CRC-32 (IEEE 802.3) slicing-by-8 lookup tables, built at compile
/// time: `CRC_TABLES[0]` is the classic bytewise table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight table lookups fold eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`, eight bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Why a [`FileWal`] operation failed.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The log is damaged somewhere a torn tail cannot explain (a bad
    /// frame that is not at the end of the last segment, a segment name
    /// that does not parse, or an LSN gap between segments).
    Corrupt {
        /// The segment file involved.
        segment: PathBuf,
        /// What was wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt { segment, reason } => {
                write!(f, "wal corrupt at {}: {reason}", segment.display())
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Shape and durability knobs of a [`FileWal`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileWalConfig {
    /// Directory holding the segment files (created if absent).
    pub dir: PathBuf,
    /// Seal the active segment once it reaches this many bytes; smaller
    /// segments truncate sooner but cost more files.
    pub segment_bytes: u64,
    /// Call `fdatasync` on every force (and fsync the directory on
    /// segment create/delete). Disabling trades real durability for
    /// speed — only tests that crash *processes* logically (never the
    /// machine) may turn this off.
    pub fsync: bool,
}

impl FileWalConfig {
    /// Conventional defaults: 4 MiB segments, fsync on.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        FileWalConfig {
            dir: dir.into(),
            segment_bytes: 4 << 20,
            fsync: true,
        }
    }

    /// Sets the segment roll threshold (builder style).
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Disables per-force fsync (builder style; see
    /// [`FileWalConfig::fsync`]).
    pub fn without_fsync(mut self) -> Self {
        self.fsync = false;
        self
    }
}

/// A sealed (read-only) segment.
#[derive(Debug)]
struct Sealed {
    /// LSN of the segment's first record.
    first: u64,
    /// File size in bytes.
    bytes: u64,
}

/// The segment currently appended to.
#[derive(Debug)]
struct Active {
    file: File,
    /// LSN of the segment's first record.
    first: u64,
    /// Bytes written so far.
    bytes: u64,
}

/// One segment read whole and scanned one acknowledged batch at a time,
/// every frame's checksum verified and its payload decoded: `open`'s
/// validating scan counts the batches, [`WalBackend::replay`] hands
/// them out. Every force ends with a boundary marker, so the markers
/// partition a segment into acknowledged batches plus (possibly) one
/// unmarked tail that no caller was ever acknowledged for.
struct SegmentScan {
    path: PathBuf,
    data: Vec<u8>,
    /// Offset of the next unread frame.
    pos: usize,
    /// End of the most recent intact marker: everything below it is
    /// acknowledged.
    acked: usize,
    /// Whether this is the highest segment on open, whose torn tail is
    /// cut; replay scans every segment as not last (a running log's
    /// segments all end at a marker, so any damage there is
    /// corruption, never a tail to cut).
    last: bool,
    fsync: bool,
}

impl SegmentScan {
    fn read(path: PathBuf, last: bool, fsync: bool) -> Result<Self, WalError> {
        let data = fs::read(&path)?;
        Ok(SegmentScan {
            path,
            data,
            pos: 0,
            acked: 0,
            last,
            fsync,
        })
    }

    fn corrupt(&self, reason: String) -> WalError {
        WalError::Corrupt {
            segment: self.path.clone(),
            reason,
        }
    }

    /// The records of the next batch, handed over once its marker is
    /// read; `None` at the end of the segment. A frame that checksums
    /// but does not decode is corruption wherever it sits. Damage
    /// rules, in order of what a bad frame can mean:
    ///
    /// * in a non-last segment — corruption (sealed by a completed
    ///   force; a crash cannot explain it);
    /// * in the last segment, with an intact marker *after* the damage
    ///   — corruption inside acknowledged bytes (the marker's force
    ///   returned, so everything before it was acknowledged; silently
    ///   truncating it would un-happen acknowledged records);
    /// * in the last segment, after the final marker — a torn tail,
    ///   the expected remnant of a crash mid-`write`. The file is
    ///   truncated back to the last marker: the whole unmarked batch is
    ///   dropped, including any frames of it that happen to be intact
    ///   (a crashed multi-frame force can persist an arbitrary subset
    ///   of pages, so intact-looking frames past the tear are still
    ///   unacknowledged).
    fn next_batch<R: WalCodec>(&mut self) -> Result<Option<Vec<R>>, WalError> {
        let mut batch = Vec::new();
        let data = &self.data;
        let damage = loop {
            let pos = self.pos;
            if pos == data.len() {
                break None;
            }
            if pos + FRAME_HEADER > data.len() {
                break Some("short frame header");
            }
            let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
            let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
            if len == MARKER_LEN {
                if pos + MARKER_SIZE > data.len() {
                    break Some("short boundary marker");
                }
                let payload = &data[pos + FRAME_HEADER..pos + MARKER_SIZE];
                if crc32(payload) != crc || &payload[..4] != MARKER_MAGIC {
                    break Some("boundary marker damaged");
                }
                self.pos += MARKER_SIZE;
                self.acked = self.pos;
                return Ok(Some(batch));
            }
            let body = pos + FRAME_HEADER;
            let len = len as usize;
            if body + len > data.len() {
                break Some("short frame payload");
            }
            let payload = &data[body..body + len];
            if crc32(payload) != crc {
                break Some("frame checksum mismatch");
            }
            let rec = R::decode(payload)
                .ok_or_else(|| self.corrupt(format!("payload does not decode at offset {pos}")))?;
            batch.push(rec);
            self.pos = body + len;
        };
        let at = self.pos;
        match damage {
            None if at == self.acked => return Ok(None),
            // Only a sealed segment keeps frames past its last marker: a
            // completed force sealed it.
            None if !self.last => {
                self.acked = at;
                return Ok(Some(batch));
            }
            // Intact frames with no closing marker: a crash persisted an
            // exact prefix of a batch whose force never returned.
            // Unacknowledged, so dropped — "survives open" means exactly
            // "was acknowledged".
            None => {}
            Some(reason) if !self.last => {
                return Err(self.corrupt(format!("{reason} at offset {at}")))
            }
            Some(reason) if find_marker_after(data, at + 1).is_some() => {
                return Err(self.corrupt(format!(
                    "{reason} at offset {at} inside acknowledged bytes \
                     (an intact force-boundary marker follows the damage)"
                )))
            }
            Some(_) => {}
        }
        // Torn tail: roll back to the last acknowledged force boundary.
        // The dropped records were never acknowledged (their force never
        // returned), so losing them is exactly `lose_volatile`.
        let file = OpenOptions::new().write(true).open(&self.path)?;
        file.set_len(self.acked as u64)?;
        if self.fsync {
            file.sync_all()?;
        }
        self.data.truncate(self.acked);
        self.pos = self.acked;
        Ok(None)
    }
}

/// Unwraps a read-back step, panicking on its error: a site whose log
/// cannot be read back has no safe way to go on.
fn read_back<T>(step: Result<T, WalError>) -> T {
    step.unwrap_or_else(|e| panic!("WAL read-back failed: {e}"))
}

/// A disk-backed [`WalBackend`]: append-only segment files, checksummed
/// frames, `fsync` on force, torn-tail repair on open and
/// whole-segment prefix truncation. See the module docs for the format.
#[derive(Debug)]
pub struct FileWal<R> {
    cfg: FileWalConfig,
    /// Sealed segments in LSN order, all strictly before `active`.
    sealed: Vec<Sealed>,
    /// The segment new frames go to (`None` until the first force after
    /// open-empty or a seal).
    active: Option<Active>,
    /// LSN of the oldest retained durable record.
    start: u64,
    /// Number of retained durable records (they live only on disk).
    len: u64,
    /// Buffered records: staged for the next force, lost on crash.
    pending: Vec<R>,
    /// Reused frame-encoding buffer.
    scratch: Vec<u8>,
    forces: u64,
}

impl<R: WalCodec> FileWal<R> {
    /// Opens (or creates) the log at `cfg.dir`, scanning every segment
    /// (each frame's checksum verified and its payload decoded) and
    /// repairing a torn tail. Only the record count is kept. Fails on
    /// I/O errors or non-tail damage.
    pub fn open(cfg: FileWalConfig) -> Result<Self, WalError> {
        fs::create_dir_all(&cfg.dir)?;
        let mut firsts: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&cfg.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(hex) = name
                .strip_prefix("wal-")
                .and_then(|n| n.strip_suffix(".seg"))
            else {
                continue;
            };
            let first = u64::from_str_radix(hex, 16).map_err(|_| WalError::Corrupt {
                segment: entry.path(),
                reason: format!("segment name {name:?} does not parse"),
            })?;
            firsts.push(first);
        }
        firsts.sort_unstable();

        let mut wal = FileWal {
            start: firsts.first().copied().unwrap_or(0),
            cfg,
            sealed: Vec::new(),
            active: None,
            len: 0,
            pending: Vec::new(),
            scratch: Vec::new(),
            forces: 0,
        };

        let mut expected = wal.start;
        for (i, &first) in firsts.iter().enumerate() {
            let path = wal.segment_path(first);
            if first != expected {
                return Err(WalError::Corrupt {
                    segment: path,
                    reason: format!("expected first LSN {expected}, segment claims {first}"),
                });
            }
            let is_last = i + 1 == firsts.len();
            let mut scan = SegmentScan::read(path.clone(), is_last, wal.cfg.fsync)?;
            while let Some(batch) = scan.next_batch::<R>()? {
                wal.len += batch.len() as u64;
            }
            let bytes = scan.data.len() as u64;
            expected = wal.start + wal.len;
            if is_last {
                let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
                file.seek(SeekFrom::Start(bytes))?;
                wal.active = Some(Active { file, first, bytes });
            } else {
                wal.sealed.push(Sealed { first, bytes });
            }
        }
        // An over-full recovered tail seals immediately so the next
        // force starts a fresh segment.
        wal.maybe_seal();
        Ok(wal)
    }

    fn segment_path(&self, first: u64) -> PathBuf {
        self.cfg.dir.join(format!("wal-{first:016x}.seg"))
    }

    /// Seals the active segment if it has reached the roll threshold.
    fn maybe_seal(&mut self) {
        let full = |a: &mut Active| a.bytes >= self.cfg.segment_bytes;
        if let Some(Active { first, bytes, .. }) = self.active.take_if(full) {
            self.sealed.push(Sealed { first, bytes });
        }
    }

    /// Fsyncs the log directory so segment creations/deletions are
    /// themselves durable.
    fn sync_dir(&self) -> Result<(), WalError> {
        if self.cfg.fsync {
            File::open(&self.cfg.dir)?.sync_all()?;
        }
        Ok(())
    }

    /// Writes and fsyncs every pending frame. Split out of the trait
    /// method so the error path is testable; the trait wrapper panics,
    /// as a lost force has no safe continuation.
    pub fn try_force(&mut self) -> Result<usize, WalError> {
        let n = self.pending.len();
        if n == 0 {
            return Ok(0);
        }
        if self.active.is_none() {
            let first = self.start + self.len;
            let path = self.segment_path(first);
            let file = OpenOptions::new()
                .create_new(true)
                .read(true)
                .write(true)
                .open(&path)?;
            self.active = Some(Active {
                file,
                first,
                bytes: 0,
            });
            self.sync_dir()?;
        }
        self.scratch.clear();
        for rec in &self.pending {
            let frame_start = self.scratch.len();
            self.scratch.extend_from_slice(&[0; FRAME_HEADER]);
            rec.encode_into(&mut self.scratch);
            let payload = &self.scratch[frame_start + FRAME_HEADER..];
            let len = payload.len() as u32;
            let crc = crc32(payload);
            self.scratch[frame_start..frame_start + 4].copy_from_slice(&len.to_le_bytes());
            self.scratch[frame_start + 4..frame_start + 8].copy_from_slice(&crc.to_le_bytes());
        }
        let active = self.active.as_mut().expect("ensured above");
        // The boundary marker rides the same `write_all`: once this
        // force is acknowledged, an intact marker sits after its frames,
        // and recovery can tell acknowledged damage from a torn tail.
        encode_marker(&mut self.scratch, active.bytes);
        active.file.write_all(&self.scratch)?;
        if self.cfg.fsync {
            active.file.sync_data()?;
        }
        active.bytes += self.scratch.len() as u64;
        self.len += n as u64;
        self.pending.clear();
        self.forces += 1;
        self.maybe_seal();
        Ok(n)
    }

    /// Discards sealed segments entirely below `cutoff`. The active
    /// segment is never deleted; LSNs stay stable. See
    /// [`WalBackend::truncate_before`]. The trait wrapper panics on
    /// I/O errors; this form reports them.
    pub fn try_truncate_before(&mut self, cutoff: Lsn) -> Result<(), WalError> {
        // At least one segment always survives (the active one, or the
        // newest sealed one when nothing is active): the highest segment
        // name is what keeps LSNs stable across reopen.
        let removable = if self.active.is_some() {
            self.sealed.len()
        } else {
            self.sealed.len().saturating_sub(1)
        };
        let mut removed = 0usize;
        for i in 0..removable {
            // End of sealed[i] = first of the next segment in LSN order.
            let end = self
                .sealed
                .get(i + 1)
                .map(|s| s.first)
                .or_else(|| self.active.as_ref().map(|a| a.first))
                .unwrap_or(self.start + self.len);
            if end <= cutoff.0 {
                removed = i + 1;
            } else {
                break;
            }
        }
        if removed == 0 {
            return Ok(());
        }
        let new_start = self
            .sealed
            .get(removed)
            .map(|s| s.first)
            .or_else(|| self.active.as_ref().map(|a| a.first))
            .unwrap_or(self.start + self.len);
        let dropped: Vec<Sealed> = self.sealed.drain(..removed).collect();
        for seg in dropped {
            fs::remove_file(self.segment_path(seg.first))?;
        }
        self.sync_dir()?;
        self.len -= new_start - self.start;
        self.start = new_start;
        Ok(())
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }

    /// Number of segment files currently on disk.
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + usize::from(self.active.is_some())
    }
}

impl<R: WalCodec> WalBackend<R> for FileWal<R> {
    fn buffer(&mut self, record: R) -> Lsn {
        let lsn = Lsn(self.start + self.len + self.pending.len() as u64);
        self.pending.push(record);
        lsn
    }

    fn force(&mut self) -> usize {
        self.try_force()
            .unwrap_or_else(|e| panic!("WAL force failed: {e}"))
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
        self.len as usize
    }

    /// Reads the segments back one at a time, holding one segment and
    /// one decoded batch. Panics on a read error, or when the segments
    /// hold a different number of records than the log made durable.
    fn replay(&self) -> Box<dyn Iterator<Item = (Lsn, R)> + '_> {
        let sealed = self.sealed.iter().map(|s| s.first);
        let segments = sealed.chain(self.active.as_ref().map(|a| a.first));
        let mut records = segments
            .flat_map(|first| {
                let path = self.segment_path(first);
                let mut scan = read_back(SegmentScan::read(path, false, self.cfg.fsync));
                std::iter::from_fn(move || read_back(scan.next_batch()))
            })
            .flatten();
        let mut next = self.start;
        Box::new(std::iter::from_fn(move || {
            let Some(rec) = records.next() else {
                let read = next - self.start;
                if read != self.len {
                    let segment = self.cfg.dir.clone();
                    let reason = format!("{read} records on disk, {} durable", self.len);
                    panic!(
                        "WAL read-back failed: {}",
                        WalError::Corrupt { segment, reason }
                    );
                }
                return None;
            };
            next += 1;
            Some((Lsn(next - 1), rec))
        }))
    }

    fn truncate_before(&mut self, cutoff: Lsn) {
        self.try_truncate_before(cutoff)
            .unwrap_or_else(|e| panic!("WAL truncation failed: {e}"))
    }

    fn storage_bytes(&self) -> u64 {
        self.sealed.iter().map(|s| s.bytes).sum::<u64>()
            + self.active.as_ref().map(|a| a.bytes).unwrap_or(0)
    }
}

/// A [`WalBackend`] chosen at runtime: the deterministic in-memory
/// model for the simulator, or the disk-backed log for durable runs.
/// This is the backend type `qbc-db` nodes carry.
#[derive(Debug)]
pub enum EitherWal<R> {
    /// In-memory durability model ([`crate::Wal`]).
    Mem(crate::Wal<R>),
    /// Disk-backed segments ([`FileWal`]).
    File(FileWal<R>),
}

/// Cloning is how the model checker branches a whole site state, and it
/// is only meaningful for the in-memory model: a [`FileWal`] owns file
/// handles on a single on-disk log, and two clones appending to the same
/// segments would corrupt it.
///
/// # Panics
/// On the [`EitherWal::File`] variant.
impl<R: Clone> Clone for EitherWal<R> {
    fn clone(&self) -> Self {
        match self {
            EitherWal::Mem(w) => EitherWal::Mem(w.clone()),
            EitherWal::File(_) => {
                panic!("EitherWal::File cannot be cloned (single on-disk log); use the in-memory backend for exploration")
            }
        }
    }
}

/// Forwards a call to whichever backend an [`EitherWal`] holds.
macro_rules! either {
    ($wal:expr, $w:ident => $call:expr) => {
        match $wal {
            EitherWal::Mem($w) => $call,
            EitherWal::File($w) => $call,
        }
    };
}

impl<R: Clone + WalCodec> WalBackend<R> for EitherWal<R> {
    fn buffer(&mut self, record: R) -> Lsn {
        either!(self, w => w.buffer(record))
    }

    fn force(&mut self) -> usize {
        either!(self, w => w.force())
    }

    fn lose_volatile(&mut self) {
        either!(self, w => w.lose_volatile())
    }

    fn forces(&self) -> u64 {
        either!(self, w => w.forces())
    }

    fn pending_len(&self) -> usize {
        either!(self, w => w.pending_len())
    }

    fn start_lsn(&self) -> Lsn {
        either!(self, w => w.start_lsn())
    }

    fn len(&self) -> usize {
        either!(self, w => w.len())
    }

    fn replay(&self) -> Box<dyn Iterator<Item = (Lsn, R)> + '_> {
        either!(self, w => w.replay())
    }

    fn truncate_before(&mut self, cutoff: Lsn) {
        either!(self, w => w.truncate_before(cutoff))
    }

    fn storage_bytes(&self) -> u64 {
        either!(self, w => w.storage_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp::TempDir;

    fn cfg(dir: &TempDir) -> FileWalConfig {
        // Logical-crash tests: fsync adds nothing (we never kill the
        // machine) but costs seconds of test time.
        FileWalConfig::new(dir.path()).without_fsync()
    }

    /// Everything a replay of `wal` returns, read back from its segments.
    fn replayed(wal: &FileWal<u64>) -> Vec<(Lsn, u64)> {
        wal.replay().collect()
    }

    /// `records` at consecutive LSNs from `first`: an expected replay.
    fn from(first: u64, records: impl IntoIterator<Item = u64>) -> Vec<(Lsn, u64)> {
        (first..).map(Lsn).zip(records).collect()
    }

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bytewise_loop() {
        // The reference: one table lookup per byte.
        fn bytewise(bytes: &[u8]) -> u32 {
            let mut c = !0u32;
            for &b in bytes {
                c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            !c
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut noise = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect()
        };
        for len in 0..=64 {
            let buf = noise(len);
            assert_eq!(crc32(&buf), bytewise(&buf), "length {len}");
        }
        let big = noise(1 << 20);
        assert_eq!(crc32(&big), bytewise(&big));
    }

    #[test]
    fn append_persists_across_reopen() {
        let dir = TempDir::new("filewal-reopen");
        {
            let mut wal: FileWal<u64> = FileWal::open(cfg(&dir)).unwrap();
            assert_eq!(wal.append(10), Lsn(0));
            assert_eq!(wal.append(20), Lsn(1));
            wal.buffer(30);
            // Buffered but never forced: must not survive.
        }
        let wal: FileWal<u64> = FileWal::open(cfg(&dir)).unwrap();
        assert_eq!(replayed(&wal), from(0, [10, 20]));
        assert_eq!(wal.len(), 2);
    }

    #[test]
    fn group_commit_is_one_frame_batch_per_force() {
        let dir = TempDir::new("filewal-batch");
        let mut wal: FileWal<u64> = FileWal::open(cfg(&dir)).unwrap();
        for i in 0..10 {
            wal.buffer(i);
        }
        assert_eq!(WalBackend::force(&mut wal), 10);
        assert_eq!(wal.forces(), 1);
        assert_eq!(replayed(&wal), from(0, 0..10));
        let reopened: FileWal<u64> = FileWal::open(cfg(&dir)).unwrap();
        assert_eq!(replayed(&reopened), from(0, 0..10));
    }

    #[test]
    fn segments_roll_and_truncate() {
        let dir = TempDir::new("filewal-roll");
        let mut wal: FileWal<u64> = FileWal::open(cfg(&dir).with_segment_bytes(64)).unwrap();
        for i in 0..40u64 {
            wal.append(i);
        }
        assert!(wal.segment_count() > 2, "tiny segments must roll");
        let before = wal.storage_bytes();
        wal.truncate_before(Lsn(30));
        assert!(wal.storage_bytes() < before, "truncation frees bytes");
        // Whole-segment granularity: everything >= 30 retained, start
        // may be earlier but never later.
        let start = wal.start_lsn().0;
        assert!(start <= 30);
        assert!(start > 0, "whole sealed segments were dropped");
        assert_eq!(replayed(&wal), from(start, start..40));
        // LSNs stay stable across reopen after truncation.
        drop(wal);
        let wal: FileWal<u64> = FileWal::open(cfg(&dir).with_segment_bytes(64)).unwrap();
        assert_eq!(replayed(&wal), from(start, start..40));
    }

    #[test]
    fn torn_tail_is_repaired_on_open() {
        let dir = TempDir::new("filewal-torn");
        {
            let mut wal: FileWal<u64> = FileWal::open(cfg(&dir)).unwrap();
            wal.append(1);
            wal.append(2);
        }
        // Simulate a crash mid-write: append half a frame.
        let seg = dir.path().join(format!("wal-{:016x}.seg", 0));
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[5, 0, 0, 0, 0xAA]).unwrap(); // len=5, partial crc
        drop(f);
        let mut wal: FileWal<u64> = FileWal::open(cfg(&dir)).unwrap();
        assert_eq!(
            replayed(&wal),
            from(0, [1, 2]),
            "whole frames survive the tear"
        );
        // The log keeps working after repair.
        assert_eq!(wal.append(3), Lsn(2));
        assert_eq!(replayed(&wal), from(0, [1, 2, 3]));
        drop(wal);
        let wal: FileWal<u64> = FileWal::open(cfg(&dir)).unwrap();
        assert_eq!(replayed(&wal), from(0, [1, 2, 3]));
    }

    #[test]
    fn checksum_damage_in_tail_is_torn_not_fatal() {
        let dir = TempDir::new("filewal-crc-tail");
        {
            let mut wal: FileWal<u64> = FileWal::open(cfg(&dir)).unwrap();
            wal.append(1);
            wal.append(2);
        }
        // Flip a payload byte of the LAST frame.
        let seg = dir.path().join(format!("wal-{:016x}.seg", 0));
        let mut data = fs::read(&seg).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xFF;
        fs::write(&seg, &data).unwrap();
        let wal: FileWal<u64> = FileWal::open(cfg(&dir)).unwrap();
        assert_eq!(replayed(&wal), from(0, [1]), "damaged tail frame dropped");
    }

    #[test]
    fn damage_inside_acknowledged_bytes_of_the_active_segment_is_corruption() {
        let dir = TempDir::new("filewal-acked-rot");
        {
            let mut wal: FileWal<u64> = FileWal::open(cfg(&dir)).unwrap();
            wal.append(1);
            wal.append(2);
            wal.append(3);
        }
        // Flip a payload byte of the FIRST record: two intact boundary
        // markers follow it, proving those bytes were acknowledged.
        // Pre-marker formats had to shrug this off as a "tear" and
        // silently truncate acknowledged records; now it is reported.
        let seg = dir.path().join(format!("wal-{:016x}.seg", 0));
        let mut data = fs::read(&seg).unwrap();
        data[FRAME_HEADER] ^= 0xFF;
        fs::write(&seg, &data).unwrap();
        let err = FileWal::<u64>::open(cfg(&dir)).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "got {err}");
        assert!(err.to_string().contains("acknowledged"), "{err}");
    }

    #[test]
    fn damaged_marker_before_an_intact_one_is_corruption() {
        let dir = TempDir::new("filewal-marker-rot");
        {
            let mut wal: FileWal<u64> = FileWal::open(cfg(&dir)).unwrap();
            wal.append(1);
            wal.append(2);
        }
        // Flip a byte inside the FIRST marker's payload (right after
        // frame 1): the second force's marker still proves the damage
        // is in acknowledged territory.
        let seg = dir.path().join(format!("wal-{:016x}.seg", 0));
        let mut data = fs::read(&seg).unwrap();
        let f1 = FRAME_HEADER + 8; // one u64 record frame
        data[f1 + FRAME_HEADER + 4] ^= 0xFF; // marker payload byte
        fs::write(&seg, &data).unwrap();
        let err = FileWal::<u64>::open(cfg(&dir)).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "got {err}");
    }

    #[test]
    fn torn_tail_drops_intact_frames_of_the_unacknowledged_batch() {
        let dir = TempDir::new("filewal-torn-batch");
        let marker_end;
        {
            let mut wal: FileWal<u64> = FileWal::open(cfg(&dir)).unwrap();
            wal.append(1); // batch 1: acknowledged
            marker_end = wal.storage_bytes();
            wal.buffer(2);
            wal.buffer(3);
            wal.buffer(4);
            WalBackend::force(&mut wal); // batch 2
        }
        // Simulate a crash that persisted an arbitrary subset of batch
        // 2's pages: its closing marker is gone and its middle frame is
        // garbage, but its first frame (record 2) is intact.
        let seg = dir.path().join(format!("wal-{:016x}.seg", 0));
        let mut data = fs::read(&seg).unwrap();
        let f2_end = marker_end as usize + FRAME_HEADER + 8;
        data[f2_end + FRAME_HEADER] ^= 0xFF; // tear record 3
        data.truncate(f2_end + 2 * (FRAME_HEADER + 8)); // lose the marker
        fs::write(&seg, &data).unwrap();
        let wal: FileWal<u64> = FileWal::open(cfg(&dir)).unwrap();
        assert_eq!(
            replayed(&wal),
            from(0, [1]),
            "the whole unacknowledged batch goes, intact frames included"
        );
    }

    #[test]
    fn clean_prefix_of_an_unmarked_batch_is_rolled_back() {
        let dir = TempDir::new("filewal-unmarked");
        let marker_end;
        {
            let mut wal: FileWal<u64> = FileWal::open(cfg(&dir)).unwrap();
            wal.append(1);
            marker_end = wal.storage_bytes();
            wal.append(2);
        }
        // A crash that persisted exactly batch 2's record frame but not
        // its marker: frame-clean EOF, yet never acknowledged.
        let seg = dir.path().join(format!("wal-{:016x}.seg", 0));
        let mut data = fs::read(&seg).unwrap();
        data.truncate(marker_end as usize + FRAME_HEADER + 8);
        fs::write(&seg, &data).unwrap();
        let mut wal: FileWal<u64> = FileWal::open(cfg(&dir)).unwrap();
        assert_eq!(
            replayed(&wal),
            from(0, [1]),
            "unmarked tail is not acknowledged"
        );
        assert_eq!(wal.append(5), Lsn(1), "the log continues from the boundary");
        assert_eq!(replayed(&wal), from(0, [1, 5]));
    }

    #[test]
    fn replay_reads_back_exactly_the_retained_durable_records() {
        let dir = TempDir::new("filewal-replay");
        let mut wal: FileWal<u64> = FileWal::open(cfg(&dir).with_segment_bytes(64)).unwrap();
        // Forced batches of two records (52 bytes a force: two 16-byte
        // frames and the marker) seal a 64-byte segment every second
        // force, so each segment holds four records.
        for i in 0..6u64 {
            wal.buffer(2 * i);
            wal.buffer(2 * i + 1);
            WalBackend::force(&mut wal);
        }
        assert!(wal.segment_count() >= 3, "segments rolled");
        wal.truncate_before(Lsn(5));
        let start = wal.start_lsn().0;
        assert!(start > 0 && start <= 5, "whole segments dropped: {start}");
        // Staged and lost, staged and still pending: neither is durable.
        wal.buffer(100);
        wal.lose_volatile();
        wal.buffer(101);
        assert_eq!(wal.pending_len(), 1);
        assert_eq!(replayed(&wal), from(start, start..12));
        assert_eq!(wal.len() as u64, 12 - start);
        assert_eq!(wal.next_lsn(), Lsn(13), "the pending record's slot");
        // Forced, the survivor of the two continues the numbering.
        WalBackend::force(&mut wal);
        assert_eq!(replayed(&wal), from(start, (start..12).chain([101])));
    }

    #[test]
    fn mid_log_damage_is_corruption() {
        let dir = TempDir::new("filewal-corrupt");
        {
            let mut wal: FileWal<u64> = FileWal::open(cfg(&dir).with_segment_bytes(16)).unwrap();
            for i in 0..8u64 {
                wal.append(i);
            }
            assert!(wal.segment_count() >= 2);
        }
        // Damage the FIRST segment (not the last): no torn-tail excuse.
        let seg = dir.path().join(format!("wal-{:016x}.seg", 0));
        let mut data = fs::read(&seg).unwrap();
        data[FRAME_HEADER] ^= 0xFF;
        fs::write(&seg, &data).unwrap();
        let err = FileWal::<u64>::open(cfg(&dir).with_segment_bytes(16)).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "got {err}");
    }

    #[test]
    fn lsn_gap_between_segments_is_corruption() {
        let dir = TempDir::new("filewal-gap");
        {
            let mut wal: FileWal<u64> = FileWal::open(cfg(&dir).with_segment_bytes(16)).unwrap();
            for i in 0..8u64 {
                wal.append(i);
            }
        }
        // Remove a middle segment.
        let mut segs: Vec<PathBuf> = fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        segs.sort();
        assert!(segs.len() >= 3);
        fs::remove_file(&segs[1]).unwrap();
        let err = FileWal::<u64>::open(cfg(&dir).with_segment_bytes(16)).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "got {err}");
    }

    #[test]
    fn either_wal_switches_backends() {
        let dir = TempDir::new("filewal-either");
        let mut mem: EitherWal<u64> = EitherWal::Mem(crate::Wal::new());
        let mut file: EitherWal<u64> = EitherWal::File(FileWal::open(cfg(&dir)).unwrap());
        for w in [&mut mem, &mut file] {
            w.buffer(1);
            w.buffer(2);
            assert_eq!(w.force(), 2);
            assert_eq!(w.records(), [1, 2]);
        }
        assert_eq!(mem.storage_bytes(), 0);
        assert!(file.storage_bytes() > 0);
    }
}
