//! Footprint gate: what a full [`WalBackend::replay`] walk holds.
//!
//! Recovery walks a site's whole retained log once. A replay that
//! decodes the log into one `Vec` before yielding its first record
//! holds every record at once: 1.6 MB for the 200 000 `u64`s here. A
//! streaming one holds a record at a time from the in-memory log's
//! chunks, and one segment plus its decoded batch from the file log.
//! Both walks run under a counting global allocator that tracks the
//! peak of the bytes held, measured above the level before the walk.
//!
//! This binary holds only this test, so nothing else allocates while it
//! counts.

use qbc_storage::{FileWal, FileWalConfig, TempDir, Wal, WalBackend};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most bytes allocated at once since it was last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grow(by: usize) {
        let live = LIVE.fetch_add(by, Relaxed) + by;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only do
// arithmetic on sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::grow(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the new block before the old one is freed, which
        // is what a moving reallocation holds.
        Counting::grow(new_size);
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from `System`; the caller's obligations on
        // `layout` and `new_size` pass through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Records in each log: record `i` is the value `i` at LSN `i`.
const RECORDS: u64 = 200_000;
/// Records per force on the file log.
const BATCH: u64 = 1_000;
/// The file log's segment roll threshold.
const SEGMENT_BYTES: usize = 64 << 10;

/// Walks `wal`'s whole replay, checking every record is in place, and
/// returns the peak bytes the walk held above the level before it.
fn replay_peak(wal: &dyn WalBackend<u64>) -> usize {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let mut walked = 0;
    for (lsn, rec) in wal.replay() {
        assert_eq!((lsn.0, rec), (walked, walked), "replayed out of order");
        walked += 1;
    }
    assert_eq!(walked, RECORDS, "the walk missed records");
    PEAK.load(Relaxed) - base
}

#[test]
fn a_replay_walk_holds_one_chunk_or_two_segments_and_a_batch() {
    let mut mem: Wal<u64> = Wal::new();
    for i in 0..RECORDS {
        mem.buffer(i);
    }
    mem.force();
    let peak = replay_peak(&mem);
    println!("in-memory replay peak: {peak} B above the log");
    assert!(
        peak <= Wal::<u64>::CHUNK_BYTES,
        "the in-memory replay held {peak} B, more than one chunk"
    );

    let dir = TempDir::new("replay-footprint");
    let cfg = FileWalConfig::new(dir.path())
        .without_fsync()
        .with_segment_bytes(SEGMENT_BYTES as u64);
    let mut file: FileWal<u64> = FileWal::open(cfg).expect("open");
    for i in 0..RECORDS {
        file.buffer(i);
        if (i + 1) % BATCH == 0 {
            file.force();
        }
    }
    assert!(file.segment_count() > 10, "the log spans many segments");
    let peak = replay_peak(&file);
    println!("file replay peak: {peak} B above the log");
    let bound = 2 * SEGMENT_BYTES + BATCH as usize * std::mem::size_of::<u64>();
    assert!(
        peak <= bound,
        "the file replay held {peak} B, more than two segments and a batch ({bound} B)"
    );
}
