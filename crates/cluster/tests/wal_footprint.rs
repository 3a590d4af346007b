//! Footprint gate: what the in-memory WAL holds between checkpoints and
//! what one checkpoint's truncation frees.
//!
//! Runs a two-shard in-memory cluster (three sites per shard, 4 096
//! items per shard, so a checkpoint record is larger than one log
//! chunk) with retirement after 250 ticks, a 1 000-tick aging horizon
//! and a checkpoint every 2 000 ticks, under one single-item write per
//! tick, through six checkpoints per site, all under a counting global
//! allocator. It bounds:
//!
//! - the bytes the cluster holds at its peak, sampled every 50 ticks.
//!   With the short retirement window, the logs between checkpoints
//!   are the largest part, and a log that keeps its records as values
//!   (and with them the transaction specs they name) holds several
//!   times what their encoded payloads take;
//! - the deallocation calls of each event that truncates a site's log:
//!   truncation frees whole chunks, so its cost does not grow with the
//!   records it discards.
//!
//! This binary holds only this test, so nothing else allocates while it
//! counts.

use qbc_cluster::{ClusterConfig, SimCluster};
use qbc_core::WriteSet;
use qbc_simnet::{Duration, Time};
use qbc_votes::ItemId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Deallocation calls made.
static FREES: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only do
// arithmetic on sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Relaxed);
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Relaxed);
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from `System`; the caller's obligations on
        // `layout` and `new_size` pass through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const ITEMS_PER_SHARD: u32 = 4_096;
const CHECKPOINT_EVERY: u64 = 2_000;
/// Six checkpoints per site.
const RUN: u64 = 6 * CHECKPOINT_EVERY + 500;
/// One write submitted every this many ticks.
const THINK: u64 = 1;
/// Peak bytes the running cluster may hold above what it held once
/// built: 3.5 MiB. A log of encoded payloads peaks at 2.7 MB here; one
/// of record values, each `Voted` pinning its spec, at 5.4 MB.
const MAX_PEAK_BYTES: usize = 7 << 19;
/// Deallocation calls one truncating event may make. Freeing chunks
/// takes at most 14 here; dropping records one by one took 3 017.
const MAX_TRUNCATION_FREES: usize = 64;

#[test]
fn truncation_frees_chunks_and_the_log_holds_payloads() {
    let cfg = ClusterConfig {
        shards: 2,
        sites_per_shard: 3,
        replication: 3,
        items_per_shard: ITEMS_PER_SHARD,
        t_bound: Duration(50),
        seed: 11,
        ..ClusterConfig::default()
    }
    .with_retirement(Duration(250))
    .with_retire_horizon(Duration(1_000))
    .with_checkpoints(Duration(CHECKPOINT_EVERY));
    let mut cluster = SimCluster::new(cfg);
    let items = 2 * ITEMS_PER_SHARD;
    for k in 0..RUN / THINK {
        let item = ItemId((k * 7_919 % items as u64) as u32);
        cluster.submit_at(Time(k * THINK), WriteSet::new([(item, k as i64)]));
    }
    let built = LIVE.load(Relaxed);
    let sites = cluster.sim().site_ids();
    let starts = |c: &SimCluster| -> Vec<u64> {
        sites
            .iter()
            .map(|&s| c.sim().node(s).wal_start_lsn().0)
            .collect()
    };

    let mut peak = 0usize;
    let mut truncations = 0usize;
    let mut worst_frees = 0usize;
    let mut next_sample = 0u64;
    let mut before = starts(&cluster);
    while cluster.now() < Time(RUN) {
        let frees = FREES.load(Relaxed);
        if !cluster.sim_mut().step() {
            break;
        }
        let frees = FREES.load(Relaxed) - frees;
        let after = starts(&cluster);
        if after != before {
            truncations += after.iter().zip(&before).filter(|(a, b)| a != b).count();
            worst_frees = worst_frees.max(frees);
            before = after;
        }
        if cluster.now().0 >= next_sample {
            next_sample = cluster.now().0 + 50;
            peak = peak.max(LIVE.load(Relaxed).saturating_sub(built));
        }
    }
    println!(
        "peak {peak} bytes above the built cluster; {truncations} truncations, \
         the worst making {worst_frees} deallocation calls"
    );
    assert!(
        truncations >= 6 * sites.len(),
        "{truncations} truncations: every site checkpoints six times"
    );
    assert!(
        peak <= MAX_PEAK_BYTES,
        "{peak} bytes held at the peak (limit {MAX_PEAK_BYTES})"
    );
    assert!(
        worst_frees <= MAX_TRUNCATION_FREES,
        "a truncating event made {worst_frees} deallocation calls \
         (limit {MAX_TRUNCATION_FREES})"
    );
    assert!(
        cluster.atomicity_violations().is_empty(),
        "the run must stay atomic"
    );
}
