//! Footprint gate: what a decided transaction costs the sites that keep
//! answering for it.
//!
//! The termination protocol asks every reachable site for its local
//! state, so a site keeps each decided transaction's entry until
//! retirement. This gate runs a two-shard in-memory QC2 cluster (three
//! sites per shard, replication 3) with retirement off, under a
//! counting global allocator. It commits `N` single-item writes, then
//! `N` more, and bounds what the second batch adds:
//!
//! - the bytes the cluster still holds per decided transaction, summed
//!   over the three sites of its shard: the table entries, the
//!   coordinator, the log records and the shared spec. Measuring from
//!   `N` to `2N` takes each doubling container through exactly one
//!   doubling, so its slack counts as it would in a long run;
//! - the allocator calls (allocations plus reallocations) per committed
//!   transaction.
//!
//! `--nocapture` prints both. This binary holds only this test, so
//! nothing else allocates while it counts.

use qbc_cluster::{ClusterConfig, SimCluster, TxnHandle};
use qbc_core::{Decision, WriteSet};
use qbc_simnet::Time;
use qbc_votes::ItemId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Allocation and reallocation calls made.
static CALLS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only do
// arithmetic on sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        LIVE.fetch_add(layout.size(), Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        LIVE.fetch_add(new_size, Relaxed);
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from `System`; the caller's obligations on
        // `layout` and `new_size` pass through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Transactions per batch: 750 entries per site after the first.
const N: u64 = 1_500;
/// One write submitted every this many ticks; with `t_bound` 10 a
/// commit takes a few ticks, so transactions overlap but never share
/// an item.
const THINK: u64 = 2;
const ITEMS_PER_SHARD: u32 = 4_096;
/// Bytes the cluster may hold per decided transaction. Boxed entries
/// hold 1 366 B here (1 350–1 600 B for `N` from 1 000 to 3 000); an
/// entry kept inline in its hash slot (192 B, times the map's slack, at
/// three sites) with tree-based coordinator sets held 2 024 B
/// (2 000–3 000 B).
const MAX_BYTES_PER_TXN: usize = 1_700;
/// Allocator calls per committed transaction: 21.5 here, 24.5 with the
/// inline entries, tree-based coordinator sets and a heap audit trail.
/// One more allocation per transaction at each of three sites fails.
const MAX_CALLS_PER_TXN: f64 = 22.9;

/// Submits `N` writes from `from` on, one every `THINK` ticks, each on
/// an item of its own, and runs the cluster until it is quiet.
fn batch(cluster: &mut SimCluster, from: u64) -> Vec<TxnHandle> {
    let start = cluster.now().0 + 1;
    let handles = (from..from + N)
        .map(|k| {
            let item = ItemId((k % (2 * ITEMS_PER_SHARD as u64)) as u32);
            let at = Time(start + (k - from) * THINK);
            cluster.submit_at(at, WriteSet::new([(item, k as i64)]))
        })
        .collect();
    cluster.run_to_quiescence(u64::MAX);
    handles
}

#[test]
fn a_decided_transaction_costs_its_bytes_once() {
    let cfg = ClusterConfig {
        shards: 2,
        sites_per_shard: 3,
        replication: 3,
        items_per_shard: ITEMS_PER_SHARD,
        ..ClusterConfig::default()
    };
    assert!(cfg.retire_after.is_none(), "retirement stays off");
    let mut cluster = SimCluster::new(cfg);
    batch(&mut cluster, 0);
    let (bytes_before, calls_before) = (LIVE.load(Relaxed), CALLS.load(Relaxed));
    let second = batch(&mut cluster, N);
    let bytes = LIVE.load(Relaxed).wrapping_sub(bytes_before);
    let calls = CALLS.load(Relaxed) - calls_before;

    let committed = second
        .iter()
        .filter(|h| cluster.decision(h) == Some(Decision::Commit))
        .count();
    assert_eq!(committed, N as usize, "every write commits");
    let sites = cluster.sim().site_ids();
    let live: usize = sites
        .iter()
        .map(|&s| cluster.sim().node(s).txn_table_len())
        .sum();
    assert_eq!(live, 3 * 2 * N as usize, "every entry stays live");

    let bytes_per_txn = bytes / N as usize;
    let calls_per_txn = calls as f64 / committed as f64;
    println!(
        "{bytes_per_txn} bytes held and {calls_per_txn:.1} allocator calls \
         per decided transaction"
    );
    assert!(
        bytes_per_txn <= MAX_BYTES_PER_TXN,
        "{bytes_per_txn} bytes held per decided transaction (limit {MAX_BYTES_PER_TXN})"
    );
    assert!(
        calls_per_txn <= MAX_CALLS_PER_TXN,
        "{calls_per_txn:.1} allocator calls per committed transaction \
         (limit {MAX_CALLS_PER_TXN})"
    );
}
