//! Footprint gate: what an item copy costs in the catalog and the site
//! stores.
//!
//! Builds the placement (`ShardMap::new`) and the six `SiteNode`s of a
//! two-shard cluster with 16 384 items per shard, three sites per shard,
//! at replication 3 and at replication 2, under a counting global
//! allocator, and bounds the bytes the built structures still hold and
//! the allocator calls (allocations plus reallocations) that building
//! them made. A per-item allocation anywhere on that path — a name, a
//! placement map, a version chain — costs ≥ 32 768 calls and fails the
//! gate. `ShardMap::new` builds each shard from its placement classes,
//! so it must make as many calls at 1 024 items per shard as at 16 384:
//! its start-up cost follows the placements, not the items. This
//! binary holds only this test, so nothing else allocates while it
//! counts.

use qbc_cluster::{ClusterConfig, ShardId, ShardMap};
use qbc_db::{NodeConfig, SiteNode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

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

const ITEMS_PER_SHARD: u32 = 16_384;
/// Bytes the placement and the six sites may still hold once built.
const MAX_BYTES: usize = 5 << 20;
/// Allocator calls building them may make: 65 (replication 3) and 85
/// (replication 2) measured, plus half again for headroom.
const MAX_CALLS: usize = 128;

/// Builds the placement and every site, returning the allocator calls
/// `ShardMap::new` made on its own.
fn build(cfg: &ClusterConfig) -> (ShardMap, Vec<SiteNode>, usize) {
    let calls_before = CALLS.load(Relaxed);
    let map = ShardMap::new(cfg);
    let map_calls = CALLS.load(Relaxed) - calls_before;
    let mut nodes = Vec::new();
    for shard in (0..cfg.shards).map(ShardId) {
        for site in map.sites_iter(shard) {
            let nc = NodeConfig::new(site, Arc::clone(map.catalog(shard)), cfg.t_bound);
            nodes.push(SiteNode::new(nc, |_| 0));
        }
    }
    (map, nodes, map_calls)
}

fn config(replication: u32, items_per_shard: u32) -> ClusterConfig {
    ClusterConfig {
        shards: 2,
        sites_per_shard: 3,
        replication,
        items_per_shard,
        ..ClusterConfig::default()
    }
}

#[test]
fn a_copy_costs_a_slot_not_an_allocation() {
    for replication in [3, 2] {
        let cfg = config(replication, ITEMS_PER_SHARD);
        let (bytes_before, calls_before) = (LIVE.load(Relaxed), CALLS.load(Relaxed));
        let (map, nodes, map_calls) = build(&cfg);
        let bytes = LIVE.load(Relaxed).wrapping_sub(bytes_before);
        let calls = CALLS.load(Relaxed) - calls_before;
        println!(
            "replication {replication}: {bytes} bytes held, {calls} allocator calls \
             ({map_calls} in ShardMap::new)"
        );
        assert!(
            bytes <= MAX_BYTES,
            "replication {replication}: {bytes} bytes held (limit {MAX_BYTES})"
        );
        assert!(
            calls <= MAX_CALLS,
            "replication {replication}: {calls} allocator calls (limit {MAX_CALLS})"
        );

        // Start-up proportional to placements: a sixteenth of the items
        // costs the placement exactly as many calls.
        let (_, _, small_map_calls) = build(&config(replication, ITEMS_PER_SHARD / 16));
        assert_eq!(
            small_map_calls,
            map_calls,
            "replication {replication}: ShardMap::new made {small_map_calls} calls at {} \
             items per shard and {map_calls} at {ITEMS_PER_SHARD}",
            ITEMS_PER_SHARD / 16
        );

        // Interning: one placement per distinct copy layout, and with
        // rotating placement a shard has one layout per site.
        for shard in (0..cfg.shards).map(ShardId) {
            let mut placements: Vec<_> = Vec::new();
            for spec in map.catalog(shard).items() {
                if !placements.iter().any(|p| Arc::ptr_eq(p, &spec.copies)) {
                    placements.push(Arc::clone(&spec.copies));
                }
            }
            assert!(
                placements.len() <= cfg.sites_per_shard as usize,
                "{shard}: {} placements",
                placements.len()
            );
        }
        assert_eq!(nodes.len(), 6);
    }
}
