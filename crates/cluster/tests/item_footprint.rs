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
//! and `SiteNode::new` builds its store in one bulk pass, so each must
//! make as many calls at 1 024 items per shard as at 16 384: their
//! start-up cost follows the placements, not the items. A catalog item
//! is an (id, class) slot, so `ShardMap::new` may hold 8 B an item and
//! a few placements beside; a per-item pointer, name or spec copy fails
//! that bound. This binary holds only this test, so nothing else
//! allocates while it counts.

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
/// Bytes the placement and the six sites may still hold once built:
/// 2 236 384 (replication 3) measured, plus 12 %.
const MAX_BYTES: usize = 2_500_000;
/// Bytes a catalog item may cost in `ShardMap::new`: its id and its
/// class index.
const MAP_BYTES_PER_ITEM: usize = 8;
/// What `ShardMap::new` may hold beside its items: the placements,
/// the class rows and each shard's `Catalog` (768 and 1 408 B measured
/// at replication 3 and 2).
const MAP_FIXED_BYTES: usize = 4 << 10;
/// Allocator calls building them may make: 72 (replication 3) and 92
/// (replication 2) measured, and about 40 % above the larger.
const MAX_CALLS: usize = 128;

/// What building one cluster's placement and sites cost.
struct Built {
    map: ShardMap,
    nodes: Vec<SiteNode>,
    /// Allocator calls `ShardMap::new` made, and the bytes it holds.
    map_calls: usize,
    map_bytes: usize,
    /// Allocator calls the six `SiteNode::new` calls made.
    node_calls: usize,
}

/// Builds the placement and every site.
fn build(cfg: &ClusterConfig) -> Built {
    let (bytes_before, calls_before) = (LIVE.load(Relaxed), CALLS.load(Relaxed));
    let map = ShardMap::new(cfg);
    let map_bytes = LIVE.load(Relaxed).wrapping_sub(bytes_before);
    let map_calls = CALLS.load(Relaxed) - calls_before;
    let mut nodes = Vec::with_capacity(6);
    let mut node_calls = 0;
    for shard in (0..cfg.shards).map(ShardId) {
        for site in map.sites_iter(shard) {
            let nc = NodeConfig::new(site, Arc::clone(map.catalog(shard)), cfg.t_bound);
            let calls_before = CALLS.load(Relaxed);
            let node = SiteNode::new(nc, |_| 0);
            node_calls += CALLS.load(Relaxed) - calls_before;
            nodes.push(node);
        }
    }
    Built {
        map,
        nodes,
        map_calls,
        map_bytes,
        node_calls,
    }
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
        let built = build(&cfg);
        let bytes = LIVE.load(Relaxed).wrapping_sub(bytes_before);
        let calls = CALLS.load(Relaxed) - calls_before;
        let (map, map_calls, map_bytes) = (&built.map, built.map_calls, built.map_bytes);
        println!(
            "replication {replication}: {bytes} bytes held, {calls} allocator calls \
             ({map_calls} calls and {map_bytes} bytes in ShardMap::new, {} calls in \
             SiteNode::new)",
            built.node_calls
        );
        assert!(
            bytes <= MAX_BYTES,
            "replication {replication}: {bytes} bytes held (limit {MAX_BYTES})"
        );
        assert!(
            calls <= MAX_CALLS,
            "replication {replication}: {calls} allocator calls (limit {MAX_CALLS})"
        );

        let items = (cfg.shards * ITEMS_PER_SHARD) as usize;
        let map_limit = items * MAP_BYTES_PER_ITEM + MAP_FIXED_BYTES;
        assert!(
            map_bytes <= map_limit,
            "replication {replication}: ShardMap::new holds {map_bytes} bytes for {items} \
             items (limit {map_limit})"
        );

        // Start-up proportional to placements: a sixteenth of the items
        // costs the placement and the sites exactly as many calls.
        let small = build(&config(replication, ITEMS_PER_SHARD / 16));
        assert_eq!(
            small.map_calls,
            map_calls,
            "replication {replication}: ShardMap::new made {} calls at {} items per shard \
             and {map_calls} at {ITEMS_PER_SHARD}",
            small.map_calls,
            ITEMS_PER_SHARD / 16
        );
        assert_eq!(
            small.node_calls,
            built.node_calls,
            "replication {replication}: the six SiteNode::new made {} calls at {} items \
             per shard and {} at {ITEMS_PER_SHARD}",
            small.node_calls,
            ITEMS_PER_SHARD / 16,
            built.node_calls
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
        assert_eq!(built.nodes.len(), 6);
    }
}
