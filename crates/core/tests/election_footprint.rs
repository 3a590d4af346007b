//! Allocation gate: the elector takes events without touching the heap.
//!
//! A site's elector runs on the message path of every transaction that
//! escalates. Under a counting global allocator this drives one elector
//! through `start`, each of the three election messages and both
//! election timers, into an action buffer grown beforehand (as a site's
//! pooled buffers are), and requires zero allocator calls: the peers
//! are read from the shared spec and every message shares it by
//! reference count. This binary holds only this test, so nothing else
//! allocates while it counts.

use qbc_core::election::{ElectionMsg, Elector, Phase};
use qbc_core::{Action, Msg, ProtocolKind, TimerKind, TxnId, TxnSpec, WriteSet};
use qbc_simnet::SiteId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// Allocation and reallocation calls made.
static CALLS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter never touches
// the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: `ptr` came from `System`; the caller's obligations on
        // `layout` and `new_size` pass through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const TXN: TxnId = TxnId(1);
const ME: SiteId = SiteId(1);

#[test]
fn the_elector_allocates_nothing_per_event() {
    let spec = Arc::new(TxnSpec {
        id: TXN,
        coordinator: SiteId(0),
        writeset: WriteSet::default(),
        participants: (0..4).map(SiteId).collect(),
        protocol: ProtocolKind::QuorumCommit2,
        parent: None,
    });
    let election = |msg| Msg::Election {
        txn: TXN,
        spec: Arc::clone(&spec),
        msg,
    };
    // Every input is built before counting starts.
    let alive = election(ElectionMsg::Alive { round: 1 });
    let lower_elects = election(ElectionMsg::Election { round: 1 });
    let higher_won = election(ElectionMsg::Coordinator { round: 2 });
    let wait_coordinator = TimerKind::ElectionCoordinator { txn: TXN, round: 1 };
    let wait_alive = TimerKind::ElectionAlive { txn: TXN, round: 2 };
    let mut e = Elector::new(ME, Arc::clone(&spec));
    let mut out: Vec<Action> = Vec::with_capacity(16);
    let mut emitted = 0;

    let before = CALLS.load(Relaxed);
    // Asks s2 and s3; s3 answers, then falls silent: the election
    // restarts, and the second round's window elects s1.
    e.start(&mut out);
    emitted += out.len();
    out.clear();
    e.on_msg(SiteId(3), &alive, &mut out);
    emitted += out.len();
    out.clear();
    e.on_timer(wait_coordinator, &mut out);
    emitted += out.len();
    out.clear();
    e.on_timer(wait_alive, &mut out);
    let won = out.contains(&Action::Elected { txn: TXN });
    emitted += out.len();
    out.clear();
    // As leader, answers and re-announces to a lower candidate; then
    // follows a higher site's announcement.
    e.on_msg(SiteId(0), &lower_elects, &mut out);
    emitted += out.len();
    out.clear();
    e.on_msg(SiteId(3), &higher_won, &mut out);
    emitted += out.len();
    out.clear();
    let calls = CALLS.load(Relaxed) - before;

    assert!(won, "the second round's window elects s1");
    assert_eq!(e.phase(), Phase::Follower(SiteId(3)));
    // 2 asks + window, window, 2 asks + window, 3 announcements + win,
    // alive + re-announcement.
    assert_eq!(emitted, 3 + 1 + 3 + 4 + 2);
    assert_eq!(calls, 0, "the elector allocated {calls} times");
}
