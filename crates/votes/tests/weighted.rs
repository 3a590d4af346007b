//! Weighted-vote configurations: non-uniform copy weights change which
//! partitions hold quorums — the expressiveness Gifford's scheme adds
//! over copy counting.

use qbc_simnet::SiteId;
use qbc_votes::{analyze, CatalogBuilder, ItemAccess, ItemId};
use std::collections::BTreeSet;

/// A "primary-biased" assignment: the primary site holds 3 of 6 votes,
/// so the primary plus any other copy forms a write quorum (w=4), while
/// the three replicas together cannot write but can read (r=3).
#[test]
fn primary_biased_weights_shift_quorums() {
    let catalog = CatalogBuilder::new()
        .item(ItemId(0))
        .copy(SiteId(0), 3) // primary
        .copy(SiteId(1), 1)
        .copy(SiteId(2), 1)
        .copy(SiteId(3), 1)
        .quorums(3, 4)
        .build()
        .unwrap();

    let with_primary: Vec<BTreeSet<SiteId>> =
        vec![[SiteId(0), SiteId(1)].into(), [SiteId(2), SiteId(3)].into()];
    let report = analyze(&catalog, &with_primary, |_, _| false);
    assert_eq!(
        report.per_component[0][&ItemId(0)],
        ItemAccess {
            readable: true,
            writable: true
        },
        "primary + one replica: 4 votes"
    );
    assert_eq!(
        report.per_component[1][&ItemId(0)],
        ItemAccess {
            readable: false,
            writable: false
        },
        "two replicas: 2 votes < r=3"
    );

    let replicas_united: Vec<BTreeSet<SiteId>> =
        vec![[SiteId(0)].into(), [SiteId(1), SiteId(2), SiteId(3)].into()];
    let report = analyze(&catalog, &replicas_united, |_, _| false);
    assert_eq!(
        report.per_component[0][&ItemId(0)],
        ItemAccess {
            readable: true,
            writable: false
        },
        "primary alone: 3 votes = r, < w"
    );
    assert_eq!(
        report.per_component[1][&ItemId(0)],
        ItemAccess {
            readable: true,
            writable: false
        },
        "replicas together: 3 votes = r, < w"
    );
}

/// Gifford's constraints still bind with weights: the builder rejects a
/// weighted assignment whose write quorum is not a majority of votes.
#[test]
fn weighted_constraint_violations_rejected() {
    let r = CatalogBuilder::new()
        .item(ItemId(0))
        .copy(SiteId(0), 5)
        .copy(SiteId(1), 1)
        .quorums(4, 3) // w=3 ≤ v/2=3: two writes could run in parallel
        .build();
    assert!(r.is_err());
}

/// Blocked copies subtract exactly their weight: pinning the heavy copy
/// kills the write quorum, pinning a light one does not.
#[test]
fn blocking_subtracts_weight() {
    let catalog = CatalogBuilder::new()
        .item(ItemId(0))
        .copy(SiteId(0), 3)
        .copy(SiteId(1), 1)
        .copy(SiteId(2), 1)
        .copy(SiteId(3), 1)
        .quorums(3, 4)
        .build()
        .unwrap();
    let all: Vec<BTreeSet<SiteId>> = vec![(0..4).map(SiteId).collect::<BTreeSet<_>>()];

    let heavy_pinned = analyze(&catalog, &all, |s, _| s == SiteId(0));
    assert_eq!(
        heavy_pinned.per_component[0][&ItemId(0)],
        ItemAccess {
            readable: true,
            writable: false
        },
        "3 light votes: read yes (r=3), write no (w=4)"
    );

    let light_pinned = analyze(&catalog, &all, |s, _| s == SiteId(3));
    assert_eq!(
        light_pinned.per_component[0][&ItemId(0)],
        ItemAccess {
            readable: true,
            writable: true
        },
        "5 remaining votes keep both quorums"
    );
}
