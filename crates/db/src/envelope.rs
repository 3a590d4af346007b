//! The network message envelope and timer vocabulary of a database site.

use qbc_core::{Msg, ProtocolKind, TimerKind, TxnId, TxnSpec, WriteSet};
use qbc_simnet::{Ctx, Label};
use qbc_storage::Lsn;
use qbc_votes::{ItemId, Version};
use std::sync::Arc;

/// What a site's handlers act through: the substrate's context over
/// this envelope and timer vocabulary.
pub(crate) type NodeCtx<'a> = Ctx<'a, NetMsg, NodeTimer>;

/// Everything a site sends over the wire.
#[derive(Clone, Debug)]
pub enum NetMsg {
    /// A commit/termination protocol message.
    Proto(Msg),
    /// A protocol message with the sender's commit-stable watermark
    /// piggybacked on it. Only emitted when snapshot reads are enabled
    /// ([`crate::NodeConfig::snapshot_reads`]): watermarks spread on
    /// the messages the protocol already exchanges, costing no extra
    /// round. A receiver records the watermark and then handles the
    /// inner message exactly as a bare [`NetMsg::Proto`].
    ProtoW {
        /// The protocol message being carried.
        msg: Msg,
        /// The sender's site-local commit-stable watermark.
        wm: Version,
    },
    /// Quorum-read request for one item copy.
    ReadReq {
        /// Client-chosen request id.
        req_id: u64,
        /// Item requested.
        item: ItemId,
    },
    /// Reply to [`NetMsg::ReadReq`].
    ReadRep {
        /// Echoed request id.
        req_id: u64,
        /// Item.
        item: ItemId,
        /// Copy content if readable here: `(version, value)`. `None`
        /// when this site has no copy, or the copy is locked by an
        /// undecided transaction (the paper's blocked-locks effect).
        copy: Option<(Version, i64)>,
    },
    /// Snapshot-read request for one item copy: answered from the
    /// serving site's multi-version store at its shard watermark,
    /// bypassing locks and pins entirely (never refused for a pinned
    /// copy — the whole point of the snapshot path).
    SnapReadReq {
        /// Client-chosen request id.
        req_id: u64,
        /// Item requested.
        item: ItemId,
    },
    /// Reply to [`NetMsg::SnapReadReq`].
    SnapReadRep {
        /// Echoed request id.
        req_id: u64,
        /// Item.
        item: ItemId,
        /// `(version, value)` served at the watermark; `None` only when
        /// the serving site holds no copy of the item at all.
        copy: Option<(Version, i64)>,
        /// The shard watermark the read was served at.
        wm: Version,
    },
    /// A client asks this site to coordinate a new transaction. This is
    /// the wire form of [`crate::SiteNode::begin_transaction`], used by
    /// front-ends (the cluster runtime) on transports that cannot call
    /// into a node directly (the reactor substrate).
    BeginTxn {
        /// Client-chosen transaction id (globally unique).
        txn: TxnId,
        /// Items and values to write.
        writeset: WriteSet,
        /// Commit protocol to run.
        protocol: ProtocolKind,
    },
    /// A client asks this site to coordinate a snapshot read: the wire
    /// form of [`crate::SiteNode::start_snapshot_read`], for front-ends
    /// on transports that cannot call into a node directly.
    BeginSnapRead {
        /// Client-chosen request id.
        req_id: u64,
        /// Item to read.
        item: ItemId,
    },
    /// A client asks this site to coordinate a *cross-shard* transaction:
    /// the wire form of [`crate::SiteNode::begin_xshard`]. The branch
    /// specs are pre-split by the cluster layer (only it holds every
    /// shard's catalog), each carrying this site as `parent`.
    BeginXTxn {
        /// Client-chosen transaction id (globally unique; shared by
        /// every branch).
        txn: TxnId,
        /// One branch spec per involved shard.
        branches: Vec<Arc<TxnSpec>>,
    },
}

impl NetMsg {
    /// The transaction this message speaks for, if any (reads speak for
    /// none): the one whose log records a sender must have forced
    /// before the message may leave.
    pub(crate) fn txn(&self) -> Option<TxnId> {
        match self {
            NetMsg::Proto(m) | NetMsg::ProtoW { msg: m, .. } => Some(m.txn()),
            NetMsg::BeginTxn { txn, .. } | NetMsg::BeginXTxn { txn, .. } => Some(*txn),
            NetMsg::ReadReq { .. }
            | NetMsg::ReadRep { .. }
            | NetMsg::SnapReadReq { .. }
            | NetMsg::SnapReadRep { .. }
            | NetMsg::BeginSnapRead { .. } => None,
        }
    }
}

impl Label for NetMsg {
    fn label(&self) -> &'static str {
        match self {
            // The watermark wrapper is transparent: message accounting
            // (and the E16 comparisons built on it) keep seeing the
            // protocol message inside.
            NetMsg::Proto(m) | NetMsg::ProtoW { msg: m, .. } => m.label(),
            NetMsg::ReadReq { .. } => "READ-REQ",
            NetMsg::ReadRep { .. } => "READ-REP",
            NetMsg::SnapReadReq { .. } => "SNAP-READ-REQ",
            NetMsg::SnapReadRep { .. } => "SNAP-READ-REP",
            NetMsg::BeginSnapRead { .. } => "BEGIN-SNAP-READ",
            NetMsg::BeginTxn { .. } => "BEGIN-TXN",
            NetMsg::BeginXTxn { .. } => "BEGIN-XTXN",
        }
    }
}

/// Everything a site arms timers with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeTimer {
    /// A protocol timer (vote/ack/state collection, election, watchdog,
    /// retry).
    Proto(TimerKind),
    /// A read's window expired: it closes a quorum read's collection
    /// and ends a snapshot read's attempt at one copy site, which then
    /// tries the next or gives up after the last one.
    ReadTimeout {
        /// Request id.
        req_id: u64,
    },
    /// Retire a finished read collector: once armed (at resolution,
    /// one collection window after the result settled) the entry is
    /// removed outright, bounding the per-site read table under
    /// sustained read load.
    ReadRetire {
        /// Request id.
        req_id: u64,
    },
    /// The group-commit batch window expired: force the staged records.
    FlushWal,
    /// A WAL force issued earlier completed (the serialized log device
    /// model of [`crate::NodeConfig::force_latency`]).
    WalForceDone {
        /// End LSN of the forced batch: every record below it is
        /// durable once this fires.
        upto: Lsn,
    },
    /// The periodic checkpoint tick
    /// ([`crate::NodeConfig::checkpoint_interval`]): write a
    /// [`qbc_core::LogRecord::Checkpoint`] if the log grew, then
    /// truncate the dead prefix.
    Checkpoint,
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbc_core::Decision;

    #[test]
    fn labels_delegate() {
        let m = NetMsg::Proto(Msg::Decided {
            txn: TxnId(1),
            decision: Decision::Abort,
            commit_version: None,
        });
        assert_eq!(m.label(), "DECIDED");
        let r = NetMsg::ReadReq {
            req_id: 1,
            item: ItemId(0),
        };
        assert_eq!(r.label(), "READ-REQ");
        // The watermark wrapper is invisible to message accounting.
        let w = NetMsg::ProtoW {
            msg: Msg::Decided {
                txn: TxnId(1),
                decision: Decision::Abort,
                commit_version: None,
            },
            wm: Version(3),
        };
        assert_eq!(w.label(), "DECIDED");
        let s = NetMsg::SnapReadRep {
            req_id: 2,
            item: ItemId(1),
            copy: Some((Version(1), 7)),
            wm: Version(1),
        };
        assert_eq!(s.label(), "SNAP-READ-REP");
    }
}
