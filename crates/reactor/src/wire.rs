//! The client↔server wire protocol riding inside [`crate::frame`]
//! frames.
//!
//! Only the *front door* needs a wire format: inter-site protocol
//! traffic stays in-process (the reactor routes [`qbc_db::NetMsg`]
//! values between site inboxes by move). Client sessions, in contrast,
//! live on the far side of a socket, so their requests and replies are
//! encoded with the same hand-rolled primitive codec the file WAL uses
//! ([`qbc_storage::codec`]).
//!
//! Sessions are *logical*: one connection multiplexes any number of
//! them, each identified by a client-chosen `session` id echoed on
//! every reply. That is what lets 30k concurrent sessions ride on a
//! handful of descriptors.

use qbc_core::{Decision, TxnId};
use qbc_storage::codec::{put_i64, put_u32, put_u64, put_u8, Dec};
use qbc_votes::{ItemId, Version};

/// A client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Begin a write transaction; the server picks a live coordinator
    /// (re-picking on retry) and assigns the transaction id.
    Submit {
        /// Client-chosen session id, echoed on the reply.
        session: u64,
        /// Items and values to write.
        writes: Vec<(ItemId, i64)>,
    },
    /// Begin a snapshot read of one item.
    SnapRead {
        /// Client-chosen session id, echoed on the reply.
        session: u64,
        /// Item to read.
        item: ItemId,
    },
}

/// A server reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// The session's transaction decided.
    Decided {
        /// Echoed session id.
        session: u64,
        /// The transaction id the server assigned to this attempt.
        txn: TxnId,
        /// The outcome.
        decision: Decision,
        /// Commit version when known at the answering site.
        commit_version: Option<Version>,
    },
    /// The server could not place the request (no live coordinator for
    /// its home shard, or it was routed at a site that died before
    /// starting it). The client resubmits — its handle never surfaces
    /// this.
    Rejected {
        /// Echoed session id.
        session: u64,
    },
    /// A snapshot read resolved.
    SnapRead {
        /// Echoed session id.
        session: u64,
        /// `(version, value)` on success; `None` when every copy site
        /// was unreachable (`Unavailable`).
        value: Option<(Version, i64)>,
    },
}

const REQ_SUBMIT: u8 = 1;
const REQ_SNAP_READ: u8 = 2;
const REP_DECIDED: u8 = 1;
const REP_REJECTED: u8 = 2;
const REP_SNAP_READ: u8 = 3;

impl Request {
    /// Appends this request's encoding to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Submit { session, writes } => {
                put_u8(buf, REQ_SUBMIT);
                put_u64(buf, *session);
                put_u32(buf, writes.len() as u32);
                for (item, value) in writes {
                    put_u32(buf, item.0);
                    put_i64(buf, *value);
                }
            }
            Request::SnapRead { session, item } => {
                put_u8(buf, REQ_SNAP_READ);
                put_u64(buf, *session);
                put_u32(buf, item.0);
            }
        }
    }

    /// Decodes one request from a whole frame payload.
    pub fn decode(bytes: &[u8]) -> Option<Request> {
        let mut d = Dec::new(bytes);
        let req = match d.u8()? {
            REQ_SUBMIT => {
                let session = d.u64()?;
                let n = d.u32()? as usize;
                if n > d.remaining() / 12 + 1 {
                    return None;
                }
                let mut writes = Vec::with_capacity(n);
                for _ in 0..n {
                    writes.push((ItemId(d.u32()?), d.i64()?));
                }
                Request::Submit { session, writes }
            }
            REQ_SNAP_READ => Request::SnapRead {
                session: d.u64()?,
                item: ItemId(d.u32()?),
            },
            _ => return None,
        };
        d.finished().then_some(req)
    }
}

impl Reply {
    /// Appends this reply's encoding to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Reply::Decided {
                session,
                txn,
                decision,
                commit_version,
            } => {
                put_u8(buf, REP_DECIDED);
                put_u64(buf, *session);
                put_u64(buf, txn.0);
                put_u8(buf, matches!(decision, Decision::Commit) as u8);
                match commit_version {
                    Some(v) => {
                        put_u8(buf, 1);
                        put_u64(buf, v.0);
                    }
                    None => put_u8(buf, 0),
                }
            }
            Reply::Rejected { session } => {
                put_u8(buf, REP_REJECTED);
                put_u64(buf, *session);
            }
            Reply::SnapRead { session, value } => {
                put_u8(buf, REP_SNAP_READ);
                put_u64(buf, *session);
                match value {
                    Some((v, x)) => {
                        put_u8(buf, 1);
                        put_u64(buf, v.0);
                        put_i64(buf, *x);
                    }
                    None => put_u8(buf, 0),
                }
            }
        }
    }

    /// Decodes one reply from a whole frame payload.
    pub fn decode(bytes: &[u8]) -> Option<Reply> {
        let mut d = Dec::new(bytes);
        let rep = match d.u8()? {
            REP_DECIDED => {
                let session = d.u64()?;
                let txn = TxnId(d.u64()?);
                let decision = if d.u8()? == 1 {
                    Decision::Commit
                } else {
                    Decision::Abort
                };
                let commit_version = match d.u8()? {
                    0 => None,
                    1 => Some(Version(d.u64()?)),
                    _ => return None,
                };
                Reply::Decided {
                    session,
                    txn,
                    decision,
                    commit_version,
                }
            }
            REP_REJECTED => Reply::Rejected { session: d.u64()? },
            REP_SNAP_READ => {
                let session = d.u64()?;
                let value = match d.u8()? {
                    0 => None,
                    1 => Some((Version(d.u64()?), d.i64()?)),
                    _ => return None,
                };
                Reply::SnapRead { session, value }
            }
            _ => return None,
        };
        d.finished().then_some(rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let cases = [
            Request::Submit {
                session: 9,
                writes: vec![(ItemId(3), -5), (ItemId(11), i64::MAX)],
            },
            Request::Submit {
                session: 0,
                writes: vec![],
            },
            Request::SnapRead {
                session: u64::MAX,
                item: ItemId(2),
            },
        ];
        for req in cases {
            let mut buf = Vec::new();
            req.encode_into(&mut buf);
            assert_eq!(Request::decode(&buf), Some(req.clone()), "{req:?}");
            // Truncations never parse.
            for cut in 0..buf.len() {
                assert_eq!(Request::decode(&buf[..cut]), None, "{req:?} cut {cut}");
            }
        }
    }

    #[test]
    fn replies_roundtrip() {
        let cases = [
            Reply::Decided {
                session: 4,
                txn: TxnId(77),
                decision: Decision::Commit,
                commit_version: Some(Version(12)),
            },
            Reply::Decided {
                session: 5,
                txn: TxnId(78),
                decision: Decision::Abort,
                commit_version: None,
            },
            Reply::Rejected { session: 6 },
            Reply::SnapRead {
                session: 7,
                value: Some((Version(3), -9)),
            },
            Reply::SnapRead {
                session: 8,
                value: None,
            },
        ];
        for rep in cases {
            let mut buf = Vec::new();
            rep.encode_into(&mut buf);
            assert_eq!(Reply::decode(&buf), Some(rep.clone()), "{rep:?}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut buf = Vec::new();
        Reply::Rejected { session: 1 }.encode_into(&mut buf);
        buf.push(0);
        assert_eq!(Reply::decode(&buf), None);
        assert_eq!(Request::decode(&[99]), None, "unknown tag");
    }
}
