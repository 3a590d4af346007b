//! On-disk encoding of [`LogRecord`] for the file-backed WAL.
//!
//! The durable encoding is written by hand against the primitives in
//! [`qbc_storage::codec`]: little-endian fixed-width integers, a
//! one-byte variant tag per record and per enum, `u32`-count-prefixed
//! sequences, `0/1`-tagged options. `docs/wal-format.md` documents the
//! layout field by field.
//!
//! Framing, checksums and torn-tail handling live below this layer (in
//! `qbc_storage::FileWal`): [`WalCodec::decode`] only ever sees whole,
//! checksum-verified payloads, so a decode failure is treated as
//! corruption by the WAL, not repaired.

use crate::log::{LogRecord, RetiredOutcome, XRetiredOutcome};
use crate::types::{Decision, ProtocolKind, TxnId, TxnSpec, WriteSet};
use qbc_simnet::SiteId;
use qbc_storage::codec::{put_i64, put_u32, put_u64, put_u8, Dec, WalCodec};
use qbc_votes::{ItemId, Version};
use std::sync::Arc;

// Variant tags. Appending new record kinds is forwards-compatible;
// renumbering is not (old logs would mis-decode) — see wal-format.md.
const TAG_COORDINATOR_START: u8 = 0;
const TAG_VOTED: u8 = 1;
const TAG_VOTED_NO: u8 = 2;
const TAG_PRE_COMMIT: u8 = 3;
const TAG_PRE_ABORT: u8 = 4;
const TAG_DECIDED: u8 = 5;
const TAG_X_START: u8 = 6;
const TAG_X_DECISION: u8 = 7;
const TAG_CHECKPOINT: u8 = 8;
const TAG_PAXOS_PROMISE: u8 = 9;
const TAG_PAXOS_ACCEPT: u8 = 10;

/// Pre-allocation bound for a count field read from the payload: every
/// element encodes to at least one byte, so a count exceeding the bytes
/// left is already unsatisfiable — let the element reads return `None`
/// instead of trusting a skewed count with a gigabyte reservation.
fn cap(n: u32, d: &Dec<'_>) -> usize {
    (n as usize).min(d.remaining())
}

fn put_decision(buf: &mut Vec<u8>, d: Decision) {
    put_u8(buf, matches!(d, Decision::Abort) as u8);
}

fn get_decision(d: &mut Dec<'_>) -> Option<Decision> {
    match d.u8()? {
        0 => Some(Decision::Commit),
        1 => Some(Decision::Abort),
        _ => None,
    }
}

fn put_opt_version(buf: &mut Vec<u8>, v: Option<Version>) {
    match v {
        None => put_u8(buf, 0),
        Some(v) => {
            put_u8(buf, 1);
            put_u64(buf, v.0);
        }
    }
}

fn get_opt_version(d: &mut Dec<'_>) -> Option<Option<Version>> {
    match d.u8()? {
        0 => Some(None),
        1 => Some(Some(Version(d.u64()?))),
        _ => None,
    }
}

fn put_protocol(buf: &mut Vec<u8>, p: ProtocolKind) {
    let tag = match p {
        ProtocolKind::TwoPhase => 0,
        ProtocolKind::ThreePhase => 1,
        ProtocolKind::SkeenQuorum => 2,
        ProtocolKind::QuorumCommit1 => 3,
        ProtocolKind::QuorumCommit2 => 4,
        ProtocolKind::PaxosCommit => 5,
    };
    put_u8(buf, tag);
}

fn get_protocol(d: &mut Dec<'_>) -> Option<ProtocolKind> {
    Some(match d.u8()? {
        0 => ProtocolKind::TwoPhase,
        1 => ProtocolKind::ThreePhase,
        2 => ProtocolKind::SkeenQuorum,
        3 => ProtocolKind::QuorumCommit1,
        4 => ProtocolKind::QuorumCommit2,
        5 => ProtocolKind::PaxosCommit,
        _ => return None,
    })
}

fn put_spec(buf: &mut Vec<u8>, spec: &TxnSpec) {
    put_u64(buf, spec.id.0);
    put_u32(buf, spec.coordinator.0);
    put_u32(buf, spec.writeset.updates.len() as u32);
    for (item, value) in &spec.writeset.updates {
        put_u32(buf, item.0);
        put_i64(buf, *value);
    }
    put_u32(buf, spec.participants.len() as u32);
    for site in &spec.participants {
        put_u32(buf, site.0);
    }
    put_protocol(buf, spec.protocol);
    match spec.parent {
        None => put_u8(buf, 0),
        Some(p) => {
            put_u8(buf, 1);
            put_u32(buf, p.0);
        }
    }
}

fn get_spec(d: &mut Dec<'_>) -> Option<Arc<TxnSpec>> {
    let id = TxnId(d.u64()?);
    let coordinator = SiteId(d.u32()?);
    let n = d.u32()?;
    let mut updates = std::collections::BTreeMap::new();
    for _ in 0..n {
        let item = ItemId(d.u32()?);
        let value = d.i64()?;
        updates.insert(item, value);
    }
    let n = d.u32()?;
    let mut participants = std::collections::BTreeSet::new();
    for _ in 0..n {
        participants.insert(SiteId(d.u32()?));
    }
    let protocol = get_protocol(d)?;
    let parent = match d.u8()? {
        0 => None,
        1 => Some(SiteId(d.u32()?)),
        _ => return None,
    };
    Some(Arc::new(TxnSpec {
        id,
        coordinator,
        writeset: WriteSet { updates },
        participants,
        protocol,
        parent,
    }))
}

fn opt_version_len(v: Option<Version>) -> usize {
    match v {
        None => 1,
        Some(_) => 9,
    }
}

fn spec_len(spec: &TxnSpec) -> usize {
    8 + 4
        + (4 + 12 * spec.writeset.updates.len())
        + (4 + 4 * spec.participants.len())
        + 1
        + match spec.parent {
            None => 1,
            Some(_) => 5,
        }
}

/// A checkpoint's flat item versions cut into per-item chains, the unit
/// the on-disk layout counts: one count-prefixed chain per item.
fn item_chains(
    items: &[(ItemId, Version, i64)],
) -> impl Iterator<Item = &[(ItemId, Version, i64)]> {
    items.chunk_by(|a, b| a.0 == b.0)
}

/// How many chains [`item_chains`] cuts `items` into, counted without
/// cutting them.
fn chain_count(items: &[(ItemId, Version, i64)]) -> usize {
    let breaks = items.windows(2).filter(|w| w[0].0 != w[1].0).count();
    usize::from(!items.is_empty()) + breaks
}

impl WalCodec for LogRecord {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            LogRecord::CoordinatorStart { spec } => {
                put_u8(buf, TAG_COORDINATOR_START);
                put_spec(buf, spec);
            }
            LogRecord::Voted { spec } => {
                put_u8(buf, TAG_VOTED);
                put_spec(buf, spec);
            }
            LogRecord::VotedNo { txn } => {
                put_u8(buf, TAG_VOTED_NO);
                put_u64(buf, txn.0);
            }
            LogRecord::PreCommit {
                txn,
                commit_version,
            } => {
                put_u8(buf, TAG_PRE_COMMIT);
                put_u64(buf, txn.0);
                put_u64(buf, commit_version.0);
            }
            LogRecord::PreAbort { txn } => {
                put_u8(buf, TAG_PRE_ABORT);
                put_u64(buf, txn.0);
            }
            LogRecord::Decided {
                txn,
                decision,
                commit_version,
            } => {
                put_u8(buf, TAG_DECIDED);
                put_u64(buf, txn.0);
                put_decision(buf, *decision);
                put_opt_version(buf, *commit_version);
            }
            LogRecord::XStart { txn, branches } => {
                put_u8(buf, TAG_X_START);
                put_u64(buf, txn.0);
                put_u32(buf, branches.len() as u32);
                for b in branches {
                    put_spec(buf, b);
                }
            }
            LogRecord::XDecision {
                txn,
                decision,
                branch_versions,
            } => {
                put_u8(buf, TAG_X_DECISION);
                put_u64(buf, txn.0);
                put_decision(buf, *decision);
                put_u32(buf, branch_versions.len() as u32);
                for (site, v) in branch_versions {
                    put_u32(buf, site.0);
                    put_opt_version(buf, *v);
                }
            }
            LogRecord::PaxosPromise { txn, bal } => {
                put_u8(buf, TAG_PAXOS_PROMISE);
                put_u64(buf, txn.0);
                put_u64(buf, *bal);
            }
            LogRecord::PaxosAccept { txn, bal, votes } => {
                put_u8(buf, TAG_PAXOS_ACCEPT);
                put_u64(buf, txn.0);
                put_u64(buf, *bal);
                put_u32(buf, votes.len() as u32);
                for (site, prepared, v) in votes {
                    put_u32(buf, site.0);
                    put_u8(buf, *prepared as u8);
                    put_u64(buf, v.0);
                }
            }
            LogRecord::Checkpoint {
                retired,
                xretired,
                items,
            } => {
                // The two large sections — the site's retired outcomes
                // and every copy it holds — are written one fixed-size
                // block per entry, each grown into the buffer once. The
                // in-memory log reserves the record's exact size from
                // `encoded_len` first, so none of this reallocates there.
                put_u8(buf, TAG_CHECKPOINT);
                put_u32(buf, retired.len() as u32);
                for r in retired {
                    let mut out = [0; 18];
                    out[..8].copy_from_slice(&r.txn.0.to_le_bytes());
                    out[8] = matches!(r.decision, Decision::Abort) as u8;
                    // Two fixed lengths, each copied without a call.
                    match r.commit_version {
                        None => buf.extend_from_slice(&out[..10]),
                        Some(v) => {
                            out[9] = 1;
                            out[10..].copy_from_slice(&v.0.to_le_bytes());
                            buf.extend_from_slice(&out);
                        }
                    }
                }
                put_u32(buf, xretired.len() as u32);
                for x in xretired {
                    put_u64(buf, x.txn.0);
                    put_decision(buf, x.decision);
                    put_u32(buf, x.branches.len() as u32);
                    for (coord, participants, v) in &x.branches {
                        put_u32(buf, coord.0);
                        put_u32(buf, participants.len() as u32);
                        for p in participants {
                            put_u32(buf, p.0);
                        }
                        put_opt_version(buf, *v);
                    }
                }
                // One pass over the items, the chain count patched in
                // at the end.
                let count_at = buf.len();
                put_u32(buf, 0);
                let mut chains = 0u32;
                for chain in item_chains(items) {
                    chains += 1;
                    let mut head = [0; 8];
                    head[..4].copy_from_slice(&chain[0].0 .0.to_le_bytes());
                    head[4..].copy_from_slice(&(chain.len() as u32).to_le_bytes());
                    buf.extend_from_slice(&head);
                    for &(_, version, value) in chain {
                        let mut entry = [0; 16];
                        entry[..8].copy_from_slice(&version.0.to_le_bytes());
                        entry[8..].copy_from_slice(&value.to_le_bytes());
                        buf.extend_from_slice(&entry);
                    }
                }
                buf[count_at..count_at + 4].copy_from_slice(&chains.to_le_bytes());
            }
        }
    }

    /// Pinned against [`WalCodec::encode_into`] by the roundtrip tests.
    fn encoded_len(&self) -> usize {
        1 + match self {
            LogRecord::CoordinatorStart { spec } | LogRecord::Voted { spec } => spec_len(spec),
            LogRecord::VotedNo { .. } | LogRecord::PreAbort { .. } => 8,
            LogRecord::PreCommit { .. } => 16,
            LogRecord::Decided { commit_version, .. } => 9 + opt_version_len(*commit_version),
            LogRecord::XStart { branches, .. } => {
                12 + branches.iter().map(|b| spec_len(b)).sum::<usize>()
            }
            LogRecord::XDecision {
                branch_versions, ..
            } => {
                13 + branch_versions
                    .iter()
                    .map(|(_, v)| 4 + opt_version_len(*v))
                    .sum::<usize>()
            }
            LogRecord::PaxosPromise { .. } => 16,
            LogRecord::PaxosAccept { votes, .. } => 20 + 13 * votes.len(),
            LogRecord::Checkpoint {
                retired,
                xretired,
                items,
            } => {
                (4 + retired
                    .iter()
                    .map(|r| 9 + opt_version_len(r.commit_version))
                    .sum::<usize>())
                    + (4 + xretired
                        .iter()
                        .map(|x| {
                            13 + x
                                .branches
                                .iter()
                                .map(|(_, ps, v)| 8 + 4 * ps.len() + opt_version_len(*v))
                                .sum::<usize>()
                        })
                        .sum::<usize>())
                    + (4 + 8 * chain_count(items) + 16 * items.len())
            }
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut d = Dec::new(bytes);
        let rec = match d.u8()? {
            TAG_COORDINATOR_START => LogRecord::CoordinatorStart {
                spec: get_spec(&mut d)?,
            },
            TAG_VOTED => LogRecord::Voted {
                spec: get_spec(&mut d)?,
            },
            TAG_VOTED_NO => LogRecord::VotedNo {
                txn: TxnId(d.u64()?),
            },
            TAG_PRE_COMMIT => LogRecord::PreCommit {
                txn: TxnId(d.u64()?),
                commit_version: Version(d.u64()?),
            },
            TAG_PRE_ABORT => LogRecord::PreAbort {
                txn: TxnId(d.u64()?),
            },
            TAG_DECIDED => LogRecord::Decided {
                txn: TxnId(d.u64()?),
                decision: get_decision(&mut d)?,
                commit_version: get_opt_version(&mut d)?,
            },
            TAG_X_START => {
                let txn = TxnId(d.u64()?);
                let n = d.u32()?;
                let mut branches = Vec::with_capacity(cap(n, &d));
                for _ in 0..n {
                    branches.push(get_spec(&mut d)?);
                }
                LogRecord::XStart { txn, branches }
            }
            TAG_X_DECISION => {
                let txn = TxnId(d.u64()?);
                let decision = get_decision(&mut d)?;
                let n = d.u32()?;
                let mut branch_versions = Vec::with_capacity(cap(n, &d));
                for _ in 0..n {
                    let site = SiteId(d.u32()?);
                    let v = get_opt_version(&mut d)?;
                    branch_versions.push((site, v));
                }
                LogRecord::XDecision {
                    txn,
                    decision,
                    branch_versions,
                }
            }
            TAG_PAXOS_PROMISE => LogRecord::PaxosPromise {
                txn: TxnId(d.u64()?),
                bal: d.u64()?,
            },
            TAG_PAXOS_ACCEPT => {
                let txn = TxnId(d.u64()?);
                let bal = d.u64()?;
                let n = d.u32()?;
                let mut votes = Vec::with_capacity(cap(n, &d));
                for _ in 0..n {
                    let site = SiteId(d.u32()?);
                    let prepared = match d.u8()? {
                        0 => false,
                        1 => true,
                        _ => return None,
                    };
                    let v = Version(d.u64()?);
                    votes.push((site, prepared, v));
                }
                LogRecord::PaxosAccept { txn, bal, votes }
            }
            TAG_CHECKPOINT => {
                let n = d.u32()?;
                let mut retired = Vec::with_capacity(cap(n, &d));
                for _ in 0..n {
                    retired.push(RetiredOutcome {
                        txn: TxnId(d.u64()?),
                        decision: get_decision(&mut d)?,
                        commit_version: get_opt_version(&mut d)?,
                    });
                }
                let n = d.u32()?;
                let mut xretired = Vec::with_capacity(cap(n, &d));
                for _ in 0..n {
                    let txn = TxnId(d.u64()?);
                    let decision = get_decision(&mut d)?;
                    let bn = d.u32()?;
                    let mut branches = Vec::with_capacity(cap(bn, &d));
                    for _ in 0..bn {
                        let coord = SiteId(d.u32()?);
                        let pn = d.u32()?;
                        let mut participants = Vec::with_capacity(cap(pn, &d));
                        for _ in 0..pn {
                            participants.push(SiteId(d.u32()?));
                        }
                        let v = get_opt_version(&mut d)?;
                        branches.push((coord, participants, v));
                    }
                    xretired.push(XRetiredOutcome {
                        txn,
                        decision,
                        branches,
                    });
                }
                let n = d.u32()?;
                let mut items = Vec::with_capacity(cap(n, &d));
                for _ in 0..n {
                    let item = ItemId(d.u32()?);
                    for _ in 0..d.u32()? {
                        let version = Version(d.u64()?);
                        items.push((item, version, d.i64()?));
                    }
                }
                LogRecord::Checkpoint {
                    retired,
                    xretired,
                    items,
                }
            }
            _ => return None,
        };
        d.finished().then_some(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn spec(id: u64, parent: Option<SiteId>) -> Arc<TxnSpec> {
        Arc::new(TxnSpec {
            id: TxnId(id),
            coordinator: SiteId(3),
            writeset: WriteSet::new([(ItemId(1), -7), (ItemId(9), i64::MAX)]),
            participants: BTreeSet::from([SiteId(0), SiteId(3), SiteId(5)]),
            protocol: ProtocolKind::QuorumCommit2,
            parent,
        })
    }

    fn roundtrip(rec: LogRecord) {
        let mut buf = Vec::new();
        rec.encode_into(&mut buf);
        let back = LogRecord::decode(&buf).expect("decodes");
        assert_eq!(back, rec);
        // The arithmetic size mirror must agree with the encoder
        // exactly (the in-memory log sizes a record's chunk from it).
        assert_eq!(rec.encoded_len(), buf.len(), "encoded_len for {rec:?}");
        // Truncated payloads must never decode.
        for cut in 0..buf.len() {
            assert_eq!(LogRecord::decode(&buf[..cut]), None, "cut at {cut}");
        }
    }

    #[test]
    fn every_variant_roundtrips() {
        roundtrip(LogRecord::CoordinatorStart {
            spec: spec(1, None),
        });
        roundtrip(LogRecord::Voted {
            spec: spec(2, Some(SiteId(11))),
        });
        roundtrip(LogRecord::VotedNo { txn: TxnId(3) });
        roundtrip(LogRecord::PreCommit {
            txn: TxnId(4),
            commit_version: Version(17),
        });
        roundtrip(LogRecord::PreAbort { txn: TxnId(5) });
        roundtrip(LogRecord::Decided {
            txn: TxnId(6),
            decision: Decision::Commit,
            commit_version: Some(Version(2)),
        });
        roundtrip(LogRecord::Decided {
            txn: TxnId(7),
            decision: Decision::Abort,
            commit_version: None,
        });
        roundtrip(LogRecord::XStart {
            txn: TxnId(8),
            branches: vec![spec(8, Some(SiteId(0))), spec(8, Some(SiteId(0)))],
        });
        roundtrip(LogRecord::XDecision {
            txn: TxnId(9),
            decision: Decision::Commit,
            branch_versions: vec![(SiteId(1), Some(Version(4))), (SiteId(6), None)],
        });
        roundtrip(LogRecord::Checkpoint {
            retired: vec![
                RetiredOutcome {
                    txn: TxnId(10),
                    decision: Decision::Commit,
                    commit_version: Some(Version(3)),
                },
                RetiredOutcome {
                    txn: TxnId(11),
                    decision: Decision::Abort,
                    commit_version: None,
                },
            ],
            xretired: vec![XRetiredOutcome {
                txn: TxnId(12),
                decision: Decision::Commit,
                branches: vec![
                    (SiteId(0), vec![SiteId(0), SiteId(1)], Some(Version(5))),
                    (SiteId(4), vec![], None),
                ],
            }],
            items: vec![
                (ItemId(0), Version(0), 0),
                (ItemId(7), Version(10), 4),
                (ItemId(7), Version(12), -3),
            ],
        });
        roundtrip(LogRecord::Checkpoint {
            retired: vec![],
            xretired: vec![],
            items: vec![],
        });
        roundtrip(LogRecord::PaxosPromise {
            txn: TxnId(13),
            bal: u64::MAX,
        });
        roundtrip(LogRecord::PaxosAccept {
            txn: TxnId(14),
            bal: 0x10005,
            votes: vec![
                (SiteId(0), true, Version(3)),
                (SiteId(2), false, Version(0)),
            ],
        });
        roundtrip(LogRecord::PaxosAccept {
            txn: TxnId(15),
            bal: 0,
            votes: vec![],
        });
    }

    #[test]
    fn unknown_tag_and_trailing_garbage_are_rejected() {
        assert_eq!(LogRecord::decode(&[250]), None);
        let mut buf = Vec::new();
        LogRecord::VotedNo { txn: TxnId(1) }.encode_into(&mut buf);
        buf.push(0);
        assert_eq!(LogRecord::decode(&buf), None, "trailing byte");
    }

    #[test]
    fn huge_count_fields_fail_without_allocating() {
        // A skewed/crafted count (u32::MAX branches) must return None
        // when the elements run out — never reserve gigabytes first.
        let mut buf = vec![6]; // XStart tag
        buf.extend_from_slice(&7u64.to_le_bytes()); // txn
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // branch count
        assert_eq!(LogRecord::decode(&buf), None);
        let mut buf = vec![8]; // Checkpoint tag
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // retired count
        assert_eq!(LogRecord::decode(&buf), None);
    }

    #[test]
    fn wire_layout_is_pinned() {
        // A byte-level pin so accidental layout changes (which would
        // break reopening existing logs) fail loudly.
        let mut buf = Vec::new();
        LogRecord::PreCommit {
            txn: TxnId(0x0102),
            commit_version: Version(5),
        }
        .encode_into(&mut buf);
        assert_eq!(
            buf,
            vec![3, 0x02, 0x01, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0]
        );
    }

    #[test]
    fn checkpoint_layout_is_pinned() {
        // The flat item list goes to disk grouped per item: a count of
        // chains, then per chain its item, length and entries — the
        // layout every existing segment holds.
        let rec = LogRecord::Checkpoint {
            retired: vec![RetiredOutcome {
                txn: TxnId(0x0102),
                decision: Decision::Commit,
                commit_version: Some(Version(3)),
            }],
            xretired: vec![],
            items: vec![
                (ItemId(1), Version(0), 7),
                (ItemId(2), Version(4), -1),
                (ItemId(2), Version(5), 16),
                (ItemId(2), Version(6), 2),
            ],
        };
        #[rustfmt::skip]
        let pinned: Vec<u8> = vec![
            8, // Checkpoint tag
            1, 0, 0, 0, // one retired outcome:
            2, 1, 0, 0, 0, 0, 0, 0, // txn
            0, // commit
            1, 3, 0, 0, 0, 0, 0, 0, 0, // Some(version 3)
            0, 0, 0, 0, // no cross-shard outcomes
            2, 0, 0, 0, // two item chains:
            1, 0, 0, 0, 1, 0, 0, 0, // item 1, one version
            0, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0,
            2, 0, 0, 0, 3, 0, 0, 0, // item 2, three versions
            4, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
            5, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 0,
            6, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0,
        ];
        let mut buf = Vec::new();
        rec.encode_into(&mut buf);
        assert_eq!(buf, pinned);
        assert_eq!(rec.encoded_len(), pinned.len());
        assert_eq!(LogRecord::decode(&pinned), Some(rec));
    }
}
