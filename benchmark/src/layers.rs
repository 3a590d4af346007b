//! Layer drives: direct single-threaded calls into each crate's public
//! functions, wrapped in benchmark-owned spans, inputs from the seed.
//! Each `*_ns` is the median over batches of (batch span ÷ calls); the
//! drive's own span holds the set-up as self time, outside the figure.
//!
//! The budget multiplies each figure by how often one committed
//! single-item QC2 transaction pays it and compares the sum with the
//! worker's measured CPU per commit.

use crate::bench::{metric, Metric};
use crate::load::Conn;
use crate::pass;
use crate::schedule::{Op, Rng};
use crate::spans::Recorder;
use crate::stats::median_f64;
use crate::workload::{self, Switches};
use qbc_cluster::{ShardId, ShardMap, SimCluster};
use qbc_core::{
    Action, CommitEngine, Coordinator, Decision, EngineCtx, LogRecord, Msg, Participant,
    ParticipantConfig, PaxosAcceptor, PaxosLeader, ProtocolKind, TxnId, TxnSpec, WriteSet,
};
use qbc_db::{NetMsg, NodeConfig, SiteNode};
use qbc_locks::{LockManager, LockMode};
use qbc_obs::LatencyHistogram;
use qbc_reactor::{FrameReader, FrameWriter, Reply, Request};
use qbc_simnet::{Duration, NodeDriver, SiteId, Time};
use qbc_storage::{FileWal, FileWalConfig, TempDir, VersionedStore, Wal, WalBackend};
use qbc_votes::{Catalog, ItemId, Version};
use std::collections::{BTreeSet, VecDeque};
use std::hint::black_box;
use std::io;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Instant;

const BATCHES: usize = 15;
/// Copies (and so participants) of a single-item write in the shape
/// every workload but `coord-kill` runs.
const COPIES: f64 = 3.0;

/// `batches` child spans of `ops` calls each; the median ns per call.
fn per_call_ns(
    rec: &mut Recorder,
    name: &str,
    batches: usize,
    ops: usize,
    mut call: impl FnMut(usize),
) -> f64 {
    let mut per_call = Vec::with_capacity(batches);
    for b in 0..batches {
        let started = Instant::now();
        rec.span(&format!("{name}#{b}"), |_| {
            for i in 0..ops {
                call(b * ops + i);
            }
        });
        per_call.push(started.elapsed().as_nanos() as f64 / ops as f64);
    }
    median_f64(&per_call)
}

pub fn drive_all(
    rec: &mut Recorder,
    seed: u64,
    cpu_us_per_commit: f64,
    forces_per_commit: f64,
) -> io::Result<Vec<Metric>> {
    let mut rng = Rng::new(seed);
    let mut m = Vec::new();

    // --- reactor: wire codec and framing ------------------------------
    let items: Vec<u32> = (0..1024).map(|_| rng.below(32_768)).collect();
    let mut buf = Vec::with_capacity(64);
    let encode = rec.span("reactor.wire_encode_ns", |rec| {
        per_call_ns(rec, "encode", BATCHES, 2_000, |i| {
            buf.clear();
            request(i, &items).encode_into(&mut buf);
            reply(i).encode_into(&mut buf);
            black_box(&buf);
        })
    });
    let decode = rec.span("reactor.wire_decode_ns", |rec| {
        let (mut req, mut rep) = (Vec::new(), Vec::new());
        request(7, &items).encode_into(&mut req);
        reply(7).encode_into(&mut rep);
        per_call_ns(rec, "decode", BATCHES, 2_000, |_| {
            black_box(Request::decode(black_box(&req)));
            black_box(Reply::decode(black_box(&rep)));
        })
    });
    let frame = rec.span("reactor.frame_roundtrip_ns", |rec| -> io::Result<f64> {
        let (a, b) = UnixStream::pair()?;
        a.set_nonblocking(true)?;
        b.set_nonblocking(true)?;
        let (mut writer, mut reader) = (FrameWriter::new(), FrameReader::new());
        let mut payload = Vec::new();
        request(7, &items).encode_into(&mut payload);
        let mut failed = None;
        let ns = per_call_ns(rec, "frame", BATCHES, 500, |_| {
            writer.push(&payload);
            let sent = writer.flush(&a);
            let got = reader
                .fill(&b)
                .and_then(|_| reader.next_frame().map(|f| f.map(<[u8]>::len)));
            if !matches!((sent, got), (Ok(true), Ok(Some(_)))) {
                failed = Some("frame did not cross the socketpair in one step");
            }
        });
        failed.map_or(Ok(ns), |e| Err(io::Error::other(e)))
    })?;
    m.push(metric("reactor.wire_encode_ns", encode, "ns"));
    m.push(metric("reactor.wire_decode_ns", decode, "ns"));
    m.push(metric("reactor.frame_roundtrip_ns", frame, "ns"));

    // --- the unloaded floor: window-1 loops on idle clusters -----------
    let commit_rtt = rec.span("db.commit_rtt_us_p50", |rec| {
        let spec = workload::by_name("mem-open").expect("workload");
        let (mut live, _) = pass::setup(&spec, spec.cluster(seed, None, Switches::default()))?;
        let rtt = rtt_p50_us(rec, &mut live.conn, 300, |i| Op::Write1(items[i % 1024]));
        drop(live.conn);
        live.cluster.shutdown();
        rtt
    })?;
    let snapread_rtt = rec.span("reactor.snapread_rtt_us_p50", |rec| {
        let spec = workload::by_name("read-mix").expect("workload");
        let (mut live, _) = pass::setup(&spec, spec.cluster(seed, None, Switches::default()))?;
        let rtt = rtt_p50_us(rec, &mut live.conn, 300, |i| Op::Read(items[i % 1024]));
        drop(live.conn);
        live.cluster.shutdown();
        rtt
    })?;
    m.push(metric("db.commit_rtt_us_p50", commit_rtt, "us"));
    m.push(metric("reactor.snapread_rtt_us_p50", snapread_rtt, "us"));

    // --- core: one full commit through the sans-IO engines -------------
    let map = ShardMap::new(&workload::by_name("mem-open").expect("workload").cluster(
        seed,
        None,
        Switches::default(),
    ));
    let catalog = map.catalog(ShardId(0));
    let mut engine_ns = [0.0; 3];
    let mut qc2_actions = 0usize;
    for (k, (label, protocol)) in [
        ("qc2", ProtocolKind::QuorumCommit2),
        ("2pc", ProtocolKind::TwoPhase),
        ("paxos", ProtocolKind::PaxosCommit),
    ]
    .into_iter()
    .enumerate()
    {
        let name = format!("core.engine_commit_ns.{label}");
        engine_ns[k] = rec.span(&name, |rec| {
            per_call_ns(rec, label, BATCHES, 200, |i| {
                let actions =
                    engine_commit(catalog, protocol, i as u64 + 1, items[i % 1024] % 16_384);
                if protocol == ProtocolKind::QuorumCommit2 {
                    qc2_actions = actions;
                }
            })
        });
        m.push(metric(&name, engine_ns[k], "ns"));
    }
    m.push(metric(
        "core.engine_actions_per_commit.qc2",
        qc2_actions as f64,
        "count",
    ));

    // --- locks ----------------------------------------------------------
    let locks = rec.span("locks.acquire_release_ns", |rec| {
        let mut lm: LockManager<ItemId, TxnId> = LockManager::new();
        per_call_ns(rec, "locks", BATCHES, 5_000, |i| {
            let txn = TxnId(i as u64);
            black_box(lm.acquire(txn, ItemId(items[i % 1024]), LockMode::Exclusive));
            black_box(lm.release_all(&txn));
        })
    });
    m.push(metric("locks.acquire_release_ns", locks, "ns"));

    // --- storage --------------------------------------------------------
    let record = |i: usize| LogRecord::Decided {
        txn: TxnId(i as u64),
        decision: Decision::Commit,
        commit_version: Some(Version(i as u64)),
    };
    let mem_force = rec.span("storage.mem_buffer_force_ns", |rec| {
        let mut wal: Wal<LogRecord> = Wal::new();
        per_call_ns(rec, "mem", BATCHES, 5_000, |i| {
            WalBackend::buffer(&mut wal, record(i));
            black_box(WalBackend::force(&mut wal));
        })
    });
    let dir = TempDir::new("drive");
    let mut file_wal: FileWal<LogRecord> =
        FileWal::open(FileWalConfig::new(dir.path())).map_err(io::Error::other)?;
    let file_buffer = rec.span("storage.file_buffer_ns", |rec| -> io::Result<f64> {
        let ns = per_call_ns(rec, "file_buffer", BATCHES, 64, |i| {
            black_box(file_wal.buffer(record(i)));
        });
        // One force for everything staged, outside the batch spans.
        file_wal.try_force().map_err(io::Error::other)?;
        Ok(ns)
    })?;
    let mut force_p50 = |rec: &mut Recorder, name: &str, batch: usize, forces: usize| {
        rec.span(name, |rec| -> io::Result<f64> {
            let mut us = Vec::with_capacity(forces);
            for f in 0..forces {
                for i in 0..batch {
                    file_wal.buffer(record(f * batch + i));
                }
                let started = Instant::now();
                rec.span("force", |_| file_wal.try_force())
                    .map_err(io::Error::other)?;
                us.push(started.elapsed().as_nanos() as f64 / 1e3);
            }
            Ok(median_f64(&us))
        })
    };
    let force_b1 = force_p50(rec, "storage.file_force_us_p50.b1", 1, 40)?;
    let force_b64 = force_p50(rec, "storage.file_force_us_p50.b64", 64, 20)?;
    let store_apply = rec.span("storage.store_apply_ns", |rec| {
        let mut store: VersionedStore<i64> = VersionedStore::new();
        for &item in &items {
            store.initialize(ItemId(item), 0);
        }
        per_call_ns(rec, "apply", BATCHES, 5_000, |i| {
            let _ =
                black_box(store.apply(ItemId(items[i % 1024]), Version(i as u64 + 1), i as i64));
        })
    });
    m.push(metric("storage.mem_buffer_force_ns", mem_force, "ns"));
    m.push(metric("storage.file_buffer_ns", file_buffer, "ns"));
    m.push(metric("storage.file_force_us_p50.b1", force_b1, "us"));
    m.push(metric("storage.file_force_us_p50.b64", force_b64, "us"));
    m.push(metric("storage.store_apply_ns", store_apply, "ns"));

    // --- votes, cluster planning, obs ------------------------------------
    let quorum = rec.span("votes.quorum_check_ns", |rec| {
        let two: BTreeSet<SiteId> = [SiteId(0), SiteId(2)].into();
        per_call_ns(rec, "quorum", BATCHES, 20_000, |i| {
            let spec = catalog.expect_item(ItemId(items[i % 1024] % 16_384));
            black_box(spec.write_quorum_among(black_box(&two)));
        })
    });
    let plan = rec.span("cluster.plan_split_ns", |rec| {
        per_call_ns(rec, "plan", BATCHES, 1_000, |i| {
            let k = items[i % 1024] % 16_384;
            let ws = WriteSet::new([(ItemId(k), 1), (ItemId(16_384 + k), 1)]);
            let split = map.split_writeset(&ws);
            let (home, _) = split[0];
            black_box(map.xtxn_branches(
                TxnId(i as u64),
                ProtocolKind::QuorumCommit2,
                SiteId(0),
                home,
                split,
                |s| map.coordinator(s, i as u64),
            ));
        })
    });
    let hist = rec.span("obs.hist_record_ns", |rec| {
        let mut h = LatencyHistogram::new();
        let ns = per_call_ns(rec, "hist", BATCHES, 50_000, |i| {
            h.record(Duration(i as u64 & 0xFFFF))
        });
        black_box(h.count());
        ns
    });
    m.push(metric("votes.quorum_check_ns", quorum, "ns"));
    m.push(metric("cluster.plan_split_ns", plan, "ns"));
    m.push(metric("obs.hist_record_ns", hist, "ns"));

    // --- db: node + engine + locks + mem WAL, no sockets, no wake-ups ----
    let (sim_commit, sim_events) = rec.span("db.sim_commit_ns", |rec| {
        let spec = workload::by_name("mem-open").expect("workload");
        let mut sim = SimCluster::new(spec.cluster(seed, None, Switches::default()));
        let (mut next, mut at) = (0u64, 0u64);
        let events0 = sim.sim().events_processed();
        const PER_BATCH: u64 = 1_000;
        let ns = per_call_ns(rec, "sim", 5, 1, |_| {
            for _ in 0..PER_BATCH {
                at += 1;
                let item = crate::schedule::walk_item(next, 0, spec.items_per_shard);
                sim.submit_at(Time(at), WriteSet::new([(ItemId(item), next as i64)]));
                next += 1;
            }
            // Past the last arrival by more than a commit takes.
            at += 500;
            sim.run_until(Time(at));
        }) / PER_BATCH as f64;
        let committed = sim
            .handles()
            .iter()
            .filter(|h| sim.decision(h) == Some(Decision::Commit))
            .count()
            .max(1);
        let events = (sim.sim().events_processed() - events0) as f64 / committed as f64;
        (ns, events)
    });
    m.push(metric("db.sim_commit_ns", sim_commit, "ns"));
    m.push(metric("db.sim_events_per_commit", sim_events, "count"));
    let node_commit = rec.span("db.node_commit_ns", |rec| node_commit_ns(rec, &map, seed));
    m.push(metric("db.node_commit_ns", node_commit, "ns"));

    // --- the budget -------------------------------------------------------
    let reactor_us = ((encode + decode) / 2.0 + frame) / 1e3;
    let core_us = engine_ns[0] / 1e3;
    let locks_us = COPIES * locks / 1e3;
    let storage_us = (forces_per_commit * mem_force + COPIES * store_apply) / 1e3;
    let cluster_us = plan / 1e3;
    // The simulator pays an event heap per message that the reactor
    // does not, so the node figure comes from the bare drivers.
    let db_us = (node_commit / 1e3 - core_us - locks_us - storage_us).max(0.0);
    let attributed = reactor_us + core_us + locks_us + storage_us + cluster_us + db_us;
    m.push(metric("budget.reactor_us_per_commit", reactor_us, "us"));
    m.push(metric("budget.db_us_per_commit", db_us, "us"));
    m.push(metric("budget.core_us_per_commit", core_us, "us"));
    m.push(metric("budget.locks_us_per_commit", locks_us, "us"));
    m.push(metric("budget.storage_us_per_commit", storage_us, "us"));
    m.push(metric("budget.cluster_us_per_commit", cluster_us, "us"));
    m.push(metric(
        "budget.cpu_attributed_ratio",
        attributed / cpu_us_per_commit.max(1e-9),
        "ratio",
    ));
    m.push(metric(
        "budget.unattributed_us_per_commit",
        cpu_us_per_commit - attributed,
        "us",
    ));
    Ok(m)
}

fn request(i: usize, items: &[u32]) -> Request {
    Request::Submit {
        session: i as u64,
        writes: vec![(ItemId(items[i % items.len()]), i as i64)],
    }
}

fn reply(i: usize) -> Reply {
    Reply::Decided {
        session: i as u64,
        txn: TxnId(i as u64),
        decision: Decision::Commit,
        commit_version: Some(Version(i as u64)),
    }
}

/// Median round trip of `n` one-at-a-time requests, µs.
fn rtt_p50_us(
    rec: &mut Recorder,
    conn: &mut Conn,
    n: usize,
    op: impl Fn(usize) -> Op,
) -> io::Result<f64> {
    let mut us = Vec::with_capacity(n);
    rec.span("window-1", |_| {
        for i in 0..n {
            let started = Instant::now();
            conn.call(u64::MAX, op(i), i as i64)?;
            us.push(started.elapsed().as_nanos() as f64 / 1e3);
        }
        Ok::<_, io::Error>(())
    })?;
    Ok(median_f64(&us))
}

/// Shard 0's three `SiteNode`s under bare `NodeDriver`s, messages moved
/// by a queue the way the reactor worker's pump moves them: node
/// dispatch, engines, locks, in-memory WAL and apply — no sockets, no
/// poller, no front door. One tick (ms) passes per 45 transactions,
/// the pace of `mem-closed`, so housekeeping timers fire as they do
/// there.
fn node_commit_ns(rec: &mut Recorder, map: &ShardMap, seed: u64) -> f64 {
    let shard = ShardId(0);
    let sites = map.sites_of(shard);
    let client = SiteId(u32::MAX);
    let mut out: Vec<(SiteId, NetMsg)> = Vec::new();
    let mut inbox: VecDeque<(SiteId, SiteId, NetMsg)> = VecDeque::new();
    let mut decided = Vec::new();
    let mut drivers: Vec<NodeDriver<SiteNode>> = Vec::new();
    for &site in &sites {
        let mut nc = NodeConfig::new(site, map.catalog(shard).clone(), Duration(50));
        nc.retire_after = Some(Duration(1000));
        nc.retire_horizon = Some(Duration(4000));
        nc.checkpoint_interval = Some(Duration(2000));
        nc.decision_events = true;
        let driver = NodeDriver::new(
            site,
            SiteNode::new(nc, |_| 0),
            seed ^ site.0 as u64,
            Time(0),
            &mut out,
        );
        inbox.extend(out.drain(..).map(|(to, msg)| (site, to, msg)));
        drivers.push(driver);
    }
    let mut commits = 0u64;
    let ns = per_call_ns(rec, "node", BATCHES, 450, |i| {
        let now = Time(i as u64 / 45);
        if i % 45 == 0 {
            for (k, d) in drivers.iter_mut().enumerate() {
                d.tick(now, &mut out);
                inbox.extend(out.drain(..).map(|(to, msg)| (sites[k], to, msg)));
            }
        }
        let begin = NetMsg::BeginTxn {
            txn: TxnId(i as u64 + 1),
            writeset: WriteSet::new([(ItemId((i % 16_384) as u32), i as i64)]),
            protocol: ProtocolKind::QuorumCommit2,
        };
        inbox.push_back((client, sites[i % sites.len()], begin));
        while let Some((from, to, msg)) = inbox.pop_front() {
            let Some(k) = sites.iter().position(|&s| s == to) else {
                continue;
            };
            drivers[k].deliver(now, from, msg, &mut out);
            inbox.extend(out.drain(..).map(|(dest, msg)| (to, dest, msg)));
            drivers[k].node_mut().drain_decision_events(&mut decided);
            commits += decided
                .drain(..)
                .filter(|e| e.decision == Decision::Commit)
                .count() as u64;
        }
    });
    // Every site announces each commit once.
    assert_eq!(
        commits,
        (BATCHES * 450 * sites.len()) as u64,
        "node drive must commit everything"
    );
    ns
}

/// One single-item transaction through a coordinator (or Paxos leader)
/// and its participants to the last decision, every message delivered
/// in order. Returns how many actions the engines emitted.
fn engine_commit(catalog: &Catalog, protocol: ProtocolKind, txn: u64, item: u32) -> usize {
    let home = SiteId(0);
    let spec = Arc::new(TxnSpec::from_catalog(
        TxnId(txn),
        home,
        WriteSet::new([(ItemId(item), txn as i64)]),
        protocol,
        catalog,
    ));
    let ctx = EngineCtx {
        catalog,
        local_max_version: Version(0),
    };
    let mut leader: Box<dyn CommitEngine> = match protocol {
        ProtocolKind::PaxosCommit => Box::new(PaxosLeader::new(spec.clone())),
        _ => Box::new(Coordinator::new(spec.clone(), None)),
    };
    let sites: Vec<SiteId> = spec.participants.iter().copied().collect();
    let mut participants: Vec<Participant> = sites
        .iter()
        .map(|&s| Participant::new(s, TxnId(txn), ParticipantConfig::default()))
        .collect();
    let mut acceptors: Vec<PaxosAcceptor> = sites.iter().map(|_| PaxosAcceptor::new()).collect();

    // (from, to, message) in flight; actions of the step being applied.
    let mut wire: VecDeque<(SiteId, SiteId, Msg)> = VecDeque::new();
    let mut out: Vec<Action> = Vec::new();
    let mut actions = 0;
    leader.start(&mut out);
    let mut apply = |out: &mut Vec<Action>, me: SiteId, sender: SiteId, wire: &mut VecDeque<_>| {
        actions += out.len();
        for action in out.drain(..) {
            match action {
                Action::Reply(msg) => wire.push_back((me, sender, msg)),
                Action::Send(to, msg) => wire.push_back((me, to, msg)),
                Action::Broadcast(to, msg) => {
                    wire.extend(to.into_iter().map(|t| (me, t, msg.clone())))
                }
                // Logging, applying and timers are the node's job.
                _ => {}
            }
        }
    };
    apply(&mut out, home, home, &mut wire);
    while let Some((from, to, msg)) = wire.pop_front() {
        let at = sites.iter().position(|&s| s == to);
        match (&msg, at) {
            (Msg::Vote { .. } | Msg::PcAck { .. } | Msg::PaxosP2b { .. }, _) => {
                leader.on_msg(from, &msg, &ctx, &mut out)
            }
            (Msg::PaxosP2a { txn, bal, votes }, Some(k)) => {
                acceptors[k].on_p2a(*txn, *bal, votes, &mut out)
            }
            (_, Some(k)) => participants[k].on_msg(from, &msg, Version(0), &mut out),
            (_, None) => {}
        }
        apply(&mut out, to, from, &mut wire);
    }
    assert_eq!(
        leader.decision(),
        Some(Decision::Commit),
        "{protocol:?} drive must commit"
    );
    assert!(
        participants
            .iter()
            .all(|p| p.decision() == Some(Decision::Commit)),
        "{protocol:?}: every participant must learn the commit"
    );
    black_box(actions)
}
