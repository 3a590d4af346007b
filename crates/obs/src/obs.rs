//! The bundled observer: one [`Obs`] instance per cluster consumes the
//! protocol event stream and maintains every derived view at once —
//! flight-recorder rings, phase timers, blocking-window accounting,
//! and the message/force counters of Gray & Lamport's comparison
//! table.

use crate::block::BlockingTracker;
use crate::event::{EventKind, TraceEvent, TraceSink};
use crate::flight::FlightRecorder;
use crate::hist::LatencyHistogram;
use crate::registry::Registry;
use qbc_core::{Decision, TxnId};
use qbc_simnet::{Duration, SiteId, Time};
use qbc_votes::Catalog;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Configuration of the observability layer. Off by default: with
/// `enabled = false` no [`Obs`] is constructed at all, so the
/// simulator's zero-allocation event loop and the golden digests are
/// untouched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch.
    pub enabled: bool,
    /// Events retained per site by the flight recorder.
    pub ring_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: false,
            ring_capacity: 256,
        }
    }
}

impl ObsConfig {
    /// The default configuration with the master switch on.
    pub fn on() -> Self {
        ObsConfig {
            enabled: true,
            ..Default::default()
        }
    }
}

/// Phase timestamps of one in-flight transaction, kept at the
/// coordinating site only.
#[derive(Clone, Copy, Debug, Default)]
struct PhaseTimes {
    coord: Option<SiteId>,
    submit: Option<Time>,
    vote_req: Option<Time>,
    prepare: Option<Time>,
    logged: Option<Time>,
}

/// Commit-latency decomposition histograms (committed transactions,
/// measured at the coordinating site).
#[derive(Clone, Debug, Default)]
pub struct PhaseHists {
    /// `VOTE-REQ` broadcast → first prepare (or decision force when the
    /// protocol has no prepare round): the vote-collection phase.
    pub vote: LatencyHistogram,
    /// Prepare broadcast → decision force: the prepare/ack phase.
    pub prepare: LatencyHistogram,
    /// Decision force → decision applied at the coordinator: the
    /// decision-distribution phase.
    pub decide: LatencyHistogram,
    /// Submission → decision applied: end-to-end commit latency.
    pub commit: LatencyHistogram,
}

#[derive(Debug, Default)]
struct Counters {
    events: u64,
    msgs_sent: u64,
    wal_forces: u64,
    wal_forced_records: u64,
    submitted: u64,
    committed: u64,
    aborted: u64,
    crashes: u64,
    recoveries: u64,
    elections: u64,
    termination_rounds: u64,
    paxos_recoveries: u64,
    blocked_declared: u64,
    outcome_discoveries: u64,
    snapshot_reads: u64,
    snapshot_reads_local: u64,
    snapshot_read_unavailable: u64,
    dumps: u64,
}

#[derive(Debug)]
struct Inner {
    flight: FlightRecorder,
    blocking: BlockingTracker,
    phases: BTreeMap<TxnId, PhaseTimes>,
    phase_hists: PhaseHists,
    counters: Counters,
    msgs_by_label: BTreeMap<&'static str, u64>,
    dumps: Vec<(String, String)>,
}

/// The observer. Shared (`Arc`) between every site of a cluster and,
/// on the reactor substrate, between worker threads; all state lives
/// behind one mutex, which is fine because instrumentation is
/// config-gated and off the simulator's hot path by default.
pub struct Obs {
    cfg: ObsConfig,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

/// How many stored dumps [`Obs`] retains (oldest evicted first).
const MAX_STORED_DUMPS: usize = 16;

impl Obs {
    /// Creates an observer with the given configuration.
    pub fn new(cfg: ObsConfig) -> Self {
        let ring = cfg.ring_capacity;
        Obs {
            cfg,
            inner: Mutex::new(Inner {
                flight: FlightRecorder::new(ring),
                blocking: BlockingTracker::default(),
                phases: BTreeMap::new(),
                phase_hists: PhaseHists::default(),
                counters: Counters::default(),
                msgs_by_label: BTreeMap::new(),
                dumps: Vec::new(),
            }),
        }
    }

    /// The configuration this observer runs with.
    pub fn config(&self) -> &ObsConfig {
        &self.cfg
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Survive a panic that unwound while the lock was held: the
        // flight recorder is most wanted exactly then.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Declares the replication shape of every item of `catalog` to
    /// the blocking tracker (called once per shard at cluster
    /// construction), under one lock; each item shares its placement
    /// with the catalog.
    pub fn register_catalog(&self, catalog: &Catalog) {
        let items = catalog.items();
        let shapes = items.map(|spec| (spec.id, Arc::clone(&spec.copies), spec.read_quorum));
        self.lock().blocking.register_items(shapes);
    }

    /// Counts one network message leaving a site (`label` is the wire
    /// name, e.g. `VOTE-REQ`).
    pub fn note_msg(&self, label: &'static str) {
        let mut g = self.lock();
        g.counters.msgs_sent += 1;
        *g.msgs_by_label.entry(label).or_insert(0) += 1;
    }

    /// Total messages sent cluster-wide.
    pub fn msgs_sent(&self) -> u64 {
        self.lock().counters.msgs_sent
    }

    /// Per-wire-label message counts.
    pub fn msgs_by_label(&self) -> BTreeMap<&'static str, u64> {
        self.lock().msgs_by_label.clone()
    }

    /// Total WAL forces observed.
    pub fn wal_forces(&self) -> u64 {
        self.lock().counters.wal_forces
    }

    /// Total snapshot reads answered, with the locally-served share:
    /// `(total, local)`.
    pub fn snapshot_reads(&self) -> (u64, u64) {
        let g = self.lock();
        (g.counters.snapshot_reads, g.counters.snapshot_reads_local)
    }

    /// Snapshot reads that exhausted every copy site without an answer.
    pub fn snapshot_read_unavailable(&self) -> u64 {
        self.lock().counters.snapshot_read_unavailable
    }

    /// Paxos Commit leader-failover candidacies started cluster-wide.
    pub fn paxos_recoveries(&self) -> u64 {
        self.lock().counters.paxos_recoveries
    }

    /// Commit-latency decomposition histograms.
    pub fn phase_hists(&self) -> PhaseHists {
        self.lock().phase_hists.clone()
    }

    /// Pin-time histogram: how long each copy stayed X-locked by an
    /// undecided transaction.
    pub fn pin_time(&self) -> LatencyHistogram {
        self.lock().blocking.pin_time.clone()
    }

    /// Blocked-window histogram: per site, declared-blocked → decided.
    pub fn blocked_window(&self) -> LatencyHistogram {
        self.lock().blocking.blocked_window.clone()
    }

    /// Total virtual time some item lacked a read quorum, up to `now`.
    pub fn unavailable_total(&self, now: Time) -> Duration {
        Duration(self.lock().blocking.unavailable_total(now))
    }

    /// Every event currently retained by the flight recorder, merged
    /// across sites in time order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().flight.events()
    }

    /// Renders and stores a flight-recorder dump.
    pub fn dump(&self, reason: &str) -> String {
        let mut g = self.lock();
        Self::dump_locked(&mut g, reason)
    }

    fn dump_locked(g: &mut Inner, reason: &str) -> String {
        let text = g.flight.dump(reason);
        g.counters.dumps += 1;
        if g.dumps.len() == MAX_STORED_DUMPS {
            g.dumps.remove(0);
        }
        g.dumps.push((reason.to_string(), text.clone()));
        text
    }

    /// Stored dumps as `(reason, text)`, oldest first.
    pub fn dumps(&self) -> Vec<(String, String)> {
        self.lock().dumps.clone()
    }

    /// Appends every observer metric to `r` (names prefixed `qbc_`,
    /// open windows measured to `now`).
    pub fn fill_registry(&self, now: Time, r: &mut Registry) {
        let g = self.lock();
        let c = &g.counters;
        r.counter(
            "qbc_obs_events_total",
            &[],
            "protocol trace events recorded",
            c.events,
        );
        for (label, n) in &g.msgs_by_label {
            r.counter(
                "qbc_msgs_sent_total",
                &[("msg", (*label).to_string())],
                "network messages sent, by wire label",
                *n,
            );
        }
        r.counter(
            "qbc_wal_forces_total",
            &[],
            "WAL forces observed",
            c.wal_forces,
        );
        r.counter(
            "qbc_wal_forced_records_total",
            &[],
            "records made durable by those forces",
            c.wal_forced_records,
        );
        r.counter(
            "qbc_txns_submitted_total",
            &[],
            "client submissions",
            c.submitted,
        );
        r.counter(
            "qbc_txns_committed_total",
            &[],
            "transactions committed (coordinator-site view)",
            c.committed,
        );
        r.counter(
            "qbc_txns_aborted_total",
            &[],
            "transactions aborted (coordinator-site view)",
            c.aborted,
        );
        r.counter("qbc_crashes_total", &[], "site crashes injected", c.crashes);
        r.counter(
            "qbc_recoveries_total",
            &[],
            "site recoveries completed",
            c.recoveries,
        );
        r.counter(
            "qbc_elections_total",
            &[],
            "termination elections started",
            c.elections,
        );
        r.counter(
            "qbc_termination_rounds_total",
            &[],
            "termination rounds started",
            c.termination_rounds,
        );
        r.counter(
            "qbc_paxos_recoveries_total",
            &[],
            "Paxos Commit leader-failover candidacies started",
            c.paxos_recoveries,
        );
        r.counter(
            "qbc_blocked_declared_total",
            &[],
            "blocked declarations by the termination protocol",
            c.blocked_declared,
        );
        r.counter(
            "qbc_outcome_discoveries_total",
            &[],
            "cross-shard outcome discovery requests sent",
            c.outcome_discoveries,
        );
        r.counter(
            "qbc_snapshot_reads_total",
            &[("served", "local".to_string())],
            "snapshot reads answered from the coordinator's own copy",
            c.snapshot_reads_local,
        );
        r.counter(
            "qbc_snapshot_reads_total",
            &[("served", "remote".to_string())],
            "snapshot reads answered by a remote copy site",
            c.snapshot_reads - c.snapshot_reads_local,
        );
        r.counter(
            "qbc_snapshot_read_unavailable_total",
            &[],
            "snapshot reads that exhausted every copy site",
            c.snapshot_read_unavailable,
        );
        r.counter(
            "qbc_flight_dumps_total",
            &[],
            "flight-recorder dumps taken",
            c.dumps,
        );
        r.counter(
            "qbc_read_unavailable_ticks_total",
            &[],
            "virtual time some item lacked a read quorum",
            g.blocking.unavailable_total(now),
        );
        r.counter(
            "qbc_read_unavailable_windows_total",
            &[],
            "read-unavailability windows opened",
            g.blocking.window_count(),
        );
        r.histogram(
            "qbc_pin_time_ticks",
            &[],
            "copy pin time: X-locked by an undecided transaction",
            &g.blocking.pin_time,
        );
        r.histogram(
            "qbc_blocked_window_ticks",
            &[],
            "declared-blocked to decided, per site",
            &g.blocking.blocked_window,
        );
        r.histogram(
            "qbc_phase_vote_ticks",
            &[],
            "vote-collection phase of committed transactions",
            &g.phase_hists.vote,
        );
        r.histogram(
            "qbc_phase_prepare_ticks",
            &[],
            "prepare/ack phase of committed transactions",
            &g.phase_hists.prepare,
        );
        r.histogram(
            "qbc_phase_decide_ticks",
            &[],
            "decision-distribution phase of committed transactions",
            &g.phase_hists.decide,
        );
        r.histogram(
            "qbc_commit_latency_ticks",
            &[],
            "submission to applied decision at the coordinator",
            &g.phase_hists.commit,
        );
    }

    fn handle(&self, ev: TraceEvent) {
        let mut g = self.lock();
        g.counters.events += 1;
        match ev.kind {
            EventKind::Submitted { .. } => {
                g.counters.submitted += 1;
                if let Some(txn) = ev.txn {
                    let p = g.phases.entry(txn).or_default();
                    p.coord.get_or_insert(ev.site);
                    p.submit.get_or_insert(ev.at);
                }
            }
            EventKind::VoteReqOut => {
                if let Some(txn) = ev.txn {
                    let p = g.phases.entry(txn).or_default();
                    if *p.coord.get_or_insert(ev.site) == ev.site {
                        p.vote_req.get_or_insert(ev.at);
                    }
                }
            }
            EventKind::PrepareOut { .. } => {
                if let Some(txn) = ev.txn {
                    if let Some(p) = g.phases.get_mut(&txn) {
                        if p.coord == Some(ev.site) {
                            p.prepare.get_or_insert(ev.at);
                        }
                    }
                }
            }
            EventKind::DecisionLogged { .. } => {
                if let Some(txn) = ev.txn {
                    if let Some(p) = g.phases.get_mut(&txn) {
                        if p.coord == Some(ev.site) {
                            p.logged.get_or_insert(ev.at);
                        }
                    }
                }
            }
            EventKind::DecisionApplied { decision } => {
                if let Some(txn) = ev.txn {
                    g.blocking.decided(ev.at, ev.site, txn);
                    if let Some(p) = g.phases.get(&txn).copied() {
                        if p.coord == Some(ev.site) {
                            g.phases.remove(&txn);
                            match decision {
                                Decision::Commit => g.counters.committed += 1,
                                Decision::Abort => g.counters.aborted += 1,
                            }
                            if decision == Decision::Commit {
                                let h = &mut g.phase_hists;
                                if let Some(vr) = p.vote_req {
                                    let end = p.prepare.or(p.logged).unwrap_or(ev.at);
                                    h.vote.record(end.since(vr));
                                }
                                if let (Some(pr), Some(lg)) = (p.prepare, p.logged) {
                                    h.prepare.record(lg.since(pr));
                                }
                                if let Some(lg) = p.logged {
                                    h.decide.record(ev.at.since(lg));
                                }
                                if let Some(sub) = p.submit {
                                    h.commit.record(ev.at.since(sub));
                                }
                            }
                        }
                    }
                }
            }
            EventKind::PinStart { item } => {
                if let Some(txn) = ev.txn {
                    g.blocking.pin_start(ev.at, ev.site, txn, item);
                }
            }
            EventKind::PinEnd { item } => {
                g.blocking.pin_end(ev.at, ev.site, item);
            }
            EventKind::Blocked => {
                g.counters.blocked_declared += 1;
                if let Some(txn) = ev.txn {
                    g.blocking.blocked(ev.at, ev.site, txn);
                }
            }
            EventKind::SnapshotRead { local, .. } => {
                g.counters.snapshot_reads += 1;
                if local {
                    g.counters.snapshot_reads_local += 1;
                }
            }
            EventKind::SnapshotReadUnavailable { .. } => {
                g.counters.snapshot_read_unavailable += 1;
            }
            EventKind::PaxosProposalOut { .. } => {
                // The 2a broadcast is this protocol's prepare boundary:
                // it starts the acceptor force-log round, so it feeds
                // the same phase decomposition as `PrepareOut`.
                if let Some(txn) = ev.txn {
                    if let Some(p) = g.phases.get_mut(&txn) {
                        if p.coord == Some(ev.site) {
                            p.prepare.get_or_insert(ev.at);
                        }
                    }
                }
            }
            EventKind::PaxosRecoveryOut { .. } => g.counters.paxos_recoveries += 1,
            EventKind::ElectionStarted => g.counters.elections += 1,
            EventKind::TerminationRound { .. } => g.counters.termination_rounds += 1,
            EventKind::OutcomeDiscoveryOut => g.counters.outcome_discoveries += 1,
            EventKind::WalForce { records } => {
                g.counters.wal_forces += 1;
                g.counters.wal_forced_records += records;
            }
            EventKind::Crash => {
                g.counters.crashes += 1;
                g.blocking.crash(ev.at, ev.site);
            }
            EventKind::Recover => {
                g.counters.recoveries += 1;
                g.blocking.recover(ev.at, ev.site);
            }
            _ => {}
        }
        g.flight.push(ev);
        if ev.kind == EventKind::Crash {
            let reason = format!("crash injected at site {} (t{})", ev.site.0, ev.at.0);
            let _ = Self::dump_locked(&mut g, &reason);
        }
    }
}

impl TraceSink for Obs {
    fn record(&self, ev: TraceEvent) {
        self.handle(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbc_core::ProtocolKind;
    use qbc_votes::{CatalogBuilder, ItemId};

    fn ev(at: u64, site: u32, txn: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            at: Time(at),
            site: SiteId(site),
            txn: Some(TxnId(txn)),
            kind,
        }
    }

    #[test]
    fn phase_decomposition_from_one_committed_timeline() {
        let obs = Obs::new(ObsConfig::on());
        obs.record(ev(
            0,
            0,
            1,
            EventKind::Submitted {
                protocol: ProtocolKind::QuorumCommit2,
            },
        ));
        obs.record(ev(1, 0, 1, EventKind::VoteReqOut));
        obs.record(ev(12, 0, 1, EventKind::PrepareOut { abort: false }));
        obs.record(ev(
            25,
            0,
            1,
            EventKind::DecisionLogged {
                decision: Decision::Commit,
            },
        ));
        obs.record(ev(
            30,
            0,
            1,
            EventKind::DecisionApplied {
                decision: Decision::Commit,
            },
        ));
        let h = obs.phase_hists();
        assert_eq!(h.vote.count(), 1);
        assert_eq!(h.vote.max(), Duration(11)); // 1 → 12
        assert_eq!(h.prepare.max(), Duration(13)); // 12 → 25
        assert_eq!(h.decide.max(), Duration(5)); // 25 → 30
        assert_eq!(h.commit.max(), Duration(30));
    }

    #[test]
    fn participant_decisions_do_not_pollute_coordinator_phases() {
        let obs = Obs::new(ObsConfig::on());
        obs.record(ev(
            0,
            0,
            1,
            EventKind::Submitted {
                protocol: ProtocolKind::TwoPhase,
            },
        ));
        obs.record(ev(1, 0, 1, EventKind::VoteReqOut));
        // Participant site 1 logs and applies first.
        obs.record(ev(
            8,
            1,
            1,
            EventKind::DecisionLogged {
                decision: Decision::Commit,
            },
        ));
        obs.record(ev(
            9,
            1,
            1,
            EventKind::DecisionApplied {
                decision: Decision::Commit,
            },
        ));
        obs.record(ev(
            10,
            0,
            1,
            EventKind::DecisionLogged {
                decision: Decision::Commit,
            },
        ));
        obs.record(ev(
            11,
            0,
            1,
            EventKind::DecisionApplied {
                decision: Decision::Commit,
            },
        ));
        let h = obs.phase_hists();
        assert_eq!(h.commit.count(), 1);
        assert_eq!(h.commit.max(), Duration(11)); // coordinator view, not t9
        assert_eq!(obs.msgs_sent(), 0);
    }

    #[test]
    fn crash_event_stores_a_dump_when_configured() {
        let obs = Obs::new(ObsConfig::on());
        obs.record(ev(5, 2, 1, EventKind::VoteOut { yes: true }));
        obs.record(TraceEvent {
            at: Time(9),
            site: SiteId(2),
            txn: None,
            kind: EventKind::Crash,
        });
        let dumps = obs.dumps();
        assert_eq!(dumps.len(), 1);
        assert!(
            dumps[0].0.contains("crash injected at site 2"),
            "{}",
            dumps[0].0
        );
        assert!(dumps[0].1.contains("vote-out"), "{}", dumps[0].1);
    }

    #[test]
    fn registry_snapshot_passes_its_own_validation() {
        let obs = Obs::new(ObsConfig::on());
        let catalog = CatalogBuilder::new()
            .item(ItemId(0))
            .copies_at([SiteId(0), SiteId(1)])
            .quorums(1, 2)
            .build()
            .unwrap();
        obs.register_catalog(&catalog);
        obs.note_msg("VOTE-REQ");
        obs.record(ev(
            0,
            0,
            1,
            EventKind::Submitted {
                protocol: ProtocolKind::TwoPhase,
            },
        ));
        obs.record(TraceEvent {
            at: Time(3),
            site: SiteId(0),
            txn: None,
            kind: EventKind::WalForce { records: 4 },
        });
        let mut r = Registry::new();
        obs.fill_registry(Time(10), &mut r); // panics on invalid names
        assert!(r.metrics().iter().any(|m| m.name == "qbc_msgs_sent_total"));
        let json = r.json();
        assert!(json.contains("\"qbc_wal_forces_total\""), "{json}");
        let prom = r.prometheus_text();
        assert!(
            prom.contains("qbc_msgs_sent_total{msg=\"VOTE-REQ\"} 1"),
            "{prom}"
        );
    }
}
