//! The seven workloads. Names are final: later issues cite them.

use qbc_cluster::{ClusterConfig, ObsConfig, ReactorConfig};
use qbc_core::ProtocolKind;
use qbc_simnet::Duration;
use std::path::Path;

pub const SITES_PER_SHARD: u32 = 3;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Wal {
    /// In-memory WAL, per-record force (free).
    Mem,
    /// File WAL under a fresh directory with group commit (1-tick
    /// window, batches of at most 64). Whether a force also waits for
    /// `fdatasync` is the pass's choice ([`Switches::fdatasync`]).
    Durable,
}

/// What one pass over a workload switches on.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Switches {
    /// File WALs `fdatasync` every force (`wal_fsync: true`): the
    /// durable workloads as the issue specifies them. On in every
    /// `--trace 1` pass; off in the `--trace 0` pass, whose numbers are
    /// gated — this box's device moves its own median force time more
    /// than twofold within minutes and no bound survives that (README).
    pub fdatasync: bool,
    /// The in-program observer (`ObsConfig`) on.
    pub observed: bool,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    /// Poisson arrivals at `rate` requests per second, timed from due.
    Open { rate: f64 },
    /// `window` sessions outstanding; the next is issued on a reply.
    Closed { window: usize },
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mix {
    /// Single-item writes walking distinct items over both shards.
    Writes,
    /// `read_share` snapshot reads of uniform-random items, the rest
    /// single-item writes.
    MostlyReads { read_share: f64 },
    /// Every writeset is slot k on shard 0 and slot k on shard 1, k
    /// log-uniform over the ranks (Zipf s ≈ 1).
    CrossShardHot,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub wal: Wal,
    pub load: Load,
    pub mix: Mix,
    pub items_per_shard: u32,
    pub replication: u32,
    /// Kill shard 0's first coordinator this far into the measured
    /// window (as a share of it; 3 s of 8 s).
    pub kill_at: Option<f64>,
    /// A session slower than this (or failed) misses the limit.
    pub slo_us: u64,
}

pub fn all() -> Vec<Spec> {
    let base = Spec {
        name: "",
        wal: Wal::Mem,
        load: Load::Open { rate: 4000.0 },
        mix: Mix::Writes,
        items_per_shard: 16_384,
        replication: 3,
        kill_at: None,
        slo_us: 1_000,
    };
    vec![
        Spec {
            name: "mem-open",
            ..base.clone()
        },
        Spec {
            name: "durable-open",
            wal: Wal::Durable,
            slo_us: 20_000,
            ..base.clone()
        },
        Spec {
            name: "mem-closed",
            load: Load::Closed { window: 128 },
            slo_us: 10_000,
            ..base.clone()
        },
        Spec {
            name: "durable-closed",
            wal: Wal::Durable,
            load: Load::Closed { window: 128 },
            slo_us: 40_000,
            ..base.clone()
        },
        Spec {
            name: "read-mix",
            load: Load::Open { rate: 8000.0 },
            mix: Mix::MostlyReads { read_share: 0.8 },
            ..base.clone()
        },
        Spec {
            name: "xshard-hot",
            wal: Wal::Durable,
            load: Load::Open { rate: 2000.0 },
            mix: Mix::CrossShardHot,
            items_per_shard: 256,
            slo_us: 40_000,
            ..base.clone()
        },
        Spec {
            name: "coord-kill",
            wal: Wal::Durable,
            replication: 2,
            kill_at: Some(0.375),
            slo_us: 40_000,
            ..base
        },
    ]
}

pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

impl Spec {
    pub fn snapshot_reads(&self) -> bool {
        matches!(self.mix, Mix::MostlyReads { .. })
    }

    /// The cluster under test. `wal_dir` is the root for durable
    /// workloads.
    pub fn cluster(&self, seed: u64, wal_dir: Option<&Path>, on: Switches) -> ClusterConfig {
        let mut cfg = ClusterConfig {
            shards: 2,
            sites_per_shard: SITES_PER_SHARD,
            replication: self.replication,
            items_per_shard: self.items_per_shard,
            read_quorum: 2,
            write_quorum: 2,
            protocol: ProtocolKind::QuorumCommit2,
            // Reactor ticks are milliseconds.
            t_bound: Duration(50),
            seed,
            ..ClusterConfig::default()
        }
        .with_retirement(Duration(1000))
        .with_retire_horizon(Duration(4000))
        .with_checkpoints(Duration(2000));
        if self.snapshot_reads() {
            cfg = cfg.with_snapshot_reads(4);
        }
        if self.wal == Wal::Durable {
            cfg = cfg
                .with_wal_dir(wal_dir.expect("durable workload needs a WAL dir"))
                .with_group_commit();
            cfg.wal_fsync = on.fdatasync;
            cfg.group_commit_window = Some(Duration(1));
            cfg.group_commit_max_batch = 64;
        }
        if on.observed {
            cfg = cfg.with_obs(ObsConfig::on());
        }
        cfg
    }
}

/// One worker, one pooled client connection (idle: the generator
/// brings its own socket), 500 ms front-door timeout.
pub fn reactor() -> ReactorConfig {
    ReactorConfig {
        workers: 1,
        client_conns: 1,
        txn_timeout_ms: 500,
        ..ReactorConfig::default()
    }
}
