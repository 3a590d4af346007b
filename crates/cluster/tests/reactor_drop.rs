//! A reactor cluster dropped without `shutdown()` — a caller bailing
//! out on an error — stops its threads and removes its socket.
//!
//! Counts the process's threads by name, so it has a binary of its
//! own: a neighbouring test's cluster would be counted with it.

use qbc_cluster::{ClusterConfig, Outcome, ReactorCluster, ReactorConfig};
use qbc_votes::ItemId;

/// Names of this process's live threads that the reactor started: its
/// workers (`qbc-reactor-<n>`) and the client's IO thread.
fn reactor_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list own threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .filter(|name| name.starts_with("qbc-reactor-"))
        .collect()
}

#[test]
fn a_dropped_cluster_joins_its_threads_and_removes_its_socket() {
    let cluster = ReactorCluster::spawn(
        ClusterConfig {
            items_per_shard: 64,
            ..Default::default()
        },
        ReactorConfig {
            workers: 2,
            ..Default::default()
        },
    );
    assert!(matches!(
        cluster.submit(vec![(ItemId(3), 7)]).wait(),
        Outcome::Committed { .. }
    ));
    let socket = cluster.socket().to_path_buf();
    assert!(socket.exists());
    assert_eq!(reactor_threads().len(), 3, "two workers and the client");

    drop(cluster);

    assert!(!socket.exists(), "{} left behind", socket.display());
    assert_eq!(reactor_threads(), Vec::<String>::new());
}
