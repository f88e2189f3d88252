//! Shared helpers for the SKV integration test suite.

use skv_core::cluster::Cluster;
use skv_core::histcheck::SharedHistory;

/// The bench history a run recorded, after checking that it can prove
/// something: at least 50 completed reads observed a written value, and
/// with `read_replica` set, the chosen slave executed at least one
/// command per such read — so a silent fallback to the front end fails
/// here instead of passing vacuously.
pub fn checked_history(cluster: &Cluster) -> SharedHistory {
    let history = cluster
        .bench_history
        .clone()
        .expect("history recording is on");
    let observed = history.borrow().observed_reads();
    assert!(
        observed >= 50,
        "only {observed} reads observed a written value; the history proves nothing"
    );
    if let Some(i) = cluster.spec.cfg.read_replica {
        let served = cluster.slave_server(i).stat_commands;
        assert!(
            served >= observed as u64,
            "slave {i} executed {served} commands for {observed} observed reads routed to it"
        );
    }
    history
}
