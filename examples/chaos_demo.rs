//! The fault-injection substrate end to end: a lossy fabric where every
//! dropped message surfaces as an RDMA completion error, then a SmartNIC
//! SoC crash that forces the master into host-driven fan-out until the SoC
//! returns.
//!
//! ```text
//! cargo run --release -p skv-examples --bin chaos_demo
//! ```

use skv_core::cluster::{ChaosSpec, Cluster, RunSpec};
use skv_core::config::{ClusterConfig, Mode};
use skv_simcore::{SimDuration, SimTime};

fn spec(slaves: usize, clients: usize, measure_ms: u64, seed: u64) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(Mode::Skv);
    cfg.num_slaves = slaves;
    RunSpec {
        cfg,
        num_clients: clients,
        set_ratio: 1.0,
        warmup: SimDuration::from_millis(400),
        measure: SimDuration::from_millis(measure_ms),
        seed,
        ..Default::default()
    }
}

/// 1% of all messages vanish. Each loss is a completion-with-error that
/// moves its QP to the error state; clients and servers tear the channel
/// down and redial, and the replication layer resyncs any gap.
fn lossy_fabric_demo() {
    println!("== scenario 1: 1% message loss on every link ==");
    let mut cluster = Cluster::build(spec(3, 4, 6_000, 41));
    cluster.apply_chaos(&ChaosSpec {
        loss_prob: 0.01,
        seed: 41,
        ..ChaosSpec::default()
    });
    let report = cluster.run();
    cluster
        .sim
        .run_until(cluster.measure_until + SimDuration::from_secs(2));

    println!(
        "  {} ops completed; {} messages dropped by the fault plan",
        report.ops,
        report.counters.get("faults.rdma_dropped")
    );
    println!(
        "  QP errors: {}; client reconnects: {}; server reconnects: {}; partial resyncs: {}",
        report.counters.get("rdma.qp_errors"),
        report.counters.get("client.stat_reconnects"),
        report.counters.get("server.stat_reconnects"),
        report.counters.get("server.stat_partial_syncs"),
    );
    let digests = cluster.keyspace_digests();
    assert!(digests.iter().all(|&d| d == digests[0]));
    println!("  all replicas converged despite the loss\n");
}

/// The SoC dies mid-run. The master notices the probe silence, falls back
/// to serial host fan-out (degraded but alive), and re-offloads once the
/// SoC answers probes again.
fn nic_crash_demo() {
    println!("== scenario 2: SmartNIC SoC crash at 2s, return at 5s ==");
    let crash_at = SimTime::from_secs(2);
    let recover_at = SimTime::from_secs(5);
    let mut cluster = Cluster::build(spec(2, 4, 7_000, 42));
    cluster.apply_chaos(&ChaosSpec {
        nic_crash: Some((crash_at, recover_at)),
        seed: 42,
        ..ChaosSpec::default()
    });
    let report = cluster.run();
    cluster
        .sim
        .run_until(cluster.measure_until + SimDuration::from_secs(2));

    let master = cluster.master_server();
    for &(entered, exited) in &master.degraded_periods {
        match exited {
            Some(t) => println!("  degraded (host fan-out) {entered} → {t}"),
            None => println!("  degraded (host fan-out) from {entered}, never recovered"),
        }
    }
    println!(
        "  degradations: {}; still degraded at end: {}; client errors: {}",
        master.stat_degradations,
        master.is_degraded(),
        report.errors
    );
    println!("  throughput through the crash (500 ms buckets):");
    for p in &report.series {
        println!(
            "    {:>5.1}s {:>8.1} kops/s",
            p.time.as_secs_f64(),
            p.rate_per_sec / 1000.0
        );
    }
    let digests = cluster.keyspace_digests();
    assert!(digests.iter().all(|&d| d == digests[0]));
    println!("  all replicas converged after re-offload");
}

fn main() {
    lossy_fabric_demo();
    nic_crash_demo();
}
