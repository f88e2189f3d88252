//! Chaos suite: randomized fault plans over the fault-injection substrate.
//!
//! Where `failure.rs` checks the §III-D detection machinery against clean
//! crash/recover schedules, these tests inject *transport* faults — lost
//! RDMA messages (surfacing as retry-exhaustion completion errors), latency
//! spikes, link flaps, partitions, and SmartNIC SoC crashes — and assert
//! the two system-level properties that matter: every replica converges to
//! the same keyspace once the faults clear, and identical seeds produce
//! identical runs.

use proptest::prelude::*;
use skv_core::cluster::{ChaosSpec, Cluster, RunSpec};
use skv_core::config::{ClusterConfig, Mode};
use skv_simcore::{SimDuration, SimTime};

/// Compressed-time SKV spec, same scale trick as `failure.rs`.
fn spec(slaves: usize, clients: usize, measure_ms: u64, seed: u64) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(Mode::Skv);
    cfg.num_slaves = slaves;
    cfg.probe_interval = SimDuration::from_millis(200);
    cfg.waiting_time = SimDuration::from_millis(300);
    cfg.upstream_silence = SimDuration::from_millis(600);
    cfg.reconnect_base = SimDuration::from_millis(5);
    cfg.client_retry_timeout = SimDuration::from_millis(100);
    RunSpec {
        cfg,
        num_clients: clients,
        pipeline: 1,
        set_ratio: 1.0,
        mset_keys: 0,
        value_size: 64,
        key_space: 1_000,
        warmup: SimDuration::from_millis(100),
        measure: SimDuration::from_millis(measure_ms),
        seed,
        zipf_theta: 0.0,
        zipf_shift_every: 0,
    }
}

/// Run past the measurement window, then give resyncs time to drain.
fn run_and_quiesce(cluster: &mut Cluster, drain: SimDuration) {
    cluster.run();
    cluster.sim.run_until(cluster.measure_until + drain);
}

fn assert_converged(cluster: &Cluster) {
    let digests = cluster.keyspace_digests();
    assert!(
        digests.iter().all(|&d| d == digests[0]),
        "replicas diverged: {digests:x?}"
    );
}

#[test]
fn partition_heals_and_replicas_converge() {
    // Two of three slaves are cut off mid-run; after the partition heals
    // they must detect the gap, resync, and end byte-identical.
    let mut cluster = Cluster::build(spec(3, 2, 2_000, 21));
    cluster.apply_chaos(&ChaosSpec {
        partition: Some((
            vec![0, 1],
            SimTime::from_millis(800),
            SimTime::from_millis(1_500),
        )),
        ..ChaosSpec::default()
    });
    run_and_quiesce(&mut cluster, SimDuration::from_secs(2));

    let report = cluster.report();
    assert!(
        report.ops > 1_000,
        "writes must keep flowing: {}",
        report.ops
    );
    assert_converged(&cluster);
    // The cut-off slaves had to resync (partial or full) after the heal.
    let resyncs: u64 = (0..2)
        .map(|i| {
            let s = cluster.slave_server(i);
            s.stat_full_syncs + s.stat_partial_syncs
        })
        .sum();
    assert!(resyncs >= 3, "expected post-heal resyncs, got {resyncs}");
}

#[test]
fn lossy_link_set_stream_completes() {
    // 2% message loss everywhere: every lost WR surfaces as a completion
    // error + QP error state, so clients and servers must keep tearing
    // down and re-establishing QPs — and the SET stream must still finish.
    let mut cluster = Cluster::build(spec(2, 2, 2_000, 22));
    cluster.apply_chaos(&ChaosSpec {
        loss_prob: 0.02,
        ..ChaosSpec::default()
    });
    run_and_quiesce(&mut cluster, SimDuration::from_secs(2));

    let report = cluster.report();
    assert!(report.ops > 500, "stream stalled: {} ops", report.ops);
    assert!(
        report.counters.get("faults.rdma_dropped") > 0,
        "plan must actually drop messages"
    );
    assert!(
        report.counters.get("rdma.qp_errors") > 0,
        "drops must surface as QP errors"
    );
    assert!(
        report.counters.get("client.stat_reconnects") > 0,
        "clients must recover by reconnecting"
    );
}

#[test]
fn nic_crash_degrades_master_but_writes_continue() {
    // The SoC dies mid-run: the master must fall back to host-driven
    // serial fan-out (RDMA-Redis style) and keep serving writes.
    let crash_at = SimTime::from_millis(1_000);
    let recover_at = SimTime::from_millis(2_500);
    let mut cluster = Cluster::build(spec(2, 2, 3_000, 23));
    cluster.apply_chaos(&ChaosSpec {
        nic_crash: Some((crash_at, recover_at)),
        ..ChaosSpec::default()
    });

    // Step to just before recovery: the master must be degraded by then,
    // and the NIC's fan-out counter frozen.
    cluster.sim.run_until(recover_at);
    assert!(
        cluster.master_server().is_degraded(),
        "master must detect SoC death and degrade"
    );
    let fanout_before = cluster.nic_kv().expect("nic").stat_fanout_msgs;
    let hub = cluster.metrics.borrow();
    let degraded_ops = hub
        .completions
        .count_between(crash_at + SimDuration::from_millis(700), recover_at);
    drop(hub);
    assert!(
        degraded_ops > 500,
        "degraded mode must keep serving writes, got {degraded_ops}"
    );

    run_and_quiesce(&mut cluster, SimDuration::from_secs(2));
    let master = cluster.master_server();
    assert_eq!(master.stat_degradations, 1);
    assert!(
        !master.is_degraded(),
        "master must re-offload after recovery"
    );
    let (entered, exited) = *master.degraded_periods.last().expect("one period");
    assert!(entered >= crash_at && exited.expect("closed") >= recover_at);
    // Fan-out went back to the SoC.
    let fanout_after = cluster.nic_kv().expect("nic").stat_fanout_msgs;
    assert!(
        fanout_after > fanout_before,
        "NIC must fan out again after recovery ({fanout_before} → {fanout_after})"
    );
    assert_converged(&cluster);
}

/// Build, apply chaos, run, quiesce — returns (ops, digests, qp_errors).
fn chaos_run(spec: RunSpec, chaos: &ChaosSpec) -> (u64, Vec<u64>, u64) {
    let mut cluster = Cluster::build(spec);
    cluster.apply_chaos(chaos);
    run_and_quiesce(&mut cluster, SimDuration::from_secs(2));
    let report = cluster.report();
    (
        report.ops,
        cluster.keyspace_digests(),
        report.counters.get("rdma.qp_errors"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized fault plans: loss up to 5%, latency spikes, one link
    /// flap, one partition, an optional SoC crash. Two properties:
    /// replicas converge after the faults clear, and the identical
    /// spec+seed reproduces the identical run.
    #[test]
    fn random_chaos_converges_and_is_deterministic(
        loss in 0.0f64..0.05,
        delay_prob in 0.0f64..0.1,
        flap_start in 600u64..1_000,
        chaos_seed in 0u64..1_000,
        crash_nic in 0u32..2,
    ) {
        let chaos = ChaosSpec {
            loss_prob: loss,
            delay_prob,
            delay: SimDuration::from_micros(500),
            flaps: vec![(
                0,
                SimTime::from_millis(flap_start),
                SimTime::from_millis(flap_start + 400),
            )],
            partition: Some((
                vec![1],
                SimTime::from_millis(1_100),
                SimTime::from_millis(1_500),
            )),
            nic_crash: (crash_nic == 1).then(|| {
                (SimTime::from_millis(900), SimTime::from_millis(1_600))
            }),
            seed: chaos_seed,
        };
        let s = spec(2, 1, 1_800, 1_000 + chaos_seed);

        let (ops_a, digests_a, qp_err_a) = chaos_run(s.clone(), &chaos);
        prop_assert!(ops_a > 50, "cluster made no progress: {} ops", ops_a);
        prop_assert!(
            digests_a.iter().all(|&d| d == digests_a[0]),
            "replicas diverged: {:x?}", digests_a
        );

        // Same seeds → byte-identical outcome, faults and all.
        let (ops_b, digests_b, qp_err_b) = chaos_run(s, &chaos);
        prop_assert_eq!(ops_a, ops_b);
        prop_assert_eq!(digests_a, digests_b);
        prop_assert_eq!(qp_err_a, qp_err_b);
    }
}

// -- per-protocol fault arms (replication modes) ------------------------------

use skv_core::histcheck::{check_linearizable, stale_reads};
use skv_core::replmode::ReplModeKind;
use skv_integration_tests::checked_history;
use skv_netsim::{FaultPlan, Partition, TimeWindow};

/// Record the bench clients' own history for the linearizability
/// checker, with GETs routed to `read_replica` (the front end when
/// `None`). Half the ops are writes and the key space is small, so most
/// reads observe a written value.
fn recorded(mut s: RunSpec, read_replica: Option<usize>) -> RunSpec {
    s.cfg.record_history = true;
    s.cfg.read_replica = read_replica;
    s.set_ratio = 0.5;
    s.key_space = 64;
    s
}

/// A slave crashes mid-fan-out under a tracked mode: the protocol must
/// keep committing through the survivors and the client-visible history
/// must stay linearizable where the clients read.
fn slave_crash_stays_linearizable(mode: ReplModeKind, read_replica: Option<usize>) {
    let mut s = spec(3, 2, 2_000, 41);
    s.cfg.repl_mode = mode;
    let mut cluster = Cluster::build(recorded(s, read_replica));
    // Crash slave 0 (the chain head / a quorum member) mid-run, recover
    // it before the end so convergence is checkable.
    cluster.schedule_slave_crash(0, SimTime::from_millis(700));
    cluster.schedule_slave_recover(0, SimTime::from_millis(1_400));
    run_and_quiesce(&mut cluster, SimDuration::from_secs(2));

    let nic = cluster.nic_kv().expect("nic");
    assert!(nic.stat_commits > 0, "{mode}: nothing committed");
    assert_eq!(nic.pending_writes(), 0, "{mode}: stuck in-flight writes");
    let history = checked_history(&cluster);
    let h = history.borrow();
    let done = h.ops.iter().filter(|o| o.completed.is_some()).count();
    assert!(done > 100, "{mode}: only {done} ops completed");
    let violations = check_linearizable(&h);
    assert!(
        violations.is_empty(),
        "{mode}: consistency violations under slave crash: {violations:?}"
    );
    drop(h);
    assert_converged(&cluster);
}

#[test]
fn slave_crash_quorum_history_linearizable() {
    // Quorum commits at a majority; reads at the front end.
    slave_crash_stays_linearizable(ReplModeKind::Quorum, None);
}

#[test]
fn slave_crash_chain_history_linearizable() {
    // Tail reads (slave 2); the crashed node is the chain head.
    slave_crash_stays_linearizable(ReplModeKind::Chain, Some(2));
}

#[test]
fn slave_crash_async_serves_stale_reads_then_converges() {
    // The async contrast arm: cut a slave off from the servers (but not
    // from the clients, which read there) and the master keeps acking
    // writes the slave never saw — the checker must catch the stale
    // reads. After the heal the replicas still converge: eventual
    // consistency, and nothing stronger.
    let mut cluster = Cluster::build(recorded(spec(2, 2, 2_000, 42), Some(0)));
    let lagging = cluster.slave_nodes[0];
    let servers: Vec<_> = std::iter::once(cluster.master_node)
        .chain(cluster.nic_node)
        .chain(std::iter::once(cluster.slave_nodes[1]))
        .collect();
    let mut plan = FaultPlan::new(3);
    plan.partitions.push(Partition {
        a: vec![lagging],
        b: servers,
        window: TimeWindow::new(SimTime::from_millis(600), SimTime::from_millis(1_500)),
    });
    cluster.net.set_fault_plan(plan);
    run_and_quiesce(&mut cluster, SimDuration::from_secs(3));

    let history = checked_history(&cluster);
    let h = history.borrow();
    // Async staleness reproduces as concrete counterexamples from the
    // full checker, not just screen hits.
    let violations = check_linearizable(&h);
    assert!(
        stale_reads(&violations) > 0,
        "async must expose stale reads at the cut-off slave, found none \
         ({} ops recorded, {} violations)",
        h.ops.len(),
        violations.len()
    );
    drop(h);
    // ...but once the partition heals, every replica converges.
    assert_converged(&cluster);
}

#[test]
fn chain_rejoin_splices_recovered_slave_without_overlap() {
    // Satellite regression: a chain slave crashes mid-delivery-window
    // and rejoins while later writes are still in flight. The NIC must
    // splice it back in at the TAIL of each open chain, skipping every
    // write already covered by its resync offset — re-delivering one
    // would hand the slave an overlapping backlog window. Commits keep
    // flowing, nothing wedges behind the rejoiner, and the history read
    // at the tail stays linearizable through crash, rejoin, and resync.
    let mut s = spec(3, 2, 2_000, 44);
    s.cfg.repl_mode = ReplModeKind::Chain;
    let mut cluster = Cluster::build(recorded(s, Some(2)));
    // Crash the middle hop with writes in flight; recover it mid-run so
    // it rejoins under load.
    cluster.schedule_slave_crash(1, SimTime::from_millis(700));
    cluster.schedule_slave_recover(1, SimTime::from_millis(1_100));
    run_and_quiesce(&mut cluster, SimDuration::from_secs(2));

    let nic = cluster.nic_kv().expect("nic");
    assert!(
        nic.stat_chain_rejoins >= 1,
        "recovered slave never spliced back into an in-flight chain"
    );
    assert!(nic.stat_commits > 0, "chain stopped committing");
    assert_eq!(nic.pending_writes(), 0, "writes stuck behind the rejoiner");
    let history = checked_history(&cluster);
    let h = history.borrow();
    let violations = check_linearizable(&h);
    assert!(
        violations.is_empty(),
        "chain rejoin violations: {violations:?}"
    );
    drop(h);
    assert_converged(&cluster);
}

#[test]
fn chain_mid_node_partition_triggers_repair() {
    // Partition the middle hop of a 3-slave chain: WRs to it die with
    // retry-exhaustion errors, the NIC must splice it out of in-flight
    // chains (repair), keep committing through head + tail, and the
    // history read at the tail stays linearizable throughout.
    let mut s = spec(3, 2, 2_000, 43);
    s.cfg.repl_mode = ReplModeKind::Chain;
    let mut cluster = Cluster::build(recorded(s, Some(2)));
    cluster.apply_chaos(&ChaosSpec {
        partition: Some((
            vec![1],
            SimTime::from_millis(700),
            SimTime::from_millis(1_400),
        )),
        ..ChaosSpec::default()
    });
    run_and_quiesce(&mut cluster, SimDuration::from_secs(2));

    let nic = cluster.nic_kv().expect("nic");
    assert!(
        nic.stat_chain_repairs > 0,
        "mid-node partition never triggered a chain repair"
    );
    assert!(nic.stat_commits > 0, "chain stopped committing");
    assert_eq!(nic.pending_writes(), 0, "writes stuck behind the dead hop");
    let history = checked_history(&cluster);
    let h = history.borrow();
    let violations = check_linearizable(&h);
    assert!(
        violations.is_empty(),
        "chain violations under mid-node partition: {violations:?}"
    );
    drop(h);
    assert_converged(&cluster);
}
