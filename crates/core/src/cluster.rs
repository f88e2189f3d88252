//! Cluster builder and experiment harness.
//!
//! Assembles the paper's testbed in the simulator: a master host (with a
//! SmartNIC SoC in SKV mode), N slave hosts, a client host, and the 100 Gb
//! fabric between them; wires up the replication topology; runs a measured
//! workload; and produces a [`RunReport`].

use skv_netsim::{FaultPlan, Net, NodeId, Partition, SocketAddr, TimeWindow, Topology};
use skv_simcore::stats::Counters;
use skv_simcore::{ActorId, SimDuration, SimTime, Simulation};

use crate::client::{BenchClient, Workload};
use crate::config::{ClusterConfig, Mode};
use crate::histcheck::{self, SharedHistory};
use crate::metrics::{MetricsHub, RunReport, SharedMetrics};
use crate::nickv::{NicControl, NicKv};
use crate::server::{Control, KvServer};

/// Well-known ports.
pub const KV_PORT: u16 = 6379;
/// Nic-KV's RDMA listen port on the SmartNIC SoC.
pub const NIC_PORT: u16 = 7000;

/// Workload + measurement parameters for one run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Cluster shape and calibration.
    pub cfg: ClusterConfig,
    /// Number of concurrent closed-loop client connections.
    pub num_clients: usize,
    /// Commands in flight per connection (1 = the paper's setting).
    pub pipeline: usize,
    /// Fraction of SET operations (1.0 = pure SET, 0.0 = pure GET).
    pub set_ratio: f64,
    /// Keys per write batch: 0 or 1 issues plain SETs (the default);
    /// `n >= 2` turns every write into an `MSET` of `n` uniform random
    /// keys, which spans shards with high probability on a sharded
    /// cluster — the cross-shard stressor.
    pub mset_keys: usize,
    /// SET value size in bytes.
    pub value_size: usize,
    /// Number of distinct keys.
    pub key_space: u64,
    /// Zipf skew exponent θ for client key draws; 0 (the default) keeps
    /// the historical uniform workload bit-identical. See
    /// [`crate::client::Workload::zipf_theta`].
    pub zipf_theta: f64,
    /// Rotate the Zipf hot set every this many key draws (0 = static).
    pub zipf_shift_every: u64,
    /// Warm-up time before measurement starts (after sync grace).
    pub warmup: SimDuration,
    /// Measurement window length.
    pub measure: SimDuration,
    /// Root seed.
    pub seed: u64,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            cfg: ClusterConfig::default(),
            num_clients: 8,
            pipeline: 1,
            set_ratio: 1.0,
            mset_keys: 0,
            value_size: 64,
            key_space: 10_000,
            zipf_theta: 0.0,
            zipf_shift_every: 0,
            warmup: SimDuration::from_millis(500),
            measure: SimDuration::from_secs(4),
            seed: 42,
        }
    }
}

/// A fault schedule for one run — plain data, composable with any
/// [`RunSpec`]. Installed via [`Cluster::apply_chaos`].
#[derive(Debug, Clone)]
pub struct ChaosSpec {
    /// Probability that any RDMA message is lost (→ retry-exhaustion
    /// completion error) or any TCP segment costs a retransmission timeout.
    pub loss_prob: f64,
    /// Probability of a latency spike on any message.
    pub delay_prob: f64,
    /// Size of one latency spike.
    pub delay: SimDuration,
    /// Link flaps: `(slave_idx, from, until)` — the slave's node is fully
    /// partitioned from everyone inside the window.
    pub flaps: Vec<(usize, SimTime, SimTime)>,
    /// One bidirectional partition: `(slave_idxs, from, until)` — the
    /// listed slaves vs. the rest of the cluster.
    pub partition: Option<(Vec<usize>, SimTime, SimTime)>,
    /// SmartNIC SoC crash window `(crash_at, recover_at)` — independent of
    /// the host (the degradation scenario). Ignored outside SKV mode.
    pub nic_crash: Option<(SimTime, SimTime)>,
    /// Seed for the fault-side RNG (independent of the workload seed).
    pub seed: u64,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            loss_prob: 0.0,
            delay_prob: 0.0,
            delay: SimDuration::from_micros(500),
            flaps: Vec::new(),
            partition: None,
            nic_crash: None,
            seed: 7,
        }
    }
}

/// A built cluster ready to run.
pub struct Cluster {
    /// The simulation (exposed for tests that drive time manually).
    pub sim: Simulation,
    /// The fabric handle.
    pub net: Net,
    /// Master Host-KV actor.
    pub master: ActorId,
    /// Nic-KV actor (SKV mode only).
    pub nic: Option<ActorId>,
    /// Slave Host-KV actors.
    pub slaves: Vec<ActorId>,
    /// Nodes the slaves run on (for failure injection).
    pub slave_nodes: Vec<NodeId>,
    /// Node the master runs on.
    pub master_node: NodeId,
    /// Node the clients run on.
    pub client_node: NodeId,
    /// Node the SmartNIC SoC runs on (SKV mode only).
    pub nic_node: Option<NodeId>,
    /// Client actors.
    pub clients: Vec<ActorId>,
    /// Op history recorded by the bench clients themselves, when
    /// `ClusterConfig::record_history` is set — the linearizability
    /// checker's input. `None` otherwise (recording off is the default
    /// and leaves the client schedule bit-identical).
    pub bench_history: Option<SharedHistory>,
    /// Shared metrics sink.
    pub metrics: SharedMetrics,
    /// The spec this cluster was built from.
    pub spec: RunSpec,
    /// When clients start issuing.
    pub clients_start: SimTime,
    /// Start of the measurement window.
    pub measure_from: SimTime,
    /// End of the measurement window (clients stop issuing).
    pub measure_until: SimTime,
}

impl Cluster {
    /// Build the full testbed for `spec`.
    pub fn build(spec: RunSpec) -> Cluster {
        let mut sim = Simulation::new(spec.seed);
        let cfg = &spec.cfg;
        if let Err(e) = cfg.validate() {
            panic!("invalid ClusterConfig: {e}");
        }

        // --- topology: master + slaves + one client machine + SmartNIC ---
        let mut topo = Topology::new();
        let master_node = topo.add_host();
        let slave_nodes: Vec<NodeId> = (0..cfg.num_slaves).map(|_| topo.add_host()).collect();
        let client_node = topo.add_host();
        let nic_node = if cfg.mode == Mode::Skv {
            Some(topo.add_smartnic(master_node))
        } else {
            None
        };
        let net = Net::install(&mut sim, topo, cfg.net.clone());

        // --- timeline ---
        let sync_grace = SimDuration::from_millis(100);
        let clients_start = SimTime::ZERO + sync_grace;
        let measure_from = clients_start + spec.warmup;
        let measure_until = measure_from + spec.measure;
        let metrics = MetricsHub::new(measure_from, measure_until);

        // --- servers ---
        let master_addr = SocketAddr::new(master_node, KV_PORT);
        let master = sim.add_actor(Box::new(KvServer::new(
            net.clone(),
            cfg.clone(),
            master_node,
            master_addr,
            spec.seed ^ 0x11,
        )));

        let nic_addr = nic_node.map(|n| SocketAddr::new(n, NIC_PORT));
        let nic = nic_node.map(|n| {
            sim.add_actor(Box::new(NicKv::new(
                net.clone(),
                cfg.clone(),
                n,
                SocketAddr::new(n, NIC_PORT),
            )))
        });

        let mut slaves = Vec::with_capacity(cfg.num_slaves);
        for (i, &node) in slave_nodes.iter().enumerate() {
            let addr = SocketAddr::new(node, KV_PORT);
            let id = sim.add_actor(Box::new(KvServer::new(
                net.clone(),
                cfg.clone(),
                node,
                addr,
                spec.seed ^ (0x100 + i as u64),
            )));
            slaves.push(id);
        }

        // --- wiring: master → NIC, then slaves → SLAVEOF ---
        if let (Some(nic_addr), Some(_)) = (nic_addr, nic) {
            sim.schedule(
                SimTime::from_millis(1),
                master,
                Control::ConnectNic { nic: nic_addr },
            );
        }
        for (i, &slave) in slaves.iter().enumerate() {
            sim.schedule(
                SimTime::from_millis(5 + 2 * i as u64),
                slave,
                Control::Slaveof {
                    master: master_addr,
                    nic: nic_addr,
                },
            );
        }

        // --- clients ---
        let workload = Workload {
            pipeline: spec.pipeline,
            set_ratio: spec.set_ratio,
            mset_keys: spec.mset_keys,
            key_space: spec.key_space,
            value_size: spec.value_size,
            zipf_theta: spec.zipf_theta,
            zipf_shift_every: spec.zipf_shift_every,
            start_at: clients_start,
            stop_at: measure_until,
        };
        // With the SoC hot-key cache on, clients dial the Nic-KV front
        // end instead of the host master: hot GETs are answered from SoC
        // memory, everything else is proxied through (see
        // `crate::hotcache`). Cache off keeps the historical direct path.
        let client_target = match nic_addr {
            Some(nic) if cfg.hot_cache_enabled() => nic,
            _ => master_addr,
        };
        let bench_history = cfg.record_history.then(histcheck::new_history);
        let read_target = cfg
            .read_replica
            .and_then(|i| slave_nodes.get(i))
            .map(|&n| SocketAddr::new(n, KV_PORT));
        let clients: Vec<ActorId> = (0..spec.num_clients)
            .map(|i| {
                let mut client = BenchClient::new(
                    net.clone(),
                    cfg.clone(),
                    client_node,
                    client_target,
                    workload.clone(),
                    metrics.clone(),
                );
                if let Some(history) = &bench_history {
                    client.record_into(i, history.clone());
                }
                if let Some(replica) = read_target {
                    client.read_from(replica);
                }
                sim.add_actor(Box::new(client))
            })
            .collect();

        Cluster {
            sim,
            net,
            master,
            nic,
            slaves,
            slave_nodes,
            master_node,
            client_node,
            nic_node,
            clients,
            bench_history,
            metrics,
            spec,
            clients_start,
            measure_from,
            measure_until,
        }
    }

    /// Every node in the testbed (master, slaves, client machine, SoC).
    fn all_nodes(&self) -> Vec<NodeId> {
        let mut nodes = vec![self.master_node, self.client_node];
        nodes.extend(&self.slave_nodes);
        nodes.extend(self.nic_node);
        nodes
    }

    /// Install a fault schedule: builds the fabric's [`FaultPlan`] and
    /// schedules any SoC crash/recovery events.
    pub fn apply_chaos(&mut self, chaos: &ChaosSpec) {
        let mut plan = FaultPlan::new(chaos.seed);
        plan.default_loss = chaos.loss_prob;
        plan.default_delay_prob = chaos.delay_prob;
        plan.default_delay = chaos.delay;
        for &(idx, from, until) in &chaos.flaps {
            let node = self.slave_nodes[idx];
            let others: Vec<NodeId> = self
                .all_nodes()
                .into_iter()
                .filter(|&n| n != node)
                .collect();
            plan.partitions.push(Partition {
                a: vec![node],
                b: others,
                window: TimeWindow::new(from, until),
            });
        }
        if let Some((idxs, from, until)) = &chaos.partition {
            let a: Vec<NodeId> = idxs.iter().map(|&i| self.slave_nodes[i]).collect();
            let b: Vec<NodeId> = self
                .all_nodes()
                .into_iter()
                .filter(|n| !a.contains(n))
                .collect();
            plan.partitions.push(Partition {
                a,
                b,
                window: TimeWindow::new(*from, *until),
            });
        }
        self.net.set_fault_plan(plan);
        if let Some((crash_at, recover_at)) = chaos.nic_crash {
            self.schedule_nic_crash(crash_at);
            self.schedule_nic_recover(recover_at);
        }
    }

    /// Schedule a SmartNIC SoC crash at `at` (SKV mode; no-op otherwise).
    pub fn schedule_nic_crash(&mut self, at: SimTime) {
        if let Some(nic) = self.nic {
            self.sim.schedule(at, nic, NicControl::Crash);
        }
    }

    /// Schedule the SoC's recovery.
    pub fn schedule_nic_recover(&mut self, at: SimTime) {
        if let Some(nic) = self.nic {
            self.sim.schedule(at, nic, NicControl::Recover);
        }
    }

    /// Schedule a slave crash at `at` (relative to simulation start).
    pub fn schedule_slave_crash(&mut self, slave_idx: usize, at: SimTime) {
        self.sim
            .schedule(at, self.slaves[slave_idx], Control::Crash);
    }

    /// Schedule a slave recovery at `at`.
    pub fn schedule_slave_recover(&mut self, slave_idx: usize, at: SimTime) {
        self.sim
            .schedule(at, self.slaves[slave_idx], Control::Recover);
    }

    /// Schedule a master crash / recovery (for failover experiments).
    pub fn schedule_master_crash(&mut self, at: SimTime) {
        self.sim.schedule(at, self.master, Control::Crash);
    }

    /// Schedule the master's recovery.
    pub fn schedule_master_recover(&mut self, at: SimTime) {
        self.sim.schedule(at, self.master, Control::Recover);
    }

    /// Run to just past the measurement window and summarize.
    pub fn run(&mut self) -> RunReport {
        let deadline = self.measure_until + SimDuration::from_millis(200);
        self.sim.run_until(deadline);
        self.report()
    }

    /// Run until `deadline` (for experiments with their own schedules).
    pub fn run_until(&mut self, deadline: SimTime) -> RunReport {
        self.sim.run_until(deadline);
        self.report()
    }

    /// Summarize the run so far; [`RunReport::counters`] carries the
    /// full [`Cluster::counters_snapshot`].
    pub fn report(&self) -> RunReport {
        let mut report = RunReport::from_hub(self.spec.cfg.mode.label(), &self.metrics.borrow());
        report.counters = self.counters_snapshot();
        report
    }

    /// Every counter in the testbed, keyed by subsystem. Each component
    /// writes its own (`add_counters`): `server.*`, `shard.*` and
    /// `store.*` from master and slaves, `nic.*` and `cache.*` from
    /// Nic-KV, `client.*` from the bench clients, `hist.*` from the
    /// recorded history, plus the fabric's `rdma.*` and `faults.*`
    /// counters verbatim. A component that is absent writes nothing.
    pub fn counters_snapshot(&self) -> Counters {
        let mut out = Counters::new();
        self.master_server().add_counters(&mut out);
        for i in 0..self.slaves.len() {
            self.slave_server(i).add_counters(&mut out);
        }
        if let Some(nic) = self.nic_kv() {
            nic.add_counters(&mut out);
        }
        for &id in &self.clients {
            if let Some(c) = self.sim.actor_ref::<BenchClient>(id) {
                c.add_counters(&mut out);
            }
        }
        if let Some(history) = &self.bench_history {
            history.borrow().add_counters(&mut out);
        }
        out.merge(&self.net.counters());
        out
    }

    /// Execute commands directly on the master's engine — for preloading a
    /// dataset before slaves attach (it bypasses the replication stream and
    /// reaches slaves only via the initial full sync).
    pub fn preload_master(&mut self, commands: &[&[&str]]) {
        let server = self
            .sim
            .actor_mut::<KvServer>(self.master)
            .expect("master is a KvServer");
        for parts in commands {
            let r = server.preload(parts);
            assert!(!r.reply.is_error(), "preload failed: {parts:?}");
        }
    }

    /// Borrow the master server for inspection.
    pub fn master_server(&self) -> &KvServer {
        self.sim
            .actor_ref::<KvServer>(self.master)
            .expect("master is a KvServer")
    }

    /// Borrow a slave server for inspection.
    pub fn slave_server(&self, idx: usize) -> &KvServer {
        self.sim
            .actor_ref::<KvServer>(self.slaves[idx])
            .expect("slave is a KvServer")
    }

    /// Borrow the Nic-KV for inspection (SKV mode).
    pub fn nic_kv(&self) -> Option<&NicKv> {
        self.nic.and_then(|id| self.sim.actor_ref::<NicKv>(id))
    }

    /// All keyspace digests (master first), for convergence checks.
    pub fn keyspace_digests(&self) -> Vec<u64> {
        let mut out = vec![self.master_server().keyspace_digest()];
        for i in 0..self.slaves.len() {
            out.push(self.slave_server(i).keyspace_digest());
        }
        out
    }
}

/// Convenience: build and run one spec, returning the report.
pub fn run_spec(spec: RunSpec) -> RunReport {
    Cluster::build(spec).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(mode: Mode) -> RunSpec {
        let mut cfg = ClusterConfig::for_mode(mode);
        cfg.num_slaves = if mode == Mode::TcpRedis { 0 } else { 2 };
        RunSpec {
            cfg,
            num_clients: 2,
            warmup: SimDuration::from_millis(100),
            measure: SimDuration::from_millis(400),
            ..Default::default()
        }
    }

    #[test]
    fn skv_cluster_smoke() {
        let mut cluster = Cluster::build(small_spec(Mode::Skv));
        let report = cluster.run();
        assert!(report.ops > 100, "ops {}", report.ops);
        assert_eq!(report.errors, 0);
        assert!(report.throughput_kops > 1.0);
        // All slaves synced.
        for i in 0..cluster.slaves.len() {
            assert!(cluster.slave_server(i).is_synced_slave(), "slave {i}");
        }
        // NIC actually fanned out.
        let nic = cluster.nic_kv().expect("SKV has a NIC");
        assert!(nic.stat_fanout_msgs > 0);
        assert_eq!(nic.available_slaves(), 2);
    }

    #[test]
    fn rdma_redis_cluster_smoke() {
        let mut cluster = Cluster::build(small_spec(Mode::RdmaRedis));
        let report = cluster.run();
        assert!(report.ops > 100);
        assert!(cluster.nic_kv().is_none());
    }

    #[test]
    fn tcp_redis_cluster_smoke() {
        let mut cluster = Cluster::build(small_spec(Mode::TcpRedis));
        let report = cluster.run();
        assert!(report.ops > 50, "ops {}", report.ops);
    }

    /// Every counter name the benchmark (`skvbench/src/cycle.rs`) and
    /// the ablation tables (`crates/bench/src/ablations.rs`) read from
    /// the snapshot. `Counters::get` reads an absent name as 0, so a
    /// renamed counter would silently zero their metrics.
    const CONSUMED_COUNTERS: &[&str] = &[
        "cache.admits",
        "cache.bytes",
        "cache.evicts",
        "cache.hits",
        "cache.invalidations",
        "cache.misses",
        "client.stat_dial_failures",
        "client.stat_issued",
        "client.stat_reconnects",
        "client.stat_replies",
        "nic.stat_commits",
        "nic.stat_fanout_sends",
        "nic.stat_retransmits",
        "nic.stat_wrs_posted",
        "rdma.bytes",
        "rdma.cq_notifies",
        "rdma.doorbells",
        "rdma.wcs_polled",
        "rdma.wrs_posted",
        "server.stat_applied_bytes",
        "server.stat_reconnects",
        "shard.cross_msgs",
        "shard.queue_depth",
        "store.stat_hits",
        "store.stat_misses",
    ];

    #[test]
    fn snapshot_exports_every_consumed_counter() {
        let mut spec = small_spec(Mode::Skv);
        spec.cfg.repl_mode = crate::replmode::ReplModeKind::Quorum;
        spec.cfg.num_shards = 2;
        spec.cfg.hot_cache_bytes = 64 * 1024;
        spec.cfg.record_history = true;
        spec.set_ratio = 0.5;
        let mut cluster = Cluster::build(spec);
        let report = cluster.run();
        let snap = cluster.counters_snapshot();
        let keys: Vec<&str> = snap.iter().map(|(k, _)| k).collect();
        for &name in CONSUMED_COUNTERS {
            assert!(keys.contains(&name), "snapshot missing {name}");
        }
        assert_eq!(report.counters.iter().count(), keys.len());
        // And the busy ones really counted.
        assert!(snap.get("server.stat_commands") > 0);
        assert!(snap.get("client.stat_replies") > 0);
        assert!(snap.get("nic.stat_commits") > 0);
        assert!(snap.get("cache.hits") + snap.get("cache.misses") > 0);
        assert!(snap.get("hist.ops") > 0);
        assert!(snap.get("rdma.wrs_posted") > 0);
    }

    #[test]
    fn queue_depth_is_the_deepest_slave_ring() {
        let mut spec = small_spec(Mode::Skv);
        spec.cfg.num_shards = 2;
        spec.num_clients = 8;
        spec.pipeline = 8;
        let mut cluster = Cluster::build(spec);
        cluster.run();
        let depths: Vec<u64> = (0..cluster.slaves.len())
            .map(|i| cluster.slave_server(i).apply_queue_depth())
            .chain([cluster.master_server().apply_queue_depth()])
            .collect();
        assert!(
            depths.iter().filter(|&&d| d > 0).count() >= 2,
            "need two non-empty rings to tell max from sum: {depths:?}"
        );
        let deepest = depths.iter().copied().max().unwrap_or(0);
        assert_eq!(
            cluster.counters_snapshot().get("shard.queue_depth"),
            deepest,
            "{depths:?}"
        );
    }

    #[test]
    fn deterministic_runs() {
        let r1 = run_spec(small_spec(Mode::Skv));
        let r2 = run_spec(small_spec(Mode::Skv));
        assert_eq!(r1.ops, r2.ops);
        assert_eq!(r1.p99_latency_us, r2.p99_latency_us);
    }
}
