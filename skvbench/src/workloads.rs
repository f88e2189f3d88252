//! The benchmark's workloads: one `RunSpec` each, built from the seed.
//!
//! Every workload runs the SKV deployment (Host-KV master + SmartNIC
//! Nic-KV + slaves) with closed-loop clients, records the client history
//! (stamped SET values, invocation/response instants) and sizes its
//! measured window to hold at least 50k operations.

use skv_core::cluster::RunSpec;
use skv_core::config::{ClusterConfig, Mode};
use skv_core::replmode::ReplModeKind;
use skv_simcore::SimDuration;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Replication fan-out offload: the paper's Fig. 11 SET point.
    SetOffload,
    /// Skewed reads through the SoC hot-key cache on a 2-shard master.
    ZipfReadCache,
    /// Quorum replication with a skewed 50% SET mix and the
    /// linearizability checker.
    QuorumHistory,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SetOffload,
        Workload::ZipfReadCache,
        Workload::QuorumHistory,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SetOffload => "set-offload",
            Workload::ZipfReadCache => "zipf-read-cache",
            Workload::QuorumHistory => "quorum-history",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cluster and client load for `seed`.
    pub fn spec(self, seed: u64) -> RunSpec {
        let mut cfg = ClusterConfig::for_mode(Mode::Skv);
        cfg.record_history = true;
        let mut spec = RunSpec {
            num_clients: 8,
            pipeline: 1,
            value_size: 64,
            key_space: 100_000,
            warmup: SimDuration::from_millis(50),
            seed,
            ..RunSpec::default()
        };
        match self {
            Workload::SetOffload => {
                cfg.num_slaves = 3;
                // 5% GETs give the GET-latency parity point (Fig. 13)
                // beside the SET throughput point (Fig. 11).
                spec.set_ratio = 0.95;
                spec.measure = SimDuration::from_millis(250);
            }
            Workload::ZipfReadCache => {
                cfg.num_slaves = 2;
                cfg.num_shards = 2;
                cfg.hot_cache_bytes = 64 << 10;
                cfg.hot_cache_policy = "tinylfu".into();
                cfg.hot_cache_max_value = 4 << 10;
                // 32 outstanding requests, as with 8 clients x pipeline
                // 4, but one per connection: a pipelined
                // connection through the cache front end gets its replies
                // out of order (`client.reordered_replies` counts it).
                spec.num_clients = 32;
                spec.set_ratio = 0.05;
                spec.zipf_theta = 0.99;
                spec.measure = SimDuration::from_millis(100);
            }
            Workload::QuorumHistory => {
                cfg.num_slaves = 3;
                cfg.repl_mode = ReplModeKind::Quorum;
                spec.set_ratio = 0.5;
                spec.zipf_theta = 0.99;
                spec.key_space = 10_000;
                spec.measure = SimDuration::from_millis(250);
            }
        }
        spec.cfg = cfg;
        spec
    }
}
