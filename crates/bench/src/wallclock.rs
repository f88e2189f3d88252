//! Fixtures for the wall-clock benchmark suite (`benches/wallclock_*.rs`).
//!
//! Everything else in this crate measures *simulated* time — the numbers
//! the paper's figures are made of. The wall-clock suite instead measures
//! how much host CPU the reproduction itself burns, so perf PRs land with
//! before/after numbers (`scripts/bench.sh` → `BENCH_results.json`).
//! Keeping the specs here (rather than inline in each bench) guarantees
//! the before/after runs execute the exact same workloads.

use skv_core::cluster::{Cluster, RunSpec};
use skv_core::config::{ClusterConfig, Mode};
use skv_core::histcheck::History;
use skv_core::replmode::ReplModeKind;
use skv_simcore::SimDuration;

/// True when `SKV_BENCH_SMOKE` is set (non-empty): benches shrink their
/// sweeps and windows so CI can smoke-test the suite in seconds.
pub fn smoke() -> bool {
    std::env::var("SKV_BENCH_SMOKE").is_ok_and(|v| !v.is_empty())
}

/// Replication fan-out workload: pure SET with a fat value so per-replica
/// payload handling dominates, swept over the slave count.
pub fn fanout_spec(mode: Mode, slaves: usize, seed: u64) -> RunSpec {
    fanout_spec_sized(mode, slaves, false, 4096, seed)
}

/// [`fanout_spec`] with the doorbell-batching knob and value size exposed:
/// the batched-arm and value-size sweeps of `wallclock_fanout` must differ
/// from the baseline arms in *only* these two parameters.
pub fn fanout_spec_sized(
    mode: Mode,
    slaves: usize,
    batched: bool,
    value_size: usize,
    seed: u64,
) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(mode);
    cfg.num_slaves = slaves;
    cfg.batch_wr_posts = batched;
    RunSpec {
        cfg,
        num_clients: 4,
        pipeline: 4,
        set_ratio: 1.0,
        mset_keys: 0,
        value_size,
        key_space: 1_000,
        warmup: SimDuration::from_millis(20),
        measure: if smoke() {
            SimDuration::from_millis(30)
        } else {
            SimDuration::from_millis(100)
        },
        seed,
        zipf_theta: 0.0,
        zipf_shift_every: 0,
    }
}

/// Replication-mode workload: pure SET at a 3-slave fan-out with the
/// protocol knob exposed. The tracked modes (quorum, chain) run the ack
/// bookkeeping — WR-ack maps, commit windows, deferred-reply queues — that
/// the async stream skips, so the sweep prices that machinery in host CPU.
pub fn replmode_spec(mode: skv_core::replmode::ReplModeKind, seed: u64) -> RunSpec {
    let mut spec = fanout_spec_sized(Mode::Skv, 3, false, 1024, seed);
    spec.cfg.repl_mode = mode;
    spec
}

/// A Figure-10-style point: mixed GET/SET, small values, closed loop,
/// 8 clients against 1 master + 3 slaves.
pub fn fig10_style_spec(mode: Mode, seed: u64) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(mode);
    cfg.num_slaves = 3;
    RunSpec {
        cfg,
        num_clients: 8,
        pipeline: 1,
        set_ratio: 0.5,
        mset_keys: 0,
        value_size: 64,
        key_space: 10_000,
        warmup: SimDuration::from_millis(20),
        measure: if smoke() {
            SimDuration::from_millis(30)
        } else {
            SimDuration::from_millis(100)
        },
        seed,
        zipf_theta: 0.0,
        zipf_shift_every: 0,
    }
}

/// Hot-key cache workload: read-heavy (5% SET) Zipf-skewed stream against
/// a 2-slave SKV cluster with the SoC GET cache's budget and policy
/// exposed. The cache-off arm prices the legacy client→master path; the
/// cache-on arms add the NIC front end (forwarding, admission, the
/// invalidation scan on every stream frame), so the sweep measures what
/// the cache layer costs in host CPU per simulated run.
pub fn hotcache_spec(cache_bytes: usize, policy: &str, theta: f64, seed: u64) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(Mode::Skv);
    cfg.num_slaves = 2;
    cfg.hot_cache_bytes = cache_bytes;
    cfg.hot_cache_policy = policy.to_string();
    RunSpec {
        cfg,
        num_clients: 8,
        pipeline: 4,
        set_ratio: 0.05,
        mset_keys: 0,
        value_size: 64,
        key_space: 10_000,
        warmup: SimDuration::from_millis(20),
        measure: if smoke() {
            SimDuration::from_millis(30)
        } else {
            SimDuration::from_millis(100)
        },
        seed,
        zipf_theta: theta,
        zipf_shift_every: 0,
    }
}

/// Sharded-engine workload: mixed GET/SET at pipeline depth 8 against a
/// 2-slave SKV cluster, swept over `num_shards`. The pipelined clients
/// keep every shard core busy, so the sweep prices both the scaling win
/// (more simulated work per simulated second means more host work per
/// simulated run) and the routing overhead the shard layer adds.
pub fn shards_spec(num_shards: usize, seed: u64) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(Mode::Skv);
    cfg.num_slaves = 2;
    cfg.num_shards = num_shards;
    RunSpec {
        cfg,
        num_clients: 8,
        pipeline: 8,
        set_ratio: 0.5,
        mset_keys: 0,
        value_size: 64,
        key_space: 10_000,
        warmup: SimDuration::from_millis(20),
        measure: if smoke() {
            SimDuration::from_millis(30)
        } else {
            SimDuration::from_millis(100)
        },
        seed,
        zipf_theta: 0.0,
        zipf_shift_every: 0,
    }
}

/// Linearizability-checker workload: quorum replication to 3 slaves, 8
/// closed-loop clients, 50% SET over 10k keys, with every bench client
/// recording its history, at key skew `theta`. Uniform keys give many
/// short per-key histories (the per-key overhead); Zipf 0.99 piles
/// thousands of ops onto a few hot keys (the per-key search).
pub fn histcheck_spec(theta: f64, seed: u64) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(Mode::Skv);
    cfg.num_slaves = 3;
    cfg.repl_mode = ReplModeKind::Quorum;
    cfg.record_history = true;
    RunSpec {
        cfg,
        num_clients: 8,
        pipeline: 1,
        set_ratio: 0.5,
        mset_keys: 0,
        value_size: 64,
        key_space: 10_000,
        warmup: SimDuration::from_millis(20),
        measure: if smoke() {
            SimDuration::from_millis(30)
        } else {
            SimDuration::from_millis(250)
        },
        seed,
        zipf_theta: theta,
        zipf_shift_every: 0,
    }
}

/// Run [`histcheck_spec`] and let in-flight replies land, returning the
/// recorded client history — the input `wallclock_histcheck` times the
/// checker on.
pub fn histcheck_history(theta: f64, seed: u64) -> History {
    let mut cluster = Cluster::build(histcheck_spec(theta, seed));
    cluster.run();
    let settle = cluster.measure_until + SimDuration::from_millis(500);
    cluster.sim.run_until(settle);
    cluster
        .bench_history
        .take()
        .map(|recorded| recorded.take())
        .unwrap_or_default()
}
