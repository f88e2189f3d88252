//! SoC hot-key GET cache coverage: the NIC front end serves hot GETs
//! from SoC memory, the replication stream invalidates/refreshes entries
//! before the covering write is acked (checked on the bench clients'
//! recorded histories with `skv_core::histcheck`), the win is real under Zipf skew, and a crashed
//! SoC rejoins with a cold cache without ever serving a stale read.

use proptest::prelude::*;
use skv_core::cluster::{ChaosSpec, Cluster, RunSpec};
use skv_core::config::{ClusterConfig, Mode};
use skv_core::histcheck::check_linearizable;
use skv_integration_tests::checked_history;
use skv_simcore::{SimDuration, SimTime};

/// Compressed-time SKV spec with the SoC cache configured: read-heavy
/// (5% SET), Zipf 0.99, small keyspace — the cache's home turf.
fn spec(cache_bytes: usize, policy: &str, measure_ms: u64, seed: u64) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(Mode::Skv);
    cfg.num_slaves = 2;
    cfg.hot_cache_bytes = cache_bytes;
    cfg.hot_cache_policy = policy.to_string();
    cfg.probe_interval = SimDuration::from_millis(200);
    cfg.reconnect_base = SimDuration::from_millis(5);
    cfg.client_retry_timeout = SimDuration::from_millis(100);
    RunSpec {
        cfg,
        num_clients: 4,
        pipeline: 2,
        set_ratio: 0.05,
        mset_keys: 0,
        value_size: 64,
        key_space: 2_000,
        warmup: SimDuration::from_millis(100),
        measure: SimDuration::from_millis(measure_ms),
        seed,
        zipf_theta: 0.99,
        zipf_shift_every: 0,
    }
}

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

/// Record the bench clients' own history; every GET goes to the NIC
/// front end, so every read is eligible for a cached reply. The clients
/// pipeline, so a cache hit can finish ahead of an earlier miss on the
/// same connection: the front end must still reply in request order,
/// because the recorder matches replies to requests in order.
fn recorded(mut s: RunSpec) -> RunSpec {
    s.cfg.record_history = true;
    s
}

fn cache_counter(cluster: &Cluster, name: &str) -> u64 {
    cluster.counters_snapshot().get(name)
}

/// Healthy-run smoke: clients are served through the NIC front end, hot
/// GETs hit in SoC memory, the stream feeds invalidations, and the
/// replicas still converge (the cache is read-only state — it must not
/// perturb replication).
#[test]
fn hot_gets_hit_in_soc_cache() {
    let mut cluster = Cluster::build(spec(1 << 20, "lru", 800, 51));
    run_and_quiesce(&mut cluster, SimDuration::from_secs(1));
    let report = cluster.report();
    assert!(report.ops > 500, "only {} ops", report.ops);
    assert_eq!(report.errors, 0, "{} error replies", report.errors);

    let hits = cache_counter(&cluster, "cache.hits");
    let misses = cache_counter(&cluster, "cache.misses");
    assert!(hits > 0, "no GET ever hit the SoC cache");
    assert!(misses > 0, "every GET hit — cold misses must exist");
    assert!(
        hits > misses,
        "Zipf 0.99 on a cache-sized keyspace should be hit-dominated: \
         {hits} hits vs {misses} misses"
    );
    assert!(cache_counter(&cluster, "cache.admits") > 0, "no admissions");
    assert!(
        cache_counter(&cluster, "cache.invalidations") > 0,
        "writes on hot keys never touched the cache"
    );
    assert!(cache_counter(&cluster, "cache.bytes") > 0, "cache is empty");
    // The report carries the same snapshot, so ablations and reports
    // can't drift apart.
    assert_eq!(report.counters.get("cache.hits"), hits);
    assert_converged(&cluster);
}

/// The acceptance bar: at Zipf 0.99 read-heavy, turning the cache on
/// must lift client-visible throughput by ≥ 1.3× over the cache-off
/// path on the *same* workload and seed (the ablation's headline pair,
/// shrunk to tier-1 size).
#[test]
fn cache_lifts_read_heavy_throughput() {
    let base = |cache_bytes: usize| {
        let mut s = spec(cache_bytes, "lru", 600, 52);
        s.num_clients = 8;
        s.pipeline = 4;
        s.key_space = 10_000;
        let mut cluster = Cluster::build(s);
        let report = cluster.run();
        assert_eq!(report.errors, 0, "{} error replies", report.errors);
        report.throughput_kops
    };
    let off = base(0);
    let on = base(1 << 20);
    assert!(
        on >= off * 1.3,
        "cache-on {on:.1} kops vs cache-off {off:.1} kops — below the 1.3x bar"
    );
}

/// The stale-read regression the invalidation seam exists for: the
/// bench clients record their GETs and SETs through the NIC front end,
/// so every GET is eligible for a cached reply — and the checker rejects
/// any read older than the last acked write. The seam under test: dirty
/// commands piggyback invalidation on the replication stream, and the
/// master orders the forwarded ack *after* the stream frame on the
/// shared NIC channel, so by the time a write is acked the SoC has
/// already dropped or refreshed the entry.
#[test]
fn cached_reads_never_return_stale_values() {
    let mut cluster = Cluster::build(recorded(spec(1 << 20, "lru", 800, 53)));
    run_and_quiesce(&mut cluster, SimDuration::from_secs(1));

    assert!(
        cache_counter(&cluster, "cache.hits") > 0,
        "no cached replies — the regression is vacuous"
    );
    assert!(
        cache_counter(&cluster, "cache.invalidations") > 0,
        "no stream-driven invalidations — the regression is vacuous"
    );
    assert!(
        cluster
            .nic_kv()
            .is_some_and(|nic| nic.stat_held_replies > 0),
        "no cache hit finished ahead of an earlier miss — reply ordering never exercised"
    );
    let history = checked_history(&cluster);
    let h = history.borrow();
    let reads = h.ops.iter().filter(|o| o.completed.is_some()).count();
    assert!(reads > 50, "not enough ops completed: {reads}");
    let violations = check_linearizable(&h);
    assert!(violations.is_empty(), "stale cached reads: {violations:?}");
}

/// Chaos arm: the SoC dies mid-run and rejoins with a cold cache. The
/// cold rejoin must be invisible to correctness — reads that resume
/// against the recovered front end still never observe a stale value,
/// clients recover, and the replicas converge.
#[test]
fn soc_crash_rejoins_with_cold_cache_and_stays_coherent() {
    let mut s = recorded(spec(1 << 20, "lru", 2_500, 54));
    // The master learns of a SoC restart from probe silence, or from a
    // failed post to the dead SoC. Every client reaches the master
    // through the front end, so nothing makes the master post while the
    // SoC is down; bound the silence as the other compressed-time suites
    // do, so the master re-attaches inside the run.
    s.cfg.upstream_silence = SimDuration::from_millis(600);
    let mut cluster = Cluster::build(s);
    cluster.apply_chaos(&ChaosSpec {
        nic_crash: Some((SimTime::from_millis(800), SimTime::from_millis(1_500))),
        seed: 54,
        ..ChaosSpec::default()
    });
    run_and_quiesce(&mut cluster, SimDuration::from_secs(2));

    let report = cluster.report();
    assert!(
        report.ops > 500,
        "clients never recovered from the SoC crash: {} ops",
        report.ops
    );
    // The cache re-warmed after the cold rejoin...
    assert!(
        cache_counter(&cluster, "cache.bytes") > 0,
        "cache still empty after recovery — rejoin never re-admitted"
    );
    assert!(cache_counter(&cluster, "cache.hits") > 0, "no hits at all");
    // ...and coherence held across the crash boundary.
    let history = checked_history(&cluster);
    let h = history.borrow();
    let violations = check_linearizable(&h);
    assert!(
        violations.is_empty(),
        "stale reads across the SoC crash: {violations:?}"
    );
    drop(h);
    assert_converged(&cluster);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Invalidation-vs-replication ordering under randomized seed ×
    /// shard count × policy: whatever the engine layout and admission
    /// policy, a NIC cache hit must never return a value older than the
    /// last acked write — the linearizability checker over the bench
    /// history recorded through the NIC front end.
    #[test]
    fn cache_coherent_across_shards_and_policies(
        seed in 0u64..1_000,
        shards in 1usize..5,
        policy_idx in 0usize..2,
        cache_kib in prop::sample::select(vec![64usize, 1_024]),
    ) {
        let policy = ["lru", "tinylfu"][policy_idx];
        let mut s = spec(cache_kib << 10, policy, 600, 3_000 + seed);
        s.cfg.num_shards = shards;
        let mut cluster = Cluster::build(recorded(s));
        run_and_quiesce(&mut cluster, SimDuration::from_secs(1));

        prop_assert!(
            cache_counter(&cluster, "cache.hits") > 0,
            "no cached replies — nothing exercised"
        );
        let history = checked_history(&cluster);
        let h = history.borrow();
        let violations = check_linearizable(&h);
        prop_assert!(
            violations.is_empty(),
            "stale cached reads (shards={shards}, policy={policy}): {violations:?}"
        );
        let digests = cluster.keyspace_digests();
        prop_assert!(
            digests.iter().all(|&d| d == digests[0]),
            "replicas diverged: {digests:x?}"
        );
    }
}
