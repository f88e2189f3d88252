//! Cross-run determinism regression: the property every figure in the
//! paper reproduction rests on. One arm executed twice with the same seed
//! must produce *bit-for-bit* identical output — same op counts, same
//! latency percentiles, same per-bucket throughput series, same
//! counters, same final keyspace digests. A single stray `HashMap`
//! iteration or wall-clock read anywhere in the stack breaks this test
//! (and `skv-lint` / `clippy.toml` exist to catch those statically; this
//! is the dynamic backstop).

use skv_core::cluster::{ChaosSpec, Cluster, RunSpec};
use skv_core::config::{ClusterConfig, Mode};
use skv_core::metrics::RunReport;
use skv_simcore::SimDuration;

/// FNV-1a over every observable byte of a run. Hand-rolled so the test
/// depends on nothing but the report itself.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        // Bit-exact: determinism means the same bits, not "close enough".
        self.u64(v.to_bits());
    }
}

/// Fold a full run (report + replica keyspaces) into one digest.
fn run_digest(report: &RunReport, keyspaces: &[u64]) -> u64 {
    let mut h = Fnv::new();
    h.u64(report.ops);
    h.u64(report.errors);
    h.f64(report.throughput_kops);
    h.f64(report.avg_latency_us);
    h.f64(report.p50_latency_us);
    h.f64(report.p95_latency_us);
    h.f64(report.p99_latency_us);
    for p in &report.series {
        h.u64(p.time.as_nanos());
        h.u64(p.count);
        h.f64(p.rate_per_sec);
    }
    // Non-zero entries only: a zero counter and an absent one say the
    // same thing, so a component that starts exporting a counter it
    // never increments leaves every digest untouched.
    for (name, value) in report.counters.iter().filter(|&(_, v)| v != 0) {
        h.bytes(name.as_bytes());
        h.u64(value);
    }
    for &d in keyspaces {
        h.u64(d);
    }
    h.0
}

/// Compressed-time arm, sized to stay inside the tier-1 budget.
fn arm(mode: Mode, seed: u64) -> RunSpec {
    let mut cfg = ClusterConfig::for_mode(mode);
    cfg.num_slaves = 2;
    cfg.probe_interval = SimDuration::from_millis(200);
    cfg.reconnect_base = SimDuration::from_millis(5);
    cfg.client_retry_timeout = SimDuration::from_millis(100);
    RunSpec {
        cfg,
        num_clients: 2,
        pipeline: 1,
        set_ratio: 0.5,
        mset_keys: 0,
        value_size: 64,
        key_space: 500,
        warmup: SimDuration::from_millis(50),
        measure: SimDuration::from_millis(150),
        seed,
        zipf_theta: 0.0,
        zipf_shift_every: 0,
    }
}

fn execute(spec: RunSpec, chaos: Option<&ChaosSpec>) -> u64 {
    let mut cluster = Cluster::build(spec);
    if let Some(chaos) = chaos {
        cluster.apply_chaos(chaos);
    }
    let report = cluster.run();
    let digests = cluster.keyspace_digests();
    run_digest(&report, &digests)
}

#[test]
fn same_seed_same_bits_skv() {
    let a = execute(arm(Mode::Skv, 0xD00D), None);
    let b = execute(arm(Mode::Skv, 0xD00D), None);
    assert_eq!(a, b, "identical SKV runs diverged: {a:#018x} vs {b:#018x}");
}

#[test]
fn same_seed_same_bits_tcp_baseline() {
    let a = execute(arm(Mode::TcpRedis, 0xBEEF), None);
    let b = execute(arm(Mode::TcpRedis, 0xBEEF), None);
    assert_eq!(a, b, "identical TCP runs diverged: {a:#018x} vs {b:#018x}");
}

#[test]
fn same_seed_same_bits_under_chaos() {
    let chaos = ChaosSpec {
        loss_prob: 0.02,
        delay_prob: 0.05,
        delay: SimDuration::from_micros(300),
        seed: 7,
        ..Default::default()
    };
    let a = execute(arm(Mode::Skv, 0xFACE), Some(&chaos));
    let b = execute(arm(Mode::Skv, 0xFACE), Some(&chaos));
    assert_eq!(
        a, b,
        "identical chaos runs diverged: {a:#018x} vs {b:#018x}"
    );
}

#[test]
fn same_seed_same_bits_with_serial_posts() {
    // Batched posting is the default now; the historical serial-doorbell
    // arm must stay deterministic too (it is still an ablation arm and
    // the fallback for TCP-framed channels).
    let mut spec = arm(Mode::Skv, 0xD00D);
    spec.cfg.batch_wr_posts = false;
    let a = execute(spec.clone(), None);
    let b = execute(spec, None);
    assert_eq!(
        a, b,
        "identical serial-post runs diverged: {a:#018x} vs {b:#018x}"
    );
}

#[test]
fn same_seed_same_bits_with_cq_moderation() {
    // Interrupt moderation batches completion *notifies*: the event
    // schedule changes shape (fewer, deeper CqNotify drains plus
    // coalescing-timer events) but must remain a pure function of the
    // seed — timers, thresholds and budgets all run on simulated time.
    let mut spec = arm(Mode::Skv, 0xCAFE);
    spec.cfg.net.cq_notify_threshold = 4;
    spec.cfg.net.cq_notify_timer = SimDuration::from_micros(16);
    spec.cfg.cq_poll_budget = 8;
    let a = execute(spec.clone(), None);
    let b = execute(spec, None);
    assert_eq!(
        a, b,
        "identical moderated runs diverged: {a:#018x} vs {b:#018x}"
    );
}

#[test]
fn single_shard_digest_matches_pre_shard_baseline() {
    // The sharding refactor's contract: at `num_shards = 1` (the default)
    // every routed path degenerates to the historical single-engine code,
    // leaving the event schedule — and therefore these digests —
    // bit-identical. The constants were re-derived once, bit for bit,
    // when the report's counters became the full counter snapshot.
    let skv = execute(arm(Mode::Skv, 0xD00D), None);
    assert_eq!(
        skv, 0xfb46_d021_8d1c_f1bc,
        "single-shard SKV schedule drifted from the pre-shard baseline: {skv:#018x}"
    );
    let tcp = execute(arm(Mode::TcpRedis, 0xBEEF), None);
    assert_eq!(
        tcp, 0xbff2_f293_367c_7026,
        "single-shard TCP schedule drifted from the pre-shard baseline: {tcp:#018x}"
    );
}

#[test]
fn same_seed_same_bits_sharded() {
    // Four shard cores, per-shard CQs, split MSETs, the pipelined slave
    // apply ring and the serialized replication egress all engaged, plus
    // pipelined clients to keep every shard busy. Still bit-for-bit.
    let mut spec = arm(Mode::Skv, 0x5A4D);
    spec.cfg.num_shards = 4;
    spec.pipeline = 4;
    let a = execute(spec.clone(), None);
    let b = execute(spec, None);
    assert_eq!(
        a, b,
        "identical sharded runs diverged: {a:#018x} vs {b:#018x}"
    );
}

#[test]
fn different_seeds_actually_differ() {
    // Guards against the digest degenerating into a constant.
    let a = execute(arm(Mode::Skv, 1), None);
    let b = execute(arm(Mode::Skv, 2), None);
    assert_ne!(a, b, "digest ignores the seed (constant hash?)");
}

#[test]
fn same_seed_same_bits_quorum_mode() {
    // The tracked quorum path adds WR-ack maps, commit windows and
    // deferred-reply queues — all of which must stay pure functions of
    // the seed (their counters are folded into the report's counters).
    let mut spec = arm(Mode::Skv, 0xAB0D);
    spec.cfg.repl_mode = skv_core::replmode::ReplModeKind::Quorum;
    let a = execute(spec.clone(), None);
    let b = execute(spec, None);
    assert_eq!(
        a, b,
        "identical quorum runs diverged: {a:#018x} vs {b:#018x}"
    );
}

#[test]
fn same_seed_same_bits_chain_mode() {
    // Chain hops serialize per-write sends through timers and applied
    // acks; under a flap the repair path runs too. Still bit-for-bit.
    let mut spec = arm(Mode::Skv, 0xC4A1);
    spec.cfg.repl_mode = skv_core::replmode::ReplModeKind::Chain;
    let chaos = ChaosSpec {
        flaps: vec![(
            0,
            skv_simcore::SimTime::from_millis(80),
            skv_simcore::SimTime::from_millis(160),
        )],
        seed: 11,
        ..Default::default()
    };
    let a = execute(spec.clone(), Some(&chaos));
    let b = execute(spec, Some(&chaos));
    assert_eq!(
        a, b,
        "identical chain runs diverged: {a:#018x} vs {b:#018x}"
    );
}

#[test]
fn same_seed_same_bits_with_hot_cache() {
    // The SoC cache adds a whole front-end plane — forwarded commands,
    // cookie maps, admission sketches, stream-driven invalidation — all
    // of which must stay pure functions of the seed. Zipf draws engage
    // the split key stream; the cache counters fold into the report's
    // counters, so any nondeterminism in the cache itself also breaks
    // the digest.
    let mut spec = arm(Mode::Skv, 0xCACE);
    spec.cfg.hot_cache_bytes = 1 << 20;
    spec.cfg.hot_cache_policy = "tinylfu".into();
    spec.set_ratio = 0.1;
    spec.zipf_theta = 0.99;
    let a = execute(spec.clone(), None);
    let b = execute(spec, None);
    assert_eq!(
        a, b,
        "identical hot-cache runs diverged: {a:#018x} vs {b:#018x}"
    );
}
