//! One benchmark cycle: build a cluster, drive it through its phases,
//! sample every layer's public counters at both ends of the measured
//! window, then gate the outputs.
//!
//! Phases: build (`Cluster::build`), bring-up to `measure_from`
//! (connect, full sync, warm-up), the measured window to `measure_until`,
//! quiesce (in-flight replies and the replication stream drain), check
//! (replica digests and the linearizability checker).

use skv_core::cluster::{Cluster, RunSpec};
use skv_core::histcheck::{self, OpKind};
use skv_simcore::stats::Counters;
use skv_simcore::{SimDuration, SimTime};

use crate::calib::{Calibrated, Timing};
use crate::trace::Tracer;

/// Sim time past `measure_until` at which `Cluster::run` stops.
const RUN_TAIL: SimDuration = SimDuration::from_millis(200);
/// Sim time past `measure_until` after which replicas must agree.
const QUIESCE_TAIL: SimDuration = SimDuration::from_millis(500);
/// Measured-window slice length of a traced cycle (one span each).
const TRACE_SLICE: SimDuration = SimDuration::from_micros(100);
/// Measured-window chunks, each timed between reference-kernel runs.
const MEASURE_CHUNKS: u64 = 8;
/// Least wall time spent in the checker per cycle.
const CHECK_MIN_S: f64 = 0.3;

/// Named values in a fixed order.
pub type Values = Vec<(&'static str, f64)>;

/// Host time of the timed phases.
#[derive(Debug, Clone, Default)]
pub struct Phases {
    /// Build plus bring-up.
    pub setup: Timing,
    /// The measured window, chunk by chunk.
    pub chunks: Vec<Chunk>,
    /// The median checker pass.
    pub check: Timing,
}

/// One timed chunk of the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Chunk {
    pub time: Timing,
    /// Operations the chunk completed inside the window.
    pub ops: u64,
    /// Events the chunk processed.
    pub events: u64,
}

/// What one cycle produced.
pub struct CycleOut {
    /// Simulated-domain end-to-end metrics (repeat bit-exactly).
    pub sim: Values,
    /// Exact per-layer counts (repeat bit-exactly).
    pub counts: Values,
    /// `events_processed` at the `Cluster::run` endpoint.
    pub events_at_run_end: u64,
    /// Operations completed in the measured window.
    pub ops: u64,
    /// Events the measured window processed.
    pub window_events: u64,
    /// Recorded history operations (the checker's input size).
    pub hist_ops: u64,
    pub wall: Phases,
    /// Requests the clients issued over the whole run.
    pub attempted: u64,
    /// Error replies, non-GET replies to GETs, and requests never
    /// answered.
    pub failed: u64,
    pub digests_converged: bool,
    pub violations: usize,
}

/// Counters sampled at one instant of the run.
struct Sample {
    events: u64,
    counters: Counters,
    core0_busy_us: f64,
    nic_busy_us: f64,
    master_commands: u64,
    master_deferred: u64,
    master_cross_msgs: u64,
    shard_ops: Vec<u64>,
}

fn busy_us(utilization: f64, now: SimTime, cores: usize) -> f64 {
    utilization * now.as_secs_f64() * 1e6 * cores as f64
}

fn sample(c: &Cluster) -> Sample {
    let now = c.sim.now();
    let master = c.master_server();
    let nic_cores = c.spec.cfg.machines.nic_cores;
    Sample {
        events: c.sim.events_processed(),
        counters: c.counters_snapshot(),
        core0_busy_us: busy_us(master.core0_utilization(now), now, 1),
        nic_busy_us: c
            .nic_kv()
            .map_or(0.0, |n| busy_us(n.mean_utilization(now), now, nic_cores)),
        master_commands: master.stat_commands,
        master_deferred: master.stat_deferred_replies,
        master_cross_msgs: master.shard_cross_msgs(),
        shard_ops: master.shard_ops().to_vec(),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank quantile of sorted nanosecond latencies, in µs.
fn quantile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1e3
}

/// The simulated-domain metrics available from any finished run: window
/// throughput and exact latency quantiles over the recorded history
/// (the same ops, instants and error filter as `MetricsHub`'s
/// histograms, without their bucket rounding).
fn sim_metrics(c: &Cluster) -> (Values, u64) {
    let hub = c.metrics.borrow();
    let window = (hub.measure_until - hub.measure_from).as_secs_f64();
    let (from, until) = (hub.measure_from, hub.measure_until);
    let history = c.bench_history.as_ref().expect("workloads record history");
    let h = history.borrow();
    let (mut all, mut gets, mut sets) = (Vec::new(), Vec::new(), Vec::new());
    for op in &h.ops {
        let Some(done) = op.completed else { continue };
        if done < from || done > until || !op.ok {
            continue;
        }
        let lat = done.saturating_since(op.invoked).as_nanos();
        all.push(lat);
        match op.kind {
            OpKind::Read => gets.push(lat),
            OpKind::Write => sets.push(lat),
        }
    }
    for v in [&mut all, &mut gets, &mut sets] {
        v.sort_unstable();
    }
    let values = vec![
        ("sim_kops", hub.ops as f64 / window / 1e3),
        ("sim_p50_us", quantile_us(&all, 0.50)),
        ("sim_p999_us", quantile_us(&all, 0.999)),
        ("sim_get_p99_us", quantile_us(&gets, 0.99)),
        ("sim_set_p99_us", quantile_us(&sets, 0.99)),
    ];
    (values, sets.len() as u64)
}

/// `Cluster::run` end to end, no phase split: the reference the phased
/// drive must reproduce event for event.
pub fn plain(spec: RunSpec) -> (u64, Values) {
    let mut c = Cluster::build(spec);
    c.run();
    (c.sim.events_processed(), sim_metrics(&c).0)
}

/// Reads answered with something other than a GET reply — a reply
/// matched to the wrong request — when the workload's load is offered as
/// 8 connections x pipeline 4 over a short window. Replies on one
/// connection must come back in request order; this counts, as a lower
/// bound, how often they do not (cache hits overtaking forwarded
/// commands, GETs overtaking quorum-deferred SET replies).
pub fn reordered_replies(spec: &RunSpec) -> u64 {
    let mut spec = spec.clone();
    spec.num_clients = 8;
    spec.pipeline = 4;
    spec.measure = SimDuration::from_millis(20);
    let mut c = Cluster::build(spec);
    c.run();
    let history = c.bench_history.as_ref().expect("workloads record history");
    let h = history.borrow();
    h.ops
        .iter()
        .filter(|op| op.kind == OpKind::Read && op.completed.is_some() && !op.ok)
        .count() as u64
}

/// Run `f` inside a span when tracing.
fn span<T>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, 0, f),
        None => f(),
    }
}

/// Run one phased cycle. Set-up, each measured-window chunk and each
/// checker pass are timed between reference-kernel runs (see
/// [`crate::calib`]). With a tracer, every phase is a span and the
/// measured window advances in [`TRACE_SLICE`] steps, one span each; the
/// event schedule is the same either way.
pub fn run(spec: RunSpec, mut tracer: Option<&mut Tracer>) -> CycleOut {
    let mut wall = Phases::default();
    let mut cal = Calibrated::new();
    let (mut c, t) = cal.time(|| {
        let mut c = span(&mut tracer, "phase.build", || Cluster::build(spec));
        let from = c.measure_from;
        span(&mut tracer, "phase.bringup", || c.sim.run_until(from));
        c
    });
    wall.setup = t;
    let measure_from = c.measure_from;
    let measure_until = c.measure_until;
    let a = sample(&c);

    if let Some(t) = tracer.as_deref_mut() {
        t.enter("phase.measure", 0);
    }
    let chunk = (measure_until - measure_from)
        .as_nanos()
        .div_ceil(MEASURE_CHUNKS);
    let mut at = measure_from;
    let mut slice = 0;
    while at < measure_until {
        let chunk_end = (at + SimDuration::from_nanos(chunk)).min(measure_until);
        let ops_before = c.metrics.borrow().ops;
        let events_before = c.sim.events_processed();
        let ((), time) = cal.time(|| match tracer.as_deref_mut() {
            Some(t) => {
                while at < chunk_end {
                    at = (at + TRACE_SLICE).min(chunk_end);
                    t.enter("sim.slice", slice);
                    c.sim.run_until(at);
                    t.exit();
                    slice += 1;
                }
            }
            None => {
                c.sim.run_until(chunk_end);
                at = chunk_end;
            }
        });
        wall.chunks.push(Chunk {
            time,
            ops: c.metrics.borrow().ops - ops_before,
            events: c.sim.events_processed() - events_before,
        });
    }
    if let Some(t) = tracer.as_deref_mut() {
        t.exit();
    }
    let b = sample(&c);

    let (events_at_run_end, digests_converged) = span(&mut tracer, "phase.quiesce", || {
        c.sim.run_until(measure_until + RUN_TAIL);
        let events = c.sim.events_processed();
        c.sim.run_until(measure_until + QUIESCE_TAIL);
        let digests = c.keyspace_digests();
        (events, digests.windows(2).all(|w| w[0] == w[1]))
    });
    let history = c.bench_history.clone().expect("workloads record history");
    // The checker is deterministic; short checks rerun until
    // CHECK_MIN_S has passed and report their median pass.
    cal.refresh();
    let mut passes = Vec::new();
    let mut violations = 0;
    while passes.is_empty() || passes.iter().map(|t: &Timing| t.raw).sum::<f64>() < CHECK_MIN_S {
        let (v, t) = cal.time(|| {
            span(&mut tracer, "phase.check", || {
                histcheck::check_linearizable(&history.borrow()).len()
            })
        });
        violations = v;
        passes.push(t);
    }
    wall.check = Timing {
        raw: crate::median(passes.iter().map(|t| t.raw).collect()),
        scaled: crate::median(passes.iter().map(|t| t.scaled).collect()),
    };

    let (mut sim, writes) = sim_metrics(&c);
    let ops = c.metrics.borrow().ops;
    let opsf = ops as f64;
    let writes = writes as f64;
    let window_us = (measure_until - measure_from).as_secs_f64() * 1e6;
    let d = |name: &str| (b.counters.get(name) - a.counters.get(name)) as f64;
    sim.push((
        "host_cpu_us_per_op",
        ratio(b.core0_busy_us - a.core0_busy_us, opsf),
    ));

    let end = c.counters_snapshot();
    let h = history.borrow();
    let mut errors = 0u64;
    let mut reads = 0u64;
    let mut aborts = 0u64;
    for op in &h.ops {
        if op.kind == OpKind::Read {
            reads += 1;
        }
        if op.aborted {
            aborts += 1;
        }
        if op.completed.is_some() && !op.ok {
            errors += 1;
        }
    }
    let attempted = end.get("client.stat_issued");
    let unanswered = attempted.saturating_sub(end.get("client.stat_replies"));

    let shard_delta: Vec<f64> = b
        .shard_ops
        .iter()
        .zip(&a.shard_ops)
        .map(|(x, y)| (x - y) as f64)
        .collect();
    let shard_max = shard_delta.iter().copied().fold(0.0, f64::max);
    let shard_mean = shard_delta.iter().sum::<f64>() / shard_delta.len().max(1) as f64;
    let gets = d("cache.hits") + d("cache.misses");
    let store_lookups = d("store.stat_hits") + d("store.stat_misses");
    let window_events = b.events - a.events;

    let counts = vec![
        ("simcore.events_per_op", ratio(window_events as f64, opsf)),
        ("netsim.wrs_per_op", ratio(d("rdma.wrs_posted"), opsf)),
        ("netsim.doorbells_per_op", ratio(d("rdma.doorbells"), opsf)),
        (
            "netsim.wcs_polled_per_op",
            ratio(d("rdma.wcs_polled"), opsf),
        ),
        (
            "netsim.cq_notifies_per_op",
            ratio(d("rdma.cq_notifies"), opsf),
        ),
        ("netsim.bytes_per_op", ratio(d("rdma.bytes"), opsf)),
        (
            "server.master_busy_share",
            ratio(b.core0_busy_us - a.core0_busy_us, window_us),
        ),
        (
            "server.commands_per_op",
            ratio((b.master_commands - a.master_commands) as f64, opsf),
        ),
        (
            "server.applied_bytes_per_op",
            ratio(d("server.stat_applied_bytes"), opsf),
        ),
        (
            "replmode.commits_per_write",
            ratio(d("nic.stat_commits"), writes),
        ),
        ("replmode.retransmits", d("nic.stat_retransmits")),
        (
            "replmode.deferred_replies_per_write",
            ratio((b.master_deferred - a.master_deferred) as f64, writes),
        ),
        (
            "nickv.cpu_us_per_op",
            ratio(b.nic_busy_us - a.nic_busy_us, opsf),
        ),
        (
            "nickv.fanout_sends_per_write",
            ratio(d("nic.stat_fanout_sends"), writes),
        ),
        (
            "nickv.wrs_per_write",
            ratio(d("nic.stat_wrs_posted"), writes),
        ),
        ("hotcache.hit_ratio", ratio(d("cache.hits"), gets)),
        ("hotcache.admits_per_get", ratio(d("cache.admits"), gets)),
        ("hotcache.evicts", d("cache.evicts")),
        (
            "hotcache.invalidations_per_write",
            ratio(d("cache.invalidations"), writes),
        ),
        ("hotcache.bytes", b.counters.get("cache.bytes") as f64),
        (
            "shard.cross_msgs_per_op",
            ratio((b.master_cross_msgs - a.master_cross_msgs) as f64, opsf),
        ),
        ("shard.imbalance", ratio(shard_max, shard_mean)),
        (
            "store.hit_ratio",
            ratio(d("store.stat_hits"), store_lookups),
        ),
        (
            "client.reconnects",
            end.get("client.stat_reconnects") as f64,
        ),
        (
            "client.dial_failures",
            end.get("client.stat_dial_failures") as f64,
        ),
        ("histcheck.ops", h.ops.len() as f64),
        ("histcheck.reads", reads as f64),
        ("histcheck.aborts", aborts as f64),
    ];

    CycleOut {
        sim,
        counts,
        events_at_run_end,
        ops,
        window_events,
        hist_ops: h.ops.len() as u64,
        wall,
        attempted,
        failed: errors + unanswered,
        digests_converged,
        violations,
    }
}
