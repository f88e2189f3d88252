//! SKV benchmark: end-to-end and per-layer metrics for one workload.
//!
//! ```text
//! cargo run --release --manifest-path skvbench/Cargo.toml -- \
//!     --workload <set-offload|zipf-read-cache|quorum-history> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run first drives one plain `Cluster::run` (the reference), then
//! repeats phased cycles of the same seeded workload until `--seconds`
//! of wall time are used (at least two). Simulated metrics and per-layer
//! counts must repeat bit-exactly across cycles and match the plain run;
//! host-time metrics are medians over cycles. The last stdout line is the
//! JSON result; a readable summary goes to stderr. See `METRICS.md`.

// The host-time metrics read the wall clock, outside the simulation; the
// repository's clippy.toml forbids that only for code inside it.
#![allow(clippy::disallowed_methods)]

mod calib;
mod cycle;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use cycle::CycleOut;
use trace::Tracer;
use workloads::Workload;

/// Commands the traced run replays through the layer functions.
const REPLAY_COMMANDS: u64 = 200_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

pub(crate) fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Bitwise equality of two value lists (names and f64 bits).
fn same(a: &[(&str, f64)], b: &[(&str, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn unit_of_count(name: &str) -> &'static str {
    if name.ends_with("_ratio") || name.ends_with("_share") || name.ends_with("imbalance") {
        "ratio"
    } else if name.ends_with("_us_per_op") {
        "us"
    } else if name.contains("bytes") {
        "B"
    } else {
        "count"
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("skvbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = args.workload.spec(args.seed);
    let start = Instant::now();

    let (plain_events, plain_sim) = cycle::plain(spec.clone());
    let mut tracer = args.trace.then(Tracer::new);
    let mut untraced: Vec<CycleOut> = Vec::new();
    let mut traced: Vec<CycleOut> = Vec::new();
    loop {
        let trace_this = tracer.is_some() && traced.len() < untraced.len();
        let out = cycle::run(spec.clone(), tracer.as_mut().filter(|_| trace_this));
        if trace_this {
            traced.push(out);
        } else {
            untraced.push(out);
        }
        let cycles = untraced.len() + traced.len();
        let elapsed = start.elapsed().as_secs_f64();
        let per_cycle = elapsed / (cycles + 1) as f64;
        let enough = untraced.len() >= 2 && (tracer.is_none() || !traced.is_empty());
        if enough && elapsed + per_cycle > args.seconds {
            break;
        }
    }

    // Gates: determinism, replica convergence, linearizability.
    let first = &untraced[0];
    let all: Vec<&CycleOut> = untraced.iter().chain(&traced).collect();
    let repeatable = all
        .iter()
        .all(|c| same(&c.sim, &first.sim) && same(&c.counts, &first.counts));
    let matches_plain =
        plain_events == first.events_at_run_end && same(&plain_sim, &first.sim[..plain_sim.len()]);
    let converged = all.iter().all(|c| c.digests_converged);
    let violations: usize = all.iter().map(|c| c.violations).sum();
    let correct = repeatable && matches_plain && converged && violations == 0;
    let attempted: u64 = all.iter().map(|c| c.attempted).sum();
    let failed: u64 = all.iter().map(|c| c.failed).sum();
    eprintln!(
        "skvbench {} seed {}: {} cycles ({} traced), {} ops/window, {} events/window, \
         repeatable {repeatable}, matches plain run {matches_plain} ({plain_events} events), \
         converged {converged}, violations {violations}",
        args.workload.name(),
        args.seed,
        all.len(),
        traced.len(),
        first.ops,
        first.window_events,
    );

    // Host time per op and per event: medians over every measured chunk.
    let per_chunk = |cs: &[CycleOut], f: &dyn Fn(&cycle::Chunk) -> f64| {
        median(
            cs.iter()
                .flat_map(|c| c.wall.chunks.iter().map(f))
                .collect(),
        )
    };
    let wall_ns_per_op = |cs: &[CycleOut]| per_chunk(cs, &|k| k.time.scaled * 1e9 / k.ops as f64);
    let mut metrics = Vec::new();
    if let Some(tracer) = tracer.as_mut() {
        for &(name, value) in &first.counts {
            metrics.push(metric(name, value, unit_of_count(name)));
        }
        metrics.push(metric(
            "simcore.wall_ns_per_event",
            per_chunk(&untraced, &|k| k.time.scaled * 1e9 / k.events as f64),
            "ns",
        ));
        metrics.push(metric(
            "host.raw_wall_ns_per_op",
            per_chunk(&untraced, &|k| k.time.raw * 1e9 / k.ops as f64),
            "ns",
        ));
        metrics.push(metric(
            "host.speed_scale",
            per_chunk(&untraced, &|k| k.time.scaled / k.time.raw),
            "ratio",
        ));
        metrics.push(metric(
            "client.reordered_replies",
            cycle::reordered_replies(&spec) as f64,
            "count",
        ));
        trace::replay(&spec, REPLAY_COMMANDS, tracer);
        for (metric_name, span) in [
            ("client.gen_ns", "client.gen"),
            ("resp.encode_ns", "resp.encode"),
            ("resp.decode_ns", "resp.decode"),
            ("shard.plan_ns", "shard.plan"),
            ("store.exec_ns", "store.exec"),
            ("store.backlog_feed_ns", "store.backlog_feed"),
            ("hotcache.get_ns", "hotcache.get"),
            ("hotcache.admit_ns", "hotcache.admit"),
            ("replay.harness_ns", "replay.cmd"),
        ] {
            metrics.push(metric(metric_name, tracer.self_ns_per_call(span), "ns"));
        }
        for (metric_name, span) in [
            ("phase.build_s", "phase.build"),
            ("phase.bringup_s", "phase.bringup"),
            ("phase.measure_s", "phase.measure"),
            ("phase.quiesce_s", "phase.quiesce"),
            ("phase.check_s", "phase.check"),
        ] {
            let t = tracer.totals(span);
            metrics.push(metric(
                metric_name,
                t.total_ns as f64 / t.count.max(1) as f64 / 1e9,
                "s",
            ));
        }
        metrics.push(metric(
            "trace.overhead_ns_per_op",
            wall_ns_per_op(&traced) - wall_ns_per_op(&untraced),
            "ns",
        ));
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "spans-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(args.workload.name(), args.seed)));
        match written {
            Ok(()) => eprintln!("skvbench: spans written to {}", path.display()),
            Err(e) => {
                eprintln!("skvbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    } else {
        for &(name, value) in &first.sim {
            let unit = if name == "sim_kops" { "kops/s" } else { "us" };
            metrics.push(metric(name, value, unit));
        }
        metrics.push(metric("wall_ns_per_op", wall_ns_per_op(&untraced), "ns"));
        metrics.push(metric(
            "setup_s",
            median(untraced.iter().map(|c| c.wall.setup.scaled).collect()),
            "s",
        ));
        metrics.push(metric(
            "check_ns_per_op",
            median(
                untraced
                    .iter()
                    .map(|c| c.wall.check.scaled * 1e9 / c.hist_ops as f64)
                    .collect(),
            ),
            "ns",
        ));
        let Some(rss) = peak_rss_mb() else {
            eprintln!("skvbench: cannot read peak RSS from /proc/self/status");
            return ExitCode::FAILURE;
        };
        metrics.push(metric("peak_rss_mb", rss, "MB"));
    }
    for m in &metrics {
        eprintln!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if metrics.iter().any(|m| !m.value.is_finite()) {
        eprintln!("skvbench: non-finite metric value");
        return ExitCode::FAILURE;
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
