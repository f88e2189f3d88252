//! Wall-clock spans recorded from the benchmark's own code, around its
//! calls into each layer's public functions, plus the per-layer replay of
//! a workload's command stream.
//!
//! Spans nest through an explicit stack: a span's parent is whatever span
//! was open when it began, and spans of one request share `req`. Every
//! span is folded into per-name totals (count, total, self time = total
//! minus the time its children cover); the first [`STORED_SPANS`] are
//! also kept verbatim and written out at the end of the run.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use skv_core::client::{Workload as ClientWorkload, WorkloadGen};
use skv_core::cluster::RunSpec;
use skv_core::hotcache::{CachePolicyKind, HotCache};
use skv_core::shard::{RoutePlan, ShardRouter};
use skv_simcore::{DetRng, Frame, SimTime};
use skv_store::backlog::Backlog;
use skv_store::engine::Engine;
use skv_store::resp::{Decoded, Resp};

/// Spans kept verbatim for the output file; later ones only aggregate.
const STORED_SPANS: usize = 50_000;

struct Span {
    id: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u64>,
    req: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    start: Instant,
    parent: Option<u64>,
    req: u64,
    child_ns: u64,
}

/// Per-name span totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    totals: Vec<(&'static str, Totals)>,
}

fn nanos_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            totals: Vec::new(),
        }
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) {
        let parent = self.stack.last().map(|o| o.id);
        self.stack.push(Open {
            id: self.next_id,
            name,
            start: Instant::now(),
            parent,
            req,
            child_ns: 0,
        });
        self.next_id += 1;
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end = Instant::now();
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = nanos_between(open.start, end);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let totals = match self.totals.iter_mut().find(|(n, _)| *n == open.name) {
            Some((_, t)) => t,
            None => {
                self.totals.push((open.name, Totals::default()));
                &mut self.totals.last_mut().expect("just pushed").1
            }
        };
        totals.count += 1;
        totals.total_ns += dur;
        totals.self_ns += dur.saturating_sub(open.child_ns);
        if self.spans.len() < STORED_SPANS {
            self.spans.push(Span {
                id: open.id,
                name: open.name,
                start_ns: nanos_between(self.epoch, open.start),
                end_ns: nanos_between(self.epoch, end),
                parent: open.parent,
                req: open.req,
            });
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, req);
        let out = f();
        self.exit();
        out
    }

    pub fn totals(&self, name: &str) -> Totals {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }

    /// Mean self time per call of `name`, in ns (0 when never entered).
    pub fn self_ns_per_call(&self, name: &str) -> f64 {
        let t = self.totals(name);
        if t.count == 0 {
            0.0
        } else {
            t.self_ns as f64 / t.count as f64
        }
    }

    /// The span file: stored spans, then per-name self-time totals.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_total\":{},\"spans\":[",
            self.next_id
        );
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{sep}\n{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                sp.id, sp.name, sp.start_ns, sp.end_ns, sp.req
            );
        }
        s.push_str("\n],\"self_time\":[");
        for (i, (name, t)) in self.totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// Replay `commands` commands of `spec`'s client stream (same generator,
/// seeded with `spec.seed`) through the layers a request crosses on this
/// workload: generation, RESP encode and decode, shard routing, the SoC
/// cache (cache workloads only), store execution and the replication
/// backlog. Each layer call is one span under a `replay.cmd` span whose
/// `req` is the command's index. The store runs with the clock at 0 (the
/// workloads set no TTLs).
pub fn replay(spec: &RunSpec, commands: u64, tracer: &mut Tracer) {
    let cfg = &spec.cfg;
    let workload = ClientWorkload {
        pipeline: spec.pipeline,
        set_ratio: spec.set_ratio,
        mset_keys: spec.mset_keys,
        key_space: spec.key_space,
        value_size: spec.value_size,
        zipf_theta: spec.zipf_theta,
        zipf_shift_every: spec.zipf_shift_every,
        start_at: SimTime::ZERO,
        stop_at: SimTime::ZERO,
    };
    let mut gen = WorkloadGen::new(&workload, DetRng::new(spec.seed));
    let router = ShardRouter::new(cfg.num_shards);
    let mut engines: Vec<Engine> = (0..cfg.num_shards)
        .map(|i| Engine::new(spec.seed ^ (i as u64 + 1)))
        .collect();
    let mut backlog = Backlog::new(cfg.backlog_size);
    let mut cache = cfg.hot_cache_enabled().then(|| {
        let kind = CachePolicyKind::parse(&cfg.hot_cache_policy).expect("validated policy name");
        HotCache::new(cfg.hot_cache_bytes, kind)
    });
    for req in 0..commands {
        tracer.enter("replay.cmd", req);
        let (cmd, is_write) = tracer.span("client.gen", req, || gen.next_command());
        let bytes = tracer.span("resp.encode", req, || cmd.encode());
        let args = tracer.span("resp.decode", req, || match Resp::decode(&bytes) {
            Decoded::Frame(frame, _) => frame.into_command_args().ok(),
            _ => None,
        });
        let args = args.expect("generated commands decode");
        let plan = tracer.span("shard.plan", req, || router.plan(&args));
        let shard = match plan {
            RoutePlan::Single(s) => s,
            _ => 0,
        };
        let key = args.get(1).cloned().unwrap_or_default();
        let mut served = false;
        if let (Some(c), false) = (cache.as_mut(), is_write) {
            served = tracer.span("hotcache.get", req, || {
                c.touch(&key);
                c.get(&key).is_some()
            });
        }
        if !served {
            let engine = &mut engines[shard];
            let result = tracer.span("store.exec", req, || engine.execute(0, &args));
            if result.should_replicate() {
                tracer.span("store.backlog_feed", req, || backlog.feed(&bytes));
                if let Some(c) = cache.as_mut() {
                    c.invalidate(&key);
                }
            } else if let (Some(c), Resp::Bulk(_)) = (cache.as_mut(), &result.reply) {
                // Like the SoC front end, admit only present values.
                let reply = Frame::from_vec(result.reply.encode());
                let version = backlog.offset();
                tracer.span("hotcache.admit", req, || c.admit(&key, reply, version));
            }
            black_box(&result);
        }
        tracer.exit();
    }
    black_box(&backlog);
}
