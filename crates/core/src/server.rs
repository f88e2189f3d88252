//! Host-KV: the server process running on a host (master or slave).
//!
//! One actor type plays every server role in every mode:
//!
//! * **master** — executes client commands on a single-threaded event loop
//!   (core 0), feeds the replication backlog, and propagates write commands:
//!   * `TcpRedis` / `RdmaRedis`: sends the stream to each synced slave
//!     itself, one message (= one Work Request, = one chunk of host CPU)
//!     per slave per command — the serial fan-out §V-C blames for the
//!     degradation of Figure 7;
//!   * `Skv`: sends **one** replication request to Nic-KV (Figure 9 ①) and
//!     immediately returns to serving clients;
//! * **slave** — runs the initial synchronization of Figure 8 (request via
//!   Nic-KV, RDB or backlog transfer from the master), then applies the
//!   replication stream and reports progress.
//!
//! Replication stream frames carry the master-history offset of their first
//! byte, so receivers deduplicate overlaps (sync rides concurrently with
//! steady-state fan-out) and detect gaps (a crashed-and-recovered slave
//! re-requests synchronization from its last applied offset).

use skv_netsim::{CqId, DetMap, Frame, Net, NetEvent, NodeId, QpId, SocketAddr, TcpConnId};
use skv_simcore::stats::Counters;
use skv_simcore::{
    Actor, ActorId, Context, CorePool, DetRng, FramePool, Payload, SimDuration, SimTime,
};
use skv_store::backlog::Backlog;
use skv_store::cmd::CommandSpec;
use skv_store::db::Db;
use skv_store::engine::{Engine, ExecResult};
use skv_store::rdb;
use skv_store::repl::{ReplicationId, ReplicationPosition};
use skv_store::resp::{Decoded, Resp};

use std::collections::VecDeque;

use crate::channel::{Channel, ChannelMsg};
use crate::config::{ClusterConfig, Mode};
use crate::cqdrain;
use crate::protocol::{tag, NodeMsg, ReplyOrder};
use crate::replmode::{self, ReplModeKind};
use crate::shard::{ApplyRing, RoutePlan, ShardRouter, APPLY_RING_CAP, CROSS_SHARD_HOP};

/// Maximum bytes per RDB transfer chunk.
const RDB_CHUNK: usize = 64 * 1024;
/// Maximum bytes per backlog-range replication frame (after the header).
const STREAM_CHUNK: usize = 32 * 1024;

/// Most stream frames a slave keeps stashed while a sync is in flight.
/// Anything dropped past the cap is re-sent by the resync stream itself.
const STASH_CAP: usize = 1024;

/// External control events injected by the harness.
#[derive(Debug, Clone)]
pub enum Control {
    /// Make this server a slave of `master`; in SKV mode `nic` is the
    /// master's Nic-KV address to send the sync request to (Fig. 8 ①).
    Slaveof {
        /// The master's Host-KV address.
        master: SocketAddr,
        /// The master's Nic-KV address, if offloading is in use.
        nic: Option<SocketAddr>,
    },
    /// Crash this server (stops responding; its node drops traffic).
    Crash,
    /// Recover from a crash; a synced slave re-requests synchronization.
    Recover,
    /// Master only: open the channel to its Nic-KV (SKV mode).
    ConnectNic {
        /// The Nic-KV address on the SmartNIC SoC.
        nic: SocketAddr,
    },
}

/// Messages the server schedules to itself.
enum ServerMsg {
    /// Cron tick: expire cycle, rehash, progress report.
    Cron,
    /// CPU work finished; emit the prepared frames.
    SendFrames(Vec<OutFrame>),
    /// The RDB persist (on the background core) completed.
    PersistDone {
        slave: SocketAddr,
        position: ReplicationPosition,
        snapshot: Vec<u8>,
        start_offset: u64,
    },
    /// Backoff expired: retry the dial recorded in `intents` for `to`.
    Redial { to: SocketAddr },
}

struct OutFrame {
    conn: usize,
    tag: u32,
    payload: Frame,
    /// The [`ReplyOrder`] ticket of a direct client reply; `None` for
    /// every other frame.
    ticket: Option<u64>,
}

/// A client reply the master is holding until the replication mode
/// commits the covering offset (quorum/chain modes only).
struct PendingReply {
    /// Backlog offset one past the write this reply acknowledges.
    end_offset: u64,
    conn: usize,
    /// `REPLY` for a direct client, `FWD_REPLY` (cookie-framed payload)
    /// for a command relayed by the SoC front-end.
    tag: u32,
    payload: Frame,
    /// The direct client reply's [`ReplyOrder`] ticket.
    ticket: Option<u64>,
}

/// What a connection is for (learned from traffic or connect intent).
enum ConnKind {
    Unknown,
    Client,
    /// The master's channel to its Nic-KV.
    Nic,
    /// A master's channel to one synced slave.
    Slave {
        addr: SocketAddr,
        reported_offset: u64,
    },
    /// A slave's channel from/to its master.
    Master,
}

struct ConnState {
    channel: Channel,
    kind: ConnKind,
    open: bool,
    /// The listen address we dialled (outbound conns only; inbound peers
    /// show an ephemeral port we can't route back to).
    peer: Option<SocketAddr>,
    /// Keeps this connection's client replies in request order.
    replies: ReplyOrder,
}

/// Why we are dialling out, keyed by remote address.
enum ConnectIntent {
    /// Master → slave, to run the initial sync; frames to send when ready.
    SyncSlave { frames: Vec<(u32, Frame)> },
    /// To the coordination upstream — the master dialling its Nic-KV, or a
    /// slave dialling Nic-KV (SKV) / the master (baselines); frames to send
    /// once the channel is ready.
    SyncUpstream { frames: Vec<(u32, Frame)> },
}

/// Replication role.
enum Role {
    Master,
    Slave {
        master: SocketAddr,
        nic: Option<SocketAddr>,
        syncing: bool,
        /// RDB accumulation during a full sync.
        rdb_expect: u64,
        rdb_buf: Vec<u8>,
        rdb_start_offset: u64,
        /// Stream frames that arrived while syncing or beyond a gap
        /// (zero-copy views of the delivery frames).
        stash: Vec<(u64, Frame)>,
        /// Guard so a detected gap triggers at most one resync at a time.
        resyncing: bool,
    },
}

/// The Host-KV server actor.
pub struct KvServer {
    net: Net,
    cfg: ClusterConfig,
    node: NodeId,
    addr: SocketAddr,
    /// One CQ per shard; `cqs[0]` is the primary (listen/dial) CQ and the
    /// only one at `num_shards = 1`. Inbound accepts round-robin across
    /// the set, and each CQ's drain loop runs on its shard's core.
    cqs: Vec<CqId>,
    /// Round-robin cursor for spreading accepted QPs over `cqs`.
    accept_cursor: usize,
    cpu: CorePool,
    /// One engine per shard; `engines[0]` is the whole store at
    /// `num_shards = 1` and holds shard 0's slot range otherwise.
    engines: Vec<Engine>,
    /// Slot-range router over `cfg.num_shards` shards.
    router: ShardRouter,
    /// Sharded slave apply pipeline: bounded ring between the parse core
    /// and the apply core (unused at `num_shards = 1`).
    apply_ring: ApplyRing,
    /// Monotonic floor for REPL_STREAM emission times: shard cores finish
    /// out of order, but the stream must leave in backlog-offset order.
    repl_egress_at: SimTime,
    /// Commands executed per shard (`shard.ops`).
    shard_ops: Vec<u64>,
    /// Cross-shard fragment handoffs (`shard.cross_msgs`).
    shard_cross_msgs: u64,
    backlog: Backlog,
    repl_id: ReplicationId,
    role: Role,
    conns: Vec<ConnState>,
    by_qp: DetMap<QpId, usize>,
    by_tcp: DetMap<TcpConnId, usize>,
    intents: DetMap<SocketAddr, ConnectIntent>,
    /// Slaves considered available (from Nic-KV updates, or own census in
    /// baseline modes). Drives `min-slaves` rejection.
    available_slaves: usize,
    /// Whether any synced slave lags more than `max_slave_lag` bytes.
    lag_exceeded: bool,
    crashed: bool,
    /// Remembered SLAVEOF target so a promoted slave can rejoin on Demote.
    prior_slave_of: Option<(SocketAddr, Option<SocketAddr>)>,
    /// Master (SKV): Nic-KV is unreachable, replication fan-out runs
    /// host-driven (RDMA-Redis style) until the SoC comes back.
    degraded: bool,
    /// Degradation windows `(entered, exited)` for timeline reports.
    pub degraded_periods: Vec<(SimTime, Option<SimTime>)>,
    /// Master: remembered ConnectNic target for redials after NIC death.
    nic_addr: Option<SocketAddr>,
    /// Master: last traffic seen from Nic-KV (silence ⇒ degrade).
    nic_last_seen: Option<SimTime>,
    /// Slave: last traffic seen from the coordination upstream.
    upstream_last_seen: Option<SimTime>,
    /// Consecutive failed dials per target, for exponential backoff.
    reconnect_attempts: DetMap<SocketAddr, u32>,
    /// Rate limit for cron-driven upstream redials.
    next_upstream_retry: SimTime,
    /// When the last SyncRequest left, so cron can re-issue one that got
    /// lost in flight (e.g. relayed through a Nic-KV with no master link).
    sync_request_at: Option<SimTime>,
    /// Seeded from `seed` at construction, replaced by a split of the
    /// simulation RNG in `on_start` (so actor start order matters, not OS
    /// state). Never absent — no unwrap on the command path.
    rng: DetRng,
    started: bool,
    /// Statistics: commands executed, replication frames sent, etc.
    pub stat_commands: u64,
    /// Write commands rejected due to `min-slaves` or lag.
    pub stat_rejected: u64,
    /// Stream bytes applied (slave side).
    pub stat_applied_bytes: u64,
    /// Full syncs served (master) or performed (slave).
    pub stat_full_syncs: u64,
    /// Partial syncs served (master) or performed (slave).
    pub stat_partial_syncs: u64,
    /// Dial retries issued after connect failures.
    pub stat_reconnects: u64,
    /// Connections torn down after transport errors.
    pub stat_conn_errors: u64,
    /// Times the master fell back to host-driven fan-out (SKV mode).
    pub stat_degradations: u64,
    /// Doorbells rung by the command path (reply + replication posts; one
    /// per `post_send` call, one per batch in `batch_wr_posts` mode).
    pub stat_doorbells: u64,
    /// WRs posted by the command path — identical whether batched or not;
    /// batching amortizes doorbells, never work requests.
    pub stat_wrs_posted: u64,
    /// Master, deferred modes: replies held back for commit, FIFO by
    /// `end_offset` (the backlog only grows, so pushes are ordered).
    pending_replies: VecDeque<PendingReply>,
    /// Master, deferred modes: highest offset Nic-KV reported committed.
    commit_upto: u64,
    /// Slave, chain mode: highest applied offset already WriteAck'd.
    last_write_ack: u64,
    /// Client replies deferred behind replication commit (quorum/chain).
    pub stat_deferred_replies: u64,
    /// Client replies that finished ahead of an earlier request's reply
    /// on the same connection and waited for it.
    pub stat_held_replies: u64,
    /// Deferred replies released after a commit or census advance.
    pub stat_released_replies: u64,
    /// The replication mode currently in force. Equals `cfg.repl_mode`
    /// unless a `NodeMsg::ModeChange` from Nic-KV moved it (the
    /// `mode_failover` degrade/re-promote path).
    active_mode: ReplModeKind,
    /// Mode transitions applied from `NodeMsg::ModeChange`.
    pub stat_mode_changes: u64,
    /// Send-ring pool for wire frames (TCP framing) and replication
    /// stream frames; shared by every channel this server owns.
    pool: FramePool,
}

impl KvServer {
    /// Create a server bound to `addr` on `node`.
    pub fn new(net: Net, cfg: ClusterConfig, node: NodeId, addr: SocketAddr, seed: u64) -> Self {
        let num_shards = cfg.num_shards.max(1);
        // One core per shard plus the background persist core; the legacy
        // single-shard floor of 2 is unchanged.
        let cores = cfg.machines.host_cores.max(num_shards + 1).max(2);
        // Shard 0 keeps the historical seed byte-for-byte; extra shards
        // derive theirs so no shared RNG draw order changes.
        let engines = (0..num_shards)
            .map(|s| {
                if s == 0 {
                    Engine::new(seed)
                } else {
                    Engine::new(seed ^ (0x51AD_0000 + s as u64))
                }
            })
            .collect();
        KvServer {
            net,
            node,
            addr,
            cqs: Vec::new(),
            accept_cursor: 0,
            cpu: CorePool::new(cores, cfg.machines.host_core_speed),
            engines,
            router: ShardRouter::new(num_shards),
            apply_ring: ApplyRing::new(APPLY_RING_CAP),
            repl_egress_at: SimTime::ZERO,
            shard_ops: vec![0; num_shards],
            shard_cross_msgs: 0,
            backlog: Backlog::new(cfg.backlog_size),
            repl_id: ReplicationId::from_seed(seed ^ 0xCAFE),
            role: Role::Master,
            conns: Vec::new(),
            by_qp: DetMap::new(),
            by_tcp: DetMap::new(),
            intents: DetMap::new(),
            available_slaves: 0,
            lag_exceeded: false,
            crashed: false,
            prior_slave_of: None,
            degraded: false,
            degraded_periods: Vec::new(),
            nic_addr: None,
            nic_last_seen: None,
            upstream_last_seen: None,
            reconnect_attempts: DetMap::new(),
            next_upstream_retry: SimTime::ZERO,
            sync_request_at: None,
            rng: DetRng::new(seed ^ 0xD1CE),
            started: false,
            active_mode: cfg.repl_mode,
            stat_mode_changes: 0,
            cfg,
            stat_commands: 0,
            stat_rejected: 0,
            stat_applied_bytes: 0,
            stat_full_syncs: 0,
            stat_partial_syncs: 0,
            stat_reconnects: 0,
            stat_conn_errors: 0,
            stat_degradations: 0,
            stat_doorbells: 0,
            stat_wrs_posted: 0,
            pending_replies: VecDeque::new(),
            commit_upto: 0,
            last_write_ack: 0,
            stat_deferred_replies: 0,
            stat_held_replies: 0,
            stat_released_replies: 0,
            // Sized for a typical wire frame (4 KiB value + headers); the
            // slab keeps enough buffers for a deep pipeline of in-flight
            // sends and grown buffers keep their capacity when recycled.
            pool: FramePool::new(4096 + 64, 256),
        }
    }

    /// The send-ring pool (tests assert the steady-state hit rate here).
    pub fn send_pool(&self) -> &FramePool {
        &self.pool
    }

    /// Is the master currently running host-driven fallback fan-out
    /// because its Nic-KV is unreachable?
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// This server's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shard 0's engine (the whole store at `num_shards = 1`), for test
    /// inspection.
    pub fn engine(&self) -> &Engine {
        &self.engines[0]
    }

    /// Mutable access to shard 0's engine, for tests that poke state
    /// directly. Sharded callers should use [`KvServer::preload`], which
    /// routes by key. Mutations made this way bypass the backlog, so they
    /// only reach slaves through a subsequent full sync.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engines[0]
    }

    /// Execute a command at simulated time zero, routed to the owning
    /// shard(s) — for preloading data in tests, examples, and benches
    /// *before* replication starts. Bypasses the backlog like
    /// [`KvServer::engine_mut`] did.
    pub fn preload(&mut self, parts: &[&str]) -> ExecResult {
        let args: Vec<Vec<u8>> = parts.iter().map(|p| p.as_bytes().to_vec()).collect();
        let (result, _, _) = self.execute_routed(0, &args);
        result
    }

    /// Stable fingerprint of the full logical keyspace, merged across
    /// shards (equal to the single engine's digest at `num_shards = 1`).
    pub fn keyspace_digest(&self) -> u64 {
        let engines: Vec<&Engine> = self.engines.iter().collect();
        Engine::keyspace_digest_merged(&engines)
    }

    /// All shard engines, shard 0 first (one entry at `num_shards = 1`).
    pub fn engines(&self) -> &[Engine] {
        &self.engines
    }

    /// Commands executed per shard (the `shard.ops` counters).
    pub fn shard_ops(&self) -> &[u64] {
        &self.shard_ops
    }

    /// Cross-shard fragment handoffs performed (`shard.cross_msgs`).
    pub fn shard_cross_msgs(&self) -> u64 {
        self.shard_cross_msgs
    }

    /// Deepest occupancy the slave apply ring reached
    /// (`shard.queue_depth`; 0 unless this server applied a stream with
    /// `num_shards > 1`).
    pub fn apply_queue_depth(&self) -> u64 {
        u64::try_from(self.apply_ring.max_depth).unwrap_or(u64::MAX)
    }

    /// Write this server's counters into `out`, zero or not: every
    /// `server.stat_*` field, the `shard.*` engine counters and the
    /// `store.stat_*` counters of its engines. Counts add up across
    /// servers; `shard.queue_depth` is a high-water mark, so it keeps
    /// the maximum instead.
    pub fn add_counters(&self, out: &mut Counters) {
        out.add("server.stat_commands", self.stat_commands);
        out.add("server.stat_rejected", self.stat_rejected);
        out.add("server.stat_applied_bytes", self.stat_applied_bytes);
        out.add("server.stat_full_syncs", self.stat_full_syncs);
        out.add("server.stat_partial_syncs", self.stat_partial_syncs);
        out.add("server.stat_reconnects", self.stat_reconnects);
        out.add("server.stat_conn_errors", self.stat_conn_errors);
        out.add("server.stat_degradations", self.stat_degradations);
        out.add("server.stat_doorbells", self.stat_doorbells);
        out.add("server.stat_wrs_posted", self.stat_wrs_posted);
        out.add("server.stat_deferred_replies", self.stat_deferred_replies);
        out.add("server.stat_released_replies", self.stat_released_replies);
        out.add("server.stat_held_replies", self.stat_held_replies);
        out.add("server.stat_mode_changes", self.stat_mode_changes);
        out.add("shard.ops", self.shard_ops.iter().sum());
        out.add("shard.cross_msgs", self.shard_cross_msgs);
        let depth = self.apply_queue_depth();
        out.add(
            "shard.queue_depth",
            depth.saturating_sub(out.get("shard.queue_depth")),
        );
        for engine in &self.engines {
            let db = engine.db();
            let (hits, misses) = db.stats_hit_miss();
            out.add("store.stat_hits", hits);
            out.add("store.stat_misses", misses);
            out.add("store.stat_expired", db.stat_expired());
        }
    }

    /// Master replication offset.
    pub fn repl_offset(&self) -> u64 {
        self.backlog.offset()
    }

    /// This server's replication position (slave view).
    pub fn position(&self) -> ReplicationPosition {
        ReplicationPosition {
            repl_id: self.repl_id,
            offset: self.backlog.offset(),
        }
    }

    /// Is this server currently acting as a master?
    pub fn is_master(&self) -> bool {
        matches!(self.role, Role::Master)
    }

    /// Is a slave fully synchronized?
    pub fn is_synced_slave(&self) -> bool {
        matches!(self.role, Role::Slave { syncing: false, .. })
    }

    /// Mean utilization of the event-loop core over the run so far.
    pub fn core0_utilization(&self, now: SimTime) -> f64 {
        self.cpu.utilization(0, now)
    }

    fn now_ms(ctx: &Context<'_>) -> u64 {
        ctx.now().as_nanos() / 1_000_000
    }

    fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    // -- connection plumbing -------------------------------------------------

    fn add_conn(
        &mut self,
        mut channel: Channel,
        kind: ConnKind,
        peer: Option<SocketAddr>,
    ) -> usize {
        channel.use_pool(self.pool.clone());
        let idx = self.conns.len();
        if let Some(qp) = channel.qp() {
            self.by_qp.insert(qp, idx);
        }
        if let Some(tc) = channel.tcp_conn() {
            self.by_tcp.insert(tc, idx);
        }
        self.conns.push(ConnState {
            channel,
            kind,
            open: true,
            peer,
            replies: ReplyOrder::default(),
        });
        idx
    }

    fn send_on(&mut self, ctx: &mut Context<'_>, conn: usize, tag: u32, payload: impl Into<Frame>) {
        if !self.conns[conn].open {
            return;
        }
        let net = self.net.clone();
        self.conns[conn].channel.send(&net, ctx, tag, payload);
        if self.conns[conn].channel.broken() {
            self.on_conn_broken(ctx, conn);
        }
    }

    fn dial(&mut self, ctx: &mut Context<'_>, to: SocketAddr, intent: ConnectIntent) {
        self.intents.insert(to, intent);
        self.connect_to(ctx, to);
    }

    fn conn_of_kind(&self, pred: impl Fn(&ConnKind) -> bool) -> Option<usize> {
        self.conns.iter().position(|c| c.open && pred(&c.kind))
    }

    fn synced_slave_conns(&self) -> Vec<usize> {
        self.conns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.open && matches!(c.kind, ConnKind::Slave { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    fn open_conn_to(&self, addr: SocketAddr) -> Option<usize> {
        self.conns
            .iter()
            .position(|c| c.open && c.peer == Some(addr))
    }

    // -- failure handling ----------------------------------------------------

    /// Close a connection and release its transport resources.
    fn close_conn(&mut self, conn: usize) {
        if !self.conns[conn].open {
            return;
        }
        self.conns[conn].open = false;
        if let Some(qp) = self.conns[conn].channel.qp() {
            self.net.destroy_qp(qp);
        }
    }

    /// A connection's transport failed: tear it down and start whatever
    /// recovery its role requires.
    fn on_conn_broken(&mut self, ctx: &mut Context<'_>, conn: usize) {
        if !self.conns[conn].open {
            return;
        }
        self.stat_conn_errors += 1;
        self.close_conn(conn);
        match self.conns[conn].kind {
            ConnKind::Nic if self.is_master() && self.cfg.mode == Mode::Skv => {
                // The channel to Nic-KV died: fall back to host-driven
                // fan-out and keep redialling until the SoC returns.
                self.enter_degraded(ctx.now());
                self.redial_nic(ctx);
            }
            ConnKind::Nic | ConnKind::Master => {
                // A slave lost its upstream: re-request sync from the
                // current offset (served from the backlog when possible).
                self.schedule_upstream_resync(ctx);
            }
            _ => {} // clients and slave conns re-establish themselves
        }
    }

    fn enter_degraded(&mut self, now: SimTime) {
        if self.cfg.mode != Mode::Skv || !self.is_master() || self.degraded {
            return;
        }
        self.degraded = true;
        self.stat_degradations += 1;
        self.degraded_periods.push((now, None));
        // Stop queueing frames on the dead NIC channel.
        if let Some(conn) = self.conn_of_kind(|k| matches!(k, ConnKind::Nic)) {
            self.close_conn(conn);
        }
    }

    fn exit_degraded(&mut self, now: SimTime) {
        if !self.degraded {
            return;
        }
        self.degraded = false;
        if let Some(last) = self.degraded_periods.last_mut() {
            last.1 = Some(now);
        }
    }

    /// Master: dial the remembered Nic-KV address again (no-op while a dial
    /// for it is already pending).
    fn redial_nic(&mut self, ctx: &mut Context<'_>) {
        let Some(nic) = self.nic_addr else { return };
        if self.intents.contains_key(&nic) {
            return;
        }
        let hello = NodeMsg::Hello {
            from: self.addr,
            is_master: true,
        }
        .encode();
        self.dial(
            ctx,
            nic,
            ConnectIntent::SyncUpstream {
                frames: vec![(tag::NODE, hello.into())],
            },
        );
    }

    /// Slave: re-request synchronization from the current offset.
    fn schedule_upstream_resync(&mut self, ctx: &mut Context<'_>) {
        let Role::Slave { resyncing, .. } = &mut self.role else {
            return;
        };
        *resyncing = false;
        // Restart the silence clock so we don't double-trigger.
        self.upstream_last_seen = Some(ctx.now());
        let pos = ReplicationPosition {
            repl_id: self.repl_id,
            offset: self.slave_offset(),
        };
        self.send_sync_request(ctx, pos);
    }

    /// A dial failed: back off exponentially and retry, giving up after a
    /// bounded number of attempts (cron re-seeds long-lived intents).
    fn on_connect_failed(&mut self, ctx: &mut Context<'_>, to: SocketAddr) {
        if !self.intents.contains_key(&to) {
            return;
        }
        let attempts = {
            let e = self.reconnect_attempts.or_insert(to, 0);
            *e += 1;
            *e
        };
        // A slave that cannot reach Nic-KV and has no working upstream at
        // all falls back to syncing straight from the master.
        if let Role::Slave {
            master,
            nic: Some(nic),
            ..
        } = &self.role
        {
            let (master, nic) = (*master, *nic);
            if to == nic
                && attempts >= 2
                && master != nic
                && !self.intents.contains_key(&master)
                && self.open_conn_to(master).is_none()
                && self
                    .conn_of_kind(|k| matches!(k, ConnKind::Master))
                    .is_none()
            {
                if let Some(intent) = self.intents.remove(&to) {
                    self.reconnect_attempts.remove(&to);
                    self.intents.insert(master, intent);
                    ctx.timer(self.cfg.reconnect_base, ServerMsg::Redial { to: master });
                    return;
                }
            }
        }
        if attempts > self.cfg.reconnect_max_attempts {
            self.intents.remove(&to);
            self.reconnect_attempts.remove(&to);
            return;
        }
        let delay = self.cfg.reconnect_delay(attempts);
        ctx.timer(delay, ServerMsg::Redial { to });
    }

    /// Re-issue the transport connect for an intent that is still wanted.
    fn connect_to(&mut self, ctx: &mut Context<'_>, to: SocketAddr) {
        let me = ctx.id();
        if self.cfg.mode.uses_rdma() {
            let Some(&cq) = self.cqs.first() else {
                // Dial before on_start created the CQ: surface it as a
                // failed connect so the backoff machinery retries.
                ctx.send(me, NetEvent::CmConnectFailed { to });
                return;
            };
            self.net.rdma_connect(ctx, self.node, me, cq, to);
        } else {
            self.net.tcp_connect(ctx, self.node, me, to);
        }
    }

    // -- command path --------------------------------------------------------

    /// Handle one client command frame (TAG_CMD).
    fn on_client_command(&mut self, ctx: &mut Context<'_>, conn: usize, payload: Frame) {
        if matches!(self.conns[conn].kind, ConnKind::Unknown) {
            self.conns[conn].kind = ConnKind::Client;
        }
        self.run_command(ctx, conn, payload, None);
    }

    /// Handle one SoC-relayed command frame (TAG_FWD_CMD): an 8-byte LE
    /// cookie followed by the original RESP command. The connection keeps
    /// its Nic kind — the front-end multiplexes many clients over it.
    fn on_forwarded_command(&mut self, ctx: &mut Context<'_>, conn: usize, payload: &Frame) {
        let Some(header) = payload.get(..8) else {
            return;
        };
        let Ok(cookie_bytes) = <[u8; 8]>::try_from(header) else {
            return;
        };
        let cookie = u64::from_le_bytes(cookie_bytes);
        let body: Frame = payload[8..].to_vec().into();
        self.run_command(ctx, conn, body, Some(cookie));
    }

    /// The shared command path behind both entry points. `fwd` carries a
    /// relay cookie when the command came through the SoC front-end; its
    /// reply then leaves as a cookie-framed `FWD_REPLY` on `conn`.
    fn run_command(&mut self, ctx: &mut Context<'_>, conn: usize, payload: Frame, fwd: Option<u64>) {
        let args = match Resp::decode(&payload) {
            Decoded::Frame(v, _) => match v.into_command_args() {
                Ok(args) => args,
                Err(e) => {
                    let reply = Resp::err(e).encode();
                    self.finish_command(ctx, conn, payload.len(), reply, None, (0, SimDuration::ZERO), fwd);
                    return;
                }
            },
            _ => {
                let reply = Resp::err("protocol error").encode();
                self.finish_command(ctx, conn, payload.len(), reply, None, (0, SimDuration::ZERO), fwd);
                return;
            }
        };

        // min-slaves / lag write gating (paper §III-C, §III-D).
        let spec = skv_store::cmd::lookup(&args[0]);
        let is_write_cmd = spec.is_some_and(CommandSpec::is_write);
        if is_write_cmd && self.write_gate_blocked() {
            self.stat_rejected += 1;
            let reply = Resp::Error("NOREPLICAS Not enough good replicas to write".into()).encode();
            self.finish_command(ctx, conn, payload.len(), reply, None, (0, SimDuration::ZERO), fwd);
            return;
        }

        let (result, shard, cross_cost) = self.execute_routed(Self::now_ms(ctx), &args);
        self.stat_commands += 1;
        let replicate = if result.should_replicate() {
            // The *original* command bytes are replicated even for split
            // executions; slaves re-route them with the same slot map.
            Some(payload.clone())
        } else {
            None
        };
        let reply = result.reply.encode();
        self.finish_command(ctx, conn, payload.len(), reply, replicate, (shard, cross_cost), fwd);
    }

    /// Execute one command against the shard set: route to the owning
    /// shard, or split/broadcast a cross-shard command and merge replies.
    /// Returns the merged result, the primary shard (whose core pays the
    /// command cost), and the inter-shard hop cost (zero unless the
    /// command actually crossed shards). With one shard this is exactly
    /// the historical single-engine call.
    fn execute_routed(
        &mut self,
        now_ms: u64,
        args: &[Vec<u8>],
    ) -> (ExecResult, usize, SimDuration) {
        if self.engines.len() == 1 {
            self.shard_ops[0] += 1;
            return (self.engines[0].execute(now_ms, args), 0, SimDuration::ZERO);
        }
        let plan = self.router.plan(args);
        match plan {
            RoutePlan::Single(shard) => {
                self.shard_ops[shard] += 1;
                (self.engines[shard].execute(now_ms, args), shard, SimDuration::ZERO)
            }
            RoutePlan::Broadcast => {
                let mut merged: Option<ExecResult> = None;
                for shard in 0..self.engines.len() {
                    self.shard_ops[shard] += 1;
                    let r = self.engines[shard].execute(now_ms, args);
                    merged = Some(match merged {
                        None => r,
                        Some(mut acc) => {
                            acc.dirty_delta += r.dirty_delta;
                            acc.bytes_touched += r.bytes_touched;
                            acc
                        }
                    });
                }
                let hops = self.engines.len() - 1;
                self.shard_cross_msgs += hops as u64;
                let result = merged.unwrap_or_else(|| ExecResult {
                    reply: Resp::ok(),
                    dirty_delta: 0,
                    is_write: true,
                    bytes_touched: 0,
                });
                (result, 0, CROSS_SHARD_HOP * (hops as u64))
            }
            RoutePlan::SplitPairs => self.execute_split_pairs(now_ms, args),
            RoutePlan::SplitSum | RoutePlan::SplitGather => {
                self.execute_split_keys(now_ms, args, plan == RoutePlan::SplitGather)
            }
            RoutePlan::CrossSlot => {
                let reply =
                    Resp::Error("CROSSSLOT Keys in request don't hash to the same slot".into());
                let shard = args.get(1).map_or(0, |k| self.router.shard_of_key(k));
                (
                    ExecResult {
                        reply,
                        dirty_delta: 0,
                        is_write: false,
                        bytes_touched: 0,
                    },
                    shard,
                    SimDuration::ZERO,
                )
            }
        }
    }

    /// MSET split: partition the `key value` pairs by owning shard and
    /// run one sub-MSET per shard (ascending shard order, so the schedule
    /// is a pure function of the key set).
    fn execute_split_pairs(
        &mut self,
        now_ms: u64,
        args: &[Vec<u8>],
    ) -> (ExecResult, usize, SimDuration) {
        let mut per_shard: Vec<Vec<Vec<u8>>> = vec![Vec::new(); self.engines.len()];
        for pair in args[1..].chunks(2) {
            if let [key, value] = pair {
                let shard = self.router.shard_of_key(key);
                per_shard[shard].push(key.clone());
                per_shard[shard].push(value.clone());
            }
        }
        let primary = args.get(1).map_or(0, |k| self.router.shard_of_key(k));
        let mut dirty = 0u64;
        let mut bytes = 0usize;
        let mut touched = 0usize;
        for (shard, mut sub) in per_shard.into_iter().enumerate() {
            if sub.is_empty() {
                continue;
            }
            touched += 1;
            self.shard_ops[shard] += 1;
            let mut sub_args = Vec::with_capacity(sub.len() + 1);
            sub_args.push(args[0].clone());
            sub_args.append(&mut sub);
            let r = self.engines[shard].execute(now_ms, &sub_args);
            dirty += r.dirty_delta;
            bytes += r.bytes_touched;
        }
        let hops = touched.saturating_sub(1);
        self.shard_cross_msgs += hops as u64;
        (
            ExecResult {
                reply: Resp::ok(),
                dirty_delta: dirty,
                is_write: true,
                bytes_touched: bytes,
            },
            primary,
            CROSS_SHARD_HOP * (hops as u64),
        )
    }

    /// Per-key split for DEL/UNLINK/EXISTS (summed integer replies) and
    /// MGET (replies gathered back in original key order).
    fn execute_split_keys(
        &mut self,
        now_ms: u64,
        args: &[Vec<u8>],
        gather: bool,
    ) -> (ExecResult, usize, SimDuration) {
        let keys = &args[1..];
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.engines.len()];
        for (i, key) in keys.iter().enumerate() {
            per_shard[self.router.shard_of_key(key)].push(i);
        }
        let primary = keys.first().map_or(0, |k| self.router.shard_of_key(k));
        let mut sum = 0i64;
        let mut slots: Vec<Resp> = vec![Resp::NullBulk; if gather { keys.len() } else { 0 }];
        let mut dirty = 0u64;
        let mut bytes = 0usize;
        let mut is_write = false;
        let mut touched = 0usize;
        for (shard, indices) in per_shard.iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            touched += 1;
            self.shard_ops[shard] += 1;
            let mut sub_args = Vec::with_capacity(indices.len() + 1);
            sub_args.push(args[0].clone());
            for &i in indices {
                sub_args.push(keys[i].clone());
            }
            let r = self.engines[shard].execute(now_ms, &sub_args);
            dirty += r.dirty_delta;
            bytes += r.bytes_touched;
            is_write |= r.is_write;
            match r.reply {
                Resp::Int(n) => sum += n,
                Resp::Array(items) if gather => {
                    for (slot, item) in indices.iter().zip(items) {
                        slots[*slot] = item;
                    }
                }
                _ => {}
            }
        }
        let reply = if gather {
            Resp::Array(slots)
        } else {
            Resp::Int(sum)
        };
        let hops = touched.saturating_sub(1);
        self.shard_cross_msgs += hops as u64;
        (
            ExecResult {
                reply,
                dirty_delta: dirty,
                is_write,
                bytes_touched: bytes,
            },
            primary,
            CROSS_SHARD_HOP * (hops as u64),
        )
    }

    fn write_gate_blocked(&self) -> bool {
        if !self.is_master() {
            return false; // slaves reject writes elsewhere (read-only is
                          // not enforced: the paper's slaves serve reads)
        }
        // While degraded (Nic-KV dead) the master cannot trust stale NIC
        // updates; fall back to its own census, like the baselines.
        let available = if self.cfg.mode == Mode::Skv && !self.degraded {
            self.available_slaves
        } else {
            self.synced_slave_conns().len()
        };
        if self.cfg.min_slaves > 0 && available < self.cfg.min_slaves {
            return true;
        }
        self.lag_exceeded
    }

    /// Account CPU for a command and schedule its reply + replication.
    /// `route` is `(shard, cross_cost)`: the core that executed the command
    /// (always 0 unsharded) and the inter-shard hop overhead a split
    /// command paid.
    #[allow(clippy::too_many_arguments)]
    fn finish_command(
        &mut self,
        ctx: &mut Context<'_>,
        conn: usize,
        req_bytes: usize,
        reply: Vec<u8>,
        replicate: Option<Frame>,
        route: (usize, SimDuration),
        fwd: Option<u64>,
    ) {
        let (shard, cross_cost) = route;
        let costs = &self.cfg.costs;
        let net_p = &self.cfg.net;
        let payload_kib = req_bytes as f64 / 1024.0;

        let mut cost = costs.cmd_base + costs.cmd_per_kib.mul_f64(payload_kib) + cross_cost;
        let mut wr_posts = 0u32; // WQEs built (the unit of replication work)
        let mut doorbells = 0u32; // post calls; each may stall (tail model)
        let mut frames: Vec<OutFrame> = Vec::with_capacity(2);

        // Quorum/chain modes hold a replicated write's reply until the NIC
        // commits the covering offset; its post cost is charged on release
        // (`release_ready_replies`), not here. Async keeps the original
        // immediate-reply schedule bit for bit.
        let defer = replicate.is_some()
            && self.is_master()
            && replmode::replication_mode(self.active_mode).defers_replies();
        // A direct client reply takes its connection's next ticket here:
        // every command path ends in exactly one `finish_command`, called
        // while the command is handled, so tickets follow arrival order.
        // (The front end orders relayed replies per client itself.)
        let ticket = fwd.is_none().then(|| self.conns[conn].replies.ticket());
        // A forwarded command's reply is re-framed with its relay cookie
        // and leaves under FWD_REPLY.
        let (reply_tag, reply_frame): (u32, Frame) = match fwd {
            Some(cookie) => {
                let mut framed = Vec::with_capacity(8 + reply.len());
                framed.extend_from_slice(&cookie.to_le_bytes());
                framed.extend_from_slice(&reply);
                (tag::FWD_REPLY, framed.into())
            }
            None => (tag::REPLY, reply.into()),
        };
        let reply_len = reply_frame.len();

        // Transport costs for receiving the request and posting the reply.
        match self.cfg.mode {
            Mode::TcpRedis => {
                cost += net_p.tcp_recv_cost(req_bytes);
                if !defer {
                    cost += net_p.tcp_send_cost(reply_len);
                }
            }
            Mode::RdmaRedis | Mode::Skv => {
                // Completion-side CPU (cq_poll_cpu + wc_handle_cpu) is
                // charged where polling happens — the CqNotify drain —
                // not per command; here only the reply's WR post.
                if !defer {
                    cost += net_p.wr_post_cpu;
                    wr_posts += 1;
                    doorbells += 1;
                }
            }
        }
        // A forwarded *dirty* command's ack must chase its own stream
        // frame down the master→NIC channel (the front-end invalidates
        // off the stream before relaying acks), so its reply frame is
        // appended after the replication block instead of here. Direct
        // replies keep the seed's reply-first order bit for bit.
        let reply_after_stream = fwd.is_some() && replicate.is_some();
        if !defer && !reply_after_stream {
            frames.push(OutFrame {
                conn,
                tag: reply_tag,
                payload: reply_frame.clone(),
                ticket,
            });
        }

        // Replication propagation (the heart of the experiment).
        if let Some(cmd_bytes) = replicate {
            let from_offset = self.backlog.offset();
            self.backlog.feed(&cmd_bytes);
            if defer {
                self.stat_deferred_replies += 1;
                self.pending_replies.push_back(PendingReply {
                    end_offset: self.backlog.offset(),
                    conn,
                    tag: reply_tag,
                    payload: reply_frame.clone(),
                    ticket,
                });
            }
            // The stream frame is built in a recycled send-ring buffer —
            // no allocation on the steady-state path — and every recipient
            // below clones the Frame, so N-slave fan-out is N refcount
            // bumps of this one buffer.
            let frame: Frame = self.pool.build(|out| {
                out.extend_from_slice(&from_offset.to_le_bytes());
                out.extend_from_slice(&cmd_bytes);
            });
            match self.cfg.mode {
                Mode::Skv => {
                    // One request to Nic-KV, regardless of slave count
                    // (Figure 9 ①): a single WR post on the host. When the
                    // SoC is dead (degraded mode, or the channel simply
                    // isn't up) the master falls back to RDMA-Redis-style
                    // fan-out so writes keep replicating.
                    let nic_conn = if self.degraded {
                        None
                    } else {
                        self.conn_of_kind(|k| matches!(k, ConnKind::Nic))
                    };
                    if let Some(nic) = nic_conn {
                        cost += net_p.wr_post_cpu;
                        wr_posts += 1;
                        doorbells += 1;
                        frames.push(OutFrame {
                            conn: nic,
                            tag: tag::REPL_STREAM,
                            payload: frame,
                            ticket: None,
                        });
                    } else {
                        let slaves = self.synced_slave_conns();
                        cost += self.host_fanout_cost(slaves.len());
                        wr_posts += u32::try_from(slaves.len()).unwrap_or(u32::MAX);
                        doorbells += self.fanout_doorbells(slaves.len());
                        for slave in slaves {
                            frames.push(OutFrame {
                                conn: slave,
                                tag: tag::REPL_STREAM,
                                payload: frame.clone(),
                                ticket: None,
                            });
                        }
                    }
                }
                Mode::RdmaRedis => {
                    // One WR post per slave on the event loop — the CPU the
                    // paper measures RDMA-Redis burning. Serial doorbells
                    // by default; one linked post list when batching is on.
                    let slaves = self.synced_slave_conns();
                    cost += self.host_fanout_cost(slaves.len());
                    wr_posts += u32::try_from(slaves.len()).unwrap_or(u32::MAX);
                    doorbells += self.fanout_doorbells(slaves.len());
                    for slave in slaves {
                        frames.push(OutFrame {
                            conn: slave,
                            tag: tag::REPL_STREAM,
                            payload: frame.clone(),
                            ticket: None,
                        });
                    }
                }
                Mode::TcpRedis => {
                    for slave in self.synced_slave_conns() {
                        cost += net_p.tcp_send_cost(frame.len());
                        frames.push(OutFrame {
                            conn: slave,
                            tag: tag::REPL_STREAM,
                            payload: frame.clone(),
                            ticket: None,
                        });
                    }
                }
            }
        }
        if !defer && reply_after_stream {
            // The deferred-from-above forwarded ack, now ordered behind
            // its stream frame (its post cost was charged with the reply
            // branch above; only the emission order moved).
            frames.push(OutFrame {
                conn,
                tag: reply_tag,
                payload: reply_frame,
                ticket,
            });
        }

        let jitter = self.cfg.costs.jitter;
        let spike_prob = self.cfg.costs.post_spike_prob;
        let spike_cost = self.cfg.costs.post_spike_cost;
        let mut cost = cost.mul_f64(self.rng().service_jitter(jitter));
        // The stall is doorbell/CQ contention on the MMIO write, so the
        // draw happens once per *doorbell*, not per linked WR: a batched
        // fan-out risks one stall where serial posting risks N. (With
        // batching off, doorbells == wr_posts and the draw sequence is
        // unchanged from the serial model.)
        for _ in 0..doorbells {
            if self.rng().chance(spike_prob) {
                cost += spike_cost;
            }
        }
        self.stat_wrs_posted += u64::from(wr_posts);
        self.stat_doorbells += u64::from(doorbells);
        let done = self.cpu.run_on(shard, ctx.now(), cost).finished;
        self.schedule_frames(ctx, done, frames);
    }

    /// Schedule a handler's staged frames for delivery at `done`. With one
    /// shard this is exactly the historical single timer. With several,
    /// replication-stream frames are serialized through a single egress
    /// point (`repl_egress_at`): shards may finish out of order, but the
    /// backlog is one stream, so stream frames must hit the wire in the
    /// offset order they were fed — the sim's FIFO tie-break at equal
    /// timestamps preserves feed order for frames released together.
    fn schedule_frames(&mut self, ctx: &mut Context<'_>, done: SimTime, frames: Vec<OutFrame>) {
        if self.engines.len() <= 1 {
            ctx.timer_at(done, ServerMsg::SendFrames(frames));
            return;
        }
        if self.cfg.hot_cache_enabled() && frames.iter().any(|f| f.tag == tag::REPL_STREAM) {
            // Cache-coherency ordering: a forwarded write's ack must not
            // outrun its own stream frame through the egress point (the
            // front-end invalidates off the stream *before* relaying
            // acks), so the whole batch — already stream-first — moves
            // through `repl_egress_at` together.
            let at = done.max(self.repl_egress_at);
            self.repl_egress_at = at;
            ctx.timer_at(at, ServerMsg::SendFrames(frames));
            return;
        }
        let (stream, other): (Vec<OutFrame>, Vec<OutFrame>) =
            frames.into_iter().partition(|f| f.tag == tag::REPL_STREAM);
        if !other.is_empty() {
            ctx.timer_at(done, ServerMsg::SendFrames(other));
        }
        if !stream.is_empty() {
            let at = done.max(self.repl_egress_at);
            self.repl_egress_at = at;
            ctx.timer_at(at, ServerMsg::SendFrames(stream));
        }
    }

    /// Host CPU to post a replication fan-out of `n` WRs: `n` serial
    /// doorbells, or one linked post list when `batch_wr_posts` is on.
    fn host_fanout_cost(&self, n: usize) -> SimDuration {
        if self.cfg.batch_wr_posts {
            self.cfg.net.post_list_cpu(n)
        } else {
            self.cfg.net.wr_post_cpu.mul_f64(n as f64)
        }
    }

    /// Doorbells a fan-out of `n` WRs rings under the current config.
    fn fanout_doorbells(&self, n: usize) -> u32 {
        if self.cfg.batch_wr_posts {
            u32::from(n > 0)
        } else {
            u32::try_from(n).unwrap_or(u32::MAX)
        }
    }

    /// Deferred modes, master side: the commit offset derivable from the
    /// master's own view of slave progress, independent of the NIC's
    /// `WriteCommitted` notifications. This is what keeps quorum/chain
    /// semantics working through degraded (host fan-out) periods and
    /// covers the window where a commit notification is lost with the
    /// NIC channel: under quorum, the k-th largest reported offset among
    /// slave conns (k = required slave acks) is replicated on a majority;
    /// under chain, the minimum over all open slave conns (every hop).
    fn census_commit_upto(&self) -> u64 {
        let mode = self.active_mode;
        let mut offs: Vec<u64> = self
            .conns
            .iter()
            .filter(|c| c.open)
            .filter_map(|c| match c.kind {
                ConnKind::Slave {
                    reported_offset, ..
                } => Some(reported_offset),
                _ => None,
            })
            .collect();
        match mode {
            ReplModeKind::Async => u64::MAX,
            ReplModeKind::Quorum => {
                let k = replmode::quorum_slave_acks(self.cfg.num_slaves);
                if k == 0 {
                    return u64::MAX;
                }
                if offs.len() < k {
                    return 0;
                }
                offs.sort_unstable_by(|a, b| b.cmp(a));
                offs[k - 1]
            }
            ReplModeKind::Chain => offs.iter().copied().min().unwrap_or(0),
        }
    }

    /// Release every deferred reply covered by the known commit point,
    /// charging the reply-post CPU that `finish_command` skipped.
    fn release_ready_replies(&mut self, ctx: &mut Context<'_>) {
        if self.pending_replies.is_empty() {
            return;
        }
        let upto = self.commit_upto.max(self.census_commit_upto());
        let mut frames: Vec<OutFrame> = Vec::new();
        let mut cost = SimDuration::ZERO;
        let mut doorbells = 0u32;
        while let Some(front) = self.pending_replies.front() {
            if front.end_offset > upto {
                break;
            }
            let Some(p) = self.pending_replies.pop_front() else {
                break;
            };
            if !self.conns[p.conn].open {
                continue; // client gave up waiting; nothing to deliver
            }
            self.stat_released_replies += 1;
            match self.cfg.mode {
                Mode::TcpRedis => cost += self.cfg.net.tcp_send_cost(p.payload.len()),
                Mode::RdmaRedis | Mode::Skv => {
                    cost += self.cfg.net.wr_post_cpu;
                    self.stat_wrs_posted += 1;
                    doorbells += 1;
                }
            }
            frames.push(OutFrame {
                conn: p.conn,
                tag: p.tag,
                payload: p.payload,
                ticket: p.ticket,
            });
        }
        if frames.is_empty() {
            return;
        }
        let jitter = self.cfg.costs.jitter;
        let spike_prob = self.cfg.costs.post_spike_prob;
        let spike_cost = self.cfg.costs.post_spike_cost;
        let mut cost = cost.mul_f64(self.rng().service_jitter(jitter));
        for _ in 0..doorbells {
            if self.rng().chance(spike_prob) {
                cost += spike_cost;
            }
        }
        self.stat_doorbells += u64::from(doorbells);
        let done = self.cpu.run_on(0, ctx.now(), cost).finished;
        self.schedule_frames(ctx, done, frames);
    }

    /// Deliver the frames a command handler staged. With batching off
    /// this is the historical per-frame `send_on` loop, schedule-identical
    /// to the seed. With `batch_wr_posts` on, replication-stream frames
    /// bound for ready RDMA connections are staged via
    /// [`Channel::build_wr`] and posted as one linked list — a single
    /// doorbell for the whole fan-out — while replies, TCP sends, and
    /// handshake-queued messages still go through `send_on`.
    fn emit_frames(&mut self, ctx: &mut Context<'_>, frames: Vec<OutFrame>) {
        if !self.cfg.batch_wr_posts {
            for f in frames {
                self.send_frame(ctx, f);
            }
            return;
        }
        let mut staged_conns = Vec::new();
        let mut wrs = Vec::new();
        // With the hot cache on, cookie replies ride the same linked post
        // list as the stream frames they must trail — the list preserves
        // per-QP order, where an early `send_on` would overtake the batch.
        let cache_on = self.cfg.hot_cache_enabled();
        for f in frames {
            let batchable = (f.tag == tag::REPL_STREAM || (cache_on && f.tag == tag::FWD_REPLY))
                && self.conns[f.conn].open
                && self.conns[f.conn].channel.qp().is_some();
            if batchable {
                // `None` means the frame was queued behind the MR
                // handshake and will flush when it completes — exactly
                // what `send` would have done.
                if let Some(wr) = self.conns[f.conn].channel.build_wr(f.tag, f.payload) {
                    staged_conns.push(f.conn);
                    wrs.push(wr);
                }
            } else {
                self.send_frame(ctx, f);
            }
        }
        if wrs.is_empty() {
            return;
        }
        let net = self.net.clone();
        let results = net.post_send_batch(ctx, wrs);
        for (conn, result) in staged_conns.into_iter().zip(results) {
            if result.is_err() {
                self.conns[conn].channel.mark_broken();
                self.on_conn_broken(ctx, conn);
            }
        }
    }

    /// Send one staged frame. A direct client reply leaves through its
    /// connection's [`ReplyOrder`]: it waits while an earlier request's
    /// reply is still unsent, and sending it may release replies that
    /// finished behind it.
    fn send_frame(&mut self, ctx: &mut Context<'_>, f: OutFrame) {
        let Some(ticket) = f.ticket else {
            self.send_on(ctx, f.conn, f.tag, f.payload);
            return;
        };
        let Some(reply) = self.conns[f.conn].replies.finish(ticket, f.payload) else {
            self.stat_held_replies += 1;
            return;
        };
        self.send_on(ctx, f.conn, f.tag, reply);
        while let Some(reply) = self.conns[f.conn].replies.next_due() {
            self.send_on(ctx, f.conn, f.tag, reply);
        }
    }

    // -- master-side synchronization ------------------------------------------

    /// A slave asked to synchronize (directly, or relayed by Nic-KV).
    fn on_sync_request(
        &mut self,
        ctx: &mut Context<'_>,
        slave: SocketAddr,
        position: ReplicationPosition,
    ) {
        // Fast path: partial resync needs no persist step.
        if position.matches(self.repl_id) && self.backlog.can_serve(position.offset) {
            self.begin_slave_transfer(ctx, slave, position, None, position.offset);
            return;
        }
        // Full sync: capture the snapshot now (fork-style copy-on-write
        // semantics) but charge the persist time on a background core, so
        // the event loop keeps serving clients (paper: "starts a child
        // process to persist all the data").
        let dbs: Vec<&Db> = self.engines.iter().map(Engine::db).collect();
        let snapshot = rdb::save_union(&dbs);
        let start_offset = self.backlog.offset();
        let keys = dbs.iter().map(|db| db.len() as u64).sum::<u64>();
        // The persist core sits just past the shard cores (core 1 when
        // unsharded — the historical schedule).
        let persist_core = self.engines.len().max(1);
        let cost = SimDuration::from_micros(150) + self.cfg.costs.persist_per_key * keys;
        let done = self.cpu.run_on(persist_core, ctx.now(), cost).finished;
        ctx.timer_at(
            done,
            ServerMsg::PersistDone {
                slave,
                position,
                snapshot,
                start_offset,
            },
        );
    }

    /// Persist finished (or partial path): connect to the slave and send.
    fn begin_slave_transfer(
        &mut self,
        ctx: &mut Context<'_>,
        slave: SocketAddr,
        position: ReplicationPosition,
        snapshot: Option<(Vec<u8>, u64)>,
        resume_from: u64,
    ) {
        let mut frames: Vec<(u32, Frame)> = Vec::new();
        match snapshot {
            Some((rdb_bytes, start_offset)) => {
                self.stat_full_syncs += 1;
                frames.push((
                    tag::NODE,
                    NodeMsg::FullSyncBegin {
                        repl_id: self.repl_id,
                        start_offset,
                        total_bytes: rdb_bytes.len() as u64,
                    }
                    .encode()
                    .into(),
                ));
                // Chunks are zero-copy views into the one snapshot buffer.
                let rdb_frame = Frame::from(rdb_bytes);
                let mut at = 0;
                while at < rdb_frame.len() {
                    let end = (at + RDB_CHUNK.max(1)).min(rdb_frame.len());
                    frames.push((tag::RDB_CHUNK, rdb_frame.slice(at..end)));
                    at = end;
                }
                if rdb_frame.is_empty() {
                    frames.push((tag::RDB_CHUNK, Frame::new()));
                }
                // Stream everything that happened since the snapshot.
                self.push_backlog_range(start_offset, &mut frames);
            }
            None => {
                self.stat_partial_syncs += 1;
                frames.push((
                    tag::NODE,
                    NodeMsg::PartialSyncBegin {
                        repl_id: self.repl_id,
                        from_offset: resume_from,
                        to_offset: self.backlog.offset(),
                    }
                    .encode()
                    .into(),
                ));
                self.push_backlog_range(resume_from, &mut frames);
            }
        }
        let _ = position;
        // Reuse an existing channel to this slave if one is open.
        if let Some(conn) =
            self.conn_of_kind(|k| matches!(k, ConnKind::Slave { addr, .. } if *addr == slave))
        {
            for (t, p) in frames {
                self.send_on(ctx, conn, t, p);
            }
        } else {
            self.dial(ctx, slave, ConnectIntent::SyncSlave { frames });
        }
    }

    fn push_backlog_range(&self, from: u64, frames: &mut Vec<(u32, Frame)>) {
        if let Some(bytes) = self.backlog.range_from(from) {
            let mut offset = from;
            for chunk in bytes.chunks(STREAM_CHUNK) {
                frames.push((tag::REPL_STREAM, stream_frame(offset, chunk).into()));
                offset += chunk.len() as u64;
            }
        }
    }

    // -- slave-side synchronization -------------------------------------------

    fn begin_slaveof(
        &mut self,
        ctx: &mut Context<'_>,
        master: SocketAddr,
        nic: Option<SocketAddr>,
    ) {
        self.prior_slave_of = Some((master, nic));
        self.last_write_ack = 0;
        let position = ReplicationPosition::unsynced();
        self.role = Role::Slave {
            master,
            nic,
            syncing: true,
            rdb_expect: 0,
            rdb_buf: Vec::new(),
            rdb_start_offset: 0,
            stash: Vec::new(),
            resyncing: false,
        };
        self.send_sync_request(ctx, position);
    }

    fn send_sync_request(&mut self, ctx: &mut Context<'_>, position: ReplicationPosition) {
        let Role::Slave { master, nic, .. } = &self.role else {
            return;
        };
        self.sync_request_at = Some(ctx.now());
        let upstream = nic.unwrap_or(*master);
        let msg = NodeMsg::SyncRequest {
            slave: self.addr,
            position,
        }
        .encode();
        if let Some(conn) = self.conn_of_kind(|k| matches!(k, ConnKind::Nic)) {
            self.send_on(ctx, conn, tag::NODE, msg);
        } else if let Some(conn) = self.conn_of_kind(|k| matches!(k, ConnKind::Master)) {
            // Nic-KV is unreachable but the master link survives: ask the
            // master directly so a gap-resync doesn't dial a dead SoC.
            self.send_on(ctx, conn, tag::NODE, msg);
        } else {
            // The connection to the upstream (Nic-KV or master) is reused
            // for probes and progress, so label it Nic.
            self.dial(
                ctx,
                upstream,
                ConnectIntent::SyncUpstream {
                    frames: vec![(tag::NODE, msg.into())],
                },
            );
        }
        // The request is now outstanding; cron re-issues it if no
        // Full/PartialSyncBegin answers within `waiting_time` (the request
        // or its reply can be lost anywhere along the relay).
        if let Role::Slave { resyncing, .. } = &mut self.role {
            *resyncing = true;
        }
    }

    fn on_full_sync_begin(
        &mut self,
        conn: usize,
        repl_id: ReplicationId,
        start_offset: u64,
        total_bytes: u64,
    ) {
        self.conns[conn].kind = ConnKind::Master;
        if let Role::Slave {
            syncing,
            resyncing,
            rdb_expect,
            rdb_buf,
            rdb_start_offset,
            ..
        } = &mut self.role
        {
            *syncing = true;
            *resyncing = false;
            *rdb_expect = total_bytes;
            *rdb_buf = Vec::with_capacity(usize::try_from(total_bytes).unwrap_or(0));
            *rdb_start_offset = start_offset;
            self.repl_id = repl_id;
        }
    }

    fn on_rdb_chunk(&mut self, ctx: &mut Context<'_>, chunk: &[u8]) {
        // Transfer progress resets the stalled-sync clock.
        self.sync_request_at = Some(ctx.now());
        let Role::Slave {
            rdb_expect,
            rdb_buf,
            rdb_start_offset,
            syncing,
            ..
        } = &mut self.role
        else {
            return;
        };
        rdb_buf.extend_from_slice(chunk);
        if (rdb_buf.len() as u64) < *rdb_expect {
            return;
        }
        // Snapshot complete: load it (charging CPU), then adopt the offset.
        let snapshot = std::mem::take(rdb_buf);
        let start_offset = *rdb_start_offset;
        *syncing = false;
        let seed = self.rng().gen_u64();
        let load_result = if self.engines.len() == 1 {
            rdb::load(self.engines[0].db_mut(), &snapshot, seed)
        } else {
            // Route each snapshot key to its owning shard — a sharded
            // slave's per-shard stores mirror the master's slot map.
            let mut dbs: Vec<Db> = self
                .engines
                .iter_mut()
                .map(|e| std::mem::replace(e.db_mut(), Db::new()))
                .collect();
            let router = self.router.clone();
            let r = rdb::load_routed(&mut dbs, &snapshot, seed, &|key| router.shard_of_key(key));
            for (e, db) in self.engines.iter_mut().zip(dbs) {
                *e.db_mut() = db;
            }
            r
        };
        let loaded = match load_result {
            Ok(n) => n,
            Err(_) => {
                // Corrupt snapshot (torn transfer): restart the sync from
                // scratch instead of taking the whole process down.
                self.stat_conn_errors += 1;
                if let Role::Slave { syncing, .. } = &mut self.role {
                    *syncing = true;
                }
                self.send_sync_request(ctx, ReplicationPosition::unsynced());
                return;
            }
        };
        self.stat_full_syncs += 1;
        let cost = SimDuration::from_micros(100) + self.cfg.costs.load_per_key * loaded as u64;
        self.cpu.run_on(0, ctx.now(), cost);
        // Adopt the master's history at the snapshot point. The backlog is
        // reset by feeding a placeholder of the right length conceptually;
        // we track the slave offset via a dedicated counter instead.
        self.slave_set_offset(start_offset);
        self.drain_stash(ctx);
        self.maybe_send_write_ack(ctx);
    }

    fn on_partial_sync_begin(&mut self, conn: usize, repl_id: ReplicationId) {
        self.conns[conn].kind = ConnKind::Master;
        self.repl_id = repl_id;
        if let Role::Slave {
            syncing, resyncing, ..
        } = &mut self.role
        {
            *syncing = false;
            *resyncing = false;
        }
        self.stat_partial_syncs += 1;
    }

    // The slave tracks its applied offset in `slave_offset`; stored in the
    // backlog-offset field of a master, but slaves don't use their backlog,
    // so keep a plain counter:
    fn slave_offset(&self) -> u64 {
        self.backlog.offset()
    }

    fn slave_set_offset(&mut self, offset: u64) {
        // Feed zero-bytes to advance the counter to `offset`. The backlog
        // content of a slave is never served, only the offset matters.
        let cur = self.backlog.offset();
        if offset > cur {
            let gap = usize::try_from(offset - cur).unwrap_or(usize::MAX);
            // Feed in bounded chunks to avoid one huge allocation.
            let mut left = gap;
            let chunk = vec![0u8; left.min(64 * 1024)];
            while left > 0 {
                let n = left.min(chunk.len());
                self.backlog.feed(&chunk[..n]);
                left -= n;
            }
        }
    }

    /// Apply a replication stream frame (slave side).
    fn on_repl_stream(&mut self, ctx: &mut Context<'_>, payload: Frame) {
        if parse_stream_frame(&payload).is_none() {
            return;
        }
        let from_offset = u64::from_le_bytes(payload[..8].try_into().unwrap_or_default());
        // The body is a zero-copy view of the delivery frame; stashing it
        // keeps the view rather than reallocating per stalled frame.
        let body = payload.slice(8..);
        let Role::Slave { syncing, stash, .. } = &mut self.role else {
            return;
        };
        if *syncing {
            if stash.len() < STASH_CAP {
                stash.push((from_offset, body));
            }
            return;
        }
        self.apply_stream(ctx, from_offset, body);
        self.drain_stash(ctx);
        self.maybe_send_write_ack(ctx);
    }

    /// Chain mode (SKV): eagerly ack the cumulative *applied* offset to
    /// Nic-KV after an apply batch. The NIC advances a chain hop only on
    /// this ack — a WR completion proves delivery to the ring, not
    /// application — so the tail ack certifies the whole chain has the
    /// write applied when the client reply releases.
    fn maybe_send_write_ack(&mut self, ctx: &mut Context<'_>) {
        if self.cfg.mode != Mode::Skv || self.active_mode != ReplModeKind::Chain {
            return;
        }
        if !self.is_synced_slave() {
            return;
        }
        let offset = self.slave_offset();
        if offset <= self.last_write_ack {
            return;
        }
        if let Some(conn) = self.conn_of_kind(|k| matches!(k, ConnKind::Nic)) {
            self.last_write_ack = offset;
            let msg = NodeMsg::WriteAck {
                slave: self.addr,
                offset,
            }
            .encode();
            self.send_on(ctx, conn, tag::NODE, msg);
        }
    }

    fn drain_stash(&mut self, ctx: &mut Context<'_>) {
        let my_offset = self.slave_offset();
        let Role::Slave { stash, .. } = &mut self.role else {
            return;
        };
        // While a gap is still open nothing stashed can apply; skip the
        // take-sort-restash churn (the stash can hold thousands of frames
        // while a resync is in flight).
        if stash.is_empty() || stash.iter().all(|&(off, _)| off > my_offset) {
            return;
        }
        let mut pending = std::mem::take(stash);
        pending.sort_by_key(|(off, _)| *off);
        for (off, bytes) in pending {
            self.apply_stream(ctx, off, bytes);
        }
    }

    fn apply_stream(&mut self, ctx: &mut Context<'_>, from_offset: u64, bytes: Frame) {
        let my_offset = self.slave_offset();
        if from_offset > my_offset {
            // Gap: we missed bytes (e.g. we were crashed). Stash the frame
            // and ask the master for the missing range (self-healing
            // partial resync).
            let Role::Slave {
                stash, resyncing, ..
            } = &mut self.role
            else {
                return;
            };
            // Bounded: the resync stream re-covers anything dropped here
            // (a fresh gap just triggers another round).
            if stash.len() < STASH_CAP {
                stash.push((from_offset, bytes));
            }
            if !*resyncing {
                *resyncing = true;
                let pos = ReplicationPosition {
                    repl_id: self.repl_id,
                    offset: my_offset,
                };
                self.send_sync_request(ctx, pos);
            }
            return;
        }
        let skip = usize::try_from(my_offset - from_offset).unwrap_or(usize::MAX);
        if skip >= bytes.len() {
            return; // entirely duplicate
        }
        let fresh = &bytes[skip..];
        // Parse and execute each RESP command in the fresh region. The
        // state change is applied synchronously (determinism: replica
        // contents never depend on core timing); the CPU model differs by
        // shard count. Unsharded: the historical single charge on core 0.
        // Sharded: a two-stage pipeline — core 0 parses, core 1 applies,
        // coupled by the bounded parse→apply ring, so parse of command
        // k+1 overlaps apply of command k.
        let pipelined = self.engines.len() > 1;
        let mut pos = 0;
        let now_ms = Self::now_ms(ctx);
        let mut applied = 0usize;
        let mut total_cost = SimDuration::ZERO;
        while pos < fresh.len() {
            match Resp::decode(&fresh[pos..]) {
                Decoded::Frame(v, used) => {
                    if let Ok(args) = v.into_command_args() {
                        let kib = used as f64 / 1024.0;
                        let parse_cost = self.cfg.costs.cmd_per_kib.mul_f64(kib);
                        let apply_cost = self.cfg.costs.apply_base;
                        if pipelined {
                            let gate = self.apply_ring.admit(ctx.now());
                            let parsed = self.cpu.run_on(0, gate, parse_cost).finished;
                            let done = self.cpu.run_on(1, parsed, apply_cost).finished;
                            self.apply_ring.complete(done);
                        } else {
                            total_cost += apply_cost + parse_cost;
                        }
                        let _ = self.execute_routed(now_ms, &args);
                    }
                    pos += used;
                    applied = pos;
                }
                _ => break, // partial command (not expected: frames align)
            }
        }
        self.stat_applied_bytes += applied as u64;
        self.backlog.feed(&fresh[..applied]);
        if !total_cost.is_zero() {
            self.cpu.run_on(0, ctx.now(), total_cost);
        }
    }

    // -- node messages ---------------------------------------------------------

    fn on_node_msg(&mut self, ctx: &mut Context<'_>, conn: usize, msg: NodeMsg) {
        match msg {
            NodeMsg::SyncRequest { slave, position } => {
                // Arrives directly in baseline modes (and when a recovered
                // slave re-dials the master in any mode).
                self.on_sync_request(ctx, slave, position);
            }
            NodeMsg::SyncNotify { slave, position } => {
                // Relayed by Nic-KV (Fig. 8 ②).
                self.conns[conn].kind = ConnKind::Nic;
                self.on_sync_request(ctx, slave, position);
            }
            NodeMsg::FullSyncBegin {
                repl_id,
                start_offset,
                total_bytes,
            } => {
                self.sync_request_at = Some(ctx.now());
                self.on_full_sync_begin(conn, repl_id, start_offset, total_bytes);
            }
            NodeMsg::PartialSyncBegin { repl_id, .. } => {
                self.on_partial_sync_begin(conn, repl_id);
            }
            NodeMsg::ProgressReport { slave, offset } => {
                let mut worst_lag = 0u64;
                let master_offset = self.backlog.offset();
                let mut stalled = false;
                for c in &mut self.conns {
                    if let ConnKind::Slave {
                        addr,
                        reported_offset,
                    } = &mut c.kind
                    {
                        if *addr == slave {
                            // Two consecutive reports at the same offset
                            // below ours: the stream tail was lost and no
                            // later frame will surface the gap slave-side
                            // (gap detection needs a next frame). Re-serve
                            // from the stalled offset.
                            stalled =
                                c.open && offset < master_offset && offset == *reported_offset;
                            *reported_offset = (*reported_offset).max(offset);
                        }
                        if *reported_offset > 0 {
                            worst_lag =
                                worst_lag.max(master_offset.saturating_sub(*reported_offset));
                        }
                    }
                }
                // In SKV mode the lag verdict comes from Nic-KV, which
                // knows which slaves are still valid; the master's own
                // census would keep counting a crashed slave forever.
                if self.cfg.mode != Mode::Skv {
                    self.lag_exceeded = worst_lag > self.cfg.max_slave_lag;
                }
                if stalled {
                    let position = ReplicationPosition {
                        repl_id: self.repl_id,
                        offset,
                    };
                    self.on_sync_request(ctx, slave, position);
                }
                // Progress may have advanced the census commit point.
                if self.is_master()
                    && replmode::replication_mode(self.active_mode).defers_replies()
                {
                    self.release_ready_replies(ctx);
                }
            }
            NodeMsg::Probe { seq } => {
                // Reply immediately (paper: "they reply to Nic-KV
                // immediately"); tiny cost on the event loop.
                self.cpu.run_on(0, ctx.now(), SimDuration::from_nanos(300));
                let reply = NodeMsg::ProbeReply {
                    seq,
                    from: self.addr,
                }
                .encode();
                self.send_on(ctx, conn, tag::NODE, reply);
            }
            NodeMsg::SlaveSetUpdate { available, lagging } => {
                self.available_slaves = available as usize;
                if self.cfg.mode == Mode::Skv {
                    self.lag_exceeded = lagging;
                }
            }
            NodeMsg::Promote => {
                self.role = Role::Master;
            }
            NodeMsg::Demote => {
                // Rejoin as a slave of the original master and resync from
                // the current offset. (A real system would also reconcile
                // any writes accepted while promoted; the paper's scenario
                // has the original master simply resume.)
                if let Some((master, nic)) = self.prior_slave_of {
                    self.last_write_ack = 0;
                    self.role = Role::Slave {
                        master,
                        nic,
                        syncing: false,
                        rdb_expect: 0,
                        rdb_buf: Vec::new(),
                        rdb_start_offset: 0,
                        stash: Vec::new(),
                        resyncing: false,
                    };
                    let pos = ReplicationPosition {
                        repl_id: self.repl_id,
                        offset: self.slave_offset(),
                    };
                    self.send_sync_request(ctx, pos);
                }
            }
            NodeMsg::WriteCommitted { upto } => {
                // Nic-KV reports the replication mode's commit point; the
                // master releases every deferred reply it covers.
                if self.is_master() {
                    self.commit_upto = self.commit_upto.max(upto);
                    self.release_ready_replies(ctx);
                }
            }
            NodeMsg::ModeChange { mode } => {
                // Nic-KV's cross-mode failover policy moved the cluster's
                // replication mode. Gated on the knob so a stray frame
                // cannot flip a fixed-mode cluster.
                if self.cfg.mode_failover && self.is_master() && mode != self.active_mode {
                    self.active_mode = mode;
                    self.stat_mode_changes += 1;
                    if !replmode::replication_mode(mode).defers_replies() {
                        // Degraded to async: every held reply releases
                        // under the weaker (immediate-ack) contract.
                        self.commit_upto = self.commit_upto.max(self.backlog.offset());
                        self.release_ready_replies(ctx);
                    }
                }
            }
            NodeMsg::ProbeReply { .. }
            | NodeMsg::Replicate { .. }
            | NodeMsg::Hello { .. }
            | NodeMsg::WriteAck { .. } => {}
        }
    }

    // -- cron -------------------------------------------------------------------

    fn on_cron(&mut self, ctx: &mut Context<'_>) {
        ctx.timer(SimDuration::from_millis(100), ServerMsg::Cron);
        if self.crashed {
            return;
        }
        let now_ms = Self::now_ms(ctx);
        for engine in &mut self.engines {
            engine.cron(now_ms);
        }
        // Slaves report progress on the master channel (Fig. 9 ③).
        if let Role::Slave { syncing: false, .. } = &self.role {
            let offset = self.slave_offset();
            if let Some(conn) = self.conn_of_kind(|k| matches!(k, ConnKind::Master)) {
                let msg = NodeMsg::ProgressReport {
                    slave: self.addr,
                    offset,
                }
                .encode();
                self.send_on(ctx, conn, tag::NODE, msg);
            }
            // Deferred modes: Nic-KV also consumes progress as cumulative
            // acks (covers acks lost to QP errors between retransmits).
            if self.cfg.mode == Mode::Skv
                && replmode::replication_mode(self.active_mode).defers_replies()
            {
                if let Some(conn) = self.conn_of_kind(|k| matches!(k, ConnKind::Nic)) {
                    let msg = NodeMsg::ProgressReport {
                        slave: self.addr,
                        offset,
                    }
                    .encode();
                    self.send_on(ctx, conn, tag::NODE, msg);
                }
            }
        }
        // Deferred modes, master side: drop replies whose client conn died
        // (undeliverable) and re-check the census commit point so a
        // lost `WriteCommitted` cannot wedge the reply queue.
        if self.is_master() && replmode::replication_mode(self.active_mode).defers_replies() {
            let conns = &self.conns;
            self.pending_replies.retain(|p| conns[p.conn].open);
            self.release_ready_replies(ctx);
        }
        // A sync can stall: the request lost in flight (e.g. relayed via a
        // Nic-KV that had no master link at that instant), or the RDB/stream
        // transfer cut by a transport error. `sync_request_at` doubles as a
        // progress clock (bumped per RDB chunk); silence means re-request.
        if let Role::Slave {
            resyncing, syncing, ..
        } = &self.role
        {
            if (*resyncing || *syncing)
                && self
                    .sync_request_at
                    .is_none_or(|at| ctx.now() - at > self.cfg.waiting_time)
            {
                self.schedule_upstream_resync(ctx);
            }
        }
        if self.cfg.mode == Mode::Skv {
            self.cron_skv_liveness(ctx);
        }
    }

    /// SKV-mode liveness checks: detect a silent Nic-KV (master falls back
    /// to host-driven fan-out, a slave tears the channel down) and poll the
    /// SoC so everyone re-attaches after it recovers.
    fn cron_skv_liveness(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        if self.is_master() {
            if !self.degraded {
                if let Some(seen) = self.nic_last_seen {
                    if now - seen > self.cfg.upstream_silence {
                        self.enter_degraded(now);
                    }
                }
            }
            if self.degraded && now >= self.next_upstream_retry {
                self.next_upstream_retry = now + SimDuration::from_millis(500);
                self.redial_nic(ctx);
            }
            return;
        }
        let Role::Slave {
            nic: Some(nic),
            syncing: false,
            ..
        } = &self.role
        else {
            return;
        };
        let nic = *nic;
        // Probe silence on a live-looking channel means the SoC is gone.
        if let Some(seen) = self.upstream_last_seen {
            if now - seen > self.cfg.upstream_silence {
                if let Some(conn) = self.open_conn_to(nic) {
                    self.on_conn_broken(ctx, conn);
                } else {
                    self.upstream_last_seen = Some(now);
                }
            }
        }
        // No channel to Nic-KV (it crashed, or the dial gave up): poll it
        // so a recovered SoC re-learns this slave — without this the NIC
        // comes back with an empty node list and fan-out goes nowhere.
        if self.open_conn_to(nic).is_none()
            && !self.intents.contains_key(&nic)
            && self.conn_of_kind(|k| matches!(k, ConnKind::Nic)).is_none()
            && now >= self.next_upstream_retry
        {
            self.next_upstream_retry = now + SimDuration::from_secs(1);
            let msg = NodeMsg::SyncRequest {
                slave: self.addr,
                position: ReplicationPosition {
                    repl_id: self.repl_id,
                    offset: self.slave_offset(),
                },
            }
            .encode();
            self.dial(
                ctx,
                nic,
                ConnectIntent::SyncUpstream {
                    frames: vec![(tag::NODE, msg.into())],
                },
            );
        }
    }

    // -- channel message routing --------------------------------------------------

    fn on_channel_msg(&mut self, ctx: &mut Context<'_>, conn: usize, msg: ChannelMsg) {
        // Liveness bookkeeping: traffic on a Nic-KV channel proves the SoC
        // alive (probes arrive every `probe_interval`, so silence is a
        // reliable death signal).
        match self.conns[conn].kind {
            ConnKind::Nic if self.is_master() => {
                self.nic_last_seen = Some(ctx.now());
                // The SoC came back: re-offload replication fan-out.
                self.exit_degraded(ctx.now());
            }
            ConnKind::Nic => {
                self.upstream_last_seen = Some(ctx.now());
            }
            _ => {}
        }
        match msg.tag {
            tag::CMD => self.on_client_command(ctx, conn, msg.payload),
            // A client command relayed by the SoC front-end: strip the
            // cookie and run the ordinary command path; the reply goes
            // back cookie-framed as FWD_REPLY on the same channel.
            tag::FWD_CMD => self.on_forwarded_command(ctx, conn, &msg.payload),
            tag::NODE => {
                if let Some(m) = NodeMsg::decode(&msg.payload) {
                    self.on_node_msg(ctx, conn, m);
                }
            }
            tag::REPL_STREAM => self.on_repl_stream(ctx, msg.payload),
            tag::RDB_CHUNK => self.on_rdb_chunk(ctx, &msg.payload),
            _ => {}
        }
    }
}

/// Encode a replication stream frame: `[u64 from_offset][stream bytes]`.
pub fn stream_frame(from_offset: u64, bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len() + 8);
    out.extend_from_slice(&from_offset.to_le_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Decode a replication stream frame.
pub fn parse_stream_frame(frame: &[u8]) -> Option<(u64, &[u8])> {
    let header = frame.get(..8)?;
    let offset = u64::from_le_bytes(header.try_into().ok()?);
    Some((offset, &frame[8..]))
}

impl Actor for KvServer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.rng = ctx.rng().split();
        self.started = true;
        let me = ctx.id();
        if self.cfg.mode.uses_rdma() {
            // CQ 0 first, then listen, then arm — the seed's exact order.
            // Extra per-shard CQs (sharded servers only) follow, each armed
            // so its completions interrupt the owning shard's core.
            let cq = self.net.create_cq(me);
            self.cqs.push(cq);
            self.net.rdma_listen(self.addr, me);
            self.net.req_notify_cq(ctx, cq);
            for _ in 1..self.engines.len() {
                let extra = self.net.create_cq(me);
                self.cqs.push(extra);
                self.net.req_notify_cq(ctx, extra);
            }
        } else {
            self.net.tcp_listen(self.addr, me);
        }
        ctx.timer(SimDuration::from_millis(100), ServerMsg::Cron);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ActorId, msg: Payload) {
        // Control events work even while crashed (Recover must).
        let msg = match msg.downcast::<Control>() {
            Ok(ctrl) => {
                match *ctrl {
                    Control::Slaveof { master, nic } => {
                        if !self.crashed {
                            self.begin_slaveof(ctx, master, nic);
                        }
                    }
                    Control::Crash => {
                        self.crashed = true;
                        self.net.set_node_up(self.node, false);
                    }
                    Control::ConnectNic { nic } => {
                        self.nic_addr = Some(nic);
                        self.nic_last_seen = Some(ctx.now());
                        let hello = NodeMsg::Hello {
                            from: self.addr,
                            is_master: true,
                        }
                        .encode();
                        self.dial(
                            ctx,
                            nic,
                            ConnectIntent::SyncUpstream {
                                frames: vec![(tag::NODE, hello.into())],
                            },
                        );
                    }
                    Control::Recover => {
                        self.crashed = false;
                        self.net.set_node_up(self.node, true);
                        // Fresh start for the liveness clocks and backoff.
                        self.nic_last_seen = Some(ctx.now());
                        self.upstream_last_seen = Some(ctx.now());
                        self.reconnect_attempts.clear();
                        self.next_upstream_retry = ctx.now();
                        // Notifications delivered while crashed were lost;
                        // drain stale completions (replenishing receive
                        // slots) and re-arm the completion channel.
                        let cqs = self.cqs.clone();
                        for cq in cqs {
                            let net = self.net.clone();
                            cqdrain::recover_drain(&net, ctx, cq, |ctx, wc| {
                                if let Some(&conn) = self.by_qp.get(&wc.qp) {
                                    // Drop whatever the message was: the
                                    // process "restarted".
                                    let _ = self.conns[conn].channel.on_wc(&net, ctx, &wc);
                                }
                            });
                        }
                        // A synced slave re-requests sync from its current
                        // offset; the backlog usually serves it partially.
                        if let Role::Slave { syncing: false, .. } = &self.role {
                            let pos = ReplicationPosition {
                                repl_id: self.repl_id,
                                offset: self.slave_offset(),
                            };
                            self.send_sync_request(ctx, pos);
                        } else if self.cfg.mode == Mode::Skv && self.is_master() {
                            // A recovered master re-registers with Nic-KV:
                            // the SoC tore its channel down while the host
                            // was gone, so the surviving half is stale.
                            if let Some(nic) = self.nic_addr {
                                if let Some(conn) = self.open_conn_to(nic) {
                                    self.close_conn(conn);
                                }
                                self.redial_nic(ctx);
                            }
                        }
                    }
                }
                return;
            }
            Err(other) => other,
        };
        if self.crashed {
            // Keep the cron chain alive through a crash so the periodic
            // recovery machinery resumes on Recover; all other messages
            // are lost with the process.
            if let Ok(m) = msg.downcast::<ServerMsg>() {
                if matches!(*m, ServerMsg::Cron) {
                    ctx.timer(SimDuration::from_millis(100), ServerMsg::Cron);
                }
            }
            return;
        }
        let msg = match msg.downcast::<ServerMsg>() {
            Ok(m) => {
                match *m {
                    ServerMsg::Cron => self.on_cron(ctx),
                    ServerMsg::SendFrames(frames) => self.emit_frames(ctx, frames),
                    ServerMsg::PersistDone {
                        slave,
                        position,
                        snapshot,
                        start_offset,
                    } => {
                        self.begin_slave_transfer(
                            ctx,
                            slave,
                            position,
                            Some((snapshot, start_offset)),
                            0,
                        );
                    }
                    ServerMsg::Redial { to } => {
                        if self.intents.contains_key(&to) {
                            self.stat_reconnects += 1;
                            self.connect_to(ctx, to);
                        }
                    }
                }
                return;
            }
            Err(other) => other,
        };
        let Ok(ev) = msg.downcast::<NetEvent>() else {
            return;
        };
        match *ev {
            NetEvent::CmConnectRequest { req, .. } => {
                // Accept now; the channel (ring registration, receive
                // posting, MR handshake) is created when CmEstablished
                // arrives, so both sides post receives before either
                // side's handshake SEND can land. A request without a CQ
                // (TCP mode race) or one already answered is ignored.
                // Sharded servers spread accepted connections across the
                // per-shard CQs round-robin, so each shard core polls its
                // own completion stream; with one CQ this picks cq 0 every
                // time.
                if self.cqs.is_empty() {
                    return;
                }
                let cq = self.cqs[self.accept_cursor % self.cqs.len()];
                self.accept_cursor += 1;
                let _ = self.net.rdma_accept(ctx, req, cq);
            }
            NetEvent::CmEstablished { qp, peer } => {
                if self.by_qp.contains_key(&qp) {
                    return;
                }
                let net = self.net.clone();
                let ch = Channel::rdma(&net, ctx, self.node, qp, self.cfg.ring_size);
                let (kind, frames) = self.intent_to_kind(peer);
                self.reconnect_attempts.remove(&peer);
                let conn = self.add_conn(ch, kind, Some(peer));
                for (t, p) in frames {
                    self.send_on(ctx, conn, t, p);
                }
            }
            NetEvent::CqNotify { cq } => {
                // Budgeted drain: at most `cq_poll_budget` completions per
                // event, with the poll + per-WC handling CPU charged to
                // the event-loop core; an over-budget burst continues in
                // a self-scheduled follow-up once that work is done.
                let net = self.net.clone();
                let budget = self.cfg.cq_poll_budget;
                let out = cqdrain::drain_budgeted(&net, ctx, cq, budget, |ctx, wc| {
                    let Some(&conn) = self.by_qp.get(&wc.qp) else {
                        return;
                    };
                    if let Some(msg) = self.conns[conn].channel.on_wc(&net, ctx, &wc) {
                        self.on_channel_msg(ctx, conn, msg);
                    } else if self.conns[conn].open && self.conns[conn].channel.broken() {
                        self.on_conn_broken(ctx, conn);
                    }
                });
                // Poll CPU lands on the core owning this CQ (cq 0 → core
                // 0, the seed schedule; extra shard CQs → their cores).
                let core = self.cqs.iter().position(|&c| c == cq).unwrap_or(0);
                let done = self.cpu.run_on(core, ctx.now(), out.cpu_cost).finished;
                if out.more {
                    ctx.timer_at(done, NetEvent::CqNotify { cq });
                }
            }
            NetEvent::TcpAccepted { conn, .. } => {
                self.add_conn(Channel::tcp(conn), ConnKind::Unknown, None);
            }
            NetEvent::TcpConnected { conn, peer } => {
                let (kind, frames) = self.intent_to_kind(peer);
                self.reconnect_attempts.remove(&peer);
                let idx = self.add_conn(Channel::tcp(conn), kind, Some(peer));
                for (t, p) in frames {
                    self.send_on(ctx, idx, t, p);
                }
            }
            NetEvent::TcpDelivered { conn, bytes } => {
                let Some(&idx) = self.by_tcp.get(&conn) else {
                    return;
                };
                let msgs = self.conns[idx].channel.on_tcp_bytes(bytes);
                for m in msgs {
                    self.on_channel_msg(ctx, idx, m);
                }
            }
            NetEvent::TcpClosed { conn } => {
                if let Some(&idx) = self.by_tcp.get(&conn) {
                    self.on_conn_broken(ctx, idx);
                }
            }
            NetEvent::TcpConnectFailed { to } | NetEvent::CmConnectFailed { to } => {
                self.on_connect_failed(ctx, to);
            }
        }
    }

    fn name(&self) -> &str {
        "kv-server"
    }
}

impl KvServer {
    fn intent_to_kind(&mut self, peer: SocketAddr) -> (ConnKind, Vec<(u32, Frame)>) {
        match self.intents.remove(&peer) {
            Some(ConnectIntent::SyncSlave { frames }) => (
                ConnKind::Slave {
                    addr: peer,
                    reported_offset: 0,
                },
                frames,
            ),
            Some(ConnectIntent::SyncUpstream { frames }) => (ConnKind::Nic, frames),
            None => (ConnKind::Unknown, Vec::new()),
        }
    }
}
