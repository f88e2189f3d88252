//! Nic-KV: the offloaded component running on the SmartNIC SoC.
//!
//! Implements §III-C/§III-D of the paper on the BlueField's (simulated)
//! ARM cores:
//!
//! * maintains the **node list** — master and slaves with their replication
//!   state and validity flags,
//! * relays initial synchronization requests to the master (Fig. 8 ①→②),
//! * performs **steady-state replication fan-out** (Fig. 9): one request
//!   from the master becomes one `WRITE_WITH_IMM` per valid slave, written
//!   from the slaves' send buffers on the NIC, optionally spread over
//!   `thread-num` ARM cores,
//! * runs **failure detection**: 1-second probes, `waiting-time` timeouts,
//!   invalid flags, `min-slaves` notifications to the master, and master
//!   failover with downgrade-on-return.

use std::collections::VecDeque;

use skv_netsim::{
    CqId, DetMap, Frame, Net, NetEvent, NodeId, QpId, SocketAddr, WcOpcode, WcStatus,
};
use skv_simcore::stats::Counters;
use skv_simcore::{Actor, ActorId, Context, CorePool, Payload, SimDuration, SimTime};
use skv_store::repl::ReplicationPosition;

use crate::channel::{Channel, ChannelMsg};
use crate::config::ClusterConfig;
use crate::cqdrain;
use crate::hotcache::{fwd_cookie, fwd_cookie_epoch, HotCache};
use crate::protocol::{tag, NodeMsg, ReplyOrder};
use crate::replmode::{quorum_slave_acks, ReplModeKind};

/// An entry in the node list (paper §III-C: "a node list storing the
/// corresponding relationship between the master node and the slave node
/// is maintained on the SmartNIC").
#[derive(Debug, Clone)]
pub struct NodeEntry {
    /// The node's server address.
    pub addr: SocketAddr,
    /// Whether this entry is the master.
    pub is_master: bool,
    /// Replication state as last reported.
    pub position: ReplicationPosition,
    /// The invalid flag (§III-D): cleared while the node answers probes.
    pub valid: bool,
    /// Last time this node answered a probe (or any message).
    pub last_reply: SimTime,
    /// When the oldest unanswered probe was sent (§III-D: a node is failed
    /// when a probe sent `waiting-time` ago has no reply).
    pub pending_probe_since: Option<SimTime>,
    /// Connection index, once the node has a channel to Nic-KV.
    conn: Option<usize>,
}

enum NicMsg {
    /// Probe round timer.
    ProbeTick,
    /// Fan-out work for one slave finished; send the frame now (a
    /// [`Frame`] clone — each slave's copy is a refcount bump).
    FanoutSend { conn: usize, frame: Frame },
    /// All per-slave fan-out work for one replicated write finished; post
    /// every staged WR under a single doorbell (`batch_wr_posts` mode).
    /// Each slave's WR still carries the same frame by refcount bump.
    FanoutSendBatch { conns: Vec<usize>, frame: Frame },
    /// Tracked-mode (quorum) fan-out work finished; post the write's WRs
    /// under one doorbell and arm ack tracking on their completions.
    TrackedSend { seq: u64, conns: Vec<usize> },
    /// Chain-mode per-hop work finished; post the write to its current
    /// head hop.
    ChainHop { seq: u64 },
    /// Front-end ARM work for a client-bound reply finished (a cache hit
    /// or a relayed forwarded reply); send it on the client channel once
    /// every earlier request's reply there has left.
    CacheReply {
        conn: usize,
        ticket: u64,
        frame: Frame,
    },
    /// Front-end forwarding work for a missed/non-GET client command
    /// finished; relay the cookie-framed `FWD_CMD` to the master.
    FwdSend { cookie: u64, frame: Frame },
}

/// One outstanding forwarded client command: where its reply goes, and —
/// when the command was a single-key GET — the key whose bulk reply is a
/// cache admission candidate.
struct FwdCtx {
    conn: usize,
    /// The client connection's [`ReplyOrder`] ticket for this command.
    ticket: u64,
    key: Option<Vec<u8>>,
}

/// One in-flight tracked write (quorum or chain mode). The frame is kept
/// for retransmission until the write commits.
struct PendingWrite {
    /// Launch sequence number — the `wr_acks` / timer correlation key.
    seq: u64,
    /// Master backlog offset right *after* this write's bytes: a slave
    /// whose cumulative applied offset reaches this value holds the write.
    end_offset: u64,
    /// The replication stream frame (`[from_offset][RESP]`).
    frame: Frame,
    /// Slaves that acked this write (WR completion, `WriteAck`, or
    /// cumulative `ProgressReport` coverage). Deduplicated.
    acked: Vec<SocketAddr>,
    /// Slave acks required to commit (quorum mode; 0 in chain mode where
    /// the emptied hop list is the commit condition).
    needed: usize,
    /// Remaining chain hops, head first (chain mode; empty in quorum).
    hops: VecDeque<SocketAddr>,
    /// Whether a post to the current head hop is scheduled or awaiting
    /// its applied ack.
    hop_inflight: bool,
}

/// External control events injected by the harness. The SmartNIC SoC can
/// crash independently of its host (the degradation scenario): the host
/// keeps running, Nic-KV just disappears.
#[derive(Debug, Clone)]
pub enum NicControl {
    /// Crash the SoC (its node drops traffic; process state is lost).
    Crash,
    /// Restart the SoC. The node list is empty until the master's Hello
    /// and the slaves' re-registration polls rebuild it.
    Recover,
}

struct ConnState {
    channel: Channel,
    open: bool,
    /// Fan-out frames queued behind this channel's outstanding MR
    /// handshake. They post later, inside `Channel::on_wc`'s flush; the
    /// drain path reconciles them against `take_flushed_wrs` so the
    /// doorbell/WR statistics count every fan-out WR at actual post time
    /// (and only fan-out WRs — flushed control messages don't count).
    deferred_wrs: u64,
    /// Keeps a client connection's replies in request order: a cache
    /// hit finishes ahead of an earlier miss still at the master.
    replies: ReplyOrder,
}

/// The Nic-KV actor.
pub struct NicKv {
    net: Net,
    cfg: ClusterConfig,
    node: NodeId,
    addr: SocketAddr,
    cq: Option<CqId>,
    /// The SmartNIC's ARM cores (slow; speed factor from `MachineParams`).
    cpu: CorePool,
    conns: Vec<ConnState>,
    by_qp: DetMap<QpId, usize>,
    nodes: Vec<NodeEntry>,
    probe_seq: u64,
    /// Address of a slave promoted during master failover, if any.
    promoted: Option<SocketAddr>,
    /// Round-robin cursor for thread assignment.
    fanout_cursor: usize,
    /// Whether the SoC is currently crashed.
    crashed: bool,
    /// Highest master replication offset observed in forwarded frames.
    master_offset: u64,
    /// Last `(available, lagging)` pair pushed to the master.
    last_update_sent: Option<(u32, bool)>,
    /// Statistics.
    pub stat_fanout_msgs: u64,
    /// Total per-slave sends performed.
    pub stat_fanout_sends: u64,
    /// Doorbells rung by the replication fan-out (one per `post_send` in
    /// serial mode, one per batch in `batch_wr_posts` mode).
    pub stat_doorbells: u64,
    /// WRs posted by the replication fan-out (identical in both modes —
    /// batching amortizes doorbells, not work requests).
    pub stat_wrs_posted: u64,
    /// Probes sent.
    pub stat_probes: u64,
    /// Failovers performed.
    pub stat_failovers: u64,
    /// Instants at which a node was declared failed (detection latency
    /// analysis for the `waiting-time` ablation).
    pub detections: Vec<(SimTime, SocketAddr)>,
    /// Instants at which a previously failed node was seen alive again.
    pub recoveries: Vec<(SimTime, SocketAddr)>,
    // -- tracked replication (quorum / chain modes) ------------------------
    /// Launch sequence counter for tracked writes.
    write_seq: u64,
    /// In-flight tracked writes, oldest first (offsets ascend with launch
    /// order, so commit release pops from the front).
    pending: VecDeque<PendingWrite>,
    /// Outstanding tracked WR → `(seq, slave)`; resolved by the send-side
    /// completion in the CQ drain.
    wr_acks: DetMap<(QpId, u64), (u64, SocketAddr)>,
    /// Writes waiting for a window slot (`repl_window` bounds `pending`).
    window_queue: VecDeque<Frame>,
    /// Highest backlog offset committed under the active mode.
    committed_upto: u64,
    /// Highest commit offset pushed to the master via `WriteCommitted`.
    notified_upto: u64,
    /// Tracked writes committed.
    pub stat_commits: u64,
    /// Quorum-mode retransmissions to re-registering slaves.
    pub stat_retransmits: u64,
    /// Chain-repair actions: dead hops spliced out of in-flight chains.
    pub stat_chain_repairs: u64,
    /// Chain-rejoin actions: a re-registering slave spliced back onto the
    /// tail of in-flight chains (only the writes its cumulative offset
    /// does not already cover — no overlapping window).
    pub stat_chain_rejoins: u64,
    // -- cross-mode failover (`ClusterConfig::mode_failover`) --------------
    /// The replication mode currently *in force*. Starts at
    /// `cfg.repl_mode` and diverges only under `mode_failover`: a quorum
    /// cluster that cannot assemble a write quorum degrades to the async
    /// stream, and re-promotes when enough slaves return.
    active_mode: ReplModeKind,
    /// Every mode transition `(instant, new mode)`, in order. The history
    /// checker cuts its linearizability claim at the first entry — the
    /// declared degradation point.
    pub mode_changes: Vec<(SimTime, ReplModeKind)>,
    /// Mode transitions performed (degradations + re-promotions).
    pub stat_mode_changes: u64,
    /// Highest simultaneously-valid slave count ever observed; degrading
    /// below quorum is only meaningful once a full quorum existed
    /// (otherwise cluster start-up would read as a partition).
    peak_slaves: usize,
    /// Per-commit ack sets `(end_offset, acked slaves)`, recorded only
    /// when `ClusterConfig::record_commits` is set (the quorum
    /// intersection proptest reads these).
    pub committed_acks: Vec<(u64, Vec<SocketAddr>)>,
    /// Replicated writes seen per master shard, classified by the hash
    /// slot of the command's first key (index = shard). Only populated
    /// when `num_shards > 1` — the NIC's view of how evenly the shard
    /// mapping spreads replication ingress. Exported as
    /// `shard.nic_ingress`.
    shard_ingress: Vec<u64>,
    // -- hot-key GET cache (SoC-resident front-end) ------------------------
    /// The NIC-resident hot-key cache; `None` unless
    /// `ClusterConfig::hot_cache_enabled()`.
    cache: Option<HotCache>,
    /// Cookie source for forwarded client commands (low bits; resets to 0
    /// on every SoC restart).
    fwd_seq: u64,
    /// SoC boot counter carried in every cookie's high bits — the one
    /// piece of state that survives a crash. A `FWD_REPLY` minted under an
    /// older epoch can never resolve a forward issued after the rejoin.
    fwd_epoch: u64,
    /// Replies for forwarded commands dropped because their cookie carried
    /// a stale (pre-restart) epoch.
    pub stat_fwd_stale_drops: u64,
    /// Outstanding forwarded commands by cookie.
    fwd_pending: DetMap<u64, FwdCtx>,
    /// Client replies that finished ahead of an earlier request's reply
    /// on the same connection and waited for it.
    pub stat_held_replies: u64,
}

impl NicKv {
    /// Create a Nic-KV bound to `addr` on the SmartNIC SoC node.
    pub fn new(net: Net, cfg: ClusterConfig, node: NodeId, addr: SocketAddr) -> Self {
        let cores = cfg.machines.nic_cores.max(1);
        let speed = cfg.machines.nic_core_speed;
        let shard_ingress = vec![0; cfg.num_shards.max(1)];
        let cache = cfg
            .hot_cache_enabled()
            .then(|| HotCache::new(cfg.hot_cache_bytes, cfg.hot_cache_policy_kind()));
        let active_mode = cfg.repl_mode;
        NicKv {
            net,
            node,
            addr,
            cq: None,
            cpu: CorePool::new(cores, speed),
            conns: Vec::new(),
            by_qp: DetMap::new(),
            nodes: Vec::new(),
            probe_seq: 0,
            promoted: None,
            fanout_cursor: 0,
            crashed: false,
            master_offset: 0,
            last_update_sent: None,
            cfg,
            stat_fanout_msgs: 0,
            stat_fanout_sends: 0,
            stat_doorbells: 0,
            stat_wrs_posted: 0,
            stat_probes: 0,
            stat_failovers: 0,
            detections: Vec::new(),
            recoveries: Vec::new(),
            write_seq: 0,
            pending: VecDeque::new(),
            wr_acks: DetMap::new(),
            window_queue: VecDeque::new(),
            committed_upto: 0,
            notified_upto: 0,
            stat_commits: 0,
            stat_retransmits: 0,
            stat_chain_repairs: 0,
            stat_chain_rejoins: 0,
            active_mode,
            mode_changes: Vec::new(),
            stat_mode_changes: 0,
            peak_slaves: 0,
            committed_acks: Vec::new(),
            shard_ingress,
            cache,
            fwd_seq: 0,
            fwd_epoch: 0,
            stat_fwd_stale_drops: 0,
            fwd_pending: DetMap::new(),
            stat_held_replies: 0,
        }
    }

    /// The replication mode currently in force (== `cfg.repl_mode` unless
    /// a `mode_failover` transition happened).
    pub fn active_mode(&self) -> ReplModeKind {
        self.active_mode
    }

    /// Write this Nic-KV's counters into `out`, zero or not: every
    /// `nic.stat_*` field, `shard.nic_ingress` (summed over master
    /// shards) and, when the hot cache is enabled, its `cache.*`
    /// counters.
    pub fn add_counters(&self, out: &mut Counters) {
        out.add("nic.stat_fanout_msgs", self.stat_fanout_msgs);
        out.add("nic.stat_fanout_sends", self.stat_fanout_sends);
        out.add("nic.stat_doorbells", self.stat_doorbells);
        out.add("nic.stat_wrs_posted", self.stat_wrs_posted);
        out.add("nic.stat_probes", self.stat_probes);
        out.add("nic.stat_failovers", self.stat_failovers);
        out.add("nic.stat_commits", self.stat_commits);
        out.add("nic.stat_retransmits", self.stat_retransmits);
        out.add("nic.stat_chain_repairs", self.stat_chain_repairs);
        out.add("nic.stat_chain_rejoins", self.stat_chain_rejoins);
        out.add("nic.stat_mode_changes", self.stat_mode_changes);
        out.add("nic.stat_fwd_stale_drops", self.stat_fwd_stale_drops);
        out.add("nic.stat_held_replies", self.stat_held_replies);
        out.add("shard.nic_ingress", self.shard_ingress.iter().sum());
        if let Some(cache) = &self.cache {
            cache.add_counters(out);
        }
    }

    /// The hot cache itself (test observability).
    pub fn hot_cache(&self) -> Option<&HotCache> {
        self.cache.as_ref()
    }

    /// The ARM core running the cache front-end: the last one, which
    /// `ClusterConfig::validate` keeps clear of sharded fan-out threads.
    fn fe_core(&self) -> usize {
        self.cfg.machines.nic_cores.max(1) - 1
    }

    /// Classify one replicated stream frame by the owning master shard
    /// (hash slot of the embedded command's first key) and bump its
    /// ingress count. A no-op at one shard, keeping the unsharded
    /// schedule's state untouched.
    fn note_shard_ingress(&mut self, frame: &Frame) {
        if self.shard_ingress.len() <= 1 {
            return;
        }
        let Some((_, body)) = crate::server::parse_stream_frame(frame) else {
            return;
        };
        use skv_store::resp::{Decoded, Resp};
        let Decoded::Frame(v, _) = Resp::decode(body) else {
            return;
        };
        let Ok(args) = v.into_command_args() else {
            return;
        };
        let shard = args.get(1).map_or(0, |key| {
            crate::protocol::slot_shard(
                crate::protocol::key_hash_slot(key),
                self.shard_ingress.len(),
            )
        });
        self.shard_ingress[shard] += 1;
    }

    /// Whether the mode *currently in force* tracks per-write acks and
    /// defers the master's client replies (quorum and chain; not the
    /// async stream, including a quorum cluster degraded into it).
    fn deferred(&self) -> bool {
        self.active_mode != ReplModeKind::Async
    }

    /// Highest backlog offset committed under the active replication mode
    /// (async never tracks commits and reports 0).
    pub fn committed_upto(&self) -> u64 {
        self.committed_upto
    }

    /// Tracked writes still awaiting their commit condition.
    pub fn pending_writes(&self) -> usize {
        self.pending.len()
    }

    fn addr_of_conn(&self, conn: usize) -> Option<SocketAddr> {
        self.nodes
            .iter()
            .find(|n| n.conn == Some(conn))
            .map(|n| n.addr)
    }

    /// The node list (for tests and reports).
    pub fn node_list(&self) -> &[NodeEntry] {
        &self.nodes
    }

    /// Currently valid slaves.
    pub fn available_slaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !n.is_master && n.valid)
            .count()
    }

    /// Mean ARM-core utilization so far.
    pub fn mean_utilization(&self, now: SimTime) -> f64 {
        self.cpu.mean_utilization(now)
    }

    fn entry_mut(&mut self, addr: SocketAddr) -> Option<&mut NodeEntry> {
        self.nodes.iter_mut().find(|n| n.addr == addr)
    }

    fn master_conn(&self) -> Option<usize> {
        self.nodes
            .iter()
            .find(|n| n.is_master)
            .and_then(|n| n.conn)
            .filter(|&c| self.conns[c].open)
    }

    /// Send on an open connection; returns the number of RDMA WRs posted
    /// right now (0 when the message was queued behind the handshake or
    /// the channel is closed/broken — see [`Channel::send`]).
    fn send_on(
        &mut self,
        ctx: &mut Context<'_>,
        conn: usize,
        tag: u32,
        payload: impl Into<Frame>,
    ) -> usize {
        if !self.conns[conn].open {
            return 0;
        }
        let net = self.net.clone();
        let posted = self.conns[conn].channel.send(&net, ctx, tag, payload);
        if self.conns[conn].channel.broken() {
            self.close_conn(ctx, conn);
            return 0;
        }
        posted
    }

    /// Tear down a failed connection; the node it belonged to stays in the
    /// list (validity is the probe machinery's business) but loses its
    /// channel until it re-registers. Losing the *master* channel also
    /// takes the hot cache cold and fails outstanding forwards over to
    /// error replies (see [`NicKv::on_master_channel_lost`]).
    fn close_conn(&mut self, ctx: &mut Context<'_>, conn: usize) {
        if !self.conns[conn].open {
            return;
        }
        let was_master = self
            .nodes
            .iter()
            .any(|n| n.is_master && n.conn == Some(conn));
        self.conns[conn].open = false;
        // Whatever was queued behind the handshake dies with the channel;
        // forget its statistics bookkeeping too.
        self.conns[conn].deferred_wrs = 0;
        let _ = self.conns[conn].channel.take_flushed_wrs();
        if let Some(qp) = self.conns[conn].channel.qp() {
            self.net.destroy_qp(qp);
        }
        for e in &mut self.nodes {
            if e.conn == Some(conn) {
                e.conn = None;
            }
        }
        if was_master {
            self.on_master_channel_lost(ctx);
        }
    }

    /// The master channel died. Cached entries can no longer be kept
    /// coherent — a failover master may lag the stream the entries were
    /// versioned against — so the cache goes cold. Outstanding forwarded
    /// commands will never see their cookie replies; answer them with an
    /// error so closed-loop clients keep running (the same liveness a
    /// directly-connected client gets from its broken channel).
    fn on_master_channel_lost(&mut self, ctx: &mut Context<'_>) {
        if let Some(cache) = self.cache.as_mut() {
            cache.clear();
        }
        if self.fwd_pending.is_empty() {
            return;
        }
        let pending = std::mem::replace(&mut self.fwd_pending, DetMap::new());
        let err: Frame = skv_store::resp::Resp::Error("ERR master unavailable".into())
            .encode()
            .into();
        let waiting: Vec<(usize, u64)> = pending.iter().map(|(_, f)| (f.conn, f.ticket)).collect();
        for (conn, ticket) in waiting {
            self.send_reply(ctx, conn, ticket, err.clone());
        }
    }

    /// Whether any *valid* slave lags beyond the configured bound.
    fn any_valid_slave_lagging(&self) -> bool {
        self.nodes.iter().any(|n| {
            !n.is_master
                && n.valid
                && n.position.offset > 0
                && self.master_offset.saturating_sub(n.position.offset) > self.cfg.max_slave_lag
        })
    }

    fn notify_available(&mut self, ctx: &mut Context<'_>) {
        // Every availability change funnels through here — the natural
        // seam for the cross-mode failover policy.
        self.maybe_mode_transition(ctx);
        let available = u32::try_from(self.available_slaves()).unwrap_or(u32::MAX);
        let lagging = self.any_valid_slave_lagging();
        if self.last_update_sent == Some((available, lagging)) {
            return;
        }
        if let Some(conn) = self.master_conn() {
            self.last_update_sent = Some((available, lagging));
            let msg = NodeMsg::SlaveSetUpdate { available, lagging }.encode();
            self.send_on(ctx, conn, tag::NODE, msg);
        }
    }

    // -- message handling ------------------------------------------------------

    fn on_channel_msg(&mut self, ctx: &mut Context<'_>, conn: usize, msg: ChannelMsg) {
        match msg.tag {
            tag::NODE => {
                if let Some(m) = NodeMsg::decode(&msg.payload) {
                    self.on_node_msg(ctx, conn, m);
                }
            }
            // Steady-state replication request from the master (Fig. 9 ①).
            tag::REPL_STREAM => self.fan_out(ctx, msg.payload),
            // Client command landing on the SoC front-end (cache-on runs
            // route clients at the NIC instead of the master).
            tag::CMD => self.on_client_cmd(ctx, conn, msg.payload),
            // Cookie-framed reply for a command we forwarded to the host.
            tag::FWD_REPLY => self.on_fwd_reply(ctx, msg.payload),
            _ => {}
        }
    }

    // -- hot-key GET cache front-end --------------------------------------------

    /// One client command at the SoC front-end. A single-key GET probes
    /// the hot cache: a hit is answered straight from SoC memory after
    /// the ARM lookup cost — the host is never involved. Everything else
    /// (miss, write, multi-key) is relayed to the master as a
    /// cookie-framed [`tag::FWD_CMD`] after the forwarding cost.
    fn on_client_cmd(&mut self, ctx: &mut Context<'_>, conn: usize, payload: Frame) {
        use skv_store::resp::{Decoded, Resp};
        let get_key = match Resp::decode(&payload) {
            Decoded::Frame(v, _) => match v.into_command_args() {
                Ok(mut args)
                    if args.len() == 2 && args[0].eq_ignore_ascii_case(b"GET") =>
                {
                    Some(args.swap_remove(1))
                }
                _ => None,
            },
            _ => None,
        };
        let ticket = self.conns[conn].replies.ticket();
        if let (Some(key), Some(cache)) = (get_key.as_deref(), self.cache.as_mut()) {
            // The sketch tracks GET demand whether or not the key is
            // resident — admission needs hotness for misses too.
            cache.touch(key);
            if let Some(reply) = cache.get(key) {
                let done = self
                    .cpu
                    .run_on(self.fe_core(), ctx.now(), self.cfg.costs.nic_cache_hit)
                    .finished;
                ctx.timer_at(
                    done,
                    NicMsg::CacheReply {
                        conn,
                        ticket,
                        frame: reply,
                    },
                );
                return;
            }
        }
        self.fwd_seq += 1;
        let cookie = fwd_cookie(self.fwd_epoch, self.fwd_seq);
        self.fwd_pending.insert(
            cookie,
            FwdCtx {
                conn,
                ticket,
                key: get_key,
            },
        );
        let mut fwd = Vec::with_capacity(8 + payload.len());
        fwd.extend_from_slice(&cookie.to_le_bytes());
        fwd.extend_from_slice(&payload);
        let done = self
            .cpu
            .run_on(self.fe_core(), ctx.now(), self.cfg.costs.nic_fwd)
            .finished;
        ctx.timer_at(
            done,
            NicMsg::FwdSend {
                cookie,
                frame: fwd.into(),
            },
        );
    }

    /// Relay a cookie-framed client command to the master once the
    /// front-end work is done. With no live master channel the client
    /// gets an immediate error reply instead of hanging its closed loop.
    fn fwd_to_master(&mut self, ctx: &mut Context<'_>, cookie: u64, frame: Frame) {
        if let Some(mconn) = self.master_conn() {
            self.send_on(ctx, mconn, tag::FWD_CMD, frame);
            // A send that broke the master channel already failed every
            // outstanding cookie over to an error reply in `close_conn`.
            return;
        }
        let Some(fwd) = self.fwd_pending.remove(&cookie) else {
            return;
        };
        let err = skv_store::resp::Resp::Error("ERR master unavailable".into()).encode();
        self.send_reply(ctx, fwd.conn, fwd.ticket, err.into());
    }

    /// Send a client reply through its connection's [`ReplyOrder`]: it
    /// waits while an earlier request's reply is unsent, and sending it
    /// may release replies that finished behind it.
    fn send_reply(&mut self, ctx: &mut Context<'_>, conn: usize, ticket: u64, frame: Frame) {
        if !self.conns[conn].open {
            return;
        }
        let Some(reply) = self.conns[conn].replies.finish(ticket, frame) else {
            self.stat_held_replies += 1;
            return;
        };
        self.send_on(ctx, conn, tag::REPLY, reply);
        while let Some(reply) = self.conns[conn].replies.next_due() {
            self.send_on(ctx, conn, tag::REPLY, reply);
        }
    }

    /// A cookie-framed reply came back from the host: pop the pending
    /// forward, offer a successful bulk GET reply for admission, and
    /// relay the inner RESP reply to the waiting client. The admission
    /// version is the replication high-water the NIC has applied — every
    /// write the master acked before producing this reply travelled the
    /// same FIFO channel ahead of it, so the entry is current as of that
    /// offset.
    fn on_fwd_reply(&mut self, ctx: &mut Context<'_>, payload: Frame) {
        if payload.len() < 8 {
            return;
        }
        let Ok(cookie_bytes) = <[u8; 8]>::try_from(&payload[..8]) else {
            return;
        };
        let cookie = u64::from_le_bytes(cookie_bytes);
        if fwd_cookie_epoch(cookie) != self.fwd_epoch {
            // The cookie was minted by a previous SoC incarnation. Without
            // the epoch check a post-restart `fwd_seq` restarting at 1
            // would collide with pre-crash cookies still in flight on the
            // host, handing some new client another command's reply.
            self.stat_fwd_stale_drops += 1;
            return;
        }
        let Some(fwd) = self.fwd_pending.remove(&cookie) else {
            return; // duplicate or already answered-by-error
        };
        let body: Frame = payload[8..].to_vec().into();
        if let (Some(key), Some(cache)) = (fwd.key.as_deref(), self.cache.as_mut()) {
            // Only a present bulk value is a candidate; errors and null
            // bulks (missing key) are not worth a slot.
            if body.first() == Some(&b'$') && !body.starts_with(b"$-1") {
                let version = self.master_offset;
                cache.admit(key, body.clone(), version);
            }
        }
        if !self.conns[fwd.conn].open {
            return; // the client went away; drop the reply
        }
        let done = self
            .cpu
            .run_on(self.fe_core(), ctx.now(), self.cfg.costs.nic_fwd)
            .finished;
        ctx.timer_at(
            done,
            NicMsg::CacheReply {
                conn: fwd.conn,
                ticket: fwd.ticket,
                frame: body,
            },
        );
    }

    /// The invalidation seam: every replicated dirty command piggybacks
    /// on its stream frame, so the cache drops, refreshes, or taints the
    /// affected keys *before* the master's ack for that write can reach
    /// any client — stream frames precede cookie replies on the FIFO
    /// master channel. A no-op (no state, no CPU) with the cache off.
    fn apply_cache_invalidations(&mut self, frame: &Frame) {
        if self.cache.is_none() {
            return;
        }
        use skv_store::resp::{Decoded, Resp};
        let Some((from_offset, body)) = crate::server::parse_stream_frame(frame) else {
            return;
        };
        let version = from_offset + body.len() as u64;
        let Decoded::Frame(v, _) = Resp::decode(body) else {
            return;
        };
        let Ok(args) = v.into_command_args() else {
            return;
        };
        let Some(cache) = self.cache.as_mut() else {
            return;
        };
        let Some(cmd) = args.first() else { return };
        match cmd.to_ascii_uppercase().as_slice() {
            b"SET" => {
                let Some(key) = args.get(1) else { return };
                // A SET carrying any TTL clause taints the key: its host
                // expiry is silent (no stream traffic), so it must never
                // be cached. A plain SET clears old taint and refreshes a
                // resident entry in place.
                let ttl = args.iter().skip(3).any(|a| {
                    let u = a.to_ascii_uppercase();
                    matches!(u.as_slice(), b"EX" | b"PX" | b"EXAT" | b"PXAT" | b"KEEPTTL")
                });
                if ttl {
                    cache.taint(key);
                } else if let Some(value) = args.get(2) {
                    cache.untaint(key);
                    let reply = Resp::Bulk(value.clone()).encode();
                    cache.refresh(key, reply.into(), version);
                }
            }
            b"SETEX" | b"PSETEX" | b"GETEX" | b"EXPIRE" | b"PEXPIRE" | b"EXPIREAT"
            | b"PEXPIREAT" => {
                if let Some(key) = args.get(1) {
                    cache.taint(key);
                }
            }
            b"PERSIST" => {
                if let Some(key) = args.get(1) {
                    cache.untaint(key);
                }
            }
            b"DEL" | b"UNLINK" => {
                for key in &args[1..] {
                    cache.untaint(key);
                    cache.invalidate(key);
                }
            }
            b"MSET" => {
                let mut i = 1;
                while i + 1 < args.len() {
                    cache.untaint(&args[i]);
                    let reply = Resp::Bulk(args[i + 1].clone()).encode();
                    cache.refresh(&args[i], reply.into(), version);
                    i += 2;
                }
            }
            b"FLUSHALL" | b"FLUSHDB" => cache.clear(),
            _ => {
                // Unknown mutator: conservatively drop every key-looking
                // argument.
                for key in &args[1..] {
                    cache.invalidate(key);
                }
            }
        }
    }

    fn on_node_msg(&mut self, ctx: &mut Context<'_>, conn: usize, msg: NodeMsg) {
        match msg {
            NodeMsg::Hello { from, is_master } => {
                self.upsert_node(ctx.now(), from, is_master, Some(conn));
                if is_master {
                    // §III-D: a returning original master demotes whoever
                    // was promoted in its absence.
                    self.demote_promoted(ctx);
                    // Tell the master how many slaves are already valid.
                    self.notify_available(ctx);
                    if self.cfg.mode_failover && self.active_mode != self.cfg.repl_mode {
                        // A (re)connecting master defaults to the
                        // configured mode; bring it up to date with the
                        // mode actually in force.
                        let msg = NodeMsg::ModeChange {
                            mode: self.active_mode,
                        }
                        .encode();
                        self.send_on(ctx, conn, tag::NODE, msg);
                    }
                    if self.deferred() {
                        // A reconnecting master lost any earlier commit
                        // notification state; resend the frontier.
                        self.notified_upto = 0;
                        self.notify_committed(ctx);
                    }
                }
            }
            NodeMsg::SyncRequest { slave, position } => {
                // Fig. 8 ①: record the slave's replication status at the
                // end of the node list, then notify the master (②).
                self.upsert_node(ctx.now(), slave, false, Some(conn));
                if let Some(e) = self.entry_mut(slave) {
                    e.position = position;
                }
                // Small ARM-core cost for parsing + list update
                // (reference-core time; the pool scales it down).
                self.cpu.run_any(ctx.now(), SimDuration::from_nanos(400));
                if let Some(mconn) = self.master_conn() {
                    let relay = NodeMsg::SyncNotify { slave, position }.encode();
                    self.send_on(ctx, mconn, tag::NODE, relay);
                }
                self.notify_available(ctx);
                if self.deferred() {
                    self.apply_ack(ctx, slave, position.offset);
                    match self.active_mode {
                        ReplModeKind::Quorum => self.retransmit_pending(ctx, slave),
                        ReplModeKind::Chain => {
                            // A healed slave re-enters the replication
                            // topology here: splice it onto the *tail* of
                            // every in-flight chain its cumulative offset
                            // does not already cover.
                            let spliced = Self::splice_rejoined_hops(
                                &mut self.pending,
                                slave,
                                position.offset,
                            );
                            if spliced > 0 {
                                self.stat_chain_rejoins += 1;
                            }
                        }
                        ReplModeKind::Async => {}
                    }
                }
            }
            NodeMsg::ProgressReport { slave, offset } => {
                if let Some(e) = self.entry_mut(slave) {
                    e.position.offset = e.position.offset.max(offset);
                    e.last_reply = ctx.now();
                }
                if self.deferred() {
                    self.apply_ack(ctx, slave, offset);
                }
            }
            NodeMsg::WriteAck { slave, offset } => {
                // Chain hop acknowledgement: the slave *applied* the
                // stream up to `offset` (cumulative, so one ack can cover
                // several pending writes).
                if let Some(e) = self.entry_mut(slave) {
                    e.position.offset = e.position.offset.max(offset);
                    e.last_reply = ctx.now();
                }
                if self.deferred() {
                    self.apply_ack(ctx, slave, offset);
                }
            }
            NodeMsg::ProbeReply { seq: _, from } => {
                let now = ctx.now();
                let mut became_valid = false;
                let mut master_returned = false;
                if let Some(e) = self.entry_mut(from) {
                    e.last_reply = now;
                    e.pending_probe_since = None;
                    if !e.valid {
                        e.valid = true;
                        became_valid = true;
                        master_returned = e.is_master;
                        // The node's replication state is unknown until it
                        // reports fresh progress; don't let a stale offset
                        // trip the lag check.
                        e.position.offset = 0;
                    }
                }
                if became_valid {
                    self.recoveries.push((now, from));
                }
                if master_returned {
                    // §III-D: "when the original master node is found
                    // recovered, Nic-KV lets it continue to be the master
                    // node and downgrades the previously selected master".
                    self.demote_promoted(ctx);
                }
                if became_valid {
                    self.notify_available(ctx);
                }
            }
            _ => {}
        }
    }

    /// Send Demote to the slave promoted during a failover, if any.
    fn demote_promoted(&mut self, ctx: &mut Context<'_>) {
        if let Some(promoted) = self.promoted.take() {
            if let Some(conn) = self.entry_mut(promoted).and_then(|e| e.conn) {
                let msg = NodeMsg::Demote.encode();
                self.send_on(ctx, conn, tag::NODE, msg);
            }
        }
    }

    fn upsert_node(
        &mut self,
        now: SimTime,
        addr: SocketAddr,
        is_master: bool,
        conn: Option<usize>,
    ) {
        let mut revalidated = false;
        match self.entry_mut(addr) {
            Some(e) => {
                e.last_reply = now;
                e.pending_probe_since = None;
                if !e.valid {
                    e.valid = true;
                    revalidated = true;
                }
                if conn.is_some() {
                    e.conn = conn;
                }
                e.is_master = is_master || e.is_master;
            }
            None => self.nodes.push(NodeEntry {
                addr,
                is_master,
                position: ReplicationPosition::unsynced(),
                valid: true,
                last_reply: now,
                pending_probe_since: None,
                conn,
            }),
        }
        if revalidated {
            self.recoveries.push((now, addr));
        }
    }

    /// Steady-state fan-out (Fig. 9 ②): write the command into each valid
    /// slave's send buffer and post one WRITE_WITH_IMM per slave, the work
    /// spread round-robin across `thread-num` ARM cores.
    fn fan_out(&mut self, ctx: &mut Context<'_>, frame: Frame) {
        self.note_shard_ingress(&frame);
        self.apply_cache_invalidations(&frame);
        if self.deferred() {
            // Quorum/chain modes track per-write acks; the async fast path
            // below stays bit-identical when `repl_mode` is `Async`.
            self.fan_out_tracked(ctx, frame);
            return;
        }
        self.stat_fanout_msgs += 1;
        // Track the master's offset from the frame header (first 8 bytes),
        // for the lag check of §III-C.
        if let Some((from_offset, body)) = crate::server::parse_stream_frame(&frame) {
            self.master_offset = self.master_offset.max(from_offset + body.len() as u64);
        }
        self.async_send(ctx, frame);
    }

    /// The async-stream send body: per-slave ARM work then one
    /// WRITE_WITH_IMM per valid slave (batched under one doorbell in
    /// `batch_wr_posts` mode). Shared by the steady-state fast path and
    /// the degrade flush, which re-launches window-parked tracked frames
    /// under async semantics (already counted in `stat_fanout_msgs`).
    fn async_send(&mut self, ctx: &mut Context<'_>, frame: Frame) {
        let threads = self.cfg.effective_nic_threads();
        let base = self.cfg.costs.nic_fanout_base;
        let per_slave = self.cfg.costs.nic_per_slave;

        let targets: Vec<usize> = self
            .nodes
            .iter()
            .filter(|n| !n.is_master && n.valid)
            .filter_map(|n| n.conn)
            .filter(|&c| self.conns[c].open)
            .collect();

        // Parsing the request happens once, on the thread that owns the
        // master connection (thread 0 by convention).
        self.cpu.run_on(0, ctx.now(), base);
        if self.cfg.batch_wr_posts {
            // Doorbell-batched mode: each thread still pays its per-slave
            // ring-write cost, but the WQEs are only staged; one doorbell
            // flushes them all once the last thread finishes.
            let mut batch_done = ctx.now();
            let mut conns = Vec::with_capacity(targets.len());
            for conn in targets {
                let thread = self.fanout_cursor % threads;
                self.fanout_cursor += 1;
                let done = self.cpu.run_on(thread, ctx.now(), per_slave).finished;
                self.stat_fanout_sends += 1;
                if done > batch_done {
                    batch_done = done;
                }
                conns.push(conn);
            }
            if !conns.is_empty() {
                ctx.timer_at(batch_done, NicMsg::FanoutSendBatch { conns, frame });
            }
            return;
        }
        for conn in targets {
            let thread = self.fanout_cursor % threads;
            self.fanout_cursor += 1;
            let done = self.cpu.run_on(thread, ctx.now(), per_slave).finished;
            self.stat_fanout_sends += 1;
            ctx.timer_at(
                done,
                NicMsg::FanoutSend {
                    conn,
                    frame: frame.clone(),
                },
            );
        }
    }

    /// Post the staged fan-out WRs for one replicated write under a single
    /// doorbell. Channels whose handshake is still outstanding queue the
    /// message internally (as `send` would); a failed batch entry breaks
    /// only its own channel.
    fn fan_out_batch(&mut self, ctx: &mut Context<'_>, conns: Vec<usize>, frame: Frame) {
        let net = self.net.clone();
        let mut staged = Vec::with_capacity(conns.len());
        let mut wrs = Vec::with_capacity(conns.len());
        for conn in conns {
            if !self.conns[conn].open {
                continue;
            }
            if let Some((qp, wr)) = self.conns[conn]
                .channel
                .build_wr(tag::REPL_STREAM, frame.clone())
            {
                staged.push(conn);
                wrs.push((qp, wr));
            } else if !self.conns[conn].channel.ready() {
                // Queued behind the handshake; it posts (and is counted)
                // from the completion drain's flush accounting.
                self.conns[conn].deferred_wrs += 1;
            }
        }
        if wrs.is_empty() {
            return;
        }
        self.stat_doorbells += 1;
        self.stat_wrs_posted += wrs.len() as u64;
        let outcomes = net.post_send_batch(ctx, wrs);
        for (conn, outcome) in staged.into_iter().zip(outcomes) {
            if outcome.is_err() {
                self.conns[conn].channel.mark_broken();
                self.close_conn(ctx, conn);
            }
        }
    }

    // -- tracked replication (quorum / chain modes) -----------------------------

    /// Tracked-mode entry point for one replicated write. Shares the async
    /// path's parse cost and offset bookkeeping, then launches the write
    /// under the mode's WR pattern — or parks it in `window_queue` when the
    /// in-flight window is full.
    fn fan_out_tracked(&mut self, ctx: &mut Context<'_>, frame: Frame) {
        self.stat_fanout_msgs += 1;
        let Some((from_offset, body)) = crate::server::parse_stream_frame(&frame) else {
            return;
        };
        let end_offset = from_offset + body.len() as u64;
        self.master_offset = self.master_offset.max(end_offset);
        if self.pending.len() >= self.cfg.repl_window.max(1) {
            self.window_queue.push_back(frame);
            return;
        }
        self.launch_write(ctx, frame, end_offset);
    }

    fn launch_write(&mut self, ctx: &mut Context<'_>, frame: Frame, end_offset: u64) {
        // Parse cost on the master-connection thread, as in the async path.
        self.cpu
            .run_on(0, ctx.now(), self.cfg.costs.nic_fanout_base);
        self.write_seq += 1;
        let seq = self.write_seq;
        let targets: Vec<(usize, SocketAddr)> = self
            .nodes
            .iter()
            .filter(|n| !n.is_master && n.valid)
            .filter_map(|n| n.conn.map(|c| (c, n.addr)))
            .filter(|&(c, _)| self.conns[c].open)
            .collect();
        match self.active_mode {
            ReplModeKind::Quorum => {
                let needed = quorum_slave_acks(self.cfg.num_slaves);
                self.pending.push_back(PendingWrite {
                    seq,
                    end_offset,
                    frame,
                    acked: Vec::new(),
                    needed,
                    hops: VecDeque::new(),
                    hop_inflight: false,
                });
                let threads = self.cfg.effective_nic_threads();
                let per_slave = self.cfg.costs.nic_per_slave;
                let mut batch_done = ctx.now();
                let mut conns = Vec::with_capacity(targets.len());
                for (conn, _) in targets {
                    let thread = self.fanout_cursor % threads;
                    self.fanout_cursor += 1;
                    let done = self.cpu.run_on(thread, ctx.now(), per_slave).finished;
                    self.stat_fanout_sends += 1;
                    if done > batch_done {
                        batch_done = done;
                    }
                    conns.push(conn);
                }
                if !conns.is_empty() {
                    ctx.timer_at(batch_done, NicMsg::TrackedSend { seq, conns });
                }
                // N = 0 commits immediately (master is the whole quorum).
                self.check_commits(ctx);
            }
            ReplModeKind::Chain => {
                let hops: VecDeque<SocketAddr> =
                    targets.into_iter().map(|(_, addr)| addr).collect();
                self.pending.push_back(PendingWrite {
                    seq,
                    end_offset,
                    frame,
                    acked: Vec::new(),
                    needed: 0,
                    hops,
                    hop_inflight: false,
                });
                self.advance_chain(ctx, seq);
            }
            ReplModeKind::Async => unreachable!("async writes use fan_out"),
        }
    }

    /// Post one tracked write's WRs to `conns` under a single doorbell,
    /// arming `wr_acks` so the send-side completions land back on the
    /// write. Also the quorum retransmit path (single-conn `conns`).
    fn tracked_send(&mut self, ctx: &mut Context<'_>, seq: u64, conns: Vec<usize>) {
        let Some(frame) = self
            .pending
            .iter()
            .find(|p| p.seq == seq)
            .map(|p| p.frame.clone())
        else {
            return; // committed before the fan-out work finished
        };
        let net = self.net.clone();
        let mut staged: Vec<(usize, QpId, u64)> = Vec::with_capacity(conns.len());
        let mut wrs = Vec::with_capacity(conns.len());
        for conn in conns {
            if !self.conns[conn].open {
                continue;
            }
            let Some(addr) = self.addr_of_conn(conn) else {
                continue;
            };
            if let Some((qp, wr)) = self.conns[conn]
                .channel
                .build_wr(tag::REPL_STREAM, frame.clone())
            {
                self.wr_acks.insert((qp, wr.wr_id), (seq, addr));
                staged.push((conn, qp, wr.wr_id));
                wrs.push((qp, wr));
            } else if !self.conns[conn].channel.ready() {
                // Queued behind the handshake. No completion will carry
                // this WR back to `wr_acks`; the slave's cumulative
                // progress (`ProgressReport`/resync) acks it instead.
                self.conns[conn].deferred_wrs += 1;
            }
        }
        if wrs.is_empty() {
            return;
        }
        self.stat_doorbells += 1;
        self.stat_wrs_posted += wrs.len() as u64;
        let outcomes = net.post_send_batch(ctx, wrs);
        for ((conn, qp, wr_id), outcome) in staged.into_iter().zip(outcomes) {
            if outcome.is_err() {
                self.wr_acks.remove(&(qp, wr_id));
                self.conns[conn].channel.mark_broken();
                self.close_conn(ctx, conn);
            }
        }
    }

    /// Chain mode: prune dead head hops, then schedule a post to the
    /// current head if none is in flight.
    fn advance_chain(&mut self, ctx: &mut Context<'_>, seq: u64) {
        let Some(idx) = self.pending.iter().position(|p| p.seq == seq) else {
            return;
        };
        while let Some(next) = self.pending[idx].hops.front().copied() {
            let alive = self
                .nodes
                .iter()
                .any(|n| n.addr == next && n.valid && n.conn.is_some_and(|c| self.conns[c].open));
            if alive {
                break;
            }
            self.pending[idx].hops.pop_front();
            self.pending[idx].hop_inflight = false;
            self.stat_chain_repairs += 1;
        }
        if self.pending[idx].hops.is_empty() {
            self.check_commits(ctx);
            return;
        }
        if self.pending[idx].hop_inflight {
            return;
        }
        self.pending[idx].hop_inflight = true;
        let threads = self.cfg.effective_nic_threads();
        let thread = self.fanout_cursor % threads;
        self.fanout_cursor += 1;
        let done = self
            .cpu
            .run_on(thread, ctx.now(), self.cfg.costs.nic_per_slave)
            .finished;
        self.stat_fanout_sends += 1;
        ctx.timer_at(done, NicMsg::ChainHop { seq });
    }

    /// Post one chain write to its head hop (the `ChainHop` timer body).
    fn chain_hop_post(&mut self, ctx: &mut Context<'_>, seq: u64) {
        let Some(idx) = self.pending.iter().position(|p| p.seq == seq) else {
            return;
        };
        let Some(target) = self.pending[idx].hops.front().copied() else {
            self.pending[idx].hop_inflight = false;
            self.check_commits(ctx);
            return;
        };
        let conn = self
            .nodes
            .iter()
            .find(|n| n.addr == target)
            .and_then(|n| n.conn)
            .filter(|&c| self.conns[c].open);
        let Some(conn) = conn else {
            // The hop died between scheduling and posting.
            self.pending[idx].hop_inflight = false;
            self.chain_repair(ctx);
            return;
        };
        let frame = self.pending[idx].frame.clone();
        let net = self.net.clone();
        if let Some((qp, wr)) = self.conns[conn].channel.build_wr(tag::REPL_STREAM, frame) {
            let wr_id = wr.wr_id;
            self.wr_acks.insert((qp, wr_id), (seq, target));
            self.stat_doorbells += 1;
            self.stat_wrs_posted += 1;
            if net.post_send(ctx, qp, wr).is_err() {
                self.wr_acks.remove(&(qp, wr_id));
                self.conns[conn].channel.mark_broken();
                self.close_conn(ctx, conn);
                self.pending[idx].hop_inflight = false;
                self.chain_repair(ctx);
            }
        } else if !self.conns[conn].channel.ready() {
            // Queued behind the handshake; it posts from the drain's flush
            // and the hop still completes via the slave's applied ack.
            self.conns[conn].deferred_wrs += 1;
        }
    }

    /// A tracked WR completed successfully: `slave` holds the write's
    /// bytes (RC semantics — a send-side success means remote placement).
    fn on_wr_ack(&mut self, ctx: &mut Context<'_>, seq: u64, slave: SocketAddr) {
        match self.active_mode {
            ReplModeKind::Quorum => {
                if let Some(p) = self.pending.iter_mut().find(|p| p.seq == seq) {
                    if !p.acked.contains(&slave) {
                        p.acked.push(slave);
                    }
                }
                self.check_commits(ctx);
            }
            // Chain hops advance on the slave's *applied* ack (`WriteAck`),
            // not on delivery; nothing to do for the completion itself.
            ReplModeKind::Chain | ReplModeKind::Async => {}
        }
    }

    /// A tracked WR failed. Quorum just loses this ack (the slave's resync
    /// progress is the backstop); chain must splice the dead hop out and
    /// move the write along.
    fn on_wr_error(&mut self, ctx: &mut Context<'_>, seq: u64, slave: SocketAddr) {
        if self.active_mode != ReplModeKind::Chain {
            return;
        }
        let mut advance = false;
        if let Some(p) = self.pending.iter_mut().find(|p| p.seq == seq) {
            if p.hops.front() == Some(&slave) {
                p.hops.pop_front();
                p.hop_inflight = false;
            } else {
                p.hops.retain(|h| *h != slave);
            }
            self.stat_chain_repairs += 1;
            advance = !p.hops.is_empty();
        }
        if advance {
            self.advance_chain(ctx, seq);
        }
        self.check_commits(ctx);
    }

    /// Fold a slave's cumulative applied offset (`WriteAck`, NIC-side
    /// `ProgressReport`, or re-registration position) into every pending
    /// write it covers. The cumulative form makes lost per-WR acks and
    /// resync-delivered bytes converge on the same commit bookkeeping.
    fn apply_ack(&mut self, ctx: &mut Context<'_>, slave: SocketAddr, upto: u64) {
        if self.pending.is_empty() {
            return;
        }
        let chain = self.active_mode == ReplModeKind::Chain;
        let mut advance: Vec<u64> = Vec::new();
        for p in &mut self.pending {
            if p.end_offset > upto {
                break;
            }
            if !p.acked.contains(&slave) {
                p.acked.push(slave);
            }
            if chain {
                if p.hops.front() == Some(&slave) {
                    p.hops.pop_front();
                    p.hop_inflight = false;
                    if !p.hops.is_empty() {
                        advance.push(p.seq);
                    }
                } else if p.hops.contains(&slave) {
                    // Covered out of order (a resync ran ahead of the
                    // chain): drop the hop wherever it sits.
                    p.hops.retain(|h| *h != slave);
                }
            }
        }
        for seq in advance {
            self.advance_chain(ctx, seq);
        }
        self.check_commits(ctx);
    }

    /// Pop every front write whose commit condition holds, bump
    /// `committed_upto`, notify the master, and refill the window.
    fn check_commits(&mut self, ctx: &mut Context<'_>) {
        if !self.deferred() {
            return;
        }
        let chain = self.active_mode == ReplModeKind::Chain;
        let mut committed = false;
        loop {
            let done = match self.pending.front() {
                Some(p) if chain => p.hops.is_empty(),
                Some(p) => p.acked.len() >= p.needed,
                None => false,
            };
            if !done {
                break;
            }
            let Some(p) = self.pending.pop_front() else {
                break;
            };
            self.committed_upto = self.committed_upto.max(p.end_offset);
            self.stat_commits += 1;
            if self.cfg.record_commits {
                self.committed_acks.push((p.end_offset, p.acked));
            }
            committed = true;
        }
        if committed {
            self.notify_committed(ctx);
            self.refill_window(ctx);
        }
    }

    /// Push the commit frontier to the master so it can release deferred
    /// client replies.
    fn notify_committed(&mut self, ctx: &mut Context<'_>) {
        if self.committed_upto <= self.notified_upto {
            return;
        }
        if let Some(conn) = self.master_conn() {
            self.notified_upto = self.committed_upto;
            let msg = NodeMsg::WriteCommitted {
                upto: self.committed_upto,
            }
            .encode();
            self.send_on(ctx, conn, tag::NODE, msg);
        }
    }

    /// Launch queued writes into freed window slots.
    fn refill_window(&mut self, ctx: &mut Context<'_>) {
        while self.pending.len() < self.cfg.repl_window.max(1) {
            let Some(frame) = self.window_queue.pop_front() else {
                return;
            };
            let Some((from_offset, body)) = crate::server::parse_stream_frame(&frame) else {
                continue;
            };
            let end_offset = from_offset + body.len() as u64;
            self.launch_write(ctx, frame, end_offset);
        }
    }

    /// Quorum mode: re-post every pending write a re-registering slave has
    /// not acked. Duplicate delivery is harmless (slave-side offset
    /// dedupe); the completions repair acks lost to a broken QP.
    fn retransmit_pending(&mut self, ctx: &mut Context<'_>, slave: SocketAddr) {
        let Some(conn) = self
            .nodes
            .iter()
            .find(|n| n.addr == slave)
            .and_then(|n| n.conn)
            .filter(|&c| self.conns[c].open)
        else {
            return;
        };
        let seqs: Vec<u64> = self
            .pending
            .iter()
            .filter(|p| !p.acked.contains(&slave))
            .map(|p| p.seq)
            .collect();
        for seq in seqs {
            self.stat_retransmits += 1;
            self.cpu.run_any(ctx.now(), self.cfg.costs.nic_per_slave);
            self.tracked_send(ctx, seq, vec![conn]);
        }
    }

    /// Chain mode: splice every dead hop out of every in-flight chain and
    /// re-drive stalled writes. Run after completion drains and failure
    /// detections — any path that can tear a conn down.
    fn chain_repair(&mut self, ctx: &mut Context<'_>) {
        if self.active_mode != ReplModeKind::Chain {
            return;
        }
        let alive: Vec<SocketAddr> = self
            .nodes
            .iter()
            .filter(|n| !n.is_master && n.valid && n.conn.is_some_and(|c| self.conns[c].open))
            .map(|n| n.addr)
            .collect();
        let mut advance: Vec<u64> = Vec::new();
        let mut repaired = false;
        for p in &mut self.pending {
            let before = p.hops.len();
            let front = p.hops.front().copied();
            p.hops.retain(|h| alive.contains(h));
            if p.hops.len() != before {
                repaired = true;
                if p.hops.front().copied() != front {
                    p.hop_inflight = false;
                }
            }
            if !p.hop_inflight && !p.hops.is_empty() {
                advance.push(p.seq);
            }
        }
        if repaired {
            self.stat_chain_repairs += 1;
        }
        for seq in advance {
            self.advance_chain(ctx, seq);
        }
        self.check_commits(ctx);
    }

    /// Chain mode: splice a re-registering slave back into the hop order.
    /// The slave resumes at the *tail* of every in-flight chain — never
    /// mid-chain, which would reorder hops under writes already past it —
    /// and only for writes its cumulative applied offset does not cover.
    /// The historical bug was re-adding the slave to every pending write:
    /// writes below its resync offset were then delivered twice, once by
    /// the master's resync stream and once by the replayed chain hop, and
    /// the chain stalled waiting for an applied ack the slave's offset
    /// dedupe had already swallowed. Returns the number of chains spliced.
    fn splice_rejoined_hops(
        pending: &mut VecDeque<PendingWrite>,
        slave: SocketAddr,
        acked_upto: u64,
    ) -> usize {
        let mut spliced = 0;
        for p in pending.iter_mut() {
            // `end_offset <= acked_upto`: the resync stream already
            // carried these bytes — replaying the hop would open an
            // overlapping delivery window.
            if p.end_offset <= acked_upto
                || p.acked.contains(&slave)
                || p.hops.contains(&slave)
                // A chain whose hop list already drained is committed (or
                // about to be); un-committing it would regress the
                // frontier announced to the master.
                || p.hops.is_empty()
            {
                continue;
            }
            p.hops.push_back(slave);
            spliced += 1;
        }
        spliced
    }

    // -- cross-mode failover (`ClusterConfig::mode_failover`) -------------------

    /// The failover policy, run on every availability change: a quorum
    /// cluster that can no longer assemble a write quorum degrades to the
    /// async stream rather than stalling every client, and re-promotes to
    /// the configured mode once enough slaves return. Linearizability is
    /// promised only up to the first degradation instant; `mode_changes`
    /// is the seam `histcheck::check_linearizable_upto` cuts at.
    fn maybe_mode_transition(&mut self, ctx: &mut Context<'_>) {
        if !self.cfg.mode_failover || self.cfg.repl_mode != ReplModeKind::Quorum {
            return;
        }
        let need = quorum_slave_acks(self.cfg.num_slaves);
        let avail = self.available_slaves();
        self.peak_slaves = self.peak_slaves.max(avail);
        if self.active_mode == self.cfg.repl_mode && avail < need && self.peak_slaves >= need {
            self.degrade_to_async(ctx);
        } else if self.active_mode == ReplModeKind::Async && avail >= need {
            self.promote_to_configured(ctx);
        }
    }

    /// Degrade to the async stream. Every byte the master has streamed so
    /// far is re-declared committed under async semantics (the master's
    /// deferred replies release), tracked-write state is dropped, and
    /// window-parked frames are flushed through the async fast path so no
    /// write is lost in the transition.
    fn degrade_to_async(&mut self, ctx: &mut Context<'_>) {
        self.active_mode = ReplModeKind::Async;
        self.stat_mode_changes += 1;
        self.mode_changes.push((ctx.now(), ReplModeKind::Async));
        self.committed_upto = self.committed_upto.max(self.master_offset);
        self.pending.clear();
        self.wr_acks = DetMap::new();
        let queued: Vec<Frame> = self.window_queue.drain(..).collect();
        for frame in queued {
            self.async_send(ctx, frame);
        }
        if let Some(conn) = self.master_conn() {
            let msg = NodeMsg::ModeChange {
                mode: ReplModeKind::Async,
            }
            .encode();
            self.send_on(ctx, conn, tag::NODE, msg);
        }
        self.notify_committed(ctx);
    }

    /// Re-promote to the configured mode. The async interlude's bytes
    /// commit by the semantics they were written under; tracking starts
    /// fresh at the current stream frontier.
    fn promote_to_configured(&mut self, ctx: &mut Context<'_>) {
        self.active_mode = self.cfg.repl_mode;
        self.stat_mode_changes += 1;
        self.mode_changes.push((ctx.now(), self.active_mode));
        self.committed_upto = self.committed_upto.max(self.master_offset);
        if let Some(conn) = self.master_conn() {
            let msg = NodeMsg::ModeChange {
                mode: self.active_mode,
            }
            .encode();
            self.send_on(ctx, conn, tag::NODE, msg);
        }
        self.notify_committed(ctx);
    }

    // -- failure detection (§III-D) ---------------------------------------------

    fn on_probe_tick(&mut self, ctx: &mut Context<'_>) {
        ctx.timer(self.cfg.probe_interval, NicMsg::ProbeTick);
        let now = ctx.now();
        self.probe_seq += 1;
        let seq = self.probe_seq;

        // A node is failed when a probe sent `waiting-time` ago has no
        // reply (§III-D).
        let waiting = self.cfg.waiting_time;
        let mut detected = Vec::new();
        let mut master_failed = false;
        for e in &mut self.nodes {
            let overdue = e
                .pending_probe_since
                .is_some_and(|t| now.saturating_since(t) > waiting);
            if e.valid && overdue {
                e.valid = false;
                detected.push((now, e.addr));
                if e.is_master {
                    master_failed = true;
                }
            }
        }
        let any_detected = !detected.is_empty();
        self.detections.extend(detected);
        if master_failed && self.promoted.is_none() {
            self.failover(ctx);
        }

        // Send this round's probes (cheap ARM work per probe). One encode,
        // one buffer: each target's copy is a Frame refcount bump.
        let probe: Frame = NodeMsg::Probe { seq }.encode().into();
        let targets: Vec<(usize, SocketAddr)> = self
            .nodes
            .iter()
            .filter_map(|e| e.conn.map(|c| (c, e.addr)))
            .filter(|&(c, _)| self.conns[c].open)
            .collect();
        for (conn, addr) in targets {
            let cost = SimDuration::from_nanos(150);
            self.cpu.run_any(now, cost);
            self.stat_probes += 1;
            if let Some(e) = self.entry_mut(addr) {
                if e.pending_probe_since.is_none() {
                    e.pending_probe_since = Some(now);
                }
            }
            self.send_on(ctx, conn, tag::NODE, probe.clone());
        }
        // Push availability/lag state to the master when it changed.
        if any_detected {
            // Newly invalid nodes break in-flight chains: splice them out.
            self.chain_repair(ctx);
        }
        self.notify_available(ctx);
    }

    /// §III-D: "one of the available slave nodes is selected as the master
    /// node" — the one with the highest replication offset loses the least.
    fn failover(&mut self, ctx: &mut Context<'_>) {
        let best = self
            .nodes
            .iter()
            .filter(|n| !n.is_master && n.valid)
            .max_by_key(|n| (n.position.offset, std::cmp::Reverse(n.addr)))
            .map(|n| (n.addr, n.conn));
        let Some((addr, Some(conn))) = best else {
            return;
        };
        self.promoted = Some(addr);
        self.stat_failovers += 1;
        let msg = NodeMsg::Promote.encode();
        self.send_on(ctx, conn, tag::NODE, msg);
    }
}

impl Actor for NicKv {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let me = ctx.id();
        let cq = self.net.create_cq(me);
        self.cq = Some(cq);
        self.net.rdma_listen(self.addr, me);
        self.net.req_notify_cq(ctx, cq);
        ctx.timer(self.cfg.probe_interval, NicMsg::ProbeTick);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ActorId, msg: Payload) {
        // Control events work even while crashed (Recover must).
        let msg = match msg.downcast::<NicControl>() {
            Ok(ctrl) => {
                match *ctrl {
                    NicControl::Crash => {
                        self.crashed = true;
                        self.net.set_node_up(self.node, false);
                    }
                    NicControl::Recover => {
                        self.crashed = false;
                        self.net.set_node_up(self.node, true);
                        // The SoC restarted: transport state and the node
                        // list are gone. The master's Hello redial and the
                        // slaves' re-registration polls rebuild the list.
                        // Front-end state first — a restarted process has
                        // no cookies to answer and rejoins with a *cold*
                        // cache — and before the close loop, so tearing
                        // down the master conn doesn't fire error replies
                        // into already-dead client channels.
                        if let Some(cache) = self.cache.as_mut() {
                            cache.clear();
                        }
                        self.fwd_seq = 0;
                        // The boot counter is the one durable datum: it
                        // fences every cookie minted before this restart.
                        self.fwd_epoch += 1;
                        self.fwd_pending = DetMap::new();
                        self.nodes.clear();
                        for i in 0..self.conns.len() {
                            self.close_conn(ctx, i);
                        }
                        self.promoted = None;
                        self.master_offset = 0;
                        self.last_update_sent = None;
                        // Tracked-mode state is process state: gone too.
                        // The master re-replicates unacked bytes through
                        // resync; uncommitted writes surface as timeouts.
                        self.pending.clear();
                        self.wr_acks = DetMap::new();
                        self.window_queue.clear();
                        self.committed_upto = 0;
                        self.notified_upto = 0;
                        // Route stale completions through the channels so
                        // surviving receive slots are replenished (the
                        // messages themselves are dropped — the process
                        // "restarted"), then re-arm. Same helper as
                        // KvServer::Recover.
                        if let Some(cq) = self.cq {
                            let net = self.net.clone();
                            cqdrain::recover_drain(&net, ctx, cq, |ctx, wc| {
                                if let Some(&conn) = self.by_qp.get(&wc.qp) {
                                    let _ = self.conns[conn].channel.on_wc(&net, ctx, &wc);
                                }
                            });
                        }
                    }
                }
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<NicMsg>() {
            Ok(m) => {
                match *m {
                    // Keep the probe-timer chain alive through a crash so
                    // probing resumes on recovery.
                    NicMsg::ProbeTick if self.crashed => {
                        ctx.timer(self.cfg.probe_interval, NicMsg::ProbeTick);
                    }
                    NicMsg::ProbeTick => self.on_probe_tick(ctx),
                    NicMsg::FanoutSend { .. } if self.crashed => {}
                    NicMsg::FanoutSend { conn, frame } => {
                        // Count at actual post time: `send_on` reports how
                        // many WRs really rang a doorbell. A frame queued
                        // behind the MR handshake posts later, inside the
                        // completion drain's flush — `deferred_wrs` carries
                        // it to that accounting point.
                        let was_open = self.conns[conn].open;
                        let posted = self.send_on(ctx, conn, tag::REPL_STREAM, frame) as u64;
                        self.stat_doorbells += posted;
                        self.stat_wrs_posted += posted;
                        if posted == 0
                            && was_open
                            && self.conns[conn].open
                            && !self.conns[conn].channel.ready()
                        {
                            self.conns[conn].deferred_wrs += 1;
                        }
                    }
                    NicMsg::FanoutSendBatch { .. } if self.crashed => {}
                    NicMsg::FanoutSendBatch { conns, frame } => {
                        self.fan_out_batch(ctx, conns, frame);
                    }
                    NicMsg::TrackedSend { .. } if self.crashed => {}
                    NicMsg::TrackedSend { seq, conns } => {
                        self.tracked_send(ctx, seq, conns);
                    }
                    NicMsg::ChainHop { .. } if self.crashed => {}
                    NicMsg::ChainHop { seq } => {
                        self.chain_hop_post(ctx, seq);
                    }
                    NicMsg::CacheReply { .. } if self.crashed => {}
                    NicMsg::CacheReply {
                        conn,
                        ticket,
                        frame,
                    } => self.send_reply(ctx, conn, ticket, frame),
                    NicMsg::FwdSend { .. } if self.crashed => {}
                    NicMsg::FwdSend { cookie, frame } => {
                        self.fwd_to_master(ctx, cookie, frame);
                    }
                }
                return;
            }
            Err(other) => other,
        };
        if self.crashed {
            return; // a crashed process handles nothing
        }
        let Ok(ev) = msg.downcast::<NetEvent>() else {
            return;
        };
        match *ev {
            NetEvent::CmConnectRequest { req, .. } => {
                // Stale or double-answered requests are benign: ignore.
                let Some(cq) = self.cq else { return };
                let _ = self.net.rdma_accept(ctx, req, cq);
            }
            NetEvent::CmEstablished { qp, .. } => {
                if self.by_qp.contains_key(&qp) {
                    return;
                }
                let net = self.net.clone();
                let ch = Channel::rdma(&net, ctx, self.node, qp, self.cfg.ring_size);
                let idx = self.conns.len();
                self.by_qp.insert(qp, idx);
                self.conns.push(ConnState {
                    channel: ch,
                    open: true,
                    deferred_wrs: 0,
                    replies: ReplyOrder::default(),
                });
            }
            NetEvent::CqNotify { cq } => {
                // Budgeted drain on the slow ARM cores: at most
                // `cq_poll_budget` completions per event, CPU charged to
                // thread 0, over-budget bursts continued after that work —
                // the realistic back-pressure under fan-in.
                let net = self.net.clone();
                let budget = self.cfg.cq_poll_budget;
                let out = cqdrain::drain_budgeted(&net, ctx, cq, budget, |ctx, wc| {
                    let Some(&conn) = self.by_qp.get(&wc.qp) else {
                        return;
                    };
                    if !self.conns[conn].open {
                        return;
                    }
                    // Tracked-mode ack hook: a send-side completion for a
                    // replication WR resolves its `(seq, slave)` entry —
                    // success means the slave holds the bytes (RC), error
                    // feeds chain repair. Empty map (async mode) is free.
                    if matches!(wc.opcode, WcOpcode::RdmaWrite) {
                        if let Some((seq, slave)) = self.wr_acks.remove(&(wc.qp, wc.wr_id)) {
                            if wc.status == WcStatus::Success {
                                self.on_wr_ack(ctx, seq, slave);
                            } else {
                                self.on_wr_error(ctx, seq, slave);
                            }
                        }
                    }
                    let msg = self.conns[conn].channel.on_wc(&net, ctx, &wc);
                    // A handshake completion flushes queued messages; the
                    // fan-out frames among them post right here, so this
                    // is their actual post time for the statistics.
                    let flushed = self.conns[conn].channel.take_flushed_wrs();
                    if flushed > 0 {
                        let fanout = flushed.min(self.conns[conn].deferred_wrs);
                        self.conns[conn].deferred_wrs -= fanout;
                        self.stat_doorbells += fanout;
                        self.stat_wrs_posted += fanout;
                    }
                    if let Some(m) = msg {
                        self.on_channel_msg(ctx, conn, m);
                    } else if self.conns[conn].channel.broken() {
                        self.close_conn(ctx, conn);
                    }
                });
                // Completion errors may have torn connections down; give
                // in-flight chains a chance to splice dead hops out.
                self.chain_repair(ctx);
                let done = self.cpu.run_on(0, ctx.now(), out.cpu_cost).finished;
                if out.more {
                    ctx.timer_at(done, NetEvent::CqNotify { cq });
                }
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "nic-kv"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    use skv_netsim::{SendOp, SendWr, Topology};
    use skv_simcore::{FnActor, SimTime, Simulation};

    use crate::config::{ClusterConfig, Mode};

    /// Kick the scripted peer into dialing Nic-KV.
    struct Connect;

    /// Poke the scripted peer into finally sending its MR handshake.
    struct ReleaseHandshake;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// `(rdma.wrs_posted, rdma.doorbells)` fabric snapshot.
    fn fabric_posts(net: &Net) -> (u64, u64) {
        let c = net.counters();
        (c.get("rdma.wrs_posted"), c.get("rdma.doorbells"))
    }

    /// Drive a Nic-KV against a scripted peer that establishes its QP but
    /// *withholds* its half of the MR handshake until poked, so the
    /// Nic-KV-side channel sits open-but-not-ready while fan-out work
    /// arrives. The WR statistics must track the fabric's `rdma.wrs_posted`
    /// and `rdma.doorbells` exactly through all three phases: nothing while
    /// frames queue, the deferred frames once the handshake flushes them,
    /// and immediate posts afterwards.
    fn deferred_fanout_stats_agree(batched: bool) {
        let mut sim = Simulation::new(17);
        let mut topo = Topology::new();
        let nic_host = topo.add_host();
        let nic_node = topo.add_smartnic(nic_host);
        let peer_node = topo.add_host();
        let mut cfg = ClusterConfig::for_mode(Mode::Skv);
        cfg.batch_wr_posts = batched;
        let net = skv_netsim::Net::install(&mut sim, topo, cfg.net.clone());
        let nic_addr = SocketAddr::new(nic_node, 7000);
        let ring = cfg.ring_size;

        let nic_id = sim.add_actor(Box::new(NicKv::new(net.clone(), cfg, nic_node, nic_addr)));

        let peer_qp: Rc<RefCell<Option<QpId>>> = Rc::default();
        let pq = peer_qp.clone();
        let n = net.clone();
        let peer = sim.add_actor(Box::new(FnActor::new(move |ctx, _from, msg| {
            let msg = match msg.downcast::<Connect>() {
                Ok(_) => {
                    let cq = n.create_cq(ctx.id());
                    n.req_notify_cq(ctx, cq);
                    n.rdma_connect(ctx, peer_node, ctx.id(), cq, nic_addr);
                    return;
                }
                Err(msg) => msg,
            };
            let msg = match msg.downcast::<ReleaseHandshake>() {
                Ok(_) => {
                    // The withheld half of the channel handshake: register
                    // a receive ring and send its handle, exactly as
                    // `Channel::rdma` would have at establishment.
                    let qp = pq.borrow().expect("established before release");
                    let mr = n.register_mr(peer_node, ring);
                    n.post_send(
                        ctx,
                        qp,
                        SendWr {
                            wr_id: u64::MAX - 1,
                            op: SendOp::Send,
                            data: mr.0.to_le_bytes().to_vec().into(),
                        },
                    )
                    .expect("handshake post");
                    return;
                }
                Err(msg) => msg,
            };
            let Ok(ev) = msg.downcast::<NetEvent>() else {
                return;
            };
            match *ev {
                NetEvent::CmEstablished { qp, .. } => {
                    *pq.borrow_mut() = Some(qp);
                    // Plenty of receive slots for Nic-KV's handshake SEND
                    // and the fan-out writes; the peer never replenishes.
                    for i in 0..64u64 {
                        n.post_recv(qp, i).expect("post recv");
                    }
                }
                NetEvent::CqNotify { cq } => {
                    n.poll_cq(cq, usize::MAX);
                    n.req_notify_cq(ctx, cq);
                }
                _ => {}
            }
        })));
        sim.schedule(SimTime::ZERO, peer, Connect);

        // Phase 0: connection up, Nic-KV's handshake sent, peer silent —
        // the channel is open but not ready, and nothing fan-out-related
        // has been posted.
        sim.run_until(t(5));
        {
            let nic = sim.actor_ref::<NicKv>(nic_id).expect("nic actor");
            assert_eq!(nic.conns.len(), 1, "peer connected");
            assert!(nic.conns[0].open && !nic.conns[0].channel.ready());
            assert_eq!(nic.stat_wrs_posted, 0);
        }
        let (wrs0, dbs0) = fabric_posts(&net);

        // Phase 1: three fan-out frames while the handshake is
        // outstanding. They must queue — zero WRs on the fabric, zero in
        // the statistics (the historical bug counted them here).
        let frame = || Frame::copy_from_slice(b"repl-stream-frame");
        if batched {
            sim.schedule(
                t(6),
                nic_id,
                NicMsg::FanoutSendBatch {
                    conns: vec![0, 0, 0],
                    frame: frame(),
                },
            );
        } else {
            for i in 0..3 {
                sim.schedule(
                    t(6 + i),
                    nic_id,
                    NicMsg::FanoutSend {
                        conn: 0,
                        frame: frame(),
                    },
                );
            }
        }
        sim.run_until(t(10));
        {
            let nic = sim.actor_ref::<NicKv>(nic_id).expect("nic actor");
            assert_eq!(nic.stat_wrs_posted, 0, "queued frames are not posts");
            assert_eq!(nic.stat_doorbells, 0);
            assert_eq!(nic.conns[0].deferred_wrs, 3);
        }
        assert_eq!(
            fabric_posts(&net),
            (wrs0, dbs0),
            "nothing reached the fabric"
        );

        // Phase 2: the peer completes the handshake; the queued frames
        // flush (as individual posts — deferral forfeits batching) and the
        // statistics pick them up at actual post time. The fabric saw one
        // extra WR: the peer's own handshake SEND.
        sim.schedule(t(11), peer, ReleaseHandshake);
        sim.run_until(t(20));
        {
            let nic = sim.actor_ref::<NicKv>(nic_id).expect("nic actor");
            assert!(nic.conns[0].channel.ready());
            assert_eq!(nic.stat_wrs_posted, 3);
            assert_eq!(nic.stat_doorbells, 3);
            assert_eq!(nic.conns[0].deferred_wrs, 0);
        }
        let (wrs1, dbs1) = fabric_posts(&net);
        assert_eq!(wrs1 - wrs0, 3 + 1, "3 flushed fan-out WRs + peer handshake");
        assert_eq!(dbs1 - dbs0, 3 + 1);

        // Phase 3: the channel is ready, so fan-out posts immediately —
        // statistics and fabric deltas now agree WR for WR (and in batched
        // mode, one doorbell for the pair).
        if batched {
            sim.schedule(
                t(21),
                nic_id,
                NicMsg::FanoutSendBatch {
                    conns: vec![0, 0],
                    frame: frame(),
                },
            );
        } else {
            for i in 0..2 {
                sim.schedule(
                    t(21 + i),
                    nic_id,
                    NicMsg::FanoutSend {
                        conn: 0,
                        frame: frame(),
                    },
                );
            }
        }
        sim.run_until(t(30));
        let expected_dbs = if batched { 1 } else { 2 };
        {
            let nic = sim.actor_ref::<NicKv>(nic_id).expect("nic actor");
            assert_eq!(nic.stat_wrs_posted, 3 + 2);
            assert_eq!(nic.stat_doorbells, 3 + expected_dbs);
        }
        let (wrs2, dbs2) = fabric_posts(&net);
        assert_eq!(wrs2 - wrs1, 2);
        assert_eq!(dbs2 - dbs1, expected_dbs);
    }

    #[test]
    fn deferred_fanout_stats_agree_with_fabric_serial() {
        deferred_fanout_stats_agree(false);
    }

    #[test]
    fn deferred_fanout_stats_agree_with_fabric_batched() {
        deferred_fanout_stats_agree(true);
    }

    fn pending_write(seq: u64, end_offset: u64, hops: &[SocketAddr]) -> PendingWrite {
        PendingWrite {
            seq,
            end_offset,
            frame: Frame::copy_from_slice(b"w"),
            acked: Vec::new(),
            needed: 0,
            hops: hops.iter().copied().collect(),
            hop_inflight: false,
        }
    }

    #[test]
    fn chain_rejoin_splices_at_the_tail_without_overlap() {
        let node = skv_netsim::NodeId(0);
        let s1 = SocketAddr::new(node, 1);
        let s2 = SocketAddr::new(node, 2);
        let rejoiner = SocketAddr::new(node, 3);
        let mut pending: VecDeque<PendingWrite> = VecDeque::new();
        // Covered by the rejoiner's resync offset: must NOT be replayed.
        pending.push_back(pending_write(1, 100, &[s1]));
        // Past the offset with live hops: rejoiner appends at the tail.
        pending.push_back(pending_write(2, 200, &[s1, s2]));
        // Chain already drained (committing): must stay empty.
        pending.push_back(pending_write(3, 300, &[]));
        // Rejoiner already listed (registered twice): no duplicate hop.
        pending.push_back(pending_write(4, 400, &[s1, rejoiner]));

        let spliced = NicKv::splice_rejoined_hops(&mut pending, rejoiner, 150);
        assert_eq!(spliced, 1, "only the uncovered live chain is spliced");
        assert_eq!(pending[0].hops, VecDeque::from([s1]), "covered write untouched");
        assert_eq!(
            pending[1].hops,
            VecDeque::from([s1, s2, rejoiner]),
            "rejoiner resumes at the tail, after every existing hop"
        );
        assert!(pending[2].hops.is_empty(), "committed chain stays committed");
        assert_eq!(
            pending[3].hops,
            VecDeque::from([s1, rejoiner]),
            "no duplicate hop for a double registration"
        );

        // A second registration at a higher offset covers writes 1–2 and
        // adds nothing new.
        let again = NicKv::splice_rejoined_hops(&mut pending, rejoiner, 250);
        assert_eq!(again, 0);
    }
}
