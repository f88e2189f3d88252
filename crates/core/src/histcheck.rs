//! # histcheck — client-visible operation histories + consistency checking
//!
//! The replication-mode work (see [`crate::replmode`]) promises different
//! guarantees per mode: linearizable writes for quorum and chain,
//! eventual convergence only for the async stream. Promises about
//! *client-visible* behaviour need client-visible evidence, so this
//! module records operation histories from dedicated probe actors during
//! chaos runs and checks them deterministically afterwards:
//!
//! * [`HistWriter`] — owns a namespaced key set (`h:{writer}:{key}`) and
//!   issues `SET key <seq>` to the master, one in flight, with strictly
//!   increasing `seq` per writer. Single-writer-per-key by construction.
//! * [`HistReader`] — issues `GET` for a random probe key to a set of
//!   target servers (the *anchor* plus optional quorum peers) and
//!   completes a read once the anchor and `read_quorum` targets
//!   responded, taking the **maximum** observed sequence number.
//! * [`check_single_writer`] — verifies the recorded history against the
//!   single-writer atomic-register conditions. An empty violation list
//!   is a linearizability witness for the probe keys; for the async
//!   arm the *expected* stale-read violations are the evidence that it
//!   only converges eventually.
//! * [`check_linearizable`] — the full multi-writer checker over *bench*
//!   client histories (recorded behind `ClusterConfig::record_history`,
//!   including NIC-cache-served GETs and forwarded FWD_CMD replies),
//!   not just the side probes. [`check_linearizable_upto`] checks a
//!   prefix only — the tool for proving a history linearizable up to a
//!   declared cross-mode degradation point.
//!
//! Both checkers are near-linear in ops, so they run on large,
//! Zipf-skewed histories in seconds:
//!
//! * **Sweep-line screens.** Phantom, stale and non-monotone reads are
//!   found per key by walking reads in invocation order against a list
//!   sorted by completion (acked writes for freshness, reads for
//!   monotonicity), keeping a running maximum of write invocation times
//!   — O(ops log ops) per key. Phantom and stale reads are reported once
//!   per offending read; non-monotone once per offending *later* read.
//! * **Frontier search.** Keys the screens pass go through a Wing &
//!   Gong search with memoized states. Ops are sorted by invocation and
//!   a state is `(first unlinearized index, window bitset above it,
//!   register)`. Candidates come from a scan forward from that index
//!   that stops at the first op invoked after the earliest pending
//!   required response, so a step costs the concurrency window, not
//!   the key's op count. A read matching the register is taken without
//!   branching. Maybe-applied writes whose value no read observed are
//!   dropped up front: no read can sit between one and the next write,
//!   so removing it from any witness leaves a witness. A key that
//!   exhausts `SEARCH_BUDGET` states is reported as a failure, never a
//!   pass.
//!
//! Everything is deterministic: actors draw from split [`DetRng`]s, the
//! history lives in a [`SharedHistory`] the test inspects after the run.
//!
//! The checker is deliberately conservative about incomplete operations:
//! a write whose reply never arrived may or may not have taken effect,
//! so its value is *allowed* but never *required* to be observed. A
//! client that provably gave up *before observing anything* records an
//! explicit abort instead (see [`OpRecord::aborted`]) — without it, a
//! probe abandoned mid-plan under a partition would read as an
//! infinite-window op and over-constrain the search forever.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use skv_netsim::{CqId, DetMap, Net, NetEvent, NodeId, QpId, SocketAddr};
use skv_simcore::{Actor, ActorId, Context, DetRng, Payload, SimDuration, SimTime};
use skv_store::resp::{Decoded, Resp};

use crate::channel::{Channel, ChannelMsg};
use crate::config::ClusterConfig;
use crate::cqdrain;
use crate::protocol::tag;

/// What kind of operation a history record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A `SET key <seq>` by the key's single writer.
    Write,
    /// A quorum/anchor `GET` returning the maximum observed seq.
    Read,
}

/// One client-visible operation. Reads and writes share the record shape;
/// `seq` is the value written or observed (`0` = key absent).
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// The probe key (`h:{writer:02}:{key:04}`).
    pub key: String,
    /// Read or write.
    pub kind: OpKind,
    /// Value written, or maximum value observed (0 = no value).
    pub seq: u64,
    /// Invocation instant (request sent).
    pub invoked: SimTime,
    /// Completion instant; `None` when the operation was abandoned (its
    /// effect is unknown — it may still land).
    pub completed: Option<SimTime>,
    /// Whether the completion was a success reply.
    pub ok: bool,
    /// Explicit abort: the client gave up on the operation *and* its
    /// outcome is provably unobservable (a reader watchdog firing, a
    /// bench read dropped on reconnect). Aborted reads observed nothing
    /// and are excluded from checking. A write that was actually sent is
    /// never aborted — it stays `completed: None` (maybe-applied).
    pub aborted: bool,
    /// For reads: the servers whose responses formed the read quorum.
    pub read_set: Vec<SocketAddr>,
}

/// A recorded history — all operations from all probe actors, in record
/// order (which is deterministic under the simulation).
#[derive(Debug, Default)]
pub struct History {
    /// The operations.
    pub ops: Vec<OpRecord>,
}

/// Shared handle to a [`History`]; the probe actors append, the test
/// reads after the run.
pub type SharedHistory = Rc<RefCell<History>>;

/// Fresh shared history.
pub fn new_history() -> SharedHistory {
    Rc::new(RefCell::new(History::default()))
}

/// One consistency violation found by [`check_single_writer`] or
/// [`check_linearizable`].
#[derive(Debug, Clone)]
pub struct Violation {
    /// The key the violation occurred on.
    pub key: String,
    /// Human-readable description (times and sequence numbers).
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.key, self.detail)
    }
}

/// Check a single-writer-per-key history against the atomic-register
/// linearizability conditions. Returns every violation found (empty =
/// the history is linearizable on the probe keys):
///
/// 1. **Value provenance** — a read's observed value was actually
///    written, and the write was invoked before the read completed.
/// 2. **Read freshness** — a read invoked after a write *completed
///    successfully* observes that write or a newer one. (This is the
///    condition async replication breaks under faults: the master acked
///    a write that a lagging anchor has not applied.)
/// 3. **Read monotonicity** — of two non-overlapping reads on a key, the
///    later never observes an older value than the earlier (no "time
///    travel" between quorums).
///
/// Incomplete or failed operations are treated conservatively: their
/// effects are allowed but never required. Each condition is one sorted
/// sweep per key — freshness keeps a running maximum over acked writes
/// ordered by completion, monotonicity over reads ordered by completion —
/// so a key costs O(ops log ops). Conditions 1 and 2 report each
/// offending read once; condition 3 reports each later read that
/// regressed below some earlier read, once.
pub fn check_single_writer(history: &History) -> Vec<Violation> {
    let mut by_key: BTreeMap<&str, (Vec<&OpRecord>, Vec<&OpRecord>)> = BTreeMap::new();
    for op in &history.ops {
        let entry = by_key.entry(op.key.as_str()).or_default();
        match op.kind {
            OpKind::Write => entry.0.push(op),
            OpKind::Read => entry.1.push(op),
        }
    }
    let mut violations = Vec::new();
    for (key, (writes, reads)) in by_key {
        // (invoked, completed, seq) of every successful read, record order.
        let done_reads: Vec<(SimTime, SimTime, u64)> = reads
            .iter()
            .filter(|r| r.ok)
            .filter_map(|r| r.completed.map(|done| (r.invoked, done, r.seq)))
            .collect();
        if done_reads.is_empty() {
            continue;
        }
        // seq → earliest invocation of a write of it (sorted by seq).
        let mut first_inv: Vec<(u64, SimTime)> =
            writes.iter().map(|w| (w.seq, w.invoked)).collect();
        first_inv.sort_unstable();
        first_inv.dedup_by_key(|e| e.0);
        // Successfully acked writes as (completed, seq), by completion.
        let mut acked: Vec<(SimTime, u64)> = writes
            .iter()
            .filter(|w| w.ok)
            .filter_map(|w| w.completed.map(|t| (t, w.seq)))
            .collect();
        acked.sort_unstable();
        let mut by_inv: Vec<usize> = (0..done_reads.len()).collect();
        by_inv.sort_by_key(|&i| done_reads[i].0);
        let mut by_done: Vec<usize> = (0..done_reads.len()).collect();
        by_done.sort_by_key(|&i| done_reads[i].1);

        // 2. Freshness floor: the newest acked write completed strictly
        //    before the read's invocation. 3. Monotonicity: the largest
        //    value seen by a read completed at or before the invocation.
        let mut floor = vec![0u64; done_reads.len()];
        let mut prior_max: Vec<Option<u64>> = vec![None; done_reads.len()];
        let (mut w, mut acked_max) = (0, 0u64);
        let (mut q, mut seen_max) = (0, None::<u64>);
        for &i in &by_inv {
            let inv = done_reads[i].0;
            while let Some(&(_, seq)) = acked.get(w).filter(|a| a.0 < inv) {
                acked_max = acked_max.max(seq);
                w += 1;
            }
            floor[i] = acked_max;
            while let Some(&j) = by_done.get(q).filter(|&&j| done_reads[j].1 <= inv) {
                seen_max = seen_max.max(Some(done_reads[j].2));
                q += 1;
            }
            prior_max[i] = seen_max;
        }

        let mut non_monotone = Vec::new();
        for (i, &(inv, r_done, seq)) in done_reads.iter().enumerate() {
            // 1. Provenance: the value must come from a write invoked
            // before the read completed.
            let written = first_inv
                .binary_search_by_key(&seq, |e| e.0)
                .is_ok_and(|at| first_inv[at].1 < r_done);
            if seq != 0 && !written {
                violations.push(Violation {
                    key: key.to_string(),
                    detail: format!(
                        "read at {r_done:?} observed {seq} which was never written before it"
                    ),
                });
            }
            if seq < floor[i] {
                violations.push(Violation {
                    key: key.to_string(),
                    detail: format!(
                        "stale read: observed {seq} at {r_done:?} but write {} completed before {inv:?}",
                        floor[i]
                    ),
                });
            }
            if let Some(first) = prior_max[i].filter(|&m| seq < m) {
                non_monotone.push(Violation {
                    key: key.to_string(),
                    detail: format!("non-monotone reads: {first} then {seq}"),
                });
            }
        }
        violations.extend(non_monotone);
    }
    violations
}

/// Count of stale-read violations only (condition 2) — the signal the
/// async-mode chaos arm asserts on.
pub fn stale_reads(violations: &[Violation]) -> usize {
    violations
        .iter()
        .filter(|v| v.detail.starts_with("stale read"))
        .count()
}

// ---------------------------------------------------------------------------
// Multi-writer linearizability: sweep-line screens + frontier search
// ---------------------------------------------------------------------------

/// Per-key state budget for the exhaustive search: the maximum number of
/// memoized states explored before the checker gives up *loudly*.
/// Mostly-sequential histories (closed-loop clients) stay near-linear in
/// ops; only a genuinely ambiguous — or non-linearizable — history gets
/// anywhere near this.
const SEARCH_BUDGET: usize = 200_000;

/// A non-aborted write as the checker sees it.
#[derive(Debug, Clone, Copy)]
struct WriteOp {
    inv: SimTime,
    /// Success-reply instant; `None` when the write may or may not have
    /// applied (no reply, or an error reply).
    done: Option<SimTime>,
    value: u64,
}

/// A completed, successful, non-aborted read — the only reads that
/// observed anything.
#[derive(Debug, Clone, Copy)]
struct ReadOp {
    inv: SimTime,
    resp: SimTime,
    value: u64,
}

/// What the writes of one value establish: the earliest invocation and
/// the earliest success reply among them.
#[derive(Debug, Clone, Copy)]
struct ValueFacts {
    value: u64,
    inv: SimTime,
    done: Option<SimTime>,
}

/// One operation as the search sees it after classification.
#[derive(Debug, Clone, Copy)]
struct SearchOp {
    /// Invocation instant.
    inv: SimTime,
    /// Response instant; `SimTime::MAX` marks an open window (a
    /// maybe-applied write may linearize at any point after `inv`).
    resp: SimTime,
    /// Write (sets the register) or read (must observe it).
    is_write: bool,
    /// Value written or observed (`0` = key absent).
    value: u64,
    /// Required ops must appear in the linearization; optional ops
    /// (maybe-applied writes) may be dropped.
    required: bool,
}

/// Running maximum of `(instant, value)` pairs that also keeps the best
/// pair of a *different* value, so a query can exclude one value exactly.
#[derive(Debug, Default)]
struct TopTwo {
    first: Option<(SimTime, u64)>,
    /// Latest pair whose value differs from `first`'s.
    second: Option<(SimTime, u64)>,
}

impl TopTwo {
    fn insert(&mut self, t: SimTime, v: u64) {
        match self.first {
            None => self.first = Some((t, v)),
            Some((ft, fv)) if fv == v => self.first = Some((ft.max(t), v)),
            Some((ft, _)) if t > ft => {
                self.second = self.first;
                self.first = Some((t, v));
            }
            Some(_) => {
                if self.second.is_none_or(|(st, _)| t > st) {
                    self.second = Some((t, v));
                }
            }
        }
    }

    /// The latest pair whose value is not `v`.
    fn latest_other_than(&self, v: u64) -> Option<(SimTime, u64)> {
        match self.first {
            Some((_, fv)) if fv == v => self.second,
            first => first,
        }
    }
}

/// A search state: every op before `first` (in invocation order) is
/// linearized, `first` itself is not, and bit `i` of `window` marks op
/// `first + 1 + i` as linearized. `window` never ends in a zero word, so
/// each set of linearized ops has exactly one encoding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Frontier {
    first: usize,
    reg: u64,
    window: Vec<u64>,
}

impl Frontier {
    /// Call `visit` on every unlinearized op index below `n`, in
    /// invocation order, until it returns `false`.
    fn for_each_undone(&self, n: usize, mut visit: impl FnMut(usize) -> bool) {
        if self.first >= n || !visit(self.first) {
            return;
        }
        let base = self.first + 1;
        for (k, &word) in self.window.iter().enumerate() {
            let mut free = !word;
            while free != 0 {
                let j = base + k * 64 + free.trailing_zeros() as usize;
                if j >= n || !visit(j) {
                    return;
                }
                free &= free - 1;
            }
        }
        for j in base + self.window.len() * 64..n {
            if !visit(j) {
                return;
            }
        }
    }

    /// The state after linearizing op `j` (not yet linearized), leaving
    /// the register at `reg`.
    fn take(&self, j: usize, reg: u64) -> Frontier {
        if j > self.first {
            let b = j - self.first - 1;
            let mut window = self.window.clone();
            if window.len() <= b / 64 {
                window.resize(b / 64 + 1, 0);
            }
            window[b / 64] |= 1u64 << (b % 64);
            return Frontier {
                first: self.first,
                reg,
                window,
            };
        }
        // Taking the first op advances the frontier past the run of
        // linearized ops right behind it.
        let mut run = 0;
        for &word in &self.window {
            let ones = word.trailing_ones() as usize;
            run += ones;
            if ones < 64 {
                break;
            }
        }
        let shift = run + 1;
        let (words, bits) = (shift / 64, shift % 64);
        let mut window: Vec<u64> = (words..self.window.len())
            .map(|k| {
                let lo = self.window[k] >> bits;
                let hi = match self.window.get(k + 1) {
                    Some(&next) if bits != 0 => next << (64 - bits),
                    _ => 0,
                };
                lo | hi
            })
            .collect();
        while window.last() == Some(&0) {
            window.pop();
        }
        Frontier {
            first: self.first + shift,
            reg,
            window,
        }
    }
}

/// Per-key checking with scratch buffers reused across keys: the screens
/// and the search's op list allocate once per check, not once per key.
#[derive(Debug, Default)]
struct KeyChecker {
    writes: Vec<WriteOp>,
    reads: Vec<ReadOp>,
    /// Per-value facts, sorted by value.
    facts: Vec<ValueFacts>,
    /// Read indices by invocation and by completion.
    by_inv: Vec<usize>,
    by_resp: Vec<usize>,
    /// Acked writes as (their value's first success reply, invocation,
    /// value), by that reply.
    acked: Vec<(SimTime, SimTime, u64)>,
    /// Per read: the provenance/freshness verdict, and the earlier
    /// read's value a non-monotone read regressed from.
    fresh: Vec<Option<Screen>>,
    mono: Vec<Option<u64>>,
    /// Values the reads observed, sorted.
    observed: Vec<u64>,
    ops: Vec<SearchOp>,
}

/// Why a read failed the provenance/freshness screen.
#[derive(Debug, Clone, Copy)]
enum Screen {
    Phantom,
    /// Stale, with the value of a write acked before the read began.
    Stale(u64),
}

/// The facts for `value`, from a table sorted by value.
fn facts_of(facts: &[ValueFacts], value: u64) -> Option<ValueFacts> {
    facts
        .binary_search_by_key(&value, |f| f.value)
        .ok()
        .and_then(|i| facts.get(i).copied())
}

impl KeyChecker {
    /// Check one key's records (in record order), appending violations.
    fn check(&mut self, key: &str, recs: &[&OpRecord], out: &mut Vec<Violation>) {
        self.writes.clear();
        self.reads.clear();
        for op in recs.iter().filter(|op| !op.aborted) {
            match op.kind {
                OpKind::Write => self.writes.push(WriteOp {
                    inv: op.invoked,
                    done: if op.ok { op.completed } else { None },
                    value: op.seq,
                }),
                OpKind::Read => {
                    if let Some(resp) = op.completed.filter(|_| op.ok) {
                        self.reads.push(ReadOp {
                            inv: op.invoked,
                            resp,
                            value: op.seq,
                        });
                    }
                }
            }
        }
        // Writes alone always linearize: any real-time-respecting order
        // of them is a witness.
        if self.reads.is_empty() {
            return;
        }
        let before = out.len();
        self.screens(key, out);
        // Definite counterexamples with legible messages skip the
        // search for an already-rejected key.
        if out.len() == before {
            if let Some(v) = self.search(key) {
                out.push(v);
            }
        }
    }

    /// Register-semantics screens, each a sweep over sorted ops. Every
    /// condition is implied by linearizability (given unique per-key
    /// write values and no deletions — both guaranteed by the recording
    /// paths), so a hit is a definite counterexample with a legible
    /// message: `phantom read`, `stale read` or `non-monotone`.
    fn screens(&mut self, key: &str, out: &mut Vec<Violation>) {
        self.facts.clear();
        self.facts.extend(self.writes.iter().map(|w| ValueFacts {
            value: w.value,
            inv: w.inv,
            done: w.done,
        }));
        self.facts.sort_unstable_by_key(|f| f.value);
        self.facts.dedup_by(|later, kept| {
            if later.value != kept.value {
                return false;
            }
            kept.inv = kept.inv.min(later.inv);
            kept.done = match (kept.done, later.done) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            true
        });
        let reads = &self.reads;
        self.by_inv.clear();
        self.by_inv.extend(0..reads.len());
        self.by_inv.sort_by_key(|&i| reads[i].inv);
        self.by_resp.clear();
        self.by_resp.extend(0..reads.len());
        self.by_resp.sort_by_key(|&i| reads[i].resp);
        self.acked.clear();
        for w in &self.writes {
            if let Some(done) = facts_of(&self.facts, w.value)
                .and_then(|f| f.done)
                .filter(|_| w.done.is_some())
            {
                self.acked.push((done, w.inv, w.value));
            }
        }
        self.acked.sort_unstable();
        self.fresh.clear();
        self.fresh.resize(reads.len(), None);
        self.mono.clear();
        self.mono.resize(reads.len(), None);

        // One pass over reads by invocation, feeding two running maxima:
        // * freshness — acked writes whose value's first reply landed
        //   before the read began, keyed by write invocation;
        // * monotonicity — reads that completed before it began, keyed by
        //   the invocation of the write they observed.
        let (mut acked_at, mut acked_top) = (0, TopTwo::default());
        let (mut prior_at, mut prior_top, mut prior_nonzero) = (0, TopTwo::default(), None);
        for &i in &self.by_inv {
            let r = self.reads[i];
            while let Some(&(_, inv, value)) = self.acked.get(acked_at).filter(|a| a.0 < r.inv) {
                acked_top.insert(inv, value);
                acked_at += 1;
            }
            while let Some(p) = self
                .by_resp
                .get(prior_at)
                .map(|&j| self.reads[j])
                .filter(|p| p.resp < r.inv)
            {
                let written = facts_of(&self.facts, p.value).map_or(SimTime::ZERO, |f| f.inv);
                prior_top.insert(written, p.value);
                if p.value != 0 && prior_nonzero.is_none() {
                    prior_nonzero = Some(p.value);
                }
                prior_at += 1;
            }
            let facts = facts_of(&self.facts, r.value);
            let own_done = facts.and_then(|f| f.done);
            // Provenance: the value must come from a write that was not
            // invoked after the read completed.
            self.fresh[i] = if r.value != 0 && facts.is_none_or(|f| f.inv > r.resp) {
                Some(Screen::Phantom)
            } else if r.value == 0 {
                // Any acked write completed before the read began.
                acked_top.first.map(|(_, v)| Screen::Stale(v))
            } else {
                // Freshness: a write w acked before the read began, whose
                // invocation followed the reply of the read's own write,
                // overwrote that value for good (the register never
                // reverts).
                own_done.and_then(|d| {
                    acked_top
                        .latest_other_than(r.value)
                        .filter(|&(w_inv, _)| d < w_inv)
                        .map(|(_, v)| Screen::Stale(v))
                })
            };
            // Monotonicity: an earlier read observed a value whose write
            // began after this read's write was acked (or this read sees
            // nothing after an earlier read saw something).
            self.mono[i] = if r.value == 0 {
                prior_nonzero
            } else {
                own_done.and_then(|d| {
                    prior_top
                        .latest_other_than(r.value)
                        .filter(|&(w_inv, _)| d < w_inv)
                        .map(|(_, v)| v)
                })
            };
        }

        for (r, flag) in self.reads.iter().zip(&self.fresh) {
            let detail = match flag {
                None => continue,
                Some(Screen::Phantom) => format!(
                    "phantom read: observed {} at {:?} which no write before it produced",
                    r.value, r.resp
                ),
                Some(Screen::Stale(w)) => format!(
                    "stale read: observed {} at {:?} but write {w} completed before {:?}",
                    r.value, r.resp, r.inv
                ),
            };
            out.push(Violation {
                key: key.to_string(),
                detail,
            });
        }
        for (r, first) in self.reads.iter().zip(&self.mono) {
            if let Some(first) = first {
                out.push(Violation {
                    key: key.to_string(),
                    detail: format!("non-monotone reads: {first} then {}", r.value),
                });
            }
        }
    }

    /// Exhaustive search over the frontier states. Returns `None` when a
    /// valid linearization exists, or one violation describing why not
    /// (or that the budget ran out — a failure, never a silent pass).
    fn search(&mut self, key: &str) -> Option<Violation> {
        // A maybe-applied write whose value no read observed can always
        // be left out of a linearization: no read can sit between it and
        // the next write. Dropping it up front keeps it from multiplying
        // the states of every step after its invocation.
        self.observed.clear();
        self.observed.extend(self.reads.iter().map(|r| r.value));
        self.observed.sort_unstable();
        self.ops.clear();
        for w in &self.writes {
            match w.done {
                Some(resp) => self.ops.push(SearchOp {
                    inv: w.inv,
                    resp,
                    is_write: true,
                    value: w.value,
                    required: true,
                }),
                None if self.observed.binary_search(&w.value).is_ok() => self.ops.push(SearchOp {
                    inv: w.inv,
                    resp: SimTime::MAX,
                    is_write: true,
                    value: w.value,
                    required: false,
                }),
                None => {}
            }
        }
        self.ops.extend(self.reads.iter().map(|r| SearchOp {
            inv: r.inv,
            resp: r.resp,
            is_write: false,
            value: r.value,
            required: true,
        }));
        self.ops.sort_by_key(|o| o.inv);
        let ops = &self.ops;
        let n = ops.len();
        let req_total = ops.iter().filter(|o| o.required).count();

        let mut visited: BTreeSet<Frontier> = BTreeSet::new();
        let root = Frontier {
            first: 0,
            reg: 0,
            window: Vec::new(),
        };
        visited.insert(root.clone());
        // States carry how many required ops they have linearized.
        let mut stack = vec![(root, 0usize)];
        let mut best_done = 0usize;
        let mut best_gap: Option<(usize, u64)> = None;
        let mut cands: Vec<usize> = Vec::new();
        while let Some((st, done_req)) = stack.pop() {
            if visited.len() > SEARCH_BUDGET {
                return Some(Violation {
                    key: key.to_string(),
                    detail: format!(
                        "search budget exceeded: {} states over {n} ops without a verdict — treating as a failure",
                        visited.len()
                    ),
                });
            }
            if done_req == req_total {
                return None; // all required ops linearized — witness found
            }
            // An op may be linearized next iff no *required* unlinearized
            // op responded strictly before its invocation. Ops are sorted
            // by invocation and a response never precedes its own
            // invocation, so the scan stops at the first op invoked after
            // the earliest pending required response.
            cands.clear();
            let mut min_resp = SimTime::MAX;
            let mut first_req = None;
            st.for_each_undone(n, |j| {
                let o = &ops[j];
                if o.inv > min_resp {
                    return false;
                }
                if o.required {
                    min_resp = min_resp.min(o.resp);
                    first_req.get_or_insert(j);
                }
                cands.push(j);
                true
            });
            if done_req >= best_done {
                best_done = done_req;
                best_gap = first_req.map(|j| (j, st.reg));
            }
            let mut push = |j: usize, reg: u64| {
                let next = st.take(j, reg);
                if !visited.contains(&next) {
                    visited.insert(next.clone());
                    stack.push((next, done_req + usize::from(ops[j].required)));
                }
            };
            // A read that can go next and matches the register goes next:
            // it changes nothing, so any witness from here has one that
            // starts with it. No branching needed.
            if let Some(&j) = cands
                .iter()
                .find(|&&j| !ops[j].is_write && ops[j].value == st.reg)
            {
                push(j, st.reg);
                continue;
            }
            // Otherwise branch on writes: required ones first, earliest
            // invocation first (the stack pops the last push first).
            for &j in cands
                .iter()
                .rev()
                .filter(|&&j| ops[j].is_write && !ops[j].required)
            {
                push(j, ops[j].value);
            }
            for &j in cands
                .iter()
                .rev()
                .filter(|&&j| ops[j].is_write && ops[j].required)
            {
                push(j, ops[j].value);
            }
        }
        let note = best_gap.map_or_else(String::new, |(j, reg)| {
            let o = &ops[j];
            let kind = if o.is_write { "write" } else { "read" };
            format!(
                "first unplaced op: {kind} of {} invoked at {:?} (register held {reg})",
                o.value, o.inv
            )
        });
        Some(Violation {
            key: key.to_string(),
            detail: format!(
                "not linearizable: no valid order for {req_total} required ops (best schedule placed {best_done}; {note})"
            ),
        })
    }
}

/// Full multi-writer linearizability check against atomic-register
/// semantics, partitioned per key. Returns every violation found; an
/// empty list is a linearizability witness for the recorded history.
///
/// Assumes per-key write values are unique and keys are never deleted —
/// both guaranteed by the recording paths (probe writers use strictly
/// increasing per-writer sequences; bench recording stamps values with
/// `client-id ≪ 40 | counter`).
pub fn check_linearizable(history: &History) -> Vec<Violation> {
    // Group by key with one stable sort (record order within a key).
    let mut recs: Vec<&OpRecord> = history.ops.iter().collect();
    recs.sort_by(|a, b| a.key.cmp(&b.key));
    let mut checker = KeyChecker::default();
    let mut violations = Vec::new();
    for key_recs in recs.chunk_by(|a, b| a.key == b.key) {
        if let Some(first) = key_recs.first() {
            checker.check(&first.key, key_recs, &mut violations);
        }
    }
    violations
}

/// Check only the prefix of the history before `cutoff` — the tool for
/// proving a run linearizable *up to a declared degradation point*
/// (cross-mode failover demotes quorum to async mid-run; everything
/// invoked before the demotion instant must still linearize).
///
/// Ops invoked at or after `cutoff` are outside the claim and dropped;
/// ops that completed at or after it are treated as still-open within
/// the prefix (maybe-applied writes, unobserved reads).
pub fn check_linearizable_upto(history: &History, cutoff: SimTime) -> Vec<Violation> {
    let trimmed = History {
        ops: history
            .ops
            .iter()
            .filter(|op| op.invoked < cutoff)
            .map(|op| {
                let mut op = (*op).clone();
                if op.completed.is_some_and(|t| t >= cutoff) {
                    op.completed = None;
                    op.ok = false;
                }
                op
            })
            .collect(),
    };
    check_linearizable(&trimmed)
}

impl History {
    /// Serialize the history as a JSON event log, one object per
    /// operation in record order — the artifact `scripts/check.sh`
    /// uploads when the histcheck smoke fails. Hand-rolled on purpose
    /// (no serde in the workspace): keys are ASCII identifiers with no
    /// characters needing escapes.
    pub fn event_log_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let kind = match op.kind {
                OpKind::Write => "write",
                OpKind::Read => "read",
            };
            let completed = op
                .completed
                .map_or_else(|| "null".to_string(), |t| t.as_nanos().to_string());
            s.push_str(&format!(
                "  {{\"key\":\"{}\",\"kind\":\"{kind}\",\"value\":{},\"invoked_ns\":{},\"completed_ns\":{completed},\"ok\":{},\"aborted\":{}}}",
                op.key,
                op.seq,
                op.invoked.as_nanos(),
                op.ok,
                op.aborted
            ));
        }
        s.push_str("\n]\n");
        s
    }
}

/// The probe key for `(writer, key_idx)`; namespaced away from the
/// benchmark keyspace.
pub fn probe_key(writer: usize, key_idx: usize) -> String {
    format!("h:{writer:02}:{key_idx:04}")
}

/// Where a [`HistReader`] anchors its reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadAnchor {
    /// Read from the master only (quorum-mode arm: the master holds
    /// every committed write).
    Master,
    /// Read from one slave only (async arm: exposes staleness; chain
    /// arm with the tail index: the commit point).
    Slave(usize),
    /// Read from the master plus enough slaves for a majority of the
    /// replica set (ABD-style read quorum).
    MasterQuorum,
}

/// Shape of a history probe deployment (see `Cluster::add_history`).
#[derive(Debug, Clone)]
pub struct HistSpec {
    /// Number of single-writer actors (each owns its key namespace).
    pub writers: usize,
    /// Keys per writer.
    pub keys_per_writer: usize,
    /// Number of reader actors.
    pub readers: usize,
    /// Read anchoring.
    pub anchor: ReadAnchor,
    /// Think time between a completion and the next operation.
    pub op_gap: SimDuration,
}

impl Default for HistSpec {
    fn default() -> Self {
        HistSpec {
            writers: 2,
            keys_per_writer: 4,
            readers: 2,
            anchor: ReadAnchor::Master,
            op_gap: SimDuration::from_micros(30),
        }
    }
}

enum ProbeMsg {
    Start,
    IssueNext,
    Watchdog,
}

/// Single-writer probe actor: `SET probe_key <seq>` to the master, one
/// operation in flight, strictly increasing `seq`.
pub struct HistWriter {
    net: Net,
    cfg: ClusterConfig,
    node: NodeId,
    server: SocketAddr,
    history: SharedHistory,
    writer_id: usize,
    keys: usize,
    op_gap: SimDuration,
    start_at: SimTime,
    stop_at: SimTime,
    seq: u64,
    cq: Option<CqId>,
    channel: Option<Channel>,
    /// Index into the shared history of the op awaiting its reply.
    in_flight: Option<usize>,
    dial_attempts: u32,
}

impl HistWriter {
    /// Create a writer probe targeting `server` (the master).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        net: Net,
        cfg: ClusterConfig,
        node: NodeId,
        server: SocketAddr,
        history: SharedHistory,
        writer_id: usize,
        keys: usize,
        op_gap: SimDuration,
        start_at: SimTime,
        stop_at: SimTime,
    ) -> Self {
        HistWriter {
            net,
            cfg,
            node,
            server,
            history,
            writer_id,
            keys: keys.max(1),
            op_gap,
            start_at,
            stop_at,
            seq: 0,
            cq: None,
            channel: None,
            in_flight: None,
            dial_attempts: 0,
        }
    }

    fn dial(&mut self, ctx: &mut Context<'_>) {
        if self.channel.is_some() {
            return;
        }
        let me = ctx.id();
        if self.cfg.mode.uses_rdma() {
            let cq = match self.cq {
                Some(cq) => cq,
                None => {
                    let cq = self.net.create_cq(me);
                    self.cq = Some(cq);
                    self.net.req_notify_cq(ctx, cq);
                    cq
                }
            };
            self.net.rdma_connect(ctx, self.node, me, cq, self.server);
        } else {
            self.net.tcp_connect(ctx, self.node, me, self.server);
        }
    }

    fn abandon(&mut self, ctx: &mut Context<'_>) {
        // The in-flight op stays incomplete in the history: its effect is
        // unknown (the checker treats it as maybe-applied).
        self.in_flight = None;
        if let Some(ch) = self.channel.take() {
            if let Some(qp) = ch.qp() {
                self.net.destroy_qp(qp);
            }
            if let Some(conn) = ch.tcp_conn() {
                self.net.tcp_close(ctx, conn);
            }
        }
        ctx.timer(SimDuration::from_millis(1), ProbeMsg::Start);
    }

    fn issue(&mut self, ctx: &mut Context<'_>) {
        if ctx.now() >= self.stop_at || self.in_flight.is_some() {
            return;
        }
        let Some(channel) = self.channel.as_mut() else {
            return;
        };
        if channel.broken() {
            // Don't record an op we provably cannot send: a dangling
            // invocation would read as an infinite-window maybe-applied
            // write. The watchdog redials and re-issues.
            return;
        }
        self.seq += 1;
        let key = probe_key(
            self.writer_id,
            usize::try_from(self.seq).unwrap_or(0) % self.keys,
        );
        let value = self.seq.to_string();
        let cmd = Resp::command([b"SET".as_slice(), key.as_bytes(), value.as_bytes()]);
        let idx = {
            let mut h = self.history.borrow_mut();
            h.ops.push(OpRecord {
                key,
                kind: OpKind::Write,
                seq: self.seq,
                invoked: ctx.now(),
                completed: None,
                ok: false,
                aborted: false,
                read_set: Vec::new(),
            });
            h.ops.len() - 1
        };
        self.in_flight = Some(idx);
        let net = self.net.clone();
        channel.send(&net, ctx, tag::CMD, cmd.encode());
    }

    fn on_reply(&mut self, ctx: &mut Context<'_>, payload: &[u8]) {
        let Some(idx) = self.in_flight.take() else {
            return;
        };
        let is_error = payload.first() == Some(&b'-');
        let mut h = self.history.borrow_mut();
        if let Some(op) = h.ops.get_mut(idx) {
            op.completed = Some(ctx.now());
            op.ok = !is_error;
        }
        drop(h);
        ctx.timer(self.op_gap, ProbeMsg::IssueNext);
    }
}

impl Actor for HistWriter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.timer_at(self.start_at, ProbeMsg::Start);
        ctx.timer_at(
            self.start_at + self.cfg.client_retry_timeout,
            ProbeMsg::Watchdog,
        );
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ActorId, msg: Payload) {
        let msg = match msg.downcast::<ProbeMsg>() {
            Ok(m) => {
                match *m {
                    ProbeMsg::Start => self.dial(ctx),
                    ProbeMsg::IssueNext => self.issue(ctx),
                    ProbeMsg::Watchdog => {
                        let now = ctx.now();
                        if now >= self.stop_at && self.in_flight.is_none() {
                            return;
                        }
                        let timeout = self.cfg.client_retry_timeout;
                        let stuck = self.in_flight.is_some_and(|idx| {
                            self.history
                                .borrow()
                                .ops
                                .get(idx)
                                .is_some_and(|op| now.saturating_since(op.invoked) > timeout)
                        });
                        let broken = self.channel.as_ref().is_some_and(Channel::broken);
                        if stuck || broken {
                            self.abandon(ctx);
                        }
                        ctx.timer(timeout, ProbeMsg::Watchdog);
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
            NetEvent::CmEstablished { qp, .. } => {
                if self.channel.is_some() {
                    return;
                }
                self.dial_attempts = 0;
                let net = self.net.clone();
                self.channel = Some(Channel::rdma(&net, ctx, self.node, qp, self.cfg.ring_size));
                self.issue(ctx);
            }
            NetEvent::TcpConnected { conn, .. } => {
                self.dial_attempts = 0;
                self.channel = Some(Channel::tcp(conn));
                self.issue(ctx);
            }
            NetEvent::CqNotify { cq } => {
                let net = self.net.clone();
                let budget = self.cfg.cq_poll_budget;
                let mut broken = false;
                let out = cqdrain::drain_budgeted(&net, ctx, cq, budget, |ctx, wc| {
                    if broken {
                        return;
                    }
                    let Some(ch) = self.channel.as_mut() else {
                        return;
                    };
                    if let Some(ChannelMsg { tag: t, payload }) = ch.on_wc(&net, ctx, &wc) {
                        if t == tag::REPLY {
                            self.on_reply(ctx, &payload);
                        }
                    } else if self.channel.as_ref().is_some_and(Channel::broken) {
                        broken = true;
                    }
                });
                if out.more {
                    ctx.timer_at(ctx.now(), NetEvent::CqNotify { cq });
                }
                if broken {
                    self.abandon(ctx);
                }
            }
            NetEvent::TcpDelivered { bytes, .. } => {
                let msgs = self
                    .channel
                    .as_mut()
                    .map(|ch| ch.on_tcp_bytes(bytes))
                    .unwrap_or_default();
                for m in msgs {
                    if m.tag == tag::REPLY {
                        self.on_reply(ctx, &m.payload);
                    }
                }
            }
            NetEvent::TcpClosed { .. } if ctx.now() < self.stop_at => self.abandon(ctx),
            NetEvent::CmConnectFailed { .. } | NetEvent::TcpConnectFailed { .. } => {
                self.dial_attempts = self.dial_attempts.saturating_add(1);
                let delay = self.cfg.client_dial_delay(self.dial_attempts);
                ctx.timer(delay, ProbeMsg::Start);
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "hist-writer"
    }
}

/// Parse a GET reply into the observed sequence number. `NullBulk` (key
/// absent) observes 0; errors and malformed values observe nothing.
fn parse_observed(payload: &[u8]) -> Option<u64> {
    match Resp::decode(payload) {
        Decoded::Frame(Resp::NullBulk, _) => Some(0),
        Decoded::Frame(Resp::Bulk(b), _) => {
            std::str::from_utf8(&b).ok().and_then(|s| s.parse().ok())
        }
        _ => None,
    }
}

struct TargetConn {
    addr: SocketAddr,
    channel: Option<Channel>,
    /// Read generations with a GET outstanding on this channel, oldest
    /// first (replies arrive in FIFO order per channel).
    outstanding: VecDeque<u64>,
}

/// Multi-target read probe: GETs a random probe key from every connected
/// target and completes once the anchor (`targets[0]`) plus
/// `read_quorum` total targets responded, observing the maximum value.
/// RDMA modes only (one CQ multiplexes all target QPs).
pub struct HistReader {
    net: Net,
    cfg: ClusterConfig,
    node: NodeId,
    targets: Vec<TargetConn>,
    read_quorum: usize,
    history: SharedHistory,
    writers: usize,
    keys_per_writer: usize,
    op_gap: SimDuration,
    start_at: SimTime,
    stop_at: SimTime,
    rng: DetRng,
    cq: Option<CqId>,
    by_qp: DetMap<QpId, usize>,
    cur_gen: u64,
    /// Index into the shared history of the read in progress.
    cur_op: Option<usize>,
    /// Per-target observation for the current generation.
    got: Vec<Option<u64>>,
}

impl HistReader {
    /// Create a reader probe. `targets[0]` is the anchor; a read needs
    /// the anchor plus `read_quorum` total responders.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        net: Net,
        cfg: ClusterConfig,
        node: NodeId,
        targets: Vec<SocketAddr>,
        read_quorum: usize,
        history: SharedHistory,
        writers: usize,
        keys_per_writer: usize,
        op_gap: SimDuration,
        start_at: SimTime,
        stop_at: SimTime,
    ) -> Self {
        let got = vec![None; targets.len()];
        HistReader {
            net,
            cfg,
            node,
            targets: targets
                .into_iter()
                .map(|addr| TargetConn {
                    addr,
                    channel: None,
                    outstanding: VecDeque::new(),
                })
                .collect(),
            read_quorum: read_quorum.max(1),
            history,
            writers: writers.max(1),
            keys_per_writer: keys_per_writer.max(1),
            op_gap,
            start_at,
            stop_at,
            rng: DetRng::new(0),
            cq: None,
            by_qp: DetMap::new(),
            cur_gen: 0,
            cur_op: None,
            got,
        }
    }

    fn dial_missing(&mut self, ctx: &mut Context<'_>) {
        let me = ctx.id();
        let cq = match self.cq {
            Some(cq) => cq,
            None => {
                let cq = self.net.create_cq(me);
                self.cq = Some(cq);
                self.net.req_notify_cq(ctx, cq);
                cq
            }
        };
        for t in &mut self.targets {
            if let Some(ch) = t.channel.as_ref() {
                if !ch.broken() {
                    continue;
                }
            }
            if let Some(ch) = t.channel.take() {
                if let Some(qp) = ch.qp() {
                    self.net.destroy_qp(qp);
                }
                t.outstanding.clear();
            }
            self.net.rdma_connect(ctx, self.node, me, cq, t.addr);
        }
    }

    fn issue(&mut self, ctx: &mut Context<'_>) {
        if ctx.now() >= self.stop_at || self.cur_op.is_some() {
            return;
        }
        // No anchor connection → nothing can complete; back off and retry.
        if self.targets.first().is_some_and(|t| t.channel.is_none()) {
            ctx.timer(self.cfg.client_retry_timeout, ProbeMsg::IssueNext);
            return;
        }
        let writer = usize::try_from(self.rng.below(self.writers as u64)).unwrap_or(0);
        let key_idx = usize::try_from(self.rng.below(self.keys_per_writer as u64)).unwrap_or(0);
        let key = probe_key(writer, key_idx);
        let cmd = Resp::command([b"GET".as_slice(), key.as_bytes()]).encode();
        self.cur_gen += 1;
        for g in &mut self.got {
            *g = None;
        }
        let idx = {
            let mut h = self.history.borrow_mut();
            h.ops.push(OpRecord {
                key,
                kind: OpKind::Read,
                seq: 0,
                invoked: ctx.now(),
                completed: None,
                ok: false,
                aborted: false,
                read_set: Vec::new(),
            });
            h.ops.len() - 1
        };
        self.cur_op = Some(idx);
        let net = self.net.clone();
        let gen = self.cur_gen;
        for t in &mut self.targets {
            let Some(ch) = t.channel.as_mut() else {
                continue;
            };
            ch.send(&net, ctx, tag::CMD, cmd.clone());
            t.outstanding.push_back(gen);
        }
        self.maybe_complete(ctx);
    }

    /// Record target `ti`'s reply for the generation it answers; complete
    /// the current read when anchor + quorum responded.
    fn on_get_reply(&mut self, ctx: &mut Context<'_>, ti: usize, payload: &[u8]) {
        let Some(gen) = self.targets[ti].outstanding.pop_front() else {
            return;
        };
        if gen != self.cur_gen || self.cur_op.is_none() {
            return; // reply for an abandoned generation
        }
        if let Some(v) = parse_observed(payload) {
            self.got[ti] = Some(v);
        }
        self.maybe_complete(ctx);
    }

    fn maybe_complete(&mut self, ctx: &mut Context<'_>) {
        let Some(idx) = self.cur_op else { return };
        if self.got.first().copied().flatten().is_none() {
            return; // anchor has not answered
        }
        let responders = self.got.iter().filter(|g| g.is_some()).count();
        if responders < self.read_quorum {
            return;
        }
        let observed = self.got.iter().flatten().copied().max().unwrap_or(0);
        let read_set: Vec<SocketAddr> = self
            .targets
            .iter()
            .zip(&self.got)
            .filter(|(_, g)| g.is_some())
            .map(|(t, _)| t.addr)
            .collect();
        {
            let mut h = self.history.borrow_mut();
            if let Some(op) = h.ops.get_mut(idx) {
                op.completed = Some(ctx.now());
                op.ok = true;
                op.seq = observed;
                op.read_set = read_set;
            }
        }
        self.cur_op = None;
        ctx.timer(self.op_gap, ProbeMsg::IssueNext);
    }
}

impl Actor for HistReader {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.rng = ctx.rng().split();
        ctx.timer_at(self.start_at, ProbeMsg::Start);
        ctx.timer_at(
            self.start_at + self.cfg.client_retry_timeout,
            ProbeMsg::Watchdog,
        );
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ActorId, msg: Payload) {
        let msg = match msg.downcast::<ProbeMsg>() {
            Ok(m) => {
                match *m {
                    ProbeMsg::Start => {
                        self.dial_missing(ctx);
                        ctx.timer(self.op_gap, ProbeMsg::IssueNext);
                    }
                    ProbeMsg::IssueNext => self.issue(ctx),
                    ProbeMsg::Watchdog => {
                        let now = ctx.now();
                        if now >= self.stop_at && self.cur_op.is_none() {
                            return;
                        }
                        let timeout = self.cfg.client_retry_timeout;
                        let stuck = self.cur_op.is_some_and(|idx| {
                            self.history
                                .borrow()
                                .ops
                                .get(idx)
                                .is_some_and(|op| now.saturating_since(op.invoked) > timeout)
                        });
                        if stuck {
                            // Abandon the read and record an *explicit
                            // abort*: its value was provably never
                            // observed, so the checker drops it instead
                            // of treating it as an infinite-window op
                            // (which a dial backoff under a partition
                            // would otherwise leave behind every time a
                            // probe gives up mid-plan).
                            if let Some(idx) = self.cur_op.take() {
                                let mut h = self.history.borrow_mut();
                                if let Some(op) = h.ops.get_mut(idx) {
                                    op.aborted = true;
                                }
                            }
                            self.dial_missing(ctx);
                            ctx.timer(self.op_gap, ProbeMsg::IssueNext);
                        }
                        ctx.timer(timeout, ProbeMsg::Watchdog);
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
            NetEvent::CmEstablished { qp, peer } => {
                let Some(ti) = self.targets.iter().position(|t| t.addr == peer) else {
                    return;
                };
                if self.targets[ti].channel.is_some() {
                    return;
                }
                let net = self.net.clone();
                let ch = Channel::rdma(&net, ctx, self.node, qp, self.cfg.ring_size);
                self.by_qp.insert(qp, ti);
                self.targets[ti].channel = Some(ch);
            }
            NetEvent::CmConnectFailed { .. } => {
                // The watchdog retries; losing one target only costs
                // quorum membership until then.
            }
            NetEvent::CqNotify { cq } => {
                let net = self.net.clone();
                let budget = self.cfg.cq_poll_budget;
                let out = cqdrain::drain_budgeted(&net, ctx, cq, budget, |ctx, wc| {
                    let Some(&ti) = self.by_qp.get(&wc.qp) else {
                        return;
                    };
                    let Some(ch) = self.targets[ti].channel.as_mut() else {
                        return;
                    };
                    if let Some(ChannelMsg { tag: t, payload }) = ch.on_wc(&net, ctx, &wc) {
                        if t == tag::REPLY {
                            self.on_get_reply(ctx, ti, &payload);
                        }
                    }
                    // Broken channels stay in place until the watchdog
                    // redials: `outstanding` bookkeeping dies with them.
                });
                if out.more {
                    ctx.timer_at(ctx.now(), NetEvent::CqNotify { cq });
                }
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "hist-reader"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn write(key: &str, seq: u64, inv: u64, done: u64) -> OpRecord {
        OpRecord {
            key: key.into(),
            kind: OpKind::Write,
            seq,
            invoked: t(inv),
            completed: Some(t(done)),
            ok: true,
            aborted: false,
            read_set: Vec::new(),
        }
    }

    fn read(key: &str, seq: u64, inv: u64, done: u64) -> OpRecord {
        OpRecord {
            key: key.into(),
            kind: OpKind::Read,
            seq,
            invoked: t(inv),
            completed: Some(t(done)),
            ok: true,
            aborted: false,
            read_set: Vec::new(),
        }
    }

    #[test]
    fn clean_history_passes() {
        let h = History {
            ops: vec![
                write("k", 1, 0, 10),
                read("k", 1, 20, 30),
                write("k", 2, 40, 50),
                read("k", 2, 60, 70),
            ],
        };
        assert!(check_single_writer(&h).is_empty());
    }

    #[test]
    fn stale_read_is_flagged() {
        let h = History {
            ops: vec![
                write("k", 1, 0, 10),
                write("k", 2, 20, 30),
                read("k", 1, 40, 50), // write 2 completed before — stale
            ],
        };
        let v = check_single_writer(&h);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(stale_reads(&v), 1);
    }

    #[test]
    fn phantom_value_is_flagged() {
        let h = History {
            ops: vec![write("k", 1, 0, 10), read("k", 7, 20, 30)],
        };
        let v = check_single_writer(&h);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(stale_reads(&v), 0);
    }

    #[test]
    fn non_monotone_reads_are_flagged() {
        let h = History {
            ops: vec![
                write("k", 1, 0, 10),
                // Write 2 never completed (abandoned) — observing it is
                // legal, but un-observing it afterwards is not.
                OpRecord {
                    completed: None,
                    ok: false,
                    ..write("k", 2, 15, 0)
                },
                read("k", 2, 20, 30),
                read("k", 1, 40, 50),
            ],
        };
        let v = check_single_writer(&h);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].detail.contains("non-monotone"), "{v:?}");
    }

    #[test]
    fn incomplete_and_overlapping_ops_are_tolerated() {
        let h = History {
            ops: vec![
                write("k", 1, 0, 10),
                // In-flight write: reads may see 1 or 2.
                OpRecord {
                    completed: None,
                    ok: false,
                    ..write("k", 2, 15, 0)
                },
                // Overlapping reads: one sees the new value, one does not.
                read("k", 2, 20, 30),
                read("k", 2, 25, 40),
                read("k", 2, 50, 60),
            ],
        };
        assert!(check_single_writer(&h).is_empty());
    }

    #[test]
    fn null_reads_before_any_write_pass() {
        let h = History {
            ops: vec![
                read("k", 0, 0, 5),
                write("k", 1, 10, 20),
                read("k", 1, 30, 40),
            ],
        };
        assert!(check_single_writer(&h).is_empty());
    }

    #[test]
    fn observed_parse_handles_replies() {
        assert_eq!(parse_observed(&Resp::NullBulk.encode()), Some(0));
        assert_eq!(
            parse_observed(&Resp::Bulk(b"42".to_vec()).encode()),
            Some(42)
        );
        assert_eq!(parse_observed(&Resp::Bulk(b"x".to_vec()).encode()), None);
        assert_eq!(parse_observed(b"-ERR nope\r\n"), None);
    }

    #[test]
    fn probe_keys_are_namespaced_and_stable() {
        assert_eq!(probe_key(1, 2), "h:01:0002");
        assert_ne!(probe_key(1, 2), probe_key(2, 1));
    }

    // -- multi-writer checker -------------------------------------------

    #[test]
    fn multi_writer_clean_history_is_linearizable() {
        // Two writers with unique values, overlapping windows, reads that
        // can all be ordered consistently.
        let h = History {
            ops: vec![
                write("k", 101, 0, 30),
                write("k", 201, 10, 40), // concurrent with 101
                read("k", 201, 50, 60),
                write("k", 102, 55, 70),
                read("k", 102, 80, 90),
                read("k", 102, 85, 95),
            ],
        };
        let v = check_linearizable(&h);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn known_bad_stale_read_fixture_is_rejected() {
        // The seeded known-bad fixture: write 2 completed before the read
        // was invoked, yet the read observed the older value 1. The
        // checker must produce a counterexample, not a pass.
        let h = History {
            ops: vec![
                write("k", 1, 0, 10),
                write("k", 2, 20, 30),
                read("k", 1, 40, 50),
            ],
        };
        let v = check_linearizable(&h);
        assert!(!v.is_empty(), "checker passed a stale-read history");
        assert!(stale_reads(&v) >= 1, "{v:?}");
    }

    #[test]
    fn concurrent_write_order_contradiction_is_rejected() {
        // Both writes complete before any read, so the register order of
        // (1, 2) is fixed by read time — observing 1, then 2, then 1
        // again has no valid schedule. The quick screens cannot see this
        // (neither write strictly precedes the other); only the search
        // rejects it.
        let h = History {
            ops: vec![
                write("k", 1, 0, 100),
                write("k", 2, 0, 100),
                read("k", 1, 110, 120),
                read("k", 2, 130, 140),
                read("k", 1, 150, 160),
            ],
        };
        let v = check_linearizable(&h);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].detail.contains("not linearizable"), "{v:?}");
    }

    #[test]
    fn maybe_applied_write_windows_are_honored() {
        // The incomplete write 2 may linearize anywhere after its
        // invocation; reads observing it are legal, and it is never
        // required.
        let h = History {
            ops: vec![
                write("k", 1, 0, 10),
                OpRecord {
                    completed: None,
                    ok: false,
                    ..write("k", 2, 15, 0)
                },
                read("k", 2, 20, 30),
                read("k", 2, 25, 40),
                read("k", 2, 50, 60),
            ],
        };
        let v = check_linearizable(&h);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn aborted_reads_are_dropped() {
        // An aborted read carries garbage; with the abort flag the
        // checker excludes it, without the flag the same record would
        // fail provenance.
        let mut bad = read("k", 999, 20, 30);
        bad.aborted = true;
        let h = History {
            ops: vec![write("k", 1, 0, 10), bad, read("k", 1, 40, 50)],
        };
        let v = check_linearizable(&h);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn prefix_check_stops_at_the_degradation_point() {
        // The stale read happens after the cutoff: the full check rejects
        // the history, the prefix check accepts it.
        let h = History {
            ops: vec![
                write("k", 1, 0, 10),
                write("k", 2, 20, 30),
                read("k", 1, 40, 50),
            ],
        };
        assert!(!check_linearizable(&h).is_empty());
        assert!(check_linearizable_upto(&h, t(35)).is_empty());
        // An op spanning the cutoff is treated as still-open: write 2
        // becomes maybe-applied, so the read of 1 stays legal even when
        // it slips inside the prefix.
        let h2 = History {
            ops: vec![
                write("k", 1, 0, 10),
                write("k", 2, 20, 60),
                read("k", 1, 30, 40),
            ],
        };
        assert!(check_linearizable_upto(&h2, t(50)).is_empty());
    }

    #[test]
    fn non_monotone_reports_each_regressed_read_once() {
        // Two reads observe the maybe-applied write 2, then a later read
        // falls back to 1: one offending later read, one violation (not
        // one per earlier read).
        let h = History {
            ops: vec![
                write("k", 1, 0, 10),
                OpRecord {
                    completed: None,
                    ok: false,
                    ..write("k", 2, 15, 0)
                },
                read("k", 2, 20, 30),
                read("k", 2, 32, 38),
                read("k", 1, 40, 50),
            ],
        };
        for v in [check_linearizable(&h), check_single_writer(&h)] {
            assert_eq!(v.len(), 1, "{v:?}");
            assert_eq!(v[0].detail, "non-monotone reads: 2 then 1", "{v:?}");
        }
    }

    #[test]
    fn reads_of_nothing_after_a_value_are_flagged_by_the_screens() {
        // Missing an acked write is a stale read...
        let h = History {
            ops: vec![write("k", 1, 0, 10), read("k", 0, 20, 30)],
        };
        let v = check_linearizable(&h);
        assert_eq!(stale_reads(&v), 1, "{v:?}");
        // ...and seeing nothing after an earlier read saw a value is a
        // regression, even when the write is still unacknowledged.
        let h = History {
            ops: vec![
                OpRecord {
                    completed: None,
                    ok: false,
                    ..write("k", 1, 0, 0)
                },
                read("k", 1, 20, 30),
                read("k", 0, 40, 50),
            ],
        };
        let v = check_linearizable(&h);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].detail, "non-monotone reads: 1 then 0", "{v:?}");
    }

    #[test]
    fn unobserved_maybe_applied_writes_are_dropped_before_the_search() {
        // A sequential write/read history in which every other write lost
        // its reply and no read ever observed it. Kept as candidates,
        // those writes multiply the states of every later step past the
        // budget; dropped (no read sits between one and the next write),
        // the history checks in linear time.
        let mut ops = Vec::new();
        let (mut now, mut last) = (0, 0);
        for v in 1..=1_000u64 {
            if v % 2 == 0 {
                ops.push(OpRecord {
                    completed: None,
                    ok: false,
                    ..write("k", v, now, 0)
                });
            } else {
                ops.push(write("k", v, now, now + 5));
                last = v;
            }
            ops.push(read("k", last, now + 10, now + 15));
            now += 20;
        }
        let v = check_linearizable(&History { ops });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn search_budget_exhaustion_is_a_failure() {
        // 24 mutually concurrent writes, then reads of 1, 2, 1: no order
        // of the writes explains them, and proving that means exploring
        // far more subsets than the budget allows. The verdict must be a
        // loud failure, never a pass.
        let mut ops: Vec<OpRecord> = (1..=24).map(|v| write("k", v, 0, 100)).collect();
        ops.extend([
            read("k", 1, 110, 120),
            read("k", 2, 130, 140),
            read("k", 1, 150, 160),
        ]);
        let v = check_linearizable(&History { ops });
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].detail.starts_with("search budget exceeded"), "{v:?}");
    }

    // -- differential oracle -----------------------------------------------

    /// One op of the brute-force oracle.
    struct OracleOp {
        inv: SimTime,
        /// `None` = maybe-applied write (no real-time upper bound).
        resp: Option<SimTime>,
        write: bool,
        value: u64,
    }

    /// Brute-force linearizability of a single-key history, straight from
    /// the definition: some subset of the maybe-applied writes, together
    /// with every required op, has an order that respects real time (`a`
    /// before `b` whenever `a` responded before `b` was invoked) and
    /// register semantics (a read observes the latest write, 0 before
    /// any). Required: successful writes and reads. Maybe-applied: every
    /// other write, with an open window — an error reply is no proof the
    /// write did not land. Ignored: aborted ops and reads without a
    /// successful reply.
    fn oracle_linearizable(h: &History) -> bool {
        let mut required = Vec::new();
        let mut optional = Vec::new();
        for o in h.ops.iter().filter(|o| !o.aborted) {
            let op = OracleOp {
                inv: o.invoked,
                resp: o.completed.filter(|_| o.ok),
                write: o.kind == OpKind::Write,
                value: o.seq,
            };
            match (op.write, op.resp) {
                (true, None) => optional.push(op),
                (_, Some(_)) => required.push(op),
                (false, None) => {}
            }
        }
        (0..1u32 << optional.len()).any(|mask| {
            let ops: Vec<&OracleOp> = required
                .iter()
                .chain(
                    optional
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask >> i & 1 == 1)
                        .map(|(_, o)| o),
                )
                .collect();
            let mut placed = vec![false; ops.len()];
            oracle_extend(&ops, &mut placed, 0, 0)
        })
    }

    /// Try every op that may come next after the `count` placed ones.
    fn oracle_extend(ops: &[&OracleOp], placed: &mut [bool], count: usize, reg: u64) -> bool {
        if count == ops.len() {
            return true;
        }
        for i in 0..ops.len() {
            let o = ops[i];
            let must_wait = (0..ops.len())
                .any(|j| j != i && !placed[j] && ops[j].resp.is_some_and(|r| r < o.inv));
            if placed[i] || must_wait || (!o.write && o.value != reg) {
                continue;
            }
            placed[i] = true;
            let found = oracle_extend(ops, placed, count + 1, if o.write { o.value } else { reg });
            placed[i] = false;
            if found {
                return true;
            }
        }
        false
    }

    /// Lay out a single-key history from drawn op shapes: each client
    /// runs its ops back to back, every op takes effect at a point in its
    /// window (a maybe-applied write possibly never), reads observe the
    /// register at their point — and some reads are then corrupted, so
    /// both verdicts occur.
    fn drawn_history(clients: u64, shapes: &[(u64, u64, u64, u64, u64)]) -> History {
        let mut clock = [0u64; 3];
        let mut ops = Vec::new();
        let mut points = Vec::new();
        for (i, &(client, gap, dur, variant, draw)) in shapes.iter().enumerate() {
            let c = usize::try_from(client % clients).unwrap_or(0);
            let inv = clock[c] + gap;
            clock[c] = inv + dur;
            let value = (client % clients + 1) * 100 + i as u64;
            let op = match variant {
                0..=3 => write("k", value, inv, inv + dur),
                4 | 5 => {
                    // No reply (4) or an error reply (5).
                    let mut w = write("k", value, inv, inv + dur);
                    w.ok = false;
                    if variant == 4 {
                        w.completed = None;
                    }
                    w
                }
                6..=8 => read("k", 0, inv, inv + dur),
                _ => {
                    // A read that observed nothing: error reply, abort or
                    // no reply at all.
                    let mut r = read("k", 999, inv, inv + dur);
                    r.ok = false;
                    match draw % 3 {
                        0 => {}
                        1 => {
                            r.aborted = true;
                            r.completed = None;
                        }
                        _ => r.completed = None,
                    }
                    r
                }
            };
            let point = match variant {
                0..=3 | 6..=8 => Some(inv + draw % (dur + 1)),
                // A maybe-applied write lands on odd draws, possibly long
                // after its window.
                4 | 5 if draw % 2 == 1 => Some(inv + draw),
                _ => None,
            };
            if let Some(point) = point {
                points.push((point, i));
            }
            ops.push(op);
        }
        points.sort_unstable();
        let mut reg = 0;
        for (_, i) in points {
            let op = &mut ops[i];
            match op.kind {
                OpKind::Write => reg = op.seq,
                OpKind::Read => op.seq = reg,
            }
        }
        // Corrupt some reads: an older value, a future one, nothing, or a
        // value nobody wrote.
        let writes: Vec<u64> = ops
            .iter()
            .filter(|o| o.kind == OpKind::Write)
            .map(|o| o.seq)
            .collect();
        for (i, &(_, _, _, variant, draw)) in shapes.iter().enumerate() {
            if (6..=8).contains(&variant) && draw % 3 == 0 {
                let pick = usize::try_from(draw / 3 + i as u64).unwrap_or(0);
                ops[i].seq = match draw % 4 {
                    0 | 3 => writes.get(pick % writes.len().max(1)).copied().unwrap_or(0),
                    1 => 0,
                    _ => 7,
                };
            }
        }
        History { ops }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2_000))]
        #[test]
        fn checker_agrees_with_brute_force_oracle(
            clients in 2u64..4,
            shapes in proptest::collection::vec((0u64..3, 0u64..5, 1u64..8, 0u64..10, 0u64..12), 1..11),
        ) {
            let h = drawn_history(clients, &shapes);
            let verdict = check_linearizable(&h);
            proptest::prop_assert_eq!(
                verdict.is_empty(),
                oracle_linearizable(&h),
                "history {:?}\nverdict {:?}",
                h.ops.iter().map(|o| (o.kind, o.seq, o.invoked.as_nanos() / 1_000, o.completed.map(|t| t.as_nanos() / 1_000), o.ok, o.aborted)).collect::<Vec<_>>(),
                verdict
            );
        }
    }

    #[test]
    fn event_log_json_lists_every_op() {
        let mut aborted = read("k", 0, 20, 0);
        aborted.completed = None;
        aborted.ok = false;
        aborted.aborted = true;
        let h = History {
            ops: vec![write("k", 1, 0, 10), aborted],
        };
        let json = h.event_log_json();
        assert!(json.starts_with("[\n"), "{json}");
        assert!(json.trim_end().ends_with(']'), "{json}");
        assert!(json.contains("\"kind\":\"write\""), "{json}");
        assert!(json.contains("\"completed_ns\":null"), "{json}");
        assert!(json.contains("\"aborted\":true"), "{json}");
        assert_eq!(json.matches("\"key\":").count(), 2, "{json}");
    }
}
