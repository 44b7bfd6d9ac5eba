//! The sharded deterministic parallel executor.
//!
//! The [`crate::Backend::Sharded`] arm of [`crate::Network::execute`]:
//! the sequential engine's synchronous semantics across a fixed pool of
//! worker threads, producing **bit-identical** outputs, [`RunStats`] and
//! [`Trace`] streams for any [`RunSpec`] — a property the differential
//! test suite (`tests/parallel_equiv.rs`) checks exhaustively.
//!
//! # Design
//!
//! * **Sharding.** Nodes are split into contiguous chunks, one per
//!   worker. Each worker owns its nodes' protocol state, RNGs and halted
//!   flags outright (`chunks_mut`), so per-round computation needs no
//!   locks at all.
//! * **One delivery step.** Every message goes through the sequential
//!   engine's per-message step, `Wire::send` (accounting, CONGEST
//!   budget, churn and partition gates, keyed fault draws); only the
//!   final write below is sharded.
//! * **Slot delivery.** Both synchronous engines deliver into one slot
//!   per *directed* edge, laid out by the network's port table (slot
//!   `base[u] + q` for receiver `u`, port `q`), in two buffers that
//!   alternate by round parity: round `r` reads one and writes the
//!   other, and every node with mail drains all its slots in the round
//!   the mail arrives (halted nodes too). What the sharded engine adds is only the sharing: each
//!   slot has exactly one writer per round (the unique peer of that
//!   port), so slots are `UnsafeCell`s written without locks, and
//!   duplicated or reordered copies go to a mutexed FIFO per directed
//!   edge.
//! * **Determinism.** A node's behaviour depends only on its private RNG
//!   and its port-ordered inbox; fault injections are drawn from RNGs
//!   keyed on the message coordinates ([`crate::rng::fault_rng`]) and
//!   churn presence is evaluated through `RunPlan::present_seen`, so no
//!   observable quantity depends on thread scheduling.
//! * **Coordination.** Two barriers per round. Between them, worker 0
//!   exclusively runs the round-boundary logic the sequential engine runs
//!   between node sweeps: error collection, round accounting, the
//!   all-halted / quiescence / round-limit checks, and the application of
//!   scheduled edge-churn events.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;

use dam_graph::{NodeId, Topology};
use parking_lot::Mutex;

use crate::engine::{Network, PortView, Route, RunOutcome, RunPlan, RunSpec, Tally, Wire};
use crate::error::SimError;
use crate::message::BitSize;
use crate::node::{Context, Port, Protocol};
use crate::rng;
use crate::stats::{Integrity, RunStats};
use crate::trace::{ChurnKind, FaultKind, Trace, TraceEvent};

/// One message slot per directed edge, written without locks.
///
/// Slot `base[u] + q` carries the message arriving at node `u` over
/// port `q`. Within any round it has exactly one writer (the unique
/// sender behind that port, during its flush) and exactly one reader
/// (`u`, in the *next* round, after a barrier) — so plain unsynchronized
/// access through [`UnsafeCell`] is sound.
struct SlotBuf<M> {
    slots: Vec<UnsafeCell<Option<M>>>,
}

// SAFETY: every slot is accessed by at most one thread at a time — the
// unique sender while a round's messages are flushed, the unique receiver
// after the next round barrier, and worker 0 only between barriers. The
// round barriers establish the necessary happens-before edges.
unsafe impl<M: Send> Sync for SlotBuf<M> {}

impl<M> SlotBuf<M> {
    fn new(len: usize) -> SlotBuf<M> {
        SlotBuf { slots: (0..len).map(|_| UnsafeCell::new(None)).collect() }
    }

    /// # Safety
    /// The caller must be the slot's unique accessor for this phase (see
    /// the type-level invariant).
    unsafe fn put(&self, idx: usize, msg: M) {
        unsafe { *self.slots[idx].get() = Some(msg) };
    }

    /// # Safety
    /// As [`SlotBuf::put`].
    unsafe fn take(&self, idx: usize) -> Option<M> {
        unsafe { (*self.slots[idx].get()).take() }
    }

    /// # Safety
    /// As [`SlotBuf::put`].
    unsafe fn occupied(&self, idx: usize) -> bool {
        unsafe { (*self.slots[idx].get()).is_some() }
    }
}

/// Why a run stopped early: the first (round, node)-ordered incident, so
/// the parallel engine reports exactly the failure the sequential engine
/// would have hit first.
enum Incident {
    /// A protocol error (today always [`SimError::DuplicateSend`]) or an
    /// engine limit.
    Error(SimError),
    /// A panic out of protocol code (or an oversize message under
    /// [`ViolationPolicy::Panic`]); resumed on the caller's thread.
    Panic(Box<dyn std::any::Any + Send + 'static>),
}

/// Cumulative telemetry counters shared across workers, present only
/// when a [`crate::telemetry::StatsSink`] is attached. Workers publish
/// their per-round deltas before the first barrier; worker 0 reads the
/// totals between the barriers and streams one sample per round. The
/// counters are observation-only — nothing in the round pipeline reads
/// them back — so the sharded run's outputs/stats/trace stay
/// bit-identical with or without a sink.
struct TeleShared {
    messages: AtomicU64,
    retransmissions: AtomicU64,
    heartbeats: AtomicU64,
    maintenance: AtomicU64,
    churn_events: AtomicU64,
    churn_drops: AtomicU64,
    rejected: AtomicU64,
    quarantined: AtomicU64,
    suspected: AtomicU64,
    outstanding: AtomicU64,
}

/// One worker's view of its own cumulative counters at its last
/// publication — the subtrahend that turns cumulative locals into
/// per-round deltas.
#[derive(Clone, Copy, Default)]
struct TeleSnapshot {
    messages: u64,
    retransmissions: u64,
    heartbeats: u64,
    maintenance: u64,
    churn_events: u64,
    churn_drops: u64,
    rejected: u64,
    quarantined: u64,
    suspected: u64,
    outstanding: u64,
}

impl TeleSnapshot {
    fn of(stats: &RunStats, integrity: &Integrity) -> TeleSnapshot {
        TeleSnapshot {
            messages: stats.messages,
            retransmissions: stats.retransmissions,
            heartbeats: stats.heartbeats,
            maintenance: stats.maintenance,
            churn_events: stats.churn_events,
            churn_drops: stats.churn_drops,
            rejected: integrity.rejected,
            quarantined: integrity.quarantined,
            suspected: integrity.suspected,
            outstanding: integrity.outstanding,
        }
    }
}

impl TeleShared {
    fn new() -> TeleShared {
        TeleShared {
            messages: AtomicU64::new(0),
            retransmissions: AtomicU64::new(0),
            heartbeats: AtomicU64::new(0),
            maintenance: AtomicU64::new(0),
            churn_events: AtomicU64::new(0),
            churn_drops: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            suspected: AtomicU64::new(0),
            outstanding: AtomicU64::new(0),
        }
    }

    /// Adds the delta between `cur` and `prev` into the shared totals
    /// and advances `prev`. Local counters are monotone (saturating
    /// adds only), so plain subtraction is safe.
    fn publish(&self, cur: TeleSnapshot, prev: &mut TeleSnapshot) {
        self.messages.fetch_add(cur.messages - prev.messages, Ordering::SeqCst);
        self.retransmissions
            .fetch_add(cur.retransmissions - prev.retransmissions, Ordering::SeqCst);
        self.heartbeats.fetch_add(cur.heartbeats - prev.heartbeats, Ordering::SeqCst);
        self.maintenance.fetch_add(cur.maintenance - prev.maintenance, Ordering::SeqCst);
        self.churn_events.fetch_add(cur.churn_events - prev.churn_events, Ordering::SeqCst);
        self.churn_drops.fetch_add(cur.churn_drops - prev.churn_drops, Ordering::SeqCst);
        self.rejected.fetch_add(cur.rejected - prev.rejected, Ordering::SeqCst);
        self.quarantined.fetch_add(cur.quarantined - prev.quarantined, Ordering::SeqCst);
        self.suspected.fetch_add(cur.suspected - prev.suspected, Ordering::SeqCst);
        self.outstanding.fetch_add(cur.outstanding - prev.outstanding, Ordering::SeqCst);
        *prev = cur;
    }
}

/// State only worker 0 touches, between the two round barriers.
struct Coord {
    rounds: u64,
    charged: u64,
    churn_events: u64,
    quiet: usize,
    edge_event_idx: usize,
    failure: Option<Incident>,
    /// Edge-churn events, when tracing.
    trace: Option<Trace>,
}

/// Immutable-or-synchronized state every worker sees.
struct Shared<'a, M> {
    /// The run's delivery step, with the graph, config, plan and run id.
    wire: Wire<'a>,
    n: usize,
    /// Per-directed-edge FIFO of `(delivery_round, payload)` for
    /// duplicated/reordered messages. Single producer (the edge's
    /// sender), single consumer (the receiver), mutexed because they can
    /// touch it in the same round.
    fifos: Vec<Mutex<Vec<(usize, M)>>>,
    /// Edge presence under churn; written only by worker 0 between
    /// barriers, mirroring the sequential engine's round prologue.
    edge_present: Vec<AtomicBool>,
    /// Which nodes ended round 0 halted — feeds the coordinator's
    /// round-0 quiescence scan.
    halted_pub: Vec<AtomicBool>,
    /// In-flight duplicated/reordered messages (the sequential engine's
    /// late-list count), for the quiescence check.
    pending_count: AtomicI64,
    /// Frames flushed this round, summed over workers.
    round_frames: AtomicU64,
    /// Widest message this round, for pipelined round charging.
    round_max_bits: AtomicUsize,
    /// Currently halted nodes (updated on every halt/unhalt transition).
    halted_count: AtomicUsize,
    /// Shared telemetry totals; `Some` only when a sink is attached.
    telemetry: Option<TeleShared>,
}

impl<M> Shared<'_, M> {
    /// Queues a duplicated or reordered copy for `slot`, due in `due`.
    fn push_later(&self, slot: usize, due: usize, msg: M) {
        self.fifos[slot].lock().push((due, msg));
        self.pending_count.fetch_add(1, Ordering::Relaxed);
    }
}

/// One shard's node state, owned outright by its worker.
///
/// Each worker gets its own contiguous allocations (protocol state,
/// RNGs, halted flags for its ascending node range `base..base + len`)
/// instead of a `chunks_mut` slice of one global vector — so shard
/// workers never share an allocation, never touch a neighbouring
/// shard's cache lines, and the arena can be built/dropped per shard.
/// Shards cover `0..n` contiguously in worker order, which keeps the
/// flattened output order equal to node order (bit-identity with the
/// sequential engine).
struct ShardArena<P> {
    /// First node id of this shard.
    base: NodeId,
    protos: Vec<P>,
    rngs: Vec<rand::rngs::StdRng>,
    halted: Vec<bool>,
}

/// A worker's private scratch state.
struct WorkerLocal<M> {
    /// Statistics partial, widest message this round, trace buffer.
    tally: Tally,
    round_frames: u64,
    outbox: Vec<(Port, M)>,
    sent: Vec<bool>,
    inbox: Vec<(Port, M)>,
    fault: Option<SimError>,
    integrity: Integrity,
    /// Counters as of this worker's last telemetry publication.
    tele_prev: TeleSnapshot,
}

/// Drains node `v`'s current-buffer slots and due pending messages for
/// `round`. With `out` set, collects them as the port-ordered inbox
/// (slot message first, then due duplicates/reorders in arrival order —
/// exactly the sequential engine's `Mail::take`); without, they are
/// discarded, as the sequential engine discards the mail of
/// halted/leaving/joining/recovering nodes. Every node must be drained
/// every round so the parity buffer is clean for reuse and the pending
/// count stays exact.
fn drain_node<M>(
    sh: &Shared<'_, M>,
    cur: &SlotBuf<M>,
    v: NodeId,
    round: usize,
    mut out: Option<&mut Vec<(Port, M)>>,
) {
    let base = sh.wire.ports.base[v];
    for i in sh.wire.ports.range(v) {
        let q = i - base;
        // SAFETY: `v`'s worker is the unique reader of slot `(v, q)` in
        // the round-`round` buffer; its writer finished last round
        // (barrier-separated).
        if let Some(msg) = unsafe { cur.take(i) } {
            if let Some(inbox) = out.as_deref_mut() {
                inbox.push((q, msg));
            }
        }
        if sh.wire.plan.any_dup_or_reorder {
            let mut fifo = sh.fifos[i].lock();
            let mut i = 0;
            while i < fifo.len() {
                if fifo[i].0 == round {
                    let (_, msg) = fifo.remove(i);
                    sh.pending_count.fetch_sub(1, Ordering::Relaxed);
                    if let Some(inbox) = out.as_deref_mut() {
                        inbox.push((q, msg));
                    }
                } else {
                    i += 1;
                }
            }
        }
    }
}

/// Delivers `v`'s outbox for `round` through the shared [`Wire::send`].
/// What stays here is the sharded write: a lock-free slot `put` for the
/// next round, a FIFO push for duplicated and reordered copies.
fn flush_to_slots<M: BitSize + Clone>(
    v: NodeId,
    round: usize,
    local: &mut WorkerLocal<M>,
    sh: &Shared<'_, M>,
    nxt: &SlotBuf<M>,
) {
    let plan = sh.wire.plan;
    let keys = sh.wire.sender(round, v);
    for (port, msg) in local.outbox.drain(..) {
        local.sent[port] = false;
        local.round_frames += 1;
        let link_up = |u: NodeId, e: usize| {
            sh.edge_present[e].load(Ordering::Relaxed) && plan.present_seen(u, round, v)
        };
        let Route::Arrive { u, q, due, msg, dup } =
            sh.wire.send(round, v, port, msg, &keys, &mut local.tally, link_up)
        else {
            continue;
        };
        let slot = sh.wire.ports.base[u] + q;
        if let Some(copy) = dup {
            sh.push_later(slot, round + 2, copy);
        }
        if due > round + 1 {
            sh.push_later(slot, due, msg);
            continue;
        }
        // The sequential engine gates immediate delivery on the
        // receiver's halted flag *at the sender's flush moment*. That
        // snapshot differs from the receiver-side discard (drain) only
        // when the receiver un-halts mid-round — a crash recovery, the
        // one transition that flips halted back off. Senders swept
        // before the recovering node (`v < u`) saw the flag still up,
        // so their messages were dropped; recovery rounds are static
        // plan data, so the sweep replays exactly. (Joins are already
        // ordered by `present_seen` above, and *halting* transitions
        // need no gate: the receiver discards on drain either way.)
        if plan.node(u).recovery == Some(round) && v < u {
            continue;
        }
        // SAFETY: `v` is the unique sender over `(u, q)` and sends at
        // most one message per round (double sends fail earlier), so
        // this is the slot's only writer until `u` drains it next round.
        unsafe { nxt.put(slot, msg) };
    }
}

/// Interleaves per-round trace buffers in the sequential engine's
/// order: for each round, worker 0's coordinator prologue (edge-churn
/// events) first, then each worker's events — workers own contiguous
/// ascending node ranges, so buffer order is node order.
fn merge_traces(buffers: &[Trace]) -> Trace {
    let total: usize = buffers.iter().map(Trace::len).sum();
    let mut out = Trace::new();
    let mut cursors = vec![0usize; buffers.len()];
    let mut round = 0usize;
    while out.len() < total {
        for (b, buf) in buffers.iter().enumerate() {
            let events = buf.events();
            while cursors[b] < events.len() && events[cursors[b]].round() == round {
                out.record(events[cursors[b]].clone());
                cursors[b] += 1;
            }
        }
        round += 1;
    }
    out
}

impl Network<'_> {
    /// The [`crate::Backend::Sharded`] arm of [`Network::execute`]: one
    /// run on `threads.min(n)` worker threads, or on the sequential
    /// engine when that is at most one.
    pub(crate) fn run_sharded<P, F>(
        &mut self,
        make: F,
        spec: &RunSpec<'_>,
        threads: usize,
    ) -> Result<RunOutcome<P::Output>, SimError>
    where
        P: Protocol + Send,
        F: Fn(NodeId, &dyn Topology) -> P + Sync,
    {
        let graph = self.graph();
        let config = self.config();
        let n = graph.node_count();
        if threads.min(n) <= 1 {
            // One worker (or a trivial graph): the sequential engine IS
            // the semantics; no need to spin up a pool.
            return self.run_impl(make, spec, false);
        }
        let plan = RunPlan::build(graph, self.ports(), spec.faults, spec.churn)?;
        let run_id = self.next_run_id();
        let ports = self.ports();
        let view = PortView { graph, ports };
        let graph: &dyn Topology = &view;

        let total_slots = ports.len();
        let bufs = [SlotBuf::<P::Msg>::new(total_slots), SlotBuf::<P::Msg>::new(total_slots)];
        let sh = Shared {
            wire: Wire::new(graph, config, &plan, run_id, ports),
            n,
            fifos: (0..total_slots).map(|_| Mutex::new(Vec::new())).collect(),
            edge_present: plan.edge_present0.iter().map(AtomicBool::new).collect(),
            halted_pub: (0..n).map(|_| AtomicBool::new(false)).collect(),
            pending_count: AtomicI64::new(0),
            round_frames: AtomicU64::new(0),
            round_max_bits: AtomicUsize::new(0),
            halted_count: AtomicUsize::new(0),
            telemetry: self.stats_sink().is_some().then(TeleShared::new),
        };

        let chunk = n.div_ceil(threads.min(n));
        let workers = n.div_ceil(chunk);
        // One arena per shard: contiguous per-shard allocations in
        // ascending node order, so flattening them back restores the
        // sequential engine's node-indexed vectors exactly.
        let mut arenas: Vec<ShardArena<P>> = (0..workers)
            .map(|t| {
                let base = t * chunk;
                let end = n.min(base + chunk);
                ShardArena {
                    base,
                    protos: (base..end).map(|v| make(v, graph)).collect(),
                    rngs: (base..end).map(|v| rng::node_rng(config.seed, run_id, v)).collect(),
                    halted: vec![false; end - base],
                }
            })
            .collect();
        let barrier = Barrier::new(workers);
        let done = AtomicBool::new(false);
        let coord = Mutex::new(Coord {
            rounds: 0,
            charged: 0,
            churn_events: 0,
            quiet: 0,
            edge_event_idx: 0,
            failure: None,
            trace: spec.trace.then(Trace::new),
        });
        let incidents: Mutex<Vec<(NodeId, Incident)>> = Mutex::new(Vec::new());
        let trace_on = spec.trace;
        let make = &make;
        let net: &Network<'_> = self;

        let results = {
            let joined = crossbeam::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                for (t, arena) in arenas.iter_mut().enumerate() {
                    let sh = &sh;
                    let bufs = &bufs;
                    let barrier = &barrier;
                    let done = &done;
                    let coord = &coord;
                    let incidents = &incidents;
                    handles.push(scope.spawn(move |_| {
                        run_worker(
                            t, arena, sh, bufs, barrier, done, coord, incidents, net, make,
                            trace_on,
                        )
                    }));
                }
                let mut results = Vec::with_capacity(workers);
                for h in handles {
                    match h.join() {
                        Ok(r) => results.push(r),
                        Err(p) => std::panic::resume_unwind(p),
                    }
                }
                results
            });
            match joined {
                Ok(r) => r,
                Err(p) => std::panic::resume_unwind(p),
            }
        };

        let coord = coord.into_inner();
        match coord.failure {
            Some(Incident::Panic(p)) => std::panic::resume_unwind(p),
            Some(Incident::Error(e)) => return Err(e),
            None => {}
        }

        let mut stats = RunStats::default();
        for tally in &results {
            stats.absorb(&tally.stats);
        }
        stats.rounds = coord.rounds;
        stats.charged_rounds = coord.charged;
        stats.churn_events = stats.churn_events.saturating_add(coord.churn_events);
        let trace = coord.trace.map(|prologue| {
            let mut buffers = vec![prologue];
            buffers.extend(results.into_iter().map(|t| t.trace.unwrap_or_default()));
            merge_traces(&buffers)
        });
        self.record_run(&stats);
        let sessions = arenas.iter().flat_map(|a| a.protos.iter().map(Protocol::session)).collect();
        Ok(RunOutcome {
            outputs: arenas
                .into_iter()
                .flat_map(|a| a.protos.into_iter().map(Protocol::into_output))
                .collect(),
            stats,
            sessions,
            trace,
        })
    }
}

/// One worker's whole run: computes its shard every round, then
/// synchronizes on the two round barriers (worker 0 coordinating in
/// between). Returns the worker's statistics partial and trace buffer.
#[allow(clippy::too_many_arguments)]
fn run_worker<'g, P, F>(
    t: usize,
    arena: &mut ShardArena<P>,
    sh: &Shared<'_, P::Msg>,
    bufs: &[SlotBuf<P::Msg>; 2],
    barrier: &Barrier,
    done: &AtomicBool,
    coord: &Mutex<Coord>,
    incidents: &Mutex<Vec<(NodeId, Incident)>>,
    net: &Network<'g>,
    make: &F,
    trace_on: bool,
) -> Tally
where
    P: Protocol + Send,
    F: Fn(NodeId, &dyn Topology) -> P + Sync,
{
    let ShardArena { base, protos: protos_t, rngs: rngs_t, halted: halted_t } = arena;
    let base = *base;
    let Wire { graph, config, plan, run_id, .. } = sh.wire;
    let mut local = WorkerLocal {
        tally: Tally::new(trace_on),
        round_frames: 0,
        outbox: Vec::new(),
        sent: vec![false; graph.max_degree()],
        inbox: Vec::new(),
        fault: None,
        integrity: Integrity::default(),
        tele_prev: TeleSnapshot::default(),
    };
    let mut round = 0usize;
    loop {
        let cur = &bufs[round % 2];
        let nxt = &bufs[(round + 1) % 2];
        for i in 0..protos_t.len() {
            let v = base + i;
            // The node's step this round, decided exactly as in the
            // sequential sweep: `start` runs `on_start` instead of
            // `on_round`, and `reboot` first replaces the node with a
            // fresh instance whose randomness stream is salted apart from
            // its first boot.
            let (start, reboot) = if round == 0 {
                if !plan.node_present0[v] {
                    // Absent at round 0: silent until it joins (if ever).
                    halted_t[i] = true;
                    sh.halted_count.fetch_add(1, Ordering::SeqCst);
                    sh.halted_pub[v].store(true, Ordering::Relaxed);
                    continue;
                }
                (true, None)
            } else if plan.node(v).leave == Some(round) {
                // Permanent leave: silent, like a crash that never
                // recovers — but also absent from the topology.
                drain_node(sh, cur, v, round, None);
                if !halted_t[i] {
                    sh.halted_count.fetch_add(1, Ordering::SeqCst);
                }
                halted_t[i] = true;
                local.tally.stats.churn_events = local.tally.stats.churn_events.saturating_add(1);
                local.tally.record(TraceEvent::Churn { round, kind: ChurnKind::Leave { node: v } });
                continue;
            } else if plan.node(v).join == Some(round) {
                drain_node(sh, cur, v, round, None);
                local.tally.stats.churn_events = local.tally.stats.churn_events.saturating_add(1);
                local.tally.record(TraceEvent::Churn { round, kind: ChurnKind::Join { node: v } });
                (true, Some(0x1099))
            } else {
                if plan.node(v).crash == Some(round) && !halted_t[i] {
                    halted_t[i] = true; // crash-stop: silent, mid-protocol
                    sh.halted_count.fetch_add(1, Ordering::SeqCst);
                    local.tally.record(TraceEvent::Fault {
                        round,
                        kind: FaultKind::Crash,
                        node: v,
                        peer: None,
                    });
                }
                if plan.node(v).recovery == Some(round) {
                    drain_node(sh, cur, v, round, None);
                    local.tally.record(TraceEvent::Fault {
                        round,
                        kind: FaultKind::Recover,
                        node: v,
                        peer: None,
                    });
                    (true, Some(0xB007))
                } else if halted_t[i] {
                    drain_node(sh, cur, v, round, None);
                    continue;
                } else {
                    local.inbox.clear();
                    drain_node(sh, cur, v, round, Some(&mut local.inbox));
                    (false, None)
                }
            };
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(salt) = reboot {
                    protos_t[i] = make(v, graph);
                    rngs_t[i] = rng::node_rng(config.seed ^ salt, run_id, v);
                    if halted_t[i] {
                        sh.halted_count.fetch_sub(1, Ordering::SeqCst);
                    }
                    halted_t[i] = false;
                }
                let mut ctx = Context {
                    node: v,
                    round,
                    graph,
                    rng: &mut rngs_t[i],
                    outbox: &mut local.outbox,
                    sent: &mut local.sent,
                    halted: &mut halted_t[i],
                    fault: &mut local.fault,
                    integrity: &mut local.integrity,
                    wake: 0,
                };
                if start {
                    protos_t[i].on_start(&mut ctx);
                } else {
                    protos_t[i].on_round(&mut ctx, &local.inbox);
                }
                flush_to_slots(v, round, &mut local, sh, nxt);
                if halted_t[i] {
                    // A rebooted node that halts straight out of
                    // `on_start` records no halt event.
                    if reboot.is_none() {
                        local.tally.record(TraceEvent::Halt { round, node: v });
                    }
                    sh.halted_count.fetch_add(1, Ordering::SeqCst);
                    if round == 0 {
                        sh.halted_pub[v].store(true, Ordering::Relaxed);
                    }
                }
            }));
            if report_incident(v, res, &mut local.fault, incidents) {
                break; // the coordinator ends the run at this barrier
            }
        }
        sh.round_frames.fetch_add(local.round_frames, Ordering::SeqCst);
        local.round_frames = 0;
        sh.round_max_bits.fetch_max(local.tally.round_max_bits, Ordering::SeqCst);
        local.tally.round_max_bits = 0;
        if let Some(tele) = &sh.telemetry {
            tele.publish(
                TeleSnapshot::of(&local.tally.stats, &local.integrity),
                &mut local.tele_prev,
            );
        }
        barrier.wait();
        if t == 0 {
            coordinate(round, sh, nxt, coord, incidents, done, net);
        }
        barrier.wait();
        if done.load(Ordering::SeqCst) {
            break;
        }
        round += 1;
    }
    // Integrity reports fold into the worker's stats partial; the sums
    // commute across workers, so the merged totals equal the sequential
    // engine's single-accumulator fold.
    local.integrity.fold_into(&mut local.tally.stats);
    local.tally
}

/// Files a per-node incident: a panic out of protocol code, or the
/// protocol error the node's context recorded. Returns whether the
/// worker should stop processing its shard this round.
fn report_incident(
    v: NodeId,
    res: Result<(), Box<dyn std::any::Any + Send + 'static>>,
    fault: &mut Option<SimError>,
    incidents: &Mutex<Vec<(NodeId, Incident)>>,
) -> bool {
    match res {
        Ok(()) => {
            if let Some(err) = fault.take() {
                incidents.lock().push((v, Incident::Error(err)));
                true
            } else {
                false
            }
        }
        Err(p) => {
            incidents.lock().push((v, Incident::Panic(p)));
            true
        }
    }
}

/// Worker 0's exclusive round-boundary window (between the two
/// barriers): reproduces the sequential engine's loop head — incident
/// collection, round accounting, the all-halted / quiescence /
/// round-limit checks — and applies the next round's edge-churn events.
#[allow(clippy::too_many_arguments)]
fn coordinate<M>(
    round: usize,
    sh: &Shared<'_, M>,
    nxt: &SlotBuf<M>,
    coord: &Mutex<Coord>,
    incidents: &Mutex<Vec<(NodeId, Incident)>>,
    done: &AtomicBool,
    net: &Network<'_>,
) {
    let mut c = coord.lock();
    let mut inc = incidents.lock();
    if !inc.is_empty() {
        // The sequential engine stops at the first incident in node
        // order; with one incident per node and per-round collection,
        // that is the minimum node id of this (earliest) round.
        inc.sort_by_key(|&(v, _)| v);
        let (_, first) = inc.remove(0);
        c.failure = Some(first);
        done.store(true, Ordering::SeqCst);
        return;
    }
    drop(inc);
    c.rounds += 1;
    let rmb = sh.round_max_bits.swap(0, Ordering::SeqCst);
    c.charged = c.charged.saturating_add(net.charge(rmb));
    let frames = sh.round_frames.swap(0, Ordering::SeqCst);
    // Stream this round's cumulative sample before any end-of-run
    // decision: the sequential engine samples at the end of every
    // executed round, and checks the stop conditions only at the head of
    // the next one. Worker deltas happened-before via the first barrier;
    // edge-churn events live in `c.churn_events` and are counted here
    // *before* round r+1's events are applied below — exactly the
    // counter state the sequential engine samples after round r.
    if let Some(tele) = &sh.telemetry {
        let stats = RunStats {
            messages: tele.messages.load(Ordering::SeqCst),
            retransmissions: tele.retransmissions.load(Ordering::SeqCst),
            heartbeats: tele.heartbeats.load(Ordering::SeqCst),
            maintenance: tele.maintenance.load(Ordering::SeqCst),
            churn_events: tele.churn_events.load(Ordering::SeqCst).saturating_add(c.churn_events),
            churn_drops: tele.churn_drops.load(Ordering::SeqCst),
            ..RunStats::default()
        };
        let integrity = Integrity {
            rejected: tele.rejected.load(Ordering::SeqCst),
            quarantined: tele.quarantined.load(Ordering::SeqCst),
            suspected: tele.suspected.load(Ordering::SeqCst),
            outstanding: tele.outstanding.load(Ordering::SeqCst),
        };
        net.sample_round(sh.wire.run_id, round, &stats, &integrity);
    }
    let hc = sh.halted_count.load(Ordering::SeqCst);
    if hc == sh.n && round >= sh.wire.plan.last_wake {
        done.store(true, Ordering::SeqCst);
        return;
    }
    if let Some(k) = sh.wire.config.quiescence {
        let quiet_now = if round == 0 {
            // The sequential loop head after round 0 trivially passes its
            // frames check (the baseline was just initialized), so the
            // binding condition is "nothing in flight": no pending
            // duplicates/reorders and no *delivered* slot. A slot written
            // to a node that halted during round 0 counts as delivered
            // only if the sender ran before the halt (sender id < node) —
            // exactly what the sequential halted-receiver gate saw.
            let mut next_empty = true;
            let ports = sh.wire.ports;
            'scan: for u in 0..sh.n {
                for i in ports.range(u) {
                    // SAFETY: between the barriers no worker touches the
                    // buffers; worker 0 is the sole accessor.
                    if unsafe { nxt.occupied(i) } {
                        let (s, _) = ports.peer[i];
                        if !sh.halted_pub[u].load(Ordering::Relaxed) || u > s {
                            next_empty = false;
                            break 'scan;
                        }
                    }
                }
            }
            next_empty && sh.pending_count.load(Ordering::SeqCst) == 0
        } else {
            frames == 0 && sh.pending_count.load(Ordering::SeqCst) == 0
        };
        if quiet_now {
            c.quiet += 1;
            if c.quiet >= k && round >= sh.wire.plan.last_wake {
                done.store(true, Ordering::SeqCst); // message-driven protocols are done
                return;
            }
        } else {
            c.quiet = 0;
        }
    }
    if round >= sh.wire.config.max_rounds {
        c.failure = Some(Incident::Error(SimError::RoundLimitExceeded {
            limit: sh.wire.config.max_rounds,
            running: sh.n - hc,
        }));
        done.store(true, Ordering::SeqCst);
        return;
    }
    // Apply round r+1's edge events before anyone executes it — the
    // sequential engine's round prologue, hoisted into the barrier
    // window.
    while c.edge_event_idx < sh.wire.plan.edge_events.len()
        && sh.wire.plan.edge_events[c.edge_event_idx].round == round + 1
    {
        let ev = sh.wire.plan.edge_events[c.edge_event_idx];
        c.edge_event_idx += 1;
        match ev.kind {
            ChurnKind::EdgeUp { edge } => sh.edge_present[edge].store(true, Ordering::Relaxed),
            ChurnKind::EdgeDown { edge } => sh.edge_present[edge].store(false, Ordering::Relaxed),
            ChurnKind::Join { .. } | ChurnKind::Leave { .. } => unreachable!(),
        }
        c.churn_events += 1;
        if let Some(trace) = c.trace.as_mut() {
            trace.record(TraceEvent::Churn { round: round + 1, kind: ev.kind });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SimConfig;
    use dam_graph::generators;
    use rand::{RngExt, SeedableRng};

    /// A protocol exercising randomness, message flow and variable halting:
    /// nodes gossip random values for `rounds` rounds and remember the sum.
    struct Gossip {
        acc: u64,
        rounds: usize,
    }

    impl Protocol for Gossip {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            let x: u64 = ctx.rng().random_range(0..1000);
            self.acc = x;
            ctx.broadcast(x);
        }

        fn on_round(&mut self, ctx: &mut Context<'_, u64>, inbox: &[(Port, u64)]) {
            for &(_, x) in inbox {
                self.acc = self.acc.wrapping_mul(31).wrapping_add(x);
            }
            if ctx.round() >= self.rounds + ctx.id() % 3 {
                ctx.halt();
            } else {
                ctx.broadcast(self.acc % 1000);
            }
        }

        fn into_output(self) -> u64 {
            self.acc
        }
    }

    #[test]
    fn parallel_sink_stream_matches_sequential() {
        use crate::engine::{FaultPlan, Squall};
        use crate::telemetry::{RecordingSink, SinkHandle};
        use std::sync::Arc;
        let mut seed_rng = rand::rngs::StdRng::seed_from_u64(77);
        let g = generators::gnp(40, 0.15, &mut seed_rng);
        let plan = FaultPlan::lossy(0.1).with_squall(Squall {
            from_round: 2,
            until_round: 5,
            loss: 0.4,
            corrupt: 0.0,
        });
        let record = |threads: usize| {
            let sink = Arc::new(RecordingSink::new());
            let cfg = SimConfig::local().seed(3).max_rounds(5_000).threads(threads);
            let mut net = Network::new(&g, cfg);
            net.set_stats_sink(Some(SinkHandle::from(Arc::clone(&sink))));
            let spec = RunSpec { faults: &plan, ..RunSpec::default() };
            let out = net.execute(|_, _| Gossip { acc: 0, rounds: 6 }, &spec).unwrap();
            (out, sink.samples())
        };
        let (seq_out, seq_samples) = record(1);
        assert_eq!(seq_samples.len() as u64, seq_out.stats.rounds);
        for t in [2, 4, 7] {
            let (par_out, par_samples) = record(t);
            assert_eq!(par_out.outputs, seq_out.outputs);
            assert_eq!(par_out.stats, seq_out.stats);
            assert_eq!(par_samples, seq_samples, "telemetry stream diverges at {t} threads");
        }
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let mut seed_rng = rand::rngs::StdRng::seed_from_u64(10);
        for trial in 0..5 {
            let g = generators::gnp(40, 0.15, &mut seed_rng);
            let run_seq = {
                let mut net = Network::new(&g, SimConfig::local().seed(trial));
                net.run(|_, _| Gossip { acc: 0, rounds: 6 }).unwrap()
            };
            for threads in [1, 2, 4, 7] {
                let mut net = Network::new(&g, SimConfig::local().seed(trial).threads(threads));
                let run_par =
                    net.execute(|_, _| Gossip { acc: 0, rounds: 6 }, &RunSpec::default()).unwrap();
                assert_eq!(run_seq.outputs, run_par.outputs, "trial {trial}, {threads} threads");
                assert_eq!(run_seq.stats, run_par.stats, "trial {trial}, {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_traces_match_sequential() {
        let mut seed_rng = rand::rngs::StdRng::seed_from_u64(77);
        let g = generators::gnp(24, 0.2, &mut seed_rng);
        let spec = RunSpec { trace: true, ..RunSpec::default() };
        let traced =
            |cfg| Network::new(&g, cfg).execute(|_, _| Gossip { acc: 0, rounds: 5 }, &spec);
        let seq = traced(SimConfig::congest(64).seed(5)).unwrap();
        let par = traced(SimConfig::congest(64).seed(5).threads(4)).unwrap();
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.stats, par.stats);
        assert_eq!(seq.trace.unwrap().events(), par.trace.unwrap().events());
    }

    #[test]
    fn parallel_round_limit() {
        struct Forever;
        impl Protocol for Forever {
            type Msg = ();
            type Output = ();
            fn on_round(&mut self, _: &mut Context<'_, ()>, _: &[(Port, ())]) {}
            fn into_output(self) {}
        }
        let g = generators::path(6);
        let mut net = Network::new(&g, SimConfig::local().max_rounds(8).threads(3));
        let err = net.execute(|_, _| Forever, &RunSpec::default()).unwrap_err();
        assert!(matches!(err, SimError::RoundLimitExceeded { limit: 8, .. }));
    }

    #[test]
    fn parallel_duplicate_send_reports_first_node() {
        struct DoubleSend;
        impl Protocol for DoubleSend {
            type Msg = u8;
            type Output = ();
            fn on_round(&mut self, ctx: &mut Context<'_, u8>, _: &[(Port, u8)]) {
                if ctx.round() == 2 && ctx.id() >= 3 {
                    ctx.send(0, 1);
                    ctx.send(0, 2);
                }
            }
            fn into_output(self) {}
        }
        let g = generators::cycle(9);
        let seq_err = {
            let mut net = Network::new(&g, SimConfig::local());
            net.run(|_, _| DoubleSend).unwrap_err()
        };
        let mut net = Network::new(&g, SimConfig::local().threads(4));
        let par_err = net.execute(|_, _| DoubleSend, &RunSpec::default()).unwrap_err();
        assert_eq!(format!("{seq_err:?}"), format!("{par_err:?}"));
        assert!(matches!(par_err, SimError::DuplicateSend { node: 3, port: 0, round: 2 }));
    }

    #[test]
    fn execute_dispatches_on_config_threads() {
        let g = generators::cycle(12);
        let seq = {
            let mut net = Network::new(&g, SimConfig::local().seed(2));
            net.run(|_, _| Gossip { acc: 0, rounds: 4 }).unwrap()
        };
        let mut net = Network::new(&g, SimConfig::local().seed(2).threads(3));
        let par = net.execute(|_, _| Gossip { acc: 0, rounds: 4 }, &RunSpec::default()).unwrap();
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.stats, par.stats);
    }

    #[test]
    fn parallel_quiescence_matches_sequential() {
        /// Message-driven: forwards until a hop budget is spent, never
        /// halts voluntarily — only quiescence can end the run.
        struct Relay;
        impl Protocol for Relay {
            type Msg = u32;
            type Output = ();
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                if ctx.id() == 0 {
                    ctx.send(0, 6);
                }
            }
            fn on_round(&mut self, ctx: &mut Context<'_, u32>, inbox: &[(Port, u32)]) {
                for &(port, ttl) in inbox {
                    if ttl > 0 {
                        let out = if port == 0 { 1 } else { 0 };
                        ctx.send(out, ttl - 1);
                    }
                }
            }
            fn into_output(self) {}
        }
        let g = generators::cycle(8);
        let seq = {
            let mut net = Network::new(&g, SimConfig::local().quiesce_after(2));
            net.run(|_, _| Relay).unwrap()
        };
        let mut net = Network::new(&g, SimConfig::local().quiesce_after(2).threads(3));
        let par = net.execute(|_, _| Relay, &RunSpec::default()).unwrap();
        assert_eq!(seq.stats, par.stats);
    }
}
