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
//!   flags outright (one arena per shard), so per-round computation needs no
//!   locks at all.
//! * **One node step, one delivery step.** Every node goes through the
//!   sequential engine's node step, `Sweep::step` (scheduled events,
//!   reboots, the protocol callback, the halt event), and every message
//!   through its per-message step, `Wire::send` (accounting, CONGEST
//!   budget, churn and partition gates, keyed fault draws). Only how
//!   mail is taken and written is sharded, and every node is stepped
//!   every round: the engine ignores sleep hints.
//! * **Slot delivery.** Both synchronous engines deliver into one slot
//!   per *directed* edge, laid out by the network's port table (slot
//!   `base[u] + q` for receiver `u`, port `q`), in two buffers that
//!   alternate by round parity: round `r` reads one and writes the
//!   other, and every node with mail drains all its slots in the round
//!   the mail arrives (halted nodes too). What the sharded engine adds is only the sharing: each
//!   slot has exactly one writer per round (the unique peer of that
//!   port), so slots are `UnsafeCell`s written without locks, and
//!   duplicated or reordered copies go to a mutexed FIFO per directed
//!   edge, allocated only when the plan can duplicate or reorder.
//! * **Determinism.** A node's behaviour depends only on its private RNG
//!   and its port-ordered inbox; fault injections are drawn from RNGs
//!   keyed on the message coordinates ([`crate::rng::fault_rng`]) and
//!   churn presence is evaluated through `RunPlan::present_seen`, so no
//!   observable quantity depends on thread scheduling.
//! * **Coordination.** Two barriers per round. Before the first, each
//!   worker publishes its report: its cumulative statistics and
//!   integrity counters, the round's widest message and its halted
//!   count. Between them, worker 0 alone ends the run at the round's
//!   first incident in node order, or else sums the reports and runs
//!   the sequential engine's own loop head, `LoopHead::end_round`
//!   (round accounting, the telemetry sample, the all-halted /
//!   quiescence / round-limit checks), then applies the next round's
//!   edge events to the shared presence table. The loop head's counts
//!   and edge events go to worker 0's own tally.

use std::cell::UnsafeCell;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Barrier;

use dam_graph::{EdgeId, NodeId, Topology};
use parking_lot::Mutex;

use crate::engine::{
    LoopHead, Mailroom, Network, NodeSlot, PortView, RoundEnd, Route, RunOutcome, RunPlan, RunSpec,
    Sweep, Tally, Wire,
};
use crate::error::SimError;
use crate::message::BitSize;
use crate::node::{Port, Protocol};
use crate::rng;
use crate::stats::RunStats;
use crate::trace::Trace;

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

/// Immutable-or-synchronized state every worker sees.
struct Shared<'a, M> {
    net: &'a Network<'a>,
    /// The run's delivery step, with the graph, config, plan and run id.
    wire: Wire<'a>,
    /// The slot buffers, read and written alternately by round parity.
    bufs: [SlotBuf<M>; 2],
    /// Per-directed-edge FIFO of `(delivery_round, payload)` for
    /// duplicated/reordered messages; empty unless the plan can
    /// duplicate or reorder. Single producer (the edge's sender), single
    /// consumer (the receiver), mutexed because they can touch it in the
    /// same round.
    fifos: Vec<Mutex<Vec<(usize, M)>>>,
    /// Edge presence under churn; written only by worker 0 between
    /// barriers, mirroring the sequential engine's round prologue.
    edge_present: Vec<AtomicBool>,
    /// Which nodes ended round 0 halted — feeds the round-0 scan for
    /// messages in flight.
    halted0: Vec<AtomicBool>,
    /// In-flight duplicated/reordered messages (the sequential engine's
    /// late-list count), for the quiescence check.
    pending_count: AtomicI64,
    /// Each worker's [`RoundEnd`] report of its shard, as of the end of
    /// its last round.
    reports: Vec<Mutex<RoundEnd>>,
    /// The round's failing nodes, each with its incident.
    incidents: Mutex<Vec<(NodeId, Incident)>>,
    barrier: Barrier,
    /// Set by worker 0 between the barriers when the run ends.
    done: AtomicBool,
    trace: bool,
}

impl<M> Shared<'_, M> {
    /// Queues a duplicated or reordered copy for `slot`, due in `due`.
    fn push_later(&self, slot: usize, due: usize, msg: M) {
        self.fifos[slot].lock().push((due, msg));
        self.pending_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether a message sent in round 0 was delivered: in a slot of a
    /// receiver that did not halt during round 0, or that halted after
    /// its sender ran (sender id < receiver) — exactly what the
    /// sequential engine's halted-receiver gate let through. Worker 0
    /// only, between the barriers.
    fn delivered_in_round_0(&self) -> bool {
        let ports = self.wire.ports;
        (0..self.halted0.len()).any(|u| {
            ports.range(u).any(|i| {
                // SAFETY: between the barriers no worker touches the
                // buffers; worker 0 is the sole accessor.
                let occupied = unsafe { self.bufs[1].occupied(i) };
                occupied && (!self.halted0[u].load(Ordering::Relaxed) || u > ports.peer[i].0)
            })
        })
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

/// The sharded engine's [`Mailroom`] for one round: the slot buffer the
/// round reads, the one it writes, and the shared FIFOs.
struct Slots<'s, M> {
    sh: &'s Shared<'s, M>,
    cur: &'s SlotBuf<M>,
    nxt: &'s SlotBuf<M>,
}

impl<M: BitSize + Clone> Mailroom<M> for Slots<'_, M> {
    /// Drains `v`'s current-buffer slots and its due FIFO copies: slot
    /// message first, then due copies in arrival order, port by port —
    /// the order of the sequential engine's `Mail::take`.
    fn take(&mut self, v: NodeId, round: usize, mut inbox: Option<&mut Vec<(Port, M)>>) {
        let sh = self.sh;
        let base = sh.wire.ports.base[v];
        for i in sh.wire.ports.range(v) {
            let q = i - base;
            // SAFETY: `v`'s worker is the unique reader of slot `(v, q)`
            // in the round-`round` buffer; its writer finished last round
            // (barrier-separated).
            if let Some(msg) = unsafe { self.cur.take(i) } {
                if let Some(inbox) = inbox.as_deref_mut() {
                    inbox.push((q, msg));
                }
            }
            if let Some(fifo) = sh.fifos.get(i) {
                let mut fifo = fifo.lock();
                let mut j = 0;
                while j < fifo.len() {
                    if fifo[j].0 == round {
                        let (_, msg) = fifo.remove(j);
                        sh.pending_count.fetch_sub(1, Ordering::Relaxed);
                        if let Some(inbox) = inbox.as_deref_mut() {
                            inbox.push((q, msg));
                        }
                    } else {
                        j += 1;
                    }
                }
            }
        }
    }

    /// A lock-free slot `put` for the next round, a FIFO push for
    /// duplicated and reordered copies.
    fn flush(
        &mut self,
        v: NodeId,
        round: usize,
        outbox: &mut Vec<(Port, M)>,
        sent: &mut [bool],
        tally: &mut Tally,
    ) {
        let sh = self.sh;
        let plan = sh.wire.plan;
        let keys = sh.wire.sender(round, v);
        let link_up = |u: NodeId, e: EdgeId| {
            sh.edge_present[e].load(Ordering::Relaxed) && plan.present_seen(u, round, v)
        };
        for (port, msg) in outbox.drain(..) {
            sent[port] = false;
            let Route::Arrive { u, q, due, msg, dup } =
                sh.wire.send(round, v, port, msg, &keys, tally, link_up)
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
            unsafe { self.nxt.put(slot, msg) };
        }
    }
}

/// Interleaves the workers' trace buffers in the sequential engine's
/// order: for each round, each worker's events in worker order. Workers
/// own contiguous ascending node ranges, so buffer order is node order,
/// and worker 0's buffer opens each round with the edge events its loop
/// head recorded for it.
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
        let total_slots = ports.len();
        let sh = Shared {
            net: self,
            wire: Wire::new(graph, config, &plan, run_id, ports),
            bufs: [SlotBuf::new(total_slots), SlotBuf::new(total_slots)],
            fifos: if plan.any_dup_or_reorder {
                (0..total_slots).map(|_| Mutex::new(Vec::new())).collect()
            } else {
                Vec::new()
            },
            edge_present: plan.edge_present0.iter().map(AtomicBool::new).collect(),
            halted0: (0..n).map(|_| AtomicBool::new(false)).collect(),
            pending_count: AtomicI64::new(0),
            reports: (0..workers).map(|_| Mutex::new(RoundEnd::default())).collect(),
            incidents: Mutex::new(Vec::new()),
            barrier: Barrier::new(workers),
            done: AtomicBool::new(false),
            trace: spec.trace,
        };

        let results = {
            let (sh, make) = (&sh, &make);
            let joined = crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = arenas
                    .iter_mut()
                    .enumerate()
                    .map(|(t, arena)| scope.spawn(move |_| run_worker(t, arena, sh, make)))
                    .collect();
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
        drop(sh);

        let mut stats = RunStats::default();
        let mut traces = Vec::with_capacity(workers);
        for result in results {
            match result {
                Ok(tally) => {
                    stats.absorb(&tally.stats);
                    traces.extend(tally.trace);
                }
                Err(Incident::Panic(p)) => std::panic::resume_unwind(p),
                Err(Incident::Error(e)) => return Err(e),
            }
        }
        let trace = spec.trace.then(|| merge_traces(&traces));
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

/// One worker's whole run: steps its shard every round through the
/// shared node step, publishes its report, then synchronizes on the two
/// round barriers (worker 0 coordinating in between). Returns the
/// worker's accounting, or for worker 0 the incident that failed the
/// run.
fn run_worker<P, F>(
    t: usize,
    arena: &mut ShardArena<P>,
    sh: &Shared<'_, P::Msg>,
    make: &F,
) -> Result<Tally, Incident>
where
    P: Protocol + Send,
    F: Fn(NodeId, &dyn Topology) -> P + Sync,
{
    let ShardArena { base, protos, rngs, halted } = arena;
    let base = *base;
    let mut make = make;
    let mut sweep = Sweep::new(&sh.wire, sh.trace);
    let mut head = LoopHead::new(sh.net, sh.wire.plan, sh.wire.run_id);
    let mut failure = None;
    let mut round = 0usize;
    loop {
        let mut slots = Slots { sh, cur: &sh.bufs[round % 2], nxt: &sh.bufs[(round + 1) % 2] };
        for i in 0..protos.len() {
            let v = base + i;
            let node = NodeSlot {
                id: v,
                proto: &mut protos[i],
                rng: &mut rngs[i],
                halted: &mut halted[i],
            };
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sweep.step(round, node, &mut make, &mut slots);
            }));
            let incident = match res {
                Ok(()) => sweep.fault.take().map(Incident::Error),
                Err(p) => Some(Incident::Panic(p)),
            };
            if let Some(incident) = incident {
                sh.incidents.lock().push((v, incident));
                break; // worker 0 ends the run at this barrier
            }
        }
        let shard_halted = halted.iter().filter(|&&h| h).count();
        *sh.reports[t].lock() = sweep.report(shard_halted, false);
        if round == 0 {
            for (i, &h) in halted.iter().enumerate() {
                sh.halted0[base + i].store(h, Ordering::Relaxed);
            }
        }
        sh.barrier.wait();
        if t == 0 {
            if let ControlFlow::Break(end) = coordinate(round, sh, &mut head, &mut sweep.tally) {
                failure = end;
                sh.done.store(true, Ordering::SeqCst);
            }
        }
        sh.barrier.wait();
        if sh.done.load(Ordering::SeqCst) {
            break;
        }
        round += 1;
    }
    match failure {
        Some(incident) => Err(incident),
        None => Ok(sweep.finish()),
    }
}

/// Worker 0's exclusive window between the two barriers. The round's
/// first incident in node order ends the run, as it would have ended
/// the sequential sweep. Otherwise the workers' reports, summed, go
/// through the sequential engine's loop head, and the next round's
/// edge events are applied to the shared presence table.
fn coordinate<M>(
    round: usize,
    sh: &Shared<'_, M>,
    head: &mut LoopHead<'_>,
    tally: &mut Tally,
) -> ControlFlow<Option<Incident>> {
    let mut incidents = sh.incidents.lock();
    // One incident per failing node, all from this (earliest) round.
    if let Some(first) = (0..incidents.len()).min_by_key(|&i| incidents[i].0) {
        return ControlFlow::Break(Some(incidents.swap_remove(first).1));
    }
    drop(incidents);
    let mut end = RoundEnd::default();
    for report in &sh.reports {
        end.absorb(&report.lock());
    }
    // The round's slots are in the buffer of the next round's parity;
    // after round 0 the loop head needs only the late copies.
    end.in_flight =
        sh.pending_count.load(Ordering::SeqCst) > 0 || (round == 0 && sh.delivered_in_round_0());
    match head.end_round(round, &end, tally) {
        ControlFlow::Break(err) => ControlFlow::Break(err.map(Incident::Error)),
        ControlFlow::Continue(flips) => {
            for (e, up) in flips {
                sh.edge_present[e].store(up, Ordering::Relaxed);
            }
            ControlFlow::Continue(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SimConfig;
    use crate::node::Context;
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
