//! Asynchronous execution with an α-synchronizer.
//!
//! The paper assumes a synchronous network and remarks (footnote 2) that
//! this is *"without loss of generality (using, say, the α synchronizer
//! of Awerbuch (1985))"*. This module makes that remark executable:
//!
//! * [`AsyncNetwork`] is an event-driven executor — messages arrive after
//!   arbitrary (randomized) delays, there are no rounds;
//! * every node is wrapped in an α-synchronizer shim: protocol messages
//!   are tagged with their round, every node sends its neighbours an
//!   explicit (possibly empty) round marker each round, and a node
//!   advances to round `r+1` only after hearing round-`r` traffic from
//!   every live neighbour. Halting nodes announce a final marker so
//!   neighbours stop waiting for them.
//!
//! The observable behaviour is **identical** to the synchronous engine:
//! each node sees the same per-round inboxes and consumes the same
//! random stream, so `run_async` returns bit-identical outputs to
//! [`crate::Network::run`] for any protocol and any delay distribution —
//! which is exactly what the test suite asserts. The price is message
//! overhead (the empty markers), reported in [`AsyncStats`].
//!
//! # The asynchronous engine backend
//!
//! [`crate::Backend::Async`] promotes the same contract to the full
//! hardened pipeline: [`crate::Network::execute`] with fault plans,
//! churn plans, resilient transports and the `dam_core` runtime
//! middleware. The synchronizer contract is what
//! makes this sound: under the α-synchronizer, *message contents* are a
//! function of the round structure alone, and *timing* factors out into
//! a per-node virtual-clock recurrence
//!
//! ```text
//! t(v, r) = max( t(v, r-1) + 1,
//!                max over active in-neighbours u of
//!                    t(u, r-1) + delay(u → v, r-1) )
//! ```
//!
//! The backend therefore executes the exact sequential payload pipeline
//! (same keyed randomness, same fault draws, same flush order) while
//! an `AsyncTiming` layer tracks the recurrence, counts the synchronizer's
//! empty-round markers into [`crate::RunStats::markers`], and — when a
//! [`crate::SimConfig::patience`] budget is set — drops frames that
//! resolve later than `t(v, r-1) + patience` at their receiver. With no
//! patience budget the backend is bit-identical to the synchronous
//! engines (the `async_equiv` differential suite enforces this); with
//! one, late frames are lost, which is exactly the surface the timing
//! adversary in `bench::adversary` attacks.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use dam_graph::{BitSet, EdgeId, NodeId, Topology};
use rand::rngs::StdRng;

use crate::engine::PortTable;
use crate::error::SimError;
use crate::message::BitSize;
use crate::model::DelayModel;
use crate::node::{Context, Port, Protocol};
use crate::rng;
use crate::stats::Integrity;

/// How many rounds a patience-drop record stays queryable: duplicated
/// copies trail their frame by 2 rounds and reordered copies by at most
/// `1 + 3`, so 8 rounds of history is comfortably past every consumer.
const DROP_HISTORY_ROUNDS: usize = 8;

/// Virtual-time accounting of one [`crate::Backend::Async`] run,
/// available after the run through [`crate::Network::async_info`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AsyncInfo {
    /// Virtual time at which the last node completed its last round.
    pub makespan: u64,
    /// Synchronizer markers sent (also folded into
    /// [`crate::RunStats::markers`]).
    pub markers: u64,
    /// Frames dropped because they resolved after the receiver's
    /// patience deadline (0 when [`crate::SimConfig::patience`] is
    /// unset — the bit-identical regime).
    pub timing_drops: u64,
}

/// The virtual-time layer of the asynchronous backend.
///
/// Owned by `Network::run_impl` when running under
/// [`crate::Backend::Async`]; see the module docs for the recurrence it
/// tracks. It reads peers and edge ids from the network's port table.
pub(crate) struct AsyncTiming<'a> {
    ports: &'a PortTable,
    delay: DelayModel,
    patience: Option<u64>,
    seed: u64,
    run: u64,
    /// `t[v]`: virtual completion time of `v`'s most recent round.
    t: Vec<u64>,
    /// Scratch for the two-pass clock update.
    t_next: Vec<u64>,
    /// Which nodes flushed (sent a frame on every present port) in the
    /// round currently executing.
    active: Vec<bool>,
    /// Scratch, indexed by port: did the current step's flush put a
    /// payload on this port?
    frame_ports: Vec<bool>,
    /// `(sender, receiver, send round)` of frames past their patience
    /// deadline; pruned after [`DROP_HISTORY_ROUNDS`].
    dropped: HashSet<(NodeId, NodeId, usize)>,
    markers: u64,
    makespan: u64,
    timing_drops: u64,
}

impl<'a> AsyncTiming<'a> {
    pub(crate) fn new(
        graph: &dyn Topology,
        ports: &'a PortTable,
        delay: DelayModel,
        patience: Option<u64>,
        seed: u64,
        run: u64,
    ) -> AsyncTiming<'a> {
        let n = graph.node_count();
        AsyncTiming {
            ports,
            delay,
            patience,
            seed,
            run,
            // Round 0 completes after one unit of local work everywhere.
            t: vec![1; n],
            t_next: Vec::with_capacity(n),
            active: vec![false; n],
            frame_ports: vec![false; graph.max_degree()],
            dropped: HashSet::new(),
            markers: 0,
            makespan: u64::from(n > 0),
            timing_drops: 0,
        }
    }

    /// Called by `flush` before draining a step's outbox.
    pub(crate) fn begin_step(&mut self, v: NodeId) {
        self.frame_ports[..self.ports.range(v).len()].fill(false);
    }

    /// Called by `flush` for every message that found a live channel:
    /// the frame on this port carries a payload, so no marker is owed.
    pub(crate) fn note_frame(&mut self, port: Port) {
        self.frame_ports[port] = true;
    }

    /// Called by `flush` after draining a step's outbox: every port
    /// whose link is up (`link_up(peer, edge)`, the gate the step's
    /// messages went through) and that carried no payload owes a
    /// synchronizer marker, and the node counts as an active round-`r`
    /// sender its neighbours wait on.
    pub(crate) fn end_step(&mut self, v: NodeId, link_up: impl Fn(NodeId, EdgeId) -> bool) {
        for (p, i) in self.ports.range(v).enumerate() {
            let (u, e) = (self.ports.peer[i].0, self.ports.edge[i]);
            if link_up(u, e) && !self.frame_ports[p] {
                self.markers = self.markers.saturating_add(1);
            }
        }
        self.active[v] = true;
    }

    /// Advances every virtual clock to round `round` from the frames
    /// sent in round `round - 1`, recording patience violations.
    /// `edge_present` must still be the previous round's state (the
    /// engine calls this before applying the new round's edge events).
    pub(crate) fn advance(&mut self, round: usize, edge_present: &BitSet) {
        let send_round = (round - 1) as u64;
        if self.patience.is_some() && round > DROP_HISTORY_ROUNDS {
            self.dropped.retain(|&(_, _, sr)| sr + DROP_HISTORY_ROUNDS >= round);
        }
        self.t_next.clear();
        for v in 0..self.t.len() {
            let prev = self.t[v];
            // A round costs at least one unit of local work, which also
            // keeps dormant (halted/absent) clocks ticking — they skip
            // rounds through the synchronizer's reboot path, one unit
            // per skipped round.
            let mut tv = prev.saturating_add(1);
            let deadline = self.patience.map(|p| prev.saturating_add(p.max(1)));
            let mut any_late = false;
            for i in self.ports.range(v) {
                let (u, e) = (self.ports.peer[i].0, self.ports.edge[i]);
                if !self.active[u] || !edge_present[e] {
                    // No frame to wait for: the sender is dormant (its
                    // "last" announcement resolves the slot) or the link
                    // was down when it sent.
                    continue;
                }
                let a = self.t[u]
                    .saturating_add(self.delay.delay(self.seed, self.run, send_round, u, v));
                match deadline {
                    Some(d) if a > d => {
                        any_late = true;
                        self.dropped.insert((u, v, round - 1));
                    }
                    _ => tv = tv.max(a),
                }
            }
            if let (true, Some(d)) = (any_late, deadline) {
                // The receiver waited out its full patience budget.
                tv = tv.max(d);
            }
            self.t_next.push(tv);
        }
        std::mem::swap(&mut self.t, &mut self.t_next);
        for a in &mut self.active {
            *a = false;
        }
        self.makespan = self.makespan.max(self.t.iter().copied().max().unwrap_or(0));
    }

    /// Was the frame `sender → receiver` of `send_round` dropped for
    /// arriving past the receiver's patience deadline?
    pub(crate) fn is_dropped(&self, sender: NodeId, receiver: NodeId, send_round: usize) -> bool {
        self.patience.is_some() && self.dropped.contains(&(sender, receiver, send_round))
    }

    pub(crate) fn count_timing_drops(&mut self, n: u64) {
        self.timing_drops = self.timing_drops.saturating_add(n);
    }

    pub(crate) fn finish(self) -> AsyncInfo {
        AsyncInfo {
            makespan: self.makespan.max(self.t.iter().copied().max().unwrap_or(0)),
            markers: self.markers,
            timing_drops: self.timing_drops,
        }
    }
}

/// Cost accounting of an asynchronous run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AsyncStats {
    /// Protocol (payload-carrying) messages delivered.
    pub payload_messages: u64,
    /// Empty synchronizer markers delivered — the α-synchronizer's
    /// overhead.
    pub marker_messages: u64,
    /// Total payload bits.
    pub payload_bits: u64,
    /// Virtual time of the last delivery.
    pub makespan: u64,
    /// Highest synchronizer round reached by any node.
    pub max_round: usize,
}

/// The α-synchronizer wrapper around one protocol instance.
struct SyncNode<P: Protocol> {
    proto: P,
    rng: StdRng,
    round: usize,
    halted: bool,
    announced_halt: bool,
    /// Buffered payloads per pending round (`round + i` for slot `i`).
    buffers: Vec<Vec<(Port, P::Msg)>>,
    /// Per-round marker counts from each neighbour.
    heard: Vec<Vec<bool>>,
    /// Per neighbour port: the last round it will ever send (if halted).
    done_after: Vec<Option<usize>>,
}

/// A wrapped wire message: a round-tagged (possibly empty) payload.
/// `last` marks the sender's final round — it halts and will never send
/// again, so the receiver must not wait for later rounds from it.
struct WireMsg<M> {
    round: usize,
    payload: Option<M>,
    last: bool,
}

/// An event in the executor's queue (ordering lives in the heap key).
struct Event<M> {
    to: NodeId,
    port: Port,
    msg: WireMsg<M>,
}

/// Event-driven asynchronous executor.
///
/// See the module docs; construct with [`AsyncNetwork::new`], execute
/// with [`AsyncNetwork::run_async`].
pub struct AsyncNetwork<'g> {
    graph: &'g dyn Topology,
    seed: u64,
    /// Safety bound on processed events.
    max_events: u64,
}

impl<'g> AsyncNetwork<'g> {
    /// An asynchronous network over `graph` (any [`Topology`]; a
    /// `&Graph` coerces at the call site).
    #[must_use]
    pub fn new(graph: &'g dyn Topology, seed: u64) -> AsyncNetwork<'g> {
        AsyncNetwork { graph, seed, max_events: 200_000_000 }
    }

    /// Overrides the event-count safety bound.
    #[must_use]
    pub fn max_events(mut self, max: u64) -> AsyncNetwork<'g> {
        self.max_events = max;
        self
    }

    /// Runs `make`'s protocol under asynchronous delivery with the given
    /// delay model. Outputs are bit-identical to the synchronous
    /// [`crate::Network::run`] with the same seed.
    ///
    /// # Errors
    /// [`SimError::RoundLimitExceeded`] (re-used as an event-budget
    /// guard) if the event bound is exhausted, plus protocol faults.
    #[allow(clippy::too_many_lines)]
    pub fn run_async<P, F>(
        &self,
        mut make: F,
        delays: DelayModel,
    ) -> Result<(Vec<P::Output>, AsyncStats), SimError>
    where
        P: Protocol,
        F: FnMut(NodeId, &dyn Topology) -> P,
    {
        let g = self.graph;
        let n = g.node_count();
        let mut nodes: Vec<SyncNode<P>> = (0..n)
            .map(|v| SyncNode {
                proto: make(v, g),
                rng: rng::node_rng(self.seed, 0, v),
                round: 0,
                halted: false,
                announced_halt: false,
                buffers: Vec::new(),
                heard: Vec::new(),
                done_after: vec![None; g.degree(v)],
            })
            .collect();

        let mut queue: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
        let mut events: Vec<Option<Event<P::Msg>>> = Vec::new();
        let mut seq = 0u64;
        let mut stats = AsyncStats::default();
        let mut fault: Option<SimError> = None;
        // Integrity reports are accepted (the Context API is uniform)
        // but AsyncStats does not break them out.
        let mut integrity = Integrity::default();

        // Round-0 sends: run on_start everywhere, then wrap its outbox.
        let mut outbox: Vec<(Port, P::Msg)> = Vec::new();
        let mut sent = vec![false; g.max_degree()];
        for (v, node) in nodes.iter_mut().enumerate() {
            let mut ctx = Context {
                node: v,
                round: 0,
                graph: g,
                rng: &mut node.rng,
                outbox: &mut outbox,
                sent: &mut sent,
                halted: &mut node.halted,
                fault: &mut fault,
                integrity: &mut integrity,
                wake: 0,
            };
            node.proto.on_start(&mut ctx);
            if let Some(err) = fault.take() {
                return Err(err);
            }
            Self::dispatch_round(
                g,
                v,
                0,
                node.halted,
                &mut node.announced_halt,
                &mut outbox,
                &mut sent,
                &mut queue,
                &mut events,
                &mut seq,
                self.seed,
                delays,
                0,
            );
        }

        // Degree-0 nodes receive no events: free-run their timer rounds.
        let mut free_run = 0u64;
        for (v, node) in nodes.iter_mut().enumerate() {
            if g.degree(v) > 0 {
                continue;
            }
            while !node.halted {
                free_run += 1;
                if free_run > self.max_events {
                    return Err(SimError::RoundLimitExceeded {
                        limit: self.max_events as usize,
                        running: 1,
                    });
                }
                node.round += 1;
                let round = node.round;
                let mut ctx = Context {
                    node: v,
                    round,
                    graph: g,
                    rng: &mut node.rng,
                    outbox: &mut outbox,
                    sent: &mut sent,
                    halted: &mut node.halted,
                    fault: &mut fault,
                    integrity: &mut integrity,
                    wake: 0,
                };
                node.proto.on_round(&mut ctx, &[]);
                if let Some(err) = fault.take() {
                    return Err(err);
                }
                outbox.clear();
            }
        }

        let mut processed = 0u64;
        while let Some(Reverse((time, _, idx))) = queue.pop() {
            processed += 1;
            if processed > self.max_events {
                return Err(SimError::RoundLimitExceeded {
                    limit: self.max_events as usize,
                    running: nodes.iter().filter(|s| !s.halted).count(),
                });
            }
            let event = events[idx].take().expect("event fired once");
            stats.makespan = stats.makespan.max(time);
            let v = event.to;
            let node = &mut nodes[v];
            if node.halted {
                continue;
            }
            // File the message into the right round slot.
            let WireMsg { round: ev_round, payload, last } = event.msg;
            debug_assert!(ev_round >= node.round, "messages from the past are impossible");
            let slot = ev_round - node.round;
            while node.buffers.len() <= slot {
                node.buffers.push(Vec::new());
                node.heard.push(vec![false; g.degree(v)]);
            }
            if let Some(m) = payload {
                stats.payload_messages += 1;
                stats.payload_bits += m.bit_size() as u64;
                node.buffers[slot].push((event.port, m));
            } else {
                stats.marker_messages += 1;
            }
            node.heard[slot][event.port] = true;
            if last {
                node.done_after[event.port] = Some(ev_round);
            }

            // Advance while the current round's tag is fully heard: each
            // port either delivered its tagged message for this round or
            // is past its sender's final round. When every neighbour is
            // past-done the node free-runs (timer-only rounds) until it
            // halts itself.
            loop {
                processed += 1;
                if processed > self.max_events {
                    return Err(SimError::RoundLimitExceeded {
                        limit: self.max_events as usize,
                        running: 1,
                    });
                }
                let deg = g.degree(v);
                let tag = node.round;
                let past_done = |p: usize| node.done_after[p].is_some_and(|r| tag > r);
                let current_ready = if node.buffers.is_empty() {
                    (0..deg).all(past_done)
                } else {
                    (0..deg).all(|p| node.heard[0][p] || past_done(p))
                };
                if !current_ready {
                    break;
                }
                if node.buffers.is_empty() {
                    node.buffers.push(Vec::new());
                    node.heard.push(vec![false; deg]);
                }
                let mut inbox = node.buffers.remove(0);
                node.heard.remove(0);
                inbox.sort_by_key(|&(p, _)| p);
                node.round += 1;
                stats.max_round = stats.max_round.max(node.round);
                let round = node.round;
                let mut ctx = Context {
                    node: v,
                    round,
                    graph: g,
                    rng: &mut node.rng,
                    outbox: &mut outbox,
                    sent: &mut sent,
                    halted: &mut node.halted,
                    fault: &mut fault,
                    integrity: &mut integrity,
                    wake: 0,
                };
                node.proto.on_round(&mut ctx, &inbox);
                if let Some(err) = fault.take() {
                    return Err(err);
                }
                let halted = node.halted;
                Self::dispatch_round(
                    g,
                    v,
                    round,
                    halted,
                    &mut node.announced_halt,
                    &mut outbox,
                    &mut sent,
                    &mut queue,
                    &mut events,
                    &mut seq,
                    self.seed,
                    delays,
                    time,
                );
                if halted {
                    break;
                }
            }
        }

        let outputs = nodes.into_iter().map(|s| s.proto.into_output()).collect();
        Ok((outputs, stats))
    }

    /// Wraps a round's outbox into wire messages: payloads where the
    /// protocol sent, markers elsewhere, goodbyes on halt.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_round<M>(
        g: &dyn Topology,
        v: NodeId,
        round: usize,
        halted: bool,
        announced_halt: &mut bool,
        outbox: &mut Vec<(Port, M)>,
        sent: &mut [bool],
        queue: &mut BinaryHeap<Reverse<(u64, u64, usize)>>,
        events: &mut Vec<Option<Event<M>>>,
        seq: &mut u64,
        seed: u64,
        delays: DelayModel,
        now: u64,
    ) {
        let mut payloads: Vec<Option<M>> = (0..g.degree(v)).map(|_| None).collect();
        for (port, msg) in outbox.drain(..) {
            sent[port] = false;
            payloads[port] = Some(msg);
        }
        if *announced_halt {
            debug_assert!(payloads.iter().all(Option::is_none), "halted nodes stay silent");
            return;
        }
        for (port, payload) in payloads.into_iter().enumerate() {
            let (u, q) = peer_of(g, v, port);
            let msg = WireMsg { round, payload, last: halted };
            // Delays are pure keyed functions of the frame coordinates
            // (see `DelayModel::delay`), so the schedule is independent
            // of the event-processing order. The standalone executor is
            // always "run 0".
            let delay = delays.delay(seed, 0, round as u64, v, u);
            let idx = events.len();
            events.push(Some(Event { to: u, port: q, msg }));
            queue.push(Reverse((now + delay, *seq, idx)));
            *seq += 1;
        }
        if halted {
            *announced_halt = true;
        }
    }
}

/// The `(neighbour, remote port)` behind `(v, port)` (computed on the
/// fly; the synchronous engine precomputes the same mapping).
fn peer_of(g: &dyn Topology, v: NodeId, port: Port) -> (NodeId, Port) {
    let (u, e) = g.port(v, port);
    let q = g.port_of_edge(u, e).expect("edge is incident to both endpoints");
    (u, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SimConfig;
    use crate::Network;
    use dam_graph::generators;

    /// Deterministic multi-round protocol with data-dependent traffic.
    struct Gossip {
        rounds: usize,
        acc: u64,
    }

    impl Protocol for Gossip {
        type Msg = u64;
        type Output = u64;
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            self.acc = ctx.id() as u64;
            ctx.broadcast(self.acc);
        }
        fn on_round(&mut self, ctx: &mut Context<'_, u64>, inbox: &[(Port, u64)]) {
            for &(p, x) in inbox {
                self.acc = self.acc.wrapping_mul(31).wrapping_add(x ^ p as u64);
            }
            if ctx.round() >= self.rounds + ctx.id() % 4 {
                ctx.halt();
            } else if !self.acc.is_multiple_of(3) {
                // Data-dependent partial sends: some ports stay silent,
                // which the synchronizer must paper over with markers.
                for p in ctx.ports() {
                    if (self.acc >> p) & 1 == 1 {
                        ctx.send(p, self.acc);
                    }
                }
            }
        }
        fn into_output(self) -> u64 {
            self.acc
        }
    }

    fn sync_outputs(g: &dam_graph::Graph, seed: u64) -> Vec<u64> {
        Network::new(g, SimConfig::local().seed(seed))
            .run(|_, _| Gossip { rounds: 6, acc: 0 })
            .unwrap()
            .outputs
    }

    #[test]
    fn alpha_synchronizer_matches_synchronous_engine() {
        use rand::SeedableRng;
        let mut topo_rng = rand::rngs::StdRng::seed_from_u64(5);
        for trial in 0..4u64 {
            let g = generators::gnp(25, 0.18, &mut topo_rng);
            let expected = sync_outputs(&g, trial);
            for delays in [
                DelayModel::Unit,
                DelayModel::UniformRandom { max: 9 },
                DelayModel::UniformRandom { max: 40 },
                DelayModel::LinkSkew { spread: 7 },
            ] {
                let (outputs, stats) = AsyncNetwork::new(&g, trial)
                    .run_async(|_, _| Gossip { rounds: 6, acc: 0 }, delays)
                    .unwrap();
                assert_eq!(
                    outputs, expected,
                    "trial {trial}, {delays:?}: async run diverged from synchronous"
                );
                assert!(stats.max_round > 0);
            }
        }
    }

    #[test]
    fn link_skew_is_direction_asymmetric() {
        // Regression: the skew used to hash the *unordered* pair, so the
        // two directions of every edge drew the same delay and
        // antiparallel traffic stayed secretly in lockstep.
        let model = DelayModel::LinkSkew { spread: 1 << 20 };
        let mut asymmetric = 0;
        for (u, v) in [(0usize, 1usize), (2, 9), (3, 17), (5, 6), (100, 4071)] {
            let fwd = model.delay(0, 0, 0, u, v);
            let rev = model.delay(0, 0, 0, v, u);
            // Per-direction delays are fixed (replayable, round-blind)...
            assert_eq!(fwd, model.delay(0, 0, 7, u, v));
            assert_eq!(rev, model.delay(0, 0, 7, v, u));
            // ... and in range.
            assert!(fwd >= 1 && rev >= 1);
            if fwd != rev {
                asymmetric += 1;
            }
        }
        assert!(
            asymmetric >= 4,
            "with a 2^20 spread, hashed directions must almost surely differ ({asymmetric}/5)"
        );
    }

    #[test]
    fn backend_matches_sequential_and_accounts_markers() {
        use crate::engine::RunSpec;
        use crate::model::Backend;
        use rand::SeedableRng;
        let mut topo_rng = rand::rngs::StdRng::seed_from_u64(9);
        let g = generators::gnp(20, 0.2, &mut topo_rng);
        let seq = Network::new(&g, SimConfig::local().seed(3))
            .run(|_, _| Gossip { rounds: 6, acc: 0 })
            .unwrap();
        for delay in [
            DelayModel::Unit,
            DelayModel::UniformRandom { max: 7 },
            DelayModel::Straggler { node: 2, slow: 11 },
            DelayModel::Burst { period: 3, width: 1, extra: 6 },
        ] {
            let cfg = SimConfig::local().seed(3).backend(Backend::Async).delay(delay);
            let mut net = Network::new(&g, cfg);
            let out =
                net.execute(|_, _| Gossip { rounds: 6, acc: 0 }, &RunSpec::default()).unwrap();
            assert_eq!(out.outputs, seq.outputs, "{delay:?}: payload divergence");
            assert_eq!(out.stats.rounds, seq.stats.rounds);
            assert_eq!(out.stats.messages, seq.stats.messages);
            assert!(out.stats.markers > 0, "silent ports must cost markers");
            let info = net.async_info().expect("async run records its timing");
            assert_eq!(info.markers, out.stats.markers);
            assert_eq!(info.timing_drops, 0, "no patience budget, no drops");
            assert!(
                info.makespan >= out.stats.rounds,
                "a round costs at least one unit ({delay:?})"
            );
            if delay != DelayModel::Unit {
                assert!(info.makespan > out.stats.rounds, "{delay:?} must stretch the schedule");
            }
        }
    }

    #[test]
    fn patience_drops_straggler_frames_deterministically() {
        use crate::engine::RunSpec;
        use crate::model::Backend;
        use rand::SeedableRng;
        let mut topo_rng = rand::rngs::StdRng::seed_from_u64(4);
        let g = generators::gnp(16, 0.3, &mut topo_rng);
        let cfg = SimConfig::local()
            .seed(5)
            .backend(Backend::Async)
            .delay(DelayModel::Straggler { node: 0, slow: 12 })
            .patience(2);
        let run = |cfg| {
            let mut net = Network::new(&g, cfg);
            let out =
                net.execute(|_, _| Gossip { rounds: 6, acc: 0 }, &RunSpec::default()).unwrap();
            (out.outputs, net.async_info().unwrap())
        };
        let (a, info_a) = run(cfg);
        let (b, info_b) = run(cfg);
        assert!(info_a.timing_drops > 0, "a 12-unit straggler must blow a 2-unit patience");
        assert_eq!(a, b, "timing drops are a deterministic function of the config");
        assert_eq!(info_a, info_b);
        // A patience budget derived from the declared delay bound keeps
        // every frame: bit-identity is restored.
        let bound = DelayModel::Straggler { node: 0, slow: 12 }.bound();
        let (c, info_c) = run(cfg.patience(2 * bound));
        let seq = Network::new(&g, SimConfig::local().seed(5))
            .run(|_, _| Gossip { rounds: 6, acc: 0 })
            .unwrap();
        assert_eq!(info_c.timing_drops, 0, "patience ≥ 2·bound absorbs the straggler");
        assert_eq!(c, seq.outputs);
    }

    #[test]
    fn marker_overhead_is_accounted() {
        let g = generators::cycle(8);
        let (_, stats) = AsyncNetwork::new(&g, 1)
            .run_async(|_, _| Gossip { rounds: 6, acc: 0 }, DelayModel::UniformRandom { max: 5 })
            .unwrap();
        assert!(stats.marker_messages > 0, "silent rounds must cost markers");
        assert!(stats.payload_messages > 0);
        assert!(stats.makespan > 0);
    }

    #[test]
    fn isolated_and_empty_graphs() {
        let g = dam_graph::Graph::builder(3).build().unwrap();
        let (outputs, _) = AsyncNetwork::new(&g, 0)
            .run_async(|_, _| Gossip { rounds: 2, acc: 0 }, DelayModel::Unit)
            .unwrap();
        assert_eq!(outputs.len(), 3);
    }

    #[test]
    fn event_budget_guards() {
        struct Forever;
        impl Protocol for Forever {
            type Msg = ();
            type Output = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.broadcast(());
            }
            fn on_round(&mut self, ctx: &mut Context<'_, ()>, _: &[(Port, ())]) {
                ctx.broadcast(());
            }
            fn into_output(self) {}
        }
        let g = generators::cycle(4);
        let err = AsyncNetwork::new(&g, 0)
            .max_events(500)
            .run_async(|_, _| Forever, DelayModel::Unit)
            .unwrap_err();
        assert!(matches!(err, SimError::RoundLimitExceeded { .. }));
    }
}
