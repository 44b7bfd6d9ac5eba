//! Asynchronous execution with an α-synchronizer.
//!
//! The paper assumes a synchronous network and remarks (footnote 2) that
//! this is *"without loss of generality (using, say, the α synchronizer
//! of Awerbuch (1985))"*. [`crate::Backend::Async`] makes that remark
//! executable: [`crate::Network::execute`] runs any protocol — bare, or
//! under fault plans, churn plans, resilient transports and the
//! `dam_core` runtime middleware — with every frame delayed by a
//! [`DelayModel`], behind an α-synchronizer. Protocol messages are
//! tagged with their round, a node sends an explicit empty marker on
//! every live port that carried no payload in a round, and a node
//! advances to round `r+1` only after hearing round-`r` traffic from
//! every neighbour that was active in round `r`. A halting node's last
//! round still sends, so its neighbours stop waiting for it; a
//! neighbour that had halted before a round waits for nothing, so it is
//! owed no marker in that round.
//!
//! Under the synchronizer, *message contents* are a function of the
//! round structure alone, and *timing* factors out into a per-node
//! virtual-clock recurrence
//!
//! ```text
//! t(v, 0) = 1
//! t(v, r) = max( t(v, r-1) + 1,
//!                max over active in-neighbours u of
//!                    t(u, r-1) + delay(u → v, r-1) )
//! ```
//!
//! The backend therefore executes the exact sequential payload pipeline
//! (same keyed randomness, same fault draws, same flush order) while
//! an `AsyncTiming` layer tracks the recurrence, counts the
//! synchronizer's empty-round markers into [`crate::RunStats::markers`]
//! and reports the makespan through [`crate::Network::async_info`].
//! Every other [`crate::RunStats`] field equals the synchronous run's,
//! so the synchronizer's price is the markers in messages and the
//! makespan in time; under [`DelayModel::Unit`] the makespan equals
//! [`crate::RunStats::rounds`]. When a [`crate::SimConfig::patience`]
//! budget is set, the layer also drops frames that resolve later than
//! `t(v, r-1) + patience` at their receiver. With no patience budget
//! the backend is bit-identical to the synchronous engines (the
//! `async_equiv` differential suite enforces this); with one, late
//! frames are lost, which is exactly the surface the timing adversary in
//! `bench::adversary` attacks.

use std::collections::HashSet;

use dam_graph::{BitSet, EdgeId, NodeId, Topology};

use crate::engine::PortTable;
use crate::model::DelayModel;
use crate::node::Port;

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
    /// Which nodes had halted before the round currently executing: no
    /// marker is owed to them, since they wait for nothing. A snapshot
    /// taken at the round boundary, so it does not depend on step order.
    gone: Vec<bool>,
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
            gone: vec![false; n],
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
    /// messages went through), that carried no payload and whose peer
    /// had not halted before this round owes a synchronizer marker, and
    /// the node counts as an active round-`r` sender its neighbours
    /// wait on.
    pub(crate) fn end_step(&mut self, v: NodeId, link_up: impl Fn(NodeId, EdgeId) -> bool) {
        for (p, i) in self.ports.range(v).enumerate() {
            let (u, e) = (self.ports.peer[i].0, self.ports.edge[i]);
            if !self.frame_ports[p] && !self.gone[u] && link_up(u, e) {
                self.markers = self.markers.saturating_add(1);
            }
        }
        self.active[v] = true;
    }

    /// Advances every virtual clock to round `round` from the frames
    /// sent in round `round - 1`, recording patience violations, and
    /// records which nodes have halted by now (`halted`).
    /// `edge_present` must still be the previous round's state (the
    /// engine calls this before applying the new round's edge events).
    pub(crate) fn advance(&mut self, round: usize, edge_present: &BitSet, halted: &BitSet) {
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
            self.gone[v] = halted[v];
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{RunOutcome, RunSpec};
    use crate::error::SimError;
    use crate::model::{Backend, SimConfig};
    use crate::node::{Context, Protocol};
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

    /// One `Gossip` run on the sequential engine.
    fn sync_run(g: &dyn Topology, seed: u64) -> RunOutcome<u64> {
        Network::new(g, SimConfig::local().seed(seed))
            .run(|_, _| Gossip { rounds: 6, acc: 0 })
            .unwrap()
    }

    /// One `Gossip` run on the asynchronous backend and its timing.
    fn async_run(g: &dyn Topology, seed: u64, delay: DelayModel) -> (RunOutcome<u64>, AsyncInfo) {
        let mut net =
            Network::new(g, SimConfig::local().seed(seed).backend(Backend::Async).delay(delay));
        let out = net.execute(|_, _| Gossip { rounds: 6, acc: 0 }, &RunSpec::default()).unwrap();
        (out, net.async_info().expect("async run records its timing"))
    }

    #[test]
    fn alpha_synchronizer_matches_synchronous_engine() {
        use rand::SeedableRng;
        let mut topo_rng = rand::rngs::StdRng::seed_from_u64(5);
        for trial in 0..4u64 {
            let g = generators::gnp(25, 0.18, &mut topo_rng);
            let expected = sync_run(&g, trial);
            for delays in [
                DelayModel::Unit,
                DelayModel::UniformRandom { max: 9 },
                DelayModel::UniformRandom { max: 40 },
                DelayModel::LinkSkew { spread: 7 },
            ] {
                let (out, _) = async_run(&g, trial, delays);
                assert_eq!(
                    out.outputs, expected.outputs,
                    "trial {trial}, {delays:?}: async run diverged from synchronous"
                );
                let mut stats = out.stats;
                stats.markers = 0;
                assert_eq!(stats, expected.stats, "trial {trial}, {delays:?}: stats");
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
        use rand::SeedableRng;
        let mut topo_rng = rand::rngs::StdRng::seed_from_u64(9);
        let g = generators::gnp(20, 0.2, &mut topo_rng);
        let seq = sync_run(&g, 3);
        for delay in [
            DelayModel::Unit,
            DelayModel::UniformRandom { max: 7 },
            DelayModel::Straggler { node: 2, slow: 11 },
            DelayModel::Burst { period: 3, width: 1, extra: 6 },
        ] {
            let (out, info) = async_run(&g, 3, delay);
            assert_eq!(out.outputs, seq.outputs, "{delay:?}: payload divergence");
            assert_eq!(out.stats.rounds, seq.stats.rounds);
            assert_eq!(out.stats.messages, seq.stats.messages);
            assert!(out.stats.markers > 0, "silent ports must cost markers");
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
        assert_eq!(info_c.timing_drops, 0, "patience ≥ 2·bound absorbs the straggler");
        assert_eq!(c, sync_run(&g, 5).outputs);
    }

    #[test]
    fn marker_overhead_is_accounted() {
        let g = generators::cycle(8);
        let (out, info) = async_run(&g, 1, DelayModel::UniformRandom { max: 5 });
        assert!(out.stats.markers > 0, "silent rounds must cost markers");
        assert!(out.stats.messages > 0);
        assert!(info.makespan > 0);
    }

    #[test]
    fn unit_delays_take_one_time_unit_per_round() {
        // Under `Unit` every frame takes one unit, so the recurrence
        // collapses to t(v, r) = t(v, r-1) + 1 = r + 1 for every node,
        // and the last round, r = rounds - 1, completes at `rounds`.
        use rand::SeedableRng;
        let mut topo_rng = rand::rngs::StdRng::seed_from_u64(2);
        let edgeless = dam_graph::Graph::builder(5).build().unwrap();
        let graphs = [
            generators::gnp(40, 0.1, &mut topo_rng),
            generators::gnp(40, 0.05, &mut topo_rng),
            generators::cycle(9),
            edgeless,
        ];
        for (i, g) in graphs.iter().enumerate() {
            let (out, info) = async_run(g, i as u64, DelayModel::Unit);
            assert_eq!(info.makespan, out.stats.rounds, "graph {i}");
        }
    }

    /// Every node pings its neighbours in round 0 and halts in round
    /// `stop[v]`, silent in between.
    struct Ping {
        stop: usize,
    }

    impl Protocol for Ping {
        type Msg = ();
        type Output = ();
        fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
            ctx.broadcast(());
        }
        fn on_round(&mut self, ctx: &mut Context<'_, ()>, _: &[(Port, ())]) {
            if ctx.round() >= self.stop {
                ctx.halt();
            }
        }
        fn into_output(self) {}
    }

    #[test]
    fn straggler_on_a_path_by_hand() {
        // path(3): 0 - 1 - 2, node 1 sends with delay 5, everything else
        // with delay 1; nodes 0 and 1 halt in round 2, node 2 in round 3.
        // Round 0 completes at t = 1 everywhere, and
        //   t(v, r) = max(t(v, r-1) + 1, max_u t(u, r-1) + delay(u → v))
        // over the neighbours u that stepped in round r - 1:
        //   r = 1: t0 = max(2, 1 + 5) = 6, t1 = max(2, 1 + 1, 1 + 1) = 2,
        //          t2 = max(2, 1 + 5) = 6;
        //   r = 2: t0 = max(7, 2 + 5) = 7, t1 = max(3, 6 + 1, 6 + 1) = 7,
        //          t2 = max(7, 2 + 5) = 7;
        //   r = 3: t0 = max(8, 7 + 5) = 12, t1 = max(8, 7 + 1, 7 + 1) = 8,
        //          t2 = max(8, 7 + 5) = 12 (node 1's final marker, sent
        //          in round 2, is what node 2 waits for),
        // so the makespan is 12. Markers: round 0 has a payload on all 4
        // ports; rounds 1 and 2 send none, so all 4 ports carry a marker
        // each round; in round 3 only node 2 steps, and its one
        // neighbour halted in round 2, so it is owed no marker: 8.
        let g = generators::path(3);
        let delay = DelayModel::Straggler { node: 1, slow: 5 };
        let mut net = Network::new(&g, SimConfig::local().backend(Backend::Async).delay(delay));
        let out = net
            .execute(|v, _| Ping { stop: if v == 2 { 3 } else { 2 } }, &RunSpec::default())
            .unwrap();
        assert_eq!(out.stats.rounds, 4);
        assert_eq!(out.stats.messages, 4);
        assert_eq!(out.stats.markers, 8);
        let info = net.async_info().unwrap();
        assert_eq!((info.makespan, info.markers, info.timing_drops), (12, 8, 0));
    }

    #[test]
    fn isolated_and_empty_graphs() {
        for n in [3, 0] {
            let g = dam_graph::Graph::builder(n).build().unwrap();
            let mut net = Network::new(&g, SimConfig::local().backend(Backend::Async));
            let out =
                net.execute(|_, _| Gossip { rounds: 2, acc: 0 }, &RunSpec::default()).unwrap();
            assert_eq!(out.outputs.len(), n);
            // No ports, no markers.
            assert_eq!(out.stats.markers, 0, "n = {n}");
            assert!(net.async_info().is_some(), "n = {n}");
        }
    }

    #[test]
    fn round_guard_fires_on_the_async_backend() {
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
        let cfg = SimConfig::local().max_rounds(50).backend(Backend::Async);
        let err = Network::new(&g, cfg).execute(|_, _| Forever, &RunSpec::default()).unwrap_err();
        assert!(matches!(err, SimError::RoundLimitExceeded { limit: 50, running: 4 }), "{err:?}");
    }
}
