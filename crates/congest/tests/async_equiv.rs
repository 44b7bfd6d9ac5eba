//! Differential suite: the asynchronous engine backend must reproduce
//! the sequential engine **bit-identically** — outputs, statistics and
//! trace streams, event for event — for every algorithm, across seeds,
//! across fault and churn schedules, under every adversarial delay
//! model.
//!
//! This is the proof obligation behind the α-synchronizer contract
//! ([`dam_congest::Backend::Async`]): with an unbounded patience budget
//! the virtual-time schedule reorders *when* messages arrive but never
//! *what* arrives, so drivers may flip the backend knob without
//! re-validating their algorithms. The only permitted divergence is
//! [`dam_congest::RunStats::markers`] — synchronizer control traffic the
//! synchronous engines never emit.

use std::sync::Arc;

use dam_congest::{
    AdaptivePolicy, Backend, ChurnKind, ChurnPlan, Context, DelayModel, FaultPlan, Network, Port,
    Protocol, RecordingSink, Resilient, RunOutcome, RunSpec, SimConfig, SinkHandle, Trace,
    TransportCfg,
};
use dam_core::israeli_itai::IiNode;
use dam_core::luby::LubyNode;
use dam_graph::{generators, Graph, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEEDS: u64 = 16;

/// One delay model per adversarial shape: the degenerate synchronous
/// schedule, i.i.d. jitter, per-direction link skew, a single straggler
/// node, and heartbeat-aligned delay bursts.
const DELAYS: [DelayModel; 5] = [
    DelayModel::Unit,
    DelayModel::UniformRandom { max: 7 },
    DelayModel::LinkSkew { spread: 5 },
    DelayModel::Straggler { node: 5, slow: 9 },
    DelayModel::Burst { period: 4, width: 2, extra: 6 },
];

/// E15-style hostile schedule: background message faults plus crash /
/// recovery, scaled to a ~40-node graph (mirrors `parallel_equiv.rs`).
fn fault_plan() -> FaultPlan {
    FaultPlan {
        loss: 0.12,
        dup: 0.06,
        reorder: 0.1,
        crashes: vec![(3, 2), (11, 4)],
        recoveries: vec![(11, 9)],
        ..FaultPlan::default()
    }
}

/// E16-style churn schedule: absent joiner, a leaver, edge flaps.
fn churn_plan() -> ChurnPlan {
    ChurnPlan::default()
        .with_absent_nodes(vec![7])
        .with_event(2, ChurnKind::EdgeDown { edge: 1 })
        .with_event(3, ChurnKind::Join { node: 7 })
        .with_event(5, ChurnKind::Leave { node: 9 })
        .with_event(6, ChurnKind::EdgeUp { edge: 1 })
}

/// Mild message faults that are valid alongside [`churn_plan`].
fn churn_faults() -> FaultPlan {
    FaultPlan { loss: 0.08, dup: 0.04, reorder: 0.05, ..FaultPlan::default() }
}

/// Runs `make` on both engines under one `(faults, churn)` schedule and
/// asserts bit-identical results for every delay model in [`DELAYS`]:
/// identical outputs, stats (modulo the async engine's marker counter)
/// and trace streams on success, the identical error when the schedule
/// makes the protocol non-terminating — the error path is part of the
/// backend contract too. The patience budget stays unbounded here, so
/// the delay model must be *inert* on payloads: it only stretches the
/// virtual clock.
fn assert_equivalent<P, F>(
    g: &Graph,
    config: SimConfig,
    faults: &FaultPlan,
    churn: &ChurnPlan,
    make: F,
) where
    P: Protocol + Send,
    P::Output: PartialEq + std::fmt::Debug,
    F: Fn(usize, &dyn Topology) -> P + Sync + Copy,
{
    let spec = RunSpec { faults, churn, trace: true };
    let seq = Network::new(g, config).execute(make, &spec);
    for delay in DELAYS {
        let mut net = Network::new(g, config.backend(Backend::Async).delay(delay));
        let asy = net.execute(make, &spec);
        match (&seq, &asy) {
            (Ok(so), Ok(ao)) => {
                let (st, at) = (trace_of(so), trace_of(ao));
                assert_eq!(so.outputs, ao.outputs, "outputs diverge under {delay:?}");
                let mut stats = ao.stats;
                assert!(stats.markers > 0, "async run must account synchronizer markers");
                stats.markers = 0;
                assert_eq!(so.stats, stats, "stats diverge under {delay:?}");
                assert_eq!(st.events(), at.events(), "trace streams diverge under {delay:?}");
                let info = net.async_info().expect("async run records timing info");
                assert_eq!(info.timing_drops, 0, "unbounded patience must never drop");
                assert!(
                    info.makespan >= ao.stats.rounds,
                    "virtual time cannot run ahead of the round clock"
                );
            }
            (Err(se), Err(ae)) => {
                assert_eq!(format!("{se:?}"), format!("{ae:?}"), "errors diverge under {delay:?}");
            }
            (s, a) => panic!(
                "termination diverges under {delay:?}: sequential {}, async {}",
                if s.is_ok() { "succeeded" } else { "failed" },
                if a.is_ok() { "succeeded" } else { "failed" },
            ),
        }
    }
}

fn trace_of<O>(out: &RunOutcome<O>) -> &Trace {
    out.trace.as_ref().expect("a traced run returns its trace")
}

fn graph_for(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
    generators::gnp(40, 0.15, &mut rng)
}

#[test]
fn israeli_itai_fault_free() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 4).seed(seed);
        assert_equivalent(&g, cfg, &FaultPlan::default(), &ChurnPlan::default(), |v, graph| {
            IiNode::new(graph.degree(v))
        });
    }
}

/// Israeli–Itai over the resilient transport under the E15 schedule:
/// the transport's silence timers (backoff, heartbeats, suspicion) run
/// on the round clock, so the synchronizer must keep them honest even
/// when virtual link delays stretch the schedule.
#[test]
fn israeli_itai_under_faults() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 8).seed(seed).max_rounds(2_000);
        assert_equivalent(&g, cfg, &fault_plan(), &ChurnPlan::default(), |v, graph| {
            Resilient::new(IiNode::new(graph.degree(v)), TransportCfg::default())
        });
    }
}

/// E17-style integrity schedule: corruption plus Byzantine equivocators
/// — the keyed tamper streams must replay identically off the barrier.
fn integrity_plan() -> FaultPlan {
    FaultPlan {
        loss: 0.08,
        dup: 0.04,
        reorder: 0.06,
        corrupt: 0.1,
        crashes: vec![(3, 2)],
        equivocators: vec![6, 17],
        liars: vec![9], // engine-validated; applied by output-aware callers
        ..FaultPlan::default()
    }
}

#[test]
fn israeli_itai_under_corruption_and_equivocation() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 8).seed(seed).max_rounds(2_000);
        assert_equivalent(&g, cfg, &integrity_plan(), &ChurnPlan::default(), |v, graph| {
            Resilient::new(IiNode::new(graph.degree(v)), TransportCfg::default())
        });
    }
}

#[test]
fn israeli_itai_under_churn() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 8).seed(seed).max_rounds(2_000);
        assert_equivalent(&g, cfg, &churn_faults(), &churn_plan(), |v, graph| {
            Resilient::new(IiNode::new(graph.degree(v)), TransportCfg::default())
        });
    }
}

#[test]
fn luby_mis_fault_free() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 4).seed(seed);
        assert_equivalent(&g, cfg, &FaultPlan::default(), &ChurnPlan::default(), |v, graph| {
            LubyNode::new(graph.degree(v))
        });
    }
}

#[test]
fn luby_mis_under_faults() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 4).seed(seed).max_rounds(400);
        assert_equivalent(&g, cfg, &fault_plan(), &ChurnPlan::default(), |v, graph| {
            LubyNode::new(graph.degree(v))
        });
    }
}

#[test]
fn luby_mis_under_churn() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 4).seed(seed).max_rounds(400);
        assert_equivalent(&g, cfg, &churn_faults(), &churn_plan(), |v, graph| {
            LubyNode::new(graph.degree(v))
        });
    }
}

/// Driver-level equivalence: the full multi-phase bipartite Algorithm 2
/// produces the identical matching and identical cumulative statistics
/// (modulo markers) whether its phases run on the sequential or the
/// asynchronous engine.
#[test]
fn bipartite_driver_equivalence() {
    use dam_core::{run_mm, Bipartite, RuntimeConfig};
    let mut rng = StdRng::seed_from_u64(1234);
    for seed in 0..SEEDS {
        let g = generators::bipartite_gnp(18, 18, 0.2, &mut rng);
        for k in [2usize, 3] {
            let algo = Bipartite { k, ..Bipartite::default() };
            let sim = SimConfig::congest_for(g.node_count(), 4).seed(seed);
            let seq = run_mm(&algo, &g, &RuntimeConfig::new().sim(sim))
                .expect("sequential driver failed");
            let asy = run_mm(&algo, &g, &RuntimeConfig::new().sim(sim.backend(Backend::Async)))
                .expect("async driver failed");
            assert_eq!(seq.matching, asy.matching, "matching diverges (seed {seed}, k {k})");
            let mut stats = asy.totals;
            assert!(stats.stats.markers > 0);
            stats.stats.markers = 0;
            assert_eq!(seq.totals, stats, "stats diverge (seed {seed}, k {k})");
            assert_eq!(seq.iterations, asy.iterations);
        }
    }
}

/// Driver-level equivalence for the weighted Algorithm 5 (gain rounds,
/// black-box δ-MWM, wrap application — three protocols per iteration).
#[test]
fn weighted_driver_equivalence() {
    use dam_core::{run_mm, RuntimeConfig, Weighted};
    use dam_graph::weights::{randomize_weights, WeightDist};
    let mut rng = StdRng::seed_from_u64(4321);
    for seed in 0..SEEDS {
        let base_g = generators::gnp(30, 0.15, &mut rng);
        let g = randomize_weights(&base_g, WeightDist::Uniform { lo: 0.1, hi: 10.0 }, &mut rng);
        let algo = Weighted { eps: 0.1, ..Weighted::default() };
        let sim = SimConfig::congest_for(g.node_count(), 8).seed(seed);
        let seq =
            run_mm(&algo, &g, &RuntimeConfig::new().sim(sim)).expect("sequential driver failed");
        let asy = run_mm(&algo, &g, &RuntimeConfig::new().sim(sim.backend(Backend::Async)))
            .expect("async driver failed");
        assert_eq!(seq.matching, asy.matching, "matching diverges (seed {seed})");
        let mut stats = asy.totals;
        assert!(stats.stats.markers > 0);
        stats.stats.markers = 0;
        assert_eq!(seq.totals, stats, "stats diverge (seed {seed})");
    }
}

/// A chatty protocol with staggered voluntary halts: stresses the
/// round-0 asymmetry, late joiners re-running `on_start`, and pending
/// FIFO ordering under a heavy combined fault + churn schedule.
struct Chatter {
    acc: u64,
    halt_round: usize,
}

impl Protocol for Chatter {
    type Msg = u64;
    type Output = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        self.acc = ctx.id() as u64;
        if ctx.id().is_multiple_of(4) {
            ctx.halt(); // halts during round 0: the hardest quiescence case
        } else {
            ctx.broadcast(self.acc);
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_, u64>, inbox: &[(Port, u64)]) {
        for &(p, x) in inbox {
            self.acc = self.acc.wrapping_mul(37).wrapping_add(x ^ p as u64);
        }
        if ctx.round() >= self.halt_round {
            ctx.halt();
        } else {
            ctx.broadcast(self.acc & 0xFFFF);
        }
    }

    fn into_output(self) -> u64 {
        self.acc
    }
}

#[test]
fn chatter_under_heavy_combined_schedule() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 4).seed(seed).max_rounds(200);
        let faults = FaultPlan {
            loss: 0.2,
            dup: 0.1,
            reorder: 0.15,
            crashes: vec![(2, 3), (5, 5)],
            recoveries: vec![(2, 8)],
            ..FaultPlan::default()
        };
        let churn = ChurnPlan::default()
            .with_absent_nodes(vec![12])
            .with_event(2, ChurnKind::EdgeDown { edge: 0 })
            .with_event(4, ChurnKind::Join { node: 12 })
            .with_event(6, ChurnKind::Leave { node: 17 })
            .with_event(7, ChurnKind::EdgeUp { edge: 0 });
        assert_equivalent(&g, cfg, &faults, &churn, |v, _g| Chatter {
            acc: 0,
            halt_round: 6 + v % 5,
        });
    }
}

/// Quiescence-terminated message-driven protocol under churn: the
/// marker stream is control plane, so it must not keep a quiescent
/// network awake ([`dam_congest::RunStats::frames`] excludes markers).
#[test]
fn quiescent_relay_equivalence() {
    struct Relay;
    impl Protocol for Relay {
        type Msg = u32;
        type Output = u32;
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if ctx.id().is_multiple_of(5) {
                ctx.broadcast(8);
            }
        }
        fn on_round(&mut self, ctx: &mut Context<'_, u32>, inbox: &[(Port, u32)]) {
            for &(p, ttl) in inbox {
                if ttl > 0 {
                    let next = (p + 1) % ctx.degree();
                    ctx.send(next, ttl - 1);
                }
            }
        }
        fn into_output(self) -> u32 {
            0
        }
    }
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::local().seed(seed).quiesce_after(2).max_rounds(500);
        assert_equivalent(&g, cfg, &churn_faults(), &churn_plan(), |_, _g| Relay);
    }
}

/// Telemetry non-perturbation on the asynchronous engine: attaching a
/// recording sink must leave outputs, statistics and trace streams
/// bit-identical, while the recorded series tracks the engine's round
/// clock (one cumulative sample per executed round).
#[test]
fn async_sink_observes_without_perturbing() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 8)
            .seed(seed)
            .max_rounds(2_000)
            .backend(Backend::Async)
            .delay(DelayModel::UniformRandom { max: 5 });
        let make = |v: usize, graph: &dyn Topology| {
            Resilient::new(IiNode::new(graph.degree(v)), TransportCfg::default())
        };
        let faults = fault_plan();
        let spec = RunSpec { faults: &faults, trace: true, ..RunSpec::default() };
        let bare = Network::new(&g, cfg).execute(make, &spec);
        let sink = Arc::new(RecordingSink::new());
        let tapped = {
            let mut net = Network::new(&g, cfg);
            net.set_stats_sink(Some(SinkHandle::from(Arc::clone(&sink))));
            net.execute(make, &spec)
        };
        match (&bare, &tapped) {
            (Ok(bo), Ok(to)) => {
                let (bt, tt) = (trace_of(bo), trace_of(to));
                assert_eq!(bo.outputs, to.outputs, "sink perturbed outputs (seed {seed})");
                assert_eq!(bo.stats, to.stats, "sink perturbed stats (seed {seed})");
                assert_eq!(bt.events(), tt.events(), "sink perturbed trace (seed {seed})");
                let samples = sink.samples();
                assert_eq!(samples.len() as u64, to.stats.rounds, "one sample per round");
                let last = samples.last().unwrap();
                assert_eq!(last.messages, to.stats.messages);
                assert_eq!(last.retransmissions, to.stats.retransmissions);
                assert!(
                    samples.windows(2).all(|w| w[0].messages <= w[1].messages),
                    "monotone series"
                );
            }
            (Err(be), Err(te)) => {
                // The error path must be untouched too, and the sink
                // still streamed every executed round.
                assert_eq!(format!("{be:?}"), format!("{te:?}"), "sink perturbed the error");
                assert!(sink.len() >= cfg.max_rounds, "the aborted run still streamed rounds");
            }
            _ => panic!("attaching a sink changed termination (seed {seed})"),
        }
    }
}

/// The adaptive transport on the asynchronous backend: the controller's
/// observations are node-local counters of a deterministic run, so
/// sequential and async engines must agree bit-for-bit (modulo markers)
/// exactly as they do for the static transport.
#[test]
fn adaptive_transport_async_equivalence() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 8).seed(seed).max_rounds(2_000);
        assert_equivalent(&g, cfg, &fault_plan(), &ChurnPlan::default(), |v, graph| {
            Resilient::with_policy(IiNode::new(graph.degree(v)), AdaptivePolicy::default())
        });
    }
}

/// The backend dispatcher itself: `execute` with `Backend::Async` must
/// route to the asynchronous engine (markers appear) and still agree
/// with an explicit sequential call.
#[test]
fn execute_dispatches_to_async() {
    let g = graph_for(3);
    let cfg = SimConfig::congest_for(g.node_count(), 8).seed(3).max_rounds(2_000);
    let make = |v: usize, graph: &dyn Topology| {
        Resilient::new(IiNode::new(graph.degree(v)), TransportCfg::default())
    };
    let faults = fault_plan();
    let spec = RunSpec { faults: &faults, trace: true, ..RunSpec::default() };
    let so = Network::new(&g, cfg).execute(make, &spec).unwrap();
    let mut net =
        Network::new(&g, cfg.backend(Backend::Async).delay(DelayModel::UniformRandom { max: 4 }));
    let ao = net.execute(make, &spec).unwrap();
    let (st, at) = (trace_of(&so), trace_of(&ao));
    assert_eq!(so.outputs, ao.outputs);
    assert_eq!(st.events(), at.events());
    assert!(ao.stats.markers > 0, "dispatch must reach the async engine");
    assert!(net.async_info().is_some());
}
