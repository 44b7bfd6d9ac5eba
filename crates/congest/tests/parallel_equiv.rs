//! Differential suite: the sharded parallel engine must reproduce the
//! sequential engine **bit-identically** — outputs, statistics and trace
//! streams, event for event — for every algorithm, across seeds, across
//! fault and churn schedules, at every thread count.
//!
//! This is the proof obligation behind [`dam_congest::SimConfig::threads`]:
//! drivers may flip the knob without re-validating their algorithms.

use std::sync::Arc;

use dam_congest::{
    AdaptivePolicy, Backend, ChurnKind, ChurnPlan, Context, FaultPlan, Network, Port, Protocol,
    RecordingSink, Resilient, RunOutcome, RunSpec, SimConfig, SinkHandle, Trace, TransportCfg,
};
use dam_core::israeli_itai::IiNode;
use dam_core::luby::LubyNode;
use dam_graph::{generators, Graph, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEEDS: u64 = 16;
const THREADS: [usize; 3] = [2, 4, 7];

/// E15-style hostile schedule: background message faults plus crash /
/// recovery, scaled to a ~40-node graph.
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

/// E16-style churn schedule: absent joiner, a leaver, edge flaps — with
/// mild background loss riding along.
fn churn_plan() -> ChurnPlan {
    ChurnPlan::default()
        .with_absent_nodes(vec![7])
        .with_event(2, ChurnKind::EdgeDown { edge: 1 })
        .with_event(3, ChurnKind::Join { node: 7 })
        .with_event(5, ChurnKind::Leave { node: 9 })
        .with_event(6, ChurnKind::EdgeUp { edge: 1 })
}

/// Mild message faults that are valid alongside [`churn_plan`] (its
/// churned nodes must not appear in the fault plan).
fn churn_faults() -> FaultPlan {
    FaultPlan { loss: 0.08, dup: 0.04, reorder: 0.05, ..FaultPlan::default() }
}

/// Runs `make` on both engines under one `(faults, churn)` schedule and
/// asserts bit-identical results for every thread count in [`THREADS`]:
/// identical outputs, stats and trace streams on success, the identical
/// error when the schedule makes the protocol non-terminating (e.g. a
/// partner crash-stops and the round guard fires) — the error path is
/// part of the engine contract too.
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
    assert_equivalent_at(g, config, faults, churn, &THREADS, make);
}

/// [`assert_equivalent`] at the given sharded thread counts.
fn assert_equivalent_at<P, F>(
    g: &Graph,
    config: SimConfig,
    faults: &FaultPlan,
    churn: &ChurnPlan,
    thread_counts: &[usize],
    make: F,
) where
    P: Protocol + Send,
    P::Output: PartialEq + std::fmt::Debug,
    F: Fn(usize, &dyn Topology) -> P + Sync + Copy,
{
    let spec = RunSpec { faults, churn, trace: true };
    let seq = Network::new(g, config).execute(make, &spec);
    for &threads in thread_counts {
        let sharded = config.backend(Backend::Sharded).threads(threads);
        let par = Network::new(g, sharded).execute(make, &spec);
        match (&seq, &par) {
            (Ok(so), Ok(po)) => {
                let (st, pt) = (trace_of(so), trace_of(po));
                assert_eq!(so.outputs, po.outputs, "outputs diverge at {threads} threads");
                assert_eq!(so.stats, po.stats, "stats diverge at {threads} threads");
                assert_eq!(st.events(), pt.events(), "trace streams diverge at {threads} threads");
            }
            (Err(se), Err(pe)) => {
                assert_eq!(
                    format!("{se:?}"),
                    format!("{pe:?}"),
                    "errors diverge at {threads} threads"
                );
            }
            (s, p) => panic!(
                "termination diverges at {threads} threads: sequential {}, parallel {}",
                if s.is_ok() { "succeeded" } else { "failed" },
                if p.is_ok() { "succeeded" } else { "failed" },
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

/// Israeli–Itai assumes reliable channels (its handshake asserts that
/// every proposal is answered), so under message faults it rides the
/// resilient transport — exactly the E15 self-healing pipeline.
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

/// E17-style integrity schedule: message corruption plus Byzantine
/// equivocators layered on the background faults — the corruption and
/// tamper draws come from keyed per-(round, node, port) streams, so both
/// engines must replay them identically.
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
fn chatter_under_corruption_and_churn() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 4).seed(seed).max_rounds(300);
        let faults = FaultPlan { corrupt: 0.15, equivocators: vec![3], ..churn_faults() };
        assert_equivalent(&g, cfg, &faults, &churn_plan(), |v, _g| Chatter {
            acc: 0,
            halt_round: 6 + v % 5,
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
/// whether its phases run sequentially or sharded.
#[test]
fn bipartite_driver_equivalence() {
    use dam_core::{run_mm, Bipartite, RuntimeConfig};
    let mut rng = StdRng::seed_from_u64(1234);
    for seed in 0..SEEDS {
        let g = generators::bipartite_gnp(18, 18, 0.2, &mut rng);
        for k in [2usize, 3] {
            let algo = Bipartite { k, ..Bipartite::default() };
            let base =
                RuntimeConfig::new().sim(SimConfig::congest_for(g.node_count(), 4).seed(seed));
            let seq = run_mm(&algo, &g, &base).expect("sequential driver failed");
            let par = run_mm(&algo, &g, &base.threads(4)).expect("parallel driver failed");
            assert_eq!(seq.matching, par.matching, "matching diverges (seed {seed}, k {k})");
            assert_eq!(seq.totals, par.totals, "stats diverge (seed {seed}, k {k})");
            assert_eq!(seq.iterations, par.iterations);
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
        let base = RuntimeConfig::new().sim(SimConfig::congest_for(g.node_count(), 8).seed(seed));
        let seq = run_mm(&algo, &g, &base).expect("sequential driver failed");
        let par = run_mm(&algo, &g, &base.threads(4)).expect("parallel driver failed");
        assert_eq!(seq.matching, par.matching, "matching diverges (seed {seed})");
        assert_eq!(seq.totals, par.totals, "stats diverge (seed {seed})");
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

/// The heavy combined fault + churn schedule [`Chatter`] runs under.
fn heavy_schedule() -> (FaultPlan, ChurnPlan) {
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
    (faults, churn)
}

#[test]
fn chatter_under_heavy_combined_schedule() {
    let (faults, churn) = heavy_schedule();
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 4).seed(seed).max_rounds(200);
        assert_equivalent(&g, cfg, &faults, &churn, |v, _g| Chatter {
            acc: 0,
            halt_round: 6 + v % 5,
        });
    }
}

/// The heavy schedule again, 64 times at two threads: with as many
/// workers as hardware threads the two shards really do run at once,
/// so each repeat interleaves them differently, and every repeat must
/// still equal the sequential run.
#[test]
fn repeated_concurrent_runs_match_sequential() {
    let (faults, churn) = heavy_schedule();
    let spec = RunSpec { faults: &faults, churn: &churn, trace: true };
    let make = |v: usize, _: &dyn Topology| Chatter { acc: 0, halt_round: 6 + v % 5 };
    for repeat in 0..64 {
        let seed = repeat % SEEDS;
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 4).seed(seed).max_rounds(200);
        let seq = Network::new(&g, cfg).execute(make, &spec).unwrap();
        let sharded = cfg.backend(Backend::Sharded).threads(2);
        let par = Network::new(&g, sharded).execute(make, &spec).unwrap();
        assert_eq!(seq.outputs, par.outputs, "outputs diverge on repeat {repeat}");
        assert_eq!(seq.stats, par.stats, "stats diverge on repeat {repeat}");
        assert_eq!(trace_of(&seq).events(), trace_of(&par).events(), "repeat {repeat}");
    }
}

/// Panics and double sends at chosen `(round, node)` pairs; every node
/// sends one message a round and never halts.
#[derive(Clone, Copy)]
struct Incidents {
    panics: &'static [(usize, usize)],
    doubles: &'static [(usize, usize)],
}

impl Protocol for Incidents {
    type Msg = u8;
    type Output = ();

    fn on_round(&mut self, ctx: &mut Context<'_, u8>, _: &[(Port, u8)]) {
        let at = (ctx.round(), ctx.id());
        if self.panics.contains(&at) {
            panic!("node {} panics in round {}", at.1, at.0);
        }
        ctx.send(0, 1);
        if self.doubles.contains(&at) {
            ctx.send(0, 2);
        }
    }

    fn into_output(self) {}
}

/// How a run ended: its error, its panic message, or success.
fn outcome_of(config: SimConfig, g: &Graph, make: Incidents) -> String {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Network::new(g, config).execute(move |_, _| make, &RunSpec::default())
    }));
    match run {
        Ok(Ok(_)) => "ok".to_string(),
        Ok(Err(e)) => format!("error: {e:?}"),
        Err(p) => match (p.downcast_ref::<String>(), p.downcast_ref::<&str>()) {
            (Some(msg), _) => format!("panic: {msg}"),
            (None, Some(msg)) => format!("panic: {msg}"),
            (None, None) => "panic without a message".to_string(),
        },
    }
}

/// When several nodes fail, both engines stop at the first incident in
/// `(round, node)` order and report it the same way: the same error, or
/// the same panic message.
#[test]
fn first_incident_wins_on_both_engines() {
    let g = generators::cycle(12);
    let cases = [
        (Incidents { panics: &[(3, 9)], doubles: &[] }, "panic: node 9 panics in round 3"),
        (
            Incidents { panics: &[(3, 9)], doubles: &[(3, 4)] },
            "error: DuplicateSend { node: 4, port: 0, round: 3 }",
        ),
        (Incidents { panics: &[(3, 4)], doubles: &[(3, 9)] }, "panic: node 4 panics in round 3"),
        (Incidents { panics: &[(2, 9)], doubles: &[(3, 4)] }, "panic: node 9 panics in round 2"),
    ];
    for (make, expected) in cases {
        let cfg = SimConfig::local().max_rounds(20);
        assert_eq!(outcome_of(cfg, &g, make), expected, "sequential");
        for threads in THREADS {
            let sharded = cfg.backend(Backend::Sharded).threads(threads);
            assert_eq!(outcome_of(sharded, &g, make), expected, "{threads} threads");
        }
    }
}

/// The round limit reports how many nodes were still running. Absent,
/// left and crashed nodes count as halted; a joined and a recovered node
/// count as running.
#[test]
fn round_limit_counts_running_nodes_alike() {
    struct Forever;
    impl Protocol for Forever {
        type Msg = ();
        type Output = ();
        fn on_round(&mut self, _: &mut Context<'_, ()>, _: &[(Port, ())]) {}
        fn into_output(self) {}
    }
    let g = generators::path(12);
    let faults = FaultPlan::crashes(vec![(7, 1), (8, 2)]).with_recoveries(vec![(8, 5)]);
    let churn = ChurnPlan::default()
        .with_absent_nodes(vec![3, 10])
        .with_event(4, ChurnKind::Join { node: 10 })
        .with_event(2, ChurnKind::Leave { node: 5 });
    let spec = RunSpec { faults: &faults, churn: &churn, trace: false };
    let cfg = SimConfig::local().max_rounds(8);
    let expected = "RoundLimitExceeded { limit: 8, running: 9 }";
    let seq = Network::new(&g, cfg).execute(|_, _| Forever, &spec).unwrap_err();
    assert_eq!(format!("{seq:?}"), expected, "sequential");
    for threads in THREADS {
        let sharded = cfg.backend(Backend::Sharded).threads(threads);
        let par = Network::new(&g, sharded).execute(|_, _| Forever, &spec).unwrap_err();
        assert_eq!(format!("{par:?}"), expected, "{threads} threads");
    }
}

/// Telemetry non-perturbation on the sharded engine: attaching a
/// recording sink leaves outputs, statistics and trace streams
/// bit-identical at every thread count, and the recorded series matches
/// the sequential engine's sample for sample (the coordinator merges
/// per-worker deltas into the same cumulative stream).
#[test]
fn sharded_sink_observes_without_perturbing() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 8).seed(seed).max_rounds(2_000);
        let make = |v: usize, graph: &dyn Topology| {
            Resilient::new(IiNode::new(graph.degree(v)), TransportCfg::default())
        };
        let faults = fault_plan();
        let spec = RunSpec { faults: &faults, trace: true, ..RunSpec::default() };
        let (seq, seq_samples) = {
            let sink = Arc::new(RecordingSink::new());
            let mut net = Network::new(&g, cfg);
            net.set_stats_sink(Some(SinkHandle::from(Arc::clone(&sink))));
            let out = net.execute(make, &spec);
            (out, sink.samples())
        };
        if let Ok(so) = &seq {
            assert_eq!(seq_samples.len() as u64, so.stats.rounds, "one sample per round");
        }
        for threads in THREADS {
            let sharded = cfg.backend(Backend::Sharded).threads(threads);
            let bare = Network::new(&g, sharded).execute(make, &spec);
            let sink = Arc::new(RecordingSink::new());
            let tapped = {
                let mut net = Network::new(&g, sharded);
                net.set_stats_sink(Some(SinkHandle::from(Arc::clone(&sink))));
                net.execute(make, &spec)
            };
            match (&bare, &tapped) {
                (Ok(bo), Ok(to)) => {
                    let (bt, tt) = (trace_of(bo), trace_of(to));
                    assert_eq!(bo.outputs, to.outputs, "sink perturbed outputs ({threads}t)");
                    assert_eq!(bo.stats, to.stats, "sink perturbed stats ({threads}t)");
                    assert_eq!(bt.events(), tt.events(), "sink perturbed trace ({threads}t)");
                }
                (Err(be), Err(te)) => {
                    assert_eq!(format!("{be:?}"), format!("{te:?}"), "sink perturbed the error");
                }
                _ => panic!("attaching a sink changed termination ({threads} threads)"),
            }
            // The recorded series is engine-independent either way: the
            // coordinator's merged stream must equal the sequential one.
            assert_eq!(
                seq_samples,
                sink.samples(),
                "sharded sample stream diverges from sequential ({threads} threads, seed {seed})"
            );
        }
    }
}

/// The adaptive transport on the sharded engine: escalation decisions
/// are node-local, so thread scheduling must not leak into them.
#[test]
fn adaptive_transport_parallel_equivalence() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 8).seed(seed).max_rounds(2_000);
        assert_equivalent(&g, cfg, &fault_plan(), &ChurnPlan::default(), |v, graph| {
            Resilient::with_policy(IiNode::new(graph.degree(v)), AdaptivePolicy::default())
        });
    }
}

/// Quiescence-terminated message-driven protocol under churn: exercises
/// the coordinator's round-0 delivered-slot scan and the `frames == 0`
/// fast path on every later round.
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

/// More workers than nodes: with 40 or more threads on the 40-node
/// graphs every shard is a single node, and past 40 the surplus workers
/// are never spawned.
#[test]
fn threads_far_beyond_nodes() {
    for seed in 0..SEEDS {
        let g = graph_for(seed);
        let cfg = SimConfig::congest_for(g.node_count(), 8).seed(seed).max_rounds(2_000);
        assert_equivalent_at(&g, cfg, &churn_faults(), &churn_plan(), &[64], |v, graph| {
            Resilient::new(IiNode::new(graph.degree(v)), TransportCfg::default())
        });
        let cfg = SimConfig::congest_for(g.node_count(), 4).seed(seed).max_rounds(300);
        let faults = FaultPlan { corrupt: 0.15, equivocators: vec![3], ..churn_faults() };
        assert_equivalent_at(&g, cfg, &faults, &churn_plan(), &[39, 40, 41, 64], |v, _g| Chatter {
            acc: 0,
            halt_round: 6 + v % 5,
        });
    }
}

/// The trivial graphs: n = 0 and n = 1 take the sequential fall-through
/// (at most one node to shard), n = 2 runs two singleton shards — here
/// with a late joiner and a flapping edge.
#[test]
fn tiny_graphs_shard_like_sequential() {
    for n in 0..=2usize {
        let g = generators::path(n);
        let churn = if n == 2 {
            ChurnPlan::default()
                .with_absent_nodes(vec![1])
                .with_event(2, ChurnKind::Join { node: 1 })
                .with_event(4, ChurnKind::EdgeDown { edge: 0 })
                .with_event(5, ChurnKind::EdgeUp { edge: 0 })
        } else {
            ChurnPlan::default()
        };
        for seed in 0..SEEDS {
            let cfg = SimConfig::congest_for(n, 4).seed(seed).max_rounds(300);
            assert_equivalent_at(&g, cfg, &churn_faults(), &churn, &[2, 64], |v, _g| Chatter {
                acc: 0,
                halt_round: 6 + v % 5,
            });
            let cfg = SimConfig::congest_for(n, 8).seed(seed).max_rounds(2_000);
            assert_equivalent_at(&g, cfg, &churn_faults(), &ChurnPlan::default(), &[2, 64], {
                |v, graph| Resilient::new(IiNode::new(graph.degree(v)), TransportCfg::default())
            });
        }
    }
}

/// A star: the hub (node 0, in the first shard) is adjacent to every
/// other node, so every shard writes into the hub's slots each round.
/// The second schedule crashes and reboots the hub itself.
#[test]
fn star_hub_equivalence() {
    const STAR_THREADS: [usize; 4] = [2, 4, 7, 64];
    let g = generators::star(40);
    for seed in 0..SEEDS {
        let cfg = SimConfig::congest_for(g.node_count(), 8).seed(seed).max_rounds(2_000);
        assert_equivalent_at(&g, cfg, &fault_plan(), &ChurnPlan::default(), &STAR_THREADS, {
            |v, graph| Resilient::new(IiNode::new(graph.degree(v)), TransportCfg::default())
        });
        let cfg = SimConfig::congest_for(g.node_count(), 4).seed(seed).max_rounds(300);
        assert_equivalent_at(&g, cfg, &churn_faults(), &churn_plan(), &STAR_THREADS, |v, _g| {
            Chatter { acc: 0, halt_round: 6 + v % 5 }
        });
        let hub_down =
            FaultPlan { crashes: vec![(0, 3)], recoveries: vec![(0, 6)], ..churn_faults() };
        assert_equivalent_at(&g, cfg, &hub_down, &ChurnPlan::default(), &STAR_THREADS, |v, _g| {
            Chatter { acc: 0, halt_round: 9 + v % 5 }
        });
    }
}
