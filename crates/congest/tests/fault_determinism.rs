//! Regression: identical seeds and fault plans must reproduce runs
//! **bit-identically** — same outputs, same statistics, same trace,
//! event for event. Every experiment and shrunken proptest failure in
//! the workspace relies on this.

use dam_congest::{
    ChurnKind, ChurnPlan, Context, FaultKind, FaultPlan, Network, Port, Protocol, Resilient,
    RunSpec, RunStats, SimConfig, TraceEvent, TransportCfg,
};
use dam_graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small flood whose accumulator is sensitive to message order and
/// provenance, so any divergence between two runs shows up in the
/// outputs.
struct SumFlood {
    acc: u64,
    rounds: usize,
}

impl Protocol for SumFlood {
    type Msg = u64;
    type Output = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        self.acc = ctx.id() as u64 + 1;
        ctx.broadcast(self.acc);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, u64>, inbox: &[(Port, u64)]) {
        for &(p, v) in inbox {
            self.acc = self.acc.wrapping_mul(31).wrapping_add(v ^ p as u64);
        }
        if ctx.round() >= self.rounds {
            ctx.halt();
        } else {
            ctx.broadcast(self.acc);
        }
    }

    fn into_output(self) -> u64 {
        self.acc
    }
}

fn hostile_plan() -> FaultPlan {
    FaultPlan {
        loss: 0.15,
        dup: 0.05,
        reorder: 0.2,
        corrupt: 0.08,
        crashes: vec![(2, 6), (7, 11)],
        recoveries: vec![(7, 40)],
        equivocators: vec![5],
        ..FaultPlan::default()
    }
}

fn run_once(engine_seed: u64) -> (Vec<u64>, RunStats, Vec<TraceEvent>) {
    let mut rng = StdRng::seed_from_u64(99);
    let g = generators::gnp(24, 0.2, &mut rng);
    let mut net = Network::new(&g, SimConfig::local().seed(engine_seed));
    let mut out = net
        .execute(
            |_, _| Resilient::new(SumFlood { acc: 0, rounds: 6 }, TransportCfg::default()),
            &RunSpec { faults: &hostile_plan(), trace: true, ..RunSpec::default() },
        )
        .expect("faulty run");
    let trace = out.trace.take().unwrap();
    (out.outputs, out.stats, trace.events().to_vec())
}

#[test]
fn identical_seed_and_plan_reproduce_bit_identically() {
    let (out_a, stats_a, trace_a) = run_once(7);
    let (out_b, stats_b, trace_b) = run_once(7);
    assert_eq!(out_a, out_b, "outputs must be bit-identical");
    assert_eq!(stats_a, stats_b, "statistics must be bit-identical");
    assert_eq!(trace_a.len(), trace_b.len(), "traces must have equal length");
    assert_eq!(trace_a, trace_b, "traces must match event for event");
}

#[test]
fn different_seeds_actually_diverge() {
    // Sanity check that the determinism test is not vacuous: a different
    // engine seed draws different fault coins, so the traces differ.
    let (_, _, trace_a) = run_once(7);
    let (_, _, trace_b) = run_once(8);
    assert_ne!(trace_a, trace_b);
}

/// Churned nodes stay disjoint from the fault plan's crash set {2, 7}
/// (the engine validates exactly that).
fn churn_plan() -> ChurnPlan {
    ChurnPlan::default()
        .with_absent_nodes(vec![21])
        .with_event(4, ChurnKind::EdgeDown { edge: 1 })
        .with_event(9, ChurnKind::Leave { node: 13 })
        .with_event(14, ChurnKind::Join { node: 21 })
        .with_event(18, ChurnKind::EdgeUp { edge: 1 })
}

fn run_churned_once(engine_seed: u64) -> (Vec<u64>, RunStats, Vec<TraceEvent>) {
    let mut rng = StdRng::seed_from_u64(99);
    let g = generators::gnp(24, 0.2, &mut rng);
    let mut net = Network::new(&g, SimConfig::local().seed(engine_seed));
    let mut out = net
        .execute(
            |_, _| Resilient::new(SumFlood { acc: 0, rounds: 6 }, TransportCfg::default()),
            &RunSpec { faults: &hostile_plan(), churn: &churn_plan(), trace: true },
        )
        .expect("churned run");
    let trace = out.trace.take().unwrap();
    (out.outputs, out.stats, trace.events().to_vec())
}

#[test]
fn identical_seed_and_plans_reproduce_churned_runs_bit_identically() {
    let (out_a, stats_a, trace_a) = run_churned_once(7);
    let (out_b, stats_b, trace_b) = run_churned_once(7);
    assert_eq!(out_a, out_b, "outputs must be bit-identical");
    assert_eq!(stats_a, stats_b, "statistics must be bit-identical");
    assert_eq!(trace_a, trace_b, "traces must match event for event");
}

#[test]
fn churned_runs_diverge_across_seeds() {
    let (_, _, trace_a) = run_churned_once(7);
    let (_, _, trace_b) = run_churned_once(8);
    assert_ne!(trace_a, trace_b);
}

#[test]
fn churned_trace_records_every_topology_event() {
    let (_, stats, trace) = run_churned_once(7);
    let churns: Vec<ChurnKind> = trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Churn { kind, .. } => Some(*kind),
            _ => None,
        })
        .collect();
    assert_eq!(
        churns,
        vec![
            ChurnKind::EdgeDown { edge: 1 },
            ChurnKind::Leave { node: 13 },
            ChurnKind::Join { node: 21 },
            ChurnKind::EdgeUp { edge: 1 },
        ],
        "every planned topology event must be traced, in order"
    );
    assert_eq!(stats.churn_events, 4, "stats must count the planned events");
}

#[test]
fn faulty_trace_records_faults_and_stats_separate_overhead() {
    let (_, stats, trace) = run_once(7);
    let kind_count = |k: FaultKind| {
        trace.iter().filter(|e| matches!(e, TraceEvent::Fault { kind, .. } if *kind == k)).count()
    };
    assert!(kind_count(FaultKind::Loss) > 0, "losses must be traced");
    assert_eq!(kind_count(FaultKind::Crash), 2, "both crashes must be traced");
    assert_eq!(kind_count(FaultKind::Recover), 1, "the recovery must be traced");
    assert!(stats.retransmissions > 0, "loss must force retransmissions");
    assert!(stats.heartbeats > 0, "the failure detector must emit heartbeats");
    assert!(stats.messages > 0, "protocol payloads are accounted in their own class");
}

#[test]
fn integrity_faults_are_traced_and_counted() {
    let (_, stats, trace) = run_once(7);
    let corrupts = trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::Fault { kind: FaultKind::Corrupt { .. }, .. }))
        .count() as u64;
    let equivs = trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::Fault { kind: FaultKind::Equivocate { .. }, .. }))
        .count() as u64;
    assert!(corrupts > 0, "the corruption channel must fire under an 8% rate");
    assert!(equivs > 0, "the equivocator must tamper its outgoing frames");
    assert_eq!(stats.corruptions, corrupts, "stats and trace must agree on corruptions");
    assert_eq!(stats.equivocations, equivs, "stats and trace must agree on equivocations");
    assert!(stats.rejected > 0, "damaged frames must be rejected by receiver validation");
}
