//! Failure injection: how load-bearing is the paper's fault-free
//! assumption (§2, footnote 2: "we do not consider faults")?
//!
//! These tests *measure* the failure modes rather than hide them:
//! crash-stop neighbours stall termination-by-quiescence protocols (the
//! round guard fires — that is the finding), message loss can leave the
//! two endpoints of an edge disagreeing about their match (the register
//! cross-validation catches it), while fixed-schedule protocols sail
//! through both.

use dam::congest::{Context, FaultPlan, Network, Port, Protocol, RunSpec, SimConfig};
use dam::core::israeli_itai::IiNode;
use dam::core::report::matching_from_registers;
use dam::graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A fixed-schedule protocol: broadcast for exactly `rounds` rounds,
/// then stop. Immune to crashes and loss by construction.
struct FixedGossip {
    rounds: usize,
    heard: u64,
}

impl Protocol for FixedGossip {
    type Msg = u8;
    type Output = u64;
    fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
        ctx.broadcast(1);
    }
    fn on_round(&mut self, ctx: &mut Context<'_, u8>, inbox: &[(Port, u8)]) {
        self.heard += inbox.len() as u64;
        if ctx.round() >= self.rounds {
            ctx.halt();
        } else {
            ctx.broadcast(1);
        }
    }
    fn into_output(self) -> u64 {
        self.heard
    }
}

/// Crashing a node mid-run degrades fixed-schedule protocols gracefully:
/// everyone still terminates; survivors just hear less.
#[test]
fn fixed_schedule_survives_crashes() {
    let g = generators::cycle(10);
    let mut net = Network::new(&g, SimConfig::local().seed(1));
    let clean = net.run(|_, _| FixedGossip { rounds: 8, heard: 0 }).unwrap();
    let mut net = Network::new(&g, SimConfig::local().seed(1));
    let faulty = net
        .execute(
            |_, _| FixedGossip { rounds: 8, heard: 0 },
            &RunSpec { faults: &FaultPlan::crashes(vec![(3, 4)]), ..RunSpec::default() },
        )
        .unwrap();
    // Node 3's neighbours (2 and 4) hear strictly less than in the clean
    // run; distant nodes are unaffected.
    assert!(faulty.outputs[2] < clean.outputs[2]);
    assert!(faulty.outputs[4] < clean.outputs[4]);
    assert_eq!(faulty.outputs[8], clean.outputs[8]);
}

/// Israeli–Itai relies on quiescence for termination: a crashed *free*
/// neighbour keeps its neighbours proposing forever, and the round
/// guard fires. The fault-free assumption is load-bearing.
#[test]
fn israeli_itai_stalls_on_crashed_free_neighbour() {
    // A star: if the centre crashes immediately, every leaf still sees a
    // "live" free neighbour and never halts.
    let g = generators::star(6);
    let mut net = Network::new(&g, SimConfig::congest_for(6, 4).seed(2).max_rounds(2_000));
    let result = net.execute(
        |v, graph| IiNode::new(graph.degree(v)),
        &RunSpec { faults: &FaultPlan::crashes(vec![(0, 1)]), ..RunSpec::default() },
    );
    assert!(result.is_err(), "leaves must spin waiting for the crashed centre");
}

/// Crashing an already-matched node after it announced is harmless: the
/// rest of the matching completes and the survivor registers are
/// consistent.
#[test]
fn late_crashes_leave_consistent_survivors() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut checked = 0;
    for trial in 0..20u64 {
        let g = generators::gnp(20, 0.2, &mut rng);
        // Crash two nodes late, after the matching has mostly settled.
        let plan = FaultPlan::crashes(vec![(1, 40), (7, 45)]);
        let mut net = Network::new(&g, SimConfig::congest_for(20, 4).seed(trial).max_rounds(2_000));
        let Ok(out) = net.execute(
            |v, graph| IiNode::new(graph.degree(v)),
            &RunSpec { faults: &plan, ..RunSpec::default() },
        ) else {
            continue; // this seed stalled: covered by the test above
        };
        // All survivors' registers must still cross-validate.
        matching_from_registers(&g, &out.outputs).unwrap();
        checked += 1;
    }
    assert!(checked > 0, "at least some seeds must complete despite crashes");
}

/// Message loss can split an II handshake: the Accept is dropped, the
/// receiver believes it is matched, the proposer does not. The register
/// cross-validation detects the inconsistency — which is the point: the
/// algorithm is not loss-tolerant, and the harness can prove it.
#[test]
fn message_loss_breaks_handshakes_detectably() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut inconsistent = 0;
    let mut total = 0;
    for trial in 0..30u64 {
        let g = generators::gnp(24, 0.2, &mut rng);
        let mut net = Network::new(&g, SimConfig::congest_for(24, 4).seed(trial).max_rounds(3_000));
        let Ok(out) = net.execute(
            |v, graph| IiNode::new(graph.degree(v)),
            &RunSpec { faults: &FaultPlan::lossy(0.15), ..RunSpec::default() },
        ) else {
            continue; // stalled runs are the other failure mode
        };
        total += 1;
        if matching_from_registers(&g, &out.outputs).is_err() {
            inconsistent += 1;
        }
    }
    assert!(total > 0, "some lossy runs should still terminate");
    assert!(inconsistent > 0, "15% loss over {total} runs should break at least one handshake");
}

/// Loss-free fault plans are a no-op: execute(default plan) == run.
#[test]
fn empty_fault_plan_is_identity() {
    let g = generators::cycle(12);
    let a = Network::new(&g, SimConfig::local().seed(9))
        .run(|v, graph| IiNode::new(graph.degree(v)))
        .unwrap();
    let b = Network::new(&g, SimConfig::local().seed(9))
        .execute(|v, graph| IiNode::new(graph.degree(v)), &RunSpec::default())
        .unwrap();
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.stats, b.stats);
}
