//! Differential suite for the unified runtime: the self-healing, churn
//! and certified pipelines and the plain Israeli–Itai driver all run
//! through [`dam_core::runtime::run_mm`], and Luby's MIS through
//! [`dam_core::luby::luby_mis`]. This file keeps a **golden replica** of each
//! pre-runtime pipeline body, written against the engine primitives
//! (`run`, `execute`, `Resilient`, `sanitize_registers`, `certify`,
//! `Maintainer::adopt`, …), and asserts the runtime is bit-identical to
//! it — outputs, per-phase `RunStats`, certificates, traces, and error
//! paths — across seeds, fault/churn schedules, and thread counts.
//!
//! If a change to the runtime composition alters any observable of any
//! driver, this suite is the tripwire.

use dam_congest::rng::splitmix64;
use dam_congest::{
    Backend, ChurnKind, ChurnPlan, Context, DelayModel, FaultPlan, Frame, Network, Port, Protocol,
    Resilient, RunSpec, RunStats, SimConfig, TransportCfg,
};
use dam_core::certify::{apply_lies, certify, Certificate};
use dam_core::error::CoreError;
use dam_core::israeli_itai::{IiMsg, IiNode};
use dam_core::luby::{luby_mis, LubyNode};
use dam_core::maintain::{sanitize_present, MaintainConfig, Maintainer};
use dam_core::repair::sanitize_registers;
use dam_core::report::matching_from_registers;
use dam_core::runtime::{run_mm, IsraeliItai, RuntimeConfig};
use dam_graph::{generators, EdgeId, Graph, Matching, NodeId, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hardcoded copies of the crate-private domain-separation keys. They
/// are deliberately *not* imported: silently re-keying a phase inside
/// the crate without noticing the replay break is exactly the
/// regression this suite exists to catch.
const CHECK_DOMAIN: u64 = 0xCE47_1F1E_D5EE_D001;
const RECHECK_DOMAIN: u64 = 0x2ECE_27F1_CA7E_0001;
const MAINTAIN_DOMAIN: u64 = 0x4D41_494E;

const SEEDS: u64 = 16;
const THREADS: [usize; 3] = [1, 2, 4];
/// The pre-runtime pipelines' round guard.
const MAX_ROUNDS: usize = 500_000;

/// The pre-runtime pipelines' engine configuration: LOCAL, `seed`, and
/// the round guard.
fn pipeline_sim(seed: u64, max_rounds: usize) -> SimConfig {
    SimConfig::local().seed(seed).max_rounds(max_rounds)
}

fn graph(i: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(0xD1FF ^ (1000 + i));
    generators::gnp(24, 0.18, &mut rng)
}

/// One fault schedule per seed: clean, lossy, crashy, and hostile (with
/// a recovery, so the never-recovered filter is exercised too).
fn fault_schedule(i: u64, n: usize) -> FaultPlan {
    let v = i as usize;
    match i % 4 {
        0 => FaultPlan::default(),
        1 => FaultPlan { loss: 0.1, dup: 0.05, reorder: 0.1, ..FaultPlan::default() },
        2 => FaultPlan {
            loss: 0.05,
            crashes: vec![(v % n, 2), ((v + 3) % n, 5)],
            ..FaultPlan::default()
        },
        _ => FaultPlan {
            loss: 0.15,
            dup: 0.05,
            reorder: 0.25,
            crashes: vec![((2 * v + 1) % n, 3), ((2 * v + 7) % n, 2)],
            recoveries: vec![((2 * v + 7) % n, 6)],
            ..FaultPlan::default()
        },
    }
}

/// Adds a Byzantine cohort (liars / corruption / equivocators) on top
/// of the seed's fault schedule, for the certified pipeline.
fn byzantine_schedule(i: u64, n: usize) -> FaultPlan {
    let v = i as usize;
    let mut plan = fault_schedule(i, n);
    match i % 3 {
        0 => plan.liars = vec![(v + 1) % n],
        1 => {
            plan.liars = vec![(v + 1) % n, (v + 9) % n];
            plan.corrupt = 0.02;
        }
        _ => plan.equivocators = vec![(v + 5) % n],
    }
    plan
}

/// One churn schedule per seed: none, an edge flap, or a leave plus an
/// edge loss. Node choices avoid the crash victims of
/// [`fault_schedule`] so every plan validates.
fn churn_schedule(i: u64, g: &Graph) -> ChurnPlan {
    let m = g.edge_count();
    let n = g.node_count();
    if m == 0 {
        return ChurnPlan::default();
    }
    let v = i as usize;
    match i % 3 {
        0 => ChurnPlan::default(),
        1 => ChurnPlan::default()
            .with_event(2, ChurnKind::EdgeDown { edge: v % m })
            .with_event(6, ChurnKind::EdgeUp { edge: v % m }),
        _ => ChurnPlan::default()
            .with_event(3, ChurnKind::Leave { node: (v + 4) % n })
            .with_event(9, ChurnKind::EdgeDown { edge: (3 * v + 1) % m }),
    }
}

// ---------------------------------------------------------------------
// Golden replicas of the pre-refactor pipeline bodies.
// ---------------------------------------------------------------------

/// Verbatim copy of the deleted per-node repair protocol: dead nodes
/// are halted tombstones, live nodes resume Israeli–Itai over the
/// resilient transport. The runtime's generic `Slot` wrapper must stay
/// behaviorally identical to this.
enum GoldenRepairProto {
    Dead,
    Live(Box<Resilient<IiNode>>),
}

impl Protocol for GoldenRepairProto {
    type Msg = Frame<IiMsg>;
    type Output = Option<EdgeId>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        match self {
            GoldenRepairProto::Dead => ctx.halt(),
            GoldenRepairProto::Live(p) => p.on_start(ctx),
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Self::Msg>, inbox: &[(Port, Self::Msg)]) {
        match self {
            GoldenRepairProto::Dead => ctx.halt(),
            GoldenRepairProto::Live(p) => p.on_round(ctx, inbox),
        }
    }

    fn into_output(self) -> Option<EdgeId> {
        match self {
            GoldenRepairProto::Dead => None,
            GoldenRepairProto::Live(p) => p.into_output(),
        }
    }
}

struct GoldenRepair {
    matching: Matching,
    surviving: usize,
    dissolved: usize,
    added: usize,
    stats: RunStats,
}

/// Pre-refactor standalone repair body.
fn golden_repair(
    g: &Graph,
    registers: &[Option<EdgeId>],
    alive: &[bool],
    faults: &FaultPlan,
    sim: SimConfig,
    transport: TransportCfg,
) -> Result<GoldenRepair, CoreError> {
    let sane = sanitize_registers(g, registers, alive);
    let mut net = Network::new(g, sim);
    let out = net.execute(
        |v, graph| {
            if !alive[v] {
                return GoldenRepairProto::Dead;
            }
            let dead_ports: Vec<Port> =
                graph.incident(v).filter_map(|(p, u, _)| (!alive[u]).then_some(p)).collect();
            GoldenRepairProto::Live(Box::new(Resilient::new(
                IiNode::with_state(graph.degree(v), sane.registers[v], &dead_ports),
                transport,
            )))
        },
        &RunSpec { faults, ..RunSpec::default() },
    )?;
    let final_regs = sanitize_registers(g, &out.outputs, alive);
    let matching = matching_from_registers(g, &final_regs.registers)?;
    Ok(GoldenRepair {
        added: matching.size() - sane.surviving,
        matching,
        surviving: sane.surviving,
        dissolved: sane.dissolved,
        stats: out.stats,
    })
}

/// What the pre-refactor self-healing pipeline reported.
#[derive(Debug)]
struct GoldenSelfHealing {
    matching: Matching,
    dead: Vec<NodeId>,
    surviving: usize,
    dissolved: usize,
    added: usize,
    phase1: RunStats,
    repair: RunStats,
}

/// Pre-refactor self-healing pipeline body.
fn golden_self_healing(
    g: &Graph,
    plan: &FaultPlan,
    sim: SimConfig,
    transport: TransportCfg,
) -> Result<GoldenSelfHealing, CoreError> {
    let n = g.node_count();
    let mut alive = vec![true; n];
    for &(v, _) in &plan.crashes {
        if !plan.recoveries.iter().any(|&(u, _)| u == v) {
            alive[v] = false;
        }
    }

    let mut net = Network::new(g, sim);
    let phase1 = net.execute(
        |v, graph| Resilient::new(IiNode::new(graph.degree(v)), transport),
        &RunSpec { faults: plan, ..RunSpec::default() },
    )?;

    let repair_faults = FaultPlan {
        loss: plan.loss,
        dup: plan.dup,
        reorder: plan.reorder,
        links: plan.links.clone(),
        ..FaultPlan::default()
    };
    let report = golden_repair(g, &phase1.outputs, &alive, &repair_faults, sim, transport)?;

    Ok(GoldenSelfHealing {
        matching: report.matching,
        dead: (0..n).filter(|&v| !alive[v]).collect(),
        surviving: report.surviving,
        dissolved: report.dissolved,
        added: report.added,
        phase1: phase1.stats,
        repair: report.stats,
    })
}

/// What the pre-refactor certified pipeline reported.
#[derive(Debug)]
struct GoldenCertified {
    matching: Matching,
    initial: Certificate,
    recheck: Option<Certificate>,
    excluded: Vec<NodeId>,
    surviving: usize,
    dissolved: usize,
    added: usize,
    repair_touched: usize,
    phase1: RunStats,
    repair: Option<RunStats>,
}

/// Pre-refactor certified pipeline body.
fn golden_certified(
    g: &Graph,
    plan: &FaultPlan,
    sim: SimConfig,
    transport: TransportCfg,
) -> Result<GoldenCertified, CoreError> {
    let n = g.node_count();
    let mut alive = vec![true; n];
    for &(v, _) in &plan.crashes {
        if !plan.recoveries.iter().any(|&(u, _)| u == v) {
            alive[v] = false;
        }
    }
    for &v in &plan.equivocators {
        alive[v] = false;
    }

    let mut net = Network::new(g, sim);
    let phase1 = net.execute(
        |v, graph| Resilient::new(IiNode::new(graph.degree(v)), transport),
        &RunSpec { faults: plan, ..RunSpec::default() },
    )?;

    let mut regs = phase1.outputs;
    apply_lies(&mut regs, &plan.liars, sim.seed, g.edge_count());

    let check_seed = splitmix64(sim.seed ^ CHECK_DOMAIN);
    let initial = certify(g, &regs, &alive, check_seed)?;

    let excluded: Vec<NodeId> = (0..n).filter(|&v| !alive[v]).collect();
    if initial.ok() {
        let sane = sanitize_registers(g, &regs, &alive);
        let matching = matching_from_registers(g, &sane.registers)?;
        return Ok(GoldenCertified {
            matching,
            initial,
            recheck: None,
            excluded,
            surviving: sane.surviving,
            dissolved: sane.dissolved,
            added: 0,
            repair_touched: 0,
            phase1: phase1.stats,
            repair: None,
        });
    }

    let mut cleared = regs;
    for &v in &initial.flagged {
        cleared[v] = None;
    }
    let pre = sanitize_registers(g, &cleared, &alive);
    let repair_faults = FaultPlan {
        loss: plan.loss,
        dup: plan.dup,
        reorder: plan.reorder,
        corrupt: plan.corrupt,
        links: plan.links.clone(),
        ..FaultPlan::default()
    };
    let rep = golden_repair(g, &cleared, &alive, &repair_faults, sim, transport)?;

    let mut final_regs = vec![None; n];
    for e in rep.matching.to_edge_vec() {
        let (a, b) = g.endpoints(e);
        final_regs[a] = Some(e);
        final_regs[b] = Some(e);
    }
    let repair_touched = (0..n).filter(|&v| alive[v] && final_regs[v] != pre.registers[v]).count();
    let recheck = certify(g, &final_regs, &alive, splitmix64(check_seed ^ RECHECK_DOMAIN))?;

    Ok(GoldenCertified {
        matching: rep.matching,
        initial,
        recheck: Some(recheck),
        excluded,
        surviving: rep.surviving,
        dissolved: rep.dissolved,
        added: rep.added,
        repair_touched,
        phase1: phase1.stats,
        repair: Some(rep.stats),
    })
}

/// What the pre-refactor churn pipeline reported.
#[derive(Debug)]
struct GoldenChurn {
    matching: Matching,
    surviving: usize,
    dissolved: usize,
    added: usize,
    run: RunStats,
    repair: RunStats,
}

/// Pre-refactor churn pipeline body.
fn golden_churn_tolerant(
    g: &Graph,
    faults: &FaultPlan,
    churn: &ChurnPlan,
    sim: SimConfig,
    transport: TransportCfg,
) -> Result<GoldenChurn, CoreError> {
    let mut net = Network::new(g, sim);
    let out = net.execute(
        |v, graph| Resilient::new(IiNode::new(graph.degree(v)), transport),
        &RunSpec { faults, churn, ..RunSpec::default() },
    )?;
    let (mut node_present, edge_present) = churn.final_presence_on(g);
    for &(v, _) in &faults.crashes {
        if !faults.recoveries.iter().any(|&(u, _)| u == v) {
            node_present.set(v, false);
        }
    }
    let (node_present, edge_present) = (node_present.to_bools(), edge_present.to_bools());
    let sane = sanitize_present(g, &out.outputs, &node_present, &edge_present);
    let mut mt = Maintainer::adopt(
        g,
        sane.registers,
        node_present,
        edge_present,
        &MaintainConfig {
            seed: splitmix64(sim.seed ^ MAINTAIN_DOMAIN),
            max_rounds: sim.max_rounds,
        },
    );
    let repair = mt.repair_full()?;
    Ok(GoldenChurn {
        matching: mt.matching(),
        surviving: sane.surviving,
        dissolved: sane.dissolved,
        added: repair.added,
        run: out.stats,
        repair: repair.stats,
    })
}

fn assert_cert_eq(a: &Certificate, b: &Certificate, ctx: &str) {
    assert_eq!(a.verdicts, b.verdicts, "{ctx}: verdicts");
    assert_eq!(a.flagged, b.flagged, "{ctx}: flagged");
    assert_eq!(a.checked, b.checked, "{ctx}: checked");
    assert_eq!(a.matched, b.matched, "{ctx}: matched");
    assert_eq!(a.detection_rounds, b.detection_rounds, "{ctx}: detection rounds");
    assert_eq!(a.stats, b.stats, "{ctx}: checker stats");
}

// ---------------------------------------------------------------------
// The differential assertions.
// ---------------------------------------------------------------------

/// The self-healing pipeline on the runtime at `sim`: the legacy repair
/// phase kept the plan's link-level channels except corruption.
fn self_healing_cfg(plan: &FaultPlan, sim: SimConfig) -> RuntimeConfig {
    RuntimeConfig::new()
        .sim(sim)
        .transport(TransportCfg::default())
        .faults(plan.clone())
        .repair(true)
        .repair_faults(FaultPlan {
            loss: plan.loss,
            dup: plan.dup,
            reorder: plan.reorder,
            links: plan.links.clone(),
            ..FaultPlan::default()
        })
}

/// The certified pipeline on the runtime at `sim`.
fn certified_cfg(plan: &FaultPlan, sim: SimConfig) -> RuntimeConfig {
    RuntimeConfig::new()
        .sim(sim)
        .transport(TransportCfg::default())
        .faults(plan.clone())
        .certify(true)
        .repair(true)
}

/// The churn pipeline on the runtime at `sim`.
fn churn_cfg(faults: &FaultPlan, churn: &ChurnPlan, sim: SimConfig) -> RuntimeConfig {
    RuntimeConfig::new()
        .sim(sim)
        .transport(TransportCfg::default())
        .faults(faults.clone())
        .churn(churn.clone())
        .maintain(true)
}

#[test]
fn self_healing_pipeline_is_bit_identical() {
    for i in 0..SEEDS {
        let g = graph(i);
        let plan = fault_schedule(i, g.node_count());
        let sim = pipeline_sim(i, MAX_ROUNDS);
        let legacy =
            golden_self_healing(&g, &plan, sim, TransportCfg::default()).expect("golden pipeline");

        // The parallel executor must not change any observable either.
        for threads in THREADS {
            let rep = run_mm(&IsraeliItai, &g, &self_healing_cfg(&plan, sim.threads(threads)))
                .expect("runtime pipeline");
            let repair = rep.repair.as_ref().expect("repair layer ran");
            assert_eq!(
                rep.matching.to_edge_vec(),
                legacy.matching.to_edge_vec(),
                "seed {i}, {threads} threads: edges"
            );
            assert_eq!(rep.excluded, legacy.dead, "seed {i}, {threads} threads: excluded");
            assert_eq!(rep.phase1, legacy.phase1, "seed {i}, {threads} threads: phase-1 stats");
            assert_eq!(*repair, legacy.repair, "seed {i}, {threads} threads: repair stats");
            assert_eq!(
                (rep.surviving, rep.dissolved, rep.added),
                (legacy.surviving, legacy.dissolved, legacy.added),
                "seed {i}, {threads} threads: counters"
            );
        }
    }
}

#[test]
fn certified_pipeline_is_bit_identical() {
    for i in 0..SEEDS {
        let g = graph(i);
        let plan = byzantine_schedule(i, g.node_count());
        let sim = pipeline_sim(i, MAX_ROUNDS);
        let legacy =
            golden_certified(&g, &plan, sim, TransportCfg::default()).expect("golden pipeline");

        for threads in THREADS {
            let rep = run_mm(&IsraeliItai, &g, &certified_cfg(&plan, sim.threads(threads)))
                .expect("runtime pipeline");
            let ctx = format!("seed {i}, {threads} threads");
            let initial = rep.initial.as_ref().expect("certify layer ran");
            assert_eq!(rep.matching.to_edge_vec(), legacy.matching.to_edge_vec(), "{ctx}: edges");
            assert_eq!(rep.excluded, legacy.excluded, "{ctx}: excluded");
            assert_eq!(
                (rep.surviving, rep.dissolved, rep.added, rep.repair_touched),
                (legacy.surviving, legacy.dissolved, legacy.added, legacy.repair_touched),
                "{ctx}: counters"
            );
            assert_eq!(rep.phase1, legacy.phase1, "{ctx}: phase-1 stats");
            assert_eq!(rep.repair, legacy.repair, "{ctx}: repair stats");
            assert_cert_eq(initial, &legacy.initial, &format!("{ctx}: initial"));
            assert_eq!(rep.recheck.is_some(), legacy.recheck.is_some(), "{ctx}: recheck ran");
            if let (Some(a), Some(b)) = (&rep.recheck, &legacy.recheck) {
                assert_cert_eq(a, b, &format!("{ctx}: recheck"));
            }
        }
    }
}

#[test]
fn churn_pipeline_is_bit_identical() {
    for i in 0..SEEDS {
        let g = graph(i);
        let faults = fault_schedule(i, g.node_count());
        let churn = churn_schedule(i, &g);
        let sim = pipeline_sim(i, MAX_ROUNDS);
        let legacy = golden_churn_tolerant(&g, &faults, &churn, sim, TransportCfg::default())
            .expect("golden pipeline");

        for threads in THREADS {
            let rep = run_mm(&IsraeliItai, &g, &churn_cfg(&faults, &churn, sim.threads(threads)))
                .expect("runtime pipeline");
            let maint = rep.maintain.as_ref().expect("maintenance layer ran");
            assert_eq!(
                rep.matching.to_edge_vec(),
                legacy.matching.to_edge_vec(),
                "seed {i}, {threads} threads: edges"
            );
            assert_eq!(rep.phase1, legacy.run, "seed {i}, {threads} threads: run stats");
            assert_eq!(*maint, legacy.repair, "seed {i}, {threads} threads: repair stats");
            assert_eq!(
                (rep.surviving, rep.dissolved, rep.added),
                (legacy.surviving, legacy.dissolved, legacy.added),
                "seed {i}, {threads} threads: counters"
            );
        }
    }
}

#[test]
fn plain_drivers_are_bit_identical() {
    for i in 0..SEEDS {
        let g = graph(i);
        for threads in THREADS {
            let config = SimConfig::local().seed(i).threads(threads);

            // Golden plain Israeli–Itai: the legacy body dispatched on
            // `threads` itself, directly over the engine primitives.
            let mut net = Network::new(&g, config);
            let out = net
                .execute(|v, graph| IiNode::new(graph.degree(v)), &RunSpec::default())
                .expect("golden run");
            let matching = matching_from_registers(&g, &out.outputs).expect("golden assembly");
            let iterations = usize::try_from(out.stats.rounds.div_ceil(3)).unwrap_or(usize::MAX);
            let totals = net.totals();

            let rep =
                run_mm(&IsraeliItai, &g, &RuntimeConfig::new().sim(config)).expect("runtime run");
            assert_eq!(
                matching.to_edge_vec(),
                rep.matching.to_edge_vec(),
                "seed {i}, {threads} threads: edges"
            );
            assert_eq!(totals, rep.totals, "seed {i}, {threads} threads: totals");
            assert_eq!(iterations, rep.iterations, "seed {i}, {threads} threads: iterations");

            // Golden Luby MIS, at `luby_mis`'s CONGEST(4 log n) on every
            // thread count.
            let congest = SimConfig::congest_for(g.node_count(), 4).seed(i).threads(threads);
            let mut net = Network::new(&g, congest);
            let out = net
                .execute(|v, graph| LubyNode::new(graph.degree(v)), &RunSpec::default())
                .expect("golden run");
            let mis = luby_mis(&g, i).expect("runtime run");
            assert_eq!(out.outputs, mis.in_mis, "seed {i}, {threads} threads: MIS");
            assert_eq!(out.stats, mis.stats, "seed {i}, {threads} threads: stats");
        }
    }
}

/// The runtime's single execute entry point must produce traces
/// byte-equal to the sequential engine's, for every thread count.
#[test]
fn runtime_traces_match_the_sequential_engine() {
    for i in 0..6u64 {
        let g = graph(i);
        let faults = fault_schedule(i, g.node_count());
        let churn = churn_schedule(i, &g);
        let make = |v: NodeId, graph: &dyn Topology| {
            Resilient::new(IiNode::new(graph.degree(v)), TransportCfg::default())
        };
        let spec = RunSpec { faults: &faults, churn: &churn, trace: true };

        let mut reference = Network::new(&g, SimConfig::local().seed(i));
        let mut ref_out = reference.execute(make, &spec).expect("reference run");
        let ref_trace = ref_out.trace.take().unwrap();

        for threads in THREADS {
            let mut net = Network::new(&g, SimConfig::local().seed(i).threads(threads));
            let mut out = net.execute(make, &spec).expect("runtime run");
            let trace = out.trace.take().unwrap();
            assert_eq!(out.outputs, ref_out.outputs, "seed {i}, {threads} threads: outputs");
            assert_eq!(out.stats, ref_out.stats, "seed {i}, {threads} threads: stats");
            assert_eq!(trace.events(), ref_trace.events(), "seed {i}, {threads} threads: trace");
        }
    }
}

/// The asynchronous backend through the same single entry point:
/// outputs, traces and stats (modulo the synchronizer's marker counter,
/// which only the async engine emits) byte-equal to the sequential
/// engine's for every delay model — and the full `run_mm` middleware
/// stack agrees end to end.
#[test]
fn runtime_matches_the_async_engine() {
    const DELAYS: [DelayModel; 3] = [
        DelayModel::Unit,
        DelayModel::LinkSkew { spread: 5 },
        DelayModel::Straggler { node: 3, slow: 7 },
    ];
    for i in 0..6u64 {
        let g = graph(i);
        let faults = fault_schedule(i, g.node_count());
        let churn = churn_schedule(i, &g);
        let make = |v: NodeId, graph: &dyn Topology| {
            Resilient::new(IiNode::new(graph.degree(v)), TransportCfg::default())
        };
        let spec = RunSpec { faults: &faults, churn: &churn, trace: true };

        let mut reference = Network::new(&g, SimConfig::local().seed(i));
        let mut ref_out = reference.execute(make, &spec).expect("reference run");
        let ref_trace = ref_out.trace.take().unwrap();

        for delay in DELAYS {
            let config = SimConfig::local().seed(i).backend(Backend::Async).delay(delay);
            let mut net = Network::new(&g, config);
            let mut out = net.execute(make, &spec).expect("runtime run");
            let trace = out.trace.take().unwrap();
            assert_eq!(out.outputs, ref_out.outputs, "seed {i}, {delay:?}: outputs");
            let mut stats = out.stats;
            assert!(stats.markers > 0, "seed {i}, {delay:?}: markers must be accounted");
            stats.markers = 0;
            assert_eq!(stats, ref_out.stats, "seed {i}, {delay:?}: stats");
            assert_eq!(trace.events(), ref_trace.events(), "seed {i}, {delay:?}: trace");
        }

        // Full middleware stack: main run + maintenance, both backends.
        let sim = SimConfig::local().seed(i);
        let base = RuntimeConfig::new()
            .sim(sim)
            .transport(TransportCfg::default())
            .faults(faults.clone())
            .churn(churn.clone())
            .maintain(true);
        let seq = run_mm(&IsraeliItai, &g, &base.clone()).expect("sequential stack");
        let asy = run_mm(
            &IsraeliItai,
            &g,
            &base.sim(sim.backend(Backend::Async).delay(DelayModel::LinkSkew { spread: 4 })),
        )
        .expect("async stack");
        assert_eq!(seq.matching.to_edge_vec(), asy.matching.to_edge_vec(), "seed {i}: edges");
        let mut p1 = asy.phase1;
        p1.markers = 0;
        assert_eq!(seq.phase1, p1, "seed {i}: phase-1 stats");
        assert_eq!(seq.maintain, asy.maintain, "seed {i}: maintenance stats");
    }
}

/// Error paths survive the refactor too: an exhausted round guard must
/// surface the same engine error through the runtime as through the
/// golden replicas.
#[test]
fn error_paths_are_bit_identical() {
    let g = graph(99);
    let plan = FaultPlan { loss: 0.3, dup: 0.1, reorder: 0.2, ..FaultPlan::default() };
    let sim = pipeline_sim(3, 2);
    let transport = TransportCfg::default();

    let legacy = golden_self_healing(&g, &plan, sim, transport).expect_err("guard must trip");
    let rep = run_mm(&IsraeliItai, &g, &self_healing_cfg(&plan, sim)).expect_err("guard must trip");
    assert_eq!(format!("{legacy:?}"), format!("{rep:?}"), "self-healing error");

    let legacy = golden_certified(&g, &plan, sim, transport).expect_err("guard must trip");
    let rep = run_mm(&IsraeliItai, &g, &certified_cfg(&plan, sim)).expect_err("guard must trip");
    assert_eq!(format!("{legacy:?}"), format!("{rep:?}"), "certified error");

    let churn = ChurnPlan::default();
    let legacy =
        golden_churn_tolerant(&g, &plan, &churn, sim, transport).expect_err("guard must trip");
    let rep =
        run_mm(&IsraeliItai, &g, &churn_cfg(&plan, &churn, sim)).expect_err("guard must trip");
    assert_eq!(format!("{legacy:?}"), format!("{rep:?}"), "churn error");

    let plain = SimConfig::local().seed(3).max_rounds(1);
    let legacy_plain = {
        let mut net = Network::new(&g, plain);
        CoreError::from(
            net.run(|v, graph| IiNode::new(graph.degree(v))).expect_err("guard must trip"),
        )
    };
    let rep_plain =
        run_mm(&IsraeliItai, &g, &RuntimeConfig::new().sim(plain)).expect_err("guard must trip");
    assert_eq!(format!("{legacy_plain:?}"), format!("{rep_plain:?}"), "plain-driver error");
}
