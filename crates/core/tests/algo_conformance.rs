//! The cross-algorithm conformance harness: one test surface, driven by
//! `dam_core::runtime::conformance::registry()`, that machine-checks the
//! full [`dam_core::Algorithm`] contract for every portfolio
//! implementor. A future implementor gets every leg below by adding one
//! registry entry.
//!
//! Legs:
//! 1. Bit-identity to the legacy code path (golden replica) across 16
//!    seeds × threads {1, 2, 4} × all three backends.
//! 2. Family invariants ([`Kind`]) at quiescent fault-free points,
//!    against exact oracles.
//! 3. Fault + churn schedules through repair and maintenance: the final
//!    matching is valid and maximal on the final topology, and
//!    bit-stable across thread counts. (Maintenance is Israeli–Itai
//!    based: it restores *maximality*, not the family ratio — see
//!    DESIGN §Algorithm portfolio.)
//! 4. Certify → repair → re-verify round-trips under register lies.
//! 5. Resume-from-sanitized-registers: a fixpoint for the maximal and
//!    bipartite families, weight-monotone for the weighted driver; and
//!    on a residual graph after deaths, valid + maximal-on-residual
//!    where the family promises it.
//! 6. Telemetry non-perturbation: a `RecordingSink` never changes
//!    outputs (PR 7's contract, extended to the whole portfolio).
//!
//! CI runs this file once per implementor via the `ALGO_CONFORMANCE`
//! environment filter (prefix match on entry names).

use dam_congest::transport::TransportCfg;
use dam_congest::{
    Backend, ChurnEvent, ChurnKind, ChurnPlan, FaultPlan, RecordingSink, SimConfig, SinkHandle,
};
use dam_core::maintain::is_maximal_on_present;
use dam_core::repair::is_maximal_on_residual;
use dam_core::runtime::conformance::{filtered_registry, Entry, Kind};
use dam_core::runtime::{
    repair_registers, run_mm, Algorithm, Exec, IsraeliItai, MainRun, RuntimeConfig,
};
use dam_core::{CoreError, Weighted};
use dam_graph::weights::{randomize_weights, WeightDist};
use dam_graph::{generators, BitSet, EdgeId, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The corpus graph an entry is exercised on: bipartite for the
/// bipartite family, weighted for the weighted family, plain G(n, p)
/// otherwise. Small enough for the exact oracles, dense enough to have
/// augmenting structure.
fn corpus_graph(entry: &Entry, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(0xC0FF_EE00 ^ seed);
    if entry.bipartite_input {
        return generators::bipartite_gnp(8, 8, 0.25, &mut rng);
    }
    let base = generators::gnp(16, 0.2, &mut rng);
    if matches!(entry.kind, Kind::WeightedHalf { .. }) {
        randomize_weights(&base, WeightDist::Uniform { lo: 0.2, hi: 5.0 }, &mut rng)
    } else {
        base
    }
}

fn sim_for(g: &Graph, seed: u64) -> SimConfig {
    // 8 words cover the weighted driver's 64-bit gain messages too.
    SimConfig::congest_for(g.node_count(), 8).seed(seed)
}

/// Leg 1: every implementor, on every backend and thread count, is
/// bit-identical to its legacy code-path replica.
#[test]
fn portfolio_is_bit_identical_to_legacy_goldens() {
    const VARIANTS: &[(Backend, usize)] = &[
        (Backend::Sequential, 1),
        (Backend::Sharded, 2),
        (Backend::Sharded, 4),
        (Backend::Async, 1),
    ];
    for entry in filtered_registry() {
        let algo = entry.spec.build();
        for seed in 0..16u64 {
            let g = corpus_graph(&entry, seed);
            let sim = sim_for(&g, seed);
            let want = (entry.golden)(&g, sim).unwrap();
            for &(backend, threads) in VARIANTS {
                let cfg = RuntimeConfig::new().sim(sim.threads(threads).backend(backend));
                let rep = run_mm(&*algo, &g, &cfg).unwrap();
                assert_eq!(
                    rep.registers, want,
                    "{}: seed {seed}, {backend:?} x{threads} diverged from the legacy golden",
                    entry.name
                );
            }
        }
    }
}

/// Leg 2: quiescent fault-free outputs meet their family's bound
/// against the exact oracle.
#[test]
fn quiescent_outputs_meet_family_invariants() {
    for entry in filtered_registry() {
        let algo = entry.spec.build();
        for seed in 100..106u64 {
            let g = corpus_graph(&entry, seed);
            let cfg = RuntimeConfig::new().sim(sim_for(&g, seed));
            let rep = run_mm(&*algo, &g, &cfg).unwrap();
            entry
                .kind
                .check_quiescent(&g, &rep.matching)
                .unwrap_or_else(|e| panic!("{}: seed {seed}: {e}", entry.name));
        }
    }
}

/// Leg 3: a fault + churn schedule through the full pipeline ends valid
/// and maximal on the final topology, identically across thread counts.
/// Loss is always paired with the resilient transport (bare lossy runs
/// of a free node can livelock by design).
#[test]
fn faulted_runs_end_valid_and_maximal_after_maintenance() {
    for entry in filtered_registry() {
        let algo = entry.spec.build();
        for seed in 200..203u64 {
            let g = corpus_graph(&entry, seed);
            let n = g.node_count();
            let faults = FaultPlan { loss: 0.02, ..FaultPlan::crashes(vec![(1, 3)]) };
            let churn = ChurnPlan::events(vec![
                ChurnEvent { round: 2, kind: ChurnKind::EdgeDown { edge: 0 } },
                ChurnEvent { round: 4, kind: ChurnKind::Leave { node: n - 1 } },
            ]);
            let cfg = RuntimeConfig::new()
                .sim(sim_for(&g, seed))
                .transport(TransportCfg::default())
                .faults(faults)
                .churn(churn)
                .repair(true)
                .maintain(true);
            let rep = run_mm(&*algo, &g, &cfg).unwrap();
            rep.matching.validate(&g).unwrap();
            assert!(
                is_maximal_on_present(&g, &rep.matching, &rep.node_present, &rep.edge_present),
                "{}: seed {seed}: not maximal on the final topology",
                entry.name
            );
            for e in rep.matching.to_edge_vec() {
                let (a, b) = g.endpoints(e);
                assert!(
                    rep.node_present[a] && rep.node_present[b] && rep.edge_present[e],
                    "{}: seed {seed}: matched edge {e} outside the final topology",
                    entry.name
                );
            }
            // Determinism and thread-independence of the whole pipeline.
            let again = run_mm(&*algo, &g, &cfg).unwrap();
            assert_eq!(rep.registers, again.registers, "{}: nondeterministic", entry.name);
            let par = run_mm(&*algo, &g, &cfg.clone().sim(cfg.sim.threads(4))).unwrap();
            assert_eq!(
                rep.registers, par.registers,
                "{}: thread count changed the pipeline result",
                entry.name
            );
        }
    }
}

/// Leg 4: register lies are detected by the certification layer, and a
/// repair re-certifies, for every implementor.
#[test]
fn certify_repair_recertify_round_trips() {
    for entry in filtered_registry() {
        let algo = entry.spec.build();
        let g = corpus_graph(&entry, 7);
        let cfg = RuntimeConfig::new()
            .sim(sim_for(&g, 7))
            .faults(FaultPlan::default().with_liars(vec![0, 3]))
            .certify(true)
            .repair(true);
        let rep = run_mm(&*algo, &g, &cfg).unwrap();
        assert!(rep.detected(), "{}: lies were not detected", entry.name);
        assert!(rep.certified(), "{}: repair did not re-certify", entry.name);
        assert!(rep.recheck.is_some());
        rep.matching.validate(&g).unwrap();
    }
}

/// Leg 5a: resume from an already-quiescent register state. Maximal and
/// bipartite implementors must return it unchanged (no augmenting
/// structure remains); the weighted driver must stay valid and
/// weight-monotone.
#[test]
fn resume_from_quiescent_registers_is_idempotent() {
    for entry in filtered_registry() {
        let algo = entry.spec.build();
        for seed in 300..304u64 {
            let g = corpus_graph(&entry, seed);
            let sim = sim_for(&g, seed);
            let rep = run_mm(&*algo, &g, &RuntimeConfig::new().sim(sim)).unwrap();
            let alive = BitSet::filled(g.node_count(), true);
            let rr = repair_registers(
                &*algo,
                &g,
                &rep.registers,
                &alive,
                &FaultPlan::default(),
                None,
                sim,
            )
            .unwrap();
            assert_eq!(rr.dissolved, 0, "{}: quiescent registers were dissolved", entry.name);
            if entry.resume_fixpoint {
                assert_eq!(
                    rr.matching.to_edge_vec(),
                    rep.matching.to_edge_vec(),
                    "{}: seed {seed}: resume from a quiescent state is not a fixpoint",
                    entry.name
                );
                assert_eq!(rr.added, 0);
            } else {
                rr.matching.validate(&g).unwrap();
                assert!(
                    rr.matching.weight(&g) + 1e-9 >= rep.matching.weight(&g),
                    "{}: seed {seed}: resume decreased the matching weight",
                    entry.name
                );
            }
        }
    }
}

/// Leg 5b: resume on a residual graph after deaths: the healed matching
/// is valid, avoids the dead, keeps the surviving edges' guarantee
/// (maximal-on-residual for the maximal and bipartite families, weight
/// no worse than the surviving matching for the weighted family).
#[test]
fn resume_heals_register_damage_after_deaths() {
    for entry in filtered_registry() {
        let algo = entry.spec.build();
        for seed in 400..403u64 {
            let g = corpus_graph(&entry, seed);
            let sim = sim_for(&g, seed);
            let rep = run_mm(&*algo, &g, &RuntimeConfig::new().sim(sim)).unwrap();
            let mut alive = BitSet::filled(g.node_count(), true);
            alive.set(0, false);
            alive.set(g.node_count() / 2, false);
            let surviving_weight: f64 = rep
                .matching
                .to_edge_vec()
                .iter()
                .filter(|&&e| {
                    let (a, b) = g.endpoints(e);
                    alive[a] && alive[b]
                })
                .map(|&e| g.weight(e))
                .sum();
            let rr = repair_registers(
                &*algo,
                &g,
                &rep.registers,
                &alive,
                &FaultPlan::default(),
                None,
                sim,
            )
            .unwrap();
            rr.matching.validate(&g).unwrap();
            for e in rr.matching.to_edge_vec() {
                let (a, b) = g.endpoints(e);
                assert!(alive[a] && alive[b], "{}: healed matching touches the dead", entry.name);
            }
            match entry.kind {
                Kind::Maximal | Kind::BipartiteApprox { .. } => {
                    // k ≥ 2 exhausts length-1 paths, so both families
                    // promise maximality on the residual graph.
                    assert!(
                        is_maximal_on_residual(&g, &rr.matching, &alive.to_bools()),
                        "{}: seed {seed}: healed matching not maximal on the residual graph",
                        entry.name
                    );
                }
                Kind::WeightedHalf { .. } => {
                    assert!(
                        rr.matching.weight(&g) + 1e-9 >= surviving_weight,
                        "{}: seed {seed}: healing lost weight over the surviving matching",
                        entry.name
                    );
                }
            }
        }
    }
}

/// Leg 6 (satellite 4): attaching a `RecordingSink` never perturbs any
/// implementor — outputs, registers, and stats are bit-identical, and
/// the sink records one sample per engine round of the main run.
#[test]
fn telemetry_sink_does_not_perturb_any_implementor() {
    for entry in filtered_registry() {
        let algo = entry.spec.build();
        let g = corpus_graph(&entry, 11);
        let base = RuntimeConfig::new().sim(sim_for(&g, 11));
        let plain = run_mm(&*algo, &g, &base.clone()).unwrap();
        let sink = Arc::new(RecordingSink::new());
        let observed = run_mm(&*algo, &g, &base.stats_sink(SinkHandle::new(sink.clone()))).unwrap();
        assert_eq!(plain.registers, observed.registers, "{}: sink perturbed registers", entry.name);
        assert_eq!(
            plain.matching.to_edge_vec(),
            observed.matching.to_edge_vec(),
            "{}: sink perturbed the matching",
            entry.name
        );
        assert_eq!(plain.phase1, observed.phase1, "{}: sink perturbed stats", entry.name);
        assert_eq!(plain.totals, observed.totals);
        assert_eq!(
            plain.iterations, observed.iterations,
            "{}: sink perturbed iterations",
            entry.name
        );
        assert_eq!(plain.repair, observed.repair, "{}: sink perturbed repair", entry.name);
        assert_eq!(plain.maintain, observed.maintain, "{}: sink perturbed maintain", entry.name);
        assert!(!sink.samples().is_empty(), "{}: sink recorded nothing", entry.name);
    }
}

/// Algorithm 5 resumed from fixed registers in place of a fresh run, so
/// that a main run, which may carry a stats sink, drives a resume.
struct ResumeFrom<'a> {
    algo: Weighted,
    start: &'a [Option<EdgeId>],
}

impl Algorithm for ResumeFrom<'_> {
    fn name(&self) -> &'static str {
        "weighted-resumed"
    }

    fn run(&self, exec: &mut Exec<'_>) -> Result<MainRun, CoreError> {
        self.algo.resume(exec, self.start)
    }

    fn resume(
        &self,
        exec: &mut Exec<'_>,
        registers: &[Option<EdgeId>],
    ) -> Result<MainRun, CoreError> {
        self.algo.resume(exec, registers)
    }
}

/// Leg 6b: the weighted driver charges the iterations after its
/// fixpoint instead of running them, and a stats sink makes it run them
/// all. Resumed from Israeli–Itai's maximal matching on a weighted
/// G(n, p), its wraps keep changing the matching after iteration 2 and
/// stop before iteration 9 (iteration 6 is the fixpoint here), so a bare
/// run charges iterations that follow real wraps. It must equal the run
/// with a sink bit for bit, on the sequential and the sharded backend.
#[test]
fn weighted_resume_charges_what_execution_returns() {
    if !filtered_registry().iter().any(|e| e.name == "weighted") {
        return;
    }
    let mut rng = StdRng::seed_from_u64(0xC0FF_EE00);
    let base = generators::gnp(60, 0.1, &mut rng);
    let g = randomize_weights(&base, WeightDist::Uniform { lo: 0.2, hi: 5.0 }, &mut rng);
    let sim = sim_for(&g, 13);
    let start = run_mm(&IsraeliItai, &g, &RuntimeConfig::new().sim(sim)).unwrap().registers;
    // Nine iterations at the default ε and δ = ½; seven at ε = ¼; two
    // at ε = δ = 1.
    let nine = ResumeFrom { algo: Weighted::default(), start: &start };
    let seven = ResumeFrom { algo: Weighted { eps: 0.25, ..Weighted::default() }, start: &start };
    let two = ResumeFrom {
        algo: Weighted { eps: 1.0, delta: 1.0, ..Weighted::default() },
        start: &start,
    };
    for (backend, threads) in [(Backend::Sequential, 1), (Backend::Sharded, 2)] {
        let cfg = RuntimeConfig::new().sim(sim.backend(backend).threads(threads));
        let executed = |algo: &ResumeFrom<'_>| {
            let sink = SinkHandle::new(Arc::new(RecordingSink::new()));
            run_mm(algo, &g, &cfg.clone().stats_sink(sink)).unwrap()
        };
        let charged = run_mm(&nine, &g, &cfg).unwrap();
        let full = executed(&nine);
        assert_eq!(charged.registers, full.registers, "{backend:?}");
        assert_eq!(charged.phase1, full.phase1, "{backend:?}");
        assert_eq!(charged.totals, full.totals, "{backend:?}");
        assert_eq!(charged.iterations, full.iterations, "{backend:?}");
        assert_ne!(
            executed(&two).registers,
            full.registers,
            "{backend:?}: fixpoint by iteration 2"
        );
        assert_eq!(executed(&seven).registers, full.registers, "{backend:?}: no fixpoint by 8");
    }
}

/// An implementor that is `LubyMatching` in everything but name — for
/// the satellite-2 regression below.
struct Renamed;

impl Algorithm for Renamed {
    fn name(&self) -> &'static str {
        "renamed-luby"
    }

    fn run(&self, exec: &mut Exec<'_>) -> Result<MainRun, CoreError> {
        dam_core::LubyMatching.run(exec)
    }

    fn resume(
        &self,
        exec: &mut Exec<'_>,
        registers: &[Option<EdgeId>],
    ) -> Result<MainRun, CoreError> {
        dam_core::LubyMatching.resume(exec, registers)
    }
}

/// Satellite-2 regression: the repair phase's randomness is keyed by
/// `Algorithm::name()`. Two drivers with identical phase structure but
/// different names draw *different* streams from the same master seed;
/// the same driver replays identically.
#[test]
fn repair_randomness_is_domain_separated_by_algorithm_name() {
    let mut rng = StdRng::seed_from_u64(99);
    let g = generators::gnp(40, 0.15, &mut rng);
    let mut alive = BitSet::filled(g.node_count(), true);
    alive.set(5, false);
    let registers = vec![None; g.node_count()];
    let sim = SimConfig::congest_for(g.node_count(), 8).seed(7);
    let run = |algo: &dyn Algorithm| {
        repair_registers(algo, &g, &registers, &alive, &FaultPlan::default(), None, sim).unwrap()
    };
    let a = run(&dam_core::LubyMatching);
    let b = run(&Renamed);
    let c = run(&dam_core::LubyMatching);
    assert_eq!(a.matching.to_edge_vec(), c.matching.to_edge_vec(), "same name must replay");
    assert_eq!(a.stats, c.stats);
    assert!(
        a.matching.to_edge_vec() != b.matching.to_edge_vec() || a.stats != b.stats,
        "different algorithm names on the same seed must draw independent randomness"
    );
}
