//! Committed golden-digest gate for every way of running a matching.
//!
//! Each row of `golden/run_mm_digests.txt` is one deterministic case,
//! reduced to a 64-bit FNV-1a digest of its observables, hashed field
//! by field: the final per-node registers, the excluded nodes, the
//! `phase1`/`repair`/`maintain` [`RunStats`], the engine totals, the
//! driver's iteration count, the sanitation counters and the verdicts
//! of both certificates. The rows are
//!
//! * every registry algorithm (`ii`, `bipartite:2`, `bipartite:3`,
//!   `weighted`, `luby`) × four middleware stacks (bare; repair under
//!   loss plus crashes; certify+repair under liars plus corruption;
//!   maintain under churn) × 8 seeds, all through [`run_mm`];
//! * one row per retired pre-runtime entry point (`legacy/*`: the plain
//!   Israeli–Itai, Luby MIS, bipartite (by `k` and by `ε`) and weighted
//!   drivers, the self-healing, churn and certified pipelines, and the
//!   standalone Israeli–Itai repair), run through the runtime (Luby's
//!   MIS, whose output is no match register, on the engine directly) at
//!   that entry point's exact configuration: CONGEST(4 log n) for
//!   Israeli–Itai, Luby and the bipartite driver, CONGEST(8 log n) for
//!   the weighted driver, and LOCAL with the default transport and a
//!   500 000-round guard for the repair, churn and certified pipelines;
//! * one row per rarely-run transport path (`transport/*`): Israeli–Itai
//!   over the resilient transport under duplication plus reordering,
//!   under a crash with recovery (a peer reboots and its neighbours
//!   reset their sessions), under an [`AdaptivePolicy`] on a lossy
//!   network, through a squall window of heavy loss and corruption, and
//!   under the same reboot with no repair layer (the bare run drops the
//!   one-sided claim a wiped register leaves); and the adaptive policy
//!   under the bipartite (`k = 3`) and weighted drivers, whose later
//!   phases are tombstone-wrapped, and under crashes with the repair
//!   layer on, whose resume run is a second executor.
//!
//! Every row is recomputed on the sequential, sharded (2 workers) and
//! asynchronous backends and must equal the committed digest on each.
//! The asynchronous engine's synchronizer `markers` counter is the one
//! field left out of the hash: it is the only observable that differs
//! between backends by design.
//!
//! There is no bless switch. A mismatch fails with the freshly computed
//! table in the message; replacing the committed file is a deliberate,
//! reviewed change of behaviour.

use dam_congest::{
    AdaptivePolicy, Backend, ChurnEvent, ChurnKind, ChurnPlan, FaultPlan, Network, RunSpec,
    RunStats, SimConfig, Squall, TotalStats, TransportCfg, TransportMode,
};
use dam_core::certify::{CertFault, Certificate};
use dam_core::israeli_itai::israeli_itai;
use dam_core::luby::LubyNode;
use dam_core::runtime::{
    repair_registers, run_mm, AlgoSpec, Algorithm, IsraeliItai, RunReport, RuntimeConfig,
};
use dam_core::{Bipartite, Weighted};
use dam_graph::weights::{randomize_weights, WeightDist};
use dam_graph::{generators, BitSet, EdgeId, Graph, Matching, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

const GOLDEN: &str = include_str!("golden/run_mm_digests.txt");
const SEEDS: u64 = 8;
const BACKENDS: [(&str, Backend, usize); 3] = [
    ("sequential", Backend::Sequential, 1),
    ("sharded2", Backend::Sharded, 2),
    ("async", Backend::Async, 1),
];

/// FNV-1a over little-endian 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn usize(&mut self, x: usize) {
        self.word(x as u64);
    }

    fn registers(&mut self, regs: &[Option<EdgeId>]) {
        self.usize(regs.len());
        for r in regs {
            match r {
                None => self.word(0),
                Some(e) => {
                    self.word(1);
                    self.usize(*e);
                }
            }
        }
    }

    fn nodes(&mut self, nodes: &[NodeId]) {
        self.usize(nodes.len());
        for &v in nodes {
            self.usize(v);
        }
    }

    fn flags(&mut self, flags: &[bool]) {
        self.usize(flags.len());
        for &f in flags {
            self.word(u64::from(f));
        }
    }

    /// Every [`RunStats`] counter except the asynchronous synchronizer's
    /// `markers` (see the module docs).
    fn stats(&mut self, s: &RunStats) {
        let RunStats {
            rounds,
            charged_rounds,
            messages,
            retransmissions,
            heartbeats,
            maintenance,
            markers: _,
            churn_events,
            churn_drops,
            total_bits,
            max_message_bits,
            violations,
            corruptions,
            equivocations,
            rejected,
            quarantined,
            suspected,
            restores,
            restores_degraded,
        } = *s;
        for x in [
            rounds,
            charged_rounds,
            messages,
            retransmissions,
            heartbeats,
            maintenance,
            churn_events,
            churn_drops,
            total_bits,
            max_message_bits as u64,
            violations,
            corruptions,
            equivocations,
            rejected,
            quarantined,
            suspected,
            restores,
            restores_degraded,
        ] {
            self.word(x);
        }
    }

    fn opt_stats(&mut self, s: Option<&RunStats>) {
        match s {
            None => self.word(0),
            Some(s) => {
                self.word(1);
                self.stats(s);
            }
        }
    }

    fn totals(&mut self, t: &TotalStats) {
        self.usize(t.runs);
        self.stats(&t.stats);
    }

    fn certificate(&mut self, c: Option<&Certificate>) {
        let Some(c) = c else { return self.word(0) };
        self.word(1);
        self.usize(c.verdicts.len());
        for v in &c.verdicts {
            self.word(match v {
                None => 0,
                Some(CertFault::InvalidRegister) => 1,
                Some(CertFault::Asymmetric) => 2,
                Some(CertFault::PartnerAbsent) => 3,
                Some(CertFault::Uncovered) => 4,
            });
        }
        self.nodes(&c.flagged);
        self.usize(c.checked);
        self.usize(c.matched);
        self.word(c.detection_rounds);
        self.stats(&c.stats);
    }

    /// Every observable of one [`run_mm`] report.
    fn report(&mut self, r: &RunReport) {
        self.registers(&r.registers);
        self.nodes(&r.excluded);
        self.stats(&r.phase1);
        self.opt_stats(r.repair.as_ref());
        self.opt_stats(r.maintain.as_ref());
        self.totals(&r.totals);
        self.usize(r.iterations);
        for c in [r.surviving, r.dissolved, r.added, r.repair_touched] {
            self.usize(c);
        }
        self.certificate(r.initial.as_ref());
        self.certificate(r.recheck.as_ref());
    }
}

/// Per-node registers of an assembled matching.
fn registers_of(g: &Graph, m: &Matching) -> Vec<Option<EdgeId>> {
    (0..g.node_count()).map(|v| m.matched_edge(v)).collect()
}

/// The corpus graph of a registry algorithm: bipartite for the
/// bipartite driver, randomly weighted for the weighted driver, plain
/// G(n, p) otherwise.
fn corpus_graph(algo: &str, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(0xD16E_5700 ^ seed);
    if algo.starts_with("bipartite") {
        return generators::bipartite_gnp(10, 10, 0.25, &mut rng);
    }
    let base = generators::gnp(20, 0.2, &mut rng);
    if algo == "weighted" {
        randomize_weights(&base, WeightDist::Uniform { lo: 0.2, hi: 5.0 }, &mut rng)
    } else {
        base
    }
}

/// The four middleware stacks, each on top of `sim`.
fn stack(name: &str, g: &Graph, seed: u64, sim: SimConfig) -> RuntimeConfig {
    let n = g.node_count();
    let v = seed as usize;
    let base = RuntimeConfig::new().sim(sim);
    match name {
        "bare" => base,
        "repair" => base
            .transport(TransportCfg::default())
            .faults(FaultPlan {
                loss: 0.05,
                crashes: vec![(v % n, 2), ((v + 7) % n, 5)],
                ..FaultPlan::default()
            })
            .repair(true),
        "certify" => base
            .transport(TransportCfg::default())
            .faults(
                FaultPlan::default().with_liars(vec![(v + 1) % n, (v + 4) % n]).with_corrupt(0.02),
            )
            .certify(true)
            .repair(true),
        "maintain" => base
            .transport(TransportCfg::default())
            .churn(ChurnPlan::events(vec![
                ChurnEvent { round: 2, kind: ChurnKind::EdgeDown { edge: v % g.edge_count() } },
                ChurnEvent { round: 4, kind: ChurnKind::Leave { node: (v + 3) % n } },
            ]))
            .maintain(true),
        other => unreachable!("unknown stack {other}"),
    }
}

/// The legacy CONGEST(`words` log n) configuration on `backend`.
fn congest(g: &Graph, words: usize, seed: u64, backend: Backend, threads: usize) -> SimConfig {
    SimConfig::congest_for(g.node_count(), words).seed(seed).backend(backend).threads(threads)
}

/// One row per retired pre-runtime entry point, run through the
/// runtime at that entry point's exact legacy configuration and hashing
/// exactly the fields its report exposed.
fn legacy_rows(backend: Backend, threads: usize) -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    let mut push = |name: &str, d: Digest| rows.push((format!("legacy/{name}"), d.0));
    let g = corpus_graph("ii", 3);
    let bip = corpus_graph("bipartite", 3);
    let wg = corpus_graph("weighted", 3);

    // The plain drivers: matching, engine totals, iterations.
    let bare = |algo: &dyn Algorithm, g: &Graph, words: usize| {
        let rep =
            run_mm(algo, g, &RuntimeConfig::new().sim(congest(g, words, 3, backend, threads)))
                .unwrap();
        let mut d = Digest::new();
        d.registers(&registers_of(g, &rep.matching));
        d.totals(&rep.totals);
        d.usize(rep.iterations);
        d
    };
    push("ii-congest4", bare(&IsraeliItai, &g, 4));

    let mut d = Digest::new();
    let sim = congest(&g, 4, 3, backend, threads);
    let mis = Network::new(&g, sim)
        .execute(|v, graph| LubyNode::new(graph.degree(v)), &RunSpec::default())
        .unwrap();
    d.flags(&mis.outputs);
    d.stats(&mis.stats);
    push("luby-mis-congest4", d);

    push("bipartite-k3-congest4", bare(&Bipartite { k: 3, ..Bipartite::default() }, &bip, 4));
    // ε = 0.25: k = ⌈1/ε⌉ = 4.
    push("bipartite-eps0.25-congest4", bare(&Bipartite { k: 4, ..Bipartite::default() }, &bip, 4));
    push("weighted-congest8", bare(&Weighted { eps: 0.1, ..Weighted::default() }, &wg, 8));

    // The three pipelines and the standalone repair: LOCAL, default
    // transport, 500 000-round guard.
    let pipeline_sim =
        SimConfig::local().seed(3).max_rounds(500_000).backend(backend).threads(threads);
    let pipeline = RuntimeConfig::new().sim(pipeline_sim).transport(TransportCfg::default());
    let crashy =
        FaultPlan { loss: 0.05, dup: 0.05, crashes: vec![(2, 3), (11, 5)], ..FaultPlan::default() };

    let mut d = Digest::new();
    let r = run_mm(&IsraeliItai, &g, &pipeline.clone().faults(crashy).repair(true)).unwrap();
    d.registers(&registers_of(&g, &r.matching));
    d.nodes(&r.excluded);
    for c in [r.surviving, r.dissolved, r.added] {
        d.usize(c);
    }
    d.stats(&r.phase1);
    d.stats(r.repair.as_ref().unwrap());
    push("self-healing-pipeline", d);

    let churn = ChurnPlan::events(vec![
        ChurnEvent { round: 3, kind: ChurnKind::Leave { node: 5 } },
        ChurnEvent { round: 6, kind: ChurnKind::EdgeDown { edge: 1 } },
    ]);
    let lossy = FaultPlan::lossy(0.05);
    let mut d = Digest::new();
    let r = run_mm(
        &IsraeliItai,
        &g,
        &pipeline.clone().faults(lossy.clone()).churn(churn).maintain(true),
    )
    .unwrap();
    d.registers(&registers_of(&g, &r.matching));
    for c in [r.surviving, r.dissolved, r.added] {
        d.usize(c);
    }
    d.stats(&r.phase1);
    d.stats(r.maintain.as_ref().unwrap());
    push("churn-pipeline", d);

    let hostile = FaultPlan::lossy(0.05).with_corrupt(0.02).with_liars(vec![1, 6]);
    let mut d = Digest::new();
    let r = run_mm(&IsraeliItai, &g, &pipeline.faults(hostile).certify(true).repair(true)).unwrap();
    d.registers(&registers_of(&g, &r.matching));
    d.nodes(&r.excluded);
    for c in [r.surviving, r.dissolved, r.added, r.repair_touched] {
        d.usize(c);
    }
    d.stats(&r.phase1);
    d.opt_stats(r.repair.as_ref());
    d.certificate(r.initial.as_ref());
    d.certificate(r.recheck.as_ref());
    push("certified-pipeline", d);

    // Standalone repair of an Israeli–Itai matching after deaths and a
    // one-sided claim, under link loss.
    let base = israeli_itai(&g, 3).unwrap();
    let mut regs = registers_of(&g, &base.matching);
    let alive: Vec<bool> = (0..g.node_count()).map(|v| v % 6 != 1).collect();
    if let Some(v) = (0..g.node_count()).find(|&v| alive[v] && regs[v].is_none() && g.degree(v) > 0)
    {
        regs[v] = Some(g.port(v, 0).1);
    }
    let mut d = Digest::new();
    let r = repair_registers(
        &IsraeliItai,
        &g,
        &regs,
        &BitSet::from_bools(&alive),
        &lossy,
        Some(TransportMode::Fixed(TransportCfg::default())),
        pipeline_sim,
    )
    .unwrap();
    d.registers(&registers_of(&g, &r.matching));
    for c in [r.surviving, r.dissolved, r.added] {
        d.usize(c);
    }
    d.stats(&r.stats);
    push("standalone-repair", d);

    rows
}

/// One row per transport path the stacks above never reach: Israeli–Itai
/// (and, under the adaptive policy, the bipartite and weighted drivers)
/// over the resilient transport on a corpus graph, LOCAL with a
/// 500 000-round guard, hashing the full report.
fn transport_rows(backend: Backend, threads: usize) -> Vec<(String, u64)> {
    let sim = SimConfig::local().seed(5).max_rounds(500_000).backend(backend).threads(threads);
    let transported = RuntimeConfig::new().sim(sim).transport(TransportCfg::default());
    let adaptive = RuntimeConfig::new().sim(sim).adaptive(AdaptivePolicy::default());
    let squall = Squall { from_round: 3, until_round: 14, loss: 0.3, corrupt: 0.05 };
    let reboots = FaultPlan::crashes(vec![(4, 2), (9, 3)]).with_recoveries(vec![(4, 5), (9, 30)]);
    // Node 3 crashes for good, so the multi-phase drivers' later phases
    // run it as a tombstone.
    let crashed =
        FaultPlan { loss: 0.1, corrupt: 0.02, crashes: vec![(3, 2)], ..FaultPlan::default() };
    let ii = AlgoSpec::IsraeliItai;
    let cases = [
        (
            "dup-reorder",
            ii,
            transported.clone().faults(FaultPlan::default().with_dup(0.15).with_reorder(0.2)),
        ),
        ("reboot", ii, transported.clone().faults(reboots.clone()).repair(true)),
        ("adaptive", ii, adaptive.clone().faults(FaultPlan::lossy(0.15).with_corrupt(0.03))),
        ("squall", ii, transported.clone().faults(FaultPlan::lossy(0.02).with_squall(squall))),
        ("reboot-bare", ii, transported.faults(reboots)),
        (
            "adaptive-bipartite:3",
            AlgoSpec::Bipartite { k: 3 },
            adaptive.clone().faults(crashed.clone()),
        ),
        ("adaptive-weighted", AlgoSpec::Weighted { eps: 0.1 }, adaptive.clone().faults(crashed)),
        // The repair layer's resume run is a second executor.
        (
            "adaptive-repair",
            ii,
            adaptive
                .faults(FaultPlan {
                    loss: 0.05,
                    crashes: vec![(3, 2), (12, 4)],
                    ..FaultPlan::default()
                })
                .repair(true),
        ),
    ];
    cases
        .into_iter()
        .map(|(name, spec, cfg)| {
            let algo = spec.build();
            let g = corpus_graph(algo.name(), 5);
            let rep = run_mm(&*algo, &g, &cfg)
                .unwrap_or_else(|e| panic!("transport/{name} on {backend:?}: {e}"));
            let mut d = Digest::new();
            d.report(&rep);
            (format!("transport/{name}"), d.0)
        })
        .collect()
}

/// The full table on one backend, in committed order.
fn table(backend: Backend, threads: usize) -> Vec<(String, u64)> {
    let algos = [
        ("ii", AlgoSpec::IsraeliItai),
        ("bipartite:2", AlgoSpec::Bipartite { k: 2 }),
        ("bipartite:3", AlgoSpec::Bipartite { k: 3 }),
        ("weighted", AlgoSpec::Weighted { eps: 0.1 }),
        ("luby", AlgoSpec::LubyMatching),
    ];
    let mut rows = Vec::new();
    for (name, spec) in algos {
        let algo = spec.build();
        for st in ["bare", "repair", "certify", "maintain"] {
            for seed in 0..SEEDS {
                let g = corpus_graph(name, seed);
                // 8 words cover the weighted driver's 64-bit gains too.
                let sim = congest(&g, 8, seed, backend, threads);
                let rep = run_mm(&*algo, &g, &stack(st, &g, seed, sim))
                    .unwrap_or_else(|e| panic!("{name}/{st}/s{seed} on {backend:?}: {e}"));
                let mut d = Digest::new();
                d.report(&rep);
                rows.push((format!("{name}/{st}/s{seed}"), d.0));
            }
        }
    }
    rows.extend(legacy_rows(backend, threads));
    rows.extend(transport_rows(backend, threads));
    rows
}

fn render(rows: &[(String, u64)]) -> String {
    let mut out = String::from(
        "# run_mm digest gate: <case> <fnv1a-64>. Recomputed on the sequential,\n\
         # sharded(2) and async backends by tests/run_mm_digests.rs.\n",
    );
    for (name, d) in rows {
        out.push_str(&format!("{name} {d:016x}\n"));
    }
    out
}

#[test]
fn committed_digests_hold_on_every_backend() {
    let committed: Vec<(&str, &str)> = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.split_once(' ').expect("`<case> <digest>` row"))
        .collect();
    for (label, backend, threads) in BACKENDS {
        let fresh = table(backend, threads);
        let diff: Vec<&str> = fresh
            .iter()
            .zip(&committed)
            .filter(|((name, d), (cname, cd))| name != cname || format!("{d:016x}") != *cd)
            .map(|((name, _), _)| name.as_str())
            .collect();
        assert!(
            diff.is_empty() && fresh.len() == committed.len(),
            "{label}: {} of {} rows differ from golden/run_mm_digests.txt \
             (committed {} rows): {diff:?}\n--- fresh table ---\n{}",
            diff.len(),
            fresh.len(),
            committed.len(),
            render(&fresh)
        );
    }
}
