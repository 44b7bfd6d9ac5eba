//! The two workloads: how each builds its input from the seed, what
//! one instance runs, and how an instance's output is checked.

use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use dam_congest::engine::ChurnEvent;
use dam_congest::rng::splitmix64;
use dam_congest::{ChurnKind, ChurnPlan, FaultPlan, RunStats, SimConfig, TransportCfg};
use dam_core::checkpoint::CheckpointCfg;
use dam_core::runtime::{run_mm, AlgoSpec, Algorithm, RunReport, RuntimeConfig};
use dam_core::CoreError;
use dam_graph::{blossom, materialize, Graph, ImplicitTopology, Topology};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BareTorus,
    PortfolioHardened,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::BareTorus, Workload::PortfolioHardened];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BareTorus => "bare-torus",
            Workload::PortfolioHardened => "portfolio-hardened-gnp",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The drivers one instance runs bare, in order, on the main graph.
    pub fn drivers(self) -> Vec<AlgoSpec> {
        match self {
            Workload::BareTorus => vec![AlgoSpec::IsraeliItai, AlgoSpec::Bipartite { k: 3 }],
            Workload::PortfolioHardened => {
                vec![AlgoSpec::IsraeliItai, AlgoSpec::LubyMatching, AlgoSpec::Weighted { eps: 0.1 }]
            }
        }
    }
}

/// Input sizes and repetition counts. [`Scale::full`] is what the
/// benchmark measures; [`Scale::tiny`] is the self-test's.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub torus_side: usize,
    /// Nodes of the graph the hardened run uses.
    pub churn_nodes: usize,
    pub portfolio_nodes: usize,
    /// Distinct instances per workload; the timed loop cycles through
    /// them, so every instance after the first pass is a re-run whose
    /// counters must repeat bit for bit.
    pub instances: usize,
    /// Input builds per run; `setup_s` is their median.
    pub setup_repeats: usize,
}

impl Scale {
    pub fn full(w: Workload) -> Scale {
        let (instances, setup_repeats) = match w {
            Workload::BareTorus => (8, 41),
            Workload::PortfolioHardened => (4, 5),
        };
        Scale {
            torus_side: 158,
            churn_nodes: 1_500,
            portfolio_nodes: 20_000,
            instances,
            setup_repeats,
        }
    }

    pub fn tiny() -> Scale {
        Scale {
            torus_side: 8,
            churn_nodes: 300,
            portfolio_nodes: 200,
            instances: 2,
            setup_repeats: 1,
        }
    }
}

/// One `run_mm` call of an instance: the driver, its configuration and
/// the input graph it runs on (an index into [`Input::graphs`]).
#[derive(Clone)]
pub struct Run {
    pub spec: AlgoSpec,
    pub cfg: RuntimeConfig,
    pub graph: usize,
}

impl Run {
    /// Whether the run goes through the hardened middleware stack.
    pub fn hardened(&self) -> bool {
        self.cfg.transport.is_some()
    }
}

/// One instance: a seed and the runs of the workload's batch.
pub struct Instance {
    pub seed: u64,
    pub runs: Vec<Run>,
}

/// One input graph.
pub struct InputGraph {
    /// The topology the engine runs on, when it is not the CSR graph.
    implicit: Option<ImplicitTopology>,
    /// The CSR graph: the engine's input on gnp, the checker's twin of
    /// the implicit torus.
    pub csr: Graph,
    /// Exact maximum matching size of the whole graph, computed once.
    full_optimum: OnceCell<usize>,
}

impl InputGraph {
    pub fn topo(&self) -> &dyn Topology {
        match &self.implicit {
            Some(t) => t,
            None => &self.csr,
        }
    }
}

/// A workload's input, built before the first timed instance.
pub struct Input {
    pub workload: Workload,
    /// The main graph first; the hardened run's graph, if any, second.
    pub graphs: Vec<InputGraph>,
    pub instances: Vec<Instance>,
    /// Wall time of the topology builds and of `materialize`.
    pub build_s: f64,
    pub materialize_s: f64,
}

impl Input {
    /// The main graph's topology.
    pub fn topo(&self) -> &dyn Topology {
        self.graphs[0].topo()
    }

    /// Every graph's topology, indexed as [`Run::graph`].
    pub fn topos(&self) -> Vec<&dyn Topology> {
        self.graphs.iter().map(InputGraph::topo).collect()
    }

    /// Nodes over every input graph.
    pub fn nodes(&self) -> usize {
        self.graphs.iter().map(|g| g.csr.node_count()).sum()
    }
}

/// Uniform draw in `(0, 1]` from a 64-bit hash.
fn unit(h: u64) -> f64 {
    ((h >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// Builds the workload's input for `seed`.
///
/// The graph and the list of instance seeds are fixed per workload;
/// `seed` only rotates the order in which the instances run. Every run
/// covers the whole list at least once and the cost metrics are taken
/// over that pass, so they repeat exactly across seeds, and two runs
/// differ in timing only by what the host does.
pub fn build(w: Workload, seed: u64, scale: &Scale, scratch: &Path) -> Result<Input, String> {
    let wseed = splitmix64(w as u64 + 1);
    let k = scale.instances.max(1);
    let first = usize::try_from(seed % k as u64).expect("below the instance count");
    let instance_seed = |i: usize| splitmix64(wseed ^ (((i + first) % k) as u64 + 1));
    match w {
        Workload::BareTorus => {
            let t0 = Instant::now();
            let torus = ImplicitTopology::torus(scale.torus_side, scale.torus_side)?;
            let build_s = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let csr = materialize(&torus).map_err(|e| e.to_string())?;
            let materialize_s = t0.elapsed().as_secs_f64();
            let instances =
                (0..scale.instances).map(|i| bare_instance(w, instance_seed(i))).collect();
            Ok(Input {
                workload: w,
                graphs: vec![InputGraph {
                    // An even torus has a perfect matching.
                    full_optimum: OnceCell::from(csr.node_count() / 2),
                    implicit: Some(torus),
                    csr,
                }],
                instances,
                build_s,
                materialize_s,
            })
        }
        Workload::PortfolioHardened => {
            let mut build_s = 0.0;
            let mut materialize_s = 0.0;
            let mut gnp = |n: usize, seed: u64| -> Result<Graph, String> {
                let t0 = Instant::now();
                let implicit = ImplicitTopology::gnp(n, 8.0 / n as f64, seed)?;
                build_s += t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                let csr = materialize(&implicit).map_err(|e| e.to_string())?;
                materialize_s += t0.elapsed().as_secs_f64();
                Ok(csr)
            };
            let csr = gnp(scale.portfolio_nodes, wseed)?;
            let hardened = gnp(scale.churn_nodes, splitmix64(wseed))?;
            let weights =
                (0..csr.edge_count()).map(|e| unit(splitmix64(wseed ^ !(e as u64)))).collect();
            let csr = csr.with_weights(weights).map_err(|e| e.to_string())?;
            let ckpt = scratch.join("ckpt");
            let instances = (0..scale.instances)
                .map(|i| {
                    let mut inst = bare_instance(w, instance_seed(i));
                    inst.runs.push(hardened_run(&hardened, inst.seed, &ckpt));
                    inst
                })
                .collect();
            let graph = |csr| InputGraph { implicit: None, csr, full_optimum: OnceCell::new() };
            Ok(Input {
                workload: w,
                graphs: vec![graph(csr), graph(hardened)],
                instances,
                build_s,
                materialize_s,
            })
        }
    }
}

/// The sequential engine with one worker thread, as every workload runs.
fn sim(seed: u64) -> SimConfig {
    SimConfig::local().seed(seed).threads(1).max_rounds(200_000)
}

fn bare_instance(w: Workload, seed: u64) -> Instance {
    let runs = w
        .drivers()
        .into_iter()
        .map(|spec| Run { spec, cfg: RuntimeConfig::new().sim(sim(seed)).algo(spec), graph: 0 })
        .collect();
    Instance { seed, runs }
}

/// The hardened run of one instance: Israeli–Itai over the resilient
/// transport on graph 1 (`g`), with certify, repair, maintain and a
/// checkpoint store on, and a fault and churn schedule of 5% loss, 2%
/// corruption, 0.5% of the nodes crashing, and joins, leaves and
/// edge-downs in the first 20 rounds, all drawn from `seed`.
///
/// Every downed edge comes back up within 15 rounds: the certifier
/// (`certify_on`) takes a node-presence mask but no edge-presence mask,
/// so an edge still down at the end between two free nodes is flagged
/// `Uncovered` although the matching is maximal on the final topology.
fn hardened_run(g: &Graph, seed: u64, ckpt: &Path) -> Run {
    let n = g.node_count();
    let m = g.edge_count();
    let draw = |domain: u64, i: usize| splitmix64(seed ^ splitmix64(domain ^ ((i as u64) << 8)));
    let round = |domain: u64, i: usize| 2 + (draw(domain, i) % 20) as usize;

    // Churned and crashed nodes must be disjoint (`validate_against`).
    let mut used = BTreeSet::new();
    let mut fresh_node = |domain: u64, i: usize| {
        let mut k = 0;
        loop {
            let v = (draw(domain, i * 1009 + k) % n as u64) as usize;
            k += 1;
            if used.insert(v) {
                return v;
            }
        }
    };
    let churners = (n / 500).max(1);
    let mut absent = Vec::new();
    let mut events = Vec::new();
    for i in 0..churners {
        let v = fresh_node(1, i);
        absent.push(v);
        events.push(ChurnEvent { round: round(2, i), kind: ChurnKind::Join { node: v } });
        let u = fresh_node(3, i);
        events.push(ChurnEvent { round: round(4, i), kind: ChurnKind::Leave { node: u } });
    }
    let crashes: Vec<(usize, usize)> =
        (0..(n / 200).max(1)).map(|i| (fresh_node(5, i), round(6, i) - 1)).collect();
    let mut downed = BTreeSet::new();
    for i in 0..(n / 125).max(1) {
        let e = (draw(7, i) % m as u64) as usize;
        if downed.insert(e) {
            let down = round(8, i);
            events.push(ChurnEvent { round: down, kind: ChurnKind::EdgeDown { edge: e } });
            let up = down + 1 + (draw(9, i) % 15) as usize;
            events.push(ChurnEvent { round: up, kind: ChurnKind::EdgeUp { edge: e } });
        }
    }
    let faults = FaultPlan { crashes, loss: 0.05, corrupt: 0.02, ..FaultPlan::default() };
    let churn = ChurnPlan { absent_nodes: absent, absent_edges: Vec::new(), events };
    let cfg = RuntimeConfig::new()
        .sim(sim(seed))
        .transport(TransportCfg::default())
        .faults(faults)
        .churn(churn)
        .certify(true)
        .repair(true)
        .maintain(true)
        .checkpoint(CheckpointCfg::new(ckpt));
    Run { spec: AlgoSpec::IsraeliItai, cfg, graph: 1 }
}

/// Empties the checkpoint directories the instance writes to, so every
/// run of it starts from the same (empty) store.
pub fn reset_checkpoints(inst: &Instance) {
    for run in &inst.runs {
        if let Some(ck) = &run.cfg.checkpoint {
            let _ = std::fs::remove_dir_all(&ck.dir);
        }
    }
}

/// Runs the instance's batch, one `run_mm` call per run, and returns
/// its wall time with each run's result. `algos[i]` drives
/// `inst.runs[i]` on `topos[inst.runs[i].graph]`; `cfg_of` may rewrite
/// each configuration (the traced run's layer ladder).
pub fn run_batch(
    topos: &[&dyn Topology],
    inst: &Instance,
    algos: &[&dyn Algorithm],
    cfg_of: impl Fn(&RuntimeConfig) -> RuntimeConfig,
) -> (f64, Vec<Result<RunReport, CoreError>>) {
    reset_checkpoints(inst);
    let cfgs: Vec<RuntimeConfig> = inst.runs.iter().map(|r| cfg_of(&r.cfg)).collect();
    let t0 = Instant::now();
    let reports: Vec<_> = algos
        .iter()
        .zip(&inst.runs)
        .zip(&cfgs)
        .map(|((a, run), c)| run_mm(*a, topos[run.graph], c))
        .collect();
    (t0.elapsed().as_secs_f64(), reports)
}

/// Costs summed over a batch's reports and over every phase and stage
/// of each (main run, repair, maintenance, both certification passes).
#[derive(Debug, Clone, Copy, Default)]
pub struct Costs {
    pub rounds: u64,
    pub frames: u64,
    pub bits: u64,
    pub payload: u64,
    pub heartbeats: u64,
    pub retransmissions: u64,
    pub rejected: u64,
    pub quarantined: u64,
    pub suspected: u64,
    pub engine_runs: u64,
    pub iterations: u64,
    pub certify_rounds: u64,
    pub flagged: u64,
    pub repair_rounds: u64,
    pub repair_bits: u64,
    pub repair_touched: u64,
    pub maintain_rounds: u64,
    pub added: u64,
}

fn stages(r: &RunReport) -> Vec<RunStats> {
    let mut out = vec![r.phase1];
    out.extend(r.repair);
    out.extend(r.maintain);
    out.extend(r.initial.iter().chain(&r.recheck).map(|c| c.stats));
    out
}

impl Costs {
    pub fn of(reports: &[RunReport]) -> Costs {
        let mut c = Costs::default();
        for r in reports {
            for s in stages(r) {
                c.rounds += s.rounds;
                c.frames += s.frames();
                c.bits += s.total_bits;
                c.payload += s.messages;
                c.heartbeats += s.heartbeats;
                c.retransmissions += s.retransmissions;
                c.rejected += s.rejected;
                c.quarantined += s.quarantined;
                c.suspected += s.suspected;
            }
            c.engine_runs += r.totals.runs as u64;
            c.iterations += r.iterations as u64;
            c.certify_rounds +=
                r.initial.iter().chain(&r.recheck).map(|x| x.stats.rounds).sum::<u64>();
            c.flagged += r.initial.as_ref().map_or(0, |x| x.flagged.len() as u64);
            c.repair_rounds += r.repair.map_or(0, |s| s.rounds);
            c.repair_bits += r.repair.map_or(0, |s| s.total_bits);
            c.repair_touched += r.repair_touched as u64;
            c.maintain_rounds += r.maintain.map_or(0, |s| s.rounds);
            c.added += r.added as u64;
        }
        c
    }
}

/// FNV-1a over everything a re-run must reproduce: every stage's
/// counters, the driver accounting and the matching itself.
pub fn signature(reports: &[RunReport]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |s: &str| {
        for b in s.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in reports {
        eat(&format!(
            "{:?}|{:?}|{:?}|{:?}|{}|{}|{}|{}|{}|{}",
            stages(r),
            r.totals,
            r.excluded,
            r.initial.as_ref().map(|c| &c.flagged),
            r.iterations,
            r.surviving,
            r.dissolved,
            r.added,
            r.repair_touched,
            r.certified(),
        ));
        eat(&format!("{:?}", r.matching.to_edge_vec()));
    }
    h
}

/// Validity, maximality on the trusted domain (the report's final node
/// and edge presence) and, where certification ran (the report carries
/// a first certificate), certified final registers.
fn check_report(g: &Graph, r: &RunReport) -> Result<(), String> {
    let n = g.node_count();
    let mut mate = vec![false; n];
    for e in r.matching.edges() {
        let (a, b) = g.endpoints(e);
        if !r.edge_present[e] || !r.node_present[a] || !r.node_present[b] {
            return Err(format!("matched edge {e} lies outside the trusted domain"));
        }
        if mate[a] || mate[b] {
            return Err(format!("matched edge {e} shares an endpoint with another"));
        }
        if r.registers[a] != Some(e) || r.registers[b] != Some(e) {
            return Err(format!("registers disagree with matched edge {e}"));
        }
        mate[a] = true;
        mate[b] = true;
    }
    for e in 0..g.edge_count() {
        let (a, b) = g.endpoints(e);
        if r.edge_present[e] && r.node_present[a] && r.node_present[b] && !mate[a] && !mate[b] {
            return Err(format!("edge {e} has two free trusted endpoints: not maximal"));
        }
    }
    if r.initial.is_some() && !r.certified() {
        return Err("the final registers are not certified".to_string());
    }
    Ok(())
}

/// The exact maximum matching size of the report's final trusted
/// subgraph: the whole input when nothing was removed, otherwise the
/// subgraph of present edges between present nodes.
fn optimum(input: &InputGraph, r: &RunReport) -> usize {
    let g = &input.csr;
    let whole = r.node_present.iter().all(|&p| p) && r.edge_present.iter().all(|&p| p);
    if whole {
        return *input.full_optimum.get_or_init(|| blossom::maximum_matching_size(g));
    }
    // A fresh graph rather than `edge_subgraph`, whose masked-out edges
    // stay addressable and would be offered to the solver.
    let mut b = Graph::builder(g.node_count());
    for e in 0..g.edge_count() {
        let (a, c) = g.endpoints(e);
        if r.edge_present[e] && r.node_present[a] && r.node_present[c] {
            b.edge(a, c);
        }
    }
    let sub = b.build().expect("a subgraph of a valid graph is valid");
    blossom::maximum_matching_size(&sub)
}

/// What the checker concluded about one instance.
pub struct Verdict {
    /// `None` when every driver returned `Ok` with a checked matching.
    pub failure: Option<String>,
    pub reports: Vec<RunReport>,
}

/// Checks every driver's result; with `outputs` off, only that each
/// returned `Ok` (for configurations whose output is not expected to be
/// maximal on the final topology, such as a churned run without the
/// maintenance layer).
pub fn check(
    input: &Input,
    inst: &Instance,
    results: Vec<Result<RunReport, CoreError>>,
    outputs: bool,
) -> Verdict {
    let mut reports = Vec::new();
    let mut failure = None;
    for (run, res) in inst.runs.iter().zip(results) {
        let spec = run.spec;
        match res {
            Ok(r) => {
                if outputs {
                    if let Err(why) = check_report(&input.graphs[run.graph].csr, &r) {
                        failure.get_or_insert(format!("{spec:?}: {why}"));
                    }
                }
                reports.push(r);
            }
            Err(e) => {
                failure.get_or_insert(format!("{spec:?}: run_mm failed: {e}"));
            }
        }
    }
    Verdict { failure, reports }
}

/// Mean over the batch's runs of |M| / |M*|, with M* an exact maximum
/// matching of each report's final trusted subgraph.
pub fn matching_ratio(input: &Input, inst: &Instance, reports: &[RunReport]) -> f64 {
    let mut sum = 0.0;
    for (run, r) in inst.runs.iter().zip(reports) {
        let opt = optimum(&input.graphs[run.graph], r);
        sum += if opt == 0 { 1.0 } else { r.matching.size() as f64 / opt as f64 };
    }
    sum / reports.len().max(1) as f64
}
