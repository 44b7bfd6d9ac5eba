//! Adversarial schedule search over churn + fault schedules.
//!
//! The maintenance runtime (`dam_core::maintain`) claims that its final
//! matching is valid and maximal on whatever graph survives an arbitrary
//! churn schedule. This module hunts for the schedule that hurts the
//! most: it samples random churn+fault schedules (seed-deterministic —
//! the same search seed always explores the same schedules), evaluates
//! each by the **matching ratio** (pipeline matching vs a fresh run on
//! the final topology), keeps the worst, and then **greedily shrinks**
//! it proptest-style — repeatedly dropping events, crashes and loss
//! while the schedule stays as bad — so the committed regression corpus
//! holds minimal reproducers, not noise.
//!
//! With [`SearchCfg::max_delay_bound`] set the search doubles as a
//! **timing adversary**: cases carry a [`DelayModel`] and run on the
//! asynchronous backend with every timeout derived from the declared
//! delay bound, hunting *false suspicions* — a silence-based failure
//! detector convicting a slow-but-correct node — alongside ratio
//! collapses.
//!
//! Worst cases are persisted in a hand-rolled line-based text format
//! ([`render_corpus`] / [`parse_corpus`]; the workspace has no serde) and
//! replayed by `crates/bench/tests/chaos_regression.rs` as a plain
//! `cargo test`. The `chaos` binary runs the search from the command
//! line (CI runs it on a cron schedule with fixed seeds).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dam_congest::{
    AdaptivePolicy, ChurnKind, ChurnPlan, DelayModel, FaultPlan, RecordingSink, SimConfig,
    SinkHandle, Squall, TransportCfg, TransportMode,
};
use dam_core::checkpoint::{inject, CheckpointCfg, CheckpointStore, Damage};
use dam_core::maintain::is_maximal_on_present;
use dam_core::runtime::{run_mm, IsraeliItai, RunReport, RuntimeConfig};
use dam_graph::{generators, materialize, Graph, ImplicitTopology, Topology};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One fully-specified chaos scenario: every seed is explicit, so
/// evaluation is bit-deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCase {
    /// Nodes of the `G(n, 8/n)` instance.
    pub n: usize,
    /// Canonical implicit-topology spec (`ring:N`, `torus:WxH`,
    /// `reg:N:D`, `gnp:N:P:SEED` — the same grammar `dam-cli run
    /// --graph` takes). `Some` pins the instance to that family
    /// (materialized for evaluation); `None` keeps the classic
    /// `G(n, 8/n)` draw from `graph_seed`.
    pub topology: Option<String>,
    /// Seed of the graph generator.
    pub graph_seed: u64,
    /// Seed of the pipeline run.
    pub run_seed: u64,
    /// Per-message loss probability during the run.
    pub loss: f64,
    /// Per-frame corruption probability during the run (keyed-RNG
    /// channel damage: bit flips, truncations, garbage, replays,
    /// forgeries — see `dam_congest::CorruptKind`).
    pub corrupt: f64,
    /// Adversarial timing model. Anything but [`DelayModel::Unit`]
    /// moves the case onto the asynchronous backend with every timeout
    /// derived from the declared delay bound
    /// (`RuntimeConfig::tuned_for_async`), so each timed case replays
    /// the tentpole claim: the hardened pipeline survives off the round
    /// barrier.
    pub delay: DelayModel,
    /// Crash schedule `(node, round)` — disjoint from churned nodes.
    pub crashes: Vec<(usize, usize)>,
    /// Nodes absent at round 0 (the pool that may `Join`).
    pub absent_nodes: Vec<usize>,
    /// Round-stamped topology events.
    pub events: Vec<(usize, ChurnKind)>,
    /// Crash-restart schedule: `Some(k)` kills the process after the
    /// `k`-th boundary snapshot commits (1 = after the `Main`
    /// boundary), tears the next commit mid-rename, and resumes from
    /// the surviving checkpoint directory — the whole run then replays
    /// through `dam_core::checkpoint` restore. `None` runs
    /// uninterrupted (and keeps pre-checkpoint corpus lines
    /// byte-stable).
    pub kill: Option<u64>,
}

impl ChaosCase {
    /// The instance graph.
    #[must_use]
    pub fn graph(&self) -> Graph {
        if let Some(spec) = &self.topology {
            let topo = ImplicitTopology::parse(spec).expect("corpus topology specs are validated");
            return materialize(&topo).expect("implicit topologies always materialize");
        }
        let mut rng = StdRng::seed_from_u64(self.graph_seed);
        generators::gnp(self.n, 8.0 / self.n as f64, &mut rng)
    }

    /// The churn plan of this case.
    #[must_use]
    pub fn churn_plan(&self) -> ChurnPlan {
        let mut plan = ChurnPlan::default().with_absent_nodes(self.absent_nodes.clone());
        for &(round, kind) in &self.events {
            plan = plan.with_event(round, kind);
        }
        plan
    }

    /// The fault plan of this case.
    #[must_use]
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan {
            crashes: self.crashes.clone(),
            loss: self.loss,
            corrupt: self.corrupt,
            ..FaultPlan::default()
        }
    }

    /// Whether every node is live and the channel honest throughout the
    /// run: no crashes, no churn, no loss, no corruption. In a quiet
    /// case *any* silence-based suspicion is by definition false — the
    /// peer was slow, never gone — which is exactly the signal the
    /// timing adversary hunts.
    #[must_use]
    pub fn quiet(&self) -> bool {
        self.crashes.is_empty()
            && self.absent_nodes.is_empty()
            && self.events.is_empty()
            && self.loss == 0.0
            && self.corrupt == 0.0
    }
}

/// What evaluating a [`ChaosCase`] measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosOutcome {
    /// Pipeline matching size on the final topology.
    pub size: usize,
    /// Fresh Israeli–Itai matching size on the same final topology.
    pub fresh: usize,
    /// `size / fresh` (1.0 when both are empty). Two maximal matchings
    /// of one graph are within a factor 2, so < 0.5 would itself be a
    /// bug; the search minimizes this within `[0.5, 1]`.
    pub ratio: f64,
    /// Whether the pipeline's matching was valid and maximal on the
    /// final topology — the invariant; `false` is a found bug.
    pub invariant_ok: bool,
    /// Silence-based peer-down declarations across all phases
    /// ([`dam_congest::RunStats::suspected`] summed over phase 1,
    /// repair and maintenance).
    pub suspected: u64,
    /// `suspected > 0` in a [`ChaosCase::quiet`] case: every peer was
    /// live and the channel honest, so the failure detector convicted a
    /// slow-but-correct node. A found bug, ranked like an invariant
    /// violation by [`search`].
    pub false_suspicion: bool,
}

/// Runs the churn pipeline of `case` (the unified runtime with the
/// maintenance layer on) and measures it. Deterministic: the same case
/// always yields the same outcome.
///
/// # Panics
/// Panics if the scenario itself is invalid (rejected plan) or the
/// simulation fails — a corpus case must replay cleanly.
#[must_use]
pub fn evaluate(case: &ChaosCase) -> ChaosOutcome {
    evaluate_with(case, false)
}

/// [`evaluate`] with an arm selector: `adaptive` swaps the static
/// transport for the closed-loop controller whose floor is exactly the
/// configuration the static arm would have run (the plain default, or
/// the delay-bound derivation on timed cases) — the chaos invariants
/// are then checked against self-tuned timers instead of derived ones.
///
/// # Panics
/// Panics if the scenario itself is invalid (rejected plan) or the
/// simulation fails — a corpus case must replay cleanly.
#[must_use]
pub fn evaluate_with(case: &ChaosCase, adaptive: bool) -> ChaosOutcome {
    let g = case.graph();
    let churn = case.churn_plan();
    let mut cfg = RuntimeConfig::new()
        .sim(SimConfig::local().seed(case.run_seed).max_rounds(500_000))
        .transport(TransportCfg::default())
        .faults(case.fault_plan())
        .churn(churn.clone())
        .maintain(true);
    if case.delay != DelayModel::Unit {
        cfg = cfg.tuned_for_async(case.delay);
    }
    if adaptive {
        let floor = cfg.transport.map_or_else(TransportCfg::default, TransportMode::floor);
        cfg = cfg.adaptive(AdaptivePolicy::for_floor(floor));
    }
    let report = match case.kill {
        Some(kill) => run_crash_restart(case, &g, &cfg, kill),
        None => match run_mm(&IsraeliItai, &g, &cfg) {
            Ok(r) => r,
            Err(e) => panic!("chaos case must run: {e:?}\n  case: {}", render_case(case)),
        },
    };

    let (mut node_present, edge_present) = churn.final_presence_on(&g);
    for &(v, _) in &case.crashes {
        node_present.set(v, false);
    }
    let invariant_ok = report.matching.validate(&g).is_ok()
        && is_maximal_on_present(
            &g,
            &report.matching,
            &node_present.to_bools(),
            &edge_present.to_bools(),
        );

    // Fresh baseline: plain Israeli–Itai on the final topology.
    let keep: Vec<bool> = g
        .edge_ids()
        .map(|e| {
            let (a, b) = g.endpoints(e);
            edge_present[e] && node_present[a] && node_present[b]
        })
        .collect();
    let sub = g.edge_subgraph(&keep);
    let fresh = dam_core::israeli_itai::israeli_itai(&sub, case.run_seed ^ 0xF5E5)
        .expect("fresh baseline")
        .matching
        .size();

    let size = report.matching.size();
    let ratio = if fresh == 0 { 1.0 } else { size as f64 / fresh as f64 };
    let suspected = report
        .phase1
        .suspected
        .saturating_add(report.repair.as_ref().map_or(0, |s| s.suspected))
        .saturating_add(report.maintain.as_ref().map_or(0, |s| s.suspected));
    let false_suspicion = suspected > 0 && case.quiet();
    ChaosOutcome { size, fresh, ratio, invariant_ok, suspected, false_suspicion }
}

/// The crash-restart arm of one case: run the pipeline with durable
/// checkpoints, then simulate a process kill after the `kill`-th
/// boundary commit — later generations never reached the disk, and the
/// next commit was torn mid-rename — and restore from the damaged
/// directory. The restore must succeed, must *report* the damage
/// (degraded, never silently clean), and the recovered report is what
/// the chaos invariants are then checked against.
///
/// # Panics
/// Panics if the checkpointing run, the injection, or the restore
/// fails, or if the restore claims a clean resume through torn state —
/// a corpus case must replay cleanly.
fn run_crash_restart(case: &ChaosCase, g: &Graph, cfg: &RuntimeConfig, kill: u64) -> RunReport {
    // Unique scratch directory per evaluation: searches and test
    // threads evaluate concurrently, and the outcome must not depend on
    // who else is running.
    static SCRATCH: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dam-chaos-ckpt-{}-{}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let ck = cfg.clone().checkpoint(CheckpointCfg::new(&dir));
    if let Err(e) = run_mm(&IsraeliItai, g, &ck) {
        panic!("chaos case must run: {e:?}\n  case: {}", render_case(case));
    }
    let store = CheckpointStore::open(&dir);
    let mut gens = store.generations().expect("checkpoint directory must be readable");
    gens.sort_unstable();
    // The kill: boundaries after the k-th never committed.
    let keep = usize::try_from(kill).unwrap_or(usize::MAX).clamp(1, gens.len());
    for &stale in &gens[keep..] {
        let _ = std::fs::remove_file(dir.join(format!("ckpt-{stale:08}.snap")));
    }
    // ... and the commit in flight when the process died was torn.
    inject(&dir, Damage::TornRename).expect("inject the torn commit");

    let restored = run_mm(&IsraeliItai, g, &cfg.clone().restore(&dir));
    let _ = std::fs::remove_dir_all(&dir);
    let report = match restored {
        Ok(r) => r,
        Err(e) => {
            panic!("chaos case must restore: {e:?}\n  case: {}", render_case(case))
        }
    };
    let outcome = report.restore.unwrap_or_else(|| {
        panic!("restored run reported no restore outcome\n  case: {}", render_case(case))
    });
    assert!(
        outcome.degraded(),
        "torn checkpoint state resumed as clean ({outcome})\n  case: {}",
        render_case(case)
    );
    report
}

/// Search tuning.
#[derive(Debug, Clone)]
pub struct SearchCfg {
    /// Instance size.
    pub n: usize,
    /// Random schedules to sample.
    pub cases: usize,
    /// Last round an event may be scheduled at.
    pub horizon: usize,
    /// Expected events per round.
    pub rate: f64,
    /// Upper bound of the per-frame corruption probability sampled into
    /// schedules (`0` keeps the channel honest).
    pub max_corrupt: f64,
    /// Worst-case per-hop delay bound of the timing models sampled into
    /// schedules (`0` keeps every case on the synchronous engine — no
    /// timing adversary). With it on, half of the timed cases are
    /// [`ChaosCase::quiet`] so a false suspicion is unambiguous.
    pub max_delay_bound: u64,
    /// Master seed of the search (schedules and run seeds derive from
    /// it).
    pub seed: u64,
    /// Evaluate every schedule under the closed-loop adaptive transport
    /// instead of the static derivation (see [`evaluate_with`]).
    pub adaptive: bool,
    /// Arm the crash-restart adversary: every sampled schedule carries
    /// a kill-round ([`ChaosCase::kill`]), so each case runs through a
    /// checkpoint, a torn-commit process kill, and a restore.
    pub crash_restart: bool,
    /// Pin every sampled schedule to this implicit-topology spec
    /// ([`ChaosCase::topology`]) instead of drawing `G(n, 8/n)`
    /// instances; `n` is taken from the spec.
    pub topology: Option<String>,
}

impl Default for SearchCfg {
    fn default() -> SearchCfg {
        SearchCfg {
            n: 48,
            cases: 24,
            horizon: 60,
            rate: 0.2,
            max_corrupt: 0.05,
            max_delay_bound: 0,
            seed: 0,
            adaptive: false,
            crash_restart: false,
            topology: None,
        }
    }
}

/// Draws one random — but always *valid* — chaos scenario: event
/// generation tracks node/edge presence so deletes hit present objects,
/// joins come from the absent pool, and churned nodes stay disjoint
/// from the crash set.
#[must_use]
pub fn random_case(cfg: &SearchCfg, rng: &mut StdRng) -> ChaosCase {
    let graph_seed = rng.random_range(0..1_000_000);
    let run_seed = rng.random_range(0..1_000_000);
    let g = match &cfg.topology {
        Some(spec) => {
            let topo = ImplicitTopology::parse(spec).expect("search topology specs are validated");
            materialize(&topo).expect("implicit topologies always materialize")
        }
        None => {
            let mut grng = StdRng::seed_from_u64(graph_seed);
            generators::gnp(cfg.n, 8.0 / cfg.n as f64, &mut grng)
        }
    };
    let n = g.node_count();

    // ~5% of nodes start absent: the join pool.
    let mut absent_nodes: Vec<usize> = Vec::new();
    for v in 0..n {
        if rng.random_bool(0.05) {
            absent_nodes.push(v);
        }
    }
    let mut node_present: Vec<bool> = (0..n).map(|v| !absent_nodes.contains(&v)).collect();
    let mut edge_present = vec![true; g.edge_count()];
    // Nodes that already joined or left cannot do so again (plan rule).
    let mut joined = vec![false; n];
    let mut left = vec![false; n];
    let mut churned = vec![false; n];

    let mut events: Vec<(usize, ChurnKind)> = Vec::new();
    for round in 1..=cfg.horizon {
        if !rng.random_bool(cfg.rate) {
            continue;
        }
        let kind = match rng.random_range(0..4u32) {
            0 => {
                let live: Vec<usize> = (0..g.edge_count()).filter(|&e| edge_present[e]).collect();
                if live.is_empty() {
                    continue;
                }
                let e = live[rng.random_range(0..live.len())];
                edge_present[e] = false;
                ChurnKind::EdgeDown { edge: e }
            }
            1 => {
                let down: Vec<usize> = (0..g.edge_count()).filter(|&e| !edge_present[e]).collect();
                if down.is_empty() {
                    continue;
                }
                let e = down[rng.random_range(0..down.len())];
                edge_present[e] = true;
                ChurnKind::EdgeUp { edge: e }
            }
            2 => {
                let pool: Vec<usize> =
                    (0..n).filter(|&v| node_present[v] && !joined[v] && !left[v]).collect();
                if pool.is_empty() {
                    continue;
                }
                let v = pool[rng.random_range(0..pool.len())];
                node_present[v] = false;
                left[v] = true;
                churned[v] = true;
                ChurnKind::Leave { node: v }
            }
            _ => {
                let pool: Vec<usize> =
                    (0..n).filter(|&v| !node_present[v] && !joined[v] && !left[v]).collect();
                if pool.is_empty() {
                    continue;
                }
                let v = pool[rng.random_range(0..pool.len())];
                node_present[v] = true;
                joined[v] = true;
                churned[v] = true;
                ChurnKind::Join { node: v }
            }
        };
        events.push((round, kind));
    }
    for &v in &absent_nodes {
        churned[v] = true;
    }

    // A couple of crashes on untouched nodes.
    let mut crashes: Vec<(usize, usize)> = Vec::new();
    for _ in 0..2 {
        if !rng.random_bool(0.5) {
            continue;
        }
        let pool: Vec<usize> =
            (0..n).filter(|&v| !churned[v] && !crashes.iter().any(|&(c, _)| c == v)).collect();
        if pool.is_empty() {
            continue;
        }
        let v = pool[rng.random_range(0..pool.len())];
        crashes.push((v, 1 + rng.random_range(0..cfg.horizon.max(1))));
    }

    let loss = if rng.random_bool(0.5) { rng.random_range(0.0..0.1) } else { 0.0 };
    let corrupt = if cfg.max_corrupt > 0.0 && rng.random_bool(0.5) {
        rng.random_range(0.0..cfg.max_corrupt)
    } else {
        0.0
    };
    let mut case = ChaosCase {
        n,
        topology: cfg.topology.clone(),
        graph_seed,
        run_seed,
        loss,
        corrupt,
        delay: DelayModel::Unit,
        crashes,
        absent_nodes,
        events,
        kill: None,
    };
    if cfg.max_delay_bound > 0 {
        // Timing adversary: the delay draws come after every schedule
        // draw, so with the adversary off the stream (and therefore the
        // committed corpus) is unchanged.
        let b = cfg.max_delay_bound;
        case.delay = match rng.random_range(0..5u32) {
            0 => DelayModel::UniformRandom { max: 1 + rng.random_range(0..b) },
            1 => DelayModel::LinkSkew { spread: 1 + rng.random_range(0..b) },
            2 => DelayModel::Straggler {
                node: rng.random_range(0..n),
                slow: 1 + rng.random_range(0..b),
            },
            3 => DelayModel::StragglerRecovers {
                node: rng.random_range(0..n),
                slow: 1 + rng.random_range(0..b),
                until: 1 + rng.random_range(0..cfg.horizon as u64),
            },
            _ => DelayModel::Burst {
                period: 1 + rng.random_range(0..8u64),
                width: 1 + rng.random_range(0..3u64),
                extra: rng.random_range(0..b),
            },
        };
        if rng.random_bool(0.5) {
            // Half of the timed cases are quiet — every node live over
            // an honest lossless channel — so any suspicion the tuned
            // detector raises is a conviction of a slow-but-correct
            // node.
            case.loss = 0.0;
            case.corrupt = 0.0;
            case.crashes.clear();
            case.absent_nodes.clear();
            case.events.clear();
        }
    }
    if cfg.crash_restart {
        // The kill draw comes after every other draw, so with the
        // adversary off the stream (and the committed corpus) is
        // unchanged. The maintenance pipeline commits two boundaries
        // (Main, Maintained): kill after the first replays the tail,
        // kill after the second restores the finished state.
        case.kill = Some(1 + rng.random_range(0..2u64));
    }
    case
}

/// Samples `cfg.cases` random scenarios, returns the worst (lowest
/// ratio — an invariant violation or a false suspicion beats any
/// ratio) after greedy shrinking.
#[must_use]
pub fn search(cfg: &SearchCfg) -> (ChaosCase, ChaosOutcome) {
    let bug = |o: &ChaosOutcome| !o.invariant_ok || o.false_suspicion;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut worst: Option<(ChaosCase, ChaosOutcome)> = None;
    for _ in 0..cfg.cases {
        let case = random_case(cfg, &mut rng);
        let out = evaluate_with(&case, cfg.adaptive);
        let beats = match &worst {
            None => true,
            Some((_, best)) => {
                (bug(&out) && !bug(best)) || (bug(&out) == bug(best) && out.ratio < best.ratio)
            }
        };
        if beats {
            worst = Some((case, out));
        }
    }
    let (case, out) = worst.expect("cases > 0");
    let shrunk = shrink(&case, &out, cfg.adaptive);
    let shrunk_out = evaluate_with(&shrunk, cfg.adaptive);
    (shrunk, shrunk_out)
}

/// Greedy proptest-style shrink: repeatedly drop one event, crash or
/// the loss knob, keeping the removal whenever the schedule stays at
/// least as bad (ratio not above the original, invariant violation
/// preserved). Removals that break plan validity (e.g. an `EdgeUp`
/// whose `EdgeDown` was dropped) are skipped.
#[must_use]
pub fn shrink(case: &ChaosCase, baseline: &ChaosOutcome, adaptive: bool) -> ChaosCase {
    let evaluate = |c: &ChaosCase| evaluate_with(c, adaptive);
    let still_bad = |out: &ChaosOutcome| {
        if !baseline.invariant_ok {
            !out.invariant_ok
        } else if baseline.false_suspicion {
            out.false_suspicion
        } else {
            out.ratio <= baseline.ratio + 1e-9
        }
    };
    let valid = |c: &ChaosCase| {
        let g = c.graph();
        c.churn_plan().validate(&g).is_ok()
            && c.churn_plan().validate_against(&c.fault_plan()).is_ok()
    };
    let mut best = case.clone();
    loop {
        let mut improved = false;
        // Try dropping each event (last first, so dependent later
        // events keep their prerequisites as long as possible).
        for i in (0..best.events.len()).rev() {
            let mut cand = best.clone();
            cand.events.remove(i);
            if valid(&cand) && still_bad(&evaluate(&cand)) {
                best = cand;
                improved = true;
            }
        }
        for i in (0..best.crashes.len()).rev() {
            let mut cand = best.clone();
            cand.crashes.remove(i);
            if still_bad(&evaluate(&cand)) {
                best = cand;
                improved = true;
            }
        }
        if best.loss > 0.0 {
            let mut cand = best.clone();
            cand.loss = 0.0;
            if still_bad(&evaluate(&cand)) {
                best = cand;
                improved = true;
            }
        }
        if best.corrupt > 0.0 {
            let mut cand = best.clone();
            cand.corrupt = 0.0;
            if still_bad(&evaluate(&cand)) {
                best = cand;
                improved = true;
            }
        }
        for delay in shrink_delay(best.delay) {
            let mut cand = best.clone();
            cand.delay = delay;
            if still_bad(&evaluate(&cand)) {
                best = cand;
                improved = true;
                break;
            }
        }
        if best.kill.is_some() {
            // Drop the crash-restart leg: if the schedule is as bad
            // without the kill, the checkpoint round-trip was not the
            // cause and the reproducer should not carry it.
            let mut cand = best.clone();
            cand.kill = None;
            if still_bad(&evaluate(&cand)) {
                best = cand;
                improved = true;
            }
        }
        // Absent nodes whose Join was dropped can come back as present.
        for i in (0..best.absent_nodes.len()).rev() {
            let v = best.absent_nodes[i];
            if best.events.iter().any(|&(_, k)| k == (ChurnKind::Join { node: v })) {
                continue;
            }
            let mut cand = best.clone();
            cand.absent_nodes.remove(i);
            if valid(&cand) && still_bad(&evaluate(&cand)) {
                best = cand;
                improved = true;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Shrink candidates for a delay model: back to lockstep first, then
/// the dominant parameter halved.
fn shrink_delay(d: DelayModel) -> Vec<DelayModel> {
    let mut out = Vec::new();
    match d {
        DelayModel::Unit => {}
        DelayModel::UniformRandom { max } => {
            out.push(DelayModel::Unit);
            if max > 1 {
                out.push(DelayModel::UniformRandom { max: max / 2 });
            }
        }
        DelayModel::LinkSkew { spread } => {
            out.push(DelayModel::Unit);
            if spread > 1 {
                out.push(DelayModel::LinkSkew { spread: spread / 2 });
            }
        }
        DelayModel::Straggler { node, slow } => {
            out.push(DelayModel::Unit);
            if slow > 1 {
                out.push(DelayModel::Straggler { node, slow: slow / 2 });
            }
        }
        DelayModel::StragglerRecovers { node, slow, until } => {
            out.push(DelayModel::Unit);
            if slow > 1 {
                out.push(DelayModel::StragglerRecovers { node, slow: slow / 2, until });
            }
            if until > 1 {
                out.push(DelayModel::StragglerRecovers { node, slow, until: until / 2 });
            }
        }
        DelayModel::Burst { period, width, extra } => {
            out.push(DelayModel::Unit);
            if extra > 0 {
                out.push(DelayModel::Burst { period, width, extra: extra / 2 });
            }
        }
    }
    out
}

// --- adaptive-vs-static tournament --------------------------------------

/// A *drifting* fault schedule: conditions change mid-run, so any fixed
/// [`TransportCfg`] pays on one side of the drift — timers tuned for
/// the storm waste retransmissions in the quiet tail, timers tuned for
/// the tail convict honest peers during the storm. The closed-loop
/// controller should dominate every static arm on these.
#[derive(Debug, Clone)]
pub struct DriftSchedule {
    /// Schedule name (CSV key).
    pub name: &'static str,
    /// Nodes of the `G(n, 8/n)` instance.
    pub n: usize,
    /// Seed of the graph generator.
    pub graph_seed: u64,
    /// Seed of the pipeline run.
    pub run_seed: u64,
    /// The fault plan (typically squall-windowed).
    pub faults: FaultPlan,
    /// Timing model; anything but [`DelayModel::Unit`] moves the arm
    /// onto the asynchronous backend.
    pub delay: DelayModel,
    /// First round where the disturbance has passed — the tail-spend
    /// accounting window starts here.
    pub quiet_from: u64,
}

/// The committed tournament schedules: a loss squall that ends, a
/// straggler that recovers, and a corruption storm that ends.
#[must_use]
pub fn drift_schedules(n: usize) -> Vec<DriftSchedule> {
    vec![
        DriftSchedule {
            name: "burst-then-quiet",
            n,
            graph_seed: 0xB1A5,
            run_seed: 0x5EED,
            faults: FaultPlan::default().with_squall(Squall {
                from_round: 0,
                until_round: 24,
                loss: 0.35,
                corrupt: 0.0,
            }),
            delay: DelayModel::Unit,
            quiet_from: 25,
        },
        DriftSchedule {
            name: "straggler-recovers",
            n,
            graph_seed: 0x57A6,
            run_seed: 0x6EED,
            faults: FaultPlan::default(),
            delay: DelayModel::StragglerRecovers { node: 3, slow: 9, until: 30 },
            quiet_from: 30,
        },
        DriftSchedule {
            name: "corruption-storm",
            n,
            graph_seed: 0xC0BB,
            run_seed: 0x7EED,
            faults: FaultPlan::default().with_squall(Squall {
                from_round: 0,
                until_round: 20,
                loss: 0.0,
                corrupt: 0.3,
            }),
            delay: DelayModel::Unit,
            quiet_from: 21,
        },
    ]
}

/// What one tournament arm measured on one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmReport {
    /// Arm name (`adaptive` or `static-bN`).
    pub arm: String,
    /// Matching ratio vs a fresh Israeli–Itai run on the same graph.
    pub ratio: f64,
    /// Peers suspected dead across all pipeline phases.
    pub suspected: u64,
    /// Peers quarantined across all pipeline phases.
    pub quarantined: u64,
    /// Retransmissions across all pipeline phases.
    pub retransmissions: u64,
    /// Retransmissions sent at or after the schedule's `quiet_from`
    /// round (main run, from the telemetry stream) — the price of
    /// timers still tuned for a storm that has passed.
    pub tail_retx: u64,
    /// Engine rounds of the main run.
    pub rounds: u64,
}

/// Static arms of the tournament: the derivation ladder a lockstep
/// operator could have picked.
pub const TOURNAMENT_BOUNDS: [u64; 4] = [1, 2, 4, 8];

/// Runs one arm of the tournament: the self-healing pipeline (repair
/// on) under the schedule, over `transport` (a static configuration or
/// the adaptive controller), a recording sink streaming the main run.
///
/// # Panics
/// Panics if the run fails — every tournament schedule must complete on
/// every arm.
#[must_use]
pub fn run_arm(schedule: &DriftSchedule, arm: &str, transport: TransportMode) -> ArmReport {
    let g = {
        let mut rng = StdRng::seed_from_u64(schedule.graph_seed);
        generators::gnp(schedule.n, 8.0 / schedule.n as f64, &mut rng)
    };
    let mut sim = SimConfig::local().seed(schedule.run_seed).max_rounds(500_000);
    if schedule.delay != DelayModel::Unit {
        sim = sim.backend(dam_congest::Backend::Async).delay(schedule.delay);
    }
    let sink = Arc::new(RecordingSink::new());
    let cfg = RuntimeConfig {
        transport: Some(transport),
        ..RuntimeConfig::new()
            .sim(sim)
            .faults(schedule.faults.clone())
            .repair(true)
            .stats_sink(SinkHandle::from(Arc::clone(&sink)))
    };
    let report = match run_mm(&IsraeliItai, &g, &cfg) {
        Ok(r) => r,
        Err(e) => panic!("tournament arm {arm} on {} must run: {e:?}", schedule.name),
    };
    report.matching.validate(&g).expect("tournament matching must be valid");

    let fresh = dam_core::israeli_itai::israeli_itai(&g, schedule.run_seed ^ 0xF5E5)
        .expect("fresh baseline")
        .matching
        .size();
    let size = report.matching.size();
    let ratio = if fresh == 0 { 1.0 } else { size as f64 / fresh as f64 };

    let phase_sum = |f: fn(&dam_congest::RunStats) -> u64| {
        f(&report.phase1)
            .saturating_add(report.repair.as_ref().map_or(0, f))
            .saturating_add(report.maintain.as_ref().map_or(0, f))
    };
    let tail_retx = sink
        .deltas()
        .iter()
        .filter(|s| s.round >= schedule.quiet_from)
        .map(|s| s.retransmissions)
        .sum();
    ArmReport {
        arm: arm.to_string(),
        ratio,
        suspected: phase_sum(|s| s.suspected),
        quarantined: phase_sum(|s| s.quarantined),
        retransmissions: phase_sum(|s| s.retransmissions),
        tail_retx,
        rounds: report.phase1.rounds,
    }
}

/// Runs the full tournament: on every schedule, the adaptive controller
/// (floor = delay-bound-1 derivation) against every static arm in
/// [`TOURNAMENT_BOUNDS`]. Returns `(schedule name, arms)` with the
/// adaptive arm first.
#[must_use]
pub fn run_tournament(schedules: &[DriftSchedule]) -> Vec<(String, Vec<ArmReport>)> {
    schedules
        .iter()
        .map(|s| {
            let adaptive = TransportMode::Adaptive(AdaptivePolicy::for_delay_bound(1));
            let mut arms = vec![run_arm(s, "adaptive", adaptive)];
            for b in TOURNAMENT_BOUNDS {
                let fixed = TransportMode::Fixed(TransportCfg::for_delay_bound(b));
                arms.push(run_arm(s, &format!("static-b{b}"), fixed));
            }
            (s.name.to_string(), arms)
        })
        .collect()
}

// --- corpus text format -------------------------------------------------
//
// One case per line, whitespace-separated `key=value` tokens; lists are
// `;`-separated, the empty list is `-`. Lines starting with `#` and
// blank lines are ignored. Example:
//
//   case n=48 gseed=11 seed=7 loss=0.05 crashes=5@4;9@10 absent=3;17 \
//        events=2:edown:14;5:leave:8;9:join:3
//
// (No line continuations — the example is wrapped for readability only.)

fn render_kind(kind: ChurnKind) -> String {
    match kind {
        ChurnKind::EdgeUp { edge } => format!("eup:{edge}"),
        ChurnKind::EdgeDown { edge } => format!("edown:{edge}"),
        ChurnKind::Join { node } => format!("join:{node}"),
        ChurnKind::Leave { node } => format!("leave:{node}"),
    }
}

fn parse_kind(s: &str) -> Result<ChurnKind, String> {
    let (tag, arg) = s.split_once(':').ok_or_else(|| format!("bad event kind '{s}'"))?;
    let idx: usize = arg.parse().map_err(|_| format!("bad event index '{arg}'"))?;
    match tag {
        "eup" => Ok(ChurnKind::EdgeUp { edge: idx }),
        "edown" => Ok(ChurnKind::EdgeDown { edge: idx }),
        "join" => Ok(ChurnKind::Join { node: idx }),
        "leave" => Ok(ChurnKind::Leave { node: idx }),
        other => Err(format!("unknown event kind '{other}'")),
    }
}

/// Renders a delay model as the colon-spec the CLI's `--delay` flag
/// takes: `unit`, `uniform:M`, `skew:S`, `straggler:V:D`,
/// `recovers:V:D:U`, `burst:P:W:E`.
#[must_use]
pub fn render_delay(d: DelayModel) -> String {
    match d {
        DelayModel::Unit => "unit".to_string(),
        DelayModel::UniformRandom { max } => format!("uniform:{max}"),
        DelayModel::LinkSkew { spread } => format!("skew:{spread}"),
        DelayModel::Straggler { node, slow } => format!("straggler:{node}:{slow}"),
        DelayModel::StragglerRecovers { node, slow, until } => {
            format!("recovers:{node}:{slow}:{until}")
        }
        DelayModel::Burst { period, width, extra } => format!("burst:{period}:{width}:{extra}"),
    }
}

/// Parses a [`render_delay`] spec. One parser serves both the corpus
/// and the `dam-cli --delay` flag, so the two surfaces cannot drift.
///
/// # Errors
/// Describes the first malformed field.
pub fn parse_delay(s: &str) -> Result<DelayModel, String> {
    let mut parts = s.split(':');
    let kind = parts.next().unwrap_or_default();
    let mut num = |name: &str| -> Result<u64, String> {
        parts
            .next()
            .ok_or(format!("delay '{s}' is missing its {name}"))?
            .parse()
            .map_err(|_| format!("bad {name} in delay '{s}'"))
    };
    let model = match kind {
        "unit" => DelayModel::Unit,
        "uniform" => DelayModel::UniformRandom { max: num("max")? },
        "skew" => DelayModel::LinkSkew { spread: num("spread")? },
        "straggler" => {
            let node = usize::try_from(num("node")?).map_err(|_| format!("bad node in '{s}'"))?;
            DelayModel::Straggler { node, slow: num("slowdown")? }
        }
        "recovers" => {
            let node = usize::try_from(num("node")?).map_err(|_| format!("bad node in '{s}'"))?;
            DelayModel::StragglerRecovers { node, slow: num("slowdown")?, until: num("until")? }
        }
        "burst" => {
            DelayModel::Burst { period: num("period")?, width: num("width")?, extra: num("extra")? }
        }
        other => {
            return Err(format!(
                "unknown delay model '{other}' \
                 (unit|uniform:M|skew:S|straggler:V:D|recovers:V:D:U|burst:P:W:E)"
            ));
        }
    };
    if parts.next().is_some() {
        return Err(format!("trailing fields in delay '{s}'"));
    }
    Ok(model)
}

fn render_list<T, F: Fn(&T) -> String>(items: &[T], f: F) -> String {
    if items.is_empty() {
        "-".to_string()
    } else {
        items.iter().map(f).collect::<Vec<_>>().join(";")
    }
}

fn parse_list<T, F: Fn(&str) -> Result<T, String>>(s: &str, f: F) -> Result<Vec<T>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(';').map(f).collect()
}

/// Renders one case as a single corpus line. The `corrupt=`, `delay=`,
/// `kill=` and `graph=` keys are only written when the channel actually
/// tampers / the schedule actually leaves lockstep / the process
/// actually dies / the instance is pinned to an implicit family (keeps
/// corpus lines from before those features byte-stable on a round
/// trip).
#[must_use]
pub fn render_case(case: &ChaosCase) -> String {
    let corrupt =
        if case.corrupt > 0.0 { format!(" corrupt={}", case.corrupt) } else { String::new() };
    let delay = if case.delay == DelayModel::Unit {
        String::new()
    } else {
        format!(" delay={}", render_delay(case.delay))
    };
    let kill = match case.kill {
        Some(k) => format!(" kill={k}"),
        None => String::new(),
    };
    let graph = match &case.topology {
        Some(spec) => format!(" graph={spec}"),
        None => String::new(),
    };
    format!(
        "case n={} gseed={} seed={} loss={}{corrupt}{delay}{kill}{graph} crashes={} absent={} events={}",
        case.n,
        case.graph_seed,
        case.run_seed,
        case.loss,
        render_list(&case.crashes, |&(v, r)| format!("{v}@{r}")),
        render_list(&case.absent_nodes, usize::to_string),
        render_list(&case.events, |&(r, k)| format!("{r}:{}", render_kind(k))),
    )
}

/// Parses one corpus line (must start with `case`).
///
/// # Errors
/// Returns a description of the first malformed token.
pub fn parse_case(line: &str) -> Result<ChaosCase, String> {
    let mut tokens = line.split_whitespace();
    if tokens.next() != Some("case") {
        return Err(format!("expected 'case ...', got '{line}'"));
    }
    let mut case = ChaosCase {
        n: 0,
        topology: None,
        graph_seed: 0,
        run_seed: 0,
        loss: 0.0,
        corrupt: 0.0,
        delay: DelayModel::Unit,
        crashes: Vec::new(),
        absent_nodes: Vec::new(),
        events: Vec::new(),
        kill: None,
    };
    for tok in tokens {
        let (key, value) = tok.split_once('=').ok_or_else(|| format!("bad token '{tok}'"))?;
        match key {
            "n" => case.n = value.parse().map_err(|_| format!("bad n '{value}'"))?,
            "gseed" => {
                case.graph_seed = value.parse().map_err(|_| format!("bad gseed '{value}'"))?;
            }
            "seed" => case.run_seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "loss" => case.loss = value.parse().map_err(|_| format!("bad loss '{value}'"))?,
            "corrupt" => {
                case.corrupt = value.parse().map_err(|_| format!("bad corrupt '{value}'"))?;
            }
            "delay" => case.delay = parse_delay(value)?,
            "graph" => {
                // Same grammar as `dam-cli run --graph`; validating at
                // parse time keeps `ChaosCase::graph` infallible.
                ImplicitTopology::parse(value)?;
                case.topology = Some(value.to_string());
            }
            "kill" => {
                let k: u64 = value.parse().map_err(|_| format!("bad kill '{value}'"))?;
                if k == 0 {
                    return Err("kill must be >= 1 (the first boundary)".to_string());
                }
                case.kill = Some(k);
            }
            "crashes" => {
                case.crashes = parse_list(value, |s| {
                    let (v, r) = s.split_once('@').ok_or_else(|| format!("bad crash '{s}'"))?;
                    Ok((
                        v.parse().map_err(|_| format!("bad crash node '{v}'"))?,
                        r.parse().map_err(|_| format!("bad crash round '{r}'"))?,
                    ))
                })?;
            }
            "absent" => {
                case.absent_nodes =
                    parse_list(value, |s| s.parse().map_err(|_| format!("bad absent node '{s}'")))?;
            }
            "events" => {
                case.events = parse_list(value, |s| {
                    let (r, k) = s.split_once(':').ok_or_else(|| format!("bad event '{s}'"))?;
                    Ok((r.parse().map_err(|_| format!("bad event round '{r}'"))?, parse_kind(k)?))
                })?;
            }
            other => return Err(format!("unknown key '{other}'")),
        }
    }
    if case.n == 0 {
        return Err("case is missing n".to_string());
    }
    if let Some(spec) = &case.topology {
        let nodes = ImplicitTopology::parse(spec)?.node_count();
        if nodes != case.n {
            return Err(format!("graph={spec} has {nodes} nodes but n={}", case.n));
        }
    }
    Ok(case)
}

/// Renders a whole corpus (header comment + one line per case).
#[must_use]
pub fn render_corpus(cases: &[ChaosCase]) -> String {
    let mut out = String::from(
        "# chaos regression corpus — worst churn+fault schedules found by\n\
         # `cargo run -p dam-bench --bin chaos`; replayed by\n\
         # `cargo test -p dam-bench --test chaos_regression`.\n",
    );
    for c in cases {
        out.push_str(&render_case(c));
        out.push('\n');
    }
    out
}

/// Parses a corpus file: `case` lines, `#` comments, blank lines.
///
/// # Errors
/// Reports the first malformed line with its number.
pub fn parse_corpus(text: &str) -> Result<Vec<ChaosCase>, String> {
    let mut cases = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        cases.push(parse_case(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(cases)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_case() -> ChaosCase {
        ChaosCase {
            n: 48,
            topology: None,
            graph_seed: 11,
            run_seed: 7,
            loss: 0.05,
            corrupt: 0.02,
            delay: DelayModel::Unit,
            crashes: vec![(5, 4), (9, 10)],
            absent_nodes: vec![3],
            events: vec![
                (2, ChurnKind::EdgeDown { edge: 14 }),
                (5, ChurnKind::Leave { node: 8 }),
                (9, ChurnKind::Join { node: 3 }),
                (12, ChurnKind::EdgeUp { edge: 14 }),
            ],
            kill: None,
        }
    }

    #[test]
    fn corpus_roundtrips() {
        let cases = vec![
            sample_case(),
            ChaosCase {
                crashes: Vec::new(),
                absent_nodes: Vec::new(),
                events: Vec::new(),
                loss: 0.0,
                corrupt: 0.0,
                ..sample_case()
            },
        ];
        let text = render_corpus(&cases);
        let back = parse_corpus(&text).unwrap();
        assert_eq!(back, cases);
        // An honest channel renders without the corrupt key, so lines
        // committed before the corruption fault model stay parseable.
        assert!(!render_case(&cases[1]).contains("corrupt="));
        assert!(render_case(&cases[0]).contains("corrupt=0.02"));
    }

    #[test]
    fn delay_specs_roundtrip_and_lockstep_stays_implicit() {
        let models = [
            DelayModel::Unit,
            DelayModel::UniformRandom { max: 7 },
            DelayModel::LinkSkew { spread: 5 },
            DelayModel::Straggler { node: 3, slow: 9 },
            DelayModel::StragglerRecovers { node: 3, slow: 9, until: 30 },
            DelayModel::Burst { period: 4, width: 2, extra: 6 },
        ];
        for m in models {
            assert_eq!(parse_delay(&render_delay(m)).unwrap(), m);
        }
        let timed = ChaosCase { delay: DelayModel::LinkSkew { spread: 5 }, ..sample_case() };
        let line = render_case(&timed);
        assert!(line.contains("delay=skew:5"));
        assert_eq!(parse_case(&line).unwrap(), timed);
        // A lockstep case renders without the key, so corpus lines
        // committed before the asynchronous backend stay byte-stable.
        assert!(!render_case(&sample_case()).contains("delay="));
        assert!(parse_delay("warp:1").is_err());
        assert!(parse_delay("uniform").is_err());
        assert!(parse_delay("burst:1:2:3:4").is_err());
        assert!(parse_delay("recovers:3:9").is_err(), "recovers needs its until round");
    }

    #[test]
    fn tournament_arms_are_deterministic_and_comparable() {
        // A scaled-down schedule keeps the unit test fast; the full
        // n = 64 tournament is E19.
        let schedule = DriftSchedule {
            name: "mini-burst",
            n: 20,
            graph_seed: 5,
            run_seed: 5,
            faults: FaultPlan::default().with_squall(Squall {
                from_round: 0,
                until_round: 10,
                loss: 0.3,
                corrupt: 0.0,
            }),
            delay: DelayModel::Unit,
            quiet_from: 11,
        };
        let policy = TransportMode::Adaptive(AdaptivePolicy::for_delay_bound(1));
        let adaptive = run_arm(&schedule, "adaptive", policy);
        assert_eq!(adaptive, run_arm(&schedule, "adaptive", policy), "arms must be deterministic");
        let fixed =
            run_arm(&schedule, "static-b1", TransportMode::Fixed(TransportCfg::for_delay_bound(1)));
        assert!(adaptive.ratio >= 0.5 && fixed.ratio >= 0.5);
        assert!(adaptive.rounds > 0 && fixed.rounds > 0);
        assert!(adaptive.tail_retx <= adaptive.retransmissions);
    }

    #[test]
    fn quiet_timing_cases_run_async_without_false_suspicion() {
        let case = ChaosCase {
            n: 24,
            topology: None,
            graph_seed: 5,
            run_seed: 5,
            loss: 0.0,
            corrupt: 0.0,
            delay: DelayModel::Straggler { node: 3, slow: 9 },
            crashes: Vec::new(),
            absent_nodes: Vec::new(),
            events: Vec::new(),
            kill: None,
        };
        assert!(case.quiet());
        let out = evaluate(&case);
        assert_eq!(out, evaluate(&case), "evaluation must be deterministic");
        assert!(out.invariant_ok);
        assert_eq!(out.suspected, 0, "tuned timeouts must clear a slow-but-correct node");
        assert!(!out.false_suspicion);
        assert!(out.ratio >= 0.9);
    }

    #[test]
    fn timing_adversary_draws_after_the_schedule_stream() {
        let base = SearchCfg { n: 24, cases: 2, horizon: 24, ..SearchCfg::default() };
        let timed = SearchCfg { max_delay_bound: 9, ..base.clone() };
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        let plain = random_case(&base, &mut a);
        let spiced = random_case(&timed, &mut b);
        // With the adversary off nothing changes (the committed corpus
        // replays the pre-async stream)...
        assert_eq!(plain.delay, DelayModel::Unit);
        // ...and with it on, the schedule prefix of the draw is the
        // same — only the delay (and the quiet coin) comes on top.
        assert_eq!(plain.graph_seed, spiced.graph_seed);
        assert_eq!(plain.run_seed, spiced.run_seed);
        assert_ne!(spiced.delay, DelayModel::Unit);
        assert!(spiced.delay.bound() <= 9);
    }

    #[test]
    fn kill_rounds_roundtrip_and_uninterrupted_stays_implicit() {
        let killed = ChaosCase { kill: Some(1), ..sample_case() };
        let line = render_case(&killed);
        assert!(line.contains("kill=1"));
        assert_eq!(parse_case(&line).unwrap(), killed);
        // An uninterrupted case renders without the key, so corpus
        // lines committed before the checkpoint layer stay byte-stable.
        assert!(!render_case(&sample_case()).contains("kill="));
        assert!(parse_case("case n=4 kill=0").is_err(), "boundary 0 never commits");
        assert!(parse_case("case n=4 kill=soon").is_err());
    }

    #[test]
    fn crash_restart_cases_recover_and_stay_deterministic() {
        for kill in [1, 2] {
            let case = ChaosCase { kill: Some(kill), ..sample_case() };
            let out = evaluate(&case);
            assert_eq!(out, evaluate(&case), "kill={kill}: evaluation must be deterministic");
            assert!(out.invariant_ok, "kill={kill}: restored run broke the invariant: {out:?}");
            assert!(out.ratio >= 0.5, "kill={kill}: {out:?}");
        }
    }

    #[test]
    fn crash_restart_adversary_draws_after_the_schedule_stream() {
        let base = SearchCfg { n: 24, cases: 2, horizon: 24, ..SearchCfg::default() };
        let armed = SearchCfg { crash_restart: true, ..base.clone() };
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        let plain = random_case(&base, &mut a);
        let killed = random_case(&armed, &mut b);
        assert_eq!(plain.kill, None);
        assert_eq!(plain.events, killed.events, "the schedule prefix must be unchanged");
        assert_eq!(plain.crashes, killed.crashes);
        let k = killed.kill.expect("armed searches always schedule a kill");
        assert!((1..=2).contains(&k));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_case("not a case").is_err());
        assert!(parse_case("case n=oops").is_err());
        assert!(parse_case("case n=4 events=1:warp:3").is_err());
        assert!(parse_corpus(
            "# fine\ncase n=4 gseed=1 seed=1 loss=0 crashes=- absent=- events=-\nbroken"
        )
        .is_err());
    }

    #[test]
    fn random_cases_are_valid_and_evaluation_is_deterministic() {
        let cfg = SearchCfg { n: 24, cases: 2, horizon: 24, ..SearchCfg::default() };
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..4 {
            let case = random_case(&cfg, &mut rng);
            let g = case.graph();
            case.churn_plan().validate(&g).expect("generated plan must be valid");
            case.churn_plan().validate_against(&case.fault_plan()).expect("disjoint from crashes");
            let a = evaluate(&case);
            let b = evaluate(&case);
            assert_eq!(a, b, "evaluation must be deterministic");
            assert!(a.invariant_ok, "pipeline must keep the invariant");
            assert!(a.ratio >= 0.5, "two maximal matchings are within a factor 2");
        }
    }

    #[test]
    fn shrink_only_removes_and_stays_as_bad() {
        let cfg = SearchCfg { n: 24, cases: 4, horizon: 24, seed: 9, ..SearchCfg::default() };
        let (case, out) = search(&cfg);
        // The searched-and-shrunk case still evaluates to the reported
        // outcome (search returns post-shrink numbers).
        assert_eq!(evaluate(&case), out);
        assert!(out.invariant_ok);
    }
}
