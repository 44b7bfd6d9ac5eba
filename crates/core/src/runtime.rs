//! The unified protocol runtime: one composable pipeline for every
//! matching driver.
//!
//! Every cross-cutting feature this crate grew — the resilient
//! transport, churn maintenance, localized repair, proof-labeling
//! certification — is one layer of a single middleware stack around any
//! node program:
//!
//! ```text
//!   RuntimeConfig                run_mm(algo, g, cfg)
//!   ┌───────────────┐            ┌──────────────────────────────────┐
//!   │ sim: SimConfig│            │ certification   (certify toggle) │
//!   │ transport     │            ├──────────────────────────────────┤
//!   │ faults, churn │            │ repair          (repair toggle)  │
//!   │ certify       │   drives   ├──────────────────────────────────┤
//!   │ repair        │ ─────────► │ maintenance     (maintain toggle)│
//!   │ maintain      │            ├──────────────────────────────────┤
//!   │ repair_faults │            │ resilient transport (transport)  │
//!   │ algo          │            ├──────────────────────────────────┤
//!   └───────────────┘            │ Algorithm phases on execute      │
//!                                │ (RunSpec: faults + churn; config │
//!                                │  picks the backend)              │
//!                                └──────────────────────────────────┘
//! ```
//!
//! * An [`Algorithm`] is a *driver*: it owns the phase structure of a
//!   matching algorithm and runs each phase through an [`Exec`], the
//!   runtime's phase executor. The executor owns one engine
//!   ([`Network`]) for the whole run — so successive phases draw
//!   distinct randomness exactly like the legacy multi-phase drivers —
//!   and applies the transport/fault/churn wrapping uniformly, so a
//!   driver never sees those layers. The portfolio ships four
//!   implementors: [`IsraeliItai`] (maximal, Algorithm 1/2),
//!   [`crate::bipartite::Bipartite`] (`(1−1/k)`-MCM, Algorithm 3/4),
//!   [`crate::weighted::Weighted`] (`(1/2−ε)`-MWM, Algorithm 5) and
//!   [`crate::luby::LubyMatching`] (Luby's MIS on the implicit line
//!   graph).
//! * Every implementor also has *resume* semantics
//!   ([`Algorithm::resume`]): re-run from sanitized per-node match
//!   registers on the residual graph. That is the contract the repair
//!   layer composes with, for any driver.
//! * [`RuntimeConfig`] is the one knob surface. Every knob is reachable
//!   from a `dam-cli run` flag; [`RuntimeConfig::KNOBS`] is the
//!   machine-checkable map that keeps CLI and config from drifting.
//!   [`AlgoSpec`] is the portfolio selector knob; [`run_configured`]
//!   dispatches it.
//! * [`run_mm`] executes the stack, and is the one way to run a
//!   matching driver. With every toggle off it is the plain driver; with
//!   `repair` on it is the self-healing pipeline; with `maintain` on the
//!   churn-tolerant pipeline; with `certify` (+`repair`) on the certified
//!   pipeline. `tests/runtime_equiv.rs` and `tests/algo_conformance.rs`
//!   pin it to golden replicas of the pre-runtime code, and
//!   `tests/run_mm_digests.rs` to a committed digest table. A node
//!   program whose output is not a match register (e.g. Luby's plain MIS
//!   membership flags) runs on [`Network::execute`] directly.
//! * One knob makes one decision: [`RuntimeConfig::transport`] is the
//!   only transport setting (a [`TransportMode`], fixed or adaptive),
//!   and the engine's own settings live only in [`RuntimeConfig::sim`].
//!
//! Seed discipline: every derived stream is domain-separated from
//! `sim.seed` through [`rng::splitmix64`] (the certification layer's
//! check/recheck keys, the maintenance layer's batch seeds, the lie
//! stream), so a `RuntimeConfig` replays bit-identically — including
//! across thread counts, which only change the execution schedule.
//! The repair and maintenance streams are additionally keyed by
//! [`Algorithm::name`] (see [`algo_domain`]), so two different
//! algorithms on the same master seed draw independent randomness.
//!
//! Phase semantics under faults: the *first* phase of a main run
//! executes under the full fault and churn plans (for a single-phase
//! driver this is exactly the legacy behaviour). Later phases re-use
//! the link-level fault channels only — crashed nodes stay dead as
//! engine-level tombstones ([`Slot::Dead`]) and scripted churn is not
//! replayed again (its final topology is reconciled by the maintenance
//! layer, which re-validates registers against final presence).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dam_congest::transport::{TransportCfg, TransportMode};
use dam_congest::{
    rng, AdaptivePolicy, Backend, ChurnPlan, Context, DelayModel, FaultPlan, Network, Port,
    Protocol, RunOutcome, RunSpec, RunStats, SessionState, SimConfig, SinkHandle, TotalStats,
};
use dam_graph::{materialize, BitSet, EdgeId, Graph, Matching, NodeId, Topology};

use crate::certify::{apply_lies, certify_present, Certificate, CHECK_DOMAIN, RECHECK_DOMAIN};
use crate::checkpoint::{
    CheckpointCfg, CheckpointStore, CheckpointWriter, RestoreOutcome, Snapshot, Stage,
    CHECKPOINT_DOMAIN,
};
use crate::error::CoreError;
use crate::israeli_itai::IiNode;
use crate::maintain::{sanitize_present, MaintainConfig, Maintainer, MAINTAIN_DOMAIN};
use crate::repair::{sanitize_registers_on, RepairReport};
use crate::report::matching_from_registers;

pub mod conformance;

/// A distributed matching algorithm the runtime can drive.
///
/// An implementor is a *driver*, not a single node program: it owns the
/// algorithm's phase structure (one phase for Israeli–Itai, `k` path
/// phases for the bipartite driver, a gain/resolve/apply loop for the
/// weighted driver) and executes each phase through the [`Exec`] it is
/// handed. The executor supplies the engine, the transport wrapping and
/// the fault/churn plans, so the same driver composes unchanged with
/// every middleware layer and backend.
///
/// The trait is object-safe: [`AlgoSpec::build`] hands out
/// `Box<dyn Algorithm>`, and [`run_mm`] accepts unsized implementors.
///
/// `Sync` is required because the parallel engine shares node factories
/// across worker threads.
pub trait Algorithm: Sync {
    /// Short stable name for reports and CLI output. Also keys the
    /// repair/maintenance seed domains ([`algo_domain`]), so it must be
    /// unique across implementors.
    fn name(&self) -> &'static str;

    /// Runs the algorithm from scratch, phase by phase, on `exec`.
    /// Returns the final per-node match registers (§2's output
    /// convention).
    ///
    /// # Errors
    /// Propagates simulator errors from any phase.
    fn run(&self, exec: &mut Exec<'_>) -> Result<MainRun, CoreError>;

    /// Re-runs the algorithm from a prior (sanitized) register state on
    /// the residual graph: `registers[v]` is node `v`'s committed match
    /// and [`Exec::alive`] marks the trusted domain. The repair layer
    /// drives this to heal a damaged matching without restarting from
    /// nothing; the surviving matched edges must be preserved.
    ///
    /// # Errors
    /// Propagates simulator errors from any phase.
    fn resume(
        &self,
        exec: &mut Exec<'_>,
        registers: &[Option<EdgeId>],
    ) -> Result<MainRun, CoreError>;

    /// Serializes this driver's register state for a durable snapshot
    /// ([`crate::checkpoint`]). The default covers every driver whose
    /// registers are plain `Option<EdgeId>` per node — which is all of
    /// them today; a driver with richer per-node state overrides both
    /// codec hooks together.
    fn encode_registers(&self, registers: &[Option<EdgeId>]) -> Vec<u8> {
        crate::checkpoint::encode_registers(registers)
    }

    /// Inverse of [`Algorithm::encode_registers`]; `n` is the node
    /// count the registers must cover. Must be total: corrupted bytes
    /// return an error, never panic — the snapshot degradation ladder
    /// depends on it.
    ///
    /// # Errors
    /// The first structural violation found in `bytes`.
    fn decode_registers(
        &self,
        bytes: &[u8],
        n: usize,
    ) -> Result<Vec<Option<EdgeId>>, crate::checkpoint::SnapshotError> {
        crate::checkpoint::decode_registers(bytes, n)
    }
}

/// The result of an [`Algorithm`] driver run: the register state plus
/// the driver's own iteration accounting.
#[derive(Debug, Clone)]
pub struct MainRun {
    /// Final per-node output registers.
    pub registers: Vec<Option<EdgeId>>,
    /// Driver-level iteration count (algorithm-defined: proposal
    /// iterations for Israeli–Itai and Luby, augmentation passes for
    /// the bipartite driver, gain/apply iterations for the weighted
    /// driver).
    pub iterations: usize,
}

/// The phase executor handed to an [`Algorithm`] driver.
///
/// One `Exec` wraps one engine for the whole run, so every
/// [`Exec::phase`] call draws a fresh randomness stream (the engine's
/// run counter separates them) while stats accumulate across phases.
/// The executor also owns the middleware facts a driver must respect
/// but should not re-implement: the transport wrapping, the fault and
/// churn plans, and the trusted domain (dead nodes become engine-level
/// tombstones in every phase after the first, and in every phase of a
/// resume run).
pub struct Exec<'g> {
    g: &'g dyn Topology,
    net: Network<'g>,
    transport: Option<TransportMode>,
    first_faults: FaultPlan,
    later_faults: FaultPlan,
    churn: ChurnPlan,
    alive: BitSet,
    resume: bool,
    phases: usize,
    stats: Option<RunStats>,
    sessions: Vec<Option<SessionState>>,
}

impl<'g> Exec<'g> {
    /// Executor for a main [`run_mm`] pipeline run: the first phase
    /// runs under the full fault and churn plans (bit-identical to the
    /// legacy single-phase pipelines), later phases under the
    /// link-level channels with dead/churned-out nodes tombstoned.
    pub(crate) fn main_run(g: &'g dyn Topology, cfg: &RuntimeConfig, alive: &BitSet) -> Exec<'g> {
        let mut net = Network::new(g, cfg.sim);
        // Telemetry covers the main run: repair/maintenance spin up
        // fresh engines whose run ids restart at zero and would collide
        // in the sample stream; they report aggregate stats instead.
        net.set_stats_sink(cfg.stats_sink.clone());
        let (node_present, _) = cfg.churn.final_presence_on(g);
        let mask = BitSet::from_fn(g.node_count(), |v| alive[v] && node_present[v]);
        Exec {
            g,
            net,
            transport: cfg.transport,
            first_faults: cfg.faults.clone(),
            later_faults: link_channels(&cfg.faults),
            churn: cfg.churn.clone(),
            alive: mask,
            resume: false,
            phases: 0,
            stats: None,
            sessions: Vec::new(),
        }
    }

    /// Executor for a resume (repair) run: every phase is crash-free
    /// with the dead given by `alive`, and no churn is replayed.
    pub(crate) fn resume_run(
        g: &'g dyn Topology,
        sim: SimConfig,
        faults: &FaultPlan,
        transport: Option<TransportMode>,
        alive: BitSet,
    ) -> Exec<'g> {
        Exec {
            g,
            net: Network::new(g, sim),
            transport,
            first_faults: faults.clone(),
            later_faults: faults.clone(),
            churn: ChurnPlan::default(),
            alive,
            resume: true,
            phases: 0,
            stats: None,
            sessions: Vec::new(),
        }
    }

    /// The topology every phase runs on — the CSR [`Graph`] or an
    /// implicit family member; drivers address it uniformly through the
    /// [`Topology`] trait.
    #[must_use]
    pub fn graph(&self) -> &'g dyn Topology {
        self.g
    }

    /// The trusted domain: `false` marks nodes that are dead (crashed,
    /// quarantined, or churned out of the final topology) and will be
    /// tombstoned in tombstone-wrapped phases.
    #[must_use]
    pub fn alive(&self) -> &BitSet {
        &self.alive
    }

    /// Per-node ports leading to nodes outside the trusted domain —
    /// the `dead_ports` argument resume constructors expect.
    #[must_use]
    pub fn dead_ports(&self) -> Vec<Vec<Port>> {
        (0..self.g.node_count())
            .map(|v| {
                self.g.incident(v).filter_map(|(p, u, _)| (!self.alive[u]).then_some(p)).collect()
            })
            .collect()
    }

    /// Number of phases executed so far.
    #[must_use]
    pub fn phases(&self) -> usize {
        self.phases
    }

    /// Runs one phase of the driver's node program `make` under the
    /// executor's wrapping rules and returns the engine outcome. The
    /// executor keeps the outcome's session exports for the checkpoint
    /// layer, so the returned [`RunOutcome::sessions`] is empty.
    ///
    /// Every phase runs each node in a [`Slot`]. In the first phase of
    /// a main run (under the full fault + churn plans) every node is
    /// [`Slot::Live`], which forwards every [`Protocol`] method, so that
    /// phase runs the bare program and `make` is called for every node.
    /// In every other phase untrusted nodes are [`Slot::Dead`], halted
    /// tombstones with a [`Default`] output, and `make` is never called
    /// for them. When a transport is configured, each live node's
    /// program is wrapped in it ([`TransportMode::wrap`]).
    ///
    /// # Errors
    /// Propagates simulator errors from the engine.
    pub fn phase<P, F>(&mut self, make: F) -> Result<RunOutcome<P::Output>, CoreError>
    where
        P: Protocol + Send,
        P::Output: Default,
        F: Fn(NodeId, &dyn Topology) -> P + Sync,
    {
        let first = self.phases == 0;
        self.phases += 1;
        let trusts_all = first && !self.resume;
        let faults = if first { &self.first_faults } else { &self.later_faults };
        let mut spec = RunSpec { faults, ..RunSpec::default() };
        if trusts_all {
            spec.churn = &self.churn;
        }
        let alive = &self.alive;
        let live = |v: NodeId| trusts_all || alive[v];
        let mut out = match self.transport {
            None => self.net.execute(
                |v, graph| if live(v) { Slot::Live(make(v, graph)) } else { Slot::Dead },
                &spec,
            )?,
            Some(mode) => self.net.execute(
                |v, graph| if live(v) { Slot::Live(mode.wrap(make(v, graph))) } else { Slot::Dead },
                &spec,
            )?,
        };
        match &mut self.stats {
            None => self.stats = Some(out.stats),
            Some(s) => s.absorb(&out.stats),
        }
        // The checkpoint layer snapshots the *last* phase's session
        // exports (the quiescent boundary is after the final phase), so
        // they move here and the returned outcome keeps none.
        self.sessions = std::mem::take(&mut out.sessions);
        Ok(out)
    }

    /// Whether every phase of this executor is a pure function of the
    /// node programs its driver builds. It holds when no fault is
    /// injected, no churn is replayed, no transport runs, no stats sink
    /// is attached, and the backend is not [`Backend::Async`] (whose
    /// delays are keyed on the run id). A main run with empty plans
    /// trusts every node, so its first phase runs the same programs as a
    /// later one.
    #[must_use]
    pub(crate) fn phases_are_pure(&self) -> bool {
        // `later_faults` is a part of `first_faults`.
        self.first_faults.is_empty()
            && self.churn.is_empty()
            && self.transport.is_none()
            && self.net.stats_sink().is_none()
            && self.net.config().effective_backend() != Backend::Async
    }

    /// Records a phase the driver did not run: counts it in
    /// [`Exec::phases`], absorbs `stats` into the run's stats and charges
    /// the engine ([`Network::charge_run`]), so rounds, messages, bits,
    /// the engine's run count and every later phase's randomness stream
    /// read exactly as if the phase had executed.
    ///
    /// A charge is sound when [`Exec::phases_are_pure`] holds and an
    /// executed phase of this executor ran the same node programs from
    /// the same inputs, drew no randomness, and returned `stats`: a
    /// pure phase would then return `stats` again and change nothing
    /// else. Algorithm 5 charges the iterations after its fixpoint this
    /// way ([`crate::weighted::Weighted`]).
    ///
    /// # Panics
    /// If [`Exec::phases_are_pure`] does not hold.
    pub(crate) fn charge(&mut self, stats: &RunStats) {
        assert!(self.phases_are_pure(), "only a pure phase can be charged");
        self.phases += 1;
        self.net.charge_run(stats);
        self.stats.get_or_insert_with(RunStats::default).absorb(stats);
    }

    /// Consumes the executor: per-phase stats absorbed into one
    /// [`RunStats`] (exactly the single phase's stats for single-phase
    /// drivers), the engine's run totals, and the final phase's
    /// transport-session exports (empty for bare programs).
    pub(crate) fn into_stats(self) -> (RunStats, TotalStats, Vec<Option<SessionState>>) {
        (self.stats.unwrap_or_default(), self.net.totals(), self.sessions)
    }
}

/// One `f64` per port of every node: scratch rows a driver allocates
/// once and lends to the node programs of all its phases, as the
/// bipartite driver lends its `live` rows, instead of each program
/// allocating its own row in every phase.
///
/// A node program touches only its own row. The cells are relaxed
/// atomics so that the rows can be shared with the sharded engine's
/// workers, at the cost of plain loads and stores: nothing else is
/// published through them, and the driver reads them only after the
/// phase has returned, which orders every write before the read.
pub(crate) struct PortRows {
    /// Node `v`'s cells are `cells[start[v]..start[v + 1]]`.
    start: Vec<usize>,
    cells: Vec<AtomicU64>,
}

impl PortRows {
    /// Zeroed rows of `g.degree(v)` cells for every node `v`.
    pub(crate) fn new(g: &dyn Topology) -> PortRows {
        let mut start = Vec::with_capacity(g.node_count() + 1);
        start.push(0);
        for v in 0..g.node_count() {
            start.push(start[v] + g.degree(v));
        }
        let cells = (0..start[g.node_count()]).map(|_| AtomicU64::new(0)).collect();
        PortRows { start, cells }
    }

    /// Node `v`'s row.
    pub(crate) fn row(&self, v: NodeId) -> PortRow<'_> {
        PortRow(&self.cells[self.start[v]..self.start[v + 1]])
    }
}

/// One node's row of a [`PortRows`]: an `f64` per port.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PortRow<'a>(&'a [AtomicU64]);

impl PortRow<'_> {
    /// The value at `port`.
    pub(crate) fn get(&self, port: Port) -> f64 {
        f64::from_bits(self.0[port].load(Ordering::Relaxed))
    }

    /// Sets the value at `port`.
    pub(crate) fn set(&self, port: Port, x: f64) {
        self.0[port].store(x.to_bits(), Ordering::Relaxed);
    }

    /// Sets every port's value to `x`.
    pub(crate) fn fill(&self, x: f64) {
        for cell in self.0 {
            cell.store(x.to_bits(), Ordering::Relaxed);
        }
    }

    /// The values in port order.
    pub(crate) fn values(&self) -> impl ExactSizeIterator<Item = f64> + DoubleEndedIterator + '_ {
        self.0.iter().map(|cell| f64::from_bits(cell.load(Ordering::Relaxed)))
    }
}

/// The link-level fault channels of `f`: loss, duplication, reordering,
/// corruption and per-link overrides, with crashes, recoveries and
/// Byzantine roles stripped.
fn link_channels(f: &FaultPlan) -> FaultPlan {
    FaultPlan {
        loss: f.loss,
        dup: f.dup,
        reorder: f.reorder,
        corrupt: f.corrupt,
        links: f.links.clone(),
        ..FaultPlan::default()
    }
}

/// Seed-domain key of an algorithm, derived from [`Algorithm::name`]:
/// XORed into the repair and maintenance seeds so two different
/// algorithms on the same master seed draw independent fault and phase
/// randomness (satellite fix: these domains used to be hardwired to
/// Israeli–Itai for every driver).
///
/// Pinned to `0` for `"israeli-itai"` so every pre-portfolio golden
/// replica (PR 5's differential suite) stays bit-identical.
#[must_use]
pub fn algo_domain(name: &str) -> u64 {
    if name == "israeli-itai" {
        return 0;
    }
    // FNV-1a over the name, whitened through splitmix64.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    rng::splitmix64(h)
}

/// Israeli–Itai maximal matching as a runtime [`Algorithm`] — the
/// substrate every hardened pipeline in this crate runs on.
#[derive(Debug, Clone, Copy, Default)]
pub struct IsraeliItai;

impl Algorithm for IsraeliItai {
    fn name(&self) -> &'static str {
        "israeli-itai"
    }

    fn run(&self, exec: &mut Exec<'_>) -> Result<MainRun, CoreError> {
        let out = exec.phase(|v, g| IiNode::new(g.degree(v)))?;
        // One Israeli–Itai iteration is a 3-round exchange.
        let iterations = usize::try_from(out.stats.rounds.div_ceil(3)).unwrap_or(usize::MAX);
        Ok(MainRun { registers: out.outputs, iterations })
    }

    fn resume(
        &self,
        exec: &mut Exec<'_>,
        registers: &[Option<EdgeId>],
    ) -> Result<MainRun, CoreError> {
        let dead = exec.dead_ports();
        let regs = registers.to_vec();
        let out = exec.phase(move |v, g| IiNode::with_state(g.degree(v), regs[v], &dead[v]))?;
        let iterations = usize::try_from(out.stats.rounds.div_ceil(3)).unwrap_or(usize::MAX);
        Ok(MainRun { registers: out.outputs, iterations })
    }
}

/// Portfolio selector: which [`Algorithm`] implementor a
/// [`RuntimeConfig`] drives. The CLI spelling is `--algo
/// ii|bipartite[:K]|weighted|luby`; [`AlgoSpec::build`] constructs the
/// implementor with its default tuning.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AlgoSpec {
    /// Israeli–Itai maximal matching (Algorithm 1/2) — the default.
    #[default]
    IsraeliItai,
    /// Bipartite `(1−1/k)`-approximate maximum cardinality matching
    /// (Algorithm 3/4); requires a bipartition on the input graph.
    Bipartite {
        /// Approximation parameter: augmenting paths up to length
        /// `2k−1` are exhausted.
        k: usize,
    },
    /// Weighted `(1/2−ε)`-approximate maximum weight matching
    /// (Algorithm 5).
    Weighted {
        /// Approximation slack of the gain/resolve/apply loop.
        eps: f64,
    },
    /// Luby's MIS on the implicit line graph, read as a maximal
    /// matching.
    LubyMatching,
}

impl AlgoSpec {
    /// Parses a CLI algorithm spec: `ii` (or `israeli-itai`),
    /// `bipartite` (k = 3) or `bipartite:K`, `weighted` (ε = 0.1),
    /// `luby` (or `luby-matching`).
    ///
    /// # Errors
    /// A human-readable message naming the unknown or malformed spec
    /// (the CLI maps it to a usage error, exit 2).
    pub fn parse(s: &str) -> Result<AlgoSpec, String> {
        if let Some(k) = s.strip_prefix("bipartite:") {
            let k: usize =
                k.parse().map_err(|_| format!("bad phase count in '--algo {s}' (want K >= 2)"))?;
            if k < 2 {
                return Err(format!("bad phase count in '--algo {s}' (want K >= 2)"));
            }
            return Ok(AlgoSpec::Bipartite { k });
        }
        match s {
            "ii" | "israeli-itai" => Ok(AlgoSpec::IsraeliItai),
            "bipartite" => Ok(AlgoSpec::Bipartite { k: 3 }),
            "weighted" => Ok(AlgoSpec::Weighted { eps: 0.1 }),
            "luby" | "luby-matching" => Ok(AlgoSpec::LubyMatching),
            other => Err(format!("unknown algorithm '{other}' (ii|bipartite[:K]|weighted|luby)")),
        }
    }

    /// Constructs the selected implementor with its default tuning.
    #[must_use]
    pub fn build(self) -> Box<dyn Algorithm> {
        match self {
            AlgoSpec::IsraeliItai => Box::new(IsraeliItai),
            AlgoSpec::Bipartite { k } => Box::new(crate::bipartite::Bipartite {
                k,
                ..crate::bipartite::Bipartite::default()
            }),
            AlgoSpec::Weighted { eps } => {
                Box::new(crate::weighted::Weighted { eps, ..crate::weighted::Weighted::default() })
            }
            AlgoSpec::LubyMatching => Box::new(crate::luby::LubyMatching),
        }
    }
}

/// The one knob surface of the runtime. Build with [`RuntimeConfig::new`]
/// and the chainable setters; consume with [`run_mm`].
#[derive(Debug, Clone, Default)]
pub struct RuntimeConfig {
    /// Engine configuration of the main run: model, seed, round guard,
    /// worker threads, backend, delay model and patience
    /// ([`SimConfig::threads`] is honored by every layer). The only
    /// place these are set: build a [`SimConfig`] and pass it to
    /// [`RuntimeConfig::sim`].
    pub sim: SimConfig,
    /// Wrap every phase's node program in the resilient transport
    /// ([`dam_congest::Resilient`]): a fixed timer configuration
    /// ([`TransportMode::Fixed`]) or the closed-loop adaptive controller
    /// ([`TransportMode::Adaptive`]), whose timers start at the policy's
    /// floor and re-derive from observed retransmissions, suspicions
    /// and rejections at epoch boundaries. Either way a run stays a
    /// deterministic function of `(seed, plans, transport)`. `None` runs
    /// the program bare.
    pub transport: Option<TransportMode>,
    /// Adversarial fault plan of the main run (crashes, loss, duplication,
    /// reordering, corruption, Byzantine roles, partitions).
    pub faults: FaultPlan,
    /// Topology churn replayed by the engine during the main run.
    pub churn: ChurnPlan,
    /// Certification layer: apply register lies, run the O(1)-round
    /// proof-labeling checker, and re-verify after any repair. Also
    /// quarantines equivocators out of the trusted domain (≙ crashed).
    pub certify: bool,
    /// Repair layer: sanitize registers and re-run the algorithm on the
    /// residual graph. Unconditional when `certify` is off; on detection
    /// only when both are on.
    pub repair: bool,
    /// Maintenance layer: cross-validate against the final topology and
    /// restore maximality with a maintenance-billed repair
    /// ([`Maintainer`]).
    pub maintain: bool,
    /// Explicit fault plan for the repair phase; `None` derives the
    /// link-level channels of `faults` (see
    /// [`RuntimeConfig::effective_repair_faults`]).
    pub repair_faults: Option<FaultPlan>,
    /// Telemetry middleware: when set, the main run streams one
    /// cumulative [`dam_congest::RoundSample`] per engine round into
    /// the sink (any backend). Observation only — attaching a sink
    /// never changes outputs, statistics, or traces.
    pub stats_sink: Option<SinkHandle>,
    /// Portfolio selector consumed by [`run_configured`] (and the CLI's
    /// `--algo`). [`run_mm`] takes the implementor as an explicit
    /// argument, which wins over this field.
    pub algo: AlgoSpec,
    /// Durable checkpointing: when set, [`run_mm`] writes a
    /// [`Snapshot`] at every quiescent stage boundary (post-main,
    /// post-repair, post-maintenance), paced by
    /// [`CheckpointCfg::every`]. Observation only — enabling it never
    /// changes outputs, statistics, or traces.
    pub checkpoint: Option<CheckpointCfg>,
    /// Process-restart recovery: when set, [`run_mm`] resumes from the
    /// newest intact snapshot in this directory (degradation ladder:
    /// clean → previous generation → cold start) instead of running the
    /// main phase, then re-joins the pipeline at the snapshot's stage.
    pub restore: Option<PathBuf>,
}

impl RuntimeConfig {
    /// Every runtime knob and the `dam-cli run` flag that reaches it.
    ///
    /// The config-drift guard tests assert two directions: every
    /// `RuntimeConfig` field appears here (a unit test exhaustively
    /// destructures the struct), and every flag named here appears in
    /// the CLI usage text (`cli_exit_codes.rs`). Adding a knob without
    /// CLI plumbing fails the build or the suite.
    pub const KNOBS: &'static [(&'static str, &'static str)] = &[
        ("sim.seed", "--seed"),
        ("sim.max_rounds", "--max-rounds"),
        ("sim.threads", "--parallel"),
        ("sim.backend", "--backend"),
        ("sim.delay", "--delay"),
        ("sim.patience", "--patience"),
        ("transport", "--no-transport"),
        ("faults.loss", "--loss"),
        ("faults.dup", "--dup"),
        ("faults.reorder", "--reorder"),
        ("faults.corrupt", "--corrupt"),
        ("faults.crashes", "--crash"),
        ("faults.recoveries", "--recover"),
        ("faults.liars", "--liars"),
        ("faults.equivocators", "--equivocators"),
        ("churn", "--churn"),
        ("certify", "--certify"),
        ("repair", "--repair"),
        ("maintain", "--maintain"),
        ("repair_faults", "--isolated-repair"),
        ("transport", "--adaptive"),
        ("stats_sink", "--stats-out"),
        ("algo", "--algo"),
        ("checkpoint.dir", "--checkpoint-out"),
        ("checkpoint.every", "--checkpoint-every"),
        ("restore", "--restore"),
    ];

    /// A bare configuration: LOCAL model, no transport, no plans, every
    /// middleware layer off.
    #[must_use]
    pub fn new() -> RuntimeConfig {
        RuntimeConfig::default()
    }

    /// Sets the engine configuration of the main run.
    #[must_use]
    pub fn sim(mut self, sim: SimConfig) -> RuntimeConfig {
        self.sim = sim;
        self
    }

    /// Graceful degradation under adversarial timing: runs the
    /// asynchronous backend under `delay` and derives every
    /// timing-sensitive knob from its declared worst-case per-hop delay
    /// ([`DelayModel::bound`]) — `patience = 2·bound` (empirically
    /// drop-free for every shipped delay model; see `DESIGN.md`) and the
    /// fixed transport's silence timers via
    /// [`TransportCfg::for_delay_bound`], so slow-but-correct nodes are
    /// never suspected, quarantined, or retransmitted into congestion
    /// collapse. The rest of `sim` is kept.
    #[must_use]
    pub fn tuned_for_async(mut self, delay: DelayModel) -> RuntimeConfig {
        let bound = delay.bound();
        self.sim = self.sim.backend(Backend::Async).delay(delay).patience(2 * bound);
        self.transport(TransportCfg::for_delay_bound(bound))
    }

    /// Hardens the node program with the resilient transport under the
    /// fixed configuration `cfg`. Replaces any transport set before.
    #[must_use]
    pub fn transport(mut self, cfg: TransportCfg) -> RuntimeConfig {
        self.transport = Some(TransportMode::Fixed(cfg));
        self
    }

    /// Sets the adversarial fault plan of the main run.
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> RuntimeConfig {
        self.faults = faults;
        self
    }

    /// Sets the churn plan replayed during the main run.
    #[must_use]
    pub fn churn(mut self, churn: ChurnPlan) -> RuntimeConfig {
        self.churn = churn;
        self
    }

    /// Toggles the certification layer.
    #[must_use]
    pub fn certify(mut self, on: bool) -> RuntimeConfig {
        self.certify = on;
        self
    }

    /// Toggles the repair layer.
    #[must_use]
    pub fn repair(mut self, on: bool) -> RuntimeConfig {
        self.repair = on;
        self
    }

    /// Toggles the maintenance layer.
    #[must_use]
    pub fn maintain(mut self, on: bool) -> RuntimeConfig {
        self.maintain = on;
        self
    }

    /// Overrides the fault plan of the repair phase.
    #[must_use]
    pub fn repair_faults(mut self, faults: FaultPlan) -> RuntimeConfig {
        self.repair_faults = Some(faults);
        self
    }

    /// Hardens the node program with the *adaptive* resilient transport
    /// under `policy` (see [`RuntimeConfig::transport`]). Replaces any
    /// transport set before.
    #[must_use]
    pub fn adaptive(mut self, policy: AdaptivePolicy) -> RuntimeConfig {
        self.transport = Some(TransportMode::Adaptive(policy));
        self
    }

    /// Streams per-round telemetry from the main run into `sink`.
    #[must_use]
    pub fn stats_sink(mut self, sink: SinkHandle) -> RuntimeConfig {
        self.stats_sink = Some(sink);
        self
    }

    /// Selects the portfolio algorithm [`run_configured`] drives.
    #[must_use]
    pub fn algo(mut self, spec: AlgoSpec) -> RuntimeConfig {
        self.algo = spec;
        self
    }

    /// Enables durable checkpointing (see [`RuntimeConfig::checkpoint`]).
    #[must_use]
    pub fn checkpoint(mut self, cfg: CheckpointCfg) -> RuntimeConfig {
        self.checkpoint = Some(cfg);
        self
    }

    /// Resumes from a checkpoint directory (see
    /// [`RuntimeConfig::restore`]).
    #[must_use]
    pub fn restore(mut self, dir: &Path) -> RuntimeConfig {
        self.restore = Some(dir.to_path_buf());
        self
    }

    /// Validates the knobs that carry internal invariants (currently
    /// the transport's starting timer configuration, fixed or the
    /// adaptive floor). Called by [`run_mm`] before any phase runs.
    ///
    /// # Errors
    /// [`dam_congest::SimError::InvalidTransportCfg`] (as a
    /// [`CoreError::Sim`]) naming the violated constraint.
    pub fn validate(&self) -> Result<(), CoreError> {
        match self.transport {
            Some(mode) => mode.floor().validate().map_err(CoreError::Sim),
            None => Ok(()),
        }
    }

    /// The fault plan the repair phase runs under: the explicit override
    /// when set, otherwise the link-level channels of `faults` (loss,
    /// duplication, reordering, corruption, per-link overrides) with
    /// crashes, recoveries and Byzantine roles stripped — the damage
    /// being repaired is already in hand, and the repair engine asserts
    /// its plan is crash-free.
    #[must_use]
    pub fn effective_repair_faults(&self) -> FaultPlan {
        self.repair_faults.clone().unwrap_or_else(|| link_channels(&self.faults))
    }
}

/// The result of one [`run_mm`] pipeline execution: every stage's
/// output and cost.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// [`Algorithm::name`] of the program that ran.
    pub algorithm: &'static str,
    /// The final matching. Always valid on the trusted domain; maximal
    /// on it whenever a repair or maintenance layer ran (or the
    /// certificate attests it).
    pub matching: Matching,
    /// Final per-node output registers (symmetric wherever the matching
    /// is defined).
    pub registers: Vec<Option<EdgeId>>,
    /// Nodes outside the trusted domain: crashed-and-never-recovered,
    /// plus Byzantine equivocators when `certify` is on.
    pub excluded: Vec<NodeId>,
    /// Final node presence: churn's final topology minus excluded nodes.
    pub node_present: Vec<bool>,
    /// Final edge presence (churn's final topology).
    pub edge_present: Vec<bool>,
    /// Edges of the surviving consistent matching kept by the last
    /// sanitation pass (the full matching size on the bare path).
    pub surviving: usize,
    /// Claims dissolved by the last sanitation pass.
    pub dissolved: usize,
    /// Edges added by repair and/or maintenance.
    pub added: usize,
    /// Trusted nodes whose register changed across the repair phase
    /// (0 when no repair ran).
    pub repair_touched: usize,
    /// The certification layer's first verification pass (`None` when
    /// `certify` is off).
    pub initial: Option<Certificate>,
    /// The post-repair/post-maintenance re-verification (`None` when no
    /// follow-up phase ran or `certify` is off).
    pub recheck: Option<Certificate>,
    /// Cost of the main run, every driver phase absorbed (protocol +
    /// transport traffic, churn counters).
    pub phase1: RunStats,
    /// Engine run totals of the main run: one recorded run per driver
    /// phase.
    pub totals: TotalStats,
    /// Driver-level iteration count of the main run (see
    /// [`MainRun::iterations`]).
    pub iterations: usize,
    /// Cost of the repair phase, when one ran.
    pub repair: Option<RunStats>,
    /// Cost of the maintenance phase, when one ran.
    pub maintain: Option<RunStats>,
    /// How a checkpoint restore resolved (`None` when the run was not
    /// restored). A degraded or cold-start outcome maps to the CLI's
    /// damaged-but-recovered exit (3), like a detection.
    pub restore: Option<RestoreOutcome>,
}

impl RunReport {
    /// Whether the certification layer detected any fault on its first
    /// pass. Always `false` when `certify` was off.
    #[must_use]
    pub fn detected(&self) -> bool {
        self.initial.as_ref().is_some_and(|c| !c.ok())
    }

    /// Whether the *final* registers carry a certificate (initially, or
    /// after repair). `false` when `certify` was off — an uncertified
    /// run attests nothing.
    #[must_use]
    pub fn certified(&self) -> bool {
        match (&self.recheck, &self.initial) {
            (Some(re), _) => re.ok(),
            (None, Some(init)) => init.ok(),
            (None, None) => false,
        }
    }
}

/// Per-node protocol of every [`Exec::phase`]: nodes outside the trusted
/// domain are tombstones (silent, halted from round 0 — exactly how the
/// engine models a crashed processor), live nodes run the wrapped
/// program, every [`Protocol`] method forwarded.
pub enum Slot<P> {
    /// A node outside the trusted domain: [`Default`] output register.
    Dead,
    /// A trusted node running the wrapped program, held inline.
    Live(P),
}

impl<P> Protocol for Slot<P>
where
    P: Protocol,
    P::Output: Default,
{
    type Msg = P::Msg;
    type Output = P::Output;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        match self {
            Slot::Dead => ctx.halt(),
            Slot::Live(p) => p.on_start(ctx),
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Self::Msg>, inbox: &[(Port, Self::Msg)]) {
        match self {
            Slot::Dead => ctx.halt(),
            Slot::Live(p) => p.on_round(ctx, inbox),
        }
    }

    fn on_peer_down(&mut self, ctx: &mut Context<'_, Self::Msg>, port: Port) {
        if let Slot::Live(p) = self {
            p.on_peer_down(ctx, port);
        }
    }

    fn on_peer_up(&mut self, ctx: &mut Context<'_, Self::Msg>, port: Port) {
        if let Slot::Live(p) = self {
            p.on_peer_up(ctx, port);
        }
    }

    fn into_output(self) -> P::Output {
        match self {
            Slot::Dead => P::Output::default(),
            Slot::Live(p) => p.into_output(),
        }
    }

    fn session(&self) -> Option<SessionState> {
        match self {
            Slot::Dead => None,
            Slot::Live(p) => p.session(),
        }
    }
}

/// The runtime's repair phase, usable standalone: sanitizes damaged
/// registers against `alive` and re-runs `algo` (via
/// [`Algorithm::resume`]) on the residual graph, optionally over the
/// resilient transport. This is the engine behind [`run_mm`]'s repair
/// layer.
///
/// `faults` applies to the repair run itself and must not contain
/// crashes — the dead are given by `alive`. The simulator seed is
/// keyed by [`algo_domain`] so different algorithms draw independent
/// repair randomness from the same master seed.
///
/// # Errors
/// Propagates simulator errors; the final register assembly cannot fail
/// for crash-free repair plans (survivors finish with symmetric
/// registers).
///
/// # Panics
/// Panics if `registers`/`alive` are not one entry per node or if
/// `faults` contains crashes.
pub fn repair_registers<A: Algorithm + ?Sized>(
    algo: &A,
    g: &dyn Topology,
    registers: &[Option<EdgeId>],
    alive: &BitSet,
    faults: &FaultPlan,
    transport: Option<TransportMode>,
    sim: SimConfig,
) -> Result<RepairReport, CoreError> {
    assert!(
        faults.crashes.is_empty() && faults.recoveries.is_empty(),
        "repair-phase faults must not crash nodes; deaths are given by `alive`"
    );
    let sim = sim.seed(sim.seed ^ algo_domain(algo.name()));
    let sane = sanitize_registers_on(g, registers, alive);
    let mut exec = Exec::resume_run(g, sim, faults, transport, alive.clone());
    let out = algo.resume(&mut exec, &sane.registers)?;
    let (stats, _, _) = exec.into_stats();
    // A second sanitize pass makes assembly total even under exotic
    // fault plans; for crash-free plans it is a no-op on the survivors'
    // symmetric registers.
    let final_regs = sanitize_registers_on(g, &out.registers, alive);
    let matching = matching_from_registers(g, &final_regs.registers)?;
    Ok(RepairReport {
        // `saturating_sub`: a weighted resume may trade two light edges
        // for one heavy one, shrinking the cardinality below the
        // surviving count.
        added: matching.size().saturating_sub(sane.surviving),
        matching,
        surviving: sane.surviving,
        dissolved: sane.dissolved,
        stats,
    })
}

/// Runs the [`RuntimeConfig::algo`]-selected portfolio algorithm
/// through [`run_mm`] — the dynamic-dispatch entry the CLI's `--algo`
/// flag uses.
///
/// # Errors
/// As for [`run_mm`].
pub fn run_configured(g: &dyn Topology, cfg: &RuntimeConfig) -> Result<RunReport, CoreError> {
    run_mm(&*cfg.algo.build(), g, cfg)
}

/// Executes the full middleware pipeline around `algo` (see the module
/// docs for the layering): the main run under faults and churn
/// (transport-hardened when configured), then — per the toggles —
/// register lies + proof-labeling verification, localized repair,
/// maintenance against the final topology, and re-verification.
///
/// With every toggle off this is the plain driver: registers are
/// assembled directly and an inconsistent run surfaces as an error.
///
/// # Errors
/// Propagates simulator errors from any phase, plan validation errors
/// from the engine, and register-assembly errors on the bare path.
pub fn run_mm<A: Algorithm + ?Sized>(
    algo: &A,
    g: &dyn Topology,
    cfg: &RuntimeConfig,
) -> Result<RunReport, CoreError> {
    cfg.validate()?;
    if let Some(dir) = &cfg.restore {
        return restore_mm(algo, g, cfg, dir);
    }
    run_mm_fresh(algo, g, cfg, None)
}

/// The pipeline state entering the tail (everything after the main
/// run): the registers and masks plus the stats/counter ledger, and the
/// stage the tail starts from — [`Stage::Main`] for fresh runs, the
/// snapshot's stage for restored ones.
struct TailState {
    from: Stage,
    excluded: Vec<NodeId>,
    alive: BitSet,
    node_present: BitSet,
    edge_present: BitSet,
    regs: Vec<Option<EdgeId>>,
    phase1: RunStats,
    totals: TotalStats,
    iterations: usize,
    surviving: usize,
    dissolved: usize,
    added: usize,
    repair_touched: usize,
    repair_stats: Option<RunStats>,
    maintain_stats: Option<RunStats>,
    detected: bool,
    restore: Option<RestoreOutcome>,
    sessions: Vec<Option<SessionState>>,
}

/// Builds the durable image of the current tail state at `stage`.
/// Session exports ride only on the main boundary — the later
/// boundaries' phase transports are already torn down.
fn snapshot_of<A: Algorithm + ?Sized>(
    algo: &A,
    g: &dyn Topology,
    cfg: &RuntimeConfig,
    stage: Stage,
    st: &TailState,
) -> Snapshot {
    Snapshot {
        generation: 0, // stamped by the writer
        seed: cfg.sim.seed,
        stage,
        algorithm: algo.name().to_string(),
        graph_nodes: g.node_count() as u64,
        graph_edges: g.edge_count() as u64,
        graph_sum: Snapshot::graph_fingerprint(g),
        detected: st.detected,
        registers: st.regs.clone(),
        alive: st.alive.clone(),
        node_present: st.node_present.clone(),
        edge_present: st.edge_present.clone(),
        phase1: st.phase1,
        totals: st.totals,
        repair: st.repair_stats,
        maintain: st.maintain_stats,
        iterations: st.iterations as u64,
        counters: [
            st.surviving as u64,
            st.dissolved as u64,
            st.added as u64,
            st.repair_touched as u64,
        ],
        // The engines return no exports at all when no node has one;
        // the snapshot always records one entry per node.
        sessions: if stage == Stage::Main && !st.sessions.is_empty() {
            st.sessions.clone()
        } else {
            vec![None; g.node_count()]
        },
    }
}

/// The boundary writer of a run, when checkpointing is configured.
/// Generation numbering continues past whatever the directory already
/// holds, so a restored-and-still-checkpointing run never reuses a
/// generation.
fn make_writer(cfg: &RuntimeConfig) -> Result<Option<CheckpointWriter>, CoreError> {
    let Some(ck) = &cfg.checkpoint else { return Ok(None) };
    let store = CheckpointStore::create(&ck.dir)?;
    let next = store.generations()?.iter().copied().max().unwrap_or(0) + 1;
    Ok(Some(CheckpointWriter::new(store, ck.every, next)))
}

/// The trusted domain and final topology derived from the
/// configuration: `(alive, excluded, node_present, edge_present)`.
#[allow(clippy::type_complexity)]
fn masks_of(g: &dyn Topology, cfg: &RuntimeConfig) -> (BitSet, Vec<NodeId>, BitSet, BitSet) {
    let n = g.node_count();
    // Trusted domain: crashed-and-never-recovered nodes are out; under
    // certification, Byzantine equivocators are quarantined exactly as
    // if they had crashed (the classical channel-Byzantine-to-crash
    // reduction — see `crate::certify`).
    let mut alive = BitSet::filled(n, true);
    for &(v, _) in &cfg.faults.crashes {
        if !cfg.faults.recoveries.iter().any(|&(u, _)| u == v) {
            alive.set(v, false);
        }
    }
    if cfg.certify {
        for &v in &cfg.faults.equivocators {
            alive.set(v, false);
        }
    }
    let excluded: Vec<NodeId> = (0..n).filter(|&v| !alive[v]).collect();

    // Final topology: churn's final presence minus the excluded nodes.
    let (mut node_present, edge_present) = cfg.churn.final_presence_on(g);
    for v in 0..n {
        if !alive[v] {
            node_present.set(v, false);
        }
    }
    (alive, excluded, node_present, edge_present)
}

/// A fresh pipeline run: main phase, then the tail. `restored` is the
/// cold-start marker when this run recomputes a damaged checkpoint
/// directory from scratch.
fn run_mm_fresh<A: Algorithm + ?Sized>(
    algo: &A,
    g: &dyn Topology,
    cfg: &RuntimeConfig,
    restored: Option<RestoreOutcome>,
) -> Result<RunReport, CoreError> {
    let (alive, excluded, node_present, edge_present) = masks_of(g, cfg);

    // Layers 1+2: the driver's phases, optionally transport-hardened,
    // under the fault and churn plans — one engine executor consumes
    // `sim.threads` and both plans.
    let mut exec = Exec::main_run(g, cfg, &alive);
    let main = algo.run(&mut exec)?;
    let (mut phase1_stats, totals, sessions) = exec.into_stats();
    if let Some(out) = &restored {
        phase1_stats.restores = phase1_stats.restores.saturating_add(1);
        if out.degraded() {
            phase1_stats.restores_degraded = phase1_stats.restores_degraded.saturating_add(1);
        }
    }

    let st = TailState {
        from: Stage::Main,
        excluded,
        alive,
        node_present,
        edge_present,
        regs: main.registers,
        phase1: phase1_stats,
        totals,
        iterations: main.iterations,
        surviving: 0,
        dissolved: 0,
        added: 0,
        repair_touched: 0,
        repair_stats: None,
        maintain_stats: None,
        detected: false,
        restore: restored,
        sessions,
    };
    let mut writer = make_writer(cfg)?;
    // Main boundary: snapshotted *before* register lies apply, so a
    // restore re-applies them under the same seed and the replayed tail
    // is bit-identical to the uninterrupted run.
    if let Some(w) = writer.as_mut() {
        let mut snap = snapshot_of(algo, g, cfg, Stage::Main, &st);
        w.boundary(&mut snap, algo, st.phase1.rounds)?;
    }
    pipeline_tail(algo, g, cfg, st, writer)
}

/// Process-restart recovery: loads the degradation ladder, refuses
/// foreign snapshots, heals what must be healed, and re-joins the
/// pipeline tail at the snapshot's stage.
fn restore_mm<A: Algorithm + ?Sized>(
    algo: &A,
    g: &dyn Topology,
    cfg: &RuntimeConfig,
    dir: &Path,
) -> Result<RunReport, CoreError> {
    let store = CheckpointStore::open(dir);
    let rec = store.load(algo).map_err(CoreError::Checkpoint)?;
    let Some(snap) = rec.snapshot else {
        // Evidence of checkpointing but nothing intact: recompute from
        // scratch. Still a successful recovery — reported degraded.
        return run_mm_fresh(algo, g, cfg, Some(RestoreOutcome::ColdStart));
    };
    // Never silently resume the wrong state: a snapshot of a different
    // graph, driver, or master seed is a hard error, not a degradation.
    snap.matches(g, algo.name(), cfg.sim.seed).map_err(CoreError::Checkpoint)?;
    let mut outcome = rec.outcome;

    // Masks follow the *configuration* (identical to the snapshot's
    // copies for a faithful restart; a restart under drifted plans must
    // follow its own plans — the sanitize/heal passes absorb the diff).
    let (alive, excluded, node_present, edge_present) = masks_of(g, cfg);

    let mut phase1 = snap.phase1;
    phase1.restores = phase1.restores.saturating_add(1);

    let mut regs = snap.registers.clone();
    let mut added_by_heal = 0usize;
    // Heal pass: the runtime only snapshots quiescent boundaries, so an
    // undrained session export means the bytes were tampered with or
    // handcrafted mid-flight. Sanitize and re-run the driver under the
    // checkpoint seed domain before rejoining the pipeline — the
    // domain separation keeps the ordinary repair/maintenance streams
    // untouched, so healing never perturbs what an uninterrupted run
    // would have drawn.
    if !snap.drained() {
        outcome = match outcome {
            RestoreOutcome::Clean { generation } => RestoreOutcome::Degraded { generation },
            other => other,
        };
        let heal_sim = cfg.sim.seed(cfg.sim.seed ^ CHECKPOINT_DOMAIN);
        let rep = repair_registers(
            algo,
            g,
            &regs,
            &alive,
            &cfg.effective_repair_faults(),
            cfg.transport,
            heal_sim,
        )?;
        let mut healed = vec![None; g.node_count()];
        for e in rep.matching.to_edge_vec() {
            let (a, b) = g.endpoints(e);
            healed[a] = Some(e);
            healed[b] = Some(e);
        }
        regs = healed;
        added_by_heal = rep.added;
    }
    if outcome.degraded() {
        phase1.restores_degraded = phase1.restores_degraded.saturating_add(1);
    }

    let st = TailState {
        from: snap.stage,
        excluded,
        alive,
        node_present,
        edge_present,
        regs,
        phase1,
        totals: snap.totals,
        iterations: usize::try_from(snap.iterations).unwrap_or(usize::MAX),
        surviving: snap.counters[0] as usize,
        dissolved: snap.counters[1] as usize,
        added: (snap.counters[2] as usize).saturating_add(added_by_heal),
        repair_touched: snap.counters[3] as usize,
        repair_stats: snap.repair,
        maintain_stats: snap.maintain,
        detected: snap.detected,
        restore: Some(outcome),
        sessions: snap.sessions,
    };
    let writer = make_writer(cfg)?;
    pipeline_tail(algo, g, cfg, st, writer)
}

/// The pipeline tail: certification, repair, maintenance and recheck —
/// entered at [`Stage::Main`] by fresh runs and at the snapshot's stage
/// by restored ones, writing boundary snapshots along the way when a
/// writer is supplied.
fn pipeline_tail<A: Algorithm + ?Sized>(
    algo: &A,
    g: &dyn Topology,
    cfg: &RuntimeConfig,
    mut st: TailState,
    mut writer: Option<CheckpointWriter>,
) -> Result<RunReport, CoreError> {
    let n = g.node_count();

    // Bare path: every middleware layer off. Assemble directly so error
    // behaviour matches the plain drivers. A crash or recovery in the
    // main run can leave one side of a handshake (a rebooted node wipes
    // its register, a crashed one never answers), so such a run drops
    // one-sided claims first. Every node is trusted in that pass: a
    // register file that assembles keeps every claim.
    if st.from == Stage::Main && !cfg.certify && !cfg.repair && !cfg.maintain {
        let mut dissolved = 0;
        if !cfg.faults.crashes.is_empty() || !cfg.faults.recoveries.is_empty() {
            let sane = sanitize_registers_on(g, &st.regs, &BitSet::filled(n, true));
            st.regs = sane.registers;
            dissolved = sane.dissolved;
        }
        let matching = matching_from_registers(g, &st.regs)?;
        let surviving = matching.size();
        return Ok(RunReport {
            algorithm: algo.name(),
            matching,
            registers: st.regs,
            excluded: st.excluded,
            node_present: st.node_present.to_bools(),
            edge_present: st.edge_present.to_bools(),
            surviving,
            dissolved,
            added: 0,
            repair_touched: 0,
            initial: None,
            recheck: None,
            phase1: st.phase1,
            totals: st.totals,
            iterations: st.iterations,
            repair: None,
            maintain: None,
            restore: st.restore,
        });
    }

    let check_seed = rng::splitmix64(cfg.sim.seed ^ CHECK_DOMAIN);
    let mut initial: Option<Certificate> = None;
    let mut matching: Option<Matching> = None;

    if st.from == Stage::Main {
        // Byzantine liars corrupt their *reported* register (the lie
        // model belongs to the certification layer; without a checker
        // nobody reads the reports).
        if cfg.certify {
            apply_lies(&mut st.regs, &cfg.faults.liars, cfg.sim.seed, g.edge_count());
        }

        // Layer 3a: O(1)-round proof-labeling verification.
        initial = if cfg.certify {
            Some(certify_present(g, &st.regs, &st.node_present, &st.edge_present, check_seed)?)
        } else {
            None
        };
        st.detected = initial.as_ref().is_some_and(|c| !c.ok());

        // Layer 4: localized repair — unconditional when certification
        // is off; on detection only when both are on (a certificate
        // already attests maximality, so repairing a certified run
        // would only burn randomness).
        if cfg.repair && (!cfg.certify || st.detected) {
            let mut cleared = st.regs;
            if let Some(cert) = &initial {
                for &v in &cert.flagged {
                    cleared[v] = None;
                }
            }
            let pre = sanitize_registers_on(g, &cleared, &st.alive);
            let rep = repair_registers(
                algo,
                g,
                &cleared,
                &st.alive,
                &cfg.effective_repair_faults(),
                cfg.transport,
                cfg.sim,
            )?;
            let mut final_regs = vec![None; n];
            for e in rep.matching.to_edge_vec() {
                let (a, b) = g.endpoints(e);
                final_regs[a] = Some(e);
                final_regs[b] = Some(e);
            }
            st.repair_touched =
                (0..n).filter(|&v| st.alive[v] && final_regs[v] != pre.registers[v]).count();
            st.regs = final_regs;
            st.surviving = rep.surviving;
            st.dissolved = rep.dissolved;
            st.added = rep.added;
            st.repair_stats = Some(rep.stats);
            matching = Some(rep.matching);
        } else if cfg.certify {
            // Certified first try (or repair layer off): sanitation only
            // masks claims outside the trusted domain; on it the
            // certificate guarantees a no-op.
            let sane = sanitize_registers_on(g, &st.regs, &st.alive);
            st.regs = sane.registers;
            st.surviving = sane.surviving;
            st.dissolved = sane.dissolved;
            matching = Some(matching_from_registers(g, &st.regs)?);
        }

        // Repaired boundary: the certification/repair layer has settled
        // the registers.
        if let Some(w) = writer.as_mut() {
            let rounds =
                st.phase1.rounds.saturating_add(st.repair_stats.as_ref().map_or(0, |s| s.rounds));
            let mut snap = snapshot_of(algo, g, cfg, Stage::Repaired, &st);
            w.boundary(&mut snap, algo, rounds)?;
        }
    } else {
        // Resumed past the repair layer: the ledger was carried by the
        // snapshot. A boundary written by a certify-off, repair-off
        // pipeline holds the driver's raw registers, where a crash plan
        // can leave a survivor claiming a handshake its dead partner
        // never completed — assemble through the alive-sanitize pass
        // (a no-op on boundaries the repair layer settled) instead of
        // trusting symmetry. `st.regs` stays raw so a maintenance layer
        // downstream sees exactly what the uninterrupted tail saw.
        let sane = sanitize_registers_on(g, &st.regs, &st.alive);
        matching = Some(matching_from_registers(g, &sane.registers)?);
    }

    // Layer 5: maintenance against the final topology. The maintainer
    // walks explicit edge subsets (residual subgraph extraction), so it
    // runs on the CSR graph — the topology's own when it is one,
    // otherwise a one-off materialization (identical by the canonical
    // edge-id enumeration, so results match the CSR twin bit for bit).
    if cfg.maintain && st.from != Stage::Maintained {
        let owned_csr;
        let gm: &Graph = match g.as_graph() {
            Some(gr) => gr,
            None => {
                owned_csr = materialize(g).map_err(CoreError::Graph)?;
                &owned_csr
            }
        };
        let node_present = st.node_present.to_bools();
        let edge_present = st.edge_present.to_bools();
        let sane = sanitize_present(gm, &st.regs, &node_present, &edge_present);
        let mut mt = Maintainer::adopt(
            gm,
            sane.registers,
            node_present,
            edge_present,
            &MaintainConfig {
                seed: rng::splitmix64((cfg.sim.seed ^ algo_domain(algo.name())) ^ MAINTAIN_DOMAIN),
                max_rounds: cfg.sim.max_rounds,
            },
        );
        let rep = mt.repair_full()?;
        st.surviving = sane.surviving;
        st.dissolved = sane.dissolved;
        st.added += rep.added;
        st.maintain_stats = Some(rep.stats);
        st.regs = mt.registers().to_vec();
        matching = Some(mt.matching());

        // Maintained boundary.
        if let Some(w) = writer.as_mut() {
            let rounds = st
                .phase1
                .rounds
                .saturating_add(st.repair_stats.as_ref().map_or(0, |s| s.rounds))
                .saturating_add(st.maintain_stats.as_ref().map_or(0, |s| s.rounds));
            let mut snap = snapshot_of(algo, g, cfg, Stage::Maintained, &st);
            w.boundary(&mut snap, algo, rounds)?;
        }
    }

    // Layer 3b: re-verify whenever a follow-up phase rewrote registers
    // — and always after a restore (the post-restore verification the
    // recovery contract promises).
    let resumed = st.from != Stage::Main;
    let recheck =
        if cfg.certify && (st.repair_stats.is_some() || st.maintain_stats.is_some() || resumed) {
            Some(certify_present(
                g,
                &st.regs,
                &st.node_present,
                &st.edge_present,
                rng::splitmix64(check_seed ^ RECHECK_DOMAIN),
            )?)
        } else {
            None
        };

    Ok(RunReport {
        algorithm: algo.name(),
        matching: matching.expect("some middleware layer assembled the matching"),
        registers: st.regs,
        excluded: st.excluded,
        node_present: st.node_present.to_bools(),
        edge_present: st.edge_present.to_bools(),
        surviving: st.surviving,
        dissolved: st.dissolved,
        added: st.added,
        repair_touched: st.repair_touched,
        initial,
        recheck,
        phase1: st.phase1,
        totals: st.totals,
        iterations: st.iterations,
        repair: st.repair_stats,
        maintain: st.maintain_stats,
        restore: st.restore,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weighted::{BlackBox, Weighted};
    use dam_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn knobs_cover_every_config_field() {
        // Exhaustive destructuring: adding a RuntimeConfig field breaks
        // this test at compile time until KNOBS (and the CLI) learn it.
        let RuntimeConfig {
            sim: _,
            transport: _,
            faults: _,
            churn: _,
            certify: _,
            repair: _,
            maintain: _,
            repair_faults: _,
            stats_sink: _,
            algo: _,
            checkpoint: _,
            restore: _,
        } = RuntimeConfig::new();
        let fields = [
            "sim",
            "transport",
            "faults",
            "churn",
            "certify",
            "repair",
            "maintain",
            "repair_faults",
            "stats_sink",
            "algo",
            "checkpoint",
            "restore",
        ];
        for field in fields {
            assert!(
                RuntimeConfig::KNOBS
                    .iter()
                    .any(|(k, _)| *k == field || k.starts_with(&format!("{field}."))),
                "RuntimeConfig field `{field}` has no KNOBS entry (CLI drift)"
            );
        }
        // Every knob names a flag.
        for (knob, flag) in RuntimeConfig::KNOBS {
            assert!(flag.starts_with("--"), "knob {knob} maps to a non-flag {flag}");
        }
    }

    #[test]
    fn algo_domains_are_distinct_and_ii_is_pinned() {
        // The Israeli–Itai domain is the XOR identity: every golden
        // replica recorded before the portfolio existed must replay.
        assert_eq!(algo_domain("israeli-itai"), 0);
        let names = ["israeli-itai", "bipartite", "weighted", "luby-matching"];
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(algo_domain(a), algo_domain(b), "colliding domains: {a} vs {b}");
            }
        }
        for name in &names[1..] {
            assert_ne!(algo_domain(name), 0, "{name} must not share the pinned II domain");
        }
    }

    #[test]
    fn algo_spec_parses_the_cli_surface() {
        assert_eq!(AlgoSpec::parse("ii").unwrap(), AlgoSpec::IsraeliItai);
        assert_eq!(AlgoSpec::parse("israeli-itai").unwrap(), AlgoSpec::IsraeliItai);
        assert_eq!(AlgoSpec::parse("bipartite").unwrap(), AlgoSpec::Bipartite { k: 3 });
        assert_eq!(AlgoSpec::parse("bipartite:2").unwrap(), AlgoSpec::Bipartite { k: 2 });
        assert_eq!(AlgoSpec::parse("weighted").unwrap(), AlgoSpec::Weighted { eps: 0.1 });
        assert_eq!(AlgoSpec::parse("luby").unwrap(), AlgoSpec::LubyMatching);
        assert!(AlgoSpec::parse("warp").is_err());
        assert!(AlgoSpec::parse("bipartite:zero").is_err());
        assert!(AlgoSpec::parse("bipartite:1").is_err(), "k = 1 exhausts nothing");
    }

    #[test]
    fn run_configured_dispatches_the_selector() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = generators::gnp(20, 0.2, &mut rng);
        let cfg = RuntimeConfig::new().sim(SimConfig::local().seed(4)).algo(AlgoSpec::IsraeliItai);
        let via_spec = run_configured(&g, &cfg).unwrap();
        let direct = run_mm(&IsraeliItai, &g, &cfg).unwrap();
        assert_eq!(via_spec.registers, direct.registers);
        assert_eq!(via_spec.algorithm, "israeli-itai");
        let luby = run_configured(&g, &cfg.clone().algo(AlgoSpec::LubyMatching)).unwrap();
        assert_eq!(luby.algorithm, "luby-matching");
        luby.matching.validate(&g).unwrap();
    }

    #[test]
    fn repair_seed_domains_separate_algorithms() {
        // Same master seed, different algorithm name ⇒ the repair
        // phase's simulator seed differs, so fault/phase randomness is
        // drawn from independent streams (the satellite-2 regression).
        let seed = 0xDEAD_BEEF_u64;
        let ii = seed ^ algo_domain("israeli-itai");
        let luby = seed ^ algo_domain("luby-matching");
        let weighted = seed ^ algo_domain("weighted");
        assert_eq!(ii, seed, "II keeps the raw seed (golden-replica pin)");
        assert_ne!(luby, seed);
        assert_ne!(weighted, seed);
        assert_ne!(luby, weighted);
    }

    #[test]
    fn bare_path_is_the_plain_driver() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::gnp(30, 0.15, &mut rng);
        let cfg = RuntimeConfig::new().sim(SimConfig::congest_for(30, 4).seed(7));
        let rep = run_mm(&IsraeliItai, &g, &cfg).unwrap();
        rep.matching.validate(&g).unwrap();
        let direct = crate::israeli_itai::israeli_itai(&g, 7).unwrap();
        assert_eq!(rep.matching.to_edge_vec(), direct.matching.to_edge_vec());
        assert_eq!(rep.totals, direct.stats, "engine totals surface unchanged");
        assert_eq!(rep.iterations, direct.iterations);
        assert!(rep.initial.is_none() && rep.recheck.is_none());
        assert!(!rep.certified(), "an uncertified run attests nothing");
    }

    #[test]
    fn bare_run_drops_one_sided_claims_after_a_reboot() {
        // Nodes 4 and 9 crash and reboot over the default transport: a
        // rebooted node's wiped register leaves its former mate's claim
        // one-sided. The bare run keeps exactly what the repair layer's
        // sanitation keeps, on every backend.
        let mut rng = StdRng::seed_from_u64(0xD16E_5700 ^ 5);
        let g = generators::gnp(20, 0.2, &mut rng);
        let faults =
            FaultPlan::crashes(vec![(4, 2), (9, 3)]).with_recoveries(vec![(4, 5), (9, 30)]);
        for (backend, threads) in
            [(Backend::Sequential, 1), (Backend::Sharded, 2), (Backend::Async, 1)]
        {
            let sim =
                SimConfig::local().seed(5).max_rounds(500_000).backend(backend).threads(threads);
            let cfg = RuntimeConfig::new()
                .sim(sim)
                .transport(TransportCfg::default())
                .faults(faults.clone());
            let bare = run_mm(&IsraeliItai, &g, &cfg).unwrap();
            let repaired = run_mm(&IsraeliItai, &g, &cfg.clone().repair(true)).unwrap();
            bare.matching.validate(&g).unwrap();
            assert!(bare.dissolved > 0, "{backend:?}: the one-sided claim is counted");
            assert_eq!(
                (bare.surviving, bare.dissolved),
                (repaired.surviving, repaired.dissolved),
                "{backend:?}"
            );
            assert_eq!(bare.matching.size(), bare.surviving, "{backend:?}");
            for e in bare.matching.to_edge_vec() {
                assert!(repaired.matching.contains(e), "{backend:?}: repair keeps edge {e}");
            }
        }
    }

    #[test]
    fn layers_compose_repair_and_certify() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::gnp(30, 0.15, &mut rng);
        let cfg = RuntimeConfig::new()
            .sim(SimConfig::local().seed(11))
            .transport(TransportCfg::default())
            .faults(FaultPlan::lossy(0.05).with_liars(vec![1, 2]))
            .certify(true)
            .repair(true);
        let rep = run_mm(&IsraeliItai, &g, &cfg).unwrap();
        assert!(rep.detected(), "lies must be detected");
        assert!(rep.certified(), "repair must re-certify");
        assert!(rep.repair.is_some() && rep.recheck.is_some());
        rep.matching.validate(&g).unwrap();
    }

    #[test]
    fn certify_skips_an_edge_that_stays_down() {
        // The only edge goes down for good in round 1, before the two
        // nodes can match: both end free, which is maximal on the final
        // topology, so the certificate must not call the edge uncovered.
        let g = generators::path(2);
        let churn =
            ChurnPlan::events(vec![]).with_event(1, dam_congest::ChurnKind::EdgeDown { edge: 0 });
        let cfg = RuntimeConfig::new()
            .sim(SimConfig::local().seed(1))
            .transport(TransportCfg::default())
            .churn(churn)
            .certify(true);
        let rep = run_mm(&IsraeliItai, &g, &cfg).unwrap();
        assert_eq!(rep.registers, vec![None, None]);
        assert_eq!(rep.node_present, vec![true, true]);
        assert_eq!(rep.edge_present, vec![false]);
        assert!(rep.certified(), "{:?}", rep.initial);
    }

    #[test]
    fn async_backend_does_not_change_results() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::gnp(40, 0.12, &mut rng);
        let sim = SimConfig::local().seed(5);
        let base = RuntimeConfig::new()
            .sim(sim)
            .transport(TransportCfg::default())
            .faults(FaultPlan::lossy(0.08))
            .repair(true);
        let seq = run_mm(&IsraeliItai, &g, &base.clone()).unwrap();
        let asy = run_mm(
            &IsraeliItai,
            &g,
            &base.sim(sim.backend(Backend::Async).delay(DelayModel::LinkSkew { spread: 5 })),
        )
        .unwrap();
        assert_eq!(seq.matching.to_edge_vec(), asy.matching.to_edge_vec());
        assert_eq!(seq.registers, asy.registers);
        // Identical modulo the synchronizer's marker accounting, which
        // only the asynchronous engine emits.
        let mut p1 = asy.phase1;
        assert!(p1.markers > 0, "async phase must account synchronizer markers");
        p1.markers = 0;
        assert_eq!(seq.phase1, p1);
        let (sr, mut ar) = (seq.repair.unwrap(), asy.repair.unwrap());
        ar.markers = 0;
        assert_eq!(sr, ar);
    }

    #[test]
    fn tuned_for_async_derives_every_timing_knob() {
        let delay = DelayModel::UniformRandom { max: 6 };
        let cfg = RuntimeConfig::new().tuned_for_async(delay);
        assert_eq!(cfg.sim.backend, Backend::Async);
        assert_eq!(cfg.sim.delay, delay);
        assert_eq!(cfg.sim.patience, Some(12), "patience = 2·bound");
        assert_eq!(cfg.transport, Some(TransportMode::Fixed(TransportCfg::for_delay_bound(6))));
    }

    #[test]
    fn invalid_transport_is_rejected_at_the_runtime_boundary() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = generators::gnp(12, 0.3, &mut rng);
        let bad = TransportCfg { window: 0, ..TransportCfg::default() };
        let err = run_mm(&IsraeliItai, &g, &RuntimeConfig::new().transport(bad)).unwrap_err();
        assert!(
            matches!(&err, CoreError::Sim(dam_congest::SimError::InvalidTransportCfg { .. })),
            "expected a transport validation error, got {err}"
        );
        // An adaptive policy whose floor is degenerate is caught the
        // same way, before any phase runs.
        let bad_floor = AdaptivePolicy::for_floor(TransportCfg {
            backoff_max: 1,
            backoff_base: 3,
            ..TransportCfg::default()
        });
        let err = run_mm(&IsraeliItai, &g, &RuntimeConfig::new().adaptive(bad_floor)).unwrap_err();
        assert!(matches!(&err, CoreError::Sim(dam_congest::SimError::InvalidTransportCfg { .. })));
    }

    #[test]
    fn adaptive_run_with_sink_matches_static_floor_fault_free() {
        // Fault-free there are no retransmissions, suspicions, or
        // rejections, so the controller never leaves level 1 and the
        // run is bit-identical to its static floor; attaching the
        // telemetry sink must not perturb either.
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::gnp(30, 0.15, &mut rng);
        let base = RuntimeConfig::new().sim(SimConfig::local().seed(21));
        let stat =
            run_mm(&IsraeliItai, &g, &base.clone().transport(TransportCfg::default())).unwrap();
        let sink = std::sync::Arc::new(dam_congest::RecordingSink::new());
        let cfg = base
            .adaptive(AdaptivePolicy::for_floor(TransportCfg::default()))
            .stats_sink(dam_congest::SinkHandle::new(sink.clone()));
        let adap = run_mm(&IsraeliItai, &g, &cfg).unwrap();
        assert_eq!(stat.matching.to_edge_vec(), adap.matching.to_edge_vec());
        assert_eq!(stat.registers, adap.registers);
        assert_eq!(stat.phase1, adap.phase1);
        let samples = sink.samples();
        assert_eq!(samples.len() as u64, adap.phase1.rounds, "one sample per engine round");
        assert_eq!(samples.last().unwrap().messages, adap.phase1.messages);
    }

    #[test]
    fn adaptive_run_is_deterministic_under_faults() {
        let mut rng = StdRng::seed_from_u64(10);
        let g = generators::gnp(30, 0.15, &mut rng);
        let cfg = RuntimeConfig::new()
            .sim(SimConfig::local().seed(33))
            .adaptive(AdaptivePolicy::for_floor(TransportCfg::default()))
            .faults(FaultPlan::lossy(0.15))
            .repair(true);
        let a = run_mm(&IsraeliItai, &g, &cfg).unwrap();
        let b = run_mm(&IsraeliItai, &g, &cfg).unwrap();
        assert_eq!(a.matching.to_edge_vec(), b.matching.to_edge_vec());
        assert_eq!(a.registers, b.registers);
        assert_eq!(a.phase1, b.phase1);
        assert_eq!(a.repair, b.repair);
        a.matching.validate(&g).unwrap();
    }

    #[test]
    fn threads_do_not_change_results() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::gnp(40, 0.12, &mut rng);
        let sim = SimConfig::local().seed(5);
        let base = RuntimeConfig::new()
            .transport(TransportCfg::default())
            .faults(FaultPlan::lossy(0.08))
            .repair(true);
        let seq = run_mm(&IsraeliItai, &g, &base.clone().sim(sim.threads(1))).unwrap();
        let par = run_mm(&IsraeliItai, &g, &base.sim(sim.threads(4))).unwrap();
        assert_eq!(seq.matching.to_edge_vec(), par.matching.to_edge_vec());
        assert_eq!(seq.phase1, par.phase1);
        assert_eq!(seq.repair, par.repair);
    }

    /// A two-phase Israeli–Itai driver that records, for every phase it
    /// runs, the nodes its `make` was called for.
    #[derive(Default)]
    struct RecordingDriver {
        calls: std::sync::Mutex<Vec<Vec<bool>>>,
    }

    impl RecordingDriver {
        fn phase(
            &self,
            exec: &mut Exec<'_>,
            registers: Option<&[Option<EdgeId>]>,
        ) -> Result<RunOutcome<Option<EdgeId>>, CoreError> {
            use std::sync::atomic::AtomicBool;
            let made: Vec<AtomicBool> =
                (0..exec.graph().node_count()).map(|_| AtomicBool::new(false)).collect();
            let dead = exec.dead_ports();
            let first = exec.phases() == 0 && registers.is_none();
            let out = exec.phase(|v, g| {
                made[v].store(true, Ordering::Relaxed);
                if first {
                    IiNode::new(g.degree(v))
                } else {
                    IiNode::with_state(g.degree(v), registers.and_then(|r| r[v]), &dead[v])
                }
            })?;
            self.calls.lock().unwrap().push(made.into_iter().map(AtomicBool::into_inner).collect());
            Ok(out)
        }
    }

    impl Algorithm for RecordingDriver {
        fn name(&self) -> &'static str {
            "recording"
        }

        fn run(&self, exec: &mut Exec<'_>) -> Result<MainRun, CoreError> {
            self.phase(exec, None)?;
            let out = self.phase(exec, None)?;
            Ok(MainRun { registers: out.outputs, iterations: 2 })
        }

        fn resume(
            &self,
            exec: &mut Exec<'_>,
            registers: &[Option<EdgeId>],
        ) -> Result<MainRun, CoreError> {
            let out = self.phase(exec, Some(registers))?;
            Ok(MainRun { registers: out.outputs, iterations: 1 })
        }
    }

    #[test]
    fn make_runs_for_every_node_first_and_for_trusted_nodes_after() {
        // Node 3 crashes for good, so it is untrusted; node 5 crashes and
        // recovers, so it stays trusted. Bare, node 3's crash falls after
        // the run has ended; over the transport, both crash in round 2.
        let mut rng = StdRng::seed_from_u64(14);
        let g = generators::gnp(20, 0.2, &mut rng);
        let bare = RuntimeConfig::new().faults(FaultPlan::crashes(vec![(3, 10_000)]));
        let transported = RuntimeConfig::new()
            .transport(TransportCfg::default())
            .faults(FaultPlan::crashes(vec![(3, 2), (5, 2)]).with_recoveries(vec![(5, 6)]));
        for (backend, threads) in
            [(Backend::Sequential, 1), (Backend::Sharded, 2), (Backend::Async, 1)]
        {
            let sim =
                SimConfig::local().seed(9).max_rounds(500_000).backend(backend).threads(threads);
            for cfg in [&bare, &transported] {
                let driver = RecordingDriver::default();
                run_mm(&driver, &g, &cfg.clone().sim(sim).repair(true)).unwrap();
                let calls = driver.calls.into_inner().unwrap();
                assert_eq!(calls.len(), 3, "{backend:?}: two main phases and one resume phase");
                assert!(
                    calls[0].iter().all(|&m| m),
                    "{backend:?}: the first phase makes every node"
                );
                for (phase, made) in calls.iter().enumerate().skip(1) {
                    for (v, &m) in made.iter().enumerate() {
                        assert_eq!(m, v != 3, "{backend:?}: phase {phase}, node {v}");
                    }
                }
            }
        }
    }

    /// A CSR graph behind a [`Topology`] that counts the weight and
    /// endpoint queries, the two the engines' port table passes through
    /// to it. The weighted driver's phases and sanitizing make such
    /// queries in every iteration they execute; a charged iteration
    /// makes none.
    struct Counting<'a> {
        g: &'a Graph,
        queries: std::sync::atomic::AtomicUsize,
    }

    impl Counting<'_> {
        fn count(&self) {
            self.queries.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    impl Topology for Counting<'_> {
        fn node_count(&self) -> usize {
            self.g.node_count()
        }

        fn edge_count(&self) -> usize {
            self.g.edge_count()
        }

        fn degree(&self, v: NodeId) -> usize {
            self.g.degree(v)
        }

        fn max_degree(&self) -> usize {
            self.g.max_degree()
        }

        fn port(&self, v: NodeId, p: usize) -> (NodeId, EdgeId) {
            Topology::port(self.g, v, p)
        }

        fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
            self.count();
            Topology::endpoints(self.g, e)
        }

        fn weight(&self, e: EdgeId) -> f64 {
            self.count();
            Topology::weight(self.g, e)
        }

        fn is_weighted(&self) -> bool {
            self.g.is_weighted()
        }
    }

    /// Runs `algo` on `g` through [`Counting`]: the topology queries it
    /// made, and its report.
    fn counted(g: &Graph, algo: &Weighted, cfg: &RuntimeConfig) -> (usize, RunReport) {
        let topo = Counting { g, queries: std::sync::atomic::AtomicUsize::new(0) };
        let report = run_mm(algo, &topo, cfg).unwrap();
        (topo.queries.into_inner(), report)
    }

    /// `cfg` with a recording stats sink attached.
    fn with_sink(cfg: RuntimeConfig) -> RuntimeConfig {
        cfg.stats_sink(dam_congest::SinkHandle::new(std::sync::Arc::new(
            dam_congest::RecordingSink::new(),
        )))
    }

    fn weighted_gnp(seed: u64) -> Graph {
        use dam_graph::weights::{randomize_weights, WeightDist};
        let mut rng = StdRng::seed_from_u64(seed);
        let base = generators::gnp(60, 0.1, &mut rng);
        randomize_weights(&base, WeightDist::Uniform { lo: 0.5, hi: 4.0 }, &mut rng)
    }

    #[test]
    fn weighted_charges_the_iterations_after_its_fixpoint() {
        // From an empty start, local-max returns the greedy matching in
        // iteration 1 and iteration 2 leaves it unchanged, so a bare run
        // of nine iterations executes two and charges seven: it queries
        // the topology exactly as often as a run of two iterations. A
        // stats sink makes every iteration execute, seven times the
        // queries of iteration 3 more, and the reports agree.
        let g = weighted_gnp(31);
        let nine = Weighted::default();
        let two = Weighted { eps: 1.0, delta: 1.0, ..nine };
        let three = Weighted { eps: 0.5, delta: 1.0, ..nine };
        for (backend, threads) in [(Backend::Sequential, 1), (Backend::Sharded, 2)] {
            let cfg = RuntimeConfig::new()
                .sim(SimConfig::local().seed(5).backend(backend).threads(threads));
            let (charged, replayed) = counted(&g, &nine, &cfg);
            let (executed, full) = counted(&g, &nine, &with_sink(cfg.clone()));
            let (q2, r2) = counted(&g, &two, &with_sink(cfg.clone()));
            let (q3, r3) = counted(&g, &three, &with_sink(cfg));
            assert_eq!((r2.iterations, r3.iterations, full.iterations), (2, 3, 9));
            assert_eq!(charged, q2, "{backend:?}");
            assert_eq!(executed - charged, 7 * (q3 - q2), "{backend:?}");
            assert!(q3 > q2, "{backend:?}");
            assert_eq!(replayed.registers, full.registers, "{backend:?}");
            assert_eq!(replayed.phase1, full.phase1, "{backend:?}");
            assert_eq!(replayed.totals, full.totals, "{backend:?}");
            assert_eq!(replayed.totals.runs, 27, "{backend:?}");
            assert_eq!(replayed.iterations, 9, "{backend:?}");
        }
    }

    #[test]
    fn impure_phases_are_never_charged() {
        // Each configuration executes all nine iterations: attaching a
        // stats sink, which always forces that, changes no query count.
        // The loss is too rare to drop a message of these runs (local-max
        // does not survive a lost pick), but a plan that may lose one is
        // never charged.
        let g = weighted_gnp(32);
        let sim = SimConfig::local().seed(6);
        let base = RuntimeConfig::new().sim(sim);
        let local_max = Weighted::default();
        let proposal =
            Weighted { black_box: BlackBox::Proposal { iterations: 8 }, ..Weighted::default() };
        let cases = [
            ("loss", local_max, base.clone().faults(FaultPlan::lossy(1e-12))),
            ("transport", local_max, base.clone().transport(TransportCfg::default())),
            (
                "adaptive",
                local_max,
                base.clone().adaptive(AdaptivePolicy::for_floor(TransportCfg::default())),
            ),
            ("async", local_max, base.clone().sim(sim.backend(Backend::Async))),
            ("proposal", proposal, base.clone()),
        ];
        let (bare, _) = counted(&g, &local_max, &base);
        for (name, algo, cfg) in cases {
            let (queries, _) = counted(&g, &algo, &cfg);
            let (forced, _) = counted(&g, &algo, &with_sink(cfg));
            assert_eq!(queries, forced, "{name}");
            assert!(queries > bare, "{name}: {queries} <= {bare}");
        }
    }
}
