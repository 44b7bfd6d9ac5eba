//! The sequential deterministic engine.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::ControlFlow;

use dam_graph::{BitSet, EdgeId, NodeId, Topology};
use parking_lot::Mutex;
use rand::rngs::StdRng;

use crate::asynchrony::AsyncTiming;
use crate::error::SimError;
use crate::message::{BitSize, CorruptKind, MsgClass};
use crate::model::{Backend, CostModel, Model, SimConfig, ViolationPolicy};
use crate::node::{Context, Port, Protocol, SessionState};
use crate::rng::{self, RunKeys, SenderKeys};
use crate::stats::{Integrity, RunStats, TotalStats};
use crate::trace::{ChurnKind, FaultKind, Trace, TraceEvent};

/// Per-link fault parameters overriding the plan-wide probabilities on
/// one undirected edge (both directions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Loss probability on this link.
    pub loss: f64,
    /// Duplication probability on this link.
    pub dup: f64,
    /// Reordering (extra-delay) probability on this link.
    pub reorder: f64,
}

/// A round-windowed *squall*: a burst of extra message loss and/or
/// corruption overlaid on the plan-wide probabilities while
/// `from_round ≤ round ≤ until_round`. Within the window the effective
/// probability on every link is the **max** of the base and the squall
/// (overlapping squalls compose the same way); outside it the base
/// applies untouched, so a plan whose squalls never fire draws the
/// exact same fault pattern as one without them.
///
/// Squalls model *drifting* network weather — burst-then-quiet loss,
/// corruption storms — the regimes where a statically tuned transport
/// must lose on one end or the other and an adaptive one
/// ([`crate::transport::Resilient::with_policy`]) can track the drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Squall {
    /// First round of the window (inclusive).
    pub from_round: usize,
    /// Last round of the window (inclusive).
    pub until_round: usize,
    /// Loss probability floor inside the window.
    pub loss: f64,
    /// Corruption probability floor inside the window.
    pub corrupt: f64,
}

/// A round-windowed network partition: while `from_round ≤ round ≤
/// until_round`, every message crossing the boundary between `side` and
/// its complement is dropped. Traffic within either side is unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// First round of the partition window (inclusive).
    pub from_round: usize,
    /// Last round of the partition window (inclusive).
    pub until_round: usize,
    /// The nodes on one side of the cut.
    pub side: Vec<NodeId>,
}

/// Injected faults for a run (the paper assumes fault-freedom — §2's
/// footnote — so these exist to *measure* how load-bearing that
/// assumption is, and to exercise the recovery stack: the
/// [`crate::transport::Resilient`] wrapper and `dam-core`'s matching
/// repair).
///
/// Every injection is drawn from a dedicated RNG keyed on `(seed, run)`,
/// so runs are deterministic and replayable; each injection is also
/// recorded as a [`TraceEvent::Fault`] when tracing. Under an all-default
/// plan [`Network::execute`] behaves exactly like [`Network::run`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Crash-stop faults: `(node, round)` — the node executes rounds
    /// `< round` normally, then silently stops (no announcement, its
    /// pending messages are dropped). At most one entry per node.
    pub crashes: Vec<(NodeId, usize)>,
    /// Crash-*recover* faults: `(node, round)` — a previously crashed
    /// node reboots at `round` with wiped state (a fresh protocol
    /// instance runs its `on_start` as if it were round 0). Each entry
    /// must pair with a `crashes` entry at a strictly earlier round.
    pub recoveries: Vec<(NodeId, usize)>,
    /// Independent per-message loss probability (network-wide default).
    pub loss: f64,
    /// Independent per-message duplication probability: the duplicate
    /// copy arrives one round after the original.
    pub dup: f64,
    /// Independent per-message reordering probability: the message is
    /// delayed by 1–3 extra rounds instead of arriving next round.
    pub reorder: f64,
    /// Independent per-message *corruption* probability: the message is
    /// damaged in transit with a [`CorruptKind`] drawn from the same
    /// keyed fault stream. Damaged messages are re-decoded through
    /// [`BitSize::corrupted`]; undecodable ones are dropped at delivery.
    /// Either way the event is counted in
    /// [`RunStats::corruptions`] and traced as
    /// [`FaultKind::Corrupt`].
    pub corrupt: f64,
    /// Byzantine *equivocators*: nodes whose every outgoing message is
    /// independently tampered per port (different neighbours observe
    /// mutually inconsistent traffic). Tampering draws come from
    /// [`rng::byz_rng`], so they are deterministic and engine-agnostic.
    /// At most one entry per node; counted in
    /// [`RunStats::equivocations`], traced as
    /// [`FaultKind::Equivocate`].
    pub equivocators: Vec<NodeId>,
    /// Byzantine *liars*: nodes that report a corrupted output register
    /// after the run. The engine treats outputs as opaque, so lying is
    /// applied by output-aware callers (`dam-core`'s certification
    /// pipeline derives the lie deterministically from the seed); the
    /// engine only validates the list (in-range, no duplicates) so a
    /// plan is checked in one place.
    pub liars: Vec<NodeId>,
    /// Per-link overrides of `loss`/`dup`/`reorder` (applied to both
    /// directions of the named edge). Corruption has no per-link
    /// override — it is network-wide.
    pub links: Vec<LinkFault>,
    /// Round-windowed partitions.
    pub partitions: Vec<Partition>,
    /// Round-windowed loss/corruption bursts overlaid on the base
    /// probabilities (effective = max of base and every active squall).
    pub squalls: Vec<Squall>,
}

impl FaultPlan {
    /// A plan that only crashes the given nodes.
    #[must_use]
    pub fn crashes(crashes: Vec<(NodeId, usize)>) -> FaultPlan {
        FaultPlan { crashes, ..FaultPlan::default() }
    }

    /// A plan that only loses messages with probability `loss`.
    #[must_use]
    pub fn lossy(loss: f64) -> FaultPlan {
        FaultPlan { loss, ..FaultPlan::default() }
    }

    /// Adds crash-recover entries (builder style).
    #[must_use]
    pub fn with_recoveries(mut self, recoveries: Vec<(NodeId, usize)>) -> FaultPlan {
        self.recoveries = recoveries;
        self
    }

    /// Sets the network-wide duplication probability (builder style).
    #[must_use]
    pub fn with_dup(mut self, dup: f64) -> FaultPlan {
        self.dup = dup;
        self
    }

    /// Sets the network-wide reordering probability (builder style).
    #[must_use]
    pub fn with_reorder(mut self, reorder: f64) -> FaultPlan {
        self.reorder = reorder;
        self
    }

    /// Sets the network-wide corruption probability (builder style).
    #[must_use]
    pub fn with_corrupt(mut self, corrupt: f64) -> FaultPlan {
        self.corrupt = corrupt;
        self
    }

    /// Marks nodes as Byzantine equivocators (builder style).
    #[must_use]
    pub fn with_equivocators(mut self, equivocators: Vec<NodeId>) -> FaultPlan {
        self.equivocators = equivocators;
        self
    }

    /// Marks nodes as register liars (builder style).
    #[must_use]
    pub fn with_liars(mut self, liars: Vec<NodeId>) -> FaultPlan {
        self.liars = liars;
        self
    }

    /// Adds a per-link override (builder style).
    #[must_use]
    pub fn with_link(mut self, link: LinkFault) -> FaultPlan {
        self.links.push(link);
        self
    }

    /// Adds a partition window (builder style).
    #[must_use]
    pub fn with_partition(mut self, partition: Partition) -> FaultPlan {
        self.partitions.push(partition);
        self
    }

    /// Adds a squall window (builder style).
    #[must_use]
    pub fn with_squall(mut self, squall: Squall) -> FaultPlan {
        self.squalls.push(squall);
        self
    }

    /// Whether the plan injects nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.recoveries.is_empty()
            && self.loss == 0.0
            && self.dup == 0.0
            && self.reorder == 0.0
            && self.corrupt == 0.0
            && self.equivocators.is_empty()
            && self.liars.is_empty()
            && self.links.is_empty()
            && self.partitions.is_empty()
            && self.squalls.is_empty()
    }

    /// Checks the plan against `graph` before a run.
    ///
    /// # Errors
    /// [`SimError::InvalidFaultPlan`] if any probability is outside
    /// `[0, 1]` (or non-finite), a node id is out of range, a node is
    /// crashed or recovered twice, a recovery lacks a strictly earlier
    /// crash, an equivocator or liar id is out of range or listed
    /// twice, a link names a non-edge or a self-loop, or a partition
    /// window is inverted.
    ///
    /// Generic over [`Topology`], so implicit graphs validate without
    /// materializing; a `&Graph` coerces at the call site.
    pub fn validate(&self, graph: &dyn Topology) -> Result<(), SimError> {
        let n = graph.node_count();
        let invalid = |reason: String| Err(SimError::InvalidFaultPlan { reason });
        let check_prob = |p: f64, what: &str| -> Result<(), SimError> {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(SimError::InvalidFaultPlan {
                    reason: format!("{what} probability {p} outside [0, 1]"),
                });
            }
            Ok(())
        };
        check_prob(self.loss, "loss")?;
        check_prob(self.dup, "duplication")?;
        check_prob(self.reorder, "reordering")?;
        check_prob(self.corrupt, "corruption")?;

        // Per-node lookup tables are built only for the lists that need them, so
        // validating an empty plan allocates nothing per node.
        for (what, list) in [("equivocator", &self.equivocators), ("liar", &self.liars)] {
            if list.is_empty() {
                continue;
            }
            let mut seen = vec![false; n];
            for &v in list {
                if v >= n {
                    return invalid(format!(
                        "{what} list names node {v}, but the graph has {n} nodes"
                    ));
                }
                if seen[v] {
                    return invalid(format!("node {v} appears twice in the {what} list"));
                }
                seen[v] = true;
            }
        }

        let tracked = if self.crashes.is_empty() && self.recoveries.is_empty() { 0 } else { n };
        let mut crash_round = vec![None; tracked];
        for &(v, r) in &self.crashes {
            if v >= n {
                return invalid(format!("crash names node {v}, but the graph has {n} nodes"));
            }
            if crash_round[v].is_some() {
                return invalid(format!("node {v} is crashed twice"));
            }
            crash_round[v] = Some(r);
        }
        let mut recovered = vec![false; tracked];
        for &(v, r) in &self.recoveries {
            if v >= n {
                return invalid(format!("recovery names node {v}, but the graph has {n} nodes"));
            }
            if recovered[v] {
                return invalid(format!("node {v} is recovered twice"));
            }
            recovered[v] = true;
            match crash_round[v] {
                None => {
                    return invalid(format!("node {v} recovers without ever crashing"));
                }
                Some(cr) if r <= cr => {
                    return invalid(format!(
                        "node {v} recovers at round {r}, not after its crash at round {cr}"
                    ));
                }
                Some(_) => {}
            }
        }
        for link in &self.links {
            check_prob(link.loss, "link loss")?;
            check_prob(link.dup, "link duplication")?;
            check_prob(link.reorder, "link reordering")?;
            if link.a >= n || link.b >= n {
                return invalid(format!(
                    "link ({}, {}) names a node outside the graph's {n} nodes",
                    link.a, link.b
                ));
            }
            if link.a == link.b {
                return invalid(format!("link ({}, {}) is a self-loop", link.a, link.b));
            }
            if !graph.incident(link.a).any(|(_, u, _)| u == link.b) {
                return invalid(format!("link ({}, {}) is not an edge", link.a, link.b));
            }
        }
        for part in &self.partitions {
            if part.from_round > part.until_round {
                return invalid(format!(
                    "partition window [{}, {}] is inverted",
                    part.from_round, part.until_round
                ));
            }
            if let Some(&v) = part.side.iter().find(|&&v| v >= n) {
                return invalid(format!(
                    "partition side names node {v}, but the graph has {n} nodes"
                ));
            }
        }
        for squall in &self.squalls {
            check_prob(squall.loss, "squall loss")?;
            check_prob(squall.corrupt, "squall corruption")?;
            if squall.from_round > squall.until_round {
                return invalid(format!(
                    "squall window [{}, {}] is inverted",
                    squall.from_round, squall.until_round
                ));
            }
        }
        Ok(())
    }
}

/// One scheduled topology event of a [`ChurnPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// The round at whose start the event takes effect (must be ≥ 1;
    /// round 0 is `on_start` on the initial topology).
    pub round: usize,
    /// What changes.
    pub kind: ChurnKind,
}

/// Scheduled topology churn for a run: a dynamic graph expressed as
/// presence masks over an immutable *universe* graph.
///
/// The engine's [`Graph`](dam_graph::Graph) is immutable, so churn is
/// modelled by presence: `absent_nodes`/`absent_edges` name the parts of the
/// universe missing at round 0, and `events` toggles presence at
/// round boundaries — edges flap up and down, absent nodes [`join`]
/// with fresh state, present nodes [`leave`] permanently. Plans are
/// validated up front (like [`FaultPlan`]) and every applied event is
/// recorded as a [`TraceEvent::Churn`] when tracing and counted in
/// [`RunStats::churn_events`]. Messages sent across an absent edge or
/// towards an absent node are dropped at the sender and counted in
/// [`RunStats::churn_drops`]; in-flight deliveries complete.
///
/// [`join`]: ChurnKind::Join
/// [`leave`]: ChurnKind::Leave
#[derive(Debug, Clone, Default)]
pub struct ChurnPlan {
    /// Nodes absent from the initial topology (may [`ChurnKind::Join`]
    /// later).
    pub absent_nodes: Vec<NodeId>,
    /// Universe edges absent from the initial topology (may come up via
    /// [`ChurnKind::EdgeUp`]).
    pub absent_edges: Vec<usize>,
    /// Round-stamped topology events, applied in round order (plan order
    /// within a round).
    pub events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// A plan consisting only of scheduled events (full initial
    /// topology).
    #[must_use]
    pub fn events(events: Vec<ChurnEvent>) -> ChurnPlan {
        ChurnPlan { events, ..ChurnPlan::default() }
    }

    /// Marks nodes absent at round 0 (builder style).
    #[must_use]
    pub fn with_absent_nodes(mut self, nodes: Vec<NodeId>) -> ChurnPlan {
        self.absent_nodes = nodes;
        self
    }

    /// Marks universe edges absent at round 0 (builder style).
    #[must_use]
    pub fn with_absent_edges(mut self, edges: Vec<usize>) -> ChurnPlan {
        self.absent_edges = edges;
        self
    }

    /// Schedules one event (builder style).
    #[must_use]
    pub fn with_event(mut self, round: usize, kind: ChurnKind) -> ChurnPlan {
        self.events.push(ChurnEvent { round, kind });
        self
    }

    /// Whether the plan changes nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.absent_nodes.is_empty() && self.absent_edges.is_empty() && self.events.is_empty()
    }

    /// The round of the last scheduled event (0 if none).
    #[must_use]
    pub fn last_event_round(&self) -> usize {
        self.events.iter().map(|e| e.round).max().unwrap_or(0)
    }

    /// Events sorted by round, stably (plan order within a round) — the
    /// order in which the engine applies them.
    fn sorted_events(&self) -> Vec<ChurnEvent> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|e| e.round);
        evs
    }

    /// Node/edge presence at round 0 as word-packed masks:
    /// `(node_present, edge_present)`.
    #[must_use]
    pub fn initial_presence_on(&self, topo: &dyn Topology) -> (BitSet, BitSet) {
        let mut node_present = BitSet::filled(topo.node_count(), true);
        for &v in &self.absent_nodes {
            node_present.set(v, false);
        }
        let mut edge_present = BitSet::filled(topo.edge_count(), true);
        for &e in &self.absent_edges {
            edge_present.set(e, false);
        }
        (node_present, edge_present)
    }

    /// Node/edge presence after every event has been applied — the
    /// topology a maintenance pass must be maximal on at the end.
    #[must_use]
    pub fn final_presence_on(&self, topo: &dyn Topology) -> (BitSet, BitSet) {
        let (mut node_present, mut edge_present) = self.initial_presence_on(topo);
        for ev in self.sorted_events() {
            match ev.kind {
                ChurnKind::EdgeUp { edge } => edge_present.set(edge, true),
                ChurnKind::EdgeDown { edge } => edge_present.set(edge, false),
                ChurnKind::Join { node } => node_present.set(node, true),
                ChurnKind::Leave { node } => node_present.set(node, false),
            }
        }
        (node_present, edge_present)
    }

    /// Checks the plan against `graph` before a run.
    ///
    /// # Errors
    /// [`SimError::InvalidChurnPlan`] if an id is out of range, a node
    /// or edge is marked absent twice, an event is scheduled at round 0,
    /// or the event sequence is inconsistent when replayed in order: a
    /// join of a present (or permanently left) node, a leave of an
    /// absent node, an edge-up of a present edge, or an edge-down of an
    /// absent edge.
    ///
    /// Generic over [`Topology`]; a `&Graph` coerces at the call site.
    pub fn validate(&self, graph: &dyn Topology) -> Result<(), SimError> {
        if self.is_empty() {
            return Ok(());
        }
        let n = graph.node_count();
        let m = graph.edge_count();
        let invalid = |reason: String| Err(SimError::InvalidChurnPlan { reason });
        let mut node_present = vec![true; n];
        for &v in &self.absent_nodes {
            if v >= n {
                return invalid(format!("absent node {v}, but the graph has {n} nodes"));
            }
            if !node_present[v] {
                return invalid(format!("node {v} is marked absent twice"));
            }
            node_present[v] = false;
        }
        let mut edge_present = vec![true; m];
        for &e in &self.absent_edges {
            if e >= m {
                return invalid(format!("absent edge {e}, but the graph has {m} edges"));
            }
            if !edge_present[e] {
                return invalid(format!("edge {e} is marked absent twice"));
            }
            edge_present[e] = false;
        }
        let mut left = vec![false; n];
        for ev in self.sorted_events() {
            if ev.round == 0 {
                return invalid(format!(
                    "event {:?} scheduled at round 0 (events start at round 1)",
                    ev.kind
                ));
            }
            match ev.kind {
                ChurnKind::EdgeUp { edge } => {
                    if edge >= m {
                        return invalid(format!("edge-up names edge {edge} of {m}"));
                    }
                    if edge_present[edge] {
                        return invalid(format!(
                            "edge {edge} comes up at round {} but is already present",
                            ev.round
                        ));
                    }
                    edge_present[edge] = true;
                }
                ChurnKind::EdgeDown { edge } => {
                    if edge >= m {
                        return invalid(format!("edge-down names edge {edge} of {m}"));
                    }
                    if !edge_present[edge] {
                        return invalid(format!(
                            "edge {edge} goes down at round {} but is already absent",
                            ev.round
                        ));
                    }
                    edge_present[edge] = false;
                }
                ChurnKind::Join { node } => {
                    if node >= n {
                        return invalid(format!("join names node {node} of {n}"));
                    }
                    if left[node] {
                        return invalid(format!(
                            "node {node} joins at round {} after leaving permanently",
                            ev.round
                        ));
                    }
                    if node_present[node] {
                        return invalid(format!(
                            "node {node} joins at round {} but is already present",
                            ev.round
                        ));
                    }
                    node_present[node] = true;
                }
                ChurnKind::Leave { node } => {
                    if node >= n {
                        return invalid(format!("leave names node {node} of {n}"));
                    }
                    if !node_present[node] {
                        return invalid(format!(
                            "node {node} leaves at round {} but is not present",
                            ev.round
                        ));
                    }
                    node_present[node] = false;
                    left[node] = true;
                }
            }
        }
        Ok(())
    }

    /// Checks compatibility with a [`FaultPlan`] run alongside: churned
    /// nodes (absent, joining or leaving) must be disjoint from crashed
    /// or recovering nodes, since a recovery must not resurrect a node
    /// that left the topology.
    ///
    /// # Errors
    /// [`SimError::InvalidChurnPlan`] on overlap.
    pub fn validate_against(&self, faults: &FaultPlan) -> Result<(), SimError> {
        let mut churned: Vec<NodeId> = self.absent_nodes.clone();
        for ev in &self.events {
            match ev.kind {
                ChurnKind::Join { node } | ChurnKind::Leave { node } => churned.push(node),
                ChurnKind::EdgeUp { .. } | ChurnKind::EdgeDown { .. } => {}
            }
        }
        for &v in &churned {
            if faults.crashes.iter().any(|&(u, _)| u == v)
                || faults.recoveries.iter().any(|&(u, _)| u == v)
            {
                return Err(SimError::InvalidChurnPlan {
                    reason: format!("node {v} appears in both the churn and the fault plan"),
                });
            }
        }
        Ok(())
    }
}

/// What one [`Network::execute`] run injects and records: the faults,
/// the topology churn, and whether to collect a [`Trace`].
///
/// The default injects nothing and traces nothing; override fields with
/// struct-update syntax:
///
/// ```
/// # use dam_congest::{FaultPlan, RunSpec};
/// let faults = FaultPlan::lossy(0.1);
/// let spec = RunSpec { faults: &faults, trace: true, ..RunSpec::default() };
/// assert!(spec.churn.is_empty());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RunSpec<'a> {
    /// Injected faults (see [`FaultPlan`]).
    pub faults: &'a FaultPlan,
    /// Scheduled topology changes (see [`ChurnPlan`]).
    pub churn: &'a ChurnPlan,
    /// Whether to collect [`RunOutcome::trace`].
    pub trace: bool,
}

/// The empty plans behind [`RunSpec::default`].
static NO_FAULTS: FaultPlan = FaultPlan {
    crashes: Vec::new(),
    recoveries: Vec::new(),
    loss: 0.0,
    dup: 0.0,
    reorder: 0.0,
    corrupt: 0.0,
    equivocators: Vec::new(),
    liars: Vec::new(),
    links: Vec::new(),
    partitions: Vec::new(),
    squalls: Vec::new(),
};
static NO_CHURN: ChurnPlan =
    ChurnPlan { absent_nodes: Vec::new(), absent_edges: Vec::new(), events: Vec::new() };

impl Default for RunSpec<'_> {
    fn default() -> Self {
        RunSpec { faults: &NO_FAULTS, churn: &NO_CHURN, trace: false }
    }
}

/// Everything a run derives from its validated [`FaultPlan`] and
/// [`ChurnPlan`] before round 0.
///
/// Shared by the sequential engine and the sharded parallel executor
/// ([`crate::parallel`]) so both apply crash/recovery schedules, churn
/// presence and per-message fault draws from identical, immutable data —
/// the structural half of the bit-identical-execution guarantee.
pub(crate) struct RunPlan {
    /// The scheduled events of every node, indexed by node id; empty
    /// when neither plan schedules a node event, so a plain run carries
    /// no per-node table (see [`RunPlan::node`]).
    node_events: Vec<NodeEvents>,
    /// No run may end before this round: the last recovery or topology
    /// event that could wake a halted network up again.
    pub(crate) last_wake: usize,
    /// Node presence at round 0 (word-packed; one bit per node).
    pub(crate) node_present0: BitSet,
    /// Edge presence at round 0 (word-packed; one bit per edge).
    pub(crate) edge_present0: BitSet,
    /// Edge up/down events, sorted by round (plan order within one).
    pub(crate) edge_events: Vec<ChurnEvent>,
    /// The plan-wide `(loss, dup, reorder, corrupt)`.
    fx: (f64, f64, f64, f64),
    /// Per-link overrides of [`RunPlan::fx`], indexed like
    /// [`PortTable::peer`] by the sending port; empty when the plan names
    /// no links, so a plain run carries no per-port table.
    link_fx: Vec<(f64, f64, f64, f64)>,
    /// Whether each node is a Byzantine equivocator (one bit per node).
    pub(crate) equivocator: BitSet,
    /// `(from_round, until_round, side-membership)` per partition.
    partitions: Vec<(usize, usize, Vec<bool>)>,
    /// Round-windowed loss/corruption overlays.
    squalls: Vec<Squall>,
    /// Whether duplication/reordering can occur (gates the engines'
    /// late-copy queues).
    pub(crate) any_dup_or_reorder: bool,
    /// Whether any message can draw from a keyed RNG: a channel fault
    /// probability above zero, a squall or an equivocator. When not,
    /// the engines derive no per-sender keys ([`Wire::sender`]).
    keyed: bool,
}

/// The rounds at which one node crash-stops, reboots, joins and leaves
/// (each at most once, as the plans are validated).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeEvents {
    pub(crate) crash: Option<usize>,
    pub(crate) recovery: Option<usize>,
    pub(crate) join: Option<usize>,
    pub(crate) leave: Option<usize>,
}

/// The fate of one message under [`RunPlan::message_fate`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MsgFate {
    /// Dropped by the lossy channel (nothing else applies).
    pub(crate) lost: bool,
    /// A duplicate copy trails the original by one round.
    pub(crate) duplicated: bool,
    /// Extra delay rounds, if reordered (the original is not delivered).
    pub(crate) delayed: Option<usize>,
    /// The message is damaged in transit with this corruption shape.
    pub(crate) corrupt: Option<CorruptKind>,
}

impl RunPlan {
    /// Validates both plans against `graph` and derives the run-time
    /// schedules.
    pub(crate) fn build(
        graph: &dyn Topology,
        ports: &PortTable,
        faults: &FaultPlan,
        churn: &ChurnPlan,
    ) -> Result<RunPlan, SimError> {
        faults.validate(graph)?;
        churn.validate(graph)?;
        churn.validate_against(faults)?;
        let n = graph.node_count();
        let last_recovery = faults.recoveries.iter().map(|&(_, r)| r).max().unwrap_or(0);
        let last_wake = last_recovery.max(churn.last_event_round());
        let (node_present0, edge_present0) = churn.initial_presence_on(graph);
        let events = churn.sorted_events();
        let node_churn = events
            .iter()
            .any(|ev| matches!(ev.kind, ChurnKind::Join { .. } | ChurnKind::Leave { .. }));
        let mut node_events = Vec::new();
        if node_churn || !faults.crashes.is_empty() || !faults.recoveries.is_empty() {
            node_events = vec![NodeEvents::default(); n];
        }
        for &(v, r) in &faults.crashes {
            node_events[v].crash = Some(r);
        }
        for &(v, r) in &faults.recoveries {
            node_events[v].recovery = Some(r);
        }
        let mut edge_events = Vec::new();
        for ev in events {
            match ev.kind {
                ChurnKind::Join { node } => node_events[node].join = Some(ev.round),
                ChurnKind::Leave { node } => node_events[node].leave = Some(ev.round),
                ChurnKind::EdgeUp { .. } | ChurnKind::EdgeDown { .. } => edge_events.push(ev),
            }
        }
        let fx = (faults.loss, faults.dup, faults.reorder, faults.corrupt);
        let mut link_fx = Vec::new();
        if !faults.links.is_empty() {
            link_fx = vec![fx; ports.len()];
            for link in &faults.links {
                for (v, u) in [(link.a, link.b), (link.b, link.a)] {
                    for i in ports.range(v) {
                        if ports.peer[i].0 == u {
                            link_fx[i] = (link.loss, link.dup, link.reorder, faults.corrupt);
                        }
                    }
                }
            }
        }
        let mut equivocator = BitSet::new(n);
        for &v in &faults.equivocators {
            equivocator.set(v, true);
        }
        let partitions = faults
            .partitions
            .iter()
            .map(|p| {
                let mut side = vec![false; n];
                for &v in &p.side {
                    side[v] = true;
                }
                (p.from_round, p.until_round, side)
            })
            .collect();
        let any_dup_or_reorder =
            std::iter::once(&fx).chain(&link_fx).any(|&(_, d, r, _)| d > 0.0 || r > 0.0);
        let keyed = std::iter::once(&fx)
            .chain(&link_fx)
            .any(|&(l, d, r, c)| l > 0.0 || d > 0.0 || r > 0.0 || c > 0.0)
            || !faults.squalls.is_empty()
            || !faults.equivocators.is_empty();
        Ok(RunPlan {
            node_events,
            last_wake,
            node_present0,
            edge_present0,
            edge_events,
            fx,
            link_fx,
            equivocator,
            partitions,
            squalls: faults.squalls.clone(),
            any_dup_or_reorder,
            keyed,
        })
    }

    /// The scheduled events of node `v` (all `None` for most nodes).
    #[inline]
    pub(crate) fn node(&self, v: NodeId) -> NodeEvents {
        self.node_events.get(v).copied().unwrap_or_default()
    }

    /// Every scheduled node event as `(round, node)`, in node order.
    pub(crate) fn node_event_rounds(&self) -> impl Iterator<Item = (usize, NodeId)> + '_ {
        self.node_events.iter().enumerate().flat_map(|(v, ev)| {
            [ev.crash, ev.recovery, ev.join, ev.leave].into_iter().flatten().map(move |r| (r, v))
        })
    }

    /// Whether `v → u` crosses an active partition cut in `round`.
    #[inline]
    pub(crate) fn partitioned(&self, round: usize, v: NodeId, u: NodeId) -> bool {
        self.partitions
            .iter()
            .any(|&(from, until, ref side)| round >= from && round <= until && side[v] != side[u])
    }

    /// The fate of the message leaving port `port` of the sender whose
    /// keys are `keys` in `round`; `i` is that port's [`PortTable`]
    /// index.
    ///
    /// Drawn from a dedicated RNG keyed on the message coordinates
    /// (see [`rng::fault_rng`]), so the result is independent of flush
    /// order — any engine, sharded or sequential, sees the same fate for
    /// the same message. No key work happens before the effective
    /// probabilities are known to be non-zero. Draw order within a
    /// message mirrors the gates: loss first (a lost message draws
    /// nothing else), then duplication, then reordering (plus its
    /// delay), then corruption (decision plus kind). A plan with
    /// `corrupt = 0` therefore draws the exact same loss/dup/reorder
    /// pattern as before corruption existed.
    #[inline]
    pub(crate) fn message_fate(
        &self,
        keys: &SenderKeys,
        round: usize,
        port: Port,
        i: usize,
    ) -> MsgFate {
        // An unkeyed plan has no positive probability anywhere.
        if self.keyed {
            self.draw_fate(keys, round, port, i)
        } else {
            MsgFate::default()
        }
    }

    /// [`RunPlan::message_fate`] of a keyed plan.
    fn draw_fate(&self, keys: &SenderKeys, round: usize, port: Port, i: usize) -> MsgFate {
        let (mut loss, dup, reorder, mut corrupt) =
            if self.link_fx.is_empty() { self.fx } else { self.link_fx[i] };
        // Squall overlay: a pure function of the round, so the effective
        // probabilities (and hence the keyed per-message draws) are
        // identical on every backend. A message outside every window
        // sees the base probabilities bit-for-bit.
        for s in &self.squalls {
            if round >= s.from_round && round <= s.until_round {
                loss = loss.max(s.loss);
                corrupt = corrupt.max(s.corrupt);
            }
        }
        if loss <= 0.0 && dup <= 0.0 && reorder <= 0.0 && corrupt <= 0.0 {
            return MsgFate::default();
        }
        use rand::RngExt;
        let mut rng = keys.fault(port);
        if loss > 0.0 && rng.random_bool(loss) {
            return MsgFate { lost: true, ..MsgFate::default() };
        }
        let duplicated = dup > 0.0 && rng.random_bool(dup);
        let delayed = if reorder > 0.0 && rng.random_bool(reorder) {
            Some(1 + rng.random_range(0..3usize))
        } else {
            None
        };
        let corrupt = if corrupt > 0.0 && rng.random_bool(corrupt) {
            Some(CorruptKind::draw(&mut rng))
        } else {
            None
        };
        MsgFate { lost: false, duplicated, delayed, corrupt }
    }

    /// Whether node `u` counts as present in `round` from the viewpoint
    /// of `observer`'s execution slot.
    ///
    /// The sequential engine mutates its presence array in node order
    /// within a round, so a same-round join/leave of `u` is visible to a
    /// sender `v` only when `u < v`. This reconstruction lets shards
    /// evaluate the identical predicate without sharing mutable state.
    #[inline]
    pub(crate) fn present_seen(&self, u: NodeId, round: usize, observer: NodeId) -> bool {
        let seen = |r: Option<usize>| r.is_some_and(|r| r < round || (r == round && u < observer));
        match self.node_events.get(u) {
            Some(events) if seen(events.leave) => false,
            Some(events) if seen(events.join) => true,
            _ => self.node_present0[u],
        }
    }
}

/// The accounting one engine (one worker, when sharded) keeps while
/// delivering: run statistics, the widest message of the current round
/// for pipelined charging, and the trace when one is collected.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) stats: RunStats,
    pub(crate) round_max_bits: usize,
    pub(crate) trace: Option<Trace>,
}

impl Tally {
    pub(crate) fn new(trace: bool) -> Tally {
        Tally { trace: trace.then(Trace::new), ..Tally::default() }
    }

    /// Records `event` if a trace is being collected.
    #[inline]
    pub(crate) fn record(&mut self, event: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.record(event);
        }
    }
}

/// Where [`Wire::send`] routes one message.
pub(crate) enum Route<M> {
    /// No channel: the edge or the receiver is absent, so nothing went on
    /// the wire (counted as a churn drop).
    NoLink,
    /// The frame went on the wire but never arrives: cut by a partition,
    /// lost, or tampered into something undecodable.
    Lost,
    /// `msg` arrives at port `q` of `u` in round `due` (the next round
    /// unless reordered); `dup` is a copy trailing it, due one round
    /// after the next.
    Arrive { u: NodeId, q: Port, due: usize, msg: M, dup: Option<M> },
}

/// The per-message delivery step of both synchronous engines:
/// everything that happens to a message between the sender's outbox and
/// the receiver's port, except the write itself. The sequential and
/// sharded engines call [`Wire::send`] on the same messages in the same
/// per-sender order and differ only in where an arriving message is put.
pub(crate) struct Wire<'a> {
    pub(crate) graph: &'a dyn Topology,
    pub(crate) config: SimConfig,
    pub(crate) plan: &'a RunPlan,
    pub(crate) run_id: u64,
    /// The network's port table: receiver, receiver port and edge of
    /// every sending port.
    pub(crate) ports: &'a PortTable,
    /// The keyed fault chains with this run's `(seed, run)` mixed in.
    keys: RunKeys,
}

impl<'a> Wire<'a> {
    pub(crate) fn new(
        graph: &'a dyn Topology,
        config: SimConfig,
        plan: &'a RunPlan,
        run_id: u64,
        ports: &'a PortTable,
    ) -> Wire<'a> {
        Wire { graph, config, plan, run_id, ports, keys: RunKeys::new(config.seed, run_id) }
    }

    /// The keys of the messages `v` sends in `round`, to pass to every
    /// [`Wire::send`] of that sender's outbox. A plan that never draws
    /// ([`RunPlan::keyed`]) gets placeholder keys for free: no message
    /// of its run reaches a keyed draw.
    #[inline]
    pub(crate) fn sender(&self, round: usize, v: NodeId) -> SenderKeys {
        if self.plan.keyed {
            self.keys.sender(round, v)
        } else {
            SenderKeys::default()
        }
    }

    /// Sends `msg` from port `port` of `v` in `round`, in gate order: the
    /// class counters, bits and the round's widest message; the CONGEST
    /// budget under its [`ViolationPolicy`]; the `Send` trace event; the
    /// churn gate `link_up(receiver, edge)`; an active partition cut;
    /// then the keyed draws of [`RunPlan::message_fate`] — loss,
    /// equivocation, corruption, duplication and reordering — each
    /// counted and traced as it applies.
    ///
    /// Every draw is keyed on the message coordinates, so the result
    /// does not depend on the order in which senders are flushed;
    /// `keys` are the sender's ([`Wire::sender`]).
    ///
    /// # Panics
    /// On an oversize message under [`ViolationPolicy::Panic`].
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send<M: BitSize + Clone>(
        &self,
        round: usize,
        v: NodeId,
        port: Port,
        mut msg: M,
        keys: &SenderKeys,
        tally: &mut Tally,
        link_up: impl FnOnce(NodeId, usize) -> bool,
    ) -> Route<M> {
        let bits = msg.bit_size();
        let stats = &mut tally.stats;
        match msg.class() {
            MsgClass::Protocol => stats.messages = stats.messages.saturating_add(1),
            MsgClass::Retransmission => {
                stats.retransmissions = stats.retransmissions.saturating_add(1);
            }
            MsgClass::Heartbeat => stats.heartbeats = stats.heartbeats.saturating_add(1),
            MsgClass::Maintenance => stats.maintenance = stats.maintenance.saturating_add(1),
        }
        stats.total_bits = stats.total_bits.saturating_add(bits as u64);
        stats.max_message_bits = stats.max_message_bits.max(bits);
        tally.round_max_bits = tally.round_max_bits.max(bits);
        let mut oversize = false;
        if let Model::Congest { bits: budget } = self.config.model {
            if bits > budget {
                oversize = true;
                match self.config.violation {
                    ViolationPolicy::Panic => panic!(
                        "CONGEST violation: node {v} sent {bits} bits over port {port} (budget {budget})"
                    ),
                    ViolationPolicy::Record => {
                        tally.stats.violations = tally.stats.violations.saturating_add(1);
                    }
                }
            }
        }
        let i = self.ports.index(v, port);
        let (u, q) = self.ports.peer[i];
        tally.record(TraceEvent::Send { round, from: v, port, to: u, bits, oversize });
        // An absent edge or receiver swallows the message at the sender —
        // no channel exists, so no fault draw either.
        if !link_up(u, self.ports.edge[i]) {
            tally.stats.churn_drops = tally.stats.churn_drops.saturating_add(1);
            return Route::NoLink;
        }
        let fault = |kind| TraceEvent::Fault { round, kind, node: v, peer: Some(u) };
        // An active partition cut swallows the message outright (no
        // randomness involved, so no fault draw here either).
        if self.plan.partitioned(round, v, u) {
            tally.record(fault(FaultKind::Partition));
            return Route::Lost;
        }
        // An all-zero plan draws nothing, so a fault-free run is
        // untouched by the fault machinery.
        let fate = self.plan.message_fate(keys, round, port, i);
        if fate.lost {
            tally.record(fault(FaultKind::Loss));
            return Route::Lost;
        }
        // Byzantine equivocation: a listed sender tampers with every
        // outgoing copy, independently per port, before the channel
        // applies its own faults.
        if self.plan.equivocator[v] {
            let mut brng = keys.byz(port);
            let kind = CorruptKind::draw(&mut brng);
            tally.stats.equivocations = tally.stats.equivocations.saturating_add(1);
            tally.record(fault(FaultKind::Equivocate { kind }));
            match msg.corrupted(kind, &mut brng) {
                Some(m) => msg = m,
                // Tampering destroyed decodability: the frame never
                // reaches the receiver (counted and traced above).
                None => return Route::Lost,
            }
        }
        // Channel corruption: the damaged value replaces the original
        // (a duplicate carries the damage too — the channel corrupted
        // the frame, not one copy).
        if let Some(kind) = fate.corrupt {
            let mut crng = keys.corrupt(port);
            tally.stats.corruptions = tally.stats.corruptions.saturating_add(1);
            tally.record(fault(FaultKind::Corrupt { kind }));
            match msg.corrupted(kind, &mut crng) {
                Some(m) => msg = m,
                None => return Route::Lost,
            }
        }
        let dup = fate.duplicated.then(|| {
            tally.record(fault(FaultKind::Duplicate));
            msg.clone()
        });
        let due = match fate.delayed {
            Some(delay) => {
                tally.record(fault(FaultKind::Reorder { delay }));
                round + 1 + delay
            }
            None => round + 1,
        };
        Route::Arrive { u, q, due, msg, dup }
    }
}

/// How one engine moves the mail of the node [`Sweep::step`] is
/// stepping. The sequential engine keeps it in its [`Mail`] slots and
/// wakes receivers through its [`Agenda`]; the sharded engine
/// ([`crate::parallel`]) keeps it in slot buffers shared by its
/// workers.
pub(crate) trait Mailroom<M> {
    /// Takes `v`'s mail for `round`: its slot messages in port order
    /// and the late copies due now, each port's on-time message before
    /// its copies. With `inbox` they are appended to it; without, they
    /// are discarded.
    fn take(&mut self, v: NodeId, round: usize, inbox: Option<&mut Vec<(Port, M)>>);

    /// Delivers `v`'s outbox for `round`, message by message through
    /// [`Wire::send`], and clears the sent flag of every port it drains.
    fn flush(
        &mut self,
        v: NodeId,
        round: usize,
        outbox: &mut Vec<(Port, M)>,
        sent: &mut [bool],
        tally: &mut Tally,
    );
}

/// The node a [`Sweep::step`] steps: its id, its program, its
/// randomness and its halt flag.
pub(crate) struct NodeSlot<'n, P> {
    pub(crate) id: NodeId,
    pub(crate) proto: &'n mut P,
    pub(crate) rng: &'n mut StdRng,
    pub(crate) halted: &'n mut bool,
}

/// What the sequential engine, and each worker of the sharded engine,
/// keeps while it steps nodes: the accounting, the integrity reports,
/// the first protocol error, and the inbox, outbox and sent flags of the
/// node being stepped.
pub(crate) struct Sweep<'a, M> {
    wire: &'a Wire<'a>,
    pub(crate) tally: Tally,
    integrity: Integrity,
    /// The protocol error of the last step, for the engine to take.
    pub(crate) fault: Option<SimError>,
    inbox: Vec<(Port, M)>,
    outbox: Vec<(Port, M)>,
    sent: Vec<bool>,
}

impl<'a, M: BitSize + Clone> Sweep<'a, M> {
    pub(crate) fn new(wire: &'a Wire<'a>, trace: bool) -> Sweep<'a, M> {
        Sweep {
            wire,
            tally: Tally::new(trace),
            integrity: Integrity::default(),
            fault: None,
            inbox: Vec::new(),
            outbox: Vec::new(),
            sent: vec![false; wire.graph.max_degree()],
        }
    }

    /// Steps `node` in `round`. This is the node step of both
    /// synchronous engines, and it never asks which one calls it: the
    /// engine supplies only how mail moves (`mail`) and does its own
    /// bookkeeping with the result.
    ///
    /// The step applies the node's scheduled event, in this order of
    /// precedence: absent at round 0, leave, join, crash, recovery. A
    /// node that is halted, absent or leaving stays silent and only has
    /// its mail discarded. A joining or recovering node reboots: `make`
    /// builds a fresh program, its randomness is salted apart from its
    /// first boot, its mail is discarded, and it runs `on_start`. Any
    /// other node runs `on_round` on its inbox. Its outbox then goes to
    /// `mail`, and a node that halted records its halt event (a rebooted
    /// node that halts straight out of `on_start` records none).
    ///
    /// Returns the node's wake hint ([`Context::sleep_until`], or 0) if
    /// its program ran, and `None` if it stayed silent. A protocol error
    /// is left in [`Sweep::fault`].
    pub(crate) fn step<P: Protocol<Msg = M>>(
        &mut self,
        round: usize,
        node: NodeSlot<'_, P>,
        make: &mut impl FnMut(NodeId, &dyn Topology) -> P,
        mail: &mut impl Mailroom<M>,
    ) -> Option<usize> {
        let NodeSlot { id: v, proto, rng, halted } = node;
        let wire = self.wire;
        let events = wire.plan.node(v);
        let (start, reboot) = if round == 0 {
            if !wire.plan.node_present0[v] {
                // Absent at round 0: silent until it joins (if ever).
                *halted = true;
                return None;
            }
            (true, None)
        } else if events.leave == Some(round) {
            // Permanent leave: silent, like a crash that never
            // recovers — but also absent from the topology, so no
            // message can reach its ports again.
            *halted = true;
            mail.take(v, round, None);
            self.tally.stats.churn_events = self.tally.stats.churn_events.saturating_add(1);
            self.tally.record(TraceEvent::Churn { round, kind: ChurnKind::Leave { node: v } });
            return None;
        } else if events.join == Some(round) {
            self.tally.stats.churn_events = self.tally.stats.churn_events.saturating_add(1);
            self.tally.record(TraceEvent::Churn { round, kind: ChurnKind::Join { node: v } });
            (true, Some(0x1099))
        } else {
            let fault = |kind| TraceEvent::Fault { round, kind, node: v, peer: None };
            if events.crash == Some(round) && !*halted {
                *halted = true; // crash-stop: silent, mid-protocol
                self.tally.record(fault(FaultKind::Crash));
            }
            if events.recovery == Some(round) {
                self.tally.record(fault(FaultKind::Recover));
                (true, Some(0xB007))
            } else if *halted {
                mail.take(v, round, None);
                return None;
            } else {
                mail.take(v, round, Some(&mut self.inbox));
                (false, None)
            }
        };
        if let Some(salt) = reboot {
            *proto = make(v, wire.graph);
            *rng = rng::node_rng(wire.config.seed ^ salt, wire.run_id, v);
            *halted = false;
            mail.take(v, round, None);
        }
        let mut ctx = Context {
            node: v,
            round,
            graph: wire.graph,
            rng,
            outbox: &mut self.outbox,
            sent: &mut self.sent,
            halted: &mut *halted,
            fault: &mut self.fault,
            integrity: &mut self.integrity,
            wake: 0,
        };
        if start {
            proto.on_start(&mut ctx);
        } else {
            proto.on_round(&mut ctx, &self.inbox);
        }
        let wake = ctx.wake;
        self.inbox.clear();
        mail.flush(v, round, &mut self.outbox, &mut self.sent, &mut self.tally);
        if reboot.is_none() && *halted {
            self.tally.record(TraceEvent::Halt { round, node: v });
        }
        Some(wake)
    }

    /// This sweep's part of the [`RoundEnd`] of the round just swept,
    /// with the engine's `halted` count and `in_flight` flag. The widest
    /// message starts over for the next round.
    pub(crate) fn report(&mut self, halted: usize, in_flight: bool) -> RoundEnd {
        RoundEnd {
            stats: self.tally.stats,
            integrity: self.integrity,
            max_bits: std::mem::take(&mut self.tally.round_max_bits),
            halted,
            in_flight,
        }
    }

    /// The sweep's accounting after the last round, integrity reports
    /// folded in.
    pub(crate) fn finish(mut self) -> Tally {
        self.integrity.fold_into(&mut self.tally.stats);
        self.tally
    }
}

/// What the [`LoopHead`] learns of a round from the engine that ran it.
#[derive(Clone, Copy, Default)]
pub(crate) struct RoundEnd {
    /// The run's counters so far, over every node.
    pub(crate) stats: RunStats,
    /// The integrity reports so far, over every node.
    pub(crate) integrity: Integrity,
    /// The widest message of the round, in bits.
    pub(crate) max_bits: usize,
    /// How many nodes are halted.
    pub(crate) halted: usize,
    /// Whether a message is still on its way: in a slot for the next
    /// round or among the late copies. After round 0 the head reads it
    /// only when the round sent no frame, when no slot can be full.
    pub(crate) in_flight: bool,
}

impl RoundEnd {
    /// Adds another part of the network (a sharded worker's report).
    pub(crate) fn absorb(&mut self, other: &RoundEnd) {
        self.stats.absorb(&other.stats);
        self.integrity.absorb(&other.integrity);
        self.max_bits = self.max_bits.max(other.max_bits);
        self.halted += other.halted;
        self.in_flight |= other.in_flight;
    }
}

/// The head of the round loop, run between rounds by both synchronous
/// engines — inline in the sequential engine, by worker 0 between the
/// barriers in the sharded one. Like [`Sweep::step`], it never asks
/// which engine calls it: the engine hands it a [`RoundEnd`] and applies
/// the edge events it returns to its own presence table.
pub(crate) struct LoopHead<'a> {
    net: &'a Network<'a>,
    plan: &'a RunPlan,
    run_id: u64,
    /// Consecutive rounds that sent nothing with nothing in flight.
    quiet: usize,
    /// Frames sent up to the last round.
    frames: u64,
    /// The first edge event still to come.
    next_edge: usize,
}

impl<'a> LoopHead<'a> {
    pub(crate) fn new(net: &'a Network<'a>, plan: &'a RunPlan, run_id: u64) -> LoopHead<'a> {
        LoopHead { net, plan, run_id, quiet: 0, frames: 0, next_edge: 0 }
    }

    /// Ends `round`. Counts the round and its charged cost into `tally`,
    /// streams the round's telemetry sample, then decides:
    /// `Break(None)` when every node is halted, or the network has been
    /// quiet for [`SimConfig::quiescence`] rounds, and no recovery or
    /// churn event is left to wake it ([`RunPlan::last_wake`]);
    /// `Break(Some(_))` at the round limit; otherwise `Continue` with
    /// round `round + 1`'s edge events as `(edge, up)`, already counted
    /// and traced into `tally`, for the engine to apply before anyone
    /// executes that round.
    pub(crate) fn end_round(
        &mut self,
        round: usize,
        end: &RoundEnd,
        tally: &mut Tally,
    ) -> ControlFlow<Option<SimError>, impl Iterator<Item = (EdgeId, bool)> + 'a> {
        let config = self.net.config;
        let stats = &mut tally.stats;
        stats.rounds = stats.rounds.saturating_add(1);
        stats.charged_rounds = stats.charged_rounds.saturating_add(self.net.charge(end.max_bits));
        self.net.sample_round(self.run_id, round, &end.stats, &end.integrity);
        let n = self.net.graph.node_count();
        let settled = round >= self.plan.last_wake;
        if end.halted == n && settled {
            return ControlFlow::Break(None);
        }
        if let Some(k) = config.quiescence {
            // After round 0 there is no earlier frame count to compare
            // with, so only messages in flight count.
            let frames = end.stats.frames();
            if (round == 0 || frames == self.frames) && !end.in_flight {
                self.quiet += 1;
                if self.quiet >= k && settled {
                    return ControlFlow::Break(None); // message-driven protocols are done
                }
            } else {
                self.quiet = 0;
            }
            self.frames = frames;
        }
        if round >= config.max_rounds {
            let limit = config.max_rounds;
            return ControlFlow::Break(Some(SimError::RoundLimitExceeded {
                limit,
                running: n - end.halted,
            }));
        }
        // Node events apply in each node's step; edge events apply here.
        let upcoming = &self.plan.edge_events[self.next_edge..];
        let due = &upcoming[..upcoming.iter().take_while(|ev| ev.round == round + 1).count()];
        self.next_edge += due.len();
        for ev in due {
            tally.stats.churn_events = tally.stats.churn_events.saturating_add(1);
            tally.record(TraceEvent::Churn { round: ev.round, kind: ev.kind });
        }
        ControlFlow::Continue(due.iter().map(|ev| match ev.kind {
            ChurnKind::EdgeUp { edge } => (edge, true),
            ChurnKind::EdgeDown { edge } => (edge, false),
            ChurnKind::Join { .. } | ChurnKind::Leave { .. } => unreachable!(),
        }))
    }
}

/// The result of one protocol run.
#[derive(Debug, Clone)]
pub struct RunOutcome<O> {
    /// Per-node outputs, indexed by node id.
    pub outputs: Vec<O>,
    /// Statistics of this run.
    pub stats: RunStats,
    /// Per-node transport-session exports, indexed by node id — sampled
    /// once via [`Protocol::session`] after the last round, before the
    /// outputs were collected. `None` for protocols without a session
    /// (the plain engine's default), and empty when no node exported
    /// one. Checkpointing reads these to validate quiescence and record
    /// incarnation state; nothing in the engine consumes them.
    pub sessions: Vec<Option<SessionState>>,
    /// The execution trace, when [`RunSpec::trace`] asked for one.
    pub trace: Option<Trace>,
}

/// The session exports of a run's `n` node programs, in node order, for
/// [`RunOutcome::sessions`]: empty unless some node exports one, so a
/// bare run allocates nothing for them.
pub(crate) fn sessions_of<'a, P: Protocol + 'a>(
    n: usize,
    protos: impl Iterator<Item = &'a P>,
) -> Vec<Option<SessionState>> {
    let mut sessions = Vec::new();
    for (v, proto) in protos.enumerate() {
        if let Some(s) = proto.session() {
            sessions.resize(n, None);
            sessions[v] = Some(s);
        }
    }
    sessions
}

/// The port-translation table of a [`Network`], flat over all directed
/// edges and built once in [`Network::new`].
///
/// Port `p` of node `v` has index `base[v] + p`. The index is also the
/// delivery slot of that port: both synchronous engines keep one message
/// slot per directed edge, and the message arriving at port `q` of `u`
/// lives in slot `base[u] + q`.
pub(crate) struct PortTable {
    /// `base[v]`: the index of `v`'s port 0; `base[n]` is the number of
    /// directed edges.
    pub(crate) base: Vec<usize>,
    /// `peer[base[v] + p]` = `(u, q)`: port `p` of `v` is port `q` of `u`.
    pub(crate) peer: Vec<(NodeId, Port)>,
    /// `edge[base[v] + p]`: the edge id behind port `p` of `v`.
    pub(crate) edge: Vec<EdgeId>,
}

impl PortTable {
    fn new(graph: &dyn Topology) -> PortTable {
        let n = graph.node_count();
        let mut base = Vec::with_capacity(n + 1);
        let mut total = 0usize;
        for v in 0..n {
            base.push(total);
            total += graph.degree(v);
        }
        base.push(total);
        let mut peer = vec![(0, 0); total];
        let mut edge = vec![0; total];
        // The two port indices of each edge, in the order they are seen.
        let mut ends = vec![(usize::MAX, usize::MAX); graph.edge_count()];
        for v in 0..n {
            for p in 0..base[v + 1] - base[v] {
                let i = base[v] + p;
                let (u, e) = graph.port(v, p);
                peer[i].0 = u;
                edge[i] = e;
                if ends[e].0 == usize::MAX {
                    ends[e].0 = i;
                } else {
                    ends[e].1 = i;
                }
            }
        }
        for i in 0..total {
            let (a, b) = ends[edge[i]];
            let mate = if a == i { b } else { a };
            peer[i].1 = mate - base[peer[i].0];
        }
        PortTable { base, peer, edge }
    }

    /// The number of directed edges (ports over all nodes).
    pub(crate) fn len(&self) -> usize {
        self.peer.len()
    }

    /// The indices of `v`'s ports, in port order.
    #[inline]
    pub(crate) fn range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.base[v]..self.base[v + 1]
    }

    /// The index of port `p` of `v`.
    ///
    /// # Panics
    /// If `v` has no port `p`.
    #[inline]
    pub(crate) fn index(&self, v: NodeId, p: Port) -> usize {
        let i = self.base[v] + p;
        assert!(i < self.base[v + 1], "node {v} has no port {p}");
        i
    }
}

/// A [`Topology`] that answers degree and port queries from a
/// [`PortTable`] and passes everything else (endpoints, weights, sides,
/// the CSR downcast) through to the input topology. The engines hand it
/// to `make` and to every node's [`Context`], so a phase reads the table
/// instead of recomputing an implicit family's ports or searching a
/// `gnp` row.
pub(crate) struct PortView<'a> {
    pub(crate) graph: &'a dyn Topology,
    pub(crate) ports: &'a PortTable,
}

impl Topology for PortView<'_> {
    fn node_count(&self) -> usize {
        self.ports.base.len() - 1
    }

    fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        self.ports.base[v + 1] - self.ports.base[v]
    }

    fn max_degree(&self) -> usize {
        self.graph.max_degree()
    }

    #[inline]
    fn port(&self, v: NodeId, p: usize) -> (NodeId, EdgeId) {
        let i = self.ports.index(v, p);
        (self.ports.peer[i].0, self.ports.edge[i])
    }

    fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.graph.endpoints(e)
    }

    fn weight(&self, e: EdgeId) -> f64 {
        self.graph.weight(e)
    }

    fn is_weighted(&self) -> bool {
        self.graph.is_weighted()
    }

    fn side_of(&self, v: NodeId) -> Option<dam_graph::Side> {
        self.graph.side_of(v)
    }

    fn as_graph(&self) -> Option<&dam_graph::Graph> {
        self.graph.as_graph()
    }
}

/// A synchronous network over a graph topology.
///
/// One `Network` can execute many protocol runs (the *phases* of a larger
/// algorithm); [`Network::totals`] accumulates their combined cost, which
/// is the quantity the paper's theorems bound.
pub struct Network<'g> {
    graph: &'g dyn Topology,
    config: SimConfig,
    run_counter: u64,
    totals: TotalStats,
    /// Peer, peer port and edge of every port; the slot layout of both
    /// synchronous engines.
    ports: PortTable,
    /// The per-node RNGs of the sequential and asynchronous engine,
    /// sized by the first run and reseeded in place by every later one.
    rngs: Vec<StdRng>,
    /// Their mail buffers ([`Mail`] of the last run's message type),
    /// kept across runs so a run only empties the slots still holding
    /// mail. A mutex only so that `Network` stays `Sync` for the
    /// sharded engine; runs reach it through `get_mut` and never lock.
    mail: Mutex<Option<Box<dyn Any + Send>>>,
    /// Which nodes the sequential engine steps in a round (see
    /// [`Agenda`]), kept across runs like the RNGs.
    agenda: Agenda,
    /// Virtual-time accounting of the most recent asynchronous run
    /// ([`crate::Backend::Async`]); `None` before the first one.
    async_info: Option<crate::asynchrony::AsyncInfo>,
    /// Telemetry middleware: when set, every run streams one
    /// [`crate::telemetry::RoundSample`] per executed round into the
    /// sink. Sampling reads the already-final counters at the round
    /// boundary and writes nothing back, so attaching a sink cannot
    /// perturb a run (the differential suites assert this).
    sink: Option<crate::telemetry::SinkHandle>,
}

impl<'g> Network<'g> {
    /// Creates a network over any [`Topology`] — a materialized CSR
    /// [`Graph`](dam_graph::Graph) or an implicit generator; `&Graph`
    /// coerces at the call site.
    #[must_use]
    pub fn new(graph: &'g dyn Topology, config: SimConfig) -> Network<'g> {
        Network {
            graph,
            config,
            run_counter: 0,
            totals: TotalStats::default(),
            ports: PortTable::new(graph),
            rngs: Vec::new(),
            mail: Mutex::new(None),
            agenda: Agenda::default(),
            async_info: None,
            sink: None,
        }
    }

    /// Attaches (or, with `None`, detaches) a per-round telemetry sink.
    /// Applies to every subsequent run on any backend.
    pub fn set_stats_sink(&mut self, sink: Option<crate::telemetry::SinkHandle>) {
        self.sink = sink;
    }

    /// The attached telemetry sink, if any (shared with the sharded
    /// executor).
    #[must_use]
    pub fn stats_sink(&self) -> Option<&crate::telemetry::SinkHandle> {
        self.sink.as_ref()
    }

    /// Streams one cumulative sample for the round that just completed.
    /// Read-only over the counters; a no-op without a sink.
    pub(crate) fn sample_round(
        &self,
        run: u64,
        round: usize,
        stats: &RunStats,
        integrity: &Integrity,
    ) {
        if let Some(sink) = &self.sink {
            sink.record(crate::telemetry::RoundSample {
                run,
                round: round as u64,
                messages: stats.messages,
                retransmissions: stats.retransmissions,
                heartbeats: stats.heartbeats,
                maintenance: stats.maintenance,
                churn_events: stats.churn_events,
                churn_drops: stats.churn_drops,
                suspected: integrity.suspected,
                rejected: integrity.rejected,
                quarantined: integrity.quarantined,
                outstanding: integrity.outstanding,
            });
        }
    }

    /// The underlying topology.
    #[must_use]
    pub fn graph(&self) -> &'g dyn Topology {
        self.graph
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> SimConfig {
        self.config
    }

    /// Cumulative statistics over all runs so far.
    #[must_use]
    pub fn totals(&self) -> TotalStats {
        self.totals
    }

    /// Resets the cumulative statistics (not the run counter, so
    /// randomness stays fresh).
    pub fn reset_totals(&mut self) {
        self.totals = TotalStats::default();
    }

    /// The `(neighbour, remote port)` pair behind `(node, port)`.
    #[must_use]
    pub fn peer(&self, node: NodeId, port: Port) -> (NodeId, Port) {
        self.ports.peer[self.ports.index(node, port)]
    }

    /// The whole port table.
    pub(crate) fn ports(&self) -> &PortTable {
        &self.ports
    }

    /// Allocates the next run id (also advances the randomness stream).
    pub(crate) fn next_run_id(&mut self) -> u64 {
        let id = self.run_counter;
        self.run_counter += 1;
        id
    }

    /// Virtual-time accounting (makespan, synchronizer markers, timing
    /// drops) of the most recent successful [`crate::Backend::Async`]
    /// run; `None` if no asynchronous run has completed yet.
    #[must_use]
    pub fn async_info(&self) -> Option<crate::asynchrony::AsyncInfo> {
        self.async_info
    }

    /// Folds a finished run into the cumulative totals.
    pub(crate) fn record_run(&mut self, stats: &RunStats) {
        self.totals.record(stats);
    }

    /// Records a run that was not executed because its outcome is
    /// already known: allocates its run id, exactly as [`Network::execute`]
    /// would, and folds `stats` into [`Network::totals`]. Later runs
    /// therefore draw the same randomness streams, and the totals read
    /// the same, as if the run had happened.
    ///
    /// A charge is sound only if executing the run would have returned
    /// `stats` and changed nothing else a caller can observe. That
    /// holds when an earlier run on this network executed the same node
    /// programs from the same inputs and returned `stats`, and the
    /// outcome cannot depend on the run id: the programs draw no
    /// randomness, both plans of the run are empty, no trace is
    /// collected, no stats sink is attached (it would have received
    /// the run's round samples), and the backend is not
    /// [`Backend::Async`] (whose delays are keyed on the run id, and
    /// which would have updated [`Network::async_info`]). The caller
    /// vouches for the first three.
    ///
    /// # Panics
    /// If a stats sink is attached or the effective backend is
    /// [`Backend::Async`].
    pub fn charge_run(&mut self, stats: &RunStats) {
        assert!(self.sink.is_none(), "a charged run would skip its telemetry samples");
        assert!(
            self.config.effective_backend() != Backend::Async,
            "an asynchronous run's outcome depends on its run id"
        );
        self.next_run_id();
        self.record_run(stats);
    }

    /// Runs `make` on the sequential engine with empty plans and no
    /// trace: [`Network::execute`] with [`RunSpec::default`] and the
    /// sequential backend, whatever [`SimConfig::effective_backend`]
    /// says. The factory may be `FnMut` and the protocol need not be
    /// `Send`, which is what multi-phase drivers with stateful factories
    /// rely on.
    ///
    /// # Errors
    /// [`SimError::RoundLimitExceeded`] if the round guard fires,
    /// [`SimError::DuplicateSend`] on a double send.
    ///
    /// # Panics
    /// Panics if an oversize message is sent under
    /// [`ViolationPolicy::Panic`].
    pub fn run<P, F>(&mut self, make: F) -> Result<RunOutcome<P::Output>, SimError>
    where
        P: Protocol,
        F: FnMut(NodeId, &dyn Topology) -> P,
    {
        self.run_impl(make, &RunSpec::default(), false)
    }

    /// Executes one protocol run: `make(v, graph)` builds node `v`'s state
    /// machine, and `spec` names the injected faults, the topology churn
    /// and whether to collect a [`Trace`] into [`RunOutcome::trace`].
    ///
    /// The engine is [`SimConfig::effective_backend`]'s, and every one
    /// of them yields the same outputs, [`RunStats`], trace and error:
    /// * [`Backend::Sequential`]: one thread, nodes stepped in id
    ///   order.
    /// * [`Backend::Sharded`]: the nodes split over
    ///   `threads.max(2)` workers ([`crate::parallel`]); a graph of at
    ///   most one node (`threads.min(n) <= 1`) runs on the sequential
    ///   engine instead.
    /// * [`Backend::Async`]: the sequential payload pipeline under
    ///   the α-synchronizer's virtual clock ([`crate::asynchrony`]). Its
    ///   [`RunStats::markers`] counts the synchronizer's empty rounds,
    ///   and a [`SimConfig::patience`] budget drops late frames, trading
    ///   bit-identity for bounded progress (see
    ///   [`Network::async_info`]).
    ///
    /// Faults ([`FaultPlan`]): crashed nodes stop silently at their crash
    /// round, and their `into_output` reflects the state at the crash
    /// (or at the end, if they recovered). Churn ([`ChurnPlan`]): edges
    /// flap, absent nodes join with fresh state, present nodes leave for
    /// good; events apply at round boundaries in round order (plan order
    /// within a round), and the run does not end before the last one.
    /// Every injection is deterministic in `(seed, run)` and traced.
    ///
    /// # Errors
    /// [`SimError::RoundLimitExceeded`] if the round guard fires (under
    /// faults, typically a protocol without timeouts waiting on a crashed
    /// neighbour), [`SimError::DuplicateSend`] on a double send,
    /// [`SimError::InvalidFaultPlan`] / [`SimError::InvalidChurnPlan`] if
    /// a plan fails [`FaultPlan::validate`], [`ChurnPlan::validate`] or
    /// [`ChurnPlan::validate_against`].
    ///
    /// # Panics
    /// Panics if an oversize message is sent under
    /// [`ViolationPolicy::Panic`] or if protocol code panics (a sharded
    /// worker's panic is resumed on the calling thread).
    pub fn execute<P, F>(
        &mut self,
        make: F,
        spec: &RunSpec<'_>,
    ) -> Result<RunOutcome<P::Output>, SimError>
    where
        P: Protocol + Send,
        F: Fn(NodeId, &dyn Topology) -> P + Sync,
    {
        match self.config.effective_backend() {
            Backend::Sequential => self.run_impl(make, spec, false),
            Backend::Sharded => self.run_sharded(make, spec, self.config.threads.max(2)),
            Backend::Async => self.run_impl(make, spec, true),
        }
    }

    /// The sequential engine, and with `async_mode` the asynchronous
    /// backend's payload pipeline under its virtual clock.
    pub(crate) fn run_impl<P, F>(
        &mut self,
        mut make: F,
        spec: &RunSpec<'_>,
        async_mode: bool,
    ) -> Result<RunOutcome<P::Output>, SimError>
    where
        P: Protocol,
        F: FnMut(NodeId, &dyn Topology) -> P,
    {
        let plan = RunPlan::build(self.graph, &self.ports, spec.faults, spec.churn)?;
        let n = self.graph.node_count();
        let run_id = self.next_run_id();
        // The asynchronous backend runs the *same* payload pipeline with
        // a virtual-time layer on top: the α-synchronizer contract makes
        // message contents independent of timing, so the layer only has
        // to track per-node completion times, count the synchronizer's
        // empty-round markers, and — under a patience budget — decide
        // which frames arrive too late to be delivered.
        let mut timing: Option<AsyncTiming> = if async_mode {
            self.async_info = None;
            Some(AsyncTiming::new(
                self.graph,
                &self.ports,
                self.config.delay,
                self.config.patience,
                self.config.seed,
                run_id,
            ))
        } else {
            None
        };
        let view = PortView { graph: self.graph, ports: &self.ports };
        let wire = Wire::new(&view, self.config, &plan, run_id, &self.ports);
        let mut edge_present = plan.edge_present0.clone();

        let mut protos: Vec<P> = (0..n).map(|v| make(v, &view)).collect();
        // The working set is the network's: taken out for the run and
        // put back after it, whether the run succeeds or fails.
        let mut rngs = std::mem::take(&mut self.rngs);
        rngs.clear();
        rngs.extend((0..n).map(|v| rng::node_rng(self.config.seed, run_id, v)));
        let mut mail = self
            .mail
            .get_mut()
            .take()
            .and_then(|m| m.downcast::<Mail<P::Msg>>().ok())
            .unwrap_or_else(|| Box::new(Mail::new()));
        mail.reset(&self.ports, plan.any_dup_or_reorder);
        let mut halted = BitSet::new(n);
        let mut agenda = std::mem::take(&mut self.agenda);
        agenda.reset(n);
        for (r, v) in plan.node_event_rounds() {
            agenda.schedule(r, v);
        }
        // The asynchronous backend's synchronizer needs every live
        // node's step, so only the plain sequential engine lets nodes
        // sleep.
        let honour_sleep = timing.is_none();
        let mut sweep = Sweep::new(&wire, spec.trace);
        let mut head = LoopHead::new(self, &plan, run_id);

        let mut round = 0usize;
        let failure = 'run: loop {
            // Only the awake nodes are visited, in id order. Every other
            // node is halted with no mail, or asleep with an empty inbox,
            // and its visit would do nothing.
            while let Some(v) = agenda.next_awake(&halted) {
                // The word-packed mask cannot hand out `&mut bool`, so the
                // node's halt flag is copied out for the step and written
                // back before the next node is visited.
                let mut halt = halted[v];
                let node =
                    NodeSlot { id: v, proto: &mut protos[v], rng: &mut rngs[v], halted: &mut halt };
                let mut post = Post {
                    wire: &wire,
                    mail: &mut mail,
                    agenda: &mut agenda,
                    halted: &halted,
                    edge_present: &edge_present,
                    timing: timing.as_mut(),
                };
                let wake = sweep.step(round, node, &mut make, &mut post);
                halted.set(v, halt);
                if let Some(wake) = wake {
                    agenda.sleep(v, round, if honour_sleep && !halt { wake } else { 0 });
                }
                if let Some(err) = sweep.fault.take() {
                    break 'run Some(err);
                }
            }
            let end = sweep.report(halted.count_ones(), mail.in_flight() > 0);
            let edge_flips = match head.end_round(round, &end, &mut sweep.tally) {
                ControlFlow::Break(failure) => break failure,
                ControlFlow::Continue(flips) => flips,
            };
            round += 1;
            // Advance virtual time before this round's edge events: the
            // frames being timed were sent under the previous topology.
            if let Some(tm) = timing.as_mut() {
                tm.advance(round, &edge_present, &halted);
            }
            for (e, up) in edge_flips {
                edge_present.set(e, up);
            }
            mail.swap();
            agenda.begin(round);
        };
        self.agenda = agenda;
        self.rngs = rngs;
        *self.mail.get_mut() = Some(mail);
        if let Some(err) = failure {
            return Err(err);
        }

        let Tally { mut stats, trace, .. } = sweep.finish();
        if let Some(tm) = timing.take() {
            let info = tm.finish();
            stats.markers = info.markers;
            self.async_info = Some(info);
        }
        self.totals.record(&stats);
        let sessions = sessions_of(n, protos.iter());
        Ok(RunOutcome {
            outputs: protos.into_iter().map(Protocol::into_output).collect(),
            stats,
            sessions,
            trace,
        })
    }

    /// Charged cost of a round whose widest message had `max_bits` bits.
    pub(crate) fn charge(&self, max_bits: usize) -> u64 {
        match (self.config.cost, self.config.model) {
            (CostModel::Pipelined, Model::Congest { bits }) if max_bits > 0 => {
                max_bits.div_ceil(bits).max(1) as u64
            }
            _ => 1,
        }
    }
}

/// How many rounds ahead the [`Agenda`]'s calendar files a due node in
/// its wheel; a later round waits in the overflow heap.
const WHEEL: usize = 64;

/// Which nodes the sequential engine visits in a round.
///
/// A node is *awake* in round `r` when it is due — it has slot mail or
/// a late copy arriving in `r`, its [`Context::sleep_until`] round is
/// `r`, or a crash, recovery, join or leave is scheduled for `r` — or
/// when it is neither halted nor asleep. Only awake nodes are visited;
/// a halted node without mail is never touched. All sets are
/// word-packed (one bit per node) and, with the calendar, kept in the
/// [`Network`] across runs.
///
/// The calendar is a wheel of [`WHEEL`] node sets: a node due in round
/// `r` fewer than [`WHEEL`] rounds ahead is filed in set `r % WHEEL`,
/// which becomes due when `r` begins, and a later one waits in a heap.
/// A node filed twice is visited once. A sleep hint that a later step
/// replaced may still wake its node, which the sleep contract makes
/// harmless.
#[derive(Default)]
struct Agenda {
    /// Nodes whose last step asked to sleep past the next round.
    asleep: Vec<u64>,
    /// Nodes due in the current round.
    due: Vec<u64>,
    /// Nodes with slot mail for the next round.
    due_next: Vec<u64>,
    /// The wheel's node sets, each empty until first used.
    wheel: Vec<Vec<u64>>,
    /// Bit `i`: `wheel[i]` has a node filed.
    filed: u64,
    /// Calendar entries at least [`WHEEL`] rounds ahead, as
    /// `(round, node)`.
    later: BinaryHeap<Reverse<(usize, NodeId)>>,
    /// The round being executed.
    now: usize,
    /// The next word of nodes the round's sweep reads.
    word: usize,
    /// The awake nodes of the word read last, not yet visited.
    sweep: u64,
    /// The bits of the last word that name nodes.
    tail: u64,
}

impl Agenda {
    /// Readies the agenda for a run over `n` nodes, all awake.
    fn reset(&mut self, n: usize) {
        let words = n.div_ceil(64);
        for set in [&mut self.asleep, &mut self.due, &mut self.due_next] {
            set.clear();
            set.resize(words, 0);
        }
        self.wheel.resize_with(WHEEL, Vec::new);
        for (i, set) in self.wheel.iter_mut().enumerate() {
            if set.len() != words {
                set.clear();
            } else if self.filed & (1 << i) != 0 {
                set.fill(0);
            }
        }
        self.filed = 0;
        self.later.clear();
        self.now = 0;
        (self.word, self.sweep) = (0, 0);
        self.tail = match n % 64 {
            0 => u64::MAX,
            r => (1 << r) - 1,
        };
    }

    /// Files `v` due in `round`; a round already begun is ignored.
    fn schedule(&mut self, round: usize, v: NodeId) {
        if round <= self.now {
            return;
        }
        if round - self.now < WHEEL {
            let i = round % WHEEL;
            let set = &mut self.wheel[i];
            if set.is_empty() {
                set.resize(self.due.len(), 0);
            }
            set[v / 64] |= 1 << (v % 64);
            self.filed |= 1 << i;
        } else {
            self.later.push(Reverse((round, v)));
        }
    }

    /// Marks `v` due next round: slot mail was posted for it.
    #[inline]
    fn post(&mut self, v: NodeId) {
        self.due_next[v / 64] |= 1 << (v % 64);
    }

    /// Records the hint of `v`'s step in `round`: asleep until `wake`
    /// (and filed due then) if that is past the next round, awake
    /// otherwise.
    #[inline]
    fn sleep(&mut self, v: NodeId, round: usize, wake: usize) {
        let bit = 1 << (v % 64);
        if wake > round + 1 {
            self.asleep[v / 64] |= bit;
            self.schedule(wake, v);
        } else {
            self.asleep[v / 64] &= !bit;
        }
    }

    /// Begins `round`: the nodes with slot mail and the calendar's
    /// nodes for `round` become due.
    fn begin(&mut self, round: usize) {
        std::mem::swap(&mut self.due, &mut self.due_next);
        self.now = round;
        (self.word, self.sweep) = (0, 0);
        let i = round % WHEEL;
        if self.filed & (1 << i) != 0 {
            self.filed &= !(1 << i);
            for (d, f) in self.due.iter_mut().zip(&mut self.wheel[i]) {
                *d |= std::mem::take(f);
            }
        }
        while let Some(&Reverse((r, v))) = self.later.peek() {
            if r > round {
                break;
            }
            self.later.pop();
            self.due[v / 64] |= 1 << (v % 64);
        }
    }

    /// The next awake node of the current round in id order, or `None`
    /// once all have been visited. A word of nodes is read when the
    /// sweep reaches it, and its nodes stop being due.
    #[inline]
    fn next_awake(&mut self, halted: &BitSet) -> Option<NodeId> {
        while self.sweep == 0 {
            let w = self.word;
            if w == self.due.len() {
                return None;
            }
            self.sweep = (!halted.words()[w] & !self.asleep[w]) | std::mem::take(&mut self.due[w]);
            if w + 1 == self.due.len() {
                self.sweep &= self.tail;
            }
            self.word += 1;
        }
        let v = 64 * (self.word - 1) + self.sweep.trailing_zeros() as usize;
        self.sweep &= self.sweep - 1;
        Some(v)
    }
}

/// The sequential engine's mailboxes, laid out like [`PortTable`]: one
/// slot per directed edge for the round being executed (`cur`) and one
/// for the next (`next`), swapped between rounds, plus per-receiver lists
/// of duplicated and reordered copies due in a later round.
///
/// The [`Agenda`] visits every node with mail, and a visited node takes
/// its mail ([`Mail::take`]) whether it steps, stays halted or reboots,
/// so `cur` is empty again by the time it becomes `next`. The [`Network`] keeps one `Mail` across
/// runs of the same message type; [`Mail::reset`] empties what a run
/// left behind.
struct Mail<M> {
    cur: Vec<Option<M>>,
    next: Vec<Option<M>>,
    /// Occupied `cur` slots per node.
    count: Vec<u32>,
    /// Occupied `next` slots per node.
    count_next: Vec<u32>,
    /// Occupied `next` slots in all.
    posted: usize,
    /// Per receiver, `(due round, port, send round, payload)` of every
    /// copy still in flight, in send order. The send round lets the
    /// asynchronous backend drop every copy of a frame that arrived past
    /// its patience deadline. No lists unless the plan can duplicate or
    /// reorder.
    late: Vec<Vec<(usize, Port, usize, M)>>,
    /// Copies in `late`, over all receivers.
    late_count: usize,
}

impl<M> Mail<M> {
    fn new() -> Mail<M> {
        Mail {
            cur: Vec::new(),
            next: Vec::new(),
            count: Vec::new(),
            count_next: Vec::new(),
            posted: 0,
            late: Vec::new(),
            late_count: 0,
        }
    }

    /// Readies the mailboxes for a run over `ports`: the first run sizes
    /// them, and every run empties the slots of the nodes whose counts
    /// show mail left over (an earlier run that ended with every node
    /// halted, or failed mid-round).
    fn reset(&mut self, ports: &PortTable, dup_or_reorder: bool) {
        let n = ports.base.len() - 1;
        self.cur.resize_with(ports.len(), || None);
        self.next.resize_with(ports.len(), || None);
        self.count.resize(n, 0);
        self.count_next.resize(n, 0);
        for v in 0..n {
            if std::mem::take(&mut self.count[v]) > 0 {
                self.cur[ports.range(v)].fill_with(|| None);
            }
            if std::mem::take(&mut self.count_next[v]) > 0 {
                self.next[ports.range(v)].fill_with(|| None);
            }
        }
        self.posted = 0;
        if dup_or_reorder {
            self.late.resize_with(n, Vec::new);
            if self.late_count > 0 {
                self.late.iter_mut().for_each(Vec::clear);
            }
        } else {
            self.late.clear();
        }
        self.late_count = 0;
    }

    /// Messages that will still arrive: posted for the next round or
    /// trailing in a late list.
    fn in_flight(&self) -> usize {
        self.posted + self.late_count
    }

    /// Puts `msg` into the next round's slot of port `q` of `u`.
    fn post(&mut self, ports: &PortTable, u: NodeId, q: Port, msg: M) {
        let i = ports.base[u] + q;
        debug_assert!(self.next[i].is_none(), "two messages for port {q} of node {u}");
        self.next[i] = Some(msg);
        self.count_next[u] += 1;
        self.posted += 1;
    }

    /// Queues a duplicated or reordered copy for port `q` of `u`, due in
    /// round `due`; `sent` is its send round.
    fn post_late(&mut self, u: NodeId, q: Port, due: usize, sent: usize, msg: M) {
        self.late[u].push((due, q, sent, msg));
        self.late_count += 1;
    }

    /// Takes `v`'s mail for `round`: its slot messages in port order, then
    /// the copies due now. With `inbox`, they are appended to it and
    /// stably sorted by port, so each port's on-time message comes first
    /// and its trailing copies follow in send order; without, they are
    /// discarded. Under a patience budget, a frame that resolved too late
    /// at `v` is dropped and counted either way.
    fn take(
        &mut self,
        ports: &PortTable,
        v: NodeId,
        round: usize,
        mut inbox: Option<&mut Vec<(Port, M)>>,
        mut timing: Option<&mut AsyncTiming<'_>>,
    ) {
        let mut dropped = |sender: NodeId, sent: usize| match timing.as_deref_mut() {
            Some(tm) if tm.is_dropped(sender, v, sent) => {
                tm.count_timing_drops(1);
                true
            }
            _ => false,
        };
        let base = ports.base[v];
        let mut left = std::mem::take(&mut self.count[v]);
        let mut i = base;
        while left > 0 {
            debug_assert!(i < ports.base[v + 1], "mail count of node {v} out of step");
            if let Some(msg) = self.cur[i].take() {
                left -= 1;
                if !dropped(ports.peer[i].0, round - 1) {
                    if let Some(inbox) = inbox.as_deref_mut() {
                        inbox.push((i - base, msg));
                    }
                }
            }
            i += 1;
        }
        let Some(late) = self.late.get_mut(v) else { return };
        let mut trailing = false;
        let mut j = 0;
        while j < late.len() {
            if late[j].0 != round {
                j += 1;
                continue;
            }
            let (_, q, sent, msg) = late.remove(j);
            self.late_count -= 1;
            if !dropped(ports.peer[base + q].0, sent) {
                if let Some(inbox) = inbox.as_deref_mut() {
                    inbox.push((q, msg));
                    trailing = true;
                }
            }
        }
        if trailing {
            if let Some(inbox) = inbox {
                inbox.sort_by_key(|&(q, _)| q);
            }
        }
    }

    /// Ends a round: the next round's slots become current.
    fn swap(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.next);
        std::mem::swap(&mut self.count, &mut self.count_next);
        self.posted = 0;
    }
}

/// The sequential engine's [`Mailroom`] for one step: its [`Mail`], the
/// [`Agenda`] that marks a receiver due in the round its mail arrives,
/// and the asynchronous backend's timing layer, which sees every frame
/// put on the wire.
struct Post<'r, 'w, M> {
    wire: &'r Wire<'w>,
    mail: &'r mut Mail<M>,
    agenda: &'r mut Agenda,
    halted: &'r BitSet,
    edge_present: &'r BitSet,
    timing: Option<&'r mut AsyncTiming<'w>>,
}

impl<M: BitSize + Clone> Mailroom<M> for Post<'_, '_, M> {
    fn take(&mut self, v: NodeId, round: usize, inbox: Option<&mut Vec<(Port, M)>>) {
        self.mail.take(self.wire.ports, v, round, inbox, self.timing.as_deref_mut());
    }

    /// An arriving message goes to its slot for the next round (unless
    /// its receiver is halted at this moment), a duplicated or reordered
    /// one to the receiver's late list.
    fn flush(
        &mut self,
        v: NodeId,
        round: usize,
        outbox: &mut Vec<(Port, M)>,
        sent: &mut [bool],
        tally: &mut Tally,
    ) {
        let (wire, edge_present) = (self.wire, self.edge_present);
        let link_up = |u: NodeId, e: EdgeId| edge_present[e] && wire.plan.present_seen(u, round, v);
        if let Some(tm) = self.timing.as_deref_mut() {
            tm.begin_step(v);
        }
        let keys = wire.sender(round, v);
        for (port, msg) in outbox.drain(..) {
            sent[port] = false;
            let route = wire.send(round, v, port, msg, &keys, tally, link_up);
            if matches!(route, Route::NoLink) {
                continue;
            }
            // The synchronizer frame on this port carries a payload, so no
            // marker is owed — whatever the channel does to the payload
            // (loss, corruption, partition) happens inside a sent frame.
            if let Some(tm) = self.timing.as_deref_mut() {
                tm.note_frame(port);
            }
            if let Route::Arrive { u, q, due, msg, dup } = route {
                if let Some(copy) = dup {
                    self.mail.post_late(u, q, round + 2, round, copy);
                    self.agenda.schedule(round + 2, u);
                }
                if due > round + 1 {
                    self.mail.post_late(u, q, due, round, msg);
                    self.agenda.schedule(due, u);
                } else if !self.halted[u] {
                    self.mail.post(wire.ports, u, q, msg);
                    self.agenda.post(u);
                }
            }
        }
        if let Some(tm) = self.timing.as_deref_mut() {
            tm.end_step(v, link_up);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_graph::generators;

    #[test]
    fn any_one_fault_makes_a_plan_non_empty() {
        // Exhaustive destructuring: a new `FaultPlan` field breaks this
        // test at compile time until it has a case below (and
        // `is_empty` reads it). A plan that `is_empty` misreads as empty
        // would let a faulty phase be charged as a pure one.
        let FaultPlan {
            crashes: _,
            recoveries: _,
            loss: _,
            dup: _,
            reorder: _,
            corrupt: _,
            equivocators: _,
            liars: _,
            links: _,
            partitions: _,
            squalls: _,
        } = FaultPlan::default();
        assert!(FaultPlan::default().is_empty());
        let link = LinkFault { a: 0, b: 1, loss: 0.0, dup: 0.0, reorder: 0.0 };
        let window = Partition { from_round: 1, until_round: 2, side: vec![0] };
        let squall = Squall { from_round: 1, until_round: 2, loss: 0.0, corrupt: 0.0 };
        let one_each = [
            ("crash", FaultPlan::crashes(vec![(0, 1)])),
            ("recovery", FaultPlan::default().with_recoveries(vec![(0, 2)])),
            ("loss", FaultPlan::lossy(0.1)),
            ("dup", FaultPlan::default().with_dup(0.1)),
            ("reorder", FaultPlan::default().with_reorder(0.1)),
            ("corrupt", FaultPlan::default().with_corrupt(0.1)),
            ("equivocator", FaultPlan::default().with_equivocators(vec![0])),
            ("liar", FaultPlan::default().with_liars(vec![0])),
            ("link", FaultPlan::default().with_link(link)),
            ("partition", FaultPlan::default().with_partition(window)),
            ("squall", FaultPlan::default().with_squall(squall)),
        ];
        for (field, plan) in one_each {
            assert!(!plan.is_empty(), "{field}");
        }
    }

    /// Token passing around a directed cycle for a fixed number of laps.
    struct RingToken {
        laps: usize,
        holder: bool,
        received: usize,
    }

    impl Protocol for RingToken {
        type Msg = u32;
        type Output = usize;

        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if self.holder {
                // Port 1 of node v on a cycle built by `generators::cycle`
                // leads to v+1 for interior construction order; just use
                // port 0 consistently — direction does not matter for the
                // test, we only count hops.
                ctx.send(0, 1);
            }
        }

        fn on_round(&mut self, ctx: &mut Context<'_, u32>, inbox: &[(Port, u32)]) {
            for &(port, hops) in inbox {
                self.received += 1;
                if (hops as usize) < self.laps {
                    // Forward out the other port.
                    let out = if port == 0 { 1 } else { 0 };
                    ctx.send(out, hops + 1);
                }
            }
            if ctx.round() > self.laps {
                ctx.halt();
            }
        }

        fn into_output(self) -> usize {
            self.received
        }
    }

    #[test]
    fn token_travels_and_stats_add_up() {
        let g = generators::cycle(6);
        let mut net = Network::new(&g, SimConfig::local().seed(3));
        let out = net.run(|v, _| RingToken { laps: 12, holder: v == 0, received: 0 }).unwrap();
        // 12 hops = 12 messages forwarded (1 initial + 11 forwards).
        assert_eq!(out.stats.messages, 12);
        assert_eq!(out.stats.total_bits, 12 * 32);
        assert_eq!(out.stats.max_message_bits, 32);
        assert_eq!(out.stats.violations, 0);
        let total_received: usize = out.outputs.iter().sum();
        assert_eq!(total_received, 12);
        assert_eq!(net.totals().runs, 1);
    }

    #[test]
    fn congest_violations_are_recorded() {
        struct Blaster;
        impl Protocol for Blaster {
            type Msg = Vec<u64>;
            type Output = ();
            fn on_start(&mut self, ctx: &mut Context<'_, Vec<u64>>) {
                ctx.broadcast(vec![0u64; 10]); // 640 bits
            }
            fn on_round(&mut self, ctx: &mut Context<'_, Vec<u64>>, _: &[(Port, Vec<u64>)]) {
                ctx.halt();
            }
            fn into_output(self) {}
        }
        let g = generators::complete(4);
        let mut net = Network::new(&g, SimConfig::congest(64));
        let out = net.run(|_, _| Blaster).unwrap();
        assert_eq!(out.stats.violations, 12); // 4 nodes × 3 neighbours
        assert_eq!(out.stats.max_message_bits, 640);
    }

    #[test]
    #[should_panic(expected = "CONGEST violation")]
    fn congest_violations_can_panic() {
        struct Blaster;
        impl Protocol for Blaster {
            type Msg = Vec<u64>;
            type Output = ();
            fn on_start(&mut self, ctx: &mut Context<'_, Vec<u64>>) {
                ctx.broadcast(vec![0u64; 10]);
            }
            fn on_round(&mut self, ctx: &mut Context<'_, Vec<u64>>, _: &[(Port, Vec<u64>)]) {
                ctx.halt();
            }
            fn into_output(self) {}
        }
        let g = generators::complete(3);
        let mut net = Network::new(&g, SimConfig::congest(64).violation(ViolationPolicy::Panic));
        let _ = net.run(|_, _| Blaster);
    }

    #[test]
    fn pipelined_cost_charges_wide_rounds() {
        struct WideOnce;
        impl Protocol for WideOnce {
            type Msg = Vec<u64>;
            type Output = ();
            fn on_start(&mut self, ctx: &mut Context<'_, Vec<u64>>) {
                if ctx.id() == 0 {
                    ctx.send(0, vec![0u64; 4]); // 256 bits
                }
            }
            fn on_round(&mut self, ctx: &mut Context<'_, Vec<u64>>, _: &[(Port, Vec<u64>)]) {
                ctx.halt();
            }
            fn into_output(self) {}
        }
        let g = generators::path(3);
        let mut net = Network::new(&g, SimConfig::congest(64).cost(CostModel::Pipelined));
        let out = net.run(|_, _| WideOnce).unwrap();
        // Round 0 carried a 256-bit message over a 64-bit budget: 4
        // charged; round 1 is quiet: 1 charged.
        assert_eq!(out.stats.rounds, 2);
        assert_eq!(out.stats.charged_rounds, 5);
    }

    #[test]
    fn round_limit_guards_nontermination() {
        struct Forever;
        impl Protocol for Forever {
            type Msg = ();
            type Output = ();
            fn on_round(&mut self, _: &mut Context<'_, ()>, _: &[(Port, ())]) {}
            fn into_output(self) {}
        }
        let g = generators::path(2);
        let mut net = Network::new(&g, SimConfig::local().max_rounds(10));
        let err = net.run(|_, _| Forever).unwrap_err();
        assert!(matches!(err, SimError::RoundLimitExceeded { limit: 10, running: 2 }));
    }

    #[test]
    fn duplicate_send_is_an_error() {
        struct Doubler;
        impl Protocol for Doubler {
            type Msg = u8;
            type Output = ();
            fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
                ctx.send(0, 1);
                ctx.send(0, 2);
            }
            fn on_round(&mut self, ctx: &mut Context<'_, u8>, _: &[(Port, u8)]) {
                ctx.halt();
            }
            fn into_output(self) {}
        }
        let g = generators::path(2);
        let mut net = Network::new(&g, SimConfig::local());
        let err = net.run(|_, _| Doubler).unwrap_err();
        assert!(matches!(err, SimError::DuplicateSend { node: 0, port: 0, round: 0 }));
    }

    #[test]
    fn determinism_across_identical_networks() {
        use rand::RngExt;
        struct Coins {
            flips: Vec<bool>,
        }
        impl Protocol for Coins {
            type Msg = ();
            type Output = Vec<bool>;
            fn on_round(&mut self, ctx: &mut Context<'_, ()>, _: &[(Port, ())]) {
                self.flips.push(ctx.rng().random_bool(0.5));
                if ctx.round() == 20 {
                    ctx.halt();
                }
            }
            fn into_output(self) -> Vec<bool> {
                self.flips
            }
        }
        let g = generators::gnp(10, 0.3, &mut rand::rngs::StdRng::seed_from_u64(1));
        let run = |seed| {
            let mut net = Network::new(&g, SimConfig::local().seed(seed));
            net.run(|_, _| Coins { flips: Vec::new() }).unwrap().outputs
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn a_charged_run_reads_like_an_executed_one() {
        // `ran` executes a deterministic run twice; `charged` executes
        // it once and charges its stats for the second. The totals
        // agree, and so do the coins of the run after.
        use rand::RngExt;
        struct Coin(u32);
        impl Protocol for Coin {
            type Msg = ();
            type Output = u32;
            fn on_round(&mut self, ctx: &mut Context<'_, ()>, _: &[(Port, ())]) {
                self.0 = ctx.rng().random_range(0..u32::MAX);
                ctx.halt();
            }
            fn into_output(self) -> u32 {
                self.0
            }
        }
        let g = generators::cycle(6);
        let token =
            |v: NodeId, _: &dyn Topology| RingToken { laps: 12, holder: v == 0, received: 0 };
        let mut ran = Network::new(&g, SimConfig::local().seed(3));
        let mut charged = Network::new(&g, SimConfig::local().seed(3));
        ran.run(token).unwrap();
        ran.run(token).unwrap();
        let once = charged.run(token).unwrap();
        charged.charge_run(&once.stats);
        assert_eq!(ran.totals(), charged.totals());
        assert_eq!(charged.totals().runs, 2);
        let coins = |net: &mut Network<'_>| net.run(|_, _| Coin(0)).unwrap().outputs;
        assert_eq!(coins(&mut ran), coins(&mut charged));
    }

    #[test]
    fn traced_run_matches_stats() {
        let g = generators::cycle(6);
        let mut net = Network::new(&g, SimConfig::local().seed(3));
        let mut out = net
            .execute(
                |v, _| RingToken { laps: 12, holder: v == 0, received: 0 },
                &RunSpec { trace: true, ..RunSpec::default() },
            )
            .unwrap();
        let trace = out.trace.take().unwrap();
        let sends = trace.events().iter().filter(|e| matches!(e, TraceEvent::Send { .. })).count();
        assert_eq!(sends as u64, out.stats.messages);
        // Every node halts eventually, and the trace knows when.
        for v in g.nodes() {
            assert!(trace.halt_round(v).is_some(), "node {v} never halted in trace");
        }
        assert!(trace.summary().contains("round"));
    }

    /// Every node broadcasts its id each round for `rounds` rounds and
    /// counts what it hears — a traffic generator for fault tests.
    struct Chatter {
        rounds: usize,
        heard: usize,
    }

    impl Protocol for Chatter {
        type Msg = u64;
        type Output = usize;

        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.broadcast(ctx.id() as u64);
        }

        fn on_round(&mut self, ctx: &mut Context<'_, u64>, inbox: &[(Port, u64)]) {
            self.heard += inbox.len();
            if ctx.round() >= self.rounds {
                ctx.halt();
            } else {
                ctx.broadcast(ctx.id() as u64);
            }
        }

        fn into_output(self) -> usize {
            self.heard
        }
    }

    #[test]
    fn fault_plan_validation_rejects_bad_plans() {
        let g = generators::cycle(4);
        let reason = |p: &FaultPlan| match p.validate(&g) {
            Err(SimError::InvalidFaultPlan { reason }) => reason,
            other => panic!("expected InvalidFaultPlan, got {other:?}"),
        };
        assert!(reason(&FaultPlan::lossy(1.5)).contains("outside [0, 1]"));
        assert!(reason(&FaultPlan::lossy(-0.1)).contains("outside [0, 1]"));
        assert!(reason(&FaultPlan::lossy(f64::NAN)).contains("outside [0, 1]"));
        assert!(reason(&FaultPlan::default().with_dup(2.0)).contains("outside [0, 1]"));
        assert!(reason(&FaultPlan::default().with_corrupt(1.01)).contains("outside [0, 1]"));
        assert!(
            reason(&FaultPlan::default().with_corrupt(f64::INFINITY)).contains("outside [0, 1]")
        );
        assert!(reason(&FaultPlan::default().with_equivocators(vec![7])).contains("names node 7"));
        assert!(
            reason(&FaultPlan::default().with_equivocators(vec![1, 1])).contains("appears twice")
        );
        assert!(reason(&FaultPlan::default().with_liars(vec![4])).contains("names node 4"));
        assert!(reason(&FaultPlan::default().with_liars(vec![2, 0, 2])).contains("appears twice"));
        assert!(reason(&FaultPlan::crashes(vec![(1, 3), (1, 5)])).contains("crashed twice"));
        assert!(reason(&FaultPlan::crashes(vec![(9, 3)])).contains("names node 9"));
        assert!(reason(&FaultPlan::default().with_recoveries(vec![(2, 4)]))
            .contains("without ever crashing"));
        assert!(reason(&FaultPlan::crashes(vec![(2, 4)]).with_recoveries(vec![(2, 4)]))
            .contains("not after its crash"));
        assert!(reason(&FaultPlan::default().with_link(LinkFault {
            a: 0,
            b: 2, // cycle(4): 0-2 is not an edge
            loss: 0.5,
            dup: 0.0,
            reorder: 0.0,
        }))
        .contains("not an edge"));
        assert!(reason(&FaultPlan::default().with_partition(Partition {
            from_round: 5,
            until_round: 2,
            side: vec![0],
        }))
        .contains("inverted"));
        assert!(reason(&FaultPlan::default().with_squall(Squall {
            from_round: 0,
            until_round: 9,
            loss: 1.5,
            corrupt: 0.0,
        }))
        .contains("outside [0, 1]"));
        assert!(reason(&FaultPlan::default().with_squall(Squall {
            from_round: 0,
            until_round: 9,
            loss: 0.0,
            corrupt: f64::NAN,
        }))
        .contains("outside [0, 1]"));
        assert!(reason(&FaultPlan::default().with_squall(Squall {
            from_round: 7,
            until_round: 3,
            loss: 0.1,
            corrupt: 0.0,
        }))
        .contains("inverted"));
        // A valid compound plan passes.
        FaultPlan::crashes(vec![(0, 2)])
            .with_recoveries(vec![(0, 5)])
            .with_dup(0.1)
            .with_reorder(0.1)
            .with_corrupt(0.05)
            .with_equivocators(vec![1])
            .with_liars(vec![2, 3])
            .with_partition(Partition { from_round: 1, until_round: 3, side: vec![0, 1] })
            .with_squall(Squall { from_round: 2, until_round: 6, loss: 0.3, corrupt: 0.1 })
            .validate(&g)
            .unwrap();
        // And execute surfaces validation errors.
        let mut net = Network::new(&g, SimConfig::local());
        let err = net
            .execute(
                |_, _| Chatter { rounds: 3, heard: 0 },
                &RunSpec { faults: &FaultPlan::lossy(7.0), ..RunSpec::default() },
            )
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidFaultPlan { .. }));
    }

    #[test]
    fn squall_injects_only_inside_its_window() {
        let g = generators::cycle(4);
        // Certain loss in rounds 2..=3, nothing outside.
        let plan = FaultPlan::default().with_squall(Squall {
            from_round: 2,
            until_round: 3,
            loss: 1.0,
            corrupt: 0.0,
        });
        let mut net = Network::new(&g, SimConfig::local().seed(9));
        let trace = net
            .execute(
                |_, _| Chatter { rounds: 6, heard: 0 },
                &RunSpec { faults: &plan, trace: true, ..RunSpec::default() },
            )
            .unwrap()
            .trace
            .unwrap();
        let loss_rounds: Vec<usize> = trace
            .faults()
            .filter(|e| matches!(e, TraceEvent::Fault { kind: FaultKind::Loss, .. }))
            .map(TraceEvent::round)
            .collect();
        assert!(!loss_rounds.is_empty(), "squall injected nothing");
        assert!(
            loss_rounds.iter().all(|&r| (2..=3).contains(&r)),
            "loss outside the squall window: {loss_rounds:?}"
        );
    }

    #[test]
    fn dormant_squall_is_bit_identical_to_no_plan() {
        // A squall whose window the run never reaches must not change a
        // single draw: the overlaid probabilities stay zero outside it.
        let g = generators::cycle(4);
        let mut clean = Network::new(&g, SimConfig::local().seed(9));
        let base = clean.run(|_, _| Chatter { rounds: 5, heard: 0 }).unwrap();
        let plan = FaultPlan::default().with_squall(Squall {
            from_round: 10_000,
            until_round: 10_001,
            loss: 1.0,
            corrupt: 1.0,
        });
        let mut net = Network::new(&g, SimConfig::local().seed(9));
        let out = net
            .execute(
                |_, _| Chatter { rounds: 5, heard: 0 },
                &RunSpec { faults: &plan, ..RunSpec::default() },
            )
            .unwrap();
        assert_eq!(out.outputs, base.outputs);
        assert_eq!(out.stats, base.stats);
    }

    #[test]
    fn squall_overlay_takes_max_of_base_and_window() {
        // Base corruption + a corruption squall: inside the window the
        // squall dominates; the base still applies outside.
        let g = generators::path(2);
        let plan = FaultPlan::default().with_corrupt(0.0).with_squall(Squall {
            from_round: 0,
            until_round: 2,
            loss: 0.0,
            corrupt: 1.0,
        });
        let mut net = Network::new(&g, SimConfig::local().seed(5));
        let mut out = net
            .execute(
                |_, _| Chatter { rounds: 5, heard: 0 },
                &RunSpec { faults: &plan, trace: true, ..RunSpec::default() },
            )
            .unwrap();
        let trace = out.trace.take().unwrap();
        let corrupt_rounds: Vec<usize> = trace
            .faults()
            .filter(|e| matches!(e, TraceEvent::Fault { kind: FaultKind::Corrupt { .. }, .. }))
            .map(TraceEvent::round)
            .collect();
        assert!(out.stats.corruptions > 0, "storm corrupted nothing");
        assert!(corrupt_rounds.iter().all(|&r| r <= 2), "corruption past the window");
    }

    #[test]
    fn attached_sink_observes_without_perturbing() {
        use crate::telemetry::{RecordingSink, SinkHandle};
        use std::sync::Arc;
        let g = generators::cycle(4);
        let plan = FaultPlan::lossy(0.2);
        let mut bare = Network::new(&g, SimConfig::local().seed(3).max_rounds(5_000));
        let base = bare
            .execute(
                |_, _| Chatter { rounds: 5, heard: 0 },
                &RunSpec { faults: &plan, ..RunSpec::default() },
            )
            .unwrap();
        let sink = Arc::new(RecordingSink::new());
        let mut net = Network::new(&g, SimConfig::local().seed(3).max_rounds(5_000));
        net.set_stats_sink(Some(SinkHandle::from(Arc::clone(&sink))));
        let out = net
            .execute(
                |_, _| Chatter { rounds: 5, heard: 0 },
                &RunSpec { faults: &plan, ..RunSpec::default() },
            )
            .unwrap();
        // Observation changed nothing…
        assert_eq!(out.outputs, base.outputs);
        assert_eq!(out.stats, base.stats);
        // …and recorded one cumulative sample per executed round, ending
        // exactly on the run's final counters.
        let samples = sink.samples();
        assert_eq!(samples.len() as u64, out.stats.rounds);
        let final_sample = samples.last().unwrap();
        assert_eq!(final_sample.messages, out.stats.messages);
        assert_eq!(final_sample.round + 1, out.stats.rounds);
        assert!(samples.windows(2).all(|w| w[0].round + 1 == w[1].round), "round gap");
        assert!(
            samples.windows(2).all(|w| w[0].messages <= w[1].messages),
            "cumulative counters must be monotone"
        );
    }

    #[test]
    fn crash_recover_reboots_with_wiped_state() {
        // Node 0 crashes at round 2 and reboots at round 5: after the
        // reboot it chats again from scratch, so its neighbours hear
        // from it both before the crash and after the recovery.
        let g = generators::cycle(4);
        let plan = FaultPlan::crashes(vec![(0, 2)]).with_recoveries(vec![(0, 5)]);
        let mut net = Network::new(&g, SimConfig::local().seed(11));
        let mut out = net
            .execute(
                |_, _| Chatter { rounds: 8, heard: 0 },
                &RunSpec { faults: &plan, trace: true, ..RunSpec::default() },
            )
            .unwrap();
        let trace = out.trace.take().unwrap();
        let crash = trace
            .faults()
            .find(|e| matches!(e, TraceEvent::Fault { kind: FaultKind::Crash, .. }))
            .expect("crash traced");
        let recover = trace
            .faults()
            .find(|e| matches!(e, TraceEvent::Fault { kind: FaultKind::Recover, .. }))
            .expect("recovery traced");
        assert_eq!(crash.round(), 2);
        assert_eq!(recover.round(), 5);
        // Node 0 sends in rounds 0..2 (pre-crash) and 5..=8 (post-boot).
        let send_rounds: Vec<usize> = trace.sends_of(0).map(TraceEvent::round).collect();
        assert!(send_rounds.iter().any(|&r| r < 2), "pre-crash sends missing");
        assert!(send_rounds.iter().any(|&r| r >= 5), "post-recovery sends missing");
        assert!(
            !send_rounds.iter().any(|&r| (2..5).contains(&r)),
            "node 0 sent while crashed: {send_rounds:?}"
        );
        // The rebooted node restarts its own round count from the boot,
        // so it halts later than the others but still halts.
        assert!(out.outputs.iter().all(|&h| h > 0));
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let g = generators::path(2);
        let plan = FaultPlan::default().with_dup(1.0);
        let mut net = Network::new(&g, SimConfig::local().seed(5));
        let mut out = net
            .execute(
                |_, _| Chatter { rounds: 4, heard: 0 },
                &RunSpec { faults: &plan, trace: true, ..RunSpec::default() },
            )
            .unwrap();
        let trace = out.trace.take().unwrap();
        let dups = trace
            .faults()
            .filter(|e| matches!(e, TraceEvent::Fault { kind: FaultKind::Duplicate, .. }))
            .count();
        assert!(dups > 0, "no duplications traced");
        // With certain duplication every received message is doubled
        // (minus copies still in flight at halt time), so nodes hear
        // strictly more than the fault-free count.
        let mut clean = Network::new(&g, SimConfig::local().seed(5));
        let base = clean.run(|_, _| Chatter { rounds: 4, heard: 0 }).unwrap();
        let heard: usize = out.outputs.iter().sum();
        let base_heard: usize = base.outputs.iter().sum();
        assert!(heard > base_heard, "duplicates not delivered ({heard} vs {base_heard})");
    }

    #[test]
    fn reordering_delays_delivery() {
        let g = generators::path(2);
        let plan = FaultPlan::default().with_reorder(1.0);
        let mut net = Network::new(&g, SimConfig::local().seed(6));
        let mut out = net
            .execute(
                |_, _| Chatter { rounds: 6, heard: 0 },
                &RunSpec { faults: &plan, trace: true, ..RunSpec::default() },
            )
            .unwrap();
        let trace = out.trace.take().unwrap();
        let delays: Vec<usize> = trace
            .faults()
            .filter_map(|e| match e {
                TraceEvent::Fault { kind: FaultKind::Reorder { delay }, .. } => Some(*delay),
                _ => None,
            })
            .collect();
        assert!(!delays.is_empty(), "no reorderings traced");
        assert!(delays.iter().all(|&d| (1..=3).contains(&d)));
        // Delayed messages still arrive (those landing before the halt).
        assert!(out.outputs.iter().sum::<usize>() > 0);
    }

    /// Every inbox one node was handed, with the round it arrived in.
    type Inboxes = Vec<(usize, Vec<(Port, u64)>)>;

    /// Sends its round number over every port each round until `rounds`
    /// and records every inbox it is handed.
    struct RoundStamp {
        rounds: usize,
        seen: Inboxes,
    }

    impl Protocol for RoundStamp {
        type Msg = u64;
        type Output = Inboxes;

        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.broadcast(0);
        }

        fn on_round(&mut self, ctx: &mut Context<'_, u64>, inbox: &[(Port, u64)]) {
            self.seen.push((ctx.round(), inbox.to_vec()));
            if ctx.round() >= self.rounds {
                ctx.halt();
            } else {
                ctx.broadcast(ctx.round() as u64);
            }
        }

        fn into_output(self) -> Inboxes {
            self.seen
        }
    }

    /// Broadcasts its round number every round up to and including
    /// `rounds`, so its last round leaves mail posted to every neighbour
    /// that halts after it; records every inbox it is handed.
    struct LastWord {
        rounds: usize,
        seen: Inboxes,
    }

    impl Protocol for LastWord {
        type Msg = u64;
        type Output = Inboxes;

        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.broadcast(0);
        }

        fn on_round(&mut self, ctx: &mut Context<'_, u64>, inbox: &[(Port, u64)]) {
            self.seen.push((ctx.round(), inbox.to_vec()));
            ctx.broadcast(ctx.round() as u64);
            if ctx.round() >= self.rounds {
                ctx.halt();
            }
        }

        fn into_output(self) -> Inboxes {
            self.seen
        }
    }

    /// Broadcasts every round; node 3 sends twice in round 2, which
    /// fails the run with mail in both slot buffers.
    struct DoubleSend;

    impl Protocol for DoubleSend {
        type Msg = u64;
        type Output = ();

        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.broadcast(0);
        }

        fn on_round(&mut self, ctx: &mut Context<'_, u64>, _: &[(Port, u64)]) {
            ctx.broadcast(1);
            if ctx.id() == 3 && ctx.round() == 2 {
                ctx.send(0, 2);
            }
        }

        fn into_output(self) {}
    }

    #[test]
    fn a_reused_network_runs_like_a_fresh_one() {
        let g = generators::complete(8);
        // Certain duplication leaves copies due after each run's end.
        for (backend, faults) in [
            (Backend::Sequential, FaultPlan::default()),
            (Backend::Sequential, FaultPlan::default().with_dup(1.0)),
            (Backend::Async, FaultPlan::default().with_dup(1.0)),
        ] {
            let config = SimConfig::local().seed(1).backend(backend);
            let spec = RunSpec { faults: &faults, ..RunSpec::default() };
            let last_word = |net: &mut Network<'_>, rounds| {
                net.execute(|_, _| LastWord { rounds, seen: Vec::new() }, &spec).unwrap().outputs
            };
            let fresh = |rounds| last_word(&mut Network::new(&g, config), rounds);
            let mut net = Network::new(&g, config);
            // Each run ends with mail still posted.
            assert_eq!(last_word(&mut net, 3), fresh(3), "{backend:?} {faults:?}");
            assert_eq!(last_word(&mut net, 5), fresh(5), "{backend:?} {faults:?}");
            // A run that fails mid-round leaves mail in both buffers.
            let err = net.execute(|_, _| DoubleSend, &spec).unwrap_err();
            assert_eq!(err, SimError::DuplicateSend { node: 3, port: 0, round: 2 });
            assert_eq!(last_word(&mut net, 4), fresh(4), "{backend:?} {faults:?}");
            // A run with another message type replaces the buffers.
            let ring = |_, _: &dyn Topology| RingToken { laps: 1, holder: false, received: 0 };
            assert_eq!(net.execute(ring, &spec).unwrap().stats.messages, 0);
            assert_eq!(last_word(&mut net, 2), fresh(2), "{backend:?} {faults:?}");
        }
    }

    /// The inboxes of every node of `g` under `plan`, round by round.
    fn stamped_inboxes(g: &dam_graph::Graph, plan: &FaultPlan, seed: u64) -> Vec<Inboxes> {
        let mut net = Network::new(g, SimConfig::local().seed(seed));
        let spec = RunSpec { faults: plan, ..RunSpec::default() };
        net.execute(|_, _| RoundStamp { rounds: 7, seen: Vec::new() }, &spec).unwrap().outputs
    }

    #[test]
    fn inbox_order_under_dup_and_reorder() {
        let p2 = generators::path(2);
        // Certain duplication: the on-time message of round r - 1 comes
        // first, then the copy of round r - 2's message trailing it.
        let dup = stamped_inboxes(&p2, &FaultPlan::default().with_dup(1.0), 5);
        for node in &dup {
            assert_eq!(node.len(), 7);
            for (round, inbox) in node {
                let want: Vec<(Port, u64)> = if *round == 1 {
                    vec![(0, 0)]
                } else {
                    vec![(0, *round as u64 - 1), (0, *round as u64 - 2)]
                };
                assert_eq!(inbox, &want, "dup inbox at round {round}");
            }
        }
        // Certain reordering: nothing arrives on time, and the delayed
        // copies that share a round arrive in send order.
        let reorder = stamped_inboxes(&p2, &FaultPlan::default().with_reorder(1.0), 6);
        let want: Vec<Inboxes> = vec![
            vec![
                (1, vec![]),
                (2, vec![(0, 0)]),
                (3, vec![]),
                (4, vec![(0, 1), (0, 2)]),
                (5, vec![]),
                (6, vec![]),
                (7, vec![(0, 3), (0, 5)]),
            ],
            vec![
                (1, vec![]),
                (2, vec![]),
                (3, vec![(0, 1)]),
                (4, vec![(0, 0)]),
                (5, vec![]),
                (6, vec![(0, 2), (0, 3)]),
                (7, vec![]),
            ],
        ];
        assert_eq!(reorder, want);
        // The middle node of a path has two ports: per port, the on-time
        // message first, then the trailing copies in send order (a
        // duplicate before a delayed original sent in the same round).
        let p3 = generators::path(3);
        let mixed = stamped_inboxes(&p3, &FaultPlan::default().with_dup(0.5).with_reorder(0.5), 8);
        let middle: Inboxes = vec![
            (1, vec![(0, 0), (1, 0)]),
            (2, vec![(0, 1), (0, 0), (1, 1)]),
            (3, vec![(1, 2)]),
            (4, vec![(0, 3), (1, 3)]),
            (5, vec![(0, 3), (1, 4), (1, 3)]),
            (6, vec![(0, 2), (0, 4), (1, 5)]),
            (7, vec![(0, 6), (0, 5), (0, 5), (1, 6)]),
        ];
        assert_eq!(mixed[1], middle);
        assert_eq!(mixed[2][4], (5, vec![(0, 3), (0, 3)]));
    }

    #[test]
    fn partition_blocks_cross_traffic_only() {
        // cycle(4) split into {0,1} | {2,3} for rounds 0..=2: edges 1-2
        // and 3-0 are cut, edges 0-1 and 2-3 keep working.
        let g = generators::cycle(4);
        let plan = FaultPlan::default().with_partition(Partition {
            from_round: 0,
            until_round: 2,
            side: vec![0, 1],
        });
        let mut net = Network::new(&g, SimConfig::local().seed(9));
        let trace = net
            .execute(
                |_, _| Chatter { rounds: 6, heard: 0 },
                &RunSpec { faults: &plan, trace: true, ..RunSpec::default() },
            )
            .unwrap()
            .trace
            .unwrap();
        let cut: Vec<(usize, NodeId, Option<NodeId>)> = trace
            .faults()
            .filter_map(|e| match e {
                TraceEvent::Fault { round, kind: FaultKind::Partition, node, peer } => {
                    Some((*round, *node, *peer))
                }
                _ => None,
            })
            .collect();
        assert!(!cut.is_empty(), "partition dropped nothing");
        let side = [true, true, false, false];
        for &(r, v, u) in &cut {
            assert!(r <= 2, "drop outside the window at round {r}");
            let u = u.expect("message fault has a peer");
            assert_ne!(side[v], side[u], "dropped a same-side message {v}->{u}");
        }
        // Rounds past the window are unaffected: no partition drops.
        assert!(cut.iter().all(|&(r, _, _)| r <= 2));
    }

    #[test]
    fn per_link_faults_hit_only_that_link() {
        let g = generators::path(3); // edges 0-1, 1-2
        let plan = FaultPlan::default().with_link(LinkFault {
            a: 0,
            b: 1,
            loss: 1.0,
            dup: 0.0,
            reorder: 0.0,
        });
        let mut net = Network::new(&g, SimConfig::local().seed(13));
        let mut out = net
            .execute(
                |_, _| Chatter { rounds: 4, heard: 0 },
                &RunSpec { faults: &plan, trace: true, ..RunSpec::default() },
            )
            .unwrap();
        let trace = out.trace.take().unwrap();
        for e in trace.faults() {
            if let TraceEvent::Fault { kind: FaultKind::Loss, node, peer, .. } = e {
                let pair = (*node, peer.unwrap());
                assert!(pair == (0, 1) || pair == (1, 0), "loss on the wrong link: {pair:?}");
            }
        }
        // Node 0 hears nothing (its only link is dead both ways), node 2
        // still hears node 1 over the healthy link.
        assert_eq!(out.outputs[0], 0);
        assert!(out.outputs[2] > 0);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let g = generators::gnp(16, 0.3, &mut rand::rngs::StdRng::seed_from_u64(2));
        let plan = FaultPlan::lossy(0.2)
            .with_dup(0.1)
            .with_reorder(0.15)
            .with_partition(Partition { from_round: 2, until_round: 4, side: (0..8).collect() });
        let go = || {
            let mut net = Network::new(&g, SimConfig::local().seed(21));
            net.execute(
                |_, _| Chatter { rounds: 10, heard: 0 },
                &RunSpec { faults: &plan, trace: true, ..RunSpec::default() },
            )
            .unwrap()
        };
        let (out_a, out_b) = (go(), go());
        assert_eq!(out_a.outputs, out_b.outputs);
        assert_eq!(out_a.stats, out_b.stats);
        assert_eq!(out_a.trace.unwrap().events(), out_b.trace.unwrap().events());
    }

    #[test]
    fn churn_plan_validation_rejects_bad_plans() {
        let g = generators::cycle(4); // edges 0: 0-1, 1: 1-2, 2: 2-3, 3: 3-0
        let reason = |p: &ChurnPlan| match p.validate(&g) {
            Err(SimError::InvalidChurnPlan { reason }) => reason,
            other => panic!("expected InvalidChurnPlan, got {other:?}"),
        };
        assert!(reason(&ChurnPlan::default().with_absent_nodes(vec![9])).contains("absent node 9"));
        assert!(reason(&ChurnPlan::default().with_absent_nodes(vec![1, 1])).contains("twice"));
        assert!(reason(&ChurnPlan::default().with_absent_edges(vec![7])).contains("absent edge 7"));
        assert!(reason(&ChurnPlan::default().with_event(0, ChurnKind::EdgeDown { edge: 0 }))
            .contains("round 0"));
        assert!(reason(&ChurnPlan::default().with_event(3, ChurnKind::EdgeUp { edge: 0 }))
            .contains("already present"));
        assert!(reason(
            &ChurnPlan::default()
                .with_absent_edges(vec![1])
                .with_event(3, ChurnKind::EdgeDown { edge: 1 })
        )
        .contains("already absent"));
        assert!(reason(&ChurnPlan::default().with_event(3, ChurnKind::Join { node: 2 }))
            .contains("already present"));
        assert!(reason(
            &ChurnPlan::default()
                .with_event(2, ChurnKind::Leave { node: 2 })
                .with_event(5, ChurnKind::Join { node: 2 })
        )
        .contains("after leaving permanently"));
        assert!(reason(
            &ChurnPlan::default()
                .with_absent_nodes(vec![3])
                .with_event(4, ChurnKind::Leave { node: 3 })
        )
        .contains("not present"));
        // A consistent flap sequence passes.
        ChurnPlan::default()
            .with_absent_nodes(vec![0])
            .with_event(2, ChurnKind::EdgeDown { edge: 1 })
            .with_event(4, ChurnKind::EdgeUp { edge: 1 })
            .with_event(3, ChurnKind::Join { node: 0 })
            .with_event(6, ChurnKind::Leave { node: 0 })
            .validate(&g)
            .unwrap();
        // Overlap with the fault plan is rejected.
        let churn = ChurnPlan::default().with_event(2, ChurnKind::Leave { node: 1 });
        let faults = FaultPlan::crashes(vec![(1, 3)]);
        assert!(matches!(churn.validate_against(&faults), Err(SimError::InvalidChurnPlan { .. })));
        let mut net = Network::new(&g, SimConfig::local());
        let err = net
            .execute(
                |_, _| Chatter { rounds: 5, heard: 0 },
                &RunSpec { faults: &faults, churn: &churn, ..RunSpec::default() },
            )
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidChurnPlan { .. }));
    }

    #[test]
    fn edge_down_stops_delivery_and_counts_drops() {
        // path(2): one edge. Cut it at round 2; every later broadcast is
        // swallowed at the sender and billed as a churn drop.
        let g = generators::path(2);
        let churn = ChurnPlan::default().with_event(2, ChurnKind::EdgeDown { edge: 0 });
        let mut net = Network::new(&g, SimConfig::local().seed(4));
        let mut out = net
            .execute(
                |_, _| Chatter { rounds: 6, heard: 0 },
                &RunSpec { churn: &churn, trace: true, ..RunSpec::default() },
            )
            .unwrap();
        let trace = out.trace.take().unwrap();
        assert_eq!(out.stats.churn_events, 1);
        // Rounds 2..=5 each see both nodes broadcast into the cut edge,
        // plus the round-6 halt round: sends from rounds 0..2 deliver.
        assert!(out.stats.churn_drops > 0, "no drops counted");
        assert_eq!(
            out.stats.messages,
            out.stats.churn_drops + out.outputs.iter().map(|&h| h as u64).sum::<u64>(),
            "every protocol frame is either delivered or dropped"
        );
        let churns: Vec<&TraceEvent> = trace.churns().collect();
        assert_eq!(churns.len(), 1);
        assert!(matches!(
            churns[0],
            TraceEvent::Churn { round: 2, kind: ChurnKind::EdgeDown { edge: 0 } }
        ));
        // Edge back up: traffic resumes.
        let flap = ChurnPlan::default()
            .with_event(2, ChurnKind::EdgeDown { edge: 0 })
            .with_event(4, ChurnKind::EdgeUp { edge: 0 });
        let mut net2 = Network::new(&g, SimConfig::local().seed(4));
        let out2 = net2
            .execute(
                |_, _| Chatter { rounds: 6, heard: 0 },
                &RunSpec { churn: &flap, ..RunSpec::default() },
            )
            .unwrap();
        assert_eq!(out2.stats.churn_events, 2);
        assert!(
            out2.outputs.iter().sum::<usize>() > out.outputs.iter().sum::<usize>(),
            "restored edge should deliver again"
        );
    }

    #[test]
    fn leave_is_permanent_and_silent() {
        let g = generators::cycle(4);
        let churn = ChurnPlan::default().with_event(3, ChurnKind::Leave { node: 0 });
        let mut net = Network::new(&g, SimConfig::local().seed(8));
        let mut out = net
            .execute(
                |_, _| Chatter { rounds: 8, heard: 0 },
                &RunSpec { churn: &churn, trace: true, ..RunSpec::default() },
            )
            .unwrap();
        let trace = out.trace.take().unwrap();
        // Node 0 sends before round 3 and never after.
        let send_rounds: Vec<usize> = trace.sends_of(0).map(TraceEvent::round).collect();
        assert!(send_rounds.iter().any(|&r| r < 3));
        assert!(send_rounds.iter().all(|&r| r < 3), "a left node sent: {send_rounds:?}");
        // Neighbours' sends towards it after the leave are churn drops.
        assert!(out.stats.churn_drops > 0);
        assert_eq!(out.stats.churn_events, 1);
    }

    #[test]
    fn join_boots_fresh_and_chats() {
        let g = generators::cycle(4);
        let churn = ChurnPlan::default()
            .with_absent_nodes(vec![2])
            .with_event(4, ChurnKind::Join { node: 2 });
        let mut net = Network::new(&g, SimConfig::local().seed(12));
        let mut out = net
            .execute(
                |_, _| Chatter { rounds: 9, heard: 0 },
                &RunSpec { churn: &churn, trace: true, ..RunSpec::default() },
            )
            .unwrap();
        let trace = out.trace.take().unwrap();
        let send_rounds: Vec<usize> = trace.sends_of(2).map(TraceEvent::round).collect();
        assert!(send_rounds.iter().all(|&r| r >= 4), "absent node sent early: {send_rounds:?}");
        assert!(send_rounds.iter().any(|&r| r >= 4), "joined node never sent");
        assert!(out.outputs[2] > 0, "joined node heard nothing");
        // Sends towards the absent node before the join are dropped.
        assert!(out.stats.churn_drops > 0);
    }

    #[test]
    fn churned_runs_are_deterministic() {
        let g = generators::gnp(12, 0.3, &mut rand::rngs::StdRng::seed_from_u64(3));
        let churn = ChurnPlan::default()
            .with_event(2, ChurnKind::EdgeDown { edge: 0 })
            .with_event(5, ChurnKind::EdgeUp { edge: 0 })
            .with_event(3, ChurnKind::Leave { node: 1 });
        let faults = FaultPlan::lossy(0.1).with_dup(0.05);
        let go = || {
            let mut net = Network::new(&g, SimConfig::local().seed(31));
            net.execute(
                |_, _| Chatter { rounds: 10, heard: 0 },
                &RunSpec { faults: &faults, churn: &churn, trace: true },
            )
            .unwrap()
        };
        let (out_a, out_b) = (go(), go());
        assert_eq!(out_a.outputs, out_b.outputs);
        assert_eq!(out_a.stats, out_b.stats);
        assert_eq!(out_a.trace.unwrap().events(), out_b.trace.unwrap().events());
        assert_eq!(out_a.stats.churn_events, 3);
    }

    #[test]
    fn peer_mapping_is_involutive() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let g = generators::gnp(20, 0.2, &mut rng);
        let net = Network::new(&g, SimConfig::local());
        for v in g.nodes() {
            for p in 0..g.degree(v) {
                let (u, q) = net.peer(v, p);
                assert_eq!(net.peer(u, q), (v, p), "peer mapping broken at ({v},{p})");
                assert_eq!(g.port(v, p).1, g.port(u, q).1, "ports disagree on edge");
            }
        }
    }

    /// Ticks between the rounds in which a [`Ticker`] acts on its own.
    const PERIOD: usize = 5;
    /// The round in which every [`Ticker`] halts (a tick).
    const LAST: usize = 30;

    /// A [`Ticker`]'s log: `(round, port, value)` of every message it
    /// received, and `(round, usize::MAX, value)` of every broadcast.
    type Log = Vec<(usize, Port, u32)>;

    /// A run of [`Ticker`]s: each node's log and `on_round` calls.
    type TickerRun = RunOutcome<(Log, usize)>;

    /// A sleep-contract probe. It broadcasts a random value in every
    /// tick round (a multiple of [`PERIOD`]) and logs every message it
    /// receives; `hinted`, it sleeps until the next tick after each
    /// step. A node booted after round 0 (a recovery or a join) acts in
    /// every round and never sleeps. The output is the log and the
    /// number of `on_round` calls.
    struct Ticker {
        hinted: bool,
        eager: bool,
        log: Log,
        steps: usize,
    }

    impl Ticker {
        fn new(hinted: bool) -> Ticker {
            Ticker { hinted, eager: false, log: Vec::new(), steps: 0 }
        }

        fn act(&mut self, ctx: &mut Context<'_, u32>) {
            use rand::RngExt;
            let x: u32 = ctx.rng().random_range(0..1000);
            self.log.push((ctx.round(), usize::MAX, x));
            ctx.broadcast(x);
            if self.hinted && !self.eager {
                ctx.sleep_until((ctx.round() / PERIOD + 1) * PERIOD);
            }
        }
    }

    impl Protocol for Ticker {
        type Msg = u32;
        type Output = (Log, usize);

        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            self.eager = ctx.round() > 0;
            self.act(ctx);
        }

        fn on_round(&mut self, ctx: &mut Context<'_, u32>, inbox: &[(Port, u32)]) {
            self.steps += 1;
            let round = ctx.round();
            self.log.extend(inbox.iter().map(|&(p, m)| (round, p, m)));
            if round >= LAST {
                ctx.halt();
            } else if self.eager || round.is_multiple_of(PERIOD) {
                self.act(ctx);
            } else if self.hinted {
                ctx.sleep_until((round / PERIOD + 1) * PERIOD);
            }
        }

        fn into_output(self) -> (Log, usize) {
            (self.log, self.steps)
        }
    }

    /// Late copies, a crash and a recovery of node 3, a join of node 5
    /// and a leave of node 9, each between two ticks.
    fn sleep_plans() -> (FaultPlan, ChurnPlan) {
        let faults = FaultPlan::crashes(vec![(3, 7)])
            .with_recoveries(vec![(3, 12)])
            .with_dup(0.3)
            .with_reorder(0.3);
        let churn = ChurnPlan::default()
            .with_absent_nodes(vec![5])
            .with_event(8, ChurnKind::Join { node: 5 })
            .with_event(13, ChurnKind::Leave { node: 9 });
        (faults, churn)
    }

    fn run_tickers(config: SimConfig, hinted: bool, plans: &(FaultPlan, ChurnPlan)) -> TickerRun {
        let g = generators::cycle(12);
        let spec = RunSpec { faults: &plans.0, churn: &plans.1, trace: true };
        Network::new(&g, config).execute(|_, _| Ticker::new(hinted), &spec).unwrap()
    }

    fn events(out: &TickerRun) -> &[TraceEvent] {
        out.trace.as_ref().expect("a traced run returns its trace").events()
    }

    fn logs(out: &TickerRun) -> Vec<&[(usize, Port, u32)]> {
        out.outputs.iter().map(|(log, _)| log.as_slice()).collect()
    }

    fn steps(out: &TickerRun) -> usize {
        out.outputs.iter().map(|&(_, steps)| steps).sum()
    }

    #[test]
    fn sleeping_nodes_wake_on_mail_late_copies_and_their_round() {
        let plans = (FaultPlan::default().with_dup(0.5).with_reorder(0.5), ChurnPlan::default());
        let config = SimConfig::local().seed(21);
        let (hinted, plain) =
            (run_tickers(config, true, &plans), run_tickers(config, false, &plans));
        assert_eq!(logs(&hinted), logs(&plain));
        assert!(steps(&hinted) < steps(&plain), "{} vs {}", steps(&hinted), steps(&plain));
        // Slot mail lands one round after a tick and late copies two to
        // four rounds after, all while the receiver sleeps; the tick
        // itself is the wake round.
        let offsets: Vec<usize> = logs(&hinted)
            .iter()
            .flat_map(|log| log.iter())
            .map(|&(round, _, _)| round % PERIOD)
            .collect();
        for offset in 0..PERIOD {
            assert!(offsets.contains(&offset), "nothing logged {offset} rounds after a tick");
        }
    }

    #[test]
    fn events_of_sleeping_nodes_apply_at_their_rounds() {
        let plans = sleep_plans();
        let config = SimConfig::local().seed(22);
        let hinted = run_tickers(config, true, &plans);
        let plain = run_tickers(config, false, &plans);
        assert_eq!(logs(&hinted), logs(&plain));
        assert_eq!(events(&hinted), events(&plain));
        let first = |want: &dyn Fn(&TraceEvent) -> bool| {
            events(&hinted).iter().find(|e| want(e)).map(TraceEvent::round)
        };
        let fault = |kind: FaultKind| move |e: &TraceEvent| matches!(*e, TraceEvent::Fault { kind: k, node: 3, .. } if k == kind);
        let churn = |kind: ChurnKind| move |e: &TraceEvent| matches!(*e, TraceEvent::Churn { kind: k, .. } if k == kind);
        assert_eq!(first(&fault(FaultKind::Crash)), Some(7));
        assert_eq!(first(&fault(FaultKind::Recover)), Some(12));
        assert_eq!(first(&churn(ChurnKind::Join { node: 5 })), Some(8));
        assert_eq!(first(&churn(ChurnKind::Leave { node: 9 })), Some(13));
        // The reboot cleared node 3's hint: its fresh instance acts in
        // every round from its boot to its halt.
        let acted: Vec<usize> = logs(&hinted)[3]
            .iter()
            .filter(|&&(round, port, _)| port == usize::MAX && round >= 12)
            .map(|&(round, _, _)| round)
            .collect();
        assert_eq!(acted, (12..LAST).collect::<Vec<_>>());
    }

    #[test]
    fn hints_change_nothing_on_any_backend() {
        let plans = sleep_plans();
        let reference = run_tickers(SimConfig::local().seed(23), false, &plans);
        for backend in [Backend::Sequential, Backend::Sharded, Backend::Async] {
            // More than one thread selects the sharded engine.
            let threads = if backend == Backend::Sharded { 2 } else { 1 };
            let config = SimConfig::local().seed(23).threads(threads).backend(backend);
            let hinted = run_tickers(config, true, &plans);
            let plain = run_tickers(config, false, &plans);
            assert_eq!(logs(&hinted), logs(&plain), "{backend:?}");
            assert_eq!(hinted.stats, plain.stats, "{backend:?}");
            assert_eq!(events(&hinted), events(&plain), "{backend:?}");
            assert_eq!(logs(&hinted), logs(&reference), "{backend:?}");
            // Only the sequential engine skips the sleepers' calls.
            let skipped = steps(&hinted) < steps(&plain);
            assert_eq!(skipped, backend == Backend::Sequential, "{backend:?}");
        }
    }

    use rand::SeedableRng;
}
