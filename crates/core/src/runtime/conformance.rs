//! Cross-algorithm conformance registry: the machine-checkable contract
//! every portfolio [`Algorithm`](super::Algorithm) implementor must
//! honor.
//!
//! `tests/algo_conformance.rs` drives one test surface over
//! [`registry`]: bit-identity to the legacy code path (the `golden`
//! replica) across seeds × threads × backends, validity and
//! family-invariant checks at quiescent points ([`Kind`]), certify →
//! repair → re-verify round-trips, resume idempotence, and telemetry
//! non-perturbation. A future implementor (Suitor, Huang–Su MWM) gets
//! all of it by adding one [`Entry`] here.
//!
//! Goldens are *legacy replicas*: they reproduce, instruction for
//! instruction, the driver loops as they existed before the port onto
//! the runtime trait, directly on a [`Network`]. That is the same
//! golden-replica discipline as `tests/runtime_equiv.rs`: an
//! independent record of the old behaviour, so a drift in
//! [`super::run_mm`]'s composition cannot hide behind itself.

use dam_congest::{Network, RunSpec, SimConfig};
use dam_graph::{hopcroft_karp, maximal, mwm, EdgeId, Graph, GraphError, Matching};

use super::{AlgoSpec, PortRows};
use crate::bipartite::{exhaust_length, PhaseSide};
use crate::error::CoreError;
use crate::israeli_itai::IiNode;
use crate::luby::LubyMatchingNode;
use crate::report::matching_from_registers;
use crate::weighted::local_max::LocalMaxNode;
use crate::weighted::{algorithm5_iterations, GainExchange, WrapApply};

/// The approximation family an implementor belongs to — what "correct"
/// means for its output at a quiescent, fault-free point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A maximal matching (the `½`-MCM guarantee).
    Maximal,
    /// A `(1−1/k)`-approximate maximum-cardinality matching on a
    /// bipartite input.
    BipartiteApprox {
        /// The family parameter `k`.
        k: usize,
    },
    /// A `(½−ε)`-approximate maximum-weight matching.
    WeightedHalf {
        /// The family slack `ε`.
        eps: f64,
    },
}

impl Kind {
    /// Checks the family invariant on a quiescent fault-free output:
    /// the matching must validate, and meet its family's bound against
    /// the exact oracle ([`maximal::is_maximal`],
    /// [`hopcroft_karp::maximum_bipartite_matching_size`], or
    /// [`mwm::maximum_weight`]).
    ///
    /// # Errors
    /// A human-readable description of the violated bound.
    pub fn check_quiescent(&self, g: &Graph, m: &Matching) -> Result<(), String> {
        m.validate(g).map_err(|e| format!("invalid matching: {e}"))?;
        match *self {
            Kind::Maximal => {
                if !maximal::is_maximal(g, m) {
                    return Err("matching is not maximal".to_string());
                }
            }
            Kind::BipartiteApprox { k } => {
                let opt = hopcroft_karp::maximum_bipartite_matching_size(g);
                if k * m.size() < (k - 1) * opt {
                    return Err(format!("ratio violated: {} < (1-1/{k})·{opt}", m.size()));
                }
            }
            Kind::WeightedHalf { eps } => {
                let opt = mwm::maximum_weight(g);
                let w = m.weight(g);
                if w + 1e-9 < (0.5 - eps) * opt {
                    return Err(format!("weight ratio violated: {w} < (1/2-{eps})·{opt}"));
                }
            }
        }
        Ok(())
    }
}

/// A legacy driver replica: takes the input graph and the simulator
/// configuration, returns the per-node register file (`None` =
/// unmatched) or the driver's error.
pub type Golden = fn(&Graph, SimConfig) -> Result<Vec<Option<EdgeId>>, CoreError>;

/// One registered implementor: everything the conformance harness needs
/// to exercise its full contract.
pub struct Entry {
    /// Display name; CI's `ALGO_CONFORMANCE` filter matches on it by
    /// prefix, and failures report it.
    pub name: &'static str,
    /// The selector that builds the implementor under test.
    pub spec: AlgoSpec,
    /// The approximation family of its output.
    pub kind: Kind,
    /// Whether the implementor requires a bipartite input graph (the
    /// harness then generates bipartite corpora).
    pub bipartite_input: bool,
    /// Whether [`super::Algorithm::resume`] from a quiescent fault-free
    /// state is the identity on registers. True for the maximal and
    /// bipartite families (no augmenting path remains); false for the
    /// weighted driver, whose resume contract is weight monotonicity —
    /// further gain iterations may legitimately rewrap edges.
    pub resume_fixpoint: bool,
    /// The legacy code-path replica: the pre-port driver loop, run
    /// directly on a [`Network`]. [`super::run_mm`] with the same
    /// `SimConfig` (and a default [`super::RuntimeConfig`] otherwise)
    /// must reproduce its registers bit for bit.
    pub golden: Golden,
}

/// The portfolio's conformance registry — one [`Entry`] per implementor
/// configuration under test. New implementors are added here and
/// nowhere else.
#[must_use]
pub fn registry() -> Vec<Entry> {
    vec![
        Entry {
            name: "israeli-itai",
            spec: AlgoSpec::IsraeliItai,
            kind: Kind::Maximal,
            bipartite_input: false,
            resume_fixpoint: true,
            golden: golden_israeli_itai,
        },
        Entry {
            name: "bipartite-k2",
            spec: AlgoSpec::Bipartite { k: 2 },
            kind: Kind::BipartiteApprox { k: 2 },
            bipartite_input: true,
            resume_fixpoint: true,
            golden: golden_bipartite_k2,
        },
        Entry {
            name: "bipartite-k3",
            spec: AlgoSpec::Bipartite { k: 3 },
            kind: Kind::BipartiteApprox { k: 3 },
            bipartite_input: true,
            resume_fixpoint: true,
            golden: golden_bipartite_k3,
        },
        Entry {
            name: "weighted",
            spec: AlgoSpec::Weighted { eps: 0.1 },
            kind: Kind::WeightedHalf { eps: 0.1 },
            bipartite_input: false,
            resume_fixpoint: false,
            golden: golden_weighted,
        },
        Entry {
            name: "luby-matching",
            spec: AlgoSpec::LubyMatching,
            kind: Kind::Maximal,
            bipartite_input: false,
            resume_fixpoint: true,
            golden: golden_luby_matching,
        },
    ]
}

/// [`registry`] filtered by the `ALGO_CONFORMANCE` environment variable
/// (prefix match on [`Entry::name`]; unset or empty keeps everything).
/// CI's `algo-conformance` matrix leg sets it so a portfolio regression
/// names the algorithm in the failing job title.
#[must_use]
pub fn filtered_registry() -> Vec<Entry> {
    let filter = std::env::var("ALGO_CONFORMANCE").unwrap_or_default();
    registry().into_iter().filter(|e| e.name.starts_with(&filter)).collect()
}

fn golden_israeli_itai(g: &Graph, sim: SimConfig) -> Result<Vec<Option<EdgeId>>, CoreError> {
    let mut net = Network::new(g, sim);
    let out = net.execute(|v, graph| IiNode::new(graph.degree(v)), &RunSpec::default())?;
    Ok(out.outputs)
}

fn golden_bipartite(g: &Graph, sim: SimConfig, k: usize) -> Result<Vec<Option<EdgeId>>, CoreError> {
    let sides_raw = g.bipartition().ok_or(CoreError::Graph(GraphError::NotBipartite))?;
    let sides: Vec<PhaseSide> = sides_raw.iter().map(|&s| Some(s)).collect();
    let live: Vec<Vec<bool>> = g.nodes().map(|v| vec![true; g.degree(v)]).collect();
    let mut net = Network::new(g, sim);
    let mut registers: Vec<Option<EdgeId>> = vec![None; g.node_count()];
    let mut l = 1;
    while l < 2 * k {
        exhaust_length(&mut net, g, &sides, &live, &mut registers, l, usize::MAX)?;
        l += 2;
    }
    matching_from_registers(g, &registers)?;
    Ok(registers)
}

fn golden_bipartite_k2(g: &Graph, sim: SimConfig) -> Result<Vec<Option<EdgeId>>, CoreError> {
    golden_bipartite(g, sim, 2)
}

fn golden_bipartite_k3(g: &Graph, sim: SimConfig) -> Result<Vec<Option<EdgeId>>, CoreError> {
    golden_bipartite(g, sim, 3)
}

fn golden_weighted(g: &Graph, sim: SimConfig) -> Result<Vec<Option<EdgeId>>, CoreError> {
    let mut net = Network::new(g, sim);
    let mut registers: Vec<Option<EdgeId>> = vec![None; g.node_count()];
    let iterations = algorithm5_iterations(0.1, 0.5);
    let cells = PortRows::new(g);
    for _ in 0..iterations {
        net.execute(
            |v, graph| {
                let matched_port = registers[v]
                    .map(|e| graph.port_of_edge(v, e).expect("register points at incident edge"));
                let my_weight = registers[v].map_or(0.0, |e| graph.weight(e));
                GainExchange::new(cells.row(v), matched_port, my_weight)
            },
            &RunSpec::default(),
        )?;
        let gains: Vec<Vec<Option<f64>>> = g
            .nodes()
            .map(|v| (0..g.degree(v)).map(|p| GainExchange::gain(cells.row(v), p)).collect())
            .collect();
        let dead = PortRows::new(g);
        let m_prime = net
            .execute(|v, _| LocalMaxNode::new(&gains[v], dead.row(v)), &RunSpec::default())?
            .outputs;
        matching_from_registers(g, &m_prime)?;
        let out = net.execute(
            |v, graph| {
                let matched_port = registers[v]
                    .map(|e| graph.port_of_edge(v, e).expect("register points at incident edge"));
                WrapApply { matched_port, register: registers[v], m_prime: m_prime[v] }
            },
            &RunSpec::default(),
        )?;
        registers = out.outputs;
        matching_from_registers(g, &registers)?;
    }
    Ok(registers)
}

fn golden_luby_matching(g: &Graph, sim: SimConfig) -> Result<Vec<Option<EdgeId>>, CoreError> {
    let mut net = Network::new(g, sim);
    let out =
        net.execute(|v, graph| LubyMatchingNode::new(graph.degree(v)), &RunSpec::default())?;
    Ok(out.outputs)
}
