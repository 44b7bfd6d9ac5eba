//! Incremental matching maintenance under continuous topology churn.
//!
//! [`crate::repair`] heals a matching once, after a burst of crashes.
//! Real deployments (the paper's §1 switch-fabric and job/server
//! motivations) face *continuous* churn: links flap, nodes join and
//! leave while the matching is in use. Re-running the algorithm per
//! event would cost `O(log n)` rounds and graph-wide traffic each time;
//! the locality line of work (Even–Medina–Ron, PAPERS.md) says an event
//! should cost work proportional to a *constant-size neighbourhood*.
//!
//! This module provides that maintenance loop:
//!
//! * [`Maintainer`] holds a matching over the *present* subgraph of a
//!   fixed universe graph (presence masks over nodes and edges, matching
//!   the engine's [`dam_congest::ChurnPlan`] model).
//!   [`Maintainer::apply`] processes one batch of [`ChurnKind`] events:
//!   it sanitizes **only the registers incident to an event** (a leave
//!   frees its partner, a deleted matched edge frees both endpoints),
//!   then re-matches freed endpoints by running Israeli–Itai
//!   **restricted to the affected neighbourhood** — the candidate edges
//!   that could violate maximality.
//!
//! * The locality argument makes the restriction sound: at a quiescent
//!   point no present edge joins two free present nodes, so after a
//!   batch any such edge must be incident to a node the batch touched
//!   (newly freed, newly joined) or be newly present itself. Repairing
//!   on exactly those candidate edges restores maximality, and the
//!   number of nodes involved is bounded by the event's neighbourhood —
//!   independent of `n`. [`BatchReport::locality`] reports the measured
//!   nodes-touched-per-event.
//!
//! * Maintenance traffic is billed as [`dam_congest::MsgClass::Maintenance`]
//!   (via [`AsMaintenance`]), so steady-state upkeep never pollutes the
//!   round/message counts of the algorithm proper.
//!
//! * The runtime's maintenance layer
//!   ([`crate::runtime::RuntimeConfig::maintain`]) is the distributed
//!   pipeline: the algorithm runs while the engine replays a
//!   [`dam_congest::ChurnPlan`] (and optionally a fault plan), then a
//!   [`Maintainer::adopt`] + [`Maintainer::repair_full`] pass restores
//!   maximality on the surviving topology. The final matching is valid
//!   and maximal on the final graph.
//!
//! **Invariant** (checked in debug builds after every batch, and exposed
//! as [`is_valid_on_present`] / [`is_maximal_on_present`]): at every
//! quiescent point the maintained matching is a valid matching of the
//! present subgraph and maximal on it.

use dam_congest::{rng, AsMaintenance, ChurnKind, Network, RunStats, SimConfig};
use dam_graph::{EdgeId, Graph, Matching, NodeId};

use crate::error::CoreError;
use crate::israeli_itai::IiNode;
use crate::repair::{sanitize_registers, Sanitized};

/// Domain-separation key (`"MAIN"`) deriving the maintenance-repair seed
/// from the run seed in the maintenance layer of
/// [`crate::runtime::run_mm`], chained through [`rng::splitmix64`].
pub(crate) const MAINTAIN_DOMAIN: u64 = 0x4D41_494E;

/// Tuning for the maintenance loop.
#[derive(Debug, Clone)]
pub struct MaintainConfig {
    /// Master seed; each maintenance batch derives its own sub-seed.
    pub seed: u64,
    /// Round guard for every internal run.
    pub max_rounds: usize,
}

impl Default for MaintainConfig {
    fn default() -> MaintainConfig {
        MaintainConfig { seed: 0, max_rounds: 500_000 }
    }
}

/// What one [`Maintainer::apply`] batch did.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Events in the batch.
    pub events: usize,
    /// Matched edges dissolved by event-incident sanitation.
    pub freed: usize,
    /// Edges added back by the localized repair.
    pub added: usize,
    /// Nodes that participated in the repair run (incident to a
    /// candidate edge). 0 when no repair was needed.
    pub touched: usize,
    /// Cost of the repair run; all protocol frames are billed as
    /// [`dam_congest::MsgClass::Maintenance`].
    pub stats: RunStats,
}

impl BatchReport {
    /// Nodes touched per event — the repair-locality metric. The
    /// locality claim (module docs) is that this stays bounded by a
    /// constant as `n` grows.
    #[must_use]
    pub fn locality(&self) -> f64 {
        if self.events == 0 {
            self.touched as f64
        } else {
            self.touched as f64 / self.events as f64
        }
    }
}

/// A long-lived maintained matching over the present subgraph of a
/// universe graph. See the module docs for the model and guarantees.
#[derive(Debug)]
pub struct Maintainer<'g> {
    g: &'g Graph,
    seed: u64,
    batches: u64,
    max_rounds: usize,
    node_present: Vec<bool>,
    edge_present: Vec<bool>,
    registers: Vec<Option<EdgeId>>,
    total: RunStats,
}

impl<'g> Maintainer<'g> {
    /// Starts maintenance on the full graph: runs Israeli–Itai (billed
    /// as maintenance — bootstrap is upkeep of an initially empty
    /// matching) to reach the first quiescent point.
    ///
    /// # Errors
    /// Propagates simulator errors from the bootstrap run.
    pub fn bootstrap(g: &'g Graph, cfg: &MaintainConfig) -> Result<Maintainer<'g>, CoreError> {
        Maintainer::with_presence(g, vec![true; g.node_count()], vec![true; g.edge_count()], cfg)
    }

    /// Starts maintenance on a masked subgraph (e.g. the initial
    /// presence of a [`dam_congest::ChurnPlan`]): runs Israeli–Itai on
    /// the present edges to reach the first quiescent point.
    ///
    /// # Errors
    /// Propagates simulator errors from the bootstrap run.
    ///
    /// # Panics
    /// Panics if a mask has the wrong length.
    pub fn with_presence(
        g: &'g Graph,
        node_present: Vec<bool>,
        edge_present: Vec<bool>,
        cfg: &MaintainConfig,
    ) -> Result<Maintainer<'g>, CoreError> {
        let mut mt =
            Maintainer::adopt(g, vec![None; g.node_count()], node_present, edge_present, cfg);
        mt.repair_full()?;
        Ok(mt)
    }

    /// Adopts existing output registers (sanitized against the given
    /// presence first) without running anything. The matching may not be
    /// maximal yet; call [`Maintainer::repair_full`] to restore the
    /// invariant.
    ///
    /// # Panics
    /// Panics if a mask or the register vector has the wrong length.
    #[must_use]
    pub fn adopt(
        g: &'g Graph,
        registers: Vec<Option<EdgeId>>,
        node_present: Vec<bool>,
        edge_present: Vec<bool>,
        cfg: &MaintainConfig,
    ) -> Maintainer<'g> {
        assert_eq!(node_present.len(), g.node_count(), "one presence flag per node");
        assert_eq!(edge_present.len(), g.edge_count(), "one presence flag per edge");
        let sane = sanitize_present(g, &registers, &node_present, &edge_present);
        Maintainer {
            g,
            seed: cfg.seed,
            batches: 0,
            max_rounds: cfg.max_rounds,
            node_present,
            edge_present,
            registers: sane.registers,
            total: RunStats::default(),
        }
    }

    /// The universe graph.
    #[must_use]
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// Current node-presence mask.
    #[must_use]
    pub fn node_present(&self) -> &[bool] {
        &self.node_present
    }

    /// Current edge-presence mask.
    #[must_use]
    pub fn edge_present(&self) -> &[bool] {
        &self.edge_present
    }

    /// Current output registers (symmetric by construction).
    #[must_use]
    pub fn registers(&self) -> &[Option<EdgeId>] {
        &self.registers
    }

    /// Accumulated cost of every maintenance run so far.
    #[must_use]
    pub fn total_stats(&self) -> &RunStats {
        &self.total
    }

    /// The maintained matching, assembled from the registers.
    ///
    /// # Panics
    /// Never panics for a consistent maintainer (registers are kept
    /// symmetric and presence-valid by construction).
    #[must_use]
    pub fn matching(&self) -> Matching {
        let edges = (0..self.g.node_count()).filter_map(|v| {
            let e = self.registers[v]?;
            (v < self.g.other_endpoint(e, v)).then_some(e)
        });
        Matching::from_edges(self.g, edges).expect("maintained registers form a matching")
    }

    /// Checks the quiescent-point invariant: the registers form a valid
    /// matching of the present subgraph and no present edge joins two
    /// free present nodes.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        let m = self.matching();
        is_valid_on_present(self.g, &m, &self.node_present, &self.edge_present)
            && is_maximal_on_present(self.g, &m, &self.node_present, &self.edge_present)
    }

    /// Applies one batch of topology events and repairs the matching.
    ///
    /// Events are applied in order against the current presence masks;
    /// an event that contradicts them (deleting an absent edge, a
    /// present node joining, ...) panics — feed events through
    /// [`ChurnPlan::validate`](dam_congest::ChurnPlan::validate) or drive this from an engine trace if the
    /// stream is untrusted. After the call the invariant holds again:
    /// the matching is valid and maximal on the new present subgraph.
    ///
    /// # Errors
    /// Propagates simulator errors from the localized repair run.
    ///
    /// # Panics
    /// Panics on an event inconsistent with the current presence.
    pub fn apply(&mut self, events: &[ChurnKind]) -> Result<BatchReport, CoreError> {
        let mut dirty = vec![false; self.g.node_count()];
        let mut new_edge = vec![false; self.g.edge_count()];
        let mut freed = 0usize;
        let free_at = |regs: &mut Vec<Option<EdgeId>>, v: NodeId, dirty: &mut Vec<bool>| {
            regs[v] = None;
            dirty[v] = true;
        };
        for &ev in events {
            match ev {
                ChurnKind::EdgeUp { edge } => {
                    assert!(!self.edge_present[edge], "EdgeUp on a present edge");
                    self.edge_present[edge] = true;
                    new_edge[edge] = true;
                }
                ChurnKind::EdgeDown { edge } => {
                    assert!(self.edge_present[edge], "EdgeDown on an absent edge");
                    self.edge_present[edge] = false;
                    new_edge[edge] = false;
                    let (a, b) = self.g.endpoints(edge);
                    if self.registers[a] == Some(edge) {
                        free_at(&mut self.registers, a, &mut dirty);
                        free_at(&mut self.registers, b, &mut dirty);
                        freed += 1;
                    }
                }
                ChurnKind::Join { node } => {
                    assert!(!self.node_present[node], "Join of a present node");
                    self.node_present[node] = true;
                    // A joiner boots with an empty register and competes
                    // for every present incident edge.
                    free_at(&mut self.registers, node, &mut dirty);
                }
                ChurnKind::Leave { node } => {
                    assert!(self.node_present[node], "Leave of an absent node");
                    self.node_present[node] = false;
                    if let Some(e) = self.registers[node] {
                        let partner = self.g.other_endpoint(e, node);
                        free_at(&mut self.registers, partner, &mut dirty);
                        self.registers[node] = None;
                        freed += 1;
                    }
                    dirty[node] = false; // absent: never repairs
                }
            }
        }
        let report = self.repair(events.len(), freed, |g, regs, e| {
            let (a, b) = g.endpoints(e);
            new_edge[e] || (dirty[a] && regs[a].is_none()) || (dirty[b] && regs[b].is_none())
        })?;
        debug_assert!(self.is_quiescent(), "maintenance batch broke the invariant");
        Ok(report)
    }

    /// Repairs with the *full* candidate set (every present edge between
    /// two free present nodes) — used after [`Maintainer::adopt`], where
    /// no locality argument is available.
    ///
    /// # Errors
    /// Propagates simulator errors from the repair run.
    pub fn repair_full(&mut self) -> Result<BatchReport, CoreError> {
        let report = self.repair(0, 0, |_, _, _| true)?;
        debug_assert!(self.is_quiescent(), "full repair broke the invariant");
        Ok(report)
    }

    /// Runs localized Israeli–Itai on the candidate edges selected by
    /// `keep_extra` (on top of the always-required "present, both
    /// endpoints present and free" filter) and merges the new matches
    /// into the registers.
    fn repair(
        &mut self,
        events: usize,
        freed: usize,
        keep_extra: impl Fn(&Graph, &[Option<EdgeId>], EdgeId) -> bool,
    ) -> Result<BatchReport, CoreError> {
        let keep: Vec<bool> = self
            .g
            .edge_ids()
            .map(|e| {
                let (a, b) = self.g.endpoints(e);
                self.edge_present[e]
                    && self.node_present[a]
                    && self.node_present[b]
                    && self.registers[a].is_none()
                    && self.registers[b].is_none()
                    && keep_extra(self.g, &self.registers, e)
            })
            .collect();
        if !keep.iter().any(|&k| k) {
            return Ok(BatchReport {
                events,
                freed,
                added: 0,
                touched: 0,
                stats: RunStats::default(),
            });
        }
        // Node and edge ids survive `edge_subgraph`, so the repair's
        // output registers translate back to the universe graph as-is.
        let sub = self.g.edge_subgraph(&keep);
        let touched = (0..sub.node_count()).filter(|&v| sub.degree(v) > 0).count();
        let batch_seed = rng::splitmix64(self.seed ^ self.batches.wrapping_mul(0x9E37_79B9));
        self.batches += 1;
        let mut net =
            Network::new(&sub, SimConfig::local().seed(batch_seed).max_rounds(self.max_rounds));
        let out = net.run(|v, graph| AsMaintenance::new(IiNode::new(graph.degree(v))))?;
        let mut added = 0usize;
        for v in 0..self.g.node_count() {
            if let Some(e) = out.outputs[v] {
                debug_assert!(self.registers[v].is_none(), "repair re-matched a matched node");
                self.registers[v] = Some(e);
                if v < self.g.other_endpoint(e, v) {
                    added += 1;
                }
            }
        }
        self.total.absorb(&out.stats);
        Ok(BatchReport { events, freed, added, touched, stats: out.stats })
    }
}

/// Cross-validates output registers against presence masks: a claim
/// `registers[v] = Some(e)` survives iff `e` is a present edge incident
/// to `v`, both endpoints are present, and the partner agrees.
/// Generalizes [`crate::repair::sanitize_registers`] (which this
/// function reduces to when every edge is present).
///
/// # Panics
/// Panics if `registers` or a mask has the wrong length.
#[must_use]
pub fn sanitize_present(
    g: &Graph,
    registers: &[Option<EdgeId>],
    node_present: &[bool],
    edge_present: &[bool],
) -> Sanitized {
    assert_eq!(edge_present.len(), g.edge_count(), "one presence flag per edge");
    let masked: Vec<Option<EdgeId>> =
        registers.iter().map(|r| r.filter(|&e| e < g.edge_count() && edge_present[e])).collect();
    let mut sane = sanitize_registers(g, &masked, node_present);
    // Claims cleared by the edge mask count as dissolved too.
    sane.dissolved += registers
        .iter()
        .zip(&masked)
        .filter(|(orig, kept)| orig.is_some() && kept.is_none())
        .count();
    sane
}

/// Checks that `m` is a valid matching *of the present subgraph*: every
/// matched edge is present and joins two present nodes.
#[must_use]
pub fn is_valid_on_present(
    g: &Graph,
    m: &Matching,
    node_present: &[bool],
    edge_present: &[bool],
) -> bool {
    m.edges().all(|e| {
        let (a, b) = g.endpoints(e);
        edge_present[e] && node_present[a] && node_present[b]
    })
}

/// Checks that `m` is maximal on the present subgraph: no present edge
/// joins two present free nodes. Generalizes
/// [`crate::repair::is_maximal_on_residual`] from a node-liveness vector
/// to full node+edge presence masks.
#[must_use]
pub fn is_maximal_on_present(
    g: &Graph,
    m: &Matching,
    node_present: &[bool],
    edge_present: &[bool],
) -> bool {
    g.edge_ids().all(|e| {
        let (a, b) = g.endpoints(e);
        !(edge_present[e] && node_present[a] && node_present[b] && m.is_free(a) && m.is_free(b))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run_mm, IsraeliItai, RunReport, RuntimeConfig};
    use dam_congest::{ChurnPlan, FaultPlan, TransportCfg};
    use dam_graph::{generators, maximal};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn assert_quiescent(mt: &Maintainer<'_>) {
        assert!(mt.is_quiescent(), "matching not valid+maximal on the present graph");
    }

    #[test]
    fn bootstrap_reaches_a_maximal_matching() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::gnp(40, 0.12, &mut rng);
        let mt = Maintainer::bootstrap(&g, &MaintainConfig::default()).unwrap();
        let m = mt.matching();
        m.validate(&g).unwrap();
        assert!(maximal::is_maximal(&g, &m));
        // Bootstrap traffic is upkeep: billed as maintenance.
        assert_eq!(mt.total_stats().messages, 0);
        assert!(mt.total_stats().maintenance > 0);
    }

    #[test]
    fn single_events_keep_the_invariant() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::gnp(30, 0.2, &mut rng);
        let mut mt = Maintainer::bootstrap(&g, &MaintainConfig::default()).unwrap();
        // Delete a matched edge: both endpoints must be re-matchable.
        let e = mt.matching().edges().next().unwrap();
        let rep = mt.apply(&[ChurnKind::EdgeDown { edge: e }]).unwrap();
        assert_eq!(rep.freed, 1);
        assert_quiescent(&mt);
        // A leave dissolves its match and frees the partner.
        let (v, _) = (0..g.node_count())
            .find_map(|v| mt.registers()[v].map(|e| (v, e)))
            .expect("someone is matched");
        mt.apply(&[ChurnKind::Leave { node: v }]).unwrap();
        assert!(mt.matching().is_free(v));
        assert_quiescent(&mt);
        // The edge comes back: maximality may force a new match on it.
        mt.apply(&[ChurnKind::EdgeUp { edge: e }]).unwrap();
        assert_quiescent(&mt);
        // The node rejoins with an empty register.
        mt.apply(&[ChurnKind::Join { node: v }]).unwrap();
        assert_quiescent(&mt);
    }

    #[test]
    fn long_event_stream_stays_quiescent_and_local() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::gnp(64, 0.1, &mut rng);
        let mut mt = Maintainer::bootstrap(&g, &MaintainConfig::default()).unwrap();
        let mut down: Vec<EdgeId> = Vec::new();
        let mut gone: Vec<usize> = Vec::new();
        let mut localities: Vec<f64> = Vec::new();
        for _ in 0..200 {
            // Pick a random applicable event.
            let ev = loop {
                match rng.random_range(0..4u32) {
                    0 if !down.is_empty() => break ChurnKind::EdgeUp { edge: down.swap_remove(0) },
                    1 => {
                        let live: Vec<EdgeId> =
                            g.edge_ids().filter(|&e| mt.edge_present()[e]).collect();
                        if live.is_empty() {
                            continue;
                        }
                        let e = live[rng.random_range(0..live.len())];
                        down.push(e);
                        break ChurnKind::EdgeDown { edge: e };
                    }
                    2 if !gone.is_empty() => break ChurnKind::Join { node: gone.swap_remove(0) },
                    3 => {
                        let here: Vec<usize> =
                            (0..g.node_count()).filter(|&v| mt.node_present()[v]).collect();
                        if here.len() <= 2 {
                            continue;
                        }
                        let v = here[rng.random_range(0..here.len())];
                        gone.push(v);
                        break ChurnKind::Leave { node: v };
                    }
                    _ => continue,
                }
            };
            let rep = mt.apply(&[ev]).unwrap();
            localities.push(rep.locality());
            assert_quiescent(&mt);
        }
        // Locality: most events touch a small neighbourhood, far below n.
        let mean = localities.iter().sum::<f64>() / localities.len() as f64;
        assert!(mean < 16.0, "mean repair locality {mean} is not local");
    }

    #[test]
    fn batches_match_one_shot_presence() {
        // Applying a batch must land on the same present subgraph as
        // starting fresh from the final presence (matchings may differ —
        // the invariant is what both guarantee).
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::gnp(24, 0.25, &mut rng);
        let mut mt = Maintainer::bootstrap(&g, &MaintainConfig::default()).unwrap();
        let evs = [
            ChurnKind::Leave { node: 3 },
            ChurnKind::EdgeDown { edge: 0 },
            ChurnKind::Leave { node: 10 },
        ];
        mt.apply(&evs).unwrap();
        assert_quiescent(&mt);
        let fresh = Maintainer::with_presence(
            &g,
            mt.node_present().to_vec(),
            mt.edge_present().to_vec(),
            &MaintainConfig::default(),
        )
        .unwrap();
        assert_quiescent(&fresh);
        assert_eq!(mt.node_present(), fresh.node_present());
        assert_eq!(mt.edge_present(), fresh.edge_present());
    }

    #[test]
    fn sanitize_present_drops_absent_edges_and_nodes() {
        let g = generators::path(4); // edges 0:(0,1) 1:(1,2) 2:(2,3)
        let regs = vec![Some(0), Some(0), Some(2), Some(2)];
        let mut edge_present = vec![true; 3];
        edge_present[0] = false;
        let sane = sanitize_present(&g, &regs, &[true; 4], &edge_present);
        assert_eq!(sane.registers, vec![None, None, Some(2), Some(2)]);
        assert_eq!(sane.surviving, 1);
        assert_eq!(sane.dissolved, 2, "both endpoints' claims on the absent edge dissolve");
        let sane = sanitize_present(&g, &regs, &[true, true, true, false], &[true; 3]);
        assert_eq!(sane.registers, vec![Some(0), Some(0), None, None]);
    }

    /// The churn pipeline: LOCAL, default transport, a 500 000-round
    /// guard, maintenance on.
    fn churn_tolerant(g: &Graph, faults: &FaultPlan, churn: &ChurnPlan, seed: u64) -> RunReport {
        let cfg = RuntimeConfig::new()
            .sim(SimConfig::local().seed(seed).max_rounds(500_000))
            .transport(TransportCfg::default())
            .faults(faults.clone())
            .churn(churn.clone())
            .maintain(true);
        run_mm(&IsraeliItai, g, &cfg).unwrap()
    }

    #[test]
    fn churn_pipeline_is_maximal_on_the_final_graph() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::gnp(32, 0.15, &mut rng);
        let churn = ChurnPlan::default()
            .with_absent_nodes(vec![31])
            .with_event(6, ChurnKind::Leave { node: 4 })
            .with_event(9, ChurnKind::EdgeDown { edge: 2 })
            .with_event(12, ChurnKind::Join { node: 31 })
            .with_event(15, ChurnKind::EdgeUp { edge: 2 });
        let report = churn_tolerant(&g, &FaultPlan::default(), &churn, 9);
        report.matching.validate(&g).unwrap();
        let (mut np, ep) = churn.final_presence_on(&g);
        assert!(!np[4] && np[31]);
        np.set(4, false);
        let (np, ep) = (np.to_bools(), ep.to_bools());
        assert!(is_valid_on_present(&g, &report.matching, &np, &ep));
        assert!(is_maximal_on_present(&g, &report.matching, &np, &ep));
        assert_eq!(report.matching.size(), report.surviving + report.added);
        assert!(report.phase1.churn_events == 4);
    }

    #[test]
    fn churn_pipeline_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = generators::gnp(24, 0.2, &mut rng);
        let churn = ChurnPlan::default()
            .with_event(5, ChurnKind::Leave { node: 1 })
            .with_event(8, ChurnKind::EdgeDown { edge: 0 });
        let faults = FaultPlan::lossy(0.05);
        let a = churn_tolerant(&g, &faults, &churn, 77);
        let b = churn_tolerant(&g, &faults, &churn, 77);
        assert_eq!(a.matching.to_edge_vec(), b.matching.to_edge_vec());
        assert_eq!((a.phase1, a.maintain), (b.phase1, b.maintain));
    }
}
