//! Matching repair: self-stabilization after crashes and register damage.
//!
//! A fault-free run of any algorithm in this crate ends with symmetric
//! output registers (§2's convention: `v` stores its matched edge, and
//! the other endpoint stores the same edge). Crashes break that
//! invariant in two ways:
//!
//! - **dangling edges** — a crashed node's partner still points at their
//!   shared edge, but the edge no longer has two live endpoints;
//! - **inconsistent registers** — a node crashed mid-handshake, leaving
//!   one endpoint committed and the other free (or pointing elsewhere).
//!
//! This module restores a valid — and locally maximal — matching among
//! the survivors in two steps:
//!
//! 1. [`sanitize_registers`]: a *local* cross-validation pass. A node
//!    keeps its register only if the claimed edge exists, is incident to
//!    it, and its partner is alive and points back at the same edge.
//!    Everything else is dissolved; in particular a crashed node's
//!    partner is freed. What remains is the **surviving consistent
//!    matching** — provably a valid matching.
//! 2. [`crate::runtime::repair_registers`]: the survivors re-run the
//!    algorithm (for Israeli–Itai, [`crate::israeli_itai`]) on the
//!    *residual graph* (live nodes, minus already-matched ones),
//!    optionally wrapped in the resilient transport
//!    ([`dam_congest::transport::Resilient`]) so the repair itself
//!    tolerates message loss, duplication and reordering. Matched
//!    survivors only re-announce their match and halt; free survivors
//!    compete for the remaining edges. Since a committed match is never
//!    released, the repaired matching always **contains** the surviving
//!    consistent matching — repair can only grow it.
//!
//! The runtime's repair layer ([`crate::runtime::RuntimeConfig::repair`])
//! packages the full pipeline: run the algorithm under an adversarial
//! [`dam_congest::FaultPlan`], then sanitize and repair, with per-phase
//! cost accounting in the [`crate::runtime::RunReport`].

use dam_congest::RunStats;
use dam_graph::{BitSet, EdgeId, Graph, Matching, Topology};

/// The result of [`sanitize_registers`]: cross-validated registers plus
/// an accounting of what was kept and what was dissolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sanitized {
    /// Registers after validation: `Some(e)` only where both endpoints
    /// of `e` are alive and agree.
    pub registers: Vec<Option<EdgeId>>,
    /// Edges of the surviving consistent matching.
    pub surviving: usize,
    /// Distinct claimed edges (or out-of-range claims) that failed
    /// validation and were dissolved.
    pub dissolved: usize,
}

/// Cross-validates per-node match registers against the graph and a
/// liveness vector (step 1 of the module pipeline).
///
/// A register entry `registers[v] = Some(e)` survives iff all of:
/// `v` is alive, `e` is a real edge incident to `v`, the other endpoint
/// `u` is alive, and `registers[u] == Some(e)`. Every other claim is
/// cleared. The surviving entries form a valid matching by construction
/// (each node claims at most one edge).
///
/// # Panics
/// Panics if `registers` or `alive` is not one entry per node.
#[must_use]
pub fn sanitize_registers(g: &Graph, registers: &[Option<EdgeId>], alive: &[bool]) -> Sanitized {
    sanitize_registers_on(g, registers, &BitSet::from_bools(alive))
}

/// The canonical entry of [`sanitize_registers`]: cross-validates on
/// any [`Topology`] with the liveness mask as a word-packed [`BitSet`]
/// — the representation the runtime pipeline and checkpoint codec
/// share.
///
/// # Panics
/// Panics if `registers` or `alive` is not one entry per node.
#[must_use]
pub fn sanitize_registers_on(
    g: &dyn Topology,
    registers: &[Option<EdgeId>],
    alive: &BitSet,
) -> Sanitized {
    let mut out = registers.to_vec();
    let mut claimed = BitSet::new(g.edge_count());
    let (surviving, bogus_claims) = sanitize_in_place(g, &mut out, alive, Some(&mut claimed));
    let dissolved = bogus_claims + claimed.count_ones().saturating_sub(surviving);
    Sanitized { registers: out, surviving, dissolved }
}

/// [`sanitize_registers_on`] in place: clears every register that fails
/// validation and returns `(surviving, out-of-range claims)`; `claimed`,
/// if given, collects every in-range claimed edge. The bipartite and
/// weighted drivers run it after every pass without `claimed`, so it
/// allocates nothing.
///
/// Working in place gives the same result as reading a copy: `v`'s own
/// register is read before it is cleared, and a partner `u` that
/// claimed `v`'s edge was cleared only if one of the two is dead, in
/// which case `v` fails validation anyway.
///
/// # Panics
/// Panics if `registers` or `alive` is not one entry per node.
pub(crate) fn sanitize_in_place(
    g: &dyn Topology,
    registers: &mut [Option<EdgeId>],
    alive: &BitSet,
    mut claimed: Option<&mut BitSet>,
) -> (usize, usize) {
    let n = g.node_count();
    assert_eq!(registers.len(), n, "one register per node");
    assert_eq!(alive.len(), n, "one liveness flag per node");
    let m = g.edge_count();
    let mut bogus_claims = 0usize;
    let mut surviving = 0usize;
    for v in 0..n {
        let Some(e) = registers[v] else { continue };
        if e >= m {
            bogus_claims += 1;
            registers[v] = None;
            continue;
        }
        if let Some(claimed) = claimed.as_deref_mut() {
            claimed.set(e, true);
        }
        let partner = match g.endpoints(e) {
            (a, b) if a == v => Some(b),
            (a, b) if b == v => Some(a),
            _ => None,
        };
        match partner {
            Some(u) if alive[v] && alive[u] && registers[u] == Some(e) => {
                if v < u {
                    surviving += 1;
                }
            }
            _ => registers[v] = None,
        }
    }
    (surviving, bogus_claims)
}

/// The result of a repair pass ([`crate::runtime::repair_registers`]).
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// The repaired matching: valid, contains the surviving consistent
    /// matching, and (w.h.p.) maximal on the residual graph.
    pub matching: Matching,
    /// Edges of the surviving consistent matching (kept by sanitize).
    pub surviving: usize,
    /// Claimed edges dissolved by sanitize.
    pub dissolved: usize,
    /// Edges added by the repair run on the residual graph.
    pub added: usize,
    /// Cost of the distributed repair run.
    pub stats: RunStats,
}

/// Checks that `m` is maximal on the residual graph: no edge joins two
/// alive, unmatched nodes. (Exposed for tests and experiments.)
///
/// This is [`crate::maintain::is_maximal_on_present`] specialized to
/// the crash-only setting where every edge is present.
#[must_use]
pub fn is_maximal_on_residual(g: &Graph, m: &Matching, alive: &[bool]) -> bool {
    crate::maintain::is_maximal_on_present(g, m, alive, &vec![true; g.edge_count()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::israeli_itai::israeli_itai;
    use crate::runtime::{repair_registers, run_mm, IsraeliItai, RunReport, RuntimeConfig};
    use dam_congest::{FaultPlan, SimConfig, TransportCfg, TransportMode};
    use dam_graph::{generators, NodeId};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn sanitize_frees_partner_of_dead_node() {
        let g = generators::path(4); // edges 0:(0,1) 1:(1,2) 2:(2,3)
        let regs = vec![Some(0), Some(0), Some(2), Some(2)];
        let mut alive = vec![true; 4];
        alive[0] = false;
        let sane = sanitize_registers(&g, &regs, &alive);
        // Edge 0 is dangling (node 0 dead): node 1 must be freed.
        assert_eq!(sane.registers, vec![None, None, Some(2), Some(2)]);
        assert_eq!(sane.surviving, 1);
        assert_eq!(sane.dissolved, 1);
    }

    #[test]
    fn sanitize_dissolves_inconsistent_and_bogus_claims() {
        let g = generators::path(4);
        // Node 1 claims edge 1, node 2 claims edge 2 (disagreement),
        // node 3 agrees with node 2, node 0 claims an out-of-range edge.
        let regs = vec![Some(9), Some(1), Some(2), Some(2)];
        let alive = vec![true; 4];
        let sane = sanitize_registers(&g, &regs, &alive);
        assert_eq!(sane.registers, vec![None, None, Some(2), Some(2)]);
        assert_eq!(sane.surviving, 1);
        assert_eq!(sane.dissolved, 2); // edge 1 + the bogus claim
    }

    /// The self-healing pipeline: LOCAL, default transport, a
    /// 500 000-round guard, repair on.
    fn self_healing(g: &Graph, plan: &FaultPlan, seed: u64) -> RunReport {
        let sim = SimConfig::local().seed(seed).max_rounds(500_000);
        let cfg = RuntimeConfig::new()
            .sim(sim)
            .transport(TransportCfg::default())
            .faults(plan.clone())
            .repair(true);
        run_mm(&IsraeliItai, g, &cfg).unwrap()
    }

    #[test]
    fn repair_restores_maximality_and_keeps_survivors() {
        let mut rng = StdRng::seed_from_u64(8);
        for trial in 0..10 {
            let g = generators::gnp(40, 0.12, &mut rng);
            let base = israeli_itai(&g, trial).unwrap();
            let mut regs: Vec<Option<EdgeId>> =
                (0..g.node_count()).map(|v| base.matching.matched_edge(v)).collect();
            // Kill ~15% of nodes; also corrupt one survivor's register.
            let alive: Vec<bool> = (0..g.node_count()).map(|_| !rng.random_bool(0.15)).collect();
            if let Some(v) = (0..g.node_count()).find(|&v| alive[v] && regs[v].is_none()) {
                if g.degree(v) > 0 {
                    regs[v] = Some(g.port(v, 0).1); // one-sided claim
                }
            }
            let sane = sanitize_registers(&g, &regs, &alive);
            let report = repair_registers(
                &IsraeliItai,
                &g,
                &regs,
                &BitSet::from_bools(&alive),
                &FaultPlan::default(),
                Some(TransportMode::Fixed(TransportCfg::default())),
                SimConfig::local().seed(100 + trial).max_rounds(500_000),
            )
            .unwrap();
            report.matching.validate(&g).unwrap();
            // Monotone: every surviving consistent edge is still matched.
            for v in 0..g.node_count() {
                if let Some(e) = sane.registers[v] {
                    assert!(report.matching.contains(e), "trial {trial}: surviving edge lost");
                }
            }
            assert!(report.matching.size() >= sane.surviving);
            assert!(
                is_maximal_on_residual(&g, &report.matching, &alive),
                "trial {trial}: repair left an augmentable edge"
            );
        }
    }

    #[test]
    fn self_healing_under_loss_and_crashes() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::gnp(48, 0.1, &mut rng);
        let crashes: Vec<(NodeId, usize)> = vec![(3, 5), (17, 9), (31, 2)];
        let plan = FaultPlan { crashes, loss: 0.05, ..FaultPlan::default() };
        let report = self_healing(&g, &plan, 0);
        report.matching.validate(&g).unwrap();
        assert_eq!(report.excluded, vec![3, 17, 31]);
        let alive: Vec<bool> = (0..g.node_count()).map(|v| !report.excluded.contains(&v)).collect();
        assert!(is_maximal_on_residual(&g, &report.matching, &alive));
        // No dead node is matched.
        for &v in &report.excluded {
            assert!(report.matching.is_free(v));
        }
        assert_eq!(report.matching.size(), report.surviving + report.added);
    }

    #[test]
    fn self_healing_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(10);
        let g = generators::gnp(30, 0.15, &mut rng);
        let plan =
            FaultPlan { crashes: vec![(5, 4)], loss: 0.1, dup: 0.05, ..FaultPlan::default() };
        let a = self_healing(&g, &plan, 42);
        let b = self_healing(&g, &plan, 42);
        assert_eq!(a.matching.to_edge_vec(), b.matching.to_edge_vec());
        assert_eq!((a.phase1, a.repair), (b.phase1, b.repair));
    }

    #[test]
    fn crash_recovered_nodes_rejoin_via_repair() {
        // Node 1 of a path crashes and recovers: phase 1 leaves it
        // unmatched (its fresh incarnation is quarantined), but repair
        // runs on the full survivor set, so it can be matched again.
        let g = generators::path(6);
        let plan = FaultPlan::crashes(vec![(1, 4)]).with_recoveries(vec![(1, 30)]);
        let report = self_healing(&g, &plan, 0);
        report.matching.validate(&g).unwrap();
        assert!(report.excluded.is_empty());
        let alive = vec![true; 6];
        assert!(is_maximal_on_residual(&g, &report.matching, &alive));
    }
}
