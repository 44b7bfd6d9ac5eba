//! Self-verifying certified matchings: proof-labeling local checking,
//! Byzantine register lies, and a detect → repair → re-verify pipeline.
//!
//! The paper assumes honest processors and a faithful network (§2); this
//! module drops that assumption for the *output*. After a run every node
//! holds a match register, and we compute a **certificate** that the
//! registers encode a valid matching, maximal on the trusted domain —
//! distributedly, in the style of proof-labeling schemes (Korman, Kutten
//! & Peleg): each invariant is locally checkable, so every violation is
//! witnessed by at least one node that can see it from its own register
//! and one broadcast per neighbour.
//!
//! The locally checkable invariants, and who flags a violation:
//!
//! 1. **register validity** — a claimed edge exists and is incident to
//!    the claimant ([`CertFault::InvalidRegister`], flagged by the
//!    claimant);
//! 2. **symmetry** — the partner across the claimed edge is present
//!    ([`CertFault::PartnerAbsent`]) and claims the same edge
//!    ([`CertFault::Asymmetric`]); flagged by whichever endpoint sees
//!    the mismatch;
//! 3. **maximality, i.e. the ½-approximation witness** — no edge joins
//!    two free present nodes ([`CertFault::Uncovered`], flagged by both
//!    endpoints). When this holds the matched vertices form a vertex
//!    cover of size `2|M|`, the classical witness that
//!    `|M| ≥ ½·MCM` on the trusted graph.
//!
//! Verification costs **two rounds regardless of `n`** — one broadcast,
//! one local check — which is the constant detection latency experiment
//! E17 measures. A certificate accepts a *predicate*, not a history: if
//! Byzantine lies happen to manufacture registers that still satisfy all
//! three invariants (e.g. two adjacent free liars both claiming their
//! shared edge), the outcome is genuinely a valid maximal matching and
//! is rightly certified.
//!
//! The runtime's certification layer
//! ([`crate::runtime::RuntimeConfig::certify`], with `repair` on)
//! packages the full pipeline: run the algorithm under an adversarial
//! [`dam_congest::FaultPlan`], apply the plan's register lies, certify,
//! and — on detection — clear every flagged register, sanitize, re-run
//! localized repair ([`crate::repair`]) under the plan's link-level
//! faults, and certify again. Equivocators are excluded from the
//! trusted domain exactly as if they had crashed: their traffic fails
//! transport integrity validation until neighbours quarantine them, the
//! classical reduction of channel-level Byzantine faults to crash
//! faults. Liars stay in the domain — a lie corrupts the *report*, not
//! the node — so repair re-matches them honestly.

use dam_congest::{rng, BitSize, Context, Network, Port, Protocol, RunStats, SimConfig};
use dam_graph::{BitSet, EdgeId, Graph, NodeId, Topology};

use crate::error::CoreError;

/// Domain-separation key for the deterministic lie stream
/// ([`apply_lies`]), chained through [`rng::splitmix64`].
const LIE_DOMAIN: u64 = 0x11AB_5BAD_4E61_57E4;
/// Domain-separation key deriving the checker seed from the run seed in
/// the certification layer of [`crate::runtime::run_mm`].
pub(crate) const CHECK_DOMAIN: u64 = 0xCE47_1F1E_D5EE_D001;
/// Domain-separation key for the post-repair re-verification.
pub(crate) const RECHECK_DOMAIN: u64 = 0x2ECE_27F1_CA7E_0001;

/// The verification broadcast: either "I am absent" (crashed or
/// quarantined — in the simulation the harness supplies presence; in a
/// deployment the transport's failure detector does) or the sender's
/// claimed match register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMsg {
    /// The sender is outside the trusted domain.
    Absent,
    /// The sender's claimed register (its matched edge, if any).
    Reg(Option<EdgeId>),
}

impl BitSize for CheckMsg {
    /// Two tag bits, plus an edge id for matched claims — `O(log n)`,
    /// so certification is CONGEST-compatible even though the checker
    /// runs under LOCAL for simplicity.
    fn bit_size(&self) -> usize {
        match self {
            CheckMsg::Absent | CheckMsg::Reg(None) => 2,
            CheckMsg::Reg(Some(_)) => 2 + 64,
        }
    }
}

/// A certification fault detected by the local checker at some node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertFault {
    /// The node claims an edge that does not exist or is not incident
    /// to it.
    InvalidRegister,
    /// The partner across the claimed edge is present but claims a
    /// different register.
    Asymmetric,
    /// The partner across the claimed edge is absent (crashed or
    /// quarantined), leaving the claim dangling.
    PartnerAbsent,
    /// The node and a present neighbour are both free: their shared
    /// edge is uncovered, so the matching is not maximal and the
    /// vertex-cover witness fails.
    Uncovered,
}

/// Per-node state of the distributed checker. Incidence of the claimed
/// edge is resolved against the topology at construction (a node knows
/// its own ports); everything else needs exactly one broadcast round.
struct CheckerNode<'a> {
    /// Edge presence: nothing is sent over a port whose edge is down,
    /// so a free neighbour there leaves no edge uncovered and a claim
    /// across it is left without a partner.
    edges: &'a BitSet,
    present: bool,
    claim: Option<EdgeId>,
    /// Port towards the claimed partner; `None` when free or when the
    /// claim is invalid.
    partner_port: Option<Port>,
    invalid: bool,
    verdict: Option<CertFault>,
}

impl<'a> CheckerNode<'a> {
    fn new(
        v: NodeId,
        g: &dyn Topology,
        edges: &'a BitSet,
        claim: Option<EdgeId>,
        present: bool,
    ) -> CheckerNode<'a> {
        let mut partner_port = None;
        let mut invalid = false;
        if present {
            if let Some(e) = claim {
                partner_port = g.incident(v).find(|&(_, _, e2)| e2 == e).map(|(p, _, _)| p);
                invalid = partner_port.is_none();
            }
        }
        CheckerNode { edges, present, claim, partner_port, invalid, verdict: None }
    }
}

impl Protocol for CheckerNode<'_> {
    type Msg = CheckMsg;
    type Output = Option<CertFault>;

    fn on_start(&mut self, ctx: &mut Context<'_, CheckMsg>) {
        let msg = if self.present { CheckMsg::Reg(self.claim) } else { CheckMsg::Absent };
        for p in ctx.ports() {
            if self.edges[ctx.edge(p)] {
                ctx.send(p, msg);
            }
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_, CheckMsg>, inbox: &[(Port, CheckMsg)]) {
        if self.present {
            self.verdict = if self.invalid {
                Some(CertFault::InvalidRegister)
            } else if let Some(p) = self.partner_port {
                match inbox.iter().find(|&&(q, _)| q == p).map(|&(_, m)| m) {
                    Some(CheckMsg::Reg(r)) if r == self.claim => None,
                    Some(CheckMsg::Reg(_)) => Some(CertFault::Asymmetric),
                    // An absent partner, or no broadcast at all: the
                    // claimed edge is down.
                    _ => Some(CertFault::PartnerAbsent),
                }
            } else if inbox.iter().any(|&(_, m)| m == CheckMsg::Reg(None)) {
                // `partner_port` is None and the claim is not invalid,
                // so this node is free; a `Reg(None)` neighbour is a
                // free present node across an uncovered edge.
                Some(CertFault::Uncovered)
            } else {
                None
            };
        }
        ctx.halt();
    }

    fn into_output(self) -> Option<CertFault> {
        self.verdict
    }
}

/// The outcome of one distributed verification pass.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// Per-node verdicts (`None` = the node attests its local view).
    pub verdicts: Vec<Option<CertFault>>,
    /// Nodes that flagged a fault, ascending.
    pub flagged: Vec<NodeId>,
    /// Present (trusted) nodes that participated in the check.
    pub checked: usize,
    /// Matched edges attested symmetric by two unflagged endpoints.
    pub matched: usize,
    /// Rounds the verification took — constant (2) by construction,
    /// independent of `n`; recorded so experiments can assert it.
    pub detection_rounds: u64,
    /// Cost accounting of the verification run.
    pub stats: RunStats,
}

impl Certificate {
    /// Whether the registers were certified: no node flagged a fault.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.flagged.is_empty()
    }
}

/// Runs the distributed proof-labeling checker over `registers`.
///
/// Every node (absent ones included — they broadcast [`CheckMsg::Absent`],
/// standing in for the failure detector) participates in one broadcast
/// round and one check round under a fault-free LOCAL configuration; the
/// per-node verdicts are aggregated into a [`Certificate`].
///
/// Convenience wrapper over [`certify_on`] for slice masks and CSR
/// graphs; the runtime pipeline calls [`certify_present`] directly.
///
/// # Errors
/// Propagates simulator errors (none are expected from a two-round
/// fault-free run, but the checker refuses to unwrap).
///
/// # Panics
/// Panics if `registers` or `present` is not one entry per node.
pub fn certify(
    g: &Graph,
    registers: &[Option<EdgeId>],
    present: &[bool],
    seed: u64,
) -> Result<Certificate, CoreError> {
    certify_on(g, registers, &BitSet::from_bools(present), seed)
}

/// [`certify_present`] with every edge present: the checker on any
/// [`Topology`] (implicit families included) with the node presence
/// mask as a word-packed [`BitSet`].
///
/// # Errors
/// As [`certify_present`].
///
/// # Panics
/// Panics if `registers` or `present` is not one entry per node.
pub fn certify_on(
    g: &dyn Topology,
    registers: &[Option<EdgeId>],
    present: &BitSet,
    seed: u64,
) -> Result<Certificate, CoreError> {
    certify_present(g, registers, present, &BitSet::filled(g.edge_count(), true), seed)
}

/// The canonical entry of [`certify`]: runs the distributed checker on
/// any [`Topology`] (implicit families included) with the node and edge
/// presence masks as word-packed [`BitSet`]s — the representation the
/// runtime's pipeline carries end to end. The check covers the present
/// subgraph: nothing crosses an edge that is down, so an edge down
/// between two free nodes leaves nothing uncovered, and a register
/// claiming a down edge has no partner.
///
/// # Errors
/// Propagates simulator errors (none are expected from a two-round
/// fault-free run, but the checker refuses to unwrap).
///
/// # Panics
/// Panics if `registers` or `present` is not one entry per node, or
/// `edge_present` not one entry per edge.
pub fn certify_present(
    g: &dyn Topology,
    registers: &[Option<EdgeId>],
    present: &BitSet,
    edge_present: &BitSet,
    seed: u64,
) -> Result<Certificate, CoreError> {
    let n = g.node_count();
    assert_eq!(registers.len(), n, "one register per node");
    assert_eq!(present.len(), n, "one presence flag per node");
    assert_eq!(edge_present.len(), g.edge_count(), "one presence flag per edge");
    let mut net = Network::new(g, SimConfig::local().seed(seed));
    let out =
        net.run(|v, graph| CheckerNode::new(v, graph, edge_present, registers[v], present[v]))?;
    let verdicts = out.outputs;
    let flagged: Vec<NodeId> =
        verdicts.iter().enumerate().filter_map(|(v, f)| f.map(|_| v)).collect();
    let mut matched = 0;
    for v in 0..n {
        if !present[v] || verdicts[v].is_some() {
            continue;
        }
        // An unflagged claim is valid and incident, so the lookup is total.
        if let Some(e) = registers[v] {
            let u = g.other_endpoint(e, v);
            if v < u && present[u] && verdicts[u].is_none() && registers[u] == Some(e) {
                matched += 1;
            }
        }
    }
    Ok(Certificate {
        verdicts,
        flagged,
        checked: present.count_ones(),
        matched,
        detection_rounds: out.stats.rounds,
        stats: out.stats,
    })
}

/// The centralized twin of [`certify_present`]: same verdicts, no
/// simulator.
///
/// Exists to cross-validate the distributed checker (the tests assert
/// both produce identical verdict vectors on arbitrary damage) and for
/// callers that want an oracle without paying for a run.
///
/// # Panics
/// Panics if `registers` or `present` is not one entry per node, or
/// `edge_present` not one entry per edge.
#[must_use]
pub fn check_registers(
    g: &Graph,
    registers: &[Option<EdgeId>],
    present: &[bool],
    edge_present: &[bool],
) -> Vec<Option<CertFault>> {
    let n = g.node_count();
    assert_eq!(registers.len(), n, "one register per node");
    assert_eq!(present.len(), n, "one presence flag per node");
    assert_eq!(edge_present.len(), g.edge_count(), "one presence flag per edge");
    let mut verdicts = vec![None; n];
    for v in 0..n {
        if !present[v] {
            continue;
        }
        verdicts[v] = match registers[v] {
            Some(e) => {
                if e >= g.edge_count() || {
                    let (a, b) = g.endpoints(e);
                    v != a && v != b
                } {
                    Some(CertFault::InvalidRegister)
                } else {
                    let u = g.other_endpoint(e, v);
                    if !present[u] || !edge_present[e] {
                        Some(CertFault::PartnerAbsent)
                    } else if registers[u] != Some(e) {
                        Some(CertFault::Asymmetric)
                    } else {
                        None
                    }
                }
            }
            None => g
                .incident(v)
                .any(|(_, u, e)| edge_present[e] && present[u] && registers[u].is_none())
                .then_some(CertFault::Uncovered),
        };
    }
    verdicts
}

/// Applies the deterministic register lies of
/// [`dam_congest::FaultPlan::liars`].
///
/// Each liar's corrupted report is derived from `(seed, node)` through
/// [`rng::splitmix64`] under a dedicated domain key, so lies are
/// engine-agnostic and bit-identically replayable. A lie is one of:
/// deny the match (`None`), claim an arbitrary in-range edge (possibly
/// non-incident), or claim an out-of-range edge. A lie always *changes*
/// the register — when the drawn lie happens to equal the honest value
/// it falls back to an out-of-range claim, which no honest register can
/// hold.
pub fn apply_lies(
    registers: &mut [Option<EdgeId>],
    liars: &[NodeId],
    seed: u64,
    edge_count: usize,
) {
    for &v in liars {
        let h = rng::splitmix64(rng::splitmix64(seed ^ LIE_DOMAIN) ^ v as u64);
        let pick = rng::splitmix64(h);
        let lie = match h % 3 {
            0 => None,
            1 => Some((pick % edge_count.max(1) as u64) as EdgeId),
            _ => Some(edge_count + (pick % 7) as usize),
        };
        registers[v] =
            if lie == registers[v] { Some(edge_count + 7 + (pick % 7) as usize) } else { lie };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::israeli_itai::israeli_itai;
    use crate::repair::is_maximal_on_residual;
    use crate::runtime::{run_mm, IsraeliItai, RunReport, RuntimeConfig};
    use dam_congest::{FaultPlan, TransportCfg};
    use dam_graph::{generators, Matching};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn regs_of(g: &Graph, m: &Matching) -> Vec<Option<EdgeId>> {
        let mut regs = vec![None; g.node_count()];
        for e in m.to_edge_vec() {
            let (a, b) = g.endpoints(e);
            regs[a] = Some(e);
            regs[b] = Some(e);
        }
        regs
    }

    #[test]
    fn fault_free_outputs_certify() {
        let mut rng = StdRng::seed_from_u64(1);
        for trial in 0..10 {
            let g = generators::gnp(30, 0.15, &mut rng);
            let report = israeli_itai(&g, trial).unwrap();
            let regs = regs_of(&g, &report.matching);
            let cert = certify(&g, &regs, &[true; 30], trial).unwrap();
            assert!(cert.ok(), "fault-free registers must certify (trial {trial})");
            assert_eq!(cert.checked, 30);
            assert_eq!(cert.matched, report.matching.size());
        }
    }

    #[test]
    fn flags_each_fault_kind() {
        let g = generators::path(6); // edges i: (i, i+1)
        let all = vec![true; 6];

        // Out-of-range claim.
        let regs = vec![Some(9), None, Some(2), Some(2), None, None];
        let cert = certify(&g, &regs, &all, 0).unwrap();
        assert_eq!(cert.verdicts[0], Some(CertFault::InvalidRegister));

        // Non-incident claim: node 0 claims edge 3 = (3, 4).
        let regs = vec![Some(3), None, Some(2), Some(2), None, None];
        let cert = certify(&g, &regs, &all, 0).unwrap();
        assert_eq!(cert.verdicts[0], Some(CertFault::InvalidRegister));

        // Asymmetry: node 0 claims edge 0 but node 1 claims edge 1.
        let regs = vec![Some(0), Some(1), Some(1), None, Some(4), Some(4)];
        let cert = certify(&g, &regs, &all, 0).unwrap();
        assert_eq!(cert.verdicts[0], Some(CertFault::Asymmetric));
        assert_eq!(cert.verdicts[1], None, "nodes 1-2 agree on edge 1");
        assert_eq!(cert.matched, 2);

        // Dangling claim: node 1 is absent, its partner 0 must notice.
        let mut present = all.clone();
        present[1] = false;
        let regs = vec![Some(0), Some(0), Some(2), Some(2), Some(4), Some(4)];
        let cert = certify(&g, &regs, &present, 0).unwrap();
        assert_eq!(cert.verdicts[0], Some(CertFault::PartnerAbsent));
        assert_eq!(cert.checked, 5);

        // Uncovered edge: everyone free — every node has a free neighbour.
        let regs = vec![None; 6];
        let cert = certify(&g, &regs, &all, 0).unwrap();
        assert!(cert.verdicts.iter().all(|&f| f == Some(CertFault::Uncovered)));
    }

    #[test]
    fn distributed_matches_centralized_on_arbitrary_damage() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..20 {
            let g = generators::gnp(25, 0.2, &mut rng);
            let report = israeli_itai(&g, trial).unwrap();
            let mut regs = regs_of(&g, &report.matching);
            let mut present = vec![true; 25];
            for _ in 0..6 {
                let v = rng.random_range(0..25usize);
                regs[v] = match rng.random_range(0..3u8) {
                    0 => None,
                    1 => Some(rng.random_range(0..g.edge_count().max(1))),
                    _ => Some(g.edge_count() + rng.random_range(0..5usize)),
                };
            }
            for _ in 0..3 {
                present[rng.random_range(0..25usize)] = false;
            }
            let cert = certify(&g, &regs, &present, trial).unwrap();
            assert_eq!(
                cert.verdicts,
                check_registers(&g, &regs, &present, &vec![true; g.edge_count()]),
                "distributed and centralized checkers disagree (trial {trial})"
            );
        }
    }

    #[test]
    fn edges_down_are_outside_the_check() {
        let mut rng = StdRng::seed_from_u64(8);
        for trial in 0..20 {
            let g = generators::gnp(25, 0.2, &mut rng);
            let regs = regs_of(&g, &israeli_itai(&g, trial).unwrap().matching);
            let present = vec![true; 25];
            let mut edges = vec![true; g.edge_count()];
            for _ in 0..4 {
                if let Some(e) = edges.len().checked_sub(1).map(|m| rng.random_range(0..=m)) {
                    edges[e] = false;
                }
            }
            let (node_mask, edge_mask) = (BitSet::from_bools(&present), BitSet::from_bools(&edges));
            let cert = certify_present(&g, &regs, &node_mask, &edge_mask, trial).unwrap();
            assert_eq!(
                cert.verdicts,
                check_registers(&g, &regs, &present, &edges),
                "trial {trial}"
            );
        }
        // Two free nodes joined only by a down edge leave nothing uncovered.
        let g = Graph::builder(2).edge(0, 1).build().unwrap();
        let (nodes, down) = (BitSet::filled(2, true), BitSet::filled(1, false));
        assert!(certify_present(&g, &[None, None], &nodes, &down, 0).unwrap().ok());
        // A claim across a down edge has no partner.
        let cert = certify_present(&g, &[Some(0), Some(0)], &nodes, &down, 0).unwrap();
        assert_eq!(cert.verdicts, vec![Some(CertFault::PartnerAbsent); 2]);
    }

    #[test]
    fn detection_latency_is_constant() {
        let mut rng = StdRng::seed_from_u64(3);
        let small = generators::gnp(16, 0.3, &mut rng);
        let large = generators::gnp(256, 0.05, &mut rng);
        let c_small = certify(&small, &vec![None; 16], &[true; 16], 0).unwrap();
        let c_large = certify(&large, &vec![None; 256], &[true; 256], 0).unwrap();
        assert_eq!(c_small.detection_rounds, c_large.detection_rounds);
        assert!(c_small.detection_rounds <= 2, "verification is one broadcast + one check");
    }

    #[test]
    fn lies_are_deterministic_and_always_detected() {
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..10 {
            let g = generators::gnp(30, 0.2, &mut rng);
            let report = israeli_itai(&g, trial).unwrap();
            let honest = regs_of(&g, &report.matching);
            let liars = [0, 7, 19];
            let mut a = honest.clone();
            apply_lies(&mut a, &liars, 42 + trial, g.edge_count());
            let mut b = honest.clone();
            apply_lies(&mut b, &liars, 42 + trial, g.edge_count());
            assert_eq!(a, b, "lies must be replayable");
            for &v in &liars {
                assert_ne!(a[v], honest[v], "a lie must change node {v}'s register");
            }
            let cert = certify(&g, &a, &[true; 30], trial).unwrap();
            assert!(!cert.ok(), "an effective lie flags at least one node (trial {trial})");
        }
    }

    /// The certified pipeline: LOCAL, default transport, a 500 000-round
    /// guard, certify and repair on.
    fn certified(g: &Graph, plan: &FaultPlan, seed: u64) -> RunReport {
        let cfg = RuntimeConfig::new()
            .sim(SimConfig::local().seed(seed).max_rounds(500_000))
            .transport(TransportCfg::default())
            .faults(plan.clone())
            .certify(true)
            .repair(true);
        run_mm(&IsraeliItai, g, &cfg).unwrap()
    }

    #[test]
    fn clean_certified_run_skips_repair() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::gnp(30, 0.15, &mut rng);
        let report = certified(&g, &FaultPlan::default(), 9);
        assert!(!report.detected());
        assert!(report.certified());
        assert!(report.recheck.is_none());
        assert_eq!(report.repair_touched, 0);
        report.matching.validate(&g).unwrap();
        assert!(is_maximal_on_residual(&g, &report.matching, &[true; 30]));
    }

    #[test]
    fn certified_run_detects_and_repairs_lies() {
        let mut rng = StdRng::seed_from_u64(13);
        for trial in 0..5 {
            let g = generators::gnp(30, 0.15, &mut rng);
            let plan = FaultPlan::lossy(0.05).with_liars(vec![1, 2, 3]);
            let report = certified(&g, &plan, 100 + trial);
            assert!(report.detected(), "lies must be detected (trial {trial})");
            assert!(report.certified(), "repair must re-certify (trial {trial})");
            report.matching.validate(&g).unwrap();
            assert!(is_maximal_on_residual(&g, &report.matching, &[true; 30]));
            assert!(report.repair.is_some());
            let checked = report.initial.as_ref().unwrap().checked;
            assert!(report.repair_touched <= checked, "locality is a fraction");
        }
    }

    #[test]
    fn certified_run_excludes_crashed_and_equivocators() {
        let mut rng = StdRng::seed_from_u64(17);
        let g = generators::gnp(30, 0.2, &mut rng);
        let plan = FaultPlan::crashes(vec![(3, 2)]).with_equivocators(vec![7]);
        let report = certified(&g, &plan, 21);
        assert_eq!(report.excluded, vec![3, 7]);
        assert!(report.certified());
        report.matching.validate(&g).unwrap();
        let mut alive = vec![true; 30];
        alive[3] = false;
        alive[7] = false;
        for e in report.matching.to_edge_vec() {
            let (a, b) = g.endpoints(e);
            assert!(alive[a] && alive[b], "no matched edge may touch an excluded node");
        }
        assert!(is_maximal_on_residual(&g, &report.matching, &alive));
    }

    #[test]
    fn certified_run_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(19);
        let g = generators::gnp(25, 0.2, &mut rng);
        let plan = FaultPlan::lossy(0.05).with_corrupt(0.02).with_liars(vec![4]);
        let a = certified(&g, &plan, 5);
        let b = certified(&g, &plan, 5);
        assert_eq!(a.matching.to_edge_vec(), b.matching.to_edge_vec());
        assert_eq!(a.initial.unwrap().flagged, b.initial.unwrap().flagged);
        assert_eq!(a.repair_touched, b.repair_touched);
    }
}
