//! The Israeli–Itai randomized maximal matching — the classical baseline.
//!
//! Israeli & Itai (1986) gave the first `O(log n)`-round CONGEST
//! algorithm computing a *maximal* matching, hence a `½`-MCM. It is the
//! algorithm the paper improves on (and the ancestor of the PIM/iSLIP
//! switch schedulers of §1). We implement the classic propose/accept
//! formulation:
//!
//! Each iteration takes three rounds. Every still-free node flips a coin:
//! *senders* propose over a uniformly random live port; *receivers*
//! accept one incoming proposal uniformly at random. An accepted proposal
//! matches the pair; matched nodes announce themselves dead so neighbours
//! stop counting them. A node halts when it is matched or all its
//! neighbours are; at that point no edge has two free endpoints, i.e. the
//! matching is maximal.
//!
//! Messages are 2 bits — far below any CONGEST budget.

use dam_congest::{BitSize, Context, CorruptKind, Port, Protocol, SimConfig};
use dam_graph::{EdgeId, Graph};
use rand::rngs::StdRng;
use rand::RngExt;

use crate::error::CoreError;
use crate::report::AlgorithmReport;
use crate::runtime::{run_mm, IsraeliItai, RuntimeConfig};

/// Protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IiMsg {
    /// A sender proposes the shared edge.
    Propose,
    /// A receiver accepts one proposal.
    Accept,
    /// "I am matched" — remove me from your free-neighbour set.
    Dead,
}

impl BitSize for IiMsg {
    fn bit_size(&self) -> usize {
        2
    }

    /// Semantic transit damage for the 2-bit codeword. Codes: `00`
    /// Propose, `01` Accept, `10` Dead; `11` is unused, so damage
    /// landing there is undecodable and the message is lost in
    /// transit (`None`).
    fn corrupted(&self, kind: CorruptKind, rng: &mut StdRng) -> Option<Self> {
        let decode = |code: u8| match code {
            0b00 => Some(IiMsg::Propose),
            0b01 => Some(IiMsg::Accept),
            0b10 => Some(IiMsg::Dead),
            _ => None,
        };
        let code = match self {
            IiMsg::Propose => 0b00u8,
            IiMsg::Accept => 0b01,
            IiMsg::Dead => 0b10,
        };
        match kind {
            CorruptKind::BitFlip => decode(code ^ (1 << rng.random_range(0..2u32))),
            // A 2-bit message has no payload to shorten: truncation
            // destroys it.
            CorruptKind::Truncate => None,
            CorruptKind::Garbage => decode(rng.random_range(0..4u8)),
            CorruptKind::Replay => Some(*self),
            // The most damaging forgery for a matching protocol: a fake
            // acceptance desynchronizes the endpoints' registers —
            // exactly the damage certification exists to catch.
            CorruptKind::Forge => Some(IiMsg::Accept),
        }
    }
}

/// Per-node state machine. See the module docs for the 3-round iteration
/// structure.
#[derive(Debug)]
pub struct IiNode {
    matched_edge: Option<EdgeId>,
    announced: bool,
    live: Vec<bool>,
    proposed: Option<Port>,
}

impl IiNode {
    /// Fresh state for a node of the given degree.
    #[must_use]
    pub fn new(degree: usize) -> IiNode {
        IiNode { matched_edge: None, announced: false, live: vec![true; degree], proposed: None }
    }

    /// State for a node that resumes from a prior (partially computed)
    /// matching: it keeps `matched_edge` as its committed match and
    /// ignores `dead_ports` from the outset. Used by the
    /// [`crate::repair`] pass, where survivors re-run Israeli–Itai on
    /// the residual graph: already-matched nodes only re-announce their
    /// match and halt, free nodes compete for the remaining edges.
    ///
    /// # Panics
    /// Panics if a dead port is out of range.
    #[must_use]
    pub fn with_state(degree: usize, matched_edge: Option<EdgeId>, dead_ports: &[Port]) -> IiNode {
        let mut live = vec![true; degree];
        for &p in dead_ports {
            live[p] = false;
        }
        IiNode { matched_edge, announced: false, live, proposed: None }
    }

    fn step(&mut self, ctx: &mut Context<'_, IiMsg>, inbox: &[(Port, IiMsg)]) {
        let sub = ctx.round() % 3;
        // Picks below count first and then find the k-th match, so a
        // step allocates nothing and draws exactly as a collected list
        // would.
        let mut proposals = 0usize;
        for &(port, msg) in inbox {
            match msg {
                IiMsg::Dead => self.live[port] = false,
                IiMsg::Propose => proposals += 1,
                IiMsg::Accept => {
                    // Defensive decode: under reliable channels an
                    // accept always answers this node's outstanding
                    // proposal (this used to be a debug assertion), but
                    // a corrupted or forged message can deliver one
                    // unsolicited — or to a node that is already
                    // matched. Honouring it would silently
                    // desynchronize the endpoints' registers, so it is
                    // dropped; damage that slips through end-to-end is
                    // the certifier's job to catch.
                    if Some(port) == self.proposed && self.matched_edge.is_none() {
                        self.matched_edge = Some(ctx.edge(port));
                        self.announced = false;
                    }
                }
            }
        }
        if sub == 0 {
            self.proposed = None;
            if self.matched_edge.is_some() {
                if !self.announced {
                    self.announced = true;
                    ctx.broadcast(IiMsg::Dead);
                }
                ctx.halt();
                return;
            }
            let live = self.live.iter().filter(|&&l| l).count();
            if live == 0 {
                ctx.halt();
                return;
            }
            if ctx.rng().random_bool(0.5) {
                let k = ctx.rng().random_range(0..live);
                let pick = (0..self.live.len()).filter(|&p| self.live[p]).nth(k).expect("k < live");
                self.proposed = Some(pick);
                ctx.send(pick, IiMsg::Propose);
            }
        }
        // Receivers (nodes that did not propose) accept a random
        // proposal, if still free. Acceptance is deliberately *not*
        // gated on `sub == 1`: in an aligned run a proposal can only
        // arrive there (sent at sub 0, delivered one round later), but
        // under the resilient transport a freshly joined or rebooted
        // neighbour restarts its round counter at 0 while we are
        // mid-run, so its proposals land at a fixed phase offset.
        // Gating on the phase would make such an edge permanently
        // sterile — two free nodes proposing to each other forever
        // without ever answering, which livelocks the whole run.
        // A proposer is still protected against matching twice: its own
        // `Accept` always arrives before `proposed` is cleared at its
        // next sub 0, and while `proposed` is set it accepts nobody.
        if self.matched_edge.is_none() && self.proposed.is_none() && proposals > 0 {
            let k = ctx.rng().random_range(0..proposals);
            let proposal = inbox.iter().filter(|&&(_, msg)| msg == IiMsg::Propose).nth(k);
            let (pick, _) = *proposal.expect("k < proposals");
            self.matched_edge = Some(ctx.edge(pick));
            self.announced = false;
            ctx.send(pick, IiMsg::Accept);
        }
    }
}

impl Protocol for IiNode {
    type Msg = IiMsg;
    /// The node's output register: its matched edge, if any (§2).
    type Output = Option<EdgeId>;

    fn on_start(&mut self, ctx: &mut Context<'_, IiMsg>) {
        self.step(ctx, &[]);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, IiMsg>, inbox: &[(Port, IiMsg)]) {
        self.step(ctx, inbox);
    }

    /// A suspected-crashed neighbour is treated exactly like a matched
    /// one: removed from the free-neighbour set so it can neither be
    /// proposed to nor block the local maximality condition. Delivered
    /// by the [`dam_congest::transport::Resilient`] wrapper.
    fn on_peer_down(&mut self, _: &mut Context<'_, IiMsg>, port: Port) {
        self.live[port] = false;
    }

    /// A recovered neighbour rejoins the free-neighbour set — but only
    /// while this node is still free. A matched node's view is frozen
    /// (it has already announced and halted, or is about to); the
    /// maintenance pass, not this handler, re-matches survivors.
    fn on_peer_up(&mut self, _: &mut Context<'_, IiMsg>, port: Port) {
        if self.matched_edge.is_none() {
            self.live[port] = true;
        }
    }

    fn into_output(self) -> Option<EdgeId> {
        self.matched_edge
    }
}

/// Runs Israeli–Itai maximal matching over `g` with a default
/// CONGEST(`4 log n`) configuration.
///
/// # Errors
/// Propagates simulator errors (e.g. the round guard on pathological
/// seeds) and matching-assembly errors.
///
/// # Example
/// ```
/// use dam_core::israeli_itai::israeli_itai;
/// use dam_graph::{generators, maximal};
///
/// let g = generators::cycle(16);
/// let report = israeli_itai(&g, 42).unwrap();
/// assert!(maximal::is_maximal(&g, &report.matching));
/// ```
pub fn israeli_itai(g: &Graph, seed: u64) -> Result<AlgorithmReport, CoreError> {
    let sim = SimConfig::congest_for(g.node_count(), 4).seed(seed);
    let rep = run_mm(&IsraeliItai, g, &RuntimeConfig::new().sim(sim))?;
    Ok(AlgorithmReport { matching: rep.matching, stats: rep.totals, iterations: rep.iterations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_graph::{brute, generators, maximal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn produces_maximal_matchings() {
        let mut rng = StdRng::seed_from_u64(1);
        for trial in 0..20 {
            let g = generators::gnp(30, 0.15, &mut rng);
            let report = israeli_itai(&g, trial).unwrap();
            report.matching.validate(&g).unwrap();
            assert!(maximal::is_maximal(&g, &report.matching), "not maximal on trial {trial}");
            assert_eq!(report.stats.stats.violations, 0, "messages must fit CONGEST");
        }
    }

    #[test]
    fn half_approximation_guarantee() {
        let mut rng = StdRng::seed_from_u64(2);
        for trial in 0..20 {
            let g = generators::gnp(12, 0.3, &mut rng);
            let report = israeli_itai(&g, 100 + trial).unwrap();
            let opt = brute::maximum_matching_size(&g);
            assert!(2 * report.matching.size() >= opt);
        }
    }

    #[test]
    fn logarithmic_round_scaling() {
        // Rounds grow slowly with n: for n = 4096 vs n = 64, the round
        // count should grow far less than the 64x size factor.
        let mut rng = StdRng::seed_from_u64(3);
        let small = generators::random_regular(64, 4, &mut rng);
        let large = generators::random_regular(4096, 4, &mut rng);
        let r_small = israeli_itai(&small, 5).unwrap().stats.stats.rounds;
        let r_large = israeli_itai(&large, 5).unwrap().stats.stats.rounds;
        assert!(
            r_large < r_small * 8,
            "rounds should scale logarithmically: {r_small} -> {r_large}"
        );
    }

    #[test]
    fn handles_edge_cases() {
        let empty = dam_graph::Graph::builder(5).build().unwrap();
        let r = israeli_itai(&empty, 0).unwrap();
        assert_eq!(r.matching.size(), 0);

        let single = dam_graph::Graph::builder(2).edge(0, 1).build().unwrap();
        let r = israeli_itai(&single, 0).unwrap();
        assert_eq!(r.matching.size(), 1);

        // Complete graph: perfect matching is not guaranteed, but
        // maximality is, and K4's maximal matchings have size 2.
        let r = israeli_itai(&generators::complete(4), 9).unwrap();
        assert_eq!(r.matching.size(), 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::gnp(25, 0.2, &mut rng);
        let a = israeli_itai(&g, 77).unwrap();
        let b = israeli_itai(&g, 77).unwrap();
        assert_eq!(a.matching.to_edge_vec(), b.matching.to_edge_vec());
    }
}
