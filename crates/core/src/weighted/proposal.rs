//! A weight-greedy proposal heuristic — the *second* `δ`-MWM black box.
//!
//! An Israeli–Itai-style propose/accept scheme biased towards heavy
//! edges: senders propose over their heaviest live candidate port,
//! receivers accept their heaviest incoming proposal. It runs a **fixed**
//! number of iterations, so it carries no worst-case approximation
//! guarantee — it exists as the ablation point for experiment E10
//! (Algorithm 5 is supposed to work with *any* reasonable `δ`-MWM box,
//! and this one is deliberately weaker than
//! [`crate::weighted::local_max`]).

use dam_congest::{BitSize, Context, Network, Port, Protocol, SimConfig};
use dam_graph::{EdgeId, Graph};
use rand::RngExt;

use crate::error::CoreError;
use crate::report::{matching_from_registers, AlgorithmReport};

/// Protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProposalMsg {
    /// A sender proposes its heaviest candidate edge.
    Propose,
    /// A receiver accepts its heaviest proposal.
    Accept,
    /// "I am matched" — drop me from the candidate graph.
    Dead,
}

impl BitSize for ProposalMsg {
    fn bit_size(&self) -> usize {
        2
    }
}

/// Per-node state of the proposal heuristic.
#[derive(Debug)]
pub struct ProposalNode<'a> {
    /// Candidate weight per port, borrowed from the caller's rows.
    weights: &'a [Option<f64>],
    alive: Vec<bool>,
    iterations: usize,
    proposed: Option<Port>,
    chosen: Option<EdgeId>,
    announced: bool,
}

impl<'a> ProposalNode<'a> {
    /// Fresh state over candidate weights, running `iterations`
    /// propose/accept cycles (3 rounds each).
    #[must_use]
    pub fn new(weights: &'a [Option<f64>], iterations: usize) -> ProposalNode<'a> {
        let degree = weights.len();
        ProposalNode {
            weights,
            alive: vec![true; degree],
            iterations,
            proposed: None,
            chosen: None,
            announced: false,
        }
    }

    fn best_port(&self, ctx: &Context<'_, ProposalMsg>, among: Option<&[Port]>) -> Option<Port> {
        let mut best: Option<(f64, EdgeId, Port)> = None;
        let consider = |p: Port| -> bool { among.is_none_or(|s| s.contains(&p)) };
        for (p, w) in self.weights.iter().enumerate() {
            if !self.alive[p] || !consider(p) {
                continue;
            }
            if let Some(w) = *w {
                let e = ctx.edge(p);
                if best.is_none_or(|(bw, be, _)| (w, e) > (bw, be)) {
                    best = Some((w, e, p));
                }
            }
        }
        best.map(|(_, _, p)| p)
    }

    fn step(&mut self, ctx: &mut Context<'_, ProposalMsg>, inbox: &[(Port, ProposalMsg)]) {
        let mut proposals: Vec<Port> = Vec::new();
        for &(port, msg) in inbox {
            match msg {
                ProposalMsg::Dead => self.alive[port] = false,
                ProposalMsg::Propose => proposals.push(port),
                ProposalMsg::Accept => {
                    debug_assert_eq!(Some(port), self.proposed);
                    self.chosen = Some(ctx.edge(port));
                    self.announced = false;
                }
            }
        }
        let round = ctx.round();
        let iteration = round / 3;
        match round % 3 {
            0 => {
                self.proposed = None;
                if self.chosen.is_some() {
                    if !self.announced {
                        self.announced = true;
                        ctx.broadcast(ProposalMsg::Dead);
                    }
                    ctx.halt();
                    return;
                }
                if iteration >= self.iterations || self.best_port(ctx, None).is_none() {
                    ctx.halt();
                    return;
                }
                if ctx.rng().random_bool(0.5) {
                    if let Some(p) = self.best_port(ctx, None) {
                        self.proposed = Some(p);
                        ctx.send(p, ProposalMsg::Propose);
                    }
                }
            }
            1 if self.chosen.is_none() && self.proposed.is_none() && !proposals.is_empty() => {
                if let Some(p) = self.best_port(ctx, Some(&proposals)) {
                    self.chosen = Some(ctx.edge(p));
                    self.announced = false;
                    ctx.send(p, ProposalMsg::Accept);
                }
            }
            _ => {}
        }
    }
}

impl Protocol for ProposalNode<'_> {
    type Msg = ProposalMsg;
    /// The edge this node matched, if any.
    type Output = Option<EdgeId>;

    fn on_start(&mut self, ctx: &mut Context<'_, ProposalMsg>) {
        self.step(ctx, &[]);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, ProposalMsg>, inbox: &[(Port, ProposalMsg)]) {
        self.step(ctx, inbox);
    }

    fn into_output(self) -> Option<EdgeId> {
        self.chosen
    }
}

/// Runs the standalone proposal heuristic on `g`'s own weights with
/// `3⌈log₂(n+1)⌉` iterations.
///
/// # Errors
/// Simulation or register-consistency failure.
pub fn proposal_mwm(g: &Graph, seed: u64) -> Result<AlgorithmReport, CoreError> {
    let iterations = 3 * (usize::BITS - g.node_count().leading_zeros()) as usize;
    let mut net = Network::new(g, SimConfig::congest_for(g.node_count(), 4).seed(seed));
    let weights: Vec<Vec<Option<f64>>> =
        g.nodes().map(|v| g.incident(v).map(|(_, _, e)| Some(g.weight(e))).collect()).collect();
    let out = net.run(|v, _| ProposalNode::new(&weights[v], iterations.max(4)))?;
    let matching = matching_from_registers(g, &out.outputs)?;
    Ok(AlgorithmReport { matching, stats: net.totals(), iterations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_graph::weights::{randomize_weights, WeightDist};
    use dam_graph::{brute, generators};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn produces_valid_matchings() {
        let mut rng = StdRng::seed_from_u64(95);
        for trial in 0..15 {
            let base = generators::gnp(20, 0.2, &mut rng);
            let g = randomize_weights(&base, WeightDist::Uniform { lo: 0.5, hi: 3.0 }, &mut rng);
            let r = proposal_mwm(&g, trial).unwrap();
            r.matching.validate(&g).unwrap();
        }
    }

    #[test]
    fn decent_weight_in_practice() {
        // No worst-case guarantee, but on random inputs it should land
        // well above 1/4 of optimal.
        let mut rng = StdRng::seed_from_u64(96);
        let mut total = 0.0;
        let mut opt_total = 0.0;
        for trial in 0..10 {
            let base = generators::gnp(12, 0.3, &mut rng);
            let g = randomize_weights(&base, WeightDist::Integer { max: 10 }, &mut rng);
            let r = proposal_mwm(&g, trial).unwrap();
            total += r.matching.weight(&g);
            opt_total += brute::maximum_weight(&g);
        }
        assert!(total >= 0.5 * opt_total, "aggregate ratio {}", total / opt_total);
    }

    #[test]
    fn terminates_within_fixed_budget() {
        let g = generators::complete(16);
        let r = proposal_mwm(&g, 3).unwrap();
        let iters = 3 * (usize::BITS - 16usize.leading_zeros()) as usize;
        assert!(r.stats.stats.rounds <= 3 * (iters as u64 + 2));
    }
}
