//! The locally-heaviest-edge `½`-MWM — the `δ`-MWM black box.
//!
//! The paper's Algorithm 5 consumes *any* constant-factor `δ`-MWM
//! computable in `O(log n)` CONGEST rounds (it cites the PODC'07 /
//! SICOMP'09 `1/5`-MWM, Lemma 4.4). We substitute the classic
//! locally-heaviest rule (Preis; randomized round analysis by Birn et
//! al. 2013): in each iteration every live node points at its heaviest
//! incident candidate edge (ties by edge id); an edge chosen from *both*
//! sides joins the matching and its endpoints leave. Every iteration
//! matches at least the globally heaviest live edge, the result is
//! exactly the greedy matching of the `(weight, id)` order — a `½`-MWM —
//! and the iteration count is `O(log n)` w.h.p. on random weights.
//!
//! The protocol runs on **caller-provided per-port weights**, so the same
//! state machine serves both the standalone `½`-MWM (true edge weights)
//! and Algorithm 5's inner call (the gain weights `w_M`).

use dam_congest::{BitSize, Context, Network, Port, Protocol, SimConfig};
use dam_graph::{EdgeId, Graph};

use crate::error::CoreError;
use crate::report::{matching_from_registers, AlgorithmReport};

/// Protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PickMsg {
    /// "You are my heaviest candidate."
    Pick,
    /// "I matched — remove me (and my edges) from the candidate graph."
    Dead,
}

impl BitSize for PickMsg {
    fn bit_size(&self) -> usize {
        1
    }
}

/// Per-node state of the locally-heaviest-edge protocol.
#[derive(Debug)]
pub struct LocalMaxNode<'a> {
    /// Candidate weight per port (`None` = not a candidate edge),
    /// borrowed from the caller's per-node rows.
    weights: &'a [Option<f64>],
    /// Ports whose far node is still live; empty while all of them are.
    alive: Vec<bool>,
    /// My pick this iteration.
    picked: Option<Port>,
    /// The chosen edge, once matched.
    chosen: Option<EdgeId>,
    announced: bool,
}

impl<'a> LocalMaxNode<'a> {
    /// Fresh state over the given candidate weights.
    #[must_use]
    pub fn new(weights: &'a [Option<f64>]) -> LocalMaxNode<'a> {
        LocalMaxNode { weights, alive: Vec::new(), picked: None, chosen: None, announced: false }
    }

    /// Removes the far node of `port` from the candidate graph.
    fn kill(&mut self, port: Port) {
        if self.alive.is_empty() {
            self.alive = vec![true; self.weights.len()];
        }
        self.alive[port] = false;
    }

    /// The heaviest live candidate port under the `(weight, edge id)`
    /// order (larger id wins ties — the same order as
    /// `dam_graph::maximal::local_max_mwm`).
    fn best_port(&self, ctx: &Context<'_, PickMsg>) -> Option<Port> {
        let mut best: Option<(f64, EdgeId, Port)> = None;
        for (p, w) in self.weights.iter().enumerate() {
            if !self.alive.get(p).unwrap_or(&true) {
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

    fn step(&mut self, ctx: &mut Context<'_, PickMsg>, inbox: &[(Port, PickMsg)]) {
        for &(port, msg) in inbox {
            if msg == PickMsg::Dead {
                self.kill(port);
            }
        }
        if ctx.round() % 2 == 0 {
            // Announce / pick.
            if self.chosen.is_some() {
                if !self.announced {
                    self.announced = true;
                    ctx.broadcast(PickMsg::Dead);
                }
                ctx.halt();
                return;
            }
            match self.best_port(ctx) {
                None => ctx.halt(),
                Some(p) => {
                    self.picked = Some(p);
                    ctx.send(p, PickMsg::Pick);
                }
            }
        } else {
            // Resolve: mutual picks match.
            if let Some(p) = self.picked.take() {
                if inbox.contains(&(p, PickMsg::Pick)) {
                    self.chosen = Some(ctx.edge(p));
                    self.announced = false;
                }
            }
        }
    }
}

impl Protocol for LocalMaxNode<'_> {
    type Msg = PickMsg;
    /// The edge this node matched, if any.
    type Output = Option<EdgeId>;

    fn on_start(&mut self, ctx: &mut Context<'_, PickMsg>) {
        self.step(ctx, &[]);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, PickMsg>, inbox: &[(Port, PickMsg)]) {
        self.step(ctx, inbox);
    }

    fn on_peer_down(&mut self, _ctx: &mut Context<'_, PickMsg>, port: Port) {
        // A crashed or quarantined peer will never resolve a pick;
        // treating it like a `Dead` announcement keeps the pick loop
        // terminating (it halts once no live candidate remains).
        self.kill(port);
    }

    fn into_output(self) -> Option<EdgeId> {
        self.chosen
    }
}

/// Runs the standalone distributed `½`-MWM on `g`'s own edge weights.
///
/// # Errors
/// Simulation or register-consistency failure.
///
/// # Example
/// ```
/// use dam_core::weighted::local_max::local_max_mwm;
/// use dam_graph::generators;
///
/// let g = generators::greedy_trap(2, 0.25);
/// let r = local_max_mwm(&g, 3).unwrap();
/// // Locally heaviest = greedy: takes the two middle edges, weight 2.5,
/// // which is within 1/2 of the optimum 4.
/// assert!((r.matching.weight(&g) - 2.5).abs() < 1e-9);
/// ```
pub fn local_max_mwm(g: &Graph, seed: u64) -> Result<AlgorithmReport, CoreError> {
    let mut net = Network::new(g, SimConfig::congest_for(g.node_count(), 4).seed(seed));
    let weights: Vec<Vec<Option<f64>>> =
        g.nodes().map(|v| g.incident(v).map(|(_, _, e)| Some(g.weight(e))).collect()).collect();
    let out = net.run(|v, _| LocalMaxNode::new(&weights[v]))?;
    let matching = matching_from_registers(g, &out.outputs)?;
    let iterations = usize::try_from(out.stats.rounds.div_ceil(2)).unwrap_or(usize::MAX);
    Ok(AlgorithmReport { matching, stats: net.totals(), iterations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_graph::weights::{randomize_weights, WeightDist};
    use dam_graph::{brute, generators, maximal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_sequential_local_max_exactly() {
        // Same total order ⇒ the distributed fixpoint is the identical
        // greedy matching.
        let mut rng = StdRng::seed_from_u64(91);
        for trial in 0..15 {
            let base = generators::gnp(20, 0.2, &mut rng);
            let g = randomize_weights(&base, WeightDist::Uniform { lo: 0.1, hi: 4.0 }, &mut rng);
            let dist = local_max_mwm(&g, trial).unwrap();
            let seq = maximal::local_max_mwm(&g);
            assert_eq!(dist.matching.to_edge_vec(), seq.to_edge_vec(), "trial {trial}");
        }
    }

    #[test]
    fn half_approximation() {
        let mut rng = StdRng::seed_from_u64(92);
        for trial in 0..15 {
            let base = generators::gnp(11, 0.3, &mut rng);
            let g = randomize_weights(&base, WeightDist::Exponential { lambda: 1.0 }, &mut rng);
            let r = local_max_mwm(&g, trial).unwrap();
            r.matching.validate(&g).unwrap();
            assert!(r.matching.weight(&g) >= 0.5 * brute::maximum_weight(&g) - 1e-9);
        }
    }

    #[test]
    fn logarithmic_rounds() {
        let mut rng = StdRng::seed_from_u64(93);
        let small = randomize_weights(
            &generators::random_regular(64, 4, &mut rng),
            WeightDist::Uniform { lo: 0.0_1, hi: 1.0 },
            &mut rng,
        );
        let large = randomize_weights(
            &generators::random_regular(2048, 4, &mut rng),
            WeightDist::Uniform { lo: 0.0_1, hi: 1.0 },
            &mut rng,
        );
        let r_small = local_max_mwm(&small, 1).unwrap().stats.stats.rounds;
        let r_large = local_max_mwm(&large, 1).unwrap().stats.stats.rounds;
        assert!(r_large < r_small * 8, "rounds: {r_small} -> {r_large}");
    }

    #[test]
    fn messages_are_single_bits() {
        let g = generators::complete(8);
        let r = local_max_mwm(&g, 5).unwrap();
        assert_eq!(r.stats.stats.max_message_bits, 1);
        assert_eq!(r.stats.stats.violations, 0);
    }

    #[test]
    fn respects_candidate_mask() {
        // Only edge 1 is a candidate; nothing else may match.
        let g = dam_graph::Graph::builder(4)
            .weighted_edge(0, 1, 9.0)
            .weighted_edge(1, 2, 1.0)
            .weighted_edge(2, 3, 9.0)
            .build()
            .unwrap();
        let weights: Vec<Vec<Option<f64>>> = g
            .nodes()
            .map(|v| g.incident(v).map(|(_, _, e)| (e == 1).then(|| g.weight(e))).collect())
            .collect();
        let mut net = Network::new(&g, SimConfig::local().seed(1));
        let out = net.run(|v, _| LocalMaxNode::new(&weights[v])).unwrap();
        let m = matching_from_registers(&g, &out.outputs).unwrap();
        assert_eq!(m.to_edge_vec(), vec![1]);
    }
}
