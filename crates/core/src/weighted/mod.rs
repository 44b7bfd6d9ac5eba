//! §4: `(½−ε)`-approximate maximum **weight** matching (Algorithm 5,
//! Theorem 4.5).
//!
//! The reduction: given a matching `M`, re-weight every non-matching edge
//! `(u,v)` by its *gain* `w_M(u,v) = g(wrap(u,v))` — the change in
//! `w(M)` if `(u,v)` enters the matching and the matched edges at `u` and
//! `v` leave (the length-≤3 augmentation `wrap(u,v)`). Run a black-box
//! `δ`-MWM on the gain graph, apply all the wraps at once (Lemma 4.1
//! shows the result is a matching and gains add up), and repeat
//! `⌈(3/2δ)·ln(2/ε)⌉` times (Lemma 4.3).
//!
//! The black box is [`local_max`] (`δ = ½`, our stand-in for the paper's
//! Lemma 4.4 — see `DESIGN.md`, *Substitutions*), with [`proposal`] as an
//! ablation alternative.
//!
//! Each iteration costs three protocol runs: a 2-round gain exchange, the
//! black box (`O(log n)` w.h.p.), and a 2-round wrap/reconcile pass.
//! Under the deterministic local-max black box, an iteration that leaves
//! the registers unchanged is a fixpoint: every remaining iteration
//! would run the same three phases on the same registers. When the
//! executor's phases are pure (`Exec::phases_are_pure`), the driver
//! charges their recorded cost (`Exec::charge`) instead of running
//! them, so the reported rounds, messages and bits are still those of
//! all `⌈(3/2δ)·ln(2/ε)⌉` iterations. From empty registers the black box
//! returns the greedy matching in iteration 1, which admits no
//! positive-gain wrap, so iteration 2 is the fixpoint.

pub mod b_local_max;
pub mod local_max;
pub mod proposal;

use dam_congest::{BitSize, Context, Port, Protocol};
use dam_graph::EdgeId;

use crate::error::CoreError;
use crate::repair::sanitize_in_place;
use crate::runtime::{Algorithm, Exec, MainRun, PortRow, PortRows};

use self::local_max::LocalMaxNode;
use self::proposal::ProposalNode;

/// Which `δ`-MWM black box Algorithm 5 invokes each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlackBox {
    /// Locally-heaviest-edge matching: `δ = ½`, the default.
    LocalMax,
    /// Weight-greedy propose/accept heuristic (no worst-case `δ`); the
    /// payload is its iteration count.
    Proposal {
        /// Propose/accept cycles per invocation.
        iterations: usize,
    },
}

/// Messages of the gain-exchange and wrap passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WrapMsg {
    /// "The weight of my current matching edge is `w`" (0 if free).
    MatchedWeight {
        /// Weight of the sender's matched edge.
        w: f64,
    },
    /// "I re-matched in `M'`; our old matching edge is gone."
    Rewed,
}

impl BitSize for WrapMsg {
    fn bit_size(&self) -> usize {
        match self {
            WrapMsg::MatchedWeight { .. } => 64,
            WrapMsg::Rewed => 1,
        }
    }
}

/// 2-round protocol computing per-port gains `w_M` (the paper's
/// re-weighting) into a row borrowed from the driver, read back with
/// [`GainExchange::gain`]. `pub(crate)` for the conformance harness's
/// legacy golden replica.
#[derive(Debug)]
pub(crate) struct GainExchange<'a> {
    matched_port: Option<Port>,
    my_weight: f64,
    /// Positive gain per port, `0.0` where there is none.
    gains: PortRow<'a>,
}

impl<'a> GainExchange<'a> {
    /// A fresh exchange; clears `gains`.
    pub(crate) fn new(
        gains: PortRow<'a>,
        matched_port: Option<Port>,
        my_weight: f64,
    ) -> GainExchange<'a> {
        gains.fill(0.0);
        GainExchange { matched_port, my_weight, gains }
    }

    /// The candidate gain an exchange left at `port` of `gains`: `None`
    /// for matching edges and non-positive gains.
    pub(crate) fn gain(gains: PortRow<'_>, port: Port) -> Option<f64> {
        let gain = gains.get(port);
        (gain > 0.0).then_some(gain)
    }
}

impl Protocol for GainExchange<'_> {
    type Msg = WrapMsg;
    /// The gains are left in the borrowed row.
    type Output = ();

    fn on_start(&mut self, ctx: &mut Context<'_, WrapMsg>) {
        ctx.broadcast(WrapMsg::MatchedWeight { w: self.my_weight });
    }

    fn on_round(&mut self, ctx: &mut Context<'_, WrapMsg>, inbox: &[(Port, WrapMsg)]) {
        for &(port, msg) in inbox {
            if let WrapMsg::MatchedWeight { w } = msg {
                if Some(port) == self.matched_port {
                    continue; // edges of M get w_M = 0 and never re-enter
                }
                let gain = ctx.edge_weight(port) - self.my_weight - w;
                if gain > 0.0 {
                    self.gains.set(port, gain);
                }
            }
        }
        ctx.halt();
    }

    fn into_output(self) {}
}

/// 2-round wrap pass: `M ← M ⊕ ⋃_{e∈M'} wrap(e)`, reconciling output
/// registers (old mates of re-matched nodes become free). `pub(crate)`
/// for the conformance harness's legacy golden replica.
#[derive(Debug)]
pub(crate) struct WrapApply {
    pub(crate) matched_port: Option<Port>,
    pub(crate) register: Option<EdgeId>,
    pub(crate) m_prime: Option<EdgeId>,
}

impl Protocol for WrapApply {
    type Msg = WrapMsg;
    /// The node's new output register.
    type Output = Option<EdgeId>;

    fn on_start(&mut self, ctx: &mut Context<'_, WrapMsg>) {
        if let Some(e) = self.m_prime {
            if let Some(p) = self.matched_port {
                ctx.send(p, WrapMsg::Rewed);
            }
            self.register = Some(e);
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_, WrapMsg>, inbox: &[(Port, WrapMsg)]) {
        for &(port, msg) in inbox {
            if msg == WrapMsg::Rewed && Some(port) == self.matched_port && self.m_prime.is_none() {
                self.register = None;
            }
        }
        ctx.halt();
    }

    fn into_output(self) -> Option<EdgeId> {
        self.register
    }
}

/// The iteration count of Algorithm 5, line 2: `⌈(3/2δ)·ln(2/ε)⌉`.
pub(crate) fn algorithm5_iterations(eps: f64, delta: f64) -> usize {
    ((3.0 / (2.0 * delta)) * (2.0 / eps).ln()).ceil().max(1.0) as usize
}

/// The weighted driver as a runtime [`Algorithm`]: Algorithm 5's
/// gain-exchange / black-box / wrap-apply loop, three phases per
/// iteration on the executor's engine.
///
/// [`Algorithm::resume`] re-runs the loop from sanitized registers on
/// the residual graph. Dead neighbours send no weights, so no gain (and
/// hence no wrap) is ever computed across a dead port; surviving
/// matched edges are kept unless a strictly-positive-gain wrap
/// re-matches an endpoint, so the matching *weight* is monotone across
/// a resume (the cardinality may shrink — two light edges can trade for
/// one heavy one).
#[derive(Debug, Clone, Copy)]
pub struct Weighted {
    /// Target slack: the result is a `(½−ε)`-MWM. Must be in `(0, 1]`.
    pub eps: f64,
    /// `δ` assumed in the iteration count. Must be in `(0, 1]`.
    pub delta: f64,
    /// The inner `δ`-MWM invoked each iteration.
    pub black_box: BlackBox,
}

impl Default for Weighted {
    fn default() -> Weighted {
        Weighted { eps: 0.1, delta: 0.5, black_box: BlackBox::LocalMax }
    }
}

impl Weighted {
    /// Runs the iteration loop from `registers`, sanitizing the black
    /// box's `M'` and the wrapped registers each iteration so the state
    /// stays total on the trusted domain (a no-op fault-free).
    fn drive(
        &self,
        exec: &mut Exec<'_>,
        mut registers: Vec<Option<EdgeId>>,
    ) -> Result<MainRun, CoreError> {
        assert!(self.eps > 0.0 && self.eps <= 1.0, "eps must be in (0, 1]");
        assert!(self.delta > 0.0 && self.delta <= 1.0, "delta must be in (0, 1]");
        let g = exec.graph();
        let alive = exec.alive().clone();
        let iterations = algorithm5_iterations(self.eps, self.delta);
        // The exchange's per-port cells and the black box's candidate
        // rows, both kept for every iteration.
        let cells = PortRows::new(g);
        let mut gains: Vec<Vec<Option<f64>>> =
            (0..g.node_count()).map(|v| vec![None; g.degree(v)]).collect();
        for it in 0..iterations {
            // Step 1: gains.
            let gain = exec.phase(|v, graph| {
                let matched_port = registers[v]
                    .map(|e| graph.port_of_edge(v, e).expect("register points at incident edge"));
                let my_weight = registers[v].map_or(0.0, |e| graph.weight(e));
                GainExchange::new(cells.row(v), matched_port, my_weight)
            })?;
            // Mask gains on ports into the untrusted domain: a neighbour
            // that broadcast its weight and then crashed (or churned
            // out) is a tombstone in the black-box phase, and a gain
            // pointing at it would make `LocalMaxNode` pick it forever.
            // A no-op fault-free. (Same precondition as the bipartite
            // driver's `live` mask and the resume constructors'
            // `dead_ports`.)
            for (v, row) in gains.iter_mut().enumerate() {
                if !alive[v] {
                    // A tombstone's row is never fed to a live black box.
                    continue;
                }
                for (p, gain) in row.iter_mut().enumerate() {
                    let (u, _) = g.port(v, p);
                    *gain = if alive[u] { GainExchange::gain(cells.row(v), p) } else { None };
                }
            }
            // Step 2: δ-MWM on the gain graph.
            let black = match self.black_box {
                BlackBox::LocalMax => exec.phase(|v, _| LocalMaxNode::new(&gains[v]))?,
                BlackBox::Proposal { iterations } => {
                    exec.phase(|v, _| ProposalNode::new(&gains[v], iterations))?
                }
            };
            let mut m_prime = black.outputs;
            sanitize_in_place(g, &mut m_prime, &alive, None);
            // Step 3: apply all wraps.
            let wrap = exec.phase(|v, graph| {
                let matched_port = registers[v]
                    .map(|e| graph.port_of_edge(v, e).expect("register points at incident edge"));
                WrapApply { matched_port, register: registers[v], m_prime: m_prime[v] }
            })?;
            let mut next = wrap.outputs;
            sanitize_in_place(g, &mut next, &alive, None);
            let fixpoint = next == registers;
            registers = next;
            // A fixpoint under the deterministic black box: every
            // remaining iteration would run these three phases on these
            // registers again. On pure phases it would also return the
            // same stats, so charge them instead of running them.
            if fixpoint && self.black_box == BlackBox::LocalMax && exec.phases_are_pure() {
                for _ in it + 1..iterations {
                    for stats in [&gain.stats, &black.stats, &wrap.stats] {
                        exec.charge(stats);
                    }
                }
                break;
            }
        }
        Ok(MainRun { registers, iterations })
    }
}

impl Algorithm for Weighted {
    fn name(&self) -> &'static str {
        "weighted"
    }

    fn run(&self, exec: &mut Exec<'_>) -> Result<MainRun, CoreError> {
        let registers = vec![None; exec.graph().node_count()];
        self.drive(exec, registers)
    }

    fn resume(
        &self,
        exec: &mut Exec<'_>,
        registers: &[Option<EdgeId>],
    ) -> Result<MainRun, CoreError> {
        self.drive(exec, registers.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run_mm, RunReport, RuntimeConfig};
    use dam_congest::SimConfig;
    use dam_graph::weights::{randomize_weights, WeightDist};
    use dam_graph::{brute, generators, mwm, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The driver bare on CONGEST(`8 log n`), wide enough for its
    /// 64-bit gain messages.
    fn mwm_run(g: &Graph, algo: Weighted, seed: u64) -> RunReport {
        let sim = SimConfig::congest_for(g.node_count(), 8).seed(seed);
        run_mm(&algo, g, &RuntimeConfig::new().sim(sim)).unwrap()
    }

    fn with_eps(eps: f64) -> Weighted {
        Weighted { eps, ..Weighted::default() }
    }

    fn ratio(g: &Graph, algo: Weighted, seed: u64) -> f64 {
        let r = mwm_run(g, algo, seed);
        r.matching.validate(g).unwrap();
        let opt = brute::maximum_weight(g);
        if opt == 0.0 {
            1.0
        } else {
            r.matching.weight(g) / opt
        }
    }

    #[test]
    fn iteration_count_formula() {
        assert_eq!(algorithm5_iterations(0.1, 0.5), 9); // ⌈3·ln 20⌉ = ⌈8.987⌉
        assert_eq!(algorithm5_iterations(0.5, 0.5), 5); // ⌈3·ln 4⌉ = ⌈4.159⌉
    }

    #[test]
    fn achieves_half_minus_eps_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(101);
        for trial in 0..12 {
            let base = generators::gnp(11, 0.3, &mut rng);
            let g = randomize_weights(&base, WeightDist::Uniform { lo: 0.2, hi: 5.0 }, &mut rng);
            let r = ratio(&g, with_eps(0.05), trial);
            assert!(r >= 0.45 - 1e-9, "trial {trial}: ratio {r} < 1/2 - ε");
        }
    }

    #[test]
    fn trap_stalls_at_the_half_barrier_as_predicted() {
        // On the greedy trap (1, 1+δ, 1 per component) the first
        // iteration matches every middle edge; afterwards every single
        // wrap gain is 1 − (1+δ) < 0, so Algorithm 5 — whose wraps touch
        // one unmatched edge at a time — legitimately stalls at ratio
        // (1+δ)/2. This is the §4 observation that the reduction cannot
        // beat ½ in general.
        let g = generators::greedy_trap(4, 0.2);
        let r = mwm_run(&g, with_eps(0.02), 3);
        let opt = brute::maximum_weight(&g); // 8.0
        let w = r.matching.weight(&g);
        assert!(w >= (0.5 - 0.02) * opt - 1e-9, "Theorem 4.5 floor violated: {w}");
        assert!((w - 4.0 * 1.2).abs() < 1e-9, "expected the stalled middle-edge matching, got {w}");
    }

    #[test]
    fn weight_is_monotone_across_iterations() {
        // Lemma 4.1: every iteration's wrap application cannot decrease
        // the weight. Track it by running with increasing iteration
        // budgets.
        let mut rng = StdRng::seed_from_u64(103);
        let base = generators::gnp(14, 0.25, &mut rng);
        let g = randomize_weights(&base, WeightDist::Integer { max: 9 }, &mut rng);
        let mut last = 0.0;
        for eps in [1.0, 0.6, 0.3, 0.1, 0.03] {
            let w = mwm_run(&g, with_eps(eps), 5).matching.weight(&g);
            assert!(w + 1e-9 >= last, "weight decreased: {last} -> {w}");
            last = w;
        }
    }

    #[test]
    fn series_barrier_is_respected() {
        // The paper's tight example: from the middle edge, all gains are
        // 0, so no improvement past 1/2 is possible — but our run starts
        // from the empty matching and local-max takes one of the ends, so
        // it escapes. Verify only that the ratio lands in [1/2-ε, 1].
        let g = generators::three_edge_series();
        let r = ratio(&g, with_eps(0.1), 1);
        assert!(r >= 0.5 - 0.1 - 1e-9);
    }

    #[test]
    fn proposal_black_box_also_works() {
        let mut rng = StdRng::seed_from_u64(104);
        let base = generators::gnp(12, 0.3, &mut rng);
        let g = randomize_weights(&base, WeightDist::Integer { max: 7 }, &mut rng);
        let algo = Weighted { black_box: BlackBox::Proposal { iterations: 12 }, ..with_eps(0.05) };
        let r = mwm_run(&g, algo, 2);
        r.matching.validate(&g).unwrap();
        assert!(r.matching.weight(&g) > 0.0);
    }

    #[test]
    fn large_exact_comparison() {
        // Against the O(n³) exact solver on a bigger instance.
        let mut rng = StdRng::seed_from_u64(105);
        let base = generators::gnp(60, 0.1, &mut rng);
        let g = randomize_weights(&base, WeightDist::Exponential { lambda: 0.5 }, &mut rng);
        let r = mwm_run(&g, with_eps(0.05), 8);
        let opt = mwm::maximum_weight(&g);
        assert!(r.matching.weight(&g) >= (0.5 - 0.05) * opt - 1e-9);
    }

    #[test]
    fn unweighted_graphs_work_too() {
        let g = generators::cycle(12);
        let r = mwm_run(&g, with_eps(0.1), 4);
        assert!(r.matching.size() >= 4); // ≥ (1/2 − ε) · 6 edges
    }
}
