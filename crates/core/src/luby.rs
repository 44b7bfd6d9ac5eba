//! Luby's randomized maximal independent set.
//!
//! Luby (1986) / Alon, Babai & Itai (1986): in each iteration every live
//! node draws a random value; strict local maxima (ties broken by id)
//! join the MIS, and they and their neighbours leave the graph. After
//! `O(log n)` iterations the surviving choices form an MIS w.h.p.
//!
//! The paper invokes this algorithm on the *conflict graph* `C_M(ℓ)`
//! (Corollary 3.6); the bipartite token lottery of §3.2 emulates exactly
//! one such iteration per counting pass. Here it runs on the
//! communication graph itself — both as a reusable primitive and as the
//! reference the emulation is tested against.

use dam_congest::{BitSize, Context, Network, Port, Protocol, RunSpec, SimConfig};
use dam_graph::{EdgeId, Graph};
use rand::RngExt;

use crate::error::CoreError;
use crate::runtime::{Algorithm, Exec, MainRun};

/// Protocol messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LubyMsg {
    /// This iteration's lottery value.
    Value {
        /// The draw.
        v: u64,
        /// Analytical width: the analysis draws from `[1, N⁴]`, i.e.
        /// `4 log₂ n` bits.
        bits: u32,
    },
    /// "I joined the MIS" — neighbours must leave the graph.
    InMis,
    /// "I left the graph" (dominated) — stop waiting for me.
    Gone,
}

impl BitSize for LubyMsg {
    fn bit_size(&self) -> usize {
        match *self {
            LubyMsg::Value { bits, .. } => bits as usize,
            LubyMsg::InMis | LubyMsg::Gone => 2,
        }
    }
}

/// Per-node state: iterations of draw → compare → resolve (3 rounds).
#[derive(Debug)]
pub struct LubyNode {
    in_mis: bool,
    decided: bool,
    live: Vec<bool>,
    my_value: u64,
    best_neighbor: Option<(u64, usize)>,
}

impl LubyNode {
    /// Fresh state for a node of the given degree.
    #[must_use]
    pub fn new(degree: usize) -> LubyNode {
        LubyNode {
            in_mis: false,
            decided: false,
            live: vec![true; degree],
            my_value: 0,
            best_neighbor: None,
        }
    }

    fn has_live(&self) -> bool {
        self.live.iter().any(|&l| l)
    }

    fn step(&mut self, ctx: &mut Context<'_, LubyMsg>, inbox: &[(Port, LubyMsg)]) {
        // Process incoming messages first, regardless of sub-phase.
        for &(port, msg) in inbox {
            match msg {
                LubyMsg::Value { v, .. } => {
                    let nb = ctx.neighbor(port);
                    let cand = (v, nb);
                    if self.best_neighbor.is_none_or(|b| cand > b) {
                        self.best_neighbor = Some(cand);
                    }
                }
                LubyMsg::InMis => {
                    // A neighbour won: I am dominated.
                    if !self.decided {
                        self.decided = true;
                        self.in_mis = false;
                    }
                    self.live[port] = false;
                }
                LubyMsg::Gone => self.live[port] = false,
            }
        }
        match ctx.round() % 3 {
            0 => {
                if self.decided {
                    // Announce departure (dominated nodes) and leave.
                    if !self.in_mis {
                        for p in ctx.ports() {
                            if self.live[p] {
                                ctx.send(p, LubyMsg::Gone);
                            }
                        }
                    }
                    ctx.halt();
                    return;
                }
                if !self.has_live() {
                    // No live neighbours: vacuous local maximum.
                    self.in_mis = true;
                    self.decided = true;
                    ctx.halt();
                    return;
                }
                self.best_neighbor = None;
                self.my_value = ctx.rng().random();
                let bits = 4 * dam_congest::message::id_bits(ctx.network_size()) as u32;
                for p in ctx.ports() {
                    if self.live[p] {
                        ctx.send(p, LubyMsg::Value { v: self.my_value, bits });
                    }
                }
            }
            1
                // Values (sent in sub 0) arrived above. Strict local
                // maximum by (value, id) joins the MIS.
                if !self.decided => {
                    let me = (self.my_value, ctx.id());
                    if self.best_neighbor.is_none_or(|b| me > b) {
                        self.in_mis = true;
                        self.decided = true;
                        for p in ctx.ports() {
                            if self.live[p] {
                                ctx.send(p, LubyMsg::InMis);
                            }
                        }
                        ctx.halt();
                    }
                }
            _ => {
                // sub 2: InMis messages processed above; dominated nodes
                // announce Gone at the next sub 0.
            }
        }
    }
}

impl Protocol for LubyNode {
    type Msg = LubyMsg;
    /// Whether this node is in the independent set.
    type Output = bool;

    fn on_start(&mut self, ctx: &mut Context<'_, LubyMsg>) {
        self.step(ctx, &[]);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, LubyMsg>, inbox: &[(Port, LubyMsg)]) {
        self.step(ctx, inbox);
    }

    fn into_output(self) -> bool {
        self.in_mis
    }
}

/// The result of a distributed MIS computation.
#[derive(Debug, Clone)]
pub struct MisReport {
    /// Per-node membership flags.
    pub in_mis: Vec<bool>,
    /// Round/message accounting.
    pub stats: dam_congest::RunStats,
}

/// Runs Luby's MIS over `g`.
///
/// # Errors
/// Propagates simulator errors.
///
/// # Example
/// ```
/// use dam_core::luby::luby_mis;
/// use dam_graph::generators;
///
/// let g = generators::cycle(9);
/// let mis = luby_mis(&g, 3).unwrap();
/// let size = mis.in_mis.iter().filter(|&&b| b).count();
/// assert!(size >= 3 && size <= 4); // MIS of C_9 has 3 or 4 nodes
/// ```
pub fn luby_mis(g: &Graph, seed: u64) -> Result<MisReport, CoreError> {
    let sim = SimConfig::congest_for(g.node_count(), 4).seed(seed);
    let out = Network::new(g, sim)
        .execute(|v, graph| LubyNode::new(graph.degree(v)), &RunSpec::default())?;
    Ok(MisReport { in_mis: out.outputs, stats: out.stats })
}

/// Messages of the line-graph matching protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LubyMatchMsg {
    /// This iteration's lottery value of the edge the sender owns.
    Value {
        /// The draw.
        v: u64,
        /// Analytical width: the line graph has `N ≤ n·Δ/2` vertices
        /// and the analysis draws from `[1, N⁴]`; we charge `4 log₂ n`
        /// like [`LubyMsg::Value`] (a `Θ(log n)` quantity either way).
        bits: u32,
    },
    /// "Our shared edge is my local maximum" — a nomination; a mutual
    /// nomination is a line-graph local maximum and joins the matching.
    Winner,
    /// "Our shared edge left the line graph" (the sender matched
    /// elsewhere or halted) — stop considering it.
    Gone,
}

impl BitSize for LubyMatchMsg {
    fn bit_size(&self) -> usize {
        match *self {
            LubyMatchMsg::Value { bits, .. } => bits as usize,
            LubyMatchMsg::Winner | LubyMatchMsg::Gone => 2,
        }
    }
}

/// Per-node state of Luby's MIS run on the *implicit* line graph: each
/// node simulates its incident edges as line-graph vertices, the lower
/// endpoint owning each edge's lottery draw. One iteration is three
/// subrounds — draw/share values, nominate the local best edge, resolve
/// mutual nominations into matches — exactly one Luby iteration on the
/// conflict graph `C_∅(1)` (Definition 3.1), without materializing it.
#[derive(Debug)]
pub struct LubyMatchingNode {
    live: Vec<bool>,
    matched_port: Option<Port>,
    matched_edge: Option<EdgeId>,
    /// Per-port candidate `(value, edge id)` of this iteration.
    values: Vec<Option<(u64, EdgeId)>>,
    nominated: Option<Port>,
}

impl LubyMatchingNode {
    /// Fresh state for a node of the given degree.
    #[must_use]
    pub fn new(degree: usize) -> LubyMatchingNode {
        LubyMatchingNode {
            live: vec![true; degree],
            matched_port: None,
            matched_edge: None,
            values: vec![None; degree],
            nominated: None,
        }
    }

    /// Resume state: a node holding a committed register (`matched_*`,
    /// both `Some` or both `None`) with `dead_ports` leading outside the
    /// trusted domain. A matched node re-announces [`LubyMatchMsg::Gone`]
    /// and halts; a free node rejoins the lottery on its live ports.
    #[must_use]
    pub fn with_state(
        degree: usize,
        matched_port: Option<Port>,
        matched_edge: Option<EdgeId>,
        dead_ports: &[Port],
    ) -> LubyMatchingNode {
        debug_assert_eq!(matched_port.is_some(), matched_edge.is_some());
        let mut node = LubyMatchingNode::new(degree);
        node.matched_port = matched_port;
        node.matched_edge = matched_edge;
        for &p in dead_ports {
            node.live[p] = false;
        }
        node
    }

    fn has_live(&self) -> bool {
        self.live.iter().any(|&l| l)
    }

    /// Announces departure on every live port except `keep` and halts.
    fn depart(&mut self, ctx: &mut Context<'_, LubyMatchMsg>, keep: Option<Port>) {
        for p in ctx.ports() {
            if self.live[p] && Some(p) != keep {
                ctx.send(p, LubyMatchMsg::Gone);
            }
        }
        ctx.halt();
    }

    fn step(&mut self, ctx: &mut Context<'_, LubyMatchMsg>, inbox: &[(Port, LubyMatchMsg)]) {
        // Whether the port this node nominated nominated it back.
        let mut mutual = false;
        for &(port, msg) in inbox {
            match msg {
                LubyMatchMsg::Value { v, .. } => {
                    self.values[port] = Some((v, ctx.edge(port)));
                }
                LubyMatchMsg::Winner => mutual |= Some(port) == self.nominated,
                LubyMatchMsg::Gone => {
                    self.live[port] = false;
                    self.values[port] = None;
                }
            }
        }
        match ctx.round() % 3 {
            0 => {
                if self.matched_port.is_some() {
                    // Only reachable on resume: re-announce the match.
                    self.depart(ctx, self.matched_port);
                    return;
                }
                if !self.has_live() {
                    ctx.halt(); // exhausted: free with no live edges
                    return;
                }
                self.values.fill(None);
                self.nominated = None;
                let bits = 4 * dam_congest::message::id_bits(ctx.network_size()) as u32;
                for p in ctx.ports() {
                    // The lower endpoint owns the edge's draw.
                    if self.live[p] && ctx.id() < ctx.neighbor(p) {
                        let v: u64 = ctx.rng().random();
                        self.values[p] = Some((v, ctx.edge(p)));
                        ctx.send(p, LubyMatchMsg::Value { v, bits });
                    }
                }
            }
            1 => {
                // All values of live incident edges are in (owned draws
                // plus sub-0 arrivals): nominate the local maximum.
                let best = (0..self.live.len())
                    .filter(|&p| self.live[p])
                    .filter_map(|p| self.values[p].map(|val| (val, p)))
                    .max();
                if let Some((_, p)) = best {
                    self.nominated = Some(p);
                    ctx.send(p, LubyMatchMsg::Winner);
                }
            }
            _ => {
                // A mutual nomination is a strict local maximum of the
                // line graph (unique values + edge-id tie-break): match.
                if let Some(p) = self.nominated.filter(|_| mutual) {
                    self.matched_port = Some(p);
                    self.matched_edge = Some(ctx.edge(p));
                    self.depart(ctx, Some(p));
                }
            }
        }
    }
}

impl Protocol for LubyMatchingNode {
    type Msg = LubyMatchMsg;
    /// The node's output register (the matched edge, if any).
    type Output = Option<EdgeId>;

    fn on_start(&mut self, ctx: &mut Context<'_, LubyMatchMsg>) {
        self.step(ctx, &[]);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, LubyMatchMsg>, inbox: &[(Port, LubyMatchMsg)]) {
        self.step(ctx, inbox);
    }

    fn on_peer_down(&mut self, _ctx: &mut Context<'_, LubyMatchMsg>, port: Port) {
        self.live[port] = false;
        self.values[port] = None;
    }

    fn on_peer_up(&mut self, _ctx: &mut Context<'_, LubyMatchMsg>, port: Port) {
        // Revive the edge only while still free: a matched node has
        // halted (or is about to) and must not re-enter the lottery.
        if self.matched_port.is_none() {
            self.live[port] = true;
        }
    }

    fn into_output(self) -> Option<EdgeId> {
        self.matched_edge
    }
}

/// Luby's MIS on the implicit line graph as a runtime [`Algorithm`]:
/// the §3 conflict-graph trick run directly on the communication graph,
/// producing a maximal matching in `O(log n)` rounds w.h.p. — the
/// portfolio's second maximal-matching driver, useful as an independent
/// cross-check of [`crate::runtime::IsraeliItai`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LubyMatching;

impl Algorithm for LubyMatching {
    fn name(&self) -> &'static str {
        "luby-matching"
    }

    fn run(&self, exec: &mut Exec<'_>) -> Result<MainRun, CoreError> {
        let out = exec.phase(|v, g| LubyMatchingNode::new(g.degree(v)))?;
        // One Luby iteration is a 3-subround cycle.
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
        let out = exec.phase(move |v, g| {
            let port =
                regs[v].map(|e| g.port_of_edge(v, e).expect("register points at an incident edge"));
            LubyMatchingNode::with_state(g.degree(v), port, regs[v], &dead[v])
        })?;
        let iterations = usize::try_from(out.stats.rounds.div_ceil(3)).unwrap_or(usize::MAX);
        Ok(MainRun { registers: out.outputs, iterations })
    }
}

/// Checks that `set` is a maximal independent set of `g`.
#[must_use]
pub fn is_mis(g: &Graph, set: &[bool]) -> bool {
    // Independent: no edge inside the set.
    for e in g.edge_ids() {
        let (u, v) = g.endpoints(e);
        if set[u] && set[v] {
            return false;
        }
    }
    // Maximal: every outside node is dominated.
    g.nodes().all(|v| set[v] || g.neighbors(v).any(|u| set[u]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mis_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(6);
        for trial in 0..20 {
            let g = generators::gnp(40, 0.12, &mut rng);
            let mis = luby_mis(&g, trial).unwrap();
            assert!(is_mis(&g, &mis.in_mis), "trial {trial} produced a non-MIS");
            assert_eq!(mis.stats.violations, 0);
        }
    }

    #[test]
    fn mis_on_structures() {
        for g in [generators::complete(10), generators::star(12), generators::path(9)] {
            let mis = luby_mis(&g, 5).unwrap();
            assert!(is_mis(&g, &mis.in_mis));
        }
        // In K_n the MIS is a single node.
        let mis = luby_mis(&generators::complete(10), 5).unwrap();
        assert_eq!(mis.in_mis.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn isolated_nodes_always_join() {
        let g = dam_graph::Graph::builder(4).edge(0, 1).build().unwrap();
        let mis = luby_mis(&g, 1).unwrap();
        assert!(mis.in_mis[2] && mis.in_mis[3]);
        assert!(is_mis(&g, &mis.in_mis));
    }

    /// The paper's core trick in miniature: running MIS on the *line
    /// graph* yields a maximal matching of the base graph (Definition
    /// 3.1's conflict graph at `ℓ = 1`, `M = ∅`, is the line graph).
    #[test]
    fn mis_on_line_graph_is_maximal_matching() {
        use dam_graph::line_graph::line_graph;
        use dam_graph::{maximal, Matching};
        let mut rng = StdRng::seed_from_u64(9);
        for trial in 0..10 {
            let g = generators::gnp(20, 0.2, &mut rng);
            let lg = line_graph(&g);
            let mis = luby_mis(&lg, trial).unwrap();
            let edges: Vec<usize> =
                mis.in_mis.iter().enumerate().filter_map(|(e, &b)| b.then_some(e)).collect();
            let m = Matching::from_edges(&g, edges).expect("independent set of L(G) is a matching");
            assert!(maximal::is_maximal(&g, &m), "MIS maximality must carry over, trial {trial}");
        }
    }

    #[test]
    fn rounds_scale_logarithmically() {
        let mut rng = StdRng::seed_from_u64(8);
        let small = generators::random_regular(64, 4, &mut rng);
        let large = generators::random_regular(4096, 4, &mut rng);
        let r_small = luby_mis(&small, 2).unwrap().stats.rounds;
        let r_large = luby_mis(&large, 2).unwrap().stats.rounds;
        assert!(r_large < r_small * 8, "rounds: {r_small} -> {r_large}");
    }
}
