//! §3.2: `(1−1/k)`-MCM in bipartite graphs with `O(log n)`-bit messages
//! (Theorem 3.10).
//!
//! The machinery has three stages per *pass*, all in one [`PhaseNode`]
//! protocol over `3ℓ+2` rounds:
//!
//! 1. **Counting** (Algorithm 3, rounds `0..=ℓ`): a BFS from all free `X`
//!    nodes counts, per node, the number of shortest half-augmenting paths
//!    arriving over each port (`c_v[i]`, `n_v` — Lemma 3.8).
//! 2. **Lottery + token walk** (rounds `ℓ..=2ℓ`): each free `Y` node that
//!    heads `n_y` paths draws the *maximum of `n_y` uniforms* in one shot —
//!    we sample the exact monotone reparametrization `key = ln(U)/n_y`
//!    (`max of n uniforms ~ U^{1/n}`) so the winner distribution matches
//!    Luby's analysis — and releases a token that walks *backwards*,
//!    choosing port `i` with probability `c_v[i]/n_v`. Colliding tokens
//!    keep the largest key (ties by leader id). Surviving tokens trace a
//!    set of vertex-disjoint augmenting paths: one Luby iteration on the
//!    conflict graph `C_M(ℓ)`, emulated in `O(ℓ)` rounds (Lemma 3.9).
//! 3. **Augmentation** (rounds `2ℓ..=3ℓ+1`): tokens that reached a free
//!    `X` node retrace their recorded path forwards, flipping matched /
//!    unmatched edges; both endpoints of every flipped edge update their
//!    output registers.
//!
//! The driver repeats passes until no augmenting path of length `ℓ`
//! remains (each pass augments at least one path — the globally largest
//! key never loses a collision — so the loop always terminates), then
//! moves to the next phase `ℓ ∈ {1, 3, …, 2k−1}`; Lemmas 3.2/3.3 give the
//! `(1−1/k)` guarantee.
//!
//! Counts and winner keys are `Θ(ℓ log Δ)`-bit quantities; messages carry
//! their **analytical** widths so the CONGEST accounting (and the
//! [`dam_congest::CostModel::Pipelined`] round charging) reflects the
//! paper's Lemma 3.9 arithmetic.

use dam_congest::message::id_bits;
use dam_congest::{BitSize, Context, Network, Port, Protocol, RunSpec};
use dam_graph::{EdgeId, Graph, GraphError, Matching, Side, Topology};
use rand::RngExt;

use crate::error::CoreError;
use crate::israeli_itai::IiNode;
use crate::repair::sanitize_in_place;
use crate::report::matching_from_registers;
use crate::runtime::{Algorithm, Exec, MainRun, PortRow, PortRows};

/// Messages of the per-pass protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AugMsg {
    /// Algorithm 3's path count, with its analytical bit width.
    Count {
        /// Number of shortest half-augmenting paths (exact below `2^53`).
        paths: f64,
        /// `⌈log₂(paths+1)⌉` — what the count costs on the wire.
        bits: u32,
    },
    /// A lottery token walking backwards along counted edges.
    Token {
        /// `ln(U)/n_y` — monotone stand-in for the max of `n_y` uniforms.
        key: f64,
        /// Leader id (tie-break).
        leader: u64,
        /// Analytical width: `4·log₂ N`, `N ≤ n·Δ^{⌈ℓ/2⌉}`.
        bits: u32,
    },
    /// Path retrace; `matching` says whether the traversed hop becomes a
    /// matching edge.
    Augment {
        /// New state of the traversed edge.
        matching: bool,
    },
}

impl BitSize for AugMsg {
    fn bit_size(&self) -> usize {
        match *self {
            AugMsg::Count { bits, .. } | AugMsg::Token { bits, .. } => bits as usize,
            AugMsg::Augment { .. } => 2,
        }
    }
}

/// Bit width of a path-count message (value-dependent, Lemma 3.8 caps it
/// at `⌈d/2⌉ log Δ`).
fn count_bits(paths: f64) -> u32 {
    (paths.max(1.0).log2().floor() as u32) + 1
}

/// Static per-pass parameters shared by all nodes.
#[derive(Debug, Clone, Copy)]
pub struct PhaseParams {
    /// Path length `ℓ` this pass targets (odd).
    pub l: usize,
    /// Number of nodes (for the lottery range `N⁴`).
    pub n: usize,
    /// Maximum degree `Δ` (for the count/key widths).
    pub delta: usize,
}

impl PhaseParams {
    /// Analytical token width: `4 log₂ N` bits with
    /// `N = n · Δ^{⌈ℓ/2⌉}` (the conflict-graph size bound of §3.2).
    #[must_use]
    pub fn token_bits(&self) -> u32 {
        (4 * (id_bits(self.n.max(2)) + self.l.div_ceil(2) * id_bits(self.delta + 2))) as u32
    }

    /// Total rounds of one pass: counting `ℓ+1`, token walk `ℓ`,
    /// augmentation `ℓ+1`.
    #[must_use]
    pub fn pass_rounds(&self) -> usize {
        3 * self.l + 2
    }
}

/// The node's role in the (possibly induced) bipartite graph.
///
/// For plain bipartite inputs this mirrors the graph's recorded
/// bipartition; for Algorithm 4 it encodes membership in `Ĝ` (nodes
/// outside `V̂` get `None`).
pub type PhaseSide = Option<Side>;

/// Per-node output of one pass. The [`Default`] value is the halted
/// tombstone's output (free, no path, no augmentation) — what
/// [`crate::runtime::Slot::Dead`] reports for nodes outside the trusted
/// domain.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseOutput {
    /// Output register after the pass.
    pub matched_edge: Option<EdgeId>,
    /// Whether this node was a leader that counted at least one path
    /// (drives the driver's termination detection).
    pub saw_path: bool,
    /// Whether this node's register changed during augmentation.
    pub augmented: bool,
    /// For leaders: the number of augmenting paths counted by
    /// Algorithm 3 (`n_y` of Lemma 3.8); 0.0 otherwise. Exposed so the
    /// counting protocol can be differential-tested against brute-force
    /// path enumeration.
    pub leader_paths: f64,
}

/// One pass of counting + lottery + augmentation at a fixed `ℓ`.
///
/// Only mail makes a node act before the pass ends, so after every step
/// it sleeps ([`Context::sleep_until`]) until the last round,
/// [`PhaseParams::pass_rounds`], in which it halts.
#[derive(Debug)]
pub struct PhaseNode<'a> {
    params: PhaseParams,
    side: PhaseSide,
    /// Ports belonging to the (induced) graph this pass runs on,
    /// borrowed from the driver, which keeps them for every pass.
    live: &'a [bool],
    /// Current matching, as a port (if the matching edge is live).
    matched_port: Option<Port>,
    /// Output register (edge id), kept in sync with `matched_port`.
    matched_edge: Option<EdgeId>,
    // --- counting state ---
    /// `c_v[i]` per port, borrowed from the driver like `live`; holds
    /// this pass's counts once the first count has arrived (`t_v` set).
    counts: PortRow<'a>,
    n_v: f64,
    t_v: Option<usize>,
    // --- token state ---
    /// Port towards the leader (where the token arrived) — for the leader
    /// itself, the port it launched its token over.
    tok_in: Option<Port>,
    /// Port towards the free `X` end (where the token was forwarded).
    tok_out: Option<Port>,
    /// Whether this node is a leader that launched a token this pass.
    launched: bool,
    // --- reporting ---
    saw_path: bool,
    augmented: bool,
}

impl<'a> PhaseNode<'a> {
    /// Builds the pass state for one node.
    ///
    /// `matched_port` must be the port of the node's current matching
    /// edge (if any); `live[p]` selects the ports participating in this
    /// pass. A matched node whose matching port is not live must be given
    /// `side = None` (it is outside `V̂`). `counts` is the node's scratch
    /// row for its path counts, one cell per port.
    #[must_use]
    pub(crate) fn new(
        params: PhaseParams,
        side: PhaseSide,
        live: &'a [bool],
        counts: PortRow<'a>,
        matched_port: Option<Port>,
        matched_edge: Option<EdgeId>,
    ) -> PhaseNode<'a> {
        debug_assert_eq!(matched_port.is_some(), matched_edge.is_some());
        PhaseNode {
            params,
            side,
            live,
            matched_port,
            matched_edge,
            counts,
            n_v: 0.0,
            t_v: None,
            tok_in: None,
            tok_out: None,
            launched: false,
            saw_path: false,
            augmented: false,
        }
    }

    fn is_free(&self) -> bool {
        self.matched_port.is_none()
    }

    /// Stochastic backward step: port `i` with probability `c[i]/n_v`.
    fn sample_back_port(&self, ctx: &mut Context<'_, AugMsg>) -> Port {
        debug_assert!(self.n_v > 0.0);
        let mut x: f64 = ctx.rng().random_range(0.0..self.n_v);
        for (p, c) in self.counts.values().enumerate() {
            if c > 0.0 {
                if x < c {
                    return p;
                }
                x -= c;
            }
        }
        // Floating-point slack: fall back to the last counted port.
        self.counts.values().rposition(|c| c > 0.0).expect("n_v > 0 implies a counted port")
    }

    /// Takes the counts of `inbox`.
    fn handle_count(&mut self, ctx: &mut Context<'_, AugMsg>, inbox: &[(Port, AugMsg)]) {
        let mut arrivals = inbox
            .iter()
            .filter_map(|&(port, msg)| match msg {
                AugMsg::Count { paths, .. } => Some((port, paths)),
                _ => None,
            })
            .peekable();
        let Some(&(first, _)) = arrivals.peek() else { return };
        if self.t_v.is_some() || self.side.is_none() {
            return; // later messages are discarded (visited node) or not a participant
        }
        let round = ctx.round();
        if round > self.params.l {
            return; // counts cannot arrive after the counting stage
        }
        self.counts.fill(0.0);
        for (port, paths) in arrivals {
            self.counts.set(port, self.counts.get(port) + paths);
        }
        self.n_v = self.counts.values().sum();
        self.t_v = Some(round);
        match self.side {
            Some(Side::Y) => {
                if self.is_free() {
                    // A free Y node heads augmenting paths. By the phase
                    // precondition this only happens at round ℓ.
                    debug_assert_eq!(round, self.params.l, "no shorter augmenting path may exist");
                    self.saw_path = self.n_v > 0.0;
                } else if round < self.params.l {
                    let mate = self.matched_port.expect("matched");
                    ctx.send(mate, AugMsg::Count { paths: self.n_v, bits: count_bits(self.n_v) });
                }
            }
            Some(Side::X) => {
                // Necessarily matched (the count came over the matching
                // edge from the mate).
                debug_assert_eq!(Some(first), self.matched_port);
                if round < self.params.l {
                    let msg = AugMsg::Count { paths: self.n_v, bits: count_bits(self.n_v) };
                    for p in 0..self.live.len() {
                        if self.live[p] && Some(p) != self.matched_port {
                            ctx.send(p, msg);
                        }
                    }
                }
            }
            None => {}
        }
    }

    /// Launches the leader's token at round ℓ.
    fn launch_token(&mut self, ctx: &mut Context<'_, AugMsg>) {
        if self.side != Some(Side::Y) || !self.is_free() || self.t_v != Some(self.params.l) {
            return;
        }
        if self.n_v <= 0.0 {
            return;
        }
        // key = ln(U)/n_y: the exact law of max{U_1..U_{n_y}} under the
        // monotone map x ↦ ln(x)/1 — comparisons across leaders are
        // distributed exactly as the paper's max-of-uniform draw.
        let u: f64 = loop {
            let u: f64 = ctx.rng().random_range(0.0..1.0);
            if u > 0.0 {
                break u;
            }
        };
        let key = u.ln() / self.n_v;
        let out = self.sample_back_port(ctx);
        self.tok_in = Some(out); // the augment retrace arrives over `out`
        self.launched = true;
        ctx.send(
            out,
            AugMsg::Token { key, leader: ctx.id() as u64, bits: self.params.token_bits() },
        );
    }

    /// Takes the tokens of `inbox`.
    fn handle_tokens(&mut self, ctx: &mut Context<'_, AugMsg>, inbox: &[(Port, AugMsg)]) {
        // Keep the best (key, leader) token; the rest disappear.
        let best = inbox
            .iter()
            .filter_map(|&(port, msg)| match msg {
                AugMsg::Token { key, leader, .. } => Some((port, key, leader)),
                _ => None,
            })
            .max_by(|a, b| (a.1, a.2).partial_cmp(&(b.1, b.2)).expect("keys are finite"));
        let Some((port, key, leader)) = best else { return };
        if self.tok_in.is_some() || self.launched {
            // Already on a chosen path (cannot happen when arrival rounds
            // are unique; defensive for induced subgraph edge cases).
            return;
        }
        self.tok_in = Some(port);
        if self.side == Some(Side::X) && self.is_free() {
            // Level 0: the path is complete. Retrace it, flipping edges;
            // the first hop becomes a matching edge.
            self.set_matched(ctx, port);
            self.augmented = true;
            ctx.send(port, AugMsg::Augment { matching: true });
        } else if self.n_v > 0.0 {
            let out = self.sample_back_port(ctx);
            self.tok_out = Some(out);
            ctx.send(out, AugMsg::Token { key, leader, bits: self.params.token_bits() });
        }
    }

    fn set_matched(&mut self, ctx: &Context<'_, AugMsg>, port: Port) {
        self.matched_port = Some(port);
        self.matched_edge = Some(ctx.edge(port));
    }

    fn handle_augment(&mut self, ctx: &mut Context<'_, AugMsg>, port: Port, matching: bool) {
        self.augmented = true;
        if matching {
            self.set_matched(ctx, port);
        } else if self.matched_port == Some(port) {
            // Our old matching edge leaves the matching; the outgoing hop
            // below immediately rematches this node.
            self.matched_port = None;
            self.matched_edge = None;
        }
        if self.launched {
            // The leader is the far end of the path: the last hop is a
            // matching hop (odd path length) and nothing is forwarded.
            debug_assert!(matching, "the hop into the leader must be a matching hop");
            debug_assert_eq!(Some(port), self.tok_in, "augment must retrace the token path");
            return;
        }
        // Intermediate node: the retrace arrives over the port the token
        // left through, and continues over the port it arrived through.
        debug_assert_eq!(Some(port), self.tok_out, "augment must retrace the token path");
        let out = self.tok_in.expect("intermediate path nodes recorded the token arrival port");
        let next_matching = !matching;
        if next_matching {
            self.set_matched(ctx, out);
        }
        ctx.send(out, AugMsg::Augment { matching: next_matching });
    }
}

impl Protocol for PhaseNode<'_> {
    type Msg = AugMsg;
    type Output = PhaseOutput;

    fn on_start(&mut self, ctx: &mut Context<'_, AugMsg>) {
        if self.side == Some(Side::X) && self.is_free() {
            self.t_v = Some(0);
            let msg = AugMsg::Count { paths: 1.0, bits: 1 };
            for p in 0..self.live.len() {
                if self.live[p] {
                    ctx.send(p, msg);
                }
            }
        }
        ctx.sleep_until(self.params.pass_rounds());
    }

    fn on_round(&mut self, ctx: &mut Context<'_, AugMsg>, inbox: &[(Port, AugMsg)]) {
        // By kind: counts, then the leader's launch, tokens and augments.
        self.handle_count(ctx, inbox);
        if ctx.round() == self.params.l {
            self.launch_token(ctx);
        }
        self.handle_tokens(ctx, inbox);
        for &(port, msg) in inbox {
            if let AugMsg::Augment { matching } = msg {
                self.handle_augment(ctx, port, matching);
            }
        }
        if ctx.round() >= self.params.pass_rounds() {
            ctx.halt();
        } else {
            // Every stage acts only on mail (a leader launches in the
            // round its counts arrive), so an empty inbox is a no-op
            // until the pass ends.
            ctx.sleep_until(self.params.pass_rounds());
        }
    }

    fn into_output(self) -> PhaseOutput {
        PhaseOutput {
            matched_edge: self.matched_edge,
            leader_paths: if self.saw_path { self.n_v } else { 0.0 },
            saw_path: self.saw_path,
            augmented: self.augmented,
        }
    }
}

/// Runs augmentation passes at a fixed `ℓ` until no length-`ℓ` augmenting
/// path remains. Returns the number of passes.
///
/// `sides` and `live` define the (induced) bipartite graph; `registers`
/// holds the per-node output registers and is updated in place.
///
/// # Errors
/// Simulation or register-consistency failure.
pub(crate) fn exhaust_length(
    net: &mut Network<'_>,
    g: &Graph,
    sides: &[PhaseSide],
    live: &[Vec<bool>],
    registers: &mut [Option<EdgeId>],
    l: usize,
    max_passes: usize,
) -> Result<usize, CoreError> {
    let params = PhaseParams { l, n: g.node_count(), delta: g.max_degree() };
    let counts = PortRows::new(g);
    let mut passes = 0;
    while passes < max_passes {
        let out = net.execute(
            |v, graph| {
                let matched_edge = registers[v];
                let matched_port = matched_edge.map(|e| {
                    graph.port_of_edge(v, e).expect("register points at an incident edge")
                });
                PhaseNode::new(
                    params,
                    sides[v],
                    &live[v],
                    counts.row(v),
                    matched_port,
                    matched_edge,
                )
            },
            &RunSpec::default(),
        )?;
        passes += 1;
        let mut any_path = false;
        for (v, o) in out.outputs.iter().enumerate() {
            registers[v] = o.matched_edge;
            any_path |= o.saw_path;
        }
        // Validate register consistency every pass (cheap, catches bugs).
        matching_from_registers(g, registers)?;
        if !any_path {
            break;
        }
    }
    Ok(passes)
}

/// The `(1−1/k)` bipartite driver as a runtime [`Algorithm`]: a ladder
/// of path-length phases `ℓ ∈ {1, 3, …, 2k−1}`, each exhausting its
/// augmenting paths through [`PhaseNode`] passes on the executor's
/// engine.
///
/// Requires a recorded bipartition on the input graph
/// ([`Graph::bipartition`]). [`Algorithm::resume`] re-runs the ladder
/// from sanitized registers on the residual graph: ports towards dead
/// nodes are excluded from every pass, so no path is counted or
/// augmented through them, and surviving matched edges are preserved
/// (augmentation only ever *grows* a bipartite matching).
#[derive(Debug, Clone, Copy)]
pub struct Bipartite {
    /// Approximation parameter: augmenting paths up to length `2k−1`
    /// are exhausted, for the `(1−1/k)` guarantee of Theorem 3.10.
    pub k: usize,
    /// Warm-start with one Israeli–Itai phase before the ladder.
    pub warm_start: bool,
    /// Safety cap on passes per phase. The driver additionally caps at
    /// `4n + 16` so a lossy run cannot spin forever; fault-free every
    /// pass with a surviving path augments at least one, so neither cap
    /// binds before termination.
    pub max_passes_per_phase: usize,
}

impl Default for Bipartite {
    fn default() -> Bipartite {
        Bipartite { k: 3, warm_start: false, max_passes_per_phase: usize::MAX }
    }
}

impl Bipartite {
    /// Side labels of the topology's bipartition (recorded on a CSR
    /// graph, structural on implicit families), or the error the legacy
    /// entry point raised.
    fn sides(g: &dyn Topology) -> Result<Vec<PhaseSide>, CoreError> {
        let sides: Vec<PhaseSide> = (0..g.node_count()).map(|v| g.side_of(v)).collect();
        if sides.iter().any(Option::is_none) {
            return Err(CoreError::Graph(GraphError::NotBipartite));
        }
        Ok(sides)
    }

    /// Runs the phase ladder from `registers`, sanitizing between
    /// passes so the register state stays total on the trusted domain
    /// (a no-op fault-free — the differential suites pin that).
    fn drive(
        &self,
        exec: &mut Exec<'_>,
        sides: &[PhaseSide],
        mut registers: Vec<Option<EdgeId>>,
    ) -> Result<MainRun, CoreError> {
        let g = exec.graph();
        let n = g.node_count();
        let delta = g.max_degree();
        let alive = exec.alive().clone();
        let live: Vec<Vec<bool>> =
            (0..n).map(|v| (0..g.degree(v)).map(|p| alive[g.port(v, p).0]).collect()).collect();
        let counts = PortRows::new(g);
        let cap = self.max_passes_per_phase.min(4 * n + 16);
        let mut passes_total = 0usize;
        let mut l = 1;
        while l < 2 * self.k {
            let params = PhaseParams { l, n, delta };
            let mut passes = 0usize;
            while passes < cap {
                let out = exec.phase(|v, graph| {
                    let matched_edge = registers[v];
                    let matched_port = matched_edge.map(|e| {
                        graph.port_of_edge(v, e).expect("register points at an incident edge")
                    });
                    let counts = counts.row(v);
                    PhaseNode::new(params, sides[v], &live[v], counts, matched_port, matched_edge)
                })?;
                passes += 1;
                let mut any_path = false;
                for (v, o) in out.outputs.iter().enumerate() {
                    registers[v] = o.matched_edge;
                    any_path |= o.saw_path;
                }
                sanitize_in_place(g, &mut registers, &alive, None);
                if !any_path {
                    break;
                }
            }
            passes_total += passes;
            l += 2;
        }
        Ok(MainRun { registers, iterations: passes_total })
    }
}

impl Algorithm for Bipartite {
    fn name(&self) -> &'static str {
        "bipartite"
    }

    fn run(&self, exec: &mut Exec<'_>) -> Result<MainRun, CoreError> {
        let g = exec.graph();
        let sides = Bipartite::sides(g)?;
        let mut registers: Vec<Option<EdgeId>> = vec![None; g.node_count()];
        if self.warm_start {
            let out = exec.phase(|v, graph| IiNode::new(graph.degree(v)))?;
            registers = out.outputs;
            sanitize_in_place(g, &mut registers, exec.alive(), None);
        }
        self.drive(exec, &sides, registers)
    }

    fn resume(
        &self,
        exec: &mut Exec<'_>,
        registers: &[Option<EdgeId>],
    ) -> Result<MainRun, CoreError> {
        let sides = Bipartite::sides(exec.graph())?;
        self.drive(exec, &sides, registers.to_vec())
    }
}

/// Assembles a [`Matching`] for tests and callers holding raw registers.
///
/// # Errors
/// As [`matching_from_registers`].
pub fn registers_to_matching(g: &Graph, regs: &[Option<EdgeId>]) -> Result<Matching, GraphError> {
    matching_from_registers(g, regs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run_mm, RunReport, RuntimeConfig};
    use dam_congest::SimConfig;
    use dam_graph::{generators, hopcroft_karp, paths};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The driver bare on CONGEST(`4 log n`).
    fn mcm(g: &Graph, algo: Bipartite, seed: u64) -> Result<RunReport, CoreError> {
        let sim = SimConfig::congest_for(g.node_count(), 4).seed(seed);
        run_mm(&algo, g, &RuntimeConfig::new().sim(sim))
    }

    fn with_k(k: usize) -> Bipartite {
        Bipartite { k, ..Bipartite::default() }
    }

    fn check_ratio(g: &Graph, k: usize, seed: u64) -> (usize, usize) {
        let r = mcm(g, with_k(k), seed).unwrap();
        r.matching.validate(g).unwrap();
        let opt = hopcroft_karp::maximum_bipartite_matching_size(g);
        assert!(
            r.matching.size() as f64 >= (1.0 - 1.0 / k as f64) * opt as f64 - 1e-9,
            "ratio violated: {} < (1-1/{k})·{opt}",
            r.matching.size()
        );
        (r.matching.size(), opt)
    }

    #[test]
    fn single_phase_is_maximal_matching() {
        // k=1: only length-1 paths, i.e. a maximal matching.
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..10 {
            let g = generators::bipartite_gnp(15, 15, 0.2, &mut rng);
            let r = mcm(&g, with_k(1), trial).unwrap();
            assert!(dam_graph::maximal::is_maximal(&g, &r.matching));
        }
    }

    #[test]
    fn exhausts_short_paths() {
        // After phase ℓ the shortest augmenting path must exceed ℓ
        // (Lemma 3.2 materialized).
        let mut rng = StdRng::seed_from_u64(21);
        for trial in 0..10 {
            let g = generators::bipartite_gnp(12, 12, 0.3, &mut rng);
            let k = 3;
            let r = mcm(&g, with_k(k), trial).unwrap();
            if let Some(len) = paths::shortest_augmenting_path_len(&g, &r.matching).unwrap() {
                assert!(
                    len > 2 * k - 1,
                    "path of length {len} survived phases up to {}",
                    2 * k - 1
                );
            }
        }
    }

    #[test]
    fn ratio_on_random_bipartite() {
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..8 {
            let g = generators::bipartite_gnp(20, 20, 0.15, &mut rng);
            for k in [2, 3, 4] {
                check_ratio(&g, k, 1000 + trial);
            }
        }
    }

    #[test]
    fn long_path_needs_high_k() {
        // disjoint_paths(c, 5): each component is a P6; a maximal matching
        // can stall at 2 of 3 edges; k=3 must reach optimal 3 per path.
        let g = generators::disjoint_paths(4, 5);
        let (size, opt) = check_ratio(&g, 3, 5);
        assert_eq!(size, opt, "k=3 exhausts all length-5 paths in P6 components");
    }

    #[test]
    fn perfect_on_complete_bipartite() {
        let g = generators::complete_bipartite(8, 8);
        let r = mcm(&g, with_k(8), 2).unwrap();
        assert!(r.matching.size() >= 7);
    }

    #[test]
    fn messages_fit_congest_budget() {
        // With Δ and ℓ small the analytic widths stay within a few log n
        // words; all counts/keys must respect the declared widths.
        let mut rng = StdRng::seed_from_u64(41);
        let g = generators::bipartite_gnp(30, 30, 0.1, &mut rng);
        let r = mcm(&g, with_k(2), 7).unwrap();
        // Widths are analytic: token bits = 4(log n + log Δ) can exceed
        // 4·log n for ℓ ≥ 3 — that is exactly what the pipelined cost
        // model is for. Here we only check the accounting is populated.
        assert!(r.totals.stats.max_message_bits > 0);
        assert!(r.totals.stats.messages > 0);
    }

    #[test]
    fn rejects_non_bipartite() {
        let g = generators::cycle(5);
        assert!(mcm(&g, Bipartite::default(), 0).is_err());
    }

    #[test]
    fn empty_and_tiny() {
        let g = dam_graph::Graph::builder(0).build().unwrap();
        let mut g = g;
        g.compute_bipartition();
        let r = mcm(&g, Bipartite::default(), 0).unwrap();
        assert_eq!(r.matching.size(), 0);

        let g = generators::path(2);
        let r = mcm(&g, Bipartite::default(), 0).unwrap();
        assert_eq!(r.matching.size(), 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut rng = StdRng::seed_from_u64(51);
        let g = generators::bipartite_gnp(15, 15, 0.25, &mut rng);
        let a = mcm(&g, with_k(3), 99).unwrap();
        let b = mcm(&g, with_k(3), 99).unwrap();
        assert_eq!(a.matching.to_edge_vec(), b.matching.to_edge_vec());
        assert_eq!(a.totals.stats.rounds, b.totals.stats.rounds);
    }

    #[test]
    fn warm_start_preserves_guarantee_and_saves_passes() {
        let mut rng = StdRng::seed_from_u64(71);
        let mut cold_passes = 0usize;
        let mut warm_passes = 0usize;
        for seed in 0..5u64 {
            let g = generators::bipartite_gnp(25, 25, 0.12, &mut rng);
            let opt = dam_graph::hopcroft_karp::maximum_bipartite_matching_size(&g);
            let cold = mcm(&g, with_k(3), seed).unwrap();
            let warm = mcm(&g, Bipartite { warm_start: true, ..with_k(3) }, seed).unwrap();
            for r in [&cold, &warm] {
                assert!(3 * r.matching.size() >= 2 * opt);
            }
            cold_passes += cold.iterations;
            warm_passes += warm.iterations;
        }
        assert!(
            warm_passes <= cold_passes,
            "warm start should not need more passes: {warm_passes} vs {cold_passes}"
        );
    }

    /// Counts the engine's calls into a wrapped protocol. The wrapper
    /// hands the engine's context through, hint included.
    struct Counted<P> {
        inner: P,
        steps: usize,
    }

    impl<P: Protocol> Protocol for Counted<P> {
        type Msg = P::Msg;
        type Output = (P::Output, usize);

        fn on_start(&mut self, ctx: &mut Context<'_, P::Msg>) {
            self.steps += 1;
            self.inner.on_start(ctx);
        }

        fn on_round(&mut self, ctx: &mut Context<'_, P::Msg>, inbox: &[(Port, P::Msg)]) {
            self.steps += 1;
            self.inner.on_round(ctx, inbox);
        }

        fn into_output(self) -> (P::Output, usize) {
            (self.inner.into_output(), self.steps)
        }
    }

    /// Host-independent cost of the sequential engine on the `k = 3`
    /// ladder: a pass steps every node in its first and last round and
    /// otherwise only the nodes that received a frame, so its steps are
    /// at most its frames plus `2n`.
    #[test]
    fn a_pass_steps_only_nodes_with_mail() {
        let topo = dam_graph::ImplicitTopology::torus(64, 64).unwrap();
        let n = topo.node_count();
        let sides: Vec<PhaseSide> = (0..n).map(|v| topo.side_of(v)).collect();
        let live: Vec<Vec<bool>> = (0..n).map(|v| vec![true; topo.degree(v)]).collect();
        let counts = PortRows::new(&topo);
        let mut net = Network::new(&topo, SimConfig::congest_for(n, 4).seed(9));
        let mut registers: Vec<Option<EdgeId>> = vec![None; n];
        let (mut steps, mut frames, mut passes) = (0, 0, 0);
        for l in [1, 3, 5] {
            let params = PhaseParams { l, n, delta: topo.max_degree() };
            loop {
                let out = net
                    .run(|v, graph| {
                        let me = registers[v];
                        let mp = me.map(|e| graph.port_of_edge(v, e).unwrap());
                        let inner =
                            PhaseNode::new(params, sides[v], &live[v], counts.row(v), mp, me);
                        Counted { inner, steps: 0 }
                    })
                    .unwrap();
                passes += 1;
                frames += out.stats.frames() as usize;
                let mut any_path = false;
                for (v, (o, s)) in out.outputs.iter().enumerate() {
                    registers[v] = o.matched_edge;
                    any_path |= o.saw_path;
                    steps += s;
                }
                if !any_path {
                    break;
                }
            }
        }
        assert!(passes > 3, "{passes} passes");
        assert!(
            steps <= frames + 2 * n * passes,
            "{steps} steps, {frames} frames, {passes} passes"
        );
    }

    /// Lemma 3.8, differentially: each leader's `n_y` must equal the
    /// brute-force count of augmenting paths of length exactly `l`
    /// ending at that leader.
    #[test]
    fn lemma_3_8_counts_match_enumeration() {
        let mut rng = StdRng::seed_from_u64(61);
        for trial in 0..8u64 {
            let g = generators::bipartite_gnp(10, 10, 0.3, &mut rng);
            let sides_raw = g.bipartition().unwrap().to_vec();
            let sides: Vec<PhaseSide> = sides_raw.iter().map(|&s| Some(s)).collect();
            let live: Vec<Vec<bool>> = g.nodes().map(|v| vec![true; g.degree(v)]).collect();
            let counts = PortRows::new(&g);
            let mut net = Network::new(&g, SimConfig::congest_for(g.node_count(), 4).seed(trial));
            let mut registers: Vec<Option<EdgeId>> = vec![None; g.node_count()];
            let mut l = 1usize;
            while l <= 5 {
                // Probe one pass at l and compare the leaders' counts to
                // the oracle (precondition: lengths < l were exhausted).
                let m_before = registers_to_matching(&g, &registers).unwrap();
                let params = PhaseParams { l, n: g.node_count(), delta: g.max_degree() };
                let out = net
                    .run(|v, graph| {
                        let me = registers[v];
                        let mp = me.map(|e| graph.port_of_edge(v, e).unwrap());
                        PhaseNode::new(params, sides[v], &live[v], counts.row(v), mp, me)
                    })
                    .unwrap();
                let all_l = dam_graph::paths::enumerate_augmenting_paths(&g, &m_before, l);
                for (v, o) in out.outputs.iter().enumerate() {
                    if sides_raw[v] == Side::Y && m_before.is_free(v) {
                        let expected = all_l
                            .iter()
                            .filter(|p| {
                                let (a, b) = p.endpoints();
                                p.len() == l && (a == v || b == v)
                            })
                            .count() as f64;
                        assert!(
                            (o.leader_paths - expected).abs() < 1e-9,
                            "trial {trial}, l={l}, node {v}: counted {} vs enumerated {expected}",
                            o.leader_paths
                        );
                    }
                }
                // Fold the probe's augmentations in, then exhaust l.
                for (v, o) in out.outputs.iter().enumerate() {
                    registers[v] = o.matched_edge;
                }
                exhaust_length(&mut net, &g, &sides, &live, &mut registers, l, usize::MAX).unwrap();
                l += 2;
            }
        }
    }
}
