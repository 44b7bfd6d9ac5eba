//! The [`Topology`] abstraction: what the CONGEST engine actually needs
//! from a graph, plus seed-deterministic *implicit* topologies that emit
//! adjacency on demand without materializing an edge list.
//!
//! A materialized CSR [`Graph`] is an implementation accident, not a
//! requirement: the engine and every node program touch a graph only
//! through `node_count` / `degree` / `port` / `endpoints` / `weight` /
//! `side_of`. [`Topology`] captures exactly that surface, object-safely,
//! so a `&dyn Topology` can stand in anywhere a `&Graph` used to — the
//! CSR graph implements it by delegation (unchanged semantics,
//! bit-identical runs), and [`ImplicitTopology`] implements it from
//! closed-form adjacency, making n = 10⁶ runs fit in memory that a
//! materialized graph plus per-node state would exhaust.
//!
//! # Port/edge-id contract
//!
//! [`Graph`] numbers ports in edge-insertion order. Every implicit
//! family defines a canonical global edge-id enumeration and presents
//! each node's ports **sorted by edge id**; its
//! [`ImplicitTopology::materialize`] twin inserts edges in exactly that
//! id order, which makes the CSR twin's ports identical — so a protocol
//! run is bit-for-bit the same on either representation (the
//! `topology_equiv` proptests pin this).
//!
//! # Determinism domain
//!
//! `ring`, `torus` and `reg` (circulant) adjacency is pure arithmetic:
//! O(1) per port, any n. `gnp` samples each node's forward row from a
//! keyed geometric skip stream (Batagelj & Brandes, "Efficient
//! generation of large random networks", Phys. Rev. E 71, 036113,
//! 2005): construction is O(n + m) time and memory, `port` and
//! `endpoints` are O(log n) lookups, and the spec parser caps
//! n + p·n(n−1)/2 at [`GNP_MAX_SIZE`]. The skip draws use IEEE
//! `+ − × ÷` only — no platform `log` — so a `gnp:N:P:SEED` spec names
//! the same graph on every host.

use crate::bitset::BitSet;
use crate::graph::{EdgeId, Graph, NodeId, Side};
use crate::GraphError;

/// Size cap of the `gnp:` implicit family on n plus the expected edge
/// count p·n(n−1)/2. Its arrays cost 16 bytes per node and 8 per edge,
/// so an instance at the cap stays under 512 MiB (the materialized CSR
/// twin costs about six times that per edge). Node ids are stored as
/// `u32`, which the cap also keeps in range.
pub const GNP_MAX_SIZE: usize = 1 << 25;

const _: () = assert!(GNP_MAX_SIZE <= u32::MAX as usize);

/// The graph surface the CONGEST engine and runtime middleware consume.
///
/// Object-safe by construction: engines hold `&dyn Topology`. `Sync` is
/// required because the sharded engine shares the topology across
/// worker threads.
pub trait Topology: Sync {
    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// Number of edges (parallel edges counted individually).
    fn edge_count(&self) -> usize;

    /// The degree of `v` (number of incident edges).
    fn degree(&self, v: NodeId) -> usize;

    /// The maximum degree `Δ` (0 for an empty graph).
    fn max_degree(&self) -> usize;

    /// The `(neighbour, edge)` pair behind port `p` of node `v`; ports
    /// number `0..degree(v)`.
    fn port(&self, v: NodeId, p: usize) -> (NodeId, EdgeId);

    /// Endpoints of edge `e` (unordered).
    fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId);

    /// Weight of edge `e` (1.0 for unweighted topologies).
    fn weight(&self, e: EdgeId) -> f64 {
        let _ = e;
        1.0
    }

    /// Whether explicit weights are attached.
    fn is_weighted(&self) -> bool {
        false
    }

    /// The side of `v` in a known bipartition, if one is known.
    fn side_of(&self, v: NodeId) -> Option<Side> {
        let _ = v;
        None
    }

    /// Downcast hook: the materialized CSR graph behind this topology,
    /// if it *is* one. Layers that genuinely need CSR-only operations
    /// (e.g. `edge_subgraph` in churn maintenance) use this to avoid
    /// re-materializing, and fall back to [`materialize`] otherwise.
    fn as_graph(&self) -> Option<&Graph> {
        None
    }

    /// The endpoint of `e` that is not `v`.
    ///
    /// # Panics
    /// Panics if `v` is not an endpoint of `e`.
    fn other_endpoint(&self, e: EdgeId, v: NodeId) -> NodeId {
        let (a, b) = self.endpoints(e);
        if v == a {
            b
        } else {
            assert_eq!(v, b, "node {v} is not an endpoint of edge {e}");
            a
        }
    }

    /// The port of `v` whose arc is edge `e`, if any.
    fn port_of_edge(&self, v: NodeId, e: EdgeId) -> Option<usize> {
        (0..self.degree(v)).find(|&p| self.port(v, p).1 == e)
    }
}

impl dyn Topology + '_ {
    /// Incident arcs of `v` as `(port, neighbour, edge)` triples, in
    /// port order, read through [`Topology::port`] without allocating.
    pub fn incident(&self, v: NodeId) -> impl Iterator<Item = (usize, NodeId, EdgeId)> + '_ {
        // Shortens the trait object's lifetime to the borrow's, the only
        // lifetime the returned iterator may capture.
        let topo: &dyn Topology = self;
        (0..topo.degree(v)).map(move |p| {
            let (u, e) = topo.port(v, p);
            (p, u, e)
        })
    }
}

impl Topology for Graph {
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    fn edge_count(&self) -> usize {
        Graph::edge_count(self)
    }

    fn degree(&self, v: NodeId) -> usize {
        Graph::degree(self, v)
    }

    fn max_degree(&self) -> usize {
        Graph::max_degree(self)
    }

    fn port(&self, v: NodeId, p: usize) -> (NodeId, EdgeId) {
        Graph::port(self, v, p)
    }

    fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        Graph::endpoints(self, e)
    }

    fn weight(&self, e: EdgeId) -> f64 {
        Graph::weight(self, e)
    }

    fn is_weighted(&self) -> bool {
        Graph::is_weighted(self)
    }

    fn side_of(&self, v: NodeId) -> Option<Side> {
        self.bipartition().map(|b| b[v])
    }

    fn as_graph(&self) -> Option<&Graph> {
        Some(self)
    }

    fn other_endpoint(&self, e: EdgeId, v: NodeId) -> NodeId {
        Graph::other_endpoint(self, e, v)
    }

    fn port_of_edge(&self, v: NodeId, e: EdgeId) -> Option<usize> {
        Graph::port_of_edge(self, v, e)
    }
}

/// The SplitMix64 stream step (its "golden gamma").
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Domain separator of the `gnp` row keys.
const GNP_ROW_DOMAIN: u64 = 0x6E70_5F67_6E70_C01A;

/// SplitMix64: the mixer behind the `gnp` family's row streams.
/// (Same mixer as `dam_congest::rng::splitmix64`; duplicated here so the
/// graph crate stays dependency-free.)
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Appends row `u`'s forward neighbours `v > u` to `out`, ascending.
/// The row is one SplitMix64 stream keyed on `(seed, u)` (`seed_key`
/// is the seed's domain-separated key); each draw `r ∈ (0, 1]` becomes
/// the gap `⌊ln r / ln(1 − p)⌋ ~ Geometric(p)` — the pairs skipped
/// before the next present one — so a row costs one draw per neighbour
/// plus one. `log_q` is `ln(1 − p)`.
fn gnp_row(seed_key: u64, u: usize, n: usize, log_q: f64, out: &mut Vec<u32>) {
    let mut state = splitmix64(seed_key ^ u as u64);
    let mut v = u + 1;
    while v < n {
        state = state.wrapping_add(GOLDEN_GAMMA);
        let r = ((splitmix64(state) >> 11) + 1) as f64 / (1u64 << 53) as f64;
        let gap = ln(r) / log_q;
        // `log_q` is −0.0 at p = 0 (or when ln(1 − p) underflows), which
        // makes the gap +∞ or NaN: the row is empty.
        if gap.is_nan() || gap >= (n - v) as f64 {
            break;
        }
        v += gap as usize;
        out.push(u32::try_from(v).expect("n <= GNP_MAX_SIZE keeps node ids in u32"));
        v += 1;
    }
}

/// `ln x` for a normal `x > 0` from IEEE `+ − × ÷` only, so every host
/// draws the same gaps (`f64::ln` calls the platform `log`, whose last
/// bit may differ). Splits `x = m·2^k` with `m ∈ (1/√2, √2]`.
fn ln(x: f64) -> f64 {
    let bits = x.to_bits();
    let mut k = i32::try_from(bits >> 52).expect("x > 0 has no sign bit") - 1023;
    let mut m = f64::from_bits((bits & ((1 << 52) - 1)) | (1023 << 52));
    if m > std::f64::consts::SQRT_2 {
        m *= 0.5;
        k += 1;
    }
    f64::from(k) * std::f64::consts::LN_2 + ln_ratio((m - 1.0) / (m + 1.0))
}

/// `ln(1 − p)` for `p ∈ [0, 1]` (−0.0 at `p = 0`). Small `p` goes
/// through `1 − p = (1 + s)/(1 − s)`, `s = −p/(2 − p)`, which keeps the
/// bits that rounding `1 − p` would lose.
fn ln_1m(p: f64) -> f64 {
    if p >= 1.0 {
        f64::NEG_INFINITY
    } else if p < 0.25 {
        ln_ratio(-p / (2.0 - p))
    } else {
        ln(1.0 - p)
    }
}

/// `ln((1 + s)/(1 − s)) = 2·atanh s` for `|s| ≤ 0.18`, by its series
/// `2s·Σ s^{2j}/(2j + 1)`; past `j = 11` the terms fall below half an
/// ulp of the sum.
fn ln_ratio(s: f64) -> f64 {
    let z = s * s;
    let mut sum = 0.0;
    for j in (0..12u32).rev() {
        sum = sum * z + 1.0 / f64::from(2 * j + 1);
    }
    2.0 * s * sum
}

/// A seed-deterministic implicit topology: adjacency in closed form, no
/// materialized edge list. See the module docs for the port/edge-id
/// contract each family obeys.
#[derive(Debug, Clone, PartialEq)]
pub enum ImplicitTopology {
    /// The cycle `C_n` (`n ≥ 3`): edge `e` joins `e` and `(e+1) mod n`.
    /// Bipartition (even/odd) is exposed when `n` is even.
    Ring {
        /// Number of nodes.
        n: usize,
    },
    /// The `w × h` torus grid (`w, h ≥ 3`): node `v = y·w + x`; edge
    /// `2v` goes right (x-wrap), edge `2v+1` goes down (y-wrap).
    /// Bipartition (coordinate parity) is exposed when both `w` and `h`
    /// are even.
    Torus {
        /// Grid width.
        w: usize,
        /// Grid height.
        h: usize,
    },
    /// The `d`-regular circulant on `n` nodes: offset `j ∈ 1..=d/2`
    /// contributes the edge block `(j−1)·n + v ↦ (v, (v+j) mod n)`; odd
    /// `d` (requires even `n`) adds the diameter block of `n/2` edges.
    Regular {
        /// Number of nodes (`d < n`; even when `d` is odd).
        n: usize,
        /// Degree (`1 ≤ d < n`).
        d: usize,
    },
    /// G(n, p) sampled row by row: node `u`'s forward neighbours
    /// `v > u` come from one geometric skip stream keyed on
    /// `(seed, u)`, so edge ids are the present pairs `(u, v)` in
    /// lexicographic order. Built in O(n + m) time and memory; `port`
    /// and `endpoints` are O(log n). Capped at [`GNP_MAX_SIZE`] on
    /// n + p·n(n−1)/2.
    Gnp {
        /// Number of nodes.
        n: usize,
        /// Edge probability.
        p: f64,
        /// Row-stream key.
        seed: u64,
        /// Forward-edge prefix sums: `prefix[u]` is the number of edges
        /// `(a, b)` with `a < u` — i.e. the first edge id owned by `u`'s
        /// forward block. Length `n + 1`; `prefix[n]` is the edge count.
        prefix: Vec<usize>,
        /// The larger endpoint of each edge, by edge id.
        fwd: Vec<u32>,
        /// Backward index offsets: `back[back_start[v]..back_start[v + 1]]`
        /// holds `v`'s smaller neighbours. Length `n + 1`.
        back_start: Vec<usize>,
        /// Smaller neighbours of every node, ascending within a node.
        back: Vec<u32>,
        /// Cached maximum degree.
        max_deg: usize,
    },
}

impl ImplicitTopology {
    /// The ring `C_n`.
    ///
    /// # Errors
    /// `n < 3` (smaller rings degenerate to parallel edges/self-loops).
    pub fn ring(n: usize) -> Result<ImplicitTopology, String> {
        if n < 3 {
            return Err(format!("ring needs n >= 3, got {n}"));
        }
        Ok(ImplicitTopology::Ring { n })
    }

    /// The `w × h` torus.
    ///
    /// # Errors
    /// `w < 3` or `h < 3` (wrap-around would create parallel edges).
    pub fn torus(w: usize, h: usize) -> Result<ImplicitTopology, String> {
        if w < 3 || h < 3 {
            return Err(format!("torus needs w, h >= 3, got {w}x{h}"));
        }
        Ok(ImplicitTopology::Torus { w, h })
    }

    /// The `d`-regular circulant on `n` nodes.
    ///
    /// # Errors
    /// `d == 0`, `d >= n`, or odd `d` with odd `n` (the diameter offset
    /// needs an even node count).
    pub fn regular(n: usize, d: usize) -> Result<ImplicitTopology, String> {
        if d == 0 || d >= n {
            return Err(format!("reg needs 1 <= d < n, got n={n} d={d}"));
        }
        if d % 2 == 1 && n % 2 == 1 {
            return Err(format!("reg with odd d={d} needs even n, got n={n}"));
        }
        Ok(ImplicitTopology::Regular { n, d })
    }

    /// G(n, p), one geometric skip stream per row under `seed`.
    ///
    /// # Errors
    /// `p` outside `[0, 1]`, or n plus the expected edge count
    /// p·n(n−1)/2 above [`GNP_MAX_SIZE`] (the arrays would not fit in
    /// memory).
    pub fn gnp(n: usize, p: f64, seed: u64) -> Result<ImplicitTopology, String> {
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("gnp probability must be in [0, 1], got {p}"));
        }
        let expected = p * n as f64 * n.saturating_sub(1) as f64 / 2.0;
        if n as f64 + expected > GNP_MAX_SIZE as f64 {
            return Err(format!(
                "gnp n={n} p={p} has n + p*n(n-1)/2 = {:.0} above the {GNP_MAX_SIZE} size cap",
                n as f64 + expected
            ));
        }
        let mut prefix = Vec::with_capacity(n + 1);
        let mut fwd = Vec::with_capacity((expected + 6.0 * expected.sqrt()) as usize + 1);
        prefix.push(0);
        let (seed_key, log_q) = (splitmix64(seed ^ GNP_ROW_DOMAIN), ln_1m(p));
        for u in 0..n {
            gnp_row(seed_key, u, n, log_q, &mut fwd);
            prefix.push(fwd.len());
        }
        // Backward index by one counting pass; filling in edge-id order
        // keeps each node's smaller neighbours ascending.
        let mut back_start = vec![0usize; n + 1];
        for &v in &fwd {
            back_start[v as usize + 1] += 1;
        }
        for v in 0..n {
            back_start[v + 1] += back_start[v];
        }
        let mut cursor = back_start.clone();
        let mut back = vec![0u32; fwd.len()];
        for u in 0..n {
            for &v in &fwd[prefix[u]..prefix[u + 1]] {
                back[cursor[v as usize]] = u32::try_from(u).expect("u < v fits u32");
                cursor[v as usize] += 1;
            }
        }
        let max_deg = (0..n)
            .map(|v| prefix[v + 1] - prefix[v] + back_start[v + 1] - back_start[v])
            .max()
            .unwrap_or(0);
        Ok(ImplicitTopology::Gnp { n, p, seed, prefix, fwd, back_start, back, max_deg })
    }

    /// Parses the canonical topology spec grammar shared by the CLI,
    /// the chaos harness and the bench bins:
    ///
    /// * `ring:N` — the cycle `C_N`;
    /// * `torus:WxH` — the `W × H` torus grid;
    /// * `reg:N:D` — the `D`-regular circulant on `N` nodes;
    /// * `gnp:N:P:SEED` — G(N, P) from row skip streams keyed on `SEED`.
    ///
    /// # Errors
    /// A human-readable message naming the malformed or out-of-domain
    /// spec (CLIs map it to usage-error exit 2).
    pub fn parse(spec: &str) -> Result<ImplicitTopology, String> {
        let bad = |what: &str| format!("bad topology spec '{spec}': {what}");
        let mut parts = spec.split(':');
        let family = parts.next().unwrap_or("");
        let rest: Vec<&str> = parts.collect();
        match family {
            "ring" => {
                let [n] = rest[..] else { return Err(bad("want ring:N")) };
                let n: usize = n.parse().map_err(|_| bad("N must be an integer"))?;
                ImplicitTopology::ring(n)
            }
            "torus" => {
                let [dims] = rest[..] else { return Err(bad("want torus:WxH")) };
                let (w, h) = dims.split_once('x').ok_or_else(|| bad("want torus:WxH"))?;
                let w: usize = w.parse().map_err(|_| bad("W must be an integer"))?;
                let h: usize = h.parse().map_err(|_| bad("H must be an integer"))?;
                ImplicitTopology::torus(w, h)
            }
            "reg" => {
                let [n, d] = rest[..] else { return Err(bad("want reg:N:D")) };
                let n: usize = n.parse().map_err(|_| bad("N must be an integer"))?;
                let d: usize = d.parse().map_err(|_| bad("D must be an integer"))?;
                ImplicitTopology::regular(n, d)
            }
            "gnp" => {
                let [n, p, seed] = rest[..] else { return Err(bad("want gnp:N:P:SEED")) };
                let n: usize = n.parse().map_err(|_| bad("N must be an integer"))?;
                let p: f64 = p.parse().map_err(|_| bad("P must be a probability"))?;
                let seed: u64 = seed.parse().map_err(|_| bad("SEED must be an integer"))?;
                ImplicitTopology::gnp(n, p, seed)
            }
            other => Err(format!(
                "unknown topology family '{other}' in '{spec}' (ring:N | torus:WxH | reg:N:D | \
                 gnp:N:P:SEED)"
            )),
        }
    }

    /// The canonical spec string this topology parses from.
    #[must_use]
    pub fn spec(&self) -> String {
        match *self {
            ImplicitTopology::Ring { n } => format!("ring:{n}"),
            ImplicitTopology::Torus { w, h } => format!("torus:{w}x{h}"),
            ImplicitTopology::Regular { n, d } => format!("reg:{n}:{d}"),
            ImplicitTopology::Gnp { n, p, seed, .. } => format!("gnp:{n}:{p}:{seed}"),
        }
    }

    /// Materializes the CSR twin: same node count, same edge ids, same
    /// port numbering (edges are inserted in global id order, and every
    /// implicit family presents ports sorted by edge id — which is what
    /// makes runs on either representation bit-identical).
    ///
    /// # Panics
    /// Panics only on internal enumeration bugs (the construction is
    /// self-validating).
    #[must_use]
    pub fn materialize(&self) -> Graph {
        let n = Topology::node_count(self);
        let mut b = Graph::builder(n);
        if let ImplicitTopology::Gnp { ref prefix, ref fwd, .. } = *self {
            for u in 0..n {
                for &v in &fwd[prefix[u]..prefix[u + 1]] {
                    b.edge(u, v as usize);
                }
            }
        } else {
            for e in 0..Topology::edge_count(self) {
                let (u, v) = Topology::endpoints(self, e);
                b.edge(u, v);
            }
        }
        if let Some(sides) = self.bipartition_vec() {
            b.bipartition(sides);
        }
        b.build().expect("implicit families enumerate valid simple edges")
    }

    /// The full bipartition vector, when the family exposes one.
    fn bipartition_vec(&self) -> Option<Vec<Side>> {
        let n = Topology::node_count(self);
        (0..n).map(|v| Topology::side_of(self, v)).collect()
    }

    /// All-present node and edge masks sized for this topology —
    /// convenience for presence-mask call sites.
    #[must_use]
    pub fn full_masks(&self) -> (BitSet, BitSet) {
        (
            BitSet::filled(Topology::node_count(self), true),
            BitSet::filled(Topology::edge_count(self), true),
        )
    }
}

/// The `(neighbour, edge)` pair behind port `p` of `v`, where `inc` holds
/// `v`'s `(edge, neighbour)` pairs sorted by edge id.
#[inline]
fn port_in(inc: &[(EdgeId, NodeId)], v: NodeId, p: usize) -> (NodeId, EdgeId) {
    debug_assert!(inc.is_sorted(), "ports of node {v} out of edge-id order: {inc:?}");
    let &(e, u) = inc.get(p).unwrap_or_else(|| panic!("port {p} out of range at node {v}"));
    (u, e)
}

impl Topology for ImplicitTopology {
    fn node_count(&self) -> usize {
        match *self {
            ImplicitTopology::Ring { n }
            | ImplicitTopology::Regular { n, .. }
            | ImplicitTopology::Gnp { n, .. } => n,
            ImplicitTopology::Torus { w, h } => w * h,
        }
    }

    fn edge_count(&self) -> usize {
        match *self {
            ImplicitTopology::Ring { n } => n,
            ImplicitTopology::Torus { w, h } => 2 * w * h,
            ImplicitTopology::Regular { n, d } => (d / 2) * n + (d % 2) * (n / 2),
            ImplicitTopology::Gnp { ref fwd, .. } => fwd.len(),
        }
    }

    fn degree(&self, v: NodeId) -> usize {
        match *self {
            ImplicitTopology::Ring { n } => {
                assert!(v < n, "node {v} out of range");
                2
            }
            ImplicitTopology::Torus { w, h } => {
                assert!(v < w * h, "node {v} out of range");
                4
            }
            ImplicitTopology::Regular { n, d } => {
                assert!(v < n, "node {v} out of range");
                d
            }
            ImplicitTopology::Gnp { ref prefix, ref back_start, .. } => {
                prefix[v + 1] - prefix[v] + back_start[v + 1] - back_start[v]
            }
        }
    }

    fn max_degree(&self) -> usize {
        match *self {
            ImplicitTopology::Ring { .. } => 2,
            ImplicitTopology::Torus { .. } => 4,
            ImplicitTopology::Regular { d, .. } => d,
            ImplicitTopology::Gnp { max_deg, .. } => max_deg,
        }
    }

    fn port(&self, v: NodeId, p: usize) -> (NodeId, EdgeId) {
        if let ImplicitTopology::Gnp { ref prefix, ref fwd, ref back_start, ref back, .. } = *self {
            // Ports sorted by edge id: edges to smaller neighbours come
            // first (their ids live in the neighbour's forward block,
            // blocks ordered by owner), then edges to larger neighbours
            // (this node's own forward block, ordered by neighbour).
            let smaller = &back[back_start[v]..back_start[v + 1]];
            if let Some(&u) = smaller.get(p) {
                let u = u as usize;
                let rank = fwd[prefix[u]..prefix[u + 1]]
                    .binary_search(&u32::try_from(v).expect("v < n fits u32"))
                    .expect("the backward index mirrors the forward rows");
                return (u, prefix[u] + rank);
            }
            let k = p - smaller.len();
            let larger = &fwd[prefix[v]..prefix[v + 1]];
            let &u = larger.get(k).unwrap_or_else(|| panic!("port {p} out of range at node {v}"));
            return (u as usize, prefix[v] + k);
        }
        match *self {
            ImplicitTopology::Ring { n } => {
                assert!(v < n, "node {v} out of range");
                // Edge ids: predecessor edge is `pred`, successor edge is
                // `v`; only node 0's predecessor edge (`n − 1`) wraps
                // past its successor edge.
                let pred = (v + n - 1) % n;
                let succ = (v, (v + 1) % n);
                let inc = if v == 0 { [succ, (pred, pred)] } else { [(pred, pred), succ] };
                port_in(&inc, v, p)
            }
            ImplicitTopology::Torus { w, h } => {
                assert!(v < w * h, "node {v} out of range");
                let (x, y) = (v % w, v / w);
                let right = (2 * v, y * w + (x + 1) % w);
                let down = (2 * v + 1, ((y + 1) % h) * w + x);
                let left = y * w + (x + w - 1) % w;
                let left = (2 * left, left);
                let up = ((y + h - 1) % h) * w + x;
                let up = (2 * up + 1, up);
                // Without wrap, `up` (2v − 2w + 1) precedes `left` (2v − 2),
                // and both precede this node's own edges 2v and 2v + 1. A
                // wrapped `left` (2v + 2w − 2) or `up` (2v + 2(h−1)w + 1)
                // follows them instead, `left` first since h ≥ 3.
                let inc = match (x == 0, y == 0) {
                    (false, false) => [up, left, right, down],
                    (false, true) => [left, right, down, up],
                    (true, false) => [up, right, down, left],
                    (true, true) => [right, down, left, up],
                };
                port_in(&inc, v, p)
            }
            ImplicitTopology::Regular { n, d } => {
                assert!(v < n, "node {v} out of range");
                // Block j (offsets `j = 1..=d/2`) holds the edge ids
                // `(j−1)·n ..`, so ports go block by block: forward
                // `(j−1)·n + v` and backward `(j−1)·n + (v − j) mod n`,
                // the backward one first unless `v − j` wraps. The
                // diameter edge of odd `d` comes last.
                let pairs = d - d % 2;
                if p < pairs {
                    let j = p / 2 + 1;
                    let block = (j - 1) * n;
                    let back = (v + n - j) % n;
                    let backward_first = v >= j;
                    if p.is_multiple_of(2) == backward_first {
                        (back, block + back)
                    } else {
                        ((v + j) % n, block + v)
                    }
                } else if p == pairs && d % 2 == 1 {
                    let half = n / 2;
                    ((v + half) % n, pairs / 2 * n + v % half)
                } else {
                    panic!("port {p} out of range at node {v}")
                }
            }
            ImplicitTopology::Gnp { .. } => unreachable!("handled above"),
        }
    }

    fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        match *self {
            ImplicitTopology::Ring { n } => {
                assert!(e < n, "edge {e} out of range");
                (e, (e + 1) % n)
            }
            ImplicitTopology::Torus { w, h } => {
                let n = w * h;
                assert!(e < 2 * n, "edge {e} out of range");
                let v = e / 2;
                let (x, y) = (v % w, v / w);
                if e.is_multiple_of(2) {
                    (v, y * w + (x + 1) % w)
                } else {
                    (v, ((y + 1) % h) * w + x)
                }
            }
            ImplicitTopology::Regular { n, d } => {
                assert!(e < Topology::edge_count(self), "edge {e} out of range");
                let j = e / n + 1;
                if d % 2 == 1 && e >= (d / 2) * n {
                    let v = e - (d / 2) * n;
                    (v, v + n / 2)
                } else {
                    let v = e % n;
                    (v, (v + j) % n)
                }
            }
            ImplicitTopology::Gnp { ref prefix, ref fwd, .. } => {
                assert!(e < fwd.len(), "edge {e} out of range");
                // Owner: the largest u with prefix[u] <= e (prefix[0] = 0).
                (prefix.partition_point(|&x| x <= e) - 1, fwd[e] as usize)
            }
        }
    }

    fn side_of(&self, v: NodeId) -> Option<Side> {
        match *self {
            ImplicitTopology::Ring { n } if n % 2 == 0 => {
                Some(if v.is_multiple_of(2) { Side::X } else { Side::Y })
            }
            ImplicitTopology::Torus { w, h } if w % 2 == 0 && h % 2 == 0 => {
                let (x, y) = (v % w, v / w);
                Some(if (x + y) % 2 == 0 { Side::X } else { Side::Y })
            }
            _ => None,
        }
    }
}

/// Materializes *any* topology into a CSR [`Graph`] by inserting edges
/// in global id order. For topologies whose ports are sorted by edge id
/// (every [`ImplicitTopology`] family) the twin is port-identical; for
/// an arbitrary [`Graph`] input prefer [`Topology::as_graph`], which is
/// free and exact.
///
/// # Errors
/// Propagates builder errors (cannot happen for well-formed topologies).
pub fn materialize(topo: &dyn Topology) -> Result<Graph, GraphError> {
    if let Some(g) = topo.as_graph() {
        return Ok(g.clone());
    }
    let mut b = Graph::builder(topo.node_count());
    for e in 0..topo.edge_count() {
        let (u, v) = topo.endpoints(e);
        if topo.is_weighted() {
            b.weighted_edge(u, v, topo.weight(e));
        } else {
            b.edge(u, v);
        }
    }
    if let Some(sides) = (0..topo.node_count()).map(|v| topo.side_of(v)).collect() {
        b.bipartition(sides);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the trait contract against the materialized twin: node/edge
    /// counts, degrees, every port (neighbour *and* edge id), every
    /// endpoint pair, and the bipartition.
    fn assert_twin(t: &ImplicitTopology) {
        let g = t.materialize();
        assert_eq!(Topology::node_count(t), g.node_count(), "{}", t.spec());
        assert_eq!(Topology::edge_count(t), g.edge_count(), "{}", t.spec());
        assert_eq!(Topology::max_degree(t), g.max_degree(), "{}", t.spec());
        for v in 0..g.node_count() {
            assert_eq!(Topology::degree(t, v), g.degree(v), "{} node {v}", t.spec());
            for p in 0..g.degree(v) {
                assert_eq!(Topology::port(t, v, p), g.port(v, p), "{} port {v}.{p}", t.spec());
            }
            assert_eq!(Topology::side_of(t, v), Topology::side_of(&g, v), "{} side {v}", t.spec());
        }
        for e in 0..g.edge_count() {
            assert_eq!(Topology::endpoints(t, e), g.endpoints(e), "{} edge {e}", t.spec());
        }
        if let Some(b) = g.bipartition() {
            assert_eq!(b.len(), g.node_count());
            g.validate_bipartition().expect("exposed bipartitions are proper");
        }
    }

    // The closed-form ports of the three arithmetic families are checked
    // exhaustively against the twin, whose ports are the incident edges
    // sorted by id: every node, so the wrap row and column of a torus
    // and the wrap of every circulant offset are covered.

    #[test]
    fn ring_matches_twin() {
        for n in 3..=16 {
            assert_twin(&ImplicitTopology::ring(n).unwrap());
        }
    }

    #[test]
    fn torus_matches_twin() {
        for w in 3..=10 {
            for h in 3..=10 {
                assert_twin(&ImplicitTopology::torus(w, h).unwrap());
            }
        }
    }

    #[test]
    fn regular_matches_twin() {
        for n in 3..=16 {
            for d in (1..n).filter(|d| d % 2 == 0 || n % 2 == 0) {
                assert_twin(&ImplicitTopology::regular(n, d).unwrap());
            }
        }
    }

    #[test]
    fn gnp_matches_twin() {
        for (n, p, seed) in [(1, 0.5, 0), (12, 0.3, 1), (20, 0.5, 7), (16, 1.0, 3), (10, 0.0, 9)] {
            assert_twin(&ImplicitTopology::gnp(n, p, seed).unwrap());
        }
    }

    #[test]
    fn gnp_degenerate_sizes_match_twin() {
        for n in 0..=2 {
            for p in [0.0, 1.0] {
                let t = ImplicitTopology::gnp(n, p, 4).unwrap();
                assert_twin(&t);
                let all = n * n.saturating_sub(1) / 2;
                assert_eq!(Topology::edge_count(&t), if p > 0.0 { all } else { 0 }, "{}", t.spec());
            }
        }
    }

    #[test]
    fn gnp_past_the_old_cap_matches_twin() {
        let n = 200_000;
        assert_twin(&ImplicitTopology::gnp(n, 4.0 / n as f64, 5).unwrap());
    }

    /// Every pair's frequency over many seeds is within 5σ of `p`: an
    /// off-by-one in the skip at either end of a row biases the first
    /// or last pairs of every row.
    #[test]
    fn gnp_pair_marginals_follow_p() {
        let (n, p, seeds) = (7, 0.3, 4_000u64);
        let mut hits = vec![vec![0u32; n]; n];
        for seed in 0..seeds {
            let t = ImplicitTopology::gnp(n, p, seed).unwrap();
            for e in 0..Topology::edge_count(&t) {
                let (u, v) = Topology::endpoints(&t, e);
                hits[u][v] += 1;
            }
        }
        let sigma = (p * (1.0 - p) / seeds as f64).sqrt();
        for (u, row) in hits.iter().enumerate() {
            for (v, &h) in row.iter().enumerate().skip(u + 1) {
                let freq = f64::from(h) / seeds as f64;
                assert!((freq - p).abs() < 5.0 * sigma, "pair ({u}, {v}) drawn at {freq}");
            }
        }
    }

    #[test]
    fn gnp_edge_counts_follow_p() {
        let (n, p) = (2_000usize, 0.004);
        let pairs = (n * (n - 1) / 2) as f64;
        let sigma = (pairs * p * (1.0 - p)).sqrt();
        for seed in 0..6 {
            let m = Topology::edge_count(&ImplicitTopology::gnp(n, p, seed).unwrap()) as f64;
            assert!((m - pairs * p).abs() < 5.0 * sigma, "seed {seed}: {m} edges");
        }
    }

    /// Pins the realization of one spec, so a change to the row streams
    /// or to the gap arithmetic — including a host whose arithmetic
    /// differs — fails here rather than silently redrawing the graph.
    #[test]
    fn gnp_realization_is_pinned() {
        let t = ImplicitTopology::parse("gnp:2000:0.004:42").unwrap();
        let m = Topology::edge_count(&t);
        let digest = (0..m).fold(0u64, |h, e| {
            let (u, v) = Topology::endpoints(&t, e);
            splitmix64(h ^ ((u as u64) << 32 | v as u64))
        });
        assert_eq!((m, digest), (7_976, 0x8D99_BBA9_5217_973C));
    }

    #[test]
    fn skip_logs_match_std() {
        let mut x = 1e-300_f64;
        while x < 1e300 {
            for y in [x, x * 1.37, x * 0.71, 1.0 - x.min(0.5)] {
                assert!(
                    (ln(y) - y.ln()).abs() <= 4.0 * f64::EPSILON * y.ln().abs().max(1.0),
                    "{y}"
                );
            }
            x *= 3.1;
        }
        for p in [1e-300_f64, 1e-12, 4e-4, 0.1, 0.2499, 0.25, 0.5, 0.9, 1.0 - 1e-9] {
            let want = (-p).ln_1p();
            assert!((ln_1m(p) - want).abs() <= 4.0 * f64::EPSILON * want.abs(), "{p}");
        }
        assert_eq!(ln_1m(1.0), f64::NEG_INFINITY);
        assert!(ln_1m(0.0) == 0.0 && ln_1m(0.0).is_sign_negative());
    }

    #[test]
    fn spec_parser_roundtrips_and_rejects() {
        for spec in ["ring:8", "torus:4x6", "reg:10:4", "gnp:12:0.25:7"] {
            let t = ImplicitTopology::parse(spec).unwrap();
            assert_eq!(t.spec(), spec);
            assert_twin(&t);
        }
        for bad in [
            "ring:2",
            "ring:x",
            "ring",
            "torus:4",
            "torus:2x5",
            "reg:4:4",
            "reg:5:3",
            "reg:4:0",
            "gnp:5:1.5:0",
            "gnp:5:0.5",
            "mesh:4",
            "",
            "gnp:999999999:0.5:0",
            "gnp:999999999:0:0",
        ] {
            assert!(ImplicitTopology::parse(bad).is_err(), "'{bad}' must be rejected");
        }
        let big = ImplicitTopology::parse("gnp:1000000:0.000008:1").unwrap();
        assert_eq!(
            (big.spec().as_str(), Topology::node_count(&big)),
            ("gnp:1000000:0.000008:1", 1_000_000)
        );
    }

    #[test]
    fn generic_materialize_prefers_csr_and_rebuilds_implicit() {
        let t = ImplicitTopology::ring(6).unwrap();
        let twin = t.materialize();
        let again = materialize(&t).unwrap();
        assert_eq!(twin, again);
        let back = materialize(&twin).unwrap();
        assert_eq!(twin, back);
    }

    #[test]
    fn gnp_coins_are_seed_keyed() {
        let a = ImplicitTopology::gnp(30, 0.4, 1).unwrap();
        let b = ImplicitTopology::gnp(30, 0.4, 2).unwrap();
        let c = ImplicitTopology::gnp(30, 0.4, 1).unwrap();
        assert_eq!(a, c, "same seed, same graph");
        assert_ne!(a.materialize(), b.materialize(), "different seeds should differ somewhere");
    }
}
