//! The [`Graph`] type: a compact undirected (multi)graph in CSR form.
//!
//! The same object serves two roles in this workspace:
//!
//! 1. the *input* of the matching problem (with optional positive edge
//!    weights and an optional recorded bipartition), and
//! 2. the *network topology* on which `dam-congest` runs distributed
//!    protocols (the paper's assumption that "the input graph is also the
//!    underlying computational platform", §2).
//!
//! Following the paper, graphs need not be simple: parallel edges are
//! allowed and each carries its own [`EdgeId`]. Self-loops are rejected
//! because a matching over self-loops is undefined.

use std::fmt;

use crate::error::GraphError;

/// Identifier of a node, `0..n`.
///
/// The paper assumes `O(log n)`-bit unique identifiers; using the index
/// directly is without loss of generality (any id assignment can be
/// relabelled) and keeps the simulator allocation-free.
pub type NodeId = usize;

/// Identifier of an edge, `0..m`, in insertion order.
pub type EdgeId = usize;

/// The side of a node in a bipartition `(X, Y)`.
///
/// The paper's bipartite algorithm (§3.2) roots its BFS at free `X` nodes
/// and elects free `Y` nodes as path leaders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The `X` side (BFS sources).
    X,
    /// The `Y` side (path leaders).
    Y,
}

impl Side {
    /// The opposite side.
    #[must_use]
    pub fn other(self) -> Side {
        match self {
            Side::X => Side::Y,
            Side::Y => Side::X,
        }
    }
}

/// An undirected (multi)graph with optional weights and bipartition,
/// stored in compressed sparse row form.
///
/// Construct one with [`Graph::builder`]. All accessors are `O(1)` or
/// return iterators over CSR slices.
#[derive(Clone, PartialEq)]
pub struct Graph {
    n: usize,
    /// CSR offsets, length `n + 1`.
    offsets: Vec<usize>,
    /// Neighbour of each arc, length `2m`, grouped by source node.
    neigh: Vec<NodeId>,
    /// Edge id of each arc, parallel to `neigh`.
    arc_edge: Vec<EdgeId>,
    /// Endpoint pairs by edge id (unordered; stored as inserted).
    edges: Vec<(NodeId, NodeId)>,
    /// Per-edge weights; `None` for unweighted graphs (implicit weight 1).
    weights: Option<Vec<f64>>,
    /// Recorded proper 2-colouring, if the graph is known bipartite.
    bipartition: Option<Vec<Side>>,
    /// Maximum degree, cached at build time (`max_degree` sits on the
    /// plan-validation path and must not rescan).
    max_deg: usize,
}

impl Graph {
    /// Starts building a graph on `n` nodes.
    #[must_use]
    pub fn builder(n: usize) -> GraphBuilder {
        GraphBuilder::new(n)
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges (parallel edges counted individually).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.n
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        0..self.edges.len()
    }

    /// The degree of `v` (number of incident edges, counting parallels).
    ///
    /// # Panics
    /// Panics if `v >= n`.
    #[must_use]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The maximum degree `Δ` of the graph (0 for an empty graph).
    /// O(1): cached by the builder.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.max_deg
    }

    /// Endpoints of edge `e` as inserted.
    ///
    /// # Panics
    /// Panics if `e >= m`.
    #[must_use]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edges[e]
    }

    /// The endpoint of `e` that is not `v`.
    ///
    /// # Panics
    /// Panics if `v` is not an endpoint of `e`.
    #[must_use]
    pub fn other_endpoint(&self, e: EdgeId, v: NodeId) -> NodeId {
        let (a, b) = self.edges[e];
        if v == a {
            b
        } else {
            assert_eq!(v, b, "node {v} is not an endpoint of edge {e}");
            a
        }
    }

    /// Weight of edge `e` (1.0 for unweighted graphs).
    #[must_use]
    pub fn weight(&self, e: EdgeId) -> f64 {
        match &self.weights {
            Some(w) => w[e],
            None => 1.0,
        }
    }

    /// Whether explicit weights were supplied.
    #[must_use]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Total weight of all edges.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.edge_ids().map(|e| self.weight(e)).sum()
    }

    /// Neighbours of `v` (one entry per incident edge).
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neigh[self.offsets[v]..self.offsets[v + 1]].iter().copied()
    }

    /// Incident arcs of `v` as `(port, neighbour, edge)` triples.
    ///
    /// The *port* is the arc's index among `v`'s arcs (`0..degree(v)`); the
    /// CONGEST simulator addresses messages by port, so port numbering is
    /// part of this crate's stable contract: ports follow edge-insertion
    /// order.
    pub fn incident(&self, v: NodeId) -> impl Iterator<Item = (usize, NodeId, EdgeId)> + '_ {
        let lo = self.offsets[v];
        let hi = self.offsets[v + 1];
        (lo..hi).map(move |i| (i - lo, self.neigh[i], self.arc_edge[i]))
    }

    /// The `(neighbour, edge)` pair behind port `p` of node `v`.
    ///
    /// # Panics
    /// Panics if `p >= degree(v)`.
    #[must_use]
    pub fn port(&self, v: NodeId, p: usize) -> (NodeId, EdgeId) {
        let i = self.offsets[v] + p;
        assert!(i < self.offsets[v + 1], "port {p} out of range at node {v}");
        (self.neigh[i], self.arc_edge[i])
    }

    /// The port of `v` whose arc is edge `e`, if any.
    #[must_use]
    pub fn port_of_edge(&self, v: NodeId, e: EdgeId) -> Option<usize> {
        self.incident(v).find(|&(_, _, ae)| ae == e).map(|(p, _, _)| p)
    }

    /// The recorded bipartition, if any.
    #[must_use]
    pub fn bipartition(&self) -> Option<&[Side]> {
        self.bipartition.as_deref()
    }

    /// The side of `v` in the recorded bipartition.
    ///
    /// # Errors
    /// Returns [`GraphError::NotBipartite`] if no bipartition is recorded.
    pub fn side(&self, v: NodeId) -> Result<Side, GraphError> {
        self.bipartition.as_ref().map(|b| b[v]).ok_or(GraphError::NotBipartite)
    }

    /// Computes a proper 2-colouring if the graph is bipartite and records
    /// it, returning the colouring; returns `None` for non-bipartite graphs.
    ///
    /// Isolated nodes are assigned [`Side::X`].
    pub fn compute_bipartition(&mut self) -> Option<&[Side]> {
        if self.bipartition.is_some() {
            return self.bipartition.as_deref();
        }
        let mut color: Vec<Option<Side>> = vec![None; self.n];
        let mut queue = std::collections::VecDeque::new();
        for start in 0..self.n {
            if color[start].is_some() {
                continue;
            }
            color[start] = Some(Side::X);
            queue.push_back(start);
            while let Some(v) = queue.pop_front() {
                let cv = color[v].expect("queued nodes are coloured");
                for u in self.neighbors(v) {
                    match color[u] {
                        None => {
                            color[u] = Some(cv.other());
                            queue.push_back(u);
                        }
                        Some(cu) if cu == cv => return None,
                        Some(_) => {}
                    }
                }
            }
        }
        self.bipartition = Some(color.into_iter().map(|c| c.expect("all coloured")).collect());
        self.bipartition.as_deref()
    }

    /// Validates a recorded bipartition (every edge bichromatic).
    ///
    /// # Errors
    /// Returns [`GraphError::NotBipartite`] if absent or improper.
    pub fn validate_bipartition(&self) -> Result<(), GraphError> {
        let b = self.bipartition.as_ref().ok_or(GraphError::NotBipartite)?;
        for &(u, v) in &self.edges {
            if b[u] == b[v] {
                return Err(GraphError::NotBipartite);
            }
        }
        Ok(())
    }

    /// Returns a copy of this graph with new weights (same topology).
    ///
    /// # Errors
    /// Returns [`GraphError::InvalidWeight`] on non-positive or non-finite
    /// weights, or a length mismatch panic.
    ///
    /// # Panics
    /// Panics if `weights.len() != edge_count()`.
    pub fn with_weights(&self, weights: Vec<f64>) -> Result<Graph, GraphError> {
        assert_eq!(weights.len(), self.edge_count(), "one weight per edge");
        for (e, &w) in weights.iter().enumerate() {
            if !(w.is_finite() && w > 0.0) {
                return Err(GraphError::InvalidWeight { edge: e, weight: w });
            }
        }
        let mut g = self.clone();
        g.weights = Some(weights);
        Ok(g)
    }

    /// Returns the unweighted version of this graph (same topology).
    #[must_use]
    pub fn without_weights(&self) -> Graph {
        let mut g = self.clone();
        g.weights = None;
        g
    }

    /// Builds the subgraph induced by the given edge mask, **keeping all
    /// nodes and edge ids** (masked-out edges disappear from adjacency).
    ///
    /// Node ids, edge ids and weights of surviving edges are preserved so
    /// that matchings and messages computed on the subgraph translate
    /// directly back to `self`. Port numbers are *not* preserved.
    ///
    /// # Panics
    /// Panics if `keep.len() != edge_count()`.
    #[must_use]
    pub fn edge_subgraph(&self, keep: &[bool]) -> Graph {
        assert_eq!(keep.len(), self.edge_count(), "one flag per edge");
        let mut b = GraphBuilder::new_preserving(self.n, self.edges.len());
        for (e, &(u, v)) in self.edges.iter().enumerate() {
            if keep[e] {
                b.push_preserved(u, v, e);
            }
        }
        b.build_preserving(self)
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n)
            .field("m", &self.edges.len())
            .field("weighted", &self.is_weighted())
            .field("bipartite", &self.bipartition.is_some())
            .finish()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "graph on {} nodes, {} edges:", self.n, self.edges.len())?;
        for (e, &(u, v)) in self.edges.iter().enumerate() {
            if self.is_weighted() {
                writeln!(f, "  e{e}: {u} -- {v}  (w = {})", self.weight(e))?;
            } else {
                writeln!(f, "  e{e}: {u} -- {v}")?;
            }
        }
        Ok(())
    }
}

/// Incremental builder for [`Graph`] (see `C-BUILDER`).
///
/// # Example
///
/// ```
/// use dam_graph::Graph;
///
/// let g = Graph::builder(3)
///     .edge(0, 1)
///     .weighted_edge(1, 2, 2.5)
///     .build()
///     .unwrap();
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.weight(1), 2.5);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
    /// Edge ids, used only by `edge_subgraph` to preserve ids.
    ids: Option<Vec<EdgeId>>,
    /// Total edge count in the preserved id space.
    id_space: usize,
    weights: Vec<f64>,
    any_weight: bool,
    bipartition: Option<Vec<Side>>,
    error: Option<GraphError>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> GraphBuilder {
        GraphBuilder {
            n,
            edges: Vec::new(),
            ids: None,
            id_space: 0,
            weights: Vec::new(),
            any_weight: false,
            bipartition: None,
            error: None,
        }
    }

    fn new_preserving(n: usize, id_space: usize) -> GraphBuilder {
        let mut b = GraphBuilder::new(n);
        b.ids = Some(Vec::new());
        b.id_space = id_space;
        b
    }

    fn push_preserved(&mut self, u: NodeId, v: NodeId, id: EdgeId) {
        self.edges.push((u, v));
        self.ids.as_mut().expect("preserving builder").push(id);
    }

    /// Adds an unweighted edge `u -- v`.
    pub fn edge(&mut self, u: NodeId, v: NodeId) -> &mut GraphBuilder {
        self.weighted_edge(u, v, 1.0)
    }

    /// Adds an edge `u -- v` with weight `w`.
    ///
    /// Invalid endpoints or weights are recorded and reported by
    /// [`GraphBuilder::build`].
    pub fn weighted_edge(&mut self, u: NodeId, v: NodeId, w: f64) -> &mut GraphBuilder {
        if self.error.is_some() {
            return self;
        }
        if u >= self.n {
            self.error = Some(GraphError::NodeOutOfRange { node: u, n: self.n });
            return self;
        }
        if v >= self.n {
            self.error = Some(GraphError::NodeOutOfRange { node: v, n: self.n });
            return self;
        }
        if u == v {
            self.error = Some(GraphError::SelfLoop { node: u });
            return self;
        }
        if !(w.is_finite() && w > 0.0) {
            self.error = Some(GraphError::InvalidWeight { edge: self.edges.len(), weight: w });
            return self;
        }
        if (w - 1.0).abs() > f64::EPSILON {
            self.any_weight = true;
        }
        self.edges.push((u, v));
        self.weights.push(w);
        self
    }

    /// Adds many unweighted edges.
    pub fn edges<I>(&mut self, iter: I) -> &mut GraphBuilder
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        for (u, v) in iter {
            self.edge(u, v);
        }
        self
    }

    /// Records a bipartition to attach to the built graph.
    ///
    /// The partition is validated by [`GraphBuilder::build`].
    ///
    /// # Panics
    /// Panics if `sides.len() != n`.
    pub fn bipartition(&mut self, sides: Vec<Side>) -> &mut GraphBuilder {
        assert_eq!(sides.len(), self.n, "one side per node");
        self.bipartition = Some(sides);
        self
    }

    /// Marks the graph as explicitly weighted even if all weights are 1.
    pub fn force_weighted(&mut self) -> &mut GraphBuilder {
        self.any_weight = true;
        self
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    /// Returns the first construction error: out-of-range endpoints,
    /// self-loops, invalid weights, or an improper recorded bipartition.
    pub fn build(&self) -> Result<Graph, GraphError> {
        if let Some(err) = &self.error {
            return Err(err.clone());
        }
        let g = self.assemble(self.edges.len(), None);
        if g.bipartition.is_some() {
            g.validate_bipartition()?;
        }
        Ok(g)
    }

    fn build_preserving(&self, original: &Graph) -> Graph {
        assert!(self.error.is_none(), "preserving builder is infallible");
        let mut g = self.assemble(self.id_space, self.ids.as_deref());
        // Keep the whole original id space addressable: endpoints and
        // weights of masked-out edges stay valid even though those edges
        // no longer appear in any adjacency list.
        g.edges = original.edges.clone();
        g.weights = original.weights.clone();
        g.bipartition = original.bipartition.clone();
        g
    }

    /// Builds CSR arrays. `id_space` is the number of edge ids in the final
    /// graph; `ids` maps each inserted edge to its id (identity if `None`).
    fn assemble(&self, id_space: usize, ids: Option<&[EdgeId]>) -> Graph {
        let n = self.n;
        let mut deg = vec![0usize; n];
        for &(u, v) in &self.edges {
            deg[u] += 1;
            deg[v] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + deg[v];
        }
        let total = offsets[n];
        let mut neigh = vec![0 as NodeId; total];
        let mut arc_edge = vec![0 as EdgeId; total];
        let mut cursor = offsets.clone();
        // `edges` must live in id space: allocate dense edge list.
        let mut edges = vec![(usize::MAX, usize::MAX); id_space];
        let mut weights = vec![0.0f64; id_space];
        for (i, &(u, v)) in self.edges.iter().enumerate() {
            let e = ids.map_or(i, |ids| ids[i]);
            edges[e] = (u, v);
            if !self.weights.is_empty() {
                weights[e] = self.weights[i];
            }
            neigh[cursor[u]] = v;
            arc_edge[cursor[u]] = e;
            cursor[u] += 1;
            neigh[cursor[v]] = u;
            arc_edge[cursor[v]] = e;
            cursor[v] += 1;
        }
        Graph {
            n,
            offsets,
            neigh,
            arc_edge,
            edges,
            weights: if self.any_weight && ids.is_none() { Some(weights) } else { None },
            bipartition: self.bipartition.clone(),
            max_deg: deg.iter().copied().max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::builder(4).edge(0, 1).edge(1, 2).edge(2, 3).build().unwrap()
    }

    #[test]
    fn builds_csr_correctly() {
        let g = path4();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(g.endpoints(1), (1, 2));
        assert_eq!(g.other_endpoint(1, 2), 1);
    }

    #[test]
    fn ports_follow_insertion_order() {
        let g = path4();
        // Node 1 got arcs from edges 0 and 1, in that order.
        assert_eq!(g.port(1, 0), (0, 0));
        assert_eq!(g.port(1, 1), (2, 1));
        assert_eq!(g.port_of_edge(1, 1), Some(1));
        assert_eq!(g.port_of_edge(1, 2), None);
        let inc: Vec<_> = g.incident(1).collect();
        assert_eq!(inc, vec![(0, 0, 0), (1, 2, 1)]);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(
            Graph::builder(2).edge(0, 2).build(),
            Err(GraphError::NodeOutOfRange { node: 2, n: 2 })
        ));
        assert!(matches!(
            Graph::builder(2).edge(1, 1).build(),
            Err(GraphError::SelfLoop { node: 1 })
        ));
        assert!(matches!(
            Graph::builder(2).weighted_edge(0, 1, -1.0).build(),
            Err(GraphError::InvalidWeight { .. })
        ));
        assert!(matches!(
            Graph::builder(2).weighted_edge(0, 1, f64::NAN).build(),
            Err(GraphError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn parallel_edges_are_distinct() {
        let g = Graph::builder(2).edge(0, 1).edge(0, 1).build().unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.port(0, 0), (1, 0));
        assert_eq!(g.port(0, 1), (1, 1));
    }

    #[test]
    fn weights_default_to_one() {
        let g = path4();
        assert!(!g.is_weighted());
        assert_eq!(g.weight(0), 1.0);
        let gw = g.with_weights(vec![2.0, 3.0, 4.0]).unwrap();
        assert!(gw.is_weighted());
        assert_eq!(gw.weight(2), 4.0);
        assert_eq!(gw.total_weight(), 9.0);
        assert!(!gw.without_weights().is_weighted());
    }

    #[test]
    fn with_weights_validates() {
        let g = path4();
        assert!(matches!(
            g.with_weights(vec![1.0, 0.0, 1.0]),
            Err(GraphError::InvalidWeight { edge: 1, .. })
        ));
    }

    #[test]
    fn bipartition_detection() {
        let mut g = path4();
        let sides = g.compute_bipartition().unwrap().to_vec();
        assert_eq!(sides[0], Side::X);
        assert_eq!(sides[1], Side::Y);
        assert_eq!(sides[2], Side::X);
        g.validate_bipartition().unwrap();

        let mut tri = Graph::builder(3).edge(0, 1).edge(1, 2).edge(2, 0).build().unwrap();
        assert!(tri.compute_bipartition().is_none());
    }

    #[test]
    fn builder_records_explicit_bipartition() {
        let g = Graph::builder(2).edge(0, 1).bipartition(vec![Side::X, Side::Y]).build().unwrap();
        assert_eq!(g.side(0).unwrap(), Side::X);
        assert!(Graph::builder(2).edge(0, 1).bipartition(vec![Side::X, Side::X]).build().is_err());
    }

    #[test]
    fn edge_subgraph_preserves_ids_and_weights() {
        let g = Graph::builder(4)
            .weighted_edge(0, 1, 5.0)
            .weighted_edge(1, 2, 6.0)
            .weighted_edge(2, 3, 7.0)
            .build()
            .unwrap();
        let sub = g.edge_subgraph(&[true, false, true]);
        assert_eq!(sub.node_count(), 4);
        assert_eq!(sub.edge_count(), 3); // id space preserved
        assert_eq!(sub.degree(1), 1);
        assert_eq!(sub.degree(2), 1);
        assert_eq!(sub.neighbors(2).collect::<Vec<_>>(), vec![3]);
        assert_eq!(sub.weight(2), 7.0);
        // Edge 1 is masked out of adjacency but its id remains valid.
        assert_eq!(sub.incident(1).count(), 1);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Graph::builder(0).build().unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.max_degree(), 0);
        let g1 = Graph::builder(5).build().unwrap();
        assert_eq!(g1.edge_count(), 0);
        assert_eq!(g1.degree(3), 0);
    }

    #[test]
    fn debug_and_display_nonempty() {
        let g = path4();
        assert!(!format!("{g:?}").is_empty());
        assert!(format!("{g}").contains("0 -- 1"));
    }
}
