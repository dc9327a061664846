//! A small index-based directed multigraph.
//!
//! Pipelines in the fusion problem are directed acyclic graphs whose vertices
//! are kernels and whose edges are producer→consumer data dependences. The
//! graph is expected to stay small (tens of vertices), so the implementation
//! favours simplicity, determinism, and rich queries over asymptotic
//! cleverness: edges are stored in insertion order and all iteration orders
//! are deterministic.

use std::collections::VecDeque;
use std::fmt;

/// Identifier of a vertex in a [`DiGraph`].
///
/// Node ids are dense indices assigned in insertion order; they are stable
/// for the lifetime of the graph (nodes cannot be removed).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Identifier of an edge in a [`DiGraph`].
///
/// Edge ids are dense indices assigned in insertion order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub usize);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One directed edge with its endpoints and payload.
#[derive(Clone, Debug)]
pub struct Edge<E> {
    /// Source vertex (producer).
    pub src: NodeId,
    /// Destination vertex (consumer).
    pub dst: NodeId,
    /// Edge payload.
    pub weight: E,
}

/// A directed multigraph with node payloads `N` and edge payloads `E`.
///
/// # Examples
///
/// ```
/// use kfuse_graph::DiGraph;
///
/// let mut g: DiGraph<&str, ()> = DiGraph::new();
/// let a = g.add_node("blur");
/// let b = g.add_node("grad");
/// g.add_edge(a, b, ());
/// assert!(g.is_dag());
/// assert_eq!(g.topo_order().unwrap(), vec![a, b]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DiGraph<N, E> {
    nodes: Vec<N>,
    edges: Vec<Edge<E>>,
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a vertex carrying `payload` and returns its id.
    pub fn add_node(&mut self, payload: N) -> NodeId {
        self.nodes.push(payload);
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a directed edge `src → dst` and returns its id.
    ///
    /// Parallel edges and self-loops are representable; the fusion layer
    /// never creates self-loops but parallel edges occur when a consumer
    /// reads the same producer image more than once.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not a vertex of this graph.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, weight: E) -> EdgeId {
        assert!(src.0 < self.nodes.len(), "src {src:?} out of bounds");
        assert!(dst.0 < self.nodes.len(), "dst {dst:?} out of bounds");
        self.edges.push(Edge { src, dst, weight });
        EdgeId(self.edges.len() - 1)
    }

    /// Payload of vertex `n`.
    pub fn node(&self, n: NodeId) -> &N {
        &self.nodes[n.0]
    }

    /// Mutable payload of vertex `n`.
    pub fn node_mut(&mut self, n: NodeId) -> &mut N {
        &mut self.nodes[n.0]
    }

    /// The edge record for `e`.
    pub fn edge(&self, e: EdgeId) -> &Edge<E> {
        &self.edges[e.0]
    }

    /// Mutable edge record for `e`.
    pub fn edge_mut(&mut self, e: EdgeId) -> &mut Edge<E> {
        &mut self.edges[e.0]
    }

    /// Iterates over all vertex ids in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Iterates over all edge ids in insertion order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId)
    }

    /// Iterates over `(id, edge)` pairs in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge<E>)> + '_ {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId(i), e))
    }

    /// Ids of edges leaving `n`, in insertion order.
    pub fn out_edges(&self, n: NodeId) -> Vec<EdgeId> {
        self.edges()
            .filter(|(_, e)| e.src == n)
            .map(|(id, _)| id)
            .collect()
    }

    /// Ids of edges entering `n`, in insertion order.
    pub fn in_edges(&self, n: NodeId) -> Vec<EdgeId> {
        self.edges()
            .filter(|(_, e)| e.dst == n)
            .map(|(id, _)| id)
            .collect()
    }

    /// Distinct successors of `n` (deduplicated, in first-seen order).
    pub fn successors(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        for (_, e) in self.edges() {
            if e.src == n && !out.contains(&e.dst) {
                out.push(e.dst);
            }
        }
        out
    }

    /// Distinct predecessors of `n` (deduplicated, in first-seen order).
    pub fn predecessors(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        for (_, e) in self.edges() {
            if e.dst == n && !out.contains(&e.src) {
                out.push(e.src);
            }
        }
        out
    }

    /// Whether the graph contains no directed cycle.
    pub fn is_dag(&self) -> bool {
        self.topo_order().is_some()
    }

    /// A topological order of the vertices, or `None` if the graph is cyclic.
    ///
    /// Kahn's algorithm with a FIFO queue seeded in id order; the result is
    /// deterministic for a given graph.
    pub fn topo_order(&self) -> Option<Vec<NodeId>> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            indeg[e.dst.0] += 1;
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(NodeId(i));
            for e in &self.edges {
                if e.src.0 == i {
                    indeg[e.dst.0] -= 1;
                    if indeg[e.dst.0] == 0 {
                        queue.push_back(e.dst.0);
                    }
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Vertices reachable from `start` by directed edges, including `start`.
    pub fn reachable_from(&self, start: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![start];
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut seen[n.0], true) {
                continue;
            }
            out.push(n);
            let mut succ = self.successors(n);
            succ.reverse();
            stack.extend(succ);
        }
        out.sort_unstable();
        out
    }

    /// Weakly connected components over the vertex subset `within`.
    ///
    /// Edges are treated as undirected; only edges with *both* endpoints in
    /// `within` connect vertices. Components are returned sorted internally
    /// and ordered by their smallest member.
    pub fn weak_components(&self, within: &[NodeId]) -> Vec<Vec<NodeId>> {
        let mut inside = vec![false; self.nodes.len()];
        for &n in within {
            inside[n.0] = true;
        }
        // Undirected adjacency of the induced subgraph, in one edge pass.
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            if inside[e.src.0] && inside[e.dst.0] {
                adj[e.src.0].push(e.dst);
                adj[e.dst.0].push(e.src);
            }
        }
        let mut visited = vec![false; self.nodes.len()];
        let mut comps: Vec<Vec<NodeId>> = Vec::new();
        // Seeds in id order, so components come out by smallest member.
        for seed in 0..self.nodes.len() {
            if !inside[seed] || visited[seed] {
                continue;
            }
            visited[seed] = true;
            let mut comp = Vec::new();
            let mut stack = vec![NodeId(seed)];
            while let Some(n) = stack.pop() {
                comp.push(n);
                for &m in &adj[n.0] {
                    if !visited[m.0] {
                        visited[m.0] = true;
                        stack.push(m);
                    }
                }
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps
    }

    /// Ids of edges whose endpoints both lie in `within`, in insertion order.
    pub fn edges_within(&self, within: &[NodeId]) -> Vec<EdgeId> {
        self.edges()
            .filter(|(_, e)| within.contains(&e.src) && within.contains(&e.dst))
            .map(|(id, _)| id)
            .collect()
    }

    /// Ids of edges with exactly one endpoint in `within`, in insertion order.
    pub fn edges_crossing(&self, within: &[NodeId]) -> Vec<EdgeId> {
        self.edges()
            .filter(|(_, e)| within.contains(&e.src) != within.contains(&e.dst))
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<&'static str, u32>, [NodeId; 4]) {
        // a → b → d, a → c → d
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 1);
        g.add_edge(a, c, 2);
        g.add_edge(b, d, 3);
        g.add_edge(c, d, 4);
        (g, [a, b, c, d])
    }

    #[test]
    fn add_and_query_nodes_edges() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(*g.node(a), "a");
        assert_eq!(g.successors(a), vec![b, c]);
        assert_eq!(g.predecessors(d), vec![b, c]);
        assert_eq!(g.out_edges(a).len(), 2);
        assert_eq!(g.in_edges(d).len(), 2);
    }

    #[test]
    fn topo_order_of_dag() {
        let (g, [a, b, c, d]) = diamond();
        let order = g.topo_order().expect("diamond is a DAG");
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(a) < pos(b) && pos(a) < pos(c));
        assert!(pos(b) < pos(d) && pos(c) < pos(d));
        assert!(g.is_dag());
    }

    #[test]
    fn cycle_detected() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        assert!(!g.is_dag());
        assert!(g.topo_order().is_none());
    }

    #[test]
    fn reachability() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.reachable_from(a), vec![a, b, c, d]);
        assert_eq!(g.reachable_from(b), vec![b, d]);
        assert_eq!(g.reachable_from(d), vec![d]);
        let _ = c;
    }

    #[test]
    fn weak_components_respect_subset() {
        let (g, [a, b, c, d]) = diamond();
        // Full graph: single component.
        assert_eq!(g.weak_components(&[a, b, c, d]).len(), 1);
        // Removing `a` and `d` disconnects `b` from `c`.
        let comps = g.weak_components(&[b, c]);
        assert_eq!(comps, vec![vec![b], vec![c]]);
    }

    #[test]
    fn edges_within_and_crossing() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.edges_within(&[a, b]).len(), 1);
        // a→c and b→d cross the block boundary; c→d is fully external.
        let crossing = g.edges_crossing(&[a, b]);
        assert_eq!(crossing.len(), 2);
        let _ = (c, d);
    }

    #[test]
    fn crossing_excludes_fully_external_edges() {
        let (g, [a, b, c, d]) = diamond();
        let crossing = g.edges_crossing(&[a]);
        // a→b and a→c cross; b→d and c→d are external.
        assert_eq!(crossing.len(), 2);
        let _ = (b, c, d);
    }

    #[test]
    fn parallel_edges_supported() {
        let mut g: DiGraph<(), u32> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.successors(a), vec![b]); // deduplicated
        assert_eq!(g.out_edges(a).len(), 2);
    }
}
