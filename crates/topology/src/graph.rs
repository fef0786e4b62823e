//! A small undirected graph tailored to switch-level data center topologies.
//!
//! The graph is simple (no self-loops, no parallel edges), stores adjacency
//! as sorted vectors for cache-friendly traversal, and keeps an explicit edge
//! list so that "pick a uniform-random existing link" — the primitive the
//! Jellyfish construction and expansion procedures rely on — is O(1).

use std::collections::BTreeSet;
use std::fmt;

/// Index of a node (switch) in a [`Graph`].
pub type NodeId = usize;

/// An undirected edge between two nodes, stored with `a < b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Smaller endpoint.
    pub a: NodeId,
    /// Larger endpoint.
    pub b: NodeId,
}

impl Edge {
    /// Creates a normalized edge (endpoints sorted). Panics on self-loops.
    pub fn new(u: NodeId, v: NodeId) -> Self {
        assert_ne!(u, v, "self-loops are not allowed");
        if u < v {
            Edge { a: u, b: v }
        } else {
            Edge { a: v, b: u }
        }
    }

    /// Returns the endpoint that is not `n`, or `None` if `n` is not an endpoint.
    pub fn other(&self, n: NodeId) -> Option<NodeId> {
        if n == self.a {
            Some(self.b)
        } else if n == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.a, self.b)
    }
}

/// An undirected simple graph with O(1) uniform edge sampling support.
///
/// Nodes are identified by dense indices `0..num_nodes()`. All links are
/// treated as having unit capacity by the rest of the workspace; capacity
/// scaling happens at the consumer level.
#[derive(Debug, Default)]
pub struct Graph {
    adjacency: Vec<Vec<NodeId>>,
    /// Edge list; position of each edge is tracked in `edge_index` so removal
    /// is O(degree) (swap-remove in the list, fix the moved edge's index).
    edges: Vec<Edge>,
    edge_index: std::collections::HashMap<Edge, usize>,
}

/// `clone_from` reuses the target's buffers field by field (a derived
/// `Clone` would allocate a fresh graph), so a live session's restore copies
/// the base into the failed state's allocations.
impl Clone for Graph {
    fn clone(&self) -> Self {
        Graph {
            adjacency: self.adjacency.clone(),
            edges: self.edges.clone(),
            edge_index: self.edge_index.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.adjacency.clone_from(&source.adjacency);
        self.edges.clone_from(&source.edges);
        self.edge_index.clone_from(&source.edge_index);
    }
}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Graph {
            adjacency: vec![Vec::new(); n],
            edges: Vec::new(),
            edge_index: std::collections::HashMap::new(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of (undirected) edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adjacency.push(Vec::new());
        self.adjacency.len() - 1
    }

    /// Returns `true` if `u` and `v` are adjacent.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        self.edge_index.contains_key(&Edge::new(u, v))
    }

    /// Adds the undirected edge `(u, v)`.
    ///
    /// Returns `false` (and leaves the graph unchanged) if the edge already
    /// exists or if `u == v`; returns `true` if the edge was inserted.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v || u >= self.num_nodes() || v >= self.num_nodes() {
            return false;
        }
        let e = Edge::new(u, v);
        if self.edge_index.contains_key(&e) {
            return false;
        }
        self.edge_index.insert(e, self.edges.len());
        self.edges.push(e);
        self.adjacency[u].push(v);
        self.adjacency[v].push(u);
        true
    }

    /// Removes the undirected edge `(u, v)`.
    ///
    /// Returns `true` if the edge existed and was removed.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        let e = Edge::new(u, v);
        let Some(pos) = self.edge_index.remove(&e) else {
            return false;
        };
        self.edges.swap_remove(pos);
        if pos < self.edges.len() {
            let moved = self.edges[pos];
            self.edge_index.insert(moved, pos);
        }
        Self::remove_from_adjacency(&mut self.adjacency[u], v);
        Self::remove_from_adjacency(&mut self.adjacency[v], u);
        true
    }

    fn remove_from_adjacency(adj: &mut Vec<NodeId>, target: NodeId) {
        if let Some(i) = adj.iter().position(|&x| x == target) {
            adj.swap_remove(i);
        }
    }

    /// Neighbors of `n`.
    pub fn neighbors(&self, n: NodeId) -> &[NodeId] {
        &self.adjacency[n]
    }

    /// Degree of `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.adjacency[n].len()
    }

    /// Iterator over all edges (each undirected edge appears once).
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().copied()
    }

    /// Returns the `i`-th edge in the internal edge list (arbitrary but stable
    /// order between mutations). Useful together with [`Graph::num_edges`]
    /// for uniform edge sampling.
    pub fn edge_at(&self, i: usize) -> Edge {
        self.edges[i]
    }

    /// Returns node ids `0..num_nodes()`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_nodes()
    }

    /// Maximum degree over all nodes (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Minimum degree over all nodes (0 for an empty graph).
    pub fn min_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Returns `true` if every node can reach every other node.
    ///
    /// An empty graph and a single-node graph are considered connected.
    pub fn is_connected(&self) -> bool {
        let n = self.num_nodes();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in self.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }

    /// Returns the connected components as sorted node lists, largest first.
    pub fn connected_components(&self) -> Vec<Vec<NodeId>> {
        let n = self.num_nodes();
        let mut seen = vec![false; n];
        let mut components = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut comp = Vec::new();
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(u) = stack.pop() {
                comp.push(u);
                for &v in self.neighbors(u) {
                    if !seen[v] {
                        seen[v] = true;
                        stack.push(v);
                    }
                }
            }
            comp.sort_unstable();
            components.push(comp);
        }
        components.sort_by_key(|c| std::cmp::Reverse(c.len()));
        components
    }

    /// Counts edges crossing the cut `(set, complement)`.
    ///
    /// `in_set[v]` must be `true` exactly for nodes in the set.
    pub fn cut_size(&self, in_set: &[bool]) -> usize {
        assert_eq!(in_set.len(), self.num_nodes());
        self.edges.iter().filter(|e| in_set[e.a] != in_set[e.b]).count()
    }

    /// Removes all edges incident to `n` (the node itself stays, isolated)
    /// and returns the neighbours it had.
    pub fn isolate_node(&mut self, n: NodeId) -> Vec<NodeId> {
        let neighbors: Vec<NodeId> = self.adjacency[n].clone();
        for &v in &neighbors {
            self.remove_edge(n, v);
        }
        neighbors
    }

    /// Checks internal consistency (adjacency mirrors the edge list). Used by
    /// tests and debug assertions in the generators.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut degree_from_edges = vec![0usize; self.num_nodes()];
        for e in &self.edges {
            if e.a >= self.num_nodes() || e.b >= self.num_nodes() {
                return Err(format!("edge {e} references missing node"));
            }
            degree_from_edges[e.a] += 1;
            degree_from_edges[e.b] += 1;
            if !self.adjacency[e.a].contains(&e.b) || !self.adjacency[e.b].contains(&e.a) {
                return Err(format!("edge {e} missing from adjacency"));
            }
        }
        for (n, adj) in self.adjacency.iter().enumerate() {
            if adj.len() != degree_from_edges[n] {
                return Err(format!(
                    "node {n}: adjacency degree {} != edge-list degree {}",
                    adj.len(),
                    degree_from_edges[n]
                ));
            }
            let unique: BTreeSet<_> = adj.iter().collect();
            if unique.len() != adj.len() {
                return Err(format!("node {n} has duplicate adjacency entries"));
            }
            if adj.contains(&n) {
                return Err(format!("node {n} has a self-loop"));
            }
        }
        if self.edge_index.len() != self.edges.len() {
            return Err("edge index size mismatch".to_string());
        }
        for (i, e) in self.edges.iter().enumerate() {
            if self.edge_index.get(e) != Some(&i) {
                return Err(format!("edge index for {e} is stale"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 1..n {
            g.add_edge(i - 1, i);
        }
        g
    }

    #[test]
    fn new_graph_is_empty() {
        let g = Graph::new(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn add_edge_updates_adjacency_both_ways() {
        let mut g = Graph::new(3);
        assert!(g.add_edge(0, 2));
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert_eq!(g.neighbors(0), &[2]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.degree(1), 0);
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn duplicate_and_self_loop_edges_rejected() {
        let mut g = Graph::new(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0), "parallel edge must be rejected");
        assert!(!g.add_edge(1, 1), "self loop must be rejected");
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn out_of_range_edges_rejected() {
        let mut g = Graph::new(2);
        assert!(!g.add_edge(0, 5));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn remove_edge_roundtrip() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        assert!(g.remove_edge(2, 1));
        assert!(!g.has_edge(1, 2));
        assert!(!g.remove_edge(1, 2), "second removal returns false");
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(1), 1);
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn edge_swap_remove_keeps_index_consistent() {
        let mut g = Graph::new(6);
        for i in 0..5 {
            g.add_edge(i, i + 1);
        }
        // Remove an edge in the middle of the edge list, forcing a swap-remove.
        assert!(g.remove_edge(1, 2));
        assert!(g.check_invariants().is_ok());
        // The remaining edges are still findable and removable.
        assert!(g.remove_edge(4, 5));
        assert!(g.remove_edge(0, 1));
        assert!(g.check_invariants().is_ok());
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn add_node_extends_graph() {
        let mut g = Graph::new(2);
        let n = g.add_node();
        assert_eq!(n, 2);
        assert!(g.add_edge(0, n));
        assert_eq!(g.degree(n), 1);
    }

    #[test]
    fn connectivity_of_path_and_split_graph() {
        let g = path_graph(10);
        assert!(g.is_connected());
        let mut g2 = path_graph(10);
        g2.remove_edge(4, 5);
        assert!(!g2.is_connected());
        let comps = g2.connected_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 5);
        assert_eq!(comps[1].len(), 5);
    }

    #[test]
    fn empty_and_singleton_graphs_are_connected() {
        assert!(Graph::new(0).is_connected());
        assert!(Graph::new(1).is_connected());
        assert!(!Graph::new(2).is_connected());
    }

    #[test]
    fn cut_size_counts_crossing_edges() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 0);
        // Cut {0,1} vs {2,3}: edges (1,2) and (3,0) cross.
        assert_eq!(g.cut_size(&[true, true, false, false]), 2);
        // Cut {0,2} vs {1,3}: all four edges cross.
        assert_eq!(g.cut_size(&[true, false, true, false]), 4);
    }

    #[test]
    fn isolate_node_removes_incident_edges_only() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(2, 3);
        g.isolate_node(0);
        assert_eq!(g.degree(0), 0);
        assert!(g.has_edge(2, 3));
        assert_eq!(g.num_edges(), 1);
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(3, 1);
        assert_eq!(e.a, 1);
        assert_eq!(e.b, 3);
        assert_eq!(e.other(1), Some(3));
        assert_eq!(e.other(3), Some(1));
        assert_eq!(e.other(7), None);
    }

    #[test]
    fn display_edge() {
        assert_eq!(Edge::new(5, 2).to_string(), "(2, 5)");
    }
}
