//! Immutable compressed-sparse-row (CSR) snapshot of a [`Graph`].
//!
//! The mutable [`Graph`] is the right representation while a topology is
//! being *constructed* (random wiring, incremental expansion, failure
//! injection all add and remove edges), but it is the wrong representation
//! for the paper's evaluation loops: every figure hammers graph traversal,
//! and a `Vec<Vec<NodeId>>` adjacency chases one pointer per visited node
//! while per-link state lives in `HashMap<(u, v), _>` lookups.
//!
//! [`CsrGraph`] is the read-only contract between the topology layer and
//! every consumer (`jellyfish-routing`, `jellyfish-flow`, `jellyfish-sim`,
//! the figure harness): build it once per finished topology via
//! [`Topology::csr`](crate::Topology::csr) or [`CsrGraph::from_graph`], then
//! traverse flat arrays.
//!
//! Layout:
//!
//! * `row_offsets[u] .. row_offsets[u + 1]` indexes the **arcs** (directed
//!   half-edges) leaving `u`; `neighbors[]` holds the targets, sorted
//!   ascending within each row.
//! * Each arc position is a dense **arc id** in `0..2E`. Per-directed-link
//!   state (flow solver lengths, simulator queues, path counters) indexes a
//!   flat `Vec` by arc id instead of hashing a node pair.
//! * `arc_edge[]` maps every arc to its undirected **edge id** in `0..E`.
//!   Edge ids are assigned in lexicographic `(a, b)` order, so they are a
//!   pure function of the edge *set* — independent of the mutation history
//!   of the `Graph` the snapshot was taken from.
//!
//! The snapshot is intentionally immutable: topology mutations (expansion,
//! failures) happen on `Graph`, after which consumers take a fresh snapshot.

use crate::graph::{Graph, NodeId};

/// Dense identifier of a directed arc (a CSR adjacency position), in
/// `0..CsrGraph::num_arcs()`. The arc `u -> v` and its reverse `v -> u` have
/// distinct ids.
pub type ArcId = usize;

/// Dense identifier of an undirected edge, in `0..CsrGraph::num_edges()`.
pub type EdgeId = usize;

/// An immutable compressed-sparse-row graph snapshot. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `row_offsets[u]..row_offsets[u+1]` spans node `u`'s arcs. Length n+1.
    row_offsets: Vec<u32>,
    /// Arc targets, sorted ascending within each row. Length 2E.
    neighbors: Vec<u32>,
    /// Undirected edge id of each arc. Length 2E.
    arc_edge: Vec<u32>,
    /// Edge endpoints `(a, b)` with `a < b`, indexed by edge id. Length E.
    edges: Vec<(u32, u32)>,
}

impl CsrGraph {
    /// Takes an immutable snapshot of `graph`.
    ///
    /// Node ids are preserved. Edge ids are assigned in lexicographic
    /// `(min, max)` endpoint order, so two `Graph`s with the same edge set
    /// produce identical snapshots regardless of insertion/removal history.
    pub fn from_graph(graph: &Graph) -> Self {
        let n = graph.num_nodes();
        assert!(n < u32::MAX as usize, "graph too large for u32 CSR indices");
        assert!(2 * graph.num_edges() <= u32::MAX as usize, "graph too large for u32 CSR arc ids");
        let mut edges: Vec<(u32, u32)> = graph.edges().map(|e| (e.a as u32, e.b as u32)).collect();
        edges.sort_unstable();

        let mut row_offsets = vec![0u32; n + 1];
        for &(a, b) in &edges {
            row_offsets[a as usize + 1] += 1;
            row_offsets[b as usize + 1] += 1;
        }
        for i in 0..n {
            row_offsets[i + 1] += row_offsets[i];
        }
        let num_arcs = row_offsets[n] as usize;
        let mut neighbors = vec![0u32; num_arcs];
        let mut arc_edge = vec![0u32; num_arcs];
        let mut cursor: Vec<u32> = row_offsets[..n].to_vec();
        // Edges are sorted by (a, b); for any node u all partners y < u are
        // visited (as edges (y, u)) before all partners x > u (as edges
        // (u, x)), and each group in ascending order, so every row comes out
        // sorted without a separate sort pass.
        for (eid, &(a, b)) in edges.iter().enumerate() {
            let slot_a = cursor[a as usize] as usize;
            neighbors[slot_a] = b;
            arc_edge[slot_a] = eid as u32;
            cursor[a as usize] += 1;
            let slot_b = cursor[b as usize] as usize;
            neighbors[slot_b] = a;
            arc_edge[slot_b] = eid as u32;
            cursor[b as usize] += 1;
        }
        CsrGraph { row_offsets, neighbors, arc_edge, edges }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of directed arcs (always `2 * num_edges()`).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.neighbors.len()
    }

    /// Node ids `0..num_nodes()`.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.num_nodes()
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        (self.row_offsets[u + 1] - self.row_offsets[u]) as usize
    }

    /// Maximum degree over all nodes (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Minimum degree over all nodes (0 for an empty graph).
    pub fn min_degree(&self) -> usize {
        self.nodes().map(|u| self.degree(u)).min().unwrap_or(0)
    }

    /// Neighbors of `u`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[u32] {
        &self.neighbors[self.arc_range(u)]
    }

    /// The arc-id range of node `u`: arc `a` in this range points from `u`
    /// to `self.arc_target(a)`.
    #[inline]
    pub fn arc_range(&self, u: NodeId) -> std::ops::Range<ArcId> {
        self.row_offsets[u] as usize..self.row_offsets[u + 1] as usize
    }

    /// Target node of an arc.
    #[inline]
    pub fn arc_target(&self, arc: ArcId) -> NodeId {
        self.neighbors[arc] as NodeId
    }

    /// Source node of an arc (binary search over the row offsets).
    pub fn arc_source(&self, arc: ArcId) -> NodeId {
        debug_assert!(arc < self.num_arcs());
        self.row_offsets.partition_point(|&off| off as usize <= arc) - 1
    }

    /// Dense id of the arc `u -> v`, or `None` when `(u, v)` is not a link.
    /// O(log degree(u)).
    #[inline]
    pub fn arc_index(&self, u: NodeId, v: NodeId) -> Option<ArcId> {
        let range = self.arc_range(u);
        let row = &self.neighbors[range.clone()];
        row.binary_search(&(v as u32)).ok().map(|i| range.start + i)
    }

    /// Undirected edge id of an arc.
    #[inline]
    pub fn edge_of_arc(&self, arc: ArcId) -> EdgeId {
        self.arc_edge[arc] as EdgeId
    }

    /// Endpoints `(a, b)` with `a < b` of an undirected edge.
    #[inline]
    pub fn edge_endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        let (a, b) = self.edges[edge];
        (a as NodeId, b as NodeId)
    }

    /// Undirected edge id of the link `{u, v}`, if present.
    pub fn edge_index(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.arc_index(u, v).map(|a| self.edge_of_arc(a))
    }

    /// Whether `u` and `v` are adjacent. O(log degree(u)).
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v || u >= self.num_nodes() || v >= self.num_nodes() {
            return false;
        }
        self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// Iterator over all undirected edges as `(a, b)` pairs with `a < b`, in
    /// edge-id order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.edges.iter().map(|&(a, b)| (a as NodeId, b as NodeId))
    }

    /// Number of undirected edges crossing the cut `(set, complement)`;
    /// `in_set[v]` must be `true` exactly for nodes in the set.
    pub fn cut_size(&self, in_set: &[bool]) -> usize {
        assert_eq!(in_set.len(), self.num_nodes());
        self.edges.iter().filter(|&&(a, b)| in_set[a as usize] != in_set[b as usize]).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        g
    }

    #[test]
    fn snapshot_matches_graph_shape() {
        let g = ring(6);
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.num_nodes(), 6);
        assert_eq!(csr.num_edges(), 6);
        assert_eq!(csr.num_arcs(), 12);
        for u in csr.nodes() {
            assert_eq!(csr.degree(u), g.degree(u));
            let mut expected: Vec<u32> = g.neighbors(u).iter().map(|&v| v as u32).collect();
            expected.sort_unstable();
            assert_eq!(csr.neighbors(u), expected.as_slice());
        }
    }

    #[test]
    fn rows_are_sorted_and_arc_index_finds_them() {
        let mut g = Graph::new(5);
        // Insert in scrambled order; rows must still come out sorted.
        g.add_edge(3, 1);
        g.add_edge(0, 4);
        g.add_edge(0, 1);
        g.add_edge(2, 0);
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.neighbors(0), &[1, 2, 4]);
        for u in csr.nodes() {
            for arc in csr.arc_range(u) {
                let v = csr.arc_target(arc);
                assert_eq!(csr.arc_index(u, v), Some(arc));
                assert_eq!(csr.arc_source(arc), u);
            }
        }
        assert_eq!(csr.arc_index(0, 3), None);
        assert!(!csr.has_edge(0, 3));
        assert!(csr.has_edge(1, 3));
        assert!(!csr.has_edge(2, 2));
    }

    #[test]
    fn edge_ids_are_history_independent() {
        // Same edge set, different construction history.
        let mut a = Graph::new(4);
        a.add_edge(0, 1);
        a.add_edge(1, 2);
        a.add_edge(2, 3);
        let mut b = Graph::new(4);
        b.add_edge(2, 3);
        b.add_edge(0, 3); // removed below
        b.add_edge(1, 2);
        b.add_edge(0, 1);
        b.remove_edge(0, 3);
        assert_eq!(CsrGraph::from_graph(&a), CsrGraph::from_graph(&b));
    }

    #[test]
    fn arc_and_edge_mappings_are_consistent() {
        let g = ring(8);
        let csr = CsrGraph::from_graph(&g);
        for edge in 0..csr.num_edges() {
            let (a, b) = csr.edge_endpoints(edge);
            assert!(a < b);
            assert_eq!(csr.edge_index(a, b), Some(edge));
            assert_eq!(csr.edge_index(b, a), Some(edge));
            let fwd = csr.arc_index(a, b).unwrap();
            let rev = csr.arc_index(b, a).unwrap();
            assert_ne!(fwd, rev);
            assert_eq!(csr.edge_of_arc(fwd), edge);
            assert_eq!(csr.edge_of_arc(rev), edge);
            assert_eq!((csr.arc_source(fwd), csr.arc_target(fwd)), (a, b));
            assert_eq!((csr.arc_source(rev), csr.arc_target(rev)), (b, a));
        }
        // Edge ids are lexicographic in (a, b).
        let endpoints: Vec<_> = (0..csr.num_edges()).map(|e| csr.edge_endpoints(e)).collect();
        let mut sorted = endpoints.clone();
        sorted.sort_unstable();
        assert_eq!(endpoints, sorted);
    }

    #[test]
    fn cut_size_matches_graph() {
        let g = ring(6);
        let csr = CsrGraph::from_graph(&g);
        let in_set = [true, true, true, false, false, false];
        assert_eq!(csr.cut_size(&in_set), g.cut_size(&in_set));
        assert_eq!(csr.cut_size(&in_set), 2);
    }

    #[test]
    fn empty_and_isolated_graphs() {
        let csr = CsrGraph::from_graph(&Graph::new(0));
        assert_eq!(csr.num_nodes(), 0);
        assert_eq!(csr.num_arcs(), 0);
        assert_eq!(csr.cut_size(&[]), 0);
        let csr1 = CsrGraph::from_graph(&Graph::new(3));
        assert_eq!(csr1.num_nodes(), 3);
        assert_eq!(csr1.degree(1), 0);
        assert_eq!(csr1.max_degree(), 0);
    }
}
