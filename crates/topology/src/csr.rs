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
//! Topology mutations (expansion, failures) happen on `Graph`. A consumer
//! that holds a snapshot across them either takes a fresh one, or — when it
//! knows what changed, as a live session does — edits its copy by the
//! [`EdgeDelta`] ([`CsrGraph::edit`]); both give the same snapshot.

use crate::graph::{Edge, Graph, NodeId};

/// Dense identifier of a directed arc (a CSR adjacency position), in
/// `0..CsrGraph::num_arcs()`. The arc `u -> v` and its reverse `v -> u` have
/// distinct ids.
pub type ArcId = usize;

/// Dense identifier of an undirected edge, in `0..CsrGraph::num_edges()`.
pub type EdgeId = usize;

/// A compressed-sparse-row graph snapshot. See the module docs.
#[derive(Debug, PartialEq, Eq)]
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

/// `clone_from` reuses the target's buffers field by field, as
/// [`Graph`]'s does.
impl Clone for CsrGraph {
    fn clone(&self) -> Self {
        CsrGraph {
            row_offsets: self.row_offsets.clone(),
            neighbors: self.neighbors.clone(),
            arc_edge: self.arc_edge.clone(),
            edges: self.edges.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.row_offsets.clone_from(&source.row_offsets);
        self.neighbors.clone_from(&source.neighbors);
        self.arc_edge.clone_from(&source.arc_edge);
        self.edges.clone_from(&source.edges);
    }
}

/// An undirected edge-set delta between two snapshots: the links one
/// topology event removed and added.
///
/// Both lists are sorted, and no link is in both. `added` may reference
/// nodes beyond the old snapshot (expansion); `removed` links were all in
/// it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeDelta {
    /// Edges present before and absent after.
    pub removed: Vec<Edge>,
    /// Edges absent before and present after.
    pub added: Vec<Edge>,
}

impl EdgeDelta {
    /// The net delta of changes that removed each link of `removed` and
    /// added each link of `added` at most once: a link in both lists (an
    /// expansion link that a later rack spliced away) cancels out.
    pub fn net(mut removed: Vec<Edge>, mut added: Vec<Edge>) -> Self {
        removed.sort_unstable();
        added.sort_unstable();
        if !removed.is_empty() && !added.is_empty() {
            let both: Vec<Edge> =
                removed.iter().filter(|e| added.binary_search(e).is_ok()).copied().collect();
            removed.retain(|e| both.binary_search(e).is_err());
            added.retain(|e| both.binary_search(e).is_err());
        }
        EdgeDelta { removed, added }
    }

    /// The delta between two snapshots: one merge of their edge lists,
    /// which edge ids keep in lexicographic `(a, b)` order. Runs of equal
    /// edges are stepped over in one comparison loop each.
    pub fn between(before: &CsrGraph, after: &CsrGraph) -> Self {
        let (old, new) = (before.edges.as_slice(), after.edges.as_slice());
        let edge = |&(a, b): &(u32, u32)| Edge { a: a as NodeId, b: b as NodeId };
        let mut delta = EdgeDelta::default();
        let (mut i, mut j) = (0, 0);
        loop {
            let run = old[i..].iter().zip(&new[j..]).take_while(|(x, y)| x == y).count();
            i += run;
            j += run;
            match (old.get(i), new.get(j)) {
                (Some(x), Some(y)) if x < y => {
                    delta.removed.push(edge(x));
                    i += 1;
                }
                (Some(_), Some(y)) => {
                    delta.added.push(edge(y));
                    j += 1;
                }
                _ => break,
            }
        }
        delta.removed.extend(old[i..].iter().map(edge));
        delta.added.extend(new[j..].iter().map(edge));
        delta
    }

    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

/// Removes the entries at `at` (strictly ascending positions) from `v`,
/// moving each run between two of them once.
fn remove_at<T: Copy>(v: &mut Vec<T>, at: &[u32]) {
    for (k, &p) in at.iter().enumerate() {
        let end = at.get(k + 1).map_or(v.len(), |&q| q as usize);
        v.copy_within(p as usize + 1..end, p as usize - k);
    }
    v.truncate(v.len() - at.len());
}

/// Inserts `value(k)` before the entry at `at[k]` of `v` (non-decreasing
/// positions into the original `v`; values at one position keep their
/// order), moving each run between two of them once.
fn insert_at<T: Copy + Default>(v: &mut Vec<T>, at: &[u32], value: impl Fn(usize) -> T) {
    let mut end = v.len();
    v.resize(end + at.len(), T::default());
    for (k, &p) in at.iter().enumerate().rev() {
        let p = p as usize;
        v.copy_within(p..end, p + k + 1);
        v[p + k] = value(k);
        end = p;
    }
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

    /// Edits the snapshot by `delta` and grows it to `num_nodes` nodes,
    /// the new ones starting isolated. The result equals a fresh snapshot
    /// of the edited graph ([`CsrGraph::from_graph`]), edge ids included.
    ///
    /// Each array moves its runs between edited positions once (a
    /// `memmove` each), and edge ids shift down by the removed ids below
    /// them and up by the added ids at or below them, so a one-link event
    /// costs `O(E)` word moves and one vectorized pass over the ids, with
    /// no sort.
    ///
    /// Panics when `num_nodes` is below the current node count, a removed
    /// link is not in the snapshot, or an added one already is.
    pub fn edit(&mut self, delta: &EdgeDelta, num_nodes: usize) {
        let n = self.num_nodes();
        assert!(num_nodes >= n, "an edit cannot drop nodes ({n} -> {num_nodes})");
        assert!(num_nodes < u32::MAX as usize, "graph too large for u32 CSR indices");
        let arcs = self.row_offsets[n];
        self.row_offsets.resize(num_nodes + 1, arcs);
        if !delta.removed.is_empty() {
            self.remove_edges(&delta.removed);
        }
        if !delta.added.is_empty() {
            self.insert_edges(&delta.added);
        }
    }

    /// The removal half of [`CsrGraph::edit`]; `removed` is sorted.
    fn remove_edges(&mut self, removed: &[Edge]) {
        let mut ids = Vec::with_capacity(removed.len());
        let mut arcs = Vec::with_capacity(2 * removed.len());
        for e in removed {
            let (fwd, rev) = match (self.arc_index(e.a, e.b), self.arc_index(e.b, e.a)) {
                (Some(fwd), Some(rev)) => (fwd, rev),
                _ => panic!("removed link {e} is not in the snapshot"),
            };
            ids.push(self.arc_edge[fwd]);
            arcs.extend([fwd as u32, rev as u32]);
        }
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "removed links are sorted");
        arcs.sort_unstable();
        remove_at(&mut self.edges, &ids);
        remove_at(&mut self.neighbors, &arcs);
        remove_at(&mut self.arc_edge, &arcs);
        // One branch-free pass per removed id, highest first, so each pass
        // compares against ids no earlier pass moved. For the one or few
        // links most events remove, this beats a binary search per id.
        for &r in ids.iter().rev() {
            for id in &mut self.arc_edge {
                *id -= u32::from(*id > r);
            }
        }
        let mut gone = 0;
        for offset in &mut self.row_offsets {
            while gone < arcs.len() && arcs[gone] < *offset {
                gone += 1;
            }
            *offset -= gone as u32;
        }
    }

    /// The insertion half of [`CsrGraph::edit`]; `added` is sorted and its
    /// endpoints are below the (grown) node count.
    fn insert_edges(&mut self, added: &[Edge]) {
        assert!(
            2 * (self.edges.len() + added.len()) <= u32::MAX as usize,
            "graph too large for u32 CSR arc ids"
        );
        let key = |e: &Edge| (e.a as u32, e.b as u32);
        // Where each added link lands among the kept ones; its new id is
        // that position plus the added links before it.
        let at: Vec<u32> = added
            .iter()
            .map(|e| {
                let p = self.edges.partition_point(|x| *x < key(e));
                assert!(
                    self.edges.get(p) != Some(&key(e)),
                    "added link {e} is already in the snapshot"
                );
                p as u32
            })
            .collect();
        // A binary search per id: an expansion adds many links at once.
        for id in &mut self.arc_edge {
            *id += at.partition_point(|&p| p <= *id) as u32;
        }
        // Both arcs of every added link, as (row, target, edge id) in row
        // order, and where each lands in the arc arrays.
        let mut arcs: Vec<(u32, u32, u32)> = Vec::with_capacity(2 * added.len());
        for (j, (e, &p)) in added.iter().zip(&at).enumerate() {
            let (a, b, id) = (e.a as u32, e.b as u32, p + j as u32);
            arcs.extend([(a, b, id), (b, a, id)]);
        }
        arcs.sort_unstable();
        let arc_at: Vec<u32> = arcs
            .iter()
            .map(|&(u, v, _)| {
                let row = self.neighbors(u as NodeId);
                self.row_offsets[u as usize] + row.partition_point(|&w| w < v) as u32
            })
            .collect();
        insert_at(&mut self.edges, &at, |j| key(&added[j]));
        insert_at(&mut self.neighbors, &arc_at, |k| arcs[k].1);
        insert_at(&mut self.arc_edge, &arc_at, |k| arcs[k].2);
        let mut born = 0;
        for (u, offset) in self.row_offsets.iter_mut().enumerate() {
            while born < arcs.len() && (arcs[born].0 as usize) < u {
                born += 1;
            }
            *offset += born as u32;
        }
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

    fn snapshot(n: usize, edges: &[(NodeId, NodeId)]) -> CsrGraph {
        let mut g = Graph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        CsrGraph::from_graph(&g)
    }

    #[test]
    fn edge_delta_between_is_order_independent() {
        let before = [(0, 1), (1, 2), (3, 4), (4, 5)];
        let after = [(1, 2), (2, 3), (0, 5), (4, 5)];
        let delta = EdgeDelta::between(&snapshot(6, &before), &snapshot(6, &after));
        assert_eq!(delta.removed, vec![Edge::new(0, 1), Edge::new(3, 4)]);
        assert_eq!(delta.added, vec![Edge::new(0, 5), Edge::new(2, 3)]);
        // Insertion order and endpoint orientation do not reach the delta.
        let before_rev = [(5, 4), (4, 3), (2, 1), (1, 0)];
        let after_rev = [(5, 4), (5, 0), (3, 2), (2, 1)];
        assert_eq!(EdgeDelta::between(&snapshot(6, &before_rev), &snapshot(6, &after_rev)), delta);
        // Trailing edges on either side reach the delta too.
        let swapped = EdgeDelta::between(&snapshot(6, &after), &snapshot(6, &before));
        assert_eq!((swapped.removed, swapped.added), (delta.added, delta.removed));
    }

    #[test]
    fn net_deltas_sort_and_cancel_links_in_both_lists() {
        let delta = EdgeDelta::net(
            vec![Edge::new(4, 2), Edge::new(0, 1), Edge::new(7, 3)],
            vec![Edge::new(7, 3), Edge::new(5, 0)],
        );
        assert_eq!(delta.removed, vec![Edge::new(0, 1), Edge::new(2, 4)]);
        assert_eq!(delta.added, vec![Edge::new(0, 5)]);
    }

    /// Seeded random graphs edited by random deltas — removals, additions
    /// among old nodes and links to new nodes — equal a fresh snapshot of
    /// the edited graph, and so does `clone_from` into a snapshot of
    /// another shape.
    #[test]
    fn edits_match_fresh_snapshots() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) as usize) % bound
        };
        for round in 0..200 {
            let n = 2 + next(12);
            let mut graph = Graph::new(n);
            for _ in 0..next(3 * n) {
                graph.add_edge(next(n), next(n));
            }
            let mut csr = CsrGraph::from_graph(&graph);
            let grown = n + next(3);
            while graph.num_nodes() < grown {
                graph.add_node();
            }
            let mut removed = Vec::new();
            for _ in 0..next(4) {
                if graph.num_edges() > 0 {
                    let e = graph.edge_at(next(graph.num_edges()));
                    graph.remove_edge(e.a, e.b);
                    removed.push(e);
                }
            }
            let mut added = Vec::new();
            for _ in 0..next(5) {
                let (u, v) = (next(grown), next(grown));
                if u != v && !graph.has_edge(u, v) && !removed.contains(&Edge::new(u, v)) {
                    graph.add_edge(u, v);
                    added.push(Edge::new(u, v));
                }
            }
            let fresh = CsrGraph::from_graph(&graph);
            let delta = EdgeDelta::net(removed, added);
            assert_eq!(EdgeDelta::between(&csr, &fresh), delta, "round {round}");
            let mut copy = fresh.clone();
            copy.clone_from(&csr);
            assert_eq!(copy, csr, "round {round}: clone_from");
            csr.edit(&delta, grown);
            assert_eq!(csr, fresh, "round {round}: edit by {delta:?}");
        }
    }

    #[test]
    #[should_panic(expected = "is not in the snapshot")]
    fn editing_out_a_missing_link_panics() {
        let mut csr = snapshot(3, &[(0, 1)]);
        csr.edit(&EdgeDelta { removed: vec![Edge::new(1, 2)], added: Vec::new() }, 3);
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
