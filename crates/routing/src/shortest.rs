//! Shortest-path primitives: all-pairs hop distances (re-exported from
//! [`jellyfish_topology::bfs`], where the one BFS kernel lives) and
//! [`ShortestPathSearch`], the one weighted Dijkstra, which Yen's algorithm
//! and the Garg–Könemann flow solver share.
//!
//! All functions traverse an immutable [`CsrGraph`] snapshot.

use crate::Path;
use jellyfish_topology::{ArcId, CsrGraph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

pub use jellyfish_topology::bfs::{all_pairs_distances, DistanceMatrix, UNREACHED};

/// A reusable Dijkstra: the one weighted shortest-path search in the
/// workspace, shared by Yen's spur searches and the Garg–Könemann flow
/// solver (its routing steps and its duality certificate).
///
/// The search owns its distance, parent-node, parent-arc and heap buffers,
/// so a caller that keeps one alive across queries allocates nothing per
/// query once the buffers have grown to the snapshot's size.
/// [`find_path`](Self::find_path) stops as soon as the destination is
/// settled and writes the path as arc ids, so a caller holding per-arc state
/// never maps nodes back to arcs; [`distances`](Self::distances) runs the
/// same scan to exhaustion.
///
/// Nodes settle in `(distance, node id)` order: the heap key is
/// `(dist.to_bits(), node)`, which orders exactly like the distances because
/// every distance is non-negative and finite. An arc relaxes only on a
/// strictly shorter distance, so with non-negative weights no settled node
/// is ever relaxed again: the destination's parent chain is final once it is
/// popped, and the path equals the one a full shortest-path tree would give,
/// tie for tie. The comparison is exact at every scale, which the flow
/// solver needs: its arc lengths start near 1e-40 and span dozens of orders
/// of magnitude.
#[derive(Debug, Clone, Default)]
pub struct ShortestPathSearch {
    dist: Vec<f64>,
    parent: Vec<NodeId>,
    parent_arc: Vec<ArcId>,
    heap: BinaryHeap<Reverse<(u64, NodeId)>>,
}

impl ShortestPathSearch {
    /// An empty search; its buffers grow to the snapshot's size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cheapest path from `src` to `dst` under `arc_weight(u, arc)`,
    /// where `u` is the arc's source node (free in the scan loop). Clears
    /// `path`, writes the path's arc ids into it in `src → dst` order and
    /// returns the path's cost, or returns `None` with `path` empty when
    /// `dst` is unreachable.
    ///
    /// Weights must be non-negative; an infinite (or NaN) weight masks the
    /// arc, which is how Yen's spur computation removes links without
    /// mutating the graph.
    pub fn find_path<F>(
        &mut self,
        csr: &CsrGraph,
        src: NodeId,
        dst: NodeId,
        arc_weight: F,
        path: &mut Vec<ArcId>,
    ) -> Option<f64>
    where
        F: Fn(NodeId, ArcId) -> f64,
    {
        path.clear();
        if !self.scan(csr, src, dst, arc_weight) {
            return None;
        }
        let mut cur = dst;
        while cur != src {
            path.push(self.parent_arc[cur]);
            cur = self.parent[cur];
        }
        path.reverse();
        Some(self.dist[dst])
    }

    /// The cost of the cheapest path from `src` to every node under the
    /// same weights as [`find_path`](Self::find_path), indexed by node id
    /// (infinite where unreachable): the scan run to exhaustion.
    pub fn distances<F>(&mut self, csr: &CsrGraph, src: NodeId, arc_weight: F) -> &[f64]
    where
        F: Fn(NodeId, ArcId) -> f64,
    {
        self.scan(csr, src, NodeId::MAX, arc_weight);
        &self.dist
    }

    /// Settles nodes from `src` until `dst` is settled (returns `true`) or
    /// the heap runs dry (returns `false`; `dst = NodeId::MAX` settles
    /// every reachable node). Parents are written whenever a distance is,
    /// so stale entries from an earlier query are never read.
    fn scan<F>(&mut self, csr: &CsrGraph, src: NodeId, dst: NodeId, arc_weight: F) -> bool
    where
        F: Fn(NodeId, ArcId) -> f64,
    {
        let n = csr.num_nodes();
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.parent.resize(n, usize::MAX);
        self.parent_arc.resize(n, usize::MAX);
        self.heap.clear();
        self.dist[src] = 0.0;
        self.heap.push(Reverse((0.0f64.to_bits(), src)));
        while let Some(Reverse((bits, u))) = self.heap.pop() {
            let d = f64::from_bits(bits);
            if d > self.dist[u] {
                continue;
            }
            if u == dst {
                return true;
            }
            for arc in csr.arc_range(u) {
                let w = arc_weight(u, arc);
                if !w.is_finite() || w < 0.0 {
                    continue;
                }
                let v = csr.arc_target(arc);
                let nd = d + w;
                if nd < self.dist[v] {
                    self.dist[v] = nd;
                    self.parent[v] = u;
                    self.parent_arc[v] = arc;
                    self.heap.push(Reverse((nd.to_bits(), v)));
                }
            }
        }
        false
    }
}

/// Shortest path by Dijkstra under the node-pair weight function
/// `weight(u, v)`, as a node path and its cost: a one-shot
/// [`ShortestPathSearch`].
pub fn weighted_shortest_path<F>(
    csr: &CsrGraph,
    src: NodeId,
    dst: NodeId,
    weight: F,
) -> Option<(Path, f64)>
where
    F: Fn(NodeId, NodeId) -> f64,
{
    let mut arcs = Vec::new();
    let arc_weight = |u, arc| weight(u, csr.arc_target(arc));
    let cost = ShortestPathSearch::new().find_path(csr, src, dst, arc_weight, &mut arcs)?;
    let mut path = Vec::with_capacity(arcs.len() + 1);
    path.push(src);
    path.extend(arcs.iter().map(|&arc| csr.arc_target(arc)));
    Some((path, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish_topology::{Graph, JellyfishBuilder};

    fn grid3x3() -> CsrGraph {
        // 0-1-2 / 3-4-5 / 6-7-8 grid, no wraparound.
        let mut g = Graph::new(9);
        for y in 0..3 {
            for x in 0..3 {
                let id = y * 3 + x;
                if x < 2 {
                    g.add_edge(id, id + 1);
                }
                if y < 2 {
                    g.add_edge(id, id + 3);
                }
            }
        }
        CsrGraph::from_graph(&g)
    }

    #[test]
    fn bfs_distances_on_grid() {
        let d = all_pairs_distances(&grid3x3());
        assert_eq!(d.get(0, 0), 0);
        assert_eq!(d.get(0, 8), 4);
        assert_eq!(d.get(0, 4), 2);
    }

    #[test]
    fn bfs_path_reconstruction() {
        // One shortest path is the first ECMP path over the destination's
        // distance row.
        let g = grid3x3();
        let d = all_pairs_distances(&g);
        let paths = crate::ecmp::all_shortest_paths(&g, d.row(8), 0, 8, 1);
        let p = &paths[0];
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&8));
        assert_eq!(p.len(), 5);
        assert!(crate::is_valid_simple_path(&g, p));
        assert_eq!(crate::ecmp::all_shortest_paths(&g, d.row(0), 0, 0, 1), vec![vec![0]]);
    }

    #[test]
    fn bfs_unreachable() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        let d = all_pairs_distances(&CsrGraph::from_graph(&g));
        assert_eq!(d.get(0, 1), 1);
        assert_eq!(d.get(0, 2), UNREACHED);
        assert_eq!(d.get(2, 0), UNREACHED);
    }

    #[test]
    fn all_pairs_symmetric() {
        let g = grid3x3();
        let d = all_pairs_distances(&g);
        for (u, row) in d.rows().enumerate() {
            for (v, &duv) in row.iter().enumerate() {
                assert_eq!(duv, d.get(v, u));
            }
        }
        assert_eq!(d.get(0, 8), 4);
        assert_eq!(d.get(2, 6), 4);
    }

    #[test]
    fn parallel_all_pairs_matches_serial() {
        // 60 nodes fill one 64-source block; 150 nodes make three, the last
        // partial; 300 nodes cross the serial threshold, so their five blocks
        // fan out to worker threads. On the 130-node graph (a path across the
        // first block boundary, one link across the second, every other node
        // isolated) most pairs are unreachable.
        let mut sparse = Graph::new(130);
        for v in 56..72 {
            sparse.add_edge(v, v + 1);
        }
        sparse.add_edge(127, 128);
        let graphs = [
            JellyfishBuilder::new(60, 10, 6).seed(11).build().unwrap().csr(),
            JellyfishBuilder::new(150, 10, 6).seed(11).build().unwrap().csr(),
            JellyfishBuilder::new(300, 10, 6).seed(11).build().unwrap().csr(),
            CsrGraph::from_graph(&sparse),
        ];
        for csr in &graphs {
            let n = csr.num_nodes();
            let parallel = all_pairs_distances(csr);
            assert_eq!((parallel.num_rows(), parallel.num_cols()), (n, n));
            let mut want = vec![UNREACHED; n];
            for src in csr.nodes() {
                jellyfish_topology::bfs::bfs_scalar_into(csr, src, &mut want);
                assert_eq!(parallel.row(src), &want[..], "n = {n}, source {src}");
            }
        }
    }

    #[test]
    fn dijkstra_unit_weights_matches_bfs() {
        let topo = JellyfishBuilder::new(40, 8, 5).seed(2).build().unwrap();
        let g = topo.csr();
        let all = all_pairs_distances(&g);
        let hops = all.row(0);
        let mut search = ShortestPathSearch::new();
        let mut arcs = Vec::new();
        for v in g.nodes() {
            let d = search.find_path(&g, 0, v, |_, _| 1.0, &mut arcs).unwrap();
            assert_eq!(d, f64::from(hops[v]), "node {v}");
            assert_eq!(arcs.len(), hops[v] as usize, "node {v}");
        }
    }

    #[test]
    fn arc_weights_match_pair_weights() {
        let topo = JellyfishBuilder::new(30, 8, 5).seed(4).build().unwrap();
        let csr = topo.csr();
        // A weight that depends on the endpoints, expressed both ways.
        let pair_weight = |u: usize, v: usize| 1.0 + ((u * 7 + v * 13) % 5) as f64;
        let mut search = ShortestPathSearch::new();
        let mut arcs = Vec::new();
        for v in csr.nodes() {
            let (path, d1) = weighted_shortest_path(&csr, 3, v, pair_weight).unwrap();
            let d2 = search
                .find_path(
                    &csr,
                    3,
                    v,
                    |_, arc| pair_weight(csr.arc_source(arc), csr.arc_target(arc)),
                    &mut arcs,
                )
                .unwrap();
            assert_eq!(d1.to_bits(), d2.to_bits(), "node {v}");
            let via_arcs: Vec<NodeId> =
                std::iter::once(3).chain(arcs.iter().map(|&a| csr.arc_target(a))).collect();
            assert_eq!(path, via_arcs, "node {v}");
        }
    }

    #[test]
    fn dijkstra_prefers_cheap_detour() {
        // 0-1-2 chain cheap, direct 0-2 expensive.
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        let csr = CsrGraph::from_graph(&g);
        let weight = |u: usize, v: usize| {
            if (u.min(v), u.max(v)) == (0, 2) {
                10.0
            } else {
                1.0
            }
        };
        let (path, cost) = weighted_shortest_path(&csr, 0, 2, weight).unwrap();
        assert_eq!(path, vec![0, 1, 2]);
        assert!((cost - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_weights_still_find_the_cheapest_path() {
        // Garg–Könemann lengths start near 1e-40: a detour cheaper by 1e-40
        // must still win over the direct link.
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        let csr = CsrGraph::from_graph(&g);
        let weight = |u: usize, v: usize| if u + v == 2 { 3e-40 } else { 1e-40 };
        let (path, cost) = weighted_shortest_path(&csr, 0, 2, weight).unwrap();
        assert_eq!((path, cost), (vec![0, 1, 2], 2e-40));
        let mut search = ShortestPathSearch::new();
        let dist = search.distances(&csr, 0, |u, arc| weight(u, csr.arc_target(arc)));
        assert_eq!(dist, &[0.0, 1e-40, 2e-40]);
    }

    #[test]
    fn dijkstra_infinite_weight_masks_links() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let csr = CsrGraph::from_graph(&g);
        let weight = |u: usize, v: usize| {
            if (u.min(v), u.max(v)) == (1, 2) {
                f64::INFINITY
            } else {
                1.0
            }
        };
        assert!(weighted_shortest_path(&csr, 0, 2, weight).is_none());
    }

    #[test]
    fn weighted_path_to_self() {
        let g = grid3x3();
        let (p, c) = weighted_shortest_path(&g, 4, 4, |_, _| 1.0).unwrap();
        assert_eq!(p, vec![4]);
        assert_eq!(c, 0.0);
    }
}
