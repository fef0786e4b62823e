//! Shortest-path primitives: BFS (unit weights), all-pairs distances, and
//! [`ShortestPathSearch`], the one weighted Dijkstra, which Yen's algorithm
//! and the Garg–Könemann flow solver share.
//!
//! All functions traverse an immutable [`CsrGraph`] snapshot; the all-pairs
//! sweep fans 64-source batches out with rayon and concatenates them in
//! source order, so the fan-out never changes the result.

use crate::Path;
use jellyfish_topology::bfs::{ms_bfs_into, MsBfsScratch};
use jellyfish_topology::{ArcId, CsrGraph, NodeId};
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

pub use jellyfish_topology::bfs::{DistanceMatrix, UNREACHED};

/// Result of a single-source BFS: distances and parent pointers.
#[derive(Debug, Clone)]
pub struct BfsTree {
    /// Distance (in hops) from the source; `usize::MAX` when unreachable.
    pub dist: Vec<usize>,
    /// Parent of each node in the BFS tree; `usize::MAX` for the source and
    /// unreachable nodes.
    pub parent: Vec<usize>,
    /// The source node.
    pub source: NodeId,
}

impl BfsTree {
    /// Extracts the (unique, per this tree) shortest path to `dst`, or `None`
    /// if unreachable.
    pub fn path_to(&self, dst: NodeId) -> Option<Path> {
        if self.dist[dst] == usize::MAX {
            return None;
        }
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != self.source {
            cur = self.parent[cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

/// Breadth-first search from `source`.
pub fn bfs(csr: &CsrGraph, source: NodeId) -> BfsTree {
    let n = csr.num_nodes();
    let mut dist = vec![usize::MAX; n];
    let mut parent = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u];
        for &v in csr.neighbors(u) {
            let v = v as usize;
            if dist[v] == usize::MAX {
                dist[v] = du + 1;
                parent[v] = u;
                queue.push_back(v);
            }
        }
    }
    BfsTree { dist, parent, source }
}

/// One shortest path from `src` to `dst` (hop count metric), or `None` if
/// unreachable.
pub fn shortest_path(csr: &CsrGraph, src: NodeId, dst: NodeId) -> Option<Path> {
    bfs(csr, src).path_to(dst)
}

/// Sources per parallel task in [`all_pairs_distances`]: one multi-source
/// bit-parallel BFS batch (64 `u64` lanes), so a task sweeps the edge list
/// once per BFS level for its whole block. Blocks are concatenated in source
/// order, so the fan-out never changes the result.
const ALL_PAIRS_BLOCK: usize = 64;

/// All-pairs shortest-path distances (hop counts) as a flat row-major
/// [`DistanceMatrix`] (`row(src)[dst]`, [`UNREACHED`] when unreachable).
/// One rayon task per 64-source batch; every row equals a single-source
/// [`bfs_scalar_into`](jellyfish_topology::bfs::bfs_scalar_into) from that
/// source.
pub fn all_pairs_distances(csr: &CsrGraph) -> DistanceMatrix {
    let n = csr.num_nodes();
    let num_blocks = n.div_ceil(ALL_PAIRS_BLOCK);
    let blocks: Vec<Vec<u32>> = (0..num_blocks)
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|b| {
            let start = b * ALL_PAIRS_BLOCK;
            let end = (start + ALL_PAIRS_BLOCK).min(n);
            let sources: Vec<NodeId> = (start..end).collect();
            let mut data = vec![UNREACHED; (end - start) * n];
            let mut scratch = MsBfsScratch::new(n);
            ms_bfs_into(csr, &sources, &mut data, &mut scratch);
            data
        })
        .collect();
    let mut data = Vec::with_capacity(n * n);
    for block in blocks {
        data.extend_from_slice(&block);
    }
    DistanceMatrix::from_flat(n, data)
}

/// A reusable point-to-point Dijkstra: the one weighted shortest-path search
/// in the workspace, shared by Yen's spur searches and the Garg–Könemann
/// flow solver's inner loop.
///
/// The search owns its distance, parent-node, parent-arc and heap buffers,
/// so a caller that keeps one alive across queries allocates nothing per
/// query once the buffers have grown to the snapshot's size. It stops as
/// soon as the destination is settled and writes the path as arc ids, so a
/// caller holding per-arc state never maps nodes back to arcs.
///
/// Nodes settle in `(distance, node id)` order: the heap key is
/// `(dist.to_bits(), node)`, which orders exactly like the distances because
/// every distance is non-negative and finite. With non-negative weights no
/// settled node is ever relaxed again, so the destination's parent chain is
/// final once it is popped and the path equals the one a full shortest-path
/// tree would give, tie for tie.
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
        let n = csr.num_nodes();
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        // Parents are written whenever a distance is, so stale entries from
        // an earlier query are never read.
        self.parent.resize(n, usize::MAX);
        self.parent_arc.resize(n, usize::MAX);
        self.heap.clear();
        path.clear();
        self.dist[src] = 0.0;
        self.heap.push(Reverse((0.0f64.to_bits(), src)));
        while let Some(Reverse((bits, u))) = self.heap.pop() {
            let d = f64::from_bits(bits);
            if d > self.dist[u] {
                continue;
            }
            if u == dst {
                let mut cur = dst;
                while cur != src {
                    path.push(self.parent_arc[cur]);
                    cur = self.parent[cur];
                }
                path.reverse();
                return Some(d);
            }
            for arc in csr.arc_range(u) {
                let w = arc_weight(u, arc);
                if !w.is_finite() || w < 0.0 {
                    continue;
                }
                let v = csr.arc_target(arc);
                let nd = d + w;
                if nd + 1e-15 < self.dist[v] {
                    self.dist[v] = nd;
                    self.parent[v] = u;
                    self.parent_arc[v] = arc;
                    self.heap.push(Reverse((nd.to_bits(), v)));
                }
            }
        }
        None
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
        let g = grid3x3();
        let t = bfs(&g, 0);
        assert_eq!(t.dist[0], 0);
        assert_eq!(t.dist[8], 4);
        assert_eq!(t.dist[4], 2);
    }

    #[test]
    fn bfs_path_reconstruction() {
        let g = grid3x3();
        let t = bfs(&g, 0);
        let p = t.path_to(8).unwrap();
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&8));
        assert_eq!(p.len(), 5);
        assert!(crate::is_valid_simple_path(&g, &p));
        assert_eq!(t.path_to(0).unwrap(), vec![0]);
    }

    #[test]
    fn bfs_unreachable() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        let csr = CsrGraph::from_graph(&g);
        let t = bfs(&csr, 0);
        assert!(t.path_to(2).is_none());
        assert_eq!(t.dist[2], usize::MAX);
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
        // partial. On the 130-node graph (a path across the first block
        // boundary, one link across the second, every other node isolated)
        // most pairs are unreachable.
        let mut sparse = Graph::new(130);
        for v in 56..72 {
            sparse.add_edge(v, v + 1);
        }
        sparse.add_edge(127, 128);
        let graphs = [
            JellyfishBuilder::new(60, 10, 6).seed(11).build().unwrap().csr(),
            JellyfishBuilder::new(150, 10, 6).seed(11).build().unwrap().csr(),
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
        let b = bfs(&g, 0);
        let mut search = ShortestPathSearch::new();
        let mut arcs = Vec::new();
        for v in g.nodes() {
            let d = search.find_path(&g, 0, v, |_, _| 1.0, &mut arcs).unwrap();
            assert_eq!(d, b.dist[v] as f64, "node {v}");
            assert_eq!(arcs.len(), b.dist[v], "node {v}");
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
