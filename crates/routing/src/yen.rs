//! Yen's loopless k-shortest-paths algorithm (Yen, Management Science 1971).
//!
//! The paper routes Jellyfish traffic over the `k = 8` shortest paths between
//! every switch pair (§5.1). Yen's algorithm finds the k shortest *simple*
//! (loop-free) paths by repeatedly computing "spur paths" that deviate from
//! previously found paths, with links and nodes of the shared prefix masked
//! out of the shortest-path search.
//!
//! This implementation is hand-rolled on top of the crate's Dijkstra at unit
//! link weights (hop count), per the reproduction note that no external graph
//! crate is used. One [`ShortestPathSearch`] and one arc buffer serve every
//! spur search of a call, and masked nodes and links are flags in a node
//! mask and an edge mask (an undirected edge id masks both directions), set
//! before each spur search and cleared after it.

use crate::shortest::ShortestPathSearch;
use crate::Path;
use jellyfish_topology::{ArcId, CsrGraph, EdgeId, NodeId};
use std::collections::BTreeSet;

/// Finds up to `k` loopless shortest paths from `src` to `dst` by hop
/// count. Paths are returned sorted by (length, lexical order) and are
/// pairwise distinct. Returns an empty vector if `dst` is unreachable;
/// returns `[[src]]` when `src == dst`.
pub fn k_shortest_paths(csr: &CsrGraph, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    if k == 0 {
        return Vec::new();
    }
    if src == dst {
        return vec![vec![src]];
    }
    let mut search = ShortestPathSearch::new();
    let mut arcs: Vec<ArcId> = Vec::new();
    if search.find_path(csr, src, dst, |_, _| 1.0, &mut arcs).is_none() {
        return Vec::new();
    }

    let first = std::iter::once(src).chain(arcs.iter().map(|&arc| csr.arc_target(arc)));
    let mut found: Vec<Path> = vec![first.collect()];
    // Candidate set keyed by (length, path) to keep deterministic ordering
    // and deduplicate spur results found via different prefixes.
    let mut candidates: BTreeSet<(usize, Path)> = BTreeSet::new();
    let mut node_masked = vec![false; csr.num_nodes()];
    let mut edge_masked = vec![false; csr.num_edges()];
    let mut masked_edges: Vec<EdgeId> = Vec::new();

    while found.len() < k {
        let last = found.len() - 1;
        // Each node of the previous path except the final one is a spur node.
        for spur_idx in 0..found[last].len() - 1 {
            let root = &found[last][..=spur_idx];
            let spur_node = root[spur_idx];

            // Links to mask: for every found path sharing this root, the link
            // it takes out of the spur node.
            for p in &found {
                if p.len() > spur_idx && p[..=spur_idx] == *root {
                    let edge =
                        csr.edge_index(p[spur_idx], p[spur_idx + 1]).expect("path hops are links");
                    edge_masked[edge] = true;
                    masked_edges.push(edge);
                }
            }
            // Nodes of the root (except the spur node) are masked entirely to
            // keep paths simple.
            for &n in &root[..spur_idx] {
                node_masked[n] = true;
            }
            let spur_weight = |u: NodeId, arc: ArcId| {
                let masked = node_masked[u]
                    || node_masked[csr.arc_target(arc)]
                    || edge_masked[csr.edge_of_arc(arc)];
                if masked {
                    f64::INFINITY
                } else {
                    1.0
                }
            };
            let spur = search.find_path(csr, spur_node, dst, spur_weight, &mut arcs);
            for &n in &root[..spur_idx] {
                node_masked[n] = false;
            }
            for edge in masked_edges.drain(..) {
                edge_masked[edge] = false;
            }
            if spur.is_none() {
                continue;
            }
            let mut total: Path = Vec::with_capacity(spur_idx + 1 + arcs.len());
            total.extend_from_slice(root);
            total.extend(arcs.iter().map(|&arc| csr.arc_target(arc)));
            // The masked root keeps the spur path off the root's nodes.
            debug_assert!(total.iter().enumerate().all(|(i, n)| !total[..i].contains(n)));
            if found.contains(&total) {
                continue;
            }
            candidates.insert((total.len(), total));
        }
        // Pop the shortest candidate not yet in the result set.
        let next = loop {
            let Some((_, path)) = candidates.pop_first() else {
                return found;
            };
            if !found.contains(&path) {
                break path;
            }
        };
        found.push(next);
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_valid_simple_path;
    use jellyfish_topology::{Graph, JellyfishBuilder};

    /// The classic example graph used to illustrate Yen's algorithm.
    fn diamond() -> CsrGraph {
        // 0 -- 1 -- 3
        //  \   |   /
        //   \  2  /
        //    \ | /
        //      4
        let mut g = Graph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 3);
        g.add_edge(0, 4);
        g.add_edge(4, 3);
        g.add_edge(1, 2);
        g.add_edge(2, 4);
        CsrGraph::from_graph(&g)
    }

    #[test]
    fn finds_all_simple_paths_in_small_graph() {
        let g = diamond();
        let paths = k_shortest_paths(&g, 0, 3, 10);
        // Simple paths 0->3: [0,1,3], [0,4,3], [0,1,2,4,3], [0,4,2,1,3].
        assert_eq!(paths.len(), 4);
        assert_eq!(paths[0].len(), 3);
        assert_eq!(paths[1].len(), 3);
        assert_eq!(paths[2].len(), 5);
        assert_eq!(paths[3].len(), 5);
        for p in &paths {
            assert!(is_valid_simple_path(&g, p));
            assert_eq!(p.first(), Some(&0));
            assert_eq!(p.last(), Some(&3));
        }
        // All distinct.
        let set: std::collections::HashSet<_> = paths.iter().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn k_limits_result_count() {
        let g = diamond();
        assert_eq!(k_shortest_paths(&g, 0, 3, 2).len(), 2);
        assert_eq!(k_shortest_paths(&g, 0, 3, 1).len(), 1);
        assert!(k_shortest_paths(&g, 0, 3, 0).is_empty());
    }

    #[test]
    fn paths_sorted_by_length() {
        let g = diamond();
        let paths = k_shortest_paths(&g, 0, 3, 8);
        for w in paths.windows(2) {
            assert!(w[0].len() <= w[1].len());
        }
    }

    #[test]
    fn unreachable_and_self_cases() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        let g = CsrGraph::from_graph(&g);
        assert!(k_shortest_paths(&g, 0, 2, 4).is_empty());
        assert_eq!(k_shortest_paths(&g, 1, 1, 4), vec![vec![1]]);
    }

    #[test]
    fn line_graph_has_single_path() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        let g = CsrGraph::from_graph(&g);
        let paths = k_shortest_paths(&g, 0, 3, 8);
        assert_eq!(paths, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn cycle_graph_has_exactly_two_paths() {
        let mut g = Graph::new(6);
        for i in 0..6 {
            g.add_edge(i, (i + 1) % 6);
        }
        let g = CsrGraph::from_graph(&g);
        let paths = k_shortest_paths(&g, 0, 3, 8);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].len(), 4);
        assert_eq!(paths[1].len(), 4);
    }

    #[test]
    fn jellyfish_8_shortest_paths_are_valid_and_distinct() {
        let topo = JellyfishBuilder::new(40, 10, 6).seed(5).build().unwrap();
        let g = &topo.csr();
        for (s, d) in [(0usize, 20usize), (3, 35), (11, 29)] {
            let paths = k_shortest_paths(g, s, d, 8);
            assert_eq!(paths.len(), 8, "expected 8 paths between {s} and {d}");
            let set: std::collections::HashSet<_> = paths.iter().collect();
            assert_eq!(set.len(), 8);
            for p in &paths {
                assert!(is_valid_simple_path(g, p));
                assert_eq!(p.first(), Some(&s));
                assert_eq!(p.last(), Some(&d));
            }
            // First path is a true shortest path.
            let hops = crate::shortest::all_pairs_distances(g).get(s, d) as usize;
            assert_eq!(paths[0].len(), hops + 1);
        }
    }
}
