//! ECMP (equal-cost multi-path) routing as deployed in commodity switches,
//! and the bounded-width variants (8-way / 64-way) the paper evaluates.
//!
//! ECMP spreads flows across *shortest* paths only. On a fat-tree that is
//! plenty (all core paths have equal length); on Jellyfish it leaves most of
//! the capacity unused because many useful paths are one hop longer than the
//! shortest. This module enumerates equal-cost shortest paths and truncates
//! them to an ECMP path budget the way a switch's hash table would; the
//! width is [`RoutingScheme::Ecmp`](crate::path_table::RoutingScheme::Ecmp)'s
//! `way`.

use crate::Path;
use jellyfish_topology::bfs::UNREACHED;
use jellyfish_topology::{CsrGraph, NodeId};

/// Enumerates *all* shortest paths from `src` to `dst`, up to `limit` paths
/// (the enumeration is depth-first over the shortest-path DAG and stops once
/// `limit` paths have been produced).
///
/// `to_dst` holds every node's hop distance to `dst` ([`UNREACHED`] when
/// none): row `dst` of an all-pairs
/// [`DistanceMatrix`](jellyfish_topology::DistanceMatrix), since hop
/// distances are symmetric on the undirected snapshot.
pub fn all_shortest_paths(
    csr: &CsrGraph,
    to_dst: &[u32],
    src: NodeId,
    dst: NodeId,
    limit: usize,
) -> Vec<Path> {
    if limit == 0 {
        return Vec::new();
    }
    if src == dst {
        return vec![vec![src]];
    }
    if to_dst[src] == UNREACHED {
        return Vec::new();
    }
    let mut paths = Vec::new();
    let mut stack: Path = vec![src];
    dfs_shortest(csr, dst, to_dst, &mut stack, &mut paths, limit);
    paths
}

fn dfs_shortest(
    csr: &CsrGraph,
    dst: NodeId,
    to_dst: &[u32],
    stack: &mut Path,
    out: &mut Vec<Path>,
    limit: usize,
) {
    if out.len() >= limit {
        return;
    }
    let u = *stack.last().expect("stack never empty");
    if u == dst {
        out.push(stack.clone());
        return;
    }
    // CSR rows are sorted, so the enumeration order is deterministic.
    for &v in csr.neighbors(u) {
        let v = v as NodeId;
        if to_dst[v] == UNREACHED || to_dst[v] + 1 != to_dst[u] {
            continue;
        }
        stack.push(v);
        dfs_shortest(csr, dst, to_dst, stack, out, limit);
        stack.pop();
        if out.len() >= limit {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortest::all_pairs_distances;
    use jellyfish_topology::fattree::FatTree;
    use jellyfish_topology::JellyfishBuilder;

    /// ECMP paths from `src` to `dst`, reading `dst`'s all-pairs row.
    fn ecmp(csr: &CsrGraph, src: NodeId, dst: NodeId, limit: usize) -> Vec<Path> {
        all_shortest_paths(csr, all_pairs_distances(csr).row(dst), src, dst, limit)
    }

    #[test]
    fn all_shortest_paths_in_cycle() {
        let mut g = jellyfish_topology::Graph::new(6);
        for i in 0..6 {
            g.add_edge(i, (i + 1) % 6);
        }
        let g = CsrGraph::from_graph(&g);
        // Opposite nodes have exactly 2 shortest paths.
        let paths = ecmp(&g, 0, 3, 16);
        assert_eq!(paths.len(), 2);
        // Adjacent nodes have exactly 1.
        assert_eq!(ecmp(&g, 0, 1, 16).len(), 1);
    }

    #[test]
    fn limit_truncates_enumeration() {
        let ft = FatTree::new(4).unwrap();
        let g = &ft.topology().csr();
        // Two edge switches in different pods have (k/2)^2 = 4 shortest paths.
        let full = ecmp(g, 0, 2, 64);
        assert_eq!(full.len(), 4);
        let limited = ecmp(g, 0, 2, 2);
        assert_eq!(limited.len(), 2);
    }

    #[test]
    fn paths_are_shortest_and_valid() {
        let topo = JellyfishBuilder::new(40, 10, 6).seed(3).build().unwrap();
        let g = &topo.csr();
        let hops = all_pairs_distances(g).get(1, 30) as usize;
        let paths = ecmp(g, 1, 30, 64);
        assert!(!paths.is_empty());
        for p in &paths {
            assert_eq!(p.len(), hops + 1, "not a shortest path: {p:?}");
            assert!(crate::is_valid_simple_path(g, p));
        }
        // Distinct.
        let set: std::collections::HashSet<_> = paths.iter().collect();
        assert_eq!(set.len(), paths.len());
    }

    #[test]
    fn self_and_unreachable_pairs() {
        let mut g = jellyfish_topology::Graph::new(3);
        g.add_edge(0, 1);
        let g = CsrGraph::from_graph(&g);
        assert_eq!(ecmp(&g, 2, 2, 8), vec![vec![2]]);
        assert!(ecmp(&g, 0, 2, 8).is_empty());
        assert!(ecmp(&g, 0, 1, 0).is_empty());
    }

    #[test]
    fn ecmp_width_limits_path_set() {
        let ft = FatTree::new(6).unwrap();
        let g = &ft.topology().csr();
        // Cross-pod edge switches in a k=6 fat-tree have 9 shortest paths.
        let full = ecmp(g, 0, 4, 1024);
        assert_eq!(full.len(), 9);
        assert_eq!(ecmp(g, 0, 4, 8).len(), 8);
        assert_eq!(ecmp(g, 0, 4, 64).len(), 9);
    }
}
