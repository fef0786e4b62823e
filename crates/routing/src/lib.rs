//! Routing machinery for the Jellyfish (NSDI 2012) reproduction.
//!
//! The paper's §5 finding is that standard ECMP does not expose enough path
//! diversity on a random graph — `k`-shortest-path routing (Yen's algorithm)
//! is needed to use Jellyfish's capacity. This crate provides:
//!
//! * [`shortest`] — all-pairs hop distances (from the one BFS kernel in
//!   `jellyfish_topology::bfs`) and one reusable, target-terminated weighted
//!   Dijkstra;
//! * [`yen`] — Yen's loopless k-shortest-paths algorithm (hand-rolled, no
//!   external graph crate);
//! * [`ecmp`] — enumeration of equal-cost shortest paths over the
//!   destination's distance row, truncated to the ECMP width;
//! * [`path_table`] — per source–destination path sets (the routing state a
//!   switch would hold), built in parallel, and the link path-count
//!   statistics behind Figure 9;
//! * [`incremental`] — row repair of an all-pairs distance matrix after a
//!   topology delta (the live-service churn path): each row is brought to
//!   the edited snapshot by a dynamic shortest-path update that touches only
//!   the distances that move, byte-identical to a full rebuild.
//!
//! Every entry point consumes an immutable
//! [`CsrGraph`](jellyfish_topology::CsrGraph) snapshot (take one with
//! [`Topology::csr`](jellyfish_topology::Topology::csr)); the mutable
//! `Graph` never crosses into this crate.
//!
//! Paths are switch-level: a path is a sequence of switch ids with
//! consecutive entries adjacent in the topology graph.
//!
//! ```
//! use jellyfish_topology::JellyfishBuilder;
//! use jellyfish_routing::yen::k_shortest_paths;
//!
//! let topo = JellyfishBuilder::new(30, 8, 5).seed(3).build().unwrap();
//! let csr = topo.csr();
//! let paths = k_shortest_paths(&csr, 0, 17, 8);
//! assert!(!paths.is_empty() && paths.len() <= 8);
//! // Paths are sorted by length and loop-free.
//! assert!(paths.windows(2).all(|w| w[0].len() <= w[1].len()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ecmp;
pub mod incremental;
pub mod path_table;
pub mod shortest;
pub mod yen;

/// A switch-level path: a sequence of switch ids, first entry the source,
/// last entry the destination, consecutive entries adjacent.
pub type Path = Vec<jellyfish_topology::NodeId>;

/// Checks that `path` is a valid simple path in the snapshot.
pub fn is_valid_simple_path(csr: &jellyfish_topology::CsrGraph, path: &Path) -> bool {
    if path.is_empty() {
        return false;
    }
    let mut seen = std::collections::HashSet::with_capacity(path.len());
    for &n in path {
        if n >= csr.num_nodes() || !seen.insert(n) {
            return false;
        }
    }
    path.windows(2).all(|w| csr.has_edge(w[0], w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish_topology::{CsrGraph, Graph};

    #[test]
    fn valid_simple_path_checks() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        let csr = CsrGraph::from_graph(&g);
        assert!(is_valid_simple_path(&csr, &vec![0, 1, 2, 3]));
        assert!(is_valid_simple_path(&csr, &vec![2]));
        assert!(!is_valid_simple_path(&csr, &vec![]));
        assert!(!is_valid_simple_path(&csr, &vec![0, 2]), "not adjacent");
        assert!(!is_valid_simple_path(&csr, &vec![0, 1, 0]), "loop");
        assert!(!is_valid_simple_path(&csr, &vec![0, 9]), "out of range");
    }
}
