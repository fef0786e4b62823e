//! Subflow path assignment for simulated connections.
//!
//! The paper's §5 combinations are ECMP (8-way or 64-way, shortest paths
//! only) versus Yen's 8-shortest-path routing, crossed with TCP (1 or 8
//! flows per server pair) and MPTCP (8 subflows). A [`RoutingScheme`] turns a
//! switch pair into its candidate path set (one
//! [`PathTable`](jellyfish_routing::path_table::PathTable) entry), and the
//! transport policy decides how many subflows a connection opens and how
//! they are distributed over those paths.

use jellyfish_routing::path_table::RoutingScheme;
use jellyfish_routing::Path;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Transport configuration of a server pair's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportPolicy {
    /// `flows` independent TCP connections between the pair (uncoupled).
    Tcp {
        /// Number of parallel TCP flows (1 or 8 in Table 1).
        flows: usize,
    },
    /// One MPTCP connection with `subflows` LIA-coupled subflows.
    Mptcp {
        /// Number of subflows (8 in Table 1).
        subflows: usize,
    },
}

impl TransportPolicy {
    /// Number of subflows a connection opens.
    pub fn subflow_count(&self) -> usize {
        match *self {
            TransportPolicy::Tcp { flows } => flows.max(1),
            TransportPolicy::Mptcp { subflows } => subflows.max(1),
        }
    }

    /// Whether the subflows' window increases are LIA-coupled.
    pub fn coupled(&self) -> bool {
        matches!(self, TransportPolicy::Mptcp { .. })
    }

    /// Label for reports (matches the paper's Table 1 rows).
    pub fn label(&self) -> String {
        match *self {
            TransportPolicy::Tcp { flows } => {
                format!("TCP {flows} flow{}", if flows == 1 { "" } else { "s" })
            }
            TransportPolicy::Mptcp { subflows } => format!("MPTCP {subflows} subflows"),
        }
    }
}

/// Assigns one of a switch pair's `candidates` (its path-table entry under
/// `scheme`) to each subflow of a connection.
///
/// * Under ECMP, every subflow is hashed independently onto one of the
///   equal-cost shortest paths (distinct subflows may collide on the same
///   path — exactly the effect that hurts single-flow TCP in Table 1).
/// * Under k-shortest-path routing, MPTCP-style spreading places subflow `i`
///   on path `i mod |paths|`, while independent TCP flows are hashed.
pub fn assign_subflow_paths(
    candidates: &[Path],
    scheme: RoutingScheme,
    transport: TransportPolicy,
    pair_seed: u64,
) -> Vec<Path> {
    if candidates.is_empty() {
        return Vec::new();
    }
    let n = transport.subflow_count();
    (0..n)
        .map(|i| {
            let idx = match (scheme, transport) {
                (RoutingScheme::KShortestPaths { .. }, TransportPolicy::Mptcp { .. }) => {
                    i % candidates.len()
                }
                _ => {
                    let mut hasher = DefaultHasher::new();
                    (pair_seed, i as u64).hash(&mut hasher);
                    (hasher.finish() as usize) % candidates.len()
                }
            };
            candidates[idx].clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish_routing::path_table::PathTable;
    use jellyfish_routing::shortest::all_pairs_distances;
    use jellyfish_topology::{CsrGraph, JellyfishBuilder, NodeId};

    fn snapshot() -> CsrGraph {
        JellyfishBuilder::new(30, 10, 6).seed(4).build().unwrap().csr()
    }

    /// The pair's path-table entry under `scheme`.
    fn candidates(csr: &CsrGraph, scheme: RoutingScheme, src: NodeId, dst: NodeId) -> Vec<Path> {
        PathTable::build(csr, scheme, [(src, dst)]).paths_for(src, dst).to_vec()
    }

    #[test]
    fn labels() {
        assert_eq!(TransportPolicy::Tcp { flows: 1 }.label(), "TCP 1 flow");
        assert_eq!(TransportPolicy::Tcp { flows: 8 }.label(), "TCP 8 flows");
        assert_eq!(TransportPolicy::Mptcp { subflows: 8 }.label(), "MPTCP 8 subflows");
    }

    #[test]
    fn subflow_counts_and_coupling() {
        assert_eq!(TransportPolicy::Tcp { flows: 8 }.subflow_count(), 8);
        assert_eq!(TransportPolicy::Tcp { flows: 0 }.subflow_count(), 1);
        assert_eq!(TransportPolicy::Mptcp { subflows: 8 }.subflow_count(), 8);
        assert!(!TransportPolicy::Tcp { flows: 8 }.coupled());
        assert!(TransportPolicy::Mptcp { subflows: 8 }.coupled());
    }

    #[test]
    fn mptcp_over_ksp_spreads_across_distinct_paths() {
        let csr = snapshot();
        let ksp = candidates(&csr, RoutingScheme::ksp8(), 0, 15);
        let paths = assign_subflow_paths(
            &ksp,
            RoutingScheme::ksp8(),
            TransportPolicy::Mptcp { subflows: 8 },
            7,
        );
        assert_eq!(paths.len(), 8);
        let distinct: std::collections::HashSet<_> = paths.iter().collect();
        // With 8 candidate paths available, every subflow gets its own path.
        assert_eq!(distinct.len(), ksp.len().min(8));
    }

    #[test]
    fn ecmp_uses_only_shortest_paths() {
        let g = &snapshot();
        let hops = all_pairs_distances(g).get(0, 15) as usize;
        let ecmp = candidates(g, RoutingScheme::ecmp8(), 0, 15);
        let paths = assign_subflow_paths(
            &ecmp,
            RoutingScheme::ecmp8(),
            TransportPolicy::Tcp { flows: 8 },
            3,
        );
        assert_eq!(paths.len(), 8);
        for p in &paths {
            assert_eq!(p.len(), hops + 1, "ECMP must not use longer paths");
        }
    }

    #[test]
    fn ksp_can_use_longer_paths() {
        let g = &snapshot();
        let candidates = candidates(g, RoutingScheme::ksp8(), 0, 15);
        let sp_len = candidates[0].len();
        assert!(
            candidates.iter().any(|p| p.len() > sp_len),
            "k-shortest paths should include longer-than-shortest paths on a random graph"
        );
    }

    #[test]
    fn assignment_is_deterministic_per_seed() {
        let csr = snapshot();
        let ecmp = candidates(&csr, RoutingScheme::ecmp8(), 2, 20);
        let assign = || {
            assign_subflow_paths(
                &ecmp,
                RoutingScheme::ecmp8(),
                TransportPolicy::Tcp { flows: 4 },
                9,
            )
        };
        assert_eq!(assign(), assign());
    }

    #[test]
    fn empty_when_unreachable() {
        let mut g = jellyfish_topology::Graph::new(3);
        g.add_edge(0, 1);
        let csr = CsrGraph::from_graph(&g);
        let ecmp = candidates(&csr, RoutingScheme::ecmp8(), 0, 2);
        assert!(ecmp.is_empty());
        let paths = assign_subflow_paths(
            &ecmp,
            RoutingScheme::ecmp8(),
            TransportPolicy::Tcp { flows: 1 },
            0,
        );
        assert!(paths.is_empty());
    }
}
