//! Three-level k-ary fat-tree generator (Al-Fares et al., SIGCOMM 2008),
//! the paper's primary baseline.
//!
//! A fat-tree built from `k`-port switches (k even) has:
//!
//! * `k` pods, each with `k/2` edge switches and `k/2` aggregation switches;
//! * `(k/2)^2` core switches;
//! * `k^3/4` servers (each edge switch hosts `k/2` servers);
//! * full bisection bandwidth.
//!
//! The total switch count is `5k^2/4` and every switch uses all `k` ports,
//! which is exactly the "same equipment" accounting the paper uses when
//! comparing against Jellyfish.

use crate::graph::Graph;
use crate::topology::{SwitchKind, Topology, TopologyError};

/// A generated fat-tree: its [`Topology`] and port count `k`. Switches are
/// numbered edge (pod-major), then aggregation (pod-major), then core.
#[derive(Debug, Clone)]
pub struct FatTree {
    topology: Topology,
    k: usize,
}

impl FatTree {
    /// Builds a 3-level fat-tree from `k`-port switches. `k` must be even and
    /// at least 2.
    pub fn new(k: usize) -> Result<Self, TopologyError> {
        if k < 2 || !k.is_multiple_of(2) {
            return Err(TopologyError::InvalidParameters(format!(
                "fat-tree requires an even port count >= 2, got {k}"
            )));
        }
        let half = k / 2;
        let num_edge = k * half; // k pods × k/2 edge switches
        let num_agg = k * half;
        let num_core = half * half;
        let n = num_edge + num_agg + num_core;

        // Node numbering: edge switches first (pod-major), then aggregation
        // (pod-major), then core.
        let edge_id = |pod: usize, idx: usize| pod * half + idx;
        let agg_id = |pod: usize, idx: usize| num_edge + pod * half + idx;
        let core_id = |i: usize, j: usize| num_edge + num_agg + i * half + j;

        let mut g = Graph::new(n);
        // Edge <-> aggregation: complete bipartite graph within each pod.
        for pod in 0..k {
            for e in 0..half {
                for a in 0..half {
                    g.add_edge(edge_id(pod, e), agg_id(pod, a));
                }
            }
        }
        // Aggregation <-> core: aggregation switch `a` of every pod connects
        // to core switches in "row" a (cores core_id(a, 0..half)).
        for pod in 0..k {
            for a in 0..half {
                for j in 0..half {
                    g.add_edge(agg_id(pod, a), core_id(a, j));
                }
            }
        }

        let mut servers = vec![0usize; n];
        let mut kinds = vec![SwitchKind::Core; n];
        for pod in 0..k {
            for e in 0..half {
                let id = edge_id(pod, e);
                servers[id] = half;
                kinds[id] = SwitchKind::TopOfRack;
            }
            for a in 0..half {
                kinds[agg_id(pod, a)] = SwitchKind::Aggregation;
            }
        }

        let topology =
            Topology::from_parts(g, vec![k; n], servers, kinds, format!("fat-tree(k={k})"));
        debug_assert!(topology.check_invariants().is_ok());
        Ok(FatTree { topology, k })
    }

    /// The switch port count `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Consumes the fat-tree, returning the topology.
    pub fn into_topology(self) -> Topology {
        self.topology
    }

    /// Number of servers in a full fat-tree built from `k`-port switches:
    /// `k^3 / 4`.
    pub fn servers_for_port_count(k: usize) -> usize {
        k * k * k / 4
    }

    /// Number of switches in a full fat-tree built from `k`-port switches:
    /// `5 k^2 / 4`.
    pub fn switches_for_port_count(k: usize) -> usize {
        5 * k * k / 4
    }

    /// Total port count (the paper's equipment-cost measure): `5 k^3 / 4`.
    pub fn ports_for_port_count(k: usize) -> usize {
        5 * k * k * k / 4
    }

    /// Fraction of switch-to-switch links that stay within a pod when the
    /// fat-tree is laid out one-pod-per-container (§6.3): `0.5 (1 + 1/k)`.
    pub fn local_link_fraction(k: usize) -> f64 {
        0.5 * (1.0 + 1.0 / k as f64)
    }
}

/// Builds a fat-tree and a same-equipment Jellyfish topology: identical
/// switch count and port count, with the requested number of servers spread
/// as evenly as possible across all switches.
///
/// This is the comparison setup used throughout the paper ("using the same
/// switching equipment"). Returns `(fat_tree, jellyfish)`.
pub fn same_equipment_pair(
    k: usize,
    jellyfish_servers: usize,
    seed: u64,
) -> Result<(FatTree, Topology), TopologyError> {
    let ft = FatTree::new(k)?;
    let n = FatTree::switches_for_port_count(k);
    if jellyfish_servers > n * (k - 1) {
        return Err(TopologyError::InvalidParameters(format!(
            "cannot attach {jellyfish_servers} servers to {n} switches with {k} ports"
        )));
    }
    // Spread servers as evenly as possible; each switch keeps the rest of its
    // ports for the network.
    let base = jellyfish_servers / n;
    let extra = jellyfish_servers % n;
    let ports: Vec<usize> = vec![k; n];
    let servers_per: Vec<usize> = (0..n).map(|i| base + usize::from(i < extra)).collect();
    let degrees: Vec<usize> = (0..n).map(|i| k - servers_per[i]).collect();
    let jf = crate::rrg::build_heterogeneous(&ports, &degrees, seed)?
        .with_name(format!("jellyfish-same-equipment(k={k})"));
    Ok((ft, jf))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k4_fat_tree_structure() {
        let ft = FatTree::new(4).unwrap();
        let t = ft.topology();
        assert_eq!(t.num_switches(), 20);
        let layer = |kind| t.graph().nodes().filter(|&v| t.kind(v) == kind).count();
        assert_eq!(layer(SwitchKind::TopOfRack), 8);
        assert_eq!(layer(SwitchKind::Aggregation), 8);
        assert_eq!(layer(SwitchKind::Core), 4);
        assert_eq!(t.total_servers(), 16);
        // Every switch uses exactly k ports.
        for v in t.graph().nodes() {
            assert_eq!(t.graph().degree(v) + t.servers(v), 4);
            assert_eq!(t.free_ports(v), 0);
        }
        assert!(t.graph().is_connected());
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn counts_match_formulas() {
        for k in [4usize, 6, 8, 14] {
            let ft = FatTree::new(k).unwrap();
            assert_eq!(ft.topology().num_switches(), FatTree::switches_for_port_count(k));
            assert_eq!(ft.topology().total_servers(), FatTree::servers_for_port_count(k));
            assert_eq!(ft.topology().total_ports(), FatTree::ports_for_port_count(k));
            // Switch-to-switch links: k^3/2 per the paper (§4.1).
            assert_eq!(ft.topology().num_links(), k * k * k / 2);
        }
    }

    #[test]
    fn paper_example_sizes() {
        // §1: full-bisection fat-trees exist at 3456, 8192, 27648, 65536
        // servers for 24, 32, 48, 64-port switches.
        assert_eq!(FatTree::servers_for_port_count(24), 3456);
        assert_eq!(FatTree::servers_for_port_count(32), 8192);
        assert_eq!(FatTree::servers_for_port_count(48), 27648);
        assert_eq!(FatTree::servers_for_port_count(64), 65536);
        // Fig. 1(c): the 686-server fat-tree uses k=14.
        assert_eq!(FatTree::servers_for_port_count(14), 686);
    }

    #[test]
    fn odd_or_tiny_k_rejected() {
        assert!(FatTree::new(3).is_err());
        assert!(FatTree::new(0).is_err());
        assert!(FatTree::new(5).is_err());
    }

    #[test]
    fn diameter_is_six_hops_server_to_server() {
        // Switch-level diameter of a 3-level fat-tree is 4 (edge-agg-core-agg-edge),
        // i.e. 6 server-to-server as the paper counts server links.
        let ft = FatTree::new(4).unwrap();
        let stats = crate::properties::path_length_stats(&ft.topology().csr());
        assert_eq!(stats.diameter, 4);
    }

    #[test]
    fn core_switches_reach_every_pod() {
        let ft = FatTree::new(6).unwrap();
        let t = ft.topology();
        // Aggregation switches follow the 18 edge switches, 3 per pod.
        let pod_of_aggregation = |v: usize| {
            assert_eq!(t.kind(v), SwitchKind::Aggregation, "core switch neighbour {v}");
            (v - 18) / 3
        };
        for c in t.graph().nodes().filter(|&v| t.kind(v) == SwitchKind::Core) {
            let mut pods: Vec<usize> =
                t.graph().neighbors(c).iter().map(|&v| pod_of_aggregation(v)).collect();
            pods.sort_unstable();
            pods.dedup();
            assert_eq!(pods.len(), 6, "core switch {c} does not reach all pods");
        }
    }

    #[test]
    fn kinds_assigned_per_layer() {
        let ft = FatTree::new(4).unwrap();
        let t = ft.topology();
        // Edge switches 0..8 (pod-major), aggregation 8..16, core 16..20.
        for v in t.graph().nodes() {
            let (kind, servers) = match v {
                0..=7 => (SwitchKind::TopOfRack, 2),
                8..=15 => (SwitchKind::Aggregation, 0),
                _ => (SwitchKind::Core, 0),
            };
            assert_eq!(t.kind(v), kind, "switch {v}");
            assert_eq!(t.servers(v), servers, "switch {v}");
        }
    }

    #[test]
    fn local_link_fraction_formula() {
        assert!((FatTree::local_link_fraction(4) - 0.625).abs() < 1e-12);
        assert!((FatTree::local_link_fraction(14) - 0.5 * (1.0 + 1.0 / 14.0)).abs() < 1e-12);
        // Paper §6.3 quotes 53.6% for the evaluated fat-tree (k=14).
        assert!((FatTree::local_link_fraction(14) - 0.536).abs() < 2e-3);
    }

    #[test]
    fn same_equipment_pair_matches_ports_and_switches() {
        let (ft, jf) = same_equipment_pair(6, 80, 3).unwrap();
        assert_eq!(ft.topology().num_switches(), jf.num_switches());
        assert_eq!(ft.topology().total_ports(), jf.total_ports());
        assert_eq!(jf.total_servers(), 80);
        assert!(jf.graph().is_connected());
    }

    #[test]
    fn same_equipment_pair_rejects_too_many_servers() {
        assert!(same_equipment_pair(4, 1000, 0).is_err());
    }
}
