//! A fluid (flow-level) engine: max-min fair rate allocation over the
//! subflows' fixed paths.
//!
//! Every subflow is treated as a fluid flow pinned to its path; link
//! capacities include the host access links, so a connection's aggregate
//! rate can never exceed its NIC. The allocation is the classic max-min fair
//! water-filling: repeatedly find the most-constrained link, give every
//! unfrozen flow crossing it an equal share of the remaining capacity, and
//! freeze those flows.
//!
//! Links are assigned dense indices in first-seen order over the subflow
//! paths, and the water-filling loop scans flat vectors in index order —
//! ties between equally constrained links always break the same way, so the
//! allocation is deterministic across runs and platforms (the previous
//! `HashMap` formulation could break ties by hasher state).
//!
//! This is a good approximation of many long-lived TCP flows sharing a
//! network (and a slightly optimistic approximation of MPTCP's resource
//! pooling); the packet engine in [`crate::engine`] is the ground truth the
//! fluid engine is cross-checked against in the integration tests. Figures
//! that sweep hundreds of topology sizes use this engine.

use crate::net::SimNode;
use crate::workload::Connection;
use std::collections::HashMap;

/// Result of a fluid allocation.
#[derive(Debug, Clone)]
pub struct FluidReport {
    /// Per-connection normalized throughput (fraction of the NIC rate).
    pub throughputs: Vec<f64>,
    /// Per-directed-link utilization in `[0, 1]`, one entry per link the
    /// subflow paths cross, in the order the paths first cross them.
    pub link_utilization: Vec<((SimNode, SimNode), f64)>,
}

impl FluidReport {
    /// Mean normalized throughput across connections.
    pub fn mean_throughput(&self) -> f64 {
        if self.throughputs.is_empty() {
            return 0.0;
        }
        self.throughputs.iter().sum::<f64>() / self.throughputs.len() as f64
    }
}

/// Computes the max-min fair allocation for the given connections. All links
/// a subflow path traverses (switch-to-switch and host access) have capacity
/// 1.0 (one NIC rate).
pub fn max_min_fair_allocation(connections: &[Connection]) -> FluidReport {
    // Dense link ids in first-seen order; flows hold link-id lists.
    let mut link_ids: HashMap<(SimNode, SimNode), usize> = HashMap::new();
    let mut link_keys: Vec<(SimNode, SimNode)> = Vec::new();
    struct FluidFlow {
        conn: usize,
        links: Vec<usize>,
        rate: f64,
        frozen: bool,
    }
    let mut flows: Vec<FluidFlow> = Vec::new();
    for (ci, c) in connections.iter().enumerate() {
        for path in &c.subflow_paths {
            let links: Vec<usize> = path
                .windows(2)
                .map(|w| {
                    *link_ids.entry((w[0], w[1])).or_insert_with(|| {
                        link_keys.push((w[0], w[1]));
                        link_keys.len() - 1
                    })
                })
                .collect();
            flows.push(FluidFlow { conn: ci, links, rate: 0.0, frozen: false });
        }
    }
    let num_links = link_keys.len();
    let mut crossing: Vec<Vec<usize>> = vec![Vec::new(); num_links];
    for (fi, f) in flows.iter().enumerate() {
        for &l in &f.links {
            crossing[l].push(fi);
        }
    }

    // Water-filling over flat vectors, scanning links in id order.
    let mut remaining = vec![1.0f64; num_links];
    loop {
        let mut bottleneck: Option<(usize, f64)> = None;
        for (link, flow_ids) in crossing.iter().enumerate() {
            let unfrozen = flow_ids.iter().filter(|&&fi| !flows[fi].frozen).count();
            if unfrozen == 0 {
                continue;
            }
            let share = remaining[link] / unfrozen as f64;
            if bottleneck.is_none_or(|(_, s)| share < s) {
                bottleneck = Some((link, share));
            }
        }
        let Some((link, share)) = bottleneck else {
            break;
        };
        // Freeze every unfrozen flow crossing the bottleneck at the share.
        let to_freeze: Vec<usize> =
            crossing[link].iter().copied().filter(|&fi| !flows[fi].frozen).collect();
        for fi in to_freeze {
            flows[fi].frozen = true;
            flows[fi].rate = share;
            for &l in &flows[fi].links {
                remaining[l] -= share;
            }
        }
    }

    // Aggregate subflow rates per connection; the host access links already
    // cap the aggregate at 1.0, but clamp for numeric safety.
    let mut throughputs = vec![0.0f64; connections.len()];
    for f in &flows {
        throughputs[f.conn] += f.rate;
    }
    for t in &mut throughputs {
        *t = t.min(1.0);
    }
    let link_utilization = link_keys
        .iter()
        .enumerate()
        .map(|(l, &key)| (key, (1.0 - remaining[l]).clamp(0.0, 1.0)))
        .collect();
    FluidReport { throughputs, link_utilization }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::TransportPolicy;
    use crate::workload::build_connections;
    use jellyfish_routing::path_table::RoutingScheme;
    use jellyfish_topology::{Graph, JellyfishBuilder, Topology};
    use jellyfish_traffic::{Flow, ServerMap, TrafficMatrix};

    fn two_switch_topo() -> Topology {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        Topology::homogeneous(g, 4, 2)
    }

    #[test]
    fn single_flow_gets_full_nic() {
        let topo = two_switch_topo();
        let servers = ServerMap::new(&topo);
        let flows = vec![Flow { src: 0, dst: 2, demand: 1.0 }];
        let conns = build_connections(
            &topo.csr(),
            &servers,
            flows,
            RoutingScheme::ecmp8(),
            TransportPolicy::Tcp { flows: 1 },
            1,
        );
        let report = max_min_fair_allocation(&conns);
        assert_eq!(report.throughputs.len(), 1);
        assert!((report.throughputs[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_flows_share_bottleneck_equally() {
        let topo = two_switch_topo();
        let servers = ServerMap::new(&topo);
        let flows =
            vec![Flow { src: 0, dst: 2, demand: 1.0 }, Flow { src: 1, dst: 3, demand: 1.0 }];
        let conns = build_connections(
            &topo.csr(),
            &servers,
            flows,
            RoutingScheme::ecmp8(),
            TransportPolicy::Tcp { flows: 1 },
            1,
        );
        let report = max_min_fair_allocation(&conns);
        assert!((report.throughputs[0] - 0.5).abs() < 1e-9);
        assert!((report.throughputs[1] - 0.5).abs() < 1e-9);
        // The inter-switch link is fully utilized.
        let (_, switch_link) =
            report.link_utilization.iter().find(|(link, _)| *link == (0, 1)).unwrap();
        assert!((switch_link - 1.0).abs() < 1e-9);
        assert!((report.mean_throughput() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn multiple_subflows_cannot_exceed_the_nic() {
        let topo = two_switch_topo();
        let servers = ServerMap::new(&topo);
        let flows = vec![Flow { src: 0, dst: 2, demand: 1.0 }];
        let conns = build_connections(
            &topo.csr(),
            &servers,
            flows,
            RoutingScheme::ksp8(),
            TransportPolicy::Mptcp { subflows: 8 },
            1,
        );
        let report = max_min_fair_allocation(&conns);
        assert!(report.throughputs[0] <= 1.0 + 1e-9);
        assert!(report.throughputs[0] > 0.99);
    }

    #[test]
    fn ksp_reaches_capacity_that_ecmp_leaves_idle() {
        // The §5 / Figure 9 effect in fluid form: under ECMP (shortest paths
        // only) a sizeable share of the inter-switch links carries no traffic
        // at all, while 8-shortest-path routing touches nearly every link and
        // no connection is left starved.
        let topo = JellyfishBuilder::new(20, 9, 4).seed(6).build().unwrap();
        let servers = ServerMap::new(&topo);
        let csr = topo.csr();
        let tm = TrafficMatrix::random_permutation(&servers, 3);
        let ecmp = build_connections(
            &csr,
            &servers,
            &tm,
            RoutingScheme::ecmp8(),
            TransportPolicy::Tcp { flows: 1 },
            2,
        );
        let ksp = build_connections(
            &csr,
            &servers,
            &tm,
            RoutingScheme::ksp8(),
            TransportPolicy::Mptcp { subflows: 8 },
            2,
        );
        let ecmp_report = max_min_fair_allocation(&ecmp);
        let ksp_report = max_min_fair_allocation(&ksp);
        let switch_links_used = |r: &FluidReport| {
            r.link_utilization
                .iter()
                .filter(|&&((u, v), util)| u < 20 && v < 20 && util > 1e-9)
                .count()
        };
        assert!(
            switch_links_used(&ksp_report) > switch_links_used(&ecmp_report),
            "ksp touches {} switch links vs ecmp {}",
            switch_links_used(&ksp_report),
            switch_links_used(&ecmp_report)
        );
        // No connection is starved under either scheme.
        assert!(ksp_report.throughputs.iter().all(|&t| t > 0.0));
        assert!(ecmp_report.throughputs.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn empty_connection_list() {
        let report = max_min_fair_allocation(&[]);
        assert!(report.throughputs.is_empty());
        assert_eq!(report.mean_throughput(), 0.0);
    }

    #[test]
    fn utilization_bounded() {
        let topo = JellyfishBuilder::new(15, 8, 4).seed(9).build().unwrap();
        let servers = ServerMap::new(&topo);
        let tm = TrafficMatrix::random_permutation(&servers, 5);
        let conns = build_connections(
            &topo.csr(),
            &servers,
            &tm,
            RoutingScheme::ksp8(),
            TransportPolicy::Tcp { flows: 8 },
            4,
        );
        let report = max_min_fair_allocation(&conns);
        for &(link, u) in &report.link_utilization {
            assert!((0.0..=1.0 + 1e-9).contains(&u), "link {link:?} utilization {u}");
        }
        for &t in &report.throughputs {
            assert!(t > 0.0 && t <= 1.0 + 1e-9);
        }
    }
}
