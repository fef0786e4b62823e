//! Building simulated connections from a workload.
//!
//! A [`Connection`] is one server-level flow of the workload: its subflows
//! carry host-level source routes (src host → ToR switches → dst host), and
//! the transport policy says whether the subflows are independent TCP flows
//! or LIA-coupled MPTCP subflows.
//!
//! [`build_connections`] takes any flow iterator (a spec-built stream or a
//! resident `&TrafficMatrix`), computes candidate paths once per distinct
//! inter-rack switch pair, as one [`PathTable`] built in parallel, and then
//! assigns each flow's subflows from its pair's entry with a seed derived
//! from the flow's index.

use crate::net::SimNode;
use crate::routing::{assign_subflow_paths, TransportPolicy};
use jellyfish_routing::path_table::{PathTable, RoutingScheme};
use jellyfish_topology::CsrGraph;
use jellyfish_traffic::{Flow, ServerMap};

/// One simulated connection (one flow of the workload).
#[derive(Debug, Clone)]
pub struct Connection {
    /// Sending server (global id).
    pub src_server: usize,
    /// Receiving server (global id).
    pub dst_server: usize,
    /// Host-level forward path of every subflow (first entry the source
    /// host's sim node, last entry the destination host's sim node).
    pub subflow_paths: Vec<Vec<SimNode>>,
    /// Whether the subflows' congestion windows are LIA-coupled (MPTCP).
    pub coupled: bool,
}

/// Builds the connections for `flows` under the given routing scheme and
/// transport policy. Each flow's subflow seed is derived from its position
/// in `flows`, so the same flows in the same order give the same
/// connections whatever container they came in. Connections whose endpoints
/// are disconnected in the switch graph are skipped (they would get zero
/// throughput; the paper's topologies are always connected). Connections
/// are materialized (the simulator needs them all), so this is inherently
/// O(flows).
pub fn build_connections(
    csr: &CsrGraph,
    servers: &ServerMap,
    flows: impl IntoIterator<Item = Flow>,
    scheme: RoutingScheme,
    transport: TransportPolicy,
    seed: u64,
) -> Vec<Connection> {
    let num_switches = csr.num_nodes();
    let host_node = |server: usize| num_switches + server;
    let flows: Vec<Flow> = flows.into_iter().collect();
    let switches = |flow: &Flow| (servers.switch_of(flow.src), servers.switch_of(flow.dst));
    // The table drops intra-rack (self) pairs and computes each pair once.
    let table = PathTable::build(csr, scheme, flows.iter().map(switches));
    flows
        .iter()
        .enumerate()
        .filter_map(|(idx, flow)| {
            let (src_switch, dst_switch) = switches(flow);
            let switch_paths: Vec<Vec<usize>> = if src_switch == dst_switch {
                // Intra-rack traffic: every subflow just hops through the ToR.
                vec![vec![src_switch]; transport.subflow_count()]
            } else {
                assign_subflow_paths(
                    table.paths_for(src_switch, dst_switch),
                    scheme,
                    transport,
                    seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                )
            };
            if switch_paths.is_empty() {
                return None;
            }
            let subflow_paths: Vec<Vec<SimNode>> = switch_paths
                .into_iter()
                .map(|sp| {
                    let mut path = Vec::with_capacity(sp.len() + 2);
                    path.push(host_node(flow.src));
                    path.extend(sp);
                    path.push(host_node(flow.dst));
                    path
                })
                .collect();
            Some(Connection {
                src_server: flow.src,
                dst_server: flow.dst,
                subflow_paths,
                coupled: transport.coupled(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish_topology::{JellyfishBuilder, Topology};
    use jellyfish_traffic::TrafficMatrix;

    fn setup() -> (Topology, ServerMap, TrafficMatrix) {
        let topo = JellyfishBuilder::new(12, 8, 5).seed(2).build().unwrap();
        let servers = ServerMap::new(&topo);
        let tm = TrafficMatrix::random_permutation(&servers, 3);
        (topo, servers, tm)
    }

    #[test]
    fn one_connection_per_traffic_flow() {
        let (topo, servers, tm) = setup();
        let conns = build_connections(
            &topo.csr(),
            &servers,
            &tm,
            RoutingScheme::ksp8(),
            TransportPolicy::Mptcp { subflows: 8 },
            1,
        );
        assert_eq!(conns.len(), tm.flows().len());
        for c in &conns {
            assert_eq!(c.subflow_paths.len(), 8);
            assert!(c.coupled);
        }
    }

    #[test]
    fn paths_start_and_end_at_hosts() {
        let (topo, servers, tm) = setup();
        let csr = topo.csr();
        let conns = build_connections(
            &csr,
            &servers,
            &tm,
            RoutingScheme::ecmp8(),
            TransportPolicy::Tcp { flows: 1 },
            5,
        );
        let n_switches = topo.num_switches();
        for c in &conns {
            assert!(!c.coupled);
            for p in &c.subflow_paths {
                assert_eq!(p[0], n_switches + c.src_server);
                assert_eq!(*p.last().unwrap(), n_switches + c.dst_server);
                assert!(p.len() >= 3, "host-ToR-host at minimum");
                // Interior nodes are switches.
                for &n in &p[1..p.len() - 1] {
                    assert!(n < n_switches);
                }
                // Adjacent ToR hops are real links.
                for w in p[1..p.len() - 1].windows(2) {
                    assert!(csr.has_edge(w[0], w[1]));
                }
                // First and last switch are the endpoints' ToRs.
                assert_eq!(p[1], servers.switch_of(c.src_server));
                assert_eq!(p[p.len() - 2], servers.switch_of(c.dst_server));
            }
        }
    }

    #[test]
    fn intra_rack_pairs_route_through_the_tor_only() {
        let topo = JellyfishBuilder::new(4, 8, 3).seed(1).build().unwrap();
        let servers = ServerMap::new(&topo);
        // Servers 0 and 1 are both on switch 0.
        let conns = build_connections(
            &topo.csr(),
            &servers,
            [Flow { src: 0, dst: 1, demand: 1.0 }],
            RoutingScheme::ksp8(),
            TransportPolicy::Tcp { flows: 2 },
            1,
        );
        assert_eq!(conns.len(), 1);
        for p in &conns[0].subflow_paths {
            assert_eq!(p.len(), 3);
            assert_eq!(p[1], 0);
        }
    }

    #[test]
    fn tcp_flows_policy_creates_that_many_subflows() {
        let (topo, servers, tm) = setup();
        let csr = topo.csr();
        for flows in [1usize, 4, 8] {
            let conns = build_connections(
                &csr,
                &servers,
                &tm,
                RoutingScheme::ecmp8(),
                TransportPolicy::Tcp { flows },
                2,
            );
            assert!(conns.iter().all(|c| c.subflow_paths.len() == flows));
        }
    }
}
