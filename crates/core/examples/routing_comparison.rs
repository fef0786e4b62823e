//! Routing comparison: run the packet-level simulator on a Jellyfish
//! topology under the paper's §5 routing and congestion-control
//! combinations (ECMP vs 8-shortest-paths × TCP vs MPTCP), the Table 1
//! scenario at a laptop-friendly size.
//!
//! Run with: `cargo run --release --example routing_comparison`

use jellyfish::metrics::jain_fairness_index;
use jellyfish::prelude::*;
use jellyfish::sim::net::{LinkParams, Network};
use jellyfish::sim::workload::build_connections;
use jellyfish::topology::TopoSpec;

fn run(topo: &Topology, path: RoutingScheme, transport: TransportPolicy, seed: u64) -> (f64, f64) {
    let csr = topo.csr();
    let servers = ServerMap::new(topo);
    let workload: TrafficSpec = "permutation".parse().expect("registered workload spec");
    let flows = workload.stream(&servers, seed).expect("permutation builds on any server map");
    let conns = build_connections(&csr, &servers, flows, path, transport, seed);
    let net = Network::build(&csr, &servers, LinkParams::default());
    let config = SimConfig { duration: 8.0, warmup: 2.0, seed };
    let report = Simulator::new(net, conns, config).run();
    let mut throughputs: Vec<f64> =
        report.connections.iter().map(|c| c.normalized_throughput).collect();
    throughputs.sort_by(f64::total_cmp);
    let jain = jain_fairness_index(&throughputs);
    (report.mean_throughput(), jain)
}

fn main() {
    // A mildly oversubscribed Jellyfish: 40 switches with 10 ports, ~4.5
    // servers each (180 servers on 40×10 ports).
    let spec: TopoSpec =
        "jellyfish:switches=40,ports=10,servers_total=180".parse().expect("valid spec");
    let topo = spec.build(3).expect("valid parameters");
    println!(
        "topology: {} switches, {} servers, {} links",
        topo.num_switches(),
        topo.total_servers(),
        topo.num_links()
    );
    println!();
    println!("{:<18} {:<22} {:>12} {:>8}", "routing", "congestion control", "throughput", "Jain");
    let cases = [
        (RoutingScheme::ecmp8(), TransportPolicy::Tcp { flows: 1 }),
        (RoutingScheme::ecmp8(), TransportPolicy::Tcp { flows: 8 }),
        (RoutingScheme::ecmp8(), TransportPolicy::Mptcp { subflows: 8 }),
        (RoutingScheme::ksp8(), TransportPolicy::Tcp { flows: 1 }),
        (RoutingScheme::ksp8(), TransportPolicy::Tcp { flows: 8 }),
        (RoutingScheme::ksp8(), TransportPolicy::Mptcp { subflows: 8 }),
    ];
    for (path, transport) in cases {
        let (mean, jain) = run(&topo, path, transport, 11);
        println!(
            "{:<18} {:<22} {:>11.1}% {:>8.3}",
            path.label(),
            transport.label(),
            mean * 100.0,
            jain
        );
    }
    println!();
    println!("(release mode recommended; the discrete-event engine simulates every packet)");
}
