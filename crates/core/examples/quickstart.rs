//! Quickstart: build a Jellyfish topology, inspect its structure, and measure
//! its capacity under random-permutation traffic.
//!
//! Run with: `cargo run --example quickstart`

use jellyfish::prelude::*;
use jellyfish::topology::properties::path_length_stats;

fn main() {
    // RRG(60, 12, 8): 60 ToR switches with 12 ports, 8 towards the network,
    // 4 servers each — 240 servers total.
    let topo =
        JellyfishBuilder::new(60, 12, 8).seed(2012).build().expect("valid Jellyfish parameters");
    println!("topology       : {}", topo.name());
    println!("switches       : {}", topo.num_switches());
    println!("servers        : {}", topo.total_servers());
    println!("network links  : {}", topo.num_links());

    let stats = path_length_stats(&topo.csr());
    println!("mean path len  : {:.3} switch hops", stats.mean);
    println!("diameter       : {} switch hops", stats.diameter);

    // The paper's capacity metric: normalized throughput under a random
    // permutation with ideal (fluid) routing.
    let servers = ServerMap::new(&topo);
    // Workloads are spec strings resolved by the traffic registry (see
    // TRAFFIC.md); "permutation" reproduces the eager constructor exactly.
    let workload: TrafficSpec = "permutation".parse().expect("registered workload spec");
    let tm = workload.matrix(&servers, 7).expect("permutation builds on any server map");
    let result = normalized_throughput(&topo, &servers, &tm, ThroughputOptions::default());
    println!(
        "permutation throughput: {:.3} of NIC rate ({} switch-level commodities)",
        result.normalized, result.commodities
    );

    // Compare against the same-equipment fat-tree baseline.
    let ft = FatTree::new(8).expect("even port count");
    println!(
        "fat-tree(k=8) for reference: {} switches, {} servers, {} links",
        ft.topology().num_switches(),
        ft.topology().total_servers(),
        ft.topology().num_links()
    );
}
