//! Expansion planning: grow a Jellyfish data center rack by rack, tracking
//! how much rewiring each step needs and how capacity and path lengths hold
//! up — the paper's core operational story (§4.2).
//!
//! Run with: `cargo run --example expansion_planning`

use jellyfish::prelude::*;
use jellyfish::topology::expansion::add_switch;
use jellyfish::topology::properties::path_length_stats;

fn main() {
    // Start with a modest cluster: 20 racks of 12-port switches, 4 servers each.
    let mut topo = JellyfishBuilder::new(20, 12, 8).seed(42).build().expect("valid parameters");
    println!("initial: {} racks, {} servers", topo.num_switches(), topo.total_servers());
    println!();
    println!("stage  racks  servers  cables-moved  mean-path  diameter  permutation-throughput");

    for stage in 1..=6 {
        // Add 5 racks (each: one 12-port ToR, 4 servers) per stage.
        let mut cable_ops = 0;
        for i in 0..5 {
            let report = add_switch(&mut topo, 12, 4, stage * 100 + i).expect("expansion succeeds");
            cable_ops += report.cable_operations();
        }
        let stats = path_length_stats(&topo.csr());
        let servers = ServerMap::new(&topo);
        let workload: TrafficSpec = "permutation".parse().expect("registered workload spec");
        let flows = workload.stream(&servers, stage).expect("permutation builds on any server map");
        let tput = normalized_throughput(&topo, &servers, flows, ThroughputOptions::default());
        println!(
            "{:>5}  {:>5}  {:>7}  {:>12}  {:>9.3}  {:>8}  {:>6.3}",
            stage,
            topo.num_switches(),
            topo.total_servers(),
            cable_ops,
            stats.mean,
            stats.diameter,
            tput.normalized
        );
    }

    println!();
    println!(
        "note: every stage only re-plugs cables proportional to the ports being added,\n\
         and throughput stays at (or near) full — the property that rigid topologies lack."
    );
}
