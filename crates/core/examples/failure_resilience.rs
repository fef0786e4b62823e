//! Failure resilience: fail an increasing fraction of links in a Jellyfish
//! topology and a same-equipment fat-tree and compare how capacity degrades
//! (the paper's Figure 8 scenario).
//!
//! Run with: `cargo run --example failure_resilience`

use jellyfish::prelude::*;
use jellyfish::topology::failures::{fail_random_links, survivability};
use jellyfish::topology::TopoSpec;

fn main() {
    let k = 8; // fat-tree port count: 80 switches, 128 servers
    let ft = FatTree::new(k).expect("even k").into_topology();
    // Jellyfish on the same switches, carrying 25% more servers.
    let spec: TopoSpec = format!(
        "jellyfish:switches={},ports={k},servers_total={}",
        FatTree::switches_for_port_count(k),
        FatTree::servers_for_port_count(k) * 5 / 4
    )
    .parse()
    .expect("valid spec");
    let jf = spec.build(1).expect("same-equipment Jellyfish");

    println!("failed-links  jellyfish-throughput  fat-tree-throughput  jellyfish-connected  fat-tree-connected");
    for percent in [0u32, 5, 10, 15, 20, 25] {
        let frac = percent as f64 / 100.0;
        let mut row = vec![format!("{percent:>11}%")];
        let mut connectivity = Vec::new();
        for topo in [&jf, &ft] {
            let mut failed = topo.clone();
            fail_random_links(&mut failed, frac, 90 + percent as u64);
            let servers = ServerMap::new(&failed);
            let workload: TrafficSpec = "permutation".parse().expect("registered workload spec");
            let flows = workload.stream(&servers, 7).expect("permutation builds on any server map");
            let opts = ThroughputOptions { stop_at_full: false, ..Default::default() };
            let tput = normalized_throughput(&failed, &servers, flows, opts);
            row.push(format!("{:>20.3}", tput.normalized));
            connectivity.push(format!("{:>18.2}", survivability(&failed).server_fraction));
        }
        println!("{} {} {} {} {}", row[0], row[1], row[2], connectivity[0], connectivity[1]);
    }
    println!();
    println!(
        "jellyfish carries {} servers vs the fat-tree's {} on identical switches, and still\n\
         degrades gracefully: a random graph with failed links is just a slightly smaller random graph.",
        jf.total_servers(),
        ft.total_servers()
    );
}
