//! "Servers at full throughput" binary search — the paper's §4 methodology.
//!
//! To compare Jellyfish against a fat-tree "using the same switching
//! equipment", the paper attaches an increasing number of servers to the
//! Jellyfish switches and finds, by binary search, the largest server count
//! for which random-permutation traffic is satisfied at full rate:
//! each probe samples three random permutation matrices and requires full
//! capacity on all of them; the final answer is verified on ten more.

use crate::experiment::catalog::{jellyfish_total_spec, permutation};
use jellyfish_flow::throughput::{normalized_throughput, ThroughputOptions};
use jellyfish_topology::Topology;
use jellyfish_traffic::ServerMap;

/// Options of the capacity search.
#[derive(Debug, Clone, Copy)]
pub struct CapacitySearchOptions {
    /// Number of random permutations sampled at each binary-search probe
    /// (the paper uses 3).
    pub probe_samples: usize,
    /// Number of additional permutations used to verify the final answer
    /// (the paper uses 10).
    pub verify_samples: usize,
    /// RNG seed (topology wiring per probe and traffic sampling derive from it).
    pub seed: u64,
}

impl Default for CapacitySearchOptions {
    fn default() -> Self {
        CapacitySearchOptions { probe_samples: 3, verify_samples: 10, seed: 1 }
    }
}

/// Result of a capacity search.
#[derive(Debug, Clone, Copy)]
pub struct CapacityResult {
    /// Largest server count supported at full throughput.
    pub servers: usize,
    /// Whether the verification pass (additional samples) also succeeded.
    pub verified: bool,
}

/// Checks whether a topology supports full throughput on `samples` random
/// permutations.
pub fn supports_full_throughput(
    topo: &Topology,
    samples: usize,
    opts: ThroughputOptions,
    seed: u64,
) -> bool {
    let servers = ServerMap::new(topo);
    for i in 0..samples.max(1) {
        let workload = permutation(&servers, seed.wrapping_add(i as u64));
        let result = normalized_throughput(topo, &servers, workload, opts);
        if !result.at_full_throughput() {
            return false;
        }
    }
    true
}

/// Binary-searches the largest number of servers a Jellyfish built from
/// `switches` switches with `ports` ports each can support at full
/// throughput under random-permutation traffic.
///
/// The search range is `[switches, switches × (ports − 1)]` (at least one
/// server per switch, at least one network port per switch). Every check
/// runs the solver with [`ThroughputOptions::default`], which stops once
/// λ ≥ 1 is certified: only full throughput matters here. Each probe
/// builds `jellyfish:switches=..,ports=..,servers_total=..`, which spreads
/// the servers as evenly as possible.
pub fn servers_at_full_throughput(
    switches: usize,
    ports: usize,
    opts: CapacitySearchOptions,
) -> CapacityResult {
    let mut lo = switches; // one server per switch is assumed feasible
    let mut hi = switches * (ports - 1);
    let feasible = |servers: usize, salt: u64| -> bool {
        match jellyfish_total_spec(switches, ports, servers).build(opts.seed ^ salt) {
            Ok(topo) => supports_full_throughput(
                &topo,
                opts.probe_samples,
                ThroughputOptions::default(),
                opts.seed.wrapping_mul(31).wrapping_add(salt),
            ),
            Err(_) => false,
        }
    };
    if !feasible(lo, 0) {
        return CapacityResult { servers: 0, verified: false };
    }
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if feasible(mid, mid as u64) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    // Verification pass on more samples, as the paper does.
    let verified = match jellyfish_total_spec(switches, ports, lo).build(opts.seed ^ 0xFACE) {
        Ok(topo) => supports_full_throughput(
            &topo,
            opts.verify_samples,
            ThroughputOptions::default(),
            opts.seed.wrapping_add(0x5EED),
        ),
        Err(_) => false,
    };
    CapacityResult { servers: lo, verified }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish_topology::fattree::FatTree;

    fn fast_opts() -> CapacitySearchOptions {
        CapacitySearchOptions { probe_samples: 1, verify_samples: 2, seed: 3 }
    }

    #[test]
    fn servers_total_spec_spreads_evenly() {
        let topo = jellyfish_total_spec(10, 8, 23).build(1).unwrap();
        assert_eq!(topo.total_servers(), 23);
        for i in 0..10 {
            let s = topo.servers(i);
            assert!(s == 2 || s == 3, "switch {i} has {s} servers");
        }
        assert!(topo.graph().is_connected());
        assert!(jellyfish_total_spec(4, 4, 100).build(1).is_err());
    }

    #[test]
    fn fat_tree_supports_its_own_servers() {
        let ft = FatTree::new(4).unwrap().into_topology();
        assert!(supports_full_throughput(&ft, 2, ThroughputOptions::default(), 7));
    }

    #[test]
    fn capacity_search_result_is_feasible_and_within_bounds() {
        // The binary search must return a server count that (a) respects the
        // port budget and (b) really does support full throughput when the
        // topology is rebuilt at that size. (The fat-tree comparison itself —
        // the paper's §4.1 headline — runs at k=6 in the cross-crate
        // integration tests, where the sizes are meaningful.)
        let switches = 20;
        let ports = 6;
        let result = servers_at_full_throughput(switches, ports, fast_opts());
        assert!(result.servers >= switches, "at least one server per switch");
        assert!(result.servers <= switches * (ports - 1));
        let topo = jellyfish_total_spec(switches, ports, result.servers)
            .build(fast_opts().seed ^ result.servers as u64)
            .unwrap();
        assert!(supports_full_throughput(
            &topo,
            1,
            ThroughputOptions::default(),
            fast_opts().seed.wrapping_mul(31).wrapping_add(result.servers as u64)
        ));
    }

    #[test]
    fn capacity_is_monotone_in_port_count() {
        let small = servers_at_full_throughput(12, 5, fast_opts());
        let large = servers_at_full_throughput(12, 8, fast_opts());
        assert!(large.servers >= small.servers);
        assert!(small.servers >= 12, "at least one server per switch");
    }

    #[test]
    fn oversubscription_bound_respected() {
        // The search can never return more servers than ports allow.
        let r = servers_at_full_throughput(6, 4, fast_opts());
        assert!(r.servers <= 6 * 3);
    }
}
