//! Property-based tests for the routing crate: Yen's algorithm, ECMP path
//! enumeration and path tables, exercised over random Jellyfish topologies.

use jellyfish_routing::ecmp::all_shortest_paths;
use jellyfish_routing::path_table::{PathTable, RoutingScheme};
use jellyfish_routing::shortest::all_pairs_distances;
use jellyfish_routing::yen::k_shortest_paths;
use jellyfish_routing::{is_valid_simple_path, Path};
use jellyfish_topology::bfs::bfs_scalar_into;
use jellyfish_topology::{CsrGraph, JellyfishBuilder, NodeId};
use proptest::prelude::*;

/// One pair's path set computed on its own.
fn pair_paths(csr: &CsrGraph, scheme: RoutingScheme, src: NodeId, dst: NodeId) -> Vec<Path> {
    match scheme {
        RoutingScheme::Ecmp { way } => {
            let mut to_dst = vec![0; csr.num_nodes()];
            bfs_scalar_into(csr, dst, &mut to_dst);
            all_shortest_paths(csr, &to_dst, src, dst, way)
        }
        RoutingScheme::KShortestPaths { k } => k_shortest_paths(csr, src, dst, k),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Yen's k shortest paths are simple, valid, distinct, sorted by length,
    /// and the first one is a true shortest path.
    #[test]
    fn yen_paths_invariants(
        n in 10usize..50,
        k in 1usize..10,
        seed in any::<u64>(),
    ) {
        let topo = JellyfishBuilder::new(n, 9, 5).seed(seed).build().unwrap();
        let g = &topo.csr();
        let src = 0;
        let dst = n / 2;
        let paths = k_shortest_paths(g, src, dst, k);
        prop_assert!(!paths.is_empty());
        prop_assert!(paths.len() <= k);
        let hops = all_pairs_distances(g).get(src, dst) as usize;
        prop_assert_eq!(paths[0].len(), hops + 1);
        for w in paths.windows(2) {
            prop_assert!(w[0].len() <= w[1].len(), "paths not sorted by length");
        }
        let mut seen = std::collections::HashSet::new();
        for p in &paths {
            prop_assert!(is_valid_simple_path(g, p));
            prop_assert_eq!(*p.first().unwrap(), src);
            prop_assert_eq!(*p.last().unwrap(), dst);
            prop_assert!(seen.insert(p.clone()), "duplicate path {p:?}");
        }
    }

    /// Every enumerated equal-cost path has exactly the BFS shortest length.
    #[test]
    fn ecmp_paths_are_shortest(n in 10usize..40, seed in any::<u64>()) {
        let topo = JellyfishBuilder::new(n, 8, 5).seed(seed).build().unwrap();
        let g = &topo.csr();
        let dist = all_pairs_distances(g);
        for dst in [n - 1, n / 2, 2] {
            if dst == 1 { continue; }
            let paths = all_shortest_paths(g, dist.row(dst), 1, dst, 32);
            prop_assert!(!paths.is_empty());
            for p in &paths {
                prop_assert_eq!(p.len() - 1, dist.get(1, dst) as usize);
                prop_assert!(is_valid_simple_path(g, p));
            }
        }
    }

    /// ECMP path sets are a subset (by construction, a prefix-limited subset)
    /// of the k-shortest-path sets in terms of minimum length, and k-shortest
    /// paths always finds at least as many paths as ECMP can install when
    /// k >= the ECMP width.
    #[test]
    fn ksp_at_least_as_many_paths_as_ecmp(n in 12usize..40, seed in any::<u64>()) {
        let topo = JellyfishBuilder::new(n, 8, 5).seed(seed).build().unwrap();
        let g = &topo.csr();
        let ecmp = all_shortest_paths(g, all_pairs_distances(g).row(n - 1), 0, n - 1, 8);
        let ksp = k_shortest_paths(g, 0, n - 1, 8);
        prop_assert!(ksp.len() >= ecmp.len());
    }

    /// Path-table link counts are conserved: the sum over directed links of
    /// the per-link path count equals the total number of hops installed.
    #[test]
    fn path_table_conservation(n in 10usize..30, seed in any::<u64>()) {
        let topo = JellyfishBuilder::new(n, 8, 5).seed(seed).build().unwrap();
        let pairs: Vec<_> = (0..n).map(|s| (s, (s + n / 2) % n)).filter(|(s, d)| s != d).collect();
        let csr = topo.csr();
        let table = PathTable::build(&csr, RoutingScheme::ksp8(), pairs);
        let counts = table.arc_path_counts(&csr);
        let total: usize = counts.iter().sum();
        let hops: usize = table.iter().flat_map(|(_, ps)| ps.iter().map(|p| p.len() - 1)).sum();
        prop_assert_eq!(total, hops);
        prop_assert_eq!(counts.len(), csr.num_arcs());
    }

    /// The rayon path-table build is identical to a serial per-pair loop
    /// (ECMP over a scalar BFS row from the destination, KSP by Yen) for
    /// every scheme and workload, down to the ranked per-link path counts —
    /// parallelism and the shared distance matrix must never change results.
    #[test]
    fn path_table_parallel_matches_serial(n in 10usize..30, seed in any::<u64>()) {
        let topo = JellyfishBuilder::new(n, 8, 5).seed(seed).build().unwrap();
        let csr = topo.csr();
        let pairs: Vec<_> = (0..n).map(|s| (s, (s * 7 + 3) % n)).filter(|(s, d)| s != d).collect();
        for scheme in [RoutingScheme::ecmp8(), RoutingScheme::ecmp64(), RoutingScheme::ksp8()] {
            let par = PathTable::build(&csr, scheme, pairs.iter().copied());
            prop_assert_eq!(par.num_pairs(), pairs.len());
            let mut counts = vec![0usize; csr.num_arcs()];
            for &(s, d) in &pairs {
                let paths = pair_paths(&csr, scheme, s, d);
                prop_assert_eq!(par.paths_for(s, d), paths.as_slice(), "pair ({}, {})", s, d);
                for w in paths.iter().flat_map(|p| p.windows(2)) {
                    counts[csr.arc_index(w[0], w[1]).unwrap()] += 1;
                }
            }
            counts.sort_unstable();
            prop_assert_eq!(par.ranked_link_path_counts(&csr), counts);
        }
    }
}
