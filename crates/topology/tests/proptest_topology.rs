//! Property-based tests for the topology substrate.
//!
//! These check the structural invariants the rest of the workspace relies on
//! across randomized parameter ranges: degree bounds, connectivity, port
//! accounting, and expansion behaviour.

use jellyfish_topology::bfs::{all_pairs_distances, UNREACHED};
use jellyfish_topology::expansion::{add_switch, grow_schedule};
use jellyfish_topology::failures::{fail_random_links, survivability};
use jellyfish_topology::fattree::FatTree;
use jellyfish_topology::properties::path_length_stats;
use jellyfish_topology::rrg::build_heterogeneous;
use jellyfish_topology::{Graph, JellyfishBuilder};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The Jellyfish construction always respects the degree bound, is simple,
    /// and leaves at most one port unmatched.
    #[test]
    fn rrg_degree_bound_and_near_regularity(
        n in 5usize..80,
        r in 3usize..8,
        extra_ports in 1usize..6,
        seed in any::<u64>(),
    ) {
        prop_assume!(r < n);
        let ports = r + extra_ports;
        let topo = JellyfishBuilder::new(n, ports, r).seed(seed).build().unwrap();
        let g = topo.graph();
        prop_assert!(g.max_degree() <= r);
        let deficient: Vec<_> = g.nodes().filter(|&v| g.degree(v) < r).collect();
        prop_assert!(deficient.len() <= 1, "deficient switches: {deficient:?}");
        prop_assert!(g.is_connected());
        prop_assert!(topo.check_invariants().is_ok());
        prop_assert_eq!(topo.total_servers(), n * extra_ports);
    }

    /// Incremental expansion never breaks invariants, never lowers any
    /// existing switch's degree, and keeps the network connected.
    #[test]
    fn expansion_preserves_invariants(
        n in 10usize..50,
        additions in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut topo = JellyfishBuilder::new(n, 10, 6).seed(seed).build().unwrap();
        let degrees_before: Vec<_> = topo.graph().nodes().map(|v| topo.graph().degree(v)).collect();
        for i in 0..additions {
            add_switch(&mut topo, 10, 4, seed.wrapping_add(i as u64)).unwrap();
        }
        prop_assert!(topo.check_invariants().is_ok());
        prop_assert!(topo.graph().is_connected());
        for (v, &d) in degrees_before.iter().enumerate() {
            prop_assert!(topo.graph().degree(v) >= d, "switch {v} lost a link");
        }
        prop_assert_eq!(topo.num_switches(), n + additions);
    }

    /// The immutable CSR snapshot is equivalent to the mutable graph it was
    /// taken from: same degrees, same (sorted) neighbor sets, and consistent
    /// arc/edge-id mappings.
    #[test]
    fn csr_snapshot_equivalent_to_graph(
        n in 6usize..60,
        r in 3usize..7,
        seed in any::<u64>(),
    ) {
        prop_assume!(r < n);
        let topo = JellyfishBuilder::new(n, r + 2, r).seed(seed).build().unwrap();
        let g = topo.graph();
        let csr = topo.csr();
        prop_assert_eq!(csr.num_nodes(), g.num_nodes());
        prop_assert_eq!(csr.num_edges(), g.num_edges());
        prop_assert_eq!(csr.num_arcs(), 2 * g.num_edges());
        for u in g.nodes() {
            prop_assert_eq!(csr.degree(u), g.degree(u));
            let mut expected: Vec<u32> = g.neighbors(u).iter().map(|&v| v as u32).collect();
            expected.sort_unstable();
            prop_assert_eq!(csr.neighbors(u), expected.as_slice());
        }
        for e in g.edges() {
            let (lo, hi) = (e.a.min(e.b), e.a.max(e.b));
            let eid = csr.edge_index(lo, hi).expect("edge present in snapshot");
            prop_assert_eq!(csr.edge_endpoints(eid), (lo, hi));
        }
    }

    /// BFS distances satisfy the triangle inequality over edges: for every
    /// edge (u, v), |dist(s,u) - dist(s,v)| <= 1.
    #[test]
    fn bfs_distances_are_consistent(n in 5usize..60, seed in any::<u64>()) {
        prop_assume!(n > 4);
        let topo = JellyfishBuilder::new(n, 8, 4).seed(seed).build().unwrap();
        let all = all_pairs_distances(&topo.csr());
        let dist = all.row(0);
        for e in topo.graph().edges() {
            let (da, db) = (dist[e.a], dist[e.b]);
            prop_assert!(da != UNREACHED && db != UNREACHED);
            prop_assert!(da.abs_diff(db) <= 1, "edge {e} violates BFS consistency");
        }
    }

    /// Path-length statistics are internally consistent: the histogram sums to
    /// the number of ordered reachable pairs and the mean matches it.
    #[test]
    fn path_length_stats_consistency(n in 4usize..40, seed in any::<u64>()) {
        prop_assume!(n > 4);
        let topo = JellyfishBuilder::new(n, 8, 4).seed(seed).build().unwrap();
        let stats = path_length_stats(&topo.csr());
        let pairs: usize = stats.histogram.iter().sum();
        prop_assert_eq!(pairs + stats.unreachable_pairs, n * (n - 1));
        let weighted: usize = stats.histogram.iter().enumerate().map(|(d, &c)| d * c).sum();
        prop_assert!((stats.mean - weighted as f64 / pairs as f64).abs() < 1e-9);
        prop_assert!(stats.fraction_within(stats.diameter) > 0.999);
    }

    /// Failing links never increases connectivity and the surviving component
    /// fraction is monotone in the failure rate (statistically: we just check
    /// bounds and invariants here).
    #[test]
    fn failures_keep_invariants(frac in 0.0f64..0.9, seed in any::<u64>()) {
        let mut topo = JellyfishBuilder::new(40, 10, 6).seed(seed).build().unwrap();
        let links_before = topo.num_links();
        let report = fail_random_links(&mut topo, frac, seed);
        prop_assert_eq!(topo.num_links(), links_before - report.failed_links.len());
        prop_assert!(topo.check_invariants().is_ok());
        let s = survivability(&topo);
        prop_assert!(s.switch_fraction > 0.0 && s.switch_fraction <= 1.0);
        prop_assert!(s.server_fraction >= 0.0 && s.server_fraction <= 1.0);
    }

    /// The heterogeneous builder respects per-switch degree targets.
    #[test]
    fn heterogeneous_respects_degree_targets(
        small in 4usize..20,
        large in 2usize..8,
        seed in any::<u64>(),
    ) {
        let n = small + large;
        prop_assume!(n >= 8);
        let mut ports = vec![8usize; small];
        ports.extend(vec![16usize; large]);
        let mut deg = vec![5usize; small];
        deg.extend(vec![7usize; large]);
        prop_assume!(deg.iter().all(|&d| d < n));
        let topo = build_heterogeneous(&ports, &deg, seed).unwrap();
        for (i, &target) in deg.iter().enumerate() {
            prop_assert!(topo.graph().degree(i) <= target);
        }
        // The randomized completion matches all but at most one port in the
        // homogeneous case; with mixed degree targets on very small networks a
        // second port can occasionally stay free (both leftovers adjacent and
        // sharing their only non-neighbor), so allow a deficit of two here.
        let deficit: usize = (0..n).map(|i| deg[i] - topo.graph().degree(i)).sum();
        prop_assert!(deficit <= 2, "total degree deficit {deficit}");
        prop_assert!(topo.graph().is_connected());
    }

    /// Fat-trees are always fully regular with zero free ports, and their
    /// size formulas hold.
    #[test]
    fn fat_tree_structure(k in 1usize..8) {
        let k = k * 2; // even
        let ft = FatTree::new(k).unwrap();
        let t = ft.topology();
        prop_assert_eq!(t.num_switches(), 5 * k * k / 4);
        prop_assert_eq!(t.total_servers(), k * k * k / 4);
        for v in t.graph().nodes() {
            prop_assert_eq!(t.free_ports(v), 0);
        }
        prop_assert!(t.graph().is_connected());
    }

    /// Growth schedules always produce connected, invariant-respecting stages
    /// whose sizes follow the schedule.
    #[test]
    fn grow_schedule_stage_sizes(
        initial in 8usize..16,
        steps in 1usize..4,
        step in 5usize..15,
        seed in any::<u64>(),
    ) {
        let target = initial + steps * step;
        let stages = grow_schedule(initial, target, step, 10, 6, seed).unwrap();
        prop_assert_eq!(stages.len(), steps + 1);
        for (i, stage) in stages.iter().enumerate() {
            prop_assert_eq!(stage.num_switches(), initial + i * step);
            prop_assert!(stage.graph().is_connected());
            prop_assert!(stage.check_invariants().is_ok());
        }
    }

    /// Graph edit operations keep the internal adjacency/edge-list views
    /// consistent under arbitrary add/remove sequences.
    #[test]
    fn graph_random_edit_sequence(ops in proptest::collection::vec((0usize..30, 0usize..30, any::<bool>()), 1..200)) {
        let mut g = Graph::new(30);
        for (u, v, add) in ops {
            if u == v {
                continue;
            }
            if add {
                g.add_edge(u, v);
            } else {
                g.remove_edge(u, v);
            }
            prop_assert!(g.check_invariants().is_ok());
        }
    }
}
