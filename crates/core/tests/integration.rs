//! Cross-crate integration tests: every layer of the stack working together
//! on the scenarios the paper's evaluation is built from.

use jellyfish::capacity::supports_full_throughput;
use jellyfish::experiment::catalog::FIG13_JAIN_PREFIX;
use jellyfish::experiment::{find, Dataset, RunCtx};
use jellyfish::figures::Scale;
use jellyfish::metrics::jain_fairness_index;
use jellyfish::prelude::*;
use jellyfish::sim::fluid::max_min_fair_allocation;
use jellyfish::sim::net::{LinkParams, Network};
use jellyfish::sim::workload::build_connections;
use jellyfish::topology::failures::fail_random_links;
use jellyfish::topology::properties::{
    fraction_of_server_pairs_within, path_length_stats, server_pair_histogram,
};
use jellyfish::topology::TopoSpec;

const SEED: u64 = 2012;

/// `jellyfish:switches=N,ports=P,servers_total=S` built with `seed`.
fn jellyfish_total(switches: usize, ports: usize, servers: usize, seed: u64) -> Topology {
    let spec: TopoSpec =
        format!("jellyfish:switches={switches},ports={ports},servers_total={servers}")
            .parse()
            .unwrap();
    spec.build(seed).unwrap()
}

/// Runs a registered experiment the way `figures run` does.
fn run_experiment(name: &str, scale: Scale, seed: u64) -> Dataset {
    find(name).unwrap_or_else(|| panic!("{name} is registered")).run(&RunCtx::new(scale, seed))
}

/// Figure 1(c) at a reduced but still meaningful scale: the same-equipment
/// Jellyfish reaches far more server pairs within 5 hops than the fat-tree.
#[test]
fn same_equipment_jellyfish_has_shorter_server_paths() {
    let k = 10; // 125 switches, 250 servers
    let servers = jellyfish::topology::fattree::FatTree::servers_for_port_count(k);
    let (ft, jf) = jellyfish::topology::fattree::same_equipment_pair(k, servers, SEED).unwrap();
    let jf_hist = server_pair_histogram(&jf, &jf.csr());
    let ft_hist = server_pair_histogram(ft.topology(), &ft.topology().csr());
    let jf5 = fraction_of_server_pairs_within(&jf_hist, 5);
    let ft5 = fraction_of_server_pairs_within(&ft_hist, 5);
    assert!(jf5 > 0.9, "jellyfish reaches only {jf5} of pairs within 5 hops");
    assert!(jf5 > ft5 + 0.2, "jellyfish {jf5} vs fat-tree {ft5}");
    // Same diameter or better, as the paper observes.
    let jf_stats = path_length_stats(&jf.csr());
    let ft_stats = path_length_stats(&ft.topology().csr());
    assert!(jf_stats.diameter <= ft_stats.diameter);
}

/// The §4.1 capacity headline at small scale: with the fat-tree's switching
/// equipment, Jellyfish supports at least as many servers at full throughput.
#[test]
fn jellyfish_matches_fat_tree_server_count_at_full_capacity() {
    let k = 6;
    let switches = jellyfish::topology::fattree::FatTree::switches_for_port_count(k);
    let ft_servers = jellyfish::topology::fattree::FatTree::servers_for_port_count(k);
    // The fat-tree itself supports its servers at full throughput.
    let ft = FatTree::new(k).unwrap().into_topology();
    assert!(supports_full_throughput(&ft, 2, ThroughputOptions::default(), SEED));
    // Jellyfish with the same equipment and the same server count does too.
    let jf = jellyfish_total(switches, k, ft_servers, SEED);
    assert!(supports_full_throughput(&jf, 2, ThroughputOptions::default(), SEED));
    // And with ~12% more servers it still does (the paper finds up to 27% at
    // larger sizes). The check uses a slightly coarser solver accuracy: at
    // this tiny scale the Garg–Könemann under-estimate otherwise dominates.
    let jf_more = jellyfish_total(switches, k, ft_servers * 112 / 100, SEED);
    let coarse = ThroughputOptions { epsilon: 0.1, ..Default::default() };
    assert!(supports_full_throughput(&jf_more, 2, coarse, SEED));
}

/// Incremental expansion preserves capacity: topologies grown rack-by-rack
/// support the same permutation throughput as from-scratch ones (Figure 6).
#[test]
fn incremental_growth_matches_from_scratch_capacity() {
    let series = run_experiment("fig6", Scale::Tiny, SEED).series;
    let incremental = &series[0];
    let scratch = &series[1];
    for (a, b) in incremental.points.iter().zip(&scratch.points) {
        assert_eq!(a.0, b.0, "sizes should line up");
        assert!(
            (a.1 - b.1).abs() < 0.12,
            "incremental {} vs scratch {} at {} servers",
            a.1,
            b.1,
            a.0
        );
    }
}

/// Failure resilience (Figure 8): failing 15% of links costs Jellyfish less
/// than ~20% of its throughput.
#[test]
fn jellyfish_degrades_gracefully_under_link_failures() {
    // 45 ten-port switches with 3 servers each: the degree-to-server ratio of
    // the paper's Figure 8 configuration (servers ≈ 0.4·r).
    let topo = jellyfish_total(45, 10, 135, SEED);
    let baseline = {
        let servers = ServerMap::new(&topo);
        let tm = TrafficMatrix::random_permutation(&servers, 3);
        normalized_throughput(
            &topo,
            &servers,
            &tm,
            ThroughputOptions { stop_at_full: false, ..Default::default() },
        )
        .normalized
    };
    let mut failed = topo.clone();
    fail_random_links(&mut failed, 0.15, SEED);
    let degraded = {
        let servers = ServerMap::new(&failed);
        let tm = TrafficMatrix::random_permutation(&servers, 3);
        normalized_throughput(
            &failed,
            &servers,
            &tm,
            ThroughputOptions { stop_at_full: false, ..Default::default() },
        )
        .normalized
    };
    assert!(degraded > 0.0);
    assert!(
        degraded >= baseline * 0.75,
        "throughput fell from {baseline} to {degraded} after 15% link failures"
    );
}

/// The packet-level engine and the fluid engine agree on the big picture for
/// the same workload (DESIGN.md's engine cross-check).
#[test]
fn packet_and_fluid_engines_agree_roughly() {
    let topo = JellyfishBuilder::new(16, 8, 5).seed(SEED).build().unwrap();
    let csr = topo.csr();
    let servers = ServerMap::new(&topo);
    let tm = TrafficMatrix::random_permutation(&servers, 5);
    let conns = build_connections(
        &csr,
        &servers,
        &tm,
        RoutingScheme::ksp8(),
        TransportPolicy::Mptcp { subflows: 8 },
        SEED,
    );
    let fluid = max_min_fair_allocation(&conns).mean_throughput();
    let net = Network::build(&csr, &servers, LinkParams::default());
    let cfg = SimConfig { duration: 8.0, warmup: 2.0, seed: SEED, ..Default::default() };
    let packet = Simulator::new(net, conns, cfg).run().mean_throughput();
    assert!(packet > 0.0 && fluid > 0.0);
    assert!(
        packet <= fluid * 1.15 + 0.05,
        "packet engine ({packet}) should not exceed the fluid upper-ish bound ({fluid}) by much"
    );
    assert!(
        packet >= fluid * 0.5,
        "packet engine ({packet}) implausibly far below fluid allocation ({fluid})"
    );
}

/// Fairness (Figure 13): both topologies give flows near-equal shares.
#[test]
fn both_topologies_are_flow_fair() {
    let ds = run_experiment("fig13", Scale::Tiny, SEED);
    assert!(!ds.series.is_empty());
    for s in &ds.series {
        let jain = ds
            .cells
            .iter()
            .find(|c| c.name == format!("{FIG13_JAIN_PREFIX}{}", s.label))
            .expect("fig13 emits one Jain cell per topology")
            .value;
        let tputs: Vec<f64> = s.points.iter().map(|&(_, y)| y).collect();
        assert!(!tputs.is_empty());
        assert!(jain > 0.85, "{}: Jain index {jain} too low", s.label);
        // Also check directly against the metric function.
        assert!((jain - jain_fairness_index(&tputs)).abs() < 1e-12);
    }
}

/// LEGUP comparison (Figure 7): by the final stage Jellyfish's bisection
/// bandwidth exceeds the Clos planner's at the same cumulative budget.
#[test]
fn jellyfish_expansion_beats_clos_planner_on_bisection_per_dollar() {
    // Row values: cumulative budget, jellyfish bisection, clos bisection,
    // servers (the fig7 column order).
    let rows = run_experiment("fig7", Scale::Tiny, SEED).rows;
    assert!(rows.len() >= 3);
    let last = rows.last().unwrap();
    assert!(last.values[1] > last.values[2]);
}

/// The figures CLI's two-layer Jellyfish localization sweep (Figure 14)
/// degrades gracefully: ~50-60% localization costs well under half the
/// capacity.
#[test]
fn cable_localization_costs_little_throughput() {
    let series = run_experiment("fig14", Scale::Tiny, SEED).series;
    for s in &series {
        let at_low = s.points.iter().find(|p| p.0 <= 0.01).map(|p| p.1).unwrap();
        let at_mid = s.points.iter().find(|p| (p.0 - 0.6).abs() < 0.01).map(|p| p.1).unwrap();
        assert!(at_mid >= at_low * 0.55, "60% localization dropped {at_low} -> {at_mid}");
    }
}

/// The rayon-parallel figure pipelines are deterministic: every parallel
/// item derives its seed from (figure seed, item index) exactly as a serial
/// loop would, so two runs — regardless of thread count or scheduling —
/// produce bit-identical results.
#[test]
fn parallel_figures_are_deterministic() {
    for name in ["fig1c", "fig5", "table1"] {
        let a = run_experiment(name, Scale::Tiny, SEED);
        let b = run_experiment(name, Scale::Tiny, SEED);
        assert_eq!(a, b, "{name} differs between runs");
    }
}
