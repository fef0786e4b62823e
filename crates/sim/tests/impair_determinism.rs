//! Property tests pinning down the determinism contract of the impairment
//! layer: a packet's fate is a pure function of the impairment config, the
//! impairment seed, and that link's own packet history — never of wall
//! clock, traffic on other links, or how work is sharded. This is what lets
//! `figures run --shard K/N` and `figures launch` reproduce an impaired
//! single-process run bit for bit.

use jellyfish_routing::path_table::RoutingScheme;
use jellyfish_sim::engine::{SimConfig, Simulator};
use jellyfish_sim::impair::stream_seed;
use jellyfish_sim::net::{LinkParams, Network};
use jellyfish_sim::routing::TransportPolicy;
use jellyfish_sim::workload::build_connections;
use jellyfish_topology::spec::{ImpairConfig, JitterDist};
use jellyfish_topology::JellyfishBuilder;
use jellyfish_traffic::{ServerMap, TrafficMatrix};
use proptest::prelude::*;

/// Maps primitive draws to a valid [`ImpairConfig`] spanning every knob
/// (the vendored proptest has no `prop_map`, so the mapping is explicit).
/// `ge_on`/`jdist_exp` are 0/1 selectors; `queue_sel < 4` means no queue
/// override (4 is the smallest override the strategy produces).
fn cfg_from(
    (loss, jitter_ms, reorder, duplicate): (f64, f64, f64, f64),
    (ge_on, jdist_exp, queue_sel): (usize, usize, usize),
    (ge_p, ge_r): (f64, f64),
) -> ImpairConfig {
    ImpairConfig {
        loss,
        ge_good_to_bad: if ge_on == 1 { ge_p } else { 0.0 },
        ge_bad_to_good: if ge_on == 1 { ge_r } else { 0.0 },
        jitter_ms,
        jitter_dist: if jdist_exp == 1 { JitterDist::Exp } else { JitterDist::Uniform },
        reorder,
        duplicate,
        queue: if queue_sel < 4 { None } else { Some(queue_sel) },
    }
}

/// The knob strategies behind [`cfg_from`]'s three tuples.
fn knobs(
) -> (core::ops::Range<f64>, core::ops::Range<f64>, core::ops::Range<f64>, core::ops::Range<f64>) {
    (0.0..0.3, 0.0..10.0, 0.0..0.2, 0.0..0.2)
}

fn kinds() -> (core::ops::Range<usize>, core::ops::Range<usize>, core::ops::Range<usize>) {
    (0..2, 0..2, 0..64)
}

fn ge_probs() -> (core::ops::Range<f64>, core::ops::Range<f64>) {
    (0.01..0.2, 0.05..0.5)
}

/// Server 0's sim node in [`impaired_network`]'s fabric: servers follow
/// its 6 switches, and server 0 hangs off switch 0.
const HOST0: usize = 6;

fn impaired_network(cfg: ImpairConfig, impair_seed: u64) -> Network {
    let topo = JellyfishBuilder::new(6, 6, 3).seed(1).build().unwrap();
    let servers = ServerMap::new(&topo);
    Network::build(&topo.csr(), &servers, LinkParams::default()).with_impairment(cfg, impair_seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Two networks built from the same `(config, seed)` hand every packet
    /// the same fate: the outcome sequence of an identical transmit schedule
    /// is identical, drop for drop and jitter for jitter.
    #[test]
    fn same_config_and_seed_reproduce_every_outcome(
        k in knobs(),
        sel in kinds(),
        ge in ge_probs(),
        seed in any::<u64>(),
    ) {
        let cfg = cfg_from(k, sel, ge);
        let mut a = impaired_network(cfg, seed);
        let mut b = impaired_network(cfg, seed);
        let up = a.link_id(HOST0, 0);
        for i in 0..300 {
            let now = i as f64 * 0.004;
            prop_assert_eq!(a.transmit_on(up, now, 1.0), b.transmit_on(up, now, 1.0), "packet {}", i);
        }
        prop_assert_eq!(a.total_wire_losses(), b.total_wire_losses());
        prop_assert_eq!(a.total_drops(), b.total_drops());
    }

    /// A link's impairment stream is blind to traffic elsewhere: packets on
    /// one link see the same fates whether or not another link carries
    /// traffic in between. (This per-link independence is why sharding the
    /// work items cannot change any packet's fate.)
    #[test]
    fn a_links_fates_ignore_traffic_on_other_links(
        k in knobs(),
        sel in kinds(),
        ge in ge_probs(),
        seed in any::<u64>(),
    ) {
        let cfg = cfg_from(k, sel, ge);
        let mut interleaved = impaired_network(cfg, seed);
        let mut solo = impaired_network(cfg, seed);
        // Observed link: host 0's uplink. Background traffic: host 0's
        // downlink — a distinct directed link with its own stream.
        let (up, down) = (interleaved.link_id(HOST0, 0), interleaved.link_id(0, HOST0));
        for i in 0..200 {
            let now = i as f64 * 0.004;
            interleaved.transmit_on(down, now, 1.0);
            let a = interleaved.transmit_on(up, now, 1.0);
            let b = solo.transmit_on(up, now, 1.0);
            prop_assert_eq!(a, b, "packet {}", i);
        }
    }

    /// Per-link stream seeds are distinct under any impairment seed (the
    /// splitmix-style spread keeps neighbouring link keys uncorrelated).
    #[test]
    fn stream_seeds_are_distinct_across_links(seed in any::<u64>()) {
        let mut seen = std::collections::HashSet::new();
        for key in 0..512usize {
            prop_assert!(seen.insert(stream_seed(seed, key)), "key {} collides", key);
        }
    }
}

proptest! {
    // Full engine runs are the expensive property: a handful of cases is
    // plenty — each one covers thousands of per-packet draws.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// An impaired end-to-end simulation is bit-reproducible: two runs from
    /// the same seeds produce identical reports, down to every per-flow
    /// throughput, RTT sample and drop counter (compared through their full
    /// `Debug` rendering, which includes all of them).
    #[test]
    fn impaired_simulation_reports_are_bit_identical(
        k in knobs(),
        sel in kinds(),
        ge in ge_probs(),
        seed in 0u64..1_000,
    ) {
        let cfg = cfg_from(k, sel, ge);
        let run = || {
            let topo = JellyfishBuilder::new(6, 6, 3).seed(seed).build().unwrap();
            let servers = ServerMap::new(&topo);
            let csr = topo.csr();
            let tm = TrafficMatrix::random_permutation(&servers, seed ^ 0xABCD);
            let conns = build_connections(
                &csr,
                &servers,
                &tm,
                RoutingScheme::ksp8(),
                TransportPolicy::Mptcp { subflows: 8 },
                seed,
            );
            let net = Network::build(&csr, &servers, LinkParams::default())
                .with_impairment(cfg, seed ^ 0x1417);
            let config = SimConfig { duration: 3.0, warmup: 0.75, seed };
            Simulator::new(net, conns, config).run()
        };
        prop_assert_eq!(format!("{:?}", run()), format!("{:?}", run()));
    }
}
