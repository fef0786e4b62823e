//! Pins the Garg–Könemann solver's output bits beyond what the goldens
//! cover: for one tiny instance of every registered topology generator, with
//! and without a λ cap, `max_concurrent_flow` must return exactly the λ bits
//! and the shortest-path call count recorded here. Any change to the inner
//! Dijkstra's tie-breaking, its path order or the update arithmetic shows up
//! as a mismatch, even on fabrics no golden renders.

use jellyfish_flow::mcf::{max_concurrent_flow, Commodity, McfOptions};
use jellyfish_topology::TopoSpec;
use jellyfish_traffic::{switch_demands, ServerMap, TrafficMatrix};

/// Build and traffic seed shared by every instance.
const SEED: u64 = 7;

/// Solver accuracy: coarse enough that an uncapped solve stays quick in a
/// debug build, fine enough for hundreds of augmentations per solve.
const EPSILON: f64 = 0.1;

/// `(spec, lambda_cap, lambda.to_bits(), path_computations)`, recorded from
/// the full-tree Dijkstra the target-terminated search replaced. Where λ < 1
/// the cap never bites, so both rows agree.
const PINS: &[(&str, Option<f64>, u64, usize)] = &[
    // λ = 0.6934627730879589 over 60 commodities.
    ("jellyfish:switches=20,ports=8,degree=5", None, 0x3fe630d8d76d0005, 20521),
    ("jellyfish:switches=20,ports=8,degree=5", Some(1.0), 0x3fe630d8d76d0005, 20521),
    // λ = 0.8983931790891223 over 16 commodities.
    ("fattree:k=4", None, 0x3fecbfa30d64645d, 6428),
    ("fattree:k=4", Some(1.0), 0x3fecbfa30d64645d, 6428),
    // λ = 1.1704143458619665 over 45 commodities.
    ("swdc:lattice=ring,n=24,servers=2", None, 0x3ff2ba0464a3f12b, 28000),
    ("swdc:lattice=ring,n=24,servers=2", Some(1.0), 0x3ff0000000000000, 23940),
    // λ = 1.2453040165580664 over 20 commodities.
    ("dd:n=20,ports=6,degree=4,servers=1", None, 0x3ff3ecc3e78b1c02, 11719),
    ("dd:n=20,ports=6,degree=4,servers=1", Some(1.0), 0x3ff0000000000000, 9400),
    // λ = 0.6813737872225606 over 17 commodities.
    ("leafspine:leaf=6,spine=3,servers=4", None, 0x3fe5cdd0668f1f37, 5276),
    ("leafspine:leaf=6,spine=3,servers=4", Some(1.0), 0x3fe5cdd0668f1f37, 5276),
];

/// The switch-level commodities of a random server permutation on `spec`.
fn instance(spec: &str) -> (jellyfish_topology::CsrGraph, Vec<Commodity>) {
    let topo = spec.parse::<TopoSpec>().unwrap().build(SEED).unwrap();
    let servers = ServerMap::new(&topo);
    let commodities = switch_demands(&TrafficMatrix::random_permutation(&servers, SEED), &servers)
        .into_iter()
        .map(|(src, dst, demand)| Commodity { src, dst, demand })
        .collect();
    (topo.csr(), commodities)
}

#[test]
fn max_concurrent_flow_bits_are_pinned_on_every_generator() {
    for &(spec, lambda_cap, lambda_bits, path_computations) in PINS {
        let (csr, commodities) = instance(spec);
        let opts = McfOptions { epsilon: EPSILON, lambda_cap };
        let sol = max_concurrent_flow(&csr, &commodities, opts);
        assert_eq!(
            (sol.lambda.to_bits(), sol.path_computations),
            (lambda_bits, path_computations),
            "{spec} cap {lambda_cap:?}: λ = {}",
            sol.lambda
        );
    }
}

#[test]
fn pins_cover_every_generator_with_and_without_cap() {
    for generator in jellyfish_topology::spec::generators() {
        for cap in [None, Some(1.0)] {
            assert!(
                PINS.iter().any(|&(spec, c, _, _)| {
                    spec.split(':').next() == Some(generator.name()) && c == cap
                }),
                "no pin for {} with cap {cap:?}",
                generator.name()
            );
        }
    }
}
