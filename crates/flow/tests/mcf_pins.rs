//! Pins the Garg–Könemann solver's output bits beyond what the goldens
//! cover: for one tiny instance of every registered topology generator, with
//! and without `stop_at_full` (the λ ≥ 1 cap), `max_concurrent_flow` must
//! return exactly the λ and λ_hi bits and the shortest-path call count
//! recorded here. Any change to the inner Dijkstra's tie-breaking, its path
//! order, the update arithmetic or the certificate schedule shows up as a
//! mismatch, even on fabrics no golden renders.
//!
//! Each pin also keeps the λ the solver reported before its search became
//! exact and its stop certified. That λ was a feasible flow's value, so it
//! can never exceed the new certified upper bound λ_hi.

use jellyfish_flow::mcf::{max_concurrent_flow, Commodity};
use jellyfish_flow::throughput::ThroughputOptions;
use jellyfish_topology::TopoSpec;
use jellyfish_traffic::{switch_demands, ServerMap, TrafficMatrix};

/// Build and traffic seed shared by every instance.
const SEED: u64 = 7;

/// Solver accuracy: coarse enough that an uncapped solve stays quick in a
/// debug build, fine enough for hundreds of augmentations per solve.
const EPSILON: f64 = 0.1;

/// One pinned solve; λ values are `to_bits` patterns.
struct Pin {
    spec: &'static str,
    stop_at_full: bool,
    lambda: u64,
    lambda_hi: u64,
    path_computations: usize,
    /// λ from the seed-era search, whose `nd + 1e-15 < dist` relaxation
    /// froze tentative distances while lengths were tiny, and which ran
    /// every solve to the `D(l) ≥ 1` stop.
    parent_lambda: u64,
}

const PINS: &[Pin] = &[
    // 60 commodities: λ ∈ [0.7272727272727273, 0.7974722194676179];
    // parent λ 0.6934627730879589. λ < 1, so the cap never bites.
    Pin {
        spec: "jellyfish:switches=20,ports=8,degree=5",
        stop_at_full: false,
        lambda: 0x3fe745d1745d1746,
        lambda_hi: 0x3fe984e475c29f5d,
        path_computations: 4320,
        parent_lambda: 0x3fe630d8d76d0005,
    },
    Pin {
        spec: "jellyfish:switches=20,ports=8,degree=5",
        stop_at_full: true,
        lambda: 0x3fe745d1745d1746,
        lambda_hi: 0x3fe984e475c29f5d,
        path_computations: 4320,
        parent_lambda: 0x3fe630d8d76d0005,
    },
    // 16 commodities: λ ∈ [0.9230769230769231, 1.006];
    // parent λ 0.8983931790891223.
    Pin {
        spec: "fattree:k=4",
        stop_at_full: false,
        lambda: 0x3fed89d89d89d89e,
        lambda_hi: 0x3ff0189374bc6a7f,
        path_computations: 192,
        parent_lambda: 0x3fecbfa30d64645d,
    },
    Pin {
        spec: "fattree:k=4",
        stop_at_full: true,
        lambda: 0x3fed89d89d89d89e,
        lambda_hi: 0x3ff0189374bc6a7f,
        path_computations: 192,
        parent_lambda: 0x3fecbfa30d64645d,
    },
    // 45 commodities: λ ∈ [1.2413793103448276, 1.3643843386467127];
    // parent λ 1.1704143458619665. Capped: λ_lo reaches 1 after 32 phases.
    Pin {
        spec: "swdc:lattice=ring,n=24,servers=2",
        stop_at_full: false,
        lambda: 0x3ff3dcb08d3dcb09,
        lambda_hi: 0x3ff5d484ac1a9874,
        path_computations: 8100,
        parent_lambda: 0x3ff2ba0464a3f12b,
    },
    Pin {
        spec: "swdc:lattice=ring,n=24,servers=2",
        stop_at_full: true,
        lambda: 0x3ff0000000000000,
        lambda_hi: 0x3ff6553c77ee01da,
        path_computations: 1440,
        parent_lambda: 0x3ff0000000000000,
    },
    // 20 commodities: λ ∈ [1.2972972972972974, 1.4268486915032768];
    // parent λ 1.2453040165580664.
    Pin {
        spec: "dd:n=20,ports=6,degree=4,servers=1",
        stop_at_full: false,
        lambda: 0x3ff4c1bacf914c1c,
        lambda_hi: 0x3ff6d45f4b258d2d,
        path_computations: 3840,
        parent_lambda: 0x3ff3ecc3e78b1c02,
    },
    Pin {
        spec: "dd:n=20,ports=6,degree=4,servers=1",
        stop_at_full: true,
        lambda: 0x3ff0000000000000,
        lambda_hi: 0x3ff72c37d1f58c08,
        path_computations: 640,
        parent_lambda: 0x3ff0000000000000,
    },
    // 17 commodities: λ ∈ [0.7272727272727273, 0.7991044724513753];
    // parent λ 0.6813737872225606.
    Pin {
        spec: "leafspine:leaf=6,spine=3,servers=4",
        stop_at_full: false,
        lambda: 0x3fe745d1745d1746,
        lambda_hi: 0x3fe992438ae882fd,
        path_computations: 480,
        parent_lambda: 0x3fe5cdd0668f1f37,
    },
    Pin {
        spec: "leafspine:leaf=6,spine=3,servers=4",
        stop_at_full: true,
        lambda: 0x3fe745d1745d1746,
        lambda_hi: 0x3fe992438ae882fd,
        path_computations: 480,
        parent_lambda: 0x3fe5cdd0668f1f37,
    },
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
    for pin in PINS {
        let (csr, commodities) = instance(pin.spec);
        let opts = ThroughputOptions { epsilon: EPSILON, stop_at_full: pin.stop_at_full };
        let sol = max_concurrent_flow(&csr, &commodities, opts);
        assert_eq!(
            (sol.lambda.to_bits(), sol.lambda_hi.to_bits(), sol.path_computations),
            (pin.lambda, pin.lambda_hi, pin.path_computations),
            "{} stop_at_full {}: λ = {}, λ_hi = {}",
            pin.spec,
            pin.stop_at_full,
            sol.lambda,
            sol.lambda_hi
        );
        let parent = f64::from_bits(pin.parent_lambda);
        assert!(parent <= sol.lambda_hi, "{}: parent λ {parent} above λ_hi", pin.spec);
    }
}

#[test]
fn pins_cover_every_generator_with_and_without_cap() {
    for generator in jellyfish_topology::spec::generators() {
        for stop_at_full in [false, true] {
            assert!(
                PINS.iter().any(|pin| {
                    pin.spec.split(':').next() == Some(generator.name())
                        && pin.stop_at_full == stop_at_full
                }),
                "no pin for {} with stop_at_full {stop_at_full}",
                generator.name()
            );
        }
    }
}
