//! Proptests for the flow-crate hot paths (PERF.md): the Garg–Könemann
//! solver must be a pure function of its inputs whose certificate brackets
//! the optimum, and the fast Kernighan–Lin refinement must reproduce the
//! reference pair-scan's partition (hence its cut weight) exactly on random
//! topologies and random balanced starts.

use jellyfish_flow::bisection::{
    kl_refine, kl_refine_reference, min_bisection_heuristic, min_bisection_heuristic_reference,
};
use jellyfish_flow::mcf::{max_concurrent_flow, Commodity, McfStop};
use jellyfish_flow::throughput::ThroughputOptions;
use jellyfish_topology::{JellyfishBuilder, Topology};
use proptest::prelude::*;

fn jellyfish(n: usize, seed: u64) -> Topology {
    JellyfishBuilder::new(n, 8, 4).seed(seed).build().unwrap()
}

/// A deterministic pseudo-random balanced partition: nodes ordered by a
/// keyed multiplicative hash, first half in A.
fn balanced_start(n: usize, seed: u64) -> Vec<bool> {
    let key = seed | 1;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| (v as u64 ^ seed).wrapping_mul(key).rotate_left(17));
    let mut in_a = vec![false; n];
    for &v in order.iter().take(n / 2) {
        in_a[v] = true;
    }
    in_a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The GK solver is a pure function of its inputs (two runs agree to
    /// the bit), its certificate brackets the optimum (λ ≤ λ_hi, closed to
    /// within 1 + ε unless the `D(l) ≥ 1` backstop stopped the solve), and λ
    /// never exceeds the independent cut bound of any commodity: it cannot
    /// route more than its source's out-degree or its destination's
    /// in-degree.
    #[test]
    fn gk_lambda_deterministic_and_consistent(
        n in 8usize..24,
        seed in any::<u64>(),
        pairs in 1usize..6,
    ) {
        let topo = jellyfish(n, seed);
        let csr = topo.csr();
        let commodities: Vec<Commodity> = (0..pairs)
            .map(|i| Commodity {
                src: (seed.wrapping_add(i as u64) % n as u64) as usize,
                dst: (seed.wrapping_add(i as u64).wrapping_mul(31) % n as u64) as usize,
                demand: 1.0,
            })
            .collect();
        let opts = ThroughputOptions { epsilon: 0.25, stop_at_full: false };
        let a = max_concurrent_flow(&csr, &commodities, opts);
        let b = max_concurrent_flow(&csr, &commodities, opts);
        prop_assert_eq!(a.lambda.to_bits(), b.lambda.to_bits());
        prop_assert_eq!(a.lambda_hi.to_bits(), b.lambda_hi.to_bits());
        prop_assert_eq!((a.stop, a.path_computations), (b.stop, b.path_computations));
        prop_assert!(a.lambda <= a.lambda_hi, "{:?}", a);
        if a.stop != McfStop::Backstop {
            prop_assert!(a.lambda_hi <= (1.0 + opts.epsilon) * a.lambda, "{:?}", a);
        }
        for c in commodities.iter().filter(|c| c.src != c.dst) {
            let cut = csr.degree(c.src).min(csr.degree(c.dst)) as f64 / c.demand;
            prop_assert!(a.lambda <= cut, "{:?} above the cut bound {} of {:?}", a, cut, c);
        }
    }

    /// The fast sorted-partner Kernighan–Lin refinement lands on exactly the
    /// reference pair-scan's partition from any balanced start — same bits in
    /// `in_a`, hence the same cut weight.
    #[test]
    fn kl_refine_matches_reference(n in 8usize..40, seed in any::<u64>()) {
        let topo = jellyfish(n, seed);
        let csr = topo.csr();
        let start = balanced_start(n, seed);
        let mut fast = start.clone();
        kl_refine(&csr, &mut fast);
        let mut reference = start;
        kl_refine_reference(&csr, &mut reference);
        prop_assert_eq!(&fast, &reference, "n {} seed {}", n, seed);
        prop_assert_eq!(csr.cut_size(&fast), csr.cut_size(&reference));
    }

    /// The full restart search agrees with its reference-driven twin on the
    /// partition, the crossing-link count, and the normalized bandwidth bits.
    #[test]
    fn min_bisection_matches_reference(
        n in 8usize..32,
        restarts in 1usize..4,
        seed in any::<u64>(),
    ) {
        let topo = jellyfish(n, seed);
        let fast = min_bisection_heuristic(&topo, restarts, seed);
        let reference = min_bisection_heuristic_reference(&topo, restarts, seed);
        prop_assert_eq!(fast.partition, reference.partition);
        prop_assert_eq!(fast.crossing_links, reference.crossing_links);
        prop_assert_eq!(fast.normalized.to_bits(), reference.normalized.to_bits());
    }
}
