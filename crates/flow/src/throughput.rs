//! Normalized throughput of a topology under a workload, with "ideal"
//! (fluid, splittable) routing — the paper's §4 capacity metric.
//!
//! The server-level flows are aggregated to switch-level commodities as they
//! are consumed (intra-switch flows never touch the interconnect), so a lazy
//! spec-built stream is never materialized; the max-concurrent-flow
//! solver computes the fraction λ of every demand that can be routed
//! simultaneously, and the per-flow normalized throughput is `min(λ, 1)`
//! because a server can never exceed its NIC rate.

use crate::mcf::{max_concurrent_flow, Commodity};
use jellyfish_topology::Topology;
use jellyfish_traffic::{switch_demands, Flow, ServerMap};

/// The range [`ThroughputOptions::epsilon`] is clamped to.
const EPSILON_RANGE: (f64, f64) = (1e-3, 0.5);

/// Options of the flow solver, for [`normalized_throughput`] and
/// [`max_concurrent_flow`].
#[derive(Debug, Clone, Copy)]
pub struct ThroughputOptions {
    /// Approximation accuracy ε, clamped to `[0.001, 0.5]`: once the
    /// certificate closes, the returned λ is ≥ OPT/(1 + ε) ≥ (1 − ε)·OPT.
    /// Smaller is slower (roughly 1/ε²).
    pub epsilon: f64,
    /// If true (default), stop as soon as full throughput (λ ≥ 1) is
    /// certified instead of computing the exact λ.
    pub stop_at_full: bool,
}

impl Default for ThroughputOptions {
    fn default() -> Self {
        ThroughputOptions { epsilon: 0.05, stop_at_full: true }
    }
}

impl ThroughputOptions {
    /// The ε the solver actually uses: `epsilon` clamped to `[0.001, 0.5]`.
    pub fn clamped_epsilon(&self) -> f64 {
        self.epsilon.clamp(EPSILON_RANGE.0, EPSILON_RANGE.1)
    }
}

/// Result of a throughput evaluation.
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    /// The concurrent-flow fraction λ (not capped at 1): a certified lower
    /// bound on the optimum λ*.
    pub lambda: f64,
    /// A certified upper bound on λ*; with `stop_at_full: false` it is
    /// within a factor `1 + ε` of `lambda` unless the solver's `D(l) ≥ 1`
    /// backstop stopped first.
    pub lambda_hi: f64,
    /// Normalized per-flow throughput `min(λ, 1)`, the paper's y-axis unit.
    pub normalized: f64,
    /// Number of switch-level commodities after aggregation.
    pub commodities: usize,
    /// The solver accuracy ε used (the requested one clamped to the
    /// solver's range); λ ≥ (1 − ε)·λ* unless a cap or the backstop
    /// stopped the solve.
    pub epsilon: f64,
}

impl ThroughputResult {
    /// `true` when every flow achieves its full demand, within the solver's
    /// approximation tolerance: because the solver under-reports the optimum
    /// by up to a factor (1 − ε), a measured `normalized ≥ 1 − 1.5ε` is
    /// treated as full throughput.
    pub fn at_full_throughput(&self) -> bool {
        self.normalized >= 1.0 - 1.5 * self.epsilon - 1e-9
    }
}

/// Computes the normalized throughput of `topo` under `flows` (a spec-built
/// stream or a resident `&TrafficMatrix`) with fluid optimal routing. Peak
/// memory is the switch-pair aggregation state, never the flow count.
pub fn normalized_throughput(
    topo: &Topology,
    servers: &ServerMap,
    flows: impl IntoIterator<Item = Flow>,
    opts: ThroughputOptions,
) -> ThroughputResult {
    let commodities: Vec<Commodity> = switch_demands(flows, servers)
        .into_iter()
        .map(|(src, dst, demand)| Commodity { src, dst, demand })
        .collect();
    if commodities.is_empty() {
        return ThroughputResult {
            lambda: f64::INFINITY,
            lambda_hi: f64::INFINITY,
            normalized: 1.0,
            commodities: 0,
            epsilon: opts.clamped_epsilon(),
        };
    }
    let solution = max_concurrent_flow(&topo.csr(), &commodities, opts);
    ThroughputResult {
        lambda: solution.lambda,
        lambda_hi: solution.lambda_hi,
        normalized: solution.lambda.clamp(0.0, 1.0),
        commodities: commodities.len(),
        epsilon: opts.clamped_epsilon(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish_topology::fattree::FatTree;
    use jellyfish_topology::JellyfishBuilder;
    use jellyfish_traffic::{TrafficMatrix, TrafficSpec};

    #[test]
    fn undersubscribed_jellyfish_reaches_full_throughput() {
        // 2 servers per switch against 6 network ports: far below the
        // oversubscription point, so every permutation is routable.
        let topo = JellyfishBuilder::new(20, 8, 6).seed(1).build().unwrap();
        let servers = ServerMap::new(&topo);
        let tm = TrafficMatrix::random_permutation(&servers, 2);
        let r = normalized_throughput(&topo, &servers, &tm, ThroughputOptions::default());
        assert!(r.at_full_throughput(), "normalized = {}", r.normalized);
        assert!(r.commodities > 0);
    }

    #[test]
    fn oversubscribed_jellyfish_below_full_throughput() {
        // 6 servers per switch with only 3 network ports: heavily
        // oversubscribed, permutations cannot all be satisfied.
        let topo = JellyfishBuilder::new(20, 9, 3).seed(3).build().unwrap();
        let servers = ServerMap::new(&topo);
        let tm = TrafficMatrix::random_permutation(&servers, 4);
        let opts = ThroughputOptions { stop_at_full: false, ..Default::default() };
        let r = normalized_throughput(&topo, &servers, &tm, opts);
        assert!(r.normalized < 0.8, "normalized = {}", r.normalized);
        assert!(r.normalized > 0.05, "implausibly low throughput {}", r.normalized);
    }

    #[test]
    fn fat_tree_full_bisection_handles_permutation() {
        let ft = FatTree::new(4).unwrap();
        let topo = ft.into_topology();
        let servers = ServerMap::new(&topo);
        let tm = TrafficMatrix::random_permutation(&servers, 5);
        let r = normalized_throughput(&topo, &servers, &tm, ThroughputOptions::default());
        assert!(r.at_full_throughput(), "normalized = {}", r.normalized);
    }

    #[test]
    fn fat_tree_permutations_reach_one_minus_epsilon() {
        // A fat-tree routes any permutation at full rate, so λ* ≥ 1 and an
        // uncapped solve must report λ ≥ 1 − ε.
        for k in [4, 6, 8] {
            let topo = FatTree::new(k).unwrap().into_topology();
            let servers = ServerMap::new(&topo);
            for (epsilon, seed) in [(0.05, 1), (0.05, 2), (0.1, 1), (0.1, 3)] {
                let tm = TrafficMatrix::random_permutation(&servers, seed);
                let opts = ThroughputOptions { epsilon, stop_at_full: false };
                let r = normalized_throughput(&topo, &servers, &tm, opts);
                assert!(
                    r.lambda >= 1.0 - epsilon && r.lambda <= r.lambda_hi,
                    "k={k} ε={epsilon} seed {seed}: λ = {} ≤ λ_hi = {}",
                    r.lambda,
                    r.lambda_hi
                );
            }
        }
    }

    #[test]
    fn reported_epsilon_is_the_clamped_one() {
        // One flow between two switches: the λ ≥ 1 cap stops the solve
        // after its first phase, whatever the ε.
        let topo = JellyfishBuilder::new(12, 8, 5).seed(2).build().unwrap();
        let servers = ServerMap::new(&topo);
        let flow = Flow { src: 0, dst: servers.num_servers() - 1, demand: 1.0 };
        for (asked, used) in [(1e-6, 1e-3), (0.06, 0.06), (0.9, 0.5)] {
            let opts = ThroughputOptions { epsilon: asked, stop_at_full: true };
            let r = normalized_throughput(&topo, &servers, [flow], opts);
            assert_eq!((r.commodities, r.epsilon), (1, used));
            assert_eq!(normalized_throughput(&topo, &servers, Vec::new(), opts).epsilon, used);
        }
    }

    #[test]
    fn stream_and_matrix_paths_agree_exactly() {
        let topo = JellyfishBuilder::new(12, 8, 5).seed(2).build().unwrap();
        let servers = ServerMap::new(&topo);
        let tm = TrafficMatrix::random_permutation(&servers, 9);
        let stream = TrafficSpec::permutation().stream(&servers, 9).unwrap();
        let opts = ThroughputOptions { stop_at_full: false, ..Default::default() };
        let eager = normalized_throughput(&topo, &servers, &tm, opts);
        let streamed = normalized_throughput(&topo, &servers, stream, opts);
        assert_eq!(eager.lambda.to_bits(), streamed.lambda.to_bits());
        assert_eq!(eager.lambda_hi.to_bits(), streamed.lambda_hi.to_bits());
        assert_eq!(eager.commodities, streamed.commodities);
    }

    #[test]
    fn empty_traffic_is_trivially_satisfied() {
        let topo = JellyfishBuilder::new(6, 6, 3).seed(1).build().unwrap();
        let servers = ServerMap::new(&topo);
        let r = normalized_throughput(&topo, &servers, Vec::new(), ThroughputOptions::default());
        assert_eq!(r.normalized, 1.0);
        assert_eq!(r.commodities, 0);
    }
}
