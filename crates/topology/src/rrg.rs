//! Jellyfish topology construction: a degree-bounded random (near-)regular
//! graph among top-of-rack switches (paper §3).
//!
//! The construction follows the paper's "sufficiently uniform" procedure:
//! repeatedly pick a random pair of switches that both have free network
//! ports and are not already neighbors, and join them. When no such pair
//! remains but some switch still has two or more free ports, incorporate
//! those ports by removing a uniform-random existing link `(x, y)` and adding
//! `(p, x)` and `(p, y)`. At most one port in the whole network may remain
//! unmatched.
//!
//! One private wiring loop runs the procedure over a slice of per-switch
//! network-degree targets: [`JellyfishBuilder::build`] passes one uniform
//! target `r` for every switch, [`build_heterogeneous`] a target per switch.
//! The link splice is the one sampler incremental expansion uses as well.

use crate::expansion::pick_splice_link;
use crate::graph::Graph;
use crate::topology::{SwitchKind, Topology, TopologyError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Full restarts allowed before giving up (rarely needed; the
/// swap-completion step almost always succeeds first try).
const ATTEMPTS: u64 = 50;

/// Builder for Jellyfish random-regular-graph topologies `RRG(N, k, r)`.
///
/// * `switches` — number of ToR switches `N`;
/// * `ports` — ports per switch `k`;
/// * `network_degree` — ports used for the switch-to-switch network `r`
///   (the remaining `k - r` ports carry servers).
///
/// ```
/// use jellyfish_topology::JellyfishBuilder;
/// let topo = JellyfishBuilder::new(30, 8, 5).seed(42).build().unwrap();
/// assert_eq!(topo.num_switches(), 30);
/// assert_eq!(topo.total_servers(), 30 * 3);
/// // Near-regular: every switch uses r or r-1 network ports.
/// assert!(topo.graph().min_degree() >= 4);
/// ```
#[derive(Debug, Clone)]
pub struct JellyfishBuilder {
    switches: usize,
    ports: usize,
    network_degree: usize,
    seed: u64,
}

impl JellyfishBuilder {
    /// Creates a builder for `RRG(switches, ports, network_degree)`.
    pub fn new(switches: usize, ports: usize, network_degree: usize) -> Self {
        JellyfishBuilder { switches, ports, network_degree, seed: 0xD1CE }
    }

    /// Sets the RNG seed (construction is deterministic given the seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the parameters without building.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.switches == 0 {
            return Err(TopologyError::InvalidParameters("need at least one switch".into()));
        }
        if self.network_degree > self.ports {
            return Err(TopologyError::InvalidParameters(format!(
                "network degree {} exceeds port count {}",
                self.network_degree, self.ports
            )));
        }
        if self.network_degree >= self.switches {
            return Err(TopologyError::Infeasible(format!(
                "network degree {} requires at least {} switches (simple graph), have {}",
                self.network_degree,
                self.network_degree + 1,
                self.switches
            )));
        }
        if self.switches > 1 && self.network_degree == 0 {
            return Err(TopologyError::Infeasible(
                "network degree 0 with more than one switch yields a disconnected network".into(),
            ));
        }
        Ok(())
    }

    /// Builds the topology.
    ///
    /// The result is connected and near-regular: every switch has network
    /// degree `r` except possibly one switch with degree `r - 1` (when
    /// `N * r` is odd, one port cannot be matched, exactly as the paper
    /// describes).
    pub fn build(&self) -> Result<Topology, TopologyError> {
        self.validate()?;
        let graph =
            wire(&vec![self.network_degree; self.switches], self.seed).ok_or_else(|| {
                TopologyError::ConstructionFailed(format!(
                    "could not build a connected RRG(N={}, k={}, r={}) in {ATTEMPTS} attempts",
                    self.switches, self.ports, self.network_degree
                ))
            })?;
        let servers = self.ports - self.network_degree;
        let topo = Topology::homogeneous(graph, self.ports, servers).with_name(format!(
            "jellyfish(N={},k={},r={})",
            self.switches, self.ports, self.network_degree
        ));
        debug_assert!(topo.check_invariants().is_ok());
        Ok(topo)
    }
}

/// Builds a heterogeneous Jellyfish topology: each switch `i` has
/// `ports[i]` ports of which `network_degree[i]` are used for the network.
///
/// This supports the paper's heterogeneous-expansion discussion (§4.2): newer
/// switches with higher port counts can be mixed freely into the random
/// graph. The construction is the same wiring loop as
/// [`JellyfishBuilder::build`], with per-switch degree targets.
pub fn build_heterogeneous(
    ports: &[usize],
    network_degree: &[usize],
    seed: u64,
) -> Result<Topology, TopologyError> {
    if ports.len() != network_degree.len() {
        return Err(TopologyError::InvalidParameters(
            "ports and network_degree must have the same length".into(),
        ));
    }
    let n = ports.len();
    if n == 0 {
        return Err(TopologyError::InvalidParameters("need at least one switch".into()));
    }
    for i in 0..n {
        if network_degree[i] > ports[i] {
            return Err(TopologyError::InvalidParameters(format!(
                "switch {i}: network degree {} exceeds ports {}",
                network_degree[i], ports[i]
            )));
        }
        if network_degree[i] >= n && n > 1 {
            return Err(TopologyError::Infeasible(format!(
                "switch {i}: network degree {} too large for {} switches",
                network_degree[i], n
            )));
        }
    }
    let graph = wire(network_degree, seed).ok_or_else(|| {
        TopologyError::ConstructionFailed(
            "could not build a connected heterogeneous Jellyfish topology".into(),
        )
    })?;
    let servers: Vec<usize> = (0..n).map(|i| ports[i] - network_degree[i]).collect();
    let topo = Topology::from_parts(
        graph,
        ports.to_vec(),
        servers,
        vec![SwitchKind::TopOfRack; n],
        "jellyfish-heterogeneous",
    );
    debug_assert!(topo.check_invariants().is_ok());
    Ok(topo)
}

/// Wires switch `v` up to `targets[v]` network links, restarting with a
/// seed derived from the attempt counter until the graph is connected.
/// Returns `None` after [`ATTEMPTS`] disconnected attempts.
fn wire(targets: &[usize], seed: u64) -> Option<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    for attempt in 0..ATTEMPTS {
        let graph = try_wire(targets, &mut rng);
        if graph.is_connected() || targets.len() == 1 {
            return Some(graph);
        }
        rng = StdRng::seed_from_u64(seed.wrapping_add(attempt + 1));
    }
    None
}

/// One construction attempt: random pairing, swap completion, then
/// single-port matching.
fn try_wire(targets: &[usize], rng: &mut StdRng) -> Graph {
    let n = targets.len();
    let mut graph = Graph::new(n);

    // Phase 1: random pairing. Keep a pool of switches with free ports and
    // repeatedly try to connect two distinct, non-adjacent members.
    let mut free: Vec<usize> = (0..n).filter(|&v| targets[v] > 0).collect();
    let mut stall = 0usize;
    // The pairing phase is done when fewer than two switches have free
    // ports, or when all remaining free-port switches form a clique among
    // themselves (no further simple edge can be added).
    while free.len() >= 2 {
        let i = rng.gen_range(0..free.len());
        let mut j = rng.gen_range(0..free.len() - 1);
        if j >= i {
            j += 1;
        }
        let (u, v) = (free[i], free[j]);
        if !graph.has_edge(u, v) {
            graph.add_edge(u, v);
            stall = 0;
            free.retain(|&x| graph.degree(x) < targets[x]);
        } else {
            stall += 1;
            // If we keep hitting already-connected pairs, check whether the
            // free pool is saturated (every pair already adjacent).
            if stall > 8 * free.len() * free.len() + 64 {
                if pool_saturated(&graph, &free) {
                    break;
                }
                stall = 0;
            }
        }
    }

    // Phase 2: swap completion. Any switch with >= 2 free ports steals a
    // random existing link (x, y) that touches neither of its neighbors.
    let mut progress = true;
    while progress {
        progress = false;
        for (p, &target) in targets.iter().enumerate() {
            while target.saturating_sub(graph.degree(p)) >= 2 {
                let Some((x, y)) = pick_splice_link(&graph, p, rng) else {
                    break;
                };
                graph.remove_edge(x, y);
                graph.add_edge(p, x);
                graph.add_edge(p, y);
                progress = true;
            }
        }
    }
    // Phase 3: pair up switches left with exactly one free port each
    // (possible when the pairing phase saturates with mutually adjacent
    // leftovers). After this at most one port remains unmatched.
    finish_single_ports(&mut graph, targets, rng);
    graph
}

/// Resolves switches that each have exactly one free port left. Two such
/// switches are either connected directly (if not yet adjacent) or, when
/// all leftovers are pairwise adjacent, incorporated by a double swap:
/// remove an existing link (x, y) and add (u, x) and (v, y).
fn finish_single_ports(graph: &mut Graph, targets: &[usize], rng: &mut StdRng) {
    loop {
        let singles: Vec<usize> =
            (0..graph.num_nodes()).filter(|&v| targets[v] > graph.degree(v)).collect();
        if singles.len() < 2 {
            return;
        }
        // Try a direct connection between any two deficient switches.
        let mut connected = false;
        'search: for (i, &u) in singles.iter().enumerate() {
            for &v in &singles[i + 1..] {
                if !graph.has_edge(u, v) {
                    graph.add_edge(u, v);
                    connected = true;
                    break 'search;
                }
            }
        }
        if connected {
            continue;
        }
        // All deficient switches are pairwise adjacent: double swap.
        let (u, v) = (singles[0], singles[1]);
        let m = graph.num_edges();
        let mut swapped = false;
        let start = if m == 0 { 0 } else { rng.gen_range(0..m) };
        for off in 0..m {
            let e = graph.edge_at((start + off) % m);
            let (x, y) = (e.a, e.b);
            if x == u || x == v || y == u || y == v {
                continue;
            }
            // Orient the swap so both new links are simple.
            let (xu, yv) = if !graph.has_edge(u, x) && !graph.has_edge(v, y) {
                (x, y)
            } else if !graph.has_edge(u, y) && !graph.has_edge(v, x) {
                (y, x)
            } else {
                continue;
            };
            graph.remove_edge(x, y);
            graph.add_edge(u, xu);
            graph.add_edge(v, yv);
            swapped = true;
            break;
        }
        if !swapped {
            return; // nothing more can be done; leave the deficit
        }
    }
}

/// Returns true when every pair of switches in `pool` is already adjacent.
fn pool_saturated(graph: &Graph, pool: &[usize]) -> bool {
    pool.iter().enumerate().all(|(idx, &u)| pool[idx + 1..].iter().all(|&v| graph.has_edge(u, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_regular_connected_graph() {
        let topo = JellyfishBuilder::new(50, 10, 6).seed(1).build().unwrap();
        let g = topo.graph();
        assert!(g.is_connected());
        assert_eq!(g.num_nodes(), 50);
        // Even N*r: fully regular.
        for v in g.nodes() {
            assert_eq!(g.degree(v), 6, "switch {v} not regular");
        }
        assert_eq!(topo.total_servers(), 50 * 4);
        assert!(topo.check_invariants().is_ok());
    }

    #[test]
    fn odd_degree_sum_leaves_at_most_one_port_unmatched() {
        // N=25, r=5 => N*r = 125 odd: exactly one switch ends with degree 4.
        let topo = JellyfishBuilder::new(25, 8, 5).seed(3).build().unwrap();
        let g = topo.graph();
        let deficient: Vec<_> = g.nodes().filter(|&v| g.degree(v) < 5).collect();
        assert!(deficient.len() <= 1, "more than one unmatched port: {deficient:?}");
        for &v in &deficient {
            assert_eq!(g.degree(v), 4);
        }
        assert!(g.is_connected());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = JellyfishBuilder::new(40, 12, 8).seed(99).build().unwrap();
        let b = JellyfishBuilder::new(40, 12, 8).seed(99).build().unwrap();
        let ea: Vec<_> = a.graph().edges().collect();
        let eb: Vec<_> = b.graph().edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = JellyfishBuilder::new(40, 12, 8).seed(1).build().unwrap();
        let b = JellyfishBuilder::new(40, 12, 8).seed(2).build().unwrap();
        let ea: std::collections::BTreeSet<_> = a.graph().edges().collect();
        let eb: std::collections::BTreeSet<_> = b.graph().edges().collect();
        assert_ne!(ea, eb, "two seeds produced the same random graph");
    }

    #[test]
    fn paper_scale_instance_686_servers() {
        // Same equipment as a k=14 fat-tree: 245 switches of 14 ports.
        // Attaching ~686 servers means ~2.8 servers per switch; the paper uses
        // an equal split r=11, giving 245*3 = 735 capacity. Here we check the
        // canonical RRG(245, 14, 11) builds cleanly and is connected.
        let topo = JellyfishBuilder::new(245, 14, 11).seed(2012).build().unwrap();
        assert!(topo.graph().is_connected());
        assert_eq!(topo.total_servers(), 245 * 3);
        assert!(topo.graph().min_degree() >= 10);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(JellyfishBuilder::new(0, 4, 2).build().is_err());
        assert!(JellyfishBuilder::new(10, 4, 5).build().is_err());
        assert!(JellyfishBuilder::new(4, 8, 5).build().is_err(), "r >= N infeasible");
        assert!(JellyfishBuilder::new(10, 4, 0).build().is_err());
    }

    #[test]
    fn single_switch_is_allowed() {
        let topo = JellyfishBuilder::new(1, 48, 0).build().unwrap();
        assert_eq!(topo.num_switches(), 1);
        assert_eq!(topo.total_servers(), 48);
    }

    #[test]
    fn complete_graph_corner_case() {
        // r = N-1 forces the complete graph.
        let topo = JellyfishBuilder::new(6, 8, 5).seed(7).build().unwrap();
        let g = topo.graph();
        assert_eq!(g.num_edges(), 6 * 5 / 2);
        for u in g.nodes() {
            for v in g.nodes() {
                if u != v {
                    assert!(g.has_edge(u, v));
                }
            }
        }
    }

    #[test]
    fn heterogeneous_construction_mixed_port_counts() {
        // 20 old 24-port switches (r=10) mixed with 5 new 48-port switches (r=14).
        let mut ports = vec![24; 20];
        ports.extend(vec![48; 5]);
        let mut degree = vec![10usize; 20];
        degree.extend(vec![14usize; 5]);
        let topo = build_heterogeneous(&ports, &degree, 5).unwrap();
        assert!(topo.graph().is_connected());
        for i in 0..20 {
            assert!(topo.graph().degree(i) <= 10);
            assert_eq!(topo.servers(i), 24 - 10);
        }
        for i in 20..25 {
            assert!(topo.graph().degree(i) <= 14);
            assert_eq!(topo.servers(i), 48 - 14);
        }
        assert!(topo.check_invariants().is_ok());
    }

    #[test]
    fn uniform_targets_wire_the_same_graph_through_both_entry_points() {
        for (n, k, r) in [(20, 8, 5), (60, 12, 8), (33, 7, 4)] {
            for seed in 0..5 {
                let uniform = JellyfishBuilder::new(n, k, r).seed(seed).build().unwrap();
                let per_switch = build_heterogeneous(&vec![k; n], &vec![r; n], seed).unwrap();
                let a: Vec<_> = uniform.graph().edges().collect();
                let b: Vec<_> = per_switch.graph().edges().collect();
                assert_eq!(a, b, "RRG({n}, {k}, {r}) seed {seed}");
            }
        }
    }

    #[test]
    fn heterogeneous_rejects_mismatched_lengths() {
        assert!(build_heterogeneous(&[8, 8], &[4], 0).is_err());
        assert!(build_heterogeneous(&[8], &[9], 0).is_err());
    }

    #[test]
    fn near_regularity_across_many_seeds() {
        for seed in 0..12 {
            let topo = JellyfishBuilder::new(30, 10, 7).seed(seed).build().unwrap();
            let g = topo.graph();
            let deficient = g.nodes().filter(|&v| g.degree(v) < 7).count();
            assert!(deficient <= 1, "seed {seed}: {deficient} deficient switches");
            assert!(g.max_degree() <= 7);
            assert!(g.is_connected());
        }
    }
}
