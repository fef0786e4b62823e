//! Benchmark graphs approximating the best-known degree-diameter graphs
//! (paper §4.1, Figure 3).
//!
//! The paper benchmarks Jellyfish against the best-known graphs from the
//! degree-diameter problem [Comellas & Delorme]. Those graphs are an external
//! dataset we do not have, so — per the substitution rule in DESIGN.md — we
//! generate benchmark graphs at the paper's nine (switches, ports, network
//! degree) points ourselves:
//!
//! * where a classical optimal construction exists at the exact size (e.g.
//!   the Petersen graph, complete graphs, cycles) we build it directly;
//! * otherwise we run a simulated-annealing optimizer that minimizes average
//!   shortest-path length (the quantity that actually drives throughput)
//!   subject to the degree bound, starting from a random regular graph.
//!
//! The result is a graph that is meaningfully better-optimized than a random
//! one — exactly the role the degree-diameter graphs play in Figure 3.

use crate::csr::CsrGraph;
use crate::graph::Graph;
use crate::properties::path_length_stats;
use crate::rrg::JellyfishBuilder;
use crate::topology::{Topology, TopologyError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The nine configurations of Figure 3 as `(switches, ports, network_degree)`.
pub const FIGURE3_CONFIGS: [(usize, usize, usize); 9] = [
    (132, 4, 3),
    (72, 7, 5),
    (98, 6, 4),
    (50, 11, 7),
    (111, 8, 6),
    (212, 7, 5),
    (168, 10, 7),
    (104, 16, 11),
    (198, 24, 16),
];

/// Parameters of the simulated-annealing optimizer.
#[derive(Debug, Clone, Copy)]
pub struct AnnealParams {
    /// Number of proposed rewiring moves.
    pub iterations: usize,
    /// Initial temperature (in units of average-path-length delta).
    pub initial_temperature: f64,
    /// Multiplicative cooling applied every `iterations / 100` moves.
    pub cooling: f64,
}

impl Default for AnnealParams {
    fn default() -> Self {
        AnnealParams { iterations: 4000, initial_temperature: 0.05, cooling: 0.96 }
    }
}

/// Builds a low-average-path-length `degree`-regular benchmark graph on `n`
/// nodes by simulated annealing from a random regular graph.
///
/// The per-switch port count is `ports`; the remaining `ports - degree`
/// ports carry servers, mirroring how the paper attaches servers to the
/// degree-diameter graphs.
pub fn optimized_graph(
    n: usize,
    ports: usize,
    degree: usize,
    params: AnnealParams,
    seed: u64,
) -> Result<Topology, TopologyError> {
    // The classical short-cut below computes `ports - degree` before
    // anything else checks the degree.
    if degree > ports {
        return Err(TopologyError::InvalidParameters(format!(
            "network degree {degree} exceeds port count {ports}"
        )));
    }
    // Special-case exact classical optima at small sizes.
    if let Some(g) = classical_graph(n, degree) {
        let topo = Topology::homogeneous(g, ports, ports - degree)
            .with_name(format!("degree-diameter-classical(n={n},d={degree})"));
        return Ok(topo);
    }
    let start = JellyfishBuilder::new(n, ports, degree).seed(seed).build()?;
    let mut graph = start.graph().clone();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA11E);
    let mean_path_length = |g: &Graph| path_length_stats(&CsrGraph::from_graph(g)).mean;
    let mut current = mean_path_length(&graph);
    let mut best_graph = graph.clone();
    let mut best = current;
    let mut temperature = params.initial_temperature;
    let cool_every = (params.iterations / 100).max(1);

    for it in 0..params.iterations {
        // Propose a double edge swap: (a,b),(c,d) -> (a,c),(b,d). Degree is
        // preserved; reject if it creates parallel edges or disconnects.
        let m = graph.num_edges();
        if m < 2 {
            break;
        }
        let e1 = graph.edge_at(rng.gen_range(0..m));
        let e2 = graph.edge_at(rng.gen_range(0..m));
        let (a, b, c, d) = (e1.a, e1.b, e2.a, e2.b);
        if a == c || a == d || b == c || b == d {
            continue;
        }
        if graph.has_edge(a, c) || graph.has_edge(b, d) {
            continue;
        }
        graph.remove_edge(a, b);
        graph.remove_edge(c, d);
        graph.add_edge(a, c);
        graph.add_edge(b, d);
        let candidate = if graph.is_connected() { mean_path_length(&graph) } else { f64::INFINITY };
        let delta = candidate - current;
        let accept = delta < 0.0
            || (temperature > 0.0
                && candidate.is_finite()
                && rng.gen::<f64>() < (-delta / temperature).exp());
        if accept {
            current = candidate;
            if current < best {
                best = current;
                best_graph = graph.clone();
            }
        } else {
            // Undo the swap.
            graph.remove_edge(a, c);
            graph.remove_edge(b, d);
            graph.add_edge(a, b);
            graph.add_edge(c, d);
        }
        if it % cool_every == 0 {
            temperature *= params.cooling;
        }
    }

    let topo = Topology::homogeneous(best_graph, ports, ports - degree)
        .with_name(format!("degree-diameter-annealed(n={n},d={degree})"));
    debug_assert!(topo.check_invariants().is_ok());
    Ok(topo)
}

/// Returns a classical optimal/near-optimal degree-diameter construction at
/// the exact `(n, degree)` point, if one is built in.
fn classical_graph(n: usize, degree: usize) -> Option<Graph> {
    match (n, degree) {
        // Petersen graph: 10 nodes, degree 3, diameter 2 (optimal Moore graph).
        (10, 3) => {
            let mut g = Graph::new(10);
            // Outer 5-cycle.
            for i in 0..5 {
                g.add_edge(i, (i + 1) % 5);
            }
            // Inner pentagram.
            for i in 0..5 {
                g.add_edge(5 + i, 5 + (i + 2) % 5);
            }
            // Spokes.
            for i in 0..5 {
                g.add_edge(i, 5 + i);
            }
            Some(g)
        }
        // Complete graph when degree = n-1.
        (n, d) if d + 1 == n && n >= 2 => {
            let mut g = Graph::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    g.add_edge(u, v);
                }
            }
            Some(g)
        }
        // Cycle for degree 2.
        (n, 2) if n >= 3 => {
            let mut g = Graph::new(n);
            for i in 0..n {
                g.add_edge(i, (i + 1) % n);
            }
            Some(g)
        }
        _ => None,
    }
}

/// Builds the benchmark graph and a same-equipment Jellyfish topology for one
/// Figure 3 configuration, attaching `servers_per_switch` servers to every
/// switch of both. Returns `(benchmark, jellyfish)`.
pub fn figure3_pair(
    switches: usize,
    ports: usize,
    degree: usize,
    servers_per_switch: usize,
    seed: u64,
) -> Result<(Topology, Topology), TopologyError> {
    if degree + servers_per_switch > ports {
        return Err(TopologyError::InvalidParameters(format!(
            "degree {degree} + servers {servers_per_switch} exceeds {ports} ports"
        )));
    }
    let mut bench = optimized_graph(switches, ports, degree, AnnealParams::default(), seed)?;
    let mut jelly = JellyfishBuilder::new(switches, ports, degree).seed(seed ^ 0xF00D).build()?;
    for topo in [&mut bench, &mut jelly] {
        for v in 0..switches {
            topo.set_servers(v, servers_per_switch).expect("server count validated above");
        }
    }
    Ok((bench, jelly))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn petersen_graph_is_moore_optimal() {
        let g = classical_graph(10, 3).unwrap();
        assert_eq!(g.num_edges(), 15);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 3);
        }
        let stats = path_length_stats(&CsrGraph::from_graph(&g));
        assert_eq!(stats.diameter, 2);
        // ASPL of the Petersen graph is (3*1 + 6*2)/9 = 5/3.
        assert!((stats.mean - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn complete_and_cycle_classical_cases() {
        let k5 = classical_graph(5, 4).unwrap();
        assert_eq!(k5.num_edges(), 10);
        assert_eq!(path_length_stats(&CsrGraph::from_graph(&k5)).diameter, 1);
        let c8 = classical_graph(8, 2).unwrap();
        assert_eq!(path_length_stats(&CsrGraph::from_graph(&c8)).diameter, 4);
        assert!(classical_graph(20, 7).is_none());
    }

    #[test]
    fn annealing_improves_or_matches_random_graph() {
        let n = 40;
        let degree = 4;
        let random = JellyfishBuilder::new(n, 6, degree).seed(8).build().unwrap();
        let random_aspl = path_length_stats(&random.csr()).mean;
        let params = AnnealParams { iterations: 1500, ..AnnealParams::default() };
        let optimized = optimized_graph(n, 6, degree, params, 8).unwrap();
        let optimized_aspl = path_length_stats(&optimized.csr()).mean;
        assert!(
            optimized_aspl <= random_aspl + 1e-9,
            "annealing made the graph worse: {optimized_aspl} vs {random_aspl}"
        );
        // Degree bound respected.
        for v in optimized.graph().nodes() {
            assert!(optimized.graph().degree(v) <= degree);
        }
        assert!(optimized.graph().is_connected());
    }

    #[test]
    fn optimized_graph_uses_classical_construction_when_available() {
        let topo = optimized_graph(10, 5, 3, AnnealParams::default(), 0).unwrap();
        assert!(topo.name().contains("classical"));
        assert_eq!(path_length_stats(&topo.csr()).diameter, 2);
        assert_eq!(topo.total_servers(), 10 * 2);
    }

    #[test]
    fn figure3_configs_are_the_paper_points() {
        assert_eq!(FIGURE3_CONFIGS.len(), 9);
        assert_eq!(FIGURE3_CONFIGS[0], (132, 4, 3));
        assert_eq!(FIGURE3_CONFIGS[8], (198, 24, 16));
        // Every configuration leaves at least one port for servers.
        for &(_, ports, degree) in &FIGURE3_CONFIGS {
            assert!(ports > degree);
        }
    }

    #[test]
    fn figure3_pair_same_equipment() {
        let (bench, jelly) = figure3_pair(50, 11, 7, 2, 3).unwrap();
        assert_eq!(bench.num_switches(), jelly.num_switches());
        assert_eq!(bench.total_ports(), jelly.total_ports());
        assert_eq!(bench.total_servers(), 100);
        assert_eq!(jelly.total_servers(), 100);
        assert!(bench.graph().is_connected());
        assert!(jelly.graph().is_connected());
    }

    #[test]
    fn figure3_pair_rejects_overfull_switches() {
        assert!(figure3_pair(50, 11, 7, 5, 3).is_err());
    }
}
