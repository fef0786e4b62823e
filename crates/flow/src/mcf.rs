//! Max-concurrent multicommodity flow via the Garg–Könemann multiplicative
//! weights framework.
//!
//! Given directed arc capacities (every undirected switch link contributes
//! two arcs of unit capacity — links are full duplex) and a set of
//! commodities `(src, dst, demand)`, the solver computes the largest `λ` such
//! that `λ · demand_j` can be routed for every commodity simultaneously,
//! within a multiplicative `(1 − ε)` of the true optimum.
//!
//! Two variants are provided:
//!
//! * [`max_concurrent_flow`] — the textbook algorithm, where each routing
//!   step picks the currently-cheapest path with Dijkstra. This is the
//!   CPLEX-equivalent "optimal routing" oracle.
//! * [`max_concurrent_flow_on_paths`] — the same multiplicative-weights
//!   update restricted to a precomputed path set per commodity (e.g. the 8
//!   shortest paths). This is both much faster and exactly the quantity
//!   "best possible load balancing over k-shortest paths", which the paper's
//!   §5 routing study approaches from below with MPTCP.
//!
//! Both consume a [`CsrGraph`] snapshot, and all per-arc state (lengths,
//! accumulated flow) lives in flat vectors indexed by the snapshot's dense
//! arc ids — the inner Dijkstra loop never touches a hash map. See
//! DESIGN.md, substitution 1, for the CPLEX substitution argument and the
//! snapshot contract.

use jellyfish_routing::shortest::ShortestPathSearch;
use jellyfish_routing::Path;
use jellyfish_topology::{ArcId, CsrGraph, NodeId};
use std::collections::HashMap;

/// One commodity: a demand from a source switch to a destination switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Commodity {
    /// Source switch.
    pub src: NodeId,
    /// Destination switch.
    pub dst: NodeId,
    /// Demand in the same units as link capacity.
    pub demand: f64,
}

/// Options controlling the approximation.
#[derive(Debug, Clone, Copy)]
pub struct McfOptions {
    /// Approximation accuracy ε: the returned λ is ≥ (1 − ε)·OPT up to
    /// floating-point noise. Smaller is slower (roughly 1/ε²).
    pub epsilon: f64,
    /// Capacity of every directed switch-to-switch arc.
    pub link_capacity: f64,
    /// Stop early once λ provably reaches this value (useful for "is the
    /// network at full throughput?" checks where only λ ≥ 1 matters).
    pub lambda_cap: Option<f64>,
}

impl Default for McfOptions {
    fn default() -> Self {
        McfOptions { epsilon: 0.05, link_capacity: 1.0, lambda_cap: None }
    }
}

/// Result of a max-concurrent-flow computation.
#[derive(Debug, Clone)]
pub struct McfSolution {
    /// The achieved concurrent-flow fraction λ (possibly truncated at
    /// `lambda_cap`).
    pub lambda: f64,
    /// Scaled utilization in `[0, 1]` of every directed arc, indexed by the
    /// snapshot's dense [`ArcId`] (empty when the solve short-circuited
    /// before touching any arc). Use [`McfSolution::link_utilization`] for
    /// the endpoint-keyed view.
    pub arc_utilization: Vec<f64>,
    /// Number of shortest-path computations performed (profiling aid).
    pub path_computations: usize,
}

impl McfSolution {
    /// The utilization map keyed by arc endpoints `(u, v)` — a compatibility
    /// view materialized from [`McfSolution::arc_utilization`] on demand.
    /// `csr` must be the snapshot the solve ran on.
    pub fn link_utilization(&self, csr: &CsrGraph) -> HashMap<(NodeId, NodeId), f64> {
        let mut out = HashMap::with_capacity(self.arc_utilization.len());
        for u in csr.nodes() {
            for arc in csr.arc_range(u) {
                let util = self.arc_utilization.get(arc).copied().unwrap_or(0.0);
                out.insert((u, csr.arc_target(arc)), util);
            }
        }
        out
    }

    /// Maximum arc utilization (1.0 means some arc is saturated).
    pub fn max_utilization(&self) -> f64 {
        self.arc_utilization.iter().fold(0.0, |acc, &u| f64::max(acc, u))
    }

    /// Mean arc utilization across all arcs that carry any flow.
    pub fn mean_utilization(&self) -> f64 {
        let (count, sum) = self
            .arc_utilization
            .iter()
            .filter(|&&u| u > 0.0)
            .fold((0usize, 0.0f64), |(count, sum), &u| (count + 1, sum + u));
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }
}

/// Internal per-arc state for the multiplicative-weights algorithm: flat
/// slices indexed by dense arc id.
struct ArcState {
    length: Vec<f64>,
    flow: Vec<f64>,
    capacity: f64,
    /// Running total of `length · capacity` over all arcs, updated
    /// incrementally in `send_on_arcs` (the textbook loop re-sums every
    /// iteration; the increment is exact because each update multiplies a
    /// single arc's length).
    total_weighted_length: f64,
}

impl ArcState {
    fn new(csr: &CsrGraph, capacity: f64, delta: f64) -> Self {
        let num_arcs = csr.num_arcs();
        ArcState {
            length: vec![delta / capacity; num_arcs],
            flow: vec![0.0; num_arcs],
            capacity,
            total_weighted_length: delta * num_arcs as f64,
        }
    }

    #[inline]
    fn total_weighted_length(&self) -> f64 {
        self.total_weighted_length
    }

    fn path_bottleneck(&self) -> f64 {
        self.capacity
    }

    fn send_on_arcs(&mut self, arcs: &[ArcId], amount: f64, epsilon: f64) {
        // The multiplicative factor is the same for every arc on the path;
        // hoisting it out leaves the per-arc work branch-free and lets the
        // chunked kernel keep several arcs in flight.
        let factor = 1.0 + epsilon * amount / self.capacity;
        crate::kernels::gk_apply(
            &mut self.length,
            &mut self.flow,
            arcs,
            amount,
            factor,
            self.capacity,
            &mut self.total_weighted_length,
        );
    }

    #[inline]
    fn arc_length(&self, arc: ArcId) -> f64 {
        self.length[arc]
    }
}

/// Maps a node path to its arc ids. Panics if the path uses a non-link.
fn path_arcs(csr: &CsrGraph, path: &Path) -> Vec<ArcId> {
    path.windows(2)
        .map(|w| csr.arc_index(w[0], w[1]).expect("path traverses a link absent from the snapshot"))
        .collect()
}

/// Validates commodities against the snapshot; zero-demand commodities and
/// self-loops are dropped.
fn sanitize(csr: &CsrGraph, commodities: &[Commodity]) -> Vec<Commodity> {
    commodities
        .iter()
        .copied()
        .filter(|c| c.src != c.dst && c.demand > 0.0)
        .inspect(|c| {
            assert!(
                c.src < csr.num_nodes() && c.dst < csr.num_nodes(),
                "commodity endpoint out of range"
            );
        })
        .collect()
}

/// Max-concurrent multicommodity flow with a Dijkstra inner loop
/// (the "optimal routing" oracle).
///
/// Returns λ such that every commodity can simultaneously route a `λ`
/// fraction of its demand. With `opts.lambda_cap = Some(c)`, iteration stops
/// as soon as λ ≥ c can be certified, which is much faster when only a
/// threshold matters.
pub fn max_concurrent_flow(
    csr: &CsrGraph,
    commodities: &[Commodity],
    opts: McfOptions,
) -> McfSolution {
    let commodities = sanitize(csr, commodities);
    if commodities.is_empty() || csr.num_edges() == 0 {
        return McfSolution {
            lambda: if commodities.is_empty() { f64::INFINITY } else { 0.0 },
            arc_utilization: Vec::new(),
            path_computations: 0,
        };
    }
    let eps = opts.epsilon.clamp(1e-3, 0.5);
    let num_arcs = csr.num_arcs();
    // Garg–Könemann initialization.
    let delta = (1.0 + eps) / ((1.0 + eps) * num_arcs as f64).powf(1.0 / eps);
    let mut arcs = ArcState::new(csr, opts.link_capacity, delta);
    let scaling = ((1.0 + eps) / delta).ln() / (1.0 + eps).ln();
    let mut phases = 0.0f64;
    let mut path_computations = 0usize;
    let mut search = ShortestPathSearch::new();
    let mut path = Vec::new();

    'outer: while arcs.total_weighted_length() < 1.0 {
        for c in &commodities {
            let mut remaining = c.demand;
            while remaining > 1e-12 {
                if arcs.total_weighted_length() >= 1.0 {
                    break 'outer;
                }
                path_computations += 1;
                let found =
                    search.find_path(csr, c.src, c.dst, |_, arc| arcs.arc_length(arc), &mut path);
                if found.is_none() {
                    // Unreachable destination: λ is zero.
                    return McfSolution {
                        lambda: 0.0,
                        arc_utilization: Vec::new(),
                        path_computations,
                    };
                }
                let send = remaining.min(arcs.path_bottleneck());
                // `gk_apply` folds the total-weighted-length increments in
                // path order, which the search gives as `src → dst`.
                arcs.send_on_arcs(&path, send, eps);
                remaining -= send;
            }
        }
        phases += 1.0;
        if let Some(cap) = opts.lambda_cap {
            // λ after this many full phases is at least phases / scaling.
            if phases / scaling >= cap {
                break;
            }
        }
    }

    let lambda_raw = phases / scaling;
    let lambda = match opts.lambda_cap {
        Some(cap) => lambda_raw.min(cap),
        None => lambda_raw,
    };
    let utilization = scaled_utilization(&arcs, lambda_raw, phases);
    McfSolution { lambda, arc_utilization: utilization, path_computations }
}

/// Max-concurrent flow restricted to the provided paths: `paths[j]` is the
/// admissible path set for commodity `j` (must be non-empty and connect the
/// commodity endpoints).
///
/// This models "ideal load balancing over a fixed routing scheme" — e.g.
/// handing the k shortest paths to an optimal rate controller — and is the
/// quantity the paper's MPTCP-over-k-shortest-paths stack approximates.
pub fn max_concurrent_flow_on_paths(
    csr: &CsrGraph,
    commodities: &[Commodity],
    paths: &[Vec<Path>],
    opts: McfOptions,
) -> McfSolution {
    assert_eq!(commodities.len(), paths.len(), "one path set per commodity");
    let keep: Vec<usize> = (0..commodities.len())
        .filter(|&j| commodities[j].src != commodities[j].dst && commodities[j].demand > 0.0)
        .collect();
    if keep.is_empty() || csr.num_edges() == 0 {
        return McfSolution {
            lambda: if keep.is_empty() { f64::INFINITY } else { 0.0 },
            arc_utilization: Vec::new(),
            path_computations: 0,
        };
    }
    let eps = opts.epsilon.clamp(1e-3, 0.5);
    let num_arcs = csr.num_arcs();
    let delta = (1.0 + eps) / ((1.0 + eps) * num_arcs as f64).powf(1.0 / eps);
    let mut arcs = ArcState::new(csr, opts.link_capacity, delta);
    let scaling = ((1.0 + eps) / delta).ln() / (1.0 + eps).ln();
    let mut phases = 0.0f64;

    // Pre-resolve every admissible path to arc ids once; the inner loop then
    // scores candidates by flat slice lookups only.
    let mut arc_paths: Vec<Vec<Vec<ArcId>>> = vec![Vec::new(); commodities.len()];
    for &j in &keep {
        assert!(!paths[j].is_empty(), "commodity {j} has an empty path set");
        for p in &paths[j] {
            assert_eq!(p.first(), Some(&commodities[j].src));
            assert_eq!(p.last(), Some(&commodities[j].dst));
            arc_paths[j].push(path_arcs(csr, p));
        }
    }

    'outer: while arcs.total_weighted_length() < 1.0 {
        for &j in &keep {
            let c = commodities[j];
            let mut remaining = c.demand;
            while remaining > 1e-12 {
                if arcs.total_weighted_length() >= 1.0 {
                    break 'outer;
                }
                // Cheapest admissible path under current lengths.
                let best = arc_paths[j]
                    .iter()
                    .min_by(|a, b| {
                        let ca = crate::kernels::path_cost(&arcs.length, a);
                        let cb = crate::kernels::path_cost(&arcs.length, b);
                        ca.partial_cmp(&cb).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("non-empty path set");
                let send = remaining.min(arcs.path_bottleneck());
                arcs.send_on_arcs(best, send, eps);
                remaining -= send;
            }
        }
        phases += 1.0;
        if let Some(cap) = opts.lambda_cap {
            if phases / scaling >= cap {
                break;
            }
        }
    }

    let lambda_raw = phases / scaling;
    let lambda = match opts.lambda_cap {
        Some(cap) => lambda_raw.min(cap),
        None => lambda_raw,
    };
    let utilization = scaled_utilization(&arcs, lambda_raw, phases);
    McfSolution { lambda, arc_utilization: utilization, path_computations: 0 }
}

/// Converts raw accumulated flow into per-arc utilization consistent with the
/// returned λ: the algorithm routes every demand once per phase, so the true
/// (feasible) flow is the accumulated flow divided by the number of phases,
/// then multiplied by λ to express the concurrently-routable fraction. One
/// elementwise pass over the flat flow array.
fn scaled_utilization(arcs: &ArcState, lambda_raw: f64, phases: f64) -> Vec<f64> {
    if phases <= 0.0 {
        return Vec::new();
    }
    let scale = if lambda_raw > 0.0 { 1.0 } else { 0.0 };
    crate::kernels::scale_clamp(&arcs.flow, phases, scale, arcs.capacity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish_routing::yen::k_shortest_paths;
    use jellyfish_topology::{Graph, JellyfishBuilder};

    fn single_link() -> CsrGraph {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        CsrGraph::from_graph(&g)
    }

    #[test]
    fn single_commodity_on_single_link() {
        let g = single_link();
        let commodities = [Commodity { src: 0, dst: 1, demand: 1.0 }];
        let sol = max_concurrent_flow(&g, &commodities, McfOptions::default());
        // One unit of demand over a unit-capacity link: λ ≈ 1.
        assert!((sol.lambda - 1.0).abs() < 0.1, "lambda = {}", sol.lambda);
    }

    #[test]
    fn demand_double_capacity_halves_lambda() {
        let g = single_link();
        let commodities = [Commodity { src: 0, dst: 1, demand: 2.0 }];
        let sol = max_concurrent_flow(&g, &commodities, McfOptions::default());
        assert!((sol.lambda - 0.5).abs() < 0.06, "lambda = {}", sol.lambda);
    }

    #[test]
    fn two_opposite_commodities_use_both_directions() {
        // Full-duplex link: 0→1 and 1→0 each get their own unit arc.
        let g = single_link();
        let commodities =
            [Commodity { src: 0, dst: 1, demand: 1.0 }, Commodity { src: 1, dst: 0, demand: 1.0 }];
        let sol = max_concurrent_flow(&g, &commodities, McfOptions::default());
        assert!((sol.lambda - 1.0).abs() < 0.1, "lambda = {}", sol.lambda);
    }

    #[test]
    fn parallel_paths_double_capacity() {
        // 0 - 1 - 3 and 0 - 2 - 3: two disjoint 2-hop paths.
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 3);
        g.add_edge(0, 2);
        g.add_edge(2, 3);
        let g = CsrGraph::from_graph(&g);
        let commodities = [Commodity { src: 0, dst: 3, demand: 2.0 }];
        let sol = max_concurrent_flow(&g, &commodities, McfOptions::default());
        assert!((sol.lambda - 1.0).abs() < 0.1, "lambda = {}", sol.lambda);
        // Utilization spread across both paths.
        assert!(sol.max_utilization() <= 1.0 + 1e-9);
    }

    #[test]
    fn bottleneck_shared_by_two_commodities() {
        // Both commodities must cross the single 1-2 link: λ ≈ 0.5 each.
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        let g = CsrGraph::from_graph(&g);
        let commodities =
            [Commodity { src: 0, dst: 3, demand: 1.0 }, Commodity { src: 1, dst: 3, demand: 1.0 }];
        let sol = max_concurrent_flow(&g, &commodities, McfOptions::default());
        assert!((sol.lambda - 0.5).abs() < 0.06, "lambda = {}", sol.lambda);
    }

    #[test]
    fn unreachable_destination_gives_zero() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        let g = CsrGraph::from_graph(&g);
        let commodities = [Commodity { src: 0, dst: 2, demand: 1.0 }];
        let sol = max_concurrent_flow(&g, &commodities, McfOptions::default());
        assert_eq!(sol.lambda, 0.0);
    }

    #[test]
    fn empty_commodities_are_unconstrained() {
        let g = single_link();
        let sol = max_concurrent_flow(&g, &[], McfOptions::default());
        assert!(sol.lambda.is_infinite());
        let sol2 = max_concurrent_flow(
            &g,
            &[Commodity { src: 0, dst: 0, demand: 5.0 }],
            McfOptions::default(),
        );
        assert!(sol2.lambda.is_infinite(), "self-loop demands are dropped");
    }

    #[test]
    fn lambda_cap_stops_early() {
        let g = single_link();
        let commodities = [Commodity { src: 0, dst: 1, demand: 0.01 }];
        let opts = McfOptions { lambda_cap: Some(1.0), ..Default::default() };
        let sol = max_concurrent_flow(&g, &commodities, opts);
        assert!((sol.lambda - 1.0).abs() < 1e-9);
        // Without the cap λ would be ~100; with it we stop at 1.0.
        let uncapped = max_concurrent_flow(&g, &commodities, McfOptions::default());
        assert!(uncapped.lambda > 10.0);
        assert!(sol.path_computations < uncapped.path_computations);
    }

    #[test]
    fn link_capacity_scales_lambda() {
        let g = single_link();
        let commodities = [Commodity { src: 0, dst: 1, demand: 1.0 }];
        let opts = McfOptions { link_capacity: 4.0, ..Default::default() };
        let sol = max_concurrent_flow(&g, &commodities, opts);
        assert!((sol.lambda - 4.0).abs() < 0.4, "lambda = {}", sol.lambda);
    }

    #[test]
    fn epsilon_controls_accuracy() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let g = CsrGraph::from_graph(&g);
        let commodities = [Commodity { src: 0, dst: 2, demand: 1.0 }];
        let coarse = max_concurrent_flow(
            &g,
            &commodities,
            McfOptions { epsilon: 0.3, ..Default::default() },
        );
        let fine = max_concurrent_flow(
            &g,
            &commodities,
            McfOptions { epsilon: 0.02, ..Default::default() },
        );
        assert!((fine.lambda - 1.0).abs() <= (coarse.lambda - 1.0).abs() + 0.05);
        assert!((fine.lambda - 1.0).abs() < 0.05);
    }

    #[test]
    fn path_restricted_matches_full_solver_when_paths_suffice() {
        let topo = JellyfishBuilder::new(16, 6, 4).seed(1).build().unwrap();
        let g = topo.csr();
        let commodities: Vec<Commodity> =
            (0..8).map(|i| Commodity { src: i, dst: i + 8, demand: 1.0 }).collect();
        let paths: Vec<Vec<Path>> =
            commodities.iter().map(|c| k_shortest_paths(&g, c.src, c.dst, 8)).collect();
        let full = max_concurrent_flow(&g, &commodities, McfOptions::default());
        let restricted =
            max_concurrent_flow_on_paths(&g, &commodities, &paths, McfOptions::default());
        // Restricting to 8 shortest paths can only lose a little capacity
        // (allow for the ±ε noise of both approximations).
        assert!(
            restricted.lambda <= full.lambda * 1.1 + 0.05,
            "restricted {} vs full {}",
            restricted.lambda,
            full.lambda
        );
        assert!(
            restricted.lambda >= 0.75 * full.lambda,
            "restricted {} vs full {}",
            restricted.lambda,
            full.lambda
        );
    }

    #[test]
    fn path_restricted_single_path_bottleneck() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let g = CsrGraph::from_graph(&g);
        let commodities =
            [Commodity { src: 0, dst: 2, demand: 1.0 }, Commodity { src: 1, dst: 2, demand: 1.0 }];
        let paths = vec![vec![vec![0, 1, 2]], vec![vec![1, 2]]];
        let sol = max_concurrent_flow_on_paths(&g, &commodities, &paths, McfOptions::default());
        assert!((sol.lambda - 0.5).abs() < 0.06, "lambda = {}", sol.lambda);
    }

    #[test]
    #[should_panic(expected = "empty path set")]
    fn path_restricted_requires_paths() {
        let g = single_link();
        let commodities = [Commodity { src: 0, dst: 1, demand: 1.0 }];
        max_concurrent_flow_on_paths(&g, &commodities, &[Vec::new()], McfOptions::default());
    }

    #[test]
    fn permutation_on_jellyfish_reaches_full_throughput_when_underloaded() {
        // 20 switches, degree 6, only 2 servers each: lots of headroom, so a
        // permutation across switches should reach λ >= 1.
        let topo = JellyfishBuilder::new(20, 8, 6).seed(2).build().unwrap();
        let g = topo.csr();
        let commodities: Vec<Commodity> =
            (0..20).map(|i| Commodity { src: i, dst: (i + 7) % 20, demand: 2.0 }).collect();
        let opts = McfOptions { lambda_cap: Some(1.0), ..Default::default() };
        let sol = max_concurrent_flow(&g, &commodities, opts);
        assert!((sol.lambda - 1.0).abs() < 1e-9, "lambda = {}", sol.lambda);
    }

    #[test]
    fn utilization_keys_cover_all_arcs() {
        let topo = JellyfishBuilder::new(10, 6, 3).seed(4).build().unwrap();
        let g = topo.csr();
        let commodities = [Commodity { src: 0, dst: 5, demand: 1.0 }];
        let sol = max_concurrent_flow(&g, &commodities, McfOptions::default());
        assert_eq!(sol.arc_utilization.len(), g.num_arcs());
        let by_link = sol.link_utilization(&g);
        assert_eq!(by_link.len(), g.num_arcs());
        for (&(u, v), &util) in &by_link {
            assert!(g.has_edge(u, v));
            assert!((0.0..=1.0).contains(&util));
            let arc = g.arc_index(u, v).unwrap();
            assert_eq!(util.to_bits(), sol.arc_utilization[arc].to_bits());
        }
    }
}
