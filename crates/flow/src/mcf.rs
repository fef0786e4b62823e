//! Max-concurrent multicommodity flow via the Garg–Könemann multiplicative
//! weights framework, stopped by a duality certificate.
//!
//! Given directed arc capacities (every undirected switch link contributes
//! two arcs of unit capacity — links are full duplex) and a set of
//! commodities `(src, dst, demand)`, the solver computes the largest `λ` such
//! that `λ · demand_j` can be routed for every commodity simultaneously.
//!
//! [`max_concurrent_flow`] is the textbook algorithm, where each routing
//! step picks the currently-cheapest path with Dijkstra: the
//! CPLEX-equivalent "optimal routing" oracle. It consumes a [`CsrGraph`]
//! snapshot, and all per-arc state (lengths, accumulated flow) lives in flat
//! vectors indexed by the snapshot's dense arc ids — the inner Dijkstra loop
//! never touches a hash map.
//!
//! Every solve returns a bracket `λ ≤ λ* ≤ λ_hi` around the optimum `λ*`:
//!
//! * `λ` (λ_lo) is the better of the textbook `phases / scaling` and
//!   `phases / max arc flow`, the flow routed so far scaled down until it
//!   fits every arc.
//! * `λ_hi = D(l) / α(l)` is the weak-duality bound of the current arc
//!   lengths `l`: `D(l) = Σ l_a` and `α(l) = Σ_j demand_j · dist_l(src_j,
//!   dst_j)`.
//!
//! The solver takes a certificate every `CERTIFICATE_INTERVAL` phases and
//! stops as soon as `λ_hi ≤ (1 + ε)·λ`, so the reported `λ` is within a
//! factor `1/(1 + ε) ≥ 1 − ε` of the optimum. The textbook stop, `D(l) ≥ 1`,
//! remains as a backstop. See DESIGN.md, substitution 1.

use std::collections::BTreeMap;

use jellyfish_routing::shortest::ShortestPathSearch;
use jellyfish_topology::{ArcId, CsrGraph, NodeId};

/// Phases between two duality certificates. A certificate costs one
/// exhaustive search per distinct source, on the order of a phase's routing
/// searches: checking every phase doubles the work, checking rarely runs
/// past the phase where the gap closed. Over the 102 tiny `failure_sweep`
/// solves, intervals 1, 2, 4, 6 and 8 took 2.1, 1.7, 1.0, 0.94 and 1.2 s
/// (PERF.md).
const CERTIFICATE_INTERVAL: usize = 4;

/// The range [`McfOptions::epsilon`] is clamped to.
const EPSILON_RANGE: (f64, f64) = (1e-3, 0.5);

/// A demand, or a remainder of one still to route, at or below this is
/// negligible: `sanitize` drops such commodities and the routing loop stops
/// sending once a remainder falls to it. One threshold serves both: a
/// commodity kept but never routed grows no length, so neither the
/// `D(l) ≥ 1` backstop nor the certificate would ever end the solve.
const NEGLIGIBLE_DEMAND: f64 = 1e-12;

/// Stored arc lengths are multiplied by [`RENORMALIZE_BY`] once their sum
/// passes this. One update grows the sum by at most a factor 1 + ε ≤ 1.5,
/// so it stays far from overflow.
const RENORMALIZE_ABOVE: f64 = 1e180;

/// 2^-600: a power of two, so renormalizing is exact, and neither path
/// choice nor `D(l)/α(l)` depends on a common scale. A length that would
/// drop below `f64::MIN_POSITIVE` is floored there instead, so that its
/// next update still grows it: raising a length never invalidates
/// `D(l)/α(l)` or the `phases / scaling` bound.
const RENORMALIZE_BY: f64 = f64::from_bits((1023 - 600) << 52);

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
    /// Approximation accuracy ε, clamped to `[0.001, 0.5]`: once the
    /// certificate closes, the returned λ is ≥ OPT/(1 + ε) ≥ (1 − ε)·OPT.
    /// Smaller is slower (roughly 1/ε²).
    pub epsilon: f64,
    /// Stop early once λ provably reaches this value (useful for "is the
    /// network at full throughput?" checks where only λ ≥ 1 matters).
    pub lambda_cap: Option<f64>,
}

impl Default for McfOptions {
    fn default() -> Self {
        McfOptions { epsilon: 0.05, lambda_cap: None }
    }
}

impl McfOptions {
    /// The ε the solver actually uses: `epsilon` clamped to `[0.001, 0.5]`.
    pub fn clamped_epsilon(&self) -> f64 {
        self.epsilon.clamp(EPSILON_RANGE.0, EPSILON_RANGE.1)
    }
}

/// Why a solve stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McfStop {
    /// The certificate closed, `λ_hi ≤ (1 + ε)·λ`; trivial instances (no
    /// commodity, an unreachable one) close it exactly.
    Certified,
    /// `λ` reached [`McfOptions::lambda_cap`] first.
    Cap,
    /// The textbook stop `D(l) ≥ 1` came first.
    Backstop,
}

/// Result of a max-concurrent-flow computation.
#[derive(Debug, Clone)]
pub struct McfSolution {
    /// The certified lower bound λ_lo on the optimum λ* (truncated at
    /// `lambda_cap`): a feasible flow routes this fraction of every demand.
    pub lambda: f64,
    /// The certified upper bound λ_hi ≥ λ*: the least `D(l)/α(l)` over the
    /// certificates taken (infinite with no commodity, 0 with an
    /// unreachable one).
    pub lambda_hi: f64,
    /// Why the solve stopped.
    pub stop: McfStop,
    /// Routing shortest-path computations performed (a work counter; the
    /// certificates' exhaustive searches are not counted).
    pub path_computations: usize,
}

/// Internal per-arc state for the multiplicative-weights algorithm: flat
/// slices indexed by dense arc id. Every arc has unit capacity, so an arc's
/// length is also its capacity-weighted length.
///
/// Lengths are stored divided by a common scale `e^{ln_scale}` that keeps
/// them representable: GK's true lengths start at δ, which underflows to 0
/// at small ε (δ ≈ 4e-401 at ε = 0.005 on 100 arcs).
struct ArcState {
    length: Vec<f64>,
    flow: Vec<f64>,
    /// Running total of `length` over all arcs, updated incrementally in
    /// `send_on_arcs` (the textbook loop re-sums every iteration; the
    /// increment is exact because each update multiplies a single arc's
    /// length).
    total_weighted_length: f64,
    /// `ln` of the factor from stored to true lengths.
    ln_scale: f64,
    /// The backstop `D(l) ≥ 1` in stored units, `e^{-ln_scale}`: the
    /// log-space test `ln(total) + ln_scale ≥ 0` without a logarithm per
    /// update. Infinite while it overflows.
    backstop: f64,
}

impl ArcState {
    /// Every arc at the true length `e^{ln_delta}`, stored as 1.
    fn new(num_arcs: usize, ln_delta: f64) -> Self {
        ArcState {
            length: vec![1.0; num_arcs],
            flow: vec![0.0; num_arcs],
            total_weighted_length: num_arcs as f64,
            ln_scale: ln_delta,
            backstop: (-ln_delta).exp(),
        }
    }

    /// Whether the true lengths sum to at least 1.
    #[inline]
    fn exhausted(&self) -> bool {
        self.total_weighted_length >= self.backstop
    }

    fn send_on_arcs(&mut self, arcs: &[ArcId], amount: f64, epsilon: f64) {
        // The multiplicative factor is the same for every arc on the path;
        // hoisting it out leaves the per-arc work branch-free.
        let factor = 1.0 + epsilon * amount;
        gk_apply(
            &mut self.length,
            &mut self.flow,
            arcs,
            amount,
            factor,
            &mut self.total_weighted_length,
        );
        if self.total_weighted_length > RENORMALIZE_ABOVE {
            self.length.iter_mut().for_each(|l| *l = (*l * RENORMALIZE_BY).max(f64::MIN_POSITIVE));
            self.total_weighted_length *= RENORMALIZE_BY;
            self.ln_scale -= RENORMALIZE_BY.ln();
            self.backstop = (-self.ln_scale).exp();
        }
    }

    /// The certified lower bound after `phases` complete phases:
    /// `phases / scaling`, or the routed flow scaled down to fit the
    /// busiest arc, whichever is larger.
    fn lambda_lo(&self, phases: usize, scaling: f64) -> f64 {
        let max_flow = self.flow.iter().fold(0.0, |acc: f64, &f| acc.max(f));
        let phases = phases as f64;
        (phases / scaling).max(if max_flow > 0.0 { phases / max_flow } else { 0.0 })
    }
}

/// One Garg–Könemann multiplicative-weights update along a path.
///
/// For each arc in `arcs`, in order: `flow[a] += amount`,
/// `length[a] *= factor`, and `*total_weighted_length += Δlength` (arcs have
/// unit capacity). The caller precomputes `factor = 1 + ε·amount` once per
/// call instead of once per arc; the accumulator update order is the
/// contract — the per-arc deltas are added to `total_weighted_length`
/// sequentially in arc order, and λ's bits depend on that order
/// (`tests/mcf_pins.rs` pins them).
fn gk_apply(
    length: &mut [f64],
    flow: &mut [f64],
    arcs: &[ArcId],
    amount: f64,
    factor: f64,
    total_weighted_length: &mut f64,
) {
    for &arc in arcs {
        flow[arc] += amount;
        let old = length[arc];
        let new = old * factor;
        length[arc] = new;
        *total_weighted_length += new - old;
    }
}

/// Validates commodities against the snapshot; commodities of negligible
/// demand and self-loops are dropped.
fn sanitize(csr: &CsrGraph, commodities: &[Commodity]) -> Vec<Commodity> {
    commodities
        .iter()
        .copied()
        .filter(|c| c.src != c.dst && c.demand > NEGLIGIBLE_DEMAND)
        .inspect(|c| {
            assert!(
                c.src < csr.num_nodes() && c.dst < csr.num_nodes(),
                "commodity endpoint out of range"
            );
        })
        .collect()
}

/// The commodities grouped by source, sources ascending, each group's
/// `(dst, demand)` pairs in commodity order: one exhaustive search per
/// group prices all of them.
fn by_source(commodities: &[Commodity]) -> Vec<(NodeId, Vec<(NodeId, f64)>)> {
    let mut groups: BTreeMap<NodeId, Vec<(NodeId, f64)>> = BTreeMap::new();
    for c in commodities {
        groups.entry(c.src).or_default().push((c.dst, c.demand));
    }
    groups.into_iter().collect()
}

/// The weak-duality upper bound `D(l)/α(l)` of the current lengths, with
/// `D(l)` summed fresh and `α(l)` priced by one exhaustive search per
/// source. Both scale alike, so stored lengths serve as well as true ones.
fn dual_bound(
    csr: &CsrGraph,
    sources: &[(NodeId, Vec<(NodeId, f64)>)],
    length: &[f64],
    search: &mut ShortestPathSearch,
) -> f64 {
    let volume: f64 = length.iter().sum();
    let mut alpha = 0.0;
    for (src, sinks) in sources {
        let dist = search.distances(csr, *src, |_, arc| length[arc]);
        alpha += sinks.iter().map(|&(dst, demand)| demand * dist[dst]).sum::<f64>();
    }
    volume / alpha
}

/// Max-concurrent multicommodity flow with a Dijkstra inner loop
/// (the "optimal routing" oracle).
///
/// Returns λ such that every commodity can simultaneously route a `λ`
/// fraction of its demand, and an upper bound `lambda_hi` on the optimum;
/// the solve stops once the two are within a factor `1 + ε`. With
/// `opts.lambda_cap = Some(c)`, iteration stops as soon as λ ≥ c is
/// certified, which is much faster when only a threshold matters.
pub fn max_concurrent_flow(
    csr: &CsrGraph,
    commodities: &[Commodity],
    opts: McfOptions,
) -> McfSolution {
    let commodities = sanitize(csr, commodities);
    let exact = |lambda: f64, path_computations| McfSolution {
        lambda,
        lambda_hi: lambda,
        stop: McfStop::Certified,
        path_computations,
    };
    if commodities.is_empty() {
        return exact(f64::INFINITY, 0);
    }
    if csr.num_edges() == 0 {
        return exact(0.0, 0);
    }
    let eps = opts.clamped_epsilon();
    let num_arcs = csr.num_arcs();
    // Garg–Könemann initialization, δ = (1+ε)/((1+ε)·m)^{1/ε}, in log space.
    let ln_delta = (1.0 + eps).ln() - ((1.0 + eps) * num_arcs as f64).ln() / eps;
    let scaling = ((1.0 + eps).ln() - ln_delta) / (1.0 + eps).ln();
    let mut arcs = ArcState::new(num_arcs, ln_delta);
    let sources = by_source(&commodities);
    let mut phases = 0usize;
    let mut path_computations = 0usize;
    let mut lambda_hi = f64::INFINITY;
    let mut search = ShortestPathSearch::new();
    let mut path = Vec::new();

    let stop = 'solve: loop {
        for c in &commodities {
            let mut remaining = c.demand;
            while remaining > NEGLIGIBLE_DEMAND {
                if arcs.exhausted() {
                    break 'solve McfStop::Backstop;
                }
                path_computations += 1;
                let found =
                    search.find_path(csr, c.src, c.dst, |_, arc| arcs.length[arc], &mut path);
                if found.is_none() {
                    // Unreachable destination: λ is zero.
                    return exact(0.0, path_computations);
                }
                // Every arc has unit capacity, so one path carries at most 1.
                let send = remaining.min(1.0);
                // `gk_apply` folds the total-weighted-length increments in
                // path order, which the search gives as `src → dst`.
                arcs.send_on_arcs(&path, send, eps);
                remaining -= send;
            }
        }
        phases += 1;
        let lambda_lo = arcs.lambda_lo(phases, scaling);
        if opts.lambda_cap.is_some_and(|cap| lambda_lo >= cap) {
            break McfStop::Cap;
        }
        if phases.is_multiple_of(CERTIFICATE_INTERVAL) {
            lambda_hi = lambda_hi.min(dual_bound(csr, &sources, &arcs.length, &mut search));
            if lambda_hi <= (1.0 + eps) * lambda_lo {
                break McfStop::Certified;
            }
        }
    };
    if stop != McfStop::Certified {
        lambda_hi = lambda_hi.min(dual_bound(csr, &sources, &arcs.length, &mut search));
    }
    let lambda_lo = arcs.lambda_lo(phases, scaling);
    let lambda = opts.lambda_cap.map_or(lambda_lo, |cap| lambda_lo.min(cap));
    McfSolution { lambda, lambda_hi, stop, path_computations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish_topology::{Graph, JellyfishBuilder};

    fn single_link() -> CsrGraph {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        CsrGraph::from_graph(&g)
    }

    /// Solves and checks that the certificate brackets the known optimum:
    /// `λ ≤ λ* ≤ λ_hi`, closed to within `1 + ε`.
    fn bracket(
        g: &CsrGraph,
        commodities: &[Commodity],
        opts: McfOptions,
        optimum: f64,
    ) -> McfSolution {
        let sol = max_concurrent_flow(g, commodities, opts);
        assert!(
            sol.lambda <= optimum && optimum <= sol.lambda_hi,
            "λ* = {optimum} outside [{}, {}]",
            sol.lambda,
            sol.lambda_hi
        );
        assert_eq!(sol.stop, McfStop::Certified);
        assert!(sol.lambda_hi <= (1.0 + opts.clamped_epsilon()) * sol.lambda);
        sol
    }

    #[test]
    fn single_commodity_on_single_link() {
        let commodities = [Commodity { src: 0, dst: 1, demand: 1.0 }];
        bracket(&single_link(), &commodities, McfOptions::default(), 1.0);
    }

    #[test]
    fn demand_double_capacity_halves_lambda() {
        let commodities = [Commodity { src: 0, dst: 1, demand: 2.0 }];
        bracket(&single_link(), &commodities, McfOptions::default(), 0.5);
    }

    #[test]
    fn two_opposite_commodities_use_both_directions() {
        // Full-duplex link: 0→1 and 1→0 each get their own unit arc.
        let commodities =
            [Commodity { src: 0, dst: 1, demand: 1.0 }, Commodity { src: 1, dst: 0, demand: 1.0 }];
        bracket(&single_link(), &commodities, McfOptions::default(), 1.0);
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
        bracket(&g, &commodities, McfOptions::default(), 1.0);
    }

    #[test]
    fn bottleneck_shared_by_two_commodities() {
        // Both commodities must cross the single 1-2 link: λ* = 0.5 each.
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        let g = CsrGraph::from_graph(&g);
        let commodities =
            [Commodity { src: 0, dst: 3, demand: 1.0 }, Commodity { src: 1, dst: 3, demand: 1.0 }];
        bracket(&g, &commodities, McfOptions::default(), 0.5);
    }

    #[test]
    fn unreachable_destination_gives_zero() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        let g = CsrGraph::from_graph(&g);
        let commodities = [Commodity { src: 0, dst: 2, demand: 1.0 }];
        let sol = max_concurrent_flow(&g, &commodities, McfOptions::default());
        assert_eq!((sol.lambda, sol.lambda_hi), (0.0, 0.0));
    }

    #[test]
    fn empty_commodities_are_unconstrained() {
        let g = single_link();
        let sol = max_concurrent_flow(&g, &[], McfOptions::default());
        assert!(sol.lambda.is_infinite() && sol.lambda_hi.is_infinite());
        let sol2 = max_concurrent_flow(
            &g,
            &[Commodity { src: 0, dst: 0, demand: 5.0 }],
            McfOptions::default(),
        );
        assert!(sol2.lambda.is_infinite(), "self-loop demands are dropped");
        let sol3 = max_concurrent_flow(
            &g,
            &[Commodity { src: 0, dst: 1, demand: 1e-13 }],
            McfOptions::default(),
        );
        assert!(sol3.lambda.is_infinite(), "negligible demands are dropped");
        assert_eq!(sol3.stop, McfStop::Certified);
    }

    #[test]
    fn lambda_cap_stops_early() {
        let g = single_link();
        let commodities = [Commodity { src: 0, dst: 1, demand: 0.01 }];
        let opts = McfOptions { lambda_cap: Some(1.0), ..Default::default() };
        let sol = max_concurrent_flow(&g, &commodities, opts);
        assert!((sol.lambda - 1.0).abs() < 1e-9);
        assert_eq!(sol.stop, McfStop::Cap);
        assert!(sol.lambda_hi >= 100.0, "λ* = 100 ≤ λ_hi = {}", sol.lambda_hi);
        // Without the cap λ would be ~100; with it we stop at 1.0.
        let uncapped = max_concurrent_flow(&g, &commodities, McfOptions::default());
        assert!(uncapped.lambda > 10.0);
        assert!(sol.path_computations < uncapped.path_computations);
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
        let fine =
            bracket(&g, &commodities, McfOptions { epsilon: 0.02, ..Default::default() }, 1.0);
        assert!(fine.lambda_hi / fine.lambda <= coarse.lambda_hi / coarse.lambda);
    }

    #[test]
    fn epsilon_below_the_underflow_threshold_terminates() {
        // δ = (1+ε)/((1+ε)·m)^{1/ε} is about 4e-401 for ε = 0.005 on these
        // 100 arcs: stored unscaled it is 0, no length ever grows and the
        // solve never ends.
        let topo = JellyfishBuilder::new(20, 8, 5).seed(7).build().unwrap();
        let g = topo.csr();
        assert_eq!(g.num_arcs(), 100);
        let commodities = [Commodity { src: 0, dst: 13, demand: 1.0 }];
        for epsilon in [0.005, 0.001] {
            let opts = McfOptions { epsilon, lambda_cap: None };
            let sol = max_concurrent_flow(&g, &commodities, opts);
            let eps = opts.clamped_epsilon();
            assert!(sol.lambda > 0.0 && sol.lambda <= sol.lambda_hi, "ε = {epsilon}: {sol:?}");
            assert!(sol.lambda_hi <= (1.0 + eps) * sol.lambda, "ε = {epsilon}: {sol:?}");
        }
    }

    #[test]
    fn renormalization_keeps_lengths_positive_and_the_backstop_exact() {
        // True lengths start at δ = e^-1000, so the stored sum passes
        // RENORMALIZE_ABOVE twice before the true sum reaches 1. Arc 1 is
        // never updated: two rescales by 2^-600 would take it to 2^-1200,
        // below the smallest subnormal.
        let ln_delta = -1000.0;
        let ln_factor = 1.5f64.ln();
        let mut arcs = ArcState::new(2, ln_delta);
        let (mut updates, mut renormalizations) = (0usize, 0);
        while !arcs.exhausted() {
            let ln_scale = arcs.ln_scale;
            arcs.send_on_arcs(&[0], 1.0, 0.5);
            updates += 1;
            renormalizations += usize::from(arcs.ln_scale != ln_scale);
            assert!(arcs.length.iter().all(|&l| l > 0.0), "{:?}", arcs.length);
            let ln_total = arcs.total_weighted_length.ln() + arcs.ln_scale;
            assert_eq!(arcs.exhausted(), ln_total >= 0.0, "after {updates} updates");
            // The true sum δ·(1.5^updates + 1), in log space.
            let grown = updates as f64 * ln_factor;
            let expected = ln_delta + grown + (-grown).exp().ln_1p();
            assert!((ln_total - expected).abs() < 1e-9, "{ln_total} vs {expected}");
        }
        assert_eq!(renormalizations, 2);
        assert_eq!(updates, (-ln_delta / ln_factor).ceil() as usize);
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
    fn certificate_brackets_the_optimum_on_jellyfish() {
        // One commodity: λ* is the 0 → 5 max flow, at most the source's
        // out-degree over the demand.
        let topo = JellyfishBuilder::new(10, 6, 3).seed(4).build().unwrap();
        let g = topo.csr();
        let commodities = [Commodity { src: 0, dst: 5, demand: 1.0 }];
        let sol = max_concurrent_flow(&g, &commodities, McfOptions::default());
        assert_eq!(sol.stop, McfStop::Certified);
        assert!(sol.lambda <= sol.lambda_hi && sol.lambda_hi <= 1.05 * sol.lambda, "{sol:?}");
        assert!(sol.lambda <= g.degree(0) as f64, "{sol:?}");
    }
}
