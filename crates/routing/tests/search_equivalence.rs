//! Equivalence proof for the target-terminated [`ShortestPathSearch`]: on
//! graphs from every registered topology generator, for every ordered node
//! pair, it must return the same arc sequence and a `to_bits`-equal cost as
//! the full-tree Dijkstra it replaced, which is kept below as the oracle;
//! run to exhaustion, it must return the oracle's distance bits for every
//! node. Both relax an arc only on a strictly shorter distance, which stays
//! exact at the tiny lengths Garg–Könemann starts from. Weights are drawn
//! three ways — all equal, small integers (zero included) and random
//! positive f64 spanning many magnitudes — because equal and integer
//! weights are where ties decide parents. Some arcs are masked with an
//! infinite or NaN weight, and some specs fail links, so unreachable pairs
//! are covered too. One search instance serves every query of every case,
//! so reuse across queries and graph sizes is covered as well.

use jellyfish_routing::shortest::ShortestPathSearch;
use jellyfish_routing::Path;
use jellyfish_topology::{ArcId, CsrGraph, NodeId, TopoSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

// ------------------------------------------------------------------ oracle

/// The shared Dijkstra scan; the weight callback receives the arc's source
/// node (free in the scan loop) alongside the arc id.
fn dijkstra_core<F>(csr: &CsrGraph, source: NodeId, arc_weight: F) -> (Vec<f64>, Vec<usize>)
where
    F: Fn(NodeId, ArcId) -> f64,
{
    let n = csr.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![usize::MAX; n];
    let mut heap: BinaryHeap<Reverse<(OrderedF64, NodeId)>> = BinaryHeap::new();
    dist[source] = 0.0;
    heap.push(Reverse((OrderedF64(0.0), source)));
    while let Some(Reverse((OrderedF64(d), u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for arc in csr.arc_range(u) {
            let w = arc_weight(u, arc);
            if !w.is_finite() || w < 0.0 {
                continue;
            }
            let v = csr.arc_target(arc);
            let nd = d + w;
            if nd < dist[v] {
                dist[v] = nd;
                parent[v] = u;
                heap.push(Reverse((OrderedF64(nd), v)));
            }
        }
    }
    (dist, parent)
}

fn extract_path(src: NodeId, dst: NodeId, dist: &[f64], parent: &[usize]) -> Option<(Path, f64)> {
    if !dist[dst].is_finite() {
        return None;
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = parent[cur];
        if cur == usize::MAX {
            return None;
        }
        path.push(cur);
    }
    path.reverse();
    Some((path, dist[dst]))
}

/// Total-ordered f64 wrapper for use in the Dijkstra heap. NaN is never
/// inserted (weights are checked), so the ordering is total in practice.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).unwrap_or(std::cmp::Ordering::Equal)
    }
}

/// The oracle's answer in the search's terms: the node path mapped to arc
/// ids (the graphs are simple, so each hop has exactly one arc) and the
/// cost's bits.
fn oracle_answer(
    csr: &CsrGraph,
    src: NodeId,
    dst: NodeId,
    dist: &[f64],
    parent: &[usize],
) -> Option<(Vec<ArcId>, u64)> {
    let (path, cost) = extract_path(src, dst, dist, parent)?;
    let arcs = path.windows(2).map(|w| csr.arc_index(w[0], w[1]).expect("path hop is a link"));
    Some((arcs.collect(), cost.to_bits()))
}

// ------------------------------------------------------------------ inputs

/// A small spec for generator number `pick` (in registry order) from raw
/// drawn integers; `fail` adds a link-failure transform that can leave the
/// graph disconnected.
fn spec(pick: usize, a: usize, b: usize, fail: bool) -> TopoSpec {
    let base = match pick {
        0 => TopoSpec::new("jellyfish")
            .with_param("switches", 8 + a % 33)
            .with_param("ports", 8)
            .with_param("degree", 3 + b % 4),
        1 => TopoSpec::new("fattree").with_param("k", 2 + 2 * (a % 3)),
        2 => TopoSpec::new("swdc")
            .with_param("lattice", ["ring", "torus2d", "hex3d"][b % 3])
            .with_param("n", 8 + a % 33)
            .with_param("servers", 1),
        3 => TopoSpec::new("dd")
            .with_param("n", 10 + a % 21)
            .with_param("ports", 6)
            .with_param("degree", 3 + b % 3)
            .with_param("servers", 1),
        _ => TopoSpec::new("leafspine")
            .with_param("leaf", 2 + a % 7)
            .with_param("spine", 1 + b % 4)
            .with_param("servers", 1 + a % 3),
    };
    if fail {
        base.with_transform(jellyfish_topology::ScenarioTransform::FailLinks(0.25))
    } else {
        base
    }
}

/// Per-arc weights: `mode` 0 is one shared value, 1 small integers in
/// `0..=3`, 2 positive f64 across 40 orders of magnitude (the range
/// Garg–Könemann lengths sweep). A `mask_percent` share of arcs gets an
/// infinite or NaN weight.
fn weights(csr: &CsrGraph, mode: usize, mask_percent: u32, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let shared = [1.0, 0.1, 3.0][(seed % 3) as usize];
    (0..csr.num_arcs())
        .map(|_| {
            if rng.gen_range(0..100u32) < mask_percent {
                return if rng.gen_bool(0.5) { f64::INFINITY } else { f64::NAN };
            }
            match mode {
                0 => shared,
                1 => rng.gen_range(0..4u32) as f64,
                _ => 10f64.powf(rng.gen_range(-38.0..2.0)) * rng.gen_range(1.0..10.0),
            }
        })
        .collect()
}

// ------------------------------------------------------------------- proof

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// For every ordered pair, the search's arc path and cost bits equal the
    /// full-tree oracle's, including `None` for unreachable pairs, and so do
    /// the exhaustive scan's distances from every source.
    #[test]
    fn search_matches_full_tree_dijkstra(
        pick in 0usize..5,
        a in 0usize..1000,
        b in 0usize..1000,
        fail in 0usize..4,
        mode in 0usize..3,
        mask_percent in 0u32..3,
        seed in any::<u64>(),
    ) {
        let topo = spec(pick, a, b, fail == 0).build(seed).expect("drawn spec builds");
        let csr = topo.csr();
        let w = weights(&csr, mode, [0, 10, 30][mask_percent as usize], seed);
        let mut search = ShortestPathSearch::new();
        let mut path = Vec::new();
        for src in csr.nodes() {
            let (dist, parent) = dijkstra_core(&csr, src, |_, arc| w[arc]);
            let all: Vec<u64> =
                search.distances(&csr, src, |_, arc| w[arc]).iter().map(|d| d.to_bits()).collect();
            prop_assert_eq!(all, dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>());
            for dst in csr.nodes() {
                let want = oracle_answer(&csr, src, dst, &dist, &parent);
                let got = search
                    .find_path(&csr, src, dst, |_, arc| w[arc], &mut path)
                    .map(|cost| (path.clone(), cost.to_bits()));
                prop_assert_eq!(&got, &want, "{} seed {seed} mode {mode}: {src} -> {dst}",
                    spec(pick, a, b, fail == 0));
                if got.is_none() {
                    prop_assert!(path.is_empty(), "unreachable query left a path behind");
                }
            }
        }
    }
}

/// The search holds its state across queries on graphs of different sizes:
/// a large graph, then a small one, then the large one again, each answer
/// equal to the oracle's.
#[test]
fn one_search_serves_graphs_of_different_sizes() {
    let mut search = ShortestPathSearch::new();
    let mut path = Vec::new();
    for spec in ["fattree:k=6", "leafspine:leaf=2,spine=1,servers=1", "fattree:k=6"] {
        let csr = spec.parse::<TopoSpec>().unwrap().build(1).unwrap().csr();
        let w = weights(&csr, 1, 0, 5);
        for src in csr.nodes() {
            let (dist, parent) = dijkstra_core(&csr, src, |_, arc| w[arc]);
            for dst in csr.nodes() {
                let got = search
                    .find_path(&csr, src, dst, |_, arc| w[arc], &mut path)
                    .map(|cost| (path.clone(), cost.to_bits()));
                assert_eq!(got, oracle_answer(&csr, src, dst, &dist, &parent), "{spec}");
            }
        }
    }
}
