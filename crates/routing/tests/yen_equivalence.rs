//! Equivalence proof for Yen's k-shortest-paths: on graphs from every
//! registered topology generator, some with failed links, for every ordered
//! node pair and k ∈ {1, 3, 8}, `k_shortest_paths_weighted` must return the
//! identical `Vec<Path>` as the implementation it replaced, which is kept
//! below verbatim as the oracle: a fresh one-shot Dijkstra per spur search,
//! masked nodes and links held in two per-spur `HashSet`s, the root prefix
//! cloned per spur node. Weights are unit (every path of a length ties) and
//! small integers (ties between paths of different hop counts), the cases
//! where the search's tie-breaking and the candidate order decide which
//! paths come out.

use jellyfish_routing::shortest::weighted_shortest_path;
use jellyfish_routing::yen::k_shortest_paths_weighted;
use jellyfish_routing::Path;
use jellyfish_topology::{CsrGraph, NodeId, TopoSpec};
use std::collections::{BTreeSet, HashSet};

// ------------------------------------------------------------------ oracle

fn oracle_k_shortest_paths_weighted<F>(
    csr: &CsrGraph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    weight: F,
) -> Vec<Path>
where
    F: Fn(NodeId, NodeId) -> f64 + Copy,
{
    if k == 0 {
        return Vec::new();
    }
    if src == dst {
        return vec![vec![src]];
    }
    let Some((first, _)) = weighted_shortest_path(csr, src, dst, weight) else {
        return Vec::new();
    };

    let mut found: Vec<Path> = vec![first];
    // Candidate set keyed by (cost, path) to keep deterministic ordering and
    // deduplicate spur results found via different prefixes.
    let mut candidates: BTreeSet<(CostKey, Path)> = BTreeSet::new();

    while found.len() < k {
        let last = found.last().expect("at least one path found").clone();
        // Each node of the previous path except the final one is a spur node.
        for spur_idx in 0..last.len() - 1 {
            let spur_node = last[spur_idx];
            let root: Vec<NodeId> = last[..=spur_idx].to_vec();

            // Links to mask: for every found path sharing this root, the link
            // it takes out of the spur node.
            let mut masked_links: HashSet<(NodeId, NodeId)> = HashSet::new();
            for p in &found {
                if p.len() > spur_idx && p[..=spur_idx] == root[..] {
                    let a = p[spur_idx];
                    let b = p[spur_idx + 1];
                    masked_links.insert((a.min(b), a.max(b)));
                }
            }
            // Nodes of the root (except the spur node) are masked entirely to
            // keep paths simple.
            let masked_nodes: HashSet<NodeId> = root[..spur_idx].iter().copied().collect();

            let spur_weight = |u: NodeId, v: NodeId| {
                if masked_nodes.contains(&u) || masked_nodes.contains(&v) {
                    return f64::INFINITY;
                }
                if masked_links.contains(&(u.min(v), u.max(v))) {
                    return f64::INFINITY;
                }
                weight(u, v)
            };
            if let Some((spur_path, _)) = weighted_shortest_path(csr, spur_node, dst, spur_weight) {
                let mut total: Path = root[..spur_idx].to_vec();
                total.extend(spur_path);
                // Guard against any residual loop (should not happen).
                if has_duplicate(&total) {
                    continue;
                }
                if found.contains(&total) {
                    continue;
                }
                let cost = path_cost(&total, weight);
                candidates.insert((CostKey(cost), total));
            }
        }
        // Pop the cheapest candidate not yet in the result set.
        let next = loop {
            let Some(entry) = candidates.iter().next().cloned() else {
                return found;
            };
            candidates.remove(&entry);
            if !found.contains(&entry.1) {
                break entry.1;
            }
        };
        found.push(next);
    }
    found
}

fn has_duplicate(path: &Path) -> bool {
    let mut seen = HashSet::with_capacity(path.len());
    path.iter().any(|&n| !seen.insert(n))
}

fn path_cost<F: Fn(NodeId, NodeId) -> f64>(path: &Path, weight: F) -> f64 {
    path.windows(2).map(|w| weight(w[0], w[1])).sum()
}

/// Ordered f64 key for the candidate set (costs are finite by construction).
#[derive(Debug, Clone, Copy, PartialEq)]
struct CostKey(f64);

impl Eq for CostKey {}

impl PartialOrd for CostKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CostKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).unwrap_or(std::cmp::Ordering::Equal)
    }
}

// ------------------------------------------------------------------ inputs

/// Small instances of every registered generator, some with a share of
/// their links failed (which can disconnect pairs).
const SPECS: &[&str] = &[
    "jellyfish:switches=14,ports=6,degree=4",
    "jellyfish:switches=14,ports=6,degree=4+fail_links=0.25",
    "fattree:k=4",
    "fattree:k=4+fail_links=0.2",
    "swdc:lattice=torus2d,n=16,servers=1",
    "swdc:lattice=hex3d,n=12,servers=1+fail_links=0.2",
    "dd:n=12,ports=6,degree=4,servers=1",
    "leafspine:leaf=5,spine=3,servers=2",
    "leafspine:leaf=5,spine=3,servers=2+fail_links=0.3",
];

const SEED: u64 = 7;

/// Hop count: every path of one length ties.
fn unit(_: NodeId, _: NodeId) -> f64 {
    1.0
}

/// Direction-dependent small integers in `1..=3`: paths of different hop
/// counts tie, and a path and its reverse can cost differently.
fn small_int(u: NodeId, v: NodeId) -> f64 {
    1.0 + ((u * 7 + v * 13) % 3) as f64
}

// ------------------------------------------------------------------- proof

#[test]
fn yen_matches_the_hashset_oracle_on_every_generator() {
    for spec in SPECS {
        let csr = spec.parse::<TopoSpec>().unwrap().build(SEED).unwrap().csr();
        for (name, weight) in
            [("unit", unit as fn(NodeId, NodeId) -> f64), ("small_int", small_int)]
        {
            for k in [1, 3, 8] {
                for src in csr.nodes() {
                    for dst in csr.nodes() {
                        let want = oracle_k_shortest_paths_weighted(&csr, src, dst, k, weight);
                        let got = k_shortest_paths_weighted(&csr, src, dst, k, weight);
                        assert_eq!(got, want, "{spec} {name} k={k}: {src} -> {dst}");
                    }
                }
            }
        }
    }
}

#[test]
fn specs_cover_every_generator_and_failures() {
    for generator in jellyfish_topology::spec::generators() {
        assert!(
            SPECS.iter().any(|s| s.split(':').next() == Some(generator.name())),
            "no Yen equivalence case for generator {}",
            generator.name()
        );
    }
    assert!(SPECS.iter().any(|s| s.contains("+fail_links=")), "no case with failed links");
}

#[test]
fn some_pairs_are_disconnected_and_some_run_out_of_paths() {
    // The sweep must reach Yen's early exits: an unreachable destination and
    // a pair with fewer than k simple paths.
    let (mut unreachable, mut short) = (false, false);
    for spec in SPECS {
        let csr = spec.parse::<TopoSpec>().unwrap().build(SEED).unwrap().csr();
        for src in csr.nodes() {
            for dst in csr.nodes().filter(|&d| d != src) {
                let n = k_shortest_paths_weighted(&csr, src, dst, 8, unit).len();
                unreachable |= n == 0;
                short |= (1..8).contains(&n);
            }
        }
    }
    assert!(unreachable && short, "unreachable {unreachable}, fewer than k {short}");
}
