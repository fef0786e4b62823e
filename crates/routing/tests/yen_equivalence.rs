//! Equivalence proof for Yen's k-shortest-paths: on graphs from every
//! registered topology generator, some with failed links, for every ordered
//! node pair and k ∈ {1, 3, 8}, `k_shortest_paths` must return the
//! identical `Vec<Path>` as the implementation it replaced, which is kept
//! below as the oracle: a fresh one-shot Dijkstra per spur search, masked
//! nodes and links held in two per-spur `HashSet`s, the root prefix cloned
//! per spur node. The oracle's Dijkstra is its own too: each round it
//! settles the unsettled node of least `(distance, id)` by a linear scan,
//! where the library pops a binary heap. Weights are hop counts, so every
//! path of a length ties: the case where the search's tie-breaking and the
//! candidate order decide which paths come out.

use jellyfish_routing::yen::k_shortest_paths;
use jellyfish_routing::Path;
use jellyfish_topology::{CsrGraph, NodeId, TopoSpec};
use std::collections::{BTreeSet, HashSet};

// ------------------------------------------------------------------ oracle

/// The cheapest `src → dst` path under the node-pair weight `weight(u, v)`
/// (an infinite weight masks the link), or `None` when `dst` is
/// unreachable. Nodes settle in `(distance, id)` order and an arc relaxes
/// only on a strictly shorter distance, so each node's parent is the first
/// settled neighbour that reached it.
fn oracle_shortest_path<F>(csr: &CsrGraph, src: NodeId, dst: NodeId, weight: F) -> Option<Path>
where
    F: Fn(NodeId, NodeId) -> f64,
{
    let n = csr.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![usize::MAX; n];
    let mut settled = vec![false; n];
    dist[src] = 0.0;
    loop {
        let u = (0..n)
            .filter(|&v| !settled[v] && dist[v].is_finite())
            .min_by(|&a, &b| dist[a].total_cmp(&dist[b]).then(a.cmp(&b)))?;
        if u == dst {
            break;
        }
        settled[u] = true;
        for arc in csr.arc_range(u) {
            let v = csr.arc_target(arc);
            let w = weight(u, v);
            if w.is_finite() && dist[u] + w < dist[v] {
                dist[v] = dist[u] + w;
                parent[v] = u;
            }
        }
    }
    let mut path = vec![dst];
    while path[path.len() - 1] != src {
        path.push(parent[path[path.len() - 1]]);
    }
    path.reverse();
    Some(path)
}

fn oracle_k_shortest_paths(csr: &CsrGraph, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    if k == 0 {
        return Vec::new();
    }
    if src == dst {
        return vec![vec![src]];
    }
    let Some(first) = oracle_shortest_path(csr, src, dst, |_, _| 1.0) else {
        return Vec::new();
    };

    let mut found: Vec<Path> = vec![first];
    // Candidate set keyed by (hops, path) to keep deterministic ordering and
    // deduplicate spur results found via different prefixes.
    let mut candidates: BTreeSet<(usize, Path)> = BTreeSet::new();

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
                1.0
            };
            if let Some(spur_path) = oracle_shortest_path(csr, spur_node, dst, spur_weight) {
                let mut total: Path = root[..spur_idx].to_vec();
                total.extend(spur_path);
                // Guard against any residual loop (should not happen).
                if has_duplicate(&total) {
                    continue;
                }
                if found.contains(&total) {
                    continue;
                }
                candidates.insert((total.len() - 1, total));
            }
        }
        // Pop the shortest candidate not yet in the result set.
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

// ------------------------------------------------------------------- proof

#[test]
fn yen_matches_the_hashset_oracle_on_every_generator() {
    for spec in SPECS {
        let csr = spec.parse::<TopoSpec>().unwrap().build(SEED).unwrap().csr();
        for k in [1, 3, 8] {
            for src in csr.nodes() {
                for dst in csr.nodes() {
                    let want = oracle_k_shortest_paths(&csr, src, dst, k);
                    let got = k_shortest_paths(&csr, src, dst, k);
                    assert_eq!(got, want, "{spec} k={k}: {src} -> {dst}");
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
                let n = k_shortest_paths(&csr, src, dst, 8).len();
                unreachable |= n == 0;
                short |= (1..8).contains(&n);
            }
        }
    }
    assert!(unreachable && short, "unreachable {unreachable}, fewer than k {short}");
}
