//! Bisection bandwidth: analytic bounds and heuristics (Figures 2(a), 2(b)
//! and the LEGUP comparison of Figure 7).
//!
//! * For random regular graphs the paper uses Bollobás's isoperimetric
//!   bound: in almost every r-regular graph on N nodes, every set of N/2
//!   nodes is joined to the rest by at least `N(r/4 − sqrt(r·ln2/2))` edges.
//! * For the fat-tree the bisection is exact: `k³/8` links cross the worst
//!   bisection of a full-bisection fat-tree.
//! * For arbitrary topologies (the Clos/LEGUP expansion stages) we search
//!   for a small bisection with a Kernighan–Lin style local-improvement
//!   heuristic and report the best cut found.
//!
//! "Normalized bisection bandwidth" divides the bisecting link capacity by
//! the total line rate of the servers in one partition, exactly as the paper
//! does; values above 1 mean overprovisioning.

use jellyfish_topology::{CsrGraph, NodeId, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;

/// Bollobás lower bound on the number of edges crossing any balanced
/// bisection of an r-regular graph on `n` nodes:
/// `N · (r/4 − √(r·ln2)/2)` (from the isoperimetric number bound
/// `i(G) ≥ r/2 − √(r·ln2)`). Clamped at zero for small degrees where the
/// bound is vacuous.
pub fn bollobas_bisection_links(n: usize, r: usize) -> f64 {
    let n = n as f64;
    let r = r as f64;
    (n * (r / 4.0 - (r * (2.0f64).ln()).sqrt() / 2.0)).max(0.0)
}

/// Normalized bisection bandwidth of a Jellyfish `RRG(N, k, r)` from the
/// Bollobás bound: crossing links divided by the servers in one partition
/// (`N(k−r)/2`), assuming every link and every server NIC has the same rate.
///
/// Returns `f64::INFINITY` when no servers are attached.
pub fn jellyfish_normalized_bisection(n: usize, ports: usize, network_degree: usize) -> f64 {
    assert!(network_degree <= ports, "network degree exceeds port count");
    let servers = n * (ports - network_degree);
    if servers == 0 {
        return f64::INFINITY;
    }
    bollobas_bisection_links(n, network_degree) / (servers as f64 / 2.0)
}

/// Asymptotic normalized bisection bandwidth as `r → ∞` with the same
/// server count: `(r/4)/((k−r)/2)`. Used to sanity-check that the bound
/// approaches half the switch-to-switch links (the paper's §4.1 argument).
pub fn jellyfish_asymptotic_normalized_bisection(ports: usize, network_degree: usize) -> f64 {
    let r = network_degree as f64;
    let s = (ports - network_degree) as f64;
    if s == 0.0 {
        return f64::INFINITY;
    }
    (r / 4.0) / (s / 2.0)
}

/// Exact bisection links of a full-bisection three-level fat-tree built from
/// `k`-port switches: `k³/8`.
pub fn fattree_bisection_links(k: usize) -> f64 {
    (k * k * k) as f64 / 8.0
}

/// Normalized bisection bandwidth of the full fat-tree (1.0 by construction).
pub fn fattree_normalized_bisection(k: usize) -> f64 {
    fattree_bisection_links(k)
        / (jellyfish_topology::fattree::FatTree::servers_for_port_count(k) as f64 / 2.0)
}

/// Smallest number of switches `N` (using `ports`-port switches with
/// `network_degree` network ports each) for which the Bollobás bound
/// certifies full (normalized ≥ 1) bisection bandwidth for `servers` servers,
/// or `None` if the per-switch server count doesn't divide evenly at any
/// feasible N. Used by the Figure 2(b) equipment-cost curves.
pub fn jellyfish_full_bisection_switches(
    servers: usize,
    ports: usize,
    network_degree: usize,
) -> Option<usize> {
    let per_switch = ports - network_degree;
    if per_switch == 0 {
        return None;
    }
    let n = servers.div_ceil(per_switch);
    // Need the bound to certify >= 1 at this (N, r); N only appears linearly
    // in both numerator and denominator, so feasibility is independent of N —
    // check it and return the smallest N that hosts all servers.
    if jellyfish_normalized_bisection(n.max(network_degree + 1), ports, network_degree) >= 1.0 {
        Some(n.max(network_degree + 1))
    } else {
        None
    }
}

/// Equipment cost (total switch ports) of the cheapest full-bisection
/// Jellyfish supporting `servers` servers with `ports`-port switches,
/// scanning over the network degree. Returns `(total_ports, network_degree)`.
pub fn jellyfish_full_bisection_cost(servers: usize, ports: usize) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize)> = None;
    for r in 1..ports {
        if let Some(n) = jellyfish_full_bisection_switches(servers, ports, r) {
            let cost = n * ports;
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, r));
            }
        }
    }
    best
}

/// Result of the heuristic bisection search.
#[derive(Debug, Clone)]
pub struct BisectionCut {
    /// Node ids in the first half.
    pub partition: Vec<NodeId>,
    /// Number of links crossing the cut.
    pub crossing_links: usize,
    /// Normalized bisection bandwidth: crossing links divided by the servers
    /// hosted in the smaller-server half.
    pub normalized: f64,
}

/// Kernighan–Lin style heuristic minimum bisection of the switch graph,
/// balanced by switch count. `restarts` independent random starts run in
/// parallel (each with its own seed derived from `seed`) and the best cut is
/// kept, ties broken by restart index so the result is deterministic.
pub fn min_bisection_heuristic(topo: &Topology, restarts: usize, seed: u64) -> BisectionCut {
    min_bisection_with(topo, restarts, seed, kl_refine)
}

/// [`min_bisection_heuristic`] driven by [`kl_refine_reference`] — the
/// pre-optimization pair-scan refinement, kept as the test oracle the
/// equivalence proptests compare against. Produces the exact same cut as
/// [`min_bisection_heuristic`] for every input.
pub fn min_bisection_heuristic_reference(
    topo: &Topology,
    restarts: usize,
    seed: u64,
) -> BisectionCut {
    min_bisection_with(topo, restarts, seed, kl_refine_reference)
}

fn min_bisection_with(
    topo: &Topology,
    restarts: usize,
    seed: u64,
    refine: fn(&CsrGraph, &mut [bool]),
) -> BisectionCut {
    let csr = topo.csr();
    let n = csr.num_nodes();
    let half = n / 2;

    let runs: Vec<(usize, Vec<bool>)> = (0..restarts.max(1))
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|restart| {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (restart as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            // Random balanced start.
            let mut order: Vec<NodeId> = (0..n).collect();
            order.shuffle(&mut rng);
            let mut in_a = vec![false; n];
            for &v in order.iter().take(half) {
                in_a[v] = true;
            }
            refine(&csr, &mut in_a);
            (csr.cut_size(&in_a), in_a)
        })
        .collect();
    let (best_cut, best_partition) =
        runs.into_iter().min_by_key(|&(cut, _)| cut).expect("at least one restart");

    let partition: Vec<NodeId> =
        best_partition.iter().enumerate().filter_map(|(v, &inside)| inside.then_some(v)).collect();
    let servers_a: usize = partition.iter().map(|&v| topo.servers(v)).sum();
    let servers_b: usize = topo.total_servers() - servers_a;
    let denom = servers_a.min(servers_b).max(1) as f64;
    BisectionCut { partition, crossing_links: best_cut, normalized: best_cut as f64 / denom }
}

/// One Kernighan–Lin refinement of the balanced partition `in_a`, run to a
/// fixed point. Each pass tentatively swaps the best unlocked (A, B) pair —
/// negative gains allowed, both nodes locked afterwards — until no unlocked
/// pair remains, then commits the prefix of swaps with the largest cumulative
/// cut reduction. Passes repeat until one fails to improve the cut. All ties
/// break on the lowest node index, so the result is deterministic.
///
/// Selection avoids the O(|A|·|B|) pair scan of [`kl_refine_reference`]: per
/// tentative swap the unlocked B side is sorted best-partner-first (D
/// descending, index ascending), so each A-side candidate finds its best
/// *non-neighbor* partner by walking at most `deg(a) + 1` sorted entries and
/// its best *neighbor* partner by one adjacency scan. D-values carry across
/// passes by updating only the committed swaps' neighborhoods instead of
/// recomputing [`swap_gain_component`] for all `n` nodes each pass. Gains and
/// tie-breaking (lowest `a`, then lowest `b`) are bit-for-bit those of the
/// reference; the equivalence proptests pin the two together.
pub fn kl_refine(csr: &CsrGraph, in_a: &mut [bool]) {
    let n = in_a.len();
    // True D-values (external minus internal degree) for the current
    // partition, maintained incrementally across passes via `apply_move`.
    let mut d_base: Vec<isize> = (0..n).map(|v| swap_gain_component(csr, in_a, v)).collect();
    // Working copy mutated by the tentative swaps within one pass.
    let mut d: Vec<isize> = vec![0; n];
    let mut locked = vec![false; n];
    // Epoch-stamped neighbor marks: O(1) adjacency tests without clearing.
    let mut mark: Vec<u64> = vec![0; n];
    let mut epoch: u64 = 0;
    let mut sorted_b: Vec<NodeId> = Vec::with_capacity(n);
    loop {
        d.copy_from_slice(&d_base);
        locked.iter_mut().for_each(|l| *l = false);
        let mut swaps: Vec<(NodeId, NodeId)> = Vec::new();
        let mut gains: Vec<isize> = Vec::new();
        loop {
            // Unlocked B side, best partner first: max D, ties on low index.
            sorted_b.clear();
            sorted_b.extend((0..n).filter(|&b| !locked[b] && !in_a[b]));
            sorted_b.sort_by_key(|&b| (std::cmp::Reverse(d[b]), b));
            if sorted_b.is_empty() {
                break;
            }
            let mut best: Option<(isize, NodeId, NodeId)> = None;
            for a in 0..n {
                if locked[a] || !in_a[a] {
                    continue;
                }
                epoch += 1;
                for &x in csr.neighbors(a) {
                    mark[x as usize] = epoch;
                }
                // Best non-neighbor partner (gain d[a] + d[b]): the first
                // unmarked sorted entry. At most deg(a) entries are marked,
                // so this walk stops within deg(a) + 1 steps.
                let mut cand: Option<(isize, NodeId)> = None;
                for &b in &sorted_b {
                    if mark[b] != epoch {
                        cand = Some((d[a] + d[b], b));
                        break;
                    }
                }
                // Best neighbor partner (gain d[a] + d[b] − 2): max D over
                // the adjacency list, ties on low index.
                let mut neigh: Option<(isize, NodeId)> = None;
                for &x in csr.neighbors(a) {
                    let b = x as usize;
                    if locked[b] || in_a[b] {
                        continue;
                    }
                    let better = match neigh {
                        None => true,
                        Some((db, bn)) => d[b] > db || (d[b] == db && b < bn),
                    };
                    if better {
                        neigh = Some((d[b], b));
                    }
                }
                if let Some((db, b)) = neigh {
                    let gain = d[a] + db - 2;
                    let better = match cand {
                        None => true,
                        Some((g, bc)) => gain > g || (gain == g && b < bc),
                    };
                    if better {
                        cand = Some((gain, b));
                    }
                }
                if let Some((gain, b)) = cand {
                    if best.is_none_or(|(g, _, _)| gain > g) {
                        best = Some((gain, a, b));
                    }
                }
            }
            let Some((gain, a, b)) = best else { break };
            locked[a] = true;
            locked[b] = true;
            swaps.push((a, b));
            gains.push(gain);
            // Update D-values of unlocked neighbors as if (a, b) had swapped:
            // a neighbor of `a` on A's side gains an external edge (+2), on
            // B's side loses one (−2); symmetrically for neighbors of `b`.
            for &x in csr.neighbors(a) {
                let x = x as usize;
                if !locked[x] {
                    d[x] += if in_a[x] { 2 } else { -2 };
                }
            }
            for &x in csr.neighbors(b) {
                let x = x as usize;
                if !locked[x] {
                    d[x] += if in_a[x] { -2 } else { 2 };
                }
            }
        }
        // Commit the best prefix of tentative swaps (smallest prefix on ties).
        let mut best_sum = 0isize;
        let mut best_len = 0usize;
        let mut running = 0isize;
        for (i, &g) in gains.iter().enumerate() {
            running += g;
            if running > best_sum {
                best_sum = running;
                best_len = i + 1;
            }
        }
        if best_len == 0 {
            return;
        }
        for &(a, b) in &swaps[..best_len] {
            apply_move(csr, in_a, &mut d_base, a);
            apply_move(csr, in_a, &mut d_base, b);
        }
    }
}

/// Moves `v` to the other side of the partition, updating the true D-values:
/// a same-side neighbor's internal edge becomes external (+2), an
/// opposite-side neighbor's external edge becomes internal (−2), and `v`'s
/// own D negates. Must run *before* any other committed move is applied with
/// stale membership, hence one call per moved endpoint in commit order.
fn apply_move(csr: &CsrGraph, in_a: &mut [bool], d: &mut [isize], v: NodeId) {
    for &x in csr.neighbors(v) {
        let x = x as usize;
        d[x] += if in_a[x] == in_a[v] { 2 } else { -2 };
    }
    d[v] = -d[v];
    in_a[v] = !in_a[v];
}

/// The pre-optimization [`kl_refine`]: every tentative swap scans all
/// unlocked (A, B) pairs and every pass recomputes all D-values from
/// scratch. Kept as the test oracle; produces bit-for-bit the same
/// partitions as [`kl_refine`].
pub fn kl_refine_reference(csr: &CsrGraph, in_a: &mut [bool]) {
    let n = in_a.len();
    loop {
        // D-values (external minus internal degree) relative to the partition
        // at the start of the pass; membership stays fixed until the commit.
        let mut d: Vec<isize> = (0..n).map(|v| swap_gain_component(csr, in_a, v)).collect();
        let mut locked = vec![false; n];
        let mut swaps: Vec<(NodeId, NodeId)> = Vec::new();
        let mut gains: Vec<isize> = Vec::new();
        loop {
            let mut best: Option<(isize, NodeId, NodeId)> = None;
            for a in 0..n {
                if locked[a] || !in_a[a] {
                    continue;
                }
                for b in 0..n {
                    if locked[b] || in_a[b] {
                        continue;
                    }
                    let w = if csr.has_edge(a, b) { 1isize } else { 0 };
                    let gain = d[a] + d[b] - 2 * w;
                    if best.is_none_or(|(g, _, _)| gain > g) {
                        best = Some((gain, a, b));
                    }
                }
            }
            let Some((gain, a, b)) = best else { break };
            locked[a] = true;
            locked[b] = true;
            swaps.push((a, b));
            gains.push(gain);
            for &x in csr.neighbors(a) {
                let x = x as usize;
                if !locked[x] {
                    d[x] += if in_a[x] { 2 } else { -2 };
                }
            }
            for &x in csr.neighbors(b) {
                let x = x as usize;
                if !locked[x] {
                    d[x] += if in_a[x] { -2 } else { 2 };
                }
            }
        }
        // Commit the best prefix of tentative swaps (smallest prefix on ties).
        let mut best_sum = 0isize;
        let mut best_len = 0usize;
        let mut running = 0isize;
        for (i, &g) in gains.iter().enumerate() {
            running += g;
            if running > best_sum {
                best_sum = running;
                best_len = i + 1;
            }
        }
        if best_len == 0 {
            return;
        }
        for &(a, b) in &swaps[..best_len] {
            in_a[a] = false;
            in_a[b] = true;
        }
    }
}

/// D-value of the Kernighan–Lin gain: external minus internal degree.
pub fn swap_gain_component(csr: &CsrGraph, in_a: &[bool], v: NodeId) -> isize {
    let mut external = 0isize;
    let mut internal = 0isize;
    for &u in csr.neighbors(v) {
        let u = u as usize;
        if in_a[u] == in_a[v] {
            internal += 1;
        } else {
            external += 1;
        }
    }
    external - internal
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish_topology::fattree::FatTree;
    use jellyfish_topology::{Graph, JellyfishBuilder, Topology};

    #[test]
    fn bollobas_bound_basics() {
        // Vacuous (negative) bound clamps to zero for tiny degrees.
        assert_eq!(bollobas_bisection_links(100, 2), 0.0);
        // Grows linearly in N and is positive for realistic degrees.
        let b10 = bollobas_bisection_links(100, 10);
        let b10_double = bollobas_bisection_links(200, 10);
        assert!(b10 > 0.0);
        assert!((b10_double / b10 - 2.0).abs() < 1e-9);
        // Monotone in r.
        assert!(bollobas_bisection_links(100, 24) > bollobas_bisection_links(100, 12));
    }

    #[test]
    fn normalized_bisection_matches_paper_regime() {
        // Paper Fig. 2(a): with k=48 and N=2880 switches, Jellyfish supports
        // >20,000 servers at full bisection bandwidth (the fat-tree: 27,648
        // servers total with 16,000 at full bisection for the same cost
        // comparison point). Check that r=36 (12 servers/switch → 34,560
        // servers) is undersubscribed vs r=40 (8 servers/switch → 23,040) at
        // full bisection.
        let r40 = jellyfish_normalized_bisection(2880, 48, 40);
        assert!(r40 >= 1.0, "r=40 should certify full bisection, got {r40}");
        let r30 = jellyfish_normalized_bisection(2880, 48, 30);
        assert!(r30 < r40);
        // More servers per switch → lower normalized bisection.
        assert!(
            jellyfish_normalized_bisection(720, 24, 18)
                > jellyfish_normalized_bisection(720, 24, 12)
        );
    }

    #[test]
    fn asymptotic_bound_approaches_half_the_links() {
        // As r grows with a fixed server share, the bound approaches the
        // asymptotic value from below.
        let exact = jellyfish_normalized_bisection(10_000, 96, 64);
        let asym = jellyfish_asymptotic_normalized_bisection(96, 64);
        assert!(exact < asym);
        assert!(exact > 0.5 * asym);
    }

    #[test]
    fn fattree_full_bisection() {
        for k in [4usize, 24, 48] {
            assert!((fattree_normalized_bisection(k) - 1.0).abs() < 1e-9);
        }
        assert_eq!(fattree_bisection_links(4), 8.0);
    }

    #[test]
    fn full_bisection_switch_search() {
        // 48-port switches, r=36 leaves 12 servers per switch and certifies
        // full bisection per the Bollobás bound.
        let n = jellyfish_full_bisection_switches(3456, 48, 36).unwrap();
        assert_eq!(n, 288);
        // Tiny degree can never certify full bisection.
        assert!(jellyfish_full_bisection_switches(1000, 48, 2).is_none());
        assert!(jellyfish_full_bisection_switches(1000, 48, 48).is_none());
    }

    #[test]
    fn jellyfish_cheaper_than_fattree_at_full_bisection() {
        // The Fig. 2(b) headline: for the same number of servers at full
        // bisection bandwidth, Jellyfish needs fewer total ports than the
        // fat-tree, and the advantage grows with port count.
        for k in [24usize, 32, 48, 64] {
            let servers = FatTree::servers_for_port_count(k);
            let ft_ports = FatTree::ports_for_port_count(k);
            let (jf_ports, _r) = jellyfish_full_bisection_cost(servers, k).unwrap();
            assert!(
                jf_ports < ft_ports,
                "k={k}: jellyfish {jf_ports} ports not below fat-tree {ft_ports}"
            );
        }
        let adv24 = {
            let s = FatTree::servers_for_port_count(24);
            1.0 - jellyfish_full_bisection_cost(s, 24).unwrap().0 as f64
                / FatTree::ports_for_port_count(24) as f64
        };
        let adv64 = {
            let s = FatTree::servers_for_port_count(64);
            1.0 - jellyfish_full_bisection_cost(s, 64).unwrap().0 as f64
                / FatTree::ports_for_port_count(64) as f64
        };
        assert!(adv64 > adv24, "advantage should grow with port count");
    }

    #[test]
    fn kl_bisection_on_two_cliques() {
        // Two 6-cliques joined by a single bridge: the minimum bisection is 1.
        let mut g = Graph::new(12);
        for base in [0, 6] {
            for u in base..base + 6 {
                for v in (u + 1)..base + 6 {
                    g.add_edge(u, v);
                }
            }
        }
        g.add_edge(0, 6);
        let topo = Topology::homogeneous(g, 16, 2);
        let cut = min_bisection_heuristic(&topo, 8, 1);
        assert_eq!(cut.crossing_links, 1);
        assert_eq!(cut.partition.len(), 6);
        assert!((cut.normalized - 1.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn kl_bisection_balanced_partition() {
        let topo = JellyfishBuilder::new(30, 10, 6).seed(3).build().unwrap();
        let cut = min_bisection_heuristic(&topo, 4, 2);
        assert_eq!(cut.partition.len(), 15);
        assert!(cut.crossing_links > 0);
        assert!(cut.crossing_links <= topo.num_links());
        // The heuristic cut can never beat the true minimum, which itself is
        // at least the Bollobás bound minus its slack — sanity check against
        // an obviously-too-good value.
        assert!(cut.crossing_links >= 10);
    }

    #[test]
    fn kl_refine_matches_reference_exactly() {
        // The optimized selection must reproduce the reference pair scan
        // bit-for-bit, including every tie-break, on an irregular graph.
        for (n_switches, ports, degree, seed) in
            [(12usize, 6usize, 3usize, 0u64), (25, 8, 5, 1), (30, 10, 7, 2)]
        {
            let topo = JellyfishBuilder::new(n_switches, ports, degree).seed(seed).build().unwrap();
            let csr = topo.csr();
            let n = csr.num_nodes();
            let in_a: Vec<bool> =
                (0..n).map(|v| (v.wrapping_mul(2654435761) >> 4) % 2 == 0).collect();
            // Balance the start the same way for both.
            let excess = in_a.iter().filter(|&&x| x).count() as isize - (n / 2) as isize;
            let mut fixed = in_a.clone();
            let mut left = excess;
            for slot in fixed.iter_mut() {
                if left > 0 && *slot {
                    *slot = false;
                    left -= 1;
                } else if left < 0 && !*slot {
                    *slot = true;
                    left += 1;
                }
            }
            let mut fast = fixed.clone();
            let mut reference = fixed;
            kl_refine(&csr, &mut fast);
            kl_refine_reference(&csr, &mut reference);
            assert_eq!(fast, reference, "n={n_switches} seed={seed}");
        }
    }

    #[test]
    fn min_bisection_reference_variant_agrees() {
        let topo = JellyfishBuilder::new(20, 8, 5).seed(9).build().unwrap();
        let fast = min_bisection_heuristic(&topo, 4, 3);
        let reference = min_bisection_heuristic_reference(&topo, 4, 3);
        assert_eq!(fast.partition, reference.partition);
        assert_eq!(fast.crossing_links, reference.crossing_links);
    }

    #[test]
    fn kl_bisection_heuristic_not_worse_than_random_cut() {
        let topo = JellyfishBuilder::new(40, 10, 6).seed(5).build().unwrap();
        let g = topo.graph();
        // Expected random balanced cut crosses ~half the links.
        let random_cut_estimate = topo.num_links() / 2;
        let cut = min_bisection_heuristic(&topo, 6, 7);
        assert!(
            cut.crossing_links <= random_cut_estimate,
            "heuristic ({}) no better than random ({})",
            cut.crossing_links,
            random_cut_estimate
        );
        // Partition must be a valid node subset.
        assert!(cut.partition.iter().all(|&v| v < g.num_nodes()));
    }
}
