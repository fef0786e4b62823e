//! Structural properties of switch-level topologies: path-length
//! distributions and diameter.
//!
//! These drive Figure 1(c) (fraction of server pairs within h hops) and
//! Figure 5 (mean path length and diameter versus network size).
//!
//! Both sweeps ([`path_length_stats`], [`server_pair_histogram`]) read the
//! distance rows of [`map_source_blocks`], 64 sources per multi-source BFS
//! block, and fold each block into integer histogram partials. The partials
//! are summed in source order, and integer sums do not depend on that order,
//! so the result is the same whether the blocks ran serially or in parallel.

use crate::bfs::{map_source_blocks, UNREACHED};
use crate::csr::CsrGraph;
use crate::graph::NodeId;
use crate::topology::Topology;

/// Summary statistics of the all-pairs shortest-path-length distribution
/// between switches.
#[derive(Debug, Clone, PartialEq)]
pub struct PathLengthStats {
    /// Mean shortest-path length over all ordered reachable pairs.
    pub mean: f64,
    /// Maximum shortest-path length (graph diameter); 0 for graphs with < 2 nodes.
    pub diameter: usize,
    /// `histogram[d]` = number of ordered switch pairs at distance `d`
    /// (index 0 unused except for the trivial self-distance, which is not counted).
    pub histogram: Vec<usize>,
    /// Number of ordered pairs that are unreachable from each other.
    pub unreachable_pairs: usize,
}

impl PathLengthStats {
    /// Fraction of reachable ordered pairs whose distance is `<= h` hops.
    pub fn fraction_within(&self, h: usize) -> f64 {
        let total: usize = self.histogram.iter().skip(1).sum();
        if total == 0 {
            return 0.0;
        }
        let within: usize = self.histogram.iter().skip(1).take(h).sum();
        within as f64 / total as f64
    }

    /// The `q`-quantile (0 <= q <= 1) of the pairwise distance distribution.
    pub fn quantile(&self, q: f64) -> usize {
        let total: usize = self.histogram.iter().skip(1).sum();
        if total == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as usize;
        let mut acc = 0usize;
        for (d, &count) in self.histogram.iter().enumerate().skip(1) {
            acc += count;
            if acc >= target.max(1) {
                return d;
            }
        }
        self.diameter
    }
}

/// Adds `count` to `hist[i]`, growing `hist` to cover `i`.
fn bump(hist: &mut Vec<u64>, i: usize, count: u64) {
    if i >= hist.len() {
        hist.resize(i + 1, 0);
    }
    hist[i] += count;
}

/// Sums per-block histograms entry by entry. The result is as long as the
/// longest partial.
fn sum_histograms(partials: impl IntoIterator<Item = Vec<u64>>) -> Vec<u64> {
    let mut total = Vec::new();
    for partial in partials {
        for (i, count) in partial.into_iter().enumerate() {
            bump(&mut total, i, count);
        }
    }
    total
}

/// Switch-to-switch path-length statistics over every ordered pair of the
/// snapshot.
pub fn path_length_stats(csr: &CsrGraph) -> PathLengthStats {
    let sources: Vec<NodeId> = csr.nodes().collect();
    // Per block: pairs at each distance d >= 1 (a source's own 0 is not a
    // pair), and unreachable pairs.
    let partials = map_source_blocks(csr, &sources, |_, rows| {
        let (mut hist, mut unreachable) = (Vec::new(), 0usize);
        for &d in rows {
            match d {
                0 => {}
                UNREACHED => unreachable += 1,
                d => bump(&mut hist, d as usize, 1),
            }
        }
        (hist, unreachable)
    });
    let unreachable_pairs = partials.iter().map(|(_, u)| u).sum();
    let histogram = sum_histograms(partials.into_iter().map(|(hist, _)| hist));
    let count: u64 = histogram.iter().sum();
    let sum: u64 = histogram.iter().enumerate().map(|(d, &c)| d as u64 * c).sum();
    PathLengthStats {
        mean: if count == 0 { 0.0 } else { sum as f64 / count as f64 },
        diameter: histogram.len().saturating_sub(1),
        histogram: histogram.into_iter().map(|c| c as usize).collect(),
        unreachable_pairs,
    }
}

/// Server-pair path-length histogram: the distance between two servers is the
/// switch-to-switch distance between their ToR switches plus two server
/// links (servers on the same switch are 2 hops apart).
///
/// Returns `histogram[h]` = number of ordered server pairs at exactly `h`
/// hops, which is what Figure 1(c) plots (as fractions). Only switches that
/// host servers are BFS sources; `csr` is the snapshot of `topo`.
pub fn server_pair_histogram(topo: &Topology, csr: &CsrGraph) -> Vec<u64> {
    let sources: Vec<NodeId> = csr.nodes().filter(|&v| topo.servers(v) > 0).collect();
    let n = csr.num_nodes();
    let partials = map_source_blocks(csr, &sources, |block, rows| {
        let mut hist = Vec::new();
        for (&src, row) in block.iter().zip(rows.chunks_exact(n)) {
            let s_src = topo.servers(src) as u64;
            for (dst, &d) in row.iter().enumerate() {
                // The source's own row entry (d = 0) stands for its
                // same-switch pairs: s·(s−1) ordered pairs at 2 hops.
                let pairs = if dst == src {
                    s_src * s_src.saturating_sub(1)
                } else {
                    s_src * topo.servers(dst) as u64
                };
                if d != UNREACHED && pairs > 0 {
                    bump(&mut hist, d as usize + 2, pairs);
                }
            }
        }
        hist
    });
    sum_histograms(partials)
}

/// Fraction of ordered server pairs within `h` hops, from a histogram
/// produced by [`server_pair_histogram`].
pub fn fraction_of_server_pairs_within(histogram: &[u64], h: usize) -> f64 {
    let total: u64 = histogram.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let within: u64 = histogram.iter().take(h + 1).sum();
    within as f64 / total as f64
}

/// Theoretical diameter upper bound for random regular graphs
/// (Bollobás & de la Vega): `1 + ceil(log_{r-1}((2 + eps) * r * N * ln N))`.
///
/// Returns `None` when `r < 3` (the bound needs `r - 1 >= 2`).
pub fn rrg_diameter_upper_bound(n: usize, r: usize, eps: f64) -> Option<usize> {
    if r < 3 || n < 2 {
        return None;
    }
    let n_f = n as f64;
    let r_f = r as f64;
    let inner = (2.0 + eps) * r_f * n_f * n_f.ln();
    let log = inner.ln() / (r_f - 1.0).ln();
    Some(1 + log.ceil() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs_scalar_into;
    use crate::fattree::FatTree;
    use crate::graph::Graph;
    use crate::rrg::JellyfishBuilder;

    fn cycle(n: usize) -> CsrGraph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        CsrGraph::from_graph(&g)
    }

    /// The sweeps' tallies built pair by pair from one scalar BFS per
    /// source: the switch histogram (pairs at each distance d >= 1), the
    /// unreachable switch pairs, and the server-pair histogram.
    fn scalar_tallies(topo: &Topology, csr: &CsrGraph) -> (Vec<usize>, usize, Vec<u64>) {
        let n = csr.num_nodes();
        let (mut switch_hist, mut unreachable, mut server_hist) = (Vec::new(), 0, Vec::new());
        let mut row = vec![0u32; n];
        for src in csr.nodes() {
            bfs_scalar_into(csr, src, &mut row);
            let s_src = topo.servers(src) as u64;
            for dst in csr.nodes() {
                let d = row[dst];
                if d == UNREACHED {
                    unreachable += 1;
                    continue;
                }
                let d = d as usize;
                if dst != src {
                    if d >= switch_hist.len() {
                        switch_hist.resize(d + 1, 0);
                    }
                    switch_hist[d] += 1;
                }
                let pairs = s_src
                    * if dst == src { s_src.saturating_sub(1) } else { topo.servers(dst) as u64 };
                if pairs > 0 {
                    if d + 2 >= server_hist.len() {
                        server_hist.resize(d + 3, 0);
                    }
                    server_hist[d + 2] += pairs;
                }
            }
        }
        (switch_hist, unreachable, server_hist)
    }

    #[test]
    fn bfs_on_path_graph() {
        // 0-1-2-3: ordered pairs at 1, 2 and 3 hops are 6, 4 and 2.
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        let stats = path_length_stats(&CsrGraph::from_graph(&g));
        assert_eq!(stats.histogram, vec![0, 6, 4, 2]);
        assert_eq!(stats.diameter, 3);
        assert!((stats.mean - 20.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn bfs_unreachable_nodes() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        let stats = path_length_stats(&CsrGraph::from_graph(&g));
        assert_eq!(stats.histogram, vec![0, 2]);
        assert_eq!(stats.unreachable_pairs, 4);
    }

    #[test]
    fn block_fold_matches_scalar_tallies() {
        // A k=18 fat-tree (405 switches, above the serial threshold) and a
        // 200-switch Jellyfish (serial): both sweeps span at least three
        // 64-source blocks. Fat-tree core and aggregation switches host no
        // servers, nor does every fifth Jellyfish switch. Isolating two
        // server-hosting switches leaves pairs unreachable.
        let mut fat_tree = FatTree::new(18).unwrap().topology().clone();
        let mut jellyfish = JellyfishBuilder::new(200, 10, 6).seed(9).build().unwrap();
        for v in (0..200).step_by(5) {
            jellyfish.set_servers(v, 0).unwrap();
        }
        for topo in [&mut fat_tree, &mut jellyfish] {
            let hosts: Vec<NodeId> =
                (0..topo.num_switches()).filter(|&v| topo.servers(v) > 0).collect();
            assert!(hosts.len() > 128, "server sweep spans fewer than three blocks");
            for &v in &hosts[..2] {
                topo.graph_mut().isolate_node(v);
            }
        }
        for topo in [&fat_tree, &jellyfish] {
            let csr = topo.csr();
            let (switch_hist, unreachable, server_hist) = scalar_tallies(topo, &csr);
            assert!(unreachable > 0);
            let stats = path_length_stats(&csr);
            assert_eq!(stats.histogram, switch_hist);
            assert_eq!(stats.unreachable_pairs, unreachable);
            assert_eq!(stats.diameter, switch_hist.len() - 1);
            let count: usize = switch_hist.iter().sum();
            let sum: usize = switch_hist.iter().enumerate().map(|(d, &c)| d * c).sum();
            assert_eq!(stats.mean.to_bits(), (sum as f64 / count as f64).to_bits());
            assert_eq!(server_pair_histogram(topo, &csr), server_hist);
        }
    }

    #[test]
    fn cycle_statistics() {
        let stats = path_length_stats(&cycle(6));
        assert_eq!(stats.diameter, 3);
        // Distances from any node: 1,1,2,2,3 -> mean 1.8.
        assert!((stats.mean - 1.8).abs() < 1e-12);
        assert_eq!(stats.unreachable_pairs, 0);
        assert_eq!(stats.histogram[1], 12);
        assert_eq!(stats.histogram[2], 12);
        assert_eq!(stats.histogram[3], 6);
        assert!((stats.fraction_within(2) - 24.0 / 30.0).abs() < 1e-12);
        assert_eq!(stats.quantile(0.5), 2);
        assert_eq!(stats.quantile(1.0), 3);
    }

    #[test]
    fn disconnected_pairs_counted() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let stats = path_length_stats(&CsrGraph::from_graph(&g));
        assert_eq!(stats.unreachable_pairs, 8);
        assert_eq!(stats.diameter, 1);
    }

    #[test]
    fn jellyfish_shorter_paths_than_fat_tree_same_equipment() {
        // The headline observation behind Figure 1(c): with the same
        // equipment, the RRG has a lower mean inter-switch path length.
        let (ft, jf) = crate::fattree::same_equipment_pair(6, 54, 2).unwrap();
        let ft_stats = path_length_stats(&ft.topology().csr());
        let jf_stats = path_length_stats(&jf.csr());
        assert!(
            jf_stats.mean < ft_stats.mean,
            "jellyfish mean {} not below fat-tree mean {}",
            jf_stats.mean,
            ft_stats.mean
        );
        assert!(jf_stats.diameter <= ft_stats.diameter);
    }

    #[test]
    fn server_pair_histogram_single_switch() {
        let g = Graph::new(1);
        let topo = Topology::homogeneous(g, 4, 3);
        let hist = server_pair_histogram(&topo, &topo.csr());
        // 3 servers on one switch: 6 ordered pairs, all at 2 hops.
        assert_eq!(hist.len(), 3);
        assert_eq!(hist[2], 6);
        assert!((fraction_of_server_pairs_within(&hist, 2) - 1.0).abs() < 1e-12);
        assert_eq!(fraction_of_server_pairs_within(&hist, 1), 0.0);
        // Switches without servers behind it add no pairs, so the histogram
        // (whose length sets fig1c's point count) does not grow.
        let mut chain = Graph::new(3);
        chain.add_edge(0, 1);
        chain.add_edge(1, 2);
        let mut topo = Topology::homogeneous(chain, 4, 0);
        topo.set_servers(0, 3).unwrap();
        assert_eq!(server_pair_histogram(&topo, &topo.csr()), vec![0, 0, 6]);
    }

    #[test]
    fn server_pair_histogram_two_switches() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        let topo = Topology::homogeneous(g, 4, 2);
        let hist = server_pair_histogram(&topo, &topo.csr());
        // Same-switch: 2 switches × 2 ordered pairs = 4 at distance 2.
        // Cross-switch: 2×2 ordered pairs × 2 directions = 8 at distance 3.
        assert_eq!(hist[2], 4);
        assert_eq!(hist[3], 8);
        let total: u64 = hist.iter().sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn fig1c_shape_686_servers() {
        // Scaled-down check of the Fig. 1(c) claim: in Jellyfish nearly all
        // server pairs are within 5 hops while in the same-equipment fat-tree
        // only a small fraction is. (Full 686-server check runs in the
        // integration tests / figures binary.)
        let ft = FatTree::new(8).unwrap(); // 80 switches, 128 servers
        let jf = JellyfishBuilder::new(80, 8, 6).seed(4).build().unwrap();
        let ft_hist = server_pair_histogram(ft.topology(), &ft.topology().csr());
        let jf_hist = server_pair_histogram(&jf, &jf.csr());
        let ft_frac5 = fraction_of_server_pairs_within(&ft_hist, 5);
        let jf_frac5 = fraction_of_server_pairs_within(&jf_hist, 5);
        assert!(jf_frac5 > ft_frac5, "jellyfish {jf_frac5} <= fat-tree {ft_frac5}");
        assert!(jf_frac5 > 0.9);
    }

    #[test]
    fn rrg_diameter_bound_matches_paper_growth() {
        // The bound grows logarithmically with N (base r-1); spot-check
        // monotonicity and rough magnitude for k=48, r=36 switches.
        let b1 = rrg_diameter_upper_bound(100, 36, 0.1).unwrap();
        let b2 = rrg_diameter_upper_bound(3200, 36, 0.1).unwrap();
        assert!(b2 >= b1);
        assert!(b2 <= 8, "bound unexpectedly large: {b2}");
        assert!(rrg_diameter_upper_bound(100, 2, 0.1).is_none());
    }

    #[test]
    fn measured_diameter_within_theoretical_bound() {
        let topo = JellyfishBuilder::new(200, 12, 9).seed(5).build().unwrap();
        let stats = path_length_stats(&topo.csr());
        let bound = rrg_diameter_upper_bound(200, 9, 0.1).unwrap();
        assert!(stats.diameter <= bound, "diameter {} exceeds bound {}", stats.diameter, bound);
    }
}
