//! Per source–destination path tables and link path-diversity statistics.
//!
//! Figure 9 of the paper counts, for every directed inter-switch link, the
//! number of distinct paths that traverse it when routing a random
//! permutation workload with (a) 8-way ECMP, (b) 64-way ECMP, and (c)
//! 8-shortest-path routing. The punchline: under ECMP most links are on very
//! few paths, so capacity sits idle.
//!
//! [`PathTable::build`] computes the per-pair path sets in parallel with
//! rayon (each pair's computation is independent), so the table is the one a
//! serial per-pair loop would build. Link counts are accumulated in a flat
//! per-arc array indexed by the snapshot's dense arc ids.

use crate::ecmp::all_shortest_paths;
use crate::shortest::all_pairs_distances;
use crate::yen::k_shortest_paths;
use crate::Path;
use jellyfish_topology::{CsrGraph, NodeId};
use rayon::prelude::*;
use std::collections::HashMap;

/// The routing scheme used to build a path table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingScheme {
    /// Equal-cost multipath over shortest paths with the given width.
    Ecmp {
        /// Maximum number of equal-cost paths per destination.
        way: usize,
    },
    /// Yen's k-shortest-path routing with the given k.
    KShortestPaths {
        /// Number of (not necessarily equal-length) shortest paths per pair.
        k: usize,
    },
}

impl RoutingScheme {
    /// The paper's default ECMP configuration (8-way).
    pub fn ecmp8() -> Self {
        RoutingScheme::Ecmp { way: 8 }
    }

    /// 64-way ECMP.
    pub fn ecmp64() -> Self {
        RoutingScheme::Ecmp { way: 64 }
    }

    /// The paper's k-shortest-path configuration (k = 8).
    pub fn ksp8() -> Self {
        RoutingScheme::KShortestPaths { k: 8 }
    }

    /// Human-readable label used in reports and figures.
    pub fn label(&self) -> String {
        match *self {
            RoutingScheme::Ecmp { way } => format!("{way}-way ECMP"),
            RoutingScheme::KShortestPaths { k } => format!("{k} Shortest Paths"),
        }
    }
}

/// A path table: the set of installed paths for a collection of
/// source–destination switch pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathTable {
    paths: HashMap<(NodeId, NodeId), Vec<Path>>,
}

impl PathTable {
    /// Builds the table for the given switch pairs under `scheme`, computing
    /// the per-pair path sets in parallel. Self-pairs are dropped and a
    /// repeated pair is computed once. An ECMP entry is
    /// [`all_shortest_paths`] over the destination's row of one
    /// [`all_pairs_distances`] matrix, built per call; a KSP entry is
    /// [`k_shortest_paths`], and KSP builds no matrix.
    pub fn build(
        csr: &CsrGraph,
        scheme: RoutingScheme,
        pairs: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Self {
        let mut seen = std::collections::HashSet::new();
        let work: Vec<(NodeId, NodeId)> =
            pairs.into_iter().filter(|&(s, d)| s != d && seen.insert((s, d))).collect();
        let paths = match scheme {
            RoutingScheme::Ecmp { way } => {
                let dist = all_pairs_distances(csr);
                work.into_par_iter()
                    .map(|(s, d)| ((s, d), all_shortest_paths(csr, dist.row(d), s, d, way)))
                    .collect()
            }
            RoutingScheme::KShortestPaths { k } => work
                .into_par_iter()
                .map(|(s, d)| ((s, d), k_shortest_paths(csr, s, d, k)))
                .collect(),
        };
        PathTable { paths }
    }

    /// Installed paths for one pair (empty slice if the pair is not in the table).
    pub fn paths_for(&self, src: NodeId, dst: NodeId) -> &[Path] {
        self.paths.get(&(src, dst)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of pairs in the table.
    pub fn num_pairs(&self) -> usize {
        self.paths.len()
    }

    /// Total number of installed paths.
    pub fn num_paths(&self) -> usize {
        // The canonical D01 allow: a sum of per-pair counts is the same in
        // every visit order, so the hash order never reaches the result.
        // detlint: allow(D01, reason = "sum of per-pair path counts is order-independent")
        self.paths.values().map(Vec::len).sum()
    }

    /// Iterates over `((src, dst), paths)` entries in ascending `(src,
    /// dst)` order. The underlying table is a `HashMap`, so the entries are
    /// sorted before yielding — the public iteration order is deterministic
    /// and safe to render from.
    pub fn iter(&self) -> impl Iterator<Item = (&(NodeId, NodeId), &Vec<Path>)> {
        // detlint: allow(D01, reason = "entries are sorted by (src, dst) before yielding")
        let mut entries: Vec<_> = self.paths.iter().collect();
        entries.sort_unstable_by_key(|&(pair, _)| *pair);
        entries.into_iter()
    }

    /// Counts, for every directed arc (dense [`jellyfish_topology::ArcId`]
    /// order), the number of installed paths traversing it. Arcs never
    /// traversed hold zero. This is the flat Figure 9 accumulator.
    pub fn arc_path_counts(&self, csr: &CsrGraph) -> Vec<usize> {
        let mut counts = vec![0usize; csr.num_arcs()];
        // detlint: allow(D01, reason = "+= 1 per traversed arc commutes across visit order")
        for pair_paths in self.paths.values() {
            for p in pair_paths {
                for w in p.windows(2) {
                    let arc = csr
                        .arc_index(w[0], w[1])
                        .expect("installed path uses a link absent from the snapshot");
                    counts[arc] += 1;
                }
            }
        }
        counts
    }

    /// Counts, for every *directed* inter-switch link, the number of distinct
    /// installed paths that traverse it. Links never traversed are included
    /// with a count of zero. This is the Figure 9 quantity keyed by node
    /// pair; the hot path is [`PathTable::arc_path_counts`].
    pub fn directed_link_path_counts(&self, csr: &CsrGraph) -> HashMap<(NodeId, NodeId), usize> {
        self.arc_path_counts(csr)
            .into_iter()
            .enumerate()
            .map(|(arc, count)| ((csr.arc_source(arc), csr.arc_target(arc)), count))
            .collect()
    }

    /// The Figure 9 series: per-directed-link path counts sorted ascending
    /// ("rank of link" on the x axis, "# distinct paths link is on" on the y
    /// axis).
    pub fn ranked_link_path_counts(&self, csr: &CsrGraph) -> Vec<usize> {
        let mut counts = self.arc_path_counts(csr);
        counts.sort_unstable();
        counts
    }

    /// Fraction of directed links that lie on at most `threshold` distinct
    /// paths (the paper quotes 55% of links on <= 2 paths under ECMP vs 6%
    /// under 8-shortest-paths, for the 686-server Jellyfish).
    pub fn fraction_links_with_at_most(&self, csr: &CsrGraph, threshold: usize) -> f64 {
        let ranked = self.ranked_link_path_counts(csr);
        if ranked.is_empty() {
            return 0.0;
        }
        ranked.iter().filter(|&&c| c <= threshold).count() as f64 / ranked.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish_topology::bfs::bfs_scalar_into;
    use jellyfish_topology::JellyfishBuilder;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn permutation_pairs(n: usize, seed: u64) -> Vec<(usize, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dsts: Vec<usize> = (0..n).collect();
        loop {
            dsts.shuffle(&mut rng);
            if dsts.iter().enumerate().all(|(i, &d)| i != d) {
                break;
            }
        }
        (0..n).map(|s| (s, dsts[s])).collect()
    }

    /// One pair's path set computed on its own: ECMP over a scalar BFS row
    /// from the destination, KSP by Yen.
    fn pair_paths(csr: &CsrGraph, scheme: RoutingScheme, src: NodeId, dst: NodeId) -> Vec<Path> {
        match scheme {
            RoutingScheme::Ecmp { way } => {
                let mut to_dst = vec![0; csr.num_nodes()];
                bfs_scalar_into(csr, dst, &mut to_dst);
                all_shortest_paths(csr, &to_dst, src, dst, way)
            }
            RoutingScheme::KShortestPaths { k } => k_shortest_paths(csr, src, dst, k),
        }
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(RoutingScheme::ecmp8().label(), "8-way ECMP");
        assert_eq!(RoutingScheme::ecmp64().label(), "64-way ECMP");
        assert_eq!(RoutingScheme::ksp8().label(), "8 Shortest Paths");
    }

    #[test]
    fn table_skips_self_pairs_and_counts() {
        let topo = JellyfishBuilder::new(20, 8, 5).seed(1).build().unwrap();
        let csr = topo.csr();
        let table =
            PathTable::build(&csr, RoutingScheme::ksp8(), vec![(0, 5), (5, 0), (3, 3), (7, 12)]);
        assert_eq!(table.num_pairs(), 3);
        assert!(table.num_paths() >= 3);
        assert!(table.paths_for(3, 3).is_empty());
        assert!(!table.paths_for(0, 5).is_empty());
        assert!(table.paths_for(11, 12).is_empty());
    }

    #[test]
    fn parallel_build_matches_serial() {
        let topo = JellyfishBuilder::new(30, 8, 5).seed(12).build().unwrap();
        let csr = topo.csr();
        let pairs = permutation_pairs(30, 13);
        for scheme in [RoutingScheme::ecmp8(), RoutingScheme::ksp8()] {
            let par = PathTable::build(&csr, scheme, pairs.iter().copied());
            // The serial reference: one `pair_paths` call per pair, and the
            // per-arc path counts tallied from those paths.
            assert_eq!(par.num_pairs(), pairs.len());
            let mut counts = vec![0usize; csr.num_arcs()];
            for &(s, d) in &pairs {
                let paths = pair_paths(&csr, scheme, s, d);
                assert_eq!(par.paths_for(s, d), paths.as_slice(), "pair ({s}, {d})");
                for w in paths.iter().flat_map(|p| p.windows(2)) {
                    counts[csr.arc_index(w[0], w[1]).unwrap()] += 1;
                }
            }
            counts.sort_unstable();
            assert_eq!(par.ranked_link_path_counts(&csr), counts);
        }
    }

    #[test]
    fn link_counts_cover_every_directed_link() {
        let topo = JellyfishBuilder::new(20, 8, 5).seed(2).build().unwrap();
        let csr = topo.csr();
        let table = PathTable::build(&csr, RoutingScheme::ecmp8(), permutation_pairs(20, 3));
        let counts = table.directed_link_path_counts(&csr);
        assert_eq!(counts.len(), 2 * topo.num_links());
        let ranked = table.ranked_link_path_counts(&csr);
        assert_eq!(ranked.len(), 2 * topo.num_links());
        assert!(ranked.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn link_count_totals_match_path_hops() {
        let topo = JellyfishBuilder::new(15, 8, 5).seed(4).build().unwrap();
        let csr = topo.csr();
        let table = PathTable::build(&csr, RoutingScheme::ksp8(), permutation_pairs(15, 5));
        let counts = table.directed_link_path_counts(&csr);
        let total_from_counts: usize = counts.values().sum();
        let total_hops: usize =
            table.iter().flat_map(|(_, paths)| paths.iter().map(|p| p.len() - 1)).sum();
        assert_eq!(total_from_counts, total_hops);
        let flat_total: usize = table.arc_path_counts(&csr).iter().sum();
        assert_eq!(flat_total, total_hops);
    }

    #[test]
    fn ksp_uses_more_links_than_ecmp() {
        // The Figure 9 effect: 8-shortest-path routing leaves far fewer links
        // with <= 2 paths than 8-way ECMP on a Jellyfish topology.
        let topo = JellyfishBuilder::new(60, 10, 6).seed(6).build().unwrap();
        let csr = topo.csr();
        let pairs = permutation_pairs(60, 7);
        let ecmp = PathTable::build(&csr, RoutingScheme::ecmp8(), pairs.clone());
        let ksp = PathTable::build(&csr, RoutingScheme::ksp8(), pairs);
        let f_ecmp = ecmp.fraction_links_with_at_most(&csr, 2);
        let f_ksp = ksp.fraction_links_with_at_most(&csr, 2);
        assert!(
            f_ksp < f_ecmp,
            "k-shortest paths ({f_ksp}) should leave fewer underused links than ECMP ({f_ecmp})"
        );
    }

    #[test]
    fn ecmp64_no_worse_than_ecmp8() {
        let topo = JellyfishBuilder::new(40, 10, 6).seed(8).build().unwrap();
        let csr = topo.csr();
        let pairs = permutation_pairs(40, 9);
        let e8 = PathTable::build(&csr, RoutingScheme::ecmp8(), pairs.clone());
        let e64 = PathTable::build(&csr, RoutingScheme::ecmp64(), pairs);
        assert!(e64.num_paths() >= e8.num_paths());
    }

    #[test]
    fn empty_table_fraction_is_zero() {
        let topo = JellyfishBuilder::new(10, 6, 3).seed(1).build().unwrap();
        let csr = topo.csr();
        let table = PathTable::build(&csr, RoutingScheme::ecmp8(), Vec::new());
        assert_eq!(table.num_pairs(), 0);
        // All links have zero paths -> fraction with <= 2 is 1.0 (all of them).
        assert!((table.fraction_links_with_at_most(&csr, 2) - 1.0).abs() < 1e-12);
    }
}
