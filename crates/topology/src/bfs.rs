//! The one breadth-first-search distance kernel of the workspace, the block
//! driver every hop-distance sweep runs through, and the flat
//! [`DistanceMatrix`] the all-pairs sweep fills.
//!
//! * [`ms_bfs_into`] — the multi-source bit-parallel BFS (MS-BFS, Then et
//!   al., PVLDB 2014): up to 64 sources at once, one `u64` lane each, so a
//!   block of sources costs one edge sweep per BFS level;
//! * [`map_source_blocks`] — runs [`ms_bfs_into`] over any list of sources,
//!   64 per block, and hands each block's rows to a fold. All-pairs
//!   distances ([`all_pairs_distances`]), incremental row repair and the
//!   path-length statistics of [`crate::properties`] all go through it;
//! * [`bfs_scalar_into`] — the classic queue-driven BFS, kept as the test
//!   oracle.
//!
//! BFS levels are a pure function of the graph, so every lane of the
//! multi-source kernel equals the scalar BFS from its source — enforced by
//! proptests across every generator in the spec registry.

use crate::csr::CsrGraph;
use crate::graph::NodeId;
use rayon::prelude::*;

/// Distance value stored for unreachable nodes.
pub const UNREACHED: u32 = u32::MAX;

/// Flat row-major all-pairs distance matrix: `row(src)[dst]` is the hop
/// distance from `src` to `dst`, [`UNREACHED`] when no path exists.
///
/// Replaces the `Vec<Vec<usize>>` the all-pairs sweeps used to return: one
/// contiguous `u32` allocation instead of one heap cell per source, a 2×
/// smaller footprint, and rows that stream through the cache in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    cols: usize,
    data: Vec<u32>,
}

impl DistanceMatrix {
    /// Builds a matrix from its flat row-major data; `data.len()` must be a
    /// multiple of `cols` (`rows × cols`).
    pub fn from_flat(cols: usize, data: Vec<u32>) -> Self {
        if cols == 0 {
            assert!(data.is_empty(), "zero-column matrix with data");
        } else {
            assert_eq!(data.len() % cols, 0, "flat data is not a whole number of rows");
        }
        DistanceMatrix { cols, data }
    }

    /// Number of rows (sources).
    pub fn num_rows(&self) -> usize {
        self.data.len().checked_div(self.cols).unwrap_or(0)
    }

    /// Number of columns (destinations).
    #[inline]
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// The distance row of `src`.
    #[inline]
    pub fn row(&self, src: NodeId) -> &[u32] {
        &self.data[src * self.cols..(src + 1) * self.cols]
    }

    /// Hop distance from `src` to `dst` ([`UNREACHED`] when unreachable).
    #[inline]
    pub fn get(&self, src: NodeId, dst: NodeId) -> u32 {
        self.data[src * self.cols + dst]
    }

    /// Iterates over the rows in source order.
    pub fn rows(&self) -> impl Iterator<Item = &[u32]> {
        self.data.chunks_exact(self.cols.max(1)).take(self.num_rows())
    }

    /// The whole matrix as one flat row-major slice.
    #[inline]
    pub fn as_flat(&self) -> &[u32] {
        &self.data
    }

    /// Mutable access to the distance row of `src`, for in-place repair of
    /// individual sources after a topology delta (`jellyfish-routing`'s
    /// incremental module). Hop distances are canonical, so any correct BFS
    /// writing a row here reproduces the full-rebuild bytes exactly.
    #[inline]
    pub fn row_mut(&mut self, src: NodeId) -> &mut [u32] {
        &mut self.data[src * self.cols..(src + 1) * self.cols]
    }
}

/// OR of `masks[i]` over the indices in `idx`: the per-node gather at the
/// heart of the multi-source BFS, where `idx` is a CSR neighbor row and
/// `masks` holds one source bitmask per node.
#[inline]
fn or_gather(masks: &[u64], idx: &[u32]) -> u64 {
    let mut acc = 0u64;
    for &i in idx {
        acc |= masks[i as usize];
    }
    acc
}

/// Queue-driven top-down BFS writing hop distances into `dist`
/// ([`UNREACHED`] when unreachable). This is the pre-rewrite kernel, kept as
/// the test oracle [`ms_bfs_into`] is compared against.
pub fn bfs_scalar_into(csr: &CsrGraph, source: NodeId, dist: &mut [u32]) {
    let n = csr.num_nodes();
    assert_eq!(dist.len(), n);
    dist.fill(UNREACHED);
    let mut queue = std::collections::VecDeque::with_capacity(n);
    dist[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u];
        for &v in csr.neighbors(u) {
            let v = v as usize;
            if dist[v] == UNREACHED {
                dist[v] = du + 1;
                queue.push_back(v);
            }
        }
    }
}

/// Reusable buffers for [`ms_bfs_into`]: one `u64` source-bitmask per node.
#[derive(Debug, Clone)]
pub struct MsBfsScratch {
    /// Sources whose current frontier contains the node.
    frontier: Vec<u64>,
    /// Sources discovering the node this level.
    next: Vec<u64>,
    /// Sources that have visited the node.
    seen: Vec<u64>,
}

impl MsBfsScratch {
    /// Scratch sized for an `n`-node graph.
    pub fn new(n: usize) -> Self {
        MsBfsScratch { frontier: vec![0; n], next: vec![0; n], seen: vec![0; n] }
    }
}

/// Multi-source bit-parallel BFS: runs up to 64 sources at once, one `u64`
/// lane per source. `rows` is the flat row-major output
/// (`sources.len() × n`, row `i` holding the distances from `sources[i]`).
///
/// Every level propagates all lanes with one OR-gather per node over its CSR
/// neighbor row (`or_gather`), so a whole batch costs one edge-sweep per
/// BFS level instead of one per source. Distances are BFS levels and
/// therefore exactly those of [`bfs_scalar_into`] lane by lane.
pub fn ms_bfs_into(
    csr: &CsrGraph,
    sources: &[NodeId],
    rows: &mut [u32],
    scratch: &mut MsBfsScratch,
) {
    let n = csr.num_nodes();
    let lanes = sources.len();
    assert!(lanes <= 64, "at most 64 sources per batch");
    assert_eq!(rows.len(), lanes * n, "rows must be sources × n");
    rows.fill(UNREACHED);
    if n == 0 || lanes == 0 {
        return;
    }
    scratch.frontier[..n].fill(0);
    scratch.seen[..n].fill(0);
    for (lane, &s) in sources.iter().enumerate() {
        rows[lane * n + s] = 0;
        scratch.frontier[s] |= 1u64 << lane;
        scratch.seen[s] |= 1u64 << lane;
    }

    let mut level = 0u32;
    let mut active = true;
    while active {
        active = false;
        level += 1;
        // next[v] is fully overwritten each level, so it never needs
        // clearing; the frontier/next buffers just swap.
        for v in 0..n {
            let gathered = or_gather(&scratch.frontier, csr.neighbors(v));
            let fresh = gathered & !scratch.seen[v];
            scratch.next[v] = fresh;
            if fresh != 0 {
                scratch.seen[v] |= fresh;
                let mut rem = fresh;
                while rem != 0 {
                    let lane = rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    rows[lane * n + v] = level;
                }
                active = true;
            }
        }
        std::mem::swap(&mut scratch.frontier, &mut scratch.next);
    }
}

/// Sources per [`ms_bfs_into`] block: one `u64` lane each.
const BLOCK: usize = 64;

/// Below this node count a whole sweep costs less than fanning its blocks
/// out to worker threads, so [`map_source_blocks`] stays serial. The
/// degree-diameter annealer sweeps graphs of at most 212 nodes thousands of
/// times per build.
const PARALLEL_MIN_NODES: usize = 256;

/// The block driver behind every hop-distance sweep: runs [`ms_bfs_into`]
/// over `sources`, 64 per block, and maps each block through `fold`, which
/// receives the block's sources and their distance rows
/// (`block.len() × n`, row `i` from `block[i]`). Returns the folds' results
/// in source order.
///
/// Graphs below 256 nodes run serially with one reused row buffer and
/// scratch; larger ones fan the blocks out with rayon. Each block is folded
/// on its own, so both paths return the same values.
pub fn map_source_blocks<T, F>(csr: &CsrGraph, sources: &[NodeId], fold: F) -> Vec<T>
where
    T: Send,
    F: Fn(&[NodeId], &[u32]) -> T + Sync,
{
    let n = csr.num_nodes();
    let run = |block: &[NodeId], rows: &mut Vec<u32>, scratch: &mut MsBfsScratch| {
        rows.resize(block.len() * n, UNREACHED);
        ms_bfs_into(csr, block, rows, scratch);
        fold(block, rows)
    };
    if n < PARALLEL_MIN_NODES {
        let (mut rows, mut scratch) = (Vec::new(), MsBfsScratch::new(n));
        sources.chunks(BLOCK).map(|block| run(block, &mut rows, &mut scratch)).collect()
    } else {
        let blocks: Vec<&[NodeId]> = sources.chunks(BLOCK).collect();
        blocks
            .into_par_iter()
            .map(|block| run(block, &mut Vec::new(), &mut MsBfsScratch::new(n)))
            .collect()
    }
}

/// All-pairs shortest-path distances (hop counts) as a flat row-major
/// [`DistanceMatrix`] (`row(src)[dst]`, [`UNREACHED`] when unreachable):
/// every source through [`map_source_blocks`], rows concatenated in source
/// order.
pub fn all_pairs_distances(csr: &CsrGraph) -> DistanceMatrix {
    let sources: Vec<NodeId> = csr.nodes().collect();
    let data = map_source_blocks(csr, &sources, |_, rows| rows.to_vec()).concat();
    DistanceMatrix::from_flat(csr.num_nodes(), data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::rrg::JellyfishBuilder;

    /// Every row [`map_source_blocks`] hands its fold, with the sources in
    /// reverse order, and every row of [`all_pairs_distances`] equals the
    /// scalar BFS from that row's source.
    fn assert_kernels_agree(csr: &CsrGraph) {
        let n = csr.num_nodes();
        let sources: Vec<NodeId> = csr.nodes().rev().collect();
        let rows = map_source_blocks(csr, &sources, |_, rows| rows.to_vec()).concat();
        assert_eq!(rows.len(), n * n);
        let all = all_pairs_distances(csr);
        let mut reference = vec![0u32; n];
        for (&s, row) in sources.iter().zip(rows.chunks_exact(n)) {
            bfs_scalar_into(csr, s, &mut reference);
            assert_eq!(row, &reference[..], "source {s}");
            assert_eq!(all.row(s), &reference[..], "all-pairs row {s}");
        }
    }

    #[test]
    fn matches_scalar_on_ring() {
        let mut g = Graph::new(10);
        for i in 0..10 {
            g.add_edge(i, (i + 1) % 10);
        }
        assert_kernels_agree(&CsrGraph::from_graph(&g));
    }

    #[test]
    fn matches_scalar_on_jellyfish() {
        // 300 nodes: above the serial threshold, so the five blocks fan out
        // to worker threads.
        let topo = JellyfishBuilder::new(300, 10, 8).seed(3).build().unwrap();
        assert_kernels_agree(&topo.csr());
    }

    #[test]
    fn matches_scalar_on_disconnected() {
        let mut g = Graph::new(130);
        for i in 0..64 {
            g.add_edge(i, i + 1);
        }
        g.add_edge(70, 71);
        assert_kernels_agree(&CsrGraph::from_graph(&g));
    }

    #[test]
    fn empty_and_single_node() {
        let csr = CsrGraph::from_graph(&Graph::new(1));
        assert_eq!(all_pairs_distances(&csr).as_flat(), &[0]);
        let csr0 = CsrGraph::from_graph(&Graph::new(0));
        assert_eq!(all_pairs_distances(&csr0).num_rows(), 0);
        assert!(map_source_blocks(&csr0, &[], |_, _| ()).is_empty());
    }

    fn assert_ms_bfs_agrees(csr: &CsrGraph) {
        let n = csr.num_nodes();
        let sources: Vec<usize> = csr.nodes().collect();
        let mut scratch = MsBfsScratch::new(n);
        let mut reference = vec![0u32; n];
        for batch in sources.chunks(64) {
            let mut rows = vec![0u32; batch.len() * n];
            ms_bfs_into(csr, batch, &mut rows, &mut scratch);
            for (lane, &s) in batch.iter().enumerate() {
                bfs_scalar_into(csr, s, &mut reference);
                assert_eq!(&rows[lane * n..(lane + 1) * n], &reference[..], "source {s}");
            }
        }
    }

    #[test]
    fn ms_bfs_matches_scalar_per_lane() {
        let topo = JellyfishBuilder::new(80, 10, 8).seed(3).build().unwrap();
        assert_ms_bfs_agrees(&topo.csr());
        // More than one batch, with unreachable components.
        let mut g = Graph::new(130);
        for i in 0..64 {
            g.add_edge(i, i + 1);
        }
        g.add_edge(70, 71);
        assert_ms_bfs_agrees(&CsrGraph::from_graph(&g));
    }

    #[test]
    fn ms_bfs_empty_batch_and_graph() {
        let csr = CsrGraph::from_graph(&Graph::new(3));
        let mut scratch = MsBfsScratch::new(3);
        let mut rows: Vec<u32> = Vec::new();
        ms_bfs_into(&csr, &[], &mut rows, &mut scratch);
        let csr0 = CsrGraph::from_graph(&Graph::new(0));
        let mut scratch0 = MsBfsScratch::new(0);
        ms_bfs_into(&csr0, &[], &mut rows, &mut scratch0);
    }

    #[test]
    fn distance_matrix_layout() {
        let m = DistanceMatrix::from_flat(3, vec![0, 1, 2, 1, 0, 1, 2, 1, 0]);
        assert_eq!(m.num_rows(), 3);
        assert_eq!(m.num_cols(), 3);
        assert_eq!(m.row(1), &[1, 0, 1]);
        assert_eq!(m.get(2, 0), 2);
        assert_eq!(m.rows().count(), 3);
        assert_eq!(m.as_flat().len(), 9);
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn distance_matrix_rejects_ragged_data() {
        DistanceMatrix::from_flat(4, vec![0, 1, 2]);
    }
}
