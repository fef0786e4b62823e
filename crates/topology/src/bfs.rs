//! The breadth-first-search distance kernel behind every all-pairs sweep in
//! the workspace, plus the flat [`DistanceMatrix`] those sweeps fill.
//!
//! Two kernels compute identical hop distances:
//!
//! * [`bfs_scalar_into`] — the classic queue-driven top-down BFS (the
//!   pre-rewrite implementation), kept as the test oracle;
//! * [`bfs_into`] — a direction-optimizing BFS (Beamer et al.): levels whose
//!   frontier touches a large share of the remaining edges are expanded
//!   *bottom-up* (every unvisited node scans its neighbors for a frontier
//!   member, over `u64` bitset words) instead of top-down. On the
//!   low-diameter expanders this repository studies, one or two middle
//!   levels contain nearly every node, which is exactly the regime where
//!   bottom-up wins.
//!
//! BFS levels are a pure function of the graph, so the two kernels agree
//! bit-for-bit on every input regardless of traversal direction — enforced
//! by proptests across every generator in the spec registry.

use crate::csr::CsrGraph;
use crate::graph::NodeId;

/// Distance value stored for unreachable nodes.
pub const UNREACHED: u32 = u32::MAX;

/// Switch to bottom-up when the frontier's out-edges exceed `1/ALPHA` of the
/// edges still incident to unvisited nodes (Beamer's α).
const ALPHA: usize = 14;

/// Switch back to top-down when the frontier shrinks below `n / BETA`
/// nodes (Beamer's β).
const BETA: usize = 24;

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

    /// Consumes the matrix and returns its flat row-major data, for repairs
    /// that change the node count (and therefore the row stride).
    #[inline]
    pub fn into_flat(self) -> Vec<u32> {
        self.data
    }
}

/// Reusable per-thread buffers for [`bfs_into`], so an all-pairs sweep
/// allocates once per worker instead of once per source.
#[derive(Debug, Clone)]
pub struct BfsScratch {
    /// Current-level node queue (top-down).
    frontier: Vec<u32>,
    /// Next-level node queue (top-down).
    next: Vec<u32>,
    /// Bitset of the current frontier.
    frontier_bits: Vec<u64>,
    /// Bitset of the next frontier.
    next_bits: Vec<u64>,
    /// Bitset of all visited nodes.
    visited: Vec<u64>,
}

impl BfsScratch {
    /// Scratch sized for an `n`-node graph.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        BfsScratch {
            frontier: Vec::with_capacity(n),
            next: Vec::with_capacity(n),
            frontier_bits: vec![0; words],
            next_bits: vec![0; words],
            visited: vec![0; words],
        }
    }
}

#[inline]
fn test_bit(bits: &[u64], v: usize) -> bool {
    bits[v >> 6] & (1u64 << (v & 63)) != 0
}

#[inline]
fn set_bit(bits: &mut [u64], v: usize) {
    bits[v >> 6] |= 1u64 << (v & 63);
}

/// `dst[i] |= src[i]` for every word.
#[inline]
fn or_assign(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
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
/// the test oracle the faster BFS kernels are compared against.
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

/// Direction-optimizing BFS writing hop distances into `dist`. Produces
/// exactly the distances of [`bfs_scalar_into`]; `scratch` is reset on entry
/// and can be reused across calls for the same graph size.
pub fn bfs_into(csr: &CsrGraph, source: NodeId, dist: &mut [u32], scratch: &mut BfsScratch) {
    let n = csr.num_nodes();
    assert_eq!(dist.len(), n);
    dist.fill(UNREACHED);
    if n == 0 {
        return;
    }
    dist[source] = 0;

    let words = n.div_ceil(64);
    scratch.frontier_bits[..words].fill(0);
    scratch.next_bits[..words].fill(0);
    scratch.visited[..words].fill(0);
    scratch.frontier.clear();
    scratch.next.clear();

    scratch.frontier.push(source as u32);
    set_bit(&mut scratch.frontier_bits, source);
    set_bit(&mut scratch.visited, source);

    // Out-edges of the current frontier (Beamer's m_f) and edges still
    // incident to unvisited nodes (m_u).
    let mut frontier_edges = csr.degree(source);
    let mut unvisited_edges = csr.num_arcs().saturating_sub(frontier_edges);
    // The frontier queue is only maintained while running top-down; after a
    // bottom-up level it is rebuilt from the bitset on demand.
    let mut queue_is_current = true;
    let mut frontier_len = 1usize;
    let mut level = 0u32;

    while frontier_len > 0 {
        level += 1;
        let bottom_up = frontier_edges > unvisited_edges / ALPHA && frontier_len >= n / BETA.max(1);
        let mut next_edges = 0usize;
        let mut next_len = 0usize;

        if bottom_up {
            // Every unvisited node scans its row for a frontier member; the
            // candidate scan walks whole `u64` words of unvisited bits.
            for w in 0..words {
                let mut rem = !scratch.visited[w];
                if w == words - 1 && n & 63 != 0 {
                    rem &= (1u64 << (n & 63)) - 1;
                }
                while rem != 0 {
                    let v = (w << 6) + rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    for &u in csr.neighbors(v) {
                        if test_bit(&scratch.frontier_bits, u as usize) {
                            dist[v] = level;
                            set_bit(&mut scratch.next_bits, v);
                            next_len += 1;
                            next_edges += csr.degree(v);
                            break;
                        }
                    }
                }
            }
            queue_is_current = false;
        } else {
            if !queue_is_current {
                // Rebuild the queue from the frontier bitset (ascending node
                // order, matching what a top-down expansion would have left).
                scratch.frontier.clear();
                for w in 0..words {
                    let mut rem = scratch.frontier_bits[w];
                    while rem != 0 {
                        let v = (w << 6) + rem.trailing_zeros() as usize;
                        rem &= rem - 1;
                        scratch.frontier.push(v as u32);
                    }
                }
                queue_is_current = true;
            }
            scratch.next.clear();
            for i in 0..scratch.frontier.len() {
                let u = scratch.frontier[i] as usize;
                for &v in csr.neighbors(u) {
                    let v = v as usize;
                    if dist[v] == UNREACHED {
                        dist[v] = level;
                        set_bit(&mut scratch.next_bits, v);
                        scratch.next.push(v as u32);
                        next_len += 1;
                        next_edges += csr.degree(v);
                    }
                }
            }
            std::mem::swap(&mut scratch.frontier, &mut scratch.next);
        }

        or_assign(&mut scratch.visited[..words], &scratch.next_bits[..words]);
        std::mem::swap(&mut scratch.frontier_bits, &mut scratch.next_bits);
        scratch.next_bits[..words].fill(0);
        unvisited_edges = unvisited_edges.saturating_sub(next_edges);
        frontier_edges = next_edges;
        frontier_len = next_len;
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
/// BFS level instead of one per source — the workhorse behind
/// the all-pairs sweeps. Distances are BFS levels and therefore exactly
/// those of [`bfs_scalar_into`] / [`bfs_into`] lane by lane.
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

/// One-shot convenience wrapper around [`bfs_into`] allocating its own row
/// and scratch.
pub fn bfs_distances_u32(csr: &CsrGraph, source: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHED; csr.num_nodes()];
    let mut scratch = BfsScratch::new(csr.num_nodes());
    bfs_into(csr, source, &mut dist, &mut scratch);
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::rrg::JellyfishBuilder;

    fn assert_kernels_agree(csr: &CsrGraph) {
        let n = csr.num_nodes();
        let mut scratch = BfsScratch::new(n);
        let mut fast = vec![0u32; n];
        let mut reference = vec![0u32; n];
        for s in csr.nodes() {
            bfs_into(csr, s, &mut fast, &mut scratch);
            bfs_scalar_into(csr, s, &mut reference);
            assert_eq!(fast, reference, "source {s}");
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
        // Dense expander: exercises the bottom-up path (middle levels hold
        // most nodes).
        let topo = JellyfishBuilder::new(80, 10, 8).seed(3).build().unwrap();
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
        assert_eq!(bfs_distances_u32(&csr, 0), vec![0]);
        let csr0 = CsrGraph::from_graph(&Graph::new(0));
        let mut scratch = BfsScratch::new(0);
        let mut dist: Vec<u32> = Vec::new();
        bfs_into(&csr0, 0, &mut dist, &mut scratch);
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
