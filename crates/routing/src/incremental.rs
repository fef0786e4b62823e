//! Incremental all-pairs distance repair under topology churn.
//!
//! The live-topology service (`jellyfish::service`) holds a resident
//! [`DistanceMatrix`] and applies link/switch failures, restores and
//! incremental expansion as *deltas*: every event names its [`EdgeDelta`],
//! and the service edits its snapshot by it. [`repair_rows`] then brings
//! each old row to the edited snapshot in place with a dynamic
//! shortest-path update for unit weights (after Ramalingam and Reps, "An
//! incremental algorithm for a generalization of the shortest-path
//! problem", J. Algorithms 21(2), 1996), and fills new nodes' rows with the
//! block driver of the full rebuild ([`map_source_blocks`]).
//! [`repair_all_pairs`] rebuilds the matrix instead when the delta shrinks
//! the node set (it re-keys nodes) or is too large for the row repair to
//! win.
//!
//! Byte-identity with a full rebuild is structural, not probabilistic: hop
//! distances are canonical values, so a correct repair writes the same
//! `u32`s a full [`all_pairs_distances`] sweep would.
//!
//! ## The row repair
//!
//! Fix a source `s`. Write `d` for its old row, extended to the new node
//! count with new nodes unreached (they are isolated in the old graph),
//! `d'` for its new distances and `N'(x)` for the neighbours of `x` in the
//! new snapshot. A node `w ∈ N'(x)` with `d(w) = d(x) − 1` is a *parent*
//! of `x`, and `x` a *child* of `w`.
//!
//! 1. **Orphans.** A removed edge is *tight* when its far endpoint sat one
//!    level below its near one, `d(v) = d(u) + 1`. A far endpoint left
//!    with no parent starts an orphan sweep, which visits candidates in
//!    level order: a candidate with no non-orphan parent is an *orphan*,
//!    and an orphan makes its children candidates.
//! 2. **Seeds.** Each orphan is relabelled one more than its lowest
//!    non-orphan neighbour (unreached when it has none), and each added
//!    edge whose endpoint's label plus one undercuts the other endpoint's
//!    lowers that label.
//! 3. **Settle.** One bucket-queue pass in label order pops every lowered
//!    node and lowers its neighbours' labels to its own plus one.
//!
//! A row in which no removed edge is tight and no added edge shortens
//! anything costs `O(|delta|)` plus one neighbour scan per tight removed
//! edge; a touched row costs the entries that move and their neighbours.
//! The row is reported changed when an old column's final label differs
//! from `d`, so the report is exact for every delta. For one removed or one
//! added link it names the rows whose far endpoint lost its last parent, or
//! whose endpoints sat two or more levels apart.
//!
//! ## Soundness
//!
//! *Every non-orphan `x` other than `s` with `d(x)` finite keeps a
//! non-orphan parent.* If `x` was a candidate, the sweep checked it after
//! every orphan one level closer was known. Otherwise `x` was never
//! pushed: no parent of `x` became an orphan (an orphan pushes all its
//! children), and no tight removed edge left `x` without a parent. `x` had
//! an old parent `w`; if the edge `w–x` survived, `w` is a parent in the
//! new snapshot, and if it was removed it was tight into `x`, which
//! therefore kept another parent. Either parent is a non-orphan. By
//! induction on the level, every non-orphan has `d'(x) <= d(x)`.
//!
//! *Labels never undercut `d'`.* Every label is the length of a walk from
//! `s` in the new snapshot: a non-orphan's `d(x)` by the above, an
//! orphan's seed through a non-orphan neighbour, and every lowering one
//! edge past a labelled node.
//!
//! *Labels reach `d'`.* Suppose a node ends above `d'`; on a shortest new
//! path to it let `y` be the first such node and `p` its predecessor, so
//! `ℓ(p) = d'(p) = d'(y) − 1` is finite. If the settle pass popped `p`, it
//! lowered `y` to at most `d'(y)`. Otherwise `p` is a non-orphan that kept
//! `d(p)`. If `p–y` is an added edge, the seeds lowered `y` to at most
//! `d(p) + 1`. If it is an old edge, `d(y) <= d(p) + 1` in the old graph, so
//! a non-orphan `y` starts at most there and an orphan `y` is seeded at
//! most there through `p`. Each case contradicts `ℓ(y) > d'(y)`.
//!
//! Arithmetic: unreached is `u32::MAX`, so a label plus one saturates, and
//! the sweep adds one only to finite levels. The `affected_rows` tests
//! check the repair against full rebuilds under mixed deltas on every
//! topology generator, and the reported rows against the changed rows.

use crate::shortest::{all_pairs_distances, DistanceMatrix, UNREACHED};
use jellyfish_topology::bfs::map_source_blocks;
use jellyfish_topology::{CsrGraph, EdgeDelta, NodeId};

/// What a [`repair_all_pairs`] call did, for delta reporting and benchmarks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairOutcome {
    /// One flag per old row: whether its distances to old nodes changed
    /// (every flag is set when the delta re-keyed nodes). An unset row is
    /// bit-unchanged on its old columns, which is what lets callers keep
    /// derived per-pair state (the live service's path cache).
    pub changed: Vec<bool>,
    /// The set flags plus every new node's row; every row when the delta
    /// re-keyed nodes.
    pub repaired_rows: usize,
    /// Rows of the repaired matrix.
    pub total_rows: usize,
    /// True when the matrix was rebuilt from scratch: the delta re-keyed
    /// nodes, or was too large for the row repair to win.
    pub full_rebuild: bool,
}

/// Nodes by level, popped lowest level first.
struct Buckets {
    levels: Vec<Vec<u32>>,
    /// No level below this holds an entry.
    next: usize,
    pending: usize,
}

impl Buckets {
    fn push(&mut self, level: u32, node: NodeId) {
        let level = level as usize;
        self.levels[level].push(node as u32);
        self.next = if self.pending == 0 { level } else { self.next.min(level) };
        self.pending += 1;
    }

    fn pop(&mut self) -> Option<(u32, NodeId)> {
        if self.pending == 0 {
            return None;
        }
        loop {
            if let Some(node) = self.levels[self.next].pop() {
                self.pending -= 1;
                return Some((self.next as u32, node as NodeId));
            }
            self.next += 1;
        }
    }
}

/// A node's part in the current row's orphan sweep.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Sweep {
    Untouched,
    Candidate,
    Orphan,
}

/// The row repair of the module docs, with its scratch reused across rows.
struct RowRepair {
    queue: Buckets,
    /// Each node's part in the current row's sweep.
    sweep: Vec<Sweep>,
    /// The current row's candidates, orphans among them.
    candidates: Vec<NodeId>,
    /// The current row's orphans, with their old labels.
    orphans: Vec<(NodeId, u32)>,
}

impl RowRepair {
    fn new(n: usize) -> Self {
        RowRepair {
            // A label is an old level plus one, one past an orphan's seed
            // across an added edge, or one past a settled distance: at most
            // n + 1.
            queue: Buckets { levels: vec![Vec::new(); n + 2], next: 0, pending: 0 },
            sweep: vec![Sweep::Untouched; n],
            candidates: Vec::new(),
            orphans: Vec::new(),
        }
    }

    /// Queues `x` for the orphan test at `level`, once per row.
    fn candidate(&mut self, level: u32, x: NodeId) {
        if self.sweep[x] == Sweep::Untouched {
            self.sweep[x] = Sweep::Candidate;
            self.candidates.push(x);
            self.queue.push(level, x);
        }
    }

    /// Repairs `row` (one source's labels over every node of `csr`, the
    /// edited snapshot) for `delta`. Returns whether a column below
    /// `n_old` changed.
    fn run(&mut self, row: &mut [u32], csr: &CsrGraph, delta: &EdgeDelta, n_old: usize) -> bool {
        for e in &delta.removed {
            let (du, dv) = (row[e.a], row[e.b]);
            let far = if du != UNREACHED && dv == du + 1 {
                e.b
            } else if dv != UNREACHED && du == dv + 1 {
                e.a
            } else {
                continue;
            };
            let level = row[far];
            if !csr.neighbors(far).iter().any(|&w| row[w as usize] == level - 1) {
                self.candidate(level, far);
            }
        }
        while let Some((level, x)) = self.queue.pop() {
            let sweep = &self.sweep;
            let parent =
                |&w: &u32| row[w as usize] == level - 1 && sweep[w as usize] != Sweep::Orphan;
            if csr.neighbors(x).iter().any(parent) {
                continue;
            }
            self.sweep[x] = Sweep::Orphan;
            self.orphans.push((x, level));
            for &z in csr.neighbors(x) {
                if row[z as usize] == level + 1 {
                    self.candidate(level + 1, z as NodeId);
                }
            }
        }

        let RowRepair { queue, sweep, candidates, orphans } = self;
        let orphan = |x: NodeId| sweep[x] == Sweep::Orphan;
        for &(x, _) in orphans.iter() {
            let seed = csr
                .neighbors(x)
                .iter()
                .filter(|&&w| !orphan(w as NodeId))
                .map(|&w| row[w as usize].saturating_add(1))
                .min()
                .unwrap_or(UNREACHED);
            row[x] = seed;
            if seed != UNREACHED {
                queue.push(seed, x);
            }
        }
        let mut lowered = false;
        let mut lower = |row: &mut [u32], queue: &mut Buckets, y: NodeId, label: u32| {
            lowered |= y < n_old && !orphan(y);
            row[y] = label;
            queue.push(label, y);
        };
        for e in &delta.added {
            for (u, v) in [(e.a, e.b), (e.b, e.a)] {
                let through = row[u].saturating_add(1);
                if through < row[v] {
                    lower(row, queue, v, through);
                }
            }
        }
        if candidates.is_empty() && queue.pending == 0 {
            // Most rows: no sweep and no shortcut, so nothing moved.
            return false;
        }
        while let Some((level, x)) = queue.pop() {
            if row[x] != level {
                continue;
            }
            for &y in csr.neighbors(x) {
                if level + 1 < row[y as usize] {
                    lower(row, queue, y as NodeId, level + 1);
                }
            }
        }

        let changed = lowered || orphans.iter().any(|&(x, old)| row[x] != old);
        for x in candidates.drain(..) {
            sweep[x] = Sweep::Untouched;
        }
        orphans.clear();
        changed
    }
}

/// Brings an all-pairs matrix in place to the snapshot `csr`, which is the
/// matrix's snapshot edited by `delta`, and reports the rows that changed.
///
/// A small delta goes to [`repair_rows`]. A delta that shrinks the node
/// set re-keys nodes, and a large one costs the row repair more than a
/// rebuild: every row tests every delta link, and a rebuild sweeps every
/// arc once per 64 rows and level. On 20- to 686-switch fabrics the repair
/// wins while `2 · rows · |delta| <= ⌈nodes / 64⌉ · arcs` (PERF.md, "Churn
/// at the cost of the change"), so a larger delta rebuilds the matrix with
/// [`all_pairs_distances`] and compares it with the old one.
///
/// The result is byte-identical to `all_pairs_distances(csr)`.
pub fn repair_all_pairs(
    dist: &mut DistanceMatrix,
    csr: &CsrGraph,
    delta: &EdgeDelta,
) -> RepairOutcome {
    let n_old = dist.num_cols();
    let n_new = csr.num_nodes();
    let rekeyed = n_new < n_old || dist.num_rows() != n_old;
    let links = delta.removed.len() + delta.added.len();
    if !rekeyed && 2 * n_old * links <= n_new.div_ceil(64) * csr.num_arcs() {
        return repair_rows(dist, csr, delta);
    }
    let fresh = all_pairs_distances(csr);
    let (changed, repaired_rows) = if rekeyed {
        (vec![true; n_old], n_new)
    } else {
        let changed: Vec<bool> =
            (0..n_old).map(|s| fresh.row(s)[..n_old] != *dist.row(s)).collect();
        let count = changed.iter().filter(|&&c| c).count();
        (changed, count + n_new - n_old)
    };
    *dist = fresh;
    RepairOutcome { changed, repaired_rows, total_rows: n_new, full_rebuild: true }
}

/// The row repair of the module docs, whatever the delta's size: every old
/// row is repaired in place, and every new node's row comes from
/// multi-source BFS. [`repair_all_pairs`] calls it for small deltas; tests
/// call it directly. Panics when `delta` drops nodes.
///
/// The result is byte-identical to `all_pairs_distances(csr)`.
pub fn repair_rows(dist: &mut DistanceMatrix, csr: &CsrGraph, delta: &EdgeDelta) -> RepairOutcome {
    let n_old = dist.num_cols();
    let n_new = csr.num_nodes();
    assert!(n_new >= n_old && dist.num_rows() == n_old, "the row repair cannot drop nodes");
    if n_new > n_old {
        // New columns start unreached: the new nodes were isolated before.
        let mut data = vec![UNREACHED; n_new * n_new];
        for (s, row) in dist.rows().enumerate() {
            data[s * n_new..s * n_new + n_old].copy_from_slice(row);
        }
        *dist = DistanceMatrix::from_flat(n_new, data);
    }
    let mut repair = RowRepair::new(n_new);
    let changed: Vec<bool> =
        (0..n_old).map(|s| repair.run(dist.row_mut(s), csr, delta, n_old)).collect();
    let new_rows: Vec<NodeId> = (n_old..n_new).collect();
    if !new_rows.is_empty() {
        let blocks = map_source_blocks(csr, &new_rows, |_, rows| rows.to_vec());
        let rows = blocks.iter().flat_map(|rows| rows.chunks_exact(n_new));
        for (&s, row) in new_rows.iter().zip(rows) {
            dist.row_mut(s).copy_from_slice(row);
        }
    }
    let repaired_rows = changed.iter().filter(|&&c| c).count() + new_rows.len();
    RepairOutcome { changed, repaired_rows, total_rows: n_new, full_rebuild: false }
}

/// True when the undirected edge `(u, v)` lies on some shortest `src → dst`
/// path: `d(src,u) + 1 + d(v,dst) == d(src,dst)` in either orientation.
///
/// This is the exact pair-invalidation test for equal-cost path sets: ECMP
/// enumeration ([`crate::ecmp::all_shortest_paths`]) is a pure function of
/// the shortest-path DAG between the pair, and the DAG of a pair whose
/// distance rows did not change can only differ through an edge that this
/// predicate admits.
///
/// Only rows `src` and `dst` are read (`d(v,dst)` goes through the
/// undirected symmetry `d(dst,v)`), so on a matrix repaired by
/// [`repair_all_pairs`] the predicate is valid for removed edges too: a
/// pair whose rows the repair left unchanged sees its pre-delta values.
pub fn edge_on_shortest_path(
    dist: &DistanceMatrix,
    src: NodeId,
    dst: NodeId,
    u: NodeId,
    v: NodeId,
) -> bool {
    let d = dist.get(src, dst);
    if d == UNREACHED {
        return false;
    }
    let on = |x: NodeId, y: NodeId| -> bool {
        let sx = dist.get(src, x);
        let yd = dist.get(dst, y);
        sx != UNREACHED && yd != UNREACHED && sx + 1 + yd == d
    };
    on(u, v) || on(v, u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortest::all_pairs_distances;
    use jellyfish_topology::expansion::add_racks;
    use jellyfish_topology::failures::{fail_random_links, fail_random_switches};
    use jellyfish_topology::{JellyfishBuilder, Topology};

    type Repair = fn(&mut DistanceMatrix, &CsrGraph, &EdgeDelta) -> RepairOutcome;

    fn assert_matches_rebuild(
        repair: Repair,
        before: &Topology,
        after: &Topology,
    ) -> RepairOutcome {
        let old = before.csr();
        let mut dist = all_pairs_distances(&old);
        let csr = after.csr();
        let outcome = repair(&mut dist, &csr, &EdgeDelta::between(&old, &csr));
        let full = all_pairs_distances(&csr);
        assert_eq!(dist.as_flat(), full.as_flat(), "repair diverged from full rebuild");
        outcome
    }

    fn assert_repair_matches_rebuild(before: &Topology, after: &Topology) -> RepairOutcome {
        assert_matches_rebuild(repair_all_pairs, before, after)
    }

    #[test]
    fn single_link_removal_repairs_few_rows() {
        let base = JellyfishBuilder::new(40, 10, 6).seed(11).build().unwrap();
        let e = base.graph().edges().next().unwrap();
        let mut failed = base.clone();
        assert!(failed.disconnect(e.a, e.b));
        let outcome = assert_repair_matches_rebuild(&base, &failed);
        assert!(!outcome.full_rebuild);
        assert!(outcome.repaired_rows < outcome.total_rows);
    }

    #[test]
    fn link_restore_repairs_back() {
        let base = JellyfishBuilder::new(30, 8, 5).seed(3).build().unwrap();
        let e = base.graph().edges().nth(7).unwrap();
        let mut failed = base.clone();
        assert!(failed.disconnect(e.a, e.b));
        assert_repair_matches_rebuild(&failed, &base);
    }

    /// A 15 % failure (11 of 75 links) costs the row repair more than a
    /// rebuild, which still reports exactly the changed rows; the row
    /// repair itself gives the same matrix and report.
    #[test]
    fn random_link_failures_match_rebuild() {
        let base = JellyfishBuilder::new(30, 8, 5).seed(5).build().unwrap();
        let mut failed = base.clone();
        fail_random_links(&mut failed, 0.15, 99);
        let outcome = assert_repair_matches_rebuild(&base, &failed);
        assert!(outcome.full_rebuild, "a large delta rebuilds");
        assert!(outcome.repaired_rows > 0, "a 15% failure must touch some rows");
        let rows = assert_matches_rebuild(repair_rows, &base, &failed);
        assert_eq!((rows.changed, rows.full_rebuild), (outcome.changed, false));
    }

    #[test]
    fn switch_failure_matches_rebuild_even_when_disconnecting() {
        let base = JellyfishBuilder::new(24, 6, 4).seed(8).build().unwrap();
        let mut failed = base.clone();
        fail_random_switches(&mut failed, 0.2, 41);
        assert_repair_matches_rebuild(&base, &failed);
    }

    /// New columns start unreached next to old rows' finite labels, the
    /// case where unchecked level arithmetic would overflow.
    #[test]
    fn expansion_grows_the_matrix() {
        let base = JellyfishBuilder::new(20, 8, 5).seed(7).build().unwrap();
        let mut grown = base.clone();
        add_racks(&mut grown, 2, 8, 3, 13).unwrap();
        let outcome = assert_matches_rebuild(repair_rows, &base, &grown);
        assert!(!outcome.full_rebuild);
        assert_eq!(outcome.total_rows, grown.num_switches());
        assert_eq!(outcome.changed.len(), base.num_switches());
        assert_eq!(assert_repair_matches_rebuild(&base, &grown).changed, outcome.changed);
    }

    #[test]
    fn shrinking_delta_falls_back_to_full_rebuild() {
        let base = JellyfishBuilder::new(20, 8, 5).seed(7).build().unwrap();
        let mut grown = base.clone();
        add_racks(&mut grown, 1, 8, 3, 13).unwrap();
        let old = grown.csr();
        let mut dist = all_pairs_distances(&old);
        let csr = base.csr();
        let outcome = repair_all_pairs(&mut dist, &csr, &EdgeDelta::between(&old, &csr));
        assert!(outcome.full_rebuild);
        assert!(outcome.changed.iter().all(|&c| c), "a shrink re-keys every row");
        assert_eq!(dist.as_flat(), all_pairs_distances(&csr).as_flat());
    }

    #[test]
    fn empty_delta_repairs_nothing() {
        let base = JellyfishBuilder::new(20, 8, 5).seed(7).build().unwrap();
        let csr = base.csr();
        let mut dist = all_pairs_distances(&csr);
        let delta = EdgeDelta::between(&csr, &csr);
        assert!(delta.is_empty());
        let outcome = repair_all_pairs(&mut dist, &csr, &delta);
        assert_eq!(outcome.repaired_rows, 0);
        assert!(outcome.changed.iter().all(|&c| !c));
        assert!(!outcome.full_rebuild);
    }

    #[test]
    fn edge_on_shortest_path_detects_bridge() {
        // Path graph 0-1-2-3: every edge is on the 0->3 shortest path.
        let mut g = jellyfish_topology::Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        let dist = all_pairs_distances(&CsrGraph::from_graph(&g));
        assert!(edge_on_shortest_path(&dist, 0, 3, 1, 2));
        assert!(edge_on_shortest_path(&dist, 0, 3, 2, 1), "orientation-free");
        assert!(!edge_on_shortest_path(&dist, 0, 1, 2, 3));
    }
}
