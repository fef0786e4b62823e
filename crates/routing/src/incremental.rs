//! Incremental all-pairs distance repair under topology churn.
//!
//! The live-topology service (`jellyfish::service`) holds a resident
//! [`DistanceMatrix`] and applies link/switch failures, restores and
//! incremental expansion as *deltas*. An [`EdgeDelta`] is one merge of the
//! old and new [`CsrGraph`] snapshots' sorted edge lists. After a delta,
//! most sources' distance rows are provably unchanged: [`affected_sources`]
//! flags the others from the old matrix, the delta and the new snapshot,
//! and [`repair_all_pairs`] recomputes only the flagged rows with the block
//! driver of the full rebuild ([`map_source_blocks`]).
//!
//! Byte-identity with a full rebuild is structural, not probabilistic: hop
//! distances are canonical values, so any correct BFS writes the same `u32`s
//! a full [`all_pairs_distances`](crate::shortest::all_pairs_distances)
//! sweep would. Write `d` for the old distances from a source `s`. The
//! criteria below are *sound* (a row they leave unflagged keeps every old
//! value) and *exact* for a delta of one removed or one added old–old edge
//! (they flag precisely the rows that change):
//!
//! * **Removed edge `(u, v)`** — flag `s` when the edge was *tight*,
//!   `d(v) == d(u) + 1`, and the far endpoint `v` has no neighbour in the
//!   new snapshot at the near endpoint's level `d(u)`.
//! * **Added edge `(u, v)`** (both endpoints old) — flag `s` when
//!   `|d(u) − d(v)| >= 2`: only then is the edge a shortcut.
//! * **Expansion** — new nodes attach to the old graph at a *boundary* set
//!   `B` (old endpoints of old↔new edges). A path from `s` through the new
//!   region enters at some `u ∈ B` and exits at some `v ∈ B`, spending at
//!   least 2 hops inside; flag `s` when `|d(u) − d(v)| >= 3` for some
//!   boundary pair. New nodes' own rows are always recomputed, and
//!   unflagged old rows gain their new-node columns by symmetry
//!   (`d(s,x) = d(x,s)` on an undirected graph).
//!
//! An edge or boundary pair with one endpoint unreachable from `s` flags
//! `s`; with both unreachable it does not (a region `s` cannot reach cannot
//! change its row).
//!
//! **Soundness**, for any mix of the three (an expansion rewire removes old
//! edges *and* adds old↔new ones). Let `d'` be the new distances from an
//! unflagged `s`, on old nodes.
//!
//! * *No distance falls.* Surviving old edges and, by the addition test,
//!   added old–old edges join nodes whose `d` differs by at most 1; by the
//!   expansion test a detour through the new region spends at least as
//!   many hops as the `d` gap between its entry and exit. So along any new
//!   path from `s`, `d` grows by at most the path's length: `d <= d'`.
//! * *No distance rises*, by induction on the level `k = d(t)`. In the old
//!   graph `t` had a neighbour at level `k − 1`. If that edge survived, `t`
//!   still has it; if it was removed, it was tight with `t` as its far
//!   endpoint, and the removal test left `s` unflagged only because `t` has
//!   a neighbour at level `k − 1` in the new snapshot. Either way
//!   `d'(t) <= d'(w) + 1 <= k` for that neighbour `w`.
//!
//! **Exactness for one edge.** If the one removed edge flags `s`, every
//! neighbour the far endpoint `v` has left sits at level `>= d(v)`, and a
//! removal lengthens no path, so `d'(v) > d(v)`. If the one added edge flags
//! `s`, it shortens the path to its far endpoint, or reaches a node that
//! was unreachable. The `affected_rows` tests check soundness under mixed
//! deltas and exactness for single edges on every topology generator.

use crate::shortest::{all_pairs_distances, DistanceMatrix, UNREACHED};
use jellyfish_topology::bfs::map_source_blocks;
use jellyfish_topology::graph::Edge;
use jellyfish_topology::{CsrGraph, NodeId};
use std::cmp::Ordering;

/// An undirected edge-set delta between two topology snapshots.
///
/// `added` may reference nodes beyond the old matrix (expansion); `removed`
/// edges always existed in the old graph. Both lists are sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeDelta {
    /// Edges present before and absent after.
    pub removed: Vec<Edge>,
    /// Edges absent before and present after.
    pub added: Vec<Edge>,
}

impl EdgeDelta {
    /// The delta between two snapshots: one merge of their edge lists,
    /// which edge ids keep in lexicographic `(a, b)` order.
    pub fn between(before: &CsrGraph, after: &CsrGraph) -> Self {
        let edge = |(a, b): (NodeId, NodeId)| Edge { a, b };
        let (mut old, mut new) = (before.edges().peekable(), after.edges().peekable());
        let mut delta = EdgeDelta::default();
        loop {
            match (old.peek(), new.peek()) {
                (Some(x), Some(y)) => match x.cmp(y) {
                    Ordering::Less => delta.removed.extend(old.next().map(edge)),
                    Ordering::Greater => delta.added.extend(new.next().map(edge)),
                    Ordering::Equal => {
                        old.next();
                        new.next();
                    }
                },
                (Some(_), None) => delta.removed.extend(old.by_ref().map(edge)),
                (None, Some(_)) => delta.added.extend(new.by_ref().map(edge)),
                (None, None) => return delta,
            }
        }
    }

    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

/// What a [`repair_all_pairs`] call did, for delta reporting and benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Rows recomputed by BFS (affected old rows plus all new-node rows).
    pub repaired_rows: usize,
    /// Rows of the repaired matrix.
    pub total_rows: usize,
    /// True when the delta forced a from-scratch rebuild (node removal).
    pub full_rebuild: bool,
}

/// Flags the old sources whose distance rows `delta` may change, by the
/// criteria of the module docs; `dist` is the pre-delta matrix and `after`
/// the post-delta snapshot.
///
/// Returns one flag per old row. New-node rows (beyond the old matrix) are
/// not represented here — they are always recomputed. A delta that shrinks
/// the node set re-keys nodes, so it flags every row. An unflagged row is
/// bit-unchanged by [`repair_all_pairs`], which is what lets callers keep
/// derived per-pair state (the live service's path cache).
pub fn affected_sources(dist: &DistanceMatrix, after: &CsrGraph, delta: &EdgeDelta) -> Vec<bool> {
    let n_old = dist.num_cols();
    if after.num_nodes() < n_old {
        return vec![true; n_old];
    }
    // Boundary of the new region: old endpoints of old<->new added edges.
    let mut boundary: Vec<NodeId> = Vec::new();
    let mut added_old: Vec<Edge> = Vec::new();
    for e in &delta.added {
        match (e.a < n_old, e.b < n_old) {
            (true, true) => added_old.push(*e),
            (true, false) => boundary.push(e.a),
            (false, true) => boundary.push(e.b),
            // new<->new edges are internal to the recomputed region.
            (false, false) => {}
        }
    }
    boundary.sort_unstable();
    boundary.dedup();

    // |d(s,u) - d(s,v)|, or None when exactly one endpoint is unreachable
    // from s (both unreachable reads as 0).
    let spread = |row: &[u32], u: NodeId, v: NodeId| -> Option<u32> {
        match (row[u], row[v]) {
            (UNREACHED, UNREACHED) => Some(0),
            (UNREACHED, _) | (_, UNREACHED) => None,
            (du, dv) => Some(du.abs_diff(dv)),
        }
    };
    // A removed edge flags s when it was tight and its far endpoint has no
    // neighbour left at the near endpoint's level.
    let loses_parent = |row: &[u32], e: &Edge| -> bool {
        let (near, far) = match spread(row, e.a, e.b) {
            Some(1) if row[e.a] < row[e.b] => (row[e.a], e.b),
            Some(1) => (row[e.b], e.a),
            Some(_) => return false,
            None => return true,
        };
        !after.neighbors(far).iter().any(|&w| (w as usize) < n_old && row[w as usize] == near)
    };

    (0..n_old)
        .map(|s| {
            let row = dist.row(s);
            delta.removed.iter().any(|e| loses_parent(row, e))
                || added_old.iter().any(|e| !matches!(spread(row, e.a, e.b), Some(d) if d <= 1))
                || boundary.iter().enumerate().any(|(i, &u)| {
                    boundary[i + 1..]
                        .iter()
                        .any(|&v| !matches!(spread(row, u, v), Some(d) if d <= 2))
                })
        })
        .collect()
}

/// Repairs an all-pairs matrix in place to the state `csr` snapshots,
/// recomputing the old rows `affected` flags (from [`affected_sources`])
/// and every new-node row. Returns what was recomputed.
///
/// The repaired matrix is byte-identical to `all_pairs_distances(csr)`.
pub fn repair_all_pairs(
    dist: &mut DistanceMatrix,
    csr: &CsrGraph,
    affected: &[bool],
) -> RepairOutcome {
    let n_old = dist.num_cols();
    let n_new = csr.num_nodes();
    if n_new < n_old || dist.num_rows() != n_old {
        // Shrinking deltas (a restore after expansion) re-key every node;
        // there is nothing to repair against.
        *dist = all_pairs_distances(csr);
        return RepairOutcome { repaired_rows: n_new, total_rows: n_new, full_rebuild: true };
    }
    assert_eq!(affected.len(), n_old, "one flag per old row");
    let sources: Vec<NodeId> = (0..n_old).filter(|&s| affected[s]).chain(n_old..n_new).collect();
    let outcome =
        RepairOutcome { repaired_rows: sources.len(), total_rows: n_new, full_rebuild: false };
    if sources.is_empty() {
        return outcome;
    }
    let blocks = map_source_blocks(csr, &sources, |_, rows| rows.to_vec());
    let rows = sources.iter().zip(blocks.iter().flat_map(|rows| rows.chunks_exact(n_new)));

    if n_new == n_old {
        for (&s, row) in rows {
            dist.row_mut(s).copy_from_slice(row);
        }
        return outcome;
    }

    // The node count grew: re-stride unaffected rows, write affected and
    // new rows, then fill unaffected rows' new columns by symmetry.
    let mut data = vec![UNREACHED; n_new * n_new];
    for s in 0..n_old {
        if !affected[s] {
            data[s * n_new..s * n_new + n_old].copy_from_slice(dist.row(s));
        }
    }
    for (&s, row) in rows {
        data[s * n_new..(s + 1) * n_new].copy_from_slice(row);
    }
    for s in 0..n_old {
        if !affected[s] {
            for x in n_old..n_new {
                data[s * n_new + x] = data[x * n_new + s];
            }
        }
    }
    *dist = DistanceMatrix::from_flat(n_new, data);
    outcome
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
/// pair whose rows the repair left untouched sees its pre-delta values.
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

    fn assert_repair_matches_rebuild(before: &Topology, after: &Topology) -> RepairOutcome {
        let old = before.csr();
        let mut dist = all_pairs_distances(&old);
        let csr = after.csr();
        let affected = affected_sources(&dist, &csr, &EdgeDelta::between(&old, &csr));
        let outcome = repair_all_pairs(&mut dist, &csr, &affected);
        let full = all_pairs_distances(&csr);
        assert_eq!(dist.as_flat(), full.as_flat(), "repair diverged from full rebuild");
        outcome
    }

    #[test]
    fn single_link_removal_repairs_few_rows() {
        let base = JellyfishBuilder::new(40, 10, 6).seed(11).build().unwrap();
        let e = base.graph().edges().next().unwrap();
        let mut failed = base.clone();
        assert!(failed.disconnect(e.a, e.b));
        let outcome = assert_repair_matches_rebuild(&base, &failed);
        assert!(!outcome.full_rebuild);
        assert!(outcome.repaired_rows <= outcome.total_rows);
    }

    #[test]
    fn link_restore_repairs_back() {
        let base = JellyfishBuilder::new(30, 8, 5).seed(3).build().unwrap();
        let e = base.graph().edges().nth(7).unwrap();
        let mut failed = base.clone();
        assert!(failed.disconnect(e.a, e.b));
        assert_repair_matches_rebuild(&failed, &base);
    }

    #[test]
    fn random_link_failures_match_rebuild() {
        let base = JellyfishBuilder::new(30, 8, 5).seed(5).build().unwrap();
        let mut failed = base.clone();
        fail_random_links(&mut failed, 0.15, 99);
        let outcome = assert_repair_matches_rebuild(&base, &failed);
        assert!(outcome.repaired_rows > 0, "a 15% failure must touch some rows");
    }

    #[test]
    fn switch_failure_matches_rebuild_even_when_disconnecting() {
        let base = JellyfishBuilder::new(24, 6, 4).seed(8).build().unwrap();
        let mut failed = base.clone();
        fail_random_switches(&mut failed, 0.2, 41);
        assert_repair_matches_rebuild(&base, &failed);
    }

    #[test]
    fn expansion_grows_the_matrix() {
        let base = JellyfishBuilder::new(20, 8, 5).seed(7).build().unwrap();
        let mut grown = base.clone();
        add_racks(&mut grown, 2, 8, 3, 13).unwrap();
        let outcome = assert_repair_matches_rebuild(&base, &grown);
        assert!(!outcome.full_rebuild);
        assert_eq!(outcome.total_rows, grown.num_switches());
    }

    #[test]
    fn shrinking_delta_falls_back_to_full_rebuild() {
        let base = JellyfishBuilder::new(20, 8, 5).seed(7).build().unwrap();
        let mut grown = base.clone();
        add_racks(&mut grown, 1, 8, 3, 13).unwrap();
        let old = grown.csr();
        let mut dist = all_pairs_distances(&old);
        let csr = base.csr();
        let affected = affected_sources(&dist, &csr, &EdgeDelta::between(&old, &csr));
        assert!(affected.iter().all(|&hit| hit), "a shrink re-keys every row");
        let outcome = repair_all_pairs(&mut dist, &csr, &affected);
        assert!(outcome.full_rebuild);
        assert_eq!(dist.as_flat(), all_pairs_distances(&csr).as_flat());
    }

    #[test]
    fn empty_delta_repairs_nothing() {
        let base = JellyfishBuilder::new(20, 8, 5).seed(7).build().unwrap();
        let csr = base.csr();
        let mut dist = all_pairs_distances(&csr);
        let delta = EdgeDelta::between(&csr, &csr);
        assert!(delta.is_empty());
        let affected = affected_sources(&dist, &csr, &delta);
        assert!(affected.iter().all(|&hit| !hit));
        let outcome = repair_all_pairs(&mut dist, &csr, &affected);
        assert_eq!(outcome.repaired_rows, 0);
        assert!(!outcome.full_rebuild);
    }

    #[test]
    fn edge_delta_between_is_order_independent() {
        let snapshot = |edges: &[(NodeId, NodeId)]| {
            let mut g = jellyfish_topology::Graph::new(6);
            for &(u, v) in edges {
                g.add_edge(u, v);
            }
            CsrGraph::from_graph(&g)
        };
        let before = [(0, 1), (1, 2), (3, 4), (4, 5)];
        let after = [(1, 2), (2, 3), (0, 5), (4, 5)];
        let delta = EdgeDelta::between(&snapshot(&before), &snapshot(&after));
        assert_eq!(delta.removed, vec![Edge::new(0, 1), Edge::new(3, 4)]);
        assert_eq!(delta.added, vec![Edge::new(0, 5), Edge::new(2, 3)]);
        // Insertion order and endpoint orientation do not reach the delta.
        let before_rev = [(5, 4), (4, 3), (2, 1), (1, 0)];
        let after_rev = [(5, 4), (5, 0), (3, 2), (2, 1)];
        assert_eq!(EdgeDelta::between(&snapshot(&before_rev), &snapshot(&after_rev)), delta);
        // Trailing edges on either side reach the delta too.
        let swapped = EdgeDelta::between(&snapshot(&after), &snapshot(&before));
        assert_eq!((swapped.removed, swapped.added), (delta.added, delta.removed));
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
