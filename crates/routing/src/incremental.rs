//! Incremental all-pairs distance repair under topology churn.
//!
//! The live-topology service (`jellyfish::service`) holds a resident
//! [`DistanceMatrix`] and applies link/switch failures, restores and
//! incremental expansion as *deltas*. After a delta, most sources' distance
//! rows are provably unchanged; this module computes the affected-source
//! set from the old matrix and the edge changes alone, then recomputes only
//! those rows with the block driver of the full rebuild
//! ([`map_source_blocks`]).
//!
//! Byte-identity with a full rebuild is structural, not probabilistic: hop
//! distances are canonical values, so any correct BFS writes the same `u32`s
//! a full [`all_pairs_distances`](crate::shortest::all_pairs_distances)
//! sweep would. The affected-source criteria below are *conservative*
//! (they may recompute an unchanged row, never skip a changed one):
//!
//! * **Removed edge `(u, v)`** — a source `s` can only lose a shortest path
//!   if the edge was on one, which requires `|d(s,u) − d(s,v)| == 1`.
//! * **Added edge `(u, v)`** (both endpoints old) — a strictly shorter path
//!   through the new edge requires `|d(s,u) − d(s,v)| >= 2`.
//! * **Expansion** — new nodes attach to the old graph at a *boundary* set
//!   `B` (old endpoints of old↔new edges). A path from `s` through the new
//!   region enters at some `u ∈ B` and exits at some `v ∈ B`, spending at
//!   least 2 hops inside; it can only shorten an old distance if
//!   `|d(s,u) − d(s,v)| >= 3` for some boundary pair. New nodes' own rows
//!   are always recomputed, and unaffected old rows gain their new-node
//!   columns by symmetry (`d(s,x) = d(x,s)` on an undirected graph).
//!
//! Mixed batches (an expansion rewire removes old edges *and* adds old↔new
//! ones) are sound under the union of the criteria: removals can only
//! increase distances and additions only decrease them, so a row that no
//! criterion marks keeps every old value (see the churn-equivalence proptest
//! in `jellyfish`'s test suite, which pins incremental == full rebuild
//! byte-for-byte over random event sequences on every registered
//! generator).

use crate::shortest::{all_pairs_distances, DistanceMatrix, UNREACHED};
use jellyfish_topology::bfs::map_source_blocks;
use jellyfish_topology::graph::Edge;
use jellyfish_topology::{CsrGraph, NodeId};
use std::collections::BTreeSet;

/// An undirected edge-set delta between two topology states.
///
/// `added` may reference nodes beyond the old matrix (expansion); `removed`
/// edges always existed in the old graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeDelta {
    /// Edges present before and absent after.
    pub removed: Vec<Edge>,
    /// Edges absent before and present after.
    pub added: Vec<Edge>,
}

impl EdgeDelta {
    /// Computes the delta between two edge sets (any iteration order).
    pub fn between(
        before: impl IntoIterator<Item = Edge>,
        after: impl IntoIterator<Item = Edge>,
    ) -> Self {
        let before: BTreeSet<Edge> = before.into_iter().collect();
        let after: BTreeSet<Edge> = after.into_iter().collect();
        EdgeDelta {
            removed: before.difference(&after).copied().collect(),
            added: after.difference(&before).copied().collect(),
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

/// Marks the old sources whose distance rows a delta may change.
///
/// Returns one flag per old row. New-node rows (beyond the old matrix) are
/// not represented here — they are always recomputed. Callers invalidating
/// derived per-pair state (the live service's path cache) run this on the
/// *pre-delta* matrix: an unflagged row is bit-unchanged by
/// [`repair_all_pairs`].
pub fn affected_sources(dist: &DistanceMatrix, delta: &EdgeDelta) -> Vec<bool> {
    let n_old = dist.num_cols();
    // Boundary of the new region: old endpoints of old<->new added edges.
    let mut boundary: BTreeSet<NodeId> = BTreeSet::new();
    let mut added_old: Vec<Edge> = Vec::new();
    for e in &delta.added {
        match (e.a < n_old, e.b < n_old) {
            (true, true) => added_old.push(*e),
            (true, false) => {
                boundary.insert(e.a);
            }
            (false, true) => {
                boundary.insert(e.b);
            }
            // new<->new edges are internal to the recomputed region.
            (false, false) => {}
        }
    }
    let boundary: Vec<NodeId> = boundary.into_iter().collect();

    // |d(s,u) - d(s,v)| with UNREACHED treated as "affected unless both
    // endpoints are unreachable from s" (a region s cannot reach at all
    // cannot change s's row).
    let spread = |row: &[u32], u: NodeId, v: NodeId| -> Option<u32> {
        match (row[u], row[v]) {
            (UNREACHED, UNREACHED) => Some(0),
            (UNREACHED, _) | (_, UNREACHED) => None,
            (du, dv) => Some(du.abs_diff(dv)),
        }
    };

    let mut affected = vec![false; n_old];
    for (s, flag) in affected.iter_mut().enumerate() {
        let row = dist.row(s);
        let hit = delta.removed.iter().any(|e| !matches!(spread(row, e.a, e.b), Some(d) if d != 1))
            || added_old.iter().any(|e| !matches!(spread(row, e.a, e.b), Some(d) if d <= 1))
            || boundary.iter().enumerate().any(|(i, &u)| {
                boundary[i + 1..].iter().any(|&v| !matches!(spread(row, u, v), Some(d) if d <= 2))
            });
        *flag = hit;
    }
    affected
}

/// Repairs an all-pairs matrix in place after `delta` took the topology to
/// the state `csr` snapshots. Returns what was recomputed.
///
/// The repaired matrix is byte-identical to `all_pairs_distances(csr)`.
pub fn repair_all_pairs(
    dist: &mut DistanceMatrix,
    csr: &CsrGraph,
    delta: &EdgeDelta,
) -> RepairOutcome {
    let n_old = dist.num_cols();
    let n_new = csr.num_nodes();
    if n_new < n_old || dist.num_rows() != n_old {
        // Shrinking deltas (a restore after expansion) re-key every node;
        // there is nothing to repair against.
        *dist = all_pairs_distances(csr);
        return RepairOutcome { repaired_rows: n_new, total_rows: n_new, full_rebuild: true };
    }
    if delta.is_empty() && n_new == n_old {
        return RepairOutcome { repaired_rows: 0, total_rows: n_new, full_rebuild: false };
    }

    let affected = affected_sources(dist, delta);

    if n_new == n_old {
        let sources: Vec<NodeId> =
            affected.iter().enumerate().filter(|&(_, &hit)| hit).map(|(s, _)| s).collect();
        let rows = map_source_blocks(csr, &sources, |_, rows| rows.to_vec()).concat();
        for (&s, row) in sources.iter().zip(rows.chunks_exact(n_new)) {
            dist.row_mut(s).copy_from_slice(row);
        }
        return RepairOutcome {
            repaired_rows: sources.len(),
            total_rows: n_new,
            full_rebuild: false,
        };
    }

    // The node count grew: re-stride unaffected rows, recompute affected
    // and new rows, then fill unaffected rows' new columns by symmetry.
    let mut data = vec![UNREACHED; n_new * n_new];
    for s in 0..n_old {
        if !affected[s] {
            data[s * n_new..s * n_new + n_old].copy_from_slice(dist.row(s));
        }
    }
    let sources: Vec<NodeId> = affected
        .iter()
        .enumerate()
        .filter(|&(_, &hit)| hit)
        .map(|(s, _)| s)
        .chain(n_old..n_new)
        .collect();
    let repaired = sources.len();
    let rows = map_source_blocks(csr, &sources, |_, rows| rows.to_vec()).concat();
    for (&s, row) in sources.iter().zip(rows.chunks_exact(n_new)) {
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
    RepairOutcome { repaired_rows: repaired, total_rows: n_new, full_rebuild: false }
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

    fn edges(t: &Topology) -> Vec<Edge> {
        t.graph().edges().collect()
    }

    fn assert_repair_matches_rebuild(before: &Topology, after: &Topology) -> RepairOutcome {
        let mut dist = all_pairs_distances(&before.csr());
        let delta = EdgeDelta::between(edges(before), edges(after));
        let csr = after.csr();
        let outcome = repair_all_pairs(&mut dist, &csr, &delta);
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
        let mut dist = all_pairs_distances(&grown.csr());
        let delta = EdgeDelta::between(edges(&grown), edges(&base));
        let csr = base.csr();
        let outcome = repair_all_pairs(&mut dist, &csr, &delta);
        assert!(outcome.full_rebuild);
        assert_eq!(dist.as_flat(), all_pairs_distances(&csr).as_flat());
    }

    #[test]
    fn empty_delta_repairs_nothing() {
        let base = JellyfishBuilder::new(20, 8, 5).seed(7).build().unwrap();
        let mut dist = all_pairs_distances(&base.csr());
        let outcome = repair_all_pairs(&mut dist, &base.csr(), &EdgeDelta::default());
        assert_eq!(outcome.repaired_rows, 0);
        assert!(!outcome.full_rebuild);
    }

    #[test]
    fn edge_delta_between_is_order_independent() {
        let mut fwd = vec![Edge::new(0, 1), Edge::new(1, 2)];
        let delta = EdgeDelta::between(fwd.clone(), vec![Edge::new(1, 2), Edge::new(2, 3)]);
        assert_eq!(delta.removed, vec![Edge::new(0, 1)]);
        assert_eq!(delta.added, vec![Edge::new(2, 3)]);
        fwd.reverse();
        let delta2 = EdgeDelta::between(fwd, vec![Edge::new(2, 3), Edge::new(1, 2)]);
        assert_eq!(delta, delta2);
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
