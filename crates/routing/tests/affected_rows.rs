//! The row repair (`incremental::repair_rows`) and the repair that picks
//! between it and a rebuild by delta size (`repair_all_pairs`) against
//! full rebuilds, on one instance of every topology generator:
//!
//! * sound — under random mixed deltas (removals, old–old additions, an
//!   expansion) the repaired matrix equals the rebuild, and the rows the
//!   repair reports as changed are exactly the rows whose old columns
//!   differ;
//! * exact — for a delta of one removed or one added edge, the same holds
//!   for every such edge of every fabric.

use std::sync::OnceLock;

use jellyfish_routing::incremental::{repair_all_pairs, repair_rows, RepairOutcome};
use jellyfish_routing::shortest::{all_pairs_distances, DistanceMatrix};
use jellyfish_topology::spec::ScenarioTransform;
use jellyfish_topology::{CsrGraph, EdgeDelta, Graph, NodeId, TopoSpec, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const SEED: u64 = 2012;

/// One small instance of every registered generator, plus a Jellyfish with
/// isolated switches so that unreachable endpoints are exercised too.
const FABRICS: [&str; 6] = [
    "jellyfish:switches=14,ports=6,degree=3",
    "fattree:k=4",
    "swdc:lattice=torus2d,n=16,servers=1",
    "dd:n=18,ports=6,degree=4,servers=1",
    "leafspine:leaf=4,spine=2,servers=2",
    "jellyfish:switches=14,ports=6,degree=3+fail_switches=0.25",
];

fn fabrics() -> &'static [(&'static str, Topology)] {
    static CELL: OnceLock<Vec<(&'static str, Topology)>> = OnceLock::new();
    CELL.get_or_init(|| {
        FABRICS
            .iter()
            .map(|&raw| {
                let spec: TopoSpec = raw.parse().expect("fabric spec parses");
                (raw, spec.build(SEED).unwrap_or_else(|e| panic!("building '{raw}': {e}")))
            })
            .collect()
    })
}

type Repair = fn(&mut DistanceMatrix, &CsrGraph, &EdgeDelta) -> RepairOutcome;

/// The rows `repair` of `before → after` reports as changed, the old rows
/// that changed (compared on the old columns), and whether the repaired
/// matrix equals the full rebuild.
fn reported_and_changed(
    repair: Repair,
    before: &CsrGraph,
    after: &CsrGraph,
) -> (Vec<bool>, Vec<bool>, bool) {
    let old = all_pairs_distances(before);
    let new = all_pairs_distances(after);
    let n_old = old.num_cols();
    let changed = (0..n_old).map(|s| new.row(s)[..n_old] != *old.row(s)).collect();
    let mut repaired = old.clone();
    let outcome = repair(&mut repaired, after, &EdgeDelta::between(before, after));
    (outcome.changed, changed, repaired == new)
}

fn rows(flags: &[bool]) -> Vec<NodeId> {
    (0..flags.len()).filter(|&s| flags[s]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Up to three removed old edges, up to two added old–old edges and
    /// at most one expansion rack, applied together: the repair equals the
    /// full rebuild and reports exactly the changed rows.
    #[test]
    fn mixed_deltas_repair_to_the_rebuild_and_report_the_changed_rows(
        removals in 0usize..4,
        additions in 0usize..3,
        racks in 0usize..2,
        seed in any::<u64>(),
    ) {
        for (spec, base) in fabrics() {
            let mut rng = StdRng::seed_from_u64(seed);
            let n_old = base.num_switches();
            let mut topo = base.clone();
            if racks > 0 {
                ScenarioTransform::Expand(racks)
                    .apply(&mut topo, seed)
                    .unwrap_or_else(|e| panic!("{spec}: expand: {e}"));
            }
            let mut old_edges: Vec<_> =
                topo.graph().edges().filter(|e| e.a < n_old && e.b < n_old).collect();
            old_edges.shuffle(&mut rng);
            for e in old_edges.iter().take(removals) {
                topo.graph_mut().remove_edge(e.a, e.b);
            }
            for _ in 0..additions {
                let (u, v) = (rng.gen_range(0..n_old), rng.gen_range(0..n_old));
                if u != v && !base.graph().has_edge(u, v) {
                    topo.graph_mut().add_edge(u, v);
                }
            }
            for repair in [repair_rows as Repair, repair_all_pairs] {
                let (reported, changed, repaired) =
                    reported_and_changed(repair, &base.csr(), &topo.csr());
                prop_assert!(repaired, "{}: repair differs from the rebuild (seed {})", spec, seed);
                prop_assert_eq!(
                    rows(&reported), rows(&changed),
                    "{}: reported rows are not the changed rows (seed {})", spec, seed
                );
            }
        }
    }
}

/// Removing any one edge, or adding any one edge between old nodes,
/// reports exactly the rows that change.
#[test]
fn one_edge_deltas_report_exactly_the_changed_rows() {
    for (spec, base) in fabrics() {
        let before = base.csr();
        let n = base.num_switches();
        for u in 0..n {
            for v in u + 1..n {
                let mut graph: Graph = base.graph().clone();
                let removal = graph.remove_edge(u, v);
                if !removal {
                    graph.add_edge(u, v);
                }
                let (reported, changed, repaired) =
                    reported_and_changed(repair_rows, &before, &CsrGraph::from_graph(&graph));
                let what = if removal { "removing" } else { "adding" };
                assert_eq!(
                    rows(&reported),
                    rows(&changed),
                    "{spec}: {what} {u}-{v}: reported rows are not the changed rows"
                );
                assert!(repaired, "{spec}: {what} {u}-{v}: repair differs from the rebuild");
            }
        }
    }
}

/// The diamond s–a–b, s–c–b: removing a–b lengthens only the rows of a and
/// b. The removed edge is tight from s, but b keeps its other neighbour c at
/// a's level, so no orphan sweep starts and row s is not reported.
#[test]
fn a_diamond_keeps_the_row_that_sees_another_parent() {
    let (s, a, b, c) = (0, 1, 2, 3);
    let mut graph = Graph::new(4);
    for (x, y) in [(s, a), (a, b), (s, c), (c, b)] {
        graph.add_edge(x, y);
    }
    let before = CsrGraph::from_graph(&graph);
    graph.remove_edge(a, b);
    let after = CsrGraph::from_graph(&graph);
    let mut dist: DistanceMatrix = all_pairs_distances(&before);
    let outcome = repair_rows(&mut dist, &after, &EdgeDelta::between(&before, &after));
    assert_eq!(outcome.changed, vec![false, true, true, false]);
    assert_eq!(dist, all_pairs_distances(&after));
}
