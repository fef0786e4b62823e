//! Churn equivalence: an incremental [`Session`] and a full-rebuild oracle
//! session, fed the same churn events and queries, must agree *byte for
//! byte* after every single event — for every registered topology
//! generator, under random event sequences (including restores and
//! expansions, the cases that stress cache invalidation and matrix
//! re-keying the hardest).
//!
//! Apply replies are compared at the typed level on the topology-shape
//! fields (repair accounting legitimately differs between the modes);
//! query replies are compared as rendered wire bytes, and the full
//! distance matrices are compared after every event. So are the CSR
//! snapshots: the incremental session edits its own by the delta each
//! event names, and it must equal a fresh `Topology::csr()` and the
//! oracle's, whose delta is the merge of its old and new snapshots. Several pairs' ECMP
//! paths are cached before the churn and queried again after every event,
//! so a cache entry that survives an event it should not shows as a reply
//! that differs from the oracle's.

use std::sync::OnceLock;

use jellyfish::service::wire::handle_line;
use jellyfish::service::{ChurnEvent, Session};
use jellyfish_topology::{TopoSpec, Topology};
use proptest::prelude::*;

const SEED: u64 = 2012;

/// One tiny instance of every registered topology generator, so the
/// equivalence proof covers random graphs, rigid Clos structures (no free
/// ports for expansion — error paths must match too), lattices and the
/// annealed degree-diameter graphs alike.
const GENERATOR_SPECS: [&str; 5] = [
    "jellyfish:switches=14,ports=6,degree=3",
    "fattree:k=4",
    "swdc:lattice=torus2d,n=16,servers=1",
    "dd:n=18,ports=6,degree=4,servers=1",
    "leafspine:leaf=4,spine=2,servers=2",
];

/// Base topologies, built once per test binary (the annealed `dd` build is
/// the expensive part; every proptest case clones from here).
fn bases() -> &'static [(&'static str, Topology)] {
    static CELL: OnceLock<Vec<(&'static str, Topology)>> = OnceLock::new();
    CELL.get_or_init(|| {
        GENERATOR_SPECS
            .iter()
            .map(|&raw| {
                let spec: TopoSpec = raw.parse().expect("generator spec parses");
                let topo = spec.build(SEED).unwrap_or_else(|e| panic!("building '{raw}': {e}"));
                (raw, topo)
            })
            .collect()
    })
}

/// Fractions the random-fraction events draw from: the no-op boundary plus
/// realistic churn rates.
const FRACTIONS: [f64; 4] = [0.0, 0.05, 0.1, 0.25];

/// An abstract churn op, encoded as `(kind, pick, fraction_index)` drawn by
/// the strategy; node/link picks are indices resolved against the *current*
/// topology at replay time, so every drawn sequence is valid. `FailLink` on
/// a linkless graph degrades to `Restore` (there is nothing left to fail).
fn decode(op: (usize, usize, usize), topo: &Topology) -> ChurnEvent {
    let (kind, pick, fidx) = op;
    match kind {
        0 => {
            let edges: Vec<_> = topo.graph().edges().collect();
            match edges.get(pick % edges.len().max(1)) {
                Some(e) => ChurnEvent::FailLink { a: e.a, b: e.b },
                None => ChurnEvent::Restore,
            }
        }
        1 => ChurnEvent::FailLinks { fraction: FRACTIONS[fidx] },
        2 => ChurnEvent::FailSwitch { node: pick % topo.num_switches() },
        3 => ChurnEvent::FailSwitches { fraction: FRACTIONS[fidx % 3] },
        4 => ChurnEvent::Expand { racks: pick % 2 + 1 },
        _ => ChurnEvent::Restore,
    }
}

/// The query battery run between events: dist + ECMP path (cache-warming,
/// so later events must invalidate *exactly*) + a small KSP set (always
/// dropped on churn — recomputation must still agree) + a one-restart
/// bisection (stateless, so it pins the topologies themselves equal).
fn query_lines(topo: &Topology, p: usize, q: usize) -> Vec<String> {
    let n = topo.num_switches();
    let (src, dst) = (p % n, q % n);
    vec![
        format!("{{\"op\":\"query\",\"q\":\"dist\",\"src\":{src},\"dst\":{dst}}}"),
        format!("{{\"op\":\"query\",\"q\":\"path\",\"src\":{src},\"dst\":{dst}}}"),
        format!(
            "{{\"op\":\"query\",\"q\":\"path\",\"src\":{src},\"dst\":{dst},\
             \"scheme\":\"ksp:2\"}}"
        ),
        "{\"op\":\"query\",\"q\":\"bisection\",\"restarts\":1}".to_string(),
    ]
}

/// Pairs whose ECMP paths are cached before the churn and queried again
/// after every event.
const WARM_PAIRS: usize = 6;

/// ECMP path queries for the warm pairs: `(p + i, q + 5i)`, `i < WARM_PAIRS`.
fn warm_lines(topo: &Topology, p: usize, q: usize) -> Vec<String> {
    let n = topo.num_switches();
    (0..WARM_PAIRS)
        .map(|i| {
            let (src, dst) = ((p + i) % n, (q + 5 * i) % n);
            format!("{{\"op\":\"query\",\"q\":\"path\",\"src\":{src},\"dst\":{dst}}}")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every generator: replay a random churn sequence into an
    /// incremental session and an oracle session, interleaving queries.
    /// Topology-shape deltas, rendered query bytes and the whole distance
    /// matrix must match after every event; errors must match too.
    #[test]
    fn incremental_session_equals_oracle_after_every_event(
        ops in proptest::collection::vec((0usize..6, 0usize..64, 0usize..4), 1..6),
        p in 0usize..64,
        q in 0usize..64,
    ) {
        for (spec, topo) in bases() {
            let mut inc = Session::new(topo.clone(), SEED);
            let mut ora = Session::oracle(topo.clone(), SEED);
            // Warm both caches so churn has entries to invalidate.
            let warm = warm_lines(inc.topology(), p, q);
            for line in query_lines(inc.topology(), p, q).iter().chain(&warm) {
                let a = handle_line(&mut inc, line);
                let b = handle_line(&mut ora, line);
                prop_assert_eq!(a.text(), b.text(), "{}: warmup {} diverged", spec, line);
            }
            for (step, &op) in ops.iter().enumerate() {
                let event = decode(op, inc.topology());
                match (inc.apply(&event), ora.apply(&event)) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(a.event, b.event, "{}: step {}", spec, step);
                        prop_assert_eq!(
                            (a.removed_links, a.added_links, a.switches, a.links, a.servers,
                             a.generation),
                            (b.removed_links, b.added_links, b.switches, b.links, b.servers,
                             b.generation),
                            "{}: step {} ({:?}) changed different topology state",
                            spec, step, event
                        );
                    }
                    (Err(a), Err(b)) => {
                        prop_assert_eq!(a, b, "{}: step {} error mismatch", spec, step);
                        continue;
                    }
                    (a, b) => {
                        prop_assert!(
                            false,
                            "{spec}: step {step} ({event:?}): incremental {a:?} vs oracle {b:?}"
                        );
                    }
                }
                let battery = query_lines(inc.topology(), p + step, q + 3 * step);
                for line in battery.iter().chain(&warm) {
                    let a = handle_line(&mut inc, line);
                    let b = handle_line(&mut ora, line);
                    prop_assert_eq!(
                        a.text(), b.text(),
                        "{}: step {} ({:?}): query {} diverged", spec, step, event, line
                    );
                }
                prop_assert_eq!(
                    inc.distances(), ora.distances(),
                    "{}: step {} ({:?}): distance matrices diverged", spec, step, event
                );
                let fresh = inc.topology().csr();
                prop_assert!(
                    inc.csr() == &fresh && ora.csr() == &fresh,
                    "{}: step {} ({:?}): the edited snapshot is not the snapshot", spec, step, event
                );
            }
        }
    }
}
