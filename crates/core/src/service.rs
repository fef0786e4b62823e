//! Live-topology sessions: the resident state behind `figures serve`.
//!
//! A [`Session`] holds a resident [`Topology`] plus its CSR snapshot,
//! absorbs typed [`ChurnEvent`] deltas (link/switch failures, restore,
//! incremental expansion — the paper's §4.2 operating regime), and answers
//! [`Query`] requests. Every event names its [`EdgeDelta`] — the links it
//! removed and added — and the session edits its CSR snapshot by it
//! ([`CsrGraph::edit`]) instead of re-sorting the whole fabric. Routing
//! state is maintained *incrementally*: the all-pairs distance matrix is
//! repaired where the delta moves distances
//! ([`jellyfish_routing::incremental::repair_all_pairs`], which reports the
//! rows that changed), and cached ECMP path sets are invalidated per pair
//! with the exact shortest-path-DAG predicate
//! ([`jellyfish_routing::incremental::edge_on_shortest_path`]), instead of
//! rebuilding everything per event.
//!
//! ## Determinism contract
//!
//! Every reply is byte-identical to what a fresh process would compute by
//! rebuilding all state from scratch at the current topology:
//!
//! * Churn application reuses the exact spec machinery
//!   ([`ScenarioTransform::apply`]) with the session seed, so
//!   `apply(fail_links=f)` equals building `base+fail_links=f` offline.
//! * [`ChurnEvent::Restore`] reinstates a *clone of the pristine base*
//!   rather than re-adding edges: `Graph` edge order is
//!   history-dependent (swap-remove), and seeded samplers shuffle
//!   `edges()`, so only the clone keeps later events bit-reproducible.
//!   The base's CSR snapshot is kept too, so a restore clones it instead of
//!   re-sorting the base's edges. Both clones go through `clone_from`, into
//!   the failed state's buffers.
//! * The edited snapshot equals [`Topology::csr`] of the current topology:
//!   edge ids are a pure function of the edge set, and the edit keeps them
//!   so ([`CsrGraph::edit`]).
//! * Hop distances are canonical, so any correct row repair is
//!   byte-identical to a full rebuild. ECMP enumeration reads the
//!   destination's row of the resident, repaired matrix and the sorted CSR
//!   snapshot, so it is a pure function of the pair's distance rows, making
//!   the DAG predicate an *exact* invalidation test. Yen's k-shortest-paths
//!   has no sound incremental subset (its output depends on global
//!   tie-breaking), so KSP cache entries are all dropped on every
//!   effective delta and recomputed lazily.
//!
//! Construct with [`Session::oracle`] to force a fresh [`Topology::csr`]
//! snapshot, a full distance rebuild and drop-all-caches on every event —
//! the bit-identical reference the churn-equivalence proptest and
//! `--oracle` CLI flag compare against. An oracle session's delta is the
//! merge of its old and new snapshots ([`EdgeDelta::between`]).
//!
//! The wire protocol (line-delimited JSON over stdin/stdout or TCP) lives
//! in [`wire`]; SERVE.md documents the grammar.

use std::collections::BTreeMap;

use jellyfish_flow::bisection::{min_bisection_heuristic, BisectionCut};
use jellyfish_flow::throughput::{normalized_throughput, ThroughputOptions, ThroughputResult};
use jellyfish_routing::ecmp::all_shortest_paths;
use jellyfish_routing::incremental::{edge_on_shortest_path, repair_all_pairs};
use jellyfish_routing::path_table::RoutingScheme;
use jellyfish_routing::shortest::all_pairs_distances;
use jellyfish_routing::yen::k_shortest_paths;
use jellyfish_routing::Path;
use jellyfish_topology::bfs::{DistanceMatrix, UNREACHED};
use jellyfish_topology::spec::{ScenarioTransform, SpecError};
use jellyfish_topology::{CsrGraph, Edge, EdgeDelta, NodeId, Topology};
use jellyfish_traffic::{ServerMap, TrafficSpec};

pub mod wire;

/// Seed-derivation token for the session traffic matrix; the same token
/// `failure_sweep` has always used, so ported sweeps reproduce goldens.
pub const TRAFFIC_SEED_XOR: u64 = 0xFA11;

/// The most Kernighan–Lin restarts one bisection query may ask for.
pub const MAX_BISECTION_RESTARTS: usize = 64;

/// A typed topology delta applied to a [`Session`].
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnEvent {
    /// Remove one named switch-to-switch link.
    FailLink {
        /// One endpoint switch.
        a: NodeId,
        /// The other endpoint switch.
        b: NodeId,
    },
    /// Fail a uniform-random fraction of links, seeded by the session seed
    /// exactly as `+fail_links=f` ([`ScenarioTransform::FailLinks`]).
    FailLinks {
        /// Fraction of surviving links to remove, in `[0, 1]`.
        fraction: f64,
    },
    /// Isolate one switch: drop all its links and its servers.
    FailSwitch {
        /// The switch to isolate.
        node: NodeId,
    },
    /// Fail a uniform-random fraction of switches
    /// ([`ScenarioTransform::FailSwitches`]).
    FailSwitches {
        /// Fraction of switches to isolate, in `[0, 1]`.
        fraction: f64,
    },
    /// Reinstate the pristine base topology (see the module docs for why
    /// this clones rather than re-adds).
    Restore,
    /// Incrementally add racks via the paper's §4.2 link splice
    /// ([`ScenarioTransform::Expand`]).
    Expand {
        /// Number of racks (switches) to add.
        racks: usize,
    },
}

impl ChurnEvent {
    /// The event's wire name.
    pub fn name(&self) -> &'static str {
        match self {
            ChurnEvent::FailLink { .. } => "fail_link",
            ChurnEvent::FailLinks { .. } => "fail_links",
            ChurnEvent::FailSwitch { .. } => "fail_switch",
            ChurnEvent::FailSwitches { .. } => "fail_switches",
            ChurnEvent::Restore => "restore",
            ChurnEvent::Expand { .. } => "expand",
        }
    }
}

/// A read-only question about the session's current topology.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Hop distance between two switches.
    Dist {
        /// Source switch.
        src: NodeId,
        /// Destination switch.
        dst: NodeId,
    },
    /// The installed path set for a pair under a routing scheme.
    Path {
        /// Source switch.
        src: NodeId,
        /// Destination switch.
        dst: NodeId,
        /// Routing scheme (ECMP enumerates equal-cost shortest paths;
        /// KSP runs Yen's algorithm).
        scheme: RoutingScheme,
    },
    /// Normalized worst-flow throughput under the session traffic pattern.
    Throughput {
        /// Traffic-matrix seed; defaults to `session seed ^ 0xFA11`, the
        /// derivation the failure sweep has always used.
        tseed: Option<u64>,
    },
    /// Heuristic minimum bisection of the current topology.
    Bisection {
        /// Kernighan–Lin restarts (more restarts, better cut).
        restarts: usize,
    },
}

/// What applying one [`ChurnEvent`] changed, and how much routing state
/// the session repaired versus rebuilt.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Wire name of the applied event.
    pub event: &'static str,
    /// Links removed by the event.
    pub removed_links: usize,
    /// Links added by the event.
    pub added_links: usize,
    /// Switch count after the event.
    pub switches: usize,
    /// Surviving switch-to-switch links after the event.
    pub links: usize,
    /// Attached servers after the event.
    pub servers: usize,
    /// Topology generation counter after the event.
    pub generation: u64,
    /// Distance rows the event changed, plus new switches' rows (every row
    /// of a full rebuild); `None` while the matrix is not yet materialized
    /// — it is built lazily on the first dist/path query.
    pub repaired_rows: Option<usize>,
    /// Rows of the (repaired) distance matrix, when materialized.
    pub total_rows: Option<usize>,
    /// Whether the distance update fell back to a full rebuild (always
    /// true in oracle mode).
    pub full_rebuild: bool,
    /// Cached path-table entries invalidated by this event.
    pub paths_dropped: usize,
    /// Cached path-table entries that provably survived.
    pub paths_kept: usize,
}

/// A reply to one [`Query`].
#[derive(Debug, Clone)]
pub enum Reply {
    /// Hop distance; `None` when the pair is disconnected.
    Dist {
        /// Source switch.
        src: NodeId,
        /// Destination switch.
        dst: NodeId,
        /// Hop count, `None` if unreachable.
        hops: Option<u32>,
    },
    /// The installed path set for a pair.
    Path {
        /// Source switch.
        src: NodeId,
        /// Destination switch.
        dst: NodeId,
        /// Scheme label (e.g. `8-way ECMP`).
        scheme: String,
        /// The paths, each a switch-id sequence.
        paths: Vec<Path>,
    },
    /// Normalized throughput of the current topology.
    Throughput {
        /// The solver result (λ and its certified upper bound λ_hi,
        /// normalized min flow, commodity count, ε).
        result: ThroughputResult,
    },
    /// Heuristic minimum bisection.
    Bisection {
        /// The cut found.
        cut: BisectionCut,
    },
}

/// Why a [`Session`] call failed. All variants are client errors: the
/// session state is unchanged and the connection stays usable.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// A switch id at or beyond the current switch count.
    UnknownNode(NodeId),
    /// `fail_link` named a pair with no current link.
    NoSuchLink(NodeId, NodeId),
    /// A fraction outside `[0, 1]` or similar parameter error.
    Param(String),
    /// The underlying spec machinery rejected the event.
    Spec(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownNode(n) => write!(f, "unknown switch {n}"),
            ServiceError::NoSuchLink(a, b) => write!(f, "no link between {a} and {b}"),
            ServiceError::Param(msg) => write!(f, "{msg}"),
            ServiceError::Spec(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Cumulative session counters, for the `stats` op and delta reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Churn events applied.
    pub events: u64,
    /// Queries answered.
    pub queries: u64,
    /// [`Delta::repaired_rows`] summed over all events.
    pub rows_repaired: u64,
    /// Events whose distance update was a full rebuild.
    pub full_rebuilds: u64,
    /// Path-cache entries dropped across all events.
    pub paths_dropped: u64,
    /// Path queries served from cache.
    pub path_cache_hits: u64,
}

/// Orderable cache key for a [`RoutingScheme`] (the enum itself derives
/// neither `Ord` nor `Hash`).
type SchemeKey = (u8, usize);

const ECMP_TAG: u8 = 0;
const KSP_TAG: u8 = 1;

fn scheme_key(scheme: RoutingScheme) -> SchemeKey {
    match scheme {
        RoutingScheme::Ecmp { way } => (ECMP_TAG, way),
        RoutingScheme::KShortestPaths { k } => (KSP_TAG, k),
    }
}

/// A live-topology session: resident topology + CSR snapshot + incrementally
/// maintained routing state. See the module docs for the determinism
/// contract.
#[derive(Debug, Clone)]
pub struct Session {
    /// Pristine topology, the `Restore` target.
    base: Topology,
    /// CSR snapshot of `base`, which `Restore` clones.
    base_csr: CsrGraph,
    /// Current topology.
    topo: Topology,
    /// CSR snapshot of `topo`, edited by every event's delta.
    csr: CsrGraph,
    /// Session seed: churn sampling and default traffic derive from it.
    seed: u64,
    /// Force full rebuilds + drop-all caches per event (the reference mode).
    oracle: bool,
    /// Traffic pattern for throughput queries; `None` means a seeded random
    /// permutation (the experiments' default).
    traffic: Option<TrafficSpec>,
    /// Solver options for throughput queries.
    throughput: ThroughputOptions,
    /// All-pairs hop distances, materialized on first dist/path query and
    /// repaired incrementally afterwards.
    dist: Option<DistanceMatrix>,
    /// Cached per-pair path sets. BTreeMap keeps iteration deterministic.
    paths: BTreeMap<(SchemeKey, NodeId, NodeId), Vec<Path>>,
    stats: SessionStats,
}

impl Session {
    /// Opens a session on `topo` with churn/traffic seed `seed`,
    /// maintaining routing state incrementally.
    pub fn new(topo: Topology, seed: u64) -> Self {
        let csr = topo.csr();
        Session {
            base: topo.clone(),
            base_csr: csr.clone(),
            topo,
            csr,
            seed,
            oracle: false,
            traffic: None,
            throughput: ThroughputOptions::default(),
            dist: None,
            paths: BTreeMap::new(),
            stats: SessionStats::default(),
        }
    }

    /// Opens an oracle session: every event rebuilds the distance matrix
    /// from scratch and drops every cached path set. Bit-identical replies
    /// to the incremental mode — this is the reference it is tested against.
    pub fn oracle(topo: Topology, seed: u64) -> Self {
        let mut s = Session::new(topo, seed);
        s.oracle = true;
        s
    }

    /// Sets the traffic pattern used by throughput queries (`None` keeps
    /// the seeded-random-permutation default).
    pub fn with_traffic(mut self, traffic: Option<TrafficSpec>) -> Self {
        self.traffic = traffic;
        self
    }

    /// Sets the throughput solver options (the failure sweep passes its
    /// historical sweep options through here).
    pub fn with_throughput_options(mut self, opts: ThroughputOptions) -> Self {
        self.throughput = opts;
        self
    }

    /// The current topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The current CSR snapshot.
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// The session seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether this session runs in oracle (full-rebuild) mode.
    pub fn is_oracle(&self) -> bool {
        self.oracle
    }

    /// Cumulative counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Applies one churn event, repairing routing state incrementally
    /// (or rebuilding it, in oracle mode). On error the session is
    /// unchanged.
    pub fn apply(&mut self, event: &ChurnEvent) -> Result<Delta, ServiceError> {
        self.validate(event)?;
        let spec_error = |e: SpecError| ServiceError::Spec(e.to_string());
        let named = match *event {
            ChurnEvent::FailLink { a, b } => {
                // Validated above; disconnect cannot fail now.
                assert!(self.topo.disconnect(a, b));
                EdgeDelta { removed: vec![Edge::new(a, b)], added: Vec::new() }
            }
            ChurnEvent::FailLinks { fraction } => ScenarioTransform::FailLinks(fraction)
                .apply(&mut self.topo, self.seed)
                .map_err(spec_error)?,
            ChurnEvent::FailSwitch { node } => {
                // Mirror fail_random_switches for a single named switch.
                let row = self.csr.neighbors(node).iter().map(|&w| Edge::new(node, w as NodeId));
                let delta = EdgeDelta { removed: row.collect(), added: Vec::new() };
                self.topo.graph_mut().isolate_node(node);
                self.topo.set_servers(node, 0).map_err(|e| ServiceError::Spec(e.to_string()))?;
                delta
            }
            ChurnEvent::FailSwitches { fraction } => ScenarioTransform::FailSwitches(fraction)
                .apply(&mut self.topo, self.seed)
                .map_err(spec_error)?,
            ChurnEvent::Restore => {
                self.topo.clone_from(&self.base);
                EdgeDelta::between(&self.csr, &self.base_csr)
            }
            ChurnEvent::Expand { racks } => ScenarioTransform::Expand(racks)
                .apply(&mut self.topo, self.seed)
                .map_err(spec_error)?,
        };
        let delta = if self.oracle {
            let csr = self.topo.csr();
            let delta = EdgeDelta::between(&self.csr, &csr);
            self.csr = csr;
            delta
        } else {
            match event {
                ChurnEvent::Restore => self.csr.clone_from(&self.base_csr),
                _ => self.csr.edit(&named, self.topo.num_switches()),
            }
            named
        };
        let (repaired, total, full, dropped, kept) = self.refresh_routing(&delta);

        self.stats.events += 1;
        self.stats.rows_repaired += repaired.unwrap_or(0) as u64;
        if full {
            self.stats.full_rebuilds += 1;
        }
        self.stats.paths_dropped += dropped as u64;
        Ok(Delta {
            event: event.name(),
            removed_links: delta.removed.len(),
            added_links: delta.added.len(),
            switches: self.topo.num_switches(),
            links: self.topo.num_links(),
            servers: self.topo.total_servers(),
            generation: self.topo.generation(),
            repaired_rows: repaired,
            total_rows: total,
            full_rebuild: full,
            paths_dropped: dropped,
            paths_kept: kept,
        })
    }

    /// Brings the distance matrix and path cache up to date after `delta`.
    /// Returns `(repaired_rows, total_rows, full_rebuild, paths_dropped,
    /// paths_kept)`.
    ///
    /// KSP entries are dropped on every effective delta (Yen's output
    /// depends on global tie-breaking — there is no sound incremental
    /// subset). ECMP entries survive exactly when the repair reports
    /// neither distance row changed and no delta edge lies on the pair's
    /// shortest-path DAG ([`edge_on_shortest_path`] reads only the two
    /// unchanged rows, so old-DAG and new-DAG membership coincide for
    /// surviving pairs). A delta that shrinks the node set rebuilds the
    /// matrix and empties the cache.
    fn refresh_routing(
        &mut self,
        delta: &EdgeDelta,
    ) -> (Option<usize>, Option<usize>, bool, usize, usize) {
        let cached = self.paths.len();
        let n_new = self.csr.num_nodes();
        let Some(dist) = self.dist.as_mut() else {
            // No matrix materialized yet: nothing to repair, and no basis
            // for exact invalidation — drop the cache on any change.
            return if delta.is_empty() {
                (None, None, false, 0, cached)
            } else {
                self.paths.clear();
                (None, None, false, cached, 0)
            };
        };
        if self.oracle {
            *dist = all_pairs_distances(&self.csr);
            if delta.is_empty() {
                return (Some(n_new), Some(n_new), true, 0, cached);
            }
            self.paths.clear();
            return (Some(n_new), Some(n_new), true, cached, 0);
        }
        if delta.is_empty() && n_new == dist.num_cols() {
            return (Some(0), Some(n_new), false, 0, cached);
        }
        let outcome = repair_all_pairs(dist, &self.csr, delta);
        let dist = &*dist;
        let changed = |row: NodeId| outcome.changed.get(row).copied().unwrap_or(true);
        self.paths.retain(|&((scheme_tag, _), src, dst), _| {
            scheme_tag == ECMP_TAG
                && !changed(src)
                && !changed(dst)
                && !delta
                    .removed
                    .iter()
                    .chain(&delta.added)
                    .any(|e| edge_on_shortest_path(dist, src, dst, e.a, e.b))
        });
        let kept = self.paths.len();
        (
            Some(outcome.repaired_rows),
            Some(outcome.total_rows),
            outcome.full_rebuild,
            cached - kept,
            kept,
        )
    }

    /// Answers one query against the current topology.
    pub fn query(&mut self, query: &Query) -> Result<Reply, ServiceError> {
        let reply = match *query {
            Query::Dist { src, dst } => {
                self.check_node(src)?;
                self.check_node(dst)?;
                let d = self.distances().get(src, dst);
                Reply::Dist { src, dst, hops: (d != UNREACHED).then_some(d) }
            }
            Query::Path { src, dst, scheme } => {
                self.check_node(src)?;
                self.check_node(dst)?;
                let paths = self.paths_for(scheme, src, dst);
                Reply::Path { src, dst, scheme: scheme.label(), paths }
            }
            Query::Throughput { tseed } => {
                let servers = ServerMap::new(&self.topo);
                let seed = tseed.unwrap_or(self.seed ^ TRAFFIC_SEED_XOR);
                let spec = self.traffic.clone().unwrap_or_else(TrafficSpec::permutation);
                let workload =
                    spec.stream(&servers, seed).map_err(|e| ServiceError::Spec(e.to_string()))?;
                let result = normalized_throughput(&self.topo, &servers, workload, self.throughput);
                Reply::Throughput { result }
            }
            Query::Bisection { restarts } => {
                if restarts == 0 {
                    return Err(ServiceError::Param("bisection needs restarts >= 1".into()));
                }
                if restarts > MAX_BISECTION_RESTARTS {
                    return Err(ServiceError::Param(format!(
                        "bisection takes at most {MAX_BISECTION_RESTARTS} restarts, got {restarts}"
                    )));
                }
                let cut = min_bisection_heuristic(&self.topo, restarts, self.seed);
                Reply::Bisection { cut }
            }
        };
        self.stats.queries += 1;
        Ok(reply)
    }

    /// The all-pairs distance matrix, materialized on first use and kept
    /// repaired by [`Session::apply`] afterwards.
    pub fn distances(&mut self) -> &DistanceMatrix {
        self.dist.get_or_insert_with(|| all_pairs_distances(&self.csr))
    }

    /// The installed path set for one pair, from cache when its entry
    /// provably survived all churn since it was computed.
    pub fn paths_for(&mut self, scheme: RoutingScheme, src: NodeId, dst: NodeId) -> Vec<Path> {
        let key = (scheme_key(scheme), src, dst);
        if let Some(hit) = self.paths.get(&key) {
            self.stats.path_cache_hits += 1;
            return hit.clone();
        }
        let paths = match scheme {
            RoutingScheme::Ecmp { way } => {
                // ECMP enumeration reads the destination's row of the
                // resident matrix, which later deltas repair in place.
                let dist = self.dist.get_or_insert_with(|| all_pairs_distances(&self.csr));
                all_shortest_paths(&self.csr, dist.row(dst), src, dst, way)
            }
            RoutingScheme::KShortestPaths { k } => k_shortest_paths(&self.csr, src, dst, k),
        };
        self.paths.insert(key, paths.clone());
        paths
    }

    fn check_node(&self, n: NodeId) -> Result<(), ServiceError> {
        if n < self.topo.num_switches() {
            Ok(())
        } else {
            Err(ServiceError::UnknownNode(n))
        }
    }

    fn validate(&self, event: &ChurnEvent) -> Result<(), ServiceError> {
        match *event {
            ChurnEvent::FailLink { a, b } => {
                self.check_node(a)?;
                self.check_node(b)?;
                if !self.topo.graph().has_edge(a, b) {
                    return Err(ServiceError::NoSuchLink(a, b));
                }
            }
            ChurnEvent::FailSwitch { node } => self.check_node(node)?,
            ChurnEvent::FailLinks { fraction } | ChurnEvent::FailSwitches { fraction } => {
                if !(0.0..=1.0).contains(&fraction) {
                    return Err(ServiceError::Param(format!(
                        "fraction {fraction} must be in [0, 1]"
                    )));
                }
            }
            ChurnEvent::Restore => {}
            ChurnEvent::Expand { racks } => {
                // `ScenarioTransform::apply` refuses more racks than switches.
                if racks == 0 {
                    return Err(ServiceError::Param("expand needs racks >= 1".into()));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish_topology::JellyfishBuilder;

    /// KSP path queries never build the distance matrix, so the deltas of a
    /// session that answered only KSP queries report no repaired rows; the
    /// first ECMP query materializes the matrix.
    #[test]
    fn ksp_queries_leave_the_distance_matrix_unbuilt() {
        let topo = JellyfishBuilder::new(16, 8, 5).seed(7).build().unwrap();
        let mut session = Session::new(topo, 7);
        let path = |scheme| Query::Path { src: 0, dst: 9, scheme };
        session.query(&path(RoutingScheme::ksp8())).unwrap();
        let delta = session.apply(&ChurnEvent::FailLinks { fraction: 0.1 }).unwrap();
        assert_eq!((delta.repaired_rows, delta.total_rows), (None, None));
        session.query(&path(RoutingScheme::ecmp8())).unwrap();
        let delta = session.apply(&ChurnEvent::Restore).unwrap();
        assert_eq!(delta.total_rows, Some(16));
    }

    /// Distance, ECMP and KSP replies for a few pairs, rendered for
    /// comparison.
    fn answers(s: &mut Session) -> Vec<String> {
        let mut out = Vec::new();
        for (src, dst) in [(0, 9), (1, 12), (3, 8), (6, 15)] {
            for query in [
                Query::Dist { src, dst },
                Query::Path { src, dst, scheme: RoutingScheme::ecmp8() },
                Query::Path { src, dst, scheme: RoutingScheme::ksp8() },
            ] {
                out.push(format!("{:?}", s.query(&query).unwrap()));
            }
        }
        out
    }

    /// A refused event leaves the topology, the snapshot, the distance
    /// matrix, the path cache and the counters as they were (the session's
    /// `Debug` rendering shows every field), and the next queries answer as
    /// a fresh session on the same topology would.
    #[test]
    fn refused_events_leave_the_session_unchanged() {
        let topo = JellyfishBuilder::new(16, 8, 5).seed(7).build().unwrap();
        let mut session = Session::new(topo, 7);
        let e = session.topology().graph().edges().next().unwrap();
        session.apply(&ChurnEvent::FailLink { a: e.a, b: e.b }).unwrap();
        answers(&mut session);
        let (a, b) = (e.a, e.b);
        let n = session.topology().num_switches();
        assert!(session.dist.is_some() && !session.paths.is_empty(), "matrix built, cache warm");
        let before = format!("{session:?}");

        let refused = [
            (ChurnEvent::FailLink { a, b }, ServiceError::NoSuchLink(a, b)),
            (ChurnEvent::FailLink { a, b: n }, ServiceError::UnknownNode(n)),
            (
                ChurnEvent::FailLinks { fraction: 1.5 },
                ServiceError::Param("fraction 1.5 must be in [0, 1]".into()),
            ),
            (
                ChurnEvent::FailLinks { fraction: f64::NAN },
                ServiceError::Param("fraction NaN must be in [0, 1]".into()),
            ),
            (ChurnEvent::FailSwitch { node: n }, ServiceError::UnknownNode(n)),
            (
                ChurnEvent::Expand { racks: 0 },
                ServiceError::Param("expand needs racks >= 1".into()),
            ),
            (
                ChurnEvent::Expand { racks: n + 1 },
                ServiceError::Spec(format!(
                    "bad parameter: expand adds at most {n} racks (the switch count) at once, \
                     got {}",
                    n + 1
                )),
            ),
        ];
        for (event, error) in refused {
            assert_eq!(session.apply(&event), Err(error), "{event:?}");
            assert!(format!("{session:?}") == before, "{event:?} changed the session");
        }
        let over = Query::Bisection { restarts: MAX_BISECTION_RESTARTS + 1 };
        let limit = ServiceError::Param("bisection takes at most 64 restarts, got 65".into());
        assert_eq!(session.query(&over).unwrap_err(), limit);
        assert!(format!("{session:?}") == before, "a refused query changed the session");

        let hits = session.stats().path_cache_hits;
        let mut fresh = Session::new(session.topology().clone(), 7);
        assert_eq!(answers(&mut session), answers(&mut fresh));
        assert_eq!(session.stats().path_cache_hits, hits + 8, "ECMP and KSP answers were cached");
    }
}
