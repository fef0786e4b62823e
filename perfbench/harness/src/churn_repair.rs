//! `churn_repair`: the `serve_dist_repair` and `serve_path_repair` kernels
//! of `figures bench` at laptop scale, with the failed link ranging over
//! every link of the fabric instead of the first one only.

use std::time::Instant;

use jellyfish::routing::path_table::RoutingScheme;
use jellyfish::routing::shortest::all_pairs_distances;
use jellyfish::routing::Path;
use jellyfish::service::{ChurnEvent, Session};
use jellyfish::topology::{TopoSpec, Topology};

use crate::{fnv, Batch, Counts, Layer, Trace, Workload, FNV_START};

/// The kernels' laptop-scale fabric, the paper's 245-switch Jellyfish.
const SPEC: &str = "jellyfish:switches=245,ports=14,degree=11";

/// ECMP path queries after each churn round-trip, as in the path kernel.
const PAIRS: usize = 16;

fn paths_digest(paths: &[Path]) -> u64 {
    paths.iter().fold(FNV_START, |h, p| {
        let h = fnv(h, &(p.len() as u64).to_le_bytes());
        p.iter().fold(h, |h, &n| fnv(h, &(n as u64).to_le_bytes()))
    })
}

pub struct ChurnRepair {
    seed: u64,
    spec: TopoSpec,
    /// Every link of the fabric, in CSR order; op `i` fails link `i`.
    links: Vec<(usize, usize)>,
    /// The path kernel's pairs `(i, i + n/2)`.
    pairs: Vec<(usize, usize)>,
    /// Per op, the digest of the full-rebuild oracle session's path replies.
    expected: Vec<u64>,
}

impl ChurnRepair {
    /// Runs the op sequence once on an oracle session, which rebuilds all
    /// routing state after every event, and records its replies.
    pub fn new(seed: u64) -> Self {
        let spec: TopoSpec = SPEC.parse().expect("the churn spec parses");
        let topo = spec.build(seed).expect("the churn spec builds");
        let n = topo.num_switches();
        let links: Vec<_> = topo.csr().edges().collect();
        let pairs: Vec<_> = (0..PAIRS).map(|i| (i % n, (i + n / 2) % n)).collect();
        let mut oracle = Session::oracle(topo, seed);
        let expected = links
            .iter()
            .map(|&(a, b)| {
                oracle.apply(&ChurnEvent::FailLink { a, b }).expect("the oracle fails a link");
                oracle.apply(&ChurnEvent::Restore).expect("the oracle restores");
                pairs.iter().fold(FNV_START, |h, &(s, d)| {
                    let paths = oracle.paths_for(RoutingScheme::ecmp8(), s, d);
                    fnv(h, &paths_digest(&paths).to_le_bytes())
                })
            })
            .collect();
        ChurnRepair { seed, spec, links, pairs, expected }
    }
}

impl Workload for ChurnRepair {
    type State = Session;

    /// The kernels' set-up: build the fabric, open the session, materialize
    /// all-pairs distances and cache the pairs' ECMP paths.
    fn setup(&self, trace: &mut Trace) -> Session {
        let topo: Topology = trace
            .span(Layer::Topology, || self.spec.build(self.seed))
            .expect("the churn spec builds");
        trace.span(Layer::Routing, || {
            let mut session = Session::new(topo, self.seed);
            session.distances();
            for &(s, d) in &self.pairs {
                session.paths_for(RoutingScheme::ecmp8(), s, d);
            }
            session
        })
    }

    /// An op is one churn round-trip: fail a link, restore the fabric, then
    /// query the pairs' ECMP paths, which the session answers from cache
    /// where its invalidation proved them unaffected.
    fn batch(&self, mut session: Session, trace: &mut Trace) -> Batch {
        let before = session.stats();
        let mut latencies = Vec::with_capacity(self.links.len());
        let (mut failed, mut matched, mut digest) = (0, true, FNV_START);
        for (&(a, b), &want) in self.links.iter().zip(&self.expected) {
            let t = Instant::now();
            let fail = trace.span(Layer::Churn, || session.apply(&ChurnEvent::FailLink { a, b }));
            let restore = trace.span(Layer::Churn, || session.apply(&ChurnEvent::Restore));
            let hash = trace.span(Layer::Query, || {
                self.pairs.iter().fold(FNV_START, |h, &(s, d)| {
                    let paths = session.paths_for(RoutingScheme::ecmp8(), s, d);
                    fnv(h, &paths_digest(&paths).to_le_bytes())
                })
            });
            latencies.push(t.elapsed().as_secs_f64());
            let round_trip = fail.as_ref().is_ok_and(|d| d.removed_links == 1)
                && restore.as_ref().is_ok_and(|d| d.added_links == 1);
            if !round_trip {
                eprintln!("perfbench: churn on link {a}-{b}: {fail:?} {restore:?}");
                failed += 1;
            }
            if hash != want {
                eprintln!("perfbench: paths after churn on {a}-{b} differ from the oracle");
                matched = false;
            }
            digest = fnv(digest, &hash.to_le_bytes());
        }
        let after = session.stats();
        let rebuilt = all_pairs_distances(session.csr());
        if *session.distances() != rebuilt {
            eprintln!("perfbench: repaired distances differ from a full rebuild");
            matched = false;
        }
        let counts = Counts {
            path_cache_hits: after.path_cache_hits - before.path_cache_hits,
            rows_repaired: after.rows_repaired - before.rows_repaired,
            links_failed: self.links.len() as u64,
            ..Counts::default()
        };
        Batch { latencies, failed, matched, digest, counts }
    }
}
