//! `failure_sweep`: the inner loop of the `failure_sweep` experiment at
//! `--scale tiny`, run on the live-session API exactly as the experiment
//! runs it, over a pool of seeded fabrics.

use std::time::Instant;

use jellyfish::experiment::Snapshot;
use jellyfish::flow::throughput::{normalized_throughput, ThroughputOptions, ThroughputResult};
use jellyfish::service::{ChurnEvent, Query, Reply, Session, TRAFFIC_SEED_XOR};
use jellyfish::topology::spec::ScenarioTransform;
use jellyfish::topology::TopoSpec;
use jellyfish::traffic::{ServerMap, TrafficMatrix};

use crate::{fnv, Batch, Counts, Layer, Trace, Workload, FNV_START};

/// The experiment's tiny-scale base fabric.
const SPEC: &str = "jellyfish:switches=20,ports=8,degree=5";

/// The experiment's tiny-scale failed-link fractions.
const FRACTIONS: [f64; 3] = [0.0, 0.10, 0.20];

/// Fabrics a batch sweeps: 34 × 3 fractions gives 102 ops, so the 90th
/// percentile has ten ops beyond it.
const POOL: u64 = 34;

/// Fabrics whose items are also solved on the offline snapshot path, as the
/// reference every batch must reproduce.
const CHECKED: usize = 10;

/// The experiment's solver options (`sweep_opts` in the experiment catalog).
fn sweep_opts() -> ThroughputOptions {
    ThroughputOptions { stop_at_full: false, epsilon: 0.06, ..Default::default() }
}

/// Digest of every field of a solver result.
fn result_digest(r: &ThroughputResult) -> u64 {
    let mut h = fnv(FNV_START, &r.lambda.to_bits().to_le_bytes());
    h = fnv(h, &r.normalized.to_bits().to_le_bytes());
    h = fnv(h, &(r.commodities as u64).to_le_bytes());
    fnv(h, &r.epsilon.to_bits().to_le_bytes())
}

pub struct FailureSweep {
    spec: TopoSpec,
    seeds: Vec<u64>,
    /// For the ops of the first [`CHECKED`] fabrics, the digest of the
    /// result of the offline snapshot path: the spec `base+fail_links=f`
    /// built from scratch and solved directly.
    expected: Vec<u64>,
}

impl FailureSweep {
    pub fn new(seed: u64) -> Self {
        let spec: TopoSpec = SPEC.parse().expect("the sweep spec parses");
        let seeds: Vec<u64> =
            (0..POOL).map(|i| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i).collect();
        let mut expected = Vec::with_capacity(CHECKED * FRACTIONS.len());
        for &s in &seeds[..CHECKED] {
            for f in FRACTIONS {
                let topo = spec
                    .clone()
                    .with_transform(ScenarioTransform::FailLinks(f))
                    .build(s)
                    .expect("the failed sweep spec builds");
                let servers = ServerMap::new(&topo);
                let tm = TrafficMatrix::random_permutation(&servers, s ^ TRAFFIC_SEED_XOR);
                let result = normalized_throughput(&topo, &servers, &tm, sweep_opts());
                expected.push(result_digest(&result));
            }
        }
        FailureSweep { spec, seeds, expected }
    }
}

impl Workload for FailureSweep {
    type State = Vec<Snapshot>;

    /// Builds the base fabrics and their CSR snapshots, as `RunCtx`
    /// memoizes them for the experiment.
    fn setup(&self, trace: &mut Trace) -> Vec<Snapshot> {
        self.seeds
            .iter()
            .map(|&s| {
                let topo =
                    trace.span(Layer::Topology, || self.spec.build(s)).expect("the spec builds");
                trace.span(Layer::Routing, || Snapshot::new(topo))
            })
            .collect()
    }

    /// An op is one sweep item: open a session on a copy of the base, fail
    /// the item's fraction of links, and query the throughput.
    fn batch(&self, bases: Vec<Snapshot>, trace: &mut Trace) -> Batch {
        let mut latencies = Vec::with_capacity(self.seeds.len() * FRACTIONS.len());
        let (mut failed, mut matched, mut digest) = (0, true, FNV_START);
        let mut counts = Counts::default();
        let items = bases.iter().zip(&self.seeds).flat_map(|(b, &s)| FRACTIONS.map(|f| (b, s, f)));
        for (op, (base, s, f)) in items.enumerate() {
            let t = Instant::now();
            let applied = trace.span(Layer::Churn, || {
                let mut session =
                    Session::new(base.topology.clone(), s).with_throughput_options(sweep_opts());
                session.apply(&ChurnEvent::FailLinks { fraction: f }).map(|d| (session, d))
            });
            let reply = match applied {
                Ok((mut session, delta)) => {
                    counts.links_failed += delta.removed_links as u64;
                    trace.span(Layer::Query, || session.query(&Query::Throughput { tseed: None }))
                }
                Err(e) => Err(e),
            };
            latencies.push(t.elapsed().as_secs_f64());
            let result = match reply {
                Ok(Reply::Throughput { result }) => result,
                other => {
                    eprintln!("perfbench: seed {s} fail_links={f}: {other:?}");
                    failed += 1;
                    continue;
                }
            };
            if !(0.0..=1.0).contains(&result.normalized) || result.commodities == 0 {
                eprintln!("perfbench: seed {s} fail_links={f}: implausible {result:?}");
                failed += 1;
            }
            let hash = result_digest(&result);
            if self.expected.get(op).is_some_and(|&want| want != hash) {
                eprintln!("perfbench: seed {s} fail_links={f} differs from the offline path");
                matched = false;
            }
            digest = fnv(digest, &hash.to_le_bytes());
        }
        Batch { latencies, failed, matched, digest, counts }
    }
}
