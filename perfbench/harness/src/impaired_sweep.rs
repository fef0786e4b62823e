//! `impaired_sweep`: the inner loop of the `impaired_failure_sweep`
//! experiment's `jellyfish mptcp8` series at `--scale tiny`, run on the
//! live-session API exactly as the experiment runs it, over a pool of seeded
//! fabrics.

use std::time::Instant;

use jellyfish::experiment::Snapshot;
use jellyfish::service::{ChurnEvent, Session, TRAFFIC_SEED_XOR};
use jellyfish::sim::net::{LinkParams, Network};
use jellyfish::sim::{
    build_connections, PathPolicy, SimConfig, SimReport, Simulator, TransportPolicy,
};
use jellyfish::topology::spec::{ImpairConfig, ScenarioTransform};
use jellyfish::topology::{CsrGraph, TopoSpec, Topology};
use jellyfish::traffic::{ServerMap, TrafficMatrix};

use crate::{fnv, Batch, Counts, Layer, Trace, Workload, FNV_START};

/// The experiment's tiny-scale Jellyfish base.
const SPEC: &str = "jellyfish:switches=20,ports=8,degree=5";

/// The experiment's tiny-scale failed-link fractions.
const FRACTIONS: [f64; 3] = [0.0, 0.10, 0.20];

/// Fabrics a batch sweeps: 34 × 3 fractions gives 102 ops, so the 90th
/// percentile has ten ops beyond it.
const POOL: u64 = 34;

/// Fabrics whose items are also simulated on the offline snapshot path, as
/// the reference every batch must reproduce.
const CHECKED: usize = 10;

/// The experiment's tiny-scale simulated seconds; a quarter is warm-up.
const DURATION: f64 = 4.0;

/// The experiment's degraded fabric: lossy, jittery links.
fn degraded() -> ImpairConfig {
    ImpairConfig { loss: 0.005, jitter_ms: 5.0, ..Default::default() }
}

/// The experiment's `simulate`: MPTCP with 8 subflows over 8 shortest
/// paths, random-permutation traffic, on the impaired fabric.
fn simulate(topo: &Topology, csr: &CsrGraph, seed: u64) -> SimReport {
    let traffic_seed = seed ^ TRAFFIC_SEED_XOR;
    let servers = ServerMap::new(topo);
    let tm = TrafficMatrix::random_permutation(&servers, traffic_seed);
    let transport = TransportPolicy::Mptcp { subflows: 8 };
    let conns = build_connections(csr, &servers, &tm, PathPolicy::ksp8(), transport, traffic_seed);
    let cfg = degraded();
    let net = Network::build(csr, &servers, LinkParams::default())
        .with_impairment(cfg, ScenarioTransform::Impair(cfg).derived_seed(seed));
    let config = SimConfig {
        duration: DURATION,
        warmup: DURATION * 0.25,
        seed: traffic_seed,
        ..Default::default()
    };
    Simulator::new(net, conns, config).run()
}

/// Digest of every connection's throughput and the packet counters.
fn report_digest(report: &SimReport) -> u64 {
    let h = report
        .connections
        .iter()
        .fold(FNV_START, |h, c| fnv(h, &c.normalized_throughput.to_bits().to_le_bytes()));
    fnv(fnv(h, &report.transmitted.to_le_bytes()), &report.drops.to_le_bytes())
}

pub struct ImpairedSweep {
    spec: TopoSpec,
    seeds: Vec<u64>,
    /// For the ops of the first [`CHECKED`] fabrics, the digest of the
    /// report of the offline snapshot path: the spec
    /// `base+fail_links=f+impair=..` built from scratch and simulated.
    expected: Vec<u64>,
}

impl ImpairedSweep {
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
                    .with_transform(ScenarioTransform::Impair(degraded()))
                    .build(s)
                    .expect("the impaired sweep spec builds");
                let report = simulate(&topo, &topo.csr(), s);
                expected.push(report_digest(&report));
            }
        }
        ImpairedSweep { spec, seeds, expected }
    }
}

impl Workload for ImpairedSweep {
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
    /// the item's fraction of links, then route and simulate the traffic on
    /// the session's topology.
    fn batch(&self, bases: Vec<Snapshot>, trace: &mut Trace) -> Batch {
        let mut latencies = Vec::with_capacity(self.seeds.len() * FRACTIONS.len());
        let (mut failed, mut matched, mut digest) = (0, true, FNV_START);
        let mut counts = Counts::default();
        let items = bases.iter().zip(&self.seeds).flat_map(|(b, &s)| FRACTIONS.map(|f| (b, s, f)));
        for (op, (base, s, f)) in items.enumerate() {
            let t = Instant::now();
            let applied = trace.span(Layer::Churn, || {
                let mut session = Session::new(base.topology.clone(), s);
                session.apply(&ChurnEvent::FailLinks { fraction: f }).map(|d| (session, d))
            });
            let (session, delta) = match applied {
                Ok(ok) => ok,
                Err(e) => {
                    latencies.push(t.elapsed().as_secs_f64());
                    eprintln!("perfbench: seed {s} fail_links={f}: {e}");
                    failed += 1;
                    continue;
                }
            };
            let report =
                trace.span(Layer::Query, || simulate(session.topology(), session.csr(), s));
            latencies.push(t.elapsed().as_secs_f64());
            let mean = report.mean_throughput();
            if report.connections.is_empty()
                || report.transmitted == 0
                || !(mean > 0.0 && mean <= 1.0)
                || report
                    .connections
                    .iter()
                    .any(|c| !(0.0..=1.0).contains(&c.normalized_throughput))
            {
                eprintln!("perfbench: seed {s} fail_links={f}: implausible report, mean {mean}");
                failed += 1;
            }
            let hash = report_digest(&report);
            if self.expected.get(op).is_some_and(|&want| want != hash) {
                eprintln!("perfbench: seed {s} fail_links={f} differs from the offline path");
                matched = false;
            }
            digest = fnv(digest, &hash.to_le_bytes());
            counts.links_failed += delta.removed_links as u64;
            counts.packets_transmitted += report.transmitted;
            counts.packet_drops += report.drops;
        }
        Batch { latencies, failed, matched, digest, counts }
    }
}
