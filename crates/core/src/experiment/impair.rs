//! Graceful-degradation experiments: how the paper's topologies hold up on
//! *impaired* fabrics (loss, burst loss, jitter, reordering, duplication),
//! driven by the `+impair=` scenario transform of the spec grammar.
//!
//! Three spec-generic experiments join the registry here:
//!
//! * [`ThroughputVsLoss`] — packet-level throughput versus i.i.d. wire-loss
//!   probability, Jellyfish (8-KSP) against a same-server-count leaf-spine
//!   (ECMP), both under MPTCP.
//! * [`LatencyHistogramExp`] — the distribution of Karn-filtered RTT
//!   samples on an ideal versus a jittery fabric, as a
//!   [`crate::metrics::LatencyHistogram`] series per topology.
//! * [`ImpairedFailureSweep`] — the `failure_sweep` axis rerun on a lossy,
//!   jittery fabric, with an uncoupled 8-flow TCP series alongside MPTCP to
//!   show LIA's latency-aware window coupling rescuing throughput when
//!   paths jitter.
//!
//! Every work item's spec carries its full impairment chain, so provenance
//! (`# topo:` metadata), sharding and `figures launch` merges treat
//! impaired runs exactly like any other spec-driven sweep. Impairment RNG
//! seeds derive from `(ctx.run.seed, impair config)` via
//! [`ScenarioTransform::derived_seed`] — pure functions of the fragment
//! metadata, hence bit-reproducible across shards and workers.
//!
//! With `--topo <spec>`, the override replaces the default topology pair;
//! an `+impair=` chain on the override seeds each experiment's impairment
//! axis (e.g. `throughput_vs_loss` keeps the override's jitter while
//! sweeping its `loss` field).

use super::catalog::{jellyfish_spec, permutation, resolve};
use super::generic::failure_fractions;
use super::{Dataset, Experiment, ItemResult, RunCtx, WorkItem};
use crate::figures::Scale;
use crate::metrics::LatencyHistogram;
use crate::service::ChurnEvent;
use jellyfish_routing::path_table::RoutingScheme;
use jellyfish_sim::net::{LinkParams, Network};
use jellyfish_sim::{build_connections, SimConfig, SimReport, Simulator, TransportPolicy};
use jellyfish_topology::spec::{ImpairConfig, ScenarioTransform};
use jellyfish_topology::{CsrGraph, TopoSpec, Topology};
use jellyfish_traffic::ServerMap;

/// Same-server-count leaf-spine counterpart of the scale's default
/// Jellyfish (60 / 180 / 480 servers at tiny / laptop / paper).
fn leafspine_spec(leaves: usize, spines: usize, servers: usize) -> TopoSpec {
    TopoSpec::new("leafspine")
        .with_param("leaf", leaves)
        .with_param("spine", spines)
        .with_param("servers", servers)
}

/// The default topology pair per scale, or the `--topo` override alone.
fn impair_bases(ctx: &RunCtx) -> Vec<(String, TopoSpec)> {
    if let Some(spec) = &ctx.run.topo {
        return vec![(spec.to_string(), spec.clone())];
    }
    let (jf, ls) = match ctx.run.scale {
        Scale::Paper => (jellyfish_spec(160, 12, 9), leafspine_spec(40, 12, 12)),
        Scale::Laptop => (jellyfish_spec(60, 10, 7), leafspine_spec(20, 10, 9)),
        Scale::Tiny => (jellyfish_spec(20, 8, 5), leafspine_spec(10, 5, 6)),
    };
    vec![("jellyfish".into(), jf), ("leafspine".into(), ls)]
}

/// Path diversity policy matching the paper's pairings: 8 shortest paths on
/// random graphs, ECMP on Clos fabrics.
fn policy_for(spec: &TopoSpec) -> RoutingScheme {
    if spec.generator() == "jellyfish" {
        RoutingScheme::ksp8()
    } else {
        RoutingScheme::ecmp8()
    }
}

/// Packet-sim durations (the Table 1 settings).
fn sim_duration(scale: Scale) -> f64 {
    match scale {
        Scale::Paper => 20.0,
        Scale::Laptop => 8.0,
        Scale::Tiny => 4.0,
    }
}

/// Runs the packet engine on a resolved topology, attaching the item
/// spec's impairment (if any) with a seed derived exactly like every other
/// transform seed. Pure in `(topology, spec, transport, seeds, duration)`;
/// takes the topology and its CSR directly so both snapshot-backed and
/// live-session callers can feed it.
fn simulate(
    topo: &Topology,
    csr: &CsrGraph,
    spec: &TopoSpec,
    transport: TransportPolicy,
    base_seed: u64,
    traffic_seed: u64,
    duration: f64,
) -> SimReport {
    let servers = ServerMap::new(topo);
    let workload = permutation(&servers, traffic_seed);
    let conns =
        build_connections(csr, &servers, workload, policy_for(spec), transport, traffic_seed);
    let mut net = Network::build(csr, &servers, LinkParams::default());
    if let Some(cfg) = spec.impairment() {
        net = net.with_impairment(cfg, ScenarioTransform::Impair(cfg).derived_seed(base_seed));
    }
    let config = SimConfig { duration, warmup: duration * 0.25, seed: traffic_seed };
    Simulator::new(net, conns, config).run()
}

// -------------------------------------------------------- throughput_vs_loss

/// The wire-loss axis per scale.
fn loss_fractions(scale: Scale) -> &'static [f64] {
    match scale {
        Scale::Paper => &[0.0, 0.002, 0.005, 0.01, 0.02, 0.05],
        Scale::Laptop => &[0.0, 0.005, 0.01, 0.02, 0.05],
        Scale::Tiny => &[0.0, 0.01, 0.03],
    }
}

/// MPTCP throughput versus i.i.d. wire-loss probability, per topology.
pub struct ThroughputVsLoss;

impl ThroughputVsLoss {
    fn items(ctx: &RunCtx) -> Vec<(String, String, TopoSpec)> {
        let mut out = Vec::new();
        for (base_label, base) in impair_bases(ctx) {
            let seed_cfg = base.impairment().unwrap_or_default();
            for &loss in loss_fractions(ctx.run.scale) {
                let cfg = ImpairConfig { loss, ..seed_cfg };
                let spec = base.without_impairment().with_transform(ScenarioTransform::Impair(cfg));
                out.push((base_label.clone(), format!("{base_label} loss={loss}"), spec));
            }
        }
        out
    }
}

impl Experiment for ThroughputVsLoss {
    fn name(&self) -> &'static str {
        "throughput_vs_loss"
    }

    fn describe(&self) -> &'static str {
        "MPTCP throughput vs wire-loss probability, jellyfish vs leaf-spine (impaired sweep)"
    }

    fn supports_topo_override(&self) -> bool {
        true
    }

    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem> {
        Self::items(ctx)
            .into_iter()
            .enumerate()
            .map(|(i, (_, label, spec))| WorkItem::with_spec(i, label, spec))
            .collect()
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        let (series, _, _) = &Self::items(ctx)[item.index];
        let loss = loss_fractions(ctx.run.scale)[item.index % loss_fractions(ctx.run.scale).len()];
        let mut ds = Dataset::new();
        let snap = resolve(ctx, item, ctx.run.seed, &mut ds);
        let report = simulate(
            &snap.topology,
            &snap.csr,
            item.spec(),
            TransportPolicy::Mptcp { subflows: 8 },
            ctx.run.seed,
            ctx.run.seed ^ 0x1055,
            sim_duration(ctx.run.scale),
        );
        ds.push_point(series, loss, report.mean_throughput());
        ItemResult::new(item.index, ds)
    }
}

// -------------------------------------------------------- latency_histogram

/// Histogram shape: 50 bins of 20 ms cover RTTs up to one second; the last
/// bin absorbs the RTO-dominated tail.
const HIST_BIN_WIDTH: f64 = 0.02;
const HIST_BINS: usize = 50;

/// The jittery fabric the ideal one is compared against (unless the
/// `--topo` override carries its own `+impair=` chain).
fn default_jitter() -> ImpairConfig {
    ImpairConfig { jitter_ms: 5.0, ..Default::default() }
}

/// RTT distribution on ideal versus jittery fabrics, per topology.
pub struct LatencyHistogramExp;

impl LatencyHistogramExp {
    fn items(ctx: &RunCtx) -> Vec<(String, TopoSpec)> {
        let mut out = Vec::new();
        for (base_label, base) in impair_bases(ctx) {
            let impaired_cfg = base.impairment().unwrap_or_else(default_jitter);
            let ideal = base.without_impairment();
            out.push((format!("{base_label} ideal"), ideal.clone()));
            out.push((
                format!("{base_label} impaired"),
                ideal.with_transform(ScenarioTransform::Impair(impaired_cfg)),
            ));
        }
        out
    }
}

impl Experiment for LatencyHistogramExp {
    fn name(&self) -> &'static str {
        "latency_histogram"
    }

    fn describe(&self) -> &'static str {
        "RTT sample histogram, ideal vs jittery fabric (impaired sweep)"
    }

    fn supports_topo_override(&self) -> bool {
        true
    }

    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem> {
        Self::items(ctx)
            .into_iter()
            .enumerate()
            .map(|(i, (label, spec))| WorkItem::with_spec(i, label, spec))
            .collect()
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        let mut ds = Dataset::new();
        let snap = resolve(ctx, item, ctx.run.seed, &mut ds);
        let report = simulate(
            &snap.topology,
            &snap.csr,
            item.spec(),
            TransportPolicy::Mptcp { subflows: 8 },
            ctx.run.seed,
            ctx.run.seed ^ 0x1A7E,
            sim_duration(ctx.run.scale),
        );
        let hist = LatencyHistogram::from_samples(&report.rtt_samples, HIST_BIN_WIDTH, HIST_BINS);
        ds.push_meta(format!("rtt_samples:{}", item.label), hist.total.to_string());
        for i in 0..hist.counts.len() {
            ds.push_point(&item.label, hist.bin_upper(i), hist.fraction(i));
        }
        ItemResult::new(item.index, ds)
    }
}

// --------------------------------------------------- impaired_failure_sweep

/// The lossy, jittery fabric the failure sweep runs on (override `+impair=`
/// fields take precedence).
fn degraded_fabric(base: &TopoSpec) -> ImpairConfig {
    let defaults = ImpairConfig { loss: 0.005, jitter_ms: 5.0, ..Default::default() };
    match base.impairment() {
        Some(user) => defaults.merged(&user),
        None => defaults,
    }
}

/// `failure_sweep` on an impaired fabric, with a TCP series alongside MPTCP.
pub struct ImpairedFailureSweep;

impl ImpairedFailureSweep {
    /// `(series label, base spec, transport)` per series.
    fn series(ctx: &RunCtx) -> Vec<(String, TopoSpec, TransportPolicy)> {
        let mptcp = TransportPolicy::Mptcp { subflows: 8 };
        let tcp8 = TransportPolicy::Tcp { flows: 8 };
        if let Some(spec) = &ctx.run.topo {
            return vec![
                (format!("{spec} mptcp8"), spec.clone(), mptcp),
                (format!("{spec} tcp8"), spec.clone(), tcp8),
            ];
        }
        let [(_, jf), (_, ls)]: [(String, TopoSpec); 2] =
            impair_bases(ctx).try_into().expect("default bases are a pair");
        vec![
            ("jellyfish mptcp8".into(), jf.clone(), mptcp),
            ("jellyfish tcp8".into(), jf, tcp8),
            ("leafspine mptcp8".into(), ls, mptcp),
        ]
    }

    /// `(series label, base spec, transport, failed fraction)` per item.
    fn items(ctx: &RunCtx) -> Vec<(String, TopoSpec, TransportPolicy, f64)> {
        let mut out = Vec::new();
        for (series, base, transport) in Self::series(ctx) {
            for &f in failure_fractions(ctx.run.scale) {
                out.push((series.clone(), base.clone(), transport, f));
            }
        }
        out
    }
}

impl Experiment for ImpairedFailureSweep {
    fn name(&self) -> &'static str {
        "impaired_failure_sweep"
    }

    fn describe(&self) -> &'static str {
        "Throughput vs failed links on a lossy, jittery fabric; MPTCP vs TCP (impaired sweep)"
    }

    fn supports_topo_override(&self) -> bool {
        true
    }

    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem> {
        Self::items(ctx)
            .into_iter()
            .enumerate()
            .map(|(i, (series, base, _, f))| {
                let spec = base
                    .without_impairment()
                    .with_transform(ScenarioTransform::FailLinks(f))
                    .with_transform(ScenarioTransform::Impair(degraded_fabric(&base)));
                WorkItem::with_spec(i, format!("{series} fail={f}"), spec)
            })
            .collect()
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        let (series, base, transport, f) = Self::items(ctx)[item.index].clone();
        let mut ds = Dataset::new();
        let spec = item.spec();
        // Live-session inner loop, mirroring `failure_sweep`: the session
        // opens on the base's whole topology-changing chain and the item's
        // `+fail_links=f` transform is applied as a churn event (the
        // `+impair=` link is a topology no-op — the packet engine attaches
        // it below), byte-identical to the snapshot path of the item's spec.
        let mut session = ctx
            .session(&base.without_impairment(), ctx.run.seed)
            .unwrap_or_else(|e| panic!("{}: cannot build '{spec}': {e}", item.label));
        ds.push_meta(format!("topo:{}", item.label), spec.to_string());
        session
            .apply(&ChurnEvent::FailLinks { fraction: f })
            .unwrap_or_else(|e| panic!("{}: churn '{spec}' failed: {e}", item.label));
        let report = simulate(
            session.topology(),
            session.csr(),
            spec,
            transport,
            ctx.run.seed,
            ctx.run.seed ^ 0xFA11,
            sim_duration(ctx.run.scale),
        );
        ds.push_point(&series, f, report.mean_throughput());
        ItemResult::new(item.index, ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::RunSpec;

    #[test]
    fn items_cover_the_axes_and_carry_impairment() {
        let ctx = RunCtx::new(RunSpec::new(Scale::Tiny, 7));
        let tvl = ThroughputVsLoss.work_items(&ctx);
        assert_eq!(tvl.len(), 2 * loss_fractions(Scale::Tiny).len());
        assert!(tvl.iter().all(|i| i.spec().impairment().is_some()));
        // The swept field is the loss probability.
        assert_eq!(tvl[1].spec().impairment().unwrap().loss, 0.01);
        assert_eq!(tvl[0].spec().impairment().unwrap().loss, 0.0);

        let lh = LatencyHistogramExp.work_items(&ctx);
        assert_eq!(lh.len(), 4);
        assert!(lh[0].spec().impairment().is_none(), "even items are the ideal fabric");
        assert_eq!(lh[1].spec().impairment().unwrap().jitter_ms, 5.0);

        let ifs = ImpairedFailureSweep.work_items(&ctx);
        assert_eq!(ifs.len(), 3 * failure_fractions(Scale::Tiny).len());
        for item in &ifs {
            let cfg = item.spec().impairment().unwrap();
            assert_eq!((cfg.loss, cfg.jitter_ms), (0.005, 5.0));
        }
    }

    #[test]
    fn override_impairment_seeds_the_axes() {
        let spec: TopoSpec =
            "jellyfish:switches=16,ports=8,degree=5+impair=jitter_ms:2,queue:16".parse().unwrap();
        let ctx = RunCtx::new(RunSpec::new(Scale::Tiny, 7).with_topo(spec));
        // throughput_vs_loss keeps the override's jitter/queue on every point.
        for item in ThroughputVsLoss.work_items(&ctx) {
            let cfg = item.spec().impairment().unwrap();
            assert_eq!(cfg.jitter_ms, 2.0);
            assert_eq!(cfg.queue, Some(16));
        }
        // latency_histogram uses it as the impaired variant.
        let lh = LatencyHistogramExp.work_items(&ctx);
        assert_eq!(lh.len(), 2);
        assert_eq!(lh[1].spec().impairment().unwrap().jitter_ms, 2.0);
        // impaired_failure_sweep merges it over the degraded-fabric defaults.
        let ifs = ImpairedFailureSweep.work_items(&ctx);
        let cfg = ifs[0].spec().impairment().unwrap();
        assert_eq!(cfg.jitter_ms, 2.0, "override field wins");
        assert_eq!(cfg.loss, 0.005, "untouched defaults persist");
    }
}
