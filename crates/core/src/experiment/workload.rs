//! Workload-generic experiments: the consumers of the `--traffic <spec>`
//! override ([`RunSpec::traffic`](super::RunSpec::traffic)), mirroring how [`super::generic`]
//! consumes `--topo`.
//!
//! Each experiment fixes one base fabric (a scale-sized Jellyfish, or the
//! `--topo` override) and sweeps a *workload* axis across it: registered
//! traffic patterns (`throughput_vs_workload`), Zipf skew exponents
//! (`fairness_under_skew`), or incast fan-in degrees (`incast_degradation`).
//! A `--traffic` override replaces the whole axis with the given spec, so
//! any registered workload can be pointed at any registered fabric with no
//! code changes. Work items carry their [`TrafficSpec`] the same way
//! spec-driven topology items carry their [`TopoSpec`], and every dataset
//! records both specs in its provenance metadata.
//!
//! Workloads are evaluated as lazy [`FlowStream`]s
//! (`jellyfish_traffic::stream`): the solver aggregates flows as they are
//! generated, and only the simulator's connection builder holds them all.

use super::catalog::{jellyfish_spec, sweep_opts};
use super::{Dataset, Experiment, ItemResult, RunCtx, Snapshot, WorkItem};
use crate::figures::Scale;
use crate::metrics::jain_fairness_index;
use jellyfish_flow::throughput::normalized_throughput;
use jellyfish_routing::path_table::RoutingScheme;
use jellyfish_sim::fluid::max_min_fair_allocation;
use jellyfish_sim::routing::TransportPolicy;
use jellyfish_sim::workload::build_connections;
use jellyfish_topology::TopoSpec;
use jellyfish_traffic::{FlowStream, ServerMap, TrafficSpec};
use std::sync::Arc;

/// The base fabric the workload axes run against: the `--topo` override, or
/// a scale-sized default Jellyfish.
fn workload_base(ctx: &RunCtx) -> TopoSpec {
    if let Some(spec) = &ctx.run.topo {
        return spec.clone();
    }
    match ctx.run.scale {
        Scale::Paper => jellyfish_spec(100, 12, 9),
        Scale::Laptop => jellyfish_spec(40, 10, 7),
        Scale::Tiny => jellyfish_spec(16, 8, 5),
    }
}

/// The workload axis: the `--traffic` override collapses the sweep to that
/// single spec; otherwise the experiment's defaults (which must parse — they
/// are registered strings).
fn workload_axis(ctx: &RunCtx, defaults: &[&str]) -> Vec<TrafficSpec> {
    if let Some(spec) = &ctx.run.traffic {
        return vec![spec.clone()];
    }
    defaults
        .iter()
        .map(|s| s.parse().unwrap_or_else(|e| panic!("default workload '{s}': {e}")))
        .collect()
}

/// One work item per axis workload, each carrying the shared base topology
/// and its own traffic spec.
fn workload_items(ctx: &RunCtx, defaults: &[&str]) -> Vec<WorkItem> {
    let base = workload_base(ctx);
    workload_axis(ctx, defaults)
        .into_iter()
        .enumerate()
        .map(|(i, tspec)| {
            WorkItem::with_spec(i, tspec.to_string(), base.clone()).with_traffic(tspec)
        })
        .collect()
}

/// Resolves a workload item: the memoized base snapshot, its server map,
/// and the item's flow stream (seeded by `ctx.run.seed ^ index`), with both
/// specs recorded in the dataset's provenance metadata.
fn resolve(
    ctx: &RunCtx,
    item: &WorkItem,
    ds: &mut Dataset,
) -> (Arc<Snapshot>, ServerMap, FlowStream) {
    let spec = item.spec();
    let snap = ctx
        .spec_snapshot(spec, ctx.run.seed)
        .unwrap_or_else(|e| panic!("{}: cannot build '{spec}': {e}", item.label));
    ds.push_meta("topo", spec.to_string());
    let tspec = item.traffic();
    ds.push_meta(format!("traffic:{}", item.label), tspec.to_string());
    let servers = ServerMap::new(&snap.topology);
    let stream = tspec
        .stream(&servers, ctx.run.seed ^ item.index as u64)
        .unwrap_or_else(|e| panic!("workload '{tspec}' does not build on '{spec}': {e}"));
    (snap, servers, stream)
}

/// Column headers shared by the stream-throughput tables.
pub(crate) const WORKLOAD_THROUGHPUT_COLUMNS: [&str; 4] =
    ["workload", "flows", "commodities", "normalized_throughput"];

/// The shared stream-throughput row: aggregate the item's stream to switch
/// demands (lazily), solve, report.
fn throughput_row(ctx: &RunCtx, item: &WorkItem) -> ItemResult {
    let mut ds = Dataset::new();
    let (snap, servers, stream) = resolve(ctx, item, &mut ds);
    let flows = stream.len() as f64;
    let r = normalized_throughput(&snap.topology, &servers, stream, sweep_opts());
    ds.set_columns(&WORKLOAD_THROUGHPUT_COLUMNS);
    ds.push_row(item.label.clone(), vec![flows, r.commodities as f64, r.normalized]);
    ItemResult::new(item.index, ds)
}

// -------------------------------------------------- throughput_vs_workload

/// The default workload axis of [`ThroughputVsWorkload`].
const THROUGHPUT_WORKLOADS: [&str; 5] =
    ["permutation", "stride:k=4", "all2all", "hotspot:fraction=0.25", "zipf:s=1.2"];

/// Normalized throughput of one fabric across the registered workload
/// patterns: how much the paper's permutation-only evaluation flatters (or
/// understates) a topology under skewed and structured load.
pub struct ThroughputVsWorkload;

impl Experiment for ThroughputVsWorkload {
    fn name(&self) -> &'static str {
        "throughput_vs_workload"
    }

    fn describe(&self) -> &'static str {
        "Normalized throughput across workload patterns (generic, --traffic)"
    }

    fn supports_topo_override(&self) -> bool {
        true
    }

    fn supports_traffic_override(&self) -> bool {
        true
    }

    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem> {
        workload_items(ctx, &THROUGHPUT_WORKLOADS)
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        throughput_row(ctx, item)
    }
}

// ----------------------------------------------------- fairness_under_skew

/// The Zipf skew exponents [`FairnessUnderSkew`] sweeps per scale.
fn skew_axis(scale: Scale) -> &'static [&'static str] {
    match scale {
        Scale::Paper => {
            &["zipf:s=0.25", "zipf:s=0.5", "zipf:s=1", "zipf:s=1.5", "zipf:s=2", "zipf:s=3"]
        }
        Scale::Laptop => &["zipf:s=0.5", "zipf:s=1", "zipf:s=1.5", "zipf:s=2"],
        Scale::Tiny => &["zipf:s=0.5", "zipf:s=1.2", "zipf:s=2"],
    }
}

/// Column headers of the `fairness_under_skew` table.
pub(crate) const FAIRNESS_COLUMNS: [&str; 4] =
    ["workload", "flows", "jain_index", "mean_throughput"];

/// Per-connection fairness (Jain's index over the max-min fluid allocation)
/// as destination skew grows: rack-level Zipf workloads concentrate load on
/// few ToRs, and the fluid allocation shows who starves.
pub struct FairnessUnderSkew;

impl Experiment for FairnessUnderSkew {
    fn name(&self) -> &'static str {
        "fairness_under_skew"
    }

    fn describe(&self) -> &'static str {
        "Jain fairness of max-min allocations vs workload skew (--traffic)"
    }

    fn supports_topo_override(&self) -> bool {
        true
    }

    fn supports_traffic_override(&self) -> bool {
        true
    }

    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem> {
        workload_items(ctx, skew_axis(ctx.run.scale))
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        let mut ds = Dataset::new();
        let (snap, servers, stream) = resolve(ctx, item, &mut ds);
        let conns = build_connections(
            &snap.csr,
            &servers,
            stream,
            RoutingScheme::ksp8(),
            TransportPolicy::Mptcp { subflows: 8 },
            ctx.run.seed ^ item.index as u64,
        );
        let report = max_min_fair_allocation(&conns);
        let jain = jain_fairness_index(&report.throughputs);
        ds.set_columns(&FAIRNESS_COLUMNS);
        ds.push_row(item.label.clone(), vec![conns.len() as f64, jain, report.mean_throughput()]);
        ItemResult::new(item.index, ds)
    }
}

// ------------------------------------------------------ incast_degradation

/// The incast fan-in degrees [`IncastDegradation`] sweeps per scale (all
/// well under the smallest default fabric's server count).
fn incast_axis(scale: Scale) -> &'static [&'static str] {
    match scale {
        Scale::Paper => &[
            "incast:fanin=2,targets=4",
            "incast:fanin=8,targets=4",
            "incast:fanin=32,targets=4",
            "incast:fanin=64,targets=4",
        ],
        Scale::Laptop => &[
            "incast:fanin=2,targets=4",
            "incast:fanin=4,targets=4",
            "incast:fanin=8,targets=4",
            "incast:fanin=16,targets=4",
        ],
        Scale::Tiny => {
            &["incast:fanin=2,targets=4", "incast:fanin=4,targets=4", "incast:fanin=8,targets=4"]
        }
    }
}

/// Normalized throughput as incast fan-in grows: many-to-one traffic
/// concentrates demand on single ToR downlinks, the regime where fabric-side
/// capacity stops helping.
pub struct IncastDegradation;

impl Experiment for IncastDegradation {
    fn name(&self) -> &'static str {
        "incast_degradation"
    }

    fn describe(&self) -> &'static str {
        "Normalized throughput vs incast fan-in (generic, --traffic)"
    }

    fn supports_topo_override(&self) -> bool {
        true
    }

    fn supports_traffic_override(&self) -> bool {
        true
    }

    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem> {
        workload_items(ctx, incast_axis(ctx.run.scale))
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        throughput_row(ctx, item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{find, RunSpec};

    #[test]
    fn workload_axis_collapses_under_an_override() {
        let run = RunSpec::new(Scale::Tiny, 7);
        let exp = find("throughput_vs_workload").unwrap();
        assert_eq!(exp.work_items(&RunCtx::new(run.clone())).len(), THROUGHPUT_WORKLOADS.len());
        let ctx = RunCtx::new(run.with_traffic("stride:k=3".parse().unwrap()));
        let items = exp.work_items(&ctx);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].traffic().to_string(), "stride:k=3");
    }

    #[test]
    fn throughput_vs_workload_produces_one_row_per_workload() {
        let ctx = RunCtx::new(RunSpec::new(Scale::Tiny, 7));
        let ds = find("throughput_vs_workload").unwrap().run(&ctx);
        assert_eq!(ds.rows.len(), THROUGHPUT_WORKLOADS.len());
        assert_eq!(ds.columns, WORKLOAD_THROUGHPUT_COLUMNS);
        for row in &ds.rows {
            assert!(row.values[0] > 0.0, "{}: no flows", row.label);
            assert!(
                row.values[2] > 0.0 && row.values[2] <= 1.0 + 1e-9,
                "{}: throughput {}",
                row.label,
                row.values[2]
            );
        }
        // The permutation row is present and labelled by its spec string.
        assert!(ds.rows.iter().any(|r| r.label == "permutation"));
    }

    #[test]
    fn fairness_degrades_with_skew() {
        let ctx = RunCtx::new(RunSpec::new(Scale::Tiny, 7));
        let ds = find("fairness_under_skew").unwrap().run(&ctx);
        assert_eq!(ds.rows.len(), skew_axis(Scale::Tiny).len());
        for row in &ds.rows {
            let jain = row.values[1];
            assert!(jain > 0.0 && jain <= 1.0 + 1e-9, "{}: jain {jain}", row.label);
        }
        // Heavier skew cannot be fairer than the lightest by a wide margin.
        let first = ds.rows.first().unwrap().values[1];
        let last = ds.rows.last().unwrap().values[1];
        assert!(last <= first + 0.05, "jain rose with skew: {first} -> {last}");
    }

    #[test]
    fn incast_throughput_is_monotone_non_increasing_in_fanin() {
        let ctx = RunCtx::new(RunSpec::new(Scale::Tiny, 7));
        let ds = find("incast_degradation").unwrap().run(&ctx);
        let tputs: Vec<f64> = ds.rows.iter().map(|r| r.values[2]).collect();
        assert_eq!(tputs.len(), incast_axis(Scale::Tiny).len());
        for pair in tputs.windows(2) {
            assert!(pair[1] <= pair[0] + 0.05, "throughput rose with fan-in: {tputs:?}");
        }
    }
}
