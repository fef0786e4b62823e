//! Topology-generic metric sweeps: throughput, path length, bisection and
//! failure resilience for *any* [`TopoSpec`], not just the paper's pairings.
//!
//! These four experiments are the consumers of the `--topo <spec>` override
//! ([`RunSpec::topo`](super::RunSpec::topo)): without an override they sweep a default
//! Jellyfish axis sized by [`Scale`]; with one they evaluate the given spec
//! instead — `figures run throughput_vs_size --topo leafspine:leaf=6,spine=3,servers=4`
//! points the whole pipeline at a leaf-spine Clos with zero code changes.
//! Every dataset records the spec strings it evaluated in its metadata, so
//! the provenance travels with the numbers through shards and merges.

use super::catalog::{jellyfish_spec, resolve, sweep_opts};
use super::{Dataset, Experiment, ItemResult, RunCtx, WorkItem};
use crate::figures::Scale;
use crate::service::{ChurnEvent, Query, Reply};
use jellyfish_flow::bisection::min_bisection_heuristic;
use jellyfish_flow::throughput::normalized_throughput;
use jellyfish_topology::properties::path_length_stats;
use jellyfish_topology::spec::ScenarioTransform;
use jellyfish_topology::TopoSpec;
use jellyfish_traffic::ServerMap;

/// Records the `--traffic` override in the dataset's provenance metadata.
/// Only overridden runs get the `traffic` key, so default-workload outputs
/// stay byte-identical to builds that predate the override.
pub(crate) fn record_traffic_meta(ctx: &RunCtx, ds: &mut Dataset) {
    if let Some(spec) = &ctx.run.traffic {
        ds.push_meta("traffic", spec.to_string());
    }
}

/// The default topology axis: Jellyfish instances of increasing size at the
/// run's scale. Replaced wholesale by the `--topo` override.
fn default_axis(ctx: &RunCtx) -> Vec<(String, TopoSpec)> {
    if let Some(spec) = &ctx.run.topo {
        return vec![(spec.to_string(), spec.clone())];
    }
    let (ports, degree) = match ctx.run.scale {
        Scale::Paper => (12, 9),
        Scale::Laptop => (10, 7),
        Scale::Tiny => (8, 5),
    };
    let sizes: &[usize] = match ctx.run.scale {
        Scale::Paper => &[100, 200, 400, 800],
        Scale::Laptop => &[40, 80, 160],
        Scale::Tiny => &[16, 24],
    };
    sizes.iter().map(|&n| (format!("n={n}"), jellyfish_spec(n, ports, degree))).collect()
}

fn axis_items(ctx: &RunCtx) -> Vec<WorkItem> {
    default_axis(ctx)
        .into_iter()
        .enumerate()
        .map(|(i, (label, spec))| WorkItem::with_spec(i, label, spec))
        .collect()
}

// ------------------------------------------------------- throughput_vs_size

/// Normalized random-permutation throughput versus topology size, for any
/// spec.
pub struct ThroughputVsSize;

impl Experiment for ThroughputVsSize {
    fn name(&self) -> &'static str {
        "throughput_vs_size"
    }

    fn describe(&self) -> &'static str {
        "Normalized throughput vs size for any --topo spec (generic sweep)"
    }

    fn supports_topo_override(&self) -> bool {
        true
    }

    fn supports_traffic_override(&self) -> bool {
        true
    }

    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem> {
        axis_items(ctx)
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        let mut ds = Dataset::new();
        let snap = resolve(ctx, item, ctx.run.seed, &mut ds);
        record_traffic_meta(ctx, &mut ds);
        let servers = ServerMap::new(&snap.topology);
        let workload = ctx.workload(&servers, ctx.run.seed ^ item.index as u64);
        let r = normalized_throughput(&snap.topology, &servers, workload, sweep_opts());
        ds.push_point("Normalized throughput", snap.topology.total_servers() as f64, r.normalized);
        ItemResult::new(item.index, ds)
    }
}

// ------------------------------------------------------------- path_length

/// Column headers of the `path_length` table.
pub(crate) const PATH_LENGTH_COLUMNS: [&str; 5] =
    ["topology", "switches", "servers", "mean_path_length", "diameter"];

/// Switch-to-switch path-length statistics for any spec.
pub struct PathLength;

impl Experiment for PathLength {
    fn name(&self) -> &'static str {
        "path_length"
    }

    fn describe(&self) -> &'static str {
        "Mean path length and diameter for any --topo spec (generic sweep)"
    }

    fn supports_topo_override(&self) -> bool {
        true
    }

    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem> {
        axis_items(ctx)
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        let mut ds = Dataset::new();
        let snap = resolve(ctx, item, ctx.run.seed, &mut ds);
        let stats = path_length_stats(&snap.csr);
        ds.set_columns(&PATH_LENGTH_COLUMNS);
        ds.push_row(
            item.label.clone(),
            vec![
                snap.topology.num_switches() as f64,
                snap.topology.total_servers() as f64,
                stats.mean,
                stats.diameter as f64,
            ],
        );
        ItemResult::new(item.index, ds)
    }
}

// --------------------------------------------------------------- bisection

/// Column headers of the `bisection` table.
pub(crate) const BISECTION_COLUMNS: [&str; 5] =
    ["topology", "switches", "servers", "crossing_links", "normalized_bisection"];

/// Kernighan-Lin heuristic minimum-bisection bandwidth for any spec.
pub struct Bisection;

impl Experiment for Bisection {
    fn name(&self) -> &'static str {
        "bisection"
    }

    fn describe(&self) -> &'static str {
        "KL heuristic bisection bandwidth for any --topo spec (generic sweep)"
    }

    fn supports_topo_override(&self) -> bool {
        true
    }

    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem> {
        axis_items(ctx)
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        let mut ds = Dataset::new();
        let snap = resolve(ctx, item, ctx.run.seed, &mut ds);
        let restarts = ctx.run.scale.pick(8, 4, 2);
        let cut =
            min_bisection_heuristic(&snap.topology, restarts, ctx.run.seed ^ item.index as u64);
        ds.set_columns(&BISECTION_COLUMNS);
        ds.push_row(
            item.label.clone(),
            vec![
                snap.topology.num_switches() as f64,
                snap.topology.total_servers() as f64,
                cut.crossing_links as f64,
                cut.normalized,
            ],
        );
        ItemResult::new(item.index, ds)
    }
}

// ------------------------------------------------------------ failure_sweep

/// The failed-link fractions the failure sweeps evaluate per scale (the
/// impaired sweep shares them, so the two plots line up point for point).
pub(crate) fn failure_fractions(scale: Scale) -> &'static [f64] {
    match scale {
        Scale::Paper => &[0.0, 0.05, 0.10, 0.15, 0.20, 0.25],
        Scale::Laptop => &[0.0, 0.05, 0.10, 0.15, 0.20, 0.25],
        Scale::Tiny => &[0.0, 0.10, 0.20],
    }
}

/// The base topology the failure transforms chain onto: the override, or a
/// scale-sized default Jellyfish.
fn failure_base(ctx: &RunCtx) -> TopoSpec {
    if let Some(spec) = &ctx.run.topo {
        return spec.clone();
    }
    match ctx.run.scale {
        Scale::Paper => jellyfish_spec(160, 12, 9),
        Scale::Laptop => jellyfish_spec(60, 10, 7),
        Scale::Tiny => jellyfish_spec(20, 8, 5),
    }
}

/// Normalized throughput versus fraction of failed links, for any spec: the
/// sweep is the base spec with a `+fail_links=f` transform chained on per
/// item.
pub struct FailureSweep;

impl Experiment for FailureSweep {
    fn name(&self) -> &'static str {
        "failure_sweep"
    }

    fn describe(&self) -> &'static str {
        "Throughput vs failed-link fraction for any --topo spec (generic sweep)"
    }

    fn supports_topo_override(&self) -> bool {
        true
    }

    fn supports_traffic_override(&self) -> bool {
        true
    }

    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem> {
        let base = failure_base(ctx);
        failure_fractions(ctx.run.scale)
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                WorkItem::with_spec(
                    i,
                    format!("fail_links={f}"),
                    base.clone().with_transform(ScenarioTransform::FailLinks(f)),
                )
            })
            .collect()
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        let f = failure_fractions(ctx.run.scale)[item.index];
        let mut ds = Dataset::new();
        let spec = item.spec();
        // The sweep's inner loop runs on the live-session API: the session
        // opens on the base with its whole transform chain applied, the
        // item's `+fail_links=f` transform becomes a churn event, and the
        // measurement a throughput query. Both paths call the same
        // `ScenarioTransform`s with the same seed in the same order, so the
        // output is byte-identical to the snapshot path of the item's spec.
        let mut session = ctx
            .session(&failure_base(ctx), ctx.run.seed)
            .unwrap_or_else(|e| panic!("{}: cannot build '{spec}': {e}", item.label))
            .with_throughput_options(sweep_opts());
        ds.push_meta(format!("topo:{}", item.label), spec.to_string());
        record_traffic_meta(ctx, &mut ds);
        session
            .apply(&ChurnEvent::FailLinks { fraction: f })
            .unwrap_or_else(|e| panic!("{}: churn '{spec}' failed: {e}", item.label));
        let reply = session
            .query(&Query::Throughput { tseed: None })
            .unwrap_or_else(|e| panic!("{}: throughput on '{spec}' failed: {e}", item.label));
        let Reply::Throughput { result } = reply else {
            unreachable!("throughput query answers with a throughput reply")
        };
        ds.push_point("Normalized throughput", f, result.normalized);
        ItemResult::new(item.index, ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::catalog::permutation;
    use crate::experiment::RunSpec;
    use crate::service::TRAFFIC_SEED_XOR;

    #[test]
    fn failure_sweep_under_a_transformed_override_matches_the_snapshot_path() {
        let bare = "jellyfish:switches=16,ports=8,degree=5";
        let specs = [
            bare.to_string(),
            format!("{bare}+fail_switches=0.5"),
            format!("{bare}+expand=4"),
            "fattree:k=4+degrade_uniform=0.1".to_string(),
        ];
        for raw in specs {
            let ctx = RunCtx::new(RunSpec::new(Scale::Tiny, 7).with_topo(raw.parse().unwrap()));
            let ds = FailureSweep.run(&ctx);
            let items = FailureSweep.work_items(&ctx);
            assert_eq!(ds.series[0].points.len(), items.len(), "{raw}");
            for (item, &(f, live)) in items.iter().zip(&ds.series[0].points) {
                let snap = ctx.spec_snapshot(item.spec(), 7).unwrap();
                let servers = ServerMap::new(&snap.topology);
                let workload = permutation(&servers, 7 ^ TRAFFIC_SEED_XOR);
                let offline =
                    normalized_throughput(&snap.topology, &servers, workload, sweep_opts());
                assert_eq!(
                    live.to_bits(),
                    offline.normalized.to_bits(),
                    "{raw} at fail_links={f}: the session and the snapshot disagree"
                );
            }
        }
    }
}
