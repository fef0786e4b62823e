//! The paper's 17 registered experiments: every figure and table of the
//! evaluation, ported onto the [`Experiment`] trait.
//!
//! Each experiment decomposes into the independent items its original
//! serial per-figure loop iterated over (per-configuration, per-size,
//! per-topology, per-fraction, …), and every item derives its randomness
//! from `(scale, seed, item)` exactly as the legacy serial loop did — so
//! the datasets reproduce the historical outputs byte-for-byte (the golden
//! TSVs under `crates/bench/testdata/` enforce it), and any shard partition
//! merges back to the single-process dataset.
//!
//! Topology construction goes through [`TopoSpec`] strings resolved by the
//! generator registry (`jellyfish_topology::spec`): topology-parameterized
//! experiments carry the spec on their [`WorkItem`]s and resolve it with
//! [`RunCtx::spec_snapshot`], recording the spec string in the dataset's
//! metadata. The seeds each spec is built with are chosen to reproduce the
//! legacy constructors bit-for-bit (`crates/core/tests/spec_equivalence.rs`
//! enforces that).

use super::{Dataset, Experiment, ItemResult, RunCtx, Snapshot, WorkItem};
use crate::cabling::two_layer_jellyfish;
use crate::figures::{Scale, Series};
use crate::legup::{run_expansion_comparison, ExpansionScenario};
use crate::metrics::jain_fairness_index;
use jellyfish_flow::bisection::{
    fattree_normalized_bisection, jellyfish_full_bisection_cost, jellyfish_normalized_bisection,
};
use jellyfish_flow::throughput::{normalized_throughput, ThroughputOptions};
use jellyfish_routing::path_table::{PathTable, RoutingScheme};
use jellyfish_sim::engine::SimConfig;
use jellyfish_sim::engine::Simulator;
use jellyfish_sim::fluid::max_min_fair_allocation;
use jellyfish_sim::net::{LinkParams, Network};
use jellyfish_sim::routing::TransportPolicy;
use jellyfish_sim::workload::build_connections;
use jellyfish_topology::degree_diameter::FIGURE3_CONFIGS;
use jellyfish_topology::expansion::grow_schedule;
use jellyfish_topology::fattree::FatTree;
use jellyfish_topology::properties::{
    fraction_of_server_pairs_within, path_length_stats, server_pair_histogram,
};
use jellyfish_topology::spec::ScenarioTransform;
use jellyfish_topology::{TopoSpec, Topology};
use jellyfish_traffic::{switch_demands, FlowStream, ServerMap, TrafficSpec};
use rayon::prelude::*;
use std::sync::Arc;

/// `ThroughputOptions` shared by the "do not stop at full" sweeps.
pub(crate) fn sweep_opts() -> ThroughputOptions {
    ThroughputOptions { stop_at_full: false, epsilon: 0.06 }
}

/// The paper's random-permutation workload, built through the traffic-spec
/// registry, the single construction path. The `permutation` generator runs
/// `TrafficMatrix::random_permutation`, so the flows are those of the eager
/// constructor (`crates/bench/tests/golden_experiments.rs` enforces the
/// bytes).
pub(crate) fn permutation(servers: &ServerMap, seed: u64) -> FlowStream {
    TrafficSpec::permutation()
        .stream(servers, seed)
        .expect("the permutation workload builds on any server map")
}

/// Spec for the paper's homogeneous Jellyfish `RRG(switches, ports, degree)`.
pub(crate) fn jellyfish_spec(switches: usize, ports: usize, degree: usize) -> TopoSpec {
    TopoSpec::new("jellyfish")
        .with_param("switches", switches)
        .with_param("ports", ports)
        .with_param("degree", degree)
}

/// Spec for Jellyfish with `total` servers spread evenly over `switches`
/// switches of `ports` ports (the same-equipment comparisons).
pub(crate) fn jellyfish_total_spec(switches: usize, ports: usize, total: usize) -> TopoSpec {
    TopoSpec::new("jellyfish")
        .with_param("switches", switches)
        .with_param("ports", ports)
        .with_param("servers_total", total)
}

/// Spec for the k-ary fat-tree.
pub(crate) fn fattree_spec(k: usize) -> TopoSpec {
    TopoSpec::new("fattree").with_param("k", k)
}

/// Resolves a work item's spec against the run context with build seed
/// `seed` (the run seed, or the seed the legacy constructor used) and
/// records the spec string in `ds`.
pub(crate) fn resolve(ctx: &RunCtx, item: &WorkItem, seed: u64, ds: &mut Dataset) -> Arc<Snapshot> {
    let spec = item.spec();
    let snap = ctx
        .spec_snapshot(spec, seed)
        .unwrap_or_else(|e| panic!("{}: cannot build '{spec}': {e}", item.label));
    ds.push_meta(format!("topo:{}", item.label), spec.to_string());
    snap
}

// ------------------------------------------------------------------ fig1c

/// Figure 1(c): CDF of server-pair path lengths, Jellyfish vs the
/// same-equipment fat-tree.
pub struct Fig1c;

impl Experiment for Fig1c {
    fn name(&self) -> &'static str {
        "fig1c"
    }

    fn describe(&self) -> &'static str {
        "Path length CDF: Jellyfish vs same-equipment fat-tree (Figure 1c)"
    }

    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem> {
        let k = ctx.run.scale.pick(14, 10, 6);
        let servers = FatTree::servers_for_port_count(k);
        let switches = FatTree::switches_for_port_count(k);
        vec![
            WorkItem::with_spec(0, "jellyfish", jellyfish_total_spec(switches, k, servers)),
            WorkItem::with_spec(1, "fat-tree", fattree_spec(k)),
        ]
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        let label = if item.index == 0 { "Jellyfish" } else { "Fat-tree" };
        let mut ds = Dataset::new();
        let snap = resolve(ctx, item, ctx.run.seed, &mut ds);
        let hist = server_pair_histogram(&snap.topology, &snap.csr);
        let points = (2..=hist.len().max(7))
            .map(|h| (h as f64, fraction_of_server_pairs_within(&hist, h)))
            .collect();
        ds.series.push(Series::new(label, points));
        ItemResult::new(item.index, ds)
    }
}

// ------------------------------------------------------------------ fig2a

/// The `(N, k)` points of Figure 2(a).
const FIG2A_CONFIGS: [(usize, usize); 3] = [(720, 24), (1280, 32), (2880, 48)];

/// Figure 2(a): normalized bisection bandwidth versus servers at equal cost.
/// Closed-form; `scale` and `seed` are accepted for API uniformity but
/// do not affect the result.
pub struct Fig2a;

impl Experiment for Fig2a {
    fn name(&self) -> &'static str {
        "fig2a"
    }

    fn describe(&self) -> &'static str {
        "Bisection bandwidth vs server count at equal cost (Figure 2a)"
    }

    fn work_items(&self, _ctx: &RunCtx) -> Vec<WorkItem> {
        FIG2A_CONFIGS
            .iter()
            .enumerate()
            .map(|(i, (n, k))| WorkItem::new(i, format!("N={n} k={k}")))
            .collect()
    }

    fn run_item(&self, _ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        let (n, k) = FIG2A_CONFIGS[item.index];
        let mut points = Vec::new();
        for servers_per_switch in 1..k {
            let r = k - servers_per_switch;
            let servers = n * servers_per_switch;
            let norm = jellyfish_normalized_bisection(n, k, r);
            if norm.is_finite() {
                points.push((servers as f64, norm));
            }
        }
        let mut ds = Dataset::new();
        ds.series.push(Series::new(format!("Jellyfish; N={n}; k={k}"), points));
        ds.series.push(Series::new(
            format!("Fat-tree; N={n}; k={k}"),
            vec![(FatTree::servers_for_port_count(k) as f64, fattree_normalized_bisection(k))],
        ));
        ItemResult::new(item.index, ds)
    }
}

// ------------------------------------------------------------------ fig2b

/// The port counts of Figure 2(b).
const FIG2B_PORTS: [usize; 4] = [24, 32, 48, 64];

/// Label of the combined fat-tree series of Figure 2(b).
pub(crate) const FIG2B_FATTREE_LABEL: &str = "Fat-tree; {24,32,48,64} ports";

/// Figure 2(b): equipment cost versus servers at full bisection bandwidth.
/// Closed-form; `scale` and `seed` do not affect the result.
pub struct Fig2b;

impl Experiment for Fig2b {
    fn name(&self) -> &'static str {
        "fig2b"
    }

    fn describe(&self) -> &'static str {
        "Equipment cost vs servers at full bisection bandwidth (Figure 2b)"
    }

    fn work_items(&self, _ctx: &RunCtx) -> Vec<WorkItem> {
        FIG2B_PORTS
            .iter()
            .enumerate()
            .map(|(i, k)| WorkItem::new(i, format!("{k} ports")))
            .collect()
    }

    fn run_item(&self, _ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        let k = FIG2B_PORTS[item.index];
        let mut ds = Dataset::new();
        let mut jf_points = Vec::new();
        for servers in (10_000..=80_000).step_by(10_000) {
            if let Some((ports, _)) = jellyfish_full_bisection_cost(servers, k) {
                jf_points.push((servers as f64, ports as f64));
            }
        }
        ds.series.push(Series::new(format!("Jellyfish; {k} ports"), jf_points));
        ds.push_point(
            FIG2B_FATTREE_LABEL,
            FatTree::servers_for_port_count(k) as f64,
            FatTree::ports_for_port_count(k) as f64,
        );
        ItemResult::new(item.index, ds)
    }
}

// ------------------------------------------------------------------ fig2c

fn fig2c_port_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Paper => vec![6, 8, 10, 12, 14],
        Scale::Laptop => vec![6, 8, 10],
        Scale::Tiny => vec![4, 6],
    }
}

/// Figure 2(c): servers supported at full capacity versus equipment cost.
pub struct Fig2c;

impl Experiment for Fig2c {
    fn name(&self) -> &'static str {
        "fig2c"
    }

    fn describe(&self) -> &'static str {
        "Servers at full capacity vs equipment (optimal routing, Figure 2c)"
    }

    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem> {
        fig2c_port_counts(ctx.run.scale)
            .into_iter()
            .enumerate()
            .map(|(i, k)| WorkItem::new(i, format!("k={k}")))
            .collect()
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        let k = fig2c_port_counts(ctx.run.scale)[item.index];
        let switches = FatTree::switches_for_port_count(k);
        let ports = FatTree::ports_for_port_count(k);
        let ft_servers = FatTree::servers_for_port_count(k);
        // Binary search servers for the same equipment.
        let opts = crate::capacity::CapacitySearchOptions {
            probe_samples: if ctx.run.scale == Scale::Paper { 3 } else { 1 },
            verify_samples: if ctx.run.scale == Scale::Paper { 10 } else { 2 },
            throughput: ThroughputOptions::default(),
            seed: ctx.run.seed,
        };
        let result = crate::capacity::servers_at_full_throughput(switches, k, opts);
        let mut ds = Dataset::new();
        ds.push_point("Jellyfish (Optimal routing)", ports as f64, result.servers as f64);
        ds.push_point("Fat-tree (Optimal routing)", ports as f64, ft_servers as f64);
        ItemResult::new(item.index, ds)
    }
}

// ------------------------------------------------------------------- fig3

fn fig3_configs(scale: Scale) -> Vec<(usize, usize, usize)> {
    match scale {
        Scale::Paper => FIGURE3_CONFIGS.to_vec(),
        Scale::Laptop => FIGURE3_CONFIGS[..5].to_vec(),
        Scale::Tiny => vec![(20, 6, 4), (24, 8, 5)],
    }
}

/// Figure 3: Jellyfish versus the best-known degree-diameter graphs.
pub struct Fig3;

impl Experiment for Fig3 {
    fn name(&self) -> &'static str {
        "fig3"
    }

    fn describe(&self) -> &'static str {
        "Throughput vs best-known degree-diameter graphs (Figure 3)"
    }

    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem> {
        fig3_configs(ctx.run.scale)
            .into_iter()
            .enumerate()
            .map(|(i, (n, ports, degree))| {
                WorkItem::new(i, format!("n={n} ports={ports} degree={degree}"))
            })
            .collect()
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        let i = item.index;
        let (n, ports, degree) = fig3_configs(ctx.run.scale)[i];
        let seed = ctx.run.seed;
        // Attach servers so the degree-diameter graph is *not* at full
        // bisection (the paper chooses server counts that keep the
        // benchmark below saturation so its full capacity is visible).
        let servers_per_switch = (ports - degree).min(degree / 2).max(1);
        let dd_spec = TopoSpec::new("dd")
            .with_param("n", n)
            .with_param("ports", ports)
            .with_param("degree", degree)
            .with_param("servers", servers_per_switch);
        let jf_spec = jellyfish_spec(n, ports, degree).with_param("servers", servers_per_switch);
        let opts = sweep_opts();
        let mut ds = Dataset::new();
        // The benchmark builds with the run seed, Jellyfish with the legacy
        // `figure3_pair` derivation (seed ^ 0xF00D).
        for (label, spec, build_seed) in [
            ("Best-known Degree-Diameter Graph", &dd_spec, seed),
            ("Jellyfish", &jf_spec, seed ^ 0xF00D),
        ] {
            let snap = ctx
                .spec_snapshot(spec, build_seed)
                .unwrap_or_else(|e| panic!("fig3: cannot build '{spec}': {e}"));
            ds.push_meta(format!("topo:{label} #{i}"), spec.to_string());
            let servers = ServerMap::new(&snap.topology);
            let workload = permutation(&servers, seed ^ i as u64);
            let r = normalized_throughput(&snap.topology, &servers, workload, opts);
            ds.push_point(label, i as f64, r.normalized);
        }
        ItemResult::new(i, ds)
    }
}

// ------------------------------------------------------------------- fig4

/// The SWDC variants Figure 4 compares against, with their specs.
fn fig4_axis(scale: Scale) -> Vec<(&'static str, TopoSpec)> {
    let nodes = scale.pick(484, 100, 36);
    let hex_nodes = scale.pick(450, 100, 36);
    let swdc = |lattice: &str, n: usize| {
        TopoSpec::new("swdc")
            .with_param("lattice", lattice)
            .with_param("n", n)
            .with_param("servers", 2)
    };
    vec![
        ("Jellyfish", jellyfish_spec(nodes, 8, 6).with_param("servers", 2)),
        ("Small World Ring", swdc("ring", nodes)),
        ("Small World 2D-Torus", swdc("torus2d", nodes)),
        ("Small World 3D-Hex-Torus", swdc("hex3d", hex_nodes)),
    ]
}

/// Figure 4: Jellyfish versus the three SWDC variants at equal equipment.
pub struct Fig4;

impl Experiment for Fig4 {
    fn name(&self) -> &'static str {
        "fig4"
    }

    fn describe(&self) -> &'static str {
        "Throughput vs small-world datacenter variants (Figure 4)"
    }

    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem> {
        fig4_axis(ctx.run.scale)
            .into_iter()
            .enumerate()
            .map(|(i, (label, spec))| WorkItem::with_spec(i, label, spec))
            .collect()
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        let seed = ctx.run.seed;
        let mut ds = Dataset::new();
        let snap = resolve(ctx, item, seed, &mut ds);
        let servers = ServerMap::new(&snap.topology);
        let workload = permutation(&servers, seed ^ 0xF4);
        let r = normalized_throughput(&snap.topology, &servers, workload, sweep_opts());
        ds.push_cell(&item.label, r.normalized);
        ItemResult::new(item.index, ds)
    }
}

// ------------------------------------------------------------------- fig5

fn fig5_params(scale: Scale) -> (usize, usize, Vec<usize>) {
    let (ports, degree) = match scale {
        Scale::Paper => (48usize, 36usize),
        Scale::Laptop => (24, 18),
        Scale::Tiny => (12, 9),
    };
    let sizes: Vec<usize> = match scale {
        Scale::Paper => vec![100, 400, 800, 1600, 2400, 3200],
        Scale::Laptop => vec![50, 100, 200, 400],
        Scale::Tiny => vec![20, 40],
    };
    (ports, degree, sizes)
}

/// Figure 5: mean path length and diameter versus size, from-scratch versus
/// incrementally expanded.
pub struct Fig5;

impl Experiment for Fig5 {
    fn name(&self) -> &'static str {
        "fig5"
    }

    fn describe(&self) -> &'static str {
        "Path length and diameter vs size, scratch vs expanded (Figure 5)"
    }

    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem> {
        let (ports, degree, sizes) = fig5_params(ctx.run.scale);
        let mut items: Vec<WorkItem> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                WorkItem::with_spec(i, format!("scratch n={n}"), jellyfish_spec(n, ports, degree))
            })
            .collect();
        // Growth is inherently sequential: the whole expanded arc is one item.
        items.push(WorkItem::new(sizes.len(), "expanded growth arc"));
        items
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        let (ports, degree, sizes) = fig5_params(ctx.run.scale);
        let servers_per = ports - degree;
        let seed = ctx.run.seed;
        let mut ds = Dataset::new();
        if item.index < sizes.len() {
            let snap = resolve(ctx, item, seed, &mut ds);
            let stats = path_length_stats(&snap.csr);
            let x = (sizes[item.index] * servers_per) as f64;
            ds.push_point("Jellyfish; Mean", x, stats.mean);
            ds.push_point("Jellyfish; Diameter", x, stats.diameter as f64);
        } else {
            // Incremental: grow from the smallest size to the largest in steps.
            let first = sizes[0];
            let last = *sizes.last().unwrap();
            let step = ((last - first) / (sizes.len().max(2) - 1)).max(1);
            let stages = grow_schedule(first, last, step, ports, degree, seed ^ 0xE).unwrap();
            for stage in &stages {
                let stats = path_length_stats(&stage.csr());
                let x = stage.total_servers() as f64;
                ds.push_point("Expanded Jellyfish; Mean", x, stats.mean);
                ds.push_point("Expanded Jellyfish; Diameter", x, stats.diameter as f64);
            }
        }
        ItemResult::new(item.index, ds)
    }
}

// ------------------------------------------------------------------- fig6

fn fig6_schedule(scale: Scale) -> (usize, usize, usize) {
    match scale {
        Scale::Paper => (20usize, 160usize, 20usize),
        Scale::Laptop => (20, 80, 20),
        Scale::Tiny => (10, 30, 10),
    }
}

/// Figure 6: incrementally grown versus from-scratch throughput.
pub struct Fig6;

impl Experiment for Fig6 {
    fn name(&self) -> &'static str {
        "fig6"
    }

    fn describe(&self) -> &'static str {
        "Incremental growth vs from-scratch throughput (Figure 6)"
    }

    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem> {
        let (start, end, step) = fig6_schedule(ctx.run.scale);
        let stages = 1 + (end - start).div_ceil(step);
        (0..stages).map(|i| WorkItem::new(i, format!("stage {i}"))).collect()
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        let (start, end, step) = fig6_schedule(ctx.run.scale);
        let seed = ctx.run.seed;
        // Growing the schedule is cheap (topology construction only); the
        // throughput evaluations below dominate, so each item regrows the
        // arc and evaluates its own stage.
        let stages = grow_schedule(start, end, step, 12, 8, seed).unwrap();
        let stage = &stages[item.index];
        let opts = sweep_opts();
        let servers = ServerMap::new(stage);
        let workload = permutation(&servers, seed ^ stage.num_switches() as u64);
        let r = normalized_throughput(stage, &servers, workload, opts);

        let fresh_spec = jellyfish_spec(stage.num_switches(), 12, 8);
        let fresh = fresh_spec
            .build(seed ^ 0xABC ^ stage.num_switches() as u64)
            .expect("fresh jellyfish spec builds");
        let servers_f = ServerMap::new(&fresh);
        let workload_f = permutation(&servers_f, seed ^ stage.num_switches() as u64);
        let rf = normalized_throughput(&fresh, &servers_f, workload_f, opts);
        let mut ds = Dataset::new();
        ds.push_meta(format!("topo:from-scratch stage {}", item.index), fresh_spec.to_string());
        ds.push_point("Jellyfish (Incremental)", stage.total_servers() as f64, r.normalized);
        ds.push_point("Jellyfish (From Scratch)", fresh.total_servers() as f64, rf.normalized);
        ItemResult::new(item.index, ds)
    }
}

// ------------------------------------------------------------------- fig7

/// Column headers of the Figure 7 table.
pub(crate) const FIG7_COLUMNS: [&str; 5] =
    ["stage", "cumulative_budget", "jellyfish_bisection", "clos_bisection", "servers"];

/// Figure 7: the LEGUP-style expansion comparison.
pub struct Fig7;

impl Experiment for Fig7 {
    fn name(&self) -> &'static str {
        "fig7"
    }

    fn describe(&self) -> &'static str {
        "LEGUP-style expansion: bisection bandwidth per budget (Figure 7)"
    }

    fn work_items(&self, _ctx: &RunCtx) -> Vec<WorkItem> {
        // The expansion arc is stateful stage over stage: one item.
        vec![WorkItem::new(0, "expansion arc")]
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        let seed = ctx.run.seed;
        let scenario = match ctx.run.scale {
            Scale::Paper => ExpansionScenario { seed, ..Default::default() },
            Scale::Laptop => ExpansionScenario {
                initial_servers: 240,
                first_expansion_servers: 120,
                stages: 6,
                initial_budget: 120_000.0,
                stage_budget: 60_000.0,
                ports: 24,
                servers_per_switch: 16,
                seed,
                ..Default::default()
            },
            Scale::Tiny => ExpansionScenario {
                initial_servers: 96,
                first_expansion_servers: 48,
                stages: 3,
                initial_budget: 40_000.0,
                stage_budget: 20_000.0,
                ports: 12,
                servers_per_switch: 8,
                seed,
                ..Default::default()
            },
        };
        let stages = run_expansion_comparison(scenario).expect("expansion scenario is feasible");
        let mut ds = Dataset::new();
        ds.set_columns(&FIG7_COLUMNS);
        for (i, s) in stages.iter().enumerate() {
            ds.push_row(
                format!("{i}"),
                vec![
                    s.cumulative_budget,
                    s.jellyfish_bisection,
                    s.clos_bisection,
                    s.servers as f64,
                ],
            );
        }
        ItemResult::new(item.index, ds)
    }
}

// ------------------------------------------------------------------- fig8

/// The failed-link fractions of Figure 8.
const FIG8_FRACTIONS: [f64; 6] = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25];

/// Figure 8: throughput versus fraction of failed links. The work items are
/// the cross product of two base topology specs and the failure fractions,
/// expressed as `+fail_links=f` transform chains.
pub struct Fig8;

fn fig8_bases(scale: Scale) -> [(&'static str, TopoSpec); 2] {
    let k = scale.pick(12, 8, 6);
    // Fat-tree with its native server count; Jellyfish with ~25% more
    // servers on the same switches (the paper: 544 vs 432).
    let jf_servers = FatTree::servers_for_port_count(k) * 5 / 4;
    [
        ("jellyfish", jellyfish_total_spec(FatTree::switches_for_port_count(k), k, jf_servers)),
        ("fat-tree", fattree_spec(k)),
    ]
}

impl Experiment for Fig8 {
    fn name(&self) -> &'static str {
        "fig8"
    }

    fn describe(&self) -> &'static str {
        "Throughput vs fraction of failed links (Figure 8)"
    }

    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem> {
        let mut items = Vec::new();
        for (t, (name, base)) in fig8_bases(ctx.run.scale).into_iter().enumerate() {
            for (fi, &f) in FIG8_FRACTIONS.iter().enumerate() {
                items.push(WorkItem::with_spec(
                    t * FIG8_FRACTIONS.len() + fi,
                    format!("{name} f={f}"),
                    base.clone().with_transform(ScenarioTransform::FailLinks(f)),
                ));
            }
        }
        items
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        let seed = ctx.run.seed;
        let topo_idx = item.index / FIG8_FRACTIONS.len();
        let f = FIG8_FRACTIONS[item.index % FIG8_FRACTIONS.len()];
        let mut ds = Dataset::new();
        let snap = resolve(ctx, item, seed, &mut ds);
        let label = if topo_idx == 0 {
            format!("Jellyfish ({} Servers)", snap.topology.total_servers())
        } else {
            format!("Fat-tree ({} Servers)", snap.topology.total_servers())
        };
        let servers = ServerMap::new(&snap.topology);
        let workload = permutation(&servers, seed ^ 0x8);
        let r = normalized_throughput(&snap.topology, &servers, workload, sweep_opts());
        ds.push_point(&label, f, r.normalized);
        ItemResult::new(item.index, ds)
    }
}

// ------------------------------------------------------------------- fig9

/// Figure 9: ranked per-link path counts under ECMP and k-shortest-paths.
pub struct Fig9;

impl Experiment for Fig9 {
    fn name(&self) -> &'static str {
        "fig9"
    }

    fn describe(&self) -> &'static str {
        "Ranked per-link distinct path counts, ECMP vs 8-KSP (Figure 9)"
    }

    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem> {
        let switches = ctx.run.scale.pick(245, 80, 25);
        let ports = ctx.run.scale.pick(14, 10, 8);
        let degree = ctx.run.scale.pick(11, 7, 5);
        let spec = jellyfish_spec(switches, ports, degree);
        ["ksp8", "ecmp64", "ecmp8"]
            .iter()
            .enumerate()
            .map(|(i, s)| WorkItem::with_spec(i, *s, spec.clone()))
            .collect()
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        let seed = ctx.run.seed;
        let mut ds = Dataset::new();
        let snap = resolve(ctx, item, seed, &mut ds);
        let servers = ServerMap::new(&snap.topology);
        let demands = switch_demands(permutation(&servers, seed ^ 0x9), &servers);
        let pairs: Vec<(usize, usize)> = demands.into_iter().map(|(s, d, _)| (s, d)).collect();
        let scheme = match item.index {
            0 => RoutingScheme::ksp8(),
            1 => RoutingScheme::ecmp64(),
            _ => RoutingScheme::ecmp8(),
        };
        let table = PathTable::build(&snap.csr, scheme, pairs.iter().copied());
        let ranked = table.ranked_link_path_counts(&snap.csr);
        let points =
            ranked.iter().enumerate().map(|(rank, &count)| (rank as f64, count as f64)).collect();
        ds.series.push(Series::new(scheme.label(), points));
        ItemResult::new(item.index, ds)
    }
}

// ------------------------------------------------------------------ table1

/// Column headers of the Table 1 matrix.
pub(crate) const TABLE1_COLUMNS: [&str; 4] =
    ["congestion_control", "fat-tree ECMP", "jellyfish ECMP", "jellyfish 8-KSP"];

fn table1_transports() -> [TransportPolicy; 3] {
    [
        TransportPolicy::Tcp { flows: 1 },
        TransportPolicy::Tcp { flows: 8 },
        TransportPolicy::Mptcp { subflows: 8 },
    ]
}

/// One cell of Table 1: mean normalized per-server throughput for a
/// topology, routing scheme and transport policy, from the packet-level
/// engine.
pub fn table1_cell(
    topo: &Topology,
    scheme: RoutingScheme,
    transport: TransportPolicy,
    seed: u64,
    duration: f64,
) -> f64 {
    let servers = ServerMap::new(topo);
    let csr = topo.csr();
    let workload = permutation(&servers, seed);
    let conns = build_connections(&csr, &servers, workload, scheme, transport, seed);
    let net = Network::build(&csr, &servers, LinkParams::default());
    let config = SimConfig { duration, warmup: duration * 0.25, seed };
    Simulator::new(net, conns, config).run().mean_throughput()
}

/// Table 1: the routing × congestion-control matrix from the packet engine.
pub struct Table1;

impl Experiment for Table1 {
    fn name(&self) -> &'static str {
        "table1"
    }

    fn describe(&self) -> &'static str {
        "Routing x congestion-control throughput matrix (Table 1)"
    }

    fn work_items(&self, _ctx: &RunCtx) -> Vec<WorkItem> {
        table1_transports().iter().enumerate().map(|(i, t)| WorkItem::new(i, t.label())).collect()
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        let k = ctx.run.scale.pick(14, 8, 6);
        let seed = ctx.run.seed;
        let duration = match ctx.run.scale {
            Scale::Paper => 20.0,
            Scale::Laptop => 8.0,
            Scale::Tiny => 4.0,
        };
        let ft_spec = fattree_spec(k);
        // Jellyfish with ~13% more servers (the paper compares 780 vs 686).
        let jf_servers = FatTree::servers_for_port_count(k) * 9 / 8;
        let jf_spec = jellyfish_total_spec(FatTree::switches_for_port_count(k), k, jf_servers);
        let ft = ctx.spec_snapshot(&ft_spec, seed).expect("fat-tree spec builds");
        let jf = ctx.spec_snapshot(&jf_spec, seed).expect("jellyfish spec builds");
        let t = table1_transports()[item.index];
        // The three cells of one row are independent simulations.
        let cells: Vec<f64> = vec![
            (&ft.topology, RoutingScheme::ecmp8()),
            (&jf.topology, RoutingScheme::ecmp8()),
            (&jf.topology, RoutingScheme::ksp8()),
        ]
        .into_par_iter()
        .map(|(topo, policy)| table1_cell(topo, policy, t, seed, duration))
        .collect();
        let mut ds = Dataset::new();
        ds.push_meta("topo:fat-tree", ft_spec.to_string());
        ds.push_meta("topo:jellyfish", jf_spec.to_string());
        ds.set_columns(&TABLE1_COLUMNS);
        ds.push_row(t.label(), cells);
        ItemResult::new(item.index, ds)
    }
}

// ------------------------------------------------------------------ fig10

/// Column headers of the Figure 10 table.
pub(crate) const FIG10_COLUMNS: [&str; 4] = ["config", "servers", "optimal", "packet_level"];

fn fig10_sizes(scale: Scale) -> Vec<(usize, usize, usize)> {
    match scale {
        // (switches, ports, degree), slightly oversubscribed as in the paper.
        Scale::Paper => vec![(25, 9, 6), (55, 9, 6), (112, 9, 6), (200, 9, 6), (320, 9, 6)],
        Scale::Laptop => vec![(20, 9, 6), (40, 9, 6), (80, 9, 6)],
        Scale::Tiny => vec![(12, 9, 6), (20, 9, 6)],
    }
}

/// Figure 10: packet-level (MPTCP over 8-KSP) versus optimal throughput.
pub struct Fig10;

impl Experiment for Fig10 {
    fn name(&self) -> &'static str {
        "fig10"
    }

    fn describe(&self) -> &'static str {
        "Packet-level vs optimal (flow-solver) throughput (Figure 10)"
    }

    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem> {
        fig10_sizes(ctx.run.scale)
            .into_iter()
            .enumerate()
            .map(|(i, (n, ports, degree))| {
                WorkItem::with_spec(i, format!("n={n}"), jellyfish_spec(n, ports, degree))
            })
            .collect()
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        let i = item.index;
        let (n, _, _) = fig10_sizes(ctx.run.scale)[i];
        let seed = ctx.run.seed;
        let mut ds = Dataset::new();
        // Per-size seed derivation from the legacy loop: seed ^ i.
        let snap = resolve(ctx, item, seed ^ i as u64, &mut ds);
        let topo = &snap.topology;
        let servers = ServerMap::new(topo);
        // The solver and the simulator see the same permutation, built once
        // for each from the same seed.
        let traffic_seed = seed ^ (i as u64) << 4;
        let workload = permutation(&servers, traffic_seed);
        let optimal = normalized_throughput(topo, &servers, workload, sweep_opts()).normalized;
        let conns = build_connections(
            &snap.csr,
            &servers,
            permutation(&servers, traffic_seed),
            RoutingScheme::ksp8(),
            TransportPolicy::Mptcp { subflows: 8 },
            seed,
        );
        // The fluid engine is the packet proxy beyond the packet engine's reach.
        let packet_proxy = if n <= 60 {
            let net = Network::build(&snap.csr, &servers, LinkParams::default());
            let cfg = SimConfig { duration: 6.0, warmup: 1.5, seed };
            Simulator::new(net, conns, cfg).run().mean_throughput()
        } else {
            max_min_fair_allocation(&conns).mean_throughput()
        };
        ds.set_columns(&FIG10_COLUMNS);
        ds.push_row(format!("n={n}"), vec![topo.total_servers() as f64, optimal, packet_proxy]);
        ItemResult::new(i, ds)
    }
}

// ------------------------------------------------------------- fig11/fig12

/// Column headers of the Figure 11/12 table.
pub(crate) const FIG11_COLUMNS: [&str; 6] = [
    "config",
    "equipment_ports",
    "fattree_servers",
    "fattree_throughput",
    "jellyfish_servers",
    "jellyfish_throughput",
];

fn fig11_port_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Paper => vec![8, 10, 12, 14],
        Scale::Laptop => vec![6, 8, 10],
        Scale::Tiny => vec![4, 6],
    }
}

fn fluid_throughput(
    topo: &Topology,
    scheme: RoutingScheme,
    transport: TransportPolicy,
    seed: u64,
) -> f64 {
    let servers = ServerMap::new(topo);
    let workload = permutation(&servers, seed ^ 0x11);
    let conns = build_connections(&topo.csr(), &servers, workload, scheme, transport, seed);
    max_min_fair_allocation(&conns).mean_throughput()
}

fn fig11_12_work_items(scale: Scale) -> Vec<WorkItem> {
    fig11_port_counts(scale)
        .into_iter()
        .enumerate()
        .map(|(i, k)| WorkItem::with_spec(i, format!("k={k}"), fattree_spec(k)))
        .collect()
}

fn fig11_12_run_item(ctx: &RunCtx, item: &WorkItem) -> ItemResult {
    let k = fig11_port_counts(ctx.run.scale)[item.index];
    let seed = ctx.run.seed;
    let mut ds = Dataset::new();
    let ft = resolve(ctx, item, seed, &mut ds);
    let ft = &ft.topology;
    let ft_tp =
        fluid_throughput(ft, RoutingScheme::ecmp8(), TransportPolicy::Mptcp { subflows: 8 }, seed);
    // Find the largest Jellyfish server count whose fluid throughput is at
    // least the fat-tree's.
    let switches = FatTree::switches_for_port_count(k);
    let ft_servers = FatTree::servers_for_port_count(k);
    let mut lo = ft_servers;
    let mut hi = switches * (k - 1);
    let feasible = |servers: usize| -> bool {
        jellyfish_total_spec(switches, k, servers)
            .build(seed)
            .map(|jf| {
                fluid_throughput(
                    &jf,
                    RoutingScheme::ksp8(),
                    TransportPolicy::Mptcp { subflows: 8 },
                    seed,
                ) >= ft_tp - 1e-9
            })
            .unwrap_or(false)
    };
    ds.set_columns(&FIG11_COLUMNS);
    if !feasible(lo) {
        ds.push_row(
            format!("k={k}"),
            vec![ft.total_ports() as f64, ft_servers as f64, ft_tp, ft_servers as f64, ft_tp],
        );
        return ItemResult::new(item.index, ds);
    }
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if feasible(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let jf = jellyfish_total_spec(switches, k, lo).build(seed).unwrap();
    let jf_tp =
        fluid_throughput(&jf, RoutingScheme::ksp8(), TransportPolicy::Mptcp { subflows: 8 }, seed);
    ds.push_row(
        format!("k={k}"),
        vec![ft.total_ports() as f64, ft_servers as f64, ft_tp, lo as f64, jf_tp],
    );
    ItemResult::new(item.index, ds)
}

/// Figure 11: servers supported at the fat-tree's packet-level throughput.
pub struct Fig11;

impl Experiment for Fig11 {
    fn name(&self) -> &'static str {
        "fig11"
    }

    fn describe(&self) -> &'static str {
        "Servers at the fat-tree's packet-level throughput (Figure 11)"
    }

    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem> {
        fig11_12_work_items(ctx.run.scale)
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        fig11_12_run_item(ctx, item)
    }
}

/// Figure 12: the throughput-stability view of the Figure 11 sweep (same
/// data, read per equipment point rather than as a capacity curve).
pub struct Fig12;

impl Experiment for Fig12 {
    fn name(&self) -> &'static str {
        "fig12"
    }

    fn describe(&self) -> &'static str {
        "Throughput stability of the Figure 11 sweep (Figure 12)"
    }

    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem> {
        fig11_12_work_items(ctx.run.scale)
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        fig11_12_run_item(ctx, item)
    }
}

// ------------------------------------------------------------------ fig13

/// Prefix of the Jain-index cells of Figure 13: each topology's index cell
/// is named `jain_index/<series label>`.
pub const FIG13_JAIN_PREFIX: &str = "jain_index/";

/// Figure 13: per-flow throughput distribution and Jain's fairness index.
pub struct Fig13;

impl Experiment for Fig13 {
    fn name(&self) -> &'static str {
        "fig13"
    }

    fn describe(&self) -> &'static str {
        "Per-flow throughput distribution and Jain fairness (Figure 13)"
    }

    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem> {
        let k = ctx.run.scale.pick(14, 8, 6);
        let jf_servers = FatTree::servers_for_port_count(k) * 9 / 8;
        vec![
            WorkItem::with_spec(
                0,
                "jellyfish",
                jellyfish_total_spec(FatTree::switches_for_port_count(k), k, jf_servers),
            ),
            WorkItem::with_spec(1, "fat-tree", fattree_spec(k)),
        ]
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        let seed = ctx.run.seed;
        let (label, policy) = if item.index == 0 {
            ("Jellyfish", RoutingScheme::ksp8())
        } else {
            ("Fat-tree", RoutingScheme::ecmp8())
        };
        let mut ds = Dataset::new();
        let snap = resolve(ctx, item, seed, &mut ds);
        let servers = ServerMap::new(&snap.topology);
        let conns = build_connections(
            &snap.csr,
            &servers,
            permutation(&servers, seed ^ 0x13),
            policy,
            TransportPolicy::Mptcp { subflows: 8 },
            seed,
        );
        let report = max_min_fair_allocation(&conns);
        let mut tputs = report.throughputs.clone();
        tputs.sort_by(f64::total_cmp);
        let jain = jain_fairness_index(&tputs);
        let points = tputs.iter().enumerate().map(|(rank, &t)| (rank as f64, t)).collect();
        ds.series.push(Series::new(label, points));
        ds.push_cell(format!("{FIG13_JAIN_PREFIX}{label}"), jain);
        ItemResult::new(item.index, ds)
    }
}

// ------------------------------------------------------------------ fig14

fn fig14_sizes(scale: Scale) -> Vec<(usize, usize, usize, usize)> {
    // (switches, ports, degree, containers).
    match scale {
        Scale::Paper => vec![(40, 10, 6, 4), (75, 11, 6, 5), (120, 12, 6, 6), (140, 13, 6, 7)],
        Scale::Laptop => vec![(40, 10, 6, 4), (80, 11, 6, 4)],
        Scale::Tiny => vec![(24, 9, 6, 3)],
    }
}

/// Figure 14: throughput of the two-layer (container-localized) Jellyfish
/// versus the fraction of in-pod links.
pub struct Fig14;

impl Experiment for Fig14 {
    fn name(&self) -> &'static str {
        "fig14"
    }

    fn describe(&self) -> &'static str {
        "Cable localization: two-layer vs unrestricted Jellyfish (Figure 14)"
    }

    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem> {
        fig14_sizes(ctx.run.scale)
            .into_iter()
            .enumerate()
            .map(|(i, (n, ports, degree, _))| {
                WorkItem::with_spec(i, format!("n={n}"), jellyfish_spec(n, ports, degree))
            })
            .collect()
    }

    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult {
        let (n, ports, degree, containers) = fig14_sizes(ctx.run.scale)[item.index];
        let seed = ctx.run.seed;
        let fractions = [0.0, 0.2, 0.4, 0.5, 0.6, 0.8];
        let opts = sweep_opts();
        let mut ds = Dataset::new();
        // Unrestricted baseline (the spec on the item).
        let base = resolve(ctx, item, seed, &mut ds);
        let base = &base.topology;
        let base_servers = ServerMap::new(base);
        let base_workload = permutation(&base_servers, seed ^ 0x14);
        let base_tp = normalized_throughput(base, &base_servers, base_workload, opts).normalized;
        let points = fractions
            .par_iter()
            .map(|&f| {
                let topo = two_layer_jellyfish(
                    n,
                    ports,
                    degree,
                    containers,
                    f,
                    seed ^ ((f * 10.0) as u64),
                )
                .expect("two-layer construction succeeds");
                let servers = ServerMap::new(&topo);
                let workload = permutation(&servers, seed ^ 0x14);
                let tp = normalized_throughput(&topo, &servers, workload, opts).normalized;
                (f, if base_tp > 0.0 { tp / base_tp } else { 0.0 })
            })
            .collect();
        ds.series.push(Series::new(format!("{} Servers", base.total_servers()), points));
        ItemResult::new(item.index, ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::RunSpec;

    const SEED: u64 = 7;

    fn run(exp: &dyn Experiment, scale: Scale, seed: u64) -> Dataset {
        exp.run(&RunCtx::new(RunSpec::new(scale, seed)))
    }

    #[test]
    fn fig1c_jellyfish_dominates_fat_tree_cdf() {
        let series = run(&Fig1c, Scale::Tiny, SEED).series;
        assert_eq!(series.len(), 2);
        let jf = &series[0];
        let ft = &series[1];
        assert_eq!(jf.label, "Jellyfish");
        // At 5 hops Jellyfish reaches at least as large a fraction of pairs.
        let at5 = |s: &Series| s.points.iter().find(|p| p.0 == 5.0).map(|p| p.1).unwrap_or(1.0);
        assert!(at5(jf) >= at5(ft));
    }

    #[test]
    fn fig2a_jellyfish_curves_are_monotone_decreasing() {
        let series = run(&Fig2a, Scale::Laptop, 0).series;
        assert_eq!(series.len(), 6);
        for s in series.iter().filter(|s| s.label.starts_with("Jellyfish")) {
            for w in s.points.windows(2) {
                assert!(w[1].1 <= w[0].1 + 1e-9, "{}: not decreasing", s.label);
            }
        }
    }

    #[test]
    fn fig2b_costs_grow_with_servers_and_jellyfish_beats_fat_tree() {
        let series = run(&Fig2b, Scale::Laptop, 0).series;
        assert_eq!(series.len(), 5);
        assert!(series.iter().any(|s| s.label.starts_with("Fat-tree")));
        for s in series.iter().filter(|s| s.label.starts_with("Jellyfish")) {
            assert!(!s.points.is_empty(), "{} has no feasible points", s.label);
            for w in s.points.windows(2) {
                assert!(w[1].1 >= w[0].1, "{}: cost not monotone in servers", s.label);
            }
        }
        // The 48-port Jellyfish supports the 48-port fat-tree's server count
        // (27,648) at a lower port cost (linear interpolation between the
        // 20k and 30k sweep points stays below the fat-tree's 138,240 ports).
        let jf48 = series.iter().find(|s| s.label == "Jellyfish; 48 ports").unwrap();
        let below = jf48.points.iter().rfind(|p| p.0 <= 27_648.0).unwrap();
        let cost_per_server = below.1 / below.0;
        let interpolated = cost_per_server * 27_648.0;
        assert!(interpolated < FatTree::ports_for_port_count(48) as f64);
    }

    #[test]
    fn fig4_jellyfish_beats_swdc_variants() {
        let cells = run(&Fig4, Scale::Tiny, SEED).cells;
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].name, "Jellyfish");
        let jf = cells[0].value;
        for c in &cells[1..] {
            assert!(
                jf >= c.value - 0.05,
                "Jellyfish ({jf}) should not lose to {} ({})",
                c.name,
                c.value
            );
        }
    }

    #[test]
    fn fig5_incremental_matches_scratch_path_lengths() {
        let series = run(&Fig5, Scale::Tiny, SEED).series;
        assert_eq!(series.len(), 4);
        let scratch = series.iter().find(|s| s.label == "Jellyfish; Mean").unwrap();
        let grown = series.iter().find(|s| s.label == "Expanded Jellyfish; Mean").unwrap();
        // At the shared largest size, the means are close.
        let s_last = scratch.points.last().unwrap();
        let g_last = grown.points.last().unwrap();
        assert!((s_last.1 - g_last.1).abs() < 0.25, "scratch {} vs grown {}", s_last.1, g_last.1);
    }

    #[test]
    fn fig9_ksp_spreads_paths_more_than_ecmp() {
        let series = run(&Fig9, Scale::Tiny, SEED).series;
        assert_eq!(series.len(), 3);
        let total = |s: &Series| s.points.iter().map(|p| p.1).sum::<f64>();
        let ksp = series.iter().find(|s| s.label.contains("Shortest")).unwrap();
        let ecmp8 = series.iter().find(|s| s.label.contains("8-way")).unwrap();
        assert!(total(ksp) > total(ecmp8));
    }

    #[test]
    fn fig14_localization_degrades_gracefully() {
        let series = run(&Fig14, Scale::Tiny, SEED).series;
        assert_eq!(series.len(), 1);
        let points = &series[0].points;
        // Fully random (0.0 local) should be close to the unrestricted value.
        assert!(points[0].1 > 0.8);
        // Values stay in a sane range.
        for &(_, v) in points {
            assert!(v > 0.2 && v <= 1.2, "value {v} out of range");
        }
    }
}
