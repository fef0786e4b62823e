//! Golden-output guard for the hot-kernel rewrites (PERF.md): the registry
//! experiments must render **byte-identical** output before and after any
//! kernel change, seed for seed, in both the single-process and the
//! sharded-and-merged paths. The goldens in `testdata/` were captured from
//! the pre-rewrite binary with
//! `figures run <experiment> --scale <scale> --seed 7 [--topo <spec>]
//! [--traffic <spec>]`; a diff here means a kernel changed observable
//! results, not just speed.

use jellyfish::experiment::{self, RunCtx, RunSpec, Shard, ShardFragment, WorkPlan};
use jellyfish::figures::Scale;
use jellyfish_bench::merge::{merge_fragments, render_merged};
use jellyfish_bench::render_run;

const SEED: u64 = 7;

/// `(experiment, --scale, --topo override, --traffic override, golden
/// bytes)`. The laptop-scale path-length goldens span several 64-source BFS
/// blocks.
type Golden = (&'static str, Scale, Option<&'static str>, Option<&'static str>, &'static str);

const GOLDENS: &[Golden] = &[
    (
        "throughput_vs_size",
        Scale::Tiny,
        None,
        None,
        include_str!("../testdata/throughput_vs_size_tiny.golden.tsv"),
    ),
    ("bisection", Scale::Tiny, None, None, include_str!("../testdata/bisection_tiny.golden.tsv")),
    (
        "failure_sweep",
        Scale::Tiny,
        None,
        None,
        include_str!("../testdata/failure_sweep_tiny.golden.tsv"),
    ),
    (
        "throughput_vs_workload",
        Scale::Tiny,
        None,
        None,
        include_str!("../testdata/throughput_vs_workload_tiny.golden.tsv"),
    ),
    (
        "throughput_vs_loss",
        Scale::Tiny,
        Some("jellyfish:switches=20,ports=8,degree=5+impair=loss:0.01"),
        None,
        include_str!("../testdata/throughput_vs_loss_jellyfish_impaired_tiny.golden.tsv"),
    ),
    (
        "throughput_vs_size",
        Scale::Tiny,
        Some("leafspine:leaf=6,spine=3,servers=4"),
        None,
        include_str!("../testdata/throughput_vs_size_leafspine_tiny.golden.tsv"),
    ),
    ("fig3", Scale::Tiny, None, None, include_str!("../testdata/fig3_tiny.golden.tsv")),
    ("table1", Scale::Tiny, None, None, include_str!("../testdata/table1_tiny.golden.tsv")),
    ("fig1c", Scale::Laptop, None, None, include_str!("../testdata/fig1c_laptop.golden.tsv")),
    ("fig5", Scale::Laptop, None, None, include_str!("../testdata/fig5_laptop.golden.tsv")),
    ("fig9", Scale::Laptop, None, None, include_str!("../testdata/fig9_laptop.golden.tsv")),
    ("fig13", Scale::Laptop, None, None, include_str!("../testdata/fig13_laptop.golden.tsv")),
    (
        "path_length",
        Scale::Laptop,
        None,
        None,
        include_str!("../testdata/path_length_laptop.golden.tsv"),
    ),
    ("fig7", Scale::Tiny, None, None, include_str!("../testdata/fig7_tiny.golden.tsv")),
    ("fig10", Scale::Tiny, None, None, include_str!("../testdata/fig10_tiny.golden.tsv")),
    ("fig11", Scale::Tiny, None, None, include_str!("../testdata/fig11_tiny.golden.tsv")),
    (
        "impaired_failure_sweep",
        Scale::Tiny,
        None,
        None,
        include_str!("../testdata/impaired_failure_sweep_tiny.golden.tsv"),
    ),
    (
        "latency_histogram",
        Scale::Tiny,
        None,
        None,
        include_str!("../testdata/latency_histogram_tiny.golden.tsv"),
    ),
    (
        "fairness_under_skew",
        Scale::Tiny,
        None,
        None,
        include_str!("../testdata/fairness_under_skew_tiny.golden.tsv"),
    ),
    (
        "incast_degradation",
        Scale::Tiny,
        None,
        None,
        include_str!("../testdata/incast_degradation_tiny.golden.tsv"),
    ),
    (
        "failure_sweep",
        Scale::Tiny,
        None,
        Some("mix:permutation=2,zipf=1,diurnal=3+epochs=2+scale_demand=0.5"),
        include_str!("../testdata/failure_sweep_mix_tiny.golden.tsv"),
    ),
    (
        "throughput_vs_size",
        Scale::Tiny,
        None,
        Some("zipf:s=1.2,hot_racks=4"),
        include_str!("../testdata/throughput_vs_size_zipf_tiny.golden.tsv"),
    ),
];

/// The run of a golden: its scale, seed 7 and its `--topo` and `--traffic`
/// overrides.
fn golden_run(scale: Scale, topo: Option<&str>, traffic: Option<&str>) -> RunSpec {
    RunSpec {
        scale,
        seed: SEED,
        topo: topo.map(|raw| raw.parse().expect("golden --topo spec parses")),
        traffic: traffic.map(|raw| raw.parse().expect("golden --traffic spec parses")),
    }
}

/// `figures run <exp> --scale <scale> --seed 7 [--topo <spec>] [--traffic
/// <spec>]` reproduces the committed golden bytes under the current build
/// profile.
#[test]
fn tiny_runs_match_goldens_byte_for_byte() {
    for (name, scale, topo, traffic, golden) in GOLDENS {
        let exp = experiment::find(name).expect("golden experiment is registered");
        let run = golden_run(*scale, *topo, *traffic);
        let rendered = render_run(exp.name(), &run, &exp.run(&RunCtx::new(run.clone())));
        assert_eq!(
            rendered, *golden,
            "{name} {topo:?} {traffic:?}: output drifted from the golden"
        );
    }
}

/// Splitting the same runs across two shards and merging the fragments
/// reproduces the identical bytes — the launcher path has no seam for the
/// kernels to leak nondeterminism through.
#[test]
fn sharded_merge_matches_goldens_byte_for_byte() {
    for (name, scale, topo, traffic, golden) in GOLDENS {
        let exp = experiment::find(name).expect("golden experiment is registered");
        let run = golden_run(*scale, *topo, *traffic);
        let ctx = RunCtx::new(run.clone());
        let num_shards = 2;
        let plan = WorkPlan::plan(exp.work_items(&ctx).len(), num_shards, None);
        let fragments: Vec<ShardFragment> = (1..=num_shards)
            .map(|k| {
                let shard = Shard::new(k, num_shards).expect("valid shard index");
                let timed = exp.run_selected_timed(&ctx, &|i| plan.owns(shard, i));
                ShardFragment {
                    experiment: exp.name().to_string(),
                    run: run.clone(),
                    shard,
                    timings_us: timed.timings_us,
                    items: timed.items,
                }
            })
            .collect();
        let merged = merge_fragments(&fragments).expect("complete shard set merges");
        let rendered = render_merged(&merged, false);
        assert_eq!(rendered, *golden, "{name} {topo:?} {traffic:?}: sharded+merged output drifted");
    }
}

/// Every `testdata/*.golden.tsv` is a `GOLDENS` row: its header (the
/// invocation CI rebuilds the `figures run` command from) names a row, and
/// its bytes are that row's. A new golden file cannot go unpinned here.
#[test]
fn every_golden_file_is_a_goldens_row() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata");
    let mut files = 0;
    for entry in std::fs::read_dir(&dir).expect("testdata is readable") {
        let path = entry.expect("testdata entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if !name.ends_with(".golden.tsv") {
            continue;
        }
        files += 1;
        let text = std::fs::read_to_string(&path).expect("golden is UTF-8");
        let header = text.lines().next().unwrap_or_default();
        let row = GOLDENS.iter().find(|g| g.4.lines().next() == Some(header));
        let row = row.unwrap_or_else(|| panic!("{name}: header '{header}' matches no GOLDENS row"));
        assert_eq!(row.4, text, "{name}: bytes differ from its GOLDENS row");
    }
    assert_eq!(files, GOLDENS.len(), "one golden file per GOLDENS row");
}
