//! Golden-output guard for the hot-kernel rewrites (PERF.md): the registry
//! experiments must render **byte-identical** output before and after any
//! kernel change, seed for seed, in both the single-process and the
//! sharded-and-merged paths. The goldens in `testdata/` were captured from
//! the pre-rewrite binary with
//! `figures run <experiment> --scale <scale> --seed 7 [--topo <spec>]`; a
//! diff here means a kernel changed observable results, not just speed.

use jellyfish::experiment::{self, RunCtx, Shard, ShardFragment, WorkPlan};
use jellyfish::figures::Scale;
use jellyfish::topology::TopoSpec;
use jellyfish_bench::merge::{merge_fragments, render_merged};
use jellyfish_bench::render_run;

const SEED: u64 = 7;

/// `(experiment, --scale, --topo override, golden bytes)`. The laptop-scale
/// path-length goldens span several 64-source BFS blocks.
const GOLDENS: &[(&str, Scale, Option<&str>, &str)] = &[
    (
        "throughput_vs_size",
        Scale::Tiny,
        None,
        include_str!("../testdata/throughput_vs_size_tiny.golden.tsv"),
    ),
    ("bisection", Scale::Tiny, None, include_str!("../testdata/bisection_tiny.golden.tsv")),
    ("failure_sweep", Scale::Tiny, None, include_str!("../testdata/failure_sweep_tiny.golden.tsv")),
    (
        "throughput_vs_workload",
        Scale::Tiny,
        None,
        include_str!("../testdata/throughput_vs_workload_tiny.golden.tsv"),
    ),
    (
        "throughput_vs_loss",
        Scale::Tiny,
        Some("jellyfish:switches=20,ports=8,degree=5+impair=loss:0.01"),
        include_str!("../testdata/throughput_vs_loss_jellyfish_impaired_tiny.golden.tsv"),
    ),
    (
        "throughput_vs_size",
        Scale::Tiny,
        Some("leafspine:leaf=6,spine=3,servers=4"),
        include_str!("../testdata/throughput_vs_size_leafspine_tiny.golden.tsv"),
    ),
    ("fig3", Scale::Tiny, None, include_str!("../testdata/fig3_tiny.golden.tsv")),
    ("table1", Scale::Tiny, None, include_str!("../testdata/table1_tiny.golden.tsv")),
    ("fig1c", Scale::Laptop, None, include_str!("../testdata/fig1c_laptop.golden.tsv")),
    ("fig5", Scale::Laptop, None, include_str!("../testdata/fig5_laptop.golden.tsv")),
    ("fig9", Scale::Laptop, None, include_str!("../testdata/fig9_laptop.golden.tsv")),
    ("fig13", Scale::Laptop, None, include_str!("../testdata/fig13_laptop.golden.tsv")),
    ("path_length", Scale::Laptop, None, include_str!("../testdata/path_length_laptop.golden.tsv")),
];

/// The run context of a golden: its scale, seed 7 and its `--topo`
/// override, plus the override as the CLI renders it in the header.
fn golden_ctx(scale: Scale, topo: Option<&str>) -> (RunCtx, Option<String>) {
    let ctx = RunCtx::new(scale, SEED);
    match topo {
        None => (ctx, None),
        Some(raw) => {
            let spec: TopoSpec = raw.parse().expect("golden --topo spec parses");
            let rendered = spec.to_string();
            (ctx.with_topo(spec), Some(rendered))
        }
    }
}

/// `figures run <exp> --scale <scale> --seed 7 [--topo <spec>]` reproduces
/// the committed golden bytes under the current build profile.
#[test]
fn tiny_runs_match_goldens_byte_for_byte() {
    for (name, scale, topo, golden) in GOLDENS {
        let exp = experiment::find(name).expect("golden experiment is registered");
        let (ctx, topo) = golden_ctx(*scale, *topo);
        let data = exp.run(&ctx);
        let rendered = render_run(exp.name(), *scale, SEED, topo.as_deref(), None, &data);
        assert_eq!(rendered, *golden, "{name} {topo:?}: output drifted from the golden");
    }
}

/// Splitting the same runs across two shards and merging the fragments
/// reproduces the identical bytes — the launcher path has no seam for the
/// kernels to leak nondeterminism through.
#[test]
fn sharded_merge_matches_goldens_byte_for_byte() {
    for (name, scale, topo, golden) in GOLDENS {
        let exp = experiment::find(name).expect("golden experiment is registered");
        let (ctx, topo) = golden_ctx(*scale, *topo);
        let num_shards = 2;
        let plan = WorkPlan::plan(exp.work_items(&ctx).len(), num_shards, None);
        let fragments: Vec<ShardFragment> = (1..=num_shards)
            .map(|k| {
                let shard = Shard::new(k, num_shards).expect("valid shard index");
                let timed = exp.run_selected_timed(&ctx, &|i| plan.owns(shard, i));
                ShardFragment {
                    experiment: exp.name().to_string(),
                    scale: *scale,
                    seed: SEED,
                    topo: topo.clone(),
                    traffic: None,
                    shard,
                    timings_us: timed.timings_us,
                    items: timed.items,
                }
            })
            .collect();
        let merged = merge_fragments(&fragments).expect("complete shard set merges");
        let rendered = render_merged(&merged, false);
        assert_eq!(rendered, *golden, "{name} {topo:?}: sharded+merged output drifted");
    }
}
