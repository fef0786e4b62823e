//! The experiment registry API: list experiments, run one by name, redirect
//! a topology-generic sweep at another topology spec, and split a sweep into
//! shards (as separate processes would) before merging the fragments back
//! into the single-process result.
//!
//! ```text
//! cargo run --release --example experiment_registry
//! ```

use jellyfish::experiment::{find, registry, RunCtx, RunSpec, Shard, ShardFragment, WorkPlan};
use jellyfish::figures::Scale;

fn main() {
    // Every figure/table of the paper is a named experiment, plus the
    // topology-generic sweeps that accept a --topo override.
    println!("{} registered experiments:", registry().len());
    for exp in registry() {
        let topo = if exp.supports_topo_override() { " [--topo]" } else { "" };
        println!("  {:20} {}{topo}", exp.name(), exp.describe());
    }

    // Run one by name: every experiment yields the same uniform Dataset.
    let exp = find("fig3").expect("fig3 is registered");
    let run = RunSpec::new(Scale::Tiny, 7);
    let ctx = RunCtx::new(run.clone());
    let dataset = exp.run(&ctx);
    println!("\n== {} ==\n{}", exp.name(), dataset.to_tsv());

    // The same sweep, sharded two ways as `figures run --shard K/2` would
    // run it in two separate processes, with the fragments crossing the
    // process boundary as JSON.
    let plan = WorkPlan::striped(exp.work_items(&ctx).len(), 2);
    let fragments: Vec<ShardFragment> = (1..=2)
        .map(|k| {
            let shard = Shard::new(k, 2).unwrap();
            let timed = exp.run_selected_timed(&RunCtx::new(run.clone()), &|i| plan.owns(shard, i));
            let fragment = ShardFragment {
                experiment: exp.name().to_string(),
                run: run.clone(),
                shard,
                timings_us: timed.timings_us,
                items: timed.items,
            };
            ShardFragment::from_json(&fragment.to_json()).expect("fragment JSON round-trips")
        })
        .collect();
    let merged = exp
        .merge(fragments.into_iter().flat_map(|f| f.items).collect())
        .expect("fragments of one run agree on metadata and columns");
    assert_eq!(merged, dataset, "sharded merge must equal the unsharded run");
    println!("2-way sharded run merged byte-identically to the unsharded run.");

    // Point a topology-generic experiment at a different topology: one spec
    // string, zero code changes.
    let generic = find("path_length").expect("path_length is registered");
    let spec = "leafspine:leaf=6,spine=3,servers=4".parse().expect("spec parses");
    let overridden = generic.run(&RunCtx::new(run.with_topo(spec)));
    println!("\n== {} --topo leafspine ==\n{}", generic.name(), overridden.to_tsv());
}
