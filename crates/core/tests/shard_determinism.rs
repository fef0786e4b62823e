//! Shard determinism: for every registered experiment at `Scale::Tiny` —
//! and, for the override-capable experiments, additionally under `--topo`
//! and `--traffic` spec overrides — splitting the work items across N shards
//! and merging the shard outputs reproduces the unsharded [`Dataset`] exactly — same
//! in-memory value, same rendered TSV bytes — including when the fragments
//! cross a process boundary as JSON (the `figures run --shard` /
//! `figures merge` path).

use jellyfish::experiment::{
    registry, Dataset, Experiment, ItemResult, RunCtx, RunSpec, Shard, ShardFragment, WorkPlan,
};
use jellyfish::figures::Scale;
use jellyfish_topology::TopoSpec;
use proptest::prelude::*;
use std::sync::OnceLock;

const SEED: u64 = 7;

/// The spec axis: each topology-generic experiment also runs under an
/// override exercising a different generator (and, for the failure sweep, a
/// transform chain), so sharding is validated across the whole registry.
const TOPO_OVERRIDES: [(&str, &str); 6] = [
    ("throughput_vs_size", "leafspine:leaf=6,spine=3,servers=4"),
    ("path_length", "swdc:lattice=ring,n=16,servers=2"),
    ("bisection", "fattree:k=4"),
    ("failure_sweep", "jellyfish:switches=16,ports=8,degree=5+fail_switches=0.05"),
    // Impaired runs must shard/merge bit-identically too: the impairment
    // RNG streams are pure functions of (spec, seed), never of shard shape.
    ("throughput_vs_loss", "jellyfish:switches=16,ports=8,degree=5+impair=jitter_ms:2,queue:16"),
    ("latency_histogram", "fattree:k=4+impair=ge:0.05/0.5,jdist:exp,jitter_ms:3"),
];

/// The workload axis: traffic-capable experiments also run under a
/// `--traffic` override (one exercising the transform chain), so sharding is
/// validated when the workload — and, for `throughput_vs_workload`, the work
/// item list itself — is redirected by a spec.
const TRAFFIC_OVERRIDES: [(&str, &str); 2] = [
    ("throughput_vs_workload", "zipf:s=1.5,hot_racks=2+scale_demand=0.5"),
    ("failure_sweep", "stride:k=3+epochs=2"),
];

struct Baseline {
    name: &'static str,
    topo: Option<&'static str>,
    traffic: Option<&'static str>,
    items: Vec<ItemResult>,
    dataset: Dataset,
}

fn run_for(topo: Option<&str>, traffic: Option<&str>) -> RunSpec {
    RunSpec {
        scale: Scale::Tiny,
        seed: SEED,
        topo: topo.map(|raw| raw.parse().expect("override spec parses")),
        traffic: traffic.map(|raw| raw.parse().expect("override traffic spec parses")),
    }
}

fn ctx_for(topo: Option<&str>, traffic: Option<&str>) -> RunCtx {
    RunCtx::new(run_for(topo, traffic))
}

/// Every experiment's full item results and merged dataset at `Scale::Tiny`
/// (plus the `--topo` override combinations), computed once per test binary
/// (the sweep is the expensive part; the partition/merge checks against it
/// are cheap).
fn baselines() -> &'static [Baseline] {
    static CELL: OnceLock<Vec<Baseline>> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut cases: Vec<(&'static str, Option<&'static str>, Option<&'static str>)> =
            registry().iter().map(|exp| (exp.name(), None, None)).collect();
        cases.extend(TOPO_OVERRIDES.iter().map(|&(name, spec)| (name, Some(spec), None)));
        cases.extend(TRAFFIC_OVERRIDES.iter().map(|&(name, spec)| (name, None, Some(spec))));
        cases
            .into_iter()
            .map(|(name, topo, traffic)| {
                let exp = find(name);
                let items = exp.run_selected_timed(&ctx_for(topo, traffic), &|_| true).items;
                let dataset = exp.merge(items.clone()).unwrap();
                Baseline { name, topo, traffic, items, dataset }
            })
            .collect()
    })
}

fn find(name: &str) -> &'static dyn Experiment {
    jellyfish::experiment::find(name).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Partitioning the item results of any experiment across N shards (the
    /// striping rule of `WorkPlan::striped`) and merging — with the shards
    /// fed to `merge` in arbitrary rotated order — equals the unsharded
    /// dataset, value- and byte-exactly.
    #[test]
    fn merging_n_shards_equals_the_unsharded_dataset(
        n in 1usize..=6,
        rotation in 0usize..6,
    ) {
        for base in baselines() {
            let exp = find(base.name);
            let plan = WorkPlan::striped(base.items.len(), n);
            let mut shards: Vec<Vec<ItemResult>> = (1..=n)
                .map(|k| {
                    let shard = Shard::new(k, n).unwrap();
                    base.items
                        .iter()
                        .filter(|it| plan.owns(shard, it.index))
                        .cloned()
                        .collect()
                })
                .collect();
            // Shard outputs can arrive for merging in any order.
            shards.rotate_left(rotation % n.max(1));
            let merged = exp.merge(shards.into_iter().flatten().collect()).unwrap();
            prop_assert_eq!(
                &merged, &base.dataset,
                "{} (topo {:?}): {} shards merged != unsharded", base.name, base.topo, n
            );
            prop_assert_eq!(
                merged.to_tsv(), base.dataset.to_tsv(),
                "{} (topo {:?}): rendered TSV differs", base.name, base.topo
            );
        }
    }
}

/// The full process-boundary path: each shard recomputes its half of every
/// experiment (including the `--topo` overridden ones) from scratch, the
/// fragments round-trip through their JSON wire format, and the merge of the
/// parsed fragments is byte-identical to the unsharded run.
#[test]
fn sharded_runs_roundtrip_through_fragment_json() {
    const N: usize = 2;
    for base in baselines() {
        let exp = find(base.name);
        let plan = WorkPlan::striped(base.items.len(), N);
        let mut parsed_items = Vec::new();
        for k in 1..=N {
            let shard = Shard::new(k, N).unwrap();
            let timed =
                exp.run_selected_timed(&ctx_for(base.topo, base.traffic), &|i| plan.owns(shard, i));
            assert_eq!(
                timed.items.len(),
                timed.timings_us.len(),
                "{}: timing per item",
                exp.name()
            );
            assert!(timed.timings_us.iter().all(|&t| t > 0), "{}: zero timing", exp.name());
            let fragment = ShardFragment {
                experiment: exp.name().to_string(),
                run: run_for(base.topo, base.traffic),
                shard,
                timings_us: timed.timings_us,
                items: timed.items,
            };
            let parsed = ShardFragment::from_json(&fragment.to_json())
                .unwrap_or_else(|e| panic!("{}: fragment JSON round-trip failed: {e}", base.name));
            assert_eq!(parsed, fragment, "{}: JSON altered fragment {k}/{N}", base.name);
            parsed_items.extend(parsed.items);
        }
        let merged = exp.merge(parsed_items).unwrap();
        assert_eq!(
            merged, base.dataset,
            "{} (topo {:?}): sharded recompute != unsharded",
            base.name, base.topo
        );
        assert_eq!(merged.to_tsv(), base.dataset.to_tsv(), "{}: TSV bytes differ", base.name);
        assert_eq!(merged.to_json(), base.dataset.to_json(), "{}: JSON bytes differ", base.name);
    }
}

/// Work items are stable and complete: indices are `0..len`, in order, and
/// every item is owned by exactly one shard for any N. Override-capable
/// experiments must also replace their whole axis when a `--topo` spec is
/// set, and carry the spec on every item.
#[test]
fn work_items_are_dense_and_uniquely_owned() {
    let mut cases: Vec<(&str, Option<&str>, Option<&str>)> =
        registry().iter().map(|exp| (exp.name(), None, None)).collect();
    cases.extend(TOPO_OVERRIDES.iter().copied().map(|(n, s)| (n, Some(s), None)));
    cases.extend(TRAFFIC_OVERRIDES.iter().copied().map(|(n, s)| (n, None, Some(s))));
    for (name, topo, traffic) in cases {
        let exp = find(name);
        let items = exp.work_items(&ctx_for(topo, traffic));
        assert!(!items.is_empty(), "{name}: no work items");
        for (i, item) in items.iter().enumerate() {
            assert_eq!(item.index, i, "{name}: non-dense item indices");
        }
        if let Some(raw) = topo {
            let spec: TopoSpec = raw.parse().unwrap();
            for item in &items {
                let item_spec = item.spec.as_ref().unwrap_or_else(|| {
                    panic!("{name}: overridden item '{}' lost its spec", item.label)
                });
                assert_eq!(
                    item_spec.base(),
                    spec.base(),
                    "{name}: item '{}' ignores the --topo override",
                    item.label
                );
            }
        }
        for n in 1..=5 {
            let plan = WorkPlan::striped(items.len(), n);
            for item in &items {
                let owners =
                    (1..=n).filter(|&k| plan.owns(Shard::new(k, n).unwrap(), item.index)).count();
                assert_eq!(owners, 1, "{name}: item {} owned by {} shards", item.index, owners);
            }
        }
    }
}
