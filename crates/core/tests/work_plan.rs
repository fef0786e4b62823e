//! Partitioner properties: for random timing vectors and shard counts, the
//! LPT bin-packing [`WorkPlan`] is an *exact* partition — every item in
//! exactly one bin, exactly the coverage striping gives — so swapping the
//! partitioner can never gain or lose work items, only move them. Plus the
//! classic greedy load bound and build determinism.

use jellyfish::experiment::{Shard, WorkPlan};
use proptest::collection::vec;
use proptest::prelude::*;

/// How many bins own each item under `plan`.
fn owners_per_item(plan: &WorkPlan, num_items: usize) -> Vec<usize> {
    let n = plan.num_shards();
    let mut owners = vec![0usize; num_items];
    for k in 1..=n {
        for &i in plan.items_for(Shard::new(k, n).unwrap()) {
            owners[i] += 1;
        }
    }
    owners
}

/// The heaviest bin's total timing under `plan`.
fn max_load(plan: &WorkPlan, timings: &[u64]) -> u64 {
    let n = plan.num_shards();
    (1..=n)
        .map(|k| plan.items_for(Shard::new(k, n).unwrap()).iter().map(|&i| timings[i]).sum::<u64>())
        .max()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LPT covers every item exactly once, and its per-item coverage vector
    /// is identical to striping's: no item gained, no item lost, regardless
    /// of the timings.
    #[test]
    fn lpt_covers_every_item_exactly_once_and_matches_striping(
        timings in vec(0u64..5_000_000, 0..40),
        shards in 1usize..=8,
    ) {
        let lpt = WorkPlan::lpt(&timings, shards);
        let striped = WorkPlan::striped(timings.len(), shards);
        let lpt_owners = owners_per_item(&lpt, timings.len());
        prop_assert!(
            lpt_owners.iter().all(|&c| c == 1),
            "LPT must place every item in exactly one bin: {lpt_owners:?}"
        );
        prop_assert_eq!(
            lpt_owners,
            owners_per_item(&striped, timings.len()),
            "LPT coverage must equal striping coverage"
        );
        // WorkPlan::plan picks LPT exactly when the timings line up.
        prop_assert_eq!(WorkPlan::plan(timings.len(), shards, Some(&timings)), lpt);
        prop_assert_eq!(WorkPlan::plan(timings.len(), shards, None), striped.clone());
        prop_assert_eq!(
            WorkPlan::plan(timings.len() + 1, shards, Some(&timings)),
            WorkPlan::striped(timings.len() + 1, shards),
            "stale timing vectors must fall back to striping"
        );
    }

    /// The greedy guarantee: the heaviest LPT bin carries at most the ideal
    /// (mean) load plus one item — the bound that makes timing-aware
    /// partitioning worth it for the launcher.
    #[test]
    fn lpt_max_load_is_within_mean_plus_one_item(
        timings in vec(1u64..1_000_000, 1..40),
        shards in 1usize..=8,
    ) {
        let plan = WorkPlan::lpt(&timings, shards);
        let total: u64 = timings.iter().sum();
        let heaviest = *timings.iter().max().unwrap();
        let bound = total as f64 / shards as f64 + heaviest as f64 + 1e-9;
        let load = max_load(&plan, &timings);
        prop_assert!(
            (load as f64) <= bound,
            "LPT max load {load} exceeds mean+max bound {bound} \
             (total {total}, shards {shards}, heaviest {heaviest})"
        );
    }

    /// Plans are pure functions of their inputs: re-building gives the same
    /// bins, and every shard's item list is sorted ascending (the order the
    /// fragment items are emitted in).
    #[test]
    fn plans_are_deterministic_with_sorted_bins(
        timings in vec(0u64..1000, 0..30),
        shards in 1usize..=6,
    ) {
        let plan = WorkPlan::lpt(&timings, shards);
        prop_assert_eq!(&plan, &WorkPlan::lpt(&timings, shards));
        for k in 1..=shards {
            let bin = plan.items_for(Shard::new(k, shards).unwrap());
            prop_assert!(bin.windows(2).all(|w| w[0] < w[1]), "bin {k} not sorted: {bin:?}");
        }
    }
}
