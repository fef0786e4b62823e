//! Shard-fragment merging shared by `figures merge` and `figures launch`.
//!
//! A merge takes the [`ShardFragment`]s of all `N` shards of one or more
//! experiments and recombines them into the datasets a single-process
//! `figures run` would have produced, byte-for-byte. Before combining
//! anything it validates the whole set: every fragment must name a
//! registered experiment, fragments of one experiment must agree on their
//! [`RunSpec`] (scale, seed, `--topo` and `--traffic`), and the items must
//! cover the experiment's work-item list exactly — no duplicates, no gaps.
//! Items that disagree on metadata or table columns are refused by
//! [`Experiment::merge`] itself.
//! The fragment reader has already paired every item with its timing and
//! parsed the run's specs. Violations are reported with the experiment name
//! *and* the offending item's debug label, so "item 7 is missing" reads as
//! "item 7 ('jellyfish 96sw x16') is missing".
//!
//! [`read_fragments`] is the one reader of fragment files, for `merge`'s
//! arguments and for the launcher's worker output alike.

use jellyfish::experiment::{self, Dataset, Experiment, RunCtx, RunSpec, ShardFragment};
use std::path::Path;

/// One merged experiment: the run the fragments agreed on and the
/// recombined dataset, ready for rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedRun {
    /// Registered experiment name.
    pub name: &'static str,
    /// The run all fragments belong to.
    pub run: RunSpec,
    /// The dataset, identical to an unsharded [`Experiment::run`].
    pub data: Dataset,
}

/// The valid experiment-name choices as one comma-separated string (`all`
/// first, then the registry in canonical order) — the list every
/// unknown-name error cites, in the CLI and here.
pub fn experiment_names() -> String {
    let mut names = vec!["all"];
    names.extend(experiment::names());
    names.join(", ")
}

/// Reads every fragment of one file, one JSON line each; blank lines are
/// skipped. An unreadable file or a malformed line is an error naming the
/// file (and `file:line`).
pub fn read_fragments(path: &Path) -> Result<Vec<ShardFragment>, String> {
    let file = path.display();
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{file}': {e}"))?;
    let mut fragments = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if !line.trim().is_empty() {
            fragments.push(
                ShardFragment::from_json(line)
                    .map_err(|e| format!("{file}:{}: {e}", lineno + 1))?,
            );
        }
    }
    Ok(fragments)
}

/// Validates and merges a set of fragments (from any number of experiments),
/// returning one [`MergedRun`] per experiment in canonical registry order —
/// the order `figures run all` evaluates in.
pub fn merge_fragments(fragments: &[ShardFragment]) -> Result<Vec<MergedRun>, String> {
    for f in fragments {
        if experiment::find(&f.experiment).is_none() {
            return Err(format!(
                "unknown experiment '{}' in fragment: valid experiments are {}",
                f.experiment,
                experiment_names()
            ));
        }
    }
    let mut merged = Vec::new();
    for exp in experiment::registry() {
        let group: Vec<&ShardFragment> =
            fragments.iter().filter(|f| f.experiment == exp.name()).collect();
        if group.is_empty() {
            continue;
        }
        merged.push(merge_group(*exp, &group)?);
    }
    Ok(merged)
}

/// All fragments of one experiment, with the merge validation `figures
/// merge` applies: full, duplicate-free item coverage under one run, and
/// items that agree on metadata and columns.
fn merge_group(exp: &dyn Experiment, fragments: &[&ShardFragment]) -> Result<MergedRun, String> {
    let name = exp.name();
    let run = &fragments[0].run;
    if let Some(f) = fragments.iter().find(|f| f.run != *run) {
        return Err(format!(
            "{name}: fragments disagree on the run ('{run}' vs '{}'); \
             shards of one sweep must share scale, seed, --topo and --traffic",
            f.run
        ));
    }
    if run.topo.is_some() && !exp.supports_topo_override() {
        return Err(format!("{name}: fragment carries --topo but the experiment is fixed"));
    }
    if run.traffic.is_some() && !exp.supports_traffic_override() {
        return Err(format!(
            "{name}: fragment carries --traffic but the experiment's workload is fixed"
        ));
    }
    let ctx = RunCtx::new(run.clone());
    let work_items = exp.work_items(&ctx);
    let expected = work_items.len();
    let mut seen = vec![false; expected];
    let mut items = Vec::new();
    for f in fragments {
        for item in &f.items {
            if item.index >= expected {
                return Err(format!(
                    "{name}: fragment {} has item {} but the experiment only has {expected} \
                     work items at scale {}",
                    f.shard, item.index, run.scale
                ));
            }
            if seen[item.index] {
                return Err(format!(
                    "{name}: item {} ('{}') appears in more than one fragment (same shard \
                     file passed twice?)",
                    item.index, work_items[item.index].label
                ));
            }
            seen[item.index] = true;
            items.push(item.clone());
        }
    }
    if let Some(missing) = seen.iter().position(|&s| !s) {
        return Err(format!(
            "{name}: incomplete shard set: item {missing} ('{}') of {expected} is missing \
             (pass the fragment files of all N shards)",
            work_items[missing].label
        ));
    }
    let data = exp
        .merge(items)
        .map_err(|e| format!("{name}: {e}; were they produced by different builds?"))?;
    Ok(MergedRun { name, run: run.clone(), data })
}

/// Renders merged runs exactly as `figures run` prints them (TSV blocks, or
/// one JSON line each with `json`).
pub fn render_merged(runs: &[MergedRun], json: bool) -> String {
    let render = if json { crate::render_run_json } else { crate::render_run };
    runs.iter().map(|r| render(r.name, &r.run, &r.data)).collect()
}
