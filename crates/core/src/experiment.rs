//! First-class experiment API: every figure and table of the paper's
//! evaluation as a named, shardable unit of work.
//!
//! The paper's evaluation is ~17 figures/tables. Historically each was a
//! one-off function in [`crate::figures`] with its own return type, which
//! made it impossible to express a *sweep* generically: there was no uniform
//! unit of work to shard across processes and no uniform result to merge.
//! This module fixes that:
//!
//! * [`Experiment`] — the trait every figure implements. An experiment
//!   decomposes into independent [`WorkItem`]s (`work_items`), evaluates one
//!   item at a time against a [`RunCtx`] (`run_item`), and merges the item
//!   results back into one [`Dataset`] (`merge`).
//! * [`Dataset`] — the single tagged result type: labelled `(x, y)` series,
//!   named rows under fixed column headers, and scalar cells. It renders to
//!   TSV ([`Dataset::to_tsv`]) and JSON ([`Dataset::to_json`]).
//! * [`Shard`] — a `K/N` slice of an experiment's work items. Because every
//!   item derives its randomness from `(seed, item)` alone, running the
//!   shards in separate processes and merging the [`ShardFragment`]s is
//!   byte-identical to a single-process [`Experiment::run`].
//! * [`WorkPlan`] — how the items are partitioned across the `N` shards:
//!   pure `K/N` striping ([`WorkPlan::striped`], the `--shard` default), or
//!   timing-aware LPT bin-packing over a prior run's measured per-item
//!   wall-clock ([`WorkPlan::lpt`]). Both are exact partitions, so the merge
//!   coverage validation is unaffected by which partitioner produced the
//!   fragments.
//! * [`TimingFile`] — the measured per-item wall-clock of a prior run
//!   (`timings.json` in a `figures launch` run directory), keyed by
//!   experiment; `figures run --plan <file>` feeds it back into
//!   [`WorkPlan::plan`] so the next run is balanced by cost instead of
//!   striped blindly. Timings are measurement, never data: they vary run to
//!   run and have no influence on any item result.
//! * [`registry`] — the static table of experiments (the paper's 17 figures
//!   and tables plus the topology-generic sweeps in [`generic`]), keyed by
//!   the names the `figures` CLI exposes (`figures list`).
//!
//! Topology construction flows through [`TopoSpec`] strings resolved by the
//! generator registry in `jellyfish_topology::spec`: spec-driven experiments
//! decompose into [`WorkItem`]s that each carry the spec they evaluate, and
//! the topology-generic experiments accept a `--topo <spec>` override
//! ([`RunCtx::with_topo`]) that redirects the whole sweep at any registered
//! topology without code changes.
//!
//! The [`RunCtx`] carries the run's [`Scale`], seed and optional topology
//! override, plus a memoized topology/CSR-snapshot cache keyed by
//! `(spec, seed)`: items of one experiment that share a base topology (for
//! example the per-fraction failure sweeps of `fig8`) build the
//! [`CsrGraph`] snapshot once per process and share it, and each cache hit
//! is verified against the topology's mutation
//! [generation](Topology::generation) so a stale snapshot can never be
//! served. The cache is an optimization only — every builder is a pure
//! function of `(spec, seed)`, so a shard that rebuilds a snapshot gets
//! bit-identical data.
//!
//! EXPERIMENTS.md at the repository root indexes the registered experiments
//! (paper figure, scales, output schema).

use crate::figures::{Scale, Series};
use crate::service::Session;
use jellyfish_topology::{CsrGraph, SpecError, TopoSpec, Topology};
use jellyfish_traffic::{ServerMap, TrafficMatrix, TrafficSpec};
use rayon::prelude::*;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

pub mod catalog;
pub mod generic;
pub mod impair;
mod json;
pub mod workload;

/// One named row of a [`Dataset`] table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Row label (first column).
    pub label: String,
    /// Numeric values, one per remaining column.
    pub values: Vec<f64>,
}

impl Row {
    /// Creates a row.
    pub fn new(label: impl Into<String>, values: Vec<f64>) -> Self {
        Row { label: label.into(), values }
    }
}

/// One named scalar of a [`Dataset`].
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Cell name.
    pub name: String,
    /// Cell value.
    pub value: f64,
}

impl Cell {
    /// Creates a cell.
    pub fn new(name: impl Into<String>, value: f64) -> Self {
        Cell { name: name.into(), value }
    }
}

/// The uniform result type every experiment produces.
///
/// A dataset is up to three sections, each possibly empty: scalar [`Cell`]s,
/// a table ([`Row`]s under `columns` headers, where `columns[0]` names the
/// row-label column), and labelled [`Series`]. Merging shard fragments
/// concatenates sections deterministically — see [`Dataset::concat`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    /// Provenance metadata: ordered `(key, value)` pairs (e.g. the topology
    /// spec string behind each series). Rendered as `# key<TAB>value`
    /// comment lines at the top of the TSV and as a `meta` array in JSON.
    pub meta: Vec<(String, String)>,
    /// Labelled (x, y) series (line-plot figures).
    pub series: Vec<Series>,
    /// Column headers for `rows`; `columns[0]` heads the label column.
    pub columns: Vec<String>,
    /// Named rows (table-style figures).
    pub rows: Vec<Row>,
    /// Named scalars (bar-chart-style figures).
    pub cells: Vec<Cell>,
}

impl Dataset {
    /// An empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// A dataset that is only labelled series.
    pub fn from_series(series: Vec<Series>) -> Self {
        Dataset { series, ..Default::default() }
    }

    /// Appends `(x, y)` to the series named `label`, creating it on first use.
    pub fn push_point(&mut self, label: &str, x: f64, y: f64) {
        match self.series.iter_mut().find(|s| s.label == label) {
            Some(s) => s.points.push((x, y)),
            None => self.series.push(Series::new(label, vec![(x, y)])),
        }
    }

    /// Sets the table column headers (`columns[0]` heads the label column).
    pub fn set_columns(&mut self, columns: &[&str]) {
        self.columns = columns.iter().map(std::string::ToString::to_string).collect();
    }

    /// Appends a table row.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        self.rows.push(Row::new(label, values));
    }

    /// Appends a scalar cell.
    pub fn push_cell(&mut self, name: impl Into<String>, value: f64) {
        self.cells.push(Cell::new(name, value));
    }

    /// Appends a provenance metadata pair.
    pub fn push_meta(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.meta.push((key.into(), value.into()));
    }

    /// Deterministically concatenates dataset fragments (in the order given):
    /// series with the same label have their points appended in fragment
    /// order and keep first-seen label order; rows and cells concatenate;
    /// column headers must agree across fragments that set them; metadata
    /// keys keep first-seen order and must agree on their value when
    /// repeated.
    pub fn concat<I: IntoIterator<Item = Dataset>>(fragments: I) -> Dataset {
        let mut out = Dataset::new();
        for frag in fragments {
            for (k, v) in frag.meta {
                match out.meta.iter().find(|(ek, _)| *ek == k) {
                    Some((_, ev)) => {
                        assert_eq!(*ev, v, "dataset fragments disagree on metadata '{k}'");
                    }
                    None => out.meta.push((k, v)),
                }
            }
            for s in frag.series {
                match out.series.iter_mut().find(|e| e.label == s.label) {
                    Some(e) => e.points.extend(s.points),
                    None => out.series.push(s),
                }
            }
            if !frag.columns.is_empty() {
                if out.columns.is_empty() {
                    out.columns = frag.columns;
                } else {
                    assert_eq!(
                        out.columns, frag.columns,
                        "dataset fragments disagree on table columns"
                    );
                }
            }
            out.rows.extend(frag.rows);
            out.cells.extend(frag.cells);
        }
        out
    }

    /// Renders the dataset as tab-separated text: `# key\tvalue` metadata
    /// comment lines first, then cells (`name\tvalue`), then the table, then
    /// the series aligned on their union of x values.
    /// Non-empty sections are separated by a blank line. The rendering is a
    /// pure function of the data, so a merged sharded run prints byte-for-byte
    /// what the single-process run prints.
    pub fn to_tsv(&self) -> String {
        let mut sections: Vec<String> = Vec::new();
        if !self.meta.is_empty() {
            let mut s = String::new();
            for (k, v) in &self.meta {
                s.push_str(&format!("# {k}\t{v}\n"));
            }
            sections.push(s);
        }
        if !self.cells.is_empty() {
            let mut s = String::new();
            for c in &self.cells {
                s.push_str(&format!("{}\t{}\n", c.name, fmt_num(c.value)));
            }
            sections.push(s);
        }
        if !self.rows.is_empty() {
            let mut s = String::new();
            s.push_str(&self.columns.join("\t"));
            s.push('\n');
            for r in &self.rows {
                s.push_str(&r.label);
                for v in &r.values {
                    s.push('\t');
                    s.push_str(&fmt_num(*v));
                }
                s.push('\n');
            }
            sections.push(s);
        }
        if !self.series.is_empty() {
            sections.push(self.series_table());
        }
        sections.join("\n")
    }

    /// The x-aligned series table: one `x` column plus one column per series,
    /// `-` where a series has no point at that x.
    fn series_table(&self) -> String {
        let mut xs: Vec<f64> = Vec::new();
        for s in &self.series {
            for &(x, _) in &s.points {
                if !xs.iter().any(|&e| e.to_bits() == x.to_bits()) {
                    xs.push(x);
                }
            }
        }
        xs.sort_by(f64::total_cmp);
        let maps: Vec<HashMap<u64, f64>> = self
            .series
            .iter()
            .map(|s| s.points.iter().map(|&(x, y)| (x.to_bits(), y)).collect())
            .collect();
        let mut out = String::from("x");
        for s in &self.series {
            out.push('\t');
            out.push_str(&s.label);
        }
        out.push('\n');
        for &x in &xs {
            out.push_str(&fmt_num(x));
            for m in &maps {
                match m.get(&x.to_bits()) {
                    Some(&y) => {
                        out.push('\t');
                        out.push_str(&fmt_num(y));
                    }
                    None => out.push_str("\t-"),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders the dataset as a JSON object. Finite numbers use Rust's
    /// shortest round-trip formatting, so [`Dataset::from_json`] recovers
    /// them exactly.
    pub fn to_json(&self) -> String {
        json::dataset_to_json(self)
    }

    /// Parses a dataset from the JSON produced by [`Dataset::to_json`].
    pub fn from_json(text: &str) -> Result<Dataset, String> {
        json::dataset_from_json(text)
    }
}

/// Shortest round-trip rendering of a value (`3` for 3.0, `0.1` for 0.1).
fn fmt_num(v: f64) -> String {
    format!("{v}")
}

/// One independent unit of an experiment's work.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkItem {
    /// Position in the experiment's full item list (the shard key).
    pub index: usize,
    /// Human-readable description of the item.
    pub label: String,
    /// The topology this item evaluates, when the experiment's work
    /// decomposes along a topology axis (spec-driven experiments).
    pub spec: Option<TopoSpec>,
    /// The workload this item evaluates, when the experiment's work
    /// decomposes along a traffic axis (spec-driven workloads).
    pub traffic: Option<TrafficSpec>,
}

impl WorkItem {
    /// Creates a work item with no topology axis.
    pub fn new(index: usize, label: impl Into<String>) -> Self {
        WorkItem { index, label: label.into(), spec: None, traffic: None }
    }

    /// Creates a work item that evaluates one topology spec.
    pub fn with_spec(index: usize, label: impl Into<String>, spec: TopoSpec) -> Self {
        WorkItem { index, label: label.into(), spec: Some(spec), traffic: None }
    }

    /// Attaches the workload spec this item evaluates (builder style).
    pub fn with_traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffic = Some(traffic);
        self
    }

    /// The item's topology spec; panics (with the item's label) when the
    /// experiment forgot to attach one.
    pub fn spec(&self) -> &TopoSpec {
        self.spec
            .as_ref()
            .unwrap_or_else(|| panic!("work item '{}' has no topology spec", self.label))
    }

    /// The item's workload spec; panics (with the item's label) when the
    /// experiment forgot to attach one.
    pub fn traffic(&self) -> &TrafficSpec {
        self.traffic
            .as_ref()
            .unwrap_or_else(|| panic!("work item '{}' has no traffic spec", self.label))
    }
}

/// The result of running one [`WorkItem`]: a dataset fragment tagged with
/// the item's index so merges can restore the canonical order.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemResult {
    /// The producing item's index.
    pub index: usize,
    /// The fragment of the experiment's dataset this item contributes.
    pub data: Dataset,
}

impl ItemResult {
    /// Creates an item result.
    pub fn new(index: usize, data: Dataset) -> Self {
        ItemResult { index, data }
    }
}

/// An immutable topology + CSR snapshot pair shared between work items.
///
/// The snapshot remembers the topology [generation](Topology::generation) it
/// was taken at, so holders can detect the silent-staleness hazard: code
/// that obtains `&mut` access to the topology (e.g. via
/// [`Topology::graph_mut`]) after the CSR snapshot was taken would otherwise
/// keep routing over links that no longer exist.
#[derive(Debug)]
pub struct Snapshot {
    /// The mutable-API topology (adjacency form).
    pub topology: Topology,
    /// The flat CSR snapshot routing/flow/sim consume.
    pub csr: CsrGraph,
    /// [`Topology::generation`] at the moment `csr` was taken.
    pub generation: u64,
}

impl Snapshot {
    /// Snapshots `topology`, recording its current generation.
    pub fn new(topology: Topology) -> Self {
        Snapshot { csr: topology.csr(), generation: topology.generation(), topology }
    }

    /// Whether `csr` still reflects `topology` (no mutation since the
    /// snapshot was taken).
    pub fn is_current(&self) -> bool {
        self.generation == self.topology.generation()
    }

    /// Re-takes the CSR snapshot from the current topology state.
    pub fn refresh(&mut self) {
        self.csr = self.topology.csr();
        self.generation = self.topology.generation();
    }
}

/// Per-run context handed to [`Experiment::run_item`]: the scale, seed and
/// optional topology override of the run, plus a process-local memo of
/// CSR-backed topology snapshots keyed by `(spec-or-key, seed)`.
#[derive(Debug)]
pub struct RunCtx {
    /// Instance-size preset for this run.
    pub scale: Scale,
    /// Base seed; items derive their own sub-seeds from it deterministically.
    pub seed: u64,
    topo: Option<TopoSpec>,
    traffic: Option<TrafficSpec>,
    cache: Mutex<HashMap<(String, u64), Arc<Snapshot>>>,
}

impl RunCtx {
    /// Creates a context for one `(scale, seed)` run.
    pub fn new(scale: Scale, seed: u64) -> Self {
        RunCtx { scale, seed, topo: None, traffic: None, cache: Mutex::new(HashMap::new()) }
    }

    /// Sets the `--topo` override: experiments whose
    /// [`Experiment::supports_topo_override`] is true evaluate this spec
    /// instead of their built-in topology axis.
    pub fn with_topo(mut self, spec: TopoSpec) -> Self {
        self.topo = Some(spec);
        self
    }

    /// The run's topology override, if any.
    pub fn topo(&self) -> Option<&TopoSpec> {
        self.topo.as_ref()
    }

    /// Sets the `--traffic` override: experiments whose
    /// [`Experiment::supports_traffic_override`] is true evaluate this
    /// workload instead of their built-in one.
    pub fn with_traffic(mut self, spec: TrafficSpec) -> Self {
        self.traffic = Some(spec);
        self
    }

    /// The run's workload override, if any.
    pub fn traffic(&self) -> Option<&TrafficSpec> {
        self.traffic.as_ref()
    }

    /// The traffic matrix a traffic-capable experiment should evaluate:
    /// the `--traffic` override when one is set, the paper's
    /// random-permutation workload otherwise. `seed` is the experiment's
    /// item-derived matrix seed, applied identically to both paths so an
    /// explicit `--traffic permutation` is byte-identical to no override.
    pub fn traffic_matrix(&self, servers: &ServerMap, seed: u64) -> TrafficMatrix {
        match &self.traffic {
            Some(spec) => spec.matrix(servers, seed).unwrap_or_else(|e| {
                panic!("--traffic '{spec}' does not build for this topology: {e}")
            }),
            None => TrafficMatrix::random_permutation(servers, seed),
        }
    }

    /// Returns the memoized snapshot of `spec` built with `seed` (which may
    /// differ from the run seed: some experiments derive per-topology
    /// seeds). Only the transform-free [`TopoSpec::base`] is cached — items
    /// that share a base but apply different failure/expansion transforms
    /// (e.g. one failure sweep) build it once and transform clones.
    pub fn spec_snapshot(&self, spec: &TopoSpec, seed: u64) -> Result<Arc<Snapshot>, SpecError> {
        let base = spec.base();
        // Build the base outside the memo closure so errors propagate
        // instead of panicking inside it.
        let snap = {
            let key = (base.to_string(), seed);
            if let Some(snap) = self.lookup(&key) {
                snap
            } else {
                let topology = base.build(seed)?;
                self.insert(key, topology)
            }
        };
        if spec.transforms().is_empty() {
            return Ok(snap);
        }
        let mut transformed = snap.topology.clone();
        spec.apply_transforms(&mut transformed, seed)?;
        Ok(Arc::new(Snapshot::new(transformed)))
    }

    /// Builds a live [`Session`](crate::service::Session) over the memoized
    /// transform-free base of `spec` — the same cached topology the
    /// snapshot path clones, so replaying the spec's transforms as churn
    /// events reproduces [`RunCtx::spec_snapshot`] byte-for-byte (both
    /// call [`ScenarioTransform::apply`](jellyfish_topology::spec::ScenarioTransform::apply)
    /// with `seed` on the identical base). The session inherits the run's
    /// `--traffic` override.
    pub fn session(&self, spec: &TopoSpec, seed: u64) -> Result<Session, SpecError> {
        let base = self.spec_snapshot(&spec.base(), seed)?;
        Ok(Session::new(base.topology.clone(), seed).with_traffic(self.traffic.clone()))
    }

    /// Cache lookup with the staleness guard: a hit whose CSR snapshot no
    /// longer matches its topology's generation (impossible through this
    /// API, but cheap to verify) is dropped and rebuilt by the caller.
    fn lookup(&self, key: &(String, u64)) -> Option<Arc<Snapshot>> {
        let mut cache = self.cache.lock().unwrap();
        match cache.get(key) {
            Some(snap) if snap.is_current() => Some(Arc::clone(snap)),
            Some(_) => {
                debug_assert!(false, "cached snapshot went stale for {key:?}");
                cache.remove(key);
                None
            }
            None => None,
        }
    }

    fn insert(&self, key: (String, u64), topology: Topology) -> Arc<Snapshot> {
        let snap = Arc::new(Snapshot::new(topology));
        Arc::clone(self.cache.lock().unwrap().entry(key).or_insert(snap))
    }
}

/// A `K/N` slice of an experiment's work items (1-based `K`): shard `K`
/// owns every item whose index is congruent to `K - 1` modulo `N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shard {
    /// 1-based shard number, `1 <= index <= count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// Creates shard `index` of `count`, validating `1 <= index <= count`.
    pub fn new(index: usize, count: usize) -> Result<Shard, String> {
        if count == 0 || index == 0 || index > count {
            return Err(format!("invalid shard {index}/{count}: need 1 <= K <= N"));
        }
        Ok(Shard { index, count })
    }

    /// Whether this shard owns the item at `item_index`.
    pub fn owns(&self, item_index: usize) -> bool {
        item_index % self.count == self.index - 1
    }
}

impl std::str::FromStr for Shard {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || format!("invalid shard '{s}': expected K/N with 1 <= K <= N, e.g. 2/4");
        let (k, n) = s.split_once('/').ok_or_else(err)?;
        let k: usize = k.trim().parse().map_err(|_| err())?;
        let n: usize = n.trim().parse().map_err(|_| err())?;
        Shard::new(k, n).map_err(|_| err())
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// How an experiment's work items are partitioned across `N` shards.
///
/// [`WorkPlan::striped`] reproduces the classic `--shard K/N` striping rule
/// ([`Shard::owns`]); [`WorkPlan::lpt`] bin-packs items by measured per-item
/// cost (longest-processing-time-first greedy) so a prior run's
/// [`TimingFile`] balances the next run. Both produce exact partitions —
/// every item lands in exactly one bin — which is what keeps the
/// `figures merge` coverage validation independent of the partitioner that
/// produced the fragments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkPlan {
    bins: Vec<Vec<usize>>,
}

impl WorkPlan {
    /// The striping partition: bin `K` owns every index congruent to
    /// `K - 1` modulo `num_shards` (exactly [`Shard::owns`]).
    pub fn striped(num_items: usize, num_shards: usize) -> WorkPlan {
        assert!(num_shards > 0, "a work plan needs at least one shard");
        let mut bins = vec![Vec::new(); num_shards];
        for index in 0..num_items {
            bins[index % num_shards].push(index);
        }
        WorkPlan { bins }
    }

    /// The LPT (longest processing time first) greedy bin-packing: items in
    /// descending timing order (ties broken by ascending index) each go to
    /// the currently least-loaded bin (ties to the lowest bin index). The
    /// result is a deterministic pure function of `(timings_us, num_shards)`
    /// whose heaviest bin is within `mean + max_item` of the total/shards
    /// lower bound — the classic greedy guarantee.
    pub fn lpt(timings_us: &[u64], num_shards: usize) -> WorkPlan {
        assert!(num_shards > 0, "a work plan needs at least one shard");
        let mut order: Vec<usize> = (0..timings_us.len()).collect();
        order.sort_by(|&a, &b| timings_us[b].cmp(&timings_us[a]).then(a.cmp(&b)));
        let mut bins = vec![Vec::new(); num_shards];
        let mut loads = vec![0u128; num_shards];
        for index in order {
            let mut best = 0;
            for bin in 1..num_shards {
                if loads[bin] < loads[best] {
                    best = bin;
                }
            }
            bins[best].push(index);
            loads[best] += timings_us[index] as u128;
        }
        for bin in &mut bins {
            bin.sort_unstable();
        }
        WorkPlan { bins }
    }

    /// The partition sharded workers actually use: LPT when `timings` holds
    /// exactly one measurement per item, striping otherwise (no prior run,
    /// or the item decomposition changed since the timing file was written).
    pub fn plan(num_items: usize, num_shards: usize, timings: Option<&[u64]>) -> WorkPlan {
        match timings {
            Some(t) if t.len() == num_items => WorkPlan::lpt(t, num_shards),
            _ => WorkPlan::striped(num_items, num_shards),
        }
    }

    /// Number of bins (shards) this plan partitions into.
    pub fn num_shards(&self) -> usize {
        self.bins.len()
    }

    /// The item indices shard `K/N` owns under this plan, ascending; panics
    /// when the plan was built for a different shard count.
    pub fn items_for(&self, shard: Shard) -> &[usize] {
        assert_eq!(
            shard.count,
            self.bins.len(),
            "work plan was built for {} shards, asked for shard {shard}",
            self.bins.len()
        );
        &self.bins[shard.index - 1]
    }

    /// Whether `index` belongs to `shard` under this plan.
    pub fn owns(&self, shard: Shard, index: usize) -> bool {
        self.items_for(shard).binary_search(&index).is_ok()
    }
}

/// The measured per-item wall-clock of one prior run, keyed by experiment:
/// what `figures launch` writes as `timings.json` into its run directory and
/// what `figures run/launch --plan <file>` feeds back into [`WorkPlan::plan`]
/// for timing-aware load balancing. `scale`, `seed` and `topo` record the
/// run the measurements came from; workers fall back to striping when they
/// do not match the current run (the item decomposition may differ).
#[derive(Debug, Clone, PartialEq)]
pub struct TimingFile {
    /// Scale of the measured run.
    pub scale: Scale,
    /// Seed of the measured run.
    pub seed: u64,
    /// `--topo` override spec string of the measured run, if any.
    pub topo: Option<String>,
    /// `--traffic` override spec string of the measured run, if any.
    pub traffic: Option<String>,
    /// Per-experiment measurements: `timings_us[i]` is the wall-clock of
    /// work item `i` in microseconds.
    pub experiments: Vec<(String, Vec<u64>)>,
}

impl TimingFile {
    /// An empty timing file for a `(scale, seed, topo, traffic)` run.
    pub fn new(scale: Scale, seed: u64, topo: Option<String>, traffic: Option<String>) -> Self {
        TimingFile { scale, seed, topo, traffic, experiments: Vec::new() }
    }

    /// Records (or replaces) the per-item timings of one experiment.
    pub fn record(&mut self, name: impl Into<String>, timings_us: Vec<u64>) {
        let name = name.into();
        match self.experiments.iter_mut().find(|(n, _)| *n == name) {
            Some((_, t)) => *t = timings_us,
            None => self.experiments.push((name, timings_us)),
        }
    }

    /// The recorded timings of `name`, if any.
    pub fn get(&self, name: &str) -> Option<&[u64]> {
        self.experiments.iter().find(|(n, _)| n == name).map(|(_, t)| t.as_slice())
    }

    /// Renders the timing file as JSON.
    pub fn to_json(&self) -> String {
        json::timing_file_to_json(self)
    }

    /// Parses [`TimingFile::to_json`] output.
    pub fn from_json(text: &str) -> Result<TimingFile, String> {
        json::timing_file_from_json(text)
    }
}

/// The items one (possibly partial) run evaluated plus the wall-clock each
/// item took: `items` and `timings_us` are parallel vectors, exactly the
/// payload of a [`ShardFragment`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimedRun {
    /// Item results, sorted by item index.
    pub items: Vec<ItemResult>,
    /// Wall-clock microseconds [`Experiment::run_item`] took for the
    /// corresponding entry of `items` (clamped to at least 1).
    pub timings_us: Vec<u64>,
}

/// The output of one shard of one experiment: the metadata a merge needs to
/// validate coverage plus the item results the shard owns. Serializes to a
/// single JSON line (`figures run --shard K/N` emits one per experiment) and
/// back ([`ShardFragment::from_json`], used by `figures merge`).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardFragment {
    /// Registered experiment name.
    pub experiment: String,
    /// Scale the shard ran at.
    pub scale: Scale,
    /// Seed the shard ran with.
    pub seed: u64,
    /// The `--topo` override spec string the shard ran with, if any. Merges
    /// require all fragments of one experiment to agree on it — the work
    /// item decomposition depends on it.
    pub topo: Option<String>,
    /// The `--traffic` override spec string the shard ran with, if any.
    /// Merges require agreement exactly as for `topo`.
    pub traffic: Option<String>,
    /// Which slice of the work items this fragment holds.
    pub shard: Shard,
    /// Measured wall-clock microseconds per entry of `items` (parallel
    /// vectors; empty only in fragments from builds that predate timing).
    /// `figures launch` aggregates these into the run's [`TimingFile`].
    pub timings_us: Vec<u64>,
    /// The item results, sorted by item index.
    pub items: Vec<ItemResult>,
}

impl ShardFragment {
    /// Renders the fragment as one line of JSON.
    pub fn to_json(&self) -> String {
        json::fragment_to_json(self)
    }

    /// Parses a fragment from [`ShardFragment::to_json`] output.
    pub fn from_json(text: &str) -> Result<ShardFragment, String> {
        json::fragment_from_json(text)
    }
}

/// A named, shardable experiment: one figure or table of the paper.
///
/// Implementations decompose into independent [`WorkItem`]s whose results
/// are pure functions of `(scale, seed, item index)` — never of which
/// process, shard, or thread evaluated them. That contract is what makes
/// [`Experiment::run`], and any partition of the items into [`Shard`]s
/// followed by [`Experiment::merge`], produce identical [`Dataset`]s; the
/// shard-determinism proptest in `crates/core/tests` enforces it for every
/// registered experiment.
pub trait Experiment: Sync {
    /// Registry name (`fig1c`, …, `table1`, `throughput_vs_size`).
    fn name(&self) -> &'static str;

    /// One-line description shown by `figures list`.
    fn describe(&self) -> &'static str;

    /// Whether the experiment's topology axis can be replaced by a
    /// `--topo <spec>` override ([`RunCtx::with_topo`]). True for the
    /// topology-generic metric sweeps (throughput, path length, bisection,
    /// failures); false for the paper figures, whose topology pairings *are*
    /// the experiment.
    fn supports_topo_override(&self) -> bool {
        false
    }

    /// Whether the experiment's workload can be replaced by a
    /// `--traffic <spec>` override ([`RunCtx::with_traffic`]). True for the
    /// experiments that evaluate "a workload against a fabric" generically
    /// (the throughput/failure sweeps and the workload experiments); false
    /// for the paper figures, whose permutation workload *is* the
    /// experiment.
    fn supports_traffic_override(&self) -> bool {
        false
    }

    /// The full, ordered decomposition of this experiment for `ctx`
    /// (`scale`, `seed`, and — for override-capable experiments — `topo`).
    /// Must be cheap (no heavy simulation) and deterministic.
    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem>;

    /// Evaluates one work item. Must be a pure function of
    /// `(ctx.scale, ctx.seed, ctx.topo, item)`.
    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult;

    /// Combines item results (any order; the default sorts by item index and
    /// concatenates with [`Dataset::concat`]). Overrides must stay
    /// order-insensitive in the same way: sort first, then combine.
    fn merge(&self, mut results: Vec<ItemResult>) -> Dataset {
        results.sort_by_key(|r| r.index);
        Dataset::concat(results.into_iter().map(|r| r.data))
    }

    /// Runs every work item (in parallel) and merges: the single-process path.
    fn run(&self, ctx: &RunCtx) -> Dataset {
        self.merge(self.run_items(ctx))
    }

    /// Evaluates every work item in parallel, returning mergeable results
    /// sorted by item index.
    fn run_items(&self, ctx: &RunCtx) -> Vec<ItemResult> {
        self.run_selected_timed(ctx, &|_| true).items
    }

    /// The timing-aware driver everything funnels through: evaluates the
    /// items `selected` accepts (by index) in parallel, recording each
    /// item's wall-clock. The timings are measurement, not data — they vary
    /// run to run and never influence an item result, so sharded outputs
    /// stay byte-identical to single-process runs regardless of them.
    fn run_selected_timed(&self, ctx: &RunCtx, selected: &dyn Fn(usize) -> bool) -> TimedRun {
        let items: Vec<WorkItem> =
            self.work_items(ctx).into_iter().filter(|it| selected(it.index)).collect();
        let mut timed: Vec<(ItemResult, u64)> = items
            .par_iter()
            .map(|item| {
                let start = std::time::Instant::now();
                let result = self.run_item(ctx, item);
                let micros = start.elapsed().as_micros().max(1) as u64;
                (result, micros)
            })
            .collect();
        timed.sort_by_key(|(r, _)| r.index);
        let (items, timings_us) = timed.into_iter().unzip();
        TimedRun { items, timings_us }
    }
}

/// The static registry: the paper's 17 figures/tables in canonical order,
/// followed by the topology-generic metric sweeps and the impaired
/// graceful-degradation sweeps (all of which accept `--topo <spec>`
/// overrides).
pub fn registry() -> &'static [&'static dyn Experiment] {
    use catalog::*;
    use generic::*;
    use impair::*;
    use workload::*;
    static REGISTRY: &[&dyn Experiment] = &[
        &Fig1c,
        &Fig2a,
        &Fig2b,
        &Fig2c,
        &Fig3,
        &Fig4,
        &Fig5,
        &Fig6,
        &Fig7,
        &Fig8,
        &Fig9,
        &Table1,
        &Fig10,
        &Fig11,
        &Fig12,
        &Fig13,
        &Fig14,
        &ThroughputVsSize,
        &PathLength,
        &Bisection,
        &FailureSweep,
        &ThroughputVsLoss,
        &LatencyHistogramExp,
        &ImpairedFailureSweep,
        &ThroughputVsWorkload,
        &FairnessUnderSkew,
        &IncastDegradation,
    ];
    REGISTRY
}

/// Looks up a registered experiment by name.
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    registry().iter().find(|e| e.name() == name).copied()
}

/// The registered experiment names, in canonical order.
pub fn names() -> Vec<&'static str> {
    registry().iter().map(|e| e.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_the_27_experiments_with_unique_names() {
        let names = names();
        assert_eq!(names.len(), 27);
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 27, "duplicate experiment names");
        assert!(find("fig1c").is_some());
        assert!(find("table1").is_some());
        assert!(find("throughput_vs_size").is_some());
        assert!(find("throughput_vs_workload").is_some());
        assert!(find("nope").is_none());
        // Exactly the topology-generic sweeps accept --topo.
        let overridable: Vec<&str> =
            registry().iter().filter(|e| e.supports_topo_override()).map(|e| e.name()).collect();
        assert_eq!(
            overridable,
            [
                "throughput_vs_size",
                "path_length",
                "bisection",
                "failure_sweep",
                "throughput_vs_loss",
                "latency_histogram",
                "impaired_failure_sweep",
                "throughput_vs_workload",
                "fairness_under_skew",
                "incast_degradation"
            ]
        );
        // Exactly the workload-generic experiments accept --traffic.
        let traffic_capable: Vec<&str> =
            registry().iter().filter(|e| e.supports_traffic_override()).map(|e| e.name()).collect();
        assert_eq!(
            traffic_capable,
            [
                "throughput_vs_size",
                "failure_sweep",
                "throughput_vs_workload",
                "fairness_under_skew",
                "incast_degradation"
            ]
        );
    }

    #[test]
    fn snapshot_staleness_is_detectable_and_repairable() {
        use jellyfish_topology::JellyfishBuilder;
        let topo = JellyfishBuilder::new(12, 6, 3).seed(1).build().unwrap();
        let mut snap = Snapshot::new(topo);
        assert!(snap.is_current());
        let links_before = snap.csr.num_edges();
        // Mutate behind the CSR snapshot's back: the hazard this guards.
        let e = snap.topology.graph().edges().next().unwrap();
        snap.topology.disconnect(e.a, e.b);
        assert!(!snap.is_current(), "mutation must invalidate the snapshot");
        assert_eq!(snap.csr.num_edges(), links_before, "stale CSR still has the old link");
        snap.refresh();
        assert!(snap.is_current());
        assert_eq!(snap.csr.num_edges(), links_before - 1);
    }

    #[test]
    fn spec_snapshot_caches_bases_and_transforms_clones() {
        let ctx = RunCtx::new(Scale::Tiny, 7);
        let spec: TopoSpec = "jellyfish:switches=20,ports=8,degree=5".parse().unwrap();
        let a = ctx.spec_snapshot(&spec, 7).unwrap();
        let b = ctx.spec_snapshot(&spec, 7).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same (spec, seed) must share one snapshot");
        let other_seed = ctx.spec_snapshot(&spec, 8).unwrap();
        assert!(!Arc::ptr_eq(&a, &other_seed), "seeds key the cache independently");
        let failed_spec: TopoSpec =
            "jellyfish:switches=20,ports=8,degree=5+fail_links=0.2".parse().unwrap();
        let failed = ctx.spec_snapshot(&failed_spec, 7).unwrap();
        assert!(!Arc::ptr_eq(&a, &failed));
        assert!(failed.is_current());
        assert!(failed.topology.num_links() < a.topology.num_links());
        // The base snapshot is untouched by the transformed build.
        assert!(a.is_current());
        // Infeasible parameters surface as errors, not panics.
        let bad: TopoSpec = "jellyfish:switches=3,ports=12,degree=9".parse().unwrap();
        assert!(ctx.spec_snapshot(&bad, 7).is_err());
    }

    #[test]
    fn concat_merges_meta_first_seen_and_asserts_agreement() {
        let mut a = Dataset::new();
        a.push_meta("topo:x", "jellyfish:switches=4,ports=3,degree=2");
        let mut b = Dataset::new();
        b.push_meta("topo:y", "fattree:k=4");
        b.push_meta("topo:x", "jellyfish:switches=4,ports=3,degree=2");
        let merged = Dataset::concat([a, b]);
        assert_eq!(merged.meta.len(), 2);
        assert_eq!(merged.meta[0].0, "topo:x");
        let tsv = merged.to_tsv();
        assert!(tsv.starts_with(
            "# topo:x\tjellyfish:switches=4,ports=3,degree=2\n# topo:y\tfattree:k=4\n"
        ));
    }

    #[test]
    fn shard_parses_and_partitions() {
        let s: Shard = "2/3".parse().unwrap();
        assert_eq!(s, Shard::new(2, 3).unwrap());
        assert_eq!(s.to_string(), "2/3");
        assert!(!s.owns(0) && s.owns(1) && !s.owns(2) && !s.owns(3) && s.owns(4));
        for bad in ["0/3", "4/3", "1/0", "x/y", "3", "1/2/3", ""] {
            assert!(bad.parse::<Shard>().is_err(), "'{bad}' should not parse");
        }
        // Every item is owned by exactly one shard.
        for n in 1..=5usize {
            for item in 0..17usize {
                let owners = (1..=n).filter(|&k| Shard::new(k, n).unwrap().owns(item)).count();
                assert_eq!(owners, 1);
            }
        }
    }

    #[test]
    fn concat_merges_series_by_label_and_keeps_order() {
        let mut a = Dataset::new();
        a.push_point("jf", 1.0, 0.5);
        a.push_point("ft", 1.0, 0.4);
        let mut b = Dataset::new();
        b.push_point("jf", 2.0, 0.6);
        let merged = Dataset::concat([a, b]);
        assert_eq!(merged.series.len(), 2);
        assert_eq!(merged.series[0].label, "jf");
        assert_eq!(merged.series[0].points, vec![(1.0, 0.5), (2.0, 0.6)]);
        assert_eq!(merged.series[1].points, vec![(1.0, 0.4)]);
    }

    #[test]
    fn tsv_renders_all_three_sections() {
        let mut ds = Dataset::new();
        ds.push_cell("jain", 0.975);
        ds.set_columns(&["config", "servers", "throughput"]);
        ds.push_row("k=4", vec![16.0, 0.91]);
        ds.push_point("Jellyfish", 2.0, 0.25);
        ds.push_point("Fat-tree", 2.0, 0.125);
        let tsv = ds.to_tsv();
        assert!(tsv.contains("jain\t0.975\n"));
        assert!(tsv.contains("config\tservers\tthroughput\nk=4\t16\t0.91\n"));
        assert!(tsv.contains("x\tJellyfish\tFat-tree\n2\t0.25\t0.125\n"));
    }

    #[test]
    fn series_with_nan_x_renders_instead_of_panicking() {
        let mut ds = Dataset::new();
        ds.push_point("a", 2.0, 0.5);
        ds.push_point("a", f64::NAN, 0.25);
        ds.push_point("b", 1.0, 0.75);
        // NaN sorts after every number under `f64::total_cmp`.
        assert_eq!(ds.to_tsv(), "x\ta\tb\n1\t-\t0.75\n2\t0.5\t-\nNaN\t0.25\t-\n");
    }

    #[test]
    fn dataset_json_round_trips_exactly() {
        let mut ds = Dataset::new();
        ds.push_meta("topo:jf", "jellyfish:switches=4,ports=3,degree=2+fail_links=0.05");
        ds.push_cell("odd \"name\"\twith\\escapes", 1.0 / 3.0);
        ds.set_columns(&["c", "v"]);
        ds.push_row("r0", vec![0.1 + 0.2, -4.0, 1e-300]);
        ds.push_point("s", f64::MIN_POSITIVE, 12345678901234.5);
        let back = Dataset::from_json(&ds.to_json()).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn fragment_json_round_trips_exactly() {
        let mut ds = Dataset::new();
        ds.push_point("s", 0.1, 0.2);
        let mut frag = ShardFragment {
            experiment: "fig9".to_string(),
            scale: Scale::Tiny,
            seed: u64::MAX,
            topo: None,
            traffic: None,
            shard: Shard::new(2, 3).unwrap(),
            timings_us: vec![u64::MAX],
            items: vec![ItemResult::new(1, ds)],
        };
        let back = ShardFragment::from_json(&frag.to_json()).unwrap();
        assert_eq!(frag, back);
        frag.topo = Some("leafspine:leaf=6,spine=3,servers=4".to_string());
        frag.traffic = Some("zipf:s=1.2,hot_racks=4+scale_demand=0.5".to_string());
        let back = ShardFragment::from_json(&frag.to_json()).unwrap();
        assert_eq!(frag, back);
        // Timing-free fragments (older builds) still parse; a fragment whose
        // timings disagree with its item count is corrupt and rejected.
        frag.timings_us = Vec::new();
        let back = ShardFragment::from_json(&frag.to_json()).unwrap();
        assert_eq!(frag, back);
        frag.timings_us = vec![1, 2];
        assert!(ShardFragment::from_json(&frag.to_json())
            .unwrap_err()
            .contains("2 timings for 1 items"));
        assert!(ShardFragment::from_json("{\"experiment\":1}").is_err());
        assert!(ShardFragment::from_json("not json").is_err());
    }

    #[test]
    fn striped_plan_matches_shard_ownership() {
        for n in 1..=5usize {
            let plan = WorkPlan::striped(17, n);
            assert_eq!(plan.num_shards(), n);
            for k in 1..=n {
                let shard = Shard::new(k, n).unwrap();
                for index in 0..17 {
                    assert_eq!(plan.owns(shard, index), shard.owns(index));
                }
            }
        }
    }

    #[test]
    fn lpt_plan_balances_by_measured_cost() {
        // One dominant item plus small ones: striping piles the heavy item
        // onto whatever bin its index lands in together with other work; LPT
        // isolates it.
        let timings = [100, 1, 1, 1, 1, 1];
        let plan = WorkPlan::lpt(&timings, 2);
        let heavy = Shard::new(1, 2).unwrap();
        assert_eq!(plan.items_for(heavy), &[0], "heaviest item gets a bin of its own");
        let rest = Shard::new(2, 2).unwrap();
        assert_eq!(plan.items_for(rest), &[1, 2, 3, 4, 5]);
        // Exact partition, deterministic rebuild.
        let mut all: Vec<usize> =
            (1..=2).flat_map(|k| plan.items_for(Shard::new(k, 2).unwrap()).to_vec()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..timings.len()).collect::<Vec<_>>());
        assert_eq!(plan, WorkPlan::lpt(&timings, 2));
    }

    #[test]
    fn plan_falls_back_to_striping_without_matching_timings() {
        let striped = WorkPlan::striped(5, 2);
        assert_eq!(WorkPlan::plan(5, 2, None), striped);
        assert_eq!(WorkPlan::plan(5, 2, Some(&[9, 9, 9])), striped, "stale length: striped");
        let timed = WorkPlan::plan(5, 2, Some(&[50, 1, 1, 1, 1]));
        assert_eq!(timed, WorkPlan::lpt(&[50, 1, 1, 1, 1], 2));
    }

    #[test]
    fn timing_file_records_and_round_trips() {
        let mut tf = TimingFile::new(
            Scale::Tiny,
            7,
            Some("fattree:k=4".to_string()),
            Some("stride:k=3".to_string()),
        );
        tf.record("fig9", vec![3, 1, 4]);
        tf.record("fig8", vec![2, 7]);
        tf.record("fig9", vec![5, 9, 2]);
        assert_eq!(tf.get("fig9"), Some(&[5, 9, 2][..]), "re-recording replaces");
        assert_eq!(tf.get("fig8"), Some(&[2, 7][..]));
        assert_eq!(tf.get("nope"), None);
        let back = TimingFile::from_json(&tf.to_json()).unwrap();
        assert_eq!(tf, back);
        let no_topo = TimingFile::new(Scale::Laptop, u64::MAX, None, None);
        assert_eq!(TimingFile::from_json(&no_topo.to_json()).unwrap(), no_topo);
        assert!(TimingFile::from_json("{}").is_err());
        assert!(TimingFile::from_json("not json").is_err());
    }

    #[test]
    fn run_selected_timed_times_every_selected_item() {
        let exp = find("fig2a").unwrap();
        let ctx = RunCtx::new(Scale::Tiny, 7);
        let n = exp.work_items(&ctx).len();
        let timed = exp.run_selected_timed(&ctx, &|i| i % 2 == 0);
        assert_eq!(timed.items.len(), n.div_ceil(2));
        assert_eq!(timed.items.len(), timed.timings_us.len());
        assert!(timed.items.iter().all(|r| r.index % 2 == 0));
        assert!(timed.timings_us.iter().all(|&t| t >= 1), "timings are clamped non-zero");
        // The timed results are the same item results the untimed path gives.
        let untimed = exp.run_items(&ctx);
        for item in &timed.items {
            assert_eq!(untimed[item.index], *item);
        }
    }
}
