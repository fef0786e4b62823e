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
//! * [`RunSpec`] — the identity of one run: scale, seed and the optional
//!   `--topo` and `--traffic` overrides. It is the one shape a run takes:
//!   the [`RunCtx`], every [`ShardFragment`] and [`TimingFile`], and the
//!   CLI's merged runs and launch configuration each hold one. Its
//!   `Display` is the `figures run` header body, [`RunSpec::args`] the
//!   worker command line, and [`RunSpec::json_members_into`] the wire shape.
//! * [`Shard`] — a `K/N` slice of an experiment's work items. Because every
//!   item derives its randomness from `(run, item)` alone, running the
//!   shards in separate processes and merging the [`ShardFragment`]s is
//!   byte-identical to a single-process [`Experiment::run`].
//! * [`WorkPlan`] — the one rule for which shard owns which items: pure
//!   `K/N` striping ([`WorkPlan::striped`], the `--shard` default), or
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
//! ([`RunSpec::topo`]) that redirects the whole sweep at any registered
//! topology without code changes.
//!
//! The [`RunCtx`] carries the run's [`RunSpec`] plus a memoized
//! topology/CSR-snapshot cache keyed by `(spec, seed)`: items of one
//! experiment that share a base topology (for example the per-fraction
//! failure sweeps of `fig8`) build the [`CsrGraph`] snapshot once per
//! process and share it, and each cache hit is verified against the
//! topology's mutation [generation](Topology::generation) so a stale
//! snapshot can never be served. The cache is an optimization only — every
//! builder is a pure function of `(spec, seed)`, so a shard that rebuilds a
//! snapshot gets bit-identical data. [`RunCtx::session`] opens a live
//! session on a spec's whole transform chain, which the failure sweeps then
//! churn.
//!
//! EXPERIMENTS.md at the repository root indexes the registered experiments
//! (paper figure, scales, output schema).

use crate::figures::{Scale, Series};
use crate::service::Session;
use jellyfish_topology::{CsrGraph, SpecError, TopoSpec, Topology};
use jellyfish_traffic::{FlowStream, ServerMap, TrafficSpec};
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
    /// repeated. A disagreement is an error naming both values.
    pub fn concat<I: IntoIterator<Item = Dataset>>(fragments: I) -> Result<Dataset, ConcatError> {
        let mut out = Dataset::new();
        for frag in fragments {
            for (key, other) in frag.meta {
                match out.meta.iter().find(|(k, _)| *k == key) {
                    Some((_, first)) if *first != other => {
                        return Err(ConcatError::Meta { key, first: first.clone(), other });
                    }
                    Some(_) => {}
                    None => out.meta.push((key, other)),
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
                } else if out.columns != frag.columns {
                    return Err(ConcatError::Columns {
                        first: std::mem::take(&mut out.columns),
                        other: frag.columns,
                    });
                }
            }
            out.rows.extend(frag.rows);
            out.cells.extend(frag.cells);
        }
        Ok(out)
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
    /// shortest round-trip formatting, so a shard fragment's items
    /// ([`ShardFragment::from_json`]) recover them exactly.
    pub fn to_json(&self) -> String {
        json::dataset_to_json(self)
    }
}

/// Shortest round-trip rendering of a value (`3` for 3.0, `0.1` for 0.1).
fn fmt_num(v: f64) -> String {
    format!("{v}")
}

/// Why [`Dataset::concat`] refused its fragments: two of them disagree on
/// what must be shared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConcatError {
    /// Two fragments give one metadata key different values.
    Meta {
        /// The metadata key.
        key: String,
        /// The value the first fragment to set the key gave.
        first: String,
        /// The value a later fragment gave.
        other: String,
    },
    /// Two fragments set different table column headers.
    Columns {
        /// The headers the first fragment to set them gave.
        first: Vec<String>,
        /// The headers a later fragment gave.
        other: Vec<String>,
    },
}

impl fmt::Display for ConcatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConcatError::Meta { key, first, other } => {
                write!(f, "fragments disagree on metadata '{key}' ('{first}' vs '{other}')")
            }
            ConcatError::Columns { first, other } => {
                write!(f, "fragments disagree on table columns ({first:?} vs {other:?})")
            }
        }
    }
}

impl std::error::Error for ConcatError {}

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

/// The identity of one run: everything an item result depends on besides
/// the item itself. Every record of a run holds one — the [`RunCtx`], each
/// [`ShardFragment`] and [`TimingFile`] — so a new member of a run is one
/// field here, rendered by [`Display`](fmt::Display) (the `figures run`
/// header body, `scale: S, seed: N[, topo: T][, traffic: W]`),
/// [`RunSpec::args`] (the flags a worker is launched with) and
/// [`RunSpec::json_members_into`] (the wire shape). The spec parsers reject
/// non-finite numbers, so the derived equality is exact.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Instance-size preset.
    pub scale: Scale,
    /// Base seed; items derive their own sub-seeds from it deterministically.
    pub seed: u64,
    /// The `--topo` override: experiments whose
    /// [`Experiment::supports_topo_override`] is true evaluate this spec
    /// instead of their built-in topology axis.
    pub topo: Option<TopoSpec>,
    /// The `--traffic` override: experiments whose
    /// [`Experiment::supports_traffic_override`] is true evaluate this
    /// workload instead of their built-in one.
    pub traffic: Option<TrafficSpec>,
}

impl RunSpec {
    /// A `(scale, seed)` run without overrides.
    pub fn new(scale: Scale, seed: u64) -> Self {
        RunSpec { scale, seed, topo: None, traffic: None }
    }

    /// Sets the `--topo` override (builder style).
    pub fn with_topo(mut self, spec: TopoSpec) -> Self {
        self.topo = Some(spec);
        self
    }

    /// Sets the `--traffic` override (builder style).
    pub fn with_traffic(mut self, spec: TrafficSpec) -> Self {
        self.traffic = Some(spec);
        self
    }

    /// The `figures run` flags that reproduce this run:
    /// `--scale S --seed N [--topo T] [--traffic W]`.
    pub fn args(&self) -> Vec<String> {
        self.flags().into_iter().flat_map(|(name, value)| [format!("--{name}"), value]).collect()
    }

    /// Appends the run's JSON members, `"scale":"S","seed":N,"topo":T,
    /// "traffic":W` with absent overrides as `null`: the one wire shape of a
    /// run in shard fragments, `timings.json` and `figures run --json`.
    pub fn json_members_into(&self, out: &mut String) {
        json::run_members_into(out, self);
    }

    /// `(flag, value)` per member, absent overrides left out: the one list
    /// the header body and the flags both render, which is what lets a
    /// header be parsed back into the command that printed it.
    fn flags(&self) -> Vec<(&'static str, String)> {
        let mut flags = vec![("scale", self.scale.to_string()), ("seed", self.seed.to_string())];
        if let Some(spec) = &self.topo {
            flags.push(("topo", spec.to_string()));
        }
        if let Some(spec) = &self.traffic {
            flags.push(("traffic", spec.to_string()));
        }
        flags
    }
}

impl fmt::Display for RunSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, value)) in self.flags().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}{name}: {value}")?;
        }
        Ok(())
    }
}

/// Per-run context handed to [`Experiment::run_item`]: the run's
/// [`RunSpec`], plus a process-local memo of CSR-backed topology snapshots
/// keyed by `(spec, seed)`.
#[derive(Debug)]
pub struct RunCtx {
    /// The run every item evaluated under this context belongs to.
    pub run: RunSpec,
    cache: Mutex<HashMap<(String, u64), Arc<Snapshot>>>,
}

impl RunCtx {
    /// Creates a context for one run.
    pub fn new(run: RunSpec) -> Self {
        RunCtx { run, cache: Mutex::new(HashMap::new()) }
    }

    /// The workload a traffic-capable experiment should evaluate: the
    /// `--traffic` override when one is set, the paper's random-permutation
    /// workload otherwise. `seed` is the experiment's item-derived workload
    /// seed; both come from the same spec build, so an explicit
    /// `--traffic permutation` is byte-identical to no override.
    pub fn workload(&self, servers: &ServerMap, seed: u64) -> FlowStream {
        let spec = self.run.traffic.clone().unwrap_or_else(TrafficSpec::permutation);
        spec.stream(servers, seed)
            .unwrap_or_else(|e| panic!("--traffic '{spec}' does not build for this topology: {e}"))
    }

    /// Returns the memoized snapshot of `spec` built with `seed` (which may
    /// differ from the run seed: some experiments derive per-topology
    /// seeds). Only the transform-free [`TopoSpec::base`] is cached — items
    /// that share a base but apply different failure/expansion transforms
    /// (e.g. one failure sweep) build it once and transform clones.
    pub fn spec_snapshot(&self, spec: &TopoSpec, seed: u64) -> Result<Arc<Snapshot>, SpecError> {
        let base = self.base_snapshot(spec, seed)?;
        if spec.transforms().is_empty() {
            return Ok(base);
        }
        Ok(Arc::new(Snapshot::new(transformed(&base.topology, spec, seed)?)))
    }

    /// Opens a live [`Session`] on the topology of `spec` built with `seed`,
    /// its whole transform chain applied to a clone of the memoized base.
    /// Churn applied to it with the same seed reproduces
    /// [`RunCtx::spec_snapshot`] of `spec` with those transforms appended:
    /// both call [`ScenarioTransform::apply`](jellyfish_topology::spec::ScenarioTransform::apply)
    /// with `seed`, in chain order, on the same topology. The session
    /// builds its own CSR, so no snapshot of the transformed topology is
    /// taken here. It inherits the run's `--traffic` override.
    pub fn session(&self, spec: &TopoSpec, seed: u64) -> Result<Session, SpecError> {
        let topology = transformed(&self.base_snapshot(spec, seed)?.topology, spec, seed)?;
        Ok(Session::new(topology, seed).with_traffic(self.run.traffic.clone()))
    }

    /// The memoized snapshot of `spec`'s transform-free base.
    fn base_snapshot(&self, spec: &TopoSpec, seed: u64) -> Result<Arc<Snapshot>, SpecError> {
        let key = (spec.base().to_string(), seed);
        if let Some(snap) = self.lookup(&key) {
            return Ok(snap);
        }
        // Build outside the memo lock so errors propagate instead of
        // panicking inside it.
        let topology = spec.base().build(seed)?;
        Ok(self.insert(key, topology))
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

/// A clone of `base` with `spec`'s transform chain applied.
fn transformed(base: &Topology, spec: &TopoSpec, seed: u64) -> Result<Topology, SpecError> {
    let mut topology = base.clone();
    spec.apply_transforms(&mut topology, seed)?;
    Ok(topology)
}

/// A `K/N` slice of an experiment's work items (1-based `K`). Which items
/// the slice owns is the [`WorkPlan`]'s to say.
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

/// How an experiment's work items are partitioned across `N` shards: the one
/// rule for which [`Shard`] owns which item.
///
/// [`WorkPlan::striped`] is the `--shard K/N` default; [`WorkPlan::lpt`]
/// bin-packs items by measured per-item cost
/// (longest-processing-time-first greedy) so a prior run's [`TimingFile`]
/// balances the next run. Both produce exact partitions —
/// every item lands in exactly one bin — which is what keeps the
/// `figures merge` coverage validation independent of the partitioner that
/// produced the fragments.
///
/// Under both rules the `j`-th item placed lands in one of the first `j + 1`
/// bins, so a plan stores only the first `min(num_shards, num_items)` bins
/// and every shard past them owns nothing: `--shard 1/N` costs memory in
/// the item count, not in `N`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkPlan {
    num_shards: usize,
    bins: Vec<Vec<usize>>,
}

impl WorkPlan {
    /// The striping partition: bin `K` owns every index congruent to
    /// `K - 1` modulo `num_shards`.
    pub fn striped(num_items: usize, num_shards: usize) -> WorkPlan {
        assert!(num_shards > 0, "a work plan needs at least one shard");
        let mut bins = vec![Vec::new(); num_shards.min(num_items)];
        for index in 0..num_items {
            bins[index % num_shards].push(index);
        }
        WorkPlan { num_shards, bins }
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
        // The j-th item placed finds bin j still empty, so the least-loaded
        // bin (ties to the lowest index) is never past the item count.
        let num_bins = num_shards.min(timings_us.len());
        let mut bins = vec![Vec::new(); num_bins];
        let mut loads = vec![0u128; num_bins];
        for index in order {
            let mut best = 0;
            for bin in 1..num_bins {
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
        WorkPlan { num_shards, bins }
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

    /// Number of shards this plan partitions into.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The item indices shard `K/N` owns under this plan, ascending (empty
    /// for a `K` past the item count); panics when the plan was built for a
    /// different shard count.
    pub fn items_for(&self, shard: Shard) -> &[usize] {
        assert_eq!(
            shard.count, self.num_shards,
            "work plan was built for {} shards, asked for shard {shard}",
            self.num_shards
        );
        self.bins.get(shard.index - 1).map_or(&[], Vec::as_slice)
    }

    /// Whether `index` belongs to `shard` under this plan.
    pub fn owns(&self, shard: Shard, index: usize) -> bool {
        self.items_for(shard).binary_search(&index).is_ok()
    }
}

/// The measured per-item wall-clock of one prior run, keyed by experiment:
/// what `figures launch` writes as `timings.json` into its run directory and
/// what `figures run/launch --plan <file>` feeds back into [`WorkPlan::plan`]
/// for timing-aware load balancing. `run` records the run the measurements
/// came from; workers fall back to striping when it differs from the current
/// run in anything but the seed (the item decomposition may differ).
#[derive(Debug, Clone, PartialEq)]
pub struct TimingFile {
    /// The measured run.
    pub run: RunSpec,
    /// Per-experiment measurements: `timings_us[i]` is the wall-clock of
    /// work item `i` in microseconds.
    pub experiments: Vec<(String, Vec<u64>)>,
}

impl TimingFile {
    /// An empty timing file for `run`.
    pub fn new(run: RunSpec) -> Self {
        TimingFile { run, experiments: Vec::new() }
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
    /// The run the shard belongs to. Merges require all fragments of one
    /// experiment to agree on it — the work-item decomposition depends on
    /// it.
    pub run: RunSpec,
    /// Which slice of the work items this fragment holds.
    pub shard: Shard,
    /// Measured wall-clock microseconds per entry of `items` (parallel
    /// vectors; [`ShardFragment::from_json`] rejects a fragment where their
    /// lengths differ). `figures launch` aggregates these into the run's
    /// [`TimingFile`].
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
/// are pure functions of `(run, item index)` — never of which
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
    /// `--topo <spec>` override ([`RunSpec::topo`]). True for the
    /// topology-generic metric sweeps (throughput, path length, bisection,
    /// failures); false for the paper figures, whose topology pairings *are*
    /// the experiment.
    fn supports_topo_override(&self) -> bool {
        false
    }

    /// Whether the experiment's workload can be replaced by a
    /// `--traffic <spec>` override ([`RunSpec::traffic`]). True for the
    /// experiments that evaluate "a workload against a fabric" generically
    /// (the throughput/failure sweeps and the workload experiments); false
    /// for the paper figures, whose permutation workload *is* the
    /// experiment.
    fn supports_traffic_override(&self) -> bool {
        false
    }

    /// The full, ordered decomposition of this experiment for `ctx.run`
    /// (its scale and seed and, for override-capable experiments, its
    /// overrides). Must be cheap (no heavy simulation) and deterministic.
    fn work_items(&self, ctx: &RunCtx) -> Vec<WorkItem>;

    /// Evaluates one work item. Must be a pure function of
    /// `(ctx.run, item)`.
    fn run_item(&self, ctx: &RunCtx, item: &WorkItem) -> ItemResult;

    /// Combines item results (any order; the default sorts by item index and
    /// concatenates with [`Dataset::concat`], whose error it returns).
    /// Overrides must stay order-insensitive in the same way: sort first,
    /// then combine.
    fn merge(&self, mut results: Vec<ItemResult>) -> Result<Dataset, ConcatError> {
        results.sort_by_key(|r| r.index);
        Dataset::concat(results.into_iter().map(|r| r.data))
    }

    /// Runs every work item (in parallel) and merges: the single-process
    /// path. Items of one run that disagree on metadata or columns are a bug
    /// in the experiment, so this panics naming it.
    fn run(&self, ctx: &RunCtx) -> Dataset {
        self.merge(self.run_selected_timed(ctx, &|_| true).items)
            .unwrap_or_else(|e| panic!("{}: {e}", self.name()))
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
                #[expect(
                    clippy::disallowed_methods,
                    reason = "D02: the item's wall-clock goes to `timings_us`, never into its result"
                )]
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
        let ctx = RunCtx::new(RunSpec::new(Scale::Tiny, 7));
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
        let merged = Dataset::concat([a, b]).unwrap();
        assert_eq!(merged.meta.len(), 2);
        assert_eq!(merged.meta[0].0, "topo:x");
        let tsv = merged.to_tsv();
        assert!(tsv.starts_with(
            "# topo:x\tjellyfish:switches=4,ports=3,degree=2\n# topo:y\tfattree:k=4\n"
        ));
    }

    #[test]
    fn concat_refuses_fragments_that_disagree_on_metadata() {
        let fragment = |spec: &str| {
            let mut ds = Dataset::new();
            ds.push_meta("topo:fat-tree", spec);
            ds.push_point("ft", 1.0, 0.5);
            ds
        };
        let err = Dataset::concat([fragment("fattree:k=6"), fragment("fattree:k=8")]).unwrap_err();
        assert_eq!(
            err,
            ConcatError::Meta {
                key: "topo:fat-tree".into(),
                first: "fattree:k=6".into(),
                other: "fattree:k=8".into()
            }
        );
        assert_eq!(
            err.to_string(),
            "fragments disagree on metadata 'topo:fat-tree' ('fattree:k=6' vs 'fattree:k=8')"
        );
    }

    #[test]
    fn concat_refuses_fragments_that_disagree_on_columns() {
        let fragment = |columns: &[&str]| {
            let mut ds = Dataset::new();
            ds.set_columns(columns);
            ds.push_row("k=4", vec![0.5]);
            ds
        };
        // A fragment without columns agrees with any.
        let merged = Dataset::concat([fragment(&["config", "x"]), Dataset::new()]).unwrap();
        assert_eq!(merged.columns, ["config", "x"]);
        let err =
            Dataset::concat([fragment(&["config", "x"]), fragment(&["config", "y"])]).unwrap_err();
        assert_eq!(
            err,
            ConcatError::Columns {
                first: vec!["config".into(), "x".into()],
                other: vec!["config".into(), "y".into()]
            }
        );
        assert_eq!(
            err.to_string(),
            "fragments disagree on table columns ([\"config\", \"x\"] vs [\"config\", \"y\"])"
        );
    }

    #[test]
    fn shard_parses_and_partitions() {
        let s: Shard = "2/3".parse().unwrap();
        assert_eq!(s, Shard::new(2, 3).unwrap());
        assert_eq!(s.to_string(), "2/3");
        let striped = WorkPlan::striped(5, 3);
        assert_eq!(striped.num_shards(), 3);
        assert_eq!(striped.items_for(s), &[1, 4]);
        for bad in ["0/3", "4/3", "1/0", "x/y", "3", "1/2/3", ""] {
            assert!(bad.parse::<Shard>().is_err(), "'{bad}' should not parse");
        }
        // Every item is owned by exactly one shard.
        for n in 1..=5usize {
            let plan = WorkPlan::striped(17, n);
            for item in 0..17usize {
                let owners =
                    (1..=n).filter(|&k| plan.owns(Shard::new(k, n).unwrap(), item)).count();
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
        let merged = Dataset::concat([a, b]).unwrap();
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
        // Every dataset member, with escapes in names and extreme values,
        // read back through the fragment reader (the only dataset reader).
        let mut ds = Dataset::new();
        ds.push_meta("topo:jf", "jellyfish:switches=4,ports=3,degree=2+fail_links=0.05");
        ds.push_cell("odd \"name\"\twith\\escapes", 1.0 / 3.0);
        ds.set_columns(&["c", "v"]);
        ds.push_row("r0", vec![0.1 + 0.2, -4.0, 1e-300]);
        ds.push_point("s", f64::MIN_POSITIVE, 12345678901234.5);
        let frag = ShardFragment {
            experiment: "fig9".to_string(),
            run: RunSpec::new(Scale::Tiny, 1),
            shard: Shard::new(1, 1).unwrap(),
            timings_us: vec![0],
            items: vec![ItemResult::new(0, ds.clone())],
        };
        let back = ShardFragment::from_json(&frag.to_json()).unwrap();
        assert_eq!(back.items.len(), 1);
        assert_eq!(ds, back.items[0].data);
    }

    #[test]
    fn fragment_json_round_trips_exactly() {
        let mut ds = Dataset::new();
        ds.push_point("s", 0.1, 0.2);
        let mut frag = ShardFragment {
            experiment: "fig9".to_string(),
            run: RunSpec::new(Scale::Tiny, u64::MAX),
            shard: Shard::new(2, 3).unwrap(),
            timings_us: vec![u64::MAX],
            items: vec![ItemResult::new(1, ds)],
        };
        let back = ShardFragment::from_json(&frag.to_json()).unwrap();
        assert_eq!(frag, back);
        frag.run.topo = Some("leafspine:leaf=6,spine=3,servers=4".parse().unwrap());
        frag.run.traffic = Some("zipf:s=1.2,hot_racks=4+scale_demand=0.5".parse().unwrap());
        let back = ShardFragment::from_json(&frag.to_json()).unwrap();
        assert_eq!(frag, back);
        // A fragment whose timings disagree with its item count is corrupt
        // and rejected.
        frag.timings_us = vec![1, 2];
        assert!(ShardFragment::from_json(&frag.to_json())
            .unwrap_err()
            .contains("2 timings for 1 items"));
        assert!(ShardFragment::from_json("{\"experiment\":1}").is_err());
        assert!(ShardFragment::from_json("not json").is_err());
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
    fn plans_allocate_bins_by_item_count_not_shard_count() {
        let n = usize::MAX;
        let shard = |k| Shard::new(k, n).unwrap();
        let striped = WorkPlan::striped(5, n);
        assert_eq!(striped.num_shards(), n);
        for item in 0..5 {
            assert_eq!(striped.items_for(shard(item + 1)), &[item]);
        }
        assert!(striped.items_for(shard(6)).is_empty());
        assert!(striped.items_for(shard(n)).is_empty());
        let lpt = WorkPlan::lpt(&[3, 1, 2], n);
        assert_eq!(lpt.items_for(shard(1)), &[0]);
        assert_eq!(lpt.items_for(shard(2)), &[2]);
        assert_eq!(lpt.items_for(shard(3)), &[1]);
        assert!(lpt.items_for(shard(4)).is_empty());
        assert!(lpt.items_for(shard(n)).is_empty());
    }

    #[test]
    fn timing_file_records_and_round_trips() {
        let mut tf = TimingFile::new(
            RunSpec::new(Scale::Tiny, 7)
                .with_topo("fattree:k=4".parse().unwrap())
                .with_traffic("stride:k=3".parse().unwrap()),
        );
        tf.record("fig9", vec![3, 1, 4]);
        tf.record("fig8", vec![2, 7]);
        tf.record("fig9", vec![5, 9, 2]);
        assert_eq!(tf.get("fig9"), Some(&[5, 9, 2][..]), "re-recording replaces");
        assert_eq!(tf.get("fig8"), Some(&[2, 7][..]));
        assert_eq!(tf.get("nope"), None);
        let back = TimingFile::from_json(&tf.to_json()).unwrap();
        assert_eq!(tf, back);
        let no_topo = TimingFile::new(RunSpec::new(Scale::Laptop, u64::MAX));
        assert_eq!(TimingFile::from_json(&no_topo.to_json()).unwrap(), no_topo);
        assert!(TimingFile::from_json("{}").is_err());
        assert!(TimingFile::from_json("not json").is_err());
    }

    #[test]
    fn run_selected_timed_times_every_selected_item() {
        let exp = find("fig2a").unwrap();
        let ctx = RunCtx::new(RunSpec::new(Scale::Tiny, 7));
        let n = exp.work_items(&ctx).len();
        let timed = exp.run_selected_timed(&ctx, &|i| i % 2 == 0);
        assert_eq!(timed.items.len(), n.div_ceil(2));
        assert_eq!(timed.items.len(), timed.timings_us.len());
        assert!(timed.items.iter().all(|r| r.index % 2 == 0));
        assert!(timed.timings_us.iter().all(|&t| t >= 1), "timings are clamped non-zero");
        // The selected results are the same item results a full run gives.
        let all = exp.run_selected_timed(&ctx, &|_| true).items;
        for item in &timed.items {
            assert_eq!(all[item.index], *item);
        }
    }

    #[test]
    fn run_records_without_every_member_are_rejected() {
        let tf = TimingFile::new(RunSpec::new(Scale::Tiny, 7));
        let frag = ShardFragment {
            experiment: "fig9".to_string(),
            run: RunSpec::new(Scale::Tiny, 7),
            shard: Shard::new(1, 1).unwrap(),
            timings_us: vec![3],
            items: vec![ItemResult::new(0, Dataset::new())],
        };
        for key in ["scale", "seed", "topo", "traffic"] {
            let needle = format!("\"{key}\":");
            let drop = |text: String| {
                let start = text.find(&needle).unwrap();
                let end = start + text[start..].find(',').unwrap() + 1;
                format!("{}{}", &text[..start], &text[end..])
            };
            let err = TimingFile::from_json(&drop(tf.to_json())).unwrap_err();
            assert!(err.contains(&format!("missing key '{key}'")), "{key}: {err}");
            let err = ShardFragment::from_json(&drop(frag.to_json())).unwrap_err();
            assert!(err.contains(&format!("missing key '{key}'")), "{key}: {err}");
        }
        let no_timings = frag.to_json().replace("\"timings_us\":[3],", "");
        let err = ShardFragment::from_json(&no_timings).unwrap_err();
        assert!(err.contains("missing key 'timings_us'"), "{err}");
        let no_meta = frag.to_json().replace("\"meta\":[],", "");
        let err = ShardFragment::from_json(&no_meta).unwrap_err();
        assert!(err.contains("missing key 'meta'"), "{err}");
        let bad_topo = frag.to_json().replace("\"topo\":null", "\"topo\":\"fattree:k=\"");
        let err = ShardFragment::from_json(&bad_topo).unwrap_err();
        assert!(err.contains("unparsable topo spec 'fattree:k='"), "{err}");
        let bad_traffic = tf.to_json().replace("\"traffic\":null", "\"traffic\":\"nope\"");
        let err = TimingFile::from_json(&bad_traffic).unwrap_err();
        assert!(err.contains("unparsable traffic spec 'nope'"), "{err}");
    }

    #[test]
    fn session_churn_reproduces_the_snapshot_of_the_whole_chain() {
        use crate::service::ChurnEvent;
        use jellyfish_topology::spec::ScenarioTransform;
        let ctx = RunCtx::new(RunSpec::new(Scale::Tiny, 7));
        let bare = "jellyfish:switches=16,ports=8,degree=5";
        let specs = [
            bare.to_string(),
            format!("{bare}+fail_switches=0.5"),
            format!("{bare}+expand=4"),
            "fattree:k=4+degrade_uniform=0.1".to_string(),
        ];
        for raw in specs {
            let spec: TopoSpec = raw.parse().unwrap();
            for f in [0.0, 0.1, 0.2] {
                let mut session = ctx.session(&spec, 7).unwrap();
                session.apply(&ChurnEvent::FailLinks { fraction: f }).unwrap();
                let chained = spec.clone().with_transform(ScenarioTransform::FailLinks(f));
                let offline = ctx.spec_snapshot(&chained, 7).unwrap();
                let live = session.topology();
                assert_eq!(
                    live.graph().edges().collect::<Vec<_>>(),
                    offline.topology.graph().edges().collect::<Vec<_>>(),
                    "{chained}: the session's links differ from the snapshot's"
                );
                assert_eq!(
                    live.total_servers(),
                    offline.topology.total_servers(),
                    "{chained}: the session's servers differ from the snapshot's"
                );
            }
        }
    }
}
