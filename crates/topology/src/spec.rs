//! First-class topology specifications: every generator in this crate as a
//! parseable, round-trippable spec string, plus composable scenario
//! transforms.
//!
//! The paper's evaluation is comparative — Jellyfish against fat-trees,
//! small-world lattices, degree-diameter graphs, leaf-spine Clos — and the
//! experiment pipeline wants to point any metric at any topology without
//! code changes. A [`TopoSpec`] is that currency:
//!
//! ```text
//! spec      := generator [":" key "=" value ("," key "=" value)*] transform*
//! transform := "+" name "=" value
//! ```
//!
//! Examples (see TOPOLOGIES.md at the repository root for the full grammar):
//!
//! ```text
//! jellyfish:switches=245,ports=14,degree=11
//! jellyfish:switches=125,ports=10,servers_total=250
//! fattree:k=14
//! swdc:lattice=torus2d,n=256,servers=2
//! dd:config=3,servers=2
//! leafspine:leaf=16,spine=8,servers=8
//! jellyfish:switches=80,ports=12,degree=8+fail_links=0.08+expand=4
//! ```
//!
//! A spec resolves through the [`GeneratorRegistry`] of
//! [`TopologyGenerator`] trait objects, then applies its
//! [`ScenarioTransform`] chain (failure injection and incremental expansion,
//! wrapping [`crate::failures`] and [`crate::expansion`]). Construction is a
//! pure function of `(spec, seed)`:
//! [`TopoSpec::build`] with the same arguments always yields the same
//! topology, which is what lets sharded experiment sweeps record spec
//! strings and still merge byte-identically.
//!
//! Parse and display round-trip exactly: `parse(display(spec)) == spec` for
//! every representable spec (property-tested in `tests/spec_roundtrip.rs`).
//!
//! The grammar itself — [`split_spec`], [`write_spec`], [`Params`] and
//! [`SpecError`] — is shared with the traffic crate's workload specs, which
//! differ from topology specs only in their registry and transforms.

use crate::clos::ClosConfig;
use crate::csr::EdgeDelta;
use crate::degree_diameter::{optimized_graph, AnnealParams, FIGURE3_CONFIGS};
use crate::expansion::add_racks;
use crate::failures::{fail_random_links, fail_random_switches};
use crate::fattree::FatTree;
use crate::graph::{Edge, NodeId};
use crate::rrg::{build_heterogeneous, JellyfishBuilder};
use crate::swdc::{Lattice, SwdcBuilder};
use crate::topology::{Topology, TopologyError};
use std::fmt;
use std::str::FromStr;

// ----------------------------------------------------------------- grammar

/// Errors from parsing or resolving a spec string.
///
/// Topology specs and the traffic crate's workload specs share this grammar
/// and this error. Each kind fills the unknown-name variants from its own
/// registry, so every message lists that kind's valid choices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The spec string does not match the grammar.
    Syntax(String),
    /// The generator name is not registered.
    UnknownGenerator {
        /// The generator the spec names.
        name: String,
        /// The registered generator names, comma-separated.
        registered: String,
    },
    /// The transform name is not registered.
    UnknownTransform {
        /// The transform the spec names.
        name: String,
        /// The grammar of the registered transforms.
        registered: &'static str,
    },
    /// A parameter is missing, duplicated, unknown, or has a bad value.
    Param(String),
    /// The generator or a transform failed to build; the cause as text.
    Build(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Syntax(m) => write!(f, "bad spec syntax: {m}"),
            SpecError::UnknownGenerator { name, registered } => {
                write!(f, "unknown generator '{name}': registered generators are {registered}")
            }
            SpecError::UnknownTransform { name, registered } => {
                write!(f, "unknown transform '{name}': registered transforms are {registered}")
            }
            SpecError::Param(m) => write!(f, "bad parameter: {m}"),
            SpecError::Build(m) => write!(f, "cannot build: {m}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<TopologyError> for SpecError {
    fn from(e: TopologyError) -> Self {
        SpecError::Build(e.to_string())
    }
}

/// Ordered `key=value` parameters of a spec's generator segment.
///
/// Order is preserved from the parsed string (and from `with_param` calls),
/// which is what makes display a faithful inverse of parse. `Display`
/// prints the `:k=v,k=v` suffix, or nothing when there are no parameters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Params {
    pairs: Vec<(String, String)>,
}

impl Params {
    /// No parameters.
    pub fn new() -> Self {
        Params::default()
    }

    /// The raw `(key, value)` pairs in spec order.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.pairs
    }

    /// Appends a pair (keeps insertion order).
    pub fn push(&mut self, key: impl Into<String>, value: impl ToString) {
        self.pairs.push((key.into(), value.to_string()));
    }

    /// The raw value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Rejects duplicate keys and keys outside `allowed`.
    pub fn check_keys(&self, generator: &str, allowed: &[&str]) -> Result<(), SpecError> {
        for (i, (k, _)) in self.pairs.iter().enumerate() {
            if !allowed.contains(&k.as_str()) {
                return Err(SpecError::Param(format!(
                    "{generator} does not take '{k}': known keys are {}",
                    if allowed.is_empty() { "(none)".to_string() } else { allowed.join(", ") }
                )));
            }
            if self.pairs[..i].iter().any(|(prev, _)| prev == k) {
                return Err(SpecError::Param(format!("duplicate key '{k}'")));
            }
        }
        Ok(())
    }

    /// Parses `key` as `usize`, if present.
    pub fn usize_opt(&self, key: &str) -> Result<Option<usize>, SpecError> {
        match self.get(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| SpecError::Param(format!("'{key}={raw}' is not an unsigned integer"))),
        }
    }

    /// Parses the required `key` as `usize`.
    pub fn usize(&self, key: &str) -> Result<usize, SpecError> {
        self.usize_opt(key)?.ok_or_else(|| missing(key))
    }

    /// Parses `key` as a finite `f64`, if present.
    pub fn f64_opt(&self, key: &str) -> Result<Option<f64>, SpecError> {
        match self.get(key) {
            None => Ok(None),
            Some(raw) => match raw.parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(Some(v)),
                _ => Err(SpecError::Param(format!("'{key}={raw}' is not a finite number"))),
            },
        }
    }

    /// Parses the required `key` as a finite `f64`.
    pub fn f64(&self, key: &str) -> Result<f64, SpecError> {
        self.f64_opt(key)?.ok_or_else(|| missing(key))
    }
}

fn missing(key: &str) -> SpecError {
    SpecError::Param(format!("missing required key '{key}'"))
}

impl fmt::Display for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            write!(f, "{}{k}={v}", if i == 0 { ':' } else { ',' })?;
        }
        Ok(())
    }
}

/// Splits a spec string into its generator name, its parameters and its
/// transform segments (each still `name=value`), checking the syntax of
/// the grammar in the module docs. Resolving the names is the caller's
/// registry's job.
pub fn split_spec(s: &str) -> Result<(&str, Params, Vec<&str>), SpecError> {
    let s = s.trim();
    if s.is_empty() {
        return Err(SpecError::Syntax("empty spec".into()));
    }
    let mut segments = s.split('+');
    let head = segments.next().expect("split yields at least one segment");
    let (generator, raw_params) = match head.split_once(':') {
        Some((g, p)) => (g, Some(p)),
        None => (head, None),
    };
    if generator.is_empty() {
        return Err(SpecError::Syntax(format!("'{s}' has no generator name")));
    }
    let mut params = Params::new();
    if let Some(raw) = raw_params {
        if raw.is_empty() {
            return Err(SpecError::Syntax(format!("'{head}' has ':' but no parameters")));
        }
        for pair in raw.split(',') {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| SpecError::Syntax(format!("'{pair}' is not key=value")))?;
            if k.is_empty() || v.is_empty() {
                return Err(SpecError::Syntax(format!("'{pair}' has an empty key or value")));
            }
            params.push(k, v);
        }
    }
    Ok((generator, params, segments.collect()))
}

/// Splits one transform segment into its name and value.
pub fn split_transform(segment: &str) -> Result<(&str, &str), SpecError> {
    segment
        .split_once('=')
        .ok_or_else(|| SpecError::Syntax(format!("transform '{segment}' is not name=value")))
}

/// Writes `generator[:k=v,...](+transform)*`, the inverse of [`split_spec`].
pub fn write_spec<T: fmt::Display>(
    f: &mut fmt::Formatter<'_>,
    generator: &str,
    params: &Params,
    transforms: &[T],
) -> fmt::Result {
    write!(f, "{generator}{params}")?;
    for t in transforms {
        write!(f, "+{t}")?;
    }
    Ok(())
}

/// Folds `v` into the seed `h`: how spec layers derive per-transform and
/// per-component seeds from one build seed.
pub fn mix64(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

// -------------------------------------------------------------- impairment

/// Distribution of per-packet latency jitter in an [`ImpairConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JitterDist {
    /// Uniform on `[0, jitter_ms)` (the default).
    #[default]
    Uniform,
    /// Exponential with mean `jitter_ms` (heavy-ish tail).
    Exp,
}

impl JitterDist {
    /// The spec-string token (`uniform` / `exp`).
    pub fn token(self) -> &'static str {
        match self {
            JitterDist::Uniform => "uniform",
            JitterDist::Exp => "exp",
        }
    }
}

/// Per-link impairment parameters carried by the `+impair=` transform.
///
/// Unlike the other transforms this does not rewrite the topology: it rides
/// on the spec into the simulation layer, where `jellyfish-sim` attaches a
/// deterministic per-link impairment model to every link. The grammar is a
/// comma-separated list of `key:value` items (`:`/`/` inside a transform
/// value are fine — specs split on `+` first):
///
/// ```text
/// +impair=loss:0.01,jitter_ms:5,ge:0.9/0.1,queue:64
/// ```
///
/// | key         | value                  | semantics                                        |
/// |-------------|------------------------|--------------------------------------------------|
/// | `loss`      | fraction               | i.i.d. per-packet wire loss probability          |
/// | `ge`        | `p/r`, both fractions  | Gilbert–Elliott burst loss: P(good→bad)/P(bad→good) per packet; packets sent in the bad state are lost |
/// | `jitter_ms` | milliseconds ≥ 0       | extra per-packet propagation delay               |
/// | `jdist`     | `uniform` \| `exp`     | jitter distribution (default `uniform`)          |
/// | `reorder`   | fraction               | probability a delivered packet is held back behind its successor |
/// | `dup`       | fraction               | probability a delivered packet is duplicated     |
/// | `queue`     | packets                | overrides the link's drop-tail queue capacity    |
///
/// Every field defaults to "off"; `Display` prints only the non-default
/// fields in the canonical order above (an all-default config prints as
/// `loss:0` so the transform still round-trips).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ImpairConfig {
    /// I.i.d. per-packet loss probability on the wire.
    pub loss: f64,
    /// Gilbert–Elliott P(good → bad) per packet.
    pub ge_good_to_bad: f64,
    /// Gilbert–Elliott P(bad → good) per packet.
    pub ge_bad_to_good: f64,
    /// Mean/bound of the extra per-packet latency, in milliseconds.
    pub jitter_ms: f64,
    /// Distribution of the jitter.
    pub jitter_dist: JitterDist,
    /// Probability a delivered packet is reordered behind its successor.
    pub reorder: f64,
    /// Probability a delivered packet is duplicated.
    pub duplicate: f64,
    /// Drop-tail queue capacity override (packets); `None` keeps the link's
    /// configured buffer.
    pub queue: Option<usize>,
}

impl ImpairConfig {
    /// True when every field is at its default (no impairment).
    pub fn is_ideal(&self) -> bool {
        *self == ImpairConfig::default()
    }

    /// A deterministic token folding every field, used by
    /// [`ScenarioTransform::derived_seed`] so distinct impairment configs
    /// draw distinct RNG streams under one build seed.
    pub fn seed_token(&self) -> u64 {
        let mut h: u64 = 0x1A11_7A17;
        for v in [
            self.loss.to_bits(),
            self.ge_good_to_bad.to_bits(),
            self.ge_bad_to_good.to_bits(),
            self.jitter_ms.to_bits(),
            self.jitter_dist as u64,
            self.reorder.to_bits(),
            self.duplicate.to_bits(),
            self.queue.map_or(0, |q| q as u64 + 1),
        ] {
            h = mix64(h, v);
        }
        h
    }

    /// Field-wise overlay: every non-default field of `later` replaces this
    /// config's value. This is how chained `+impair=` transforms compose
    /// (later transforms win per key, untouched keys persist).
    pub fn merged(mut self, later: &ImpairConfig) -> ImpairConfig {
        let d = ImpairConfig::default();
        if later.loss != d.loss {
            self.loss = later.loss;
        }
        if later.ge_good_to_bad != d.ge_good_to_bad || later.ge_bad_to_good != d.ge_bad_to_good {
            self.ge_good_to_bad = later.ge_good_to_bad;
            self.ge_bad_to_good = later.ge_bad_to_good;
        }
        if later.jitter_ms != d.jitter_ms {
            self.jitter_ms = later.jitter_ms;
        }
        if later.jitter_dist != d.jitter_dist {
            self.jitter_dist = later.jitter_dist;
        }
        if later.reorder != d.reorder {
            self.reorder = later.reorder;
        }
        if later.duplicate != d.duplicate {
            self.duplicate = later.duplicate;
        }
        if later.queue.is_some() {
            self.queue = later.queue;
        }
        self
    }

    /// Parses the `key:value,...` value of an `+impair=` transform.
    pub fn parse(raw: &str) -> Result<Self, SpecError> {
        const KEYS: &str = "loss, ge, jitter_ms, jdist, reorder, dup, queue";
        let fraction = |key: &str, raw: &str| -> Result<f64, SpecError> {
            let v: f64 = raw
                .parse()
                .map_err(|_| SpecError::Param(format!("impair '{key}:{raw}' is not a number")))?;
            if !(0.0..=1.0).contains(&v) {
                return Err(SpecError::Param(format!("impair '{key}:{raw}' must be in [0, 1]")));
            }
            Ok(v)
        };
        let mut cfg = ImpairConfig::default();
        let mut seen: Vec<&str> = Vec::new();
        for item in raw.split(',') {
            let (key, value) = item.split_once(':').ok_or_else(|| {
                SpecError::Param(format!("impair '{item}' is not key:value (keys: {KEYS})"))
            })?;
            if seen.contains(&key) {
                return Err(SpecError::Param(format!("impair has duplicate key '{key}'")));
            }
            match key {
                "loss" => cfg.loss = fraction(key, value)?,
                "ge" => {
                    let (p, r) = value.split_once('/').ok_or_else(|| {
                        SpecError::Param(format!(
                            "impair 'ge:{value}' is not <good_to_bad>/<bad_to_good>"
                        ))
                    })?;
                    cfg.ge_good_to_bad = fraction("ge", p)?;
                    cfg.ge_bad_to_good = fraction("ge", r)?;
                }
                "jitter_ms" => {
                    let v: f64 = value.parse().map_err(|_| {
                        SpecError::Param(format!("impair 'jitter_ms:{value}' is not a number"))
                    })?;
                    if !v.is_finite() || v < 0.0 {
                        return Err(SpecError::Param(format!(
                            "impair 'jitter_ms:{value}' must be finite and >= 0"
                        )));
                    }
                    cfg.jitter_ms = v;
                }
                "jdist" => {
                    cfg.jitter_dist = match value {
                        "uniform" => JitterDist::Uniform,
                        "exp" => JitterDist::Exp,
                        other => {
                            return Err(SpecError::Param(format!(
                                "impair 'jdist:{other}': valid distributions are uniform, exp"
                            )))
                        }
                    }
                }
                "reorder" => cfg.reorder = fraction(key, value)?,
                "dup" => cfg.duplicate = fraction(key, value)?,
                "queue" => {
                    let q: usize = value.parse().map_err(|_| {
                        SpecError::Param(format!(
                            "impair 'queue:{value}' is not an unsigned integer"
                        ))
                    })?;
                    if q == 0 {
                        return Err(SpecError::Param(
                            "impair 'queue:0' would drop every packet".into(),
                        ));
                    }
                    cfg.queue = Some(q);
                }
                other => {
                    return Err(SpecError::Param(format!(
                        "impair does not take '{other}': known keys are {KEYS}"
                    )))
                }
            }
            seen.push(key);
        }
        Ok(cfg)
    }
}

impl fmt::Display for ImpairConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        let mut item = |f: &mut fmt::Formatter<'_>, s: fmt::Arguments<'_>| -> fmt::Result {
            f.write_str(sep)?;
            sep = ",";
            f.write_fmt(s)
        };
        if self.loss != 0.0 || self.is_ideal() {
            item(f, format_args!("loss:{}", self.loss))?;
        }
        if self.ge_good_to_bad != 0.0 || self.ge_bad_to_good != 0.0 {
            item(f, format_args!("ge:{}/{}", self.ge_good_to_bad, self.ge_bad_to_good))?;
        }
        if self.jitter_ms != 0.0 {
            item(f, format_args!("jitter_ms:{}", self.jitter_ms))?;
        }
        if self.jitter_dist != JitterDist::default() {
            item(f, format_args!("jdist:{}", self.jitter_dist.token()))?;
        }
        if self.reorder != 0.0 {
            item(f, format_args!("reorder:{}", self.reorder))?;
        }
        if self.duplicate != 0.0 {
            item(f, format_args!("dup:{}", self.duplicate))?;
        }
        if let Some(q) = self.queue {
            item(f, format_args!("queue:{q}"))?;
        }
        Ok(())
    }
}

// -------------------------------------------------------------- transforms

/// A degradation or growth scenario applied on top of a generated topology.
///
/// Transforms compose left to right (`spec+fail_links=0.1+expand=4` fails
/// links first, then expands) and wrap the existing procedures in
/// [`crate::failures`] and [`crate::expansion`]. Each transform derives its
/// RNG seed deterministically from the build seed and its own value, so a
/// transformed spec is as reproducible as a bare one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioTransform {
    /// Fail a uniform-random fraction of switch-to-switch links
    /// (`+fail_links=0.08`); wraps [`fail_random_links`].
    FailLinks(f64),
    /// Fail a uniform-random fraction of switches, removing their links and
    /// servers (`+fail_switches=0.02`); wraps [`fail_random_switches`].
    FailSwitches(f64),
    /// Incrementally add this many racks via the paper's §4.2 link-splice
    /// procedure (`+expand=40`). Each new rack copies the port budget and
    /// server count of switch 0; wraps [`add_racks`].
    Expand(usize),
    /// Uniform degradation: fail the same fraction of links *and* of
    /// switches (`+degrade_uniform=0.05`) — the "everything ages at the same
    /// rate" scenario.
    DegradeUniform(f64),
    /// Per-link impairment (`+impair=loss:0.01,jitter_ms:5`). Unlike the
    /// other transforms this leaves the topology untouched: the config rides
    /// on the spec into the simulation layer (see [`TopoSpec::impairment`]),
    /// which attaches deterministic per-link loss/jitter/reorder/duplicate
    /// models keyed by the build seed.
    Impair(ImpairConfig),
}

impl ScenarioTransform {
    /// The transform's spec-string name.
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioTransform::FailLinks(_) => "fail_links",
            ScenarioTransform::FailSwitches(_) => "fail_switches",
            ScenarioTransform::Expand(_) => "expand",
            ScenarioTransform::DegradeUniform(_) => "degrade_uniform",
            ScenarioTransform::Impair(_) => "impair",
        }
    }

    /// Parses one `name=value` transform segment.
    pub fn parse(segment: &str) -> Result<Self, SpecError> {
        let (name, raw) = split_transform(segment)?;
        let fraction = |raw: &str| -> Result<f64, SpecError> {
            let v: f64 = raw
                .parse()
                .map_err(|_| SpecError::Param(format!("'{name}={raw}' is not a number")))?;
            if !(0.0..=1.0).contains(&v) {
                return Err(SpecError::Param(format!("'{name}={raw}' must be in [0, 1]")));
            }
            Ok(v)
        };
        match name {
            "fail_links" => Ok(ScenarioTransform::FailLinks(fraction(raw)?)),
            "fail_switches" => Ok(ScenarioTransform::FailSwitches(fraction(raw)?)),
            "degrade_uniform" => Ok(ScenarioTransform::DegradeUniform(fraction(raw)?)),
            "expand" => {
                let racks: usize = raw.parse().map_err(|_| {
                    SpecError::Param(format!("'expand={raw}' is not an unsigned integer"))
                })?;
                Ok(ScenarioTransform::Expand(racks))
            }
            "impair" => Ok(ScenarioTransform::Impair(ImpairConfig::parse(raw)?)),
            other => Err(SpecError::UnknownTransform {
                name: other.to_string(),
                registered: transform_grammar(),
            }),
        }
    }

    /// The RNG seed this transform uses when applied under build seed
    /// `base`. Fractional transforms use `base ^ (fraction * 100)` — the
    /// derivation the legacy Figure 8 sweep used, so specs reproduce its
    /// historical outputs bit-for-bit.
    pub fn derived_seed(&self, base: u64) -> u64 {
        match self {
            ScenarioTransform::FailLinks(f)
            | ScenarioTransform::FailSwitches(f)
            | ScenarioTransform::DegradeUniform(f) => base ^ ((f * 100.0) as u64),
            ScenarioTransform::Expand(racks) => base ^ 0xE ^ (*racks as u64),
            ScenarioTransform::Impair(cfg) => base ^ cfg.seed_token(),
        }
    }

    /// Applies the transform in place and returns the links it removed and
    /// added, from the reports of the procedures it wraps.
    pub fn apply(&self, topo: &mut Topology, base_seed: u64) -> Result<EdgeDelta, SpecError> {
        let seed = self.derived_seed(base_seed);
        fn edges(links: &[(NodeId, NodeId)]) -> impl Iterator<Item = Edge> + '_ {
            links.iter().map(|&(u, v)| Edge::new(u, v))
        }
        let delta = match *self {
            ScenarioTransform::FailLinks(f) => {
                let report = fail_random_links(topo, f, seed);
                EdgeDelta::net(edges(&report.failed_links).collect(), Vec::new())
            }
            ScenarioTransform::FailSwitches(f) => {
                let report = fail_random_switches(topo, f, seed);
                EdgeDelta::net(edges(&report.failed_links).collect(), Vec::new())
            }
            ScenarioTransform::DegradeUniform(f) => {
                let links = fail_random_links(topo, f, seed);
                let switches = fail_random_switches(topo, f, seed ^ 0x5D1C);
                let removed = edges(&links.failed_links).chain(edges(&switches.failed_links));
                EdgeDelta::net(removed.collect(), Vec::new())
            }
            ScenarioTransform::Expand(racks) => {
                if topo.num_switches() == 0 {
                    return Err(SpecError::Param("cannot expand an empty topology".into()));
                }
                let ports = topo.ports(0);
                let servers = topo.servers(0);
                let reports = add_racks(topo, racks, ports, servers, seed)?;
                let removed = reports.iter().flat_map(|r| edges(&r.removed_links));
                let added = reports.iter().flat_map(|r| edges(&r.added_links));
                EdgeDelta::net(removed.collect(), added.collect())
            }
            // Impairment lives in the simulation layer, not the graph; the
            // config is read back out via [`TopoSpec::impairment`].
            ScenarioTransform::Impair(_) => EdgeDelta::default(),
        };
        Ok(delta)
    }
}

impl fmt::Display for ScenarioTransform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioTransform::FailLinks(v)
            | ScenarioTransform::FailSwitches(v)
            | ScenarioTransform::DegradeUniform(v) => write!(f, "{}={v}", self.name()),
            ScenarioTransform::Expand(racks) => write!(f, "expand={racks}"),
            ScenarioTransform::Impair(cfg) => write!(f, "impair={cfg}"),
        }
    }
}

/// One-line grammar of the registered transforms, for error messages and
/// `figures topo list`.
pub fn transform_grammar() -> &'static str {
    "fail_links=<fraction>, fail_switches=<fraction>, degrade_uniform=<fraction>, \
     expand=<racks>, impair=<key:value,...> (keys: loss, ge, jitter_ms, jdist, reorder, \
     dup, queue)"
}

// -------------------------------------------------------------- generators

/// A named topology generator resolvable from a [`TopoSpec`].
///
/// Implementations validate their parameters and must be pure functions of
/// `(params, seed)`; the experiment layer's snapshot cache and the shard
/// merge machinery both rely on that determinism.
pub trait TopologyGenerator: Sync {
    /// Spec-string name (`jellyfish`, `fattree`, ...).
    fn name(&self) -> &'static str;

    /// One-line description shown by `figures topo list`.
    fn describe(&self) -> &'static str;

    /// An example spec string exercising this generator.
    fn example(&self) -> &'static str;

    /// Builds the topology for validated `params`.
    fn build(&self, params: &Params, seed: u64) -> Result<Topology, SpecError>;
}

/// `jellyfish` — the paper's random regular graph (§3).
///
/// Keys: `switches` (required), `ports` (required), then one of
/// * `degree` — network ports per switch; servers fill the rest;
/// * `servers` — servers per switch; the network uses the rest;
/// * both — explicit split, validated `degree + servers <= ports`;
/// * `servers_total` — total servers spread as evenly as possible, each
///   switch using its leftover ports for the network (the paper's
///   same-equipment comparisons; equals [`build_heterogeneous`]).
struct JellyfishGen;

impl TopologyGenerator for JellyfishGen {
    fn name(&self) -> &'static str {
        "jellyfish"
    }

    fn describe(&self) -> &'static str {
        "random regular graph of ToR switches (paper §3)"
    }

    fn example(&self) -> &'static str {
        "jellyfish:switches=245,ports=14,degree=11"
    }

    fn build(&self, params: &Params, seed: u64) -> Result<Topology, SpecError> {
        params.check_keys(
            self.name(),
            &["switches", "ports", "degree", "servers", "servers_total"],
        )?;
        let switches = params.usize("switches")?;
        let ports = params.usize("ports")?;
        let degree = params.usize_opt("degree")?;
        let servers = params.usize_opt("servers")?;
        let servers_total = params.usize_opt("servers_total")?;
        match (degree, servers, servers_total) {
            (None, None, Some(total)) => {
                if total > switches.saturating_mul(ports.saturating_sub(1)) {
                    return Err(SpecError::Param(format!(
                        "servers_total={total} cannot attach to {switches} switches of {ports} ports"
                    )));
                }
                // Even spread; every switch's remaining ports go to the
                // network.
                let base = total / switches;
                let extra = total % switches;
                let per: Vec<usize> =
                    (0..switches).map(|i| base + usize::from(i < extra)).collect();
                let degrees: Vec<usize> = per.iter().map(|&s| ports - s).collect();
                Ok(build_heterogeneous(&vec![ports; switches], &degrees, seed)?)
            }
            (Some(_), _, Some(_)) | (_, Some(_), Some(_)) => {
                Err(SpecError::Param("servers_total is exclusive with degree/servers".into()))
            }
            (None, None, None) => Err(SpecError::Param(
                "jellyfish needs one of degree, servers, or servers_total".into(),
            )),
            (deg, srv, None) => {
                let degree = match (deg, srv) {
                    (Some(d), _) => d,
                    (None, Some(s)) => ports.checked_sub(s).ok_or_else(|| {
                        SpecError::Param(format!("servers={s} exceeds ports={ports}"))
                    })?,
                    (None, None) => unreachable!(),
                };
                let mut topo = JellyfishBuilder::new(switches, ports, degree).seed(seed).build()?;
                if let (Some(d), Some(s)) = (deg, srv) {
                    if d + s > ports {
                        return Err(SpecError::Param(format!(
                            "degree={d} + servers={s} exceeds ports={ports}"
                        )));
                    }
                    for v in 0..topo.num_switches() {
                        topo.set_servers(v, s)?;
                    }
                }
                Ok(topo)
            }
        }
    }
}

/// `fattree` — the three-level k-ary fat-tree baseline. Key: `k` (required,
/// even). Deterministic; the seed is unused.
struct FatTreeGen;

impl TopologyGenerator for FatTreeGen {
    fn name(&self) -> &'static str {
        "fattree"
    }

    fn describe(&self) -> &'static str {
        "three-level k-ary fat-tree (Al-Fares et al.)"
    }

    fn example(&self) -> &'static str {
        "fattree:k=14"
    }

    fn build(&self, params: &Params, _seed: u64) -> Result<Topology, SpecError> {
        params.check_keys(self.name(), &["k"])?;
        Ok(FatTree::new(params.usize("k")?)?.into_topology())
    }
}

/// `swdc` — Small-World Data Center lattices with random shortcuts.
///
/// Keys: `lattice` (required: `ring`, `torus2d`, `hex3d`), `n` (required),
/// `degree` (default 6), `servers` (per switch, default 1), `ports`
/// (optional explicit budget).
struct SwdcGen;

/// Parses a [`Lattice`] spec token.
pub fn parse_lattice(token: &str) -> Result<Lattice, SpecError> {
    match token {
        "ring" => Ok(Lattice::Ring),
        "torus2d" => Ok(Lattice::Torus2D),
        "hex3d" => Ok(Lattice::HexTorus3D),
        other => Err(SpecError::Param(format!(
            "unknown lattice '{other}': valid lattices are ring, torus2d, hex3d"
        ))),
    }
}

impl TopologyGenerator for SwdcGen {
    fn name(&self) -> &'static str {
        "swdc"
    }

    fn describe(&self) -> &'static str {
        "small-world data center lattice + random shortcuts (SoCC 2011)"
    }

    fn example(&self) -> &'static str {
        "swdc:lattice=torus2d,n=256,servers=2"
    }

    fn build(&self, params: &Params, seed: u64) -> Result<Topology, SpecError> {
        params.check_keys(self.name(), &["lattice", "n", "degree", "servers", "ports"])?;
        let lattice = parse_lattice(
            params
                .get("lattice")
                .ok_or_else(|| SpecError::Param("missing required key 'lattice'".into()))?,
        )?;
        let n = params.usize("n")?;
        let degree = params.usize_opt("degree")?.unwrap_or(6);
        let servers = params.usize_opt("servers")?.unwrap_or(1);
        let mut builder =
            SwdcBuilder::new(lattice, n, degree).servers_per_switch(servers).seed(seed);
        if let Some(ports) = params.usize_opt("ports")? {
            builder = builder.ports(ports);
        }
        Ok(builder.build()?)
    }
}

/// `dd` — best-known degree-diameter benchmark graphs (Figure 3).
///
/// Keys: either `config` (index into the paper's nine
/// [`FIGURE3_CONFIGS`]) or explicit `n`, `ports`, `degree`; optional
/// `servers` (per switch; default `ports - degree`).
struct DegreeDiameterGen;

impl TopologyGenerator for DegreeDiameterGen {
    fn name(&self) -> &'static str {
        "dd"
    }

    fn describe(&self) -> &'static str {
        "best-known degree-diameter benchmark graph (paper §4.1)"
    }

    fn example(&self) -> &'static str {
        "dd:config=3,servers=2"
    }

    fn build(&self, params: &Params, seed: u64) -> Result<Topology, SpecError> {
        params.check_keys(self.name(), &["config", "n", "ports", "degree", "servers"])?;
        let (n, ports, degree) = match params.usize_opt("config")? {
            Some(i) => {
                if params.get("n").is_some()
                    || params.get("ports").is_some()
                    || params.get("degree").is_some()
                {
                    return Err(SpecError::Param(
                        "'config' is exclusive with explicit n/ports/degree".into(),
                    ));
                }
                *FIGURE3_CONFIGS.get(i).ok_or_else(|| {
                    SpecError::Param(format!(
                        "config={i} out of range: the paper has {} configurations (0..={})",
                        FIGURE3_CONFIGS.len(),
                        FIGURE3_CONFIGS.len() - 1
                    ))
                })?
            }
            None => (params.usize("n")?, params.usize("ports")?, params.usize("degree")?),
        };
        let mut topo = optimized_graph(n, ports, degree, AnnealParams::default(), seed)?;
        if let Some(servers) = params.usize_opt("servers")? {
            if degree + servers > ports {
                return Err(SpecError::Param(format!(
                    "degree={degree} + servers={servers} exceeds ports={ports}"
                )));
            }
            for v in 0..topo.num_switches() {
                topo.set_servers(v, servers)?;
            }
        }
        Ok(topo)
    }
}

/// `leafspine` — two-level folded-Clos. Keys: `leaf`, `spine`, `servers`
/// (per leaf; all required), `leaf_ports` (default `spine + servers`),
/// `spine_ports` (default `leaf`). Deterministic; the seed is unused.
struct LeafSpineGen;

impl TopologyGenerator for LeafSpineGen {
    fn name(&self) -> &'static str {
        "leafspine"
    }

    fn describe(&self) -> &'static str {
        "two-level folded-Clos (leaf-spine)"
    }

    fn example(&self) -> &'static str {
        "leafspine:leaf=16,spine=8,servers=8"
    }

    fn build(&self, params: &Params, _seed: u64) -> Result<Topology, SpecError> {
        params
            .check_keys(self.name(), &["leaf", "spine", "servers", "leaf_ports", "spine_ports"])?;
        let leaves = params.usize("leaf")?;
        let spines = params.usize("spine")?;
        let servers_per_leaf = params.usize("servers")?;
        let leaf_ports = params.usize_opt("leaf_ports")?.unwrap_or(spines + servers_per_leaf);
        let spine_ports = params.usize_opt("spine_ports")?.unwrap_or(leaves);
        Ok(ClosConfig { leaves, spines, leaf_ports, spine_ports, servers_per_leaf }.build()?)
    }
}

/// The registry of topology generators, in presentation order.
///
/// This is the [`GeneratorRegistry`]: the only place a generator needs to be
/// added for `figures topo build`, `figures run --topo`, and every
/// spec-driven experiment to pick it up.
pub fn generators() -> &'static [&'static dyn TopologyGenerator] {
    static REGISTRY: &[&dyn TopologyGenerator] =
        &[&JellyfishGen, &FatTreeGen, &SwdcGen, &DegreeDiameterGen, &LeafSpineGen];
    REGISTRY
}

/// Alias documenting the registry's role; see [`generators`].
pub type GeneratorRegistry = &'static [&'static dyn TopologyGenerator];

/// Looks up a registered generator by spec name.
pub fn find_generator(name: &str) -> Option<&'static dyn TopologyGenerator> {
    generators().iter().find(|g| g.name() == name).copied()
}

// ------------------------------------------------------------------- spec

/// A parsed topology specification: a registered generator, its parameters,
/// and a chain of scenario transforms.
///
/// `Display` produces the canonical spec string and `FromStr` parses it
/// back; the two are exact inverses.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoSpec {
    generator: String,
    params: Params,
    transforms: Vec<ScenarioTransform>,
}

impl TopoSpec {
    /// Starts a spec for `generator` with no parameters.
    pub fn new(generator: impl Into<String>) -> Self {
        TopoSpec { generator: generator.into(), params: Params::new(), transforms: Vec::new() }
    }

    /// Appends a `key=value` parameter (builder style).
    pub fn with_param(mut self, key: &str, value: impl ToString) -> Self {
        self.params.push(key, value);
        self
    }

    /// Appends a scenario transform (builder style).
    pub fn with_transform(mut self, t: ScenarioTransform) -> Self {
        self.transforms.push(t);
        self
    }

    /// The generator name.
    pub fn generator(&self) -> &str {
        &self.generator
    }

    /// The generator parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The transform chain, in application order.
    pub fn transforms(&self) -> &[ScenarioTransform] {
        &self.transforms
    }

    /// The spec without its transforms (the cacheable base topology).
    pub fn base(&self) -> TopoSpec {
        TopoSpec {
            generator: self.generator.clone(),
            params: self.params.clone(),
            transforms: Vec::new(),
        }
    }

    /// The effective impairment of this spec's transform chain, if any:
    /// `+impair=` segments fold left to right with field-wise overlay
    /// ([`ImpairConfig::merged`]), so later segments override only the keys
    /// they set.
    pub fn impairment(&self) -> Option<ImpairConfig> {
        let mut acc: Option<ImpairConfig> = None;
        for t in &self.transforms {
            if let ScenarioTransform::Impair(cfg) = t {
                acc = Some(match acc {
                    None => *cfg,
                    Some(prev) => prev.merged(cfg),
                });
            }
        }
        acc
    }

    /// This spec with every `+impair=` transform removed (topology-affecting
    /// transforms are kept in order). Experiments use this to re-spec an
    /// item with their own impairment axis.
    pub fn without_impairment(&self) -> TopoSpec {
        TopoSpec {
            generator: self.generator.clone(),
            params: self.params.clone(),
            transforms: self
                .transforms
                .iter()
                .filter(|t| !matches!(t, ScenarioTransform::Impair(_)))
                .copied()
                .collect(),
        }
    }

    /// Resolves the generator from the registry.
    pub fn resolve(&self) -> Result<&'static dyn TopologyGenerator, SpecError> {
        find_generator(&self.generator).ok_or_else(|| SpecError::UnknownGenerator {
            name: self.generator.clone(),
            registered: generators().iter().map(|g| g.name()).collect::<Vec<_>>().join(", "),
        })
    }

    /// Builds the base topology (no transforms). Pure in `(self, seed)`.
    pub fn build_base(&self, seed: u64) -> Result<Topology, SpecError> {
        self.resolve()?.build(&self.params, seed)
    }

    /// Applies this spec's transform chain to `topo` under build seed `seed`.
    pub fn apply_transforms(&self, topo: &mut Topology, seed: u64) -> Result<(), SpecError> {
        for t in &self.transforms {
            t.apply(topo, seed)?;
        }
        Ok(())
    }

    /// Builds the fully transformed topology. Pure in `(self, seed)`.
    pub fn build(&self, seed: u64) -> Result<Topology, SpecError> {
        let mut topo = self.build_base(seed)?;
        self.apply_transforms(&mut topo, seed)?;
        Ok(topo)
    }
}

impl fmt::Display for TopoSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_spec(f, &self.generator, &self.params, &self.transforms)
    }
}

impl FromStr for TopoSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (generator, params, segments) = split_spec(s)?;
        let mut spec = TopoSpec::new(generator);
        spec.params = params;
        spec.resolve()?;
        spec.transforms =
            segments.into_iter().map(ScenarioTransform::parse).collect::<Result<_, _>>()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_round_trips_examples() {
        for g in generators() {
            let spec: TopoSpec = g
                .example()
                .parse()
                .unwrap_or_else(|e| panic!("example for {} does not parse: {e}", g.name()));
            assert_eq!(spec.to_string(), g.example(), "{} example not canonical", g.name());
        }
        let chained = "jellyfish:switches=80,ports=12,degree=8+fail_links=0.08+expand=4";
        let spec: TopoSpec = chained.parse().unwrap();
        assert_eq!(spec.transforms().len(), 2);
        assert_eq!(spec.to_string(), chained);
        assert_eq!(spec.base().to_string(), "jellyfish:switches=80,ports=12,degree=8");
    }

    #[test]
    fn examples_build() {
        for g in generators() {
            let spec: TopoSpec = g.example().parse().unwrap();
            let topo = spec
                .build(7)
                .unwrap_or_else(|e| panic!("example for {} does not build: {e}", g.name()));
            assert!(topo.num_switches() > 0);
            assert!(topo.check_invariants().is_ok());
        }
    }

    #[test]
    fn bad_specs_fail_with_useful_errors() {
        for (spec, needle) in [
            ("", "empty"),
            ("nope:k=4", "unknown generator"),
            ("jellyfish:", "no parameters"),
            ("jellyfish:switches", "not key=value"),
            ("jellyfish:switches=,ports=4", "empty key or value"),
            ("fattree:k=14+melt=0.5", "unknown transform"),
            ("fattree:k=14+fail_links=1.5", "must be in [0, 1]"),
            ("fattree:k=14+fail_links", "name=value"),
        ] {
            let err = spec.parse::<TopoSpec>().unwrap_err().to_string();
            assert!(err.contains(needle), "'{spec}': expected '{needle}' in '{err}'");
        }
        // Parses, but fails at build with a parameter error.
        for (spec, needle) in [
            ("fattree:k=14,extra=1", "does not take"),
            ("fattree:k=14,k=16", "duplicate"),
            ("jellyfish:switches=10,ports=4", "one of degree, servers, or servers_total"),
            ("jellyfish:switches=10,ports=4,degree=2,servers_total=9", "exclusive"),
            ("dd:config=99", "out of range"),
            ("dd:n=5,ports=3,degree=4", "exceeds port count"),
            ("swdc:lattice=moebius,n=100", "unknown lattice"),
        ] {
            let parsed: TopoSpec = spec.parse().unwrap_or_else(|e| panic!("'{spec}': {e}"));
            let err = parsed.build(1).unwrap_err().to_string();
            assert!(err.contains(needle), "'{spec}': expected '{needle}' in '{err}'");
        }
    }

    #[test]
    fn build_matches_legacy_constructors() {
        // jellyfish with explicit degree == JellyfishBuilder.
        let spec: TopoSpec = "jellyfish:switches=40,ports=12,degree=8".parse().unwrap();
        let a = spec.build(99).unwrap();
        let b = JellyfishBuilder::new(40, 12, 8).seed(99).build().unwrap();
        let ea: Vec<_> = a.graph().edges().collect();
        let eb: Vec<_> = b.graph().edges().collect();
        assert_eq!(ea, eb);
        assert_eq!(a.total_servers(), b.total_servers());

        // servers key is the complement of degree.
        let spec2: TopoSpec = "jellyfish:switches=40,ports=12,servers=4".parse().unwrap();
        let c = spec2.build(99).unwrap();
        assert_eq!(c.graph().edges().collect::<Vec<_>>(), ea);
    }

    #[test]
    fn transforms_apply_in_order_and_derive_seeds() {
        let spec: TopoSpec =
            "jellyfish:switches=40,ports=12,degree=8+fail_links=0.1".parse().unwrap();
        let failed = spec.build(5).unwrap();
        // Same as building the base and failing with the derived seed.
        let mut manual = spec.base().build(5).unwrap();
        fail_random_links(&mut manual, 0.1, 5 ^ 10);
        assert_eq!(
            failed.graph().edges().collect::<Vec<_>>(),
            manual.graph().edges().collect::<Vec<_>>()
        );

        let grown: TopoSpec = "jellyfish:switches=20,ports=8,degree=5+expand=3".parse().unwrap();
        let t = grown.build(3).unwrap();
        assert_eq!(t.num_switches(), 23);
        assert!(t.check_invariants().is_ok());

        let degraded: TopoSpec =
            "jellyfish:switches=40,ports=12,degree=8+degrade_uniform=0.1".parse().unwrap();
        let d = degraded.build(5).unwrap();
        assert!(d.num_links() < failed.num_links() + 20);
        assert!(d.graph().nodes().any(|v| d.graph().degree(v) == 0 || d.servers(v) == 0));
    }

    #[test]
    fn impair_parses_and_round_trips() {
        let s = "jellyfish:switches=20,ports=8,degree=5+impair=loss:0.01,ge:0.9/0.1,jitter_ms:5,jdist:exp,reorder:0.02,dup:0.001,queue:64";
        let spec: TopoSpec = s.parse().unwrap();
        assert_eq!(spec.to_string(), s);
        let cfg = spec.impairment().unwrap();
        assert_eq!(cfg.loss, 0.01);
        assert_eq!(cfg.ge_good_to_bad, 0.9);
        assert_eq!(cfg.ge_bad_to_good, 0.1);
        assert_eq!(cfg.jitter_ms, 5.0);
        assert_eq!(cfg.jitter_dist, JitterDist::Exp);
        assert_eq!(cfg.reorder, 0.02);
        assert_eq!(cfg.duplicate, 0.001);
        assert_eq!(cfg.queue, Some(64));
        // Impairment never alters the graph.
        let ideal = spec.without_impairment();
        assert_eq!(ideal.to_string(), "jellyfish:switches=20,ports=8,degree=5");
        assert_eq!(
            spec.build(7).unwrap().graph().edges().collect::<Vec<_>>(),
            ideal.build(7).unwrap().graph().edges().collect::<Vec<_>>()
        );
        // Non-canonical key order parses and re-renders canonically.
        let shuffled: TopoSpec = "fattree:k=4+impair=queue:32,loss:0.5".parse().unwrap();
        assert_eq!(shuffled.to_string(), "fattree:k=4+impair=loss:0.5,queue:32");
        // All-default config still round-trips.
        let ideal_cfg = ImpairConfig::default();
        let t = ScenarioTransform::Impair(ideal_cfg);
        assert_eq!(t.to_string(), "impair=loss:0");
        assert_eq!(ScenarioTransform::parse("impair=loss:0").unwrap(), t);
    }

    #[test]
    fn impair_chains_merge_field_wise() {
        let spec: TopoSpec =
            "fattree:k=4+impair=loss:0.01,jitter_ms:5+impair=loss:0.2+fail_links=0.1"
                .parse()
                .unwrap();
        let cfg = spec.impairment().unwrap();
        assert_eq!(cfg.loss, 0.2, "later impair overrides loss");
        assert_eq!(cfg.jitter_ms, 5.0, "unset keys persist");
        // Stripping impairment keeps the topology-affecting transforms.
        assert_eq!(spec.without_impairment().to_string(), "fattree:k=4+fail_links=0.1");
        assert_eq!(spec.base().to_string(), "fattree:k=4");
        // Distinct configs derive distinct seeds; equal configs agree.
        let a = ScenarioTransform::Impair(cfg).derived_seed(7);
        let b = ScenarioTransform::Impair(ImpairConfig { loss: 0.3, ..cfg }).derived_seed(7);
        assert_ne!(a, b);
        assert_eq!(a, ScenarioTransform::Impair(cfg).derived_seed(7));
    }

    #[test]
    fn impair_rejects_bad_values() {
        for (raw, needle) in [
            ("fattree:k=4+impair=loss:2", "must be in [0, 1]"),
            ("fattree:k=4+impair=loss", "not key:value"),
            ("fattree:k=4+impair=warp:0.1", "does not take 'warp'"),
            ("fattree:k=4+impair=loss:0.1,loss:0.2", "duplicate key"),
            ("fattree:k=4+impair=ge:0.5", "<good_to_bad>/<bad_to_good>"),
            ("fattree:k=4+impair=jitter_ms:-3", "must be finite and >= 0"),
            ("fattree:k=4+impair=jdist:normal", "valid distributions"),
            ("fattree:k=4+impair=queue:0", "drop every packet"),
            ("fattree:k=4+impair=queue:x", "unsigned integer"),
        ] {
            let err = raw.parse::<TopoSpec>().unwrap_err().to_string();
            assert!(err.contains(needle), "'{raw}': expected '{needle}' in '{err}'");
        }
    }

    #[test]
    fn build_is_deterministic() {
        for g in generators() {
            let spec: TopoSpec = g.example().parse().unwrap();
            let a = spec.build(2012).unwrap();
            let b = spec.build(2012).unwrap();
            assert_eq!(
                a.graph().edges().collect::<Vec<_>>(),
                b.graph().edges().collect::<Vec<_>>(),
                "{}: two builds with one seed differ",
                g.name()
            );
        }
    }
}
