//! `TrafficSpec`: round-trippable workload spec strings resolved through a
//! registry of [`TrafficGenerator`]s (see TRAFFIC.md for the generators and
//! transforms).
//!
//! A spec names a generator, an ordered parameter list, and a chain of
//! workload transforms:
//!
//! ```text
//! zipf:s=1.2,hot_racks=4+scale_demand=0.5+epochs=4
//! ```
//!
//! The grammar is the topology crate's (`jellyfish_topology::spec`): its
//! parser, printer, `Params` and `SpecError`, so both kinds of spec report
//! malformed input in the same words. This module adds only the workload
//! registry and transforms.
//!
//! `Display` and `FromStr` are exact inverses. [`TrafficSpec::stream`] is
//! the one way a workload is built: generators build lazy [`FlowStream`]s
//! that know their flow count. `permutation` and `hotspot` run the resident
//! [`TrafficMatrix`] constructors as their bodies, and the lazy `all2all`
//! and `stride` reproduce the eager constructors flow-for-flow at the same
//! seed. Every generator derives its randomness only from
//! `(params, seed, epoch)` — never from global state — which keeps spec
//! builds deterministic across shards and hosts.

use crate::stream::FlowStream;
use crate::{Flow, ServerMap, TrafficMatrix};
use jellyfish_topology::spec::{mix64, split_spec, split_transform, write_spec, Params, SpecError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;
use std::str::FromStr;

/// SplitMix64 finalizer: a stateless position-addressable random stream, so
/// lazy generators can draw the i-th flow's randomness without generating
/// the first i−1 flows.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A uniform draw in `[0, 1)` addressed by `(seed, position)`.
fn unit_f64(seed: u64, position: u64) -> f64 {
    (splitmix64(mix64(seed, position)) >> 11) as f64 / (1u64 << 53) as f64
}

/// A uniform draw in `[0, bound)` addressed by `(seed, position)`.
fn bounded_u64(seed: u64, position: u64, bound: u64) -> u64 {
    splitmix64(mix64(seed, position)) % bound.max(1)
}

/// The epoch a stream is being built for: `index` in `0..count`. Workloads
/// with one phase get [`Epoch::SINGLE`]; the `+epochs=` transform builds one
/// stream per phase with an epoch-derived seed, and `mix` additionally
/// modulates its component weights by epoch (`diurnal=`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Epoch {
    /// Zero-based phase index.
    pub index: usize,
    /// Total number of phases.
    pub count: usize,
}

impl Epoch {
    /// The only epoch of a single-phase workload.
    pub const SINGLE: Epoch = Epoch { index: 0, count: 1 };
}

/// A registered traffic-pattern generator.
pub trait TrafficGenerator: Sync {
    /// Registry name (the spec's head segment).
    fn name(&self) -> &'static str;

    /// One-line description for `figures traffic list`.
    fn describe(&self) -> &'static str;

    /// An example spec string that builds.
    fn example(&self) -> &'static str;

    /// Server-count-independent parameter validation — what the CLI can
    /// check before any topology exists. Build-time checks that need the
    /// server population (`incast` fanin vs servers) live in [`Self::build`].
    fn validate(&self, params: &Params) -> Result<(), SpecError>;

    /// Builds the lazy flow stream for one epoch.
    fn build(
        &self,
        params: &Params,
        servers: &ServerMap,
        seed: u64,
        epoch: Epoch,
    ) -> Result<FlowStream, SpecError>;
}

// ------------------------------------------------------------ generators

/// `permutation`: every server sends unit demand to a distinct server, no
/// fixed points — the paper's workload. Runs
/// [`TrafficMatrix::random_permutation`] (the permutation itself is
/// O(servers) generator state, which is the pattern's floor).
struct Permutation;

impl TrafficGenerator for Permutation {
    fn name(&self) -> &'static str {
        "permutation"
    }

    fn describe(&self) -> &'static str {
        "random fixed-point-free permutation, unit demand per server"
    }

    fn example(&self) -> &'static str {
        "permutation"
    }

    fn validate(&self, params: &Params) -> Result<(), SpecError> {
        params.check_keys(self.name(), &[])
    }

    fn build(
        &self,
        params: &Params,
        servers: &ServerMap,
        seed: u64,
        _epoch: Epoch,
    ) -> Result<FlowStream, SpecError> {
        self.validate(params)?;
        Ok(TrafficMatrix::random_permutation(servers, seed).into_stream())
    }
}

/// `all2all`: every ordered server pair, demand 1/(n−1) — each server's
/// egress sums to 1. Fully lazy: the n·(n−1) flows are a pair of counters.
struct All2All;

/// The lazy all-to-all pair walk, identical in order and demand to the
/// eager [`TrafficMatrix::all_to_all`] constructor.
struct All2AllIter {
    n: usize,
    src: usize,
    dst: usize,
    demand: f64,
}

impl Iterator for All2AllIter {
    type Item = Flow;

    fn next(&mut self) -> Option<Flow> {
        while self.src < self.n {
            if self.dst >= self.n {
                self.src += 1;
                self.dst = 0;
                continue;
            }
            let (src, dst) = (self.src, self.dst);
            self.dst += 1;
            if src != dst {
                return Some(Flow { src, dst, demand: self.demand });
            }
        }
        None
    }
}

impl TrafficGenerator for All2All {
    fn name(&self) -> &'static str {
        "all2all"
    }

    fn describe(&self) -> &'static str {
        "every ordered pair, demand 1/(n-1) (lazy: flows are never materialized)"
    }

    fn example(&self) -> &'static str {
        "all2all"
    }

    fn validate(&self, params: &Params) -> Result<(), SpecError> {
        params.check_keys(self.name(), &[])
    }

    fn build(
        &self,
        params: &Params,
        servers: &ServerMap,
        seed: u64,
        _epoch: Epoch,
    ) -> Result<FlowStream, SpecError> {
        self.validate(params)?;
        let _ = seed; // the pattern is deterministic regardless of seed
        let n = servers.num_servers();
        let (len, demand) = if n > 1 { (n * (n - 1), 1.0 / (n - 1) as f64) } else { (0, 0.0) };
        let iter = All2AllIter { n: if n > 1 { n } else { 0 }, src: 0, dst: 0, demand };
        Ok(FlowStream::new(len, iter))
    }
}

/// `stride:k=4`: server s sends unit demand to (s+k) mod n — the classic
/// adversarial pattern for rigid topologies. Lazy.
struct StrideGen;

impl TrafficGenerator for StrideGen {
    fn name(&self) -> &'static str {
        "stride"
    }

    fn describe(&self) -> &'static str {
        "server s sends to (s+k) mod n, unit demand"
    }

    fn example(&self) -> &'static str {
        "stride:k=4"
    }

    fn validate(&self, params: &Params) -> Result<(), SpecError> {
        params.check_keys(self.name(), &["k"])?;
        let k = params.usize("k")?;
        if k == 0 {
            return Err(SpecError::Param("'k' must be at least 1".to_string()));
        }
        Ok(())
    }

    fn build(
        &self,
        params: &Params,
        servers: &ServerMap,
        seed: u64,
        _epoch: Epoch,
    ) -> Result<FlowStream, SpecError> {
        self.validate(params)?;
        let _ = seed;
        let k = params.usize("k")?;
        let n = servers.num_servers();
        // Same emptiness rule as the eager constructor: a stride that is a
        // multiple of n maps every server to itself.
        let len = if n <= 1 || k % n == 0 { 0 } else { n };
        let iter = (0..len).map(move |s| Flow { src: s, dst: (s + k) % n, demand: 1.0 });
        Ok(FlowStream::new(len, iter))
    }
}

/// `hotspot:fraction=0.1`: every server sends unit demand to a uniformly
/// chosen member of a hot server subset. Runs [`TrafficMatrix::hotspot`].
struct HotspotGen;

impl TrafficGenerator for HotspotGen {
    fn name(&self) -> &'static str {
        "hotspot"
    }

    fn describe(&self) -> &'static str {
        "all servers target a random hot fraction of servers"
    }

    fn example(&self) -> &'static str {
        "hotspot:fraction=0.1"
    }

    fn validate(&self, params: &Params) -> Result<(), SpecError> {
        params.check_keys(self.name(), &["fraction"])?;
        let fraction = params.f64("fraction")?;
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(SpecError::Param(format!("'fraction={fraction}' must be in (0, 1]")));
        }
        Ok(())
    }

    fn build(
        &self,
        params: &Params,
        servers: &ServerMap,
        seed: u64,
        _epoch: Epoch,
    ) -> Result<FlowStream, SpecError> {
        self.validate(params)?;
        let fraction = params.f64("fraction")?;
        Ok(TrafficMatrix::hotspot(servers, fraction, seed).into_stream())
    }
}

/// `zipf:s=1.2,hot_racks=4`: rack-skewed destinations — rack popularity
/// follows a Zipf(s) law over a seed-shuffled rack ranking, optionally
/// restricted to the `hot_racks` most popular racks. Lazy: generator state
/// is O(racks); each source's destination is drawn by position-addressable
/// hashing, never by a sequential RNG walk.
struct ZipfGen;

impl TrafficGenerator for ZipfGen {
    fn name(&self) -> &'static str {
        "zipf"
    }

    fn describe(&self) -> &'static str {
        "rack-skewed destinations with Zipf(s) popularity (lazy, O(racks) state)"
    }

    fn example(&self) -> &'static str {
        "zipf:s=1.2,hot_racks=4"
    }

    fn validate(&self, params: &Params) -> Result<(), SpecError> {
        params.check_keys(self.name(), &["s", "hot_racks"])?;
        let s = params.f64("s")?;
        if s <= 0.0 {
            return Err(SpecError::Param(format!("'s={s}' must be positive")));
        }
        if let Some(h) = params.usize_opt("hot_racks")? {
            if h == 0 {
                return Err(SpecError::Param("'hot_racks' must be at least 1".to_string()));
            }
        }
        Ok(())
    }

    fn build(
        &self,
        params: &Params,
        servers: &ServerMap,
        seed: u64,
        _epoch: Epoch,
    ) -> Result<FlowStream, SpecError> {
        self.validate(params)?;
        let s = params.f64("s")?;
        let hot_racks = params.usize_opt("hot_racks")?;
        let n = servers.num_servers();
        if n < 2 {
            return Ok(FlowStream::new(0, std::iter::empty()));
        }
        // Rank the racks that actually hold servers by a seed-derived
        // shuffle, then keep the `hot_racks` most popular.
        let mut ranked: Vec<usize> =
            (0..servers.num_switches()).filter(|&r| !servers.servers_of(r).is_empty()).collect();
        let mut rng = StdRng::seed_from_u64(mix64(seed, 0x21BF));
        ranked.shuffle(&mut rng);
        let hot = hot_racks.unwrap_or(ranked.len()).min(ranked.len()).max(1);
        ranked.truncate(hot);
        // Cumulative Zipf weights over the ranked racks: rank i has weight
        // (i+1)^-s.
        let mut cumulative = Vec::with_capacity(hot);
        let mut total = 0.0f64;
        for i in 0..hot {
            total += ((i + 1) as f64).powf(-s);
            cumulative.push(total);
        }
        let rack_ranges: Vec<(usize, usize)> = ranked
            .iter()
            .map(|&r| {
                let range = servers.servers_of(r);
                (range.start, range.end - range.start)
            })
            .collect();
        let iter = (0..n).map(move |src| {
            let u = unit_f64(seed, src as u64) * total;
            let rank = cumulative.partition_point(|&c| c <= u).min(cumulative.len() - 1);
            let (start, len) = rack_ranges[rank];
            let mut dst = start + bounded_u64(seed, src as u64 ^ 0x0FF5_E700, len as u64) as usize;
            if dst == src {
                dst = (dst + 1) % n;
            }
            Flow { src, dst, demand: 1.0 }
        });
        Ok(FlowStream::new(n, iter))
    }
}

/// `incast:fanin=32,targets=8`: `targets` servers (spread evenly across the
/// population) each receive unit-demand flows from the `fanin` servers that
/// follow them — the many-to-one pattern that stresses a single ToR's
/// downlinks. Lazy nested counters.
struct IncastGen;

impl TrafficGenerator for IncastGen {
    fn name(&self) -> &'static str {
        "incast"
    }

    fn describe(&self) -> &'static str {
        "many-to-one: fanin senders per target, unit demand each"
    }

    fn example(&self) -> &'static str {
        "incast:fanin=8,targets=2"
    }

    fn validate(&self, params: &Params) -> Result<(), SpecError> {
        params.check_keys(self.name(), &["fanin", "targets"])?;
        let fanin = params.usize("fanin")?;
        if fanin == 0 {
            return Err(SpecError::Param("'fanin' must be at least 1".to_string()));
        }
        if let Some(t) = params.usize_opt("targets")? {
            if t == 0 {
                return Err(SpecError::Param("'targets' must be at least 1".to_string()));
            }
        }
        Ok(())
    }

    fn build(
        &self,
        params: &Params,
        servers: &ServerMap,
        seed: u64,
        _epoch: Epoch,
    ) -> Result<FlowStream, SpecError> {
        self.validate(params)?;
        let _ = seed;
        let fanin = params.usize("fanin")?;
        let targets = params.usize_opt("targets")?.unwrap_or(1);
        let n = servers.num_servers();
        if n < 2 {
            return Err(SpecError::Build(format!(
                "incast needs at least 2 servers, topology has {n}"
            )));
        }
        if fanin > n - 1 {
            return Err(SpecError::Build(format!(
                "incast fanin={fanin} exceeds the {} possible senders per target ({n} servers)",
                n - 1
            )));
        }
        if targets > n {
            return Err(SpecError::Build(format!("incast targets={targets} exceeds {n} servers")));
        }
        let spacing = n / targets;
        let iter = (0..targets).flat_map(move |j| {
            let target = j * spacing;
            (0..fanin).map(move |i| Flow { src: (target + 1 + i) % n, dst: target, demand: 1.0 })
        });
        Ok(FlowStream::new(targets * fanin, iter))
    }
}

/// `outcast:fanout=32`: `sources` servers each spray demand 1/fanout at the
/// `fanout` servers that follow them — the one-to-many mirror of `incast`
/// (each source's egress sums to 1). Lazy nested counters.
struct OutcastGen;

impl TrafficGenerator for OutcastGen {
    fn name(&self) -> &'static str {
        "outcast"
    }

    fn describe(&self) -> &'static str {
        "one-to-many: each source sprays fanout receivers, egress 1 per source"
    }

    fn example(&self) -> &'static str {
        "outcast:fanout=8"
    }

    fn validate(&self, params: &Params) -> Result<(), SpecError> {
        params.check_keys(self.name(), &["fanout", "sources"])?;
        let fanout = params.usize("fanout")?;
        if fanout == 0 {
            return Err(SpecError::Param("'fanout' must be at least 1".to_string()));
        }
        if let Some(s) = params.usize_opt("sources")? {
            if s == 0 {
                return Err(SpecError::Param("'sources' must be at least 1".to_string()));
            }
        }
        Ok(())
    }

    fn build(
        &self,
        params: &Params,
        servers: &ServerMap,
        seed: u64,
        _epoch: Epoch,
    ) -> Result<FlowStream, SpecError> {
        self.validate(params)?;
        let _ = seed;
        let fanout = params.usize("fanout")?;
        let sources = params.usize_opt("sources")?.unwrap_or(1);
        let n = servers.num_servers();
        if n < 2 {
            return Err(SpecError::Build(format!(
                "outcast needs at least 2 servers, topology has {n}"
            )));
        }
        if fanout > n - 1 {
            return Err(SpecError::Build(format!(
                "outcast fanout={fanout} exceeds the {} possible receivers per source ({n} servers)",
                n - 1
            )));
        }
        if sources > n {
            return Err(SpecError::Build(format!("outcast sources={sources} exceeds {n} servers")));
        }
        let spacing = n / sources;
        let demand = 1.0 / fanout as f64;
        let iter = (0..sources).flat_map(move |i| {
            let src = i * spacing;
            (0..fanout).map(move |j| Flow { src, dst: (src + 1 + j) % n, demand })
        });
        Ok(FlowStream::new(sources * fanout, iter))
    }
}

/// Component patterns `mix` can blend, with the server-count-independent
/// default parameters each is instantiated with. (`incast`/`outcast` are
/// excluded: their sizing is relative to the server count, so they only make
/// sense as explicit top-level specs.)
const MIX_COMPONENTS: [(&str, &[(&str, &str)]); 5] = [
    ("permutation", &[]),
    ("all2all", &[]),
    ("stride", &[("k", "1")]),
    ("hotspot", &[("fraction", "0.1")]),
    ("zipf", &[("s", "1.2")]),
];

/// `mix:permutation=2,zipf=1,diurnal=3`: a weighted blend of component
/// patterns, each built with its default parameters and a per-component
/// derived seed, demands scaled to `weight / total_weight`. The optional
/// `diurnal=<factor>` key makes the blend time-varying under `+epochs=`:
/// even epochs ("day") boost the first component's weight by the factor,
/// odd epochs ("night") boost the last component's.
struct MixGen;

impl MixGen {
    fn component(
        key: &str,
    ) -> Option<&'static (&'static str, &'static [(&'static str, &'static str)])> {
        MIX_COMPONENTS.iter().find(|(name, _)| *name == key)
    }
}

impl TrafficGenerator for MixGen {
    fn name(&self) -> &'static str {
        "mix"
    }

    fn describe(&self) -> &'static str {
        "weighted blend of patterns; diurnal= makes it time-varying under +epochs="
    }

    fn example(&self) -> &'static str {
        "mix:permutation=2,zipf=1,diurnal=3"
    }

    fn validate(&self, params: &Params) -> Result<(), SpecError> {
        let mut keys: Vec<&str> = MIX_COMPONENTS.iter().map(|(name, _)| *name).collect();
        keys.push("diurnal");
        params.check_keys(self.name(), &keys)?;
        let mut components = 0usize;
        for (key, raw) in params.pairs() {
            let value = params.f64(key)?;
            if key == "diurnal" {
                if value < 1.0 {
                    return Err(SpecError::Param(format!("'diurnal={raw}' must be at least 1")));
                }
            } else if value <= 0.0 {
                return Err(SpecError::Param(format!("'{key}={raw}' must be a positive weight")));
            } else {
                components += 1;
            }
        }
        if components == 0 {
            return Err(SpecError::Param(
                "'mix' needs at least one weighted component".to_string(),
            ));
        }
        Ok(())
    }

    fn build(
        &self,
        params: &Params,
        servers: &ServerMap,
        seed: u64,
        epoch: Epoch,
    ) -> Result<FlowStream, SpecError> {
        self.validate(params)?;
        let diurnal = params.f64_opt("diurnal")?;
        type Component = (&'static str, &'static [(&'static str, &'static str)], f64);
        let components: Vec<Component> = params
            .pairs()
            .iter()
            .filter(|(k, _)| k != "diurnal")
            .map(|(k, v)| {
                let (name, defaults) = Self::component(k).expect("validated component");
                (*name, *defaults, v.parse::<f64>().expect("validated weight"))
            })
            .collect();
        let mut weights: Vec<f64> = components.iter().map(|&(_, _, w)| w).collect();
        if let Some(factor) = diurnal {
            // Day/night alternation across epochs: even epochs boost the
            // first component, odd epochs the last.
            let boosted = if epoch.index.is_multiple_of(2) { 0 } else { weights.len() - 1 };
            weights[boosted] *= factor;
        }
        let total: f64 = weights.iter().sum();
        let mut parts = Vec::with_capacity(components.len());
        for (ci, &(name, defaults, _)) in components.iter().enumerate() {
            let generator = find_generator(name).expect("mix components are registered");
            let mut sub_params = Params::new();
            for &(k, v) in defaults {
                sub_params.push(k, v);
            }
            let sub_seed = mix64(seed, 0x301C ^ ci as u64);
            let part = generator.build(&sub_params, servers, sub_seed, Epoch::SINGLE)?;
            parts.push(part.scaled(weights[ci] / total));
        }
        Ok(FlowStream::concat(parts))
    }
}

// ------------------------------------------------------------- registry

/// The registered traffic generators, in presentation order.
pub fn generators() -> &'static [&'static dyn TrafficGenerator] {
    static REGISTRY: [&dyn TrafficGenerator; 8] = [
        &Permutation,
        &All2All,
        &StrideGen,
        &HotspotGen,
        &ZipfGen,
        &IncastGen,
        &OutcastGen,
        &MixGen,
    ];
    &REGISTRY
}

/// Looks a generator up by registry name.
pub fn find_generator(name: &str) -> Option<&'static dyn TrafficGenerator> {
    generators().iter().find(|g| g.name() == name).copied()
}

// ------------------------------------------------------------ transforms

/// A composable workload transform (`+name=value` spec segments).
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficTransform {
    /// Multiplies every demand by the factor.
    ScaleDemand(f64),
    /// Splits the workload into that many time-varying phases: each phase
    /// rebuilds the generator with an epoch-derived seed at 1/count of the
    /// demand, and `mix` additionally re-weights per phase (`diurnal=`).
    Epochs(usize),
}

impl TrafficTransform {
    /// The transform's spec-segment name.
    pub fn name(&self) -> &'static str {
        match self {
            TrafficTransform::ScaleDemand(_) => "scale_demand",
            TrafficTransform::Epochs(_) => "epochs",
        }
    }

    /// Parses one `+` segment (without the `+`).
    pub fn parse(segment: &str) -> Result<Self, SpecError> {
        let (name, raw) = split_transform(segment)?;
        match name {
            "scale_demand" => match raw.parse::<f64>() {
                Ok(v) if v.is_finite() && v > 0.0 => Ok(TrafficTransform::ScaleDemand(v)),
                _ => Err(SpecError::Param(format!(
                    "'scale_demand={raw}' must be a positive finite number"
                ))),
            },
            "epochs" => match raw.parse::<usize>() {
                Ok(v) if v >= 1 => Ok(TrafficTransform::Epochs(v)),
                _ => Err(SpecError::Param(format!(
                    "'epochs={raw}' must be an integer of at least 1"
                ))),
            },
            other => Err(SpecError::UnknownTransform {
                name: other.to_string(),
                registered: transform_grammar(),
            }),
        }
    }

    /// Server-count-independent re-validation (for programmatically built
    /// transforms that never went through [`TrafficTransform::parse`]).
    fn validate(&self) -> Result<(), SpecError> {
        match *self {
            TrafficTransform::ScaleDemand(v) if !(v.is_finite() && v > 0.0) => Err(
                SpecError::Param(format!("'scale_demand={v}' must be a positive finite number")),
            ),
            TrafficTransform::Epochs(0) => {
                Err(SpecError::Param("'epochs=0' must be an integer of at least 1".to_string()))
            }
            _ => Ok(()),
        }
    }
}

impl fmt::Display for TrafficTransform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficTransform::ScaleDemand(v) => write!(f, "scale_demand={v}"),
            TrafficTransform::Epochs(k) => write!(f, "epochs={k}"),
        }
    }
}

/// One-line summary of the workload-transform grammar.
pub fn transform_grammar() -> &'static str {
    "+scale_demand=<factor>, +epochs=<count>"
}

// ------------------------------------------------------------------ spec

/// A parsed workload spec: generator, ordered params, transform chain.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    generator: String,
    params: Params,
    transforms: Vec<TrafficTransform>,
}

impl TrafficSpec {
    /// Creates a bare spec for a generator.
    pub fn new(generator: impl Into<String>) -> Self {
        TrafficSpec { generator: generator.into(), params: Params::new(), transforms: Vec::new() }
    }

    /// The paper's default workload (`permutation`).
    pub fn permutation() -> Self {
        TrafficSpec::new("permutation")
    }

    /// Appends a `key=value` parameter (builder style).
    pub fn with_param(mut self, key: &str, value: impl ToString) -> Self {
        self.params.push(key, value);
        self
    }

    /// Appends a transform (builder style).
    pub fn with_transform(mut self, transform: TrafficTransform) -> Self {
        self.transforms.push(transform);
        self
    }

    /// The generator name.
    pub fn generator(&self) -> &str {
        &self.generator
    }

    /// The ordered parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The transform chain, in application order.
    pub fn transforms(&self) -> &[TrafficTransform] {
        &self.transforms
    }

    fn resolve(&self) -> Result<&'static dyn TrafficGenerator, SpecError> {
        find_generator(&self.generator).ok_or_else(|| SpecError::UnknownGenerator {
            name: self.generator.clone(),
            registered: generators().iter().map(|g| g.name()).collect::<Vec<_>>().join(", "),
        })
    }

    /// Validates everything that does not need a server population: the
    /// generator exists, its parameters are in range, the transforms are in
    /// range. The CLI probes `--traffic` arguments with this before any
    /// topology is built; population-dependent checks (`incast` fanin vs
    /// servers) surface from [`TrafficSpec::stream`].
    pub fn validate(&self) -> Result<(), SpecError> {
        self.resolve()?.validate(&self.params)?;
        for t in &self.transforms {
            t.validate()?;
        }
        Ok(())
    }

    /// Number of time-varying phases the transform chain requests (the
    /// product of all `+epochs=` factors; 1 when none).
    pub fn epochs(&self) -> usize {
        self.transforms
            .iter()
            .map(|t| match *t {
                TrafficTransform::Epochs(k) => k,
                _ => 1,
            })
            .product::<usize>()
            .max(1)
    }

    /// Overall demand factor of the transform chain (the product of all
    /// `+scale_demand=` factors; 1 when none).
    pub fn demand_scale(&self) -> f64 {
        self.transforms
            .iter()
            .map(|t| match *t {
                TrafficTransform::ScaleDemand(v) => v,
                _ => 1.0,
            })
            .product()
    }

    /// Builds the lazy flow stream for this spec over `servers`.
    ///
    /// With one epoch and no demand scaling the generator's stream is
    /// returned untouched, so `permutation` yields exactly the flows of
    /// [`TrafficMatrix::random_permutation`] at the same seed. With E epochs the
    /// stream is the concatenation of E phases, phase `i` built with the
    /// derived seed `mix64(seed, 0xE70C ^ i)` at 1/E of the demand.
    pub fn stream(&self, servers: &ServerMap, seed: u64) -> Result<FlowStream, SpecError> {
        self.validate()?;
        let generator = self.resolve()?;
        let epochs = self.epochs();
        let mut parts = Vec::with_capacity(epochs);
        for index in 0..epochs {
            let epoch_seed = if epochs == 1 { seed } else { mix64(seed, 0xE70C ^ index as u64) };
            let epoch = Epoch { index, count: epochs };
            let part = generator.build(&self.params, servers, epoch_seed, epoch)?;
            parts.push(if epochs == 1 { part } else { part.scaled(1.0 / epochs as f64) });
        }
        let mut stream = if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            FlowStream::concat(parts)
        };
        let scale = self.demand_scale();
        if scale != 1.0 {
            stream = stream.scaled(scale);
        }
        Ok(stream)
    }
}

impl fmt::Display for TrafficSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_spec(f, &self.generator, &self.params, &self.transforms)
    }
}

impl FromStr for TrafficSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (generator, params, segments) = split_spec(s)?;
        let mut spec = TrafficSpec::new(generator);
        spec.params = params;
        spec.resolve()?;
        spec.transforms =
            segments.into_iter().map(TrafficTransform::parse).collect::<Result<_, _>>()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn servers() -> ServerMap {
        ServerMap::uniform(8, 4)
    }

    /// The flows `raw` builds over [`servers`] at `seed`.
    fn flows(raw: &str, seed: u64) -> Vec<Flow> {
        let spec: TrafficSpec = raw.parse().unwrap();
        spec.stream(&servers(), seed).unwrap().collect()
    }

    /// The summed demand of a flow list.
    fn total(flows: &[Flow]) -> f64 {
        flows.iter().map(|f| f.demand).sum()
    }

    #[test]
    fn parse_display_round_trips_examples() {
        for g in generators() {
            let spec: TrafficSpec = g
                .example()
                .parse()
                .unwrap_or_else(|e| panic!("example '{}' does not parse: {e}", g.example()));
            assert_eq!(spec.to_string(), g.example(), "display is not the parse inverse");
        }
        let chained: TrafficSpec =
            "zipf:s=1.2,hot_racks=4+scale_demand=0.5+epochs=4".parse().unwrap();
        assert_eq!(chained.to_string(), "zipf:s=1.2,hot_racks=4+scale_demand=0.5+epochs=4");
        assert_eq!(chained.epochs(), 4);
        assert!((chained.demand_scale() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn examples_build_and_streams_match_their_exact_len() {
        let map = servers();
        for g in generators() {
            let spec: TrafficSpec = g.example().parse().unwrap();
            let stream = spec
                .stream(&map, 7)
                .unwrap_or_else(|e| panic!("example '{}' does not build: {e}", g.example()));
            let expected = stream.len();
            let flows: Vec<Flow> = stream.collect();
            assert_eq!(flows.len(), expected, "{}: len lied", g.name());
            for f in &flows {
                assert!(f.src < map.num_servers() && f.dst < map.num_servers());
                assert!(f.demand >= 0.0);
            }
        }
    }

    #[test]
    fn bad_specs_fail_with_useful_errors() {
        // Parse-time failures.
        let parse_cases: [(&str, &str); 6] = [
            ("", "empty"),
            ("warp9", "registered generators are permutation"),
            ("permutation+hyperspeed=1", "registered transforms are"),
            ("zipf:s", "not key=value"),
            ("zipf:=3", "empty key or value"),
            ("permutation+epochs=0", "at least 1"),
        ];
        for (spec, needle) in parse_cases {
            let err = spec.parse::<TrafficSpec>().unwrap_err().to_string();
            assert!(err.contains(needle), "'{spec}': error '{err}' lacks '{needle}'");
        }
        // Build-time failures (valid grammar, bad params or population).
        let map = servers();
        let build_cases: [(&str, &str); 8] = [
            ("hotspot:fraction=0", "must be in (0, 1]"),
            ("hotspot:fraction=1.5", "must be in (0, 1]"),
            ("zipf:s=0", "must be positive"),
            ("zipf:s=1.2,s=1.3", "duplicate key 's'"),
            ("stride:k=4,speed=9", "does not take 'speed'"),
            ("incast:fanin=99", "exceeds the 31 possible senders"),
            ("outcast:fanout=40", "exceeds the 31 possible receivers"),
            ("mix:diurnal=2", "at least one weighted component"),
        ];
        for (spec, needle) in build_cases {
            let spec: TrafficSpec = spec.parse().unwrap();
            let err = spec.stream(&map, 7).unwrap_err().to_string();
            assert!(err.contains(needle), "'{spec}': error '{err}' lacks '{needle}'");
        }
    }

    #[test]
    fn topo_and_traffic_specs_report_malformed_shapes_in_the_same_words() {
        use jellyfish_topology::TopoSpec;
        let (topo_gen, traffic_gen) = ("fattree", "stride");
        for shape in ["", ":k=1", "<gen>:", "<gen>:k", "<gen>:=1", "<gen>:k=1+x"] {
            let topo = shape.replace("<gen>", topo_gen).parse::<TopoSpec>().unwrap_err();
            let traffic = shape.replace("<gen>", traffic_gen).parse::<TrafficSpec>().unwrap_err();
            let topo = topo.to_string().replace(topo_gen, "<gen>");
            let traffic = traffic.to_string().replace(traffic_gen, "<gen>");
            assert!(topo.starts_with("bad spec syntax: "), "'{shape}': {topo}");
            assert_eq!(topo, traffic, "'{shape}': the two spec kinds disagree");
        }
    }

    #[test]
    fn legacy_patterns_match_the_eager_constructors_flow_for_flow() {
        let map = servers();
        for seed in [0u64, 7, 99] {
            let legacy = TrafficMatrix::random_permutation(&map, seed);
            assert_eq!(flows("permutation", seed), legacy.flows(), "diverged at seed {seed}");
        }
        assert_eq!(flows("all2all", 1), TrafficMatrix::all_to_all(&map).flows());
        assert_eq!(flows("stride:k=4", 1), TrafficMatrix::stride(&map, 4).flows());
        assert_eq!(
            flows("hotspot:fraction=0.25", 13),
            TrafficMatrix::hotspot(&map, 0.25, 13).flows()
        );
    }

    #[test]
    fn builds_are_deterministic_and_seeds_spread() {
        for raw in
            ["permutation", "zipf:s=1.2,hot_racks=4", "mix:permutation=2,zipf=1,diurnal=3+epochs=4"]
        {
            assert_eq!(flows(raw, 42), flows(raw, 42), "{raw}: same seed, different flows");
        }
        assert_ne!(flows("permutation", 1), flows("permutation", 2), "seeds should spread");
    }

    #[test]
    fn epochs_split_demand_and_vary_phases() {
        let map = servers();
        let spec: TrafficSpec = "permutation+epochs=2".parse().unwrap();
        let stream = spec.stream(&map, 7).unwrap();
        assert_eq!(stream.len(), 2 * map.num_servers());
        let flows: Vec<Flow> = stream.collect();
        let total: f64 = flows.iter().map(|f| f.demand).sum();
        // Two phases at half demand each: total demand equals one phase's.
        assert!((total - map.num_servers() as f64).abs() < 1e-9);
        let (first, second) = flows.split_at(map.num_servers());
        let dsts = |fs: &[Flow]| fs.iter().map(|f| f.dst).collect::<Vec<_>>();
        assert_ne!(dsts(first), dsts(second), "epochs should draw distinct phases");
    }

    #[test]
    fn scale_demand_multiplies_everything() {
        let base = TrafficMatrix::all_to_all(&servers());
        assert!(
            (total(&flows("all2all+scale_demand=3", 7)) - 3.0 * total(base.flows())).abs() < 1e-9
        );
    }

    #[test]
    fn zipf_respects_hot_racks_and_hits_valid_servers() {
        let map = servers();
        let zipf = flows("zipf:s=1.5,hot_racks=2", 7);
        assert_eq!(zipf.len(), map.num_servers());
        // At most 2 hot racks, plus at most one spill rack per hot rack
        // when a draw lands on the source itself (dst moves to src+1).
        let mut dst_racks: Vec<usize> = zipf.iter().map(|f| map.switch_of(f.dst)).collect();
        dst_racks.sort_unstable();
        dst_racks.dedup();
        assert!(dst_racks.len() <= 4, "hot_racks=2 produced {} racks", dst_racks.len());
        for f in &zipf {
            assert_ne!(f.src, f.dst, "zipf must not emit self-flows");
        }
    }

    #[test]
    fn incast_concentrates_on_targets() {
        let incast = flows("incast:fanin=8,targets=2", 7);
        assert_eq!(incast.len(), 16);
        let mut dsts: Vec<usize> = incast.iter().map(|f| f.dst).collect();
        dsts.sort_unstable();
        dsts.dedup();
        assert_eq!(dsts, vec![0, 16], "targets spread evenly across 32 servers");
        let into_zero: Vec<Flow> = incast.into_iter().filter(|f| f.dst == 0).collect();
        assert!((total(&into_zero) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn outcast_spreads_each_source_egress_to_one() {
        let outcast = flows("outcast:fanout=8,sources=2", 7);
        assert_eq!(outcast.len(), 16);
        for src in [0, 16] {
            let from_src: Vec<Flow> = outcast.iter().copied().filter(|f| f.src == src).collect();
            assert!((total(&from_src) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mix_weights_blend_and_diurnal_modulates_epochs() {
        let map = servers();
        let n = map.num_servers() as f64;
        // permutation contributes n flows at 3/4 demand, all2all n(n-1)
        // flows summing to n at 1/4 demand: total = 3n/4 + n/4 = n.
        assert!((total(&flows("mix:permutation=3,all2all=1", 7)) - n).abs() < 1e-9);
        // Diurnal alternation: with epochs, phase weights differ between
        // even and odd epochs, so the phase demand splits differ.
        let spec: TrafficSpec = "mix:permutation=1,zipf=1,diurnal=9+epochs=2".parse().unwrap();
        let flows: Vec<Flow> = spec.stream(&map, 7).unwrap().collect();
        let half = flows.len() / 2;
        let perm_share = |fs: &[Flow]| {
            // The permutation component comes first in each phase.
            fs.iter().take(map.num_servers()).map(|f| f.demand).sum::<f64>()
        };
        let day = perm_share(&flows[..half]);
        let night = perm_share(&flows[half..]);
        assert!(day > night, "day phase should weight the first component up");
    }

    #[test]
    fn validate_catches_programmatic_mistakes() {
        let spec = TrafficSpec::new("zipf").with_param("s", "-1");
        assert!(spec.validate().is_err());
        let spec = TrafficSpec::permutation().with_transform(TrafficTransform::Epochs(0));
        assert!(spec.validate().is_err());
        let spec = TrafficSpec::permutation().with_transform(TrafficTransform::ScaleDemand(-2.0));
        assert!(spec.validate().is_err());
    }
}
