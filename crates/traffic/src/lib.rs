//! Workload generation for the Jellyfish (NSDI 2012) reproduction.
//!
//! The paper's primary workload is **random permutation traffic**: each
//! server sends at its full line rate to exactly one other server and
//! receives from exactly one other server, with the permutation drawn
//! uniformly at random (§4, evaluation methodology). This crate generates
//! that workload — plus a few others useful for extensions — at the server
//! level and maps it onto switch-level demands ([`switch_demands`]).
//!
//! Every workload is built by a [`TrafficSpec`] as a lazy [`FlowStream`],
//! and every consumer (the flow solver's throughput entry point, the
//! simulator's connection builder, [`switch_demands`]) takes any
//! `IntoIterator<Item = Flow>`. A [`TrafficMatrix`] is a resident flow list:
//! the body of the `permutation` and `hotspot` generators, and — through
//! `&TrafficMatrix`'s `IntoIterator` impl — a valid consumer input as well.
//!
//! Servers are numbered globally: server `j` of switch `i` gets the id
//! obtained by counting servers switch by switch in node order (see
//! [`ServerMap`]).
//!
//! ```
//! use jellyfish_topology::JellyfishBuilder;
//! use jellyfish_traffic::{ServerMap, TrafficSpec};
//!
//! let topo = JellyfishBuilder::new(10, 6, 3).seed(1).build().unwrap();
//! let servers = ServerMap::new(&topo);
//! let workload = TrafficSpec::permutation().stream(&servers, 7).unwrap();
//! assert_eq!(workload.len(), servers.num_servers());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod spec;
pub mod stream;

pub use spec::{
    find_generator, generators, transform_grammar, Epoch, TrafficGenerator, TrafficSpec,
    TrafficTransform,
};
pub use stream::FlowStream;

use jellyfish_topology::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Mapping between global server ids and the switches hosting them.
#[derive(Debug, Clone)]
pub struct ServerMap {
    /// `switch_of[s]` is the ToR switch hosting server `s`.
    switch_of: Vec<NodeId>,
    /// `first_server[i]` is the id of the first server on switch `i`
    /// (servers of a switch are contiguous); has one extra trailing entry
    /// equal to the total server count.
    first_server: Vec<usize>,
}

impl ServerMap {
    /// Builds the server map of a topology.
    pub fn new(topo: &Topology) -> Self {
        let mut switch_of = Vec::with_capacity(topo.total_servers());
        let mut first_server = Vec::with_capacity(topo.num_switches() + 1);
        for i in topo.graph().nodes() {
            first_server.push(switch_of.len());
            for _ in 0..topo.servers(i) {
                switch_of.push(i);
            }
        }
        first_server.push(switch_of.len());
        ServerMap { switch_of, first_server }
    }

    /// A synthetic uniform map: `num_switches` switches hosting
    /// `servers_per_switch` servers each, with no topology behind it. Used
    /// by tests and benchmarks that exercise workload generation at scales
    /// where building a full topology would dominate the cost.
    pub fn uniform(num_switches: usize, servers_per_switch: usize) -> Self {
        let mut switch_of = Vec::with_capacity(num_switches * servers_per_switch);
        let mut first_server = Vec::with_capacity(num_switches + 1);
        for i in 0..num_switches {
            first_server.push(switch_of.len());
            for _ in 0..servers_per_switch {
                switch_of.push(i);
            }
        }
        first_server.push(switch_of.len());
        ServerMap { switch_of, first_server }
    }

    /// Total number of servers.
    pub fn num_servers(&self) -> usize {
        self.switch_of.len()
    }

    /// Number of switches in the map (including any hosting no servers).
    pub fn num_switches(&self) -> usize {
        self.first_server.len() - 1
    }

    /// The switch hosting server `s`.
    pub fn switch_of(&self, s: usize) -> NodeId {
        self.switch_of[s]
    }

    /// The global ids of the servers hosted by switch `i`.
    pub fn servers_of(&self, i: NodeId) -> std::ops::Range<usize> {
        self.first_server[i]..self.first_server[i + 1]
    }
}

/// A single server-to-server demand, in units of the server line rate
/// (1.0 = the server sends at its full NIC rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Sending server (global id).
    pub src: usize,
    /// Receiving server (global id).
    pub dst: usize,
    /// Demand as a fraction of the line rate.
    pub demand: f64,
}

/// A resident server-level flow list: the body of the eager generators
/// (`permutation`, `hotspot`) and a reference for the lazy ones in tests.
#[derive(Debug, Clone)]
pub struct TrafficMatrix {
    flows: Vec<Flow>,
}

impl TrafficMatrix {
    /// Creates a traffic matrix from explicit flows between `num_servers`
    /// servers; panics on an out-of-range endpoint or a negative demand.
    pub fn from_flows(flows: Vec<Flow>, num_servers: usize) -> Self {
        for f in &flows {
            assert!(f.src < num_servers && f.dst < num_servers, "flow endpoints out of range");
            assert!(f.demand >= 0.0, "negative demand");
        }
        TrafficMatrix { flows }
    }

    /// Random permutation traffic (the paper's workload): a uniform random
    /// derangement-ish permutation where no server sends to itself; each flow
    /// has unit demand.
    ///
    /// Servers hosted on the same switch may still be paired (the paper does
    /// not exclude that), but a server never sends to itself.
    pub fn random_permutation(servers: &ServerMap, seed: u64) -> Self {
        let n = servers.num_servers();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dst: Vec<usize> = (0..n).collect();
        if n > 1 {
            loop {
                dst.shuffle(&mut rng);
                if dst.iter().enumerate().all(|(s, &d)| s != d) {
                    break;
                }
            }
        }
        let flows = if n > 1 {
            (0..n).map(|s| Flow { src: s, dst: dst[s], demand: 1.0 }).collect()
        } else {
            Vec::new()
        };
        TrafficMatrix { flows }
    }

    /// All-to-all traffic: every ordered server pair exchanges `1/(n-1)` of
    /// the line rate, so every server sends (and receives) at exactly line
    /// rate in aggregate.
    pub fn all_to_all(servers: &ServerMap) -> Self {
        let n = servers.num_servers();
        let mut flows = Vec::with_capacity(n.saturating_sub(1) * n);
        if n > 1 {
            let demand = 1.0 / (n - 1) as f64;
            for s in 0..n {
                for d in 0..n {
                    if s != d {
                        flows.push(Flow { src: s, dst: d, demand });
                    }
                }
            }
        }
        TrafficMatrix { flows }
    }

    /// Hotspot traffic: a `fraction` of servers (at least one) are chosen as
    /// hot destinations; every other server sends its full line rate to a
    /// uniformly chosen hot server. Models incast-style skew.
    pub fn hotspot(servers: &ServerMap, fraction: f64, seed: u64) -> Self {
        let n = servers.num_servers();
        let mut rng = StdRng::seed_from_u64(seed);
        let hot_count = ((n as f64 * fraction.clamp(0.0, 1.0)).round() as usize).clamp(1, n.max(1));
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(&mut rng);
        let hot: Vec<usize> = ids.into_iter().take(hot_count).collect();
        let mut flows = Vec::new();
        for s in 0..n {
            let candidates: Vec<usize> = hot.iter().copied().filter(|&h| h != s).collect();
            if candidates.is_empty() {
                continue;
            }
            let d = candidates[rng.gen_range(0..candidates.len())];
            flows.push(Flow { src: s, dst: d, demand: 1.0 });
        }
        TrafficMatrix { flows }
    }

    /// Stride traffic: server `s` sends to server `(s + stride) mod n` at
    /// full rate. A structured pattern useful as an adversarial complement to
    /// the random permutation.
    pub fn stride(servers: &ServerMap, stride: usize) -> Self {
        let n = servers.num_servers();
        let flows = if n > 1 && !stride.is_multiple_of(n) {
            (0..n).map(|s| Flow { src: s, dst: (s + stride) % n, demand: 1.0 }).collect()
        } else {
            Vec::new()
        };
        TrafficMatrix { flows }
    }

    /// The flows of this matrix.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Converts this matrix into a stream over its flows without copying.
    pub fn into_stream(self) -> FlowStream {
        FlowStream::from_flows(self.flows)
    }
}

/// A resident matrix is a consumer input like any stream: its flows are
/// copied out one at a time. The perfbench harness passes `&TrafficMatrix`
/// to `normalized_throughput` and `build_connections` through this impl.
impl<'a> IntoIterator for &'a TrafficMatrix {
    type Item = Flow;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Flow>>;

    fn into_iter(self) -> Self::IntoIter {
        self.flows.iter().copied()
    }
}

/// Aggregates server-level flows into switch-level demands: one
/// `(src_switch, dst_switch, demand)` entry per switch pair with non-zero
/// demand, ascending by `(src, dst)`. Flows between servers on the same
/// switch are excluded (they never cross the interconnect). Peak memory is
/// the map of switch pairs, not the flow count, so a lazy stream is never
/// materialized.
pub fn switch_demands(
    flows: impl IntoIterator<Item = Flow>,
    servers: &ServerMap,
) -> Vec<(NodeId, NodeId, f64)> {
    use std::collections::BTreeMap;
    // A BTreeMap keeps the aggregation deterministic end to end: the
    // per-pair accumulation order is the (fixed) flow order, and the
    // output order is ascending (src, dst) by construction — no sort,
    // no hash-order dependence (D01, LINTS.md).
    let mut agg: BTreeMap<(NodeId, NodeId), f64> = BTreeMap::new();
    for f in flows {
        let s = servers.switch_of(f.src);
        let d = servers.switch_of(f.dst);
        if s != d {
            *agg.entry((s, d)).or_insert(0.0) += f.demand;
        }
    }
    agg.into_iter().map(|((s, d), v)| (s, d, v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish_topology::JellyfishBuilder;

    fn topo() -> jellyfish_topology::Topology {
        JellyfishBuilder::new(12, 8, 5).seed(3).build().unwrap()
    }

    #[test]
    fn server_map_contiguous_and_complete() {
        let t = topo();
        let m = ServerMap::new(&t);
        assert_eq!(m.num_servers(), 12 * 3);
        for i in t.graph().nodes() {
            let range = m.servers_of(i);
            assert_eq!(range.len(), 3);
            for s in range {
                assert_eq!(m.switch_of(s), i);
            }
        }
    }

    #[test]
    fn random_permutation_is_a_permutation() {
        let t = topo();
        let m = ServerMap::new(&t);
        let tm = TrafficMatrix::random_permutation(&m, 11);
        let n = m.num_servers();
        assert_eq!(tm.flows().len(), n);
        let mut sends = vec![0usize; n];
        let mut recvs = vec![0usize; n];
        for f in tm.flows() {
            assert_ne!(f.src, f.dst, "server sends to itself");
            assert_eq!(f.demand, 1.0);
            sends[f.src] += 1;
            recvs[f.dst] += 1;
        }
        assert!(sends.iter().all(|&c| c == 1));
        assert!(recvs.iter().all(|&c| c == 1));
    }

    #[test]
    fn random_permutation_deterministic_per_seed() {
        let t = topo();
        let m = ServerMap::new(&t);
        let a = TrafficMatrix::random_permutation(&m, 5);
        let b = TrafficMatrix::random_permutation(&m, 5);
        let c = TrafficMatrix::random_permutation(&m, 6);
        assert_eq!(a.flows(), b.flows());
        assert_ne!(a.flows(), c.flows());
    }

    #[test]
    fn all_to_all_load_is_unit() {
        let t = JellyfishBuilder::new(5, 6, 3).seed(2).build().unwrap();
        let m = ServerMap::new(&t);
        let tm = TrafficMatrix::all_to_all(&m);
        let n = m.num_servers();
        assert_eq!(tm.flows().len(), n * (n - 1));
        let (mut egress, mut ingress) = (vec![0.0; n], vec![0.0; n]);
        for f in &tm {
            egress[f.src] += f.demand;
            ingress[f.dst] += f.demand;
        }
        for load in egress.into_iter().chain(ingress) {
            assert!((load - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn hotspot_targets_hot_servers_only() {
        let t = topo();
        let m = ServerMap::new(&t);
        let tm = TrafficMatrix::hotspot(&m, 0.1, 4);
        let n = m.num_servers();
        let hot_count = (n as f64 * 0.1).round() as usize;
        let mut dsts: Vec<usize> = tm.flows().iter().map(|f| f.dst).collect();
        dsts.sort_unstable();
        dsts.dedup();
        assert!(dsts.len() <= hot_count.max(1));
        assert!(tm.flows().len() >= n - hot_count);
        for f in tm.flows() {
            assert_ne!(f.src, f.dst);
        }
    }

    #[test]
    fn stride_wraps_around() {
        let t = JellyfishBuilder::new(4, 6, 3).seed(1).build().unwrap();
        let m = ServerMap::new(&t);
        let tm = TrafficMatrix::stride(&m, 3);
        assert_eq!(tm.flows().len(), 12);
        for f in tm.flows() {
            assert_eq!(f.dst, (f.src + 3) % 12);
        }
        // stride 0 (mod n) produces no flows.
        assert!(TrafficMatrix::stride(&m, 0).flows().is_empty());
        assert!(TrafficMatrix::stride(&m, 12).flows().is_empty());
    }

    #[test]
    fn switch_demands_exclude_intra_switch_flows() {
        let t = JellyfishBuilder::new(4, 6, 3).seed(1).build().unwrap();
        let m = ServerMap::new(&t);
        // Handcrafted: server 0 -> 1 (same switch 0), server 0 -> 5 (switch 1),
        // server 3 -> 8 (switch 1 -> switch 2).
        let flows = vec![
            Flow { src: 0, dst: 1, demand: 1.0 },
            Flow { src: 0, dst: 5, demand: 0.5 },
            Flow { src: 3, dst: 8, demand: 0.25 },
        ];
        let demands = switch_demands(flows, &m);
        assert_eq!(demands.len(), 2);
        assert_eq!(demands[0], (0, 1, 0.5));
        assert_eq!(demands[1], (1, 2, 0.25));
    }

    #[test]
    fn from_flows_validates_ranges() {
        let t = JellyfishBuilder::new(4, 6, 3).seed(1).build().unwrap();
        let m = ServerMap::new(&t);
        let flows = vec![Flow { src: 0, dst: 2, demand: 0.5 }];
        let tm = TrafficMatrix::from_flows(flows.clone(), m.num_servers());
        assert_eq!(tm.flows(), flows.as_slice());
        assert_eq!((&tm).into_iter().collect::<Vec<_>>(), flows);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_flows_panics_on_bad_endpoint() {
        TrafficMatrix::from_flows(vec![Flow { src: 0, dst: 99, demand: 1.0 }], 4);
    }

    #[test]
    fn single_server_has_no_flows() {
        let t = JellyfishBuilder::new(1, 4, 0).build().unwrap();
        let m = ServerMap::new(&t);
        assert_eq!(m.num_servers(), 4);
        let t1 = JellyfishBuilder::new(1, 1, 0).build().unwrap();
        let m1 = ServerMap::new(&t1);
        assert_eq!(m1.num_servers(), 1);
        assert!(TrafficMatrix::random_permutation(&m1, 0).flows().is_empty());
        assert!(TrafficMatrix::all_to_all(&m1).flows().is_empty());
    }
}
