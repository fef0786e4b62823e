//! # Jellyfish: Networking Data Centers Randomly — reproduction library
//!
//! This crate is the top-level API of a full reproduction of
//! *Jellyfish: Networking Data Centers Randomly* (Singla, Hong, Popa,
//! Godfrey — NSDI 2012). It re-exports the substrate crates and adds the
//! experiment harness the paper's evaluation is built from:
//!
//! * [`capacity`] — the "how many servers can this network support at full
//!   throughput?" binary search (paper §4, evaluation methodology).
//! * [`metrics`] — Jain's fairness index and the latency histogram.
//! * [`cabling`] — the two-layer (container-localized) Jellyfish of §6.3.
//! * [`legup`] — the incremental-expansion cost comparison against a
//!   LEGUP-style Clos upgrade planner (Figure 7).
//! * [`experiment`] — the first-class experiment API: every figure/table of
//!   the paper as a named, shardable [`experiment::Experiment`] producing one
//!   uniform [`experiment::Dataset`] (TSV/JSON), with a static registry and
//!   `K/N` sharding whose merged output is byte-identical to a
//!   single-process run.
//! * [`figures`] — the shared experiment vocabulary ([`figures::Scale`],
//!   [`figures::Series`], [`figures::ParseScaleError`]); the
//!   `jellyfish-bench` crate turns the registry into the `figures` CLI
//!   (`list`, `run`, `launch`, `merge`, `serve`, `topo`, `traffic`).
//! * [`service`] — the live-topology session: a resident
//!   [`Topology`](jellyfish_topology::Topology) + CSR snapshot that absorbs
//!   typed [`service::ChurnEvent`] deltas with incremental routing repair
//!   and answers [`service::Query`] requests, byte-identical to rebuilding
//!   from scratch (see SERVE.md).
//!
//! ## Quick start
//!
//! ```
//! use jellyfish::prelude::*;
//!
//! // Build RRG(20, 8, 5): 20 ToR switches, 8 ports each, 5 towards the network.
//! let topo = JellyfishBuilder::new(20, 8, 5).seed(42).build().unwrap();
//! let servers = ServerMap::new(&topo);
//! let workload = TrafficSpec::permutation().stream(&servers, 7).unwrap();
//! let result = normalized_throughput(&topo, &servers, workload, ThroughputOptions::default());
//! assert!(result.normalized > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cabling;
pub mod capacity;
pub mod experiment;
pub mod figures;
pub mod json;
pub mod legup;
pub mod metrics;
pub mod service;

pub use jellyfish_flow as flow;
pub use jellyfish_routing as routing;
pub use jellyfish_sim as sim;
pub use jellyfish_topology as topology;
pub use jellyfish_traffic as traffic;

/// Convenience re-exports of the types most experiments need.
pub mod prelude {
    pub use crate::capacity::{servers_at_full_throughput, CapacitySearchOptions};
    pub use crate::metrics::jain_fairness_index;
    pub use jellyfish_flow::throughput::{normalized_throughput, ThroughputOptions};
    pub use jellyfish_flow::Commodity;
    pub use jellyfish_routing::path_table::RoutingScheme;
    pub use jellyfish_routing::yen::k_shortest_paths;
    pub use jellyfish_sim::{SimConfig, Simulator, TransportPolicy};
    pub use jellyfish_topology::fattree::FatTree;
    pub use jellyfish_topology::{JellyfishBuilder, Topology};
    pub use jellyfish_traffic::{FlowStream, ServerMap, TrafficMatrix, TrafficSpec};
}
