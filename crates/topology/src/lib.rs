//! Topology substrate for the Jellyfish (NSDI 2012) reproduction.
//!
//! This crate provides everything the paper's evaluation needs at the
//! topology layer:
//!
//! * [`Graph`] — a small, dependency-free undirected graph with port
//!   accounting, used as the switch-level interconnect representation while
//!   a topology is being built or mutated.
//! * [`CsrGraph`] (module [`csr`]) — the immutable compressed-sparse-row
//!   snapshot taken from a finished [`Graph`]; the only graph representation
//!   the routing, flow and simulation crates consume. Build it with
//!   [`Topology::csr`].
//! * [`Topology`] — a graph plus per-switch port counts and attached-server
//!   counts; the unit every generator in this crate produces and every
//!   consumer (routing, flow, simulation) accepts.
//! * [`JellyfishBuilder`] (module [`rrg`]) — the paper's §3 construction of a
//!   degree-bounded random regular graph among top-of-rack switches.
//! * [`expansion`] — the paper's §4.2 incremental-expansion procedure (add a
//!   rack or a bare switch by breaking random existing links).
//! * [`fattree`] — the three-level k-ary fat-tree baseline of Al-Fares et al.
//! * [`swdc`] — Small-World Data Center baselines (ring, 2-D torus,
//!   3-D hex torus lattices with random shortcuts).
//! * [`clos`] — folded-Clos / leaf-spine generator and a budgeted upgrade
//!   planner used as the LEGUP stand-in.
//! * [`degree_diameter`] — benchmark graphs approximating the best-known
//!   degree-diameter graphs via simulated annealing on average path length.
//! * [`spec`] — the [`TopoSpec`] registry: every generator above as a
//!   parseable, round-trippable spec string
//!   (`jellyfish:switches=245,ports=14,degree=11+fail_links=0.08`) with
//!   composable scenario transforms; see TOPOLOGIES.md.
//! * [`failures`] — random link / switch failure injection.
//! * [`properties`] — switch- and server-pair path-length distributions and
//!   diameter (Figure 1(c) and Figure 5 machinery).
//! * [`bfs`] — the multi-source BFS distance kernel (with its scalar test
//!   oracle), the block driver every hop-distance sweep runs through, and
//!   the flat [`DistanceMatrix`] all-pairs result; see PERF.md at the
//!   repository root.
//!
//! # Quick example
//!
//! ```
//! use jellyfish_topology::{JellyfishBuilder, properties};
//!
//! // 20 switches, 12 ports each, 8 used for the network, 4 for servers.
//! let topo = JellyfishBuilder::new(20, 12, 8).seed(7).build().unwrap();
//! assert_eq!(topo.num_switches(), 20);
//! assert_eq!(topo.total_servers(), 20 * 4);
//! let stats = properties::path_length_stats(&topo.csr());
//! assert!(stats.mean > 1.0 && stats.diameter <= 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod clos;
pub mod csr;
pub mod degree_diameter;
pub mod expansion;
pub mod failures;
pub mod fattree;
pub mod graph;
pub mod properties;
pub mod rrg;
pub mod spec;
pub mod swdc;
pub mod topology;

pub use bfs::{DistanceMatrix, MsBfsScratch, UNREACHED};
pub use csr::{ArcId, CsrGraph, EdgeId};
pub use graph::{Graph, NodeId};
pub use rrg::JellyfishBuilder;
pub use spec::{ScenarioTransform, SpecError, TopoSpec, TopologyGenerator};
pub use topology::{InvariantError, SwitchKind, Topology, TopologyError};
