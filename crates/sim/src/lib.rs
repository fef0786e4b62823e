//! Flow- and packet-level simulation for the Jellyfish (NSDI 2012)
//! reproduction.
//!
//! The paper's §5 evaluates routing (ECMP vs k-shortest paths) and congestion
//! control (TCP with 1 or 8 flows, MPTCP with 8 subflows) with the packet
//! simulator written by the MPTCP authors (htsim). That simulator is not
//! part of this repository's dependency budget, so — per DESIGN.md,
//! substitution 2 — this crate implements the same mechanisms from scratch:
//!
//! * [`net`] — the simulated network: hosts, switches, full-duplex links with
//!   finite drop-tail queues, and source-routed packets.
//! * [`tcp`] — a Reno-style TCP sender (slow start, congestion avoidance,
//!   fast retransmit on triple duplicate ACKs, retransmission timeouts).
//! * [`mptcp`] — MPTCP with the Linked-Increases Algorithm (LIA) coupling the
//!   congestion windows of a connection's subflows.
//! * [`engine`] — the discrete-event loop tying it together and reporting
//!   per-connection goodput.
//! * [`routing`] — subflow path assignment: ECMP hashing over shortest
//!   paths, or spreading subflows over Yen's k shortest paths.
//! * [`workload`] — building simulated connections from a workload: any
//!   iterator of [`jellyfish_traffic::Flow`]s.
//! * [`fluid`] — a fast fluid (max-min fair) engine used to cross-check the
//!   packet engine and to run sweeps at sizes where packet-level simulation
//!   is unnecessary.
//! * [`impair`] — deterministic per-link impairment (i.i.d. and
//!   Gilbert–Elliott loss, latency jitter, reordering, duplication, queue
//!   overrides) attached via `Network::with_impairment` and configured by a
//!   spec's `+impair=` transform.
//!
//! Normalization follows the paper: a connection's throughput is reported as
//! a fraction of the server NIC rate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod fluid;
pub mod impair;
pub mod mptcp;
pub mod net;
pub mod routing;
pub mod tcp;
pub mod workload;

pub use engine::{SimConfig, SimReport, Simulator};
/// [`RoutingScheme`](jellyfish_routing::path_table::RoutingScheme) under
/// its former name here. The perfbench harness, which changes only with the
/// benchmark, calls `jellyfish::sim::PathPolicy::ksp8()`; drop this alias
/// together with that call.
pub use jellyfish_routing::path_table::RoutingScheme as PathPolicy;
pub use routing::TransportPolicy;
pub use workload::build_connections;
