//! Flow-level capacity analysis for the Jellyfish (NSDI 2012) reproduction.
//!
//! The paper characterizes a topology's "raw capacity" by solving a standard
//! multi-commodity flow problem with CPLEX: flows are splittable and fluid,
//! and the objective is the largest fraction `λ` of every demand that can be
//! routed simultaneously (max *concurrent* flow). This crate replaces CPLEX
//! with a combinatorial (1 − ε)-approximation (Garg & Könemann, FOCS 1998)
//! whose every solve carries a duality certificate — see DESIGN.md,
//! substitution 1 — and adds the bisection-bandwidth machinery used by
//! Figures 2(a), 2(b) and 7.
//!
//! Modules:
//!
//! * [`mcf`] — the Garg–Könemann max-concurrent multicommodity-flow solver
//!   over the full graph (Dijkstra inner loop): "optimal routing", stopped
//!   once its certified bounds on λ are within a factor 1 + ε.
//! * [`bisection`] — Bollobás's analytic lower bound for random regular
//!   graphs, the fat-tree's closed form, a Kernighan–Lin heuristic for
//!   arbitrary graphs, and full-bisection design-point search.
//! * [`throughput`] — glue that turns any workload (an iterator of
//!   [`jellyfish_traffic::Flow`]s) plus a [`jellyfish_topology::Topology`]
//!   into a normalized throughput number in `[0, 1]`, the unit used
//!   throughout the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bisection;
pub mod mcf;
pub mod throughput;

pub use mcf::{Commodity, McfSolution};
pub use throughput::{normalized_throughput, ThroughputOptions};
