//! The [`Topology`] type: a switch-level graph plus port and server
//! accounting, the common currency of the whole workspace.
//!
//! Following the paper's model (§3), each top-of-rack switch `i` has `k_i`
//! ports, uses `r_i` of them for the switch-to-switch network and the
//! remaining `k_i - r_i` for servers. Structured topologies (fat-tree, Clos)
//! additionally tag switches with a [`SwitchKind`] so that layout and cabling
//! code can reason about layers and pods.

use crate::csr::CsrGraph;
use crate::graph::{Graph, NodeId};
use std::fmt;

/// Role of a switch inside a structured topology.
///
/// Jellyfish topologies use only [`SwitchKind::TopOfRack`]; the fat-tree and
/// Clos generators tag aggregation and core layers so that server placement
/// and cabling distance models can distinguish them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchKind {
    /// Edge / top-of-rack switch (may have servers attached).
    TopOfRack,
    /// Aggregation-layer switch (fat-tree / Clos).
    Aggregation,
    /// Core-layer switch (fat-tree / Clos).
    Core,
}

impl fmt::Display for SwitchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchKind::TopOfRack => write!(f, "tor"),
            SwitchKind::Aggregation => write!(f, "agg"),
            SwitchKind::Core => write!(f, "core"),
        }
    }
}

/// A violated structural invariant, reported by [`Topology::check_invariants`].
///
/// Callers can match on the failure kind instead of string-scraping: graph
/// corruption (adjacency/edge-list disagreement) is a different class of bug
/// than a switch over-committing its port budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantError {
    /// The interconnect graph's internal structures disagree (adjacency vs
    /// edge list, stale edge index, self-loop, duplicate entry).
    Graph {
        /// Description of the corrupt structure, from [`Graph::check_invariants`].
        detail: String,
    },
    /// A switch uses more ports (network links + servers) than it has.
    PortOvercommit {
        /// The offending switch.
        switch: NodeId,
        /// Ports in use (network degree + attached servers).
        used: usize,
        /// The switch's port budget.
        ports: usize,
    },
}

impl fmt::Display for InvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantError::Graph { detail } => write!(f, "graph invariant violated: {detail}"),
            InvariantError::PortOvercommit { switch, used, ports } => {
                write!(f, "switch {switch} uses {used} ports but only has {ports}")
            }
        }
    }
}

impl std::error::Error for InvariantError {}

/// Errors produced by topology generators and mutation procedures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Parameters are inconsistent (e.g. network degree exceeds port count).
    InvalidParameters(String),
    /// The requested structure cannot be built (e.g. too few switches to
    /// reach the requested degree, or an odd degree sum).
    Infeasible(String),
    /// A construction routine exhausted its retry budget.
    ConstructionFailed(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::InvalidParameters(m) => write!(f, "invalid parameters: {m}"),
            TopologyError::Infeasible(m) => write!(f, "infeasible topology: {m}"),
            TopologyError::ConstructionFailed(m) => write!(f, "construction failed: {m}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A data center interconnect: switch-level graph, per-switch port budgets,
/// and per-switch attached-server counts.
///
/// Invariants maintained by all constructors and mutators in this crate:
///
/// * `graph.degree(i) + servers(i) <= ports(i)` for every switch `i`
///   (a switch cannot use more ports than it has);
/// * the graph is simple (no parallel switch-to-switch links).
#[derive(Debug)]
pub struct Topology {
    graph: Graph,
    ports: Vec<usize>,
    servers: Vec<usize>,
    kinds: Vec<SwitchKind>,
    name: String,
    /// Bumped by every mutation; lets CSR-snapshot holders detect staleness.
    generation: u64,
}

/// `clone_from` reuses the target's buffers field by field, as
/// [`Graph`]'s does.
impl Clone for Topology {
    fn clone(&self) -> Self {
        Topology {
            graph: self.graph.clone(),
            ports: self.ports.clone(),
            servers: self.servers.clone(),
            kinds: self.kinds.clone(),
            name: self.name.clone(),
            generation: self.generation,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.graph.clone_from(&source.graph);
        self.ports.clone_from(&source.ports);
        self.servers.clone_from(&source.servers);
        self.kinds.clone_from(&source.kinds);
        self.name.clone_from(&source.name);
        self.generation = source.generation;
    }
}

impl Topology {
    /// Creates a topology from parts. Panics if the vectors disagree in
    /// length with the graph or if any switch over-commits its ports.
    pub fn from_parts(
        graph: Graph,
        ports: Vec<usize>,
        servers: Vec<usize>,
        kinds: Vec<SwitchKind>,
        name: impl Into<String>,
    ) -> Self {
        assert_eq!(graph.num_nodes(), ports.len());
        assert_eq!(graph.num_nodes(), servers.len());
        assert_eq!(graph.num_nodes(), kinds.len());
        for n in graph.nodes() {
            assert!(
                graph.degree(n) + servers[n] <= ports[n],
                "switch {n} uses {} network + {} server ports but only has {}",
                graph.degree(n),
                servers[n],
                ports[n]
            );
        }
        Topology { graph, ports, servers, kinds, name: name.into(), generation: 0 }
    }

    /// Creates a homogeneous ToR-only topology: every switch has `ports`
    /// ports and `servers_per_switch` servers attached.
    pub fn homogeneous(graph: Graph, ports: usize, servers_per_switch: usize) -> Self {
        let n = graph.num_nodes();
        Topology::from_parts(
            graph,
            vec![ports; n],
            vec![servers_per_switch; n],
            vec![SwitchKind::TopOfRack; n],
            "topology",
        )
    }

    /// Human-readable name ("jellyfish", "fat-tree", ...), used in reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the topology name (builder-style).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The switch-level interconnect graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Mutable access to the interconnect graph.
    ///
    /// Callers must preserve the port-budget invariant; expansion and failure
    /// procedures in this crate do so and re-check in debug builds.
    ///
    /// Handing out mutable access counts as a mutation: the [generation
    /// counter](Topology::generation) is bumped even if the caller ends up
    /// changing nothing, so previously taken [`CsrGraph`] snapshots
    /// conservatively read as stale.
    pub fn graph_mut(&mut self) -> &mut Graph {
        self.generation += 1;
        &mut self.graph
    }

    /// Takes an immutable [`CsrGraph`] snapshot of the interconnect.
    ///
    /// This is the representation every consumer crate (routing, flow, sim)
    /// traverses; take the snapshot once per finished topology and re-take it
    /// after mutations (expansion, failures). Pair the snapshot with
    /// [`Topology::generation`] to detect staleness: a snapshot taken at
    /// generation `g` no longer reflects the topology once `generation() != g`.
    pub fn csr(&self) -> CsrGraph {
        CsrGraph::from_graph(&self.graph)
    }

    /// Mutation counter: incremented by every mutating method
    /// ([`Topology::graph_mut`], [`Topology::add_switch`],
    /// [`Topology::set_servers`], [`Topology::connect`],
    /// [`Topology::disconnect`]). A [`CsrGraph`] snapshot taken when this
    /// counter read `g` is stale — silently missing links or switches —
    /// as soon as the counter moves past `g`.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of switch-to-switch links.
    pub fn num_links(&self) -> usize {
        self.graph.num_edges()
    }

    /// Total ports of switch `i`.
    pub fn ports(&self, i: NodeId) -> usize {
        self.ports[i]
    }

    /// Servers attached to switch `i`.
    pub fn servers(&self, i: NodeId) -> usize {
        self.servers[i]
    }

    /// Role of switch `i`.
    pub fn kind(&self, i: NodeId) -> SwitchKind {
        self.kinds[i]
    }

    /// Free (unused) ports on switch `i`.
    pub fn free_ports(&self, i: NodeId) -> usize {
        self.ports[i] - self.graph.degree(i) - self.servers[i]
    }

    /// Total number of servers across all switches.
    pub fn total_servers(&self) -> usize {
        self.servers.iter().sum()
    }

    /// Total number of switch ports bought (the paper's equipment-cost
    /// proxy: "Equipment Cost [#Ports]").
    pub fn total_ports(&self) -> usize {
        self.ports.iter().sum()
    }

    /// Switches that have servers attached (the "racks").
    pub fn racks(&self) -> Vec<NodeId> {
        self.graph.nodes().filter(|&n| self.servers[n] > 0).collect()
    }

    /// Adds a new switch with the given port budget and server count, not yet
    /// connected to anything. Returns its node id.
    pub fn add_switch(&mut self, ports: usize, servers: usize, kind: SwitchKind) -> NodeId {
        assert!(servers <= ports, "cannot attach more servers than ports");
        self.generation += 1;
        let id = self.graph.add_node();
        self.ports.push(ports);
        self.servers.push(servers);
        self.kinds.push(kind);
        id
    }

    /// Sets the number of servers attached to switch `i`.
    ///
    /// Returns an error if that would exceed the switch's free ports.
    pub fn set_servers(&mut self, i: NodeId, servers: usize) -> Result<(), TopologyError> {
        if self.graph.degree(i) + servers > self.ports[i] {
            return Err(TopologyError::InvalidParameters(format!(
                "switch {i}: {} network links + {servers} servers exceeds {} ports",
                self.graph.degree(i),
                self.ports[i]
            )));
        }
        self.servers[i] = servers;
        self.generation += 1;
        Ok(())
    }

    /// Connects switches `u` and `v` if both have a free port and are not yet
    /// adjacent. Returns `true` on success.
    pub fn connect(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v || self.free_ports(u) == 0 || self.free_ports(v) == 0 || self.graph.has_edge(u, v)
        {
            return false;
        }
        self.generation += 1;
        self.graph.add_edge(u, v)
    }

    /// Disconnects switches `u` and `v`. Returns `true` if a link existed.
    pub fn disconnect(&mut self, u: NodeId, v: NodeId) -> bool {
        self.generation += 1;
        self.graph.remove_edge(u, v)
    }

    /// Verifies all structural invariants; used by tests and after expansion.
    pub fn check_invariants(&self) -> Result<(), InvariantError> {
        self.graph.check_invariants().map_err(|detail| InvariantError::Graph { detail })?;
        for n in self.graph.nodes() {
            let used = self.graph.degree(n) + self.servers[n];
            if used > self.ports[n] {
                return Err(InvariantError::PortOvercommit {
                    switch: n,
                    used,
                    ports: self.ports[n],
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        Topology::homogeneous(g, 4, 2)
    }

    #[test]
    fn homogeneous_accounting() {
        let t = triangle();
        assert_eq!(t.num_switches(), 3);
        assert_eq!(t.num_links(), 3);
        assert_eq!(t.total_servers(), 6);
        assert_eq!(t.total_ports(), 12);
        assert_eq!(t.free_ports(0), 0);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    #[should_panic(expected = "uses")]
    fn overcommitted_ports_panic() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        // 1 network port + 3 servers > 3 ports.
        let _ = Topology::homogeneous(g, 3, 3);
    }

    #[test]
    fn connect_respects_free_ports() {
        let g = Graph::new(3);
        let mut t = Topology::from_parts(
            g,
            vec![2, 2, 1],
            vec![1, 0, 0],
            vec![SwitchKind::TopOfRack; 3],
            "t",
        );
        assert!(t.connect(0, 1));
        // Switch 0 now has 1 link + 1 server = 2 ports used: full.
        assert!(!t.connect(0, 2));
        assert!(t.connect(1, 2));
        // Switch 2 has 1 port, now full.
        assert_eq!(t.free_ports(2), 0);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn connect_rejects_duplicates_and_self() {
        let mut t = triangle();
        assert!(!t.connect(0, 0));
        assert!(!t.connect(0, 1), "already adjacent");
    }

    #[test]
    fn set_servers_bounds_checked() {
        let mut t = triangle();
        assert!(t.set_servers(0, 2).is_ok());
        assert!(t.set_servers(0, 3).is_err());
    }

    #[test]
    fn add_switch_and_connect() {
        let mut t = triangle();
        let s = t.add_switch(4, 1, SwitchKind::TopOfRack);
        assert_eq!(s, 3);
        assert_eq!(t.free_ports(s), 3);
        // Existing switches are full (4 ports = 2 links + 2 servers).
        assert!(!t.connect(s, 0));
        t.set_servers(0, 1).unwrap();
        assert!(t.connect(s, 0));
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn racks_and_ratio() {
        let mut t = triangle();
        t.set_servers(1, 0).unwrap();
        assert_eq!(t.racks(), vec![0, 2]);
        // 4 server ports against 6 network port-endpoints.
        assert_eq!(t.total_servers(), 4);
        assert_eq!(t.graph().nodes().map(|n| t.graph().degree(n)).sum::<usize>(), 6);
    }

    #[test]
    fn disconnect_frees_ports() {
        let mut t = triangle();
        assert!(t.disconnect(0, 1));
        assert_eq!(t.free_ports(0), 1);
        assert_eq!(t.free_ports(1), 1);
        assert!(!t.disconnect(0, 1));
    }

    #[test]
    fn kind_display() {
        assert_eq!(SwitchKind::TopOfRack.to_string(), "tor");
        assert_eq!(SwitchKind::Aggregation.to_string(), "agg");
        assert_eq!(SwitchKind::Core.to_string(), "core");
    }

    #[test]
    fn error_display() {
        let e = TopologyError::Infeasible("odd degree sum".into());
        assert!(e.to_string().contains("odd degree sum"));
    }

    #[test]
    fn every_mutator_bumps_the_generation() {
        let mut t = triangle();
        let g0 = t.generation();
        t.disconnect(0, 1);
        assert!(t.generation() > g0, "disconnect must bump the generation");
        let g1 = t.generation();
        t.connect(0, 1);
        assert!(t.generation() > g1, "connect must bump the generation");
        let g2 = t.generation();
        t.set_servers(0, 1).unwrap();
        assert!(t.generation() > g2, "set_servers must bump the generation");
        let g3 = t.generation();
        t.add_switch(4, 0, SwitchKind::TopOfRack);
        assert!(t.generation() > g3, "add_switch must bump the generation");
        let g4 = t.generation();
        // graph_mut is conservative: handing out &mut Graph counts as a
        // mutation even if the caller changes nothing.
        let _ = t.graph_mut();
        assert!(t.generation() > g4, "graph_mut must bump the generation");
        // Read-only accessors do not bump.
        let g5 = t.generation();
        let _ = t.csr();
        let _ = t.free_ports(0);
        assert_eq!(t.generation(), g5);
    }

    #[test]
    fn failed_connect_still_reads_as_mutation_conservatively() {
        let mut t = triangle();
        let g0 = t.generation();
        // Already adjacent: connect returns false. A rejected no-op connect
        // does not touch the graph, but `connect` pre-checks before bumping,
        // so the generation stays put here.
        assert!(!t.connect(0, 1));
        assert_eq!(t.generation(), g0);
    }

    #[test]
    fn invariant_error_is_matchable_by_kind() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        let mut t =
            Topology::from_parts(g, vec![4, 4], vec![1, 1], vec![SwitchKind::TopOfRack; 2], "t");
        assert_eq!(t.check_invariants(), Ok(()));
        // Over-commit switch 0 behind the checker's back.
        for _ in 0..4 {
            let v = t.graph_mut().add_node();
            t.ports.push(1);
            t.servers.push(0);
            t.kinds.push(SwitchKind::TopOfRack);
            t.graph_mut().add_edge(0, v);
        }
        match t.check_invariants() {
            Err(InvariantError::PortOvercommit { switch: 0, used, ports: 4 }) => {
                assert!(used > 4);
            }
            other => panic!("expected PortOvercommit for switch 0, got {other:?}"),
        }
        let msg = t.check_invariants().unwrap_err().to_string();
        assert!(msg.contains("switch 0"), "display should name the switch: {msg}");
    }
}
