//! Incremental expansion of Jellyfish topologies (paper §4.2).
//!
//! To add a new rack (a ToR switch `u` with servers attached), pick a random
//! existing link `(v, w)` such that `u` is connected to neither endpoint,
//! remove it, and add `(u, v)` and `(u, w)`, consuming two ports on `u`.
//! Repeat until `u`'s network ports are exhausted (or a single odd port
//! remains). The same procedure with zero servers adds pure network capacity.
//!
//! The procedures here mutate a [`Topology`] in place, never touch more
//! cables than the ports being added (the paper's rewiring bound), and keep
//! the port-budget invariants intact.

use crate::graph::{Edge, Graph, NodeId};
use crate::topology::{SwitchKind, Topology, TopologyError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of a single switch-incorporation step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpansionReport {
    /// Node id of the newly added switch.
    pub new_switch: NodeId,
    /// Links that were removed to make room (each provided two attachment
    /// points for the new switch).
    pub removed_links: Vec<(NodeId, NodeId)>,
    /// Links that were added (all incident to the new switch).
    pub added_links: Vec<(NodeId, NodeId)>,
    /// Network ports on the new switch that could not be matched (0 or 1 in a
    /// healthy expansion; more if the existing network is too small).
    pub unmatched_ports: usize,
}

impl ExpansionReport {
    /// Number of cable operations: one disconnect per removed link plus one
    /// connect per added link. This is the quantity the paper argues stays
    /// proportional to the ports being added.
    pub fn cable_operations(&self) -> usize {
        self.removed_links.len() + self.added_links.len()
    }
}

/// Adds one new switch with `ports` total ports, `servers` of them attached
/// to servers and the rest wired into the network via the random link-splice
/// procedure.
///
/// Returns a report describing exactly which cables changed.
pub fn add_switch(
    topo: &mut Topology,
    ports: usize,
    servers: usize,
    seed: u64,
) -> Result<ExpansionReport, TopologyError> {
    if servers > ports {
        return Err(TopologyError::InvalidParameters(format!(
            "cannot attach {servers} servers to a {ports}-port switch"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let u = topo.add_switch(ports, servers, SwitchKind::TopOfRack);
    let target_degree = ports - servers;
    let mut removed = Vec::new();
    let mut added = Vec::new();

    // While at least two network ports remain free on u, splice into a random
    // existing link whose endpoints are both new neighbors for u.
    while topo.free_ports(u) >= 2 {
        let Some((v, w)) = pick_splice_link(topo.graph(), u, &mut rng) else {
            break;
        };
        topo.disconnect(v, w);
        let ok1 = topo.connect(u, v);
        let ok2 = topo.connect(u, w);
        debug_assert!(ok1 && ok2, "splice endpoints must accept the new links");
        removed.push((v, w));
        added.push((u, v));
        added.push((u, w));
    }

    // A single remaining port: try to match it against any other switch with
    // a free port (the paper: "could be matched with another free port on an
    // existing rack, used for a server, or left free").
    if topo.free_ports(u) == 1 {
        let candidates: Vec<NodeId> = topo
            .graph()
            .nodes()
            .filter(|&v| v != u && topo.free_ports(v) >= 1 && !topo.graph().has_edge(u, v))
            .collect();
        if !candidates.is_empty() {
            let v = candidates[rng.gen_range(0..candidates.len())];
            if topo.connect(u, v) {
                added.push((u, v));
            }
        }
    }

    let unmatched = target_degree.saturating_sub(topo.graph().degree(u));
    debug_assert!(topo.check_invariants().is_ok());
    Ok(ExpansionReport {
        new_switch: u,
        removed_links: removed,
        added_links: added,
        unmatched_ports: unmatched,
    })
}

/// Adds `count` new racks, each a switch with `ports` ports and `servers`
/// servers, one after another. Returns one report per rack.
pub fn add_racks(
    topo: &mut Topology,
    count: usize,
    ports: usize,
    servers: usize,
    seed: u64,
) -> Result<Vec<ExpansionReport>, TopologyError> {
    let mut reports = Vec::with_capacity(count);
    for i in 0..count {
        reports.push(add_switch(topo, ports, servers, seed.wrapping_add(i as u64))?);
    }
    Ok(reports)
}

/// Adds a switch carrying no servers: pure network-capacity expansion
/// (all ports join the interconnect). This is the "adding only switches"
/// expansion avenue the paper uses in the LEGUP comparison.
pub fn add_network_switch(
    topo: &mut Topology,
    ports: usize,
    seed: u64,
) -> Result<ExpansionReport, TopologyError> {
    add_switch(topo, ports, 0, seed)
}

/// Picks a uniform-random existing link `(v, w)` of `g` such that `u` is
/// adjacent to neither `v` nor `w` and neither endpoint is `u` itself: 64
/// rejection samples, then a uniform pick from a scan. The one link sampler
/// of both incremental expansion and the Jellyfish wiring loop's swap
/// completion.
pub(crate) fn pick_splice_link(g: &Graph, u: NodeId, rng: &mut StdRng) -> Option<(NodeId, NodeId)> {
    let m = g.num_edges();
    if m == 0 {
        return None;
    }
    let usable = |e: &Edge| e.a != u && e.b != u && !g.has_edge(u, e.a) && !g.has_edge(u, e.b);
    for _ in 0..64 {
        let e = g.edge_at(rng.gen_range(0..m));
        if usable(&e) {
            return Some((e.a, e.b));
        }
    }
    let candidates: Vec<Edge> = g.edges().filter(usable).collect();
    if candidates.is_empty() {
        return None;
    }
    let e = candidates[rng.gen_range(0..candidates.len())];
    Some((e.a, e.b))
}

/// Grows a Jellyfish topology through a whole schedule of increments, as the
/// Figure 6 experiment does (start at `initial` switches, add `step` switches
/// at a time until `target`). Returns the topology after each stage,
/// including the initial one.
pub fn grow_schedule(
    initial: usize,
    target: usize,
    step: usize,
    ports: usize,
    network_degree: usize,
    seed: u64,
) -> Result<Vec<Topology>, TopologyError> {
    if step == 0 || initial == 0 || target < initial {
        return Err(TopologyError::InvalidParameters(
            "need initial >= 1, step >= 1 and target >= initial".into(),
        ));
    }
    let servers = ports - network_degree;
    let mut topo =
        crate::rrg::JellyfishBuilder::new(initial, ports, network_degree).seed(seed).build()?;
    let mut stages = vec![topo.clone()];
    let mut current = initial;
    let mut stage_idx = 0u64;
    while current < target {
        let add = step.min(target - current);
        add_racks(&mut topo, add, ports, servers, seed ^ (0x9E37_79B9 + stage_idx))?;
        current += add;
        stage_idx += 1;
        stages.push(topo.clone());
    }
    Ok(stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrg::JellyfishBuilder;

    fn base_topology() -> Topology {
        JellyfishBuilder::new(30, 12, 8).seed(17).build().unwrap()
    }

    #[test]
    fn add_switch_preserves_degrees_of_existing_switches() {
        let mut topo = base_topology();
        let before: Vec<usize> = topo.graph().nodes().map(|v| topo.graph().degree(v)).collect();
        let report = add_switch(&mut topo, 12, 4, 7).unwrap();
        assert_eq!(report.new_switch, 30);
        // Every pre-existing switch keeps exactly its old network degree: the
        // splice removes one of its links but immediately replaces it.
        for (v, &d) in before.iter().enumerate() {
            assert_eq!(topo.graph().degree(v), d, "switch {v} degree changed");
        }
        assert_eq!(topo.graph().degree(30), 8);
        assert_eq!(report.unmatched_ports, 0);
        assert!(topo.graph().is_connected());
        assert!(topo.check_invariants().is_ok());
    }

    #[test]
    fn add_switch_rewiring_is_bounded_by_added_ports() {
        let mut topo = base_topology();
        let report = add_switch(&mut topo, 12, 4, 3).unwrap();
        // 8 new network ports => at most 4 removed links and 8 added links.
        assert!(report.removed_links.len() <= 4);
        assert!(report.added_links.len() <= 8);
        assert!(report.cable_operations() <= 12);
    }

    #[test]
    fn add_rack_increases_server_count() {
        let mut topo = base_topology();
        let servers_before = topo.total_servers();
        add_switch(&mut topo, 12, 4, 5).unwrap();
        assert_eq!(topo.total_servers(), servers_before + 4);
    }

    #[test]
    fn add_network_switch_has_no_servers() {
        let mut topo = base_topology();
        let servers_before = topo.total_servers();
        let links_before = topo.num_links();
        let report = add_network_switch(&mut topo, 12, 5).unwrap();
        assert_eq!(topo.total_servers(), servers_before);
        assert_eq!(topo.servers(report.new_switch), 0);
        assert_eq!(topo.graph().degree(report.new_switch), 12);
        // Each splice removes one link and adds two: net +1 link per pair of ports.
        assert_eq!(topo.num_links(), links_before + 6);
    }

    #[test]
    fn repeated_expansion_stays_connected_and_regular() {
        let mut topo = JellyfishBuilder::new(20, 12, 8).seed(1).build().unwrap();
        for i in 0..20 {
            add_switch(&mut topo, 12, 4, 1000 + i).unwrap();
            assert!(topo.graph().is_connected(), "disconnected after expansion {i}");
        }
        assert_eq!(topo.num_switches(), 40);
        // All switches should have full network degree (even total port count).
        let deficient = topo.graph().nodes().filter(|&v| topo.graph().degree(v) < 8).count();
        assert!(deficient <= 1);
        assert!(topo.check_invariants().is_ok());
    }

    #[test]
    fn heterogeneous_expansion_larger_switch() {
        let mut topo = base_topology();
        let report = add_switch(&mut topo, 24, 6, 9).unwrap();
        assert_eq!(topo.ports(report.new_switch), 24);
        assert_eq!(topo.servers(report.new_switch), 6);
        assert_eq!(topo.graph().degree(report.new_switch), 18);
        assert!(topo.check_invariants().is_ok());
    }

    #[test]
    fn expansion_into_tiny_network_reports_unmatched_ports() {
        // A 3-switch triangle cannot absorb a new switch wanting degree 8:
        // after splicing into each disjoint link the candidates run out.
        let mut topo = JellyfishBuilder::new(4, 10, 3).seed(2).build().unwrap();
        let report = add_switch(&mut topo, 10, 0, 3).unwrap();
        assert!(report.unmatched_ports > 0);
        assert!(topo.check_invariants().is_ok());
    }

    #[test]
    fn add_racks_produces_report_per_rack() {
        let mut topo = base_topology();
        let reports = add_racks(&mut topo, 5, 12, 4, 77).unwrap();
        assert_eq!(reports.len(), 5);
        assert_eq!(topo.num_switches(), 35);
    }

    #[test]
    fn grow_schedule_matches_fig6_setup() {
        // Figure 6: 20 -> 160 switches in increments of 20, 12-port switches,
        // 4 servers each (r = 8).
        let stages = grow_schedule(20, 60, 20, 12, 8, 6).unwrap();
        assert_eq!(stages.len(), 3);
        assert_eq!(stages[0].num_switches(), 20);
        assert_eq!(stages[1].num_switches(), 40);
        assert_eq!(stages[2].num_switches(), 60);
        for s in &stages {
            assert!(s.graph().is_connected());
            assert_eq!(s.total_servers(), s.num_switches() * 4);
        }
    }

    #[test]
    fn grow_schedule_rejects_bad_parameters() {
        assert!(grow_schedule(0, 10, 5, 12, 8, 0).is_err());
        assert!(grow_schedule(10, 5, 5, 12, 8, 0).is_err());
        assert!(grow_schedule(10, 20, 0, 12, 8, 0).is_err());
    }

    #[test]
    fn invalid_server_count_rejected() {
        let mut topo = base_topology();
        assert!(add_switch(&mut topo, 4, 5, 0).is_err());
    }
}
