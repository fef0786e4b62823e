//! Physical layout and cabling models (paper §6).
//!
//! Three questions from the paper are modeled here:
//!
//! 1. **Cable counts** — Jellyfish needs fewer switches (hence fewer cables)
//!    than a fat-tree for the same server pool.
//! 2. **Cable lengths** — with the paper's "switch-cluster" optimization
//!    (placing all switches in a central cluster of racks), how long do
//!    cables get, and do they stay under the ≈10 m electrical-cable limit?
//! 3. **Massive scale / containers** — the two-layer Jellyfish of §6.3:
//!    switches are split across containers (pods), a fraction of each
//!    switch's network links is constrained to stay inside its container,
//!    and the rest is wired randomly across containers. Figure 14 sweeps that
//!    fraction.

use jellyfish_topology::graph::Graph;
use jellyfish_topology::topology::{SwitchKind, Topology, TopologyError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simple data-center floor model: racks on a square grid, `rack_pitch`
/// meters apart, with the option of placing all switches in a central
/// cluster (the paper's recommended layout).
#[derive(Debug, Clone, Copy)]
pub struct FloorPlan {
    /// Distance between adjacent rack positions, in meters.
    pub rack_pitch: f64,
    /// Maximum length of an electrical (cheap) cable, in meters.
    pub electrical_limit: f64,
    /// Whether switches are placed in a central switch-cluster (true) or
    /// each switch stays with its server rack (false).
    pub central_switch_cluster: bool,
}

impl Default for FloorPlan {
    fn default() -> Self {
        FloorPlan { rack_pitch: 0.6, electrical_limit: 10.0, central_switch_cluster: true }
    }
}

/// Cable statistics for a topology under a floor plan.
#[derive(Debug, Clone, Copy)]
pub struct CableReport {
    /// Total number of switch-to-switch cables.
    pub switch_cables: usize,
    /// Total number of server-to-switch cables.
    pub server_cables: usize,
    /// Mean switch-to-switch cable length in meters.
    pub mean_length: f64,
    /// Maximum switch-to-switch cable length in meters.
    pub max_length: f64,
    /// Fraction of switch-to-switch cables that exceed the electrical limit
    /// (and therefore need optical transceivers).
    pub optical_fraction: f64,
}

/// Computes cable statistics. Racks (switches) are laid out on a
/// near-square grid in node order; with a central switch cluster all
/// switches sit within a compact square at the center of the floor, so
/// switch-to-switch cables only span the cluster.
pub fn cable_report(topo: &Topology, plan: FloorPlan) -> CableReport {
    let n = topo.num_switches();
    let side = (n as f64).sqrt().ceil() as usize;
    let position = |idx: usize| -> (f64, f64) {
        let (x, y) = (idx % side, idx / side);
        (x as f64 * plan.rack_pitch, y as f64 * plan.rack_pitch)
    };
    let mut lengths = Vec::with_capacity(topo.num_links());
    for e in topo.graph().edges() {
        let length = if plan.central_switch_cluster {
            // Both endpoints live in the central cluster: the span is within
            // a square big enough to hold all switches at ~40 switches/rack
            // (the paper: "3-5 racks can hold the switches of a few-thousand
            // server cluster").
            let cluster_racks = (n as f64 / 40.0).ceil().max(1.0);
            let cluster_side = cluster_racks.sqrt().ceil() * plan.rack_pitch;
            // Average intra-cluster run plus slack for vertical routing.
            cluster_side + 2.0
        } else {
            let (xa, ya) = position(e.a);
            let (xb, yb) = position(e.b);
            ((xa - xb).abs() + (ya - yb).abs()) + 2.0 // Manhattan + slack
        };
        lengths.push(length);
    }
    let switch_cables = lengths.len();
    let mean =
        if lengths.is_empty() { 0.0 } else { lengths.iter().sum::<f64>() / lengths.len() as f64 };
    let max = lengths.iter().copied().fold(0.0, f64::max);
    let optical = if lengths.is_empty() {
        0.0
    } else {
        lengths.iter().filter(|&&l| l > plan.electrical_limit).count() as f64 / lengths.len() as f64
    };
    CableReport {
        switch_cables,
        server_cables: topo.total_servers(),
        mean_length: mean,
        max_length: max,
        optical_fraction: optical,
    }
}

/// A two-layer ("container-localized") Jellyfish (§6.3, Figure 14): switches
/// are split evenly across `containers`; each switch dedicates
/// `local_fraction` of its network ports to random links *within* its
/// container, and the rest to random links across containers.
pub fn two_layer_jellyfish(
    switches: usize,
    ports: usize,
    network_degree: usize,
    containers: usize,
    local_fraction: f64,
    seed: u64,
) -> Result<Topology, TopologyError> {
    if containers == 0 || switches < containers {
        return Err(TopologyError::InvalidParameters(
            "need at least one container and one switch per container".into(),
        ));
    }
    if network_degree > ports {
        return Err(TopologyError::InvalidParameters("network degree exceeds port count".into()));
    }
    let local_fraction = local_fraction.clamp(0.0, 1.0);
    let per_container = switches / containers;
    let used = per_container * containers; // drop the remainder for even pods
    let local_degree = ((network_degree as f64) * local_fraction).round() as usize;
    let global_degree = network_degree - local_degree;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph = Graph::new(used);
    let container_of = |v: usize| v / per_container;

    // Local links: random matching inside each container.
    for c in 0..containers {
        let members: Vec<usize> = (c * per_container..(c + 1) * per_container).collect();
        random_regular_within(&mut graph, &members, local_degree, &mut rng, |_, _| true);
    }
    // Global links: random matching constrained to cross containers.
    let all: Vec<usize> = (0..used).collect();
    random_regular_within(&mut graph, &all, global_degree, &mut rng, |a, b| {
        container_of(a) != container_of(b)
    });

    if !graph.is_connected() && used > 1 {
        // With very high localization the containers can end up disconnected;
        // stitch the containers with a ring of spare links so that the
        // topology stays usable (this mirrors the paper's requirement that
        // some links always cross containers).
        for c in 0..containers {
            let a = c * per_container;
            let b = ((c + 1) % containers) * per_container;
            if a != b {
                graph.add_edge(a, b);
            }
        }
    }

    let ports_vec = vec![ports.max(graph.max_degree() + (ports - network_degree)); used];
    let servers = vec![ports - network_degree; used];
    let topo = Topology::from_parts(
        graph,
        ports_vec,
        servers,
        vec![SwitchKind::TopOfRack; used],
        format!("two-layer-jellyfish(containers={containers},local={local_fraction:.2})"),
    );
    Ok(topo)
}

/// Adds random links among `members`, raising each member's degree by up to
/// `extra_degree`, subject to `allowed(a, b)`.
fn random_regular_within(
    graph: &mut Graph,
    members: &[usize],
    extra_degree: usize,
    rng: &mut StdRng,
    allowed: impl Fn(usize, usize) -> bool,
) {
    if extra_degree == 0 || members.len() < 2 {
        return;
    }
    let target: std::collections::HashMap<usize, usize> =
        members.iter().map(|&v| (v, graph.degree(v) + extra_degree)).collect();
    let mut free: Vec<usize> = members.to_vec();
    let mut stall = 0usize;
    while free.len() >= 2 {
        let i = rng.gen_range(0..free.len());
        let mut j = rng.gen_range(0..free.len() - 1);
        if j >= i {
            j += 1;
        }
        let (u, v) = (free[i], free[j]);
        if u != v && allowed(u, v) && !graph.has_edge(u, v) {
            graph.add_edge(u, v);
            stall = 0;
            free.retain(|&x| graph.degree(x) < target[&x]);
        } else {
            stall += 1;
            if stall > 8 * free.len() * free.len() + 64 {
                break;
            }
        }
    }
}

/// Fraction of switch-to-switch links whose endpoints share a container,
/// given `per_container` switches per container (node order = container
/// order, as produced by [`two_layer_jellyfish`]).
pub fn measured_local_fraction(topo: &Topology, per_container: usize) -> f64 {
    let total = topo.num_links();
    if total == 0 || per_container == 0 {
        return 0.0;
    }
    let local = topo.graph().edges().filter(|e| e.a / per_container == e.b / per_container).count();
    local as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish_topology::fattree::FatTree;
    use jellyfish_topology::JellyfishBuilder;

    #[test]
    fn jellyfish_uses_fewer_cables_than_fat_tree_for_same_servers() {
        // §6.2: for the same server pool Jellyfish needs 15-20% fewer
        // network cables because it needs fewer switches.
        let ft = FatTree::new(8).unwrap(); // 128 servers, 80 switches
        let jf = crate::experiment::catalog::jellyfish_total_spec(64, 8, 128).build(1).unwrap();
        let ft_report = cable_report(ft.topology(), FloorPlan::default());
        let jf_report = cable_report(&jf, FloorPlan::default());
        assert!(jf_report.switch_cables < ft_report.switch_cables);
        assert_eq!(ft_report.server_cables, jf_report.server_cables);
    }

    #[test]
    fn central_cluster_keeps_cables_electrical_at_small_scale() {
        let topo = JellyfishBuilder::new(60, 24, 12).seed(2).build().unwrap();
        let report = cable_report(&topo, FloorPlan::default());
        assert_eq!(report.optical_fraction, 0.0, "small clusters should need no optics");
        assert!(report.max_length <= 10.0);
        assert!(report.mean_length > 0.0);
    }

    #[test]
    fn distributed_layout_needs_longer_cables_than_cluster() {
        let topo = JellyfishBuilder::new(400, 24, 12).seed(3).build().unwrap();
        let cluster = cable_report(&topo, FloorPlan::default());
        let spread =
            cable_report(&topo, FloorPlan { central_switch_cluster: false, ..Default::default() });
        assert!(spread.mean_length > cluster.mean_length);
        assert!(spread.max_length > cluster.max_length);
        assert!(spread.optical_fraction >= cluster.optical_fraction);
    }

    #[test]
    fn two_layer_respects_localization() {
        let per_container = 20;
        for &frac in &[0.0, 0.3, 0.6] {
            let topo = two_layer_jellyfish(80, 10, 6, 4, frac, 7).unwrap();
            assert_eq!(topo.num_switches(), 80);
            let measured = measured_local_fraction(&topo, per_container);
            assert!((measured - frac).abs() < 0.15, "requested {frac}, measured {measured}");
            assert!(topo.graph().is_connected());
            assert!(topo.check_invariants().is_ok());
        }
    }

    #[test]
    fn two_layer_full_localization_still_connected() {
        // 100% local links would disconnect the containers; the builder must
        // stitch them back together.
        let topo = two_layer_jellyfish(60, 10, 6, 3, 1.0, 9).unwrap();
        assert!(topo.graph().is_connected());
        let measured = measured_local_fraction(&topo, 20);
        assert!(measured > 0.8, "most links should still be local, got {measured}");
    }

    #[test]
    fn two_layer_parameter_validation() {
        assert!(two_layer_jellyfish(10, 8, 4, 0, 0.5, 1).is_err());
        assert!(two_layer_jellyfish(3, 8, 4, 5, 0.5, 1).is_err());
        assert!(two_layer_jellyfish(10, 4, 8, 2, 0.5, 1).is_err());
    }

    #[test]
    fn fat_tree_local_fraction_reference() {
        // The fat-tree's pod-local fraction is 0.5(1 + 1/k): the value the
        // Figure 14 discussion compares against (53.6% at k=14).
        assert!((FatTree::local_link_fraction(14) - 0.5357).abs() < 1e-3);
    }
}
