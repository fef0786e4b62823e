//! Massive scale / containers (paper §6.3): the two-layer Jellyfish, whose
//! switches are split across containers (pods), with a fraction of each
//! switch's network links constrained to stay inside its container and the
//! rest wired randomly across containers. Figure 14 sweeps that fraction.

use jellyfish_topology::graph::Graph;
use jellyfish_topology::topology::{SwitchKind, Topology, TopologyError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish_topology::fattree::FatTree;

    /// Fraction of switch-to-switch links whose endpoints share a container,
    /// given `per_container` switches per container (node order = container
    /// order, as produced by [`two_layer_jellyfish`]).
    fn measured_local_fraction(topo: &Topology, per_container: usize) -> f64 {
        let total = topo.num_links();
        if total == 0 || per_container == 0 {
            return 0.0;
        }
        let local =
            topo.graph().edges().filter(|e| e.a / per_container == e.b / per_container).count();
        local as f64 / total as f64
    }

    #[test]
    fn jellyfish_uses_fewer_cables_than_fat_tree_for_same_servers() {
        // §6.2: for the same server pool Jellyfish needs 15-20% fewer
        // network cables because it needs fewer switches. Every link is one
        // switch-to-switch cable and every server one server cable.
        let ft = FatTree::new(8).unwrap(); // 128 servers, 80 switches
        let jf = crate::experiment::catalog::jellyfish_total_spec(64, 8, 128).build(1).unwrap();
        assert!(jf.num_links() < ft.topology().num_links());
        assert_eq!(ft.topology().total_servers(), jf.total_servers());
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
