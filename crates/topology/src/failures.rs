//! Failure injection (paper §4.3).
//!
//! The paper fails a random fraction of all switch-to-switch links and
//! measures the resulting throughput degradation (Figure 8). The key
//! qualitative point is that a random graph with failures "is just another
//! random graph of slightly smaller size", so Jellyfish degrades gracefully.

use crate::graph::NodeId;
use crate::topology::Topology;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Description of an applied failure scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureReport {
    /// Links removed, as switch-id pairs.
    pub failed_links: Vec<(NodeId, NodeId)>,
    /// Switches whose links were all removed (node failures).
    pub failed_switches: Vec<NodeId>,
}

/// Removes a uniform-random `fraction` of all switch-to-switch links
/// (rounded to the nearest whole link count). Servers stay attached.
///
/// Returns the report of removed links. `fraction` is clamped to `[0, 1]`.
pub fn fail_random_links(topo: &mut Topology, fraction: f64, seed: u64) -> FailureReport {
    let fraction = fraction.clamp(0.0, 1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut links: Vec<(NodeId, NodeId)> = topo.graph().edges().map(|e| (e.a, e.b)).collect();
    links.shuffle(&mut rng);
    let to_fail = ((links.len() as f64) * fraction).round() as usize;
    let failed: Vec<(NodeId, NodeId)> = links.into_iter().take(to_fail).collect();
    for &(u, v) in &failed {
        topo.disconnect(u, v);
    }
    debug_assert!(topo.check_invariants().is_ok());
    FailureReport { failed_links: failed, failed_switches: Vec::new() }
}

/// Fails a uniform-random `fraction` of switches: every network link incident
/// to a failed switch is removed and its servers are considered offline
/// (server count set to zero so capacity calculations exclude them).
///
/// The report lists the failed switches and every link they lost, once
/// each, as `(min, max)` pairs.
pub fn fail_random_switches(topo: &mut Topology, fraction: f64, seed: u64) -> FailureReport {
    let fraction = fraction.clamp(0.0, 1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut switches: Vec<NodeId> = topo.graph().nodes().collect();
    switches.shuffle(&mut rng);
    let to_fail = ((switches.len() as f64) * fraction).round() as usize;
    let failed: Vec<NodeId> = switches.into_iter().take(to_fail).collect();
    let mut failed_links = Vec::new();
    for &s in &failed {
        let lost = topo.graph_mut().isolate_node(s);
        failed_links.extend(lost.into_iter().map(|v| (s.min(v), s.max(v))));
        topo.set_servers(s, 0).expect("zero servers always fits");
    }
    debug_assert!(topo.check_invariants().is_ok());
    FailureReport { failed_links, failed_switches: failed }
}

/// Largest-connected-component statistics after failures: the fraction of
/// switches and of servers that remain in the largest component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurvivabilityStats {
    /// Fraction of switches in the largest connected component.
    pub switch_fraction: f64,
    /// Fraction of servers whose ToR switch is in the largest component.
    pub server_fraction: f64,
}

/// Computes survivability statistics for a (possibly failed) topology.
pub fn survivability(topo: &Topology) -> SurvivabilityStats {
    let comps = topo.graph().connected_components();
    let Some(largest) = comps.first() else {
        return SurvivabilityStats { switch_fraction: 0.0, server_fraction: 0.0 };
    };
    let total_switches = topo.num_switches();
    let total_servers = topo.total_servers();
    let servers_in: usize = largest.iter().map(|&n| topo.servers(n)).sum();
    SurvivabilityStats {
        switch_fraction: largest.len() as f64 / total_switches.max(1) as f64,
        server_fraction: if total_servers == 0 {
            0.0
        } else {
            servers_in as f64 / total_servers as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrg::JellyfishBuilder;

    fn topo() -> Topology {
        JellyfishBuilder::new(40, 12, 8).seed(9).build().unwrap()
    }

    #[test]
    fn fail_fraction_removes_expected_count() {
        let mut t = topo();
        let links_before = t.num_links();
        let report = fail_random_links(&mut t, 0.15, 1);
        let expected = ((links_before as f64) * 0.15).round() as usize;
        assert_eq!(report.failed_links.len(), expected);
        assert_eq!(t.num_links(), links_before - expected);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn fail_zero_and_full_fraction() {
        let mut t = topo();
        let before = t.num_links();
        let r0 = fail_random_links(&mut t, 0.0, 2);
        assert!(r0.failed_links.is_empty());
        assert_eq!(t.num_links(), before);
        let r1 = fail_random_links(&mut t, 1.0, 2);
        assert_eq!(r1.failed_links.len(), before);
        assert_eq!(t.num_links(), 0);
    }

    #[test]
    fn fraction_is_clamped() {
        let mut t = topo();
        let before = t.num_links();
        let r = fail_random_links(&mut t, 2.5, 3);
        assert_eq!(r.failed_links.len(), before);
        let mut t2 = topo();
        let r2 = fail_random_links(&mut t2, -0.5, 3);
        assert!(r2.failed_links.is_empty());
    }

    #[test]
    fn failure_is_deterministic_per_seed() {
        let mut a = topo();
        let mut b = topo();
        let ra = fail_random_links(&mut a, 0.2, 42);
        let rb = fail_random_links(&mut b, 0.2, 42);
        assert_eq!(ra.failed_links, rb.failed_links);
        let mut c = topo();
        let rc = fail_random_links(&mut c, 0.2, 43);
        assert_ne!(ra.failed_links, rc.failed_links);
    }

    #[test]
    fn moderate_failures_keep_rrg_connected() {
        // An 8-regular random graph on 40 nodes survives 15% link failures
        // with overwhelming probability (the paper's resilience claim).
        for seed in 0..10 {
            let mut t = topo();
            fail_random_links(&mut t, 0.15, seed);
            let s = survivability(&t);
            assert!(s.switch_fraction > 0.95, "seed {seed}: only {} survived", s.switch_fraction);
        }
    }

    #[test]
    fn switch_failures_remove_links_and_servers() {
        let mut t = topo();
        let links_before = t.num_links();
        let r = fail_random_switches(&mut t, 0.1, 7);
        assert_eq!(r.failed_switches.len(), 4);
        assert_eq!(t.num_links(), links_before - r.failed_links.len(), "each lost link once");
        for &s in &r.failed_switches {
            assert_eq!(t.graph().degree(s), 0);
            assert_eq!(t.servers(s), 0);
        }
        let surv = survivability(&t);
        assert!(surv.server_fraction <= 1.0 && surv.server_fraction >= 0.8);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn survivability_of_fully_failed_network() {
        let mut t = topo();
        fail_random_links(&mut t, 1.0, 0);
        let s = survivability(&t);
        // Largest component is a single switch.
        assert!((s.switch_fraction - 1.0 / 40.0).abs() < 1e-12);
        assert!(s.server_fraction > 0.0);
    }
}
