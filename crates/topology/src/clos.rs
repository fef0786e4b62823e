//! Folded-Clos (leaf–spine) generator and a budgeted Clos upgrade planner.
//!
//! The upgrade planner is this repository's stand-in for LEGUP (Curtis,
//! Keshav, Lopez-Ortiz, CoNEXT 2010), whose implementation and topologies are
//! not public. See DESIGN.md, substitution 3: per expansion stage the planner
//! spends a budget on new spine switches and uplinks while reserving a
//! fraction of ports for later stages — the structural behaviour the paper
//! attributes to LEGUP. Jellyfish at the same budget simply buys switches and
//! random-cables them, which is what `jellyfish-core::legup` compares against.

use crate::graph::Graph;
use crate::topology::{SwitchKind, Topology, TopologyError};

/// A two-level folded-Clos (leaf–spine) network.
///
/// `leaves` leaf switches each connect to every one of the `spines` spine
/// switches with `links_per_pair` parallel-free links (we keep the graph
/// simple, so `links_per_pair` is capped at 1; oversubscription is expressed
/// through the server count instead).
#[derive(Debug, Clone)]
pub struct ClosConfig {
    /// Number of leaf (ToR) switches.
    pub leaves: usize,
    /// Number of spine switches.
    pub spines: usize,
    /// Ports per leaf switch.
    pub leaf_ports: usize,
    /// Ports per spine switch.
    pub spine_ports: usize,
    /// Servers attached to each leaf.
    pub servers_per_leaf: usize,
}

impl ClosConfig {
    /// Validates and builds the leaf–spine topology.
    pub fn build(&self) -> Result<Topology, TopologyError> {
        if self.leaves == 0 || self.spines == 0 {
            return Err(TopologyError::InvalidParameters(
                "need at least one leaf and one spine".into(),
            ));
        }
        if self.servers_per_leaf + self.spines > self.leaf_ports {
            return Err(TopologyError::InvalidParameters(format!(
                "leaf needs {} ports ({} servers + {} spines) but has {}",
                self.servers_per_leaf + self.spines,
                self.servers_per_leaf,
                self.spines,
                self.leaf_ports
            )));
        }
        if self.leaves > self.spine_ports {
            return Err(TopologyError::InvalidParameters(format!(
                "spine needs {} ports but has {}",
                self.leaves, self.spine_ports
            )));
        }
        let n = self.leaves + self.spines;
        let mut g = Graph::new(n);
        for leaf in 0..self.leaves {
            for spine in 0..self.spines {
                g.add_edge(leaf, self.leaves + spine);
            }
        }
        let mut ports = vec![self.leaf_ports; self.leaves];
        ports.extend(vec![self.spine_ports; self.spines]);
        let mut servers = vec![self.servers_per_leaf; self.leaves];
        servers.extend(vec![0usize; self.spines]);
        let mut kinds = vec![SwitchKind::TopOfRack; self.leaves];
        kinds.extend(vec![SwitchKind::Aggregation; self.spines]);
        let topo = Topology::from_parts(
            g,
            ports,
            servers,
            kinds,
            format!("clos(leaves={},spines={})", self.leaves, self.spines),
        );
        debug_assert!(topo.check_invariants().is_ok());
        Ok(topo)
    }

    /// Oversubscription ratio at the leaf layer: server bandwidth divided by
    /// uplink bandwidth (1.0 means non-blocking, larger means oversubscribed).
    pub fn oversubscription(&self) -> f64 {
        self.servers_per_leaf as f64 / self.spines as f64
    }
}

// Prices shared by the LEGUP-style planner and the Jellyfish expansion
// comparison (Figure 7), in the same arbitrary currency the paper's budget
// axis uses: roughly commodity numbers, $100 a port, $10 a cable and $5 to
// move a cable.

/// Price of one switch port (a switch costs its ports × this).
const PER_PORT: f64 = 100.0;

/// Price of one cable (material + labor).
pub const PER_CABLE: f64 = 10.0;

/// Price of re-running one existing cable during an upgrade.
pub const PER_REWIRE: f64 = 5.0;

/// Fraction of each new spine's ports the planner leaves unused for future
/// growth.
const RESERVE_FRACTION: f64 = 0.25;

/// Cost of buying a switch with `ports` ports.
pub fn switch_cost(ports: usize) -> f64 {
    PER_PORT * ports as f64
}

/// One stage of a Clos expansion plan.
#[derive(Debug, Clone)]
pub struct ClosStage {
    /// The topology after this stage.
    pub topology: Topology,
    /// Money spent in this stage.
    pub spent: f64,
    /// Number of spine switches after this stage.
    pub spines: usize,
    /// Number of leaves after this stage.
    pub leaves: usize,
}

/// A LEGUP-style upgrade planner for leaf–spine Clos networks.
///
/// Starting from an initial `ClosConfig`, each call to
/// [`ClosUpgradePlanner::expand`] spends at most `budget` on additional spine
/// switches (and the cables to wire them to every leaf), after optionally
/// adding leaves to host new servers. A quarter of each new spine's ports is
/// reserved for future leaves — the "keep some ports free to ease expansion"
/// behaviour of LEGUP that the paper identifies as a structural tax. New
/// leaves and spines have `initial`'s port counts.
#[derive(Debug, Clone)]
pub struct ClosUpgradePlanner {
    current: ClosConfig,
}

impl ClosUpgradePlanner {
    /// Creates a planner starting from `initial`.
    pub fn new(initial: ClosConfig) -> Self {
        ClosUpgradePlanner { current: initial }
    }

    /// The current Clos configuration.
    pub fn current(&self) -> &ClosConfig {
        &self.current
    }

    /// Expands the network: first adds `new_leaves` leaf switches (with
    /// `servers_per_leaf` servers, matching the existing leaves), then spends
    /// the remaining budget on spine switches. Every new spine must be wired
    /// to every leaf (Clos structure), and every new leaf must be wired to
    /// every spine — this full-mesh rewiring is precisely what makes Clos
    /// expansion expensive.
    ///
    /// Returns the resulting stage; the planner's internal state advances.
    pub fn expand(&mut self, budget: f64, new_leaves: usize) -> Result<ClosStage, TopologyError> {
        let mut remaining = budget;
        let mut cfg = self.current.clone();

        // Step 1: add leaves (mandatory server growth), paying ports + cables
        // to every existing spine.
        if new_leaves > 0 {
            let leaf_cost = switch_cost(cfg.leaf_ports)
                + PER_CABLE * (cfg.spines + cfg.servers_per_leaf) as f64;
            let affordable = (remaining / leaf_cost).floor() as usize;
            let added = new_leaves.min(affordable);
            if added < new_leaves {
                return Err(TopologyError::Infeasible(format!(
                    "budget {budget} cannot cover {new_leaves} new leaves (each costs {leaf_cost})"
                )));
            }
            cfg.leaves += added;
            remaining -= leaf_cost * added as f64;
        }

        // Step 2: spend the rest on spine switches. A spine's usable ports are
        // reduced by the reserve fraction, and it must connect to every leaf.
        loop {
            let usable = ((cfg.spine_ports as f64) * (1.0 - RESERVE_FRACTION)).floor() as usize;
            if usable < cfg.leaves {
                break; // a new spine cannot even reach all leaves: stop buying
            }
            let spine_cost = switch_cost(cfg.spine_ports) + PER_CABLE * cfg.leaves as f64;
            if spine_cost > remaining {
                break;
            }
            // Adding a spine also requires each leaf to have a free port.
            if cfg.servers_per_leaf + cfg.spines + 1 > cfg.leaf_ports {
                break;
            }
            cfg.spines += 1;
            remaining -= spine_cost;
        }

        let topology = cfg.build()?;
        let spent = budget - remaining;
        self.current = cfg.clone();
        Ok(ClosStage { topology, spent, spines: cfg.spines, leaves: cfg.leaves })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_clos() -> ClosConfig {
        ClosConfig { leaves: 8, spines: 4, leaf_ports: 16, spine_ports: 32, servers_per_leaf: 10 }
    }

    #[test]
    fn clos_builds_complete_bipartite_core() {
        let topo = small_clos().build().unwrap();
        assert_eq!(topo.num_switches(), 12);
        assert_eq!(topo.num_links(), 8 * 4);
        assert_eq!(topo.total_servers(), 80);
        for leaf in 0..8 {
            assert_eq!(topo.graph().degree(leaf), 4);
            assert_eq!(topo.kind(leaf), SwitchKind::TopOfRack);
        }
        for spine in 8..12 {
            assert_eq!(topo.graph().degree(spine), 8);
            assert_eq!(topo.kind(spine), SwitchKind::Aggregation);
            assert_eq!(topo.servers(spine), 0);
        }
        assert!(topo.graph().is_connected());
    }

    #[test]
    fn clos_validation_errors() {
        let mut c = small_clos();
        c.leaf_ports = 10; // 10 servers + 4 spines needs 14
        assert!(c.build().is_err());
        let mut c2 = small_clos();
        c2.spine_ports = 4; // 8 leaves need 8 spine ports
        assert!(c2.build().is_err());
        let mut c3 = small_clos();
        c3.leaves = 0;
        assert!(c3.build().is_err());
    }

    #[test]
    fn oversubscription_ratio() {
        let c = small_clos();
        assert!((c.oversubscription() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn cost_model_prices_switches_by_port() {
        assert!((switch_cost(48) - 4800.0).abs() < 1e-9);
    }

    #[test]
    fn planner_buys_spines_within_budget() {
        let mut planner = ClosUpgradePlanner::new(small_clos());
        let stage = planner.expand(3_300.0, 0).unwrap();
        // Each spine costs 3200 (ports) + 80 (cables) = 3280 => exactly one
        // more spine fits in the budget.
        assert_eq!(stage.spines, 5);
        assert!(stage.spent <= 3_300.0);
        assert!(stage.topology.check_invariants().is_ok());
    }

    #[test]
    fn planner_adds_leaves_then_spines() {
        let mut planner = ClosUpgradePlanner::new(small_clos());
        let stage = planner.expand(20_000.0, 4).unwrap();
        assert_eq!(stage.leaves, 12);
        assert!(stage.spines >= 4);
        assert_eq!(stage.topology.total_servers(), 12 * 10);
    }

    #[test]
    fn planner_errors_when_leaves_unaffordable() {
        let mut planner = ClosUpgradePlanner::new(small_clos());
        assert!(planner.expand(100.0, 5).is_err());
    }

    #[test]
    fn planner_respects_leaf_port_limit() {
        // Leaves have 16 ports, 10 servers: at most 6 spines ever.
        let mut planner = ClosUpgradePlanner::new(small_clos());
        let stage = planner.expand(1e9, 0).unwrap();
        assert_eq!(stage.spines, 6);
    }

    #[test]
    fn reserve_fraction_limits_spine_usefulness() {
        // With 25 leaves and 32-port spines, the quarter reserve leaves 24
        // usable ports per new spine: no spine can reach all leaves, so none
        // is bought, though all 32 ports would reach them.
        let crowded = ClosConfig { leaves: 25, ..small_clos() };
        assert!(crowded.build().is_ok());
        let mut planner = ClosUpgradePlanner::new(crowded);
        let stage = planner.expand(1e9, 0).unwrap();
        assert_eq!(stage.spines, 4);
    }

    #[test]
    fn successive_stages_accumulate() {
        let mut planner = ClosUpgradePlanner::new(small_clos());
        let s1 = planner.expand(5_000.0, 0).unwrap();
        let s2 = planner.expand(5_000.0, 0).unwrap();
        assert!(s2.spines >= s1.spines);
        assert_eq!(planner.current().spines, s2.spines);
    }
}
