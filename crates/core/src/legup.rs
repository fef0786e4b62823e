//! Incremental-expansion cost comparison against a LEGUP-style Clos upgrade
//! planner (paper §4.2, Figure 7).
//!
//! The original LEGUP topologies were shared privately with the Jellyfish
//! authors and are not public; per DESIGN.md (substitution 3) the baseline
//! here is the budgeted Clos upgrade planner from
//! [`jellyfish_topology::clos`]. Both arms of the comparison get the same
//! budget per expansion stage and the same prices; the metric is the
//! normalized bisection bandwidth of the network each arm can build, found
//! with the Kernighan–Lin heuristic (LEGUP optimizes bisection bandwidth, so
//! the paper compares on that metric too).

use jellyfish_flow::bisection::{min_bisection_heuristic, BisectionCut};
use jellyfish_topology::clos::{
    switch_cost, ClosConfig, ClosUpgradePlanner, PER_CABLE, PER_REWIRE,
};
use jellyfish_topology::expansion::add_network_switch;
use jellyfish_topology::rrg::build_heterogeneous;
use jellyfish_topology::{Topology, TopologyError};

/// One expansion stage of the Figure 7 comparison.
#[derive(Debug, Clone)]
pub struct ExpansionStage {
    /// Cumulative budget spent up to and including this stage.
    pub cumulative_budget: f64,
    /// Jellyfish's normalized bisection bandwidth at this stage.
    pub jellyfish_bisection: f64,
    /// The Clos (LEGUP-style) planner's normalized bisection bandwidth.
    pub clos_bisection: f64,
    /// Number of servers both networks support at this stage.
    pub servers: usize,
}

/// Parameters of the expansion arc.
#[derive(Debug, Clone, Copy)]
pub struct ExpansionScenario {
    /// Servers in the initial network (the paper's arc starts at 480).
    pub initial_servers: usize,
    /// Servers added in the first expansion (240 in the paper); later stages
    /// add switches only.
    pub first_expansion_servers: usize,
    /// Number of expansion stages after the initial build.
    pub stages: usize,
    /// Budget for the initial network.
    pub initial_budget: f64,
    /// Budget per expansion stage.
    pub stage_budget: f64,
    /// Ports per switch for both arms.
    pub ports: usize,
    /// Servers attached per ToR/leaf switch.
    pub servers_per_switch: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ExpansionScenario {
    fn default() -> Self {
        ExpansionScenario {
            initial_servers: 480,
            first_expansion_servers: 240,
            stages: 8,
            initial_budget: 200_000.0,
            stage_budget: 100_000.0,
            ports: 24,
            servers_per_switch: 16,
            seed: 2012,
        }
    }
}

/// Normalized bisection bandwidth via the Kernighan–Lin heuristic.
fn normalized_bisection(topo: &Topology, seed: u64) -> f64 {
    let cut: BisectionCut = min_bisection_heuristic(topo, 4, seed);
    cut.normalized
}

/// How many server-less `ports`-port switches, every port cabled randomly
/// into the network, a given budget buys for Jellyfish, including cable
/// costs.
fn jellyfish_switches_for_budget(budget: f64, ports: usize) -> usize {
    // Per switch: the switch itself + half a cable and half a rewire per port
    // (each network cable is shared by two ports).
    let per_switch =
        switch_cost(ports) + PER_CABLE * ports as f64 / 2.0 + PER_REWIRE * ports as f64 / 2.0;
    (budget / per_switch).floor() as usize
}

/// Runs the whole Figure 7 expansion arc and returns one entry per stage
/// (stage 0 = the initial build).
pub fn run_expansion_comparison(
    scenario: ExpansionScenario,
) -> Result<Vec<ExpansionStage>, TopologyError> {
    let ports = scenario.ports;
    let spt = scenario.servers_per_switch;
    assert!(spt < ports, "need at least one network port per switch");

    // --- Jellyfish arm: start with enough racks for the initial servers,
    // then spend each stage's budget on additional (server-less) switches
    // wired randomly into the network.
    let initial_racks = scenario.initial_servers.div_ceil(spt);
    let mut jf_ports_list = vec![ports; initial_racks];
    let mut jf_degrees = vec![ports - spt; initial_racks];
    let mut jellyfish = build_heterogeneous(&jf_ports_list, &jf_degrees, scenario.seed)?;

    // --- Clos arm: an initial leaf-spine sized for the same servers with a
    // comparable share of the budget on spines.
    let leaves = scenario.initial_servers.div_ceil(spt);
    let initial_spines = ((ports - spt) / 2).max(1);
    // Spine switches are sized so that they can reach every leaf even after
    // the first expansion adds racks (LEGUP's aggregation layers likewise use
    // higher-radix switches than the ToRs).
    let max_leaves = leaves + scenario.first_expansion_servers.div_ceil(spt);
    let clos_initial = ClosConfig {
        leaves,
        spines: initial_spines,
        leaf_ports: ports,
        spine_ports: (2 * max_leaves).max(ports),
        servers_per_leaf: spt,
    };
    let mut clos_planner = ClosUpgradePlanner::new(clos_initial.clone());
    let mut clos_topo = clos_initial.build()?;

    let mut stages = Vec::with_capacity(scenario.stages + 1);
    let mut cumulative = scenario.initial_budget;
    stages.push(ExpansionStage {
        cumulative_budget: cumulative,
        jellyfish_bisection: normalized_bisection(&jellyfish, scenario.seed),
        clos_bisection: normalized_bisection(&clos_topo, scenario.seed),
        servers: scenario.initial_servers,
    });

    let mut servers = scenario.initial_servers;
    for stage in 1..=scenario.stages {
        cumulative += scenario.stage_budget;
        let mut budget_jf = scenario.stage_budget;
        let mut new_leaves = 0;
        if stage == 1 && scenario.first_expansion_servers > 0 {
            // Both arms must absorb the new servers first.
            new_leaves = scenario.first_expansion_servers.div_ceil(spt);
            servers += scenario.first_expansion_servers;
            let rack_price = switch_cost(ports) + PER_CABLE * spt as f64;
            budget_jf -= rack_price * new_leaves as f64;
            for _ in 0..new_leaves {
                jf_ports_list.push(ports);
                jf_degrees.push(ports - spt);
            }
            jellyfish =
                build_heterogeneous(&jf_ports_list, &jf_degrees, scenario.seed ^ stage as u64)?;
        }
        // Jellyfish: spend the remaining budget on pure network switches.
        let extra_switches = jellyfish_switches_for_budget(budget_jf.max(0.0), ports);
        for i in 0..extra_switches {
            add_network_switch(
                &mut jellyfish,
                ports,
                scenario.seed ^ (stage as u64) << 8 ^ i as u64,
            )?;
        }
        // Clos: the planner gets the same budget and leaf requirement.
        let clos_stage = clos_planner.expand(scenario.stage_budget, new_leaves)?;
        clos_topo = clos_stage.topology;

        stages.push(ExpansionStage {
            cumulative_budget: cumulative,
            jellyfish_bisection: normalized_bisection(&jellyfish, scenario.seed + stage as u64),
            clos_bisection: normalized_bisection(&clos_topo, scenario.seed + stage as u64),
            servers,
        });
    }
    Ok(stages)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_scenario() -> ExpansionScenario {
        ExpansionScenario {
            initial_servers: 96,
            first_expansion_servers: 48,
            stages: 4,
            initial_budget: 40_000.0,
            stage_budget: 20_000.0,
            ports: 12,
            servers_per_switch: 8,
            seed: 7,
        }
    }

    #[test]
    fn expansion_arc_produces_one_entry_per_stage() {
        let stages = run_expansion_comparison(small_scenario()).unwrap();
        assert_eq!(stages.len(), 5);
        // Budgets are cumulative and strictly increasing.
        for w in stages.windows(2) {
            assert!(w[1].cumulative_budget > w[0].cumulative_budget);
        }
        // Server growth happens exactly at stage 1.
        assert_eq!(stages[0].servers, 96);
        assert_eq!(stages[1].servers, 144);
        assert_eq!(stages.last().unwrap().servers, 144);
    }

    #[test]
    fn jellyfish_bisection_eventually_exceeds_clos() {
        // The Figure 7 shape: at equal cumulative budget Jellyfish reaches a
        // higher bisection bandwidth than the structure-constrained Clos
        // upgrade, and the gap is visible by the last stage.
        let stages = run_expansion_comparison(small_scenario()).unwrap();
        let last = stages.last().unwrap();
        assert!(
            last.jellyfish_bisection > last.clos_bisection,
            "jellyfish {} <= clos {} at final stage",
            last.jellyfish_bisection,
            last.clos_bisection
        );
    }

    #[test]
    fn jellyfish_bisection_is_monotone_under_switch_only_expansion() {
        let stages = run_expansion_comparison(small_scenario()).unwrap();
        // From stage 1 onwards only switches are added to Jellyfish, so its
        // bisection bandwidth must not decrease (more capacity, same servers).
        for w in stages[1..].windows(2) {
            assert!(
                w[1].jellyfish_bisection >= w[0].jellyfish_bisection - 0.05,
                "bisection regressed: {} -> {}",
                w[0].jellyfish_bisection,
                w[1].jellyfish_bisection
            );
        }
    }

    #[test]
    fn stage_zero_drop_matches_paper_note() {
        // The paper notes Jellyfish's bisection drops from stage 0 to 1
        // because the server count grows in that step; with servers added and
        // only part of the budget left for capacity the normalized value
        // cannot jump upward dramatically. We simply check it stays positive.
        let stages = run_expansion_comparison(small_scenario()).unwrap();
        assert!(stages[1].jellyfish_bisection > 0.0);
        assert!(stages[1].clos_bisection > 0.0);
    }
}
