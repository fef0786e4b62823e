//! Spec ↔ legacy-constructor equivalence: building a topology through the
//! `TopoSpec` generator registry is bit-identical to calling the legacy
//! constructor it wraps, for every construction the 17 catalog experiments
//! use — plus determinism of `build(spec, seed)` for every spec any
//! registered experiment's work items carry at `Scale::Tiny`.

use jellyfish::experiment::{registry, RunCtx, RunSpec};
use jellyfish::figures::Scale;
use jellyfish_topology::clos::ClosConfig;
use jellyfish_topology::degree_diameter::figure3_pair;
use jellyfish_topology::fattree::{same_equipment_pair, FatTree};
use jellyfish_topology::swdc::{Lattice, SwdcBuilder};
use jellyfish_topology::{JellyfishBuilder, TopoSpec, Topology};

const SEED: u64 = 2012;

/// Structural equality: same links, same per-switch ports and servers.
fn assert_same(context: &str, a: &Topology, b: &Topology) {
    assert_eq!(a.num_switches(), b.num_switches(), "{context}: switch counts differ");
    assert_eq!(
        a.graph().edges().collect::<Vec<_>>(),
        b.graph().edges().collect::<Vec<_>>(),
        "{context}: link sets differ"
    );
    for v in 0..a.num_switches() {
        assert_eq!(a.ports(v), b.ports(v), "{context}: ports differ at switch {v}");
        assert_eq!(a.servers(v), b.servers(v), "{context}: servers differ at switch {v}");
    }
}

fn build(spec: &str, seed: u64) -> Topology {
    spec.parse::<TopoSpec>()
        .unwrap_or_else(|e| panic!("'{spec}' does not parse: {e}"))
        .build(seed)
        .unwrap_or_else(|e| panic!("'{spec}' does not build: {e}"))
}

#[test]
fn jellyfish_spec_equals_jellyfish_builder() {
    // fig5/fig9/fig10/fig14-style homogeneous RRG.
    let legacy = JellyfishBuilder::new(25, 8, 5).seed(SEED).build().unwrap();
    assert_same("rrg", &build("jellyfish:switches=25,ports=8,degree=5", SEED), &legacy);
    // The `servers` key is the complement of `degree`.
    assert_same("rrg/servers", &build("jellyfish:switches=25,ports=8,servers=3", SEED), &legacy);
}

#[test]
fn jellyfish_servers_spec_equals_figure3_pair_jellyfish() {
    // fig3/fig4-style: explicit degree plus a reduced per-switch server count.
    let (bench, jelly) = figure3_pair(20, 6, 4, 1, SEED).unwrap();
    assert_same("fig3/dd", &build("dd:n=20,ports=6,degree=4,servers=1", SEED), &bench);
    assert_same(
        "fig3/jellyfish",
        &build("jellyfish:switches=20,ports=6,degree=4,servers=1", SEED ^ 0xF00D),
        &jelly,
    );
}

#[test]
fn jellyfish_total_spec_equals_same_equipment_pair() {
    // fig1c/fig8/fig13/table1-style: total servers spread evenly over the
    // fat-tree's switching equipment.
    let k = 6;
    let servers = FatTree::servers_for_port_count(k);
    let switches = FatTree::switches_for_port_count(k);
    let (ft, jf) = same_equipment_pair(k, servers, SEED).unwrap();
    assert_same(
        "same-equipment/jellyfish",
        &build(&format!("jellyfish:switches={switches},ports={k},servers_total={servers}"), SEED),
        &jf,
    );
    assert_same("same-equipment/fattree", &build(&format!("fattree:k={k}"), SEED), ft.topology());
}

#[test]
fn swdc_spec_equals_figure4_constructor() {
    for (lattice, token) in
        [(Lattice::Ring, "ring"), (Lattice::Torus2D, "torus2d"), (Lattice::HexTorus3D, "hex3d")]
    {
        // Figure 4's historical setup is degree 6 with 2 servers per switch.
        let legacy =
            SwdcBuilder::new(lattice, 36, 6).servers_per_switch(2).seed(SEED).build().unwrap();
        let via_spec = build(&format!("swdc:lattice={token},n=36,servers=2"), SEED);
        assert_same(token, &via_spec, &legacy);
    }
}

#[test]
fn leafspine_spec_equals_clos_config() {
    let legacy =
        ClosConfig { leaves: 6, spines: 3, leaf_ports: 7, spine_ports: 6, servers_per_leaf: 4 }
            .build()
            .unwrap();
    assert_same("leafspine", &build("leafspine:leaf=6,spine=3,servers=4", SEED), &legacy);
}

/// `build(spec, seed)` is deterministic for every spec any registered
/// experiment's Tiny-scale work items carry (the catalog's whole topology
/// axis), and two independently constructed `RunCtx` caches hand back
/// structurally identical snapshots.
#[test]
fn every_catalog_item_spec_builds_deterministically() {
    let mut specs: Vec<TopoSpec> = Vec::new();
    for exp in registry() {
        let ctx = RunCtx::new(RunSpec::new(Scale::Tiny, SEED));
        for item in exp.work_items(&ctx) {
            if let Some(spec) = item.spec {
                if !specs.contains(&spec) {
                    specs.push(spec);
                }
            }
        }
    }
    assert!(
        specs.len() >= 15,
        "expected a topology axis across the catalog, found only {} specs",
        specs.len()
    );
    for spec in &specs {
        let a = spec.build(SEED).unwrap_or_else(|e| panic!("'{spec}' does not build: {e}"));
        let b = spec.build(SEED).unwrap();
        assert_same(&spec.to_string(), &a, &b);
        // Round-trip through the canonical string keeps identity.
        let reparsed: TopoSpec = spec.to_string().parse().unwrap();
        assert_eq!(&reparsed, spec, "'{spec}' is not parse/display stable");
    }
}
