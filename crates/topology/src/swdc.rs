//! Small-World Data Center (SWDC) baseline topologies (Shin, Wong, Sirer,
//! SoCC 2011), used in the paper's Figure 4 comparison.
//!
//! An SWDC topology starts from a regular lattice (a ring, a 2-D torus, or a
//! 3-D "hex" torus) and adds random small-world shortcut links until every
//! node reaches a fixed degree (6 in the paper's comparison). The lattice
//! provides locality, the shortcuts provide low diameter — but the lattice
//! also reintroduces exactly the structural rigidity Jellyfish avoids.
//!
//! The paper emulates SWDC's six-interface, server-based design by using
//! switches with 1 (or 2, when oversubscribing) servers and 6 network ports.

use crate::graph::Graph;
use crate::topology::{Topology, TopologyError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The lattice underlying an SWDC topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lattice {
    /// A simple cycle; each node has 2 lattice links.
    Ring,
    /// A 2-D torus (wrap-around grid); each node has 4 lattice links.
    Torus2D,
    /// A 3-D "hex" torus as described in the SWDC paper: a stack of 2-D
    /// layers where each node additionally links to the layer above and
    /// below, giving 6 lattice links (no shortcut budget remains at degree 6;
    /// the structure itself is the topology).
    HexTorus3D,
}

impl Lattice {
    /// Lattice degree (links per node contributed by the lattice itself).
    pub fn lattice_degree(&self) -> usize {
        match self {
            Lattice::Ring => 2,
            Lattice::Torus2D => 4,
            Lattice::HexTorus3D => 6,
        }
    }
}

/// Builder for SWDC topologies.
#[derive(Debug, Clone)]
pub struct SwdcBuilder {
    lattice: Lattice,
    nodes: usize,
    degree: usize,
    servers_per_switch: usize,
    ports: usize,
    seed: u64,
}

impl SwdcBuilder {
    /// Creates a builder for an SWDC topology with `nodes` switches, total
    /// network degree `degree` and `servers_per_switch` servers each.
    /// `ports` must cover `degree + servers_per_switch`.
    pub fn new(lattice: Lattice, nodes: usize, degree: usize) -> Self {
        SwdcBuilder {
            lattice,
            nodes,
            degree,
            servers_per_switch: 1,
            ports: degree + 1,
            seed: 0x50DC,
        }
    }

    /// Sets the number of servers per switch (and grows the port budget to fit).
    pub fn servers_per_switch(mut self, servers: usize) -> Self {
        self.servers_per_switch = servers;
        self.ports = self.ports.max(self.degree + servers);
        self
    }

    /// Sets the per-switch port budget explicitly.
    pub fn ports(mut self, ports: usize) -> Self {
        self.ports = ports;
        self
    }

    /// Sets the RNG seed used for shortcut placement.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of nodes actually used: lattices require compatible sizes
    /// (perfect square for the 2-D torus, a near-cubic box for the hex
    /// torus), so the builder rounds *down* to the nearest well-formed size.
    pub fn effective_nodes(&self) -> usize {
        match self.lattice {
            Lattice::Ring => self.nodes,
            Lattice::Torus2D => {
                let side = (self.nodes as f64).sqrt().floor() as usize;
                side * side
            }
            Lattice::HexTorus3D => {
                // Use an l × l × h box with h = max(2, l/2) close to the target.
                let (l, h) = Self::hex_dims(self.nodes);
                l * l * h
            }
        }
    }

    fn hex_dims(target: usize) -> (usize, usize) {
        // Choose l (layer side) and h (layers) so l*l*h is close to target.
        // Both dimensions must be at least 3 so that all six torus neighbors
        // of a node are distinct.
        let mut best = (3usize, 3usize);
        let mut best_diff = usize::MAX;
        for l in 3..=((target as f64).cbrt().ceil() as usize * 4).max(4) {
            for h in 3..=l.max(3) {
                let n = l * l * h;
                if n <= target && target - n < best_diff {
                    best = (l, h);
                    best_diff = target - n;
                }
            }
        }
        best
    }

    /// Builds the SWDC topology.
    pub fn build(&self) -> Result<Topology, TopologyError> {
        let lattice_degree = self.lattice.lattice_degree();
        if self.degree < lattice_degree {
            return Err(TopologyError::InvalidParameters(format!(
                "degree {} below the lattice degree {} of {:?}",
                self.degree, lattice_degree, self.lattice
            )));
        }
        if self.ports < self.degree + self.servers_per_switch {
            return Err(TopologyError::InvalidParameters(format!(
                "ports {} cannot fit degree {} plus {} servers",
                self.ports, self.degree, self.servers_per_switch
            )));
        }
        let n = self.effective_nodes();
        if n < 4 {
            return Err(TopologyError::Infeasible(format!(
                "lattice needs at least 4 nodes, got {n}"
            )));
        }

        let mut g = Graph::new(n);
        match self.lattice {
            Lattice::Ring => {
                for i in 0..n {
                    g.add_edge(i, (i + 1) % n);
                }
            }
            Lattice::Torus2D => {
                let side = (n as f64).sqrt().round() as usize;
                let id = |x: usize, y: usize| (y % side) * side + (x % side);
                for y in 0..side {
                    for x in 0..side {
                        g.add_edge(id(x, y), id(x + 1, y));
                        g.add_edge(id(x, y), id(x, y + 1));
                    }
                }
            }
            Lattice::HexTorus3D => {
                let (l, h) = Self::hex_dims(self.nodes);
                let id = |x: usize, y: usize, z: usize| (z % h) * l * l + (y % l) * l + (x % l);
                for z in 0..h {
                    for y in 0..l {
                        for x in 0..l {
                            g.add_edge(id(x, y, z), id(x + 1, y, z));
                            g.add_edge(id(x, y, z), id(x, y + 1, z));
                            g.add_edge(id(x, y, z), id(x, y, z + 1));
                        }
                    }
                }
            }
        }

        // Add random shortcuts until every node reaches the target degree
        // (or no further simple edge can be added).
        let mut rng = StdRng::seed_from_u64(self.seed);
        let target = self.degree;
        let mut deficient: Vec<usize> = g.nodes().filter(|&v| g.degree(v) < target).collect();
        let mut stall = 0usize;
        while deficient.len() >= 2 {
            let i = rng.gen_range(0..deficient.len());
            let mut j = rng.gen_range(0..deficient.len() - 1);
            if j >= i {
                j += 1;
            }
            let (u, v) = (deficient[i], deficient[j]);
            if u != v && !g.has_edge(u, v) {
                g.add_edge(u, v);
                stall = 0;
                deficient.retain(|&x| g.degree(x) < target);
            } else {
                stall += 1;
                if stall > 8 * deficient.len() * deficient.len() + 64 {
                    break;
                }
            }
        }

        let topo = Topology::homogeneous(g, self.ports, self.servers_per_switch)
            .with_name(format!("swdc-{:?}(n={n},degree={})", self.lattice, self.degree));
        debug_assert!(topo.check_invariants().is_ok());
        Ok(topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::path_length_stats;

    #[test]
    fn ring_swdc_reaches_target_degree() {
        let topo = SwdcBuilder::new(Lattice::Ring, 100, 6).seed(1).build().unwrap();
        let g = topo.graph();
        assert_eq!(g.num_nodes(), 100);
        let deficient = g.nodes().filter(|&v| g.degree(v) < 6).count();
        assert!(deficient <= 1, "{deficient} nodes below degree 6");
        assert!(g.max_degree() <= 6);
        assert!(g.is_connected());
        // Ring links present.
        for i in 0..100 {
            assert!(g.has_edge(i, (i + 1) % 100));
        }
    }

    #[test]
    fn torus2d_effective_size_is_square() {
        let b = SwdcBuilder::new(Lattice::Torus2D, 484, 6);
        assert_eq!(b.effective_nodes(), 484); // 22 × 22
        let b2 = SwdcBuilder::new(Lattice::Torus2D, 500, 6);
        assert_eq!(b2.effective_nodes(), 484);
    }

    #[test]
    fn torus2d_has_lattice_neighbors() {
        let topo = SwdcBuilder::new(Lattice::Torus2D, 25, 6).seed(2).build().unwrap();
        let g = topo.graph();
        assert_eq!(g.num_nodes(), 25);
        // Node 0 = (0,0) connects to (1,0)=1, (4,0)=4, (0,1)=5, (0,4)=20.
        for v in [1, 4, 5, 20] {
            assert!(g.has_edge(0, v), "missing torus link (0,{v})");
        }
        assert!(g.is_connected());
    }

    #[test]
    fn hex_torus_is_pure_lattice_at_degree_6() {
        let topo = SwdcBuilder::new(Lattice::HexTorus3D, 450, 6).seed(3).build().unwrap();
        let g = topo.graph();
        // Every node has exactly 6 lattice links (torus wrap in 3 dims).
        for v in g.nodes() {
            assert_eq!(g.degree(v), 6, "node {v}");
        }
        assert!(g.is_connected());
        assert!(g.num_nodes() <= 450);
    }

    #[test]
    fn degree_below_lattice_rejected() {
        assert!(SwdcBuilder::new(Lattice::Torus2D, 100, 3).build().is_err());
        assert!(SwdcBuilder::new(Lattice::HexTorus3D, 100, 5).build().is_err());
    }

    #[test]
    fn ports_must_fit_degree_and_servers() {
        let b = SwdcBuilder::new(Lattice::Ring, 50, 6).servers_per_switch(2).ports(7);
        assert!(b.build().is_err());
        let ok = SwdcBuilder::new(Lattice::Ring, 50, 6).servers_per_switch(2);
        assert!(ok.build().is_ok());
    }

    #[test]
    fn figure4_setup_484_switches() {
        // The paper's Figure 4 setup: network degree 6, 2 servers per switch.
        let fig4 = |lattice, n| {
            SwdcBuilder::new(lattice, n, 6).servers_per_switch(2).seed(1).build().unwrap()
        };
        let ring = fig4(Lattice::Ring, 484);
        let torus = fig4(Lattice::Torus2D, 484);
        let hex = fig4(Lattice::HexTorus3D, 450);
        assert_eq!(ring.num_switches(), 484);
        assert_eq!(torus.num_switches(), 484);
        assert!(hex.num_switches() <= 450);
        for t in [&ring, &torus, &hex] {
            assert!(t.graph().is_connected());
            assert_eq!(t.servers(0), 2);
        }
    }

    #[test]
    fn small_world_shortcuts_shrink_ring_diameter() {
        // A plain 100-node ring has diameter 50; with shortcuts to degree 6
        // the small-world effect brings it down by an order of magnitude.
        let topo = SwdcBuilder::new(Lattice::Ring, 100, 6).seed(7).build().unwrap();
        let stats = path_length_stats(&topo.csr());
        assert!(stats.diameter <= 8, "diameter {} too large", stats.diameter);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SwdcBuilder::new(Lattice::Ring, 60, 6).seed(11).build().unwrap();
        let b = SwdcBuilder::new(Lattice::Ring, 60, 6).seed(11).build().unwrap();
        let ea: Vec<_> = a.graph().edges().collect();
        let eb: Vec<_> = b.graph().edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn lattice_degree_constants() {
        assert_eq!(Lattice::Ring.lattice_degree(), 2);
        assert_eq!(Lattice::Torus2D.lattice_degree(), 4);
        assert_eq!(Lattice::HexTorus3D.lattice_degree(), 6);
    }
}
