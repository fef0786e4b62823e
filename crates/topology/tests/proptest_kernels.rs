//! Equivalence proptests for the hot-kernel rewrites (PERF.md): the
//! direction-optimizing BFS and the multi-source bit-parallel BFS must be
//! bit-identical to the scalar queue BFS across random topologies and
//! sources — and across **every** generator in the [`TopoSpec`] registry, so
//! adding a generator without extending the small-spec table below fails
//! loudly — and the CSR cut count must agree with the edge-list count on
//! [`jellyfish_topology::Graph`].

use jellyfish_topology::bfs::{bfs_into, bfs_scalar_into, ms_bfs_into};
use jellyfish_topology::spec::generators;
use jellyfish_topology::{BfsScratch, JellyfishBuilder, MsBfsScratch, TopoSpec, UNREACHED};
use proptest::prelude::*;

/// One deliberately small instance per registered generator. The coverage
/// assertion in `direction_optimizing_bfs_matches_scalar_on_every_generator`
/// keeps this table in sync with the registry.
const SMALL_SPECS: &[(&str, &str)] = &[
    ("jellyfish", "jellyfish:switches=26,ports=8,degree=5"),
    ("fattree", "fattree:k=4"),
    ("swdc", "swdc:lattice=torus2d,n=25,servers=1"),
    ("dd", "dd:n=18,ports=6,degree=4"),
    ("leafspine", "leafspine:leaf=6,spine=4,servers=2"),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The direction-optimizing BFS returns exactly the scalar queue BFS's
    /// levels on every generator in the registry, from every source.
    #[test]
    fn direction_optimizing_bfs_matches_scalar_on_every_generator(seed in any::<u64>()) {
        for gen in generators() {
            let (_, spec_str) = SMALL_SPECS
                .iter()
                .find(|(name, _)| *name == gen.name())
                .unwrap_or_else(|| panic!(
                    "generator '{}' is registered but has no small spec in SMALL_SPECS; \
                     add one so the BFS equivalence sweep covers it",
                    gen.name()
                ));
            let spec: TopoSpec = spec_str.parse().expect("small spec parses");
            let topo = spec.build(seed).expect("small spec builds");
            let csr = topo.csr();
            let n = csr.num_nodes();
            let mut scratch = BfsScratch::new(n);
            let mut fast = vec![0u32; n];
            let mut reference = vec![0u32; n];
            for source in 0..n {
                bfs_into(&csr, source, &mut fast, &mut scratch);
                bfs_scalar_into(&csr, source, &mut reference);
                prop_assert_eq!(
                    &fast, &reference,
                    "generator {} source {} (seed {})", gen.name(), source, seed
                );
            }
        }
    }

    /// Each lane of the multi-source bit-parallel BFS equals an independent
    /// scalar BFS from that lane's source, for any batch size up to 64
    /// (duplicate sources included).
    #[test]
    fn ms_bfs_lanes_match_scalar(
        n in 6usize..60,
        lanes in 1usize..=64,
        seed in any::<u64>(),
    ) {
        let topo = JellyfishBuilder::new(n, 8, 4).seed(seed).build().unwrap();
        let csr = topo.csr();
        let sources: Vec<usize> =
            (0..lanes).map(|i| (seed.wrapping_add(i as u64) % n as u64) as usize).collect();
        let mut rows = vec![UNREACHED; lanes * n];
        let mut scratch = MsBfsScratch::new(n);
        ms_bfs_into(&csr, &sources, &mut rows, &mut scratch);
        let mut reference = vec![0u32; n];
        for (lane, &src) in sources.iter().enumerate() {
            bfs_scalar_into(&csr, src, &mut reference);
            prop_assert_eq!(
                &rows[lane * n..(lane + 1) * n], reference.as_slice(),
                "lane {} source {} (n {}, seed {})", lane, src, n, seed
            );
        }
    }

    /// The CSR cut count equals the independent edge-list count on the
    /// builder's [`jellyfish_topology::Graph`] for a random partition of a
    /// random topology.
    #[test]
    fn csr_cut_size_matches_graph_cut_size(
        n in 6usize..50,
        seed in any::<u64>(),
        bits in any::<u64>(),
    ) {
        let topo = JellyfishBuilder::new(n, 8, 4).seed(seed).build().unwrap();
        let in_set: Vec<bool> = (0..n).map(|v| (bits >> (v % 64)) & 1 == 1).collect();
        prop_assert_eq!(topo.csr().cut_size(&in_set), topo.graph().cut_size(&in_set));
    }
}
