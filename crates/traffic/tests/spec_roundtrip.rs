//! Property tests for the traffic-spec grammar and the streaming contract:
//! canonical spec strings round-trip through parse/Display unchanged across
//! every generator × transform chain, a lazy `FlowStream` and its flows
//! collected into a resident `TrafficMatrix` feed [`switch_demands`] the
//! same workload, builds are deterministic per seed with distinct streams
//! across seeds, and an all-to-all workload past a million flows is
//! consumed without ever materializing the flow set.

use jellyfish_traffic::{switch_demands, Flow, ServerMap, TrafficMatrix, TrafficSpec};
use proptest::prelude::*;

/// A canonical spec string for generator index `g`, parameterized by the
/// sampled values (only the ones the generator takes are used). Canonical
/// means exactly what `Display` prints, so string equality is the
/// round-trip check.
#[expect(clippy::too_many_arguments, reason = "one parameter per sampled spec value")]
fn spec_string(
    g: usize,
    k: usize,
    fraction: f64,
    s: f64,
    fanin: usize,
    scale: f64,
    epochs: usize,
    with_transforms: bool,
) -> String {
    let mut spec = match g {
        0 => "permutation".to_string(),
        1 => "all2all".to_string(),
        2 => format!("stride:k={k}"),
        3 => format!("hotspot:fraction={fraction}"),
        4 => format!("zipf:s={s}"),
        5 => format!("zipf:s={s},hot_racks={}", k.max(1)),
        6 => format!("incast:fanin={fanin},targets=2"),
        7 => format!("outcast:fanout={fanin},sources=2"),
        _ => unreachable!("generator index out of range"),
    };
    if with_transforms {
        spec.push_str(&format!("+scale_demand={scale}"));
        if epochs > 1 {
            spec.push_str(&format!("+epochs={epochs}"));
        }
    }
    spec
}

fn servers() -> ServerMap {
    // 6 racks x 4 servers = 24 servers: enough for every sampled generator
    // (incast fanin stays well below n-1, zipf has racks to skew across).
    ServerMap::uniform(6, 4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Parse → Display returns the canonical string byte-for-byte, for every
    /// generator crossed with transform chains, and the re-parsed spec
    /// produces the identical flow sequence.
    #[test]
    fn canonical_specs_roundtrip_through_parse_and_display(
        g in 0usize..8,
        k in 1usize..5,
        fraction in 0.05f64..0.95,
        s in 0.3f64..2.5,
        fanin in 1usize..4,
        scale in 0.25f64..3.0,
        epochs in 1usize..4,
        with_transforms in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let text = spec_string(g, k, fraction, s, fanin, scale, epochs, with_transforms);
        let spec: TrafficSpec = text.parse().expect("canonical spec parses");
        prop_assert_eq!(spec.to_string(), text.clone(), "Display drifted from the input");
        let reparsed: TrafficSpec = spec.to_string().parse().expect("Display output parses");
        prop_assert_eq!(reparsed.to_string(), text, "second round-trip drifted");
        let map = servers();
        let a: Vec<Flow> = spec.stream(&map, seed).expect("spec builds").collect();
        let b: Vec<Flow> = reparsed.stream(&map, seed).expect("reparsed spec builds").collect();
        prop_assert_eq!(a, b, "re-parsed spec generates different flows");
    }

    /// A lazy stream and its collected matrix agree exactly: the advertised
    /// length is the flow count, and the switch-level aggregation of the
    /// stream equals that of the resident matrix built from its flows.
    #[test]
    fn stream_agrees_with_collected_matrix(
        g in 0usize..8,
        k in 1usize..5,
        fraction in 0.05f64..0.95,
        s in 0.3f64..2.5,
        fanin in 1usize..4,
        scale in 0.25f64..3.0,
        epochs in 1usize..4,
        with_transforms in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let text = spec_string(g, k, fraction, s, fanin, scale, epochs, with_transforms);
        let spec: TrafficSpec = text.parse().expect("canonical spec parses");
        let map = servers();
        let stream = spec.stream(&map, seed).expect("spec builds");
        let advertised = stream.len();
        let stream_demands = switch_demands(spec.stream(&map, seed).expect("spec builds"), &map);
        let tm = TrafficMatrix::from_flows(stream.collect(), map.num_servers());
        prop_assert_eq!(advertised, tm.flows().len(), "{}: len lied", text);
        prop_assert_eq!(
            stream_demands,
            switch_demands(&tm, &map),
            "{}: streamed aggregation differs",
            text
        );
    }

    /// The same `(spec, servers, seed)` always generates the identical flow
    /// sequence, and the seeded generators spread: different seeds give a
    /// different permutation.
    #[test]
    fn builds_are_deterministic_and_seeds_spread(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        prop_assume!(seed_a != seed_b);
        let map = servers();
        let spec: TrafficSpec = "permutation".parse().unwrap();
        let once: Vec<Flow> = spec.stream(&map, seed_a).unwrap().collect();
        let again: Vec<Flow> = spec.stream(&map, seed_a).unwrap().collect();
        prop_assert_eq!(&once, &again, "same seed must reproduce the stream");
        let other: Vec<Flow> = spec.stream(&map, seed_b).unwrap().collect();
        prop_assert!(once != other, "seeds {seed_a} and {seed_b} gave the same permutation");
    }
}

/// The ISSUE's streaming acceptance criterion: an all-to-all workload on
/// 1024 servers — 1024 x 1023 = 1,047,552 flows — is generated and consumed
/// lazily, holding one flow at a time, never a `Vec` of the flow set. The
/// aggregates confirm every flow was visited.
#[test]
fn million_flow_all_to_all_streams_without_materializing() {
    let map = ServerMap::uniform(64, 16); // 1024 servers
    let spec: TrafficSpec = "all2all".parse().unwrap();
    let stream = spec.stream(&map, 0).unwrap();
    let expected = 1024 * 1023;
    assert_eq!(stream.len(), expected, "all-to-all knows its size up front");
    let mut count = 0usize;
    let mut total_demand = 0.0f64;
    for flow in stream {
        count += 1;
        total_demand += flow.demand;
        debug_assert!(flow.src != flow.dst);
    }
    assert_eq!(count, expected);
    // Per-flow demand is 1/(n-1), so the total egress demand is n.
    assert!((total_demand - 1024.0).abs() < 1e-6, "total demand {total_demand} != 1024");
}
