//! Pins the packet simulator's output bits.
//!
//! The golden suite covers the flow solver and the fluid model, and the
//! benchmark compares the simulator only against itself, so neither would
//! notice an engine change that moves a single packet. These pins would:
//! every field of a [`SimReport`] — each connection's endpoints and
//! throughput bits in order, the fabric's transmit and drop counters, and
//! every RTT sample's bits — is folded into one digest per run and compared
//! against the value the simulator produced before its event queue, hop
//! resolution, send-time table and LIA buffers were rewritten. The report's
//! work counters (events handled, wire losses, transmit attempts on missing
//! links) entered it with that rewrite and are pinned from it.
//!
//! The runs cross {8-way ECMP, 8 Shortest Paths} × {TCP 1, TCP 8, MPTCP 8} ×
//! {ideal fabric, impaired fabric with every knob on} on a tiny Jellyfish,
//! plus one run whose connections are routed on the intact fabric and
//! simulated on a fabric with a fifth of its links failed, so packets hit
//! links that no longer exist.

use jellyfish_routing::path_table::RoutingScheme;
use jellyfish_sim::engine::{SimConfig, SimReport, Simulator};
use jellyfish_sim::net::{LinkParams, Network};
use jellyfish_sim::routing::TransportPolicy;
use jellyfish_sim::workload::build_connections;
use jellyfish_topology::failures::fail_random_links;
use jellyfish_topology::spec::{ImpairConfig, JitterDist};
use jellyfish_topology::{JellyfishBuilder, Topology};
use jellyfish_traffic::{ServerMap, TrafficMatrix};

const SEED: u64 = 11;

/// Every impairment knob on at once: i.i.d. and Gilbert–Elliott loss,
/// exponential jitter, reordering, duplication and a queue override.
fn every_knob() -> ImpairConfig {
    ImpairConfig {
        loss: 0.01,
        ge_good_to_bad: 0.02,
        ge_bad_to_good: 0.3,
        jitter_ms: 2.0,
        jitter_dist: JitterDist::Exp,
        reorder: 0.05,
        duplicate: 0.02,
        queue: Some(12),
    }
}

fn fabric() -> Topology {
    JellyfishBuilder::new(10, 6, 4).seed(SEED).build().expect("tiny jellyfish builds")
}

/// Routes a random permutation on `routed` and simulates it on `simulated`
/// (the same fabric, or a copy of it with links failed).
fn run(
    routed: &Topology,
    simulated: &Topology,
    path: RoutingScheme,
    transport: TransportPolicy,
    impair: Option<ImpairConfig>,
) -> SimReport {
    let servers = ServerMap::new(routed);
    let tm = TrafficMatrix::random_permutation(&servers, SEED ^ 0xABCD);
    let conns = build_connections(&routed.csr(), &servers, &tm, path, transport, SEED);
    let mut net = Network::build(&simulated.csr(), &servers, LinkParams::default());
    if let Some(cfg) = impair {
        net = net.with_impairment(cfg, SEED ^ 0x1417);
    }
    let config = SimConfig { duration: 2.0, warmup: 0.5, seed: SEED, ..Default::default() };
    Simulator::new(net, conns, config).run()
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a over the report's fields, in a fixed order.
fn digest(r: &SimReport) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325;
    for c in &r.connections {
        h = fnv(h, &(c.src_server as u64).to_le_bytes());
        h = fnv(h, &(c.dst_server as u64).to_le_bytes());
        h = fnv(h, &c.normalized_throughput.to_bits().to_le_bytes());
    }
    h = fnv(h, &r.transmitted.to_le_bytes());
    h = fnv(h, &r.drops.to_le_bytes());
    h = fnv(h, &(r.rtt_samples.len() as u64).to_le_bytes());
    for s in &r.rtt_samples {
        h = fnv(h, &s.to_bits().to_le_bytes());
    }
    h
}

/// What one run must reproduce: the digest and the counts folded into it,
/// captured before the rewrite, and the work counters, captured when they
/// entered the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    digest: u64,
    transmitted: u64,
    drops: u64,
    rtt_samples: usize,
    events: u64,
    wire_losses: u64,
    no_link_drops: u64,
}

impl Pin {
    fn of(r: &SimReport) -> Pin {
        Pin {
            digest: digest(r),
            transmitted: r.transmitted,
            drops: r.drops,
            rtt_samples: r.rtt_samples.len(),
            events: r.events,
            wire_losses: r.wire_losses,
            no_link_drops: r.no_link_drops,
        }
    }
}

/// `(label, pin)` for every run, in [`runs`] order.
const PINS: &[(&str, Pin)] = &[
    (
        "8-way ECMP TCP 1 flow ideal",
        Pin {
            digest: 8946314133819752653,
            transmitted: 13229,
            drops: 439,
            rtt_samples: 1265,
            events: 13226,
            wire_losses: 0,
            no_link_drops: 0,
        },
    ),
    (
        "8-way ECMP TCP 1 flow impaired",
        Pin {
            digest: 3912066571024933132,
            transmitted: 3741,
            drops: 234,
            rtt_samples: 180,
            events: 3598,
            wire_losses: 230,
            no_link_drops: 0,
        },
    ),
    (
        "8-way ECMP TCP 8 flows ideal",
        Pin {
            digest: 5602273603722163976,
            transmitted: 17117,
            drops: 906,
            rtt_samples: 1717,
            events: 17166,
            wire_losses: 0,
            no_link_drops: 0,
        },
    ),
    (
        "8-way ECMP TCP 8 flows impaired",
        Pin {
            digest: 17678169945312676541,
            transmitted: 11528,
            drops: 1072,
            rtt_samples: 786,
            events: 11191,
            wire_losses: 812,
            no_link_drops: 0,
        },
    ),
    (
        "8-way ECMP MPTCP 8 subflows ideal",
        Pin {
            digest: 18144242000635997002,
            transmitted: 17118,
            drops: 867,
            rtt_samples: 1733,
            events: 17160,
            wire_losses: 0,
            no_link_drops: 0,
        },
    ),
    (
        "8-way ECMP MPTCP 8 subflows impaired",
        Pin {
            digest: 7167467760955910004,
            transmitted: 9801,
            drops: 927,
            rtt_samples: 632,
            events: 9664,
            wire_losses: 681,
            no_link_drops: 0,
        },
    ),
    (
        "8 Shortest Paths TCP 1 flow ideal",
        Pin {
            digest: 5048185639462773083,
            transmitted: 12756,
            drops: 292,
            rtt_samples: 947,
            events: 12603,
            wire_losses: 0,
            no_link_drops: 0,
        },
    ),
    (
        "8 Shortest Paths TCP 1 flow impaired",
        Pin {
            digest: 3124391107820923485,
            transmitted: 4326,
            drops: 257,
            rtt_samples: 190,
            events: 4174,
            wire_losses: 249,
            no_link_drops: 0,
        },
    ),
    (
        "8 Shortest Paths TCP 8 flows ideal",
        Pin {
            digest: 17001902821020318787,
            transmitted: 20302,
            drops: 537,
            rtt_samples: 1361,
            events: 19927,
            wire_losses: 0,
            no_link_drops: 0,
        },
    ),
    (
        "8 Shortest Paths TCP 8 flows impaired",
        Pin {
            digest: 6376799764480140313,
            transmitted: 12141,
            drops: 978,
            rtt_samples: 536,
            events: 11794,
            wire_losses: 820,
            no_link_drops: 0,
        },
    ),
    (
        "8 Shortest Paths MPTCP 8 subflows ideal",
        Pin {
            digest: 2200817073400319115,
            transmitted: 22068,
            drops: 650,
            rtt_samples: 1627,
            events: 21621,
            wire_losses: 0,
            no_link_drops: 0,
        },
    ),
    (
        "8 Shortest Paths MPTCP 8 subflows impaired",
        Pin {
            digest: 6161718552843799198,
            transmitted: 11302,
            drops: 896,
            rtt_samples: 530,
            events: 11030,
            wire_losses: 762,
            no_link_drops: 0,
        },
    ),
    (
        "8 Shortest Paths MPTCP 8 subflows impaired, routed before fail_links",
        Pin {
            digest: 16625640367877963573,
            transmitted: 7639,
            drops: 635,
            rtt_samples: 372,
            events: 7715,
            wire_losses: 510,
            no_link_drops: 221,
        },
    ),
];

/// Every run this file pins.
fn runs() -> Vec<(String, SimReport)> {
    let topo = fabric();
    let mut out = Vec::new();
    for path in [RoutingScheme::ecmp8(), RoutingScheme::ksp8()] {
        for transport in [
            TransportPolicy::Tcp { flows: 1 },
            TransportPolicy::Tcp { flows: 8 },
            TransportPolicy::Mptcp { subflows: 8 },
        ] {
            for (fabric_label, impair) in [("ideal", None), ("impaired", Some(every_knob()))] {
                let label = format!("{} {} {fabric_label}", path.label(), transport.label());
                out.push((label, run(&topo, &topo, path, transport, impair)));
            }
        }
    }
    let mut failed = topo.clone();
    fail_random_links(&mut failed, 0.2, SEED);
    let (path, transport) = (RoutingScheme::ksp8(), TransportPolicy::Mptcp { subflows: 8 });
    let label =
        format!("{} {} impaired, routed before fail_links", path.label(), transport.label());
    out.push((label, run(&topo, &failed, path, transport, Some(every_knob()))));
    out
}

#[test]
fn simulator_reports_match_their_pins() {
    let got: Vec<(String, Pin)> = runs().iter().map(|(l, r)| (l.clone(), Pin::of(r))).collect();
    let table: String = got.iter().map(|(l, p)| format!("    (\"{l}\", {p:?}),\n")).collect();
    assert_eq!(got.len(), PINS.len(), "one pin per run; current values:\n{table}");
    for ((label, pin), (want_label, want)) in got.iter().zip(PINS) {
        assert_eq!(label, want_label);
        assert_eq!(pin, want, "{label} drifted; current values:\n{table}");
    }
}

#[test]
fn pinned_runs_exercise_every_outcome() {
    let runs = runs();
    // Every run moves packets; the impaired runs lose some on the wire and
    // the run routed before its links failed sends into missing links.
    for (label, r) in &runs {
        assert!(r.transmitted > 0, "{label}: nothing transmitted");
        assert!(!r.rtt_samples.is_empty(), "{label}: no RTT samples");
        assert!(r.wire_losses <= r.drops, "{label}: wire losses are a subset of drops");
        if label.contains("impaired") {
            assert!(r.wire_losses > 0, "{label}: an impaired fabric must lose packets");
        } else {
            assert_eq!(r.wire_losses, 0, "{label}: an ideal fabric loses nothing on the wire");
        }
        let routed_before_failure = label.contains("fail_links");
        assert_eq!(r.no_link_drops > 0, routed_before_failure, "{label}: {}", r.no_link_drops);
    }
}
