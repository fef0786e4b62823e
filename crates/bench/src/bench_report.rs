//! `figures bench` — the tracked hot-kernel benchmark trajectory.
//!
//! Runs each rewritten kernel next to its pre-rewrite scalar baseline at a
//! fixed per-scale instance size and renders one JSON report (printed, and
//! written to a file with `--out`) with a record per kernel:
//! `{"kernel", "n", "ns_per_iter", "speedup_vs_scalar"}`. `ns_per_iter` is
//! the optimized path's wall-clock per iteration; `speedup_vs_scalar` is the
//! baseline's time divided by it, so values above 1 mean the rewrite pays
//! off. PERF.md documents the kernel inventory and how to read the report;
//! CI runs `figures bench --scale tiny` as a smoke check and archives the
//! report as an artifact.

use jellyfish::figures::Scale;
use jellyfish::service::{ChurnEvent, Session};
use jellyfish_flow::bisection::{min_bisection_heuristic, min_bisection_heuristic_reference};
use jellyfish_routing::path_table::RoutingScheme;
use jellyfish_routing::shortest::{all_pairs_distances, all_pairs_distances_reference};
use jellyfish_topology::spec::ScenarioTransform;
use jellyfish_topology::{CsrGraph, JellyfishBuilder, Topology};
use jellyfish_traffic::{ServerMap, TrafficSpec};
use std::time::{Duration, Instant};

/// One measured kernel: the optimized path's per-iteration time and its
/// speedup over the pre-rewrite scalar baseline.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Kernel name (see PERF.md for the inventory).
    pub kernel: String,
    /// Problem size the kernel ran at (switches, arcs or edges — per kernel).
    pub n: usize,
    /// Optimized path, nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Baseline time divided by optimized time (> 1 means faster).
    pub speedup_vs_scalar: f64,
}

/// Per-scale instance sizes: `(bfs_topo, kl_topo, kl_restarts)` as
/// `JellyfishBuilder::new` argument triples. The laptop sizes are the
/// acceptance targets: all-pairs BFS at the paper's jellyfish 245×14 and
/// Kernighan–Lin at n = 500.
fn sizes(scale: Scale) -> ((usize, usize, usize), (usize, usize, usize), usize) {
    match scale {
        Scale::Tiny => ((60, 10, 6), (60, 10, 6), 2),
        Scale::Laptop => ((245, 14, 11), (500, 24, 12), 2),
        Scale::Paper => ((686, 24, 19), (1000, 24, 12), 2),
    }
}

/// Server-map size for the `traffic_stream_*` kernels, as a
/// `ServerMap::uniform` argument pair (racks × servers-per-rack).
fn traffic_sizes(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Tiny => (16, 8),    // 128 servers
        Scale::Laptop => (64, 16), // 1024 servers
        Scale::Paper => (128, 32), // 4096 servers
    }
}

/// Times `f` with one warmup call, then iterates until `min_total` elapses
/// or `max_iters` is reached, returning mean nanoseconds per iteration.
fn time_ns<F: FnMut()>(mut f: F, min_total: Duration, max_iters: u32) -> f64 {
    f();
    let start = Instant::now();
    let mut iters = 0u32;
    loop {
        f();
        iters += 1;
        if start.elapsed() >= min_total || iters >= max_iters {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn record<F, G>(kernel: &str, n: usize, optimized: F, scalar: G) -> BenchRecord
where
    F: FnMut(),
    G: FnMut(),
{
    let budget = Duration::from_millis(150);
    let ns_opt = time_ns(optimized, budget, 1000);
    let ns_scalar = time_ns(scalar, budget, 1000);
    BenchRecord {
        kernel: kernel.to_string(),
        n,
        ns_per_iter: ns_opt,
        speedup_vs_scalar: ns_scalar / ns_opt,
    }
}

/// Runs the full suite at `scale` and returns the records in a fixed order.
pub fn run_suite(scale: Scale, seed: u64) -> Vec<BenchRecord> {
    let ((bn, bp, bd), (kn, kp, kd), restarts) = sizes(scale);
    let bfs_topo: Topology =
        JellyfishBuilder::new(bn, bp, bd).seed(seed).build().expect("bench topology builds");
    let bfs_csr: CsrGraph = bfs_topo.csr();
    let kl_topo: Topology =
        JellyfishBuilder::new(kn, kp, kd).seed(seed ^ 1).build().expect("bench topology builds");

    let mut records = Vec::new();

    // 1. All-pairs BFS: the 64-source bit-parallel flat-matrix sweep that
    //    sessions and perfbench run vs the pre-rewrite per-source queue BFS
    //    building Vec<Vec<usize>>.
    records.push(record(
        "all_pairs_bfs",
        bn,
        || {
            std::hint::black_box(all_pairs_distances(&bfs_csr));
        },
        || {
            std::hint::black_box(all_pairs_distances_reference(&bfs_csr));
        },
    ));

    // 2. Kernighan–Lin bisection: sorted-partner selection with incremental
    //    D-values vs the all-pairs scan. Both run the identical restart
    //    schedule and produce the identical cut.
    records.push(record(
        "kl_bisection",
        kn,
        || {
            std::hint::black_box(min_bisection_heuristic(&kl_topo, restarts, seed));
        },
        || {
            std::hint::black_box(min_bisection_heuristic_reference(&kl_topo, restarts, seed));
        },
    ));

    // 3–5. Traffic streaming: the lazy spec-built FlowStream aggregated to
    //    switch demands on the fly, against the eager baseline that first
    //    materializes the full TrafficMatrix and then aggregates. Same flows,
    //    same demands — the streamed path just never holds the flow Vec.
    let (racks, per_rack) = traffic_sizes(scale);
    let servers = ServerMap::uniform(racks, per_rack);
    let n_servers = racks * per_rack;
    for name in ["permutation", "zipf:s=1.2,hot_racks=4", "all2all"] {
        let spec: TrafficSpec = name.parse().expect("bench traffic spec parses");
        let kernel = format!("traffic_stream_{}", spec.generator());
        let streamed_spec = spec.clone();
        let eager_spec = spec;
        records.push(record(
            &kernel,
            n_servers,
            || {
                let stream = streamed_spec
                    .stream(&servers, seed)
                    .expect("bench workload builds on the uniform map");
                std::hint::black_box(stream.switch_demands(&servers));
            },
            || {
                let tm = eager_spec
                    .matrix(&servers, seed)
                    .expect("bench workload builds on the uniform map");
                std::hint::black_box(tm.switch_demands(&servers));
            },
        ));
    }

    // 6. Live-session distance maintenance: one fail-link + restore churn
    //    round-trip on a resident session. Optimized = incremental
    //    all-pairs repair limited to affected sources; scalar = the oracle
    //    session's full BFS rebuild after every event. Identical matrices
    //    either way (the churn-equivalence proptest holds them to it).
    let (fa, fb) = bfs_csr.edges().next().expect("bench topology has links");
    let mut dist_inc = Session::new(bfs_topo.clone(), seed);
    let mut dist_full = Session::oracle(bfs_topo.clone(), seed);
    dist_inc.distances();
    dist_full.distances();
    records.push(record(
        "serve_dist_repair",
        bn,
        || {
            dist_inc.apply(&ChurnEvent::FailLink { a: fa, b: fb }).expect("link churn applies");
            dist_inc.apply(&ChurnEvent::Restore).expect("restore applies");
        },
        || {
            dist_full.apply(&ChurnEvent::FailLink { a: fa, b: fb }).expect("link churn applies");
            dist_full.apply(&ChurnEvent::Restore).expect("restore applies");
        },
    ));

    // 7. Live-session path maintenance: the same churn round-trip followed
    //    by ECMP path queries for a fixed pair set. Optimized = the exact
    //    invalidation keeps provably-unaffected cache entries; scalar = the
    //    oracle session drops the cache on every event and re-enumerates.
    let pairs: Vec<(usize, usize)> = (0..16).map(|i| (i % bn, (i + bn / 2) % bn)).collect();
    let mut path_inc = Session::new(bfs_topo.clone(), seed);
    let mut path_full = Session::oracle(bfs_topo.clone(), seed);
    for &(s, d) in &pairs {
        path_inc.paths_for(RoutingScheme::ecmp8(), s, d);
        path_full.paths_for(RoutingScheme::ecmp8(), s, d);
    }
    records.push(record(
        "serve_path_repair",
        bn,
        || {
            path_inc.apply(&ChurnEvent::FailLink { a: fa, b: fb }).expect("link churn applies");
            path_inc.apply(&ChurnEvent::Restore).expect("restore applies");
            for &(s, d) in &pairs {
                std::hint::black_box(path_inc.paths_for(RoutingScheme::ecmp8(), s, d));
            }
        },
        || {
            path_full.apply(&ChurnEvent::FailLink { a: fa, b: fb }).expect("link churn applies");
            path_full.apply(&ChurnEvent::Restore).expect("restore applies");
            for &(s, d) in &pairs {
                std::hint::black_box(path_full.paths_for(RoutingScheme::ecmp8(), s, d));
            }
        },
    ));

    // 8. The failure_sweep inner loop in service mode: a resident session
    //    replays the fraction axis as restore + fail_links churn on the
    //    topology it already holds, against the pre-port shape that rebuilt
    //    each item's topology from its spec (the cost every cold shard
    //    paid). The flow solve downstream is identical in both, so only the
    //    topology-preparation loop is timed.
    let sweep_fractions = [0.0, 0.10, 0.20];
    let mut sweep_session = Session::new(bfs_topo.clone(), seed);
    records.push(record(
        "serve_failure_sweep",
        bn,
        || {
            for &f in &sweep_fractions {
                sweep_session.apply(&ChurnEvent::Restore).expect("restore applies");
                sweep_session
                    .apply(&ChurnEvent::FailLinks { fraction: f })
                    .expect("fraction churn applies");
                std::hint::black_box(sweep_session.csr());
            }
        },
        || {
            for &f in &sweep_fractions {
                let mut topo: Topology = JellyfishBuilder::new(bn, bp, bd)
                    .seed(seed)
                    .build()
                    .expect("bench topology builds");
                ScenarioTransform::FailLinks(f)
                    .apply(&mut topo, seed)
                    .expect("fraction transform applies");
                std::hint::black_box(topo.csr());
            }
        },
    ));

    records
}

/// Serializes a suite run as the `BENCH_*.json` report.
pub fn render_report(scale: Scale, seed: u64, records: &[BenchRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 == records.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"n\": {}, \"ns_per_iter\": {:.1}, \
             \"speedup_vs_scalar\": {:.3}}}{comma}\n",
            r.kernel, r.n, r.ns_per_iter, r.speedup_vs_scalar
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shape_is_valid_json_with_required_fields() {
        let records = vec![
            BenchRecord {
                kernel: "all_pairs_bfs".into(),
                n: 60,
                ns_per_iter: 1234.5,
                speedup_vs_scalar: 2.5,
            },
            BenchRecord {
                kernel: "kl_bisection".into(),
                n: 60,
                ns_per_iter: 99.0,
                speedup_vs_scalar: 3.0,
            },
        ];
        let report = render_report(Scale::Tiny, 7, &records);
        assert!(report.contains("\"scale\": \"tiny\""));
        assert!(report.contains("\"kernel\": \"all_pairs_bfs\""));
        assert!(report.contains("\"speedup_vs_scalar\": 2.500"));
        assert!(report.contains("\"ns_per_iter\": 99.0"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(report.matches('{').count(), report.matches('}').count());
        assert_eq!(report.matches('[').count(), report.matches(']').count());
    }

    #[test]
    fn time_ns_returns_positive() {
        let ns = time_ns(
            || {
                std::hint::black_box(42);
            },
            Duration::from_millis(1),
            100,
        );
        assert!(ns > 0.0);
    }
}
