//! `perfbench` — the end-to-end and per-layer benchmark harness.
//!
//! ```text
//! perfbench --workload <failure_sweep|churn_repair|impaired_sweep> --seed N
//!           --seconds S --trace <0|1>
//! ```
//!
//! Progress goes to stderr. The last line of stdout is one JSON object,
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`: with
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. `perfbench/README.md` defines every workload and metric.

use std::time::{Duration, Instant};

mod churn_repair;
mod failure_sweep;
mod impaired_sweep;

/// Fewest batches a run measures, however long they take.
const MIN_BATCHES: usize = 3;

/// Set-up time spent before each batch: set-up repeats, each time from
/// scratch, until this much has passed, so that a set-up of well under a
/// millisecond is timed many times.
const SETUP_ROUND: Duration = Duration::from_millis(20);

/// The layers a traced run attributes busy time to. Every workload passes
/// through all four, so no layer time reads 0.
#[derive(Clone, Copy)]
pub enum Layer {
    /// Set-up: topology construction (`TopoSpec::build`).
    Topology,
    /// Set-up: CSR snapshots and the routing state built on them.
    Routing,
    /// An op's churn: opening a session and `Session::apply`, the topology
    /// delta and the routing repair after it.
    Churn,
    /// An op's query on the churned session: the flow solver, path
    /// queries, or route installation and packet simulation.
    Query,
}

const LAYERS: usize = 4;

/// Busy time per layer, from spans the harness opens around its own calls
/// into each layer. Reads no clock unless the run is traced.
pub struct Trace {
    enabled: bool,
    busy: [Duration; LAYERS],
}

impl Trace {
    /// Runs `f`, charging its duration to `layer`.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.busy[layer as usize] += start.elapsed();
        out
    }

    fn take(&mut self) -> [Duration; LAYERS] {
        std::mem::take(&mut self.busy)
    }
}

/// Work counted inside a batch, for the per-layer metrics. Each workload
/// fills the counters of the layers it reaches and leaves the rest 0.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
pub struct Counts {
    /// Path queries the session answered from its cache.
    pub path_cache_hits: u64,
    /// Distance rows the session recomputed after churn.
    pub rows_repaired: u64,
    /// Links churn events removed.
    pub links_failed: u64,
    /// Packets the packet-level simulator put on a link.
    pub packets_transmitted: u64,
    /// Packets the simulator dropped at a full queue.
    pub packet_drops: u64,
}

/// One pass over a workload's fixed op sequence: every batch of a run
/// performs the same ops in the same order on the same inputs.
pub struct Batch {
    /// Seconds per op, in op order.
    pub latencies: Vec<f64>,
    /// Ops that returned an error or an implausible result.
    pub failed: u64,
    /// Whether every output matched its reference, where the workload has
    /// one.
    pub matched: bool,
    /// Digest of every output of the batch; all batches must agree.
    pub digest: u64,
    /// Work the batch did.
    pub counts: Counts,
}

/// What one workload run measured.
pub struct Run {
    /// Seconds per set-up repetition.
    setup: Vec<f64>,
    /// Busy time per layer, per set-up repetition.
    setup_busy: Vec<[Duration; LAYERS]>,
    batches: Vec<Batch>,
    /// Busy time per layer, per batch.
    batch_busy: Vec<[Duration; LAYERS]>,
}

/// A workload: inputs made from the seed, a resident state built in
/// set-up, and a batch of ops run against that state.
pub trait Workload {
    /// What set-up builds and a batch runs against.
    type State;
    /// Builds the state; timed as `setup_s`.
    fn setup(&self, trace: &mut Trace) -> Self::State;
    /// Runs one batch against a freshly set-up state.
    fn batch(&self, state: Self::State, trace: &mut Trace) -> Batch;
}

/// Sets up and runs one batch, again and again, until `budget` is spent
/// (and at least [`MIN_BATCHES`] times). Before each batch, set-up repeats
/// for [`SETUP_ROUND`] (at least once) and the batch runs against the last
/// state. Set-up repetitions are spread over the run like the batches, so
/// both meet the same spells of load from elsewhere on the machine.
fn measure<W: Workload>(workload: &W, budget: Duration, trace: &mut Trace) -> Run {
    let mut run = Run { setup: vec![], setup_busy: vec![], batches: vec![], batch_busy: vec![] };
    let start = Instant::now();
    while run.batches.len() < MIN_BATCHES || start.elapsed() < budget {
        let round = Instant::now();
        let state = loop {
            let t = Instant::now();
            let state = workload.setup(trace);
            run.setup.push(t.elapsed().as_secs_f64());
            run.setup_busy.push(trace.take());
            if round.elapsed() >= SETUP_ROUND {
                break state;
            }
        };
        run.batches.push(workload.batch(state, trace));
        run.batch_busy.push(trace.take());
    }
    run
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).ok_or_else(|| format!("{} needs a value", argv[i]))?;
        let number = || value.parse::<u64>().map_err(|_| format!("bad {} '{value}'", argv[i]));
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got '{value}'")),
                });
            }
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|&s| s > 0).ok_or("--seconds must be a positive integer")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Nearest-rank quantile of a non-empty slice.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn least(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Milliseconds `layer` was busy: the least over set-up repetitions or
/// over batches.
fn layer_ms(busy: &[[Duration; LAYERS]], layer: Layer) -> f64 {
    least(&busy.iter().map(|b| b[layer as usize].as_secs_f64() * 1e3).collect::<Vec<_>>())
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(1);
}

fn main() {
    let args = parse_args().unwrap_or_else(|msg| {
        eprintln!("perfbench: {msg}");
        std::process::exit(2);
    });
    let mut trace = Trace { enabled: args.trace, busy: [Duration::ZERO; LAYERS] };
    let budget = Duration::from_secs(args.seconds);
    let run = match args.workload.as_str() {
        "failure_sweep" => {
            measure(&failure_sweep::FailureSweep::new(args.seed), budget, &mut trace)
        }
        "churn_repair" => measure(&churn_repair::ChurnRepair::new(args.seed), budget, &mut trace),
        "impaired_sweep" => {
            measure(&impaired_sweep::ImpairedSweep::new(args.seed), budget, &mut trace)
        }
        other => {
            eprintln!(
                "perfbench: unknown workload '{other}' (valid: failure_sweep, churn_repair, impaired_sweep)"
            );
            std::process::exit(2);
        }
    };

    let first = &run.batches[0];
    let ops = first.latencies.len();
    if ops == 0 {
        fail("a batch holds no op");
    }
    if run.batches.iter().any(|b| b.latencies.len() != ops) {
        fail("batches ran different numbers of ops");
    }
    let agree = run.batches.iter().all(|b| b.digest == first.digest && b.counts == first.counts);
    if !agree {
        eprintln!("perfbench: batches disagree on their outputs");
    }
    let correct = agree && run.batches.iter().all(|b| b.matched && b.failed == 0);
    let attempted = (ops * run.batches.len()) as u64;
    let failed: u64 = run.batches.iter().map(|b| b.failed).sum();

    // Load from elsewhere on the machine only ever adds time and comes in
    // spells of seconds, so an op's latency is its least over the batches,
    // and set-up time the least of its repetitions: the steadiest estimates
    // of their own cost. The percentiles are taken over the ops of one batch.
    let per_op: Vec<f64> = (0..ops)
        .map(|i| least(&run.batches.iter().map(|b| b.latencies[i]).collect::<Vec<_>>()))
        .collect();
    let busy: f64 = per_op.iter().sum();
    eprintln!(
        "perfbench: {} batches of {ops} ops, {busy:.3}s busy per batch; set-up s least {:.6} \
         median {:.6}; op latency ms {}",
        run.batches.len(),
        least(&run.setup),
        median(&run.setup),
        [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
            .map(|q| format!("p{}={:.4}", q * 100.0, quantile(&per_op, q) * 1e3))
            .join(" ")
    );

    let c = first.counts;
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        vec![
            ("setup_topology_ms", layer_ms(&run.setup_busy, Layer::Topology), "ms"),
            ("setup_routing_ms", layer_ms(&run.setup_busy, Layer::Routing), "ms"),
            ("churn_ms", layer_ms(&run.batch_busy, Layer::Churn), "ms"),
            ("query_ms", layer_ms(&run.batch_busy, Layer::Query), "ms"),
            ("path_cache_hits", c.path_cache_hits as f64, "count"),
            ("rows_repaired", c.rows_repaired as f64, "count"),
            ("links_failed", c.links_failed as f64, "count"),
            ("packets_transmitted", c.packets_transmitted as f64, "count"),
            ("packet_drops", c.packet_drops as f64, "count"),
        ]
    } else {
        vec![
            ("latency_p50_ms", quantile(&per_op, 0.5) * 1e3, "ms"),
            ("latency_p90_ms", quantile(&per_op, 0.9) * 1e3, "ms"),
            ("throughput_ops_s", ops as f64 / busy, "1/s"),
            ("setup_s", least(&run.setup), "s"),
        ]
    };
    if metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        fail("a metric is not finite");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
}

/// FNV-1a, folded over output bytes: enough to compare outputs across
/// batches without holding them in memory.
pub fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// FNV-1a offset basis, the digest of no bytes.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;
