//! `figures` — regenerate the data behind every figure and table of the
//! Jellyfish paper through the experiment registry, and build arbitrary
//! topologies through the `TopoSpec` generator registry.
//!
//! Usage:
//!
//! ```text
//! figures list
//! figures run <experiment|all> [--scale tiny|laptop|paper] [--seed N]
//!                              [--topo <spec>] [--traffic <spec>] [--json]
//! figures run <experiment|all> --shard K/N [--plan <timings.json>]
//!                              [--scale ...] [--seed N] [--topo <spec>]
//!                              [--traffic <spec>]
//! figures launch <experiment|all> --jobs N [--plan <timings.json>]
//!                              [--hosts <file>] [--run-dir <dir>]
//!                              [--timeout-secs N] [--scale ...] [--seed N]
//!                              [--topo <spec>] [--traffic <spec>] [--json]
//! figures merge <file...> [--json]
//! figures serve [--topo <spec>] [--seed N] [--traffic <spec>] [--oracle]
//!               [--tcp ADDR]
//! figures topo list
//! figures topo show <spec>
//! figures topo build <spec> [--seed N]
//! figures traffic list
//! figures traffic show <spec>
//! figures <experiment|all> [...]      # shorthand for `figures run`
//! ```
//!
//! `figures list` prints every registered experiment (see EXPERIMENTS.md for
//! the per-experiment schema). `figures run` evaluates experiments and
//! prints one TSV block per experiment (or one JSON line with `--json`);
//! `run all` evaluates every experiment except `fig12`, which duplicates
//! `fig11`'s sweep byte-for-byte.
//! With `--shard K/N` it evaluates only the K-th of N slices of each
//! experiment's work items and prints one shard-fragment JSON line per
//! experiment (with per-item wall-clock timings); `figures merge` recombines
//! fragment files from all N shards and prints byte-for-byte what the
//! unsharded `figures run` would have. By default shards stripe the work
//! items; with `--plan <timings.json>` (a prior launch's timing file) they
//! LPT-bin-pack by measured cost instead, falling back to striping when the
//! file has no matching timings.
//!
//! `figures launch` is the one-command distributed driver: it spawns the N
//! shard workers itself (locally, or through `--hosts` command templates),
//! streams their fragments into `--run-dir`, retries each failed worker
//! once (after an exponential backoff; with `--timeout-secs N` a worker
//! still running after N seconds is killed and counts as failed), merges,
//! and writes the run's own `timings.json` — see the "Distributed runs"
//! section of EXPERIMENTS.md.
//!
//! `figures serve` is the live-topology daemon (see SERVE.md): it holds a
//! resident topology, applies churn events and answers dist/path/
//! throughput/bisection queries over line-delimited JSON on stdin/stdout
//! (or a TCP socket with `--tcp`), repairing routing state incrementally;
//! `--oracle` forces the full-rebuild reference mode, whose replies are
//! byte-identical.
//!
//! `--topo <spec>` redirects the topology-generic experiments
//! (`throughput_vs_size`, `path_length`, `bisection`, `failure_sweep`) at
//! any registered topology spec; `figures topo list` names the generators
//! and transforms and TOPOLOGIES.md documents the grammar. `--traffic <spec>`
//! does the same for the workload axis of the traffic-capable experiments
//! (`throughput_vs_size`, `failure_sweep`, `throughput_vs_workload`,
//! `fairness_under_skew`, `incast_degradation`); `figures traffic list`
//! names the workload generators and TRAFFIC.md documents the grammar.
//!
//! Every subcommand reads its arguments through one grammar
//! ([`jellyfish_bench::cli`]): [`Args::split`] sorts them into positionals,
//! `--flag value` pairs and bare switches against the subcommand's table of
//! flags below, in any order, a repeated flag keeping its last value; and
//! [`run_spec`] reads `--scale`/`--seed`/`--topo`/`--traffic` into the one
//! [`RunSpec`] that `run`, `launch` and `serve` share. Unknown options,
//! experiment names, scales, seeds, specs and shard specs are hard errors
//! (exit code 2) listing the valid choices — never silent fallbacks. Every
//! failure is a typed [`CliError`] so all subcommands report them
//! identically.

use jellyfish::experiment::{
    self, Experiment, RunCtx, RunSpec, Shard, ShardFragment, TimingFile, WorkPlan,
};
use jellyfish::service::wire::{self, LineOutcome, Request};
use jellyfish::service::Session;
use jellyfish_bench::cli::{run_spec, Args, CliError, Flags};
use jellyfish_bench::launch::{self, LaunchConfig};
use jellyfish_bench::merge::{experiment_names, merge_fragments, read_fragments, render_merged};
use jellyfish_bench::{render_run, render_run_json};
use jellyfish_sim::net::LinkParams;
use jellyfish_topology::properties::path_length_stats;
use jellyfish_topology::spec::{self, TopoSpec};
use jellyfish_traffic::{ServerMap, TrafficSpec};
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

const USAGE: &str = "usage: figures <command> [options]

commands:
  list                      list the registered experiments
  run <experiment|all>      evaluate experiments and print their datasets
  launch <experiment|all>   spawn N shard workers, merge their fragments
  merge <file...>           merge `run --shard` fragment files
  serve                     hold a resident topology, apply churn events and
                            answer dist/path/throughput/bisection queries
                            over line-delimited JSON (see SERVE.md)
  topo list                 list the registered topology generators/transforms
  topo show <spec>          parse a topology spec and print its structure
  topo build <spec>         build a topology spec and print its properties
  traffic list              list the registered workload generators/transforms
  traffic show <spec>       parse a traffic spec and print its structure

run options:
  --scale tiny|laptop|paper   instance-size preset (default: laptop)
  --seed N                    base seed (default: 2012)
  --topo <spec>               topology override for the generic experiments
                              (throughput_vs_size, path_length, bisection,
                              failure_sweep); see TOPOLOGIES.md
  --traffic <spec>            workload override for the traffic-capable
                              experiments (throughput_vs_size, failure_sweep,
                              throughput_vs_workload, fairness_under_skew,
                              incast_degradation); see TRAFFIC.md
  --shard K/N                 run only the K-th of N slices of the work
                              items and print mergeable JSON fragments
  --plan <timings.json>       with --shard: partition by a prior run's
                              per-item timings (LPT bin-packing) instead of
                              striping; falls back to striping when the file
                              has no matching timings
  --json                      print JSON instead of TSV (non-shard runs)

launch options (plus --scale, --seed, --topo, --traffic, --plan, --json as
above):
  --jobs N                    number of worker processes / shards (required;
                              clamped to the largest work-item count among
                              the selected experiments)
  --hosts <file>              worker command templates, one per line
                              ('{}' is replaced by the quoted worker
                              command, e.g. 'ssh build-01 {}'); default is
                              local re-exec of this binary
  --run-dir <dir>             where fragments, worker logs, timings.json and
                              the merged output land
                              (default: figures-runs/<name>-<scale>-<seed>)
  --timeout-secs N            per-worker wall-clock deadline: an attempt
                              still running after N seconds is killed and
                              counts as failed (then retried once, like any
                              other failure); default is no deadline

merge options:
  --json                      print JSON instead of TSV

serve options:
  --topo <spec>               resident topology (default:
                              jellyfish:switches=20,ports=8,degree=5)
  --seed N                    session seed for churn sampling and the
                              default traffic matrix (default: 2012)
  --traffic <spec>            workload for throughput queries (default: a
                              seeded random permutation)
  --oracle                    full-rebuild reference mode (byte-identical
                              replies, no incremental repair)
  --tcp ADDR                  listen on a TCP address (e.g. 127.0.0.1:9090)
                              instead of stdin/stdout

topo build options:
  --seed N                    build seed (default: 2012)";

/// `run`: the experiment, the run flags and the shard options.
const RUN: Flags = Flags {
    values: &["--scale", "--seed", "--topo", "--traffic", "--shard", "--plan"],
    switches: &["--json"],
    positionals: 1,
};

/// `launch`: `run`'s flags and the launcher's own. `--shard` is listed only
/// to be refused by name, since the launcher assigns the shards.
const LAUNCH: Flags = Flags {
    values: &[
        "--scale",
        "--seed",
        "--topo",
        "--traffic",
        "--shard",
        "--plan",
        "--jobs",
        "--hosts",
        "--run-dir",
        "--timeout-secs",
    ],
    switches: &["--json"],
    positionals: 1,
};

/// `merge`: any number of fragment files.
const MERGE: Flags = Flags { values: &[], switches: &["--json"], positionals: usize::MAX };

/// `serve`: a session has a seed and the overrides, but no scale.
const SERVE: Flags = Flags {
    values: &["--seed", "--topo", "--traffic", "--tcp"],
    switches: &["--oracle"],
    positionals: 0,
};

/// `topo show` and `topo build`: a spec and its build seed.
const TOPO_SPEC: Flags = Flags { values: &["--seed"], switches: &[], positionals: 1 };

/// `list`, `topo list`, `traffic list` and `traffic show`, which word their
/// own arity errors.
const NO_FLAGS: Flags = Flags { values: &[], switches: &[], positionals: usize::MAX };

/// The resident topology of a `serve` without `--topo`.
const DEFAULT_SERVE_TOPO: &str = "jellyfish:switches=20,ports=8,degree=5";

/// The experiment name `run` and `launch` take as their one positional.
fn experiment_name<'a>(command: &str, args: &'a Args) -> Result<&'a str, CliError> {
    args.positionals.first().map(String::as_str).ok_or_else(|| {
        CliError::Invalid(format!(
            "{command} needs an experiment name: valid experiments are {}",
            experiment_names()
        ))
    })
}

/// Loads a `--plan` timing file and checks it measured the same run, seed
/// aside. An unreadable or unparsable file is a hard error (the flag was
/// explicit); a file from a run with another scale, `--topo` or `--traffic`
/// is merely useless for balancing this one, so workers note it and stripe
/// instead.
fn load_plan(plan: Option<&str>, run: &RunSpec) -> Result<Option<TimingFile>, CliError> {
    let Some(path) = plan else { return Ok(None) };
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Invalid(format!("cannot read --plan '{path}': {e}")))?;
    let tf = TimingFile::from_json(&text)
        .map_err(|e| CliError::Invalid(format!("--plan '{path}' is not a timing file: {e}")))?;
    if tf.run != (RunSpec { seed: tf.run.seed, ..run.clone() }) {
        eprintln!(
            "figures: note: --plan '{path}' measured the run '{}'; this run is '{run}', \
             so shards fall back to striping",
            tf.run
        );
        return Ok(None);
    }
    Ok(Some(tf))
}

fn resolve_experiments(name: &str) -> Result<Vec<&'static dyn Experiment>, CliError> {
    if name == "all" {
        // fig12 reruns fig11's sweep byte-for-byte (the paper presents the
        // same data twice), so `all` evaluates it once under the fig11 name;
        // `figures run fig12` still works on its own.
        return Ok(experiment::registry()
            .iter()
            .copied()
            .filter(|e| e.name() != "fig12")
            .collect());
    }
    experiment::find(name)
        .map(|e| vec![e])
        .ok_or_else(|| CliError::unknown("experiment", name, experiment_names()))
}

/// `list`, `topo list` and `traffic list` take no arguments.
fn no_arguments(command: &str, args: &[String]) -> Result<(), CliError> {
    match Args::split(args, &NO_FLAGS)?.positionals.first() {
        Some(extra) => {
            Err(CliError::Usage(format!("{command} takes no arguments (got '{extra}')")))
        }
        None => Ok(()),
    }
}

fn cmd_list(args: &[String]) -> Result<(), CliError> {
    no_arguments("list", args)?;
    for exp in experiment::registry() {
        let topo = if exp.supports_topo_override() { " [--topo]" } else { "" };
        let traffic = if exp.supports_traffic_override() { " [--traffic]" } else { "" };
        println!("{}\t{}{topo}{traffic}", exp.name(), exp.describe());
    }
    Ok(())
}

/// Rejects `flag` unless every selected experiment takes it (`supports`),
/// naming the experiments that do.
fn check_override_support(
    experiments: &[&'static dyn Experiment],
    flag: &str,
    supports: fn(&dyn Experiment) -> bool,
    why: &str,
) -> Result<(), CliError> {
    let Some(fixed) = experiments.iter().find(|e| !supports(**e)) else { return Ok(()) };
    let capable: Vec<&str> =
        experiment::registry().iter().filter(|e| supports(**e)).map(|e| e.name()).collect();
    Err(CliError::Invalid(format!(
        "'{}' does not take {flag} ({why}); {flag} works with {}",
        fixed.name(),
        capable.join(", ")
    )))
}

/// Checks the `--topo` and `--traffic` overrides before any work item runs:
/// every selected experiment must take them, the topology spec must build,
/// and the workload must generate on the first work item's topology. A spec
/// can parse yet not build (odd fat-tree k, an infeasible degree, incast
/// fanin above the server count), so probing here turns a worker panic into
/// a clean exit-2 error.
fn check_overrides(experiments: &[&'static dyn Experiment], run: &RunSpec) -> Result<(), CliError> {
    if let Some(spec) = &run.topo {
        check_override_support(
            experiments,
            "--topo",
            |e| e.supports_topo_override(),
            "its topology pairing is the experiment",
        )?;
        spec.build(run.seed)
            .map_err(|e| CliError::Invalid(format!("--topo '{spec}' does not build: {e}")))?;
    }
    if let Some(tspec) = &run.traffic {
        check_override_support(
            experiments,
            "--traffic",
            |e| e.supports_traffic_override(),
            "its workload is the experiment",
        )?;
        let ctx = RunCtx::new(run.clone());
        let items = experiments.first().map(|exp| exp.work_items(&ctx)).unwrap_or_default();
        if let Some(item) = items.first() {
            let snap = ctx
                .spec_snapshot(item.spec(), run.seed)
                .map_err(|e| CliError::Invalid(format!("cannot build '{}': {e}", item.spec())))?;
            tspec.stream(&ServerMap::new(&snap.topology), run.seed).map_err(|e| {
                CliError::Invalid(format!("--traffic '{tspec}' does not build: {e}"))
            })?;
        }
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let args = Args::split(args, &RUN)?;
    let name = experiment_name("run", &args)?;
    let run = run_spec(&args)?;
    let shard = args.parse("--shard", str::parse::<Shard>)?;
    let plan = args.value("--plan");
    let json = args.switch("--json");
    if shard.is_some() && json {
        return Err(CliError::Invalid("--shard output is always JSON; drop --json".to_string()));
    }
    if plan.is_some() && shard.is_none() {
        return Err(CliError::Invalid(
            "--plan only affects sharded runs; add --shard K/N (or use launch)".to_string(),
        ));
    }
    let experiments = resolve_experiments(name)?;
    check_overrides(&experiments, &run)?;
    let plan = load_plan(plan, &run)?;
    for exp in experiments {
        let ctx = RunCtx::new(run.clone());
        match shard {
            Some(shard) => {
                let num_items = exp.work_items(&ctx).len();
                let timings = plan.as_ref().and_then(|tf| tf.get(exp.name()));
                let work_plan = WorkPlan::plan(num_items, shard.count, timings);
                let timed = exp.run_selected_timed(&ctx, &|i| work_plan.owns(shard, i));
                let fragment = ShardFragment {
                    experiment: exp.name().to_string(),
                    run: ctx.run.clone(),
                    shard,
                    timings_us: timed.timings_us,
                    items: timed.items,
                };
                println!("{}", fragment.to_json());
            }
            None => {
                let render = if json { render_run_json } else { render_run };
                print!("{}", render(exp.name(), &ctx.run, &exp.run(&ctx)));
            }
        }
    }
    Ok(())
}

fn cmd_merge(args: &[String]) -> Result<(), CliError> {
    let args = Args::split(args, &MERGE)?;
    if args.positionals.is_empty() {
        return Err(CliError::Invalid("merge needs at least one fragment file".to_string()));
    }
    let mut fragments = Vec::new();
    for file in &args.positionals {
        fragments.extend(read_fragments(Path::new(file))?);
    }
    // Validate every group before printing anything, then print per
    // experiment in canonical registry order — the same order `figures run
    // all` evaluates in (jellyfish_bench::merge shares this path with the
    // launcher).
    let merged = merge_fragments(&fragments)?;
    print!("{}", render_merged(&merged, args.switch("--json")));
    Ok(())
}

// ------------------------------------------------------------------ serve

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let args = Args::split(args, &SERVE)?;
    let RunSpec { seed, topo, traffic, .. } = run_spec(&args)?;
    let spec =
        topo.unwrap_or_else(|| DEFAULT_SERVE_TOPO.parse().expect("the default serve spec parses"));
    let oracle = args.switch("--oracle");
    let topo = spec
        .build(seed)
        .map_err(|e| CliError::Invalid(format!("--topo '{spec}' does not build: {e}")))?;
    if let Some(tspec) = &traffic {
        // Probe the workload once so a spec that cannot generate on this
        // topology is an exit-2 error, not a panic mid-session.
        tspec
            .stream(&ServerMap::new(&topo), seed)
            .map_err(|e| CliError::Invalid(format!("--traffic '{tspec}' does not build: {e}")))?;
    }
    let mut session = if oracle { Session::oracle(topo, seed) } else { Session::new(topo, seed) }
        .with_traffic(traffic);
    eprintln!(
        "figures: serving {spec} (seed {seed}, {} switches, {} links{})",
        session.topology().num_switches(),
        session.topology().num_links(),
        if oracle { ", oracle mode" } else { "" }
    );
    match args.value("--tcp") {
        None => serve_lines(&mut session, std::io::stdin().lock(), std::io::stdout().lock())
            .map(|_shutdown| ()),
        Some(addr) => serve_tcp(&mut session, addr),
    }
}

fn io_err(what: &str, e: std::io::Error) -> CliError {
    CliError::Invalid(format!("{what}: {e}"))
}

/// Answers one client's request lines, one flushed reply line each, until
/// EOF or a `shutdown` op; blank lines are skipped, and a line over
/// `wire::MAX_REQUEST_BYTES` is answered with an error and skipped unread.
/// Returns whether a `shutdown` ended it. Serving stdin/stdout and each TCP
/// connection both run this loop.
fn serve_lines(
    session: &mut Session,
    mut requests: impl BufRead,
    mut replies: impl Write,
) -> Result<bool, CliError> {
    while let Some(request) = wire::read_request(&mut requests, wire::MAX_REQUEST_BYTES)
        .map_err(|e| io_err("cannot read request", e))?
    {
        let outcome = match request {
            Request::Line(line) if line.trim().is_empty() => continue,
            Request::Line(line) => wire::handle_line(session, &line),
            Request::TooLong => wire::too_long_reply(),
            Request::NotUtf8 => wire::not_utf8_reply(),
        };
        writeln!(replies, "{}", outcome.text())
            .and_then(|()| replies.flush())
            .map_err(|e| io_err("cannot write reply", e))?;
        if matches!(outcome, LineOutcome::Shutdown(_)) {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Serves connections one at a time on `addr`; the resident session (and
/// its incremental routing state) persists across connections. A client
/// `shutdown` op stops the whole daemon.
fn serve_tcp(session: &mut Session, addr: &str) -> Result<(), CliError> {
    let listener = std::net::TcpListener::bind(addr)
        .map_err(|e| CliError::Invalid(format!("cannot listen on '{addr}': {e}")))?;
    let local = listener.local_addr().map_err(|e| io_err("cannot resolve listen address", e))?;
    eprintln!("figures: listening on {local}");
    for conn in listener.incoming() {
        let stream = conn.map_err(|e| io_err("accept failed", e))?;
        let replies = stream.try_clone().map_err(|e| io_err("cannot clone connection", e))?;
        // A dropped client is normal churn for a daemon, not an error.
        if let Ok(true) = serve_lines(session, std::io::BufReader::new(stream), replies) {
            break;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- launch

fn cmd_launch(args: &[String]) -> Result<(), CliError> {
    let args = Args::split(args, &LAUNCH)?;
    let name = experiment_name("launch", &args)?;
    let experiments = resolve_experiments(name)?;
    if args.value("--shard").is_some() {
        return Err(CliError::Invalid(
            "launch assigns the shards itself; use --jobs N instead of --shard".to_string(),
        ));
    }
    let jobs = args.parse("--jobs", |raw| positive::<usize>("--jobs", raw))?;
    let timeout = args.parse("--timeout-secs", |raw| positive("--timeout-secs", raw))?;
    let Some(jobs) = jobs else {
        return Err(CliError::Invalid(
            "launch needs --jobs N (the number of worker processes)".to_string(),
        ));
    };
    let run = run_spec(&args)?;
    check_overrides(&experiments, &run)?;
    // A shard past every work item owns nothing, and the merged bytes do
    // not depend on the shard count, so workers beyond the largest
    // experiment's item count would only idle (or, for a huge N, exhaust
    // the host's processes).
    let ctx = RunCtx::new(run.clone());
    let most_items = experiments.iter().map(|e| e.work_items(&ctx).len()).max().unwrap_or(0);
    let jobs = jobs.min(most_items).max(1);
    // Surface an unreadable/unparsable --plan here, before any worker spawns
    // (the workers re-validate it themselves).
    let plan = args.value("--plan");
    load_plan(plan, &run)?;
    let hosts = match args.value("--hosts") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Invalid(format!("cannot read --hosts '{path}': {e}")))?;
            let hosts = launch::parse_hosts_file(&text);
            if hosts.is_empty() {
                return Err(CliError::Invalid(format!(
                    "--hosts '{path}' has no command templates"
                )));
            }
            hosts
        }
        None => Vec::new(),
    };
    let run_dir = args.value("--run-dir").map_or_else(
        || PathBuf::from(format!("figures-runs/{name}-{}-{}", run.scale, run.seed)),
        PathBuf::from,
    );
    let cfg = LaunchConfig {
        name: name.to_string(),
        jobs,
        run,
        plan: plan.map(PathBuf::from),
        hosts,
        run_dir,
        timeout: timeout.map(Duration::from_secs),
        json: args.switch("--json"),
    };
    print!("{}", launch::launch(&cfg)?);
    Ok(())
}

/// Reads the value of a count flag (`--jobs`, `--timeout-secs`), which must
/// be at least 1.
fn positive<T: FromStr + PartialEq + From<u8>>(flag: &str, raw: &str) -> Result<T, String> {
    match raw.parse() {
        Err(_) => Err(format!("unparsable {flag} '{raw}': expected a positive integer")),
        Ok(n) if n == T::from(0) => Err(format!("{flag} must be at least 1")),
        Ok(n) => Ok(n),
    }
}

// ------------------------------------------------------------------ topo

fn cmd_topo_list(args: &[String]) -> Result<(), CliError> {
    no_arguments("topo list", args)?;
    println!("generators:");
    for g in spec::generators() {
        println!("  {}\t{}\te.g. {}", g.name(), g.describe(), g.example());
    }
    println!("transforms (chain with '+'):");
    println!("  {}", spec::transform_grammar());
    Ok(())
}

/// The spec and build seed `topo show` and `topo build` take.
fn parse_spec_arg(args: &[String]) -> Result<(TopoSpec, u64), CliError> {
    let args = Args::split(args, &TOPO_SPEC)?;
    let Some(raw) = args.positionals.first() else {
        return Err(CliError::Invalid(
            "expected a topology spec (try `figures topo list`)".to_string(),
        ));
    };
    let spec: TopoSpec = raw.parse().map_err(|e| CliError::Invalid(format!("{e}")))?;
    Ok((spec, run_spec(&args)?.seed))
}

fn cmd_topo_show(args: &[String]) -> Result<(), CliError> {
    let (spec, _) = parse_spec_arg(args)?;
    let generator = spec.resolve().map_err(|e| CliError::Invalid(format!("{e}")))?;
    println!("spec\t{spec}");
    println!("generator\t{}\t{}", generator.name(), generator.describe());
    for (k, v) in spec.params().pairs() {
        println!("param\t{k}\t{v}");
    }
    for t in spec.transforms() {
        println!("transform\t{t}");
    }
    // The simulator's per-link baseline, so a run's provenance is readable
    // off the spec alone: every link starts from these defaults, and the
    // `impair` line (the field-wise merge of the spec's `+impair=` chain)
    // shows what the wire layer does on top — including any `queue:` buffer
    // override.
    let link = LinkParams::default();
    println!("link\trate\t{}", link.rate);
    println!("link\tdelay\t{}", link.delay);
    println!("link\tbuffer\t{}", link.buffer);
    if let Some(cfg) = spec.impairment() {
        println!("impair\t{cfg}");
    }
    Ok(())
}

fn cmd_topo_build(args: &[String]) -> Result<(), CliError> {
    let (spec, seed) = parse_spec_arg(args)?;
    let topo = spec.build(seed).map_err(|e| CliError::Invalid(format!("{e}")))?;
    let stats = path_length_stats(&topo.csr());
    println!("spec\t{spec}");
    println!("seed\t{seed}");
    println!("name\t{}", topo.name());
    println!("switches\t{}", topo.num_switches());
    println!("links\t{}", topo.num_links());
    println!("servers\t{}", topo.total_servers());
    println!("total_ports\t{}", topo.total_ports());
    println!("connected\t{}", topo.graph().is_connected());
    println!("mean_path_length\t{}", stats.mean);
    println!("diameter\t{}", stats.diameter);
    Ok(())
}

// --------------------------------------------------------------- traffic

fn cmd_traffic_list(args: &[String]) -> Result<(), CliError> {
    no_arguments("traffic list", args)?;
    println!("generators:");
    for g in jellyfish_traffic::generators() {
        println!("  {}\t{}\te.g. {}", g.name(), g.describe(), g.example());
    }
    println!("transforms (chain with '+'):");
    println!("  {}", jellyfish_traffic::transform_grammar());
    Ok(())
}

fn cmd_traffic_show(args: &[String]) -> Result<(), CliError> {
    let args = Args::split(args, &NO_FLAGS)?;
    let Some(raw) = args.positionals.first() else {
        return Err(CliError::Invalid(
            "expected a traffic spec (try `figures traffic list`)".to_string(),
        ));
    };
    if let Some(extra) = args.positionals.get(1) {
        return Err(CliError::Usage(format!("traffic show takes one spec (got '{extra}')")));
    }
    let spec: TrafficSpec = raw.parse().map_err(|e| CliError::Invalid(format!("{e}")))?;
    spec.validate().map_err(|e| CliError::Invalid(format!("{e}")))?;
    let generator = jellyfish_traffic::find_generator(spec.generator())
        .expect("a parsed spec names a registered generator");
    println!("spec\t{spec}");
    println!("generator\t{}\t{}", generator.name(), generator.describe());
    for (k, v) in spec.params().pairs() {
        println!("param\t{k}\t{v}");
    }
    for t in spec.transforms() {
        println!("transform\t{t}");
    }
    println!("epochs\t{}", spec.epochs());
    println!("demand_scale\t{}", spec.demand_scale());
    Ok(())
}

fn cmd_traffic(args: &[String]) -> Result<(), CliError> {
    let Some(sub) = args.first() else {
        return Err(CliError::Usage("traffic needs a subcommand: list, show".to_string()));
    };
    match sub.as_str() {
        "list" => cmd_traffic_list(&args[1..]),
        "show" => cmd_traffic_show(&args[1..]),
        other => Err(CliError::unknown("traffic subcommand", other, "list, show")),
    }
}

fn cmd_topo(args: &[String]) -> Result<(), CliError> {
    let Some(sub) = args.first() else {
        return Err(CliError::Usage("topo needs a subcommand: list, show, build".to_string()));
    };
    match sub.as_str() {
        "list" => cmd_topo_list(&args[1..]),
        "show" => cmd_topo_show(&args[1..]),
        "build" => cmd_topo_build(&args[1..]),
        other => Err(CliError::unknown("topo subcommand", other, "list, show, build")),
    }
}

fn dispatch(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage("missing command".to_string()));
    };
    let rest = &args[1..];
    match command.as_str() {
        "list" => cmd_list(rest),
        "run" => cmd_run(rest),
        "launch" => cmd_launch(rest),
        "merge" => cmd_merge(rest),
        "serve" => cmd_serve(rest),
        "topo" => cmd_topo(rest),
        "traffic" => cmd_traffic(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        // Shorthand: `figures fig3 --scale tiny` == `figures run fig3 ...`.
        _ => cmd_run(args),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("figures: {e}");
            if e.wants_usage() {
                eprintln!("\n{USAGE}");
            }
            ExitCode::from(e.exit_code())
        }
    }
}
