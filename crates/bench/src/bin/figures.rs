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
//! figures lint [--json] [paths...]
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
//! `figures lint` runs the workspace determinism linter (the `detlint`
//! crate — see LINTS.md) over the given paths (default `crates/`): static
//! enforcement of the byte-identical-output contract behind every
//! shard/launch/merge equality above. Exit 1 on findings, with exact
//! `file:line:col` diagnostics.
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
//! Unknown experiment names, scales, seeds, specs and shard specs are hard
//! errors (exit code 2) listing the valid choices — never silent fallbacks.
//! Every failure is a typed [`CliError`] so all subcommands report them
//! identically.

use jellyfish::experiment::{
    self, Experiment, RunCtx, RunSpec, Shard, ShardFragment, TimingFile, WorkPlan,
};
use jellyfish::figures::Scale;
use jellyfish::service::wire::{self, LineOutcome};
use jellyfish::service::Session;
use jellyfish_bench::cli::CliError;
use jellyfish_bench::launch::{self, LaunchConfig};
use jellyfish_bench::merge::{experiment_names, merge_fragments, render_merged};
use jellyfish_bench::{render_run, render_run_json};
use jellyfish_sim::net::LinkParams;
use jellyfish_topology::properties::path_length_stats;
use jellyfish_topology::spec::{self, TopoSpec};
use jellyfish_traffic::{ServerMap, TrafficSpec};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::process::ExitCode;
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
  lint [paths...]           run the determinism linter (detlint) over the
                            given files/directories (default: crates/);
                            see LINTS.md for the rules and pragma grammar
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
  --jobs N                    number of worker processes / shards (required)
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

lint options:
  --json                      print one machine-readable JSON object
  --list-rules                print the rule registry and exit

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

/// Parsed `run` options, every flag validated (no silent fallbacks).
struct RunOptions {
    run: RunSpec,
    shard: Option<Shard>,
    plan: Option<String>,
    json: bool,
}

fn flag_value<'a>(args: &'a [String], i: usize, name: &str) -> Result<&'a str, CliError> {
    args.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| CliError::Invalid(format!("{name} needs a value")))
}

fn parse_run_options(args: &[String]) -> Result<RunOptions, CliError> {
    let mut opts =
        RunOptions { run: RunSpec::new(Scale::Laptop, 2012), shard: None, plan: None, json: false };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                opts.run.scale = flag_value(args, i, "--scale")?
                    .parse()
                    .map_err(|e| CliError::Invalid(format!("{e}")))?;
                i += 2;
            }
            "--seed" => {
                let raw = flag_value(args, i, "--seed")?;
                opts.run.seed = parse_seed(raw)?;
                i += 2;
            }
            "--topo" => {
                let raw = flag_value(args, i, "--topo")?;
                opts.run.topo = Some(
                    raw.parse()
                        .map_err(|e| CliError::Invalid(format!("unparsable --topo: {e}")))?,
                );
                i += 2;
            }
            "--traffic" => {
                let raw = flag_value(args, i, "--traffic")?;
                opts.run.traffic = Some(
                    raw.parse()
                        .map_err(|e| CliError::Invalid(format!("unparsable --traffic: {e}")))?,
                );
                i += 2;
            }
            "--shard" => {
                opts.shard = Some(flag_value(args, i, "--shard")?.parse()?);
                i += 2;
            }
            "--plan" => {
                opts.plan = Some(flag_value(args, i, "--plan")?.to_string());
                i += 2;
            }
            "--json" => {
                opts.json = true;
                i += 1;
            }
            other => return Err(CliError::Usage(format!("unknown option '{other}'"))),
        }
    }
    if opts.shard.is_some() && opts.json {
        return Err(CliError::Invalid("--shard output is always JSON; drop --json".to_string()));
    }
    Ok(opts)
}

fn parse_seed(raw: &str) -> Result<u64, CliError> {
    raw.parse().map_err(|_| {
        CliError::Invalid(format!("unparsable --seed '{raw}': expected an unsigned integer"))
    })
}

/// Loads a `--plan` timing file and checks it measured the same run, seed
/// aside. An unreadable or unparsable file is a hard error (the flag was
/// explicit); a file from a run with another scale, `--topo` or `--traffic`
/// is merely useless for balancing this one, so workers note it and stripe
/// instead.
fn load_plan(opts: &RunOptions) -> Result<Option<TimingFile>, CliError> {
    let Some(path) = &opts.plan else { return Ok(None) };
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Invalid(format!("cannot read --plan '{path}': {e}")))?;
    let tf = TimingFile::from_json(&text)
        .map_err(|e| CliError::Invalid(format!("--plan '{path}' is not a timing file: {e}")))?;
    if tf.run != (RunSpec { seed: tf.run.seed, ..opts.run.clone() }) {
        eprintln!(
            "figures: note: --plan '{path}' measured the run '{}'; this run is '{}', \
             so shards fall back to striping",
            tf.run, opts.run
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

fn cmd_list(args: &[String]) -> Result<(), CliError> {
    if let Some(extra) = args.first() {
        return Err(CliError::Usage(format!("list takes no arguments (got '{extra}')")));
    }
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

fn cmd_run(name: &str, args: &[String]) -> Result<(), CliError> {
    let opts = parse_run_options(args)?;
    if opts.plan.is_some() && opts.shard.is_none() {
        return Err(CliError::Invalid(
            "--plan only affects sharded runs; add --shard K/N (or use launch)".to_string(),
        ));
    }
    let experiments = resolve_experiments(name)?;
    check_overrides(&experiments, &opts.run)?;
    let plan = load_plan(&opts)?;
    for exp in experiments {
        let ctx = RunCtx::new(opts.run.clone());
        match opts.shard {
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
                let render = if opts.json { render_run_json } else { render_run };
                print!("{}", render(exp.name(), &ctx.run, &exp.run(&ctx)));
            }
        }
    }
    Ok(())
}

fn cmd_merge(args: &[String]) -> Result<(), CliError> {
    let mut json = false;
    let mut files = Vec::new();
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown option '{flag}'")))
            }
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        return Err(CliError::Invalid("merge needs at least one fragment file".to_string()));
    }
    let mut fragments: Vec<ShardFragment> = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| CliError::Invalid(format!("cannot read '{file}': {e}")))?;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let frag = ShardFragment::from_json(line)
                .map_err(|e| CliError::Invalid(format!("{file}:{}: {e}", lineno + 1)))?;
            fragments.push(frag);
        }
    }
    // Validate every group before printing anything, then print per
    // experiment in canonical registry order — the same order `figures run
    // all` evaluates in (jellyfish_bench::merge shares this path with the
    // launcher).
    let merged = merge_fragments(&fragments)?;
    print!("{}", render_merged(&merged, json));
    Ok(())
}

// ------------------------------------------------------------------ serve

/// Parsed `serve` options.
struct ServeOptions {
    topo: TopoSpec,
    seed: u64,
    traffic: Option<TrafficSpec>,
    oracle: bool,
    tcp: Option<String>,
}

fn parse_serve_options(args: &[String]) -> Result<ServeOptions, CliError> {
    let mut opts = ServeOptions {
        topo: "jellyfish:switches=20,ports=8,degree=5"
            .parse()
            .expect("the default serve spec parses"),
        seed: 2012,
        traffic: None,
        oracle: false,
        tcp: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--topo" => {
                let raw = flag_value(args, i, "--topo")?;
                opts.topo = raw
                    .parse()
                    .map_err(|e| CliError::Invalid(format!("unparsable --topo: {e}")))?;
                i += 2;
            }
            "--seed" => {
                opts.seed = parse_seed(flag_value(args, i, "--seed")?)?;
                i += 2;
            }
            "--traffic" => {
                let raw = flag_value(args, i, "--traffic")?;
                opts.traffic = Some(
                    raw.parse()
                        .map_err(|e| CliError::Invalid(format!("unparsable --traffic: {e}")))?,
                );
                i += 2;
            }
            "--oracle" => {
                opts.oracle = true;
                i += 1;
            }
            "--tcp" => {
                opts.tcp = Some(flag_value(args, i, "--tcp")?.to_string());
                i += 2;
            }
            other => return Err(CliError::Usage(format!("unknown option '{other}'"))),
        }
    }
    Ok(opts)
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let opts = parse_serve_options(args)?;
    let topo = opts
        .topo
        .build(opts.seed)
        .map_err(|e| CliError::Invalid(format!("--topo '{}' does not build: {e}", opts.topo)))?;
    if let Some(tspec) = &opts.traffic {
        // Probe the workload once so a spec that cannot generate on this
        // topology is an exit-2 error, not a panic mid-session.
        tspec
            .stream(&ServerMap::new(&topo), opts.seed)
            .map_err(|e| CliError::Invalid(format!("--traffic '{tspec}' does not build: {e}")))?;
    }
    let mut session =
        if opts.oracle { Session::oracle(topo, opts.seed) } else { Session::new(topo, opts.seed) }
            .with_traffic(opts.traffic.clone());
    eprintln!(
        "figures: serving {} (seed {}, {} switches, {} links{})",
        opts.topo,
        opts.seed,
        session.topology().num_switches(),
        session.topology().num_links(),
        if opts.oracle { ", oracle mode" } else { "" }
    );
    match &opts.tcp {
        None => serve_stdio(&mut session),
        Some(addr) => serve_tcp(&mut session, addr),
    }
}

fn io_err(what: &str, e: std::io::Error) -> CliError {
    CliError::Invalid(format!("{what}: {e}"))
}

/// Serves one session over stdin/stdout until EOF or a `shutdown` op.
fn serve_stdio(session: &mut Session) -> Result<(), CliError> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| io_err("cannot read request", e))?;
        if line.trim().is_empty() {
            continue;
        }
        let outcome = wire::handle_line(session, &line);
        writeln!(out, "{}", outcome.text()).map_err(|e| io_err("cannot write reply", e))?;
        out.flush().map_err(|e| io_err("cannot write reply", e))?;
        if matches!(outcome, LineOutcome::Shutdown(_)) {
            break;
        }
    }
    Ok(())
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
        let mut writer = stream.try_clone().map_err(|e| io_err("cannot clone connection", e))?;
        let reader = std::io::BufReader::new(stream);
        let mut shutdown = false;
        for line in reader.lines() {
            // A dropped client is normal churn for a daemon, not an error.
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            let outcome = wire::handle_line(session, &line);
            if writeln!(writer, "{}", outcome.text()).and_then(|()| writer.flush()).is_err() {
                break;
            }
            if matches!(outcome, LineOutcome::Shutdown(_)) {
                shutdown = true;
                break;
            }
        }
        if shutdown {
            break;
        }
    }
    Ok(())
}

// ------------------------------------------------------------------ lint

/// `figures lint [--json] [--list-rules] [paths...]` — the determinism
/// linter, wired through the same `detlint` library the standalone binary
/// uses (`cargo run -p detlint`). Exit 0 clean, 1 findings, 2 errors.
fn cmd_lint(args: &[String]) -> Result<(), CliError> {
    let mut json = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            "--list-rules" => {
                for rule in detlint::rules::registry() {
                    println!("{}\t{}", rule.id, rule.summary);
                }
                return Ok(());
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown option '{flag}'")))
            }
            path => paths.push(PathBuf::from(path)),
        }
    }
    if paths.is_empty() {
        paths.push(PathBuf::from("crates"));
    }
    let report = detlint::lint_paths(&paths)?;
    if json {
        print!("{}", detlint::render_json(&report));
    } else {
        print!("{}", detlint::render_text(&report));
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(CliError::Findings)
    }
}

// ---------------------------------------------------------------- launch

fn cmd_launch(args: &[String]) -> Result<(), CliError> {
    let Some(name) = args.first() else {
        return Err(CliError::Invalid(format!(
            "launch needs an experiment name: valid experiments are {}",
            experiment_names()
        )));
    };
    let experiments = resolve_experiments(name)?;
    let (jobs, opts, hosts_file, run_dir, timeout) = parse_launch_options(&args[1..])?;
    check_overrides(&experiments, &opts.run)?;
    // Surface an unreadable/unparsable --plan here, before any worker spawns
    // (the workers re-validate it themselves).
    load_plan(&opts)?;
    let hosts = match &hosts_file {
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
    let run_dir = run_dir.unwrap_or_else(|| {
        PathBuf::from(format!("figures-runs/{name}-{}-{}", opts.run.scale, opts.run.seed))
    });
    let cfg = LaunchConfig {
        name: name.clone(),
        jobs,
        run: opts.run,
        plan: opts.plan.as_ref().map(PathBuf::from),
        hosts,
        run_dir,
        timeout,
        json: opts.json,
    };
    let rendered = launch::launch(&cfg)?;
    print!("{rendered}");
    Ok(())
}

/// Parses `launch` flags: the shared run flags plus `--jobs`, `--hosts`,
/// `--run-dir`, `--timeout-secs`. `--jobs` is required; `--shard` is the
/// launcher's to assign.
#[allow(clippy::type_complexity)]
fn parse_launch_options(
    args: &[String],
) -> Result<(usize, RunOptions, Option<String>, Option<PathBuf>, Option<Duration>), CliError> {
    let mut jobs: Option<usize> = None;
    let mut hosts_file: Option<String> = None;
    let mut run_dir: Option<PathBuf> = None;
    let mut timeout: Option<Duration> = None;
    let mut run_flags: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--jobs" => {
                let raw = flag_value(args, i, "--jobs")?;
                let n: usize = raw.parse().map_err(|_| {
                    CliError::Invalid(format!(
                        "unparsable --jobs '{raw}': expected a positive integer"
                    ))
                })?;
                if n == 0 {
                    return Err(CliError::Invalid("--jobs must be at least 1".to_string()));
                }
                jobs = Some(n);
                i += 2;
            }
            "--timeout-secs" => {
                let raw = flag_value(args, i, "--timeout-secs")?;
                let n: u64 = raw.parse().map_err(|_| {
                    CliError::Invalid(format!(
                        "unparsable --timeout-secs '{raw}': expected a positive integer"
                    ))
                })?;
                if n == 0 {
                    return Err(CliError::Invalid("--timeout-secs must be at least 1".to_string()));
                }
                timeout = Some(Duration::from_secs(n));
                i += 2;
            }
            "--hosts" => {
                hosts_file = Some(flag_value(args, i, "--hosts")?.to_string());
                i += 2;
            }
            "--run-dir" => {
                run_dir = Some(PathBuf::from(flag_value(args, i, "--run-dir")?));
                i += 2;
            }
            "--shard" => {
                return Err(CliError::Invalid(
                    "launch assigns the shards itself; use --jobs N instead of --shard".to_string(),
                ));
            }
            "--scale" | "--seed" | "--topo" | "--traffic" | "--plan" => {
                run_flags.push(args[i].clone());
                run_flags.push(flag_value(args, i, &args[i])?.to_string());
                i += 2;
            }
            "--json" => {
                run_flags.push(args[i].clone());
                i += 1;
            }
            other => return Err(CliError::Usage(format!("unknown option '{other}'"))),
        }
    }
    let Some(jobs) = jobs else {
        return Err(CliError::Invalid(
            "launch needs --jobs N (the number of worker processes)".to_string(),
        ));
    };
    let opts = parse_run_options(&run_flags)?;
    Ok((jobs, opts, hosts_file, run_dir, timeout))
}

// ------------------------------------------------------------------ topo

fn cmd_topo_list(args: &[String]) -> Result<(), CliError> {
    if let Some(extra) = args.first() {
        return Err(CliError::Usage(format!("topo list takes no arguments (got '{extra}')")));
    }
    println!("generators:");
    for g in spec::generators() {
        println!("  {}\t{}\te.g. {}", g.name(), g.describe(), g.example());
    }
    println!("transforms (chain with '+'):");
    println!("  {}", spec::transform_grammar());
    Ok(())
}

fn parse_spec_arg(args: &[String]) -> Result<(TopoSpec, u64), CliError> {
    let Some(raw) = args.first() else {
        return Err(CliError::Invalid(
            "expected a topology spec (try `figures topo list`)".to_string(),
        ));
    };
    let spec: TopoSpec = raw.parse().map_err(|e| CliError::Invalid(format!("{e}")))?;
    let mut seed = 2012u64;
    let rest = &args[1..];
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--seed" => {
                seed = parse_seed(flag_value(rest, i, "--seed")?)?;
                i += 2;
            }
            other => return Err(CliError::Usage(format!("unknown option '{other}'"))),
        }
    }
    Ok((spec, seed))
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
    if let Some(extra) = args.first() {
        return Err(CliError::Usage(format!("traffic list takes no arguments (got '{extra}')")));
    }
    println!("generators:");
    for g in jellyfish_traffic::generators() {
        println!("  {}\t{}\te.g. {}", g.name(), g.describe(), g.example());
    }
    println!("transforms (chain with '+'):");
    println!("  {}", jellyfish_traffic::transform_grammar());
    Ok(())
}

fn cmd_traffic_show(args: &[String]) -> Result<(), CliError> {
    let Some(raw) = args.first() else {
        return Err(CliError::Invalid(
            "expected a traffic spec (try `figures traffic list`)".to_string(),
        ));
    };
    if let Some(extra) = args.get(1) {
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
    match command.as_str() {
        "list" => cmd_list(&args[1..]),
        "run" => {
            let Some(name) = args.get(1) else {
                return Err(CliError::Invalid(format!(
                    "run needs an experiment name: valid experiments are {}",
                    experiment_names()
                )));
            };
            cmd_run(name, &args[2..])
        }
        "launch" => cmd_launch(&args[1..]),
        "merge" => cmd_merge(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "lint" => cmd_lint(&args[1..]),
        "topo" => cmd_topo(&args[1..]),
        "traffic" => cmd_traffic(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        // Shorthand: `figures fig3 --scale tiny` == `figures run fig3 ...`.
        name => cmd_run(name, &args[1..]),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            if !e.is_silent() {
                eprintln!("figures: {e}");
                if e.wants_usage() {
                    eprintln!("\n{USAGE}");
                }
            }
            ExitCode::from(e.exit_code())
        }
    }
}
