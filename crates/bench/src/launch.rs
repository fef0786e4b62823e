//! The distributed shard launcher behind `figures launch`.
//!
//! `figures run --shard K/N` made every experiment a shardable work-item
//! stream, but launching the N shards used to be a by-hand affair: start N
//! processes, collect N fragment files, run `figures merge`. This module is
//! the one-command driver for that loop:
//!
//! 1. partition — each worker re-runs this very binary (`figures run <name>
//!    --shard K/N`), by default striping the work items; with `--plan` the
//!    workers LPT-bin-pack by a prior run's measured per-item timings
//!    ([`jellyfish::experiment::WorkPlan`]).
//! 2. spawn — N local worker processes ([`std::process::Command`] re-exec of
//!    the current executable), or remote ones through the command templates
//!    of a hosts file (see [`parse_hosts_file`]); each worker's stdout
//!    streams into `<run-dir>/shard-K.jsonl`, its stderr into
//!    `<run-dir>/shard-K.log`.
//! 3. retry — a worker that exits non-zero, overruns the `--timeout-secs`
//!    deadline (it is killed and counts as failed), or leaves its fragment
//!    file missing/empty/unparsable, is retried exactly once, after an
//!    exponentially growing backoff; a second failure is a hard error naming
//!    the shard (and pointing at its log). Workers are polled, never
//!    blocking-waited, so one hung worker cannot stall the whole launch.
//! 4. merge — the collected fragments go through the same validation and
//!    recombination as `figures merge` ([`crate::merge`]), so the launcher's
//!    stdout is byte-identical to a single-process `figures run`. The
//!    per-item wall-clock measurements are aggregated into
//!    `<run-dir>/timings.json`, ready to be fed back as the next launch's
//!    `--plan`.

use crate::merge::{self, MergedRun};
use jellyfish::experiment::{self, RunCtx, RunSpec, Shard, ShardFragment, TimingFile};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A worker is retried this many times in total (one retry after the first
/// failure) before the launch fails hard.
const MAX_ATTEMPTS: usize = 2;

/// Base of the exponential backoff slept before re-spawning a failed worker.
const RETRY_BACKOFF_MS: u64 = 250;

/// How often the launcher polls its workers (`try_wait`, deadline checks,
/// due retries).
const POLL_INTERVAL: Duration = Duration::from_millis(15);

/// Backoff before spawning attempt number `attempt` of a worker:
/// `RETRY_BACKOFF_MS << (attempt - 1)`, i.e. 500ms before the (single)
/// second attempt, doubling from there should `MAX_ATTEMPTS` ever grow.
fn retry_backoff(attempt: usize) -> Duration {
    Duration::from_millis(RETRY_BACKOFF_MS << (attempt - 1).min(6))
}

/// Everything `figures launch` needs for one distributed run.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Experiment name (or `all`), exactly as `figures run` takes it.
    pub name: String,
    /// Number of worker processes; each owns one shard `K/jobs`.
    pub jobs: usize,
    /// The run every worker evaluates a shard of (forwarded as
    /// [`RunSpec::args`]).
    pub run: RunSpec,
    /// A prior run's `timings.json`, forwarded to the workers as `--plan`
    /// for timing-aware LPT partitioning.
    pub plan: Option<PathBuf>,
    /// Worker command templates from `--hosts` (empty: spawn locally).
    pub hosts: Vec<String>,
    /// Directory the fragment files, worker logs, `timings.json` and merged
    /// output are written into (created if missing).
    pub run_dir: PathBuf,
    /// Per-worker wall-clock deadline (`--timeout-secs`): an attempt still
    /// running this long after its spawn is killed and counts as failed
    /// (going through the normal retry path). `None`: wait indefinitely.
    pub timeout: Option<Duration>,
    /// Render the merged output as JSON lines instead of TSV blocks.
    pub json: bool,
}

/// One worker process the launcher spawns: the shard it evaluates plus the
/// program and arguments to exec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerCmd {
    /// The `K/N` slice this worker evaluates.
    pub shard: Shard,
    /// Program to exec (`figures` itself locally, `sh` for host templates).
    pub program: String,
    /// Arguments to `program`.
    pub args: Vec<String>,
}

impl WorkerCmd {
    /// The command as one human-readable shell-ish line (for logs/errors).
    pub fn display(&self) -> String {
        let mut out = self.program.clone();
        for a in &self.args {
            out.push(' ');
            if a.contains(' ') || a.is_empty() {
                out.push_str(&shell_quote(a));
            } else {
                out.push_str(a);
            }
        }
        out
    }
}

/// Parses a `--hosts` file: one worker command template per line, blank
/// lines and `#` comments skipped. A template's `{}` placeholder is replaced
/// by the (shell-quoted) worker command — e.g. `ssh build-01 {}`; a template
/// without `{}` has the command appended. Workers are assigned to templates
/// round-robin, and each resulting line runs under `sh -c`, so the `figures`
/// binary (at its local path) and any `--plan` file must be reachable on
/// every host — the usual shared-filesystem cluster setup.
pub fn parse_hosts_file(text: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Quotes `s` for POSIX `sh`: single quotes around the whole string, with
/// embedded single quotes spliced as `'\''`.
fn shell_quote(s: &str) -> String {
    format!("'{}'", s.replace('\'', "'\\''"))
}

/// The `figures run` argument vector of shard `K/N` under `cfg`.
fn worker_args(cfg: &LaunchConfig, shard: Shard) -> Vec<String> {
    let mut args = vec!["run".to_string(), cfg.name.clone()];
    args.extend(cfg.run.args());
    args.push("--shard".to_string());
    args.push(shard.to_string());
    if let Some(plan) = &cfg.plan {
        // Absolute so remote/`sh -c` workers resolve it regardless of cwd.
        let plan = std::fs::canonicalize(plan).unwrap_or_else(|_| plan.clone());
        args.push("--plan".to_string());
        args.push(plan.display().to_string());
    }
    args
}

/// Builds the N worker commands for `cfg`: local re-execs of the current
/// `figures` binary, or `sh -c` instantiations of the host templates.
pub fn worker_commands(cfg: &LaunchConfig) -> Result<Vec<WorkerCmd>, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate the figures binary to re-exec: {e}"))?;
    let mut cmds = Vec::with_capacity(cfg.jobs);
    for k in 1..=cfg.jobs {
        let shard = Shard::new(k, cfg.jobs)?;
        let args = worker_args(cfg, shard);
        let cmd = if cfg.hosts.is_empty() {
            WorkerCmd { shard, program: exe.display().to_string(), args }
        } else {
            let template = &cfg.hosts[(k - 1) % cfg.hosts.len()];
            let quoted: Vec<String> = std::iter::once(exe.display().to_string())
                .chain(args)
                .map(|a| shell_quote(&a))
                .collect();
            let inner = quoted.join(" ");
            let line = if template.contains("{}") {
                template.replace("{}", &inner)
            } else {
                format!("{template} {inner}")
            };
            WorkerCmd { shard, program: "sh".to_string(), args: vec!["-c".to_string(), line] }
        };
        cmds.push(cmd);
    }
    Ok(cmds)
}

/// The fragment file shard `K` streams into.
fn fragment_path(run_dir: &Path, shard: Shard) -> PathBuf {
    run_dir.join(format!("shard-{}.jsonl", shard.index))
}

/// The stderr log of shard `K` (appended across attempts).
fn log_path(run_dir: &Path, shard: Shard) -> PathBuf {
    run_dir.join(format!("shard-{}.log", shard.index))
}

/// Spawns one attempt of `cmd`: stdout truncates the shard's fragment file,
/// stderr appends to its log behind an attempt header.
fn spawn_worker(cmd: &WorkerCmd, run_dir: &Path, attempt: usize) -> Result<Child, String> {
    let shard = cmd.shard;
    let fail = |what: &str, e: std::io::Error| format!("shard {shard}: {what}: {e}");
    let stdout =
        File::create(fragment_path(run_dir, shard)).map_err(|e| fail("fragment file", e))?;
    let mut log = OpenOptions::new()
        .create(true)
        .append(true)
        .open(log_path(run_dir, shard))
        .map_err(|e| fail("log file", e))?;
    writeln!(log, "--- attempt {attempt}: {}", cmd.display()).map_err(|e| fail("log file", e))?;
    Command::new(&cmd.program)
        .args(&cmd.args)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(log)
        .spawn()
        .map_err(|e| fail(&format!("cannot spawn '{}'", cmd.display()), e))
}

/// Checks one finished attempt: the worker must have exited zero and its
/// fragment file must hold at least one parsable fragment line.
fn collect_worker(
    cmd: &WorkerCmd,
    status: std::process::ExitStatus,
    run_dir: &Path,
) -> Result<Vec<ShardFragment>, String> {
    if !status.success() {
        return Err(format!("worker exited with {status}"));
    }
    let path = fragment_path(run_dir, cmd.shard);
    let fragments = merge::read_fragments(&path)?;
    if fragments.is_empty() {
        return Err(format!("fragment file {} is empty", path.display()));
    }
    Ok(fragments)
}

/// Kills and reaps every still-running worker: the hard-error path must not
/// leave orphan processes writing into the run directory (a re-launch would
/// truncate fragment files an orphan still holds open, corrupting them).
fn kill_all(children: Vec<(usize, Child)>) {
    for (_, mut child) in children {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// What the poll loop observed about one running worker.
enum Polled {
    /// Still within its deadline (or has none) and still running.
    Running,
    /// Exited on its own.
    Exited(std::process::ExitStatus),
    /// Overran its deadline; it has been killed and reaped.
    TimedOut,
    /// `try_wait` itself failed — the launch cannot continue.
    WaitErr(std::io::Error),
}

/// Runs every worker to completion, concurrently, retrying each failed
/// worker exactly once (after an exponential backoff). Workers are polled
/// with `try_wait` rather than blocking-waited, so a per-worker `timeout`
/// can kill an attempt that hangs — a timed-out attempt counts as a failure
/// and goes through the same retry path as a non-zero exit. Returns all
/// shards' fragments (in shard order), or a hard error naming the shard
/// that failed twice — after killing and reaping whatever workers were
/// still running.
pub fn run_workers(
    cmds: &[WorkerCmd],
    run_dir: &Path,
    timeout: Option<Duration>,
) -> Result<Vec<ShardFragment>, String> {
    // (worker index, running child, wall-clock deadline of this attempt).
    struct Running {
        idx: usize,
        child: Child,
        deadline: Option<Instant>,
    }
    let abort = |running: Vec<Running>, err: String| {
        kill_all(running.into_iter().map(|r| (r.idx, r.child)).collect());
        Err(err)
    };
    let mut attempts = vec![1usize; cmds.len()];
    let mut fragments: Vec<Vec<ShardFragment>> = vec![Vec::new(); cmds.len()];
    let mut running: Vec<Running> = Vec::with_capacity(cmds.len());
    // Failed workers sitting out their backoff: (worker index, respawn time).
    let mut waiting: Vec<(usize, Instant)> = Vec::new();
    let mut remaining = cmds.len();
    for (i, cmd) in cmds.iter().enumerate() {
        match spawn_worker(cmd, run_dir, 1) {
            Ok(child) => running.push(Running {
                idx: i,
                child,
                #[expect(
                    clippy::disallowed_methods,
                    reason = "D02: a worker deadline decides when to kill it, never what it prints"
                )]
                deadline: timeout.map(|t| Instant::now() + t),
            }),
            Err(e) => return abort(running, e),
        }
    }
    while remaining > 0 {
        #[expect(
            clippy::disallowed_methods,
            reason = "D02: the poll clock schedules retries and deadlines, never what a worker prints"
        )]
        let now = Instant::now();
        // Re-spawn workers whose backoff has elapsed.
        let mut deferred = Vec::new();
        for (i, due) in waiting.drain(..) {
            if now < due {
                deferred.push((i, due));
                continue;
            }
            match spawn_worker(&cmds[i], run_dir, attempts[i]) {
                Ok(child) => running.push(Running {
                    idx: i,
                    child,
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "D02: a worker deadline decides when to kill it, never what it prints"
                    )]
                    deadline: timeout.map(|t| Instant::now() + t),
                }),
                Err(e) => return abort(running, e),
            }
        }
        waiting = deferred;
        // Poll every running worker without blocking.
        let mut progressed = false;
        let mut i = 0;
        while i < running.len() {
            let polled = {
                let w = &mut running[i];
                match w.child.try_wait() {
                    Ok(Some(status)) => Polled::Exited(status),
                    Ok(None) => match w.deadline {
                        Some(d) if now >= d => {
                            let _ = w.child.kill();
                            let _ = w.child.wait();
                            Polled::TimedOut
                        }
                        _ => Polled::Running,
                    },
                    Err(e) => Polled::WaitErr(e),
                }
            };
            if matches!(polled, Polled::Running) {
                i += 1;
                continue;
            }
            let w = running.swap_remove(i);
            let cmd = &cmds[w.idx];
            progressed = true;
            let outcome = match polled {
                Polled::Exited(status) => collect_worker(cmd, status, run_dir),
                Polled::TimedOut => Err(format!(
                    "timed out after {}s (killed)",
                    timeout.expect("deadlines only exist with a timeout").as_secs_f64()
                )),
                Polled::WaitErr(e) => {
                    let err = format!("shard {}: wait on worker failed: {e}", cmd.shard);
                    let mut rest = running;
                    rest.push(w);
                    return abort(rest, err);
                }
                Polled::Running => unreachable!("handled above"),
            };
            match outcome {
                Ok(frags) => {
                    fragments[w.idx] = frags;
                    remaining -= 1;
                }
                Err(why) if attempts[w.idx] < MAX_ATTEMPTS => {
                    attempts[w.idx] += 1;
                    let backoff = retry_backoff(attempts[w.idx]);
                    eprintln!(
                        "figures launch: shard {}: {why}; retrying in {}ms \
                         (attempt {}/{MAX_ATTEMPTS})",
                        cmd.shard,
                        backoff.as_millis(),
                        attempts[w.idx]
                    );
                    waiting.push((w.idx, now + backoff));
                }
                Err(why) => {
                    return abort(
                        running,
                        format!(
                            "shard {}: {why} (after {} retry); worker log: {}",
                            cmd.shard,
                            MAX_ATTEMPTS - 1,
                            log_path(run_dir, cmd.shard).display()
                        ),
                    );
                }
            }
        }
        if !progressed && remaining > 0 {
            std::thread::sleep(POLL_INTERVAL);
        }
    }
    Ok(fragments.into_iter().flatten().collect())
}

/// Aggregates the per-item wall-clock of every fragment into one
/// [`TimingFile`] (indexed by the experiments' canonical work-item order).
/// The fragment reader has paired every item with one timing; a zero timing
/// means a corrupt fragment and fails the launch.
fn assemble_timings(cfg: &LaunchConfig, fragments: &[ShardFragment]) -> Result<TimingFile, String> {
    let mut tf = TimingFile::new(cfg.run.clone());
    let ctx = RunCtx::new(cfg.run.clone());
    for exp in experiment::registry() {
        let group: Vec<&ShardFragment> =
            fragments.iter().filter(|f| f.experiment == exp.name()).collect();
        if group.is_empty() {
            continue;
        }
        let mut timings = vec![0u64; exp.work_items(&ctx).len()];
        for f in &group {
            for (item, &t) in f.items.iter().zip(&f.timings_us) {
                if t == 0 {
                    return Err(format!(
                        "shard {}: {}: item {} has a zero timing; the fragment is corrupt",
                        f.shard,
                        exp.name(),
                        item.index
                    ));
                }
                timings[item.index] = t;
            }
        }
        tf.record(exp.name(), timings);
    }
    Ok(tf)
}

/// Runs one distributed launch end to end: spawn the workers, retry
/// failures, validate and merge the fragments, write `timings.json` and the
/// merged output into the run directory, and return the rendered merged
/// output — byte-identical to a single-process `figures run`.
pub fn launch(cfg: &LaunchConfig) -> Result<String, String> {
    if cfg.jobs == 0 {
        return Err("launch needs at least one job (--jobs N, N >= 1)".to_string());
    }
    std::fs::create_dir_all(&cfg.run_dir)
        .map_err(|e| format!("cannot create run directory {}: {e}", cfg.run_dir.display()))?;
    let cmds = worker_commands(cfg)?;
    let mode = if cfg.hosts.is_empty() {
        "local".to_string()
    } else {
        format!("{} host template(s)", cfg.hosts.len())
    };
    eprintln!(
        "figures launch: {} x {} shard(s), {mode}, run dir {}",
        cfg.name,
        cfg.jobs,
        cfg.run_dir.display()
    );
    let fragments = run_workers(&cmds, &cfg.run_dir, cfg.timeout)?;
    let merged: Vec<MergedRun> = merge::merge_fragments(&fragments)?;
    let timings = assemble_timings(cfg, &fragments)?;
    let timings_path = cfg.run_dir.join("timings.json");
    std::fs::write(&timings_path, timings.to_json() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", timings_path.display()))?;
    let rendered = merge::render_merged(&merged, cfg.json);
    let merged_path = cfg.run_dir.join(if cfg.json { "merged.jsonl" } else { "merged.tsv" });
    std::fs::write(&merged_path, &rendered)
        .map_err(|e| format!("cannot write {}: {e}", merged_path.display()))?;
    eprintln!(
        "figures launch: merged {} experiment(s); timings at {}",
        merged.len(),
        timings_path.display()
    );
    Ok(rendered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish::figures::Scale;

    /// A scratch directory unique to one test.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("jf-launch-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sh(shard: Shard, script: String) -> WorkerCmd {
        WorkerCmd { shard, program: "sh".to_string(), args: vec!["-c".to_string(), script] }
    }

    /// A minimal but valid fragment line a fake worker can emit.
    const FRAGMENT: &str = r#"{"experiment":"fig9","scale":"tiny","seed":7,"topo":null,"traffic":null,"shard":[1,1],"timings_us":[],"items":[]}"#;

    #[test]
    fn failing_worker_is_retried_exactly_once_then_named() {
        let dir = scratch("retry");
        let marker = dir.join("attempts");
        let shard = Shard::new(2, 3).unwrap();
        let cmd = sh(shard, format!("echo x >> {}; exit 3", marker.display()));
        #[expect(
            clippy::disallowed_methods,
            reason = "D02: the test times the launcher's retry and kill schedule"
        )]
        let start = std::time::Instant::now();
        let err = run_workers(&[cmd], &dir, None).unwrap_err();
        assert!(err.contains("shard 2/3"), "error must name the shard: {err}");
        assert!(err.contains("exit"), "error must say how the worker died: {err}");
        assert!(
            start.elapsed() >= retry_backoff(2),
            "the retry must sit out its backoff ({:?} elapsed)",
            start.elapsed()
        );
        let attempts = std::fs::read_to_string(&marker).unwrap();
        assert_eq!(attempts.lines().count(), 2, "exactly one retry after the first failure");
        let log = std::fs::read_to_string(log_path(&dir, shard)).unwrap();
        assert!(log.contains("--- attempt 1:") && log.contains("--- attempt 2:"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hung_worker_is_timed_out_killed_and_retried() {
        let dir = scratch("timeout");
        let marker = dir.join("ran-once");
        let payload = dir.join("fragment.json");
        std::fs::write(&payload, format!("{FRAGMENT}\n")).unwrap();
        let shard = Shard::new(1, 1).unwrap();
        // First attempt hangs (30s sleep); the 1s deadline must kill it and
        // the retry then succeeds — the launch never waits out the sleep.
        let cmd = sh(
            shard,
            format!(
                "if [ -f {m} ]; then cat {p}; else touch {m}; exec sleep 30; fi",
                m = marker.display(),
                p = payload.display()
            ),
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "D02: the test times the launcher's retry and kill schedule"
        )]
        let start = std::time::Instant::now();
        let fragments = run_workers(&[cmd], &dir, Some(Duration::from_secs(1))).unwrap();
        assert_eq!(fragments.len(), 1);
        assert_eq!(fragments[0].experiment, "fig9");
        assert!(
            start.elapsed() < Duration::from_secs(15),
            "must kill the hung attempt, not wait it out ({:?})",
            start.elapsed()
        );
        let log = std::fs::read_to_string(log_path(&dir, shard)).unwrap();
        assert!(log.contains("--- attempt 2:"), "the timed-out attempt must be retried: {log}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_that_times_out_twice_fails_the_launch_naming_the_shard() {
        let dir = scratch("timeout-twice");
        let shard = Shard::new(1, 2).unwrap();
        let cmd = sh(shard, "exec sleep 30".to_string());
        #[expect(
            clippy::disallowed_methods,
            reason = "D02: the test times the launcher's retry and kill schedule"
        )]
        let start = std::time::Instant::now();
        let err = run_workers(&[cmd], &dir, Some(Duration::from_millis(300))).unwrap_err();
        assert!(err.contains("shard 1/2"), "error must name the shard: {err}");
        assert!(err.contains("timed out"), "error must say the worker hung: {err}");
        assert!(
            start.elapsed() < Duration::from_secs(15),
            "both attempts must be killed at their deadline ({:?})",
            start.elapsed()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flaky_worker_succeeds_on_the_retry() {
        let dir = scratch("flaky");
        let marker = dir.join("ran-once");
        let payload = dir.join("fragment.json");
        std::fs::write(&payload, format!("{FRAGMENT}\n")).unwrap();
        let shard = Shard::new(1, 1).unwrap();
        let cmd = sh(
            shard,
            format!(
                "if [ -f {m} ]; then cat {p}; else touch {m}; exit 9; fi",
                m = marker.display(),
                p = payload.display()
            ),
        );
        let fragments = run_workers(&[cmd], &dir, None).unwrap();
        assert_eq!(fragments.len(), 1);
        assert_eq!(fragments[0].experiment, "fig9");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hard_errors_kill_workers_that_are_still_running() {
        let dir = scratch("orphans");
        let marker = dir.join("ran-once");
        let pid_file = dir.join("pid");
        // Shard 1/2 fails fast on both attempts (slightly delayed so the
        // slow worker below reliably records its pid first). Shard 2/2 fails
        // its first attempt, then turns into a 30s sleeper — when 1/2's
        // second failure aborts the launch, that sleeper must be killed, not
        // orphaned.
        let fail = sh(Shard::new(1, 2).unwrap(), "sleep 0.2; exit 4".to_string());
        let slow = sh(
            Shard::new(2, 2).unwrap(),
            format!(
                "if [ -f {m} ]; then echo $$ > {p}; exec sleep 30; else touch {m}; exit 4; fi",
                m = marker.display(),
                p = pid_file.display()
            ),
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "D02: the test times the launcher's retry and kill schedule"
        )]
        let start = std::time::Instant::now();
        let err = run_workers(&[fail, slow], &dir, None).unwrap_err();
        assert!(err.contains("shard 1/2"), "{err}");
        assert!(start.elapsed().as_secs() < 20, "must not wait out the killed sleeper");
        let pid: u32 = std::fs::read_to_string(&pid_file).unwrap().trim().parse().unwrap();
        assert!(
            !std::path::Path::new(&format!("/proc/{pid}")).exists(),
            "sleeper {pid} must be killed and reaped, not orphaned"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_garbage_fragment_files_count_as_failures() {
        let dir = scratch("garbage");
        let shard = Shard::new(1, 2).unwrap();
        let err = run_workers(&[sh(shard, "true".to_string())], &dir, None).unwrap_err();
        assert!(err.contains("shard 1/2") && err.contains("empty"), "{err}");
        let err = run_workers(&[sh(shard, "echo not json".to_string())], &dir, None).unwrap_err();
        assert!(err.contains("shard 1/2"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hosts_file_parses_templates_and_skips_comments() {
        let hosts = parse_hosts_file("# cluster\n\nssh a {}\n  ssh b {}  \n");
        assert_eq!(hosts, ["ssh a {}", "ssh b {}"]);
    }

    #[test]
    fn worker_commands_stripe_hosts_round_robin_and_quote() {
        let cfg = LaunchConfig {
            name: "all".to_string(),
            jobs: 3,
            run: RunSpec::new(Scale::Tiny, 7)
                .with_topo("fattree:k=4".parse().unwrap())
                .with_traffic("stride:k=2".parse().unwrap()),
            plan: None,
            hosts: vec!["ssh a {}".to_string(), "ssh b {}".to_string()],
            run_dir: PathBuf::from("/tmp/unused"),
            timeout: None,
            json: false,
        };
        let cmds = worker_commands(&cfg).unwrap();
        assert_eq!(cmds.len(), 3);
        for (k, cmd) in cmds.iter().enumerate() {
            assert_eq!(cmd.shard, Shard::new(k + 1, 3).unwrap());
            assert_eq!(cmd.program, "sh");
            let line = &cmd.args[1];
            assert!(line.starts_with(if k % 2 == 0 { "ssh a " } else { "ssh b " }), "{line}");
            assert!(line.contains(&format!("'--shard' '{}/3'", k + 1)), "{line}");
            assert!(line.contains("'--topo' 'fattree:k=4'"), "{line}");
            assert!(line.contains("'--traffic' 'stride:k=2'"), "{line}");
        }
        // Local mode re-execs this binary directly.
        let local = LaunchConfig { hosts: Vec::new(), ..cfg };
        let cmds = worker_commands(&local).unwrap();
        assert_ne!(cmds[0].program, "sh");
        assert_eq!(
            cmds[2].args,
            [
                "run",
                "all",
                "--scale",
                "tiny",
                "--seed",
                "7",
                "--topo",
                "fattree:k=4",
                "--traffic",
                "stride:k=2",
                "--shard",
                "3/3"
            ]
        );
    }

    #[test]
    fn shell_quoting_survives_embedded_quotes() {
        assert_eq!(shell_quote("a b"), "'a b'");
        assert_eq!(shell_quote("it's"), "'it'\\''s'");
    }
}
