//! End-to-end tests of the distributed shard launcher through the real
//! `figures` binary: `figures launch` must print byte-for-byte what
//! `figures run` prints — including when a second launch LPT-partitions by
//! the first launch's timing file, and when workers run through hosts-file
//! command templates — and merge/launch failures must name the experiment,
//! item label, or shard at fault.
//!
//! Uses `fig2b` wherever the run needs no override: 4 work items,
//! microseconds each, so the test cost is process-spawn overhead, not
//! simulation. The run-record tests use small override-capable sweeps.

use jellyfish::experiment::TimingFile;
use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_figures");

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jf-launch-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn figures(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("figures binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).unwrap()
}

#[test]
fn launch_matches_run_and_a_second_launch_reuses_the_timing_file() {
    let dir = scratch("roundtrip");
    let run = figures(&["run", "fig2b", "--scale", "tiny", "--seed", "7"]);
    assert!(run.status.success(), "{}", stderr(&run));
    let expected = stdout(&run);

    let run1 = dir.join("run1");
    let launched = figures(&[
        "launch",
        "fig2b",
        "--scale",
        "tiny",
        "--seed",
        "7",
        "--jobs",
        "3",
        "--run-dir",
        run1.to_str().unwrap(),
    ]);
    assert!(launched.status.success(), "{}", stderr(&launched));
    assert_eq!(stdout(&launched), expected, "launch must be byte-identical to run");

    // The run directory holds per-shard fragments/logs, the merged output,
    // and the aggregated timing file with one non-zero timing per item.
    for k in 1..=3 {
        assert!(run1.join(format!("shard-{k}.jsonl")).exists());
        assert!(run1.join(format!("shard-{k}.log")).exists());
    }
    assert_eq!(std::fs::read_to_string(run1.join("merged.tsv")).unwrap(), expected);
    let timings_path = run1.join("timings.json");
    let tf = TimingFile::from_json(&std::fs::read_to_string(&timings_path).unwrap()).unwrap();
    let fig2b = tf.get("fig2b").expect("timings recorded for fig2b");
    assert_eq!(fig2b.len(), 4, "one timing per work item");
    assert!(fig2b.iter().all(|&t| t > 0), "timings are non-zero: {fig2b:?}");

    // Second launch: LPT-partitioned by the first run's timings, still
    // byte-identical, and it writes a fresh timing file of its own.
    let run2 = dir.join("run2");
    let relaunched = figures(&[
        "launch",
        "fig2b",
        "--scale",
        "tiny",
        "--seed",
        "7",
        "--jobs",
        "3",
        "--plan",
        timings_path.to_str().unwrap(),
        "--run-dir",
        run2.to_str().unwrap(),
    ]);
    assert!(relaunched.status.success(), "{}", stderr(&relaunched));
    assert_eq!(stdout(&relaunched), expected, "LPT-planned launch must stay byte-identical");
    assert!(run2.join("timings.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hosts_file_templates_drive_workers_through_sh() {
    let dir = scratch("hosts");
    let hosts = dir.join("hosts");
    // A template that "dispatches" to localhost: the placeholder expands to
    // the quoted worker command and runs under sh -c, the same path an
    // `ssh host {}` template takes.
    std::fs::write(&hosts, "# local pseudo-cluster\n{}\n").unwrap();
    let run = figures(&["run", "fig2b", "--scale", "tiny", "--seed", "7"]);
    let launched = figures(&[
        "launch",
        "fig2b",
        "--scale",
        "tiny",
        "--seed",
        "7",
        "--jobs",
        "2",
        "--hosts",
        hosts.to_str().unwrap(),
        "--run-dir",
        dir.join("run").to_str().unwrap(),
    ]);
    assert!(launched.status.success(), "{}", stderr(&launched));
    assert_eq!(stdout(&launched), stdout(&run));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_twice_failing_worker_fails_the_launch_naming_the_shard() {
    let dir = scratch("fail");
    let hosts = dir.join("hosts");
    std::fs::write(&hosts, "exit 7 # {}\n").unwrap();
    let launched = figures(&[
        "launch",
        "fig2b",
        "--scale",
        "tiny",
        "--seed",
        "7",
        "--jobs",
        "2",
        "--hosts",
        hosts.to_str().unwrap(),
        "--run-dir",
        dir.join("run").to_str().unwrap(),
    ]);
    assert_eq!(launched.status.code(), Some(2));
    let err = stderr(&launched);
    assert!(err.contains("retrying"), "first failure retries: {err}");
    assert!(err.contains("shard 1/2"), "hard error names the shard: {err}");
    assert!(err.contains("worker exited"), "hard error says why: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_hung_worker_is_killed_at_the_timeout_and_the_launch_fails_fast() {
    let dir = scratch("timeout");
    let hosts = dir.join("hosts");
    // Every worker hangs (the template never runs the real command); with a
    // 1s deadline both attempts are killed, and the launch fails naming the
    // shard instead of blocking on the 60s sleep.
    std::fs::write(&hosts, "sleep 60 # {}\n").unwrap();
    #[expect(
        clippy::disallowed_methods,
        reason = "D02: the test times the launcher's kill at the worker deadline"
    )]
    let start = std::time::Instant::now();
    let launched = figures(&[
        "launch",
        "fig2b",
        "--scale",
        "tiny",
        "--seed",
        "7",
        "--jobs",
        "2",
        "--timeout-secs",
        "1",
        "--hosts",
        hosts.to_str().unwrap(),
        "--run-dir",
        dir.join("run").to_str().unwrap(),
    ]);
    assert_eq!(launched.status.code(), Some(2));
    let err = stderr(&launched);
    assert!(err.contains("timed out"), "error must say the worker hung: {err}");
    assert!(err.contains("retrying"), "the first timeout still retries: {err}");
    assert!(err.contains("shard"), "hard error names the shard: {err}");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(30),
        "launch must not wait out hung workers ({:?})",
        start.elapsed()
    );

    // Flag validation: a zero deadline is rejected up front.
    let zero = figures(&["launch", "fig2b", "--jobs", "2", "--timeout-secs", "0"]);
    assert_eq!(zero.status.code(), Some(2));
    assert!(stderr(&zero).contains("--timeout-secs"), "{}", stderr(&zero));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_errors_name_the_experiment_and_the_item_label() {
    let dir = scratch("merge-errors");
    let frag = dir.join("shard1.jsonl");
    let half = figures(&["run", "fig2b", "--scale", "tiny", "--seed", "7", "--shard", "1/2"]);
    assert!(half.status.success());
    std::fs::write(&frag, stdout(&half)).unwrap();
    let frag = frag.to_str().unwrap();

    // Same shard file twice: the duplicate is named with its debug label.
    let dup = figures(&["merge", frag, frag]);
    assert_eq!(dup.status.code(), Some(2));
    let err = stderr(&dup);
    assert!(
        err.contains("fig2b: item 0 ('") && err.contains("appears in more than one fragment"),
        "duplicate error must name experiment and label: {err}"
    );

    // Shard 2/2 never merged: the first missing item is named with its label.
    let missing = figures(&["merge", frag]);
    assert_eq!(missing.status.code(), Some(2));
    let err = stderr(&missing);
    assert!(
        err.contains("fig2b: incomplete shard set: item 1 ('") && err.contains("is missing"),
        "missing-item error must name experiment and label: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Merging shard 1/2 with a shard 2/2 of a different run fails naming the
/// experiment and both values, one row per member of the run record:
/// `(experiment, flag, shard 1/2's value, shard 2/2's value)`.
#[test]
fn merge_rejects_shards_of_different_runs_naming_both_values() {
    let dir = scratch("run-mismatch");
    let rows = [
        ("fig2b", "--scale", "tiny", "laptop"),
        ("fig2b", "--seed", "7", "8"),
        ("path_length", "--topo", "fattree:k=4", "leafspine:leaf=6,spine=3,servers=4"),
        ("throughput_vs_workload", "--traffic", "stride:k=3", "zipf:s=1.2"),
    ];
    for (exp, flag, first, second) in rows {
        let mut files = Vec::new();
        for (k, value) in [(1, first), (2, second)] {
            let mut args = vec!["run", exp, "--shard"];
            args.push(if k == 1 { "1/2" } else { "2/2" });
            for (default_flag, default) in [("--scale", "tiny"), ("--seed", "7")] {
                if default_flag != flag {
                    args.extend([default_flag, default]);
                }
            }
            args.extend([flag, value]);
            let shard = figures(&args);
            assert!(shard.status.success(), "{exp} {flag} {value}: {}", stderr(&shard));
            let file = dir.join(format!("{exp}-{}-{k}.jsonl", &flag[2..]));
            std::fs::write(&file, stdout(&shard)).unwrap();
            files.push(file);
        }
        let merged = figures(&["merge", files[0].to_str().unwrap(), files[1].to_str().unwrap()]);
        assert_eq!(merged.status.code(), Some(2), "{exp} {flag}: {}", stderr(&merged));
        let err = stderr(&merged);
        let name = &flag[2..];
        assert!(err.contains(&format!("{exp}: fragments disagree on the run")), "{err}");
        for value in [first, second] {
            assert!(err.contains(&format!("{name}: {value}")), "{exp} {flag} {value}: {err}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// With both overrides set, `launch --json` and `merge --json` print byte
/// for byte what `run --json` prints: the run record crosses the worker
/// command line, the fragments and the merge in one shape.
#[test]
fn json_launch_and_merge_match_the_json_run_under_both_overrides() {
    let dir = scratch("json");
    let run = [
        "failure_sweep",
        "--scale",
        "tiny",
        "--seed",
        "7",
        "--topo",
        "fattree:k=4",
        "--traffic",
        "stride:k=3",
    ];
    let cli = |args: &[&str]| {
        let out = figures(args);
        assert!(out.status.success(), "figures {args:?}: {}", stderr(&out));
        stdout(&out)
    };
    let expected = cli(&[&["run"][..], &run, &["--json"]].concat());
    assert!(expected.starts_with(
        "{\"experiment\":\"failure_sweep\",\"scale\":\"tiny\",\"seed\":7,\
         \"topo\":\"fattree:k=4\",\"traffic\":\"stride:k=3\",\"data\":"
    ));
    let run_dir = dir.join("launch");
    let launch = ["--jobs", "2", "--json", "--run-dir", run_dir.to_str().unwrap()];
    let launched = cli(&[&["launch"][..], &run, &launch].concat());
    assert_eq!(launched, expected, "launch --json must print the run's bytes");
    let mut files = Vec::new();
    for (k, shard) in ["1/2", "2/2"].into_iter().enumerate() {
        let file = dir.join(format!("shard-{k}.jsonl"));
        std::fs::write(&file, cli(&[&["run"][..], &run, &["--shard", shard]].concat())).unwrap();
        files.push(file);
    }
    let merged = cli(&["merge", "--json", files[0].to_str().unwrap(), files[1].to_str().unwrap()]);
    assert_eq!(merged, expected, "merge --json must print the run's bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fragment file holding one line of 50,000 `[` is a parse error naming
/// `file:1`, not a stack overflow.
#[test]
fn merge_of_a_deeply_nested_line_exits_2_naming_the_line() {
    let dir = scratch("merge-deep");
    let frag = dir.join("deep.jsonl");
    std::fs::write(&frag, "[".repeat(50_000)).unwrap();
    let frag = frag.to_str().unwrap();
    let out = figures(&["merge", frag]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains(&format!("{frag}:1: ")) && err.contains("nesting"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--jobs` is clamped to the largest work-item count among the selected
/// experiments (fig9 has 3 at tiny scale), so `usize::MAX` spawns three
/// workers and prints the run's bytes. Only `usize::MAX` is safe to test:
/// without the clamp, a smaller huge N would ask the host for N processes.
#[test]
fn launch_clamps_jobs_to_the_largest_item_count() {
    let dir = scratch("clamp");
    let run = figures(&["run", "fig9", "--scale", "tiny"]);
    assert!(run.status.success(), "{}", stderr(&run));
    let run_dir = dir.join("run");
    let jobs = usize::MAX.to_string();
    let launched = figures(&[
        "launch",
        "fig9",
        "--scale",
        "tiny",
        "--jobs",
        &jobs,
        "--run-dir",
        run_dir.to_str().unwrap(),
    ]);
    assert!(launched.status.success(), "{}", stderr(&launched));
    assert_eq!(stdout(&launched), stdout(&run), "launch must be byte-identical to run");
    assert!(stderr(&launched).contains("fig9 x 3 shard(s)"), "{}", stderr(&launched));
    assert!(run_dir.join("shard-3.jsonl").exists() && !run_dir.join("shard-4.jsonl").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn launch_flag_validation_is_strict() {
    let no_jobs = figures(&["launch", "fig2b", "--scale", "tiny"]);
    assert_eq!(no_jobs.status.code(), Some(2));
    assert!(stderr(&no_jobs).contains("--jobs"), "{}", stderr(&no_jobs));

    let shard = figures(&["launch", "fig2b", "--jobs", "2", "--shard", "1/2"]);
    assert_eq!(shard.status.code(), Some(2));
    assert!(stderr(&shard).contains("--jobs N instead of --shard"), "{}", stderr(&shard));

    let bad_plan = figures(&["run", "fig2b", "--plan", "/nonexistent.json"]);
    assert_eq!(bad_plan.status.code(), Some(2));
    assert!(
        stderr(&bad_plan).contains("--plan only affects sharded runs"),
        "{}",
        stderr(&bad_plan)
    );

    let unreadable = figures(&["run", "fig2b", "--shard", "1/2", "--plan", "/nonexistent.json"]);
    assert_eq!(unreadable.status.code(), Some(2));
    assert!(stderr(&unreadable).contains("cannot read --plan"), "{}", stderr(&unreadable));
}

#[test]
fn run_and_launch_reject_an_unsupported_override_with_one_message() {
    let dir = scratch("override");
    let run_dir = dir.join("run");
    let run = figures(&["run", "fig3", "--topo", "fattree:k=4"]);
    let launched = figures(&[
        "launch",
        "fig3",
        "--jobs",
        "2",
        "--topo",
        "fattree:k=4",
        "--run-dir",
        run_dir.to_str().unwrap(),
    ]);
    assert_eq!(run.status.code(), Some(2), "{}", stderr(&run));
    assert_eq!(launched.status.code(), Some(2), "{}", stderr(&launched));
    assert!(stderr(&run).contains("--topo works with throughput_vs_size"), "{}", stderr(&run));
    assert_eq!(stderr(&launched), stderr(&run), "launch and run must share the override check");
    assert!(!run_dir.exists(), "the rejected launch must spawn no worker");
    let _ = std::fs::remove_dir_all(&dir);
}
