//! The `figures` invocation contract: for each malformed invocation, the
//! exit code and the first stderr line the real binary prints. The table
//! pins what a user sees when a command is mistyped, so a change to how the
//! subcommands read their flags must leave every row as it is.

use jellyfish_bench::merge::experiment_names;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_figures");

/// Runs `figures` with `args` (stdin closed, so a case that wrongly starts
/// the daemon ends at EOF instead of hanging) and returns its exit code and
/// first stderr line.
fn first_error(args: &[&str]) -> (Option<i32>, String) {
    let out =
        Command::new(BIN).args(args).stdin(Stdio::null()).output().expect("figures binary runs");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    (out.status.code(), stderr.lines().next().unwrap_or_default().to_string())
}

#[test]
fn every_malformed_invocation_keeps_its_exit_code_and_first_stderr_line() {
    let names = experiment_names();
    let unknown_experiment =
        |name: &str| format!("figures: unknown experiment '{name}' (valid choices: {names})");
    let rows: Vec<(Vec<&str>, String)> = vec![
        // An unknown option and a missing value on each flag-taking command.
        (vec!["run", "fig3", "--bogus"], "figures: unknown option '--bogus'".into()),
        (vec!["run", "fig3", "--seed"], "figures: --seed needs a value".into()),
        (vec!["launch", "fig3", "--bogus"], "figures: unknown option '--bogus'".into()),
        (vec!["launch", "fig3", "--jobs"], "figures: --jobs needs a value".into()),
        (vec!["merge", "--bogus"], "figures: unknown option '--bogus'".into()),
        // merge's one value is its fragment files.
        (vec!["merge", "--json"], "figures: merge needs at least one fragment file".into()),
        (vec!["serve", "--bogus"], "figures: unknown option '--bogus'".into()),
        (vec!["serve", "--topo"], "figures: --topo needs a value".into()),
        (vec!["serve", "--tcp"], "figures: --tcp needs a value".into()),
        (
            vec!["topo", "build", "fattree:k=4", "--bogus"],
            "figures: unknown option '--bogus'".into(),
        ),
        (vec!["topo", "build", "fattree:k=4", "--seed"], "figures: --seed needs a value".into()),
        // Bad values of the run flags.
        (
            vec!["run", "fig3", "--seed", "x"],
            "figures: unparsable --seed 'x': expected an unsigned integer".into(),
        ),
        (
            vec!["serve", "--seed", "NaN"],
            "figures: unparsable --seed 'NaN': expected an unsigned integer".into(),
        ),
        (
            vec!["run", "fig3", "--scale", "huge"],
            "figures: unknown scale 'huge': valid scales are tiny, laptop, paper".into(),
        ),
        (
            vec!["run", "fig3", "--topo", "nope:x=1"],
            "figures: unparsable --topo: unknown generator 'nope': registered generators are \
             jellyfish, fattree, swdc, dd, leafspine"
                .into(),
        ),
        (
            vec!["run", "fig3", "--traffic", "nope"],
            "figures: unparsable --traffic: unknown generator 'nope': registered generators are \
             permutation, all2all, stride, hotspot, zipf, incast, outcast, mix"
                .into(),
        ),
        (
            vec!["run", "fig3", "--shard", "x"],
            "figures: invalid shard 'x': expected K/N with 1 <= K <= N, e.g. 2/4".into(),
        ),
        // Shape errors.
        (vec!["run", "fig3", "extra"], "figures: unknown option 'extra'".into()),
        (
            vec!["run", "fig3", "--shard", "1/2", "--json"],
            "figures: --shard output is always JSON; drop --json".into(),
        ),
        (
            vec!["run", "fig3", "--plan", "f"],
            "figures: --plan only affects sharded runs; add --shard K/N (or use launch)".into(),
        ),
        (
            vec!["launch", "fig3", "--shard", "1/2"],
            "figures: launch assigns the shards itself; use --jobs N instead of --shard".into(),
        ),
        (
            vec!["run"],
            format!("figures: run needs an experiment name: valid experiments are {names}"),
        ),
        (
            vec!["launch"],
            format!("figures: launch needs an experiment name: valid experiments are {names}"),
        ),
        (vec!["run", "nosuch"], unknown_experiment("nosuch")),
        (vec!["launch", "nosuch", "--jobs", "2"], unknown_experiment("nosuch")),
        (vec!["bogus"], unknown_experiment("bogus")),
        // launch's own flags.
        (vec!["launch", "fig3", "--jobs", "0"], "figures: --jobs must be at least 1".into()),
        (
            vec!["launch", "fig3", "--jobs", "x"],
            "figures: unparsable --jobs 'x': expected a positive integer".into(),
        ),
        (
            vec!["launch", "fig3", "--timeout-secs", "0"],
            "figures: --timeout-secs must be at least 1".into(),
        ),
        (
            vec!["launch", "fig2b", "--scale", "tiny"],
            "figures: launch needs --jobs N (the number of worker processes)".into(),
        ),
        (
            vec!["launch", "fig3", "--jobs", "2", "--hosts", "/nonexistent/hosts"],
            "figures: cannot read --hosts '/nonexistent/hosts': No such file or directory \
             (os error 2)"
                .into(),
        ),
        // Arity of the listing and spec commands.
        (vec!["list", "extra"], "figures: list takes no arguments (got 'extra')".into()),
        (vec!["topo", "list", "x"], "figures: topo list takes no arguments (got 'x')".into()),
        (vec!["traffic", "list", "x"], "figures: traffic list takes no arguments (got 'x')".into()),
        (
            vec!["traffic", "show", "a", "b"],
            "figures: traffic show takes one spec (got 'b')".into(),
        ),
        (
            vec!["traffic", "show"],
            "figures: expected a traffic spec (try `figures traffic list`)".into(),
        ),
        (
            vec!["topo", "build"],
            "figures: expected a topology spec (try `figures topo list`)".into(),
        ),
        (
            vec!["topo", "show"],
            "figures: expected a topology spec (try `figures topo list`)".into(),
        ),
        (vec!["topo"], "figures: topo needs a subcommand: list, show, build".into()),
        (vec!["traffic"], "figures: traffic needs a subcommand: list, show".into()),
        (
            vec!["topo", "bogus"],
            "figures: unknown topo subcommand 'bogus' (valid choices: list, show, build)".into(),
        ),
    ];
    let mut drift = Vec::new();
    for (args, want) in &rows {
        let got = first_error(args);
        if got != (Some(2), want.clone()) {
            drift.push(format!("figures {args:?}\n  want: exit 2, {want}\n   got: {got:?}"));
        }
    }
    assert!(
        drift.is_empty(),
        "{} of {} rows drifted:\n{}",
        drift.len(),
        rows.len(),
        drift.join("\n")
    );
}
