//! End-to-end tests of the `detlint` binary, the one command-line entry to
//! the determinism linter (CI's lint job runs it): it must (a) pass the
//! actual workspace tree — the byte-identical-output contract holds on
//! main — and (b) report violating fixtures with exact `file:line:col`
//! diagnostics and exit code 1.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_detlint");

/// Repository root (this file lives at `crates/detlint/tests/`).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap().to_path_buf()
}

fn detlint(args: &[&str]) -> Output {
    Command::new(BIN).args(args).current_dir(repo_root()).output().expect("detlint binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

#[test]
fn the_workspace_lints_clean() {
    // The repo-wide guard: any un-annotated D01–D06 finding anywhere under
    // crates/ fails this test the same way it fails CI.
    let out = detlint(&["crates"]);
    assert!(out.status.success(), "workspace has determinism findings:\n{}", stdout(&out));
    assert!(stdout(&out).contains("0 finding(s)"));
}

#[test]
fn violating_fixture_exits_one_with_exact_diagnostic() {
    let fixture = "crates/detlint/testdata/d01_violation.rs";
    let out = detlint(&[fixture]);
    assert_eq!(out.status.code(), Some(1), "expected findings to exit 1");
    let text = stdout(&out);
    // The fixture-path directive relocates the diagnostics to the virtual
    // result-path location, with exact line:col anchors.
    assert!(
        text.contains("crates/routing/src/fixture.rs:6:11: D01:"),
        "missing exact diagnostic:\n{text}"
    );
    assert!(text.contains("3 finding(s)"), "{text}");
}

#[test]
fn json_output_is_machine_readable() {
    let fixture = "crates/detlint/testdata/d02_violation.rs";
    let out = detlint(&["--json", fixture]);
    assert_eq!(out.status.code(), Some(1));
    let json = stdout(&out);
    for key in ["\"tool\":\"detlint\"", "\"rule\":\"D02\"", "\"line\":6", "\"findings\":["] {
        assert!(json.contains(key), "JSON missing {key}:\n{json}");
    }
}

#[test]
fn list_rules_names_the_registry() {
    let out = detlint(&["--list-rules"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for rule in ["D01", "D02", "D03", "D04", "D05", "D06"] {
        assert!(text.contains(rule), "--list-rules missing {rule}:\n{text}");
    }
}

#[test]
fn unknown_option_is_a_usage_error() {
    let out = detlint(&["--nope"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn missing_path_is_a_hard_error() {
    let out = detlint(&["no/such/dir"]);
    assert_eq!(out.status.code(), Some(2));
}
