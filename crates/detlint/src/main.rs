//! `detlint` — the determinism linter's command-line binary (CI's lint job runs it).
//!
//! ```text
//! detlint [--json] [--list-rules] [paths...]
//! ```
//!
//! Walks the given files/directories (default: `crates/`), lints every
//! `.rs` file, and prints `file:line:col: RULE: message` diagnostics (or
//! one JSON object with `--json`). Exit code 0 = clean, 1 = findings,
//! 2 = usage or I/O error. See LINTS.md for the rules and the pragma
//! grammar.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: detlint [--json] [--list-rules] [paths...]

Statically enforces the workspace's byte-identical-output contract.
Walks the given files/directories (default: crates/) and lints every .rs
file; see LINTS.md for the rule table and the pragma grammar.

options:
  --json        print one machine-readable JSON object instead of text
  --list-rules  print the rule registry and exit";

fn main() -> ExitCode {
    let mut json = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--list-rules" => {
                for rule in detlint::rules::registry() {
                    println!("{}\t{}", rule.id, rule.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with("--") => {
                eprintln!("detlint: unknown option '{flag}'\n\n{USAGE}");
                return ExitCode::from(2);
            }
            path => paths.push(PathBuf::from(path)),
        }
    }
    if paths.is_empty() {
        paths.push(PathBuf::from("crates"));
    }
    match detlint::lint_paths(&paths) {
        Ok(report) => {
            if json {
                print!("{}", detlint::render_json(&report));
            } else {
                print!("{}", detlint::render_text(&report));
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("detlint: {e}");
            ExitCode::from(2)
        }
    }
}
