//! The crate policy of LINTS.md (D05): every workspace member opts into the
//! root `[workspace.lints]` table, and every `crates/*/src/lib.rs` states the
//! memory-safety and documentation floor in its own header, so each crate
//! root says what it is held to even when built on its own.

use std::fs;
use std::path::{Path, PathBuf};

const CRATE_ROOT_HEADERS: [&str; 2] = ["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels down")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The `members` list of the root manifest's `[workspace]` table.
fn workspace_members(root: &Path) -> Vec<String> {
    let manifest = read(&root.join("Cargo.toml"));
    let start = manifest.find("members = [").expect("the root manifest lists its members");
    let list = &manifest[start..];
    let list = &list[..list.find(']').expect("the members list is closed")];
    list.split('"').skip(1).step_by(2).map(str::to_string).collect()
}

/// Whether `manifest` has a `[lints]` table that sets `workspace = true`.
fn opts_into_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

#[test]
fn every_member_opts_into_the_workspace_lints() {
    let root = repo_root();
    let members = workspace_members(root);
    assert!(!members.is_empty(), "no workspace members found");
    let missing: Vec<&String> = members
        .iter()
        .filter(|member| !opts_into_workspace_lints(&read(&root.join(member).join("Cargo.toml"))))
        .collect();
    assert!(missing.is_empty(), "members without `[lints] workspace = true`: {missing:?}");
}

#[test]
fn every_crate_root_carries_the_policy_headers() {
    let crates = repo_root().join("crates");
    let mut roots: Vec<PathBuf> = fs::read_dir(&crates)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", crates.display()))
        .map(|entry| entry.expect("readable directory entry").path().join("src/lib.rs"))
        .filter(|lib| lib.is_file())
        .collect();
    roots.sort();
    assert!(!roots.is_empty(), "no crates/*/src/lib.rs found");
    let mut missing = Vec::new();
    for lib in &roots {
        let source = read(lib);
        for header in CRATE_ROOT_HEADERS {
            if !source.lines().any(|line| line.trim() == header) {
                missing.push(format!("{}: {header}", lib.display()));
            }
        }
    }
    assert!(missing.is_empty(), "crate roots missing a policy header: {missing:?}");
}
