//! # detlint — the workspace determinism linter
//!
//! Every result this workspace ships rests on one contract: **runs are
//! byte-identical** regardless of sharding, parallelism, or host. The
//! dynamic enforcement (shard-determinism proptests, golden TSVs) only
//! catches a violation after it has produced wrong bytes; this crate
//! enforces the contract *statically*, before code merges, the way
//! `#![forbid(unsafe_code)]` enforces memory-safety policy.
//!
//! It is a dependency-free static-analysis pass: a small hand-rolled Rust
//! [`lexer`], a per-file rule engine with a [`rules::registry`], exact
//! `file:line:col` diagnostics, machine-readable `--json` output, and an
//! inline pragma grammar (see [`pragma`]) that **requires a reason string**
//! for every waiver. The rules and their rationale are documented in
//! LINTS.md at the repository root.
//!
//! Run it as the `detlint` binary (`cargo run -p detlint -- crates/`), the
//! one command-line entry to the linter. Exit code 0 means clean, 1 means
//! findings, 2 means a usage or I/O error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};

pub mod lexer;
pub mod pragma;
pub mod rules;

use lexer::Tok;

/// How a file participates in the build, inferred from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library or binary source (`src/`): the result path; all rules apply.
    Src,
    /// Integration test (`tests/`): asserts on results, relaxed rules.
    Test,
    /// Criterion bench (`benches/`): timing is its purpose.
    Bench,
    /// Example (`examples/`): illustrative, not result-bearing.
    Example,
    /// Anything else (`build.rs`, loose files).
    Other,
}

/// One scanned file: its classification plus lexed token views.
pub struct FileCtx {
    /// Workspace-relative path with `/` separators. Fixtures may override
    /// this via a `// detlint-fixture: path = ...` directive, so the rules
    /// see the *virtual* location.
    pub path: String,
    /// The `<name>` in `crates/<name>/...`, when the file lives there.
    pub crate_name: Option<String>,
    /// Path-derived role of the file.
    pub kind: FileKind,
    /// Comment-free token stream (what rules pattern-match over).
    pub code: Vec<Tok>,
    /// Line ranges (inclusive) covered by `#[cfg(test)] mod` blocks.
    pub test_regions: Vec<(u32, u32)>,
}

impl FileCtx {
    /// Whether `line` falls inside a `#[cfg(test)]` module. Rules that
    /// protect shipped bytes (D01/D02/D04/D06) skip those regions — unit
    /// tests may iterate maps to assert set-wise properties.
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_regions.iter().any(|&(lo, hi)| (lo..=hi).contains(&line))
    }
}

/// One diagnostic: where, which rule, and why.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative (virtual) path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id (`D01`..., or `P01` for a malformed pragma).
    pub rule: String,
    /// Human-readable description.
    pub message: String,
}

/// Result of linting a set of paths.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by `(file, line, col, rule)`.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files: usize,
    /// Findings waived by a well-formed `allow(..., reason = "...")`.
    pub suppressed: usize,
}

impl Report {
    /// Whether the tree is clean (no findings at all).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

fn classify(path: &str) -> (Option<String>, FileKind) {
    let crate_name =
        path.split_once("crates/").and_then(|(_, rest)| rest.split('/').next()).map(str::to_string);
    let kind = if path.contains("/tests/") {
        FileKind::Test
    } else if path.contains("/benches/") {
        FileKind::Bench
    } else if path.contains("/examples/") {
        FileKind::Example
    } else if path.contains("/src/") {
        FileKind::Src
    } else {
        FileKind::Other
    };
    (crate_name, kind)
}

/// Finds the inclusive line ranges of `#[cfg(test)] mod ... { ... }` blocks.
fn test_regions(code: &[Tok]) -> Vec<(u32, u32)> {
    let text = |i: usize| code.get(i).map(|t| t.text.as_str());
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 6 < code.len() {
        let is_cfg_test = text(i) == Some("#")
            && text(i + 1) == Some("[")
            && text(i + 2) == Some("cfg")
            && text(i + 3) == Some("(")
            && text(i + 4) == Some("test")
            && text(i + 5) == Some(")")
            && text(i + 6) == Some("]");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let mut j = i + 7;
        // Skip any further attributes between the cfg and the item.
        while text(j) == Some("#") && text(j + 1) == Some("[") {
            let mut depth = 0i32;
            j += 1;
            while j < code.len() {
                match text(j) {
                    Some("[") => depth += 1,
                    Some("]") => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if text(j) == Some("pub") {
            j += 1;
            if text(j) == Some("(") {
                while j < code.len() && text(j) != Some(")") {
                    j += 1;
                }
                j += 1;
            }
        }
        if text(j) == Some("mod") {
            j += 2; // mod + name
            if text(j) == Some("{") {
                let start_line = code[i].line;
                let mut depth = 0i32;
                while j < code.len() {
                    match text(j) {
                        Some("{") => depth += 1,
                        Some("}") => {
                            depth -= 1;
                            if depth == 0 {
                                regions.push((start_line, code[j].line));
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
        }
        i = j.max(i + 1);
    }
    regions
}

/// Lints one file's source under a virtual path. Returns the findings plus
/// the count of pragma-suppressed ones. This is the engine `lint_paths`
/// drives and the fixture tests call directly.
pub fn lint_source(virtual_path: &str, src: &str) -> (Vec<Finding>, usize) {
    let toks = lexer::lex(src);
    let ids = rules::rule_ids();
    let scan = pragma::scan(&toks, &ids);
    let path = scan
        .fixture_path
        .clone()
        .unwrap_or_else(|| virtual_path.replace('\\', "/"))
        .trim_start_matches("./")
        .to_string();
    let (crate_name, kind) = classify(&path);
    let code: Vec<Tok> = toks.iter().filter(|t| !t.is_comment()).cloned().collect();
    let regions = test_regions(&code);
    let ctx = FileCtx { path: path.clone(), crate_name, kind, code, test_regions: regions };

    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    for rule in rules::registry() {
        for raw in (rule.check)(&ctx) {
            let waived = scan
                .allows
                .iter()
                .any(|a| a.applies_to_line == raw.line && a.rules.iter().any(|r| r == rule.id));
            if waived {
                suppressed += 1;
            } else {
                findings.push(Finding {
                    file: path.clone(),
                    line: raw.line,
                    col: raw.col,
                    rule: rule.id.to_string(),
                    message: raw.message,
                });
            }
        }
    }
    for err in &scan.errors {
        findings.push(Finding {
            file: path.clone(),
            line: err.line,
            col: err.col,
            rule: "P01".to_string(),
            message: err.message.clone(),
        });
    }
    findings
        .sort_by(|a, b| (a.line, a.col, a.rule.as_str()).cmp(&(b.line, b.col, b.rule.as_str())));
    (findings, suppressed)
}

/// Directory names the walker never descends into: build output, run
/// output, VCS state, and fixture corpora (fixtures violate on purpose —
/// lint one explicitly by passing its file path).
const SKIP_DIRS: &[&str] = &["target", "testdata", ".git", "figures-runs"];

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read directory '{}': {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    // Deterministic scan order regardless of filesystem enumeration order.
    entries.sort();
    for entry in entries {
        let name = entry.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if entry.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            walk(&entry, out)?;
        } else if name.ends_with(".rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Lints every `.rs` file under `paths` (files are taken as-is, directories
/// are walked recursively, skipping `target/`, `testdata/`, `.git/` and
/// `figures-runs/`). Paths are scanned in sorted order so the report is
/// deterministic. I/O problems are hard errors, not findings.
pub fn lint_paths(paths: &[PathBuf]) -> Result<Report, String> {
    let mut files = Vec::new();
    for path in paths {
        if path.is_dir() {
            walk(path, &mut files)?;
        } else if path.is_file() {
            files.push(path.clone());
        } else {
            return Err(format!("no such file or directory: '{}'", path.display()));
        }
    }
    let mut report = Report::default();
    for file in &files {
        let src = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read '{}': {e}", file.display()))?;
        let virtual_path = file.to_string_lossy().replace('\\', "/");
        let (findings, suppressed) = lint_source(&virtual_path, &src);
        report.findings.extend(findings);
        report.suppressed += suppressed;
        report.files += 1;
    }
    report.findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.col,
            b.rule.as_str(),
        ))
    });
    Ok(report)
}

/// Renders the human-readable diagnostic listing plus a summary line.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!("{}:{}:{}: {}: {}\n", f.file, f.line, f.col, f.rule, f.message));
    }
    out.push_str(&format!(
        "detlint: {} finding(s) in {} file(s), {} suppressed by pragma\n",
        report.findings.len(),
        report.files,
        report.suppressed
    ));
    out
}

/// Renders the machine-readable JSON report (one object, stable key order).
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\"tool\":\"detlint\",\"rules\":[");
    for (i, rule) in rules::registry().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"summary\":{}}}",
            json_str(rule.id),
            json_str(rule.summary)
        ));
    }
    out.push_str(&format!(
        "],\"files\":{},\"suppressed\":{},\"findings\":[",
        report.files, report.suppressed
    ));
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":{},\"line\":{},\"col\":{},\"rule\":{},\"message\":{}}}",
            json_str(&f.file),
            f.line,
            f.col,
            json_str(&f.rule),
            json_str(&f.message)
        ));
    }
    out.push_str("]}\n");
    out
}

/// Minimal JSON string encoder (the only JSON this crate emits).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        let (c, k) = classify("crates/routing/src/yen.rs");
        assert_eq!(c.as_deref(), Some("routing"));
        assert_eq!(k, FileKind::Src);
        let (c, k) = classify("crates/core/tests/shard_determinism.rs");
        assert_eq!(c.as_deref(), Some("core"));
        assert_eq!(k, FileKind::Test);
        let (c, k) = classify("compat/rand/src/lib.rs");
        assert_eq!(c, None);
        assert_eq!(k, FileKind::Src);
    }

    #[test]
    fn test_region_detection() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n";
        let code: Vec<Tok> = lexer::lex(src).into_iter().filter(|t| !t.is_comment()).collect();
        assert_eq!(test_regions(&code), vec![(2, 5)]);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn suppression_counts() {
        let src = "// detlint-fixture: path = crates/sim/src/x.rs\n\
                   fn f(m: &std::collections::HashMap<u32, u32>) -> u32 {\n\
                   m.values().sum() // detlint: allow(D01, reason = \"order-independent sum\")\n\
                   }\n";
        let (findings, suppressed) = lint_source("whatever.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(suppressed, 1);
    }
}
