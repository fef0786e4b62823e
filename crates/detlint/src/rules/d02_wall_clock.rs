//! **D02** — wall-clock reads (`Instant::now`, `SystemTime`) outside the
//! allowlisted timing modules.
//!
//! Wall-clock values differ every run, so any one that flows into a result
//! breaks byte-identical output. The workspace confines timing to two
//! places where it is *measurement about* a run, never *data in* one: the
//! distributed launcher and the `TimedRun` path of the experiment driver
//! (whose timings are validated to never influence item results — see
//! `run_selected_timed`). Benches and integration tests time things by
//! nature and are exempt; everything else needs a reasoned pragma.

use super::RawFinding;
use crate::lexer::TokKind;
use crate::{FileCtx, FileKind};

/// Files whose entire purpose is timing measurement. Kept as exact virtual
/// paths so a new timing call anywhere else still surfaces.
const ALLOWLIST: &[&str] = &[
    "crates/bench/src/launch.rs",
    // Only the `TimedRun` machinery in here reads the clock; the shard
    // wire-format validation keeps those timings out of item results.
    "crates/core/src/experiment.rs",
];

pub(super) fn check(ctx: &FileCtx) -> Vec<RawFinding> {
    if ctx.kind != FileKind::Src || ALLOWLIST.iter().any(|p| ctx.path.ends_with(p)) {
        return Vec::new();
    }
    let code = &ctx.code;
    let mut findings = Vec::new();
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokKind::Ident || ctx.in_test_region(tok.line) {
            continue;
        }
        let flagged = match tok.text.as_str() {
            // `Instant` alone is fine (type positions, imports); reading it
            // is what diverges.
            "Instant" => {
                code.get(i + 1).is_some_and(|t| t.text == ":")
                    && code.get(i + 2).is_some_and(|t| t.text == ":")
                    && code.get(i + 3).is_some_and(|t| t.text == "now")
            }
            // Any `SystemTime` use is wall-clock by definition.
            "SystemTime" => true,
            _ => false,
        };
        if flagged {
            findings.push(RawFinding::new(
                tok.line,
                tok.col,
                format!(
                    "wall-clock read ({}) outside the timing allowlist \
                     ({}): clock values differ every run and must never reach a \
                     result; move the measurement into a timing module or add \
                     `// detlint: allow(D02, reason = \"...\")`",
                    if tok.text == "Instant" { "Instant::now" } else { "SystemTime" },
                    ALLOWLIST.join(", ")
                ),
            ));
        }
    }
    findings
}
