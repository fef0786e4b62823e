//! Shared helpers for the figure-regeneration CLI and the Criterion benches.
//!
//! The actual experiment logic lives in [`jellyfish::experiment`] (with the
//! shared vocabulary — scales and series — in [`jellyfish::figures`]); this
//! crate
//! formats its output, wires it into `cargo bench` targets, and hosts the
//! process-level sweep drivers: [`merge`] (shard-fragment validation and
//! recombination shared by `figures merge` and the launcher) and [`launch`]
//! (the distributed shard launcher behind `figures launch`). See
//! EXPERIMENTS.md at the repository root for the index of experiments and
//! the distributed-run workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_report;
pub mod cli;
pub mod launch;
pub mod merge;

use jellyfish::experiment::Dataset;
use jellyfish::figures::{Scale, Series};

/// Renders one experiment result exactly as `figures run` prints it: a
/// header naming the experiment, scale, seed and (when overridden) the
/// `--topo` and `--traffic` specs, the dataset's TSV, and a trailing blank
/// line. `figures merge` uses the same function, which is what makes a
/// merged sharded run byte-identical to a single-process run.
pub fn render_run(
    name: &str,
    scale: Scale,
    seed: u64,
    topo: Option<&str>,
    traffic: Option<&str>,
    data: &Dataset,
) -> String {
    let mut header = format!("== {name} (scale: {scale}, seed: {seed}");
    if let Some(spec) = topo {
        header.push_str(&format!(", topo: {spec}"));
    }
    if let Some(spec) = traffic {
        header.push_str(&format!(", traffic: {spec}"));
    }
    format!("{header}) ==\n{}\n", data.to_tsv())
}

/// Renders one experiment result as a single JSON line with the same
/// metadata as [`render_run`].
pub fn render_run_json(
    name: &str,
    scale: Scale,
    seed: u64,
    topo: Option<&str>,
    traffic: Option<&str>,
    data: &Dataset,
) -> String {
    let topo = match topo {
        Some(spec) => escape_json(spec),
        None => "null".to_string(),
    };
    let traffic = match traffic {
        Some(spec) => escape_json(spec),
        None => "null".to_string(),
    };
    format!(
        "{{\"experiment\":\"{name}\",\"scale\":\"{scale}\",\"seed\":{seed},\"topo\":{topo},\"traffic\":{traffic},\"data\":{}}}\n",
        data.to_json()
    )
}

/// Renders a string as a quoted JSON literal (the same escape set the
/// dataset writer in `jellyfish::experiment` uses: quotes, backslashes, and
/// all control characters).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
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

/// Renders a collection of series as an aligned text table:
/// one `x` column and one column per series.
pub fn render_series_table(series: &[Series]) -> String {
    use std::collections::BTreeMap;
    let mut xs: Vec<f64> = Vec::new();
    for s in series {
        for &(x, _) in &s.points {
            if !xs.iter().any(|&e| (e - x).abs() < 1e-9) {
                xs.push(x);
            }
        }
    }
    xs.sort_by(f64::total_cmp);
    let mut out = String::new();
    out.push('x');
    for s in series {
        out.push('\t');
        out.push_str(&s.label);
    }
    out.push('\n');
    let maps: Vec<BTreeMap<u64, f64>> = series
        .iter()
        .map(|s| s.points.iter().map(|&(x, y)| ((x * 1e6) as u64, y)).collect())
        .collect();
    for &x in &xs {
        out.push_str(&format!("{x:.3}"));
        let key = (x * 1e6) as u64;
        for m in &maps {
            match m.get(&key) {
                Some(y) => out.push_str(&format!("\t{y:.4}")),
                None => out.push_str("\t-"),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders simple `(label, value)` rows.
pub fn render_rows(rows: &[(String, f64)]) -> String {
    let mut out = String::new();
    for (label, value) in rows {
        out.push_str(&format!("{label}\t{value:.4}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_series_on_x() {
        let s = vec![
            Series::new("a", vec![(1.0, 0.5), (2.0, 0.6)]),
            Series::new("b", vec![(2.0, 0.7)]),
        ];
        let table = render_series_table(&s);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("a") && lines[0].contains("b"));
        assert!(lines[1].contains("0.5") && lines[1].ends_with("-"));
        assert!(lines[2].contains("0.6") && lines[2].contains("0.7"));
    }

    #[test]
    fn table_with_nan_x_renders_instead_of_panicking() {
        let s = vec![Series::new("a", vec![(f64::NAN, 0.5), (1.0, 0.25)])];
        assert_eq!(render_series_table(&s), "x\ta\n1.000\t0.2500\nNaN\t0.5000\n");
    }

    #[test]
    fn run_rendering_is_header_plus_tsv() {
        let mut ds = Dataset::new();
        ds.push_point("a", 1.0, 0.5);
        let text = render_run("fig9", Scale::Tiny, 7, None, None, &ds);
        assert!(text.starts_with("== fig9 (scale: tiny, seed: 7) ==\n"));
        assert!(text.contains("x\ta\n1\t0.5\n"));
        assert!(text.ends_with('\n'));
        let json = render_run_json("fig9", Scale::Tiny, 7, None, None, &ds);
        assert!(json.starts_with(
            "{\"experiment\":\"fig9\",\"scale\":\"tiny\",\"seed\":7,\
             \"topo\":null,\"traffic\":null,"
        ));
        let with_topo = render_run("fig9", Scale::Tiny, 7, Some("fattree:k=4"), None, &ds);
        assert!(with_topo.starts_with("== fig9 (scale: tiny, seed: 7, topo: fattree:k=4) ==\n"));
        let json_topo = render_run_json("fig9", Scale::Tiny, 7, Some("fattree:k=4"), None, &ds);
        assert!(json_topo.contains("\"topo\":\"fattree:k=4\",\"traffic\":null,"));
        let with_traffic =
            render_run("fig9", Scale::Tiny, 7, Some("fattree:k=4"), Some("zipf:s=1.2"), &ds);
        assert!(with_traffic.starts_with(
            "== fig9 (scale: tiny, seed: 7, topo: fattree:k=4, traffic: zipf:s=1.2) ==\n"
        ));
        let json_traffic = render_run_json("fig9", Scale::Tiny, 7, None, Some("zipf:s=1.2"), &ds);
        assert!(json_traffic.contains("\"topo\":null,\"traffic\":\"zipf:s=1.2\","));
    }

    #[test]
    fn rows_render_labels_and_values() {
        let rows = vec![("Jellyfish".to_string(), 0.95), ("Fat-tree".to_string(), 0.9)];
        let text = render_rows(&rows);
        assert!(text.contains("Jellyfish\t0.9500"));
        assert!(text.contains("Fat-tree\t0.9000"));
    }
}
