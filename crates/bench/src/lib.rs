//! Shared helpers for the figure-regeneration CLI.
//!
//! The actual experiment logic lives in [`jellyfish::experiment`] (with the
//! shared vocabulary — scales and series — in [`jellyfish::figures`]); this
//! crate formats its output and hosts the process-level sweep drivers:
//! [`merge`] (shard-fragment validation and recombination shared by
//! `figures merge` and the launcher) and [`launch`] (the distributed shard
//! launcher behind `figures launch`). See EXPERIMENTS.md at the repository
//! root for the index of experiments and the distributed-run workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod launch;
pub mod merge;

use jellyfish::experiment::Dataset;
use jellyfish::figures::Scale;
use jellyfish::json::opt_str_into;

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
    let mut out =
        format!("{{\"experiment\":\"{name}\",\"scale\":\"{scale}\",\"seed\":{seed},\"topo\":");
    opt_str_into(&mut out, topo);
    out.push_str(",\"traffic\":");
    opt_str_into(&mut out, traffic);
    out.push_str(&format!(",\"data\":{}}}\n", data.to_json()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
