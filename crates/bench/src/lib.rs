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

use jellyfish::experiment::{Dataset, RunSpec};

/// Renders one experiment result exactly as `figures run` prints it: a
/// header naming the experiment and the run (scale, seed and, when
/// overridden, the `--topo` and `--traffic` specs), the dataset's TSV, and a
/// trailing blank line. `figures merge` uses the same function, which is
/// what makes a merged sharded run byte-identical to a single-process run.
pub fn render_run(name: &str, run: &RunSpec, data: &Dataset) -> String {
    format!("== {name} ({run}) ==\n{}\n", data.to_tsv())
}

/// Renders one experiment result as a single JSON line with the same
/// metadata as [`render_run`].
pub fn render_run_json(name: &str, run: &RunSpec, data: &Dataset) -> String {
    let mut out = format!("{{\"experiment\":\"{name}\",");
    run.json_members_into(&mut out);
    out.push_str(&format!(",\"data\":{}}}\n", data.to_json()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish::figures::Scale;

    #[test]
    fn run_rendering_is_header_plus_tsv() {
        let mut ds = Dataset::new();
        ds.push_point("a", 1.0, 0.5);
        let bare = RunSpec::new(Scale::Tiny, 7);
        let text = render_run("fig9", &bare, &ds);
        assert!(text.starts_with("== fig9 (scale: tiny, seed: 7) ==\n"));
        assert!(text.contains("x\ta\n1\t0.5\n"));
        assert!(text.ends_with('\n'));
        let json = render_run_json("fig9", &bare, &ds);
        assert!(json.starts_with(
            "{\"experiment\":\"fig9\",\"scale\":\"tiny\",\"seed\":7,\
             \"topo\":null,\"traffic\":null,"
        ));
        let topo = bare.clone().with_topo("fattree:k=4".parse().unwrap());
        let with_topo = render_run("fig9", &topo, &ds);
        assert!(with_topo.starts_with("== fig9 (scale: tiny, seed: 7, topo: fattree:k=4) ==\n"));
        let json_topo = render_run_json("fig9", &topo, &ds);
        assert!(json_topo.contains("\"topo\":\"fattree:k=4\",\"traffic\":null,"));
        let both = topo.with_traffic("zipf:s=1.2".parse().unwrap());
        let with_traffic = render_run("fig9", &both, &ds);
        assert!(with_traffic.starts_with(
            "== fig9 (scale: tiny, seed: 7, topo: fattree:k=4, traffic: zipf:s=1.2) ==\n"
        ));
        let traffic = bare.with_traffic("zipf:s=1.2".parse().unwrap());
        let json_traffic = render_run_json("fig9", &traffic, &ds);
        assert!(json_traffic.contains("\"topo\":null,\"traffic\":\"zipf:s=1.2\","));
    }
}
