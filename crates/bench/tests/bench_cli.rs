//! `figures bench` through the real binary: without `--out` the report goes
//! to stdout only, so a run from the repository root cannot overwrite a
//! committed `BENCH_*.json`.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_figures");

/// Splits one record line of the report,
/// `{"kernel": "k", "n": 60, "ns_per_iter": 1.0, "speedup_vs_scalar": 2.000}`,
/// into its kernel name and its three numbers.
fn parse_record(line: &str) -> (String, usize, f64, f64) {
    let body = line.trim().trim_end_matches(',');
    let body = body.strip_prefix('{').and_then(|b| b.strip_suffix('}')).expect("record braces");
    let fields: Vec<(&str, &str)> = body
        .split(", ")
        .map(|field| field.split_once(": ").expect("record field is `\"key\": value`"))
        .collect();
    let keys: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys, ["\"kernel\"", "\"n\"", "\"ns_per_iter\"", "\"speedup_vs_scalar\""]);
    let kernel = fields[0].1.strip_prefix('"').and_then(|k| k.strip_suffix('"')).expect("quoted");
    (
        kernel.to_string(),
        fields[1].1.parse().expect("n is an integer"),
        fields[2].1.parse().expect("ns_per_iter is a number"),
        fields[3].1.parse().expect("speedup_vs_scalar is a number"),
    )
}

#[test]
fn bench_without_out_prints_the_report_and_writes_no_file() {
    let dir = std::env::temp_dir().join(format!("jf-bench-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(BIN)
        .args(["bench", "--scale", "tiny", "--seed", "7"])
        .current_dir(&dir)
        .output()
        .expect("figures binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let written: Vec<_> =
        std::fs::read_dir(&dir).unwrap().map(|entry| entry.unwrap().file_name()).collect();
    assert!(written.is_empty(), "bench without --out wrote {written:?}");
    std::fs::remove_dir_all(&dir).unwrap();

    let report = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = report.lines().collect();
    assert_eq!(lines[..4], ["{", "  \"scale\": \"tiny\",", "  \"seed\": 7,", "  \"records\": ["]);
    assert_eq!(lines[lines.len() - 2..], ["  ]", "}"]);
    let records: Vec<_> = lines[4..lines.len() - 2].iter().map(|l| parse_record(l)).collect();
    let kernels: Vec<&str> = records.iter().map(|(k, ..)| k.as_str()).collect();
    assert_eq!(
        kernels,
        [
            "all_pairs_bfs",
            "kl_bisection",
            "traffic_stream_permutation",
            "traffic_stream_zipf",
            "traffic_stream_all2all",
            "serve_dist_repair",
            "serve_path_repair",
            "serve_failure_sweep",
        ]
    );
    for (kernel, n, ns_per_iter, speedup) in &records {
        assert!(*n > 0 && *ns_per_iter > 0.0 && *speedup > 0.0, "{kernel}: {n} {ns_per_iter}");
    }
}
